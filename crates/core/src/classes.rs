//! The class table the paper's planners read, kept across rounds.
//!
//! Every buffered packet belongs to one pseudo-buffer class at its node:
//! `(level j, column k)` for HPTS (Defs. 4.2–4.3), its destination for
//! the peak-to-sink planners. The planners read each class only through
//! its count and its LIFO-top packet, so the table keeps one summary per
//! non-empty class at each node, found by linear scan — a node holds few
//! classes (at most ℓ·m under HPTS), usually a handful — and a bitmask of
//! the levels at which some class is bad (two or more packets), so that
//! a planner skips a node with nothing bad at one bit test.
//!
//! The table persists across rounds and re-summarises only the buffers
//! that changed. For each node it also keeps the `(seq, class)` of every
//! packet it summarised, in buffer order. Every placement takes a fresh,
//! larger `seq` and every removal shortens the buffer, so a buffer's
//! length and last `seq` change exactly when its contents do, and a node
//! whose pair still matches is skipped. A changed buffer is the packets
//! that stayed, in order, followed by the arrivals, whose `seq` exceed
//! every summarised one: one walk of the stored classes against the
//! buffer drops the packets that left, and only the arrivals are
//! classified. A round therefore costs one fingerprint read per node,
//! plus the occupancy of the changed nodes, plus one classification per
//! arrival. The table reads the buffers, not the planner's own sends, so
//! capacity drops, crash sweeps and blocked sends need no special case.
//!
//! `seq` restarts with every [`NetworkState`], so a fingerprint means
//! something only within one run. The table starts over whenever the
//! round it is synced for is not the one after the last round it was
//! synced for: the first round of every run, and a cloned or reused
//! planner meeting a new simulation. A node that has never held a packet
//! owns no heap memory.

use aqt_model::{NetworkState, NodeId, PacketId, Round, StoredPacket};

/// A pseudo-buffer `(level j, column k)`, packed into one word so that
/// a scan makes one comparison per class. A column is a base-m digit of a
/// `u32` node index (or zone), or a destination node, so it fits in the
/// low 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Class(u64);

impl Class {
    pub(crate) fn new((j, k): (u32, usize)) -> Self {
        let k = u32::try_from(k).expect("a column is a digit of a u32 index");
        Class((u64::from(j) << 32) | u64::from(k))
    }

    pub(crate) fn level(self) -> u32 {
        (self.0 >> 32) as u32
    }

    pub(crate) fn column(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }
}

/// One non-empty class at one node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Info {
    pub(crate) count: usize,
    /// The LIFO-top packet: the one with the largest `seq`.
    pub(crate) top: PacketId,
    /// The top's `seq`, or [`LEFT`] while a re-summary looks for it.
    top_seq: u64,
    /// Final destination of the LIFO-top packet (needed for pre-bad
    /// detection at the receiving end).
    pub(crate) top_dest: usize,
}

/// The `top_seq` of a class whose top left the buffer and has not been
/// found again yet. No placement reaches this `seq`.
const LEFT: u64 = u64::MAX;

impl Info {
    fn new(top: &StoredPacket) -> Self {
        Info {
            count: 1,
            top: top.id(),
            top_seq: top.seq(),
            top_dest: top.dest().index(),
        }
    }

    fn set_top(&mut self, top: &StoredPacket) {
        self.top = top.id();
        self.top_seq = top.seq();
        self.top_dest = top.dest().index();
    }
}

/// What the table knows of one node.
#[derive(Debug, Clone, Default)]
struct NodeClasses {
    /// `(seq, class)` of every packet of the buffer last summarised, in
    /// buffer order; its length and last `seq` are the fingerprint.
    packets: Vec<(u64, Class)>,
    /// One summary per non-empty class, in no particular order.
    classes: Vec<(Class, Info)>,
    /// Bit j is set when some level-j class holds two or more packets.
    /// Levels are below 64: a hierarchy's base is at least 2 and `m^ℓ`
    /// fits a `usize`.
    bad: u64,
}

impl NodeClasses {
    /// Whether `buffer` is the buffer last summarised.
    fn summarises(&self, buffer: &[StoredPacket]) -> bool {
        buffer.len() == self.packets.len()
            && buffer.last().map(StoredPacket::seq) == self.packets.last().map(|&(seq, _)| seq)
    }

    fn info_mut(&mut self, class: Class) -> Option<&mut Info> {
        self.classes
            .iter_mut()
            .find(|(c, _)| *c == class)
            .map(|(_, e)| e)
    }

    /// Re-summarises node `i` from its changed `buffer`.
    fn resync(
        &mut self,
        i: usize,
        buffer: &[StoredPacket],
        classify: &mut impl FnMut(usize, usize) -> (u32, usize),
    ) {
        // The buffer starts with the packets that stayed, in order: walk
        // the stored ones against it and drop those that left.
        let mut kept = 0;
        for at in 0..self.packets.len() {
            let (seq, class) = self.packets[at];
            if buffer.get(kept).is_some_and(|sp| sp.seq() == seq) {
                self.packets[kept] = (seq, class);
                kept += 1;
            } else {
                let e = self
                    .info_mut(class)
                    .expect("a summarised packet's class is in the table");
                e.count -= 1;
                if e.top_seq == seq {
                    e.top_seq = LEFT;
                }
            }
        }
        self.packets.truncate(kept);
        // The rest are arrivals, newer than every packet that stayed.
        for sp in &buffer[kept..] {
            let class = Class::new(classify(i, sp.dest().index()));
            self.packets.push((sp.seq(), class));
            match self.info_mut(class) {
                Some(e) => {
                    e.count += 1;
                    e.set_top(sp);
                }
                None => self.classes.push((class, Info::new(sp))),
            }
        }
        self.classes.retain(|(_, e)| e.count > 0);
        self.bad = 0;
        for (class, e) in &mut self.classes {
            if e.top_seq == LEFT {
                // The top left and nothing arrived: the new top is the
                // class's newest packet still here. A drop may have taken
                // the packet under the old top as well, so search.
                let at = self
                    .packets
                    .iter()
                    .rposition(|&(_, c)| c == *class)
                    .expect("a non-empty class has a packet");
                e.set_top(&buffer[at]);
            }
            if e.count >= 2 {
                self.bad |= 1 << class.level();
            }
        }
    }
}

/// Every node's non-empty classes, kept current across the rounds of one
/// run.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassTable {
    /// The round last synced for; `None` before the first.
    synced: Option<Round>,
    nodes: Vec<NodeClasses>,
}

impl ClassTable {
    /// Brings the table up to date with `state` for planning `round`.
    /// `classify(i, w)` names the `(level, column)` class of a packet at
    /// node `i` destined `w`; it must not change between rounds.
    pub(crate) fn sync(
        &mut self,
        round: Round,
        state: &NetworkState,
        mut classify: impl FnMut(usize, usize) -> (u32, usize),
    ) {
        if self.synced.map(Round::next) != Some(round) {
            // Another run: its fingerprints say nothing about this one.
            self.nodes.clear();
            self.nodes
                .resize_with(state.node_count(), NodeClasses::default);
        }
        self.synced = Some(round);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let buffer = state.buffer(NodeId::new(i));
            if !node.summarises(buffer) {
                node.resync(i, buffer, &mut classify);
            }
        }
    }

    /// Number of nodes the table summarises.
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether some level-`level` class at node `i` holds two or more
    /// packets.
    pub(crate) fn has_bad(&self, i: usize, level: u32) -> bool {
        self.nodes[i].bad & (1 << level) != 0
    }

    /// Node `i`'s non-empty classes, in no particular order.
    pub(crate) fn node(&self, i: usize) -> impl Iterator<Item = (Class, &Info)> {
        self.nodes[i].classes.iter().map(|(c, e)| (*c, e))
    }

    /// The summary of class `(j, k)` at node `i`, or `None` if it is empty.
    pub(crate) fn get(&self, i: usize, class: (u32, usize)) -> Option<&Info> {
        let class = Class::new(class);
        self.nodes[i]
            .classes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, e)| e)
    }
}
