//! The class table the paper's planners read, kept across rounds.
//!
//! Every buffered packet belongs to one pseudo-buffer class at its node:
//! `(level j, column k)` for HPTS (Defs. 4.2–4.3), its destination for
//! the peak-to-sink planners. The planners read each class only through
//! its count and its LIFO-top packet. For each node the table keeps the
//! `(seq, class)` of every packet it summarised, in buffer order; the
//! packet count of each non-empty class, found by linear scan — a node
//! holds few classes (at most ℓ·m under HPTS), usually a handful; and a
//! bitmask of the levels at which some class is bad (two or more
//! packets), so that a planner skips a node with nothing bad at one bit
//! test. A class's LIFO top is its last entry in the `(seq, class)` list,
//! read from the buffer at the same index.
//!
//! The table persists across rounds and re-summarises only the buffers
//! that changed. Every placement takes a fresh, larger `seq` and every
//! removal shortens the buffer, so a buffer's length and last `seq`
//! change exactly when its contents do, and a node whose pair still
//! matches is skipped. A changed buffer is the packets that stayed, in
//! order, followed by the arrivals: the tail of `seq`s newer than the
//! last one summarised. Only the arrivals are classified; the departures
//! are found by walking the stored packets from the first `seq` that no
//! longer matches. A count that reaches 2 sets its level's bad bit, and
//! the mask is recounted only when some count falls from 2 to 1. A round
//! therefore costs one fingerprint read per node, plus, at each changed
//! node, the walk from its first departure and one class lookup per
//! departure and per arrival. The table reads the buffers, not the
//! planner's own sends, so capacity drops, crash sweeps and blocked sends
//! need no special case.
//!
//! `seq` restarts with every [`NetworkState`], so a fingerprint means
//! something only within one run. The table starts over whenever the
//! round it is synced for is not the one after the last round it was
//! synced for: the first round of every run, and a cloned or reused
//! planner meeting a new simulation. A node that has never held a packet
//! owns no heap memory.

use aqt_model::{NetworkState, NodeId, Round, StoredPacket};

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

/// What the table knows of one node.
#[derive(Debug, Clone, Default)]
struct NodeClasses {
    /// `(seq, class)` of every packet of the buffer last summarised, in
    /// buffer order; its length and last `seq` are the fingerprint.
    packets: Vec<(u64, Class)>,
    /// The packet count of every non-empty class, in no particular order.
    counts: Vec<(Class, u32)>,
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

    /// Re-summarises node `i` from its changed `buffer`.
    fn resync(
        &mut self,
        i: usize,
        buffer: &[StoredPacket],
        classify: &mut impl FnMut(usize, usize) -> (u32, usize),
    ) {
        // The buffer ascends in `seq`: the packets that stayed, in order,
        // then the arrivals, newer than every packet summarised.
        let stayed = match self.packets.last() {
            Some(&(last, _)) => buffer
                .iter()
                .rposition(|sp| sp.seq() <= last)
                .map_or(0, |at| at + 1),
            None => 0,
        };
        let mut recount = false;
        let mut left = self.packets.len() - stayed;
        if left > 0 {
            // Walk the stored packets from the first that left until the
            // last has been counted out; the rest all stayed.
            let first = self
                .packets
                .iter()
                .zip(buffer)
                .position(|(&(seq, _), sp)| seq != sp.seq())
                .unwrap_or(stayed);
            let (mut at, mut kept) = (first, first);
            while left > 0 {
                let (seq, class) = self.packets[at];
                at += 1;
                if buffer.get(kept).is_some_and(|sp| sp.seq() == seq) {
                    self.packets[kept] = (seq, class);
                    kept += 1;
                } else {
                    recount |= self.depart(class);
                    left -= 1;
                }
            }
            self.packets.copy_within(at.., kept);
            self.packets.truncate(stayed);
        }
        for sp in &buffer[stayed..] {
            let class = Class::new(classify(i, sp.dest().index()));
            self.packets.push((sp.seq(), class));
            self.arrive(class);
        }
        if recount {
            self.bad = self
                .counts
                .iter()
                .filter(|&&(_, count)| count >= 2)
                .fold(0, |bad, &(class, _)| bad | 1 << class.level());
        }
    }

    /// Counts one packet of `class` in; a class that becomes bad sets its
    /// level's bit.
    fn arrive(&mut self, class: Class) {
        match self.counts.iter_mut().find(|(c, _)| *c == class) {
            Some((_, count)) => {
                *count += 1;
                if *count == 2 {
                    self.bad |= 1 << class.level();
                }
            }
            None => self.counts.push((class, 1)),
        }
    }

    /// Counts one packet of `class` out. Returns whether the class fell
    /// from two packets to one, so that its level's bit may be stale.
    fn depart(&mut self, class: Class) -> bool {
        let at = self
            .counts
            .iter()
            .position(|&(c, _)| c == class)
            .expect("a summarised packet's class is counted");
        let count = &mut self.counts[at].1;
        *count -= 1;
        match *count {
            0 => {
                self.counts.swap_remove(at);
                false
            }
            1 => true,
            _ => false,
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

    /// Node `i`'s non-empty classes and their packet counts, in no
    /// particular order.
    pub(crate) fn node(&self, i: usize) -> impl Iterator<Item = (Class, u32)> + '_ {
        self.nodes[i].counts.iter().copied()
    }

    /// Whether class `(j, k)` at node `i` holds a packet.
    pub(crate) fn holds(&self, i: usize, class: (u32, usize)) -> bool {
        let class = Class::new(class);
        self.nodes[i].counts.iter().any(|&(c, _)| c == class)
    }

    /// The LIFO top of class `(j, k)` at node `i`, or `None` if the class
    /// is empty: the class's last packet in buffer order, read from
    /// `state`, the state the table was last synced with.
    pub(crate) fn get<'s>(
        &self,
        state: &'s NetworkState,
        i: usize,
        class: (u32, usize),
    ) -> Option<&'s StoredPacket> {
        let class = Class::new(class);
        let packets = &self.nodes[i].packets;
        let at = packets.iter().rposition(|&(_, c)| c == class)?;
        let top = &state.buffer(NodeId::new(i))[at];
        debug_assert_eq!(top.seq(), packets[at].0, "the table summarises `state`");
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use aqt_model::{
        CapacityConfig, DropPolicyKind, FaultEvent, FaultSpec, Injection, Path, Pattern, Simulation,
    };

    use super::*;
    use crate::{Greedy, GreedyPolicy, Hierarchy};

    const N: usize = 16;

    /// Three packets a round for 240 rounds between pseudo-random pairs
    /// of path nodes, with sources in the left half so that buffers fill.
    fn traffic() -> Pattern {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % bound as u64) as usize
        };
        let mut injections = Vec::new();
        for t in 0..240 {
            for _ in 0..3 {
                let source = below(N / 2);
                let dest = source + 1 + below(N - 1 - source);
                injections.push(Injection::new(t, source, dest));
            }
        }
        Pattern::from_injections(injections)
    }

    /// Every buffered packet of `state`.
    fn buffered(state: &NetworkState) -> impl Iterator<Item = &StoredPacket> {
        (0..state.node_count()).flat_map(|i| state.buffer(NodeId::new(i)))
    }

    /// Syncs `table` for `round` and checks it against a summary of
    /// `state` rebuilt from its buffers: `placed` classifications, and at
    /// every node the counts, the bad mask, and the top of every class in
    /// `universe`.
    fn sync_and_check(
        table: &mut ClassTable,
        round: Round,
        state: &NetworkState,
        classify: impl Fn(usize, usize) -> (u32, usize),
        universe: &[(u32, usize)],
        placed: usize,
    ) {
        let calls = Cell::new(0);
        table.sync(round, state, |i, w| {
            calls.set(calls.get() + 1);
            classify(i, w)
        });
        assert_eq!(calls.get(), placed, "round {round}: classifications");
        for i in 0..state.node_count() {
            // Each class's count and the `seq` of its newest packet.
            let mut expected = BTreeMap::new();
            for sp in state.buffer(NodeId::new(i)) {
                let (count, top) = expected
                    .entry(classify(i, sp.dest().index()))
                    .or_insert((0, 0));
                *count += 1;
                *top = sp.seq();
            }
            let counts: BTreeMap<_, _> = table
                .node(i)
                .map(|(class, count)| ((class.level(), class.column()), count))
                .collect();
            let want: BTreeMap<_, _> = expected.iter().map(|(&c, &(n, _))| (c, n)).collect();
            assert_eq!(counts, want, "round {round}, node {i}: counts");
            let bad = want
                .iter()
                .filter(|&(_, &n)| n >= 2)
                .fold(0, |bad, (&(j, _), _)| bad | 1 << j);
            assert_eq!(table.nodes[i].bad, bad, "round {round}, node {i}: bad mask");
            for &class in universe {
                let top = expected.get(&class).map(|&(_, seq)| seq);
                let got = table.get(state, i, class).map(StoredPacket::seq);
                assert_eq!(got, top, "round {round}, node {i}, class {class:?}: top");
                assert_eq!(table.holds(i, class), top.is_some());
            }
        }
    }

    #[test]
    fn the_table_matches_a_summary_rebuilt_every_round() {
        // Greedy-LIFO sends the newest packet, `Head` drops the oldest and
        // `Farthest` one from mid-buffer, and the crash empties node 5:
        // packets leave from every position and whole buffers empty.
        let h = Hierarchy::covering(N, 2).unwrap();
        let levels: Vec<_> = (0..h.levels())
            .flat_map(|j| (0..h.base()).map(move |k| (j, k)))
            .collect();
        let dests: Vec<_> = (0..N).map(|w| (0, w)).collect();
        let crash = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 5,
            at: 60,
            until: Some(90),
        });
        for policy in [DropPolicyKind::Head, DropPolicyKind::Farthest] {
            let protocol = Greedy::new(GreedyPolicy::Lifo);
            let mut sim = Simulation::new(Path::new(N), protocol, &traffic())
                .unwrap()
                .with_capacity(CapacityConfig::uniform(5), policy)
                .with_faults(&crash);
            let (mut by_level, mut by_dest) = (ClassTable::default(), ClassTable::default());
            // The largest `seq` buffered at any earlier sync: a packet is
            // placed after the last sync exactly when its `seq` is larger.
            let mut newest = None;
            for t in 0..300 {
                sim.step().unwrap();
                let (round, state) = (Round::new(t), sim.state());
                let placed = buffered(state)
                    .filter(|sp| newest.is_none_or(|s| sp.seq() > s))
                    .count();
                newest = buffered(state).map(StoredPacket::seq).max().max(newest);
                let by_class = |i, w| h.class(i, w);
                sync_and_check(&mut by_level, round, state, by_class, &levels, placed);
                let by_dest_class = |_, w| (0, w);
                sync_and_check(&mut by_dest, round, state, by_dest_class, &dests, placed);
            }
            let m = sim.metrics();
            assert!(m.dropped > 0, "{policy:?}: the run must drop packets");
            assert!(m.faulted > 0, "{policy:?}: the crash must take packets");
        }
    }
}
