//! The per-round class table the paper's planners read.
//!
//! Every buffered packet belongs to one pseudo-buffer class at its node:
//! `(level j, column k)` for HPTS (Defs. 4.2–4.3), its destination for
//! the peak-to-sink planners. The planners read each class only through
//! its count and its LIFO-top packet, so a round starts by summarising
//! every non-empty class once. The summaries are stored flat: node i's
//! classes sit contiguously in one vector behind a per-node offset, and a
//! class is found by linear scan — a node holds few classes (at most ℓ·m
//! under HPTS), usually a handful. Each protocol owns its table and
//! refills it in place every round, so after the first round planning
//! allocates nothing.

use aqt_model::{NetworkState, NodeId, PacketId};

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

/// One non-empty class at one node, for one round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Info {
    pub(crate) count: usize,
    /// The LIFO-top packet: the one with the largest `seq`.
    pub(crate) top: PacketId,
    top_seq: u64,
    /// Final destination of the LIFO-top packet (needed for pre-bad
    /// detection at the receiving end).
    pub(crate) top_dest: usize,
}

/// Every node's non-empty classes for one round, stored flat.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassTable {
    /// Node i's classes are `classes[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    /// Kept apart from `infos` so the scan reads consecutive words.
    classes: Vec<Class>,
    infos: Vec<Info>,
}

impl ClassTable {
    /// Refills the table from `state`. `classify(i, w)` names the `(level,
    /// column)` class of a packet at node `i` destined `w`.
    pub(crate) fn rebuild(
        &mut self,
        state: &NetworkState,
        mut classify: impl FnMut(usize, usize) -> (u32, usize),
    ) {
        self.start.clear();
        self.classes.clear();
        self.infos.clear();
        for i in 0..state.node_count() {
            let first = self.classes.len();
            self.start.push(first);
            for sp in state.buffer(NodeId::new(i)) {
                let w = sp.dest().index();
                let class = Class::new(classify(i, w));
                match self.classes[first..].iter().position(|&c| c == class) {
                    Some(at) => {
                        let e = &mut self.infos[first + at];
                        e.count += 1;
                        if sp.seq() >= e.top_seq {
                            e.top = sp.id();
                            e.top_seq = sp.seq();
                            e.top_dest = w;
                        }
                    }
                    None => {
                        self.classes.push(class);
                        self.infos.push(Info {
                            count: 1,
                            top: sp.id(),
                            top_seq: sp.seq(),
                            top_dest: w,
                        });
                    }
                }
            }
        }
        self.start.push(self.classes.len());
    }

    /// Number of nodes the table summarises.
    pub(crate) fn node_count(&self) -> usize {
        self.start.len().saturating_sub(1)
    }

    /// Node `i`'s non-empty classes, in order of first appearance.
    pub(crate) fn node(&self, i: usize) -> impl Iterator<Item = (Class, &Info)> {
        let range = self.start[i]..self.start[i + 1];
        self.classes[range.clone()]
            .iter()
            .copied()
            .zip(&self.infos[range])
    }

    /// The summary of class `(j, k)` at node `i`, or `None` if it is empty.
    pub(crate) fn get(&self, i: usize, class: (u32, usize)) -> Option<&Info> {
        let (first, end) = (self.start[i], self.start[i + 1]);
        let class = Class::new(class);
        self.classes[first..end]
            .iter()
            .position(|&c| c == class)
            .map(|at| &self.infos[first + at])
    }
}
