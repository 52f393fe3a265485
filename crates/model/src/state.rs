//! The mutable network configuration: per-node buffers plus the staging
//! area used by phase-batched protocols (HPTS's ℓ-reduction).
//!
//! Buffers live in a **slab arena**: one contiguous `Vec<StoredPacket>`
//! of slots, with each node owning a `[start, start + cap)` span inside
//! it. The hot loop therefore walks cache-linear memory and never
//! allocates per packet — a full-buffer node and an empty one cost the
//! same pointer arithmetic — which is what keeps a million-node mesh round
//! at memory speed. Spans double their (power-of-two) capacity when full,
//! relocating to a recycled extent of that size when one is free
//! (vacated extents are released at the per-round active-set refresh) and
//! to the slab tail otherwise — so total slab size stays within a constant
//! factor of the peak aggregate occupancy and traveling sparse traffic
//! reuses the same hot extents round after round; no compaction pass is
//! needed.
//!
//! On top of the arena sits the **active set**: a dense occupancy bitset
//! (bit `v` ⇔ `|L(v)| > 0`, exact at all times) with a summary word per
//! 4,096 nodes (bit `w` ⇔ bitset word `w` is non-zero, also exact at all
//! times), plus an `emptied` list of the nodes whose buffers emptied since
//! the last refresh. [`refresh_active`](NetworkState::refresh_active)
//! first releases the extents of emptied nodes that are still empty, then
//! rebuilds the exact ascending occupied set by walking the summary, the
//! non-zero words and their set bits: O(n / 4096 + occupied words + live
//! nodes), with no comparison sort. The engine refreshes once per round
//! (after injections and crash sweeps, before the `L^t` observation),
//! which is what lets planning, validation and metrics run in O(live
//! packets) instead of O(nodes) — the point of the active-set engine.

use crate::ids::{NodeId, PacketId};
use crate::packet::{Packet, StoredPacket};

/// A node's index range inside the slot slab.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// First slot of the span inside the slab.
    start: u32,
    /// Live packets (the buffer contents are `slots[start..start + len]`).
    len: u32,
    /// Reserved slots: 0 or a power of two; `len == cap` triggers
    /// relocation on the next push.
    cap: u32,
}

const EMPTY_SPAN: Span = Span {
    start: 0,
    len: 0,
    cap: 0,
};

/// The slot slab every span points into.
#[derive(Debug, Clone, Default)]
struct Slab {
    /// The slots. Slots outside every live span hold stale copies.
    slots: Vec<StoredPacket>,
    /// Total live packets (Σ span.len).
    live: usize,
    /// Vacated extents by size: `free[k]` holds the starts of recycled
    /// `2^k`-slot extents. Span relocations pop an extent of the wanted
    /// size before growing the slab, so traveling sparse traffic (a wave
    /// vacating one row of spans per round while occupying the next)
    /// reuses the same hot extents forever instead of growing the slab
    /// every round.
    free: Vec<Vec<u32>>,
}

impl Slab {
    /// Files the extent `[start, start + cap)` for reuse (`cap` is a
    /// power of two).
    fn release(&mut self, start: u32, cap: u32) {
        let class = cap.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize(class + 1, Vec::new());
        }
        self.free[class].push(start);
    }

    /// Pushes `sp` at the back of `span`, relocating the span with doubled
    /// capacity when full.
    fn push(&mut self, span: &mut Span, sp: StoredPacket) {
        if span.len == span.cap {
            let want = (span.cap * 2).max(2);
            let (s, l) = (span.start as usize, span.len as usize);
            let class = want.trailing_zeros() as usize;
            let new_start = match self.free.get_mut(class).and_then(Vec::pop) {
                // A recycled extent of exactly `want` slots: copy the live
                // prefix over in place of growing the slab.
                Some(start) => {
                    self.slots.copy_within(s..s + l, start as usize);
                    start
                }
                None => {
                    let start = self.slots.len() as u32;
                    self.slots.extend_from_within(s..s + l);
                    // Pad the reserve with copies of the incoming packet;
                    // anything beyond `len` is dead storage.
                    self.slots.resize(start as usize + want as usize, sp);
                    start
                }
            };
            if span.cap > 0 {
                self.release(span.start, span.cap);
            }
            self.slots[new_start as usize + l] = sp;
            span.start = new_start;
            span.cap = want;
        } else {
            self.slots[(span.start + span.len) as usize] = sp;
        }
        span.len += 1;
        self.live += 1;
    }

    /// Removes the packet `id` from `span` (shift-left within the span),
    /// returning it.
    fn remove(&mut self, span: &mut Span, id: PacketId) -> Option<StoredPacket> {
        let (s, l) = (span.start as usize, span.len as usize);
        let pos = self.slots[s..s + l].iter().position(|sp| sp.id() == id)?;
        let sp = self.slots[s + pos];
        self.slots.copy_within(s + pos + 1..s + l, s + pos);
        span.len -= 1;
        self.live -= 1;
        Some(sp)
    }
}

/// The configuration `L^t`: one buffer per node, each an ordered list of
/// stored packets, plus a staging area for injected-but-not-yet-accepted
/// packets (only used when the protocol runs in batched injection mode).
///
/// Within a buffer, packets are kept in placement order; [`StoredPacket::seq`]
/// is globally increasing, so the LIFO top of any sub-buffer is the entry
/// with the largest `seq` and the FIFO head the smallest.
///
/// Mutation is reserved to the engine (crate-private methods); protocols
/// receive `&NetworkState` and express decisions through a
/// [`ForwardingPlan`](crate::ForwardingPlan).
#[derive(Debug, Clone)]
pub struct NetworkState {
    /// Per-node index ranges into the slab.
    spans: Vec<Span>,
    slab: Slab,
    staged: Vec<Packet>,
    /// Staged packets per source node (capacity enforcement in
    /// [`StagingMode::Counted`](crate::StagingMode::Counted) and
    /// observability both want this without scanning `staged`). A
    /// per-node ledger that most runs never write: empty until its first
    /// write (see `ledger`).
    staged_counts: Vec<usize>,
    next_seq: u64,
    /// Occupancy bitset: bit `v` is set iff `v`'s buffer is non-empty.
    /// Exact after every mutation (including crash sweeps and capacity
    /// drops, which all funnel through [`place`](NetworkState::place) /
    /// [`remove`](NetworkState::remove)).
    occ_bits: Vec<u64>,
    /// One bit per word of `occ_bits`: bit `w` is set iff `occ_bits[w]`
    /// is non-zero. Exact after every mutation, like `occ_bits`, so a
    /// refresh skips 4,096 empty nodes per clear summary bit.
    occ_summary: Vec<u64>,
    /// Nodes whose buffer emptied since the last refresh, in removal order
    /// (a node that empties twice is listed twice). The refresh releases
    /// the extents of those still empty.
    emptied: Vec<u32>,
    /// The ascending occupied set as of the last refresh.
    active: Vec<u32>,
    /// Whether `active` is still the exact occupied set: cleared by every
    /// `0 → 1` or `1 → 0` occupancy transition, set by a refresh.
    active_exact: bool,
}

/// A per-node ledger of `n` entries, allocated (all zero) on its first
/// write: an empty ledger reads as zero everywhere, so runs that never
/// stage pay nothing for it.
fn ledger<T: Clone + Default>(entries: &mut Vec<T>, n: usize) -> &mut Vec<T> {
    if entries.is_empty() {
        entries.resize(n, T::default());
    }
    entries
}

impl NetworkState {
    pub(crate) fn new(n: usize) -> Self {
        NetworkState {
            spans: vec![EMPTY_SPAN; n],
            slab: Slab::default(),
            staged: Vec::new(),
            staged_counts: Vec::new(),
            next_seq: 0,
            occ_bits: vec![0; n.div_ceil(64)],
            occ_summary: vec![0; n.div_ceil(64 * 64)],
            emptied: Vec::new(),
            active: Vec::new(),
            active_exact: true,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.spans.len()
    }

    /// The contents of `v`'s buffer in placement (arrival) order.
    #[inline]
    pub fn buffer(&self, v: NodeId) -> &[StoredPacket] {
        let span = &self.spans[v.index()];
        let start = span.start as usize;
        &self.slab.slots[start..start + span.len as usize]
    }

    /// `|L(v)|`: current occupancy of `v`'s buffer.
    #[inline]
    pub fn occupancy(&self, v: NodeId) -> usize {
        self.spans[v.index()].len as usize
    }

    /// Total packets currently buffered (excluding staged).
    pub fn total_buffered(&self) -> usize {
        self.slab.live
    }

    /// Packets injected but not yet accepted (batched injection mode).
    pub fn staged(&self) -> &[Packet] {
        &self.staged
    }

    /// Number of staged packets.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Staged packets whose source buffer is `v` (they will enter `v` at
    /// the next phase boundary).
    pub fn staged_count(&self, v: NodeId) -> usize {
        self.staged_counts.get(v.index()).copied().unwrap_or(0)
    }

    /// Looks up a packet in `v`'s buffer.
    pub fn find(&self, v: NodeId, id: PacketId) -> Option<&StoredPacket> {
        self.buffer(v).iter().find(|sp| sp.id() == id)
    }

    /// Number of packets at `v` destined for `dest` (`|L_k(v)|` where
    /// `w_k = dest`).
    pub fn count_for_dest(&self, v: NodeId, dest: NodeId) -> usize {
        self.buffer(v).iter().filter(|sp| sp.dest() == dest).count()
    }

    /// The LIFO top (most recently placed packet) of the sub-buffer of `v`
    /// selected by `pred`, if non-empty.
    ///
    /// Buffers are kept in ascending `seq` (placement) order, so the first
    /// match scanning from the back is the top — no full-buffer scan.
    pub fn lifo_top_where<F>(&self, v: NodeId, pred: F) -> Option<&StoredPacket>
    where
        F: Fn(&StoredPacket) -> bool,
    {
        self.buffer(v).iter().rev().find(|sp| pred(sp))
    }

    /// The FIFO head (earliest placed packet) of the sub-buffer of `v`
    /// selected by `pred`, if non-empty.
    ///
    /// The first match scanning from the front (placement order ascends in
    /// `seq`).
    pub fn fifo_head_where<F>(&self, v: NodeId, pred: F) -> Option<&StoredPacket>
    where
        F: Fn(&StoredPacket) -> bool,
    {
        self.buffer(v).iter().find(|sp| pred(sp))
    }

    // ------------------------------------------------------------------
    // Engine-only mutations.
    // ------------------------------------------------------------------

    /// Places `packet` into `v`'s buffer with a fresh sequence number and
    /// `hop`, the packet's next hop out of `v` (see
    /// [`StoredPacket::next_hop`]).
    pub(crate) fn place(&mut self, v: NodeId, packet: Packet, hop: Option<NodeId>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = v.index();
        let span = &mut self.spans[i];
        if span.len == 0 {
            let word = i / 64;
            if self.occ_bits[word] == 0 {
                self.occ_summary[word / 64] |= 1u64 << (word % 64);
            }
            self.occ_bits[word] |= 1u64 << (i % 64);
            self.active_exact = false;
        }
        self.slab.push(span, StoredPacket::new(packet, hop, seq));
    }

    /// Adds a packet to the staging area.
    pub(crate) fn stage(&mut self, packet: Packet) {
        ledger(&mut self.staged_counts, self.spans.len())[packet.source().index()] += 1;
        self.staged.push(packet);
    }

    /// Drains the staging area into `out` (acceptance at a phase
    /// boundary), reusing `out`'s allocation.
    pub(crate) fn take_staged_into(&mut self, out: &mut Vec<Packet>) {
        out.clear();
        out.append(&mut self.staged);
        self.staged_counts.fill(0);
    }

    /// Removes every staged packet whose source buffer is `v` (the node
    /// crashed before acceptance), returning how many were removed.
    pub(crate) fn sweep_staged(&mut self, v: NodeId) -> usize {
        let before = self.staged.len();
        self.staged.retain(|p| p.source() != v);
        let removed = before - self.staged.len();
        if removed > 0 {
            self.staged_counts[v.index()] -= removed;
        }
        removed
    }

    /// Removes a packet from `v`'s buffer, returning it.
    pub(crate) fn remove(&mut self, v: NodeId, id: PacketId) -> Option<StoredPacket> {
        let i = v.index();
        let span = &mut self.spans[i];
        let sp = self.slab.remove(span, id);
        if sp.is_some() && span.len == 0 {
            let word = i / 64;
            self.occ_bits[word] &= !(1u64 << (i % 64));
            if self.occ_bits[word] == 0 {
                self.occ_summary[word / 64] &= !(1u64 << (word % 64));
            }
            // Its extent is released at the next refresh, if it is still
            // empty then.
            self.emptied.push(i as u32);
            self.active_exact = false;
        }
        sp
    }

    // ------------------------------------------------------------------
    // Active set (occupancy bitset + summary + emptied list).
    // ------------------------------------------------------------------

    /// Whether `v`'s buffer is non-empty — an O(1) bitset probe, exact at
    /// all times (unlike `active_nodes`, which is only exact post-refresh).
    #[inline]
    pub fn is_occupied(&self, v: NodeId) -> bool {
        let i = v.index();
        self.occ_bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The nodes with non-empty buffers, in ascending order.
    ///
    /// Only valid between a `refresh_active` (crate-internal) and the next
    /// occupancy transition. The engine refreshes once per round right
    /// before the `L^t` observation, so the set is exact throughout
    /// [`Protocol::plan`](crate::Protocol::plan) — protocols may iterate it
    /// instead of `0..node_count()` with identical results (empty buffers
    /// never produce sends).
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        debug_assert!(self.active_exact, "active_nodes on a stale active set");
        self.active.iter().map(|&v| NodeId::new(v as usize))
    }

    /// Number of active (non-empty) nodes. Derived from the occupancy
    /// bitset, so — unlike [`active_nodes`](NetworkState::active_nodes) —
    /// it is exact at any time, not just post-refresh. O(n / 64).
    pub fn active_count(&self) -> usize {
        self.occ_bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rebuilds the exact ascending occupied set. First the extents of the
    /// nodes that emptied since the last refresh and are still empty go
    /// back to the slab's free lists, in removal order (nodes that empty
    /// and refill within a round keep theirs, so steady dense buffers keep
    /// their reserve and the in-place fast path of `Slab::push`, and
    /// traveling traffic hands its row of extents straight to the next
    /// row). Then the summary, the non-zero words and their set bits are
    /// walked in order: O(emptied + n / 4096 + occupied words + live
    /// nodes), with no sort. The engine calls it once per round between
    /// the injection phase and the `L^t` observation.
    pub(crate) fn refresh_active(&mut self) {
        if self.active_exact {
            return;
        }
        for &v in &self.emptied {
            let span = &mut self.spans[v as usize];
            // `cap == 0` after the first release, so a node listed twice
            // is released once.
            if span.len == 0 && span.cap > 0 {
                self.slab.release(span.start, span.cap);
                span.start = 0;
                span.cap = 0;
            }
        }
        self.emptied.clear();
        self.active.clear();
        for (s, &summary) in self.occ_summary.iter().enumerate() {
            for b in set_bits(summary) {
                let w = s * 64 + b;
                for bit in set_bits(self.occ_bits[w]) {
                    self.active.push((w * 64 + bit) as u32);
                }
            }
        }
        self.active_exact = true;
    }
}

/// The positions of the set bits of `bits`, ascending.
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            b
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Round;

    fn packet(id: u64, dest: usize) -> Packet {
        Packet::new(
            PacketId::new(id),
            Round::ZERO,
            NodeId::new(0),
            NodeId::new(dest),
        )
    }

    #[test]
    fn place_and_find() {
        let mut st = NetworkState::new(3);
        st.place(NodeId::new(1), packet(7, 2), Some(NodeId::new(2)));
        assert_eq!(st.occupancy(NodeId::new(1)), 1);
        let sp = st.find(NodeId::new(1), PacketId::new(7)).unwrap();
        assert_eq!(sp.next_hop(), Some(NodeId::new(2)), "the hop is stored");
        assert!(st.find(NodeId::new(0), PacketId::new(7)).is_none());
    }

    #[test]
    fn seq_increases_with_placement_order() {
        let mut st = NetworkState::new(2);
        st.place(NodeId::new(0), packet(1, 1), None);
        st.place(NodeId::new(0), packet(2, 1), None);
        let buf = st.buffer(NodeId::new(0));
        assert!(buf[0].seq() < buf[1].seq());
    }

    #[test]
    fn lifo_and_fifo_selection() {
        let mut st = NetworkState::new(2);
        st.place(NodeId::new(0), packet(1, 1), None);
        st.place(NodeId::new(0), packet(2, 1), None);
        st.place(NodeId::new(0), packet(3, 1), None);
        let top = st.lifo_top_where(NodeId::new(0), |_| true).unwrap();
        assert_eq!(top.id(), PacketId::new(3));
        let head = st.fifo_head_where(NodeId::new(0), |_| true).unwrap();
        assert_eq!(head.id(), PacketId::new(1));
        assert!(st.lifo_top_where(NodeId::new(1), |_| true).is_none());
    }

    #[test]
    fn count_for_dest_counts_one_destination() {
        let mut st = NetworkState::new(2);
        st.place(NodeId::new(0), packet(1, 1), None);
        st.place(NodeId::new(0), packet(2, 5), None);
        st.place(NodeId::new(0), packet(3, 1), None);
        assert_eq!(st.count_for_dest(NodeId::new(0), NodeId::new(1)), 2);
        assert_eq!(st.count_for_dest(NodeId::new(0), NodeId::new(5)), 1);
        assert_eq!(st.count_for_dest(NodeId::new(0), NodeId::new(9)), 0);
    }

    #[test]
    fn remove_returns_packet() {
        let mut st = NetworkState::new(2);
        st.place(NodeId::new(0), packet(1, 1), None);
        let sp = st.remove(NodeId::new(0), PacketId::new(1)).unwrap();
        assert_eq!(sp.id(), PacketId::new(1));
        assert_eq!(st.occupancy(NodeId::new(0)), 0);
        assert!(st.remove(NodeId::new(0), PacketId::new(1)).is_none());
    }

    #[test]
    fn remove_from_middle_preserves_order() {
        let mut st = NetworkState::new(1);
        for id in 1..=5u64 {
            st.place(NodeId::new(0), packet(id, 0), None);
        }
        st.remove(NodeId::new(0), PacketId::new(3)).unwrap();
        let ids: Vec<u64> = st
            .buffer(NodeId::new(0))
            .iter()
            .map(|sp| sp.id().value())
            .collect();
        assert_eq!(ids, vec![1, 2, 4, 5]);
    }

    #[test]
    fn staging_roundtrip() {
        let mut st = NetworkState::new(1);
        st.stage(packet(1, 0));
        st.stage(packet(2, 0));
        assert_eq!(st.staged_len(), 2);
        let mut drained = Vec::new();
        st.take_staged_into(&mut drained);
        assert_eq!(drained.len(), 2);
        assert_eq!(st.staged_len(), 0);
        assert_eq!(st.total_buffered(), 0);
        // The drain buffer is reusable: a second drain clears stale content.
        st.stage(packet(3, 0));
        st.take_staged_into(&mut drained);
        assert_eq!(drained.len(), 1);
    }

    #[test]
    fn staged_counts_track_sources() {
        let mut st = NetworkState::new(2);
        st.stage(packet(1, 1));
        st.stage(packet(2, 1));
        assert_eq!(st.staged_count(NodeId::new(0)), 2);
        assert_eq!(st.staged_count(NodeId::new(1)), 0);
        let mut drained = Vec::new();
        st.take_staged_into(&mut drained);
        assert_eq!(st.staged_count(NodeId::new(0)), 0);
    }

    #[test]
    fn ledgers_read_zero_until_their_first_write() {
        let mut st = NetworkState::new(3);
        let v = NodeId::new(2);
        assert_eq!(st.staged_count(v), 0);
        // A crash sweep at a node that never staged leaves the ledger alone.
        assert_eq!(st.sweep_staged(v), 0);
        assert!(st.staged_counts.is_empty());
        st.stage(packet(1, 1));
        assert_eq!(st.staged_counts, vec![1, 0, 0]);
    }

    #[test]
    fn interleaved_spans_grow_independently() {
        // Interleaved pushes force repeated relocation inside one slab;
        // buffers must stay intact and ordered throughout.
        let mut st = NetworkState::new(3);
        for i in 0..30u64 {
            st.place(NodeId::new((i % 3) as usize), packet(i, 1), None);
        }
        for v in 0..3usize {
            let buf = st.buffer(NodeId::new(v));
            assert_eq!(buf.len(), 10, "node {v}");
            let ids: Vec<u64> = buf.iter().map(|sp| sp.id().value()).collect();
            let expect: Vec<u64> = (0..10).map(|j| v as u64 + 3 * j).collect();
            assert_eq!(ids, expect, "node {v}");
        }
        assert_eq!(st.total_buffered(), 30);
    }

    /// Brute-force reference for the active set: the ascending list of
    /// nodes with non-empty buffers, read straight off the span table.
    fn brute_force_active(st: &NetworkState) -> Vec<usize> {
        (0..st.node_count())
            .filter(|&v| !st.buffer(NodeId::new(v)).is_empty())
            .collect()
    }

    /// Whether every summary bit says exactly whether its word is non-zero.
    fn summary_exact(st: &NetworkState) -> bool {
        st.occ_bits
            .iter()
            .enumerate()
            .all(|(w, &bits)| (st.occ_summary[w / 64] >> (w % 64) & 1 == 1) == (bits != 0))
    }

    fn assert_active_consistent(st: &mut NetworkState) {
        let expect = brute_force_active(st);
        for v in 0..st.node_count() {
            assert_eq!(
                st.is_occupied(NodeId::new(v)),
                expect.contains(&v),
                "bitset diverges at node {v}"
            );
        }
        assert!(summary_exact(st), "summary diverges from the bitset");
        st.refresh_active();
        let got: Vec<usize> = st.active_nodes().map(|v| v.index()).collect();
        assert_eq!(got, expect, "active set diverges post-refresh");
        assert_eq!(st.active_count(), expect.len());
    }

    #[test]
    fn active_set_tracks_place_and_remove() {
        let mut st = NetworkState::new(4);
        assert!(!st.is_occupied(NodeId::new(2)));
        st.place(NodeId::new(2), packet(1, 3), None);
        st.place(NodeId::new(2), packet(2, 3), None);
        st.place(NodeId::new(0), packet(3, 3), None);
        assert!(st.is_occupied(NodeId::new(2)));
        assert_active_consistent(&mut st);
        let got: Vec<usize> = st.active_nodes().map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 2]);
        st.remove(NodeId::new(2), PacketId::new(1)).unwrap();
        assert!(st.is_occupied(NodeId::new(2)), "one packet left");
        st.remove(NodeId::new(2), PacketId::new(2)).unwrap();
        assert!(!st.is_occupied(NodeId::new(2)), "buffer emptied");
        assert_active_consistent(&mut st);
    }

    /// Applies one random op to `st`: inject (twice as likely), remove the
    /// FIFO head (a forward or drop), crash-sweep the whole buffer, or
    /// refresh.
    fn apply_op(st: &mut NetworkState, kind: u8, v: usize, next_id: &mut u64) {
        let n = st.node_count();
        let v = NodeId::new(v);
        match kind {
            // Inject: place a fresh packet (forward-arrivals look
            // identical at the state layer).
            0 | 1 => {
                *next_id += 1;
                st.place(v, packet(*next_id, (*next_id as usize) % n), None);
            }
            // Forward/drop: remove the FIFO head if present.
            2 => {
                if let Some(id) = st.buffer(v).first().map(|sp| sp.id()) {
                    st.remove(v, id).unwrap();
                }
            }
            // Crash sweep: drain the whole buffer, engine-style.
            3 => {
                while let Some(id) = st.buffer(v).first().map(|sp| sp.id()) {
                    st.remove(v, id).unwrap();
                }
            }
            _ => st.refresh_active(),
        }
    }

    /// Nodes on either side of a bitset word (64 nodes) and of a summary
    /// bit (4,096 nodes), for a state of `n` > 8,192 nodes.
    fn boundary_nodes(n: usize) -> [usize; 10] {
        [0, 1, 63, 64, 4095, 4096, 4097, 8191, 8192, n - 1]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The occupancy bitset, its summary and the refreshed active set
        /// exactly equal the brute-force "nodes with non-empty buffers"
        /// set after arbitrary interleavings of injects, removals
        /// (forwarding/drops), crash sweeps and refreshes.
        #[test]
        fn active_set_matches_brute_force(
            ops in proptest::collection::vec((0u8..5, 0usize..12), 1..160)
        ) {
            let n = 12usize;
            let mut st = NetworkState::new(n);
            let mut next_id = 0u64;
            for (kind, v) in ops {
                apply_op(&mut st, kind, v, &mut next_id);
                // The bitset and its summary must be exact after *every* op.
                for u in 0..n {
                    proptest::prop_assert_eq!(
                        st.is_occupied(NodeId::new(u)),
                        !st.buffer(NodeId::new(u)).is_empty()
                    );
                }
                proptest::prop_assert!(summary_exact(&st));
            }
            let expect = brute_force_active(&st);
            st.refresh_active();
            let got: Vec<usize> = st.active_nodes().map(|x| x.index()).collect();
            proptest::prop_assert_eq!(got, expect);
        }

        /// The same on more than two summary words' worth of nodes, with
        /// every op on a node next to a word or summary boundary, so words
        /// and summary bits fill and empty across those boundaries.
        #[test]
        fn active_set_matches_brute_force_across_word_boundaries(
            ops in proptest::collection::vec((0u8..5, 0usize..10), 1..160)
        ) {
            let n = 8192 + 37;
            let nodes = boundary_nodes(n);
            let mut st = NetworkState::new(n);
            let mut next_id = 0u64;
            for (kind, i) in ops {
                apply_op(&mut st, kind, nodes[i], &mut next_id);
                for u in nodes {
                    proptest::prop_assert_eq!(
                        st.is_occupied(NodeId::new(u)),
                        !st.buffer(NodeId::new(u)).is_empty()
                    );
                }
                proptest::prop_assert!(summary_exact(&st));
                proptest::prop_assert_eq!(
                    st.active_count(),
                    brute_force_active(&st).len()
                );
            }
            let expect = brute_force_active(&st);
            st.refresh_active();
            let got: Vec<usize> = st.active_nodes().map(|x| x.index()).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn a_traveling_row_keeps_the_slab_size_constant() {
        // One packet per column moves down one row per round (wrapping
        // around), as the sparse wave does: each refresh hands the row of
        // extents just vacated to the next row, so after the first round
        // the slab never grows. The mesh spans two summary words.
        let (rows, cols) = (50usize, 97usize);
        let mut st = NetworkState::new(rows * cols);
        for c in 0..cols {
            st.place(NodeId::new(c), packet(c as u64, 0), None);
        }
        st.refresh_active();
        let mut warm_len = None;
        for round in 0..3 * rows {
            let row = round % rows;
            let next = (row + 1) % rows;
            for c in 0..cols {
                let id = PacketId::new(c as u64);
                let sp = st.remove(NodeId::new(row * cols + c), id).unwrap();
                st.place(NodeId::new(next * cols + c), *sp.packet(), None);
            }
            st.refresh_active();
            let expect: Vec<usize> = (next * cols..(next + 1) * cols).collect();
            let got: Vec<usize> = st.active_nodes().map(|v| v.index()).collect();
            assert_eq!(got, expect, "round {round}");
            let len = st.slab.slots.len();
            assert_eq!(
                *warm_len.get_or_insert(len),
                len,
                "slab grew in round {round}"
            );
        }
    }

    #[test]
    fn recycled_extent_keeps_true_capacity() {
        let mut st = NetworkState::new(2);
        for i in 0..5u64 {
            st.place(NodeId::new(0), packet(i, 1), None);
        }
        // Growing through 2 and 4 slots released those extents; node 0
        // now holds an 8-slot one.
        assert_eq!(st.spans[0].cap, 8);
        for i in 0..5u64 {
            st.remove(NodeId::new(0), PacketId::new(i)).unwrap();
        }
        // Releases the 8-slot extent.
        st.refresh_active();
        let slab_len = st.slab.slots.len();
        for i in 10..15u64 {
            st.place(NodeId::new(1), packet(i, 1), None);
        }
        // Node 1 grows through the 2-, 4- and 8-slot extents node 0
        // vacated, keeping each one's full capacity, and the slab does
        // not grow.
        assert_eq!(st.spans[1].cap, 8, "recycled extent keeps its capacity");
        assert_eq!(st.slab.slots.len(), slab_len, "slab grew");
        let ids: Vec<u64> = st
            .buffer(NodeId::new(1))
            .iter()
            .map(|sp| sp.id().value())
            .collect();
        assert_eq!(ids, vec![10, 11, 12, 13, 14]);
    }
}
