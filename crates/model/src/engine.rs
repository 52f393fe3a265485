//! The synchronous execution engine.
//!
//! Each round (§2):
//!
//! 1. **Injection step** — the adversary's packets for this round enter the
//!    network (directly, or into a staging area for phase-batched
//!    protocols, which accept staged packets at phase boundaries — the
//!    ℓ-reduction of Def. 2.4).
//! 2. The configuration `L^t` is observed for metrics (this is the paper's
//!    measurement point).
//! 3. **Forwarding step** — the protocol fills a [`ForwardingPlan`]; the
//!    engine validates it (packet present, next hop exists, at most one
//!    packet per outgoing *link* — on single-out paths/trees that is "one
//!    packet out of each buffer", on DAGs a node may forward up to its
//!    out-degree, one per link) and applies all moves simultaneously.
//!    Packets forwarded into their destination are delivered and leave the
//!    network.
//!
//! The hot path is allocation-lean: the per-round scratch (the plan, the
//! move list, the in-flight list, the injection buffer) lives in the
//! [`Simulation`] and is reused round over round, so steady-state stepping
//! performs no heap allocation beyond buffer growth.
//!
//! Buffers are unbounded by default (the theorems ask how much space is
//! *needed*); [`Simulation::with_capacity`] caps them and routes every
//! overflowing placement through a [`DropPolicy`](crate::DropPolicy) —
//! same hot path, no extra allocation, losses recorded in
//! [`RunMetrics`].
//!
//! # Sharded rounds
//!
//! [`Simulation::with_shards`] fans the round's two read-only phases out
//! to scoped worker threads: planning (for protocols that support
//! [`Protocol::plan_range`]) and move validation, each cut into
//! contiguous ranges of near-equal live work and merged in ascending
//! shard order. Applying the moves stays on the calling thread at every
//! shard count: on a 2-vCPU host a two-shard parallel apply took twice as
//! long as the sequential one. The result is **byte-identical** to a
//! one-shard run — same metrics, same buffer contents, same `seq`
//! numbers, same error on an invalid plan — because both merges reproduce
//! the sequential order exactly; the differential suite in
//! `tests/sharded_conformance.rs` pins this across the full
//! protocol × topology × capacity × staging matrix.

use std::fmt;

use crate::capacity::{CapacityConfig, DropContext, DropPolicy, StagingMode, Victim};
use crate::fault::{FaultRuntime, FaultSpec, FaultState};
use crate::ids::{NodeId, PacketId, Round};
use crate::metrics::RunMetrics;
use crate::packet::{Packet, StoredPacket};
use crate::pattern::{Injection, Pattern, PatternError};
use crate::probe::{EnginePhase, Probe};
use crate::source::{InjectionSource, PatternSource};
use crate::state::NetworkState;
use crate::topology::Topology;

/// How the protocol wants injections delivered into buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionMode {
    /// Packets enter their source buffer in their injection round.
    Immediate,
    /// Packets injected during a phase of `len` rounds enter their source
    /// buffers at the first round of the next phase (rounds `t ≡ 0 mod len`
    /// accept everything staged so far). This realizes the ℓ-reduction
    /// `A^ℓ` of Def. 2.4, used by HPTS (Alg. 3 lines 3–5).
    Batched {
        /// Phase length ℓ ≥ 1.
        len: u64,
    },
}

/// A forwarding decision: for each node, at most one packet per outgoing
/// link.
///
/// The plan is a flat array of **slots** — one per (node, out-edge) pair,
/// laid out per node. On single-out topologies (paths, trees) the layout
/// degenerates to one slot per node, which is bit-for-bit the historical
/// representation; on DAGs a node with out-degree `k` owns `k` slots and
/// may schedule up to `k` sends per round ([`send`](ForwardingPlan::send)
/// fills the first free slot). Which *link* each send uses is not stored
/// here: the engine derives it from the packet's destination via
/// [`Topology::next_hop`] and rejects two sends from one node over the
/// same link ([`ModelError::LinkOverload`]).
///
/// The engine owns one plan and hands it to the protocol each round after
/// resetting it, so steady-state planning incurs no allocation; the send
/// count is tracked incrementally, making [`len`](ForwardingPlan::len)
/// O(1).
///
/// # Examples
///
/// ```
/// use aqt_model::{ForwardingPlan, NodeId, PacketId};
///
/// let mut plan = ForwardingPlan::new(4);
/// plan.send(NodeId::new(2), PacketId::new(9));
/// assert_eq!(plan.get(NodeId::new(2)), Some(PacketId::new(9)));
/// assert_eq!(plan.get(NodeId::new(0)), None);
/// assert_eq!(plan.len(), 1);
/// plan.reset(4);
/// assert!(plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingPlan {
    /// Slot-indexed sends; node `v`'s slots are contiguous.
    sends: Vec<Option<PacketId>>,
    /// Slot offsets per node (`offsets[v]..offsets[v+1]`), present only
    /// for non-uniform layouts; empty means one slot per node (identity).
    offsets: Vec<u32>,
    count: usize,
    /// Slots filled since the last clear, in fill order, encoded as
    /// `(slot << 32) | node` (see [`touched_entry`]). Lets
    /// [`clear_sends`](ForwardingPlan::clear_sends) reset O(sends) slots
    /// instead of wiping the whole array, and lets the engine walk only
    /// scheduled sends — with the owning node carried along, so move
    /// collection never searches the offset table — the plan-side half
    /// of the active-set engine.
    touched: Vec<u64>,
    /// Recycled touched-lists for [`PlanWindow`]s (avoids per-round
    /// allocation on the sharded path).
    window_touched_pool: Vec<Vec<u64>>,
}

/// Encodes a touched-list entry: the slot in the high 32 bits (so
/// sorting entries sorts by slot) and the owning node in the low 32.
/// Carrying the node means decoding a send is O(1) instead of a binary
/// search through the offset table — at a million nodes that search is
/// 20 cold probes per send.
#[inline]
fn touched_entry(slot: usize, node: usize) -> u64 {
    ((slot as u64) << 32) | node as u64
}

/// The slot of a touched-list entry.
#[inline]
fn entry_slot(e: u64) -> usize {
    (e >> 32) as usize
}

/// The owning node of a touched-list entry.
#[inline]
fn entry_node(e: u64) -> usize {
    (e & u64::from(u32::MAX)) as usize
}

impl ForwardingPlan {
    /// An empty plan (nobody forwards) for `n` single-out nodes.
    pub fn new(n: usize) -> Self {
        ForwardingPlan {
            sends: vec![None; n],
            offsets: Vec::new(),
            count: 0,
            touched: Vec::new(),
            window_touched_pool: Vec::new(),
        }
    }

    /// Clears all sends and resizes to `n` nodes with one slot each,
    /// reusing the allocation.
    pub fn reset(&mut self, n: usize) {
        self.sends.clear();
        self.sends.resize(n, None);
        self.offsets.clear();
        self.count = 0;
        self.touched.clear();
    }

    /// Clears all sends and lays slots out for `topology`: every node gets
    /// `max(1, out_degree)` slots. Single-out topologies produce the
    /// identity layout of [`reset`](ForwardingPlan::reset), so the hot
    /// path is unchanged for paths and trees.
    pub fn reset_for<T: Topology>(&mut self, topology: &T) {
        let n = topology.node_count();
        let mut total = 0usize;
        let mut uniform = true;
        for v in 0..n {
            let width = topology.out_degree(NodeId::new(v)).max(1);
            uniform &= width == 1;
            total += width;
        }
        if uniform {
            self.reset(n);
            return;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut at = 0u32;
        self.offsets.push(0);
        for v in 0..n {
            at += topology.out_degree(NodeId::new(v)).max(1) as u32;
            self.offsets.push(at);
        }
        self.sends.clear();
        self.sends.resize(total, None);
        self.count = 0;
        self.touched.clear();
    }

    /// Clears all sends, keeping the current slot layout.
    ///
    /// The layout depends only on the topology, which is fixed for a
    /// simulation's lifetime — so the engine lays slots out once at
    /// construction ([`reset_for`](ForwardingPlan::reset_for)) and calls
    /// this every round. Only the slots touched since the last clear are
    /// reset, so the cost is O(last round's sends), not O(slots) — at a
    /// million mostly-idle nodes the difference is the round.
    pub fn clear_sends(&mut self) {
        for &e in &self.touched {
            self.sends[entry_slot(e)] = None;
        }
        self.touched.clear();
        self.count = 0;
    }

    /// Sorts the touched-entry list into slot order (the slot lives in
    /// the high bits, so a plain sort orders by slot; slots are unique).
    /// Slots are node-major, so iterating the sorted list visits sends in
    /// exactly the order a dense `0..node_count()` scan would — the
    /// engine relies on this for byte-identical move collection.
    fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// The touched entries (call
    /// [`sort_touched`](ForwardingPlan::sort_touched) first for
    /// node-major order). Decode with [`entry_slot`] / [`entry_node`].
    fn touched_slots(&self) -> &[u64] {
        &self.touched
    }

    /// Number of nodes the current layout covers.
    fn node_count(&self) -> usize {
        if self.offsets.is_empty() {
            self.sends.len()
        } else {
            self.offsets.len() - 1
        }
    }

    /// The slot range of `v` in the current layout.
    fn slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        if self.offsets.is_empty() {
            v.index()..v.index() + 1
        } else {
            self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize
        }
    }

    /// Number of forwarding slots `v` owns this round (its clamped
    /// out-degree).
    pub fn width(&self, v: NodeId) -> usize {
        self.slot_range(v).len()
    }

    /// Schedules `packet` to be forwarded out of `v`, occupying `v`'s
    /// first free slot.
    ///
    /// # Panics
    ///
    /// Panics if all of `v`'s slots are taken — a node forwards at most
    /// one packet per outgoing link (on single-out topologies: at most one
    /// packet per round, cf. Lemma 4.7).
    pub fn send(&mut self, v: NodeId, packet: PacketId) {
        let range = self.slot_range(v);
        for i in range.clone() {
            if self.sends[i].is_none() {
                self.sends[i] = Some(packet);
                self.touched.push(touched_entry(i, v.index()));
                self.count += 1;
                return;
            }
        }
        panic!(
            "node {v} already forwards {} packet(s) this round",
            range.len()
        );
    }

    /// Whether `v` already has a scheduled send (in any of its slots).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.slot_range(v).any(|i| self.sends[i].is_some())
    }

    /// The first packet scheduled out of `v`, if any.
    pub fn get(&self, v: NodeId) -> Option<PacketId> {
        self.slot_range(v).find_map(|i| self.sends[i])
    }

    /// Iterates over the packets scheduled out of `v`.
    pub fn sends_from(&self, v: NodeId) -> impl Iterator<Item = PacketId> + '_ {
        self.slot_range(v).filter_map(|i| self.sends[i])
    }

    /// Iterates over `(node, packet)` scheduled sends, node-major.
    pub fn sends(&self) -> impl Iterator<Item = (NodeId, PacketId)> + '_ {
        (0..self.node_count()).flat_map(move |v| {
            let v = NodeId::new(v);
            self.sends_from(v).map(move |p| (v, p))
        })
    }

    /// Number of scheduled sends (O(1): tracked incrementally).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no sends are scheduled.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Splits the plan's send slots into one exclusive [`PlanWindow`] per
    /// node range (the ranges must be contiguous, ordered, and cover all
    /// nodes). The windows borrow disjoint slices, so shard workers fill
    /// them in parallel; the caller must hand each consumed window's parts
    /// back via [`absorb_window`](ForwardingPlan::absorb_window), which
    /// re-derives [`len`](ForwardingPlan::len) and merges the touched-slot
    /// lists. The plan must be cleared *before* splitting
    /// ([`clear_sends`](ForwardingPlan::clear_sends)).
    pub(crate) fn windows<'a>(
        &'a mut self,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<PlanWindow<'a>> {
        debug_assert!(self.touched.is_empty(), "windows on an uncleared plan");
        while self.window_touched_pool.len() < ranges.len() {
            self.window_touched_pool.push(Vec::new());
        }
        let offsets: &[u32] = &self.offsets;
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest: &mut [Option<PacketId>] = &mut self.sends;
        let mut base = 0usize;
        for r in ranges {
            let end = if offsets.is_empty() {
                r.end
            } else {
                offsets[r.end] as usize
            };
            let (head, tail) = rest.split_at_mut(end - base);
            let mut touched = self.window_touched_pool.pop().expect("pool refilled above");
            touched.clear();
            out.push(PlanWindow {
                first_node: r.start,
                nodes: r.len(),
                base_slot: base,
                offsets,
                sends: head,
                count: 0,
                touched,
            });
            base = end;
            rest = tail;
        }
        out
    }

    /// Folds a consumed window's parts (see [`PlanWindow::into_parts`])
    /// back into the plan: the send count, and the window's touched slots
    /// (global indices) onto the plan's list. The emptied vec returns to
    /// the pool.
    pub(crate) fn absorb_window(&mut self, count: usize, mut touched: Vec<u64>) {
        self.count += count;
        self.touched.append(&mut touched);
        self.window_touched_pool.push(touched);
    }
}

/// A shard worker's exclusive window into a [`ForwardingPlan`]: the send
/// slots of one contiguous node range.
///
/// Protocols that implement [`Protocol::plan_range`] receive one window
/// per shard and fill them concurrently, with the same
/// [`send`](PlanWindow::send) semantics as the full plan. Because the
/// windows are disjoint slices of the one plan, the filled plan is
/// bit-identical to what a sequential [`Protocol::plan`] pass over the
/// same per-node decisions would produce.
pub struct PlanWindow<'a> {
    /// First node of the window's range.
    first_node: usize,
    /// Nodes covered by the window.
    nodes: usize,
    /// Slot index (in the full plan) of the window's first slot.
    base_slot: usize,
    /// The full plan's slot offsets (empty = one slot per node).
    offsets: &'a [u32],
    /// The window's slice of the plan's send slots.
    sends: &'a mut [Option<PacketId>],
    count: usize,
    /// Slots filled through this window, as *global* touched entries
    /// (see [`touched_entry`]); folded back into the plan's touched list
    /// after the parallel fill.
    touched: Vec<u64>,
}

impl PlanWindow<'_> {
    /// The contiguous node range this window plans for.
    pub fn node_range(&self) -> std::ops::Range<usize> {
        self.first_node..self.first_node + self.nodes
    }

    /// The (window-local) slot range of `v`.
    fn slot_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let x = v.index();
        debug_assert!(
            self.node_range().contains(&x),
            "node {v} is outside the window's range"
        );
        if self.offsets.is_empty() {
            let i = x - self.first_node;
            i..i + 1
        } else {
            self.offsets[x] as usize - self.base_slot..self.offsets[x + 1] as usize - self.base_slot
        }
    }

    /// Number of forwarding slots `v` owns (its clamped out-degree).
    pub fn width(&self, v: NodeId) -> usize {
        self.slot_range(v).len()
    }

    /// Schedules `packet` out of `v` (which must lie in the window's node
    /// range), occupying `v`'s first free slot.
    ///
    /// # Panics
    ///
    /// Panics if all of `v`'s slots are taken, exactly like
    /// [`ForwardingPlan::send`].
    pub fn send(&mut self, v: NodeId, packet: PacketId) {
        let range = self.slot_range(v);
        for i in range.clone() {
            if self.sends[i].is_none() {
                self.sends[i] = Some(packet);
                self.touched
                    .push(touched_entry(self.base_slot + i, v.index()));
                self.count += 1;
                return;
            }
        }
        panic!(
            "node {v} already forwards {} packet(s) this round",
            range.len()
        );
    }

    /// Sends scheduled in this window so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the window has no scheduled sends.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Consumes the window, returning its send count and touched-entry
    /// list (global encoding) for [`ForwardingPlan::absorb_window`]. This
    /// is how the per-shard fill results escape the `thread::scope`
    /// workers.
    pub(crate) fn into_parts(self) -> (usize, Vec<u64>) {
        (self.count, self.touched)
    }
}

/// A forwarding protocol (the paper's "algorithm"): given the observable
/// configuration, decide which buffers forward which packet this round.
///
/// Implementations in `aqt-core` include PTS, PPTS, HPTS, their tree
/// variants and the greedy baselines. Protocols are deterministic functions
/// of the configuration plus their own state; they never mutate the network
/// directly.
pub trait Protocol<T: Topology> {
    /// Human-readable protocol name for reports.
    fn name(&self) -> String;

    /// Injection handling; defaults to [`InjectionMode::Immediate`].
    fn injection_mode(&self) -> InjectionMode {
        InjectionMode::Immediate
    }

    /// Computes this round's forwarding decision for configuration `L^t`,
    /// filling `plan` (handed over empty, sized to the topology).
    ///
    /// The engine guarantees the state's active set is exact here (it
    /// refreshes right before the `L^t` observation), so implementations
    /// may iterate [`NetworkState::active_nodes`] /
    /// [`NetworkState::active_nodes_in`] instead of `0..node_count()`:
    /// only non-empty buffers can send, and both walks visit them in the
    /// same ascending order, so the filled plan is identical while the
    /// cost drops to O(live nodes). The contract is additive — a dense
    /// scan remains correct.
    fn plan(&mut self, round: Round, topology: &T, state: &NetworkState, plan: &mut ForwardingPlan);

    /// Whether [`plan_range`](Protocol::plan_range) is implemented. With
    /// more than one shard the engine plans shards in parallel when this
    /// is true and falls back to one sequential [`plan`](Protocol::plan)
    /// call otherwise.
    ///
    /// Range planning must be **node-local**: the sends for node `v` may
    /// depend only on `v`'s own buffer (plus topology and round), so
    /// planning disjoint ranges concurrently fills the same plan a
    /// sequential pass would.
    fn supports_range_planning(&self) -> bool {
        false
    }

    /// Computes the forwarding decision for the window's node range only
    /// (see [`supports_range_planning`](Protocol::supports_range_planning)).
    /// Takes `&self`: range planners run concurrently, so planning must
    /// not mutate protocol state.
    ///
    /// The engine cuts window ranges along *active-set* quantiles
    /// (near-equal live nodes per window), so implementations should walk
    /// [`NetworkState::active_nodes_in`] over the window's range — a dense
    /// range scan stays correct but re-introduces O(n/k) per shard.
    fn plan_range(
        &self,
        _round: Round,
        _topology: &T,
        _state: &NetworkState,
        _window: &mut PlanWindow<'_>,
    ) {
        unimplemented!("protocol does not support range planning")
    }
}

impl<T: Topology, P: Protocol<T> + ?Sized> Protocol<T> for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn injection_mode(&self) -> InjectionMode {
        (**self).injection_mode()
    }

    fn plan(
        &mut self,
        round: Round,
        topology: &T,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        (**self).plan(round, topology, state, plan);
    }

    fn supports_range_planning(&self) -> bool {
        (**self).supports_range_planning()
    }

    fn plan_range(
        &self,
        round: Round,
        topology: &T,
        state: &NetworkState,
        window: &mut PlanWindow<'_>,
    ) {
        (**self).plan_range(round, topology, state, window);
    }
}

/// Errors surfaced by [`Simulation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An injection failed validation against the topology (upfront for
    /// patterns, at its injection round for streaming sources).
    Pattern(PatternError),
    /// The plan forwarded a packet that is not in the named buffer.
    UnknownPacket {
        /// Offending node.
        node: NodeId,
        /// Claimed packet.
        packet: PacketId,
        /// Round of the offense.
        round: Round,
    },
    /// The plan forwarded a packet from a node with no next hop toward the
    /// packet's destination.
    NoNextHop {
        /// Offending node.
        node: NodeId,
        /// Offending packet.
        packet: PacketId,
        /// Round of the offense.
        round: Round,
    },
    /// The plan scheduled two packets out of one node over the same link
    /// in one round, violating the one-packet-per-link bandwidth
    /// constraint (only possible on multi-out topologies; the plan's slot
    /// structure already forbids it elsewhere).
    LinkOverload {
        /// The forwarding node.
        node: NodeId,
        /// The overloaded link's head.
        hop: NodeId,
        /// Round of the offense.
        round: Round,
    },
    /// A [`DropPolicy`] named a victim that is not in the full buffer.
    InvalidVictim {
        /// The node whose buffer overflowed.
        node: NodeId,
        /// The claimed (absent) victim.
        packet: PacketId,
        /// Round of the offense.
        round: Round,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Pattern(e) => write!(f, "invalid pattern: {e}"),
            ModelError::UnknownPacket {
                node,
                packet,
                round,
            } => write!(f, "plan at {round} forwards {packet} absent from {node}"),
            ModelError::NoNextHop {
                node,
                packet,
                round,
            } => write!(
                f,
                "plan at {round} forwards {packet} from {node} with no next hop"
            ),
            ModelError::LinkOverload { node, hop, round } => write!(
                f,
                "plan at {round} forwards two packets over link {node} -> {hop}"
            ),
            ModelError::InvalidVictim {
                node,
                packet,
                round,
            } => write!(
                f,
                "drop policy at {round} evicts {packet} absent from full buffer {node}"
            ),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Pattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for ModelError {
    fn from(e: PatternError) -> Self {
        ModelError::Pattern(e)
    }
}

/// Per-round summary returned by [`Simulation::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The round that was executed.
    pub round: Round,
    /// Packets the adversary injected this round.
    pub injected: usize,
    /// Staged packets accepted into buffers this round (batched mode).
    pub accepted: usize,
    /// Packets forwarded.
    pub forwarded: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets dropped by capacity enforcement this round (0 on
    /// unbounded runs).
    pub dropped: usize,
    /// Packets lost to faults this round (0 on fault-free runs): swept
    /// from a crashing node's buffer/staging, or injected at a dead node.
    pub faulted: usize,
}

/// A complete run: topology + protocol + injection source + state.
///
/// The third type parameter is the injection source; it defaults to
/// [`PatternSource`], so pattern-backed simulations keep the short
/// `Simulation<T, P>` spelling. Streaming runs are built with
/// [`Simulation::from_source`] and need memory proportional to the packets
/// currently in the network, not to the total number of injections.
///
/// # Examples
///
/// ```
/// use aqt_model::{
///     ForwardingPlan, Injection, NetworkState, Path, Pattern, Protocol, Round, Simulation,
///     Topology,
/// };
///
/// /// Forward every non-empty buffer (the greedy baseline in 10 lines).
/// struct Drain;
///
/// impl<T: Topology> Protocol<T> for Drain {
///     fn name(&self) -> String {
///         "drain".into()
///     }
///     fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
///         for v in 0..state.node_count() {
///             let v = aqt_model::NodeId::new(v);
///             if let Some(top) = state.lifo_top_where(v, |_| true) {
///                 plan.send(v, top.id());
///             }
///         }
///     }
/// }
///
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
/// let mut sim = Simulation::new(Path::new(4), Drain, &pattern)?;
/// let metrics = sim.run(5)?;
/// assert_eq!(metrics.delivered, 1);
/// assert_eq!(metrics.max_occupancy, 1);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug)]
pub struct Simulation<T: Topology, P: Protocol<T>, S: InjectionSource = PatternSource> {
    topology: T,
    protocol: P,
    state: NetworkState,
    source: S,
    next_packet_id: u64,
    round: Round,
    metrics: RunMetrics,
    /// Whether injections still need per-round validation (false when the
    /// whole schedule was validated upfront by [`Simulation::new`]).
    validate_injections: bool,
    /// Worker threads for the plan and validate phases, set by
    /// [`with_shards`](Simulation::with_shards); 1 runs the whole round on
    /// the calling thread.
    shards: usize,
    // Reusable per-round scratch (hot path performs no allocation once
    // these reach their steady-state capacity).
    injection_buf: Vec<Injection>,
    accept_buf: Vec<Packet>,
    plan_buf: ForwardingPlan,
    /// The round's validated moves, one list per shard; in shard order
    /// they are the sequential move list.
    shard_moves: Vec<Vec<Move>>,
    lift_buf: Vec<(StoredPacket, NodeId, bool)>,
    /// Capacity enforcement, if enabled via
    /// [`with_capacity`](Simulation::with_capacity). `None` keeps the
    /// unbounded hot path entirely check-free.
    capacity: Option<CapacityState>,
    /// Fault schedule, if enabled via
    /// [`with_faults`](Simulation::with_faults). `None` (the fault-free
    /// case, including an empty [`FaultSpec`]) keeps the hot path
    /// entirely check-free.
    faults: Option<FaultRuntime>,
}

/// Enforcement state of a capacity-bounded run: the limits plus the
/// policy consulted on overflow.
#[derive(Debug)]
struct CapacityState {
    config: CapacityConfig,
    policy: Box<dyn DropPolicy>,
}

/// A validated forwarding move: `(from, packet, next hop, delivers)`.
type Move = (NodeId, PacketId, NodeId, bool);

/// Closes phase `phase` of round `t` on `probe`: reads the probe's clock,
/// reports the elapsed nanoseconds since `last`, and returns the new
/// anchor. With the null probe `()` this compiles to nothing.
fn phase_mark<Pr: Probe + ?Sized>(probe: &mut Pr, t: Round, phase: EnginePhase, last: u64) -> u64 {
    let now = probe.now_nanos();
    probe.on_phase(t, phase, now.saturating_sub(last));
    now
}

/// Cuts `0..n` into `k` contiguous node ranges holding near-equal shares
/// of the (sorted, exact) active node list — the sharded plan partition.
/// The ranges still cover every node, so the window machinery is
/// unchanged; but only the live nodes inside each range cost anything to
/// plan, so balancing live nodes (not fabric nodes) keeps shard wall-clock
/// proportional to traffic.
fn active_plan_ranges(active: &[u32], n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let a = active.len();
    let mut out = Vec::with_capacity(k);
    let mut prev = 0usize;
    for i in 1..k {
        let cut = a * i / k;
        let b = if cut >= a {
            n
        } else {
            (active[cut] as usize).max(prev)
        };
        out.push(prev..b);
        prev = b;
    }
    out.push(prev..n);
    out
}

/// Validates the plan's sends for a slice of its (sorted) touched slots
/// and collects their moves. Slots are node-major, so walking a sorted
/// touched slice visits sends exactly as a dense `0..node_count()` scan of
/// the same slots would — concatenating per-slice lists in slice order
/// reproduces the full sequential move list, in O(sends) instead of O(n).
/// Returns the first error in that order, if any; each send's validity
/// depends only on the plan and the (immutable) pre-forwarding state, so
/// the first error over the concatenated slices is exactly the sequential
/// engine's error.
///
/// With a fault mask (`faults`), a send over a blocked link is silently
/// skipped *before* the per-link bandwidth check — as if the protocol had
/// not planned it, so two sends over one blocked link are both skipped
/// rather than a `LinkOverload`. Skipped sends never enter the move list.
/// The engine also drops the mask entirely when it is empty
/// ([`FaultState::is_empty`]), skipping the per-send consult.
fn collect_moves<T: Topology>(
    topology: &T,
    state: &NetworkState,
    plan: &ForwardingPlan,
    faults: Option<&FaultState>,
    t: Round,
    touched: &[u64],
    moves: &mut Vec<Move>,
) -> Option<ModelError> {
    moves.clear();
    for &entry in touched {
        let v = NodeId::new(entry_node(entry));
        let Some(pid) = plan.sends[entry_slot(entry)] else {
            continue; // touched then cleared elsewhere: cannot happen today
        };
        let Some(stored) = state.find(v, pid) else {
            return Some(ModelError::UnknownPacket {
                node: v,
                packet: pid,
                round: t,
            });
        };
        let dest = stored.dest();
        let Some(hop) = topology.next_hop(v, dest) else {
            return Some(ModelError::NoNextHop {
                node: v,
                packet: pid,
                round: t,
            });
        };
        if let Some(f) = faults {
            if f.blocks(v, hop, t) {
                continue;
            }
        }
        // One packet per link per round: sends are node-major, so any
        // earlier send from the same node sits at the tail of the
        // move list (out-degrees are tiny; this scan is O(deg)).
        for &(pv, _, phop, _) in moves.iter().rev() {
            if pv != v {
                break;
            }
            if phop == hop {
                return Some(ModelError::LinkOverload {
                    node: v,
                    hop,
                    round: t,
                });
            }
        }
        moves.push((v, pid, hop, hop == dest));
    }
    None
}

/// The parallel plan phase: one [`PlanWindow`] per shard, cut at
/// active-set quantiles ([`active_plan_ranges`]) so plan wall-clock tracks
/// traffic rather than fabric size, filled by [`Protocol::plan_range`] on
/// scoped threads. The windows are disjoint slices of the one plan, so the
/// filled plan is the one a sequential pass would produce.
fn plan_sharded<T, P>(
    protocol: &P,
    topology: &T,
    state: &NetworkState,
    plan: &mut ForwardingPlan,
    t: Round,
    k: usize,
) where
    T: Topology + Sync,
    P: Protocol<T> + Sync,
{
    let ranges = active_plan_ranges(state.active_slice(), topology.node_count(), k);
    let windows = plan.windows(&ranges);
    let parts: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = windows
            .into_iter()
            .map(|mut w| {
                scope.spawn(move || {
                    protocol.plan_range(t, topology, state, &mut w);
                    w.into_parts()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("plan worker panicked"))
            .collect()
    });
    for (count, touched) in parts {
        plan.absorb_window(count, touched);
    }
}

/// The validate phase: [`collect_moves`] over the sorted touched list,
/// cut into one chunk per entry of `shard_moves`, chunk `i` into
/// `shard_moves[i]`. One shard runs on the calling thread; more run on
/// scoped threads. Chunks hold near-equal send counts, so validation
/// wall-clock tracks traffic too, and are node-aligned, so the per-node
/// `LinkOverload` tail scan never crosses one. Concatenated in shard order
/// the lists are the sequential move list, and the first error in shard
/// order is the sequential error.
fn validate_sharded<T: Topology + Sync>(
    topology: &T,
    state: &NetworkState,
    plan: &ForwardingPlan,
    faults: Option<&FaultState>,
    t: Round,
    shard_moves: &mut [Vec<Move>],
) -> Option<ModelError> {
    let touched = plan.touched_slots();
    if let [moves] = shard_moves {
        return collect_moves(topology, state, plan, faults, t, touched, moves);
    }
    let k = shard_moves.len();
    let m = touched.len();
    let mut cuts = Vec::with_capacity(k + 1);
    cuts.push(0usize);
    for i in 1..k {
        let mut end = (m * i / k).max(cuts[i - 1]);
        while end > 0 && end < m && entry_node(touched[end]) == entry_node(touched[end - 1]) {
            end += 1;
        }
        cuts.push(end);
    }
    cuts.push(m);
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_moves
            .iter_mut()
            .enumerate()
            .map(|(i, moves)| {
                let chunk = &touched[cuts[i]..cuts[i + 1]];
                scope.spawn(move || collect_moves(topology, state, plan, faults, t, chunk, moves))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("validate worker panicked"))
            .find_map(|e| e)
    })
}

/// Places `packet` into `v` unless capacity forbids it; on overflow the
/// drop policy names the victim. Returns whether `packet` ended up
/// buffered. A free function over disjoint `Simulation` fields so the
/// borrow checker accepts calls from inside the scratch-buffer loops.
fn admit<T: Topology>(
    topology: &T,
    capacity: &mut Option<CapacityState>,
    state: &mut NetworkState,
    metrics: &mut RunMetrics,
    v: NodeId,
    packet: Packet,
    t: Round,
) -> Result<bool, ModelError> {
    let Some(cap) = capacity.as_mut() else {
        state.place(v, packet, t);
        return Ok(true);
    };
    let mut occupied = state.occupancy(v);
    if cap.config.staging_mode() == StagingMode::Counted {
        occupied += state.staged_count(v);
    }
    if occupied < cap.config.limit(v) {
        state.place(v, packet, t);
        return Ok(true);
    }
    // Under counted staging the limit can be reached by staged wishes
    // alone. Staged packets are invisible to drop policies (they are not
    // part of the observable configuration), so with an empty buffer no
    // stored victim exists and the incoming packet is necessarily the
    // loss — policies are only consulted on non-empty buffers, as their
    // contract states.
    if state.occupancy(v) == 0 {
        metrics.record_drop(t, v);
        state.note_drop(v);
        return Ok(false);
    }
    // Unreachable destinations sort as infinitely far (`route_len` is
    // `None`): `DropFarthest` must prefer evicting a packet that can
    // never arrive over one that still can. `unwrap_or(0)` here would
    // make such a packet look *closest* and therefore unevictable.
    let distance = |dest: NodeId| topology.route_len(v, dest).unwrap_or(usize::MAX);
    let ctx = DropContext::new(v, t, &distance);
    match cap.policy.select(state.buffer(v), &packet, &ctx) {
        Victim::Incoming => {
            metrics.record_drop(t, v);
            state.note_drop(v);
            Ok(false)
        }
        Victim::Stored(id) => {
            state.remove(v, id).ok_or(ModelError::InvalidVictim {
                node: v,
                packet: id,
                round: t,
            })?;
            metrics.record_drop(t, v);
            state.note_drop(v);
            state.place(v, packet, t);
            Ok(true)
        }
    }
}

impl<T: Topology, P: Protocol<T>> Simulation<T, P> {
    /// Creates a pattern-backed simulation; validates the pattern against
    /// the topology up front.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Pattern`] if any injection is invalid.
    pub fn new(topology: T, protocol: P, pattern: &Pattern) -> Result<Self, ModelError> {
        pattern.validate(&topology)?;
        let mut sim = Simulation::from_source(topology, protocol, PatternSource::new(pattern));
        // Already validated in full; skip the per-round check on the hot
        // path.
        sim.validate_injections = false;
        Ok(sim)
    }
}

impl<T: Topology, P: Protocol<T>, S: InjectionSource> Simulation<T, P, S> {
    /// Creates a simulation fed by a streaming [`InjectionSource`].
    ///
    /// No upfront validation is possible for a stream; each injection is
    /// validated in its injection round and an invalid one surfaces as
    /// [`ModelError::Pattern`] from [`step`](Simulation::step).
    pub fn from_source(topology: T, protocol: P, source: S) -> Self {
        let n = topology.node_count();
        // Lay the plan's slots out once: the layout is a pure function of
        // the (immutable) topology, so the per-round reset is just a
        // clear.
        let mut plan_buf = ForwardingPlan::new(n);
        plan_buf.reset_for(&topology);
        Simulation {
            topology,
            protocol,
            state: NetworkState::new(n),
            source,
            next_packet_id: 0,
            round: Round::ZERO,
            metrics: RunMetrics::new(n, false),
            validate_injections: true,
            shards: 1,
            injection_buf: Vec::new(),
            accept_buf: Vec::new(),
            plan_buf,
            shard_moves: vec![Vec::new()],
            lift_buf: Vec::new(),
            capacity: None,
            faults: None,
        }
    }

    /// Runs each round's plan and validate phases on `k` scoped worker
    /// threads (clamped to `1..=node_count`; the default is 1, which
    /// spawns nothing). See the module docs: the run is byte-identical at
    /// every shard count, and moves are always applied sequentially.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k.clamp(1, self.topology.node_count().max(1));
        self.shard_moves.resize_with(self.shards, Vec::new);
        self
    }

    /// Enables capacity-bounded execution: every buffer is capped per
    /// `config` and overflowing placements are resolved by `policy` (see
    /// the [`capacity`](crate::CapacityConfig) module docs for the exact
    /// enforcement points). With a capacity no placement can ever exceed
    /// the limit; losses appear in [`RunMetrics::dropped`] and friends.
    ///
    /// A run whose capacity is never exceeded is *identical* to the
    /// unbounded run — capacity only changes behavior through drops.
    ///
    /// # Panics
    ///
    /// Panics if called after stepping, or if a per-node config does not
    /// match the topology's node count.
    pub fn with_capacity(
        mut self,
        config: CapacityConfig,
        policy: impl DropPolicy + 'static,
    ) -> Self {
        assert_eq!(self.round, Round::ZERO, "enable capacity before stepping");
        config.assert_valid(self.topology.node_count());
        self.capacity = Some(CapacityState {
            config,
            policy: Box::new(policy),
        });
        self
    }

    /// The capacity configuration, if this run is capacity-bounded.
    pub fn capacity(&self) -> Option<&CapacityConfig> {
        self.capacity.as_ref().map(|c| &c.config)
    }

    /// Enables deterministic fault injection per `spec` (see
    /// [`FaultSpec`]): at the top of every round the engine advances the
    /// spec's fault mask, sweeps crashing nodes' packets into
    /// [`RunMetrics::faulted`], refuses injections at dead nodes, and
    /// skips planned sends over blocked links. Fault losses are counted,
    /// never silent, so conservation extends to
    /// `injected = delivered + dropped + faulted + in-network + staged`.
    ///
    /// A spec with no events is not expanded at all — such a run is
    /// bit-for-bit identical to a fault-free one.
    ///
    /// # Panics
    ///
    /// Panics if called after stepping, or if an event references a node
    /// outside the topology.
    pub fn with_faults(mut self, spec: &FaultSpec) -> Self {
        assert_eq!(self.round, Round::ZERO, "enable faults before stepping");
        if !spec.events.is_empty() {
            self.faults = Some(FaultRuntime::new(spec, &self.topology));
        }
        self
    }

    /// Enables per-round occupancy series recording (costs memory
    /// proportional to the number of rounds).
    pub fn record_series(mut self) -> Self {
        self.metrics = RunMetrics::new(self.topology.node_count(), true);
        assert_eq!(self.round, Round::ZERO, "enable series before stepping");
        self
    }

    /// The topology.
    pub fn topology(&self) -> &T {
        &self.topology
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The injection source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Current (next-to-execute) round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The observable network configuration.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Whether every injected packet has been delivered (and the source can
    /// produce no more, and none remain staged or buffered).
    pub fn is_drained(&self) -> bool {
        self.source.is_exhausted()
            && self.state.total_buffered() == 0
            && self.state.staged_len() == 0
    }

    /// The round's injection step: the fault mask, phase-boundary
    /// acceptance, then this round's injections. Returns
    /// `(injected, accepted)` and bumps `metrics.injected`.
    fn injection_phase(&mut self, t: Round) -> Result<(usize, usize), ModelError> {
        let mode = self.protocol.injection_mode();

        // --- Fault mask -----------------------------------------------
        // Advance the mask to this round first: a node crashing at `t`
        // loses its buffered and staged packets to `faulted` before
        // acceptance, injection or planning can touch them, and the
        // whole round (including sharded planning/validation) sees one
        // consistent mask.
        if let Some(faults) = &mut self.faults {
            faults.advance(t);
            for &v in faults.newly_dead() {
                while let Some(id) = self.state.buffer(v).first().map(|sp| sp.id()) {
                    self.state.remove(v, id).expect("buffer scan is live");
                    self.state.note_fault(v);
                    self.metrics.record_fault(t, v);
                }
                for _ in 0..self.state.sweep_staged(v) {
                    self.state.note_fault(v);
                    self.metrics.record_fault(t, v);
                }
            }
        }

        // --- Injection step -------------------------------------------
        // Acceptance of previously staged packets happens before this
        // round's injections are staged (Alg. 3 lines 3–5 accept rounds
        // t−ℓ … t−1 at λ = 0). Under exempt-staging capacity this is
        // where staged packets face the drop policy; under counted
        // staging their space was reserved at stage time and no drop can
        // occur here.
        let mut accepted = 0usize;
        if let InjectionMode::Batched { len } = mode {
            debug_assert!(len > 0, "phase length must be positive");
            if t.value() % len == 0 {
                self.state.take_staged_into(&mut self.accept_buf);
                for packet in self.accept_buf.drain(..) {
                    if admit(
                        &self.topology,
                        &mut self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        packet.source(),
                        packet,
                        t,
                    )? {
                        accepted += 1;
                    }
                }
            }
        }
        self.injection_buf.clear();
        self.source.next_round(t, &mut self.injection_buf);
        let injected = self.injection_buf.len();
        for &injection in &self.injection_buf {
            if self.validate_injections {
                crate::pattern::validate_injection(&self.topology, injection)?;
            }
            debug_assert_eq!(injection.round, t, "source emitted a mistimed injection");
            // A dead node accepts no injections: the packet never comes
            // into existence, but the adversary did inject it, so it is
            // accounted as a fault loss at its source (conservation:
            // `injected` counts it below).
            if let Some(faults) = &self.faults {
                if faults.state().is_node_down(injection.source) {
                    self.state.note_fault(injection.source);
                    self.metrics.record_fault(t, injection.source);
                    continue;
                }
            }
            let packet = Packet::new(
                PacketId::new(self.next_packet_id),
                t,
                injection.source,
                injection.dest,
            );
            self.next_packet_id += 1;
            match mode {
                InjectionMode::Immediate => {
                    admit(
                        &self.topology,
                        &mut self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        injection.source,
                        packet,
                        t,
                    )?;
                }
                InjectionMode::Batched { .. } => {
                    // Counted staging: the wish needs a reserved slot at
                    // its source buffer right now, or it is tail-dropped
                    // (staged packets are invisible to the policy).
                    if let Some(cap) = &self.capacity {
                        if cap.config.staging_mode() == StagingMode::Counted {
                            let v = injection.source;
                            let used = self.state.occupancy(v) + self.state.staged_count(v);
                            if used >= cap.config.limit(v) {
                                self.metrics.record_drop(t, v);
                                self.state.note_drop(v);
                                continue;
                            }
                        }
                    }
                    self.state.stage(packet);
                }
            }
        }
        self.metrics.injected += injected as u64;
        Ok((injected, accepted))
    }
}

impl<T, P, S> Simulation<T, P, S>
where
    T: Topology + Sync,
    P: Protocol<T> + Sync,
    S: InjectionSource,
{
    /// Executes one full round.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the source produced an invalid injection
    /// or the protocol produced an invalid plan; the simulation must not be
    /// used further after an error.
    pub fn step(&mut self) -> Result<RoundOutcome, ModelError> {
        self.run_round(&mut ())
    }

    /// [`step`](Simulation::step) with a [`Probe`] observing the round.
    ///
    /// The probe receives only shared references, so the run is
    /// byte-identical to an unprobed one — same metrics, buffers and
    /// sequence numbers.
    ///
    /// # Errors
    ///
    /// Exactly as [`step`](Simulation::step).
    pub fn step_probed<Pr: Probe + ?Sized>(
        &mut self,
        probe: &mut Pr,
    ) -> Result<RoundOutcome, ModelError> {
        self.run_round(probe)
    }

    /// Runs `rounds` rounds and returns the metrics.
    ///
    /// # Errors
    ///
    /// Propagates the first plan validation error.
    pub fn run(&mut self, rounds: u64) -> Result<&RunMetrics, ModelError> {
        for _ in 0..rounds {
            self.run_round(&mut ())?;
        }
        Ok(&self.metrics)
    }

    /// Runs until `extra` rounds past the source's horizon (useful to let
    /// the network settle after the adversary stops). A source with an
    /// unknown horizon (e.g. a shaper, whose delays depend on admission)
    /// is stepped until it reports exhaustion, then `extra` settle rounds
    /// run; this diverges for a source that never exhausts.
    ///
    /// # Errors
    ///
    /// Propagates the first plan validation error.
    pub fn run_past_horizon(&mut self, extra: u64) -> Result<&RunMetrics, ModelError> {
        self.run_past_horizon_probed(extra, &mut ())
    }

    /// [`run_past_horizon`](Simulation::run_past_horizon) with a
    /// [`Probe`] observing every round.
    ///
    /// # Errors
    ///
    /// Propagates the first plan validation error.
    pub fn run_past_horizon_probed<Pr: Probe + ?Sized>(
        &mut self,
        extra: u64,
        probe: &mut Pr,
    ) -> Result<&RunMetrics, ModelError> {
        match self.source.horizon() {
            Some(horizon) => {
                while self.round.value() < horizon + extra {
                    self.run_round(probe)?;
                }
            }
            None => {
                while !self.source.is_exhausted() {
                    self.run_round(probe)?;
                }
                for _ in 0..extra {
                    self.run_round(probe)?;
                }
            }
        }
        Ok(&self.metrics)
    }

    /// The one round of the engine, at any shard count. The null probe
    /// `()` monomorphizes every hook away.
    fn run_round<Pr: Probe + ?Sized>(
        &mut self,
        probe: &mut Pr,
    ) -> Result<RoundOutcome, ModelError> {
        let t = self.round;
        let k = self.shards;
        let drops_before = self.metrics.dropped;
        let faults_before = self.metrics.faulted;
        let mut mark = probe.now_nanos();

        let (injected, accepted) = self.injection_phase(t)?;
        // An empty mask is dropped entirely: no per-send consult on
        // fault-free rounds.
        let faults = self
            .faults
            .as_ref()
            .map(FaultRuntime::state)
            .filter(|f| !f.is_empty());
        if let Some(f) = faults {
            probe.on_fault(t, f);
        }

        // --- Observe L^t ----------------------------------------------
        // Collapse the dirty worklist first: `observe`, the protocol's
        // plan and the active-balanced shard cuts all need it exact.
        self.state.refresh_active();
        self.metrics.observe(t, &self.state);
        probe.on_observe(t, &self.state);
        mark = phase_mark(probe, t, EnginePhase::Inject, mark);

        // --- Forwarding step ------------------------------------------
        self.plan_buf.clear_sends();
        if k > 1 && self.protocol.supports_range_planning() {
            plan_sharded(
                &self.protocol,
                &self.topology,
                &self.state,
                &mut self.plan_buf,
                t,
                k,
            );
        } else {
            self.protocol
                .plan(t, &self.topology, &self.state, &mut self.plan_buf);
        }
        // Sort the touched slots into node-major order so the move list
        // matches a dense scan's byte-for-byte.
        self.plan_buf.sort_touched();
        mark = phase_mark(probe, t, EnginePhase::Plan, mark);
        if let Some(e) = validate_sharded(
            &self.topology,
            &self.state,
            &self.plan_buf,
            faults,
            t,
            &mut self.shard_moves,
        ) {
            return Err(e);
        }
        if k > 1 {
            for (shard, moves) in self.shard_moves.iter().enumerate() {
                probe.on_shard_moves(t, shard, moves.len());
            }
        }
        for &(v, pid, _, delivers) in self.shard_moves.iter().flatten() {
            probe.on_move(t, v, pid, delivers);
        }
        mark = phase_mark(probe, t, EnginePhase::Forward, mark);
        // Apply simultaneously: all removals strictly before all placements,
        // so a packet received this round can never be re-forwarded within
        // the same round. With unbounded buffers the two sweeps fuse into
        // one: placements only ever append and removals are by id, so
        // interleaving them leaves the same final buffers, the same arrival
        // sequence order and the same delivery order — and the re-forward
        // hazard cannot arise because the move list is already fixed. The
        // two-pass shape is kept under capacities, where drop policies
        // observe occupancy mid-apply.
        let mut delivered = 0usize;
        if self.capacity.is_none() {
            for &(v, pid, hop, delivers) in self.shard_moves.iter().flatten() {
                let stored = self
                    .state
                    .remove(v, pid)
                    .expect("packet verified present above");
                if delivers {
                    self.metrics.record_delivery(t, stored.packet());
                    probe.on_delivery(t, stored.packet());
                    delivered += 1;
                } else {
                    self.state.place(hop, *stored.packet(), t);
                }
            }
        } else {
            self.lift_buf.clear();
            for &(v, pid, hop, delivers) in self.shard_moves.iter().flatten() {
                let stored = self
                    .state
                    .remove(v, pid)
                    .expect("packet verified present above");
                self.lift_buf.push((stored, hop, delivers));
            }
            for (stored, hop, delivers) in self.lift_buf.drain(..) {
                if delivers {
                    self.metrics.record_delivery(t, stored.packet());
                    probe.on_delivery(t, stored.packet());
                    delivered += 1;
                } else {
                    // A forwarded packet crossed its link either way; if the
                    // receiving buffer is full it (or a victim) is lost here.
                    admit(
                        &self.topology,
                        &mut self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        hop,
                        *stored.packet(),
                        t,
                    )?;
                }
            }
        }
        let forwarded: usize = self.shard_moves.iter().map(Vec::len).sum();
        self.metrics.forwarded += forwarded as u64;
        phase_mark(probe, t, EnginePhase::Merge, mark);
        self.round = t.next();
        let outcome = RoundOutcome {
            round: t,
            injected,
            accepted,
            forwarded,
            delivered,
            dropped: (self.metrics.dropped - drops_before) as usize,
            faulted: (self.metrics.faulted - faults_before) as usize,
        };
        probe.on_round(&outcome, &self.state);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::pattern::Injection;
    use crate::source::FnSource;
    use crate::topology::Path;

    /// Forwards nothing, ever.
    struct Idle;

    impl<T: Topology> Protocol<T> for Idle {
        fn name(&self) -> String {
            "idle".into()
        }
        fn plan(&mut self, _: Round, _: &T, _: &NetworkState, _: &mut ForwardingPlan) {}
    }

    /// Forwards every buffer's LIFO top.
    struct Drain;

    impl<T: Topology> Protocol<T> for Drain {
        fn name(&self) -> String {
            "drain".into()
        }
        fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
            for v in 0..state.node_count() {
                let v = NodeId::new(v);
                if let Some(top) = state.lifo_top_where(v, |_| true) {
                    plan.send(v, top.id());
                }
            }
        }
    }

    /// Like `Drain` but in batched mode with the given phase length.
    struct BatchedDrain(u64);

    impl<T: Topology> Protocol<T> for BatchedDrain {
        fn name(&self) -> String {
            "batched-drain".into()
        }
        fn injection_mode(&self) -> InjectionMode {
            InjectionMode::Batched { len: self.0 }
        }
        fn plan(&mut self, r: Round, t: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
            Drain.plan(r, t, state, plan)
        }
    }

    #[test]
    fn idle_protocol_accumulates() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3),
            Injection::new(1, 0, 3),
            Injection::new(2, 0, 3),
        ]);
        let mut sim = Simulation::new(Path::new(4), Idle, &p).unwrap();
        sim.run(3).unwrap();
        assert_eq!(sim.metrics().max_occupancy, 3);
        assert_eq!(sim.metrics().delivered, 0);
        assert!(!sim.is_drained());
    }

    #[test]
    fn drain_delivers_everything() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3),
            Injection::new(0, 1, 2),
            Injection::new(1, 2, 3),
        ]);
        let mut sim = Simulation::new(Path::new(4), Drain, &p).unwrap();
        sim.run_past_horizon(6).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().delivered, 3);
        assert_eq!(sim.metrics().injected, 3);
    }

    #[test]
    fn delivery_happens_on_arrival_at_destination() {
        // 0 → 1 takes exactly one forwarding.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let mut sim = Simulation::new(Path::new(2), Drain, &p).unwrap();
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.delivered, 1);
        assert_eq!(sim.metrics().latency.max_rounds, 1);
        assert!(sim.is_drained());
    }

    #[test]
    fn packets_move_one_hop_per_round() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let mut sim = Simulation::new(Path::new(4), Drain, &p).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        sim.step().unwrap();
        assert_eq!(sim.state().occupancy(NodeId::new(2)), 1);
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.delivered, 1);
    }

    #[test]
    fn invalid_plan_unknown_packet_is_reported() {
        struct Liar;
        impl<T: Topology> Protocol<T> for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, plan: &mut ForwardingPlan) {
                plan.send(NodeId::new(0), PacketId::new(999));
            }
        }
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let mut sim = Simulation::new(Path::new(2), Liar, &p).unwrap();
        assert!(matches!(sim.step(), Err(ModelError::UnknownPacket { .. })));
    }

    #[test]
    fn batched_mode_stages_until_phase_boundary() {
        let l = 3u64;
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3),
            Injection::new(1, 0, 3),
            Injection::new(2, 0, 3),
        ]);
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(l), &p).unwrap();
        // Rounds 0..3: everything staged, nothing buffered.
        for _ in 0..3 {
            let o = sim.step().unwrap();
            assert_eq!(o.accepted, 0);
            assert_eq!(o.forwarded, 0);
        }
        assert_eq!(sim.state().staged_len(), 3);
        assert_eq!(sim.metrics().max_staged, 3);
        // Round 3 (≡ 0 mod 3): acceptance happens.
        let o = sim.step().unwrap();
        assert_eq!(o.accepted, 3);
        assert_eq!(sim.state().staged_len(), 0);
        // Occupancy observed at acceptance.
        assert_eq!(sim.metrics().max_occupancy, 3);
    }

    #[test]
    fn conservation_injected_equals_buffered_plus_delivered() {
        let p: Pattern = (0..10u64).map(|t| Injection::new(t, 0, 3)).collect();
        let mut sim = Simulation::new(Path::new(4), Drain, &p).unwrap();
        for _ in 0..8 {
            sim.step().unwrap();
            let m = sim.metrics();
            assert_eq!(
                m.injected,
                m.delivered + sim.state().total_buffered() as u64 + sim.state().staged_len() as u64
            );
        }
    }

    #[test]
    fn series_recording() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 2), Injection::new(0, 1, 2)]);
        let mut sim = Simulation::new(Path::new(3), Idle, &p)
            .unwrap()
            .record_series();
        sim.run(3).unwrap();
        assert_eq!(sim.metrics().series.as_deref(), Some(&[1, 1, 1][..]));
    }

    #[test]
    fn boxed_protocols_work() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let boxed: Box<dyn Protocol<Path> + Send + Sync> = Box::new(Drain);
        let mut sim = Simulation::new(Path::new(2), boxed, &p).unwrap();
        sim.run(2).unwrap();
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn streaming_source_matches_pattern_run() {
        let p: Pattern = (0..20u64)
            .map(|t| Injection::new(t, t as usize % 3, 3))
            .collect();
        let mut from_pattern = Simulation::new(Path::new(4), Drain, &p).unwrap();
        from_pattern.run(30).unwrap();
        let mut from_stream = Simulation::from_source(Path::new(4), Drain, PatternSource::new(&p));
        from_stream.run(30).unwrap();
        assert_eq!(from_pattern.metrics(), from_stream.metrics());
        assert!(from_stream.is_drained());
    }

    #[test]
    fn streaming_source_never_materializes() {
        // A long rate-1 stream on a short path: peak live packets stay O(1)
        // while total injections are large.
        let rounds = 5_000u64;
        let source = FnSource::new(rounds, |t, out| out.push(Injection::new(t, 0, 1)));
        let mut sim = Simulation::from_source(Path::new(2), Drain, source);
        sim.run_past_horizon(4).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().injected, rounds);
        assert_eq!(sim.metrics().delivered, rounds);
        assert_eq!(sim.metrics().max_in_network, 1);
    }

    #[test]
    fn streaming_invalid_injection_errors_at_its_round() {
        let source = FnSource::new(4, |t, out| {
            if t == 2 {
                out.push(Injection::new(2, 0, 9)); // out of range for n = 4
            } else {
                out.push(Injection::new(t, 0, 3));
            }
        });
        let mut sim = Simulation::from_source(Path::new(4), Drain, source);
        assert!(sim.step().is_ok());
        assert!(sim.step().is_ok());
        assert!(matches!(sim.step(), Err(ModelError::Pattern(_))));
    }

    #[test]
    fn multi_out_node_forwards_one_packet_per_link() {
        use crate::topology::Dag;
        // Diamond: 0 fans out to middles 1..=2; packets destined for the
        // middles themselves use distinct links and may leave together.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1), Injection::new(0, 0, 2)]);
        /// Forwards everything in node 0's buffer (one send per packet).
        struct FanOut;
        impl<T: Topology> Protocol<T> for FanOut {
            fn name(&self) -> String {
                "fan-out".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                for sp in state.buffer(NodeId::new(0)) {
                    plan.send(NodeId::new(0), sp.id());
                }
            }
        }
        let mut sim = Simulation::new(Dag::diamond(2), FanOut, &p).unwrap();
        let o = sim.step().unwrap();
        assert_eq!(o.forwarded, 2);
        assert_eq!(o.delivered, 2);
        assert!(sim.is_drained());
    }

    #[test]
    fn same_link_twice_is_link_overload() {
        use crate::topology::Dag;
        // Both packets head for the sink: the deterministic router sends
        // them over the same first link, which a plan may use only once.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 2]);
        struct FanOut;
        impl<T: Topology> Protocol<T> for FanOut {
            fn name(&self) -> String {
                "fan-out".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                for sp in state.buffer(NodeId::new(0)) {
                    plan.send(NodeId::new(0), sp.id());
                }
            }
        }
        let mut sim = Simulation::new(Dag::diamond(2), FanOut, &p).unwrap();
        assert!(matches!(
            sim.step(),
            Err(ModelError::LinkOverload { node, .. }) if node == NodeId::new(0)
        ));
    }

    #[test]
    fn plan_slots_follow_out_degrees() {
        use crate::topology::Dag;
        let d = Dag::diamond(3); // node 0 has out-degree 3
        let mut plan = ForwardingPlan::new(1);
        plan.reset_for(&d);
        assert_eq!(plan.width(NodeId::new(0)), 3);
        assert_eq!(plan.width(NodeId::new(4)), 1); // sink still gets a slot
        plan.send(NodeId::new(0), PacketId::new(1));
        plan.send(NodeId::new(0), PacketId::new(2));
        plan.send(NodeId::new(0), PacketId::new(3));
        assert_eq!(plan.len(), 3);
        assert!(plan.is_active(NodeId::new(0)));
        assert_eq!(plan.get(NodeId::new(0)), Some(PacketId::new(1)));
        assert_eq!(
            plan.sends_from(NodeId::new(0)).collect::<Vec<_>>(),
            vec![PacketId::new(1), PacketId::new(2), PacketId::new(3)]
        );
        assert_eq!(plan.sends().count(), 3);
        // Identity layout on a path: reset_for == reset.
        plan.reset_for(&Path::new(4));
        assert_eq!(plan.width(NodeId::new(0)), 1);
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "already forwards")]
    fn overfilling_a_node_panics() {
        use crate::topology::Dag;
        let d = Dag::diamond(2);
        let mut plan = ForwardingPlan::new(1);
        plan.reset_for(&d);
        plan.send(NodeId::new(0), PacketId::new(1));
        plan.send(NodeId::new(0), PacketId::new(2));
        plan.send(NodeId::new(0), PacketId::new(3)); // out-degree is 2
    }

    #[test]
    fn capacity_drop_tail_rejects_overflow_and_records_it() {
        use crate::capacity::{CapacityConfig, DropTail};
        // Three packets burst into node 0 (cap 2): the third is dropped.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(2), DropTail);
        let o = sim.step().unwrap();
        assert_eq!(o.injected, 3);
        assert_eq!(o.dropped, 1);
        sim.run(6).unwrap();
        let m = sim.metrics();
        assert_eq!(m.dropped, 1);
        assert_eq!(m.per_node_drops, vec![1, 0, 0, 0]);
        assert_eq!(m.first_drop_round, Some(Round::ZERO));
        assert_eq!(m.delivered, 2);
        assert_eq!(m.max_occupancy, 2);
        assert_eq!(m.goodput(), Some(crate::Rate::new(2, 3).unwrap()));
        assert_eq!(sim.state().total_dropped(), 1);
        assert_eq!(sim.state().drops_at(NodeId::new(0)), 1);
    }

    #[test]
    fn capacity_drop_head_evicts_oldest() {
        use crate::capacity::{CapacityConfig, DropHead};
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 0, 2)]);
        let mut sim = Simulation::new(Path::new(4), Idle, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), DropHead);
        sim.step().unwrap();
        // The first-injected packet (id 0, dest 3) was evicted; the
        // second survives.
        assert_eq!(sim.metrics().dropped, 1);
        let buf = sim.state().buffer(NodeId::new(0));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].id(), PacketId::new(1));
    }

    #[test]
    fn capacity_enforced_on_forwarding_arrivals() {
        use crate::capacity::{CapacityConfig, DropTail};
        // Node 1 starts full (one parked packet, cap 1); a packet
        // forwarded from node 0 into node 1 is dropped on arrival.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 3), // parks at node 1
            Injection::new(1, 0, 3), // forwarded into node 1 at round 1
        ]);
        /// Forward only node 0's buffer.
        struct PushFromZero;
        impl<T: Topology> Protocol<T> for PushFromZero {
            fn name(&self) -> String {
                "push0".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                if let Some(top) = state.lifo_top_where(NodeId::new(0), |_| true) {
                    plan.send(NodeId::new(0), top.id());
                }
            }
        }
        let mut sim = Simulation::new(Path::new(4), PushFromZero, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), DropTail);
        sim.run(2).unwrap();
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.metrics().per_node_drops[1], 1);
        // The link was still used: the move counts as forwarded.
        assert_eq!(sim.metrics().forwarded, 1);
    }

    #[test]
    fn counted_staging_tail_drops_wishes_and_acceptance_never_overflows() {
        use crate::capacity::{CapacityConfig, DropTail, StagingMode};
        // Phase length 2, cap 2 at node 0, three wishes staged in round 0:
        // the third wish is dropped at stage time; acceptance at round 2
        // fits exactly.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(2), &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(2).staging(StagingMode::Counted),
                DropTail,
            );
        let o = sim.step().unwrap();
        assert_eq!(o.dropped, 1);
        assert_eq!(sim.state().staged_len(), 2);
        sim.step().unwrap();
        let o = sim.step().unwrap(); // round 2: acceptance
        assert_eq!(o.accepted, 2);
        assert_eq!(o.dropped, 0);
        assert_eq!(sim.metrics().max_occupancy, 2);
        assert_eq!(sim.metrics().dropped, 1);
    }

    #[test]
    fn counted_staging_overflow_with_empty_buffer_drops_the_arrival() {
        use crate::capacity::{CapacityConfig, DropHead, StagingMode};
        // Node 1's single slot is reserved by a staged wish while its
        // buffer is still empty; a packet forwarded into node 1 finds no
        // stored victim, so the arrival itself is lost — and stored-victim
        // policies like DropHead must not be consulted on the empty
        // buffer.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 2), // forwarded 0 → 1 in round 1
            Injection::new(1, 1, 2), // staged wish reserving node 1's slot
        ]);
        /// Batched staging, but forward only node 0's buffer.
        struct BatchedPushFromZero;
        impl<T: Topology> Protocol<T> for BatchedPushFromZero {
            fn name(&self) -> String {
                "batched-push0".into()
            }
            fn injection_mode(&self) -> InjectionMode {
                InjectionMode::Batched { len: 4 }
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                if let Some(top) = state.lifo_top_where(NodeId::new(0), |_| true) {
                    plan.send(NodeId::new(0), top.id());
                }
            }
        }
        let mut sim = Simulation::new(Path::new(3), BatchedPushFromZero, &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(1).staging(StagingMode::Counted),
                DropHead,
            );
        // Round 0: wish 0 staged. Round 1: wish 1 staged (reserves node
        // 1's slot)… but forwarding needs packet 0 *in* a buffer, which
        // only happens at acceptance (round 4). Step to round 5 where the
        // forwarded packet hits the reserved-but-empty buffer.
        sim.run(6).unwrap();
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.metrics().per_node_drops[1], 1);
    }

    #[test]
    fn exempt_staging_drops_at_acceptance() {
        use crate::capacity::{CapacityConfig, DropTail, StagingMode};
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(2), &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(2).staging(StagingMode::Exempt),
                DropTail,
            );
        // All three wishes stage freely.
        let o = sim.step().unwrap();
        assert_eq!(o.dropped, 0);
        assert_eq!(sim.state().staged_len(), 3);
        sim.step().unwrap();
        // Acceptance at round 2: only two fit.
        let o = sim.step().unwrap();
        assert_eq!(o.accepted, 2);
        assert_eq!(o.dropped, 1);
        assert_eq!(sim.metrics().first_drop_round, Some(Round::new(2)));
    }

    #[test]
    fn invalid_victim_is_reported() {
        use crate::capacity::{CapacityConfig, DropPolicy, Victim};
        /// Always names a victim that does not exist.
        #[derive(Debug)]
        struct Phantom;
        impl DropPolicy for Phantom {
            fn name(&self) -> String {
                "phantom".into()
            }
            fn select(
                &mut self,
                _: &[StoredPacket],
                _: &Packet,
                _: &crate::capacity::DropContext<'_>,
            ) -> Victim {
                Victim::Stored(PacketId::new(4096))
            }
        }
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 2]);
        let mut sim = Simulation::new(Path::new(2), Idle, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), Phantom);
        assert!(matches!(sim.step(), Err(ModelError::InvalidVictim { .. })));
    }

    #[test]
    fn generous_capacity_matches_unbounded_run() {
        use crate::capacity::{CapacityConfig, DropFarthest};
        let p: Pattern = (0..20u64).map(|t| Injection::new(t, 0, 3)).collect();
        let mut unbounded = Simulation::new(Path::new(4), Drain, &p).unwrap();
        unbounded.run(30).unwrap();
        let mut capped = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(usize::MAX), DropFarthest);
        capped.run(30).unwrap();
        assert_eq!(unbounded.metrics(), capped.metrics());
    }

    #[test]
    fn run_past_horizon_with_unknown_horizon_drains_the_source() {
        /// A shaper-like source: won't bound its horizon upfront, trickles
        /// one packet per round until its backlog of 5 is gone.
        struct Trickle {
            left: u64,
        }
        impl InjectionSource for Trickle {
            fn next_round(&mut self, round: Round, out: &mut Vec<Injection>) {
                if self.left > 0 {
                    self.left -= 1;
                    out.push(Injection::new(round.value(), 0, 1));
                }
            }
            fn horizon(&self) -> Option<u64> {
                None
            }
            fn is_exhausted(&self) -> bool {
                self.left == 0
            }
        }
        let mut sim = Simulation::from_source(Path::new(2), Drain, Trickle { left: 5 });
        sim.run_past_horizon(3).unwrap();
        // All 5 wishes injected (no silent truncation), plus 3 settle rounds.
        assert_eq!(sim.metrics().injected, 5);
        assert_eq!(sim.metrics().delivered, 5);
        assert_eq!(sim.round().value(), 5 + 3);
        assert!(sim.is_drained());
    }

    /// A grid pattern with enough crossing traffic that shards exchange
    /// packets every round.
    fn grid_pattern() -> Pattern {
        let mut inj = Vec::new();
        for t in 0..6u64 {
            for v in 0..12usize {
                // 4×4 grid, sink is node 15; also a shorter diagonal hop
                // where one exists down-right.
                inj.push(Injection::new(t, v, 15));
                if v % 4 < 3 && v / 4 < 3 {
                    inj.push(Injection::new(t, v, v + 5));
                }
            }
        }
        Pattern::from_injections(inj)
    }

    /// Asserts two simulations have byte-identical observable state:
    /// metrics and every buffer (contents, order, `seq`s).
    fn assert_states_identical<T: Topology, P, Q, S, R>(
        a: &Simulation<T, P, S>,
        b: &Simulation<T, Q, R>,
    ) where
        P: Protocol<T>,
        Q: Protocol<T>,
        S: InjectionSource,
        R: InjectionSource,
    {
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.round(), b.round());
        for v in 0..a.state().node_count() {
            let v = NodeId::new(v);
            assert_eq!(a.state().buffer(v), b.state().buffer(v), "buffer {v}");
            // The occupancy bitset must stay exact on both runs.
            assert_eq!(
                a.state().is_occupied(v),
                !a.state().buffer(v).is_empty(),
                "sequential occupancy bit {v}"
            );
            assert_eq!(
                b.state().is_occupied(v),
                !b.state().buffer(v).is_empty(),
                "sharded occupancy bit {v}"
            );
        }
    }

    #[test]
    fn sharded_step_is_byte_identical_to_sequential() {
        use crate::topology::Dag;
        for shards in [2, 3, 4, 7] {
            let mut seq = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern()).unwrap();
            let mut par = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern())
                .unwrap()
                .with_shards(shards);
            for _ in 0..14 {
                let a = seq.step().unwrap();
                let b = par.step().unwrap();
                assert_eq!(a, b, "shards = {shards}");
                assert_states_identical(&seq, &par);
            }
            // Enough rounds that deliveries (and cross-shard hops) happened.
            assert!(seq.metrics().delivered > 0);
        }
    }

    #[test]
    fn range_planning_protocol_matches_sequential_plan() {
        use crate::topology::Dag;

        /// `Drain` again, but planning shard-locally through `PlanWindow`.
        struct RangeDrain;
        impl<T: Topology> Protocol<T> for RangeDrain {
            fn name(&self) -> String {
                "range-drain".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                for v in 0..state.node_count() {
                    let v = NodeId::new(v);
                    if let Some(top) = state.lifo_top_where(v, |_| true) {
                        plan.send(v, top.id());
                    }
                }
            }
            fn supports_range_planning(&self) -> bool {
                true
            }
            fn plan_range(
                &self,
                _: Round,
                _: &T,
                state: &NetworkState,
                window: &mut PlanWindow<'_>,
            ) {
                for v in window.node_range() {
                    let v = NodeId::new(v);
                    if let Some(top) = state.lifo_top_where(v, |_| true) {
                        window.send(v, top.id());
                    }
                }
            }
        }

        for shards in [1, 2, 5] {
            let mut seq = Simulation::new(Dag::grid(4, 4), RangeDrain, &grid_pattern()).unwrap();
            let mut par = Simulation::new(Dag::grid(4, 4), RangeDrain, &grid_pattern())
                .unwrap()
                .with_shards(shards);
            seq.run_past_horizon(150).unwrap();
            par.run_past_horizon(150).unwrap();
            assert_states_identical(&seq, &par);
            assert!(par.is_drained());
        }
    }

    #[test]
    fn sharded_capacity_run_matches_sequential_drops() {
        use crate::capacity::{CapacityConfig, DropFarthest};
        // Injections at both 0 and 1 collide with arrivals from upstream,
        // so the unit-capacity buffers overflow and the drop policy runs.
        let p: Pattern = (0..20u64)
            .flat_map(|t| [Injection::new(t, 0, 3), Injection::new(t, 1, 3)])
            .collect();
        let mut seq = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), DropFarthest);
        let mut par = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), DropFarthest)
            .with_shards(2);
        seq.run(25).unwrap();
        par.run(25).unwrap();
        assert_states_identical(&seq, &par);
        assert!(par.metrics().dropped > 0);
    }

    #[test]
    fn sharded_invalid_plan_reports_the_sequential_first_error() {
        struct Liar;
        impl<T: Topology> Protocol<T> for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, plan: &mut ForwardingPlan) {
                // Two bad sends; the lower node's error must win even when
                // a later shard hits its own error concurrently.
                plan.send(NodeId::new(1), PacketId::new(998));
                plan.send(NodeId::new(3), PacketId::new(999));
            }
        }
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let mut sim = Simulation::new(Path::new(4), Liar, &p)
            .unwrap()
            .with_shards(4);
        match sim.step() {
            Err(ModelError::UnknownPacket { node, packet, .. }) => {
                assert_eq!(node, NodeId::new(1));
                assert_eq!(packet, PacketId::new(998));
            }
            other => panic!("expected UnknownPacket at node 1, got {other:?}"),
        }
    }

    /// Conservation with faults:
    /// injected = delivered + dropped + faulted + buffered + staged.
    fn assert_fault_conservation<T: Topology, P: Protocol<T>, S: InjectionSource>(
        sim: &Simulation<T, P, S>,
    ) {
        let m = sim.metrics();
        assert_eq!(
            m.injected,
            m.delivered
                + m.dropped
                + m.faulted
                + sim.state().total_buffered() as u64
                + sim.state().staged_len() as u64,
            "conservation with faults"
        );
        assert_eq!(m.faulted, sim.state().total_faulted());
    }

    #[test]
    fn link_down_stalls_forwarding_until_recovery() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let faults = FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 1,
            to: 2,
            at: 1,
            until: Some(3),
        });
        let mut sim = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_faults(&faults);
        sim.step().unwrap(); // t0: 0 → 1.
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        for t in 1..3 {
            let o = sim.step().unwrap(); // t1, t2: link 1→2 down, no move.
            assert_eq!(o.forwarded, 0, "round {t}");
            assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        }
        sim.step().unwrap(); // t3: recovered, 1 → 2.
        let o = sim.step().unwrap(); // t4: 2 → 3, delivered.
        assert_eq!(o.delivered, 1);
        assert_eq!(sim.metrics().faulted, 0);
        assert_fault_conservation(&sim);
    }

    #[test]
    fn node_crash_sweeps_buffer_into_faulted() {
        // Three packets pile up at node 1 under Idle; node 1 then crashes.
        let p = Pattern::from_injections(vec![Injection::new(0, 1, 3); 3]);
        let faults = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 1,
            at: 2,
            until: None,
        });
        let mut sim = Simulation::new(Path::new(4), Idle, &p)
            .unwrap()
            .with_faults(&faults);
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(sim.metrics().faulted, 0);
        let o = sim.step().unwrap(); // t2: crash sweeps the buffer.
        assert_eq!(o.faulted, 3);
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 0);
        let m = sim.metrics();
        assert_eq!(m.faulted, 3);
        assert_eq!(m.per_node_faulted, vec![0, 3, 0, 0]);
        assert_eq!(m.first_fault_round, Some(Round::new(2)));
        assert_eq!(sim.state().faults_at(NodeId::new(1)), 3);
        assert_fault_conservation(&sim);
    }

    #[test]
    fn injection_at_dead_node_is_faulted_not_lost() {
        let p: Pattern = (0..4u64).map(|t| Injection::new(t, 0, 2)).collect();
        let faults = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 0,
            at: 0,
            until: None,
        });
        let mut sim = Simulation::new(Path::new(3), Drain, &p)
            .unwrap()
            .with_faults(&faults);
        sim.run_past_horizon(4).unwrap();
        let m = sim.metrics();
        assert_eq!(m.injected, 4);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.faulted, 4);
        assert_eq!(m.first_fault_round, Some(Round::ZERO));
        assert_fault_conservation(&sim);
    }

    #[test]
    fn staged_packets_at_crashing_node_are_faulted() {
        // Batched mode with phase 3: wishes staged in rounds 0–1, node 0
        // crashes at round 2 — its staged wishes are swept before the
        // round-3 acceptance boundary.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(1, 0, 3)]);
        let faults = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 0,
            at: 2,
            until: None,
        });
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(3), &p)
            .unwrap()
            .with_faults(&faults);
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(sim.state().staged_len(), 2);
        let o = sim.step().unwrap(); // t2: crash.
        assert_eq!(o.faulted, 2);
        assert_eq!(sim.state().staged_len(), 0);
        let o = sim.step().unwrap(); // t3: acceptance boundary, nothing left.
        assert_eq!(o.accepted, 0);
        assert_fault_conservation(&sim);
    }

    #[test]
    fn partition_heals_and_traffic_resumes() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let faults = FaultSpec::new(0).with_event(FaultEvent::Partition {
            group: vec![0, 1],
            at: 0,
            until: Some(4),
        });
        let mut sim = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_faults(&faults);
        sim.run(4).unwrap(); // packet reaches node 1, then waits at the cut.
        assert_eq!(sim.metrics().delivered, 0);
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        sim.run_past_horizon(6).unwrap();
        assert_eq!(sim.metrics().delivered, 1);
        assert_eq!(sim.metrics().faulted, 0);
    }

    #[test]
    fn link_delay_throttles_bandwidth() {
        // extra = 1: link 0→1 forwards only on even rounds (bandwidth ½).
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 4]);
        let faults = FaultSpec::new(0).with_event(FaultEvent::LinkDelay {
            from: 0,
            to: 1,
            extra: 1,
            at: 0,
            until: None,
        });
        let mut sim = Simulation::new(Path::new(2), Drain, &p)
            .unwrap()
            .with_faults(&faults);
        let mut delivered_on = Vec::new();
        for t in 0..8u64 {
            let o = sim.step().unwrap();
            if o.delivered > 0 {
                delivered_on.push(t);
            }
        }
        assert_eq!(delivered_on, vec![0, 2, 4, 6]);
        assert!(sim.is_drained());
    }

    #[test]
    fn two_sends_over_a_blocked_link_are_skipped_not_overload() {
        // Node 0 has out-degree 2 (so the plan accepts two sends), but
        // both packets are destined to node 1 and resolve to the same
        // link 0→1. Without the fault that is a LinkOverload; with the
        // link down both sends are skipped as if never planned.
        use crate::topology::Dag;
        struct DoubleSend;
        impl<T: Topology> Protocol<T> for DoubleSend {
            fn name(&self) -> String {
                "double-send".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                for sp in state.buffer(NodeId::new(0)) {
                    plan.send(NodeId::new(0), sp.id());
                }
            }
        }
        let dag = || Dag::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 2]);
        let mut plain = Simulation::new(dag(), DoubleSend, &p).unwrap();
        assert!(matches!(plain.step(), Err(ModelError::LinkOverload { .. })));
        let faults = FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 0,
            to: 1,
            at: 0,
            until: None,
        });
        let mut faulted = Simulation::new(dag(), DoubleSend, &p)
            .unwrap()
            .with_faults(&faults);
        let o = faulted.step().unwrap();
        assert_eq!(o.forwarded, 0);
        assert_eq!(faulted.state().occupancy(NodeId::new(0)), 2);
    }

    #[test]
    fn empty_fault_spec_is_byte_identical_to_fault_free() {
        use crate::topology::Dag;
        let mut plain = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern()).unwrap();
        let mut empty = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern())
            .unwrap()
            .with_faults(&FaultSpec::default());
        for _ in 0..12 {
            let a = plain.step().unwrap();
            let b = empty.step().unwrap();
            assert_eq!(a, b);
            assert_states_identical(&plain, &empty);
        }
    }

    #[test]
    fn sharded_fault_run_is_byte_identical_to_sequential() {
        use crate::topology::Dag;
        let faults = FaultSpec::new(11)
            .with_event(FaultEvent::RandomLinks {
                count: 4,
                at: 2,
                until: Some(8),
            })
            .with_event(FaultEvent::NodeCrash {
                node: 5,
                at: 3,
                until: Some(7),
            })
            .with_event(FaultEvent::Partition {
                group: vec![0, 1, 2, 3],
                at: 9,
                until: Some(11),
            });
        for shards in [2, 3, 7] {
            let mut seq = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern())
                .unwrap()
                .with_faults(&faults);
            let mut par = Simulation::new(Dag::grid(4, 4), Drain, &grid_pattern())
                .unwrap()
                .with_faults(&faults)
                .with_shards(shards);
            for _ in 0..16 {
                let a = seq.step().unwrap();
                let b = par.step().unwrap();
                assert_eq!(a, b, "shards = {shards}");
                assert_states_identical(&seq, &par);
            }
            assert!(seq.metrics().faulted > 0, "crash never swept anything");
            assert_fault_conservation(&seq);
        }
    }
}
