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
//! *needed*); [`Simulation::with_capacity`] caps them and lets a
//! [`DropPolicyKind`] pick the packet each overflowing placement loses —
//! same hot path, no extra allocation, losses recorded in
//! [`RunMetrics`].
//!
use std::fmt;

use crate::capacity::{CapacityConfig, DropPolicyKind, StagingMode};
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

/// A forwarding decision: the round's sends, at most one packet per
/// outgoing link of each node.
///
/// The plan holds only what the protocol scheduled, one entry per
/// [`send`](ForwardingPlan::send), so its size is the round's sends and
/// not the topology's. Which *link* a send uses is not stored here: the
/// engine reads it off the buffered packet
/// ([`StoredPacket::next_hop`], routed by [`Topology::next_hop`] when the
/// packet was placed) and rejects two sends from one node over the same
/// link ([`ModelError::LinkOverload`]). On single-out topologies
/// (paths, trees) that is "one packet out of each buffer" (cf. Lemma
/// 4.7); on DAGs a node forwards up to its out-degree, one per link, and
/// a node that plans more sends than it has links puts two on one link.
///
/// The engine owns one plan, empties it before each round's
/// [`Protocol::plan`] and sorts it after, so moves follow node order and,
/// within a node, the order of the `send` calls — whatever order the
/// protocol made them in. Steady-state planning allocates nothing.
///
/// # Examples
///
/// ```
/// use aqt_model::{ForwardingPlan, NodeId, PacketId};
///
/// let mut plan = ForwardingPlan::new();
/// plan.send(NodeId::new(2), PacketId::new(9));
/// assert!(plan.is_active(NodeId::new(2)));
/// assert!(!plan.is_active(NodeId::new(0)));
/// assert_eq!(plan.len(), 1);
/// assert_eq!(
///     plan.sends().collect::<Vec<_>>(),
///     vec![(NodeId::new(2), PacketId::new(9))]
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardingPlan {
    /// One `(key, packet)` per send, the key `(node << 32) | call index`:
    /// unique, and sorting by it orders the sends node-major and by call
    /// within a node.
    sends: Vec<(u64, PacketId)>,
}

impl ForwardingPlan {
    /// An empty plan (nobody forwards).
    pub fn new() -> Self {
        ForwardingPlan::default()
    }

    /// Schedules `packet` to be forwarded out of `v`.
    ///
    /// Nothing is checked here: the engine rejects a packet absent from
    /// `v` ([`ModelError::UnknownPacket`]), one with no next hop
    /// ([`ModelError::NoNextHop`]) and a second send over one link
    /// ([`ModelError::LinkOverload`]).
    pub fn send(&mut self, v: NodeId, packet: PacketId) {
        let call = self.sends.len() as u64;
        // The call index fills the low 32 bits: 2^32 sends would take
        // 64 GiB of plan before one could spill into the node's bits.
        debug_assert!(call <= u64::from(u32::MAX), "2^32 sends in one round");
        self.sends.push((((v.index() as u64) << 32) | call, packet));
    }

    /// Whether `v` already has a scheduled send. A scan of the round's
    /// sends, O(sends): meant for reference planners and tests, not for a
    /// planner's hot loop, which knows what it sent.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.sends().any(|(u, _)| u == v)
    }

    /// Iterates over the scheduled `(node, packet)` sends: in call order
    /// while the protocol plans, node-major once the engine has sorted
    /// them.
    pub fn sends(&self) -> impl Iterator<Item = (NodeId, PacketId)> + '_ {
        self.sends
            .iter()
            .map(|&(key, packet)| (NodeId::new((key >> 32) as usize), packet))
    }

    /// Number of scheduled sends.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no sends are scheduled.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
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
    /// filling `plan` (handed over empty). Sends may be made in any node
    /// order: the engine applies them node-major, and in call order
    /// within a node.
    ///
    /// The engine guarantees the state's active set is exact here (it
    /// refreshes right before the `L^t` observation), so implementations
    /// may iterate [`NetworkState::active_nodes`] instead of
    /// `0..node_count()`: only non-empty buffers can send, and both walks
    /// visit them in the same ascending order, so the filled plan is
    /// identical while the cost drops to O(live nodes). The contract is
    /// additive — a dense scan remains correct.
    fn plan(&mut self, round: Round, topology: &T, state: &NetworkState, plan: &mut ForwardingPlan);
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
    /// constraint (on a path or tree: two sends from one node).
    LinkOverload {
        /// The forwarding node.
        node: NodeId,
        /// The overloaded link's head.
        hop: NodeId,
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
    // Reusable per-round scratch (hot path performs no allocation once
    // these reach their steady-state capacity).
    injection_buf: Vec<Injection>,
    accept_buf: Vec<Packet>,
    plan_buf: ForwardingPlan,
    /// The round's validated moves, in node order.
    moves: Vec<Move>,
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
#[derive(Debug, Clone)]
struct CapacityState {
    config: CapacityConfig,
    policy: DropPolicyKind,
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

/// Validates the plan's sends and collects their moves into `moves`.
/// The sends must be sorted by key: node-major, then call order within
/// a node, so the walk is O(sends). Returns the first error in that
/// order, if any. Each send's link is its packet's stored next hop, so
/// validation routes nothing.
///
/// With a fault mask (`faults`), a send over a blocked link is silently
/// skipped *before* the per-link bandwidth check — as if the protocol had
/// not planned it, so two sends over one blocked link are both skipped
/// rather than a `LinkOverload`. Skipped sends never enter the move list.
/// The engine also drops the mask entirely when it is empty
/// ([`FaultState::is_empty`]), skipping the per-send consult.
fn collect_moves(
    state: &NetworkState,
    plan: &ForwardingPlan,
    faults: Option<&FaultState>,
    t: Round,
    moves: &mut Vec<Move>,
) -> Option<ModelError> {
    moves.clear();
    for (v, pid) in plan.sends() {
        let Some(stored) = state.find(v, pid) else {
            return Some(ModelError::UnknownPacket {
                node: v,
                packet: pid,
                round: t,
            });
        };
        let dest = stored.dest();
        let Some(hop) = stored.next_hop() else {
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
        // earlier send from the same node sits at the tail of the move
        // list, each over a distinct link (out-degrees are tiny; this
        // scan is O(deg)).
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

/// Places `packet` into `v` together with its next hop out of `v`: the
/// one routing query a packet costs per buffer it enters. Validation and
/// per-link planners read [`StoredPacket::next_hop`] from then on.
fn place_routed<T: Topology>(topology: &T, state: &mut NetworkState, v: NodeId, packet: Packet) {
    state.place(v, packet, topology.next_hop(v, packet.dest()));
}

/// Places `packet` into `v` unless capacity forbids it; on overflow the
/// drop policy names the victim, and the drop is recorded and reported
/// to `probe`. Returns whether `packet` ended up buffered. A free
/// function over disjoint `Simulation` fields so the borrow checker
/// accepts calls from inside the scratch-buffer loops.
#[allow(clippy::too_many_arguments)]
fn admit<T: Topology, Pr: Probe + ?Sized>(
    topology: &T,
    capacity: &Option<CapacityState>,
    state: &mut NetworkState,
    metrics: &mut RunMetrics,
    probe: &mut Pr,
    v: NodeId,
    packet: Packet,
    t: Round,
) -> bool {
    let Some(cap) = capacity else {
        place_routed(topology, state, v, packet);
        return true;
    };
    let mut occupied = state.occupancy(v);
    if cap.config.staging_mode() == StagingMode::Counted {
        occupied += state.staged_count(v);
    }
    if occupied < cap.config.limit(v) {
        place_routed(topology, state, v, packet);
        return true;
    }
    // Unreachable destinations sort as infinitely far (`route_len` is
    // `None`): `Farthest` must prefer evicting a packet that can never
    // arrive over one that still can. `unwrap_or(0)` here would make such
    // a packet look *closest* and therefore unevictable. Under counted
    // staging the limit can be reached by staged wishes alone; staged
    // packets are invisible to the policy, so an empty buffer has no
    // stored victim and the incoming packet is the loss.
    let distance = |dest: NodeId| topology.route_len(v, dest).unwrap_or(usize::MAX);
    let victim = cap.policy.victim(state.buffer(v), &packet, distance);
    metrics.record_drop(t, v);
    probe.on_drop(t, v);
    if let Some(id) = victim {
        state
            .remove(v, id)
            .expect("the victim is a stored packet of v");
        place_routed(topology, state, v, packet);
    }
    victim.is_some()
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
        Simulation {
            topology,
            protocol,
            state: NetworkState::new(n),
            source,
            next_packet_id: 0,
            round: Round::ZERO,
            metrics: RunMetrics::new(n, false),
            validate_injections: true,
            injection_buf: Vec::new(),
            accept_buf: Vec::new(),
            plan_buf: ForwardingPlan::new(),
            moves: Vec::new(),
            lift_buf: Vec::new(),
            capacity: None,
            faults: None,
        }
    }

    /// Enables capacity-bounded execution: every buffer is capped per
    /// `config` and `policy` picks the packet an overflowing placement
    /// loses (see
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
    pub fn with_capacity(mut self, config: CapacityConfig, policy: DropPolicyKind) -> Self {
        assert_eq!(self.round, Round::ZERO, "enable capacity before stepping");
        config.assert_valid(self.topology.node_count());
        self.capacity = Some(CapacityState { config, policy });
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
    fn injection_phase<Pr: Probe + ?Sized>(
        &mut self,
        t: Round,
        probe: &mut Pr,
    ) -> Result<(usize, usize), ModelError> {
        let mode = self.protocol.injection_mode();

        // --- Fault mask -----------------------------------------------
        // Advance the mask to this round first: a node crashing at `t`
        // loses its buffered and staged packets to `faulted` before
        // acceptance, injection or planning can touch them, and the
        // whole round sees one consistent mask.
        if let Some(faults) = &mut self.faults {
            faults.advance(t);
            for &v in faults.newly_dead() {
                while let Some(id) = self.state.buffer(v).first().map(|sp| sp.id()) {
                    self.state.remove(v, id).expect("buffer scan is live");
                    self.metrics.record_fault(t, v);
                }
                for _ in 0..self.state.sweep_staged(v) {
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
                        &self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        probe,
                        packet.source(),
                        packet,
                        t,
                    ) {
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
                        &self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        probe,
                        injection.source,
                        packet,
                        t,
                    );
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
                                probe.on_drop(t, v);
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

    /// The one round of the engine, on the calling thread. The null probe
    /// `()` monomorphizes every hook away.
    fn run_round<Pr: Probe + ?Sized>(
        &mut self,
        probe: &mut Pr,
    ) -> Result<RoundOutcome, ModelError> {
        let t = self.round;
        let drops_before = self.metrics.dropped;
        let faults_before = self.metrics.faulted;
        let mut mark = probe.now_nanos();

        let (injected, accepted) = self.injection_phase(t, probe)?;
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
        // Rebuild the active set first: `observe` and the protocol's plan
        // both need it exact.
        self.state.refresh_active();
        self.metrics.observe(t, &self.state);
        probe.on_observe(t, &self.state);
        mark = phase_mark(probe, t, EnginePhase::Inject, mark);

        // --- Forwarding step ------------------------------------------
        self.plan_buf.sends.clear();
        self.protocol
            .plan(t, &self.topology, &self.state, &mut self.plan_buf);
        // Node-major, call order within a node: the keys are unique, so
        // the unstable sort is deterministic (and allocates nothing).
        self.plan_buf.sends.sort_unstable();
        mark = phase_mark(probe, t, EnginePhase::Plan, mark);
        if let Some(e) = collect_moves(&self.state, &self.plan_buf, faults, t, &mut self.moves) {
            return Err(e);
        }
        for &(v, pid, _, delivers) in &self.moves {
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
            for &(v, pid, hop, delivers) in &self.moves {
                let stored = self
                    .state
                    .remove(v, pid)
                    .expect("packet verified present above");
                if delivers {
                    self.metrics.record_delivery(t, stored.packet());
                    probe.on_delivery(t, stored.packet());
                    delivered += 1;
                } else {
                    place_routed(&self.topology, &mut self.state, hop, *stored.packet());
                }
            }
        } else {
            self.lift_buf.clear();
            for &(v, pid, hop, delivers) in &self.moves {
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
                        &self.capacity,
                        &mut self.state,
                        &mut self.metrics,
                        probe,
                        hop,
                        *stored.packet(),
                        t,
                    );
                }
            }
        }
        let forwarded = self.moves.len();
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
        let boxed: Box<dyn Protocol<Path>> = Box::new(Drain);
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

    /// Sends every packet in node 0's buffer, oldest first.
    struct SendAllFromZero;

    impl<T: Topology> Protocol<T> for SendAllFromZero {
        fn name(&self) -> String {
            "send-all-from-0".into()
        }
        fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
            for sp in state.buffer(NodeId::new(0)) {
                plan.send(NodeId::new(0), sp.id());
            }
        }
    }

    #[test]
    fn multi_out_node_forwards_one_packet_per_link() {
        use crate::topology::Dag;
        // Diamond: 0 fans out to middles 1..=2; packets destined for the
        // middles themselves use distinct links and may leave together.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1), Injection::new(0, 0, 2)]);
        let mut sim = Simulation::new(Dag::diamond(2), SendAllFromZero, &p).unwrap();
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
        let mut sim = Simulation::new(Dag::diamond(2), SendAllFromZero, &p).unwrap();
        assert!(matches!(
            sim.step(),
            Err(ModelError::LinkOverload { node, .. }) if node == NodeId::new(0)
        ));
    }

    #[test]
    fn two_sends_from_one_path_node_are_link_overload() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 0, 2)]);
        let mut sim = Simulation::new(Path::new(4), SendAllFromZero, &p).unwrap();
        match sim.step() {
            Err(ModelError::LinkOverload { node, hop, .. }) => {
                assert_eq!((node, hop), (NodeId::new(0), NodeId::new(1)));
            }
            other => panic!("expected LinkOverload over 0 -> 1, got {other:?}"),
        }
    }

    #[test]
    fn more_sends_than_links_are_link_overload() {
        use crate::topology::Dag;
        // Node 0 has two links; its packets for 1 and 2 take one each,
        // so the third send must reuse one of them.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 1),
            Injection::new(0, 0, 2),
            Injection::new(0, 0, 3),
        ]);
        let mut sim = Simulation::new(Dag::diamond(2), SendAllFromZero, &p).unwrap();
        assert_eq!(sim.topology().out_degree(NodeId::new(0)), 2);
        assert!(matches!(
            sim.step(),
            Err(ModelError::LinkOverload { node, .. }) if node == NodeId::new(0)
        ));
    }

    #[test]
    fn moves_follow_node_order_then_call_order() {
        use crate::topology::Dag;
        /// Sends node 3's packet first, then node 0's newest before its
        /// oldest.
        struct Backwards;
        impl<T: Topology> Protocol<T> for Backwards {
            fn name(&self) -> String {
                "backwards".into()
            }
            fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
                for v in [3, 0] {
                    for sp in state.buffer(NodeId::new(v)).iter().rev() {
                        plan.send(NodeId::new(v), sp.id());
                    }
                }
            }
        }
        /// Records every move's `(from, packet)`.
        #[derive(Default)]
        struct Moves(Vec<(usize, u64)>);
        impl Probe for Moves {
            fn on_move(&mut self, _: Round, from: NodeId, packet: PacketId, _: bool) {
                self.0.push((from.index(), packet.value()));
            }
        }
        // A 3×3 mesh: node 0 has two links (right to 1, down to 3).
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 1), // id 0, over 0 -> 1
            Injection::new(0, 0, 3), // id 1, over 0 -> 3
            Injection::new(0, 3, 4), // id 2, over 3 -> 4
        ]);
        let mut sim = Simulation::new(Dag::grid(3, 3), Backwards, &p).unwrap();
        let mut moves = Moves::default();
        let o = sim.step_probed(&mut moves).unwrap();
        assert_eq!(o.delivered, 3);
        assert_eq!(moves.0, vec![(0, 1), (0, 0), (3, 2)]);
    }

    #[test]
    fn capacity_drop_tail_rejects_overflow_and_records_it() {
        use crate::capacity::{CapacityConfig, DropPolicyKind};
        // Three packets burst into node 0 (cap 2): the third is dropped.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(2), DropPolicyKind::Tail);
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
    }

    #[test]
    fn capacity_drop_head_evicts_oldest() {
        use crate::capacity::{CapacityConfig, DropPolicyKind};
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 0, 2)]);
        let mut sim = Simulation::new(Path::new(4), Idle, &p)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(1), DropPolicyKind::Head);
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
        use crate::capacity::{CapacityConfig, DropPolicyKind};
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
            .with_capacity(CapacityConfig::uniform(1), DropPolicyKind::Tail);
        sim.run(2).unwrap();
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.metrics().per_node_drops[1], 1);
        // The link was still used: the move counts as forwarded.
        assert_eq!(sim.metrics().forwarded, 1);
    }

    #[test]
    fn counted_staging_tail_drops_wishes_and_acceptance_never_overflows() {
        use crate::capacity::{CapacityConfig, DropPolicyKind, StagingMode};
        // Phase length 2, cap 2 at node 0, three wishes staged in round 0:
        // the third wish is dropped at stage time; acceptance at round 2
        // fits exactly.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(2), &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(2).staging(StagingMode::Counted),
                DropPolicyKind::Tail,
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
        use crate::capacity::{CapacityConfig, DropPolicyKind, StagingMode};
        // Node 1's single slot is reserved by a staged wish while its
        // buffer is still empty; a packet forwarded into node 1 finds no
        // stored victim, so the arrival itself is lost — even under
        // `Head`, which otherwise evicts a stored packet.
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
                DropPolicyKind::Head,
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
        use crate::capacity::{CapacityConfig, DropPolicyKind, StagingMode};
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(Path::new(4), BatchedDrain(2), &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(2).staging(StagingMode::Exempt),
                DropPolicyKind::Tail,
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
    fn generous_capacity_matches_unbounded_run() {
        use crate::capacity::{CapacityConfig, DropPolicyKind};
        let p: Pattern = (0..20u64).map(|t| Injection::new(t, 0, 3)).collect();
        let mut unbounded = Simulation::new(Path::new(4), Drain, &p).unwrap();
        unbounded.run(30).unwrap();
        let mut capped = Simulation::new(Path::new(4), Drain, &p)
            .unwrap()
            .with_capacity(
                CapacityConfig::uniform(usize::MAX),
                DropPolicyKind::Farthest,
            );
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

    /// A grid pattern with enough crossing traffic that packets cross
    /// paths every round.
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
                "first run's occupancy bit {v}"
            );
            assert_eq!(
                b.state().is_occupied(v),
                !b.state().buffer(v).is_empty(),
                "second run's occupancy bit {v}"
            );
        }
    }

    #[test]
    fn invalid_plan_reports_the_first_error_in_node_order() {
        struct Liar;
        impl<T: Topology> Protocol<T> for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, plan: &mut ForwardingPlan) {
                // Two bad sends, planned out of node order; the lower
                // node's error must win.
                plan.send(NodeId::new(3), PacketId::new(999));
                plan.send(NodeId::new(1), PacketId::new(998));
            }
        }
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let mut sim = Simulation::new(Path::new(4), Liar, &p).unwrap();
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
        // Both packets at node 0 are destined to node 1 and resolve to
        // the same link 0→1, whether node 0 has a second link or not.
        // Without the fault that is a LinkOverload; with the link down
        // both sends are skipped as if never planned.
        fn check<T: Topology>(topology: impl Fn() -> T) {
            let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 2]);
            let mut plain = Simulation::new(topology(), SendAllFromZero, &p).unwrap();
            assert!(matches!(plain.step(), Err(ModelError::LinkOverload { .. })));
            let faults = FaultSpec::new(0).with_event(FaultEvent::LinkDown {
                from: 0,
                to: 1,
                at: 0,
                until: None,
            });
            let mut faulted = Simulation::new(topology(), SendAllFromZero, &p)
                .unwrap()
                .with_faults(&faults);
            let o = faulted.step().unwrap();
            assert_eq!(o.forwarded, 0);
            assert_eq!(faulted.state().occupancy(NodeId::new(0)), 2);
        }
        check(|| crate::topology::Dag::from_edges(3, &[(0, 1), (0, 2)]).unwrap());
        check(|| Path::new(3));
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
}
