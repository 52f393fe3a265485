//! The peak-to-sink planner: PTS (Alg. 1, §3.1), PPTS (Alg. 2, §3.2),
//! Tree-PTS (App. B.2) and Tree-PPTS (Alg. 6, §3.3).
//!
//! Every buffer is split into *pseudo-buffers*, one per destination
//! (virtual output queuing); a pseudo-buffer is **bad** when it holds two
//! or more packets. Tree-PPTS serves the destinations root-most first:
//! each activates the nodes on the paths from its bad pseudo-buffers
//! toward it, except nodes that a destination served earlier already
//! claimed, and every activated node forwards one packet of its
//! pseudo-buffer for that destination. Routes of distinct destinations
//! are then disjoint (Lemma B.1), so each node forwards at most one
//! packet. The paper's other three algorithms are special cases:
//!
//! * on a path, the low-antichain of bad pseudo-buffers is the left-most
//!   one and root-most means right-most, so Tree-PPTS is PPTS ([`Ppts`]);
//! * with a single destination `w` it is Tree-PTS
//!   ([`TreePts`](crate::TreePts)), and on a path PTS ([`Pts`]): the
//!   left-most bad buffer activates every buffer up to `w`.
//!
//! [`PeakToSink`] is the one implementation, generic over the topology
//! ([`Sink`]: [`Path`] or [`DirectedTree`]) and the destinations it serves
//! ([`One`] or [`Every`]). Each round it brings its class table of
//! pseudo-buffers up to date (only the buffers that changed since the
//! last round are re-read), sorts the bad ones by `(depth of the
//! destination, destination, node)`, and walks from each toward its
//! destination, stopping at the first claimed node: every node past it is
//! claimed too.
//!
//! * Prop. 3.1 (PTS) and Prop. B.3 (Tree-PTS): max occupancy ≤ **2 + σ**
//!   when all packets share one destination.
//! * Prop. 3.2 (PPTS): ≤ **1 + d + σ** for `d` destinations.
//! * Prop. 3.5 (Tree-PPTS): ≤ **1 + d′ + σ**, where d′ is the maximum
//!   number of destinations on any leaf-root path.

use std::marker::PhantomData;

use aqt_model::{
    DirectedTree, ForwardingPlan, NetworkState, NodeId, Path, Protocol, Round, StoredPacket,
    Topology,
};

use crate::classes::ClassTable;

/// Priority used to pick the packet forwarded out of an activated
/// pseudo-buffer. Occupancy bounds are priority-independent; the paper
/// assumes LIFO "for concreteness".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PseudoPriority {
    /// Most recently arrived packet first (the paper's convention).
    #[default]
    Lifo,
    /// Earliest arrived packet first.
    Fifo,
}

mod sealed {
    pub trait Sealed {}
}

/// A topology on which every packet flows toward a sink: each node has at
/// most one outgoing link, [`Topology::out_neighbor`]`(v, 0)`.
///
/// Sealed: [`Path`] and [`DirectedTree`] are the only sinks.
pub trait Sink: Topology + sealed::Sealed {
    /// The protocol-name prefix: `""` on a path, `"Tree"` on a tree.
    const PREFIX: &'static str;

    /// The number of links from `v` to the sink. A destination's packets
    /// sit only at deeper nodes, so serving destinations in ascending
    /// depth serves them root-most first.
    fn depth(&self, v: NodeId) -> usize;
}

impl sealed::Sealed for Path {}

impl Sink for Path {
    const PREFIX: &'static str = "";

    fn depth(&self, v: NodeId) -> usize {
        self.node_count() - 1 - v.index()
    }
}

impl sealed::Sealed for DirectedTree {}

impl Sink for DirectedTree {
    const PREFIX: &'static str = "Tree";

    fn depth(&self, v: NodeId) -> usize {
        DirectedTree::depth(self, v) as usize
    }
}

/// The destinations a [`PeakToSink`] planner serves.
///
/// Sealed: [`One`] and [`Every`] are the only choices.
pub trait Destinations: sealed::Sealed {
    /// The single destination served, or `None` when any node may be one.
    fn only(&self) -> Option<NodeId>;
}

/// One destination `w` (PTS, Tree-PTS): only packets destined `w` count
/// toward a bad buffer, and only they are forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct One(NodeId);

impl sealed::Sealed for One {}

impl Destinations for One {
    fn only(&self) -> Option<NodeId> {
        Some(self.0)
    }
}

/// Every node is a potential destination (PPTS, Tree-PPTS): the planner
/// needs no advance knowledge of the destination set `W` (§3.2) and
/// discovers it from the buffered packets each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Every;

impl sealed::Sealed for Every {}

impl Destinations for Every {
    fn only(&self) -> Option<NodeId> {
        None
    }
}

/// The peak-to-sink planner over topology `T` for destinations `D`; use
/// it as [`Pts`], [`Ppts`], [`TreePts`](crate::TreePts) or
/// [`TreePpts`](crate::TreePpts).
#[derive(Debug, Clone)]
pub struct PeakToSink<T, D> {
    dests: D,
    priority: PseudoPriority,
    eager: bool,
    /// The class table, kept across rounds, and per-round scratch.
    scratch: Scratch,
    sink: PhantomData<fn(&T)>,
}

/// The class table and the scratch one round of planning needs, reused
/// across rounds.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Every node's pseudo-buffers, keyed by destination.
    classes: ClassTable,
    /// `(depth(w), w, node)` of every bad pseudo-buffer.
    bad: Vec<(usize, usize, usize)>,
    /// Whether some destination's walk has activated each node.
    claimed: Vec<bool>,
    /// The nodes the walks sent from: fewer than `claimed` marks, since
    /// a walk crosses nodes that hold nothing for its destination.
    sent: Vec<usize>,
}

/// The PTS protocol for a fixed destination `w` on a path (Alg. 1).
///
/// Every round, the left-most *bad* buffer (two or more packets for `w`)
/// activates itself and every buffer to its right up to `w`; all
/// activated non-empty buffers forward one packet simultaneously.
///
/// # Preconditions
///
/// Prop. 3.1 assumes that every injected packet is destined for `w`. PTS
/// counts only packets destined `w` toward a bad buffer and never
/// forwards packets with other destinations. Use [`Ppts`] for
/// multi-destination traffic.
///
/// # Faithfulness note
///
/// Exactly as in the paper, PTS forwards **nothing** when no buffer is bad:
/// the theorems bound space, not latency. The [`Pts::eager`] variant
/// additionally drains quiet configurations (every non-empty buffer
/// forwards when no buffer is bad); this is an extension evaluated in
/// ablation A2 — it preserves the space bound empirically because
/// forwarding every buffer can only shift, never stack, packets.
///
/// # Examples
///
/// ```
/// use aqt_core::Pts;
/// use aqt_model::{Injection, NodeId, Path, Pattern, Simulation};
///
/// let topo = Path::new(8);
/// let pattern = Pattern::from_injections(vec![
///     Injection::new(0, 0, 7),
///     Injection::new(0, 3, 7),
///     Injection::new(0, 3, 7),
/// ]);
/// let mut sim = Simulation::new(topo, Pts::new(NodeId::new(7)), &pattern)?;
/// sim.run(10)?;
/// // σ = 2 burst ⇒ occupancy stays ≤ 2 + 2 (Prop. 3.1); here it is 2.
/// assert!(sim.metrics().max_occupancy <= 4);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
pub type Pts = PeakToSink<Path, One>;

/// The PPTS protocol on a path (Alg. 2).
///
/// Destinations are processed right to left; for each destination `w_k`,
/// if a bad `k`-pseudo-buffer exists to the left of everything activated
/// so far, the left-most one opens an activation interval running right
/// toward `w_k` (capped where previous intervals begin).
///
/// # Examples
///
/// ```
/// use aqt_core::Ppts;
/// use aqt_model::{Injection, Path, Pattern, Simulation};
///
/// // Two destinations, one σ=1 burst each.
/// let pattern = Pattern::from_injections(vec![
///     Injection::new(0, 0, 4),
///     Injection::new(0, 0, 4),
///     Injection::new(0, 1, 7),
///     Injection::new(0, 1, 7),
/// ]);
/// let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern)?;
/// sim.run(12)?;
/// // d = 2, σ ≤ 2 ⇒ occupancy ≤ 1 + 2 + 2.
/// assert!(sim.metrics().max_occupancy <= 5);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
pub type Ppts = PeakToSink<Path, Every>;

impl<T, D> PeakToSink<T, D> {
    fn serving(dests: D) -> Self {
        PeakToSink {
            dests,
            priority: PseudoPriority::Lifo,
            eager: false,
            scratch: Scratch::default(),
            sink: PhantomData,
        }
    }
}

impl<T: Sink> PeakToSink<T, One> {
    /// Peak-to-sink forwarding toward destination `w` (typically the
    /// path's last node or the tree's root), faithful to Alg. 1 on a path
    /// and to Prop. B.3's Tree-PTS on a tree.
    pub fn new(dest: NodeId) -> Self {
        PeakToSink::serving(One(dest))
    }

    /// The destination this instance serves.
    pub fn dest(&self) -> NodeId {
        self.dests.0
    }
}

impl Pts {
    /// The eager extension: when no buffer is bad, every non-empty buffer
    /// forwards (finite latency on quiet configurations).
    pub fn eager(dest: NodeId) -> Self {
        PeakToSink {
            eager: true,
            ..Pts::new(dest)
        }
    }
}

impl<T: Sink> PeakToSink<T, Every> {
    /// Multi-destination forwarding faithful to Alg. 2 on a path and
    /// Alg. 6 on a tree (LIFO pseudo-buffers).
    pub fn new() -> Self {
        PeakToSink::serving(Every)
    }
}

impl<T: Sink> Default for PeakToSink<T, Every> {
    fn default() -> Self {
        Self::new()
    }
}

impl Ppts {
    /// Sets the intra-pseudo-buffer priority (builder-style).
    pub fn priority(mut self, priority: PseudoPriority) -> Self {
        self.priority = priority;
        self
    }

    /// The eager extension (ablation A2): after the Algorithm 2 activation,
    /// every node with buffered packets that is not already sending
    /// forwards one packet (its globally most recent). Capacity is
    /// respected because each node sends at most one packet over its
    /// unique outgoing link.
    pub fn eager(mut self) -> Self {
        self.eager = true;
        self
    }
}

impl<D> PeakToSink<Path, D> {
    /// Whether the eager extension is enabled.
    pub fn is_eager(&self) -> bool {
        self.eager
    }
}

impl<T: Sink, D: Destinations> Protocol<T> for PeakToSink<T, D> {
    fn name(&self) -> String {
        let eager = if self.eager { "-eager" } else { "" };
        match self.dests.only() {
            Some(w) => format!("{}PTS{eager}(w={w})", T::PREFIX),
            None => {
                let fifo = match self.priority {
                    PseudoPriority::Lifo => "",
                    PseudoPriority::Fifo => "-fifo",
                };
                format!("{}PPTS{fifo}{eager}", T::PREFIX)
            }
        }
    }

    fn plan(&mut self, round: Round, topo: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
        let Scratch {
            classes,
            bad,
            claimed,
            sent,
        } = &mut self.scratch;
        let only = self.dests.only().map(NodeId::index);
        let serves = |w: usize| only.is_none_or(|o| o == w);
        // A packet's pseudo-buffer is its destination.
        classes.sync(round, state, |_, w| (0, w));
        bad.clear();
        for v in state.active_nodes().map(NodeId::index) {
            if !classes.has_bad(v, 0) {
                continue;
            }
            for (class, count) in classes.node(v) {
                let w = class.column();
                if count >= 2 && serves(w) {
                    bad.push((topo.depth(NodeId::new(w)), w, v));
                }
            }
        }
        // Root-most destinations first. Destinations of equal depth are
        // incomparable, so their routes are disjoint and their order does
        // not matter.
        bad.sort_unstable();
        claimed.clear();
        claimed.resize(state.node_count(), false);
        sent.clear();
        for &(_, w, mut at) in bad.iter() {
            while at != w && !claimed[at] {
                claimed[at] = true;
                let v = NodeId::new(at);
                // The table finds the LIFO top; a FIFO head takes a scan.
                let packet = match self.priority {
                    PseudoPriority::Lifo => classes.get(state, at, (0, w)).map(StoredPacket::id),
                    PseudoPriority::Fifo => state
                        .fifo_head_where(v, |p| p.dest().index() == w)
                        .map(StoredPacket::id),
                };
                if let Some(packet) = packet {
                    plan.send(v, packet);
                    sent.push(at);
                }
                let Some(next) = topo.out_neighbor(v, 0) else {
                    break;
                };
                at = next.index();
            }
        }
        // PTS-eager drains w's packets only when nothing is bad; PPTS-eager
        // sends one packet from every node that is not already sending.
        if self.eager && (only.is_none() || bad.is_empty()) {
            // The senders, once sorted, and the active set both ascend, so
            // one merge skips every node that already sends.
            sent.sort_unstable();
            let mut skip = sent.iter().peekable();
            for v in state.active_nodes() {
                while skip.next_if(|&&u| u < v.index()).is_some() {}
                if skip.peek() == Some(&&v.index()) {
                    continue;
                }
                let pick = match self.priority {
                    PseudoPriority::Lifo => state.lifo_top_where(v, |p| serves(p.dest().index())),
                    PseudoPriority::Fifo => state.fifo_head_where(v, |p| serves(p.dest().index())),
                };
                if let Some(sp) = pick {
                    plan.send(v, sp.id());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{Injection, Pattern, Simulation};

    fn run_pts(n: usize, pattern: Pattern, rounds: u64, eager: bool) -> aqt_model::RunMetrics {
        let dest = NodeId::new(n - 1);
        let protocol = if eager {
            Pts::eager(dest)
        } else {
            Pts::new(dest)
        };
        let mut sim = Simulation::new(Path::new(n), protocol, &pattern).unwrap();
        sim.run(rounds).unwrap();
        sim.metrics().clone()
    }

    #[test]
    fn quiet_configuration_does_not_forward() {
        // One packet, never a bad buffer: faithful PTS leaves it parked.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let m = run_pts(4, p, 10, false);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.max_occupancy, 1);
    }

    #[test]
    fn eager_variant_delivers_quiet_packets() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let m = run_pts(4, p, 10, true);
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn burst_respects_two_plus_sigma() {
        // Burst of 5 at node 0 toward 7: σ = 4 at ρ = 1 ⇒ bound 6.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 7); 5]);
        let m = run_pts(8, p, 30, false);
        assert!(m.max_occupancy <= 6);
        // The burst site itself holds 5 initially.
        assert_eq!(m.max_occupancy, 5);
    }

    #[test]
    fn bad_buffer_triggers_downstream_wave() {
        // Two packets at node 1: bad ⇒ [1..w) forwards; the packet at node 3
        // moves too even though node 3 is not bad.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 5),
            Injection::new(0, 1, 5),
            Injection::new(0, 3, 5),
        ]);
        let dest = NodeId::new(5);
        let mut sim = Simulation::new(Path::new(6), Pts::new(dest), &p).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        assert_eq!(sim.state().occupancy(NodeId::new(2)), 1);
        assert_eq!(sim.state().occupancy(NodeId::new(3)), 0);
        assert_eq!(sim.state().occupancy(NodeId::new(4)), 1);
    }

    #[test]
    fn left_of_bad_buffer_stays_put() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 5),
            Injection::new(0, 2, 5),
            Injection::new(0, 2, 5),
        ]);
        let mut sim = Simulation::new(Path::new(6), Pts::new(NodeId::new(5)), &p).unwrap();
        sim.step().unwrap();
        // Node 0 (left of left-most bad buffer 2) must not forward.
        assert_eq!(sim.state().occupancy(NodeId::new(0)), 1);
    }

    #[test]
    fn sustained_rate_one_traffic_stays_small() {
        // 40 rounds of 1 packet/round from node 0 to node 7 (ρ = 1, σ = 0).
        let p: Pattern = (0..40).map(|t| Injection::new(t, 0, 7)).collect();
        let m = run_pts(8, p, 60, false);
        assert!(
            m.max_occupancy <= 2,
            "Prop 3.1 bound 2+0 violated: {}",
            m.max_occupancy
        );
        assert!(m.delivered > 0);
    }

    #[test]
    fn name_reflects_variant() {
        assert!(Pts::new(NodeId::new(3)).name().starts_with("PTS(w="));
        assert!(Pts::eager(NodeId::new(3)).name().starts_with("PTS-eager"));
        assert!(Pts::eager(NodeId::new(3)).is_eager());
        assert_eq!(Pts::new(NodeId::new(3)).dest(), NodeId::new(3));
    }

    fn run(n: usize, pattern: Pattern, rounds: u64, ppts: Ppts) -> aqt_model::RunMetrics {
        let mut sim = Simulation::new(Path::new(n), ppts, &pattern).unwrap();
        sim.run(rounds).unwrap();
        sim.metrics().clone()
    }

    #[test]
    fn single_destination_reduces_to_pts_behaviour() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 7); 4]);
        let m = run(8, p, 30, Ppts::new());
        // d = 1, σ = 3 ⇒ 1 + 1 + 3 = 5.
        assert!(m.max_occupancy <= 5);
    }

    #[test]
    fn disjoint_intervals_one_send_per_node() {
        // Bad pseudo-buffers for two destinations at the same node: only
        // one may forward (two sends from one node are a LinkOverload, so
        // a step that succeeds proves Lemma B.1 held).
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3),
            Injection::new(0, 0, 3),
            Injection::new(0, 0, 6),
            Injection::new(0, 0, 6),
        ]);
        let mut sim = Simulation::new(Path::new(7), Ppts::new(), &p).unwrap();
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.forwarded, 1, "node 0 forwards exactly once");
    }

    #[test]
    fn rightmost_destination_claims_first() {
        // Bad buffer for far dest at node 2, bad buffer for near dest at
        // node 0: far interval [2, …] is claimed first, near interval may
        // then claim [0, 1].
        let p = Pattern::from_injections(vec![
            Injection::new(0, 2, 6),
            Injection::new(0, 2, 6),
            Injection::new(0, 0, 4),
            Injection::new(0, 0, 4),
        ]);
        let mut sim = Simulation::new(Path::new(7), Ppts::new(), &p).unwrap();
        let outcome = sim.step().unwrap();
        // Node 2 forwards (toward 6); node 0 forwards (toward 4): the near
        // interval is capped at node 1 = i_k(far) − 1.
        assert_eq!(outcome.forwarded, 2);
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        assert_eq!(sim.state().occupancy(NodeId::new(3)), 1);
    }

    #[test]
    fn near_bad_buffer_blocked_by_far_claim_waits() {
        // Far-destination interval starts at node 0; the near-destination
        // bad pseudo-buffer also at node 0 cannot activate this round.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 6),
            Injection::new(0, 0, 6),
            Injection::new(0, 0, 3),
            Injection::new(0, 0, 3),
        ]);
        let mut sim = Simulation::new(Path::new(7), Ppts::new(), &p).unwrap();
        sim.step().unwrap();
        // Exactly one packet left node 0.
        assert_eq!(sim.state().occupancy(NodeId::new(0)), 3);
    }

    #[test]
    fn round_robin_traffic_respects_one_plus_d_plus_sigma() {
        // d = 3 destinations, paced rate-1 traffic (σ ≤ 1).
        let dests = [3usize, 5, 7];
        let injections: Vec<Injection> = (0..60)
            .map(|t| Injection::new(t, 0, dests[(t % 3) as usize]))
            .collect();
        let m = run(8, Pattern::from_injections(injections), 80, Ppts::new());
        assert!(
            m.max_occupancy <= 1 + 3 + 1,
            "occupancy {} exceeds 1+d+σ",
            m.max_occupancy
        );
    }

    #[test]
    fn fifo_priority_forwards_oldest() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 0, 3)]);
        let mut sim =
            Simulation::new(Path::new(4), Ppts::new().priority(PseudoPriority::Fifo), &p).unwrap();
        sim.step().unwrap();
        // The survivor at node 0 must be the *younger* packet (id 1).
        let left = sim.state().buffer(NodeId::new(0));
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].id(), aqt_model::PacketId::new(1));
    }

    #[test]
    fn eager_variant_drains_and_preserves_bound() {
        let dests = [3usize, 5, 7];
        let injections: Vec<Injection> = (0..30)
            .map(|t| Injection::new(t, 0, dests[(t % 3) as usize]))
            .collect();
        let p = Pattern::from_injections(injections);
        let mut sim = Simulation::new(Path::new(8), Ppts::new().eager(), &p).unwrap();
        sim.run_past_horizon(20).unwrap();
        assert!(sim.is_drained(), "eager PPTS should deliver everything");
        assert!(sim.metrics().max_occupancy <= 1 + 3 + 1);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Ppts::new().name(), "PPTS");
        assert_eq!(Ppts::new().eager().name(), "PPTS-eager");
        assert_eq!(
            Ppts::new().priority(PseudoPriority::Fifo).name(),
            "PPTS-fifo"
        );
        assert!(Ppts::new().eager().is_eager());
    }
}
