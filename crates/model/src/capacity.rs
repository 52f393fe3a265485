//! Finite buffer capacities and drop policies.
//!
//! The paper's theorems bound how much buffer space a protocol *needs*;
//! this module supplies the other half of the experiment: what happens
//! when a buffer has **less**. A [`CapacityConfig`] caps every buffer
//! (uniformly or per node). Whenever the engine would place a packet into
//! a full buffer, its [`DropPolicyKind`] picks the loser: either the
//! incoming packet is rejected, or a stored packet is evicted to make
//! room. Either way exactly one packet is lost and the loss is
//! recorded in [`RunMetrics`](crate::RunMetrics) (totals, per-node counts,
//! first-drop round) and in the cumulative per-node counters of
//! [`NetworkState`](crate::NetworkState).
//!
//! This turns every occupancy theorem into a falsifiable *threshold*
//! statement: running with capacity ≥ the bound must record zero drops,
//! and the smallest zero-drop capacity (searchable with
//! `aqt_analysis::capacity_threshold`) is exactly the unbounded run's peak
//! occupancy — comparable against the closed-form bound.
//!
//! Capacity is enforced at every placement into a buffer: immediate
//! injection, acceptance of staged packets at phase boundaries, and
//! forwarding arrivals. Packets forwarded *into their destination* leave
//! the network instantly and are never subject to capacity. Staged
//! packets (batched injection mode) are governed by [`StagingMode`]:
//! exempt (default; overflow resolves at acceptance) or counted against
//! the source buffer (overflowing wishes are tail-dropped at stage time).
//!
//! All capacity decisions are applied through
//! [`NetworkState::place`](crate::NetworkState::place) /
//! [`NetworkState::remove`](crate::NetworkState::remove), so evictions and rejections maintain the active
//! set (occupancy bitset, its summary and the emptied list) incrementally
//! — a drop that empties a buffer deactivates its node with no extra
//! bookkeeping here.
//!
//! # Examples
//!
//! ```
//! use aqt_model::{
//!     CapacityConfig, DropPolicyKind, Injection, NodeId, Path, Pattern, Simulation,
//! };
//! # use aqt_model::{ForwardingPlan, NetworkState, Protocol, Round, Topology};
//! # struct Drain;
//! # impl<T: Topology> Protocol<T> for Drain {
//! #     fn name(&self) -> String { "drain".into() }
//! #     fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
//! #         for v in 0..state.node_count() {
//! #             let v = NodeId::new(v);
//! #             if let Some(top) = state.lifo_top_where(v, |_| true) {
//! #                 plan.send(v, top.id());
//! #             }
//! #         }
//! #     }
//! # }
//!
//! // Three packets burst into a buffer that holds two: one is dropped.
//! let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
//! let mut sim = Simulation::new(Path::new(4), Drain, &pattern)?
//!     .with_capacity(CapacityConfig::uniform(2), DropPolicyKind::Tail);
//! sim.run(6)?;
//! assert_eq!(sim.metrics().dropped, 1);
//! assert_eq!(sim.metrics().delivered, 2);
//! # Ok::<(), aqt_model::ModelError>(())
//! ```

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, PacketId};
use crate::packet::{Packet, StoredPacket};

/// Buffer limits: one shared cap or one per node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Limits {
    /// Every buffer holds at most this many packets.
    Uniform {
        /// The shared cap.
        limit: usize,
    },
    /// `limits[v]` caps node `v`'s buffer.
    PerNode {
        /// One cap per node.
        limits: Vec<usize>,
    },
}

// Deserialization re-asserts the constructor invariants, so a replayed
// artifact cannot build a config the rest of the code assumes impossible
// (capacity 0, an empty per-node list). Real serde has no attribute for
// such checks, so this impl stays hand-written.
// #[allow(aqt::no-hand-serde)] re-checks the constructor invariants
impl Deserialize for Limits {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{field, object, tag, unknown_tag};
        let obj = object(v, "limits")?;
        match tag(obj, "kind")? {
            "uniform" => {
                let limit: usize = field(obj, "limit")?;
                if limit == 0 {
                    return Err(serde::Error::custom("buffer capacity must be at least 1"));
                }
                Ok(Limits::Uniform { limit })
            }
            "per_node" => {
                let limits: Vec<usize> = field(obj, "limits")?;
                if limits.is_empty() {
                    return Err(serde::Error::custom("need at least one buffer limit"));
                }
                if limits.contains(&0) {
                    return Err(serde::Error::custom(
                        "every buffer capacity must be at least 1",
                    ));
                }
                Ok(Limits::PerNode { limits })
            }
            other => Err(unknown_tag("kind", other, &["uniform", "per_node"])),
        }
    }
}

/// Whether staged packets (batched injection mode, the ℓ-reduction) count
/// against their source buffer's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StagingMode {
    /// The staging area is spillover space: only accepted packets occupy
    /// buffer capacity, and overflow is resolved (through the policy) at
    /// acceptance. This measures the Thm. 4.1 quantity — accepted
    /// occupancy — under pressure.
    #[default]
    Exempt,
    /// Staged packets already occupy their source buffer: a wish that
    /// would push `occupancy + staged` past the limit is tail-dropped at
    /// stage time (staged packets are not part of the observable
    /// configuration, so the policy gets no say), and acceptance then
    /// never overflows.
    Counted,
}

/// Buffer capacity limits for a capacity-bounded run.
///
/// Construct with [`uniform`](CapacityConfig::uniform) or
/// [`per_node`](CapacityConfig::per_node), optionally selecting a
/// [`StagingMode`] with [`staging`](CapacityConfig::staging), and hand the
/// config to [`Simulation::with_capacity`](crate::Simulation::with_capacity).
///
/// # Examples
///
/// ```
/// use aqt_model::{CapacityConfig, NodeId, StagingMode};
///
/// let uniform = CapacityConfig::uniform(4);
/// assert_eq!(uniform.limit(NodeId::new(17)), 4);
///
/// let skewed = CapacityConfig::per_node(vec![1, 8]).staging(StagingMode::Counted);
/// assert_eq!(skewed.limit(NodeId::new(1)), 8);
/// assert_eq!(skewed.staging_mode(), StagingMode::Counted);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityConfig {
    limits: Limits,
    staging: StagingMode,
}

impl CapacityConfig {
    /// Every buffer holds at most `limit` packets.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`: a zero-capacity buffer could never even
    /// hold a packet in transit, so every route would be dead.
    pub fn uniform(limit: usize) -> Self {
        assert!(limit >= 1, "buffer capacity must be at least 1");
        CapacityConfig {
            limits: Limits::Uniform { limit },
            staging: StagingMode::default(),
        }
    }

    /// Node `v` holds at most `limits[v]` packets; the vector length must
    /// equal the topology's node count (checked when the simulation is
    /// built).
    ///
    /// # Panics
    ///
    /// Panics if `limits` is empty or any entry is 0.
    pub fn per_node(limits: Vec<usize>) -> Self {
        assert!(!limits.is_empty(), "need at least one buffer limit");
        assert!(
            limits.iter().all(|&l| l >= 1),
            "every buffer capacity must be at least 1"
        );
        CapacityConfig {
            limits: Limits::PerNode { limits },
            staging: StagingMode::default(),
        }
    }

    /// Selects how staged packets interact with capacity (builder-style).
    pub fn staging(mut self, mode: StagingMode) -> Self {
        self.staging = mode;
        self
    }

    /// The staging mode.
    pub fn staging_mode(&self) -> StagingMode {
        self.staging
    }

    /// The capacity of node `v`'s buffer.
    pub fn limit(&self, v: NodeId) -> usize {
        match &self.limits {
            Limits::Uniform { limit } => *limit,
            Limits::PerNode { limits } => limits[v.index()],
        }
    }

    /// The number of nodes a per-node config lists limits for; `None`
    /// for a uniform config, which fits every topology.
    pub fn node_count(&self) -> Option<usize> {
        match &self.limits {
            Limits::Uniform { .. } => None,
            Limits::PerNode { limits } => Some(limits.len()),
        }
    }

    /// Checks the config against a topology size (per-node vectors must
    /// cover every node exactly).
    pub(crate) fn assert_valid(&self, node_count: usize) {
        if let Some(len) = self.node_count() {
            assert_eq!(
                len, node_count,
                "per-node capacity vector must have one entry per node"
            );
        }
    }
}

/// Which packet a full buffer loses: the drop policy of a
/// capacity-bounded run, a closed set that scenarios store as data and
/// hand to [`Simulation::with_capacity`](crate::Simulation::with_capacity).
///
/// # Examples
///
/// ```
/// use aqt_model::DropPolicyKind;
///
/// assert_eq!(DropPolicyKind::Head.label(), "drop-head");
/// assert_eq!(DropPolicyKind::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropPolicyKind {
    /// Classic drop-tail: the incoming packet is rejected, the buffer
    /// keeps what it has. The baseline policy of router queues.
    Tail,
    /// Drop-head (drop-front): evict the FIFO head — the packet that has
    /// waited in this buffer longest — and admit the incoming one.
    /// Favors fresh traffic; the classic latency-bounding policy.
    Head,
    /// Drop the packet (stored or incoming) farthest from its destination
    /// — the work-conserving heuristic of the competitive-throughput
    /// literature: packets close to delivery embody the most sunk
    /// forwarding work. An unreachable destination is infinitely far, so
    /// a packet that can never arrive is evicted first.
    ///
    /// Ties between a stored packet and the incoming one favor dropping
    /// the incoming packet (less buffer churn); ties among stored packets
    /// evict the most recently placed (largest `seq`).
    Farthest,
    /// Drop the packet (stored or incoming) injected most recently —
    /// protects the oldest traffic, approximating longest-in-system
    /// priority under loss. Ties favor dropping the incoming packet; ties
    /// among stored packets evict the most recently placed.
    Newest,
}

impl DropPolicyKind {
    /// Every policy, for sweep matrices.
    pub const ALL: [DropPolicyKind; 4] = [
        DropPolicyKind::Tail,
        DropPolicyKind::Head,
        DropPolicyKind::Farthest,
        DropPolicyKind::Newest,
    ];

    /// Short display name for reports.
    pub fn label(self) -> &'static str {
        match self {
            DropPolicyKind::Tail => "drop-tail",
            DropPolicyKind::Head => "drop-head",
            DropPolicyKind::Farthest => "drop-farthest",
            DropPolicyKind::Newest => "drop-newest",
        }
    }

    /// Returns `self` unchanged: the kind is the policy. Kept so that
    /// callers written as `with_capacity(config, kind.build())` still
    /// compile.
    pub fn build(self) -> Self {
        self
    }

    /// The stored packet a full buffer evicts to admit `incoming`, or
    /// `None` when `incoming` itself is lost. An empty buffer, full with
    /// reservations under [`StagingMode::Counted`], has nothing to evict.
    ///
    /// `buffer` is in placement order (ascending `seq`: index 0 is the
    /// FIFO head). `distance` maps a destination to its route length from
    /// the full buffer, `usize::MAX` when unreachable.
    pub(crate) fn victim(
        self,
        buffer: &[StoredPacket],
        incoming: &Packet,
        distance: impl Fn(NodeId) -> usize,
    ) -> Option<PacketId> {
        match self {
            DropPolicyKind::Tail => None,
            DropPolicyKind::Head => buffer.first().map(StoredPacket::id),
            DropPolicyKind::Farthest => {
                let (far, _, id) = buffer
                    .iter()
                    .map(|sp| (distance(sp.dest()), sp.seq(), sp.id()))
                    .max()?;
                (far > distance(incoming.dest())).then_some(id)
            }
            DropPolicyKind::Newest => {
                let (newest, _, id) = buffer
                    .iter()
                    .map(|sp| (sp.packet().injected_at(), sp.seq(), sp.id()))
                    .max()?;
                (newest > incoming.injected_at()).then_some(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Round;

    fn stored(id: u64, injected: u64, dest: usize, seq: u64) -> StoredPacket {
        StoredPacket::new(
            Packet::new(
                PacketId::new(id),
                Round::new(injected),
                NodeId::new(0),
                NodeId::new(dest),
            ),
            None,
            seq,
        )
    }

    fn incoming(id: u64, injected: u64, dest: usize) -> Packet {
        Packet::new(
            PacketId::new(id),
            Round::new(injected),
            NodeId::new(0),
            NodeId::new(dest),
        )
    }

    /// Distance on a path from node 0: the destination index itself.
    fn on_path(dest: NodeId) -> usize {
        dest.index()
    }

    #[test]
    fn uniform_config_applies_everywhere() {
        let c = CapacityConfig::uniform(3);
        assert_eq!(c.limit(NodeId::new(0)), 3);
        assert_eq!(c.limit(NodeId::new(99)), 3);
        assert_eq!(c.staging_mode(), StagingMode::Exempt);
    }

    #[test]
    fn per_node_config_indexes() {
        let c = CapacityConfig::per_node(vec![1, 2, 3]);
        assert_eq!(c.limit(NodeId::new(2)), 3);
        c.assert_valid(3);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = CapacityConfig::uniform(0);
    }

    #[test]
    #[should_panic(expected = "one entry per node")]
    fn per_node_length_mismatch_rejected() {
        CapacityConfig::per_node(vec![1, 2]).assert_valid(3);
    }

    #[test]
    fn drop_tail_always_rejects_incoming() {
        let buf = vec![stored(1, 0, 3, 0)];
        let victim = DropPolicyKind::Tail.victim(&buf, &incoming(9, 9, 1), on_path);
        assert_eq!(victim, None);
    }

    #[test]
    fn drop_head_evicts_fifo_head() {
        let buf = vec![stored(1, 0, 3, 0), stored(2, 1, 3, 1)];
        let victim = DropPolicyKind::Head.victim(&buf, &incoming(9, 9, 3), on_path);
        assert_eq!(victim, Some(PacketId::new(1)));
    }

    #[test]
    fn drop_farthest_prefers_distant_stored_packet() {
        // Stored packet to node 7 is farther than incoming to node 2.
        let buf = vec![stored(1, 0, 7, 0), stored(2, 0, 3, 1)];
        let farthest = |dest| DropPolicyKind::Farthest.victim(&buf, &incoming(9, 1, dest), on_path);
        assert_eq!(farthest(2), Some(PacketId::new(1)));
        // Incoming to node 9 is farthest: incoming loses.
        assert_eq!(farthest(9), None);
    }

    #[test]
    fn drop_farthest_tie_rejects_incoming() {
        let buf = vec![stored(1, 0, 5, 0)];
        let victim = DropPolicyKind::Farthest.victim(&buf, &incoming(9, 1, 5), on_path);
        assert_eq!(victim, None);
    }

    #[test]
    fn stored_ties_evict_the_most_recently_placed() {
        // Same distance and injection round: the larger `seq` goes.
        let buf = vec![stored(1, 0, 5, 0), stored(2, 0, 5, 1)];
        let late = incoming(9, 1, 1);
        let farthest = DropPolicyKind::Farthest.victim(&buf, &late, on_path);
        assert_eq!(farthest, Some(PacketId::new(2)));
        let early = incoming(9, 0, 5);
        let buf = vec![stored(1, 3, 5, 0), stored(2, 3, 5, 1)];
        let newest = DropPolicyKind::Newest.victim(&buf, &early, on_path);
        assert_eq!(newest, Some(PacketId::new(2)));
    }

    #[test]
    fn drop_farthest_evicts_unreachable_destination_first() {
        use crate::topology::{Dag, Topology};
        // Regression: the engine's distance closure maps an unreachable
        // destination (`route_len` = `None`) to `usize::MAX`, not 0. With
        // 0, a packet that can never arrive looked *closest* and
        // `Farthest` would never evict it. Two components:
        // 0 → 1 and 2 → 3, so node 3 is unreachable from node 0.
        let dag = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let v = NodeId::new(0);
        // The engine's `admit` closure, verbatim semantics.
        let d = |dest: NodeId| dag.route_len(v, dest).unwrap_or(usize::MAX);
        assert!(dag.route_len(v, NodeId::new(3)).is_none());
        // Buffer holds a doomed packet (dest 3, unreachable) and a viable
        // one (dest 1); the incoming packet is viable. The doomed packet
        // must be the victim.
        let buf = vec![stored(1, 0, 3, 0), stored(2, 0, 1, 1)];
        assert_eq!(
            DropPolicyKind::Farthest.victim(&buf, &incoming(9, 1, 1), d),
            Some(PacketId::new(1))
        );
        // An unreachable incoming packet loses to a viable stored one.
        let viable = vec![stored(2, 0, 1, 0)];
        assert_eq!(
            DropPolicyKind::Farthest.victim(&viable, &incoming(9, 1, 3), d),
            None
        );
    }

    #[test]
    fn drop_newest_protects_old_traffic() {
        // A late-injected stored packet loses to an earlier incoming one
        // (a forwarded old packet arriving at a congested buffer).
        let buf = vec![stored(1, 0, 3, 0), stored(2, 8, 3, 1)];
        let newest = |at| DropPolicyKind::Newest.victim(&buf, &incoming(9, at, 3), on_path);
        assert_eq!(newest(4), Some(PacketId::new(2)));
        // Incoming is the newest: it is the victim (ties included).
        assert_eq!(newest(8), None);
    }

    #[test]
    fn an_empty_buffer_always_loses_the_incoming_packet() {
        for kind in DropPolicyKind::ALL {
            assert_eq!(
                kind.victim(&[], &incoming(9, 0, 3), on_path),
                None,
                "{kind:?}"
            );
        }
    }
}
