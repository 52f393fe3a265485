//! Greedy baselines: the classical AQT scheduling policies.
//!
//! Classical Adversarial Queuing Theory (Borodin et al. [6], Bhattacharjee
//! et al. [5]) studies *greedy* protocols: whenever a buffer is non-empty,
//! it forwards some packet; a **scheduling policy** picks which one. The
//! paper's introduction positions its non-greedy algorithms against exactly
//! these policies, so they serve as the comparison baselines in every
//! experiment. On a path with `d` destinations and ρ > 1/2, *any* protocol
//! needs Ω(d) buffers ([17]) — greedy ones included — but greedy policies
//! generally have no matching `O(d + σ)` guarantee.

use aqt_model::{
    ForwardingPlan, NetworkState, NodeId, PlanWindow, Protocol, Round, StoredPacket, Topology,
};
use serde::{Deserialize, Serialize};

/// The packet-selection rule of a greedy protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GreedyPolicy {
    /// First-In-First-Out: forward the packet that arrived at this buffer
    /// earliest (unstable at arbitrarily low rates in AQT, see \[5\]).
    Fifo,
    /// Last-In-First-Out: forward the most recent arrival.
    Lifo,
    /// Longest-In-System: forward the packet with the earliest injection
    /// round (universally stable in classical AQT).
    LongestInSystem,
    /// Shortest-In-System: forward the most recently injected packet.
    ShortestInSystem,
    /// Nearest-To-Go: forward the packet with the fewest remaining hops.
    NearestToGo,
    /// Furthest-To-Go: forward the packet with the most remaining hops.
    FurthestToGo,
}

impl GreedyPolicy {
    /// All implemented policies, for sweeps.
    pub const ALL: [GreedyPolicy; 6] = [
        GreedyPolicy::Fifo,
        GreedyPolicy::Lifo,
        GreedyPolicy::LongestInSystem,
        GreedyPolicy::ShortestInSystem,
        GreedyPolicy::NearestToGo,
        GreedyPolicy::FurthestToGo,
    ];

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            GreedyPolicy::Fifo => "FIFO",
            GreedyPolicy::Lifo => "LIFO",
            GreedyPolicy::LongestInSystem => "LIS",
            GreedyPolicy::ShortestInSystem => "SIS",
            GreedyPolicy::NearestToGo => "NTG",
            GreedyPolicy::FurthestToGo => "FTG",
        }
    }

    /// Picks this policy's preferred packet among `candidates` stored at
    /// `v` (selection is total and deterministic: every key ends in the
    /// globally-unique `seq`). The shared selection rule of [`Greedy`] and
    /// [`DagGreedy`](crate::DagGreedy) — the latter applies it once per
    /// outgoing link.
    pub fn select_from<'a, T, I>(
        self,
        topo: &T,
        v: NodeId,
        candidates: I,
    ) -> Option<&'a StoredPacket>
    where
        T: Topology,
        I: IntoIterator<Item = &'a StoredPacket>,
    {
        let iter = candidates.into_iter();
        match self {
            GreedyPolicy::Fifo => iter.min_by_key(|p| p.seq()),
            GreedyPolicy::Lifo => iter.max_by_key(|p| p.seq()),
            GreedyPolicy::LongestInSystem => {
                iter.min_by_key(|p| (p.packet().injected_at(), p.seq()))
            }
            GreedyPolicy::ShortestInSystem => {
                iter.max_by_key(|p| (p.packet().injected_at(), p.seq()))
            }
            GreedyPolicy::NearestToGo => {
                iter.min_by_key(|p| (topo.route_len(v, p.dest()).unwrap_or(usize::MAX), p.seq()))
            }
            GreedyPolicy::FurthestToGo => {
                iter.max_by_key(|p| (topo.route_len(v, p.dest()).unwrap_or(0), p.seq()))
            }
        }
    }
}

/// A greedy protocol: every non-empty buffer forwards one packet per round,
/// chosen by the configured [`GreedyPolicy`]. Works on any [`Topology`].
///
/// # Examples
///
/// ```
/// use aqt_core::{Greedy, GreedyPolicy};
/// use aqt_model::{Injection, Path, Pattern, Simulation};
///
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
/// let mut sim = Simulation::new(
///     Path::new(4),
///     Greedy::new(GreedyPolicy::LongestInSystem),
///     &pattern,
/// )?;
/// sim.run(5)?;
/// assert_eq!(sim.metrics().delivered, 1);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Greedy {
    policy: GreedyPolicy,
}

impl Greedy {
    /// A greedy protocol with the given selection policy.
    pub fn new(policy: GreedyPolicy) -> Self {
        Greedy { policy }
    }

    /// The configured policy.
    pub fn policy(&self) -> GreedyPolicy {
        self.policy
    }

    fn select<'a, T: Topology>(
        &self,
        topo: &T,
        v: NodeId,
        buffer: &'a [StoredPacket],
    ) -> Option<&'a StoredPacket> {
        // Ties broken by seq for determinism.
        self.policy.select_from(topo, v, buffer)
    }
}

impl<T: Topology> Protocol<T> for Greedy {
    fn name(&self) -> String {
        format!("Greedy-{}", self.policy.label())
    }

    fn plan(&mut self, _round: Round, topo: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
        // Empty buffers never forward, so walking the active set (exact at
        // plan time) visits the same nodes a dense scan would send from,
        // in the same ascending order — O(live nodes) per round.
        for v in state.active_nodes() {
            let buffer = state.buffer(v);
            if let Some(sp) = self.select(topo, v, buffer) {
                plan.send(v, sp.id());
            }
        }
    }

    // Selection only reads the local buffer, so sharded planning is just
    // the same loop over the window's active nodes.
    fn supports_range_planning(&self) -> bool {
        true
    }

    fn plan_range(&self, _round: Round, topo: &T, state: &NetworkState, w: &mut PlanWindow<'_>) {
        for v in state.active_nodes_in(w.node_range()) {
            if let Some(sp) = self.select(topo, v, state.buffer(v)) {
                w.send(v, sp.id());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{DirectedTree, Injection, Path, Pattern, Simulation};

    #[test]
    fn greedy_always_forwards_nonempty_buffers() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3),
            Injection::new(0, 1, 3),
            Injection::new(0, 2, 3),
        ]);
        let mut sim = Simulation::new(Path::new(4), Greedy::new(GreedyPolicy::Fifo), &p).unwrap();
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.forwarded, 3);
    }

    #[test]
    fn lis_prefers_oldest_injection() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 3), // id 0, oldest
            Injection::new(1, 1, 3), // id 1 — joins node 1…
        ]);
        // After round 0, packet 0 moves 0→1; round 1 injects packet 1 at
        // node 1. LIS forwards packet 0 (injected earlier).
        let mut sim =
            Simulation::new(Path::new(4), Greedy::new(GreedyPolicy::LongestInSystem), &p).unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        let at2 = sim.state().buffer(NodeId::new(2));
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].id(), aqt_model::PacketId::new(0));
    }

    #[test]
    fn ntg_and_ftg_disagree_predictably() {
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 1), // 1 hop to go
            Injection::new(0, 0, 5), // 5 hops to go
        ]);
        let run = |policy| {
            let mut sim = Simulation::new(Path::new(6), Greedy::new(policy), &p.clone()).unwrap();
            sim.step().unwrap();
            // Which packet is still at node 0?
            sim.state().buffer(NodeId::new(0))[0].id()
        };
        // NTG sends the 1-hop packet (id 0); FTG sends the 5-hop (id 1).
        assert_eq!(run(GreedyPolicy::NearestToGo), aqt_model::PacketId::new(1));
        assert_eq!(run(GreedyPolicy::FurthestToGo), aqt_model::PacketId::new(0));
    }

    #[test]
    fn all_policies_drain_simple_traffic() {
        let p: Pattern = (0..10u64).map(|t| Injection::new(t, 0, 4)).collect();
        for policy in GreedyPolicy::ALL {
            let mut sim = Simulation::new(Path::new(5), Greedy::new(policy), &p).unwrap();
            sim.run_past_horizon(10).unwrap();
            assert!(sim.is_drained(), "{} failed to drain", policy.label());
        }
    }

    #[test]
    fn works_on_trees() {
        let t = DirectedTree::full_binary(3);
        let root = t.root().index();
        let leaves: Vec<usize> = (0..t.node_count())
            .filter(|&v| t.is_leaf(NodeId::new(v)))
            .collect();
        let injections: Vec<Injection> = leaves
            .iter()
            .map(|&leaf| Injection::new(0, leaf, root))
            .collect();
        let p = Pattern::from_injections(injections);
        let mut sim = Simulation::new(t, Greedy::new(GreedyPolicy::Fifo), &p).unwrap();
        sim.run_past_horizon(10).unwrap();
        assert!(sim.is_drained());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GreedyPolicy::Fifo.label(), "FIFO");
        assert_eq!(GreedyPolicy::ALL.len(), 6);
        let g: Greedy = Greedy::new(GreedyPolicy::NearestToGo);
        assert_eq!(Protocol::<Path>::name(&g), "Greedy-NTG");
        assert_eq!(g.policy(), GreedyPolicy::NearestToGo);
    }
}
