//! DAG-aware greedy protocols: one packet per outgoing *link* per round.
//!
//! The classical greedy baselines ([`Greedy`](crate::Greedy)) forward at
//! most one packet per node per round — correct and work-conserving on
//! single-out topologies, but on a DAG they leave bandwidth on the table:
//! a node with `k` outgoing links may legally forward `k` packets per
//! round, one per link. [`DagGreedy`] is the per-link generalization:
//! every round, every node partitions its buffer by next hop (the
//! [`StoredPacket::next_hop`](aqt_model::StoredPacket::next_hop) the
//! engine stored on placement) and applies the configured
//! [`GreedyPolicy`] *within each partition*, forwarding one packet over
//! every link that has traffic.
//!
//! On a single-out topology every buffered packet shares the node's unique
//! next hop, so the partition is trivial and `DagGreedy` coincides with
//! [`Greedy`](crate::Greedy) move-for-move — a fact the differential
//! conformance harness checks byte-for-byte.

use aqt_model::{ForwardingPlan, NetworkState, NodeId, Protocol, Round, Topology};

use crate::greedy::GreedyPolicy;

/// A per-link greedy protocol for multi-out topologies: each round, each
/// node forwards the policy-preferred packet over *every* outgoing link
/// that has a packet routed through it.
///
/// # Examples
///
/// ```
/// use aqt_core::{DagGreedy, GreedyPolicy};
/// use aqt_model::{Dag, Injection, Pattern, Simulation};
///
/// // Two packets leave the diamond's source in one round — one per link.
/// let pattern = Pattern::from_injections(vec![
///     Injection::new(0, 0, 1),
///     Injection::new(0, 0, 2),
/// ]);
/// let mut sim = Simulation::new(Dag::diamond(2), DagGreedy::fifo(), &pattern)?;
/// let outcome = sim.step()?;
/// assert_eq!(outcome.forwarded, 2);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DagGreedy {
    policy: GreedyPolicy,
    /// Per-node scratch: the distinct next hops seen in the buffer
    /// (cleared per node; bounded by the out-degree, so tiny).
    hops: Vec<NodeId>,
}

impl DagGreedy {
    /// A per-link greedy protocol with the given selection policy.
    pub fn new(policy: GreedyPolicy) -> Self {
        DagGreedy {
            policy,
            hops: Vec::new(),
        }
    }

    /// FIFO selection per link.
    pub fn fifo() -> Self {
        DagGreedy::new(GreedyPolicy::Fifo)
    }

    /// LIFO selection per link.
    pub fn lifo() -> Self {
        DagGreedy::new(GreedyPolicy::Lifo)
    }

    /// The configured policy.
    pub fn policy(&self) -> GreedyPolicy {
        self.policy
    }
}

impl<T: Topology> Protocol<T> for DagGreedy {
    fn name(&self) -> String {
        format!("DagGreedy-{}", self.policy.label())
    }

    fn plan(&mut self, _round: Round, topo: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
        // Only nodes with buffered packets can send; the active set is
        // exact at plan time and ascending, so this is the dense scan
        // minus its empty-buffer no-ops — O(live nodes) per round.
        for v in state.active_nodes() {
            let buffer = state.buffer(v);
            // Singleton fast path: one packet is one candidate link, and
            // every policy's pick among one candidate is that packet — skip
            // the partition pass and its scratch. On sparse meshes almost
            // every live buffer lands here.
            if let [sp] = buffer {
                if sp.next_hop().is_some() {
                    plan.send(v, sp.id());
                }
                continue;
            }
            // Partition the buffer by next hop: the distinct links with
            // traffic, in buffer (placement) order, each forwarding its
            // partition's policy pick. The hops are the ones the engine
            // stored when it placed each packet, so planning routes
            // nothing.
            self.hops.clear();
            for sp in buffer {
                if let Some(h) = sp.next_hop() {
                    if !self.hops.contains(&h) {
                        self.hops.push(h);
                    }
                }
            }
            for &h in &self.hops {
                let pick = self.policy.select_from(
                    topo,
                    v,
                    buffer.iter().filter(|sp| sp.next_hop() == Some(h)),
                );
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
    use crate::Greedy;
    use aqt_model::{Dag, Injection, Path, Pattern, Simulation};

    #[test]
    fn uses_every_link_with_traffic() {
        // Grid corner: one packet along the row, one down the column.
        let g = Dag::grid(2, 2);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 1), // right
            Injection::new(0, 0, 2), // down
        ]);
        let mut sim = Simulation::new(g, DagGreedy::fifo(), &p).unwrap();
        let o = sim.step().unwrap();
        assert_eq!(o.forwarded, 2);
        assert_eq!(o.delivered, 2);
    }

    #[test]
    fn one_packet_per_link_even_under_pressure() {
        // Three packets all routed over the same first link: only one
        // leaves per round.
        let g = Dag::grid(2, 2);
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]);
        let mut sim = Simulation::new(g, DagGreedy::fifo(), &p).unwrap();
        let o = sim.step().unwrap();
        assert_eq!(o.forwarded, 1);
        sim.run_past_horizon(8).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().delivered, 3);
    }

    #[test]
    fn matches_greedy_on_single_out_topologies() {
        // On a path, the per-link partition is trivial: DagGreedy must
        // reproduce Greedy's run exactly, for every policy.
        let pattern: Pattern = (0..30u64)
            .map(|t| Injection::new(t, (t % 3) as usize, 7 - (t % 2) as usize))
            .collect();
        for policy in GreedyPolicy::ALL {
            let mut classic = Simulation::new(Path::new(8), Greedy::new(policy), &pattern).unwrap();
            classic.run_past_horizon(20).unwrap();
            let mut per_link =
                Simulation::new(Path::new(8), DagGreedy::new(policy), &pattern).unwrap();
            per_link.run_past_horizon(20).unwrap();
            assert_eq!(
                classic.metrics(),
                per_link.metrics(),
                "{} diverges",
                policy.label()
            );
        }
    }

    #[test]
    fn drains_random_dags() {
        let g = Dag::random_dag(20, 0.3, 5);
        let p: Pattern = (0..40u64)
            .map(|t| Injection::new(t, (t % 10) as usize, 10 + (t % 10) as usize))
            .collect();
        for policy in GreedyPolicy::ALL {
            let mut sim = Simulation::new(g.clone(), DagGreedy::new(policy), &p).unwrap();
            sim.run_past_horizon(60).unwrap();
            assert!(sim.is_drained(), "{} failed to drain", policy.label());
        }
    }

    #[test]
    fn name_and_policy_are_exposed() {
        let g = DagGreedy::lifo();
        assert_eq!(Protocol::<Path>::name(&g), "DagGreedy-LIFO");
        assert_eq!(g.policy(), GreedyPolicy::Lifo);
        assert_eq!(Protocol::<Path>::name(&DagGreedy::fifo()), "DagGreedy-FIFO");
    }
}
