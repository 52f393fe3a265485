//! Tree variants of PTS and PPTS (§3.3, Appendix B.2).
//!
//! On a directed tree (edges toward the root), the "left-most bad buffer"
//! of the path algorithms generalizes to the **low-antichain** of bad
//! buffers: the ≺-minimal bad nodes. Tree-PTS activates every node on the
//! path from any bad node to the destination; Tree-PPTS does this per
//! destination, processing destinations in reverse topological order and
//! never re-claiming an already-activated node (Algorithm 6). Both are the
//! one peak-to-sink planner of [`crate::pts`] over a [`DirectedTree`].
//!
//! * Prop. B.3 (Tree-PTS): max occupancy ≤ 2 + σ.
//! * Prop. 3.5 (Tree-PPTS): max occupancy ≤ 1 + d′ + σ, where d′ is the
//!   maximum number of destinations on any leaf-root path.

use aqt_model::{DirectedTree, NodeId};

use crate::pts::{Every, One, PeakToSink};

/// Computes the low-antichain `min(B)` of Def. B.2: the ≺-minimal elements
/// of `bad` (no other bad node strictly below them).
///
/// Exposed for tests and instrumentation; the protocols themselves use the
/// equivalent union-of-paths formulation.
pub fn low_antichain(tree: &DirectedTree, bad: &[NodeId]) -> Vec<NodeId> {
    bad.iter()
        .copied()
        .filter(|&u| !bad.iter().any(|&v| v != u && tree.strictly_precedes(v, u)))
        .collect()
}

/// Tree-PTS: single-destination forwarding on a directed tree.
///
/// Every node on a path from a bad buffer (at least two packets destined
/// `w`) to the destination `w` is activated; activated non-empty buffers
/// forward their LIFO top. Prop. B.3 assumes that all packets share the
/// destination (normally the root); packets for other destinations are
/// never forwarded.
///
/// # Examples
///
/// ```
/// use aqt_core::TreePts;
/// use aqt_model::{DirectedTree, Injection, Pattern, Simulation};
///
/// let tree = DirectedTree::star(4); // root 0, leaves 1–4
/// let pattern = Pattern::from_injections(vec![
///     Injection::new(0, 1, 0),
///     Injection::new(0, 1, 0),
/// ]);
/// let mut sim = Simulation::new(tree, TreePts::new(aqt_model::NodeId::new(0)), &pattern)?;
/// sim.run(4)?;
/// // Leaf 1 was bad (two packets), so it forwarded once; the survivor is
/// // not bad and stays parked — faithful PTS bounds space, not latency.
/// assert_eq!(sim.metrics().delivered, 1);
/// assert_eq!(sim.metrics().max_occupancy, 2);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
pub type TreePts = PeakToSink<DirectedTree, One>;

/// Tree-PPTS (Algorithm 6): multi-destination forwarding on a directed
/// tree via per-destination pseudo-buffers.
///
/// Destinations are discovered from the configuration each round and
/// processed in reverse topological order (`w_i ≺ w_j ⇒ i < j`, so
/// root-most first). For each destination `w`, nodes on paths from bad
/// `w`-pseudo-buffers toward `w` are activated unless already claimed by a
/// ≺-later destination.
///
/// # Examples
///
/// ```
/// use aqt_core::TreePpts;
/// use aqt_model::{DirectedTree, Injection, Pattern, Simulation};
///
/// let tree = DirectedTree::full_binary(2); // 7 nodes, root 0
/// let pattern = Pattern::from_injections(vec![
///     Injection::new(0, 3, 1), // leaf → internal
///     Injection::new(0, 3, 1),
///     Injection::new(0, 4, 0), // leaf → root
///     Injection::new(0, 4, 0),
/// ]);
/// let mut sim = Simulation::new(tree, TreePpts::new(), &pattern)?;
/// sim.run(6)?;
/// assert!(sim.metrics().max_occupancy <= 1 + 2 + 2);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
pub type TreePpts = PeakToSink<DirectedTree, Every>;

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{Injection, Pattern, Protocol, Simulation};

    #[test]
    fn low_antichain_picks_minimal_elements() {
        // Path 0→1→2→3 as tree: bad at 0 and 2 → antichain {0}.
        let tree = DirectedTree::path(4);
        let bad = vec![NodeId::new(0), NodeId::new(2)];
        assert_eq!(low_antichain(&tree, &bad), vec![NodeId::new(0)]);
        // Star: leaves incomparable → both minimal.
        let star = DirectedTree::star(3);
        let bad = vec![NodeId::new(1), NodeId::new(2)];
        assert_eq!(low_antichain(&star, &bad).len(), 2);
    }

    #[test]
    fn tree_pts_on_path_matches_pts_activation() {
        // Same scenario as the PTS test: bad at 1, singleton at 3.
        let tree = DirectedTree::path(6);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 5),
            Injection::new(0, 1, 5),
            Injection::new(0, 3, 5),
        ]);
        let mut sim = Simulation::new(tree, TreePts::new(NodeId::new(5)), &p).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.state().occupancy(NodeId::new(1)), 1);
        assert_eq!(sim.state().occupancy(NodeId::new(2)), 1);
        assert_eq!(sim.state().occupancy(NodeId::new(3)), 0);
        assert_eq!(sim.state().occupancy(NodeId::new(4)), 1);
    }

    #[test]
    fn tree_pts_merging_branches_respects_capacity() {
        // Star with two bad leaves: both forward into the root in one
        // round (different links — legal), root absorbs (it IS the dest).
        let tree = DirectedTree::star(2);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 0),
            Injection::new(0, 1, 0),
            Injection::new(0, 2, 0),
            Injection::new(0, 2, 0),
        ]);
        let mut sim = Simulation::new(tree, TreePts::new(NodeId::new(0)), &p).unwrap();
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.forwarded, 2);
        assert_eq!(outcome.delivered, 2);
    }

    #[test]
    fn tree_pts_burst_respects_two_plus_sigma() {
        let tree = DirectedTree::full_binary(3);
        let root = tree.root().index();
        // σ = 3 burst at one leaf.
        let p = Pattern::from_injections(vec![Injection::new(0, 14, root); 4]);
        let mut sim = Simulation::new(tree, TreePts::new(NodeId::new(root)), &p).unwrap();
        sim.run(20).unwrap();
        assert!(sim.metrics().max_occupancy <= 2 + 3);
    }

    #[test]
    fn tree_ppts_claims_rootward_destinations_first() {
        // Caterpillar spine 0→1→2 (root 2): destinations 1 and 2.
        let tree = DirectedTree::path(3);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 2),
            Injection::new(0, 0, 2),
            Injection::new(0, 0, 1),
            Injection::new(0, 0, 1),
        ]);
        let mut sim = Simulation::new(tree, TreePpts::new(), &p).unwrap();
        let outcome = sim.step().unwrap();
        // Node 0 is claimed by destination 2 (root-most first): exactly one
        // packet moves, and it is a dest-2 packet.
        assert_eq!(outcome.forwarded, 1);
        let at1 = sim.state().buffer(NodeId::new(1));
        assert_eq!(at1.len(), 1);
        assert_eq!(at1[0].dest(), NodeId::new(2));
    }

    #[test]
    fn tree_ppts_drains_separate_branches_in_parallel() {
        let tree = DirectedTree::star(2);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 0),
            Injection::new(0, 1, 0),
            Injection::new(0, 2, 0),
            Injection::new(0, 2, 0),
        ]);
        let mut sim = Simulation::new(tree, TreePpts::new(), &p).unwrap();
        let outcome = sim.step().unwrap();
        assert_eq!(outcome.forwarded, 2);
    }

    #[test]
    fn tree_ppts_respects_destination_depth_bound() {
        // Chain of destinations along one path: d′ = 3.
        let tree = DirectedTree::path(8);
        let mut injections = Vec::new();
        for t in 0..30u64 {
            injections.push(Injection::new(t, 0, [3usize, 5, 7][(t % 3) as usize]));
        }
        let p = Pattern::from_injections(injections);
        let mut sim = Simulation::new(tree, TreePpts::new(), &p).unwrap();
        sim.run(40).unwrap();
        // σ ≤ 1 for this paced pattern; bound 1 + 3 + 1.
        assert!(
            sim.metrics().max_occupancy <= 5,
            "occupancy {}",
            sim.metrics().max_occupancy
        );
    }

    #[test]
    fn names() {
        assert!(TreePts::new(NodeId::new(0)).name().contains("TreePTS"));
        assert_eq!(TreePpts::new().name(), "TreePPTS");
        assert_eq!(TreePts::new(NodeId::new(2)).dest(), NodeId::new(2));
    }
}
