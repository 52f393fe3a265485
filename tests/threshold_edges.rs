//! Edge cases of `DirectedTree::random` and `capacity_threshold`: the
//! degenerate corners a binary search or a tree generator gets wrong
//! first — single-node topologies, single-edge routes, stars at the
//! minimum legal capacity, and counted staging probed at exactly the
//! threshold.

use small_buffers::{
    capacity_threshold, run_scenario, CapacitySpec, DirectedTree, DropPolicyKind, GreedyPolicy,
    Injection, NodeId, ProtocolSpec, RunSummary, Scenario, SourceSpec, StagingMode, Topology,
    TopologySpec, TreeSpec,
};

const FIFO: ProtocolSpec = ProtocolSpec::Greedy {
    policy: GreedyPolicy::Fifo,
};

/// `scenario` with uniform drop-tail buffers of `capacity` slots under
/// `staging`.
fn run_at(scenario: &Scenario, capacity: usize, staging: StagingMode) -> RunSummary {
    let mut run = scenario.clone();
    run.capacity = Some(CapacitySpec::uniform(
        capacity,
        DropPolicyKind::Tail,
        staging,
    ));
    run_scenario(&run).unwrap()
}

#[test]
fn random_tree_of_one_node_is_just_a_root() {
    for seed in 0..8u64 {
        let t = DirectedTree::random(1, seed);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.root(), NodeId::new(0));
        assert_eq!(t.height(), 0);
        assert!(t.is_leaf(NodeId::new(0)));
        assert_eq!(t.out_degree(NodeId::new(0)), 0);
        // Identical regardless of seed: there is only one 1-node tree.
        assert_eq!(t, DirectedTree::random(1, seed + 1));
    }
}

#[test]
fn random_tree_of_two_nodes_is_the_single_edge() {
    let t = DirectedTree::random(2, 99);
    assert_eq!(t.node_count(), 2);
    assert_eq!(t.root(), NodeId::new(1));
    assert_eq!(t.parent(NodeId::new(0)), Some(NodeId::new(1)));
    assert_eq!(
        t.next_hop(NodeId::new(0), NodeId::new(1)),
        Some(NodeId::new(1))
    );
    assert_eq!(t.route_len(NodeId::new(0), NodeId::new(1)), Some(1));
}

#[test]
fn random_trees_always_root_at_the_last_node() {
    for n in [3usize, 7, 19, 64] {
        for seed in 0..4u64 {
            let t = DirectedTree::random(n, seed);
            assert_eq!(t.node_count(), n);
            assert_eq!(t.root(), NodeId::new(n - 1), "n={n} seed={seed}");
            // Every edge points toward a higher index (the generator's
            // invariant, which makes i < root reachability total).
            for v in 0..n - 1 {
                let p = t.parent(NodeId::new(v)).expect("non-root has a parent");
                assert!(p.index() > v, "n={n} seed={seed}: edge v{v} -> {p}");
            }
        }
    }
}

#[test]
fn threshold_on_single_node_topology_with_no_traffic() {
    // n = 1 admits no injection at all (every route would be empty); the
    // search must degenerate gracefully: threshold 1 (the smallest legal
    // capacity), peak 0, nothing below to probe.
    let idle = Scenario::new(
        TopologySpec::Path { n: 1 },
        FIFO,
        SourceSpec::Pattern {
            injections: Vec::new(),
        },
        4,
    );
    let th = capacity_threshold(&idle, DropPolicyKind::Tail, StagingMode::Exempt).unwrap();
    assert_eq!(th.threshold, 1);
    assert_eq!(th.unbounded_peak, 0);
    assert_eq!(th.drops_below, None);
}

#[test]
fn threshold_on_a_single_edge_equals_the_burst_size() {
    // The smallest routable topology: one edge, one burst. The threshold
    // is exactly the burst size, and one below loses exactly one packet
    // under drop-tail.
    let burst = Scenario::new(
        TopologySpec::Path { n: 2 },
        FIFO,
        SourceSpec::Pattern {
            injections: vec![Injection::new(0, 0, 1); 3],
        },
        6,
    );
    let th = capacity_threshold(&burst, DropPolicyKind::Tail, StagingMode::Exempt).unwrap();
    assert_eq!(th.threshold, 3);
    assert_eq!(th.unbounded_peak, 3);
    assert_eq!(th.drops_below, Some(1));
}

#[test]
fn star_at_capacity_one_routes_loss_free() {
    // Every leaf of a star streams to the root at rate 1: each leaf
    // buffer holds at most one packet (placed, then forwarded straight
    // into the root = delivered), so the minimum legal capacity suffices
    // and the threshold search agrees.
    let leaves = 5usize;
    let injections = (0..12u64)
        .flat_map(|t| (1..=leaves).map(move |leaf| Injection::new(t, leaf, 0)))
        .collect();
    let star = Scenario::new(
        TopologySpec::Tree(TreeSpec::Star { leaves }),
        FIFO,
        SourceSpec::Pattern { injections },
        4,
    );
    let run = run_at(&star, 1, StagingMode::Exempt);
    assert_eq!(run.delivered, run.injected, "the star drains");
    assert_eq!(run.dropped, 0);
    assert_eq!(run.delivered, 12 * leaves as u64);
    assert_eq!(run.max_occupancy, 1);

    let th = capacity_threshold(&star, DropPolicyKind::Tail, StagingMode::Exempt).unwrap();
    assert_eq!(th.threshold, 1);
    assert_eq!(th.drops_below, None);
}

#[test]
fn counted_staging_is_loss_free_at_exactly_the_threshold() {
    // Counted staging reserves buffer slots for staged wishes, so the
    // threshold can exceed the unbounded occupancy peak. Whatever the
    // search returns must be *exactly* the boundary: zero drops at the
    // threshold, losses at threshold − 1.
    let n = 8usize;
    let batched = Scenario::new(
        TopologySpec::Path { n },
        ProtocolSpec::Batched {
            inner: Box::new(FIFO),
            phase: 3,
        },
        SourceSpec::Repeat {
            source: 0,
            dest: n - 1,
            per_round: 2,
            rounds: 12,
        },
        30,
    );
    let th = capacity_threshold(&batched, DropPolicyKind::Tail, StagingMode::Counted).unwrap();
    let drops_at = |cap: usize| run_at(&batched, cap, StagingMode::Counted).dropped;
    assert_eq!(drops_at(th.threshold), 0, "threshold must be loss-free");
    assert!(th.threshold > 1, "this workload needs more than one slot");
    assert!(
        drops_at(th.threshold - 1) > 0,
        "threshold must be the smallest loss-free capacity"
    );
    assert_eq!(th.drops_below, Some(drops_at(th.threshold - 1)));
    // The doubling phase finds the unbounded peak lossy here; the binary
    // search must not probe it again.
    let mut probed: Vec<usize> = th.probes.iter().map(|&(c, _)| c).collect();
    probed.sort_unstable();
    probed.dedup();
    assert_eq!(probed.len(), th.probes.len(), "no capacity is probed twice");
    // And the staging reservation really pushed it above the occupancy
    // peak (the case a naive peak-based search gets wrong).
    assert!(
        th.threshold > th.unbounded_peak,
        "counted staging must reserve beyond the occupancy peak here \
         (threshold {}, peak {})",
        th.threshold,
        th.unbounded_peak
    );
}
