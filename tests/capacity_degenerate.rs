//! Degenerate-capacity property: running with an *unlimited* capacity —
//! any [`DropPolicyKind`], either staging mode — is **byte-identical** to
//! the unbounded engine, across the protocol × topology matrix.
//!
//! This is the contract that makes the finite-buffer subsystem safe to
//! layer on the verified engine: capacity only changes behavior through
//! drops, so when the limit can never be hit, the run (packet ids,
//! placement order, every metric, including the serialized JSON bytes)
//! must be exactly the unbounded computation. Plus the smallest
//! interesting finite case: drop-tail at capacity 1 on a 2-node path
//! still delivers.

use proptest::prelude::*;

use small_buffers::{
    CapacityConfig, DestSpec, DirectedTree, DropPolicyKind, Greedy, GreedyPolicy, Hpts, Injection,
    NodeId, Path, Pattern, Ppts, Protocol, Pts, RandomAdversary, Rate, Simulation, StagingMode,
    TreePpts,
};

const N: usize = 16;

/// Runs `protocol` against `pattern` unbounded and at unlimited capacity
/// under every policy and both staging modes, demanding byte-identical
/// metrics each way.
fn check_path<P, F>(label: &str, mk: F, pattern: &Pattern, rounds: u64)
where
    P: Protocol<Path>,
    F: Fn() -> P,
{
    let topo = Path::new(N);
    let mut unbounded = Simulation::new(topo, mk(), pattern).expect("valid pattern");
    unbounded.run(rounds).expect("valid run");
    let reference = serde_json::to_string(unbounded.metrics()).expect("serializes");
    for staging in [StagingMode::Exempt, StagingMode::Counted] {
        for policy in DropPolicyKind::ALL {
            let name = policy.label();
            let mut capped = Simulation::new(topo, mk(), pattern)
                .expect("valid pattern")
                .with_capacity(CapacityConfig::uniform(usize::MAX).staging(staging), policy);
            capped.run(rounds).expect("valid run");
            prop_assert_eq!(
                unbounded.metrics(),
                capped.metrics(),
                "metrics diverge for {} under {} ({:?} staging)",
                label,
                name,
                staging
            );
            let capped_bytes = serde_json::to_string(capped.metrics()).expect("serializes");
            prop_assert_eq!(
                &reference,
                &capped_bytes,
                "serialized metrics diverge for {} under {} ({:?} staging)",
                label,
                name,
                staging
            );
            prop_assert_eq!(capped.metrics().dropped, 0);
        }
    }
}

/// Tree counterpart of [`check_path`].
fn check_tree<P, F>(label: &str, mk: F, pattern: &Pattern, tree: &DirectedTree, rounds: u64)
where
    P: Protocol<DirectedTree>,
    F: Fn() -> P,
{
    let mut unbounded = Simulation::new(tree.clone(), mk(), pattern).expect("valid pattern");
    unbounded.run(rounds).expect("valid run");
    let reference = serde_json::to_string(unbounded.metrics()).expect("serializes");
    for policy in DropPolicyKind::ALL {
        let name = policy.label();
        let mut capped = Simulation::new(tree.clone(), mk(), pattern)
            .expect("valid pattern")
            .with_capacity(CapacityConfig::uniform(usize::MAX), policy);
        capped.run(rounds).expect("valid run");
        prop_assert_eq!(
            unbounded.metrics(),
            capped.metrics(),
            "metrics diverge for {} under {} on the tree",
            label,
            name
        );
        let capped_bytes = serde_json::to_string(capped.metrics()).expect("serializes");
        prop_assert_eq!(
            &reference,
            &capped_bytes,
            "serialized metrics diverge for {} under {} on the tree",
            label,
            name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multi-destination path protocols, including the phase-batched HPTS
    /// (both staging modes must be inert at unlimited capacity).
    #[test]
    fn unlimited_capacity_is_identity_on_paths(
        seed in 0u64..1024,
        sigma in 0u64..4,
        horizon in 20u64..60,
    ) {
        let adv = RandomAdversary::new(Rate::ONE, sigma, horizon)
            .destinations(DestSpec::fixed([7, 11, N - 1]))
            .seed(seed);
        let pattern = adv.build_path(&Path::new(N));
        let rounds = horizon + 40;
        check_path("PPTS", Ppts::new, &pattern, rounds);
        check_path("HPTS", || Hpts::for_line(N, 2).unwrap(), &pattern, rounds);
        check_path("Greedy-FIFO", || Greedy::new(GreedyPolicy::Fifo), &pattern, rounds);
    }

    /// Single-destination path protocols.
    #[test]
    fn unlimited_capacity_is_identity_single_destination(
        seed in 0u64..1024,
        sigma in 0u64..4,
        horizon in 20u64..60,
    ) {
        let sink = NodeId::new(N - 1);
        let adv = RandomAdversary::new(Rate::ONE, sigma, horizon)
            .destinations(DestSpec::Fixed { dests: vec![sink] })
            .seed(seed);
        let pattern = adv.build_path(&Path::new(N));
        let rounds = horizon + 40;
        check_path("PTS", || Pts::new(sink), &pattern, rounds);
        check_path("PTS-eager", || Pts::eager(sink), &pattern, rounds);
    }

    /// Tree protocols.
    #[test]
    fn unlimited_capacity_is_identity_on_trees(
        seed in 0u64..1024,
        sigma in 0u64..3,
        horizon in 20u64..50,
    ) {
        let tree = DirectedTree::random(N, 4);
        let adv = RandomAdversary::new(Rate::new(1, 2).unwrap(), sigma, horizon).seed(seed);
        let pattern = adv.build_tree(&tree);
        let rounds = horizon + 40;
        check_tree("TreePPTS", TreePpts::new, &pattern, &tree, rounds);
        check_tree(
            "Greedy-FIFO",
            || Greedy::new(GreedyPolicy::Fifo),
            &pattern,
            &tree,
            rounds,
        );
    }
}

#[test]
fn drop_tail_at_capacity_one_on_two_node_path_still_delivers() {
    // The smallest finite buffer that can route at all: one slot, one
    // hop. A rate-1 stream flows through loss-free (each packet is
    // placed into the empty buffer and forwarded to its destination in
    // the same round).
    let pattern: Pattern = (0..10u64).map(|t| Injection::new(t, 0, 1)).collect();
    let mut sim = Simulation::new(Path::new(2), Greedy::new(GreedyPolicy::Fifo), &pattern)
        .unwrap()
        .with_capacity(CapacityConfig::uniform(1), DropPolicyKind::Tail);
    sim.run(12).unwrap();
    let m = sim.metrics();
    assert_eq!(m.injected, 10);
    assert_eq!(m.delivered, 10);
    assert_eq!(m.dropped, 0);
    assert_eq!(m.max_occupancy, 1);
    assert_eq!(m.goodput(), Some(Rate::ONE));
}

#[test]
fn capacity_one_burst_keeps_exactly_one() {
    // Three simultaneous packets into one slot: two drop, one delivers.
    let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 1); 3]);
    let mut sim = Simulation::new(Path::new(2), Greedy::new(GreedyPolicy::Fifo), &pattern)
        .unwrap()
        .with_capacity(CapacityConfig::uniform(1), DropPolicyKind::Tail);
    sim.run(3).unwrap();
    assert_eq!(sim.metrics().dropped, 2);
    assert_eq!(sim.metrics().delivered, 1);
    assert_eq!(
        sim.metrics().first_drop_round,
        Some(small_buffers::Round::ZERO)
    );
}
