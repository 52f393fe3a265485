//! Property test: a streaming adversary source and its materialized
//! `Pattern` drive the engine to **byte-identical** `RunMetrics`, for every
//! protocol × topology combination in the matrix.
//!
//! This is the contract that makes the streaming engine trustworthy: the
//! theorems are validated against pattern runs, so the long-horizon
//! streaming runs must be the *same computation* — same packet ids, same
//! placement order, same peaks — merely without the materialized schedule.
//! "Byte-identical" is taken literally: the serialized JSON of both metric
//! structs must be equal.

use proptest::prelude::*;

use small_buffers::{
    DestSpec, DirectedTree, Greedy, GreedyPolicy, Hpts, HptsD, LocalPts, NodeId, Path, Ppts,
    Protocol, Pts, RandomAdversary, Rate, Simulation, TreePpts, TreePts,
};

const N: usize = 16;

/// Runs `protocol` against the adversary both ways — materialized pattern
/// and streaming source — for the same number of rounds, and demands
/// byte-identical metrics.
fn check_path<P, F>(label: &str, mk: F, adv: &RandomAdversary, rounds: u64)
where
    P: Protocol<Path>,
    F: Fn() -> P,
{
    let topo = Path::new(N);
    let pattern = adv.build_path(&topo);
    let mut from_pattern = Simulation::new(topo, mk(), &pattern).expect("valid pattern");
    from_pattern.run(rounds).expect("valid run");
    let mut from_stream = Simulation::from_source(topo, mk(), adv.stream_path(&topo));
    from_stream.run(rounds).expect("valid run");
    prop_assert_eq!(
        from_pattern.metrics(),
        from_stream.metrics(),
        "metrics diverge for {} on the path",
        label
    );
    let pattern_bytes = serde_json::to_string(from_pattern.metrics()).expect("serializes");
    let stream_bytes = serde_json::to_string(from_stream.metrics()).expect("serializes");
    prop_assert_eq!(
        pattern_bytes,
        stream_bytes,
        "serialized metrics diverge for {} on the path",
        label
    );
}

/// Tree counterpart of [`check_path`].
fn check_tree<P, F>(label: &str, mk: F, adv: &RandomAdversary, tree: &DirectedTree, rounds: u64)
where
    P: Protocol<DirectedTree>,
    F: Fn() -> P,
{
    let pattern = adv.build_tree(tree);
    let mut from_pattern = Simulation::new(tree.clone(), mk(), &pattern).expect("valid pattern");
    from_pattern.run(rounds).expect("valid run");
    let mut from_stream = Simulation::from_source(tree.clone(), mk(), adv.stream_tree(tree));
    from_stream.run(rounds).expect("valid run");
    prop_assert_eq!(
        from_pattern.metrics(),
        from_stream.metrics(),
        "metrics diverge for {} on the tree",
        label
    );
    let pattern_bytes = serde_json::to_string(from_pattern.metrics()).expect("serializes");
    let stream_bytes = serde_json::to_string(from_stream.metrics()).expect("serializes");
    prop_assert_eq!(
        pattern_bytes,
        stream_bytes,
        "serialized metrics diverge for {} on the tree",
        label
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-destination path protocols (no single-destination
    /// precondition): PPTS (both priorities), HPTS, HPTS-D, greedy FIFO
    /// and LIFO.
    #[test]
    fn path_protocols_see_identical_streams(
        seed in 0u64..1024,
        sigma in 0u64..4,
        den in 1u32..4,
        horizon in 20u64..80,
    ) {
        let rate = Rate::new(1, den).unwrap();
        let dests = DestSpec::fixed([7, 11, N - 1]);
        let adv = RandomAdversary::new(rate, sigma, horizon)
            .destinations(dests.clone())
            .seed(seed);
        let rounds = horizon + 40;
        check_path("PPTS", Ppts::new, &adv, rounds);
        check_path("PPTS-fifo", || Ppts::new().priority(small_buffers::PseudoPriority::Fifo), &adv, rounds);
        check_path("HPTS", || Hpts::for_line(N, 2).unwrap(), &adv, rounds);
        check_path(
            "HPTS-D",
            || HptsD::new(vec![7, 11, N - 1], 2).unwrap(),
            &adv,
            rounds,
        );
        check_path("Greedy-FIFO", || Greedy::new(GreedyPolicy::Fifo), &adv, rounds);
        check_path("Greedy-LIFO", || Greedy::new(GreedyPolicy::Lifo), &adv, rounds);
    }

    /// Single-destination path protocols: PTS (faithful and eager) and
    /// LocalPTS, on traffic that all targets the sink.
    #[test]
    fn single_destination_protocols_see_identical_streams(
        seed in 0u64..1024,
        sigma in 0u64..4,
        horizon in 20u64..80,
    ) {
        let sink = NodeId::new(N - 1);
        let adv = RandomAdversary::new(Rate::ONE, sigma, horizon)
            .destinations(DestSpec::Fixed { dests: vec![sink] })
            .seed(seed);
        let rounds = horizon + 40;
        check_path("PTS", || Pts::new(sink), &adv, rounds);
        check_path("PTS-eager", || Pts::eager(sink), &adv, rounds);
        check_path("LocalPTS", || LocalPts::new(sink, 3), &adv, rounds);
    }

    /// Tree protocols: TreePTS toward the root, TreePPTS, greedy FIFO.
    #[test]
    fn tree_protocols_see_identical_streams(
        seed in 0u64..1024,
        sigma in 0u64..3,
        horizon in 20u64..60,
    ) {
        let tree = DirectedTree::random(N, 4);
        let root = tree.root();
        let rounds = horizon + 40;
        // Root-only traffic for the single-destination protocol…
        let to_root = RandomAdversary::new(Rate::ONE, sigma, horizon)
            .destinations(DestSpec::Fixed { dests: vec![root] })
            .seed(seed);
        check_tree("TreePTS", || TreePts::new(root), &to_root, &tree, rounds);
        // …and unrestricted ancestor traffic for the rest.
        let anywhere = RandomAdversary::new(Rate::new(1, 2).unwrap(), sigma, horizon).seed(seed);
        check_tree("TreePPTS", TreePpts::new, &anywhere, &tree, rounds);
        check_tree(
            "Greedy-FIFO",
            || Greedy::new(GreedyPolicy::Fifo),
            &anywhere,
            &tree,
            rounds,
        );
    }
}
