//! End-to-end checks of every space bound the paper proves, each under
//! several adversaries (deterministic stress patterns plus seeded random
//! bounded adversaries).
//!
//! | Test group | Claim |
//! |------------|-------|
//! | `pts_*` | Prop. 3.1: PTS ≤ 2 + σ |
//! | `ppts_*` | Prop. 3.2: PPTS ≤ 1 + d + σ |
//! | `tree_*` | Props. B.3 / 3.5: trees |
//! | `hpts_*` | Thm. 4.1: HPTS ≤ ℓ·n^{1/ℓ} + σ + 1 |

use std::collections::BTreeSet;

use small_buffers::{
    analyze, bounds, patterns, DestSpec, DirectedTree, Hpts, NodeId, Path, Pattern, Ppts, Pts,
    RandomAdversary, Rate, Simulation, Topology, TreePpts, TreePts,
};

/// Max occupancy of a protocol run to quiescence on a path.
fn path_peak<P: small_buffers::Protocol<Path>>(n: usize, protocol: P, pattern: &Pattern) -> u64 {
    let mut sim = Simulation::new(Path::new(n), protocol, pattern).expect("valid pattern");
    sim.run_past_horizon(6 * n as u64).expect("valid plan");
    sim.metrics().max_occupancy as u64
}

// ---------------------------------------------------------------- PTS --

#[test]
fn pts_bound_under_random_adversaries() {
    let n = 64;
    let topo = Path::new(n);
    for (seed, sigma) in [(1u64, 0u64), (2, 1), (3, 4), (4, 8)] {
        let pattern = RandomAdversary::new(Rate::ONE, sigma, 400)
            .destinations(DestSpec::fixed(vec![n - 1]))
            .seed(seed)
            .build_path(&topo);
        let tight = analyze(&topo, &pattern, Rate::ONE).tight_sigma;
        let peak = path_peak(n, Pts::new(NodeId::new(n - 1)), &pattern);
        assert!(
            peak <= bounds::pts_bound(tight),
            "seed {seed}: {peak} > 2 + {tight}"
        );
    }
}

#[test]
fn pts_bound_under_synchronized_bursts() {
    // Worst-case style: bursts land at the same time at staggered sites.
    let n = 32;
    let mut injections = Vec::new();
    for burst_round in [0u64, 10, 20] {
        for src in [0usize, 8, 16, 24] {
            for _ in 0..3 {
                injections.push(small_buffers::Injection::new(burst_round, src, n - 1));
            }
        }
    }
    let pattern = Pattern::from_injections(injections);
    let tight = analyze(&Path::new(n), &pattern, Rate::ONE).tight_sigma;
    let peak = path_peak(n, Pts::new(NodeId::new(n - 1)), &pattern);
    assert!(peak <= bounds::pts_bound(tight));
}

#[test]
fn pts_peak_chase_pattern_is_tight_for_sigma_zero() {
    // peak_chase stresses the "left-most bad buffer" rule; with σ = 0 the
    // bound 2 + 0 = 2 must be met exactly (σ = 0 still allows occupancy 2).
    let n = 24;
    let pattern = patterns::peak_chase(n, Rate::ONE, 0, 120);
    let tight = analyze(&Path::new(n), &pattern, Rate::ONE).tight_sigma;
    assert_eq!(tight, 0, "peak_chase must stay within its budget");
    let peak = path_peak(n, Pts::new(NodeId::new(n - 1)), &pattern);
    assert!(peak <= 2);
}

// --------------------------------------------------------------- PPTS --

#[test]
fn ppts_bound_across_destination_counts() {
    let n = 64;
    let topo = Path::new(n);
    let rho = Rate::new(1, 2).unwrap();
    for d in [1usize, 2, 5, 9, 16] {
        let dests = patterns::even_destinations(n, d);
        let pattern = RandomAdversary::new(rho, 3, 400)
            .destinations(DestSpec::fixed(dests.clone()))
            .seed(d as u64 * 7)
            .build_path(&topo);
        let tight = analyze(&topo, &pattern, rho).tight_sigma;
        let peak = path_peak(n, Ppts::new(), &pattern);
        assert!(
            peak <= bounds::ppts_bound(d, tight),
            "d = {d}: {peak} > 1 + {d} + {tight}"
        );
    }
}

#[test]
fn ppts_bound_with_fifo_pseudo_priority() {
    // The paper assumes LIFO "for concreteness"; the bound must be
    // priority-independent.
    let n = 48;
    let topo = Path::new(n);
    let rho = Rate::new(1, 2).unwrap();
    let dests = vec![15, 31, 47];
    let pattern = RandomAdversary::new(rho, 2, 300)
        .destinations(DestSpec::fixed(dests.clone()))
        .seed(13)
        .build_path(&topo);
    let tight = analyze(&topo, &pattern, rho).tight_sigma;
    let peak = path_peak(
        n,
        Ppts::new().priority(small_buffers::PseudoPriority::Fifo),
        &pattern,
    );
    assert!(peak <= bounds::ppts_bound(dests.len(), tight));
}

#[test]
fn ppts_round_robin_saturation() {
    // Round-robin at rate exactly 1 across d destinations: the classical
    // d-destination stress from [17]'s Ω(d) discussion.
    let n = 64;
    let d = 8;
    let dests = patterns::even_destinations(n, d);
    let pattern = patterns::round_robin(&dests, Rate::ONE, 512);
    let tight = analyze(&Path::new(n), &pattern, Rate::ONE).tight_sigma;
    let peak = path_peak(n, Ppts::new(), &pattern);
    assert!(peak <= bounds::ppts_bound(d, tight));
}

#[test]
fn ppts_handles_staircase_bursts() {
    let n = 40;
    let dests = patterns::even_destinations(n, 5);
    let pattern = patterns::staircase(&dests, 3, 6);
    let rho = Rate::ONE;
    let tight = analyze(&Path::new(n), &pattern, rho).tight_sigma;
    let peak = path_peak(n, Ppts::new(), &pattern);
    assert!(peak <= bounds::ppts_bound(5, tight));
}

// -------------------------------------------------------------- Trees --

#[test]
fn tree_pts_bound_on_varied_shapes() {
    for (label, tree) in [
        ("path", DirectedTree::path(24)),
        ("star", DirectedTree::star(24)),
        ("binary", DirectedTree::full_binary(4)),
        ("caterpillar", DirectedTree::caterpillar(12, 2)),
        ("random", DirectedTree::random(48, 77)),
    ] {
        let root = tree.root();
        // Tree-PTS is the single-destination algorithm: all packets to root.
        let pattern = RandomAdversary::new(Rate::ONE, 3, 250)
            .destinations(DestSpec::fixed(vec![root.index()]))
            .seed(41)
            .build_tree(&tree);
        let tight = analyze(&tree, &pattern, Rate::ONE).tight_sigma;
        let n = tree.node_count() as u64;
        let mut sim = Simulation::new(tree, TreePts::new(root), &pattern).unwrap();
        sim.run_past_horizon(6 * n).unwrap();
        let peak = sim.metrics().max_occupancy as u64;
        assert!(
            peak <= bounds::tree_pts_bound(tight),
            "{label}: {peak} > 2 + {tight}"
        );
    }
}

#[test]
fn tree_ppts_bound_uses_destination_depth_not_count() {
    // A star with many destinations: every leaf-root path holds at most
    // d' = 1 destination (the root), however many leaves exist.
    let tree = DirectedTree::star(30);
    let root = tree.root();
    let rho = Rate::new(1, 2).unwrap();
    let pattern = RandomAdversary::new(rho, 2, 200)
        .destinations(DestSpec::fixed(vec![root.index()]))
        .seed(3)
        .build_tree(&tree);
    let dests: BTreeSet<NodeId> = pattern.destinations();
    let d_prime = tree.destination_depth(&dests);
    assert!(d_prime <= 1);
    let tight = analyze(&tree, &pattern, rho).tight_sigma;
    let mut sim = Simulation::new(tree, TreePpts::new(), &pattern).unwrap();
    sim.run_past_horizon(200).unwrap();
    assert!(sim.metrics().max_occupancy as u64 <= bounds::tree_ppts_bound(d_prime, tight));
}

#[test]
fn tree_ppts_bound_on_caterpillar_spine_destinations() {
    // Destinations stacked along one spine: d' equals the full destination
    // count — the hard case for the bound.
    let tree = DirectedTree::caterpillar(20, 2);
    let rho = Rate::new(1, 2).unwrap();
    let spine_dests = vec![0usize, 5, 10, 15];
    let pattern = RandomAdversary::new(rho, 3, 300)
        .destinations(DestSpec::fixed(spine_dests))
        .seed(8)
        .build_tree(&tree);
    let dests: BTreeSet<NodeId> = pattern.destinations();
    let d_prime = tree.destination_depth(&dests);
    let tight = analyze(&tree, &pattern, rho).tight_sigma;
    let n = tree.node_count() as u64;
    let mut sim = Simulation::new(tree, TreePpts::new(), &pattern).unwrap();
    sim.run_past_horizon(6 * n).unwrap();
    assert!(
        sim.metrics().max_occupancy as u64 <= bounds::tree_ppts_bound(d_prime, tight),
        "caterpillar: {} > 1 + {d_prime} + {tight}",
        sim.metrics().max_occupancy
    );
}

// --------------------------------------------------------------- HPTS --

#[test]
fn hpts_bound_for_two_levels() {
    let n = 64; // 8²
    let l = 2u32;
    let rho = Rate::one_over(l).unwrap();
    let topo = Path::new(n);
    for seed in 0..4u64 {
        let pattern = RandomAdversary::new(rho, 2, 600)
            .destinations(DestSpec::AnyReachable)
            .seed(seed)
            .build_path(&topo);
        let tight = analyze(&topo, &pattern, rho).tight_sigma;
        let hpts = Hpts::for_line(n, l).unwrap();
        let bound = bounds::hpts_bound(l, hpts.hierarchy().base(), tight);
        let peak = path_peak(n, hpts, &pattern);
        assert!(peak <= bound, "seed {seed}: {peak} > {bound}");
    }
}

#[test]
fn hpts_bound_for_three_levels() {
    let n = 64; // 4³
    let l = 3u32;
    let rho = Rate::one_over(l).unwrap();
    let topo = Path::new(n);
    let pattern = RandomAdversary::new(rho, 1, 900)
        .destinations(DestSpec::AnyReachable)
        .seed(17)
        .build_path(&topo);
    let tight = analyze(&topo, &pattern, rho).tight_sigma;
    let hpts = Hpts::for_line(n, l).unwrap();
    let bound = bounds::hpts_bound(l, hpts.hierarchy().base(), tight);
    let peak = path_peak(n, hpts, &pattern);
    assert!(peak <= bound, "{peak} > {bound}");
}

#[test]
fn hpts_with_one_level_degenerates_to_ppts_bound_shape() {
    // ℓ = 1 ⇒ the hierarchy has a single level with m = n intermediate
    // destinations; the bound is 1·n + σ + 1.
    let n = 16;
    let topo = Path::new(n);
    let pattern = RandomAdversary::new(Rate::ONE, 2, 200)
        .destinations(DestSpec::AnyReachable)
        .seed(23)
        .build_path(&topo);
    let tight = analyze(&topo, &pattern, Rate::ONE).tight_sigma;
    let hpts = Hpts::for_line(n, 1).unwrap();
    let bound = bounds::hpts_bound(1, hpts.hierarchy().base(), tight);
    let peak = path_peak(n, hpts, &pattern);
    assert!(peak <= bound);
}

#[test]
fn hpts_space_bound_accessor_matches_formula() {
    let hpts = Hpts::for_line(81, 4).unwrap();
    assert_eq!(
        hpts.space_bound(5),
        bounds::hpts_bound(4, hpts.hierarchy().base(), 5)
    );
}
