//! Integration tests for the Section 5 lower-bound construction: the
//! adversary is well-formed (bounded, correctly routed) and forces every
//! implemented protocol to pay the theorem's floor.

use small_buffers::{
    analyze, Greedy, GreedyPolicy, Hpts, LowerBoundAdversary, Path, Ppts, Protocol, Rate,
    Simulation, Topology,
};

fn peak_against<P: Protocol<Path>>(adv: &LowerBoundAdversary, protocol: P) -> f64 {
    let mut sim = Simulation::new(adv.topology(), protocol, &adv.pattern()).expect("valid pattern");
    sim.run(adv.total_rounds()).expect("valid plan");
    sim.metrics().max_occupancy as f64
}

#[test]
fn pattern_is_validly_routed_and_bounded() {
    for (l, m) in [(2u32, 4u64), (2, 6), (3, 3)] {
        // The theorem needs ρ > 1/(ℓ+1); ρ = 1/ℓ satisfies it.
        let adv = LowerBoundAdversary::new(l, m, Rate::one_over(l).unwrap()).unwrap();
        let topo = adv.topology();
        let pattern = adv.pattern();
        // Validation happens inside Simulation::new; analyze confirms the
        // pattern's burstiness is a small constant, far below the Ω floor.
        let report = analyze(&topo, &pattern, adv.rate());
        assert!(
            report.tight_sigma <= 2 + u64::from(l),
            "l={l}, m={m}: sigma {} too large",
            report.tight_sigma
        );
        // The line is [0, n]: node n exists as the type-1 destination.
        assert_eq!(topo.node_count() as u64, (u64::from(l) + 1) * m.pow(l) + 1);
    }
}

#[test]
fn frontier_is_nonincreasing_and_within_line() {
    let adv = LowerBoundAdversary::new(2, 6, Rate::new(1, 2).unwrap()).unwrap();
    let n = adv.n();
    let mut last = n;
    for t in 0..adv.total_rounds() {
        let f = adv.frontier(t);
        assert!(f <= last, "frontier increased at t={t}");
        assert!(f < n);
        last = f;
    }
}

#[test]
fn every_protocol_pays_the_floor() {
    // Small instance so the test is fast: l = 2, m = 4 ⇒ n = 48.
    let l = 2u32;
    let m = 4u64;
    let rho = Rate::new(1, 2).unwrap();
    let adv = LowerBoundAdversary::new(l, m, rho).unwrap();
    let floor = adv.theorem_bound();
    assert!(
        floor > 0.0,
        "theorem bound must be positive for rho > 1/(l+1)"
    );
    let n = adv.topology().node_count();

    // (PTS is absent: it is a single-destination protocol and rejects the
    // multi-destination §5 pattern by design.)
    let peaks = [
        ("ppts", peak_against(&adv, Ppts::new())),
        ("fifo", peak_against(&adv, Greedy::new(GreedyPolicy::Fifo))),
        ("lifo", peak_against(&adv, Greedy::new(GreedyPolicy::Lifo))),
        (
            "lis",
            peak_against(&adv, Greedy::new(GreedyPolicy::LongestInSystem)),
        ),
        (
            "sis",
            peak_against(&adv, Greedy::new(GreedyPolicy::ShortestInSystem)),
        ),
        (
            "ntg",
            peak_against(&adv, Greedy::new(GreedyPolicy::NearestToGo)),
        ),
        (
            "ftg",
            peak_against(&adv, Greedy::new(GreedyPolicy::FurthestToGo)),
        ),
        ("hpts", peak_against(&adv, Hpts::for_line(n, l).unwrap())),
    ];
    for (name, peak) in peaks {
        assert!(
            peak >= floor,
            "{name} evaded the lower bound: peak {peak} < floor {floor}"
        );
    }
}

#[test]
fn floor_grows_with_m_at_fixed_level_count() {
    // The Ω(n^{1/ℓ}) shape: at fixed ℓ, doubling m should roughly double
    // the floor.
    let rho = Rate::new(1, 2).unwrap();
    let f4 = LowerBoundAdversary::new(2, 4, rho).unwrap().theorem_bound();
    let f8 = LowerBoundAdversary::new(2, 8, rho).unwrap().theorem_bound();
    assert!(f8 > 1.5 * f4, "floor did not scale: {f4} -> {f8}");
}

#[test]
fn tight_sigma_is_constant_as_m_grows() {
    // Burstiness of the construction must not grow with n, otherwise the
    // lower bound would be charged to σ rather than to d/rate structure.
    let rho = Rate::new(1, 2).unwrap();
    // m must keep ρ·m integral at ρ = 1/2, so sweep even m.
    let sigmas: Vec<u64> = [4u64, 6, 8, 10]
        .iter()
        .map(|&m| {
            let adv = LowerBoundAdversary::new(2, m, rho).unwrap();
            analyze(&adv.topology(), &adv.pattern(), rho).tight_sigma
        })
        .collect();
    let max = *sigmas.iter().max().unwrap();
    let min = *sigmas.iter().min().unwrap();
    assert!(max <= min + 2, "sigma drifts with m: {sigmas:?}");
}

#[test]
fn rejects_rate_at_or_below_threshold() {
    // ρ must exceed 1/(ℓ+1) for the construction to inject enough packets.
    let err = LowerBoundAdversary::new(2, 4, Rate::new(1, 3).unwrap());
    assert!(err.is_err(), "rho = 1/(l+1) must be rejected");
    let err = LowerBoundAdversary::new(2, 4, Rate::new(1, 4).unwrap());
    assert!(err.is_err());
}
