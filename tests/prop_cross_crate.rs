//! Cross-crate property tests: randomized patterns flow through the
//! analyzer, the shaper and the protocols, and the paper's invariants must
//! hold on every sample.

use proptest::prelude::*;

use small_buffers::{
    analyze, bounds, brute_force_tight_sigma, shape, Greedy, GreedyPolicy, Injection, Path,
    Pattern, Ppts, Rate, Simulation,
};

const N: usize = 12;

/// Arbitrary injections on a path of `N` nodes within the first 24 rounds.
fn injections(max_len: usize) -> impl Strategy<Value = Vec<Injection>> {
    prop::collection::vec(
        (0u64..24, 0usize..N - 1, 1usize..N).prop_map(|(t, src, jump)| {
            let dest = (src + 1 + jump % (N - 1 - src)).min(N - 1).max(src + 1);
            Injection::new(t, src, dest)
        }),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The O(T) excess tracker and the O(T²·n) brute force agree on the
    /// tight σ, for several rates.
    #[test]
    fn analyzer_matches_brute_force(injs in injections(40), num in 1u32..4, den in 1u32..5) {
        prop_assume!(num <= den);
        let rate = Rate::new(num, den).unwrap();
        let topo = Path::new(N);
        let pattern = Pattern::from_injections(injs);
        let fast = analyze(&topo, &pattern, rate).tight_sigma;
        let slow = brute_force_tight_sigma(&topo, &pattern, rate);
        prop_assert_eq!(fast, slow);
    }

    /// Lemma 2.5: the ℓ-reduction of a (ρ, σ)-bounded pattern is
    /// (ℓ·ρ, σ)-bounded.
    #[test]
    fn l_reduction_preserves_sigma(injs in injections(40), l in 1u64..5) {
        let topo = Path::new(N);
        let rho = Rate::new(1, 4).unwrap();
        let pattern = Pattern::from_injections(injs);
        let sigma = analyze(&topo, &pattern, rho).tight_sigma;
        let reduced = pattern.reduce(l);
        let reduced_sigma =
            analyze(&topo, &reduced, rho.times(u32::try_from(l).unwrap())).tight_sigma;
        prop_assert!(
            reduced_sigma <= sigma,
            "reduction raised sigma {} -> {}", sigma, reduced_sigma
        );
    }

    /// The shaper really produces (ρ, σ)-bounded output, whatever it is fed.
    #[test]
    fn shaper_output_is_bounded(injs in injections(60), sigma in 0u64..5) {
        let topo = Path::new(N);
        let (shaped, _) = shape(&topo, injs.clone(), Rate::ONE, sigma);
        prop_assert_eq!(shaped.len(), injs.len(), "shaping must not drop packets");
        let tight = analyze(&topo, &shaped, Rate::ONE).tight_sigma;
        prop_assert!(tight <= sigma);
        // The shaper admits through the tracker `analyze` measures with;
        // the brute force shares no code with it.
        prop_assert!(brute_force_tight_sigma(&topo, &shaped, Rate::ONE) <= sigma);
    }

    /// Prop. 3.2 end-to-end on arbitrary shaped traffic: shape to (1, σ),
    /// run PPTS, bound by 1 + d + σ.
    #[test]
    fn ppts_bound_on_shaped_traffic(injs in injections(50), sigma in 0u64..4) {
        let topo = Path::new(N);
        let (shaped, _) = shape(&topo, injs, Rate::ONE, sigma);
        let d = shaped.destinations().len();
        let tight = analyze(&topo, &shaped, Rate::ONE).tight_sigma;
        let mut sim = Simulation::new(topo, Ppts::new(), &shaped).unwrap();
        sim.run_past_horizon(6 * N as u64).unwrap();
        let peak = sim.metrics().max_occupancy as u64;
        prop_assert!(
            peak <= bounds::ppts_bound(d, tight),
            "peak {} > 1 + {} + {}", peak, d, tight
        );
    }

    /// Greedy FIFO delivers every packet eventually (stability on the
    /// line), and conservation holds at quiescence.
    #[test]
    fn greedy_fifo_delivers_all_shaped_traffic(injs in injections(40)) {
        let topo = Path::new(N);
        let (shaped, _) = shape(&topo, injs, Rate::ONE, 2);
        let total = shaped.len() as u64;
        let mut sim =
            Simulation::new(topo, Greedy::new(GreedyPolicy::Fifo), &shaped).unwrap();
        // Horizon: every packet needs < N hops and at most `total` packets
        // can delay any one of them on a line with unit capacity.
        sim.run_past_horizon(total + 2 * N as u64).unwrap();
        prop_assert!(sim.is_drained());
        prop_assert_eq!(sim.metrics().delivered, total);
    }

    /// Latency lower bound: no packet beats its hop distance.
    #[test]
    fn latency_respects_distance(injs in injections(30)) {
        let topo = Path::new(N);
        let (shaped, _) = shape(&topo, injs, Rate::ONE, 1);
        let min_dist = shaped
            .injections()
            .iter()
            .map(|i| i.dest.index() - i.source.index())
            .min();
        let mut sim =
            Simulation::new(topo, Greedy::new(GreedyPolicy::Fifo), &shaped).unwrap();
        sim.run_past_horizon(shaped.len() as u64 + 2 * N as u64).unwrap();
        if let Some(min_dist) = min_dist {
            // Latency counts injection round inclusively, so ≥ distance.
            prop_assert!(sim.metrics().latency.delivered == 0
                || sim.metrics().latency.max_rounds as usize >= min_dist);
        }
    }
}
