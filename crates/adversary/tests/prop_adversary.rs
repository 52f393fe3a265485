//! Property tests for the adversary generators: everything they emit must
//! be (ρ, σ)-bounded by construction, across rates, cadences, shapes and
//! seeds — measured with `aqt_model::analyze`.
//!
//! The random adversaries and the shaper admit packets through the same
//! `ExcessTracker` that `analyze` measures with, so for them `analyze`
//! is not independent. Their properties therefore also measure a small
//! instance with `brute_force_tight_sigma`, which enumerates intervals
//! and shares no code with the tracker.

use proptest::prelude::*;

use aqt_adversary::{patterns, shape, Cadence, DestSpec, LowerBoundAdversary, RandomAdversary};
use aqt_model::{analyze, brute_force_tight_sigma, DirectedTree, Injection, Path, Rate};

/// Nodes and rounds of the instances measured by brute force, which
/// costs O(rounds²·nodes·injections).
const SMALL_N: usize = 12;
const SMALL_ROUNDS: u64 = 40;

fn rates() -> impl Strategy<Value = Rate> {
    (1u32..=4, 1u32..=4)
        .prop_filter("rate at most one", |(n, d)| n <= d)
        .prop_map(|(n, d)| Rate::new(n, d).expect("validated"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random path adversaries honor their budget for every cadence.
    #[test]
    fn random_path_adversary_is_bounded(
        rate in rates(),
        sigma in 0u64..6,
        seed in 0u64..1000,
        bursty in proptest::bool::ANY,
    ) {
        let topo = Path::new(24);
        let cadence = if bursty {
            Cadence::Bursty { period: 7 }
        } else {
            Cadence::Smooth
        };
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .cadence(cadence)
            .seed(seed)
            .build_path(&topo);
        let report = analyze(&topo, &pattern, rate);
        prop_assert!(
            report.tight_sigma <= sigma,
            "measured {} > budget {}",
            report.tight_sigma,
            sigma
        );
        let small = Path::new(SMALL_N);
        let pattern = RandomAdversary::new(rate, sigma, SMALL_ROUNDS)
            .cadence(cadence)
            .seed(seed)
            .build_path(&small);
        let brute = brute_force_tight_sigma(&small, &pattern, rate);
        prop_assert!(brute <= sigma, "brute force {} > budget {}", brute, sigma);
    }

    /// Random tree adversaries honor their budget and route along the
    /// orientation (validation would reject otherwise).
    #[test]
    fn random_tree_adversary_is_bounded(
        rate in rates(),
        sigma in 0u64..5,
        seed in 0u64..500,
        tree_seed in 0u64..100,
    ) {
        let tree = DirectedTree::random(30, tree_seed);
        let pattern = RandomAdversary::new(rate, sigma, 100)
            .seed(seed)
            .build_tree(&tree);
        pattern.validate(&tree).expect("routable");
        let report = analyze(&tree, &pattern, rate);
        prop_assert!(report.tight_sigma <= sigma);
        let small = DirectedTree::random(SMALL_N, tree_seed);
        let pattern = RandomAdversary::new(rate, sigma, SMALL_ROUNDS)
            .seed(seed)
            .build_tree(&small);
        let brute = brute_force_tight_sigma(&small, &pattern, rate);
        prop_assert!(brute <= sigma, "brute force {} > budget {}", brute, sigma);
    }

    /// Spread destination specs produce exactly the requested count (when
    /// it fits) and remain bounded.
    #[test]
    fn spread_spec_counts(count in 1usize..8, seed in 0u64..100) {
        let topo = Path::new(32);
        let rate = Rate::new(1, 2).expect("valid");
        let pattern = RandomAdversary::new(rate, 2, 200)
            .destinations(DestSpec::Spread { count })
            .seed(seed)
            .build_path(&topo);
        prop_assume!(!pattern.is_empty());
        prop_assert!(pattern.destinations().len() <= count);
        prop_assert!(analyze(&topo, &pattern, rate).tight_sigma <= 2);
    }

    /// The shaper emits a (ρ, σ)-bounded permutation-with-delays of its
    /// input, for any admissible (ρ, σ).
    #[test]
    fn shaper_is_bounded_for_all_rates(
        rate in rates(),
        sigma in 0u64..5,
        len in 0usize..30,
        seed in 0u64..100,
    ) {
        // Admissibility: a single packet needs ρ + σ ≥ 1.
        prop_assume!(u64::from(rate.num()) + sigma * u64::from(rate.den()) >= u64::from(rate.den()));
        let topo = Path::new(12);
        // Deterministic pseudo-random wishes from the seed.
        let wishes: Vec<Injection> = (0..len)
            .map(|k| {
                let x = seed.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                let src = (x % 11) as usize;
                let dest = src + 1 + (x / 11 % (11 - src as u64)) as usize;
                Injection::new(x % 16, src, dest)
            })
            .collect();
        let (shaped, _) = shape(&topo, wishes.clone(), rate, sigma);
        prop_assert_eq!(shaped.len(), wishes.len());
        prop_assert!(analyze(&topo, &shaped, rate).tight_sigma <= sigma);
        prop_assert!(brute_force_tight_sigma(&topo, &shaped, rate) <= sigma);
    }

    /// The §5 construction stays (ρ, O(1))-bounded across its whole
    /// parameter grid: burstiness must not grow with m or ℓ. (ℓ is kept at
    /// ≤ 2 here — instance size is (ℓ+1)·m^ℓ nodes over m^{ℓ+1} rounds and
    /// the ℓ = 3 grid alone costs minutes; the e5 experiment covers it.)
    #[test]
    fn lower_bound_pattern_sigma_is_small(l in 1u32..3, m_factor in 1u64..4) {
        // ρ = 1/ℓ > 1/(ℓ+1); m chosen a multiple of ℓ so ρ·m is integral.
        let m = u64::from(l) * m_factor + u64::from(l); // ≥ 2ℓ ≥ 2
        let rho = Rate::one_over(l).expect("valid");
        let adv = LowerBoundAdversary::new(l, m, rho).expect("valid parameters");
        let report = analyze(&adv.topology(), &adv.pattern(), rho);
        prop_assert!(
            report.tight_sigma <= 3,
            "l={} m={}: sigma {}",
            l, m, report.tight_sigma
        );
    }

    /// Deterministic pattern helpers: burst trains have period-exact
    /// bursts; paced streams are (ρ, 1)-bounded.
    #[test]
    fn paced_streams_have_pacing_slack_at_most_one(rate in rates(), rounds in 1u64..200) {
        let topo = Path::new(8);
        let pattern = patterns::paced_stream(0, 7, rate, rounds);
        prop_assert_eq!(pattern.len() as u64, rate.mul_floor(rounds));
        prop_assert!(analyze(&topo, &pattern, rate).tight_sigma <= 1);
    }

    /// peak_chase honors σ′ ≤ σ + 1 for every rate and σ (the documented
    /// contract after burst-recovery suppression).
    #[test]
    fn peak_chase_contract(rate in rates(), sigma in 0u64..5, rounds in 20u64..120) {
        let n = 16;
        let pattern = patterns::peak_chase(n, rate, sigma, rounds);
        let tight = analyze(&Path::new(n), &pattern, rate).tight_sigma;
        prop_assert!(
            tight <= sigma + 1,
            "peak_chase at rho={} sigma={}: tight {}",
            rate, sigma, tight
        );
    }
}
