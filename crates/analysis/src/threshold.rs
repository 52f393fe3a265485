//! Empirical space thresholds: the smallest buffer capacity at which a
//! protocol survives a workload without loss.
//!
//! The paper's theorems say "occupancy never exceeds B"; with the
//! finite-buffer engine that becomes a *threshold experiment*: run with
//! capacity `c ≥ B` and zero drops must be recorded, run with `c` below
//! the workload's true peak and losses appear. [`capacity_threshold`]
//! binary-searches that boundary. Because a run whose capacity is never
//! hit is identical to the unbounded run, the zero-drop predicate is
//! monotone in `c` for **every** drop policy and the search is sound.
//! Under exempt staging the threshold always equals the unbounded run's
//! peak occupancy; under counted staging the enforced quantity is
//! `occupancy + staged`, so the threshold can exceed that peak and the
//! search verifies its upper bound by probing. The interesting output is
//! the comparison against the closed-form bound (E11's table) and the
//! loss behavior just below.

use aqt_model::{
    CapacityConfig, DropPolicyKind, InjectionSource, ModelError, Protocol, Round, Simulation,
    StagingMode, Topology,
};

/// One capacity probe of a threshold search.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityProbe {
    /// Uniform buffer capacity of this probe.
    pub capacity: usize,
    /// Packets dropped at that capacity.
    pub dropped: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets injected.
    pub injected: u64,
    /// Peak occupancy reached (≤ capacity by construction).
    pub max_occupancy: usize,
    /// Round of the first drop, if any.
    pub first_drop_round: Option<Round>,
}

/// Result of a [`capacity_threshold`] search.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityThreshold {
    /// Smallest uniform capacity with zero drops.
    pub threshold: usize,
    /// Peak occupancy of the unbounded reference run. Equal to
    /// `threshold` under [`StagingMode::Exempt`] whenever the workload
    /// buffers anything at all; under [`StagingMode::Counted`] the
    /// threshold can exceed it (staged packets count too).
    pub unbounded_peak: usize,
    /// Drops recorded one below the threshold (`None` when the threshold
    /// is already 1, the smallest legal capacity).
    pub drops_below: Option<u64>,
    /// Every capacity probe performed, in probe order.
    pub probes: Vec<CapacityProbe>,
}

/// Binary-searches the smallest zero-drop uniform capacity for
/// `(protocol, source)` on `topology`, with `policy` resolving overflow.
///
/// The factories are invoked once per probe (a run consumes its protocol
/// and source); each probe runs to the source horizon plus `extra`
/// settle rounds, like [`run_scenario`](crate::run_scenario). The search
/// probes O(log peak) capacities plus one unbounded reference run.
///
/// # Errors
///
/// Propagates the first engine error from any probe.
///
/// # Examples
///
/// ```
/// use aqt_analysis::capacity_threshold;
/// use aqt_core::{Greedy, GreedyPolicy};
/// use aqt_model::{DropPolicyKind, Injection, Path, Pattern, PatternSource, StagingMode};
///
/// // A burst of 4 needs exactly 4 slots at the injection site.
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3); 4]);
/// let th = capacity_threshold(
///     &Path::new(4),
///     || Greedy::new(GreedyPolicy::Fifo),
///     || PatternSource::new(&pattern),
///     DropPolicyKind::Tail,
///     StagingMode::Exempt,
///     10,
/// )?;
/// assert_eq!(th.threshold, 4);
/// assert!(th.drops_below.unwrap() > 0);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
pub fn capacity_threshold<T, P, S, FP, FS>(
    topology: &T,
    mk_protocol: FP,
    mk_source: FS,
    policy: DropPolicyKind,
    staging: StagingMode,
    extra: u64,
) -> Result<CapacityThreshold, ModelError>
where
    T: Topology + Clone,
    P: Protocol<T>,
    S: InjectionSource,
    FP: Fn() -> P,
    FS: Fn() -> S,
{
    let mut reference = Simulation::from_source(topology.clone(), mk_protocol(), mk_source());
    reference.run_past_horizon(extra)?;
    let unbounded_peak = reference.metrics().max_occupancy;

    let probe = |capacity: usize| -> Result<CapacityProbe, ModelError> {
        let mut sim = Simulation::from_source(topology.clone(), mk_protocol(), mk_source())
            .with_capacity(CapacityConfig::uniform(capacity).staging(staging), policy);
        sim.run_past_horizon(extra)?;
        let m = sim.metrics();
        Ok(CapacityProbe {
            capacity,
            dropped: m.dropped,
            delivered: m.delivered,
            injected: m.injected,
            max_occupancy: m.max_occupancy,
            first_drop_round: m.first_drop_round,
        })
    };

    let mut probes = Vec::new();
    // Under exempt staging any capacity ≥ the unbounded peak yields a
    // run identical to the reference (zero drops). Under counted staging
    // the enforced quantity is occupancy + staged, whose transient peak
    // can exceed the observed occupancy peak for phase-batched
    // protocols — so the upper bound must be *verified*, and doubled
    // until drop-free. (Zero-drop-ness stays monotone either way: a
    // loss-free run is identical to the unbounded run, so every larger
    // capacity replays it loss-free too.)
    let mut hi = unbounded_peak.max(1);
    loop {
        let p = probe(hi)?;
        let zero = p.dropped == 0;
        probes.push(p);
        if zero {
            break;
        }
        hi = hi.checked_mul(2).expect("drop-free capacity exists");
    }
    let mut lo = 1usize;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let p = probe(mid)?;
        let zero = p.dropped == 0;
        probes.push(p);
        if zero {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let drops_below = if lo > 1 {
        match probes.iter().find(|p| p.capacity == lo - 1) {
            Some(p) => Some(p.dropped),
            None => {
                let p = probe(lo - 1)?;
                let d = p.dropped;
                probes.push(p);
                Some(d)
            }
        }
    } else {
        None
    };
    Ok(CapacityThreshold {
        threshold: lo,
        unbounded_peak,
        drops_below,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Greedy, GreedyPolicy};
    use aqt_model::{DirectedTree, FnSource, Injection, Path, Pattern, PatternSource, Rate};

    #[test]
    fn threshold_equals_unbounded_peak() {
        // Leaves 3 and 4 each burst four packets toward the root and
        // node 1; node 2, their parent, bursts two a round later. Node 2
        // receives two packets a round and sends one, so it peaks at 7.
        // Its packets' destinations lie one and two hops away, and its own
        // packets are newer than the leaves', so one below the threshold
        // `Head`, `Farthest` and `Newest` each evict a stored packet: a
        // policy that only ever rejected the incoming packet would replay
        // `Tail`'s run exactly.
        let tree = DirectedTree::from_parents(&[None, Some(0), Some(1), Some(2), Some(2)]).unwrap();
        let mut injections = Vec::new();
        for (leaf, dests) in [(3, [0, 1, 0, 1]), (4, [1, 0, 0, 1])] {
            injections.extend(dests.map(|dest| Injection::new(0, leaf, dest)));
        }
        injections.extend([Injection::new(1, 2, 0), Injection::new(1, 2, 1)]);
        let pattern = Pattern::from_injections(injections);
        let lossy = |policy, capacity| {
            let mut sim = Simulation::new(tree.clone(), Greedy::new(GreedyPolicy::Fifo), &pattern)
                .unwrap()
                .with_capacity(CapacityConfig::uniform(capacity), policy);
            sim.run_past_horizon(12).unwrap();
            sim.metrics().clone()
        };
        for policy in DropPolicyKind::ALL {
            let th = capacity_threshold(
                &tree,
                || Greedy::new(GreedyPolicy::Fifo),
                || PatternSource::new(&pattern),
                policy,
                StagingMode::Exempt,
                12,
            )
            .unwrap();
            assert_eq!(th.threshold, 7, "{policy:?}");
            assert_eq!(th.unbounded_peak, 7, "{policy:?}");
            assert!(th.drops_below.unwrap() > 0, "{policy:?}");
            // Every probe respected its cap.
            assert!(th.probes.iter().all(|p| p.max_occupancy <= p.capacity));
            if policy != DropPolicyKind::Tail {
                assert_ne!(
                    lossy(policy, th.threshold - 1),
                    lossy(DropPolicyKind::Tail, th.threshold - 1),
                    "{policy:?} must evict a stored packet below the threshold"
                );
            }
        }
    }

    #[test]
    fn threshold_of_gentle_stream_is_small() {
        // One packet per round over one hop: never more than 1 buffered.
        let th = capacity_threshold(
            &Path::new(2),
            || Greedy::new(GreedyPolicy::Fifo),
            || FnSource::new(20, |t, out| out.push(Injection::new(t, 0, 1))),
            DropPolicyKind::Head,
            StagingMode::Exempt,
            4,
        )
        .unwrap();
        assert_eq!(th.threshold, 1);
        assert_eq!(th.drops_below, None);
    }

    #[test]
    fn counted_staging_threshold_is_actually_loss_free() {
        // Regression: under counted staging the enforced quantity is
        // occupancy + staged, whose peak exceeds the unbounded
        // occupancy peak for phase-batched protocols — the search must
        // not trust the occupancy peak as a drop-free upper bound.
        // (HPTS ℓ=2 on a bursty ρ=1/2 adversary, seed 25, reproduced a
        // threshold that dropped packets before the probed upper bound.)
        use aqt_adversary::{Cadence, RandomAdversary};
        use aqt_core::Hpts;
        use aqt_model::{CapacityConfig, PatternSource};
        let n = 16usize;
        let rho = Rate::new(1, 2).unwrap();
        let pattern = RandomAdversary::new(rho, 4, 60)
            .cadence(Cadence::Bursty { period: 8 })
            .seed(25)
            .build_path(&Path::new(n));
        let th = capacity_threshold(
            &Path::new(n),
            || Hpts::for_line(n, 2).unwrap(),
            || PatternSource::new(&pattern),
            DropPolicyKind::Tail,
            StagingMode::Counted,
            60,
        )
        .unwrap();
        // Re-probe the returned threshold: it must really be drop-free,
        // and one below must not be.
        let rerun = |cap: usize| {
            let mut sim = Simulation::from_source(
                Path::new(n),
                Hpts::for_line(n, 2).unwrap(),
                PatternSource::new(&pattern),
            )
            .with_capacity(
                CapacityConfig::uniform(cap).staging(StagingMode::Counted),
                DropPolicyKind::Tail,
            );
            sim.run_past_horizon(60).unwrap();
            sim.metrics().dropped
        };
        assert_eq!(rerun(th.threshold), 0, "threshold must be loss-free");
        assert!(rerun(th.threshold - 1) > 0, "threshold must be smallest");
        // And for this workload the counted threshold genuinely exceeds
        // the occupancy peak — the case the old search got wrong.
        assert!(th.threshold > th.unbounded_peak);
    }

    #[test]
    fn threshold_searches_work_on_dags() {
        use aqt_core::DagGreedy;
        use aqt_model::{Dag, Pattern};
        // Diagonal-wave-like burst: 4 packets at the 2×2 corner cell all
        // bound for the far corner — they pile up at the source, so the
        // zero-drop threshold is the burst size.
        let mesh = Dag::grid(2, 2);
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3); 4]);
        let th = capacity_threshold(
            &mesh,
            DagGreedy::fifo,
            || PatternSource::new(&pattern),
            DropPolicyKind::Tail,
            StagingMode::Exempt,
            10,
        )
        .unwrap();
        assert_eq!(th.threshold, 4);
        assert_eq!(th.unbounded_peak, 4);
        assert!(th.drops_below.unwrap() > 0);
    }
}
