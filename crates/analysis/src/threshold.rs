//! Empirical space thresholds: the smallest buffer capacity at which a
//! scenario runs without loss.
//!
//! The paper's theorems say "occupancy never exceeds B"; with the
//! finite-buffer engine that becomes a *threshold experiment*: run with
//! capacity `c ≥ B` and zero drops must be recorded, run with `c` below
//! the workload's true peak and losses appear. [`capacity_threshold`]
//! binary-searches that boundary for a [`Scenario`]. Because a run whose
//! capacity is never hit is identical to the unbounded run, the zero-drop
//! predicate is monotone in `c` for **every** drop policy and the search
//! is sound. Under exempt staging the threshold always equals the
//! unbounded run's peak occupancy; under counted staging the enforced
//! quantity is `occupancy + staged`, so the threshold can exceed that
//! peak and the search verifies its upper bound by probing. The
//! interesting output is the comparison against the closed-form bound
//! [`Scenario::validate`] predicts (E11's table) and the loss behavior
//! just below.

use aqt_model::{DropPolicyKind, StagingMode};

use crate::scenario::{run_scenario, CapacitySpec, Scenario, ScenarioError};
use crate::sweep::RunSummary;

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
    /// Every capacity probe performed, in probe order: the uniform
    /// capacity and the run it gave.
    pub probes: Vec<(usize, RunSummary)>,
}

/// Binary-searches the smallest zero-drop uniform capacity for
/// `scenario`, with `policy` resolving overflow and `staging` deciding
/// whether staged packets count against the limit.
///
/// Every run is [`run_scenario`] on a copy of `scenario`, so topology,
/// protocol, source, settle rounds and faults all come from it. Its own
/// `capacity` is replaced on every run: by none for the one unbounded
/// reference run, and by a uniform limit `c` under `policy` and
/// `staging` for the probe at `c`. The search probes O(log peak)
/// capacities, none of them twice.
///
/// # Errors
///
/// Propagates the first [`ScenarioError`] of any run.
///
/// # Examples
///
/// ```
/// use aqt_analysis::{capacity_threshold, Scenario};
/// use aqt_adversary::SourceSpec;
/// use aqt_core::{GreedyPolicy, ProtocolSpec};
/// use aqt_model::{DropPolicyKind, StagingMode, TopologySpec};
///
/// // A burst of 4 needs exactly 4 slots at the injection site.
/// let scenario = Scenario::new(
///     TopologySpec::Path { n: 4 },
///     ProtocolSpec::Greedy { policy: GreedyPolicy::Fifo },
///     SourceSpec::Burst { round: 0, source: 0, dest: 3, size: 4 },
///     10,
/// );
/// let th = capacity_threshold(&scenario, DropPolicyKind::Tail, StagingMode::Exempt)?;
/// assert_eq!(th.threshold, 4);
/// assert!(th.drops_below.unwrap() > 0);
/// # Ok::<(), aqt_analysis::ScenarioError>(())
/// ```
pub fn capacity_threshold(
    scenario: &Scenario,
    policy: DropPolicyKind,
    staging: StagingMode,
) -> Result<CapacityThreshold, ScenarioError> {
    let mut run = scenario.clone();
    run.capacity = None;
    let unbounded_peak = run_scenario(&run)?.max_occupancy;

    let mut probes = Vec::new();
    let mut drops_at = |capacity: usize| -> Result<u64, ScenarioError> {
        run.capacity = Some(CapacitySpec::uniform(capacity, policy, staging));
        let summary = run_scenario(&run)?;
        let dropped = summary.dropped;
        probes.push((capacity, summary));
        Ok(dropped)
    };

    // Under exempt staging any capacity ≥ the unbounded peak yields a
    // run identical to the reference (zero drops). Under counted staging
    // the enforced quantity is occupancy + staged, whose transient peak
    // can exceed the observed occupancy peak for phase-batched
    // protocols — so the upper bound must be *verified*, and doubled
    // until drop-free. (Zero-drop-ness stays monotone either way: a
    // loss-free run is identical to the unbounded run, so every larger
    // capacity replays it loss-free too.)
    let (mut lo, mut hi) = (1usize, unbounded_peak.max(1));
    let mut drops_below = None;
    while let dropped @ 1.. = drops_at(hi)? {
        (lo, drops_below) = (hi + 1, Some(dropped));
        hi = hi.checked_mul(2).expect("drop-free capacity exists");
    }
    // Every lossy probe raises `lo` to one past it, so no capacity is
    // probed twice, and once `lo` is above 1 the drops one below the
    // threshold are already measured.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match drops_at(mid)? {
            0 => hi = mid,
            dropped => {
                lo = mid + 1;
                drops_below = Some(dropped);
            }
        }
    }
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
    use aqt_adversary::{Cadence, DestSpec, SourceSpec};
    use aqt_core::{GreedyPolicy, ProtocolSpec};
    use aqt_model::{FaultEvent, FaultSpec, Injection, Rate, TopologySpec, TreeSpec};

    const FIFO: ProtocolSpec = ProtocolSpec::Greedy {
        policy: GreedyPolicy::Fifo,
    };

    /// `scenario` at a uniform `capacity` under `policy` and `staging`.
    fn run_at(
        scenario: &Scenario,
        capacity: usize,
        policy: DropPolicyKind,
        staging: StagingMode,
    ) -> RunSummary {
        let mut run = scenario.clone();
        run.capacity = Some(CapacitySpec::uniform(capacity, policy, staging));
        run_scenario(&run).unwrap()
    }

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
        let mut injections = Vec::new();
        for (leaf, dests) in [(3, [0, 1, 0, 1]), (4, [1, 0, 0, 1])] {
            injections.extend(dests.map(|dest| Injection::new(0, leaf, dest)));
        }
        injections.extend([Injection::new(1, 2, 0), Injection::new(1, 2, 1)]);
        let tree = Scenario::new(
            TopologySpec::Tree(TreeSpec::Parents {
                parents: vec![None, Some(0), Some(1), Some(2), Some(2)],
            }),
            FIFO,
            SourceSpec::Pattern { injections },
            12,
        );
        let lossy = |policy, capacity| run_at(&tree, capacity, policy, StagingMode::Exempt);
        for policy in DropPolicyKind::ALL {
            let th = capacity_threshold(&tree, policy, StagingMode::Exempt).unwrap();
            assert_eq!(th.threshold, 7, "{policy:?}");
            assert_eq!(th.unbounded_peak, 7, "{policy:?}");
            assert!(th.drops_below.unwrap() > 0, "{policy:?}");
            // Every probe respected its cap.
            assert!(th.probes.iter().all(|(c, p)| p.max_occupancy <= *c));
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
        let stream = Scenario::new(
            TopologySpec::Path { n: 2 },
            FIFO,
            SourceSpec::Repeat {
                source: 0,
                dest: 1,
                per_round: 1,
                rounds: 20,
            },
            4,
        );
        let th = capacity_threshold(&stream, DropPolicyKind::Head, StagingMode::Exempt).unwrap();
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
        let hpts = Scenario::new(
            TopologySpec::Path { n: 16 },
            ProtocolSpec::Hpts { levels: 2 },
            SourceSpec::Random {
                rate: Rate::new(1, 2).unwrap(),
                sigma: 4,
                rounds: 60,
                dests: DestSpec::AnyReachable,
                cadence: Cadence::Bursty { period: 8 },
                seed: 25,
                attempts: 8,
            },
            60,
        );
        let th = capacity_threshold(&hpts, DropPolicyKind::Tail, StagingMode::Counted).unwrap();
        // Re-probe the returned threshold: it must really be drop-free,
        // and one below must not be.
        let rerun =
            |cap: usize| run_at(&hpts, cap, DropPolicyKind::Tail, StagingMode::Counted).dropped;
        assert_eq!(rerun(th.threshold), 0, "threshold must be loss-free");
        assert!(rerun(th.threshold - 1) > 0, "threshold must be smallest");
        // And for this workload the counted threshold genuinely exceeds
        // the occupancy peak — the case the old search got wrong.
        assert!(th.threshold > th.unbounded_peak);
    }

    #[test]
    fn faults_come_from_the_scenario_and_its_capacity_is_replaced() {
        // One packet a round over three hops needs one slot. An outage of
        // link 1 → 2 the scenario declares piles the stream up at node 1,
        // so the threshold rises to that pile; a capacity the scenario
        // declares is replaced on every run, so it changes nothing.
        let stream = Scenario::new(
            TopologySpec::Path { n: 4 },
            FIFO,
            SourceSpec::Repeat {
                source: 0,
                dest: 3,
                per_round: 1,
                rounds: 6,
            },
            10,
        );
        let search =
            |s: &Scenario| capacity_threshold(s, DropPolicyKind::Tail, StagingMode::Exempt);
        let plain = search(&stream).unwrap();
        assert_eq!(plain.threshold, 1);

        let mut faulted = stream.clone();
        faulted.faults = Some(FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 1,
            to: 2,
            at: 0,
            until: Some(4),
        }));
        let th = search(&faulted).unwrap();
        assert_eq!(th.threshold, 4);
        assert_eq!(th.unbounded_peak, 4);
        assert!(th.probes.iter().all(|(_, run)| run.faulted == 0));

        let mut capped = faulted.clone();
        capped.capacity = Some(CapacitySpec::uniform(
            1,
            DropPolicyKind::Head,
            StagingMode::Exempt,
        ));
        assert_eq!(search(&capped).unwrap(), th);
    }

    #[test]
    fn threshold_searches_work_on_dags() {
        // Diagonal-wave-like burst: 4 packets at the 2×2 corner cell all
        // bound for the far corner — they pile up at the source, so the
        // zero-drop threshold is the burst size.
        let mesh = Scenario::new(
            TopologySpec::Grid { rows: 2, cols: 2 },
            ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            },
            SourceSpec::Pattern {
                injections: vec![Injection::new(0, 0, 3); 4],
            },
            10,
        );
        let th = capacity_threshold(&mesh, DropPolicyKind::Tail, StagingMode::Exempt).unwrap();
        assert_eq!(th.threshold, 4);
        assert_eq!(th.unbounded_peak, 4);
        assert!(th.drops_below.unwrap() > 0);
    }
}
