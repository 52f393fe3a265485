//! Static scenario validation: analyze a [`Scenario`] *without running
//! it* — the `scenarios check` subcommand and the dry-run half of the
//! static-analysis layer (DESIGN.md §3).
//!
//! [`Scenario::validate`] builds every spec (so all of PR 5's
//! applicability and range checks fire), then statically profiles the
//! injection schedule ([`SourceSpec::profile`]) and cross-checks it
//! against the capacity config and the protocol:
//!
//! * **errors** ([`ScenarioError::Static`]) for combinations that are
//!   provably broken before round 0 ends — e.g. more round-0 injections
//!   at a node than its buffer can hold under a staging mode that cannot
//!   defer them;
//! * **warnings** for legal-but-suspect specs (sustained overload, HPTS
//!   run past its ρ·ℓ ≤ 1 premise, PTS fed traffic for destinations it
//!   was not built for, a capacity limit below the predicted loss-free
//!   threshold);
//! * **predictions**: the paper's closed-form peak-buffer bounds
//!   (Props. 3.1/3.2/B.3/3.5, Thm. 4.1) and the measured E12 diag-wave
//!   closed form, each tagged exact (equality) or upper bound, so a later
//!   run can be checked against its static prediction.

use aqt_adversary::SourceSpec;
use aqt_core::{Hierarchy, ProtocolSpec};
use aqt_model::{
    AnyTopology, FaultEvent, FaultSpec, InjectionMode, NodeId, Rate, Round, StagingMode, Topology,
    TopologySpec,
};
use serde::Serialize;

use crate::bounds;
use crate::scenario::{CapacitySpec, Scenario, ScenarioError, ScenarioGrid};

/// One closed-form statement about a scenario's future run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Prediction {
    /// What is predicted: `"peak_occupancy"` or `"zero_drop_capacity"`.
    pub metric: String,
    /// The predicted value.
    pub value: u64,
    /// Where the number comes from, e.g. `"2 + sigma (Prop. 3.1)"`.
    pub formula: String,
    /// `true` for an exact equality, `false` for an upper bound.
    pub exact: bool,
}

/// The result of statically validating one [`Scenario`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StaticReport {
    /// Scenario display name.
    pub scenario: String,
    /// Topology family (`"path"` / `"tree"` / `"dag"`).
    pub family: String,
    /// Node count.
    pub nodes: u64,
    /// Protocol kind.
    pub protocol: String,
    /// Source horizon in rounds, when finite and known.
    pub horizon: Option<u64>,
    /// Total injected packets, when statically known.
    pub injections: Option<u64>,
    /// The (ρ, σ) bound the workload satisfies, when known.
    pub bound: Option<Rate>,
    /// The σ of that bound.
    pub sigma: Option<u64>,
    /// Closed-form predictions a run can later be checked against.
    pub predictions: Vec<Prediction>,
    /// Legal-but-suspect findings.
    pub warnings: Vec<String>,
}

impl StaticReport {
    /// The predicted value for `metric`, if any.
    pub fn prediction(&self, metric: &str) -> Option<&Prediction> {
        self.predictions.iter().find(|p| p.metric == metric)
    }
}

/// Whether round-0 injections can outlast the round under this
/// protocol/staging combination (if so, `k > limit` cannot drop yet).
fn round0_can_defer(mode: InjectionMode, staging: StagingMode) -> bool {
    match mode {
        // Immediate injection lands in the buffer during round 0: k
        // packets arrive together, so k > limit drops before the
        // protocol forwards anything.
        InjectionMode::Immediate => false,
        // Batched injection stages packets; with Exempt staging the
        // staging area is free spillover space, with Counted it
        // occupies the same limit.
        InjectionMode::Batched { .. } => staging == StagingMode::Exempt,
    }
}

fn check_round0_capacity(
    round0: &[(usize, usize)],
    cap: &CapacitySpec,
    mode: InjectionMode,
) -> Result<(), ScenarioError> {
    if round0_can_defer(mode, cap.config.staging_mode()) {
        return Ok(());
    }
    for &(node, count) in round0 {
        let limit = cap.config.limit(NodeId::new(node));
        if count > limit {
            return Err(ScenarioError::Static {
                check: "round0-capacity",
                reason: format!(
                    "node {node} receives {count} round-0 injections but its buffer \
                     holds only {limit}; drops are guaranteed before the protocol \
                     can forward a single packet"
                ),
            });
        }
    }
    Ok(())
}

/// A zero stride or capacity in a telemetry spec is always a mistake
/// (the probe would clamp it to 1, silently ignoring the written
/// value), so `scenarios check` refuses it before any run.
fn check_telemetry_strides(spec: &aqt_telemetry::TelemetrySpec) -> Result<(), ScenarioError> {
    for (field, value) in [
        ("series_capacity", spec.series_capacity),
        ("series_stride", spec.series_stride),
        ("occupancy_stride", spec.occupancy_stride),
    ] {
        if value == 0 {
            return Err(ScenarioError::Static {
                check: "telemetry-strides",
                reason: format!(
                    "telemetry.{field} is 0; strides and capacities must be >= 1 \
                     (1 = every round / unthinned)"
                ),
            });
        }
    }
    Ok(())
}

/// Checks that the capacity and fault specs name only nodes of an
/// `n`-node topology — the engine asserts both, so the run path
/// ([`run_scenario_probed`](crate::run_scenario_probed), behind every
/// runner) calls this before building the simulation, as
/// [`Scenario::validate`] does:
///
/// * `"capacity-nodes"` — a per-node capacity list must have exactly one
///   limit per node;
/// * `"fault-bounds"` — every node a fault event names must exist.
pub(crate) fn check_node_ranges(scenario: &Scenario, n: usize) -> Result<(), ScenarioError> {
    if let Some(len) = scenario
        .capacity
        .as_ref()
        .and_then(|c| c.config.node_count())
    {
        if len != n {
            return Err(ScenarioError::Static {
                check: "capacity-nodes",
                reason: format!(
                    "the per-node capacity list has {len} limits for a {n}-node topology"
                ),
            });
        }
    }
    let check = |what: &str, v: usize| -> Result<(), ScenarioError> {
        if v >= n {
            return Err(ScenarioError::Static {
                check: "fault-bounds",
                reason: format!("fault event {what} names node {v}, out of range (n = {n})"),
            });
        }
        Ok(())
    };
    for event in scenario.faults.iter().flat_map(|f| &f.events) {
        match event {
            FaultEvent::LinkDown { from, to, .. } | FaultEvent::LinkDelay { from, to, .. } => {
                check("link", *from)?;
                check("link", *to)?;
            }
            FaultEvent::NodeCrash { node, .. } => check("crash", *node)?,
            FaultEvent::Partition { group, .. } => {
                for &v in group {
                    check("partition", v)?;
                }
            }
            FaultEvent::RandomLinks { .. } => {}
        }
    }
    Ok(())
}

/// `"fault-severed-route"`: a *permanent* (never-recovering) fault that
/// cuts the unique route of a `(source, dest)` pair the schedule actually
/// injects on guarantees those packets are never delivered, so the
/// scenario is provably broken before round 0. Recovering faults
/// (`until` set) and delays never trigger this check. Assumes
/// [`check_node_ranges`] passed.
fn check_fault_schedule(
    topology: &AnyTopology,
    faults: &FaultSpec,
    pairs: Option<&[(usize, usize)]>,
) -> Result<(), ScenarioError> {
    let Some(pairs) = pairs else {
        return Ok(());
    };
    let mask = faults.permanent_mask(topology);
    if mask.is_empty() {
        return Ok(());
    }
    // The permanent mask is round-independent, so probing at round 0
    // answers for every round.
    let t = Round::ZERO;
    for &(s, d) in pairs {
        let dest = NodeId::new(d);
        let mut v = NodeId::new(s);
        let severed = loop {
            if mask.is_node_down(v) {
                break true;
            }
            if v == dest {
                break false;
            }
            // An unroutable pair is the source spec's problem, not the
            // fault schedule's.
            let Some(hop) = topology.next_hop(v, dest) else {
                break false;
            };
            if mask.blocks(v, hop, t) {
                break true;
            }
            v = hop;
        };
        if severed {
            return Err(ScenarioError::Static {
                check: "fault-severed-route",
                reason: format!(
                    "the fault schedule permanently severs the route {s} -> {d}, which \
                     the source injects on; those packets can never be delivered"
                ),
            });
        }
    }
    Ok(())
}

/// Destination-depth d′ for Tree-PPTS (Prop. 3.5): the maximum number of
/// destinations on any single root path. On a directed tree a node's
/// root path is exactly the set of nodes it reaches, and every root path
/// is contained in some leaf's, so the max over leaves suffices.
fn tree_dest_depth(topo: &AnyTopology, dests: &[usize]) -> Option<usize> {
    let tree = topo.as_tree()?;
    (0..tree.node_count())
        .map(NodeId::new)
        .filter(|&v| tree.is_leaf(v))
        .map(|leaf| {
            dests
                .iter()
                .filter(|&&w| tree.reaches(leaf, NodeId::new(w)))
                .count()
        })
        .max()
}

impl Scenario {
    /// Statically validates the scenario and derives closed-form
    /// predictions, without executing a single round.
    ///
    /// # Errors
    ///
    /// Everything [`run_scenario`](crate::run_scenario) would reject at
    /// build time ([`ScenarioError::Topology`] / `Protocol` / `Source`),
    /// plus [`ScenarioError::Static`] for combinations that are provably
    /// broken before they run (see the module docs).
    pub fn validate(&self) -> Result<StaticReport, ScenarioError> {
        let topology = self.topology.build()?;
        let protocol = self.protocol.build(&topology)?;
        let profile = self.source.profile(&topology)?;

        check_node_ranges(self, topology.node_count())?;
        if let Some(cap) = &self.capacity {
            check_round0_capacity(&profile.round0, cap, protocol.injection_mode())?;
        }
        if let Some(t) = &self.telemetry {
            check_telemetry_strides(t)?;
        }
        if let Some(f) = &self.faults {
            check_fault_schedule(&topology, f, profile.pairs.as_deref())?;
        }

        let mut warnings = Vec::new();
        if profile.sustained_overload {
            warnings.push(
                "source sustains more than 1 packet per round: every finite buffer \
                 eventually overflows"
                    .to_string(),
            );
        }

        let n = topology.node_count();
        let bound = profile.bound;
        // The paper's peak bounds all assume ρ ≤ 1; past that only the
        // overload warning applies.
        let usable_sigma = bound.filter(|(rate, _)| rate.num() <= rate.den());
        let mut predictions = Vec::new();

        match &self.protocol {
            ProtocolSpec::Pts { dest, .. } => {
                let target = dest.unwrap_or(n - 1);
                if let Some(dests) = &profile.dests {
                    if dests.iter().any(|&w| w != target) {
                        warnings.push(format!(
                            "pts is proven for the single destination {target}, but the \
                             source also targets {dests:?}"
                        ));
                    }
                }
                if let Some((_, sigma)) = usable_sigma {
                    predictions.push(Prediction {
                        metric: "peak_occupancy".into(),
                        value: bounds::pts_bound(sigma),
                        formula: format!("2 + sigma = 2 + {sigma} (Prop. 3.1)"),
                        exact: false,
                    });
                }
            }
            ProtocolSpec::Ppts { .. } => {
                if let (Some((_, sigma)), Some(dests)) = (usable_sigma, &profile.dests) {
                    let d = dests.len();
                    predictions.push(Prediction {
                        metric: "peak_occupancy".into(),
                        value: bounds::ppts_bound(d, sigma),
                        formula: format!("1 + d + sigma = 1 + {d} + {sigma} (Prop. 3.2)"),
                        exact: false,
                    });
                }
            }
            ProtocolSpec::Hpts { levels } => {
                if let Some((rate, _)) = bound {
                    if u64::from(rate.num()) * u64::from(*levels) > u64::from(rate.den()) {
                        warnings.push(format!(
                            "hpts with {levels} levels at rate {rate} violates the \
                             Thm. 4.1 premise rho * l <= 1"
                        ));
                    }
                }
                if let (Some((_, sigma)), Ok(h)) = (usable_sigma, Hierarchy::covering(n, *levels)) {
                    let (l, m) = (h.levels(), h.base());
                    predictions.push(Prediction {
                        metric: "peak_occupancy".into(),
                        value: bounds::hpts_bound(l, m, sigma),
                        formula: format!("l*m + sigma + 1 = {l}*{m} + {sigma} + 1 (Thm. 4.1)"),
                        exact: false,
                    });
                }
            }
            ProtocolSpec::TreePts { dest } => {
                let target =
                    dest.unwrap_or_else(|| topology.as_tree().map_or(0, |t| t.root().index()));
                if let Some(dests) = &profile.dests {
                    if dests.iter().any(|&w| w != target) {
                        warnings.push(format!(
                            "tree_pts is proven for the single destination {target}, but \
                             the source also targets {dests:?}"
                        ));
                    }
                }
                if let Some((_, sigma)) = usable_sigma {
                    predictions.push(Prediction {
                        metric: "peak_occupancy".into(),
                        value: bounds::tree_pts_bound(sigma),
                        formula: format!("2 + sigma = 2 + {sigma} (Prop. B.3)"),
                        exact: false,
                    });
                }
            }
            ProtocolSpec::TreePpts => {
                if let (Some((_, sigma)), Some(dests)) = (usable_sigma, &profile.dests) {
                    if let Some(d_prime) = tree_dest_depth(&topology, dests) {
                        predictions.push(Prediction {
                            metric: "peak_occupancy".into(),
                            value: bounds::tree_ppts_bound(d_prime, sigma),
                            formula: format!(
                                "1 + d' + sigma = 1 + {d_prime} + {sigma} (Prop. 3.5)"
                            ),
                            exact: false,
                        });
                    }
                }
            }
            ProtocolSpec::Greedy { .. } | ProtocolSpec::DagGreedy { .. } => {
                // The measured E12 closed form: greedy forwarding under
                // the diagonal wave on a deep-enough mesh.
                if let (
                    TopologySpec::Grid { rows, cols },
                    SourceSpec::DiagonalWave { per_step, gap },
                ) = (&self.topology, &self.source)
                {
                    if let Some(peak) = bounds::grid_diag_wave_peak(*rows, *cols, *per_step, *gap) {
                        predictions.push(Prediction {
                            metric: "peak_occupancy".into(),
                            value: peak,
                            formula: format!(
                                "per_step * cols + 1 = {per_step} * {cols} + 1 \
                                 (measured E12 closed form)"
                            ),
                            exact: true,
                        });
                    }
                }
            }
            ProtocolSpec::Batched { .. } => {}
        }

        // The E11b/E12b contract: under Exempt staging the zero-drop
        // capacity threshold equals the unbounded run's peak, so every
        // peak prediction doubles as a capacity threshold.
        if let Some(peak) = predictions
            .iter()
            .find(|p| p.metric == "peak_occupancy")
            .cloned()
        {
            predictions.push(Prediction {
                metric: "zero_drop_capacity".into(),
                value: peak.value,
                formula: format!(
                    "uniform capacity at the predicted peak admits every packet \
                     under Exempt staging ({})",
                    peak.formula
                ),
                exact: peak.exact,
            });
            if let Some(cap) = &self.capacity {
                if cap.config.staging_mode() == StagingMode::Exempt {
                    let tightest = (0..n)
                        .map(|v| cap.config.limit(NodeId::new(v)))
                        .min()
                        .unwrap_or(usize::MAX);
                    if peak.exact && (tightest as u64) < peak.value {
                        warnings.push(format!(
                            "capacity limit {tightest} is below the predicted peak \
                             {} — drops are expected",
                            peak.value
                        ));
                    }
                }
            }
        }

        Ok(StaticReport {
            scenario: self.display_name(),
            family: topology.family().to_string(),
            nodes: n as u64,
            protocol: self.protocol.kind().to_string(),
            horizon: profile.horizon,
            injections: profile.injections,
            bound: bound.map(|(rate, _)| rate),
            sigma: bound.map(|(_, sigma)| sigma),
            predictions,
            warnings,
        })
    }
}

impl ScenarioGrid {
    /// Statically validates every expanded scenario of the grid, in
    /// expansion order (see [`ScenarioGrid::expand`]).
    pub fn validate(&self) -> Vec<Result<StaticReport, ScenarioError>> {
        self.expand().iter().map(Scenario::validate).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::GreedyPolicy;
    use aqt_model::{CapacityConfig, DropPolicyKind};

    fn diag_scenario() -> Scenario {
        Scenario {
            name: None,
            topology: TopologySpec::Grid { rows: 4, cols: 4 },
            protocol: ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::DiagonalWave {
                per_step: 1,
                gap: 1,
            },
            extra: 100,
            capacity: None,
            telemetry: None,
            faults: None,
        }
    }

    #[test]
    fn diag_wave_prediction_is_exact_and_matches_the_run() {
        let report = diag_scenario().validate().unwrap();
        let peak = report.prediction("peak_occupancy").unwrap();
        assert!(peak.exact);
        assert_eq!(peak.value, 5);
        assert_eq!(report.prediction("zero_drop_capacity").unwrap().value, 5);
        // The static prediction matches the actual engine run.
        let summary = crate::run_scenario(&diag_scenario()).unwrap();
        assert_eq!(summary.max_occupancy as u64, peak.value);
    }

    #[test]
    fn round0_overflow_is_a_static_error() {
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 6 },
            protocol: ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 5,
                size: 8,
            },
            extra: 20,
            capacity: Some(CapacitySpec {
                config: CapacityConfig::uniform(2),
                policy: DropPolicyKind::Tail,
            }),
            telemetry: None,
            faults: None,
        };
        let err = scenario.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Static {
                check: "round0-capacity",
                ..
            }
        ));
        assert!(err.to_string().contains("8 round-0 injections"));
        // The same burst against roomier buffers is fine.
        let mut ok = scenario;
        ok.capacity = Some(CapacitySpec {
            config: CapacityConfig::uniform(8),
            policy: DropPolicyKind::Tail,
        });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn zero_telemetry_stride_is_a_static_error() {
        let mut scenario = diag_scenario();
        scenario.telemetry = Some(aqt_telemetry::TelemetrySpec {
            series_capacity: 1024,
            series_stride: 0,
            occupancy_stride: 1,
        });
        let err = scenario.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Static {
                check: "telemetry-strides",
                ..
            }
        ));
        assert!(err.to_string().contains("series_stride"));
        // A well-formed spec passes.
        scenario.telemetry = Some(aqt_telemetry::TelemetrySpec::default());
        assert!(scenario.validate().is_ok());
    }

    #[test]
    fn pts_bound_prediction_covers_the_measured_peak() {
        // The checked-in two-wave artifact shape: tight sigma 4 at the
        // Prop. 3.1 bound.
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 16 },
            protocol: ProtocolSpec::Pts {
                dest: None,
                eager: true,
            },
            source: SourceSpec::Pattern {
                injections: vec![
                    aqt_model::Injection::new(0, 8, 15),
                    aqt_model::Injection::new(1, 8, 15),
                    aqt_model::Injection::new(1, 8, 15),
                    aqt_model::Injection::new(1, 8, 15),
                    aqt_model::Injection::new(1, 8, 15),
                    aqt_model::Injection::new(1, 8, 15),
                ],
            },
            extra: 200,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        let report = scenario.validate().unwrap();
        assert_eq!(report.sigma, Some(4));
        let peak = report.prediction("peak_occupancy").unwrap();
        assert_eq!(peak.value, 6);
        assert!(!peak.exact);
        assert!(report.warnings.is_empty());
        let summary = crate::run_scenario(&scenario).unwrap();
        assert!(summary.max_occupancy as u64 <= peak.value);
    }

    #[test]
    fn warnings_flag_suspect_but_legal_specs() {
        // PTS fed traffic for a destination it was not built for.
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 8 },
            protocol: ProtocolSpec::Pts {
                dest: Some(7),
                eager: false,
            },
            source: SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 4,
                size: 2,
            },
            extra: 20,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        let report = scenario.validate().unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("pts is proven")));

        // Sustained overload.
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 8 },
            protocol: ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Repeat {
                source: 0,
                dest: 7,
                per_round: 2,
                rounds: 1_000_000,
            },
            extra: 20,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        let report = scenario.validate().unwrap();
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("eventually overflows")));

        // HPTS past its rho * l <= 1 premise.
        let scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 16 },
            protocol: ProtocolSpec::Hpts { levels: 2 },
            source: SourceSpec::PeakChase {
                rate: Rate::ONE,
                sigma: 2,
                rounds: 40,
            },
            extra: 40,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        let report = scenario.validate().unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("Thm. 4.1")));
        // The Thm. 4.1 formula is still reported: l*m + sigma + 1 = 2*4 + 2 + 1.
        assert_eq!(report.prediction("peak_occupancy").unwrap().value, 11);
    }

    #[test]
    fn out_of_range_fault_node_is_a_static_error() {
        let mut scenario = diag_scenario();
        scenario.faults = Some(FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 99,
            at: 0,
            until: None,
        }));
        let err = scenario.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Static {
                check: "fault-bounds",
                ..
            }
        ));
        assert!(err.to_string().contains("node 99"));
    }

    #[test]
    fn permanently_severed_route_is_a_static_error() {
        // Burst 0 → 5 on a path; killing link 2 → 3 forever guarantees
        // the burst can never be delivered.
        let mut scenario = Scenario {
            name: None,
            topology: TopologySpec::Path { n: 6 },
            protocol: ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 5,
                size: 2,
            },
            extra: 20,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        scenario.faults = Some(FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 2,
            to: 3,
            at: 0,
            until: None,
        }));
        let err = scenario.validate().unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::Static {
                check: "fault-severed-route",
                ..
            }
        ));
        assert!(err.to_string().contains("0 -> 5"));

        // The same outage with a recovery window is legal: the route
        // heals, so delivery is merely delayed.
        scenario.faults = Some(FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 2,
            to: 3,
            at: 0,
            until: Some(10),
        }));
        assert!(scenario.validate().is_ok());

        // A permanent outage off the used route is also legal.
        scenario.faults = Some(FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 4,
            to: 3,
            at: 0,
            until: None,
        }));
        assert!(scenario.validate().is_ok());
    }

    #[test]
    fn grid_validation_covers_every_expanded_point() {
        let grid = ScenarioGrid {
            name: None,
            topologies: vec![
                TopologySpec::Grid { rows: 4, cols: 4 },
                TopologySpec::Grid { rows: 4, cols: 8 },
            ],
            protocols: vec![ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            }],
            sources: vec![SourceSpec::DiagonalWave {
                per_step: 1,
                gap: 1,
            }],
            capacities: Vec::new(),
            extra: 100,
        };
        let reports = grid.validate();
        assert_eq!(reports.len(), 2);
        let peaks: Vec<u64> = reports
            .iter()
            .map(|r| {
                r.as_ref()
                    .unwrap()
                    .prediction("peak_occupancy")
                    .unwrap()
                    .value
            })
            .collect();
        assert_eq!(peaks, vec![5, 9]);
    }
}
