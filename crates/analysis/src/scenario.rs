//! The declarative scenario layer: one serializable [`Scenario`] spec and
//! one generic runner.
//!
//! A scenario is the *complete, reproducible description of a run* —
//! topology, protocol, workload, settle time and (optionally) finite
//! buffers — as plain data. Serialize it and you have an artifact any
//! future build can replay bit-for-bit; hand it to [`run_scenario`] and
//! the stack assembles itself:
//!
//! 1. [`TopologySpec::build`] → an [`AnyTopology`](aqt_model::AnyTopology);
//! 2. [`ProtocolSpec::build`] → a boxed protocol, with per-topology
//!    applicability checked (PTS on a grid is an error, not a panic);
//! 3. [`SourceSpec::build`] → a boxed streaming injection source;
//! 4. the engine runs to the source horizon plus `extra` settle rounds.
//!
//! The result is byte-identical to the same run wired by hand on
//! [`Simulation`] — `tests/scenario_conformance.rs` proves it across the
//! protocol × topology × capacity matrix. [`Scenario::validate`] is the
//! one place that states what the paper predicts for a scenario: its
//! (ρ, σ*) and the closed-form peak bounds. [`ScenarioGrid`] expands
//! whole parameter grids (topologies × protocols × sources × capacities)
//! and [`run_grid`] routes them through the deterministic parallel sweep;
//! `sweep::parallel_with_threads(&scenarios, n, run_scenario)` runs any
//! list of scenarios the same way.
//!
//! Dispatch cost: the scenario layer adds one enum-match per `Topology`
//! call and one vtable hop per protocol/source call. These sit outside
//! the per-packet inner loops (the engine calls `plan` once per round,
//! `next_round` once per round), so scenario-driven runs measure within
//! noise of the hand-wired ones — see DESIGN.md §2e for numbers.

use std::fmt;

use aqt_adversary::{SourceSpec, SourceSpecError};
use aqt_core::{ProtocolSpec, ProtocolSpecError};
use aqt_model::{
    CapacityConfig, DropPolicyKind, FaultSpec, ModelError, Probe, Simulation, StagingMode,
    Topology, TopologySpec, TopologySpecError,
};
use aqt_telemetry::TelemetrySpec;
use serde::{Deserialize, Serialize};

use crate::sweep::{self, RunSummary};
use crate::validate::check_node_ranges;

/// Finite-buffer enforcement for a scenario: the capacity limits plus the
/// drop policy consulted on overflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitySpec {
    /// Buffer limits (uniform or per-node) and staging mode.
    pub config: CapacityConfig,
    /// Which packet loses when a buffer overflows.
    pub policy: DropPolicyKind,
}

impl CapacitySpec {
    /// Every buffer holds at most `capacity` packets, `policy` resolves
    /// overflow, and `staging` decides whether staged packets count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, as [`CapacityConfig::uniform`] does.
    pub fn uniform(capacity: usize, policy: DropPolicyKind, staging: StagingMode) -> Self {
        CapacitySpec {
            config: CapacityConfig::uniform(capacity).staging(staging),
            policy,
        }
    }
}

/// A complete, serializable description of one run.
///
/// # Examples
///
/// ```
/// use aqt_analysis::{run_scenario, Scenario};
/// use aqt_core::{GreedyPolicy, ProtocolSpec};
/// use aqt_adversary::SourceSpec;
/// use aqt_model::TopologySpec;
///
/// let scenario = Scenario {
///     name: Some("one burst across a diamond".into()),
///     topology: TopologySpec::Diamond { width: 3 },
///     protocol: ProtocolSpec::DagGreedy { policy: GreedyPolicy::Fifo },
///     source: SourceSpec::Burst { round: 0, source: 0, dest: 4, size: 3 },
///     extra: 10,
///     capacity: None,
///     telemetry: None,
///     faults: None,
/// };
/// let summary = run_scenario(&scenario)?;
/// assert_eq!(summary.delivered, 3);
///
/// // Any run is a reproducible artifact: the spec roundtrips as JSON.
/// let json = serde_json::to_string(&scenario).unwrap();
/// assert_eq!(scenario, serde_json::from_str(&json).unwrap());
/// # Ok::<(), aqt_analysis::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Optional display name for reports.
    pub name: Option<String>,
    /// The network.
    pub topology: TopologySpec,
    /// The forwarding algorithm (applicability checked against
    /// `topology` at build time).
    pub protocol: ProtocolSpec,
    /// The injection workload.
    pub source: SourceSpec,
    /// Settle rounds past the source horizon.
    pub extra: u64,
    /// Finite buffers, or `None` for the unbounded engine.
    pub capacity: Option<CapacitySpec>,
    /// Streaming telemetry configuration: the spec a caller builds its
    /// `TelemetryProbe` from before handing it to
    /// [`run_scenario_probed`] (`scenarios --telemetry` does), or `None`
    /// for the default spec. The runners never read this field, so
    /// attaching a spec never changes a summary. Absent in older JSON
    /// artifacts, which deserialize as `None`.
    pub telemetry: Option<TelemetrySpec>,
    /// Deterministic fault schedule applied by every runner, or `None`
    /// (and an empty spec behaves bit-for-bit like `None`). Absent in
    /// older JSON artifacts, which deserialize as `None`.
    pub faults: Option<FaultSpec>,
}

impl Scenario {
    /// The unnamed, unbounded, fault-free scenario of `source` against
    /// `protocol` on `topology`, run `extra` rounds past the source
    /// horizon.
    pub fn new(
        topology: TopologySpec,
        protocol: ProtocolSpec,
        source: SourceSpec,
        extra: u64,
    ) -> Self {
        Scenario {
            name: None,
            topology,
            protocol,
            source,
            extra,
            capacity: None,
            telemetry: None,
            faults: None,
        }
    }

    /// The display name, falling back to a `protocol kind @ topology
    /// kind` synthesis.
    pub fn display_name(&self) -> String {
        self.name.clone().unwrap_or_else(|| {
            format!(
                "{} @ {} / {}",
                self.protocol.kind(),
                self.topology.kind(),
                self.source.kind()
            )
        })
    }
}

/// Why a [`Scenario`] could not be built or run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The topology spec was invalid.
    Topology(TopologySpecError),
    /// The protocol spec was invalid or inapplicable.
    Protocol(ProtocolSpecError),
    /// The source spec was invalid or inapplicable.
    Source(SourceSpecError),
    /// The engine rejected the run (invalid injection or plan).
    Model(ModelError),
    /// A static validation check failed: the specs build individually
    /// but the combination is provably broken without running it.
    Static {
        /// The check that fired, e.g. `"round0-capacity"`.
        check: &'static str,
        /// Why the scenario cannot behave as intended.
        reason: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Topology(e) => write!(f, "{e}"),
            ScenarioError::Protocol(e) => write!(f, "{e}"),
            ScenarioError::Source(e) => write!(f, "{e}"),
            ScenarioError::Model(e) => write!(f, "{e}"),
            ScenarioError::Static { check, reason } => {
                write!(f, "static check {check} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Topology(e) => Some(e),
            ScenarioError::Protocol(e) => Some(e),
            ScenarioError::Source(e) => Some(e),
            ScenarioError::Model(e) => Some(e),
            ScenarioError::Static { .. } => None,
        }
    }
}

impl From<TopologySpecError> for ScenarioError {
    fn from(e: TopologySpecError) -> Self {
        ScenarioError::Topology(e)
    }
}

impl From<ProtocolSpecError> for ScenarioError {
    fn from(e: ProtocolSpecError) -> Self {
        ScenarioError::Protocol(e)
    }
}

impl From<SourceSpecError> for ScenarioError {
    fn from(e: SourceSpecError) -> Self {
        ScenarioError::Source(e)
    }
}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

/// Executes one [`Scenario`] and distills the metrics into a
/// [`RunSummary`] — the single generic runner behind every workload the
/// specs describe. A run the specs cannot describe is wired on
/// [`Simulation`] and distilled with [`RunSummary::from_metrics`].
///
/// # Errors
///
/// Returns a [`ScenarioError`] if any spec fails to build (invalid
/// parameters, protocol/workload not applicable to the topology, a
/// capacity or fault spec naming a node the topology lacks) or the
/// engine rejects the run.
pub fn run_scenario(scenario: &Scenario) -> Result<RunSummary, ScenarioError> {
    run_scenario_probed(scenario, &mut ())
}

/// [`run_scenario`] with `probe` observing every round — a
/// `TelemetryProbe`, an `aqt-trace` `Tracer` or invariant monitors, or
/// `()` for none.
///
/// The probe cannot perturb the run (`tests/probe_conformance.rs` pins
/// this).
///
/// Assembly: builds the topology, protocol and source specs, checks
/// that the capacity and fault specs name only existing nodes (the
/// engine would panic on them), then applies capacity and faults.
///
/// # Errors
///
/// Exactly as [`run_scenario`].
pub fn run_scenario_probed<Pr: Probe + ?Sized>(
    scenario: &Scenario,
    probe: &mut Pr,
) -> Result<RunSummary, ScenarioError> {
    let topology = scenario.topology.build()?;
    let protocol = scenario.protocol.build(&topology)?;
    let source = scenario.source.build(&topology)?;
    check_node_ranges(scenario, topology.node_count())?;
    let mut sim = Simulation::from_source(topology, protocol, source);
    if let Some(cap) = &scenario.capacity {
        sim = sim.with_capacity(cap.config.clone(), cap.policy);
    }
    if let Some(faults) = &scenario.faults {
        sim = sim.with_faults(faults);
    }
    sim.run_past_horizon_probed(scenario.extra, probe)?;
    Ok(RunSummary::from_metrics(
        sim.protocol().name(),
        sim.metrics(),
    ))
}

/// A serializable scenario *grid*: the cartesian product of topology,
/// protocol, source and capacity axes, expanded in a deterministic
/// (input-major) order.
///
/// Every future parameter sweep is a data file: check the grid in as
/// JSON, expand it, and route it through [`run_grid`], which executes on
/// the deterministic parallel sweep — results come back in expansion
/// order, identical to a serial run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// Optional display name for reports.
    pub name: Option<String>,
    /// Topology axis (must be non-empty to expand to anything).
    pub topologies: Vec<TopologySpec>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolSpec>,
    /// Workload axis.
    pub sources: Vec<SourceSpec>,
    /// Capacity axis; an empty list means one unbounded point.
    pub capacities: Vec<Option<CapacitySpec>>,
    /// Settle rounds for every expanded scenario.
    pub extra: u64,
}

impl ScenarioGrid {
    /// Number of scenarios [`expand`](ScenarioGrid::expand) will produce.
    pub fn len(&self) -> usize {
        self.topologies.len()
            * self.protocols.len()
            * self.sources.len()
            * self.capacities.len().max(1)
    }

    /// Whether the grid expands to nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the axes into concrete scenarios, topology-major (then
    /// protocol, source, capacity) — a deterministic order the parallel
    /// sweep's input-order merge preserves.
    pub fn expand(&self) -> Vec<Scenario> {
        let capacities: &[Option<CapacitySpec>] = if self.capacities.is_empty() {
            &[None]
        } else {
            &self.capacities
        };
        let mut out = Vec::with_capacity(self.len());
        for topology in &self.topologies {
            for protocol in &self.protocols {
                for source in &self.sources {
                    for capacity in capacities {
                        out.push(Scenario {
                            name: None,
                            topology: topology.clone(),
                            protocol: protocol.clone(),
                            source: source.clone(),
                            extra: self.extra,
                            capacity: capacity.clone(),
                            telemetry: None,
                            faults: None,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Runs every scenario of `grid` through the deterministic parallel
/// sweep ([`sweep::parallel`]): results come back in expansion order, so
/// a parallel grid run equals a serial one point-for-point.
pub fn run_grid(grid: &ScenarioGrid) -> Vec<Result<RunSummary, ScenarioError>> {
    sweep::parallel(&grid.expand(), run_scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::GreedyPolicy;
    use aqt_model::{DropPolicyKind, Rate, StagingMode, TreeSpec};

    fn burst_scenario() -> Scenario {
        Scenario {
            name: None,
            topology: TopologySpec::Path { n: 4 },
            protocol: ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 3,
                size: 4,
            },
            extra: 10,
            capacity: None,
            telemetry: None,
            faults: None,
        }
    }

    #[test]
    fn scenario_runs_and_matches_the_generic_runner() {
        let summary = run_scenario(&burst_scenario()).unwrap();
        assert_eq!(summary.protocol, "Greedy-FIFO");
        assert_eq!(summary.injected, 4);
        assert_eq!(summary.delivered, 4);
        assert_eq!(summary.max_occupancy, 4);
    }

    #[test]
    fn capacity_spec_enforces_losses() {
        let mut scenario = burst_scenario();
        scenario.capacity = Some(CapacitySpec {
            config: CapacityConfig::uniform(2),
            policy: DropPolicyKind::Tail,
        });
        let summary = run_scenario(&scenario).unwrap();
        assert_eq!(summary.dropped, 2);
        assert_eq!(summary.delivered, 2);
        assert_eq!(summary.goodput, Some(Rate::new(1, 2).unwrap()));
    }

    #[test]
    fn inapplicable_protocol_is_a_scenario_error() {
        let mut scenario = burst_scenario();
        scenario.topology = TopologySpec::Grid { rows: 2, cols: 2 };
        scenario.protocol = ProtocolSpec::Ppts { eager: false };
        scenario.source = SourceSpec::AllFloods { rounds: 2 };
        let err = run_scenario(&scenario).map(|_| ()).unwrap_err();
        assert!(matches!(err, ScenarioError::Protocol(_)));
        assert!(err.to_string().contains("requires a path"));
    }

    #[test]
    fn scenario_roundtrips_through_json_values() {
        use aqt_model::FaultEvent;
        let mut scenario = burst_scenario();
        scenario.name = Some("burst".into());
        scenario.capacity = Some(CapacitySpec {
            config: CapacityConfig::uniform(3).staging(StagingMode::Counted),
            policy: DropPolicyKind::Farthest,
        });
        scenario.faults = Some(
            FaultSpec::new(7)
                .with_event(FaultEvent::LinkDown {
                    from: 1,
                    to: 2,
                    at: 3,
                    until: Some(6),
                })
                .with_event(FaultEvent::RandomLinks {
                    count: 2,
                    at: 0,
                    until: Some(4),
                }),
        );
        let json = serde_json::to_string(&scenario).unwrap();
        assert_eq!(serde_json::from_str::<Scenario>(&json).unwrap(), scenario);
    }

    #[test]
    fn faulted_scenario_runs_and_empty_spec_matches_none() {
        use aqt_model::FaultEvent;
        // A recovering outage on the burst's route delays but does not
        // lose traffic.
        let mut scenario = burst_scenario();
        scenario.faults = Some(FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 1,
            to: 2,
            at: 0,
            until: Some(4),
        }));
        let summary = run_scenario(&scenario).unwrap();
        assert_eq!(summary.delivered, 4);
        assert_eq!(summary.faulted, 0);
        assert!(summary.max_latency > run_scenario(&burst_scenario()).unwrap().max_latency);

        // An empty spec is bit-identical to no spec.
        let mut empty = burst_scenario();
        empty.faults = Some(FaultSpec::default());
        assert_eq!(
            run_scenario(&empty).unwrap(),
            run_scenario(&burst_scenario()).unwrap()
        );
    }

    #[test]
    fn grid_expands_topology_major_and_runs_deterministically() {
        let grid = ScenarioGrid {
            name: Some("smoke".into()),
            topologies: vec![
                TopologySpec::Path { n: 4 },
                TopologySpec::Tree(TreeSpec::Star { leaves: 3 }),
            ],
            protocols: vec![
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Lifo,
                },
            ],
            sources: vec![SourceSpec::Pattern {
                injections: vec![aqt_model::Injection::new(0, 1, 0)],
            }],
            capacities: Vec::new(),
            extra: 6,
        };
        assert_eq!(grid.len(), 4);
        let scenarios = grid.expand();
        assert_eq!(scenarios.len(), 4);
        // Topology-major: the first two run on the path.
        assert_eq!(scenarios[0].topology, TopologySpec::Path { n: 4 });
        assert_eq!(scenarios[1].topology, TopologySpec::Path { n: 4 });
        // The path scenarios fail (1 → 0 is not routable left-to-right);
        // the star scenarios (leaf 1 → root 0) succeed: per-point errors
        // do not poison the grid.
        let results = run_grid(&grid);
        assert!(results[0].is_err() && results[1].is_err());
        assert!(results[2].is_ok() && results[3].is_ok());
        let serial = sweep::serial(&scenarios, run_scenario);
        assert_eq!(results, serial);
    }

    #[test]
    fn grid_roundtrips() {
        let grid = ScenarioGrid {
            name: None,
            topologies: vec![TopologySpec::Grid { rows: 2, cols: 3 }],
            protocols: vec![ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::NearestToGo,
            }],
            sources: vec![SourceSpec::DiagonalWave {
                per_step: 1,
                gap: 1,
            }],
            capacities: vec![
                None,
                Some(CapacitySpec {
                    config: CapacityConfig::uniform(2),
                    policy: DropPolicyKind::Head,
                }),
            ],
            extra: 20,
        };
        let json = serde_json::to_string(&grid).unwrap();
        assert_eq!(serde_json::from_str::<ScenarioGrid>(&json).unwrap(), grid);
        assert_eq!(grid.len(), 2);
        let results = run_grid(&grid);
        assert_eq!(results.len(), 2);
        for r in results {
            r.unwrap();
        }
    }

    #[test]
    fn display_name_synthesizes_when_unnamed() {
        let scenario = burst_scenario();
        assert_eq!(scenario.display_name(), "greedy @ path / burst");
    }
}
