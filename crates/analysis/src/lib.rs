//! # aqt-analysis — bounds, sweeps and report rendering
//!
//! The glue between the algorithms (`aqt-core`), the adversaries
//! (`aqt-adversary`) and the experiment harness (`aqt-bench`):
//!
//! * [`Scenario`] / [`run_scenario`] — the declarative layer: one
//!   serializable spec describing topology × protocol × workload ×
//!   capacity, one generic runner executing it and distilling the run
//!   to a [`RunSummary`], the quantities the theorems speak about;
//!   [`ScenarioGrid`] expands whole parameter grids and [`run_grid`]
//!   sweeps them in parallel;
//! * [`Scenario::validate`] / [`StaticReport`] — the static checker behind
//!   `scenarios check` and the one place that prices a scenario against
//!   the paper: applicability, capacity sanity, the schedule's (ρ, σ*) and
//!   the closed-form peak predictions, computed without executing a round;
//! * [`bounds`] — the paper's bound formulas as executable functions;
//! * [`run_scenario_probed`] — any scenario with an engine
//!   [`Probe`](aqt_model::Probe) attached: a streaming
//!   `TelemetryProbe` (`aqt-telemetry`), an `aqt-trace` `Tracer` or
//!   invariant monitors;
//! * [`sweep`] — scoped-thread parameter sweeps, the one parallel layer
//!   (every run steps on one thread): [`sweep::parallel`] scatters a
//!   grid of independent runs across cores and merges deterministically
//!   (equal to [`sweep::serial`] for pure functions);
//! * [`capacity_threshold`] — finite-buffer experiments: binary-search
//!   the smallest zero-drop uniform capacity of a [`Scenario`] under any
//!   [`DropPolicyKind`](aqt_model::DropPolicyKind), every probe a
//!   [`run_scenario`] of it, so a threshold row replays from its spec and
//!   compares with the `zero_drop_capacity` [`Scenario::validate`]
//!   predicts;
//! * [`Table`] / [`Verdict`] — bound-vs-measured table rendering (ASCII +
//!   CSV);
//! * [`render_figure1`] — the paper's Figure 1 as ASCII art.
//!
//! ## Example
//!
//! ```
//! use aqt_analysis::{bounds, run_scenario, Scenario, Verdict};
//! use aqt_adversary::SourceSpec;
//! use aqt_core::ProtocolSpec;
//! use aqt_model::TopologySpec;
//!
//! // A σ = 2 burst against PTS, described as data.
//! let scenario = Scenario {
//!     name: None,
//!     topology: TopologySpec::Path { n: 8 },
//!     protocol: ProtocolSpec::Pts { dest: None, eager: false },
//!     source: SourceSpec::Burst { round: 0, source: 0, dest: 7, size: 3 },
//!     extra: 20,
//!     capacity: None,
//!     telemetry: None,
//!     faults: None,
//! };
//! let summary = run_scenario(&scenario)?;
//! let bound = bounds::pts_bound(2);
//! assert_eq!(Verdict::upper(summary.max_occupancy as u64, bound), Verdict::Holds);
//! # Ok::<(), aqt_analysis::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bounds;
mod experiment;
mod figure1;
mod scenario;
pub mod sweep;
mod threshold;
mod validate;

pub use experiment::{Table, Verdict};
pub use figure1::render_figure1;
pub use scenario::{
    run_grid, run_scenario, run_scenario_probed, CapacitySpec, Scenario, ScenarioError,
    ScenarioGrid,
};
pub use sweep::RunSummary;
pub use threshold::{capacity_threshold, CapacityThreshold};
pub use validate::{Prediction, StaticReport};
