//! # aqt-telemetry — streaming telemetry for AQT runs
//!
//! The million-node engine (`aqt-model`) is a black box at scale: the
//! `aqt-trace` `Tracer` materializes a per-node occupancy row every
//! sampled round, so it keeps O(cell cap) memory only by decimating.
//! This crate observes a run through the same engine
//! [`Probe`](aqt_model::Probe) hooks but keeps **bounded** aggregates
//! of every round:
//!
//! * [`TelemetryCounters`] — whole-run injected/accepted/forwarded/
//!   delivered/dropped totals (O(1)).
//! * [`HistogramSketch`] — log2-bucket sketches of buffer occupancy
//!   (sampled at the paper's `L^t` measurement point, every node
//!   counted, at O(active nodes) per sampled round) and packet
//!   end-to-end latency (O(buckets) ≤ 65 words each).
//! * [`RoundSeries`] — a bounded ring buffer of per-round
//!   [`RoundSample`]s with a configurable stride, so long-horizon runs
//!   keep O(capacity) samples, not O(rounds).
//! * [`TelemetryProfile`] — per-phase wall-time (inject/plan/forward/
//!   merge). Wall time comes from an
//!   injectable [`Clock`]; the default [`NullClock`] returns 0, so
//!   library runs never read the wall clock (the real clock lives in
//!   `aqt-bench`, keeping the workspace no-wall-clock lint clean).
//!
//! The entry point is [`TelemetryProbe`]: hand it to
//! `Simulation::step_probed`/`run_past_horizon_probed` (or to the
//! `aqt-analysis` scenario runner `run_scenario_probed`, building it
//! from the scenario's `TelemetrySpec`), then call
//! [`TelemetryProbe::report`] for a serializable [`TelemetryReport`].
//!
//! ## Determinism
//!
//! A probe receives only shared references to engine state, so a probed
//! run is byte-identical in `RunMetrics` to a plain one. The report is
//! split accordingly:
//!
//! * [`TelemetryReport::data`] is deterministic: every hook it reads
//!   fires in a fixed order with a payload that depends only on the
//!   scenario.
//! * [`TelemetryReport::profile`] carries wall-time figures that
//!   legitimately vary with the clock, and is excluded from conformance
//!   comparison.
//!
//! ## Example
//!
//! ```
//! use aqt_model::{
//!     ForwardingPlan, Injection, NetworkState, Path, Pattern, Protocol, Round, Simulation,
//!     Topology,
//! };
//! use aqt_telemetry::{TelemetryProbe, TelemetrySpec};
//!
//! /// Forward every non-empty buffer.
//! struct Drain;
//! impl<T: Topology> Protocol<T> for Drain {
//!     fn name(&self) -> String {
//!         "drain".into()
//!     }
//!     fn plan(&mut self, _: Round, _: &T, state: &NetworkState, plan: &mut ForwardingPlan) {
//!         for v in 0..state.node_count() {
//!             let v = aqt_model::NodeId::new(v);
//!             if let Some(top) = state.lifo_top_where(v, |_| true) {
//!                 plan.send(v, top.id());
//!             }
//!         }
//!     }
//! }
//!
//! let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
//! let mut sim = Simulation::new(Path::new(4), Drain, &pattern)?;
//! let mut probe = TelemetryProbe::new(TelemetrySpec::default());
//! sim.run_past_horizon_probed(8, &mut probe)?;
//! let report = probe.report();
//! assert_eq!(report.data.counters.delivered, 1);
//! assert_eq!(report.data.latency.count(), 1);
//! # Ok::<(), aqt_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod clock;
mod probe;
mod report;
mod series;
mod sketch;

pub use clock::{Clock, NullClock, TickClock};
pub use probe::{TelemetryProbe, TelemetrySpec};
pub use report::{PhaseStat, TelemetryCounters, TelemetryData, TelemetryProfile, TelemetryReport};
pub use series::{RoundSample, RoundSeries, SeriesData};
pub use sketch::HistogramSketch;
