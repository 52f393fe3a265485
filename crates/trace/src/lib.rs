//! # aqt-trace — execution tracing and invariant monitoring
//!
//! Debugging and verification companion to the small-buffers simulator:
//!
//! * [`Tracer`] — a [`Probe`](aqt_model::Probe) that records a
//!   serializable [`Trace`] (per-round configurations `L^t` and the moves
//!   the engine applied) of any run, without changing behavior.
//! * [`Monitor`] / [`Monitors`] — online invariant checking at the
//!   paper's measurement point: [`Monitors`] is a probe any run attaches
//!   with `run_past_horizon_probed`. [`BadnessExcessMonitor`]
//!   checks the proof invariant `B^t(i) ≤ ξ_t(i) + 1` that drives
//!   Props. 3.1/3.2 — *while* the protocol runs.
//! * [`sparkline`] / [`heatmap`] / [`loss_heatmap`] — ASCII renderings of
//!   occupancy (and, for capacity-bounded runs, packet loss) over space
//!   and time.
//! * [`histogram`] — bar-chart rendering for the log2-bucket
//!   [`HistogramSketch`]es that `aqt-telemetry` probes collect, so a
//!   telemetry report can be eyeballed without leaving the terminal.
//!
//! [`Tracer`] keeps memory bounded on long or large runs: past a
//! configurable cell cap it decimates the trace in place (doubling its
//! sampling stride) rather than growing without bound.
//!
//! ## Example: trace a run and render it
//!
//! ```
//! use aqt_core::Ppts;
//! use aqt_model::{Injection, Path, Pattern, Simulation};
//! use aqt_trace::{heatmap, Tracer};
//!
//! let pattern: Pattern = (0..16u64).map(|t| Injection::new(t, 0, 7)).collect();
//! let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern)?;
//! let mut tracer = Tracer::new("PPTS");
//! sim.run_past_horizon_probed(20, &mut tracer)?;
//! let trace = tracer.trace();
//! assert_eq!(trace.peak() as usize, sim.metrics().max_occupancy);
//! let art = heatmap(trace, 60, 8);
//! assert!(art.contains("PPTS"));
//! # Ok::<(), aqt_model::ModelError>(())
//! ```
//!
//! ## Example: check a proof invariant online
//!
//! ```
//! use aqt_core::Ppts;
//! use aqt_model::{Injection, Path, Pattern, Rate, Simulation};
//! use aqt_trace::{BadnessExcessMonitor, Monitors};
//!
//! let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 5); 3]);
//! let monitor = BadnessExcessMonitor::new(6, &pattern, Rate::ONE);
//! let mut monitors = Monitors::new(vec![Box::new(monitor)]);
//! let mut sim = Simulation::new(Path::new(6), Ppts::new(), &pattern)?;
//! sim.run_past_horizon_probed(30, &mut monitors)?;
//! assert!(monitors.violation().is_none());
//! assert!(sim.metrics().max_occupancy <= 1 + 1 + 2); // 1 + d + σ
//! # Ok::<(), aqt_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod monitor;
mod render;
mod traced;

pub use event::{RoundRecord, SendRecord, Trace};
pub use monitor::{BadnessExcessMonitor, Monitor, Monitors, OccupancyMonitor, Violation};
pub use render::{grid_heatmap, heatmap, histogram, loss_heatmap, sparkline};
pub use traced::Tracer;

pub use aqt_telemetry::HistogramSketch;
