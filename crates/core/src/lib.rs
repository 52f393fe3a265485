//! # aqt-core — the paper's forwarding algorithms
//!
//! Implementations of every algorithm in *"With Great Speed Come Small
//! Buffers: Space-Bandwidth Tradeoffs for Routing"* (PODC 2019), plus the
//! classical greedy baselines the paper is positioned against:
//!
//! | Protocol | Paper | Space bound |
//! |----------|-------|-------------|
//! | [`Pts`] | Alg. 1, Prop. 3.1: Tree-PPTS on a path with one destination | `2 + σ` (single destination, path) |
//! | [`Ppts`] | Alg. 2, Prop. 3.2: Tree-PPTS on a path | `1 + d + σ` (d destinations, path) |
//! | [`TreePts`] | App. B.2, Prop. B.3: Tree-PPTS with one destination | `2 + σ` (directed tree) |
//! | [`TreePpts`] | Alg. 6, Prop. 3.5: the one peak-to-sink planner, [`pts::PeakToSink`], of which the three rows above are cases | `1 + d′ + σ` (tree, d′ = max destinations per leaf-root path) |
//! | [`Hpts`] | Algs. 3–5, Thm. 4.1 | `ℓ·n^{1/ℓ} + σ + 1` (ρ·ℓ ≤ 1) |
//! | [`HptsD`] | abstract's d-version (**experimental**): HPTS over the zones between destinations; HPTS is the case where every node is a destination | `ℓ·(d+1)^{1/ℓ} + σ + 1`, validated empirically |
//! | [`LocalPts`] | open problem (**exploratory**) | locality-r restriction of PTS; no bound claimed |
//! | [`Greedy`] | classical AQT | none matching the above |
//! | [`DagGreedy`] | grid/DAG extension (cf. Even–Medina grids) | per-link greedy; coincides with [`Greedy`] on paths/trees |
//!
//! [`Batched`] wraps any immediate-injection protocol in the ℓ-reduction's
//! phase staging, so the staging dimension of the capacity experiments is
//! available for every baseline.
//!
//! All protocols implement [`aqt_model::Protocol`] and run under the
//! `aqt-model` engine; they are pure functions of the observable
//! configuration (plus their own parameters), never mutating the network
//! directly. The paper's planners keep a class table of the buffers
//! across rounds, but only as a cache: each plan first brings it up to
//! date with the configuration it is given.
//!
//! The [`badness`] module exposes the potential functions from the proofs
//! so tests can check invariants *during* execution, and [`hpts::Hierarchy`]
//! exposes the hierarchical geometry reused by the Figure-1 renderer.
//!
//! ## Example
//!
//! ```
//! use aqt_core::{Greedy, GreedyPolicy, Ppts};
//! use aqt_model::{Injection, Path, Pattern, Simulation};
//!
//! // d = 2 destinations; PPTS honors 1 + d + σ.
//! let pattern: Pattern = (0..40u64)
//!     .map(|t| Injection::new(t, 0, if t % 2 == 0 { 7 } else { 4 }))
//!     .collect();
//! let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern)?;
//! sim.run(60)?;
//! assert!(sim.metrics().max_occupancy <= 1 + 2 + 1);
//! # Ok::<(), aqt_model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod badness;
mod batched;
mod classes;
mod dag;
mod greedy;
pub mod hpts;
mod local;
pub mod pts;
mod spec;
mod tree;

pub use batched::Batched;
pub use dag::DagGreedy;
pub use greedy::{Greedy, GreedyPolicy};
pub use hpts::{DestSpaceError, Hierarchy, Hpts, HptsD, LevelSchedule};
pub use local::LocalPts;
pub use pts::{Ppts, PseudoPriority, Pts};
pub use spec::{ProtocolSpec, ProtocolSpecError};
pub use tree::{low_antichain, TreePpts, TreePts};
