//! # aqt-adversary — adversary generators for the AQT model
//!
//! Companion crate to `aqt-model` providing the injection patterns used to
//! exercise the protocols of `aqt-core`:
//!
//! * [`RandomAdversary`] — randomized bounded adversaries on paths and
//!   trees, with smooth or bursty cadence and configurable destination
//!   sets; [`RandomAdversary::stream_path`] / `stream_tree` produce a
//!   streaming [`RandomSource`] for unbounded horizons, `build_path` /
//!   `build_tree` materialize the same stream into a `Pattern`. Each
//!   candidate packet is admitted through
//!   [`ExcessTracker::try_admit`](aqt_model::ExcessTracker::try_admit),
//!   the ξ that `aqt_model::analyze` measures, so the patterns are
//!   (ρ, σ)-bounded **by construction**.
//! * deterministic [`patterns`] — bursts, paced streams, round-robin and
//!   staircase workloads with exactly known parameters, each with a
//!   `*_source` streaming variant.
//! * [`grid`] — mesh workloads on [`Dag::grid`](aqt_model::Dag::grid):
//!   row/column floods, diagonal waves toward the far corner, and
//!   leaky-bucket-shaped cross traffic.
//! * [`LowerBoundAdversary`] — the paper's Section 5 construction, which
//!   forces Ω(((ℓ+1)ρ−1)/2ℓ · n^{1/ℓ}) buffer usage against *every*
//!   forwarding protocol.
//! * [`shape`] / [`ShapingSource`] — a leaky-bucket shaper that turns
//!   arbitrary wish streams into bounded patterns, materialized or
//!   streaming.
//!
//! ## Example
//!
//! ```
//! use aqt_adversary::{LowerBoundAdversary, RandomAdversary};
//! use aqt_model::{analyze, Path, Rate};
//!
//! // A bounded random adversary…
//! let topo = Path::new(32);
//! let rho = Rate::new(1, 2)?;
//! let random = RandomAdversary::new(rho, 3, 200).seed(1).build_path(&topo);
//! assert!(analyze(&topo, &random, rho).tight_sigma <= 3);
//!
//! // …and the §5 worst case.
//! let lb = LowerBoundAdversary::new(2, 4, rho)?;
//! assert_eq!(lb.pattern().len(), 3 * 2 * 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod grid;
mod lower_bound;
pub mod patterns;
mod random;
mod shaper;
mod spec;

pub use lower_bound::{LowerBoundAdversary, LowerBoundError};
pub use random::{Cadence, DestSpec, RandomAdversary, RandomSource};
pub use shaper::{shape, ShapingSource};
pub use spec::{SourceProfile, SourceSpec, SourceSpecError, PROFILE_DRAIN_CAP};
