//! # aqt-model — Adversarial Queuing Theory substrate
//!
//! The simulation substrate for the reproduction of *"With Great Speed Come
//! Small Buffers: Space-Bandwidth Tradeoffs for Routing"* (Miller,
//! Patt-Shamir, Rosenbaum; PODC 2019).
//!
//! This crate implements the model of the paper's Section 2:
//!
//! * **Topologies** — the directed path ([`Path`]), directed trees with
//!   edges oriented toward the root ([`DirectedTree`]), and general
//!   acyclic networks with precomputed next-hop routing ([`Dag`]: grids,
//!   butterflies, diamonds, random DAGs), unified by the [`Topology`]
//!   trait. Paths and trees embed losslessly into [`Dag`] via `From`.
//! * **Packets and patterns** — an adversary is a set of packets
//!   `(t, i_P, w_P)` ([`Pattern`] of [`Injection`]s), with the ℓ-reduction
//!   of Def. 2.4 available as [`Pattern::reduce`].
//! * **(ρ, σ)-boundedness** — exact rational rates ([`Rate`]), the excess
//!   measure ξ of Def. 2.2 ([`ExcessTracker`]) and tight-σ measurement
//!   ([`analyze`]).
//! * **The synchronous engine** — [`Simulation`] executes
//!   injection/forwarding rounds against any [`Protocol`], enforcing the
//!   one-packet-per-link capacity constraint and recording the metric the
//!   paper's theorems bound: peak buffer occupancy ([`RunMetrics`]).
//! * **Streaming injection** — [`InjectionSource`] feeds the engine one
//!   round of injections at a time ([`Simulation::from_source`]), so
//!   long-horizon runs need O(live packets) memory instead of
//!   materializing the whole schedule; [`PatternSource`] adapts a
//!   [`Pattern`], [`FnSource`] wraps a closure.
//! * **Finite buffers** — [`Simulation::with_capacity`] caps buffers
//!   ([`CapacityConfig`]) and lets a [`DropPolicyKind`] (tail, head,
//!   farthest or newest) pick the packet each overflow loses,
//!   turning every occupancy bound into a falsifiable zero-drop
//!   threshold; losses land in [`RunMetrics::dropped`] and goodput is
//!   exact ([`RunMetrics::goodput`]).
//! * **Fault injection** — [`Simulation::with_faults`] applies a seeded,
//!   deterministic [`FaultSpec`] (link failures with recovery, node
//!   crashes, partitions, link delays); packets lost to faults are
//!   counted ([`RunMetrics::faulted`]), never silently dropped, so
//!   conservation holds in degraded regimes too.
//!
//! Forwarding algorithms themselves (PTS, PPTS, HPTS, …) live in
//! `aqt-core`; adversary generators (including the paper's §5 lower-bound
//! construction) live in `aqt-adversary`.
//!
//! ## Example
//!
//! ```
//! use aqt_model::{analyze, Injection, Path, Pattern, Rate};
//!
//! // Three packets crossing buffer 1 in one round is a burst of σ = 2 at
//! // rate 1.
//! let pattern = Pattern::from_injections(vec![
//!     Injection::new(0, 0, 4),
//!     Injection::new(0, 1, 4),
//!     Injection::new(0, 1, 3),
//! ]);
//! let report = analyze(&Path::new(5), &pattern, Rate::ONE);
//! assert_eq!(report.tight_sigma, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod boundedness;
mod capacity;
mod engine;
mod fault;
mod ids;
mod metrics;
mod packet;
mod pattern;
mod probe;
mod rate;
mod source;
mod state;
mod topology;
pub mod util;

pub use boundedness::{
    analyze, brute_force_tight_sigma, interval_load, is_bounded, BoundednessReport, ExcessTracker,
};
pub use capacity::{CapacityConfig, DropPolicyKind, StagingMode};
pub use engine::{ForwardingPlan, InjectionMode, ModelError, Protocol, RoundOutcome, Simulation};
pub use fault::{FaultEvent, FaultSpec, FaultState};
pub use ids::{NodeId, PacketId, Round};
pub use metrics::{LatencyStats, RunMetrics};
pub use packet::{Packet, StoredPacket};
pub use pattern::{Injection, Pattern, PatternError, Rounds};
pub use probe::{EnginePhase, Probe};
pub use rate::{Rate, RateError};
pub use source::{FnSource, InjectionSource, PatternSource};
pub use state::NetworkState;
pub use topology::{
    AnyTopology, Dag, DagError, DirectedTree, Path, Topology, TopologySpec, TopologySpecError,
    TreeError, TreeSpec,
};
