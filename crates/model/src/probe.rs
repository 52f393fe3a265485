//! Engine observation hooks: the [`Probe`] trait and the
//! [`EnginePhase`]s it times.

use crate::engine::RoundOutcome;
use crate::fault::FaultState;
use crate::ids::{NodeId, PacketId, Round};
use crate::packet::Packet;
use crate::state::NetworkState;

/// Phases of one engine round, as reported to [`Probe::on_phase`].
///
/// Every round reports `Inject`, `Plan`, `Forward`, `Merge` in that
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePhase {
    /// Injection step: staged acceptance, this round's injections, and
    /// the `L^t` observation.
    Inject,
    /// Protocol planning.
    Plan,
    /// Move validation and collection — the forwarding step's read half.
    Forward,
    /// Move application: removals, placements (with drop-policy calls
    /// under capacity) and deliveries.
    Merge,
}

impl EnginePhase {
    /// All phases, in round order.
    pub const ALL: [EnginePhase; 4] = [
        EnginePhase::Inject,
        EnginePhase::Plan,
        EnginePhase::Forward,
        EnginePhase::Merge,
    ];

    /// Stable lowercase name (`"inject"`, `"plan"`, …).
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Inject => "inject",
            EnginePhase::Plan => "plan",
            EnginePhase::Forward => "forward",
            EnginePhase::Merge => "merge",
        }
    }
}

/// Passive observation hooks invoked by
/// [`Simulation::step_probed`](crate::Simulation::step_probed) and
/// [`Simulation::run_past_horizon_probed`](crate::Simulation::run_past_horizon_probed).
///
/// A probe is a passive observer the engine invokes at fixed points of
/// its round loop — it can count, sketch, trace and time, but it
/// receives only shared references to engine state and therefore
/// **cannot perturb a run**: a probed run is byte-identical in
/// [`RunMetrics`](crate::RunMetrics) to a plain one
/// (`tests/probe_conformance.rs` pins this).
///
/// The probe points, in round order:
///
/// 1. [`on_drop`](Probe::on_drop) — one call per capacity drop of the
///    injection step: a staged packet's acceptance, an injection's
///    placement, or a counted-staging tail drop.
/// 2. [`on_fault`](Probe::on_fault) — fault-active rounds only: the
///    resolved [`FaultState`] for the round, right after the fault mask
///    is advanced (post-injection, before the `L^t` observation). Never
///    called on fault-free rounds or runs.
/// 3. [`on_observe`](Probe::on_observe) — the paper's `L^t` measurement
///    point (post-injection, pre-forwarding), right after
///    `RunMetrics::observe`. This is where occupancy distributions are
///    sampled, and the one hook where
///    [`NetworkState::active_nodes`] is exact.
/// 4. [`on_phase`](Probe::on_phase) — once per engine phase
///    ([`EnginePhase`]) with its wall-time in nanoseconds, measured by
///    the probe's own [`now_nanos`](Probe::now_nanos) clock. The default
///    clock returns 0, so library runs never read wall-clock time; a
///    real clock lives behind this hook in `aqt-bench`.
/// 5. [`on_move`](Probe::on_move) — one call per validated move, in
///    move order, before any move is applied. A planned send over a
///    link the fault mask blocks is not a move and is not reported.
/// 6. [`on_delivery`](Probe::on_delivery) — one call per delivered
///    packet, in move order, interleaved with one
///    [`on_drop`](Probe::on_drop) per capacity drop of a forwarded
///    packet's placement.
/// 7. [`on_round`](Probe::on_round) — the completed [`RoundOutcome`]
///    plus the post-round state.
///
/// Interleaved, one round fires exactly this sequence (`?` at most once,
/// `*` once per drop, move or delivery):
///
/// ```text
/// on_drop* on_fault? on_observe on_phase(Inject) on_phase(Plan) on_move*
/// on_phase(Forward) (on_delivery | on_drop)* on_phase(Merge) on_round
/// ```
///
/// with as many `on_move`s as the round's
/// [`forwarded`](RoundOutcome::forwarded), as many `on_delivery`s as
/// its [`delivered`](RoundOutcome::delivered) and as many `on_drop`s as
/// its [`dropped`](RoundOutcome::dropped)
/// (`tests/probe_conformance.rs` pins this).
///
/// All hooks default to no-ops, so `()` is the null probe: the unprobed
/// [`Simulation::step`](crate::Simulation::step) runs the one round with
/// `()`, whose hooks compile away, and custom probes override only what
/// they need.
pub trait Probe {
    /// Current timestamp in nanoseconds, used by the engine to time
    /// phases. The default returns 0 — phase durations come out as 0 and
    /// no wall clock is ever read, keeping library runs deterministic.
    fn now_nanos(&mut self) -> u64 {
        0
    }

    /// The resolved fault mask for `round`, reported only on rounds
    /// where at least one fault is active (never on fault-free rounds or
    /// fault-free runs). Fires right after the engine advances the mask,
    /// before [`on_observe`](Probe::on_observe).
    fn on_fault(&mut self, _round: Round, _state: &FaultState) {}

    /// The `L^t` measurement point of `round`: post-injection,
    /// pre-forwarding. The engine refreshes the active set just before
    /// this hook, so [`NetworkState::active_nodes`] is exact here and a
    /// probe can observe in O(active nodes) instead of O(n). It is not
    /// exact at [`on_round`](Probe::on_round), where the round's moves
    /// have left it stale.
    fn on_observe(&mut self, _round: Round, _state: &NetworkState) {}

    /// A capacity drop at `node` in `round`: the buffer was full, and the
    /// drop policy lost one packet there (the arriving one or a stored
    /// victim). Fires where [`RunMetrics`](crate::RunMetrics) records
    /// the drop, in the injection or the merge step.
    fn on_drop(&mut self, _round: Round, _node: NodeId) {}

    /// One engine phase of `round` took `nanos` nanoseconds (0 when
    /// [`now_nanos`](Probe::now_nanos) is the default).
    fn on_phase(&mut self, _round: Round, _phase: EnginePhase, _nanos: u64) {}

    /// `packet` moves out of `from` in `round`; `delivers` is whether the
    /// hop reaches its destination. Reported once per validated move, in
    /// move order, before the round's moves are applied.
    fn on_move(&mut self, _round: Round, _from: NodeId, _packet: PacketId, _delivers: bool) {}

    /// `packet` was delivered in `round`. End-to-end latency is
    /// `round − packet.injected_at() + 1`, matching
    /// [`LatencyStats`](crate::LatencyStats).
    fn on_delivery(&mut self, _round: Round, _packet: &Packet) {}

    /// The round completed with `outcome`; `state` is the post-round
    /// network state.
    fn on_round(&mut self, _outcome: &RoundOutcome, _state: &NetworkState) {}
}

/// The null probe: every hook is the default no-op.
impl Probe for () {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = EnginePhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["inject", "plan", "forward", "merge"]);
    }

    #[test]
    fn unit_probe_defaults_are_noops() {
        let mut p = ();
        assert_eq!(Probe::now_nanos(&mut p), 0);
        p.on_phase(Round::ZERO, EnginePhase::Plan, 5);
    }
}
