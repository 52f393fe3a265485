//! Online invariant monitors: check the paper's potential-function
//! invariants *while* a protocol runs, not just the final occupancy.
//!
//! A [`Monitor`] observes each configuration `L^t` (post-injection,
//! pre-forwarding — exactly the measurement point of the proofs). The
//! [`Monitors`] probe runs a stack of monitors at that point of every
//! round, and [`run_monitored`] is a one-call harness that runs a
//! protocol to a horizon and returns the first [`Violation`], if any.
//!
//! Checks included:
//!
//! * [`OccupancyMonitor`] — `|L^t(v)| ≤ bound` everywhere (the theorems'
//!   conclusions);
//! * [`BadnessExcessMonitor`] — the key proof invariant of Props. 3.1/3.2:
//!   `B^t(i) ≤ ξ_t(i) + 1` for every node, where ξ is the excess of
//!   Def. 2.2 computed from the injection pattern;
//! * [`Monitors::enforce_quiescence`] — if nothing is bad, a faithful
//!   peak-to-sink protocol must not forward (detects over-eager
//!   implementations).

use std::fmt;

use aqt_core::badness::badness_path;
use aqt_model::{
    ExcessTracker, ModelError, NetworkState, NodeId, PacketId, Pattern, Probe, Protocol, Rate,
    Round, RunMetrics, Simulation, Topology,
};

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which monitor fired.
    pub monitor: String,
    /// The round of the violation.
    pub round: Round,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.monitor, self.round, self.message)
    }
}

impl std::error::Error for Violation {}

/// An online observer of configurations at the `L^t` measurement point.
///
/// `T` is the topology the monitored invariant is stated for, so a
/// path-only invariant such as [`BadnessExcessMonitor`] cannot be
/// attached to a run on any other topology.
pub trait Monitor<T: Topology> {
    /// Monitor name used in [`Violation`] reports.
    fn name(&self) -> String;

    /// Inspects the configuration of `round`; returns the violation if the
    /// monitored invariant fails.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] describing the failed invariant.
    fn observe(&mut self, round: Round, state: &NetworkState) -> Result<(), Violation>;
}

/// Checks `|L^t(v)| ≤ bound` for every node, every round.
#[derive(Debug, Clone)]
pub struct OccupancyMonitor {
    bound: usize,
}

impl OccupancyMonitor {
    /// A monitor enforcing the given occupancy bound.
    pub fn new(bound: usize) -> Self {
        OccupancyMonitor { bound }
    }
}

impl<T: Topology> Monitor<T> for OccupancyMonitor {
    fn name(&self) -> String {
        format!("occupancy<={}", self.bound)
    }

    fn observe(&mut self, round: Round, state: &NetworkState) -> Result<(), Violation> {
        for v in 0..state.node_count() {
            let occ = state.occupancy(NodeId::new(v));
            if occ > self.bound {
                return Err(Violation {
                    monitor: Monitor::<T>::name(self),
                    round,
                    message: format!("node {v} holds {occ} > {}", self.bound),
                });
            }
        }
        Ok(())
    }
}

/// Checks the proof invariant `B^t(i) ≤ ξ_t(i) + 1` on a path
/// (Props. 3.1/3.2): the badness behind every node never exceeds its
/// excess plus one.
///
/// The monitor derives per-round crossing counts from the injection
/// pattern, so it must be constructed with the same pattern the simulation
/// runs. Valid for immediate-injection protocols (PTS/PPTS); for batched
/// protocols the accounting point differs (the ℓ-reduction shifts rounds).
#[derive(Debug, Clone)]
pub struct BadnessExcessMonitor {
    rate: Rate,
    tracker: ExcessTracker,
    /// Per-round `(node, crossings)` batches, indexed by round value.
    rounds: Vec<Vec<(NodeId, u64)>>,
    fed: u64,
}

impl BadnessExcessMonitor {
    /// Builds the monitor for `pattern` at rate ρ on a path of `n` nodes.
    pub fn new(n: usize, pattern: &Pattern, rate: Rate) -> Self {
        let horizon = pattern.last_round().map_or(0, |r| r.value() + 1);
        let mut rounds: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); horizon as usize];
        let mut counts = vec![0u64; n];
        for (round, group) in pattern.rounds() {
            counts.iter_mut().for_each(|c| *c = 0);
            for injection in group {
                // On a path a packet (i → w) crosses buffers i, …, w−1.
                for c in &mut counts[injection.source.index()..injection.dest.index()] {
                    *c += 1;
                }
            }
            rounds[round.value() as usize] = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(v, &c)| (NodeId::new(v), c))
                .collect();
        }
        BadnessExcessMonitor {
            rate,
            tracker: ExcessTracker::new(rate, n),
            rounds,
            fed: 0,
        }
    }
}

impl Monitor<aqt_model::Path> for BadnessExcessMonitor {
    fn name(&self) -> String {
        "badness<=excess+1".into()
    }

    fn observe(&mut self, round: Round, state: &NetworkState) -> Result<(), Violation> {
        // Bring the excess tracker up to (and including) this round.
        while self.fed <= round.value() {
            if let Some(batch) = self.rounds.get(self.fed as usize) {
                if !batch.is_empty() {
                    self.tracker.observe_round(Round::new(self.fed), batch);
                }
            }
            self.fed += 1;
        }
        let den = u128::from(self.rate.den());
        for i in 0..state.node_count() {
            let v = NodeId::new(i);
            let b = badness_path(state, v) as u128;
            let (xi_num, xi_den) = self.tracker.excess_at(v, round);
            debug_assert_eq!(u128::from(xi_den), den);
            // B ≤ ξ + 1 ⟺ B·den ≤ ξ_num + den.
            if b * den > xi_num + den {
                return Err(Violation {
                    monitor: Monitor::<aqt_model::Path>::name(self),
                    round,
                    message: format!("B({i}) = {b} exceeds xi + 1 = {}/{} + 1", xi_num, xi_den),
                });
            }
        }
        Ok(())
    }
}

/// A [`Probe`] that runs a stack of monitors at every `L^t`
/// observation.
///
/// The first violation is latched ([`Monitors::violation`]); the run
/// itself continues, so it completes deterministically.
pub struct Monitors<T: Topology> {
    monitors: Vec<Box<dyn Monitor<T>>>,
    violation: Option<Violation>,
    /// Extra check: quiescent configurations must produce no moves.
    enforce_quiescence: bool,
    /// Whether the current round's `L^t` was quiet (only tracked under
    /// `enforce_quiescence`).
    quiet: bool,
}

impl<T: Topology> Monitors<T> {
    /// A probe running the given monitors.
    pub fn new(monitors: Vec<Box<dyn Monitor<T>>>) -> Self {
        Monitors {
            monitors,
            violation: None,
            enforce_quiescence: false,
            quiet: false,
        }
    }

    /// Additionally require that a round starting from a globally quiet
    /// configuration (no destination with two packets in one buffer)
    /// moves nothing.
    pub fn enforce_quiescence(mut self) -> Self {
        self.enforce_quiescence = true;
        self
    }

    /// The first latched violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

impl<T: Topology> Probe for Monitors<T> {
    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        for m in &mut self.monitors {
            if let Err(v) = m.observe(round, state) {
                self.violation.get_or_insert(v);
            }
        }
        self.quiet = self.enforce_quiescence
            && (0..state.node_count()).all(|v| {
                state
                    .by_destination(NodeId::new(v))
                    .values()
                    .all(|packets| packets.len() <= 1)
            });
    }

    fn on_move(&mut self, round: Round, from: NodeId, _packet: PacketId, _delivers: bool) {
        if self.quiet && self.violation.is_none() {
            self.violation = Some(Violation {
                monitor: "quiescence".into(),
                round,
                message: format!("{from} sends from a quiet configuration"),
            });
        }
    }
}

/// Runs `protocol` under `monitors` until `extra` rounds past the
/// pattern's horizon; returns the metrics, or the first violation.
///
/// # Errors
///
/// Returns the first violation if any monitor fired; otherwise wraps a
/// [`ModelError`] from the engine as a violation with monitor name
/// `"engine"`.
pub fn run_monitored<T, P>(
    topology: T,
    protocol: P,
    pattern: &Pattern,
    extra: u64,
    monitors: Vec<Box<dyn Monitor<T>>>,
) -> Result<RunMetrics, Violation>
where
    T: Topology + Sync,
    P: Protocol<T> + Sync,
{
    let engine = |round: Round, e: ModelError| Violation {
        monitor: "engine".into(),
        round,
        message: e.to_string(),
    };
    let mut sim =
        Simulation::new(topology, protocol, pattern).map_err(|e| engine(Round::ZERO, e))?;
    let mut probe = Monitors::new(monitors);
    let run = sim.run_past_horizon_probed(extra, &mut probe).cloned();
    match (probe.violation, run) {
        (Some(v), _) => Err(v),
        // A failed round leaves the engine's round counter on it.
        (None, Err(e)) => Err(engine(sim.round(), e)),
        (None, Ok(metrics)) => Ok(metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Greedy, GreedyPolicy, Ppts, Pts};
    use aqt_model::{ForwardingPlan, Injection, Path, Pattern};

    fn burst_pattern() -> Pattern {
        Pattern::from_injections(vec![
            Injection::new(0, 0, 7),
            Injection::new(0, 0, 7),
            Injection::new(0, 0, 7),
            Injection::new(2, 3, 6),
        ])
    }

    #[test]
    fn occupancy_monitor_passes_within_bound() {
        let metrics = run_monitored(
            Path::new(8),
            Ppts::new(),
            &burst_pattern(),
            30,
            vec![Box::new(OccupancyMonitor::new(8))],
        )
        .expect("bound is generous");
        assert!(metrics.max_occupancy <= 8);
    }

    #[test]
    fn occupancy_monitor_reports_node_and_round() {
        let err = run_monitored(
            Path::new(8),
            Ppts::new(),
            &burst_pattern(),
            30,
            vec![Box::new(OccupancyMonitor::new(1))],
        )
        .expect_err("three packets in node 0 at round 0");
        assert_eq!(err.round, Round::new(0));
        assert!(err.message.contains("node 0"), "{}", err.message);
    }

    #[test]
    fn badness_invariant_holds_for_ppts() {
        let pattern = burst_pattern();
        let monitor = BadnessExcessMonitor::new(8, &pattern, Rate::ONE);
        run_monitored(
            Path::new(8),
            Ppts::new(),
            &pattern,
            40,
            vec![Box::new(monitor)],
        )
        .expect("Prop. 3.2 invariant must hold for PPTS");
    }

    #[test]
    fn badness_invariant_holds_for_pts_single_destination() {
        let pattern = Pattern::from_injections(vec![
            Injection::new(0, 0, 7),
            Injection::new(0, 1, 7),
            Injection::new(0, 1, 7),
            Injection::new(3, 2, 7),
            Injection::new(3, 2, 7),
        ]);
        let monitor = BadnessExcessMonitor::new(8, &pattern, Rate::ONE);
        run_monitored(
            Path::new(8),
            Pts::new(NodeId::new(7)),
            &pattern,
            40,
            vec![Box::new(monitor)],
        )
        .expect("Prop. 3.1 invariant must hold for PTS");
    }

    #[test]
    fn badness_invariant_catches_idle_protocols() {
        // An idle protocol lets badness accumulate while excess decays:
        // B(i) stays at 2 but ξ → 0, violating B ≤ ξ + 1 eventually.
        struct Idle;
        impl<T: Topology> Protocol<T> for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, _: &mut ForwardingPlan) {}
        }
        let pattern = burst_pattern();
        let monitor = BadnessExcessMonitor::new(8, &pattern, Rate::ONE);
        let err = run_monitored(Path::new(8), Idle, &pattern, 30, vec![Box::new(monitor)])
            .expect_err("idling must violate the badness invariant");
        assert!(err.message.contains("B(0)"), "{}", err.message);
    }

    #[test]
    fn quiescence_enforcement_flags_greedy() {
        // Greedy forwards lone packets — not a peak-to-sink protocol.
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 7)]);
        let mut probe = Monitors::<Path>::new(Vec::new()).enforce_quiescence();
        let mut sim =
            Simulation::new(Path::new(8), Greedy::new(GreedyPolicy::Fifo), &pattern).unwrap();
        for _ in 0..3 {
            sim.step_probed(&mut probe).unwrap();
        }
        let v = probe.violation().expect("greedy is eager");
        assert_eq!(v.monitor, "quiescence");
    }

    #[test]
    fn quiescence_enforcement_accepts_faithful_ppts() {
        let mut probe = Monitors::<Path>::new(Vec::new()).enforce_quiescence();
        let mut sim = Simulation::new(Path::new(8), Ppts::new(), &burst_pattern()).unwrap();
        for _ in 0..40 {
            sim.step_probed(&mut probe).unwrap();
        }
        assert!(probe.violation().is_none());
    }

    #[test]
    fn engine_errors_surface_as_violations() {
        // A protocol that lies about packet ids.
        struct Liar;
        impl<T: Topology> Protocol<T> for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, plan: &mut ForwardingPlan) {
                plan.send(NodeId::new(0), aqt_model::PacketId::new(424242));
            }
        }
        let err = run_monitored(
            Path::new(4),
            Liar,
            &Pattern::from_injections(vec![Injection::new(0, 0, 3)]),
            4,
            Vec::new(),
        )
        .expect_err("engine must reject the plan");
        assert_eq!(err.monitor, "engine");
    }
}
