//! Online invariant monitors: check the paper's potential-function
//! invariants *while* a protocol runs, not just the final occupancy.
//!
//! A [`Monitor`] observes each configuration `L^t` (post-injection,
//! pre-forwarding — exactly the measurement point of the proofs). The
//! [`Monitored`] decorator invokes a stack of monitors from inside
//! `Protocol::plan`, and [`run_monitored`] is a one-call harness that runs
//! a protocol to a horizon and returns the first [`Violation`], if any.
//!
//! Monitors included:
//!
//! * [`OccupancyMonitor`] — `|L^t(v)| ≤ bound` everywhere (the theorems'
//!   conclusions);
//! * [`BadnessExcessMonitor`] — the key proof invariant of Props. 3.1/3.2:
//!   `B^t(i) ≤ ξ_t(i) + 1` for every node, where ξ is the excess of
//!   Def. 2.2 computed from the injection pattern;
//! * [`QuiescenceMonitor`] — if nothing is bad, a faithful peak-to-sink
//!   protocol must not forward (detects over-eager implementations).

use std::fmt;

use aqt_core::badness::badness_path;
use aqt_model::{
    ExcessTracker, ForwardingPlan, InjectionMode, NetworkState, NodeId, Pattern, Protocol, Rate,
    Round, Simulation, Topology,
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
pub trait Monitor<T: Topology> {
    /// Monitor name used in [`Violation`] reports.
    fn name(&self) -> String;

    /// Inspects the configuration of `round`; returns the violation if the
    /// monitored invariant fails.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] describing the failed invariant.
    fn observe(
        &mut self,
        round: Round,
        topology: &T,
        state: &NetworkState,
    ) -> Result<(), Violation>;
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

    fn observe(
        &mut self,
        round: Round,
        _topology: &T,
        state: &NetworkState,
    ) -> Result<(), Violation> {
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

    fn observe(
        &mut self,
        round: Round,
        _topology: &aqt_model::Path,
        state: &NetworkState,
    ) -> Result<(), Violation> {
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

/// Decorates a protocol with a stack of monitors, all observing `L^t`
/// right before the protocol plans.
///
/// The first violation is latched ([`Monitored::violation`]); planning
/// continues so the run completes deterministically.
pub struct Monitored<T: Topology, P> {
    inner: P,
    monitors: Vec<Box<dyn Monitor<T> + Send + Sync>>,
    violation: Option<Violation>,
    /// Extra check: quiescent configurations must produce empty plans.
    enforce_quiescence: bool,
}

impl<T: Topology, P: fmt::Debug> fmt::Debug for Monitored<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitored")
            .field("inner", &self.inner)
            .field("monitors", &self.monitors.len())
            .field("violation", &self.violation)
            .field("enforce_quiescence", &self.enforce_quiescence)
            .finish()
    }
}

impl<T: Topology, P> Monitored<T, P> {
    /// Wraps `inner` with the given monitors.
    pub fn new(inner: P, monitors: Vec<Box<dyn Monitor<T> + Send + Sync>>) -> Self {
        Monitored {
            inner,
            monitors,
            violation: None,
            enforce_quiescence: false,
        }
    }

    /// Additionally require that globally quiet configurations (no
    /// destination with two packets in one buffer) produce empty plans.
    pub fn enforce_quiescence(mut self) -> Self {
        self.enforce_quiescence = true;
        self
    }

    /// The first latched violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<T: Topology, P: Protocol<T>> Protocol<T> for Monitored<T, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn injection_mode(&self) -> InjectionMode {
        self.inner.injection_mode()
    }

    fn plan(
        &mut self,
        round: Round,
        topology: &T,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        for m in &mut self.monitors {
            if let Err(v) = m.observe(round, topology, state) {
                self.violation.get_or_insert(v);
            }
        }
        self.inner.plan(round, topology, state, plan);
        if self.enforce_quiescence && self.violation.is_none() {
            let quiet = (0..state.node_count()).all(|v| {
                state
                    .by_destination(NodeId::new(v))
                    .values()
                    .all(|packets| packets.len() <= 1)
            });
            if quiet && !plan.is_empty() {
                self.violation = Some(Violation {
                    monitor: "quiescence".into(),
                    round,
                    message: format!("{} sends from a quiet configuration", plan.len()),
                });
            }
        }
    }
}

/// Runs `protocol` under `monitors` until `extra` rounds past the
/// pattern's horizon; returns the metrics, or the first violation.
///
/// # Errors
///
/// Returns the violation if any monitor fired, or wraps a [`ModelError`]
/// from the engine as a violation with monitor name `"engine"`.
///
/// [`ModelError`]: aqt_model::ModelError
pub fn run_monitored<T, P>(
    topology: T,
    protocol: P,
    pattern: &Pattern,
    extra: u64,
    monitors: Vec<Box<dyn Monitor<T> + Send + Sync>>,
) -> Result<aqt_model::RunMetrics, Violation>
where
    T: Topology + Sync,
    P: Protocol<T> + Sync,
{
    let wrapped = Monitored::new(protocol, monitors);
    let mut sim = Simulation::new(topology, wrapped, pattern).map_err(|e| Violation {
        monitor: "engine".into(),
        round: Round::ZERO,
        message: e.to_string(),
    })?;
    let horizon = pattern.last_round().map_or(0, |r| r.value() + 1) + extra;
    for _ in 0..horizon {
        let round = sim.round();
        sim.step().map_err(|e| Violation {
            monitor: "engine".into(),
            round,
            message: e.to_string(),
        })?;
        if let Some(v) = sim.protocol().violation() {
            return Err(v.clone());
        }
    }
    Ok(sim.metrics().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Greedy, GreedyPolicy, Ppts, Pts};
    use aqt_model::{Injection, Path, Pattern};

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
        let wrapped =
            Monitored::new(Greedy::new(GreedyPolicy::Fifo), Vec::new()).enforce_quiescence();
        let mut sim = Simulation::new(Path::new(8), wrapped, &pattern).unwrap();
        sim.run(3).unwrap();
        let v = sim.protocol().violation().expect("greedy is eager");
        assert_eq!(v.monitor, "quiescence");
    }

    #[test]
    fn quiescence_enforcement_accepts_faithful_ppts() {
        let wrapped = Monitored::new(Ppts::new(), Vec::new()).enforce_quiescence();
        let mut sim = Simulation::new(Path::new(8), wrapped, &burst_pattern()).unwrap();
        for _ in 0..40 {
            sim.step().unwrap();
        }
        assert!(sim.protocol().violation().is_none());
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
