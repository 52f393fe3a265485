//! Locality-restricted forwarding (**exploratory extension**).
//!
//! The paper's "Implications and open problems" section asks for
//! *decentralized (local)* algorithms: a protocol has locality `r` if each
//! node's forwarding decision depends only on the configuration within
//! distance `r`. For the single-destination line, the paper's companion
//! works ([9], [17], [18] in its bibliography) prove that
//! `Θ(ρ·⌈log n / r⌉ + σ)` buffer space is necessary and sufficient at
//! locality `r` — i.e. locality is *another* axis of the space-bandwidth
//! tradeoff.
//!
//! This module implements the natural locality-`r` restriction of PTS,
//! [`LocalPts`]: a node forwards exactly when it can *see* a bad buffer —
//! one holding ≥ 2 packets — at most `r` hops upstream (a bad buffer sees
//! itself). With `r ≥ n` the rule coincides with PTS on the suffix from
//! the left-most bad buffer, so [`LocalPts`] degenerates to [`Pts`]; with
//! small `r` the wave fragments and packets compact into blocks, costing
//! extra space.
//!
//! No theorem from the paper covers this protocol — experiment E9
//! measures its space-vs-locality curve empirically and the tests pin the
//! behavior (monotone in `r`, equal to PTS at `r ≥ n`, still bounded for
//! constant `r` at rate ≤ 1). It is an exploration of the open problem,
//! not a reproduction artifact.
//!
//! [`Pts`]: crate::Pts

use aqt_model::{ForwardingPlan, NetworkState, NodeId, Path, Protocol, Round, Topology};

/// Locality-`r` peak-to-sink forwarding on a path (exploratory; see the
/// module docs).
///
/// # Examples
///
/// ```
/// use aqt_core::LocalPts;
/// use aqt_model::{Injection, NodeId, Path, Pattern, Simulation};
///
/// // Radius 2: the wave reaches only 2 hops ahead of a bad buffer.
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 7); 3]);
/// let local = LocalPts::new(NodeId::new(7), 2);
/// let mut sim = Simulation::new(Path::new(8), local, &pattern)?;
/// sim.run(20)?;
/// // The burst compacts and stops once nothing is bad; space stays small.
/// assert!(sim.metrics().max_occupancy <= 3);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LocalPts {
    dest: NodeId,
    radius: usize,
}

impl LocalPts {
    /// Locality-`r` PTS toward `dest`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is 0 — a node must at least see itself.
    pub fn new(dest: NodeId, radius: usize) -> Self {
        assert!(radius > 0, "locality radius must be at least 1");
        LocalPts { dest, radius }
    }

    /// The common destination.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// The locality radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }
}

impl Protocol<Path> for LocalPts {
    fn name(&self) -> String {
        format!("LocalPTS(w={},r={})", self.dest, self.radius)
    }

    fn plan(
        &mut self,
        _round: Round,
        topo: &Path,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let n = topo.node_count();
        let w = self.dest.index();
        // last_bad[v]: the most recent bad buffer at or before v.
        let mut last_bad: Option<usize> = None;
        for v in 0..w.min(n) {
            let node = NodeId::new(v);
            let occ = state.occupancy(node);
            if occ >= 2 {
                last_bad = Some(v);
            }
            debug_assert!(
                state.buffer(node).iter().all(|p| p.dest() == self.dest),
                "LocalPTS requires single-destination traffic"
            );
            if occ == 0 {
                continue;
            }
            // Forward iff a bad buffer is visible ≤ r hops upstream.
            if last_bad.is_some_and(|u| v - u < self.radius) {
                let top = state
                    .lifo_top_where(node, |_| true)
                    .expect("non-empty buffer has a top");
                plan.send(node, top.id());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pts;
    use aqt_model::{Injection, Pattern, Simulation};

    fn run(protocol: impl Protocol<Path>, pattern: &Pattern, n: usize, extra: u64) -> usize {
        let mut sim = Simulation::new(Path::new(n), protocol, pattern).unwrap();
        sim.run_past_horizon(extra).unwrap();
        sim.metrics().max_occupancy
    }

    fn stream(n: usize, rounds: u64, every: u64) -> Pattern {
        (0..rounds)
            .filter(|t| t % every == 0)
            .map(|t| Injection::new(t, (t % (n as u64 - 1)) as usize, n - 1))
            .collect()
    }

    #[test]
    fn radius_zero_is_rejected() {
        let result = std::panic::catch_unwind(|| LocalPts::new(NodeId::new(3), 0));
        assert!(result.is_err());
    }

    #[test]
    fn full_radius_matches_pts_trajectories() {
        // With r ≥ n, the visible-bad rule equals PTS's "left-most bad
        // buffer starts the wave" on every reachable configuration: both
        // runs must produce identical metrics.
        let n = 24;
        let pattern = stream(n, 120, 1);
        let mut pts = Simulation::new(Path::new(n), Pts::new(NodeId::new(n - 1)), &pattern)
            .unwrap()
            .record_series();
        pts.run_past_horizon(60).unwrap();
        let mut local =
            Simulation::new(Path::new(n), LocalPts::new(NodeId::new(n - 1), n), &pattern)
                .unwrap()
                .record_series();
        local.run_past_horizon(60).unwrap();
        assert_eq!(pts.metrics(), local.metrics());
    }

    #[test]
    fn every_radius_stays_bounded_under_bursty_streams() {
        // Peaks are NOT monotone in the radius (different schedules reach
        // different configurations — a smaller wave can accidentally avoid
        // a collision a larger one causes). What must hold: every radius
        // keeps space bounded well below the total packet count, and the
        // r-local wave never exceeds the burst + stream stacking budget.
        let n = 32;
        for seed in 0..3u64 {
            let pattern: Pattern = (0..60u64)
                .flat_map(|t| {
                    let src = ((t * 7 + seed * 13) % 20) as usize;
                    let copies = if t % 9 == 0 { 3 } else { 1 };
                    std::iter::repeat_n(Injection::new(t, src, n - 1), copies)
                })
                .collect();
            let total = pattern.len();
            for r in [1usize, 2, 4, 8, n] {
                let peak = run(LocalPts::new(NodeId::new(n - 1), r), &pattern, n, 120);
                assert!(
                    peak * 4 < total,
                    "seed {seed}, r = {r}: peak {peak} ~ total {total}, no spreading at all"
                );
                assert!(peak >= 2, "bursts guarantee some stacking");
            }
        }
    }

    #[test]
    fn constant_radius_still_bounded_at_rate_one() {
        // Exploratory sanity: r = 1 (a node only reacts to itself being
        // bad) still keeps space bounded under a paced rate-1 stream with
        // small bursts — blocks compact but never blow up.
        let n = 40;
        let mut injections: Vec<Injection> =
            (0..200u64).map(|t| Injection::new(t, 0, n - 1)).collect();
        injections.extend(vec![Injection::new(50, 10, n - 1); 3]);
        let pattern = Pattern::from_injections(injections);
        let peak = run(LocalPts::new(NodeId::new(n - 1), 1), &pattern, n, 300);
        assert!(peak <= 6, "r = 1 peak {peak} unexpectedly large");
    }

    #[test]
    fn conservation_and_delivery_work() {
        let n = 16;
        let pattern = stream(n, 64, 1);
        let total = pattern.len() as u64;
        let mut sim =
            Simulation::new(Path::new(n), LocalPts::new(NodeId::new(n - 1), 3), &pattern).unwrap();
        sim.run_past_horizon(100).unwrap();
        let m = sim.metrics();
        assert_eq!(
            m.injected,
            m.delivered + sim.state().total_buffered() as u64
        );
        assert_eq!(m.injected, total);
        assert!(m.delivered > 0, "sustained stream must push deliveries");
    }

    #[test]
    fn name_encodes_parameters() {
        let p = LocalPts::new(NodeId::new(9), 4);
        assert_eq!(<LocalPts as Protocol<Path>>::name(&p), "LocalPTS(w=v9,r=4)");
        assert_eq!(p.radius(), 4);
        assert_eq!(p.dest(), NodeId::new(9));
    }
}
