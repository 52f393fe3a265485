//! Leaky-bucket shaping: turn an arbitrary "wish stream" into a
//! (ρ, σ)-bounded pattern by delaying packets.
//!
//! Useful for building experiments from traces or ad-hoc workloads: the
//! shaper guarantees the output satisfies Def. 2.1, so every theorem's
//! premise holds, while preserving per-route FIFO order of the wishes.
//!
//! Two forms: [`ShapingSource`] shapes any [`InjectionSource`] of wishes
//! on the fly (memory proportional to the current backlog, not the
//! horizon), and [`shape`] is the materializing adapter over a wish list.

use std::collections::VecDeque;

use aqt_model::{
    ExcessTracker, Injection, InjectionSource, NodeId, Pattern, PatternSource, Round, Topology,
};

/// Streams a wish source through per-buffer token buckets: each wish is
/// delayed to the first round — at or after both its wished round and its
/// emission from the inner source — where [`ExcessTracker::try_admit`]
/// keeps every buffer on its route within σ. Head-of-line blocking
/// preserves the inner source's emission order.
///
/// The source **owns** its topology (a clone is cheap next to a run), so
/// a fully-owned `ShapingSource` can be boxed as a
/// `Box<dyn InjectionSource>` and outlive the scope that configured it —
/// which is what the declarative scenario layer needs.
///
/// The horizon is unknown ([`horizon`](InjectionSource::horizon) returns
/// `None`): how long draining takes depends on admission. The source is
/// exhausted once the inner source is exhausted and the backlog is empty;
/// with ρ > 0 and ρ + σ ≥ 1 (enforced at construction) that is guaranteed
/// to happen.
///
/// # Examples
///
/// ```
/// use aqt_adversary::ShapingSource;
/// use aqt_model::{
///     analyze, Injection, InjectionSource, Path, Pattern, PatternSource, Rate,
/// };
///
/// // Ten simultaneous packets on one route, shaped to ρ = 1, σ = 1.
/// let topo = Path::new(4);
/// let wishes = PatternSource::from(Pattern::from_injections(vec![
///     Injection::new(0, 0, 3); 10
/// ]));
/// let shaped = ShapingSource::new(topo, wishes, Rate::ONE, 1).into_pattern();
/// assert_eq!(shaped.len(), 10);
/// assert!(analyze(&topo, &shaped, Rate::ONE).tight_sigma <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShapingSource<T: Topology, S: InjectionSource> {
    topology: T,
    inner: S,
    queue: VecDeque<Injection>,
    tracker: ExcessTracker,
    sigma: u64,
    wish_buf: Vec<Injection>,
    route_buf: Vec<NodeId>,
    max_delay: u64,
}

impl<T: Topology, S: InjectionSource> ShapingSource<T, S> {
    /// Shapes `inner`'s wishes onto `topology` at (ρ, σ).
    ///
    /// # Panics
    ///
    /// Panics if ρ = 0 or `ρ + σ < 1`: by Def. 2.1 a single packet already
    /// needs `1 ≤ ρ·1 + σ`, so for `ρ + σ < 1` **no** non-empty
    /// (ρ, σ)-bounded pattern exists and shaping could never terminate.
    pub fn new(topology: T, inner: S, rate: aqt_model::Rate, sigma: u64) -> Self {
        assert!(
            rate.num() > 0,
            "rate must be positive for shaping to terminate"
        );
        assert!(
            u128::from(rate.num()) + u128::from(sigma) * u128::from(rate.den())
                >= u128::from(rate.den()),
            "need rho + sigma >= 1: a single packet is inadmissible at rho = {rate}, sigma = {sigma}"
        );
        let tracker = ExcessTracker::new(rate, topology.node_count());
        ShapingSource {
            topology,
            inner,
            queue: VecDeque::new(),
            tracker,
            sigma,
            wish_buf: Vec::new(),
            route_buf: Vec::new(),
            max_delay: 0,
        }
    }

    /// The maximum delay applied so far (in rounds).
    pub fn max_delay(&self) -> u64 {
        self.max_delay
    }

    /// Wishes currently backlogged behind the token buckets.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }
}

impl<T: Topology, S: InjectionSource> InjectionSource for ShapingSource<T, S> {
    fn next_round(&mut self, round: Round, out: &mut Vec<Injection>) {
        let t = round.value();
        // Wishes whose time has come join the back of the queue.
        if !self.inner.is_exhausted() {
            self.wish_buf.clear();
            self.inner.next_round(round, &mut self.wish_buf);
            self.queue.extend(self.wish_buf.drain(..));
        }
        // Admit from the front while budget allows; head-of-line blocking
        // preserves order.
        while let Some(w) = self.queue.front() {
            self.route_buf.clear();
            let routed = self
                .topology
                .route_buffers_into(w.source, w.dest, &mut self.route_buf);
            assert!(routed, "wish must have a route");
            if self.tracker.try_admit(round, &self.route_buf, self.sigma) {
                let w = self.queue.pop_front().expect("front checked above");
                self.max_delay = self.max_delay.max(t - w.round.value());
                out.push(Injection {
                    round: Round::new(t),
                    ..w
                });
            } else {
                break;
            }
        }
    }

    fn horizon(&self) -> Option<u64> {
        None
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted() && self.queue.is_empty()
    }
}

/// Shapes `wishes` (any order, any burstiness) into a (ρ, σ)-bounded
/// pattern on `topology` by delaying each injection to the first round —
/// at or after its wished round — where the token buckets of all buffers
/// on its route have capacity. Wishes are processed in FIFO order per
/// wished round, so relative order among same-round wishes is preserved.
///
/// Returns the shaped pattern and the maximum delay applied (in rounds).
///
/// # Examples
///
/// ```
/// use aqt_adversary::shape;
/// use aqt_model::{analyze, Injection, Path, Pattern, Rate};
///
/// // Ten simultaneous packets on one route, shaped to ρ = 1, σ = 1.
/// let wishes = vec![Injection::new(0, 0, 3); 10];
/// let topo = Path::new(4);
/// let (pattern, max_delay) = shape(&topo, wishes, Rate::ONE, 1);
/// assert_eq!(pattern.len(), 10);
/// assert!(max_delay >= 8); // 2 fit in round 0, 1 per round after
/// assert!(analyze(&topo, &pattern, Rate::ONE).tight_sigma <= 1);
/// ```
///
/// # Panics
///
/// Panics if a wish has no route in the topology, or if `ρ + σ < 1` (see
/// [`ShapingSource::new`]).
pub fn shape<T: Topology + Clone>(
    topology: &T,
    wishes: Vec<Injection>,
    rate: aqt_model::Rate,
    sigma: u64,
) -> (Pattern, u64) {
    let inner = PatternSource::from(Pattern::from_injections(wishes));
    let mut source = ShapingSource::new(topology.clone(), inner, rate, sigma);
    let mut out = Vec::new();
    let mut t = 0u64;
    while !source.is_exhausted() {
        source.next_round(Round::new(t), &mut out);
        t += 1;
    }
    (Pattern::from_injections(out), source.max_delay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{analyze, Path, Rate};

    #[test]
    fn already_conforming_wishes_pass_through_undelayed() {
        let topo = Path::new(4);
        let wishes = vec![Injection::new(0, 0, 3), Injection::new(5, 1, 3)];
        let (p, delay) = shape(&topo, wishes.clone(), Rate::ONE, 1);
        assert_eq!(delay, 0);
        assert_eq!(p.injections(), wishes.as_slice());
    }

    #[test]
    fn burst_is_spread_at_rate() {
        let topo = Path::new(2);
        let rho = Rate::new(1, 2).unwrap();
        let wishes = vec![Injection::new(0, 0, 1); 6];
        let (p, delay) = shape(&topo, wishes, rho, 1);
        // At ρ = 1/2, σ = 1: two packets fit early (burst budget), then
        // the bucket sustains one packet every other round.
        let rounds: Vec<u64> = p.injections().iter().map(|i| i.round.value()).collect();
        assert_eq!(rounds, vec![0, 1, 3, 5, 7, 9]);
        assert_eq!(delay, 9);
        assert!(analyze(&topo, &p, rho).tight_sigma <= 1);
    }

    #[test]
    #[should_panic(expected = "rho + sigma >= 1")]
    fn rejects_parameters_that_admit_nothing() {
        // ρ = 1/2, σ = 0: Def. 2.1 forbids even a single packet, so
        // shaping can never make progress.
        let topo = Path::new(2);
        shape(
            &topo,
            vec![Injection::new(0, 0, 1)],
            Rate::new(1, 2).unwrap(),
            0,
        );
    }

    #[test]
    fn order_within_route_is_preserved() {
        let topo = Path::new(5);
        let mut wishes = vec![Injection::new(0, 0, 4); 4];
        wishes.push(Injection::new(0, 2, 4));
        let (p, _) = shape(&topo, wishes, Rate::ONE, 0);
        // All five cross buffers 2..4; outputs must be 5 distinct rounds.
        let mut rounds: Vec<u64> = p.injections().iter().map(|i| i.round.value()).collect();
        rounds.sort_unstable();
        rounds.dedup();
        assert_eq!(rounds.len(), 5);
        assert!(analyze(&topo, &p, Rate::ONE).tight_sigma == 0);
    }

    #[test]
    fn disjoint_routes_do_not_block_each_other() {
        let topo = Path::new(6);
        // Queue a long backlog on the left, then a wish on the right.
        let mut wishes = vec![Injection::new(0, 0, 2); 5];
        wishes.push(Injection::new(0, 3, 5));
        let (p, _) = shape(&topo, wishes, Rate::ONE, 0);
        // The right-side packet is head-of-line blocked only behind other
        // queue entries *ahead of it*; it was pushed last, so it departs at
        // the round after the backlog unblocks it — but crucially the
        // pattern stays bounded and complete.
        assert_eq!(p.len(), 6);
        assert!(analyze(&topo, &p, Rate::ONE).tight_sigma == 0);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let topo = Path::new(3);
        let (p, delay) = shape(&topo, Vec::new(), Rate::ONE, 0);
        assert!(p.is_empty());
        assert_eq!(delay, 0);
    }

    #[test]
    fn streaming_shaper_matches_materialized_shape() {
        let topo = Path::new(6);
        let rho = Rate::new(1, 2).unwrap();
        let wishes: Vec<Injection> = (0..30u64)
            .flat_map(|t| {
                std::iter::repeat_n(Injection::new(t, (t % 4) as usize, 5), (t % 3) as usize)
            })
            .collect();
        let (expected, expected_delay) = shape(&topo, wishes.clone(), rho, 2);
        let inner = PatternSource::from(Pattern::from_injections(wishes));
        let mut src = ShapingSource::new(topo, inner, rho, 2);
        let mut out = Vec::new();
        let mut t = 0;
        while !src.is_exhausted() {
            src.next_round(Round::new(t), &mut out);
            t += 1;
        }
        assert_eq!(Pattern::from_injections(out), expected);
        assert_eq!(src.max_delay(), expected_delay);
        assert_eq!(src.backlog(), 0);
    }

    #[test]
    fn shaping_source_drives_the_engine_without_truncation() {
        use aqt_model::{ForwardingPlan, NetworkState, NodeId, Protocol, Simulation, Topology};
        /// Forwards every buffer's FIFO head.
        struct Drain;
        impl<T: Topology> Protocol<T> for Drain {
            fn name(&self) -> String {
                "drain".into()
            }
            fn plan(&mut self, _: Round, _: &T, st: &NetworkState, plan: &mut ForwardingPlan) {
                for v in 0..st.node_count() {
                    let v = NodeId::new(v);
                    if let Some(head) = st.fifo_head_where(v, |_| true) {
                        plan.send(v, head.id());
                    }
                }
            }
        }
        // 12 simultaneous wishes, shaped to one per round: the unknown
        // horizon must not truncate the run.
        let topo = Path::new(3);
        let wishes = Pattern::from_injections(vec![Injection::new(0, 0, 2); 12]);
        let source = ShapingSource::new(topo, PatternSource::from(wishes), Rate::ONE, 0);
        let mut sim = Simulation::from_source(topo, Drain, source);
        sim.run_past_horizon(4).unwrap();
        assert!(sim.is_drained());
        assert_eq!(sim.metrics().injected, 12);
        assert_eq!(sim.metrics().delivered, 12);
    }

    #[test]
    fn shaper_composes_with_streaming_generators() {
        use crate::patterns;
        // An over-driven paced stream shaped down to half rate stays
        // bounded by construction.
        let topo = Path::new(4);
        let rho = Rate::new(1, 2).unwrap();
        let wishes = patterns::paced_stream_source(0, 3, Rate::ONE, 40);
        let shaped = ShapingSource::new(topo, wishes, rho, 1).into_pattern();
        assert_eq!(shaped.len() as u64, Rate::ONE.mul_floor(40));
        assert!(analyze(&topo, &shaped, rho).tight_sigma <= 1);
    }
}
