//! (ρ, σ)-boundedness checking and the *excess* measure.
//!
//! Def. 2.1: an adversary `A` is (ρ, σ)-bounded if for every buffer `v` and
//! every interval `I` of rounds, `N_I(v) ≤ ρ·|I| + σ`, where `N_I(v)` counts
//! packets injected during `I` whose route crosses `v`.
//!
//! Def. 2.2 introduces the **excess**
//! `ξ_t(v) = max_{s ≤ t} max(N_[s,t](v) − ρ·(t−s+1), 0)`,
//! which satisfies the O(1)-per-round recurrence
//! `ξ_t = max(0, ξ_{t−1} + N_t − ρ)` — the same algebra as a token bucket.
//! An adversary is (ρ, σ)-bounded iff `ξ_t(v) ≤ σ` everywhere (Lemma 2.3(1)),
//! so the *tight* σ of a pattern is `⌈max ξ⌉`.
//!
//! All arithmetic is exact: excesses are maintained scaled by `ρ.den()`.

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, Round};
use crate::pattern::{Injection, Pattern};
use crate::rate::Rate;
use crate::topology::Topology;

/// Exact per-node excess tracker (token-bucket algebra, scaled integers):
/// the one implementation of ξ, shared by [`analyze`] and by the
/// generators that admit packets against a budget.
///
/// Per node it keeps the accumulator `ξ_{t−1}·den + N_t·den` of the last
/// round fed, and that round; ξ_t is the accumulator less ρ, floored at
/// 0. So a round may be fed more than once, and rounds may be skipped
/// (gaps decay lazily):
///
/// * [`observe_round`](ExcessTracker::observe_round) adds a batch of
///   crossing counts and tracks the maximum excess;
/// * [`try_admit`](ExcessTracker::try_admit) adds one packet to every
///   buffer of a route if each stays within a budget σ.
///
/// [`tight_sigma`](ExcessTracker::tight_sigma) and
/// [`max_at`](ExcessTracker::max_at) report what `observe_round` fed. An
/// admitted schedule is within σ by construction, so `try_admit` leaves
/// the maximum alone and costs one decay, one compare and one add per
/// buffer.
///
/// # Examples
///
/// ```
/// use aqt_model::{ExcessTracker, NodeId, Rate, Round};
///
/// let mut tracker = ExcessTracker::new(Rate::new(1, 2)?, 4);
/// // Two packets crossing v0 in round 0: ξ = 2 − 1/2 = 3/2.
/// tracker.observe_round(Round::new(0), &[(NodeId::new(0), 2)]);
/// assert_eq!(tracker.tight_sigma(), 2); // ⌈3/2⌉
/// # Ok::<(), aqt_model::RateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExcessTracker {
    rate: Rate,
    /// `ξ_{t−1}·den + N_t·den` for the round in `last[v]`: the excess
    /// before that round's ρ is subtracted.
    acc: Vec<u128>,
    last: Vec<Option<Round>>,
    max_scaled: u128,
    max_at: Option<(NodeId, Round)>,
}

impl ExcessTracker {
    /// Creates a tracker for `n` nodes at rate ρ.
    pub fn new(rate: Rate, n: usize) -> Self {
        ExcessTracker {
            rate,
            acc: vec![0; n],
            last: vec![None; n],
            max_scaled: 0,
            max_at: None,
        }
    }

    /// Brings node `i`'s accumulator up to `round`: one subtraction of ρ
    /// per round elapsed since the last one fed (that round's own ρ is
    /// still pending in the accumulator).
    ///
    /// # Panics
    ///
    /// Panics if node `i` was already fed at a later round.
    #[inline]
    fn sync(&mut self, i: usize, round: Round) -> &mut u128 {
        let acc = &mut self.acc[i];
        if let Some(prev) = self.last[i] {
            if prev != round {
                let gap = round
                    .since(prev)
                    .expect("rounds must be fed in non-decreasing order");
                *acc = acc.saturating_sub(u128::from(self.rate.num()) * u128::from(gap));
            }
        }
        self.last[i] = Some(round);
        acc
    }

    /// Records that in `round`, each listed node had the given number of
    /// crossing injections, and tracks the maximum excess. Rounds must be
    /// fed in non-decreasing order; nodes with zero injections may be
    /// omitted (decay is lazy).
    ///
    /// # Panics
    ///
    /// Panics if a node was already fed at a *later* round.
    pub fn observe_round(&mut self, round: Round, counts: &[(NodeId, u64)]) {
        let num = u128::from(self.rate.num());
        let den = u128::from(self.rate.den());
        for &(v, n) in counts {
            let acc = self.sync(v.index(), round);
            *acc += u128::from(n) * den;
            let xi = acc.saturating_sub(num);
            if xi > self.max_scaled {
                self.max_scaled = xi;
                self.max_at = Some((v, round));
            }
        }
    }

    /// Whether one more packet in `round` crossing exactly the buffers in
    /// `route` keeps the excess of each within `sigma`; if so, adds it to
    /// every one of them. Rounds must be fed in non-decreasing order;
    /// within a round, any number of candidates may be tried.
    ///
    /// `route` is the set of buffers the packet occupies (source
    /// inclusive, destination exclusive), as produced by
    /// [`Topology::route_buffers`].
    ///
    /// # Panics
    ///
    /// Panics if a buffer of `route` was already fed at a later round.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqt_model::{ExcessTracker, NodeId, Rate, Round};
    ///
    /// let mut tracker = ExcessTracker::new(Rate::new(1, 2)?, 3);
    /// let route = [NodeId::new(0)];
    /// // σ = 1 at ρ = 1/2: one packet in round 0 is fine (ξ = 1/2)…
    /// assert!(tracker.try_admit(Round::new(0), &route, 1));
    /// // …a second would push ξ to 3/2 > 1.
    /// assert!(!tracker.try_admit(Round::new(0), &route, 1));
    /// // Two rounds later the bucket has drained enough.
    /// assert!(tracker.try_admit(Round::new(2), &route, 1));
    /// # Ok::<(), aqt_model::RateError>(())
    /// ```
    pub fn try_admit(&mut self, round: Round, route: &[NodeId], sigma: u64) -> bool {
        let num = u128::from(self.rate.num());
        let den = u128::from(self.rate.den());
        let budget = u128::from(sigma) * den;
        for &v in route {
            // ξ_t would become max(0, acc + den − num).
            if (*self.sync(v.index(), round) + den).saturating_sub(num) > budget {
                return false;
            }
        }
        for &v in route {
            self.acc[v.index()] += den;
        }
        true
    }

    /// The excess of `v` after `round`, applying pending decay, as an
    /// exact fraction `(numerator, denominator)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was fed at a round later than `round`.
    pub fn excess_at(&self, v: NodeId, round: Round) -> (u128, u64) {
        let i = v.index();
        let s = match self.last[i] {
            None => 0,
            Some(prev) => {
                let gap = round.since(prev).expect("query round precedes last update");
                let decay = u128::from(self.rate.num()) * (u128::from(gap) + 1);
                self.acc[i].saturating_sub(decay)
            }
        };
        (s, u64::from(self.rate.den()))
    }

    /// The smallest integer σ such that every excess `observe_round` fed
    /// satisfies `ξ ≤ σ`: the tight burst parameter of the observed
    /// pattern.
    pub fn tight_sigma(&self) -> u64 {
        let den = u128::from(self.rate.den());
        u64::try_from(self.max_scaled.div_ceil(den)).expect("excess exceeds u64")
    }

    /// Where the maximum excess `observe_round` fed was attained, if it
    /// fed any injection.
    pub fn max_at(&self) -> Option<(NodeId, Round)> {
        self.max_at
    }

    /// The maximum excess `observe_round` fed, as an exact fraction.
    pub fn max_excess(&self) -> (u128, u64) {
        (self.max_scaled, u64::from(self.rate.den()))
    }
}

/// Result of analyzing a pattern's burstiness at a given rate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundednessReport {
    /// The rate the analysis was performed at.
    pub rate: Rate,
    /// Tight σ: the smallest integer burst parameter that makes the
    /// pattern (ρ, σ)-bounded.
    pub tight_sigma: u64,
    /// Node and round where the maximal excess was attained (`None` for an
    /// empty pattern).
    pub worst: Option<(NodeId, Round)>,
    /// Total number of injections analyzed.
    pub injections: usize,
}

impl BoundednessReport {
    /// Whether the pattern is (ρ, σ)-bounded for the given σ.
    pub fn is_bounded_by(&self, sigma: u64) -> bool {
        self.tight_sigma <= sigma
    }
}

/// [`analyze`] keeps a per-node excess table while the topology has at
/// most this many nodes per buffer crossing of the pattern's routes, and
/// state for the crossed buffers only beyond. Timed on paths of 2⁹–2²⁴
/// nodes under 10³–4×10⁶ crossings, the table is the faster one up to 4
/// nodes a crossing (by up to 2.3×: the crossed-buffer list pays a set
/// insert and a search per crossing) and the list from 8 on (1.3–3× at
/// 16 nodes a crossing, 7–11× at 64).
const NODES_PER_CROSSING: usize = 4;

/// Analyzes a pattern against a topology at rate ρ, returning the tight σ.
///
/// This is the workhorse used to (a) *verify* generated adversaries and
/// (b) *measure* the actual burstiness of hand-built patterns such as the
/// §5 lower-bound construction. On a topology much larger than the
/// pattern's routes it keeps state only for the buffers they cross, so a
/// short schedule on a 2×10⁹-node mesh costs what the schedule costs.
pub fn analyze<T: Topology>(topology: &T, pattern: &Pattern, rate: Rate) -> BoundednessReport {
    let route = |i: &Injection| topology.route_buffers(i.source, i.dest).unwrap_or_default();
    let crossings: usize = pattern
        .injections()
        .iter()
        .filter_map(|i| topology.route_len(i.source, i.dest))
        .sum();
    // Past the crossover the crossed buffers, sorted, name the tracker's
    // slots, so a batch in node order is in slot order too.
    let sparse = topology.node_count() > crossings.saturating_mul(NODES_PER_CROSSING);
    let crossed: Option<Vec<NodeId>> = sparse.then(|| {
        let mut set = std::collections::BTreeSet::new();
        for injection in pattern.injections() {
            set.extend(route(injection));
        }
        set.into_iter().collect()
    });
    let slot = |v: NodeId| match &crossed {
        None => v,
        Some(c) => NodeId::new(c.binary_search(&v).expect("a crossed buffer")),
    };
    let slots = crossed.as_ref().map_or(topology.node_count(), Vec::len);
    let mut tracker = ExcessTracker::new(rate, slots);
    let mut counts: std::collections::BTreeMap<NodeId, u64> = std::collections::BTreeMap::new();
    for (round, group) in pattern.rounds() {
        counts.clear();
        for injection in group {
            for v in route(injection) {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let batch: Vec<(NodeId, u64)> = counts.iter().map(|(&v, &c)| (slot(v), c)).collect();
        tracker.observe_round(round, &batch);
    }
    let node = |slot: NodeId| crossed.as_ref().map_or(slot, |c| c[slot.index()]);
    BoundednessReport {
        rate,
        tight_sigma: tracker.tight_sigma(),
        worst: tracker.max_at().map(|(slot, t)| (node(slot), t)),
        injections: pattern.len(),
    }
}

/// Whether `pattern` is (ρ, σ)-bounded on `topology` (Def. 2.1), exactly.
pub fn is_bounded<T: Topology>(topology: &T, pattern: &Pattern, rate: Rate, sigma: u64) -> bool {
    analyze(topology, pattern, rate).is_bounded_by(sigma)
}

/// Brute-force `N_I(v)` for an explicit interval `[s, t]` (inclusive):
/// the number of injections during the interval whose route crosses `v`.
///
/// Quadratic helper for tests and small patterns; the tracker above is the
/// production path.
pub fn interval_load<T: Topology>(
    topology: &T,
    pattern: &Pattern,
    v: NodeId,
    s: Round,
    t: Round,
) -> u64 {
    pattern
        .injections()
        .iter()
        .filter(|i| i.round >= s && i.round <= t)
        .filter(|i| topology.on_route(i.source, i.dest, v))
        .count() as u64
}

/// Brute-force tight σ by enumerating all intervals ending at injection
/// rounds (O(T²·n)); used to cross-validate [`analyze`] in tests.
pub fn brute_force_tight_sigma<T: Topology>(topology: &T, pattern: &Pattern, rate: Rate) -> u64 {
    let Some(last) = pattern.last_round() else {
        return 0;
    };
    let den = u128::from(rate.den());
    let num = u128::from(rate.num());
    let mut max_scaled: u128 = 0;
    for v in 0..topology.node_count() {
        let v = NodeId::new(v);
        for s in 0..=last.value() {
            for t in s..=last.value() {
                let n = interval_load(topology, pattern, v, Round::new(s), Round::new(t));
                let lhs = u128::from(n) * den;
                let rhs = num * u128::from(t - s + 1);
                max_scaled = max_scaled.max(lhs.saturating_sub(rhs));
            }
        }
    }
    u64::try_from(max_scaled.div_ceil(den)).expect("excess exceeds u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Injection;
    use crate::topology::Path;

    fn line(n: usize) -> Path {
        Path::new(n)
    }

    #[test]
    fn empty_pattern_has_zero_sigma() {
        let report = analyze(&line(4), &Pattern::new(), Rate::new(1, 2).unwrap());
        assert_eq!(report.tight_sigma, 0);
        assert!(report.is_bounded_by(0));
        assert_eq!(report.worst, None);
    }

    #[test]
    fn single_packet_at_rate_one_has_zero_sigma() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let report = analyze(&line(4), &p, Rate::ONE);
        assert_eq!(report.tight_sigma, 0);
    }

    #[test]
    fn burst_of_k_at_rate_one_has_sigma_k_minus_one() {
        // k packets in one round all crossing buffer 0.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 5]);
        let report = analyze(&line(2), &p, Rate::ONE);
        assert_eq!(report.tight_sigma, 4);
        assert_eq!(report.worst, Some((NodeId::new(0), Round::new(0))));
    }

    #[test]
    fn fractional_rate_rounds_up() {
        // One packet at rate 1/3: excess 1 − 1/3 = 2/3, tight integer σ = 1.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let report = analyze(&line(2), &p, Rate::new(1, 3).unwrap());
        assert_eq!(report.tight_sigma, 1);
    }

    #[test]
    fn paced_injections_at_exact_rate_have_bounded_excess() {
        // One packet every 2 rounds at ρ = 1/2: ξ peaks at 1/2 ⇒ σ = 1.
        let p: Pattern = (0..20).map(|k| Injection::new(2 * k, 0, 1)).collect();
        let report = analyze(&line(2), &p, Rate::new(1, 2).unwrap());
        assert_eq!(report.tight_sigma, 1);
        // And it is NOT (1/2, 0)-bounded.
        assert!(!report.is_bounded_by(0));
    }

    #[test]
    fn decay_between_bursts() {
        // Burst of 3 at round 0, then quiet for 6 rounds at ρ = 1/2, then
        // burst of 3: excess never exceeds the single-burst value.
        let mut inj = vec![Injection::new(0, 0, 1); 3];
        inj.extend(vec![Injection::new(6, 0, 1); 3]);
        let p = Pattern::from_injections(inj);
        let report = analyze(&line(2), &p, Rate::new(1, 2).unwrap());
        // Single burst: 3 − 1/2 = 5/2 ⇒ σ = 3. After 5 quiet rounds the
        // excess decays by 5/2 to 0, so the second burst peaks equally.
        assert_eq!(report.tight_sigma, 3);
    }

    #[test]
    fn overlapping_routes_accumulate_on_shared_buffers() {
        // Two packets 0→3 and 1→3 injected together: buffer 1 and 2 see 2.
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 1, 3)]);
        let report = analyze(&line(4), &p, Rate::ONE);
        assert_eq!(report.tight_sigma, 1);
        let (worst_v, _) = report.worst.unwrap();
        assert!(worst_v == NodeId::new(1) || worst_v == NodeId::new(2));
    }

    #[test]
    fn sparse_analysis_matches_the_per_node_table() {
        // 15 crossings: a line of 8 nodes gets the per-node table, one of
        // 2³¹ keeps state for the crossed buffers only. Both report the
        // tight σ and worst (node, round) of the brute force.
        let p = Pattern::from_injections(vec![
            Injection::new(0, 2, 5),
            Injection::new(1, 0, 5),
            Injection::new(1, 0, 5),
            Injection::new(3, 1, 3),
        ]);
        for rate in [Rate::ONE, Rate::new(1, 3).unwrap()] {
            let dense = analyze(&line(8), &p, rate);
            assert_eq!(
                dense.tight_sigma,
                brute_force_tight_sigma(&line(8), &p, rate)
            );
            assert_eq!(analyze(&line(1 << 31), &p, rate), dense, "rate {rate}");
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_patterns() {
        let topo = line(6);
        let patterns = [
            Pattern::from_injections(vec![
                Injection::new(0, 0, 5),
                Injection::new(0, 2, 4),
                Injection::new(1, 1, 3),
                Injection::new(4, 0, 2),
                Injection::new(4, 3, 5),
                Injection::new(9, 2, 5),
            ]),
            Pattern::from_injections(vec![Injection::new(3, 1, 2); 7]),
        ];
        for rate in [
            Rate::ONE,
            Rate::new(1, 2).unwrap(),
            Rate::new(2, 3).unwrap(),
        ] {
            for p in &patterns {
                assert_eq!(
                    analyze(&topo, p, rate).tight_sigma,
                    brute_force_tight_sigma(&topo, p, rate),
                    "rate {rate}"
                );
            }
        }
    }

    #[test]
    fn interval_load_counts_crossings() {
        let topo = line(5);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 4),
            Injection::new(2, 1, 3),
            Injection::new(5, 3, 4),
        ]);
        let v2 = NodeId::new(2);
        assert_eq!(
            interval_load(&topo, &p, v2, Round::new(0), Round::new(5)),
            2
        );
        assert_eq!(
            interval_load(&topo, &p, v2, Round::new(1), Round::new(2)),
            1
        );
        assert_eq!(
            interval_load(&topo, &p, NodeId::new(3), Round::new(5), Round::new(5)),
            1
        );
    }

    #[test]
    fn lemma_2_3_part_2_injections_bounded_by_excess_delta_plus_rho() {
        // N_{t}(v) ≤ ξ_t(v) − ξ_{t−1}(v) + ρ, checked in scaled arithmetic
        // on a concrete bursty pattern.
        let rate = Rate::new(1, 2).unwrap();
        let topo = line(2);
        let p = Pattern::from_injections(vec![
            Injection::new(0, 0, 1),
            Injection::new(0, 0, 1),
            Injection::new(1, 0, 1),
            Injection::new(3, 0, 1),
        ]);
        let den = u128::from(rate.den());
        let num = u128::from(rate.num());
        let v = NodeId::new(0);
        let mut tracker = ExcessTracker::new(rate, 2);
        let mut prev_scaled: u128 = 0;
        for t in 0..=3u64 {
            let n = interval_load(&topo, &p, v, Round::new(t), Round::new(t));
            tracker.observe_round(Round::new(t), &[(v, n)]);
            let (cur, _) = tracker.excess_at(v, Round::new(t));
            // N·den ≤ (ξ_t − ξ_{t−1})·den + num
            assert!(
                u128::from(n) * den <= cur.saturating_sub(prev_scaled) + num,
                "round {t}"
            );
            prev_scaled = cur;
        }
    }

    #[test]
    fn a_round_may_be_fed_more_than_once() {
        // One batch of 3, or batches of 1 and 2 in the same round, give
        // the same excess and the same maximum.
        let rate = Rate::new(1, 2).unwrap();
        let v = NodeId::new(0);
        let mut once = ExcessTracker::new(rate, 1);
        once.observe_round(Round::new(4), &[(v, 3)]);
        let mut twice = ExcessTracker::new(rate, 1);
        twice.observe_round(Round::new(4), &[(v, 1)]);
        twice.observe_round(Round::new(4), &[(v, 2)]);
        assert_eq!(twice.excess_at(v, Round::new(4)), (5, 2));
        assert_eq!(
            twice.excess_at(v, Round::new(4)),
            once.excess_at(v, Round::new(4))
        );
        assert_eq!(twice.max_excess(), once.max_excess());
        assert_eq!(twice.max_at(), Some((v, Round::new(4))));
    }

    #[test]
    fn rate_one_sigma_zero_admits_one_per_round() {
        let mut tracker = ExcessTracker::new(Rate::ONE, 2);
        let route = [NodeId::new(0)];
        assert!(tracker.try_admit(Round::new(0), &route, 0));
        assert!(!tracker.try_admit(Round::new(0), &route, 0));
        assert!(tracker.try_admit(Round::new(1), &route, 0));
    }

    #[test]
    fn burst_budget_is_honored() {
        let mut tracker = ExcessTracker::new(Rate::ONE, 2);
        let route = [NodeId::new(0)];
        // 1 + σ packets fit in one round at rate 1.
        for _ in 0..4 {
            assert!(tracker.try_admit(Round::new(0), &route, 3));
        }
        assert!(!tracker.try_admit(Round::new(0), &route, 3));
    }

    #[test]
    fn budget_replenishes_at_rate() {
        let mut tracker = ExcessTracker::new(Rate::new(1, 3).unwrap(), 1);
        let route = [NodeId::new(0)];
        let admit = |tracker: &mut ExcessTracker, t| tracker.try_admit(Round::new(t), &route, 1);
        assert!(admit(&mut tracker, 0)); // ξ = 2/3
        assert!(!admit(&mut tracker, 0)); // would be 5/3 > 1
        assert!(!admit(&mut tracker, 1)); // ξ decayed to 1/3; +1 = 4/3 > 1
        assert!(admit(&mut tracker, 2)); // ξ decayed to 0; +1−1/3 = 2/3
    }

    #[test]
    fn routes_constrain_all_their_buffers() {
        let mut tracker = ExcessTracker::new(Rate::ONE, 4);
        let t = Round::new(0);
        let long: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        assert!(tracker.try_admit(t, &long, 0));
        // Buffer 1 is exhausted by the long packet…
        assert!(!tracker.try_admit(t, &[NodeId::new(1)], 0));
        // …and a rejected route commits nothing: buffer 3 is untouched.
        assert!(!tracker.try_admit(t, &[NodeId::new(3), NodeId::new(2)], 0));
        assert!(tracker.try_admit(t, &[NodeId::new(3)], 0));
    }

    #[test]
    fn excess_at_reports_post_round_value() {
        let mut tracker = ExcessTracker::new(Rate::new(1, 2).unwrap(), 1);
        let v = NodeId::new(0);
        assert!(tracker.try_admit(Round::new(0), &[v], 4));
        assert!(tracker.try_admit(Round::new(0), &[v], 4));
        // ξ_0 = 2 − 1/2 = 3/2 → scaled 3 over 2.
        assert_eq!(tracker.excess_at(v, Round::new(0)), (3, 2));
        // Two quiet rounds: 3/2 − 1 = 1/2.
        assert_eq!(tracker.excess_at(v, Round::new(2)), (1, 2));
        // Admission tracks no maximum: that is what `observe_round` fed.
        assert_eq!(tracker.tight_sigma(), 0);
        assert_eq!(tracker.max_at(), None);
    }

    #[test]
    fn admitted_streams_are_bounded_by_construction() {
        // Greedily admit as much as possible for 40 rounds, then measure
        // the stream's tight σ by enumerating intervals, which shares no
        // code with the tracker.
        let topo = line(6);
        let rate = Rate::new(2, 3).unwrap();
        let sigma = 2;
        let mut tracker = ExcessTracker::new(rate, 6);
        let mut injections = Vec::new();
        for t in 0..40u64 {
            for (src, dst) in [(0usize, 5usize), (2, 4), (1, 3), (0, 2)] {
                let route = topo
                    .route_buffers(NodeId::new(src), NodeId::new(dst))
                    .unwrap();
                while tracker.try_admit(Round::new(t), &route, sigma) {
                    injections.push(Injection::new(t, src, dst));
                }
            }
        }
        let pattern = Pattern::from_injections(injections);
        // The greedy fill uses the whole budget and no more.
        assert_eq!(brute_force_tight_sigma(&topo, &pattern, rate), sigma);
    }

    #[test]
    fn excess_at_applies_pending_decay() {
        let rate = Rate::new(1, 4).unwrap();
        let mut tracker = ExcessTracker::new(rate, 1);
        tracker.observe_round(Round::new(0), &[(NodeId::new(0), 2)]);
        // ξ_0 = 2 − 1/4 = 7/4 (scaled 7). After 3 more quiet rounds: 7 − 3 = 4.
        assert_eq!(tracker.excess_at(NodeId::new(0), Round::new(0)), (7, 4));
        assert_eq!(tracker.excess_at(NodeId::new(0), Round::new(3)), (4, 4));
        assert_eq!(tracker.excess_at(NodeId::new(0), Round::new(100)), (0, 4));
    }
}
