//! Randomized (ρ, σ)-bounded adversaries.
//!
//! These generators draw candidate packets at random and admit each one
//! only if [`ExcessTracker::try_admit`] keeps every buffer on its route
//! within σ, so every produced [`Pattern`] is (ρ, σ)-bounded by
//! construction. They are the workhorses of the upper-bound experiments
//! (E1–E4): the theorems hold for *all* bounded adversaries, so we verify
//! them against aggressive randomized ones.
//!
//! Generation is **streaming-first**: [`RandomAdversary::stream_path`] /
//! [`RandomAdversary::stream_tree`] return a [`RandomSource`] that draws
//! each round's packets on demand, so unbounded-horizon traffic needs no
//! materialized schedule. [`RandomAdversary::build_path`] /
//! [`RandomAdversary::build_tree`] are the materializing adapters (they
//! drain the same stream, so stream and pattern are identical per seed).

use std::collections::BTreeSet;

use aqt_model::{
    DirectedTree, ExcessTracker, Injection, InjectionSource, NodeId, Path, Pattern, Rate, Round,
    Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::patterns::even_destinations;

/// Which destinations random packets may have.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DestSpec {
    /// Any node reachable from the source.
    #[default]
    #[serde(rename = "any")]
    AnyReachable,
    /// Only the given destinations (the paper's `W`); sources are drawn so
    /// that some allowed destination is reachable.
    Fixed {
        /// The allowed destinations.
        dests: Vec<NodeId>,
    },
    /// `count` destinations evenly spread over the topology (rightmost
    /// nodes on a path; for trees, chosen among distinct depths greedily).
    Spread {
        /// Number of distinct destinations to use.
        count: usize,
    },
}

impl DestSpec {
    /// Convenience constructor for [`DestSpec::Fixed`] from plain node
    /// indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use aqt_adversary::DestSpec;
    /// use aqt_model::NodeId;
    ///
    /// assert_eq!(
    ///     DestSpec::fixed([3, 7]),
    ///     DestSpec::Fixed { dests: vec![NodeId::new(3), NodeId::new(7)] }
    /// );
    /// ```
    pub fn fixed<I: IntoIterator<Item = usize>>(dests: I) -> Self {
        DestSpec::Fixed {
            dests: dests.into_iter().map(NodeId::new).collect(),
        }
    }
}

/// How injections are spaced in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Cadence {
    /// Try to inject in every round (smooth load at rate ≈ ρ).
    #[default]
    Smooth,
    /// Stay idle, then exhaust the accumulated budget in bursts every
    /// `period` rounds — the adversary's nastiest legal behaviour. A
    /// burst round draws `attempts·period` candidates; a source panics
    /// in its first burst round if that overflows `usize`.
    Bursty {
        /// Burst period in rounds (≥ 1).
        period: u64,
    },
}

/// Candidate draws per active round unless
/// [`RandomAdversary::attempts_per_round`] says otherwise.
pub(crate) fn default_attempts() -> usize {
    8
}

/// Configuration for random adversaries.
///
/// # Examples
///
/// ```
/// use aqt_adversary::{Cadence, DestSpec, RandomAdversary};
/// use aqt_model::{analyze, Path, Rate};
///
/// let topo = Path::new(16);
/// let rate = Rate::new(1, 2)?;
/// let pattern = RandomAdversary::new(rate, 2, 100)
///     .destinations(DestSpec::Spread { count: 4 })
///     .cadence(Cadence::Bursty { period: 10 })
///     .seed(7)
///     .build_path(&topo);
/// // Bounded by construction:
/// assert!(analyze(&topo, &pattern, rate).tight_sigma <= 2);
/// assert_eq!(pattern.destinations().len(), 4);
/// # Ok::<(), aqt_model::RateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomAdversary {
    rate: Rate,
    sigma: u64,
    rounds: u64,
    dests: DestSpec,
    cadence: Cadence,
    seed: u64,
    attempts_per_round: usize,
}

impl RandomAdversary {
    /// A random adversary at rate ρ, burst budget σ, for `rounds` rounds.
    pub fn new(rate: Rate, sigma: u64, rounds: u64) -> Self {
        RandomAdversary {
            rate,
            sigma,
            rounds,
            dests: DestSpec::AnyReachable,
            cadence: Cadence::Smooth,
            seed: 0,
            attempts_per_round: default_attempts(),
        }
    }

    /// Restricts destinations (builder-style).
    pub fn destinations(mut self, dests: DestSpec) -> Self {
        self.dests = dests;
        self
    }

    /// Sets the injection cadence (builder-style).
    pub fn cadence(mut self, cadence: Cadence) -> Self {
        self.cadence = cadence;
        self
    }

    /// Sets the RNG seed (builder-style); same seed ⇒ same pattern.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many candidate packets are drawn per active round
    /// (builder-style). More attempts ⇒ load closer to the (ρ, σ) budget.
    pub fn attempts_per_round(mut self, attempts: usize) -> Self {
        assert!(attempts > 0, "at least one attempt per round");
        self.attempts_per_round = attempts;
        self
    }

    fn resolve_path_dests(&self, topo: &Path) -> Vec<NodeId> {
        let n = topo.node_count();
        match &self.dests {
            DestSpec::AnyReachable => (1..n).map(NodeId::new).collect(),
            DestSpec::Fixed { dests } => {
                let mut ws = dests.clone();
                ws.sort();
                ws.dedup();
                assert!(
                    ws.iter().all(|w| w.index() > 0 && w.index() < n),
                    "fixed destinations must lie in 1..n"
                );
                ws
            }
            DestSpec::Spread { count } => even_destinations(n, *count)
                .into_iter()
                .map(NodeId::new)
                .collect(),
        }
    }

    /// Streaming source on a path: draws each round's candidates on demand,
    /// admission-controlled to (ρ, σ) by construction.
    ///
    /// # Panics
    ///
    /// Panics if a `Fixed`/`Spread` destination spec is invalid for the
    /// topology (e.g. more destinations than nodes).
    pub fn stream_path(&self, topo: &Path) -> RandomSource {
        assert!(topo.node_count() >= 2, "need at least two nodes to route");
        let dests = self.resolve_path_dests(topo);
        self.stream(Draw::Path { topo: *topo, dests }, topo.node_count())
    }

    /// Generates a pattern on a path (materializes
    /// [`stream_path`](RandomAdversary::stream_path)).
    ///
    /// # Panics
    ///
    /// Panics if a `Fixed`/`Spread` destination spec is invalid for the
    /// topology (e.g. more destinations than nodes).
    pub fn build_path(&self, topo: &Path) -> Pattern {
        self.stream_path(topo).into_pattern()
    }

    /// Streaming source on a directed tree: sources are uniform non-root
    /// nodes, destinations uniform proper ancestors (restricted by the
    /// destination spec where applicable).
    ///
    /// # Panics
    ///
    /// Panics if `Fixed` destinations contain the tree's leaves' own ids in
    /// invalid positions (a destination must have at least one descendant).
    pub fn stream_tree(&self, topo: &DirectedTree) -> RandomSource {
        assert!(topo.node_count() >= 2, "need at least two nodes to route");
        let allowed: Option<BTreeSet<NodeId>> = match &self.dests {
            DestSpec::AnyReachable => None,
            DestSpec::Fixed { dests } => Some(dests.iter().copied().collect()),
            DestSpec::Spread { count } => Some(spread_tree_dests(topo, *count)),
        };
        let draw = Draw::Tree {
            topo: topo.clone(),
            allowed,
        };
        self.stream(draw, topo.node_count())
    }

    /// Generates a pattern on a directed tree (materializes
    /// [`stream_tree`](RandomAdversary::stream_tree)).
    ///
    /// # Panics
    ///
    /// Panics if `Fixed` destinations contain the tree's leaves' own ids in
    /// invalid positions (a destination must have at least one descendant).
    pub fn build_tree(&self, topo: &DirectedTree) -> Pattern {
        self.stream_tree(topo).into_pattern()
    }

    /// The source drawing from `draw`, admitting against an excess
    /// tracker over `n` buffers.
    fn stream(&self, draw: Draw, n: usize) -> RandomSource {
        RandomSource {
            draw,
            cadence: self.cadence,
            attempts_per_round: self.attempts_per_round,
            rounds: self.rounds,
            rng: StdRng::seed_from_u64(self.seed),
            tracker: ExcessTracker::new(self.rate, n),
            sigma: self.sigma,
            route_buf: Vec::new(),
            next: 0,
        }
    }
}

/// The candidate draws of a bursty cadence's burst round, which gets the
/// whole quiet window's attempts: `attempts·period` (a period of 0 acts
/// as 1), or `None` when that overflows `usize`.
pub(crate) fn burst_draws(attempts_per_round: usize, period: u64) -> Option<usize> {
    attempts_per_round.checked_mul(usize::try_from(period.max(1)).ok()?)
}

/// How many candidates round `t` draws: 0 in a quiet round.
///
/// # Panics
///
/// Panics on a burst round whose `attempts·period` overflows `usize`.
fn round_draws(cadence: Cadence, attempts_per_round: usize, t: u64) -> usize {
    match cadence {
        Cadence::Smooth => attempts_per_round,
        Cadence::Bursty { period } if t % period.max(1) == 0 => {
            burst_draws(attempts_per_round, period).expect("attempts * period overflows usize")
        }
        Cadence::Bursty { .. } => 0,
    }
}

/// Where a [`RandomSource`] draws its candidate packets.
#[derive(Debug, Clone)]
enum Draw {
    /// A destination from `dests`, then a source left of it.
    Path { topo: Path, dests: Vec<NodeId> },
    /// A non-root source, then the ancestor a random number of hops above
    /// it, kept only if `allowed` (when set) holds it.
    Tree {
        topo: DirectedTree,
        allowed: Option<BTreeSet<NodeId>>,
    },
}

impl Draw {
    /// Draws one candidate `(source, dest)` and writes its route into
    /// `route`, or returns `None` for a skipped draw. The RNG is called
    /// in a fixed order, so a seed fixes the schedule: on a path the
    /// destination, then the source; on a tree the source (the root
    /// skips), then the hop count (a disallowed destination skips).
    #[inline]
    fn candidate(&self, rng: &mut StdRng, route: &mut Vec<NodeId>) -> Option<(NodeId, NodeId)> {
        route.clear();
        let (source, dest, routed) = match self {
            Draw::Path { topo, dests } => {
                let dest = dests[rng.random_range(0..dests.len())];
                let source = NodeId::new(rng.random_range(0..dest.index()));
                (source, dest, topo.route_buffers_into(source, dest, route))
            }
            Draw::Tree { topo, allowed } => {
                let source = NodeId::new(rng.random_range(0..topo.node_count()));
                if source == topo.root() {
                    return None;
                }
                let hops = rng.random_range(1..=topo.depth(source));
                let mut dest = source;
                for _ in 0..hops {
                    dest = topo.parent(dest).expect("depth bounds the climb");
                }
                if allowed.as_ref().is_some_and(|a| !a.contains(&dest)) {
                    return None;
                }
                (source, dest, topo.route_buffers_into(source, dest, route))
            }
        };
        debug_assert!(routed, "a drawn destination is reachable from its source");
        Some((source, dest))
    }
}

/// Streaming state of a [`RandomAdversary`] on a [`Path`] or a
/// [`DirectedTree`]; produced by [`RandomAdversary::stream_path`] and
/// [`RandomAdversary::stream_tree`]. Memory use is O(nodes), independent
/// of the horizon.
#[derive(Debug, Clone)]
pub struct RandomSource {
    draw: Draw,
    cadence: Cadence,
    attempts_per_round: usize,
    rounds: u64,
    rng: StdRng,
    tracker: ExcessTracker,
    sigma: u64,
    route_buf: Vec<NodeId>,
    next: u64,
}

impl InjectionSource for RandomSource {
    fn next_round(&mut self, round: Round, out: &mut Vec<Injection>) {
        let t = round.value();
        debug_assert_eq!(t, self.next, "rounds must be consumed in order");
        if t < self.rounds {
            for _ in 0..round_draws(self.cadence, self.attempts_per_round, t) {
                let Some((source, dest)) = self.draw.candidate(&mut self.rng, &mut self.route_buf)
                else {
                    continue;
                };
                if self.tracker.try_admit(round, &self.route_buf, self.sigma) {
                    out.push(Injection {
                        round,
                        source,
                        dest,
                    });
                }
            }
        }
        self.next = self.next.max(t + 1);
    }

    fn horizon(&self) -> Option<u64> {
        Some(self.rounds)
    }

    fn is_exhausted(&self) -> bool {
        self.next >= self.rounds
    }
}

/// `count` destinations on a tree: internal nodes closest to the root
/// first (every chosen destination has at least one descendant).
fn spread_tree_dests(topo: &DirectedTree, count: usize) -> BTreeSet<NodeId> {
    let mut internal: Vec<NodeId> = (0..topo.node_count())
        .map(NodeId::new)
        .filter(|v| !topo.is_leaf(*v))
        .collect();
    internal.sort_by_key(|v| (topo.depth(*v), v.index()));
    assert!(
        count <= internal.len(),
        "tree has only {} internal nodes, need {count}",
        internal.len()
    );
    internal.into_iter().take(count).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::analyze;

    #[test]
    #[should_panic(expected = "attempts * period overflows usize")]
    fn burst_draws_overflow_panics_in_the_first_burst_round() {
        let _ = RandomAdversary::new(Rate::ONE, 1, 4)
            .cadence(Cadence::Bursty { period: u64::MAX })
            .attempts_per_round(2)
            .build_path(&Path::new(4));
    }

    #[test]
    fn path_pattern_is_bounded_by_construction() {
        let topo = Path::new(12);
        for (num, den, sigma) in [(1u32, 1u32, 0u64), (1, 2, 3), (2, 3, 1)] {
            let rate = Rate::new(num, den).unwrap();
            let p = RandomAdversary::new(rate, sigma, 80)
                .seed(13)
                .build_path(&topo);
            assert!(!p.is_empty());
            let report = analyze(&topo, &p, rate);
            assert!(
                report.tight_sigma <= sigma,
                "σ = {} > {sigma} at ρ = {rate}",
                report.tight_sigma
            );
        }
    }

    #[test]
    fn bursty_cadence_uses_burst_budget() {
        let topo = Path::new(8);
        let rate = Rate::new(1, 2).unwrap();
        let p = RandomAdversary::new(rate, 4, 60)
            .cadence(Cadence::Bursty { period: 12 })
            .seed(3)
            .build_path(&topo);
        // Injections only on multiples of 12.
        assert!(p.injections().iter().all(|i| i.round.value() % 12 == 0));
        assert!(analyze(&topo, &p, rate).tight_sigma <= 4);
    }

    #[test]
    fn fixed_destinations_are_respected() {
        let topo = Path::new(10);
        let ws = vec![NodeId::new(4), NodeId::new(9)];
        let p = RandomAdversary::new(Rate::ONE, 1, 40)
            .destinations(DestSpec::Fixed { dests: ws.clone() })
            .seed(1)
            .build_path(&topo);
        let got = p.destinations();
        assert!(got.iter().all(|w| ws.contains(w)));
        assert_eq!(got.len(), 2, "both destinations should be used");
    }

    #[test]
    fn spread_counts_destinations() {
        let spread = |n, count| {
            RandomAdversary::new(Rate::ONE, 1, 1)
                .destinations(DestSpec::Spread { count })
                .resolve_path_dests(&Path::new(n))
        };
        assert_eq!(spread(16, 4).len(), 4);
        assert_eq!(spread(16, 1), vec![NodeId::new(15)]);
        assert_eq!(spread(9, 8).len(), 8);
    }

    #[test]
    fn deterministic_in_seed() {
        let topo = Path::new(8);
        let mk = |seed| {
            RandomAdversary::new(Rate::new(1, 2).unwrap(), 2, 50)
                .seed(seed)
                .build_path(&topo)
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    fn tree_pattern_is_bounded_and_routable() {
        let topo = DirectedTree::random(24, 5);
        let rate = Rate::new(1, 2).unwrap();
        let p = RandomAdversary::new(rate, 2, 60).seed(21).build_tree(&topo);
        assert!(!p.is_empty());
        p.validate(&topo).unwrap();
        assert!(analyze(&topo, &p, rate).tight_sigma <= 2);
    }

    #[test]
    fn tree_spread_picks_internal_nodes() {
        let topo = DirectedTree::caterpillar(5, 2);
        let dests = spread_tree_dests(&topo, 3);
        assert_eq!(dests.len(), 3);
        for w in dests {
            assert!(!topo.is_leaf(w));
        }
    }

    #[test]
    fn stream_and_build_agree_per_seed() {
        let topo = Path::new(16);
        let adv = RandomAdversary::new(Rate::new(2, 3).unwrap(), 2, 70)
            .destinations(DestSpec::Spread { count: 3 })
            .cadence(Cadence::Bursty { period: 7 })
            .seed(5);
        assert_eq!(adv.stream_path(&topo).into_pattern(), adv.build_path(&topo));

        let tree = DirectedTree::random(20, 4);
        let tadv = RandomAdversary::new(Rate::new(1, 2).unwrap(), 1, 50).seed(8);
        assert_eq!(
            tadv.stream_tree(&tree).into_pattern(),
            tadv.build_tree(&tree)
        );
    }

    #[test]
    fn stream_reports_horizon_and_exhaustion() {
        let topo = Path::new(8);
        let mut src = RandomAdversary::new(Rate::ONE, 1, 5)
            .seed(1)
            .stream_path(&topo);
        assert_eq!(src.horizon(), Some(5));
        assert!(!src.is_exhausted());
        let mut buf = Vec::new();
        for t in 0..5 {
            src.next_round(Round::new(t), &mut buf);
        }
        assert!(src.is_exhausted());
        assert!(!buf.is_empty());
    }

    #[test]
    fn single_destination_mode_for_pts_experiments() {
        let topo = Path::new(16);
        let p = RandomAdversary::new(Rate::ONE, 2, 64)
            .destinations(DestSpec::fixed([15]))
            .seed(2)
            .build_path(&topo);
        assert_eq!(p.destinations().len(), 1);
        assert!(p.len() > 32, "rate-1 traffic should be dense");
    }
}
