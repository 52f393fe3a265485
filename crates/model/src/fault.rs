//! Deterministic fault injection: seeded, serializable fault schedules
//! ([`FaultSpec`]) expanded into a per-round mask ([`FaultState`]) the
//! engine consults while forwarding.
//!
//! The paper's AQT bounds assume a static, always-live network; this
//! module asks what the protocols do when that assumption breaks. A
//! [`FaultSpec`] is a list of [`FaultEvent`]s — link failures with
//! recovery windows, node crashes, partitions, per-edge extra latency —
//! plus a seed that resolves any randomized events
//! ([`FaultEvent::RandomLinks`]) into concrete edges. The engine expands
//! the spec once into a `FaultRuntime` and, at the top of every round,
//! rebuilds the active [`FaultState`]:
//!
//! - a **blocked link** ([`FaultState::blocks`]) forwards nothing: the
//!   planned send is skipped before capacity or bandwidth validation, as
//!   if the protocol had not requested it;
//! - a **dead node** forwards nothing, receives nothing, and accepts no
//!   injections; packets buffered (or staged) at a node when it crashes
//!   are removed and counted as `faulted` — never silently lost, so
//!   conservation extends to
//!   `injected = delivered + dropped + faulted + in-network + staged`;
//! - a **delayed link** with extra latency `d` forwards only on rounds
//!   divisible by `d + 1` (bandwidth `1/(d+1)` instead of 1).
//!
//! Everything is deterministic: the same spec (same seed) produces the
//! same `FaultState` sequence, and the engine advances the mask once at
//! the top of each round, so every phase of the round sees the same
//! mask. An empty spec is never expanded at all, so fault-free runs are
//! bit-for-bit unchanged.

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, Round};
use crate::topology::Topology;
use crate::util::SplitMix64;

/// A single scheduled fault. Rounds are 0-based; every event activates at
/// round `at` and, when `until` is `Some(u)`, recovers at round `u`
/// (active on rounds `at..u`). `until: None` means permanent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultEvent {
    /// The directed link `from → to` forwards nothing while active.
    LinkDown {
        /// Link tail (the forwarding node).
        from: usize,
        /// Link head (the receiving node).
        to: usize,
        /// First round the link is down.
        at: u64,
        /// Round the link recovers (exclusive), or `None` for permanent.
        until: Option<u64>,
    },
    /// `node` crashes: its buffered and staged packets are counted as
    /// `faulted`, and while dead it forwards, receives and injects
    /// nothing. A recovered node resumes with an empty buffer.
    NodeCrash {
        /// The crashing node.
        node: usize,
        /// First round the node is dead.
        at: u64,
        /// Round the node recovers (exclusive), or `None` for permanent.
        until: Option<u64>,
    },
    /// The network partitions: every link between `group` and its
    /// complement is down while active (links inside either side are
    /// unaffected).
    Partition {
        /// One side of the cut.
        group: Vec<usize>,
        /// First round of the partition.
        at: u64,
        /// Round the partition heals (exclusive), or `None` for permanent.
        until: Option<u64>,
    },
    /// The link `from → to` gains `extra` rounds of latency while active:
    /// it forwards only on rounds divisible by `extra + 1`, i.e. its
    /// bandwidth drops from 1 to `1/(extra+1)` packets per round.
    LinkDelay {
        /// Link tail.
        from: usize,
        /// Link head.
        to: usize,
        /// Extra per-packet latency in rounds (≥ 1 to have any effect).
        extra: u64,
        /// First round the delay applies.
        at: u64,
        /// Round the delay lifts (exclusive), or `None` for permanent.
        until: Option<u64>,
    },
    /// `count` distinct topology edges, drawn deterministically from the
    /// spec's seed, go down while active. Each `RandomLinks` event draws
    /// its own set (in spec order, from one generator), so two events may
    /// overlap.
    RandomLinks {
        /// Number of distinct edges to fail (clamped to the edge count).
        count: usize,
        /// First round the links are down.
        at: u64,
        /// Round the links recover (exclusive), or `None` for permanent.
        until: Option<u64>,
    },
}

// Deserialization re-asserts the constructor invariants (a window that
// ends after it starts, a non-empty partition group, `extra` ≥ 1,
// `count` ≥ 1): an empty window or a no-op event would be dead weight a
// replayed artifact could smuggle past the constructors. Real serde has
// no attribute for such checks, so this impl stays hand-written.
// #[allow(aqt::no-hand-serde)] re-checks the constructor invariants
impl Deserialize for FaultEvent {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{field, object, tag, unknown_tag};
        let obj = object(v, "fault event")?;
        let at: u64 = field(obj, "at")?;
        let until: Option<u64> = field(obj, "until")?;
        if until.is_some_and(|u| u <= at) {
            return Err(serde::Error::custom(
                "fault window must end after it starts (until > at)",
            ));
        }
        match tag(obj, "kind")? {
            "link_down" => Ok(FaultEvent::LinkDown {
                from: field(obj, "from")?,
                to: field(obj, "to")?,
                at,
                until,
            }),
            "node_crash" => Ok(FaultEvent::NodeCrash {
                node: field(obj, "node")?,
                at,
                until,
            }),
            "partition" => {
                let group: Vec<usize> = field(obj, "group")?;
                if group.is_empty() {
                    return Err(serde::Error::custom("partition group must be non-empty"));
                }
                Ok(FaultEvent::Partition { group, at, until })
            }
            "link_delay" => {
                let extra: u64 = field(obj, "extra")?;
                if extra == 0 {
                    return Err(serde::Error::custom("link delay extra must be at least 1"));
                }
                Ok(FaultEvent::LinkDelay {
                    from: field(obj, "from")?,
                    to: field(obj, "to")?,
                    extra,
                    at,
                    until,
                })
            }
            "random_links" => {
                let count: usize = field(obj, "count")?;
                if count == 0 {
                    return Err(serde::Error::custom(
                        "random_links count must be at least 1",
                    ));
                }
                Ok(FaultEvent::RandomLinks { count, at, until })
            }
            other => Err(unknown_tag(
                "kind",
                other,
                &[
                    "link_down",
                    "node_crash",
                    "partition",
                    "link_delay",
                    "random_links",
                ],
            )),
        }
    }
}

/// A deterministic fault schedule: a seed plus a list of [`FaultEvent`]s.
///
/// The seed resolves [`FaultEvent::RandomLinks`] events into concrete
/// edges; specs without random events ignore it. The same spec always
/// produces the same per-round [`FaultState`] sequence, so runs are
/// reproducible. An empty spec (`events` empty) is
/// exactly the fault-free run.
///
/// # Examples
///
/// ```
/// use aqt_model::{FaultEvent, FaultSpec};
///
/// let spec = FaultSpec::new(7).with_event(FaultEvent::LinkDown {
///     from: 2,
///     to: 3,
///     at: 5,
///     until: Some(10),
/// });
/// assert_eq!(spec.events.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Seed for resolving randomized events (`RandomLinks`).
    pub seed: u64,
    /// The scheduled faults, applied independently; a link (or node) is
    /// down at round `t` if *any* active event says so.
    pub events: Vec<FaultEvent>,
}

impl FaultSpec {
    /// An empty schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultSpec {
            seed,
            events: Vec::new(),
        }
    }

    /// Appends an event (builder-style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The fault mask induced by the spec's **permanent** events only
    /// (`until: None`), with `RandomLinks` resolved exactly as the engine
    /// resolves them and `LinkDelay` excluded (a delayed link still
    /// forwards, so it never severs a route).
    ///
    /// This is the static-analysis view: [`FaultState::blocks`] on the
    /// returned mask is round-independent, so a route blocked here is
    /// blocked forever — which is what `Scenario::validate` uses to flag
    /// schedules that sever every route a source uses.
    ///
    /// # Panics
    ///
    /// Panics if any event references a node outside the topology (the
    /// scenario layer's `fault-bounds` static check catches this first).
    pub fn permanent_mask<T: Topology>(&self, topology: &T) -> FaultState {
        let rt = FaultRuntime::new(self, topology);
        let mut state = rt.state;
        for &(f, t, _, until) in &rt.link_events {
            if until.is_none() {
                push_link(&mut state.down_links, (f, t));
                state.link_faulted[f as usize] = true;
            }
        }
        for &(v, _, until) in &rt.node_events {
            if until.is_none() && !state.dead[v as usize] {
                state.dead[v as usize] = true;
                state.dead_count += 1;
            }
        }
        for (i, &(_, until)) in rt.partition_events.iter().enumerate() {
            if until.is_none() {
                state.active_masks.push(i);
            }
        }
        state
    }
}

/// Appends a link to a (from, to)-sorted list, skipping duplicates.
/// Callers iterate events already sorted by link, so a plain
/// last-element check keeps the list sorted and deduplicated.
fn push_link(links: &mut Vec<(u32, u32)>, link: (u32, u32)) {
    if links.last() != Some(&link) {
        links.push(link);
    }
}

/// The resolved fault mask for one round: which nodes are dead and which
/// links forward nothing. Rebuilt by the engine at the top of every round
/// and handed read-only to forwarding validation and to
/// [`Probe::on_fault`](crate::Probe::on_fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultState {
    /// `dead[v]` — node `v` is crashed this round.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    dead_count: usize,
    /// Links down this round, sorted by `(from, to)` for binary search.
    down_links: Vec<(u32, u32)>,
    /// Active link delays `(from, to, extra)`, sorted by `(from, to)`.
    delays: Vec<(u32, u32, u64)>,
    /// `link_faulted[v]` — some out-link of `v` is in `down_links` or
    /// `delays` this round, so [`blocks`](FaultState::blocks) searches
    /// those lists only for sends from flagged nodes.
    link_faulted: Vec<bool>,
    /// Membership masks of every partition event in the spec (stable
    /// across rounds; only `active_masks` changes).
    masks: Vec<Vec<bool>>,
    /// Indices into `masks` of the partitions active this round.
    active_masks: Vec<usize>,
}

impl FaultState {
    /// An all-clear mask for a topology of `n` nodes with the given
    /// partition membership masks.
    fn clear(n: usize, masks: Vec<Vec<bool>>) -> Self {
        FaultState {
            dead: vec![false; n],
            dead_count: 0,
            down_links: Vec::new(),
            delays: Vec::new(),
            link_faulted: vec![false; n],
            masks,
            active_masks: Vec::new(),
        }
    }

    /// Whether node `v` is crashed this round.
    #[inline]
    pub fn is_node_down(&self, v: NodeId) -> bool {
        self.dead[v.index()]
    }

    /// Number of nodes crashed this round.
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Number of individually-failed links this round (partitions and
    /// dead-node endpoints not included).
    pub fn down_link_count(&self) -> usize {
        self.down_links.len()
    }

    /// Whether the link `from → to` forwards nothing at round `t`:
    /// either endpoint is dead, the link (or a partition crossing it) is
    /// down, or an active delay keeps it idle this round (a link with
    /// extra latency `d` forwards only when `t % (d+1) == 0`).
    ///
    /// O(1) plus the active partitions for a node with no down or delayed
    /// out-link this round; a binary search over the round's down links
    /// and delays otherwise.
    pub fn blocks(&self, from: NodeId, to: NodeId, t: Round) -> bool {
        if self.dead[from.index()] || self.dead[to.index()] {
            return true;
        }
        let flagged = self.link_faulted[from.index()];
        let link = (from.index() as u32, to.index() as u32);
        if flagged && self.down_links.binary_search(&link).is_ok() {
            return true;
        }
        for &mi in &self.active_masks {
            let mask = &self.masks[mi];
            if mask[from.index()] != mask[to.index()] {
                return true;
            }
        }
        if flagged {
            if let Ok(i) = self.delays.binary_search_by(|&(f, h, _)| (f, h).cmp(&link)) {
                let extra = self.delays[i].2;
                return t.value() % (extra + 1) != 0;
            }
        }
        false
    }

    /// True when nothing is faulted this round (no dead nodes, no down
    /// links, no active partitions or delays).
    pub fn is_empty(&self) -> bool {
        self.dead_count == 0
            && self.down_links.is_empty()
            && self.active_masks.is_empty()
            && self.delays.is_empty()
    }
}

/// The engine-side expansion of a [`FaultSpec`]: resolved event lists
/// (with `RandomLinks` already drawn) plus the current-round
/// [`FaultState`], rebuilt by [`advance`](FaultRuntime::advance).
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    /// Link-down windows `(from, to, at, until)`, sorted by `(from, to)`.
    link_events: Vec<(u32, u32, u64, Option<u64>)>,
    /// Node-crash windows `(node, at, until)`.
    node_events: Vec<(u32, u64, Option<u64>)>,
    /// Partition windows; `state.masks[i]` is the membership mask of
    /// `partition_events[i]`.
    partition_events: Vec<(u64, Option<u64>)>,
    /// Delay windows `(from, to, extra, at, until)`, sorted by `(from, to)`.
    delay_events: Vec<(u32, u32, u64, u64, Option<u64>)>,
    /// The mask for the round most recently passed to `advance`.
    state: FaultState,
    /// `state.dead` of the previous round (crash-edge detection).
    prev_dead: Vec<bool>,
    /// Nodes that crashed this round (dead now, alive last round), in
    /// ascending order; the engine sweeps their buffers into `faulted`.
    newly_dead: Vec<NodeId>,
    /// Every round at which some event starts or ends (`at` / `until`
    /// values), sorted and deduplicated. Between boundaries the mask
    /// cannot change, so [`advance`](FaultRuntime::advance) skips its
    /// O(events + n) rebuild — most rounds of a long faulted run.
    boundaries: Vec<u64>,
}

impl FaultRuntime {
    /// Expands `spec` against `topology`: checks bounds, resolves every
    /// `RandomLinks` event into concrete edges (one shared generator
    /// seeded from `spec.seed`, consumed in spec order), and sorts the
    /// link/delay event lists so per-round rebuilds stay sorted.
    ///
    /// # Panics
    ///
    /// Panics if an event references a node `>= topology.node_count()`
    /// (mirrors `with_capacity`'s hard assertion on malformed configs;
    /// the scenario layer rejects such specs statically first).
    pub(crate) fn new<T: Topology>(spec: &FaultSpec, topology: &T) -> Self {
        let n = topology.node_count();
        let check = |v: usize, what: &str| {
            assert!(v < n, "fault event {what} node {v} out of range (n = {n})");
        };
        let mut link_events = Vec::new();
        let mut node_events = Vec::new();
        let mut partition_events = Vec::new();
        let mut delay_events = Vec::new();
        let mut masks = Vec::new();
        // Drawn lazily: the O(n + edges) edge enumeration only runs when
        // a `RandomLinks` event actually needs it.
        let mut edges: Option<Vec<(u32, u32)>> = None;
        let mut rng = SplitMix64::new(spec.seed);
        for event in &spec.events {
            match event {
                FaultEvent::LinkDown {
                    from,
                    to,
                    at,
                    until,
                } => {
                    check(*from, "link");
                    check(*to, "link");
                    link_events.push((*from as u32, *to as u32, *at, *until));
                }
                FaultEvent::NodeCrash { node, at, until } => {
                    check(*node, "crash");
                    node_events.push((*node as u32, *at, *until));
                }
                FaultEvent::Partition { group, at, until } => {
                    let mut mask = vec![false; n];
                    for &v in group {
                        check(v, "partition");
                        mask[v] = true;
                    }
                    masks.push(mask);
                    partition_events.push((*at, *until));
                }
                FaultEvent::LinkDelay {
                    from,
                    to,
                    extra,
                    at,
                    until,
                } => {
                    check(*from, "delay");
                    check(*to, "delay");
                    delay_events.push((*from as u32, *to as u32, *extra, *at, *until));
                }
                FaultEvent::RandomLinks { count, at, until } => {
                    let edges = edges.get_or_insert_with(|| edge_list(topology));
                    // Partial Fisher–Yates: `count` distinct edges per
                    // event, deterministic in the shared generator.
                    let mut pool: Vec<usize> = (0..edges.len()).collect();
                    let picks = (*count).min(pool.len());
                    for i in 0..picks {
                        let j = i + rng.below((pool.len() - i) as u64) as usize;
                        pool.swap(i, j);
                        let (f, t) = edges[pool[i]];
                        link_events.push((f, t, *at, *until));
                    }
                }
            }
        }
        link_events.sort();
        delay_events.sort_by_key(|&(f, t, ..)| (f, t));
        let mut boundaries = Vec::new();
        let mut bound = |at: u64, until: Option<u64>| {
            boundaries.push(at);
            if let Some(u) = until {
                boundaries.push(u);
            }
        };
        for &(_, _, at, until) in &link_events {
            bound(at, until);
        }
        for &(_, at, until) in &node_events {
            bound(at, until);
        }
        for &(at, until) in &partition_events {
            bound(at, until);
        }
        for &(_, _, _, at, until) in &delay_events {
            bound(at, until);
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        FaultRuntime {
            link_events,
            node_events,
            partition_events,
            delay_events,
            state: FaultState::clear(n, masks),
            prev_dead: vec![false; n],
            newly_dead: Vec::new(),
            boundaries,
        }
    }

    /// Rebuilds the [`FaultState`] for round `t` and records which nodes
    /// crashed this round. O(events + n) on event-boundary rounds; a
    /// no-op (plus clearing the crash-edge
    /// list) on every other round — event windows are half-open
    /// `[at, until)`, so the mask only changes where some `at` or `until`
    /// lands. Delay gating (`t % (extra + 1)`) is evaluated against `t` at
    /// query time in [`FaultState::blocks`], so it needs no rebuild.
    pub(crate) fn advance(&mut self, t: Round) {
        let tv = t.value();
        if self.boundaries.binary_search(&tv).is_err() {
            // The mask is unchanged since the last boundary; no node can
            // have crashed on a non-boundary round.
            self.newly_dead.clear();
            return;
        }
        let active = |at: u64, until: Option<u64>| at <= tv && until.is_none_or(|u| tv < u);
        std::mem::swap(&mut self.prev_dead, &mut self.state.dead);
        self.state.dead.iter_mut().for_each(|d| *d = false);
        self.state.dead_count = 0;
        for &(v, at, until) in &self.node_events {
            if active(at, until) && !self.state.dead[v as usize] {
                self.state.dead[v as usize] = true;
                self.state.dead_count += 1;
            }
        }
        self.state.link_faulted.fill(false);
        self.state.down_links.clear();
        for &(f, to, at, until) in &self.link_events {
            if active(at, until) {
                push_link(&mut self.state.down_links, (f, to));
                self.state.link_faulted[f as usize] = true;
            }
        }
        self.state.delays.clear();
        for &(f, to, extra, at, until) in &self.delay_events {
            if active(at, until) {
                self.state.link_faulted[f as usize] = true;
                // Overlapping delay windows on one link: the largest
                // extra wins (the link is at its slowest).
                match self.state.delays.last_mut() {
                    Some(last) if (last.0, last.1) == (f, to) => last.2 = last.2.max(extra),
                    _ => self.state.delays.push((f, to, extra)),
                }
            }
        }
        self.state.active_masks.clear();
        for (i, &(at, until)) in self.partition_events.iter().enumerate() {
            if active(at, until) {
                self.state.active_masks.push(i);
            }
        }
        self.newly_dead.clear();
        for v in 0..self.state.dead.len() {
            if self.state.dead[v] && !self.prev_dead[v] {
                self.newly_dead.push(NodeId::new(v));
            }
        }
    }

    /// The mask for the round most recently passed to
    /// [`advance`](FaultRuntime::advance).
    #[inline]
    pub(crate) fn state(&self) -> &FaultState {
        &self.state
    }

    /// Nodes that crashed on the advanced round (ascending order).
    pub(crate) fn newly_dead(&self) -> &[NodeId] {
        &self.newly_dead
    }
}

/// Every directed edge of `topology`, as `(from, to)` index pairs sorted
/// ascending: for each node, its distinct out-neighbours — the distinct
/// next hops over all destinations, since every out-edge `v → h` is the
/// first hop of the route `v → h`. O(n + E); only run when a spec
/// actually contains a `RandomLinks` event.
fn edge_list<T: Topology>(topology: &T) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 0..topology.node_count() {
        let from = NodeId::new(v);
        let first = edges.len();
        edges.extend(
            (0..topology.out_degree(from))
                .filter_map(|i| topology.out_neighbor(from, i))
                .map(|h| (v as u32, h.index() as u32)),
        );
        edges[first..].sort_unstable();
    }
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{AnyTopology, Dag, Path, TopologySpec, TreeSpec};

    fn rt(spec: &FaultSpec, n: usize) -> FaultRuntime {
        FaultRuntime::new(spec, &Path::new(n))
    }

    #[test]
    fn link_down_window_activates_and_recovers() {
        let spec = FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from: 1,
            to: 2,
            at: 3,
            until: Some(5),
        });
        let mut rt = rt(&spec, 4);
        for (t, blocked) in [(0, false), (2, false), (3, true), (4, true), (5, false)] {
            rt.advance(Round::new(t));
            assert_eq!(
                rt.state()
                    .blocks(NodeId::new(1), NodeId::new(2), Round::new(t)),
                blocked,
                "round {t}"
            );
            // Other links untouched.
            assert!(!rt
                .state()
                .blocks(NodeId::new(0), NodeId::new(1), Round::new(t)));
        }
    }

    #[test]
    fn node_crash_blocks_both_directions_and_edges_are_detected() {
        let spec = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 2,
            at: 1,
            until: Some(3),
        });
        let mut rt = rt(&spec, 4);
        rt.advance(Round::new(0));
        assert!(rt.newly_dead().is_empty());
        rt.advance(Round::new(1));
        assert_eq!(rt.newly_dead(), &[NodeId::new(2)]);
        assert!(rt.state().is_node_down(NodeId::new(2)));
        assert!(rt
            .state()
            .blocks(NodeId::new(1), NodeId::new(2), Round::new(1)));
        assert!(rt
            .state()
            .blocks(NodeId::new(2), NodeId::new(3), Round::new(1)));
        rt.advance(Round::new(2));
        assert!(rt.newly_dead().is_empty(), "still dead, not newly dead");
        rt.advance(Round::new(3));
        assert!(!rt.state().is_node_down(NodeId::new(2)));
        assert!(rt.state().is_empty());
    }

    #[test]
    fn partition_blocks_exactly_the_cut() {
        let spec = FaultSpec::new(0).with_event(FaultEvent::Partition {
            group: vec![0, 1],
            at: 0,
            until: None,
        });
        let mut rt = rt(&spec, 4);
        rt.advance(Round::ZERO);
        let s = rt.state();
        assert!(!s.blocks(NodeId::new(0), NodeId::new(1), Round::ZERO));
        assert!(s.blocks(NodeId::new(1), NodeId::new(2), Round::ZERO));
        assert!(!s.blocks(NodeId::new(2), NodeId::new(3), Round::ZERO));
    }

    #[test]
    fn link_delay_throttles_to_divisible_rounds() {
        let spec = FaultSpec::new(0).with_event(FaultEvent::LinkDelay {
            from: 0,
            to: 1,
            extra: 2,
            at: 0,
            until: None,
        });
        let mut rt = rt(&spec, 3);
        for t in 0..9u64 {
            rt.advance(Round::new(t));
            let blocked = rt
                .state()
                .blocks(NodeId::new(0), NodeId::new(1), Round::new(t));
            assert_eq!(blocked, t % 3 != 0, "round {t}");
        }
    }

    #[test]
    fn random_links_are_seed_deterministic_and_distinct() {
        let spec = FaultSpec::new(42).with_event(FaultEvent::RandomLinks {
            count: 3,
            at: 0,
            until: None,
        });
        let topo = Dag::grid(4, 4);
        let mut a = FaultRuntime::new(&spec, &topo);
        let mut b = FaultRuntime::new(&spec, &topo);
        a.advance(Round::ZERO);
        b.advance(Round::ZERO);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.state().down_link_count(), 3);
        let other = FaultSpec { seed: 43, ..spec };
        let mut c = FaultRuntime::new(&other, &topo);
        c.advance(Round::ZERO);
        assert_ne!(a.state(), c.state(), "different seed, different links");
    }

    /// The O(n²) definition `edge_list` must keep: each node's distinct
    /// next hops over every destination.
    fn next_hop_edges<T: Topology>(topology: &T) -> Vec<(u32, u32)> {
        let n = topology.node_count();
        let mut edges = Vec::new();
        for v in 0..n {
            let mut outs: Vec<u32> = (0..n)
                .filter_map(|d| topology.next_hop(NodeId::new(v), NodeId::new(d)))
                .map(|h| h.index() as u32)
                .collect();
            outs.sort_unstable();
            outs.dedup();
            edges.extend(outs.into_iter().map(|h| (v as u32, h)));
        }
        edges
    }

    #[test]
    fn edge_list_matches_the_next_hop_definition_on_every_family() {
        let specs = [
            TopologySpec::Path { n: 1 },
            TopologySpec::Path { n: 9 },
            TopologySpec::Tree(TreeSpec::Star { leaves: 5 }),
            TopologySpec::Tree(TreeSpec::FullBinary { height: 3 }),
            TopologySpec::Tree(TreeSpec::Caterpillar { spine: 4, legs: 2 }),
            TopologySpec::Tree(TreeSpec::Random { n: 25, seed: 3 }),
            TopologySpec::Tree(TreeSpec::Parents {
                parents: vec![Some(2), Some(2), None, Some(2)],
            }),
            TopologySpec::Grid { rows: 5, cols: 7 },
            TopologySpec::Butterfly { k: 3 },
            TopologySpec::Diamond { width: 4 },
            TopologySpec::RandomDag {
                n: 30,
                density: 0.3,
                seed: 5,
            },
        ];
        for spec in specs {
            let topology = spec.build().expect("valid spec");
            let edges = edge_list(&topology);
            assert_eq!(edges, next_hop_edges(&topology), "{spec:?}");
            if let AnyTopology::Dag(dag) = &topology {
                assert_eq!(edges.len(), dag.edge_count(), "{spec:?}");
            }
        }
    }

    #[test]
    fn random_links_resolve_on_a_million_node_mesh() {
        let spec = FaultSpec::new(11).with_event(FaultEvent::RandomLinks {
            count: 1000,
            at: 0,
            until: None,
        });
        let mask = spec.permanent_mask(&Dag::grid(1024, 1024));
        assert_eq!(mask.down_link_count(), 1000);
    }

    #[test]
    fn permanent_mask_keeps_only_unwindowed_events_and_drops_delays() {
        let spec = FaultSpec::new(0)
            .with_event(FaultEvent::LinkDown {
                from: 0,
                to: 1,
                at: 5,
                until: None,
            })
            .with_event(FaultEvent::LinkDown {
                from: 1,
                to: 2,
                at: 0,
                until: Some(100),
            })
            .with_event(FaultEvent::LinkDelay {
                from: 2,
                to: 3,
                extra: 7,
                at: 0,
                until: None,
            });
        let mask = spec.permanent_mask(&Path::new(5));
        // Permanent link-down applies regardless of `at`; the windowed
        // one and the delay do not.
        assert!(mask.blocks(NodeId::new(0), NodeId::new(1), Round::ZERO));
        assert!(!mask.blocks(NodeId::new(1), NodeId::new(2), Round::ZERO));
        for t in 0..4u64 {
            assert!(!mask.blocks(NodeId::new(2), NodeId::new(3), Round::new(t)));
        }
    }

    /// One raw event draw: `(kind, (x, y), (at, len), extra, group)`.
    type Draw = (u8, (usize, usize), (u64, u64), u64, u32);

    /// Builds a spec on `n` nodes with edge list `edges` from raw draws:
    /// `len == 0` makes the event permanent, `x` picks a node or an edge,
    /// and `group`'s low bits pick a partition side.
    fn spec_from_draws(seed: u64, n: usize, edges: &[(u32, u32)], draws: &[Draw]) -> FaultSpec {
        let mut spec = FaultSpec::new(seed);
        for &(kind, (x, y), (at, len), extra, group) in draws {
            let until = (len > 0).then_some(at + len);
            let (from, to) = edges[x % edges.len()];
            let (from, to) = (from as usize, to as usize);
            spec.events.push(match kind {
                0 => FaultEvent::NodeCrash {
                    node: x % n,
                    at,
                    until,
                },
                1 => FaultEvent::LinkDown {
                    from,
                    to,
                    at,
                    until,
                },
                2 => FaultEvent::Partition {
                    group: (0..n)
                        .filter(|&v| v == y % n || group >> v & 1 == 1)
                        .collect(),
                    at,
                    until,
                },
                3 => FaultEvent::LinkDelay {
                    from,
                    to,
                    extra,
                    at,
                    until,
                },
                _ => FaultEvent::RandomLinks {
                    count: 1 + y % 4,
                    at,
                    until,
                },
            });
        }
        spec
    }

    /// Whether `from → to` is blocked at round `t`, by a linear scan of
    /// the spec's events: `random` holds the links its `RandomLinks`
    /// events drew, with their windows. With `permanent`, only events
    /// without an `until` count, whatever their `at`, and delays do not.
    fn reference_blocks(
        spec: &FaultSpec,
        random: &[(u32, u32, u64, Option<u64>)],
        (from, to): (usize, usize),
        t: u64,
        permanent: bool,
    ) -> bool {
        let active = |at: u64, until: Option<u64>| match until {
            None => permanent || at <= t,
            Some(u) => !permanent && at <= t && t < u,
        };
        let mut slowest = None;
        for event in &spec.events {
            match *event {
                FaultEvent::NodeCrash { node, at, until } => {
                    if active(at, until) && (node == from || node == to) {
                        return true;
                    }
                }
                FaultEvent::LinkDown {
                    from: f,
                    to: h,
                    at,
                    until,
                } => {
                    if active(at, until) && (f, h) == (from, to) {
                        return true;
                    }
                }
                FaultEvent::Partition {
                    ref group,
                    at,
                    until,
                } => {
                    if active(at, until) && group.contains(&from) != group.contains(&to) {
                        return true;
                    }
                }
                FaultEvent::LinkDelay {
                    from: f,
                    to: h,
                    extra,
                    at,
                    until,
                } => {
                    if !permanent && active(at, until) && (f, h) == (from, to) {
                        slowest = slowest.max(Some(extra));
                    }
                }
                FaultEvent::RandomLinks { .. } => {}
            }
        }
        let link = (from as u32, to as u32);
        if random
            .iter()
            .any(|&(f, h, at, until)| active(at, until) && (f, h) == link)
        {
            return true;
        }
        slowest.is_some_and(|extra| t % (extra + 1) != 0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `blocks` — on masks built by `advance` round by round and by
        /// `permanent_mask` — agrees with a linear scan of the spec on
        /// every link, its reverse and one more pair from each node, on small
        /// paths and grids under random crashes, down links, partitions,
        /// delays and random links.
        #[test]
        fn blocks_matches_a_linear_scan_of_the_spec(
            shape in (0u8..2, 2usize..9, 1usize..5),
            seed in 0u64..1000,
            draws in proptest::collection::vec(
                (0u8..5, (0usize..64, 0usize..64), (0u64..12, 0u64..6), 1u64..4, 0u32..1 << 16),
                1..7,
            ),
        ) {
            let (kind, a, b) = shape;
            let topology = if kind == 0 {
                TopologySpec::Path { n: a }
            } else {
                TopologySpec::Grid { rows: a.min(4), cols: b }
            }
            .build()
            .expect("valid spec");
            let n = topology.node_count();
            let edges = edge_list(&topology);
            proptest::prop_assume!(!edges.is_empty());
            let spec = spec_from_draws(seed, n, &edges, &draws);
            // The `RandomLinks` events alone consume the generator in the
            // same order, so their runtime's link list is what they drew.
            let random_only = FaultSpec {
                seed,
                events: spec
                    .events
                    .iter()
                    .filter(|e| matches!(e, FaultEvent::RandomLinks { .. }))
                    .cloned()
                    .collect(),
            };
            let random = FaultRuntime::new(&random_only, &topology).link_events;
            // Every edge, its reverse, and one pair per node two ids on.
            let mut pairs: Vec<(usize, usize)> = edges
                .iter()
                .flat_map(|&(f, h)| [(f as usize, h as usize), (h as usize, f as usize)])
                .collect();
            pairs.extend((0..n).map(|v| (v, (v + 2) % n)));
            let mut rt = FaultRuntime::new(&spec, &topology);
            for t in 0..20u64 {
                rt.advance(Round::new(t));
                for &(f, h) in &pairs {
                    proptest::prop_assert_eq!(
                        rt.state().blocks(NodeId::new(f), NodeId::new(h), Round::new(t)),
                        reference_blocks(&spec, &random, (f, h), t, false),
                        "advance: link {}->{} at round {}", f, h, t
                    );
                }
            }
            let mask = spec.permanent_mask(&topology);
            for t in 0..6u64 {
                for &(f, h) in &pairs {
                    proptest::prop_assert_eq!(
                        mask.blocks(NodeId::new(f), NodeId::new(h), Round::new(t)),
                        reference_blocks(&spec, &random, (f, h), t, true),
                        "permanent_mask: link {}->{} at round {}", f, h, t
                    );
                }
            }
        }
    }

    #[test]
    fn serde_round_trips_every_event_kind() {
        let spec = FaultSpec {
            seed: 9,
            events: vec![
                FaultEvent::LinkDown {
                    from: 0,
                    to: 1,
                    at: 2,
                    until: Some(4),
                },
                FaultEvent::NodeCrash {
                    node: 3,
                    at: 1,
                    until: None,
                },
                FaultEvent::Partition {
                    group: vec![0, 2],
                    at: 0,
                    until: Some(9),
                },
                FaultEvent::LinkDelay {
                    from: 1,
                    to: 2,
                    extra: 3,
                    at: 0,
                    until: None,
                },
                FaultEvent::RandomLinks {
                    count: 2,
                    at: 5,
                    until: Some(8),
                },
            ],
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn deserialize_rejects_empty_windows_and_bad_kinds() {
        let bad = serde_json::to_string(&FaultEvent::LinkDown {
            from: 0,
            to: 1,
            at: 5,
            until: Some(5),
        })
        .unwrap();
        assert!(serde_json::from_str::<FaultEvent>(&bad)
            .unwrap_err()
            .to_string()
            .contains("until > at"));
        let unknown = r#"{"kind": "meteor_strike", "at": 0}"#;
        assert!(serde_json::from_str::<FaultEvent>(unknown).is_err());
    }

    #[test]
    fn runtime_panics_on_out_of_range_node() {
        let spec = FaultSpec::new(0).with_event(FaultEvent::NodeCrash {
            node: 99,
            at: 0,
            until: None,
        });
        let result = std::panic::catch_unwind(|| FaultRuntime::new(&spec, &Path::new(4)));
        assert!(result.is_err());
    }
}
