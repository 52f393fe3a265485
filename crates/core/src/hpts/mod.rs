//! HPTS — Hierarchical Peak-to-Sink (Algorithms 3–5, §4).
//!
//! HPTS runs an independent PPTS instance inside every interval of the
//! hierarchical partition ([`Hierarchy`]), with the m intermediate
//! destinations of each interval playing the role of PPTS destinations.
//! Capacity is shared by **time-division multiplexing**: in each round only
//! one level λ is primary (`FormPaths`, Alg. 4), plus cascading
//! activations at lower levels for packets about to switch level
//! (`ActivatePreBad`, Alg. 5). Packet acceptance is phase-batched (the
//! ℓ-reduction, Alg. 3 lines 3–5).
//!
//! Theorem 4.1: for every (ρ, σ)-bounded adversary with ρ·ℓ ≤ 1, HPTS
//! keeps every buffer at `ℓ·n^{1/ℓ} + σ + 1` or less.
//!
//! ## One planner, two zone maps
//!
//! [`Hierarchical`] is the one implementation of Algs. 3–5. It builds the
//! hierarchy over *zones*, runs of consecutive nodes that a [`ZoneMap`]
//! names, and scans each zone interval node by node:
//!
//! * [`Hpts`] makes every node its own zone ([`NodeZones`]), so a packet's
//!   class is plain [`Hierarchy::class`] arithmetic on its node and its
//!   destination.
//! * [`HptsD`] cuts the line at its d declared destinations
//!   ([`DestZones`]): the hierarchy covers d + 1 zones instead of n nodes,
//!   and a class takes two binary searches.
//!
//! HPTS is therefore HPTS-D with every node but 0 a destination.
//!
//! ## A note on the level schedule
//!
//! Alg. 3 computes `λ ← t mod ℓ` (levels ascending within a phase), while
//! the analysis overview (§4.3) says "levels are activated in decreasing
//! order over the course of a phase". Both schedules are implemented
//! ([`LevelSchedule`]); the default is [`LevelSchedule::Descending`], which
//! matches the analysis text (Lemma 4.8's strict badness decrease relies on
//! badness displaced to a lower level being serviced *later in the same
//! phase*). The ascending variant is kept for the A1-adjacent ablation; the
//! experiments record both.

mod dest_space;
mod geometry;

pub use dest_space::{DestSpaceError, DestZones, HptsD};
pub use geometry::{GeometryError, Hierarchy};

use aqt_model::{
    ForwardingPlan, InjectionMode, NetworkState, NodeId, PacketId, Path, Protocol, Round,
    StoredPacket,
};

use crate::classes::ClassTable;

/// Order in which levels become primary within a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LevelSchedule {
    /// Round r of a phase serves level `ℓ−1−r` (matches the §4.3 analysis
    /// text; default).
    #[default]
    Descending,
    /// Round r of a phase serves level `r` (the literal `λ ← t mod ℓ` of
    /// Alg. 3).
    Ascending,
}

mod sealed {
    pub trait Sealed {}
}

/// How a [`Hierarchical`] planner groups the nodes of a path into the
/// zones its [`Hierarchy`] is built over. Zone `z` is the run of nodes
/// from `start(z)` up to `start(z + 1) − 1`.
///
/// Sealed: [`NodeZones`] (HPTS) and [`DestZones`] (HPTS-D) are the only
/// zone maps.
pub trait ZoneMap: sealed::Sealed {
    /// The `(level, column)` class (Defs. 4.2–4.3) of a packet at node `i`
    /// destined `w`, in hierarchy `h` over the zones.
    fn class(&self, h: &Hierarchy, i: usize, w: usize) -> (u32, usize);

    /// The first node of zone `z`, or `usize::MAX` past the last zone.
    fn start(&self, z: usize) -> usize;

    /// The protocol name over hierarchy `h`, before any option suffix.
    fn name(&self, h: &Hierarchy) -> String;
}

/// HPTS's zone map: every node is its own zone.
#[derive(Debug, Clone)]
pub struct NodeZones;

impl sealed::Sealed for NodeZones {}

impl ZoneMap for NodeZones {
    fn class(&self, h: &Hierarchy, i: usize, w: usize) -> (u32, usize) {
        h.class(i, w)
    }

    fn start(&self, z: usize) -> usize {
        z
    }

    fn name(&self, h: &Hierarchy) -> String {
        format!("HPTS(m={},l={})", h.base(), h.levels())
    }
}

/// The hierarchical planner of Algs. 3–5 over the zones of `Z`; use it as
/// [`Hpts`] or [`HptsD`].
#[derive(Debug, Clone)]
pub struct Hierarchical<Z> {
    zones: Z,
    h: Hierarchy,
    schedule: LevelSchedule,
    prebad: bool,
    /// The class table, kept across rounds, and per-round scratch.
    scratch: Scratch,
}

/// The HPTS protocol on a path of at most `m^ℓ` nodes.
///
/// # Examples
///
/// ```
/// use aqt_core::Hpts;
/// use aqt_model::{Injection, Path, Pattern, Simulation};
///
/// // n = 16 = 2⁴, ℓ = 2 ⇒ m = 4; serve ρ = 1/2 traffic.
/// let hpts = Hpts::for_line(16, 2)?;
/// let pattern: Pattern = (0..20u64).map(|t| Injection::new(2 * t, 0, 15)).collect();
/// let mut sim = Simulation::new(Path::new(16), hpts, &pattern)?;
/// sim.run_past_horizon(64)?;
/// // Thm 4.1: ℓ·n^{1/ℓ} + σ + 1 = 2·4 + 1 + 1.
/// assert!(sim.metrics().max_occupancy <= 10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Hpts = Hierarchical<NodeZones>;

impl Hpts {
    /// HPTS over an exact hierarchy (network must have at most `m^ℓ`
    /// nodes).
    pub fn new(h: Hierarchy) -> Self {
        Hierarchical::with_zones(NodeZones, h)
    }

    /// HPTS for a line of `nodes` nodes with `l` levels, choosing the
    /// smallest base m with `m^l ≥ nodes`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for `l = 0` or overflow.
    pub fn for_line(nodes: usize, l: u32) -> Result<Self, GeometryError> {
        Ok(Hpts::new(Hierarchy::covering(nodes, l)?))
    }
}

impl<Z: ZoneMap> Hierarchical<Z> {
    fn with_zones(zones: Z, h: Hierarchy) -> Self {
        Hierarchical {
            zones,
            h,
            schedule: LevelSchedule::default(),
            prebad: true,
            scratch: Scratch::default(),
        }
    }

    /// Selects the level schedule (builder-style). See the module docs.
    pub fn schedule(mut self, schedule: LevelSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Disables the `ActivatePreBad` cascade (ablation A1). Without it the
    /// paper's badness invariant breaks: packets switching level can land
    /// on occupied pseudo-buffers without the receiving instance advancing.
    pub fn without_prebad(mut self) -> Self {
        self.prebad = false;
        self
    }

    /// The hierarchy over the zones (for HPTS, over the nodes).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// The space bound `ℓ·m + σ + 1` for a given burst σ: Theorem 4.1's
    /// for HPTS, and for HPTS-D (`m = ⌈(d+1)^{1/ℓ}⌉`) an empirical one,
    /// validated by tests and E7 rather than proved in the paper.
    pub fn space_bound(&self, sigma: u64) -> u64 {
        u64::from(self.h.levels()) * self.h.base() as u64 + sigma + 1
    }

    /// The primary level of `round` under the configured schedule.
    pub fn primary_level(&self, round: Round) -> u32 {
        let l = self.h.levels();
        let r = (round.value() % u64::from(l)) as u32;
        match self.schedule {
            LevelSchedule::Ascending => r,
            LevelSchedule::Descending => l - 1 - r,
        }
    }

    /// The `(level, column)` class of a packet at node `i` destined `w`.
    fn classify(&self, i: usize, w: usize) -> (u32, usize) {
        self.zones.class(&self.h, i, w)
    }

    /// Alg. 4 — PPTS-style activation of level-λ pseudo-buffers within each
    /// level-λ interval.
    ///
    /// One pass over the interval's nodes collects the left-most bad node
    /// per column; the descending-k scan of Alg. 4 then touches only
    /// columns that actually contain a bad pseudo-buffer (a column's
    /// left-most bad node in the whole interval is also the left-most in
    /// any prefix, so the `i′` cutoff semantics are unchanged).
    fn form_paths(&self, lambda: u32, state: &NetworkState, scratch: &mut Scratch) {
        let Scratch {
            classes,
            leftmost_bad,
            active,
        } = scratch;
        let n = classes.node_count();
        let step = self.h.base().pow(lambda);
        for r in 0..self.h.interval_count(lambda) {
            // The interval's zones [za, zb] hold the nodes [lo, hi].
            let (za, zb) = self.h.interval(lambda, r);
            let lo = self.zones.start(za);
            if lo >= n {
                break; // neither this interval nor any later one has a node
            }
            let hi = self.zones.start(zb + 1).min(n) - 1;
            // Left-most bad (λ, k) node per column k, in one pass.
            leftmost_bad.fill(None);
            for i in (lo..=hi).filter(|&i| classes.has_bad(i, lambda)) {
                for (class, count) in classes.node(i) {
                    let k = class.column();
                    if class.level() == lambda && count >= 2 && leftmost_bad[k].is_none() {
                        leftmost_bad[k] = Some(i);
                    }
                }
            }
            // i′ starts past the interval's last node.
            let mut iprime = hi + 1;
            for (k, ik) in leftmost_bad.iter().enumerate().rev() {
                let Some(ik) = *ik else {
                    continue;
                };
                // w_k, the first node of the class's target zone: (λ, k)
                // packets cannot sit at or right of it.
                let wk = self.zones.start(za + k * step);
                // Activate [i_k, min(i′, w_k) − 1] (Alg. 4 line 6).
                let end = iprime.min(wk);
                if ik >= end {
                    continue;
                }
                for i in ik..end {
                    let packet = top(classes.get(state, i, (lambda, k)));
                    set_active(active, i, Active { target: wk, packet });
                }
                iprime = ik;
            }
        }
    }

    /// Alg. 5 — activate runs of level-j pseudo-buffers ahead of packets
    /// that are about to finish a higher-level segment at a level-j left
    /// endpoint whose receiving pseudo-buffer is occupied.
    fn activate_prebad(
        &self,
        j: u32,
        state: &NetworkState,
        classes: &ClassTable,
        active: &mut [Option<Active>],
    ) {
        let n = classes.node_count();
        let step = self.h.base().pow(j);
        // Interval 0 starts at node 0, which has no node to its left.
        for r in 1..self.h.interval_count(j) {
            let (za, _) = self.h.interval(j, r);
            let a = self.zones.start(za);
            if a >= n {
                break;
            }
            if active[a].is_some() {
                continue; // Alg. 5 line 3: a must be inactive
            }
            // Is a packet about to arrive at `a` and join level j there?
            let Some(Active {
                target,
                packet: Some((_, dest)),
            }) = active[a - 1]
            else {
                continue;
            };
            if target != a || dest == a {
                continue; // not the segment's last hop / delivered on arrival
            }
            let (level, k) = self.classify(a, dest);
            // It must join level j (other levels have their own pass), and
            // pre-bad (Def. 4.6) requires the receiving pseudo-buffer to be
            // occupied.
            if level != j || !classes.holds(a, (j, k)) {
                continue;
            }
            // Chain: the maximal inactive run from a, capped at w_k − 1.
            let wk = self.zones.start(za + k * step);
            let mut i = a;
            while i < wk && active[i].is_none() {
                let packet = top(classes.get(state, i, (j, k)));
                set_active(active, i, Active { target: wk, packet });
                i += 1;
            }
        }
    }
}

/// An activated node: the node its segment ends at, and the designated
/// packet with its final destination (`None` when the activated class is
/// empty — the node is still blocked for this round).
#[derive(Debug, Clone, Copy)]
struct Active {
    target: usize,
    packet: Option<(PacketId, usize)>,
}

/// The class table and the scratch one round of planning needs, reused
/// across rounds.
#[derive(Debug, Clone, Default)]
struct Scratch {
    classes: ClassTable,
    /// Left-most bad node per column of the interval being formed.
    leftmost_bad: Vec<Option<usize>>,
    /// The activation of every node this round.
    active: Vec<Option<Active>>,
}

impl Scratch {
    /// Clears the activations for a round on `n` nodes with `m` columns.
    fn reset(&mut self, n: usize, m: usize) {
        self.active.clear();
        self.active.resize(n, None);
        self.leftmost_bad.clear();
        self.leftmost_bad.resize(m, None);
    }

    /// Sends every activated node's designated packet.
    fn send(&self, plan: &mut ForwardingPlan) {
        for (i, entry) in self.active.iter().enumerate() {
            if let Some(Active {
                packet: Some((pid, _)),
                ..
            }) = entry
            {
                plan.send(NodeId::new(i), *pid);
            }
        }
    }
}

/// The id and final destination of a class's LIFO top, if it has one.
fn top(packet: Option<&StoredPacket>) -> Option<(PacketId, usize)> {
    packet.map(|sp| (sp.id(), sp.dest().index()))
}

/// Marks node `i` active; panics if it already is (Lemma 4.7 feasibility is
/// enforced, not assumed).
fn set_active(active: &mut [Option<Active>], i: usize, entry: Active) {
    assert!(
        active[i].is_none(),
        "HPTS activated node {i} twice (Lemma 4.7 violation)"
    );
    active[i] = Some(entry);
}

impl<Z: ZoneMap> Protocol<Path> for Hierarchical<Z> {
    fn name(&self) -> String {
        let mut name = self.zones.name(&self.h);
        if self.schedule == LevelSchedule::Ascending {
            name.push_str("-asc");
        }
        if !self.prebad {
            name.push_str("-noprebad");
        }
        name
    }

    fn injection_mode(&self) -> InjectionMode {
        InjectionMode::Batched {
            len: u64::from(self.h.levels()),
        }
    }

    fn plan(&mut self, round: Round, _: &Path, state: &NetworkState, plan: &mut ForwardingPlan) {
        let n = state.node_count();
        assert!(
            self.zones.start(self.h.n()) >= n,
            "network ({n} nodes) exceeds hierarchy ({} zones); use Hpts::for_line",
            self.h.n()
        );
        let lambda = self.primary_level(round);
        // Taken out for the round so the Alg. 4–5 helpers can borrow `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch
            .classes
            .sync(round, state, |i, w| self.classify(i, w));
        scratch.reset(n, self.h.base());
        self.form_paths(lambda, state, &mut scratch);
        if self.prebad {
            for j in (0..lambda).rev() {
                self.activate_prebad(j, state, &scratch.classes, &mut scratch.active);
            }
        }
        scratch.send(plan);
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{Injection, NodeId, Pattern, Simulation};

    fn run(
        n: usize,
        l: u32,
        pattern: Pattern,
        extra: u64,
        schedule: LevelSchedule,
    ) -> aqt_model::RunMetrics {
        let hpts = Hpts::for_line(n, l).unwrap().schedule(schedule);
        let mut sim = Simulation::new(Path::new(n), hpts, &pattern).unwrap();
        sim.run_past_horizon(extra).unwrap();
        sim.metrics().clone()
    }

    #[test]
    fn reduces_to_ppts_like_behaviour_at_one_level() {
        // ℓ = 1: a single level-0 interval covering the whole line; every
        // node is an intermediate destination — PPTS with W = all nodes. A
        // sustained rate-1 stream keeps node 0 bad, so the wave fires every
        // round and pushes the head all the way to the sink. (A finite
        // burst alone would spread out and stall: faithful HPTS forwards
        // only while something is bad.)
        let p: Pattern = (0..20u64).map(|t| Injection::new(t, 0, 7)).collect();
        let m = run(8, 1, p, 40, LevelSchedule::Descending);
        assert!(m.delivered > 0);
        // σ* of the paced stream is ≤ 1; occupancy stays near 2.
        assert!(m.max_occupancy <= 8 + 2 + 1);
    }

    #[test]
    fn space_bound_formula() {
        let hpts = Hpts::for_line(16, 2).unwrap();
        assert_eq!(hpts.hierarchy().base(), 4);
        assert_eq!(hpts.space_bound(3), 2 * 4 + 3 + 1);
    }

    #[test]
    fn primary_level_schedules() {
        let hpts = Hpts::for_line(16, 4).unwrap();
        let asc = hpts.clone().schedule(LevelSchedule::Ascending);
        let desc = hpts.schedule(LevelSchedule::Descending);
        let asc_levels: Vec<u32> = (0..4).map(|t| asc.primary_level(Round::new(t))).collect();
        let desc_levels: Vec<u32> = (0..4).map(|t| desc.primary_level(Round::new(t))).collect();
        assert_eq!(asc_levels, vec![0, 1, 2, 3]);
        assert_eq!(desc_levels, vec![3, 2, 1, 0]);
    }

    #[test]
    fn injection_mode_batches_by_level_count() {
        let hpts = Hpts::for_line(27, 3).unwrap();
        assert_eq!(hpts.injection_mode(), InjectionMode::Batched { len: 3 });
    }

    #[test]
    fn drains_to_a_badness_free_configuration() {
        // Packets crossing several levels of the hierarchy: 0 → 15 needs a
        // level-1 segment then level-0 segments (m = 4, ℓ = 2). Faithful
        // HPTS forwards only while some pseudo-buffer is bad, so the end
        // state must have every pseudo-buffer at ≤ 1 packet — and anything
        // delivered plus buffered must account for all packets. The stream
        // is paced at ρ = 1/2 (one packet per phase) so node 0 stays bad
        // and the wave keeps the head moving through both levels.
        let p: Pattern = (0..40u64).map(|t| Injection::new(2 * t, 0, 15)).collect();
        let hpts = Hpts::for_line(16, 2).unwrap();
        let h = *hpts.hierarchy();
        let bound = hpts.space_bound(2) as usize;
        let mut sim = Simulation::new(Path::new(16), hpts, &p).unwrap();
        sim.run_past_horizon(400).unwrap();
        let state = sim.state();
        for i in 0..state.node_count() {
            let mut counts = std::collections::BTreeMap::new();
            for sp in state.buffer(NodeId::new(i)) {
                *counts.entry(h.class(i, sp.dest().index())).or_insert(0) += 1;
            }
            for ((j, k), count) in counts {
                assert!(
                    count <= 1,
                    "node {i} pseudo-buffer ({j},{k}) still bad after settling"
                );
            }
        }
        let m = sim.metrics();
        assert!(m.delivered >= 1, "streamed packets must reach the sink");
        assert_eq!(
            m.delivered + state.total_buffered() as u64,
            40,
            "conservation"
        );
        // σ* of the 1-per-phase stream is 1; allow one extra for staging.
        assert!(m.max_occupancy <= bound);
    }

    #[test]
    fn sustained_half_rate_respects_theorem_bound() {
        // ℓ = 2, ρ = 1/2, σ small: bound = 2·4 + σ + 1.
        let mut inj = Vec::new();
        for t in 0..200u64 {
            if t % 2 == 0 {
                inj.push(Injection::new(t, (t % 13) as usize, 13 + (t % 3) as usize));
            }
        }
        let p = Pattern::from_injections(inj);
        for schedule in [LevelSchedule::Descending, LevelSchedule::Ascending] {
            let m = run(16, 2, p.clone(), 200, schedule);
            assert!(
                m.max_occupancy <= 2 * 4 + 2 + 1,
                "{schedule:?}: occupancy {} exceeds bound",
                m.max_occupancy
            );
        }
    }

    #[test]
    fn without_prebad_is_constructible_and_named() {
        let hpts = Hpts::for_line(16, 2).unwrap().without_prebad();
        assert!(hpts.name().contains("noprebad"));
        let asc = Hpts::for_line(16, 2)
            .unwrap()
            .schedule(LevelSchedule::Ascending);
        assert!(asc.name().contains("asc"));
    }

    #[test]
    fn oversize_network_is_rejected() {
        let hpts = Hpts::new(Hierarchy::new(2, 2).unwrap()); // 4 virtual nodes
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 5)]);
        let mut sim = Simulation::new(Path::new(8), hpts, &p).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        assert!(result.is_err(), "plan must reject an oversized network");
    }

    #[test]
    fn phase_acceptance_matches_reduction() {
        // ℓ = 2: a packet injected at round 1 is staged until round 2.
        let hpts = Hpts::for_line(4, 2).unwrap();
        let p = Pattern::from_injections(vec![Injection::new(1, 0, 3)]);
        let mut sim = Simulation::new(Path::new(4), hpts, &p).unwrap();
        sim.step().unwrap();
        sim.step().unwrap();
        assert_eq!(sim.state().staged_len(), 1);
        let outcome = sim.step().unwrap(); // round 2 ≡ 0 (mod 2)
        assert_eq!(outcome.accepted, 1);
    }
}
