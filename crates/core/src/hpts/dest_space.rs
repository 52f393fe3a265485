//! HPTS-D — the destination-space hierarchy (**experimental**).
//!
//! The paper's abstract states the headline tradeoff in terms of the number
//! of *distinct destinations* d: `O(k·d^{1/k})` space for `k = ⌊1/ρ⌋`. The
//! body proves the node-space version (Thm. 4.1, `ℓ·n^{1/ℓ} + σ + 1`),
//! which implies the d-version only when destinations are dense. This
//! module implements the d-version directly by running the HPTS hierarchy
//! over **destination indices** instead of node positions:
//!
//! * The d destinations `w_0 < w_1 < … < w_{d−1}` split the line into
//!   `D = d + 1` *zones*; node `i` lies in zone `z(i) = |{w ∈ W : w ≤ i}|`.
//! * A packet at node `i` destined `w_k` is a path packet from contracted
//!   position `z(i)` to contracted position `k + 1` (it enters zone `k + 1`
//!   exactly when it arrives at `w_k`, where it is delivered).
//! * The [`Hierarchy`] over the `D` contracted positions assigns each
//!   packet a level `j` and column `k` exactly as in Defs. 4.2–4.3; a
//!   segment's contracted target `x` corresponds to the real destination
//!   `w_{x−1}` (the left endpoint of zone `x`).
//! * Forwarding performs the FormPaths / ActivatePreBad scans at **real
//!   node granularity** inside the real span of each contracted interval
//!   ("in-zone compaction"): within a zone, a class advances as a PTS wave.
//!
//! Per node there are at most `ℓ·m` non-empty classes with
//! `m = ⌈(d+1)^{1/ℓ}⌉`, so the empirical space bound is
//! `ℓ·(d+1)^{1/ℓ} + σ + 1` — the abstract's `O(k·d^{1/k})`. The paper
//! proves this only for the node-space hierarchy; here the bound is
//! validated by property tests and experiment E7, and the protocol is
//! flagged **experimental** accordingly.

use aqt_model::{ForwardingPlan, InjectionMode, NetworkState, Path, Protocol, Round};

use super::classes::{Active, ClassTable, Scratch};
use super::geometry::{GeometryError, Hierarchy};
use super::LevelSchedule;

/// Errors constructing [`HptsD`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestSpaceError {
    /// The destination set is empty.
    NoDestinations,
    /// Destinations must be strictly increasing (and therefore distinct).
    Unsorted {
        /// First out-of-order index.
        index: usize,
    },
    /// Node 0 cannot be a destination on a path (nothing is to its left).
    ZeroDestination,
    /// The hierarchy over d + 1 zones could not be built.
    Geometry(GeometryError),
}

impl std::fmt::Display for DestSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DestSpaceError::NoDestinations => write!(f, "destination set is empty"),
            DestSpaceError::Unsorted { index } => {
                write!(
                    f,
                    "destinations must be strictly increasing (index {index})"
                )
            }
            DestSpaceError::ZeroDestination => write!(f, "node 0 cannot be a destination"),
            DestSpaceError::Geometry(e) => write!(f, "zone hierarchy: {e}"),
        }
    }
}

impl std::error::Error for DestSpaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DestSpaceError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeometryError> for DestSpaceError {
    fn from(e: GeometryError) -> Self {
        DestSpaceError::Geometry(e)
    }
}

/// Destination-space HPTS (**experimental**; see the module docs).
///
/// # Examples
///
/// ```
/// use aqt_core::hpts::HptsD;
/// use aqt_model::{Injection, Path, Pattern, Simulation};
///
/// // d = 3 destinations on a long line; ℓ = 2 levels over d + 1 = 4 zones
/// // gives m = 2 and the empirical bound 2·2 + σ + 1.
/// let hpts = HptsD::new(vec![40, 80, 120], 2)?;
/// let pattern: Pattern = (0..30u64).map(|t| Injection::new(2 * t, 0, 120)).collect();
/// let mut sim = Simulation::new(Path::new(121), hpts, &pattern)?;
/// sim.run_past_horizon(600)?;
/// assert!(sim.metrics().max_occupancy <= (2 * 2 + 1 + 1) as usize);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HptsD {
    /// Sorted destinations `w_0 < … < w_{d−1}`.
    dests: Vec<usize>,
    /// Hierarchy over the `d + 1` contracted zone positions.
    h: Hierarchy,
    schedule: LevelSchedule,
    prebad: bool,
    /// Classes share the real node ending their segment (`w_{x−1}`).
    scratch: Scratch<usize>,
}

impl HptsD {
    /// Builds the protocol for the given destination set and level count.
    ///
    /// # Errors
    ///
    /// Returns a [`DestSpaceError`] if `dests` is empty, unsorted,
    /// contains node 0, or the zone hierarchy cannot be built.
    pub fn new(dests: Vec<usize>, l: u32) -> Result<Self, DestSpaceError> {
        if dests.is_empty() {
            return Err(DestSpaceError::NoDestinations);
        }
        if dests[0] == 0 {
            return Err(DestSpaceError::ZeroDestination);
        }
        if let Some(i) = (1..dests.len()).find(|&i| dests[i] <= dests[i - 1]) {
            return Err(DestSpaceError::Unsorted { index: i });
        }
        let zones = dests.len() + 1;
        let h = Hierarchy::covering(zones, l)?;
        Ok(HptsD {
            dests,
            h,
            schedule: LevelSchedule::default(),
            prebad: true,
            scratch: Scratch::default(),
        })
    }

    /// Selects the level schedule (builder-style).
    pub fn schedule(mut self, schedule: LevelSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Disables the pre-bad cascade (ablation).
    pub fn without_prebad(mut self) -> Self {
        self.prebad = false;
        self
    }

    /// The sorted destination set.
    pub fn destinations(&self) -> &[usize] {
        &self.dests
    }

    /// The hierarchy over the `d + 1` contracted zones.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// The **empirical** space bound `ℓ·m + σ + 1` with
    /// `m = ⌈(d+1)^{1/ℓ}⌉`. Validated by tests and E7, not by a proof in
    /// the paper (which covers the node-space hierarchy only).
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

    /// Zone of a real node: `z(i) = |{w ∈ W : w ≤ i}|`.
    pub fn zone_of(&self, i: usize) -> usize {
        self.dests.partition_point(|&w| w <= i)
    }

    /// Rank of a destination in `W`, or `None` if `w ∉ W`.
    pub fn rank_of(&self, w: usize) -> Option<usize> {
        self.dests.binary_search(&w).ok()
    }

    /// Real node ending zone-entry into contracted position `x ≥ 1`: the
    /// destination `w_{x−1}`.
    fn zone_left_endpoint(&self, x: usize) -> usize {
        debug_assert!(x >= 1 && x <= self.dests.len());
        self.dests[x - 1]
    }

    /// The `(level, column)` class of a packet at real node `i` destined
    /// `w`, and the real node ending its current segment (`w_{x−1}`).
    ///
    /// # Panics
    ///
    /// Panics if `w` is not in `W` — HPTS-D requires the adversary to
    /// honor the declared destination set.
    fn classify(&self, i: usize, w: usize) -> ((u32, usize), usize) {
        let p = self.zone_of(i);
        let rank = self
            .rank_of(w)
            .unwrap_or_else(|| panic!("packet destined {w} outside declared set"));
        let q = rank + 1;
        debug_assert!(p < q, "buffered packet must still have zones to cross");
        let class = self.h.class(p, q);
        (class, self.zone_left_endpoint(self.h.intermediate(p, q)))
    }

    /// Real span `[lo, hi]` of the contracted interval `[za, zb]`
    /// (clamped to the actual zone count and network size).
    fn real_span(&self, za: usize, zb: usize, n: usize) -> Option<(usize, usize)> {
        let d = self.dests.len();
        if za > d {
            return None;
        }
        let lo = if za == 0 { 0 } else { self.dests[za - 1] };
        let hi = if zb >= d {
            n - 1
        } else {
            self.dests[zb].saturating_sub(1).min(n - 1)
        };
        (lo <= hi).then_some((lo, hi))
    }

    /// FormPaths at real granularity: PPTS-style activation of level-λ
    /// classes within each contracted level-λ interval.
    fn form_paths(&self, lambda: u32, scratch: &mut Scratch<usize>) {
        let Scratch {
            classes,
            leftmost_bad,
            active,
        } = scratch;
        let n = classes.node_count();
        let m = self.h.base();
        let step = m.pow(lambda);
        let d = self.dests.len();
        for r in 0..self.h.interval_count(lambda) {
            let (za, zb) = self.h.interval(lambda, r);
            let Some((lo, hi)) = self.real_span(za, zb, n) else {
                continue;
            };
            // Left-most bad real node per column, in one pass over the
            // interval's real span (a column's global left-most bad node is
            // also the left-most in any prefix, so the i′ cutoff semantics
            // below are unchanged).
            leftmost_bad.fill(None);
            for i in lo..=hi.min(n - 1) {
                for (class, e) in classes.node(i) {
                    let k = class.column();
                    if class.level() == lambda && e.count >= 2 && leftmost_bad[k].is_none() {
                        leftmost_bad[k] = Some(i);
                    }
                }
            }
            // i′ starts past the interval's real right edge.
            let mut iprime = hi + 1;
            for (k, ik) in leftmost_bad.iter().enumerate().rev() {
                let Some(ik) = *ik else {
                    continue;
                };
                let wk_zone = za + k * step;
                if wk_zone == 0 || wk_zone > d {
                    continue; // zone 0 has no left endpoint; beyond W is empty
                }
                let wk_real = self.zone_left_endpoint(wk_zone);
                // The bad node must lie left of both i′ and the class's own
                // target.
                let scan_hi = iprime.min(wk_real).min(n);
                if ik >= scan_hi {
                    continue;
                }
                let cap = (iprime - 1).min(wk_real - 1).min(n - 1);
                for i in ik..=cap {
                    let packet = classes.get(i, (lambda, k)).map(|e| (e.top, e.top_dest));
                    set_active(
                        active,
                        i,
                        Active {
                            target: wk_real,
                            packet,
                        },
                    );
                }
                iprime = ik;
            }
        }
    }

    /// ActivatePreBad at real granularity: if a packet is about to finish
    /// its segment at a destination node `a` and would join an occupied
    /// level-j class there, extend the wave from `a` toward the new
    /// segment's target.
    fn activate_prebad(&self, j: u32, classes: &ClassTable<usize>, active: &mut [Option<Active>]) {
        let n = classes.node_count();
        for r in 0..self.h.interval_count(j) {
            let (za, _zb) = self.h.interval(j, r);
            if za == 0 || za > self.dests.len() {
                continue;
            }
            let a = self.zone_left_endpoint(za);
            if a == 0 || a >= n || active[a].is_some() {
                continue;
            }
            let Some(sender) = active[a - 1] else {
                continue;
            };
            let Some((_, final_dest)) = sender.packet else {
                continue;
            };
            if sender.target != a || final_dest == a {
                continue; // not the last hop of a segment / delivered on arrival
            }
            let p = self.zone_of(a);
            debug_assert_eq!(p, za);
            let q = match self.rank_of(final_dest) {
                Some(rank) => rank + 1,
                None => continue,
            };
            if p >= q {
                continue; // no segment left to join
            }
            let (level, k) = self.h.class(p, q);
            if level != j {
                continue; // joins some other level
            }
            if classes.get(a, (j, k)).is_none() {
                continue; // receiving class empty: arrival cannot be bad
            }
            let x = self.h.intermediate(p, q);
            let target_real = self.zone_left_endpoint(x);
            let cap = (target_real - 1).min(n - 1);
            let mut i = a;
            while i <= cap && active[i].is_none() {
                let packet = classes.get(i, (j, k)).map(|e| (e.top, e.top_dest));
                set_active(
                    active,
                    i,
                    Active {
                        target: target_real,
                        packet,
                    },
                );
                i += 1;
            }
        }
    }
}

/// Marks node `i` active; panics on double activation (feasibility is
/// enforced, not assumed).
fn set_active(active: &mut [Option<Active>], i: usize, entry: Active) {
    assert!(
        active[i].is_none(),
        "HPTS-D activated node {i} twice (feasibility violation)"
    );
    active[i] = Some(entry);
}

impl Protocol<Path> for HptsD {
    fn name(&self) -> String {
        let mut name = format!(
            "HPTS-D(d={},m={},l={})",
            self.dests.len(),
            self.h.base(),
            self.h.levels()
        );
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

    fn plan(
        &mut self,
        round: Round,
        _topo: &Path,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let lambda = self.primary_level(round);
        // Taken out for the round so the helpers can borrow `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.classes.rebuild(state, |i, w| self.classify(i, w));
        scratch.reset(state.node_count(), self.h.base());
        self.form_paths(lambda, &mut scratch);
        if self.prebad {
            for j in (0..lambda).rev() {
                self.activate_prebad(j, &scratch.classes, &mut scratch.active);
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

    #[test]
    fn construction_validates_destination_set() {
        assert_eq!(
            HptsD::new(vec![], 2).unwrap_err(),
            DestSpaceError::NoDestinations
        );
        assert_eq!(
            HptsD::new(vec![0, 5], 2).unwrap_err(),
            DestSpaceError::ZeroDestination
        );
        assert_eq!(
            HptsD::new(vec![5, 5], 2).unwrap_err(),
            DestSpaceError::Unsorted { index: 1 }
        );
        assert_eq!(
            HptsD::new(vec![5, 3], 2).unwrap_err(),
            DestSpaceError::Unsorted { index: 1 }
        );
        assert!(HptsD::new(vec![3, 5, 9], 2).is_ok());
    }

    #[test]
    fn zone_arithmetic() {
        let h = HptsD::new(vec![4, 8, 12], 2).unwrap();
        assert_eq!(h.zone_of(0), 0);
        assert_eq!(h.zone_of(3), 0);
        assert_eq!(h.zone_of(4), 1); // w_0 itself is in zone 1
        assert_eq!(h.zone_of(7), 1);
        assert_eq!(h.zone_of(8), 2);
        assert_eq!(h.zone_of(100), 3);
        assert_eq!(h.rank_of(8), Some(1));
        assert_eq!(h.rank_of(9), None);
    }

    #[test]
    fn hierarchy_covers_zones_not_nodes() {
        // d = 3 ⇒ D = 4 zones; ℓ = 2 ⇒ m = 2 even on a long line.
        let h = HptsD::new(vec![100, 200, 300], 2).unwrap();
        assert_eq!(h.hierarchy().base(), 2);
        assert_eq!(h.space_bound(0), 2 * 2 + 1);
    }

    #[test]
    fn single_destination_behaves_like_pts() {
        // d = 1, ℓ = 1: one zone boundary; the class wave is plain PTS. A
        // sustained rate-1 stream keeps node 0 bad, so the wave fires every
        // round and the head is pushed all the way to delivery.
        let h = HptsD::new(vec![15], 1).unwrap();
        let p: Pattern = (0..40u64).map(|t| Injection::new(t, 0, 15)).collect();
        let mut sim = Simulation::new(Path::new(16), h, &p).unwrap();
        sim.run_past_horizon(30).unwrap();
        let m = sim.metrics();
        assert!(
            m.delivered >= 20,
            "sustained stream must deliver, got {}",
            m.delivered
        );
        // σ* of this stream at ρ = 1 is 0; empirical bound 1·2 + 0 + 1.
        assert!(m.max_occupancy <= 3, "occupancy {}", m.max_occupancy);
    }

    #[test]
    fn respects_empirical_bound_on_sparse_destinations() {
        // 4 destinations scattered on a 256-node line; ℓ = 2 ⇒ m = 3
        // (covering 5 zones), bound 2·3 + σ + 1 — far below n.
        let dests = vec![60, 120, 180, 240];
        let hpts = HptsD::new(dests.clone(), 2).unwrap();
        let bound = hpts.space_bound(2) as usize;
        let mut inj = Vec::new();
        for t in 0..400u64 {
            if t % 2 == 0 {
                let dest = dests[(t as usize / 2) % 4];
                inj.push(Injection::new(t, (t % 50) as usize, dest));
            }
        }
        let p = Pattern::from_injections(inj);
        let mut sim = Simulation::new(Path::new(256), hpts, &p).unwrap();
        sim.run_past_horizon(2_000).unwrap();
        assert!(
            sim.metrics().max_occupancy <= bound,
            "{} > {bound}",
            sim.metrics().max_occupancy
        );
    }

    #[test]
    fn panics_on_undeclared_destination() {
        let hpts = HptsD::new(vec![4, 8], 1).unwrap();
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 6)]);
        let mut sim = Simulation::new(Path::new(9), hpts, &p).unwrap();
        // Step twice: the batched injection is staged in round 0 and only
        // becomes visible to the protocol at the round-1 acceptance.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.step().and_then(|_| sim.step())
        }));
        assert!(result.is_err(), "undeclared destination must be rejected");
    }

    #[test]
    fn name_reflects_configuration() {
        let h = HptsD::new(vec![4, 8, 12], 2).unwrap();
        assert!(h.name().starts_with("HPTS-D(d=3"));
        assert!(h.clone().without_prebad().name().contains("noprebad"));
        assert!(h.schedule(LevelSchedule::Ascending).name().contains("asc"));
    }

    #[test]
    fn injection_mode_matches_level_count() {
        let h = HptsD::new(vec![10, 20], 3).unwrap();
        assert_eq!(h.injection_mode(), InjectionMode::Batched { len: 3 });
    }

    #[test]
    fn burst_spreads_until_no_class_is_bad() {
        // A burst of 6 packets to the far destination spreads out until no
        // class anywhere holds two packets (the faithful protocol forwards
        // only while something is bad — the theorems bound space, not
        // latency), staying within the empirical bound throughout.
        let dests = vec![10, 20, 30];
        let hpts = HptsD::new(dests, 2).unwrap();
        let probe = hpts.clone();
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 30); 6]);
        let mut sim = Simulation::new(Path::new(31), hpts, &p).unwrap();
        sim.run_past_horizon(600).unwrap();
        let m = sim.metrics();
        // Occupancy within the empirical bound for σ* = 5 (6-burst at ρ=1/2).
        assert!(m.max_occupancy <= (2 * 2 + 5 + 1) as usize);
        // Quiescence: every class at every node holds at most one packet.
        let state = sim.state();
        for i in 0..state.node_count() {
            let mut counts = std::collections::BTreeMap::new();
            for sp in state.buffer(NodeId::new(i)) {
                let (class, _) = probe.classify(i, sp.dest().index());
                *counts.entry(class).or_insert(0) += 1;
            }
            for ((j, k), count) in counts {
                assert!(
                    count <= 1,
                    "node {i} class ({j},{k}) still bad after settling"
                );
            }
        }
        // Nothing was lost: delivered + buffered = 6.
        assert_eq!(m.delivered + sim.state().total_buffered() as u64, 6);
    }
}
