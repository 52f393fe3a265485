//! Independent oracle for the HPTS and HPTS-D planners.
//!
//! `RefHpts` and `RefHptsD` below are deliberately naive transcriptions of
//! Algs. 3–5: every round they rebuild one `BTreeMap` of
//! `(level, column) → summary` per node from `NetworkState::buffer`, and
//! they use only the public API ([`Hierarchy`] and the destination set).
//! The library planners keep one class table across rounds and re-read
//! only the buffers that changed. Each runs beside its reference under
//! random (ρ, σ)-bounded traffic, and the two must apply the same moves,
//! round for round, and report the same `RunMetrics`.
//!
//! Without losses, every packet that leaves a buffer is the LIFO top the
//! planner sent. The cases under a capacity limit (every drop policy, both
//! staging modes) and under node crashes and link outages change buffers
//! as the planner did not plan: a drop evicts a packet from anywhere in a
//! buffer, a crash empties one, and a blocked send leaves its packet in
//! place. A planner cloned after a run must plan a new run like a fresh
//! one, even where a buffer looks as it did when the first run ended.

use std::collections::BTreeMap;

use proptest::prelude::*;
use small_buffers::model::Probe;
use small_buffers::{
    Cadence, CapacityConfig, DestSpec, DropPolicyKind, FaultEvent, FaultSpec, ForwardingPlan,
    Hierarchy, Hpts, HptsD, Injection, InjectionMode, LevelSchedule, NetworkState, NodeId,
    PacketId, Path, Pattern, Protocol, RandomAdversary, Rate, Round, Simulation, StagingMode,
};

/// One class's summary: count, LIFO-top packet, its `seq` and destination.
#[derive(Debug, Clone, Copy)]
struct Info {
    count: usize,
    top: PacketId,
    top_seq: u64,
    top_dest: usize,
}

/// An activated node: where its segment ends, and the packet it sends.
#[derive(Debug, Clone, Copy)]
struct Active {
    target: usize,
    packet: Option<(PacketId, usize)>,
}

fn set_active(active: &mut [Option<Active>], i: usize, entry: Active) {
    assert!(active[i].is_none(), "reference activated node {i} twice");
    active[i] = Some(entry);
}

fn send_active(active: &[Option<Active>], plan: &mut ForwardingPlan) {
    for (i, entry) in active.iter().enumerate() {
        if let Some(Active {
            packet: Some((pid, _)),
            ..
        }) = entry
        {
            plan.send(NodeId::new(i), *pid);
        }
    }
}

/// Adds the packet `(id, seq, dest)` to `class` at one node.
fn summarise(
    map: &mut BTreeMap<(u32, usize), Info>,
    class: (u32, usize),
    id: PacketId,
    seq: u64,
    dest: usize,
) {
    let e = map.entry(class).or_insert(Info {
        count: 0,
        top: id,
        top_seq: seq,
        top_dest: dest,
    });
    e.count += 1;
    if seq >= e.top_seq {
        e.top = id;
        e.top_seq = seq;
        e.top_dest = dest;
    }
}

fn primary_level(l: u32, schedule: LevelSchedule, round: Round) -> u32 {
    let r = (round.value() % u64::from(l)) as u32;
    match schedule {
        LevelSchedule::Ascending => r,
        LevelSchedule::Descending => l - 1 - r,
    }
}

/// Reference HPTS (Algs. 3–5) over a node-space hierarchy.
struct RefHpts {
    h: Hierarchy,
    schedule: LevelSchedule,
    prebad: bool,
}

impl RefHpts {
    fn pseudo_buffers(&self, state: &NetworkState) -> Vec<BTreeMap<(u32, usize), Info>> {
        (0..state.node_count())
            .map(|i| {
                let mut map = BTreeMap::new();
                for sp in state.buffer(NodeId::new(i)) {
                    let w = sp.dest().index();
                    let class = (self.h.level(i, w), self.h.dest_index(i, w));
                    summarise(&mut map, class, sp.id(), sp.seq(), w);
                }
                map
            })
            .collect()
    }

    fn form_paths(
        &self,
        lambda: u32,
        infos: &[BTreeMap<(u32, usize), Info>],
        active: &mut [Option<Active>],
    ) {
        let n = infos.len();
        let m = self.h.base();
        let step = m.pow(lambda);
        for r in 0..self.h.interval_count(lambda) {
            let (base, end) = self.h.interval(lambda, r);
            if base >= n {
                break;
            }
            let mut leftmost_bad: BTreeMap<usize, usize> = BTreeMap::new();
            for (i, map) in infos.iter().enumerate().take(end.min(n - 1) + 1).skip(base) {
                for (&(j, k), e) in map {
                    if j == lambda && e.count >= 2 {
                        leftmost_bad.entry(k).or_insert(i);
                    }
                }
            }
            let mut iprime = base + (m - 1) * step;
            for (&k, &ik) in leftmost_bad.iter().rev() {
                let wk = base + k * step;
                if ik >= iprime.min(wk).min(n) {
                    continue;
                }
                let hi = (iprime - 1).min(wk - 1).min(n - 1);
                for (i, map) in infos.iter().enumerate().take(hi + 1).skip(ik) {
                    let packet = map.get(&(lambda, k)).map(|e| (e.top, e.top_dest));
                    set_active(active, i, Active { target: wk, packet });
                }
                iprime = ik;
            }
        }
    }

    fn activate_prebad(
        &self,
        j: u32,
        infos: &[BTreeMap<(u32, usize), Info>],
        active: &mut [Option<Active>],
    ) {
        let n = infos.len();
        for r in 0..self.h.interval_count(j) {
            let (a, b) = self.h.interval(j, r);
            if a == 0 {
                continue;
            }
            if a >= n {
                break;
            }
            if active[a].is_some() {
                continue;
            }
            let Some(sender) = active[a - 1] else {
                continue;
            };
            let Some((_, final_dest)) = sender.packet else {
                continue;
            };
            if sender.target != a || final_dest == a || self.h.level(a, final_dest) != j {
                continue;
            }
            let k = self.h.dest_index(a, final_dest);
            if !infos[a].contains_key(&(j, k)) {
                continue;
            }
            let wk = self.h.intermediate(a, final_dest);
            let cap = (wk - 1).min(b).min(n - 1);
            let mut i = a;
            while i <= cap && active[i].is_none() {
                let packet = infos[i].get(&(j, k)).map(|e| (e.top, e.top_dest));
                set_active(active, i, Active { target: wk, packet });
                i += 1;
            }
        }
    }
}

impl Protocol<Path> for RefHpts {
    fn name(&self) -> String {
        "RefHPTS".into()
    }

    fn injection_mode(&self) -> InjectionMode {
        InjectionMode::Batched {
            len: u64::from(self.h.levels()),
        }
    }

    fn plan(&mut self, round: Round, _: &Path, state: &NetworkState, plan: &mut ForwardingPlan) {
        let lambda = primary_level(self.h.levels(), self.schedule, round);
        let infos = self.pseudo_buffers(state);
        let mut active = vec![None; state.node_count()];
        self.form_paths(lambda, &infos, &mut active);
        if self.prebad {
            for j in (0..lambda).rev() {
                self.activate_prebad(j, &infos, &mut active);
            }
        }
        send_active(&active, plan);
    }
}

/// Reference HPTS-D: the same algorithms over the `d + 1` destination
/// zones, scanned at real-node granularity.
struct RefHptsD {
    dests: Vec<usize>,
    h: Hierarchy,
    schedule: LevelSchedule,
    prebad: bool,
}

impl RefHptsD {
    fn zone_of(&self, i: usize) -> usize {
        self.dests.partition_point(|&w| w <= i)
    }

    fn classes(&self, state: &NetworkState) -> Vec<BTreeMap<(u32, usize), Info>> {
        (0..state.node_count())
            .map(|i| {
                let p = self.zone_of(i);
                let mut map = BTreeMap::new();
                for sp in state.buffer(NodeId::new(i)) {
                    let w = sp.dest().index();
                    let q = self.dests.binary_search(&w).expect("declared destination") + 1;
                    let class = (self.h.level(p, q), self.h.dest_index(p, q));
                    summarise(&mut map, class, sp.id(), sp.seq(), w);
                }
                map
            })
            .collect()
    }

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

    fn form_paths(
        &self,
        lambda: u32,
        infos: &[BTreeMap<(u32, usize), Info>],
        active: &mut [Option<Active>],
    ) {
        let n = infos.len();
        let step = self.h.base().pow(lambda);
        let d = self.dests.len();
        for r in 0..self.h.interval_count(lambda) {
            let (za, zb) = self.h.interval(lambda, r);
            let Some((lo, hi)) = self.real_span(za, zb, n) else {
                continue;
            };
            let mut leftmost_bad: BTreeMap<usize, usize> = BTreeMap::new();
            for (i, map) in infos.iter().enumerate().take(hi.min(n - 1) + 1).skip(lo) {
                for (&(j, k), e) in map {
                    if j == lambda && e.count >= 2 {
                        leftmost_bad.entry(k).or_insert(i);
                    }
                }
            }
            let mut iprime = hi + 1;
            for (&k, &ik) in leftmost_bad.iter().rev() {
                let wk_zone = za + k * step;
                if wk_zone == 0 || wk_zone > d {
                    continue;
                }
                let wk = self.dests[wk_zone - 1];
                if ik >= iprime.min(wk).min(n) {
                    continue;
                }
                let cap = (iprime - 1).min(wk - 1).min(n - 1);
                for (i, map) in infos.iter().enumerate().take(cap + 1).skip(ik) {
                    let packet = map.get(&(lambda, k)).map(|e| (e.top, e.top_dest));
                    set_active(active, i, Active { target: wk, packet });
                }
                iprime = ik;
            }
        }
    }

    fn activate_prebad(
        &self,
        j: u32,
        infos: &[BTreeMap<(u32, usize), Info>],
        active: &mut [Option<Active>],
    ) {
        let n = infos.len();
        for r in 0..self.h.interval_count(j) {
            let (za, _) = self.h.interval(j, r);
            if za == 0 || za > self.dests.len() {
                continue;
            }
            let a = self.dests[za - 1];
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
                continue;
            }
            let p = self.zone_of(a);
            let Ok(rank) = self.dests.binary_search(&final_dest) else {
                continue;
            };
            let q = rank + 1;
            if p >= q || self.h.level(p, q) != j {
                continue;
            }
            let k = self.h.dest_index(p, q);
            if !infos[a].contains_key(&(j, k)) {
                continue;
            }
            let target = self.dests[self.h.intermediate(p, q) - 1];
            let cap = (target - 1).min(n - 1);
            let mut i = a;
            while i <= cap && active[i].is_none() {
                let packet = infos[i].get(&(j, k)).map(|e| (e.top, e.top_dest));
                set_active(active, i, Active { target, packet });
                i += 1;
            }
        }
    }
}

impl Protocol<Path> for RefHptsD {
    fn name(&self) -> String {
        "RefHPTS-D".into()
    }

    fn injection_mode(&self) -> InjectionMode {
        InjectionMode::Batched {
            len: u64::from(self.h.levels()),
        }
    }

    fn plan(&mut self, round: Round, _: &Path, state: &NetworkState, plan: &mut ForwardingPlan) {
        let lambda = primary_level(self.h.levels(), self.schedule, round);
        let infos = self.classes(state);
        let mut active = vec![None; state.node_count()];
        self.form_paths(lambda, &infos, &mut active);
        if self.prebad {
            for j in (0..lambda).rev() {
                self.activate_prebad(j, &infos, &mut active);
            }
        }
        send_active(&active, plan);
    }
}

/// Records every applied move: `(round, from, packet, delivers)`.
#[derive(Default)]
struct Moves(Vec<(u64, usize, PacketId, bool)>);

impl Probe for Moves {
    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        self.0.push((round.value(), from.index(), packet, delivers));
    }
}

/// What the engine does to buffers besides the planner's sends.
#[derive(Debug, Clone, Default)]
struct Losses {
    /// A capacity limit and the policy that picks each drop victim.
    capacity: Option<(CapacityConfig, DropPolicyKind)>,
    faults: FaultSpec,
}

/// Runs `protocol` on `pattern` past its horizon under `losses`; the move
/// log and the `RunMetrics` JSON.
fn run<P: Protocol<Path>>(
    n: usize,
    protocol: P,
    pattern: &Pattern,
    losses: &Losses,
) -> (Moves, String) {
    let mut sim = Simulation::new(Path::new(n), protocol, pattern)
        .expect("valid pattern")
        .with_faults(&losses.faults);
    if let Some((config, kind)) = &losses.capacity {
        sim = sim.with_capacity(config.clone(), *kind);
    }
    let mut moves = Moves::default();
    let metrics = sim
        .run_past_horizon_probed(2 * n as u64, &mut moves)
        .expect("valid plan");
    let json = serde_json::to_string(metrics).expect("metrics serialise");
    (moves, json)
}

/// Runs a library planner and its reference side by side: the two must
/// apply the same moves and report the same metrics.
fn assert_matches<P: Protocol<Path>, R: Protocol<Path>>(
    n: usize,
    (planner, reference): (P, R),
    pattern: &Pattern,
    losses: &Losses,
) {
    let (moves, metrics) = run(n, planner, pattern, losses);
    let (ref_moves, ref_metrics) = run(n, reference, pattern, losses);
    assert_eq!(moves.0, ref_moves.0, "moves differ under {losses:?}");
    assert_eq!(metrics, ref_metrics, "metrics differ under {losses:?}");
}

/// HPTS and its reference, configured alike.
fn hpts_pair(n: usize, l: u32, ascending: bool, prebad: bool) -> (Hpts, RefHpts) {
    let mut hpts = Hpts::for_line(n, l).unwrap().schedule(schedule(ascending));
    if !prebad {
        hpts = hpts.without_prebad();
    }
    let reference = RefHpts {
        h: *hpts.hierarchy(),
        schedule: schedule(ascending),
        prebad,
    };
    (hpts, reference)
}

/// HPTS-D and its reference, configured alike.
fn hpts_d_pair(dests: Vec<usize>, l: u32, ascending: bool, prebad: bool) -> (HptsD, RefHptsD) {
    let mut hpts = HptsD::new(dests.clone(), l)
        .unwrap()
        .schedule(schedule(ascending));
    if !prebad {
        hpts = hpts.without_prebad();
    }
    let reference = RefHptsD {
        dests,
        h: *hpts.hierarchy(),
        schedule: schedule(ascending),
        prebad,
    };
    (hpts, reference)
}

/// A capacity of `cap` under every drop policy and both staging modes.
fn capacity_limits(cap: usize) -> impl Iterator<Item = Losses> {
    DropPolicyKind::ALL.into_iter().flat_map(move |kind| {
        [StagingMode::Exempt, StagingMode::Counted].map(|staging| Losses {
            capacity: Some((CapacityConfig::uniform(cap).staging(staging), kind)),
            faults: FaultSpec::default(),
        })
    })
}

/// Node crashes and link outages on an `n`-node path, inside the
/// traffic's 120 rounds: node `pick % n` crashes at round `at` for 12
/// rounds, node `pick / 3 % n` crashes for good at `at + 40`, the link
/// out of node `pick % (n − 1)` goes down from round `at / 2` to
/// `at / 2 + 30`, and two random links are down from round 20 to 60.
fn outages(n: usize, seed: u64, pick: usize, at: u64) -> Losses {
    let link = pick % (n - 1);
    let faults = FaultSpec::new(seed)
        .with_event(FaultEvent::NodeCrash {
            node: pick % n,
            at,
            until: Some(at + 12),
        })
        .with_event(FaultEvent::NodeCrash {
            node: pick / 3 % n,
            at: at + 40,
            until: None,
        })
        .with_event(FaultEvent::LinkDown {
            from: link,
            to: link + 1,
            at: at / 2,
            until: Some(at / 2 + 30),
        })
        .with_event(FaultEvent::RandomLinks {
            count: 2,
            at: 20,
            until: Some(60),
        });
    Losses {
        capacity: None,
        faults,
    }
}

/// Records every move, and the length and last `seq` of node 0's buffer
/// when round 0 is planned.
#[derive(Default)]
struct Replay {
    first: Option<(usize, Option<u64>)>,
    moves: Moves,
}

impl Probe for Replay {
    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        if round == Round::ZERO {
            let buffer = state.buffer(NodeId::new(0));
            self.first = Some((buffer.len(), buffer.last().map(|sp| sp.seq())));
        }
    }

    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        self.moves.on_move(round, from, packet, delivers);
    }
}

fn schedule(ascending: bool) -> LevelSchedule {
    if ascending {
        LevelSchedule::Ascending
    } else {
        LevelSchedule::Descending
    }
}

fn cadence(bursty: bool) -> Cadence {
    if bursty {
        Cadence::Bursty { period: 7 }
    } else {
        Cadence::Smooth
    }
}

/// Path lengths: powers of the bases ℓ = 1..=4 picks, and non-powers.
const SIZES: [usize; 6] = [16, 17, 27, 50, 64, 81];

/// `(n, ℓ, ascending schedule, prebad)`: ℓ from 1 to 4 on every size.
fn configs() -> impl Strategy<Value = (usize, u32, bool, bool)> {
    (
        (0..SIZES.len()).prop_map(|i| SIZES[i]),
        1u32..=4,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
}

/// `(ρ, σ)`: ρ = num/den with `1 ≤ num ≤ den ≤ 4`, σ from 0 to 4.
fn traffic() -> impl Strategy<Value = (Rate, u64)> {
    let rate =
        (1u32..=4).prop_flat_map(|den| (1..=den).prop_map(move |num| Rate::new(num, den).unwrap()));
    (rate, 0u64..=4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hpts_planner_matches_the_reference(
        config in configs(),
        traffic in traffic(),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (n, l, ascending, prebad) = config;
        let (rate, sigma) = traffic;
        let topo = Path::new(n);
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::AnyReachable)
            .cadence(cadence(bursty))
            .seed(seed)
            .build_path(&topo);
        assert_matches(n, hpts_pair(n, l, ascending, prebad), &pattern, &Losses::default());
    }

    #[test]
    fn hpts_d_planner_matches_the_reference(
        config in configs(),
        traffic in traffic(),
        picks in proptest::collection::btree_set(1usize..81, 1..8),
        seed in 0u64..1_000,
    ) {
        let (n, l, ascending, prebad) = config;
        let (rate, sigma) = traffic;
        let topo = Path::new(n);
        let dests: Vec<usize> = picks.into_iter().filter(|&w| w < n).collect();
        prop_assume!(!dests.is_empty());
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::fixed(dests.clone()))
            .seed(seed)
            .build_path(&topo);
        assert_matches(n, hpts_d_pair(dests, l, ascending, prebad), &pattern, &Losses::default());
    }

    /// Thm 4.1's HPTS is HPTS-D with every node but 0 a destination: the
    /// zone of node i is then i itself, so the two must apply the same
    /// moves (only the protocol names differ).
    #[test]
    fn hpts_is_hpts_d_over_every_node(
        config in configs(),
        traffic in traffic(),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (n, l, ascending, prebad) = config;
        let (rate, sigma) = traffic;
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::AnyReachable)
            .cadence(cadence(bursty))
            .seed(seed)
            .build_path(&Path::new(n));
        let mut hpts = Hpts::for_line(n, l).unwrap().schedule(schedule(ascending));
        let mut hpts_d = HptsD::new((1..n).collect(), l).unwrap().schedule(schedule(ascending));
        if !prebad {
            hpts = hpts.without_prebad();
            hpts_d = hpts_d.without_prebad();
        }
        let (moves, metrics) = run(n, hpts, &pattern, &Losses::default());
        let (d_moves, d_metrics) = run(n, hpts_d, &pattern, &Losses::default());
        prop_assert_eq!(moves.0, d_moves.0);
        prop_assert_eq!(metrics, d_metrics);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hpts_planners_match_the_references_under_capacity_drops(
        config in configs(),
        traffic in traffic(),
        picks in proptest::collection::btree_set(1usize..81, 1..8),
        cap in 1usize..=4,
        seed in 0u64..1_000,
    ) {
        let (n, l, ascending, prebad) = config;
        let (rate, sigma) = traffic;
        let topo = Path::new(n);
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::AnyReachable)
            .seed(seed)
            .build_path(&topo);
        let dests: Vec<usize> = picks.into_iter().filter(|&w| w < n).collect();
        prop_assume!(!dests.is_empty());
        let d_pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::fixed(dests.clone()))
            .seed(seed)
            .build_path(&topo);
        for losses in capacity_limits(cap) {
            assert_matches(n, hpts_pair(n, l, ascending, prebad), &pattern, &losses);
            assert_matches(
                n,
                hpts_d_pair(dests.clone(), l, ascending, prebad),
                &d_pattern,
                &losses,
            );
        }
    }

    #[test]
    fn hpts_planners_match_the_references_under_crashes_and_outages(
        config in configs(),
        traffic in traffic(),
        picks in proptest::collection::btree_set(1usize..81, 1..8),
        faults in (0u64..1_000, 0usize..1_000, 0u64..100),
        seed in 0u64..1_000,
    ) {
        let (n, l, ascending, prebad) = config;
        let (rate, sigma) = traffic;
        let topo = Path::new(n);
        let losses = outages(n, faults.0, faults.1, faults.2);
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::AnyReachable)
            .seed(seed)
            .build_path(&topo);
        assert_matches(n, hpts_pair(n, l, ascending, prebad), &pattern, &losses);
        let dests: Vec<usize> = picks.into_iter().filter(|&w| w < n).collect();
        prop_assume!(!dests.is_empty());
        let pattern = RandomAdversary::new(rate, sigma, 120)
            .destinations(DestSpec::fixed(dests.clone()))
            .seed(seed)
            .build_path(&topo);
        assert_matches(n, hpts_d_pair(dests, l, ascending, prebad), &pattern, &losses);
    }
}

/// HPTS with every injection placed at once: a batched planner's first
/// round of a run sees only empty buffers, and this one's does not.
#[derive(Clone)]
struct Immediate(Hpts);

impl Protocol<Path> for Immediate {
    fn name(&self) -> String {
        self.0.name()
    }

    fn plan(&mut self, round: Round, path: &Path, state: &NetworkState, plan: &mut ForwardingPlan) {
        self.0.plan(round, path, state, plan);
    }
}

/// A planner cloned after a run starts its class table over in a new
/// run. Here node 0 ends the first run holding two packets with the
/// `seq`s 0 and 1 in classes that are not bad, and the second run plans
/// its first round with two packets of those `seq`s in one bad class at
/// node 0. A table that trusted the fingerprint would see nothing bad
/// and never send.
#[test]
fn a_reused_hpts_plans_like_a_fresh_one() {
    let hpts = || Immediate(Hpts::for_line(16, 2).unwrap());
    let first = Pattern::from_injections(vec![Injection::new(0, 0, 1), Injection::new(0, 0, 4)]);
    let mut sim = Simulation::new(Path::new(16), hpts(), &first).unwrap();
    sim.run(10).unwrap();
    assert_eq!(
        sim.metrics().forwarded,
        0,
        "nothing is bad in the first run"
    );
    let left = sim.state().buffer(NodeId::new(0));
    let fingerprint = (left.len(), left.last().map(|sp| sp.seq()));
    let reused = sim.protocol().clone();

    let second = Pattern::from_injections(vec![Injection::new(0, 0, 15); 2]);
    let replay = |protocol: Immediate| {
        let mut sim = Simulation::new(Path::new(16), protocol, &second).unwrap();
        let mut replay = Replay::default();
        sim.run_past_horizon_probed(32, &mut replay).unwrap();
        (replay.first, replay.moves.0)
    };
    let (seen, fresh_moves) = replay(hpts());
    assert_eq!(seen, Some(fingerprint), "node 0 must look as it did");
    let (_, reused_moves) = replay(reused);
    assert!(!fresh_moves.is_empty(), "the bad class must move");
    assert_eq!(reused_moves, fresh_moves);
}
