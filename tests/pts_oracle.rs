//! Independent oracle for the peak-to-sink planners: PTS, PPTS, Tree-PTS
//! and Tree-PPTS (Algs. 1, 2 and 6, Prop. B.3).
//!
//! `RefPts`, `RefPpts`, `RefTreePts` and `RefTreePpts` below are the
//! straightforward transcriptions of the paper: PTS scans the line for the
//! left-most bad buffer, PPTS rebuilds one `BTreeMap` of per-destination
//! summaries per node every round and scans the line once per destination,
//! and the tree planners walk up from every bad node with destinations in
//! reverse topological order. They use only the public API. The library
//! has one planner for all four, reading one class table kept across
//! rounds, which re-reads only the buffers that changed. Each protocol
//! runs beside its reference under random (ρ, σ)-bounded traffic, and the
//! two must apply the same moves, round for round, and report the same
//! `RunMetrics`.
//!
//! Without losses, every packet that leaves a buffer is one the planner
//! sent. The cases under a capacity limit (every drop policy) and under
//! node crashes and link outages change buffers as the planner did not
//! plan: a drop evicts a packet from anywhere in a buffer, a crash empties
//! one, and a blocked send leaves its packet in place. A planner cloned
//! after a run must plan a new run like a fresh one, even where a buffer
//! looks as it did when the first run ended.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use small_buffers::model::Probe;
use small_buffers::{
    Cadence, CapacityConfig, DestSpec, DirectedTree, DropPolicyKind, FaultEvent, FaultSpec,
    ForwardingPlan, Injection, NetworkState, NodeId, PacketId, Path, Pattern, Ppts, Protocol,
    PseudoPriority, Pts, RandomAdversary, Rate, Round, Simulation, Topology, TreePpts, TreePts,
};

/// Reference PTS (Alg. 1): the left-most bad buffer activates every
/// buffer up to the destination.
struct RefPts {
    dest: NodeId,
    eager: bool,
}

impl Protocol<Path> for RefPts {
    fn name(&self) -> String {
        "RefPTS".into()
    }

    fn plan(
        &mut self,
        _round: Round,
        _topo: &Path,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let w = self.dest.index();
        debug_assert!(
            (0..state.node_count()).all(|v| state
                .buffer(NodeId::new(v))
                .iter()
                .all(|p| p.dest() == self.dest)),
            "PTS requires single-destination traffic"
        );
        // Left-most bad buffer among 0..w.
        let bad = (0..w).find(|&i| state.occupancy(NodeId::new(i)) >= 2);
        match bad {
            Some(i) => {
                // Activate [i, w−1]; non-empty buffers forward their LIFO top.
                for v in i..w {
                    let v = NodeId::new(v);
                    if let Some(top) = state.lifo_top_where(v, |p| p.dest() == self.dest) {
                        plan.send(v, top.id());
                    }
                }
            }
            None if self.eager => {
                for v in 0..w {
                    let v = NodeId::new(v);
                    if let Some(top) = state.lifo_top_where(v, |p| p.dest() == self.dest) {
                        plan.send(v, top.id());
                    }
                }
            }
            None => {}
        }
    }
}

/// Per-pseudo-buffer summary assembled once per round.
#[derive(Debug, Clone, Copy)]
struct PseudoInfo {
    count: usize,
    fifo_head: PacketId,
    fifo_seq: u64,
    lifo_top: PacketId,
    lifo_seq: u64,
}

impl PseudoInfo {
    fn pick(&self, priority: PseudoPriority) -> PacketId {
        match priority {
            PseudoPriority::Lifo => self.lifo_top,
            PseudoPriority::Fifo => self.fifo_head,
        }
    }
}

/// Reference PPTS (Alg. 2): destinations right to left, each opening an
/// interval at its left-most bad pseudo-buffer left of every earlier one.
struct RefPpts {
    priority: PseudoPriority,
    eager: bool,
}

impl RefPpts {
    /// Builds the per-node virtual-output-queue summaries.
    fn pseudo_buffers(state: &NetworkState) -> Vec<BTreeMap<NodeId, PseudoInfo>> {
        let n = state.node_count();
        let mut out: Vec<BTreeMap<NodeId, PseudoInfo>> = vec![BTreeMap::new(); n];
        for (v, pseudo) in out.iter_mut().enumerate() {
            let node = NodeId::new(v);
            for sp in state.buffer(node) {
                let entry = pseudo.entry(sp.dest());
                match entry {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(PseudoInfo {
                            count: 1,
                            fifo_head: sp.id(),
                            fifo_seq: sp.seq(),
                            lifo_top: sp.id(),
                            lifo_seq: sp.seq(),
                        });
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        let info = slot.get_mut();
                        info.count += 1;
                        if sp.seq() < info.fifo_seq {
                            info.fifo_seq = sp.seq();
                            info.fifo_head = sp.id();
                        }
                        if sp.seq() > info.lifo_seq {
                            info.lifo_seq = sp.seq();
                            info.lifo_top = sp.id();
                        }
                    }
                }
            }
        }
        out
    }
}

impl Protocol<Path> for RefPpts {
    fn name(&self) -> String {
        "RefPPTS".into()
    }

    fn plan(
        &mut self,
        _round: Round,
        _topo: &Path,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let n = state.node_count();
        let pseudo = Self::pseudo_buffers(state);

        // Observed destination set W = {w_0 < w_1 < … < w_{d−1}}.
        let mut dests: Vec<NodeId> = pseudo
            .iter()
            .flat_map(|m| m.keys().copied())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        dests.sort();

        // Algorithm 2: k from d−1 downto 0, sentinel i = n.
        let mut right = n; // exclusive frontier of previously claimed nodes
        for &w in dests.iter().rev() {
            // Left-most bad k-pseudo-buffer strictly left of `right`
            // (packets destined w can only sit at nodes < w anyway).
            let scan_end = right.min(w.index());
            let bad =
                (0..scan_end).find(|&i| pseudo[i].get(&w).is_some_and(|info| info.count >= 2));
            let Some(ik) = bad else { continue };
            // Activate k-pseudo-buffers on [i_k, min(right−1, w−1)].
            let hi = (right - 1).min(w.index() - 1);
            for (i, pb) in pseudo.iter().enumerate().take(hi + 1).skip(ik) {
                if let Some(info) = pb.get(&w) {
                    if info.count >= 1 {
                        plan.send(NodeId::new(i), info.pick(self.priority));
                    }
                }
            }
            right = ik;
        }

        if self.eager {
            for v in 0..n {
                let node = NodeId::new(v);
                if !plan.is_active(node) && state.occupancy(node) > 0 {
                    let pick = match self.priority {
                        PseudoPriority::Lifo => state.lifo_top_where(node, |_| true),
                        PseudoPriority::Fifo => state.fifo_head_where(node, |_| true),
                    };
                    if let Some(sp) = pick {
                        plan.send(node, sp.id());
                    }
                }
            }
        }
    }
}

/// Reference Tree-PTS (Prop. B.3): the union of the paths from every bad
/// buffer to the destination.
struct RefTreePts {
    dest: NodeId,
}

impl Protocol<DirectedTree> for RefTreePts {
    fn name(&self) -> String {
        "RefTreePTS".into()
    }

    fn plan(
        &mut self,
        _round: Round,
        tree: &DirectedTree,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let n = state.node_count();
        debug_assert!(
            (0..n).all(|v| state
                .buffer(NodeId::new(v))
                .iter()
                .all(|p| p.dest() == self.dest)),
            "TreePTS requires single-destination traffic"
        );
        // Union of paths from bad nodes to the destination.
        let mut active = vec![false; n];
        for v in 0..n {
            let v = NodeId::new(v);
            if state.occupancy(v) >= 2 {
                let mut at = v;
                while at != self.dest && !active[at.index()] {
                    active[at.index()] = true;
                    match tree.parent(at) {
                        Some(p) => at = p,
                        None => break,
                    }
                }
            }
        }
        for (v, &is_active) in active.iter().enumerate() {
            if is_active {
                let v = NodeId::new(v);
                if let Some(top) = state.lifo_top_where(v, |p| p.dest() == self.dest) {
                    plan.send(v, top.id());
                }
            }
        }
    }
}

/// Sorts destinations topologically so that `w_i ≺ w_j ⇒ i < j`
/// (deeper destinations first), as required by Tree-PPTS (App. B.2).
fn topo_sort_destinations(tree: &DirectedTree, dests: &BTreeSet<NodeId>) -> Vec<NodeId> {
    let mut sorted: Vec<NodeId> = dests.iter().copied().collect();
    // Deeper nodes are ≺-smaller; stable sort keeps NodeId order within
    // a depth level, which is deterministic.
    sorted.sort_by(|a, b| {
        tree.depth(*b)
            .cmp(&tree.depth(*a))
            .then_with(|| a.index().cmp(&b.index()))
    });
    sorted
}

/// Reference Tree-PPTS (Alg. 6): destinations root-most first, each
/// claiming the paths from its bad pseudo-buffers that no earlier one
/// claimed.
struct RefTreePpts;

impl Protocol<DirectedTree> for RefTreePpts {
    fn name(&self) -> String {
        "RefTreePPTS".into()
    }

    fn plan(
        &mut self,
        _round: Round,
        tree: &DirectedTree,
        state: &NetworkState,
        plan: &mut ForwardingPlan,
    ) {
        let n = state.node_count();

        // Per-node per-destination (count, lifo top) summaries.
        let mut counts: Vec<BTreeMap<NodeId, (usize, PacketId, u64)>> = vec![BTreeMap::new(); n];
        let mut dest_set = std::collections::BTreeSet::new();
        for (v, count_map) in counts.iter_mut().enumerate() {
            for sp in state.buffer(NodeId::new(v)) {
                dest_set.insert(sp.dest());
                let e = count_map.entry(sp.dest()).or_insert((0, sp.id(), sp.seq()));
                e.0 += 1;
                if sp.seq() >= e.2 {
                    e.1 = sp.id();
                    e.2 = sp.seq();
                }
            }
        }

        // W topologically sorted with w_i ≺ w_j ⇒ i < j; process k = d−1
        // downto 0, i.e. reversed (root-most destinations first).
        let sorted = topo_sort_destinations(tree, &dest_set);
        let mut claimed = vec![false; n];
        for &w in sorted.iter().rev() {
            // Bad nodes for w.
            let bad: Vec<NodeId> = (0..n)
                .map(NodeId::new)
                .filter(|v| counts[v.index()].get(&w).is_some_and(|e| e.0 >= 2))
                .collect();
            // A_k = (∪_{u ∈ min(B_k)} Path(u, w)) \ A. The union over the
            // low-antichain equals the union over all bad nodes, so we walk
            // up from each bad node.
            for u in bad {
                let mut at = u;
                while at != w {
                    if claimed[at.index()] {
                        break;
                    }
                    claimed[at.index()] = true;
                    if let Some((count, top, _)) = counts[at.index()].get(&w) {
                        if *count >= 1 {
                            plan.send(at, *top);
                        }
                    }
                    match tree.parent(at) {
                        Some(p) => at = p,
                        None => break,
                    }
                }
            }
        }
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

/// A capacity of `cap` under every drop policy (the peak-to-sink
/// planners inject immediately, so the staging mode plays no part).
fn capacity_limits(cap: usize) -> impl Iterator<Item = Losses> {
    DropPolicyKind::ALL.into_iter().map(move |kind| Losses {
        capacity: Some((CapacityConfig::uniform(cap), kind)),
        faults: FaultSpec::default(),
    })
}

/// Node crashes and link outages inside the traffic's 120 rounds: node
/// `pick % n` crashes at round `at` for 12 rounds, node `pick / 3 % n`
/// crashes for good at `at + 40`, the first link out of a node from
/// `pick` on goes down from round `at / 2` to `at / 2 + 30`, and two
/// random links are down from round 20 to 60.
fn outages<T: Topology>(topo: &T, seed: u64, pick: usize, at: u64) -> Losses {
    let n = topo.node_count();
    let (from, to) = (0..n)
        .map(|k| NodeId::new((pick + k) % n))
        .find_map(|v| Some((v.index(), topo.out_neighbor(v, 0)?.index())))
        .expect("a topology of two or more nodes has a link");
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
            from,
            to,
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

/// Runs `protocol` on `pattern` past its horizon; the move log and the
/// `RunMetrics` JSON.
fn run<T: Topology, P: Protocol<T>>(topo: T, protocol: P, pattern: &Pattern) -> (Moves, String) {
    run_with(topo, protocol, pattern, &Losses::default())
}

/// [`run`] under `losses`.
fn run_with<T: Topology, P: Protocol<T>>(
    topo: T,
    protocol: P,
    pattern: &Pattern,
    losses: &Losses,
) -> (Moves, String) {
    let extra = 2 * topo.node_count() as u64;
    let mut sim = Simulation::new(topo, protocol, pattern)
        .expect("valid pattern")
        .with_faults(&losses.faults);
    if let Some((config, kind)) = &losses.capacity {
        sim = sim.with_capacity(config.clone(), *kind);
    }
    let mut moves = Moves::default();
    let metrics = sim
        .run_past_horizon_probed(extra, &mut moves)
        .expect("valid plan");
    let json = serde_json::to_string(metrics).expect("metrics serialise");
    (moves, json)
}

/// Runs a library planner and its reference side by side under `losses`:
/// the two must apply the same moves and report the same metrics.
fn assert_matches<T: Topology + Clone, P: Protocol<T>, R: Protocol<T>>(
    topo: &T,
    (planner, reference): (P, R),
    pattern: &Pattern,
    losses: &Losses,
) {
    let (moves, metrics) = run_with(topo.clone(), planner, pattern, losses);
    let (ref_moves, ref_metrics) = run_with(topo.clone(), reference, pattern, losses);
    assert_eq!(moves.0, ref_moves.0, "moves differ under {losses:?}");
    assert_eq!(metrics, ref_metrics, "metrics differ under {losses:?}");
}

fn cadence(bursty: bool) -> Cadence {
    if bursty {
        Cadence::Bursty { period: 7 }
    } else {
        Cadence::Smooth
    }
}

/// `(ρ, σ)`: ρ = num/den with `1 ≤ num ≤ den ≤ 4`, σ from 0 to 4.
fn traffic() -> impl Strategy<Value = (Rate, u64)> {
    let rate =
        (1u32..=4).prop_flat_map(|den| (1..=den).prop_map(move |num| Rate::new(num, den).unwrap()));
    (rate, 0u64..=4)
}

/// A random `(ρ, σ)`-bounded pattern over 120 rounds.
fn adversary(traffic: (Rate, u64), bursty: bool, seed: u64) -> RandomAdversary {
    RandomAdversary::new(traffic.0, traffic.1, 120)
        .cadence(cadence(bursty))
        .seed(seed)
}

/// Destinations for the multi-destination planners: any reachable node
/// (`spread == 0`), or `spread` destinations spread over the topology.
fn destinations(spread: usize) -> DestSpec {
    if spread == 0 {
        DestSpec::AnyReachable
    } else {
        DestSpec::Spread { count: spread }
    }
}

/// One of four tree families, sized by `size` from 2 up: a star, a full
/// binary tree, a caterpillar and a random tree.
fn tree(family: usize, size: usize, seed: u64) -> DirectedTree {
    match family {
        0 => DirectedTree::star(size),
        1 => DirectedTree::full_binary(1 + (size % 5) as u32),
        2 => DirectedTree::caterpillar(1 + size / 4, size % 4),
        _ => DirectedTree::random(size, seed),
    }
}

/// `(family, size, tree seed)` of a tree with at least two nodes.
fn trees() -> impl Strategy<Value = (usize, usize, u64)> {
    (0usize..4, 2usize..48, 0u64..1_000)
}

/// A node with at least one descendant, searching from `pick`.
fn internal_node(tree: &DirectedTree, pick: usize) -> usize {
    let n = tree.node_count();
    (0..n)
        .map(|k| (pick + k) % n)
        .find(|&v| !tree.is_leaf(NodeId::new(v)))
        .expect("a tree of two or more nodes has an internal node")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pts_planner_matches_the_reference(
        n in 2usize..64,
        pick in 0usize..64,
        traffic in traffic(),
        eager in proptest::bool::ANY,
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let w = 1 + pick % (n - 1);
        let topo = Path::new(n);
        let pattern = adversary(traffic, bursty, seed)
            .destinations(DestSpec::fixed([w]))
            .build_path(&topo);
        let pts = if eager {
            Pts::eager(NodeId::new(w))
        } else {
            Pts::new(NodeId::new(w))
        };
        let reference = RefPts { dest: NodeId::new(w), eager };
        let (moves, metrics) = run(topo, pts, &pattern);
        let (ref_moves, ref_metrics) = run(topo, reference, &pattern);
        prop_assert_eq!(moves.0, ref_moves.0);
        prop_assert_eq!(metrics, ref_metrics);
    }

    #[test]
    fn ppts_planner_matches_the_reference(
        n in 2usize..64,
        spread in 0usize..8,
        traffic in traffic(),
        variant in (proptest::bool::ANY, proptest::bool::ANY),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (fifo, eager) = variant;
        let priority = if fifo { PseudoPriority::Fifo } else { PseudoPriority::Lifo };
        let topo = Path::new(n);
        let pattern = adversary(traffic, bursty, seed)
            .destinations(destinations(spread.min(n - 1)))
            .build_path(&topo);
        let mut ppts = Ppts::new().priority(priority);
        if eager {
            ppts = ppts.eager();
        }
        let reference = RefPpts { priority, eager };
        let (moves, metrics) = run(topo, ppts, &pattern);
        let (ref_moves, ref_metrics) = run(topo, reference, &pattern);
        prop_assert_eq!(moves.0, ref_moves.0);
        prop_assert_eq!(metrics, ref_metrics);
    }

    #[test]
    fn tree_pts_planner_matches_the_reference(
        shape in trees(),
        pick in 0usize..64,
        traffic in traffic(),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (family, size, tree_seed) = shape;
        let topo = tree(family, size, tree_seed);
        let w = NodeId::new(internal_node(&topo, pick));
        let pattern = adversary(traffic, bursty, seed)
            .destinations(DestSpec::Fixed { dests: vec![w] })
            .build_tree(&topo);
        let (moves, metrics) = run(topo.clone(), TreePts::new(w), &pattern);
        let (ref_moves, ref_metrics) = run(topo, RefTreePts { dest: w }, &pattern);
        prop_assert_eq!(moves.0, ref_moves.0);
        prop_assert_eq!(metrics, ref_metrics);
    }

    #[test]
    fn tree_ppts_planner_matches_the_reference(
        shape in trees(),
        spread in 0usize..8,
        traffic in traffic(),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let (family, size, tree_seed) = shape;
        let topo = tree(family, size, tree_seed);
        let internal = (0..topo.node_count())
            .filter(|&v| !topo.is_leaf(NodeId::new(v)))
            .count();
        let pattern = adversary(traffic, bursty, seed)
            .destinations(destinations(spread.min(internal)))
            .build_tree(&topo);
        let (moves, metrics) = run(topo.clone(), TreePpts::new(), &pattern);
        let (ref_moves, ref_metrics) = run(topo, RefTreePpts, &pattern);
        prop_assert_eq!(moves.0, ref_moves.0);
        prop_assert_eq!(metrics, ref_metrics);
    }

    /// On a path, the low-antichain of bad pseudo-buffers is the left-most
    /// one, so Alg. 6 on `DirectedTree::path(n)` is Alg. 2 on `Path::new(n)`:
    /// the two must apply the same moves (only the protocol names differ).
    #[test]
    fn ppts_is_tree_ppts_on_a_path(
        n in 2usize..64,
        spread in 0usize..8,
        traffic in traffic(),
        bursty in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let pattern = adversary(traffic, bursty, seed)
            .destinations(destinations(spread.min(n - 1)))
            .build_path(&Path::new(n));
        let (moves, metrics) = run(Path::new(n), Ppts::new(), &pattern);
        let (tree_moves, tree_metrics) = run(DirectedTree::path(n), TreePpts::new(), &pattern);
        prop_assert_eq!(moves.0, tree_moves.0);
        prop_assert_eq!(metrics, tree_metrics);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn path_planners_match_the_references_under_losses(
        shape in (2usize..64, 0usize..64, 0usize..8),
        traffic in traffic(),
        variant in (proptest::bool::ANY, proptest::bool::ANY),
        losses in (1usize..=4, 0u64..1_000, 0u64..100),
        seed in 0u64..1_000,
    ) {
        let (n, pick, spread) = shape;
        let (cap, fault_seed, at) = losses;
        let (fifo, eager) = variant;
        let priority = if fifo { PseudoPriority::Fifo } else { PseudoPriority::Lifo };
        let topo = Path::new(n);
        let w = NodeId::new(1 + pick % (n - 1));
        let single = adversary(traffic, false, seed)
            .destinations(DestSpec::fixed([w.index()]))
            .build_path(&topo);
        let many = adversary(traffic, false, seed)
            .destinations(destinations(spread.min(n - 1)))
            .build_path(&topo);
        let pts = || {
            let pts = if eager { Pts::eager(w) } else { Pts::new(w) };
            (pts, RefPts { dest: w, eager })
        };
        let ppts = || {
            let ppts = Ppts::new().priority(priority);
            let ppts = if eager { ppts.eager() } else { ppts };
            (ppts, RefPpts { priority, eager })
        };
        let outage = outages(&topo, fault_seed, pick, at);
        for losses in capacity_limits(cap).chain([outage]) {
            assert_matches(&topo, pts(), &single, &losses);
            assert_matches(&topo, ppts(), &many, &losses);
        }
    }

    #[test]
    fn tree_planners_match_the_references_under_losses(
        shape in trees(),
        picks in (0usize..64, 0usize..8),
        traffic in traffic(),
        losses in (1usize..=4, 0u64..1_000, 0u64..100),
        seed in 0u64..1_000,
    ) {
        let (family, size, tree_seed) = shape;
        let (pick, spread) = picks;
        let (cap, fault_seed, at) = losses;
        let topo = tree(family, size, tree_seed);
        let w = NodeId::new(internal_node(&topo, pick));
        let single = adversary(traffic, false, seed)
            .destinations(DestSpec::Fixed { dests: vec![w] })
            .build_tree(&topo);
        let internal = (0..topo.node_count())
            .filter(|&v| !topo.is_leaf(NodeId::new(v)))
            .count();
        let many = adversary(traffic, false, seed)
            .destinations(destinations(spread.min(internal)))
            .build_tree(&topo);
        let outage = outages(&topo, fault_seed, pick, at);
        for losses in capacity_limits(cap).chain([outage]) {
            assert_matches(&topo, (TreePts::new(w), RefTreePts { dest: w }), &single, &losses);
            assert_matches(&topo, (TreePpts::new(), RefTreePpts), &many, &losses);
        }
    }
}

/// A planner cloned after a run starts its class table over in a new
/// run. Here node 0 ends the first run holding two packets with the
/// `seq`s 0 and 1 for two destinations, and the second run plans its
/// first round with two packets of those `seq`s for one destination at
/// node 0. A table that trusted the fingerprint would see nothing bad and
/// never send.
#[test]
fn a_reused_ppts_plans_like_a_fresh_one() {
    let first = Pattern::from_injections(vec![Injection::new(0, 0, 3), Injection::new(0, 0, 5)]);
    let mut sim = Simulation::new(Path::new(8), Ppts::new(), &first).unwrap();
    sim.run(10).unwrap();
    assert_eq!(
        sim.metrics().forwarded,
        0,
        "nothing is bad in the first run"
    );
    let left = sim.state().buffer(NodeId::new(0));
    let fingerprint = (left.len(), left.last().map(|sp| sp.seq()));
    let reused = sim.protocol().clone();

    let second = Pattern::from_injections(vec![Injection::new(0, 0, 5); 2]);
    let replay = |protocol: Ppts| {
        let mut sim = Simulation::new(Path::new(8), protocol, &second).unwrap();
        let mut replay = Replay::default();
        sim.run_past_horizon_probed(16, &mut replay).unwrap();
        (replay.first, replay.moves.0)
    };
    let (seen, fresh_moves) = replay(Ppts::new());
    assert_eq!(seen, Some(fingerprint), "node 0 must look as it did");
    let (_, reused_moves) = replay(reused);
    assert!(!fresh_moves.is_empty(), "the bad pseudo-buffer must move");
    assert_eq!(reused_moves, fresh_moves);
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
