//! Cross-crate engine invariants: the model engine running the real
//! protocols from `aqt-core` under adversaries from `aqt-adversary`.
//!
//! These are the "physics" of the AQT model (§2): packet conservation,
//! unit link capacity, one hop per round, delivery exactly at the
//! destination.

use small_buffers::{
    patterns, DestSpec, DirectedTree, Greedy, GreedyPolicy, Hpts, Injection, NodeId, Path, Pattern,
    Ppts, Protocol, Pts, RandomAdversary, Rate, Simulation, Topology, TreePpts,
};

/// Steps the simulation and checks conservation and capacity after every
/// single round.
fn run_checked<T: Topology + Clone, P: Protocol<T>>(
    topo: T,
    protocol: P,
    pattern: &Pattern,
    rounds: u64,
) -> Simulation<T, P> {
    let n = topo.node_count();
    let mut sim = Simulation::new(topo, protocol, pattern).expect("valid pattern");
    for _ in 0..rounds {
        let outcome = sim.step().expect("valid plan");
        // Unit capacity: each of the n nodes has one outgoing link and may
        // forward at most one packet.
        assert!(outcome.forwarded <= n, "more sends than nodes");
        // Conservation: injected = delivered + buffered + staged.
        let m = sim.metrics();
        assert_eq!(
            m.injected,
            m.delivered + sim.state().total_buffered() as u64 + sim.state().staged_len() as u64,
            "conservation violated at {:?}",
            outcome.round
        );
        assert_eq!(m.delivered, m.latency.delivered);
        // Every buffered packet carries the hop its buffer routes it by.
        for v in (0..n).map(NodeId::new) {
            for sp in sim.state().buffer(v) {
                assert_eq!(
                    sp.next_hop(),
                    sim.topology().next_hop(v, sp.dest()),
                    "stored hop of {} at {v} in {:?}",
                    sp.id(),
                    outcome.round
                );
            }
        }
    }
    sim
}

#[test]
fn conservation_holds_for_every_path_protocol() {
    let n = 32;
    let topo = Path::new(n);
    let rho = Rate::new(1, 2).unwrap();
    let pattern = RandomAdversary::new(rho, 3, 300)
        .destinations(DestSpec::AnyReachable)
        .seed(9)
        .build_path(&topo);

    run_checked(topo, Ppts::new(), &pattern, 500);
    run_checked(topo, Ppts::new().eager(), &pattern, 500);
    run_checked(topo, Greedy::new(GreedyPolicy::Fifo), &pattern, 500);
    run_checked(
        topo,
        Greedy::new(GreedyPolicy::LongestInSystem),
        &pattern,
        500,
    );
    run_checked(topo, Hpts::for_line(n, 2).unwrap(), &pattern, 500);
}

#[test]
fn conservation_holds_on_trees() {
    let tree = DirectedTree::random(40, 4);
    let rho = Rate::new(1, 2).unwrap();
    let pattern = RandomAdversary::new(rho, 2, 200)
        .destinations(DestSpec::AnyReachable)
        .seed(5)
        .build_tree(&tree);
    run_checked(tree.clone(), TreePpts::new(), &pattern, 400);
    run_checked(tree, Greedy::new(GreedyPolicy::Fifo), &pattern, 400);
}

#[test]
fn greedy_fifo_drains_after_horizon() {
    let topo = Path::new(16);
    let pattern = RandomAdversary::new(Rate::new(3, 4).unwrap(), 2, 100)
        .destinations(DestSpec::AnyReachable)
        .seed(1)
        .build_path(&topo);
    let total = pattern.len() as u64;
    let mut sim = Simulation::new(topo, Greedy::new(GreedyPolicy::Fifo), &pattern).unwrap();
    sim.run_past_horizon(200).unwrap();
    assert!(
        sim.is_drained(),
        "greedy must eventually deliver everything"
    );
    assert_eq!(sim.metrics().delivered, total);
}

#[test]
fn eager_pts_drains_while_plain_pts_may_idle() {
    // A single packet is never "bad", so plain PTS never forwards it; the
    // eager variant drains it. Both respect the space bound.
    let topo = Path::new(8);
    let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 7)]);

    let mut plain = Simulation::new(topo, Pts::new(NodeId::new(7)), &pattern).unwrap();
    plain.run(30).unwrap();
    assert_eq!(
        plain.metrics().delivered,
        0,
        "plain PTS leaves the lone packet"
    );
    assert_eq!(plain.state().occupancy(NodeId::new(0)), 1);

    let mut eager = Simulation::new(topo, Pts::eager(NodeId::new(7)), &pattern).unwrap();
    eager.run_past_horizon(30).unwrap();
    assert!(eager.is_drained(), "eager PTS must deliver the lone packet");
}

#[test]
fn packets_advance_at_most_one_hop_per_round() {
    // Track a single packet's position under greedy forwarding.
    let topo = Path::new(10);
    let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 9)]);
    let mut sim = Simulation::new(topo, Greedy::new(GreedyPolicy::Fifo), &pattern).unwrap();
    let mut last_pos = 0usize;
    for _ in 0..9 {
        sim.step().unwrap();
        let pos = (0..10)
            .find(|&v| sim.state().occupancy(NodeId::new(v)) > 0)
            .unwrap_or(9);
        assert!(
            pos <= last_pos + 1,
            "packet teleported from {last_pos} to {pos}"
        );
        last_pos = pos;
    }
    assert!(sim.is_drained());
}

#[test]
fn staged_packets_are_counted_not_buffered() {
    let n = 16usize;
    let l = 4u32;
    let topo = Path::new(n);
    let pattern = patterns::burst(1, 0, n - 1, 5);
    let mut sim = Simulation::new(topo, Hpts::for_line(n, l).unwrap(), &pattern).unwrap();
    // Rounds 0..4: the burst arrives at round 1 and is staged, not placed.
    for _ in 0..4 {
        sim.step().unwrap();
    }
    assert_eq!(sim.state().staged_len(), 5);
    assert_eq!(sim.state().total_buffered(), 0);
    assert_eq!(sim.metrics().max_staged, 5);
    // Round 4 ≡ 0 (mod 4): acceptance.
    sim.step().unwrap();
    assert_eq!(sim.state().staged_len(), 0);
    assert_eq!(sim.state().total_buffered(), 5);
}

#[test]
fn run_past_horizon_with_empty_pattern_is_a_noop() {
    let topo = Path::new(4);
    let pattern = Pattern::new();
    let mut sim = Simulation::new(topo, Greedy::new(GreedyPolicy::Fifo), &pattern).unwrap();
    let metrics = sim.run_past_horizon(5).unwrap();
    assert_eq!(metrics.injected, 0);
    assert_eq!(metrics.max_occupancy, 0);
    assert!(sim.is_drained());
}

#[test]
fn per_node_peaks_bound_global_peak() {
    let topo = Path::new(24);
    let pattern = RandomAdversary::new(Rate::new(1, 2).unwrap(), 4, 200)
        .destinations(DestSpec::fixed(vec![11, 23]))
        .seed(2)
        .build_path(&topo);
    let mut sim = Simulation::new(topo, Ppts::new(), &pattern).unwrap();
    sim.run_past_horizon(100).unwrap();
    let m = sim.metrics();
    assert_eq!(
        m.max_occupancy,
        m.per_node_peak.iter().copied().max().unwrap_or(0)
    );
    if let Some((v, _)) = m.max_occupancy_at {
        assert_eq!(m.per_node_peak[v.index()], m.max_occupancy);
    }
}
