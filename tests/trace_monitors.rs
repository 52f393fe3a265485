//! Cross-crate tests for tracing and online invariant monitoring: the
//! paper's proof invariant `B^t(i) ≤ ξ_t(i) + 1` is checked *during*
//! execution for PTS and PPTS under randomized bounded adversaries.

use small_buffers::{
    heatmap, patterns, BadnessExcessMonitor, DestSpec, FaultEvent, FaultSpec, Greedy, GreedyPolicy,
    Injection, Monitor, Monitors, NodeId, OccupancyMonitor, Path, Pattern, Ppts, Protocol, Pts,
    RandomAdversary, Rate, Simulation, Trace, Tracer, Violation,
};

/// Runs `protocol` `extra` rounds past `pattern`'s horizon under
/// `monitors`; returns the first violation they latch.
fn first_violation<P: Protocol<Path>>(
    topo: Path,
    protocol: P,
    pattern: &Pattern,
    extra: u64,
    monitors: Vec<Box<dyn Monitor<Path>>>,
) -> Option<Violation> {
    let mut probe = Monitors::new(monitors);
    let mut sim = Simulation::new(topo, protocol, pattern).unwrap();
    sim.run_past_horizon_probed(extra, &mut probe).unwrap();
    probe.violation().cloned()
}

#[test]
fn ppts_badness_invariant_under_random_adversaries() {
    let n = 32;
    let topo = Path::new(n);
    for seed in 0..6u64 {
        let rho = if seed % 2 == 0 {
            Rate::ONE
        } else {
            Rate::new(1, 2).unwrap()
        };
        let pattern = RandomAdversary::new(rho, 3, 250)
            .destinations(DestSpec::fixed(vec![n / 2 - 1, n - 1]))
            .seed(seed)
            .build_path(&topo);
        let monitor = BadnessExcessMonitor::new(n, &pattern, rho);
        if let Some(v) = first_violation(topo, Ppts::new(), &pattern, 150, vec![Box::new(monitor)])
        {
            panic!("seed {seed}: {v}");
        }
    }
}

#[test]
fn pts_badness_invariant_under_peak_chase() {
    let n = 24;
    let pattern = patterns::peak_chase(n, Rate::ONE, 3, 200);
    let monitor = BadnessExcessMonitor::new(n, &pattern, Rate::ONE);
    let violation = first_violation(
        Path::new(n),
        Pts::new(NodeId::new(n - 1)),
        &pattern,
        150,
        vec![Box::new(monitor)],
    );
    assert_eq!(violation, None, "Prop. 3.1 invariant");
}

#[test]
fn stacked_monitors_check_bound_and_invariant_together() {
    let n = 16;
    let topo = Path::new(n);
    let pattern = RandomAdversary::new(Rate::ONE, 2, 150)
        .destinations(DestSpec::fixed(vec![7, 15]))
        .seed(5)
        .build_path(&topo);
    let sigma = small_buffers::analyze(&topo, &pattern, Rate::ONE).tight_sigma;
    let occupancy = OccupancyMonitor::new((1 + 2 + sigma) as usize);
    let badness = BadnessExcessMonitor::new(n, &pattern, Rate::ONE);
    let violation = first_violation(
        topo,
        Ppts::new(),
        &pattern,
        100,
        vec![Box::new(occupancy), Box::new(badness)],
    );
    assert_eq!(
        violation, None,
        "both the conclusion and the proof invariant hold"
    );
}

#[test]
fn traced_run_agrees_with_engine_metrics_for_every_protocol() {
    let n = 20;
    let topo = Path::new(n);
    let pattern = RandomAdversary::new(Rate::new(2, 3).unwrap(), 2, 200)
        .destinations(DestSpec::AnyReachable)
        .seed(11)
        .build_path(&topo);

    for policy in GreedyPolicy::ALL {
        let mut sim = Simulation::new(topo, Greedy::new(policy), &pattern).unwrap();
        let mut tracer = Tracer::new(Protocol::<Path>::name(sim.protocol()));
        sim.run_past_horizon_probed(150, &mut tracer).unwrap();
        let trace = tracer.trace();
        let metrics = sim.metrics();
        assert_eq!(trace.peak() as usize, metrics.max_occupancy, "{policy:?}");
        assert_eq!(trace.total_forwards() as u64, metrics.forwarded);
        assert_eq!(trace.total_delivered() as u64, metrics.delivered);
    }
}

#[test]
fn trace_agrees_with_engine_metrics_under_link_faults() {
    // One packet 0 → 3 on a 4-node path; each schedule takes down one
    // link of its route for a few rounds. A send over a downed link is
    // not a move, so the trace must count only the hops the engine
    // applied: 3 forwards and 1 delivery.
    let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
    for (from, to, at, until, rounds) in [(1, 2, 1, 3, 6), (2, 3, 2, 5, 7)] {
        let faults = FaultSpec::new(0).with_event(FaultEvent::LinkDown {
            from,
            to,
            at,
            until: Some(until),
        });
        let mut sim = Simulation::new(Path::new(4), Greedy::new(GreedyPolicy::Fifo), &pattern)
            .unwrap()
            .with_faults(&faults);
        let mut tracer = Tracer::new("Greedy-FIFO");
        for _ in 0..rounds {
            sim.step_probed(&mut tracer).unwrap();
        }
        let (trace, metrics) = (tracer.trace(), sim.metrics());
        assert_eq!(
            metrics.delivered, 1,
            "link {from}->{to}: the packet arrives"
        );
        assert_eq!(
            trace.total_forwards() as u64,
            metrics.forwarded,
            "link {from}->{to}"
        );
        assert_eq!(
            trace.total_delivered() as u64,
            metrics.delivered,
            "link {from}->{to}"
        );
    }
}

#[test]
fn trace_serializes_and_replays_identically() {
    let topo = Path::new(12);
    let pattern = RandomAdversary::new(Rate::ONE, 1, 80)
        .destinations(DestSpec::fixed(vec![11]))
        .seed(3)
        .build_path(&topo);
    let run = || -> Trace {
        let mut sim = Simulation::new(topo, Pts::new(NodeId::new(11)), &pattern).unwrap();
        let mut tracer = Tracer::new(sim.protocol().name());
        sim.run_past_horizon_probed(60, &mut tracer).unwrap();
        tracer.into_trace()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "deterministic protocols give identical traces"
    );
    let json = serde_json::to_string(&first).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(first, back);
}

#[test]
fn heatmap_of_a_real_run_shows_the_wave() {
    // A sustained stream under PTS: the heatmap must show activity both at
    // the injection site (node 0) and near the sink.
    let n = 16;
    let pattern: small_buffers::Pattern = (0..60u64)
        .map(|t| small_buffers::Injection::new(t, 0, n - 1))
        .collect();
    let mut sim = Simulation::new(Path::new(n), Pts::new(NodeId::new(n - 1)), &pattern).unwrap();
    let mut tracer = Tracer::new(sim.protocol().name());
    sim.run_past_horizon_probed(30, &mut tracer).unwrap();
    let trace = tracer.trace();
    let art = heatmap(trace, 70, n);
    assert!(art.contains("PTS"));
    // Node 0 row is non-blank (packets queue at the source).
    let node0_row = art.lines().nth(1).expect("row for node 0");
    assert!(
        node0_row.split('|').nth(1).unwrap().trim() != "",
        "node 0 must show occupancy:\n{art}"
    );
}

#[test]
fn half_speed_pts_violates_the_badness_invariant() {
    // Failure injection: a PTS that only forwards on even rounds cannot
    // keep up with a rate-1 stream — badness at node 0 grows while the
    // excess stays bounded by σ, so `B ≤ ξ + 1` must eventually fail and
    // the monitor must catch it.
    use small_buffers::{ForwardingPlan, NetworkState, Protocol, Round};

    struct HalfSpeed(Pts);
    impl Protocol<Path> for HalfSpeed {
        fn name(&self) -> String {
            "half-speed-pts".into()
        }
        fn plan(
            &mut self,
            round: Round,
            topo: &Path,
            state: &NetworkState,
            plan: &mut ForwardingPlan,
        ) {
            if round.value() % 2 == 0 {
                self.0.plan(round, topo, state, plan);
            }
        }
    }

    let n = 8;
    let pattern: small_buffers::Pattern = (0..24u64)
        .map(|t| small_buffers::Injection::new(t, 0, n - 1))
        .collect();
    let monitor = BadnessExcessMonitor::new(n, &pattern, Rate::ONE);
    let violation = first_violation(
        Path::new(n),
        HalfSpeed(Pts::new(NodeId::new(n - 1))),
        &pattern,
        30,
        vec![Box::new(monitor)],
    )
    .expect("a half-speed server must fall behind a rate-1 stream");
    assert!(violation.message.contains("B(") && violation.message.contains("exceeds"));
}
