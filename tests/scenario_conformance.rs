//! The scenario differential suite: the declarative layer is a
//! **conservative replacement** for hand-wired runs.
//!
//! For every cell of the protocol × topology × workload × capacity
//! matrix, a [`Scenario`] describing the run must produce output
//! *byte-identical* to the generic runner invocation it replaces:
//!
//! * the [`RunSummary`] returned by [`run_scenario`] equals the one
//!   distilled ([`RunSummary::from_metrics`]) from a [`Simulation`] wired
//!   by hand on the concrete topology, compared as serialized JSON;
//! * the full [`RunMetrics`] JSON and the per-node cumulative drop
//!   counters of a simulation assembled from the built specs
//!   ([`TopologySpec::build`] → [`ProtocolSpec::build`] →
//!   [`SourceSpec::build`]) equal those of the hand-wired simulation.
//!
//! Each check drives both stacks end-to-end, so any divergence in
//! `AnyTopology` dispatch, protocol adaptation, source construction or
//! capacity plumbing shows up as a byte diff here.

use small_buffers::{
    run_scenario, Batched, Cadence, CapacityConfig, CapacitySpec, Dag, DagGreedy, DestSpec,
    DirectedTree, DropPolicyKind, Greedy, GreedyPolicy, Injection, InjectionSource, NodeId, Path,
    Pattern, Ppts, Protocol, ProtocolSpec, Pts, RandomAdversary, Rate, RunSummary, Scenario,
    Simulation, SourceSpec, StagingMode, Topology, TopologySpec, TreePpts, TreePts, TreeSpec,
};

const N: usize = 12;
const EXTRA: u64 = 40;

/// Serialized `(summary, metrics)` of a run; the metrics hold the
/// per-node drops.
type Artifacts = (String, String);

/// The artifacts of a hand-wired run.
fn artifacts<T: Topology, P: Protocol<T>, S: InjectionSource>(
    topo: T,
    protocol: P,
    source: S,
    capacity: Option<&CapacitySpec>,
) -> Artifacts {
    let mut sim = Simulation::from_source(topo, protocol, source);
    if let Some(cap) = capacity {
        sim = sim.with_capacity(cap.config.clone(), cap.policy);
    }
    sim.run_past_horizon(EXTRA).expect("valid run");
    let summary = RunSummary::from_metrics(sim.protocol().name(), sim.metrics());
    let summary = serde_json::to_string(&summary).expect("summary serializes");
    let metrics = serde_json::to_string(sim.metrics()).expect("metrics serialize");
    (summary, metrics)
}

/// The artifacts of the same run assembled from the scenario's built
/// specs — the exact stack [`run_scenario`] executes.
fn scenario_artifacts(scenario: &Scenario) -> Artifacts {
    let topo = scenario.topology.build().expect("topology builds");
    let protocol = scenario.protocol.build(&topo).expect("protocol builds");
    let source = scenario.source.build(&topo).expect("source builds");
    artifacts(topo, protocol, source, scenario.capacity.as_ref())
}

/// Asserts the scenario reproduces the hand-wired run's summary and
/// metrics, byte for byte.
fn assert_equivalent(label: &str, hand: Artifacts, scenario: &Scenario) {
    let scenario_summary = run_scenario(scenario).expect("scenario runs");
    assert_eq!(
        hand.0,
        serde_json::to_string(&scenario_summary).unwrap(),
        "{label}: RunSummary JSON diverged"
    );
    let (_, metrics) = scenario_artifacts(scenario);
    assert_eq!(hand.1, metrics, "{label}: RunMetrics JSON diverged");
}

fn single_dest_pattern() -> Pattern {
    let mut injections = vec![Injection::new(0, 0, N - 1); 5];
    injections.extend((0..20u64).map(|t| Injection::new(t + 1, 0, N - 1)));
    Pattern::from_injections(injections)
}

fn multi_dest_pattern() -> Pattern {
    let mut injections = Vec::new();
    for t in 0..15u64 {
        injections.push(Injection::new(t, 0, (3 + (t as usize % 3) * 4).min(N - 1)));
        if t % 4 == 0 {
            injections.push(Injection::new(t, 2, N - 1));
        }
    }
    Pattern::from_injections(injections)
}

fn pattern_spec(pattern: &Pattern) -> SourceSpec {
    SourceSpec::Pattern {
        injections: pattern.injections().to_vec(),
    }
}

fn scenario(
    topology: TopologySpec,
    protocol: ProtocolSpec,
    source: SourceSpec,
    capacity: Option<CapacitySpec>,
) -> Scenario {
    Scenario {
        name: None,
        topology,
        protocol,
        source,
        extra: EXTRA,
        capacity,
        telemetry: None,
        faults: None,
    }
}

/// A pattern run on a path ≡ scenario, across the whole path protocol registry.
#[test]
fn path_pattern_runs_are_byte_identical() {
    let single = single_dest_pattern();
    let multi = multi_dest_pattern();
    type MkPath = Box<dyn Fn() -> Box<dyn Protocol<Path>>>;
    let cases: Vec<(&str, MkPath, ProtocolSpec, &Pattern)> = vec![
        (
            "pts",
            Box::new(|| Box::new(Pts::new(NodeId::new(N - 1)))),
            ProtocolSpec::Pts {
                dest: None,
                eager: false,
            },
            &single,
        ),
        (
            "pts-eager",
            Box::new(|| Box::new(Pts::eager(NodeId::new(N - 1)))),
            ProtocolSpec::Pts {
                dest: None,
                eager: true,
            },
            &single,
        ),
        (
            "ppts",
            Box::new(|| Box::new(Ppts::new())),
            ProtocolSpec::Ppts { eager: false },
            &multi,
        ),
        (
            "ppts-eager",
            Box::new(|| Box::new(Ppts::new().eager())),
            ProtocolSpec::Ppts { eager: true },
            &multi,
        ),
        (
            "hpts",
            Box::new(|| Box::new(small_buffers::Hpts::for_line(N, 2).unwrap())),
            ProtocolSpec::Hpts { levels: 2 },
            &single,
        ),
        (
            "batched-greedy",
            Box::new(|| Box::new(Batched::new(Greedy::new(GreedyPolicy::Fifo), 3))),
            ProtocolSpec::Batched {
                inner: Box::new(ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                }),
                phase: 3,
            },
            &multi,
        ),
    ];
    for (label, mk, spec, pattern) in cases {
        let hand = artifacts(
            Path::new(N),
            mk(),
            small_buffers::PatternSource::new(pattern),
            None,
        );
        let s = scenario(
            TopologySpec::Path { n: N },
            spec,
            pattern_spec(pattern),
            None,
        );
        assert_equivalent(label, hand, &s);
    }
    // Every greedy policy, on both the node-greedy and per-link registries.
    for policy in GreedyPolicy::ALL {
        let hand = artifacts(
            Path::new(N),
            Greedy::new(policy),
            small_buffers::PatternSource::new(&multi),
            None,
        );
        let s = scenario(
            TopologySpec::Path { n: N },
            ProtocolSpec::Greedy { policy },
            pattern_spec(&multi),
            None,
        );
        assert_equivalent(&format!("greedy-{policy:?}"), hand, &s);

        let hand = artifacts(
            Path::new(N),
            DagGreedy::new(policy),
            small_buffers::PatternSource::new(&multi),
            None,
        );
        let s = scenario(
            TopologySpec::Path { n: N },
            ProtocolSpec::DagGreedy { policy },
            pattern_spec(&multi),
            None,
        );
        assert_equivalent(&format!("dag-greedy-{policy:?}"), hand, &s);
    }
}

/// A streaming run on a path ≡ scenario for streaming generator sources.
#[test]
fn path_stream_runs_are_byte_identical() {
    let rate = Rate::new(2, 3).unwrap();
    // A seeded random bounded adversary…
    let adversary = RandomAdversary::new(rate, 2, 50)
        .destinations(DestSpec::Spread { count: 3 })
        .cadence(Cadence::Bursty { period: 7 })
        .seed(11);
    let hand = artifacts(
        Path::new(N),
        Greedy::new(GreedyPolicy::LongestInSystem),
        adversary.stream_path(&Path::new(N)),
        None,
    );
    let s = scenario(
        TopologySpec::Path { n: N },
        ProtocolSpec::Greedy {
            policy: GreedyPolicy::LongestInSystem,
        },
        SourceSpec::Random {
            rate,
            sigma: 2,
            rounds: 50,
            dests: DestSpec::Spread { count: 3 },
            cadence: Cadence::Bursty { period: 7 },
            seed: 11,
            attempts: 8,
        },
        None,
    );
    assert_equivalent("random-path-stream", hand, &s);

    // …and a shaped overload stream (unknown horizon).
    let mk_shaped = || {
        small_buffers::ShapingSource::new(
            Path::new(N),
            small_buffers::FnSource::new(30, |t, out| {
                out.extend(std::iter::repeat_n(Injection::new(t, 0, N - 1), 3));
            }),
            Rate::ONE,
            2,
        )
    };
    let hand = artifacts(
        Path::new(N),
        Greedy::new(GreedyPolicy::Fifo),
        mk_shaped(),
        None,
    );
    let s = scenario(
        TopologySpec::Path { n: N },
        ProtocolSpec::Greedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::Shaped {
            inner: Box::new(SourceSpec::Repeat {
                source: 0,
                dest: N - 1,
                per_round: 3,
                rounds: 30,
            }),
            rate: Rate::ONE,
            sigma: 2,
        },
        None,
    );
    assert_equivalent("shaped-path-stream", hand, &s);
}

/// A capacity-bounded run on a path ≡ scenario across drop policies and staging modes.
#[test]
fn path_capacity_runs_are_byte_identical() {
    let overload = || {
        small_buffers::FnSource::new(20, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, N - 1), 3));
        })
    };
    let overload_spec = SourceSpec::Repeat {
        source: 0,
        dest: N - 1,
        per_round: 3,
        rounds: 20,
    };
    for staging in [StagingMode::Exempt, StagingMode::Counted] {
        for kind in DropPolicyKind::ALL {
            for cap in [2usize, 5] {
                let config = CapacityConfig::uniform(cap).staging(staging);
                // Batched greedy exercises the staging machinery.
                let cap_spec = CapacitySpec {
                    config: config.clone(),
                    policy: kind,
                };
                let hand = artifacts(
                    Path::new(N),
                    Batched::new(Greedy::new(GreedyPolicy::Fifo), 3),
                    overload(),
                    Some(&cap_spec),
                );
                let s = scenario(
                    TopologySpec::Path { n: N },
                    ProtocolSpec::Batched {
                        inner: Box::new(ProtocolSpec::Greedy {
                            policy: GreedyPolicy::Fifo,
                        }),
                        phase: 3,
                    },
                    overload_spec.clone(),
                    Some(cap_spec),
                );
                assert_equivalent(&format!("capacity-{staging:?}-{kind:?}-cap{cap}"), hand, &s);
            }
        }
    }
}

/// Pattern, streaming and capacity-bounded runs on trees ≡ scenario on
/// every tree family.
#[test]
fn tree_runs_are_byte_identical() {
    let trees: Vec<(&str, DirectedTree, TreeSpec)> = vec![
        ("star", DirectedTree::star(5), TreeSpec::Star { leaves: 5 }),
        (
            "caterpillar",
            DirectedTree::caterpillar(4, 2),
            TreeSpec::Caterpillar { spine: 4, legs: 2 },
        ),
        (
            "random",
            DirectedTree::random(14, 9),
            TreeSpec::Random { n: 14, seed: 9 },
        ),
    ];
    for (label, tree, tree_spec) in trees {
        let root = tree.root();
        let gather: Pattern = (0..tree.node_count())
            .filter(|&v| NodeId::new(v) != root)
            .map(|v| Injection::new((v % 5) as u64, v, root.index()))
            .collect();
        let topo_spec = TopologySpec::Tree(tree_spec);

        // Pattern-based, TreePts and TreePpts.
        let hand = artifacts(
            tree.clone(),
            TreePts::new(root),
            small_buffers::PatternSource::new(&gather),
            None,
        );
        let s = scenario(
            topo_spec.clone(),
            ProtocolSpec::TreePts { dest: None },
            pattern_spec(&gather),
            None,
        );
        assert_equivalent(&format!("{label}-tree-pts"), hand, &s);

        let hand = artifacts(
            tree.clone(),
            TreePpts::new(),
            small_buffers::PatternSource::new(&gather),
            None,
        );
        let s = scenario(
            topo_spec.clone(),
            ProtocolSpec::TreePpts,
            pattern_spec(&gather),
            None,
        );
        assert_equivalent(&format!("{label}-tree-ppts"), hand, &s);

        // Streaming random adversary.
        let rate = Rate::new(1, 2).unwrap();
        let adversary = RandomAdversary::new(rate, 2, 40).seed(3);
        let hand = artifacts(
            tree.clone(),
            Greedy::new(GreedyPolicy::Fifo),
            adversary.stream_tree(&tree),
            None,
        );
        let s = scenario(
            topo_spec.clone(),
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            SourceSpec::Random {
                rate,
                sigma: 2,
                rounds: 40,
                dests: DestSpec::AnyReachable,
                cadence: Cadence::Smooth,
                seed: 3,
                attempts: 8,
            },
            None,
        );
        assert_equivalent(&format!("{label}-tree-stream"), hand, &s);

        // Capacity-bounded.
        let config = CapacityConfig::uniform(2);
        let cap_spec = CapacitySpec {
            config,
            policy: DropPolicyKind::Head,
        };
        let hand = artifacts(
            tree.clone(),
            Greedy::new(GreedyPolicy::Fifo),
            small_buffers::PatternSource::new(&gather),
            Some(&cap_spec),
        );
        let s = scenario(
            topo_spec,
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
            pattern_spec(&gather),
            Some(cap_spec),
        );
        assert_equivalent(&format!("{label}-tree-capacity"), hand, &s);
    }
}

/// Pattern, streaming and capacity-bounded runs on DAGs ≡ scenario on
/// every DAG family.
#[test]
fn dag_runs_are_byte_identical() {
    let dags: Vec<(&str, Dag, TopologySpec)> = vec![
        (
            "grid",
            Dag::grid(3, 4),
            TopologySpec::Grid { rows: 3, cols: 4 },
        ),
        (
            "butterfly",
            Dag::butterfly(2),
            TopologySpec::Butterfly { k: 2 },
        ),
        (
            "diamond",
            Dag::diamond(3),
            TopologySpec::Diamond { width: 3 },
        ),
        (
            "random-dag",
            Dag::random_dag(10, 0.3, 7),
            TopologySpec::RandomDag {
                n: 10,
                density: 0.3,
                seed: 7,
            },
        ),
    ];
    for (label, dag, topo_spec) in dags {
        let sink = dag.node_count() - 1;
        let pattern: Pattern = (0..8u64).map(|t| Injection::new(t, 0, sink)).collect();
        for policy in [GreedyPolicy::Fifo, GreedyPolicy::NearestToGo] {
            let hand = artifacts(
                dag.clone(),
                DagGreedy::new(policy),
                small_buffers::PatternSource::new(&pattern),
                None,
            );
            let s = scenario(
                topo_spec.clone(),
                ProtocolSpec::DagGreedy { policy },
                pattern_spec(&pattern),
                None,
            );
            assert_equivalent(&format!("{label}-{policy:?}"), hand, &s);
        }

        // Capacity-bounded with drops.
        let burst: Pattern = Pattern::from_injections(vec![Injection::new(0, 0, sink); 6]);
        let config = CapacityConfig::uniform(2);
        let cap_spec = CapacitySpec {
            config,
            policy: DropPolicyKind::Tail,
        };
        let hand = artifacts(
            dag.clone(),
            DagGreedy::fifo(),
            small_buffers::PatternSource::new(&burst),
            Some(&cap_spec),
        );
        let s = scenario(
            topo_spec.clone(),
            ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            },
            pattern_spec(&burst),
            Some(cap_spec),
        );
        assert_equivalent(&format!("{label}-capacity"), hand, &s);
    }

    // Streaming grid loads on a mesh.
    let mesh = Dag::grid(4, 4);
    let hand = artifacts(
        mesh,
        DagGreedy::fifo(),
        small_buffers::grid::all_floods_source(4, 4, 15),
        None,
    );
    let s = scenario(
        TopologySpec::Grid { rows: 4, cols: 4 },
        ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::AllFloods { rounds: 15 },
        None,
    );
    assert_equivalent("mesh-floods-stream", hand, &s);
}
