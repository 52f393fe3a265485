//! Serialization round-trips for the data-structure types (C-SERDE): a
//! pattern or a metrics report written to JSON must read back identically,
//! so experiment artifacts can be archived and replayed.

use small_buffers::{
    analyze, BoundednessReport, CapacityConfig, Dag, DagError, DagGreedy, DestSpec, DirectedTree,
    DropPolicyKind, Injection, NodeId, Path, Pattern, Ppts, RandomAdversary, Rate, RunMetrics,
    Simulation, StagingMode, Topology, TreeError,
};

#[test]
fn pattern_roundtrips_through_json() {
    let topo = Path::new(32);
    let pattern = RandomAdversary::new(Rate::new(2, 3).unwrap(), 3, 100)
        .destinations(DestSpec::AnyReachable)
        .seed(4)
        .build_path(&topo);
    let json = serde_json::to_string(&pattern).unwrap();
    let back: Pattern = serde_json::from_str(&json).unwrap();
    assert_eq!(pattern, back);
}

#[test]
fn replayed_pattern_reproduces_the_run_exactly() {
    // Serialize a pattern, deserialize, re-run: metrics must be identical
    // (protocols are deterministic functions of the configuration).
    let topo = Path::new(24);
    let pattern = RandomAdversary::new(Rate::new(1, 2).unwrap(), 2, 150)
        .destinations(DestSpec::fixed(vec![11, 23]))
        .seed(99)
        .build_path(&topo);
    let replay: Pattern = serde_json::from_str(&serde_json::to_string(&pattern).unwrap()).unwrap();

    let run = |p: &Pattern| -> RunMetrics {
        let mut sim = Simulation::new(topo, Ppts::new(), p).unwrap();
        sim.run_past_horizon(100).unwrap();
        sim.metrics().clone()
    };
    assert_eq!(run(&pattern), run(&replay));
}

#[test]
fn metrics_roundtrip_through_json() {
    let topo = Path::new(16);
    let pattern = Pattern::from_injections(vec![
        Injection::new(0, 0, 15),
        Injection::new(0, 3, 9),
        Injection::new(4, 2, 7),
    ]);
    let mut sim = Simulation::new(topo, Ppts::new().eager(), &pattern)
        .unwrap()
        .record_series();
    sim.run_past_horizon(50).unwrap();
    let metrics = sim.metrics();
    let json = serde_json::to_string(metrics).unwrap();
    let back: RunMetrics = serde_json::from_str(&json).unwrap();
    assert_eq!(*metrics, back);
    assert!(back.series.is_some(), "series must survive the round-trip");
}

#[test]
fn boundedness_report_roundtrips() {
    let topo = Path::new(8);
    let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 7); 4]);
    let report = analyze(&topo, &pattern, Rate::ONE);
    let back: BoundednessReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(report, back);
    assert_eq!(back.tight_sigma, 3);
}

#[test]
fn tree_topology_roundtrips() {
    let tree = DirectedTree::caterpillar(10, 3);
    let back: DirectedTree = serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
    assert_eq!(tree, back);
}

#[test]
fn dag_topology_roundtrips() {
    for dag in [
        Dag::grid(3, 4),
        Dag::butterfly(2),
        Dag::diamond(3),
        Dag::random_dag(16, 0.3, 9),
        Dag::from(Path::new(6)),
        Dag::from(DirectedTree::caterpillar(4, 2)),
    ] {
        let json = serde_json::to_string(&dag).unwrap();
        let back: Dag = serde_json::from_str(&json).unwrap();
        assert_eq!(dag, back);
        // The routing tables survive, not just the shape.
        let n = back.node_count();
        for from in 0..n {
            for dest in 0..n {
                let (from, dest) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(dag.next_hop(from, dest), back.next_hop(from, dest));
            }
        }
    }
}

#[test]
fn replayed_dag_run_reproduces_the_metrics_exactly() {
    let mesh = Dag::grid(3, 3);
    let pattern = Pattern::from_injections(vec![
        Injection::new(0, 0, 8),
        Injection::new(0, 0, 2),
        Injection::new(1, 3, 5),
        Injection::new(2, 1, 7),
    ]);
    let replayed: Dag = serde_json::from_str(&serde_json::to_string(&mesh).unwrap()).unwrap();
    let run = |topo: Dag| -> RunMetrics {
        let mut sim = Simulation::new(topo, DagGreedy::fifo(), &pattern).unwrap();
        sim.run_past_horizon(20).unwrap();
        sim.metrics().clone()
    };
    assert_eq!(run(mesh), run(replayed));
}

#[test]
fn capacity_config_roundtrips() {
    for config in [
        CapacityConfig::uniform(4),
        CapacityConfig::uniform(1).staging(StagingMode::Counted),
        CapacityConfig::per_node(vec![1, 8, 3]).staging(StagingMode::Exempt),
    ] {
        let json = serde_json::to_string(&config).unwrap();
        let back: CapacityConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        assert_eq!(config.staging_mode(), back.staging_mode());
        assert_eq!(config.limit(NodeId::new(1)), back.limit(NodeId::new(1)));
    }
}

#[test]
fn dag_serialization_is_the_defining_data_and_revalidates() {
    // The archived form carries the defining data only — no derived
    // routing tables. Closed-form families archive their construction
    // parameters; arbitrary DAGs archive the edge list and deserialization
    // goes back through from_edges, so corrupt artifacts are rejected
    // instead of trusted.
    let json = serde_json::to_string(&Dag::grid(4, 4)).unwrap();
    assert!(json.contains("\"routing\":\"grid\""));
    assert!(
        !json.contains("\"edges\"") && !json.contains("\"next\""),
        "neither edges nor derived tables are archived for computed families"
    );
    let json = serde_json::to_string(&Dag::random_dag(6, 0.5, 1)).unwrap();
    assert!(json.contains("\"edges\""));
    assert!(
        !json.contains("\"next\""),
        "derived tables must not be archived"
    );
    let cyclic = r#"{"n":3,"edges":[[0,1],[1,2],[2,0]],"grid":null}"#;
    assert!(serde_json::from_str::<Dag>(cyclic).is_err());
    let bad_grid = r#"{"n":2,"edges":[[0,1]],"grid":[3,3]}"#;
    assert!(serde_json::from_str::<Dag>(bad_grid).is_err());
    let bad_computed = r#"{"n":5,"routing":"grid","grid":[2,2]}"#;
    assert!(serde_json::from_str::<Dag>(bad_computed).is_err());
}

#[test]
fn oversized_computed_dags_are_named_errors() {
    // Each names the 32-bit limit it breaks instead of overflowing,
    // panicking or allocating.
    for (json, what) in [
        // rows · cols overflows usize.
        (
            r#"{"n":0,"routing":"grid","grid":[9223372036854775808,2]}"#,
            "nodes",
        ),
        // 65 536² is one node past u32::MAX.
        (
            r#"{"n":4294967296,"routing":"grid","grid":[65536,65536]}"#,
            "nodes",
        ),
        // width + 2 overflows usize.
        (
            r#"{"n":1,"routing":"diamond","width":18446744073709551615}"#,
            "nodes",
        ),
    ] {
        let err = serde_json::from_str::<Dag>(json)
            .expect_err(json)
            .to_string();
        assert!(
            err.contains(&format!("more than {} {what}", u32::MAX)),
            "{json}: {err}"
        );
    }
}

#[test]
fn invalid_capacity_artifacts_are_rejected() {
    // Constructor invariants hold for replayed configs too: capacity 0
    // and empty per-node lists must fail at deserialize time, not panic
    // deep inside a simulation.
    let zero = r#"{"limits":{"kind":"uniform","limit":0},"staging":"Exempt"}"#;
    assert!(serde_json::from_str::<CapacityConfig>(zero).is_err());
    let empty = r#"{"limits":{"kind":"per_node","limits":[]},"staging":"Exempt"}"#;
    assert!(serde_json::from_str::<CapacityConfig>(empty).is_err());
    let zero_entry = r#"{"limits":{"kind":"per_node","limits":[2,0]},"staging":"Counted"}"#;
    assert!(serde_json::from_str::<CapacityConfig>(zero_entry).is_err());
}

#[test]
fn drop_policy_selections_roundtrip() {
    for kind in DropPolicyKind::ALL {
        let json = serde_json::to_string(&kind).unwrap();
        let back: DropPolicyKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
    }
}

#[test]
fn topology_errors_are_std_errors() {
    // Both topology error types box as `dyn Error`, so validation results
    // compose with `?` in application code.
    let tree_err: Box<dyn std::error::Error> =
        Box::new(DirectedTree::from_parents(&[]).unwrap_err());
    assert!(tree_err.to_string().contains("at least one node"));
    assert!(matches!(
        DirectedTree::from_parents(&[Some(0), None]),
        Err(TreeError::SelfLoop(_))
    ));
    let dag_err: Box<dyn std::error::Error> =
        Box::new(Dag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap_err());
    assert!(dag_err.to_string().contains("cycle"));
    assert!(matches!(
        Dag::from_edges(2, &[(0, 0)]),
        Err(DagError::SelfLoop(_))
    ));
}

#[test]
fn injection_json_is_human_readable() {
    // The archived format should be auditable: round/source/dest by name.
    let inj = Injection::new(7, 2, 5);
    let json = serde_json::to_string(&inj).unwrap();
    for field in ["round", "source", "dest"] {
        assert!(json.contains(field), "missing field {field} in {json}");
    }
}

// --- Scenario-layer round-trips (the declarative specs) ----------------

mod scenario_specs {
    use small_buffers::{
        run_scenario, Cadence, CapacityConfig, CapacitySpec, DestSpec, FaultEvent, FaultSpec,
        GreedyPolicy, Injection, ProtocolSpec, Rate, Scenario, ScenarioGrid, SourceSpec,
        StagingMode, TopologySpec, TreeSpec,
    };

    fn roundtrip<T>(value: &T) -> T
    where
        T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
    {
        let json = serde_json::to_string_pretty(value).unwrap();
        serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot reparse {json}: {e}"))
    }

    #[test]
    fn every_topology_spec_roundtrips() {
        for spec in [
            TopologySpec::Path { n: 16 },
            TopologySpec::Tree(TreeSpec::Star { leaves: 4 }),
            TopologySpec::Tree(TreeSpec::FullBinary { height: 3 }),
            TopologySpec::Tree(TreeSpec::Caterpillar { spine: 3, legs: 2 }),
            TopologySpec::Tree(TreeSpec::Random { n: 10, seed: 3 }),
            TopologySpec::Tree(TreeSpec::Parents {
                parents: vec![Some(1), None],
            }),
            TopologySpec::Grid { rows: 4, cols: 8 },
            TopologySpec::Butterfly { k: 3 },
            TopologySpec::Diamond { width: 2 },
            TopologySpec::RandomDag {
                n: 12,
                density: 0.25,
                seed: 9,
            },
        ] {
            assert_eq!(roundtrip(&spec), spec);
        }
    }

    #[test]
    fn every_protocol_spec_roundtrips() {
        for spec in [
            ProtocolSpec::Pts {
                dest: Some(7),
                eager: true,
            },
            ProtocolSpec::Ppts { eager: false },
            ProtocolSpec::Hpts { levels: 3 },
            ProtocolSpec::TreePts { dest: None },
            ProtocolSpec::TreePpts,
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::ShortestInSystem,
            },
            ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::FurthestToGo,
            },
            ProtocolSpec::Batched {
                inner: Box::new(ProtocolSpec::Ppts { eager: true }),
                phase: 4,
            },
        ] {
            assert_eq!(roundtrip(&spec), spec);
        }
    }

    #[test]
    fn every_source_spec_roundtrips() {
        let rate = Rate::new(2, 5).unwrap();
        for spec in [
            SourceSpec::Pattern {
                injections: vec![Injection::new(0, 0, 3), Injection::new(2, 1, 3)],
            },
            SourceSpec::Burst {
                round: 1,
                source: 0,
                dest: 5,
                size: 4,
            },
            SourceSpec::BurstTrain {
                source: 0,
                dest: 5,
                size: 3,
                period: 7,
                count: 4,
            },
            SourceSpec::PacedStream {
                source: 1,
                dest: 6,
                rate,
                rounds: 40,
            },
            SourceSpec::Repeat {
                source: 0,
                dest: 3,
                per_round: 2,
                rounds: 25,
            },
            SourceSpec::RoundRobin {
                dests: vec![2, 4, 6],
                rate,
                rounds: 30,
            },
            SourceSpec::Staircase {
                dests: vec![3, 6],
                per_step: 2,
                gap: 3,
            },
            SourceSpec::PeakChase {
                rate,
                sigma: 3,
                rounds: 50,
            },
            SourceSpec::Random {
                rate,
                sigma: 2,
                rounds: 60,
                dests: DestSpec::fixed([3, 7]),
                cadence: Cadence::Bursty { period: 6 },
                seed: 12,
                attempts: 5,
            },
            SourceSpec::RowFlood {
                row: 2,
                rate,
                rounds: 20,
            },
            SourceSpec::ColumnFlood {
                col: 1,
                rate,
                rounds: 20,
            },
            SourceSpec::AllFloods { rounds: 15 },
            SourceSpec::DiagonalWave {
                per_step: 2,
                gap: 0,
            },
            SourceSpec::Shaped {
                inner: Box::new(SourceSpec::AllFloods { rounds: 10 }),
                rate: Rate::ONE,
                sigma: 2,
            },
        ] {
            assert_eq!(roundtrip(&spec), spec);
        }
    }

    #[test]
    fn scenario_and_grid_roundtrip_and_replay_identically() {
        let scenario = Scenario {
            name: Some("replayable artifact".into()),
            topology: TopologySpec::Grid { rows: 3, cols: 3 },
            protocol: ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::Shaped {
                inner: Box::new(SourceSpec::AllFloods { rounds: 12 }),
                rate: Rate::ONE,
                sigma: 2,
            },
            extra: 50,
            capacity: Some(CapacitySpec {
                config: CapacityConfig::uniform(3).staging(StagingMode::Counted),
                policy: small_buffers::DropPolicyKind::Farthest,
            }),
            telemetry: None,
            faults: None,
        };
        let replay = roundtrip(&scenario);
        assert_eq!(replay, scenario);
        // A deserialized scenario reproduces the run exactly.
        assert_eq!(
            run_scenario(&scenario).unwrap(),
            run_scenario(&replay).unwrap()
        );

        // With a fault schedule attached, both the spec (every event
        // kind) and the faulted replay survive the JSON trip.
        let mut faulted = scenario.clone();
        faulted.faults = Some(
            FaultSpec::new(23)
                .with_event(FaultEvent::LinkDown {
                    from: 0,
                    to: 1,
                    at: 2,
                    until: Some(6),
                })
                .with_event(FaultEvent::NodeCrash {
                    node: 4,
                    at: 3,
                    until: None,
                })
                .with_event(FaultEvent::Partition {
                    group: vec![0, 1, 3],
                    at: 5,
                    until: Some(9),
                })
                .with_event(FaultEvent::LinkDelay {
                    from: 1,
                    to: 2,
                    extra: 2,
                    at: 0,
                    until: Some(12),
                })
                .with_event(FaultEvent::RandomLinks {
                    count: 2,
                    at: 1,
                    until: Some(7),
                }),
        );
        let faulted_replay = roundtrip(&faulted);
        assert_eq!(faulted_replay, faulted);
        let summary = run_scenario(&faulted).unwrap();
        assert_eq!(summary, run_scenario(&faulted_replay).unwrap());
        assert!(summary.faulted > 0, "the crashed node must fault packets");

        let grid = ScenarioGrid {
            name: None,
            topologies: vec![TopologySpec::Path { n: 8 }],
            protocols: vec![ProtocolSpec::Ppts { eager: true }],
            sources: vec![SourceSpec::RoundRobin {
                dests: vec![3, 7],
                rate: Rate::ONE,
                rounds: 12,
            }],
            capacities: vec![None],
            extra: 30,
        };
        assert_eq!(roundtrip(&grid), grid);
    }
}

// --- Deserialize errors name the path to the bad value ------------------

mod error_paths {
    use small_buffers::Scenario;

    const PATH: &str = r#"{"kind":"path","n":8}"#;
    const GREEDY: &str = r#"{"kind":"greedy","policy":"Fifo"}"#;
    const BURST: &str = r#"{"kind":"burst","round":0,"source":0,"dest":3,"size":1}"#;

    fn scenario(topology: &str, protocol: &str, source: &str, faults: &str) -> String {
        format!(
            r#"{{"topology":{topology},"protocol":{protocol},"source":{source},"extra":5,"capacity":null,"faults":{faults}}}"#
        )
    }

    fn random_source(extra_fields: &str) -> String {
        format!(
            r#"{{"kind":"random","rate":{{"num":1,"den":2}},"sigma":1,"rounds":9,"seed":1{extra_fields}}}"#
        )
    }

    #[test]
    fn a_bad_field_is_named_by_its_path() {
        let cases = [
            (
                scenario(r#"{"kind":"path","n":"eight"}"#, GREEDY, BURST, "null"),
                vec!["topology.n", "expected usize", "string"],
            ),
            // An integer takes no float, even one with no fraction.
            (
                scenario(r#"{"kind":"path","n":8.0}"#, GREEDY, BURST, "null"),
                vec!["topology.n: expected usize, found float 8"],
            ),
            (
                scenario(
                    r#"{"kind":"gird","rows":2,"cols":2}"#,
                    GREEDY,
                    BURST,
                    "null",
                ),
                vec!["topology.kind", "gird", "random_dag"],
            ),
            (
                scenario(r#"{"rows":2,"cols":2}"#, GREEDY, BURST, "null"),
                vec!["topology", "missing field", "kind"],
            ),
            (
                scenario(
                    PATH,
                    GREEDY,
                    r#"{"kind":"random","rate":{"num":1,"den":2},"sigma":1,"rounds":"many","seed":1}"#,
                    "null",
                ),
                vec!["source.rounds", "expected u64"],
            ),
            (
                scenario(
                    PATH,
                    GREEDY,
                    BURST,
                    r#"{"seed":1,"events":[{"kind":"link_down","from":1,"to":"two","at":0,"until":null}]}"#,
                ),
                vec!["faults.events[0]", "expected usize"],
            ),
            (
                scenario(
                    PATH,
                    GREEDY,
                    r#"{"kind":"pattern","injections":[{"round":0,"src":0,"dest":3}]}"#,
                    "null",
                ),
                vec!["source.injections[0]", "missing field", "\"source\""],
            ),
            // One per nested spec enum: a tree, a destination set, a
            // cadence and a wrapped protocol.
            (
                scenario(
                    r#"{"kind":"tree","tree":{"kind":"star","leaves":-1}}"#,
                    GREEDY,
                    BURST,
                    "null",
                ),
                vec!["topology.tree.leaves", "expected usize", "-1"],
            ),
            (
                scenario(
                    PATH,
                    GREEDY,
                    &random_source(r#","dests":{"kind":"fixed","dests":[3,"x"]}"#),
                    "null",
                ),
                vec!["source.dests.dests[1]", "expected u32"],
            ),
            (
                scenario(
                    PATH,
                    GREEDY,
                    &random_source(r#","cadence":{"kind":"bursty"}"#),
                    "null",
                ),
                vec!["source.cadence", "missing field", "period"],
            ),
            (
                scenario(
                    PATH,
                    r#"{"kind":"batched","inner":{"kind":"pts","eager":"yes"},"phase":2}"#,
                    BURST,
                    "null",
                ),
                vec!["protocol.inner.eager", "expected bool"],
            ),
            (
                scenario(PATH, r#"{"kind":"greedy","policy":"Fifoo"}"#, BURST, "null"),
                vec!["protocol.policy", "Fifoo", "FurthestToGo"],
            ),
            // A default fills an absent field only, as in real serde: an
            // explicit null is a type error.
            (
                scenario(PATH, r#"{"kind":"ppts","eager":null}"#, BURST, "null"),
                vec!["protocol.eager", "expected bool, found null"],
            ),
        ];
        for (json, parts) in cases {
            let err = serde_json::from_str::<Scenario>(&json)
                .expect_err(&json)
                .to_string();
            for part in parts {
                assert!(err.contains(part), "{err:?} lacks {part:?}");
            }
        }
    }
}
