//! The sharded engine is a **byte-identical drop-in** for the sequential
//! one: for every cell of a protocol × topology × capacity × staging
//! matrix, [`run_scenario_sharded`] at 1, 2 and 4 shards must reproduce
//! [`run_scenario`]'s [`RunSummary`] exactly (compared as serialized
//! JSON, so every counter — injected, delivered, dropped, peaks,
//! latencies — participates).
//!
//! The engine-level unit tests (`crates/model/src/engine.rs`) prove the
//! stronger per-step property — identical `RoundOutcome`s and buffer
//! contents, sequence numbers included, after every round. This suite drives
//! the same machinery end-to-end through the declarative layer, across
//! protocol adapters (`Batched`, tree/path adapters), the capacity
//! pipeline (all four drop policies, both staging modes) and both routing
//! representations (computed grids and dense-table random DAGs).

use small_buffers::model::{EnginePhase, Probe};
use small_buffers::{
    run_scenario, run_scenario_sharded, run_scenario_telemetry, run_scenario_telemetry_with,
    CapacityConfig, CapacitySpec, DropPolicyKind, FaultEvent, FaultSpec, FaultState, GreedyPolicy,
    Injection, NetworkState, Packet, PacketId, ProtocolSpec, Round, RoundOutcome, Scenario,
    Simulation, SourceSpec, StagingMode, TelemetrySpec, Topology, TopologySpec, TreeSpec,
};

const EXTRA: u64 = 40;

/// Asserts 1-, 2- and 4-shard runs of `scenario` reproduce the sequential
/// summary byte-for-byte.
fn assert_sharding_invariant(label: &str, scenario: &Scenario) {
    let sequential = run_scenario(scenario).expect("sequential run");
    let expected = serde_json::to_string(&sequential).expect("summary serializes");
    for shards in [1usize, 2, 4] {
        let sharded = run_scenario_sharded(scenario, shards)
            .unwrap_or_else(|e| panic!("{label}: {shards}-shard run failed: {e}"));
        assert_eq!(
            expected,
            serde_json::to_string(&sharded).unwrap(),
            "{label}: {shards}-shard summary diverged"
        );
    }
    assert!(sequential.injected > 0, "{label}: vacuous cell");
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

/// A contended pattern on a 12-node path: head-of-line bursts plus
/// cross traffic from the middle.
fn path_pattern() -> SourceSpec {
    let mut injections = vec![Injection::new(0, 0, 11); 4];
    for t in 0..20u64 {
        injections.push(Injection::new(t, 0, 11));
        injections.push(Injection::new(t, 3 + (t as usize % 3), 10));
    }
    SourceSpec::Pattern { injections }
}

#[test]
fn path_protocols_are_sharding_invariant() {
    let protocols = [
        (
            "greedy-fifo",
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
        ),
        (
            "greedy-ntg",
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::NearestToGo,
            },
        ),
        ("ppts", ProtocolSpec::Ppts { eager: false }),
        (
            "batched-greedy",
            ProtocolSpec::Batched {
                inner: Box::new(ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                }),
                phase: 3,
            },
        ),
    ];
    for (label, protocol) in protocols {
        let s = scenario(TopologySpec::Path { n: 12 }, protocol, path_pattern(), None);
        assert_sharding_invariant(&format!("path/{label}"), &s);
    }
}

#[test]
fn dag_topologies_are_sharding_invariant() {
    // Computed routing (grid, butterfly, diamond) and the dense-table
    // fallback (random DAG) through the same sharded path.
    let topologies = [
        ("grid", TopologySpec::Grid { rows: 6, cols: 6 }),
        ("butterfly", TopologySpec::Butterfly { k: 2 }),
        ("diamond", TopologySpec::Diamond { width: 4 }),
        (
            "random-dag",
            TopologySpec::RandomDag {
                n: 18,
                density: 0.3,
                seed: 7,
            },
        ),
    ];
    for (label, topology) in topologies {
        // Candidate injections are filtered to routable pairs — each DAG
        // family has a different reachability structure.
        let topo = topology.build().expect("topology builds");
        let n = topo.node_count();
        let injections: Vec<Injection> = (0..24u64)
            .map(|t| Injection::new(t, (t as usize) % 2, n - 1 - (t as usize % 3).min(n - 2)))
            .filter(|inj| topo.reaches(inj.source, inj.dest))
            .collect();
        assert!(!injections.is_empty(), "{label}: no routable injections");
        let source = SourceSpec::Pattern { injections };
        for policy in [GreedyPolicy::Fifo, GreedyPolicy::NearestToGo] {
            let s = scenario(
                topology.clone(),
                ProtocolSpec::DagGreedy { policy },
                source.clone(),
                None,
            );
            assert_sharding_invariant(&format!("{label}/{policy:?}"), &s);
        }
    }
    // The grid under its native streaming load.
    let s = scenario(
        TopologySpec::Grid { rows: 8, cols: 8 },
        ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::DiagonalWave {
            per_step: 1,
            gap: 1,
        },
        None,
    );
    assert_sharding_invariant("grid/diag-wave", &s);
}

#[test]
fn tree_protocols_are_sharding_invariant() {
    let tree = TopologySpec::Tree(TreeSpec::Random { n: 16, seed: 9 });
    let root = small_buffers::DirectedTree::random(16, 9).root().index();
    let gather = SourceSpec::Pattern {
        injections: (0..16usize)
            .filter(|&v| v != root)
            .flat_map(|v| (0..3u64).map(move |t| Injection::new(2 * t, v, root)))
            .collect(),
    };
    for (label, protocol) in [
        ("tree-pts", ProtocolSpec::TreePts { dest: None }),
        ("tree-ppts", ProtocolSpec::TreePpts),
        (
            "greedy",
            ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            },
        ),
    ] {
        let s = scenario(tree.clone(), protocol, gather.clone(), None);
        assert_sharding_invariant(&format!("tree/{label}"), &s);
    }
}

#[test]
fn capacity_and_staging_cells_are_sharding_invariant() {
    // Overload a path so every drop policy actually drops, under both
    // staging modes; drops force the sharded capacity path through the
    // deterministic sequential-apply branch.
    let overload = SourceSpec::Repeat {
        source: 0,
        dest: 9,
        per_round: 3,
        rounds: 20,
    };
    for staging in [StagingMode::Exempt, StagingMode::Counted] {
        for kind in DropPolicyKind::ALL {
            let cap = CapacitySpec {
                config: CapacityConfig::uniform(2).staging(staging),
                policy: kind,
            };
            let s = scenario(
                TopologySpec::Path { n: 10 },
                ProtocolSpec::Batched {
                    inner: Box::new(ProtocolSpec::Greedy {
                        policy: GreedyPolicy::Fifo,
                    }),
                    phase: 3,
                },
                overload.clone(),
                Some(cap),
            );
            assert_sharding_invariant(&format!("capacity/{staging:?}/{kind:?}"), &s);
        }
    }
    // And a capacity-bounded mesh: finite buffers + computed routing.
    let s = scenario(
        TopologySpec::Grid { rows: 5, cols: 5 },
        ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::Pattern {
            injections: (0..30u64).map(|t| Injection::new(t / 3, 0, 24)).collect(),
        },
        Some(CapacitySpec {
            config: CapacityConfig::uniform(2),
            policy: DropPolicyKind::Tail,
        }),
    );
    assert_sharding_invariant("capacity/mesh", &s);
}

/// A sparse load for the active-set engine: one packet per fourth row of
/// a `rows × cols` mesh, with a 3-packet burst on the first row so
/// capacity cells actually drop. ~99% of nodes stay idle for the whole
/// run, so touched-slot clearing, active-quantile shard cuts and the
/// post-apply occupancy fixup govern every round.
fn sparse_pattern(rows: usize, cols: usize) -> SourceSpec {
    let mut injections: Vec<Injection> = (0..rows)
        .step_by(4)
        .map(|r| Injection::new((r % 7) as u64, r * cols, r * cols + cols / 2))
        .collect();
    injections.extend(std::iter::repeat_n(Injection::new(0, 0, cols / 2), 3));
    SourceSpec::Pattern { injections }
}

#[test]
fn sparse_active_set_cells_are_sharding_invariant() {
    // The active-set engine's adversarial regime for byte-identity: a
    // mesh big enough that dense node-range shard cuts would leave most
    // workers idle, so the sharded path cuts plan windows at active-set
    // quantiles instead — and must still reproduce the sequential run
    // exactly.
    let (rows, cols) = (48usize, 48usize);
    let grid = TopologySpec::Grid { rows, cols };
    let dag_fifo = ProtocolSpec::DagGreedy {
        policy: GreedyPolicy::Fifo,
    };
    let s = scenario(
        grid.clone(),
        dag_fifo.clone(),
        sparse_pattern(rows, cols),
        None,
    );
    assert_sharding_invariant("sparse/grid", &s);
    assert!(
        run_scenario(&s).unwrap().delivered > 0,
        "sparse/grid: vacuous — nothing delivered"
    );

    // Finite buffers: the burst overflows capacity 1, and every drop
    // must remove its node from the active set identically across shard
    // counts.
    let s = scenario(
        grid.clone(),
        dag_fifo.clone(),
        sparse_pattern(rows, cols),
        Some(CapacitySpec {
            config: CapacityConfig::uniform(1),
            policy: DropPolicyKind::Tail,
        }),
    );
    assert_sharding_invariant("sparse/capacity", &s);
    assert!(
        run_scenario(&s).unwrap().dropped > 0,
        "sparse/capacity: vacuous — the burst never overflowed"
    );

    // Faults: a crash window over a sparse source drains its buffer
    // mid-run (the sweep maintains the set), and dead links reroute
    // nothing — blocked packets just wait, staying live.
    let mut s = scenario(grid, dag_fifo, sparse_pattern(rows, cols), None);
    s.faults = Some(
        FaultSpec::new(16)
            .with_event(FaultEvent::NodeCrash {
                node: 4 * cols,
                at: 2,
                until: Some(9),
            })
            .with_event(FaultEvent::RandomLinks {
                count: 6,
                at: 3,
                until: Some(12),
            }),
    );
    assert_sharding_invariant("sparse/faulted", &s);
    assert!(
        run_scenario(&s).unwrap().faulted > 0,
        "sparse/faulted: vacuous — the crash window faulted nothing"
    );
}

/// A mixed fault schedule exercising every event kind with recovery
/// windows, on the seed the artifacts use.
fn mixed_faults() -> FaultSpec {
    FaultSpec::new(11)
        .with_event(FaultEvent::RandomLinks {
            count: 4,
            at: 2,
            until: Some(8),
        })
        .with_event(FaultEvent::NodeCrash {
            node: 5,
            at: 3,
            until: Some(7),
        })
        .with_event(FaultEvent::Partition {
            group: vec![0, 1, 2, 3],
            at: 9,
            until: Some(11),
        })
        .with_event(FaultEvent::LinkDelay {
            from: 0,
            to: 1,
            extra: 1,
            at: 0,
            until: Some(20),
        })
}

#[test]
fn fault_schedules_are_sharding_invariant() {
    // Faults active during the run must not break byte-identity: the
    // mask advances once per round on the coordinating thread, so every
    // shard sees the same fault state.
    let mut s = scenario(
        TopologySpec::Grid { rows: 6, cols: 6 },
        ProtocolSpec::DagGreedy {
            policy: GreedyPolicy::Fifo,
        },
        SourceSpec::DiagonalWave {
            per_step: 1,
            gap: 1,
        },
        None,
    );
    s.faults = Some(mixed_faults());
    assert_sharding_invariant("faults/grid", &s);

    // A crashing node on a contended path sweeps buffered packets and
    // blocks injections: the faulted ledger is non-zero and still
    // byte-identical across shard counts — including under finite
    // buffers and batched staging.
    let mut s = scenario(
        TopologySpec::Path { n: 12 },
        ProtocolSpec::Batched {
            inner: Box::new(ProtocolSpec::Greedy {
                policy: GreedyPolicy::Fifo,
            }),
            phase: 3,
        },
        path_pattern(),
        Some(CapacitySpec {
            config: CapacityConfig::uniform(3),
            policy: DropPolicyKind::Tail,
        }),
    );
    s.faults = Some(FaultSpec::new(3).with_event(FaultEvent::NodeCrash {
        node: 4,
        at: 2,
        until: Some(6),
    }));
    assert_sharding_invariant("faults/path-crash", &s);
    assert!(
        run_scenario(&s).unwrap().faulted > 0,
        "faults/path-crash: vacuous — no packet was faulted"
    );

    // A tree under a windowed partition.
    let mut s = scenario(
        TopologySpec::Tree(TreeSpec::Random { n: 16, seed: 9 }),
        ProtocolSpec::TreePpts,
        SourceSpec::Pattern {
            injections: {
                let root = small_buffers::DirectedTree::random(16, 9).root().index();
                (0..16usize)
                    .filter(|&v| v != root)
                    .flat_map(|v| (0..3u64).map(move |t| Injection::new(2 * t, v, root)))
                    .collect()
            },
        },
        None,
    );
    s.faults = Some(FaultSpec::new(5).with_event(FaultEvent::Partition {
        group: vec![1, 2, 3, 4, 5],
        at: 1,
        until: Some(5),
    }));
    assert_sharding_invariant("faults/tree-partition", &s);
}

/// Representative cells for the telemetry invariants below: a contended
/// path under `Batched`, a streaming mesh, and a lossy capacity cell
/// (so the probe sees drops, not just forwards).
fn telemetry_cells() -> Vec<(&'static str, Scenario)> {
    let spec = TelemetrySpec {
        series_capacity: 32,
        series_stride: 1,
        occupancy_stride: 1,
    };
    let mut cells = vec![
        (
            "path/batched",
            scenario(
                TopologySpec::Path { n: 12 },
                ProtocolSpec::Batched {
                    inner: Box::new(ProtocolSpec::Greedy {
                        policy: GreedyPolicy::Fifo,
                    }),
                    phase: 3,
                },
                path_pattern(),
                None,
            ),
        ),
        (
            "grid/diag-wave",
            scenario(
                TopologySpec::Grid { rows: 8, cols: 8 },
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Fifo,
                },
                SourceSpec::DiagonalWave {
                    per_step: 1,
                    gap: 1,
                },
                None,
            ),
        ),
        (
            "path/lossy",
            scenario(
                TopologySpec::Path { n: 10 },
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                SourceSpec::Repeat {
                    source: 0,
                    dest: 9,
                    per_round: 3,
                    rounds: 20,
                },
                Some(CapacitySpec {
                    config: CapacityConfig::uniform(2),
                    policy: DropPolicyKind::Tail,
                }),
            ),
        ),
        ("grid/faulted", {
            let mut s = scenario(
                TopologySpec::Grid { rows: 6, cols: 6 },
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Fifo,
                },
                SourceSpec::DiagonalWave {
                    per_step: 1,
                    gap: 1,
                },
                None,
            );
            s.faults = Some(mixed_faults());
            s
        }),
        (
            // The active-set engine under the probe: occupancy sampling
            // walks the live set, so a mostly-idle mesh must sketch the
            // same histograms at every shard count.
            "grid/sparse",
            scenario(
                TopologySpec::Grid { rows: 24, cols: 24 },
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Fifo,
                },
                sparse_pattern(24, 24),
                None,
            ),
        ),
    ];
    for (_, s) in &mut cells {
        s.telemetry = Some(spec);
    }
    cells
}

#[test]
fn the_probe_observes_without_perturbing() {
    // A probed run must report the exact summary of an unprobed one:
    // the probe reads engine state, it never feeds back into it.
    for (label, probed) in telemetry_cells() {
        let plain = Scenario {
            telemetry: None,
            ..probed.clone()
        };
        let expected = serde_json::to_string(&run_scenario(&plain).expect("plain run")).unwrap();
        let (summary, report) =
            run_scenario_telemetry(&probed).unwrap_or_else(|e| panic!("{label}: probed run: {e}"));
        assert_eq!(
            expected,
            serde_json::to_string(&summary).unwrap(),
            "{label}: probe perturbed the run summary"
        );
        assert!(
            report.data.counters.rounds > 0,
            "{label}: probe saw nothing"
        );
        assert_eq!(
            report.data.counters.delivered, summary.delivered,
            "{label}: probe's delivered count disagrees with the summary"
        );
    }
}

#[test]
fn telemetry_data_is_sharding_invariant() {
    // The deterministic half of the report — counters, sketches, the
    // round series — must be identical at 1, 2 and 4 shards: per-shard
    // observations merge in shard order, so the merged `TelemetryData`
    // is a pure function of the scenario. (The `profile` half is
    // shard-shaped by design and excluded.)
    for (label, s) in telemetry_cells() {
        let (_, sequential) =
            run_scenario_telemetry(&s).unwrap_or_else(|e| panic!("{label}: sequential: {e}"));
        let expected = serde_json::to_string(&sequential.data).unwrap();
        for shards in [1usize, 2, 4] {
            let (_, sharded) = run_scenario_telemetry_with(&s, shards, None, None, |_| {})
                .unwrap_or_else(|e| panic!("{label}: {shards}-shard run failed: {e}"));
            assert_eq!(
                expected,
                serde_json::to_string(&sharded.data).unwrap(),
                "{label}: {shards}-shard TelemetryData diverged"
            );
        }
        assert!(
            sequential.data.counters.forwarded > 0,
            "{label}: vacuous telemetry cell"
        );
    }
}

/// One probe hook as the engine fired it: the round plus its payload.
#[derive(Debug, Clone, PartialEq)]
enum Hook {
    Fault(Round),
    /// `active_count` at the `L^t` observation.
    Observe(Round, usize),
    Phase(Round, EnginePhase),
    Delivery(Round, PacketId),
    Round(RoundOutcome),
}

/// Logs every hook in firing order, except `on_shard_moves` (sharded
/// rounds only) and phase nanoseconds (clock readings).
#[derive(Default)]
struct Recorder(Vec<Hook>);

impl Probe for Recorder {
    fn on_fault(&mut self, round: Round, _state: &FaultState) {
        self.0.push(Hook::Fault(round));
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.0.push(Hook::Observe(round, state.active_count()));
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, _nanos: u64) {
        self.0.push(Hook::Phase(round, phase));
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.0.push(Hook::Delivery(round, packet.id()));
    }

    fn on_round(&mut self, outcome: &RoundOutcome, _state: &NetworkState) {
        self.0.push(Hook::Round(*outcome));
    }
}

/// The hook log of `scenario` run to its horizon on `shards` shards.
fn hook_log(scenario: &Scenario, shards: usize) -> Vec<Hook> {
    let topology = scenario.topology.build().expect("topology builds");
    let protocol = scenario.protocol.build(&topology).expect("protocol builds");
    let source = scenario.source.build(&topology).expect("source builds");
    let mut sim = Simulation::from_source(topology, protocol, source).with_shards(shards);
    if let Some(cap) = &scenario.capacity {
        sim = sim.with_capacity(cap.config.clone(), cap.policy.build());
    }
    if let Some(faults) = &scenario.faults {
        sim = sim.with_faults(faults);
    }
    let mut recorder = Recorder::default();
    sim.run_past_horizon_probed(scenario.extra, &mut recorder)
        .expect("valid run");
    recorder.0
}

#[test]
fn probe_hooks_fire_in_the_same_sequence_at_every_shard_count() {
    // The unbounded, capacity, faulted and sparse cells: every hook the
    // engine fires must carry the same round and payload, in the same
    // order, whatever the shard count.
    for (label, s) in telemetry_cells() {
        let sequential = hook_log(&s, 1);
        assert!(
            sequential.iter().any(|h| matches!(h, Hook::Delivery(..))),
            "{label}: vacuous cell, nothing delivered"
        );
        for shards in [2usize, 4] {
            assert_eq!(
                sequential,
                hook_log(&s, shards),
                "{label}: {shards}-shard hook sequence diverged"
            );
        }
    }
    let (_, faulted) = telemetry_cells()
        .into_iter()
        .find(|(label, _)| *label == "grid/faulted")
        .expect("the faulted cell");
    assert!(
        hook_log(&faulted, 1)
            .iter()
            .any(|h| matches!(h, Hook::Fault(_))),
        "grid/faulted: no fault hook fired"
    );
}
