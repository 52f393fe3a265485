//! A probe observes a run without perturbing it, and the engine fires its
//! hooks in the order [`Probe`] documents.
//!
//! For every cell of a protocol × topology × capacity × staging × fault
//! matrix, [`run_scenario_probed`] with a hook-recording probe must
//! reproduce [`run_scenario`]'s [`RunSummary`] exactly (compared as
//! serialized JSON, so every counter — injected, delivered, dropped,
//! peaks, latencies — participates), and the recorded hooks must follow
//! the per-round order
//! `Drop* Fault? Observe Phase(Inject) Phase(Plan) Move* Phase(Forward)
//! (Delivery | Drop)* Phase(Merge) Round`, with one `Move` per forwarded
//! packet, one `Delivery` per delivered one and one `Drop` per dropped
//! one; per node, the `Drop`s add up to `RunMetrics::per_node_drops`. The matrix spans the protocol
//! adapters (`Batched`, tree/path adapters), the capacity pipeline (all
//! four drop policies, both staging modes), both routing representations
//! (computed grids and dense-table random DAGs), fault schedules and the
//! sparse active-set regime.

use small_buffers::model::{EnginePhase, Probe};
use small_buffers::{
    run_scenario, run_scenario_probed, CapacityConfig, CapacitySpec, DropPolicyKind, FaultEvent,
    FaultSpec, FaultState, GreedyPolicy, Injection, NetworkState, NodeId, Packet, PacketId,
    ProtocolSpec, Round, RoundOutcome, RunSummary, Scenario, ScenarioError, Simulation, SourceSpec,
    StagingMode, TelemetryProbe, TelemetryReport, TelemetrySpec, Topology, TopologySpec, TreeSpec,
};

const EXTRA: u64 = 40;

/// Asserts a hook-recording run of `scenario` reproduces the plain
/// summary byte-for-byte and fires its hooks in the documented order,
/// with `on_fault` on some round exactly when the scenario has faults.
/// Returns the summary.
fn assert_probe_invariant(label: &str, scenario: &Scenario) -> RunSummary {
    let plain = run_scenario(scenario).expect("plain run");
    let mut recorder = Recorder::default();
    let probed = run_scenario_probed(scenario, &mut recorder)
        .unwrap_or_else(|e| panic!("{label}: probed run failed: {e}"));
    assert_eq!(
        serde_json::to_string(&plain).expect("summary serializes"),
        serde_json::to_string(&probed).unwrap(),
        "{label}: probe perturbed the run summary"
    );
    let fault_rounds = assert_documented_order(label, &recorder.0);
    assert_eq!(
        fault_rounds > 0,
        scenario.faults.is_some(),
        "{label}: on_fault fired on {fault_rounds} rounds"
    );
    let deliveries = recorder
        .0
        .iter()
        .filter(|h| matches!(h, Hook::Delivery(..)))
        .count();
    assert_eq!(deliveries as u64, plain.delivered, "{label}: deliveries");
    let per_node_drops = per_node_drops(scenario);
    let mut hooked = vec![0u64; per_node_drops.len()];
    for hook in &recorder.0 {
        if let Hook::Drop(_, v) = hook {
            hooked[v.index()] += 1;
        }
    }
    assert_eq!(hooked, per_node_drops, "{label}: on_drop per node");
    assert!(plain.injected > 0, "{label}: vacuous cell");
    plain
}

/// `RunMetrics::per_node_drops` of `scenario`'s plain run, assembled from
/// its built specs as `run_scenario` assembles it.
fn per_node_drops(scenario: &Scenario) -> Vec<u64> {
    let topology = scenario.topology.build().expect("topology builds");
    let protocol = scenario.protocol.build(&topology).expect("protocol builds");
    let source = scenario.source.build(&topology).expect("source builds");
    let mut sim = Simulation::from_source(topology, protocol, source);
    if let Some(cap) = &scenario.capacity {
        sim = sim.with_capacity(cap.config.clone(), cap.policy);
    }
    if let Some(faults) = &scenario.faults {
        sim = sim.with_faults(faults);
    }
    sim.run_past_horizon(scenario.extra).expect("valid run");
    sim.metrics().per_node_drops.clone()
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
fn path_protocols_are_probe_invariant() {
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
        assert_probe_invariant(&format!("path/{label}"), &s);
    }
}

#[test]
fn dag_topologies_are_probe_invariant() {
    // Computed routing (grid, butterfly, diamond) and the dense-table
    // fallback (random DAG) through the same probed round.
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
            assert_probe_invariant(&format!("{label}/{policy:?}"), &s);
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
    assert_probe_invariant("grid/diag-wave", &s);
}

#[test]
fn tree_protocols_are_probe_invariant() {
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
        assert_probe_invariant(&format!("tree/{label}"), &s);
    }
}

#[test]
fn capacity_and_staging_cells_are_probe_invariant() {
    // Overload a path so every drop policy actually drops, under both
    // staging modes; drops route deliveries through the two-pass
    // capacity apply, whose `on_delivery` calls come from its second
    // pass.
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
            assert_probe_invariant(&format!("capacity/{staging:?}/{kind:?}"), &s);
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
    assert_probe_invariant("capacity/mesh", &s);
}

/// A sparse load for the active-set engine: one packet per fourth row of
/// a `rows × cols` mesh, with a 3-packet burst on the first row so
/// capacity cells actually drop. ~99% of nodes stay idle for the whole
/// run, so touched-slot clearing and the post-apply occupancy fixup
/// govern every round.
fn sparse_pattern(rows: usize, cols: usize) -> SourceSpec {
    let mut injections: Vec<Injection> = (0..rows)
        .step_by(4)
        .map(|r| Injection::new((r % 7) as u64, r * cols, r * cols + cols / 2))
        .collect();
    injections.extend(std::iter::repeat_n(Injection::new(0, 0, cols / 2), 3));
    SourceSpec::Pattern { injections }
}

#[test]
fn sparse_active_set_cells_are_probe_invariant() {
    // The active-set engine's regime: a mesh where almost every node is
    // idle, so each round walks the live set only — and the probed run
    // must still reproduce the plain one exactly.
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
    let summary = assert_probe_invariant("sparse/grid", &s);
    assert!(
        summary.delivered > 0,
        "sparse/grid: vacuous — nothing delivered"
    );

    // Finite buffers: the burst overflows capacity 1, and every drop
    // must remove its node from the active set identically in both
    // runs.
    let s = scenario(
        grid.clone(),
        dag_fifo.clone(),
        sparse_pattern(rows, cols),
        Some(CapacitySpec {
            config: CapacityConfig::uniform(1),
            policy: DropPolicyKind::Tail,
        }),
    );
    let summary = assert_probe_invariant("sparse/capacity", &s);
    assert!(
        summary.dropped > 0,
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
    let summary = assert_probe_invariant("sparse/faulted", &s);
    assert!(
        summary.faulted > 0,
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
fn fault_schedules_are_probe_invariant() {
    // Faults active during the run must not break byte-identity, and
    // every fault-active round reports its mask before `on_observe`.
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
    assert_probe_invariant("faults/grid", &s);

    // A crashing node on a contended path sweeps buffered packets and
    // blocks injections: the faulted ledger is non-zero and still
    // byte-identical under the probe — including under finite buffers
    // and batched staging.
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
    let summary = assert_probe_invariant("faults/path-crash", &s);
    assert!(
        summary.faulted > 0,
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
    assert_probe_invariant("faults/tree-partition", &s);
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
            // walks the live set of a mostly-idle mesh.
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

/// `scenario` with a `TelemetryProbe` built from its telemetry spec.
fn telemetry_run(scenario: &Scenario) -> Result<(RunSummary, TelemetryReport), ScenarioError> {
    let mut probe = TelemetryProbe::new(scenario.telemetry.unwrap_or_default());
    let summary = run_scenario_probed(scenario, &mut probe)?;
    Ok((summary, probe.report()))
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
            telemetry_run(&probed).unwrap_or_else(|e| panic!("{label}: probed run: {e}"));
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

/// One probe hook as the engine fired it: the round plus its payload.
#[derive(Debug, Clone, PartialEq)]
enum Hook {
    Drop(Round, NodeId),
    Fault(Round),
    /// `active_count` at the `L^t` observation.
    Observe(Round, usize),
    Phase(Round, EnginePhase),
    Move(Round, NodeId, PacketId, bool),
    Delivery(Round, PacketId),
    Round(RoundOutcome),
}

/// Logs every hook in firing order, except phase nanoseconds (clock
/// readings).
#[derive(Default)]
struct Recorder(Vec<Hook>);

impl Probe for Recorder {
    fn on_drop(&mut self, round: Round, node: NodeId) {
        self.0.push(Hook::Drop(round, node));
    }

    fn on_fault(&mut self, round: Round, _state: &FaultState) {
        self.0.push(Hook::Fault(round));
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.0.push(Hook::Observe(round, state.active_count()));
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, _nanos: u64) {
        self.0.push(Hook::Phase(round, phase));
    }

    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        self.0.push(Hook::Move(round, from, packet, delivers));
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.0.push(Hook::Delivery(round, packet.id()));
    }

    fn on_round(&mut self, outcome: &RoundOutcome, _state: &NetworkState) {
        self.0.push(Hook::Round(*outcome));
    }
}

/// Walks `log` round by round against the order `Probe` documents:
/// `Drop* Fault? Observe Phase(Inject) Phase(Plan) Move* Phase(Forward)
/// (Delivery | Drop)* Phase(Merge) Round`, every hook tagged with its
/// round and the rounds numbered 0, 1, 2, … without gaps. A round's
/// `Move`s must number its `forwarded`, its `Delivery`s its `delivered`,
/// in the order of the delivering moves, and its `Drop`s its `dropped`.
/// Returns how many rounds fired `Fault`.
fn assert_documented_order(label: &str, log: &[Hook]) -> usize {
    let mut hooks = log.iter().peekable();
    let mut fault_rounds = 0;
    let mut t = Round::ZERO;
    while hooks.peek().is_some() {
        let mut drops = 0;
        while let Some(Hook::Drop(r, _)) = hooks.peek() {
            assert_eq!(*r, t, "{label}: a drop of round {r} fired in round {t}");
            drops += 1;
            hooks.next();
        }
        if hooks.next_if_eq(&&Hook::Fault(t)).is_some() {
            fault_rounds += 1;
        }
        let observe = hooks.next();
        assert!(
            matches!(observe, Some(Hook::Observe(r, _)) if *r == t),
            "{label}: round {t} opens with {observe:?}, not Observe"
        );
        for phase in [EnginePhase::Inject, EnginePhase::Plan] {
            assert_eq!(hooks.next(), Some(&Hook::Phase(t, phase)), "{label}: {t}");
        }
        let mut delivering = Vec::new();
        let mut moves = 0;
        while let Some(Hook::Move(r, _, packet, delivers)) = hooks.peek() {
            assert_eq!(*r, t, "{label}: a move of round {r} fired in round {t}");
            if *delivers {
                delivering.push(*packet);
            }
            moves += 1;
            hooks.next();
        }
        let forward = hooks.next();
        assert_eq!(
            forward,
            Some(&Hook::Phase(t, EnginePhase::Forward)),
            "{label}: {t}"
        );
        let mut delivered = Vec::new();
        loop {
            match hooks.peek() {
                Some(Hook::Delivery(r, packet)) => {
                    assert_eq!(*r, t, "{label}: a delivery of round {r} fired in round {t}");
                    delivered.push(*packet);
                }
                Some(Hook::Drop(r, _)) => {
                    assert_eq!(*r, t, "{label}: a drop of round {r} fired in round {t}");
                    drops += 1;
                }
                _ => break,
            }
            hooks.next();
        }
        assert_eq!(delivered, delivering, "{label}: {t}: deliveries vs moves");
        assert_eq!(
            hooks.next(),
            Some(&Hook::Phase(t, EnginePhase::Merge)),
            "{label}: {t}"
        );
        match hooks.next() {
            Some(Hook::Round(outcome)) => {
                assert_eq!(outcome.round, t, "{label}: outcome of the wrong round");
                assert_eq!(outcome.forwarded, moves, "{label}: {t}: moves vs forwarded");
                assert_eq!(
                    outcome.delivered,
                    delivered.len(),
                    "{label}: {t}: deliveries vs delivered"
                );
                assert_eq!(outcome.dropped, drops, "{label}: {t}: drops vs dropped");
            }
            other => panic!("{label}: round {t} closes with {other:?}, not Round"),
        }
        t = t.next();
    }
    fault_rounds
}

#[test]
fn probe_hooks_fire_in_the_documented_order() {
    // The unbounded, capacity, faulted and sparse cells, each of which
    // delivers packets; `on_fault` fires in the faulted cell only.
    for (label, s) in telemetry_cells() {
        let summary = assert_probe_invariant(label, &s);
        assert!(
            summary.delivered > 0,
            "{label}: vacuous cell, nothing delivered"
        );
    }
}
