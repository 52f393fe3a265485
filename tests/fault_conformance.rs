//! The fault layer's determinism and accounting contracts, end-to-end:
//!
//! * **empty-spec differential** — a `Some(FaultSpec::default())`
//!   scenario is byte-identical to `faults: None` across the protocol ×
//!   topology × capacity matrix (the fault layer costs nothing when
//!   empty, in outcome as well as in code path);
//! * **seed stability** — running the same `FaultSpec` twice produces
//!   identical `RunSummary` and `RunMetrics` JSON: fault schedules are a
//!   pure function of (spec, topology, round);
//! * **conservation under faults** (proptest, random DAGs) — at every
//!   round boundary `injected = delivered + dropped + faulted +
//!   in-network + staged`, with the faulted ledger agreeing between
//!   `NetworkState` and `RunMetrics`.

use proptest::prelude::*;

use small_buffers::{
    run_scenario, Batched, CapacityConfig, CapacitySpec, Dag, DagGreedy, DropPolicyKind,
    FaultEvent, FaultSpec, GreedyPolicy, Injection, NodeId, Pattern, Protocol, ProtocolSpec,
    Scenario, Simulation, SourceSpec, StagingMode, Topology, TopologySpec, TreeSpec,
};

const EXTRA: u64 = 40;

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

/// The differential matrix: one representative per protocol family ×
/// topology family, with and without finite buffers.
fn matrix() -> Vec<(&'static str, Scenario)> {
    let path_pattern = SourceSpec::Pattern {
        injections: (0..20u64)
            .flat_map(|t| {
                [
                    Injection::new(t, 0, 11),
                    Injection::new(t, 3 + (t as usize % 3), 10),
                ]
            })
            .collect(),
    };
    let cap = CapacitySpec {
        config: CapacityConfig::uniform(2),
        policy: DropPolicyKind::Tail,
    };
    vec![
        (
            "path/greedy",
            scenario(
                TopologySpec::Path { n: 12 },
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                path_pattern.clone(),
                None,
            ),
        ),
        (
            "path/ppts",
            scenario(
                TopologySpec::Path { n: 12 },
                ProtocolSpec::Ppts { eager: false },
                path_pattern.clone(),
                None,
            ),
        ),
        (
            "path/batched-capacity",
            scenario(
                TopologySpec::Path { n: 12 },
                ProtocolSpec::Batched {
                    inner: Box::new(ProtocolSpec::Greedy {
                        policy: GreedyPolicy::Fifo,
                    }),
                    phase: 3,
                },
                path_pattern.clone(),
                Some(cap.clone()),
            ),
        ),
        (
            "path/hpts",
            scenario(
                TopologySpec::Path { n: 16 },
                ProtocolSpec::Hpts { levels: 2 },
                SourceSpec::PacedStream {
                    source: 0,
                    dest: 15,
                    rate: small_buffers::Rate::new(1, 2).unwrap(),
                    rounds: 30,
                },
                None,
            ),
        ),
        (
            "grid/dag-greedy",
            scenario(
                TopologySpec::Grid { rows: 6, cols: 6 },
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
            "grid/dag-greedy-capacity",
            scenario(
                TopologySpec::Grid { rows: 5, cols: 5 },
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::NearestToGo,
                },
                SourceSpec::Pattern {
                    injections: (0..30u64).map(|t| Injection::new(t / 3, 0, 24)).collect(),
                },
                Some(cap),
            ),
        ),
        (
            // The active-set engine's sparse regime: one packet per
            // fourth row of a 24×24 mesh (~99% of nodes idle), so the
            // fault layer's empty-mask bypass and crash sweeps interact
            // with worklist maintenance rather than a dense scan.
            "grid/sparse",
            scenario(
                TopologySpec::Grid { rows: 24, cols: 24 },
                ProtocolSpec::DagGreedy {
                    policy: GreedyPolicy::Fifo,
                },
                SourceSpec::Pattern {
                    injections: (0..24usize)
                        .step_by(4)
                        .map(|r| Injection::new((r % 7) as u64, r * 24, r * 24 + 12))
                        .collect(),
                },
                None,
            ),
        ),
        (
            "tree/tree-ppts",
            scenario(
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
            ),
        ),
    ]
}

#[test]
fn empty_fault_spec_is_byte_identical_to_no_spec() {
    for (label, plain) in matrix() {
        let expected = serde_json::to_string(
            &run_scenario(&plain).unwrap_or_else(|e| panic!("{label}: plain run: {e}")),
        )
        .unwrap();
        let mut empty = plain.clone();
        empty.faults = Some(FaultSpec::default());
        let got = serde_json::to_string(
            &run_scenario(&empty).unwrap_or_else(|e| panic!("{label}: empty-spec run: {e}")),
        )
        .unwrap();
        assert_eq!(expected, got, "{label}: empty FaultSpec changed the run");
    }
}

/// The mixed fault schedule used for the stability checks: every event
/// kind, all with recovery windows so every cell still delivers.
fn mixed_faults() -> FaultSpec {
    FaultSpec::new(17)
        .with_event(FaultEvent::RandomLinks {
            count: 3,
            at: 2,
            until: Some(9),
        })
        .with_event(FaultEvent::NodeCrash {
            node: 5,
            at: 3,
            until: Some(7),
        })
        .with_event(FaultEvent::Partition {
            group: vec![1, 2, 3],
            at: 8,
            until: Some(12),
        })
        .with_event(FaultEvent::LinkDelay {
            from: 0,
            to: 1,
            extra: 2,
            at: 0,
            until: Some(24),
        })
}

#[test]
fn same_fault_spec_reproduces_byte_identical_runs() {
    for (label, mut s) in matrix() {
        s.faults = Some(mixed_faults());
        let a = serde_json::to_string(
            &run_scenario(&s).unwrap_or_else(|e| panic!("{label}: first faulted run: {e}")),
        )
        .unwrap();
        let b = serde_json::to_string(
            &run_scenario(&s).unwrap_or_else(|e| panic!("{label}: second faulted run: {e}")),
        )
        .unwrap();
        assert_eq!(a, b, "{label}: faulted run is not seed-stable");
    }
}

#[test]
fn fault_metrics_are_seed_stable_at_full_resolution() {
    // Beyond the summary: the complete RunMetrics JSON (per-node fault
    // ledgers, first-fault round, latency stats) of two hand-wired runs
    // with the same spec must match byte for byte.
    let faults = mixed_faults();
    let run = || {
        let dag = Dag::grid(6, 6);
        let pattern = Pattern::from_injections(
            (0..24u64)
                .map(|t| Injection::new(t, (t as usize) % 6, 35))
                .collect(),
        );
        let mut sim = Simulation::new(dag, DagGreedy::fifo(), &pattern)
            .expect("valid pattern")
            .with_faults(&faults);
        sim.run_past_horizon(EXTRA).expect("valid run");
        serde_json::to_string(sim.metrics()).expect("metrics serialize")
    };
    let a = run();
    assert_eq!(a, run());
    assert!(a.contains("\"faulted\""), "fault fields serialize");
}

/// One seed-derived recovering fault schedule for the proptest below.
fn proptest_faults(n: usize, seed: u64) -> FaultSpec {
    let node = (seed as usize) % n;
    let other = (seed as usize / 3) % (n - 1);
    FaultSpec::new(seed)
        .with_event(FaultEvent::NodeCrash {
            node,
            at: 2 + seed % 5,
            until: Some(8 + seed % 5),
        })
        .with_event(FaultEvent::RandomLinks {
            count: 1 + (seed as usize) % 3,
            at: seed % 4,
            until: Some(10),
        })
        .with_event(FaultEvent::LinkDelay {
            from: other,
            to: other + 1,
            extra: 1 + seed % 2,
            at: 0,
            until: Some(14),
        })
}

/// Steps round by round, checking the five-way conservation ledger.
fn assert_conserves_with_faults<P: Protocol<Dag>>(
    label: &str,
    dag: Dag,
    protocol: P,
    pattern: &Pattern,
    faults: &FaultSpec,
    capacity: Option<(usize, StagingMode, DropPolicyKind)>,
    rounds: u64,
) {
    let mut sim = Simulation::new(dag, protocol, pattern).expect("valid pattern");
    if let Some((cap, staging, kind)) = capacity {
        sim = sim.with_capacity(CapacityConfig::uniform(cap).staging(staging), kind);
    }
    sim = sim.with_faults(faults);
    for _ in 0..rounds {
        sim.step().expect("valid round");
        let m = sim.metrics();
        let in_network = sim.state().total_buffered() as u64;
        let staged = sim.state().staged_len() as u64;
        prop_assert_eq!(
            m.injected,
            m.delivered + m.dropped + m.faulted + in_network + staged,
            "{}: ledger broken at {}",
            label,
            sim.round()
        );
        // The per-node ledger must sum to the total.
        prop_assert_eq!(
            m.per_node_faulted.iter().sum::<u64>(),
            m.faulted,
            "{}: per-node fault ledger disagrees with the total",
            label
        );
        // Every buffered packet carries the hop its buffer routes it by.
        for v in (0..sim.topology().node_count()).map(NodeId::new) {
            for sp in sim.state().buffer(v) {
                prop_assert_eq!(
                    sp.next_hop(),
                    sim.topology().next_hop(v, sp.dest()),
                    "{}: stored hop of {} at {} in {}",
                    label,
                    sp.id(),
                    v,
                    sim.round()
                );
            }
        }
    }
}

/// Deterministic injections on `dag` (same shape as dag_conservation.rs).
fn dag_pattern(dag: &Dag, seed: u64, count: usize, horizon: u64) -> Pattern {
    let n = dag.node_count();
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let injections: Vec<Injection> = (0..count)
        .map(|_| {
            let t = next() % horizon;
            let src = (next() as usize) % (n - 1);
            let dest = src + 1 + (next() as usize) % (n - 1 - src);
            Injection::new(t, src, dest)
        })
        .collect();
    Pattern::from_injections(injections)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation with the faulted ledger, on random DAGs, unbounded
    /// and capacity-bounded, immediate and batched injection.
    #[test]
    fn conservation_holds_with_faults_on_random_dags(
        n in 4usize..16,
        density in 0u8..=10,
        seed in 0u64..512,
        capacity in 1usize..4,
    ) {
        let dag = Dag::random_dag(n, f64::from(density) / 10.0, seed);
        let pattern = dag_pattern(&dag, seed ^ 0xD1A6, 30, 20);
        let faults = proptest_faults(n, seed);
        let rounds = 24 + 3 * n as u64;
        assert_conserves_with_faults(
            "DagGreedy-FIFO/unbounded",
            dag.clone(),
            DagGreedy::fifo(),
            &pattern,
            &faults,
            None,
            rounds,
        );
        for staging in [StagingMode::Exempt, StagingMode::Counted] {
            assert_conserves_with_faults(
                "DagGreedy-FIFO/capacity",
                dag.clone(),
                DagGreedy::fifo(),
                &pattern,
                &faults,
                Some((capacity, staging, DropPolicyKind::Farthest)),
                rounds,
            );
            // Batched staging: crash sweeps must cover the staged ledger
            // too, not just buffers.
            assert_conserves_with_faults(
                "Batched[l=3]-DagGreedy-LIFO/capacity",
                dag.clone(),
                Batched::new(DagGreedy::lifo(), 3),
                &pattern,
                &faults,
                Some((capacity, staging, DropPolicyKind::Tail)),
                rounds,
            );
        }
    }
}
