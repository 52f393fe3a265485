//! Per-round packet conservation on random DAGs: at every measurement
//! point, `injected = delivered + dropped + in-network + staged` — for
//! every protocol × [`DropPolicyKind`] × [`StagingMode`] combination.
//!
//! This is the accounting backbone of the DAG engine: multi-out
//! forwarding, per-link validation, capacity enforcement and phase
//! staging may move packets between the four ledgers, but never mint or
//! leak one. Random DAGs (spine + random forward edges) exercise fan-out
//! and fan-in shapes no path or tree can.

use proptest::prelude::*;

use small_buffers::{
    Batched, CapacityConfig, Dag, DagGreedy, DropPolicyKind, Greedy, GreedyPolicy, Injection,
    NodeId, Pattern, Protocol, Simulation, StagingMode, Topology,
};

/// Builds a deterministic injection pattern on `dag`: `count` packets on
/// routes `i → j` with `i < j` (always reachable — random DAGs contain
/// the spine path), spread over `horizon` rounds with seed-driven
/// endpoints.
fn dag_pattern(dag: &Dag, seed: u64, count: usize, horizon: u64) -> Pattern {
    let n = dag.node_count();
    assert!(n >= 2);
    // SplitMix64 step, inlined so the test does not depend on crate
    // internals.
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

/// Steps the simulation round by round, checking the conservation ledger
/// at every round boundary.
#[allow(clippy::too_many_arguments)]
fn assert_conserves<P: Protocol<Dag>>(
    label: &str,
    dag: Dag,
    protocol: P,
    pattern: &Pattern,
    capacity: usize,
    staging: StagingMode,
    kind: DropPolicyKind,
    rounds: u64,
) {
    let mut sim = Simulation::new(dag, protocol, pattern)
        .expect("valid pattern")
        .with_capacity(CapacityConfig::uniform(capacity).staging(staging), kind);
    for _ in 0..rounds {
        sim.step().expect("valid round");
        let m = sim.metrics();
        let in_network = sim.state().total_buffered() as u64;
        let staged = sim.state().staged_len() as u64;
        prop_assert_eq!(
            m.injected,
            m.delivered + m.dropped + in_network + staged,
            "{} ({:?} staging, {}, cap {}): ledger broken at {}",
            label,
            staging,
            kind.label(),
            capacity,
            sim.round()
        );
        // The per-node ledger must sum to the total.
        prop_assert_eq!(m.per_node_drops.iter().sum::<u64>(), m.dropped);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The full protocol × policy × staging matrix on random DAGs.
    #[test]
    fn conservation_holds_on_random_dags(
        n in 4usize..16,
        density in 0u8..=10,
        seed in 0u64..512,
        capacity in 1usize..4,
    ) {
        let dag = Dag::random_dag(n, f64::from(density) / 10.0, seed);
        let pattern = dag_pattern(&dag, seed ^ 0xD1A6, 30, 20);
        let rounds = 20 + 3 * n as u64;
        for kind in DropPolicyKind::ALL {
            for staging in [StagingMode::Exempt, StagingMode::Counted] {
                assert_conserves(
                    "DagGreedy-FIFO",
                    dag.clone(),
                    DagGreedy::fifo(),
                    &pattern,
                    capacity,
                    staging,
                    kind,
                    rounds,
                );
                assert_conserves(
                    "Greedy-LIS",
                    dag.clone(),
                    Greedy::new(GreedyPolicy::LongestInSystem),
                    &pattern,
                    capacity,
                    staging,
                    kind,
                    rounds,
                );
                // A phase-batched protocol so the staged ledger is
                // non-trivially exercised (and counted staging actually
                // reserves slots).
                assert_conserves(
                    "Batched[l=3]-DagGreedy-LIFO",
                    dag.clone(),
                    Batched::new(DagGreedy::lifo(), 3),
                    &pattern,
                    capacity,
                    staging,
                    kind,
                    rounds,
                );
            }
        }
    }

    /// Unbounded runs conserve too, and deliver everything on DAGs whose
    /// spine guarantees progress.
    #[test]
    fn unbounded_dag_runs_drain_and_conserve(
        n in 4usize..14,
        seed in 0u64..256,
    ) {
        let dag = Dag::random_dag(n, 0.3, seed);
        let pattern = dag_pattern(&dag, seed, 20, 12);
        let mut sim = Simulation::new(dag, DagGreedy::fifo(), &pattern).expect("valid pattern");
        sim.run_past_horizon(4 * n as u64).expect("valid run");
        let m = sim.metrics();
        prop_assert_eq!(
            m.injected,
            m.delivered + sim.state().total_buffered() as u64 + sim.state().staged_len() as u64
        );
        prop_assert!(sim.is_drained(), "unbounded greedy run must drain");
        prop_assert_eq!(m.delivered, 20);
        prop_assert_eq!(m.dropped, 0);
    }
}
