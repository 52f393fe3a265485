//! The differential conformance harness: the generalized DAG engine is a
//! **conservative extension** of the path/tree engine.
//!
//! Every topology-generic protocol run on `Dag::from(Path)` /
//! `Dag::from(DirectedTree)` must be *byte-identical* — serialized
//! [`RunMetrics`], per-node drop counters, and the full [`Trace`]
//! (occupancy series, drop series, send records) — to the same protocol
//! run on the specialized topology, across the full protocol × policy ×
//! staging × capacity matrix:
//!
//! * protocols: the greedy family under all six selection policies, the
//!   per-link [`DagGreedy`] family (which must coincide with [`Greedy`] on
//!   single-out topologies), and phase-batched [`Batched`] wrappers so the
//!   staging machinery is exercised;
//! * policies: unbounded plus every [`DropPolicyKind`];
//! * staging: [`StagingMode::Exempt`] and [`StagingMode::Counted`];
//! * capacities: a tight finite cap (drops guaranteed on these workloads)
//!   and a roomy one.
//!
//! PTS/PPTS/HPTS are `Protocol<Path>` by design (the crate scopes them to
//! the topology they are proven for), so the matrix here is exactly the
//! protocol family whose code path the DAG generalization touches.

use small_buffers::{
    Batched, CapacityConfig, Dag, DagGreedy, DestSpec, DirectedTree, DropPolicyKind, Greedy,
    GreedyPolicy, Path, Pattern, Protocol, RandomAdversary, Rate, Simulation, StagingMode,
    Topology, Tracer,
};

const N: usize = 12;
const ROUNDS: u64 = 70;

/// One full run: returns `(metrics JSON, trace JSON, drops)`. The harness
/// compares the two JSON artifacts byte-for-byte (the metrics hold the
/// per-node drops); the drop total guards against a vacuous matrix.
fn run_artifacts<T, P>(
    topo: T,
    protocol: P,
    pattern: &Pattern,
    capacity: Option<(usize, StagingMode, DropPolicyKind)>,
) -> (String, String, u64)
where
    T: Topology,
    P: Protocol<T>,
{
    let mut tracer = Tracer::new(protocol.name());
    let mut sim = Simulation::new(topo, protocol, pattern).expect("valid pattern");
    if let Some((cap, staging, kind)) = capacity {
        sim = sim.with_capacity(CapacityConfig::uniform(cap).staging(staging), kind);
    }
    for _ in 0..ROUNDS {
        sim.step_probed(&mut tracer).expect("valid run");
    }
    let metrics = serde_json::to_string(sim.metrics()).expect("metrics serialize");
    let trace = serde_json::to_string(tracer.trace()).expect("trace serializes");
    (metrics, trace, sim.metrics().dropped)
}

/// The capacity axis of the matrix: unbounded, a tight cap (these
/// workloads overflow it, so the drop policies really fire), a roomy cap.
fn capacity_axis() -> Vec<Option<(usize, StagingMode, DropPolicyKind)>> {
    let mut axis: Vec<Option<(usize, StagingMode, DropPolicyKind)>> = vec![None];
    for staging in [StagingMode::Exempt, StagingMode::Counted] {
        for kind in DropPolicyKind::ALL {
            axis.push(Some((2, staging, kind)));
            axis.push(Some((5, staging, kind)));
        }
    }
    axis
}

/// Asserts every artifact of `mk()` on the specialized topology equals the
/// run on its DAG embedding, across the whole capacity × staging × policy
/// axis.
fn assert_conforms_on_path<P, F>(label: &str, mk: F, pattern: &Pattern)
where
    P: Protocol<Path> + Protocol<Dag>,
    F: Fn() -> P,
{
    let path = Path::new(N);
    let embedded = Dag::from(path);
    for capacity in capacity_axis() {
        let (m_path, t_path, _) = run_artifacts(path, mk(), pattern, capacity);
        let (m_dag, t_dag, _) = run_artifacts(embedded.clone(), mk(), pattern, capacity);
        assert_eq!(m_path, m_dag, "{label}: metrics diverge under {capacity:?}");
        assert_eq!(t_path, t_dag, "{label}: trace diverges under {capacity:?}");
    }
}

/// Tree counterpart of [`assert_conforms_on_path`].
fn assert_conforms_on_tree<P, F>(label: &str, mk: F, tree: &DirectedTree, pattern: &Pattern)
where
    P: Protocol<DirectedTree> + Protocol<Dag>,
    F: Fn() -> P,
{
    let embedded = Dag::from(tree);
    for capacity in capacity_axis() {
        let (m_tree, t_tree, _) = run_artifacts(tree.clone(), mk(), pattern, capacity);
        let (m_dag, t_dag, _) = run_artifacts(embedded.clone(), mk(), pattern, capacity);
        assert_eq!(m_tree, m_dag, "{label}: metrics diverge under {capacity:?}");
        assert_eq!(t_tree, t_dag, "{label}: trace diverges under {capacity:?}");
    }
}

/// A bursty multi-destination path workload that overflows capacity 2
/// (so the finite-cap cells of the matrix actually drop packets).
fn path_pattern(seed: u64) -> Pattern {
    RandomAdversary::new(Rate::ONE, 4, 40)
        .destinations(DestSpec::fixed([5, 8, N - 1]))
        .seed(seed)
        .build_path(&Path::new(N))
}

/// A leaf-heavy tree workload with the same property.
fn tree_workload(seed: u64) -> (DirectedTree, Pattern) {
    let tree = DirectedTree::random(N, 4);
    let pattern = RandomAdversary::new(Rate::ONE, 3, 40)
        .seed(seed)
        .build_tree(&tree);
    (tree, pattern)
}

#[test]
fn greedy_family_is_identical_on_embedded_paths() {
    let pattern = path_pattern(11);
    for policy in GreedyPolicy::ALL {
        assert_conforms_on_path(
            &format!("Greedy-{}", policy.label()),
            || Greedy::new(policy),
            &pattern,
        );
    }
}

#[test]
fn dag_greedy_family_is_identical_on_embedded_paths() {
    let pattern = path_pattern(23);
    for policy in GreedyPolicy::ALL {
        assert_conforms_on_path(
            &format!("DagGreedy-{}", policy.label()),
            || DagGreedy::new(policy),
            &pattern,
        );
    }
}

#[test]
fn batched_staging_is_identical_on_embedded_paths() {
    // Phase-batched wrappers drive the staging machinery (acceptance at
    // phase boundaries, counted-staging reservations) through both
    // engines.
    let pattern = path_pattern(37);
    for l in [2u64, 3] {
        assert_conforms_on_path(
            &format!("Batched[l={l}]-Greedy-FIFO"),
            || Batched::new(Greedy::new(GreedyPolicy::Fifo), l),
            &pattern,
        );
        assert_conforms_on_path(
            &format!("Batched[l={l}]-DagGreedy-LIFO"),
            || Batched::new(DagGreedy::lifo(), l),
            &pattern,
        );
    }
}

#[test]
fn greedy_family_is_identical_on_embedded_trees() {
    let (tree, pattern) = tree_workload(5);
    for policy in GreedyPolicy::ALL {
        assert_conforms_on_tree(
            &format!("Greedy-{}", policy.label()),
            || Greedy::new(policy),
            &tree,
            &pattern,
        );
    }
}

#[test]
fn dag_greedy_and_batched_are_identical_on_embedded_trees() {
    let (tree, pattern) = tree_workload(17);
    for policy in [
        GreedyPolicy::Fifo,
        GreedyPolicy::Lifo,
        GreedyPolicy::LongestInSystem,
    ] {
        assert_conforms_on_tree(
            &format!("DagGreedy-{}", policy.label()),
            || DagGreedy::new(policy),
            &tree,
            &pattern,
        );
    }
    assert_conforms_on_tree(
        "Batched[l=2]-Greedy-FIFO",
        || Batched::new(Greedy::new(GreedyPolicy::Fifo), 2),
        &tree,
        &pattern,
    );
}

#[test]
fn per_link_greedy_coincides_with_greedy_on_single_out_topologies() {
    // Cross-protocol conformance: on a path every buffered packet shares
    // the node's unique link, so DagGreedy and Greedy must produce the
    // same run (metrics + drops; trace differs only in the protocol name).
    let pattern = path_pattern(41);
    for policy in GreedyPolicy::ALL {
        for capacity in capacity_axis() {
            let (m_classic, _, _) =
                run_artifacts(Path::new(N), Greedy::new(policy), &pattern, capacity);
            let (m_perlink, _, _) =
                run_artifacts(Path::new(N), DagGreedy::new(policy), &pattern, capacity);
            assert_eq!(
                m_classic,
                m_perlink,
                "{} classic vs per-link diverge under {capacity:?}",
                policy.label()
            );
        }
    }
}

#[test]
fn tight_capacity_cells_really_drop() {
    // Guard against a vacuous matrix: the cap-2 workloads must overflow,
    // otherwise the policy × staging axes collapse into the unbounded run.
    let pattern = path_pattern(11);
    let (metrics, _, drops) = run_artifacts(
        Path::new(N),
        Greedy::new(GreedyPolicy::Fifo),
        &pattern,
        Some((2, StagingMode::Exempt, DropPolicyKind::Tail)),
    );
    assert!(
        metrics.contains("\"dropped\""),
        "metrics JSON shape changed"
    );
    assert!(drops > 0, "cap-2 path cell never dropped");
    let (tree, tree_pattern) = tree_workload(5);
    let (_, _, tree_drops) = run_artifacts(
        tree,
        Greedy::new(GreedyPolicy::Fifo),
        &tree_pattern,
        Some((2, StagingMode::Exempt, DropPolicyKind::Tail)),
    );
    assert!(tree_drops > 0, "cap-2 tree cell never dropped");
}
