//! Computed adjacency and routing ≡ dense tables, exhaustively.
//!
//! The million-node engine answers `next_hop`/`route_len`/`reaches`/
//! `on_route` from closed forms (XY arithmetic on grids, bit tricks on
//! butterflies, layer arithmetic on diamonds, Euler intervals on trees)
//! instead of `O(n²)` tables, and grids, butterflies and diamonds answer
//! their adjacency from their dimensions instead of a stored edge list.
//! These are drop-in replacements only if they agree with the dense-table
//! fallback **input-for-input**: for every DAG family this suite builds
//! the *dense twin* — `Dag::from_edges` on the computed topology's own
//! edge list, which stores a CSR adjacency, re-runs the duplicate scan
//! and Kahn's acyclicity check, and always routes from tables — and
//! checks every adjacency query at every node and every routing query at
//! every pair of nodes, on randomized shapes up to ~200 nodes. Trees are
//! checked against a literal parent-walk instead (the pre-interval
//! reference semantics).
//!
//! It also pins how often a run routes: the engine routes a packet once
//! per buffer it enters and stores the hop, so stepping makes exactly
//! `injected + forwarded − delivered` `next_hop` calls, counted through a
//! wrapping topology. Re-routing every round would leave the output
//! unchanged and cost only time; the count catches it deterministically.

use std::cell::Cell;

use small_buffers::model::util::SplitMix64;
use small_buffers::{
    CapacityConfig, Dag, DagGreedy, DirectedTree, DropPolicyKind, Injection, NodeId, Pattern,
    Protocol, Simulation, Topology,
};

/// Asserts `g` (computed adjacency and routing) and its dense twin agree
/// on every adjacency query at every node and on every routing query at
/// every `(from, dest)` pair, and on `on_route` at every `(from, dest, v)`
/// triple for a deterministic sample of `v`. Also checks that the ids
/// are a topological order: every edge goes to a larger id.
fn assert_matches_dense_twin(label: &str, g: &Dag) {
    assert!(g.is_computed_routing(), "{label}: expected a closed form");
    let dense = Dag::from_edges(g.node_count(), &g.edges()).expect("twin edge list is acyclic");
    assert!(
        !dense.is_computed_routing(),
        "{label}: twin must use tables"
    );
    let n = g.node_count();
    assert_eq!(g.edge_count(), dense.edge_count(), "{label}: edge_count");
    for v in 0..n {
        let v = NodeId::new(v);
        let degree = g.out_degree(v);
        assert_eq!(degree, dense.out_degree(v), "{label}: out_degree({v})");
        assert_eq!(g.is_sink(v), dense.is_sink(v), "{label}: is_sink({v})");
        for i in 0..=degree + 1 {
            let head = g.out_neighbor(v, i);
            assert_eq!(
                head,
                dense.out_neighbor(v, i),
                "{label}: out_neighbor({v}, {i})"
            );
            assert_eq!(
                head.is_some(),
                i < degree,
                "{label}: out_neighbor({v}, {i})"
            );
            if let Some(head) = head {
                assert!(head > v, "{label}: edge {v} -> {head} goes to a smaller id");
            }
        }
    }
    let mut rng = SplitMix64::new(0xD15C0);
    for from in 0..n {
        let from = NodeId::new(from);
        for dest in 0..n {
            let dest = NodeId::new(dest);
            assert_eq!(
                g.next_hop(from, dest),
                dense.next_hop(from, dest),
                "{label}: next_hop({from}, {dest})"
            );
            assert_eq!(
                g.route_len(from, dest),
                dense.route_len(from, dest),
                "{label}: route_len({from}, {dest})"
            );
            assert_eq!(
                g.reaches(from, dest),
                dense.reaches(from, dest),
                "{label}: reaches({from}, {dest})"
            );
            // All triples would be O(n³); a seeded sample per pair keeps
            // the suite fast while still covering every pair's route.
            for _ in 0..4 {
                let v = NodeId::new(rng.below(n as u64) as usize);
                assert_eq!(
                    g.on_route(from, dest, v),
                    dense.on_route(from, dest, v),
                    "{label}: on_route({from}, {dest}, {v})"
                );
            }
        }
    }
}

#[test]
fn grid_xy_routing_matches_dense_tables_on_random_shapes() {
    // Deterministically random mesh shapes up to ~200 nodes, plus the
    // degenerate single-row/single-column meshes.
    let mut rng = SplitMix64::new(42);
    let mut shapes = vec![(1, 1), (1, 17), (17, 1), (2, 2), (14, 14)];
    for _ in 0..6 {
        let rows = 1 + rng.below(14) as usize;
        let cols = 1 + rng.below((200 / rows) as u64) as usize;
        shapes.push((rows, cols));
    }
    for (rows, cols) in shapes {
        assert_matches_dense_twin(&format!("grid {rows}x{cols}"), &Dag::grid(rows, cols));
    }
}

#[test]
fn butterfly_routing_matches_dense_tables() {
    // (k + 1) · 2^k nodes: k = 4 is 80 nodes, k = 5 is 192.
    for k in 1..=5u32 {
        assert_matches_dense_twin(&format!("butterfly k={k}"), &Dag::butterfly(k));
    }
}

#[test]
fn diamond_routing_matches_dense_tables() {
    for width in [1usize, 2, 3, 7, 50, 198] {
        assert_matches_dense_twin(&format!("diamond w={width}"), &Dag::diamond(width));
    }
}

#[test]
fn random_dag_stays_on_the_dense_fallback() {
    // Arbitrary edge lists have no closed form: the fallback must engage,
    // and the serialized form must archive the edges (see
    // `tests/serde_roundtrip.rs` for the full serde contract).
    let g = Dag::random_dag(40, 0.3, 9);
    assert!(!g.is_computed_routing());
}

/// The pre-interval reference semantics: walk `from`'s ancestor chain.
fn walk_to(tree: &DirectedTree, from: NodeId, dest: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![from];
    let mut v = from;
    while v != dest {
        v = tree.parent(v)?;
        path.push(v);
    }
    Some(path)
}

#[test]
fn tree_interval_routing_matches_the_parent_walk() {
    let trees = [
        ("path", DirectedTree::path(60)),
        ("star", DirectedTree::star(59)),
        ("binary", DirectedTree::full_binary(6)),
        ("caterpillar", DirectedTree::caterpillar(20, 4)),
        ("random-small", DirectedTree::random(37, 5)),
        ("random-large", DirectedTree::random(200, 11)),
    ];
    let mut rng = SplitMix64::new(7);
    for (label, tree) in trees {
        let n = tree.node_count();
        for from in 0..n {
            let from = NodeId::new(from);
            for dest in 0..n {
                let dest = NodeId::new(dest);
                let walk = walk_to(&tree, from, dest);
                assert_eq!(
                    tree.reaches(from, dest),
                    walk.is_some(),
                    "{label}: reaches({from}, {dest})"
                );
                assert_eq!(
                    tree.is_ancestor_or_self(dest, from),
                    walk.is_some(),
                    "{label}: is_ancestor_or_self({dest}, {from})"
                );
                assert_eq!(
                    tree.route_len(from, dest),
                    walk.as_ref().map(|p| p.len() - 1),
                    "{label}: route_len({from}, {dest})"
                );
                assert_eq!(
                    tree.next_hop(from, dest),
                    walk.as_ref().and_then(|p| { (p.len() > 1).then(|| p[1]) }),
                    "{label}: next_hop({from}, {dest})"
                );
                // `on_route` is the strict prefix of the upward walk: the
                // destination itself does not count as "en route".
                let v = NodeId::new(rng.below(n as u64) as usize);
                assert_eq!(
                    tree.on_route(from, dest, v),
                    walk.as_ref().is_some_and(|p| v != dest && p.contains(&v)),
                    "{label}: on_route({from}, {dest}, {v})"
                );
            }
        }
    }
}

/// A topology that answers every query from `inner` and counts the
/// `next_hop` calls made through it (not those `inner` makes itself).
struct Counting<T> {
    inner: T,
    next_hops: Cell<u64>,
}

impl<T: Topology> Topology for Counting<T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        self.next_hops.set(self.next_hops.get() + 1);
        self.inner.next_hop(from, dest)
    }
    fn reaches(&self, from: NodeId, dest: NodeId) -> bool {
        self.inner.reaches(from, dest)
    }
    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize> {
        self.inner.route_len(from, dest)
    }
    fn route_buffers(&self, from: NodeId, dest: NodeId) -> Option<Vec<NodeId>> {
        self.inner.route_buffers(from, dest)
    }
    fn route_buffers_into(&self, from: NodeId, dest: NodeId, out: &mut Vec<NodeId>) -> bool {
        self.inner.route_buffers_into(from, dest, out)
    }
    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool {
        self.inner.on_route(from, dest, v)
    }
    fn contains(&self, id: NodeId) -> bool {
        self.inner.contains(id)
    }
    fn out_degree(&self, v: NodeId) -> usize {
        self.inner.out_degree(v)
    }
    fn out_neighbor(&self, v: NodeId, i: usize) -> Option<NodeId> {
        self.inner.out_neighbor(v, i)
    }
}

/// Runs `protocol` on `dag` under `pattern` until drained, unbounded or
/// at capacity 2 with `Head` drops (every arrival is placed, evicting the
/// oldest packet when the buffer is full), and asserts that stepping
/// routed exactly once per placement: `injected + forwarded − delivered`
/// `next_hop` calls. Also asserts that some buffer held packets bound for
/// two different links, so the per-link partition was exercised.
fn assert_routes_once_per_hop<P: Protocol<Counting<Dag>>>(
    label: &str,
    dag: &Dag,
    protocol: impl Fn() -> P,
    pattern: &Pattern,
) {
    let n = dag.node_count();
    for capped in [false, true] {
        let label = format!(
            "{label}, {}",
            if capped { "cap 2 Head" } else { "unbounded" }
        );
        let topology = Counting {
            inner: dag.clone(),
            next_hops: Cell::new(0),
        };
        let mut sim = Simulation::new(topology, protocol(), pattern).expect("valid pattern");
        if capped {
            sim = sim.with_capacity(CapacityConfig::uniform(2), DropPolicyKind::Head);
        }
        let before = sim.topology().next_hops.get();
        let mut split = false;
        // While packets are buffered some packet advances every round,
        // and none has more than `n` hops to go: a run that has not
        // drained by then has stranded packets.
        for _ in 0..pattern.len() * n {
            if sim.is_drained() {
                break;
            }
            sim.step().expect("valid round");
            split |= (0..n).map(NodeId::new).any(|v| {
                let buffer = sim.state().buffer(v);
                buffer
                    .iter()
                    .any(|sp| sp.next_hop() != buffer[0].next_hop())
            });
        }
        assert!(sim.is_drained(), "{label}: packets stranded");
        let calls = sim.topology().next_hops.get() - before;
        let m = sim.metrics();
        assert!(split, "{label}: no buffer held packets for two links");
        assert_eq!(m.dropped > 0, capped, "{label}: drops");
        assert_eq!(
            calls,
            m.injected + m.forwarded - m.delivered,
            "{label}: {calls} next_hop calls for {} injected, {} forwarded, {} delivered",
            m.injected,
            m.forwarded,
            m.delivered
        );
    }
}

/// Bursts at every node of a `rows × cols` mesh toward the end of its row
/// (leaving by the right link) and the bottom of its column (leaving by
/// the down link), so buffers fill with packets for both links.
fn mesh_bursts(rows: usize, cols: usize) -> Pattern {
    let mut injections = Vec::new();
    for t in 0..4u64 {
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                for dest in [r * cols + cols - 1, (rows - 1) * cols + c] {
                    if dest != v {
                        injections.push(Injection::new(t, v, dest));
                    }
                }
            }
        }
    }
    Pattern::from_injections(injections)
}

#[test]
fn dag_greedy_routes_once_per_hop_on_a_mesh() {
    // Width 5 is not a power of two, so XY routing divides.
    let grid = Dag::grid(7, 5);
    assert!(grid.is_computed_routing());
    let pattern = mesh_bursts(7, 5);
    assert_routes_once_per_hop("7x5 grid FIFO", &grid, DagGreedy::fifo, &pattern);
    assert_routes_once_per_hop("7x5 grid LIFO", &grid, DagGreedy::lifo, &pattern);
}

#[test]
fn dag_greedy_routes_once_per_hop_on_a_random_dag() {
    let dag = Dag::random_dag(30, 0.3, 17);
    assert!(!dag.is_computed_routing());
    // Every node sends to several later nodes in each of four rounds; the
    // spine edge `i → i + 1` makes every later node reachable.
    let n = dag.node_count();
    let mut rng = SplitMix64::new(5);
    let mut injections = Vec::new();
    for t in 0..4u64 {
        for src in 0..n - 1 {
            for _ in 0..3 {
                let dest = src + 1 + rng.below((n - 1 - src) as u64) as usize;
                injections.push(Injection::new(t, src, dest));
            }
        }
    }
    let pattern = Pattern::from_injections(injections);
    assert_routes_once_per_hop("random DAG FIFO", &dag, DagGreedy::fifo, &pattern);
    assert_routes_once_per_hop("random DAG LIFO", &dag, DagGreedy::lifo, &pattern);
}
