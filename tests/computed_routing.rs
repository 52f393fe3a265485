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

use small_buffers::model::util::SplitMix64;
use small_buffers::{Dag, DirectedTree, NodeId, Topology};

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
