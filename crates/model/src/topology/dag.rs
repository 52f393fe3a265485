//! General directed acyclic networks with deterministic next-hop routing.
//!
//! The paper proves its AQT bounds for paths and trees, but poses the
//! space-bandwidth question for general networks, and the closest related
//! work (Even & Medina; Even, Medina & Patt-Shamir) lives on grids. [`Dag`]
//! opens that workload: any acyclic digraph, with deterministic shortest-path
//! routing fixed at construction time, so that every `(from, dest)` pair has
//! a *unique* route — the property the engine and the metrics rely on.
//!
//! Routing is **first-edge shortest-path**: among the out-edges of `v` that
//! lie on a shortest route to `dest`, the one inserted earliest wins. The
//! [`grid`](Dag::grid) constructor inserts each node's row edge before its
//! column edge, which makes the tie-break reproduce classical
//! **row-column (XY) routing**: packets travel along their row to the
//! destination column, then down.
//!
//! Routing is **computed, not tabulated**, wherever a closed form exists:
//! grids answer `next_hop`/`route_len` from coordinates (XY routing is
//! O(1) arithmetic — Even & Medina's grid routing never materializes
//! tables), butterflies from the bit pattern of `row XOR dest_row`, and
//! diamonds from the three-layer shape. Adjacency is computed the same
//! way: a grid, butterfly or diamond is only its dimensions, and answers
//! `out_degree`, `out_neighbor`, `edge_count` and `edges` from them, so
//! building a million-node mesh allocates nothing. Every edge of these
//! families goes from a smaller id to a larger one, so their ids are
//! already a topological order. Only [`Dag::from_edges`] on an arbitrary
//! edge list (and so [`Dag::random_dag`]) stores a CSR adjacency, checks
//! acyclicity with Kahn's algorithm and falls back to dense `O(n²)`
//! next-hop/distance tables, confined to the `dense` module. The
//! computed and dense paths agree input-for-input: building the same mesh
//! through `from_edges` yields identical adjacency and routing — the
//! property the `computed_routing` differential suite checks on every
//! node and every `(from, dest)` pair.
//!
//! Single-out topologies embed losslessly: [`Dag::from`] a [`Path`] or a
//! [`DirectedTree`] yields a DAG whose `next_hop`, `route_len`,
//! `route_buffers` and `on_route` agree with the original at every input —
//! the contract the differential conformance harness (`tests/
//! dag_conformance.rs`) checks byte-for-byte through the engine.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::dense::DenseTables;
use crate::topology::spec::{addressable, invalid, TopologySpecError};
use crate::topology::{DirectedTree, Path, Topology};
use crate::util::SplitMix64;

/// Error produced when an edge list does not describe a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The DAG had zero nodes.
    Empty,
    /// An edge endpoint was out of range.
    NodeOutOfRange {
        /// The offending endpoint index.
        index: usize,
        /// Number of nodes.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// The same directed edge appeared twice.
    DuplicateEdge(NodeId, NodeId),
    /// The edges contain a directed cycle.
    Cyclic,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "DAG must have at least one node"),
            DagError::NodeOutOfRange { index, n } => {
                write!(f, "edge endpoint {index} is outside 0..{n}")
            }
            DagError::SelfLoop(v) => write!(f, "edge {v} -> {v} is a self-loop"),
            DagError::DuplicateEdge(u, v) => write!(f, "edge {u} -> {v} appears twice"),
            DagError::Cyclic => write!(f, "edge list contains a directed cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// How a [`Dag`] answers adjacency and routing queries: a structured
/// family's closed form, or the stored adjacency and dense tables of an
/// arbitrary edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Routing {
    /// An arbitrary edge list (the `from_edges`/`random_dag` fallback).
    Dense {
        /// CSR edge targets, grouped by source in insertion order.
        adj: Vec<NodeId>,
        /// CSR offsets: out-edges of `v` are `adj[adj_off[v]..adj_off[v+1]]`.
        adj_off: Vec<u32>,
        /// Dense `n × n` next-hop and distance tables.
        tables: DenseTables,
    },
    /// Row-column (XY) routing from coordinates; node `(r, c)` at
    /// `r·cols + c`.
    Grid {
        /// Mesh rows.
        rows: usize,
        /// Mesh columns.
        cols: usize,
    },
    /// Bit-fixing butterfly routing; node `(level, row)` at
    /// `level·2^k + row`.
    Butterfly {
        /// Dimension `k` (`k + 1` levels of `2^k` rows).
        k: u32,
    },
    /// Source → `width` middles → sink.
    Diamond {
        /// Number of parallel middle nodes.
        width: usize,
    },
}

/// A directed acyclic network with deterministic next-hop routing.
///
/// Adjacency and routing queries are O(1). The structured constructors
/// ([`grid`](Dag::grid), [`butterfly`](Dag::butterfly),
/// [`diamond`](Dag::diamond)) store only their dimensions and compute
/// out-neighbours, next hops and distances from coordinates — no
/// per-node or per-pair state, so a 1024×1024 mesh costs the same to
/// build and per query as an 8×8 one. [`from_edges`](Dag::from_edges)
/// stores the adjacency in CSR form (out-edges of `v` in insertion order)
/// and precomputes dense `n × n` tables as the general-graph fallback.
///
/// Serialization stores only the defining data — the constructor
/// parameters for computed families, the insertion-ordered edge list for
/// the dense fallback — and deserialization rebuilds through the same
/// constructors, so replayed artifacts re-run the full validation and
/// never carry `O(n²)` derived tables.
///
/// # Examples
///
/// ```
/// use aqt_model::{Dag, NodeId, Topology};
///
/// // A 2×3 mesh with row-column routing: 0 1 2 / 3 4 5.
/// let g = Dag::grid(2, 3);
/// assert_eq!(g.node_count(), 6);
/// // From the top-left corner toward the bottom-right: row first.
/// assert_eq!(
///     g.next_hop(NodeId::new(0), NodeId::new(5)),
///     Some(NodeId::new(1)),
/// );
/// assert_eq!(g.route_len(NodeId::new(0), NodeId::new(5)), Some(3));
/// assert_eq!(g.out_degree(NodeId::new(0)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    /// Number of nodes (derived from the dimensions or the edge list;
    /// kept because every routing query range-checks against it).
    n: usize,
    /// The adjacency and routing representation.
    routing: Routing,
    /// `(rows, cols)` when built by [`Dag::grid`] (drives renderers).
    grid: Option<(usize, usize)>,
}

/// Validates an edge list and builds the CSR adjacency plus a topological
/// order — everything a [`Dag`] needs *except* a routing representation.
#[allow(clippy::type_complexity)]
fn validated_parts(
    n: usize,
    edges: &[(usize, usize)],
) -> Result<(Vec<NodeId>, Vec<u32>, Vec<NodeId>), DagError> {
    if n == 0 {
        return Err(DagError::Empty);
    }
    let mut out_deg = vec![0u32; n];
    for &(u, v) in edges {
        if u >= n {
            return Err(DagError::NodeOutOfRange { index: u, n });
        }
        if v >= n {
            return Err(DagError::NodeOutOfRange { index: v, n });
        }
        if u == v {
            return Err(DagError::SelfLoop(NodeId::new(u)));
        }
        out_deg[u] += 1;
    }
    let mut adj_off = vec![0u32; n + 1];
    for v in 0..n {
        adj_off[v + 1] = adj_off[v] + out_deg[v];
    }
    let mut adj = vec![NodeId::new(0); edges.len()];
    let mut cursor: Vec<u32> = adj_off[..n].to_vec();
    for &(u, v) in edges {
        adj[cursor[u] as usize] = NodeId::new(v);
        cursor[u] += 1;
    }
    // Duplicate detection within each (now grouped) adjacency list.
    for v in 0..n {
        let list = &adj[adj_off[v] as usize..adj_off[v + 1] as usize];
        for (i, &a) in list.iter().enumerate() {
            if list[i + 1..].contains(&a) {
                return Err(DagError::DuplicateEdge(NodeId::new(v), a));
            }
        }
    }
    // Kahn's algorithm: a complete topological order proves acyclicity.
    let mut in_deg = vec![0u32; n];
    for &t in &adj {
        in_deg[t.index()] += 1;
    }
    let mut topo: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<NodeId> = (0..n)
        .filter(|&v| in_deg[v] == 0)
        .map(NodeId::new)
        .collect();
    while let Some(v) = queue.pop_front() {
        topo.push(v);
        for &t in &adj[adj_off[v.index()] as usize..adj_off[v.index() + 1] as usize] {
            in_deg[t.index()] -= 1;
            if in_deg[t.index()] == 0 {
                queue.push_back(t);
            }
        }
    }
    if topo.len() != n {
        return Err(DagError::Cyclic);
    }
    Ok((adj, adj_off, topo))
}

impl Dag {
    /// Builds a DAG on `n` nodes from a directed edge list, validating and
    /// precomputing the dense fallback routing tables.
    ///
    /// Edge insertion order is semantic: it is the routing tie-break (see
    /// the module docs). Prefer the structured constructors
    /// ([`grid`](Dag::grid), [`butterfly`](Dag::butterfly),
    /// [`diamond`](Dag::diamond)) where they apply — they store only their
    /// dimensions, with no adjacency and no `O(n²)` table cost.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] if `n == 0`, an endpoint is out of range, an
    /// edge is a self-loop or a duplicate, or the edges form a cycle.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, DagError> {
        let (adj, adj_off, topo) = validated_parts(n, edges)?;
        let tables = DenseTables::build(n, &adj, &adj_off, &topo);
        Ok(Dag {
            n,
            routing: Routing::Dense {
                adj,
                adj_off,
                tables,
            },
            grid: None,
        })
    }

    /// A `rows × cols` mesh with edges pointing right (within a row) and
    /// down (within a column); node `(r, c)` has id `r·cols + c`. The row
    /// edge comes first, so routing is row-column (XY): along the row to
    /// the destination column, then down. Adjacency and routing are
    /// computed from coordinates, so building any mesh costs O(1).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`, or if the mesh has more than
    /// `u32::MAX` nodes or edges (node ids and edge offsets are 32-bit).
    pub fn grid(rows: usize, cols: usize) -> Self {
        Dag::try_grid(rows, cols).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dag::grid`], or the error naming the parameter or the 32-bit
    /// limit the dimensions break.
    pub(super) fn try_grid(rows: usize, cols: usize) -> Result<Self, TopologySpecError> {
        if rows == 0 || cols == 0 {
            return Err(invalid("grid", "rows and cols must be at least 1"));
        }
        let (r, c) = (rows as u64, cols as u64);
        addressable("grid", "nodes", r.checked_mul(c))?;
        // r·c fits 32 bits now, so the edge count cannot overflow.
        addressable("grid", "edges", Some(2 * r * c - r - c))?;
        Ok(Dag {
            n: rows * cols,
            routing: Routing::Grid { rows, cols },
            grid: Some((rows, cols)),
        })
    }

    /// The `k`-dimensional butterfly: `k + 1` levels of `2^k` rows each,
    /// node `(level, row)` at id `level·2^k + row`, with a *straight* edge
    /// to `(level+1, row)` (listed first) and a *cross* edge to
    /// `(level+1, row XOR 2^level)`. Routing is bit-fixing, computed from
    /// `row XOR dest_row` — no tables.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not in `1..=26`: at `k = 27` the nodes still fit
    /// 32-bit ids, but the edges overflow 32-bit edge offsets.
    pub fn butterfly(k: u32) -> Self {
        Dag::try_butterfly(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dag::butterfly`], or the error naming the range or the 32-bit
    /// limit `k` breaks.
    pub(super) fn try_butterfly(k: u32) -> Result<Self, TopologySpecError> {
        if k == 0 || k > 27 {
            return Err(invalid("butterfly", "dimension must be in 1..=27"));
        }
        // (k+1)·2^k nodes always fit; k·2^(k+1) edges do up to k = 26.
        addressable("butterfly", "edges", Some(u64::from(k) << (k + 1)))?;
        Ok(Dag {
            n: (k as usize + 1) << k,
            routing: Routing::Butterfly { k },
            grid: None,
        })
    }

    /// A diamond: one source (node 0) fanning out to `width` parallel
    /// middle nodes (`1..=width`), all converging on one sink
    /// (`width + 1`). The canonical multi-out-edge / multi-in-edge stress
    /// shape; adjacency and routing are computed from the three layers.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`, or if the diamond has more than `u32::MAX`
    /// nodes or edges.
    pub fn diamond(width: usize) -> Self {
        Dag::try_diamond(width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Dag::diamond`], or the error naming the parameter or the 32-bit
    /// limit `width` breaks.
    pub(super) fn try_diamond(width: usize) -> Result<Self, TopologySpecError> {
        if width == 0 {
            return Err(invalid("diamond", "need at least one middle node"));
        }
        let width64 = width as u64;
        addressable("diamond", "nodes", width64.checked_add(2))?;
        addressable("diamond", "edges", width64.checked_mul(2))?;
        Ok(Dag {
            n: width + 2,
            routing: Routing::Diamond { width },
            grid: None,
        })
    }

    /// A pseudo-random DAG on `n` nodes, deterministic in `seed`: the spine
    /// path `0 → 1 → … → n−1` is always present (so every pair `i < j` is
    /// connected and the DAG embeds a path), and every remaining forward
    /// edge `(i, j)` with `j > i + 1` is included independently with
    /// probability `density`. No closed routing form exists for it, so it
    /// uses the dense-table fallback of [`Dag::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `density` is not within `0.0..=1.0`.
    pub fn random_dag(n: usize, density: f64, seed: u64) -> Self {
        assert!(n > 0, "random DAG must have at least one node");
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be a probability"
        );
        let mut rng = SplitMix64::new(seed);
        // P(next_u64 < threshold) = density, computed in u128 to allow
        // density = 1.0 without overflow.
        let threshold = (density * (u64::MAX as f64)) as u128;
        let mut edges = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                edges.push((i, i + 1));
            }
            for j in i + 2..n {
                if u128::from(rng.next_u64()) < threshold {
                    edges.push((i, j));
                }
            }
        }
        Dag::from_edges(n, &edges).expect("forward edge list is acyclic")
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        match &self.routing {
            Routing::Dense { adj, .. } => adj.len(),
            Routing::Grid { rows, cols } => 2 * rows * cols - rows - cols,
            Routing::Butterfly { k } => (*k as usize) << (k + 1),
            Routing::Diamond { width } => 2 * width,
        }
    }

    /// Whether `v` has no outgoing edges.
    pub fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// `(rows, cols)` when this DAG was built by [`Dag::grid`] — renderers
    /// use it to lay nodes out spatially.
    pub fn grid_dims(&self) -> Option<(usize, usize)> {
        self.grid
    }

    /// Whether routing is answered from a closed form (no dense tables).
    pub fn is_computed_routing(&self) -> bool {
        !matches!(self.routing, Routing::Dense { .. })
    }

    /// The edge list in per-source insertion order — exactly the input
    /// that [`Dag::from_edges`] rebuilds this DAG (routing tie-breaks
    /// included) from.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.node_count())
            .flat_map(|v| {
                (0..)
                    .map_while(move |i| self.out_neighbor(NodeId::new(v), i))
                    .map(move |u| (v, u.index()))
            })
            .collect()
    }
}

// Serialization carries only the defining data: the constructor parameters
// for computed families (a 1024×1024 mesh is three numbers, not two
// million edge pairs), the insertion-ordered edge list for the dense
// fallback. Deserialization rebuilds through the constructors, so
// replayed artifacts re-run the full validation, cannot smuggle in tables
// that disagree with the adjacency, and never materialize `O(n²)` state
// for computed families. Each family writes different fields and a dense
// DAG writes no `routing`; no serde attribute spells that, so both impls
// are hand-written.
// #[allow(aqt::no-hand-serde)] per-family archive
impl Serialize for Dag {
    fn to_value(&self) -> serde::Value {
        match &self.routing {
            Routing::Dense { .. } => serde::Value::Object(vec![
                ("n".into(), self.node_count().to_value()),
                ("edges".into(), self.edges().to_value()),
                ("grid".into(), self.grid.to_value()),
            ]),
            Routing::Grid { .. } => serde::Value::Object(vec![
                ("n".into(), self.node_count().to_value()),
                ("routing".into(), serde::Value::Str("grid".into())),
                ("grid".into(), self.grid.to_value()),
            ]),
            Routing::Butterfly { k } => serde::Value::Object(vec![
                ("n".into(), self.node_count().to_value()),
                ("routing".into(), serde::Value::Str("butterfly".into())),
                ("k".into(), k.to_value()),
            ]),
            Routing::Diamond { width } => serde::Value::Object(vec![
                ("n".into(), self.node_count().to_value()),
                ("routing".into(), serde::Value::Str("diamond".into())),
                ("width".into(), width.to_value()),
            ]),
        }
    }
}

// #[allow(aqt::no-hand-serde)] rebuilds through the validating constructors
impl Deserialize for Dag {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{field, object};
        let obj = object(v, "DAG")?;
        let n: usize = field(obj, "n")?;
        let routing: Option<String> = field(obj, "routing")?;
        let computed = match routing.as_deref() {
            None | Some("dense") => {
                let edges: Vec<(usize, usize)> = field(obj, "edges")?;
                let grid: Option<(usize, usize)> = field(obj, "grid")?;
                let mut dag = Dag::from_edges(n, &edges).map_err(serde::Error::custom)?;
                if let Some((rows, cols)) = grid {
                    if rows.checked_mul(cols) != Some(n) {
                        return Err(serde::Error::custom("grid dims do not cover the node set"));
                    }
                    dag.grid = Some((rows, cols));
                }
                return Ok(dag);
            }
            Some("grid") => {
                let dims: Option<(usize, usize)> = field(obj, "grid")?;
                let (rows, cols) =
                    dims.ok_or_else(|| serde::Error::custom("grid routing needs grid dims"))?;
                Dag::try_grid(rows, cols)
            }
            Some("butterfly") => Dag::try_butterfly(field(obj, "k")?),
            Some("diamond") => Dag::try_diamond(field(obj, "width")?),
            Some(other) => {
                return Err(serde::Error::custom(format!(
                    "unknown DAG routing kind {other:?}"
                )))
            }
        };
        // The same checks as `TopologySpec::build`, in checked arithmetic:
        // the error names the parameter or the 32-bit limit it breaks.
        let dag = computed.map_err(serde::Error::custom)?;
        if dag.node_count() != n {
            return Err(serde::Error::custom(format!(
                "{} dims give {} nodes, not n = {n}",
                routing.unwrap_or_default(),
                dag.node_count()
            )));
        }
        Ok(dag)
    }
}

impl From<Path> for Dag {
    /// Embeds the path `0 → 1 → … → n−1`; routing agrees with [`Path`] at
    /// every input.
    fn from(path: Path) -> Self {
        let n = path.node_count();
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Dag::from_edges(n, &edges).expect("path edge list is acyclic")
    }
}

impl From<&DirectedTree> for Dag {
    /// Embeds a directed tree (every edge child → parent); routing agrees
    /// with [`DirectedTree`] at every input.
    fn from(tree: &DirectedTree) -> Self {
        let n = tree.node_count();
        let edges: Vec<(usize, usize)> = (0..n)
            .filter_map(|v| tree.parent(NodeId::new(v)).map(|p| (v, p.index())))
            .collect();
        Dag::from_edges(n, &edges).expect("tree edge list is acyclic")
    }
}

impl From<DirectedTree> for Dag {
    fn from(tree: DirectedTree) -> Self {
        Dag::from(&tree)
    }
}

/// Splits node index `i` into `(row, col)` on a `cols`-wide grid,
/// strength-reducing the division when `cols` is a power of two (the
/// common experiment shapes). The XY closed forms run a few of these per
/// forwarded packet per round, so the saved hardware divides are visible
/// at mesh scale.
#[inline]
fn row_col(i: usize, cols: usize) -> (usize, usize) {
    if cols.is_power_of_two() {
        (i >> cols.trailing_zeros(), i & (cols - 1))
    } else {
        (i / cols, i % cols)
    }
}

/// The out-neighbours of `v` on a `rows × cols` mesh, in insertion
/// order: the row edge (right), then the column edge (down).
fn grid_out(v: usize, rows: usize, cols: usize) -> impl Iterator<Item = usize> {
    let (r, c) = row_col(v, cols);
    let right = (c + 1 < cols).then_some(v + 1);
    right.into_iter().chain((r + 1 < rows).then_some(v + cols))
}

/// The out-neighbours of `v` on the `k`-dimensional butterfly, in
/// insertion order: the straight edge, then the cross edge.
fn butterfly_out(v: usize, k: u32) -> impl Iterator<Item = usize> {
    let per_level = 1usize << k;
    let (level, row) = (v / per_level, v % per_level);
    (level < k as usize)
        .then(|| {
            [
                v + per_level,
                (level + 1) * per_level + (row ^ (1 << level)),
            ]
        })
        .into_iter()
        .flatten()
}

/// The out-neighbours of `v` on a diamond with `width` middles, in
/// insertion order: the source's middles ascending, a middle's sink.
fn diamond_out(v: usize, width: usize) -> std::ops::Range<usize> {
    match v {
        0 => 1..width + 1,
        _ if v <= width => width + 1..width + 2,
        _ => 0..0,
    }
}

impl Topology for Dag {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        let n = self.node_count();
        let (f, d) = (from.index(), dest.index());
        if f >= n || d >= n || f == d {
            return None;
        }
        match &self.routing {
            Routing::Dense { tables, .. } => tables.next_hop(f, d),
            // XY: along the row to the destination column, then down —
            // exactly the row-edge-first tie-break of the dense DP.
            Routing::Grid { cols, .. } => {
                let (r, c) = row_col(f, *cols);
                let (dr, dc) = row_col(d, *cols);
                if dr < r || dc < c {
                    return None;
                }
                Some(NodeId::new(if c < dc { f + 1 } else { f + cols }))
            }
            // Bit-fixing: the bit at the current level decides straight
            // vs cross; exactly one choice preserves reachability, so the
            // straight-edge-first tie-break never actually ties.
            Routing::Butterfly { k } => {
                let per_level = 1usize << k;
                let (l1, r1) = (f / per_level, f % per_level);
                let (l2, r2) = (d / per_level, d % per_level);
                let diff = r1 ^ r2;
                if l1 >= l2 || (diff >> l2) != 0 || (diff & ((1 << l1) - 1)) != 0 {
                    return None;
                }
                Some(NodeId::new(if diff & (1 << l1) == 0 {
                    f + per_level // straight
                } else {
                    (l1 + 1) * per_level + (r1 ^ (1 << l1)) // cross
                }))
            }
            // Source → first middle (the insertion-order tie-break) or the
            // named middle; middles → sink.
            Routing::Diamond { width } => {
                let sink = width + 1;
                if f == 0 {
                    Some(NodeId::new(if d == sink { 1 } else { d }))
                } else if d == sink {
                    Some(NodeId::new(sink))
                } else {
                    None
                }
            }
        }
    }

    fn reaches(&self, from: NodeId, dest: NodeId) -> bool {
        let n = self.node_count();
        let (f, d) = (from.index(), dest.index());
        if f >= n || d >= n {
            return false;
        }
        if f == d {
            return true;
        }
        match &self.routing {
            Routing::Dense { tables, .. } => tables.reaches(f, d),
            Routing::Grid { cols, .. } => {
                let (r, c) = row_col(f, *cols);
                let (dr, dc) = row_col(d, *cols);
                dr >= r && dc >= c
            }
            Routing::Butterfly { k } => {
                let per_level = 1usize << k;
                let (l1, l2) = (f / per_level, d / per_level);
                let diff = (f % per_level) ^ (d % per_level);
                l1 <= l2 && (diff >> l2) == 0 && (diff & ((1 << l1) - 1)) == 0
            }
            Routing::Diamond { width } => f == 0 || (d == width + 1 && f <= *width),
        }
    }

    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize> {
        let n = self.node_count();
        let (f, d) = (from.index(), dest.index());
        if f >= n || d >= n {
            return None;
        }
        if f == d {
            return Some(0);
        }
        match &self.routing {
            Routing::Dense { tables, .. } => tables.route_len(f, d),
            Routing::Grid { cols, .. } => {
                let (r, c) = row_col(f, *cols);
                let (dr, dc) = row_col(d, *cols);
                (dr >= r && dc >= c).then(|| (dr - r) + (dc - c))
            }
            Routing::Butterfly { k } => {
                let per_level = 1usize << k;
                let (l1, l2) = (f / per_level, d / per_level);
                let diff = (f % per_level) ^ (d % per_level);
                (l1 <= l2 && (diff >> l2) == 0 && (diff & ((1 << l1) - 1)) == 0).then(|| l2 - l1)
            }
            Routing::Diamond { width } => {
                let sink = width + 1;
                if f == 0 {
                    Some(if d == sink { 2 } else { 1 })
                } else if d == sink {
                    Some(1)
                } else {
                    None
                }
            }
        }
    }

    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool {
        // Membership on the *chosen* route (not "any shortest path"),
        // matching the route_buffers default exactly.
        if let Routing::Grid { cols, rows } = &self.routing {
            // The chosen XY route is the L: row `r` from `c` to `dc`,
            // then column `dc` from `r` to `dr`, destination excluded.
            let n = rows * cols;
            let (f, d) = (from.index(), dest.index());
            if f >= n || d >= n {
                return false;
            }
            let (r, c) = row_col(f, *cols);
            let (dr, dc) = row_col(d, *cols);
            if dr < r || dc < c || v == dest {
                return false;
            }
            let (vr, vc) = row_col(v.index(), *cols);
            return (vr == r && vc >= c && vc <= dc) || (vc == dc && vr >= r && vr <= dr);
        }
        if !self.reaches(from, dest) {
            return false;
        }
        let mut at = from;
        while at != dest {
            if at == v {
                return true;
            }
            at = self
                .next_hop(at, dest)
                .expect("reaches() implies a next-hop chain");
        }
        false
    }

    fn out_degree(&self, v: NodeId) -> usize {
        let v = v.index();
        match &self.routing {
            Routing::Dense { adj_off, .. } => (adj_off[v + 1] - adj_off[v]) as usize,
            Routing::Grid { rows, cols } => grid_out(v, *rows, *cols).count(),
            Routing::Butterfly { k } => butterfly_out(v, *k).count(),
            Routing::Diamond { width } => diamond_out(v, *width).len(),
        }
    }

    fn out_neighbor(&self, v: NodeId, i: usize) -> Option<NodeId> {
        let v = v.index();
        match &self.routing {
            Routing::Dense { adj, adj_off, .. } => adj
                [adj_off[v] as usize..adj_off[v + 1] as usize]
                .get(i)
                .copied(),
            Routing::Grid { rows, cols } => grid_out(v, *rows, *cols).nth(i).map(NodeId::new),
            Routing::Butterfly { k } => butterfly_out(v, *k).nth(i).map(NodeId::new),
            Routing::Diamond { width } => diamond_out(v, *width).nth(i).map(NodeId::new),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_validates() {
        assert_eq!(Dag::from_edges(0, &[]), Err(DagError::Empty));
        assert_eq!(
            Dag::from_edges(2, &[(0, 2)]),
            Err(DagError::NodeOutOfRange { index: 2, n: 2 })
        );
        assert_eq!(
            Dag::from_edges(2, &[(1, 1)]),
            Err(DagError::SelfLoop(NodeId::new(1)))
        );
        assert_eq!(
            Dag::from_edges(2, &[(0, 1), (0, 1)]),
            Err(DagError::DuplicateEdge(NodeId::new(0), NodeId::new(1)))
        );
        assert_eq!(
            Dag::from_edges(3, &[(0, 1), (1, 2), (2, 0)]),
            Err(DagError::Cyclic)
        );
        assert!(Dag::from_edges(1, &[]).is_ok());
    }

    #[test]
    fn errors_display_and_implement_error() {
        let e: Box<dyn std::error::Error> = Box::new(DagError::Cyclic);
        assert!(e.to_string().contains("cycle"));
        assert!(DagError::SelfLoop(NodeId::new(3))
            .to_string()
            .contains("v3"));
    }

    #[test]
    fn grid_routes_row_first() {
        // 0 1 2
        // 3 4 5
        let g = Dag::grid(2, 3);
        assert_eq!(g.edge_count(), 7);
        assert!(g.is_computed_routing());
        // 0 → 5: row to column 2, then down.
        let route = g
            .route_buffers(NodeId::new(0), NodeId::new(5))
            .expect("reachable");
        assert_eq!(route, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(g.route_len(NodeId::new(0), NodeId::new(5)), Some(3));
        // Same column: straight down.
        assert_eq!(
            g.next_hop(NodeId::new(1), NodeId::new(4)),
            Some(NodeId::new(4))
        );
        // No leftward/upward routes.
        assert!(!g.reaches(NodeId::new(5), NodeId::new(0)));
        assert!(!g.reaches(NodeId::new(1), NodeId::new(3)));
        assert_eq!(g.grid_dims(), Some((2, 3)));
        assert!(g.is_sink(NodeId::new(5)));
        assert_eq!(g.out_degree(NodeId::new(0)), 2);
        assert_eq!(g.out_degree(NodeId::new(2)), 1);
    }

    #[test]
    fn grid_on_route_follows_the_chosen_route_only() {
        let g = Dag::grid(2, 3);
        // The chosen 0 → 5 route goes 0,1,2 — node 3 (down first) is a
        // shortest-path node but NOT on the chosen route.
        assert!(g.on_route(NodeId::new(0), NodeId::new(5), NodeId::new(1)));
        assert!(!g.on_route(NodeId::new(0), NodeId::new(5), NodeId::new(3)));
        assert!(!g.on_route(NodeId::new(0), NodeId::new(5), NodeId::new(5)));
    }

    #[test]
    fn computed_grid_agrees_with_dense_twin_everywhere() {
        // The dense twin: same edges, same tie-breaks, table-backed.
        let g = Dag::grid(3, 4);
        let dense = Dag::from_edges(12, &g.edges()).unwrap();
        assert!(!dense.is_computed_routing());
        for from in 0..12usize {
            for dest in 0..12usize {
                let (f, d) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(g.next_hop(f, d), dense.next_hop(f, d), "{f}->{d}");
                assert_eq!(g.route_len(f, d), dense.route_len(f, d), "{f}->{d}");
                assert_eq!(g.reaches(f, d), dense.reaches(f, d), "{f}->{d}");
                for v in 0..12usize {
                    let v = NodeId::new(v);
                    assert_eq!(
                        g.on_route(f, d, v),
                        dense.on_route(f, d, v),
                        "{f}->{d} via {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn butterfly_shape_and_routing() {
        let b = Dag::butterfly(2); // 3 levels × 4 rows = 12 nodes
        assert_eq!(b.node_count(), 12);
        assert_eq!(b.edge_count(), 16);
        assert!(b.is_computed_routing());
        // Level 0 row 0 reaches every level-2 row in exactly 2 hops.
        for row in 0..4usize {
            assert_eq!(
                b.route_len(NodeId::new(0), NodeId::new(8 + row)),
                Some(2),
                "row {row}"
            );
        }
        // Straight edge is the tie-break winner toward the same row.
        assert_eq!(
            b.next_hop(NodeId::new(0), NodeId::new(8)),
            Some(NodeId::new(4))
        );
    }

    #[test]
    fn computed_butterfly_agrees_with_dense_twin_everywhere() {
        let b = Dag::butterfly(3); // 4 levels × 8 rows = 32 nodes
        let dense = Dag::from_edges(32, &b.edges()).unwrap();
        for from in 0..32usize {
            for dest in 0..32usize {
                let (f, d) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(b.next_hop(f, d), dense.next_hop(f, d), "{f}->{d}");
                assert_eq!(b.route_len(f, d), dense.route_len(f, d), "{f}->{d}");
                assert_eq!(b.reaches(f, d), dense.reaches(f, d), "{f}->{d}");
            }
        }
    }

    #[test]
    fn diamond_fans_out_and_back_in() {
        let d = Dag::diamond(3);
        assert_eq!(d.node_count(), 5);
        assert!(d.is_computed_routing());
        assert_eq!(d.out_degree(NodeId::new(0)), 3);
        assert_eq!(d.route_len(NodeId::new(0), NodeId::new(4)), Some(2));
        // Deterministic tie-break: first middle node wins.
        assert_eq!(
            d.next_hop(NodeId::new(0), NodeId::new(4)),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn computed_diamond_agrees_with_dense_twin_everywhere() {
        let dia = Dag::diamond(4);
        let dense = Dag::from_edges(6, &dia.edges()).unwrap();
        for from in 0..6usize {
            for dest in 0..6usize {
                let (f, d) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(dia.next_hop(f, d), dense.next_hop(f, d), "{f}->{d}");
                assert_eq!(dia.route_len(f, d), dense.route_len(f, d), "{f}->{d}");
                assert_eq!(dia.reaches(f, d), dense.reaches(f, d), "{f}->{d}");
                for v in 0..6usize {
                    let v = NodeId::new(v);
                    assert_eq!(dia.on_route(f, d, v), dense.on_route(f, d, v));
                }
            }
        }
    }

    #[test]
    fn random_dag_is_deterministic_and_contains_the_spine() {
        let a = Dag::random_dag(24, 0.3, 7);
        let b = Dag::random_dag(24, 0.3, 7);
        assert_eq!(a, b);
        assert_ne!(a, Dag::random_dag(24, 0.3, 8));
        assert!(!a.is_computed_routing());
        // The spine guarantees i < j reachability everywhere.
        for i in 0..24usize {
            for j in i..24 {
                assert!(a.reaches(NodeId::new(i), NodeId::new(j)), "{i} -> {j}");
            }
        }
        // Density extremes.
        assert_eq!(Dag::random_dag(10, 0.0, 1).edge_count(), 9);
        assert_eq!(Dag::random_dag(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn path_embedding_agrees_with_path() {
        let n = 9usize;
        let p = Path::new(n);
        let d = Dag::from(p);
        assert_eq!(d.node_count(), n);
        for from in 0..n {
            for dest in 0..n {
                let (from, dest) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(d.next_hop(from, dest), p.next_hop(from, dest));
                assert_eq!(d.reaches(from, dest), p.reaches(from, dest));
                assert_eq!(d.route_len(from, dest), p.route_len(from, dest));
                assert_eq!(d.route_buffers(from, dest), p.route_buffers(from, dest));
                for v in 0..n {
                    let v = NodeId::new(v);
                    assert_eq!(d.on_route(from, dest, v), p.on_route(from, dest, v));
                }
            }
        }
    }

    #[test]
    fn tree_embedding_agrees_with_tree() {
        let t = DirectedTree::random(12, 3);
        let d = Dag::from(&t);
        let n = t.node_count();
        for from in 0..n {
            for dest in 0..n {
                let (from, dest) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(
                    d.next_hop(from, dest),
                    t.next_hop(from, dest),
                    "{from}->{dest}"
                );
                assert_eq!(d.reaches(from, dest), t.reaches(from, dest));
                assert_eq!(d.route_len(from, dest), t.route_len(from, dest));
                for v in 0..n {
                    let v = NodeId::new(v);
                    assert_eq!(d.on_route(from, dest, v), t.on_route(from, dest, v));
                }
            }
        }
    }

    #[test]
    fn single_node_dag_is_degenerate_but_valid() {
        let d = Dag::from_edges(1, &[]).unwrap();
        assert_eq!(d.node_count(), 1);
        assert!(d.reaches(NodeId::new(0), NodeId::new(0)));
        assert_eq!(d.route_len(NodeId::new(0), NodeId::new(0)), Some(0));
        assert_eq!(d.next_hop(NodeId::new(0), NodeId::new(0)), None);
        assert!(d.is_sink(NodeId::new(0)));
    }

    #[test]
    fn topo_order_respects_edges() {
        // Kahn's order on edges that all point to smaller ids, so the id
        // order itself is not topological.
        let edges: Vec<(usize, usize)> = Dag::random_dag(20, 0.4, 11)
            .edges()
            .into_iter()
            .map(|(u, v)| (19 - u, 19 - v))
            .collect();
        let (_, _, topo) = validated_parts(20, &edges).unwrap();
        let mut pos = [0usize; 20];
        for (i, &v) in topo.iter().enumerate() {
            pos[v.index()] = i;
        }
        for (u, v) in edges {
            assert!(pos[u] < pos[v], "edge v{u} -> v{v} goes backward");
        }
    }
}
