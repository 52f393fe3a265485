//! Declarative topology specs: serializable descriptions of every
//! topology family, and [`AnyTopology`] — the runtime union the generic
//! scenario runner executes on.
//!
//! A [`TopologySpec`] is *data*: a grid is `{"kind": "grid", "rows": 4,
//! "cols": 4}` in a JSON scenario file, not a constructor call in Rust.
//! [`TopologySpec::build`] validates the parameters (returning a
//! [`TopologySpecError`] instead of panicking like the constructors do)
//! and produces an [`AnyTopology`], which dispatches the [`Topology`]
//! trait to the concrete [`Path`], [`DirectedTree`] or [`Dag`] it wraps —
//! delegation is exact, so a run on `AnyTopology::Path(p)` is
//! byte-identical to a run on `p` itself (the scenario differential suite
//! pins this).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::{Dag, DirectedTree, Path, Topology, TreeError};

/// A serializable description of a topology, buildable into an
/// [`AnyTopology`].
///
/// # Examples
///
/// ```
/// use aqt_model::{Topology, TopologySpec};
///
/// let spec = TopologySpec::Grid { rows: 2, cols: 3 };
/// let topo = spec.build()?;
/// assert_eq!(topo.node_count(), 6);
/// let json = serde_json::to_string(&spec).unwrap();
/// assert_eq!(spec, serde_json::from_str(&json).unwrap());
/// # Ok::<(), aqt_model::TopologySpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The directed path `0 → 1 → … → n−1` (the paper's §2–§5 topology).
    Path {
        /// Number of nodes (≥ 1).
        n: usize,
    },
    /// A directed tree, edges oriented toward the root (§3.3, App. B.2).
    Tree(TreeSpec),
    /// A `rows × cols` mesh with row-column (XY) routing.
    Grid {
        /// Rows (≥ 1).
        rows: usize,
        /// Columns (≥ 1).
        cols: usize,
    },
    /// The `k`-dimensional butterfly.
    Butterfly {
        /// Dimension (1..=27).
        k: u32,
    },
    /// One source fanning out to `width` middles converging on one sink.
    Diamond {
        /// Middle nodes (≥ 1).
        width: usize,
    },
    /// A pseudo-random DAG with a guaranteed spine path, deterministic in
    /// `seed`.
    RandomDag {
        /// Number of nodes (≥ 1).
        n: usize,
        /// Probability of each non-spine forward edge (0.0..=1.0).
        density: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// The tree families a [`TopologySpec::Tree`] can describe.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeSpec {
    /// `leaves` leaves all pointing at root 0.
    Star {
        /// Leaf count (≥ 1).
        leaves: usize,
    },
    /// A complete binary tree of the given height.
    FullBinary {
        /// Height (0 = single node, ≤ 25).
        height: u32,
    },
    /// A spine path with `legs` leaves per spine node.
    Caterpillar {
        /// Spine length (≥ 1).
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// A pseudo-random tree rooted at `n−1`, deterministic in `seed`.
    Random {
        /// Node count (≥ 1).
        n: usize,
        /// RNG seed.
        seed: u64,
    },
    /// An explicit parent array (`None` marks the root) — the escape
    /// hatch for arbitrary trees.
    Parents {
        /// `parents[v]` is `v`'s parent, or `None` for the root.
        parents: Vec<Option<usize>>,
    },
}

/// Why a [`TopologySpec`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpecError {
    /// A numeric parameter is out of its documented range.
    InvalidParameter {
        /// The spec kind, e.g. `"grid"`.
        kind: &'static str,
        /// What is wrong with it.
        reason: String,
    },
    /// An explicit parent array is not a tree.
    Tree(TreeError),
    /// The spec describes more than `u32::MAX` nodes (or, for a DAG,
    /// edges): the engine stores node ids and plan slots in 32 bits.
    TooLarge {
        /// The spec kind, e.g. `"grid"`.
        kind: &'static str,
        /// What overflows: `"nodes"` or `"edges"`.
        what: &'static str,
    },
}

impl fmt::Display for TopologySpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpecError::InvalidParameter { kind, reason } => {
                write!(f, "invalid {kind} spec: {reason}")
            }
            TopologySpecError::Tree(e) => write!(f, "invalid tree spec: {e}"),
            TopologySpecError::TooLarge { kind, what } => write!(
                f,
                "invalid {kind} spec: more than {} {what}; the engine addresses nodes and \
                 plan slots in 32 bits",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for TopologySpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TopologySpecError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TreeError> for TopologySpecError {
    fn from(e: TreeError) -> Self {
        TopologySpecError::Tree(e)
    }
}

fn invalid(kind: &'static str, reason: impl Into<String>) -> TopologySpecError {
    TopologySpecError::InvalidParameter {
        kind,
        reason: reason.into(),
    }
}

/// Checks that `count` of `what` (`None` when computing it overflowed)
/// fits the engine's 32-bit node ids and plan slots.
fn addressable(
    kind: &'static str,
    what: &'static str,
    count: Option<u64>,
) -> Result<(), TopologySpecError> {
    match count {
        Some(c) if c <= u64::from(u32::MAX) => Ok(()),
        _ => Err(TopologySpecError::TooLarge { kind, what }),
    }
}

impl TopologySpec {
    /// Short kind label (matches the serialized `kind` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Path { .. } => "path",
            TopologySpec::Tree(_) => "tree",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Butterfly { .. } => "butterfly",
            TopologySpec::Diamond { .. } => "diamond",
            TopologySpec::RandomDag { .. } => "random_dag",
        }
    }

    /// Builds the described topology, validating every parameter (the
    /// constructors panic on the same inputs; specs come from files, so
    /// they error instead).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologySpecError`] naming the offending parameter.
    pub fn build(&self) -> Result<AnyTopology, TopologySpecError> {
        match self {
            TopologySpec::Path { n } => {
                if *n == 0 {
                    return Err(invalid("path", "need at least one node"));
                }
                addressable("path", "nodes", Some(*n as u64))?;
                Ok(AnyTopology::Path(Path::new(*n)))
            }
            TopologySpec::Tree(tree) => tree.build().map(AnyTopology::Tree),
            TopologySpec::Grid { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    return Err(invalid("grid", "rows and cols must be at least 1"));
                }
                let (r, c) = (*rows as u64, *cols as u64);
                addressable("grid", "nodes", r.checked_mul(c))?;
                // r·c fits 32 bits now, so the edge count cannot overflow.
                addressable("grid", "edges", Some(2 * r * c - r - c))?;
                Ok(AnyTopology::Dag(Dag::grid(*rows, *cols)))
            }
            TopologySpec::Butterfly { k } => {
                if *k == 0 || *k > 27 {
                    return Err(invalid("butterfly", "dimension must be in 1..=27"));
                }
                // (k+1)·2^k nodes always fit; k·2^(k+1) edges do up to k = 26.
                addressable("butterfly", "edges", Some(u64::from(*k) << (k + 1)))?;
                Ok(AnyTopology::Dag(Dag::butterfly(*k)))
            }
            TopologySpec::Diamond { width } => {
                if *width == 0 {
                    return Err(invalid("diamond", "need at least one middle node"));
                }
                let width64 = *width as u64;
                addressable("diamond", "nodes", width64.checked_add(2))?;
                addressable("diamond", "edges", width64.checked_mul(2))?;
                Ok(AnyTopology::Dag(Dag::diamond(*width)))
            }
            TopologySpec::RandomDag { n, density, seed } => {
                if *n == 0 {
                    return Err(invalid("random_dag", "need at least one node"));
                }
                if !(0.0..=1.0).contains(density) {
                    return Err(invalid("random_dag", "density must be a probability"));
                }
                addressable("random_dag", "nodes", Some(*n as u64))?;
                // The edge count depends on the seed: known only once built.
                let dag = Dag::random_dag(*n, *density, *seed);
                addressable("random_dag", "edges", Some(dag.edge_count() as u64))?;
                Ok(AnyTopology::Dag(dag))
            }
        }
    }
}

impl TreeSpec {
    /// Builds the described tree (see [`TopologySpec::build`]).
    ///
    /// # Errors
    ///
    /// Returns a [`TopologySpecError`] naming the offending parameter.
    pub fn build(&self) -> Result<DirectedTree, TopologySpecError> {
        match self {
            TreeSpec::Star { leaves } => {
                if *leaves == 0 {
                    return Err(invalid("star", "need at least one leaf"));
                }
                addressable("star", "nodes", (*leaves as u64).checked_add(1))?;
                Ok(DirectedTree::star(*leaves))
            }
            TreeSpec::FullBinary { height } => {
                if *height > 25 {
                    return Err(invalid("full_binary", "height must be at most 25"));
                }
                Ok(DirectedTree::full_binary(*height))
            }
            TreeSpec::Caterpillar { spine, legs } => {
                if *spine == 0 {
                    return Err(invalid("caterpillar", "need a non-empty spine"));
                }
                let nodes = (*legs as u64)
                    .checked_add(1)
                    .and_then(|per_spine| per_spine.checked_mul(*spine as u64));
                addressable("caterpillar", "nodes", nodes)?;
                Ok(DirectedTree::caterpillar(*spine, *legs))
            }
            TreeSpec::Random { n, seed } => {
                if *n == 0 {
                    return Err(invalid("random_tree", "need at least one node"));
                }
                addressable("random_tree", "nodes", Some(*n as u64))?;
                Ok(DirectedTree::random(*n, *seed))
            }
            TreeSpec::Parents { parents } => {
                addressable("parents", "nodes", Some(parents.len() as u64))?;
                Ok(DirectedTree::from_parents(parents)?)
            }
        }
    }
}

// The serde stub derives only unit-variant enums; the spec enums carry
// data, so they serialize by hand as `kind`-tagged objects (same idiom as
// `CapacityConfig`'s limits).
impl Serialize for TopologySpec {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> =
            vec![("kind".into(), serde::Value::Str(self.kind().into()))];
        match self {
            TopologySpec::Path { n } => fields.push(("n".into(), n.to_value())),
            TopologySpec::Tree(tree) => fields.push(("tree".into(), tree.to_value())),
            TopologySpec::Grid { rows, cols } => {
                fields.push(("rows".into(), rows.to_value()));
                fields.push(("cols".into(), cols.to_value()));
            }
            TopologySpec::Butterfly { k } => fields.push(("k".into(), k.to_value())),
            TopologySpec::Diamond { width } => fields.push(("width".into(), width.to_value())),
            TopologySpec::RandomDag { n, density, seed } => {
                fields.push(("n".into(), n.to_value()));
                fields.push(("density".into(), density.to_value()));
                fields.push(("seed".into(), seed.to_value()));
            }
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for TopologySpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected topology spec object"))?;
        match serde::__field(obj, "kind").as_str() {
            Some("path") => Ok(TopologySpec::Path {
                n: usize::from_value(serde::__field(obj, "n"))?,
            }),
            Some("tree") => Ok(TopologySpec::Tree(TreeSpec::from_value(serde::__field(
                obj, "tree",
            ))?)),
            Some("grid") => Ok(TopologySpec::Grid {
                rows: usize::from_value(serde::__field(obj, "rows"))?,
                cols: usize::from_value(serde::__field(obj, "cols"))?,
            }),
            Some("butterfly") => Ok(TopologySpec::Butterfly {
                k: u32::from_value(serde::__field(obj, "k"))?,
            }),
            Some("diamond") => Ok(TopologySpec::Diamond {
                width: usize::from_value(serde::__field(obj, "width"))?,
            }),
            Some("random_dag") => Ok(TopologySpec::RandomDag {
                n: usize::from_value(serde::__field(obj, "n"))?,
                density: f64::from_value(serde::__field(obj, "density"))?,
                seed: u64::from_value(serde::__field(obj, "seed"))?,
            }),
            _ => Err(serde::Error::custom("unknown topology spec kind")),
        }
    }
}

impl Serialize for TreeSpec {
    fn to_value(&self) -> serde::Value {
        let (kind, mut fields): (&str, Vec<(String, serde::Value)>) = match self {
            TreeSpec::Star { leaves } => ("star", vec![("leaves".into(), leaves.to_value())]),
            TreeSpec::FullBinary { height } => {
                ("full_binary", vec![("height".into(), height.to_value())])
            }
            TreeSpec::Caterpillar { spine, legs } => (
                "caterpillar",
                vec![
                    ("spine".into(), spine.to_value()),
                    ("legs".into(), legs.to_value()),
                ],
            ),
            TreeSpec::Random { n, seed } => (
                "random",
                vec![("n".into(), n.to_value()), ("seed".into(), seed.to_value())],
            ),
            TreeSpec::Parents { parents } => {
                ("parents", vec![("parents".into(), parents.to_value())])
            }
        };
        let mut out = vec![("kind".into(), serde::Value::Str(kind.into()))];
        out.append(&mut fields);
        serde::Value::Object(out)
    }
}

impl Deserialize for TreeSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected tree spec object"))?;
        match serde::__field(obj, "kind").as_str() {
            Some("star") => Ok(TreeSpec::Star {
                leaves: usize::from_value(serde::__field(obj, "leaves"))?,
            }),
            Some("full_binary") => Ok(TreeSpec::FullBinary {
                height: u32::from_value(serde::__field(obj, "height"))?,
            }),
            Some("caterpillar") => Ok(TreeSpec::Caterpillar {
                spine: usize::from_value(serde::__field(obj, "spine"))?,
                legs: usize::from_value(serde::__field(obj, "legs"))?,
            }),
            Some("random") => Ok(TreeSpec::Random {
                n: usize::from_value(serde::__field(obj, "n"))?,
                seed: u64::from_value(serde::__field(obj, "seed"))?,
            }),
            Some("parents") => Ok(TreeSpec::Parents {
                parents: Vec::from_value(serde::__field(obj, "parents"))?,
            }),
            _ => Err(serde::Error::custom("unknown tree spec kind")),
        }
    }
}

/// The runtime union of every topology family, dispatching [`Topology`]
/// to the wrapped concrete type.
///
/// Every method delegates verbatim — no re-derivation, no normalization —
/// so the engine's behaviour on `AnyTopology::Path(p)` is byte-identical
/// to its behaviour on `p` (the scenario layer's correctness rests on
/// this; the differential suite checks it across the whole protocol
/// matrix).
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTopology {
    /// A directed path.
    Path(Path),
    /// A directed tree.
    Tree(DirectedTree),
    /// A general DAG (grid, butterfly, diamond, random).
    Dag(Dag),
}

impl AnyTopology {
    /// Short family label: `"path"`, `"tree"` or `"dag"`.
    pub fn family(&self) -> &'static str {
        match self {
            AnyTopology::Path(_) => "path",
            AnyTopology::Tree(_) => "tree",
            AnyTopology::Dag(_) => "dag",
        }
    }

    /// The wrapped path, if this is one.
    pub fn as_path(&self) -> Option<&Path> {
        match self {
            AnyTopology::Path(p) => Some(p),
            _ => None,
        }
    }

    /// The wrapped tree, if this is one.
    pub fn as_tree(&self) -> Option<&DirectedTree> {
        match self {
            AnyTopology::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The wrapped DAG, if this is one.
    pub fn as_dag(&self) -> Option<&Dag> {
        match self {
            AnyTopology::Dag(d) => Some(d),
            _ => None,
        }
    }
}

impl From<Path> for AnyTopology {
    fn from(p: Path) -> Self {
        AnyTopology::Path(p)
    }
}

impl From<DirectedTree> for AnyTopology {
    fn from(t: DirectedTree) -> Self {
        AnyTopology::Tree(t)
    }
}

impl From<Dag> for AnyTopology {
    fn from(d: Dag) -> Self {
        AnyTopology::Dag(d)
    }
}

macro_rules! dispatch {
    ($self:ident, $inner:ident => $expr:expr) => {
        match $self {
            AnyTopology::Path($inner) => $expr,
            AnyTopology::Tree($inner) => $expr,
            AnyTopology::Dag($inner) => $expr,
        }
    };
}

impl Topology for AnyTopology {
    fn node_count(&self) -> usize {
        dispatch!(self, t => t.node_count())
    }

    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        dispatch!(self, t => t.next_hop(from, dest))
    }

    fn reaches(&self, from: NodeId, dest: NodeId) -> bool {
        dispatch!(self, t => t.reaches(from, dest))
    }

    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize> {
        dispatch!(self, t => t.route_len(from, dest))
    }

    fn route_buffers(&self, from: NodeId, dest: NodeId) -> Option<Vec<NodeId>> {
        dispatch!(self, t => t.route_buffers(from, dest))
    }

    fn route_buffers_into(&self, from: NodeId, dest: NodeId, out: &mut Vec<NodeId>) -> bool {
        dispatch!(self, t => t.route_buffers_into(from, dest, out))
    }

    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool {
        dispatch!(self, t => t.on_route(from, dest, v))
    }

    fn contains(&self, id: NodeId) -> bool {
        dispatch!(self, t => t.contains(id))
    }

    fn out_degree(&self, v: NodeId) -> usize {
        dispatch!(self, t => t.out_degree(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &TopologySpec) -> TopologySpec {
        let v = spec.to_value();
        TopologySpec::from_value(&v).expect("roundtrip")
    }

    #[test]
    fn every_spec_kind_builds_and_roundtrips() {
        let specs = vec![
            TopologySpec::Path { n: 8 },
            TopologySpec::Tree(TreeSpec::Star { leaves: 4 }),
            TopologySpec::Tree(TreeSpec::FullBinary { height: 3 }),
            TopologySpec::Tree(TreeSpec::Caterpillar { spine: 4, legs: 2 }),
            TopologySpec::Tree(TreeSpec::Random { n: 12, seed: 7 }),
            TopologySpec::Tree(TreeSpec::Parents {
                parents: vec![Some(2), Some(2), Some(3), None],
            }),
            TopologySpec::Grid { rows: 3, cols: 4 },
            TopologySpec::Butterfly { k: 2 },
            TopologySpec::Diamond { width: 3 },
            TopologySpec::RandomDag {
                n: 10,
                density: 0.3,
                seed: 5,
            },
        ];
        for spec in specs {
            let topo = spec.build().expect("valid spec");
            assert!(topo.node_count() >= 2, "{spec:?}");
            assert_eq!(roundtrip(&spec), spec);
        }
    }

    #[test]
    fn invalid_parameters_error_instead_of_panicking() {
        for bad in [
            TopologySpec::Path { n: 0 },
            TopologySpec::Grid { rows: 0, cols: 3 },
            TopologySpec::Butterfly { k: 0 },
            TopologySpec::Butterfly { k: 28 },
            TopologySpec::Diamond { width: 0 },
            TopologySpec::RandomDag {
                n: 4,
                density: 1.5,
                seed: 0,
            },
            TopologySpec::Tree(TreeSpec::Star { leaves: 0 }),
            TopologySpec::Tree(TreeSpec::FullBinary { height: 26 }),
            TopologySpec::Tree(TreeSpec::Parents {
                parents: vec![Some(0), None],
            }),
        ] {
            let err = bad.build().expect_err("must reject");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn specs_beyond_32_bit_node_ids_or_plan_slots_are_too_large() {
        let too_large = |kind, what| Err(TopologySpecError::TooLarge { kind, what });
        for (spec, kind, what) in [
            (TopologySpec::Path { n: 1 << 32 }, "path", "nodes"),
            (
                TopologySpec::Grid {
                    rows: 4_000_000,
                    cols: 4_000_000,
                },
                "grid",
                "nodes",
            ),
            (
                TopologySpec::Grid {
                    rows: usize::MAX,
                    cols: 2,
                },
                "grid",
                "nodes",
            ),
            // 65 535² nodes fit 32 bits, their 2·65 535·65 534 edges do not.
            (
                TopologySpec::Grid {
                    rows: 65_535,
                    cols: 65_535,
                },
                "grid",
                "edges",
            ),
            (TopologySpec::Butterfly { k: 27 }, "butterfly", "edges"),
            (
                TopologySpec::Diamond {
                    width: usize::MAX - 1,
                },
                "diamond",
                "nodes",
            ),
            (TopologySpec::Diamond { width: 1 << 31 }, "diamond", "edges"),
            (
                TopologySpec::RandomDag {
                    n: 1 << 32,
                    density: 0.0,
                    seed: 0,
                },
                "random_dag",
                "nodes",
            ),
            (
                TopologySpec::Tree(TreeSpec::Star { leaves: usize::MAX }),
                "star",
                "nodes",
            ),
            (
                TopologySpec::Tree(TreeSpec::Caterpillar {
                    spine: 1 << 16,
                    legs: 1 << 16,
                }),
                "caterpillar",
                "nodes",
            ),
            (
                TopologySpec::Tree(TreeSpec::Random {
                    n: 1 << 32,
                    seed: 0,
                }),
                "random_tree",
                "nodes",
            ),
        ] {
            assert_eq!(spec.build().map(|_| ()), too_large(kind, what), "{spec:?}");
        }
        // The largest butterfly whose edges fit still passes the check.
        assert!(addressable("butterfly", "edges", Some(26 << 27)).is_ok());
    }

    #[test]
    fn any_topology_delegates_exactly() {
        let spec = TopologySpec::Grid { rows: 2, cols: 3 };
        let any = spec.build().unwrap();
        let raw = Dag::grid(2, 3);
        assert_eq!(any.node_count(), raw.node_count());
        for from in 0..6 {
            for dest in 0..6 {
                let (f, d) = (NodeId::new(from), NodeId::new(dest));
                assert_eq!(any.next_hop(f, d), raw.next_hop(f, d));
                assert_eq!(any.reaches(f, d), raw.reaches(f, d));
                assert_eq!(any.route_len(f, d), raw.route_len(f, d));
                assert_eq!(any.route_buffers(f, d), raw.route_buffers(f, d));
            }
            assert_eq!(
                any.out_degree(NodeId::new(from)),
                raw.out_degree(NodeId::new(from))
            );
        }
        assert_eq!(any.family(), "dag");
        assert!(any.as_dag().is_some());
        assert!(any.as_path().is_none());
    }

    #[test]
    fn embeddings_via_from() {
        let p: AnyTopology = Path::new(4).into();
        assert_eq!(p.family(), "path");
        let t: AnyTopology = DirectedTree::star(2).into();
        assert_eq!(t.family(), "tree");
        let d: AnyTopology = Dag::diamond(2).into();
        assert_eq!(d.family(), "dag");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let v = serde::Value::Object(vec![(
            "kind".into(),
            serde::Value::Str("moebius-strip".into()),
        )]);
        assert!(TopologySpec::from_value(&v).is_err());
    }
}
