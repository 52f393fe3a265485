//! Directed trees with all edges oriented toward the root (§3.3, App. B.2).

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::Topology;
use crate::util::SplitMix64;

/// Error produced when a parent array does not describe a directed tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// No node had `parent == None`.
    NoRoot,
    /// More than one node had `parent == None`.
    MultipleRoots(NodeId, NodeId),
    /// A parent index was out of range.
    ParentOutOfRange {
        /// The child whose parent pointer is invalid.
        node: NodeId,
        /// The out-of-range parent index.
        parent: usize,
    },
    /// A node was its own parent.
    SelfLoop(NodeId),
    /// The parent pointers contain a cycle or a disconnected component.
    NotConnected,
    /// The tree had zero nodes.
    Empty,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NoRoot => write!(f, "parent array has no root (no None entry)"),
            TreeError::MultipleRoots(a, b) => {
                write!(f, "parent array has multiple roots ({a} and {b})")
            }
            TreeError::ParentOutOfRange { node, parent } => {
                write!(f, "parent index {parent} of {node} is out of range")
            }
            TreeError::SelfLoop(v) => write!(f, "node {v} is its own parent"),
            TreeError::NotConnected => {
                write!(f, "parent pointers contain a cycle or disconnected part")
            }
            TreeError::Empty => write!(f, "tree must have at least one node"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A rooted tree in which every edge points from child to parent; packets
/// flow "upward" along leaf-to-root paths.
///
/// The orientation induces the partial order ≺ of App. B.2: `u ≺ v` iff `v`
/// lies on the (unique) path from `u` to the root. Leaves are minimal, the
/// root is maximal.
///
/// Routing is **interval-based**: construction assigns every node its DFS
/// preorder interval (`tin`, `tout`), so ancestry — and with it
/// [`next_hop`](Topology::next_hop), [`reaches`](Topology::reaches) and
/// [`on_route`](Topology::on_route) — is two integer comparisons instead of
/// a parent-chain walk. O(n) extra space, O(1) per query, no `n × n`
/// tables at any size.
///
/// # Examples
///
/// ```
/// use aqt_model::{DirectedTree, NodeId, Topology};
///
/// // 0 → 2 ← 1,  2 → 3 (root).
/// let t = DirectedTree::from_parents(&[Some(2), Some(2), Some(3), None])?;
/// assert_eq!(t.root(), NodeId::new(3));
/// assert_eq!(t.depth(NodeId::new(0)), 2);
/// assert!(t.strictly_precedes(NodeId::new(0), NodeId::new(2)));
/// assert_eq!(
///     t.next_hop(NodeId::new(0), NodeId::new(3)),
///     Some(NodeId::new(2)),
/// );
/// # Ok::<(), aqt_model::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectedTree {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
    /// DFS preorder entry time; the subtree of `v` is exactly the nodes
    /// `u` with `tin[v] <= tin[u] < tout[v]` (interval routing).
    tin: Vec<u32>,
    /// DFS preorder exit time (exclusive end of `v`'s subtree interval).
    tout: Vec<u32>,
    root: NodeId,
}

impl DirectedTree {
    /// Builds a tree from a parent array: `parents[v]` is `v`'s parent, and
    /// exactly one entry (the root) is `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] if the array is empty, has zero or multiple
    /// roots, dangling parent indices, self-loops, cycles, or disconnected
    /// parts.
    pub fn from_parents(parents: &[Option<usize>]) -> Result<Self, TreeError> {
        let n = parents.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }
        let mut root: Option<NodeId> = None;
        let mut parent: Vec<Option<NodeId>> = Vec::with_capacity(n);
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            let v = NodeId::new(i);
            match p {
                None => match root {
                    None => {
                        root = Some(v);
                        parent.push(None);
                    }
                    Some(r) => return Err(TreeError::MultipleRoots(r, v)),
                },
                Some(pi) => {
                    if *pi >= n {
                        return Err(TreeError::ParentOutOfRange {
                            node: v,
                            parent: *pi,
                        });
                    }
                    if *pi == i {
                        return Err(TreeError::SelfLoop(v));
                    }
                    parent.push(Some(NodeId::new(*pi)));
                    children[*pi].push(v);
                }
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;

        // BFS from the root; reaching all nodes proves acyclicity and
        // connectedness simultaneously.
        let mut depth = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        depth[root.index()] = 0;
        queue.push_back(root);
        let mut visited = 0usize;
        while let Some(v) = queue.pop_front() {
            visited += 1;
            for &c in &children[v.index()] {
                depth[c.index()] = depth[v.index()] + 1;
                queue.push_back(c);
            }
        }
        if visited != n {
            return Err(TreeError::NotConnected);
        }

        // Euler intervals by iterative preorder DFS: tin on entry, tout as
        // the exclusive end of the subtree interval, folded up in reverse
        // preorder (children appear after their parent in preorder).
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut preorder: Vec<NodeId> = Vec::with_capacity(n);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            tin[v.index()] = preorder.len() as u32;
            preorder.push(v);
            // Reverse push so the first child gets the next tin.
            stack.extend(children[v.index()].iter().rev().copied());
        }
        for &v in preorder.iter().rev() {
            let vi = v.index();
            tout[vi] = tout[vi].max(tin[vi] + 1);
            if let Some(p) = parent[vi] {
                let pi = p.index();
                tout[pi] = tout[pi].max(tout[vi]);
            }
        }

        Ok(DirectedTree {
            parent,
            children,
            depth,
            tin,
            tout,
            root,
        })
    }

    /// The path `0 → 1 → … → n−1` viewed as a tree rooted at `n−1`,
    /// matching the orientation of [`Path`](crate::Path).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn path(n: usize) -> Self {
        assert!(n > 0, "path tree must have at least one node");
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i + 1 < n { Some(i + 1) } else { None })
            .collect();
        DirectedTree::from_parents(&parents).expect("path parent array is a tree")
    }

    /// A star: `leaves` leaf nodes `1..=leaves`, all pointing at root `0`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves == 0`.
    pub fn star(leaves: usize) -> Self {
        assert!(leaves > 0, "star must have at least one leaf");
        let mut parents = vec![None];
        parents.extend(std::iter::repeat_n(Some(0), leaves));
        DirectedTree::from_parents(&parents).expect("star parent array is a tree")
    }

    /// A complete binary tree of the given height (height 0 = single node),
    /// rooted at node 0, children of `v` at `2v+1` and `2v+2`.
    pub fn full_binary(height: u32) -> Self {
        let n = (1usize << (height + 1)) - 1;
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some((i - 1) / 2) })
            .collect();
        DirectedTree::from_parents(&parents).expect("binary parent array is a tree")
    }

    /// A caterpillar: a spine path of `spine` nodes toward the root, with
    /// `legs` leaves hanging off every spine node.
    ///
    /// # Panics
    ///
    /// Panics if `spine == 0`.
    pub fn caterpillar(spine: usize, legs: usize) -> Self {
        assert!(spine > 0, "caterpillar must have a spine");
        // Spine occupies ids 0..spine (root = spine-1), legs appended after.
        let mut parents: Vec<Option<usize>> = (0..spine)
            .map(|i| if i + 1 < spine { Some(i + 1) } else { None })
            .collect();
        for s in 0..spine {
            for _ in 0..legs {
                parents.push(Some(s));
            }
        }
        DirectedTree::from_parents(&parents).expect("caterpillar parent array is a tree")
    }

    /// A pseudo-random tree on `n` nodes rooted at `n−1`: each node `i`
    /// attaches to a uniformly random node in `i+1..n`, so all edges point
    /// toward higher indices. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn random(n: usize, seed: u64) -> Self {
        assert!(n > 0, "random tree must have at least one node");
        let mut rng = SplitMix64::new(seed);
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    Some(i + 1 + (rng.next_u64() as usize) % (n - i - 1))
                } else {
                    None
                }
            })
            .collect();
        DirectedTree::from_parents(&parents).expect("random parent array is a tree")
    }

    /// The root (the unique node with no parent).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// The children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// Distance from `v` to the root.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.index()]
    }

    /// Whether `v` has no children.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children[v.index()].is_empty()
    }

    /// The maximum depth over all nodes (the tree's height `D`).
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Whether `anc` lies on the path from `desc` to the root
    /// (inclusive of both endpoints): `desc ⪯ anc` in the paper's order.
    ///
    /// O(1) by interval containment: `desc`'s preorder time falls inside
    /// `anc`'s subtree interval.
    #[inline]
    pub fn is_ancestor_or_self(&self, anc: NodeId, desc: NodeId) -> bool {
        let t = self.tin[desc.index()];
        self.tin[anc.index()] <= t && t < self.tout[anc.index()]
    }

    /// The paper's strict order: `u ≺ v` iff `v` is a *proper* ancestor of
    /// `u` (equivalently, `v` lies on the path from `u` to the root and
    /// `v ≠ u`).
    pub fn strictly_precedes(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.is_ancestor_or_self(v, u)
    }

    /// All nodes of the subtree rooted at `v` (`U_v` in Def. B.4),
    /// including `v`, in DFS preorder.
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend(self.children(u).iter().copied());
        }
        out
    }

    /// The **destination depth** `d′ = d′(G, W)` (App. B.2): the maximum
    /// number of destinations on any leaf-root path, i.e. the length of the
    /// longest ≺-chain inside `W`.
    ///
    /// Prop. 3.5 bounds Tree-PPTS buffer usage by `1 + d′ + σ`.
    pub fn destination_depth(&self, dests: &BTreeSet<NodeId>) -> usize {
        // Count destinations on the root→v path for every v by BFS from the
        // root; the maximum over all nodes is attained at some leaf.
        let n = self.node_count();
        let mut count = vec![0usize; n];
        let mut best = 0usize;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(self.root);
        while let Some(v) = queue.pop_front() {
            let here =
                usize::from(dests.contains(&v)) + self.parent(v).map_or(0, |p| count[p.index()]);
            count[v.index()] = here;
            best = best.max(here);
            queue.extend(self.children(v).iter().copied());
        }
        best
    }
}

impl Topology for DirectedTree {
    fn node_count(&self) -> usize {
        self.parent.len()
    }

    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        if from != dest && self.is_ancestor_or_self(dest, from) {
            self.parent(from)
        } else {
            None
        }
    }

    fn reaches(&self, from: NodeId, dest: NodeId) -> bool {
        from.index() < self.node_count()
            && dest.index() < self.node_count()
            && self.is_ancestor_or_self(dest, from)
    }

    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize> {
        if self.reaches(from, dest) {
            Some((self.depth(from) - self.depth(dest)) as usize)
        } else {
            None
        }
    }

    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool {
        self.reaches(from, dest)
            && v != dest
            && self.is_ancestor_or_self(v, from)
            && self.is_ancestor_or_self(dest, v)
    }

    fn out_degree(&self, v: NodeId) -> usize {
        usize::from(self.parent(v).is_some())
    }

    fn out_neighbor(&self, v: NodeId, i: usize) -> Option<NodeId> {
        self.parent(v).filter(|_| i == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamondless() -> DirectedTree {
        // Leaves 0,1 → 2; leaf 4 → 3; 2,3 → 5 (root).
        DirectedTree::from_parents(&[Some(2), Some(2), Some(5), Some(5), Some(3), None]).unwrap()
    }

    #[test]
    fn from_parents_accepts_valid_tree() {
        let t = diamondless();
        assert_eq!(t.root(), NodeId::new(5));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.depth(NodeId::new(0)), 2);
        assert_eq!(t.depth(NodeId::new(5)), 0);
        assert!(t.is_leaf(NodeId::new(4)));
        assert!(!t.is_leaf(NodeId::new(2)));
    }

    #[test]
    fn from_parents_rejects_no_root() {
        assert_eq!(
            DirectedTree::from_parents(&[Some(1), Some(0)]),
            Err(TreeError::NotConnected).or(Err(TreeError::NoRoot)) // either diagnosis is acceptable…
        );
        // …but the actual error for a 2-cycle with no None is NoRoot-like:
        match DirectedTree::from_parents(&[Some(1), Some(0)]) {
            Err(TreeError::NoRoot) | Err(TreeError::NotConnected) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn from_parents_rejects_multiple_roots() {
        match DirectedTree::from_parents(&[None, None]) {
            Err(TreeError::MultipleRoots(a, b)) => {
                assert_eq!((a, b), (NodeId::new(0), NodeId::new(1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn from_parents_rejects_cycle() {
        // 0 → 1 → 2 → 1 cycle with root 3 disconnected from the cycle.
        let r = DirectedTree::from_parents(&[Some(1), Some(2), Some(1), None]);
        assert_eq!(r, Err(TreeError::NotConnected));
    }

    #[test]
    fn from_parents_rejects_self_loop_and_range() {
        assert_eq!(
            DirectedTree::from_parents(&[Some(0), None]),
            Err(TreeError::SelfLoop(NodeId::new(0)))
        );
        assert_eq!(
            DirectedTree::from_parents(&[Some(7), None]),
            Err(TreeError::ParentOutOfRange {
                node: NodeId::new(0),
                parent: 7
            })
        );
        assert_eq!(DirectedTree::from_parents(&[]), Err(TreeError::Empty));
    }

    #[test]
    fn path_tree_matches_path_topology() {
        let t = DirectedTree::path(5);
        assert_eq!(t.root(), NodeId::new(4));
        assert_eq!(
            t.next_hop(NodeId::new(1), NodeId::new(4)),
            Some(NodeId::new(2))
        );
        assert_eq!(t.route_len(NodeId::new(0), NodeId::new(4)), Some(4));
    }

    #[test]
    fn order_relation() {
        let t = diamondless();
        // 0 ≺ 2 ≺ 5
        assert!(t.strictly_precedes(NodeId::new(0), NodeId::new(2)));
        assert!(t.strictly_precedes(NodeId::new(0), NodeId::new(5)));
        assert!(!t.strictly_precedes(NodeId::new(0), NodeId::new(0)));
        // Incomparable siblings / cousins.
        assert!(!t.strictly_precedes(NodeId::new(0), NodeId::new(1)));
        assert!(!t.strictly_precedes(NodeId::new(4), NodeId::new(2)));
    }

    #[test]
    fn subtree_collects_descendants() {
        let t = diamondless();
        let mut sub = t.subtree(NodeId::new(2));
        sub.sort();
        assert_eq!(sub, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert_eq!(t.subtree(NodeId::new(4)), vec![NodeId::new(4)]);
        assert_eq!(t.subtree(NodeId::new(5)).len(), 6);
    }

    #[test]
    fn destination_depth_counts_longest_chain() {
        let t = diamondless();
        // W = {2, 5}: leaf 0 passes both ⇒ d′ = 2.
        let w: BTreeSet<NodeId> = [NodeId::new(2), NodeId::new(5)].into_iter().collect();
        assert_eq!(t.destination_depth(&w), 2);
        // W = {2, 3}: no leaf-root path contains both ⇒ d′ = 1.
        let w: BTreeSet<NodeId> = [NodeId::new(2), NodeId::new(3)].into_iter().collect();
        assert_eq!(t.destination_depth(&w), 1);
        assert_eq!(t.destination_depth(&BTreeSet::new()), 0);
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let star = DirectedTree::star(4);
        assert_eq!(star.node_count(), 5);
        assert_eq!(star.height(), 1);
        assert_eq!(star.children(NodeId::new(0)).len(), 4);

        let bin = DirectedTree::full_binary(3);
        assert_eq!(bin.node_count(), 15);
        assert_eq!(bin.height(), 3);

        let cat = DirectedTree::caterpillar(3, 2);
        assert_eq!(cat.node_count(), 9);
        assert_eq!(cat.root(), NodeId::new(2));

        let rnd = DirectedTree::random(50, 7);
        assert_eq!(rnd.node_count(), 50);
        assert_eq!(rnd.root(), NodeId::new(49));
        // Determinism.
        assert_eq!(rnd, DirectedTree::random(50, 7));
        assert_ne!(rnd, DirectedTree::random(50, 8));
    }

    #[test]
    fn interval_ancestry_matches_parent_walk_oracle() {
        for seed in 0..4u64 {
            let t = DirectedTree::random(60, seed);
            for a in 0..60usize {
                for d in 0..60usize {
                    let (a, d) = (NodeId::new(a), NodeId::new(d));
                    let mut at = Some(d);
                    let mut walk_hit = false;
                    while let Some(v) = at {
                        if v == a {
                            walk_hit = true;
                            break;
                        }
                        at = t.parent(v);
                    }
                    assert_eq!(t.is_ancestor_or_self(a, d), walk_hit, "{a} anc-of {d}");
                }
            }
        }
    }

    #[test]
    fn next_hop_walks_toward_root() {
        let t = diamondless();
        assert_eq!(
            t.next_hop(NodeId::new(0), NodeId::new(5)),
            Some(NodeId::new(2))
        );
        assert_eq!(t.next_hop(NodeId::new(0), NodeId::new(3)), None); // not an ancestor
        assert_eq!(t.next_hop(NodeId::new(5), NodeId::new(5)), None);
    }
}
