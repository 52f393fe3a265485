//! Network topologies: directed paths, directed (in-)trees, and general
//! DAGs.
//!
//! The paper restricts attention to paths (§2–§5) and directed trees with
//! all edges oriented toward the root (§3.3, App. B.2); [`Dag`] opens the
//! general acyclic case (grids, butterflies, diamonds) the related grid
//! literature works on. All are unified under the [`Topology`] trait so
//! that the engine and the greedy baselines are topology-generic, while
//! PTS/PPTS/HPTS constrain themselves to the concrete type they are proven
//! for.

mod dag;
mod dense;
mod path;
mod spec;
mod tree;

pub use dag::{Dag, DagError};
pub use path::Path;
pub use spec::{AnyTopology, TopologySpec, TopologySpecError, TreeSpec};
pub use tree::{DirectedTree, TreeError};

use crate::ids::NodeId;

/// A directed network with deterministic, unique routes: for every
/// `(from, dest)` pair there is at most one route, fixed by
/// [`next_hop`](Topology::next_hop).
///
/// Paths and trees additionally have **at most one outgoing link per
/// node**; general DAGs may have several, reported by
/// [`out_degree`](Topology::out_degree). The engine enforces the AQT
/// bandwidth constraint per *link*: at most one packet crosses each
/// outgoing edge per round, so a node forwards at most `out_degree` packets
/// per round (exactly one per buffer on single-out topologies).
pub trait Topology {
    /// Number of nodes; valid ids are `0..node_count()`.
    fn node_count(&self) -> usize;

    /// The unique next hop on the route from `from` toward `dest`, or
    /// `None` if `from == dest` or `dest` is unreachable from `from`.
    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId>;

    /// Whether there is a (possibly empty) directed route `from → dest`.
    fn reaches(&self, from: NodeId, dest: NodeId) -> bool;

    /// Number of links on the route `from → dest`, or `None` if unreachable.
    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize>;

    /// The buffers a packet `from → dest` occupies, i.e. the nodes whose
    /// outgoing link the packet crosses: `from` inclusive, `dest` exclusive.
    ///
    /// This is the set `Path(i_P, w_P)` used in the load definition
    /// `N_T(v)` (§2): a buffer `v` is *on the route* iff the packet, at some
    /// point, is stored at `v` and must be forwarded out of it.
    fn route_buffers(&self, from: NodeId, dest: NodeId) -> Option<Vec<NodeId>> {
        let mut buffers = Vec::new();
        self.route_buffers_into(from, dest, &mut buffers)
            .then_some(buffers)
    }

    /// Allocation-free variant of [`route_buffers`](Topology::route_buffers):
    /// appends the route's buffers to `out` and returns `true`, or leaves
    /// `out` untouched and returns `false` when `dest` is unreachable.
    ///
    /// Streaming generators call this once per candidate packet, so reusing
    /// the caller's buffer keeps the admission hot path allocation-lean.
    fn route_buffers_into(&self, from: NodeId, dest: NodeId, out: &mut Vec<NodeId>) -> bool {
        if !self.reaches(from, dest) {
            return false;
        }
        let mut at = from;
        while at != dest {
            out.push(at);
            at = self
                .next_hop(at, dest)
                .expect("reaches() implies next_hop chain terminates at dest");
        }
        true
    }

    /// Whether buffer `v` lies on the route `from → dest` (in the
    /// [`route_buffers`](Topology::route_buffers) sense).
    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool;

    /// True if `id` is a valid node of this topology.
    fn contains(&self, id: NodeId) -> bool {
        id.index() < self.node_count()
    }

    /// Number of outgoing links of `v` — the number of packets `v` may
    /// forward in one round (the engine checks one per link, on each
    /// send's next hop). Defaults to 1 (the single-out case).
    fn out_degree(&self, _v: NodeId) -> usize {
        1
    }

    /// The head of `v`'s `i`-th outgoing link, for `i < out_degree(v)`;
    /// `None` otherwise. Every out-neighbour `h` is also the first hop of
    /// the route `v → h`, so the out-neighbours of all nodes name exactly
    /// the links [`next_hop`](Topology::next_hop) can use, in O(n + E).
    fn out_neighbor(&self, v: NodeId, i: usize) -> Option<NodeId>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// `route_buffers` default implementation is consistent with `on_route`
    /// for both concrete topologies.
    #[test]
    fn route_buffers_matches_on_route_for_path() {
        let p = Path::new(8);
        let from = NodeId::new(2);
        let dest = NodeId::new(6);
        let buffers = p.route_buffers(from, dest).unwrap();
        for v in 0..8 {
            let v = NodeId::new(v);
            assert_eq!(buffers.contains(&v), p.on_route(from, dest, v), "{v}");
        }
    }

    #[test]
    fn route_buffers_matches_on_route_for_tree() {
        // 0 -> 2, 1 -> 2, 2 -> 3 (root 3).
        let t = DirectedTree::from_parents(&[Some(2), Some(2), Some(3), None]).unwrap();
        let from = NodeId::new(0);
        let dest = NodeId::new(3);
        let buffers = t.route_buffers(from, dest).unwrap();
        assert_eq!(buffers, vec![NodeId::new(0), NodeId::new(2)]);
        for v in 0..4 {
            let v = NodeId::new(v);
            assert_eq!(buffers.contains(&v), t.on_route(from, dest, v), "{v}");
        }
    }
}
