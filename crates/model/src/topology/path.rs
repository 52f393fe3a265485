//! The directed path `0 → 1 → … → n-1`.

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::Topology;

/// The directed path on `n` nodes, `V = ⟨n⟩`, `E = {(i, i+1)}` (§2).
///
/// Packets travel left to right; a packet `(i → w)` requires `i ≤ w` and
/// occupies buffers `i, …, w−1`.
///
/// # Examples
///
/// ```
/// use aqt_model::{NodeId, Path, Topology};
///
/// let line = Path::new(8);
/// assert_eq!(line.node_count(), 8);
/// assert_eq!(
///     line.next_hop(NodeId::new(2), NodeId::new(5)),
///     Some(NodeId::new(3)),
/// );
/// assert!(line.reaches(NodeId::new(2), NodeId::new(2)));
/// assert!(!line.reaches(NodeId::new(5), NodeId::new(2))); // no leftward edges
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    n: usize,
}

impl Path {
    /// Creates a path with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; an empty network is never meaningful here.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "path must have at least one node");
        Path { n }
    }

    /// The last node, `n − 1` — the only destination for which *every* other
    /// node is upstream (used as the default sink by PTS).
    pub fn last(&self) -> NodeId {
        NodeId::new(self.n - 1)
    }
}

impl Topology for Path {
    fn node_count(&self) -> usize {
        self.n
    }

    fn next_hop(&self, from: NodeId, dest: NodeId) -> Option<NodeId> {
        if from < dest && dest.index() < self.n {
            Some(from.succ())
        } else {
            None
        }
    }

    fn reaches(&self, from: NodeId, dest: NodeId) -> bool {
        from <= dest && dest.index() < self.n
    }

    fn route_len(&self, from: NodeId, dest: NodeId) -> Option<usize> {
        if self.reaches(from, dest) {
            Some(dest.index() - from.index())
        } else {
            None
        }
    }

    // `route_buffers` comes from the trait default, which delegates here.
    fn route_buffers_into(&self, from: NodeId, dest: NodeId, out: &mut Vec<NodeId>) -> bool {
        if !self.reaches(from, dest) {
            return false;
        }
        out.extend((from.index()..dest.index()).map(NodeId::new));
        true
    }

    fn on_route(&self, from: NodeId, dest: NodeId, v: NodeId) -> bool {
        self.reaches(from, dest) && from <= v && v < dest
    }

    fn out_degree(&self, v: NodeId) -> usize {
        usize::from(v.index() + 1 < self.n)
    }

    fn out_neighbor(&self, v: NodeId, i: usize) -> Option<NodeId> {
        (i < self.out_degree(v)).then(|| v.succ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_hop_moves_right() {
        let p = Path::new(5);
        assert_eq!(
            p.next_hop(NodeId::new(0), NodeId::new(4)),
            Some(NodeId::new(1))
        );
        assert_eq!(p.next_hop(NodeId::new(4), NodeId::new(4)), None);
        assert_eq!(p.next_hop(NodeId::new(3), NodeId::new(1)), None);
    }

    #[test]
    fn reaches_is_left_to_right() {
        let p = Path::new(4);
        assert!(p.reaches(NodeId::new(0), NodeId::new(3)));
        assert!(p.reaches(NodeId::new(2), NodeId::new(2)));
        assert!(!p.reaches(NodeId::new(3), NodeId::new(0)));
        assert!(!p.reaches(NodeId::new(0), NodeId::new(4))); // out of range
    }

    #[test]
    fn route_buffers_excludes_destination() {
        let p = Path::new(6);
        let r = p.route_buffers(NodeId::new(1), NodeId::new(4)).unwrap();
        assert_eq!(r, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        // Degenerate route: a packet injected at its destination crosses
        // no buffers.
        assert!(p
            .route_buffers(NodeId::new(2), NodeId::new(2))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn route_len_counts_links() {
        let p = Path::new(6);
        assert_eq!(p.route_len(NodeId::new(1), NodeId::new(4)), Some(3));
        assert_eq!(p.route_len(NodeId::new(4), NodeId::new(1)), None);
        assert_eq!(p.route_len(NodeId::new(3), NodeId::new(3)), Some(0));
    }

    #[test]
    fn on_route_is_half_open() {
        let p = Path::new(6);
        assert!(p.on_route(NodeId::new(1), NodeId::new(4), NodeId::new(1)));
        assert!(p.on_route(NodeId::new(1), NodeId::new(4), NodeId::new(3)));
        assert!(!p.on_route(NodeId::new(1), NodeId::new(4), NodeId::new(4)));
        assert!(!p.on_route(NodeId::new(1), NodeId::new(4), NodeId::new(0)));
    }

    #[test]
    fn last_is_rightmost() {
        assert_eq!(Path::new(10).last(), NodeId::new(9));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_path_rejected() {
        let _ = Path::new(0);
    }
}
