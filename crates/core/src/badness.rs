//! Badness instrumentation (Defs. 3.3, 4.4–4.5, B.4).
//!
//! The paper's proofs all run through the *badness* potential: the number
//! of packets stored at position ≥ 2 of their pseudo-buffer, accumulated
//! over the nodes "behind" a given node. The invariant `B^t(i) ≤ ξ_t(i)+1`
//! (hence ≤ σ + 1 after injections) drives every space bound. These
//! functions compute badness from a live configuration so tests and
//! experiments can check the invariant *during* execution, not just the
//! final occupancy.

use std::collections::BTreeMap;

use aqt_model::{DirectedTree, NetworkState, NodeId};

use crate::hpts::Hierarchy;

/// `β_k(i)` on a path: the number of bad packets at node `i` destined for
/// `w` — `max(|L_k(i)| − 1, 0)` (Def. 3.3).
pub fn beta_path(state: &NetworkState, i: NodeId, w: NodeId) -> usize {
    state.count_for_dest(i, w).saturating_sub(1)
}

/// `B_k(i)` on a path: total bad packets destined `w` in buffers `i′ ≤ i`
/// (Def. 3.3). Counts badness *upstream from and including* `i`.
pub fn k_badness_path(state: &NetworkState, i: NodeId, w: NodeId) -> usize {
    (0..=i.index())
        .map(|v| beta_path(state, NodeId::new(v), w))
        .sum()
}

/// The bad packets of `v`'s buffer among those whose destination
/// `counts` selects: every selected packet but the first of each
/// destination's pseudo-buffer, i.e. the selected packets less their
/// distinct destinations. `dests` is the caller's reusable scratch.
fn bad_packets(
    state: &NetworkState,
    v: NodeId,
    counts: impl Fn(NodeId) -> bool,
    dests: &mut Vec<NodeId>,
) -> usize {
    dests.clear();
    dests.extend(
        state
            .buffer(v)
            .iter()
            .map(|sp| sp.dest())
            .filter(|&w| counts(w)),
    );
    let packets = dests.len();
    dests.sort_unstable();
    dests.dedup();
    packets - dests.len()
}

/// `B(i)` on a path: total bad packets in buffers `i′ ≤ i` with
/// destinations strictly beyond `i` (Def. 3.3).
pub fn badness_path(state: &NetworkState, i: NodeId) -> usize {
    let mut dests = Vec::new();
    (0..=i.index())
        .map(|v| bad_packets(state, NodeId::new(v), |w| w > i, &mut dests))
        .sum()
}

/// `B(i)` on a path at every node at once: `out[i]` becomes
/// [`badness_path`]`(state, i)` for every `i`, in one O(n + packets) pass
/// where per-node calls cost O(i + packets) each.
///
/// The `c ≥ 2` packets a buffer `v` holds for `w` are `c − 1` bad packets
/// that count toward `B(i)` for every `i ∈ [v, w)`. So each such
/// pseudo-buffer adds `c − 1` at `v` and takes it back at `w` in a
/// difference array, and the array's prefix sums are the `B(i)`. `counts`
/// is the per-destination tally of one buffer at a time, all zero
/// between calls; both vectors are the caller's, reused across calls.
pub fn badness_path_all(state: &NetworkState, counts: &mut Vec<usize>, out: &mut Vec<usize>) {
    let n = state.node_count();
    counts.resize(n, 0);
    out.clear();
    out.resize(n, 0);
    for v in 0..n {
        let buffer = state.buffer(NodeId::new(v));
        for sp in buffer {
            counts[sp.dest().index()] += 1;
        }
        // Read and reset each destination's tally at its first packet.
        for sp in buffer {
            let w = sp.dest().index();
            let c = std::mem::take(&mut counts[w]);
            if c >= 2 && w > v {
                // A difference array has negative entries; wrapping keeps
                // them in `usize`, and the prefix sums, which are counts,
                // come out exact.
                out[v] = out[v].wrapping_add(c - 1);
                out[w] = out[w].wrapping_sub(c - 1);
            }
        }
    }
    let mut acc = 0usize;
    for b in out.iter_mut() {
        acc = acc.wrapping_add(*b);
        *b = acc;
    }
}

/// `B(v)` on a directed tree (Def. B.4): bad packets in the subtree rooted
/// at `v` (single-destination case — every buffer is one pseudo-buffer).
pub fn badness_tree(state: &NetworkState, tree: &DirectedTree, v: NodeId) -> usize {
    tree.subtree(v)
        .into_iter()
        .map(|u| state.occupancy(u).saturating_sub(1))
        .sum()
}

/// Multi-destination tree badness: bad packets per destination pseudo-buffer
/// in the subtree of `v`, for destinations whose route passes through `v`
/// (i.e. destinations that are ancestors-or-self… strictly above `v`).
pub fn badness_tree_multi(state: &NetworkState, tree: &DirectedTree, v: NodeId) -> usize {
    // Only packets that still have to cross v's outgoing link count.
    let crosses_v = |w: NodeId| w != v && tree.is_ancestor_or_self(w, v);
    let mut dests = Vec::new();
    tree.subtree(v)
        .into_iter()
        .map(|u| bad_packets(state, u, crosses_v, &mut dests))
        .sum()
}

/// HPTS badness `B^t(i)` (Def. 4.5): summed over levels j and columns k,
/// the bad packets in buffers `i′ ≤ i` *within i's level-j interval* whose
/// segment level is j and whose intermediate destination is the k-th of
/// that interval.
pub fn badness_hpts(state: &NetworkState, h: &Hierarchy, i: usize) -> usize {
    let n_real = state.node_count();
    let mut total = 0usize;
    for j in 0..h.levels() {
        let (a, _) = h.interval_of(j, i);
        // β_{j,k}(i′) for i′ ∈ [a, i]: count per (k) then subtract 1 per
        // non-empty pseudo-buffer.
        let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
        for v in a..=i.min(n_real - 1) {
            let mut local: BTreeMap<usize, usize> = BTreeMap::new();
            for sp in state.buffer(NodeId::new(v)) {
                let w = sp.dest().index();
                if w <= v {
                    continue;
                }
                if h.level(v, w) == j {
                    *local.entry(h.dest_index(v, w)).or_insert(0) += 1;
                }
            }
            for (k, c) in local {
                *counts.entry(k).or_insert(0) += c.saturating_sub(1);
            }
        }
        total += counts.values().sum::<usize>();
    }
    total
}

/// The maximum HPTS badness `max_i B^t(i)` over the whole network in one
/// O(n·ℓ + packets) pass (per-node [`badness_hpts`] would be quadratic).
///
/// Used by the A1 ablation to track the potential function of Lemma 4.8
/// across a run.
pub fn max_badness_hpts(state: &NetworkState, h: &Hierarchy) -> usize {
    let n_real = state.node_count();
    if n_real == 0 {
        return 0;
    }
    // β_j(i) = Σ_k max(|L_{j,k}(i)| − 1, 0), per node and level.
    let mut beta: Vec<Vec<usize>> = vec![vec![0; h.levels() as usize]; n_real];
    let mut local: BTreeMap<(u32, usize), usize> = BTreeMap::new();
    for (i, row) in beta.iter_mut().enumerate() {
        local.clear();
        for sp in state.buffer(NodeId::new(i)) {
            let w = sp.dest().index();
            if w <= i {
                continue;
            }
            *local
                .entry((h.level(i, w), h.dest_index(i, w)))
                .or_insert(0) += 1;
        }
        for (&(j, _), &c) in &local {
            if c >= 2 {
                row[j as usize] += c - 1;
            }
        }
    }
    // B(i) = Σ_j (prefix of β_j within i's level-j interval).
    let mut b = vec![0usize; n_real];
    for j in 0..h.levels() {
        let size = h.interval_size(j);
        let mut acc = 0usize;
        for (i, (row, total)) in beta.iter().zip(b.iter_mut()).enumerate() {
            if i % size == 0 {
                acc = 0;
            }
            acc += row[j as usize];
            *total += acc;
        }
    }
    b.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{
        ForwardingPlan, Injection, Path, Pattern, Protocol, Round, Simulation, Topology,
    };

    /// Builds a state by injecting a pattern into an idle simulation.
    fn settled_state(n: usize, pattern: Pattern, rounds: u64) -> NetworkState {
        struct Idle;
        impl<T: Topology> Protocol<T> for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, _: &mut ForwardingPlan) {}
        }
        let mut sim = Simulation::new(Path::new(n), Idle, &pattern).unwrap();
        sim.run(rounds).unwrap();
        sim.state().clone()
    }

    #[test]
    fn beta_counts_excess_packets() {
        let st = settled_state(
            4,
            Pattern::from_injections(vec![Injection::new(0, 0, 3); 3]),
            1,
        );
        assert_eq!(beta_path(&st, NodeId::new(0), NodeId::new(3)), 2);
        assert_eq!(beta_path(&st, NodeId::new(1), NodeId::new(3)), 0);
    }

    #[test]
    fn badness_accumulates_upstream() {
        let st = settled_state(
            6,
            Pattern::from_injections(vec![
                Injection::new(0, 0, 5),
                Injection::new(0, 0, 5),
                Injection::new(0, 2, 5),
                Injection::new(0, 2, 5),
                Injection::new(0, 2, 4),
            ]),
            1,
        );
        // Node 0: one bad packet for dest 5. Node 2: one bad for 5
        // (dest-4 packet is alone in its pseudo-buffer).
        assert_eq!(k_badness_path(&st, NodeId::new(0), NodeId::new(5)), 1);
        assert_eq!(k_badness_path(&st, NodeId::new(2), NodeId::new(5)), 2);
        assert_eq!(badness_path(&st, NodeId::new(0)), 1);
        assert_eq!(badness_path(&st, NodeId::new(3)), 2);
        // Behind node 4 the dest-4 packet no longer counts (w > i fails
        // only for w = 4 < … wait, dest 4 ≤ 4): only dest-5 badness.
        assert_eq!(badness_path(&st, NodeId::new(4)), 2);
        // The all-nodes pass: node 0's extra dest-5 packet counts on
        // [0, 5), node 2's on [2, 5).
        let (mut counts, mut all) = (Vec::new(), Vec::new());
        badness_path_all(&st, &mut counts, &mut all);
        assert_eq!(all, vec![1, 1, 2, 2, 2, 0]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The all-nodes pass equals `badness_path` at every node of
        /// random path states: random injections, then a few rounds of
        /// Greedy-LIFO so packets spread over the path before the check.
        #[test]
        fn badness_path_all_matches_per_node_badness(
            n in 2usize..24,
            packets in proptest::collection::vec((0u64..4, 0usize..24, 0usize..24), 0..60),
            rounds in 1u64..8,
        ) {
            let pattern = Pattern::from_injections(
                packets
                    .into_iter()
                    .map(|(t, a, b)| (t, a % n, b % n))
                    .filter(|&(_, a, b)| a < b)
                    .map(|(t, a, b)| Injection::new(t, a, b))
                    .collect(),
            );
            let mut sim = Simulation::new(
                Path::new(n),
                crate::Greedy::new(crate::GreedyPolicy::Lifo),
                &pattern,
            )
            .unwrap();
            let (mut counts, mut all) = (Vec::new(), Vec::new());
            for _ in 0..rounds {
                sim.step().unwrap();
                badness_path_all(sim.state(), &mut counts, &mut all);
                let per_node: Vec<usize> = (0..n)
                    .map(|i| badness_path(sim.state(), NodeId::new(i)))
                    .collect();
                proptest::prop_assert_eq!(&all, &per_node);
                proptest::prop_assert!(counts.iter().all(|&c| c == 0), "scratch left dirty");
            }
        }
    }

    #[test]
    fn tree_badness_over_subtree() {
        let tree = DirectedTree::star(2);
        struct Idle;
        impl<T: Topology> Protocol<T> for Idle {
            fn name(&self) -> String {
                "idle".into()
            }
            fn plan(&mut self, _: Round, _: &T, _: &NetworkState, _: &mut ForwardingPlan) {}
        }
        let p = Pattern::from_injections(vec![
            Injection::new(0, 1, 0),
            Injection::new(0, 1, 0),
            Injection::new(0, 2, 0),
        ]);
        let mut sim = Simulation::new(tree.clone(), Idle, &p).unwrap();
        sim.run(1).unwrap();
        let st = sim.state();
        assert_eq!(badness_tree(st, &tree, NodeId::new(1)), 1);
        assert_eq!(badness_tree(st, &tree, NodeId::new(2)), 0);
        assert_eq!(badness_tree(st, &tree, NodeId::new(0)), 1);
        assert_eq!(badness_tree_multi(st, &tree, NodeId::new(1)), 1);
    }

    #[test]
    fn hpts_badness_counts_per_level() {
        let h = Hierarchy::new(4, 2).unwrap();
        // Two packets at node 0 with dest 15: level 1, k = 3 → 1 bad.
        // Two packets at node 12 destined 15: level 0, k = 3 → 1 bad.
        let st = settled_state(
            16,
            Pattern::from_injections(vec![
                Injection::new(0, 0, 15),
                Injection::new(0, 0, 15),
                Injection::new(0, 12, 15),
                Injection::new(0, 12, 15),
            ]),
            1,
        );
        // Node 0's badness: its own level-1 bad packet (interval [0,15]).
        assert_eq!(badness_hpts(&st, &h, 0), 1);
        // Node 12 accumulates the level-1 badness (same interval, i′ ≤ 12)
        // plus its own level-0 badness.
        assert_eq!(badness_hpts(&st, &h, 12), 2);
        // Node 11 is in a different level-0 interval: only level-1 badness.
        assert_eq!(badness_hpts(&st, &h, 11), 1);
    }

    #[test]
    fn max_badness_matches_per_node_maximum() {
        let h = Hierarchy::new(4, 2).unwrap();
        let st = settled_state(
            16,
            Pattern::from_injections(vec![
                Injection::new(0, 0, 15),
                Injection::new(0, 0, 15),
                Injection::new(0, 0, 15),
                Injection::new(0, 12, 15),
                Injection::new(0, 12, 15),
                Injection::new(0, 5, 7),
                Injection::new(0, 5, 7),
            ]),
            1,
        );
        let brute = (0..16).map(|i| badness_hpts(&st, &h, i)).max().unwrap();
        assert_eq!(max_badness_hpts(&st, &h), brute);
        assert!(brute >= 3, "expected stacked badness in the fixture");
    }

    #[test]
    fn max_badness_of_empty_network_is_zero() {
        let h = Hierarchy::new(2, 3).unwrap();
        let st = settled_state(8, Pattern::new(), 1);
        assert_eq!(max_badness_hpts(&st, &h), 0);
    }
}
