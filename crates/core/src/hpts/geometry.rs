//! The hierarchical partition of the line (§4.1).
//!
//! For `n = m^ℓ`, buffer indices are read in base m. The **level-j
//! partition** `I_j` splits ⟨n⟩ into intervals of size `m^{j+1}` (all nodes
//! sharing the top `ℓ−j−1` digits); each level-j interval contains exactly
//! m level-(j−1) subintervals.
//!
//! A packet at `i` destined for `w > i` travels in **segments**: its
//! current segment's *level* is the highest base-m digit position in which
//! `i` and `w` differ (Def. 4.2), and its *intermediate destination*
//! `x(i, w) = ⌊w/m^j⌋·m^j` corrects that digit. Segment levels strictly
//! decrease along the trajectory, giving the "virtual motion" of Fig. 1.
//!
//! The paper's running text contains two off-by-one slips that the tests
//! here pin down: level-j intervals have `m^{j+1}` nodes (not `m^j`), and
//! `r` ranges over `⟨m^{ℓ−j−1}⟩` (not `⟨m^j⟩`); both follow from Fig. 1.

use std::fmt;

/// Errors constructing a [`Hierarchy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The base m must be at least 2.
    BaseTooSmall,
    /// The level count ℓ must be at least 1.
    NoLevels,
    /// `m^ℓ` overflowed the platform `usize`.
    Overflow,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::BaseTooSmall => write!(f, "hierarchy base m must be at least 2"),
            GeometryError::NoLevels => write!(f, "hierarchy needs at least one level"),
            GeometryError::Overflow => write!(f, "m^l does not fit in usize"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// The base-m, ℓ-level hierarchy over the virtual line `⟨m^ℓ⟩`.
///
/// All index arithmetic of HPTS lives here so it can be unit-tested in
/// isolation and reused by the Figure-1 renderer.
///
/// # Examples
///
/// ```
/// use aqt_core::hpts::Hierarchy;
///
/// // Figure 1: n = 16, m = 2, ℓ = 4.
/// let h = Hierarchy::new(2, 4)?;
/// assert_eq!(h.n(), 16);
/// // Packet 0b0000 → 0b1011: first segment at level 3 to 0b1000.
/// assert_eq!(h.level(0b0000, 0b1011), 3);
/// assert_eq!(h.intermediate(0b0000, 0b1011), 0b1000);
/// // Then level 1 to 0b1010, then level 0 to 0b1011.
/// assert_eq!(
///     h.segment_chain(0b0000, 0b1011),
///     vec![(0b0000, 0b1000), (0b1000, 0b1010), (0b1010, 0b1011)],
/// );
/// # Ok::<(), aqt_core::hpts::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hierarchy {
    m: usize,
    l: u32,
    n: usize,
}

impl Hierarchy {
    /// Creates the hierarchy with base `m ≥ 2` and `l ≥ 1` levels over the
    /// virtual line of `m^l` nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] on invalid parameters or overflow.
    pub fn new(m: usize, l: u32) -> Result<Self, GeometryError> {
        if m < 2 {
            return Err(GeometryError::BaseTooSmall);
        }
        if l == 0 {
            return Err(GeometryError::NoLevels);
        }
        let mut n = 1usize;
        for _ in 0..l {
            n = n.checked_mul(m).ok_or(GeometryError::Overflow)?;
        }
        Ok(Hierarchy { m, l, n })
    }

    /// The smallest base-m hierarchy with `l` levels covering at least
    /// `nodes` positions (`m` minimal with `m^l ≥ nodes`). Real networks
    /// whose size is not a perfect power are embedded into the virtual
    /// line; positions beyond the real network simply never hold packets.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if no such hierarchy fits in `usize`.
    pub fn covering(nodes: usize, l: u32) -> Result<Self, GeometryError> {
        if l == 0 {
            return Err(GeometryError::NoLevels);
        }
        let mut m = 2usize;
        loop {
            let h = Hierarchy::new(m, l)?;
            if h.n >= nodes {
                return Ok(h);
            }
            m += 1;
        }
    }

    /// The base m (= number of pseudo-buffers per level = `n^{1/ℓ}`).
    pub fn base(&self) -> usize {
        self.m
    }

    /// The number of levels ℓ.
    pub fn levels(&self) -> u32 {
        self.l
    }

    /// The virtual line size `n = m^ℓ`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pseudo-buffers per node: `ℓ·m = ℓ·n^{1/ℓ}` (the non-bad capacity in
    /// Thm. 4.1's bound).
    pub fn pseudo_buffers_per_node(&self) -> usize {
        self.l as usize * self.m
    }

    /// `m^j`.
    fn pow(&self, j: u32) -> usize {
        self.m.pow(j)
    }

    /// The `j`-th base-m digit of `x`.
    pub fn digit(&self, x: usize, j: u32) -> usize {
        (x / self.pow(j)) % self.m
    }

    /// The level `lv(i, w)` of the segment of a packet at `i` destined for
    /// `w`: the highest digit position where they differ (Def. 4.2).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ w` or `w ≥ n` (such a packet has no segment).
    pub fn level(&self, i: usize, w: usize) -> u32 {
        self.class(i, w).0
    }

    /// The pseudo-buffer class `(lv(i, w), k)` of a packet at `i` destined
    /// `w`: its segment level and column, `w`'s digit at that level
    /// (Defs. 4.2–4.3), found in one pass over the base-m digits.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ w` or `w ≥ n` (such a packet has no segment).
    pub fn class(&self, i: usize, w: usize) -> (u32, usize) {
        assert!(i < w, "segment level requires i < w (got {i}, {w})");
        assert!(
            w < self.n,
            "destination {w} outside virtual line of {}",
            self.n
        );
        // Least significant digit first, so the last difference seen is
        // the highest; one division per number and digit.
        let (mut x, mut y) = (i, w);
        let mut class = None;
        for j in 0..self.l {
            let (dx, dy) = (x % self.m, y % self.m);
            if dx != dy {
                class = Some((j, dy));
            }
            x /= self.m;
            y /= self.m;
        }
        class.expect("i != w must differ in some digit")
    }

    /// The intermediate destination `x(i, w) = ⌊w/m^j⌋·m^j` with
    /// `j = lv(i, w)` (Def. 4.2).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Hierarchy::level`].
    pub fn intermediate(&self, i: usize, w: usize) -> usize {
        let j = self.level(i, w);
        let mj = self.pow(j);
        (w / mj) * mj
    }

    /// The pseudo-buffer column `k` of a packet at `i` destined `w`: the
    /// index of its intermediate destination among the level's destinations,
    /// which equals digit `lv(i,w)` of `w`.
    pub fn dest_index(&self, i: usize, w: usize) -> usize {
        self.class(i, w).1
    }

    /// Size of level-j intervals: `m^{j+1}`.
    pub fn interval_size(&self, j: u32) -> usize {
        debug_assert!(j < self.l);
        self.pow(j + 1)
    }

    /// Number of level-j intervals: `m^{ℓ−j−1}`.
    pub fn interval_count(&self, j: u32) -> usize {
        self.n / self.interval_size(j)
    }

    /// The level-j interval `I_{j,r}` as an inclusive range `[a, b]`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ ℓ` or `r ≥ interval_count(j)` (debug builds).
    pub fn interval(&self, j: u32, r: usize) -> (usize, usize) {
        debug_assert!(r < self.interval_count(j), "interval index out of range");
        let size = self.interval_size(j);
        (r * size, (r + 1) * size - 1)
    }

    /// The level-j interval containing node `i`, as `[a, b]` inclusive.
    pub fn interval_of(&self, j: u32, i: usize) -> (usize, usize) {
        debug_assert!(i < self.n);
        let size = self.interval_size(j);
        let a = (i / size) * size;
        (a, a + size - 1)
    }

    /// The m intermediate destinations `W_j(I)` of a level-j interval
    /// starting at `base`: the left endpoints of its level-(j−1)
    /// subintervals, `base + k·m^j` for `k ∈ ⟨m⟩` (Def. 4.3).
    pub fn intermediate_dests(&self, j: u32, base: usize) -> impl Iterator<Item = usize> + '_ {
        let step = self.pow(j);
        (0..self.m).map(move |k| base + k * step)
    }

    /// The full virtual trajectory of a packet `i → w` as a list of
    /// segments `(from, to)` with strictly decreasing levels (Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ w` or `w ≥ n`.
    pub fn segment_chain(&self, i: usize, w: usize) -> Vec<(usize, usize)> {
        let mut chain = Vec::new();
        let mut at = i;
        while at != w {
            let x = self.intermediate(at, w);
            chain.push((at, x));
            at = x;
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> Hierarchy {
        Hierarchy::new(2, 4).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(Hierarchy::new(1, 3), Err(GeometryError::BaseTooSmall));
        assert_eq!(Hierarchy::new(4, 0), Err(GeometryError::NoLevels));
        assert!(Hierarchy::new(2, 10).is_ok());
        let h = Hierarchy::new(3, 2).unwrap();
        assert_eq!(h.n(), 9);
        assert_eq!(h.pseudo_buffers_per_node(), 6);
    }

    #[test]
    fn covering_picks_smallest_base() {
        let h = Hierarchy::covering(49, 2).unwrap();
        assert_eq!(h.base(), 7); // 7² = 49
        let h = Hierarchy::covering(50, 2).unwrap();
        assert_eq!(h.base(), 8); // 8² = 64 ≥ 50 > 49
        let h = Hierarchy::covering(5, 1).unwrap();
        assert_eq!(h.base(), 5); // m¹ ≥ 5
    }

    #[test]
    fn digits() {
        let h = Hierarchy::new(3, 3).unwrap();
        // 17 = 1·9 + 2·3 + 2.
        assert_eq!(h.digit(17, 0), 2);
        assert_eq!(h.digit(17, 1), 2);
        assert_eq!(h.digit(17, 2), 1);
    }

    #[test]
    fn interval_sizes_match_figure_1() {
        let h = fig1();
        // Level 3 = whole line; level 0 intervals = pairs.
        assert_eq!(h.interval_size(3), 16);
        assert_eq!(h.interval_count(3), 1);
        assert_eq!(h.interval_size(0), 2);
        assert_eq!(h.interval_count(0), 8);
        assert_eq!(h.interval(0, 3), (6, 7));
        assert_eq!(h.interval_of(1, 13), (12, 15));
    }

    #[test]
    fn levels_partition_nodes() {
        let h = Hierarchy::new(3, 2).unwrap();
        for j in 0..2 {
            let mut seen = vec![false; h.n()];
            for r in 0..h.interval_count(j) {
                let (a, b) = h.interval(j, r);
                for (i, covered) in seen.iter_mut().enumerate().take(b + 1).skip(a) {
                    assert!(!*covered, "node {i} covered twice at level {j}");
                    *covered = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "level {j} must cover all nodes");
        }
    }

    #[test]
    fn each_interval_has_m_subintervals() {
        let h = Hierarchy::new(4, 3).unwrap();
        for j in 1..3 {
            for r in 0..h.interval_count(j) {
                let (a, b) = h.interval(j, r);
                let subs: Vec<usize> = h.intermediate_dests(j, a).collect();
                assert_eq!(subs.len(), 4);
                assert_eq!(subs[0], a);
                assert!(*subs.last().unwrap() < b);
            }
        }
    }

    #[test]
    fn figure_1_trajectory() {
        let h = fig1();
        assert_eq!(
            h.segment_chain(0b0000, 0b1011),
            vec![(0b0000, 0b1000), (0b1000, 0b1010), (0b1010, 0b1011)]
        );
    }

    #[test]
    fn segment_levels_strictly_decrease() {
        let h = Hierarchy::new(3, 3).unwrap();
        for i in 0..h.n() {
            for w in (i + 1)..h.n() {
                let chain = h.segment_chain(i, w);
                let levels: Vec<u32> = chain.iter().map(|&(a, _)| h.level(a, w)).collect();
                for pair in levels.windows(2) {
                    assert!(
                        pair[0] > pair[1],
                        "levels must strictly decrease: {levels:?}"
                    );
                }
                // Trajectory is contiguous and ends at w.
                assert_eq!(chain.first().unwrap().0, i);
                assert_eq!(chain.last().unwrap().1, w);
                for pair in chain.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0);
                }
            }
        }
    }

    #[test]
    fn intermediate_is_left_endpoint_of_lower_level_intervals() {
        // x(i, w) is a multiple of m^j (j = segment level), hence a left
        // endpoint of some level-j′ interval for every j′ < j.
        let h = Hierarchy::new(2, 4).unwrap();
        for i in 0..h.n() {
            for w in (i + 1)..h.n() {
                let j = h.level(i, w);
                let x = h.intermediate(i, w);
                assert_eq!(x % h.base().pow(j), 0, "x = {x} not a multiple of m^{j}");
                for j2 in 0..j {
                    assert_eq!(
                        x % h.interval_size(j2),
                        0,
                        "x = {x} not a level-{j2} left endpoint"
                    );
                }
            }
        }
    }

    #[test]
    fn dest_index_is_destination_digit() {
        let h = Hierarchy::new(4, 3).unwrap();
        for (i, w) in [(0usize, 63usize), (5, 37), (16, 17), (20, 60)] {
            let j = h.level(i, w);
            assert_eq!(h.dest_index(i, w), h.digit(w, j));
            // The intermediate destination lies in i's level-j interval.
            let (a, b) = h.interval_of(j, i);
            let x = h.intermediate(i, w);
            assert!(x >= a && x <= b, "x(i,w) = {x} outside [{a},{b}]");
            // And strictly right of i.
            assert!(x > i);
        }
    }

    #[test]
    fn class_matches_digit_definition() {
        // Def. 4.2 read literally: the highest differing digit, and w's
        // digit there — on perfect and non-perfect bases, every level count.
        for (m, l) in [(2, 4), (3, 3), (4, 1), (5, 2)] {
            let h = Hierarchy::new(m, l).unwrap();
            for i in 0..h.n() {
                for w in (i + 1)..h.n() {
                    let j = (0..l).rev().find(|&j| h.digit(i, j) != h.digit(w, j));
                    let j = j.expect("distinct positions differ in a digit");
                    assert_eq!(h.class(i, w), (j, h.digit(w, j)), "m={m} l={l} {i}->{w}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside virtual line")]
    fn class_rejects_destinations_off_the_line() {
        fig1().class(3, 16);
    }

    #[test]
    #[should_panic(expected = "requires i < w")]
    fn level_rejects_backwards_packets() {
        fig1().level(5, 5);
    }
}
