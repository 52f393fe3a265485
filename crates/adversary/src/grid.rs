//! Grid injection patterns: the workloads of the grid-routing literature
//! (Even & Medina; Even, Medina & Patt-Shamir) on [`Dag::grid`] meshes.
//!
//! Nodes of a `rows × cols` mesh are addressed as `(r, c)` with id
//! `r·cols + c` ([`grid_node`]); routing is row-column (XY), so a row
//! flood stays inside its row, a column flood inside its column, and
//! corner-bound traffic turns exactly once. Every generator comes in the
//! crate's usual two forms: a `*_source` streaming variant and the
//! materializing function of the same stem.

use aqt_model::{Dag, FnSource, Injection, InjectionSource, Pattern, Rate};

use crate::patterns::paced_stream_source;
use crate::shaper::ShapingSource;

/// The id of cell `(r, c)` in a `cols`-wide mesh.
pub fn grid_node(cols: usize, r: usize, c: usize) -> usize {
    r * cols + c
}

/// Streaming [`row_flood`]: a paced rate-ρ stream across `row`, from its
/// left end to its right end.
///
/// # Panics
///
/// Panics if `row ≥ rows` or `cols < 2`.
pub fn row_flood_source(
    rows: usize,
    cols: usize,
    row: usize,
    rate: Rate,
    rounds: u64,
) -> impl InjectionSource {
    assert!(row < rows, "row out of range");
    assert!(cols >= 2, "a row flood needs at least two columns");
    paced_stream_source(
        grid_node(cols, row, 0),
        grid_node(cols, row, cols - 1),
        rate,
        rounds,
    )
}

/// A paced rate-ρ stream across one row of a `rows × cols` mesh (left end
/// → right end): the canonical along-row load.
pub fn row_flood(rows: usize, cols: usize, row: usize, rate: Rate, rounds: u64) -> Pattern {
    row_flood_source(rows, cols, row, rate, rounds).into_pattern()
}

/// Streaming [`column_flood`]: a paced rate-ρ stream down `col`, top to
/// bottom.
///
/// # Panics
///
/// Panics if `col ≥ cols` or `rows < 2`.
pub fn column_flood_source(
    rows: usize,
    cols: usize,
    col: usize,
    rate: Rate,
    rounds: u64,
) -> impl InjectionSource {
    assert!(col < cols, "column out of range");
    assert!(rows >= 2, "a column flood needs at least two rows");
    paced_stream_source(
        grid_node(cols, 0, col),
        grid_node(cols, rows - 1, col),
        rate,
        rounds,
    )
}

/// A paced rate-ρ stream down one column of a `rows × cols` mesh (top →
/// bottom): the canonical along-column load.
pub fn column_flood(rows: usize, cols: usize, col: usize, rate: Rate, rounds: u64) -> Pattern {
    column_flood_source(rows, cols, col, rate, rounds).into_pattern()
}

/// The horizon of a diagonal wave on a `rows × cols` mesh,
/// `(rows + cols − 2)·gap + 1`, or `None` when it overflows the round
/// counter.
pub(crate) fn diagonal_wave_horizon(rows: usize, cols: usize, gap: u64) -> Option<u64> {
    let steps = (rows as u64).checked_add(cols as u64)?.checked_sub(2)?;
    steps.checked_mul(gap)?.checked_add(1)
}

/// Streaming [`diagonal_wave`]: wave `k` (at round `k·gap`, or all in
/// round 0 when `gap = 0`) injects `per_step` packets at every cell of
/// anti-diagonal `k` (`r + c = k`), all destined for the bottom-right
/// corner. Waves sweep the whole mesh, so corner-bound traffic from every
/// diagonal converges on the last column — the XY-routing hotspot.
///
/// # Panics
///
/// Panics if the mesh has fewer than 2 cells, `per_step == 0`, or
/// `(rows + cols − 2)·gap + 1` overflows `u64`.
pub fn diagonal_wave_source(
    rows: usize,
    cols: usize,
    per_step: usize,
    gap: u64,
) -> impl InjectionSource {
    assert!(rows * cols >= 2, "diagonal wave needs at least two cells");
    assert!(per_step > 0, "waves must carry packets");
    let corner = grid_node(cols, rows - 1, cols - 1);
    let waves = (rows + cols - 1) as u64;
    let horizon =
        diagonal_wave_horizon(rows, cols, gap).expect("(rows + cols - 2) * gap + 1 overflows u64");
    FnSource::new(horizon, move |t, out| {
        let emit_wave = |k: u64, t: u64, out: &mut Vec<Injection>| {
            for r in 0..rows {
                let k = k as usize;
                if k < r {
                    continue;
                }
                let c = k - r;
                if c >= cols {
                    continue;
                }
                let v = grid_node(cols, r, c);
                if v == corner {
                    continue; // the corner is the destination
                }
                out.extend(std::iter::repeat_n(Injection::new(t, v, corner), per_step));
            }
        };
        if gap == 0 {
            if t == 0 {
                for k in 0..waves {
                    emit_wave(k, 0, out);
                }
            }
        } else if t % gap == 0 {
            let k = t / gap;
            if k < waves {
                emit_wave(k, t, out);
            }
        }
    })
}

/// The diagonal-wave stress on a `rows × cols` mesh: successive
/// anti-diagonals fire toward the bottom-right corner every `gap` rounds
/// (all at once when `gap = 0`).
pub fn diagonal_wave(rows: usize, cols: usize, per_step: usize, gap: u64) -> Pattern {
    diagonal_wave_source(rows, cols, per_step, gap).into_pattern()
}

/// Every row flooded left → right **and** every column flooded top →
/// bottom, one packet each per round, for `rounds` rounds — the dense
/// cross-traffic load: routes are disjoint except at the row/column
/// crossing cells, so every link of the mesh carries traffic.
///
/// # Panics
///
/// Panics unless the mesh is at least 2 × 2.
pub fn all_floods_source(rows: usize, cols: usize, rounds: u64) -> impl InjectionSource {
    assert!(rows >= 2 && cols >= 2, "cross traffic needs a 2x2+ mesh");
    FnSource::new(rounds, move |t, out| {
        for r in 0..rows {
            out.push(Injection::new(
                t,
                grid_node(cols, r, 0),
                grid_node(cols, r, cols - 1),
            ));
        }
        for c in 0..cols {
            out.push(Injection::new(
                t,
                grid_node(cols, 0, c),
                grid_node(cols, rows - 1, c),
            ));
        }
    })
}

/// Materialized [`all_floods_source`].
pub fn all_floods(rows: usize, cols: usize, rounds: u64) -> Pattern {
    all_floods_source(rows, cols, rounds).into_pattern()
}

/// Leaky-bucket-shaped cross traffic on a mesh: the [`all_floods_source`]
/// wish stream (every row head one packet per round across its row, every
/// column head one per round down its column) for `wish_rounds` rounds —
/// an overloaded wish stream — shaped down to a (ρ, σ)-bounded schedule
/// by a [`ShapingSource`] over the mesh's own routes. The result
/// saturates its (ρ, σ) budget, which is exactly the pressure the
/// space-threshold experiments are about.
///
/// # Panics
///
/// Panics if the mesh is not at least 2 × 2, if ρ = 0, or if `ρ + σ < 1`
/// (no non-empty bounded pattern exists; see [`ShapingSource::new`]).
pub fn shaped_cross_traffic(
    mesh: &Dag,
    rate: Rate,
    sigma: u64,
    wish_rounds: u64,
) -> impl InjectionSource {
    let (rows, cols) = mesh
        .grid_dims()
        .expect("shaped cross traffic needs a Dag::grid mesh");
    let wishes = all_floods_source(rows, cols, wish_rounds);
    ShapingSource::new(mesh.clone(), wishes, rate, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{analyze, InjectionSource, NodeId, Topology};

    #[test]
    #[should_panic(expected = "(rows + cols - 2) * gap + 1 overflows u64")]
    fn diagonal_wave_horizon_overflow_panics_with_its_formula() {
        let _ = diagonal_wave_source(2, 2, 1, u64::MAX);
    }

    #[test]
    fn row_flood_stays_in_its_row() {
        let mesh = Dag::grid(3, 4);
        let p = row_flood(3, 4, 1, Rate::ONE, 8);
        p.validate(&mesh).unwrap();
        assert_eq!(p.len(), 8);
        for i in p.injections() {
            assert_eq!(i.source, NodeId::new(grid_node(4, 1, 0)));
            assert_eq!(i.dest, NodeId::new(grid_node(4, 1, 3)));
        }
        // The route never leaves row 1.
        let route = mesh.route_buffers(p.injections()[0].source, p.injections()[0].dest);
        for v in route.unwrap() {
            assert_eq!(v.index() / 4, 1);
        }
    }

    #[test]
    fn column_flood_stays_in_its_column() {
        let mesh = Dag::grid(4, 3);
        let p = column_flood(4, 3, 2, Rate::new(1, 2).unwrap(), 10);
        p.validate(&mesh).unwrap();
        assert_eq!(p.len(), 5);
        let route = mesh
            .route_buffers(p.injections()[0].source, p.injections()[0].dest)
            .unwrap();
        for v in route {
            assert_eq!(v.index() % 3, 2);
        }
    }

    #[test]
    fn diagonal_wave_covers_every_cell_once() {
        let (rows, cols) = (3usize, 3usize);
        let p = diagonal_wave(rows, cols, 2, 2);
        p.validate(&Dag::grid(rows, cols)).unwrap();
        // Every non-corner cell fires exactly once, with per_step packets.
        assert_eq!(p.len(), (rows * cols - 1) * 2);
        // Wave k fires at round 2k.
        let first = &p.injections()[0];
        assert_eq!(first.round.value(), 0);
        assert_eq!(first.source, NodeId::new(0));
        let gap0 = diagonal_wave(rows, cols, 1, 0);
        assert_eq!(gap0.len(), rows * cols - 1);
        assert!(gap0.injections().iter().all(|i| i.round.value() == 0));
    }

    #[test]
    fn shaped_cross_traffic_is_bounded_by_construction() {
        let mesh = Dag::grid(3, 3);
        let rate = Rate::ONE;
        let sigma = 2u64;
        let shaped = shaped_cross_traffic(&mesh, rate, sigma, 10).into_pattern();
        assert!(!shaped.is_empty());
        shaped.validate(&mesh).unwrap();
        assert!(analyze(&mesh, &shaped, rate).tight_sigma <= sigma);
    }

    #[test]
    fn streaming_sources_match_materialized_patterns() {
        assert_eq!(
            row_flood_source(2, 5, 0, Rate::new(2, 3).unwrap(), 12).into_pattern(),
            row_flood(2, 5, 0, Rate::new(2, 3).unwrap(), 12)
        );
        assert_eq!(
            column_flood_source(5, 2, 1, Rate::ONE, 7).into_pattern(),
            column_flood(5, 2, 1, Rate::ONE, 7)
        );
        assert_eq!(
            diagonal_wave_source(3, 4, 2, 3).into_pattern(),
            diagonal_wave(3, 4, 2, 3)
        );
    }

    #[test]
    fn grid_node_addresses_row_major() {
        assert_eq!(grid_node(4, 0, 0), 0);
        assert_eq!(grid_node(4, 1, 2), 6);
        assert_eq!(grid_node(4, 2, 3), 11);
    }
}
