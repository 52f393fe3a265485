//! E9 — locality as a third tradeoff axis (**exploratory**; the paper's
//! open problem).
//!
//! The paper's companion works prove `Θ(ρ·⌈log n / r⌉ + σ)` space is the
//! truth for locality-`r` protocols on the single-destination line. This
//! experiment measures the curve for [`LocalPts`]: sweep the radius `r` at
//! fixed n and the line length n at fixed `r`, under a paced stream plus
//! periodic bursts.

use aqt_adversary::patterns;
use aqt_analysis::Table;
use aqt_core::LocalPts;
use aqt_model::{analyze, NodeId, Path, Pattern, Rate, Simulation};

/// The peak occupancy of radius-`r` LocalPTS toward the last node of an
/// `n`-node path, run `extra` rounds past `pattern`'s horizon.
fn peak(n: usize, r: usize, pattern: &Pattern, extra: u64) -> usize {
    let protocol = LocalPts::new(NodeId::new(n - 1), r);
    let mut sim = Simulation::new(Path::new(n), protocol, pattern).expect("valid pattern");
    sim.run_past_horizon(extra)
        .expect("valid run")
        .max_occupancy
}

/// E9 — measured space of locality-r PTS vs the radius and vs n.
pub fn e9_locality(quick: bool) -> Vec<Table> {
    let rounds = if quick { 300 } else { 1000 };
    let rho = Rate::ONE;
    let sigma = 3;

    // Sweep r at fixed n.
    let n = 256usize;
    let pattern = patterns::peak_chase(n, rho, sigma, rounds);
    let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
    let mut table = Table::new(
        format!("E9a (open problem) - LocalPTS space vs radius (n = {n}, sigma* = {sigma_star})"),
        ["radius r", "measured", "PTS reference (r = n)"],
    );
    let reference = peak(n, n, &pattern, 400);
    for r in [1usize, 2, 4, 8, 16, 64, n] {
        table.push_row([
            r.to_string(),
            peak(n, r, &pattern, 400).to_string(),
            reference.to_string(),
        ]);
    }
    table.note("exploratory: no theorem of the paper covers LocalPTS; the companion");
    table.note("works' Theta(rho ceil(log n / r) + sigma) shape is the comparison point");
    table.note("peak-chase is NOT the locality worst case (that needs the recursive block-");
    table.note("merging adversary of [9]/[17]); expect near-flat curves here, small r pays +1");

    // Sweep n at fixed small r: the log n / r growth axis.
    let r = 2usize;
    let mut ntable = Table::new(
        format!("E9b (open problem) - LocalPTS space vs n at fixed radius r = {r}"),
        ["n", "sigma*", "measured", "r = n (PTS) measured"],
    );
    for n in [32usize, 64, 128, 256, 512] {
        let pattern = patterns::peak_chase(n, rho, sigma, rounds);
        let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
        ntable.push_row([
            n.to_string(),
            sigma_star.to_string(),
            peak(n, r, &pattern, 2 * n as u64).to_string(),
            peak(n, n, &pattern, 2 * n as u64).to_string(),
        ]);
    }
    ntable.note("the r = n column is flat (Prop. 3.1); under this benign workload the local");
    ntable.note("column stays near-flat too — realizing Omega(log n / r) needs the recursive");
    ntable.note("merging adversary, which is open-problem territory the paper defers");
    vec![table, ntable]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_full_radius_matches_reference_and_bounds_hold() {
        let tables = e9_locality(true);
        assert_eq!(tables.len(), 2);
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(String::from).collect())
            .collect();
        // The last row (r = n) must equal the PTS reference column.
        let last = rows.last().expect("rows present");
        assert_eq!(last[1], last[2], "r = n must match the reference: {csv}");
        // Every measured value is finite and sane (< n).
        for row in &rows {
            let measured: usize = row[1].parse().expect("int");
            assert!(measured < 256, "locality blow-up: {csv}");
        }
    }
}
