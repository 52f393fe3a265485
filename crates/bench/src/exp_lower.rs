//! E5 — the Theorem 5.1 lower bound, empirically.
//!
//! The §5 adversary forces Ω(((ℓ+1)ρ−1)/2ℓ · n^{1/ℓ}) peak occupancy
//! against *every* protocol. The experiment runs the construction against
//! the whole protocol zoo and reports, per protocol, the measured peak and
//! its ratio to the theorem's reference value — plus a growth-shape table
//! showing that the *best* protocol's peak scales like `n^{1/ℓ}` (linear in
//! m for fixed ℓ).

use aqt_adversary::LowerBoundAdversary;
use aqt_analysis::Table;
use aqt_core::{Greedy, GreedyPolicy, Hpts, Ppts};
use aqt_model::{analyze, Path, Pattern, Protocol, Rate, Simulation, Topology};

/// Builds the protocol zoo for a line of `nodes` nodes with an ℓ-level
/// hierarchy where applicable.
fn zoo(nodes: usize, l: u32) -> Vec<(&'static str, Box<dyn Protocol<Path>>)> {
    let mut v: Vec<(&'static str, Box<dyn Protocol<Path>>)> = vec![
        ("Greedy-FIFO", Box::new(Greedy::new(GreedyPolicy::Fifo))),
        (
            "Greedy-LIS",
            Box::new(Greedy::new(GreedyPolicy::LongestInSystem)),
        ),
        (
            "Greedy-NTG",
            Box::new(Greedy::new(GreedyPolicy::NearestToGo)),
        ),
        (
            "Greedy-FTG",
            Box::new(Greedy::new(GreedyPolicy::FurthestToGo)),
        ),
        ("PPTS", Box::new(Ppts::new())),
    ];
    if let Ok(hpts) = Hpts::for_line(nodes, l) {
        v.push(("HPTS", Box::new(hpts)));
    }
    v
}

/// The peak occupancy of `protocol` against `pattern` on an `n`-node
/// path, run `extra` rounds past the pattern's horizon.
fn peak(n: usize, protocol: Box<dyn Protocol<Path>>, pattern: &Pattern, extra: u64) -> usize {
    let mut sim = Simulation::new(Path::new(n), protocol, pattern).expect("valid pattern");
    sim.run_past_horizon(extra)
        .expect("valid run")
        .max_occupancy
}

/// E5a — every protocol pays the lower bound.
pub fn e5_duel(quick: bool) -> Vec<Table> {
    // (ℓ, m, ρ): ρ > 1/(ℓ+1), ρ·m integral.
    let configs: Vec<(u32, u64, Rate)> = if quick {
        vec![(1, 16, Rate::ONE), (2, 6, Rate::new(1, 2).expect("valid"))]
    } else {
        vec![
            (1, 64, Rate::ONE),
            (2, 16, Rate::new(1, 2).expect("valid")),
            (3, 8, Rate::new(1, 2).expect("valid")),
        ]
    };
    let mut table = Table::new(
        "E5a (Thm 5.1) - lower-bound adversary vs the protocol zoo",
        [
            "l",
            "m",
            "n",
            "rho",
            "sigma*",
            "reference",
            "protocol",
            "measured",
            "ratio",
        ],
    );
    let mut min_ratio = f64::INFINITY;
    for (l, m, rho) in configs {
        let adv = LowerBoundAdversary::new(l, m, rho).expect("valid parameters");
        let pattern = adv.pattern();
        let topo = adv.topology();
        let sigma_star = analyze(&topo, &pattern, rho).tight_sigma;
        let reference = adv.theorem_bound();
        for (label, protocol) in zoo(topo.node_count(), l) {
            let measured = peak(topo.node_count(), protocol, &pattern, 4 * u64::from(l));
            let ratio = measured as f64 / reference;
            min_ratio = min_ratio.min(ratio);
            table.push_row([
                l.to_string(),
                m.to_string(),
                adv.n().to_string(),
                rho.to_string(),
                sigma_star.to_string(),
                format!("{reference:.1}"),
                label.to_string(),
                measured.to_string(),
                format!("{ratio:.2}"),
            ]);
        }
    }
    table.note("reference = ((l+1)rho-1)/(2l) * n^(1/l); every ratio must be Omega(1)");
    table.note(format!("minimum ratio over all rows: {min_ratio:.2}"));

    // Shape: fix ℓ = 2, grow m; the best protocol's peak grows ~linearly in m.
    let mut shape = Table::new(
        "E5b - growth shape at l = 2: min-over-zoo peak vs m (expect ~linear)",
        [
            "m",
            "n",
            "reference",
            "best protocol",
            "best peak",
            "peak/m",
        ],
    );
    let ms: &[u64] = if quick { &[4, 8] } else { &[4, 8, 16] };
    for &m in ms {
        let rho = Rate::new(1, 2).expect("valid");
        let adv = LowerBoundAdversary::new(2, m, rho).expect("valid parameters");
        let pattern = adv.pattern();
        let topo = adv.topology();
        let mut best: Option<(String, usize)> = None;
        for (label, protocol) in zoo(topo.node_count(), 2) {
            let measured = peak(topo.node_count(), protocol, &pattern, 8);
            if best.as_ref().is_none_or(|(_, b)| measured < *b) {
                best = Some((label.to_string(), measured));
            }
        }
        let (label, peak) = best.expect("zoo is non-empty");
        shape.push_row([
            m.to_string(),
            adv.n().to_string(),
            format!("{:.1}", adv.theorem_bound()),
            label,
            peak.to_string(),
            format!("{:.2}", peak as f64 / m as f64),
        ]);
    }
    shape.note("peak/m roughly constant = Theta(n^(1/l)) growth, matching Thm 5.1");
    vec![table, shape]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_pays_the_bound() {
        let tables = e5_duel(true);
        // Parse the ratio column of E5a: all ratios ≥ 0.5 (the theorem's
        // constant is asymptotic; 0.5 is a conservative empirical floor).
        let csv = tables[0].to_csv();
        let mut checked = 0;
        for line in csv.lines().skip(1) {
            let ratio: f64 = line
                .rsplit(',')
                .next()
                .expect("ratio column")
                .parse()
                .expect("ratio is a float");
            assert!(ratio >= 0.5, "ratio {ratio} too small:\n{csv}");
            checked += 1;
        }
        assert!(checked >= 10, "expected a full zoo, got {checked} rows");
    }

    #[test]
    fn sigma_of_construction_is_tiny() {
        let tables = e5_duel(true);
        let csv = tables[0].to_csv();
        for line in csv.lines().skip(1) {
            let sigma: u64 = line
                .split(',')
                .nth(4)
                .expect("sigma column")
                .parse()
                .expect("int");
            assert!(sigma <= 2, "construction burstiness {sigma} > 2");
        }
    }
}
