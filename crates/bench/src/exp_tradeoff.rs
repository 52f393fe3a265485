//! E6/E7 — the headline space-bandwidth tradeoff.
//!
//! E6 sweeps the level count k = ⌊1/ρ⌋ at fixed n: halving the permitted
//! rate (doubling k) lets HPTS shrink buffers from Θ(n) toward Θ(k·n^{1/k})
//! — the paper's title tradeoff. E7 is the §1 "α-factor" reading: multiply
//! the number of destinations by α and either buffers grow by ~α (PPTS) or
//! rate shrinks by O(log α) with near-flat buffers (HPTS).

use aqt_adversary::{patterns, Cadence, DestSpec, SourceSpec};
use aqt_analysis::{Scenario, Table, Verdict};
use aqt_core::{Hierarchy, HptsD, ProtocolSpec};
use aqt_model::{Rate, TopologySpec};

use crate::row::{random, sigma_star, simulate_on_path, Row};

/// E6 — fixed n, sweep k = ⌊1/ρ⌋: measured HPTS space vs `k·n^{1/k}+σ+1`.
pub fn e6_tradeoff(quick: bool) -> Vec<Table> {
    let n = 256usize;
    let rounds = if quick { 400 } else { 1500 };
    let mut table = Table::new(
        "E6 (abstract) - space-bandwidth tradeoff on n = 256",
        ["k=1/rho", "m", "bound k*m+sigma+1", "measured", "verdict"],
    );
    for k in [1u32, 2, 3, 4, 8] {
        let rho = Rate::one_over(k).expect("valid rate");
        let source = random(
            rho,
            1,
            rounds,
            DestSpec::AnyReachable,
            Cadence::Smooth,
            77 + u64::from(k),
        );
        let row = Row::new(
            TopologySpec::Path { n },
            ProtocolSpec::Hpts { levels: k },
            source,
            300,
        );
        table.push_row([
            k.to_string(),
            Hierarchy::covering(n, k)
                .expect("geometry fits")
                .base()
                .to_string(),
            row.bound().to_string(),
            row.measured().to_string(),
            row.verdict().to_string(),
        ]);
    }
    table.note("halving the rate (k x2) shrinks the bound from Theta(n) to Theta(k n^{1/k})");
    table.note("k = 8 > log2(256)/... : past k = log n the k factor dominates (convex curve)");
    vec![table]
}

/// Round-robin traffic from node 0 over `dests` at rate ρ.
fn round_robin(dests: &[usize], rate: Rate, rounds: u64) -> SourceSpec {
    SourceSpec::RoundRobin {
        dests: dests.to_vec(),
        rate,
        rounds,
    }
}

/// E7 — the α-factor implication of §1: destinations ×α ⇒ buffers ×α
/// (PPTS at full rate) or buffers ~flat at rate 1/O(log α) (HPTS). The
/// second table validates the abstract's d-version via the experimental
/// destination-space hierarchy [`HptsD`]: `ℓ·(d+1)^{1/ℓ} + σ + 1` space
/// regardless of n.
pub fn e7_alpha(quick: bool) -> Vec<Table> {
    let n = 257usize;
    let rounds = if quick { 300 } else { 900 };
    let mut table = Table::new(
        "E7 (sec 1) - destinations x alpha: buffer x alpha, or bandwidth x O(log alpha)",
        [
            "d",
            "PPTS bound",
            "PPTS measured",
            "HPTS levels",
            "HPTS rho",
            "HPTS bound",
            "HPTS measured",
        ],
    );
    for d in [4usize, 8, 16, 32, 64] {
        let dests = patterns::even_destinations(n, d);
        // PPTS at full rate.
        let ppts = Row::new(
            TopologySpec::Path { n },
            ProtocolSpec::Ppts { eager: false },
            round_robin(&dests, Rate::ONE, rounds),
            200,
        );
        // HPTS at rate 1/⌈log2 d⌉ with matching level count. Past
        // `PROFILE_DRAIN_CAP` rounds (d = 32 and 64 in full mode) the bound
        // keeps the round robin's declared σ = 1.
        let levels = (usize::BITS - (d - 1).leading_zeros()).max(1);
        let rho = Rate::one_over(levels).expect("valid rate");
        let hpts = Row::new(
            TopologySpec::Path { n },
            ProtocolSpec::Hpts { levels },
            round_robin(&dests, rho, rounds * u64::from(levels)),
            300,
        );
        table.push_row([
            d.to_string(),
            ppts.bound().to_string(),
            ppts.measured().to_string(),
            levels.to_string(),
            rho.to_string(),
            hpts.bound().to_string(),
            hpts.measured().to_string(),
        ]);
    }
    table.note("PPTS columns grow ~linearly in d; HPTS columns grow ~logarithmically");
    table.note("rate for HPTS shrinks by O(log alpha) as the intro's second option describes");

    // Second table: the abstract's d-version, measured directly with the
    // destination-space hierarchy on a line much longer than d. HPTS-D
    // has no spec: it runs on the spec'd source, whose σ* the HPTS
    // scenario's report states.
    let mut dtable = Table::new(
        "E7b (abstract) - HPTS-D: space vs d at fixed n (experimental d-version)",
        [
            "d",
            "levels l",
            "m=(d+1)^(1/l)",
            "empirical bound l*m+s+1",
            "measured",
            "verdict",
        ],
    );
    let n = 512usize;
    for d in [3usize, 7, 15, 31] {
        let dests = patterns::even_destinations(n, d);
        let l = 2u32;
        let rho = Rate::one_over(l).expect("valid rate");
        let slow = Scenario::new(
            TopologySpec::Path { n },
            ProtocolSpec::Hpts { levels: l },
            round_robin(&dests, rho, rounds * u64::from(l)),
            400,
        );
        let sigma = sigma_star(&slow.validate().expect("valid scenario"));
        let hptsd = HptsD::new(dests, l).expect("valid destination set");
        let m = hptsd.hierarchy().base();
        let bound = hptsd.space_bound(sigma);
        let mut sim = simulate_on_path(&slow, hptsd);
        let measured = sim.run_past_horizon(400).expect("valid run").max_occupancy;
        dtable.push_row([
            d.to_string(),
            l.to_string(),
            m.to_string(),
            bound.to_string(),
            measured.to_string(),
            Verdict::upper(measured as u64, bound).to_string(),
        ]);
    }
    dtable.note("bound depends on d only (n = 512 fixed): the abstract's O(k d^{1/k})");
    dtable.note("HPTS-D is experimental: bound validated empirically, not proven in the paper");
    vec![table, dtable]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_bounds_hold_and_tradeoff_improves() {
        let tables = e6_tradeoff(true);
        let csv = tables[0].to_csv();
        assert!(!csv.contains("VIOLATED"));
        // Measured at k = 2 must be far below measured at k = 1 … compare
        // the *bounds*, which is the stable claim.
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(String::from).collect())
            .collect();
        let bound_at = |k: &str| -> u64 {
            rows.iter().find(|r| r[0] == k).expect("row present")[2]
                .parse()
                .expect("int")
        };
        assert!(bound_at("2") < bound_at("1") / 4);
        assert!(bound_at("4") < bound_at("2"));
    }

    #[test]
    fn e7b_dest_space_bound_holds_and_tracks_d_not_n() {
        let tables = e7_alpha(true);
        assert_eq!(tables.len(), 2, "E7 must emit the HPTS-D table");
        let csv = tables[1].to_csv();
        assert!(!csv.contains("VIOLATED"), "{csv}");
        // The bound column must stay far below n = 512 even at d = 31.
        let max_bound: u64 = csv
            .lines()
            .skip(1)
            .map(|l| {
                l.split(',')
                    .nth(3)
                    .expect("bound column")
                    .parse::<u64>()
                    .expect("int")
            })
            .max()
            .expect("rows");
        assert!(max_bound < 64, "bound {max_bound} should track d, not n");
    }

    #[test]
    fn e7_ppts_grows_hpts_stays_flat() {
        let tables = e7_alpha(true);
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(String::from).collect())
            .collect();
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        let ppts_growth: f64 =
            last[2].parse::<f64>().unwrap() / first[2].parse::<f64>().unwrap().max(1.0);
        let hpts_growth: f64 =
            last[6].parse::<f64>().unwrap() / first[6].parse::<f64>().unwrap().max(1.0);
        assert!(
            ppts_growth > hpts_growth,
            "PPTS growth {ppts_growth} must exceed HPTS growth {hpts_growth}\n{csv}"
        );
    }
}
