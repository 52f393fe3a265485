//! Ablations A1/A2 and the Figure 1 rendering (E8).
//!
//! * **A1** removes HPTS's `ActivatePreBad` cascade: the paper's badness
//!   argument needs it (a packet finishing its segment may land on an
//!   occupied pseudo-buffer whose instance did not advance). The ablation
//!   quantifies how much the bound degrades without it.
//! * **A2** compares the faithful (space-only) PTS/PPTS against the eager
//!   extensions: same measured space, but finite latency and full
//!   delivery.
//! * **E8** prints the paper's Figure 1.

use aqt_adversary::{Cadence, DestSpec};
use aqt_analysis::{render_figure1, run_scenario, Scenario, Table, Verdict};
use aqt_core::badness::max_badness_hpts;
use aqt_core::{Hierarchy, Hpts, ProtocolSpec};
use aqt_model::{Rate, TopologySpec};

use crate::row::{peak_bound, random, sigma_star, simulate_on_path};

/// A1 — HPTS with and without the pre-bad cascade.
///
/// Besides the peak occupancy, the table tracks the quantity the cascade
/// is about: the Lemma 4.8 potential `max_i B(i)` sampled at the end of
/// every phase. The idealized proof caps it at `ξ + 1 ≤ σ* + 1`; the
/// implementable algorithm (with the paper's appendix typos repaired)
/// keeps it *bounded* within a small additive constant of that cap —
/// measured here — and the Thm 4.1 occupancy bound holds with margin
/// either way. The no-prebad column shows the cascade's effect on the
/// potential directly.
pub fn a1_prebad(quick: bool) -> Vec<Table> {
    let n = 256usize;
    let rounds = if quick { 400 } else { 1500 };
    let mut table = Table::new(
        "A1 - ablation: HPTS without ActivatePreBad",
        [
            "l",
            "variant",
            "bound",
            "measured",
            "verdict",
            "max phase-end badness",
            "proof cap sigma*+1",
        ],
    );
    for l in [2u32, 4] {
        // The plain-HPTS scenario's report prices both variants: Thm 4.1's
        // bound does not depend on the cascade.
        let rho = Rate::one_over(l).expect("valid rate");
        let source = random(
            rho,
            2,
            rounds,
            DestSpec::AnyReachable,
            Cadence::Bursty { period: 8 },
            3,
        );
        let plain = Scenario::new(
            TopologySpec::Path { n },
            ProtocolSpec::Hpts { levels: l },
            source,
            300,
        );
        let report = plain.validate().expect("valid scenario");
        let bound = peak_bound(&report).expect("a paper bound");
        for (label, hpts) in [
            ("full", Hpts::for_line(n, l).expect("fits")),
            (
                "no-prebad",
                Hpts::for_line(n, l).expect("fits").without_prebad(),
            ),
        ] {
            let hierarchy = *hpts.hierarchy();
            let mut sim = simulate_on_path(&plain, hpts);
            let horizon = rounds + 300;
            let mut max_phase_end_badness = 0usize;
            for t in 0..horizon {
                sim.step().expect("valid plan");
                // Lemma 4.8 speaks about the end of each phase: sample
                // B^{(ϕℓ)+} right after the last forwarding of the phase.
                if (t + 1) % u64::from(l) == 0 {
                    max_phase_end_badness =
                        max_phase_end_badness.max(max_badness_hpts(sim.state(), &hierarchy));
                }
            }
            let measured = sim.metrics().max_occupancy;
            table.push_row([
                l.to_string(),
                label.to_string(),
                bound.to_string(),
                measured.to_string(),
                Verdict::upper(measured as u64, bound).to_string(),
                max_phase_end_badness.to_string(),
                (sigma_star(&report) + 1).to_string(),
            ]);
        }
    }
    table.note(
        "the potential stays bounded near the idealized sigma*+1 cap; see DESIGN.md sec 6 on the",
    );
    table.note("implementation-vs-proof slack (a small additive constant; the occupancy bound is unaffected)");
    vec![table]
}

/// A2 — eager delivery extensions of PTS/PPTS.
pub fn a2_eager(quick: bool) -> Vec<Table> {
    let n = 64usize;
    let rounds = if quick { 200 } else { 600 };
    let mut table = Table::new(
        "A2 - ablation: eager delivery variants",
        [
            "protocol",
            "max occupancy",
            "delivered",
            "injected",
            "mean latency",
        ],
    );
    let rho = Rate::new(1, 2).expect("valid rate");
    let single = random(rho, 2, rounds, DestSpec::fixed([n - 1]), Cadence::Smooth, 8);
    let multi = random(
        rho,
        2,
        rounds,
        DestSpec::Spread { count: 8 },
        Cadence::Smooth,
        9,
    );
    let fmt_latency = |l: Option<f64>| l.map_or_else(|| "-".to_string(), |v| format!("{v:.1}"));
    let pts = |eager| ProtocolSpec::Pts { dest: None, eager };
    let ppts = |eager| ProtocolSpec::Ppts { eager };
    for (protocol, source) in [
        (pts(false), &single),
        (pts(true), &single),
        (ppts(false), &multi),
        (ppts(true), &multi),
    ] {
        let path = TopologySpec::Path { n };
        let run = run_scenario(&Scenario::new(path, protocol, source.clone(), 400));
        let summary = run.expect("valid run");
        table.push_row([
            summary.protocol.clone(),
            summary.max_occupancy.to_string(),
            summary.delivered.to_string(),
            summary.injected.to_string(),
            fmt_latency(summary.mean_latency),
        ]);
    }
    table.note("eager variants must deliver everything; faithful variants may park packets");
    table.note("space usage of eager variants stays within the faithful bounds (empirically)");
    vec![table]
}

/// E8 — the paper's Figure 1 as text.
pub fn e8_figure1() -> String {
    let h = Hierarchy::new(2, 4).expect("figure-1 geometry");
    render_figure1(&h, Some((0b0000, 0b1011)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_full_variant_holds_bound_and_potential_stays_bounded() {
        let tables = a1_prebad(true);
        let csv = tables[0].to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells[1] == "full" {
                assert_eq!(cells[4], "ok", "full HPTS violated its bound: {line}");
                let badness: u64 = cells[5].parse().expect("badness column");
                let cap: u64 = cells[6].parse().expect("cap column");
                let l: u64 = cells[0].parse().expect("level column");
                // Empirical regression guard: the implementable algorithm
                // tracks the idealized potential within +ℓ+2 (see the
                // table notes / DESIGN.md §6).
                assert!(
                    badness <= cap + l + 2,
                    "full HPTS phase-end badness {badness} drifted past sigma*+1+l+2: {line}"
                );
            }
        }
    }

    #[test]
    fn a2_eager_delivers_everything() {
        let tables = a2_eager(true);
        let csv = tables[0].to_csv();
        for line in csv.lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            if cells[0].contains("eager") {
                assert_eq!(cells[2], cells[3], "eager variant left packets: {line}");
            }
        }
    }

    #[test]
    fn e8_matches_figure() {
        let fig = e8_figure1();
        assert!(fig.contains("I3,0"));
        assert!(fig.contains("level 3: 0000 -> 1000"));
    }
}
