//! Upper-bound experiments E1–E4: PTS, PPTS, trees, HPTS.
//!
//! Each experiment regenerates one of the paper's guarantees as a
//! bound-vs-measured table over randomized *and* deterministic bounded
//! adversaries. "Verdict" must read `ok` on every row — a `VIOLATED` entry
//! would be a counterexample to the respective proposition (or a bug in
//! this reproduction).

use aqt_adversary::{patterns, Cadence, DestSpec, RandomAdversary};
use aqt_analysis::{bounds, run_pattern, Table, Verdict};
use aqt_core::{Greedy, GreedyPolicy, Hpts, LevelSchedule, Ppts, Pts, TreePpts, TreePts};
use aqt_model::{analyze, DirectedTree, NodeId, Path, Rate, Topology};

/// Settle time after the adversary stops.
const EXTRA: u64 = 200;

/// E1 — Prop. 3.1: PTS keeps single-destination buffers at `2 + σ`.
pub fn e1_pts(quick: bool) -> Vec<Table> {
    let n = if quick { 32 } else { 64 };
    let rounds = if quick { 200 } else { 600 };
    let mut table = Table::new(
        "E1 (Prop 3.1) - PTS single destination: bound 2 + sigma",
        ["rho", "sigma*", "cadence", "bound", "measured", "verdict"],
    );
    for (num, den) in [(1u32, 4u32), (1, 2), (3, 4), (1, 1)] {
        let rho = Rate::new(num, den).expect("valid rate");
        for sigma in [0u64, 1, 2, 4, 8] {
            for (cadence, label) in [
                (Cadence::Smooth, "smooth"),
                (Cadence::Bursty { period: 20 }, "bursty"),
            ] {
                let pattern = RandomAdversary::new(rho, sigma, rounds)
                    .destinations(DestSpec::fixed([n - 1]))
                    .cadence(cadence)
                    .seed(11 + sigma)
                    .build_path(&Path::new(n));
                // Report the *measured* σ — the bound is about the actual
                // pattern, which may be less bursty than the budget.
                let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
                let summary =
                    run_pattern(Path::new(n), Pts::new(NodeId::new(n - 1)), &pattern, EXTRA)
                        .expect("valid run");
                let bound = bounds::pts_bound(sigma_star);
                table.push_row([
                    rho.to_string(),
                    sigma_star.to_string(),
                    label.to_string(),
                    bound.to_string(),
                    summary.max_occupancy.to_string(),
                    Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
                ]);
            }
        }
    }
    table.note(format!("path of n = {n} nodes, {rounds} adversary rounds"));
    table.note("sigma* = tight burstiness of the generated pattern (measured)");

    // Deterministic stress: the peak-chase pattern.
    let mut stress = Table::new(
        "E1b - PTS deterministic peak-chase stress",
        ["n", "rho", "sigma*", "bound", "measured", "verdict"],
    );
    for n in [16usize, 64, 256] {
        let rho = Rate::new(1, 2).expect("valid rate");
        let pattern = patterns::peak_chase(n, rho, 4, 300);
        let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
        let summary = run_pattern(Path::new(n), Pts::new(NodeId::new(n - 1)), &pattern, EXTRA)
            .expect("valid run");
        let bound = bounds::pts_bound(sigma_star);
        stress.push_row([
            n.to_string(),
            rho.to_string(),
            sigma_star.to_string(),
            bound.to_string(),
            summary.max_occupancy.to_string(),
            Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
        ]);
    }
    stress.note("bound is n-independent: the measured column must not grow with n");
    vec![table, stress]
}

/// E2 — Prop. 3.2: PPTS keeps d-destination buffers at `1 + d + σ`;
/// greedy baselines have no such guarantee.
pub fn e2_ppts(quick: bool) -> Vec<Table> {
    let n = if quick { 33 } else { 65 };
    let rounds = if quick { 200 } else { 600 };
    let rho = Rate::ONE;
    let mut table = Table::new(
        "E2 (Prop 3.2) - PPTS with d destinations: bound 1 + d + sigma",
        [
            "d", "sigma*", "bound", "PPTS", "verdict", "FIFO", "LIS", "NTG",
        ],
    );
    for d in [1usize, 2, 4, 8, 16, 32] {
        let pattern = RandomAdversary::new(rho, 2, rounds)
            .destinations(DestSpec::Spread { count: d })
            .seed(100 + d as u64)
            .build_path(&Path::new(n));
        let d_actual = pattern.destinations().len();
        let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
        let ppts = run_pattern(Path::new(n), Ppts::new(), &pattern, EXTRA).expect("valid run");
        let fifo = run_pattern(
            Path::new(n),
            Greedy::new(GreedyPolicy::Fifo),
            &pattern,
            EXTRA,
        )
        .expect("valid run");
        let lis = run_pattern(
            Path::new(n),
            Greedy::new(GreedyPolicy::LongestInSystem),
            &pattern,
            EXTRA,
        )
        .expect("valid run");
        let ntg = run_pattern(
            Path::new(n),
            Greedy::new(GreedyPolicy::NearestToGo),
            &pattern,
            EXTRA,
        )
        .expect("valid run");
        let bound = bounds::ppts_bound(d_actual, sigma_star);
        table.push_row([
            d_actual.to_string(),
            sigma_star.to_string(),
            bound.to_string(),
            ppts.max_occupancy.to_string(),
            Verdict::upper(ppts.max_occupancy as u64, bound).to_string(),
            fifo.max_occupancy.to_string(),
            lis.max_occupancy.to_string(),
            ntg.max_occupancy.to_string(),
        ]);
    }
    table.note(format!(
        "path of n = {n} nodes, rate 1 random adversary, {rounds} rounds"
    ));
    table.note("greedy columns shown for contrast; the bound applies to PPTS only");

    // Deterministic round-robin + staircase stress.
    let mut stress = Table::new(
        "E2b - PPTS deterministic stress (round-robin / staircase)",
        ["workload", "d", "sigma*", "bound", "measured", "verdict"],
    );
    for d in [2usize, 4, 8] {
        let dests = patterns::even_destinations(n, d);
        for (label, pattern) in [
            ("round-robin", patterns::round_robin(&dests, rho, rounds)),
            ("staircase", patterns::staircase(&dests, 3, 2)),
        ] {
            let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
            let summary =
                run_pattern(Path::new(n), Ppts::new(), &pattern, EXTRA).expect("valid run");
            let bound = bounds::ppts_bound(pattern.destinations().len(), sigma_star);
            stress.push_row([
                label.to_string(),
                pattern.destinations().len().to_string(),
                sigma_star.to_string(),
                bound.to_string(),
                summary.max_occupancy.to_string(),
                Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
            ]);
        }
    }
    vec![table, stress]
}

/// E3 — Props. B.3 and 3.5: tree forwarding bounds `2 + σ` and
/// `1 + d′ + σ`.
pub fn e3_trees(quick: bool) -> Vec<Table> {
    let rounds = if quick { 150 } else { 400 };
    let rho = Rate::new(1, 2).expect("valid rate");
    let mut single = Table::new(
        "E3a (Prop B.3) - TreePTS single destination (root): bound 2 + sigma",
        ["tree", "nodes", "sigma*", "bound", "measured", "verdict"],
    );
    let shapes: Vec<(&str, DirectedTree)> = vec![
        ("path(32)", DirectedTree::path(32)),
        ("star(16)", DirectedTree::star(16)),
        ("binary(h=4)", DirectedTree::full_binary(4)),
        ("caterpillar(8x3)", DirectedTree::caterpillar(8, 3)),
        ("random(40)", DirectedTree::random(40, 99)),
    ];
    for (label, tree) in &shapes {
        let root = tree.root();
        let pattern = RandomAdversary::new(rho, 3, rounds)
            .destinations(DestSpec::Fixed { dests: vec![root] })
            .seed(7)
            .build_tree(tree);
        let sigma_star = aqt_analysis::measured_sigma_on(tree, &pattern, rho);
        let summary =
            run_pattern(tree.clone(), TreePts::new(root), &pattern, EXTRA).expect("valid run");
        let bound = bounds::tree_pts_bound(sigma_star);
        single.push_row([
            label.to_string(),
            tree.node_count().to_string(),
            sigma_star.to_string(),
            bound.to_string(),
            summary.max_occupancy.to_string(),
            Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
        ]);
    }

    let mut multi = Table::new(
        "E3b (Prop 3.5) - TreePPTS multi destination: bound 1 + d' + sigma",
        ["tree", "d", "d'", "sigma*", "bound", "measured", "verdict"],
    );
    for (label, tree) in &shapes {
        for count in [2usize, 4] {
            let internal = (0..tree.node_count())
                .map(NodeId::new)
                .filter(|v| !tree.is_leaf(*v))
                .count();
            if internal < count {
                continue;
            }
            let pattern = RandomAdversary::new(rho, 2, rounds)
                .destinations(DestSpec::Spread { count })
                .seed(13)
                .build_tree(tree);
            if pattern.is_empty() {
                continue;
            }
            let dests = pattern.destinations();
            let d_prime = tree.destination_depth(&dests);
            let sigma_star = aqt_analysis::measured_sigma_on(tree, &pattern, rho);
            let summary =
                run_pattern(tree.clone(), TreePpts::new(), &pattern, EXTRA).expect("valid run");
            let bound = bounds::tree_ppts_bound(d_prime, sigma_star);
            multi.push_row([
                label.to_string(),
                dests.len().to_string(),
                d_prime.to_string(),
                sigma_star.to_string(),
                bound.to_string(),
                summary.max_occupancy.to_string(),
                Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
            ]);
        }
    }
    multi.note("d' = max destinations on any leaf-root path (may be < d)");
    vec![single, multi]
}

/// E4 — Thm. 4.1: HPTS keeps buffers at `ℓ·n^{1/ℓ} + σ + 1` when ρ·ℓ ≤ 1.
pub fn e4_hpts(quick: bool) -> Vec<Table> {
    let rounds = if quick { 400 } else { 1200 };
    let n = 256usize;
    let mut table = Table::new(
        "E4 (Thm 4.1) - HPTS on n = 256: bound l*n^(1/l) + sigma + 1",
        [
            "l", "m", "rho", "sigma*", "bound", "measured", "verdict", "staged",
        ],
    );
    for l in [1u32, 2, 4, 8] {
        let rho = Rate::one_over(l).expect("valid rate");
        let hpts = Hpts::for_line(n, l).expect("geometry fits");
        let m = hpts.hierarchy().base();
        let pattern = RandomAdversary::new(rho, 2, rounds)
            .seed(42 + u64::from(l))
            .build_path(&Path::new(n));
        let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
        let summary = run_pattern(
            Path::new(n),
            hpts.clone(),
            &pattern,
            EXTRA + 4 * u64::from(l),
        )
        .expect("valid run");
        let bound = bounds::hpts_bound(l, m, sigma_star);
        table.push_row([
            l.to_string(),
            m.to_string(),
            rho.to_string(),
            sigma_star.to_string(),
            bound.to_string(),
            summary.max_occupancy.to_string(),
            Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
            summary.max_staged.to_string(),
        ]);
    }
    table.note("measured = accepted occupancy (the Thm 4.1 quantity); staged = peak of the phase-batch staging area");

    // Schedule comparison (paper ambiguity; see aqt-core::hpts docs).
    let mut sched = Table::new(
        "E4b - HPTS level schedule (descending = analysis text, ascending = Alg. 3 literal)",
        ["l", "schedule", "bound", "measured", "verdict"],
    );
    for l in [2u32, 4] {
        let rho = Rate::one_over(l).expect("valid rate");
        let pattern = RandomAdversary::new(rho, 2, rounds)
            .cadence(Cadence::Bursty { period: 16 })
            .seed(5)
            .build_path(&Path::new(n));
        let sigma_star = analyze(&Path::new(n), &pattern, rho).tight_sigma;
        for (label, schedule) in [
            ("descending", LevelSchedule::Descending),
            ("ascending", LevelSchedule::Ascending),
        ] {
            let hpts = Hpts::for_line(n, l)
                .expect("geometry fits")
                .schedule(schedule);
            let m = hpts.hierarchy().base();
            let summary = run_pattern(Path::new(n), hpts, &pattern, EXTRA).expect("valid run");
            let bound = bounds::hpts_bound(l, m, sigma_star);
            sched.push_row([
                l.to_string(),
                label.to_string(),
                bound.to_string(),
                summary.max_occupancy.to_string(),
                Verdict::upper(summary.max_occupancy as u64, bound).to_string(),
            ]);
        }
    }
    vec![table, sched]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ok(tables: &[Table]) {
        for t in tables {
            assert!(
                !t.render().contains("VIOLATED"),
                "{} contains a violated bound:\n{}",
                t.title(),
                t.render()
            );
        }
    }

    #[test]
    fn e1_bounds_hold() {
        all_ok(&e1_pts(true));
    }

    #[test]
    fn e2_bounds_hold() {
        all_ok(&e2_ppts(true));
    }

    #[test]
    fn e3_bounds_hold() {
        all_ok(&e3_trees(true));
    }

    #[test]
    fn e4_bounds_hold() {
        all_ok(&e4_hpts(true));
    }
}
