//! Information gathering on directed trees (Prop. 3.5 / App. B.2): sensors
//! at the leaves of a convergecast tree report to aggregation points; all
//! edges are oriented toward the root.
//!
//! Demonstrates that Tree-PPTS needs at most `1 + d' + σ` buffer slots,
//! where `d'` is the number of *destinations on any single leaf-root path*
//! — not the total number of destinations `d`.
//!
//! ```text
//! cargo run --release --example tree_gathering
//! ```

use std::collections::BTreeSet;

use small_buffers::{
    analyze, bounds, DirectedTree, NodeId, RandomAdversary, Rate, Simulation, Table, Topology,
    TreePpts, TreePts,
};

fn run_tree_case(
    label: &str,
    tree: DirectedTree,
    dests: Vec<usize>,
    table: &mut Table,
) -> Result<(), Box<dyn std::error::Error>> {
    let rho = Rate::new(1, 2)?;
    let sigma = 3;
    let dest_set: BTreeSet<NodeId> = dests.iter().map(|&d| NodeId::new(d)).collect();
    let d_prime = tree.destination_depth(&dest_set);

    let pattern = RandomAdversary::new(rho, sigma, 1_500)
        .destinations(small_buffers::DestSpec::fixed(dests))
        .seed(11)
        .build_tree(&tree);
    let tight = analyze(&tree, &pattern, rho).tight_sigma;

    let n = tree.node_count();
    let mut sim = Simulation::new(tree, TreePpts::new(), &pattern)?;
    sim.run_past_horizon(4 * n as u64)?;
    let peak = sim.metrics().max_occupancy;
    let bound = bounds::tree_ppts_bound(d_prime, tight);

    table.push_row([
        label.to_string(),
        n.to_string(),
        d_prime.to_string(),
        tight.to_string(),
        peak.to_string(),
        bound.to_string(),
        if (peak as u64) <= bound {
            "holds"
        } else {
            "VIOLATED"
        }
        .to_string(),
    ]);
    assert!((peak as u64) <= bound, "Prop. 3.5 violated on {label}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = Table::new(
        "tree gathering: Tree-PPTS vs 1 + d' + sigma (Prop. 3.5)",
        ["tree", "n", "d'", "tight_sigma", "peak", "bound", "verdict"],
    );

    // A complete binary convergecast tree; destinations are the root plus
    // two internal aggregation nodes on different branches.
    let binary = DirectedTree::full_binary(5);
    let root = binary.root().index();
    run_tree_case("binary h=5", binary, vec![root, 1, 2], &mut table)?;

    // A caterpillar: long spine with sensor legs — the worst shape for
    // destination depth, since all destinations sit on one spine path.
    let caterpillar = DirectedTree::caterpillar(24, 3);
    let spine_dests = vec![0, 4, 8, 12, 16, 20];
    run_tree_case("caterpillar 24x3", caterpillar, spine_dests, &mut table)?;

    // A random tree with destinations scattered through it.
    let random = DirectedTree::random(80, 5);
    let root = random.root().index();
    run_tree_case("random n=80", random, vec![root, 7, 19, 33, 51], &mut table)?;

    println!("{}", table.render());

    // Single-destination convergecast is the classical "information
    // gathering" problem: Tree-PTS needs only 2 + sigma slots (Prop. B.3).
    let tree = DirectedTree::full_binary(6);
    let root = tree.root();
    let rho = Rate::new(1, 1)?;
    let pattern = RandomAdversary::new(rho, 2, 1_000)
        .destinations(small_buffers::DestSpec::fixed(vec![root.index()]))
        .seed(3)
        .build_tree(&tree);
    let tight = analyze(&tree, &pattern, rho).tight_sigma;
    let n = tree.node_count();
    let mut sim = Simulation::new(tree, TreePts::new(root), &pattern)?;
    sim.run_past_horizon(4 * n as u64)?;
    println!(
        "\nsingle-destination convergecast (n = {n}, rho = 1): peak {} <= 2 + sigma = {}",
        sim.metrics().max_occupancy,
        bounds::tree_pts_bound(tight)
    );
    assert!(sim.metrics().max_occupancy as u64 <= bounds::tree_pts_bound(tight));
    Ok(())
}
