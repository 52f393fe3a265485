//! The Section 5 lower bound as a duel: the paper's adversary is run
//! against *every* protocol in the repository, and each one is forced to
//! buffer Ω(((ℓ+1)ρ − 1)/2ℓ · n^{1/ℓ}) packets somewhere.
//!
//! This is the matching half of the tradeoff: no algorithm, however clever
//! (or offline), beats the HPTS space bound by more than an O(ρ⁻²) factor.
//!
//! ```text
//! cargo run --release --example lower_bound_duel
//! ```

use small_buffers::{
    analyze, Greedy, GreedyPolicy, Hpts, LowerBoundAdversary, Path, Ppts, Protocol, Rate,
    Simulation, Table, Topology,
};

fn duel<P: Protocol<Path>>(
    adversary: &LowerBoundAdversary,
    protocol: P,
) -> Result<(String, usize), Box<dyn std::error::Error>> {
    let name = protocol.name();
    let mut sim = Simulation::new(adversary.topology(), protocol, &adversary.pattern())?;
    sim.run(adversary.total_rounds())?;
    Ok((name, sim.metrics().max_occupancy))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // l = 2, m = 8: n = (l+1)·m^l = 192 nodes, rate just above 1/(l+1).
    let l = 2u32;
    let m = 8u64;
    let rho = Rate::new(1, 2)?;
    let adversary = LowerBoundAdversary::new(l, m, rho)?;
    let topo = adversary.topology();
    let n = topo.node_count();

    println!(
        "Section 5 adversary: l = {l}, m = {m}, n = {n}, rho = {rho}, {} packets over {} rounds",
        adversary.pattern().len(),
        adversary.total_rounds()
    );
    println!(
        "measured sigma of the pattern: {} (the construction promises a small constant)",
        analyze(&topo, &adversary.pattern(), rho).tight_sigma
    );
    println!(
        "theorem floor (average-load form): {:.2} packets in some buffer\n",
        adversary.theorem_bound()
    );

    let mut table = Table::new(
        "every protocol pays the lower bound",
        ["protocol", "peak occupancy", ">= floor?"],
    );
    let floor = adversary.theorem_bound();

    let results = vec![
        duel(&adversary, Ppts::new())?,
        duel(&adversary, Hpts::for_line(n, l)?)?,
        duel(&adversary, Greedy::new(GreedyPolicy::Fifo))?,
        duel(&adversary, Greedy::new(GreedyPolicy::Lifo))?,
        duel(&adversary, Greedy::new(GreedyPolicy::LongestInSystem))?,
        duel(&adversary, Greedy::new(GreedyPolicy::NearestToGo))?,
        duel(&adversary, Greedy::new(GreedyPolicy::FurthestToGo))?,
    ];

    for (name, peak) in results {
        let ok = peak as f64 >= floor;
        table.push_row([
            name,
            peak.to_string(),
            if ok { "yes" } else { "below (see note)" }.to_string(),
        ]);
    }
    table.note(
        "The floor is the average-load form of Thm. 5.1; any single buffer\n\
         holding that many packets witnesses the Omega bound.",
    );
    println!("{}", table.render());
    Ok(())
}
