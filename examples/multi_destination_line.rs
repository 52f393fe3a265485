//! The paper's motivating scenario (§1): on a line, how does required
//! buffer space grow with the number of distinct destinations `d`?
//!
//! Sweeps `d` and compares PPTS (bounded by `1 + d + σ` on *every*
//! (ρ, σ)-bounded workload, Prop. 3.2) against classical greedy policies.
//! On benign random traffic greedy drains fast — it is work-conserving —
//! but it certifies nothing: only worst-case constructions separate the
//! two (see the `lower_bound_duel` example), which is exactly why the
//! paper quantifies space instead of trusting a policy.
//!
//! ```text
//! cargo run --release --example multi_destination_line
//! ```

use small_buffers::{
    analyze, bounds, patterns, DestSpec, Greedy, GreedyPolicy, Path, Ppts, Protocol,
    RandomAdversary, Rate, Simulation, Table,
};

/// Peak occupancy of `protocol` on the given pattern, run to quiescence.
fn peak<P: Protocol<Path>>(
    n: usize,
    protocol: P,
    pattern: &small_buffers::Pattern,
) -> Result<usize, small_buffers::ModelError> {
    let mut sim = Simulation::new(Path::new(n), protocol, pattern)?;
    sim.run_past_horizon(4 * n as u64)?;
    Ok(sim.metrics().max_occupancy)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let rho = Rate::new(1, 2)?;
    let sigma = 2;
    let rounds = 3_000;

    let mut table = Table::new(
        format!("buffer space vs d (n = {n}, rho = 1/2, sigma = {sigma})"),
        [
            "d",
            "tight_sigma",
            "PPTS",
            "bound 1+d+s",
            "FIFO",
            "LIFO",
            "NTG",
            "FTG",
        ],
    );

    for d in [1usize, 2, 4, 8, 16, 32] {
        // d evenly spaced destinations; the right half of the line is where
        // routes overlap most.
        let dests = patterns::even_destinations(n, d);
        let pattern = RandomAdversary::new(rho, sigma, rounds)
            .destinations(DestSpec::fixed(dests))
            .seed(d as u64)
            .build_path(&Path::new(n));
        let tight = analyze(&Path::new(n), &pattern, rho).tight_sigma;

        let ppts = peak(n, Ppts::new(), &pattern)?;
        let fifo = peak(n, Greedy::new(GreedyPolicy::Fifo), &pattern)?;
        let lifo = peak(n, Greedy::new(GreedyPolicy::Lifo), &pattern)?;
        let ntg = peak(n, Greedy::new(GreedyPolicy::NearestToGo), &pattern)?;
        let ftg = peak(n, Greedy::new(GreedyPolicy::FurthestToGo), &pattern)?;

        table.push_row([
            d.to_string(),
            tight.to_string(),
            ppts.to_string(),
            bounds::ppts_bound(d, tight).to_string(),
            fifo.to_string(),
            lifo.to_string(),
            ntg.to_string(),
            ftg.to_string(),
        ]);

        assert!(
            ppts as u64 <= bounds::ppts_bound(d, tight),
            "Prop. 3.2 violated at d = {d}"
        );
    }

    println!("{}", table.render());
    println!(
        "PPTS is certified: its peak stays within 1 + d + sigma on every\n\
         bounded workload. Greedy drains this random workload quickly but\n\
         carries no bound at all: on worst-case traffic (lower_bound_duel)\n\
         every policy, greedy included, is forced to Omega(d) at rho > 1/2."
    );
    Ok(())
}
