//! Debugging workflow: trace a run, render the space-time heatmap, and
//! check the paper's proof invariant online.
//!
//! Two runs of the same bursty workload on a 48-node line:
//!
//! 1. PPTS with the `B^t(i) ≤ ξ_t(i) + 1` monitor attached — the invariant
//!    that drives Prop. 3.2 holds in every round.
//! 2. A deliberately broken half-speed PPTS — the monitor pinpoints the
//!    first round where the proof invariant fails.
//!
//! ```text
//! cargo run --release --example invariant_heatmap
//! ```

use small_buffers::{
    heatmap, sparkline, BadnessExcessMonitor, DestSpec, ForwardingPlan, Monitors, NetworkState,
    Path, Ppts, Protocol, RandomAdversary, Rate, Round, Simulation, Tracer,
};

/// PPTS that skips odd rounds: a realistic bug (under-provisioned service
/// rate) that violates the space bound's premise.
struct HalfSpeed(Ppts);

impl Protocol<Path> for HalfSpeed {
    fn name(&self) -> String {
        "PPTS@half-speed".into()
    }
    fn plan(&mut self, round: Round, topo: &Path, state: &NetworkState, plan: &mut ForwardingPlan) {
        if round.value() % 2 == 0 {
            self.0.plan(round, topo, state, plan);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 48;
    let topo = Path::new(n);
    let rho = Rate::ONE;
    let pattern = RandomAdversary::new(rho, 4, 300)
        .destinations(DestSpec::fixed(vec![n / 2 - 1, n - 1]))
        .seed(20)
        .build_path(&topo);

    // --- Run 1: healthy PPTS, traced and rendered --------------------
    let mut sim = Simulation::new(topo, Ppts::new(), &pattern)?;
    let mut tracer = Tracer::new(sim.protocol().name());
    sim.run_past_horizon_probed(2 * n as u64, &mut tracer)?;
    let trace = tracer.trace();
    println!("{}", heatmap(trace, 100, 12));
    println!(
        "max-occupancy series: {}\n",
        sparkline(&trace.max_series()[..trace.len().min(100)])
    );

    // --- Run 1b: same run under the proof-invariant monitor ----------
    let mut monitors = Monitors::new(vec![Box::new(BadnessExcessMonitor::new(n, &pattern, rho))]);
    let mut sim = Simulation::new(topo, Ppts::new(), &pattern)?;
    sim.run_past_horizon_probed(2 * n as u64, &mut monitors)?;
    if let Some(violation) = monitors.violation() {
        panic!("Prop. 3.2's potential invariant must hold for PPTS: {violation}");
    }
    println!(
        "PPTS: B(i) <= xi(i) + 1 held in every round; peak occupancy {}\n",
        sim.metrics().max_occupancy
    );

    // --- Run 2: the broken protocol is caught ------------------------
    let mut monitors = Monitors::new(vec![Box::new(BadnessExcessMonitor::new(n, &pattern, rho))]);
    let mut sim = Simulation::new(topo, HalfSpeed(Ppts::new()), &pattern)?;
    sim.run_past_horizon_probed(2 * n as u64, &mut monitors)?;
    match monitors.violation() {
        None => println!("unexpected: half-speed PPTS kept the invariant"),
        Some(violation) => println!("caught the injected bug: {violation}"),
    }
    Ok(())
}
