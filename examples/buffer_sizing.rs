//! Buffer sizing: how much space does a protocol actually need before it
//! starts dropping traffic — and what does under-provisioning cost?
//!
//! Sweeps buffer capacity for eager PTS against a shaped overload stream
//! and renders the goodput curve as a sparkline, then binary-searches the
//! exact zero-drop threshold ([`capacity_threshold`]) and compares it to
//! Prop. 3.1's closed-form `2 + σ`. An under-provisioned run is traced
//! and its losses rendered as a space-time loss heatmap.
//!
//! ```text
//! cargo run --release --example buffer_sizing
//! ```

use small_buffers::{
    bounds, capacity_threshold, loss_heatmap, sparkline, CapacityConfig, DropPolicyKind, FnSource,
    Injection, NodeId, Path, Protocol, Pts, Rate, Simulation, StagingMode, Tracer,
};

const N: usize = 16;
const SIGMA: u64 = 4;
const WISH_ROUNDS: u64 = 120;

/// The overload wish stream: 2 packets per round toward the sink, shaped
/// by the leaky bucket to (1, σ) — a bounded adversary that saturates its
/// budget.
fn shaped(topo: Path) -> small_buffers::ShapingSource<Path, impl small_buffers::InjectionSource> {
    let wishes = FnSource::new(WISH_ROUNDS, |t, out| {
        out.extend(std::iter::repeat_n(Injection::new(t, 0, N - 1), 2));
    });
    small_buffers::ShapingSource::new(topo, wishes, Rate::ONE, SIGMA)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sink = NodeId::new(N - 1);
    let topo = Path::new(N);

    // --- Goodput vs capacity, as a sparkline --------------------------
    let capacities: Vec<usize> = (1..=12).collect();
    let mut goodput_permille = Vec::new();
    let mut losses = Vec::new();
    println!("goodput of eager PTS vs buffer capacity (n = {N}, sigma = {SIGMA}):\n");
    for &cap in &capacities {
        let mut sim = Simulation::from_source(topo, Pts::eager(sink), shaped(topo))
            .with_capacity(CapacityConfig::uniform(cap), DropPolicyKind::Tail);
        sim.run_past_horizon(200)?;
        let m = sim.metrics();
        goodput_permille.push((m.delivered * 1000 / m.injected.max(1)) as u32);
        losses.push(m.dropped as u32);
    }
    println!("  capacity  1 ..= 12");
    println!("  goodput   {}", sparkline(&goodput_permille));
    println!("  losses    {}", sparkline(&losses));
    println!(
        "  (goodput {:.1}% -> {:.1}%; losses {} -> {} packets)\n",
        goodput_permille[0] as f64 / 10.0,
        *goodput_permille.last().unwrap() as f64 / 10.0,
        losses[0],
        losses.last().unwrap()
    );

    // --- The exact threshold vs the paper's bound ---------------------
    let th = capacity_threshold(
        &topo,
        || Pts::eager(sink),
        || shaped(topo),
        DropPolicyKind::Tail,
        StagingMode::Exempt,
        200,
    )?;
    println!(
        "zero-drop threshold: {} slots per buffer ({} probes; unbounded peak {})",
        th.threshold,
        th.probes.len(),
        th.unbounded_peak
    );
    println!(
        "Prop. 3.1 closed-form budget 2 + sigma = {} — the theorem over-provisions by {} slot(s) here",
        bounds::pts_bound(SIGMA),
        bounds::pts_bound(SIGMA) as usize - th.threshold
    );
    if let Some(drops) = th.drops_below {
        println!("one slot less loses {drops} packet(s)\n");
    }

    // --- Where the losses land, one below the threshold ---------------
    let starved = th.threshold.saturating_sub(1).max(1);
    let mut sim = Simulation::from_source(topo, Pts::eager(sink), shaped(topo))
        .with_capacity(CapacityConfig::uniform(starved), DropPolicyKind::Tail);
    let mut tracer = Tracer::new(sim.protocol().name());
    sim.run_past_horizon_probed(200, &mut tracer)?;
    println!("{}", loss_heatmap(tracer.trace(), 64, N.min(8)));
    Ok(())
}
