//! Buffer sizing: how much space does a protocol actually need before it
//! starts dropping traffic — and what does under-provisioning cost?
//!
//! Sweeps buffer capacity for eager PTS against a shaped overload stream
//! and renders the goodput curve as a sparkline, then binary-searches the
//! exact zero-drop threshold ([`capacity_threshold`]) and compares it to
//! Prop. 3.1's closed-form `2 + σ`. An under-provisioned run is traced
//! and its losses rendered as a space-time loss heatmap. Every run is
//! the one [`Scenario`] with its capacity varied.
//!
//! ```text
//! cargo run --release --example buffer_sizing
//! ```

use small_buffers::{
    bounds, capacity_threshold, loss_heatmap, run_scenario, run_scenario_probed, sparkline,
    CapacitySpec, DropPolicyKind, ProtocolSpec, Rate, Scenario, SourceSpec, StagingMode,
    TopologySpec, Tracer,
};

const N: usize = 16;
const SIGMA: u64 = 4;
const WISH_ROUNDS: u64 = 120;

/// Eager PTS against the overload wish stream (2 packets per round
/// toward the sink) shaped by the leaky bucket to (1, σ) — a bounded
/// adversary that saturates its budget — with uniform drop-tail buffers
/// of `capacity` slots, or unbounded ones.
fn scenario(capacity: Option<usize>) -> Scenario {
    let shaped = SourceSpec::Shaped {
        inner: Box::new(SourceSpec::Repeat {
            source: 0,
            dest: N - 1,
            per_round: 2,
            rounds: WISH_ROUNDS,
        }),
        rate: Rate::ONE,
        sigma: SIGMA,
    };
    let eager_pts = ProtocolSpec::Pts {
        dest: None,
        eager: true,
    };
    Scenario {
        capacity: capacity
            .map(|c| CapacitySpec::uniform(c, DropPolicyKind::Tail, StagingMode::Exempt)),
        ..Scenario::new(TopologySpec::Path { n: N }, eager_pts, shaped, 200)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Goodput vs capacity, as a sparkline --------------------------
    let capacities: Vec<usize> = (1..=12).collect();
    let mut goodput_permille = Vec::new();
    let mut losses = Vec::new();
    println!("goodput of eager PTS vs buffer capacity (n = {N}, sigma = {SIGMA}):\n");
    for &cap in &capacities {
        let run = run_scenario(&scenario(Some(cap)))?;
        goodput_permille.push((run.delivered * 1000 / run.injected.max(1)) as u32);
        losses.push(run.dropped as u32);
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
    let th = capacity_threshold(&scenario(None), DropPolicyKind::Tail, StagingMode::Exempt)?;
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
    let starved = scenario(Some(th.threshold.saturating_sub(1).max(1)));
    let mut tracer = Tracer::new(format!("PTS-eager(w=v{})", N - 1));
    run_scenario_probed(&starved, &mut tracer)?;
    println!("{}", loss_heatmap(tracer.trace(), 64, N.min(8)));
    Ok(())
}
