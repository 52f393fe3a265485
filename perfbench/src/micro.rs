//! Layer costs timed from outside the engine: routing queries on seeded
//! route pairs, and injections drained from a freshly built source.

use std::hint::black_box;

use aqt_analysis::Scenario;
use aqt_model::{NodeId, Round, Topology};

use crate::host::cpu_nanos;
use crate::workloads::SplitMix64;

/// Timed batches per measurement; the median is reported.
const BATCHES: usize = 5;
/// Minimum on-CPU time of one batch.
const BATCH_NS: u64 = 20_000_000;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Nanoseconds per `next_hop` query over 4096 seeded reachable pairs of
/// the scenario's topology.
pub fn next_hop_ns(scenario: &Scenario, seed: u64) -> Result<f64, String> {
    let topology = scenario.topology.build().map_err(|e| e.to_string())?;
    let n = topology.node_count();
    let mut rng = SplitMix64(!seed);
    let mut pairs = Vec::with_capacity(4096);
    while pairs.len() < 4096 {
        let (v, d) = (NodeId::new(rng.below(n)), NodeId::new(rng.below(n)));
        if v != d && topology.reaches(v, d) {
            pairs.push((v, d));
        }
    }
    let batches = (0..BATCHES)
        .map(|_| {
            let (start, mut queries) = (cpu_nanos(), 0u64);
            while cpu_nanos() - start < BATCH_NS {
                for &(v, d) in &pairs {
                    black_box(topology.next_hop(black_box(v), black_box(d)));
                }
                queries += pairs.len() as u64;
            }
            (cpu_nanos() - start) as f64 / queries as f64
        })
        .collect();
    Ok(median(batches))
}

/// Nanoseconds per injection when draining a freshly built copy of the
/// scenario's source round by round.
pub fn ns_per_injection(scenario: &Scenario) -> Result<f64, String> {
    let topology = scenario.topology.build().map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut nanos, mut injections) = (0u64, 0u64);
        while nanos < BATCH_NS {
            let mut source = scenario
                .source
                .build(&topology)
                .map_err(|e| e.to_string())?;
            let start = cpu_nanos();
            let mut t = 0;
            while !source.is_exhausted() {
                out.clear();
                source.next_round(Round::new(t), &mut out);
                injections += out.len() as u64;
                t += 1;
            }
            nanos += cpu_nanos() - start;
            if injections == 0 {
                return Err("the source injects nothing".into());
            }
        }
        batches.push(nanos as f64 / injections as f64);
    }
    Ok(median(batches))
}
