//! Timing bench for E2: PPTS throughput as the destination count grows.
//!
//! PPTS plans from one flat per-node table of pseudo-buffers, sorts the
//! bad ones root-most destination first and walks from each toward its
//! destination, so its per-round cost follows the buffered packets, the
//! destinations per node and the bad pseudo-buffers, not n per
//! destination; this bench quantifies that against the greedy baseline's
//! d-independent cost.

use aqt_adversary::{DestSpec, RandomAdversary};
use aqt_analysis::run_pattern;
use aqt_core::{Greedy, GreedyPolicy, Ppts};
use aqt_model::{Path, Pattern, Rate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn pattern_for(n: usize, d: usize, rounds: u64) -> Pattern {
    RandomAdversary::new(Rate::ONE, 2, rounds)
        .destinations(DestSpec::Spread { count: d })
        .seed(2)
        .build_path(&Path::new(n))
}

fn bench_ppts(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_ppts");
    let n = 257usize;
    let rounds = 300u64;
    for d in [4usize, 16, 64] {
        let pattern = pattern_for(n, d, rounds);
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("ppts", d), &d, |b, _| {
            b.iter(|| run_pattern(Path::new(n), Ppts::new(), &pattern, 50).expect("valid run"))
        });
        group.bench_with_input(BenchmarkId::new("greedy-lis", d), &d, |b, _| {
            b.iter(|| {
                run_pattern(
                    Path::new(n),
                    Greedy::new(GreedyPolicy::LongestInSystem),
                    &pattern,
                    50,
                )
                .expect("valid run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ppts);
criterion_main!(benches);
