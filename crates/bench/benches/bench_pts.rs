//! Timing bench for E1: PTS simulation throughput.
//!
//! Measures full simulation runs (injection + planning + forwarding) of
//! PTS on single-destination lines of growing size. The quantity of
//! interest for the paper is space (see `bin/experiments`); this bench
//! tracks the *cost* of the reproduction itself so regressions in the
//! engine or protocol are caught.

use aqt_adversary::{DestSpec, RandomAdversary};
use aqt_analysis::run_pattern;
use aqt_core::Pts;
use aqt_model::{NodeId, Path, Pattern, Rate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn pattern_for(n: usize, rounds: u64) -> Pattern {
    RandomAdversary::new(Rate::ONE, 4, rounds)
        .destinations(DestSpec::fixed([n - 1]))
        .seed(1)
        .build_path(&Path::new(n))
}

fn bench_pts(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_pts");
    let rounds = 400u64;
    for n in [64usize, 256, 1024] {
        let pattern = pattern_for(n, rounds);
        group.throughput(Throughput::Elements(rounds));
        group.bench_with_input(BenchmarkId::new("run", n), &n, |b, &n| {
            b.iter(|| {
                run_pattern(Path::new(n), Pts::new(NodeId::new(n - 1)), &pattern, 50)
                    .expect("valid run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pts);
criterion_main!(benches);
