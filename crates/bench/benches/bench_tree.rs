//! Timing bench for E3: tree forwarding throughput on assorted shapes.

use aqt_adversary::{DestSpec, RandomAdversary};
use aqt_analysis::run_pattern;
use aqt_core::{TreePpts, TreePts};
use aqt_model::{DirectedTree, Rate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_trees");
    let rounds = 300u64;
    let shapes: Vec<(&str, DirectedTree)> = vec![
        ("binary_h6", DirectedTree::full_binary(6)),
        ("caterpillar_32x4", DirectedTree::caterpillar(32, 4)),
        ("random_128", DirectedTree::random(128, 5)),
    ];
    for (label, tree) in shapes {
        let root = tree.root();
        let single = RandomAdversary::new(Rate::new(1, 2).expect("valid"), 2, rounds)
            .destinations(DestSpec::Fixed { dests: vec![root] })
            .seed(3)
            .build_tree(&tree);
        let multi = RandomAdversary::new(Rate::new(1, 2).expect("valid"), 2, rounds)
            .destinations(DestSpec::Spread { count: 4 })
            .seed(4)
            .build_tree(&tree);
        group.bench_with_input(BenchmarkId::new("tree_pts", label), &tree, |b, tree| {
            b.iter(|| {
                run_pattern(tree.clone(), TreePts::new(root), &single, 50).expect("valid run")
            })
        });
        group.bench_with_input(BenchmarkId::new("tree_ppts", label), &tree, |b, tree| {
            b.iter(|| run_pattern(tree.clone(), TreePpts::new(), &multi, 50).expect("valid run"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tree);
criterion_main!(benches);
