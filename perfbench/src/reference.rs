//! The reference kernel: fixed work, run between executions, whose
//! on-CPU time tells how fast the host lets this core run.
//!
//! On-CPU time excludes steal, but not the slowdown of sharing a physical
//! core, its caches and memory with other guests. On a 2-vCPU Intel Xeon
//! KVM guest that slowdown changes within seconds and from minute to
//! minute, by up to 2× on the meshes, and it hits code of different kinds
//! differently: in one busy spell an L2-resident pointer chase slowed
//! 1.59× while a dependent integer chain slowed 1.19×; in another the
//! chase slowed 1.27× while `mesh_lossy`'s branchy fault set-up slowed
//! 1.42×. So the kernel has three parts of about equal length, each close
//! to one kind of work the workloads do:
//!
//! - a dependent pointer chase over a 1 MiB random cycle (cache latency,
//!   like HPTS's and the engine's per-node lookups);
//! - building small `BTreeMap`s of `Vec`s (allocation and branchy tree
//!   code, like `Hpts::plan`);
//! - sorting 9216 shuffled keys (branchy compute, like the fault layer's
//!   edge list on a 96×96 mesh).
//!
//! A run's slowdown is the mean of the parts' on-CPU times over their
//! [`NOMINAL_NS`], and every on-CPU time an end-to-end metric reports is
//! divided by the slowdown averaged over the runs just before and just
//! after the measured interval: the time the same work takes on a host
//! where the kernel runs at nominal speed. Over ten interleaved 8 s runs
//! per workload in a busy hour, the scaled `cpu_s` spread by 4.9–10.3% of
//! its median between runs (interquartile range) where the raw one spread
//! by 7.5–25%, and by less than scaling by the chase alone on four of
//! five workload sizes tried. The kernel is the benchmark's own
//! frozen code, so a change to the program moves the scaled times as much
//! as the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::host::cpu_nanos;
use crate::workloads::SplitMix64;

/// Entries of the chase's cycle: 2¹⁸ `u32`s, 1 MiB.
const CYCLE_LEN: usize = 1 << 18;
/// Dependent loads per chase.
const CHASE_STEPS: u32 = 1 << 21;
/// Maps built per run, and keys inserted into each.
const TREES: usize = 2000;
const TREE_KEYS: u32 = 64;
/// Keys per sort, and sorts per run.
const SORT_KEYS: usize = 9216;
const SORTS: usize = 64;
/// On-CPU nanoseconds of the chase, the trees and the sorts on a quiet
/// 2-vCPU Intel Xeon KVM guest.
const NOMINAL_NS: [f64; 3] = [13.9e6, 8.45e6, 6.4e6];

/// The kernel's inputs and its latest run.
pub struct Reference {
    /// `next[i]` is the entry after `i` on one cycle through every entry.
    next: Vec<u32>,
    /// The keys to sort, shuffled.
    keys: Vec<u32>,
    /// Slowdown of the latest run.
    last: f64,
    /// Every run's slowdown, warm-up excluded.
    slowdowns: Vec<f64>,
}

/// A uniformly random permutation of `0..n` with a single cycle
/// (Sattolo's shuffle).
fn one_cycle(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        next.swap(i, rng.below(i));
    }
    next
}

impl Reference {
    /// Builds the inputs (the same on every run, whatever the seed) and
    /// runs the kernel twice: once to warm it up, once as the first
    /// bracket.
    pub fn new() -> Self {
        let mut rng = SplitMix64(0x5EED);
        let mut reference = Reference {
            next: one_cycle(CYCLE_LEN, &mut rng),
            keys: one_cycle(SORT_KEYS, &mut rng),
            last: 0.0,
            slowdowns: Vec::new(),
        };
        reference.run();
        reference.last = reference.run();
        reference
    }

    /// Runs the three parts; returns the mean of their on-CPU times over
    /// [`NOMINAL_NS`].
    fn run(&self) -> f64 {
        let t0 = cpu_nanos();
        let mut at = black_box(0u32);
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);

        let t1 = cpu_nanos();
        let mut key = black_box(1u64);
        for _ in 0..TREES {
            let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for i in 0..TREE_KEYS {
                key = key
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                map.entry(key >> 58).or_default().push(i);
            }
            black_box(&map);
        }

        let t2 = cpu_nanos();
        let mut sorted = Vec::with_capacity(SORT_KEYS);
        for _ in 0..SORTS {
            sorted.clear();
            sorted.extend_from_slice(black_box(&self.keys));
            sorted.sort_unstable();
            black_box(&sorted);
        }
        let t3 = cpu_nanos();

        [t1 - t0, t2 - t1, t3 - t2]
            .iter()
            .zip(NOMINAL_NS)
            .map(|(&ns, nominal)| ns as f64 / nominal)
            .sum::<f64>()
            / 3.0
    }

    /// Runs the kernel and returns the factor that scales the on-CPU time
    /// measured since the previous call to nominal speed.
    pub fn scale(&mut self) -> f64 {
        let now = self.run();
        let bracket = (self.last + now) / 2.0;
        self.last = now;
        self.slowdowns.push(now);
        1.0 / bracket
    }

    /// Every run's slowdown, in order.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdowns
    }
}
