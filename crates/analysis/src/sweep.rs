//! The distilled [`RunSummary`] of a run, and the parallel parameter
//! sweeps.
//!
//! A run is described as a [`Scenario`](crate::Scenario) and executed by
//! [`run_scenario`](crate::run_scenario); a protocol, source or variant
//! the spec enums cannot express runs on
//! [`Simulation`](aqt_model::Simulation) directly and distills its
//! metrics with [`RunSummary::from_metrics`]. The sweep runners are
//! scoped threads over embarrassingly-parallel grids (no external
//! dependency needed):
//!
//! * [`serial`] — the reference runner: applies `f` to each grid point in
//!   order on the calling thread.
//! * [`parallel`] — scatters the grid across all available cores and
//!   merges results **deterministically**: outputs are returned in input
//!   order, so `parallel(grid, f) == serial(grid, f)` for any pure `f`.
//! * [`parallel_with_threads`] — same, with an explicit thread count
//!   (`parallel_with_threads(&scenarios, n, run_scenario)` runs a list of
//!   scenarios); [`set_default_threads`] pins [`parallel`]'s worker count
//!   globally (the `experiments --threads N` plumbing).

use aqt_model::{Rate, RunMetrics};
use serde::{Deserialize, Serialize};

/// Distilled outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Protocol name (from [`Protocol::name`](aqt_model::Protocol::name)).
    pub protocol: String,
    /// Peak buffer occupancy (the paper's space requirement).
    pub max_occupancy: usize,
    /// Peak staging-area size (batched protocols only).
    pub max_staged: usize,
    /// Packets injected / delivered.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Mean delivery latency in rounds, if anything was delivered.
    pub mean_latency: Option<f64>,
    /// Max delivery latency in rounds.
    pub max_latency: u64,
    /// Packets dropped by capacity enforcement (0 on unbounded runs).
    pub dropped: u64,
    /// Packets lost to faults (0 on fault-free runs).
    pub faulted: u64,
    /// Exact goodput delivered/injected, `None` when nothing was injected.
    pub goodput: Option<Rate>,
}

impl RunSummary {
    /// Distills the metrics of a run of the protocol named `protocol`.
    pub fn from_metrics(protocol: String, metrics: &RunMetrics) -> Self {
        RunSummary {
            protocol,
            max_occupancy: metrics.max_occupancy,
            max_staged: metrics.max_staged,
            injected: metrics.injected,
            delivered: metrics.delivered,
            mean_latency: metrics.latency.mean(),
            max_latency: metrics.latency.max_rounds,
            dropped: metrics.dropped,
            faulted: metrics.faulted,
            goodput: metrics.goodput(),
        }
    }
}

/// Applies `f` to every grid point in order on the calling thread — the
/// reference sweep [`parallel`] is checked against.
pub fn serial<I, O, F>(inputs: &[I], f: F) -> Vec<O>
where
    F: Fn(&I) -> O,
{
    inputs.iter().map(f).collect()
}

/// The process-wide worker-count override for [`parallel`]; 0 means
/// "use `std::thread::available_parallelism`".
static DEFAULT_THREADS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pins the worker count every subsequent [`parallel`] call uses (the
/// `experiments --threads N` plumbing); `0` restores the default of one
/// worker per available core. Explicit [`parallel_with_threads`] calls
/// are unaffected.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, std::sync::atomic::Ordering::Relaxed);
}

/// The worker count [`parallel`] will use right now.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(std::sync::atomic::Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
}

/// Scatters a parameter grid across worker threads — one per available
/// core unless [`set_default_threads`] pinned a count — and merges the
/// results deterministically: outputs come back in input order regardless
/// of completion order, so the result equals [`serial`]'s for any pure
/// `f`.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel<I, O, F>(inputs: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    parallel_with_threads(inputs, default_threads(), f)
}

/// [`parallel`] with an explicit worker count.
///
/// Workers claim grid points dynamically off a shared atomic cursor: one
/// spawn per worker, one `fetch_add` per point. Dynamic claiming keeps
/// all workers busy until the grid is drained even when per-point cost is
/// skewed (the E6 grid varies with level count k) — static contiguous
/// chunking would instead be bounded by the heaviest chunk. Each worker
/// tags its outputs with the claimed index and the merge sorts them back
/// to input order, so the result equals [`serial`]'s for any pure `f`.
///
/// The worker count is additionally capped at the machine's available
/// parallelism: for a CPU-bound sweep, threads beyond physical cores only
/// add context-switch overhead (the source of the old `sweep_speedup < 1`
/// regression on small runners), so oversubscribed calls degrade
/// gracefully to fewer workers — down to the [`serial`] path on a single
/// core.
///
/// # Panics
///
/// Panics if `threads == 0`; propagates panics from `f`.
pub fn parallel_with_threads<I, O, F>(inputs: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = threads.min(inputs.len()).min(cores).max(1);
    parallel_workers(inputs, workers, f)
}

/// The worker engine behind [`parallel_with_threads`]: takes the final
/// worker count directly, with no core cap. Split out so tests can force
/// the multi-worker cursor path even on single-core machines (where the
/// public entry points always degrade to [`serial`]).
fn parallel_workers<I, O, F>(inputs: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    if workers == 1 {
        return serial(inputs, f);
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, O)> = std::thread::scope(|scope| {
        let (f, cursor) = (&f, &cursor);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(&inputs[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    debug_assert_eq!(indexed.len(), n, "every grid point computed exactly once");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{DagGreedy, Greedy, GreedyPolicy};
    use aqt_model::{
        CapacityConfig, Dag, DirectedTree, DropPolicyKind, FnSource, Injection, InjectionSource,
        Path, Pattern, Protocol, Simulation, Topology,
    };

    /// Runs `source` to its horizon plus `extra` rounds, under `capacity`
    /// when given, and distills the summary.
    fn summarize<T: Topology, P: Protocol<T>, S: InjectionSource>(
        topology: T,
        protocol: P,
        source: S,
        extra: u64,
        capacity: Option<(CapacityConfig, DropPolicyKind)>,
    ) -> RunSummary {
        let mut sim = Simulation::from_source(topology, protocol, source);
        if let Some((config, policy)) = capacity {
            sim = sim.with_capacity(config, policy);
        }
        sim.run_past_horizon(extra).unwrap();
        RunSummary::from_metrics(sim.protocol().name(), sim.metrics())
    }

    #[test]
    fn run_source_matches_pattern_run() {
        let pattern: Pattern = (0..12u64).map(|t| Injection::new(t, 0, 3)).collect();
        let mut sim =
            Simulation::new(Path::new(4), Greedy::new(GreedyPolicy::Fifo), &pattern).unwrap();
        sim.run_past_horizon(8).unwrap();
        let name = Protocol::<Path>::name(sim.protocol());
        let from_pattern = RunSummary::from_metrics(name, sim.metrics());
        let source = FnSource::new(12, |t, out| out.push(Injection::new(t, 0, 3)));
        let from_stream = summarize(
            Path::new(4),
            Greedy::new(GreedyPolicy::Fifo),
            source,
            8,
            None,
        );
        assert_eq!(from_pattern, from_stream);
        assert_eq!(from_stream.protocol, "Greedy-FIFO");
        assert_eq!(from_stream.injected, 12);
        assert_eq!(from_stream.delivered, 12);
        assert_eq!(from_stream.max_occupancy, 1);
        assert_eq!(from_stream.mean_latency, Some(3.0));
    }

    #[test]
    fn run_source_streams_tree_runs() {
        let tree = DirectedTree::star(3);
        let source = FnSource::new(4, |t, out| out.push(Injection::new(t, 1, 0)));
        let s = summarize(tree, Greedy::new(GreedyPolicy::Fifo), source, 4, None);
        assert_eq!(s.delivered, 4);
    }

    #[test]
    fn generic_runners_summarize_grid_runs() {
        // One packet across a 2×3 mesh corner to corner: 3 hops.
        let source = FnSource::new(1, |t, out| out.push(Injection::new(t, 0, 5)));
        let s = summarize(Dag::grid(2, 3), DagGreedy::fifo(), source, 6, None);
        assert_eq!(s.protocol, "DagGreedy-FIFO");
        assert_eq!(s.delivered, 1);
        assert_eq!(s.mean_latency, Some(3.0));
        let source = FnSource::new(4, |t, out| out.push(Injection::new(t, 0, 5)));
        let st = summarize(Dag::grid(2, 3), DagGreedy::fifo(), source, 8, None);
        assert_eq!(st.delivered, 4);
    }

    #[test]
    fn run_source_capacity_reports_dag_losses() {
        let source = FnSource::new(1, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, 3), 4));
        });
        let capacity = (CapacityConfig::uniform(2), DropPolicyKind::Tail);
        let s = summarize(
            Dag::grid(2, 2),
            DagGreedy::fifo(),
            source,
            10,
            Some(capacity),
        );
        assert_eq!(s.injected, 4);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 2);
    }

    #[test]
    fn run_source_capacity_reports_path_losses() {
        let source = FnSource::new(1, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, 3), 4));
        });
        let capacity = (CapacityConfig::uniform(2), DropPolicyKind::Tail);
        let s = summarize(
            Path::new(4),
            Greedy::new(GreedyPolicy::Fifo),
            source,
            10,
            Some(capacity),
        );
        assert_eq!(s.injected, 4);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.goodput, Some(Rate::new(1, 2).unwrap()));
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn run_source_capacity_runs_trees() {
        let tree = DirectedTree::star(3);
        let source = FnSource::new(1, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 1, 0), 3));
        });
        let capacity = (CapacityConfig::uniform(1), DropPolicyKind::Head);
        let s = summarize(
            tree,
            Greedy::new(GreedyPolicy::Fifo),
            source,
            6,
            Some(capacity),
        );
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 1);
    }

    #[test]
    fn parallel_with_threads_handles_empty_input() {
        let out: Vec<u32> = parallel_with_threads(&Vec::<u32>::new(), 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_with_more_threads_than_items() {
        let out = parallel_with_threads(&[1, 2], 16, |x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn parallel_equals_serial_on_uneven_work() {
        // Uneven per-item cost exercises the chunk merge: outputs must
        // come back in input order however the chunks finish.
        let inputs: Vec<u64> = (0..64).collect();
        let f = |x: &u64| -> u64 {
            let mut acc = *x;
            for _ in 0..(*x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(parallel(&inputs, f), serial(&inputs, f));
        assert_eq!(parallel_with_threads(&inputs, 3, f), serial(&inputs, f));
    }

    #[test]
    fn forced_cursor_workers_preserve_order() {
        // The public entry points cap workers at the machine's cores, so
        // on a single-core runner they degrade to `serial` and never
        // exercise the cursor path. Call the engine directly with forced
        // worker counts so claiming + index-sort merge is always tested.
        let inputs: Vec<u64> = (0..97).collect();
        let f = |x: &u64| -> u64 {
            let mut acc = *x;
            for _ in 0..(*x % 5) * 800 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let expect = serial(&inputs, f);
        for workers in [2, 3, 8, 97, 200] {
            assert_eq!(
                parallel_workers(&inputs, workers.min(inputs.len()), f),
                expect,
                "workers = {workers}"
            );
        }
    }
}
