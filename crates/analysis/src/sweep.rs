//! Run helpers and parallel parameter sweeps.
//!
//! Generic one-shot runners ([`run_pattern`], [`run_source`],
//! [`run_source_capacity`]) that execute a protocol on **any** topology
//! and distill the metrics into a [`RunSummary`], plus scoped-thread
//! sweep runners for embarrassingly-parallel parameter grids (no external
//! dependency needed):
//!
//! * [`serial`] — the reference runner: applies `f` to each grid point in
//!   order on the calling thread.
//! * [`parallel`] — scatters the grid across all available cores and
//!   merges results **deterministically**: outputs are returned in input
//!   order, so `parallel(grid, f) == serial(grid, f)` for any pure `f`.
//! * [`parallel_with_threads`] — same, with an explicit thread count;
//!   [`set_default_threads`] pins [`parallel`]'s worker count globally
//!   (the `experiments --threads N` plumbing).
//! * [`SweepAggregate`] — an order-insensitive reduction of many
//!   [`RunSummary`]s (sums and maxima only).
//!
//! Prefer describing a whole run as a [`Scenario`](crate::Scenario) and
//! letting [`run_scenario`](crate::run_scenario) execute it; the generic
//! runners here are the layer underneath for hand-wired protocol or
//! source instances the spec enums cannot express.

use aqt_model::{
    analyze, CapacityConfig, DropPolicyKind, InjectionSource, ModelError, Path, Pattern, Protocol,
    Rate, RunMetrics, Simulation, Topology,
};
use serde::{Deserialize, Serialize};

/// Distilled outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Protocol name (from [`Protocol::name`]).
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
    pub(crate) fn from_metrics(protocol: String, metrics: &RunMetrics) -> Self {
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

/// Runs `protocol` on `topology` against `pattern` (validated upfront),
/// for the pattern horizon plus `extra` settle rounds — the generic core
/// behind every pattern-based run helper.
///
/// # Errors
///
/// Propagates pattern validation or plan errors from the engine.
pub fn run_pattern<T: Topology, P: Protocol<T>>(
    topology: T,
    protocol: P,
    pattern: &Pattern,
    extra: u64,
) -> Result<RunSummary, ModelError> {
    let mut sim = Simulation::new(topology, protocol, pattern)?;
    sim.run_past_horizon(extra)?;
    Ok(RunSummary::from_metrics(
        sim.protocol().name(),
        sim.metrics(),
    ))
}

/// Runs `protocol` on `topology` against a streaming source, for the
/// source horizon plus `extra` settle rounds — the long-horizon
/// counterpart of [`run_pattern`], with O(live packets) memory.
///
/// # Errors
///
/// Propagates injection validation or plan errors from the engine.
pub fn run_source<T: Topology, P: Protocol<T>, S: InjectionSource>(
    topology: T,
    protocol: P,
    source: S,
    extra: u64,
) -> Result<RunSummary, ModelError> {
    let mut sim = Simulation::from_source(topology, protocol, source);
    sim.run_past_horizon(extra)?;
    Ok(RunSummary::from_metrics(
        sim.protocol().name(),
        sim.metrics(),
    ))
}

/// Capacity-bounded counterpart of [`run_source`]: buffers are capped per
/// `config` and overflow is resolved by `policy`; losses show up in
/// [`RunSummary::dropped`] and [`RunSummary::goodput`].
///
/// # Errors
///
/// Propagates injection validation or plan errors from the engine.
pub fn run_source_capacity<T: Topology, P: Protocol<T>, S: InjectionSource>(
    topology: T,
    protocol: P,
    source: S,
    extra: u64,
    config: CapacityConfig,
    policy: DropPolicyKind,
) -> Result<RunSummary, ModelError> {
    let mut sim = Simulation::from_source(topology, protocol, source).with_capacity(config, policy);
    sim.run_past_horizon(extra)?;
    Ok(RunSummary::from_metrics(
        sim.protocol().name(),
        sim.metrics(),
    ))
}

/// Measures the tight σ of `pattern` on a path of `n` nodes at rate ρ —
/// shorthand used by every experiment to report the *actual* burstiness of
/// generated workloads.
pub fn measured_sigma(n: usize, pattern: &Pattern, rate: Rate) -> u64 {
    analyze(&Path::new(n), pattern, rate).tight_sigma
}

/// Measures the tight σ on an arbitrary topology.
pub fn measured_sigma_on<T: Topology>(topo: &T, pattern: &Pattern, rate: Rate) -> u64 {
    analyze(topo, pattern, rate).tight_sigma
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

/// Order-insensitive reduction of many [`RunSummary`]s: totals and worst
/// cases only, so serial and parallel sweeps aggregate identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepAggregate {
    /// Number of runs folded in.
    pub runs: usize,
    /// Total packets injected across runs.
    pub injected: u64,
    /// Total packets delivered across runs.
    pub delivered: u64,
    /// Worst peak occupancy over all runs.
    pub worst_occupancy: usize,
    /// Worst staging peak over all runs.
    pub worst_staged: usize,
    /// Worst delivery latency over all runs.
    pub max_latency: u64,
    /// Total packets dropped across runs (capacity-bounded sweeps).
    pub dropped: u64,
}

impl SweepAggregate {
    /// Folds summaries into an aggregate (commutative + associative, so
    /// any execution order yields the same value).
    pub fn from_summaries<'a, I>(summaries: I) -> Self
    where
        I: IntoIterator<Item = &'a RunSummary>,
    {
        let mut agg = SweepAggregate::default();
        for s in summaries {
            agg.runs += 1;
            agg.injected += s.injected;
            agg.delivered += s.delivered;
            agg.worst_occupancy = agg.worst_occupancy.max(s.max_occupancy);
            agg.worst_staged = agg.worst_staged.max(s.max_staged);
            agg.max_latency = agg.max_latency.max(s.max_latency);
            agg.dropped += s.dropped;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Greedy, GreedyPolicy};
    use aqt_model::{Dag, DirectedTree, FnSource, Injection};

    #[test]
    fn run_pattern_summarizes_path_runs() {
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3)]);
        let s = run_pattern(Path::new(4), Greedy::new(GreedyPolicy::Fifo), &pattern, 5).unwrap();
        assert_eq!(s.protocol, "Greedy-FIFO");
        assert_eq!(s.delivered, 1);
        assert_eq!(s.injected, 1);
        assert_eq!(s.max_occupancy, 1);
        assert_eq!(s.mean_latency, Some(3.0));
    }

    #[test]
    fn run_pattern_summarizes_tree_runs() {
        let tree = DirectedTree::star(3);
        let pattern = Pattern::from_injections(vec![Injection::new(0, 1, 0)]);
        let s = run_pattern(tree, Greedy::new(GreedyPolicy::Lifo), &pattern, 3).unwrap();
        assert_eq!(s.delivered, 1);
    }

    #[test]
    fn run_source_matches_pattern_run() {
        let pattern: Pattern = (0..12u64).map(|t| Injection::new(t, 0, 3)).collect();
        let from_pattern =
            run_pattern(Path::new(4), Greedy::new(GreedyPolicy::Fifo), &pattern, 8).unwrap();
        let source = FnSource::new(12, |t, out| out.push(Injection::new(t, 0, 3)));
        let from_stream =
            run_source(Path::new(4), Greedy::new(GreedyPolicy::Fifo), source, 8).unwrap();
        assert_eq!(from_pattern, from_stream);
    }

    #[test]
    fn run_source_streams_tree_runs() {
        let tree = DirectedTree::star(3);
        let source = FnSource::new(4, |t, out| out.push(Injection::new(t, 1, 0)));
        let s = run_source(tree, Greedy::new(GreedyPolicy::Fifo), source, 4).unwrap();
        assert_eq!(s.delivered, 4);
    }

    #[test]
    fn generic_runners_summarize_grid_runs() {
        use aqt_core::DagGreedy;
        // One packet across a 2×3 mesh corner to corner: 3 hops.
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 5)]);
        let s = run_pattern(Dag::grid(2, 3), DagGreedy::fifo(), &pattern, 6).unwrap();
        assert_eq!(s.protocol, "DagGreedy-FIFO");
        assert_eq!(s.delivered, 1);
        assert_eq!(s.mean_latency, Some(3.0));
        let source = FnSource::new(4, |t, out| out.push(Injection::new(t, 0, 5)));
        let st = run_source(Dag::grid(2, 3), DagGreedy::fifo(), source, 8).unwrap();
        assert_eq!(st.delivered, 4);
    }

    #[test]
    fn run_source_capacity_reports_dag_losses() {
        use aqt_core::DagGreedy;
        let source = FnSource::new(1, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, 3), 4));
        });
        let s = run_source_capacity(
            Dag::grid(2, 2),
            DagGreedy::fifo(),
            source,
            10,
            CapacityConfig::uniform(2),
            DropPolicyKind::Tail,
        )
        .unwrap();
        assert_eq!(s.injected, 4);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 2);
    }

    #[test]
    fn run_source_capacity_reports_path_losses() {
        let source = FnSource::new(1, |t, out| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, 3), 4));
        });
        let s = run_source_capacity(
            Path::new(4),
            Greedy::new(GreedyPolicy::Fifo),
            source,
            10,
            CapacityConfig::uniform(2),
            DropPolicyKind::Tail,
        )
        .unwrap();
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
        let s = run_source_capacity(
            tree,
            Greedy::new(GreedyPolicy::Fifo),
            source,
            6,
            CapacityConfig::uniform(1),
            DropPolicyKind::Head,
        )
        .unwrap();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delivered, 1);
    }

    #[test]
    fn measured_sigma_shorthand() {
        let p = Pattern::from_injections(vec![Injection::new(0, 0, 1); 4]);
        assert_eq!(measured_sigma(2, &p, Rate::ONE), 3);
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

    #[test]
    fn aggregate_is_order_insensitive() {
        let mk = |occ: usize, inj: u64| RunSummary {
            protocol: "x".into(),
            max_occupancy: occ,
            max_staged: 0,
            injected: inj,
            delivered: inj,
            mean_latency: None,
            max_latency: occ as u64,
            dropped: 1,
            faulted: 0,
            goodput: Some(Rate::ONE),
        };
        let a = vec![mk(3, 10), mk(7, 2), mk(5, 4)];
        let mut b = a.clone();
        b.reverse();
        let agg_a = SweepAggregate::from_summaries(&a);
        let agg_b = SweepAggregate::from_summaries(&b);
        assert_eq!(agg_a, agg_b);
        assert_eq!(agg_a.runs, 3);
        assert_eq!(agg_a.injected, 16);
        assert_eq!(agg_a.worst_occupancy, 7);
    }
}
