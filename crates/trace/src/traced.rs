//! The [`Tracer`] probe: records what a run's configurations were and
//! which moves the engine applied, without changing the run.

use aqt_model::{NetworkState, NodeId, PacketId, Probe, Round};

use crate::event::{RoundRecord, SendRecord, Trace};

/// A [`Probe`] that records a [`Trace`] of a run.
///
/// At the paper's `L^t` measurement point
/// ([`on_observe`](Probe::on_observe)) it appends one [`RoundRecord`]
/// holding the configuration and the drops reported
/// ([`on_drop`](Probe::on_drop)) since the previous record, and every
/// move the engine then applies in that round
/// ([`on_move`](Probe::on_move)) becomes one of the record's
/// [`SendRecord`]s. A trace therefore agrees with
/// [`RunMetrics`](aqt_model::RunMetrics) under faults too: a send the
/// fault mask blocks is not a move. Pass the tracer to
/// [`Simulation::run_past_horizon_probed`](aqt_model::Simulation::run_past_horizon_probed)
/// (or `step_probed`, or the scenario layer's `run_scenario_probed`) and
/// read the trace afterwards.
///
/// ## Bounded memory
///
/// A full trace costs `O(node_count × rounds)` cells, which silently
/// reaches gigabytes on million-node runs (a 2¹⁰×2¹⁰ mesh traced for
/// 10 000 rounds is ~10¹⁰ cells). `Tracer` therefore enforces a cell
/// cap ([`Tracer::DEFAULT_CELL_CAP`], 2²² ≈ 4M cells ≈ tens of MB;
/// tune with [`with_cell_cap`](Tracer::with_cell_cap)): whenever the
/// recorded cells would exceed the cap, the trace is decimated in
/// place — the sampling [`stride`](Tracer::stride) doubles and only
/// records whose round is a multiple of the new stride are retained.
/// Recording then continues at the coarser stride, so memory stays
/// `O(cap)` for any horizon while the retained records stay evenly
/// spaced. Once the stride exceeds 1 the trace is a *sample*: drop
/// deltas of rounds skipped going forward accumulate into the next
/// retained record, but records removed by a decimation pass take
/// their sends and drops with them, so aggregates such as
/// [`Trace::peak`] or [`Trace::total_drops`] reflect only sampled
/// rounds. For exact full-horizon aggregates on large runs, prefer
/// the constant-memory histogram sketches in `aqt-telemetry`.
///
/// ```
/// use aqt_core::{Greedy, GreedyPolicy};
/// use aqt_model::{Injection, Path, Pattern, Simulation};
/// use aqt_trace::Tracer;
///
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 2)]);
/// let mut sim = Simulation::new(Path::new(3), Greedy::new(GreedyPolicy::Fifo), &pattern)?;
/// let mut tracer = Tracer::new("Greedy-FIFO");
/// sim.run_past_horizon_probed(3, &mut tracer)?; // rounds 0..4
/// let trace = tracer.trace();
/// assert_eq!(trace.total_delivered(), 1);
/// assert_eq!(trace.idle_rounds(), 2); // drained after two hops
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    trace: Trace,
    /// Per-node drops reported since the previous record, drained into
    /// the next one (capacity-bounded runs; see
    /// [`RoundRecord::drops`](crate::RoundRecord::drops) for the
    /// attribution rule). Empty until the first drop or observation.
    pending_drops: Vec<u64>,
    /// Decimation cap: retained records × node_count stays ≤ this.
    cell_cap: usize,
    /// Current sampling stride; rounds not divisible by it are skipped.
    stride: u64,
}

impl Tracer {
    /// Default cap on retained trace cells (records × node_count).
    ///
    /// 2²² cells keep a full-resolution trace for any run where
    /// `node_count × rounds ≤ ~4M` (e.g. a 64-node path for 65 536
    /// rounds, or a 256×256 mesh for 64 rounds) and decimate beyond
    /// that.
    pub const DEFAULT_CELL_CAP: usize = 1 << 22;

    /// An empty trace of a run of `protocol`; it grows by one record per
    /// observed round, decimating at [`Tracer::DEFAULT_CELL_CAP`] cells.
    pub fn new(protocol: impl Into<String>) -> Self {
        Tracer {
            trace: Trace::new(protocol, 0),
            pending_drops: Vec::new(),
            cell_cap: Self::DEFAULT_CELL_CAP,
            stride: 1,
        }
    }

    /// Overrides the retained-cell cap (clamped to at least 1).
    ///
    /// A cap smaller than one round's worth of cells (`node_count`)
    /// still retains at least the most recent record, so the trace is
    /// never empty after an observed round.
    pub fn with_cell_cap(mut self, cells: usize) -> Self {
        self.cell_cap = cells.max(1);
        self
    }

    /// The current sampling stride: 1 while the trace is complete,
    /// doubled on every decimation pass.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the tracer, returning its trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Probe for Tracer {
    fn on_drop(&mut self, _round: Round, node: NodeId) {
        // Round 0's injection drops arrive before the first observation
        // names the node count, so the counts grow on first use.
        if self.pending_drops.len() <= node.index() {
            self.pending_drops.resize(node.index() + 1, 0);
        }
        self.pending_drops[node.index()] += 1;
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        let n = state.node_count();
        self.trace.node_count = n;
        self.pending_drops.resize(n, 0);
        // Stride sampling: skipped rounds leave `pending_drops` undrained,
        // so their drops accumulate into the next retained record.
        if round.value() % self.stride != 0 {
            return;
        }
        let occupancy = (0..n)
            .map(|v| state.occupancy(NodeId::new(v)) as u32)
            .collect();
        let drops = self
            .pending_drops
            .iter_mut()
            .map(|d| std::mem::take(d) as u32)
            .collect();
        self.trace.rounds.push(RoundRecord {
            round,
            occupancy,
            staged: state.staged_len() as u32,
            drops,
            sends: Vec::new(),
        });
        // Decimate in place when the retained cells exceed the cap:
        // double the stride and keep only stride-aligned records (round
        // 0 always survives, so the trace is never emptied).
        while self.trace.rounds.len() * n > self.cell_cap && self.trace.rounds.len() > 1 {
            self.stride = self.stride.saturating_mul(2);
            let stride = self.stride;
            self.trace.rounds.retain(|r| r.round.value() % stride == 0);
        }
    }

    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        // Only a round whose record survived sampling collects its moves.
        if let Some(record) = self.trace.rounds.last_mut().filter(|r| r.round == round) {
            record.sends.push(SendRecord {
                from,
                packet,
                delivered: delivers,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_core::{Hpts, Ppts};
    use aqt_model::{
        CapacityConfig, DropPolicyKind, Injection, Path, Pattern, Protocol, Simulation,
    };

    /// Steps `sim` for `rounds` rounds with `tracer` attached.
    fn run<P: Protocol<Path>>(sim: &mut Simulation<Path, P>, rounds: u64, tracer: &mut Tracer) {
        for _ in 0..rounds {
            sim.step_probed(tracer).unwrap();
        }
    }

    #[test]
    fn trace_matches_metrics() {
        let pattern: Pattern = (0..12u64)
            .map(|t| Injection::new(t, 0, if t % 2 == 0 { 7 } else { 4 }))
            .collect();
        let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern).unwrap();
        let mut tracer = Tracer::new("PPTS");
        sim.run_past_horizon_probed(40, &mut tracer).unwrap();
        let trace = tracer.trace();
        let metrics = sim.metrics();
        assert_eq!(trace.peak() as usize, metrics.max_occupancy);
        assert_eq!(trace.total_forwards() as u64, metrics.forwarded);
        assert_eq!(trace.total_delivered() as u64, metrics.delivered);
    }

    #[test]
    fn trace_records_staging_for_batched_protocols() {
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 15)]);
        let hpts = Hpts::for_line(16, 2).unwrap();
        let mut sim = Simulation::new(Path::new(16), hpts, &pattern).unwrap();
        let mut tracer = Tracer::new("HPTS");
        run(&mut sim, 2, &mut tracer);
        let trace = tracer.trace();
        // Round 0: the packet is staged (accepted only at round 2).
        assert_eq!(trace.rounds[0].staged, 1);
        assert_eq!(trace.rounds[0].occupancy.iter().sum::<u32>(), 0);
    }

    #[test]
    fn trace_records_capacity_drops() {
        // Burst of 4 into a cap-2 buffer: two injection-time drops land in
        // round 0's record at node 0.
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 7); 4]);
        let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern)
            .unwrap()
            .with_capacity(CapacityConfig::uniform(2), DropPolicyKind::Tail);
        let mut tracer = Tracer::new("PPTS");
        run(&mut sim, 5, &mut tracer);
        let trace = tracer.trace();
        assert_eq!(trace.total_drops(), sim.metrics().dropped);
        assert_eq!(trace.rounds[0].drops[NodeId::new(0).index()], 2);
        assert_eq!(trace.drop_series()[0], 2);
    }

    #[test]
    fn cell_cap_decimates_instead_of_blowing_up() {
        // 8 nodes × 256 rounds = 2048 cells against a 64-cell cap: only
        // 8 records fit, so the stride must climb while the protocol's
        // behavior stays untouched.
        let pattern: Pattern = (0..64u64).map(|t| Injection::new(t, 0, 7)).collect();
        let mut capped = Simulation::new(Path::new(8), Ppts::new(), &pattern).unwrap();
        let mut tracer = Tracer::new("PPTS").with_cell_cap(64);
        run(&mut capped, 256, &mut tracer);
        let mut full = Simulation::new(Path::new(8), Ppts::new(), &pattern).unwrap();
        let mut full_tracer = Tracer::new("PPTS");
        run(&mut full, 256, &mut full_tracer);

        // Transparent: decimation never changes what the run computes.
        assert_eq!(
            serde_json::to_string(capped.metrics()).unwrap(),
            serde_json::to_string(full.metrics()).unwrap()
        );

        let stride = tracer.stride();
        assert!(stride > 1, "a 2048-cell run must decimate at cap 64");
        let trace = tracer.trace();
        assert!(
            trace.rounds.len() * 8 <= 64,
            "retained cells {} exceed the cap",
            trace.rounds.len() * 8
        );
        // Every survivor is stride-aligned, and round 0 always survives.
        assert!(trace.rounds.iter().all(|r| r.round.value() % stride == 0));
        assert_eq!(trace.rounds[0].round.value(), 0);
        // The untouched run keeps full resolution.
        assert_eq!(full_tracer.stride(), 1);
        assert_eq!(full_tracer.trace().rounds.len(), 256);
    }

    #[test]
    fn skipped_round_drops_accumulate_into_the_next_record() {
        // Cap 16 cells on an 8-node path holds 2 records. The push /
        // decimate schedule is fixed by node_count and cap alone:
        // record 0, record 1, record 2 (24 cells → stride 2, keep
        // {0, 2}), skip 3, record 4 (→ stride 4, keep {0, 4}), skip
        // 5-7. Round 3 is skipped *forward*, so its drop delta must
        // land in round 4's record.
        let pattern: Pattern = (0..8u64)
            .flat_map(|t| std::iter::repeat_n(Injection::new(t, 0, 7), 4))
            .collect();
        let traced = |mut tracer: Tracer| {
            let mut sim = Simulation::new(Path::new(8), Ppts::new(), &pattern)
                .unwrap()
                .with_capacity(CapacityConfig::uniform(2), DropPolicyKind::Tail);
            run(&mut sim, 8, &mut tracer);
            tracer
        };
        let capped = traced(Tracer::new("PPTS").with_cell_cap(16));
        let full = traced(Tracer::new("PPTS"));

        assert_eq!(capped.stride(), 4);
        let rounds: Vec<u64> = capped
            .trace()
            .rounds
            .iter()
            .map(|r| r.round.value())
            .collect();
        assert_eq!(rounds, vec![0, 4]);
        let at =
            |t: &Tracer, r: usize| u64::from(t.trace().rounds[r].drops[NodeId::new(0).index()]);
        // Round 2 was the last *recorded* round before 4 (recorded,
        // then decimated away), so record 4 carries rounds 3 + 4.
        assert_eq!(at(&capped, 1), at(&full, 3) + at(&full, 4));
        assert!(at(&full, 3) > 0, "round 3 must actually drop");
    }

    #[test]
    fn into_trace_returns_the_recording() {
        let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 1)]);
        let mut sim = Simulation::new(
            Path::new(2),
            aqt_core::Greedy::new(aqt_core::GreedyPolicy::Fifo),
            &pattern,
        )
        .unwrap();
        let mut tracer = Tracer::new("Greedy-FIFO");
        run(&mut sim, 2, &mut tracer);
        let trace = tracer.into_trace();
        assert_eq!(trace.protocol, "Greedy-FIFO");
        assert_eq!(trace.node_count, 2);
        assert_eq!(trace.total_delivered(), 1);
    }
}
