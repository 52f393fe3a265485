//! Run metrics: the quantities the paper's theorems are about (peak buffer
//! occupancy) plus supporting measurements (latency, deliveries, staging).

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, Round};
use crate::packet::Packet;
use crate::rate::Rate;
use crate::state::NetworkState;

/// Latency accounting over delivered packets. Latency of a packet is the
/// number of rounds from injection to delivery (a packet delivered by the
/// forwarding step of its injection round has latency 1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of delivered packets.
    pub delivered: u64,
    /// Sum of latencies of delivered packets.
    pub total_rounds: u64,
    /// Maximum latency seen.
    pub max_rounds: u64,
}

impl LatencyStats {
    /// Mean latency, or `None` if nothing was delivered.
    pub fn mean(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.total_rounds as f64 / self.delivered as f64)
        }
    }

    fn record(&mut self, latency: u64) {
        self.delivered += 1;
        self.total_rounds += latency;
        self.max_rounds = self.max_rounds.max(latency);
    }
}

/// Metrics collected over a simulation run.
///
/// The headline quantity is [`max_occupancy`](RunMetrics::max_occupancy):
/// the maximum of `|L^t(v)|` over all nodes `v` and rounds `t`, observed at
/// the paper's measurement point (after injection/acceptance, before
/// forwarding). This is exactly the "buffer space requirement" the paper's
/// bounds speak about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Packets injected by the adversary so far.
    pub injected: u64,
    /// Packets delivered to their destinations so far.
    pub delivered: u64,
    /// Total packet-forwarding events.
    pub forwarded: u64,
    /// Peak buffer occupancy over all nodes and rounds.
    pub max_occupancy: usize,
    /// Where the peak was attained.
    pub max_occupancy_at: Option<(NodeId, Round)>,
    /// Peak packets simultaneously live in the network (buffered + staged)
    /// — the streaming engine's resident-memory proxy.
    pub max_in_network: usize,
    /// Per-node peak occupancy.
    pub per_node_peak: Vec<usize>,
    /// Peak size of the staging area (0 in immediate-injection mode).
    pub max_staged: usize,
    /// Latency statistics of delivered packets.
    pub latency: LatencyStats,
    /// Packets dropped by capacity enforcement (0 on unbounded runs).
    pub dropped: u64,
    /// Per-node drop counts (all zero on unbounded runs).
    pub per_node_drops: Vec<u64>,
    /// The first round in which a drop occurred, if any — the empirical
    /// onset of the lossy regime.
    pub first_drop_round: Option<Round>,
    /// Packets lost to faults (0 on fault-free runs): swept from a
    /// crashing node's buffer or injected at a dead node. Conservation
    /// with faults reads
    /// `injected = delivered + dropped + faulted + in-network + staged`.
    pub faulted: u64,
    /// Per-node fault-loss counts (all zero on fault-free runs).
    pub per_node_faulted: Vec<u64>,
    /// The first round in which a fault loss occurred, if any.
    pub first_fault_round: Option<Round>,
    /// Optional per-round series of the max occupancy (enabled with
    /// [`Simulation::record_series`](crate::Simulation::record_series)).
    pub series: Option<Vec<usize>>,
}

impl RunMetrics {
    pub(crate) fn new(n: usize, record_series: bool) -> Self {
        RunMetrics {
            injected: 0,
            delivered: 0,
            forwarded: 0,
            max_occupancy: 0,
            max_occupancy_at: None,
            max_in_network: 0,
            per_node_peak: vec![0; n],
            max_staged: 0,
            latency: LatencyStats::default(),
            dropped: 0,
            per_node_drops: vec![0; n],
            first_drop_round: None,
            faulted: 0,
            per_node_faulted: vec![0; n],
            first_fault_round: None,
            series: record_series.then(Vec::new),
        }
    }

    /// Goodput — delivered / injected — as an exact [`Rate`], or `None`
    /// before anything was injected. 1 on loss-free completed runs; the
    /// capacity experiments (E11) plot this against the buffer limit.
    ///
    /// # Panics
    ///
    /// Panics if the reduced fraction does not fit `u32` (requires more
    /// than ~4·10⁹ injections with a coprime delivery count).
    pub fn goodput(&self) -> Option<Rate> {
        if self.injected == 0 {
            return None;
        }
        let g = gcd64(self.delivered, self.injected);
        let num = u32::try_from(self.delivered / g).expect("goodput numerator exceeds u32");
        let den = u32::try_from(self.injected / g).expect("goodput denominator exceeds u32");
        Some(Rate::new(num, den).expect("injected is non-zero"))
    }

    /// Observes `L^t` (post-injection, pre-forwarding).
    ///
    /// Walks only the active set — the caller (the engine) refreshes it
    /// first. Empty buffers can never raise a peak (updates are
    /// strictly-greater, and the ascending walk preserves the dense scan's
    /// tie-breaking), so skipping them is byte-identical to the historical
    /// `0..node_count()` sweep while costing O(live nodes).
    pub(crate) fn observe(&mut self, round: Round, state: &NetworkState) {
        let mut round_max = 0usize;
        let mut round_total = 0usize;
        for v in state.active_nodes() {
            let occ = state.occupancy(v);
            round_max = round_max.max(occ);
            round_total += occ;
            if occ > self.per_node_peak[v.index()] {
                self.per_node_peak[v.index()] = occ;
            }
            if occ > self.max_occupancy {
                self.max_occupancy = occ;
                self.max_occupancy_at = Some((v, round));
            }
        }
        self.max_staged = self.max_staged.max(state.staged_len());
        self.max_in_network = self.max_in_network.max(round_total + state.staged_len());
        if let Some(series) = &mut self.series {
            series.push(round_max);
        }
    }

    /// Records a capacity drop at `node` in round `round`.
    pub(crate) fn record_drop(&mut self, round: Round, node: NodeId) {
        self.dropped += 1;
        self.per_node_drops[node.index()] += 1;
        if self.first_drop_round.is_none() {
            self.first_drop_round = Some(round);
        }
    }

    /// Records a fault loss at `node` in round `round`.
    pub(crate) fn record_fault(&mut self, round: Round, node: NodeId) {
        self.faulted += 1;
        self.per_node_faulted[node.index()] += 1;
        if self.first_fault_round.is_none() {
            self.first_fault_round = Some(round);
        }
    }

    pub(crate) fn record_delivery(&mut self, round: Round, packet: &Packet) {
        let latency = round
            .since(packet.injected_at())
            .expect("delivery cannot precede injection")
            + 1;
        self.latency.record(latency);
        self.delivered += 1;
    }
}

fn gcd64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PacketId;

    #[test]
    fn latency_stats_accumulate() {
        let mut stats = LatencyStats::default();
        assert_eq!(stats.mean(), None);
        stats.record(2);
        stats.record(6);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.max_rounds, 6);
        assert_eq!(stats.mean(), Some(4.0));
    }

    #[test]
    fn observe_tracks_peak_and_location() {
        let mut m = RunMetrics::new(3, true);
        let mut st = NetworkState::new(3);
        let p = |id| {
            Packet::new(
                PacketId::new(id),
                Round::ZERO,
                NodeId::new(0),
                NodeId::new(2),
            )
        };
        st.place(NodeId::new(1), p(0), Some(NodeId::new(2)));
        st.place(NodeId::new(1), p(1), Some(NodeId::new(2)));
        st.place(NodeId::new(2), p(2), None);
        st.refresh_active(); // the engine refreshes before every observe
        m.observe(Round::new(0), &st);
        assert_eq!(m.max_occupancy, 2);
        assert_eq!(m.max_occupancy_at, Some((NodeId::new(1), Round::new(0))));
        assert_eq!(m.max_in_network, 3);
        assert_eq!(m.per_node_peak, vec![0, 2, 1]);
        assert_eq!(m.series.as_deref(), Some(&[2][..]));
    }

    #[test]
    fn delivery_latency_is_inclusive_of_delivery_round() {
        let mut m = RunMetrics::new(1, false);
        let p = Packet::new(
            PacketId::new(0),
            Round::new(3),
            NodeId::new(0),
            NodeId::new(1),
        );
        // Injected in round 3, delivered by the forwarding step of round 3.
        m.record_delivery(Round::new(3), &p);
        assert_eq!(m.latency.max_rounds, 1);
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn drops_accumulate_and_pin_first_round() {
        let mut m = RunMetrics::new(3, false);
        assert_eq!(m.first_drop_round, None);
        m.record_drop(Round::new(4), NodeId::new(2));
        m.record_drop(Round::new(9), NodeId::new(2));
        m.record_drop(Round::new(9), NodeId::new(0));
        assert_eq!(m.dropped, 3);
        assert_eq!(m.per_node_drops, vec![1, 0, 2]);
        assert_eq!(m.first_drop_round, Some(Round::new(4)));
    }

    #[test]
    fn fault_losses_accumulate_and_pin_first_round() {
        let mut m = RunMetrics::new(3, false);
        assert_eq!(m.first_fault_round, None);
        m.record_fault(Round::new(2), NodeId::new(1));
        m.record_fault(Round::new(5), NodeId::new(1));
        m.record_fault(Round::new(5), NodeId::new(0));
        assert_eq!(m.faulted, 3);
        assert_eq!(m.per_node_faulted, vec![1, 2, 0]);
        assert_eq!(m.first_fault_round, Some(Round::new(2)));
    }

    #[test]
    fn goodput_is_exact_and_reduced() {
        let mut m = RunMetrics::new(1, false);
        assert_eq!(m.goodput(), None);
        m.injected = 12;
        m.delivered = 8;
        assert_eq!(m.goodput(), Some(Rate::new(2, 3).unwrap()));
        m.delivered = 12;
        assert_eq!(m.goodput(), Some(Rate::ONE));
        m.delivered = 0;
        assert_eq!(m.goodput(), Some(Rate::ZERO));
    }
}
