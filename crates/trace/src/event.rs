//! Trace data model: per-round records of what a protocol saw and did.
//!
//! A [`Trace`] is the serializable history of one run, captured at the
//! paper's measurement point: each record holds the configuration `L^t`
//! (post-injection, pre-forwarding) and the moves the engine applied
//! from it. Traces support replay-style debugging, offline
//! invariant checking, CSV export and the ASCII renderings in
//! [`crate::render`].

use serde::{Deserialize, Serialize};

use aqt_model::{NodeId, PacketId, Round};

/// One applied move within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SendRecord {
    /// The forwarding node.
    pub from: NodeId,
    /// The packet forwarded out of `from`.
    pub packet: PacketId,
    /// Whether this hop delivered the packet (next hop = destination).
    pub delivered: bool,
}

/// Everything observed in one round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// The round `t`.
    pub round: Round,
    /// `|L^t(v)|` for every node `v` (post-injection, pre-forwarding).
    pub occupancy: Vec<u32>,
    /// Packets sitting in the staging area (batched protocols).
    pub staged: u32,
    /// Capacity drops per node since the previous record (all zero on
    /// unbounded runs). Drops are attributed to the measurement point at
    /// which they became visible: a drop during round `t`'s forwarding
    /// step appears in round `t + 1`'s record — and is absent from the
    /// trace entirely if the run stops after round `t` (run a settle
    /// round to capture it; `RunMetrics::dropped` is authoritative).
    pub drops: Vec<u32>,
    /// The moves the engine applied this round, in move order. A planned
    /// send the fault mask blocked is not a move and is absent.
    pub sends: Vec<SendRecord>,
}

impl RoundRecord {
    /// The largest buffer occupancy in this round.
    pub fn peak(&self) -> u32 {
        self.occupancy.iter().copied().max().unwrap_or(0)
    }
}

/// A full execution trace.
///
/// # Examples
///
/// ```
/// use aqt_model::{Injection, Path, Pattern, Simulation};
/// use aqt_core::Greedy;
/// use aqt_trace::Tracer;
///
/// let pattern = Pattern::from_injections(vec![Injection::new(0, 0, 3); 2]);
/// let protocol = Greedy::new(aqt_core::GreedyPolicy::Fifo);
/// let mut sim = Simulation::new(Path::new(4), protocol, &pattern)?;
/// let mut tracer = Tracer::new("Greedy-FIFO");
/// sim.run_past_horizon_probed(4, &mut tracer)?; // rounds 0..5
/// let trace = tracer.trace();
/// assert_eq!(trace.len(), 5);
/// assert_eq!(trace.peak(), 2);
/// assert_eq!(trace.total_delivered(), 2);
/// # Ok::<(), aqt_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Name of the traced protocol.
    pub protocol: String,
    /// Number of nodes in the network.
    pub node_count: usize,
    /// One record per executed round, in order.
    pub rounds: Vec<RoundRecord>,
}

impl Trace {
    /// An empty trace for a protocol and network size.
    pub fn new(protocol: impl Into<String>, node_count: usize) -> Self {
        Trace {
            protocol: protocol.into(),
            node_count,
            rounds: Vec::new(),
        }
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether no rounds were recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The peak occupancy over the whole trace.
    pub fn peak(&self) -> u32 {
        self.rounds.iter().map(RoundRecord::peak).max().unwrap_or(0)
    }

    /// Where (node, round) the peak was first attained, if any packet was
    /// ever buffered.
    pub fn peak_at(&self) -> Option<(NodeId, Round)> {
        let peak = self.peak();
        if peak == 0 {
            return None;
        }
        for r in &self.rounds {
            if let Some(v) = r.occupancy.iter().position(|&o| o == peak) {
                return Some((NodeId::new(v), r.round));
            }
        }
        None
    }

    /// The per-round occupancy series of one node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node_series(&self, v: NodeId) -> Vec<u32> {
        self.rounds.iter().map(|r| r.occupancy[v.index()]).collect()
    }

    /// The per-round maximum-occupancy series.
    pub fn max_series(&self) -> Vec<u32> {
        self.rounds.iter().map(RoundRecord::peak).collect()
    }

    /// Total forwarding events recorded.
    pub fn total_forwards(&self) -> usize {
        self.rounds.iter().map(|r| r.sends.len()).sum()
    }

    /// Total delivery events recorded.
    pub fn total_delivered(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.sends)
            .filter(|s| s.delivered)
            .count()
    }

    /// Rounds in which nothing was forwarded (the protocol idled).
    pub fn idle_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.sends.is_empty()).count()
    }

    /// Total capacity drops recorded over the trace.
    ///
    /// Drops become visible to the tracer at the *next* measurement
    /// point, so forwarding-step drops of the final executed round are
    /// not in the trace (run at least one settle round to capture
    /// them). [`RunMetrics::dropped`](aqt_model::RunMetrics) is the
    /// authoritative total.
    pub fn total_drops(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| &r.drops)
            .map(|&d| u64::from(d))
            .sum()
    }

    /// The per-round total-drop series (sum over nodes per record).
    pub fn drop_series(&self) -> Vec<u32> {
        self.rounds.iter().map(|r| r.drops.iter().sum()).collect()
    }

    /// CSV export of the occupancy matrix: one row per round, one column
    /// per node, plus a `staged` column.
    pub fn occupancy_csv(&self) -> String {
        let mut out = String::from("round");
        for v in 0..self.node_count {
            out.push_str(&format!(",n{v}"));
        }
        out.push_str(",staged\n");
        for r in &self.rounds {
            out.push_str(&r.round.value().to_string());
            for &o in &r.occupancy {
                out.push_str(&format!(",{o}"));
            }
            out.push_str(&format!(",{}\n", r.staged));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("demo", 3);
        t.rounds.push(RoundRecord {
            round: Round::new(0),
            occupancy: vec![2, 0, 1],
            staged: 0,
            drops: vec![0, 0, 0],
            sends: vec![SendRecord {
                from: NodeId::new(0),
                packet: PacketId::new(7),
                delivered: false,
            }],
        });
        t.rounds.push(RoundRecord {
            round: Round::new(1),
            occupancy: vec![1, 3, 1],
            staged: 2,
            drops: vec![0, 2, 1],
            sends: vec![
                SendRecord {
                    from: NodeId::new(1),
                    packet: PacketId::new(7),
                    delivered: true,
                },
                SendRecord {
                    from: NodeId::new(2),
                    packet: PacketId::new(8),
                    delivered: false,
                },
            ],
        });
        t
    }

    #[test]
    fn peak_and_location() {
        let t = sample();
        assert_eq!(t.peak(), 3);
        assert_eq!(t.peak_at(), Some((NodeId::new(1), Round::new(1))));
    }

    #[test]
    fn series_extraction() {
        let t = sample();
        assert_eq!(t.node_series(NodeId::new(0)), vec![2, 1]);
        assert_eq!(t.max_series(), vec![2, 3]);
    }

    #[test]
    fn counting() {
        let t = sample();
        assert_eq!(t.total_forwards(), 3);
        assert_eq!(t.total_delivered(), 1);
        assert_eq!(t.idle_rounds(), 0);
    }

    #[test]
    fn drop_accounting() {
        let t = sample();
        assert_eq!(t.total_drops(), 3);
        assert_eq!(t.drop_series(), vec![0, 3]);
        assert_eq!(Trace::new("x", 2).total_drops(), 0);
    }

    #[test]
    fn empty_trace_is_quiet() {
        let t = Trace::new("x", 4);
        assert!(t.is_empty());
        assert_eq!(t.peak(), 0);
        assert_eq!(t.peak_at(), None);
        assert_eq!(t.idle_rounds(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample().occupancy_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("round,n0,n1,n2,staged"));
        assert_eq!(lines.next(), Some("0,2,0,1,0"));
        assert_eq!(lines.next(), Some("1,1,3,1,2"));
    }
}
