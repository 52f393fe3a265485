//! Independent oracle for the occupancy sketch of [`TelemetryProbe`] and
//! for the invariant monitors of [`Monitors`].
//!
//! The library probes walk only the active nodes at the `L^t`
//! observation and account for the empty buffers in one step. The
//! reference probes below are deliberately naive: they visit every node
//! `0..node_count()` every round, one `HistogramSketch::record` per node,
//! and the reference quiescence check groups each buffer by destination
//! in a fresh `BTreeMap`. Each runs beside its library
//! counterpart in the same run, fed the same hooks, and the two must
//! agree exactly.

use std::collections::BTreeMap;

use proptest::prelude::*;
use small_buffers::model::{EnginePhase, Probe};
use small_buffers::{
    run_scenario_probed, Cadence, CapacityConfig, CapacitySpec, DestSpec, DropPolicyKind,
    FaultEvent, FaultSpec, FaultState, GreedyPolicy, HistogramSketch, Injection, Monitors,
    NetworkState, NodeId, OccupancyMonitor, Packet, PacketId, Path, ProtocolSpec, Rate, Round,
    RoundOutcome, Scenario, SourceSpec, TelemetryProbe, TelemetrySpec, Topology, TopologySpec,
    TreeSpec, Violation,
};

/// Feeds every hook to each probe in turn.
struct Fanout<'a>(Vec<&'a mut dyn Probe>);

impl Probe for Fanout<'_> {
    fn on_fault(&mut self, round: Round, state: &FaultState) {
        self.0.iter_mut().for_each(|p| p.on_fault(round, state));
    }

    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        self.0.iter_mut().for_each(|p| p.on_observe(round, state));
    }

    fn on_phase(&mut self, round: Round, phase: EnginePhase, nanos: u64) {
        self.0
            .iter_mut()
            .for_each(|p| p.on_phase(round, phase, nanos));
    }

    fn on_move(&mut self, round: Round, from: NodeId, packet: PacketId, delivers: bool) {
        self.0
            .iter_mut()
            .for_each(|p| p.on_move(round, from, packet, delivers));
    }

    fn on_delivery(&mut self, round: Round, packet: &Packet) {
        self.0.iter_mut().for_each(|p| p.on_delivery(round, packet));
    }

    fn on_round(&mut self, outcome: &RoundOutcome, state: &NetworkState) {
        self.0.iter_mut().for_each(|p| p.on_round(outcome, state));
    }
}

/// Reference occupancy sampling: every node's `|L(v)|`, one sample each,
/// on rounds where `round % stride == 0`.
struct RefOccupancy {
    stride: u64,
    sketch: HistogramSketch,
}

impl Probe for RefOccupancy {
    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        if round.value() % self.stride.max(1) != 0 {
            return;
        }
        for v in 0..state.node_count() {
            self.sketch.record(state.occupancy(NodeId::new(v)) as u64);
        }
    }
}

/// Reference monitors: the occupancy bound checked at every node in
/// node order, and the quiescence check built from one destination map
/// per node. Each latches its own first violation.
struct RefMonitors {
    bound: usize,
    occupancy: Option<Violation>,
    quiet: bool,
    quiescence: Option<Violation>,
}

impl RefMonitors {
    fn new(bound: usize) -> Self {
        RefMonitors {
            bound,
            occupancy: None,
            quiet: false,
            quiescence: None,
        }
    }
}

impl Probe for RefMonitors {
    fn on_observe(&mut self, round: Round, state: &NetworkState) {
        if self.occupancy.is_none() {
            self.occupancy = (0..state.node_count()).find_map(|v| {
                let occ = state.occupancy(NodeId::new(v));
                (occ > self.bound).then(|| Violation {
                    monitor: format!("occupancy<={}", self.bound),
                    round,
                    message: format!("node {v} holds {occ} > {}", self.bound),
                })
            });
        }
        self.quiet = (0..state.node_count()).all(|v| {
            let mut per_dest: BTreeMap<NodeId, usize> = BTreeMap::new();
            for sp in state.buffer(NodeId::new(v)) {
                *per_dest.entry(sp.dest()).or_insert(0) += 1;
            }
            per_dest.values().all(|&packets| packets <= 1)
        });
    }

    fn on_move(&mut self, round: Round, from: NodeId, _packet: PacketId, _delivers: bool) {
        if self.quiet && self.quiescence.is_none() {
            self.quiescence = Some(Violation {
                monitor: "quiescence".into(),
                round,
                message: format!("{from} sends from a quiet configuration"),
            });
        }
    }
}

/// The topology families: a path, a random tree and a mesh.
fn topology(family: usize, size: usize, seed: u64) -> TopologySpec {
    match family {
        0 => TopologySpec::Path { n: size },
        1 => TopologySpec::Tree(TreeSpec::Random { n: size, seed }),
        _ => TopologySpec::Grid {
            rows: size / 4,
            cols: 4,
        },
    }
}

/// Greedy everywhere; PPTS and HPTS (batched staging) on the path. Off
/// the path, pick 1 is the tree counterpart of PPTS (or greedy on the
/// mesh) and pick 2 greedy under an ℓ = 3 batched phase.
fn protocol(topology: &TopologySpec, pick: usize) -> ProtocolSpec {
    let greedy = ProtocolSpec::Greedy {
        policy: GreedyPolicy::Fifo,
    };
    match (topology, pick) {
        (_, 0) => greedy,
        (TopologySpec::Path { .. }, 1) => ProtocolSpec::Ppts { eager: false },
        (TopologySpec::Path { .. }, _) => ProtocolSpec::Hpts { levels: 2 },
        (TopologySpec::Tree { .. }, 1) => ProtocolSpec::TreePpts,
        (TopologySpec::Grid { .. }, 1) => greedy,
        _ => ProtocolSpec::Batched {
            inner: Box::new(greedy),
            phase: 3,
        },
    }
}

/// Seeded (ρ, σ)-bounded traffic on paths and trees; on the mesh, random
/// routable pairs plus one corner-to-corner packet.
fn source(topology: &TopologySpec, rate: Rate, sigma: u64, seed: u64) -> SourceSpec {
    if let TopologySpec::Grid { .. } = topology {
        let topo = topology.build().expect("mesh builds");
        let n = topo.node_count();
        let mut injections = vec![Injection::new(0, 0, n - 1)];
        let mut x = seed;
        for t in 0..40u64 {
            for _ in 0..3 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let (s, d) = ((x >> 33) as usize % n, (x >> 13) as usize % n);
                if s != d && topo.reaches(NodeId::new(s), NodeId::new(d)) {
                    injections.push(Injection::new(t, s, d));
                }
            }
        }
        return SourceSpec::Pattern { injections };
    }
    random(rate, sigma, DestSpec::AnyReachable, seed)
}

/// 40 rounds of seeded (ρ, σ)-bounded bursts toward `dests`.
fn random(rate: Rate, sigma: u64, dests: DestSpec, seed: u64) -> SourceSpec {
    SourceSpec::Random {
        rate,
        sigma,
        rounds: 40,
        dests,
        cadence: Cadence::Bursty { period: 5 },
        seed,
        attempts: 8,
    }
}

/// `(ρ, σ)`: ρ = num/den with `1 ≤ num ≤ den ≤ 3`, σ from 1 to 4.
fn traffic() -> impl Strategy<Value = (Rate, u64)> {
    let rate =
        (1u32..=3).prop_flat_map(|den| (1..=den).prop_map(move |num| Rate::new(num, den).unwrap()));
    (rate, 1u64..=4)
}

fn scenario(topology: TopologySpec, protocol: ProtocolSpec, source: SourceSpec) -> Scenario {
    Scenario {
        name: None,
        topology,
        protocol,
        source,
        extra: 24,
        capacity: None,
        telemetry: None,
        faults: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The probe's occupancy sketch is the one a dense walk of every node
    /// records, at any stride, under capacity drops and a node crash.
    #[test]
    fn occupancy_sketch_matches_a_dense_walk(
        cell in (0usize..3, 8usize..=32, 0usize..3),
        traffic in traffic(),
        capacity in (proptest::bool::ANY, 1usize..=3, 0usize..4),
        crash in (proptest::bool::ANY, 0usize..32, 0u64..20, 1u64..8),
        run in (1u64..=4, 0u64..1_000),
    ) {
        let (family, size, pick) = cell;
        let (rate, sigma) = traffic;
        let (stride, seed) = run;
        let topology = topology(family, size, seed);
        let n = topology.build().expect("topology builds").node_count();
        let mut s = scenario(
            topology.clone(),
            protocol(&topology, pick),
            source(&topology, rate, sigma, seed),
        );
        let (bounded, limit, policy) = capacity;
        s.capacity = bounded.then(|| CapacitySpec {
            config: CapacityConfig::uniform(limit),
            policy: DropPolicyKind::ALL[policy],
        });
        let (crashes, node, at, span) = crash;
        s.faults = crashes.then(|| {
            FaultSpec::new(seed).with_event(FaultEvent::NodeCrash {
                node: node % n,
                at,
                until: Some(at + span),
            })
        });
        let spec = TelemetrySpec {
            series_capacity: 16,
            series_stride: 1,
            occupancy_stride: stride,
        };
        let mut probe = TelemetryProbe::new(spec);
        let mut reference = RefOccupancy {
            stride,
            sketch: HistogramSketch::new(),
        };
        let summary = run_scenario_probed(&s, &mut Fanout(vec![&mut probe, &mut reference]))
            .expect("valid scenario");
        prop_assert!(summary.injected > 0, "vacuous cell");
        prop_assert_eq!(probe.report().data.occupancy, reference.sketch);
    }

    /// The monitors latch the first violation the dense reference does:
    /// greedy forwards from quiet configurations, PTS and PPTS never do.
    #[test]
    fn monitors_latch_the_reference_violation(
        n in 8usize..=32,
        pick in 0usize..3,
        traffic in traffic(),
        bound in 1usize..=3,
        seed in 0u64..1_000,
    ) {
        let (rate, sigma) = traffic;
        let (protocol, dests) = match pick {
            0 => (ProtocolSpec::Greedy { policy: GreedyPolicy::Fifo }, DestSpec::AnyReachable),
            1 => (ProtocolSpec::Pts { dest: None, eager: false }, DestSpec::fixed([n - 1])),
            _ => (ProtocolSpec::Ppts { eager: false }, DestSpec::AnyReachable),
        };
        let s = scenario(TopologySpec::Path { n }, protocol, random(rate, sigma, dests, seed));
        let mut quiescence = Monitors::<Path>::new(Vec::new()).enforce_quiescence();
        let mut occupancy = Monitors::<Path>::new(vec![Box::new(OccupancyMonitor::new(bound))]);
        let mut reference = RefMonitors::new(bound);
        let summary = run_scenario_probed(
            &s,
            &mut Fanout(vec![&mut quiescence, &mut occupancy, &mut reference]),
        )
        .expect("valid scenario");
        prop_assert!(summary.injected > 0, "vacuous cell");
        prop_assert_eq!(quiescence.violation(), reference.quiescence.as_ref());
        prop_assert_eq!(occupancy.violation(), reference.occupancy.as_ref());
        prop_assert_eq!(quiescence.violation().is_some(), pick == 0);
    }
}
