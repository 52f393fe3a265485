//! The three workloads, each generated from a seed as a `Scenario`.
//!
//! Each workload is chosen so that one layer carries its load and the
//! others bypass that layer: a change to the layer shows on its own
//! workload, and the prediction on the others is "no change". The traced
//! phase splits quoted below are self-time shares of on-CPU stepping
//! (`--trace 1`, seeds 7 and 4242, 2-vCPU Intel Xeon KVM guest), with
//! times at reference speed (see `reference.rs`); set-up is split into
//! its own spans.
//!
//! The 1024×1024 mesh has no workload: its raw on-CPU time moved by 1.7×
//! between the host's busy and quiet states, and its 80 MB working set
//! lives far outside the caches whose contention the reference kernel
//! tracks (see `README.md`, Noise). The set-up layers it would carry,
//! `topology.build` and `engine.alloc`, carry `mesh_telemetry`'s set-up
//! instead.

use aqt_adversary::{Cadence, DestSpec, SourceSpec};
use aqt_analysis::{CapacitySpec, Scenario};
use aqt_core::{GreedyPolicy, ProtocolSpec};
use aqt_model::{
    CapacityConfig, DropPolicyKind, FaultEvent, FaultSpec, Injection, Rate, TopologySpec,
};
use aqt_telemetry::TelemetrySpec;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HPTS with ℓ = 2 on a 256-node path under a seeded smooth
    /// (ρ = 1/2, σ = 2) random adversary for 4000 rounds.
    ///
    /// - Why: HPTS is the paper's headline algorithm (Thm 4.1) and no
    ///   other workload runs it, so a change to HPTS in `aqt-core` shows
    ///   here and nowhere else.
    /// - Layer: `protocol` (`Hpts::plan`, which rebuilds a per-node
    ///   destination map every round), seen as `engine.plan_s`.
    /// - Phase split: plan 96%, inject, forward and merge 1.1–1.4% each,
    ///   over about 0.85 s of stepping (4512 rounds); set-up is about
    ///   0.03 ms, so `topology.build_s + engine.alloc_s` stays under 1 ms.
    PathHpts,
    /// All-floods at rate 1 for 320 rounds on a 96×96 mesh with uniform
    /// capacity 3, DropFarthest, seeded `random_links` outages and one
    /// node crash.
    ///
    /// - Why: the engine's phases run densely, plus the capacity
    ///   two-pass apply, the drop policy and the fault mask, so a gain
    ///   on the sparse path (`mesh_telemetry`) that costs the dense one
    ///   shows here.
    /// - Layer: `fault` set-up (`random_links` resolves the edge list
    ///   with n² next-hop queries) and `capacity` admission in merge.
    /// - Phase split: `fault.setup` is 99.9% of set-up (about 0.49 s);
    ///   stepping (about 0.33 s over 512 rounds: 320 of floods, 192 to
    ///   drain) is forward 30%, merge 27%, inject 22–23%, plan 20–22%.
    MeshLossy,
    /// 1024 seeded source→destination packets, injected over rounds
    /// 0..64, on a 512×512 mesh under DagGreedy-FIFO, with the
    /// `TelemetryProbe` attached as `scenarios --telemetry` attaches it
    /// (default `TelemetrySpec`, `WallClock`).
    ///
    /// - Why: the only workload where `aqt-telemetry` and the probed
    ///   round loop carry the load: `on_observe` samples every node's
    ///   occupancy every round. Its set-up over 2.6×10⁵ nodes is the
    ///   one that `topology.build` and `engine.alloc` carry.
    /// - Layer: `telemetry` hooks, seen as `telemetry.hook_s`; in
    ///   set-up, `topology` (`Dag::grid` validation and Kahn order) and
    ///   `engine` allocation.
    /// - Phase split: the telemetry hooks take 92–93% of stepping (about
    ///   0.9 s over 1152 rounds), almost all of it `on_observe` inside
    ///   the inject phase; the engine's own phases share the rest (plan
    ///   3.5%, inject 2%). `topology.build` and `engine.alloc` together
    ///   take 97–98% of set-up (about 16 ms).
    MeshTelemetry,
}

/// Problem size: the benchmark proper, or a toy version of every
/// workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PathHpts,
        Workload::MeshLossy,
        Workload::MeshTelemetry,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PathHpts => "path_hpts",
            Workload::MeshLossy => "mesh_lossy",
            Workload::MeshTelemetry => "mesh_telemetry",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario for `seed`: same seed, same scenario.
    pub fn scenario(self, size: Size, seed: u64) -> Scenario {
        let toy = size == Size::Toy;
        let mut rng = SplitMix64(seed);
        let mut scenario = Scenario {
            name: Some(self.name().into()),
            topology: TopologySpec::Path { n: 1 },
            protocol: ProtocolSpec::DagGreedy {
                policy: GreedyPolicy::Fifo,
            },
            source: SourceSpec::AllFloods { rounds: 0 },
            extra: 0,
            capacity: None,
            telemetry: None,
            faults: None,
        };
        match self {
            Workload::PathHpts => {
                let (n, rounds) = if toy { (16, 200) } else { (256, 4000) };
                scenario.topology = TopologySpec::Path { n };
                scenario.protocol = ProtocolSpec::Hpts { levels: 2 };
                scenario.source = SourceSpec::Random {
                    rate: Rate::new(1, 2).expect("1/2 is a valid rate"),
                    sigma: 2,
                    rounds,
                    dests: DestSpec::AnyReachable,
                    cadence: Cadence::Smooth,
                    seed: rng.next(),
                    attempts: 8,
                };
                scenario.extra = 2 * n as u64;
            }
            Workload::MeshTelemetry => {
                let (side, packets) = if toy { (16, 32) } else { (512, 1024) };
                scenario.topology = TopologySpec::Grid {
                    rows: side,
                    cols: side,
                };
                scenario.source = SourceSpec::Pattern {
                    injections: mesh_pairs(side, packets, &mut rng),
                };
                scenario.extra = 2 * side as u64 + INJECTION_ROUNDS;
                scenario.telemetry = Some(TelemetrySpec::default());
            }
            Workload::MeshLossy => {
                let (side, rounds) = if toy { (8, 24) } else { (96, 320) };
                let links = side * side / 40;
                scenario.topology = TopologySpec::Grid {
                    rows: side,
                    cols: side,
                };
                scenario.source = SourceSpec::AllFloods { rounds };
                scenario.extra = 2 * side as u64;
                scenario.capacity = Some(CapacitySpec {
                    config: CapacityConfig::uniform(3),
                    policy: DropPolicyKind::Farthest,
                });
                // A node the floods reach well before it crashes, so the
                // crash sweeps live packets into `faulted`.
                let crash = side * (1 + rng.below(side / 2)) + 1 + rng.below(side / 2);
                scenario.faults = Some(FaultSpec {
                    seed: rng.next(),
                    events: vec![
                        FaultEvent::RandomLinks {
                            count: links,
                            at: rounds / 8,
                            until: Some(rounds / 2),
                        },
                        FaultEvent::RandomLinks {
                            count: links,
                            at: rounds / 2,
                            until: Some(rounds),
                        },
                        FaultEvent::NodeCrash {
                            node: crash,
                            at: rounds / 2 + 1,
                            until: Some(3 * rounds / 4),
                        },
                    ],
                });
            }
        }
        scenario
    }
}

/// Rounds over which `mesh_telemetry` injects its packets.
const INJECTION_ROUNDS: u64 = 64;

/// `count` seeded packets on a `side × side` mesh, each from a uniform
/// cell to a uniform cell of the rectangle it can reach (right and down),
/// injected in a uniform round of `0..INJECTION_ROUNDS`.
fn mesh_pairs(side: usize, count: usize, rng: &mut SplitMix64) -> Vec<Injection> {
    (0..count)
        .map(|_| loop {
            let (r, c) = (rng.below(side), rng.below(side));
            let (dr, dc) = (r + rng.below(side - r), c + rng.below(side - c));
            if (dr, dc) != (r, c) {
                let round = rng.below(INJECTION_ROUNDS as usize) as u64;
                break Injection::new(round, r * side + c, dr * side + dc);
            }
        })
        .collect()
}

/// The SplitMix64 generator: the benchmark's only source of randomness.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}
