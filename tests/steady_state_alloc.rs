//! Steady-state rounds make no heap allocation, and set-up requests
//! memory for what is live, not a table per link.
//!
//! A counting global allocator counts every allocation and reallocation
//! made on the calling thread, and the bytes each one requests (the test
//! harness runs tests on parallel threads, so a global count would mix
//! them). Each case builds a run
//! whose live set stays bounded, steps it through a warm-up, and counts
//! the allocations of the next 2,000 rounds. A growing backlog would
//! allocate for growth rather than per round, so every source injects at
//! most one packet per link every other round, or a capacity bounds the
//! buffers.
//!
//! Every case but one must make no allocation at all. A random-links
//! fault window makes a few in total, never one per round: the first
//! window sizes the round's down-link list. Its total is a stated bound,
//! far below one per round.
//!
//! Building a simulation on a large mesh requests a stated number of
//! bytes per node: the buffer spans and the metrics' per-node counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use small_buffers::model::Probe;
use small_buffers::{
    CapacityConfig, DropPolicyKind, FaultEvent, FaultSpec, FnSource, GreedyPolicy, Injection,
    ProtocolSpec, Simulation, TelemetryProbe, TelemetrySpec, TopologySpec,
};

thread_local! {
    /// Allocations made by this thread. `const`-initialised with no
    /// destructor, so the allocator can read it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations requested (a reallocation requests its
    /// new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// count is a thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn requested_bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Rounds stepped before counting starts.
const WARM_UP: u64 = 1_000;
/// Rounds whose allocations are counted.
const COUNTED: u64 = 2_000;

/// One run: the topology and protocol specs, the traffic, and the
/// optional capacity (with `Farthest` drops) and fault schedule.
struct Case {
    topology: TopologySpec,
    protocol: ProtocolSpec,
    traffic: fn(u64, &mut Vec<Injection>),
    capacity: Option<usize>,
    faults: Option<FaultSpec>,
}

impl Case {
    fn new(
        topology: TopologySpec,
        protocol: ProtocolSpec,
        traffic: fn(u64, &mut Vec<Injection>),
    ) -> Self {
        Case {
            topology,
            protocol,
            traffic,
            capacity: None,
            faults: None,
        }
    }

    /// The allocations of `COUNTED` rounds after `WARM_UP` rounds, with
    /// `probe` watching every round.
    fn warm_allocations(&self, probe: &mut dyn Probe) -> u64 {
        let topology = self.topology.build().expect("topology builds");
        let protocol = self.protocol.build(&topology).expect("protocol builds");
        let source = FnSource::new(WARM_UP + COUNTED, self.traffic);
        let mut sim = Simulation::from_source(topology, protocol, source);
        if let Some(limit) = self.capacity {
            sim = sim.with_capacity(CapacityConfig::uniform(limit), DropPolicyKind::Farthest);
        }
        if let Some(spec) = &self.faults {
            sim = sim.with_faults(spec);
        }
        for _ in 0..WARM_UP {
            sim.step_probed(probe).expect("valid round");
        }
        let before = allocations();
        for _ in 0..COUNTED {
            sim.step_probed(probe).expect("valid round");
        }
        allocations() - before
    }
}

const PATH: usize = 64;
const MESH: usize = 8;

fn path() -> TopologySpec {
    TopologySpec::Path { n: PATH }
}

fn mesh(side: usize) -> TopologySpec {
    TopologySpec::Grid {
        rows: side,
        cols: side,
    }
}

fn dag_greedy() -> ProtocolSpec {
    ProtocolSpec::DagGreedy {
        policy: GreedyPolicy::Fifo,
    }
}

/// Every other round, one packet toward the path's last node.
fn to_last_node(t: u64, out: &mut Vec<Injection>) {
    if t % 2 == 0 {
        let k = (t / 2) as usize;
        out.push(Injection::new(t, k * 7 % (PATH - 4), PATH - 1));
    }
}

/// Every other round, one packet toward one of three destinations.
fn to_three_nodes(t: u64, out: &mut Vec<Injection>) {
    if t % 2 == 0 {
        let k = (t / 2) as usize;
        let dest = [21, 42, PATH - 1][k % 3];
        out.push(Injection::new(t, k * 5 % dest, dest));
    }
}

/// Every other round, one packet between a varying pair of path nodes.
fn path_pairs(t: u64, out: &mut Vec<Injection>) {
    if t % 2 == 0 {
        let k = (t / 2) as usize;
        let source = k * 11 % (PATH - 1);
        out.push(Injection::new(
            t,
            source,
            source + 1 + k * 7 % (PATH - 1 - source),
        ));
    }
}

/// Every other round, one packet from the top-left 4×4 corner of a
/// `SIDE`×`SIDE` mesh four rows down and three columns right (XY routing
/// reaches it).
fn mesh_pairs<const SIDE: usize>(t: u64, out: &mut Vec<Injection>) {
    if t % 2 == 0 {
        let k = (t / 2) as usize;
        let (row, col) = (k % 4, k / 4 % 4);
        out.push(Injection::new(
            t,
            row * SIDE + col,
            (row + 4) * SIDE + col + 3,
        ));
    }
}

/// Three packets a round from the top row's first three nodes to the
/// far corner: more than the corner's links carry, so a finite buffer
/// drops.
fn mesh_flood(t: u64, out: &mut Vec<Injection>) {
    for col in 0..3 {
        out.push(Injection::new(t, col, MESH * MESH - 1));
    }
}

#[test]
fn paper_protocols_on_a_path_allocate_nothing_per_round() {
    let cases = [
        (
            "greedy",
            Case::new(
                path(),
                ProtocolSpec::Greedy {
                    policy: GreedyPolicy::Fifo,
                },
                path_pairs,
            ),
        ),
        (
            "pts",
            Case::new(
                path(),
                ProtocolSpec::Pts {
                    dest: None,
                    eager: false,
                },
                to_last_node,
            ),
        ),
        (
            "ppts",
            Case::new(path(), ProtocolSpec::Ppts { eager: false }, to_three_nodes),
        ),
        (
            "hpts l=2",
            Case::new(path(), ProtocolSpec::Hpts { levels: 2 }, to_last_node),
        ),
        (
            "hpts l=2, three destinations",
            Case::new(path(), ProtocolSpec::Hpts { levels: 2 }, to_three_nodes),
        ),
        (
            "hpts l=3, three destinations",
            Case::new(path(), ProtocolSpec::Hpts { levels: 3 }, to_three_nodes),
        ),
    ];
    for (name, case) in cases {
        assert_eq!(case.warm_allocations(&mut ()), 0, "{name}");
    }
}

#[test]
fn the_telemetry_probe_allocates_nothing_per_round() {
    // Once warm, the probe's series ring (1,024 samples) is full and its
    // sketches hold every bucket the run's values reach.
    let cases = [
        (
            "hpts l=2",
            Case::new(path(), ProtocolSpec::Hpts { levels: 2 }, to_last_node),
        ),
        (
            "dag greedy, 16x16",
            Case::new(mesh(16), dag_greedy(), mesh_pairs::<16>),
        ),
    ];
    for (name, case) in cases {
        let mut probe = TelemetryProbe::new(TelemetrySpec::default());
        assert_eq!(case.warm_allocations(&mut probe), 0, "{name}");
    }
}

#[test]
fn dag_greedy_allocates_nothing_per_round() {
    let plain = Case::new(mesh(MESH), dag_greedy(), mesh_pairs::<MESH>);
    assert_eq!(plain.warm_allocations(&mut ()), 0, "unbounded");
    let bounded = Case {
        capacity: Some(3),
        ..Case::new(mesh(MESH), dag_greedy(), mesh_flood)
    };
    assert_eq!(bounded.warm_allocations(&mut ()), 0, "capacity 3, Farthest");
}

#[test]
fn random_link_windows_allocate_a_few_times_in_total() {
    // Two windows inside the counted rounds: the first sizes the round's
    // down-link list, the second reuses it.
    let window = |at: u64| FaultEvent::RandomLinks {
        count: 16,
        at: WARM_UP + at,
        until: Some(WARM_UP + at + 900),
    };
    let case = Case {
        capacity: Some(3),
        faults: Some(
            FaultSpec::new(5)
                .with_event(window(50))
                .with_event(window(1_050)),
        ),
        ..Case::new(mesh(MESH), dag_greedy(), mesh_flood)
    };
    // Reads 5: the first window sizes the round's down-link list, and the
    // slab's free lists grow once as the outage empties buffers.
    let made = case.warm_allocations(&mut ());
    assert!(made <= 8, "{made} allocations in {COUNTED} rounds");
}

#[test]
fn a_large_mesh_simulation_requests_its_spans_and_counters_only() {
    // 12 bytes of buffer span and 24 of per-node metrics counters: 36
    // per node, nothing per link.
    const SIDE: usize = 512;
    let topology = mesh(SIDE).build().expect("topology builds");
    let protocol = dag_greedy().build(&topology).expect("protocol builds");
    let source = FnSource::new(COUNTED, mesh_pairs::<SIDE>);
    let before = requested_bytes();
    let sim = Simulation::from_source(topology, protocol, source);
    let bytes = requested_bytes() - before;
    drop(sim);
    let nodes = (SIDE * SIDE) as u64;
    assert!(
        bytes <= 40 * nodes,
        "{bytes} bytes for {nodes} nodes ({:.2} per node)",
        bytes as f64 / nodes as f64
    );
}
