//! Workspace wiring smoke test: the façade crate must re-export every
//! subsystem both as a module (`small_buffers::model`, …) and through its
//! root-level `pub use` blocks, and the pieces must compose end-to-end.

use std::path::Path as FsPath;

use small_buffers::{Injection, NodeId, Path, Pattern, Pts, Simulation};

/// Every façade module exposes its key types under the expected paths.
#[test]
fn facade_modules_expose_key_types() {
    // model
    let topo: small_buffers::model::Path = small_buffers::model::Path::new(4);
    assert_eq!(small_buffers::model::Topology::node_count(&topo), 4);
    let rate = small_buffers::model::Rate::new(1, 2).unwrap();
    // adversary (single destination: PTS rejects multi-destination traffic)
    let pattern = small_buffers::adversary::RandomAdversary::new(rate, 2, 40)
        .destinations(small_buffers::adversary::DestSpec::fixed([3]))
        .seed(11)
        .build_path(&topo);
    // algorithms
    let pts = small_buffers::algorithms::Pts::eager(small_buffers::model::NodeId::new(3));
    // analysis
    let tight = small_buffers::analysis::measured_sigma_on(&topo, &pattern, rate);
    assert!(tight <= 2);
    assert!(small_buffers::analysis::bounds::pts_bound(2) >= 2);
    // trace
    let mut tracer = small_buffers::trace::Tracer::new("PTS");
    let mut sim = Simulation::new(topo, pts, &pattern).unwrap();
    sim.run_past_horizon_probed(60, &mut tracer).unwrap();
    assert!(sim.is_drained());
}

/// Root-level re-exports agree with their module-qualified counterparts.
#[test]
fn root_reexports_match_module_paths() {
    assert_eq!(
        small_buffers::Rate::new(2, 4).unwrap(),
        small_buffers::model::Rate::new(1, 2).unwrap()
    );
    assert_eq!(
        small_buffers::bounds::ppts_bound(3, 2),
        small_buffers::analysis::bounds::ppts_bound(3, 2)
    );
}

/// The ISSUE-mandated end-to-end check: an eager PTS on a 4-node path
/// delivers a hand-written pattern and respects the Prop. 3.1 bound.
#[test]
fn simulation_runs_end_to_end_on_tiny_path() {
    let pattern = Pattern::from_injections(vec![
        Injection::new(0, 0, 3),
        Injection::new(0, 1, 3),
        Injection::new(2, 2, 3),
    ]);
    let mut sim = Simulation::new(Path::new(4), Pts::eager(NodeId::new(3)), &pattern).unwrap();
    sim.run_past_horizon(20).unwrap();
    assert_eq!(sim.metrics().delivered, 3);
    // Prop. 3.1: max buffer <= 2 + sigma, and this pattern has sigma <= 1.
    assert!(sim.metrics().max_occupancy <= 3);
}

/// The docs the rustdoc refers to ship with the workspace.
#[test]
fn referenced_docs_exist() {
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"] {
        let path = FsPath::new(env!("CARGO_MANIFEST_DIR")).join(doc);
        assert!(path.is_file(), "{doc} is referenced by rustdoc but missing");
    }
}
