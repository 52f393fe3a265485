//! Every spec variant's compact JSON, pinned byte for byte. Each golden
//! string parses, and serializing the parsed value gives the same bytes
//! back. The suite is driven by JSON text only, so it checks the wire
//! format whatever shape the Rust variants take.

use small_buffers::{
    Cadence, CapacityConfig, DestSpec, FaultEvent, ProtocolSpec, SourceSpec, TopologySpec,
};

/// Parses `json` as `T` and asserts that it serializes back to `json`.
fn same_bytes<T: serde::Serialize + serde::Deserialize>(json: &str) -> T {
    let value: T = serde_json::from_str(json).unwrap_or_else(|e| panic!("{json}: {e}"));
    assert_eq!(serde_json::to_string(&value).unwrap(), json);
    value
}

/// Parses `short` as `T` and asserts that it serializes to `full`.
fn expands_to<T: serde::Serialize + serde::Deserialize>(short: &str, full: &str) {
    let value: T = serde_json::from_str(short).unwrap_or_else(|e| panic!("{short}: {e}"));
    assert_eq!(serde_json::to_string(&value).unwrap(), full, "{short}");
}

/// The `"kind"` tag a golden string opens with.
fn kind_of(json: &str) -> &str {
    let rest = json
        .strip_prefix(r#"{"kind":""#)
        .unwrap_or_else(|| panic!("{json} does not open with its kind"));
    &rest[..rest.find('"').expect("closing quote")]
}

const TOPOLOGIES: [&str; 10] = [
    r#"{"kind":"path","n":8}"#,
    r#"{"kind":"tree","tree":{"kind":"star","leaves":4}}"#,
    r#"{"kind":"tree","tree":{"kind":"full_binary","height":3}}"#,
    r#"{"kind":"tree","tree":{"kind":"caterpillar","spine":4,"legs":2}}"#,
    r#"{"kind":"tree","tree":{"kind":"random","n":12,"seed":7}}"#,
    r#"{"kind":"tree","tree":{"kind":"parents","parents":[2,2,null]}}"#,
    r#"{"kind":"grid","rows":3,"cols":4}"#,
    r#"{"kind":"butterfly","k":2}"#,
    r#"{"kind":"diamond","width":3}"#,
    r#"{"kind":"random_dag","n":10,"density":0.25,"seed":5}"#,
];

const PROTOCOLS: [&str; 9] = [
    r#"{"kind":"pts","dest":7,"eager":true}"#,
    r#"{"kind":"pts","dest":null,"eager":false}"#,
    r#"{"kind":"ppts","eager":false}"#,
    r#"{"kind":"hpts","levels":2}"#,
    r#"{"kind":"tree_pts","dest":null}"#,
    r#"{"kind":"tree_ppts"}"#,
    r#"{"kind":"greedy","policy":"Fifo"}"#,
    r#"{"kind":"dag_greedy","policy":"FurthestToGo"}"#,
    r#"{"kind":"batched","inner":{"kind":"ppts","eager":true},"phase":4}"#,
];

const SOURCES: [&str; 16] = [
    r#"{"kind":"pattern","injections":[{"round":0,"source":0,"dest":3},{"round":2,"source":1,"dest":3}]}"#,
    r#"{"kind":"burst","round":1,"source":0,"dest":5,"size":4}"#,
    r#"{"kind":"burst_train","source":0,"dest":5,"size":3,"period":7,"count":4}"#,
    r#"{"kind":"paced_stream","source":1,"dest":6,"rate":{"num":1,"den":2},"rounds":40}"#,
    r#"{"kind":"repeat","source":0,"dest":3,"per_round":2,"rounds":25}"#,
    r#"{"kind":"round_robin","dests":[2,4,6],"rate":{"num":1,"den":1},"rounds":30}"#,
    r#"{"kind":"staircase","dests":[3,6],"per_step":2,"gap":3}"#,
    r#"{"kind":"peak_chase","rate":{"num":1,"den":2},"sigma":3,"rounds":50}"#,
    r#"{"kind":"random","rate":{"num":1,"den":2},"sigma":2,"rounds":60,"dests":{"kind":"fixed","dests":[3,7]},"cadence":{"kind":"bursty","period":6},"seed":12,"attempts":5}"#,
    r#"{"kind":"random","rate":{"num":1,"den":1},"sigma":2,"rounds":10,"dests":{"kind":"any"},"cadence":{"kind":"smooth"},"seed":3,"attempts":8}"#,
    r#"{"kind":"random","rate":{"num":1,"den":2},"sigma":1,"rounds":20,"dests":{"kind":"spread","count":3},"cadence":{"kind":"smooth"},"seed":4,"attempts":8}"#,
    r#"{"kind":"row_flood","row":2,"rate":{"num":1,"den":1},"rounds":20}"#,
    r#"{"kind":"column_flood","col":1,"rate":{"num":1,"den":1},"rounds":20}"#,
    r#"{"kind":"all_floods","rounds":15}"#,
    r#"{"kind":"diagonal_wave","per_step":2,"gap":0}"#,
    r#"{"kind":"shaped","inner":{"kind":"all_floods","rounds":10},"rate":{"num":1,"den":1},"sigma":2}"#,
];

#[test]
fn every_topology_variant_keeps_its_json_and_kind() {
    for json in TOPOLOGIES {
        let spec: TopologySpec = same_bytes(json);
        assert_eq!(spec.kind(), kind_of(json), "{json}");
    }
}

#[test]
fn every_protocol_variant_keeps_its_json_and_kind() {
    for json in PROTOCOLS {
        let spec: ProtocolSpec = same_bytes(json);
        assert_eq!(spec.kind(), kind_of(json), "{json}");
    }
}

#[test]
fn every_source_variant_keeps_its_json_and_kind() {
    for json in SOURCES {
        let spec: SourceSpec = same_bytes(json);
        assert_eq!(spec.kind(), kind_of(json), "{json}");
    }
}

#[test]
fn destination_and_cadence_kinds_keep_their_json() {
    for json in [
        r#"{"kind":"any"}"#,
        r#"{"kind":"fixed","dests":[3,7]}"#,
        r#"{"kind":"spread","count":2}"#,
    ] {
        same_bytes::<DestSpec>(json);
    }
    for json in [r#"{"kind":"smooth"}"#, r#"{"kind":"bursty","period":6}"#] {
        same_bytes::<Cadence>(json);
    }
}

#[test]
fn fault_events_and_capacity_limits_keep_their_json() {
    for json in [
        r#"{"kind":"link_down","from":0,"to":1,"at":2,"until":6}"#,
        r#"{"kind":"node_crash","node":4,"at":3,"until":null}"#,
        r#"{"kind":"partition","group":[0,1,3],"at":5,"until":9}"#,
        r#"{"kind":"link_delay","from":1,"to":2,"extra":2,"at":0,"until":12}"#,
        r#"{"kind":"random_links","count":2,"at":1,"until":null}"#,
    ] {
        same_bytes::<FaultEvent>(json);
    }
    for json in [
        r#"{"limits":{"kind":"uniform","limit":4},"staging":"Exempt"}"#,
        r#"{"limits":{"kind":"per_node","limits":[1,8,3]},"staging":"Counted"}"#,
    ] {
        same_bytes::<CapacityConfig>(json);
    }
}

#[test]
fn omitted_defaults_parse_to_the_full_form() {
    expands_to::<ProtocolSpec>(
        r#"{"kind":"pts","dest":7}"#,
        r#"{"kind":"pts","dest":7,"eager":false}"#,
    );
    expands_to::<ProtocolSpec>(
        r#"{"kind":"pts"}"#,
        r#"{"kind":"pts","dest":null,"eager":false}"#,
    );
    expands_to::<ProtocolSpec>(r#"{"kind":"ppts"}"#, r#"{"kind":"ppts","eager":false}"#);
    expands_to::<SourceSpec>(
        r#"{"kind":"random","rate":{"num":1,"den":1},"sigma":2,"rounds":10,"seed":3}"#,
        SOURCES[9],
    );
    expands_to::<SourceSpec>(
        r#"{"kind":"random","rate":{"num":1,"den":2},"sigma":1,"rounds":20,"dests":{"kind":"spread","count":3},"seed":4}"#,
        SOURCES[10],
    );
}
