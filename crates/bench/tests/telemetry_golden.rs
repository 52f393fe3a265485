//! Golden regression pins for the telemetry smoke scenario.
//!
//! `scenarios/telemetry_smoke.json` is the checked-in scenario CI runs
//! with `--telemetry`; this suite pins the *deterministic* half of the
//! report it emits. `TelemetryData` — counters, occupancy/latency
//! histogram sketches, the bounded round series — is a pure function of
//! the scenario (the probe observes the same engine schedule every run,
//! and the default `NullClock` keeps wall time out of it), so the
//! comparison is exact struct equality against the pinned
//! `telemetry_smoke.golden.json`, not a tolerance. A future probe or
//! engine change that shifts a counter, re-buckets a sketch, or alters
//! series retention fails here instead of quietly rewriting the
//! artifact CI uploads.
//!
//! The `profile` half (phase nanos) is clock-dependent by design and
//! deliberately NOT pinned.

use aqt_analysis::{run_scenario_probed, RunSummary, Scenario, ScenarioError};
use aqt_telemetry::{TelemetryData, TelemetryProbe, TelemetryReport};

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn smoke_scenario() -> Scenario {
    serde_json::from_str(&repo_file("scenarios/telemetry_smoke.json"))
        .expect("telemetry smoke scenario parses")
}

/// The smoke scenario run with a `TelemetryProbe` built from its spec.
fn telemetry_run(scenario: &Scenario) -> Result<(RunSummary, TelemetryReport), ScenarioError> {
    let mut probe = TelemetryProbe::new(scenario.telemetry.unwrap_or_default());
    let summary = run_scenario_probed(scenario, &mut probe)?;
    Ok((summary, probe.report()))
}

fn golden_data() -> TelemetryData {
    serde_json::from_str(include_str!("telemetry_smoke.golden.json"))
        .expect("pinned golden parses as TelemetryData")
}

#[test]
fn smoke_report_data_matches_the_pinned_golden() {
    let scenario = smoke_scenario();
    let (summary, report) = telemetry_run(&scenario).expect("smoke scenario runs");
    // The run itself: the 16×16 diagonal wave drains completely.
    assert_eq!(summary.injected, 255);
    assert_eq!(summary.delivered, 255);
    assert_eq!(summary.dropped, 0);
    // The deterministic half of the report matches the pin exactly.
    assert_eq!(
        report.data,
        golden_data(),
        "TelemetryData diverged from telemetry_smoke.golden.json; if the \
         change is intentional, regenerate the golden with \
         `scenarios --telemetry crates/bench/tests/telemetry_smoke.golden.json \
          scenarios/telemetry_smoke.json` and commit the data section"
    );
}

#[test]
fn smoke_report_round_trips_through_json() {
    let (_, report) = telemetry_run(&smoke_scenario()).expect("smoke scenario runs");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Schema spot checks on the emitted artifact CI uploads.
    for field in [
        "\"data\"",
        "\"profile\"",
        "\"counters\"",
        "\"occupancy\"",
        "\"latency\"",
        "\"series\"",
        "\"buckets\"",
        "\"samples\"",
    ] {
        assert!(json.contains(field), "emitted JSON lacks {field}:\n{json}");
    }
    let back: TelemetryReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back.data, report.data);
}

#[test]
fn sketch_memory_is_bounded_by_buckets_not_samples() {
    // The streaming contract: 73k occupancy samples and 255 latency
    // samples land in a handful of log2 buckets plus a capped series.
    let (_, report) = telemetry_run(&smoke_scenario()).expect("smoke scenario runs");
    let data = &report.data;
    assert!(data.occupancy.count() > 70_000);
    assert!(data.occupancy.buckets.len() <= 65);
    assert!(data.latency.buckets.len() <= 65);
    let series = &data.series;
    assert_eq!(series.capacity, 64);
    assert_eq!(series.samples.len(), 64, "ring must be full and capped");
    assert_eq!(
        series.offered,
        series.samples.len() as u64 + series.evicted,
        "every offered sample is retained or counted evicted"
    );
}
