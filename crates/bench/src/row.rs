//! One bound-vs-measured table row on the scenario layer.
//!
//! A theorem table's row is a [`Scenario`]: [`run_scenario`] measures it,
//! and [`Scenario::validate`] states what the paper predicts for it — the
//! schedule's σ* at its declared rate and the closed-form peak bound (a
//! schedule longer than [`PROFILE_DRAIN_CAP`] rounds is not materialized,
//! so its bound keeps the declared σ). The tables, E11b's threshold rows
//! included, read both from here, so the bounds they print are exactly
//! the ones `scenarios check` predicts.

use aqt_adversary::{Cadence, DestSpec, SourceSpec, PROFILE_DRAIN_CAP};
use aqt_analysis::{run_scenario, RunSummary, Scenario, StaticReport, Verdict};
use aqt_core::ProtocolSpec;
use aqt_model::{InjectionSource, Path, Protocol, Rate, Simulation, TopologySpec};

/// A scenario with its static report and its run.
pub(crate) struct Row {
    /// The run, as data.
    pub(crate) scenario: Scenario,
    /// What [`Scenario::validate`] predicts for it.
    report: StaticReport,
    /// What [`run_scenario`] measured.
    pub(crate) summary: RunSummary,
}

/// A seeded random adversary at rate ρ with budget σ (8 draws a round).
pub(crate) fn random(
    rate: Rate,
    sigma: u64,
    rounds: u64,
    dests: DestSpec,
    cadence: Cadence,
    seed: u64,
) -> SourceSpec {
    SourceSpec::Random {
        rate,
        sigma,
        rounds,
        dests,
        cadence,
        seed,
        attempts: 8,
    }
}

impl Row {
    /// Validates and runs the [`Scenario::new`] of `source` against
    /// `protocol` on `topology`, `extra` rounds past the source horizon.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid: every table row is.
    pub(crate) fn new(
        topology: TopologySpec,
        protocol: ProtocolSpec,
        source: SourceSpec,
        extra: u64,
    ) -> Row {
        let scenario = Scenario::new(topology, protocol, source, extra);
        let report = scenario.validate().expect("valid scenario");
        let summary = run_scenario(&scenario).expect("valid run");
        Row {
            scenario,
            report,
            summary,
        }
    }

    /// The tight σ* of the schedule at its declared rate.
    pub(crate) fn sigma(&self) -> u64 {
        sigma_star(&self.report)
    }

    /// The paper's peak-occupancy bound for the row.
    pub(crate) fn bound(&self) -> u64 {
        peak_bound(&self.report).expect("a paper bound")
    }

    /// The destination term of a `1 + d + σ` bound: d for PPTS (Prop.
    /// 3.2), d′ for TreePPTS (Prop. 3.5), as the checker counted it.
    pub(crate) fn dest_term(&self) -> u64 {
        self.bound() - self.sigma() - 1
    }

    /// The measured peak occupancy.
    pub(crate) fn measured(&self) -> usize {
        self.summary.max_occupancy
    }

    /// The measured peak against the bound.
    pub(crate) fn verdict(&self) -> Verdict {
        Verdict::upper(self.measured() as u64, self.bound())
    }
}

/// The tight σ* that `report` measured on the materialized schedule.
///
/// # Panics
///
/// Panics if the schedule is longer than [`PROFILE_DRAIN_CAP`] rounds:
/// its σ is then the spec's declaration, not σ*.
pub(crate) fn sigma_star(report: &StaticReport) -> u64 {
    assert!(
        report.horizon.is_some_and(|h| h <= PROFILE_DRAIN_CAP),
        "{}: sigma* is measured on schedules of at most {PROFILE_DRAIN_CAP} rounds",
        report.scenario
    );
    report.sigma.expect("a bounded source")
}

/// The paper's peak-occupancy bound in `report`, if it states one. Its σ
/// is σ* on a schedule of at most [`PROFILE_DRAIN_CAP`] rounds and the
/// spec's declared σ on a longer one.
pub(crate) fn peak_bound(report: &StaticReport) -> Option<u64> {
    report.prediction("peak_occupancy").map(|p| p.value)
}

/// `protocol` against `scenario`'s source on its path: a variant the
/// protocol specs cannot express, wired on [`Simulation`].
pub(crate) fn simulate_on_path<P: Protocol<Path>>(
    scenario: &Scenario,
    protocol: P,
) -> Simulation<Path, P, Box<dyn InjectionSource>> {
    let topology = scenario.topology.build().expect("valid topology");
    let path = *topology.as_path().expect("a path scenario");
    let source = scenario.source.build(&topology).expect("valid source");
    Simulation::from_source(path, protocol, source)
}
