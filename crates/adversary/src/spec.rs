//! Declarative source specs: serializable descriptions of every workload
//! generator in this crate, buildable against an [`AnyTopology`].
//!
//! A [`SourceSpec`] names a workload as *data* — a paced stream, a
//! round-robin schedule, a seeded [`RandomAdversary`] stream, or a
//! leaky-bucket [`ShapingSource`] wrapped around any other spec.
//! [`SourceSpec::build`] validates the parameters against the topology
//! (returning a [`SourceSpecError`] instead of panicking like the raw
//! generators) and produces a boxed [`InjectionSource`] that emits the
//! exact same injection schedule as the hand-wired generator — the
//! scenario differential suite pins this byte-for-byte.

use std::fmt;

use aqt_model::{
    analyze, AnyTopology, FnSource, Injection, InjectionSource, NodeId, Pattern, PatternError,
    PatternSource, Rate, Round, Topology,
};
use serde::{Deserialize, Serialize};

use crate::patterns;
use crate::random::{burst_draws, Cadence, DestSpec, RandomAdversary};
use crate::shaper::ShapingSource;
use crate::{grid, patterns::staircase_source};

/// A serializable description of an injection workload.
///
/// # Examples
///
/// ```
/// use aqt_adversary::SourceSpec;
/// use aqt_model::{InjectionSource, Rate, TopologySpec};
///
/// let topo = TopologySpec::Path { n: 8 }.build()?;
/// let spec = SourceSpec::PacedStream {
///     source: 0,
///     dest: 7,
///     rate: Rate::ONE,
///     rounds: 10,
/// };
/// let mut built = spec.build(&topo)?;
/// assert_eq!(built.horizon(), Some(10));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SourceSpec {
    /// An explicit injection list (the fully-materialized escape hatch).
    Pattern {
        /// The injections, any order (sorted into rounds on build).
        injections: Vec<Injection>,
    },
    /// `size` packets `source → dest` in one round.
    Burst {
        /// Injection round.
        round: u64,
        /// Source node.
        source: usize,
        /// Destination node.
        dest: usize,
        /// Packets in the burst.
        size: usize,
    },
    /// `count` bursts of `size` packets every `period` rounds.
    BurstTrain {
        /// Source node.
        source: usize,
        /// Destination node.
        dest: usize,
        /// Packets per burst.
        size: usize,
        /// Rounds between bursts (≥ 1).
        period: u64,
        /// Number of bursts.
        count: usize,
    },
    /// A maximally-smooth rate-ρ stream on one route.
    PacedStream {
        /// Source node.
        source: usize,
        /// Destination node.
        dest: usize,
        /// Injection rate ρ.
        rate: Rate,
        /// Active rounds.
        rounds: u64,
    },
    /// `per_round` packets `source → dest` every round — the canonical
    /// overload wish stream for shaping experiments.
    Repeat {
        /// Source node.
        source: usize,
        /// Destination node.
        dest: usize,
        /// Packets per round (≥ 1).
        per_round: usize,
        /// Active rounds.
        rounds: u64,
    },
    /// Round-robin traffic from node 0 over `dests`, paced at total ρ.
    RoundRobin {
        /// Destination nodes (non-empty, all routable from node 0).
        dests: Vec<usize>,
        /// Total injection rate ρ.
        rate: Rate,
        /// Active rounds.
        rounds: u64,
    },
    /// The staircase stress: far destinations first, one step per `gap`.
    Staircase {
        /// Destination nodes (non-empty, all routable from node 0).
        dests: Vec<usize>,
        /// Packets per step.
        per_step: usize,
        /// Rounds between steps (0 = all in round 0).
        gap: u64,
    },
    /// The PTS "peak" pursuit stress (paths only).
    PeakChase {
        /// Injection rate ρ > 0.
        rate: Rate,
        /// Burst budget σ.
        sigma: u64,
        /// Active rounds.
        rounds: u64,
    },
    /// A seeded (ρ, σ)-bounded [`RandomAdversary`] stream (paths and
    /// trees).
    Random {
        /// Injection rate ρ.
        rate: Rate,
        /// Burst budget σ.
        sigma: u64,
        /// Active rounds.
        rounds: u64,
        /// Destination restriction; any reachable node when omitted.
        #[serde(default)]
        dests: DestSpec,
        /// Injection cadence; smooth when omitted.
        #[serde(default)]
        cadence: Cadence,
        /// RNG seed; same seed ⇒ same schedule.
        seed: u64,
        /// Candidate draws per active round (≥ 1); 8 when omitted.
        #[serde(default = "crate::random::default_attempts")]
        attempts: usize,
    },
    /// A paced stream across one row of a mesh (grids only).
    RowFlood {
        /// Row index.
        row: usize,
        /// Injection rate ρ.
        rate: Rate,
        /// Active rounds.
        rounds: u64,
    },
    /// A paced stream down one column of a mesh (grids only).
    ColumnFlood {
        /// Column index.
        col: usize,
        /// Injection rate ρ.
        rate: Rate,
        /// Active rounds.
        rounds: u64,
    },
    /// Every row flooded right and every column flooded down at rate 1
    /// (grids only).
    AllFloods {
        /// Active rounds.
        rounds: u64,
    },
    /// Anti-diagonal waves toward the far corner (grids only).
    DiagonalWave {
        /// Packets per cell per wave (≥ 1).
        per_step: usize,
        /// Rounds between waves (0 = all in round 0).
        gap: u64,
    },
    /// Leaky-bucket shaping of any inner spec down to (ρ, σ).
    Shaped {
        /// The wish stream to shape.
        inner: Box<SourceSpec>,
        /// Shaping rate ρ > 0.
        rate: Rate,
        /// Shaping burst budget σ (with `ρ + σ ≥ 1`).
        sigma: u64,
    },
}

/// Why a [`SourceSpec`] could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpecError {
    /// The workload is not defined on the given topology family.
    NotApplicable {
        /// The source kind, e.g. `"diagonal_wave"`.
        source: &'static str,
        /// The family it needs, e.g. `"grid"`.
        needs: &'static str,
        /// The family the scenario supplied.
        got: &'static str,
    },
    /// A parameter is out of range for the topology.
    InvalidParameter {
        /// The source kind.
        source: &'static str,
        /// What is wrong.
        reason: String,
    },
    /// An explicit pattern failed validation against the topology.
    Pattern(PatternError),
}

impl fmt::Display for SourceSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceSpecError::NotApplicable { source, needs, got } => {
                write!(
                    f,
                    "{source} workload requires a {needs} topology, got {got}"
                )
            }
            SourceSpecError::InvalidParameter { source, reason } => {
                write!(f, "invalid {source} spec: {reason}")
            }
            SourceSpecError::Pattern(e) => write!(f, "invalid pattern spec: {e}"),
        }
    }
}

impl std::error::Error for SourceSpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceSpecError::Pattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternError> for SourceSpecError {
    fn from(e: PatternError) -> Self {
        SourceSpecError::Pattern(e)
    }
}

/// Horizon cap (in rounds) below which [`SourceSpec::profile`] fully
/// materializes the schedule for exact static analysis. Longer schedules
/// fall back to closed-form bounds where one is known.
pub const PROFILE_DRAIN_CAP: u64 = 4096;

/// A static profile of a [`SourceSpec`]'s injection schedule, computed by
/// [`SourceSpec::profile`] without running a simulation.
///
/// `round0` is always exact (the first round of every spec'd source is
/// deterministic and cheap to probe). The remaining fields are exact when
/// the horizon is at most [`PROFILE_DRAIN_CAP`] and the schedule was
/// materialized (`exact` set), and analytic or absent otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceProfile {
    /// Active horizon in rounds, when finite and known.
    pub horizon: Option<u64>,
    /// Total packets injected over the whole schedule, when known.
    pub injections: Option<u64>,
    /// Exact per-node injection counts at round 0, sorted by node.
    pub round0: Vec<(usize, usize)>,
    /// Distinct destination nodes (sorted), when known. For shaped
    /// sources this is the inner wish stream's destination superset.
    pub dests: Option<Vec<usize>>,
    /// Distinct `(source, dest)` pairs (sorted), exact only when the
    /// schedule was materialized. Static checks that need to know which
    /// routes the schedule actually uses (e.g. the fault-severed-route
    /// scenario check) read this.
    pub pairs: Option<Vec<(usize, usize)>>,
    /// A (ρ, σ) bound the schedule satisfies, when known.
    pub bound: Option<(Rate, u64)>,
    /// Whether `injections`, `dests` and `bound` come from the exact
    /// materialized schedule, `bound`'s σ being the σ* measured on it at
    /// the declared ρ. When not, `bound` is the spec's declaration.
    pub exact: bool,
    /// The spec declares more than one packet per round (ρ > 1): every
    /// finite buffer overflows if the schedule runs long enough. Read
    /// from the declaration whether or not the schedule was materialized.
    pub sustained_overload: bool,
}

/// Runs `src` to exhaustion (or its horizon) and collects the schedule.
fn materialize(src: &mut dyn InjectionSource) -> Pattern {
    let mut out = Vec::new();
    let mut t = 0u64;
    while !src.is_exhausted() {
        if src.horizon().is_some_and(|h| t >= h) {
            break;
        }
        src.next_round(Round::new(t), &mut out);
        t += 1;
    }
    Pattern::from_injections(out)
}

/// Exact per-node injection counts at round 0, sorted by node.
fn round0_counts(injections: &[Injection]) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for inj in injections {
        if inj.round.value() == 0 {
            *counts.entry(inj.source.index()).or_insert(0) += 1;
        }
    }
    counts.into_iter().collect()
}

/// Distinct `(source, dest)` pairs used by the schedule, sorted.
fn distinct_pairs(injections: &[Injection]) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = injections
        .iter()
        .map(|inj| (inj.source.index(), inj.dest.index()))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn distinct_dests(injections: &[Injection]) -> Vec<usize> {
    let mut dests: Vec<usize> = injections.iter().map(|inj| inj.dest.index()).collect();
    dests.sort_unstable();
    dests.dedup();
    dests
}

fn invalid(source: &'static str, reason: impl Into<String>) -> SourceSpecError {
    SourceSpecError::InvalidParameter {
        source,
        reason: reason.into(),
    }
}

/// A schedule whose `arithmetic` (a formula with its values) overflows
/// 64 bits.
fn overflow(source: &'static str, arithmetic: String) -> SourceSpecError {
    invalid(source, format!("{arithmetic} overflows 64 bits"))
}

/// Checks a count of packets injected at one site in one round (or of a
/// round's random draws, each of which may inject there): a buffer span
/// counts its packets in 32 bits, so a larger count is not representable
/// (and would abort the allocation that materializes it).
fn check_count<T>(kind: &'static str, field: &str, count: T) -> Result<(), SourceSpecError>
where
    T: Copy + fmt::Display,
    u32: TryFrom<T>,
{
    if u32::try_from(count).is_err() {
        return Err(invalid(
            kind,
            format!(
                "{field} = {count} exceeds the {} packets a buffer can count",
                u32::MAX
            ),
        ));
    }
    Ok(())
}

/// Checks that `source → dest` is a real route of `topo`.
fn check_route(
    topo: &AnyTopology,
    kind: &'static str,
    source: usize,
    dest: usize,
) -> Result<(), SourceSpecError> {
    let n = topo.node_count();
    if source >= n || dest >= n {
        return Err(invalid(
            kind,
            format!("node out of range: {source} -> {dest} on {n} nodes"),
        ));
    }
    if source == dest {
        return Err(invalid(kind, "route must be non-empty (source == dest)"));
    }
    if !topo.reaches(NodeId::new(source), NodeId::new(dest)) {
        return Err(invalid(kind, format!("no route {source} -> {dest}")));
    }
    Ok(())
}

fn grid_dims(topo: &AnyTopology, kind: &'static str) -> Result<(usize, usize), SourceSpecError> {
    topo.as_dag()
        .and_then(|d| d.grid_dims())
        .ok_or(SourceSpecError::NotApplicable {
            source: kind,
            needs: "grid",
            got: topo.family(),
        })
}

impl SourceSpec {
    /// Short kind label (matches the serialized `kind` tag).
    pub fn kind(&self) -> &'static str {
        match self {
            SourceSpec::Pattern { .. } => "pattern",
            SourceSpec::Burst { .. } => "burst",
            SourceSpec::BurstTrain { .. } => "burst_train",
            SourceSpec::PacedStream { .. } => "paced_stream",
            SourceSpec::Repeat { .. } => "repeat",
            SourceSpec::RoundRobin { .. } => "round_robin",
            SourceSpec::Staircase { .. } => "staircase",
            SourceSpec::PeakChase { .. } => "peak_chase",
            SourceSpec::Random { .. } => "random",
            SourceSpec::RowFlood { .. } => "row_flood",
            SourceSpec::ColumnFlood { .. } => "column_flood",
            SourceSpec::AllFloods { .. } => "all_floods",
            SourceSpec::DiagonalWave { .. } => "diagonal_wave",
            SourceSpec::Shaped { .. } => "shaped",
        }
    }

    /// Builds the described workload against `topo`, validating every
    /// parameter (the raw generators panic on the same inputs; specs come
    /// from files, so they error instead). The built source emits exactly
    /// the schedule the hand-wired generator would.
    ///
    /// # Errors
    ///
    /// [`SourceSpecError::NotApplicable`] when the workload needs a
    /// different topology family, [`SourceSpecError::InvalidParameter`] /
    /// [`SourceSpecError::Pattern`] for bad parameters.
    pub fn build(&self, topo: &AnyTopology) -> Result<Box<dyn InjectionSource>, SourceSpecError> {
        match self {
            SourceSpec::Pattern { injections } => {
                let pattern = Pattern::from_injections(injections.clone());
                pattern.validate(topo)?;
                Ok(Box::new(PatternSource::from(pattern)))
            }
            SourceSpec::Burst {
                round,
                source,
                dest,
                size,
            } => {
                check_route(topo, "burst", *source, *dest)?;
                check_count("burst", "size", *size)?;
                let pattern =
                    Pattern::from_injections(vec![Injection::new(*round, *source, *dest); *size]);
                Ok(Box::new(PatternSource::from(pattern)))
            }
            SourceSpec::BurstTrain {
                source,
                dest,
                size,
                period,
                count,
            } => {
                check_route(topo, "burst_train", *source, *dest)?;
                check_count("burst_train", "size", *size)?;
                if *period == 0 {
                    return Err(invalid("burst_train", "period must be at least 1"));
                }
                if patterns::burst_train_horizon(*period, *count).is_none() {
                    return Err(overflow(
                        "burst_train",
                        format!("(count - 1) * period + 1 = ({count} - 1) * {period} + 1"),
                    ));
                }
                Ok(Box::new(patterns::burst_train_source(
                    *source, *dest, *size, *period, *count,
                )))
            }
            SourceSpec::PacedStream {
                source,
                dest,
                rate,
                rounds,
            } => {
                check_route(topo, "paced_stream", *source, *dest)?;
                Ok(Box::new(patterns::paced_stream_source(
                    *source, *dest, *rate, *rounds,
                )))
            }
            SourceSpec::Repeat {
                source,
                dest,
                per_round,
                rounds,
            } => {
                check_route(topo, "repeat", *source, *dest)?;
                if *per_round == 0 {
                    return Err(invalid("repeat", "per_round must be at least 1"));
                }
                check_count("repeat", "per_round", *per_round)?;
                let (source, dest, per_round) = (*source, *dest, *per_round);
                Ok(Box::new(FnSource::new(*rounds, move |t, out| {
                    out.extend(std::iter::repeat_n(
                        Injection::new(t, source, dest),
                        per_round,
                    ));
                })))
            }
            SourceSpec::RoundRobin {
                dests,
                rate,
                rounds,
            } => {
                if dests.is_empty() {
                    return Err(invalid("round_robin", "need at least one destination"));
                }
                for &w in dests {
                    check_route(topo, "round_robin", 0, w)?;
                }
                Ok(Box::new(patterns::round_robin_source(
                    dests, *rate, *rounds,
                )))
            }
            SourceSpec::Staircase {
                dests,
                per_step,
                gap,
            } => {
                if dests.is_empty() {
                    return Err(invalid("staircase", "need at least one destination"));
                }
                for &w in dests {
                    check_route(topo, "staircase", 0, w)?;
                }
                check_count("staircase", "per_step", *per_step)?;
                if patterns::staircase_horizon(dests.len(), *gap).is_none() {
                    return Err(overflow(
                        "staircase",
                        format!(
                            "(|dests| - 1) * gap + 1 = ({} - 1) * {gap} + 1",
                            dests.len()
                        ),
                    ));
                }
                Ok(Box::new(staircase_source(dests, *per_step, *gap)))
            }
            SourceSpec::PeakChase {
                rate,
                sigma,
                rounds,
            } => {
                let path = topo.as_path().ok_or(SourceSpecError::NotApplicable {
                    source: "peak_chase",
                    needs: "path",
                    got: topo.family(),
                })?;
                if path.node_count() < 3 {
                    return Err(invalid("peak_chase", "need at least 3 nodes"));
                }
                if rate.num() == 0 {
                    return Err(invalid("peak_chase", "rate must be positive"));
                }
                check_count("peak_chase", "sigma", *sigma)?;
                Ok(Box::new(patterns::peak_chase_source(
                    path.node_count(),
                    *rate,
                    *sigma,
                    *rounds,
                )))
            }
            SourceSpec::Random {
                rate,
                sigma,
                rounds,
                dests,
                cadence,
                seed,
                attempts,
            } => {
                if *attempts == 0 {
                    return Err(invalid("random", "need at least one attempt per round"));
                }
                match cadence {
                    Cadence::Smooth => check_count("random", "attempts", *attempts)?,
                    Cadence::Bursty { period } => match burst_draws(*attempts, *period) {
                        Some(draws) => check_count("random", "attempts * period", draws)?,
                        None => {
                            return Err(overflow(
                                "random",
                                format!("attempts * period = {attempts} * {period}"),
                            ))
                        }
                    },
                }
                let n = topo.node_count();
                if n < 2 {
                    return Err(invalid("random", "need at least two nodes to route"));
                }
                let adversary = RandomAdversary::new(*rate, *sigma, *rounds)
                    .destinations(dests.clone())
                    .cadence(*cadence)
                    .seed(*seed)
                    .attempts_per_round(*attempts);
                match topo {
                    AnyTopology::Path(p) => {
                        validate_path_dests(dests, n)?;
                        Ok(Box::new(adversary.stream_path(p)))
                    }
                    AnyTopology::Tree(t) => {
                        validate_tree_dests(dests, t)?;
                        Ok(Box::new(adversary.stream_tree(t)))
                    }
                    AnyTopology::Dag(_) => Err(SourceSpecError::NotApplicable {
                        source: "random",
                        needs: "path or tree",
                        got: topo.family(),
                    }),
                }
            }
            SourceSpec::RowFlood { row, rate, rounds } => {
                let (rows, cols) = grid_dims(topo, "row_flood")?;
                if *row >= rows {
                    return Err(invalid("row_flood", format!("row {row} out of {rows}")));
                }
                if cols < 2 {
                    return Err(invalid("row_flood", "need at least two columns"));
                }
                Ok(Box::new(grid::row_flood_source(
                    rows, cols, *row, *rate, *rounds,
                )))
            }
            SourceSpec::ColumnFlood { col, rate, rounds } => {
                let (rows, cols) = grid_dims(topo, "column_flood")?;
                if *col >= cols {
                    return Err(invalid("column_flood", format!("col {col} out of {cols}")));
                }
                if rows < 2 {
                    return Err(invalid("column_flood", "need at least two rows"));
                }
                Ok(Box::new(grid::column_flood_source(
                    rows, cols, *col, *rate, *rounds,
                )))
            }
            SourceSpec::AllFloods { rounds } => {
                let (rows, cols) = grid_dims(topo, "all_floods")?;
                if rows < 2 || cols < 2 {
                    return Err(invalid("all_floods", "need a 2x2 or larger mesh"));
                }
                Ok(Box::new(grid::all_floods_source(rows, cols, *rounds)))
            }
            SourceSpec::DiagonalWave { per_step, gap } => {
                let (rows, cols) = grid_dims(topo, "diagonal_wave")?;
                if rows * cols < 2 {
                    return Err(invalid("diagonal_wave", "need at least two cells"));
                }
                if *per_step == 0 {
                    return Err(invalid("diagonal_wave", "waves must carry packets"));
                }
                check_count("diagonal_wave", "per_step", *per_step)?;
                if grid::diagonal_wave_horizon(rows, cols, *gap).is_none() {
                    return Err(overflow(
                        "diagonal_wave",
                        format!("(rows + cols - 2) * gap + 1 = ({rows} + {cols} - 2) * {gap} + 1"),
                    ));
                }
                Ok(Box::new(grid::diagonal_wave_source(
                    rows, cols, *per_step, *gap,
                )))
            }
            SourceSpec::Shaped { inner, rate, sigma } => {
                if rate.num() == 0 {
                    return Err(invalid("shaped", "rate must be positive"));
                }
                if u128::from(rate.num()) + u128::from(*sigma) * u128::from(rate.den())
                    < u128::from(rate.den())
                {
                    return Err(invalid(
                        "shaped",
                        format!("need rho + sigma >= 1, got rho = {rate}, sigma = {sigma}"),
                    ));
                }
                let wishes = inner.build(topo)?;
                Ok(Box::new(ShapingSource::new(
                    topo.clone(),
                    wishes,
                    *rate,
                    *sigma,
                )))
            }
        }
    }

    /// A (ρ, σ) bound this spec satisfies by construction or closed
    /// form, without materializing the schedule.
    ///
    /// Shaped and random sources declare their bound directly; peak
    /// chase keeps (ρ, σ + 1) (see [`patterns::peak_chase`]); paced
    /// streams and floods are (ρ, 1)-bounded by the pacing invariant;
    /// `repeat` is exactly (per_round, 0)-bounded.
    fn declared_bound(&self) -> Option<(Rate, u64)> {
        match self {
            SourceSpec::Shaped { rate, sigma, .. } | SourceSpec::Random { rate, sigma, .. } => {
                Some((*rate, *sigma))
            }
            SourceSpec::PeakChase { rate, sigma, .. } => Some((*rate, sigma + 1)),
            SourceSpec::PacedStream { rate, .. }
            | SourceSpec::RoundRobin { rate, .. }
            | SourceSpec::RowFlood { rate, .. }
            | SourceSpec::ColumnFlood { rate, .. } => Some((*rate, 1)),
            SourceSpec::Repeat { per_round, .. } => u32::try_from(*per_round)
                .ok()
                .and_then(|p| Rate::new(p, 1).ok())
                .map(|r| (r, 0)),
            _ => None,
        }
    }

    /// Destination set known directly from the spec, without
    /// materializing. For shaped sources, the inner spec's set is a
    /// superset of what survives shaping.
    fn declared_dests(&self) -> Option<Vec<usize>> {
        let mut dests = match self {
            SourceSpec::Burst { dest, .. }
            | SourceSpec::BurstTrain { dest, .. }
            | SourceSpec::PacedStream { dest, .. }
            | SourceSpec::Repeat { dest, .. } => vec![*dest],
            SourceSpec::RoundRobin { dests, .. } | SourceSpec::Staircase { dests, .. } => {
                dests.clone()
            }
            SourceSpec::Pattern { injections } => distinct_dests(injections),
            SourceSpec::Shaped { inner, .. } => inner.declared_dests()?,
            _ => return None,
        };
        dests.sort_unstable();
        dests.dedup();
        Some(dests)
    }

    /// Statically profiles the schedule this spec would emit on `topo`:
    /// horizon, exact round-0 injection counts, destination set, total
    /// volume, and a (ρ, σ) bound — all without running a simulation.
    ///
    /// Schedules with a horizon of at most [`PROFILE_DRAIN_CAP`] rounds
    /// are materialized for exact answers: the bound is (ρ, σ*), where ρ
    /// is the declared rate (1 when the spec declares none) and σ* the
    /// tight σ that [`aqt_model::analyze`] measures at that ρ. Longer
    /// schedules keep the declared closed-form bound and an exact round-0
    /// probe only.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`SourceSpec::build`] — a spec that does
    /// not build has no profile.
    pub fn profile(&self, topo: &AnyTopology) -> Result<SourceProfile, SourceSpecError> {
        let mut built = self.build(topo)?;
        let horizon = built.horizon();
        let declared = self.declared_bound();
        // A declared rate above 1 packet per round outgrows every finite
        // buffer, on either side of the materialization cap.
        let sustained_overload = declared.is_some_and(|(rate, _)| rate.num() > rate.den());

        if horizon.is_some_and(|h| h <= PROFILE_DRAIN_CAP) {
            let pattern = materialize(built.as_mut());
            let rate = declared.map_or(Rate::ONE, |(rate, _)| rate);
            let sigma = analyze(topo, &pattern, rate).tight_sigma;
            return Ok(SourceProfile {
                horizon,
                injections: Some(pattern.len() as u64),
                round0: round0_counts(pattern.injections()),
                dests: Some(distinct_dests(pattern.injections())),
                pairs: Some(distinct_pairs(pattern.injections())),
                bound: Some((rate, sigma)),
                exact: true,
                sustained_overload,
            });
        }

        // Too long to materialize: probe round 0 exactly (every spec'd
        // source is deterministic), keep analytic facts for the rest.
        let mut round0_injections = Vec::new();
        if !built.is_exhausted() && horizon != Some(0) {
            built.next_round(Round::ZERO, &mut round0_injections);
        }
        let injections = match self {
            SourceSpec::Pattern { injections } => Some(injections.len() as u64),
            SourceSpec::Repeat {
                per_round, rounds, ..
            } => u64::try_from(*per_round)
                .ok()
                .and_then(|p| p.checked_mul(*rounds)),
            SourceSpec::PacedStream { rate, rounds, .. }
            | SourceSpec::RoundRobin { rate, rounds, .. } => Some(
                (u128::from(*rounds) * u128::from(rate.num()) / u128::from(rate.den()))
                    .try_into()
                    .unwrap_or(u64::MAX),
            ),
            _ => None,
        };
        Ok(SourceProfile {
            horizon,
            injections,
            round0: round0_counts(&round0_injections),
            dests: self.declared_dests(),
            pairs: None,
            bound: declared,
            exact: false,
            sustained_overload,
        })
    }
}

fn validate_path_dests(dests: &DestSpec, n: usize) -> Result<(), SourceSpecError> {
    match dests {
        DestSpec::AnyReachable => Ok(()),
        DestSpec::Fixed { dests: ws } => {
            if ws.iter().all(|w| w.index() > 0 && w.index() < n) {
                Ok(())
            } else {
                Err(invalid("random", "fixed destinations must lie in 1..n"))
            }
        }
        DestSpec::Spread { count } => {
            if *count >= 1 && *count < n {
                Ok(())
            } else {
                Err(invalid(
                    "random",
                    format!("cannot spread {count} destinations over {n} nodes"),
                ))
            }
        }
    }
}

fn validate_tree_dests(
    dests: &DestSpec,
    tree: &aqt_model::DirectedTree,
) -> Result<(), SourceSpecError> {
    match dests {
        DestSpec::AnyReachable | DestSpec::Fixed { .. } => Ok(()),
        DestSpec::Spread { count } => {
            let internal = (0..tree.node_count())
                .filter(|&v| !tree.is_leaf(NodeId::new(v)))
                .count();
            if *count <= internal {
                Ok(())
            } else {
                Err(invalid(
                    "random",
                    format!("tree has only {internal} internal nodes, need {count}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::TopologySpec;

    fn drain(mut src: Box<dyn InjectionSource>) -> Pattern {
        materialize(src.as_mut())
    }

    fn roundtrip(spec: &SourceSpec) -> SourceSpec {
        serde_json::from_str(&serde_json::to_string(spec).unwrap()).expect("roundtrip")
    }

    #[test]
    fn specs_match_their_hand_wired_generators() {
        let path = TopologySpec::Path { n: 8 }.build().unwrap();
        let half = Rate::new(1, 2).unwrap();

        let spec = SourceSpec::PacedStream {
            source: 0,
            dest: 7,
            rate: half,
            rounds: 20,
        };
        assert_eq!(
            drain(spec.build(&path).unwrap()),
            patterns::paced_stream(0, 7, half, 20)
        );
        assert_eq!(roundtrip(&spec), spec);

        let spec = SourceSpec::RoundRobin {
            dests: vec![2, 4, 6],
            rate: Rate::ONE,
            rounds: 9,
        };
        assert_eq!(
            drain(spec.build(&path).unwrap()),
            patterns::round_robin(&[2, 4, 6], Rate::ONE, 9)
        );
        assert_eq!(roundtrip(&spec), spec);

        let spec = SourceSpec::Staircase {
            dests: vec![2, 4, 6],
            per_step: 2,
            gap: 3,
        };
        assert_eq!(
            drain(spec.build(&path).unwrap()),
            patterns::staircase(&[2, 4, 6], 2, 3)
        );

        let spec = SourceSpec::BurstTrain {
            source: 0,
            dest: 3,
            size: 4,
            period: 5,
            count: 3,
        };
        assert_eq!(
            drain(spec.build(&path).unwrap()),
            patterns::burst_train(0, 3, 4, 5, 3)
        );

        let spec = SourceSpec::PeakChase {
            rate: half,
            sigma: 3,
            rounds: 40,
        };
        assert_eq!(
            drain(spec.build(&path).unwrap()),
            patterns::peak_chase(8, half, 3, 40)
        );
        assert_eq!(roundtrip(&spec), spec);
    }

    #[test]
    fn random_spec_matches_the_seeded_stream() {
        let path = TopologySpec::Path { n: 16 }.build().unwrap();
        let rate = Rate::new(2, 3).unwrap();
        let spec = SourceSpec::Random {
            rate,
            sigma: 2,
            rounds: 70,
            dests: DestSpec::Spread { count: 3 },
            cadence: Cadence::Bursty { period: 7 },
            seed: 5,
            attempts: 8,
        };
        let expected = RandomAdversary::new(rate, 2, 70)
            .destinations(DestSpec::Spread { count: 3 })
            .cadence(Cadence::Bursty { period: 7 })
            .seed(5)
            .build_path(&aqt_model::Path::new(16));
        assert_eq!(drain(spec.build(&path).unwrap()), expected);
        assert_eq!(roundtrip(&spec), spec);

        let tree_topo = TopologySpec::Tree(aqt_model::TreeSpec::Random { n: 20, seed: 4 })
            .build()
            .unwrap();
        let tree = tree_topo.as_tree().unwrap().clone();
        let tspec = SourceSpec::Random {
            rate: Rate::new(1, 2).unwrap(),
            sigma: 1,
            rounds: 50,
            dests: DestSpec::AnyReachable,
            cadence: Cadence::Smooth,
            seed: 8,
            attempts: 8,
        };
        let texpected = RandomAdversary::new(Rate::new(1, 2).unwrap(), 1, 50)
            .seed(8)
            .build_tree(&tree);
        assert_eq!(drain(tspec.build(&tree_topo).unwrap()), texpected);
    }

    #[test]
    fn grid_specs_match_their_generators() {
        let mesh = TopologySpec::Grid { rows: 3, cols: 4 }.build().unwrap();
        assert_eq!(
            drain(
                SourceSpec::DiagonalWave {
                    per_step: 2,
                    gap: 3
                }
                .build(&mesh)
                .unwrap()
            ),
            grid::diagonal_wave(3, 4, 2, 3)
        );
        assert_eq!(
            drain(SourceSpec::AllFloods { rounds: 5 }.build(&mesh).unwrap()),
            grid::all_floods(3, 4, 5)
        );
        assert_eq!(
            drain(
                SourceSpec::RowFlood {
                    row: 1,
                    rate: Rate::ONE,
                    rounds: 8
                }
                .build(&mesh)
                .unwrap()
            ),
            grid::row_flood(3, 4, 1, Rate::ONE, 8)
        );
    }

    #[test]
    fn shaped_spec_matches_the_shaper() {
        let mesh_topo = TopologySpec::Grid { rows: 3, cols: 3 }.build().unwrap();
        let mesh = mesh_topo.as_dag().unwrap().clone();
        let spec = SourceSpec::Shaped {
            inner: Box::new(SourceSpec::AllFloods { rounds: 10 }),
            rate: Rate::ONE,
            sigma: 2,
        };
        let expected = grid::shaped_cross_traffic(&mesh, Rate::ONE, 2, 10).into_pattern();
        assert_eq!(drain(spec.build(&mesh_topo).unwrap()), expected);
        assert_eq!(roundtrip(&spec), spec);
    }

    #[test]
    fn applicability_and_parameter_errors() {
        let path = TopologySpec::Path { n: 4 }.build().unwrap();
        let mesh = TopologySpec::Grid { rows: 2, cols: 2 }.build().unwrap();
        // Grid workloads need grids.
        assert!(matches!(
            SourceSpec::AllFloods { rounds: 3 }.build(&path),
            Err(SourceSpecError::NotApplicable { .. })
        ));
        // Random streams need paths or trees.
        assert!(matches!(
            SourceSpec::Random {
                rate: Rate::ONE,
                sigma: 1,
                rounds: 5,
                dests: DestSpec::AnyReachable,
                cadence: Cadence::Smooth,
                seed: 0,
                attempts: 8,
            }
            .build(&mesh),
            Err(SourceSpecError::NotApplicable { .. })
        ));
        // Routes are validated.
        assert!(SourceSpec::Burst {
            round: 0,
            source: 3,
            dest: 0,
            size: 2
        }
        .build(&path)
        .is_err());
        assert!(SourceSpec::Repeat {
            source: 0,
            dest: 3,
            per_round: 0,
            rounds: 5
        }
        .build(&path)
        .is_err());
        // Shaping parameters that admit nothing are rejected upfront.
        assert!(SourceSpec::Shaped {
            inner: Box::new(SourceSpec::Burst {
                round: 0,
                source: 0,
                dest: 3,
                size: 2
            }),
            rate: Rate::new(1, 2).unwrap(),
            sigma: 0,
        }
        .build(&path)
        .is_err());
        // Invalid explicit patterns are caught at build time.
        assert!(matches!(
            SourceSpec::Pattern {
                injections: vec![Injection::new(0, 0, 9)]
            }
            .build(&path),
            Err(SourceSpecError::Pattern(_))
        ));
    }

    #[test]
    fn per_site_counts_beyond_32_bits_are_named_errors() {
        let random = |cadence, attempts| SourceSpec::Random {
            rate: Rate::ONE,
            sigma: 2,
            rounds: 60,
            dests: DestSpec::AnyReachable,
            cadence,
            seed: 3,
            attempts,
        };
        let path = TopologySpec::Path { n: 8 }.build().unwrap();
        let mesh = TopologySpec::Grid { rows: 3, cols: 3 }.build().unwrap();
        let (huge, big) = (usize::MAX, 1usize << 32);
        let fits = u32::MAX as usize;
        for (spec, topo, field) in [
            (
                SourceSpec::Burst {
                    round: 0,
                    source: 0,
                    dest: 7,
                    size: huge,
                },
                &path,
                "size",
            ),
            (
                SourceSpec::BurstTrain {
                    source: 0,
                    dest: 7,
                    size: big,
                    period: 2,
                    count: 3,
                },
                &path,
                "size",
            ),
            (
                SourceSpec::Repeat {
                    source: 0,
                    dest: 7,
                    per_round: huge,
                    rounds: 4,
                },
                &path,
                "per_round",
            ),
            (
                SourceSpec::Staircase {
                    dests: vec![3, 7],
                    per_step: big,
                    gap: 1,
                },
                &path,
                "per_step",
            ),
            (
                SourceSpec::DiagonalWave {
                    per_step: huge,
                    gap: 1,
                },
                &mesh,
                "per_step",
            ),
            (
                SourceSpec::PeakChase {
                    rate: Rate::ONE,
                    sigma: u64::MAX,
                    rounds: 4,
                },
                &path,
                "sigma",
            ),
            // A round's draws: each may inject at the same site.
            (random(Cadence::Smooth, big), &path, "attempts"),
            (
                random(Cadence::Bursty { period: 1 << 32 }, 1),
                &path,
                "attempts * period",
            ),
        ] {
            let err = spec.build(topo).map(|_| ()).expect_err(spec.kind());
            assert!(
                matches!(&err, SourceSpecError::InvalidParameter { source, .. } if *source == spec.kind()),
                "{err}"
            );
            assert!(err.to_string().contains(&format!("{field} = ")), "{err}");
        }
        // The largest representable count still builds (lazily: a
        // repeat source materializes nothing until it is stepped).
        assert!(SourceSpec::Repeat {
            source: 0,
            dest: 7,
            per_round: fits,
            rounds: 4,
        }
        .build(&path)
        .is_ok());
    }

    #[test]
    fn pattern_spec_roundtrips_with_injections() {
        let spec = SourceSpec::Pattern {
            injections: vec![Injection::new(0, 0, 3), Injection::new(2, 1, 3)],
        };
        assert_eq!(roundtrip(&spec), spec);
        let path = TopologySpec::Path { n: 4 }.build().unwrap();
        let built = drain(spec.build(&path).unwrap());
        assert_eq!(built.len(), 2);
    }

    #[test]
    fn profiles_are_exact_for_short_schedules() {
        let path = TopologySpec::Path { n: 8 }.build().unwrap();
        let spec = SourceSpec::Burst {
            round: 0,
            source: 0,
            dest: 7,
            size: 5,
        };
        let p = spec.profile(&path).unwrap();
        assert!(p.exact);
        assert_eq!(p.injections, Some(5));
        assert_eq!(p.round0, vec![(0, 5)]);
        assert_eq!(p.dests, Some(vec![7]));
        // 5 packets in one round at ρ = 1 measure tight σ = 4.
        assert_eq!(p.bound, Some((Rate::ONE, 4)));
        assert!(!p.sustained_overload);

        // A materialized schedule is measured at its declared ρ, not
        // trusted: peak-chase declares (1/2, 5) and keeps (1/2, 4).
        let half = Rate::new(1, 2).unwrap();
        let spec = SourceSpec::PeakChase {
            rate: half,
            sigma: 4,
            rounds: 40,
        };
        assert_eq!(spec.declared_bound(), Some((half, 5)));
        let p = spec.profile(&path).unwrap();
        assert!(p.exact);
        assert_eq!(p.bound, Some((half, 4)));
    }

    /// The spec with declared bound `kind` (0..8) on an `n`-node path
    /// (an `n`-column grid for the floods), at rate `num/den`.
    fn declaring_spec(
        kind: usize,
        n: usize,
        (num, den): (u32, u32),
        sigma: u64,
        rounds: u64,
        seed: u64,
    ) -> (SourceSpec, AnyTopology) {
        let rate = Rate::new(num, den).unwrap();
        let path = TopologySpec::Path { n }.build().unwrap();
        let spec = match kind {
            0 => SourceSpec::PacedStream {
                source: seed as usize % (n - 1),
                dest: n - 1,
                rate,
                rounds,
            },
            1 => SourceSpec::RoundRobin {
                dests: vec![n / 2, n - 1],
                rate,
                rounds,
            },
            2 => SourceSpec::Repeat {
                source: 0,
                dest: n - 1,
                per_round: num as usize,
                rounds,
            },
            3 | 4 => {
                let mesh = TopologySpec::Grid { rows: 3, cols: n }.build().unwrap();
                let spec = if kind == 3 {
                    SourceSpec::RowFlood {
                        row: 1,
                        rate,
                        rounds,
                    }
                } else {
                    SourceSpec::ColumnFlood {
                        col: n / 2,
                        rate,
                        rounds,
                    }
                };
                return (spec, mesh);
            }
            5 => SourceSpec::PeakChase {
                rate,
                sigma,
                rounds,
            },
            6 => SourceSpec::Random {
                rate,
                sigma,
                rounds,
                dests: DestSpec::Spread { count: 2 },
                cadence: if seed % 2 == 0 {
                    Cadence::Smooth
                } else {
                    Cadence::Bursty { period: 7 }
                },
                seed,
                attempts: 8,
            },
            _ => SourceSpec::Shaped {
                inner: Box::new(SourceSpec::Repeat {
                    source: 0,
                    dest: n - 1,
                    per_round: 2,
                    rounds,
                }),
                rate,
                sigma: sigma.max(1),
            },
        };
        (spec, path)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Every declared bound holds on the materialized schedule: the
        /// tight σ at the declared ρ never exceeds the declared σ.
        #[test]
        fn declared_bounds_hold_on_the_schedule(
            kind in 0usize..8,
            n in 3usize..40,
            rate in (1u32..=4, 1u32..=8),
            sigma in 0u64..9,
            rounds in 1u64..300,
            seed in 0u64..1000,
        ) {
            let (spec, topo) = declaring_spec(kind, n, rate, sigma, rounds, seed);
            let (rate, declared) = spec.declared_bound().expect("declares a bound");
            let pattern = drain(spec.build(&topo).unwrap());
            let tight = analyze(&topo, &pattern, rate).tight_sigma;
            assert!(tight <= declared, "{spec:?}: tight sigma {tight} > declared {declared}");
        }
    }

    #[test]
    fn peak_chase_keeps_its_bound_when_the_run_is_short() {
        // Half the run is shorter than the first burst's recovery, so the
        // mid burst would land on an undrained excess (tight σ 16).
        let path = TopologySpec::Path { n: 256 }.build().unwrap();
        let rate = Rate::new(1, 8).unwrap();
        let spec = SourceSpec::PeakChase {
            rate,
            sigma: 8,
            rounds: 10,
        };
        let pattern = drain(spec.build(&path).unwrap());
        assert_eq!(analyze(&path, &pattern, rate).tight_sigma, 8);
        assert_eq!(spec.declared_bound(), Some((rate, 9)));
    }

    #[test]
    fn long_horizon_profiles_fall_back_to_closed_forms() {
        let path = TopologySpec::Path { n: 8 }.build().unwrap();
        let spec = SourceSpec::Repeat {
            source: 0,
            dest: 7,
            per_round: 3,
            rounds: 1_000_000,
        };
        let p = spec.profile(&path).unwrap();
        assert!(!p.exact);
        assert!(p.sustained_overload);
        assert_eq!(p.injections, Some(3_000_000));
        assert_eq!(p.round0, vec![(0, 3)]);
        assert_eq!(p.dests, Some(vec![7]));
        assert_eq!(p.bound, Some((Rate::new(3, 1).unwrap(), 0)));

        let spec = SourceSpec::PacedStream {
            source: 0,
            dest: 7,
            rate: Rate::new(1, 2).unwrap(),
            rounds: 1_000_000,
        };
        let p = spec.profile(&path).unwrap();
        assert!(!p.exact && !p.sustained_overload);
        assert_eq!(p.injections, Some(500_000));
        assert_eq!(p.bound, Some((Rate::new(1, 2).unwrap(), 1)));

        // Profile errors are exactly build errors.
        assert!(SourceSpec::Burst {
            round: 0,
            source: 3,
            dest: 0,
            size: 2
        }
        .profile(&path)
        .is_err());
    }

    #[test]
    fn random_spec_defaults_apply_on_missing_fields() {
        let json = r#"{"kind": "random", "rate": {"num": 1, "den": 1},
                       "sigma": 2, "rounds": 10, "seed": 3}"#;
        let spec: SourceSpec = serde_json::from_str(json).unwrap();
        assert_eq!(
            spec,
            SourceSpec::Random {
                rate: Rate::ONE,
                sigma: 2,
                rounds: 10,
                dests: DestSpec::AnyReachable,
                cadence: Cadence::Smooth,
                seed: 3,
                attempts: 8,
            }
        );
    }
}
