//! Deterministic adversary patterns.
//!
//! Hand-crafted injection schedules with exactly known (ρ, σ) parameters,
//! used in unit tests and as stress inputs in the experiments: bursts,
//! paced streams at an exact rate, round-robin multi-destination traffic,
//! and a head-of-line "staircase" that makes naive protocols hoard packets.
//!
//! Every generator comes in two forms: a `*_source` streaming variant
//! returning an [`InjectionSource`] (O(1) memory regardless of horizon),
//! and the materializing function of the same stem that drains the stream
//! into a [`Pattern`] — so a streamed run and a pattern run see the exact
//! same schedule.

use aqt_model::{FnSource, Injection, InjectionSource, Pattern, Rate, Round};

/// A single burst: `size` packets injected at `round`, all `source → dest`.
///
/// At rate 1 this pattern has tight σ = `size − 1`.
pub fn burst(round: u64, source: usize, dest: usize, size: usize) -> Pattern {
    assert!(source != dest, "burst route must be non-empty");
    Pattern::from_injections(vec![Injection::new(round, source, dest); size])
}

/// The horizon of a burst train, `(count − 1)·period + 1` (0 with no
/// bursts), or `None` when it overflows the round counter.
pub(crate) fn burst_train_horizon(period: u64, count: usize) -> Option<u64> {
    (count as u64)
        .saturating_sub(1)
        .checked_mul(period)?
        .checked_add(u64::from(count > 0))
}

/// Streaming [`burst_train`]: `count` bursts of `size` packets every
/// `period` rounds, all on the same route, generated one round at a time.
///
/// # Panics
///
/// Panics if `period == 0` or `(count − 1)·period + 1` overflows `u64`.
pub fn burst_train_source(
    source: usize,
    dest: usize,
    size: usize,
    period: u64,
    count: usize,
) -> impl InjectionSource {
    assert!(period > 0, "period must be positive");
    let horizon =
        burst_train_horizon(period, count).expect("(count - 1) * period + 1 overflows u64");
    FnSource::new(horizon, move |t, out| {
        if t % period == 0 && (t / period) < count as u64 {
            out.extend(std::iter::repeat_n(Injection::new(t, source, dest), size));
        }
    })
}

/// A train of bursts: `count` bursts of `size` packets every `period`
/// rounds, all on the same route.
pub fn burst_train(source: usize, dest: usize, size: usize, period: u64, count: usize) -> Pattern {
    burst_train_source(source, dest, size, period, count).into_pattern()
}

/// Streaming [`paced_stream`]: round `t` carries `⌊ρ(t+1)⌋ − ⌊ρt⌋`
/// packets on one route, generated on demand.
pub fn paced_stream_source(
    source: usize,
    dest: usize,
    rate: Rate,
    rounds: u64,
) -> impl InjectionSource {
    assert!(source != dest, "route must be non-empty");
    FnSource::new(rounds, move |t, out| {
        let k = rate.mul_floor(t + 1) - rate.mul_floor(t);
        out.extend(std::iter::repeat_n(
            Injection::new(t, source, dest),
            k as usize,
        ));
    })
}

/// A maximally-smooth stream on one route: over `rounds` rounds, round `t`
/// carries `⌊ρ(t+1)⌋ − ⌊ρt⌋` packets, so every prefix carries at most
/// `⌈ρ·len⌉` packets and the pattern is (ρ, 1)-bounded.
pub fn paced_stream(source: usize, dest: usize, rate: Rate, rounds: u64) -> Pattern {
    paced_stream_source(source, dest, rate, rounds).into_pattern()
}

/// Streaming [`round_robin`]: the `j`-th injected packet goes to
/// `dests[j mod d]`, paced at total rate ρ, generated on demand.
pub fn round_robin_source(dests: &[usize], rate: Rate, rounds: u64) -> impl InjectionSource {
    assert!(!dests.is_empty(), "need at least one destination");
    assert!(
        dests.iter().all(|&w| w > 0),
        "destinations must be right of node 0"
    );
    let dests = dests.to_vec();
    let mut j = 0usize;
    FnSource::new(rounds, move |t, out| {
        let k = rate.mul_floor(t + 1) - rate.mul_floor(t);
        for _ in 0..k {
            out.push(Injection::new(t, 0, dests[j % dests.len()]));
            j += 1;
        }
    })
}

/// Round-robin traffic from node 0 to `dests`, paced at total rate ρ: the
/// `j`-th injected packet goes to `dests[j mod d]`.
///
/// This is the canonical multi-destination workload for PPTS (E2): all
/// packets cross the low buffers, and `d` pseudo-buffers fill in parallel.
pub fn round_robin(dests: &[usize], rate: Rate, rounds: u64) -> Pattern {
    round_robin_source(dests, rate, rounds).into_pattern()
}

/// The horizon of a staircase of `steps ≥ 1` steps, `(steps − 1)·gap + 1`,
/// or `None` when it overflows the round counter.
pub(crate) fn staircase_horizon(steps: usize, gap: u64) -> Option<u64> {
    (steps as u64 - 1).checked_mul(gap)?.checked_add(1)
}

/// Streaming [`staircase`]: far destinations first, one step every `gap`
/// rounds (all steps in round 0 when `gap` = 0).
///
/// # Panics
///
/// Panics if `dests` is empty or `(|dests| − 1)·gap + 1` overflows `u64`.
pub fn staircase_source(dests: &[usize], per_step: usize, gap: u64) -> impl InjectionSource {
    assert!(!dests.is_empty(), "need at least one destination");
    let mut sorted: Vec<usize> = dests.to_vec();
    sorted.sort_unstable();
    sorted.reverse(); // far destinations first
    let horizon =
        staircase_horizon(sorted.len(), gap).expect("(|dests| - 1) * gap + 1 overflows u64");
    FnSource::new(horizon, move |t, out| {
        let emit = |w: usize, out: &mut Vec<Injection>| {
            out.extend(std::iter::repeat_n(Injection::new(t, 0, w), per_step));
        };
        if gap == 0 {
            if t == 0 {
                sorted.iter().for_each(|&w| emit(w, out));
            }
        } else if t % gap == 0 {
            if let Some(&w) = sorted.get((t / gap) as usize) {
                emit(w, out);
            }
        }
    })
}

/// The "staircase" stress pattern: a burst toward the farthest destination,
/// then progressively nearer destinations, forcing `d` pseudo-buffers of
/// one node to be non-empty simultaneously. With `per_step` = 1 + σ it
/// exercises PPTS's `1 + d + σ` bound tightly at the injection site.
pub fn staircase(dests: &[usize], per_step: usize, gap: u64) -> Pattern {
    staircase_source(dests, per_step, gap).into_pattern()
}

/// Evenly-spaced destination set `{n−1, n−1−(n−1)/d, …}` used by the E2/E6
/// sweeps: `d` distinct destinations on an `n`-node path, rightmost
/// included.
pub fn even_destinations(n: usize, d: usize) -> Vec<usize> {
    assert!(d >= 1 && d < n, "need 1 ≤ d < n");
    let mut ws: Vec<usize> = (0..d).map(|k| n - 1 - (k * (n - 1)) / d).collect();
    ws.sort_unstable();
    ws.dedup();
    let mut w = n - 1;
    while ws.len() < d {
        if !ws.contains(&w) {
            ws.push(w);
            ws.sort_unstable();
        }
        w -= 1;
    }
    ws
}

/// Single-destination pursuit pattern on a path of `n` nodes: a paced
/// rate-ρ stream into node 0 plus σ-bursts that chase the stream head at
/// mid-line sites, reproducing the "peak" scenarios of the PTS analysis.
///
/// The stream is suppressed for `⌈σ/ρ⌉` rounds after each burst so the
/// burst's excess drains before pacing resumes, and the mid-run burst
/// waits until the first one has drained (round `max(rounds/2, 1 +
/// ⌈σ/ρ⌉)`; no second burst when that is past the horizon). The
/// resulting pattern is (ρ, σ′)-bounded with `σ′ ≤ σ + 1`: the +1 is the
/// floor-pacing slack the stream may hold when a burst lands.
///
/// # Panics
///
/// Panics if `n < 3` or ρ = 0.
pub fn peak_chase(n: usize, rate: Rate, sigma: u64, rounds: u64) -> Pattern {
    peak_chase_source(n, rate, sigma, rounds).into_pattern()
}

/// Streaming [`peak_chase`]: the paced stream plus its chasing σ-bursts,
/// generated one round at a time (the quiet-window state lives in the
/// source).
///
/// # Panics
///
/// Panics if `n < 3` or ρ = 0.
pub fn peak_chase_source(n: usize, rate: Rate, sigma: u64, rounds: u64) -> impl InjectionSource {
    assert!(n >= 3, "need at least 3 nodes");
    assert!(rate.num() > 0, "rate must be positive");
    let dest = n - 1;
    // Silent rounds needed for one σ-burst's excess to decay at rate ρ.
    let recovery = sigma
        .checked_mul(u64::from(rate.den()))
        .expect("recovery fits u64")
        .div_ceil(u64::from(rate.num()));
    let mid = (rounds / 2).max(recovery.saturating_add(1));
    let mut quiet_until = 0u64;
    FnSource::new(rounds, move |t, out| {
        // One full burst at the start and one mid-stream, at middle sites.
        let burst_site = match t {
            0 => Some((n - 1) / 2),
            _ if t == mid => Some(n.div_ceil(3)),
            _ => None,
        };
        if let Some(site) = burst_site {
            out.extend(std::iter::repeat_n(
                Injection::new(t, site, dest),
                sigma as usize,
            ));
            quiet_until = t + 1 + recovery;
            return;
        }
        if t < quiet_until {
            return;
        }
        let k = rate.mul_floor(t + 1) - rate.mul_floor(t);
        out.extend(std::iter::repeat_n(Injection::new(t, 0, dest), k as usize));
    })
}

/// The highest injection round of a pattern plus one (0 for empty), i.e.
/// the number of rounds the adversary is active.
pub fn active_rounds(pattern: &Pattern) -> u64 {
    pattern
        .last_round()
        .map(|r: Round| r.value() + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqt_model::{analyze, NodeId, Path};

    #[test]
    #[should_panic(expected = "(count - 1) * period + 1 overflows u64")]
    fn burst_train_horizon_overflow_panics_with_its_formula() {
        let _ = burst_train_source(0, 1, 1, u64::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "(|dests| - 1) * gap + 1 overflows u64")]
    fn staircase_horizon_overflow_panics_with_its_formula() {
        let _ = staircase_source(&[1, 2], 1, u64::MAX);
    }

    #[test]
    fn burst_has_expected_sigma() {
        let p = burst(0, 0, 1, 5);
        let report = analyze(&Path::new(2), &p, Rate::ONE);
        assert_eq!(report.tight_sigma, 4);
    }

    #[test]
    fn burst_train_spaces_bursts() {
        let p = burst_train(0, 2, 3, 10, 4);
        assert_eq!(p.len(), 12);
        let rounds: Vec<u64> = p.rounds().map(|(r, _)| r.value()).collect();
        assert_eq!(rounds, vec![0, 10, 20, 30]);
    }

    #[test]
    fn paced_stream_is_rho_one_bounded() {
        for (num, den) in [(1u32, 1u32), (1, 2), (2, 3), (3, 7)] {
            let rate = Rate::new(num, den).unwrap();
            let p = paced_stream(0, 1, rate, 100);
            assert_eq!(p.len() as u64, rate.mul_floor(100));
            let report = analyze(&Path::new(2), &p, rate);
            assert!(report.tight_sigma <= 1, "σ = {}", report.tight_sigma);
        }
    }

    #[test]
    fn round_robin_uses_all_destinations() {
        let p = round_robin(&[2, 4, 6], Rate::ONE, 9);
        assert_eq!(p.destinations().len(), 3);
        assert_eq!(p.len(), 9);
        // Bounded at rate 1 with small σ.
        let report = analyze(&Path::new(7), &p, Rate::ONE);
        assert!(report.tight_sigma <= 1);
    }

    #[test]
    fn staircase_hits_every_destination_once() {
        let p = staircase(&[2, 4, 6], 2, 3);
        assert_eq!(p.len(), 6);
        assert_eq!(p.destinations().len(), 3);
        // Farthest first.
        assert_eq!(p.injections()[0].dest, NodeId::new(6));
    }

    #[test]
    fn even_destinations_counts() {
        assert_eq!(even_destinations(17, 4).len(), 4);
        assert_eq!(even_destinations(17, 1), vec![16]);
        assert_eq!(even_destinations(5, 4), vec![1, 2, 3, 4]);
        assert!(even_destinations(33, 8).contains(&32));
    }

    #[test]
    fn peak_chase_validates_and_measures() {
        let topo = Path::new(9);
        let rate = Rate::new(1, 2).unwrap();
        let p = peak_chase(9, rate, 3, 40);
        p.validate(&topo).unwrap();
        let report = analyze(&topo, &p, rate);
        // The two σ-bursts plus pacing slack: σ_measured ∈ [3, 4].
        assert!(report.tight_sigma >= 3 && report.tight_sigma <= 4);
    }

    #[test]
    fn streaming_sources_match_materialized_patterns() {
        let rate = Rate::new(2, 3).unwrap();
        assert_eq!(
            paced_stream_source(0, 4, rate, 50).into_pattern(),
            paced_stream(0, 4, rate, 50)
        );
        assert_eq!(
            round_robin_source(&[2, 4, 6], rate, 30).into_pattern(),
            round_robin(&[2, 4, 6], rate, 30)
        );
        assert_eq!(
            burst_train_source(0, 3, 4, 5, 3).into_pattern(),
            burst_train(0, 3, 4, 5, 3)
        );
        assert_eq!(
            staircase_source(&[2, 4, 6], 2, 3).into_pattern(),
            staircase(&[2, 4, 6], 2, 3)
        );
        assert_eq!(
            staircase_source(&[2, 4], 1, 0).into_pattern(),
            staircase(&[2, 4], 1, 0)
        );
        assert_eq!(
            peak_chase_source(9, rate, 3, 40).into_pattern(),
            peak_chase(9, rate, 3, 40)
        );
    }

    #[test]
    fn streaming_sources_report_horizons() {
        let src = paced_stream_source(0, 1, Rate::ONE, 25);
        assert_eq!(src.horizon(), Some(25));
        assert_eq!(burst_train_source(0, 1, 2, 10, 4).horizon(), Some(31));
        assert_eq!(burst_train_source(0, 1, 2, 10, 0).horizon(), Some(0));
    }

    #[test]
    fn active_rounds_counts() {
        assert_eq!(active_rounds(&Pattern::new()), 0);
        assert_eq!(active_rounds(&burst(5, 0, 1, 2)), 6);
    }
}
