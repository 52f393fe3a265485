//! Bounded per-round time series.
//!
//! A [`RoundSeries`] keeps the most recent [`RoundSample`]s in a ring
//! buffer of fixed capacity, optionally thinned by a stride (keep every
//! `stride`-th round). Memory is O(capacity) regardless of horizon: a
//! million-round run with the default capacity keeps the last 1024
//! retained samples and counts the rest as evicted.

use serde::{Deserialize, Serialize};

/// Engine counters for one round, as retained by [`RoundSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundSample {
    /// 0-based round number.
    pub round: u64,
    /// Packets the adversary injected this round.
    pub injected: u64,
    /// Staged packets accepted into buffers this round (batched mode).
    pub accepted: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped by capacity enforcement this round.
    pub dropped: u64,
    /// Packets lost to faults this round (crash sweeps and injections at
    /// dead nodes).
    pub faulted: u64,
}

/// A bounded ring buffer of [`RoundSample`]s.
///
/// [`offer`](RoundSeries::offer) is O(1); once full, the oldest sample
/// is evicted and counted. [`samples`](RoundSeries::samples) returns the
/// retained window oldest-first.
#[derive(Debug, Clone)]
pub struct RoundSeries {
    ring: Vec<RoundSample>,
    capacity: usize,
    /// Index of the oldest retained sample once the ring is full.
    head: usize,
    /// Keep rounds where `round % stride == 0`.
    stride: u64,
    offered: u64,
    evicted: u64,
}

/// The serializable form of a [`RoundSeries`]: the retained window in
/// chronological order plus retention bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesData {
    /// Retained samples, oldest first.
    pub samples: Vec<RoundSample>,
    /// Ring capacity the series ran with.
    pub capacity: u64,
    /// Stride the series ran with (rounds kept where
    /// `round % stride == 0`).
    pub stride: u64,
    /// Samples that passed the stride filter (retained + evicted).
    pub offered: u64,
    /// Samples evicted after the ring filled.
    pub evicted: u64,
}

impl RoundSeries {
    /// Creates a series retaining at most `capacity` samples of rounds
    /// divisible by `stride`. Both are clamped to at least 1.
    pub fn new(capacity: usize, stride: u64) -> Self {
        RoundSeries {
            ring: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            stride: stride.max(1),
            offered: 0,
            evicted: 0,
        }
    }

    /// Offers one round's sample; rounds failing the stride filter are
    /// ignored, and the oldest retained sample is evicted when full.
    pub fn offer(&mut self, sample: RoundSample) {
        if sample.round % self.stride != 0 {
            return;
        }
        self.offered += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
            self.evicted += 1;
        }
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> Vec<RoundSample> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// Snapshots this series into its serializable form.
    pub fn to_data(&self) -> SeriesData {
        SeriesData {
            samples: self.samples(),
            capacity: self.capacity as u64,
            stride: self.stride,
            offered: self.offered,
            evicted: self.evicted,
        }
    }
}

impl SeriesData {
    /// Appends `other`'s retained window after `self`'s (input-order
    /// concatenation, the same convention as the sweep layer's
    /// deterministic merge), re-trimming to `self.capacity` newest samples.
    ///
    /// A default `SeriesData` (capacity 0 — a live series never has one,
    /// [`RoundSeries::new`] clamps) is the merge identity: merging into
    /// it adopts `other` wholesale, so fold-style aggregation can start
    /// from `SeriesData::default()` without truncating the first report.
    pub fn merge(&mut self, other: &SeriesData) {
        if self.capacity == 0 {
            *self = other.clone();
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        self.offered += other.offered;
        self.evicted += other.evicted;
        let cap = self.capacity.max(1) as usize;
        if self.samples.len() > cap {
            let excess = self.samples.len() - cap;
            self.samples.drain(..excess);
            self.evicted += excess as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> RoundSample {
        RoundSample {
            round,
            injected: round,
            ..RoundSample::default()
        }
    }

    #[test]
    fn keeps_newest_when_full() {
        let mut s = RoundSeries::new(3, 1);
        for r in 0..5 {
            s.offer(sample(r));
        }
        let rounds: Vec<u64> = s.samples().iter().map(|x| x.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
        let data = s.to_data();
        assert_eq!(data.offered, 5);
        assert_eq!(data.evicted, 2);
    }

    #[test]
    fn stride_filters_rounds() {
        let mut s = RoundSeries::new(8, 3);
        for r in 0..10 {
            s.offer(sample(r));
        }
        let rounds: Vec<u64> = s.samples().iter().map(|x| x.round).collect();
        assert_eq!(rounds, vec![0, 3, 6, 9]);
    }

    #[test]
    fn merge_concatenates_and_trims() {
        let mut a = RoundSeries::new(3, 1);
        for r in 0..2 {
            a.offer(sample(r));
        }
        let mut b = RoundSeries::new(3, 1);
        for r in 2..5 {
            b.offer(sample(r));
        }
        let mut data = a.to_data();
        data.merge(&b.to_data());
        let rounds: Vec<u64> = data.samples.iter().map(|x| x.round).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
        assert_eq!(data.offered, 5);
        assert_eq!(data.evicted, 2);
    }

    #[test]
    fn default_is_the_merge_identity() {
        let mut s = RoundSeries::new(3, 2);
        for r in 0..8 {
            s.offer(sample(r));
        }
        let mut acc = SeriesData::default();
        acc.merge(&s.to_data());
        assert_eq!(acc, s.to_data());
    }

    #[test]
    fn serde_round_trip() {
        let mut s = RoundSeries::new(4, 2);
        for r in 0..6 {
            s.offer(sample(r));
        }
        let data = s.to_data();
        let json = serde_json::to_string(&data).unwrap();
        let back: SeriesData = serde_json::from_str(&json).unwrap();
        assert_eq!(back, data);
    }
}
