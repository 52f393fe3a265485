//! Log2-bucket histogram sketches.
//!
//! A [`HistogramSketch`] summarizes a stream of `u64` samples in at most
//! 65 buckets: bucket 0 counts exact zeros, bucket `k ≥ 1` counts values
//! in `[2^(k-1), 2^k)`. That is the classic HdrHistogram-style
//! power-of-two compaction — relative error ≤ 2× per sample, memory
//! O(buckets) regardless of stream length, and merges are plain
//! bucket-wise addition (order-insensitive, so a sweep's runs aggregate
//! identically in any completion order).

use serde::{Deserialize, Serialize};

/// Number of distinct log2 buckets a `u64` stream can occupy
/// (bucket 0 for zeros plus one per bit position).
const MAX_BUCKETS: usize = 65;

/// A log2-bucket histogram of `u64` samples.
///
/// Buckets are stored as a dense vector trimmed to the highest occupied
/// bucket, so an all-zero stream serializes as a single-element vector.
/// Exact `count`, `sum` and `max` ride along for mean/rate derivation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSketch {
    /// `buckets[0]` counts zeros; `buckets[k]` counts samples in
    /// `[2^(k-1), 2^k)`. Trimmed: trailing empty buckets are absent.
    pub buckets: Vec<u64>,
    /// Exact number of recorded samples.
    pub count: u64,
    /// Exact sum of recorded samples (saturating).
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros(v)`
/// (so 1 → bucket 1, 2..4 → buckets 2..3, etc.).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl HistogramSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        HistogramSketch::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `value` `times` times in O(1): the same buckets, count,
    /// sum and max as `times` calls of [`record`](Self::record), since
    /// the sketch does not depend on sample order. `times == 0` leaves
    /// the sketch untouched (no bucket is grown).
    pub fn record_n(&mut self, value: u64, times: u64) {
        if times == 0 {
            return;
        }
        let idx = bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += times;
        self.count += times;
        self.sum = self.sum.saturating_add(value.saturating_mul(times));
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (exact, from `sum`/`count`), or 0.0
    /// when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), or 0 when empty. With log2 buckets this overestimates
    /// the true quantile by less than 2×.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` by bucket-wise addition. Merging is
    /// commutative and associative, so aggregation order never matters.
    pub fn merge(&mut self, other: &HistogramSketch) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Largest value a bucket can hold: 0 for bucket 0, `2^k − 1` for
/// bucket `k`.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= MAX_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_follow_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = HistogramSketch::new();
        for v in [0, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum, 12);
        assert_eq!(h.max, 8);
        assert_eq!(h.buckets, vec![1, 1, 1, 0, 1]);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        for value in [0, 1, 3, 1 << 63, u64::MAX] {
            for times in [0, 1, 7] {
                let mut batched = HistogramSketch::new();
                batched.record_n(value, times);
                let mut repeated = HistogramSketch::new();
                for _ in 0..times {
                    repeated.record(value);
                }
                assert_eq!(batched, repeated, "record_n({value}, {times})");
            }
        }
    }

    #[test]
    fn record_n_matches_the_closed_form_at_scale() {
        let times = 1u64 << 40;
        for value in [0, 1, 3, 1 << 63, u64::MAX] {
            let mut h = HistogramSketch::new();
            h.record_n(value, times);
            let idx = bucket_index(value);
            let mut buckets = vec![0; idx + 1];
            buckets[idx] = times;
            assert_eq!(h.buckets, buckets, "value {value}");
            assert_eq!(h.count, times);
            let exact = u128::from(value) * u128::from(times);
            assert_eq!(h.sum, u64::try_from(exact).unwrap_or(u64::MAX));
            assert_eq!(h.max, value);
        }
    }

    #[test]
    fn record_n_of_nothing_keeps_the_trimmed_form() {
        let mut h = HistogramSketch::new();
        h.record_n(5, 0);
        assert_eq!(h, HistogramSketch::new());
        assert!(h.buckets.is_empty());
        assert_eq!(
            serde_json::to_string(&h).unwrap(),
            serde_json::to_string(&HistogramSketch::new()).unwrap()
        );
    }

    #[test]
    fn record_n_saturates_the_sum() {
        let mut h = HistogramSketch::new();
        h.record_n(u64::MAX, 2);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.max, u64::MAX);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let mut a = HistogramSketch::new();
        a.record(1);
        a.record(100);
        let mut b = HistogramSketch::new();
        b.record(0);
        b.record(1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 4);
        assert_eq!(ab.max, 100);
        assert_eq!(ab.buckets[0], 1);
        assert_eq!(ab.buckets[1], 2);
    }

    #[test]
    fn quantile_lands_in_right_bucket() {
        let mut h = HistogramSketch::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.approx_quantile(0.5), 1);
        // p99 falls in 1000's bucket [512, 1024); upper bound capped at max.
        assert_eq!(h.approx_quantile(0.99), 1000);
        assert_eq!(h.approx_quantile(0.0), 1);
        let empty = HistogramSketch::new();
        assert_eq!(empty.approx_quantile(0.5), 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = HistogramSketch::new();
        h.record(5);
        h.record(0);
        let json = serde_json::to_string(&h).unwrap();
        let back: HistogramSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
