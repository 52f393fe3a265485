//! Exact rational injection rates.
//!
//! The (ρ, σ) boundedness condition of Def. 2.1 compares a packet count with
//! `ρ·|I| + σ`. Using floating point here would make the invariant checks of
//! the whole repository unsound (`0.1 * 3 ≠ 0.3`), so ρ is an exact rational
//! [`Rate`] and every comparison is carried out in integer arithmetic.

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Error returned when constructing an invalid [`Rate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateError {
    /// The denominator was zero.
    ZeroDenominator,
}

impl fmt::Display for RateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateError::ZeroDenominator => write!(f, "rate denominator must be non-zero"),
        }
    }
}

impl std::error::Error for RateError {}

/// An exact non-negative rational number `num / den`, used for the average
/// injection rate ρ.
///
/// Rates are stored in lowest terms. Values above 1 are permitted: the
/// ℓ-reduction of Lemma 2.5 produces rates `ℓ·ρ` which may exceed 1.
///
/// # Examples
///
/// ```
/// use aqt_model::Rate;
///
/// let rho = Rate::new(1, 3)?;
/// assert_eq!(rho.to_string(), "1/3");
/// assert_eq!(rho.recip_floor(), Some(3)); // k = ⌊1/ρ⌋
/// // Def. 2.1 check: is N ≤ ρ·|I| + σ for N = 4, |I| = 9, σ = 1?
/// assert!(rho.bound_holds(4, 9, 1));
/// assert!(!rho.bound_holds(5, 9, 1));
/// # Ok::<(), aqt_model::RateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "RawRate", into = "RawRate")]
pub struct Rate {
    num: u32,
    den: u32,
}

/// Serde-facing raw representation of a [`Rate`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RawRate {
    num: u32,
    den: u32,
}

impl TryFrom<RawRate> for Rate {
    type Error = RateError;

    fn try_from(raw: RawRate) -> Result<Self, Self::Error> {
        Rate::new(raw.num, raw.den)
    }
}

impl From<Rate> for RawRate {
    fn from(rate: Rate) -> Self {
        RawRate {
            num: rate.num,
            den: rate.den,
        }
    }
}

const fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rate {
    /// The rate 0.
    pub const ZERO: Rate = Rate { num: 0, den: 1 };

    /// The rate 1 (one packet per round per buffer on average).
    pub const ONE: Rate = Rate { num: 1, den: 1 };

    /// Creates the rate `num / den`, reduced to lowest terms.
    ///
    /// # Errors
    ///
    /// Returns [`RateError::ZeroDenominator`] if `den == 0`.
    pub fn new(num: u32, den: u32) -> Result<Self, RateError> {
        if den == 0 {
            return Err(RateError::ZeroDenominator);
        }
        if num == 0 {
            return Ok(Rate::ZERO);
        }
        let g = gcd(num, den);
        Ok(Rate {
            num: num / g,
            den: den / g,
        })
    }

    /// The rate `1 / k`.
    ///
    /// # Errors
    ///
    /// Returns [`RateError::ZeroDenominator`] if `k == 0`.
    pub fn one_over(k: u32) -> Result<Self, RateError> {
        Rate::new(1, k)
    }

    /// Numerator in lowest terms.
    #[inline]
    pub const fn num(self) -> u32 {
        self.num
    }

    /// Denominator in lowest terms.
    #[inline]
    pub const fn den(self) -> u32 {
        self.den
    }

    /// Returns `⌊1/ρ⌋`, the paper's `k`, or `None` when ρ = 0.
    ///
    /// This is the largest number of hierarchy levels ℓ with `ρ·ℓ ≤ 1`
    /// (Thm. 4.1's premise).
    pub fn recip_floor(self) -> Option<u64> {
        if self.num == 0 {
            None
        } else {
            Some(u64::from(self.den) / u64::from(self.num))
        }
    }

    /// Whether `packets ≤ ρ·interval + sigma` (the Def. 2.1 comparison),
    /// computed exactly.
    pub fn bound_holds(self, packets: u64, interval: u64, sigma: u64) -> bool {
        // packets·den ≤ num·interval + sigma·den, in u128 to avoid overflow.
        let lhs = u128::from(packets) * u128::from(self.den);
        let rhs =
            u128::from(self.num) * u128::from(interval) + u128::from(sigma) * u128::from(self.den);
        lhs <= rhs
    }

    /// The rate `ℓ·ρ` (Lemma 2.5: the ℓ-reduction of a (ρ,σ)-bounded
    /// adversary is (ℓ·ρ, σ)-bounded).
    ///
    /// # Panics
    ///
    /// Panics if the resulting numerator overflows `u32`.
    pub fn times(self, l: u32) -> Rate {
        let num = self
            .num
            .checked_mul(l)
            .expect("rate numerator overflow in Rate::times");
        Rate::new(num, self.den).expect("denominator is non-zero")
    }

    /// Approximate value as `f64`, for reporting only (never used in
    /// invariant checks).
    pub fn as_f64(self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }

    /// `⌈ρ·k⌉` computed exactly; useful for pacing injections at rate ρ.
    pub fn mul_ceil(self, k: u64) -> u64 {
        let num = u128::from(self.num) * u128::from(k);
        let den = u128::from(self.den);
        u64::try_from(num.div_ceil(den)).expect("rate product overflow")
    }

    /// `⌊ρ·k⌋` computed exactly.
    pub fn mul_floor(self, k: u64) -> u64 {
        let num = u128::from(self.num) * u128::from(k);
        let den = u128::from(self.den);
        u64::try_from(num / den).expect("rate product overflow")
    }
}

impl PartialOrd for Rate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rate {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = u64::from(self.num) * u64::from(other.den);
        let rhs = u64::from(other.num) * u64::from(self.den);
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_in_lowest_terms() {
        let r = Rate::new(4, 8).unwrap();
        assert_eq!((r.num(), r.den()), (1, 2));
        let z = Rate::new(0, 5).unwrap();
        assert_eq!((z.num(), z.den()), (0, 1));
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(Rate::new(1, 0), Err(RateError::ZeroDenominator));
    }

    #[test]
    fn bound_holds_is_exact() {
        let rho = Rate::new(1, 3).unwrap();
        // N = 3, |I| = 9: 3 ≤ 3 exactly.
        assert!(rho.bound_holds(3, 9, 0));
        assert!(!rho.bound_holds(4, 9, 0));
        // With σ = 1 one extra packet is allowed.
        assert!(rho.bound_holds(4, 9, 1));
    }

    #[test]
    fn bound_holds_survives_large_inputs() {
        let rho = Rate::new(u32::MAX, u32::MAX).unwrap();
        assert!(rho.bound_holds(u64::MAX / 2, u64::MAX / 2, 0));
    }

    #[test]
    fn recip_floor_matches_paper_k() {
        assert_eq!(Rate::new(1, 2).unwrap().recip_floor(), Some(2));
        assert_eq!(Rate::new(2, 5).unwrap().recip_floor(), Some(2));
        assert_eq!(Rate::new(1, 1).unwrap().recip_floor(), Some(1));
        assert_eq!(Rate::ZERO.recip_floor(), None);
    }

    #[test]
    fn times_scales_rate() {
        let rho = Rate::new(1, 6).unwrap();
        assert_eq!(rho.times(3), Rate::new(1, 2).unwrap());
        // May exceed one, as in Lemma 2.5.
        assert_eq!(rho.times(12), Rate::new(2, 1).unwrap());
    }

    #[test]
    fn ordering_by_cross_multiplication() {
        let third = Rate::new(1, 3).unwrap();
        let half = Rate::new(1, 2).unwrap();
        assert!(third < half);
        assert!(half <= Rate::ONE);
        assert!(Rate::ONE < Rate::new(3, 2).unwrap());
    }

    #[test]
    fn mul_floor_and_ceil() {
        let rho = Rate::new(2, 3).unwrap();
        assert_eq!(rho.mul_floor(4), 2); // 8/3
        assert_eq!(rho.mul_ceil(4), 3);
        assert_eq!(rho.mul_floor(3), 2);
        assert_eq!(rho.mul_ceil(3), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rate::new(1, 2).unwrap().to_string(), "1/2");
        assert_eq!(Rate::ONE.to_string(), "1");
        assert_eq!(Rate::ZERO.to_string(), "0");
    }

    #[test]
    fn serde_roundtrip_preserves_value() {
        let rho = Rate::new(3, 7).unwrap();
        let json = serde_json_lite(&rho);
        assert!(json.contains("\"num\":3"));
    }

    /// Minimal serialization smoke test without pulling serde_json into
    /// non-dev deps: use serde's derive through a manual Serializer shim is
    /// overkill here; instead assert the raw conversion types round-trip.
    fn serde_json_lite(rate: &Rate) -> String {
        let raw: RawRate = (*rate).into();
        format!("{{\"num\":{},\"den\":{}}}", raw.num, raw.den)
    }

    #[test]
    fn raw_rate_try_from_validates() {
        assert!(Rate::try_from(RawRate { num: 1, den: 0 }).is_err());
        assert_eq!(
            Rate::try_from(RawRate { num: 2, den: 4 }).unwrap(),
            Rate::new(1, 2).unwrap()
        );
    }
}
