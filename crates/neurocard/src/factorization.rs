//! Lossless column factorization (paper §5).
//!
//! An autoregressive model stores one embedding vector per distinct value, so a column with
//! hundreds of thousands of distinct values would blow up the model size.  Factorization
//! slices the *dictionary code* of a value into groups of `N` bits — most-significant group
//! first — and treats each group as a separate sub-column.  Because the downstream density
//! model is autoregressive, `p(col) = p(sub₁)·p(sub₂|sub₁)·…` loses no information, hence
//! "lossless".
//!
//! Filters on the original column must be translated into sub-column constraints during
//! progressive sampling.  For an inclusive code range `[lo, hi]` the translation is the
//! classic digit-by-digit range walk (the same logic as range scans on bit-sliced indexes):
//! while the already-drawn high-order digits still equal `lo`'s (resp. `hi`'s) prefix, the
//! next digit is bounded below (resp. above); as soon as the prefix falls strictly inside,
//! the remaining digits are unconstrained.

use serde::{Deserialize, Serialize};

/// How one original column is split into sub-columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Factorization {
    /// Domain size of the original column (dictionary codes are `0..domain`).
    pub domain: u32,
    /// Bits per sub-column.
    pub bits: u32,
    /// Domain of each sub-column, most-significant first.
    pub subdomains: Vec<u32>,
}

impl Factorization {
    /// Splits a column of `domain` distinct codes into sub-columns of at most `bits` bits.
    ///
    /// A domain that already fits in `bits` bits yields a single sub-column equal to the
    /// original (i.e. factorization is a no-op).
    pub fn new(domain: u32, bits: u32) -> Self {
        assert!(domain >= 1, "domain must be at least 1");
        assert!(
            (1..=31).contains(&bits),
            "factorization bits must be in 1..=31"
        );
        let needed_bits = 32 - (domain - 1).max(1).leading_zeros();
        let k = needed_bits.div_ceil(bits).max(1) as usize;
        // Most-significant sub-column gets the leftover high bits; the rest are full width.
        let mut subdomains = Vec::with_capacity(k);
        if k == 1 {
            subdomains.push(domain);
        } else {
            let low_bits = bits * (k as u32 - 1);
            let high_domain = (domain - 1) >> low_bits;
            subdomains.push(high_domain + 1);
            for _ in 1..k {
                subdomains.push(1u32 << bits);
            }
        }
        Factorization {
            domain,
            bits,
            subdomains,
        }
    }

    /// A single-sub-column spec (used when factorization is disabled).
    pub fn identity(domain: u32) -> Self {
        Factorization {
            domain,
            bits: 31,
            subdomains: vec![domain],
        }
    }

    /// Number of sub-columns.
    pub fn num_subcolumns(&self) -> usize {
        self.subdomains.len()
    }

    /// Whether the column is actually split (more than one sub-column).
    pub fn is_factorized(&self) -> bool {
        self.subdomains.len() > 1
    }

    /// Splits an original code into its sub-column digits (most-significant first).
    pub fn split(&self, code: u32) -> Vec<u32> {
        debug_assert!(
            code < self.domain,
            "code {code} outside domain {}",
            self.domain
        );
        let k = self.subdomains.len();
        if k == 1 {
            return vec![code];
        }
        let mut out = vec![0u32; k];
        let mut rest = code;
        for i in (1..k).rev() {
            out[i] = rest & ((1 << self.bits) - 1);
            rest >>= self.bits;
        }
        out[0] = rest;
        out
    }

    /// Recombines sub-column digits into the original code.
    pub fn combine(&self, digits: &[u32]) -> u32 {
        assert_eq!(digits.len(), self.subdomains.len());
        if digits.len() == 1 {
            return digits[0];
        }
        let mut code = digits[0];
        for &d in &digits[1..] {
            code = (code << self.bits) | d;
        }
        code
    }

    /// Valid digit range for sub-column `idx`, given an original-code range `[lo, hi]`
    /// (inclusive) and the digits already drawn for sub-columns `< idx`.
    ///
    /// Returns an inclusive digit range `(dlo, dhi)`; the range is never empty when the
    /// prefix itself was drawn from valid ranges.
    pub fn digit_range(&self, lo: u32, hi: u32, prefix: &[u32], idx: usize) -> (u32, u32) {
        assert!(
            lo <= hi && hi < self.domain,
            "invalid code range {lo}..={hi}"
        );
        assert!(idx < self.subdomains.len());
        assert!(
            prefix.len() >= idx,
            "prefix must cover all earlier sub-columns"
        );
        let lo_digits = self.split(lo);
        let hi_digits = self.split(hi);
        let tight_lo = (0..idx).all(|i| prefix[i] == lo_digits[i]);
        let tight_hi = (0..idx).all(|i| prefix[i] == hi_digits[i]);
        let dlo = if tight_lo { lo_digits[idx] } else { 0 };
        let dhi = if tight_hi {
            hi_digits[idx]
        } else {
            self.subdomains[idx] - 1
        };
        (dlo, dhi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_shape() {
        // Domain 10^6, 10 bits per sub-column → two sub-columns as in Figure 5.
        let f = Factorization::new(1_000_000, 10);
        assert_eq!(f.num_subcolumns(), 2);
        assert!(f.is_factorized());
        assert!(f.subdomains.iter().all(|&d| d <= 1 << 10));
        // 999_999 = 0b1111_0100_0010_0011_1111 → high 10 bits 976, low 10 bits 575.
        assert_eq!(f.split(999_999), vec![976, 575]);
        assert_eq!(f.combine(&[976, 575]), 999_999);
    }

    #[test]
    fn small_domain_is_identity() {
        let f = Factorization::new(100, 10);
        assert_eq!(f.num_subcolumns(), 1);
        assert!(!f.is_factorized());
        assert_eq!(f.split(37), vec![37]);
        assert_eq!(f.combine(&[37]), 37);
        let id = Factorization::identity(500);
        assert_eq!(id.subdomains, vec![500]);
    }

    #[test]
    fn three_level_factorization() {
        let f = Factorization::new(1 << 20, 8);
        assert_eq!(f.num_subcolumns(), 3);
        assert_eq!(f.subdomains, vec![16, 256, 256]);
        let code = 0xABCDE;
        let digits = f.split(code);
        assert_eq!(digits, vec![0xA, 0xBC, 0xDE]);
        assert_eq!(f.combine(&digits), code);
    }

    #[test]
    fn digit_range_walkthrough() {
        // Figure 5 / §5 example: filter col < 1_000_000 over a larger domain, i.e. the code
        // range [0, 999_999].  High sub-column is relaxed to <= 976; if the drawn high
        // digit is 976 the low filter becomes < 576 (i.e. <= 575); otherwise wildcard.
        let f = Factorization::new(1 << 20, 10);
        let (lo, hi) = f.digit_range(0, 999_999, &[], 0);
        assert_eq!((lo, hi), (0, 976));
        let (lo, hi) = f.digit_range(0, 999_999, &[976], 1);
        assert_eq!((lo, hi), (0, 575));
        let (lo, hi) = f.digit_range(0, 999_999, &[975], 1);
        assert_eq!((lo, hi), (0, 1023));
        // Lower bound tightness: range [999_000, 1_000_500].
        let lo_digits = f.split(999_000);
        let (dlo, dhi) = f.digit_range(999_000, 1_000_500, &[lo_digits[0]], 1);
        assert_eq!(dlo, lo_digits[1]);
        assert_eq!(dhi, 1023); // hi has a different high digit, so not tight above.
    }

    /// `split` checks its domain with a `debug_assert`, so there is nothing to panic in a
    /// release build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside domain")]
    fn split_out_of_domain_panics_in_debug() {
        let f = Factorization::new(16, 2);
        f.split(99);
    }

    proptest! {
        /// split → combine is the identity for every code in the domain.
        #[test]
        fn split_combine_roundtrip(domain in 2u32..200_000, bits in 2u32..16, seed in 0u32..10_000) {
            let f = Factorization::new(domain, bits);
            let code = seed % domain;
            let digits = f.split(code);
            prop_assert_eq!(digits.len(), f.num_subcolumns());
            for (d, dom) in digits.iter().zip(&f.subdomains) {
                prop_assert!(d < dom);
            }
            prop_assert_eq!(f.combine(&digits), code);
        }

        /// Digit-wise range translation is exact: a code is inside [lo, hi] iff each of its
        /// digits lies inside the digit range computed from its own prefix.
        #[test]
        fn digit_ranges_are_exact(domain in 4u32..50_000, bits in 2u32..10, a in 0u32..50_000, b in 0u32..50_000, code in 0u32..50_000) {
            let f = Factorization::new(domain, bits);
            let a = a % domain;
            let b = b % domain;
            let code = code % domain;
            let (lo, hi) = (a.min(b), a.max(b));
            let digits = f.split(code);
            let mut all_digits_in_range = true;
            for idx in 0..digits.len() {
                let (dlo, dhi) = f.digit_range(lo, hi, &digits[..idx], idx);
                if digits[idx] < dlo || digits[idx] > dhi {
                    all_digits_in_range = false;
                    break;
                }
            }
            prop_assert_eq!(all_digits_in_range, (lo..=hi).contains(&code));
        }
    }
}
