//! Property tests for `sgx_bench_core::percentile`: the histogram's
//! nearest-rank percentiles must agree exactly with the naive
//! sort-and-index oracle on arbitrary inputs, be insensitive to
//! insertion order, and compose under merge.

use proptest::collection::vec;
use proptest::prelude::*;
use sgx_bench_core::percentile::{percentile_sorted, Histogram};

/// The oracle spelled out from first principles (independent of the
/// exported `percentile_sorted` helper, which shares code with nothing
/// but is itself under test here).
fn naive(samples: &[u64], permille: u64) -> Option<u64> {
    if samples.is_empty() || permille == 0 || permille > 1000 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    // 1-based nearest rank: ceil(p/1000 * n).
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000);
    Some(sorted[(rank - 1) as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Histogram percentiles equal the sort-based oracle at every
    /// per-mille rank we care about (plus random ones).
    #[test]
    fn histogram_matches_sort_oracle(
        samples in vec(0u64..1_000_000, 0..200),
        p in 1u64..=1000,
    ) {
        let h: Histogram = samples.iter().copied().collect();
        prop_assert_eq!(h.percentile_permille(p), naive(&samples, p));
        for fixed in [500u64, 950, 990] {
            prop_assert_eq!(h.percentile_permille(fixed), naive(&samples, fixed));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(percentile_sorted(&sorted, p), naive(&samples, p));
    }

    /// Insertion order is irrelevant: reversed input builds an equal
    /// histogram with equal percentiles.
    #[test]
    fn insertion_order_is_irrelevant(samples in vec(0u64..10_000, 1..100)) {
        let fwd: Histogram = samples.iter().copied().collect();
        let rev: Histogram = samples.iter().rev().copied().collect();
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(fwd.p99(), rev.p99());
    }

    /// Merging two histograms equals recording the concatenation.
    #[test]
    fn merge_equals_concatenation(
        a in vec(0u64..10_000, 0..100),
        b in vec(0u64..10_000, 0..100),
        p in 1u64..=1000,
    ) {
        let mut ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        ha.merge(&hb);
        let all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let flat: Histogram = all.iter().copied().collect();
        prop_assert_eq!(&ha, &flat);
        prop_assert_eq!(ha.percentile_permille(p), naive(&all, p));
        prop_assert_eq!(ha.len(), all.len() as u64);
    }

    /// The reported value is always one of the samples (never invented
    /// by interpolation), and min/max bound every percentile.
    #[test]
    fn percentile_is_always_a_sample(
        samples in vec(0u64..1_000_000, 1..150),
        p in 1u64..=1000,
    ) {
        let h: Histogram = samples.iter().copied().collect();
        let v = h.percentile_permille(p).expect("non-empty");
        prop_assert!(samples.contains(&v), "p{} returned {} not in input", p, v);
        prop_assert!(h.min().expect("non-empty") <= v);
        prop_assert!(v <= h.max().expect("non-empty"));
    }
}
