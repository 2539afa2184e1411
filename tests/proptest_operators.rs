//! Property tests for the PR-10 operator zoo: the charged external merge
//! sort, the dictionary/RLE compression kernels, and the sealed storage
//! path must agree exactly with first-principles host oracles
//! (`sort_unstable`, direct decode, filter-and-count loops) on arbitrary
//! inputs. Every case builds its own deterministic `Machine`; the
//! vendored proptest is seeded, so failures replay bit-identically.

use proptest::collection::vec;
use proptest::prelude::*;
use sgx_bench_core::sgx_sim::config::xeon_gold_6326;
use sgx_bench_core::sgx_sim::{Machine, Setting};
use sgx_bench_core::sgx_tpch::{
    external_merge_sort, reference_storage_query, reference_unseal, seal_column,
    storage_path_query, DictColumn, RleColumn, SortRow, StorageFormat,
};

/// A 1/4096-scale enclave machine: the L3 is so small that a few hundred
/// records already overflow the run budget, forcing genuinely external
/// sorts (multiple spilled runs) on proptest-sized inputs.
fn tiny_enclave() -> Machine {
    Machine::new(xeon_gold_6326().scaled(4096), Setting::SgxDataInEnclave)
}

/// Derive (key, tag) pairs from raw 64-bit draws. `narrow` squeezes keys
/// into 0..64 so duplicate keys (and the tag tie-break) are exercised
/// hard; otherwise keys span the full 64-bit domain.
fn pairs_of(raw: &[u64], narrow: bool) -> Vec<(u64, u32)> {
    raw.iter()
        .map(|&r| {
            let key = if narrow { r % 64 } else { r };
            (key, (r.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u32)
        })
        .collect()
}

/// Fill a charged SimVec with the pairs.
fn sort_input(m: &mut Machine, pairs: &[(u64, u32)]) -> sgx_bench_core::sgx_sim::SimVec<SortRow> {
    let mut v = m.alloc::<SortRow>(pairs.len());
    for (i, &(key, tag)) in pairs.iter().enumerate() {
        v.poke(i, SortRow { key, tag });
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// External merge sort equals `sort_unstable` on (key, tag) pairs —
    /// including the run-spill path — across thread counts and both
    /// wide and duplicate-heavy key domains.
    #[test]
    fn external_sort_matches_sort_unstable(
        raw in vec(0u64..u64::MAX, 0..800),
        narrow in 0u32..2,
        threads in 1usize..=4,
    ) {
        let pairs = pairs_of(&raw, narrow == 1);
        let mut m = tiny_enclave();
        let v = sort_input(&mut m, &pairs);
        let mut expect = pairs.clone();
        expect.sort_unstable();
        let cores: Vec<usize> = (0..threads).collect();
        let (sorted, stats) = external_merge_sort(&mut m, &cores, &v, v.len());
        let got: Vec<(u64, u32)> =
            sorted.as_slice_untracked().iter().map(|r| (r.key, r.tag)).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(stats.spilled_bytes, pairs.len() * std::mem::size_of::<SortRow>());
    }

    /// A sorted prefix of arbitrary length equals the oracle sort of
    /// that prefix (the Q3 top-k path sorts prefixes, not whole arrays).
    #[test]
    fn external_sort_prefix_matches_oracle(
        raw in vec(0u64..u64::MAX, 1..400),
        cut in 0usize..400,
    ) {
        let pairs = pairs_of(&raw, false);
        let len = cut.min(pairs.len());
        let mut m = tiny_enclave();
        let v = sort_input(&mut m, &pairs);
        let mut expect = pairs[..len].to_vec();
        expect.sort_unstable();
        let (sorted, _) = external_merge_sort(&mut m, &[0], &v, len);
        prop_assert_eq!(sorted.len(), len);
        let got: Vec<(u64, u32)> =
            sorted.as_slice_untracked().iter().map(|r| (r.key, r.tag)).collect();
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Dictionary round-trip is the identity, and the charged scan
    /// visits every element of an arbitrary subrange with the decoded
    /// value the plain column would have yielded.
    #[test]
    fn dict_roundtrip_and_scan_equal_plain(
        values in vec(-50_000i32..50_000, 0..600),
        a in 0usize..601,
        b in 0usize..601,
    ) {
        let mut m = tiny_enclave();
        let col = DictColumn::encode(&mut m, &values);
        prop_assert!(col.dict_len() <= values.len().max(1));
        let decoded = col.decompress(&mut m);
        prop_assert_eq!(decoded.as_slice_untracked(), values.as_slice());
        let (lo, hi) = (a.min(values.len()), b.min(values.len()));
        let range = lo.min(hi)..lo.max(hi);
        let mut got: Vec<(usize, i32)> = Vec::new();
        m.run(|c| {
            col.scan(c, range.clone(), &mut |_c, i, x| got.push((i, x)));
        });
        let expect: Vec<(usize, i32)> =
            range.clone().map(|i| (i, values[i])).collect();
        prop_assert_eq!(got, expect);
    }

    /// RLE round-trip is the identity and run expansion reproduces the
    /// plain column exactly (order, lengths and values).
    #[test]
    fn rle_roundtrip_and_run_expansion_equal_plain(
        // Small value range so runs actually form; still exercises
        // degenerate all-distinct neighborhoods.
        values in vec(0i32..8, 0..600),
    ) {
        let mut m = tiny_enclave();
        let col = RleColumn::encode(&mut m, &values);
        prop_assert!(col.run_count() <= values.len());
        let decoded = col.decompress(&mut m);
        prop_assert_eq!(decoded.as_slice_untracked(), values.as_slice());
        let mut expanded: Vec<i32> = Vec::new();
        m.run(|c| {
            col.scan_runs(c, &mut |_c, v, l| {
                expanded.extend(std::iter::repeat_n(v, l as usize));
            });
        });
        prop_assert_eq!(expanded, values);
    }

    /// Seal → unseal is the identity for every storage format, and the
    /// full charged storage-path query (decrypt + filter + group-count)
    /// matches the uncharged host oracle bit for bit.
    #[test]
    fn sealed_storage_path_matches_oracle(
        values in vec(0i32..256, 0..400),
        fmt in 0usize..3,
        threshold in 0i32..256,
        groups_log2 in 3u32..7,
    ) {
        let format = [StorageFormat::Plain, StorageFormat::Dict, StorageFormat::Rle][fmt];
        let groups = 1usize << groups_log2;
        let mut m = tiny_enclave();
        let col = seal_column(&mut m, &values, format);
        prop_assert_eq!(reference_unseal(&col), values.clone());
        let stats = storage_path_query(&mut m, &[0, 1], &col, threshold, groups);
        let (matches, sum, grouped) = reference_storage_query(&values, threshold, groups);
        prop_assert_eq!(stats.matches, matches);
        prop_assert_eq!(stats.sum, sum);
        prop_assert_eq!(stats.groups, grouped);
        prop_assert_eq!(stats.rows, values.len());
    }
}
