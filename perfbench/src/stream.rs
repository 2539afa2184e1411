//! `stream`: streaming kernels in the enclave setting on the /16-scaled
//! machine, reads beside writes, where `stream_touch`, stream-run
//! resolution and MEE fill accounting do most of the host work.

use crate::round::{sub_seed, Rec};
use sgx_scans::{
    column_scan, gen_column, linear_read, linear_write, packed_scan_count, reference_filter,
};
use sgx_scans::{LinearConfig, PackedColumn, ScanConfig, ScanOutput, Width};
use sgx_sim::config::scaled_profile;
use sgx_sim::{Machine, Setting};
use sgx_tpch::compress::{reference_dict_decode, reference_rle_decode};
use sgx_tpch::queries::{q12, q19};
use sgx_tpch::storage::{clustered_column, reference_storage_query};
use sgx_tpch::{external_merge_sort, generate, reference_count, seal_column, SortRow};
use sgx_tpch::{DictColumn, Query, QueryConfig, RleColumn, StorageFormat};

/// Simulated cores every kernel runs on.
const CORES: usize = 2;
/// TPC-H scale factor of Q12 and Q19.
const SF: f64 = 0.05;
/// 8 MB of u64 for the linear kernels, two passes each.
const LINEAR_WORDS: usize = 1 << 20;
const LINEAR_PASSES: usize = 2;
/// Byte column scanned with bit-vector and index output.
const SCAN_ROWS: usize = 1 << 22;
/// Packed column: values and bits per value.
const PACKED_ROWS: usize = 1 << 21;
const PACKED_BITS: u32 = 12;
/// Clustered i32 columns for the dictionary, RLE and sealed scans.
const CODED_ROWS: usize = 1 << 19;
/// Rows of the external sort (2 MB of rows, beyond the scaled L3).
const SORT_ROWS: usize = 1 << 17;
/// Sealed storage query: `value >= THRESHOLD`, grouped into `GROUPS`.
const THRESHOLD: i32 = 128;
const GROUPS: usize = 64;

fn machine() -> Machine {
    Machine::new(scaled_profile(), Setting::SgxDataInEnclave)
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// One round of `stream`.
pub fn round(seed: u64, rec: &mut Rec) {
    let s = |k| sub_seed(seed, k);
    let cores: Vec<usize> = (0..CORES).collect();
    let setup = rec.begin("setup");
    let rel = rec.tr.enter("setup.relations");
    let mut m_read = machine();
    let mut read_v = m_read.alloc::<u64>(LINEAR_WORDS);
    let mut x = s(0);
    for i in 0..LINEAR_WORDS {
        x = lcg(x);
        read_v.poke(i, x);
    }
    let mut m_write = machine();
    let mut write_v = m_write.alloc::<u64>(LINEAR_WORDS);
    let mut m_scan = machine();
    let col = gen_column(&mut m_scan, SCAN_ROWS, s(1));
    let mut m_sort = machine();
    let mut sort_in = m_sort.alloc::<SortRow>(SORT_ROWS);
    let mut x = s(2) | 1;
    for i in 0..SORT_ROWS {
        x = lcg(x);
        sort_in.poke(
            i,
            SortRow {
                key: x,
                tag: i as u32,
            },
        );
    }
    let packed_vals: Vec<u32> = {
        let mut x = s(3);
        (0..PACKED_ROWS)
            .map(|_| {
                x = lcg(x);
                ((x >> 33) as u32) & ((1 << PACKED_BITS) - 1)
            })
            .collect()
    };
    let dict_vals = clustered_column(CODED_ROWS, s(4));
    let rle_vals = clustered_column(CODED_ROWS, s(5));
    let sealed_vals = clustered_column(CODED_ROWS, s(6));
    rec.tr.exit(rel);
    let enc = rec.tr.enter("setup.encode");
    let mut m_packed = machine();
    let packed = PackedColumn::pack(&mut m_packed, &packed_vals, PACKED_BITS);
    let mut m_dict = machine();
    let dict = DictColumn::encode(&mut m_dict, &dict_vals);
    let mut m_rle = machine();
    let rle = RleColumn::encode(&mut m_rle, &rle_vals);
    rec.tr.exit(enc);
    let seal = rec.tr.enter("setup.seal");
    let mut m_sealed = machine();
    let sealed = seal_column(&mut m_sealed, &sealed_vals, StorageFormat::Dict);
    rec.tr.exit(seal);
    let tp = rec.tr.enter("setup.tpch");
    let mut m_tpch = machine();
    let db = generate(&mut m_tpch, SF, s(7));
    rec.tr.exit(tp);
    rec.end_setup(setup);

    let lcfg = LinearConfig::new(CORES)
        .with_warmup(0)
        .with_repeats(LINEAR_PASSES);
    let scfg = ScanConfig::new(CORES).with_warmup(0).with_repeats(1);
    let qcfg = QueryConfig::new(CORES);
    let timed = rec.begin("timed");
    rec.on_machine("linear_read", &mut m_read, |m| {
        linear_read(m, &read_v, Width::Bits64, &lcfg)
    });
    rec.on_machine("linear_write", &mut m_write, |m| {
        linear_write(m, &mut write_v, Width::Bits64, &lcfg)
    });
    // 0..=255 keeps every value: a dense bit vector. 0..=127 keeps half
    // of the uniform bytes: index output at 50 % selectivity.
    let bv = rec.on_machine("scan_bitvector", &mut m_scan, |m| {
        column_scan(m, &col, 0, 255, ScanOutput::BitVector, &scfg)
    });
    let ix = rec.on_machine("scan_indexes", &mut m_scan, |m| {
        column_scan(m, &col, 0, 127, ScanOutput::Indexes, &scfg)
    });
    let lo = 1u32 << (PACKED_BITS - 2);
    let hi = 3u32 << (PACKED_BITS - 2);
    let (pk, _) = rec.on_machine("packed_scan", &mut m_packed, |m| {
        packed_scan_count(m, &packed, lo, hi, &cores)
    });
    let dict_out = rec.on_machine("dict_scan", &mut m_dict, |m| {
        let mut out = Vec::with_capacity(dict.len());
        m.run(|c| dict.scan(c, 0..dict.len(), &mut |_, _, v| out.push(v)));
        out
    });
    let rle_out = rec.on_machine("rle_scan", &mut m_rle, |m| {
        let mut out = Vec::with_capacity(rle.len());
        m.run(|c| {
            rle.scan_runs(c, &mut |_, v, l| {
                out.extend(std::iter::repeat_n(v, l as usize))
            })
        });
        out
    });
    let st = rec.on_machine("storage_path", &mut m_sealed, |m| {
        sgx_tpch::storage_path_query(m, &cores, &sealed, THRESHOLD, GROUPS)
    });
    let (sorted, _) = rec.on_machine("ext_sort", &mut m_sort, |m| {
        external_merge_sort(m, &cores, &sort_in, SORT_ROWS)
    });
    let r12 = rec.on_machine("q12", &mut m_tpch, |m| q12(m, &db, &qcfg));
    let r19 = rec.on_machine("q19", &mut m_tpch, |m| q19(m, &db, &qcfg));
    rec.end_timed(timed);

    let verify = rec.begin("verify");
    let lines = (LINEAR_WORDS / 8 * LINEAR_PASSES) as u64;
    let read_lines = rec
        .round
        .kernel("linear_read")
        .map_or(0, |c| c.stream_lines);
    rec.check("linear_read", read_lines == lines);
    // The last measured pass stores 0xA5A5_0000 + pass index everywhere.
    let last = 0xA5A5_0000 + (LINEAR_PASSES as u64 - 1);
    let write_lines = rec
        .round
        .kernel("linear_write")
        .map_or(0, |c| c.stream_lines);
    rec.check(
        "linear_write",
        write_lines == lines && (0..LINEAR_WORDS).all(|i| write_v.peek(i) == last),
    );
    rec.check(
        "scan_bitvector",
        bv.matches == reference_filter(&col, 0, 255).len() as u64,
    );
    rec.check(
        "scan_indexes",
        ix.matches == reference_filter(&col, 0, 127).len() as u64,
    );
    let pk_ref = packed_vals.iter().filter(|&&v| v >= lo && v <= hi).count() as u64;
    rec.check("packed_scan", pk == pk_ref);
    rec.check(
        "dict_scan",
        dict_out == reference_dict_decode(&dict) && dict_out == dict_vals,
    );
    rec.check(
        "rle_scan",
        rle_out == reference_rle_decode(&rle) && rle_out == rle_vals,
    );
    let (matches, sum, groups) = reference_storage_query(&sealed_vals, THRESHOLD, GROUPS);
    rec.check(
        "storage_path",
        st.matches == matches && st.sum == sum && st.groups == groups,
    );
    let mut host: Vec<SortRow> = (0..SORT_ROWS).map(|i| sort_in.peek(i)).collect();
    host.sort_unstable_by_key(|r| (r.key, r.tag));
    rec.check(
        "ext_sort",
        (0..SORT_ROWS).all(|i| sorted.peek(i) == host[i]),
    );
    rec.check("q12", r12.count == reference_count(&db, Query::Q12));
    rec.check("q19", r19.count == reference_count(&db, Query::Q19));
    rec.end(verify);
}
