//! `point`: random-access kernels in the enclave setting on the
//! /16-scaled machine, where `Core::access` through the hierarchy, the
//! cache sets and the TLB does most of the host work; then the service
//! calibration and DES runs of [`crate::service`], whose fault profiles
//! send every cache line down that same per-access path.

use crate::round::{sub_seed, Rec};
use crate::service::{self, Service};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sgx_joins::inl::inl_join;
use sgx_joins::pht::pht_join;
use sgx_joins::rho::rho_join;
use sgx_joins::{gen_fk_relation, gen_pk_relation, reference_join, JoinConfig};
use sgx_microbench::{histogram_bench, random_write, HistKernel};
use sgx_sim::config::scaled_profile;
use sgx_sim::{Machine, Setting};
use sgx_tpch::queries::{q10, q3};
use sgx_tpch::{generate, reference_count, reference_q10_revenue, reference_q3_topk};
use sgx_tpch::{Query, QueryConfig};

/// Simulated cores every kernel runs on (simulated one after another on
/// the one host thread).
const CORES: usize = 2;
/// TPC-H scale factor of Q3 and Q10.
const SF: f64 = 0.05;
/// Random-write array (beyond the scaled 1.5 MB L3) and store count.
const RW_BYTES: usize = 2 << 20;
const RW_WRITES: u64 = 1 << 18;
/// Histogram keys and bins.
const HIST_KEYS: usize = 1 << 18;
const HIST_BINS: usize = 1 << 12;

fn machine() -> Machine {
    Machine::new(scaled_profile(), Setting::SgxDataInEnclave)
}

/// Host replay of `histogram_bench`'s key stream.
fn reference_histogram(seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = vec![0u32; HIST_BINS];
    for _ in 0..HIST_KEYS {
        hist[(rng.random::<u64>() & (HIST_BINS as u64 - 1)) as usize] += 1;
    }
    hist
}

/// One round of `point`.
pub fn round(seed: u64, svc: &mut Service, rec: &mut Rec) {
    let s = |k| sub_seed(seed, k);
    let setup = rec.begin("setup");
    // Build-heavy PHT: a 2^17-row table (1 MB of rows plus buckets and
    // entries), beyond the scaled L3. Probe-heavy PHT: a 2^12-row table
    // that fits in L2, probed by 2^18 rows.
    let rel = rec.tr.enter("setup.relations");
    let mut m_build = machine();
    let build = (
        gen_pk_relation(&mut m_build, 1 << 17, s(0)),
        gen_fk_relation(&mut m_build, 1 << 14, 1 << 17, s(1)),
    );
    let mut m_probe = machine();
    let probe = (
        gen_pk_relation(&mut m_probe, 1 << 12, s(2)),
        gen_fk_relation(&mut m_probe, 1 << 18, 1 << 12, s(3)),
    );
    let mut m_inl = machine();
    let inl = (
        gen_pk_relation(&mut m_inl, 1 << 14, s(4)),
        gen_fk_relation(&mut m_inl, 1 << 16, 1 << 14, s(5)),
    );
    let mut m_rho = machine();
    let rho = (
        gen_pk_relation(&mut m_rho, 1 << 14, s(6)),
        gen_fk_relation(&mut m_rho, 1 << 16, 1 << 14, s(7)),
    );
    rec.tr.exit(rel);
    let tp = rec.tr.enter("setup.tpch");
    let mut m_tpch = machine();
    let db = generate(&mut m_tpch, SF, s(8));
    rec.tr.exit(tp);
    rec.end_setup(setup);

    let cfg = JoinConfig::new(CORES);
    let qcfg = QueryConfig::new(CORES);
    let timed = rec.begin("timed");
    let pht_b = rec.on_machine("pht_build", &mut m_build, |m| {
        pht_join(m, &build.0, &build.1, &cfg)
    });
    let pht_p = rec.on_machine("pht_probe", &mut m_probe, |m| {
        pht_join(m, &probe.0, &probe.1, &cfg)
    });
    let inl_j = rec.on_machine("inl_join", &mut m_inl, |m| {
        inl_join(m, &inl.0, &inl.1, &cfg)
    });
    let rho_cfg = JoinConfig::new(CORES)
        .with_radix_bits(8)
        .with_optimization(true);
    let rho_j = rec.on_machine("rho_join", &mut m_rho, |m| {
        rho_join(m, &rho.0, &rho.1, &rho_cfg)
    });
    let rw = rec.owned("random_write", || {
        random_write(
            scaled_profile(),
            Setting::SgxDataInEnclave,
            RW_BYTES,
            RW_WRITES,
            s(9),
        )
    });
    let hist = rec.owned("histogram", || {
        histogram_bench(
            scaled_profile(),
            Setting::SgxDataInEnclave,
            HIST_KEYS,
            HIST_BINS,
            HistKernel::Naive,
            s(10),
        )
    });
    let r3 = rec.on_machine("q3", &mut m_tpch, |m| q3(m, &db, &qcfg));
    let r10 = rec.on_machine("q10", &mut m_tpch, |m| q10(m, &db, &qcfg));
    let served = service::run(s(11), rec);
    rec.end_timed(timed);

    let verify = rec.begin("verify");
    for (name, got, (pk, fk)) in [
        ("pht_build", &pht_b, &build),
        ("pht_probe", &pht_p, &probe),
        ("inl_join", &inl_j, &inl),
        ("rho_join", &rho_j, &rho),
    ] {
        rec.check(name, (got.matches, got.checksum) == reference_join(pk, fk));
    }
    // Every requested store was issued: the warm-up pass over the array
    // (bounded at 2M slots) plus the measured writes.
    let slots = (RW_BYTES / 8).min(2_000_000) as u64;
    let stores = rec.round.kernel("random_write").map_or(0, |c| c.stores);
    rec.check(
        "random_write",
        rw.writes == RW_WRITES && stores == slots + RW_WRITES,
    );
    rec.check("histogram", hist.histogram == reference_histogram(s(10)));
    rec.check(
        "q3",
        r3.count == reference_count(&db, Query::Q3) && r3.grouped == reference_q3_topk(&db),
    );
    rec.check(
        "q10",
        r10.count == reference_count(&db, Query::Q10) && r10.grouped == reference_q10_revenue(&db),
    );
    svc.check(rec, served);
    rec.end(verify);
}
