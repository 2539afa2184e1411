//! The service part of `point`: stepped-plan calibration at three stress
//! points, each followed by the discrete-event service at nominal load
//! and at 8x overload. Here the fault engine does the work, and an
//! installed fault profile turns off the stream fast path, so every
//! cache line goes through the per-access path that `point` measures.

use crate::round::Rec;
use sgx_bench_core::experiments::service::{calibrate, service_config, tenants, StressPoint};
use sgx_bench_core::golden::digest_str;
use sgx_bench_core::BenchProfile;
use sgx_serve::{run_service, Arrival, PlanVariant, ServiceOutcome, TenantSpec};
use sgx_sim::Setting;

/// Offered-load multipliers the service runs at.
const LOADS: [f64; 2] = [1.0, 8.0];

/// The stress points: name, AEX interrupts per million cycles, EPC level.
const POINTS: [(&str, f64, f64); 3] = [("calm", 0.0, 0.0), ("aex", 320.0, 0.0), ("epc", 0.0, 0.4)];

/// Tenants with think and arrival gaps divided by `load`.
fn loaded(mut ts: Vec<TenantSpec>, load: f64) -> Vec<TenantSpec> {
    for t in &mut ts {
        t.arrival = match t.arrival {
            Arrival::Open { mean_gap_cycles } => Arrival::Open {
                mean_gap_cycles: ((mean_gap_cycles as f64 / load) as u64).max(1),
            },
            Arrival::Closed { think_cycles } => Arrival::Closed {
                think_cycles: ((think_cycles as f64 / load) as u64).max(1),
            },
        };
    }
    ts
}

/// Calibrate at every stress point, then serve at every load with DES
/// seed `des_seed`. Runs inside the caller's timed part.
pub fn run(des_seed: u64, rec: &mut Rec) -> Vec<ServiceOutcome> {
    let profile = BenchProfile::golden();
    let mut cals = Vec::new();
    for (name, aex_per_mcycle, epc_level) in POINTS {
        let point = StressPoint {
            aex_per_mcycle,
            epc_level,
        };
        let cal = rec.owned(&format!("calibrate.{name}"), || {
            calibrate(&profile, Setting::SgxDataInEnclave, point)
        });
        cals.push((cal, epc_level));
    }
    // Workload sizing is anchored to the calm mean plan cost, as in the
    // service-tail experiment.
    let m = cals[0].0.costs.mean_total(PlanVariant::Normal);
    let mut outcomes = Vec::new();
    for (cal, epc_level) in &cals {
        for load in LOADS {
            let mut cfg = service_config(m, *epc_level, true);
            cfg.seed = des_seed;
            let ts = loaded(tenants(m), load);
            outcomes.push(rec.span("des.s", || run_service(&cfg, &ts, &cal.costs)));
        }
    }
    outcomes
}

/// Keeps the first round's service outcomes to compare later rounds to.
#[derive(Default)]
pub struct Service {
    first: Option<Vec<ServiceOutcome>>,
}

impl Service {
    /// Check one round's outcomes: each must reconcile and equal the
    /// first round's.
    pub fn check(&mut self, rec: &mut Rec, outcomes: Vec<ServiceOutcome>) {
        for (i, out) in outcomes.iter().enumerate() {
            rec.layer("des.events", out.events_processed as f64);
            let same = self.first.as_ref().is_none_or(|first| first[i] == *out);
            rec.check("service", out.reconcile().is_ok() && same);
            rec.round
                .outputs
                .push(digest_str(format!("{out:?}").as_bytes()));
        }
        if self.first.is_none() {
            self.first = Some(outcomes);
        }
    }
}
