//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|point|stream> --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats identical rounds of the workload until the next round
//! would overrun `--seconds`. Each round sets up its inputs from the
//! seed, runs the timed part, then checks every output against an
//! uncharged oracle (or, for `figures`, the golden digests). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones. `wall_s` and
//! `sim_events_per_s` come from the fastest round: other tenants of a
//! shared host only ever slow a round down, in level shifts that last
//! from seconds to minutes, so the fastest round of a run follows the
//! program while the median round follows the host's load. `setup_s` is
//! the median of the round set-ups.
//! With `--trace 1` untraced and traced rounds alternate; the traced
//! rounds record spans around every call into a layer and supply the
//! per-layer metrics (medians over traced rounds), and
//! `trace.overhead_s` is the fastest traced minus the fastest untraced
//! `wall_s`. Spans are written to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/perfbench/`) when the
//! run ends. A metric of a layer the workload does not call reads 0.

mod figures;
mod point;
mod round;
mod service;
mod stats;
mod stream;
mod trace;

use round::{Rec, Round};
use sgx_bench_core::golden::fnv1a64;
use stats::{events, fastest, median, ns_per_event};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
// sgx-lint: allow(nondeterminism) the run's time budget is host time
use std::time::Instant;
use trace::{self_by_name, Tracer};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["figures", "point", "stream"];

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Registry job ids, in registry order.
const JOBS: [&str; 27] = [
    "table1",
    "fig01",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "ablation_sgxv1",
    "ext_skew",
    "ext_aggregation",
    "ext_dual_socket",
    "ext_packed",
    "ablation_swwcb",
    "ablation_radix_bits",
    "ext_aex_storm",
    "ext_service_tail",
    "ext_storage_path",
];

/// Kernels of `point`, then of `stream`.
const KERNELS: [&str; 19] = [
    "pht_build",
    "pht_probe",
    "inl_join",
    "rho_join",
    "random_write",
    "histogram",
    "q3",
    "q10",
    "linear_read",
    "linear_write",
    "scan_bitvector",
    "scan_indexes",
    "packed_scan",
    "dict_scan",
    "rle_scan",
    "storage_path",
    "ext_sort",
    "q12",
    "q19",
];

/// Simulator counters reported per workload.
const SIM_COUNTS: [&str; 16] = [
    "loads",
    "stores",
    "alu_ops",
    "vec_ops",
    "stream_lines",
    "l1_hits",
    "l2_hits",
    "l3_hits",
    "dram_fills",
    "prefetched_fills",
    "epc_fills",
    "writebacks",
    "tlb_misses",
    "transitions",
    "aex_events",
    "epc_page_faults",
];

/// Per-layer metrics other than jobs, kernels and simulator counts.
const LAYERS: [(&str, &str); 20] = [
    ("runner.busy_s", "s"),
    ("runner.idle_s", "s"),
    ("runner.util", "ratio"),
    ("runner.longest_job_s", "s"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("golden.verify_s", "s"),
    ("setup.relations", "s"),
    ("setup.tpch", "s"),
    ("setup.encode", "s"),
    ("setup.seal", "s"),
    ("calibrate.calm.s", "s"),
    ("calibrate.aex.s", "s"),
    ("calibrate.epc.s", "s"),
    ("des.s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("sim.ns_per_event", "ns"),
    ("trace.overhead_s", "s"),
    ("bench.check_s", "s"),
];

/// Every per-layer metric: name and unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        JOBS.iter().map(|j| (format!("job.{j}.s"), "s")).collect();
    for k in KERNELS {
        out.push((format!("{k}.s"), "s"));
        out.push((format!("{k}.ns_per_event"), "ns"));
    }
    out.extend(SIM_COUNTS.iter().map(|c| (format!("sim.{c}"), "count")));
    out.extend(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                    format!("unknown workload {value:?} (have {})", WORKLOADS.join(", "))
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {value:?}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where spans and determinism records go: inside the build directory.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("perfbench")
}

/// Compare this run's simulated fingerprint with the one an earlier run
/// of the same executable recorded for the same workload and seed, or
/// record it. Returns whether they agree.
fn same_as_earlier_runs(args: &Args, fingerprint: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "sim-{}-{}-{:016x}.txt",
        args.workload,
        args.seed,
        fnv1a64(&bytes)
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => Ok(earlier == fingerprint),
        Err(_) => {
            std::fs::write(&path, fingerprint)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

/// Run one round of the chosen workload.
fn run_round(args: &Args, svc: &mut service::Service, tr: &mut Tracer) -> Result<Round, String> {
    let mut rec = Rec::new(tr);
    match args.workload {
        "figures" => figures::round(&mut rec)?,
        "point" => point::round(args.seed, svc, &mut rec),
        _ => stream::round(args.seed, &mut rec),
    }
    Ok(rec.round)
}

/// Per-layer values of one traced round (operation `op`).
fn layer_values(round: &Round, tr: &Tracer, op: u64) -> BTreeMap<String, f64> {
    let mut v = self_by_name(tr.spans(), op);
    v.extend(round.layers.iter().map(|(k, x)| (k.clone(), *x)));
    for k in KERNELS {
        let secs = v.get(&format!("{k}.s")).copied().unwrap_or(0.0);
        v.insert(
            format!("{k}.ns_per_event"),
            ns_per_event(secs, round.kernel_events(k)),
        );
    }
    let des_s = v.get("des.s").copied().unwrap_or(0.0);
    let des_events = v.get("des.events").copied().unwrap_or(0.0);
    v.insert(
        "des.events_per_s".into(),
        if des_s > 0.0 { des_events / des_s } else { 0.0 },
    );
    let sim = round.sim();
    let counts = [
        sim.loads,
        sim.stores,
        sim.alu_ops,
        sim.vec_ops,
        sim.stream_lines,
        sim.l1_hits,
        sim.l2_hits,
        sim.l3_hits,
        sim.dram_fills,
        sim.prefetched_fills,
        sim.epc_fills,
        sim.writebacks,
        sim.tlb_misses,
        sim.transitions,
        sim.aex_events,
        sim.epc_page_faults,
    ];
    for (name, c) in SIM_COUNTS.iter().zip(counts) {
        v.insert(format!("sim.{name}"), c as f64);
    }
    v.insert(
        "sim.ns_per_event".into(),
        ns_per_event(round.wall_s, events(&sim)),
    );
    // The benchmark's own checks, outside the timed part.
    v.insert(
        "bench.check_s".into(),
        v.get("verify").copied().unwrap_or(0.0),
    );
    v
}

fn run(args: &Args) -> Result<String, String> {
    let mut tr = Tracer::new(false);
    let mut svc = service::Service::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<BTreeMap<String, f64>> = Vec::new();
    let min_rounds = if args.trace { 2 } else { 1 };
    // sgx-lint: allow(nondeterminism) the run's time budget is host time
    let started = Instant::now();
    loop {
        // Under --trace 1, odd rounds are traced and even rounds are not.
        let op = rounds.len() as u64;
        tr.set_on(args.trace && op % 2 == 1);
        tr.set_op(op);
        let round = run_round(args, &mut svc, &mut tr)?;
        if tr.on() {
            traced.push(layer_values(&round, &tr, op));
        }
        rounds.push(round);
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        if rounds.len() >= min_rounds && elapsed + per_round > args.seconds {
            break;
        }
    }

    // Determinism: every round of a run, and every run of one executable
    // with the same seed, simulates exactly the same events.
    let mut attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let first = rounds[0].fingerprint();
    for (i, r) in rounds.iter().enumerate().skip(1) {
        attempted += 1;
        if r.fingerprint() != first {
            failed += 1;
            eprintln!("perfbench: round {i} simulated different events from round 0");
        }
    }
    attempted += 1;
    if !same_as_earlier_runs(args, &first)? {
        failed += 1;
        eprintln!(
            "perfbench: simulated events differ from an earlier run of this executable and seed"
        );
    }

    let wall: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let median_of = |key: &str| {
            median(
                &traced
                    .iter()
                    .map(|v| v.get(key).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let untraced_wall: Vec<f64> = rounds.iter().step_by(2).map(|r| r.wall_s).collect();
        let traced_wall: Vec<f64> = rounds.iter().skip(1).step_by(2).map(|r| r.wall_s).collect();
        for (name, unit) in per_layer() {
            let value = if name == "trace.overhead_s" {
                fastest(&traced_wall) - fastest(&untraced_wall)
            } else {
                median_of(&name)
            };
            metrics.push((name, value, unit));
        }
        let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, tr.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
    } else {
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| events(&r.sim()) as f64 / r.wall_s)
            .collect();
        let setup: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.setup.iter().copied())
            .collect();
        let best_rate = rates.iter().copied().fold(0.0, f64::max);
        let values = [fastest(&wall), best_rate, median(&setup), peak_rss_mb()?];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
    }
    eprintln!(
        "perfbench: {} rounds of {} in {:.1} s",
        rounds.len(),
        args.workload,
        started.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = wall.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("perfbench: round wall_s: {}", walls.join(" "));
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// The result object, on one line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; no metric produces them, but a
            // broken one must not break the line.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_bench_core::json::Value;

    fn names(list: Option<&Value>) -> Vec<String> {
        list.and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("metric name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(doc.get("end_to_end")), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names(doc.get("per_layer")), layers);
        assert_eq!(names(doc.get("workloads")), WORKLOADS.to_vec());
    }

    #[test]
    fn job_list_matches_registry() {
        let ids: Vec<&str> = sgx_bench_core::runner::registry()
            .iter()
            .map(|j| j.id)
            .collect();
        assert_eq!(ids, JOBS.to_vec());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload point --seed 7 --seconds 3 --trace 1"),
            Ok(Args {
                workload: "point",
                seed: 7,
                seconds: 3.0,
                trace: true
            })
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload point --trace 2").is_err());
        assert!(parse("--workload point --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s".into(), 1.25, "s")]);
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|w| w.get("value"))
                .and_then(Value::as_f64),
            Some(1.25)
        );
    }
}
