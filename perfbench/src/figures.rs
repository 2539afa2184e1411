//! `figures`: the whole figure registry at the golden profile on one
//! worker per CPU, the run a user waits for to regenerate the paper.
//! Every figure and counter digest is checked against the goldens.

use crate::round::Rec;
use crate::stats::pool;
use sgx_bench_core::golden::{counters_digest, digest_str, Goldens};
use sgx_bench_core::runner::{
    default_jobs, registry, run_registry, FigureJob, JobOutcome, JobStatus, RunConfig,
};
use sgx_bench_core::BenchProfile;
// sgx-lint: allow(nondeterminism) the registry's host wall time feeds the pool utilisation metric
use std::time::Instant;

/// Golden digests, relative to the repository root.
pub const GOLDENS: &str = "tests/goldens/figure_digests.json";
/// Set-ups per round: the set-up is tiny, so it is sampled many times.
const SETUP_REPS: usize = 25;

/// Read and parse the goldens.
fn load_goldens() -> Result<Goldens, String> {
    let text = std::fs::read_to_string(GOLDENS).map_err(|e| format!("read {GOLDENS}: {e}"))?;
    let goldens = Goldens::from_json(&text).map_err(|e| format!("parse {GOLDENS}: {e}"))?;
    if goldens.profile != BenchProfile::golden_tag() {
        return Err(format!(
            "{GOLDENS} was recorded under {:?}",
            goldens.profile
        ));
    }
    Ok(goldens)
}

/// Whether a job ran and reproduced its golden figure and counter digests
/// (`figures` are the job's serialised figures, in emission order).
fn matches_golden(o: &JobOutcome, figures: &[String], goldens: &Goldens) -> bool {
    let Some(g) = goldens.jobs.iter().find(|g| g.id == o.id) else {
        return false;
    };
    o.status == JobStatus::Ok
        && counters_digest(&o.counters) == g.counters
        && figures.len() == g.figures.len()
        && o.figures
            .iter()
            .zip(figures)
            .zip(&g.figures)
            .all(|((f, json), (gid, gd))| f.id == *gid && digest_str(json.as_bytes()) == *gd)
}

/// The timed set-up: goldens, registry and pool configuration.
fn prepare(rec: &mut Rec) -> Result<(Goldens, Vec<FigureJob>, RunConfig), String> {
    let setup = rec.begin("setup");
    let goldens = load_goldens()?;
    let jobs = registry();
    let cfg = RunConfig {
        jobs: default_jobs(),
        ..RunConfig::default()
    };
    rec.end_setup(setup);
    Ok((goldens, jobs, cfg))
}

/// One round of `figures`.
pub fn round(rec: &mut Rec) -> Result<(), String> {
    for _ in 1..SETUP_REPS {
        prepare(rec)?;
    }
    let (goldens, jobs, cfg) = prepare(rec)?;
    let profile = BenchProfile::golden();

    let timed = rec.begin("timed");
    // sgx-lint: allow(nondeterminism) pool wall time, host-side only
    let started = Instant::now();
    let outcomes = rec.span("runner.run_registry", || {
        run_registry(&jobs, &profile, &cfg)
    });
    let registry_s = started.elapsed().as_secs_f64();
    let figures: Vec<Vec<String>> = rec.span("report.serialize_s", || {
        outcomes
            .iter()
            .map(|o| o.figures.iter().map(|f| f.to_json()).collect())
            .collect()
    });
    let verdicts: Vec<bool> = rec.span("golden.verify_s", || {
        outcomes
            .iter()
            .zip(&figures)
            .map(|(o, f)| matches_golden(o, f, &goldens))
            .collect()
    });
    rec.end_timed(timed);

    let mut busy = 0.0f64;
    let mut longest = 0.0f64;
    for (o, ok) in outcomes.iter().zip(verdicts) {
        rec.check(&o.id, ok);
        rec.layer(&format!("job.{}.s", o.id), o.seconds);
        rec.round
            .kernels
            .push((format!("job.{}", o.id), o.counters.clone()));
        busy += o.seconds;
        longest = longest.max(o.seconds);
    }
    let p = pool(cfg.jobs, registry_s, busy);
    rec.layer("runner.busy_s", busy);
    rec.layer("runner.idle_s", p.idle_s);
    rec.layer("runner.util", p.util);
    rec.layer("runner.longest_job_s", longest);
    rec.layer(
        "report.bytes",
        figures.iter().flatten().map(String::len).sum::<usize>() as f64,
    );
    Ok(())
}
