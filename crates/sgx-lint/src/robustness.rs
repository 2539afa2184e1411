//! The lint's one evaluation driver: rapx-bench-style *robust detection*
//! (RD) scoring of labeled cases **and** of auto-generated
//! semantics-preserving variants of each case ([`crate::variants`]).
//!
//! ## Cases
//!
//! A [`Case`] is one source file with an expectation:
//! [`Expect::Fires`] (the named rule must report) or [`Expect::Silent`]
//! (no rule may report). Two loaders produce them:
//!
//! * [`load_corpus`] — the labeled corpus, `<dir>/positive/<rule>_<n>.rs`
//!   (`Fires(rule)`) and `<dir>/negative/<rule>_<n>.rs` (`Silent`), all
//!   analyzed as operator-crate library code so every rule is in scope;
//! * [`load_pinned`] — clean workspace files, all `Silent`, classed by
//!   [`crate::classify`]. Every transform is semantics-preserving, so a
//!   finding on a variant of a clean file is a rule false positive by
//!   construction; [`crate::selfcheck`] renders that view.
//!
//! ## Scoring model
//!
//! Every case gets a base verdict: a `Fires` case is correct when its rule
//! reports, a `Silent` case when *no* rule does. Each case is then mutated
//! by every applicable transform kind; a kind's variants form one *group*:
//!
//! * **absolute** — every variant in the group keeps the correct verdict;
//! * **partial**  — some do, some don't;
//! * **failed**   — every variant flips the verdict.
//!
//! A case is **robust** when its base verdict is correct *and* every
//! applicable group is absolute. `RD% = robust / bases` per rule and in
//! total — the headline number the CI gate enforces a floor on. The base
//! columns alone (TP/FN/TN/FP) are the corpus score: a wrong base verdict
//! fails the `robustness` subcommand whatever the floor. Transforms that
//! don't apply to a case (nothing to wrap, fewer than three items to
//! reorder, …) contribute no group and don't dilute RD.
//!
//! ## Determinism
//!
//! Each case's variant stream is seeded with `mix(SEED, fnv1a(name))`, so
//! generation is a pure function of the case — independent of iteration
//! order and of `--jobs`. Workers return results keyed by case index and
//! the report is assembled in index order, so the rendered table and JSON
//! are byte-identical across runs and thread counts. Workspace baselines
//! (`--baseline`) are deliberately rejected: a stale waiver file must never
//! mask an RD regression.

use crate::engine::{FileClass, Finding, RULES};
use crate::semantic::Config;
use crate::variants::{self, fnv1a, mix, Transform};
use sgx_bench_core::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Global seed of every case's variant stream.
pub const SEED: u64 = 42;
/// Maximum wrapper indirection depth (`wrap[d1]..wrap[dN]`).
pub const DEPTH: usize = 2;
/// Maximum `let`-chain length (`seqlen[n2]..seqlen[nN]`).
pub const SEQLEN: usize = 3;

/// What the analysis of a case must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// At least one finding of this rule.
    Fires(String),
    /// No finding of any rule.
    Silent,
}

/// One input of the driver.
#[derive(Debug, Clone)]
pub struct Case {
    /// Label of the case's findings and key of its variant seed: the
    /// corpus-relative name (`positive/unsafe-code_1.rs`) or the path of a
    /// pinned workspace file.
    pub name: String,
    /// How the engine treats the file (decides which rules apply).
    pub class: FileClass,
    /// The verdict the analysis must reach.
    pub expect: Expect,
    /// Source text.
    pub src: String,
}

/// Scorer options, straight from the CLI flags.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Worker threads (0 or 1 = serial; output is identical either way).
    pub jobs: usize,
    /// Rule defenses to disable ([`weaken_config`]) — the CI negative
    /// check proves RD collapses without them.
    pub weaken: Vec<String>,
    /// When set, write every generated variant into this directory
    /// (debugging and corpus promotion).
    pub emit_dir: Option<PathBuf>,
}

/// Translate `--weaken` knob names into a semantic [`Config`].
pub fn weaken_config(weaken: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
    for knob in weaken {
        match knob.as_str() {
            "taint-indirection" => cfg.taint_call_depth = 1,
            "taint-alias" => cfg.taint_aliases = false,
            other => {
                return Err(format!(
                    "unknown --weaken knob `{other}` (known: taint-indirection, taint-alias)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// One variant's verdict.
#[derive(Debug, Clone)]
pub struct VariantOutcome {
    /// Transform label, e.g. `wrap[d2]`.
    pub label: String,
    /// Did the case keep the correct verdict under this variant?
    pub ok: bool,
    /// Every finding on a `Silent` case (empty for `Fires`).
    pub noise: Vec<Finding>,
}

/// One transform kind's variants over one case.
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Transform kind (the grouping key), e.g. `wrap`.
    pub kind: &'static str,
    /// Individual variant verdicts (never empty — inapplicable kinds
    /// produce no group at all).
    pub variants: Vec<VariantOutcome>,
}

impl GroupOutcome {
    /// Every variant correct.
    pub fn absolute(&self) -> bool {
        self.variants.iter().all(|v| v.ok)
    }

    /// Every variant wrong.
    pub fn failed(&self) -> bool {
        self.variants.iter().all(|v| !v.ok)
    }
}

/// One case, fully scored.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case's name.
    pub name: String,
    /// The case's expectation.
    pub expect: Expect,
    /// Base verdict correct?
    pub base_ok: bool,
    /// Applicable transform groups, in plan order.
    pub groups: Vec<GroupOutcome>,
}

impl CaseOutcome {
    /// Base correct and every group absolute.
    pub fn robust(&self) -> bool {
        self.base_ok && self.groups.iter().all(GroupOutcome::absolute)
    }

    /// The rule whose table row this case counts in: the expected rule,
    /// or for a `Silent` case the `<rule>_<n>.rs` label of its file name
    /// (none for a pinned workspace file).
    pub fn rule(&self) -> Option<String> {
        match &self.expect {
            Expect::Fires(rule) => Some(rule.clone()),
            Expect::Silent => labeled_rule(Path::new(&self.name)),
        }
    }
}

/// Per-rule RD aggregate (one table row).
#[derive(Debug, Default, Clone)]
pub struct RuleRd {
    /// Base cases labeled with this rule.
    pub bases: usize,
    /// Positive bases where the rule fired.
    pub tp: usize,
    /// Positive bases where it did not.
    pub fn_: usize,
    /// Negative bases that stayed silent.
    pub tn: usize,
    /// Negative bases with any finding.
    pub fp: usize,
    /// Applicable variant groups across this rule's cases.
    pub groups: usize,
    /// Groups where every variant kept the verdict.
    pub absolute: usize,
    /// Groups with mixed verdicts.
    pub partial: usize,
    /// Groups where every variant flipped the verdict.
    pub failed: usize,
    /// Robust cases (base correct + all groups absolute).
    pub robust: usize,
}

impl RuleRd {
    /// RD percentage for this row (100.0 when there are no bases).
    pub fn rd_percent(&self) -> f64 {
        if self.bases == 0 {
            return 100.0;
        }
        round1(self.robust as f64 * 100.0 / self.bases as f64)
    }
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// The full RD report.
#[derive(Debug)]
pub struct Report {
    /// `--weaken` knobs echoed for provenance.
    pub weaken: Vec<String>,
    /// Every case in input order.
    pub cases: Vec<CaseOutcome>,
}

impl Report {
    /// Per-rule aggregate rows, keyed by rule name.
    pub fn per_rule(&self) -> BTreeMap<String, RuleRd> {
        let mut rows: BTreeMap<String, RuleRd> = BTreeMap::new();
        for rule in RULES {
            rows.insert(rule.to_string(), RuleRd::default());
        }
        for case in &self.cases {
            let Some(rule) = case.rule() else { continue };
            let row = rows.entry(rule).or_default();
            row.bases += 1;
            match (&case.expect, case.base_ok) {
                (Expect::Fires(_), true) => row.tp += 1,
                (Expect::Fires(_), false) => row.fn_ += 1,
                (Expect::Silent, true) => row.tn += 1,
                (Expect::Silent, false) => row.fp += 1,
            }
            row.groups += case.groups.len();
            for g in &case.groups {
                if g.absolute() {
                    row.absolute += 1;
                } else if g.failed() {
                    row.failed += 1;
                } else {
                    row.partial += 1;
                }
            }
            if case.robust() {
                row.robust += 1;
            }
        }
        rows
    }

    /// Per-transform-kind aggregate `(groups, absolute, partial, failed)`.
    pub fn per_transform(&self) -> BTreeMap<&'static str, (usize, usize, usize, usize)> {
        let mut rows: BTreeMap<&'static str, (usize, usize, usize, usize)> = BTreeMap::new();
        for case in &self.cases {
            for g in &case.groups {
                let row = rows.entry(g.kind).or_default();
                row.0 += 1;
                if g.absolute() {
                    row.1 += 1;
                } else if g.failed() {
                    row.3 += 1;
                } else {
                    row.2 += 1;
                }
            }
        }
        rows
    }

    /// Overall RD percentage: robust cases / all cases.
    pub fn rd_percent(&self) -> f64 {
        if self.cases.is_empty() {
            return 100.0;
        }
        let robust = self.cases.iter().filter(|c| c.robust()).count();
        round1(robust as f64 * 100.0 / self.cases.len() as f64)
    }

    /// Names of the cases whose base verdict is wrong.
    pub fn base_misses(&self) -> Vec<&str> {
        self.cases.iter().filter(|c| !c.base_ok).map(|c| c.name.as_str()).collect()
    }

    /// Every `(case, variant label)` that flipped the verdict, plus base
    /// misses as `(case, "base")`.
    pub fn failures(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for case in &self.cases {
            if !case.base_ok {
                out.push((case.name.clone(), "base".to_string()));
            }
            for g in &case.groups {
                for v in &g.variants {
                    if !v.ok {
                        out.push((case.name.clone(), v.label.clone()));
                    }
                }
            }
        }
        out
    }

    /// Aligned text table, rapx-style.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let weaken =
            if self.weaken.is_empty() { "(none)".to_string() } else { self.weaken.join(",") };
        out.push_str(&format!(
            "sgx-lint robustness — seed {SEED}, wrap depth {DEPTH}, seqlen {SEQLEN}, \
             weaken {weaken}\n"
        ));
        out.push_str(&format!(
            "{:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6}\n",
            "rule", "bases", "TP", "FN", "TN", "FP", "grp", "abs", "part", "fail", "robust", "RD%"
        ));
        let rows = self.per_rule();
        let mut total = RuleRd::default();
        for (rule, r) in &rows {
            out.push_str(&format!(
                "{rule:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6.1}\n",
                r.bases,
                r.tp,
                r.fn_,
                r.tn,
                r.fp,
                r.groups,
                r.absolute,
                r.partial,
                r.failed,
                r.robust,
                r.rd_percent()
            ));
            total.bases += r.bases;
            total.tp += r.tp;
            total.fn_ += r.fn_;
            total.tn += r.tn;
            total.fp += r.fp;
            total.groups += r.groups;
            total.absolute += r.absolute;
            total.partial += r.partial;
            total.failed += r.failed;
            total.robust += r.robust;
        }
        out.push_str(&format!(
            "{:<24} {:>5} {:>4} {:>4} {:>4} {:>4} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6.1}\n",
            "total",
            total.bases,
            total.tp,
            total.fn_,
            total.tn,
            total.fp,
            total.groups,
            total.absolute,
            total.partial,
            total.failed,
            total.robust,
            self.rd_percent()
        ));
        let per_t = self.per_transform();
        out.push_str("per transform kind (groups: absolute/partial/failed):\n");
        for kind in variants::KINDS {
            let (g, a, p, f) = per_t.get(kind).copied().unwrap_or((0, 0, 0, 0));
            out.push_str(&format!("  {kind:<10} {g:>4} groups: {a:>4} {p:>4} {f:>4}\n"));
        }
        let failures = self.failures();
        if failures.is_empty() {
            out.push_str("no failing variants\n");
        } else {
            out.push_str(&format!("{} failing variant(s):\n", failures.len()));
            for (case, label) in &failures {
                out.push_str(&format!("  {case} :: {label}\n"));
            }
        }
        out
    }

    /// Deterministic JSON rendering through [`sgx_bench_core::json`].
    pub fn json(&self) -> Value {
        let rows = self.per_rule();
        let per_rule: Vec<Value> = rows
            .iter()
            .map(|(rule, r)| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(rule.clone())),
                    ("bases".into(), Value::Num(r.bases as f64)),
                    ("tp".into(), Value::Num(r.tp as f64)),
                    ("fn".into(), Value::Num(r.fn_ as f64)),
                    ("tn".into(), Value::Num(r.tn as f64)),
                    ("fp".into(), Value::Num(r.fp as f64)),
                    ("groups".into(), Value::Num(r.groups as f64)),
                    ("absolute".into(), Value::Num(r.absolute as f64)),
                    ("partial".into(), Value::Num(r.partial as f64)),
                    ("failed".into(), Value::Num(r.failed as f64)),
                    ("robust".into(), Value::Num(r.robust as f64)),
                    ("rd_percent".into(), Value::Num(r.rd_percent())),
                ])
            })
            .collect();
        let per_t = self.per_transform();
        let per_transform: Vec<Value> = variants::KINDS
            .iter()
            .map(|kind| {
                let (g, a, p, f) = per_t.get(kind).copied().unwrap_or((0, 0, 0, 0));
                Value::Obj(vec![
                    ("kind".into(), Value::Str((*kind).into())),
                    ("groups".into(), Value::Num(g as f64)),
                    ("absolute".into(), Value::Num(a as f64)),
                    ("partial".into(), Value::Num(p as f64)),
                    ("failed".into(), Value::Num(f as f64)),
                ])
            })
            .collect();
        let failures: Vec<Value> = self
            .failures()
            .into_iter()
            .map(|(case, label)| {
                Value::Obj(vec![
                    ("case".into(), Value::Str(case)),
                    ("variant".into(), Value::Str(label)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), Value::Str("sgx-lint-robustness/1".into())),
            (
                "params".into(),
                Value::Obj(vec![
                    ("seed".into(), Value::Num(SEED as f64)),
                    ("depth".into(), Value::Num(DEPTH as f64)),
                    ("seqlen".into(), Value::Num(SEQLEN as f64)),
                    (
                        "weaken".into(),
                        Value::Arr(self.weaken.iter().map(|w| Value::Str(w.clone())).collect()),
                    ),
                    ("kinds".into(), Value::Num(variants::KINDS.len() as f64)),
                ]),
            ),
            ("cases".into(), Value::Num(self.cases.len() as f64)),
            ("rd_percent".into(), Value::Num(self.rd_percent())),
            ("per_rule".into(), Value::Arr(per_rule)),
            ("per_transform".into(), Value::Arr(per_transform)),
            ("failures".into(), Value::Arr(failures)),
        ])
    }
}

/// Extract the labeled rule from a corpus filename like
/// `nondeterminism_2.rs`.
fn labeled_rule(file: &Path) -> Option<String> {
    let stem = file.file_stem()?.to_str()?;
    let (rule, _n) = stem.rsplit_once('_')?;
    RULES.contains(&rule).then(|| rule.to_string())
}

/// Load the labeled corpus at `dir`, which must contain `positive/` and
/// `negative/` subdirectories of `<rule>_<n>.rs` cases.
pub fn load_corpus(dir: &Path) -> Result<Vec<Case>, String> {
    let mut out = Vec::new();
    for (side, positive) in [("positive", true), ("negative", false)] {
        let side_dir = dir.join(side);
        let files = crate::collect_rust_files(&side_dir);
        if files.is_empty() {
            return Err(format!("no corpus cases under {}", side_dir.display()));
        }
        for file in files {
            let Some(rule) = labeled_rule(&file) else {
                return Err(format!("corpus file {} is not named <rule>_<n>.rs", file.display()));
            };
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let fname = file.file_name().and_then(|n| n.to_str()).unwrap_or("?");
            out.push(Case {
                name: format!("{side}/{fname}"),
                class: FileClass::OperatorLib,
                expect: if positive { Expect::Fires(rule) } else { Expect::Silent },
                src,
            });
        }
    }
    Ok(out)
}

/// Load pinned workspace files as `Silent` cases. `Err` means a
/// precondition failed — no files, a missing file, a file that is not
/// clean under solo analysis, or one no transform applies to: a
/// configuration error, not a rule false positive. Marker-bearing files
/// are fair game, because every transform keeps marker/pragma line
/// adjacency.
pub fn load_pinned(files: &[PathBuf]) -> Result<Vec<Case>, String> {
    if files.is_empty() {
        return Err("no files given".to_string());
    }
    let cfg = Config::default();
    files
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let case = Case {
                name: path.to_string_lossy().into_owned(),
                class: crate::classify(path),
                expect: Expect::Silent,
                src,
            };
            let (_, noise) = verdict(&case, &[(String::new(), case.src.clone())], &cfg);
            if let Some(first) = noise.first() {
                return Err(format!(
                    "{} is not clean under solo analysis ([{}] line {}: {}) — pin a clean file",
                    case.name, first.rule, first.line, first.message
                ));
            }
            if !plan(case_seed(&case)).iter().any(|t| variants::apply_ws(&case.src, t).is_some()) {
                return Err(format!(
                    "no transform applies to {} — pin a file with renameable items",
                    case.name
                ));
            }
            Ok(case)
        })
        .collect()
}

fn case_seed(case: &Case) -> u64 {
    mix(SEED, fnv1a(&case.name))
}

/// The full variant plan for one case seed: every transform instance the
/// scorer will attempt, in deterministic order (grouped by kind).
fn plan(case_seed: u64) -> Vec<Transform> {
    let mut out = vec![
        Transform::Rename { seed: mix(case_seed, 11) },
        Transform::Rename { seed: mix(case_seed, 12) },
        Transform::Reorder { seed: mix(case_seed, 21) },
        Transform::Reorder { seed: mix(case_seed, 22) },
    ];
    for d in 1..=DEPTH {
        out.push(Transform::Wrap { depth: d });
    }
    for n in 2..=SEQLEN {
        out.push(Transform::Seqlen { chain: n });
    }
    out.push(Transform::Nest { depth: 1 });
    out.push(Transform::Nest { depth: 2 });
    out.push(Transform::Noise { seed: mix(case_seed, 31) });
    out.push(Transform::Noise { seed: mix(case_seed, 32) });
    out.push(Transform::Alias { seed: mix(case_seed, 51) });
    out.push(Transform::Alias { seed: mix(case_seed, 52) });
    out.push(Transform::Dyncall);
    out.push(Transform::Xsplit { seed: mix(case_seed, 61) });
    out.push(Transform::Xsplit { seed: mix(case_seed, 62) });
    out.push(Transform::Compose { seed: mix(case_seed, 41) });
    out.push(Transform::Compose { seed: mix(case_seed, 42) });
    out
}

/// Verdict of `case`'s expectation over one of its workspaces (the base
/// file or a variant): `(correct, noise)`, noise being every finding on a
/// `Silent` case. A one-file workspace is analyzed under the case's own
/// name; the parts of a cross-file variant ([`variants::apply_ws`]) form
/// one workspace labeled `{stem}/{file}`, so set-scoped rules see every
/// part together.
fn verdict(case: &Case, files: &[(String, String)], cfg: &Config) -> (bool, Vec<Finding>) {
    let entries: Vec<(PathBuf, FileClass, String)> = match files {
        [(_, src)] => vec![(PathBuf::from(&case.name), case.class, src.clone())],
        _ => {
            let stem = case.name.trim_end_matches(".rs");
            files
                .iter()
                .map(|(fname, src)| {
                    (PathBuf::from(format!("{stem}/{fname}")), case.class, src.clone())
                })
                .collect()
        }
    };
    let mut findings = crate::analyze_set(entries, cfg).into_iter().flat_map(|(_, r)| r.findings);
    match &case.expect {
        Expect::Fires(rule) => (findings.any(|f| &f.rule == rule), Vec::new()),
        Expect::Silent => {
            let noise: Vec<Finding> = findings.collect();
            (noise.is_empty(), noise)
        }
    }
}

fn score_case(case: &Case, opts: &Options, cfg: &Config) -> CaseOutcome {
    let (base_ok, _) = verdict(case, &[(String::new(), case.src.clone())], cfg);
    let mut groups: Vec<GroupOutcome> = Vec::new();
    for t in plan(case_seed(case)) {
        let Some(files) = variants::apply_ws(&case.src, &t) else { continue };
        if let Some(dir) = &opts.emit_dir {
            let safe = t.label().replace(['[', ']'], "_");
            let vdir = dir.join(format!("{}__{safe}", case.name.replace(['/', '.'], "_")));
            // One directory per variant, files in workspace order (already
            // deterministic from `apply_ws`). Emission is best-effort
            // debugging output; a full disk must not abort scoring, but it
            // must not be silent either.
            if let Err(e) = std::fs::create_dir_all(&vdir).and_then(|()| {
                files.iter().try_for_each(|(fname, src)| std::fs::write(vdir.join(fname), src))
            }) {
                eprintln!("sgx-lint: emit {}: {e}", vdir.display());
            }
        }
        let (ok, noise) = verdict(case, &files, cfg);
        let variant = VariantOutcome { label: t.label(), ok, noise };
        let kind = t.kind();
        match groups.last_mut() {
            Some(g) if g.kind == kind => g.variants.push(variant),
            _ => groups.push(GroupOutcome { kind, variants: vec![variant] }),
        }
    }
    CaseOutcome {
        name: case.name.clone(),
        expect: case.expect.clone(),
        base_ok,
        groups,
    }
}

/// Score `cases` under `opts`. Deterministic for fixed cases and `weaken`
/// regardless of `jobs`.
pub fn run(cases: &[Case], opts: &Options) -> Result<Report, String> {
    let cfg = weaken_config(&opts.weaken)?;
    let jobs = opts.jobs.clamp(1, cases.len().max(1));
    let mut indexed: Vec<(usize, CaseOutcome)> = std::thread::scope(|scope| {
        let stripe = |w: usize| -> Vec<(usize, CaseOutcome)> {
            (w..cases.len()).step_by(jobs).map(|i| (i, score_case(&cases[i], opts, &cfg))).collect()
        };
        let handles: Vec<_> = (1..jobs).map(|w| scope.spawn(move || stripe(w))).collect();
        let mut all = stripe(0);
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                // Re-raise a worker panic on the caller's thread so the
                // failure keeps its original message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    // Striped workers cover each index exactly once; re-sort into input
    // order so the report is independent of completion order.
    indexed.sort_by_key(|(i, _)| *i);
    Ok(Report {
        weaken: opts.weaken.clone(),
        cases: indexed.into_iter().map(|(_, o)| o).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Case> {
        load_corpus(&Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")).expect("corpus loads")
    }

    #[test]
    fn filename_labeling() {
        assert_eq!(
            labeled_rule(Path::new("corpus/positive/nondeterminism_2.rs")),
            Some("nondeterminism".to_string())
        );
        assert_eq!(
            labeled_rule(Path::new("counter-truncation_10.rs")),
            Some("counter-truncation".to_string())
        );
        assert_eq!(labeled_rule(Path::new("not_a_rule.rs")), None);
        assert_eq!(labeled_rule(Path::new("noindex.rs")), None);
    }

    #[test]
    fn rd_meets_the_floor_on_the_shipped_corpus() {
        let report = run(&corpus(), &Options::default()).expect("corpus scores");
        // Token rules need ~3+3 cases each and semantic rules ~2+2 each.
        assert!(report.cases.len() >= 62, "corpus shrank: {}", report.cases.len());
        let rd = report.rd_percent();
        assert!(rd >= 95.0, "RD {rd} below floor; failures: {:?}", report.failures());
        // The base columns are the corpus score: every rule has a firing
        // positive case, no positive misses and no negative makes noise.
        assert!(report.base_misses().is_empty(), "base misses:\n{}", report.table());
        for (rule, row) in report.per_rule() {
            assert!(row.tp >= 1, "rule `{rule}` has no firing positive corpus case");
            assert_eq!(row.fn_, 0, "{rule} has base misses");
            assert_eq!(row.fp, 0, "{rule} has base noise");
        }
        // At least 9 transform kinds actually produced groups, including
        // the cross-file and aliasing ones.
        let per_t = report.per_transform();
        assert!(per_t.len() >= 9, "only {} transform kinds applied", per_t.len());
        for kind in ["alias", "dyncall", "xsplit"] {
            assert!(per_t.get(kind).is_some_and(|r| r.0 > 0), "{kind} produced no groups");
        }
    }

    #[test]
    fn weakened_rules_drop_rd() {
        let weak = Options {
            weaken: vec!["taint-indirection".into(), "taint-alias".into()],
            ..Options::default()
        };
        let report = run(&corpus(), &weak).expect("corpus scores");
        let strong = run(&corpus(), &Options::default()).expect("corpus scores");
        assert!(
            report.rd_percent() < strong.rd_percent(),
            "weakening changed nothing: {} vs {}",
            report.rd_percent(),
            strong.rd_percent()
        );
        // The damage concentrates on the taint rule.
        let row = &report.per_rule()["untracked-slice-taint"];
        assert!(row.robust < row.bases, "taint rule unaffected by weakening");
    }

    #[test]
    fn unknown_weaken_knob_is_rejected() {
        assert!(weaken_config(&["nonsense".to_string()]).is_err());
        assert!(weaken_config(&[]).is_ok());
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        let serial = run(&corpus(), &Options::default()).expect("serial");
        let parallel =
            run(&corpus(), &Options { jobs: 4, ..Options::default() }).expect("parallel");
        assert_eq!(serial.table(), parallel.table());
        assert_eq!(serial.json().pretty(), parallel.json().pretty());
    }

    #[test]
    fn report_renders_both_formats_deterministically() {
        let a = run(&corpus(), &Options::default()).expect("a");
        let b = run(&corpus(), &Options::default()).expect("b");
        assert_eq!(a.table(), b.table());
        assert_eq!(a.json().pretty(), b.json().pretty());
        assert!(a.table().contains("rename"));
        assert!(a.json().pretty().contains("\"schema\": \"sgx-lint-robustness/1\""));
    }
}
