//! Command-line front end.
//!
//! ```text
//! sgx-lint [--format text|json] [--baseline file.json] [paths...]
//! sgx-lint robustness [flags]           RD-score corpus + variants
//! sgx-lint selfcheck [flags] [files...] variant fuzz of clean files
//! ```
//!
//! The default scan root is `crates`. `--format json` emits a deterministic
//! report through [`sgx_bench_core::json`] — byte-identical across runs on
//! identical sources, which `ci.sh` checks by diffing two invocations.
//! `--baseline` suppresses findings listed in a checked-in waiver file; a
//! baseline entry that no longer matches anything is itself reported (rule
//! `stale-baseline`) so the waiver list cannot rot.
//!
//! Both subcommands run the one evaluation driver ([`crate::robustness`]):
//! it generates semantics-preserving variants of every case
//! ([`crate::variants`]) and scores base and variant verdicts.
//! `robustness` feeds it the labeled corpus and reports rapx-bench-style
//! robust-detection scores; it deliberately rejects `--baseline` (exit 2)
//! so a stale workspace waiver can never mask an RD regression.
//! `selfcheck` feeds it pinned clean workspace files and reports every
//! variant finding as a rule false positive ([`crate::selfcheck`]).
//!
//! Exit code 0 = clean (or every corpus base verdict correct and RD
//! at/above `--floor`, or no selfcheck false positive), 1 = findings (or a
//! wrong corpus base verdict, RD below the floor, or a selfcheck false
//! positive), 2 = usage error.

use crate::engine::Finding;
use crate::robustness;
use sgx_bench_core::json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Output format selected on the command line.
enum Format {
    Text,
    Json,
}

/// Parse the value of a `--format` flag.
fn parse_format(value: Option<String>) -> Result<Format, ExitCode> {
    match value.as_deref() {
        Some("json") => Ok(Format::Json),
        Some("text") => Ok(Format::Text),
        other => {
            eprintln!(
                "sgx-lint: --format needs `text` or `json`, got {}",
                other.map_or_else(|| "nothing".to_string(), |o| format!("`{o}`"))
            );
            Err(ExitCode::from(2))
        }
    }
}

/// One waiver from the `--baseline` file, matched on (path, rule, line).
#[derive(Debug)]
struct BaselineEntry {
    path: String,
    rule: String,
    line: u32,
}

/// Run the CLI on `args` (without the program name).
pub fn run(args: impl Iterator<Item = String>) -> ExitCode {
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut args = args.peekable();
    if args.peek().map(String::as_str) == Some("robustness") {
        args.next();
        return run_robustness(args);
    }
    if args.peek().map(String::as_str) == Some("selfcheck") {
        args.next();
        return run_selfcheck(args);
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match parse_format(args.next()) {
                Ok(f) => format = f,
                Err(c) => return c,
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("sgx-lint: --baseline needs a file");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: sgx-lint [--format text|json] [--baseline file.json] [paths...]\n       sgx-lint robustness [flags]   (see `sgx-lint robustness --help`)\n       sgx-lint selfcheck [flags]    (see `sgx-lint selfcheck --help`)\n\nLints workspace Rust sources for model-integrity violations.\nPer-file rules: untracked-access, nondeterminism, counter-truncation,\npanic-in-library, unsafe-code, swallowed-error.\nWorkspace rules: untracked-slice-taint, counter-conservation,\nfault-tick-coverage, calibration-provenance, charge-escape,\ndes-invariant.\nDefault scan root: crates"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("sgx-lint: unknown flag {flag}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    if paths.is_empty() {
        paths.push(PathBuf::from("crates"));
    }
    // A typo'd root must not pass as "0 findings across 0 files" in CI.
    for p in &paths {
        if !p.exists() {
            eprintln!("sgx-lint: no such path: {}", p.display());
            return ExitCode::from(2);
        }
    }
    let reports = crate::analyze_paths(&paths);
    let suppressed: usize = reports.iter().map(|(_, r)| r.suppressed).sum();
    let files = reports.len();
    let mut findings: Vec<Finding> =
        reports.iter().flat_map(|(_, r)| r.findings.iter().cloned()).collect();
    findings.sort();
    findings.dedup();

    let mut baselined = 0usize;
    if let Some(bp) = &baseline_path {
        let entries = match load_baseline(bp) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("sgx-lint: {}: {e}", bp.display());
                return ExitCode::from(2);
            }
        };
        let mut used = vec![false; entries.len()];
        findings.retain(|f| {
            match entries
                .iter()
                .position(|e| e.path == f.path && e.rule == f.rule && e.line == f.line)
            {
                Some(i) => {
                    used[i] = true;
                    baselined += 1;
                    false
                }
                None => true,
            }
        });
        // A waiver that matches nothing is dead weight and may hide a fixed
        // finding silently regressing to a different line: fail on it.
        for (e, u) in entries.iter().zip(&used) {
            if !u {
                findings.push(Finding {
                    path: e.path.clone(),
                    line: e.line,
                    rule: "stale-baseline".to_string(),
                    message: format!(
                        "baseline entry for `{}` no longer matches any finding — prune it",
                        e.rule
                    ),
                });
            }
        }
        findings.sort();
    }

    match format {
        Format::Json => {
            println!("{}", report_value(&findings, files, suppressed, baselined).pretty());
        }
        Format::Text => {
            for f in &findings {
                println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
            }
            let total = findings.len();
            println!(
                "sgx-lint: {total} finding{} across {files} files ({suppressed} suppressed by allow-markers, {baselined} baselined)",
                if total == 1 { "" } else { "s" }
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `selfcheck` subcommand: the evaluation driver over pinned *clean*
/// workspace files. Any finding on a variant of a clean file is a rule
/// false positive by construction. See [`crate::selfcheck`].
fn run_selfcheck(mut args: std::iter::Peekable<impl Iterator<Item = String>>) -> ExitCode {
    let mut format = Format::Text;
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match parse_format(args.next()) {
                Ok(f) => format = f,
                Err(c) => return c,
            },
            "--help" | "-h" => {
                println!(
                    "usage: sgx-lint selfcheck [--format text|json] [files...]\n\nRuns the robustness variant generator over pinned clean workspace files.\nEvery transform is semantics-preserving and keeps marker/pragma line\nadjacency, so a finding on any variant is a rule false positive: exit 1\n(marker-bearing files are in scope). Files that are not clean solo are\nusage errors: exit 2.\nDefault file set:\n{}",
                    crate::selfcheck::DEFAULT_FILES
                        .iter()
                        .map(|f| format!("  {f}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("sgx-lint: selfcheck: unknown flag {flag}");
                return ExitCode::from(2);
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        files = crate::selfcheck::DEFAULT_FILES.iter().map(PathBuf::from).collect();
    }
    let report = match robustness::load_pinned(&files)
        .and_then(|cases| robustness::run(&cases, &robustness::Options::default()))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sgx-lint: selfcheck: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Json => println!("{}", crate::selfcheck::json(&report).pretty()),
        Format::Text => print!("{}", crate::selfcheck::table(&report)),
    }
    ExitCode::from(crate::selfcheck::exit_code(&report))
}

/// The `robustness` subcommand: RD-score the corpus plus generated
/// variants. See the module docs of [`crate::robustness`] for the model.
fn run_robustness(mut args: std::iter::Peekable<impl Iterator<Item = String>>) -> ExitCode {
    let mut opts = robustness::Options::default();
    let mut corpus_dir = PathBuf::from("crates/sgx-lint/corpus");
    let mut format = Format::Text;
    let mut floor: Option<f64> = None;
    fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, ExitCode> {
        v.and_then(|s| s.parse().ok()).ok_or_else(|| {
            eprintln!("sgx-lint: {flag} needs a number");
            ExitCode::from(2)
        })
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--corpus" => match args.next() {
                Some(d) => corpus_dir = PathBuf::from(d),
                None => {
                    eprintln!("sgx-lint: --corpus needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match parse_num("--jobs", args.next()) {
                Ok(n) => opts.jobs = n,
                Err(c) => return c,
            },
            "--floor" => match parse_num("--floor", args.next()) {
                Ok(n) => floor = Some(n),
                Err(c) => return c,
            },
            "--weaken" => match args.next() {
                Some(list) => {
                    opts.weaken.extend(list.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_string))
                }
                None => {
                    eprintln!("sgx-lint: --weaken needs a comma-separated knob list");
                    return ExitCode::from(2);
                }
            },
            "--emit-variants" => match args.next() {
                Some(d) => opts.emit_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("sgx-lint: --emit-variants needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--format" => match parse_format(args.next()) {
                Ok(f) => format = f,
                Err(c) => return c,
            },
            // Workspace waivers must never leak into RD scoring: a stale
            // baseline entry could silently absorb a variant regression.
            "--baseline" => {
                eprintln!(
                    "sgx-lint: robustness scoring ignores workspace baselines; drop --baseline"
                );
                return ExitCode::from(2);
            }
            "--help" | "-h" => {
                println!(
                    "usage: sgx-lint robustness [--corpus DIR] [--jobs N] [--floor PCT]\n                           [--weaken KNOB[,KNOB]] [--emit-variants DIR]\n                           [--format text|json]\n\nGenerates seeded semantics-preserving variants of every corpus case and\nreports rapx-bench-style robust-detection (RD) per rule and per transform.\nExit 1 when any base verdict is wrong (a positive case that does not fire,\na negative case with findings) or when --floor is set and total RD falls\nbelow it.\nKnown --weaken knobs: taint-indirection (cap taint walk depth),\ntaint-alias (disable alias resolution in taint and conservation).\n--emit-variants writes one directory per variant: {{case}}__{{label}}/<file>."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sgx-lint: robustness: unexpected argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match robustness::load_corpus(&corpus_dir)
        .and_then(|cases| robustness::run(&cases, &opts))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sgx-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Json => println!("{}", report.json().pretty()),
        Format::Text => print!("{}", report.table()),
    }
    let mut code = ExitCode::SUCCESS;
    let misses = report.base_misses();
    if !misses.is_empty() {
        let (n, names) = (misses.len(), misses.join(", "));
        eprintln!("sgx-lint: wrong base verdict on {n} case(s): {names}");
        code = ExitCode::FAILURE;
    }
    if let Some(f) = floor {
        if report.rd_percent() < f {
            eprintln!("sgx-lint: RD {}% below floor {f}%", report.rd_percent());
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Build the deterministic JSON report document.
///
/// Every field is either a sorted list or a scalar derived from one, so the
/// bytes depend only on the analyzed sources — never on walk order, clocks
/// or addresses. (The shared writer prints integral numbers as `N.0`.)
fn report_value(findings: &[Finding], files: usize, suppressed: usize, baselined: usize) -> Value {
    Value::Obj(vec![
        ("schema".into(), Value::Str("sgx-lint/1".into())),
        ("files".into(), Value::Num(files as f64)),
        ("suppressed".into(), Value::Num(suppressed as f64)),
        ("baselined".into(), Value::Num(baselined as f64)),
        ("total".into(), Value::Num(findings.len() as f64)),
        (
            "findings".into(),
            Value::Arr(
                findings
                    .iter()
                    .map(|f| {
                        Value::Obj(vec![
                            ("path".into(), Value::Str(f.path.clone())),
                            ("line".into(), Value::Num(f.line as f64)),
                            ("rule".into(), Value::Str(f.rule.clone())),
                            ("message".into(), Value::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Load and validate a `--baseline` file:
/// `{"baseline": [{"path": …, "rule": …, "line": N, "reason": …}, …]}`.
/// `reason` is mandatory and non-empty — a waiver without a justification
/// is indistinguishable from a rug-swept finding.
fn load_baseline(path: &Path) -> Result<Vec<BaselineEntry>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Value::parse(&src)?;
    let arr = doc
        .get("baseline")
        .and_then(Value::as_arr)
        .ok_or_else(|| "expected a top-level \"baseline\" array".to_string())?;
    let mut entries = Vec::with_capacity(arr.len());
    for (i, item) in arr.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline[{i}]: missing string field \"{key}\""))
        };
        let line = item
            .get("line")
            .and_then(Value::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| format!("baseline[{i}]: missing integral field \"line\""))?;
        let reason = field("reason")?;
        if reason.trim().is_empty() {
            return Err(format!("baseline[{i}]: \"reason\" must not be empty"));
        }
        entries.push(BaselineEntry { path: field("path")?, rule: field("rule")?, line: line as u32 });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FileClass;

    fn finding(path: &str, rule: &str, line: u32) -> Finding {
        Finding {
            path: path.into(),
            line,
            rule: rule.into(),
            message: format!("{rule} at {path}:{line}"),
        }
    }

    #[test]
    fn json_report_is_byte_identical_across_runs() {
        let src = "fn f(v: &T) { let s = v.as_slice_untracked(); let _ = s[0]; }\n";
        let render = || {
            let entry = (PathBuf::from("lib.rs"), FileClass::OperatorLib, src.to_string());
            let (_, report) = crate::analyze_set(vec![entry], &Default::default()).remove(0);
            report_value(&report.findings, 1, report.suppressed, 0).pretty()
        };
        let a = render();
        let b = render();
        assert!(!a.is_empty());
        assert_eq!(a, b, "two runs over identical input must emit identical bytes");
    }

    #[test]
    fn json_report_roundtrips_and_orders_findings() {
        let fs = vec![finding("b.rs", "unsafe-code", 2), finding("a.rs", "nondeterminism", 9)];
        let doc = report_value(&fs, 2, 1, 0);
        let back = Value::parse(&doc.pretty()).unwrap();
        assert_eq!(back.get("total").and_then(Value::as_f64), Some(2.0));
        let arr = back.get("findings").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("path").and_then(Value::as_str), Some("b.rs"));
        assert_eq!(arr[0].get("line").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn baseline_parses_and_rejects_bad_entries() {
        let dir = std::env::temp_dir().join("sgx_lint_cli_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(
            &good,
            "{\"baseline\": [{\"path\": \"a.rs\", \"rule\": \"unsafe-code\", \"line\": 3.0, \"reason\": \"vetted FFI shim\"}]}",
        )
        .unwrap();
        let entries = load_baseline(&good).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].path.as_str(), entries[0].line), ("a.rs", 3));

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"baseline\": [{\"path\": \"a.rs\", \"rule\": \"x\", \"line\": 3}]}")
            .unwrap();
        assert!(load_baseline(&bad).unwrap_err().contains("reason"));
        std::fs::write(&bad, "{\"baseline\": [{\"path\": \"a.rs\", \"rule\": \"x\", \"line\": 3, \"reason\": \"  \"}]}")
            .unwrap();
        assert!(load_baseline(&bad).unwrap_err().contains("reason"));
        std::fs::write(&bad, "[]").unwrap();
        assert!(load_baseline(&bad).unwrap_err().contains("baseline"));
    }
}
