//! # sgx-lint — model-integrity & determinism static analysis
//!
//! The whole reproduction rests on one invariant (DESIGN.md §1 "Honesty
//! note"): every byte an operator touches must flow through the
//! `SimVec`/machine event stream, deterministically. One raw-slice loop or
//! one `thread_rng()` silently de-calibrates every figure derived from the
//! cost model. This crate is a dependency-free static-analysis pass over
//! the workspace's own sources that mechanically enforces that invariant.
//!
//! ## Rules
//!
//! | rule | what it flags |
//! |------|---------------|
//! | `untracked-access` | `as_slice_untracked`/`as_mut_slice_untracked` in operator-crate library code (bypasses the event stream) |
//! | `nondeterminism` | `thread_rng`, `Instant`/`SystemTime`, default-hasher `HashMap`/`HashSet` in library code |
//! | `counter-truncation` | narrowing `as u32`/`as usize`/… casts applied to cycle/byte counters |
//! | `panic-in-library` | `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | `unsafe-code` | any `unsafe` outside the allow-list (everywhere, including tests) |
//! | `swallowed-error` | `let _ = <fallible call>(…)` and bare `.ok();` in non-test library code (discards a Result) |
//! | `untracked-slice-taint` | a slice born from `as_slice_untracked` flowing into a function that indexes/iterates it (cross-file call-graph taint) |
//! | `counter-conservation` | `Counters`/`CategoryCycles` fields never written (dead) or never read outside the defining crate (unattributed) — impl blocks behind `type` aliases resolve to the underlying struct |
//! | `fault-tick-coverage` | cycle-charging functions in the fault-tick module set (`fault_tick`-defining files + `// sgx-lint: fault-tick-module` files) that never reach `fault_tick` |
//! | `calibration-provenance` | numeric constants in `// sgx-lint: calibration-file` files without a `paper:`/`uarch:` comment |
//! | `charge-escape` | compound cycle/clock/counter mutations in `// sgx-lint: charge-module` files that never reach `Core::commit` through the in-set call closure (a charge bypassing the choke point) |
//! | `des-invariant` | in `// sgx-lint: des-module` files: enqueued `*Kind` event variants without an explicit event-loop arm, `*Counters` field increments absent from every `reconcile` conservation check, and ambient entropy sources |
//!
//! The first six rules are token-level and per-file; the last six are
//! *semantic*: [`analyze_paths`] lexes and item-parses every file once,
//! builds a workspace-wide symbol table and call graph ([`graph`]), runs
//! the dataflow extraction ([`dataflow`]) where a rule needs def-use or
//! field-write detail, and runs the semantic pass ([`semantic`]) across
//! file boundaries.
//!
//! A finding is suppressed by an allow-marker comment on the same or the
//! preceding line, with a mandatory reason:
//!
//! ```text
//! // sgx-lint: allow(nondeterminism) insert-only set, iteration order never observed
//! ```
//!
//! Run as `cargo run -p sgx-lint -- [--format text|json] [--baseline
//! file.json] [paths...]` (default scan root: `crates`).
//! `--format json` renders through `sgx_bench_core::json` and is
//! byte-identical across runs; `--baseline` applies a checked-in waiver
//! file and reports stale entries as `stale-baseline` findings.
//!
//! The lint checks itself through one evaluation driver, [`robustness`].
//! Its two input sets — the labeled corpus (`sgx-lint robustness`) and
//! pinned clean workspace files (`sgx-lint selfcheck`, rendered by
//! [`selfcheck`]) — are cases of one type, scored with the same variant
//! plan, the same verdict and the same [`analyze_set`] entry point.
//!
//! Deliberately out of scope: `SimVec::peek`/`poke`. Those are the
//! documented single-element *setup* accessors (data generation,
//! verification) and the codebase uses them pervasively outside timed
//! regions; flagging them would drown the signal. The `as_slice_untracked`
//! rename exists precisely so the bulk escape hatch is grep- and
//! lint-visible while `peek`/`poke` stay cheap to audit by hand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dataflow;
pub mod engine;
pub mod graph;
pub mod parse;
pub mod robustness;
pub mod selfcheck;
pub mod semantic;
pub mod tokenizer;
pub mod variants;

pub use engine::{analyze_source, FileClass, FileReport, Finding, RULES};

use std::path::{Path, PathBuf};

/// Crates whose library code runs operator hot paths (subject to the
/// `untracked-access` rule).
pub const OPERATOR_CRATES: [&str; 5] =
    ["sgx-joins", "sgx-scans", "sgx-index", "sgx-tpch", "sgx-microbench"];

/// Classify a workspace-relative path the way the engine expects.
///
/// * anything under a `tests/`, `benches/` or `examples/` component (or a
///   `#[cfg(test)]` region, handled later by the engine) → [`FileClass::Test`]
/// * `src/bin/**` or `src/main.rs` → [`FileClass::Bin`]
/// * library code of an operator crate → [`FileClass::OperatorLib`]
/// * everything else → [`FileClass::Lib`]
pub fn classify(path: &Path) -> FileClass {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    if comps.iter().any(|c| matches!(*c, "tests" | "benches" | "examples" | "corpus")) {
        return FileClass::Test;
    }
    if comps.windows(2).any(|w| w == ["src", "bin"]) || comps.ends_with(&["src", "main.rs"]) {
        return FileClass::Bin;
    }
    let is_operator = comps
        .windows(2)
        .any(|w| w[0] == "crates" && OPERATOR_CRATES.contains(&w[1]));
    if is_operator {
        FileClass::OperatorLib
    } else {
        FileClass::Lib
    }
}

/// Collect all `.rs` files under `root` (or `root` itself if it is a
/// file), in deterministic lexicographic order, skipping `target/`,
/// `corpus/` and hidden directories.
pub fn collect_rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn walk(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else { return };
    let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if child.is_dir() && matches!(name, "target" | "corpus") || name.starts_with('.') {
            continue;
        }
        walk(&child, out);
    }
}

/// Analyze every `.rs` file under `roots`: the token rules per file plus
/// the semantic rules across the whole scanned set. Reports come back in
/// deterministic path order; within a file, findings are sorted by
/// (line, rule, message) and deduplicated. Paths are classified with
/// [`classify`].
pub fn analyze_paths(roots: &[PathBuf]) -> Vec<(PathBuf, FileReport)> {
    let mut entries: Vec<(PathBuf, FileClass, String)> = Vec::new();
    for root in roots {
        for file in collect_rust_files(root) {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            let class = classify(&file);
            entries.push((file, class, src));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|a, b| a.0 == b.0);
    analyze_set(entries, &semantic::Config::default())
}

/// Full analysis (token + semantic) of a set of in-memory files forming
/// one workspace, under an explicit semantic [`semantic::Config`] — the
/// entry point of [`analyze_paths`] and of the evaluation driver
/// ([`robustness`]), whose variant workspaces are one file or the parts of
/// a cross-file split, and whose `--weaken` knobs need a deliberately
/// degraded rule set. A one-file set runs the semantic rules in their
/// single-crate fallback modes. Reports come back in input order.
pub fn analyze_set(
    entries: Vec<(PathBuf, FileClass, String)>,
    cfg: &semantic::Config,
) -> Vec<(PathBuf, FileReport)> {
    let ws = graph::Workspace::build(entries);
    let mut reports: Vec<(PathBuf, FileReport)> = ws
        .files
        .iter()
        .map(|f| (f.path.clone(), engine::analyze_lexed(&f.label, f.class, &f.lexed)))
        .collect();
    for (fi, finding) in semantic::run_cfg(&ws, cfg) {
        let report = &mut reports[fi].1;
        if ws.allowed(fi, finding.line, &finding.rule) {
            report.suppressed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    for (_, report) in &mut reports {
        report.findings.sort();
        report.findings.dedup();
    }
    reports
}
