//! Self-consistency fuzz: the evaluation driver ([`crate::robustness`])
//! turned on the workspace's *own* sources.
//!
//! The `robustness` subcommand scores the labeled corpus, where every case
//! has a known verdict. `selfcheck` feeds the same driver a pinned set of
//! *clean* workspace files instead ([`crate::robustness::load_pinned`]),
//! every one expected [`Silent`](crate::robustness::Expect::Silent). The
//! invariant is one-sided but sharp: every transform in
//! [`crate::variants`] is semantics-preserving, so if a variant of a clean
//! file produces any finding, that finding is a rule **false positive** by
//! construction — no labeling required. CI runs this over a small pinned
//! subset ([`DEFAULT_FILES`]) so a rule change that starts keying on
//! incidental syntax (a name, an item order, a line adjacency) fails
//! loudly. This module only renders the driver's case outcomes as the
//! `sgx-lint-selfcheck/1` report.

use crate::engine::Finding;
use crate::robustness::{CaseOutcome, Report, SEED};
use sgx_bench_core::json::Value;

/// The pinned CI subset: small, dependency-light library files that are
/// clean under solo analysis and exercise distinct rule families
/// (counter structs, percentile math, service spec/DES config types,
/// the variant generator's own RNG). `numa.rs` and `des.rs` are
/// deliberately marker- and pragma-bearing (charge-module with an
/// allow(charge-escape) waiver; des-module): they prove the transforms
/// keep marker/pragma adjacency intact. `cache.rs` and `fastdiv.rs`
/// cover the hot path's recency-ordered cache sets and the Lemire-style
/// fastmod helper. Kept deliberately short — the full
/// workspace sweep is a manual `sgx-lint selfcheck crates/...` away.
pub const DEFAULT_FILES: [&str; 8] = [
    "crates/sgx-serve/src/counters.rs",
    "crates/sgx-serve/src/spec.rs",
    "crates/sgx-serve/src/costs.rs",
    "crates/sgx-bench-core/src/percentile.rs",
    "crates/sgx-sim/src/machine/numa.rs",
    "crates/sgx-serve/src/des.rs",
    "crates/sgx-sim/src/cache.rs",
    "crates/sgx-sim/src/fastdiv.rs",
];

/// Every finding on a variant of a clean file, as `(file, variant label,
/// finding)` in case, plan and finding order.
fn false_positives(report: &Report) -> Vec<(&str, &str, &Finding)> {
    let mut out = Vec::new();
    for case in &report.cases {
        for v in case.groups.iter().flat_map(|g| &g.variants) {
            out.extend(v.noise.iter().map(|f| (case.name.as_str(), v.label.as_str(), f)));
        }
    }
    out
}

/// `(variants, clean variants)` of one case.
fn tally(case: &CaseOutcome) -> (usize, usize) {
    let variants = case.groups.iter().flat_map(|g| &g.variants);
    (variants.clone().count(), variants.filter(|v| v.ok).count())
}

/// Process exit code: 0 when every variant stayed clean, 1 on any rule
/// false positive.
pub fn exit_code(report: &Report) -> u8 {
    u8::from(!false_positives(report).is_empty())
}

/// Aligned text rendering.
pub fn table(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!("sgx-lint selfcheck — seed {SEED}\n"));
    let mut total = 0;
    for case in &report.cases {
        let (variants, clean) = tally(case);
        total += variants;
        out.push_str(&format!("  {:<48} {variants:>3} variants, {clean:>3} clean\n", case.name));
    }
    let fps = false_positives(report);
    if fps.is_empty() {
        out.push_str(&format!(
            "{total} variants of {} clean files: no rule false positives\n",
            report.cases.len()
        ));
    } else {
        out.push_str(&format!("{} rule false positive(s):\n", fps.len()));
        for (file, variant, f) in fps {
            out.push_str(&format!(
                "  {file} :: {variant} :: [{}] line {}: {}\n",
                f.rule, f.line, f.message
            ));
        }
    }
    out
}

/// Deterministic JSON rendering through [`sgx_bench_core::json`].
pub fn json(report: &Report) -> Value {
    let mut total = 0;
    let files: Vec<Value> = report
        .cases
        .iter()
        .map(|case| {
            let (variants, clean) = tally(case);
            total += variants;
            Value::Obj(vec![
                ("file".into(), Value::Str(case.name.clone())),
                ("variants".into(), Value::Num(variants as f64)),
                ("clean".into(), Value::Num(clean as f64)),
            ])
        })
        .collect();
    let fps: Vec<Value> = false_positives(report)
        .into_iter()
        .map(|(file, variant, f)| {
            Value::Obj(vec![
                ("file".into(), Value::Str(file.to_string())),
                ("variant".into(), Value::Str(variant.to_string())),
                ("rule".into(), Value::Str(f.rule.clone())),
                ("line".into(), Value::Num(f.line as f64)),
                ("message".into(), Value::Str(f.message.clone())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str("sgx-lint-selfcheck/1".into())),
        ("seed".into(), Value::Num(SEED as f64)),
        ("files".into(), Value::Arr(files)),
        ("variants".into(), Value::Num(total as f64)),
        ("false_positives".into(), Value::Arr(fps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::{self, Expect, GroupOutcome, Options, VariantOutcome};
    use std::path::PathBuf;

    fn repo_root() -> PathBuf {
        // crates/sgx-lint -> workspace root.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn run(files: &[PathBuf]) -> Result<Report, String> {
        robustness::run(&robustness::load_pinned(files)?, &Options::default())
    }

    fn default_report() -> Report {
        let paths: Vec<PathBuf> = DEFAULT_FILES.iter().map(|f| repo_root().join(f)).collect();
        run(&paths).expect("preconditions hold")
    }

    fn variants(report: &Report) -> usize {
        report.cases.iter().map(|c| tally(c).0).sum()
    }

    #[test]
    fn pinned_workspace_files_survive_the_fuzz() {
        let report = default_report();
        assert_eq!(report.cases.len(), DEFAULT_FILES.len());
        assert!(variants(&report) >= 3 * DEFAULT_FILES.len(), "too few variants generated");
        assert_eq!(
            exit_code(&report),
            0,
            "rule false positives on clean workspace variants:\n{}",
            table(&report)
        );
    }

    #[test]
    fn report_is_deterministic_and_renders_both_formats() {
        let a = default_report();
        let b = default_report();
        assert_eq!(table(&a), table(&b));
        assert_eq!(json(&a).pretty(), json(&b).pretty());
        assert!(json(&a).pretty().contains("\"schema\": \"sgx-lint-selfcheck/1\""));
    }

    #[test]
    fn dirty_files_are_rejected_but_marker_bearing_files_are_fuzzed() {
        let dir = std::env::temp_dir().join("sgx_lint_selfcheck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dirty = dir.join("lib.rs");
        std::fs::write(&dirty, "pub fn f(x: Option<u64>) -> u64 { x.unwrap() }\n").unwrap();
        let err = run(&[dirty]).unwrap_err();
        assert!(err.contains("not clean"), "unexpected error: {err}");

        // A file whose cleanliness *depends* on an allow-marker is in
        // scope: the transforms keep marker adjacency, so every variant
        // must stay suppressed too.
        let marked = dir.join("marked.rs");
        std::fs::write(
            &marked,
            "// sgx-lint: allow(panic-in-library) test fixture\npub fn f(x: Option<u64>) -> u64 { x.unwrap() }\npub fn g() -> u64 { 1 }\npub fn h() -> u64 { g() + 1 }\n",
        )
        .unwrap();
        let report = run(&[marked]).expect("marker-bearing file is accepted");
        assert_eq!(
            exit_code(&report),
            0,
            "marker adjacency broke under a transform:\n{}",
            table(&report)
        );
        assert!(variants(&report) > 0);

        assert!(run(&[dir.join("missing.rs")]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn an_injected_false_positive_is_reported() {
        // One clean variant and one `Silent` variant that drew a finding:
        // the rendered report must name that variant and exit 1.
        let finding = Finding {
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "nondeterminism".into(),
            message: "injected".into(),
        };
        let variant = |label: &str, noise: Vec<Finding>| VariantOutcome {
            label: label.into(),
            ok: noise.is_empty(),
            noise,
        };
        let report = Report {
            weaken: Vec::new(),
            cases: vec![CaseOutcome {
                name: "crates/x/src/lib.rs".into(),
                expect: Expect::Silent,
                base_ok: true,
                groups: vec![GroupOutcome {
                    kind: "wrap",
                    variants: vec![
                        variant("wrap[d1]", Vec::new()),
                        variant("wrap[d2]", vec![finding]),
                    ],
                }],
            }],
        };
        assert_eq!(exit_code(&report), 1);
        let text = table(&report);
        assert!(text.contains("2 variants,   1 clean"), "{text}");
        assert!(
            text.contains("crates/x/src/lib.rs :: wrap[d2] :: [nondeterminism] line 7: injected"),
            "{text}"
        );
        let doc = json(&report);
        let fps = doc.get("false_positives").and_then(Value::as_arr).expect("false_positives");
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].get("variant").and_then(Value::as_str), Some("wrap[d2]"));
        assert_eq!(fps[0].get("rule").and_then(Value::as_str), Some("nondeterminism"));
    }
}
