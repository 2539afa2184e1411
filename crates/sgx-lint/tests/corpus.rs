//! Tier-1 guard: the labeled corpus must score perfectly.
//!
//! Every `corpus/positive/<rule>_<n>.rs` case must trigger its labeled
//! rule (a miss is a false negative) and every `corpus/negative/*.rs`
//! case must produce zero findings of any rule (each finding is a false
//! positive). The corpus score is the base columns of the robustness
//! report, so any FN or FP fails this test and rule regressions surface
//! in `cargo test` before they surface as noise in the workspace lint.

use std::path::Path;

use sgx_lint::robustness::{load_corpus, run, Options};

#[test]
fn corpus_scores_perfectly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let cases = load_corpus(&dir).unwrap_or_else(|e| panic!("corpus unreadable: {e}"));
    let report = run(&cases, &Options::default()).unwrap_or_else(|e| panic!("corpus unscored: {e}"));
    assert!(
        report.cases.len() >= 50,
        "corpus shrank ({} cases); token rules need ~3+3 each and semantic rules ~2+2 each",
        report.cases.len()
    );
    let per_rule = report.per_rule();
    for rule in sgx_lint::RULES {
        let tp = per_rule.get(rule).map_or(0, |r| r.tp);
        assert!(tp >= 1, "rule `{rule}` has no firing positive corpus case:\n{}", report.table());
    }
    assert!(report.base_misses().is_empty(), "corpus regression:\n{}", report.table());
}
