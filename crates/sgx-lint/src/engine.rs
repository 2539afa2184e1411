//! Rule engine: applies the six model-integrity rules to a tokenized
//! file, honoring `#[cfg(test)]` regions and allow-markers.

use crate::tokenizer::{tokenize, Comment, Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// The rule names, in reporting order. The first six are token-level
/// (this module); the last six are semantic, backed by the cross-file
/// call graph ([`crate::semantic`]) and the dataflow extraction
/// ([`crate::dataflow`]).
pub const RULES: [&str; 12] = [
    "untracked-access",
    "nondeterminism",
    "counter-truncation",
    "panic-in-library",
    "unsafe-code",
    "swallowed-error",
    "untracked-slice-taint",
    "counter-conservation",
    "fault-tick-coverage",
    "calibration-provenance",
    "charge-escape",
    "des-invariant",
];

/// Pseudo-rule reported for malformed/unknown allow-markers. Not
/// suppressible — the fix is to correct the marker.
pub const BAD_MARKER: &str = "bad-allow-marker";

/// How a file's code is used — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of an operator crate (joins/scans/index/tpch/microbench).
    OperatorLib,
    /// Library code of any other crate (sim, bench-core, lint itself).
    Lib,
    /// Binary code (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Test/bench/example code (plus `#[cfg(test)]` regions of any file).
    Test,
}

/// One lint finding. The derived ordering (path, line, rule, message) is
/// the canonical report order; identical findings dedupe away.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File the finding is in (as passed to the analyzer).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULES`] or [`BAD_MARKER`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Per-file analysis result.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived allow-marker suppression.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a reasoned allow-marker.
    pub suppressed: usize,
}

/// Parsed `sgx-lint:` markers of one file.
#[derive(Debug, Default)]
pub(crate) struct Markers {
    /// Well-formed `allow(<rule>) <reason>` markers as `(line, rule)`.
    pub allows: Vec<(u32, String)>,
    /// File carries the `calibration-file` pragma (opts into the
    /// calibration-provenance rule).
    pub calibration_file: bool,
    /// File carries the `fault-tick-module` pragma (joins the
    /// fault-tick-coverage module set even without defining `fault_tick`).
    pub fault_tick_module: bool,
    /// File carries the `charge-module` pragma (joins the charge-escape
    /// module set: every compound cycle/clock/counter mutation must reach
    /// `commit` through in-set call chains).
    pub charge_module: bool,
    /// File carries the `des-module` pragma (opts into the des-invariant
    /// rule: event totality, counter↔reconcile coverage, no ambient
    /// entropy).
    pub des_module: bool,
}

/// Parse `sgx-lint:` markers out of the comments; malformed markers become
/// findings immediately.
pub(crate) fn parse_markers(
    path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Markers {
    let mut markers = Markers::default();
    for c in comments {
        // Only comments that *start* with the marker count — prose that
        // merely mentions the syntax (docs, this file) is not a marker.
        let Some(rest) = c.text.trim_start().strip_prefix("sgx-lint:") else { continue };
        let rest = rest.trim_start();
        let bad = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: BAD_MARKER.to_string(),
                message: msg.to_string(),
            });
        };
        // File pragma: marks a calibration file whose numeric constants
        // must carry `paper:`/`uarch:` provenance comments.
        if rest == "calibration-file" || rest.starts_with("calibration-file ") {
            markers.calibration_file = true;
            continue;
        }
        // File pragma: opts the file into the fault-tick-coverage module
        // set (cycle-charging layers of a split-up machine).
        if rest == "fault-tick-module" || rest.starts_with("fault-tick-module ") {
            markers.fault_tick_module = true;
            continue;
        }
        // File pragma: opts the file into the charge-escape module set
        // (layers whose cycle charges must flow through `commit`).
        if rest == "charge-module" || rest.starts_with("charge-module ") {
            markers.charge_module = true;
            continue;
        }
        // File pragma: opts the file into the des-invariant rule (the
        // deterministic discrete-event service engine).
        if rest == "des-module" || rest.starts_with("des-module ") {
            markers.des_module = true;
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("marker must be `sgx-lint: allow(<rule>) <reason>` or a file pragma (`sgx-lint: calibration-file`, `fault-tick-module`, `charge-module`, `des-module`)", findings);
            continue;
        };
        let Some(close) = args.find(')') else {
            bad("allow-marker missing closing parenthesis", findings);
            continue;
        };
        let rule = args[..close].trim();
        let reason = args[close + 1..].trim();
        if !RULES.contains(&rule) {
            bad(&format!("unknown rule {rule:?} in allow-marker"), findings);
            continue;
        }
        if reason.is_empty() {
            bad(&format!("allow({rule}) marker needs a reason"), findings);
            continue;
        }
        markers.allows.push((c.line, rule.to_string()));
    }
    markers
}

/// Mark tokens inside `#[cfg(test)] … { … }` regions and `#[test] fn`
/// bodies as test code.
pub(crate) fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let is = |t: &Tok, s: &str| t.kind == TokKind::Ident && t.text == s;
    let p = |t: &Tok, c: u8| t.kind == TokKind::Punct(c);
    let mut i = 0usize;
    while i < toks.len() {
        // `#[cfg(test)]` or `#[test]` (also matches inside larger attr
        // lists like `#[cfg(test)]`-gated impls).
        let cfg_test = i + 6 < toks.len()
            && p(&toks[i], b'#')
            && p(&toks[i + 1], b'[')
            && is(&toks[i + 2], "cfg")
            && p(&toks[i + 3], b'(')
            && is(&toks[i + 4], "test")
            && p(&toks[i + 5], b')')
            && p(&toks[i + 6], b']');
        let plain_test = i + 3 < toks.len()
            && p(&toks[i], b'#')
            && p(&toks[i + 1], b'[')
            && is(&toks[i + 2], "test")
            && p(&toks[i + 3], b']');
        if cfg_test || plain_test {
            // Skip forward to the next `{` and mask the balanced region.
            let mut j = i;
            while j < toks.len() && !p(&toks[j], b'{') {
                mask[j] = true;
                j += 1;
            }
            let mut depth = 0i32;
            while j < toks.len() {
                mask[j] = true;
                if p(&toks[j], b'{') {
                    depth += 1;
                } else if p(&toks[j], b'}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Narrow integer types whose `as` casts truncate u64 counters.
pub(crate) const NARROW_INTS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Method/function names that conventionally return `Result` in this
/// workspace and std — discarding them with `let _ =` swallows the error.
/// Names like `get` that are usually infallible are deliberately absent;
/// the rule trades recall for a zero false-positive corpus.
pub(crate) const FALLIBLE_CALLS: [&str; 16] = [
    "parse",
    "write",
    "write_all",
    "writeln",
    "flush",
    "sync_all",
    "create_dir_all",
    "remove_file",
    "remove_dir_all",
    "rename",
    "copy",
    "send",
    "recv",
    "from_json",
    "read_to_string",
    "read_exact",
];

/// Is the identifier at `i` actually invoked — `name(` or turbofish
/// `name::<T>(`? Bounded lookahead so a stray `<` cannot run away.
fn is_called(toks: &[Tok], i: usize) -> bool {
    let p = |t: &Tok, c: u8| t.kind == TokKind::Punct(c);
    if toks.get(i + 1).is_some_and(|t| p(t, b'(')) {
        return true;
    }
    // `name :: < ... > (`
    if !(toks.get(i + 1).is_some_and(|t| p(t, b':'))
        && toks.get(i + 2).is_some_and(|t| p(t, b':'))
        && toks.get(i + 3).is_some_and(|t| p(t, b'<')))
    {
        return false;
    }
    let mut depth = 0i32;
    for j in i + 3..(i + 24).min(toks.len()) {
        if p(&toks[j], b'<') {
            depth += 1;
        } else if p(&toks[j], b'>') {
            depth -= 1;
            if depth == 0 {
                return toks.get(j + 1).is_some_and(|t| p(t, b'('));
            }
        }
    }
    false
}

/// Backward scan from the `.` of a trailing `.ok();`: is the expression a
/// whole discarded statement (true), or is its value bound/returned
/// (false)? Statement boundaries are `;`/`{`/`}`; any `=`, `let`,
/// `return`, `break`, or `match`/closure arrow on the way means the value
/// is consumed.
fn statement_discards(toks: &[Tok], dot: usize) -> bool {
    let p = |t: &Tok, c: u8| t.kind == TokKind::Punct(c);
    let mut k = dot;
    for _ in 0..200 {
        if k == 0 {
            return true;
        }
        k -= 1;
        let t = &toks[k];
        if p(t, b';') || p(t, b'{') || p(t, b'}') {
            return true;
        }
        if p(t, b'=')
            || (t.kind == TokKind::Ident && matches!(t.text.as_str(), "let" | "return" | "break"))
        {
            return false;
        }
    }
    false
}

/// Does this identifier plausibly name a cycle/byte counter?
pub(crate) fn counter_ish(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    l.contains("cycle") || l.contains("counter") || l.contains("bytes") || l == "elapsed"
}

/// Analyze one file's source with the token-level rules. `path` is only
/// used for labeling findings. Semantic rules are NOT run here — use
/// [`crate::analyze_set`] or [`crate::analyze_paths`] for the full
/// pass.
pub fn analyze_source(path: &str, class: FileClass, src: &str) -> FileReport {
    analyze_lexed(path, class, &tokenize(src))
}

/// Token-rule pass over an already-lexed file (so workspace scans lex each
/// file exactly once).
pub fn analyze_lexed(path: &str, class: FileClass, lexed: &Lexed) -> FileReport {
    let toks = &lexed.tokens;
    let in_test = test_mask(toks);
    let mut raw: Vec<Finding> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let markers = parse_markers(path, &lexed.comments, &mut findings);

    let hit = |raw: &mut Vec<Finding>, line: u32, rule: &str, message: String| {
        raw.push(Finding { path: path.to_string(), line, rule: rule.to_string(), message });
    };
    let is = |t: &Tok, s: &str| t.kind == TokKind::Ident && t.text == s;
    let p = |t: &Tok, c: u8| t.kind == TokKind::Punct(c);

    let lib_like = matches!(class, FileClass::OperatorLib | FileClass::Lib | FileClass::Bin);
    let panic_applies = matches!(class, FileClass::OperatorLib | FileClass::Lib);

    for (i, t) in toks.iter().enumerate() {
        // unsafe-code applies everywhere, including test regions.
        if is(t, "unsafe") {
            hit(&mut raw, t.line, "unsafe-code", "`unsafe` block/fn/impl — the simulator workspace is safe Rust by contract".into());
            continue;
        }
        if in_test[i] || class == FileClass::Test {
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // --- untracked-access (operator library code only) ---
            "as_slice_untracked" | "as_mut_slice_untracked" if class == FileClass::OperatorLib => {
                hit(
                    &mut raw,
                    t.line,
                    "untracked-access",
                    format!(
                        "`{}` bypasses the SimVec event stream — operator hot paths must use charged accessors (get/set/stream_*)",
                        t.text
                    ),
                );
            }
            // --- nondeterminism (all non-test code) ---
            "thread_rng" | "ThreadRng" | "from_entropy" | "random_seed" if lib_like => {
                hit(&mut raw, t.line, "nondeterminism", format!("`{}` draws OS entropy — seed a `StdRng::seed_from_u64` instead so runs are reproducible", t.text));
            }
            "Instant" | "SystemTime" if lib_like => {
                hit(&mut raw, t.line, "nondeterminism", format!("`{}` reads the wall clock — the cycle model, not host time, is the measurement instrument", t.text));
            }
            "HashMap" | "HashSet" if lib_like => {
                hit(&mut raw, t.line, "nondeterminism", format!("default-hasher `{}` has run-dependent iteration order (RandomState) — use BTreeMap/BTreeSet or annotate why order is never observed", t.text));
            }
            "RandomState" if lib_like => {
                hit(&mut raw, t.line, "nondeterminism", "`RandomState` is seeded from OS entropy per process".into());
            }
            // --- counter-truncation (all non-test code) ---
            "as" if lib_like => {
                let Some(ty) = toks.get(i + 1) else { continue };
                if ty.kind != TokKind::Ident || !NARROW_INTS.contains(&ty.text.as_str()) {
                    continue;
                }
                // Look back a short window on the same statement for a
                // counter-ish identifier feeding the cast.
                let mut k = i;
                let mut seen = 0;
                let mut culprit: Option<&str> = None;
                while k > 0 && seen < 8 {
                    k -= 1;
                    let prev = &toks[k];
                    if prev.line != t.line || matches!(prev.kind, TokKind::Punct(b';') | TokKind::Punct(b'{')) {
                        break;
                    }
                    if prev.kind == TokKind::Ident {
                        seen += 1;
                        if counter_ish(&prev.text) {
                            culprit = Some(&prev.text);
                            break;
                        }
                    }
                }
                if let Some(name) = culprit {
                    hit(
                        &mut raw,
                        t.line,
                        "counter-truncation",
                        format!("`{name} as {}` narrows a u64 cycle/byte counter — keep counters 64-bit (or cast to f64 for ratios)", ty.text),
                    );
                }
            }
            // --- panic-in-library (library code only) ---
            "unwrap" | "expect" if panic_applies => {
                // Method position only: `.unwrap(` / `.expect(`.
                let dotted = i > 0 && p(&toks[i - 1], b'.');
                let called = toks.get(i + 1).is_some_and(|n| p(n, b'('));
                if dotted && called {
                    hit(&mut raw, t.line, "panic-in-library", format!("`.{}()` can panic in library code — propagate a Result or document the invariant with an allow-marker", t.text));
                }
            }
            "panic" | "todo" | "unimplemented"
                if panic_applies && toks.get(i + 1).is_some_and(|n| p(n, b'!')) =>
            {
                hit(&mut raw, t.line, "panic-in-library", format!("`{}!` aborts the simulation from library code — return an error or document why it is unreachable", t.text));
            }
            // --- swallowed-error (library code only) ---
            // Pattern A: `let _ = <fallible call>(...);` discards a Result.
            "let" if panic_applies => {
                let underscore = toks.get(i + 1).is_some_and(|n| is(n, "_"));
                let assigned = toks.get(i + 2).is_some_and(|n| p(n, b'='));
                if !(underscore && assigned) {
                    continue;
                }
                for j in i + 3..(i + 64).min(toks.len()) {
                    if p(&toks[j], b';') {
                        break;
                    }
                    if toks[j].kind != TokKind::Ident {
                        continue;
                    }
                    // `write!`/`writeln!` into a String are infallible fmt
                    // macros — a macro invocation is not a fallible call.
                    if toks.get(j + 1).is_some_and(|n| p(n, b'!')) {
                        continue;
                    }
                    let name = toks[j].text.as_str();
                    let fallible = FALLIBLE_CALLS.contains(&name) || name.starts_with("try_");
                    if fallible && is_called(toks, j) {
                        hit(
                            &mut raw,
                            t.line,
                            "swallowed-error",
                            format!("`let _ = …{name}(…)` discards a Result in library code — handle the error or add a reasoned allow-marker"),
                        );
                        break;
                    }
                }
            }
            // Pattern B: a bare trailing `.ok();` swallows a Result.
            "ok" if panic_applies => {
                let dotted = i > 0 && p(&toks[i - 1], b'.');
                let bare_call = toks.get(i + 1).is_some_and(|n| p(n, b'('))
                    && toks.get(i + 2).is_some_and(|n| p(n, b')'))
                    && toks.get(i + 3).is_some_and(|n| p(n, b';'));
                if dotted && bare_call && statement_discards(toks, i - 1) {
                    hit(
                        &mut raw,
                        t.line,
                        "swallowed-error",
                        "bare `.ok();` silently swallows a Result in library code — handle the error or add a reasoned allow-marker".into(),
                    );
                }
            }
            _ => {}
        }
    }

    // Apply allow-markers: a marker suppresses findings of its rule on the
    // marker's own line and the line directly below it.
    let mut allowed: BTreeMap<(u32, &str), ()> = BTreeMap::new();
    for (line, rule) in &markers.allows {
        allowed.insert((*line, rule.as_str()), ());
        allowed.insert((*line + 1, rule.as_str()), ());
    }
    let mut suppressed = 0usize;
    for f in raw {
        if allowed.contains_key(&(f.line, f.rule.as_str())) {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    FileReport { findings, suppressed }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(report: &FileReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn untracked_access_only_in_operator_crates() {
        let src = "pub fn hot(v: &SimVec<u32>) -> u32 { v.as_slice_untracked()[0] }";
        let op = analyze_source("x.rs", FileClass::OperatorLib, src);
        assert_eq!(rules_of(&op), ["untracked-access"]);
        let lib = analyze_source("x.rs", FileClass::Lib, src);
        assert!(lib.findings.is_empty(), "sim-internal use is legitimate");
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let src = "\
// sgx-lint: allow(nondeterminism) insert-only set, order never observed
use std::collections::HashSet;
";
        let r = analyze_source("x.rs", FileClass::Lib, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn marker_without_reason_is_a_finding() {
        let src = "let x = 1; // sgx-lint: allow(unsafe-code)\n";
        let r = analyze_source("x.rs", FileClass::Lib, src);
        assert_eq!(rules_of(&r), [BAD_MARKER]);
        let unk = analyze_source("x.rs", FileClass::Lib, "// sgx-lint: allow(no-such-rule) because\n");
        assert_eq!(rules_of(&unk), [BAD_MARKER]);
    }

    #[test]
    fn cfg_test_regions_are_exempt_except_unsafe() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f() { let t = std::time::Instant::now(); t.elapsed(); x.unwrap(); }
}
";
        let r = analyze_source("x.rs", FileClass::Lib, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let with_unsafe = format!("{src}\n#[cfg(test)]\nmod t2 {{ fn g() {{ unsafe {{ }} }} }}\n");
        let r2 = analyze_source("x.rs", FileClass::Lib, &with_unsafe);
        assert_eq!(rules_of(&r2), ["unsafe-code"]);
    }

    #[test]
    fn counter_truncation_needs_a_counter_ish_source() {
        let flagged = analyze_source(
            "x.rs",
            FileClass::Lib,
            "fn f(c: &Counters) -> u32 { c.cycles as u32 }",
        );
        assert_eq!(rules_of(&flagged), ["counter-truncation"]);
        let fine = analyze_source("x.rs", FileClass::Lib, "fn f(i: u64) -> usize { i as usize }");
        assert!(fine.findings.is_empty());
        let f64_ok =
            analyze_source("x.rs", FileClass::Lib, "fn f(c: u64) -> f64 { c.cycles as f64 }");
        assert!(f64_ok.findings.is_empty());
    }

    #[test]
    fn panic_rule_details() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(rules_of(&analyze_source("x.rs", FileClass::Lib, src)), ["panic-in-library"]);
        assert!(analyze_source("x.rs", FileClass::Bin, src).findings.is_empty());
        // `unwrap_or` must not match.
        let or = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }";
        assert!(analyze_source("x.rs", FileClass::Lib, or).findings.is_empty());
        let mac = "fn f() { panic!(\"boom\") }";
        assert_eq!(rules_of(&analyze_source("x.rs", FileClass::Lib, mac)), ["panic-in-library"]);
    }

    #[test]
    fn swallowed_error_fires_on_discarded_results() {
        let direct = "fn f(s: &str) { let _ = s.parse::<u32>(); }";
        assert_eq!(rules_of(&analyze_source("x.rs", FileClass::Lib, direct)), ["swallowed-error"]);
        let io = "fn f(mut w: impl std::io::Write, b: &[u8]) { let _ = w.write_all(b); }";
        assert_eq!(rules_of(&analyze_source("x.rs", FileClass::Lib, io)), ["swallowed-error"]);
        let try_prefix = "fn f(m: &Machine) { let _ = m.try_reserve(4); }";
        assert_eq!(
            rules_of(&analyze_source("x.rs", FileClass::Lib, try_prefix)),
            ["swallowed-error"]
        );
        let bare_ok = "fn f() { std::fs::remove_file(\"x\").ok(); }";
        assert_eq!(rules_of(&analyze_source("x.rs", FileClass::Lib, bare_ok)), ["swallowed-error"]);
    }

    #[test]
    fn swallowed_error_stays_silent_on_legitimate_discards() {
        // fmt::Write into a String is infallible — the idiom all through
        // report.rs.
        let fmt = "fn f(out: &mut String) { let _ = writeln!(out, \"x\"); let _ = write!(out, \"y\"); }";
        assert!(analyze_source("x.rs", FileClass::Lib, fmt).findings.is_empty());
        // Charged-access discard: `get` is not a fallible call.
        let charged = "fn f(c: &mut Core, v: &SimVec<u64>) { let _ = v.get(c, 0); }";
        assert!(analyze_source("x.rs", FileClass::Lib, charged).findings.is_empty());
        // Bound `.ok()` converts, it does not swallow.
        let bound = "fn f(s: &str) -> Option<u32> { let v = s.parse().ok(); v }";
        assert!(analyze_source("x.rs", FileClass::Lib, bound).findings.is_empty());
        let returned = "fn f(s: &str) -> Option<u32> { return s.parse().ok(); }";
        assert!(analyze_source("x.rs", FileClass::Lib, returned).findings.is_empty());
        // Binaries and tests are out of scope.
        let src = "fn f(s: &str) { let _ = s.parse::<u32>(); }";
        assert!(analyze_source("x.rs", FileClass::Bin, src).findings.is_empty());
        assert!(analyze_source("x.rs", FileClass::Test, src).findings.is_empty());
        // A reasoned allow-marker suppresses.
        let allowed = "\
// sgx-lint: allow(swallowed-error) best-effort cleanup, failure is benign
fn f() { std::fs::remove_file(\"x\").ok(); }
";
        let r = analyze_source("x.rs", FileClass::Lib, allowed);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn string_and_comment_content_never_fires() {
        let src = "// thread_rng Instant unsafe unwrap\nfn f() -> &'static str { \"HashMap panic! unsafe\" }";
        let r = analyze_source("x.rs", FileClass::Lib, src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
