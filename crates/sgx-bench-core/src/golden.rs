//! Golden digests for refactor-equivalence proofs.
//!
//! The layered-machine refactor (DESIGN.md §9) must not change the cost
//! model by a single bit. To prove that, the harness records one digest
//! per figure job from the *pre-refactor* tree — over the exact JSON
//! bytes of every emitted figure, the job's counter report, and the
//! job's cycle-attribution profile (`<job>.profile.json` bytes) — into
//! `tests/goldens/`, and `tests/integration_equivalence.rs` asserts that
//! post-refactor runs (sequential and parallel alike) reproduce them
//! exactly. The profile digest is the strictest of the three: it pins
//! the per-phase split of cycles across the nine `CostCategory` bins,
//! so a hot-path rewrite cannot silently move cost between bins.
//!
//! Digests are 64-bit FNV-1a (dependency-free, deterministic, and plenty
//! for drift *detection* — this is a regression tripwire, not a security
//! boundary), rendered as `fnv:<16 hex digits>` so a mismatch in a diff
//! is self-describing.

use crate::json::Value;
use crate::report::{profile_json, Figure};
use sgx_sim::{Counters, Profile};

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Render a digest as the `fnv:<hex>` form used in golden files.
pub fn digest_str(bytes: &[u8]) -> String {
    format!("fnv:{:016x}", fnv1a64(bytes))
}

/// Digest of one emitted figure: over its deterministic JSON bytes, which
/// cover id, title, axes, x values and every series value.
pub fn figure_digest(figure: &Figure) -> String {
    digest_str(figure.to_json().as_bytes())
}

/// Digest of a job's counter totals: over the `Counters::report()` text,
/// which lists every nonzero counter.
pub fn counters_digest(counters: &Counters) -> String {
    digest_str(counters.report().as_bytes())
}

/// Digest of a job's cycle-attribution profile: over the exact
/// `<job>.profile.json` bytes ([`profile_json`]), which cover every
/// phase's nine-bin cycle split and per-phase counters. Pins *where*
/// cycles land, not just their total — a hot-path rewrite that leaks
/// cycles from one `CostCategory` bin into another trips this digest
/// even when figures and counter totals stay intact.
pub fn profile_digest(job_id: &str, profile: &Profile) -> String {
    digest_str(profile_json(job_id, profile).as_bytes())
}

/// Golden record for one figure job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenJob {
    /// Job id from the registry.
    pub id: String,
    /// [`counters_digest`] of the job's per-job counter totals.
    pub counters: String,
    /// [`profile_digest`] of the job's cycle-attribution profile
    /// (recorded with `RunConfig::profile` on).
    pub profile: String,
    /// `(figure id, [`figure_digest`])` for every figure the job emitted,
    /// in emission order.
    pub figures: Vec<(String, String)>,
}

/// A full golden file: every registry job's digests under one profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Goldens {
    /// Human-readable description of the profile the digests were
    /// recorded under (must match the profile the equivalence test runs).
    pub profile: String,
    /// Per-job digests in registry order.
    pub jobs: Vec<GoldenJob>,
}

impl Goldens {
    /// Serialize to deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        let job = |j: &GoldenJob| {
            Value::Obj(vec![
                ("id".into(), Value::Str(j.id.clone())),
                ("counters".into(), Value::Str(j.counters.clone())),
                ("profile".into(), Value::Str(j.profile.clone())),
                (
                    "figures".into(),
                    Value::Arr(
                        j.figures
                            .iter()
                            .map(|(id, d)| {
                                Value::Obj(vec![
                                    ("id".into(), Value::Str(id.clone())),
                                    ("digest".into(), Value::Str(d.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        Value::Obj(vec![
            ("schema".into(), Value::Str("sgx-bench-goldens/2".into())),
            ("profile".into(), Value::Str(self.profile.clone())),
            ("jobs".into(), Value::Arr(self.jobs.iter().map(job).collect())),
        ])
        .pretty()
    }

    /// Parse a golden file written by [`Goldens::to_json`].
    pub fn from_json(text: &str) -> Result<Goldens, String> {
        let v = Value::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| "goldens missing \"schema\"".to_string())?;
        if schema != "sgx-bench-goldens/2" {
            return Err(format!("unsupported goldens schema {schema:?}"));
        }
        let profile = v
            .get("profile")
            .and_then(Value::as_str)
            .ok_or_else(|| "goldens missing \"profile\"".to_string())?
            .to_string();
        let jobs = v
            .get("jobs")
            .and_then(Value::as_arr)
            .ok_or_else(|| "goldens missing \"jobs\" array".to_string())?
            .iter()
            .map(|j| {
                let field = |key: &str| {
                    j.get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("golden job missing string field {key:?}"))
                };
                let figures = j
                    .get("figures")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| "golden job missing \"figures\"".to_string())?
                    .iter()
                    .map(|f| {
                        let id = f
                            .get("id")
                            .and_then(Value::as_str)
                            .ok_or_else(|| "golden figure missing \"id\"".to_string())?;
                        let digest = f
                            .get("digest")
                            .and_then(Value::as_str)
                            .ok_or_else(|| "golden figure missing \"digest\"".to_string())?;
                        Ok((id.to_string(), digest.to_string()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(GoldenJob {
                    id: field("id")?,
                    counters: field("counters")?,
                    profile: field("profile")?,
                    figures,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Goldens { profile, jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(digest_str(b"foobar"), "fnv:85944171f73967e8");
    }

    #[test]
    fn profile_digest_covers_exact_profile_json_bytes() {
        let p = Profile::default();
        assert_eq!(
            profile_digest("jobx", &p),
            digest_str(profile_json("jobx", &p).as_bytes()),
            "profile digest must be over the emitted artifact bytes"
        );
        // Job id participates (artifacts are per-job files).
        assert_ne!(profile_digest("jobx", &p), profile_digest("joby", &p));
    }

    #[test]
    fn goldens_roundtrip_byte_identically() {
        let g = Goldens {
            profile: "scale=512 reps=1".into(),
            jobs: vec![
                GoldenJob {
                    id: "fig04".into(),
                    counters: "fnv:0123456789abcdef".into(),
                    profile: "fnv:00000000000000cc".into(),
                    figures: vec![
                        ("fig04a".into(), "fnv:00000000000000aa".into()),
                        ("fig04b".into(), "fnv:00000000000000bb".into()),
                    ],
                },
                GoldenJob {
                    id: "fig07".into(),
                    counters: "fnv:ffffffffffffffff".into(),
                    profile: "fnv:00000000000000dd".into(),
                    figures: vec![],
                },
            ],
        };
        let j = g.to_json();
        let back = Goldens::from_json(&j).expect("roundtrip");
        assert_eq!(back, g);
        assert_eq!(back.to_json(), j, "goldens serialization must be byte-stable");
    }

    #[test]
    fn from_json_rejects_malformed_goldens() {
        assert!(Goldens::from_json("{}").is_err());
        assert!(Goldens::from_json("{\"schema\": \"other/1\", \"profile\": \"p\", \"jobs\": []}").is_err());
        // Schema 1 files (no per-job profile digest) must be re-recorded,
        // not silently half-parsed.
        assert!(Goldens::from_json("{\"schema\": \"sgx-bench-goldens/1\", \"profile\": \"p\", \"jobs\": []}").is_err());
        assert!(Goldens::from_json(
            "{\"schema\": \"sgx-bench-goldens/2\", \"profile\": \"p\", \"jobs\": [{\"id\": \"x\"}]}"
        )
        .is_err());
    }
}
