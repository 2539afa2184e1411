//! Command-line front ends: `all_figures` regenerates every paper
//! table and figure from the job registry (`all_figures --only <id>`
//! runs one), `record_goldens` rewrites the golden digests, and
//! `service_bench` drives the `sgx-serve` service model.
//!
//! The experiment logic itself lives in `sgx_bench_core::experiments` so
//! the workspace integration tests can exercise the same code paths on a
//! tiny profile.

#![forbid(unsafe_code)]
