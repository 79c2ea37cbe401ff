//! # hdb-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6).
//! Each figure has a dedicated binary (`cargo run --release -p hdb-bench
//! --bin figXX_*`); `all_figures` runs the lot. Binaries accept
//! `--quick` (or `HDB_QUICK=1`) for a reduced-scale smoke run and write
//! CSVs under `results/`. The `scale0N_*` binaries also write a
//! machine-readable `BENCH_scale0N.json`: at the workspace root on a
//! full-scale run, under `results/` on a quick one
//! ([`output::write_bench_json`]).
//!
//! Criterion micro-benchmarks (`cargo bench`) live under `benches/` and
//! measure the substrate (query evaluation) and the estimators
//! (queries/walk, time/pass).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod experiments;
pub mod output;
pub mod runner;
pub mod scale;

pub use datasets::Datasets;
pub use scale::Scale;
