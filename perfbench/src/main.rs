//! `perfbench`: the repository's layered benchmark.
//!
//! ```text
//! perfbench --workload <walk_local|walk_fleet|form_openloop|ingest_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) records bench-side spans and reports the
//! per-layer metrics with their bases. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--smoke` shrinks every corpus and caps the run at one
//! second; it prints the same report and writes no file anywhere.
//! See `perfbench/README.md`.

mod alloc;
mod common;
mod gauge;
mod layers;
mod loadgen;
mod report;
mod spans;
mod spec;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::spans::Spans;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One run's settings, shared by every workload.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload's inputs (estimator, form queries, ingests).
    pub seed: u64,
    /// Measured time of the main phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Reduced corpora and a one-second cap; no files written.
    pub smoke: bool,
    /// Bench-side spans (disabled on untraced runs).
    pub spans: Spans,
    /// Scratch space for the durable store and the span dump, inside
    /// the checkout and removed (store) when the run ends.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `full` rows, or a tenth of them in smoke mode.
    pub fn rows(&self, full: usize) -> usize {
        if self.smoke {
            (full / 10).max(1_000)
        } else {
            full
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--workload" => workload = value,
            "--seed" => seed = value.and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = value.and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = value.and_then(|v| v.parse::<u8>().ok()),
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => return usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) =
        (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !workloads::NAMES.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let traced = trace == 1;
    let out_dir = PathBuf::from("perfbench").join("out");
    let ctx = Ctx {
        seconds: if smoke { seconds.min(1.0) } else { seconds },
        workload,
        seed,
        traced,
        smoke,
        spans: Spans::new(traced),
        out_dir,
    };
    gauge::init(!traced);
    let report = workloads::run(&ctx);
    report.print_human(&ctx.workload, traced);
    let samples = gauge::get().samples();
    if !samples.is_empty() {
        eprintln!(
            "  host gauge: {} samples, median {:.1} us (min {:.1}, max {:.1}); \
             times above are scaled to {:.1} us",
            samples.len(),
            util::median(&samples) / 1e3,
            util::quantile(&samples, 0.0) / 1e3,
            util::quantile(&samples, 1.0) / 1e3,
            gauge::REFERENCE_NS / 1e3
        );
    }
    if traced && !smoke {
        let path = ctx
            .out_dir
            .join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
        match ctx.spans.write_jsonl(&path) {
            Ok(()) => eprintln!("  spans: {} written to {}", ctx.spans.len(), path.display()),
            Err(e) => eprintln!("  spans: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json_line(traced));
    ExitCode::SUCCESS
}
