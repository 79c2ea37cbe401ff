//! The four workloads. Each returns one [`Report`]: end-to-end metrics
//! on an untraced run, per-layer metrics on a traced run, and the
//! output checks either way.

mod form_openloop;
mod ingest_mixed;
mod walk_fleet;
mod walk_local;

pub use form_openloop::digest;

use crate::common::{Durable, IoStats, Passes};
use crate::report::Report;
use crate::util::{median, peak_rss_mb, quantile, ratio};
use crate::Ctx;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["walk_local", "walk_fleet", "form_openloop", "ingest_mixed"];

/// Runs the workload `ctx` names.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = match ctx.workload.as_str() {
        "walk_local" => walk_local::run(ctx),
        "walk_fleet" => walk_fleet::run(ctx),
        "form_openloop" => form_openloop::run(ctx),
        _ => ingest_mixed::run(ctx),
    };
    report.e2e(
        "ok_fraction",
        1.0 - ratio(report.failed as f64, report.attempted.max(1) as f64),
        "fraction",
        format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ),
    );
    report
}

/// `peak_rss_mb`, read as a workload's main phase ends: set-up and the
/// main phase count; the output checks and durable restarts that follow
/// (and the reference copies of the corpus they build) do not.
pub fn main_phase_peak(r: &mut Report) {
    r.e2e(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM at the end of the main phase".into(),
    );
}

/// The end-to-end metrics of replayed estimator passes.
pub fn pass_metrics(r: &mut Report, passes: &Passes, limit_us: f64) {
    let timed = passes.pass_ns.len();
    let windows = passes.window_rates.len();
    r.e2e(
        "probes_per_s",
        median(&passes.window_rates),
        "1/s",
        format!(
            "median over {windows} windows of {} timed passes of probes per pass-second",
            crate::spec::RATE_WINDOW_PASSES
        ),
    );
    r.e2e(
        "pass_ms_p50",
        median(&passes.pass_ms()),
        "ms",
        format!("p50 of {timed} timed passes"),
    );
    r.e2e(
        "queries_per_pass",
        passes.queries_per_pass(),
        "count",
        format!(
            "{} queries in the {}-pass round 0",
            passes.round_queries, passes.round_passes
        ),
    );
    r.e2e(
        "latency_us_p50",
        median(&passes.us_per_probe()),
        "us",
        format!("p50 over {timed} timed passes of the pass's time per probe"),
    );
    r.e2e(
        "on_time_fraction",
        passes.on_time_fraction(limit_us),
        "fraction",
        format!(
            "passes within {limit_us} us; p99 {:.3} ms",
            quantile(&passes.pass_ms(), 0.99)
        ),
    );
}

/// `ingests_per_s` and `recovery_s` of the durable restarts.
pub fn restart_metrics(r: &mut Report, d: &Durable, io: &IoStats) {
    let n = d.ingest_ns.len();
    let fsync_ns = median(&io.wal_sync_ns.lock().expect("io stats poisoned"));
    r.e2e(
        "ingests_per_s",
        d.ingests_per_s(),
        "1/s",
        format!(
            "median over runs of {} of {n} durable ingests into the workload's corpus; \
             ingest p50 {:.2} us, WAL fsync p50 {:.1} us unscaled",
            crate::spec::INGEST_SYNC_EVERY,
            median(&d.ingest_ns) / 1e3,
            fsync_ns / 1e3
        ),
    );
    r.e2e(
        "recovery_s",
        median(&d.open_s),
        "s",
        format!(
            "median of {} PersistentBackend opens after the main phase (in order: {}), the last \
             replaying {} WAL records",
            d.open_s.len(),
            d.open_s
                .iter()
                .map(|s| format!("{:.1} ms", s * 1e3))
                .collect::<Vec<_>>()
                .join(", "),
            d.replayed
        ),
    );
    r.attempted += n as u64;
    r.failed += d.failed;
}
