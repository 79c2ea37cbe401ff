//! Shared measuring tools: the clock, order statistics, process memory,
//! and the correctness-check ledger every workload fills.

use std::sync::OnceLock;

use hdb_interface::{Clock, MetricsSnapshot, WallClock};

/// Nanoseconds on the process-wide wall clock. Timing goes through
/// `obs::WallClock`, the repository's one sanctioned wall-clock source.
pub fn now_ns() -> u64 {
    static CLOCK: OnceLock<WallClock> = OnceLock::new();
    CLOCK.get_or_init(WallClock::new).now_nanos()
}

/// Seconds elapsed since `start_ns`.
pub fn secs_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e9
}

/// Runs `f` and returns its result with the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now_ns();
    let out = f();
    (out, now_ns().saturating_sub(t0))
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A counter from a metrics snapshot (0 when absent).
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// A gauge from a metrics snapshot (0 when absent).
pub fn gauge(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.gauges.get(name).copied().unwrap_or(0)
}

/// The output checks of one run: every failed check is kept with its
/// reason, and any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// The paper's ledger: `issued == underflow + valid + overflow +
    /// errored` on a client snapshot.
    pub fn ledger(&mut self, snap: &MetricsSnapshot, whose: &str) {
        let issued = counter(snap, "hdb_queries_issued_total");
        let parts = counter(snap, "hdb_queries_underflow_total")
            + counter(snap, "hdb_queries_valid_total")
            + counter(snap, "hdb_queries_overflow_total")
            + counter(snap, "hdb_queries_errored_total");
        self.check(issued == parts, || {
            format!("{whose}: ledger broken, issued {issued} != outcome sum {parts}")
        });
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks that passed.
    pub fn passed(&self) -> usize {
        self.passed
    }

    /// The failed checks' reasons.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
