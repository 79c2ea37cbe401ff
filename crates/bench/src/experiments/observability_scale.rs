//! Scale experiment: the observability tax (not a paper figure — an
//! engineering experiment for the repro's own roadmap). Three questions:
//!
//! 1. **µs/probe overhead** — the same seeded estimator run, obs fully
//!    on (live registry and counters, the shipping default) vs stripped
//!    ([`HiddenDb::with_metrics_disabled`]), batches interleaved
//!    on-off-on-off so thermal drift and scheduler noise hit both arms
//!    equally, medians compared. The roadmap bar is **≤ 3%**: relaxed
//!    atomic bumps after the outcome is computed should be invisible
//!    next to query evaluation.
//! 2. **trace-ring cost** — the same run again with a span ring
//!    installed (tracing takes a mutex per event, which is why it is off
//!    by default); reported, not gated.
//! 3. **ring throughput** — raw open/close pairs per second through a
//!    [`TraceRing`], the ceiling any traced component can push.
//!
//! Every on/off run pair is checked **bit-identical** first — an
//! overhead number for an observability layer that changes answers
//! would measure nothing.
//!
//! The measurements go to `results/` as CSV and to
//! **`BENCH_scale08.json`** at the repository root.

use std::time::Instant;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{HiddenDb, Table, TraceRing};
use hdb_stats::{Figure, Series};

use crate::output::{emit, note, write_bench_json};
use crate::scale::{quick_requested, Scale};

/// Interface constant for the probe workload.
const K: usize = 10;

/// Estimator seed (fixed: the runs are the measuring instrument).
const SEED: u64 = 20_100_613;

/// The roadmap bar: obs-on may cost at most this fraction per probe.
const MAX_OVERHEAD: f64 = 0.03;

/// Absolute noise floor (µs/probe): below this, a relative comparison
/// measures the OS scheduler, not the registry.
const NOISE_FLOOR_US: f64 = 0.05;

/// One timed estimator run: µs per issued query plus the run's
/// fingerprint (estimate bits, query count) for the bit-identity check.
struct Sample {
    us_per_probe: f64,
    fingerprint: (u64, u64),
}

/// Times one full estimator run over a fresh interface built by `make`.
fn timed_run(db: &HiddenDb, passes: u64) -> Sample {
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let wall = Instant::now();
    let s = est.run(db, passes).expect("unlimited interface");
    let elapsed_us = wall.elapsed().as_secs_f64() * 1e6;
    assert!(s.queries > 0, "the workload must issue probes");
    Sample {
        us_per_probe: elapsed_us / s.queries as f64,
        fingerprint: (s.estimate.to_bits(), s.queries),
    }
}

/// The median of a sample set (odd-biased: lower of the middle pair).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Runs the observability overhead sweep.
///
/// # Panics
/// Panics if obs-on and obs-off runs diverge bitwise, or if the median
/// metrics overhead exceeds the roadmap bar (3% per probe, above the
/// absolute noise floor) — a regression here is a broken contract, not
/// a slow day.
pub fn run_observability_scale(scale: &Scale) {
    let quick = quick_requested();
    let (rows, passes, trials) = if quick { (600, 60, 7) } else { (5_000, 200, 15) };
    note("observability tax: µs/probe with metrics on vs stripped, interleaved batches");

    let _ = scale; // the tax is per-probe; corpus size is pinned per mode
    let table = hdb_datagen::bool_mixed(rows, 16, 7).expect("generation");
    let db_on = |t: &Table| HiddenDb::new(t.clone(), K);
    let db_off = |t: &Table| HiddenDb::new(t.clone(), K).with_metrics_disabled();
    let db_traced = |t: &Table| HiddenDb::new(t.clone(), K).with_trace(4096);

    // Warm-up: fault in the page cache and JIT-warm the branch
    // predictors on both arms before anything is recorded.
    let _ = timed_run(&db_on(&table), passes.min(20));
    let _ = timed_run(&db_off(&table), passes.min(20));

    let mut on_us = Vec::with_capacity(trials);
    let mut off_us = Vec::with_capacity(trials);
    let mut traced_us = Vec::with_capacity(trials);
    for trial in 0..trials {
        // Interleaved on-off-traced within every trial.
        let on = timed_run(&db_on(&table), passes);
        let off = timed_run(&db_off(&table), passes);
        let traced = timed_run(&db_traced(&table), passes);
        assert_eq!(
            on.fingerprint, off.fingerprint,
            "trial {trial}: metrics changed an outcome"
        );
        assert_eq!(
            on.fingerprint, traced.fingerprint,
            "trial {trial}: tracing changed an outcome"
        );
        on_us.push(on.us_per_probe);
        off_us.push(off.us_per_probe);
        traced_us.push(traced.us_per_probe);
    }
    let on_med = median(on_us.clone());
    let off_med = median(off_us.clone());
    let traced_med = median(traced_us.clone());
    let overhead = (on_med - off_med) / off_med;
    let trace_overhead = (traced_med - off_med) / off_med;
    println!(
        "  metrics off {off_med:7.3} µs/probe | on {on_med:7.3} ({:+.2}%) | \
         traced {traced_med:7.3} ({:+.2}%)  [{trials} interleaved trials]",
        overhead * 100.0,
        trace_overhead * 100.0
    );
    assert!(
        overhead <= MAX_OVERHEAD || (on_med - off_med) <= NOISE_FLOOR_US,
        "metrics overhead {:.2}% exceeds the {:.0}% roadmap bar \
         (on {on_med:.3} vs off {off_med:.3} µs/probe)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    // Raw ring throughput: open/close pairs through a bounded ring.
    let ring = TraceRing::new(8192);
    let pairs: u64 = if quick { 200_000 } else { 2_000_000 };
    let wall = Instant::now();
    for i in 0..pairs {
        let id = ring.open("bench_span", 0, i);
        ring.close(id, "bench_span", i);
    }
    let ring_secs = wall.elapsed().as_secs_f64();
    let pairs_per_sec = pairs as f64 / ring_secs.max(f64::MIN_POSITIVE);
    assert_eq!(ring.len(), 8192, "the ring must have stayed at its bound");
    assert_eq!(ring.dropped(), 2 * pairs - 8192, "evictions must be counted");
    println!("  trace ring: {:.1}M span pairs/s (bounded at 8192 events)", pairs_per_sec / 1e6);

    let mut fig = Figure::new(
        format!("observability tax, k={K}, {passes} passes, {trials} interleaved trials"),
        "trial",
        "µs per probe",
    );
    fig.add(Series::from_points(
        "metrics_on",
        on_us.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect(),
    ));
    fig.add(Series::from_points(
        "metrics_off",
        off_us.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect(),
    ));
    fig.add(Series::from_points(
        "traced",
        traced_us.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect(),
    ));
    emit(&fig, "scale08_observability");

    let json = format!(
        "{{\n  \"bench\": \"scale08_observability\",\n  \"dataset\": \"bool_mixed\",\n  \
         \"rows\": {rows},\n  \"k\": {K},\n  \"passes\": {passes},\n  \"seed\": {SEED},\n  \
         \"trials\": {trials},\n  \"bit_identical\": true,\n  \
         \"us_per_probe_metrics_off\": {off_med:.4},\n  \
         \"us_per_probe_metrics_on\": {on_med:.4},\n  \
         \"us_per_probe_traced\": {traced_med:.4},\n  \
         \"metrics_overhead_fraction\": {overhead:.5},\n  \
         \"trace_overhead_fraction\": {trace_overhead:.5},\n  \
         \"overhead_bar\": {MAX_OVERHEAD},\n  \
         \"trace_ring_pairs_per_sec\": {pairs_per_sec:.0}\n}}\n"
    );
    write_bench_json("BENCH_scale08.json", &json);
}
