//! Scale experiment: crash recovery (not a paper figure — an engineering
//! experiment for the repro's own roadmap). A [`PersistentBackend`] is
//! populated on real disk, "crashed" (dropped), and reopened with the
//! startup recovery path under the clock:
//!
//! 1. **WAL length sweep** — recovery wall time as the replay tail grows,
//!    with a single seed snapshot (pure WAL replay);
//! 2. **snapshot cadence sweep** — the same ingest volume checkpointed
//!    every `c` records, showing how cadence trades ingest-side snapshot
//!    work for startup replay;
//! 3. every recovered store is checked **bit-identical** to an
//!    uninterrupted in-memory run over the same corpus — a recovery bench
//!    that recovers the wrong bytes measures nothing.
//!
//! The measurements go to `results/` as CSV and to **`BENCH_scale07.json`**
//! at the repository root.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::{HiddenDb, PersistentBackend, Schema, SyncPolicy, Table, TableBackend, Tuple};
use hdb_stats::{Figure, Series};

use crate::output::{emit, note, write_bench_json};
use crate::scale::{quick_requested, Scale};

/// Interface constant for the bit-identity probes.
const K: usize = 10;

/// Estimator seed (fixed: the runs are the measuring instrument, not the
/// subject).
const SEED: u64 = 20_260_808;

/// Attribute count: 2^16 distinct boolean tuples covers every sweep.
const ATTRS: usize = 16;

/// Rows baked into the seed snapshot before any WAL traffic.
const BASE_ROWS: u16 = 256;

/// What one recovery run measures.
struct RecoveryRun {
    /// Records between snapshots (`u64::MAX` = never after the seed).
    cadence: u64,
    wal_records: u64,
    replayed: u64,
    snapshots: usize,
    ingest_ms: f64,
    recovery_ms: f64,
}

/// The `i`-th distinct boolean tuple (bit decomposition).
fn tuple(i: u16) -> Tuple {
    Tuple::new((0..ATTRS).map(|b| (i >> b) & 1).collect())
}

/// The seed corpus shared by every run.
fn base_table() -> Table {
    Table::new(Schema::boolean(ATTRS), (0..BASE_ROWS).map(tuple).collect())
        .expect("distinct seed corpus")
}

/// Estimator fingerprint: estimate bits + query count of a fixed seeded
/// run — equal fingerprints mean every probe answered identically.
fn fingerprint(backend: impl hdb_interface::SearchBackend + 'static, passes: u64) -> (u64, u64) {
    let db = HiddenDb::over(backend, K);
    let mut est = UnbiasedSizeEstimator::hd(SEED).expect("valid config");
    let s = est.run(&db, passes).expect("unlimited interface");
    (s.estimate.to_bits(), s.queries)
}

/// Populates a fresh store under `dir` with `records` WAL records,
/// snapshotting every `cadence` ingests, then drops it (the "crash") and
/// reopens under the clock.
fn run_one(dir: &Path, records: u64, cadence: u64, passes: u64) -> RecoveryRun {
    let base = base_table();
    let ingest_wall = Instant::now();
    {
        let store = PersistentBackend::open_or_create(dir, SyncPolicy::EveryN(64), || {
            Ok(base_table())
        })
        .expect("create store");
        for i in 0..records {
            let idx = u16::try_from(u64::from(BASE_ROWS) + i).expect("sweep fits in u16 ids");
            store.ingest(tuple(idx)).expect("ingest");
            if (i + 1).is_multiple_of(cadence) {
                store.snapshot().expect("cadence snapshot");
            }
        }
        store.sync().expect("final sync");
    } // crash
    let ingest_ms = ingest_wall.elapsed().as_secs_f64() * 1e3;

    let wall = Instant::now();
    let store = PersistentBackend::open_or_create(dir, SyncPolicy::EveryN(64), || {
        Ok(base_table())
    })
    .expect("recover store");
    let recovery_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert!(store.read_only().is_none(), "clean shutdown must recover read-write");
    let replayed = store.recovery().wal_records_applied;
    let snapshots = fs::read_dir(dir)
        .expect("data dir listable")
        .filter_map(std::result::Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "hdbs"))
        .count();

    // Bit-identity against the uninterrupted in-memory run.
    let mut tuples = base.tuples().to_vec();
    tuples.extend((0..records).map(|i| {
        tuple(u16::try_from(u64::from(BASE_ROWS) + i).expect("sweep fits in u16 ids"))
    }));
    let reference =
        TableBackend::new(Table::new(base.schema().clone(), tuples).expect("valid reference"));
    assert_eq!(
        fingerprint(Arc::new(store), passes),
        fingerprint(reference, passes),
        "recovery of {records} records (cadence {cadence}) diverged from in-memory"
    );

    RecoveryRun { cadence, wal_records: records, replayed, snapshots, ingest_ms, recovery_ms }
}

/// Runs the recovery sweep.
///
/// # Panics
/// Panics if any recovered store is read-only, diverges from the
/// in-memory reference, or the data directory cannot be created — a
/// broken durability stack must not produce a benchmark record.
pub fn run_recovery_scale(scale: &Scale) {
    let quick = quick_requested();
    let passes: u64 = if quick { 4 } else { 12 };
    let wal_lengths: &[u64] = if quick { &[200, 1_000, 4_000] } else { &[1_000, 5_000, 20_000] };
    let cadence_total: u64 = if quick { 1_000 } else { 8_000 };
    let _ = scale; // recovery cost is WAL-shaped, not corpus-shaped
    note("crash recovery: reopen-under-the-clock across WAL lengths and snapshot cadences");

    let root = std::env::temp_dir().join(format!("hdb-scale07-{}", std::process::id()));
    fs::create_dir_all(&root).expect("create bench data dir");

    // 1. Recovery time vs WAL length (seed snapshot only).
    let mut wal_runs: Vec<RecoveryRun> = Vec::new();
    for &records in wal_lengths {
        let dir: PathBuf = root.join(format!("wal{records}"));
        fs::create_dir_all(&dir).expect("create run dir");
        let run = run_one(&dir, records, u64::MAX, passes);
        assert_eq!(run.replayed, records, "seed-only run must replay the whole WAL");
        println!(
            "  wal {:>6} records: recovered in {:7.1} ms ({:.1} ms ingest+snapshot side)",
            run.wal_records, run.recovery_ms, run.ingest_ms
        );
        wal_runs.push(run);
    }

    // 2. Recovery time vs snapshot cadence at fixed ingest volume.
    let cadences: &[u64] = &[u64::MAX, cadence_total / 4, cadence_total / 16, cadence_total / 64];
    let mut cadence_runs: Vec<RecoveryRun> = Vec::new();
    for &cadence in cadences {
        let label = if cadence == u64::MAX { "never".to_owned() } else { cadence.to_string() };
        let dir: PathBuf = root.join(format!("cad{label}"));
        fs::create_dir_all(&dir).expect("create run dir");
        let run = run_one(&dir, cadence_total, cadence, passes);
        if cadence < cadence_total {
            assert!(run.replayed < cadence_total, "snapshots must shorten replay");
        }
        println!(
            "  cadence {label:>6}: {} snapshot(s), replayed {:>5}/{cadence_total}, \
             recovered in {:7.1} ms",
            run.snapshots, run.replayed, run.recovery_ms
        );
        cadence_runs.push(run);
    }

    match fs::remove_dir_all(&root) {
        Ok(()) => {}
        Err(e) => eprintln!("warning: failed cleaning {}: {e}", root.display()),
    }

    let mut fig = Figure::new(
        format!("crash recovery, k={K}, {passes} verification passes"),
        "WAL records replayed",
        "recovery wall time (ms)",
    );
    fig.add(Series::from_points(
        "recovery_ms_vs_wal",
        wal_runs.iter().map(|r| (r.wal_records as f64, r.recovery_ms)).collect(),
    ));
    fig.add(Series::from_points(
        "recovery_ms_vs_cadence_replay",
        cadence_runs.iter().map(|r| (r.replayed as f64, r.recovery_ms)).collect(),
    ));
    emit(&fig, "scale07_recovery");

    let wal_json = wal_runs
        .iter()
        .map(|r| {
            format!(
                "    {{ \"wal_records\": {}, \"replayed\": {}, \
                 \"ingest_ms\": {:.1}, \"recovery_ms\": {:.1} }}",
                r.wal_records, r.replayed, r.ingest_ms, r.recovery_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let cadence_json = cadence_runs
        .iter()
        .map(|r| {
            let cadence = if r.cadence == u64::MAX {
                "null".to_owned()
            } else {
                r.cadence.to_string()
            };
            format!(
                "    {{ \"cadence\": {cadence}, \"snapshots\": {}, \"replayed\": {}, \
                 \"ingest_ms\": {:.1}, \"recovery_ms\": {:.1} }}",
                r.snapshots, r.replayed, r.ingest_ms, r.recovery_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"scale07_recovery\",\n  \"dataset\": \"boolean bit-decomposition\",\n  \
         \"attributes\": {ATTRS},\n  \"base_rows\": {BASE_ROWS},\n  \"k\": {K},\n  \
         \"passes\": {passes},\n  \"seed\": {SEED},\n  \"fsync\": \"every=64\",\n  \
         \"bit_identical\": true,\n  \
         \"wal_length_sweep\": [\n{wal_json}\n  ],\n  \
         \"snapshot_cadence_sweep\": [\n{cadence_json}\n  ]\n}}\n"
    );
    write_bench_json("BENCH_scale07.json", &json);
}
