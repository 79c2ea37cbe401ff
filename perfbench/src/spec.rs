//! The workload definitions: corpora, pinned thread counts, rates,
//! latency limits and count budgets. `BENCHMARK.json` has a fixed key
//! set, so these live here, in one place, and every run prints them.

/// Interface constant of the estimator workloads (the ROADMAP ruler).
pub const WALK_K: usize = 10;
/// Interface constant of the search-form workload (the paper's Yahoo! Auto `k`).
pub const FORM_K: usize = 100;

/// Attributes of the Boolean corpora.
pub const BOOL_ATTRS: usize = 40;
/// Generator seed of the Boolean corpora (`hdb-bench`'s `BOOL_IID_SEED`).
pub const BOOL_SEED: u64 = 101;
/// Generator seed of the Yahoo-Auto-like corpus (`hdb-bench`'s `YAHOO_SEED`).
pub const YAHOO_SEED: u64 = 103;

/// Rows of the canonical corpus (`walk_local`, `ingest_mixed`).
pub const CANONICAL_ROWS: usize = 100_000;
/// Rows of the fleet corpus, split across the fleet's members.
pub const FLEET_ROWS: usize = 10_000;
/// Fleet members (loopback `hdb-server`s, one hash partition each).
pub const FLEET_MEMBERS: usize = 2;
/// Rows of the Yahoo-Auto-like corpus (the paper's size).
pub const YAHOO_ROWS: usize = 188_790;

/// `FleetConfig::workers`: the default serial fan-out, pinned.
pub const FLEET_WORKERS: usize = 1;
/// `ServerConfig::pool_threads` of every server the benchmark starts,
/// pinned (the default follows the machine's core count).
pub const SERVER_POOL_THREADS: usize = 2;
/// Client connections of the search-form load (one generator thread
/// hands arrivals to this many client threads, one connection each).
pub const FORM_CONNECTIONS: usize = 2;

/// Estimator passes per round. Round 0 runs the run's seed and fixes
/// `queries_per_pass` exactly; later rounds derive their own seeds.
pub const WALK_LOCAL_PASSES: u64 = 1_000;
/// Passes per round on the fleet.
pub const WALK_FLEET_PASSES: u64 = 200;
/// Consecutive timed passes `probes_per_s` is measured over; the metric
/// is the median over such windows, so a stall costs one window.
pub const RATE_WINDOW_PASSES: usize = 20;

/// Form-query arrival rate, per second (open loop, fixed).
pub const FORM_RATE: f64 = 500.0;

/// Closed-loop form queries of the traced run's stack ladder.
pub const FORM_LADDER_QUERIES: usize = 500;

/// Arrival rates of the traced run's open-loop segment, per second: HD
/// passes on the walk workloads, durable ingests on `ingest_mixed`.
pub const WALK_LOCAL_OPEN_RATE: f64 = 200.0;
/// Pass arrivals on the fleet.
pub const WALK_FLEET_OPEN_RATE: f64 = 25.0;
/// Ingest arrivals.
pub const INGEST_OPEN_RATE: f64 = 2_000.0;
/// Length of the traced run's open-loop segment, s.
pub const OPEN_SEGMENT_SECONDS: f64 = 3.0;

/// Tuples ingested between two estimator passes.
pub const INGEST_BATCH: usize = 64;
/// Batches per ingest round (a round starts from a fresh store).
pub const INGEST_BATCHES: usize = 48;
/// `SyncPolicy::EveryN` of the durable store.
pub const INGEST_SYNC_EVERY: u64 = 64;

/// Durable restarts a read-only workload runs after its main phase
/// (each writes a fresh store of its corpus, ingests, and reopens it).
pub const RESTART_SAMPLES: usize = 7;
/// New tuples each restart sample ingests before its snapshot.
pub const RESTART_CHUNK: usize = 4_096;
/// New tuples each restart sample ingests after its snapshot: the WAL
/// tail its reopen replays.
pub const RESTART_TAIL: usize = 512;

/// Latency limits of `on_time_fraction`, per workload, in µs: a pass
/// (walk workloads), a form query, an ingest.
pub const LIMIT_WALK_LOCAL_PASS_US: f64 = 10_000.0;
/// Pass limit on the fleet.
pub const LIMIT_WALK_FLEET_PASS_US: f64 = 50_000.0;
/// Form-query limit.
pub const LIMIT_FORM_US: f64 = 2_000.0;
/// Ingest limit.
pub const LIMIT_INGEST_US: f64 = 1_000.0;

/// Set-ups per process: at least this many, more until `SETUP_SECONDS`
/// were spent, at most `SETUP_MAX_REPEATS`; `setup_s` is their median.
pub const SETUP_MIN_REPEATS: usize = 3;
/// Set-up time a process spends at least (cheap set-ups repeat more).
pub const SETUP_SECONDS: f64 = 1.0;
/// Most set-ups per process.
pub const SETUP_MAX_REPEATS: usize = 25;

/// The estimator seed of the count budgets (the ROADMAP's fixed seed):
/// budgets are checked on a canonical segment run with this seed, so
/// they repeat exactly whatever `--seed` a run was given.
pub const CANONICAL_SEED: u64 = 20_100_613;
/// Passes of the canonical budget segment.
pub const CANONICAL_PASSES: u64 = 20;

/// Ceilings on the counts that repeat exactly, from the canonical
/// segment of each workload's traced run (see `README.md`).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// HD queries per pass on the in-process stack.
    pub queries_per_pass: f64,
    /// Allocations per probe on the issuing thread of the workload's stack.
    pub allocs_per_probe: f64,
    /// Client wire exchanges per probe on the served stack.
    pub exchanges_per_query: f64,
    /// Server frames per probe on the served stack.
    pub frames_per_query: f64,
}

/// The budgets of `workload`.
pub fn budget(workload: &str) -> Option<Budget> {
    let b = |queries_per_pass, allocs_per_probe, exchanges_per_query, frames_per_query| Budget {
        queries_per_pass,
        allocs_per_probe,
        exchanges_per_query,
        frames_per_query,
    };
    // Written as the measured count over its base, so the check compares
    // bit-identical quotients.
    match workload {
        // 20 canonical passes over the 100k corpus: 11,079 probes; on one
        // server 8,561 exchanges and 10,377 frames.
        "walk_local" | "ingest_mixed" => Some(b(
            11_079.0 / 20.0,
            76_896.0 / 11_079.0,
            8_561.0 / 11_079.0,
            10_377.0 / 11_079.0,
        )),
        // 20 canonical passes over the 10k corpus on the 2-member fleet.
        "walk_fleet" => Some(b(
            4_109.0 / 20.0,
            130_436.0 / 4_109.0,
            5_342.0 / 4_109.0,
            7_062.0 / 4_109.0,
        )),
        // 500 canonical form queries on one server.
        "form_openloop" => Some(b(1.0, 47_806.0 / 500.0, 433.0 / 500.0, 433.0 / 500.0)),
        _ => None,
    }
}
