//! Pieces every workload shares: corpora, the replayed estimator rounds,
//! loopback servers, the seeded ingest stream, and the durable store
//! every workload restarts from.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hdb_core::UnbiasedSizeEstimator;
use hdb_interface::storage::wal::WAL_FILE;
use hdb_interface::{
    FederatedBackend, FleetConfig, HiddenDb, MemIo, MetricsSnapshot, PersistentBackend,
    RemoteBackend, Result as HdbResult, SearchBackend, ShardPartBackend, StdIo, StorageIo,
    SyncPolicy, Table, TableBackend, TopKInterface, Topology, Tuple, WallClock,
};
use hdb_server::{RunningServer, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gauge;
use crate::spans::Spans;
use crate::spec;
use crate::util::{median, now_ns, secs_since, timed, Checks};
use crate::Ctx;

/// The Boolean i.i.d. corpus at `rows` × 40 with its bitmap index built.
pub fn bool_corpus(rows: usize) -> Table {
    let table = hdb_datagen::bool_iid(rows, spec::BOOL_ATTRS, spec::BOOL_SEED)
        .expect("bool_iid generation cannot fail at these parameters");
    let _ = table.index();
    table
}

/// The Yahoo-Auto-like corpus at `rows` with its bitmap index built.
pub fn yahoo_corpus(rows: usize) -> Table {
    let table = hdb_datagen::yahoo_auto(hdb_datagen::YahooConfig {
        rows,
        seed: spec::YAHOO_SEED,
    })
    .expect("Yahoo generation cannot fail at these parameters");
    let _ = table.index();
    table
}

/// Runs `make` once untimed (it pays the process's first page faults and
/// lazy initialisation), then timed at least [`spec::SETUP_MIN_REPEATS`]
/// times and until [`spec::SETUP_SECONDS`] have been spent on it (at most
/// [`spec::SETUP_MAX_REPEATS`]; once, timed, in smoke mode), and returns
/// the last result with the median set-up time in seconds and the timed
/// repeat count.
pub fn repeated_setup<T>(ctx: &Ctx, mut make: impl FnMut() -> T) -> (T, f64, usize) {
    let mut secs: Vec<f64> = Vec::new();
    let mut last = (!ctx.smoke).then(&mut make);
    loop {
        // Drop the previous stack first so peak memory holds one copy.
        drop(last.take());
        let (made, ns, _) = gauge::timed_scaled(&mut make);
        secs.push(ns / 1e9);
        last = Some(made);
        let enough = secs.len() >= spec::SETUP_MIN_REPEATS
            && secs.iter().sum::<f64>() >= spec::SETUP_SECONDS;
        if ctx.smoke || enough || secs.len() >= spec::SETUP_MAX_REPEATS {
            break;
        }
    }
    (
        last.expect("at least one set-up"),
        median(&secs),
        secs.len(),
    )
}

/// A loopback `hdb-server` over `backend` with the pinned pool size.
pub fn serve<B: SearchBackend + 'static>(backend: B) -> RunningServer {
    let config = ServerConfig {
        pool_threads: spec::SERVER_POOL_THREADS,
        ..ServerConfig::default()
    };
    Server::bind_with(backend, "127.0.0.1:0", config).expect("loopback bind")
}

/// A running fleet: its member servers and an interface over them.
pub struct Fleet {
    /// The estimator's interface over the fleet (dropped first, while
    /// the members still serve its goodbyes).
    pub db: HiddenDb<FederatedBackend>,
    /// One loopback server per hash partition.
    pub servers: Vec<RunningServer>,
}

impl Fleet {
    /// Serves `table`'s hash partitions on `members` loopback servers
    /// and connects an interface (`FleetConfig::workers` pinned).
    pub fn start(table: &Table, members: usize, k: usize) -> Self {
        let mut topo = Topology::new();
        let mut servers = Vec::with_capacity(members);
        for (i, part) in ShardPartBackend::partition(table, members)
            .into_iter()
            .enumerate()
        {
            let server = serve(part);
            topo.add_replica(i, server.addr().to_string());
            servers.push(server);
        }
        let config = FleetConfig {
            workers: spec::FLEET_WORKERS,
            ..FleetConfig::default()
        };
        let backend = FederatedBackend::connect_with(topo, config).expect("fleet up");
        Self {
            servers,
            db: HiddenDb::over(backend, k),
        }
    }

    /// The members' metrics, summed.
    pub fn server_metrics(&self) -> MetricsSnapshot {
        let mut all = MetricsSnapshot::default();
        for s in &self.servers {
            all.merge(s.metrics());
        }
        all
    }
}

/// A single loopback server holding a whole corpus, and an interface
/// over it.
pub struct Single {
    /// The interface over the server (dropped first).
    pub db: HiddenDb<RemoteBackend>,
    /// The server.
    pub server: RunningServer,
}

impl Single {
    /// Serves `table` and connects with `connections` pooled sockets.
    pub fn start(table: Table, k: usize, connections: usize) -> Self {
        let server = serve(TableBackend::new(table));
        let remote = RemoteBackend::connect_with(
            server.addr().to_string(),
            connections,
            std::time::Duration::from_secs(30),
        )
        .expect("connect to the loopback server");
        Self {
            server,
            db: HiddenDb::over(remote, k),
        }
    }
}

/// What replayed estimator rounds measured.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of every timed pass, ns.
    pub pass_ns: Vec<f64>,
    /// Queries each timed pass issued.
    pub pass_queries: Vec<u64>,
    /// Pass throughput of every completed window of
    /// [`spec::RATE_WINDOW_PASSES`] consecutive timed passes, probes/s.
    pub window_rates: Vec<f64>,
    /// Queries one whole round issued (exact per seed).
    pub round_queries: u64,
    /// Passes per round.
    pub round_passes: u64,
    /// Estimate bits of round 0.
    pub estimate_bits: Option<u64>,
    /// Passes that returned an error.
    pub failed: u64,
}

impl Passes {
    /// Per-pass µs per probe.
    pub fn us_per_probe(&self) -> Vec<f64> {
        self.pass_ns
            .iter()
            .zip(&self.pass_queries)
            .map(|(&ns, &q)| ns / 1e3 / (q.max(1) as f64))
            .collect()
    }

    /// Pass times in ms.
    pub fn pass_ms(&self) -> Vec<f64> {
        self.pass_ns.iter().map(|ns| ns / 1e6).collect()
    }

    /// Passes that ended within `limit_us` (failures count as misses).
    pub fn on_time_fraction(&self, limit_us: f64) -> f64 {
        let total = self.pass_ns.len() as u64 + self.failed;
        let ok = self
            .pass_ns
            .iter()
            .filter(|&&ns| ns / 1e3 <= limit_us)
            .count() as u64;
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Queries per pass of one round.
    pub fn queries_per_pass(&self) -> f64 {
        self.round_queries as f64 / self.round_passes.max(1) as f64
    }
}

/// Passes of round 0 replayed at the end of a phase as its determinism
/// check.
const REPLAY_PASSES: u64 = 100;

/// Round `r`'s estimator seed: round 0 runs `seed` itself.
fn round_seed(seed: u64, r: u64) -> u64 {
    seed ^ r.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs rounds of `passes` HD-estimator passes against `db`, round `r`
/// seeded with [`round_seed`]`(seed, r)`. Round 0 warms the caches, is
/// not timed, and fixes `queries_per_pass` exactly per seed; timed rounds
/// follow until `seconds` of them have elapsed, and at least one
/// completes. The phase ends by replaying round 0's first passes on a
/// fresh estimator, which must reproduce its estimate bits and query
/// count.
pub fn walk_rounds<I: TopKInterface>(
    spans: &Spans,
    db: &I,
    seed: u64,
    passes: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Passes {
    let mut out = Passes {
        round_passes: passes,
        ..Passes::default()
    };
    let mut start = None;
    let mut request = 0u64;
    let mut replay_point = None;
    let elapsed = |start: Option<u64>| start.map_or(0.0, secs_since);
    let mut round = 0u64;
    'rounds: loop {
        let mut est = UnbiasedSizeEstimator::hd(round_seed(seed, round))
            .expect("the HD default config is valid");
        let round_q0 = db.queries_issued();
        let timed_round = round > 0;
        if timed_round && start.is_none() {
            start = Some(now_ns());
        }
        for p in 0..passes {
            if elapsed(start) >= seconds && !out.window_rates.is_empty() {
                break 'rounds;
            }
            request += 1;
            gauge::tick();
            let q0 = db.queries_issued();
            let t0 = now_ns();
            let result = spans.span("pass", 0, request, |_| est.pass(db));
            let ns = gauge::scale(now_ns().saturating_sub(t0) as f64);
            match result {
                Ok(_) if timed_round => {
                    out.pass_ns.push(ns);
                    out.pass_queries.push(db.queries_issued() - q0);
                    if out.pass_ns.len().is_multiple_of(spec::RATE_WINDOW_PASSES) {
                        let from = out.pass_ns.len() - spec::RATE_WINDOW_PASSES;
                        let q: u64 = out.pass_queries[from..].iter().sum();
                        let ns: f64 = out.pass_ns[from..].iter().sum();
                        out.window_rates.push(q as f64 / (ns / 1e9));
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    out.failed += 1;
                    checks.check(false, || format!("pass {p} failed: {e}"));
                }
            }
            if !timed_round && p + 1 == REPLAY_PASSES.min(passes) {
                let bits = est.estimate().map(f64::to_bits);
                replay_point = Some((bits, db.queries_issued() - round_q0));
            }
        }
        if !timed_round {
            out.estimate_bits = est.estimate().map(f64::to_bits);
            out.round_queries = db.queries_issued() - round_q0;
        }
        round += 1;
        if elapsed(start) >= seconds {
            break;
        }
    }
    let mut est = UnbiasedSizeEstimator::hd(seed).expect("the HD default config is valid");
    let q0 = db.queries_issued();
    let ok = (0..REPLAY_PASSES.min(passes)).all(|_| est.pass(db).is_ok());
    let again = (est.estimate().map(f64::to_bits), db.queries_issued() - q0);
    checks.check(ok && Some(again) == replay_point, || {
        format!("replaying round 0 gave {again:?}, the first run gave {replay_point:?}")
    });
    out
}

/// Estimate bits and query count of `passes` passes seeded with `seed`.
pub fn fingerprint<I: TopKInterface>(db: &I, seed: u64, passes: u64) -> Result<(u64, u64), String> {
    let mut est = UnbiasedSizeEstimator::hd(seed).expect("the HD default config is valid");
    let s = est.run(db, passes).map_err(|e| e.to_string())?;
    Ok((s.estimate.to_bits(), s.queries))
}

/// A fixed-key 64-bit digest of a tuple.
fn tuple_digest(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// `n` seeded tuples conforming to `table`'s schema, absent from it and
/// distinct from each other, so no ingest is rejected. A candidate is
/// kept only if its digest is neither a corpus row's nor an earlier
/// candidate's (a digest collision only skips a candidate); the corpus
/// is held as one sorted `u64` per row, not copied.
pub fn new_tuples(table: &Table, seed: u64, n: usize) -> Vec<Tuple> {
    let schema = table.schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corpus: Vec<u64> = table.tuples().iter().map(tuple_digest).collect();
    corpus.sort_unstable();
    let mut made = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let values = (0..schema.len())
            .map(|a| u16::try_from(rng.random_range(0..schema.fanout(a))).expect("fan-out fits u16"))
            .collect();
        let t = Tuple::new(values);
        let d = tuple_digest(&t);
        if corpus.binary_search(&d).is_err() && made.insert(d) {
            out.push(t);
        }
    }
    out
}

/// What [`CountingIo`] saw.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Bytes passed to `write` and `append`.
    pub bytes_written: AtomicU64,
    /// Duration of every WAL fsync, ns.
    pub wal_sync_ns: Mutex<Vec<f64>>,
}

/// A [`StorageIo`] that counts the bytes written and times WAL fsyncs.
struct CountingIo {
    inner: Box<dyn StorageIo>,
    stats: Arc<IoStats>,
}

impl StorageIo for CountingIo {
    fn read(&self, path: &str) -> HdbResult<Option<Vec<u8>>> {
        self.inner.read(path)
    }
    fn write(&self, path: &str, bytes: &[u8]) -> HdbResult<()> {
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write(path, bytes)
    }
    fn append(&self, path: &str, bytes: &[u8]) -> HdbResult<()> {
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(path, bytes)
    }
    fn truncate(&self, path: &str, len: u64) -> HdbResult<()> {
        self.inner.truncate(path, len)
    }
    fn sync(&self, path: &str) -> HdbResult<()> {
        let (r, ns) = timed(|| self.inner.sync(path));
        if path == WAL_FILE {
            self.stats
                .wal_sync_ns
                .lock()
                .expect("io stats poisoned")
                .push(ns as f64);
        }
        r
    }
    fn sync_dir(&self) -> HdbResult<()> {
        self.inner.sync_dir()
    }
    fn rename(&self, from: &str, to: &str) -> HdbResult<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &str) -> HdbResult<()> {
        self.inner.remove(path)
    }
    fn list(&self) -> HdbResult<Vec<String>> {
        self.inner.list()
    }
}

/// A durable store inside the checkout (in memory in smoke mode, which
/// writes no file), seen through a counting I/O layer. The directory is
/// removed when the value drops.
pub struct Store {
    dir: Option<std::path::PathBuf>,
    mem: MemIo,
    /// Bytes written and fsyncs, across every open of this store.
    pub stats: Arc<IoStats>,
    /// Install `obs::WallClock` on every handle (traced runs only).
    clocked: bool,
}

impl Store {
    /// A fresh, empty store location named `tag`.
    pub fn fresh(ctx: &Ctx, tag: &str) -> Self {
        let dir = (!ctx.smoke).then(|| {
            let dir = ctx
                .out_dir
                .join(format!("store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create the store directory in the checkout");
            dir
        });
        Self {
            dir,
            mem: MemIo::new(),
            stats: Arc::new(IoStats::default()),
            clocked: ctx.traced,
        }
    }

    /// Empties the location; the counters keep running.
    pub fn reset(&mut self) {
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).expect("recreate the store directory in the checkout");
        }
        self.mem = MemIo::new();
    }

    fn io(&self) -> Box<dyn StorageIo> {
        let inner: Box<dyn StorageIo> = match &self.dir {
            Some(d) => Box::new(StdIo::new(d).expect("open the store directory")),
            None => Box::new(self.mem.clone()),
        };
        Box::new(CountingIo {
            inner,
            stats: Arc::clone(&self.stats),
        })
    }

    fn clock(&self, store: PersistentBackend) -> PersistentBackend {
        if self.clocked {
            store.with_clock(Arc::new(WallClock::new()))
        } else {
            store
        }
    }

    /// Creates the store holding `table`.
    pub fn create(&self, table: Table) -> Arc<PersistentBackend> {
        let store = PersistentBackend::create_with(self.io(), sync_policy(), table)
            .expect("create the durable store");
        Arc::new(self.clock(store))
    }

    /// Opens (recovers) the store, with the time it took in seconds.
    pub fn open(&self) -> (Arc<PersistentBackend>, f64) {
        let (store, ns, _) =
            gauge::timed_scaled(|| PersistentBackend::open_with(self.io(), sync_policy()));
        (
            Arc::new(self.clock(store.expect("reopen the durable store"))),
            ns / 1e9,
        )
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Some(d) = &self.dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The store's sync policy.
pub fn sync_policy() -> SyncPolicy {
    SyncPolicy::EveryN(spec::INGEST_SYNC_EVERY)
}

/// Bytes a user hands over per ingested tuple: its attribute values.
pub fn user_bytes(table: &Table) -> u64 {
    (table.schema().len() * std::mem::size_of::<hdb_interface::ValueId>()) as u64
}

/// What the durable write path measured.
#[derive(Debug, Default)]
pub struct Durable {
    /// Latency of every ingest, ns: the time outside WAL fsyncs at the
    /// gauge's reference speed, plus the fsyncs' time as measured.
    pub ingest_ns: Vec<f64>,
    /// Ingests that failed.
    pub failed: u64,
    /// Duration of every snapshot, ns.
    pub snapshot_ns: Vec<f64>,
    /// Every reopen's duration, s.
    pub open_s: Vec<f64>,
    /// WAL records the last reopen replayed.
    pub replayed: u64,
    /// First pass after a write batch minus the same walk replayed on
    /// the unchanged store, ns (traced runs).
    pub rebuild_ns: Vec<f64>,
    /// WAL fsyncs the store's own metrics counted (traced runs).
    pub store_fsyncs: u64,
    /// User bytes ingested.
    pub user_bytes: u64,
}

impl Durable {
    /// Ingests `tuples` into `store`, whose I/O `io` counts, timing each.
    pub fn ingest(
        &mut self,
        spans: &Spans,
        store: &PersistentBackend,
        io: &IoStats,
        tuples: Vec<Tuple>,
        per_tuple: u64,
        checks: &mut Checks,
    ) {
        let syncs = || io.wal_sync_ns.lock().expect("io stats poisoned");
        for t in tuples {
            let request = self.ingest_ns.len() as u64 + 1;
            gauge::tick();
            let synced = syncs().len();
            let (r, ns) = timed(|| spans.span("ingest", 0, request, |_| store.ingest(t)));
            let sync_ns: f64 = syncs()[synced..].iter().sum();
            let rest = (ns as f64 - sync_ns).max(0.0);
            self.ingest_ns.push(gauge::scale(rest) + sync_ns);
            self.user_bytes += per_tuple;
            if let Err(e) = r {
                self.failed += 1;
                checks.check(false, || format!("ingest failed: {e}"));
            }
        }
    }

    /// Takes a snapshot, timing it.
    pub fn snapshot(&mut self, spans: &Spans, store: &PersistentBackend, checks: &mut Checks) {
        let (r, ns) = timed(|| spans.span("snapshot", 0, 0, |_| store.snapshot()));
        self.snapshot_ns.push(ns as f64);
        checks.check(r.is_ok(), || format!("snapshot failed: {r:?}"));
    }

    /// Reopens `store`, timing the recovery.
    pub fn reopen(&mut self, spans: &Spans, store: &Store) -> Arc<PersistentBackend> {
        let (reopened, secs) = spans.span("open", 0, 0, |_| store.open());
        self.open_s.push(secs);
        self.replayed = reopened.recovery().wal_records_applied;
        reopened
    }

    /// Ingests per second of ingest time: the median over runs of
    /// [`spec::INGEST_SYNC_EVERY`] consecutive ingests, each run carrying
    /// one WAL fsync.
    pub fn ingests_per_s(&self) -> f64 {
        let chunk = spec::INGEST_SYNC_EVERY as usize;
        let rates: Vec<f64> = self
            .ingest_ns
            .chunks_exact(chunk)
            .map(|c| chunk as f64 / (c.iter().sum::<f64>() / 1e9))
            .collect();
        median(&rates)
    }
}

/// Times one HD pass seeded with `seed` over a fresh interface on
/// `store`, twice: the first run pays the index rebuild a write batch
/// left behind, the replay of the same walk does not.
pub fn index_rebuild_ns(store: &Arc<PersistentBackend>, k: usize, seed: u64) -> f64 {
    let walk = || {
        let db = HiddenDb::over(Arc::clone(store), k);
        let mut est = UnbiasedSizeEstimator::hd(seed).expect("the HD default config is valid");
        timed(|| est.pass(&db)).1 as f64
    };
    let first = walk();
    first - walk()
}

/// WAL fsyncs the store's own metrics counted.
pub fn store_fsyncs(store: &Arc<PersistentBackend>) -> u64 {
    let mut snap = hdb_interface::MetricsSnapshot::default();
    store.fill_metrics(&mut snap);
    crate::util::counter(&snap, "hdb_wal_fsyncs_total")
}

/// The durable restarts a read-only workload runs after its main phase.
/// Each of [`spec::RESTART_SAMPLES`] samples puts the corpus into a fresh
/// store, ingests [`spec::RESTART_CHUNK`] new tuples, takes a snapshot,
/// ingests [`spec::RESTART_TAIL`] more, drops the store and reopens it
/// (recovery loads the snapshot and replays the tail). Every sample
/// writes the same tuples, so every recovery reads a store of the same
/// size, which must hold every row written. Returns what the samples
/// measured and the store's I/O counters; the store is removed.
pub fn restarts(
    ctx: &Ctx,
    table: &Table,
    k: usize,
    checks: &mut Checks,
) -> (Durable, Arc<IoStats>) {
    let spans = &ctx.spans;
    let per_tuple = user_bytes(table);
    let fresh = new_tuples(
        table,
        ctx.seed ^ 0x5eed_0001,
        spec::RESTART_CHUNK + spec::RESTART_TAIL,
    );
    let (body, tail) = fresh.split_at(spec::RESTART_CHUNK);
    let rows = table.len() + fresh.len();
    let mut durable = Durable::default();
    let mut loc = Store::fresh(ctx, "restart");
    let io = Arc::clone(&loc.stats);
    for _ in 0..spec::RESTART_SAMPLES {
        loc.reset();
        let store = loc.create(table.clone());
        durable.ingest(spans, &store, &io, body.to_vec(), per_tuple, checks);
        if ctx.traced {
            durable
                .rebuild_ns
                .push(index_rebuild_ns(&store, k, ctx.seed));
        }
        durable.snapshot(spans, &store, checks);
        durable.ingest(spans, &store, &io, tail.to_vec(), per_tuple, checks);
        durable.store_fsyncs += store_fsyncs(&store);
        drop(store);
        let store = durable.reopen(spans, &loc);
        checks.check(store.len() == rows, || {
            format!(
                "recovery lost rows: {} recovered, {rows} written",
                store.len()
            )
        });
    }
    (durable, io)
}
