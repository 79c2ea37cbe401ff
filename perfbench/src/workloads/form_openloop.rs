//! `form_openloop`: search-form users send fresh top-k form queries,
//! open loop, at one fixed arrival rate. Each query has 1–4 predicates
//! with Zipf-skewed values; the corpus is the Yahoo-Auto-like one served
//! by one loopback `hdb-server`; queries go through
//! `HiddenDb::over(RemoteBackend)::query`. The client's response memo is
//! warmed first with a stream drawn from another seed, so the timed
//! queries are fresh: the memo answers only what a warm memo would, the
//! Zipf head that streams share and the repeats within the timed one.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use hdb_datagen::Zipf;
use hdb_interface::{HiddenDb, Query, QueryOutcome, Schema, Table, TopKInterface};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{repeated_setup, restarts, yahoo_corpus, Passes, Single};
use crate::layers::{self, Ops, Rung, Subject};
use crate::loadgen::{self, OpenLoop};
use crate::report::Report;
use crate::util::{counter, median, quantile, ratio, Checks};
use crate::workloads::{main_phase_peak, restart_metrics};
use crate::{spec, Ctx};

/// Zipf exponent of the form users' value choices.
const VALUE_SKEW: f64 = 1.0;

/// The seeded stream of form queries: 1–4 distinct attributes, values
/// Zipf-skewed toward each attribute's first values.
pub fn form_queries(schema: &Schema, seed: u64, n: usize) -> Vec<Query> {
    let zipfs: Vec<Zipf> = (0..schema.len())
        .map(|a| Zipf::new(schema.fanout(a), VALUE_SKEW))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let preds = rng.random_range(1..=4usize);
            let mut q = Query::all();
            while q.len() < preds {
                let attr = rng.random_range(0..schema.len());
                if q.constrains(attr) {
                    continue;
                }
                let value = u16::try_from(zipfs[attr].sample(&mut rng)).expect("fan-out fits u16");
                q = q.and(attr, value).expect("attribute not yet constrained");
            }
            q
        })
        .collect()
}

/// A digest of an answer: its class and the returned rows.
pub fn digest(outcome: &QueryOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    (
        outcome.is_underflow(),
        outcome.is_valid(),
        outcome.is_overflow(),
    )
        .hash(&mut h);
    for t in outcome.tuples() {
        t.hash(&mut h);
    }
    h.finish()
}

/// The seed of the stream that warms the memo before the timed one.
fn warm_seed(seed: u64) -> u64 {
    seed ^ 0x7761_726d_5f75_7021
}

/// The open-loop phase; returns it with the digest of the first answer
/// to every stream position (`None` where no request succeeded).
fn open_loop<I: TopKInterface + Sync>(
    ctx: &Ctx,
    db: &I,
    stream: &[Query],
) -> (OpenLoop, Vec<Option<u64>>) {
    let answers: Vec<Mutex<Option<u64>>> = (0..stream.len()).map(|_| Mutex::new(None)).collect();
    let clients: Vec<usize> = (0..spec::FORM_CONNECTIONS).collect();
    let phase = loadgen::run(spec::FORM_RATE, ctx.seconds, clients, |_, i| {
        let q = &stream[i % stream.len()];
        match ctx.spans.span("query", 0, i as u64 + 1, |_| db.query(q)) {
            Ok(outcome) => {
                let mut slot = answers[i % stream.len()]
                    .lock()
                    .expect("answer slot poisoned");
                slot.get_or_insert(digest(&outcome));
                true
            }
            Err(_) => false,
        }
    });
    let answers = answers
        .into_iter()
        .map(|m| m.into_inner().expect("answer slot poisoned"))
        .collect();
    (phase, answers)
}

/// Every served answer equals the in-process answer to the same query.
fn check_answers(table: &Table, stream: &[Query], answers: &[Option<u64>], checks: &mut Checks) {
    let local = HiddenDb::new(table.clone(), spec::FORM_K);
    let mut wrong = 0usize;
    let mut compared = 0usize;
    for (q, a) in stream.iter().zip(answers) {
        let Some(a) = a else { continue };
        compared += 1;
        if !matches!(local.query(q), Ok(o) if digest(&o) == *a) {
            wrong += 1;
        }
    }
    checks.check(compared > 0 && wrong == 0, || {
        format!("{wrong} of {compared} served answers differ from the in-process answer")
    });
}

/// Client ↔ server reconciliation: every client exchange is one server
/// frame, and every probe the client did not answer from its memo is one
/// server-side probe; both ledgers hold.
pub fn reconcile_single(single: &Single, checks: &mut Checks) {
    let client = single.db.metrics();
    checks.ledger(&client, "client");
    let wire = single.db.backend().server_stats();
    checks.check(wire.is_ok(), || "Stats over the wire failed".into());
    let server = single.server.metrics();
    checks.ledger(&server, "server");
    let requests = single.db.backend().requests_sent();
    let frames = counter(&server, "hdb_server_frames_total");
    let batch = server
        .histograms
        .get("hdb_server_batch_size")
        .cloned()
        .unwrap_or_default();
    // A batch is one exchange carrying `size` frames.
    let exchanges = frames - (batch.sum - batch.count);
    checks.check(requests == exchanges, || {
        format!("client sent {requests} exchanges, server saw {exchanges} ({frames} frames)")
    });
    let memo = counter(&client, "hdb_memo_response_hits_total")
        + counter(&client, "hdb_memo_count_hits_total");
    let forwarded = counter(&client, "hdb_queries_issued_total") - memo;
    let served = counter(&server, "hdb_queries_issued_total");
    checks.check(forwarded == served, || {
        format!("client forwarded {forwarded} probes, server ledger holds {served}")
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let rows = ctx.rows(spec::YAHOO_ROWS);
    // The server holds the only copy of the corpus during the main phase.
    let ((schema, single), setup_s, n) = repeated_setup(ctx, || {
        let table = yahoo_corpus(rows);
        let schema = table.schema().clone();
        (
            schema,
            Single::start(table, spec::FORM_K, spec::FORM_CONNECTIONS),
        )
    });
    r.e2e(
        "setup_s",
        setup_s,
        "s",
        format!("median of {n}: generate {rows} Yahoo-like rows, index, serve, connect"),
    );
    // One query per arrival of the run; an untimed closed-loop pass over
    // an equally long stream of another seed warms the response memo.
    let arrivals = ((spec::FORM_RATE * ctx.seconds).round() as usize).max(1);
    for q in &form_queries(&schema, warm_seed(ctx.seed), arrivals) {
        r.attempted += 1;
        if let Err(e) = single.db.query(q) {
            r.failed += 1;
            r.checks
                .check(false, || format!("warm-up query failed: {e}"));
        }
    }
    let warm = single.db.metrics();
    let stream = form_queries(&schema, ctx.seed, arrivals);
    let (phase, answers) = open_loop(ctx, &single.db, &stream);
    main_phase_peak(&mut r);
    reconcile_single(&single, &mut r.checks);
    // The layer metrics read the client's counters of the timed phase.
    let mut client = single.db.metrics();
    for (name, v) in &mut client.counters {
        *v -= counter(&warm, name);
    }
    r.attempted += phase.offered;
    r.failed += phase.failed;
    drop(single);
    // The checks and the restarts regenerate the corpus (the generator
    // is seeded).
    let table = yahoo_corpus(rows);
    check_answers(&table, &stream, &answers, &mut r.checks);
    let (durable, io) = restarts(ctx, &table, spec::FORM_K, &mut r.checks);
    if ctx.traced {
        // A form query is this workload's pass. The ladder replays a
        // canonical stream, so its counts do not depend on `--seed`.
        let passes = Passes {
            pass_ns: phase.latency.clone(),
            ..Passes::default()
        };
        let canonical = form_queries(&schema, spec::CANONICAL_SEED, spec::FORM_LADDER_QUERIES);
        let subject = Subject {
            table: &table,
            k: spec::FORM_K,
            kernel_rows: rows,
            members: 1,
            ops: Ops::Form(&canonical),
            main: Rung::Remote,
            open_loop_rate: spec::FORM_RATE,
        };
        layers::measure(ctx, &subject, &passes, &client, &durable, &io, &mut r);
        layers::open_loop_metrics(&phase, &mut r);
        return r;
    }
    let done = phase.latency.len();
    r.e2e(
        "probes_per_s",
        ratio(done as f64, phase.seconds),
        "1/s",
        format!(
            "{done} answered of {} offered at {}/s",
            phase.offered,
            spec::FORM_RATE
        ),
    );
    let ms: Vec<f64> = phase.latency.iter().map(|ns| ns / 1e6).collect();
    r.e2e(
        "pass_ms_p50",
        median(&ms),
        "ms",
        "p50 form-query latency (a query is this workload's pass)".into(),
    );
    r.e2e(
        "queries_per_pass",
        1.0,
        "count",
        "one query per form submission".into(),
    );
    r.e2e(
        "latency_us_p50",
        median(&phase.latency) / 1e3,
        "us",
        format!("p50 of {done} requests, timed from their due time"),
    );
    r.e2e(
        "on_time_fraction",
        phase.on_time_fraction(spec::LIMIT_FORM_US),
        "fraction",
        format!(
            "within {} us of due; p99 {:.0} us; {} stalls",
            spec::LIMIT_FORM_US,
            quantile(&phase.latency, 0.99) / 1e3,
            phase.stalls.len()
        ),
    );
    restart_metrics(&mut r, &durable, &io);
    r
}
