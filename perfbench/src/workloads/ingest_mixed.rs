//! `ingest_mixed`: writes beside reads on the durable store. A
//! `PersistentBackend` (`StdIo` in the checkout, `SyncPolicy::EveryN(64)`)
//! starts from the `walk_local` corpus and ingests a seeded stream of new
//! tuples, with one estimator pass after every fixed-size batch. A round
//! ends with a snapshot, one more batch, a drop and a reopen; rounds
//! replay from a fresh store until the run's time is up. The last
//! round's recovered store is checked against an in-memory table.

use hdb_core::UnbiasedSizeEstimator;
use std::sync::Arc;

use hdb_interface::{HiddenDb, MetricsSnapshot, PersistentBackend, Table, TopKInterface, Tuple};

use crate::common::{
    bool_corpus, fingerprint, index_rebuild_ns, new_tuples, repeated_setup, user_bytes, Durable,
    Passes, Store,
};
use crate::gauge;
use crate::layers::{self, Ops, Rung, Subject};
use crate::report::Report;
use crate::util::{median, now_ns, quantile, secs_since, Checks};
use crate::workloads::main_phase_peak;
use crate::{spec, Ctx};

/// One round: fresh store, `INGEST_BATCHES` × (batch, pass), snapshot,
/// a final batch, drop, reopen. Returns the estimate bits of the round's
/// passes, the interface's metrics and the reopened store.
fn round(
    ctx: &Ctx,
    base: &Table,
    stream: &[Vec<Tuple>],
    passes: &mut Passes,
    durable: &mut Durable,
    loc: &mut Store,
    checks: &mut Checks,
) -> (Option<u64>, MetricsSnapshot, Arc<PersistentBackend>) {
    let per_tuple = user_bytes(base);
    loc.reset();
    let io = Arc::clone(&loc.stats);
    let store = loc.create(base.clone());
    let db = HiddenDb::over(Arc::clone(&store), spec::WALK_K);
    let mut est = UnbiasedSizeEstimator::hd(ctx.seed).expect("the HD default config is valid");
    let (batches, tail) = stream.split_at(spec::INGEST_BATCHES);
    for batch in batches {
        durable.ingest(&ctx.spans, &store, &io, batch.clone(), per_tuple, checks);
        if ctx.traced {
            // The same walk twice on a fresh interface: the first pays the
            // index rebuild the batch left behind.
            durable
                .rebuild_ns
                .push(index_rebuild_ns(&store, spec::WALK_K, ctx.seed));
        }
        gauge::tick();
        let q0 = db.queries_issued();
        let t0 = now_ns();
        let request = passes.pass_ns.len() as u64 + 1;
        match ctx.spans.span("pass", 0, request, |_| est.pass(&db)) {
            Ok(_) => {
                let ns = now_ns().saturating_sub(t0) as f64;
                passes.pass_ns.push(gauge::scale(ns));
                passes.pass_queries.push(db.queries_issued() - q0);
            }
            Err(e) => {
                passes.failed += 1;
                checks.check(false, || format!("pass after a batch failed: {e}"));
            }
        }
    }
    let client = db.metrics();
    checks.ledger(&client, "ingest client");
    durable.snapshot(&ctx.spans, &store, checks);
    for batch in tail {
        durable.ingest(&ctx.spans, &store, &io, batch.clone(), per_tuple, checks);
    }
    durable.store_fsyncs += crate::common::store_fsyncs(&store);
    drop(db);
    drop(store);
    let reopened = durable.reopen(&ctx.spans, loc);
    (est.estimate().map(f64::to_bits), client, reopened)
}

/// The recovered store answers as an in-memory table holding the base
/// corpus plus every ingested tuple.
fn check_recovered(
    ctx: &Ctx,
    base: &Table,
    stream: &[Vec<Tuple>],
    recovered: Arc<PersistentBackend>,
    checks: &mut Checks,
) {
    let mut rows: Vec<Tuple> = base.tuples().to_vec();
    rows.extend(stream.iter().flatten().cloned());
    let reference = Table::new(base.schema().clone(), rows).expect("distinct rows");
    let want = fingerprint(
        &HiddenDb::new(reference, spec::WALK_K),
        ctx.seed,
        spec::CANONICAL_PASSES,
    );
    let got = fingerprint(
        &HiddenDb::over(recovered, spec::WALK_K),
        ctx.seed,
        spec::CANONICAL_PASSES,
    );
    checks.check(want.is_ok() && want == got, || {
        format!("recovered store diverged from the in-memory table: {got:?} vs {want:?}")
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let rows = ctx.rows(spec::CANONICAL_ROWS);
    let ((base, mut loc), setup_s, n) = repeated_setup(ctx, || {
        let base = bool_corpus(rows);
        let loc = Store::fresh(ctx, "ingest");
        drop(loc.create(base.clone()));
        (base, loc)
    });
    r.e2e(
        "setup_s",
        setup_s,
        "s",
        format!("median of {n}: generate {rows}x40, index, create the durable store"),
    );
    let stream: Vec<Vec<Tuple>> = new_tuples(
        &base,
        ctx.seed,
        (spec::INGEST_BATCHES + 1) * spec::INGEST_BATCH,
    )
    .chunks(spec::INGEST_BATCH)
    .map(<[Tuple]>::to_vec)
    .collect();

    let mut passes = Passes {
        round_passes: spec::INGEST_BATCHES as u64,
        ..Passes::default()
    };
    let mut durable = Durable::default();
    let start = now_ns();
    let mut first_bits = None;
    let mut rounds = 0u64;
    let mut client = MetricsSnapshot::default();
    let mut recovered = None;
    while rounds == 0 || secs_since(start) < ctx.seconds {
        // The previous round's store goes before the next is created.
        drop(recovered.take());
        let q0: u64 = passes.pass_queries.iter().sum();
        let (bits, metrics, reopened) = round(
            ctx,
            &base,
            &stream,
            &mut passes,
            &mut durable,
            &mut loc,
            &mut r.checks,
        );
        recovered = Some(reopened);
        client.merge(metrics);
        let q = passes.pass_queries.iter().sum::<u64>() - q0;
        if rounds == 0 {
            first_bits = bits;
            passes.round_queries = q;
        } else {
            r.checks
                .check(bits == first_bits && q == passes.round_queries, || {
                    format!("ingest round {rounds} diverged from round 0")
                });
        }
        rounds += 1;
    }
    main_phase_peak(&mut r);
    if let Some(store) = recovered {
        check_recovered(ctx, &base, &stream, store, &mut r.checks);
    }
    r.attempted +=
        durable.ingest_ns.len() as u64 + passes.pass_queries.iter().sum::<u64>() + passes.failed;
    r.failed += durable.failed + passes.failed;

    if ctx.traced {
        let io = Arc::clone(&loc.stats);
        let subject = Subject {
            table: &base,
            k: spec::WALK_K,
            kernel_rows: rows,
            members: 1,
            ops: Ops::Walk,
            main: Rung::LocalOn,
            open_loop_rate: spec::INGEST_OPEN_RATE,
        };
        layers::measure(ctx, &subject, &passes, &client, &durable, &io, &mut r);
        return r;
    }
    let timed = passes.pass_ns.len();
    let n_ingest = durable.ingest_ns.len();
    let pass_secs: f64 = passes.pass_ns.iter().sum::<f64>() / 1e9;
    let probes: u64 = passes.pass_queries.iter().sum();
    r.e2e(
        "probes_per_s",
        probes as f64 / pass_secs,
        "1/s",
        format!("{timed} passes, each right after a batch"),
    );
    r.e2e(
        "pass_ms_p50",
        median(&passes.pass_ms()),
        "ms",
        format!("p50 of {timed} passes, each right after a batch"),
    );
    r.e2e(
        "queries_per_pass",
        passes.queries_per_pass(),
        "count",
        format!(
            "{} queries in a {}-pass round",
            passes.round_queries, passes.round_passes
        ),
    );
    r.e2e(
        "latency_us_p50",
        median(&durable.ingest_ns) / 1e3,
        "us",
        format!("p50 of {n_ingest} durable ingests"),
    );
    let on_time = durable
        .ingest_ns
        .iter()
        .filter(|&&ns| ns / 1e3 <= spec::LIMIT_INGEST_US)
        .count();
    r.e2e(
        "on_time_fraction",
        on_time as f64 / (n_ingest as f64 + durable.failed as f64).max(1.0),
        "fraction",
        format!(
            "ingests within {} us; p99 {:.1} us",
            spec::LIMIT_INGEST_US,
            quantile(&durable.ingest_ns, 0.99) / 1e3
        ),
    );
    r.e2e(
        "ingests_per_s",
        durable.ingests_per_s(),
        "1/s",
        format!(
            "median over runs of {} of {n_ingest} durable ingests",
            spec::INGEST_SYNC_EVERY
        ),
    );
    r.e2e(
        "recovery_s",
        median(&durable.open_s),
        "s",
        format!(
            "median of {rounds} reopens, each loading the snapshot and replaying {} WAL records",
            durable.replayed
        ),
    );
    r
}
