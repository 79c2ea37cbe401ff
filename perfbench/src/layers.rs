//! The traced run's per-layer metrics. They come from three sources, so
//! no forwarding backend wrapper is needed: stacks of the same seeded
//! operations run in different set-ups (the ladder), direct calls into
//! public layer APIs (bitmap kernel, walk session, wire codec, ping), and
//! the program's own counters (`HiddenDb::metrics`,
//! `RunningServer::metrics`, `RemoteBackend::server_stats`).

use std::hint::black_box;

use hdb_interface::bitmap::Bitmap;
use hdb_interface::wire::{Request, Response};
use hdb_interface::{
    Classified, Evaluation, HiddenDb, MetricsSnapshot, Predicate, Query, RankingSpec, Table,
    TopKInterface,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{Durable, Fleet, IoStats, Passes, Single};
use crate::loadgen::{self, OpenLoop};
use crate::report::Report;
use crate::spans::Spans;
use crate::util::{counter, gauge, median, now_ns, quantile, ratio, timed, Checks};
use crate::{alloc, spec, Ctx};

/// The operations the ladder replays on every stack.
pub enum Ops<'a> {
    /// [`spec::CANONICAL_PASSES`] HD passes seeded with [`spec::CANONICAL_SEED`].
    Walk,
    /// These form queries, closed loop.
    Form(&'a [Query]),
}

/// The stacks of the ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// In-process `HiddenDb<TableBackend>`, metrics stripped.
    LocalOff,
    /// In-process `HiddenDb<TableBackend>`, metrics on (the default).
    LocalOn,
    /// One loopback server holding the whole corpus.
    Remote,
    /// A fleet of [`spec::FLEET_MEMBERS`] servers.
    Fleet,
}

/// What a traced run measures its layers on.
pub struct Subject<'a> {
    /// The workload's corpus.
    pub table: &'a Table,
    /// Interface constant.
    pub k: usize,
    /// Rows one bitmap AND covers on the workload's own stack.
    pub kernel_rows: usize,
    /// Backends one forwarded probe reaches (fleet members).
    pub members: usize,
    /// The ladder's operations.
    pub ops: Ops<'a>,
    /// Which rung is the workload's own stack.
    pub main: Rung,
    /// Arrival rate of the open-loop segment (walk and ingest workloads).
    pub open_loop_rate: f64,
}

/// One rung's measurement: time per operation, the exact counts, and the
/// answer fingerprint every rung must agree on.
#[derive(Debug, Default, Clone)]
struct RungRun {
    us_per_op: Vec<f64>,
    us_per_probe: Vec<f64>,
    issued: u64,
    ops: u64,
    allocs: u64,
    fingerprint: u64,
    /// Wire exchanges (served rungs): the client's own count on one
    /// server; on the fleet, whose `FederatedBackend` exposes no such
    /// count, the members' frames less the extra frames of batches.
    exchanges: u64,
    /// Server frames, dispatches and streamed bytes (served rungs).
    frames: u64,
    dispatches: u64,
    streamed: u64,
    ping_us: Vec<f64>,
}

impl RungRun {
    /// Adds a later replay of the same rung: its timings join these, its
    /// exact counts (equal on every replay) replace these.
    fn absorb(&mut self, later: RungRun) {
        self.us_per_op.extend(later.us_per_op);
        self.us_per_probe.extend(later.us_per_probe);
        (self.issued, self.ops, self.allocs, self.fingerprint) =
            (later.issued, later.ops, later.allocs, later.fingerprint);
    }
}

/// One replay of the ladder's operations: wall time and allocations
/// inside the operations only, and the exact counts.
struct Replay {
    ns: f64,
    allocs: u64,
    issued: u64,
    ops: u64,
    fingerprint: u64,
}

/// Runs `op` counting its wall time and the calling thread's
/// allocations into `ns` and `allocs`.
fn measured<T>(ns: &mut f64, allocs: &mut u64, op: impl FnOnce() -> T) -> T {
    let a0 = alloc::this_thread();
    let t0 = now_ns();
    let out = op();
    *ns += now_ns().saturating_sub(t0) as f64;
    *allocs += alloc::this_thread() - a0;
    out
}

/// Replays `ops` on `db` once.
fn replay<I: TopKInterface>(spans: &Spans, db: &I, ops: &Ops<'_>, checks: &mut Checks) -> Replay {
    let q0 = db.queries_issued();
    let (mut ns, mut allocs, mut fingerprint) = (0.0, 0u64, 0u64);
    let n = match ops {
        Ops::Walk => {
            let mut est = hdb_core::UnbiasedSizeEstimator::hd(spec::CANONICAL_SEED)
                .expect("the HD default config is valid");
            for p in 0..spec::CANONICAL_PASSES {
                let r = measured(&mut ns, &mut allocs, || {
                    spans.span("pass", 0, p + 1, |_| est.pass(db))
                });
                checks.check(r.is_ok(), || format!("ladder pass failed: {r:?}"));
            }
            fingerprint = est.estimate().map_or(0, f64::to_bits);
            spec::CANONICAL_PASSES
        }
        Ops::Form(stream) => {
            for (i, q) in stream.iter().enumerate() {
                let r = measured(&mut ns, &mut allocs, || {
                    spans.span("query", 0, i as u64 + 1, |_| db.query(q))
                });
                match r {
                    Ok(o) => {
                        fingerprint = fingerprint.rotate_left(1) ^ crate::workloads::digest(&o)
                    }
                    Err(e) => checks.check(false, || format!("ladder query failed: {e}")),
                }
            }
            stream.len() as u64
        }
    };
    Replay {
        ns,
        allocs,
        issued: db.queries_issued() - q0,
        ops: n,
        fingerprint,
    }
}

/// Replays the ladder's operations on one rung, `reps` times on fresh
/// interfaces (each starts with a cold memo, like the others).
fn rung(s: &Subject<'_>, which: Rung, reps: usize, spans: &Spans, checks: &mut Checks) -> RungRun {
    let mut out = RungRun::default();
    let record = |out: &mut RungRun, r: Replay| {
        out.us_per_op.push(r.ns / 1e3 / r.ops.max(1) as f64);
        out.us_per_probe.push(r.ns / 1e3 / r.issued.max(1) as f64);
        out.issued = r.issued;
        out.ops = r.ops;
        out.allocs = r.allocs;
        out.fingerprint = r.fingerprint;
    };
    for _ in 0..reps {
        match which {
            Rung::LocalOff | Rung::LocalOn => {
                let mut db = HiddenDb::new(s.table.clone(), s.k);
                if which == Rung::LocalOff {
                    db = db.with_metrics_disabled();
                }
                record(&mut out, replay(spans, &db, &s.ops, checks));
            }
            Rung::Remote => {
                let single = Single::start(s.table.clone(), s.k, 1);
                let before = single.server.metrics();
                let r0 = single.db.backend().requests_sent();
                record(&mut out, replay(spans, &single.db, &s.ops, checks));
                out.exchanges = single.db.backend().requests_sent() - r0;
                served_counts(&mut out, &before, &single.server.metrics());
                out.ping_us.clear();
                for _ in 0..200 {
                    let (r, ns) = timed(|| single.db.backend().ping());
                    checks.check(r.is_ok(), || "ping failed".into());
                    out.ping_us.push(ns as f64 / 1e3);
                }
            }
            Rung::Fleet => {
                let fleet = Fleet::start(s.table, spec::FLEET_MEMBERS, s.k);
                let before = fleet.server_metrics();
                record(&mut out, replay(spans, &fleet.db, &s.ops, checks));
                let after = fleet.server_metrics();
                served_counts(&mut out, &before, &after);
                let batch = |m: &MetricsSnapshot| {
                    m.histograms
                        .get("hdb_server_batch_size")
                        .map_or(0, |h| h.sum - h.count)
                };
                // Server-side: a batch is one exchange carrying several
                // frames.
                out.exchanges = out.frames - (batch(&after) - batch(&before));
            }
        }
    }
    out
}

fn served_counts(out: &mut RungRun, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |name: &str| counter(after, name) - counter(before, name);
    out.frames = d("hdb_server_frames_total");
    out.dispatches = d("hdb_server_dispatches_total");
    out.streamed = d("hdb_server_streamed_bytes_total");
}

/// ns per `Bitmap::and_count` of two half-full bitmaps of `rows` bits.
fn and_count_ns(rows: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = Bitmap::zeros(rows);
    let mut b = Bitmap::zeros(rows);
    for i in 0..rows {
        if rng.random_bool(0.5) {
            a.set(i);
        }
        if rng.random_bool(0.5) {
            b.set(i);
        }
    }
    let reps = (20_000_000 / rows.max(1)).clamp(200, 200_000);
    let mut per_batch = Vec::new();
    for _ in 0..7 {
        let (_, ns) = timed(|| {
            for _ in 0..reps {
                black_box(black_box(&a).and_count(black_box(&b)));
            }
        });
        per_batch.push(ns as f64 / reps as f64);
    }
    median(&per_batch)
}

/// A seeded descent through `WalkSession`: from the root, classify a
/// random child, commit it while it overflows, start over when it does
/// not. Returns mean µs per classify and per extend, the calls made, and
/// the interface's metrics afterwards.
fn session_descent(s: &Subject<'_>, seed: u64) -> (f64, f64, u64, u64, MetricsSnapshot) {
    let db = HiddenDb::new(s.table.clone(), s.k);
    let schema = s.table.schema().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut classify_ns, mut extend_ns, mut classifies, mut extends) = (0u64, 0u64, 0u64, 0u64);
    let deadline = now_ns() + 600_000_000;
    let mut walk = db
        .walk_session(Query::all())
        .expect("the root query is valid");
    while classifies < 2_000 || now_ns() < deadline {
        // Back to the root, as the estimator's backtracking does; the
        // retired levels feed the session's scratch arena.
        while walk.depth() > 0 {
            walk.retract();
        }
        loop {
            let free: Vec<usize> = (0..schema.len())
                .filter(|&a| !walk.query().constrains(a))
                .collect();
            if free.is_empty() {
                break;
            }
            let attr = free[rng.random_range(0..free.len())];
            let value =
                u16::try_from(rng.random_range(0..schema.fanout(attr))).expect("fan-out fits u16");
            let t0 = now_ns();
            let outcome = walk.classify(attr, value);
            classify_ns += now_ns() - t0;
            classifies += 1;
            match outcome {
                Ok(o) if o.is_overflow() => {
                    let t0 = now_ns();
                    walk.extend(attr, value);
                    extend_ns += now_ns() - t0;
                    extends += 1;
                }
                _ => break,
            }
        }
        if classifies >= 200_000 {
            break;
        }
    }
    drop(walk);
    (
        classify_ns as f64 / 1e3 / classifies.max(1) as f64,
        extend_ns as f64 / 1e3 / extends.max(1) as f64,
        classifies,
        extends,
        db.metrics(),
    )
}

/// Median ns to encode and to decode one message.
fn codec_ns(payload: impl Fn() -> Vec<u8>, decode: impl Fn(&[u8]) -> bool) -> (f64, f64) {
    let reps = 2_000;
    let bytes = payload();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (_, ns) = timed(|| {
            for _ in 0..reps {
                black_box(payload());
            }
        });
        enc.push(ns as f64 / f64::from(reps));
        let (_, ns) = timed(|| {
            for _ in 0..reps {
                black_box(decode(black_box(&bytes)));
            }
        });
        dec.push(ns as f64 / f64::from(reps));
    }
    (median(&enc), median(&dec))
}

/// The wire messages this workload's corpus gives rise to, encoded and
/// decoded through the public codec: the count-only walk probe (plain
/// and fused with an extend) with its answer, and the full top-k
/// evaluation with its page.
fn wire_metrics(s: &Subject<'_>, r: &mut Report) {
    let schema = s.table.schema();
    let mut deep = Query::all();
    for a in 0..schema.len().min(10) {
        deep = deep.and(a, 0).expect("distinct attributes");
    }
    let form = Query::all()
        .and(0, 0)
        .and_then(|q| q.and(2, 0))
        .expect("distinct attributes");
    let local = HiddenDb::new(s.table.clone(), s.k);
    let page = local
        .query(&form)
        .map(|o| o.tuples().to_vec())
        .unwrap_or_default();
    let k = s.k as u64;
    let last = schema.len() - 1;
    let pred = Predicate::new(last, 0);
    let ext = Predicate::new(last - 1, 0);
    let messages: Vec<(&'static str, &'static str, Request, Response)> = vec![
        (
            "walk_classify",
            "classified",
            Request::WalkClassify {
                sid: 7,
                parent_level: 9,
                child: deep.clone(),
                pred,
                k,
            },
            Response::Classified(Classified {
                count: 3,
                page: page.iter().take(3).cloned().collect(),
            }),
        ),
        (
            "walk_extend_classify",
            "extend_classified",
            Request::WalkExtendClassify {
                sid: 7,
                parent_level: 8,
                ext_child: deep.clone(),
                ext_pred: ext,
                child: deep.clone(),
                pred,
                k,
            },
            Response::ExtendClassified {
                level: 9,
                classified: Classified {
                    count: 40,
                    page: Vec::new(),
                },
            },
        ),
        (
            "evaluate",
            "evaluation",
            Request::Evaluate {
                query: form.clone(),
                k,
                ranking: RankingSpec::RowId,
            },
            Response::Evaluation(Evaluation {
                count: s.table.exact_count(&form),
                top: page.clone(),
            }),
        ),
    ];
    for (req_name, resp_name, req, resp) in messages {
        let (e, d) = codec_ns(
            || req.encode().expect("encodable request"),
            |b| Request::decode(b).is_ok(),
        );
        let base = format!("median of 5 batches of 2000 {req_name} requests");
        r.layer(&format!("wire.encode_ns.{req_name}"), e, "ns", base.clone());
        r.layer(&format!("wire.decode_ns.{req_name}"), d, "ns", base);
        let (e, d) = codec_ns(
            || resp.encode().expect("encodable response"),
            |b| Response::decode(b).is_ok(),
        );
        let base = format!("median of 5 batches of 2000 {resp_name} responses");
        r.layer(
            &format!("wire.encode_ns.{resp_name}"),
            e,
            "ns",
            base.clone(),
        );
        r.layer(&format!("wire.decode_ns.{resp_name}"), d, "ns", base);
    }
}

/// The loadgen and interface-service metrics of an open-loop phase.
pub fn open_loop_metrics(phase: &OpenLoop, r: &mut Report) {
    let n = phase.service.len();
    let base = format!(
        "{n} requests offered at {:.0}/s for {:.1} s",
        phase.offered as f64 / phase.seconds,
        phase.seconds
    );
    r.layer(
        "interface.service_us_p50",
        quantile(&phase.service, 0.5) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "interface.service_us_p99",
        quantile(&phase.service, 0.99) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "interface.service_us_max",
        quantile(&phase.service, 1.0) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "loadgen.lag_us_p99",
        quantile(&phase.lag, 0.99) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "loadgen.queue_us_p99",
        quantile(&phase.queue, 0.99) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "loadgen.latency_us_p99",
        quantile(&phase.latency, 0.99) / 1e3,
        "us",
        base.clone(),
    );
    r.layer(
        "loadgen.latency_us_p999",
        quantile(&phase.latency, 0.999) / 1e3,
        "us",
        base,
    );
    let stalls: Vec<String> = phase
        .stalls
        .iter()
        .map(|(at, ms)| format!("{at:.3}s:{ms:.1}ms"))
        .collect();
    r.layer(
        "loadgen.stalls",
        phase.stalls.len() as f64,
        "count",
        format!("services over 100 ms at [{}]", stalls.join(", ")),
    );
}

/// The open-loop segment of a walk or ingest workload: its unit
/// operation (an HD pass; a durable ingest) released at a fixed rate.
fn open_loop_segment(ctx: &Ctx, s: &Subject<'_>, ingest: bool, checks: &mut Checks) -> OpenLoop {
    let secs = if ctx.smoke {
        0.5
    } else {
        spec::OPEN_SEGMENT_SECONDS
    };
    if ingest {
        let loc = crate::common::Store::fresh(ctx, "openloop");
        let store = loc.create(s.table.clone());
        let tuples = crate::common::new_tuples(
            s.table,
            ctx.seed ^ 0x0be9_1000,
            (s.open_loop_rate * secs).ceil() as usize + 1,
        );
        let phase = loadgen::run(s.open_loop_rate, secs, vec![()], |_, i| {
            ctx.spans
                .span("ingest", 0, i as u64 + 1, |_| {
                    store.ingest(tuples[i].clone())
                })
                .is_ok()
        });
        checks.check(phase.failed == 0, || {
            format!("{} open-loop ingests failed", phase.failed)
        });
        return phase;
    }
    let est =
        hdb_core::UnbiasedSizeEstimator::hd(ctx.seed).expect("the HD default config is valid");
    let phase = match s.main {
        Rung::Fleet => {
            let fleet = Fleet::start(s.table, spec::FLEET_MEMBERS, s.k);
            loadgen::run(s.open_loop_rate, secs, vec![est], |e, i| {
                ctx.spans
                    .span("pass", 0, i as u64 + 1, |_| e.pass(&fleet.db))
                    .is_ok()
            })
        }
        _ => {
            let db = HiddenDb::new(s.table.clone(), s.k);
            loadgen::run(s.open_loop_rate, secs, vec![est], |e, i| {
                ctx.spans
                    .span("pass", 0, i as u64 + 1, |_| e.pass(&db))
                    .is_ok()
            })
        }
    };
    checks.check(phase.failed == 0, || {
        format!("{} open-loop passes failed", phase.failed)
    });
    phase
}

/// Every per-layer metric of a traced run, each with its base.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    ctx: &Ctx,
    s: &Subject<'_>,
    main: &Passes,
    client: &MetricsSnapshot,
    durable: &Durable,
    io: &IoStats,
    r: &mut Report,
) {
    let spans = &ctx.spans;
    let off_spans = Spans::new(false);
    let reps = if ctx.smoke { 1 } else { 5 };

    // bitmap
    let and_ns = spans.span("bitmap.and_count", 0, 0, |_| {
        and_count_ns(s.kernel_rows, ctx.seed)
    });
    r.layer(
        "bitmap.and_count_ns",
        and_ns,
        "ns",
        format!("median of 7 batches at {} rows", s.kernel_rows),
    );

    // The ladder: local off/on interleaved, then the served stacks.
    let (mut off, mut on) = (RungRun::default(), RungRun::default());
    for _ in 0..reps {
        off.absorb(spans.span("ladder.local_off", 0, 0, |_| {
            rung(s, Rung::LocalOff, 1, &off_spans, &mut r.checks)
        }));
        on.absorb(spans.span("ladder.local_on", 0, 0, |_| {
            rung(s, Rung::LocalOn, 1, &off_spans, &mut r.checks)
        }));
    }
    let served_reps = if ctx.smoke { 1 } else { 3 };
    let remote = spans.span("ladder.remote", 0, 0, |_| {
        rung(s, Rung::Remote, served_reps, &off_spans, &mut r.checks)
    });
    let fleet = spans.span("ladder.fleet", 0, 0, |_| {
        rung(s, Rung::Fleet, served_reps, &off_spans, &mut r.checks)
    });
    for (name, other) in [("local_off", &off), ("remote", &remote), ("fleet", &fleet)] {
        r.checks.check(
            other.fingerprint == on.fingerprint && other.issued == on.issued,
            || format!("ladder rung {name} answered differently from the in-process stack"),
        );
    }
    let us = |x: &RungRun| median(&x.us_per_probe);
    let main_rung = match s.main {
        Rung::LocalOff | Rung::LocalOn => &on,
        Rung::Remote => &remote,
        Rung::Fleet => &fleet,
    };
    let (served, served_name) = if s.main == Rung::Fleet {
        (&fleet, "fleet")
    } else {
        (&remote, "one-server")
    };
    let ladder_base = |x: &RungRun| {
        format!(
            "{} ops, {} probes, median of {} replays",
            x.ops,
            x.issued,
            x.us_per_probe.len()
        )
    };

    // bitmap share of a probe: ANDs per issued query on the main stack.
    let memo = counter(client, "hdb_memo_response_hits_total")
        + counter(client, "hdb_memo_count_hits_total");
    let issued = counter(client, "hdb_queries_issued_total");
    let forwarded = ratio(issued.saturating_sub(memo) as f64, issued as f64);
    r.layer(
        "bitmap.us_per_probe",
        and_ns / 1e3 * forwarded * s.members as f64,
        "us",
        format!(
            "and_count_ns x {forwarded:.3} forwarded per issued x {} members",
            s.members
        ),
    );

    // session
    let (classify_us, extend_us, classifies, extends, walk_metrics) =
        spans.span("session.descent", 0, 0, |_| session_descent(s, ctx.seed));
    let state_bytes = s.table.len().div_ceil(64) * 8;
    let high = gauge(&walk_metrics, "hdb_walk_scratch_high_water");
    r.layer(
        "session.classify_us",
        classify_us,
        "us",
        format!("mean of {classifies} WalkSession::classify calls"),
    );
    r.layer(
        "session.extend_us",
        extend_us,
        "us",
        format!("mean of {extends} WalkSession::extend calls"),
    );
    r.layer(
        "session.scratch_high_water_bytes",
        (high as usize * state_bytes) as f64,
        "bytes",
        format!("{high} retired states x {state_bytes} B dense state"),
    );

    // interface
    r.layer(
        "interface.memo_hit_ratio",
        ratio(memo as f64, issued as f64),
        "ratio",
        format!("{memo} memo hits of {issued} issued, main phase"),
    );
    r.layer(
        "interface.allocs_per_probe",
        ratio(main_rung.allocs as f64, main_rung.issued as f64),
        "count",
        format!(
            "{} allocations on the issuing thread over {} probes",
            main_rung.allocs, main_rung.issued
        ),
    );

    // obs
    r.layer(
        "obs.us_per_probe",
        us(&on) - us(&off),
        "us",
        format!(
            "metrics on {:.4} - off {:.4} us/probe; {}",
            us(&on),
            us(&off),
            ladder_base(&on)
        ),
    );

    // engine
    r.layer(
        "engine.self_us_per_probe",
        us(&on) - classify_us,
        "us",
        format!(
            "in-process {:.4} us/probe - session.classify_us {classify_us:.4}",
            us(&on)
        ),
    );
    r.layer(
        "engine.pass_ms_p99",
        quantile(&main.pass_ns, 0.99) / 1e6,
        "ms",
        format!("p99 of {} main-phase passes", main.pass_ns.len()),
    );

    // wire + reactor
    wire_metrics(s, r);
    let per_q = |x: u64| ratio(x as f64, served.issued as f64);
    r.layer(
        "wire.exchanges_per_query",
        per_q(served.exchanges),
        "count",
        format!(
            "{} exchanges / {} probes, {served_name} stack ({})",
            served.exchanges,
            served.issued,
            if s.main == Rung::Fleet {
                "from the members' frames"
            } else {
                "the client's count"
            }
        ),
    );
    r.layer(
        "reactor.frames_per_query",
        per_q(served.frames),
        "count",
        format!("{} frames / {} probes", served.frames, served.issued),
    );
    r.layer(
        "reactor.dispatches_per_frame",
        ratio(served.dispatches as f64, served.frames as f64),
        "count",
        format!(
            "{} dispatches / {} frames",
            served.dispatches, served.frames
        ),
    );
    r.layer(
        "reactor.streamed_bytes_per_query",
        per_q(served.streamed),
        "bytes",
        format!(
            "{} streamed bytes / {} probes",
            served.streamed, served.issued
        ),
    );

    // remote + federated
    r.layer(
        "remote.ping_us",
        median(&remote.ping_us),
        "us",
        format!("median of {} RemoteBackend::ping", remote.ping_us.len()),
    );
    r.layer(
        "remote.us_per_probe",
        us(&remote) - us(&on),
        "us",
        format!(
            "1 server {:.3} - in-process {:.3} us/probe; {}",
            us(&remote),
            us(&on),
            ladder_base(&remote)
        ),
    );
    r.layer(
        "federated.us_per_probe",
        us(&fleet) - us(&remote),
        "us",
        format!(
            "{}-member fleet {:.3} - 1 server {:.3} us/probe",
            spec::FLEET_MEMBERS,
            us(&fleet),
            us(&remote)
        ),
    );
    r.layer(
        "federated.member_requests_per_query",
        ratio(fleet.frames as f64, fleet.issued as f64),
        "count",
        format!("{} member frames / {} probes", fleet.frames, fleet.issued),
    );

    // loadgen (the form workload reports its main phase instead)
    if let Ops::Walk = s.ops {
        let phase = open_loop_segment(ctx, s, ctx.workload == "ingest_mixed", &mut r.checks);
        open_loop_metrics(&phase, r);
    }

    // storage + backend
    let n = durable.ingest_ns.len();
    let wal_sync = io.wal_sync_ns.lock().map(|v| v.clone()).unwrap_or_default();
    r.layer(
        "storage.ingest_us_p99",
        quantile(&durable.ingest_ns, 0.99) / 1e3,
        "us",
        format!("p99 of {n} durable ingests"),
    );
    r.layer(
        "storage.fsync_us_p50",
        median(&wal_sync) / 1e3,
        "us",
        format!(
            "median of {} WAL fsyncs (store clock: WallClock)",
            wal_sync.len()
        ),
    );
    // Every fsync the store counts on its ingest path reached the disk
    // layer (which also sees the WAL syncs of create and compaction).
    r.checks
        .check(durable.store_fsyncs <= wal_sync.len() as u64, || {
            format!(
                "store counted {} WAL fsyncs, the I/O layer saw {}",
                durable.store_fsyncs,
                wal_sync.len()
            )
        });
    r.layer(
        "storage.fsyncs_per_ingest",
        ratio(durable.store_fsyncs as f64, n as f64),
        "count",
        format!("{} ingest-path fsyncs / {n} ingests", durable.store_fsyncs),
    );
    let written = io.bytes_written.load(std::sync::atomic::Ordering::Relaxed);
    r.layer(
        "storage.bytes_written_per_user_byte",
        ratio(written as f64, durable.user_bytes as f64),
        "ratio",
        format!(
            "{written} bytes written (snapshots included) / {} user bytes",
            durable.user_bytes
        ),
    );
    r.layer(
        "storage.snapshot_ms",
        median(&durable.snapshot_ns) / 1e6,
        "ms",
        format!("median of {} snapshots", durable.snapshot_ns.len()),
    );
    r.layer(
        "storage.replayed_records",
        durable.replayed as f64,
        "count",
        "WAL records the last reopen replayed".into(),
    );
    r.layer(
        "backend.index_rebuild_ms",
        median(&durable.rebuild_ns) / 1e6,
        "ms",
        format!(
            "median of {} (first pass after a batch - same walk replayed)",
            durable.rebuild_ns.len()
        ),
    );

    // Tracing overhead: the main stack's operations with spans on and off.
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        traced.extend(rung(s, Rung::LocalOn, 1, spans, &mut r.checks).us_per_op);
        plain.extend(rung(s, Rung::LocalOn, 1, &off_spans, &mut r.checks).us_per_op);
    }
    r.layer(
        "trace.overhead_fraction",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
        format!(
            "in-process ops with spans {:.3} vs without {:.3} us/op",
            median(&traced),
            median(&plain)
        ),
    );

    check_budgets(ctx, &on, served, main_rung, r);
    for (name, count, total, own) in spans.summary() {
        eprintln!(
            "  span {name:<22} n={count:<7} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Checks the count budgets: exact, machine-independent counts from the
/// ladder's canonical replay, each at most its budget.
fn check_budgets(ctx: &Ctx, on: &RungRun, served: &RungRun, main: &RungRun, r: &mut Report) {
    let Some(b) = spec::budget(&ctx.workload).filter(|_| !ctx.smoke) else {
        return;
    };
    let counts = [
        (
            "queries_per_pass",
            ratio(on.issued as f64, on.ops as f64),
            b.queries_per_pass,
        ),
        (
            "interface.allocs_per_probe",
            ratio(main.allocs as f64, main.issued as f64),
            b.allocs_per_probe,
        ),
        (
            "wire.exchanges_per_query",
            ratio(served.exchanges as f64, served.issued as f64),
            b.exchanges_per_query,
        ),
        (
            "reactor.frames_per_query",
            ratio(served.frames as f64, served.issued as f64),
            b.frames_per_query,
        ),
    ];
    for (name, value, budget) in counts {
        eprintln!("  budget {name:<28} {value:>12.6} (budget {budget})");
        r.checks.check(value <= budget, || {
            format!("{name} {value} exceeds its budget {budget}")
        });
    }
}
