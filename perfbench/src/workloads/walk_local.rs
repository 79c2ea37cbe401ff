//! `walk_local`: the ROADMAP ruler. The HD size estimator (k = 10) over
//! the canonical 100k×40 `bool_iid` corpus through an in-process
//! `HiddenDb<TableBackend>`; every pass timed on its own.

use hdb_interface::HiddenDb;

use crate::common::{bool_corpus, repeated_setup, restarts, walk_rounds};
use crate::layers::{self, Ops, Rung, Subject};
use crate::report::Report;
use crate::workloads::{main_phase_peak, pass_metrics, restart_metrics};
use crate::{spec, Ctx};

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let rows = ctx.rows(spec::CANONICAL_ROWS);
    let (db, setup_s, n) = repeated_setup(ctx, || HiddenDb::new(bool_corpus(rows), spec::WALK_K));
    r.e2e(
        "setup_s",
        setup_s,
        "s",
        format!("median of {n}: generate {rows}x40, index, wrap"),
    );

    let passes = walk_rounds(
        &ctx.spans,
        &db,
        ctx.seed,
        spec::WALK_LOCAL_PASSES,
        ctx.seconds,
        &mut r.checks,
    );
    main_phase_peak(&mut r);
    let client = db.metrics();
    r.checks.ledger(&client, "walk_local client");
    r.attempted += passes.pass_queries.iter().sum::<u64>() + passes.failed;
    r.failed += passes.failed;
    let (durable, io) = restarts(ctx, db.table(), spec::WALK_K, &mut r.checks);

    if ctx.traced {
        let subject = Subject {
            table: db.table(),
            k: spec::WALK_K,
            kernel_rows: rows,
            members: 1,
            ops: Ops::Walk,
            main: Rung::LocalOn,
            open_loop_rate: spec::WALK_LOCAL_OPEN_RATE,
        };
        layers::measure(ctx, &subject, &passes, &client, &durable, &io, &mut r);
        return r;
    }
    pass_metrics(&mut r, &passes, spec::LIMIT_WALK_LOCAL_PASS_US);
    restart_metrics(&mut r, &durable, &io);
    r
}
