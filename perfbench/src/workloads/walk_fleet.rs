//! `walk_fleet`: the `walk_local` estimator and seed against a
//! `FederatedBackend` over two loopback `hdb-server`s holding the hash
//! partitions of a 10k×40 `bool_iid` corpus. The kernel is tiny here;
//! the wire codec, the reactor, server dispatch and the fan-out/merge
//! do most of the work.

use hdb_interface::{HiddenDb, ShardedDb, Table};

use crate::common::{
    bool_corpus, fingerprint, repeated_setup, restarts, walk_rounds, Fleet, Passes,
};
use crate::layers::{self, Ops, Rung, Subject};
use crate::report::Report;
use crate::util::{counter, Checks};
use crate::workloads::{main_phase_peak, pass_metrics, restart_metrics};
use crate::{spec, Ctx};

/// The estimate bits and query count of a round must equal an
/// in-process `ShardedDb` with the same partitioning.
fn check_against_sharded(table: &Table, seed: u64, passes: &Passes, checks: &mut Checks) {
    let local = HiddenDb::over(
        ShardedDb::new(table, spec::FLEET_MEMBERS).with_workers(1),
        spec::WALK_K,
    );
    match fingerprint(&local, seed, passes.round_passes) {
        Ok((bits, queries)) => checks.check(
            Some(bits) == passes.estimate_bits && queries == passes.round_queries,
            || {
                format!(
                    "fleet diverged from the local ShardedDb: bits {:?} vs {bits}, \
                     queries {} vs {queries}",
                    passes.estimate_bits, passes.round_queries
                )
            },
        ),
        Err(e) => checks.check(false, || format!("local ShardedDb reference failed: {e}")),
    }
}

/// Every probe the client did not answer from its memo reached every
/// member exactly once, and each member's ledger holds. Only probes are
/// reconciled: `FederatedBackend` exposes no client-side count of wire
/// exchanges to hold against the members' frames.
pub fn reconcile_fleet(fleet: &Fleet, checks: &mut Checks) {
    let client = fleet.db.metrics();
    checks.ledger(&client, "fleet client");
    for (i, s) in fleet.servers.iter().enumerate() {
        checks.ledger(&s.metrics(), &format!("fleet member {i}"));
    }
    let memo = counter(&client, "hdb_memo_response_hits_total")
        + counter(&client, "hdb_memo_count_hits_total");
    let forwarded = counter(&client, "hdb_queries_issued_total") - memo;
    let member_probes = counter(&fleet.server_metrics(), "hdb_queries_issued_total");
    let members = fleet.servers.len() as u64;
    checks.check(member_probes == forwarded * members, || {
        format!(
            "client forwarded {forwarded} probes to {members} members, \
             member ledgers hold {member_probes}"
        )
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut r = Report::default();
    let rows = ctx.rows(spec::FLEET_ROWS);
    let (fleet, setup_s, n) = repeated_setup(ctx, || {
        Fleet::start(&bool_corpus(rows), spec::FLEET_MEMBERS, spec::WALK_K)
    });
    r.e2e(
        "setup_s",
        setup_s,
        "s",
        format!(
            "median of {n}: generate {rows}x40, partition, serve on {} members, connect",
            spec::FLEET_MEMBERS
        ),
    );

    let passes = walk_rounds(
        &ctx.spans,
        &fleet.db,
        ctx.seed,
        spec::WALK_FLEET_PASSES,
        ctx.seconds,
        &mut r.checks,
    );
    main_phase_peak(&mut r);
    reconcile_fleet(&fleet, &mut r.checks);
    let client = fleet.db.metrics();
    r.attempted += passes.pass_queries.iter().sum::<u64>() + passes.failed;
    r.failed += passes.failed;
    drop(fleet);
    // The members held the only copies of the corpus; the checks and the
    // restarts regenerate it (the generator is seeded).
    let table = bool_corpus(rows);
    check_against_sharded(&table, ctx.seed, &passes, &mut r.checks);
    let (durable, io) = restarts(ctx, &table, spec::WALK_K, &mut r.checks);
    if ctx.traced {
        let subject = Subject {
            table: &table,
            k: spec::WALK_K,
            kernel_rows: rows.div_ceil(spec::FLEET_MEMBERS),
            members: spec::FLEET_MEMBERS,
            ops: Ops::Walk,
            main: Rung::Fleet,
            open_loop_rate: spec::WALK_FLEET_OPEN_RATE,
        };
        layers::measure(ctx, &subject, &passes, &client, &durable, &io, &mut r);
        return r;
    }
    pass_metrics(&mut r, &passes, spec::LIMIT_WALK_FLEET_PASS_US);
    restart_metrics(&mut r, &durable, &io);
    r
}
