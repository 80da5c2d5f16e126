//! Preemptive statement lifecycle, end to end: deadline tokens observed
//! mid-operator, memory budgets refused with a clean classified error,
//! WLM queue wait counted against the deadline, and the epoch-pin
//! registry draining when statements finish. Chaos scenarios reuse the
//! deterministic failpoint registry (`DASH_FAULT_SEED` respected, like
//! fault_injection.rs), so classification and cleanup hold under any
//! seed and any interleaving.

use dashdb_local::common::faults::{
    FaultAction, FaultPolicy, FaultRegistry, GATHER_LOAD, PAGE_READ, SHARD_EXEC,
};
use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, DashError, Field, Row, Schema, StatementContext};
use dashdb_local::core::{Database, HardwareSpec, Session};
use dashdb_local::exec::agg::{AggExpr, AggFunc};
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::join::JoinType;
use dashdb_local::exec::key::KeyMode;
use dashdb_local::exec::plan::{execute, PhysicalPlan, SharedTable};
use dashdb_local::exec::scan::ScanConfig;
use dashdb_local::exec::sort::{merge_sorted_runs, sort_batch, SortKey, SortOptions};
use dashdb_local::exec::stats::ExecStats;
use dashdb_local::exec::Batch;
use dashdb_local::mpp::{Cluster, Distribution};
use dashdb_local::sql::{parse_statement, Statement};
use std::time::{Duration, Instant};

/// Registry seed: `DASH_FAULT_SEED` (the CI matrix variable) when set,
/// otherwise the scenario default.
fn seed(default: u64) -> u64 {
    std::env::var("DASH_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn loaded_session(db: &std::sync::Arc<Database>, rows: usize) -> Session {
    let mut s = db.connect();
    s.execute("CREATE TABLE sales (id INT, region VARCHAR(8), amount DOUBLE)")
        .unwrap();
    let mut values = String::new();
    for i in 0..rows {
        if !values.is_empty() {
            values.push(',');
        }
        values.push_str(&format!("({}, 'r{}', {}.5)", i, i % 4, i % 25));
    }
    s.execute(&format!("INSERT INTO sales VALUES {values}"))
        .unwrap();
    s
}

/// A statement deadline fires while a scan is stalled on a simulated page
/// read. The sliced stall polls the token, so the statement dies in
/// milliseconds — not after the full stall — with the classified
/// `Cancelled` error, the WLM slot released, no lock poisoned, and the
/// preemption latency bounded at one morsel.
#[test]
fn deadline_fires_inside_storage_stall_not_after_it() {
    let reg = FaultRegistry::with_seed(seed(7));
    let db = Database::with_hardware(HardwareSpec::laptop());
    db.set_fault_registry(reg.clone());
    let mut s = loaded_session(&db, 4000);

    // Every page read stalls far longer than the whole deadline.
    reg.arm(
        PAGE_READ,
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(5)),
    );
    s.set_statement_timeout(Some(Duration::from_millis(40)));
    let start = Instant::now();
    let err = s
        .query("SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region")
        .unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "deadline kill is classified: {err}");
    assert!(
        elapsed < Duration::from_secs(4),
        "kill must interrupt the stall, not wait it out ({elapsed:?})"
    );

    let rec = db.monitor().recovery();
    assert_eq!(rec.statements_cancelled, 1, "{rec:?}");
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");
    assert!(
        rec.cancel_latency_max_morsels <= 1,
        "preemption latency bound: {rec:?}"
    );

    // Clean death: the admission slot is back, no queue residue, and the
    // same session answers the same statement once disarmed (locks would
    // be poisoned or state leaked otherwise).
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "WLM slot must not leak");
    reg.disarm(PAGE_READ);
    s.set_statement_timeout(None);
    let rows = s
        .query("SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(rows.len(), 4);
}

/// A memory budget too small for one morsel's aggregate partial refuses
/// the reservation: classified `ResourceExhausted` (53200, the OOM class —
/// never retried as transient), budget-rejection counters bumped, partial
/// state dropped, and the session still usable.
#[test]
fn aggregate_over_budget_is_refused_cleanly() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = loaded_session(&db, 5000);

    // A computed group expression: evaluated into a scratch key column.
    let sql = "SELECT region, id % 7, COUNT(*), SUM(amount) FROM sales GROUP BY region, id % 7";
    let unbudgeted = s.query(sql).unwrap();

    s.set_mem_budget(Some(2_000));
    let err = s.query(sql).unwrap_err();
    assert_eq!(err.class(), "53200", "budget refusal is classified: {err}");
    assert!(
        matches!(err, DashError::ResourceExhausted(_)),
        "wrong variant: {err:?}"
    );
    let rec = db.monitor().recovery();
    assert!(rec.budget_rejections >= 1, "{rec:?}");
    assert_eq!(
        rec.statements_cancelled, 0,
        "budget refusal is not a cancellation: {rec:?}"
    );
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "WLM slot must not leak");

    // Lift the budget: identical results, proving the aborted run left no
    // partial aggregation state behind.
    s.set_mem_budget(None);
    assert_eq!(s.query(sql).unwrap(), unbudgeted);
}

/// Time spent queued behind the workload manager counts against the
/// statement deadline: a statement that never gets a slot dies with the
/// same classified `Cancelled`, and the timed-out waiter leaves the queue
/// with nothing leaked.
#[test]
fn wlm_queue_wait_counts_against_deadline() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = loaded_session(&db, 50);

    // Saturate every admission slot from outside the session.
    let holds: Vec<_> = (0..db.wlm().limit())
        .map(|_| db.wlm().admit(StatementContext::ambient()).unwrap())
        .collect();
    s.set_statement_timeout(Some(Duration::from_millis(40)));
    let start = Instant::now();
    let err = s.query("SELECT COUNT(*) FROM sales").unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "queue wait must be bounded by the deadline"
    );
    let rec = db.monitor().recovery();
    assert_eq!(rec.statements_cancelled, 1, "{rec:?}");
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");

    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!(queued, 0, "timed-out waiter must leave the queue");
    assert_eq!(running as usize, holds.len(), "only the holds occupy slots");

    // Release the slots: the same session runs to completion.
    drop(holds);
    s.set_statement_timeout(None);
    let rows = s.query("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows[0].get(0).as_int(), Some(50));
}

/// A statement whose token is already cancelled — and which has no
/// deadline — is refused by a full admission gate at once: it never waits
/// in the queue for a slot it could not use, and leaves no queue residue.
#[test]
fn cancelled_statement_never_waits_in_the_wlm_queue() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = loaded_session(&db, 50);
    let Statement::Select(select) = parse_statement("SELECT COUNT(*) FROM sales", Dialect::Ansi).unwrap()
    else {
        unreachable!("a SELECT parses as a SELECT")
    };
    let holds: Vec<_> = (0..db.wlm().limit())
        .map(|_| db.wlm().admit(StatementContext::ambient()).unwrap())
        .collect();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let cancelled = StatementContext::unbounded();
        cancelled.cancel();
        let _ = tx.send(s.run_query(&select, cancelled).map(|r| r.rows));
    });
    // Bounded, then the holds go: a gate that queues the dead statement
    // fails here instead of hanging.
    let outcome = rx.recv_timeout(Duration::from_secs(2));
    drop(holds);
    worker.join().unwrap();
    assert!(matches!(outcome, Ok(Err(DashError::Cancelled))), "{outcome:?}");
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "the refused statement left residue");
    let rec = db.monitor().recovery();
    assert_eq!((rec.statements_cancelled, rec.deadline_kills), (1, 0), "{rec:?}");
}

/// The session's limits govern every statement that runs a query, not
/// just SELECT: `INSERT … SELECT`, `CREATE TABLE … AS`, and the row
/// matching of UPDATE and DELETE all go through the one statement runner.
/// Each of them, killed by a deadline mid-scan or refused by a starved
/// budget, fails classified, writes nothing, is counted in the monitor,
/// gives its WLM slot back and leaves nothing charged to its statement.
#[test]
fn limits_govern_every_statement_that_runs_a_query() {
    let reg = FaultRegistry::with_seed(seed(7));
    // A one-page pool: every page access of every statement is a miss,
    // so an armed page-read stall reaches each scan however warm the
    // statements before it left the pool.
    let db = Database::with_pool_pages(HardwareSpec::laptop(), 1);
    db.set_fault_registry(reg.clone());
    let mut s = loaded_session(&db, 4000);
    s.execute("CREATE TABLE copy (id INT, region VARCHAR(8), amount DOUBLE)")
        .unwrap();
    let statements = [
        "INSERT INTO copy SELECT id, region, amount FROM sales WHERE amount > 1.0",
        "CREATE TABLE totals AS SELECT region, COUNT(*) AS n FROM sales GROUP BY region",
        "UPDATE sales SET amount = amount + 1 WHERE id >= 10",
        "DELETE FROM sales WHERE amount > 3.0",
    ];
    let state = |s: &mut Session| {
        let sales = s.query("SELECT COUNT(*), SUM(amount) FROM sales").unwrap();
        let copied = s.query("SELECT COUNT(*) FROM copy").unwrap();
        (sales, copied, s.database().catalog().has_table("totals"))
    };
    let before = state(&mut s);
    for (i, sql) in statements.iter().enumerate() {
        let kills = i as u64 + 1;
        reg.arm(
            PAGE_READ,
            FaultPolicy::Always,
            FaultAction::Stall(Duration::from_secs(5)),
        );
        s.set_statement_timeout(Some(Duration::from_millis(40)));
        let start = Instant::now();
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err, DashError::Cancelled, "{sql}");
        assert!(start.elapsed() < Duration::from_secs(4), "{sql}: the stall was waited out");
        assert_eq!(s.statement().budget_used(), 0, "{sql}: deadline kill left bytes charged");
        reg.disarm(PAGE_READ);
        s.set_statement_timeout(None);
        let rec = db.monitor().recovery();
        assert_eq!((rec.deadline_kills, rec.statements_cancelled), (kills, kills), "{sql}: {rec:?}");

        s.set_mem_budget(Some(64));
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err.class(), "53200", "{sql}: {err}");
        assert_eq!(s.statement().budget_used(), 0, "{sql}: refusal left bytes charged");
        s.set_mem_budget(None);
        let rec = db.monitor().recovery();
        assert!(rec.budget_rejections >= kills, "{sql}: {rec:?}");
        assert_eq!(rec.statements_cancelled, kills, "{sql}: a refusal is not a cancellation");

        assert_eq!(state(&mut s), before, "{sql}: a dead statement wrote something");
        let (running, queued, _, _, _) = db.wlm().snapshot();
        assert_eq!((running, queued), (0, 0), "{sql}: WLM slot must not leak");
        assert_eq!(db.transactions().active_count(), 0, "{sql}: its transaction must be over");
    }
    // Limits lifted, the same session runs all four.
    let affected: Vec<u64> = statements.iter().map(|sql| s.execute(sql).unwrap().affected).collect();
    assert_eq!(affected, [3840, 0, 3990, 3679]);
    assert_eq!(s.query("SELECT n FROM totals ORDER BY region").unwrap().len(), 4);
}

/// A statement deadline fires while an ORDER BY is stalled mid-pipeline:
/// the parallel sort polls the token per run, so the statement dies
/// classified with the latency bound intact — and the same session sorts
/// again once the stall is disarmed.
#[test]
fn deadline_fires_during_parallel_sort_statement() {
    let reg = FaultRegistry::with_seed(seed(11));
    let db = Database::with_hardware(HardwareSpec::laptop());
    db.set_fault_registry(reg.clone());
    // 16 Ki rows: at the laptop's width 4 the sort cuts four runs, and
    // the cancellation token is polled once per run.
    let mut s = loaded_session(&db, 16 * 1024);

    reg.arm(
        PAGE_READ,
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(5)),
    );
    s.set_statement_timeout(Some(Duration::from_millis(40)));
    let start = Instant::now();
    let err = s
        .query("SELECT id, region, amount FROM sales ORDER BY amount DESC, id")
        .unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "deadline kill is classified: {err}");
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "kill must interrupt the statement, not wait out the stall"
    );
    let rec = db.monitor().recovery();
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");
    assert!(
        rec.cancel_latency_max_morsels <= 1,
        "preemption latency bound: {rec:?}"
    );
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "WLM slot must not leak");

    reg.disarm(PAGE_READ);
    s.set_statement_timeout(None);
    let rows = s
        .query("SELECT id FROM sales ORDER BY id FETCH FIRST 5 ROWS ONLY")
        .unwrap();
    assert_eq!(rows.len(), 5, "session must sort again after the kill");
}

/// A token that flips before the sort starts is observed inside run
/// generation — bare-column keys skip the evaluation pass, so the
/// run-morsel loop is the first check site — and the working-state lease
/// releases on the way out.
#[test]
fn cancelled_statement_dies_inside_sort_run_generation() {
    let input = Batch::from_rows(sales_schema(), &sales_rows(4_000)).unwrap();
    let stmt = StatementContext::unbounded();
    stmt.cancel();
    let ctx = EvalContext::with_statement(stmt.clone());
    let opts = SortOptions {
        limit: None,
        offset: 0,
        parallelism: 4,
        run_rows: 64,
    };
    let mut stats = ExecStats::default();
    let err = sort_batch(
        &input,
        &[SortKey::desc(2), SortKey::asc(0)],
        &opts,
        &ctx,
        &mut stats,
    )
    .unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "{err}");
    assert_eq!(
        stmt.budget_used(),
        0,
        "sort lease must release when run generation dies"
    );
    assert_eq!(
        stats.sort_runs_generated, 0,
        "no runs may be reported for a dead statement"
    );
}

/// The k-way merge checks the token between pops: an expired deadline and
/// a manual cancel both stop it with the classified `Cancelled`, however
/// many sorted runs are already queued up.
#[test]
fn deadline_kills_kway_merge_between_pops() {
    let runs: Vec<Vec<usize>> = (0..4usize)
        .map(|r| (r * 1_000..(r + 1) * 1_000).collect())
        .collect();
    let cmp = |a: usize, b: usize| a.cmp(&b);

    let expired = StatementContext::with_deadline(Duration::ZERO);
    let err = merge_sorted_runs(&runs, 4_000, &expired, &cmp).unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "{err}");

    let cancelled = StatementContext::unbounded();
    cancelled.cancel();
    let err = merge_sorted_runs(&runs, 4_000, &cancelled, &cmp).unwrap_err();
    assert_eq!(err, DashError::Cancelled, "a manual cancel classifies the same");
}

/// A memory budget too small for the sort's permutation state refuses the
/// reservation — classified `ResourceExhausted`, counters bumped, runs
/// released via RAII — and the session answers identically once the
/// budget is lifted.
#[test]
fn sort_over_budget_is_refused_and_releases_its_runs() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = loaded_session(&db, 5_000);
    let sql = "SELECT id, region, amount FROM sales ORDER BY amount DESC, id";
    let unbudgeted = s.query(sql).unwrap();

    s.set_mem_budget(Some(2_000));
    let err = s.query(sql).unwrap_err();
    assert_eq!(err.class(), "53200", "budget refusal is classified: {err}");
    assert!(
        matches!(err, DashError::ResourceExhausted(_)),
        "wrong variant: {err:?}"
    );
    let rec = db.monitor().recovery();
    assert!(rec.budget_rejections >= 1, "{rec:?}");
    assert_eq!(
        rec.statements_cancelled, 0,
        "budget refusal is not a cancellation: {rec:?}"
    );
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "WLM slot must not leak");
    s.set_mem_budget(None);
    assert_eq!(s.query(sql).unwrap(), unbudgeted);

    // Direct probe of the RAII contract: after the refusal nothing stays
    // charged against the statement, and the rejection is counted.
    let input = Batch::from_rows(sales_schema(), &sales_rows(4_000)).unwrap();
    let stmt = StatementContext::with_budget(64);
    let ctx = EvalContext::with_statement(stmt.clone());
    let opts = SortOptions {
        limit: None,
        offset: 0,
        parallelism: 4,
        run_rows: 256,
    };
    let mut stats = ExecStats::default();
    let err = sort_batch(&input, &[SortKey::asc(2)], &opts, &ctx, &mut stats).unwrap_err();
    assert!(matches!(err, DashError::ResourceExhausted(_)), "{err:?}");
    assert_eq!(stmt.budget_used(), 0, "refused sort must release its lease");
    assert!(stats.budget_rejections >= 1, "{stats:?}");
}

/// A sort charges its runs' buffers, the merged prefix and its positions
/// before it builds them: `(min(n, runs × 2·end) + end) × entry + end × 8`
/// bytes, with a 16-byte entry for one NULL-free integer key. A full sort
/// buffers every row; FETCH FIRST 10 buffers at most 20 entries a run.
/// Each succeeds at exactly its charge and is refused one byte under it,
/// leaving nothing charged.
#[test]
fn sort_charges_its_bounded_runs_exactly() {
    let input = Batch::from_rows(sales_schema(), &sales_rows(4_000)).unwrap();
    let full = (4_000 + 4_000) * 16 + 4_000 * 8;
    let fetch_first = (4 * 2 * 10 + 10) * 16 + 10 * 8;
    for (limit, charge) in [(None, full), (Some(10), fetch_first)] {
        // 4 runs of 1 000 rows at width 4.
        let opts = SortOptions { limit, offset: 0, parallelism: 4, run_rows: 1_000 };
        for budget in [charge, charge - 1] {
            let stmt = StatementContext::with_budget(budget);
            let ctx = EvalContext::with_statement(stmt.clone());
            let mut stats = ExecStats::default();
            let out = sort_batch(&input, &[SortKey::asc(0)], &opts, &ctx, &mut stats);
            match out {
                Ok(out) => {
                    assert_eq!(budget, charge, "limit {limit:?}: one byte under the charge must refuse");
                    assert_eq!(out.len(), limit.unwrap_or(4_000));
                    assert_eq!(stats.sort_runs_generated, 4);
                }
                Err(err) => {
                    assert_eq!(budget, charge - 1, "limit {limit:?}: refused at its own charge: {err}");
                    assert!(matches!(err, DashError::ResourceExhausted(_)), "{err:?}");
                    assert_eq!(stats.budget_rejections, 1);
                }
            }
            assert_eq!(stmt.budget_used(), 0, "limit {limit:?} budget {budget}");
        }
    }
}

fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("region", DataType::Utf8),
        Field::new("amount", DataType::Float64),
    ])
    .unwrap()
}

fn sales_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| row![i as i64, format!("r{}", i % 4), (i % 25) as f64])
        .collect()
}

fn loaded_cluster(nodes: usize, shards_per_node: usize, rows: usize, faults: FaultRegistry) -> Cluster {
    let c = Cluster::with_faults(nodes, shards_per_node, HardwareSpec::laptop(), faults).unwrap();
    c.create_table("sales", sales_schema(), Distribution::Hash("id".into()))
        .unwrap();
    c.load_rows("sales", sales_rows(rows)).unwrap();
    c
}

const TOTALS_SQL: &str =
    "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region ORDER BY region";

/// Cluster-side chaos: a stalled shard sleeps on the statement's
/// deadline-armed token and observes the deadline mid-stall, and the whole
/// statement dies classified with the preemption-latency bound intact —
/// then the very same cluster answers again with no leaked state.
#[test]
fn cluster_deadline_chaos_is_classified_and_leak_free() {
    let reg = FaultRegistry::with_seed(seed(42));
    let c = loaded_cluster(3, 4, 3000, reg.clone());
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 2),
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(30)),
    );
    let start = Instant::now();
    let err = c
        .query_with_deadline(TOTALS_SQL, Some(Duration::from_millis(80)))
        .unwrap_err();
    assert_eq!(err.class(), "57014", "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the 30 s stall must not be waited out"
    );
    let rec = c.monitor().recovery();
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");
    assert_eq!(rec.statements_cancelled, 1, "{rec:?}");
    assert!(
        rec.cancel_latency_max_morsels <= 1,
        "preemption latency bound: {rec:?}"
    );
    // Every pin was dropped with the dying statement: the epoch history
    // GC watermark is clear.
    assert_eq!(c.monitor().epoch_gc_watermark(), None);
    assert!(c.monitor().pinned_epochs().is_empty());

    reg.disarm(&FaultRegistry::scoped(SHARD_EXEC, 2));
    let rows = c.query(TOTALS_SQL).unwrap();
    assert_eq!(rows.len(), 4, "cluster must stay fully usable after the kill");
}

/// The scatter's deadline covers the merge: the coordinator runs the final
/// statement on the engine's statement runner under the same context the
/// shards ran under. A deadline that expires after every shard reported —
/// the stall sits between gather and merge — still kills the statement,
/// classified and counted once, and the cluster answers again afterwards.
#[test]
fn cluster_deadline_expiring_after_the_gather_kills_the_merge() {
    let reg = FaultRegistry::with_seed(seed(42));
    let c = loaded_cluster(2, 3, 1200, reg.clone());
    reg.arm(
        GATHER_LOAD,
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(30)),
    );
    let start = Instant::now();
    let err = c
        .query_with_deadline(TOTALS_SQL, Some(Duration::from_millis(400)))
        .unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the 30 s stall must not be waited out"
    );
    assert_eq!(reg.stats(GATHER_LOAD).fires, 1, "every shard had reported");
    let rec = c.monitor().recovery();
    assert_eq!((rec.deadline_kills, rec.statements_cancelled), (1, 1), "{rec:?}");
    assert!(c.monitor().pinned_epochs().is_empty());

    reg.disarm(GATHER_LOAD);
    let rows = c.query(TOTALS_SQL).unwrap();
    assert_eq!(rows.len(), 4, "cluster must stay fully usable after the kill");
}

/// The epoch-pin registry is visible while a statement is in flight (its
/// pinned epoch is the GC watermark) and drains to empty the moment it
/// completes.
#[test]
fn epoch_pins_are_visible_in_flight_and_drain_after() {
    let reg = FaultRegistry::with_seed(seed(1337));
    let c = loaded_cluster(2, 3, 600, reg.clone());
    // A healthy run pins and unpins symmetrically.
    c.query(TOTALS_SQL).unwrap();
    assert_eq!(c.monitor().epoch_gc_watermark(), None);

    // Stall one shard long enough to observe the pin from outside.
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 1),
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_millis(400)),
    );
    std::thread::scope(|s| {
        let h = s.spawn(|| c.query(TOTALS_SQL));
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut observed = None;
        while Instant::now() < deadline {
            if let Some(wm) = c.monitor().epoch_gc_watermark() {
                observed = Some(wm);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let wm = observed.expect("in-flight statement must appear in the pin registry");
        let pins = c.monitor().pinned_epochs();
        assert!(
            pins.iter().any(|&(e, n)| e == wm && n >= 1),
            "watermark {wm} must be a pinned epoch: {pins:?}"
        );
        // The stalled statement still answers correctly (straggler, not a
        // failure), and its pin is gone once it returns.
        let rows = h.join().unwrap().unwrap();
        assert_eq!(rows.len(), 4);
    });
    assert_eq!(c.monitor().epoch_gc_watermark(), None);
    assert!(c.monitor().pinned_epochs().is_empty());
}

/// A scan→probe→agg-partial chain for the pipeline-scheduler chaos legs:
/// 6k facts joined against a 64-row dimension, grouped on the dim label.
fn pipeline_chain() -> (SharedTable, SharedTable, PhysicalPlan) {
    let db = Database::untracked();
    let fact_schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::not_null("k", DataType::Int64),
        Field::not_null("qty", DataType::Int64),
    ])
    .unwrap();
    let facts = db.catalog().create_table("CFACTS", fact_schema, None).unwrap();
    let rows: Vec<Row> = (0..6_000)
        .map(|i| row![i as i64, (i % 64) as i64, (i % 100) as i64])
        .collect();
    facts.write().load_rows(rows).unwrap();
    let dim_schema = Schema::new(vec![
        Field::not_null("dk", DataType::Int64),
        Field::not_null("label", DataType::Utf8),
    ])
    .unwrap();
    let dims = db.catalog().create_table("CDIMS", dim_schema, None).unwrap();
    let dim_rows: Vec<Row> = (0..64i64).map(|k| row![k, format!("d{k}")]).collect();
    dims.write().load_rows(dim_rows).unwrap();

    let join = PhysicalPlan::HashJoin {
        left: Box::new(PhysicalPlan::ColumnScan {
            table: facts.clone(),
            config: ScanConfig::full(0, vec![0, 1, 2]),
        }),
        right: Box::new(PhysicalPlan::ColumnScan {
            table: dims.clone(),
            config: ScanConfig::full(1, vec![0, 1]),
        }),
        on: vec![(1, 0)],
        join_type: JoinType::Inner,
        key_mode: KeyMode::Encoded,
        parallelism: 4,
    };
    let agg_schema = Schema::new(vec![
        Field::new("label", DataType::Utf8),
        Field::new("cnt", DataType::Int64),
        Field::new("total", DataType::Int64),
    ])
    .unwrap();
    let plan = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group: vec![4],
        aggs: vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
                arg_types: vec![],
            },
            AggExpr {
                func: AggFunc::Sum,
                args: vec![2],
                distinct: false,
                arg_types: vec![DataType::Int64],
            },
        ],
        schema: agg_schema,
        key_mode: KeyMode::Datum,
        parallelism: 4,
    };
    (facts, dims, plan)
}

/// A statement deadline expires while the pipeline scheduler is mid-drive
/// on a join→agg chain, every page read stalled: the per-step token check
/// kills the statement inside the probe/agg-partial stages (not after the
/// stall), classified, with the WLM slot back and the session reusable —
/// where the rerun proves the statement really rode the pipeline path.
#[test]
fn deadline_kills_pipelined_join_chain_mid_drive() {
    let reg = FaultRegistry::with_seed(seed(11));
    let db = Database::with_hardware(HardwareSpec::laptop());
    db.set_fault_registry(reg.clone());
    let mut s = loaded_session(&db, 4000);
    s.execute("CREATE TABLE regions (r VARCHAR(8), bonus DOUBLE)")
        .unwrap();
    s.execute("INSERT INTO regions VALUES ('r0', 1.0), ('r1', 2.0), ('r2', 3.0), ('r3', 4.0)")
        .unwrap();

    let sql = "SELECT r.r, COUNT(*), SUM(s.amount) FROM sales s JOIN regions r ON s.region = r.r \
               GROUP BY r.r";
    reg.arm(
        PAGE_READ,
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(5)),
    );
    s.set_statement_timeout(Some(Duration::from_millis(40)));
    let start = Instant::now();
    let err = s.query(sql).unwrap_err();
    let elapsed = start.elapsed();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "deadline kill is classified: {err}");
    assert!(
        elapsed < Duration::from_secs(4),
        "kill must interrupt the pipeline drive, not wait out the stall ({elapsed:?})"
    );
    let rec = db.monitor().recovery();
    assert!(rec.statements_cancelled >= 1, "{rec:?}");
    assert!(rec.deadline_kills >= 1, "{rec:?}");
    let (running, queued, _, _, _) = db.wlm().snapshot();
    assert_eq!((running, queued), (0, 0), "WLM slot must not leak");

    reg.disarm(PAGE_READ);
    s.set_statement_timeout(None);
    let again = s.execute(sql).unwrap();
    assert_eq!(again.rows.len(), 4, "session answers after the kill");
    assert!(
        again.stats.pipelines_run >= 1,
        "the killed statement's shape rides the pipeline scheduler: {:?}",
        again.stats
    );
}

/// A token cancelled before execution is observed at the first pipeline
/// step — the scheduler checks before every stage, so the chain dies
/// without producing a batch and without a byte left charged against the
/// statement budget.
#[test]
fn cancelled_statement_dies_inside_pipelined_chain() {
    let (_facts, _dims, plan) = pipeline_chain();
    let stmt = StatementContext::with_limits(None, Some(1 << 30));
    stmt.cancel();
    let ctx = EvalContext::with_statement(stmt.clone());
    let err = execute(&plan, &ctx).unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(err.class(), "57014", "{err}");
    assert_eq!(
        stmt.budget_used(),
        0,
        "aborted pipeline must release every morsel lease"
    );
}

/// An expired deadline kills the same chain through the deadline arm of
/// the token, and a budget too small for even one morsel's agg partial is
/// refused as `ResourceExhausted` — both leave the statement with zero
/// bytes charged, proving the per-morsel leases unwind on every abort
/// path.
#[test]
fn pipelined_chain_aborts_release_all_leases() {
    let (_facts, _dims, plan) = pipeline_chain();

    let expired = StatementContext::with_deadline(Duration::ZERO);
    let ctx = EvalContext::with_statement(expired.clone());
    let err = execute(&plan, &ctx).unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(expired.budget_used(), 0, "deadline abort must unwind leases");

    let starved = StatementContext::with_limits(None, Some(64));
    let ctx = EvalContext::with_statement(starved.clone());
    let err = execute(&plan, &ctx).unwrap_err();
    assert!(
        matches!(err, DashError::ResourceExhausted(_)),
        "wrong variant: {err:?}"
    );
    assert_eq!(err.class(), "53200", "{err}");
    assert_eq!(
        starved.budget_used(),
        0,
        "budget refusal must release partial leases"
    );
}

/// A group-by whose groups outnumber a morsel's rows makes every partial as
/// large as its morsel. A budget one such partial overruns refuses the
/// statement (53200) with every lease back, at any width; the same budget
/// carries the same scan grouped on a low-cardinality key, so it is the
/// cardinality that is refused.
#[test]
fn high_cardinality_group_by_over_budget_releases_all_leases() {
    let db = Database::untracked();
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::not_null("qty", DataType::Int64),
    ])
    .unwrap();
    let facts = db.catalog().create_table("HFACTS", schema, None).unwrap();
    facts
        .write()
        .load_rows((0..20_000).map(|i| row![i as i64, (i % 10) as i64]).collect())
        .unwrap();
    let plan = |group: usize, par: usize| PhysicalPlan::HashAggregate {
        input: Box::new(PhysicalPlan::ColumnScan {
            table: facts.clone(),
            config: ScanConfig::full(0, vec![0, 1]),
        }),
        key_mode: KeyMode::for_group(&[group]),
        group: vec![group],
        aggs: vec![AggExpr {
            func: AggFunc::Sum,
            args: vec![1],
            distinct: false,
            arg_types: vec![DataType::Int64],
        }],
        schema: Schema::new(vec![Field::new("g", DataType::Int64), Field::new("total", DataType::Int64)])
            .unwrap(),
        parallelism: par,
    };
    for par in [1usize, 4] {
        let starved = StatementContext::with_limits(None, Some(24 * 1024));
        let ctx = EvalContext::with_statement(starved.clone());
        let err = execute(&plan(0, par), &ctx).unwrap_err();
        assert!(matches!(err, DashError::ResourceExhausted(_)), "par {par}: wrong variant: {err:?}");
        assert_eq!(err.class(), "53200", "par {par}: {err}");
        assert_eq!(starved.budget_used(), 0, "par {par}: refusal must release every partial's lease");

        let (out, stats) = execute(&plan(1, par), &ctx).unwrap();
        assert_eq!(out.len(), 10, "par {par}");
        assert_eq!(stats.budget_rejections, 0, "par {par}: {stats:?}");
        assert_eq!(starved.budget_used(), 0, "par {par}");
    }
    let roomy = StatementContext::with_limits(None, Some(1 << 30));
    let (out, _) = execute(&plan(0, 4), &EvalContext::with_statement(roomy.clone())).unwrap();
    assert_eq!(out.len(), 20_000);
    assert_eq!(roomy.budget_used(), 0);
}

/// A cross join is a breaker that charges its whole output against the
/// statement budget before allocating any of it and polls the token as it
/// emits: a starved budget is refused as `ResourceExhausted`, a cancelled
/// statement dies inside the product, and both leave zero bytes charged.
#[test]
fn cross_join_refusal_and_cancel_release_all_leases() {
    let side = || {
        let schema = Schema::new(vec![Field::not_null("x", DataType::Int64)]).unwrap();
        let rows: Vec<Row> = (0..300).map(|i| row![i as i64]).collect();
        PhysicalPlan::values(Batch::from_rows(schema, &rows).unwrap())
    };
    let plan = PhysicalPlan::CrossJoin {
        left: Box::new(side()),
        right: Box::new(side()),
    };

    let starved = StatementContext::with_limits(None, Some(4_096));
    let err = execute(&plan, &EvalContext::with_statement(starved.clone())).unwrap_err();
    assert!(matches!(err, DashError::ResourceExhausted(_)), "wrong variant: {err:?}");
    assert_eq!(err.class(), "53200", "{err}");
    assert_eq!(starved.budget_used(), 0, "refused cross join must release its lease");

    let cancelled = StatementContext::with_limits(None, Some(1 << 30));
    cancelled.cancel();
    let err = execute(&plan, &EvalContext::with_statement(cancelled.clone())).unwrap_err();
    assert_eq!(err, DashError::Cancelled);
    assert_eq!(cancelled.budget_used(), 0, "cancelled cross join must release its lease");

    let roomy = StatementContext::with_limits(None, Some(1 << 30));
    let (out, stats) = execute(&plan, &EvalContext::with_statement(roomy.clone())).unwrap();
    assert_eq!(out.len(), 90_000);
    assert_eq!(stats.budget_rejections, 0);
    assert!(roomy.budget_high_water() >= out.approx_bytes(), "output was charged");
    assert_eq!(roomy.budget_used(), 0);
}

/// A breaker holds its whole input while it runs, and the pipeline above
/// holds the breaker's output: both are charged to the statement budget,
/// so a budget smaller than the intermediate refuses the statement
/// (53200) instead of letting it materialize unbounded, and every lease is
/// back by the time the statement ends.
#[test]
fn breaker_intermediates_are_charged_to_the_budget() {
    // A string column rides along: its codes are charged too, never less
    // than the integers' budget below.
    let values = || {
        let schema = Schema::new(vec![Field::not_null("x", DataType::Int64), Field::new("s", DataType::Utf8)]).unwrap();
        let rows: Vec<Row> = (0..10_000).map(|i| row![i as i64, format!("s{}", i % 50)]).collect();
        PhysicalPlan::values(Batch::from_rows(schema, &rows).unwrap())
    };
    let input_bytes = 10_000 * 9;
    let sort = |input| PhysicalPlan::Sort {
        input: Box::new(input),
        keys: vec![SortKey::asc(0)],
        limit: Some(1),
        offset: 0,
        parallelism: 1,
        run_rows: 0,
    };
    // DISTINCT as the planner spells it: GROUP BY every column.
    let distinct = PhysicalPlan::HashAggregate {
        input: Box::new(values()),
        group: vec![0, 1],
        aggs: Vec::new(),
        schema: values().schema(),
        key_mode: KeyMode::Encoded,
        parallelism: 4,
    };
    let plans = [
        ("distinct", sort(distinct)),
        ("rownum", sort(PhysicalPlan::RowNumber { input: Box::new(values()), name: "rn".into() })),
        ("union", sort(PhysicalPlan::UnionAll { inputs: vec![values(), values()] })),
        ("sort", sort(values())),
    ];
    for (name, plan) in &plans {
        let starved = StatementContext::with_limits(None, Some(input_bytes / 2));
        let err = execute(plan, &EvalContext::with_statement(starved.clone())).unwrap_err();
        assert_eq!(err.class(), "53200", "{name}: {err}");
        assert_eq!(starved.budget_used(), 0, "{name}: refusal must release every lease");

        let cancelled = StatementContext::with_limits(None, Some(1 << 30));
        cancelled.cancel();
        let err = execute(plan, &EvalContext::with_statement(cancelled.clone())).unwrap_err();
        assert_eq!(err, DashError::Cancelled, "{name}");
        assert_eq!(cancelled.budget_used(), 0, "{name}: cancel must release every lease");

        let roomy = StatementContext::with_limits(None, Some(1 << 30));
        let (out, _) = execute(plan, &EvalContext::with_statement(roomy.clone())).unwrap();
        assert_eq!(out.len(), 1, "{name}");
        assert!(roomy.budget_high_water() >= input_bytes, "{name}: intermediate was charged");
        assert_eq!(roomy.budget_used(), 0, "{name}");
    }
}
