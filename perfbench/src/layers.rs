//! Per-layer measurements, taken from outside by timing calls to public
//! functions and by reading the counters `QueryResult.stats` returns.
//!
//! Three kinds:
//! * statement replay — each SELECT runs once through `Session::execute`
//!   and once, layer by layer, through `parse_statement` → `plan_select`
//!   (which includes `pushdown`) → `plan::execute` → `Batch::to_rows`;
//! * operator replay — the plan tree walked node by node through the public
//!   operators (`scan::scan`, `join::hash_join`, `agg::hash_aggregate`,
//!   `sort::sort_batch`). This is the operator-at-a-time path, not the
//!   pipeline the product runs (`JoinBuild`/`AggAccumulator` are
//!   `pub(crate)`), so its ns/row are approximate attributions;
//! * fixed probes — `simd::eval_range` on the loaded table's packed blocks,
//!   `pool::run_morsels_fold` over an empty stage, and WAL append + fsync.

use crate::trace::Tracer;
use dash_common::dialect::Dialect;
use dash_common::faults::FaultRegistry;
use dash_common::ids::Tsn;
use dash_common::{Datum, Row, StatementContext, TxnId};
use dash_core::{Database, Session};
use dash_encoding::bitpack::BitPackedVec;
use dash_encoding::block::BlockRepr;
use dash_exec::batch::Batch;
use dash_exec::functions::EvalContext;
use dash_exec::pipeline::PipelineConfig;
use dash_exec::plan::PhysicalPlan;
use dash_exec::sort::SortOptions;
use dash_exec::stats::ExecStats;
use dash_sql::{parse_statement, plan_select, Statement};
use dash_storage::wal::{SyncPolicy, Wal, WalRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The context `Session::execute` builds for a SELECT, minus the deadline.
fn eval_context(db: &Arc<Database>) -> EvalContext {
    EvalContext {
        now_micros: 0,
        sequences: Some(db.catalog().clone()),
        statement: StatementContext::unbounded(),
        pipeline: PipelineConfig {
            enabled: db.catalog().pipeline_enabled(),
            inflight: db.catalog().pipeline_inflight(),
        },
    }
}

/// Sums over every replayed statement.
#[derive(Default)]
pub struct StatementLayers {
    /// Per statement, µs.
    pub parse_us: Vec<f64>,
    /// Per SELECT, µs.
    pub plan_us: Vec<f64>,
    /// Per SELECT, µs: `Session::execute` minus the four replayed children.
    /// A difference of two measurements, so it can come out negative on a
    /// statement whose run-to-run noise exceeds the session's own work.
    pub session_us: Vec<f64>,
    pub session_ns: u64,
    pub front_ns: u64,
    pub execute_ns: u64,
    pub materialize_ns: u64,
    /// Counters summed (peaks maxed) over the SELECTs' `QueryResult.stats`.
    pub stats: ExecStats,
    pub selects: u64,
}

impl StatementLayers {
    pub fn execute_ns_per_row(&self) -> f64 {
        self.execute_ns as f64 / self.stats.rows_scanned.max(1) as f64
    }

    pub fn materialize_ns_per_row(&self) -> f64 {
        self.materialize_ns as f64 / self.stats.rows_out.max(1) as f64
    }

    /// Parse + plan time as a share of the SELECTs' `Session::execute` time.
    pub fn front_share(&self) -> f64 {
        self.front_ns as f64 / self.session_ns.max(1) as f64
    }

    pub fn rows_scanned_per_row_out(&self) -> f64 {
        self.stats.rows_scanned as f64 / self.stats.rows_out.max(1) as f64
    }
}

/// Replay one statement: parse always; for a SELECT also the product path
/// and the three layers below the parser. `session_first` says which of the
/// two runs goes first; callers alternate it so that neither always runs on
/// the caches the other warmed. Errors are returned, not hidden: a
/// statement that ran in the timed loop must run here.
pub fn replay_statement(
    db: &Arc<Database>,
    session: &mut Session,
    sql: &str,
    session_first: bool,
    stmt_id: u64,
    tracer: &mut Tracer,
    out: &mut StatementLayers,
) -> Result<(), String> {
    let fail = |what: &str, e: dash_common::DashError| format!("replay {what}: {e}\n  {sql}");
    let is_select = sql.starts_with("SELECT");
    let mut session_run = |tracer: &mut Tracer| {
        let (result, ns) = tracer.span("session.execute", stmt_id, || session.execute(sql));
        result
            .map(|r| (r.stats, ns))
            .map_err(|e| fail("session", e))
    };
    let before = if is_select && session_first {
        Some(session_run(tracer)?)
    } else {
        None
    };
    let root = tracer.enter("replay", stmt_id);
    let (parsed, parse_ns) =
        tracer.span("sql.parse", stmt_id, || parse_statement(sql, Dialect::Ansi));
    out.parse_us.push(parse_ns as f64 / 1e3);
    let parsed = parsed.map_err(|e| fail("parse", e))?;
    let Statement::Select(select) = parsed else {
        tracer.exit(root);
        return Ok(());
    };
    let ctx = eval_context(db);
    let (plan, plan_ns) = tracer.span("sql.plan", stmt_id, || {
        plan_select(&select, db.catalog().as_ref(), Dialect::Ansi, &ctx)
    });
    let plan = plan.map_err(|e| fail("plan", e))?;
    let (executed, execute_ns) = tracer.span("exec.execute", stmt_id, || {
        dash_exec::plan::execute(&plan, &ctx)
    });
    let (batch, _) = executed.map_err(|e| fail("execute", e))?;
    let (rows, materialize_ns) = tracer.span("exec.materialize", stmt_id, || batch.to_rows());
    black_box(rows);
    tracer.exit(root);

    let (stats, session_ns) = match before {
        Some(run) => run,
        None => session_run(tracer)?,
    };
    let children = parse_ns + plan_ns + execute_ns + materialize_ns;
    out.plan_us.push(plan_ns as f64 / 1e3);
    out.session_us
        .push((session_ns as f64 - children as f64) / 1e3);
    out.session_ns += session_ns;
    out.front_ns += parse_ns + plan_ns;
    out.execute_ns += execute_ns;
    out.materialize_ns += materialize_ns;
    out.stats += stats;
    out.selects += 1;
    Ok(())
}

/// Time per operator kind over one or more replayed plans.
#[derive(Default, Clone, Copy)]
pub struct OpTime {
    pub ns: u64,
    /// Input rows: scanned rows for `scan`, probe-side rows for `join`.
    pub rows: u64,
}

impl OpTime {
    pub fn ns_per_row(&self) -> f64 {
        self.ns as f64 / self.rows.max(1) as f64
    }
}

impl std::iter::Sum for OpTime {
    fn sum<I: Iterator<Item = OpTime>>(iter: I) -> OpTime {
        iter.fold(OpTime::default(), |a, b| OpTime {
            ns: a.ns + b.ns,
            rows: a.rows + b.rows,
        })
    }
}

pub type OpTimes = BTreeMap<&'static str, OpTime>;

fn charge(times: &mut OpTimes, op: &'static str, ns: u64, rows: u64) {
    let e = times.entry(op).or_default();
    e.ns += ns;
    e.rows += rows;
}

/// Walk `plan` bottom-up through the public operators, timing each node's
/// own work under an `op.*` span.
fn replay_node(
    plan: &PhysicalPlan,
    ctx: &EvalContext,
    stmt_id: u64,
    tracer: &mut Tracer,
    times: &mut OpTimes,
) -> dash_common::Result<Batch> {
    let mut stats = ExecStats::default();
    match plan {
        PhysicalPlan::ColumnScan { table, config } => {
            let t = table.read();
            let (res, ns) = tracer.span("op.scan", stmt_id, || {
                dash_exec::scan::scan(&t, config, ctx)
            });
            let (batch, s) = res?;
            // Scans with pushed-down predicates run the predicate kernels;
            // their time bounds the kernels' share from above.
            let op = if config.predicates.is_empty() {
                "scan"
            } else {
                "scan_pred"
            };
            charge(times, op, ns, s.rows_scanned);
            Ok(batch)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let child = replay_node(input, ctx, stmt_id, tracer, times)?;
            let (kept, ns) = tracer.span("op.filter", stmt_id, || {
                let mut keep = Vec::new();
                for row in 0..child.len() {
                    if predicate.eval_predicate(&child, row, ctx)? {
                        keep.push(row);
                    }
                }
                Ok::<_, dash_common::DashError>(child.take(&keep))
            });
            charge(times, "filter", ns, child.len() as u64);
            kept
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let child = replay_node(input, ctx, stmt_id, tracer, times)?;
            let (projected, ns) = tracer.span("op.project", stmt_id, || {
                let mut rows = Vec::with_capacity(child.len());
                for row in 0..child.len() {
                    let vals: dash_common::Result<Vec<Datum>> =
                        exprs.iter().map(|e| e.eval(&child, row, ctx)).collect();
                    rows.push(Row::new(vals?).coerce(schema)?);
                }
                Batch::from_rows(schema.clone(), &rows)
            });
            charge(times, "project", ns, child.len() as u64);
            projected
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            on,
            join_type,
            key_mode,
            parallelism,
        } => {
            let l = replay_node(left, ctx, stmt_id, tracer, times)?;
            let r = replay_node(right, ctx, stmt_id, tracer, times)?;
            let (joined, ns) = tracer.span("op.join", stmt_id, || {
                dash_exec::join::hash_join(
                    &l,
                    &r,
                    on,
                    *join_type,
                    *key_mode,
                    *parallelism,
                    &ctx.statement,
                    &mut stats,
                )
            });
            charge(times, "join", ns, l.len() as u64);
            joined
        }
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
            key_mode,
            parallelism,
        } => {
            let child = replay_node(input, ctx, stmt_id, tracer, times)?;
            let (agg, ns) = tracer.span("op.agg", stmt_id, || {
                dash_exec::agg::hash_aggregate(
                    &child,
                    group,
                    aggs,
                    schema.clone(),
                    ctx,
                    *key_mode,
                    *parallelism,
                    &mut stats,
                )
            });
            charge(times, "agg", ns, child.len() as u64);
            agg
        }
        PhysicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
            parallelism,
            run_rows,
        } => {
            let child = replay_node(input, ctx, stmt_id, tracer, times)?;
            let opts = SortOptions {
                limit: *limit,
                offset: *offset,
                parallelism: *parallelism,
                run_rows: *run_rows,
            };
            let (sorted, ns) = tracer.span("op.sort", stmt_id, || {
                dash_exec::sort::sort_batch(&child, keys, &opts, ctx, &mut stats)
            });
            charge(times, "sort", ns, child.len() as u64);
            sorted
        }
        other => Err(dash_common::DashError::internal(format!(
            "operator replay has no case for this plan node:\n{}",
            other.explain()
        ))),
    }
}

/// Plan `sql` and replay it operator by operator.
pub fn replay_operators(
    db: &Arc<Database>,
    sql: &str,
    stmt_id: u64,
    tracer: &mut Tracer,
    times: &mut OpTimes,
) -> Result<usize, String> {
    let fail = |e: dash_common::DashError| format!("operator replay: {e}\n  {sql}");
    let Statement::Select(select) = parse_statement(sql, Dialect::Ansi).map_err(fail)? else {
        return Err(format!("operator replay wants a SELECT\n  {sql}"));
    };
    let ctx = eval_context(db);
    let plan = plan_select(&select, db.catalog().as_ref(), Dialect::Ansi, &ctx).map_err(fail)?;
    let root = tracer.enter("op.replay", stmt_id);
    let batch = replay_node(&plan, &ctx, stmt_id, tracer, times);
    tracer.exit(root);
    Ok(batch.map_err(fail)?.len())
}

/// `simd::eval_range` over every packed code vector of `table`, keeping the
/// middle half of each vector's code domain. Returns per bit width
/// (ns, codes); width 0 vectors hold no data and are skipped.
pub fn simd_probe(db: &Arc<Database>, table: &str) -> Result<BTreeMap<u8, OpTime>, String> {
    let handle = db
        .catalog()
        .table_handle(table)
        .map_err(|e| format!("simd probe: {e}"))?;
    let t = handle.table.read();
    let mut by_width: BTreeMap<u8, OpTime> = BTreeMap::new();
    let mut probe = |codes: &BitPackedVec| {
        let width = codes.width();
        if width == 0 || codes.is_empty() {
            return;
        }
        let max = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let start = Instant::now();
        let hits = dash_exec::simd::eval_range(black_box(codes), max / 4, max / 4 * 3);
        let ns = start.elapsed().as_nanos() as u64;
        black_box(hits);
        let e = by_width.entry(width).or_default();
        e.ns += ns;
        e.rows += codes.len() as u64;
    };
    for stride in 0..t.sealed_strides() {
        for col in 0..t.schema().len() {
            match &t.block(col, stride).repr {
                BlockRepr::Minus(m) => probe(&m.codes),
                BlockRepr::Dict {
                    selectors, banks, ..
                } => {
                    selectors.iter().for_each(&mut probe);
                    banks.iter().for_each(&mut probe);
                }
            }
        }
    }
    Ok(by_width)
}

/// Scheduling cost per morsel: `run_morsels_fold` over a stage that does
/// nothing, at the engine's own parallelism and in-flight window; the
/// median of several drives, each paying one thread spawn and join.
pub fn pool_probe(db: &Arc<Database>) -> Result<f64, String> {
    const MORSELS: usize = 4096;
    const DRIVES: usize = 9;
    let parallelism = db.config().effective_parallelism();
    let stmt = StatementContext::unbounded();
    let mut per_morsel = Vec::with_capacity(DRIVES);
    for _ in 0..DRIVES {
        let mut folded = 0usize;
        let start = Instant::now();
        dash_exec::pool::run_morsels_fold(
            MORSELS,
            parallelism,
            parallelism * 4,
            &stmt,
            |i| Ok(black_box(i)),
            |_| 0,
            |_, v| {
                folded += black_box(v) & 1;
                Ok(())
            },
        )
        .map_err(|e| format!("pool probe: {e}"))?;
        black_box(folded);
        per_morsel.push(start.elapsed().as_nanos() as f64 / MORSELS as f64);
    }
    Ok(crate::stats::median(&per_morsel))
}

/// WAL cost on the transactional workload's record shape: per record
/// appended (buffered, deferred flush) and per `flush_commit` (one write +
/// fsync of a one-transaction batch). Returns (append µs, fsync µs) medians.
pub fn wal_probe(dir: &Path) -> Result<(f64, f64), String> {
    const COMMITS: u64 = 200;
    let fail = |e: dash_common::DashError| format!("wal probe: {e}");
    std::fs::create_dir_all(dir).map_err(|e| format!("wal probe: {e}"))?;
    let path = dir.join("probe.log");
    let mut wal = Wal::create(&path, SyncPolicy::Commit, FaultRegistry::new()).map_err(fail)?;
    let (mut append_us, mut fsync_us) = (Vec::new(), Vec::new());
    for i in 0..COMMITS {
        let txn = TxnId(i + 1);
        let records = [
            WalRecord::Begin { txn },
            WalRecord::Insert {
                txn,
                table: "w0_0_0".into(),
                tsn: Tsn(i),
                row: Row::new(vec![
                    Datum::Int(i as i64),
                    Datum::Float(0.5),
                    Datum::str("n0"),
                ]),
            },
            WalRecord::Commit { txn, ts: i + 1 },
        ];
        let start = Instant::now();
        for rec in &records {
            wal.append_deferred(rec).map_err(fail)?;
        }
        append_us.push(start.elapsed().as_nanos() as f64 / 1e3 / records.len() as f64);
        let start = Instant::now();
        wal.flush_commit().map_err(fail)?;
        fsync_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    Ok((
        crate::stats::median(&append_us),
        crate::stats::median(&fsync_us),
    ))
}
