//! The executor: every plan runs as morsel-driven pipelines.
//!
//! [`decompose`] maps any [`PhysicalPlan`] onto a tree of **pipelines**
//! under one rule — *a breaker's output batch is the next pipeline's
//! source*:
//!
//! * a **source** is a `ColumnScan` (one morsel per candidate stride) or
//!   the finished batch of a breaker, sliced into fixed-size row morsels;
//! * **stages** — filter, project, hash-join probe — run on one morsel at
//!   a time, on whichever pool worker claimed it;
//! * the **sink** folds morsel results **in morsel-index order**: it
//!   either collects them into the output batch or merges per-morsel
//!   aggregate partials;
//! * a **breaker** needs its whole input before it emits anything: the
//!   hash-join build, the aggregate merge, `Sort`, and the whole-batch
//!   operators `Values`, `UnionAll`, `CrossJoin`, `ConnectBy` and
//!   `RowNumber`. Whatever consumes a breaker starts a new pipeline on
//!   its output.
//!
//! The in-order fold makes the output byte-identical at any parallelism:
//!
//! * probe output is probe-row-major within each morsel ([`JoinBuild`]),
//! * aggregate groups surface in first-appearance order across the fold —
//!   the serial scan's first-appearance order,
//! * partial states merge with order-insensitive combines (sums, min/max,
//!   Chan's moment formulas) over morsel boundaries that do not depend on
//!   the worker count.
//!
//! Peak memory is O(frozen builds + breaker batches + morsels in flight):
//! the scheduler admits at most `parallelism * 4` unfolded morsels, each
//! carrying a [`BudgetLease`] for its bytes; a breaker's inputs are
//! charged while it runs and its output while the pipeline above reads
//! it, so the statement budget bounds every intermediate. The statement's deadline/cancellation token is checked at
//! every step.

use crate::agg::{self, AggAccumulator, AggExpr};
use crate::batch::Batch;
use crate::expr::{self, Expr};
use crate::functions::EvalContext;
use crate::join::{self, JoinBuild, JoinType};
use crate::plan::{PhysicalPlan, SharedTable};
use crate::pool;
use crate::scan::{ScanConfig, ScanSource};
use crate::sort::{sort_batch, SortKey, SortOptions};
use crate::stats::ExecStats;
use dash_common::fxhash::FxHashMap;
use dash_common::{BudgetLease, DashError, Datum, Result, Schema};
use dash_encoding::column::ColumnValues;
use std::borrow::Cow;
use std::ops::Range;

/// Pipeline-scheduler settings carried on the [`EvalContext`]; both
/// fields are inert, kept for the embedding code that names them.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Inert: every plan runs pipelined. A later `benchmark` PR removes it.
    pub enabled: bool,
    /// Inert: the in-flight window is always `parallelism * 4` morsels
    /// per pipeline drive. A later `benchmark` PR removes it.
    pub inflight: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            enabled: true,
            inflight: 0,
        }
    }
}

/// Rows per morsel of a batch source, and between statement-token polls in
/// the whole-batch breakers.
const BATCH_MORSEL_ROWS: usize = 4096;

/// One pipeline, borrowed from the plan tree: what feeds it, the stages
/// every morsel passes through, and what its morsels fold into.
pub(crate) struct Pipeline<'p> {
    source: Source<'p>,
    /// Per-morsel operators in source→sink order.
    stages: Vec<Stage<'p>>,
    /// `Some` = the sink merges aggregate partials; `None` = it collects.
    agg: Option<AggSink<'p>>,
    /// Widest parallelism any node of the pipeline (or its inputs) asked for.
    parallelism: usize,
}

enum Source<'p> {
    Scan {
        table: &'p SharedTable,
        config: &'p ScanConfig,
    },
    Breaker(Breaker<'p>),
}

/// A whole-input operator: runs its input pipeline(s) to completion and
/// emits one batch, the source of the pipeline above.
enum Breaker<'p> {
    Values(&'p Batch),
    UnionAll(Vec<Pipeline<'p>>),
    CrossJoin(Box<Pipeline<'p>>, Box<Pipeline<'p>>),
    ConnectBy {
        input: Box<Pipeline<'p>>,
        start_with: &'p Expr,
        parent: usize,
        child: usize,
        schema: Schema,
    },
    RowNumber {
        input: Box<Pipeline<'p>>,
        schema: Schema,
    },
    Sort {
        input: Box<Pipeline<'p>>,
        keys: &'p [SortKey],
        opts: SortOptions,
    },
    /// A finished pipeline read as-is: an aggregate's result, or the
    /// collected input of a `DISTINCT` aggregate.
    Result(Box<Pipeline<'p>>),
}

enum Stage<'p> {
    Filter(&'p Expr),
    Project {
        exprs: &'p [Expr],
        schema: &'p Schema,
    },
    /// Hash-join probe; `build` is the pipeline of the build (right) side,
    /// run to completion and frozen before any morsel reaches the probe.
    Probe {
        build: Box<Pipeline<'p>>,
        on: &'p [(usize, usize)],
        join_type: JoinType,
        parallelism: usize,
    },
}

/// The aggregate sink of a pipeline.
pub(crate) struct AggSink<'p> {
    pub(crate) group: &'p [usize],
    pub(crate) aggs: &'p [AggExpr],
    /// The aggregate's output schema: group columns, then aggregates.
    pub(crate) schema: &'p Schema,
}

impl<'p> Breaker<'p> {
    fn inputs(&self) -> Vec<&Pipeline<'p>> {
        match self {
            Breaker::Values(_) => Vec::new(),
            Breaker::UnionAll(inputs) => inputs.iter().collect(),
            Breaker::CrossJoin(l, r) => vec![l, r],
            Breaker::ConnectBy { input, .. }
            | Breaker::RowNumber { input, .. }
            | Breaker::Sort { input, .. }
            | Breaker::Result(input) => vec![input],
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Breaker::Values(_) => "values",
            Breaker::UnionAll(_) => "union",
            Breaker::CrossJoin(..) => "cross",
            Breaker::ConnectBy { .. } => "connect-by",
            Breaker::RowNumber { .. } => "rownum",
            Breaker::Sort { .. } => "sort",
            Breaker::Result(_) => "result",
        }
    }
}

/// Decompose `plan` into its root pipeline. Total: every node is a source,
/// a stage, or a breaker.
pub(crate) fn decompose(plan: &PhysicalPlan) -> Pipeline<'_> {
    let (agg, mut node, mut parallelism) = match plan {
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
            parallelism,
            ..
        } => {
            let sink = AggSink {
                group,
                aggs,
                schema,
            };
            (Some(sink), &**input, *parallelism)
        }
        _ => (None, plan, 1),
    };
    let mut stages = Vec::new();
    let source = if agg.as_ref().is_some_and(|a| !agg::supports_partial(a.aggs)) {
        // DISTINCT states cannot merge across morsels, so the aggregate
        // takes its input collected and runs as one partial over all of it.
        Source::Breaker(Breaker::Result(Box::new(decompose(node))))
    } else {
        loop {
            match node {
                PhysicalPlan::Filter { input, predicate } => {
                    stages.push(Stage::Filter(predicate));
                    node = input;
                }
                PhysicalPlan::Project {
                    input,
                    exprs,
                    schema,
                } => {
                    stages.push(Stage::Project { exprs, schema });
                    node = input;
                }
                PhysicalPlan::HashJoin {
                    left,
                    right,
                    on,
                    join_type,
                    parallelism: par,
                    ..
                } => {
                    stages.push(Stage::Probe {
                        build: Box::new(decompose(right)),
                        on,
                        join_type: *join_type,
                        parallelism: *par,
                    });
                    parallelism = parallelism.max(*par);
                    node = left;
                }
                PhysicalPlan::ColumnScan { table, config } => {
                    parallelism = parallelism.max(config.parallelism);
                    break Source::Scan { table, config };
                }
                other => break Source::Breaker(breaker(other)),
            }
        }
    };
    if let Source::Breaker(b) = &source {
        for input in b.inputs() {
            parallelism = parallelism.max(input.parallelism);
        }
        if let Breaker::Sort { opts, .. } = b {
            parallelism = parallelism.max(opts.parallelism);
        }
    }
    stages.reverse(); // source → sink
    Pipeline {
        source,
        stages,
        agg,
        parallelism,
    }
}

fn breaker(node: &PhysicalPlan) -> Breaker<'_> {
    let sub = |p| Box::new(decompose(p));
    match node {
        PhysicalPlan::Values(batch) => Breaker::Values(batch),
        PhysicalPlan::UnionAll { inputs } => {
            Breaker::UnionAll(inputs.iter().map(decompose).collect())
        }
        PhysicalPlan::CrossJoin { left, right } => Breaker::CrossJoin(sub(left), sub(right)),
        PhysicalPlan::ConnectBy {
            input,
            start_with,
            parent,
            child,
        } => Breaker::ConnectBy {
            input: sub(input),
            start_with,
            parent: *parent,
            child: *child,
            schema: node.schema(),
        },
        PhysicalPlan::RowNumber { input, .. } => Breaker::RowNumber {
            input: sub(input),
            schema: node.schema(),
        },
        PhysicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
            parallelism,
            run_rows,
        } => Breaker::Sort {
            input: sub(input),
            keys,
            opts: SortOptions {
                limit: *limit,
                offset: *offset,
                parallelism: *parallelism,
                run_rows: *run_rows,
            },
        },
        // An aggregate under a chain: its own pipeline, read as a source.
        _ => Breaker::Result(sub(node)),
    }
}

/// Run `p` (and, first, every pipeline it waits on) to completion.
pub(crate) fn run(p: &Pipeline<'_>, ctx: &EvalContext, stats: &mut ExecStats) -> Result<Batch> {
    let sink = p.agg.as_ref();
    let (table, config) = match &p.source {
        Source::Scan { table, config } => (table, config),
        Source::Breaker(b) => {
            if p.stages.is_empty() && sink.is_none() {
                return run_breaker(b, ctx, stats);
            }
            // The plan's own VALUES batch is read in place; any other
            // breaker emits its output first.
            let emitted;
            let batch = match b {
                Breaker::Values(batch) => {
                    stats.pipeline_breakers += 1;
                    *batch
                }
                _ => {
                    emitted = run_breaker(b, ctx, stats)?;
                    &emitted
                }
            };
            // The breaker's output stays charged while this pipeline reads it.
            let _lease = charge(batch, ctx, stats)?;
            let ops = freeze(&p.stages, || batch.schema().clone(), ctx, stats)?;
            return drive(&Feed::Batch(batch), &ops, sink, p.parallelism, ctx, stats);
        }
    };
    // Build sides run before the scan takes its table lock: a build may
    // read the same table.
    let scan_schema = || config.out_schema(table.read().schema());
    let ops = freeze(&p.stages, scan_schema, ctx, stats)?;
    let guard = table.read();
    let source = ScanSource::new(&guard, config)?;
    *stats += source.base_stats();
    drive(&Feed::Scan(&source), &ops, sink, p.parallelism, ctx, stats)
}

/// The schema of the stream leaving `ops`: that of the last operator that
/// reshapes it, else the source's.
fn stream_schema(ops: &[Op<'_>], source: impl FnOnce() -> Schema) -> Schema {
    let reshaped = ops.iter().rev().find_map(|op| match op {
        Op::Filter(_) => None,
        Op::Project { schema, .. } => Some(*schema),
        Op::Probe(jb) => Some(jb.out_schema()),
    });
    reshaped.cloned().unwrap_or_else(source)
}

/// Freeze a pipeline's stages into per-morsel operators: every build side
/// completes — a breaker each — before any morsel is released.
/// `source_schema` types a probe that sits directly on the source.
fn freeze<'p>(
    stages: &[Stage<'p>],
    source_schema: impl Fn() -> Schema,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Vec<Op<'p>>> {
    let mut ops = Vec::with_capacity(stages.len());
    for stage in stages {
        ops.push(match stage {
            Stage::Filter(predicate) => Op::Filter(predicate),
            Stage::Project { exprs, schema } => Op::Project { exprs, schema },
            Stage::Probe {
                build,
                on,
                join_type,
                parallelism,
            } => {
                let built = run(build, ctx, stats)?;
                stats.pipeline_breakers += 1;
                Op::Probe(Box::new(JoinBuild::new(
                    Cow::Owned(built),
                    &stream_schema(&ops, &source_schema),
                    on.to_vec(),
                    *join_type,
                    *parallelism,
                    &ctx.statement,
                    stats,
                )?))
            }
        });
    }
    Ok(ops)
}

/// Charge `batch` — an intermediate some operator is about to read — to
/// the statement budget for as long as the returned lease lives.
fn charge(batch: &Batch, ctx: &EvalContext, stats: &mut ExecStats) -> Result<BudgetLease> {
    let mut lease = BudgetLease::new(&ctx.statement);
    lease
        .charge(batch.approx_bytes())
        .inspect_err(|_| stats.budget_rejections += 1)?;
    Ok(lease)
}

fn run_breaker(b: &Breaker<'_>, ctx: &EvalContext, stats: &mut ExecStats) -> Result<Batch> {
    // The inputs stay resident, and charged, until the breaker has emitted.
    let mut inputs = Vec::new();
    let mut leases = Vec::new();
    for p in b.inputs() {
        let batch = run(p, ctx, stats)?;
        leases.push(charge(&batch, ctx, stats)?);
        inputs.push(batch);
    }
    let no_input = || DashError::internal("breaker is missing an input");
    let input = |i: usize| inputs.get(i).ok_or_else(no_input);
    let out = match b {
        // A finished pipeline read as-is: no operator runs, none is counted.
        Breaker::Result(_) => return inputs.pop().ok_or_else(no_input),
        // The one copy of a plan's batch: made only when it is the output.
        Breaker::Values(batch) => Ok((*batch).clone()),
        Breaker::UnionAll(_) => Batch::concat_columnar(input(0)?.schema().clone(), inputs),
        Breaker::CrossJoin(..) => join::cross_join(input(0)?, input(1)?, &ctx.statement, stats),
        Breaker::ConnectBy {
            start_with,
            parent,
            child,
            schema,
            ..
        } => connect_by(input(0)?, start_with, *parent, *child, schema, ctx),
        Breaker::RowNumber { schema, .. } => row_number(input(0)?, schema),
        Breaker::Sort { keys, opts, .. } => sort_batch(input(0)?, keys, opts, ctx, stats),
    }?;
    stats.pipeline_breakers += 1;
    Ok(out)
}

/// Append the 1-based row number (Oracle ROWNUM).
fn row_number(input: &Batch, schema: &Schema) -> Result<Batch> {
    let numbers = ColumnValues::Int((1..=input.len() as i64).map(Some).collect());
    input.with_column(schema.clone(), numbers)
}

/// Oracle `START WITH ... CONNECT BY PRIOR`: breadth-first from the roots,
/// appending each row's `LEVEL`. A row is emitted at most once, so cyclic
/// data terminates.
fn connect_by(
    rows: &Batch,
    start_with: &Expr,
    parent: usize,
    child: usize,
    schema: &Schema,
    ctx: &EvalContext,
) -> Result<Batch> {
    // Parent key -> child row indices.
    let mut by_parent: FxHashMap<Datum, Vec<usize>> = FxHashMap::default();
    for i in 0..rows.len() {
        let k = rows.value(i, child);
        if !k.is_null() {
            by_parent.entry(k).or_default().push(i);
        }
    }
    // Rows in visit order, each with its level.
    let (mut order, mut levels) = (Vec::new(), Vec::new());
    let mut frontier: Vec<usize> = Vec::new();
    let mut visited = vec![false; rows.len()];
    for i in start_with.select(rows, 0..rows.len(), ctx)? {
        frontier.push(i);
        visited[i] = true;
    }
    let mut level = 1i64;
    while !frontier.is_empty() {
        ctx.statement.check()?;
        let mut next = Vec::new();
        for &i in &frontier {
            order.push(i);
            levels.push(Some(level));
            if let Some(children) = by_parent.get(&rows.value(i, parent)) {
                for &c in children {
                    if !visited[c] {
                        visited[c] = true;
                        next.push(c);
                    }
                }
            }
        }
        frontier = next;
        level += 1;
    }
    rows.take(&order).with_column(schema.clone(), ColumnValues::Int(levels))
}

/// What a pipeline drive pulls morsels from.
pub(crate) enum Feed<'a> {
    /// One morsel per candidate stride (plus the open stride).
    Scan(&'a ScanSource<'a>),
    /// A finished batch, sliced into row-range morsels.
    Batch(&'a Batch),
}

/// A frozen per-morsel operator (build sides already executed).
pub(crate) enum Op<'p> {
    Filter(&'p Expr),
    Project {
        exprs: &'p [Expr],
        schema: &'p Schema,
    },
    Probe(Box<JoinBuild<'p>>),
}

/// What one morsel produced, plus its stats and the budget lease covering
/// its bytes while it waits for (or undergoes) the in-order fold.
struct MorselItem {
    payload: Payload,
    stats: ExecStats,
    lease: BudgetLease,
}

enum Payload {
    Batch(Batch),
    Partial(agg::AggPartial),
}

/// Drive one pipeline: pull every morsel of `feed` through `ops` on the
/// worker pool and fold the results, in morsel-index order, into the
/// aggregate `sink` or (without one) the collected output batch.
pub(crate) fn drive(
    feed: &Feed<'_>,
    ops: &[Op<'_>],
    sink: Option<&AggSink<'_>>,
    parallelism: usize,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let parallelism = parallelism.max(1);
    // Row morsels are a fixed size rather than a share of the worker count
    // (passing the row count as `parallelism` leaves `row_morsels` only its
    // `min_chunk`), so partial float sums associate the same way at every
    // width. DISTINCT states cannot merge: their one partial spans the batch.
    let ranges = match feed {
        Feed::Scan(_) => Vec::new(),
        Feed::Batch(b) => {
            let mergeable = sink.is_none_or(|a| agg::supports_partial(a.aggs));
            let rows = if mergeable { BATCH_MORSEL_ROWS } else { b.len() };
            pool::row_morsels(b.len(), b.len(), rows)
        }
    };
    let n = match feed {
        Feed::Scan(s) => s.morsel_count(),
        Feed::Batch(_) => ranges.len(),
    };
    // Frozen build tables stay resident for the whole morsel drive, so
    // they are part of the peak alongside in-flight morsels.
    let build_held: u64 = ops
        .iter()
        .map(|op| match op {
            Op::Probe(jb) => jb.held_bytes(),
            _ => 0,
        })
        .sum();
    // At most this many morsels claimed-but-unfolded: peak memory is
    // O(window · morsel bytes).
    let window = parallelism * 4;

    let work = |mi: usize| -> Result<MorselItem> {
        // A morsel is rows `rows` of `batch`: a batch source lends its rows
        // uncopied, everything downstream owns its output.
        let (mut batch, mut rows, mut mstats) = match feed {
            Feed::Scan(s) => {
                let (b, mstats) = s.morsel(mi, ctx)?;
                let n = b.len();
                (Cow::Owned(b), 0..n, mstats)
            }
            Feed::Batch(b) => {
                let (lo, hi) = ranges[mi];
                (Cow::Borrowed(*b), lo..hi, ExecStats::default())
            }
        };
        for op in ops {
            // Deadline/cancel observed at every pipeline step, not just at
            // morsel boundaries.
            ctx.statement.check()?;
            let out = apply_op(op, &batch, rows, ctx, &mut mstats)?;
            rows = 0..out.len();
            batch = Cow::Owned(out);
        }
        let mut lease = BudgetLease::new(&ctx.statement);
        let payload = match sink {
            Some(a) => Payload::Partial(agg::aggregate_morsel(&batch, rows, a, ctx)?),
            None => Payload::Batch(match batch {
                Cow::Owned(b) => b,
                Cow::Borrowed(b) => b.take(&rows.collect::<Vec<_>>()),
            }),
        };
        let bytes = match &payload {
            Payload::Partial(p) => p.approx_bytes(),
            Payload::Batch(b) => b.approx_bytes(),
        };
        lease.charge(bytes).inspect_err(|_| {
            mstats.budget_rejections += 1;
        })?;
        Ok(MorselItem {
            payload,
            stats: mstats,
            lease,
        })
    };
    let bytes_of = |item: &MorselItem| item.lease.held().max(1);

    let mut collected: Vec<Batch> = Vec::new();
    let mut leases: Vec<BudgetLease> = Vec::new();
    let mut acc = AggAccumulator::new(sink.map_or(0, |a| a.group.len()));
    let mut fold_stats = ExecStats::default();
    let run = pool::run_morsels_fold(
        n,
        parallelism,
        window,
        &ctx.statement,
        work,
        bytes_of,
        |_mi, mut item: MorselItem| {
            fold_stats += item.stats;
            match item.payload {
                Payload::Batch(b) => {
                    collected.push(b);
                    // Collected output is still resident: its lease lives
                    // until the concat at pipeline end.
                    leases.push(item.lease);
                    Ok(None)
                }
                // The partial merges into the accumulator and its lease
                // releases here; the partial goes back to the thread that
                // built it, which frees it.
                Payload::Partial(ref p) => {
                    acc.merge(p)?;
                    fold_stats.peak_inflight_bytes =
                        fold_stats.peak_inflight_bytes.max(acc.approx_bytes());
                    item.lease.release();
                    Ok(Some(item))
                }
            }
        },
    )?;
    *stats += fold_stats;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    stats.peak_inflight_morsels = stats.peak_inflight_morsels.max(run.peak_inflight_morsels);
    stats.peak_inflight_bytes = stats
        .peak_inflight_bytes
        .max(run.peak_inflight_bytes + build_held);
    stats.pipelines_run += 1;
    match sink {
        Some(a) => {
            stats.pipeline_breakers += 1;
            stats.encoded_key_rows += acc.keyed_rows;
            acc.finish(a.aggs, a.schema.clone())
        }
        None => {
            let schema = stream_schema(ops, || match feed {
                Feed::Scan(s) => s.out_schema().clone(),
                Feed::Batch(b) => b.schema().clone(),
            });
            Batch::concat_columnar(schema, collected)
        }
    }
}

/// Apply one non-breaker operator to a morsel — rows `rows` of `batch`
/// (serial within the morsel — the pipeline's parallelism is across
/// morsels).
fn apply_op(
    op: &Op<'_>,
    batch: &Batch,
    rows: Range<usize>,
    ctx: &EvalContext,
    mstats: &mut ExecStats,
) -> Result<Batch> {
    match op {
        Op::Filter(predicate) => Ok(batch.take(&predicate.select(batch, rows, ctx)?)),
        Op::Project { exprs, schema } => expr::project(exprs, schema, batch, rows, ctx),
        Op::Probe(build) => build.probe_morsel(batch, rows, &ctx.statement, mstats),
    }
}

/// Render the pipeline decomposition of `plan` for EXPLAIN: one line per
/// pipeline, numbered in execution order; a breaker names the pipelines it
/// waits on.
pub fn describe(plan: &PhysicalPlan) -> Vec<String> {
    let mut lines = Vec::new();
    describe_into(&decompose(plan), &mut lines);
    lines
}

/// Append `p`'s line after those of the pipelines it waits on; returns
/// `p`'s number.
fn describe_into(p: &Pipeline<'_>, lines: &mut Vec<String>) -> usize {
    let mut chain = vec![match &p.source {
        Source::Scan { table, .. } => format!("scan {}", table.read().name()),
        Source::Breaker(b) => {
            let ids: Vec<String> = b
                .inputs()
                .into_iter()
                .map(|input| describe_into(input, lines).to_string())
                .collect();
            if ids.is_empty() {
                b.label().to_string()
            } else {
                format!("{}({})", b.label(), ids.join(","))
            }
        }
    }];
    for stage in &p.stages {
        chain.push(match stage {
            Stage::Filter(_) => "filter".to_string(),
            Stage::Project { .. } => "project".to_string(),
            Stage::Probe {
                build, join_type, ..
            } => format!("probe[{join_type:?}]({})", describe_into(build, lines)),
        });
    }
    let mut line = format!("pipeline {}: {}", lines.len(), chain.join("→"));
    if p.agg.is_some() {
        line.push_str("→agg-partial ⇒ agg merge");
    }
    lines.push(line);
    lines.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::CmpOp;
    use crate::key::KeyMode;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row, StatementContext};
    use dash_storage::table::{ColumnTable, STRIDE};
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn table(name: &str, fields: Vec<Field>, rows: Vec<Row>) -> SharedTable {
        let mut t = ColumnTable::new(name, Schema::new(fields).unwrap());
        t.load_rows(rows).unwrap();
        Arc::new(RwLock::new(t))
    }

    /// A projection of bare columns moves column slices; the same
    /// projection spelled as identity casts is evaluated. Both must hand on
    /// the same batch: values, NULLs and schema. A moved string column
    /// keeps its pool: its codes stay the dictionary's.
    #[test]
    fn column_pick_projection_matches_the_computed_one() {
        let t = table(
            "T",
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("d", DataType::Date),
                Field::new("x", DataType::Float64),
            ],
            (0..STRIDE as i64 + 10)
                .map(|i| {
                    if i % 7 == 0 {
                        row![i, Datum::Null, Datum::Null, Datum::Null]
                    } else {
                        row![i, format!("n{}", i % 5), Datum::Date(i as i32), i as f64 * 0.5]
                    }
                })
                .collect(),
        );
        let ctx = EvalContext::default();
        let config = crate::scan::ScanConfig::full(0, vec![0, 1, 2, 3]);
        let (input, _) = crate::scan::scan(&t.read(), &config, &ctx).unwrap();
        let pool = t.read().str_pool(1).cloned().expect("a dictionary-coded column");
        let pool_of = |b: &Batch, c: usize| match b.column(c) {
            ColumnValues::Str(v) => v.pool().clone(),
            _ => panic!("column {c} holds strings"),
        };
        // Reordered, one column dropped, one repeated.
        let order = [3usize, 1, 0, 1];
        let schema = Schema::new_unchecked(
            order
                .iter()
                .enumerate()
                .map(|(o, &i)| Field::new(format!("c{o}"), input.schema().field(i).data_type))
                .collect(),
        );
        let picked: Vec<Expr> = order.iter().map(|&i| Expr::col(i)).collect();
        let computed: Vec<Expr> = order
            .iter()
            .map(|&i| Expr::Cast(Box::new(Expr::col(i)), input.schema().field(i).data_type))
            .collect();
        let project = |exprs: &[Expr], schema: &Schema, rows: Range<usize>| {
            let op = Op::Project { exprs, schema };
            apply_op(&op, &input, rows, &ctx, &mut ExecStats::default())
        };
        for rows in [0..input.len(), 5..STRIDE + 3, 9..9] {
            let fast = project(&picked, &schema, rows.clone()).unwrap();
            let slow = project(&computed, &schema, rows.clone()).unwrap();
            assert_eq!(fast, slow, "rows {rows:?}");
            assert_eq!(fast.len(), rows.len());
            for c in [1, 3].into_iter().filter(|_| !rows.is_empty()) {
                assert!(pool_of(&fast, c).same_domain(&pool), "a moved string column keeps its dictionary's codes");
            }
        }
        // A bare column moves into a NOT NULL output too, and its check runs.
        let strict = Schema::new_unchecked(vec![Field::not_null("c0", DataType::Utf8)]);
        let err = project(&[Expr::col(1)], &strict, 0..input.len()).unwrap_err();
        assert_eq!(err.class(), "23505", "{err}");
        let widened = Schema::new_unchecked(vec![Field::new("c0", DataType::Float64)]);
        let ids = project(&[Expr::Cast(Box::new(Expr::col(0)), DataType::Float64)], &widened, 0..3).unwrap();
        assert_eq!(ids.to_rows(), vec![row![0.0f64], row![1.0f64], row![2.0f64]]);
    }

    /// A pipeline over the plan's own VALUES batch reads it in place: a
    /// filter and an aggregate over `Values` give what they give over the
    /// table the batch was scanned from, at every width, and the batch is
    /// still charged to the statement while the pipeline reads it.
    #[test]
    fn values_fed_pipeline_matches_the_scanned_one() {
        let t = table(
            "T",
            vec![
                Field::not_null("id", DataType::Int64),
                Field::new("k", DataType::Int64),
                Field::new("x", DataType::Float64),
            ],
            (0..STRIDE as i64 * 3 + 17).map(|i| row![i, i % 13, i as f64 * 0.25]).collect(),
        );
        let ctx = EvalContext::default();
        let config = ScanConfig::full(0, vec![0, 1, 2]);
        let (batch, _) = crate::scan::scan(&t.read(), &config, &ctx).unwrap();
        let aggregate = |input: PhysicalPlan, parallelism: usize| PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(input),
                predicate: Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(2)), Box::new(Expr::lit(100.0f64))),
            }),
            group: vec![1],
            aggs: vec![
                AggExpr { func: AggFunc::CountStar, args: vec![], distinct: false, arg_types: vec![] },
                AggExpr { func: AggFunc::Sum, args: vec![0], distinct: false, arg_types: vec![DataType::Int64] },
            ],
            schema: Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("cnt", DataType::Int64),
                Field::new("total", DataType::Int64),
            ])
            .unwrap(),
            key_mode: KeyMode::Encoded,
            parallelism,
        };
        let sorted = |b: Batch| {
            let mut rows: Vec<String> = b.to_rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        for par in [1usize, 2, 4, 8] {
            let scan = PhysicalPlan::ColumnScan { table: t.clone(), config: config.clone() };
            let (scanned, _) = crate::plan::execute(&aggregate(scan, par), &ctx).unwrap();
            let values = aggregate(PhysicalPlan::values(batch.clone()), par);
            let (valued, stats) = crate::plan::execute(&values, &ctx).unwrap();
            assert_eq!(valued.len(), 13, "par={par}");
            assert_eq!(sorted(valued), sorted(scanned), "par={par}");
            assert_eq!(stats.pipeline_breakers, 2, "par={par}: the VALUES source and the aggregate");
            let tight = EvalContext {
                statement: StatementContext::with_budget(batch.approx_bytes() - 1),
                ..EvalContext::default()
            };
            let err = crate::plan::execute(&values, &tight).unwrap_err();
            assert_eq!(err.class(), "53200", "par={par}: {err}");
        }
    }

    /// The memory claim as an absolute bound, for a collecting and an
    /// aggregating sink: what a scan→probe pipeline holds at its peak is at
    /// most the frozen build plus a window of its largest morsel result.
    #[test]
    fn peak_inflight_bytes_bounded_by_build_plus_window() {
        let facts = table(
            "F",
            vec![Field::not_null("id", DataType::Int64), Field::not_null("k", DataType::Int64)],
            (0..STRIDE * 24).map(|i| row![i as i64, (i % 64) as i64]).collect(),
        );
        let dims = table(
            "D",
            vec![Field::not_null("dk", DataType::Int64), Field::not_null("label", DataType::Utf8)],
            (0..64i64).map(|k| row![k, format!("d{k}")]).collect(),
        );
        let (fact_cfg, dim_cfg) = (ScanConfig::full(0, vec![0, 1]), ScanConfig::full(1, vec![0, 1]));
        let par = 4usize;
        let join = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::ColumnScan { table: facts.clone(), config: fact_cfg.clone() }),
            right: Box::new(PhysicalPlan::ColumnScan { table: dims.clone(), config: dim_cfg.clone() }),
            on: vec![(1, 0)],
            join_type: JoinType::Inner,
            key_mode: KeyMode::Encoded,
            parallelism: par,
        };
        let group = vec![3];
        let aggs = vec![AggExpr { func: AggFunc::CountStar, args: vec![], distinct: false, arg_types: vec![] }];
        let agg_schema = Schema::new(vec![
            Field::new("label", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
        ])
        .unwrap();
        let agg_plan = PhysicalPlan::HashAggregate {
            input: Box::new(join.clone()),
            group: group.clone(),
            aggs: aggs.clone(),
            schema: agg_schema.clone(),
            key_mode: KeyMode::Encoded,
            parallelism: par,
        };

        // The bound's terms, from the same kernels the pipeline runs.
        let ctx = EvalContext::default();
        let mut scratch = ExecStats::default();
        let (dim_batch, _) = crate::scan::scan(&dims.read(), &dim_cfg, &ctx).unwrap();
        let guard = facts.read();
        let source = ScanSource::new(&guard, &fact_cfg).unwrap();
        let build = JoinBuild::new(
            Cow::Owned(dim_batch),
            source.out_schema(),
            vec![(1, 0)],
            JoinType::Inner,
            1,
            &ctx.statement,
            &mut scratch,
        )
        .unwrap();
        let (mut max_joined, mut max_partial) = (0u64, 0u64);
        for mi in 0..source.morsel_count() {
            let (morsel, _) = source.morsel(mi, &ctx).unwrap();
            let joined = build
                .probe_morsel(&morsel, 0..morsel.len(), &ctx.statement, &mut scratch)
                .unwrap();
            let sink = AggSink { group: &group, aggs: &aggs, schema: &agg_schema };
            let partial = agg::aggregate_morsel(&joined, 0..joined.len(), &sink, &ctx).unwrap();
            max_joined = max_joined.max(joined.approx_bytes());
            max_partial = max_partial.max(partial.approx_bytes());
        }
        drop(guard);

        let window = (par * 4) as u64;
        for (plan, max_morsel) in [(&join, max_joined), (&agg_plan, max_partial)] {
            let (_, stats) = crate::plan::execute(plan, &ctx).unwrap();
            assert!(stats.peak_inflight_morsels <= window, "{stats:?}");
            assert!(stats.peak_inflight_bytes > build.held_bytes(), "{stats:?}");
            assert!(
                stats.peak_inflight_bytes <= build.held_bytes() + window * max_morsel,
                "peak {} > build {} + {window} x {max_morsel}",
                stats.peak_inflight_bytes,
                build.held_bytes()
            );
        }
    }
}
