//! Sorting, LIMIT/OFFSET, and top-k — morselized on the shared worker
//! pool.
//!
//! The serial single stable sort is gone. `sort_batch` now runs three
//! parallel phases on `pool::run_morsels`, each byte-identical to the
//! serial stable sort it replaced:
//!
//! 1. **Key evaluation** — computed key expressions are evaluated once
//!    into per-morsel chunks; bare column references compare straight
//!    through the typed column accessors with no per-row `Datum` clones.
//! 2. **Run generation** — each morsel sorts one `run_rows`-sized run of
//!    row indices (stable within the run). Runs cover ascending disjoint
//!    row ranges, so per-run stability plus a lowest-run-wins merge
//!    tie-break reproduces global input-order stability exactly.
//! 3. **Merge / Top-K** — a loser-tree k-way merge emits only the first
//!    `LIMIT+OFFSET` positions (truncation happens before any column is
//!    materialized), checking the cancellation token as it goes. When
//!    `LIMIT+OFFSET` is small relative to the input
//!    (`end * TOPK_FACTOR <= rows`), bounded per-morsel heaps replace the
//!    full sort entirely.
//!
//! Sort state (evaluated keys, the index permutation) is budgeted through
//! a `BudgetLease`, so an over-budget sort is refused with a classified
//! `ResourceExhausted` and the runs are released by RAII on every exit
//! path.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::pool;
use crate::stats::ExecStats;
use dash_common::statement::approx_datum_bytes;
use dash_common::{BudgetLease, DashError, Datum, Result, StatementContext};
use dash_encoding::column::ColumnValues;
use std::cmp::Ordering;

/// Default rows per parallel sort run (`DASH_SORT_RUN_ROWS` overrides via
/// `AutoConfig`). Each run is one morsel: small enough that a handful of
/// runs exist at moderate row counts (fan-out), large enough that the
/// per-run `sort_unstable`-style cost dominates scheduling overhead.
pub const DEFAULT_SORT_RUN_ROWS: usize = 64 * 1024;

/// Top-K fast-path threshold: the bounded-heap path is taken when
/// `LIMIT+OFFSET` rows are at most `1/TOPK_FACTOR` of the input, i.e. when
/// keeping per-morsel heaps of `LIMIT+OFFSET` entries is clearly cheaper
/// than sorting everything.
pub const TOPK_FACTOR: usize = 8;

/// Merged rows between cancellation checks inside the k-way merge, and
/// evaluated rows between checks in serial key paths.
const CHECK_ROWS: usize = 4096;

/// Row count under which a gather is done serially; below this the
/// morsel-scheduling overhead exceeds the copy itself.
const MIN_PARALLEL_TAKE: usize = 8192;

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Key expression over the input schema.
    pub expr: Expr,
    /// Ascending?
    pub asc: bool,
    /// NULLs last? (default true, matching the engine's convention).
    pub nulls_last: bool,
}

impl SortKey {
    /// Ascending key on a column ordinal.
    pub fn asc(col: usize) -> SortKey {
        SortKey {
            expr: Expr::col(col),
            asc: true,
            nulls_last: true,
        }
    }

    /// Descending key on a column ordinal.
    pub fn desc(col: usize) -> SortKey {
        SortKey {
            expr: Expr::col(col),
            asc: false,
            nulls_last: true,
        }
    }
}

/// Execution knobs for one sort. `limit`/`offset` come from the query,
/// `parallelism`/`run_rows` from `AutoConfig` via the plan node.
#[derive(Debug, Clone)]
pub struct SortOptions {
    /// LIMIT row count, if any.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: usize,
    /// Worker-pool width for key eval, run generation, Top-K, and
    /// output materialization.
    pub parallelism: usize,
    /// Rows per generated run (`DASH_SORT_RUN_ROWS`).
    pub run_rows: usize,
}

impl Default for SortOptions {
    fn default() -> SortOptions {
        SortOptions {
            limit: None,
            offset: 0,
            parallelism: 1,
            run_rows: DEFAULT_SORT_RUN_ROWS,
        }
    }
}

// ---------------------------------------------------------------------------
// Positional key comparison
// ---------------------------------------------------------------------------

/// Computed key values stored in the per-morsel chunks they were evaluated
/// in. All chunks but the last have identical width, so lookup is pure
/// index arithmetic — no concatenation pass over all rows.
struct ChunkedDatums {
    chunks: Vec<Vec<Datum>>,
    chunk_rows: usize,
}

impl ChunkedDatums {
    fn get(&self, i: usize) -> &Datum {
        &self.chunks[i / self.chunk_rows][i % self.chunk_rows]
    }
}

/// One evaluated sort key, compared positionally by row index.
enum KeyColumn<'a> {
    /// Bare column reference: compare through the batch's typed column —
    /// no per-row Datum is ever built. Raw `i64` order matches the
    /// decoded datum's `sql_cmp` order for every int-encoded type
    /// (Date/Timestamp/Bool decode monotonically).
    Col(&'a ColumnValues),
    /// Computed expression, evaluated once up front.
    Computed(ChunkedDatums),
}

/// NULL handling + direction shared by both representations: NULL
/// placement follows `nulls_last` only (DESC does not flip it, matching
/// the engine's convention), direction reverses non-NULL comparisons.
fn ordered<T>(
    x: Option<T>,
    y: Option<T>,
    asc: bool,
    nulls_last: bool,
    cmp: impl FnOnce(T, T) -> Ordering,
) -> Ordering {
    match (x, y) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => {
            if nulls_last {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        }
        (Some(_), None) => {
            if nulls_last {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (Some(a), Some(b)) => {
            let o = cmp(a, b);
            if asc {
                o
            } else {
                o.reverse()
            }
        }
    }
}

/// `partial_cmp` (and `sql_cmp` on top of it) calls a NaN equal to every
/// number, which is not an order: the sort breaks that tie so that NaNs
/// tie only with each other and sort above `+inf`, as the percentile
/// aggregates order them. `-0.0` and `+0.0` still tie.
fn is_nan(d: &Datum) -> bool {
    matches!(d, Datum::Float(f) if f.is_nan())
}

impl KeyColumn<'_> {
    fn cmp_at(&self, a: usize, b: usize, asc: bool, nulls_last: bool) -> Ordering {
        match self {
            KeyColumn::Col(ColumnValues::Int(v)) => {
                ordered(v[a], v[b], asc, nulls_last, |x, y| x.cmp(&y))
            }
            KeyColumn::Col(ColumnValues::Float(v)) => ordered(v[a], v[b], asc, nulls_last, |x, y| {
                x.partial_cmp(&y).unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
            }),
            KeyColumn::Col(ColumnValues::Str(v)) => {
                ordered(v[a].as_deref(), v[b].as_deref(), asc, nulls_last, str::cmp)
            }
            KeyColumn::Computed(c) => {
                let (x, y) = (c.get(a), c.get(b));
                ordered(
                    (!x.is_null()).then_some(x),
                    (!y.is_null()).then_some(y),
                    asc,
                    nulls_last,
                    |x, y| x.sql_cmp(y).then_with(|| is_nan(x).cmp(&is_nan(y))),
                )
            }
        }
    }
}

/// All keys of one sort, comparable by row position.
struct RowComparator<'a> {
    cols: Vec<(KeyColumn<'a>, bool, bool)>,
}

impl RowComparator<'_> {
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for (col, asc, nulls_last) in &self.cols {
            let ord = col.cmp_at(a, b, *asc, *nulls_last);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Total order for Top-K heaps: key order, input position breaks
    /// ties. This is exactly the order a stable sort produces, so a
    /// sorted candidate set's prefix equals the stable sort's prefix.
    fn cmp_total(&self, a: usize, b: usize) -> Ordering {
        self.cmp_rows(a, b).then(a.cmp(&b))
    }
}

/// Evaluate the sort keys into positional form. Bare column references
/// borrow the input column; everything else is evaluated in row morsels
/// on the pool, with the evaluated chunks charged to `lease` (key state
/// lives until the permutation is materialized).
fn build_key_columns<'a>(
    input: &'a Batch,
    keys: &[SortKey],
    ctx: &EvalContext,
    parallelism: usize,
    lease: &mut BudgetLease,
    stats: &mut ExecStats,
) -> Result<RowComparator<'a>> {
    let n = input.len();
    let width = input.schema().len();
    let computed: Vec<usize> = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| !matches!(&k.expr, Expr::Col(c) if *c < width))
        .map(|(i, _)| i)
        .collect();
    let mut evaluated: Vec<Option<ChunkedDatums>> = keys.iter().map(|_| None).collect();
    if !computed.is_empty() {
        let ranges = pool::row_morsels(n, parallelism, CHECK_ROWS);
        let chunk_rows = ranges.first().map_or(1, |r| r.1 - r.0);
        let run = pool::run_morsels(ranges.len(), parallelism, &ctx.statement, |mi| {
            let (lo, hi) = ranges[mi];
            let mut cols: Vec<Vec<Datum>> = computed
                .iter()
                .map(|_| Vec::with_capacity(hi - lo))
                .collect();
            let mut bytes = 0u64;
            for row in lo..hi {
                for (slot, &ki) in computed.iter().enumerate() {
                    let d = keys[ki].expr.eval(input, row, ctx)?;
                    bytes += approx_datum_bytes(&d);
                    cols[slot].push(d);
                }
            }
            Ok((cols, bytes))
        })?;
        stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
        let mut chunked: Vec<Vec<Vec<Datum>>> = computed
            .iter()
            .map(|_| Vec::with_capacity(run.results.len()))
            .collect();
        for (cols, bytes) in run.results {
            lease
                .charge(bytes)
                .inspect_err(|_| stats.budget_rejections += 1)?;
            for (slot, col) in cols.into_iter().enumerate() {
                chunked[slot].push(col);
            }
        }
        for (slot, &ki) in computed.iter().enumerate() {
            evaluated[ki] = Some(ChunkedDatums {
                chunks: std::mem::take(&mut chunked[slot]),
                chunk_rows,
            });
        }
    }
    let mut cols = Vec::with_capacity(keys.len());
    for (i, k) in keys.iter().enumerate() {
        let col = match evaluated[i].take() {
            Some(c) => KeyColumn::Computed(c),
            None => match &k.expr {
                Expr::Col(c) => KeyColumn::Col(input.column(*c)),
                other => {
                    return Err(DashError::internal(format!(
                        "sort key not evaluated: {other:?}"
                    )))
                }
            },
        };
        cols.push((col, k.asc, k.nulls_last));
    }
    Ok(RowComparator { cols })
}

// ---------------------------------------------------------------------------
// K-way merge
// ---------------------------------------------------------------------------

/// K-way merge of per-run sorted position lists via a loser tree: one
/// comparison per tree level per emitted row instead of the binary-heap
/// `sift` pair. `take` bounds the output — LIMIT+OFFSET truncation
/// happens here, before any column is materialized.
///
/// Ties between runs go to the lower run index. Because runs cover
/// ascending disjoint position ranges and each run is internally stable,
/// that tie-break *is* global input order: the merged prefix is
/// byte-identical to the first `take` entries of one serial stable sort.
///
/// The cancellation token is checked every `CHECK_ROWS` outputs, so a
/// deadline kill lands mid-merge, not after it.
pub fn merge_sorted_runs<F>(
    runs: &[Vec<usize>],
    take: usize,
    stmt: &StatementContext,
    cmp: &F,
) -> Result<Vec<usize>>
where
    F: Fn(usize, usize) -> Ordering,
{
    let k = runs.len();
    let total: usize = runs.iter().map(Vec::len).sum();
    let take = take.min(total);
    if take == 0 {
        return Ok(Vec::new());
    }
    stmt.check()?;
    if k == 1 {
        return Ok(runs[0][..take].to_vec());
    }
    let mut heads = vec![0usize; k];
    // Does run `a`'s head sort strictly before run `b`'s? Exhausted runs
    // always lose; equal keys go to the lower run index (tie stability).
    let prefer = |a: usize, b: usize, heads: &[usize]| -> bool {
        match (heads[a] < runs[a].len(), heads[b] < runs[b].len()) {
            (false, _) => false,
            (true, false) => true,
            (true, true) => match cmp(runs[a][heads[a]], runs[b][heads[b]]) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
        }
    };
    // Build a winner tournament first (correct by construction), then read
    // the loser tree off it: `losers[j]` is the child-winner at node `j`
    // that lost the match `winners[j]` won. Building the loser tree
    // incrementally with a sentinel is subtly wrong (a sentinel meeting a
    // real run at an upper node can swap the real run out of the tree);
    // the two-pass build avoids that class of bug entirely.
    let mut winners = vec![0usize; 2 * k];
    for (i, w) in winners.iter_mut().enumerate().skip(k) {
        *w = i - k;
    }
    for j in (1..k).rev() {
        let (l, r) = (winners[2 * j], winners[2 * j + 1]);
        winners[j] = if prefer(r, l, &heads) { r } else { l };
    }
    let mut losers = vec![0usize; k];
    for j in 1..k {
        let (l, r) = (winners[2 * j], winners[2 * j + 1]);
        losers[j] = if winners[j] == l { r } else { l };
    }
    let mut winner = winners[1];
    let mut out = Vec::with_capacity(take);
    while out.len() < take {
        if out.len() % CHECK_ROWS == 0 {
            stmt.check()?;
        }
        out.push(runs[winner][heads[winner]]);
        heads[winner] += 1;
        // Replay the winner's leaf-to-root path: the advanced head
        // re-fights each stored loser, one comparison per level.
        let mut s = winner;
        let mut node = (k + winner) / 2;
        while node >= 1 {
            if prefer(losers[node], s, &heads) {
                std::mem::swap(&mut s, &mut losers[node]);
            }
            node /= 2;
        }
        winner = s;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Top-K
// ---------------------------------------------------------------------------

/// Bounded worst-at-root heap of row positions: keeps the `cap` best rows
/// seen, evicting the worst kept row when a better one arrives.
struct BoundedHeap {
    cap: usize,
    items: Vec<usize>,
}

impl BoundedHeap {
    fn new(cap: usize) -> BoundedHeap {
        BoundedHeap {
            cap,
            items: Vec::with_capacity(cap),
        }
    }

    /// `total` orders rows best-first; the heap keeps its *worst* kept row
    /// at the root so one comparison rejects most of the stream.
    fn offer(&mut self, row: usize, total: &impl Fn(usize, usize) -> Ordering) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() < self.cap {
            self.items.push(row);
            // Sift up.
            let mut i = self.items.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if total(self.items[i], self.items[parent]) == Ordering::Greater {
                    self.items.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
            return;
        }
        if total(row, self.items[0]) != Ordering::Less {
            return;
        }
        self.items[0] = row;
        // Sift down.
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < self.items.len() && total(self.items[l], self.items[worst]) == Ordering::Greater
            {
                worst = l;
            }
            if r < self.items.len() && total(self.items[r], self.items[worst]) == Ordering::Greater
            {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.items.swap(i, worst);
            i = worst;
        }
    }
}

/// Top-K path: each morsel keeps a bounded heap of its `k` best rows
/// under the total order (key, position); the union of the per-morsel
/// heaps contains every global top-k row, so one small final sort of
/// ≤ `morsels · k` candidates yields exactly the stable sort's prefix.
fn top_k(
    n: usize,
    k: usize,
    cmp: &RowComparator<'_>,
    parallelism: usize,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Vec<usize>> {
    let ranges = pool::row_morsels(n, parallelism, CHECK_ROWS);
    let total = |a: usize, b: usize| cmp.cmp_total(a, b);
    let run = pool::run_morsels(ranges.len(), parallelism, &ctx.statement, |mi| {
        let (lo, hi) = ranges[mi];
        let mut heap = BoundedHeap::new(k);
        for row in lo..hi {
            heap.offer(row, &total);
        }
        Ok(heap.items)
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    let mut candidates: Vec<usize> = run.results.into_iter().flatten().collect();
    candidates.sort_by(|&a, &b| total(a, b));
    candidates.truncate(k);
    Ok(candidates)
}

// ---------------------------------------------------------------------------
// Output materialization
// ---------------------------------------------------------------------------

/// Gather `positions` into an output batch. Wide gathers fan out over the
/// pool in position-range morsels and are stitched back in morsel order
/// (`ColumnValues::extend_from`), the same recipe scan materialization
/// uses; small gathers stay serial.
fn take_rows(
    input: &Batch,
    positions: &[usize],
    parallelism: usize,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    if parallelism <= 1 || positions.len() < MIN_PARALLEL_TAKE || input.schema().is_empty() {
        ctx.statement.check()?;
        return Ok(input.take(positions));
    }
    let ranges = pool::row_morsels(positions.len(), parallelism, CHECK_ROWS);
    let run = pool::run_morsels(ranges.len(), parallelism, &ctx.statement, |mi| {
        let (lo, hi) = ranges[mi];
        let mut cols: Vec<ColumnValues> = input
            .schema()
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        for (c, col) in cols.iter_mut().enumerate() {
            col.append_selected(input.column(c), &positions[lo..hi]);
        }
        Ok(cols)
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    let mut out: Vec<ColumnValues> = input
        .schema()
        .fields()
        .iter()
        .map(|f| ColumnValues::empty_for(f.data_type))
        .collect();
    for cols in run.results {
        for (oi, cv) in cols.into_iter().enumerate() {
            out[oi].extend_from(cv);
        }
    }
    Batch::new(input.schema().clone(), out)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Sort a batch by keys, then apply OFFSET/LIMIT. Parallel at every
/// phase, byte-identical to a serial stable sort at any worker count.
pub fn sort_batch(
    input: &Batch,
    keys: &[SortKey],
    opts: &SortOptions,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let n = input.len();
    let parallelism = opts.parallelism.max(1);
    let run_rows = opts.run_rows.max(1);
    let end = match opts.limit {
        Some(l) => opts.offset.saturating_add(l).min(n),
        None => n,
    };
    let start = opts.offset.min(end);
    if keys.is_empty() {
        // Pure LIMIT/OFFSET: keep input order; only the kept slice is
        // ever gathered.
        let positions: Vec<usize> = (start..end).collect();
        return take_rows(input, &positions, parallelism, ctx, stats);
    }
    if start >= end {
        ctx.statement.check()?;
        return Ok(input.take(&[]));
    }

    // Evaluated keys and the index permutation are the sort's working
    // state: budgeted, and released by RAII on every exit path.
    let mut lease = BudgetLease::new(&ctx.statement);
    let cmp = build_key_columns(input, keys, ctx, parallelism, &mut lease, stats)?;

    let word = std::mem::size_of::<usize>() as u64;
    if opts.limit.is_some() && end.saturating_mul(TOPK_FACTOR) <= n {
        // Candidate sets are bounded at morsels · end positions.
        let morsels = pool::row_morsels(n, parallelism, CHECK_ROWS).len() as u64;
        lease
            .charge(morsels * end as u64 * word)
            .inspect_err(|_| stats.budget_rejections += 1)?;
        let positions = top_k(n, end, &cmp, parallelism, ctx, stats)?;
        return take_rows(input, &positions[start..], parallelism, ctx, stats);
    }

    // Full sort: the permutation plus the merged prefix.
    lease
        .charge((n + end) as u64 * word)
        .inspect_err(|_| stats.budget_rejections += 1)?;
    let n_runs = n.div_ceil(run_rows);
    let run = pool::run_morsels(n_runs, parallelism, &ctx.statement, |r| {
        let lo = r * run_rows;
        let hi = (lo + run_rows).min(n);
        let mut idx: Vec<usize> = (lo..hi).collect();
        // Stable within the run; runs cover ascending disjoint ranges, so
        // the merge's lowest-run-wins tie-break restores global input
        // order for equal keys.
        idx.sort_by(|&a, &b| cmp.cmp_rows(a, b));
        Ok(idx)
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    stats.sort_runs_generated += run.results.len() as u64;
    stats.merge_fanin = stats.merge_fanin.max(run.results.len() as u64);
    let positions = merge_sorted_runs(&run.results, end, &ctx.statement, &|a, b| {
        cmp.cmp_rows(a, b)
    })?;
    take_rows(input, &positions[start..], parallelism, ctx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Schema};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64),
            Field::new("y", DataType::Utf8),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[
                row![3i64, "c"],
                row![1i64, "a"],
                row![Datum::Null, "n"],
                row![2i64, "b"],
            ],
        )
        .unwrap()
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn opts(limit: Option<usize>, offset: usize) -> SortOptions {
        SortOptions {
            limit,
            offset,
            ..SortOptions::default()
        }
    }

    fn sorted(input: &Batch, keys: &[SortKey], o: &SortOptions) -> Batch {
        let mut stats = ExecStats::default();
        sort_batch(input, keys, o, &ctx(), &mut stats).unwrap()
    }

    #[test]
    fn ascending_nulls_last() {
        let out = sorted(&batch(), &[SortKey::asc(0)], &opts(None, 0));
        let xs: Vec<String> = out.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(xs, vec!["1", "2", "3", "NULL"]);
    }

    #[test]
    fn descending_keeps_nulls_last() {
        let out = sorted(&batch(), &[SortKey::desc(0)], &opts(None, 0));
        let xs: Vec<String> = out.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(xs, vec!["3", "2", "1", "NULL"]);
    }

    #[test]
    fn nulls_first_option() {
        let key = SortKey {
            expr: Expr::col(0),
            asc: true,
            nulls_last: false,
        };
        let out = sorted(&batch(), &[key], &opts(None, 0));
        assert!(out.row(0).get(0).is_null());
    }

    #[test]
    fn limit_offset() {
        let out = sorted(&batch(), &[SortKey::asc(0)], &opts(Some(2), 1));
        let xs: Vec<String> = out.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(xs, vec!["2", "3"]);
        // Offset past the end.
        let out = sorted(&batch(), &[SortKey::asc(0)], &opts(Some(2), 99));
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn limit_without_sort_preserves_order() {
        let out = sorted(&batch(), &[], &opts(Some(2), 0));
        assert_eq!(out.row(0).get(1).as_str(), Some("c"));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn multi_key_sort() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![1i64, 2i64], row![1i64, 1i64], row![0i64, 9i64]],
        )
        .unwrap();
        let out = sorted(&b, &[SortKey::asc(0), SortKey::desc(1)], &opts(None, 0));
        assert_eq!(
            out.to_rows(),
            vec![row![0i64, 9i64], row![1i64, 2i64], row![1i64, 1i64]]
        );
    }

    #[test]
    fn computed_key_expression_sorts() {
        // A non-column key goes through the chunked evaluated path.
        let key = SortKey {
            expr: Expr::Neg(Box::new(Expr::col(0))),
            asc: true,
            nulls_last: true,
        };
        let out = sorted(&batch(), &[key], &opts(None, 0));
        let xs: Vec<String> = out.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(xs, vec!["3", "2", "1", "NULL"]);
    }

    #[test]
    fn tiny_runs_force_a_real_merge() {
        // run_rows = 1 → one run per row: the loser tree merges 4 runs.
        let o = SortOptions {
            run_rows: 1,
            parallelism: 2,
            ..SortOptions::default()
        };
        let mut stats = ExecStats::default();
        let out = sort_batch(&batch(), &[SortKey::asc(0)], &o, &ctx(), &mut stats).unwrap();
        let xs: Vec<String> = out.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(xs, vec!["1", "2", "3", "NULL"]);
        assert_eq!(stats.sort_runs_generated, 4);
        assert_eq!(stats.merge_fanin, 4);
    }

    #[test]
    fn merge_is_stable_across_runs() {
        // Equal keys must come out in run (= input) order at any fan-in.
        let runs = vec![vec![0, 2, 4], vec![1, 3, 5], vec![6, 7]];
        let keys = [0i64, 0, 1, 0, 1, 1, 0, 1];
        let cmp = |a: usize, b: usize| keys[a].cmp(&keys[b]);
        let merged =
            merge_sorted_runs(&runs, usize::MAX, &StatementContext::unbounded(), &cmp).unwrap();
        assert_eq!(merged, vec![0, 1, 3, 6, 2, 4, 5, 7]);
    }

    #[test]
    fn merge_truncates_at_take() {
        let runs = vec![vec![0, 1], vec![2, 3], vec![4]];
        let cmp = |a: usize, b: usize| a.cmp(&b);
        let merged = merge_sorted_runs(&runs, 3, &StatementContext::unbounded(), &cmp).unwrap();
        assert_eq!(merged, vec![0, 1, 2]);
    }
}
