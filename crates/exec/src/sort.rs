//! Sorting and LIMIT/OFFSET — morselized on the shared worker pool.
//!
//! Every key is a column of the input: the planner appends a computed
//! ORDER BY key as a hidden column beneath the sort. Each row's keys are
//! read once into **normalized words** — one order-preserving `u64` per
//! key, plus a NULL rank for a key whose column holds a NULL, with
//! direction and NULLS FIRST/LAST folded in — and every comparison after
//! that compares words. `sort_batch` runs two parallel phases on
//! `pool::run_morsels`, each byte-identical to one serial stable sort:
//!
//! 1. **Run generation** — each morsel keeps one run's best `LIMIT+OFFSET`
//!    entries of `(words, row)` in a buffer of at most twice that many,
//!    cutting it back behind a running bound whenever it fills, and sorts
//!    them with `sort_unstable`. The row index makes the order total, so
//!    equal keys keep input order: the result equals a stable sort's. With
//!    no LIMIT the bound never forms and each run is sorted whole.
//! 2. **Merge** — a loser-tree k-way merge of the runs' entries emits only
//!    the first `LIMIT+OFFSET` positions (truncation happens before any
//!    column is materialized), checking the cancellation token as it goes.
//!
//! A string key's word is its 8-byte prefix: rows whose words tie up to
//! and including it are ordered by a tail comparison of the full strings
//! (and of any keys after it). The entries, the sort's working state, are
//! budgeted through a `BudgetLease` before they are built, so an
//! over-budget sort is refused with a classified `ResourceExhausted` and
//! released by RAII on every exit path.

use crate::batch::Batch;
use crate::functions::EvalContext;
use crate::key::f64_key_word;
use crate::pool;
use crate::stats::ExecStats;
use dash_common::{BudgetLease, Result, StatementContext};
use dash_encoding::column::ColumnValues;
use dash_encoding::order::i64_to_ordered;
use dash_encoding::order::str_prefix_ordered;
use std::cmp::Ordering;

/// The largest parallel sort run, which the planner passes as
/// [`SortOptions::run_rows`]. Each run is one morsel: small enough that a
/// handful of runs exist at moderate row counts (fan-out), large enough
/// that the per-run sort cost dominates scheduling overhead. A smaller
/// input is cut into one run per worker instead (see [`run_size`]).
pub const DEFAULT_SORT_RUN_ROWS: usize = 64 * 1024;

/// Merged rows between cancellation checks inside the k-way merge, and
/// the smallest run and gather morsel.
const CHECK_ROWS: usize = 4096;

/// Row count under which a gather is done serially; below this the
/// morsel-scheduling overhead exceeds the copy itself.
const MIN_PARALLEL_TAKE: usize = 8192;

/// One ORDER BY key: a column of the sort's input.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// The key column's ordinal.
    pub col: usize,
    /// Ascending?
    pub asc: bool,
    /// NULLs last? (default true, matching the engine's convention).
    pub nulls_last: bool,
}

impl SortKey {
    /// Ascending key on a column ordinal.
    pub fn asc(col: usize) -> SortKey {
        SortKey {
            col,
            asc: true,
            nulls_last: true,
        }
    }

    /// Descending key on a column ordinal.
    pub fn desc(col: usize) -> SortKey {
        SortKey {
            col,
            asc: false,
            nulls_last: true,
        }
    }
}

/// Execution settings for one sort. `limit`/`offset` come from the query,
/// `parallelism` from `AutoConfig` via the plan node.
#[derive(Debug, Clone)]
pub struct SortOptions {
    /// LIMIT row count, if any.
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: usize,
    /// Worker-pool width for run generation and output materialization.
    pub parallelism: usize,
    /// The largest generated run; the run size itself is derived from
    /// the input (see [`run_size`]).
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
// Normalized key words
// ---------------------------------------------------------------------------

/// The most words an entry carries; keys past them are compared by the
/// tail comparison.
const MAX_INLINE: usize = 4;

/// One key column read as normalized words.
struct KeyWords<'a> {
    values: &'a ColumnValues,
    asc: bool,
    nulls_last: bool,
    /// The column holds a NULL, so the key has a NULL rank word.
    ranked: bool,
}

impl KeyWords<'_> {
    /// Row `row`'s order-preserving value word with the direction folded
    /// in; `None` for NULL. Integer-encoded values order as `i64` (dates,
    /// timestamps and booleans decode monotonically, a decimal column has
    /// one scale). Every NaN is one word above `+inf` and `-0.0` ties
    /// `+0.0` (`f64_key_word`). A string's word is its 8-byte big-endian
    /// prefix, which the tail comparison completes.
    #[inline]
    fn word(&self, row: usize) -> Option<u64> {
        let w = match self.values {
            ColumnValues::Int(v) => i64_to_ordered(v[row]?),
            ColumnValues::Float(v) => f64_key_word(v[row]?),
            ColumnValues::Str(v) => str_prefix_ordered(v.get(row)?),
        };
        Some(if self.asc { w } else { !w })
    }

    /// The NULL rank word: NULL placement follows `nulls_last` only (DESC
    /// does not flip it, matching the engine's convention).
    #[inline]
    fn rank(&self, null: bool) -> u64 {
        (null == self.nulls_last) as u64
    }

    /// Rows `a` and `b` in this key's order, strings compared in full.
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        let (x, y) = (self.word(a), self.word(b));
        let o = self.rank(x.is_none()).cmp(&self.rank(y.is_none()));
        match self.values {
            ColumnValues::Str(v) if o == Ordering::Equal => {
                let o = v.get(a).cmp(&v.get(b));
                if self.asc {
                    o
                } else {
                    o.reverse()
                }
            }
            _ => o.then(x.cmp(&y)),
        }
    }
}

/// Every key of one sort as normalized words: the first `inline` words of
/// a row go into its sort entry, and `tail` names the first key those do
/// not order exactly — a string key (its prefix word can tie) or the first
/// key past `MAX_INLINE` words.
struct SortWords<'a> {
    keys: Vec<KeyWords<'a>>,
    inline: usize,
    tail: Option<usize>,
}

impl<'a> SortWords<'a> {
    fn new(input: &'a Batch, keys: &[SortKey]) -> Result<SortWords<'a>> {
        let keys = keys
            .iter()
            .map(|k| {
                let values = input.try_column(k.col)?;
                let ranked = match values {
                    ColumnValues::Int(v) => v.iter().any(Option::is_none),
                    ColumnValues::Float(v) => v.iter().any(Option::is_none),
                    ColumnValues::Str(v) => v.has_null(),
                };
                Ok(KeyWords { values, asc: k.asc, nulls_last: k.nulls_last, ranked })
            })
            .collect::<Result<Vec<_>>>()?;
        let (mut inline, mut tail) = (0, None);
        for (i, k) in keys.iter().enumerate() {
            let words = 1 + k.ranked as usize;
            if inline + words > MAX_INLINE {
                inline = MAX_INLINE;
                tail = Some(i);
                break;
            }
            inline += words;
            if matches!(k.values, ColumnValues::Str(_)) {
                tail = Some(i);
                break;
            }
        }
        Ok(SortWords { keys, inline: inline.max(1), tail })
    }

    /// Row `row`'s first `I` words.
    #[inline]
    fn entry<const I: usize>(&self, row: usize) -> Entry<I> {
        let mut words = [0u64; I];
        let mut at = words.iter_mut();
        for k in &self.keys {
            let w = k.word(row);
            if k.ranked {
                match at.next() {
                    Some(slot) => *slot = k.rank(w.is_none()),
                    None => break,
                }
            }
            match at.next() {
                Some(slot) => *slot = w.unwrap_or(0),
                None => break,
            }
        }
        (words, row)
    }

    /// The total order on entries: words, then the tail comparison, then
    /// the row index — a stable sort's order.
    #[inline]
    fn cmp<const I: usize>(&self, a: &Entry<I>, b: &Entry<I>) -> Ordering {
        a.0.cmp(&b.0)
            .then_with(|| match self.tail {
                Some(from) => self.keys[from..]
                    .iter()
                    .map(|k| k.cmp_rows(a.1, b.1))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal),
                None => Ordering::Equal,
            })
            .then(a.1.cmp(&b.1))
    }
}

/// A row's first `I` key words and its index.
type Entry<const I: usize> = ([u64; I], usize);

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
    merge_runs(runs, take, stmt, |a: &usize, b: &usize| cmp(*a, *b))
}

/// [`merge_sorted_runs`] over runs of any entries.
fn merge_runs<T: Copy>(
    runs: &[Vec<T>],
    take: usize,
    stmt: &StatementContext,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<Vec<T>> {
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
            (true, true) => match cmp(&runs[a][heads[a]], &runs[b][heads[b]]) {
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
// Run generation
// ---------------------------------------------------------------------------

/// One run's best `end` entries of `rows`, sorted. The run's buffer holds
/// at most `2·end` entries: when it fills, the best `end` move to the front
/// and the entry after them becomes the run's **bound**, which every kept
/// entry sorts before. A later entry that does not sort before the bound
/// already has `end` kept entries ahead of it, so it is skipped with one
/// comparison. When `end` covers the run, nothing is skipped and this is
/// the run's full sort.
fn bounded_run<const I: usize>(
    rows: std::ops::Range<usize>,
    end: usize,
    words: &SortWords<'_>,
) -> Vec<Entry<I>> {
    let total = |a: &Entry<I>, b: &Entry<I>| words.cmp(a, b);
    let cap = rows.len().min(end.saturating_mul(2));
    let mut run: Vec<Entry<I>> = Vec::with_capacity(cap);
    let mut bound: Option<Entry<I>> = None;
    for row in rows {
        let e = words.entry::<I>(row);
        if bound.is_some_and(|b| total(&e, &b).is_ge()) {
            continue;
        }
        run.push(e);
        if run.len() == cap && cap > end {
            run.select_nth_unstable_by(end, total);
            bound = Some(run[end]);
            run.truncate(end);
        }
    }
    if run.len() > end {
        run.select_nth_unstable_by(end, total);
        run.truncate(end);
    }
    run.sort_unstable_by(total);
    run
}

/// Cut the input into runs of `run_rows`, keep each run's best `end`
/// entries, then merge their first `end`.
fn sorted_positions<const I: usize>(
    n: usize,
    end: usize,
    run_rows: usize,
    words: &SortWords<'_>,
    parallelism: usize,
    ctx: &EvalContext,
    stats: &mut ExecStats,
) -> Result<Vec<usize>> {
    let n_runs = n.div_ceil(run_rows);
    let run = pool::run_morsels(n_runs, parallelism, &ctx.statement, |r| {
        let lo = r * run_rows;
        Ok(bounded_run::<I>(lo..(lo + run_rows).min(n), end, words))
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    stats.sort_runs_generated += run.results.len() as u64;
    stats.merge_fanin = stats.merge_fanin.max(run.results.len() as u64);
    let merged = merge_runs(&run.results, end, &ctx.statement, |a, b| words.cmp(a, b))?;
    Ok(merged.into_iter().map(|e| e.1).collect())
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

/// Rows per generated run for `n` input rows at `parallelism` workers:
/// one worker's share of the input, at least `CHECK_ROWS` and at most
/// `cap`. At width 1, and whenever `n >= parallelism * cap`, this is `cap`
/// or the whole input, whichever is smaller.
fn run_size(n: usize, parallelism: usize, cap: usize) -> usize {
    cap.min(n.div_ceil(parallelism).max(CHECK_ROWS)).max(1)
}

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
    let run_rows = run_size(n, parallelism, opts.run_rows);
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

    // The key words are the sort's working state: budgeted before they
    // are built, and released by RAII on every exit path.
    let mut lease = BudgetLease::new(&ctx.statement);
    let words = SortWords::new(input, keys)?;
    let entry = (words.inline as u64 + 1) * 8;
    // The runs' buffers (at most `2·end` entries a run, and never more
    // than the input's), the merged prefix and its positions.
    let runs = n.div_ceil(run_rows) as u64;
    let buffered = (n as u64).min(runs.saturating_mul(2 * end as u64));
    let held = (buffered + end as u64) * entry + end as u64 * 8;
    lease.charge(held).inspect_err(|_| stats.budget_rejections += 1)?;
    let positions = match words.inline {
        1 => sorted_positions::<1>(n, end, run_rows, &words, parallelism, ctx, stats),
        2 => sorted_positions::<2>(n, end, run_rows, &words, parallelism, ctx, stats),
        3 => sorted_positions::<3>(n, end, run_rows, &words, parallelism, ctx, stats),
        _ => sorted_positions::<4>(n, end, run_rows, &words, parallelism, ctx, stats),
    }?;
    take_rows(input, &positions[start..], parallelism, ctx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Datum, Field, Schema};

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
            col: 0,
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

    /// Runs are one worker's share of the input, between `CHECK_ROWS`
    /// and the cap: unchanged at width 1 and for inputs of at least
    /// `width × cap` rows, fanned out below that.
    #[test]
    fn run_size_follows_the_input() {
        let runs = |n: usize, par: usize, cap: usize| {
            let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
            let rows: Vec<_> = (0..n as i64).rev().map(|i| row![i]).collect();
            let input = Batch::from_rows(schema, &rows).unwrap();
            let o = SortOptions { parallelism: par, run_rows: cap, ..SortOptions::default() };
            let mut stats = ExecStats::default();
            let out = sort_batch(&input, &[SortKey::asc(0)], &o, &ctx(), &mut stats).unwrap();
            assert_eq!(out.row(0).get(0), &Datum::Int(0));
            stats.sort_runs_generated
        };
        assert_eq!(runs(50_000, 1, DEFAULT_SORT_RUN_ROWS), 1);
        assert_eq!(runs(300_000, 2, DEFAULT_SORT_RUN_ROWS), 5);
        assert_eq!(runs(40_000, 4, DEFAULT_SORT_RUN_ROWS), 4);
        assert_eq!(runs(6_000, 4, DEFAULT_SORT_RUN_ROWS), 2, "runs hold CHECK_ROWS at least");
        assert_eq!(runs(500, 2, 1), 500, "a cap of 1 still sorts one row per run");
    }

    /// Each run keeps its best `end` entries behind a running bound.
    /// Ascending input skips every row after the first cut, descending
    /// input refills the buffer at every `end` rows, and all-equal keys
    /// tie on the row index; every FETCH FIRST window is the full sort's
    /// prefix, from the same runs and merge.
    #[test]
    fn bounded_runs_match_the_full_sort_prefix() {
        let n = 10_000i64;
        let schema = Schema::new(vec![Field::new("x", DataType::Int64), Field::new("id", DataType::Int64)]).unwrap();
        for key in [|i: i64| i, |i: i64| -i, |_: i64| 7] {
            let rows: Vec<_> = (0..n).map(|i| row![key(i), i]).collect();
            let input = Batch::from_rows(schema.clone(), &rows).unwrap();
            let full = sorted(&input, &[SortKey::asc(0)], &opts(None, 0)).to_rows();
            for par in [1, 2, 4, 8] {
                for end in [1, 7, 999, 1000, 1001, 2001, 9_999, 10_000] {
                    let o = SortOptions { limit: Some(end), offset: 0, parallelism: par, run_rows: 1000 };
                    let mut stats = ExecStats::default();
                    let out = sort_batch(&input, &[SortKey::asc(0)], &o, &ctx(), &mut stats).unwrap();
                    assert_eq!(out.to_rows(), full[..end], "width {par} end {end}");
                    assert_eq!((stats.sort_runs_generated, stats.merge_fanin), (10, 10));
                }
            }
        }
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
