//! Cache-efficient partitioned hash join (§II.B.7), operating on
//! compressed key words.
//!
//! "All of the query algorithms aim to keep data in the processor's L3 or
//! L2 caches ... by partitioning data into L3 or L2 chunks for performing
//! joins and grouping, as pioneered in Hybrid Hash Join and MonetDB."
//!
//! The build (right) side is hash-partitioned on the join key into chunks
//! sized so each partition's table fits in cache, then frozen as a
//! [`JoinBuild`] — a pipeline breaker. The probe (left) side streams
//! through it one morsel at a time. NULL keys never match (SQL semantics).
//!
//! There is one key path: every key column reduces to a fixed-width `u64`
//! word (ordered-int bits, canonical ordered-float bits, or string codes;
//! a pair of different domains is lifted into its common one — see
//! [`crate::key`]), and partitioning, building and probing touch only those
//! words. A partition is a [`GroupTable`] (key words → dense key id) plus
//! each key's build rows in CSR form; the probe looks a key up without
//! inserting and reads a slice. A string key's words are codes of the build
//! column's pool, which holds each value once; a probe string that pool
//! lacks has no match and is emitted as a NULL key is.
//!
//! The probe emits `(probe row, build row)` index pairs per morsel; payload
//! columns materialize **late**, gathered column-at-a-time only for rows
//! that survived the probe — a string column as codes into its own pool.

use crate::batch::Batch;
use crate::key::{route_hash, GroupTable, KeyCol, KeyMode};
use crate::pool;
use crate::stats::ExecStats;
use dash_common::{BudgetLease, DashError, Result, Schema, StatementContext};
use dash_encoding::column::ColumnValues;
use dash_encoding::strs::{StrColumn, NULL_CODE};
use std::borrow::Cow;
use std::ops::Range;

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    Left,
    /// Semi join: left rows with at least one match, left columns only.
    Semi,
    /// Anti join: left rows with no match, left columns only.
    Anti,
}

/// Target rows per build partition — sized so a partition's hash table
/// stays within an L2-ish footprint (the cache-conscious chunking).
pub const PARTITION_ROWS: usize = 8 * 1024;

/// Sentinel build-row index marking "no match" in an output pair (NULL
/// padding for Left, or an unused slot for Semi/Anti).
const NO_MATCH: u32 = u32::MAX;

/// Grow `lease` by `bytes`, counting a refusal.
fn charge(lease: &mut BudgetLease, bytes: u64, stats: &mut ExecStats) -> Result<()> {
    lease.charge(bytes).inspect_err(|_| stats.budget_rejections += 1)
}

/// Append output pairs for one probe row given its build-side matches.
#[inline]
fn probe_emit(join_type: JoinType, li: u32, matches: Option<&[u32]>, out: &mut Vec<(u32, u32)>) {
    match join_type {
        JoinType::Inner => {
            if let Some(ms) = matches {
                for &ri in ms {
                    out.push((li, ri));
                }
            }
        }
        JoinType::Left => match matches {
            Some(ms) => {
                for &ri in ms {
                    out.push((li, ri));
                }
            }
            None => out.push((li, NO_MATCH)),
        },
        JoinType::Semi => {
            if matches.is_some() {
                out.push((li, NO_MATCH));
            }
        }
        JoinType::Anti => {
            if matches.is_none() {
                out.push((li, NO_MATCH));
            }
        }
    }
}

/// Execute a hash join between two materialized batches: freeze `right`
/// as a [`JoinBuild`], probe row-range morsels of `left` against it on the
/// pool, and gather the output columns once from the surviving pairs.
/// Neither side is copied on the way in: the build borrows `right` and a
/// probe morsel is a row range of `left`.
///
/// `on` pairs are (left ordinal, right ordinal). The output schema is
/// `left ⧺ right` for Inner/Left, and just `left` for Semi/Anti.
/// `_key_mode` is the planner's label; the join keys on words either way.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    on: &[(usize, usize)],
    join_type: JoinType,
    _key_mode: KeyMode,
    parallelism: usize,
    stmt: &StatementContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let build = JoinBuild::new(
        Cow::Borrowed(right),
        left.schema(),
        on.to_vec(),
        join_type,
        parallelism,
        stmt,
        stats,
    )?;
    // What `probe_morsel` does per morsel, with the gather hoisted out:
    // both inputs outlive the probe here, so no per-morsel batch is built
    // only to be stitched.
    let ranges = pool::row_morsels(left.len(), parallelism, 4096);
    let run = pool::run_morsels(ranges.len(), parallelism, stmt, |mi| {
        let mut mstats = ExecStats::default();
        let pairs = build.probe_pairs(left, ranges[mi].0..ranges[mi].1, stmt, &mut mstats)?;
        Ok((pairs, mstats))
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    let mut pairs = Vec::new();
    for (p, mstats) in run.results {
        pairs.extend(p);
        *stats += mstats;
    }
    materialize_pairs(left, right, build.out_schema.clone(), &pairs, parallelism, stmt, stats)
}

// ---------------------------------------------------------------------------
// Build-side partitioning.
// ---------------------------------------------------------------------------

/// One build partition before it is frozen: row indices plus their key
/// words, flat with stride `nk`.
type CodedPartition = (Vec<u32>, Vec<u64>);

/// Hash-partition the build side on its key words, dropping NULL-keyed
/// rows (they never join). Morsel partials concatenate in morsel order, so
/// each partition keeps ascending row order — identical to a serial pass.
/// Returns the partitions and (morsels, workers) pool usage.
fn partition_encoded<'a>(
    len: usize,
    key_cols: &(impl Fn() -> Vec<KeyCol<'a>> + Sync),
    parts: usize,
    mask: u64,
    parallelism: usize,
    stmt: &StatementContext,
) -> Result<(Vec<CodedPartition>, (u64, u64))> {
    let ranges = pool::row_morsels(len, parallelism, 4096);
    let run = pool::run_morsels(ranges.len(), parallelism, stmt, |mi| {
        let (lo, hi) = ranges[mi];
        let mut local: Vec<CodedPartition> = (0..parts).map(|_| (Vec::new(), Vec::new())).collect();
        let mut cols = key_cols();
        let mut words = vec![0u64; cols.len()];
        'row: for i in lo..hi {
            for (c, col) in cols.iter_mut().enumerate() {
                match col.word(i) {
                    Some(w) => words[c] = w,
                    None => continue 'row,
                }
            }
            let p = (route_hash(&words) & mask) as usize;
            local[p].0.push(i as u32);
            local[p].1.extend_from_slice(&words);
        }
        Ok(local)
    })?;
    let mut partitions: Vec<CodedPartition> = (0..parts).map(|_| (Vec::new(), Vec::new())).collect();
    for local in run.results {
        for (p, (rows, words)) in local.into_iter().enumerate() {
            partitions[p].0.extend(rows);
            partitions[p].1.extend(words);
        }
    }
    Ok((partitions, (run.morsels_dispatched, run.workers_used)))
}

/// One frozen build partition: key words → dense key id, and each key's
/// build rows in CSR form.
struct Partition {
    table: GroupTable,
    /// Key `k`'s build rows, ascending, are `rows[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl Partition {
    /// Freeze one partition's `rows` (ascending) and their `nk` key words
    /// each.
    fn freeze(rows: Vec<u32>, words: Vec<u64>, nk: usize) -> Partition {
        let mut table = GroupTable::without_nulls(nk);
        let mut key_of_row = Vec::with_capacity(rows.len());
        for key in words.chunks_exact(nk) {
            key_of_row.push(match key[..] {
                [word] => table.group_of_word(word),
                _ => table.group_of(key),
            });
        }
        // Counting sort of the rows by key id: stable, so a key's rows stay
        // in ascending row order.
        let mut offsets = vec![0u32; table.len() + 1];
        for &k in &key_of_row {
            offsets[k as usize + 1] += 1;
        }
        for k in 0..table.len() {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets.clone();
        let mut by_key = vec![0u32; rows.len()];
        for (&k, &r) in key_of_row.iter().zip(&rows) {
            by_key[next[k as usize] as usize] = r;
            next[k as usize] += 1;
        }
        Partition {
            table,
            offsets,
            rows: by_key,
        }
    }

    /// Heap bytes the frozen partition holds.
    fn bytes(&self) -> u64 {
        self.table.bytes() + ((self.offsets.len() + self.rows.len()) * 4) as u64
    }
}

// ---------------------------------------------------------------------------
// Late materialization.
// ---------------------------------------------------------------------------

/// Gather one output column from the surviving pairs: left columns index
/// by probe row, right columns by build row with [`NO_MATCH`] → NULL.
fn gather_column(src: &ColumnValues, pairs: &[(u32, u32)], right_side: bool) -> ColumnValues {
    fn gather<T: Copy>(v: &[T], pairs: &[(u32, u32)], right_side: bool, null: T) -> Vec<T> {
        pairs
            .iter()
            .map(|&(li, ri)| match if right_side { ri } else { li } {
                NO_MATCH => null,
                idx => v[idx as usize],
            })
            .collect()
    }
    match src {
        ColumnValues::Int(v) => ColumnValues::Int(gather(v, pairs, right_side, None)),
        ColumnValues::Float(v) => ColumnValues::Float(gather(v, pairs, right_side, None)),
        ColumnValues::Str(v) => ColumnValues::Str(StrColumn::from_parts(
            gather(v.codes(), pairs, right_side, NULL_CODE),
            v.pool().clone(),
        )),
    }
}

/// Materialize the joined batch from surviving (probe, build) pairs,
/// column at a time across the pool — the late-materialization step.
fn materialize_pairs(
    left: &Batch,
    right: &Batch,
    out_schema: Schema,
    pairs: &[(u32, u32)],
    parallelism: usize,
    stmt: &StatementContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let lw = left.schema().len();
    let ncols = out_schema.len();
    if ncols == 0 {
        return Ok(Batch::rows_only(pairs.len()));
    }
    let run = pool::run_morsels(ncols, parallelism, stmt, |c| {
        Ok(if c < lw {
            gather_column(left.column(c), pairs, false)
        } else {
            gather_column(right.column(c - lw), pairs, true)
        })
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    Batch::new(out_schema, run.results)
}

/// Expose the partition fan-out chosen for a build side of `rows` rows
/// (used by EXPLAIN and the join benchmarks).
pub fn partition_count(rows: usize) -> usize {
    (rows / PARTITION_ROWS + 1).next_power_of_two()
}

// ---------------------------------------------------------------------------
// The frozen build side, probed one morsel at a time.
// ---------------------------------------------------------------------------

/// A hash-join build side frozen into partitioned key tables: constructed
/// once (the pipeline breaker), then probed concurrently by morsels via
/// [`JoinBuild::probe_morsel`]. Output pairs are emitted in probe-row
/// order within each morsel, so folding morsels in index order reproduces
/// a deterministic, parallelism-independent row order.
pub(crate) struct JoinBuild<'b> {
    /// Owned when a pipeline ran the build side, borrowed under
    /// [`hash_join`].
    build: Cow<'b, Batch>,
    on: Vec<(usize, usize)>,
    join_type: JoinType,
    out_schema: Schema,
    mask: u64,
    partitions: Vec<Partition>,
    /// Budget charged for the frozen tables and an owned build batch;
    /// released when the build drops at pipeline end.
    _lease: BudgetLease,
}

impl<'b> JoinBuild<'b> {
    /// Freeze `build` (the right/inner side) into partitioned key tables.
    /// `probe_schema` is the streamed left side's schema.
    pub(crate) fn new(
        build: Cow<'b, Batch>,
        probe_schema: &Schema,
        on: Vec<(usize, usize)>,
        join_type: JoinType,
        parallelism: usize,
        stmt: &StatementContext,
        stats: &mut ExecStats,
    ) -> Result<JoinBuild<'b>> {
        if on.is_empty() {
            return Err(DashError::internal("hash join requires at least one key pair"));
        }
        if build.len() >= NO_MATCH as usize {
            return Err(DashError::internal("hash join build side must fit u32 row indices"));
        }
        let out_schema = match join_type {
            JoinType::Inner | JoinType::Left => probe_schema.join(build.schema()),
            JoinType::Semi | JoinType::Anti => probe_schema.clone(),
        };
        let parts = partition_count(build.len());
        let mask = parts as u64 - 1;

        let mut lease = BudgetLease::new(stmt);
        if let Cow::Owned(b) = &build {
            // An owned build batch is this join's to account for; a
            // borrowed one is its caller's.
            charge(&mut lease, b.approx_bytes(), stats)?;
        }
        // The build side owns the code domain: a string key's words are
        // its build column's codes, which every probe morsel's are
        // translated into.
        let key_cols = || -> Vec<KeyCol<'_>> {
            on.iter()
                .map(|&(l, r)| {
                    let (own, other) = (build.schema().field(r).data_type, probe_schema.field(l).data_type);
                    KeyCol::for_pair(build.column(r), own, other, None, build.len())
                })
                .collect()
        };
        let (coded, (m, w)) = partition_encoded(build.len(), &key_cols, parts, mask, parallelism, stmt)?;
        stats.note_parallel_phase(m, w);
        // The partitioning scratch lives until the tables are frozen.
        let mut scratch = BudgetLease::new(stmt);
        let scratch_bytes = coded.iter().map(|(rows, words)| (rows.len() * 4 + words.len() * 8) as u64).sum();
        charge(&mut scratch, scratch_bytes, stats)?;
        let partitions: Vec<Partition> =
            coded.into_iter().map(|(rows, words)| Partition::freeze(rows, words, on.len())).collect();
        charge(&mut lease, partitions.iter().map(Partition::bytes).sum(), stats)?;
        stats.encoded_key_rows += build.len() as u64;
        stats.rows_partitioned += partitions.iter().map(|p| p.rows.len() as u64).sum::<u64>();
        Ok(JoinBuild {
            build,
            on,
            join_type,
            out_schema,
            mask,
            partitions,
            _lease: lease,
        })
    }

    /// The joined output schema (`probe ⧺ build`, or probe-only for
    /// Semi/Anti).
    pub(crate) fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Bytes held by the frozen build (for inflight accounting).
    pub(crate) fn held_bytes(&self) -> u64 {
        self._lease.held()
    }

    /// Probe one morsel — rows `rows` of `probe` — against the frozen
    /// tables and materialize its joined rows: morsel-local late
    /// materialization, serial within the morsel (the pipeline's
    /// parallelism is across morsels, not inside them).
    pub(crate) fn probe_morsel(
        &self,
        probe: &Batch,
        rows: Range<usize>,
        stmt: &StatementContext,
        stats: &mut ExecStats,
    ) -> Result<Batch> {
        let pairs = self.probe_pairs(probe, rows, stmt, stats)?;
        let schema = self.out_schema.clone();
        materialize_pairs(probe, &self.build, schema, &pairs, 1, stmt, stats)
    }

    /// The `(probe row, build row)` pairs rows `rows` of `probe` join to.
    /// Pairs are emitted in probe-row order (NULL-keyed rows pad inline for
    /// Left/Anti), so the output is a deterministic function of the morsel
    /// alone — workers can probe concurrently and the fold stays
    /// byte-identical to a serial pass.
    fn probe_pairs(
        &self,
        probe: &Batch,
        rows: Range<usize>,
        stmt: &StatementContext,
        stats: &mut ExecStats,
    ) -> Result<Vec<(u32, u32)>> {
        stmt.check()?;
        if probe.len() >= NO_MATCH as usize {
            return Err(DashError::internal("probe morsel must fit u32 row indices"));
        }
        stats.encoded_key_rows += rows.len() as u64;
        let mut cols = Vec::with_capacity(self.on.len());
        for &(l, r) in &self.on {
            let (own, other) = (probe.schema().field(l).data_type, self.build.schema().field(r).data_type);
            // A string key's domain is the build column's pool.
            let domain = match self.build.column(r) {
                ColumnValues::Str(v) => Some(&**v.pool()),
                _ => None,
            };
            let col = KeyCol::for_pair(probe.column(l), own, other, domain, rows.len());
            if col.crosses_dictionaries() {
                // The morsel's pool is over another dictionary; its codes
                // translate into the build column's pool, once per code.
                stats.keys_reencoded_rows += rows.len() as u64;
            }
            cols.push(col);
        }
        let mut words = vec![0u64; cols.len()];
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        'row: for li in rows {
            for (c, col) in cols.iter_mut().enumerate() {
                match col.word(li) {
                    Some(w) => words[c] = w,
                    None => {
                        probe_emit(self.join_type, li as u32, None, &mut pairs);
                        continue 'row;
                    }
                }
            }
            let part = &self.partitions[(route_hash(&words) & self.mask) as usize];
            let key = match words[..] {
                [word] => part.table.find_word(word),
                _ => part.table.find(&words),
            };
            let matches = key.map(|k| {
                &part.rows[part.offsets[k as usize] as usize..part.offsets[k as usize + 1] as usize]
            });
            probe_emit(self.join_type, li as u32, matches, &mut pairs);
        }
        Ok(pairs)
    }
}

/// Output rows a cross join produces between statement-token polls.
const CROSS_CHUNK_ROWS: usize = 4096;

/// Cartesian product (CROSS JOIN, and the fallback for comma-lists with no
/// connecting predicate) — a whole-batch pipeline breaker. The output is
/// charged against the statement budget before any of it is allocated, and
/// the statement token is polled once per [`CROSS_CHUNK_ROWS`] output rows.
pub fn cross_join(
    left: &Batch,
    right: &Batch,
    stmt: &StatementContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let too_big = || DashError::ResourceExhausted("cross join output too large".into());
    if left.len() >= NO_MATCH as usize || right.len() >= NO_MATCH as usize {
        return Err(too_big());
    }
    let rows = left.len().checked_mul(right.len()).ok_or_else(too_big)?;
    // Every left row repeats once per right row and vice versa.
    let bytes = (left.approx_bytes() as u128) * right.len() as u128
        + (right.approx_bytes() as u128) * left.len() as u128;
    let mut lease = BudgetLease::new(stmt);
    charge(&mut lease, u64::try_from(bytes).map_err(|_| too_big())?, stats)?;
    let schema = left.schema().join(right.schema());
    let mut chunks = Vec::new();
    for start in (0..rows).step_by(CROSS_CHUNK_ROWS) {
        stmt.check()?;
        // Output row k pairs left row k / |right| with right row k % |right|.
        let pairs: Vec<(u32, u32)> = (start..rows.min(start + CROSS_CHUNK_ROWS))
            .map(|k| ((k / right.len()) as u32, (k % right.len()) as u32))
            .collect();
        chunks.push(materialize_pairs(left, right, schema.clone(), &pairs, 1, stmt, stats)?);
    }
    Batch::concat_columnar(schema, chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Datum, Field, Row};

    fn stmt() -> StatementContext {
        StatementContext::unbounded()
    }

    /// The join by definition: every probe row against every build row, in
    /// probe-row-major, build-row-ascending order. NaN joins only NaN
    /// (`Datum` equality alone would let it equal every number).
    fn nested_loop(l: &Batch, r: &Batch, on: &[(usize, usize)], jt: JoinType) -> Vec<Row> {
        let nan = |d: &Datum| matches!(d, Datum::Float(f) if f.is_nan());
        let mut out = Vec::new();
        for li in 0..l.len() {
            let eq = |ri: usize, &(lc, rc): &(usize, usize)| {
                let (a, b) = (l.value(li, lc), r.value(ri, rc));
                !a.is_null() && a == b && nan(&a) == nan(&b)
            };
            let hits: Vec<usize> = (0..r.len()).filter(|&ri| on.iter().all(|p| eq(ri, p))).collect();
            let joined = |right: Vec<Datum>| Row::new([l.row(li).0, right].concat());
            match jt {
                JoinType::Inner | JoinType::Left if !hits.is_empty() => {
                    out.extend(hits.iter().map(|&ri| joined(r.row(ri).0)));
                }
                JoinType::Left => out.push(joined(vec![Datum::Null; r.schema().len()])),
                JoinType::Semi if !hits.is_empty() => out.push(l.row(li)),
                JoinType::Anti if hits.is_empty() => out.push(l.row(li)),
                _ => {}
            }
        }
        out
    }

    /// Run the join, check rows *and* order against [`nested_loop`], and
    /// return the result.
    fn join_checked(l: &Batch, r: &Batch, on: &[(usize, usize)], jt: JoinType) -> Batch {
        let mut stats = ExecStats::default();
        let out = hash_join(l, r, on, jt, KeyMode::Encoded, 1, &stmt(), &mut stats).unwrap();
        assert_eq!(out.to_rows(), nested_loop(l, r, on, jt), "{jt:?} on {on:?}");
        assert_eq!(stats.encoded_key_rows, (l.len() + r.len()) as u64, "every keyed row counts");
        out
    }

    fn orders() -> Batch {
        let schema = Schema::new(vec![
            Field::not_null("o_id", DataType::Int64),
            Field::new("cust", DataType::Int64),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[
                row![1i64, 10i64],
                row![2i64, 20i64],
                row![3i64, 10i64],
                row![4i64, Datum::Null],
                row![5i64, 99i64],
            ],
        )
        .unwrap()
    }

    fn customers() -> Batch {
        let schema = Schema::new(vec![
            Field::not_null("c_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[row![10i64, "alice"], row![20i64, "bob"], row![30i64, "carol"]],
        )
        .unwrap()
    }

    #[test]
    fn inner_join_basic() {
        let out = join_checked(&orders(), &customers(), &[(1, 0)], JoinType::Inner);
        assert_eq!(out.len(), 3); // o1, o2, o3 match; o4 null; o5 dangling
        assert_eq!(out.schema().len(), 4);
        let names: Vec<String> = out
            .to_rows()
            .iter()
            .map(|r| r.get(3).render())
            .collect();
        assert!(names.contains(&"alice".to_string()));
        assert!(names.contains(&"bob".to_string()));
    }

    #[test]
    fn left_join_pads_nulls() {
        let out = join_checked(&orders(), &customers(), &[(1, 0)], JoinType::Left);
        assert_eq!(out.len(), 5);
        let unmatched: Vec<Row> = out
            .to_rows()
            .into_iter()
            .filter(|r| r.get(2).is_null())
            .collect();
        assert_eq!(unmatched.len(), 2); // null cust + cust 99
    }

    #[test]
    fn semi_and_anti() {
        let semi = join_checked(&orders(), &customers(), &[(1, 0)], JoinType::Semi);
        assert_eq!(semi.len(), 3);
        assert_eq!(semi.schema().len(), 2, "semi keeps left columns only");
        let anti = join_checked(&orders(), &customers(), &[(1, 0)], JoinType::Anti);
        assert_eq!(anti.len(), 2);
        let ids: Vec<i64> = anti.to_rows().iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert!(ids.contains(&4) && ids.contains(&5));
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let schema_l = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let schema_r = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let l = Batch::from_rows(schema_l, &[row![1i64], row![1i64]]).unwrap();
        let r = Batch::from_rows(
            schema_r,
            &[row![1i64, 100i64], row![1i64, 200i64], row![2i64, 300i64]],
        )
        .unwrap();
        let out = join_checked(&l, &r, &[(0, 0)], JoinType::Inner);
        assert_eq!(out.len(), 4, "2 probe x 2 build matches");
    }

    #[test]
    fn multi_column_keys() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ])
        .unwrap();
        let l = Batch::from_rows(
            schema.clone(),
            &[row![1i64, "x"], row![1i64, "y"], row![2i64, "x"]],
        )
        .unwrap();
        let r = Batch::from_rows(schema, &[row![1i64, "x"], row![2i64, "y"]]).unwrap();
        let out = join_checked(&l, &r, &[(0, 0), (1, 1)], JoinType::Inner);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn large_build_spans_partitions() {
        // A build side big enough for several partitions; verify by count.
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let n = PARTITION_ROWS * 3;
        let rows: Vec<Row> = (0..n).map(|i| row![(i % 1000) as i64]).collect();
        let r = Batch::from_rows(schema.clone(), &rows).unwrap();
        let l_rows: Vec<Row> = (0..1000).map(|i| row![i as i64]).collect();
        let l = Batch::from_rows(schema, &l_rows).unwrap();
        assert!(partition_count(n) > 1);
        let out = join_checked(&l, &r, &[(0, 0)], JoinType::Inner);
        assert_eq!(out.len(), n);
        let mut stats = ExecStats::default();
        hash_join(&l, &r, &[(0, 0)], JoinType::Inner, KeyMode::Encoded, 1, &stmt(), &mut stats)
            .unwrap();
        assert_eq!(stats.rows_partitioned, n as u64);
        assert_eq!(stats.encoded_key_rows, (n + 1000) as u64);
    }

    #[test]
    fn cross_type_numeric_keys_join() {
        // Int 2 joins Float 2.0: the int side lifts to the pair's `f64`
        // words, whatever label the planner passes.
        let sl = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let sr = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
        let l = Batch::from_rows(sl.clone(), &[row![2i64], row![3i64]]).unwrap();
        let r = Batch::from_rows(sr.clone(), &[row![2.0f64], row![2.5f64]]).unwrap();
        assert_eq!(KeyMode::for_join(&sl, &sr, &[(0, 0)]), KeyMode::Datum);
        for mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut stats = ExecStats::default();
            let out = hash_join(&l, &r, &[(0, 0)], JoinType::Inner, mode, 1, &stmt(), &mut stats)
                .unwrap();
            assert_eq!(out.to_rows(), vec![row![2i64, 2.0f64]]);
            assert!(stats.encoded_key_rows > 0, "cross-domain keys are words too");
        }
    }

    /// Every cross-domain pairing against the nested loop: decimals of two
    /// scales, int beside decimal and float, date beside timestamp, a mixed
    /// pair list (the `INT = INT` pair stays exact beyond 2^53), and pairs
    /// that are not comparable.
    #[test]
    fn cross_domain_pairs_lift_into_the_common_domain() {
        let day = dash_common::date::date_to_timestamp_micros(3);
        let sl = Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("d2", DataType::Decimal(10, 2)),
            Field::new("dt", DataType::Date),
            Field::new("s", DataType::Utf8),
            Field::new("b", DataType::Bool),
        ])
        .unwrap();
        let sr = Schema::new(vec![
            Field::new("f", DataType::Float64),
            Field::new("d4", DataType::Decimal(12, 4)),
            Field::new("ts", DataType::Timestamp),
            Field::new("i", DataType::Int64),
        ])
        .unwrap();
        let big = (1i64 << 53) + 1;
        let l = Batch::from_rows(
            sl,
            &[
                row![1i64, Datum::Decimal(110, 2), Datum::Date(3), "1", true],
                row![big, Datum::Decimal(100, 2), Datum::Date(4), "x", false],
                row![0i64, Datum::Decimal(0, 2), Datum::Null, Datum::Null, Datum::Null],
                row![i64::MAX, Datum::Decimal(-250, 2), Datum::Date(-1), "9", true],
            ],
        )
        .unwrap();
        let r = Batch::from_rows(
            sr,
            &[
                row![1.0f64, Datum::Decimal(11000, 4), Datum::Timestamp(day), 1i64],
                row![(1u64 << 53) as f64, Datum::Decimal(10001, 4), Datum::Timestamp(day + 1), big - 1],
                row![-0.0f64, Datum::Decimal(0, 4), Datum::Null, 0i64],
                row![f64::NAN, Datum::Decimal(-25000, 4), Datum::Timestamp(-86_400_000_000), i64::MAX],
                row![1.0f64, Datum::Decimal(10000, 4), Datum::Timestamp(day), big],
            ],
        )
        .unwrap();
        let pair_lists: [&[(usize, usize)]; 9] = [
            &[(0, 0)],         // int = float
            &[(1, 1)],         // decimal(2) = decimal(4)
            &[(0, 1)],         // int = decimal(4)
            &[(1, 0)],         // decimal(2) = float
            &[(2, 2)],         // date = timestamp
            &[(0, 3), (1, 1)], // exact int pair beside a lifted pair
            &[(0, 0), (0, 3)], // one column, lifted and exact
            &[(3, 3)],         // varchar = int: never
            &[(4, 3), (0, 3)], // bool = int: never, whatever the other pair says
        ];
        for on in pair_lists {
            for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
                join_checked(&l, &r, on, jt);
            }
        }
        // 2^53 + 1 rounds onto 2^53 as a float, so the lifted pair joins it
        // to the float 2^53; the exact pair beside it does not.
        assert_eq!(join_checked(&l, &r, &[(0, 0)], JoinType::Inner).len(), 4);
        assert_eq!(join_checked(&l, &r, &[(0, 0), (0, 3)], JoinType::Inner).len(), 2);
        assert_eq!(join_checked(&l, &r, &[(3, 3)], JoinType::Left).len(), l.len());
    }

    #[test]
    fn float_keys_canonicalize_zero_and_nan() {
        // -0.0 joins +0.0, and NaN joins NaN and nothing else.
        let s = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
        let l = Batch::from_rows(
            s.clone(),
            &[row![-0.0f64], row![1.5f64], row![f64::NAN]],
        )
        .unwrap();
        let r = Batch::from_rows(s, &[row![0.0f64], row![f64::NAN]]).unwrap();
        let out = join_checked(&l, &r, &[(0, 0)], JoinType::Inner);
        assert_eq!(out.len(), 2, "-0.0 matches +0.0; NaN matches NaN");
    }

    /// String keys of pools without a dictionary: the build side keys on
    /// its codes, the probe side's translate into its pool, and a probe
    /// value that pool lacks is unmatched under every join type.
    #[test]
    fn str_keys_without_dictionary_join_on_codes() {
        let out = join_checked(&customers().project(&[1, 0]), &customers(), &[(0, 1)], JoinType::Inner);
        assert_eq!(out.len(), 3);
        let schema = Schema::new(vec![Field::new("name", DataType::Utf8)]).unwrap();
        let probe = Batch::from_rows(
            schema,
            &[row!["bob"], row!["dave"], row![Datum::Null], row!["alice"], row!["dave"], row![""]],
        )
        .unwrap();
        for (jt, rows) in [(JoinType::Inner, 2), (JoinType::Left, 6), (JoinType::Semi, 2), (JoinType::Anti, 4)] {
            assert_eq!(join_checked(&probe, &customers(), &[(0, 1)], jt).len(), rows, "{jt:?}");
            for split in [1, 4] {
                let piped = probe_in_morsels(&probe, &customers(), &[(0, 1)], jt, split);
                assert_eq!(piped.to_rows(), nested_loop(&probe, &customers(), &[(0, 1)], jt), "{jt:?}/split={split}");
            }
        }
    }

    /// Probe `l` against a frozen build of `r` in `split`-row morsels and
    /// reassemble — the pipelined probe path in miniature.
    fn probe_in_morsels(
        l: &Batch,
        r: &Batch,
        on: &[(usize, usize)],
        jt: JoinType,
        split: usize,
    ) -> Batch {
        let mut stats = ExecStats::default();
        let build = JoinBuild::new(
            Cow::Borrowed(r),
            l.schema(),
            on.to_vec(),
            jt,
            1,
            &stmt(),
            &mut stats,
        )
        .unwrap();
        let mut outs = Vec::new();
        let mut start = 0;
        while start < l.len() {
            let end = (start + split).min(l.len());
            outs.push(build.probe_morsel(l, start..end, &stmt(), &mut stats).unwrap());
            start = end;
        }
        Batch::concat_columnar(build.out_schema().clone(), outs).unwrap()
    }

    #[test]
    fn join_build_morsel_probe_matches_hash_join() {
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
            let whole = join_checked(&orders(), &customers(), &[(1, 0)], jt);
            for split in [1, 2, 5] {
                let piped = probe_in_morsels(&orders(), &customers(), &[(1, 0)], jt, split);
                assert_eq!(whole.to_rows(), piped.to_rows(), "{jt:?}/split={split}");
                assert_eq!(whole.schema(), piped.schema());
            }
        }
    }

    #[test]
    fn join_build_probe_rows_stay_in_probe_order() {
        // Probe output is probe-row-major, whatever partition each row
        // routes to: deterministic at any parallelism.
        let piped = probe_in_morsels(
            &orders(),
            &customers(),
            &[(1, 0)],
            JoinType::Left,
            2,
        );
        let ids: Vec<i64> = piped
            .to_rows()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5], "probe order preserved");
    }

    #[test]
    fn join_build_releases_budget_on_drop() {
        let ctx = StatementContext::with_limits(None, Some(1 << 30));
        let mut stats = ExecStats::default();
        let build = JoinBuild::new(
            Cow::Owned(customers()),
            orders().schema(),
            vec![(1, 0)],
            JoinType::Inner,
            1,
            &ctx,
            &mut stats,
        )
        .unwrap();
        assert!(build.held_bytes() > 0);
        assert_eq!(stats.rows_partitioned, 3);
        assert!(ctx.budget_used() > 0);
        drop(build);
        assert_eq!(ctx.budget_used(), 0, "frozen-table lease released");
    }

    #[test]
    fn join_build_multi_key_and_str_keys() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
        ])
        .unwrap();
        let l = Batch::from_rows(
            schema.clone(),
            &[row![1i64, "x"], row![1i64, "y"], row![2i64, "x"], row![Datum::Null, "x"]],
        )
        .unwrap();
        let r = Batch::from_rows(schema, &[row![1i64, "x"], row![2i64, "y"]]).unwrap();
        let out = probe_in_morsels(&l, &r, &[(0, 0), (1, 1)], JoinType::Inner, 2);
        assert_eq!(out.to_rows(), join_checked(&l, &r, &[(0, 0), (1, 1)], JoinType::Inner).to_rows());
        assert_eq!(out.len(), 1);
    }
}
