//! Cache-efficient partitioned hash join (§II.B.7), operating on
//! compressed key words where encodings allow.
//!
//! "All of the query algorithms aim to keep data in the processor's L3 or
//! L2 caches ... by partitioning data into L3 or L2 chunks for performing
//! joins and grouping, as pioneered in Hybrid Hash Join and MonetDB."
//!
//! The build (right) side is hash-partitioned on the join key into chunks
//! sized so each partition's hash table fits in cache, then frozen as a
//! [`JoinBuild`] — a pipeline breaker. The probe (left) side streams
//! through it one morsel at a time. NULL keys never match (SQL semantics).
//!
//! Two key paths share that shape:
//!
//! * **Encoded** ([`KeyMode::Encoded`]) — every key column reduces to a
//!   fixed-width `u64` word (ordered-int bits, canonical ordered-float
//!   bits, or packed dictionary codes; see [`crate::key`]); partitioning,
//!   building, and probing touch only those words. Strings outside the
//!   build side's dictionary resolve through a deterministic per-partition
//!   interner built from build-side rows.
//! * **Datum** — the fallback for cross-domain keys (`Int 2` joins
//!   `Float 2.0`). Build rows store their key `Datum`s (they live in the
//!   hash table); probe rows reuse one scratch buffer per morsel and are
//!   never collected.
//!
//! Both paths emit `(probe row, build row)` index pairs per morsel;
//! payload columns materialize **late**, gathered column-at-a-time only
//! for rows that survived the probe.

use crate::batch::Batch;
use crate::key::{route_hash, KeyCol, KeyMode, StrInterner, STR_MISS};
use crate::pool;
use crate::stats::ExecStats;
use dash_common::fxhash::FxHashMap;
use dash_common::statement::approx_datum_bytes;
use dash_common::{BudgetLease, DashError, Datum, Result, StatementContext};
use dash_encoding::column::ColumnValues;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
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

fn key_hash(values: &[Datum]) -> u64 {
    let mut h = BuildHasherDefault::<dash_common::fxhash::FxHasher>::default().build_hasher();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
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
/// `key_mode` is the planner's key-path decision; `Encoded` is re-verified
/// against the two schemas and falls back to the `Datum` path when their
/// key domains disagree.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left: &Batch,
    right: &Batch,
    on: &[(usize, usize)],
    join_type: JoinType,
    key_mode: KeyMode,
    parallelism: usize,
    stmt: &StatementContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let build = JoinBuild::new(
        Cow::Borrowed(right),
        left.schema(),
        on.to_vec(),
        join_type,
        key_mode,
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

/// One build partition under the encoded path: row indices plus their key
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
        // A view memoises string words, so each morsel takes its own.
        let mut cols = key_cols();
        let mut words = vec![0u64; cols.len()];
        'row: for i in lo..hi {
            for (c, col) in cols.iter_mut().enumerate() {
                match col.word(i) {
                    Some(w) => words[c] = w,
                    None => continue 'row,
                }
            }
            let p = (route_hash(&cols, &words, i) & mask) as usize;
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

/// Resolve one build row's [`STR_MISS`] words by interning the raw strings
/// (in build row order, so the local code assignment is deterministic).
#[inline]
fn intern_words(words: &mut [u64], row: u32, cols: &[KeyCol<'_>], interners: &mut [StrInterner]) {
    for (c, w) in words.iter_mut().enumerate() {
        if *w == STR_MISS && cols[c].is_str() {
            *w = interners[c].intern(cols[c].str_at(row as usize));
        }
    }
}

/// One build-side partition's rows: ascending row index plus the
/// (non-null) join key computed for that row.
type KeyedRows = Vec<(u32, Vec<Datum>)>;

/// Fill `scratch` with the key for `row`, returning false on a NULL
/// component (NULL keys never join).
#[inline]
fn fill_key(batch: &Batch, row: usize, cols: &[usize], scratch: &mut Vec<Datum>) -> bool {
    scratch.clear();
    for &c in cols {
        let v = batch.value(row, c);
        if v.is_null() {
            return false;
        }
        scratch.push(v);
    }
    true
}

/// Partition the build side, storing each row's key `Datum`s (they move
/// into the per-partition hash tables).
#[allow(clippy::type_complexity)]
fn partition_datum_build(
    batch: &Batch,
    cols: &[usize],
    parts: usize,
    mask: u64,
    parallelism: usize,
    stmt: &StatementContext,
) -> Result<(Vec<KeyedRows>, (u64, u64))> {
    let ranges = pool::row_morsels(batch.len(), parallelism, 4096);
    let run = pool::run_morsels(ranges.len(), parallelism, stmt, |mi| {
        let (lo, hi) = ranges[mi];
        let mut local: Vec<KeyedRows> = (0..parts).map(|_| Vec::new()).collect();
        let mut scratch: Vec<Datum> = Vec::with_capacity(cols.len());
        for i in lo..hi {
            if fill_key(batch, i, cols, &mut scratch) {
                let p = (key_hash(&scratch) & mask) as usize;
                local[p].push((i as u32, scratch.clone()));
            }
        }
        Ok(local)
    })?;
    let mut partitions: Vec<KeyedRows> = (0..parts).map(|_| Vec::new()).collect();
    for local in run.results {
        for (p, v) in local.into_iter().enumerate() {
            partitions[p].extend(v);
        }
    }
    Ok((partitions, (run.morsels_dispatched, run.workers_used)))
}

// ---------------------------------------------------------------------------
// Late materialization.
// ---------------------------------------------------------------------------

/// Gather one output column from the surviving pairs: left columns index
/// by probe row, right columns by build row with [`NO_MATCH`] → NULL.
fn gather_column(src: &ColumnValues, pairs: &[(u32, u32)], right_side: bool) -> ColumnValues {
    macro_rules! gather {
        ($v:expr, $clone:expr) => {
            pairs
                .iter()
                .map(|&(li, ri)| {
                    let idx = if right_side { ri } else { li };
                    if idx == NO_MATCH {
                        None
                    } else {
                        $clone(&$v[idx as usize])
                    }
                })
                .collect()
        };
    }
    match src {
        ColumnValues::Int(v) => ColumnValues::Int(gather!(v, |x: &Option<i64>| *x)),
        ColumnValues::Float(v) => ColumnValues::Float(gather!(v, |x: &Option<f64>| *x)),
        ColumnValues::Str(v) => {
            ColumnValues::Str(gather!(v, |x: &Option<std::sync::Arc<str>>| x.clone()))
        }
    }
}

/// Materialize the joined batch from surviving (probe, build) pairs,
/// column at a time across the pool — the late-materialization step both
/// key paths share, so their outputs are structurally identical.
fn materialize_pairs(
    left: &Batch,
    right: &Batch,
    out_schema: dash_common::Schema,
    pairs: &[(u32, u32)],
    parallelism: usize,
    stmt: &StatementContext,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let lw = left.schema().len();
    let ncols = out_schema.len();
    let run = pool::run_morsels(ncols, parallelism, stmt, |c| {
        Ok(if c < lw {
            gather_column(left.column(c), pairs, false)
        } else {
            gather_column(right.column(c - lw), pairs, true)
        })
    })?;
    stats.note_parallel_phase(run.morsels_dispatched, run.workers_used);
    let mut batch = Batch::new(out_schema, run.results)?;
    // Dictionaries survive the join: a downstream aggregate can still key
    // on packed codes.
    for c in 0..ncols {
        let dict = if c < lw {
            left.str_dict(c)
        } else {
            right.str_dict(c - lw)
        };
        if let Some(d) = dict {
            batch.set_str_dict(c, d.clone());
        }
    }
    Ok(batch)
}

/// Expose the partition fan-out chosen for a build side of `rows` rows
/// (used by EXPLAIN and the join benchmarks).
pub fn partition_count(rows: usize) -> usize {
    (rows / PARTITION_ROWS + 1).next_power_of_two()
}

// ---------------------------------------------------------------------------
// The frozen build side, probed one morsel at a time.
// ---------------------------------------------------------------------------

/// Per-partition encoded tables, specialised for the common single-key
/// join so the hot probe loop hashes one `u64` instead of a slice.
enum EncodedTables {
    Single(Vec<FxHashMap<u64, Vec<u32>>>),
    Multi(Vec<FxHashMap<Vec<u64>, Vec<u32>>>),
}

/// Frozen encoded-path build state: word-keyed tables plus the interners
/// and dictionaries that define the code domain every probe morsel must
/// encode into.
struct EncodedBuild {
    tables: EncodedTables,
    /// Per partition, per key column: build-side out-of-dictionary
    /// interners (probe strings only *look up*; a miss is provably
    /// unmatched).
    interners: Vec<Vec<StrInterner>>,
    /// The fixed code domain per string key column — the build side's
    /// dictionary, chosen once. Probe morsels re-encode by value against
    /// it, so per-morsel dictionary votes can never flip the domain.
    dicts: Vec<Option<std::sync::Arc<dash_encoding::dict::FreqDict<std::sync::Arc<str>>>>>,
}

/// The frozen per-partition hash tables, on exactly one key path.
enum BuildTables {
    Encoded(EncodedBuild),
    Datum(Vec<FxHashMap<Vec<Datum>, Vec<u32>>>),
}

/// A hash-join build side frozen into partitioned hash tables: constructed
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
    out_schema: dash_common::Schema,
    mask: u64,
    tables: BuildTables,
    /// Budget charged for the frozen tables and an owned build batch;
    /// released when the build drops at pipeline end.
    _lease: BudgetLease,
}

impl<'b> JoinBuild<'b> {
    /// Freeze `build` (the right/inner side) into partitioned hash tables.
    /// `probe_schema` is the streamed left side's schema; `key_mode` is the
    /// planner's decision, re-verified here against both schemas.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        build: Cow<'b, Batch>,
        probe_schema: &dash_common::Schema,
        on: Vec<(usize, usize)>,
        join_type: JoinType,
        key_mode: KeyMode,
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
        let nk = on.len();
        let build_cols: Vec<usize> = on.iter().map(|(_, r)| *r).collect();

        let use_encoded = key_mode == KeyMode::Encoded
            && KeyMode::for_join(probe_schema, build.schema(), &on) == KeyMode::Encoded;

        let mut lease = BudgetLease::new(stmt);
        if let Cow::Owned(b) = &build {
            // An owned build batch is this join's to account for; a
            // borrowed one is its caller's.
            lease.charge(b.approx_bytes()).inspect_err(|_| {
                stats.budget_rejections += 1;
            })?;
        }
        let build_rows: u64;
        let tables = if use_encoded {
            // The build side owns the code domain: its dictionary (when
            // present) becomes the domain every probe morsel encodes into.
            let dicts: Vec<_> = build_cols
                .iter()
                .map(|&c| build.str_dict(c).cloned())
                .collect();
            let key_cols = || -> Vec<KeyCol<'_>> {
                build_cols
                    .iter()
                    .zip(&dicts)
                    .map(|(&c, d)| KeyCol::new(build.column(c), d.clone()))
                    .collect()
            };
            let (partitions, (m, w)) =
                partition_encoded(build.len(), &key_cols, parts, mask, parallelism, stmt)?;
            let cols = key_cols();
            stats.note_parallel_phase(m, w);
            build_rows = partitions.iter().map(|p| p.0.len() as u64).sum();
            let bytes: u64 = partitions
                .iter()
                .map(|(rows, words)| (rows.len() * (4 + 32) + words.len() * 8) as u64)
                .sum();
            lease.charge(bytes).inspect_err(|_| {
                stats.budget_rejections += 1;
            })?;
            let mut interners: Vec<Vec<StrInterner>> = Vec::with_capacity(parts);
            let tables = if nk == 1 {
                let mut tabs = Vec::with_capacity(parts);
                for (brows, mut bwords) in partitions {
                    let mut ins = vec![StrInterner::default()];
                    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
                    for (i, &r) in brows.iter().enumerate() {
                        intern_words(&mut bwords[i..i + 1], r, &cols, &mut ins);
                        table.entry(bwords[i]).or_default().push(r);
                    }
                    interners.push(ins);
                    tabs.push(table);
                }
                EncodedTables::Single(tabs)
            } else {
                let mut tabs = Vec::with_capacity(parts);
                for (brows, mut bwords) in partitions {
                    let mut ins: Vec<StrInterner> =
                        (0..nk).map(|_| StrInterner::default()).collect();
                    let mut table: FxHashMap<Vec<u64>, Vec<u32>> = FxHashMap::default();
                    for (i, &r) in brows.iter().enumerate() {
                        let ws = &mut bwords[i * nk..(i + 1) * nk];
                        intern_words(ws, r, &cols, &mut ins);
                        table.entry(ws.to_vec()).or_default().push(r);
                    }
                    interners.push(ins);
                    tabs.push(table);
                }
                EncodedTables::Multi(tabs)
            };
            stats.encoded_key_rows += build.len() as u64;
            BuildTables::Encoded(EncodedBuild {
                tables,
                interners,
                dicts,
            })
        } else {
            let (partitions, (m, w)) =
                partition_datum_build(&build, &build_cols, parts, mask, parallelism, stmt)?;
            stats.note_parallel_phase(m, w);
            build_rows = partitions.iter().map(|p| p.len() as u64).sum();
            let bytes: u64 = partitions
                .iter()
                .flatten()
                .map(|(_, k)| {
                    std::mem::size_of::<(u32, Vec<Datum>)>() as u64
                        + k.iter().map(approx_datum_bytes).sum::<u64>()
                })
                .sum();
            lease.charge(bytes).inspect_err(|_| {
                stats.budget_rejections += 1;
            })?;
            let tables: Vec<FxHashMap<Vec<Datum>, Vec<u32>>> = partitions
                .into_iter()
                .map(|rows| {
                    let mut table: FxHashMap<Vec<Datum>, Vec<u32>> = FxHashMap::default();
                    for (ri, k) in rows {
                        match table.entry(k) {
                            Entry::Occupied(mut e) => e.get_mut().push(ri),
                            Entry::Vacant(e) => {
                                e.insert(vec![ri]);
                            }
                        }
                    }
                    table
                })
                .collect();
            stats.datum_key_rows += build.len() as u64;
            BuildTables::Datum(tables)
        };
        stats.rows_partitioned += build_rows;
        Ok(JoinBuild {
            build,
            on,
            join_type,
            out_schema,
            mask,
            tables,
            _lease: lease,
        })
    }

    /// The joined output schema (`probe ⧺ build`, or probe-only for
    /// Semi/Anti).
    pub(crate) fn out_schema(&self) -> &dash_common::Schema {
        &self.out_schema
    }

    /// Rough bytes held by the frozen build (for inflight accounting).
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
        let nk = self.on.len();
        let probe_cols: Vec<usize> = self.on.iter().map(|(l, _)| *l).collect();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        match &self.tables {
            BuildTables::Encoded(enc) => {
                stats.encoded_key_rows += rows.len() as u64;
                for (c, d) in probe_cols.iter().zip(&enc.dicts) {
                    if let (Some(pd), Some(bd)) = (probe.str_dict(*c), d) {
                        if !std::sync::Arc::ptr_eq(pd, bd) {
                            // The morsel carries its own dictionary; its keys
                            // re-encode by value into the build-side domain.
                            stats.keys_reencoded_rows += rows.len() as u64;
                        }
                    }
                }
                let mut cols: Vec<KeyCol<'_>> = probe_cols
                    .iter()
                    .zip(&enc.dicts)
                    .map(|(&c, d)| KeyCol::new(probe.column(c), d.clone()))
                    .collect();
                let mut words = vec![0u64; nk];
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
                    let p = (route_hash(&cols, &words, li) & self.mask) as usize;
                    let mut resolved = true;
                    for c in 0..nk {
                        if words[c] == STR_MISS && cols[c].is_str() {
                            match enc.interners[p][c].lookup(cols[c].str_at(li)) {
                                Some(code) => words[c] = code,
                                None => {
                                    resolved = false;
                                    break;
                                }
                            }
                        }
                    }
                    let matches = if resolved {
                        match &enc.tables {
                            EncodedTables::Single(tabs) => tabs[p].get(&words[0]),
                            EncodedTables::Multi(tabs) => tabs[p].get(&words[..]),
                        }
                        .map(|v| &v[..])
                    } else {
                        None
                    };
                    probe_emit(self.join_type, li as u32, matches, &mut pairs);
                }
            }
            BuildTables::Datum(tables) => {
                stats.datum_key_rows += rows.len() as u64;
                let mut scratch: Vec<Datum> = Vec::with_capacity(nk);
                for li in rows {
                    if fill_key(probe, li, &probe_cols, &mut scratch) {
                        let p = (key_hash(&scratch) & self.mask) as usize;
                        let matches = tables[p].get(scratch.as_slice()).map(|v| &v[..]);
                        probe_emit(self.join_type, li as u32, matches, &mut pairs);
                    } else {
                        probe_emit(self.join_type, li as u32, None, &mut pairs);
                    }
                }
            }
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
    lease
        .charge(u64::try_from(bytes).map_err(|_| too_big())?)
        .inspect_err(|_| stats.budget_rejections += 1)?;
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
    use dash_common::{row, Field, Row, Schema};

    fn stmt() -> StatementContext {
        StatementContext::unbounded()
    }

    /// Run the join under both key modes, assert they agree, and return
    /// the encoded-path result. Output is probe-row-major on both paths, so
    /// even the row order must match.
    fn join_both(l: &Batch, r: &Batch, on: &[(usize, usize)], jt: JoinType) -> Batch {
        let mut s1 = ExecStats::default();
        let mut s2 = ExecStats::default();
        let enc = hash_join(l, r, on, jt, KeyMode::Encoded, 1, &stmt(), &mut s1).unwrap();
        let dat = hash_join(l, r, on, jt, KeyMode::Datum, 1, &stmt(), &mut s2).unwrap();
        // Compare row-wise: Datum equality treats NaN == NaN (SQL semantics),
        // while raw f64 column equality does not.
        assert_eq!(enc.to_rows(), dat.to_rows(), "encoded and Datum paths must agree");
        assert_eq!(enc.schema(), dat.schema());
        assert_eq!(s2.encoded_key_rows, 0, "Datum mode must not take the encoded path");
        enc
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
        let out = join_both(&orders(), &customers(), &[(1, 0)], JoinType::Inner);
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
        let out = join_both(&orders(), &customers(), &[(1, 0)], JoinType::Left);
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
        let semi = join_both(&orders(), &customers(), &[(1, 0)], JoinType::Semi);
        assert_eq!(semi.len(), 3);
        assert_eq!(semi.schema().len(), 2, "semi keeps left columns only");
        let anti = join_both(&orders(), &customers(), &[(1, 0)], JoinType::Anti);
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
        let out = join_both(&l, &r, &[(0, 0)], JoinType::Inner);
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
        let out = join_both(&l, &r, &[(0, 0), (1, 1)], JoinType::Inner);
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
        let out = join_both(&l, &r, &[(0, 0)], JoinType::Inner);
        assert_eq!(out.len(), n);
        let mut stats = ExecStats::default();
        hash_join(&l, &r, &[(0, 0)], JoinType::Inner, KeyMode::Encoded, 1, &stmt(), &mut stats)
            .unwrap();
        assert_eq!(stats.rows_partitioned, n as u64);
        assert_eq!(stats.encoded_key_rows, (n + 1000) as u64);
    }

    #[test]
    fn cross_type_numeric_keys_join() {
        // Int 2 joins Float 2.0 (Datum equality is cross-numeric). The
        // planner marks this Datum; even if asked for Encoded, the runtime
        // column-kind check must fall back.
        let sl = Schema::new(vec![Field::new("k", DataType::Int64)]).unwrap();
        let sr = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
        let l = Batch::from_rows(sl.clone(), &[row![2i64]]).unwrap();
        let r = Batch::from_rows(sr.clone(), &[row![2.0f64]]).unwrap();
        assert_eq!(KeyMode::for_join(&sl, &sr, &[(0, 0)]), KeyMode::Datum);
        for mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut stats = ExecStats::default();
            let out = hash_join(&l, &r, &[(0, 0)], JoinType::Inner, mode, 1, &stmt(), &mut stats)
                .unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(stats.encoded_key_rows, 0, "cross-domain keys must fall back");
            assert_eq!(stats.datum_key_rows, 2);
        }
    }

    #[test]
    fn float_keys_encoded_path_matches() {
        // -0.0 joins +0.0 and NaN never equals anything under SQL... but
        // Datum::sql_cmp treats NaN as Equal to NaN, so both paths must too.
        let s = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
        let l = Batch::from_rows(
            s.clone(),
            &[row![-0.0f64], row![1.5f64], row![f64::NAN]],
        )
        .unwrap();
        let r = Batch::from_rows(s, &[row![0.0f64], row![f64::NAN]]).unwrap();
        let out = join_both(&l, &r, &[(0, 0)], JoinType::Inner);
        assert_eq!(out.len(), 2, "-0.0 matches +0.0; NaN matches NaN");
    }

    #[test]
    fn str_keys_without_dictionary_use_interner() {
        let out = join_both(
            &customers().project(&[1, 0]),
            &customers(),
            &[(0, 1)],
            JoinType::Inner,
        );
        assert_eq!(out.len(), 3);
    }

    /// Probe `l` against a frozen build of `r` in `split`-row morsels and
    /// reassemble — the pipelined probe path in miniature.
    fn probe_in_morsels(
        l: &Batch,
        r: &Batch,
        on: &[(usize, usize)],
        jt: JoinType,
        mode: KeyMode,
        split: usize,
    ) -> Batch {
        let mut stats = ExecStats::default();
        let build = JoinBuild::new(
            Cow::Borrowed(r),
            l.schema(),
            on.to_vec(),
            jt,
            mode,
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
            for mode in [KeyMode::Encoded, KeyMode::Datum] {
                let mut s = ExecStats::default();
                let whole = hash_join(
                    &orders(),
                    &customers(),
                    &[(1, 0)],
                    jt,
                    mode,
                    1,
                    &stmt(),
                    &mut s,
                )
                .unwrap();
                for split in [1, 2, 5] {
                    let piped =
                        probe_in_morsels(&orders(), &customers(), &[(1, 0)], jt, mode, split);
                    let mut a = whole.to_rows();
                    let mut b = piped.to_rows();
                    a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
                    b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
                    assert_eq!(a, b, "{jt:?}/{mode:?}/split={split}");
                    assert_eq!(whole.schema(), piped.schema());
                }
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
            KeyMode::Encoded,
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
            KeyMode::Encoded,
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
        for mode in [KeyMode::Encoded, KeyMode::Datum] {
            let out = probe_in_morsels(&l, &r, &[(0, 0), (1, 1)], JoinType::Inner, mode, 2);
            assert_eq!(out.len(), 1, "{mode:?}");
        }
    }
}
