//! The scan-centric access path.
//!
//! "Since analytics queries common in Big Data workloads are generally low
//! selectivity ... the runtime always scans the data" (§II.B.6). The scan
//! combines, per stride:
//!
//! 1. **data skipping** — synopsis pruning on every range predicate;
//! 2. **operate-on-compressed** — each simple predicate is mapped onto the
//!    block's code domain and evaluated with the software-SIMD kernels,
//!    without decompressing;
//! 3. **late materialization** — only surviving positions of only the
//!    projected columns are decoded;
//! 4. **buffer pool accounting** — every block touch is recorded against
//!    the pool so benchmarks can charge simulated I/O for misses.

use crate::batch::Batch;
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::pipeline::{self, Feed};
use crate::simd;
use crate::stats::ExecStats;
use dash_common::txn::SnapshotView;
use dash_common::{DashError, Datum, Result, Schema};
use dash_encoding::bitmap::Bitmap;
use dash_encoding::block::{BlockRepr, EncodedBlock, ExceptionBank};
use dash_encoding::column::{datum_to_ordered, ColumnEncoding, ColumnValues};
use dash_encoding::order::{f64_to_ordered, i64_to_ordered};
use dash_storage::bufferpool::{BufferPool, PageKey};
use dash_storage::table::ColumnTable;
use parking_lot::Mutex;
use std::sync::Arc;

/// A simple per-column predicate the scan can evaluate on compressed data.
#[derive(Debug, Clone)]
pub enum ColumnPredicate {
    /// `lo <= col <= hi` (inclusive; either bound optional). Equality is
    /// `lo == hi`. NULLs never qualify.
    Range {
        /// Column ordinal in the table schema.
        col: usize,
        /// Lower bound.
        lo: Option<Datum>,
        /// Upper bound.
        hi: Option<Datum>,
    },
    /// `col IS NULL` / `col IS NOT NULL`.
    IsNull {
        /// Column ordinal.
        col: usize,
        /// True for IS NOT NULL.
        negated: bool,
    },
}

impl ColumnPredicate {
    /// Equality shorthand.
    pub fn eq(col: usize, v: impl Into<Datum>) -> ColumnPredicate {
        let v = v.into();
        ColumnPredicate::Range {
            col,
            lo: Some(v.clone()),
            hi: Some(v),
        }
    }

    /// The column this predicate touches.
    pub fn column(&self) -> usize {
        match self {
            ColumnPredicate::Range { col, .. } | ColumnPredicate::IsNull { col, .. } => *col,
        }
    }
}

/// Scan configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Simple predicates evaluated on compressed codes (ANDed).
    pub predicates: Vec<ColumnPredicate>,
    /// Residual predicate evaluated on decoded survivors (over the full
    /// table schema).
    pub residual: Option<Expr>,
    /// Columns to materialize, in output order.
    pub projection: Vec<usize>,
    /// Table id for buffer-pool page keys.
    pub table_id: u32,
    /// Shared buffer pool (optional: None = unlimited RAM).
    pub pool: Option<Arc<Mutex<BufferPool>>>,
    /// Disable synopsis pruning (for the data-skipping ablation).
    pub disable_skipping: bool,
    /// Append a `_TSN` BIGINT column carrying each row's tuple sequence
    /// number (used by UPDATE/DELETE to address matched rows).
    pub include_tsn: bool,
    /// Worker threads for stride evaluation — the paper's "parallelism
    /// achieved by scheduling strides of data to multiple threads running
    /// on multiple cores" (§II.B.6). 0 or 1 = serial.
    pub parallelism: usize,
    /// Snapshot-isolation view. `None` (the default) keeps the
    /// latest-committed semantics: the per-stride delete bitmaps decide
    /// visibility. `Some` filters rows by their MVCC timestamp words
    /// instead, so the scan sees exactly the rows committed at the
    /// snapshot (plus the reading transaction's own writes).
    pub snapshot: Option<SnapshotView>,
}

impl ScanConfig {
    /// A full-table scan of the given projection.
    pub fn full(table_id: u32, projection: Vec<usize>) -> ScanConfig {
        ScanConfig {
            predicates: Vec::new(),
            residual: None,
            projection,
            table_id,
            pool: None,
            disable_skipping: false,
            include_tsn: false,
            parallelism: 1,
            snapshot: None,
        }
    }

    /// Schema of the batches a scan of a table with `table_schema` emits:
    /// the projection, plus `_TSN` when requested.
    pub fn out_schema(&self, table_schema: &Schema) -> Schema {
        let projected = table_schema.project(&self.projection);
        if !self.include_tsn {
            return projected;
        }
        let mut fields = projected.fields().to_vec();
        fields.push(dash_common::Field::not_null("_TSN", dash_common::DataType::Int64));
        Schema::new_unchecked(fields)
    }
}

/// The residual predicate, rewritten over a narrow batch holding only the
/// columns it references.
struct Residual {
    /// Table ordinals of the referenced columns; the narrow batch's column
    /// `i` is table column `cols[i]`.
    cols: Vec<usize>,
    schema: Schema,
    expr: Expr,
}

impl Residual {
    fn new(expr: &Expr, table_schema: &Schema) -> Residual {
        let mut cols = Vec::new();
        expr.referenced_columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        Residual {
            expr: expr.clone().map_columns(&|c| cols.partition_point(|&x| x < c)),
            schema: table_schema.project(&cols),
            cols,
        }
    }

    /// The `positions` whose rows satisfy the predicate. `gather(col,
    /// positions, out)` appends table column `col`'s values at `positions`:
    /// the predicate sees its own columns at the candidate rows, nothing
    /// else.
    fn filter(
        &self,
        positions: Vec<usize>,
        ctx: &EvalContext,
        mut gather: impl FnMut(usize, &[usize], &mut ColumnValues) -> Result<()>,
    ) -> Result<Vec<usize>> {
        let mut values = Vec::with_capacity(self.cols.len());
        for (&col, field) in self.cols.iter().zip(self.schema.fields()) {
            let mut column = ColumnValues::empty_for(field.data_type);
            gather(col, &positions, &mut column)?;
            values.push(column);
        }
        let narrow = Batch::new(self.schema.clone(), values)?;
        let kept = self.expr.select(&narrow, 0..positions.len(), ctx)?;
        Ok(kept.into_iter().map(|row| positions[row]).collect())
    }
}

/// The scan's precomputed shape: which strides survived synopsis pruning,
/// the residual over its own columns, and the output schema.
struct ScanShape {
    schema: Schema,
    residual: Option<Residual>,
    candidate_list: Vec<usize>,
    out_schema: Schema,
    out_types: Vec<dash_common::DataType>,
    /// `strides_total` / `strides_skipped` from pruning, to seed stats.
    base_stats: ExecStats,
}

impl ScanShape {
    fn new(table: &ColumnTable, config: &ScanConfig) -> Result<ScanShape> {
        let schema = table.schema().clone();
        let mut base_stats = ExecStats {
            strides_total: table.sealed_strides() as u64,
            ..Default::default()
        };

        let residual = config.residual.as_ref().map(|r| Residual::new(r, &schema));

        // Synopsis pruning.
        let nstrides = table.sealed_strides();
        let mut candidates = Bitmap::ones(nstrides);
        if !config.disable_skipping {
            for p in &config.predicates {
                let col_dt = schema.field(p.column()).data_type;
                match p {
                    ColumnPredicate::Range { col, lo, hi } => {
                        let lo_u = lo
                            .as_ref()
                            .map(|d| datum_to_ordered(col_dt, d))
                            .transpose()?;
                        let hi_u = hi
                            .as_ref()
                            .map(|d| datum_to_ordered(col_dt, d))
                            .transpose()?;
                        candidates.and_with(&table.synopsis().candidate_strides(*col, lo_u, hi_u));
                    }
                    ColumnPredicate::IsNull { col, negated } => {
                        if !negated {
                            candidates.and_with(&table.synopsis().null_strides(*col));
                        }
                    }
                }
            }
        }
        let candidate_list: Vec<usize> = (0..nstrides)
            .filter(|&s| {
                if candidates.get(s) {
                    true
                } else {
                    base_stats.strides_skipped += 1;
                    false
                }
            })
            .collect();

        let out_schema = config.out_schema(&schema);
        let out_types: Vec<dash_common::DataType> =
            out_schema.fields().iter().map(|f| f.data_type).collect();
        Ok(ScanShape {
            schema,
            residual,
            candidate_list,
            out_schema,
            out_types,
            base_stats,
        })
    }
}

/// Decode one surviving stride's projection columns at `positions` — and
/// nowhere else — straight into the morsel's output columns (plus the
/// `_TSN` column when requested), charging the buffer pool for every
/// projected block.
fn materialize_stride(
    table: &ColumnTable,
    config: &ScanConfig,
    ctx: &EvalContext,
    out_types: &[dash_common::DataType],
    stride: usize,
    positions: &[usize],
    stats: &mut ExecStats,
) -> Result<Vec<ColumnValues>> {
    if let Some(pool) = &config.pool {
        let mut pool = pool.lock();
        for &col in &config.projection {
            charge(&mut pool, stats, &ctx.statement, config.table_id, col, stride)?;
        }
    }
    let mut partial: Vec<ColumnValues> = Vec::with_capacity(out_types.len());
    for (oi, &col) in config.projection.iter().enumerate() {
        let mut values = ColumnValues::empty_for(out_types[oi]);
        table.decode_at(col, stride, positions, &mut values)?;
        partial.push(values);
    }
    if config.include_tsn {
        partial.push(tsn_column(stride * dash_storage::table::STRIDE, positions));
    }
    Ok(partial)
}

/// The `_TSN` values of the rows at `positions` of the stride starting at
/// row `base`.
fn tsn_column(base: usize, positions: &[usize]) -> ColumnValues {
    ColumnValues::Int(positions.iter().map(|&pos| Some((base + pos) as i64)).collect())
}

/// Evaluate the open (unsealed) stride directly on values, appending
/// survivors to `out_cols`; returns how many survived.
fn scan_open_stride(
    table: &ColumnTable,
    config: &ScanConfig,
    ctx: &EvalContext,
    shape: &ScanShape,
    out_cols: &mut [ColumnValues],
    stats: &mut ExecStats,
) -> Result<usize> {
    let schema = &shape.schema;
    let open_len = table.open_len();
    if open_len == 0 {
        return Ok(0);
    }
    stats.rows_scanned += open_len as u64;
    let open_deleted = table.open_deleted();
    let open_base = table.sealed_strides() * dash_storage::table::STRIDE;
    let mut positions = Vec::new();
    'pos: for (pos, &was_deleted) in open_deleted.iter().enumerate().take(open_len) {
        match &config.snapshot {
            Some(snap) => {
                let tsn = dash_common::ids::Tsn((open_base + pos) as u64);
                if !table.row_visible(tsn, snap) {
                    continue;
                }
            }
            None => {
                if was_deleted {
                    continue;
                }
            }
        }
        for p in &config.predicates {
            let col = p.column();
            let dt = schema.field(col).data_type;
            let v = table.open_values(col).datum_at(dt, pos);
            if !open_predicate_matches(p, &v) {
                continue 'pos;
            }
        }
        positions.push(pos);
    }
    if !positions.is_empty() {
        if let Some(residual) = &shape.residual {
            positions = residual.filter(positions, ctx, |col, at, out| {
                out.append_selected(table.open_values(col), at);
                Ok(())
            })?;
        }
        for (oi, &col) in config.projection.iter().enumerate() {
            out_cols[oi].append_selected(table.open_values(col), &positions);
        }
        if config.include_tsn {
            let tsn_col = out_cols
                .last_mut()
                .ok_or_else(|| DashError::internal("tsn scan without output columns"))?;
            *tsn_col = tsn_column(open_base, &positions);
        }
    }
    Ok(positions.len())
}

/// Run a scan over a column table, returning the output batch and stats:
/// a one-stage pipeline draining every [`ScanSource`] morsel in stride
/// order, so the output is byte-identical at any parallelism.
pub fn scan(table: &ColumnTable, config: &ScanConfig, ctx: &EvalContext) -> Result<(Batch, ExecStats)> {
    let source = ScanSource::new(table, config)?;
    let mut stats = source.base_stats();
    let feed = Feed::Scan(&source);
    let batch = pipeline::drive(&feed, &[], None, config.parallelism, ctx, &mut stats)?;
    stats.rows_out = batch.len() as u64;
    Ok((batch, stats))
}

/// A scan decomposed into independent per-stride morsels — the source end
/// of a pipeline. Each morsel evaluates **and materializes** one candidate
/// stride (predicates on compressed codes, late materialization of
/// survivors, buffer-pool charging), returning a self-contained [`Batch`] —
/// string columns as codes of the column's dictionary pool, shared by every
/// morsel — so a whole pipeline can run on the morsel's data while other
/// strides are still being scanned. A scan that projects no column (a
/// `COUNT(*)`) decodes nothing and emits its survivor counts.
pub struct ScanSource<'a> {
    table: &'a ColumnTable,
    config: &'a ScanConfig,
    shape: ScanShape,
}

impl<'a> ScanSource<'a> {
    /// Prune strides and fix the output shape. `base_stats` records the
    /// pruning outcome.
    pub fn new(table: &'a ColumnTable, config: &'a ScanConfig) -> Result<ScanSource<'a>> {
        Ok(ScanSource {
            table,
            config,
            shape: ScanShape::new(table, config)?,
        })
    }

    /// Schema of every batch this source emits.
    pub fn out_schema(&self) -> &Schema {
        &self.shape.out_schema
    }

    /// Number of morsels: one per candidate stride, plus one for the open
    /// stride when it holds rows.
    pub fn morsel_count(&self) -> usize {
        self.shape.candidate_list.len() + usize::from(self.table.open_len() > 0)
    }

    /// Pruning stats (`strides_total`, `strides_skipped`) to seed the
    /// query's counters before any morsel runs.
    pub fn base_stats(&self) -> ExecStats {
        self.shape.base_stats
    }

    /// Evaluate and materialize morsel `mi`. Morsels are ordered by stride,
    /// with the open stride last, so folding results in morsel-index order
    /// reproduces the serial scan's row order exactly.
    pub fn morsel(&self, mi: usize, ctx: &EvalContext) -> Result<(Batch, ExecStats)> {
        let mut stats = ExecStats::default();
        let mut out_cols: Vec<ColumnValues> = self
            .shape
            .out_types
            .iter()
            .map(|&dt| ColumnValues::empty_for(dt))
            .collect();
        let rows = if let Some(&stride) = self.shape.candidate_list.get(mi) {
            let positions =
                eval_stride(self.table, self.config, ctx, &self.shape, stride, &mut stats)?;
            if !positions.is_empty() {
                out_cols = materialize_stride(
                    self.table,
                    self.config,
                    ctx,
                    &self.shape.out_types,
                    stride,
                    &positions,
                    &mut stats,
                )?;
            }
            positions.len()
        } else if mi == self.shape.candidate_list.len() && self.table.open_len() > 0 {
            scan_open_stride(self.table, self.config, ctx, &self.shape, &mut out_cols, &mut stats)?
        } else {
            return Err(DashError::internal(format!(
                "scan morsel {mi} out of range ({} morsels)",
                self.morsel_count()
            )));
        };
        let batch = match out_cols.is_empty() {
            true => Batch::rows_only(rows),
            false => Batch::new(self.shape.out_schema.clone(), out_cols)?,
        };
        Ok((batch, stats))
    }
}

/// Evaluate one stride: predicate bitmaps on compressed blocks, delete
/// mask, then the residual on its own columns decoded at the survivors.
/// Returns the surviving positions.
fn eval_stride(
    table: &ColumnTable,
    config: &ScanConfig,
    ctx: &EvalContext,
    shape: &ScanShape,
    stride: usize,
    stats: &mut ExecStats,
) -> Result<Vec<usize>> {
    stats.strides_scanned += 1;
    // Charge the pool for the predicate columns now; projection columns
    // are charged only if anything survives (late materialization).
    if let Some(pool) = &config.pool {
        let mut pool = pool.lock();
        for p in &config.predicates {
            charge(&mut pool, stats, &ctx.statement, config.table_id, p.column(), stride)?;
        }
    }
    let len = table.block(0, stride).len;
    stats.rows_scanned += len as u64;
    let mut select = Bitmap::ones(len);
    for p in &config.predicates {
        let block = table.block(p.column(), stride);
        let enc = table
            .encoding(p.column())
            .ok_or_else(|| DashError::internal("sealed stride without encoding"))?;
        let dt = shape.schema.field(p.column()).data_type;
        let bm = eval_predicate_on_block(p, block, enc, dt)?;
        select.and_with(&bm);
        if !select.any() {
            return Ok(Vec::new());
        }
    }
    match &config.snapshot {
        Some(snap) => {
            if let Some(invisible) = table.stride_invisible(stride, snap) {
                select.and_not_with(&invisible);
            }
        }
        None => {
            if let Some(deleted) = table.stride_deleted(stride) {
                select.and_not_with(deleted);
            }
        }
    }
    let positions: Vec<usize> = select.iter_ones().collect();
    match &shape.residual {
        Some(residual) if !positions.is_empty() => residual.filter(positions, ctx, |col, at, out| {
            table.decode_at(col, stride, at, out)
        }),
        _ => Ok(positions),
    }
}

fn charge(
    pool: &mut BufferPool,
    stats: &mut ExecStats,
    stmt: &dash_common::StatementContext,
    table: u32,
    col: usize,
    stride: usize,
) -> Result<()> {
    if pool.try_access_for(PageKey::new(table, col as u32, stride as u32), stmt)? {
        stats.pool_hits += 1;
    } else {
        stats.pool_misses += 1;
    }
    Ok(())
}

/// Evaluate one simple predicate against one encoded block without
/// decompressing: the "operating on compressed data" path.
pub fn eval_predicate_on_block(
    pred: &ColumnPredicate,
    block: &EncodedBlock,
    enc: &ColumnEncoding,
    dt: dash_common::DataType,
) -> Result<Bitmap> {
    match pred {
        ColumnPredicate::IsNull { negated, .. } => {
            let mut bm = block.null_bitmap();
            if *negated {
                bm.not_inplace();
            }
            Ok(bm)
        }
        ColumnPredicate::Range { lo, hi, .. } => match (&block.repr, enc) {
            (BlockRepr::Minus(m), _) => {
                let lo_u = lo.as_ref().map(|d| datum_to_ordered_exact(dt, d)).transpose()?;
                let hi_u = hi.as_ref().map(|d| datum_to_ordered_exact(dt, d)).transpose()?;
                match m.code_range(lo_u, hi_u) {
                    None => Ok(Bitmap::zeros(block.len)),
                    Some((clo, chi)) => {
                        let hits = simd::eval_range(&m.codes, clo, chi);
                        Ok(block.scatter(vec![hits], &Bitmap::zeros(0)))
                    }
                }
            }
            (
                BlockRepr::Dict {
                    banks, exceptions, ..
                },
                ColumnEncoding::IntDict { dict, .. },
            ) => {
                let lo_u = lo.as_ref().map(|d| datum_to_ordered_exact(dt, d)).transpose()?;
                let hi_u = hi.as_ref().map(|d| datum_to_ordered_exact(dt, d)).transpose()?;
                let mut bank_hits = Vec::with_capacity(banks.len());
                for (p, bank) in banks.iter().enumerate() {
                    match dict.code_bounds(p, lo_u.as_ref(), hi_u.as_ref()) {
                        Some((clo, chi)) => bank_hits.push(simd::eval_range(bank, clo, chi)),
                        None => bank_hits.push(Bitmap::zeros(bank.len())),
                    }
                }
                let exc_hits = match exceptions {
                    ExceptionBank::Int(vals) => Bitmap::from_bools(vals.iter().map(|&v| {
                        lo_u.is_none_or(|lo| v >= lo) && hi_u.is_none_or(|hi| v <= hi)
                    })),
                    ExceptionBank::Str(_) => {
                        return Err(DashError::internal("string exceptions in numeric column"))
                    }
                };
                Ok(block.scatter(bank_hits, &exc_hits))
            }
            (
                BlockRepr::Dict {
                    banks, exceptions, ..
                },
                ColumnEncoding::StrDict { dict, .. },
            ) => {
                let lo_s: Option<Arc<str>> = match lo {
                    Some(d) => Some(expect_str(d)?),
                    None => None,
                };
                let hi_s: Option<Arc<str>> = match hi {
                    Some(d) => Some(expect_str(d)?),
                    None => None,
                };
                let mut bank_hits = Vec::with_capacity(banks.len());
                for (p, bank) in banks.iter().enumerate() {
                    match dict.code_bounds(p, lo_s.as_ref(), hi_s.as_ref()) {
                        Some((clo, chi)) => bank_hits.push(simd::eval_range(bank, clo, chi)),
                        None => bank_hits.push(Bitmap::zeros(bank.len())),
                    }
                }
                let exc_hits = match exceptions {
                    ExceptionBank::Str(vals) => Bitmap::from_bools(vals.iter().map(|v| {
                        lo_s.as_ref().is_none_or(|lo| v.as_ref() >= lo.as_ref())
                            && hi_s.as_ref().is_none_or(|hi| v.as_ref() <= hi.as_ref())
                    })),
                    ExceptionBank::Int(_) => {
                        return Err(DashError::internal("numeric exceptions in string column"))
                    }
                };
                Ok(block.scatter(bank_hits, &exc_hits))
            }
            (BlockRepr::Dict { .. }, ColumnEncoding::Minus { .. }) => {
                Err(DashError::internal("dict block under minus encoding"))
            }
        },
    }
}

/// Exact orderable mapping for code-domain evaluation (unlike the synopsis
/// path, strings are NOT allowed here — they go through the dictionary).
fn datum_to_ordered_exact(dt: dash_common::DataType, d: &Datum) -> Result<u64> {
    let coerced = dash_common::row::coerce_datum(d.clone(), dt)?;
    match coerced {
        Datum::Int(v) => Ok(i64_to_ordered(v)),
        Datum::Bool(b) => Ok(i64_to_ordered(b as i64)),
        Datum::Date(v) => Ok(i64_to_ordered(v as i64)),
        Datum::Timestamp(v) => Ok(i64_to_ordered(v)),
        Datum::Decimal(v, _) => {
            let v = i64::try_from(v)
                .map_err(|_| DashError::exec("decimal bound out of range"))?;
            Ok(i64_to_ordered(v))
        }
        Datum::Float(f) => Ok(f64_to_ordered(f)),
        other => Err(DashError::internal(format!(
            "cannot map {other:?} to the code domain"
        ))),
    }
}

fn expect_str(d: &Datum) -> Result<Arc<str>> {
    match d {
        Datum::Str(s) => Ok(s.clone()),
        other => Err(DashError::exec(format!(
            "string predicate bound expected, got {other:?}"
        ))),
    }
}

fn open_predicate_matches(p: &ColumnPredicate, v: &Datum) -> bool {
    match p {
        ColumnPredicate::IsNull { negated, .. } => v.is_null() != *negated,
        ColumnPredicate::Range { lo, hi, .. } => {
            if v.is_null() {
                return false;
            }
            let lo_ok = lo
                .as_ref()
                .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Less);
            let hi_ok = hi
                .as_ref()
                .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Greater);
            lo_ok && hi_ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row};
    use dash_storage::bufferpool::Policy;
    use dash_storage::table::STRIDE;

    fn sales_table(rows: usize) -> ColumnTable {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("sale_date", DataType::Date),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = ColumnTable::new("SALES", schema);
        let base = dash_common::date::parse_date("2010-01-01").unwrap();
        let data: Vec<Row> = (0..rows)
            .map(|i| {
                row![
                    i as i64,
                    Datum::Date(base + (i / 8) as i32), // monotone dates
                    format!("region-{}", i % 4),
                    (i % 100) as f64
                ]
            })
            .collect();
        t.load_rows(data).unwrap();
        t
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    #[test]
    fn full_scan_returns_everything() {
        let t = sales_table(STRIDE * 2 + 50);
        let cfg = ScanConfig::full(1, vec![0, 2]);
        let (batch, stats) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE * 2 + 50);
        assert_eq!(stats.strides_scanned, 2);
        assert_eq!(stats.strides_skipped, 0);
    }

    #[test]
    fn date_range_skips_strides() {
        // Dates are monotone: a recent-date predicate must skip old strides.
        let t = sales_table(STRIDE * 8);
        let base = dash_common::date::parse_date("2010-01-01").unwrap();
        let cutoff = base + (STRIDE * 7 / 8) as i32; // last stride's dates only
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::Range {
                col: 1,
                lo: Some(Datum::Date(cutoff)),
                hi: None,
            }],
            ..ScanConfig::full(1, vec![0, 1])
        };
        let (batch, stats) = scan(&t, &cfg, &ctx()).unwrap();
        assert!(stats.strides_skipped >= 6, "skipped {}", stats.strides_skipped);
        assert!(!batch.is_empty());
        // Everything returned satisfies the predicate.
        for r in batch.to_rows() {
            let Datum::Date(d) = r.get(1) else { panic!() };
            assert!(*d >= cutoff);
        }
        // Compare against a no-skipping scan for identical results.
        let cfg2 = ScanConfig {
            disable_skipping: true,
            ..cfg
        };
        let (batch2, stats2) = scan(&t, &cfg2, &ctx()).unwrap();
        assert_eq!(batch.to_rows(), batch2.to_rows());
        assert_eq!(stats2.strides_skipped, 0);
    }

    #[test]
    fn string_equality_on_dictionary() {
        let t = sales_table(STRIDE * 2);
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::eq(2, "region-2")],
            ..ScanConfig::full(1, vec![0, 2])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE * 2 / 4);
        for r in batch.to_rows() {
            assert_eq!(r.get(1).as_str(), Some("region-2"));
        }
    }

    #[test]
    fn numeric_range_on_dict_column() {
        let t = sales_table(STRIDE * 2);
        // amount in [10, 19]: 10 of each 100 values.
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::Range {
                col: 3,
                lo: Some(Datum::Float(10.0)),
                hi: Some(Datum::Float(19.0)),
            }],
            ..ScanConfig::full(1, vec![3])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        // amount = i % 100: full hundreds contribute 10 each, the 48-row
        // remainder contributes 10 (values 10..=19).
        assert_eq!(batch.len(), (STRIDE * 2 / 100) * 10 + 10);
    }

    #[test]
    fn multiple_predicates_anded() {
        let t = sales_table(STRIDE * 2);
        let cfg = ScanConfig {
            predicates: vec![
                ColumnPredicate::eq(2, "region-1"),
                ColumnPredicate::Range {
                    col: 0,
                    lo: Some(Datum::Int(0)),
                    hi: Some(Datum::Int(99)),
                },
            ],
            ..ScanConfig::full(1, vec![0])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        // ids 0..100 with id % 4 == 1 -> 25 rows.
        assert_eq!(batch.len(), 25);
    }

    #[test]
    fn residual_expression_filters() {
        let t = sales_table(STRIDE);
        // residual: id % 100 = 7 (not expressible as a range).
        let residual = Expr::Cmp(
            crate::expr::CmpOp::Eq,
            Box::new(Expr::Arith(
                crate::expr::ArithOp::Rem,
                Box::new(Expr::col(0)),
                Box::new(Expr::lit(100i64)),
            )),
            Box::new(Expr::lit(7i64)),
        );
        let cfg = ScanConfig {
            residual: Some(residual),
            ..ScanConfig::full(1, vec![0])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE / 100 + 1);
        for r in batch.to_rows() {
            assert_eq!(r.get(0).as_int().unwrap() % 100, 7);
        }
    }

    #[test]
    fn deleted_rows_invisible() {
        let mut t = sales_table(STRIDE);
        t.delete(dash_common::ids::Tsn(5)).unwrap();
        t.delete(dash_common::ids::Tsn(6)).unwrap();
        let cfg = ScanConfig::full(1, vec![0]);
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE - 2);
    }

    #[test]
    fn snapshot_scan_sees_only_committed_history() {
        use dash_common::ids::Tsn;
        use dash_common::txn::{pending, TxnId, TS_NEVER};
        let mut t = sales_table(STRIDE); // one sealed stride, pre-history
        let txn = TxnId(1);
        // Pending insert in the open stride + pending delete in the sealed one.
        let pending_tsn = t
            .append_from_rows([(
                row![
                    9_999i64,
                    Datum::Date(20_000),
                    "region-new",
                    1.0f64
                ],
                pending(txn),
                TS_NEVER,
            )])
            .unwrap();
        t.mvcc_delete(Tsn(0), txn, 0).unwrap();
        let base = ScanConfig::full(1, vec![0]);
        // Latest-committed scan: unchanged by pending work.
        let (latest, _) = scan(&t, &base, &ctx()).unwrap();
        assert_eq!(latest.len(), STRIDE);
        // A snapshot before any commit sees the same.
        let snap0 = ScanConfig {
            snapshot: Some(SnapshotView::at(0)),
            ..base.clone()
        };
        let (b, _) = scan(&t, &snap0, &ctx()).unwrap();
        assert_eq!(b.len(), STRIDE);
        // The writing transaction sees its own insert and not its delete.
        let own = ScanConfig {
            snapshot: Some(SnapshotView { ts: 0, txn: Some(txn) }),
            ..base.clone()
        };
        let (b, _) = scan(&t, &own, &ctx()).unwrap();
        assert_eq!(b.len(), STRIDE, "+1 insert -1 delete");
        // Commit at ts 5: snapshots at 4 and 5 straddle the change.
        t.commit_insert(pending_tsn, 5).unwrap();
        t.commit_delete(Tsn(0), 5).unwrap();
        let at4 = ScanConfig {
            snapshot: Some(SnapshotView::at(4)),
            ..base.clone()
        };
        let (b, _) = scan(&t, &at4, &ctx()).unwrap();
        assert_eq!(b.len(), STRIDE);
        let at5 = ScanConfig {
            snapshot: Some(SnapshotView::at(5)),
            ..base
        };
        let (b, _) = scan(&t, &at5, &ctx()).unwrap();
        assert_eq!(b.len(), STRIDE);
        assert!(
            !b.to_rows().iter().any(|r| r.get(0) == &Datum::Int(0)),
            "deleted row gone at ts 5"
        );
        assert!(
            b.to_rows().iter().any(|r| r.get(0) == &Datum::Int(9_999)),
            "inserted row present at ts 5"
        );
    }

    /// The survivor-driven path (synopsis, word-at-a-time bitmaps, decode
    /// at the survivors) against the plainest evaluation of the same
    /// predicate: no skipping, nothing pushed, the expression run on every
    /// visible row.
    #[test]
    fn survivor_shapes_match_residual_only_evaluation() {
        use crate::expr::CmpOp;
        use dash_common::ids::Tsn;
        use dash_common::txn::{pending, TxnId, TS_NEVER};
        use dash_encoding::block::BlockRepr;
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("slot", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
            Field::new("hot", DataType::Int64),
            Field::new("tag", DataType::Utf8),
        ])
        .unwrap();
        // `hot` and `tag` are skewed — one value in three rows of four, a
        // cold tail in the rest — so their dictionaries split and every
        // stride tags its rows with partition selectors. Rows past the
        // load carry values the dictionaries never saw: exceptions.
        let skewed_row = |i: usize| {
            let region = format!("region-{}", i % 4);
            let (hot, tag) = match i % 4 {
                _ if i >= STRIDE * 3 + 40 && i.is_multiple_of(8) => {
                    (Datum::Int(100_000 + i as i64), Datum::str(format!("new-{i}")))
                }
                0 => (Datum::Int((i * 7 % 601) as i64), Datum::str(format!("cold-{}", i % 97))),
                1 => (Datum::Null, Datum::Null),
                _ => (Datum::Int(7), Datum::str("hot")),
            };
            row![i as i64, (i % STRIDE) as i64, region, (i % 100) as f64, hot, tag]
        };
        let mut t = ColumnTable::new("T", schema);
        t.load_rows((0..STRIDE * 3 + 40).map(skewed_row).collect()).unwrap();
        for tsn in [3usize, STRIDE - 1, STRIDE, STRIDE * 2 + 17, STRIDE * 3 + 5] {
            t.delete(Tsn(tsn as u64)).unwrap();
        }
        // One more sealed stride under the loaded encodings, deletes and all.
        t.append_from_rows((STRIDE * 3 + 40..STRIDE * 4 + 40).map(|i| (skewed_row(i), 0, TS_NEVER)))
            .unwrap();
        assert_eq!(t.sealed_strides(), 4);
        for col in [4, 5] {
            let parts = match t.encoding(col) {
                Some(ColumnEncoding::IntDict { dict, .. }) => dict.partition_count(),
                Some(ColumnEncoding::StrDict { dict, .. }) => dict.partition_count(),
                other => panic!("column {col} is not dictionary-coded: {other:?}"),
            };
            assert!(parts > 1, "column {col} has {parts} partition(s)");
            let tagged = |s: usize| match &t.block(col, s).repr {
                BlockRepr::Dict { selectors, exceptions, .. } => {
                    (selectors.is_some(), !exceptions.is_empty())
                }
                BlockRepr::Minus(_) => (false, false),
            };
            assert!((0..3).all(|s| tagged(s) == (true, false)), "column {col}");
            assert_eq!(tagged(3), (true, true), "column {col}: exceptions in stride 3");
        }
        // A committed history for the snapshot legs: one delete in a sealed
        // stride, one insert into the open one, both at ts 5.
        let txn = TxnId(1);
        let inserted = t
            .append_from_rows([(row![77_777i64, 5i64, "region-1", 7.0f64, 7i64, "hot"], pending(txn), TS_NEVER)])
            .unwrap();
        t.mvcc_delete(Tsn(9), txn, 0).unwrap();
        t.commit_insert(inserted, 5).unwrap();
        t.commit_delete(Tsn(9), 5).unwrap();

        let n = (STRIDE * 4 + 40) as i64;
        let range = |col: usize, lo: Datum, hi: Datum| {
            let pushed = ColumnPredicate::Range { col, lo: Some(lo.clone()), hi: Some(hi.clone()) };
            let cmp = |op, bound: Datum| {
                Expr::Cmp(op, Box::new(Expr::col(col)), Box::new(Expr::Lit(bound)))
            };
            (pushed, Expr::And(vec![cmp(CmpOp::Ge, lo), cmp(CmpOp::Le, hi)]))
        };
        let shapes = [
            ("one per stride", range(1, Datum::Int(5), Datum::Int(5))),
            ("all survive", range(0, Datum::Int(-5), Datum::Int(n + 100_000))),
            ("none survive", range(0, Datum::Int(n + 100_000), Datum::Int(n + 200_000))),
            ("open stride only", range(0, Datum::Int(STRIDE as i64 * 4), Datum::Int(n + 100_000))),
            ("dictionary range", range(3, Datum::Float(10.0), Datum::Float(10.0))),
            ("string equality", range(2, Datum::str("region-1"), Datum::str("region-1"))),
            ("tagged hot value", range(4, Datum::Int(7), Datum::Int(7))),
            ("tagged cold range", range(4, Datum::Int(100), Datum::Int(400))),
            ("tagged exceptions", range(4, Datum::Int(100_000), Datum::Int(100_000 + n))),
            ("tagged string hot", range(5, Datum::str("hot"), Datum::str("hot"))),
            ("tagged string cold", range(5, Datum::str("cold-1"), Datum::str("cold-3"))),
            ("tagged string exceptions", range(5, Datum::str("new-"), Datum::str("new-~"))),
        ];
        for (what, (pushed, expr)) in shapes {
            for snapshot in [None, Some(SnapshotView::at(4)), Some(SnapshotView::at(5))] {
                for include_tsn in [false, true] {
                    let common = ScanConfig {
                        snapshot,
                        include_tsn,
                        ..ScanConfig::full(1, vec![2, 0, 3, 4, 5])
                    };
                    let fast = ScanConfig { predicates: vec![pushed.clone()], ..common.clone() };
                    let plain = ScanConfig {
                        residual: Some(expr.clone()),
                        disable_skipping: true,
                        ..common
                    };
                    let (a, _) = scan(&t, &fast, &ctx()).unwrap();
                    let (b, _) = scan(&t, &plain, &ctx()).unwrap();
                    assert_eq!(a.to_rows(), b.to_rows(), "{what}, snapshot {snapshot:?}");
                    match what {
                        "none survive" => assert!(a.is_empty()),
                        "all survive" => assert!(a.len() >= STRIDE * 4 + 40 - 6),
                        _ => assert!(!a.is_empty(), "{what}"),
                    }
                }
            }
        }
    }

    #[test]
    fn open_stride_scanned() {
        let schema = Schema::new(vec![Field::not_null("x", DataType::Int64)]).unwrap();
        let mut t = ColumnTable::new("T", schema);
        for i in 0..10 {
            t.insert(row![i as i64]).unwrap();
        }
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::Range {
                col: 0,
                lo: Some(Datum::Int(7)),
                hi: None,
            }],
            ..ScanConfig::full(1, vec![0])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn is_null_predicates() {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("v", DataType::Int32),
        ])
        .unwrap();
        let mut t = ColumnTable::new("T", schema);
        let rows: Vec<Row> = (0..STRIDE * 2)
            .map(|i| {
                if i % 5 == 0 {
                    row![i as i64, Datum::Null]
                } else {
                    row![i as i64, (i % 50) as i64]
                }
            })
            .collect();
        t.load_rows(rows).unwrap();
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::IsNull {
                col: 1,
                negated: false,
            }],
            ..ScanConfig::full(1, vec![0, 1])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        let nulls = (STRIDE * 2).div_ceil(5);
        assert_eq!(batch.len(), nulls);
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::IsNull {
                col: 1,
                negated: true,
            }],
            ..ScanConfig::full(1, vec![0])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE * 2 - nulls);
    }

    #[test]
    fn pool_accounting() {
        let t = sales_table(STRIDE * 4);
        let pool = Arc::new(Mutex::new(BufferPool::new(1024, Policy::RandomizedWeight)));
        let cfg = ScanConfig {
            pool: Some(pool.clone()),
            ..ScanConfig::full(7, vec![0])
        };
        let (_, s1) = scan(&t, &cfg, &ctx()).unwrap();
        assert!(s1.pool_misses > 0);
        assert_eq!(s1.pool_hits, 0);
        let (_, s2) = scan(&t, &cfg, &ctx()).unwrap();
        assert!(s2.pool_hits > 0, "second scan should hit the pool");
    }

    #[test]
    fn exceptions_after_load_are_found() {
        // Insert post-load values unseen at analyze time.
        let mut t = sales_table(STRIDE);
        for i in 0..STRIDE {
            t.insert(row![
                1_000_000i64 + i as i64,
                Datum::Date(20_000),
                "brand-new-region",
                5.0f64
            ])
            .unwrap();
        }
        assert_eq!(t.sealed_strides(), 2);
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::eq(2, "brand-new-region")],
            ..ScanConfig::full(1, vec![0, 2])
        };
        let (batch, _) = scan(&t, &cfg, &ctx()).unwrap();
        assert_eq!(batch.len(), STRIDE);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row, Schema};
    use dash_storage::table::STRIDE;

    fn big_table() -> ColumnTable {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("v", DataType::Float64),
        ])
        .unwrap();
        let mut t = ColumnTable::new("P", schema);
        let rows: Vec<Row> = (0..STRIDE * 16)
            .map(|i| row![i as i64, format!("g{}", i % 6), (i % 103) as f64])
            .collect();
        t.load_rows(rows).unwrap();
        t
    }

    #[test]
    fn parallel_scan_matches_serial() {
        let t = big_table();
        let ctx = EvalContext::default();
        for preds in [
            vec![],
            vec![ColumnPredicate::eq(1, "g3")],
            vec![ColumnPredicate::Range {
                col: 0,
                lo: Some(Datum::Int(1000)),
                hi: Some(Datum::Int(9000)),
            }],
        ] {
            let serial = ScanConfig {
                predicates: preds.clone(),
                ..ScanConfig::full(0, vec![0, 2])
            };
            let parallel = ScanConfig {
                predicates: preds,
                parallelism: 4,
                ..ScanConfig::full(0, vec![0, 2])
            };
            let (a, sa) = scan(&t, &serial, &ctx).unwrap();
            let (b, sb) = scan(&t, &parallel, &ctx).unwrap();
            assert_eq!(a.to_rows(), b.to_rows(), "parallel scan changed results");
            assert_eq!(sa.strides_scanned, sb.strides_scanned);
            assert_eq!(sa.rows_scanned, sb.rows_scanned);
        }
    }

    #[test]
    fn scan_source_morsels_reassemble_to_scan() {
        let mut t = big_table();
        // Leave rows in the open stride so the last morsel is exercised.
        for i in 0..100 {
            t.insert(row![(STRIDE * 16 + i) as i64, format!("g{}", i % 6), 1.5f64])
                .unwrap();
        }
        let ctx = EvalContext::default();
        for preds in [
            vec![],
            vec![ColumnPredicate::eq(1, "g2")],
            vec![ColumnPredicate::Range {
                col: 0,
                lo: Some(Datum::Int(2000)),
                hi: Some(Datum::Int(4000)),
            }],
        ] {
            let cfg = ScanConfig {
                predicates: preds,
                ..ScanConfig::full(0, vec![0, 1, 2])
            };
            let (whole, whole_stats) = scan(&t, &cfg, &ctx).unwrap();
            let src = ScanSource::new(&t, &cfg).unwrap();
            let mut stats = src.base_stats();
            let batches: Vec<Batch> = (0..src.morsel_count())
                .map(|mi| {
                    let (b, s) = src.morsel(mi, &ctx).unwrap();
                    stats += s;
                    b
                })
                .collect();
            let pool = t.str_pool(1).expect("a dictionary-coded column");
            let shared = |b: &Batch| matches!(b.column(1), ColumnValues::Str(v) if Arc::ptr_eq(v.pool(), pool));
            let dict_shared = batches.iter().any(|b| !b.is_empty() && shared(b));
            let sum = Batch::concat_columnar(src.out_schema().clone(), batches).unwrap();
            assert_eq!(sum.to_rows(), whole.to_rows(), "morsels reassemble the scan");
            assert!(dict_shared, "per-morsel batches share the dictionary's pool");
            assert_eq!(stats.strides_scanned, whole_stats.strides_scanned);
            assert_eq!(stats.rows_scanned, whole_stats.rows_scanned);
            assert_eq!(stats.strides_skipped, whole_stats.strides_skipped);
        }
    }

    #[test]
    fn parallel_scan_with_deletes_and_tsn() {
        let mut t = big_table();
        for i in (0..STRIDE * 16).step_by(97) {
            t.delete(dash_common::ids::Tsn(i as u64)).unwrap();
        }
        let ctx = EvalContext::default();
        let mk = |par| ScanConfig {
            predicates: vec![ColumnPredicate::eq(1, "g1")],
            include_tsn: true,
            parallelism: par,
            ..ScanConfig::full(0, vec![0])
        };
        let (a, _) = scan(&t, &mk(1), &ctx).unwrap();
        let (b, _) = scan(&t, &mk(6), &ctx).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }
}
