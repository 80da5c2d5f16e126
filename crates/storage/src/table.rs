//! Column-organized tables.
//!
//! A [`ColumnTable`] stores each column as a sequence of encoded blocks,
//! one per *stride* of [`STRIDE`] tuples. Every write — LOAD, INSERT, CTAS,
//! UPDATE, recovery — goes through [`ColumnTable::append`]: typed columns
//! are coerced to the table's, buffered in an open (uncompressed) stride,
//! and each full stride is encoded and added to the synopsis. Rows enter
//! only at the edge (`insert`, `load_rows`, `append_from_rows`), transposed
//! once into columns. A column is analysed when its first stride seals,
//! over everything buffered then, so a bulk append analyses its whole
//! input (the LOAD path, which is how the paper's workloads arrive).
//!
//! Deletes mark a per-stride visibility bitmap; updates are delete+append —
//! the standard column-store write model, and the reason the engine "always
//! scans the data" rather than maintaining secondary indexes.

use crate::stats::TableStats;
use crate::synopsis::Synopsis;
use dash_common::ids::Tsn;
use dash_common::txn::{is_pending, pending, pending_owner, SnapshotView, TxnId, TS_NEVER};
use dash_common::row::{check_stored, coerce_datum};
use dash_common::{DashError, DataType, Datum, Field, Result, Row, Schema};
use dash_encoding::bitmap::Bitmap;
use dash_encoding::column::{ColumnCompressor, ColumnEncoding, ColumnValues};
use dash_encoding::strs::{StrColumn, StrPool};
use dash_encoding::EncodedBlock;
use std::sync::Arc;

pub use dash_encoding::column::STRIDE;

/// Per-column storage state.
#[derive(Debug, Clone)]
struct ColumnState {
    encoding: Option<ColumnEncoding>,
    blocks: Vec<EncodedBlock>,
    /// A pool over the string dictionary inside `encoding`, when the column
    /// is dictionary-coded: shared by every stride decoded and by the open
    /// stride's values.
    str_pool: Option<Arc<StrPool>>,
}

/// A column-organized table.
#[derive(Debug, Clone)]
pub struct ColumnTable {
    name: String,
    schema: Schema,
    columns: Vec<ColumnState>,
    /// Open (not yet encoded) stride, one buffer per column.
    open: Vec<ColumnValues>,
    open_rows: usize,
    /// Per sealed stride: deleted-rows bitmap (None = no deletes).
    deleted: Vec<Option<Bitmap>>,
    /// Deleted flags for the open stride.
    open_deleted: Vec<bool>,
    synopsis: Synopsis,
    compressor: ColumnCompressor,
    live_rows: u64,
    /// Per-row insert timestamp words, indexed by TSN. See
    /// [`dash_common::txn`] for the word encoding. `0` = pre-history
    /// (visible to all snapshots), which is what the non-transactional
    /// [`ColumnTable::insert`]/[`ColumnTable::load_rows`] paths stamp.
    insert_ts: Vec<u64>,
    /// Per-row delete timestamp words, indexed by TSN. [`TS_NEVER`] =
    /// live; `0` = deleted pre-history (non-transactional delete).
    delete_ts: Vec<u64>,
}

impl ColumnTable {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> ColumnTable {
        let ncols = schema.len();
        let open = schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        ColumnTable {
            name: name.into(),
            schema: schema.clone(),
            columns: vec![
                ColumnState {
                    encoding: None,
                    blocks: Vec::new(),
                    str_pool: None,
                };
                ncols
            ],
            open,
            open_rows: 0,
            deleted: Vec::new(),
            open_deleted: Vec::new(),
            synopsis: Synopsis::new(ncols),
            compressor: ColumnCompressor::new(),
            live_rows: 0,
            insert_ts: Vec::new(),
            delete_ts: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows ever appended (including deleted); TSNs range `0..total`.
    pub fn total_rows(&self) -> u64 {
        (self.deleted.len() * STRIDE + self.open_rows) as u64
    }

    /// Rows visible to scans.
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// Number of sealed strides.
    pub fn sealed_strides(&self) -> usize {
        self.deleted.len()
    }

    /// The synopsis (data-skipping metadata).
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// The encoding of column `col`, if analysis has run.
    pub fn encoding(&self, col: usize) -> Option<&ColumnEncoding> {
        self.columns[col].encoding.as_ref()
    }

    /// The pool of the dictionary backing string column `col`, if it is
    /// dictionary-coded: decoded strides are codes of it, so joins and
    /// aggregates key on codes instead of string bytes.
    pub fn str_pool(&self, col: usize) -> Option<&Arc<StrPool>> {
        self.columns[col].str_pool.as_ref()
    }

    /// The encoded block of column `col` in sealed stride `stride`.
    pub fn block(&self, col: usize, stride: usize) -> &EncodedBlock {
        &self.columns[col].blocks[stride]
    }

    /// Delete bitmap for a sealed stride (bit set = deleted).
    pub fn stride_deleted(&self, stride: usize) -> Option<&Bitmap> {
        self.deleted[stride].as_ref()
    }

    /// The open stride's values for column `col`.
    pub fn open_values(&self, col: usize) -> &ColumnValues {
        &self.open[col]
    }

    /// Deleted flags for the open stride.
    pub fn open_deleted(&self) -> &[bool] {
        &self.open_deleted
    }

    /// Rows in the open stride.
    pub fn open_len(&self) -> usize {
        self.open_rows
    }

    /// The compressor (shared so exec can decode blocks consistently).
    pub fn compressor(&self) -> &ColumnCompressor {
        &self.compressor
    }

    /// Append one row (coerced to the schema), non-transactionally: the
    /// row is immediately visible to every snapshot (pre-history
    /// timestamp `0`).
    pub fn insert(&mut self, row: Row) -> Result<Tsn> {
        self.append_from_rows([(row, 0, TS_NEVER)])
    }

    /// The one append, used by every write: typed `columns`, each holding
    /// values of its entry in `types`, and one insert and one delete
    /// timestamp word per row go to the end of the table in order. Every
    /// column is coerced to the table's before the table is touched, so a
    /// bad value leaves it unchanged. A row is visible to latest-committed
    /// scans (and counts as live) iff its insert word is committed and its
    /// delete word is not. Returns the first row's TSN.
    pub fn append(&mut self, columns: Vec<ColumnValues>, types: &[DataType], ins: &[u64], del: &[u64]) -> Result<Tsn> {
        let ncols = self.schema.len();
        if columns.len() != ncols || types.len() != ncols || del.len() != ins.len() || columns.iter().any(|c| c.len() != ins.len()) {
            return Err(DashError::internal(format!("append of unequal columns and words to {ncols} columns")));
        }
        let fields = self.schema.fields().iter().enumerate();
        let columns = (columns.into_iter().zip(types).zip(fields))
            .map(|((values, &from), (i, field))| coerce_column(values, from, field, i))
            .collect::<Result<Vec<_>>>()?;
        let first = Tsn(self.total_rows());
        for ((open, values), col) in self.open.iter_mut().zip(columns).zip(&self.columns) {
            match (open, values, &col.str_pool) {
                // The open values are codes of the column's dictionary pool
                // (local values past it), so scans of them key on its codes.
                (ColumnValues::Str(open), ColumnValues::Str(v), Some(pool)) if open.is_empty() && !v.pool().same_domain(pool) => {
                    *open = v.repool(pool.dict().clone());
                }
                (open, values, _) => open.extend_from(values),
            }
        }
        self.insert_ts.extend_from_slice(ins);
        self.delete_ts.extend_from_slice(del);
        for (&i, &d) in ins.iter().zip(del) {
            let visible = committed(i) && !committed(d);
            self.open_deleted.push(!visible);
            self.live_rows += visible as u64;
        }
        self.open_rows = self.open_deleted.len();
        self.seal()?;
        Ok(first)
    }

    /// The row edge: `rows` cast value by value to the schema's types and
    /// transposed into typed columns, ready for [`ColumnTable::append`].
    pub fn transpose(&self, rows: impl IntoIterator<Item = Row>) -> Result<Vec<ColumnValues>> {
        let types = self.schema.types();
        let mut columns: Vec<ColumnValues> = types.iter().map(|&dt| ColumnValues::empty_for(dt)).collect();
        for row in rows {
            if row.len() != types.len() {
                let msg = format!("row has {} values but table has {} columns", row.len(), types.len());
                return Err(DashError::analysis(msg));
            }
            for ((values, &dt), v) in columns.iter_mut().zip(&types).zip(row.0) {
                values.push_datum(dt, &coerce_datum(v, dt)?)?;
            }
        }
        Ok(columns)
    }

    /// [`ColumnTable::append`] of rows, each with its insert and delete
    /// words, through [`ColumnTable::transpose`].
    pub fn append_from_rows(&mut self, rows: impl IntoIterator<Item = (Row, u64, u64)>) -> Result<Tsn> {
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        let columns = self.transpose(rows.into_iter().map(|(row, i, d)| {
            ins.push(i);
            del.push(d);
            row
        }))?;
        self.append(columns, &self.schema.types(), &ins, &del)
    }

    /// Bulk load: replaces prior contents with typed `columns` as
    /// pre-history, and every column is analysed over the entire data set
    /// (the LOAD path), even one too small to fill a stride. A bad value
    /// leaves the old contents in place.
    pub fn load(&mut self, columns: Vec<ColumnValues>, types: &[DataType]) -> Result<u64> {
        let n = columns.first().map_or(0, ColumnValues::len);
        let mut loaded = ColumnTable::new(self.name.clone(), self.schema.clone());
        loaded.append(columns, types, &vec![0; n], &vec![TS_NEVER; n])?;
        // Rows short of a stride stay open, as codes of their new pools.
        loaded.analyse();
        *self = loaded;
        Ok(n as u64)
    }

    /// [`ColumnTable::load`] of rows, through [`ColumnTable::transpose`].
    pub fn load_rows(&mut self, rows: Vec<Row>) -> Result<u64> {
        let columns = self.transpose(rows)?;
        self.load(columns, &self.schema.types())
    }

    /// Give every column without an encoding one, analysed over everything
    /// buffered in the open stride. A string column's buffered values
    /// become codes of its dictionary's pool, which the column keeps.
    fn analyse(&mut self) {
        for (col, values) in self.columns.iter_mut().zip(&mut self.open) {
            if col.encoding.is_none() {
                col.encoding = Some(self.compressor.analyze(values));
                if let ColumnValues::Str(v) = values {
                    col.str_pool = Some(v.pool().clone());
                }
            }
        }
    }

    /// The one sealer: encode every full stride of the open buffer in one
    /// pass and keep the remainder open. A column without an encoding yet
    /// is first analysed over everything buffered — the whole input of a
    /// bulk append, which is how LOAD gets its global analysis.
    fn seal(&mut self) -> Result<()> {
        let full = self.open_rows / STRIDE;
        if full == 0 {
            return Ok(());
        }
        self.analyse();
        let sealed = full * STRIDE;
        for (i, col) in self.columns.iter_mut().enumerate() {
            let values = &self.open[i];
            let enc = col
                .encoding
                .as_ref()
                .ok_or_else(|| DashError::internal("column missing encoding after analysis"))?;
            for s in 0..full {
                let block = self
                    .compressor
                    .encode_block(enc, values, s * STRIDE..(s + 1) * STRIDE);
                self.synopsis.push_stride(
                    i,
                    self.compressor.block_min_max(enc, &block)?,
                    block.null_count() > 0,
                );
                col.blocks.push(block);
            }
            self.open[i] = match (values, &col.str_pool) {
                // The open values become codes of the column's dictionary
                // pool, keeping only the local values they use.
                (ColumnValues::Str(v), Some(pool)) => ColumnValues::Str(v.slice(sealed..self.open_rows).repool(pool.dict().clone())),
                _ => values.slice(sealed..self.open_rows),
            };
        }
        // Carry open-stride deletes into the sealed bitmaps.
        for flags in self.open_deleted[..sealed].chunks(STRIDE) {
            let any_deleted = flags.iter().any(|&d| d);
            self.deleted
                .push(any_deleted.then(|| Bitmap::from_bools(flags.iter().copied())));
        }
        self.open_deleted.drain(..sealed);
        self.open_rows -= sealed;
        Ok(())
    }

    /// Whether the row at `tsn` is deleted (or out of range).
    pub fn is_deleted(&self, tsn: Tsn) -> bool {
        let pos = tsn.0 as usize;
        let stride = pos / STRIDE;
        let off = pos % STRIDE;
        if stride < self.deleted.len() {
            self.deleted[stride].as_ref().is_some_and(|b| b.get(off))
        } else if stride == self.deleted.len() && off < self.open_rows {
            self.open_deleted[off]
        } else {
            true
        }
    }

    /// Mark a row deleted, non-transactionally (the delete is immediately
    /// visible to every snapshot). Returns `Ok(true)` if the row was live,
    /// `Ok(false)` if it was already deleted, and an error if `tsn` is out
    /// of range — the distinction lets WAL replay assert log/store
    /// consistency instead of silently skipping bad positions.
    pub fn delete(&mut self, tsn: Tsn) -> Result<bool> {
        let pos = self.checked_pos(tsn, "delete")?;
        if !self.mark_latest_deleted(pos) {
            return Ok(false);
        }
        self.delete_ts[pos] = 0;
        Ok(true)
    }

    /// Set the latest-committed deleted bit for `pos`. Returns false if it
    /// was already set. Caller guarantees `pos < total_rows`.
    fn mark_latest_deleted(&mut self, pos: usize) -> bool {
        let stride = pos / STRIDE;
        let off = pos % STRIDE;
        if stride < self.deleted.len() {
            let bm = self.deleted[stride].get_or_insert_with(|| Bitmap::zeros(STRIDE));
            if bm.get(off) {
                return false;
            }
            bm.set(off);
        } else {
            if self.open_deleted[off] {
                return false;
            }
            self.open_deleted[off] = true;
        }
        self.live_rows -= 1;
        true
    }

    /// Clear the latest-committed deleted bit for `pos` (a pending insert
    /// becoming committed). Caller guarantees the bit is currently set.
    fn clear_latest_deleted(&mut self, pos: usize) {
        let stride = pos / STRIDE;
        let off = pos % STRIDE;
        if stride < self.deleted.len() {
            if let Some(bm) = self.deleted[stride].as_mut() {
                bm.unset(off);
            }
        } else {
            self.open_deleted[off] = false;
        }
        self.live_rows += 1;
    }

    /// Fetch the (possibly deleted) row at `tsn` — a point access, used by
    /// UPDATE and result fetch: each column decodes that one position.
    pub fn get_row(&self, tsn: Tsn) -> Result<Row> {
        let pos = tsn.0 as usize;
        let stride = pos / STRIDE;
        let off = pos % STRIDE;
        let mut out = Vec::with_capacity(self.schema.len());
        if stride < self.deleted.len() {
            for (i, f) in self.schema.fields().iter().enumerate() {
                let mut value = ColumnValues::empty_for(f.data_type);
                self.decode_at(i, stride, &[off], &mut value)?;
                out.push(value.datum_at(f.data_type, 0));
            }
        } else if stride == self.deleted.len() && off < self.open_rows {
            for (i, f) in self.schema.fields().iter().enumerate() {
                out.push(self.open[i].datum_at(f.data_type, off));
            }
        } else {
            return Err(DashError::exec(format!("TSN {tsn} out of range")));
        }
        Ok(Row::new(out))
    }

    // ------------------------------------------------------------------
    // MVCC: transactional writes, commit/abort stamping, WAL replay, and
    // snapshot visibility. The latest-committed bitmap (`deleted` /
    // `open_deleted`) stays authoritative for non-snapshot scans: pending
    // inserts keep their bit SET (invisible) until commit, pending deletes
    // leave it CLEAR until commit, and `live_rows` moves only at commit.
    // ------------------------------------------------------------------

    /// Mark a row deleted on behalf of an in-flight transaction, applying
    /// the first-writer-wins rule against the reader's snapshot.
    ///
    /// Returns `Ok(true)` if the pending delete was recorded, `Ok(false)`
    /// if the row is already deleted in `txn`'s own view (skip it), a
    /// [`DashError::WriteConflict`] if a concurrent transaction got there
    /// first, and an out-of-range error for an invalid TSN.
    pub fn mvcc_delete(&mut self, tsn: Tsn, txn: TxnId, snapshot_ts: u64) -> Result<bool> {
        let pos = self.checked_pos(tsn, "mvcc delete")?;
        let cur = self.delete_ts[pos];
        if cur == TS_NEVER {
            self.delete_ts[pos] = pending(txn);
            Ok(true)
        } else if is_pending(cur) {
            if pending_owner(cur) == txn {
                // Already deleted earlier in this same transaction.
                Ok(false)
            } else {
                Err(DashError::write_conflict(format!(
                    "row {tsn} in table \"{}\" is being written by concurrent {}",
                    self.name,
                    pending_owner(cur)
                )))
            }
        } else if cur > snapshot_ts {
            // A concurrent transaction committed a delete of this row
            // after our snapshot began: first writer wins.
            Err(DashError::write_conflict(format!(
                "row {tsn} in table \"{}\" was deleted by a concurrent commit (ts {cur})",
                self.name
            )))
        } else {
            // Deleted at or before our snapshot — nothing left to delete.
            Ok(false)
        }
    }

    /// Commit a pending insert at timestamp `ts`: the row becomes visible
    /// to snapshots at or after `ts` and to latest-committed scans.
    pub fn commit_insert(&mut self, tsn: Tsn, ts: u64) -> Result<()> {
        let pos = self.checked_pos(tsn, "commit insert")?;
        if !is_pending(self.insert_ts[pos]) {
            return Err(DashError::internal(format!(
                "commit_insert of {tsn}: insert word not pending"
            )));
        }
        self.insert_ts[pos] = ts;
        self.clear_latest_deleted(pos);
        Ok(())
    }

    /// Roll back a pending insert: the row position becomes a permanently
    /// invisible placeholder (positions are never reused — TSNs must stay
    /// stable for the WAL).
    pub fn abort_insert(&mut self, tsn: Tsn) -> Result<()> {
        let pos = self.checked_pos(tsn, "abort insert")?;
        self.insert_ts[pos] = TS_NEVER;
        Ok(())
    }

    /// Commit a pending delete at timestamp `ts`: the row disappears from
    /// snapshots at or after `ts` and from latest-committed scans.
    pub fn commit_delete(&mut self, tsn: Tsn, ts: u64) -> Result<()> {
        let pos = self.checked_pos(tsn, "commit delete")?;
        self.delete_ts[pos] = ts;
        if !self.mark_latest_deleted(pos) {
            return Err(DashError::internal(format!(
                "commit_delete of {tsn}: row already latest-deleted"
            )));
        }
        Ok(())
    }

    /// Roll back a pending delete: the row stays live.
    pub fn abort_delete(&mut self, tsn: Tsn) -> Result<()> {
        let pos = self.checked_pos(tsn, "abort delete")?;
        self.delete_ts[pos] = TS_NEVER;
        Ok(())
    }

    /// Recovery: re-apply a committed delete at timestamp `ts`. Errors on
    /// out-of-range TSNs and on rows already deleted — both indicate the
    /// log and the store disagree.
    pub fn replay_delete(&mut self, tsn: Tsn, ts: u64) -> Result<()> {
        let pos = self.checked_pos(tsn, "replay delete")?;
        if !self.mark_latest_deleted(pos) {
            return Err(DashError::internal(format!(
                "log/store inconsistency: replayed delete of already-deleted {tsn}"
            )));
        }
        self.delete_ts[pos] = ts;
        Ok(())
    }

    /// Is the row at `tsn` visible to `snap`? Out-of-range rows are not.
    pub fn row_visible(&self, tsn: Tsn, snap: &SnapshotView) -> bool {
        let pos = tsn.0 as usize;
        pos < self.insert_ts.len() && snap.visible(self.insert_ts[pos], self.delete_ts[pos])
    }

    /// Rows of sealed stride `stride` that `snap` must NOT see, as a
    /// bitmap (bit set = invisible), or `None` when the whole stride is
    /// visible. The snapshot-scan analogue of [`ColumnTable::stride_deleted`].
    pub fn stride_invisible(&self, stride: usize, snap: &SnapshotView) -> Option<Bitmap> {
        let base = stride * STRIDE;
        let mut bm: Option<Bitmap> = None;
        for off in 0..STRIDE {
            let pos = base + off;
            if !snap.visible(self.insert_ts[pos], self.delete_ts[pos]) {
                bm.get_or_insert_with(|| Bitmap::zeros(STRIDE)).set(off);
            }
        }
        bm
    }

    /// Per-row insert timestamp words (indexed by TSN) — checkpoint input.
    pub fn insert_ts_words(&self) -> &[u64] {
        &self.insert_ts
    }

    /// Per-row delete timestamp words (indexed by TSN) — checkpoint input.
    pub fn delete_ts_words(&self) -> &[u64] {
        &self.delete_ts
    }

    /// Does any row carry a pending (uncommitted) timestamp word? True
    /// while transactions are in flight; checkpoints refuse to run then.
    pub fn has_pending(&self) -> bool {
        self.insert_ts.iter().chain(self.delete_ts.iter()).any(|&w| is_pending(w))
    }

    /// Bounds-check a TSN, returning its row position.
    fn checked_pos(&self, tsn: Tsn, what: &str) -> Result<usize> {
        let pos = tsn.0 as usize;
        if (pos as u64) < self.total_rows() {
            Ok(pos)
        } else {
            Err(DashError::exec(format!(
                "{what} of {tsn} out of range (table \"{}\" has {} rows)",
                self.name,
                self.total_rows()
            )))
        }
    }

    /// Decode one column of one sealed stride.
    pub fn decode_stride(&self, col: usize, stride: usize) -> Result<ColumnValues> {
        let mut out = ColumnValues::empty_for(self.schema.field(col).data_type);
        let all: Vec<usize> = (0..self.block(col, stride).len).collect();
        self.decode_at(col, stride, &all, &mut out)?;
        Ok(out)
    }

    /// Decode column `col` of sealed stride `stride` at `positions`
    /// (ascending offsets within the stride), appending to `out` — see
    /// [`ColumnCompressor::decode`].
    pub fn decode_at(
        &self,
        col: usize,
        stride: usize,
        positions: &[usize],
        out: &mut ColumnValues,
    ) -> Result<()> {
        let (enc, block) = self.encoded(col, stride)?;
        // A string column decodes into codes of the dictionary's pool.
        if let (ColumnValues::Str(values), Some(pool)) = (&mut *out, &self.columns[col].str_pool) {
            if !values.pool().same_domain(pool) {
                if !values.is_empty() {
                    return Err(DashError::internal("decode into a string column of another dictionary"));
                }
                *values = StrColumn::with_pool(pool.clone());
            }
        }
        self.compressor.decode(enc, block, positions, out)
    }

    fn encoded(&self, col: usize, stride: usize) -> Result<(&ColumnEncoding, &EncodedBlock)> {
        let enc = self.columns[col]
            .encoding
            .as_ref()
            .ok_or_else(|| DashError::internal("sealed stride without encoding"))?;
        Ok((enc, &self.columns[col].blocks[stride]))
    }

    /// Compressed bytes across all sealed blocks (user data only).
    pub fn compressed_bytes(&self) -> usize {
        self.columns
            .iter()
            .flat_map(|c| c.blocks.iter())
            .map(|b| b.size_bytes())
            .sum()
    }

    /// Basic statistics for the planner.
    pub fn stats(&self) -> TableStats {
        let mut ndv = Vec::with_capacity(self.schema.len());
        for c in &self.columns {
            ndv.push(match &c.encoding {
                Some(ColumnEncoding::IntDict { dict, .. }) => Some(dict.len() as u64),
                Some(ColumnEncoding::StrDict { dict, .. }) => Some(dict.len() as u64),
                _ => None,
            });
        }
        TableStats {
            live_rows: self.live_rows,
            total_rows: self.total_rows(),
            sealed_strides: self.sealed_strides(),
            compressed_bytes: self.compressed_bytes(),
            synopsis_bytes: self.synopsis.size_bytes(),
            column_ndv: ndv,
        }
    }
}

/// Whether a timestamp word records a committed event (pre-history or a
/// commit timestamp), as opposed to a pending one or "never".
fn committed(word: u64) -> bool {
    word != TS_NEVER && !is_pending(word)
}

/// `values`, a column of type `from`, as a column for `field` (ordinal
/// `ordinal`): moved when the types are equal, otherwise cast value by
/// value by the engine's one cast rule, [`coerce_datum`]. Either way every
/// value passes [`check_stored`] in row order, so the first bad value is
/// the one reported, as a row at a time would.
fn coerce_column(values: ColumnValues, from: DataType, field: &Field, ordinal: usize) -> Result<ColumnValues> {
    let to = field.data_type;
    if from != to {
        let mut cast = ColumnValues::empty_for(to);
        for i in 0..values.len() {
            let d = coerce_datum(values.datum_at(from, i), to)?;
            check_stored(&d, field, ordinal)?;
            cast.push_datum(to, &d)?;
        }
        return Ok(cast);
    }
    let not_null = !field.nullable;
    match &values {
        ColumnValues::Int(v) => v.iter().try_for_each(|x| check_stored(&x.map_or(Datum::Null, Datum::Int), field, ordinal))?,
        ColumnValues::Float(v) if not_null && v.contains(&None) => check_stored(&Datum::Null, field, ordinal)?,
        ColumnValues::Str(v) if not_null && v.has_null() => check_stored(&Datum::Null, field, ordinal)?,
        _ => {}
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Datum, Field};

    fn test_table() -> ColumnTable {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .unwrap();
        ColumnTable::new("T", schema)
    }

    fn fill(t: &mut ColumnTable, n: usize) {
        for i in 0..n {
            t.insert(row![
                i as i64,
                format!("region-{}", i % 4),
                i as f64 * 1.5
            ])
            .unwrap();
        }
    }

    #[test]
    fn insert_seals_strides() {
        let mut t = test_table();
        fill(&mut t, STRIDE * 2 + 100);
        assert_eq!(t.sealed_strides(), 2);
        assert_eq!(t.open_len(), 100);
        assert_eq!(t.live_rows(), (STRIDE * 2 + 100) as u64);
    }

    #[test]
    fn get_row_roundtrip_sealed_and_open() {
        let mut t = test_table();
        fill(&mut t, STRIDE + 10);
        let sealed = t.get_row(Tsn(5)).unwrap();
        assert_eq!(sealed.get(0), &Datum::Int(5));
        assert_eq!(sealed.get(1).as_str(), Some("region-1"));
        let open = t.get_row(Tsn(STRIDE as u64 + 3)).unwrap();
        assert_eq!(open.get(0), &Datum::Int(STRIDE as i64 + 3));
        assert!(t.get_row(Tsn(99_999)).is_err());
    }

    #[test]
    fn delete_and_visibility() {
        let mut t = test_table();
        fill(&mut t, STRIDE + 10);
        assert!(t.delete(Tsn(3)).unwrap());
        assert!(!t.delete(Tsn(3)).unwrap(), "double delete is a no-op");
        assert!(t.is_deleted(Tsn(3)));
        assert!(
            t.delete(Tsn(STRIDE as u64 + 1)).unwrap(),
            "open-stride delete"
        );
        assert_eq!(t.live_rows(), (STRIDE + 10 - 2) as u64);
        // Out-of-range TSN is an error, not a silent false.
        assert!(t.delete(Tsn(999_999)).is_err());
    }

    #[test]
    fn open_stride_deletes_survive_sealing() {
        let mut t = test_table();
        fill(&mut t, 10);
        t.delete(Tsn(4)).unwrap();
        fill(&mut t, STRIDE - 10); // seals the stride
        assert_eq!(t.sealed_strides(), 1);
        assert!(t.is_deleted(Tsn(4)));
        assert!(t.stride_deleted(0).unwrap().get(4));
    }

    #[test]
    fn load_rows_analyzes_globally() {
        let mut t = test_table();
        let rows: Vec<Row> = (0..3000)
            .map(|i| row![i as i64, format!("region-{}", i % 4), 0.5f64])
            .collect();
        t.load_rows(rows).unwrap();
        assert_eq!(t.live_rows(), 3000);
        assert_eq!(t.sealed_strides(), 2);
        assert_eq!(t.open_len(), 3000 - 2 * STRIDE);
        // Low-cardinality string column gets a dictionary.
        assert_eq!(t.encoding(1).unwrap().name(), "frequency-dict");
        // Verify a row decodes correctly.
        let r = t.get_row(Tsn(2048)).unwrap();
        assert_eq!(r.get(0), &Datum::Int(2048));
    }

    #[test]
    fn synopsis_tracks_strides() {
        let mut t = test_table();
        fill(&mut t, STRIDE * 3);
        assert_eq!(t.synopsis().stride_count(), 3);
        // id column: stride 0 covers 0..1023.
        let (lo, hi) = t.synopsis().stride_range(0, 0).unwrap();
        use dash_encoding::order::ordered_to_i64;
        assert_eq!(ordered_to_i64(lo), 0);
        assert_eq!(ordered_to_i64(hi), (STRIDE - 1) as i64);
    }

    #[test]
    fn compression_beats_raw() {
        let mut t = test_table();
        let rows: Vec<Row> = (0..STRIDE * 4)
            .map(|i| row![i as i64, format!("region-{}", i % 4), (i % 7) as f64])
            .collect();
        t.load_rows(rows).unwrap();
        let raw = STRIDE * 4 * (8 + 10 + 8);
        assert!(
            t.compressed_bytes() * 2 < raw,
            "compressed {} raw {raw}",
            t.compressed_bytes()
        );
    }

    #[test]
    fn mvcc_insert_commit_abort() {
        let mut t = test_table();
        fill(&mut t, 5);
        let txn = TxnId(1);
        let tsn = t.append_from_rows([(row![100i64, "region-x", 1.0f64], pending(txn), TS_NEVER)]).unwrap();
        // Pending: invisible to latest scans and to other snapshots, but
        // visible to the writing transaction.
        assert!(t.is_deleted(tsn));
        assert_eq!(t.live_rows(), 5);
        assert!(!t.row_visible(tsn, &SnapshotView::at(u64::MAX >> 1)));
        let mine = SnapshotView { ts: 0, txn: Some(txn) };
        assert!(t.row_visible(tsn, &mine));
        // Commit at ts 7.
        t.commit_insert(tsn, 7).unwrap();
        assert!(!t.is_deleted(tsn));
        assert_eq!(t.live_rows(), 6);
        assert!(t.row_visible(tsn, &SnapshotView::at(7)));
        assert!(!t.row_visible(tsn, &SnapshotView::at(6)));
        // Abort path leaves a permanent placeholder.
        let tsn2 = t
            .append_from_rows([(row![101i64, "region-y", 2.0f64], pending(TxnId(2)), TS_NEVER)])
            .unwrap();
        t.abort_insert(tsn2).unwrap();
        assert!(t.is_deleted(tsn2));
        assert_eq!(t.live_rows(), 6);
        assert!(!t.row_visible(tsn2, &SnapshotView::at(u64::MAX >> 1)));
    }

    #[test]
    fn mvcc_delete_first_writer_wins() {
        let mut t = test_table();
        fill(&mut t, 5);
        let (a, b) = (TxnId(1), TxnId(2));
        assert!(t.mvcc_delete(Tsn(2), a, 0).unwrap());
        // Second deleter conflicts while the first is pending...
        let e = t.mvcc_delete(Tsn(2), b, 0).unwrap_err();
        assert_eq!(e.class(), "40001");
        // ...and still conflicts after the first commits (snapshot 0 < 5).
        t.commit_delete(Tsn(2), 5).unwrap();
        assert_eq!(t.live_rows(), 4);
        let e = t.mvcc_delete(Tsn(2), b, 0).unwrap_err();
        assert_eq!(e.class(), "40001");
        // A later snapshot that already saw the delete just skips the row.
        assert!(!t.mvcc_delete(Tsn(2), b, 5).unwrap());
        // Abort releases the pending mark.
        assert!(t.mvcc_delete(Tsn(3), a, 5).unwrap());
        t.abort_delete(Tsn(3)).unwrap();
        assert!(t.mvcc_delete(Tsn(3), b, 5).unwrap());
        assert_eq!(t.live_rows(), 4, "pending delete does not change live count");
    }

    #[test]
    fn restore_and_replay_enforce_consistency() {
        let mut t = test_table();
        let first = t
            .append_from_rows([
                (row![1i64, "a", 1.0f64], 3, TS_NEVER),
                (row![2i64, "b", 2.0f64], TS_NEVER, TS_NEVER),
            ])
            .unwrap();
        assert_eq!(first, Tsn(0));
        assert_eq!(t.live_rows(), 1, "aborted placeholder is not live");
        t.replay_delete(Tsn(0), 6).unwrap();
        assert_eq!(t.live_rows(), 0);
        assert!(t.replay_delete(Tsn(0), 7).is_err(), "double replay detected");
        assert!(t.replay_delete(Tsn(99), 7).is_err(), "out of range detected");
        // Visibility honors restored words: visible in [3, 6).
        assert!(t.row_visible(Tsn(0), &SnapshotView::at(3)));
        assert!(!t.row_visible(Tsn(0), &SnapshotView::at(6)));
        assert!(!t.has_pending());
    }

    #[test]
    fn a_bad_row_leaves_the_table_unchanged() {
        let mut t = test_table();
        fill(&mut t, STRIDE - 1);
        let before = t.clone();
        let rows = vec![
            (row![1i64, "a", 1.0f64], 0, TS_NEVER),
            (row![Datum::Null, "b", 2.0f64], 0, TS_NEVER),
        ];
        assert!(t.append_from_rows(rows).is_err(), "NOT NULL id");
        assert_eq!(t.total_rows(), before.total_rows());
        assert_eq!(t.live_rows(), before.live_rows());
        assert_eq!(t.open_values(0), before.open_values(0));
        assert_eq!(t.open_values(1), before.open_values(1));
        assert_eq!(t.insert_ts_words(), before.insert_ts_words());
        assert_eq!(t.delete_ts_words(), before.delete_ts_words());
        assert!(t.load_rows(vec![row![Datum::Null, "c", 0.0f64]]).is_err());
        assert_eq!(t.total_rows(), before.total_rows(), "a failed load keeps the old rows");
    }

    #[test]
    fn one_append_seals_every_full_stride_and_analyses_all_of_it() {
        // The first stride holds one value, the rest are distinct: a
        // stride-at-a-time analysis would pick a dictionary.
        let rows: Vec<Row> = (0..STRIDE * 3 + 5)
            .map(|i| {
                let id = if i < STRIDE { 0 } else { i as i64 };
                row![id, "r", 0.5f64]
            })
            .collect();
        let mut loaded = test_table();
        loaded.load_rows(rows.clone()).unwrap();
        let mut appended = test_table();
        fill(&mut appended, 7);
        let first = appended
            .append_from_rows(rows.into_iter().map(|r| (r, pending(TxnId(4)), TS_NEVER)))
            .unwrap();
        assert_eq!(first, Tsn(7));
        assert_eq!(appended.sealed_strides(), 3);
        assert_eq!(appended.open_len(), 7 + 5);
        assert_eq!(appended.live_rows(), 7, "pending inserts are not live");
        assert_eq!(loaded.encoding(0).unwrap().name(), "minus");
        assert_eq!(
            format!("{:?}", appended.encoding(0)),
            format!("{:?}", loaded.encoding(0))
        );
        assert!(appended.is_deleted(Tsn(STRIDE as u64 + 3)));
        assert!(appended.stride_deleted(0).unwrap().get(7));
        assert!(!appended.stride_deleted(0).unwrap().get(6));
        // Under a stride, only a LOAD decides the encodings.
        let mut small = test_table();
        fill(&mut small, 10);
        assert!(small.encoding(1).is_none());
        small.load_rows((0..10).map(|i| row![i as i64, "r", 0.5f64]).collect()).unwrap();
        assert!(small.str_pool(1).is_some());
    }

    #[test]
    fn stride_invisible_masks() {
        let mut t = test_table();
        fill(&mut t, STRIDE);
        let txn = TxnId(9);
        assert!(t.mvcc_delete(Tsn(10), txn, 0).unwrap());
        t.commit_delete(Tsn(10), 4).unwrap();
        // Before the delete's commit ts: everything visible.
        assert!(t.stride_invisible(0, &SnapshotView::at(3)).is_none());
        // At/after: exactly row 10 is masked.
        let bm = t.stride_invisible(0, &SnapshotView::at(4)).unwrap();
        assert!(bm.get(10));
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    fn stats_report() {
        let mut t = test_table();
        fill(&mut t, STRIDE * 2);
        let s = t.stats();
        assert_eq!(s.live_rows, (STRIDE * 2) as u64);
        assert_eq!(s.sealed_strides, 2);
        assert!(s.synopsis_bytes > 0);
        assert_eq!(s.column_ndv[1], Some(4));
    }
}
