//! Column-organized tables.
//!
//! A [`ColumnTable`] stores each column as a sequence of encoded blocks,
//! one per *stride* of [`STRIDE`] tuples. Incoming rows buffer in an open
//! (uncompressed) stride; when it fills, each column's slice is encoded and
//! the synopsis is extended. The first sealed stride triggers encoding
//! analysis; a bulk [`ColumnTable::load_rows`] analyzes the full data set
//! first (the LOAD path, which is how the paper's workloads arrive).
//!
//! Deletes mark a per-stride visibility bitmap; updates are delete+append —
//! the standard column-store write model, and the reason the engine "always
//! scans the data" rather than maintaining secondary indexes.

use crate::stats::TableStats;
use crate::synopsis::Synopsis;
use dash_common::ids::Tsn;
use dash_common::txn::{is_pending, pending, pending_owner, SnapshotView, TxnId, TS_NEVER};
use dash_common::{DashError, Datum, Result, Row, Schema};
use dash_encoding::bitmap::Bitmap;
use dash_encoding::column::{ColumnCompressor, ColumnEncoding, ColumnValues};
use dash_encoding::dict::FreqDict;
use dash_encoding::EncodedBlock;
use std::sync::Arc;

/// Tuples per stride — the paper collects skipping metadata "for
/// (approximately) 1K tuples".
pub const STRIDE: usize = 1024;

/// Per-column storage state.
#[derive(Debug, Clone)]
struct ColumnState {
    encoding: Option<ColumnEncoding>,
    blocks: Vec<EncodedBlock>,
    /// Shared handle on the string dictionary inside `encoding`, when the
    /// column is dictionary-coded. Cached so scans can attach it to output
    /// batches (the operate-on-compressed key path) without cloning the
    /// dictionary per query.
    str_dict: Option<Arc<FreqDict<Arc<str>>>>,
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
                    str_dict: None,
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

    /// Shared handle on the frequency dictionary backing string column
    /// `col`, if it is dictionary-coded. Joins and aggregates use this to
    /// key on packed dictionary codes instead of string bytes.
    pub fn str_dict(&self, col: usize) -> Option<&Arc<FreqDict<Arc<str>>>> {
        self.columns[col].str_dict.as_ref()
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

    /// Append one row (validated + coerced against the schema),
    /// non-transactionally: the row is immediately visible to every
    /// snapshot (pre-history timestamp `0`).
    pub fn insert(&mut self, row: Row) -> Result<Tsn> {
        self.append_row(row, 0, TS_NEVER, true)
    }

    /// Shared append path. `latest_visible` controls the latest-committed
    /// visibility bit (clear = visible to non-snapshot scans) and whether
    /// the row counts as live.
    fn append_row(&mut self, row: Row, ins: u64, del: u64, latest_visible: bool) -> Result<Tsn> {
        let row = row.coerce(&self.schema)?;
        let tsn = Tsn(self.total_rows());
        for (i, d) in row.values().iter().enumerate() {
            self.open[i].push_datum(self.schema.field(i).data_type, d)?;
        }
        self.open_deleted.push(!latest_visible);
        self.insert_ts.push(ins);
        self.delete_ts.push(del);
        self.open_rows += 1;
        if latest_visible {
            self.live_rows += 1;
        }
        if self.open_rows == STRIDE {
            self.seal_open_stride()?;
        }
        Ok(tsn)
    }

    /// Bulk load: analyze encodings over the *entire* data set first (best
    /// compression), then encode stride by stride. Replaces prior contents.
    pub fn load_rows(&mut self, rows: Vec<Row>) -> Result<u64> {
        // Stage all values per column.
        let mut staged: Vec<ColumnValues> = self
            .schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        let mut count = 0u64;
        for row in rows {
            let row = row.coerce(&self.schema)?;
            for (i, d) in row.values().iter().enumerate() {
                staged[i].push_datum(self.schema.field(i).data_type, d)?;
            }
            count += 1;
        }
        self.reset();
        // Global analysis.
        for (i, values) in staged.iter().enumerate() {
            let enc = self.compressor.analyze(values);
            self.columns[i].str_dict = str_dict_of(&enc);
            self.columns[i].encoding = Some(enc);
        }
        // Encode full strides.
        let n = count as usize;
        let full = n / STRIDE;
        for s in 0..full {
            let range = s * STRIDE..(s + 1) * STRIDE;
            for (i, values) in staged.iter().enumerate() {
                let enc = self.columns[i]
                    .encoding
                    .as_ref()
                    .ok_or_else(|| DashError::internal("column missing encoding after analysis"))?;
                let block = self.compressor.encode_block(enc, values, range.clone());
                self.synopsis
                    .push_stride(i, self.compressor.block_min_max(enc, &block)?, block.null_count() > 0);
                self.columns[i].blocks.push(block);
            }
            self.deleted.push(None);
        }
        // Remainder stays in the open stride.
        for (i, values) in staged.into_iter().enumerate() {
            self.open[i] = values.slice(full * STRIDE..n);
        }
        self.open_rows = n - full * STRIDE;
        self.open_deleted = vec![false; self.open_rows];
        self.live_rows = count;
        // Bulk-loaded rows are pre-history: visible to every snapshot.
        self.insert_ts = vec![0; n];
        self.delete_ts = vec![TS_NEVER; n];
        Ok(count)
    }

    fn reset(&mut self) {
        for c in &mut self.columns {
            c.encoding = None;
            c.str_dict = None;
            c.blocks.clear();
        }
        for (i, f) in self.schema.fields().iter().enumerate() {
            self.open[i] = ColumnValues::empty_for(f.data_type);
        }
        self.open_rows = 0;
        self.open_deleted.clear();
        self.deleted.clear();
        self.synopsis = Synopsis::new(self.schema.len());
        self.live_rows = 0;
        self.insert_ts.clear();
        self.delete_ts.clear();
    }

    fn seal_open_stride(&mut self) -> Result<()> {
        debug_assert_eq!(self.open_rows, STRIDE);
        for i in 0..self.columns.len() {
            if self.columns[i].encoding.is_none() {
                // First seal: analyze on what we have.
                let enc = self.compressor.analyze(&self.open[i]);
                self.columns[i].str_dict = str_dict_of(&enc);
                self.columns[i].encoding = Some(enc);
            }
        }
        for i in 0..self.columns.len() {
            let enc = self.columns[i]
                .encoding
                .as_ref()
                .ok_or_else(|| DashError::internal("column missing encoding after analysis"))?;
            let block = self
                .compressor
                .encode_block(enc, &self.open[i], 0..STRIDE);
            self.synopsis.push_stride(
                i,
                self.compressor.block_min_max(enc, &block)?,
                block.null_count() > 0,
            );
            self.columns[i].blocks.push(block);
            self.open[i] = ColumnValues::empty_for(self.schema.field(i).data_type);
        }
        // Carry open-stride deletes into the sealed bitmap.
        let any_deleted = self.open_deleted.iter().any(|&d| d);
        self.deleted.push(if any_deleted {
            Some(Bitmap::from_bools(self.open_deleted.iter().copied()))
        } else {
            None
        });
        self.open_deleted.clear();
        self.open_rows = 0;
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

    /// Update a row: delete + re-append with `new_values` applied at the
    /// given column ordinals. Returns the new TSN.
    pub fn update(&mut self, tsn: Tsn, changes: &[(usize, Datum)]) -> Result<Tsn> {
        let mut row = self.get_row(tsn)?;
        if !self.delete(tsn)? {
            return Err(DashError::exec(format!("row {tsn} already deleted")));
        }
        for (col, val) in changes {
            row.0[*col] = val.clone();
        }
        self.insert(row)
    }

    // ------------------------------------------------------------------
    // MVCC: transactional writes, commit/abort stamping, WAL replay, and
    // snapshot visibility. The latest-committed bitmap (`deleted` /
    // `open_deleted`) stays authoritative for non-snapshot scans: pending
    // inserts keep their bit SET (invisible) until commit, pending deletes
    // leave it CLEAR until commit, and `live_rows` moves only at commit.
    // ------------------------------------------------------------------

    /// Append a row on behalf of an in-flight transaction. The row is
    /// invisible to everyone but `txn` until [`ColumnTable::commit_insert`].
    pub fn mvcc_insert(&mut self, row: Row, txn: TxnId) -> Result<Tsn> {
        self.append_row(row, pending(txn), TS_NEVER, false)
    }

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

    /// Recovery/checkpoint restore: append a row at exactly `tsn` with
    /// explicit timestamp words. Errors if `tsn` is not the next position —
    /// that means the log and the store disagree about history.
    pub fn restore_row(&mut self, tsn: Tsn, row: Row, ins: u64, del: u64) -> Result<()> {
        if tsn.0 != self.total_rows() {
            return Err(DashError::internal(format!(
                "log/store inconsistency: restore of {tsn} but table \"{}\" has {} rows",
                self.name,
                self.total_rows()
            )));
        }
        // No transaction is in flight during recovery, so a word is either
        // a committed timestamp or TS_NEVER.
        let visible = ins != TS_NEVER && del == TS_NEVER;
        self.append_row(row, ins, del, visible)?;
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
        let (enc, block) = self.encoded(col, stride)?;
        self.compressor.decode_block(enc, block)
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

/// Shared dictionary handle for a freshly analyzed encoding, if any.
fn str_dict_of(enc: &ColumnEncoding) -> Option<Arc<FreqDict<Arc<str>>>> {
    match enc {
        ColumnEncoding::StrDict { dict, .. } => Some(Arc::new(dict.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

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
    fn update_is_delete_plus_append() {
        let mut t = test_table();
        fill(&mut t, 5);
        let new_tsn = t.update(Tsn(2), &[(2, Datum::Float(99.0))]).unwrap();
        assert!(t.is_deleted(Tsn(2)));
        let row = t.get_row(new_tsn).unwrap();
        assert_eq!(row.get(0), &Datum::Int(2), "unchanged column kept");
        assert_eq!(row.get(2), &Datum::Float(99.0));
        assert_eq!(t.live_rows(), 5);
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
        assert_eq!(t.encoding(1).unwrap().name(), "prefix+frequency-dict");
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
        let tsn = t.mvcc_insert(row![100i64, "region-x", 1.0f64], txn).unwrap();
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
        let tsn2 = t.mvcc_insert(row![101i64, "region-y", 2.0f64], TxnId(2)).unwrap();
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
        t.restore_row(Tsn(0), row![1i64, "a", 1.0f64], 3, TS_NEVER).unwrap();
        t.restore_row(Tsn(1), row![2i64, "b", 2.0f64], TS_NEVER, TS_NEVER)
            .unwrap();
        assert_eq!(t.live_rows(), 1, "aborted placeholder is not live");
        // Gap in positions is a log/store inconsistency.
        assert!(t.restore_row(Tsn(5), row![9i64, "z", 0.0f64], 4, TS_NEVER).is_err());
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
