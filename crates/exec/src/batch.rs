//! Columnar batches flowing between operators.
//!
//! Operators exchange data as column-major batches; rows are materialized
//! only at plan edges (results, inserts, shuffles). Batch sizes follow the
//! stride length so a scan emits one batch per surviving stride.

use std::sync::Arc;

use dash_common::{DashError, DataType, Datum, Result, Row, Schema};
use dash_encoding::column::ColumnValues;
use dash_encoding::dict::FreqDict;

/// A column-major batch of rows sharing one schema.
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Schema,
    columns: Vec<ColumnValues>,
    len: usize,
    /// Per-column string dictionaries, when the column is backed by a
    /// frequency-partitioned dictionary in storage. Empty means "none known".
    /// Dictionaries are advisory metadata for the operate-on-compressed key
    /// path; they never affect the values a batch holds.
    dicts: Vec<Option<Arc<FreqDict<Arc<str>>>>>,
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        // Dictionaries are advisory metadata, not data: two batches holding
        // the same values are equal regardless of dictionary attachment.
        self.schema == other.schema && self.columns == other.columns && self.len == other.len
    }
}

impl Batch {
    /// Build from columns. All columns must have the same length and match
    /// the schema's arity.
    pub fn new(schema: Schema, columns: Vec<ColumnValues>) -> Result<Batch> {
        if columns.len() != schema.len() {
            return Err(DashError::internal(format!(
                "batch has {} columns, schema has {}",
                columns.len(),
                schema.len()
            )));
        }
        let len = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != len) {
            return Err(DashError::internal("batch columns have unequal lengths"));
        }
        Ok(Batch {
            schema,
            columns,
            len,
            dicts: Vec::new(),
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        Batch {
            schema,
            columns,
            len: 0,
            dicts: Vec::new(),
        }
    }

    /// Build a batch from rows (validated against the schema).
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Result<Batch> {
        let mut columns: Vec<ColumnValues> = schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(DashError::internal(format!(
                    "row arity {} vs schema {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (i, d) in row.values().iter().enumerate() {
                columns[i].push_datum(schema.field(i).data_type, d)?;
            }
        }
        let len = rows.len();
        Ok(Batch {
            schema,
            columns,
            len,
            dicts: Vec::new(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnValues] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnValues {
        &self.columns[i]
    }

    /// The datum at (row, col).
    pub fn value(&self, row: usize, col: usize) -> Datum {
        self.columns[col].datum_at(self.schema.field(col).data_type, row)
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row::new(
            (0..self.schema.len())
                .map(|c| self.value(i, c))
                .collect(),
        )
    }

    /// Materialize all rows.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Keep only the rows at `positions` (ascending), producing a new batch.
    pub fn take(&self, positions: &[usize]) -> Batch {
        let columns = self
            .columns
            .iter()
            .map(|c| take_column(c, positions))
            .collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            len: positions.len(),
            dicts: self.dicts.clone(),
        }
    }

    /// Project columns by ordinal.
    pub fn project(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
            dicts: indices
                .iter()
                .map(|&i| self.dicts.get(i).cloned().flatten())
                .collect(),
        }
    }

    /// Rows `rows` of the columns at `indices`, in that order, under
    /// `schema` (whose field types the caller has matched to the picked
    /// columns). Like [`Batch::from_rows`], and unlike [`Batch::project`],
    /// the result carries no dictionaries.
    pub fn slice_columns(
        &self,
        indices: &[usize],
        rows: std::ops::Range<usize>,
        schema: Schema,
    ) -> Batch {
        Batch {
            schema,
            columns: indices.iter().map(|&i| self.columns[i].slice(rows.clone())).collect(),
            len: rows.len(),
            dicts: Vec::new(),
        }
    }

    /// Attach the storage dictionary backing string column `col`.
    ///
    /// The dictionary is advisory: key-path code in `join`/`agg` uses it to
    /// hash packed dictionary codes instead of string bytes, and falls back
    /// to raw values when it is absent.
    pub fn set_str_dict(&mut self, col: usize, dict: Arc<FreqDict<Arc<str>>>) {
        if self.dicts.len() < self.schema.len() {
            self.dicts.resize(self.schema.len(), None);
        }
        self.dicts[col] = Some(dict);
    }

    /// The storage dictionary backing string column `col`, if known.
    pub fn str_dict(&self, col: usize) -> Option<&Arc<FreqDict<Arc<str>>>> {
        self.dicts.get(col).and_then(|d| d.as_ref())
    }

    /// Concatenate batches of identical schemas.
    pub fn concat(schema: Schema, batches: &[Batch]) -> Result<Batch> {
        let rows: Vec<Row> = batches.iter().flat_map(|b| b.to_rows()).collect();
        Batch::from_rows(schema, &rows)
    }

    /// Concatenate batches column-at-a-time, preserving dictionary
    /// metadata — the pipeline sinks' stitch step. Unlike [`Batch::concat`]
    /// this never round-trips through rows, and a column keeps its
    /// dictionary when every non-empty input agrees on it (pointer
    /// identity), so the operate-on-compressed key path survives the seam.
    pub fn concat_columnar(schema: Schema, batches: Vec<Batch>) -> Result<Batch> {
        let ncols = schema.len();
        let mut dicts: Vec<Option<Arc<FreqDict<Arc<str>>>>> = vec![None; ncols];
        let mut dicts_seeded = false;
        let mut columns: Vec<ColumnValues> = schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        let mut len = 0usize;
        for b in batches {
            if b.schema.len() != ncols {
                return Err(DashError::internal(format!(
                    "concat arity mismatch: batch has {} columns, schema has {ncols}",
                    b.schema.len()
                )));
            }
            if b.is_empty() {
                continue;
            }
            // Dictionary vote: first non-empty batch seeds, later batches
            // must match by pointer or the column's dictionary is dropped.
            if !dicts_seeded {
                for (c, slot) in dicts.iter_mut().enumerate() {
                    *slot = b.str_dict(c).cloned();
                }
                dicts_seeded = true;
            } else {
                for (c, slot) in dicts.iter_mut().enumerate() {
                    let same = match (slot.as_ref(), b.str_dict(c)) {
                        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                        (None, None) => true,
                        _ => false,
                    };
                    if !same {
                        *slot = None;
                    }
                }
            }
            len += b.len;
            for (dst, src) in columns.iter_mut().zip(b.columns) {
                dst.extend_from(src);
            }
        }
        let mut out = Batch {
            schema,
            columns,
            len,
            dicts: Vec::new(),
        };
        for (c, dict) in dicts.into_iter().enumerate() {
            if let Some(d) = dict {
                out.set_str_dict(c, d);
            }
        }
        Ok(out)
    }

    /// Rough heap footprint of the batch, for inflight-memory accounting.
    /// An estimate on purpose (like `approx_datum_bytes`): it bounds
    /// growth, it is not an allocator.
    pub fn approx_bytes(&self) -> u64 {
        self.columns.iter().map(column_bytes).sum()
    }

    /// Column `i`, or a classified internal error when the ordinal is out
    /// of range — the checked cousin of [`Batch::column`] for plan-driven
    /// lookups where the ordinal came from a decomposed plan rather than a
    /// validated schema.
    pub fn try_column(&self, i: usize) -> Result<&ColumnValues> {
        self.columns.get(i).ok_or_else(|| {
            DashError::internal(format!(
                "column ordinal {i} out of range for {}-column batch",
                self.columns.len()
            ))
        })
    }
}

/// Append `v`, which an expression of declared type `dt` evaluated to, to
/// a column of that type. The analyzer made every expression evaluate to
/// its declared type, so nothing is converted here; a debug build checks.
pub(crate) fn push_typed(col: &mut ColumnValues, dt: DataType, v: &Datum) -> Result<()> {
    debug_assert!(v.has_type(dt), "{v:?} is not a {dt} value");
    col.push_datum(dt, v)
}

/// Rough heap footprint of one column (see [`Batch::approx_bytes`]).
pub(crate) fn column_bytes(c: &ColumnValues) -> u64 {
    match c {
        ColumnValues::Int(v) => (v.len() * 9) as u64,
        ColumnValues::Float(v) => (v.len() * 9) as u64,
        ColumnValues::Str(v) => v.iter().map(|s| str_bytes(s.as_deref())).sum(),
    }
}

/// Rough heap footprint of one string value.
pub(crate) fn str_bytes(s: Option<&str>) -> u64 {
    16 + s.map_or(0, |s| s.len()) as u64
}

fn take_column(c: &ColumnValues, positions: &[usize]) -> ColumnValues {
    match c {
        ColumnValues::Int(v) => {
            ColumnValues::Int(positions.iter().map(|&p| v[p]).collect())
        }
        ColumnValues::Float(v) => {
            ColumnValues::Float(positions.iter().map(|&p| v[p]).collect())
        }
        ColumnValues::Str(v) => {
            ColumnValues::Str(positions.iter().map(|&p| v[p].clone()).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .unwrap()
    }

    #[test]
    fn rows_roundtrip() {
        let rows = vec![row![1i64, "a"], row![2i64, Datum::Null]];
        let b = Batch::from_rows(schema(), &rows).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.value(1, 1), Datum::Null);
    }

    #[test]
    fn take_and_project() {
        let rows = vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]];
        let b = Batch::from_rows(schema(), &rows).unwrap();
        let t = b.take(&[0, 2]);
        assert_eq!(t.to_rows(), vec![row![1i64, "a"], row![3i64, "c"]]);
        let p = t.project(&[1]);
        assert_eq!(p.schema().field(0).name, "NAME");
        assert_eq!(p.row(1), row!["c"]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = Batch::from_rows(schema(), &[row![1i64]]);
        assert!(r.is_err());
        let cols = vec![ColumnValues::Int(vec![Some(1)])];
        assert!(Batch::new(schema(), cols).is_err());
    }

    #[test]
    fn unequal_columns_rejected() {
        let cols = vec![
            ColumnValues::Int(vec![Some(1), Some(2)]),
            ColumnValues::Str(vec![None]),
        ];
        assert!(Batch::new(schema(), cols).is_err());
    }

    #[test]
    fn concat_batches() {
        let a = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        let b = Batch::from_rows(schema(), &[row![2i64, "b"]]).unwrap();
        let c = Batch::concat(schema(), &[a, b]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn concat_columnar_matches_row_concat_and_keeps_dicts() {
        let vals: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let dict = Arc::new(FreqDict::build(
            &dash_encoding::histogram::Histogram::from_values(vals.iter().map(Some)),
        ));
        let mut a = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        a.set_str_dict(1, dict.clone());
        let mut b = Batch::from_rows(schema(), &[row![2i64, "b"], row![3i64, Datum::Null]]).unwrap();
        b.set_str_dict(1, dict.clone());
        let rowwise = Batch::concat(schema(), &[a.clone(), b.clone()]).unwrap();
        let colwise = Batch::concat_columnar(schema(), vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(colwise.to_rows(), rowwise.to_rows());
        assert!(
            colwise
                .str_dict(1)
                .is_some_and(|d| Arc::ptr_eq(d, &dict)),
            "agreeing dictionaries survive the seam"
        );
        // Disagreeing dictionaries are dropped, values unharmed.
        let zvals: Vec<Arc<str>> = vec![Arc::from("z")];
        let other = Arc::new(FreqDict::build(
            &dash_encoding::histogram::Histogram::from_values(zvals.iter().map(Some)),
        ));
        let mut b2 = b.clone();
        b2.set_str_dict(1, other);
        let mixed = Batch::concat_columnar(schema(), vec![a, b2]).unwrap();
        assert!(mixed.str_dict(1).is_none());
        assert_eq!(mixed.to_rows(), rowwise.to_rows());
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, "x".repeat(50)]).collect();
        let big = Batch::from_rows(schema(), &rows).unwrap();
        assert!(big.approx_bytes() > small.approx_bytes() * 50);
    }

    #[test]
    fn try_column_classifies_out_of_range() {
        let b = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        assert!(b.try_column(1).is_ok());
        let err = b.try_column(2).unwrap_err();
        assert_eq!(err.class(), "XX000", "internal classification: {err}");
    }
}
