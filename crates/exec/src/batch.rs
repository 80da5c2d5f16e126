//! Columnar batches flowing between operators.
//!
//! Operators exchange data as column-major batches; rows are materialized
//! only at plan edges (results, inserts, shuffles). Batch sizes follow the
//! stride length so a scan emits one batch per surviving stride. A string
//! column is codes into a pool it shares ([`dash_encoding::strs`]): moving
//! one copies codes, and a value becomes an `Arc<str>` only at an edge.

use dash_common::{DashError, DataType, Datum, Result, Row, Schema};
use dash_encoding::column::ColumnValues;

/// A column-major batch of rows sharing one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Schema,
    columns: Vec<ColumnValues>,
    /// Rows: every column's length, and the row count of a batch of no
    /// columns.
    len: usize,
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
        Ok(Batch { schema, columns, len })
    }

    /// `len` rows of no columns — what a scan that projects nothing emits,
    /// and what `COUNT(*)` counts.
    pub fn rows_only(len: usize) -> Batch {
        Batch { len, ..Batch::empty(Schema::empty()) }
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Batch {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnValues::empty_for(f.data_type))
            .collect();
        Batch { schema, columns, len: 0 }
    }

    /// One row of no columns: what a FROM-less SELECT reads, and the row
    /// a standalone expression is evaluated over.
    pub fn unit() -> Batch {
        Batch::rows_only(1)
    }

    /// Build a batch from rows (validated against the schema).
    pub fn from_rows(schema: Schema, rows: &[Row]) -> Result<Batch> {
        let mut batch = Batch { len: rows.len(), ..Batch::empty(schema) };
        let fields = batch.schema.fields();
        for row in rows {
            if row.len() != fields.len() {
                let msg = format!("row arity {} vs schema {}", row.len(), fields.len());
                return Err(DashError::internal(msg));
            }
            for ((column, f), d) in batch.columns.iter_mut().zip(fields).zip(row.values()) {
                column.push_datum(f.data_type, d)?;
            }
        }
        Ok(batch)
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

    /// The columns, moved out.
    pub fn into_columns(self) -> Vec<ColumnValues> {
        self.columns
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

    /// The rows at `positions`, in that order, as a new batch.
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
        }
    }

    /// Project columns by ordinal.
    pub fn project(&self, indices: &[usize]) -> Batch {
        Batch {
            schema: self.schema.project(indices),
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
        }
    }

    /// This batch's columns followed by `column`, under `schema` (which
    /// names the new column).
    pub fn with_column(&self, schema: Schema, column: ColumnValues) -> Result<Batch> {
        let mut columns = self.columns.clone();
        columns.push(column);
        Batch::new(schema, columns)
    }

    /// Concatenate batches of one schema column-at-a-time — UNION ALL and
    /// the pipeline sinks' stitch step. String columns of one pool (or of
    /// one dictionary) copy their codes; any other is re-coded once per
    /// distinct (pool, code).
    pub fn concat_columnar(schema: Schema, batches: Vec<Batch>) -> Result<Batch> {
        let ncols = schema.len();
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
            len += b.len;
            for (dst, src) in columns.iter_mut().zip(b.columns) {
                dst.extend_from(src);
            }
        }
        Ok(Batch { schema, columns, len })
    }

    /// Rough heap footprint of the batch, for inflight-memory accounting.
    /// An estimate on purpose: it bounds growth, it is not an allocator.
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
        // A code per row, and the pool's local values (its dictionary is
        // the table's).
        ColumnValues::Str(v) => 4 * v.len() as u64 + v.pool().local_bytes(),
    }
}

fn take_column(c: &ColumnValues, positions: &[usize]) -> ColumnValues {
    match c {
        ColumnValues::Int(v) => {
            ColumnValues::Int(positions.iter().map(|&p| v[p]).collect())
        }
        ColumnValues::Float(v) => {
            ColumnValues::Float(positions.iter().map(|&p| v[p]).collect())
        }
        ColumnValues::Str(v) => ColumnValues::Str(v.take(positions)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};
    use dash_encoding::dict::FreqDict;
    use dash_encoding::histogram::Histogram;
    use dash_encoding::strs::{StrColumn, StrPool};
    use std::sync::Arc;

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
            ColumnValues::Str(StrColumn::from_values([None])),
        ];
        assert!(Batch::new(schema(), cols).is_err());
    }

    #[test]
    fn concat_batches() {
        let a = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        let b = Batch::from_rows(schema(), &[row![2i64, "b"]]).unwrap();
        let c = Batch::concat_columnar(schema(), vec![a, b]).unwrap();
        assert_eq!(c.to_rows(), vec![row![1i64, "a"], row![2i64, "b"]]);
    }

    /// `rows` as a batch whose string column is codes of `pool`.
    fn pooled(rows: &[Row], pool: &Arc<StrPool>) -> Batch {
        let b = Batch::from_rows(schema(), rows).unwrap();
        let ColumnValues::Str(names) = b.column(1) else { panic!("a string column") };
        let names = names.repool(pool.dict().clone());
        Batch::new(schema(), vec![b.column(0).clone(), ColumnValues::Str(names)]).unwrap()
    }

    fn names_pool(b: &Batch) -> &Arc<StrPool> {
        let ColumnValues::Str(names) = b.column(1) else { panic!("a string column") };
        names.pool()
    }

    #[test]
    fn concat_columnar_matches_row_concat_and_keeps_shared_pools() {
        let vals: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let dict = FreqDict::build(&Histogram::from_values(vals.iter().map(Some)));
        let pool = StrPool::for_dict(Arc::new(dict));
        let a = pooled(&[row![1i64, "a"]], &pool);
        let b = pooled(&[row![2i64, "b"], row![3i64, Datum::Null]], &pool);
        let rowwise = Batch::from_rows(schema(), &[a.to_rows(), b.to_rows()].concat()).unwrap();
        let colwise = Batch::concat_columnar(schema(), vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(colwise.to_rows(), rowwise.to_rows());
        assert!(Arc::ptr_eq(names_pool(&colwise), names_pool(&a)), "one dictionary's codes survive the seam");
        // Another dictionary's values re-code into this one's pool.
        let other = StrPool::for_dict(Arc::new(FreqDict::build(&Histogram::from_values([Arc::from("z")].iter().map(Some)))));
        let z = pooled(&[row![4i64, "z"], row![5i64, "b"]], &other);
        let mixed = Batch::concat_columnar(schema(), vec![a.clone(), b, z]).unwrap();
        assert!(names_pool(&mixed).same_domain(&pool));
        let ColumnValues::Str(names) = mixed.column(1) else { panic!("a string column") };
        assert_eq!(names.codes()[4], names.codes()[1], "`b` is the dictionary's code in both halves");
        assert_eq!(names.get(3), Some("z"));
        assert_eq!(mixed.to_rows()[..3], rowwise.to_rows()[..]);
    }

    #[test]
    fn rows_only_batches_have_rows_and_no_columns() {
        let b = Batch::rows_only(7);
        assert_eq!((b.len(), b.schema().len()), (7, 0));
        assert_eq!(b.take(&[0, 3]).len(), 2);
        let c = Batch::concat_columnar(Schema::empty(), vec![b, Batch::rows_only(2)]).unwrap();
        assert_eq!(c.len(), 9);
        assert_eq!(c.to_rows(), vec![Row::new(vec![]); 9]);
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = Batch::from_rows(schema(), &[row![1i64, "a"]]).unwrap();
        // Distinct values: a pool holds a repeated one once.
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64, format!("{i:050}")]).collect();
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
