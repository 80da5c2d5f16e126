//! The partitioned dataset API (RDD/DataFrame substitute).
//!
//! A [`Dataset`] is a schema-typed collection split into partitions; wide
//! operations run partition-parallel on the engine's morsel pool (one
//! morsel and one worker per partition), mirroring how the integrated
//! Spark workers process one local shard's data each. A closure that
//! panics fails its operation with a classified internal error.

use dash_common::{DashError, Datum, Result, Row, Schema, StatementContext};
use dash_exec::pool;

/// A partitioned collection of rows.
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    partitions: Vec<Vec<Row>>,
}

impl Dataset {
    /// Build from explicit partitions.
    pub fn from_partitions(schema: Schema, partitions: Vec<Vec<Row>>) -> Dataset {
        Dataset { schema, partitions }
    }

    /// Build from rows, splitting into `n` round-robin partitions.
    pub fn from_rows(schema: Schema, rows: Vec<Row>, n: usize) -> Dataset {
        let n = n.max(1);
        let mut partitions: Vec<Vec<Row>> = vec![Vec::new(); n];
        for (i, r) in rows.into_iter().enumerate() {
            partitions[i % n].push(r);
        }
        Dataset { schema, partitions }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Vec<Row>] {
        &self.partitions
    }

    /// Total rows.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    /// Gather all rows (a `collect()` — the action that moves data to the
    /// driver).
    pub fn collect(&self) -> Vec<Row> {
        self.partitions.iter().flatten().cloned().collect()
    }

    /// Map rows partition-parallel.
    pub fn map(&self, f: impl Fn(&Row) -> Row + Sync) -> Result<Dataset> {
        self.map_with_schema(self.schema.clone(), f)
    }

    /// Map with an explicit output schema (projection/feature extraction).
    pub fn map_with_schema(
        &self,
        schema: Schema,
        f: impl Fn(&Row) -> Row + Sync,
    ) -> Result<Dataset> {
        let partitions = self.par_partitions(|p| p.iter().map(&f).collect())?;
        Ok(Dataset { schema, partitions })
    }

    /// Filter rows partition-parallel.
    pub fn filter(&self, f: impl Fn(&Row) -> bool + Sync) -> Result<Dataset> {
        let partitions = self.par_partitions(|p| p.iter().filter(|r| f(r)).cloned().collect())?;
        Ok(Dataset {
            schema: self.schema.clone(),
            partitions,
        })
    }

    /// Aggregate: map each partition to a partial with `seq`, then fold
    /// partials with `comb` — Spark's `treeAggregate` shape, and exactly
    /// how the distributed ML below computes gradients.
    pub fn aggregate<A: Send>(
        &self,
        init: impl Fn() -> A + Sync,
        seq: impl Fn(A, &Row) -> A + Sync,
        comb: impl Fn(A, A) -> A,
    ) -> Result<A> {
        let partials = self.par_partitions(|p| p.iter().fold(init(), &seq))?;
        let mut it = partials.into_iter();
        let first = it.next().unwrap_or_else(&init);
        Ok(it.fold(first, comb))
    }

    /// Sum of a numeric column.
    pub fn sum_column(&self, col: usize) -> Result<f64> {
        self.aggregate(
            || 0.0,
            |acc, r| acc + r.get(col).as_float().unwrap_or(0.0),
            |a, b| a + b,
        )
    }

    /// Extract an f64 feature matrix + target vector for ML: `features`
    /// columns become the x vector, `target` the label. NULL-containing
    /// rows are dropped.
    pub fn to_features(&self, features: &[usize], target: usize) -> Result<FeatureSet> {
        for &c in features.iter().chain(std::iter::once(&target)) {
            if c >= self.schema.len() {
                return Err(DashError::analysis(format!(
                    "feature column {c} out of range"
                )));
            }
        }
        let mut partitions = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            let mut xs = Vec::with_capacity(p.len());
            let mut ys = Vec::with_capacity(p.len());
            for row in p {
                let mut x = Vec::with_capacity(features.len());
                let mut ok = true;
                for &c in features {
                    match row.get(c).as_float() {
                        Some(v) => x.push(v),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let y = row.get(target).as_float();
                if ok {
                    if let Some(y) = y {
                        xs.push(x);
                        ys.push(y);
                    }
                }
            }
            partitions.push((xs, ys));
        }
        Ok(FeatureSet {
            dim: features.len(),
            partitions,
        })
    }

    /// `f` over every partition, one pool morsel each, in partition order.
    fn par_partitions<T: Send>(&self, f: impl Fn(&[Row]) -> T + Sync) -> Result<Vec<T>> {
        let parts = &self.partitions;
        let run = pool::run_morsels(parts.len(), parts.len(), StatementContext::ambient(), |i| {
            Ok(f(&parts[i]))
        })?;
        Ok(run.results)
    }
}

/// Numeric features partitioned like their source dataset.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// Feature dimension.
    pub dim: usize,
    /// Per partition: (feature vectors, targets).
    pub partitions: Vec<(Vec<Vec<f64>>, Vec<f64>)>,
}

impl FeatureSet {
    /// Total observations.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|(x, _)| x.len()).sum()
    }

    /// True when no observations exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Convenience for tests: a single-column i64 dataset.
pub fn int_dataset(values: &[i64], parts: usize) -> Dataset {
    use dash_common::{Field, row};
    let schema = Schema::new(vec![Field::new("V", dash_common::DataType::Int64)])
        .expect("single column");
    let rows: Vec<Row> = values.iter().map(|&v| row![v]).collect();
    let _ = Datum::Null; // keep the import used in all cfgs
    Dataset::from_rows(schema, rows, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    #[test]
    fn partitioning_and_count() {
        let d = int_dataset(&(0..100).collect::<Vec<_>>(), 7);
        assert_eq!(d.partition_count(), 7);
        assert_eq!(d.count(), 100);
        assert_eq!(d.collect().len(), 100);
    }

    #[test]
    fn map_filter_pipeline() {
        let d = int_dataset(&(0..100).collect::<Vec<_>>(), 4);
        let out = d
            .map(|r| row![r.get(0).as_int().unwrap() * 2])
            .unwrap()
            .filter(|r| r.get(0).as_int().unwrap() % 40 == 0)
            .unwrap();
        // doubled values 0..200 step 2; multiples of 40: 0,40,..,160 -> 5
        assert_eq!(out.count(), 5);
    }

    #[test]
    fn aggregate_tree_shape() {
        let d = int_dataset(&(1..=100).collect::<Vec<_>>(), 8);
        let sum = d.aggregate(
            || 0i64,
            |a, r| a + r.get(0).as_int().unwrap(),
            |a, b| a + b,
        );
        assert_eq!(sum.unwrap(), 5050);
        assert_eq!(d.sum_column(0).unwrap(), 5050.0);
    }

    #[test]
    fn panicking_map_is_a_classified_error() {
        for parts in [1usize, 4] {
            let d = int_dataset(&(0..100).collect::<Vec<_>>(), parts);
            let err = d
                .map(|r| match r.get(0).as_int() {
                    Some(42) => panic!("deliberate map panic"),
                    _ => r.clone(),
                })
                .unwrap_err();
            assert_eq!(err.class(), "XX000", "{parts} partitions: {err}");
            assert!(err.to_string().contains("deliberate map panic"), "{err}");
        }
    }

    #[test]
    fn features_drop_nulls() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let rows = vec![
            row![1.0f64, 2.0f64],
            row![Datum::Null, 3.0f64],
            row![2.0f64, Datum::Null],
            row![4.0f64, 5.0f64],
        ];
        let d = Dataset::from_rows(schema, rows, 2);
        let fs = d.to_features(&[0], 1).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs.dim, 1);
        assert!(d.to_features(&[9], 1).is_err());
    }

    #[test]
    fn empty_dataset_safe() {
        let d = int_dataset(&[], 3);
        assert_eq!(d.count(), 0);
        assert_eq!(d.sum_column(0).unwrap(), 0.0);
        assert!(d.to_features(&[0], 0).unwrap().is_empty());
    }
}
