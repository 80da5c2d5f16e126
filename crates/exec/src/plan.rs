//! The physical operator tree.
//!
//! Plans are built by the SQL planner (crate `dash-sql`) or directly by
//! embedding code. [`execute`] has one path: [`crate::pipeline`] decomposes
//! the tree into morsel-driven pipelines — every node is a pipeline source,
//! a per-morsel stage, or a breaker whose finished batch feeds the next
//! pipeline — and runs them on the shared worker pool.

use crate::agg::AggExpr;
use crate::batch::Batch;
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::join::JoinType;
use crate::key::KeyMode;
use crate::pipeline;
use crate::scan::ScanConfig;
use crate::sort::SortKey;
use crate::stats::ExecStats;
use dash_common::{DataType, Field, Result, Schema};
use dash_storage::table::ColumnTable;
use parking_lot::RwLock;
use std::sync::Arc;

/// A shared handle to a column table (the catalog owns these).
pub type SharedTable = Arc<RwLock<ColumnTable>>;

/// A physical query plan.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Columnar table scan with pushed-down predicates.
    ColumnScan {
        /// The table.
        table: SharedTable,
        /// Scan configuration (predicates, projection, pool).
        config: ScanConfig,
    },
    /// A batch built at plan time: the `VALUES` clause, `SELECT ... FROM
    /// DUAL`, a FROM-less SELECT's one empty row, or a bound relation.
    Values(Batch),
    /// Row filter by a boolean expression.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// The predicate.
        predicate: Expr,
    },
    /// Expression projection.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// One expression per output column.
        exprs: Vec<Expr>,
        /// Output schema (names/types decided by the planner).
        schema: Schema,
    },
    /// Hash join: `right` is built and frozen, `left` streams through it.
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Key pairs (left ordinal, right ordinal).
        on: Vec<(usize, usize)>,
        /// Join type.
        join_type: JoinType,
        /// `EXPLAIN` label: `Encoded` when every pair's two columns share
        /// a key domain, `Datum` when some pair is lifted into one.
        key_mode: KeyMode,
        /// Worker-pool width for build partitioning and probe morsels.
        parallelism: usize,
    },
    /// Hash aggregation: per-morsel partials merged in morsel order.
    HashAggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Group key column ordinals of the input.
        group: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
        /// Output schema: group columns then aggregate columns.
        schema: Schema,
        /// `EXPLAIN` label: `Encoded` when there is a group key, `Datum`
        /// for a global aggregate.
        key_mode: KeyMode,
        /// Worker-pool width for the partial-aggregate morsels.
        parallelism: usize,
    },
    /// Sort with optional LIMIT/OFFSET.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys (may be empty for pure LIMIT).
        keys: Vec<SortKey>,
        /// Row limit.
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
        /// Worker-pool width for run generation, merge, and gather.
        parallelism: usize,
        /// The largest parallel sort run (the size is derived from the
        /// input, see `sort::SortOptions::run_rows`).
        run_rows: usize,
    },
    /// Concatenation of same-schema inputs (UNION ALL).
    UnionAll {
        /// Inputs.
        inputs: Vec<PhysicalPlan>,
    },
    /// Append a 1-based BIGINT row-number column (Oracle ROWNUM).
    RowNumber {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Name of the appended column (usually "ROWNUM").
        name: String,
    },
    /// Cartesian product.
    CrossJoin {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
    },
    /// Oracle hierarchical query (`START WITH ... CONNECT BY PRIOR`).
    /// Appends a BIGINT `LEVEL` column.
    ConnectBy {
        /// Input rows (the whole relation).
        input: Box<PhysicalPlan>,
        /// Root predicate (START WITH).
        start_with: Expr,
        /// Parent-key column ordinal (the PRIOR side).
        parent: usize,
        /// Child-key column ordinal (rows join parents via
        /// `child_row[child] = parent_row[parent]`).
        child: usize,
    },
}

impl PhysicalPlan {
    /// The output schema of this plan node.
    pub fn schema(&self) -> Schema {
        match self {
            PhysicalPlan::ColumnScan { table, config } => {
                table.read().schema().project(&config.projection)
            }
            PhysicalPlan::Values(batch) => batch.schema().clone(),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            } => match join_type {
                JoinType::Inner | JoinType::Left => left.schema().join(&right.schema()),
                JoinType::Semi | JoinType::Anti => left.schema(),
            },
            PhysicalPlan::HashAggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::UnionAll { inputs } => inputs
                .first()
                .map(|p| p.schema())
                .unwrap_or_else(|| Schema::new_unchecked(Vec::new())),
            PhysicalPlan::RowNumber { input, name } => {
                let mut fields = input.schema().fields().to_vec();
                fields.push(dash_common::Field::not_null(
                    name.clone(),
                    dash_common::DataType::Int64,
                ));
                Schema::new_unchecked(fields)
            }
            PhysicalPlan::CrossJoin { left, right } => left.schema().join(&right.schema()),
            PhysicalPlan::ConnectBy { input, .. } => {
                let mut fields = input.schema().fields().to_vec();
                fields.push(dash_common::Field::not_null(
                    "LEVEL",
                    dash_common::DataType::Int64,
                ));
                Schema::new_unchecked(fields)
            }
        }
    }

    /// One-line-per-node EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::ColumnScan { table, config } => {
                let t = table.read();
                out.push_str(&format!(
                    "{pad}ColumnScan {} preds={} residual={} proj={:?} skipping={}\n",
                    t.name(),
                    config.predicates.len(),
                    config.residual.is_some(),
                    config.projection,
                    !config.disable_skipping,
                ));
            }
            PhysicalPlan::Values(batch) => {
                out.push_str(&format!("{pad}Values rows={}\n", batch.len()));
            }
            PhysicalPlan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                out.push_str(&format!("{pad}Project cols={}\n", exprs.len()));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                on,
                join_type,
                key_mode,
                parallelism,
            } => {
                out.push_str(&format!(
                    "{pad}HashJoin {join_type:?} on={on:?} keys={key_mode:?} par={parallelism}\n"
                ));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::HashAggregate { input, group, aggs, key_mode, .. } => {
                out.push_str(&format!(
                    "{pad}HashAggregate groups={} aggs={} keys={key_mode:?}\n",
                    group.len(),
                    aggs.len()
                ));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Sort {
                input,
                keys,
                limit,
                offset,
                parallelism,
                ..
            } => {
                out.push_str(&format!(
                    "{pad}Sort keys={} limit={limit:?} offset={offset} par={parallelism}\n",
                    keys.len()
                ));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::UnionAll { inputs } => {
                out.push_str(&format!("{pad}UnionAll inputs={}\n", inputs.len()));
                for i in inputs {
                    i.explain_into(out, depth + 1);
                }
            }
            PhysicalPlan::RowNumber { input, name } => {
                out.push_str(&format!("{pad}RowNumber as {name}\n"));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::CrossJoin { left, right } => {
                out.push_str(&format!("{pad}CrossJoin\n"));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::ConnectBy { input, parent, child, .. } => {
                out.push_str(&format!("{pad}ConnectBy parent={parent} child={child}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// The input of an aggregate whose group keys and arguments are `cols` —
/// expressions over `input`, each with its declared type — and each one's
/// column ordinal in it. When every one is a bare column the input is
/// unchanged; otherwise one `Project` beneath the aggregate, in the same
/// pipeline, evaluates exactly the distinct expressions.
pub fn aggregate_input(input: PhysicalPlan, cols: &[(Expr, DataType)]) -> (PhysicalPlan, Vec<usize>) {
    let bare: Option<Vec<usize>> = cols
        .iter()
        .map(|(e, _)| match e {
            Expr::Col(c) => Some(*c),
            _ => None,
        })
        .collect();
    if let Some(ordinals) = bare {
        return (input, ordinals);
    }
    // `Debug` tells apart what `Datum`'s SQL equality does not: a zero's
    // sign, NaN, the kind of a number.
    let mut seen: Vec<String> = Vec::new();
    let (mut exprs, mut fields) = (Vec::new(), Vec::new());
    let ordinals = cols
        .iter()
        .map(|(e, dt)| {
            let key = format!("{e:?} {dt}");
            seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                seen.push(key);
                exprs.push(e.clone());
                fields.push(Field::new(format!("_IN{}", fields.len()), *dt));
                fields.len() - 1
            })
        })
        .collect();
    let project = PhysicalPlan::Project {
        input: Box::new(input),
        exprs,
        schema: Schema::new_unchecked(fields),
    };
    (project, ordinals)
}

/// Execute a plan to completion on the morsel pipeline scheduler.
pub fn execute(plan: &PhysicalPlan, ctx: &EvalContext) -> Result<(Batch, ExecStats)> {
    let mut stats = ExecStats::default();
    let batch = pipeline::run(&pipeline::decompose(plan), ctx, &mut stats)?;
    stats.rows_out = batch.len() as u64;
    Ok((batch, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::CmpOp;
    use crate::scan::ColumnPredicate;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row};
    use dash_storage::table::STRIDE;

    fn make_table() -> SharedTable {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = ColumnTable::new("T", schema);
        let rows: Vec<Row> = (0..STRIDE * 2)
            .map(|i| row![i as i64, format!("g{}", i % 3), (i % 10) as f64])
            .collect();
        t.load_rows(rows).unwrap();
        Arc::new(RwLock::new(t))
    }

    fn dim_table() -> SharedTable {
        let schema = Schema::new(vec![
            Field::not_null("grp", DataType::Utf8),
            Field::new("label", DataType::Utf8),
        ])
        .unwrap();
        let mut t = ColumnTable::new("D", schema);
        t.load_rows(vec![
            row!["g0", "zero"],
            row!["g1", "one"],
            row!["g2", "two"],
        ])
        .unwrap();
        Arc::new(RwLock::new(t))
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let t = make_table();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::ColumnScan {
                    table: t.clone(),
                    config: ScanConfig::full(0, vec![0, 1, 2]),
                }),
                predicate: Expr::Cmp(
                    CmpOp::Lt,
                    Box::new(Expr::col(0)),
                    Box::new(Expr::lit(10i64)),
                ),
            }),
            exprs: vec![
                Expr::col(0),
                Expr::Arith(
                    crate::expr::ArithOp::Mul,
                    Box::new(Expr::col(2)),
                    Box::new(Expr::lit(2.0f64)),
                ),
            ],
            schema: Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("double_amount", DataType::Float64),
            ])
            .unwrap(),
        };
        let (batch, _) = execute(&plan, &ctx()).unwrap();
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.row(3), row![3i64, 6.0f64]);
    }

    #[test]
    fn join_aggregate_sort_pipeline() {
        // SELECT d.label, count(*), sum(amount) FROM t JOIN d USING(grp)
        // GROUP BY label ORDER BY label
        let t = make_table();
        let d = dim_table();
        let join = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::ColumnScan {
                table: t,
                config: ScanConfig::full(0, vec![0, 1, 2]),
            }),
            right: Box::new(PhysicalPlan::ColumnScan {
                table: d,
                config: ScanConfig::full(1, vec![0, 1]),
            }),
            on: vec![(1, 0)],
            join_type: JoinType::Inner,
            key_mode: KeyMode::Encoded,
            parallelism: 2,
        };
        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(join),
            group: vec![4], // label
            aggs: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                    arg_types: vec![],
                },
                AggExpr {
                    func: AggFunc::Sum,
                    args: vec![2],
                    distinct: false,
                    arg_types: vec![DataType::Float64],
                },
            ],
            schema: Schema::new(vec![
                Field::new("label", DataType::Utf8),
                Field::new("cnt", DataType::Int64),
                Field::new("total", DataType::Float64),
            ])
            .unwrap(),
            key_mode: KeyMode::Encoded,
            parallelism: 2,
        };
        let plan = PhysicalPlan::Sort {
            input: Box::new(agg),
            keys: vec![SortKey::asc(0)],
            limit: None,
            offset: 0,
            parallelism: 2,
            run_rows: crate::sort::DEFAULT_SORT_RUN_ROWS,
        };
        let (batch, stats) = execute(&plan, &ctx()).unwrap();
        assert_eq!(batch.len(), 3);
        let labels: Vec<String> = batch.to_rows().iter().map(|r| r.get(0).render()).collect();
        assert_eq!(labels, vec!["one", "two", "zero"]);
        let total: i64 = batch
            .to_rows()
            .iter()
            .map(|r| r.get(1).as_int().unwrap())
            .sum();
        assert_eq!(total, (STRIDE * 2) as i64);
        assert_eq!(stats.rows_out, 3);
    }

    #[test]
    fn pushed_predicates_vs_filter_agree() {
        let t = make_table();
        let pushed = PhysicalPlan::ColumnScan {
            table: t.clone(),
            config: ScanConfig {
                predicates: vec![ColumnPredicate::eq(1, "g1")],
                ..ScanConfig::full(0, vec![0, 1])
            },
        };
        let filtered = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::ColumnScan {
                table: t,
                config: ScanConfig::full(0, vec![0, 1]),
            }),
            predicate: Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::col(1)),
                Box::new(Expr::lit("g1")),
            ),
        };
        let (a, _) = execute(&pushed, &ctx()).unwrap();
        let (b, _) = execute(&filtered, &ctx()).unwrap();
        assert_eq!(a.to_rows(), b.to_rows());
    }

    #[test]
    fn union_and_group_by_every_column() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let v1 = PhysicalPlan::Values(Batch::from_rows(schema.clone(), &[row![1i64], row![2i64]]).unwrap());
        let v2 = PhysicalPlan::Values(Batch::from_rows(schema.clone(), &[row![2i64], row![3i64]]).unwrap());
        let union = PhysicalPlan::UnionAll {
            inputs: vec![v1, v2],
        };
        let (all, _) = execute(&union, &ctx()).unwrap();
        assert_eq!(all.len(), 4);
        // How the planner spells DISTINCT / UNION de-duplication.
        let distinct = PhysicalPlan::HashAggregate {
            input: Box::new(union),
            group: vec![0],
            aggs: Vec::new(),
            schema,
            key_mode: KeyMode::Encoded,
            parallelism: 2,
        };
        let (ded, _) = execute(&distinct, &ctx()).unwrap();
        assert_eq!(ded.to_rows(), vec![row![1i64], row![2i64], row![3i64]]);
    }

    /// `emp(id, mgr)` rows walked by `START WITH mgr = 0 CONNECT BY PRIOR
    /// id = mgr`.
    fn connect_by(rows: Vec<Row>) -> Batch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("mgr", DataType::Int64),
        ])
        .unwrap();
        let plan = PhysicalPlan::ConnectBy {
            input: Box::new(PhysicalPlan::Values(Batch::from_rows(schema, &rows).unwrap())),
            start_with: Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(1)), Box::new(Expr::lit(0i64))),
            parent: 0,
            child: 1,
        };
        execute(&plan, &ctx()).unwrap().0
    }

    #[test]
    fn connect_by_has_no_depth_cap_and_survives_cycles() {
        let chain = connect_by((1..=200i64).map(|i| row![i, i - 1]).collect());
        let levels: Vec<Row> = (1..=200i64).map(|i| row![i, i - 1, i]).collect();
        assert_eq!(chain.to_rows(), levels, "200-deep chain: LEVEL 1..=200");
        // 1 → 2 → 3 → 2: row 2 is reached twice but emitted once.
        let cyclic = connect_by(vec![row![1i64, 0i64], row![2i64, 1i64], row![3i64, 2i64], row![2i64, 3i64]]);
        assert_eq!(cyclic.len(), 4);
    }

    #[test]
    fn explain_renders_tree() {
        let t = make_table();
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::ColumnScan {
                table: t,
                config: ScanConfig::full(0, vec![0]),
            }),
            keys: vec![SortKey::asc(0)],
            limit: Some(5),
            offset: 0,
            parallelism: 1,
            run_rows: crate::sort::DEFAULT_SORT_RUN_ROWS,
        };
        let e = plan.explain();
        assert!(e.contains("Sort"));
        assert!(e.contains("ColumnScan T"));
    }
}
