//! The cross-engine query IR.
//!
//! Benchmark queries are written once as a [`QuerySpec`] and executed two
//! ways: rendered to SQL for the dashDB engine (with or without its
//! compressed-code predicates), and run programmatically on the row-store
//! baseline (which has no SQL frontend — the appliance comparison is about
//! storage and execution architecture, not parsing). Integration tests
//! assert both produce identical results.

use dash_common::{DashError, Datum, Result, Row, Schema};
use dash_rowstore::engine::{RowEngine, RowStats};

/// A table definition shared by every engine.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Columns (by ordinal) the row-store baseline indexes.
    pub indexed: Vec<usize>,
    /// Generated rows.
    pub rows: Vec<Row>,
}

/// A range predicate on a named column (inclusive bounds).
#[derive(Debug, Clone)]
pub struct Pred {
    /// Column name.
    pub column: String,
    /// Lower bound.
    pub lo: Option<Datum>,
    /// Upper bound.
    pub hi: Option<Datum>,
}

impl Pred {
    /// Equality shorthand.
    pub fn eq(column: &str, v: impl Into<Datum>) -> Pred {
        let v = v.into();
        Pred {
            column: column.into(),
            lo: Some(v.clone()),
            hi: Some(v),
        }
    }

    /// `column >= v`.
    pub fn ge(column: &str, v: impl Into<Datum>) -> Pred {
        Pred {
            column: column.into(),
            lo: Some(v.into()),
            hi: None,
        }
    }

    /// `lo <= column <= hi`.
    pub fn between(column: &str, lo: impl Into<Datum>, hi: impl Into<Datum>) -> Pred {
        Pred {
            column: column.into(),
            lo: Some(lo.into()),
            hi: Some(hi.into()),
        }
    }

    fn sql(&self) -> String {
        let lit = |d: &Datum| match d {
            Datum::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Datum::Date(_) => format!("DATE '{}'", d.render()),
            other => other.render(),
        };
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) if l == h => format!("{} = {}", self.column, lit(l)),
            (Some(l), Some(h)) => {
                format!("{} BETWEEN {} AND {}", self.column, lit(l), lit(h))
            }
            (Some(l), None) => format!("{} >= {}", self.column, lit(l)),
            (None, Some(h)) => format!("{} <= {}", self.column, lit(h)),
            (None, None) => "1 = 1".to_string(),
        }
    }

    fn matches(&self, v: &Datum) -> bool {
        if v.is_null() {
            return false;
        }
        let lo_ok = self
            .lo
            .as_ref()
            .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Less);
        let hi_ok = self
            .hi
            .as_ref()
            .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Greater);
        lo_ok && hi_ok
    }
}

/// A benchmark query, executable on every engine.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// `SELECT <projection> FROM t WHERE <preds>` — selective fetch.
    FilterScan {
        /// Table.
        table: String,
        /// ANDed predicates.
        predicates: Vec<Pred>,
        /// Projected column names.
        projection: Vec<String>,
    },
    /// `SELECT key, COUNT(*), SUM(value) FROM t WHERE ... GROUP BY key`.
    GroupAgg {
        /// Table.
        table: String,
        /// ANDed predicates.
        predicates: Vec<Pred>,
        /// Group column name.
        key: String,
        /// Summed column name.
        value: String,
    },
    /// Star join: `SELECT d.label, COUNT(*), SUM(f.value) FROM fact f
    /// JOIN dim d ON f.fk = d.pk WHERE <preds on f> GROUP BY d.label`.
    JoinAgg {
        /// Fact table.
        fact: String,
        /// Dimension table.
        dim: String,
        /// Fact join column.
        fact_key: String,
        /// Dimension join column.
        dim_key: String,
        /// Grouping column on the dimension.
        dim_label: String,
        /// Summed fact column.
        value: String,
        /// Predicates on the fact table.
        predicates: Vec<Pred>,
    },
    /// `SELECT <projection> FROM t WHERE <preds> ORDER BY <order_by>
    /// [DESC], <rest of projection> FETCH FIRST <n> ROWS ONLY` — the
    /// reporting slice: every projected column joins the sort key, so the
    /// result order is fully determined and engines compare byte-for-byte
    /// without normalization.
    TopN {
        /// Table.
        table: String,
        /// ANDed predicates.
        predicates: Vec<Pred>,
        /// Projected column names; must include `order_by`.
        projection: Vec<String>,
        /// Primary sort column.
        order_by: String,
        /// Sort the primary column descending.
        desc: bool,
        /// Row limit.
        n: usize,
    },
}

/// Order rows for a Top-N slice — primary key first (optionally
/// reversed), then every column left-to-right ascending, the same total
/// order the rendered ORDER BY asks the SQL engine for — and keep `n`.
fn sort_top_n(rows: &mut Vec<Row>, key_pos: usize, desc: bool, n: usize) {
    rows.sort_by(|a, b| {
        let key = a.get(key_pos).sql_cmp(b.get(key_pos));
        let key = if desc { key.reverse() } else { key };
        key.then_with(|| {
            a.0.iter()
                .zip(b.0.iter())
                .map(|(x, y)| x.sql_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    rows.truncate(n);
}

/// Where `order_by` sits inside the projection (the baselines sort the
/// already-projected rows).
fn top_n_key_pos(projection: &[String], order_by: &str) -> Result<usize> {
    projection
        .iter()
        .position(|c| c == order_by)
        .ok_or_else(|| DashError::internal("TopN order_by must be projected"))
}

impl QuerySpec {
    /// Render to SQL (ANSI) for the dashDB engine.
    pub fn to_sql(&self) -> String {
        match self {
            QuerySpec::FilterScan {
                table,
                predicates,
                projection,
            } => {
                let mut sql = format!("SELECT {} FROM {}", projection.join(", "), table);
                if !predicates.is_empty() {
                    let w: Vec<String> = predicates.iter().map(|p| p.sql()).collect();
                    sql.push_str(&format!(" WHERE {}", w.join(" AND ")));
                }
                sql
            }
            QuerySpec::GroupAgg {
                table,
                predicates,
                key,
                value,
            } => {
                let mut sql =
                    format!("SELECT {key}, COUNT(*), SUM({value}) FROM {table}");
                if !predicates.is_empty() {
                    let w: Vec<String> = predicates.iter().map(|p| p.sql()).collect();
                    sql.push_str(&format!(" WHERE {}", w.join(" AND ")));
                }
                sql.push_str(&format!(" GROUP BY {key}"));
                sql
            }
            QuerySpec::JoinAgg {
                fact,
                dim,
                fact_key,
                dim_key,
                dim_label,
                value,
                predicates,
            } => {
                let mut sql = format!(
                    "SELECT {dim}.{dim_label}, COUNT(*), SUM({fact}.{value}) \
                     FROM {fact} JOIN {dim} ON {fact}.{fact_key} = {dim}.{dim_key}"
                );
                if !predicates.is_empty() {
                    let w: Vec<String> = predicates
                        .iter()
                        .map(|p| {
                            let mut q = p.clone();
                            q.column = format!("{fact}.{}", p.column);
                            q.sql()
                        })
                        .collect();
                    sql.push_str(&format!(" WHERE {}", w.join(" AND ")));
                }
                sql.push_str(&format!(" GROUP BY {dim}.{dim_label}"));
                sql
            }
            QuerySpec::TopN {
                table,
                predicates,
                projection,
                order_by,
                desc,
                n,
            } => {
                let mut sql = format!("SELECT {} FROM {}", projection.join(", "), table);
                if !predicates.is_empty() {
                    let w: Vec<String> = predicates.iter().map(|p| p.sql()).collect();
                    sql.push_str(&format!(" WHERE {}", w.join(" AND ")));
                }
                let mut keys =
                    vec![format!("{order_by}{}", if *desc { " DESC" } else { "" })];
                keys.extend(projection.iter().filter(|c| *c != order_by).cloned());
                sql.push_str(&format!(
                    " ORDER BY {} FETCH FIRST {n} ROWS ONLY",
                    keys.join(", ")
                ));
                sql
            }
        }
    }

    /// Execute on the row-store baseline. Returns rows in normalized
    /// (sorted) order plus the engine stats.
    pub fn run_row(&self, engine: &RowEngine) -> Result<(Vec<Row>, RowStats)> {
        match self {
            QuerySpec::FilterScan {
                table,
                predicates,
                projection,
            } => {
                let schema = engine.schema(table)?;
                let (range, residual_preds) = split_sarg(&schema, predicates)?;
                let proj: Vec<usize> = projection
                    .iter()
                    .map(|c| schema.resolve(c))
                    .collect::<Result<_>>()?;
                let (rows, stats) = engine.scan_filter(table, range, &|row| {
                    residual_preds
                        .iter()
                        .all(|(i, p)| p.matches(row.get(*i)))
                })?;
                let mut out: Vec<Row> = rows.iter().map(|r| r.project(&proj)).collect();
                out.sort();
                Ok((out, stats))
            }
            QuerySpec::GroupAgg {
                table,
                predicates,
                key,
                value,
            } => {
                let schema = engine.schema(table)?;
                let (range, residual_preds) = split_sarg(&schema, predicates)?;
                let key_i = schema.resolve(key)?;
                let value_i = schema.resolve(value)?;
                let (rows, stats) = engine.scan_filter(table, range, &|row| {
                    residual_preds
                        .iter()
                        .all(|(i, p)| p.matches(row.get(*i)))
                })?;
                let groups = RowEngine::group_aggregate(&rows, &[key_i], Some(value_i));
                Ok((normalize_groups(groups), stats))
            }
            QuerySpec::JoinAgg {
                fact,
                dim,
                fact_key,
                dim_key,
                dim_label,
                value,
                predicates,
            } => {
                let fschema = engine.schema(fact)?;
                let dschema = engine.schema(dim)?;
                let (range, residual_preds) = split_sarg(&fschema, predicates)?;
                let fk = fschema.resolve(fact_key)?;
                let dk = dschema.resolve(dim_key)?;
                let label_i = fschema.len() + dschema.resolve(dim_label)?;
                let value_i = fschema.resolve(value)?;
                let (fact_rows, mut stats) = engine.scan_filter(fact, range, &|row| {
                    residual_preds
                        .iter()
                        .all(|(i, p)| p.matches(row.get(*i)))
                })?;
                let (joined, jstats) = engine.index_join(&fact_rows, fk, dim, dk)?;
                stats.pages_read += jstats.pages_read;
                stats.pool_hits += jstats.pool_hits;
                stats.pool_misses += jstats.pool_misses;
                stats.index_nodes += jstats.index_nodes;
                let groups =
                    RowEngine::group_aggregate(&joined, &[label_i], Some(value_i));
                Ok((normalize_groups(groups), stats))
            }
            QuerySpec::TopN {
                table,
                predicates,
                projection,
                order_by,
                desc,
                n,
            } => {
                let schema = engine.schema(table)?;
                let (range, residual_preds) = split_sarg(&schema, predicates)?;
                let proj: Vec<usize> = projection
                    .iter()
                    .map(|c| schema.resolve(c))
                    .collect::<Result<_>>()?;
                let key_pos = top_n_key_pos(projection, order_by)?;
                let (rows, stats) = engine.scan_filter(table, range, &|row| {
                    residual_preds
                        .iter()
                        .all(|(i, p)| p.matches(row.get(*i)))
                })?;
                let mut out: Vec<Row> = rows.iter().map(|r| r.project(&proj)).collect();
                sort_top_n(&mut out, key_pos, *desc, *n);
                Ok((out, stats))
            }
        }
    }
}

/// Pick the most selective predicate as the index sarg for the row engine
/// (it gets one index path, like a classic optimizer); the rest filter.
#[allow(clippy::type_complexity)]
fn split_sarg<'a>(
    schema: &Schema,
    preds: &'a [Pred],
) -> Result<(
    Option<(usize, Option<Datum>, Option<Datum>)>,
    Vec<(usize, &'a Pred)>,
)> {
    let mut resolved: Vec<(usize, &Pred)> = Vec::new();
    for p in preds {
        resolved.push((schema.resolve(&p.column)?, p));
    }
    // Prefer a both-sided (equality/range) predicate as the sarg.
    let sarg_pos = resolved
        .iter()
        .position(|(_, p)| p.lo.is_some() && p.hi.is_some())
        .or_else(|| resolved.iter().position(|(_, p)| p.lo.is_some() || p.hi.is_some()));
    match sarg_pos {
        Some(i) => {
            let (col, p) = resolved.remove(i);
            Ok((Some((col, p.lo.clone(), p.hi.clone())), resolved))
        }
        None => Ok((None, resolved)),
    }
}

/// Normalize grouped output to sorted `[key..., count, sum]` rows.
pub fn normalize_groups(groups: Vec<(Vec<Datum>, u64, f64)>) -> Vec<Row> {
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(mut k, c, s)| {
            k.push(Datum::Int(c as i64));
            // Render SUM consistently as float.
            k.push(Datum::Float((s * 1e6).round() / 1e6));
            Row::new(k)
        })
        .collect();
    rows.sort();
    rows
}

/// Normalize a SQL result of shape `[key, count, sum]` the same way.
pub fn normalize_sql_groups(rows: Vec<Row>) -> Vec<Row> {
    let mut out: Vec<Row> = rows
        .into_iter()
        .map(|r| {
            let mut v = r.0;
            let n = v.len();
            if n >= 2 {
                // count as Int, sum as rounded Float.
                if let Some(c) = v[n - 2].as_int() {
                    v[n - 2] = Datum::Int(c);
                }
                if let Some(s) = v[n - 1].as_float() {
                    v[n - 1] = Datum::Float((s * 1e6).round() / 1e6);
                }
            }
            Row::new(v)
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    #[test]
    fn sql_rendering() {
        let q = QuerySpec::GroupAgg {
            table: "txn".into(),
            predicates: vec![
                Pred::eq("region", "west"),
                Pred::between("txn_date", Datum::Date(100), Datum::Date(200)),
            ],
            key: "category".into(),
            value: "amount".into(),
        };
        let sql = q.to_sql();
        assert!(sql.contains("region = 'west'"));
        assert!(sql.contains("BETWEEN DATE '1970-04-11' AND DATE '1970-07-20'"));
        assert!(sql.contains("GROUP BY category"));
    }

    #[test]
    fn engines_agree_on_group_agg() {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("amt", DataType::Float64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..500)
            .map(|i| row![i as i64, format!("g{}", i % 3), (i % 7) as f64])
            .collect();
        let mut re = RowEngine::new(None);
        re.create_table("t", schema).unwrap();
        re.load("t", rows.clone()).unwrap();
        let q = QuerySpec::GroupAgg {
            table: "t".into(),
            predicates: vec![Pred::between("id", 100i64, 399i64)],
            key: "grp".into(),
            value: "amt".into(),
        };
        let (a, _) = q.run_row(&re).unwrap();
        // The same grouping, computed directly from the generated rows.
        let mut groups: std::collections::BTreeMap<Datum, (u64, f64)> = Default::default();
        for r in rows.iter().filter(|r| (100..=399).contains(&r.get(0).as_int().unwrap())) {
            let e = groups.entry(r.get(1).clone()).or_default();
            e.0 += 1;
            e.1 += r.get(2).as_float().unwrap();
        }
        let b = normalize_groups(groups.into_iter().map(|(k, (c, s))| (vec![k], c, s)).collect());
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let total: i64 = a.iter().map(|r| r.get(1).as_int().unwrap()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn engines_agree_on_top_n() {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("grp", DataType::Utf8),
            Field::new("amt", DataType::Float64),
        ])
        .unwrap();
        // Heavily tied amounts: the unique id column settles the cut.
        let rows: Vec<Row> = (0..500)
            .map(|i| row![i as i64, format!("g{}", i % 3), ((i * 37) % 11) as f64])
            .collect();
        let mut re = RowEngine::new(None);
        re.create_table("t", schema).unwrap();
        re.load("t", rows.clone()).unwrap();
        let q = QuerySpec::TopN {
            table: "t".into(),
            predicates: vec![Pred::ge("id", 50i64)],
            projection: vec!["id".into(), "amt".into()],
            order_by: "amt".into(),
            desc: true,
            n: 25,
        };
        assert_eq!(
            q.to_sql(),
            "SELECT id, amt FROM t WHERE id >= 50 \
             ORDER BY amt DESC, id FETCH FIRST 25 ROWS ONLY"
        );
        let (a, _) = q.run_row(&re).unwrap();
        // The same slice, cut directly from the generated rows.
        let mut b: Vec<Row> = rows
            .iter()
            .filter(|r| r.get(0).as_int().unwrap() >= 50)
            .map(|r| r.project(&[0, 2]))
            .collect();
        sort_top_n(&mut b, 1, true, 25);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        assert!(a
            .windows(2)
            .all(|w| w[0].get(1).as_float() >= w[1].get(1).as_float()));
    }

    #[test]
    fn sarg_selection_prefers_bounded() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
        ])
        .unwrap();
        let preds = vec![Pred::ge("a", 1i64), Pred::eq("b", 5i64)];
        let (sarg, rest) = split_sarg(&schema, &preds).unwrap();
        assert_eq!(sarg.unwrap().0, 1, "equality preferred over open range");
        assert_eq!(rest.len(), 1);
    }
}
