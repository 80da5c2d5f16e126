//! Independent answers for every analytic statement, computed once per
//! run outside the timed phase and never timed.
//!
//! `dash-rowstore` answers the statements the shared query IR expresses;
//! a plain fold over the generated rows answers the rest.

use crate::gen::{col, Fold, Oracle, Star, Stmt};
use dash_common::{Datum, Row};
use dash_rowstore::engine::RowEngine;
use dash_workloads::spec::{normalize_sql_groups, QuerySpec};
use std::cmp::Ordering;
use std::collections::BTreeMap;

pub struct Checker<'a> {
    star: &'a Star,
    rows: RowEngine,
}

impl<'a> Checker<'a> {
    pub fn new(star: &'a Star) -> Result<Checker<'a>, String> {
        let mut rows = RowEngine::new(None);
        for t in star.tables() {
            let mut load = || -> dash_common::Result<()> {
                rows.create_table(t.name, t.schema.clone())?;
                rows.load(t.name, t.rows.clone())?;
                t.indexed
                    .iter()
                    .try_for_each(|&c| rows.create_index(t.name, c))
            };
            load().map_err(|e| format!("row-store oracle: loading {}: {e}", t.name))?;
        }
        Ok(Checker { star, rows })
    }

    /// Compare the engine's rows for `stmt` with the independent answer.
    pub fn check(&self, stmt: &Stmt, actual: Vec<Row>) -> Result<(), String> {
        let (expected, actual) = match &stmt.oracle {
            Oracle::RowStore(spec) => {
                let (expected, _) = spec
                    .run_row(&self.rows)
                    .map_err(|e| format!("row-store oracle failed: {e}\n  {}", stmt.sql))?;
                (expected, normalize(spec, actual))
            }
            Oracle::Fold(f) => {
                let mut expected = fold(f, self.star);
                let mut actual = actual;
                if !stmt.ordered {
                    expected.sort_by(cmp_rows);
                    actual.sort_by(cmp_rows);
                }
                (expected, actual)
            }
        };
        if expected.len() == actual.len()
            && expected
                .iter()
                .zip(&actual)
                .all(|(e, a)| cmp_rows(e, a) == Ordering::Equal)
        {
            return Ok(());
        }
        let first = expected
            .iter()
            .zip(&actual)
            .position(|(e, a)| cmp_rows(e, a) != Ordering::Equal)
            .unwrap_or(expected.len().min(actual.len()));
        Err(format!(
            "result mismatch ({} expected rows, {} actual; first difference at row {first}: \
             expected {:?}, actual {:?})\n  {}",
            expected.len(),
            actual.len(),
            expected.get(first),
            actual.get(first),
            stmt.sql
        ))
    }
}

/// The engine's rows in the form `QuerySpec::run_row` returns them.
fn normalize(spec: &QuerySpec, mut rows: Vec<Row>) -> Vec<Row> {
    match spec {
        QuerySpec::FilterScan { .. } => {
            rows.sort();
            rows
        }
        // The output order is the contract.
        QuerySpec::TopN { .. } => rows,
        _ => normalize_sql_groups(rows),
    }
}

/// Value-wise comparison: an integer sum equals the same sum as a float.
fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| {
        a.values()
            .iter()
            .zip(b.values())
            .map(|(x, y)| x.sql_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    })
}

fn int(d: &Datum) -> i64 {
    d.as_int().expect("generated int column")
}

fn float(d: &Datum) -> f64 {
    d.as_float().expect("generated float column")
}

/// `[key..., COUNT(*), SUM(qty)]` rows from a key → (count, sum) map.
fn grouped<K: Ord>(groups: BTreeMap<K, (i64, i64)>, key: impl Fn(K) -> Vec<Datum>) -> Vec<Row> {
    groups
        .into_iter()
        .map(|(k, (n, sum))| {
            let mut v = key(k);
            v.extend([Datum::Int(n), Datum::Int(sum)]);
            Row::new(v)
        })
        .collect()
}

/// The expected rows of a fold-checked statement.
pub fn fold(f: &Fold, star: &Star) -> Vec<Row> {
    let facts = &star.facts.rows;
    match f {
        Fold::QtyRangeAgg { lo, hi } => {
            let (mut n, mut sum, mut min, mut max) = (0i64, 0i64, f64::INFINITY, f64::NEG_INFINITY);
            for r in facts
                .iter()
                .filter(|r| (*lo..=*hi).contains(&int(r.get(col::QTY))))
            {
                n += 1;
                sum += int(r.get(col::QTY));
                min = min.min(float(r.get(col::PRICE)));
                max = max.max(float(r.get(col::PRICE)));
            }
            vec![Row::new(vec![
                Datum::Int(n),
                Datum::Int(sum),
                Datum::Float(min),
                Datum::Float(max),
            ])]
        }
        Fold::DayRangeAgg { lo, hi } => {
            let (mut n, mut sum) = (0i64, 0.0f64);
            for r in facts {
                if let Datum::Date(d) = r.get(col::DAY) {
                    if (*lo..=*hi).contains(d) {
                        n += 1;
                        sum += float(r.get(col::PRICE));
                    }
                }
            }
            vec![Row::new(vec![Datum::Int(n), Datum::Float(sum)])]
        }
        Fold::LabelEqAgg { label } => {
            let (mut n, mut sum) = (0i64, 0i64);
            for r in facts
                .iter()
                .filter(|r| r.get(col::LABEL).as_str() == Some(label))
            {
                n += 1;
                sum += int(r.get(col::QTY));
            }
            vec![Row::new(vec![Datum::Int(n), Datum::Int(sum)])]
        }
        Fold::StrKeyJoin => {
            let by_lab: BTreeMap<&str, i64> = star
                .dims
                .rows
                .iter()
                .map(|d| (d.get(2).as_str().expect("lab"), int(d.get(0))))
                .collect();
            let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for r in facts {
                if let Some(g) = r.get(col::LABEL).as_str().and_then(|l| by_lab.get(l)) {
                    let e = groups.entry(*g).or_default();
                    e.0 += 1;
                    e.1 += int(r.get(col::QTY));
                }
            }
            grouped(groups, |g| vec![Datum::Int(g)])
        }
        Fold::ComputedKeyGroup => {
            let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for r in facts {
                let qty = int(r.get(col::QTY));
                // SQL MOD truncates toward zero, like Rust's `%`.
                let e = groups.entry(int(r.get(col::GRP)) + qty % 3).or_default();
                e.0 += 1;
                e.1 += qty;
            }
            grouped(groups, |k| vec![Datum::Int(k)])
        }
        Fold::JoinGroupOrder => {
            let names: BTreeMap<i64, &str> = star
                .dims
                .rows
                .iter()
                .map(|d| (int(d.get(0)), d.get(1).as_str().expect("name")))
                .collect();
            let mut groups: BTreeMap<(&str, &str), (i64, i64)> = BTreeMap::new();
            for r in facts {
                if let Some(name) = names.get(&int(r.get(col::GRP))) {
                    let label = r.get(col::LABEL).as_str().expect("label");
                    let e = groups.entry((name, label)).or_default();
                    e.0 += 1;
                    e.1 += int(r.get(col::QTY));
                }
            }
            // BTreeMap order is the statement's ORDER BY name, label.
            grouped(groups, |(n, l)| vec![Datum::str(n), Datum::str(l)])
        }
    }
}
