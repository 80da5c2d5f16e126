//! Test-only naive evaluator over `PhysicalPlan`: the independent reference
//! the engine's results are checked against. Row-at-a-time over `Datum`s —
//! nested-loop joins, `BTreeMap` grouping, a stable sort, two-pass moments —
//! sharing nothing with the engine beyond `Expr::eval` and `Batch`. Groups
//! come out in key order and float sums add in row order, so callers
//! compare unordered results as multisets and use exactly representable
//! float data (or a tolerance, for the moment functions).

use dashdb_local::common::ids::Tsn;
use dashdb_local::common::{Datum, Row};
use dashdb_local::encoding::column::ColumnValues;
use dashdb_local::exec::agg::{AggExpr, AggFunc};
use dashdb_local::exec::expr::Expr;
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::join::JoinType;
use dashdb_local::exec::plan::PhysicalPlan;
use dashdb_local::exec::scan::{ColumnPredicate, ScanConfig};
use dashdb_local::exec::Batch;
use dashdb_local::storage::table::{ColumnTable, STRIDE};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Evaluate `plan` bottom-up, one materialized batch per node.
pub fn eval(plan: &PhysicalPlan, ctx: &EvalContext) -> Batch {
    let eval_row = |e: &Expr, b: &Batch, i: usize| e.eval(b, i, ctx).unwrap();
    let rows: Vec<Row> = match plan {
        PhysicalPlan::ColumnScan { table, config } => scan(&table.read(), config, ctx),
        PhysicalPlan::Values(batch) => batch.to_rows(),
        PhysicalPlan::Filter { input, predicate } => {
            let b = eval(input, ctx);
            let keep = |i: &usize| predicate.eval_predicate(&b, *i, ctx).unwrap();
            (0..b.len()).filter(keep).map(|i| b.row(i)).collect()
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let b = eval(input, ctx);
            (0..b.len())
                .map(|i| Row::new(exprs.iter().map(|e| eval_row(e, &b, i)).collect()))
                .map(|r| r.coerce(schema).unwrap())
                .collect()
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            on,
            join_type,
            ..
        } => join(&eval(left, ctx), &eval(right, ctx), on, *join_type),
        PhysicalPlan::HashAggregate {
            input, group, aggs, ..
        } => aggregate(&eval(input, ctx), group, aggs),
        PhysicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
            ..
        } => {
            let b = eval(input, ctx);
            let key_of = |i| keys.iter().map(|k| b.value(i, k.col)).collect();
            let key_vals: Vec<Vec<Datum>> = (0..b.len()).map(key_of).collect();
            let mut order: Vec<usize> = (0..b.len()).collect();
            // `sort_by` is stable: ties keep input order.
            order.sort_by(|&x, &y| {
                for (k, key) in keys.iter().enumerate() {
                    let (a, c) = (&key_vals[x][k], &key_vals[y][k]);
                    let nulls = if key.nulls_last { Ordering::Greater } else { Ordering::Less };
                    let ord = match (a.is_null(), c.is_null()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => nulls,
                        (false, true) => nulls.reverse(),
                        (false, false) if key.asc => a.sql_cmp(c),
                        (false, false) => c.sql_cmp(a),
                    };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let taken = order.into_iter().skip(*offset).take(limit.unwrap_or(usize::MAX));
            taken.map(|i| b.row(i)).collect()
        }
        PhysicalPlan::UnionAll { inputs } => inputs.iter().flat_map(|p| eval(p, ctx).to_rows()).collect(),
        PhysicalPlan::RowNumber { input, .. } => {
            let numbered = |(i, mut r): (usize, Row)| {
                r.0.push(Datum::Int(i as i64 + 1));
                r
            };
            eval(input, ctx).to_rows().into_iter().enumerate().map(numbered).collect()
        }
        PhysicalPlan::CrossJoin { left, right } => {
            let (l, r) = (eval(left, ctx).to_rows(), eval(right, ctx).to_rows());
            l.iter().flat_map(|a| r.iter().map(|b| a.concat(b))).collect()
        }
        PhysicalPlan::ConnectBy {
            input,
            start_with,
            parent,
            child,
        } => {
            let b = eval(input, ctx);
            let is_root = |i: &usize| start_with.eval_predicate(&b, *i, ctx).unwrap();
            let mut level: Vec<usize> = (0..b.len()).filter(is_root).collect();
            let mut reached = level.clone();
            let mut out = Vec::new();
            let mut depth = 0;
            while !level.is_empty() {
                depth += 1;
                let mut next = Vec::new();
                for &i in &level {
                    let mut r = b.row(i);
                    r.0.push(Datum::Int(depth));
                    out.push(r);
                    let pk = b.value(i, *parent);
                    for c in 0..b.len() {
                        if !pk.is_null() && b.value(c, *child) == pk && !reached.contains(&c) {
                            reached.push(c);
                            next.push(c);
                        }
                    }
                }
                level = next;
            }
            out
        }
    };
    Batch::from_rows(plan.schema(), &rows).unwrap()
}

/// Every live row of `t`, filtered by the pushed-down predicates and the
/// residual, then projected. Latest-committed visibility only.
fn scan(t: &ColumnTable, cfg: &ScanConfig, ctx: &EvalContext) -> Vec<Row> {
    assert!(cfg.snapshot.is_none() && !cfg.include_tsn, "reference scans no snapshots");
    let fields = t.schema().fields();
    let sealed = t.sealed_strides();
    let mut live: Vec<Row> = Vec::new();
    for stride in 0..=sealed {
        let (cols, len): (Vec<ColumnValues>, usize) = if stride < sealed {
            let cols = (0..fields.len()).map(|c| t.decode_stride(c, stride).unwrap());
            (cols.collect(), STRIDE)
        } else {
            let cols = (0..fields.len()).map(|c| t.open_values(c).clone());
            (cols.collect(), t.open_len())
        };
        for off in (0..len).filter(|off| !t.is_deleted(Tsn((stride * STRIDE + off) as u64))) {
            let value = |(c, f): (&ColumnValues, _)| c.datum_at(f, off);
            let types = fields.iter().map(|f| f.data_type);
            live.push(Row::new(cols.iter().zip(types).map(value).collect()));
        }
    }
    let full = Batch::from_rows(t.schema().clone(), &live).unwrap();
    let passes = |i: &usize| {
        let pushed = cfg.predicates.iter().all(|p| {
            let v = live[*i].get(p.column());
            match p {
                ColumnPredicate::IsNull { negated, .. } => v.is_null() != *negated,
                ColumnPredicate::Range { lo, hi, .. } => {
                    !v.is_null()
                        && lo.as_ref().is_none_or(|b| v.sql_cmp(b) != Ordering::Less)
                        && hi.as_ref().is_none_or(|b| v.sql_cmp(b) != Ordering::Greater)
                }
            }
        });
        pushed && cfg.residual.as_ref().is_none_or(|r| r.eval_predicate(&full, *i, ctx).unwrap())
    };
    let project = |i: usize| Row::new(cfg.projection.iter().map(|&c| live[i].get(c).clone()).collect());
    (0..live.len()).filter(passes).map(project).collect()
}

/// Nested-loop equi-join; a NULL key component matches nothing, and NaN
/// joins NaN alone (`Datum`'s own equality calls it equal to every number).
fn join(l: &Batch, r: &Batch, on: &[(usize, usize)], jt: JoinType) -> Vec<Row> {
    let nan = |d: &Datum| matches!(d, Datum::Float(f) if f.is_nan());
    let same = |a: &Vec<Datum>, b: &Vec<Datum>| a.iter().zip(b).all(|(x, y)| x == y && nan(x) == nan(y));
    let key = |b: &Batch, i: usize, cols: &mut dyn Iterator<Item = usize>| -> Option<Vec<Datum>> {
        let k: Vec<Datum> = cols.map(|c| b.value(i, c)).collect();
        (!k.iter().any(Datum::is_null)).then_some(k)
    };
    let rkeys: Vec<_> = (0..r.len()).map(|i| key(r, i, &mut on.iter().map(|p| p.1))).collect();
    let padding = Row::new(vec![Datum::Null; r.schema().len()]);
    let mut out = Vec::new();
    for li in 0..l.len() {
        let lk = key(l, li, &mut on.iter().map(|p| p.0));
        let hits: Vec<usize> = match &lk {
            Some(lk) => (0..r.len()).filter(|&ri| rkeys[ri].as_ref().is_some_and(|rk| same(rk, lk))).collect(),
            None => Vec::new(),
        };
        match jt {
            JoinType::Inner => out.extend(hits.iter().map(|&ri| l.row(li).concat(&r.row(ri)))),
            JoinType::Left if hits.is_empty() => out.push(l.row(li).concat(&padding)),
            JoinType::Left => out.extend(hits.iter().map(|&ri| l.row(li).concat(&r.row(ri)))),
            JoinType::Semi if !hits.is_empty() => out.push(l.row(li)),
            JoinType::Anti if hits.is_empty() => out.push(l.row(li)),
            JoinType::Semi | JoinType::Anti => {}
        }
    }
    out
}

/// The text a group-key value is grouped under. `Datum`'s own order calls a
/// NaN equal to every number, which no map can key on, so a key's identity
/// is its rendering with every NaN as one value and `-0.0` as `0.0`. Keys
/// of one column share a kind, so `Int(1)` and `Float(1.0)` never meet.
pub fn key_text(d: &Datum) -> String {
    match d {
        Datum::Float(f) if f.is_nan() => "Float(NaN)".to_string(),
        Datum::Float(f) if *f == 0.0 => "Float(0.0)".to_string(),
        other => format!("{other:?}"),
    }
}

/// Group on the key columns (NULLs group together); groups emit in
/// [`key_text`] order with their first row's key values. A global aggregate
/// over no rows still yields its one row.
fn aggregate(input: &Batch, group: &[usize], aggs: &[AggExpr]) -> Vec<Row> {
    let mut groups: BTreeMap<Vec<String>, (Vec<Datum>, Vec<usize>)> = BTreeMap::new();
    for i in 0..input.len() {
        let key: Vec<Datum> = group.iter().map(|&g| input.value(i, g)).collect();
        let text = key.iter().map(key_text).collect();
        groups.entry(text).or_insert((key, Vec::new())).1.push(i);
    }
    if group.is_empty() {
        groups.entry(Vec::new()).or_default();
    }
    let finish = |(mut key, members): (Vec<Datum>, Vec<usize>)| {
        key.extend(aggs.iter().map(|a| agg_value(a, input, &members)));
        Row::new(key)
    };
    groups.into_values().map(finish).collect()
}

fn agg_value(a: &AggExpr, input: &Batch, members: &[usize]) -> Datum {
    if a.func == AggFunc::CountStar {
        return Datum::Int(members.len() as i64);
    }
    let arg = |n: usize, i: usize| input.value(i, a.args[n]);
    if matches!(a.func, AggFunc::CovarPop | AggFunc::CovarSamp) {
        // Pairs with both sides present; textbook two-pass covariance.
        let pair = |&i: &usize| Some((arg(0, i).as_float()?, arg(1, i).as_float()?));
        let pairs: Vec<(f64, f64)> = members.iter().filter_map(pair).collect();
        let n = pairs.len() as f64;
        let denom = if a.func == AggFunc::CovarSamp { n - 1.0 } else { n };
        if denom <= 0.0 {
            return Datum::Null;
        }
        let (mx, my) = (pairs.iter().map(|p| p.0).sum::<f64>() / n, pairs.iter().map(|p| p.1).sum::<f64>() / n);
        return Datum::Float(pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / denom);
    }
    let mut vals: Vec<Datum> = members.iter().map(|&i| arg(0, i)).filter(|v| !v.is_null()).collect();
    if a.distinct {
        // One argument may yield `Int`s and `Float`s (`CASE`, `COALESCE`):
        // a whole number is one value whichever kind carries it.
        let text = |v: &Datum| match v {
            Datum::Int(x) if x.unsigned_abs() < 1 << 53 => key_text(&Datum::Float(*x as f64)),
            other => key_text(other),
        };
        let mut seen: Vec<String> = Vec::new();
        vals.retain(|v| !seen.contains(&text(v)) && (seen.push(text(v)), true).1);
    }
    let floats = || -> Vec<f64> { vals.iter().map(|v| v.as_float().unwrap()).collect() };
    let float_sum = || floats().iter().sum::<f64>();
    let ints: Option<Vec<i64>> = vals.iter().map(Datum::as_int).collect();
    match (&a.func, vals.is_empty()) {
        (AggFunc::Count, _) => Datum::Int(vals.len() as i64),
        (_, true) => Datum::Null,
        (AggFunc::Sum, _) => match (&vals[0], ints) {
            (Datum::Int(_), Some(ints)) => Datum::Int(ints.iter().sum()),
            // Decimals of one scale add as scaled integers.
            (Datum::Decimal(_, scale), _) => {
                let unscaled = |v: &Datum| match v {
                    Datum::Decimal(x, s) if s == scale => *x,
                    other => panic!("reference sums decimals of one scale, got {other:?}"),
                };
                Datum::Decimal(vals.iter().map(unscaled).sum(), *scale)
            }
            _ => Datum::Float(float_sum()),
        },
        (AggFunc::Avg, _) => Datum::Float(float_sum() / vals.len() as f64),
        (AggFunc::Min, _) => vals.into_iter().min().unwrap(),
        (AggFunc::Max, _) => vals.into_iter().max().unwrap(),
        (AggFunc::Median | AggFunc::PercentileCont(_) | AggFunc::PercentileDisc(_), _) => {
            let mut sorted = floats();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            Datum::Float(match a.func {
                // The smallest value with at least `q` of the set at or below it.
                AggFunc::PercentileDisc(q) => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
                _ => {
                    let q = if let AggFunc::PercentileCont(q) = a.func { q } else { 0.5 };
                    let pos = q * (n - 1) as f64;
                    let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
                    lo + (hi - lo) * (pos - pos.floor())
                }
            })
        }
        (AggFunc::VarPop | AggFunc::VarSamp | AggFunc::StdDevPop | AggFunc::StdDevSamp, _) => {
            // Textbook two-pass variance.
            let xs = floats();
            let n = xs.len() as f64;
            let sample = matches!(a.func, AggFunc::VarSamp | AggFunc::StdDevSamp);
            let denom = if sample { n - 1.0 } else { n };
            if denom <= 0.0 {
                return Datum::Null;
            }
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / denom;
            let stddev = matches!(a.func, AggFunc::StdDevPop | AggFunc::StdDevSamp);
            Datum::Float(if stddev { var.sqrt() } else { var })
        }
        (other, _) => panic!("reference evaluator has no {other:?}"),
    }
}
