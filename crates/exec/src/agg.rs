//! Morsel-partial hash aggregation and the aggregate-function suite.
//!
//! Grouping has one implementation: each morsel aggregates into an
//! [`AggPartial`] ([`aggregate_morsel`], on pool workers), partials merge
//! in morsel-index order into an [`AggAccumulator`], and `finish` emits
//! groups in first-appearance order — byte-identical at any parallelism.
//! [`hash_aggregate`] is that same path over row-range morsels of one batch.
//!
//! The function suite covers the dialect aggregates the paper lists:
//! `MEDIAN`, `PERCENTILE_CONT`/`_DISC`, `VAR_POP`/`VAR_SAMP`,
//! `STDDEV_POP`/`STDDEV_SAMP`, `COVAR_POP`/`COVAR_SAMP` plus the ANSI core.

use crate::batch::Batch;
use crate::functions::EvalContext;
use crate::key::{self, GroupTable, KeyCol, KeyMode};
use crate::pipeline::{self, AggSink, Feed};
use crate::stats::ExecStats;
use dash_common::fxhash::FxHashSet;
use dash_common::{DashError, DataType, Datum, Result, Schema};
use dash_encoding::column::{value_kind, ColumnValues, ValueKind};
use dash_encoding::strs::{StrColumn, StrPool, NULL_CODE};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-null values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `MEDIAN(expr)` (Oracle).
    Median,
    /// `PERCENTILE_CONT(q)` — continuous percentile (linear interpolation).
    PercentileCont(f64),
    /// `PERCENTILE_DISC(q)` — discrete percentile.
    PercentileDisc(f64),
    /// `VAR_POP` / `VARIANCE` (population variance).
    VarPop,
    /// `VAR_SAMP` / `VARIANCE_SAMP`.
    VarSamp,
    /// `STDDEV_POP` / `STDDEV`.
    StdDevPop,
    /// `STDDEV_SAMP`.
    StdDevSamp,
    /// `COVAR_POP` / `COVARIANCE` (two arguments).
    CovarPop,
    /// `COVAR_SAMP` / `COVARIANCE_SAMP`.
    CovarSamp,
}

impl AggFunc {
    /// Resolve an aggregate by (dialect-merged) name. `None` if unknown.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" | "MEAN" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "MEDIAN" => AggFunc::Median,
            "VAR_POP" | "VARIANCE" => AggFunc::VarPop,
            "VAR_SAMP" | "VARIANCE_SAMP" => AggFunc::VarSamp,
            "STDDEV_POP" | "STDDEV" => AggFunc::StdDevPop,
            "STDDEV_SAMP" => AggFunc::StdDevSamp,
            "COVAR_POP" | "COVARIANCE" => AggFunc::CovarPop,
            "COVAR_SAMP" | "COVARIANCE_SAMP" => AggFunc::CovarSamp,
            _ => return None,
        })
    }

    /// Number of argument expressions the function takes.
    pub fn arg_count(&self) -> usize {
        match self {
            AggFunc::CountStar => 0,
            AggFunc::CovarPop | AggFunc::CovarSamp => 2,
            _ => 1,
        }
    }
}

/// One aggregate expression in a GROUP BY plan node.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument column ordinals of the aggregate's input (empty for
    /// COUNT(*)).
    pub args: Vec<usize>,
    /// DISTINCT modifier (COUNT(DISTINCT x), SUM(DISTINCT x)...).
    pub distinct: bool,
    /// Each argument column's type, which picks the state and types the
    /// result where no input schema is at hand.
    pub arg_types: Vec<DataType>,
}

fn out_type(schema: &Schema, i: usize) -> Result<DataType> {
    let field = schema.fields().get(i);
    field
        .map(|f| f.data_type)
        .ok_or_else(|| DashError::internal(format!("aggregate output schema has no column {i}")))
}

/// A typed column and the rows of it one pass covers: an input column
/// lends the batch's storage, a `DISTINCT` aggregate's de-duplicated copy
/// owns its own.
struct MorselCol<'a> {
    values: Cow<'a, ColumnValues>,
    rows: Range<usize>,
    dt: DataType,
}

impl<'a> MorselCol<'a> {
    fn borrowed(input: &'a Batch, col: usize, rows: &Range<usize>) -> Result<MorselCol<'a>> {
        Ok(MorselCol {
            values: Cow::Borrowed(input.try_column(col)?),
            rows: rows.clone(),
            dt: out_type(input.schema(), col)?,
        })
    }

    /// `f(i)` for every non-NULL value, `i` counting from the morsel's
    /// first row.
    fn for_each_valid(&self, mut f: impl FnMut(usize)) {
        fn valid<T>(v: &[Option<T>], mut f: impl FnMut(usize)) {
            v.iter().enumerate().filter(|(_, x)| x.is_some()).for_each(|(i, _)| f(i));
        }
        match &*self.values {
            ColumnValues::Int(v) => valid(&v[self.rows.clone()], &mut f),
            ColumnValues::Float(v) => valid(&v[self.rows.clone()], &mut f),
            ColumnValues::Str(v) => {
                let codes = &v.codes()[self.rows.clone()];
                codes.iter().enumerate().filter(|(_, &c)| c != NULL_CODE).for_each(|(i, _)| f(i));
            }
        }
    }

    /// `f(i, x)` for every non-NULL value of a numeric column, `x` the
    /// `f64` that `Datum::as_float` gives it: integers widen, decimals
    /// divide by their scale.
    fn for_each_f64(&self, mut f: impl FnMut(usize, f64)) -> Result<()> {
        let rows = self.rows.clone();
        match (&*self.values, self.dt) {
            (ColumnValues::Float(v), _) => {
                for (i, x) in v[rows].iter().enumerate() {
                    if let Some(x) = x {
                        f(i, *x);
                    }
                }
            }
            (ColumnValues::Int(v), DataType::Decimal(_, s)) => {
                let div = 10f64.powi(s as i32);
                for (i, x) in v[rows].iter().enumerate() {
                    if let Some(x) = x {
                        f(i, *x as f64 / div);
                    }
                }
            }
            (ColumnValues::Int(v), dt) if dt.is_integer() => {
                for (i, x) in v[rows].iter().enumerate() {
                    if let Some(x) = x {
                        f(i, *x as f64);
                    }
                }
            }
            _ => return Err(DashError::internal("numeric aggregate over a non-numeric column")),
        }
        Ok(())
    }
}

/// One aggregate's running state for every group of a partial or of the
/// accumulator: a struct of arrays indexed by group id.
#[derive(Debug, Clone)]
enum StateCol {
    Count(Vec<i64>),
    /// Integer sums and scaled-decimal sums, overflow-checked.
    SumInt { sum: Vec<i64>, seen: Vec<bool> },
    SumFloat { sum: Vec<f64>, seen: Vec<bool> },
    Avg { sum: Vec<f64>, n: Vec<i64> },
    /// `best` has the argument's storage kind; `dt` is its logical type.
    MinMax { best: ColumnValues, dt: DataType, min: bool },
    /// Holds all values (percentiles/median need the full set).
    Values(Vec<Vec<f64>>),
    /// Welford-style moments for variance/stddev.
    Moments { n: Vec<i64>, mean: Vec<f64>, m2: Vec<f64> },
    /// Co-moments for covariance.
    CoMoments { n: Vec<i64>, mx: Vec<f64>, my: Vec<f64>, cxy: Vec<f64> },
    /// `inner` sees each group's distinct non-NULL values once: `seen`
    /// holds `(group, value word)`, a string's word its code in `pool` — a
    /// `DISTINCT` aggregate runs as one partial over one batch, so one pool.
    Distinct { seen: FxHashSet<(u32, u64)>, pool: Option<Arc<StrPool>>, inner: Box<StateCol> },
}

fn overflow() -> DashError {
    DashError::exec("SUM overflow")
}

/// Fold rows `rows` of `vals` into `best`: slot `at(i)` keeps the smaller
/// (`min`) or larger of itself and the `i`-th of those rows. An unordered
/// pair (a NaN) keeps the slot, as `sql_cmp` does.
fn keep_best(
    best: &mut ColumnValues,
    vals: &ColumnValues,
    rows: Range<usize>,
    at: impl Fn(usize) -> usize,
    min: bool,
) -> Result<()> {
    fn fold<T: PartialOrd + Clone>(
        best: &mut [Option<T>],
        vals: &[Option<T>],
        at: impl Fn(usize) -> usize,
        min: bool,
    ) {
        for (i, x) in vals.iter().enumerate() {
            let Some(x) = x else { continue };
            let cur = &mut best[at(i)];
            let replace = match cur {
                None => true,
                Some(c) if min => x < c,
                Some(c) => x > c,
            };
            if replace {
                *cur = Some(x.clone());
            }
        }
    }
    /// Strings compare as `&str` read from their pools; a replacement
    /// copies the code, or interns the value when the pools differ.
    fn fold_strs(best: &mut StrColumn, vals: &StrColumn, rows: Range<usize>, at: impl Fn(usize) -> usize, min: bool) {
        let (codes, pool) = (&vals.codes()[rows.clone()], &**vals.pool());
        for (i, &code) in codes.iter().enumerate() {
            if code == NULL_CODE {
                continue;
            }
            let slot = at(i);
            let replace = match best.get(slot) {
                None => true,
                Some(c) if min => pool.value(code) < c,
                Some(c) => pool.value(code) > c,
            };
            if replace {
                best.set_code(slot, vals.pool(), code);
            }
        }
    }
    match (best, vals) {
        (ColumnValues::Int(b), ColumnValues::Int(v)) => fold(b, &v[rows], at, min),
        (ColumnValues::Float(b), ColumnValues::Float(v)) => fold(b, &v[rows], at, min),
        (ColumnValues::Str(b), ColumnValues::Str(v)) => fold_strs(b, v, rows, at, min),
        _ => return Err(DashError::internal("MIN/MAX state does not match its argument column")),
    }
    Ok(())
}

impl StateCol {
    /// Empty state for `agg`, whose output column has type `out`.
    fn new(agg: &AggExpr, out: DataType) -> StateCol {
        let arg = agg.arg_types.first().copied().unwrap_or(out);
        let base = match agg.func {
            AggFunc::CountStar | AggFunc::Count => StateCol::Count(Vec::new()),
            AggFunc::Sum if value_kind(out) == ValueKind::Int => StateCol::SumInt {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Sum => StateCol::SumFloat {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggFunc::Avg => StateCol::Avg {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => StateCol::MinMax {
                best: ColumnValues::empty_for(arg),
                dt: arg,
                min: agg.func == AggFunc::Min,
            },
            AggFunc::Median | AggFunc::PercentileCont(_) | AggFunc::PercentileDisc(_) => {
                StateCol::Values(Vec::new())
            }
            AggFunc::VarPop | AggFunc::VarSamp | AggFunc::StdDevPop | AggFunc::StdDevSamp => {
                StateCol::Moments {
                    n: Vec::new(),
                    mean: Vec::new(),
                    m2: Vec::new(),
                }
            }
            AggFunc::CovarPop | AggFunc::CovarSamp => StateCol::CoMoments {
                n: Vec::new(),
                mx: Vec::new(),
                my: Vec::new(),
                cxy: Vec::new(),
            },
        };
        if agg.distinct {
            StateCol::Distinct {
                seen: FxHashSet::default(),
                pool: None,
                inner: Box::new(base),
            }
        } else {
            base
        }
    }

    /// Grow to `groups` slots, new ones at the aggregate's identity.
    fn resize(&mut self, groups: usize) {
        match self {
            StateCol::Count(c) => c.resize(groups, 0),
            StateCol::SumInt { sum, seen } => {
                sum.resize(groups, 0);
                seen.resize(groups, false);
            }
            StateCol::SumFloat { sum, seen } => {
                sum.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            StateCol::Avg { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            StateCol::MinMax { best, .. } => match best {
                ColumnValues::Int(v) => v.resize(groups, None),
                ColumnValues::Float(v) => v.resize(groups, None),
                ColumnValues::Str(v) => v.resize_null(groups),
            },
            StateCol::Values(v) => v.resize(groups, Vec::new()),
            StateCol::Moments { n, mean, m2 } => {
                n.resize(groups, 0);
                mean.resize(groups, 0.0);
                m2.resize(groups, 0.0);
            }
            StateCol::CoMoments { n, mx, my, cxy } => {
                n.resize(groups, 0);
                mx.resize(groups, 0.0);
                my.resize(groups, 0.0);
                cxy.resize(groups, 0.0);
            }
            StateCol::Distinct { inner, .. } => inner.resize(groups),
        }
    }

    /// Bytes one group's slot holds, not counting what `update` reports
    /// through its `grown` counter.
    fn slot_bytes(&self) -> u64 {
        match self {
            StateCol::Count(_) => 8,
            StateCol::SumInt { .. } | StateCol::SumFloat { .. } => 9,
            StateCol::Avg { .. } | StateCol::MinMax { .. } => 16,
            StateCol::Values(_) | StateCol::Moments { .. } => 24,
            StateCol::CoMoments { .. } => 32,
            StateCol::Distinct { inner, .. } => inner.slot_bytes(),
        }
    }

    /// Fold one morsel's argument columns into the state: row `i` of the
    /// morsel updates slot `gids[i]`, or slot 0 of a global aggregate.
    /// `grown` counts bytes the state grows by beyond its fixed slots.
    fn update(
        &mut self,
        args: &[MorselCol<'_>],
        rows: usize,
        gids: Option<&[u32]>,
        grown: &mut u64,
    ) -> Result<()> {
        match gids {
            Some(g) => self.update_by(args, rows, |i| g[i] as usize, grown),
            None => self.update_by(args, rows, |_| 0, grown),
        }
    }

    fn update_by(
        &mut self,
        args: &[MorselCol<'_>],
        rows: usize,
        gid: impl Fn(usize) -> usize + Copy,
        grown: &mut u64,
    ) -> Result<()> {
        let mismatch = || DashError::internal("aggregate state does not match its argument column");
        let arg = |a: usize| args.get(a).ok_or_else(mismatch);
        match self {
            StateCol::Count(count) => match args.first() {
                None => (0..rows).for_each(|i| count[gid(i)] += 1),
                Some(a) => a.for_each_valid(|i| count[gid(i)] += 1),
            },
            StateCol::SumInt { sum, seen } => {
                let a = arg(0)?;
                let ColumnValues::Int(v) = &*a.values else {
                    return Err(mismatch());
                };
                for (i, x) in v[a.rows.clone()].iter().enumerate() {
                    if let Some(x) = x {
                        let g = gid(i);
                        sum[g] = sum[g].checked_add(*x).ok_or_else(overflow)?;
                        seen[g] = true;
                    }
                }
            }
            StateCol::SumFloat { sum, seen } => arg(0)?.for_each_f64(|i, x| {
                let g = gid(i);
                sum[g] += x;
                seen[g] = true;
            })?,
            StateCol::Avg { sum, n } => arg(0)?.for_each_f64(|i, x| {
                let g = gid(i);
                sum[g] += x;
                n[g] += 1;
            })?,
            StateCol::MinMax { best, min, .. } => {
                let a = arg(0)?;
                keep_best(best, &a.values, a.rows.clone(), gid, *min)?;
            }
            StateCol::Values(vals) => arg(0)?.for_each_f64(|i, x| {
                vals[gid(i)].push(x);
                *grown += 8;
            })?,
            StateCol::Moments { n, mean, m2 } => arg(0)?.for_each_f64(|i, x| {
                let g = gid(i);
                n[g] += 1;
                let delta = x - mean[g];
                mean[g] += delta / n[g] as f64;
                m2[g] += delta * (x - mean[g]);
            })?,
            StateCol::CoMoments { n, mx, my, cxy } => {
                // A row counts only when both arguments are non-NULL.
                let mut ys: Vec<Option<f64>> = vec![None; rows];
                arg(1)?.for_each_f64(|i, y| ys[i] = Some(y))?;
                arg(0)?.for_each_f64(|i, x| {
                    if let Some(y) = ys[i] {
                        let g = gid(i);
                        n[g] += 1;
                        let dx = x - mx[g];
                        mx[g] += dx / n[g] as f64;
                        my[g] += (y - my[g]) / n[g] as f64;
                        cxy[g] += dx * (y - my[g]);
                    }
                })?;
            }
            StateCol::Distinct { seen, pool: seen_pool, inner } => {
                // Only single-argument distinct aggregates are supported;
                // one without an argument sees nothing, as before.
                let Some(a) = args.first() else { return Ok(()) };
                let r = a.rows.clone();
                let mut first = |g: usize, word: u64| {
                    let new = seen.insert((g as u32, word));
                    *grown += if new { 24 } else { 0 };
                    new
                };
                fn once<T: Clone>(v: &[Option<T>], mut first: impl FnMut(usize, &T) -> bool) -> Vec<Option<T>> {
                    v.iter().enumerate().map(|(i, x)| x.clone().filter(|x| first(i, x))).collect()
                }
                // The argument again, with every repeat within its group
                // turned to NULL: `inner` skips those like any NULL.
                let once = match &*a.values {
                    ColumnValues::Int(v) => ColumnValues::Int(once(&v[r], |i, x| first(gid(i), *x as u64))),
                    ColumnValues::Float(v) => {
                        ColumnValues::Float(once(&v[r], |i, x| first(gid(i), key::f64_key_word(*x))))
                    }
                    ColumnValues::Str(v) => {
                        let pool = v.pool();
                        if !Arc::ptr_eq(seen_pool.get_or_insert_with(|| pool.clone()), pool) {
                            return Err(DashError::internal("DISTINCT aggregate over two string pools"));
                        }
                        let codes = v.codes()[r].iter().enumerate().map(|(i, &code)| {
                            if code != NULL_CODE && first(gid(i), u64::from(code)) {
                                code
                            } else {
                                NULL_CODE
                            }
                        });
                        ColumnValues::Str(StrColumn::from_parts(codes.collect(), pool.clone()))
                    }
                };
                let once = MorselCol {
                    values: Cow::Owned(once),
                    rows: 0..rows,
                    dt: a.dt,
                };
                inner.update_by(&[once], rows, gid, grown)?;
            }
        }
        Ok(())
    }

    /// Merge a morsel-partial state column into this one — the aggregate
    /// breaker's combine step: slot `g` of `src` folds into slot `map[g]`.
    /// Counts and sums add, min/max compare, percentile value sets
    /// concatenate (in fold order, so the pre-sort layout is
    /// deterministic), and the moment states combine with Chan et al.'s
    /// parallel update formulas. `DISTINCT` states cannot merge (their
    /// per-partial seen-sets overlap); the pipeline feeds them one partial
    /// spanning the whole input, so reaching one here is an internal error,
    /// not a user error. Returns the bytes grown beyond the fixed slots.
    /// `src` is only read: the accumulator allocates what it grows by.
    fn merge(&mut self, src: &StateCol, map: &[u32]) -> Result<u64> {
        let at = |g: usize| map[g] as usize;
        let mut grown = 0u64;
        match (self, src) {
            (StateCol::Count(d), StateCol::Count(s)) => {
                s.iter().enumerate().for_each(|(g, c)| d[at(g)] += c);
            }
            (StateCol::SumInt { sum, seen }, StateCol::SumInt { sum: s, seen: a }) => {
                for (g, (s, a)) in s.iter().zip(a).enumerate() {
                    sum[at(g)] = sum[at(g)].checked_add(*s).ok_or_else(overflow)?;
                    seen[at(g)] |= a;
                }
            }
            (StateCol::SumFloat { sum, seen }, StateCol::SumFloat { sum: s, seen: a }) => {
                for (g, (s, a)) in s.iter().zip(a).enumerate() {
                    sum[at(g)] += s;
                    seen[at(g)] |= a;
                }
            }
            (StateCol::Avg { sum, n }, StateCol::Avg { sum: s, n: m }) => {
                for (g, (s, m)) in s.iter().zip(m).enumerate() {
                    sum[at(g)] += s;
                    n[at(g)] += m;
                }
            }
            (StateCol::MinMax { best, min, .. }, StateCol::MinMax { best: other, .. }) => {
                keep_best(best, other, 0..other.len(), at, *min)?;
            }
            (StateCol::Values(d), StateCol::Values(s)) => {
                for (g, vals) in s.iter().enumerate() {
                    grown += 8 * vals.len() as u64;
                    d[at(g)].extend_from_slice(vals);
                }
            }
            (
                StateCol::Moments { n, mean, m2 },
                StateCol::Moments {
                    n: n2,
                    mean: mean2,
                    m2: m22,
                },
            ) => {
                for (g, &n2) in n2.iter().enumerate().filter(|(_, &n2)| n2 > 0) {
                    let (d, mean2, m22) = (at(g), mean2[g], m22[g]);
                    if n[d] == 0 {
                        (n[d], mean[d], m2[d]) = (n2, mean2, m22);
                    } else {
                        let total = n[d] + n2;
                        let delta = mean2 - mean[d];
                        m2[d] += m22 + delta * delta * (n[d] as f64) * (n2 as f64) / total as f64;
                        mean[d] += delta * (n2 as f64) / total as f64;
                        n[d] = total;
                    }
                }
            }
            (
                StateCol::CoMoments { n, mx, my, cxy },
                StateCol::CoMoments {
                    n: n2,
                    mx: mx2,
                    my: my2,
                    cxy: cxy2,
                },
            ) => {
                for (g, &n2) in n2.iter().enumerate().filter(|(_, &n2)| n2 > 0) {
                    let (d, mx2, my2, cxy2) = (at(g), mx2[g], my2[g], cxy2[g]);
                    if n[d] == 0 {
                        (n[d], mx[d], my[d], cxy[d]) = (n2, mx2, my2, cxy2);
                    } else {
                        let total = n[d] + n2;
                        let dx = mx2 - mx[d];
                        let dy = my2 - my[d];
                        cxy[d] += cxy2 + dx * dy * (n[d] as f64) * (n2 as f64) / total as f64;
                        mx[d] += dx * (n2 as f64) / total as f64;
                        my[d] += dy * (n2 as f64) / total as f64;
                        n[d] = total;
                    }
                }
            }
            (StateCol::Distinct { .. }, _) => {
                return Err(DashError::internal(
                    "DISTINCT aggregate reached the partial-merge path",
                ))
            }
            _ => {
                return Err(DashError::internal(
                    "mismatched aggregate partial states at merge",
                ))
            }
        }
        Ok(grown)
    }

    /// A copy for the accumulator to merge into. A `DISTINCT` state's
    /// seen-set stays behind: no partial merges into that state.
    fn copy(&self) -> StateCol {
        match self {
            StateCol::Distinct { pool, inner, .. } => StateCol::Distinct {
                seen: FxHashSet::default(),
                pool: pool.clone(),
                inner: Box::new(inner.copy()),
            },
            s => s.clone(),
        }
    }

    /// Every group's result, in group order.
    fn finish(self, func: &AggFunc, out: DataType) -> Vec<Datum> {
        let some_if = |seen: bool, d: Datum| if seen { d } else { Datum::Null };
        match self {
            StateCol::Distinct { inner, .. } => inner.finish(func, out),
            StateCol::Count(c) => c.into_iter().map(Datum::Int).collect(),
            StateCol::SumInt { sum, seen } => {
                let datum = |x: i64| match out {
                    DataType::Decimal(_, s) => Datum::Decimal(x as i128, s),
                    _ => Datum::Int(x),
                };
                sum.into_iter().zip(seen).map(|(x, seen)| some_if(seen, datum(x))).collect()
            }
            StateCol::SumFloat { sum, seen } => {
                sum.into_iter().zip(seen).map(|(x, seen)| some_if(seen, Datum::Float(x))).collect()
            }
            StateCol::Avg { sum, n } => {
                sum.into_iter().zip(n).map(|(s, n)| some_if(n > 0, Datum::Float(s / n as f64))).collect()
            }
            StateCol::MinMax { best, dt, .. } => (0..best.len()).map(|g| best.datum_at(dt, g)).collect(),
            StateCol::Values(groups) => groups.into_iter().map(|vals| percentile(vals, func)).collect(),
            StateCol::Moments { n, m2, .. } => {
                let stddev = matches!(func, AggFunc::StdDevPop | AggFunc::StdDevSamp);
                let sample = matches!(func, AggFunc::VarSamp | AggFunc::StdDevSamp);
                n.into_iter()
                    .zip(m2)
                    .map(|(n, m2)| {
                        let denom = n - i64::from(sample);
                        let var = m2 / denom as f64;
                        some_if(denom > 0, Datum::Float(if stddev { var.sqrt() } else { var }))
                    })
                    .collect()
            }
            StateCol::CoMoments { n, cxy, .. } => {
                let sample = matches!(func, AggFunc::CovarSamp);
                n.into_iter()
                    .zip(cxy)
                    .map(|(n, cxy)| {
                        let denom = n - i64::from(sample);
                        some_if(denom > 0, Datum::Float(cxy / denom as f64))
                    })
                    .collect()
            }
        }
    }
}

/// `MEDIAN` / `PERCENTILE_CONT` / `PERCENTILE_DISC` of one group's values.
/// `total_cmp` puts NaNs at fixed places, so the answer does not depend on
/// the order the values arrived in.
fn percentile(mut vals: Vec<f64>, func: &AggFunc) -> Datum {
    if vals.is_empty() {
        return Datum::Null;
    }
    vals.sort_by(f64::total_cmp);
    match func {
        AggFunc::PercentileDisc(q) => {
            // Smallest value whose cumulative distribution >= q.
            let idx = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1;
            Datum::Float(vals[idx])
        }
        _ => {
            // Continuous interpolation (MEDIAN is PERCENTILE_CONT(0.5)).
            let q = match func {
                AggFunc::PercentileCont(q) => *q,
                _ => 0.5,
            };
            let pos = q * (vals.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            Datum::Float(vals[lo] + (vals[hi] - vals[lo]) * frac)
        }
    }
}

/// Empty state columns for `aggs`, typed from their output columns
/// (`out_schema` fields after the `nk` group keys) and argument types.
fn new_states(aggs: &[AggExpr], nk: usize, out_schema: &Schema) -> Result<Vec<StateCol>> {
    aggs.iter()
        .enumerate()
        .map(|(a, agg)| {
            let out = out_type(out_schema, nk + a)?;
            Ok(StateCol::new(agg, out))
        })
        .collect()
}

/// Can every aggregate in this list run as mergeable per-morsel partials?
/// `DISTINCT` cannot: its per-partial seen-sets overlap across morsels.
pub(crate) fn supports_partial(aggs: &[AggExpr]) -> bool {
    !aggs.iter().any(|a| a.distinct)
}

/// One morsel's worth of grouped aggregate state: each group's key words
/// and first-row key values, in first-appearance order, plus one state
/// column per aggregate. Produced on pool workers by [`aggregate_morsel`],
/// merged in morsel-index order by [`AggAccumulator::merge`].
pub(crate) struct AggPartial {
    /// Key words per group; a string word is its code in the key column's
    /// pool. Unused by a global aggregate.
    table: GroupTable,
    /// Per key column, each group's value from the group's first row; a
    /// string column shares the input's pool, so its codes are the words.
    keys: Vec<ColumnValues>,
    states: Vec<StateCol>,
    groups: usize,
    rows: u64,
    /// Bytes of `keys` and `states`.
    bytes: u64,
}

impl AggPartial {
    /// Rough heap footprint (keys plus states), for inflight accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.bytes + self.table.bytes()
    }
}

/// Rows of a morsel aggregated per pass. A scan stride or a batch morsel is
/// one pass; a morsel a join probe fanned out may take a few, and the single
/// partial of a `DISTINCT` aggregate spans its whole input and takes many,
/// which bounds the per-row scratch — key words, group ids — at this many
/// rows. State persists across passes and rows fold in order, so where the
/// cuts fall changes no result.
const PASS_ROWS: usize = 4096;

/// Append the values of `src` at `at` to the key column `dst`; returns the
/// bytes they add. A string key is charged its value's bytes: the group
/// keeps the value reachable, wherever its pool lives.
fn append_keys(dst: &mut ColumnValues, src: &ColumnValues, at: &[usize]) -> u64 {
    dst.append_selected(src, at);
    match src {
        ColumnValues::Str(v) => at.iter().map(|&i| 16 + v.get(i).map_or(0, str::len) as u64).sum(),
        _ => 9 * at.len() as u64,
    }
}

/// Aggregate one pipeline morsel — rows `rows` of `input` — into a
/// mergeable partial, column at a time. First the group key columns become
/// fixed-width key words — the operate-on-compressed path; a string's word
/// is its code — and the words a dense group id per row; a global
/// aggregate skips that. Then each aggregate runs one typed loop over its
/// argument column into its state column. Each group's key values are gathered from its first row, so
/// merging partials in morsel order reproduces the serial scan's
/// first-appearance group order.
pub(crate) fn aggregate_morsel(
    input: &Batch,
    rows: Range<usize>,
    sink: &AggSink<'_>,
    ctx: &EvalContext,
) -> Result<AggPartial> {
    let nk = sink.group.len();
    let mut keys = Vec::with_capacity(nk);
    for (c, &col) in sink.group.iter().enumerate() {
        // A key column starts out with its input's pool, so its words and
        // its first-row values are codes of one pool.
        keys.push(match input.try_column(col)? {
            ColumnValues::Str(v) => ColumnValues::Str(StrColumn::with_pool(v.pool().clone())),
            _ => ColumnValues::empty_for(out_type(sink.schema, c)?),
        });
    }
    let mut part = AggPartial {
        table: GroupTable::new(nk),
        keys,
        states: new_states(sink.aggs, nk, sink.schema)?,
        // A global aggregate is one group, present even for an empty morsel
        // so zero-row inputs still produce their NULL/0 row at finish.
        groups: usize::from(nk == 0),
        rows: rows.len() as u64,
        bytes: 0,
    };
    for state in &mut part.states {
        state.resize(part.groups);
        part.bytes += state.slot_bytes() * part.groups as u64;
    }
    let mut done = rows.start;
    loop {
        // Cancellation/deadline observed before every pass (and once for an
        // empty morsel), so latency stays bounded whatever the morsel's
        // length.
        ctx.statement.check()?;
        let pass = done..rows.end.min(done + PASS_ROWS);
        if pass.is_empty() {
            return Ok(part);
        }
        part.fold_rows(input, &pass, sink)?;
        done = pass.end;
    }
}

impl AggPartial {
    /// One pass of [`aggregate_morsel`]: fold rows `rows` of `input` in.
    fn fold_rows(&mut self, input: &Batch, rows: &Range<usize>, sink: &AggSink<'_>) -> Result<()> {
        let nk = sink.group.len();
        let prev = self.groups;
        let mut gids: Option<Vec<u32>> = None;
        if nk > 0 {
            let cols: Vec<MorselCol<'_>> =
                sink.group.iter().map(|&col| MorselCol::borrowed(input, col, rows)).collect::<Result<_>>()?;
            let mut views: Vec<KeyCol<'_>> = cols.iter().map(|c| KeyCol::new(&c.values, None, rows.len())).collect();
            // Row (within the pass) each new group first appeared at.
            let mut first_rows: Vec<usize> = Vec::new();
            gids = Some(group_ids(&mut views, &cols, rows.len(), &mut self.table, &mut first_rows));
            self.groups += first_rows.len();
            for (key, col) in self.keys.iter_mut().zip(&cols) {
                let at: Vec<usize> = first_rows.iter().map(|r| col.rows.start + r).collect();
                self.bytes += append_keys(key, &col.values, &at);
            }
        }
        for (agg, state) in sink.aggs.iter().zip(&mut self.states) {
            state.resize(self.groups);
            self.bytes += state.slot_bytes() * (self.groups - prev) as u64;
            // No aggregate reads more than two arguments; none allocates a
            // list of them per pass.
            let (one, two);
            let args: &[MorselCol<'_>] = match agg.args[..] {
                [] => &[],
                [a] => {
                    one = [MorselCol::borrowed(input, a, rows)?];
                    &one
                }
                [a, b, ..] => {
                    two = [MorselCol::borrowed(input, a, rows)?, MorselCol::borrowed(input, b, rows)?];
                    &two
                }
            };
            state.update(args, rows.len(), gids.as_deref(), &mut self.bytes)?;
        }
        Ok(())
    }
}

/// The group id of every row of a pass: key columns to key words, key words
/// through `table`. `first_rows` gets the row each new group opened at.
fn group_ids(
    views: &mut [KeyCol<'_>],
    cols: &[MorselCol<'_>],
    n: usize,
    table: &mut GroupTable,
    first_rows: &mut Vec<usize>,
) -> Vec<u32> {
    let nk = views.len();
    let prev = table.len();
    let mut gids = Vec::with_capacity(n);
    let mut note = |i: usize, gid: u32| {
        if gid as usize == prev + first_rows.len() {
            first_rows.push(i);
        }
        gids.push(gid);
    };
    if let [view] = views {
        view.for_each_word(cols[0].rows.clone(), |i, w| {
            let gid = match w {
                None => table.null_group(),
                Some(w) => table.group_of_word(w),
            };
            note(i, gid);
        });
    } else {
        let stride = table.stride();
        let mut words = vec![0u64; n * stride];
        for (c, (view, col)) in views.iter_mut().zip(cols).enumerate() {
            view.for_each_word(col.rows.clone(), |i, w| {
                let key = &mut words[i * stride..(i + 1) * stride];
                match w {
                    None => key[nk + c / 64] |= 1 << (c % 64),
                    Some(w) => key[c] = w,
                }
            });
        }
        for (i, key) in words.chunks_exact(stride).enumerate() {
            note(i, table.group_of(key));
        }
    }
    gids
}

/// The aggregate pipeline breaker's fold side: merges per-morsel
/// [`AggPartial`]s in morsel-index order, keeping groups in global
/// first-appearance order, then finishes into the output batch. Runs only
/// on the folding thread, so it needs no synchronization. It only reads a
/// partial: every block it holds it allocated itself, and the partial goes
/// back to the thread that built it to be freed.
pub(crate) struct AggAccumulator {
    /// Number of group keys.
    nk: usize,
    /// Key words per group; a string word is its code in `keys`' pool.
    table: GroupTable,
    keys: Vec<ColumnValues>,
    states: Vec<StateCol>,
    groups: usize,
    /// Rows grouped on key words so far.
    pub(crate) keyed_rows: u64,
    /// Bytes of `keys` and `states`, kept as a running total.
    bytes: u64,
}

impl AggAccumulator {
    /// An empty accumulator for `nk` group keys.
    pub(crate) fn new(nk: usize) -> AggAccumulator {
        AggAccumulator {
            nk,
            table: GroupTable::new(nk),
            keys: Vec::new(),
            states: Vec::new(),
            groups: 0,
            keyed_rows: 0,
            bytes: 0,
        }
    }

    /// Fold one morsel's partial into the global state. Must be called in
    /// morsel-index order for deterministic group order. Groups are probed
    /// on their key words; state columns add element-wise.
    pub(crate) fn merge(&mut self, partial: &AggPartial) -> Result<()> {
        let prev = self.groups;
        // `map[g]`: this accumulator's group for the partial's group `g`;
        // `fresh`: the partial's groups that are new here, in order.
        let mut map: Vec<u32> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        if self.nk == 0 {
            // One group, adopted with the first partial.
            self.groups = 1;
            if prev > 0 {
                map.push(0);
            }
        } else {
            map.reserve(partial.groups);
            self.keyed_rows += partial.rows;
            // Each string key column whose group codes are not this
            // accumulator's key column's codes already (the first partial's
            // are), with theirs re-coded: what appending the groups gives.
            let mut ours: Vec<(usize, Vec<u32>)> = Vec::new();
            for (col, (dst, src)) in self.keys.iter_mut().zip(&partial.keys).enumerate() {
                if let (ColumnValues::Str(dst), ColumnValues::Str(src)) = (dst, src) {
                    if let Cow::Owned(codes) = dst.codes_of(src) {
                        ours.push((col, codes));
                    }
                }
            }
            let mut key = vec![0u64; self.table.stride()];
            for g in 0..partial.groups {
                let gid = match partial.table.key(g) {
                    None => self.table.null_group(),
                    Some(theirs) => {
                        key.copy_from_slice(theirs);
                        for (col, codes) in &ours {
                            // A NULL component's word is zeroed and stays so.
                            if codes[g] != NULL_CODE {
                                key[*col] = u64::from(codes[g]);
                            }
                        }
                        match key[..] {
                            [word] => self.table.group_of_word(word),
                            _ => self.table.group_of(&key),
                        }
                    }
                };
                if gid as usize == prev + fresh.len() {
                    fresh.push(g);
                }
                map.push(gid);
            }
            self.groups = prev + fresh.len();
        }
        if prev == 0 {
            // Every group of the partial is new, in order: a copy of its
            // columns is this accumulator's.
            self.keys = partial.keys.clone();
            self.states = partial.states.iter().map(StateCol::copy).collect();
            self.bytes = partial.bytes;
            return Ok(());
        }
        for (dst, src) in self.keys.iter_mut().zip(&partial.keys) {
            self.bytes += append_keys(dst, src, &fresh);
        }
        for (dst, src) in self.states.iter_mut().zip(&partial.states) {
            dst.resize(self.groups);
            self.bytes += dst.slot_bytes() * fresh.len() as u64 + dst.merge(src, &map)?;
        }
        Ok(())
    }

    /// Rough heap footprint of the accumulated group state; O(1), the fold
    /// reads it after every merge.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.bytes + self.table.bytes()
    }

    /// Finish every group into the output batch — the only place the
    /// aggregate builds `Datum`s. Key columns are of their output types
    /// already: each has its input column's.
    pub(crate) fn finish(self, aggs: &[AggExpr], out_schema: Schema) -> Result<Batch> {
        let nk = self.nk;
        let (mut keys, mut states) = (self.keys, self.states);
        if self.groups == 0 {
            // No morsel held a row.
            keys = (0..nk)
                .map(|c| Ok(ColumnValues::empty_for(out_type(&out_schema, c)?)))
                .collect::<Result<_>>()?;
            states = new_states(aggs, nk, &out_schema)?;
            if nk == 0 {
                // A global aggregate yields exactly one row even so.
                states.iter_mut().for_each(|s| s.resize(1));
            }
        }
        let mut columns = keys;
        for (a, (state, agg)) in states.into_iter().zip(aggs).enumerate() {
            let to = out_type(&out_schema, nk + a)?;
            columns.push(ColumnValues::from_datums(to, &state.finish(&agg.func, to))?);
        }
        Batch::new(out_schema, columns)
    }
}

/// Hash-aggregate a batch: the pipeline's aggregate sink fed by row-range
/// morsels of `input`.
///
/// `group` are the key columns (empty = global aggregate, which always
/// yields exactly one row); `aggs` produce the aggregate columns. The
/// output schema is `group columns ⧺ aggregate columns` with the supplied
/// field definitions, which also pick each aggregate's state. `_key_mode`
/// is the planner's label; grouping runs on key words either way.
#[allow(clippy::too_many_arguments)]
pub fn hash_aggregate(
    input: &Batch,
    group: &[usize],
    aggs: &[AggExpr],
    out_schema: Schema,
    ctx: &EvalContext,
    _key_mode: KeyMode,
    parallelism: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let sink = AggSink {
        group,
        aggs,
        schema: &out_schema,
    };
    pipeline::drive(&Feed::Batch(input), &[], Some(&sink), parallelism, ctx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Row};

    fn sales() -> Batch {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Int64),
            Field::new("qty", DataType::Float64),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[
                row!["east", 10i64, 1.0f64],
                row!["east", 20i64, 2.0f64],
                row!["west", 30i64, 3.0f64],
                row!["west", Datum::Null, 4.0f64],
                row!["west", 30i64, 5.0f64],
            ],
        )
        .unwrap()
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn out_schema(n_groups: usize, n_aggs: usize) -> Schema {
        let mut fields = Vec::new();
        for i in 0..n_groups {
            fields.push(Field::new(format!("g{i}"), DataType::Utf8));
        }
        for i in 0..n_aggs {
            fields.push(Field::new(format!("a{i}"), DataType::Float64));
        }
        Schema::new(fields).unwrap()
    }

    fn agg1(func: AggFunc, col: usize, dt: DataType) -> AggExpr {
        AggExpr {
            func,
            args: vec![col],
            distinct: false,
            arg_types: vec![dt],
        }
    }

    #[test]
    fn group_by_with_counts_and_sums() {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("cnt", DataType::Int64),
            Field::new("total", DataType::Int64),
        ])
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[0],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                    arg_types: vec![],
                },
                agg1(AggFunc::Sum, 1, DataType::Int64),
            ],
            schema,
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let mut rows = out.to_rows();
        rows.sort_by_key(|r| r.get(0).render());
        assert_eq!(rows[0], row!["east", 2i64, 30i64]);
        assert_eq!(rows[1], row!["west", 3i64, 60i64]);
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                    arg_types: vec![],
                },
                agg1(AggFunc::Count, 1, DataType::Int64),
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.row(0), row![5i64, 4i64]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let empty = Batch::from_rows(schema, &[]).unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &empty,
            &[],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                    arg_types: vec![],
                },
                agg1(AggFunc::Sum, 0, DataType::Int64),
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), row![0i64, Datum::Null]);
    }

    #[test]
    fn min_max_avg() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[agg1(AggFunc::Min, 1, DataType::Int64), agg1(AggFunc::Max, 1, DataType::Int64), agg1(AggFunc::Avg, 1, DataType::Int64)],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert_eq!(r.get(0), &Datum::Int(10));
        assert_eq!(r.get(1), &Datum::Int(30));
        assert_eq!(r.get(2), &Datum::Float(22.5)); // (10+20+30+30)/4
    }

    #[test]
    fn distinct_aggregates() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count,
                    args: vec![1],
                    distinct: true,
                    arg_types: vec![DataType::Int64],
                },
                AggExpr {
                    func: AggFunc::Sum,
                    args: vec![1],
                    distinct: true,
                    arg_types: vec![DataType::Int64],
                },
            ],
            out_schema(0, 2),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.row(0), row![3i64, 60i64]); // 10, 20, 30
    }

    #[test]
    fn median_and_percentiles() {
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &sales(),
            &[],
            &[
                agg1(AggFunc::Median, 2, DataType::Float64),
                AggExpr {
                    func: AggFunc::PercentileDisc(0.5),
                    args: vec![2],
                    distinct: false,
                    arg_types: vec![DataType::Float64],
                },
                AggExpr {
                    func: AggFunc::PercentileCont(0.25),
                    args: vec![2],
                    distinct: false,
                    arg_types: vec![DataType::Float64],
                },
            ],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert_eq!(r.get(0), &Datum::Float(3.0)); // median of 1..5
        assert_eq!(r.get(1), &Datum::Float(3.0)); // disc 0.5 of 5 values
        assert_eq!(r.get(2), &Datum::Float(2.0)); // cont 0.25
    }

    #[test]
    fn variance_and_stddev() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float64)]).unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![2.0f64], row![4.0f64], row![4.0f64], row![4.0f64], row![5.0f64], row![5.0f64], row![7.0f64], row![9.0f64]],
        )
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[],
            &[agg1(AggFunc::VarPop, 0, DataType::Float64), agg1(AggFunc::StdDevPop, 0, DataType::Float64), agg1(AggFunc::VarSamp, 0, DataType::Float64)],
            out_schema(0, 3),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let r = out.row(0);
        assert!((r.get(0).as_float().unwrap() - 4.0).abs() < 1e-9);
        assert!((r.get(1).as_float().unwrap() - 2.0).abs() < 1e-9);
        assert!((r.get(2).as_float().unwrap() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn covariance() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![1.0f64, 2.0f64], row![2.0f64, 4.0f64], row![3.0f64, 6.0f64]],
        )
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[],
            &[AggExpr {
                func: AggFunc::CovarPop,
                args: vec![0, 1],
                distinct: false,
                arg_types: vec![DataType::Float64, DataType::Float64],
            }],
            out_schema(0, 1),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        // cov_pop of perfectly linear y=2x over {1,2,3}: var_pop(x)*2 = (2/3)*2
        assert!((out.row(0).get(0).as_float().unwrap() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn null_group_keys_group_together() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("v", DataType::Int64),
        ])
        .unwrap();
        let b = Batch::from_rows(
            schema,
            &[row![Datum::Null, 1i64], row![Datum::Null, 2i64], row!["a", 3i64]],
        )
        .unwrap();
        let out_sch = Schema::new(vec![
            Field::new("k", DataType::Utf8),
            Field::new("s", DataType::Int64),
        ])
        .unwrap();
        let mut stats = ExecStats::default();
        let out = hash_aggregate(
            &b,
            &[0],
            &[agg1(AggFunc::Sum, 1, DataType::Int64)],
            out_sch,
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.len(), 2, "NULL keys form one group");
        let null_group: Vec<Row> = out
            .to_rows()
            .into_iter()
            .filter(|r| r.get(0).is_null())
            .collect();
        assert_eq!(null_group[0].get(1), &Datum::Int(3));
    }

    #[test]
    fn name_resolution() {
        assert_eq!(AggFunc::from_name("stddev"), Some(AggFunc::StdDevPop));
        assert_eq!(AggFunc::from_name("COVARIANCE"), Some(AggFunc::CovarPop));
        assert_eq!(AggFunc::from_name("nope"), None);
        assert_eq!(AggFunc::CovarPop.arg_count(), 2);
    }

    /// Partial-aggregate `input` in `split`-row morsels, merge in order,
    /// finish — the pipeline breaker's code path in miniature.
    fn partial_pipeline(
        input: &Batch,
        split: usize,
        group: &[usize],
        aggs: &[AggExpr],
        schema: Schema,
    ) -> Batch {
        let sink = AggSink {
            group,
            aggs,
            schema: &schema,
        };
        let mut acc = AggAccumulator::new(group.len());
        let mut start = 0;
        let mut any = false;
        while start < input.len() || (!any && input.is_empty()) {
            let end = (start + split).min(input.len());
            let partial = aggregate_morsel(input, start..end, &sink, &ctx());
            acc.merge(&partial.unwrap()).unwrap();
            start = end;
            any = true;
        }
        acc.finish(aggs, schema.clone()).unwrap()
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        let input = sales();
        let aggs = vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
                arg_types: vec![],
            },
            agg1(AggFunc::Sum, 1, DataType::Int64),
            agg1(AggFunc::Min, 1, DataType::Int64),
            agg1(AggFunc::Max, 2, DataType::Float64),
            agg1(AggFunc::Avg, 2, DataType::Float64),
        ];
        let schema = out_schema(1, 5);
        let mut stats = ExecStats::default();
        let whole = hash_aggregate(
            &input,
            &[0],
            &aggs,
            schema.clone(),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        for split in [1, 2, 5] {
            let merged = partial_pipeline(&input, split, &[0], &aggs, schema.clone());
            let mut a = whole.to_rows();
            let mut b = merged.to_rows();
            a.sort_by_key(|r| r.get(0).render());
            b.sort_by_key(|r| r.get(0).render());
            assert_eq!(a, b, "split={split}");
        }
    }

    /// Partials over batches of different pools — none, a dictionary with
    /// local values, another dictionary — merge by value: one group per
    /// key, NULL components included, whatever codes each pool gave it.
    #[test]
    fn partials_of_different_pools_merge_by_value() {
        use dash_encoding::dict::FreqDict;
        use dash_encoding::histogram::Histogram;
        let schema = Schema::new(vec![Field::new("region", DataType::Utf8), Field::new("n", DataType::Int64)]).unwrap();
        let rows = |vals: &[(Option<&str>, Option<i64>)]| -> Vec<Row> {
            vals.iter().map(|&(s, n)| Row::new(vec![s.map_or(Datum::Null, Datum::from), n.map_or(Datum::Null, Datum::Int)])).collect()
        };
        let over = |dict: &[&str], rows: &[Row]| -> Batch {
            let b = Batch::from_rows(schema.clone(), rows).unwrap();
            let arcs: Vec<Arc<str>> = dict.iter().map(|&s| Arc::from(s)).collect();
            let dict = Arc::new(FreqDict::build(&Histogram::from_values(arcs.iter().map(Some))));
            let mut columns = b.into_columns();
            if let ColumnValues::Str(v) = &columns[0] {
                columns[0] = ColumnValues::Str(v.repool(dict));
            }
            Batch::new(schema.clone(), columns).unwrap()
        };
        let parts = [
            over(&[], &rows(&[(Some("east"), Some(1)), (None, Some(1)), (Some("west"), None), (Some("east"), Some(1))])),
            over(&["west", "north"], &rows(&[(Some("east"), Some(1)), (Some("north"), Some(2)), (Some("west"), None), (None, Some(1))])),
            over(&["north", "east"], &rows(&[(Some("south"), Some(3)), (Some("east"), Some(1)), (Some("north"), Some(2)), (None, None)])),
            over(&[], &rows(&[(Some("south"), Some(3)), (Some("west"), None), (Some("x"), Some(9))])),
        ];
        let aggs = vec![AggExpr { func: AggFunc::CountStar, args: vec![], distinct: false, arg_types: vec![] }];
        let out = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("n", DataType::Int64),
            Field::new("c", DataType::Int64),
        ])
        .unwrap();
        for group in [&[0][..], &[0, 1]] {
            let keys = &out.fields()[..group.len()];
            let schema = Schema::new(keys.iter().cloned().chain([out.fields()[2].clone()]).collect()).unwrap();
            let sink = AggSink { group, aggs: &aggs, schema: &schema };
            let mut acc = AggAccumulator::new(group.len());
            for b in &parts {
                acc.merge(&aggregate_morsel(b, 0..b.len(), &sink, &ctx()).unwrap()).unwrap();
            }
            let merged = acc.finish(&aggs, schema.clone()).unwrap().to_rows();
            let all: Vec<Row> = parts.iter().flat_map(Batch::to_rows).collect();
            let mut expect: Vec<(Vec<Datum>, i64)> = Vec::new();
            for r in &all {
                let key: Vec<Datum> = group.iter().map(|&c| r.get(c).clone()).collect();
                match expect.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => expect.push((key, 1)),
                }
            }
            let expect: Vec<Row> = expect.into_iter().map(|(k, n)| Row::new([k, vec![Datum::Int(n)]].concat())).collect();
            assert_eq!(merged, expect, "group by {group:?}");
        }
    }

    #[test]
    fn partial_merge_moments_match_welford() {
        // Chan's merge formulas must reproduce the serial Welford result.
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ])
        .unwrap();
        let rows: Vec<Row> = (0..97)
            .map(|i| {
                let x = (i as f64) * 0.37 - 11.0;
                row![x, x * 1.5 + ((i % 7) as f64)]
            })
            .collect();
        let input = Batch::from_rows(schema, &rows).unwrap();
        let aggs = vec![
            agg1(AggFunc::VarSamp, 0, DataType::Float64),
            agg1(AggFunc::StdDevPop, 0, DataType::Float64),
            AggExpr {
                func: AggFunc::CovarPop,
                args: vec![0, 1],
                distinct: false,
                arg_types: vec![DataType::Float64, DataType::Float64],
            },
            agg1(AggFunc::Median, 0, DataType::Float64),
        ];
        let schema = out_schema(0, 4);
        let mut stats = ExecStats::default();
        let whole = hash_aggregate(
            &input,
            &[],
            &aggs,
            schema.clone(),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        let merged = partial_pipeline(&input, 16, &[], &aggs, schema);
        for c in 0..4 {
            let (a, b) = (whole.row(0).get(c).clone(), merged.row(0).get(c).clone());
            match (a, b) {
                (Datum::Float(x), Datum::Float(y)) => {
                    assert!((x - y).abs() < 1e-9, "col {c}: {x} vs {y}")
                }
                (x, y) => assert_eq!(x, y, "col {c}"),
            }
        }
    }

    #[test]
    fn partial_global_aggregate_zero_morsels_yields_one_row() {
        let aggs = vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
                arg_types: vec![],
            },
            agg1(AggFunc::Sum, 1, DataType::Int64),
        ];
        let acc = AggAccumulator::new(0);
        let out = acc.finish(&aggs, out_schema(0, 2)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), row![0i64, Datum::Null]);
    }

    #[test]
    fn partial_merge_sum_overflow_is_exec_error() {
        let sum = |x: i64| StateCol::SumInt {
            sum: vec![x],
            seen: vec![true],
        };
        let err = sum(i64::MAX).merge(&sum(1), &[0]).unwrap_err();
        assert_eq!(err.class(), "22000");
        // Within a morsel too.
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
        let b = Batch::from_rows(schema.clone(), &[row![i64::MAX], row![1i64]]).unwrap();
        let mut stats = ExecStats::default();
        let err = hash_aggregate(&b, &[], &[agg1(AggFunc::Sum, 0, DataType::Int64)], schema, &ctx(), KeyMode::Datum, 1, &mut stats)
            .unwrap_err();
        assert_eq!(err.class(), "22000");
        // DISTINCT states refuse to merge: the pipeline feeds them one partial.
        let distinct = || StateCol::Distinct {
            seen: FxHashSet::default(),
            pool: None,
            inner: Box::new(sum(0)),
        };
        assert!(matches!(distinct().merge(&distinct(), &[0]).unwrap_err(), DashError::Internal(_)));
    }

    /// The accumulator merges a partial by reference and leaves it as it
    /// was: the partial goes back to the thread that built it.
    #[test]
    fn merging_leaves_the_partial_unchanged() {
        let input = sales();
        let aggs = vec![
            agg1(AggFunc::Sum, 1, DataType::Int64),
            agg1(AggFunc::Max, 0, DataType::Utf8),
            agg1(AggFunc::Avg, 2, DataType::Float64),
            agg1(AggFunc::Median, 2, DataType::Float64),
            agg1(AggFunc::VarSamp, 2, DataType::Float64),
        ];
        for group in [&[][..], &[0]] {
            let schema = out_schema(group.len(), aggs.len());
            let sink = AggSink { group, aggs: &aggs, schema: &schema };
            let mut acc = AggAccumulator::new(group.len());
            for rows in [0..2, 2..3, 3..5] {
                let partial = aggregate_morsel(&input, rows, &sink, &ctx()).unwrap();
                let before = format!("{:?} {:?} {}", partial.keys, partial.states, partial.groups);
                acc.merge(&partial).unwrap();
                let after = format!("{:?} {:?} {}", partial.keys, partial.states, partial.groups);
                assert_eq!(before, after, "group by {group:?}");
            }
        }
    }

    /// SUM and AVG over doubles that do not add exactly are byte-identical
    /// at every width: partials merge one at a time, in morsel order.
    #[test]
    fn float_sums_are_byte_identical_across_widths() {
        let schema = Schema::new(vec![Field::new("g", DataType::Int64), Field::new("x", DataType::Float64)]).unwrap();
        let rows: Vec<Row> = (0..13_000i64).map(|k| row![k % 7, 0.1 * k as f64]).collect();
        let input = Batch::from_rows(schema, &rows).unwrap();
        let aggs = vec![agg1(AggFunc::Sum, 1, DataType::Float64), agg1(AggFunc::Avg, 1, DataType::Float64)];
        let bits = |b: &Batch| -> Vec<Vec<u64>> {
            b.to_rows()
                .iter()
                .map(|r| {
                    (0..r.len())
                        .map(|c| match r.get(c) {
                            Datum::Float(f) => f.to_bits(),
                            Datum::Int(i) => *i as u64,
                            d => panic!("unexpected {d:?}"),
                        })
                        .collect()
                })
                .collect()
        };
        for group in [&[][..], &[0]] {
            let mut fields: Vec<Field> = group.iter().map(|_| Field::new("g", DataType::Int64)).collect();
            fields.extend([Field::new("s", DataType::Float64), Field::new("a", DataType::Float64)]);
            let schema = Schema::new(fields).unwrap();
            let at = |par: usize| {
                let mut stats = ExecStats::default();
                let out = hash_aggregate(&input, group, &aggs, schema.clone(), &ctx(), KeyMode::Encoded, par, &mut stats);
                bits(&out.unwrap())
            };
            let serial = at(1);
            for par in [2, 4, 8] {
                assert_eq!(at(par), serial, "group by {group:?}, width {par}");
            }
        }
    }

    #[test]
    fn partial_keeps_first_appearance_group_order() {
        let input = sales();
        let aggs = vec![agg1(AggFunc::Sum, 1, DataType::Int64)];
        let merged = partial_pipeline(&input, 2, &[0], &aggs, out_schema(1, 1));
        // east appears first in row order, then west — across morsels.
        assert_eq!(merged.row(0).get(0), &Datum::from("east"));
        assert_eq!(merged.row(1).get(0), &Datum::from("west"));
    }
}
