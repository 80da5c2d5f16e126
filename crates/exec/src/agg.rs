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
use crate::expr::Expr;
use crate::functions::EvalContext;
use crate::key::{self, KeyMode, StrInterner, STR_MISS};
use crate::pipeline::{self, AggSink, Feed};
use crate::stats::ExecStats;
use dash_common::fxhash::FxHashMap;
use dash_common::statement::{approx_datum_bytes, approx_row_bytes};
use dash_common::{DashError, DataType, Datum, Result, Row, Schema};
use std::collections::HashSet;
use std::ops::Range;

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

    /// Output type given the input type.
    pub fn output_type(&self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int64,
            AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Float64),
            AggFunc::Sum => match input {
                Some(t) if t.is_integer() => DataType::Int64,
                Some(DataType::Decimal(p, s)) => DataType::Decimal(p, s),
                _ => DataType::Float64,
            },
            _ => DataType::Float64,
        }
    }
}

/// One aggregate expression in a GROUP BY plan node.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument expressions (empty for COUNT(*)).
    pub args: Vec<Expr>,
    /// DISTINCT modifier (COUNT(DISTINCT x), SUM(DISTINCT x)...).
    pub distinct: bool,
}

/// Running state for one aggregate of one group.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt { sum: i64, any: bool },
    SumFloat { sum: f64, any: bool },
    Avg { sum: f64, n: i64 },
    MinMax { current: Option<Datum>, min: bool },
    /// Holds all values (percentiles/median need the full set).
    Values(Vec<f64>),
    /// Welford-style moments for variance/stddev.
    Moments { n: i64, mean: f64, m2: f64 },
    /// Co-moments for covariance.
    CoMoments { n: i64, mx: f64, my: f64, cxy: f64 },
    Distinct(HashSet<Datum>, Box<AggState>),
}

fn new_state(agg: &AggExpr, input_is_int: bool) -> AggState {
    let base = match agg.func {
        AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
        AggFunc::Sum if input_is_int => AggState::SumInt { sum: 0, any: false },
        AggFunc::Sum => AggState::SumFloat { sum: 0.0, any: false },
        AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        AggFunc::Min => AggState::MinMax {
            current: None,
            min: true,
        },
        AggFunc::Max => AggState::MinMax {
            current: None,
            min: false,
        },
        AggFunc::Median | AggFunc::PercentileCont(_) | AggFunc::PercentileDisc(_) => {
            AggState::Values(Vec::new())
        }
        AggFunc::VarPop | AggFunc::VarSamp | AggFunc::StdDevPop | AggFunc::StdDevSamp => {
            AggState::Moments {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            }
        }
        AggFunc::CovarPop | AggFunc::CovarSamp => AggState::CoMoments {
            n: 0,
            mx: 0.0,
            my: 0.0,
            cxy: 0.0,
        },
    };
    if agg.distinct {
        AggState::Distinct(HashSet::new(), Box::new(base))
    } else {
        base
    }
}

fn update(state: &mut AggState, values: &[Datum]) -> Result<()> {
    match state {
        AggState::Distinct(seen, inner) => {
            // Only single-argument distinct aggregates are supported.
            let v = values.first().cloned().unwrap_or(Datum::Null);
            if v.is_null() || !seen.insert(v) {
                return Ok(());
            }
            update(inner, values)
        }
        AggState::Count(c) => {
            if values.is_empty() || !values[0].is_null() {
                *c += 1;
            }
            Ok(())
        }
        AggState::SumInt { sum, any } => {
            if !values[0].is_null() {
                let v = values[0]
                    .as_int()
                    .ok_or_else(|| DashError::exec("SUM over non-numeric value"))?;
                *sum = sum
                    .checked_add(v)
                    .ok_or_else(|| DashError::exec("SUM overflow"))?;
                *any = true;
            }
            Ok(())
        }
        AggState::SumFloat { sum, any } => {
            if !values[0].is_null() {
                *sum += values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("SUM over non-numeric value"))?;
                *any = true;
            }
            Ok(())
        }
        AggState::Avg { sum, n } => {
            if !values[0].is_null() {
                *sum += values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("AVG over non-numeric value"))?;
                *n += 1;
            }
            Ok(())
        }
        AggState::MinMax { current, min } => {
            let v = &values[0];
            if !v.is_null() {
                let replace = match current {
                    None => true,
                    Some(c) => {
                        let ord = v.sql_cmp(c);
                        if *min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if replace {
                    *current = Some(v.clone());
                }
            }
            Ok(())
        }
        AggState::Values(vals) => {
            if !values[0].is_null() {
                vals.push(
                    values[0]
                        .as_float()
                        .ok_or_else(|| DashError::exec("percentile over non-numeric value"))?,
                );
            }
            Ok(())
        }
        AggState::Moments { n, mean, m2 } => {
            if !values[0].is_null() {
                let x = values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("variance over non-numeric value"))?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
            }
            Ok(())
        }
        AggState::CoMoments { n, mx, my, cxy } => {
            if !values[0].is_null() && !values[1].is_null() {
                let x = values[0]
                    .as_float()
                    .ok_or_else(|| DashError::exec("covariance over non-numeric value"))?;
                let y = values[1]
                    .as_float()
                    .ok_or_else(|| DashError::exec("covariance over non-numeric value"))?;
                *n += 1;
                let dx = x - *mx;
                *mx += dx / *n as f64;
                *my += (y - *my) / *n as f64;
                *cxy += dx * (y - *my);
            }
            Ok(())
        }
    }
}

fn finish(state: AggState, func: &AggFunc) -> Datum {
    match state {
        AggState::Distinct(_, inner) => finish(*inner, func),
        AggState::Count(c) => Datum::Int(c),
        AggState::SumInt { sum, any } => {
            if any {
                Datum::Int(sum)
            } else {
                Datum::Null
            }
        }
        AggState::SumFloat { sum, any } => {
            if any {
                Datum::Float(sum)
            } else {
                Datum::Null
            }
        }
        AggState::Avg { sum, n } => {
            if n == 0 {
                Datum::Null
            } else {
                Datum::Float(sum / n as f64)
            }
        }
        AggState::MinMax { current, .. } => current.unwrap_or(Datum::Null),
        AggState::Values(mut vals) => {
            if vals.is_empty() {
                return Datum::Null;
            }
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let q = match func {
                AggFunc::Median => 0.5,
                AggFunc::PercentileCont(q) | AggFunc::PercentileDisc(q) => *q,
                _ => 0.5,
            };
            match func {
                AggFunc::PercentileDisc(_) => {
                    // Smallest value whose cumulative distribution >= q.
                    let idx = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1;
                    Datum::Float(vals[idx])
                }
                _ => {
                    // Continuous interpolation (MEDIAN is PERCENTILE_CONT(0.5)).
                    let pos = q * (vals.len() - 1) as f64;
                    let lo = pos.floor() as usize;
                    let hi = pos.ceil() as usize;
                    let frac = pos - lo as f64;
                    Datum::Float(vals[lo] + (vals[hi] - vals[lo]) * frac)
                }
            }
        }
        AggState::Moments { n, m2, .. } => {
            let denom = match func {
                AggFunc::VarSamp | AggFunc::StdDevSamp => n - 1,
                _ => n,
            };
            if denom <= 0 {
                return Datum::Null;
            }
            let var = m2 / denom as f64;
            match func {
                AggFunc::StdDevPop | AggFunc::StdDevSamp => Datum::Float(var.sqrt()),
                _ => Datum::Float(var),
            }
        }
        AggState::CoMoments { n, cxy, .. } => {
            let denom = match func {
                AggFunc::CovarSamp => n - 1,
                _ => n,
            };
            if denom <= 0 {
                return Datum::Null;
            }
            Datum::Float(cxy / denom as f64)
        }
    }
}

fn init_states(aggs: &[AggExpr], schema: &Schema) -> Vec<AggState> {
    aggs.iter()
        .map(|a| {
            // SUM over an integer column stays integer.
            let is_int = a
                .args
                .first()
                .and_then(|e| match e {
                    Expr::Col(i) => Some(schema.field(*i).data_type.is_integer()),
                    _ => None,
                })
                .unwrap_or(false);
            new_state(a, is_int)
        })
        .collect()
}

/// Merge a morsel-partial aggregate state into the running state for the
/// same group — the aggregate breaker's combine step. Counts and sums add,
/// min/max compare, percentile value sets concatenate (in fold order, so
/// the pre-sort layout is deterministic), and the moment states combine
/// with Chan et al.'s parallel update formulas. `DISTINCT` states cannot
/// merge (their per-partial seen-sets overlap); the pipeline feeds them one
/// partial spanning the whole input, so reaching one here is an internal
/// error, not a user error.
fn merge_state(dst: &mut AggState, src: AggState) -> Result<()> {
    match (dst, src) {
        (AggState::Count(a), AggState::Count(b)) => {
            *a += b;
            Ok(())
        }
        (AggState::SumInt { sum, any }, AggState::SumInt { sum: s, any: a }) => {
            *sum = sum
                .checked_add(s)
                .ok_or_else(|| DashError::exec("SUM overflow"))?;
            *any |= a;
            Ok(())
        }
        (AggState::SumFloat { sum, any }, AggState::SumFloat { sum: s, any: a }) => {
            *sum += s;
            *any |= a;
            Ok(())
        }
        (AggState::Avg { sum, n }, AggState::Avg { sum: s, n: m }) => {
            *sum += s;
            *n += m;
            Ok(())
        }
        (AggState::MinMax { current, min }, AggState::MinMax { current: other, .. }) => {
            if let Some(v) = other {
                let replace = match current {
                    None => true,
                    Some(c) => {
                        let ord = v.sql_cmp(c);
                        if *min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if replace {
                    *current = Some(v);
                }
            }
            Ok(())
        }
        (AggState::Values(a), AggState::Values(b)) => {
            a.extend(b);
            Ok(())
        }
        (
            AggState::Moments { n, mean, m2 },
            AggState::Moments {
                n: n2,
                mean: mean2,
                m2: m22,
            },
        ) => {
            if n2 > 0 {
                if *n == 0 {
                    (*n, *mean, *m2) = (n2, mean2, m22);
                } else {
                    let total = *n + n2;
                    let delta = mean2 - *mean;
                    *m2 += m22 + delta * delta * (*n as f64) * (n2 as f64) / total as f64;
                    *mean += delta * (n2 as f64) / total as f64;
                    *n = total;
                }
            }
            Ok(())
        }
        (
            AggState::CoMoments { n, mx, my, cxy },
            AggState::CoMoments {
                n: n2,
                mx: mx2,
                my: my2,
                cxy: cxy2,
            },
        ) => {
            if n2 > 0 {
                if *n == 0 {
                    (*n, *mx, *my, *cxy) = (n2, mx2, my2, cxy2);
                } else {
                    let total = *n + n2;
                    let dx = mx2 - *mx;
                    let dy = my2 - *my;
                    *cxy += cxy2 + dx * dy * (*n as f64) * (n2 as f64) / total as f64;
                    *mx += dx * (n2 as f64) / total as f64;
                    *my += dy * (n2 as f64) / total as f64;
                    *n = total;
                }
            }
            Ok(())
        }
        (AggState::Distinct(..), _) => Err(DashError::internal(
            "DISTINCT aggregate reached the partial-merge path",
        )),
        _ => Err(DashError::internal(
            "mismatched aggregate partial states at merge",
        )),
    }
}

/// Can every aggregate in this list run as mergeable per-morsel partials?
/// `DISTINCT` cannot: its per-partial seen-sets overlap across morsels.
pub(crate) fn supports_partial(aggs: &[AggExpr]) -> bool {
    !aggs.iter().any(|a| a.distinct)
}

/// One morsel's worth of grouped aggregate state: group keys in
/// first-appearance order plus the running states per group. Produced on
/// pool workers by [`aggregate_morsel`], merged in morsel-index order by
/// [`AggAccumulator::merge`].
pub(crate) struct AggPartial {
    keys: Vec<Vec<Datum>>,
    states: Vec<Vec<AggState>>,
    /// True when the morsel grouped on encoded key words.
    encoded: bool,
    rows: u64,
}

impl AggPartial {
    /// Rough heap footprint (keys plus states), for inflight accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let key_bytes: u64 = self.keys.iter().map(|k| approx_row_bytes(k)).sum();
        let state_bytes: u64 = self.states.iter().flatten().map(state_bytes).sum();
        key_bytes + state_bytes
    }
}

fn state_bytes(s: &AggState) -> u64 {
    let base = std::mem::size_of::<AggState>() as u64;
    match s {
        AggState::Values(v) => base + (v.len() * 8) as u64,
        AggState::Distinct(set, inner) => {
            base + set.iter().map(approx_datum_bytes).sum::<u64>() + state_bytes(inner)
        }
        _ => base,
    }
}

/// Feed row `row` of `input` to every aggregate's running state.
fn update_row(
    aggs: &[AggExpr],
    states: &mut [AggState],
    input: &Batch,
    row: usize,
    ctx: &EvalContext,
) -> Result<()> {
    for (agg, state) in aggs.iter().zip(states) {
        // No aggregate takes more than two arguments (`arg_count`); a
        // fixed buffer keeps the per-row path free of allocation.
        let mut vals = [Datum::Null, Datum::Null];
        let n = agg.args.len().min(vals.len());
        for (v, a) in vals.iter_mut().zip(&agg.args) {
            *v = a.eval(input, row, ctx)?;
        }
        update(state, &vals[..n])?;
    }
    Ok(())
}

/// Aggregate one pipeline morsel — rows `rows` of `input` — into a
/// mergeable partial. Under
/// [`KeyMode::Encoded`] (the planner's decision: every group key a bare
/// column) grouping runs on fixed-width key words — the
/// operate-on-compressed path, with out-of-dictionary strings interned in
/// row order; `Datum` mode, or a key that turns out not to be a bare
/// column, groups on evaluated `Datum` keys. Group keys materialize from
/// each group's first row, so merging partials in morsel order reproduces
/// the serial scan's first-appearance group order.
pub(crate) fn aggregate_morsel(
    input: &Batch,
    rows: Range<usize>,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    key_mode: KeyMode,
    ctx: &EvalContext,
) -> Result<AggPartial> {
    let n = rows.len() as u64;
    // Cancellation/deadline observed once per morsel; a morsel is at most a
    // stride's worth of rows, so latency stays bounded.
    ctx.statement.check()?;
    let mut states: Vec<Vec<AggState>> = Vec::new();
    // Every new group starts from a copy of this.
    let fresh = init_states(aggs, input.schema());
    if group_exprs.is_empty() {
        // Global aggregate: one group, present even for an empty morsel so
        // zero-row inputs still produce their NULL/0 row at finish.
        states.push(fresh);
        for row in rows {
            update_row(aggs, &mut states[0], input, row, ctx)?;
        }
        return Ok(AggPartial {
            keys: vec![Vec::new()],
            states,
            encoded: false,
            rows: n,
        });
    }

    let cols = match key_mode {
        KeyMode::Encoded => key::group_key_cols(input, group_exprs),
        KeyMode::Datum => None,
    };
    let encoded = cols.is_some();
    let mut keys: Vec<Vec<Datum>> = Vec::new();
    if let Some(cols) = cols {
        let nk = cols.len();
        let mut interners: Vec<StrInterner> = (0..nk).map(|_| StrInterner::default()).collect();
        let mut gid_of: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        // Keys lay out as `nk + 1` words per row: the extra word is a NULL
        // mask (bit `c` set = column `c` NULL, its key word zeroed), which
        // groups NULLs together without reserving a sentinel word.
        let mut words = vec![0u64; nk + 1];
        for row in rows {
            let mut nulls = 0u64;
            for (c, col) in cols.iter().enumerate() {
                words[c] = match col.word(row) {
                    Some(STR_MISS) if col.is_str() => interners[c].intern(col.str_at(row)),
                    Some(w) => w,
                    None => {
                        nulls |= 1 << c;
                        0
                    }
                };
            }
            words[nk] = nulls;
            let gid = match gid_of.get(&words[..]) {
                Some(&g) => g,
                None => {
                    let g = keys.len() as u32;
                    gid_of.insert(words.clone(), g);
                    // Late materialization: the group's values decode once,
                    // from its first row.
                    let mut key = Vec::with_capacity(nk);
                    for g in group_exprs {
                        key.push(g.eval(input, row, ctx)?);
                    }
                    keys.push(key);
                    states.push(fresh.clone());
                    g
                }
            };
            update_row(aggs, &mut states[gid as usize], input, row, ctx)?;
        }
    } else {
        let mut gid_of: FxHashMap<Vec<Datum>, u32> = FxHashMap::default();
        for row in rows {
            let mut key = Vec::with_capacity(group_exprs.len());
            for g in group_exprs {
                key.push(g.eval(input, row, ctx)?);
            }
            let gid = match gid_of.get(&key) {
                Some(&g) => g,
                None => {
                    let g = keys.len() as u32;
                    gid_of.insert(key.clone(), g);
                    keys.push(key);
                    states.push(fresh.clone());
                    g
                }
            };
            update_row(aggs, &mut states[gid as usize], input, row, ctx)?;
        }
    }
    Ok(AggPartial {
        keys,
        states,
        encoded,
        rows: n,
    })
}

/// The aggregate pipeline breaker's fold side: merges per-morsel
/// [`AggPartial`]s in morsel-index order, keeping groups in global
/// first-appearance order, then finishes into the output batch. Runs only
/// on the folding thread, so it needs no synchronization.
pub(crate) struct AggAccumulator {
    gid_of: FxHashMap<Vec<Datum>, u32>,
    keys: Vec<Vec<Datum>>,
    states: Vec<Vec<AggState>>,
    /// Rows aggregated via encoded key words vs `Datum` fallback keys.
    pub(crate) encoded_rows: u64,
    /// Rows aggregated via the `Datum` fallback path.
    pub(crate) datum_rows: u64,
    bytes: u64,
}

impl AggAccumulator {
    pub(crate) fn new() -> AggAccumulator {
        AggAccumulator {
            gid_of: FxHashMap::default(),
            keys: Vec::new(),
            states: Vec::new(),
            encoded_rows: 0,
            datum_rows: 0,
            bytes: 0,
        }
    }

    /// Fold one morsel's partial into the global state. Must be called in
    /// morsel-index order for deterministic group order.
    pub(crate) fn merge(&mut self, partial: AggPartial) -> Result<()> {
        if partial.encoded {
            self.encoded_rows += partial.rows;
        } else {
            self.datum_rows += partial.rows;
        }
        let fixed = std::mem::size_of::<AggState>() as u64;
        for (key, sts) in partial.keys.into_iter().zip(partial.states) {
            match self.gid_of.get(&key) {
                Some(&g) => {
                    let dst = &mut self.states[g as usize];
                    for (d, s) in dst.iter_mut().zip(sts) {
                        // Only a state's variable part (percentile value
                        // sets) grows an existing group.
                        self.bytes += state_bytes(&s) - fixed;
                        merge_state(d, s)?;
                    }
                }
                None => {
                    let g = self.keys.len() as u32;
                    self.bytes += approx_row_bytes(&key) + sts.iter().map(state_bytes).sum::<u64>();
                    self.gid_of.insert(key.clone(), g);
                    self.keys.push(key);
                    self.states.push(sts);
                }
            }
        }
        Ok(())
    }

    /// Rough heap footprint of the accumulated group state, kept as a
    /// running total: the fold reads it after every merge.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.bytes
    }

    /// Finish every group into the output batch. `input_schema` is the
    /// pre-aggregation schema (for typing a synthesized global group when
    /// zero morsels arrived).
    pub(crate) fn finish(
        self,
        group_exprs: &[Expr],
        aggs: &[AggExpr],
        out_schema: Schema,
        input_schema: &Schema,
    ) -> Result<Batch> {
        let mut out_rows: Vec<Row> = Vec::with_capacity(self.keys.len());
        for (key, states) in self.keys.into_iter().zip(self.states) {
            let mut row: Vec<Datum> = key;
            for (agg, state) in aggs.iter().zip(states) {
                row.push(finish(state, &agg.func));
            }
            out_rows.push(Row::new(row));
        }
        // A global aggregate yields exactly one row even with zero input.
        if group_exprs.is_empty() && out_rows.is_empty() {
            let states = init_states(aggs, input_schema);
            let row: Vec<Datum> = aggs
                .iter()
                .zip(states)
                .map(|(agg, s)| finish(s, &agg.func))
                .collect();
            out_rows.push(Row::new(row));
        }
        Batch::from_rows(out_schema, &out_rows)
    }
}

/// Hash-aggregate a batch: the pipeline's aggregate sink fed by row-range
/// morsels of `input`.
///
/// `group_exprs` produce the key (empty = global aggregate, which always
/// yields exactly one row); `aggs` produce the aggregate columns. The
/// output schema is `group columns ⧺ aggregate columns` with the supplied
/// field definitions. `key_mode` is the planner's key-path decision.
#[allow(clippy::too_many_arguments)]
pub fn hash_aggregate(
    input: &Batch,
    group_exprs: &[Expr],
    aggs: &[AggExpr],
    out_schema: Schema,
    ctx: &EvalContext,
    key_mode: KeyMode,
    parallelism: usize,
    stats: &mut ExecStats,
) -> Result<Batch> {
    let sink = AggSink {
        group: group_exprs,
        aggs,
        schema: &out_schema,
        key_mode,
    };
    pipeline::drive(&Feed::Batch(input), &[], Some(&sink), parallelism, ctx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

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

    fn agg1(func: AggFunc, col: usize) -> AggExpr {
        AggExpr {
            func,
            args: vec![Expr::col(col)],
            distinct: false,
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
            &[Expr::col(0)],
            &[
                AggExpr {
                    func: AggFunc::CountStar,
                    args: vec![],
                    distinct: false,
                },
                agg1(AggFunc::Sum, 1),
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
                },
                agg1(AggFunc::Count, 1),
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
                },
                agg1(AggFunc::Sum, 0),
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
            &[agg1(AggFunc::Min, 1), agg1(AggFunc::Max, 1), agg1(AggFunc::Avg, 1)],
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
                    args: vec![Expr::col(1)],
                    distinct: true,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    args: vec![Expr::col(1)],
                    distinct: true,
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
                agg1(AggFunc::Median, 2),
                AggExpr {
                    func: AggFunc::PercentileDisc(0.5),
                    args: vec![Expr::col(2)],
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::PercentileCont(0.25),
                    args: vec![Expr::col(2)],
                    distinct: false,
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
            &[agg1(AggFunc::VarPop, 0), agg1(AggFunc::StdDevPop, 0), agg1(AggFunc::VarSamp, 0)],
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
                args: vec![Expr::col(0), Expr::col(1)],
                distinct: false,
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
            &[Expr::col(0)],
            &[agg1(AggFunc::Sum, 1)],
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
        group_exprs: &[Expr],
        aggs: &[AggExpr],
        schema: Schema,
    ) -> Batch {
        let mut acc = AggAccumulator::new();
        let mut start = 0;
        let mut any = false;
        while start < input.len() || (!any && input.is_empty()) {
            let end = (start + split).min(input.len());
            let mode = KeyMode::for_group(input.schema(), group_exprs);
            let partial = aggregate_morsel(input, start..end, group_exprs, aggs, mode, &ctx());
            acc.merge(partial.unwrap()).unwrap();
            start = end;
            any = true;
        }
        acc.finish(group_exprs, aggs, schema, input.schema()).unwrap()
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        let input = sales();
        let aggs = vec![
            AggExpr {
                func: AggFunc::CountStar,
                args: vec![],
                distinct: false,
            },
            agg1(AggFunc::Sum, 1),
            agg1(AggFunc::Min, 1),
            agg1(AggFunc::Max, 2),
            agg1(AggFunc::Avg, 2),
        ];
        let schema = out_schema(1, 5);
        let mut stats = ExecStats::default();
        let whole = hash_aggregate(
            &input,
            &[Expr::col(0)],
            &aggs,
            schema.clone(),
            &ctx(),
            KeyMode::Encoded,
            1,
            &mut stats,
        )
        .unwrap();
        for split in [1, 2, 5] {
            let merged = partial_pipeline(&input, split, &[Expr::col(0)], &aggs, schema.clone());
            let mut a = whole.to_rows();
            let mut b = merged.to_rows();
            a.sort_by_key(|r| r.get(0).render());
            b.sort_by_key(|r| r.get(0).render());
            assert_eq!(a, b, "split={split}");
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
            agg1(AggFunc::VarSamp, 0),
            agg1(AggFunc::StdDevPop, 0),
            AggExpr {
                func: AggFunc::CovarPop,
                args: vec![Expr::col(0), Expr::col(1)],
                distinct: false,
            },
            agg1(AggFunc::Median, 0),
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
            },
            agg1(AggFunc::Sum, 1),
        ];
        let acc = AggAccumulator::new();
        let input_schema = sales().schema().clone();
        let out = acc
            .finish(&[], &aggs, out_schema(0, 2), &input_schema)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), row![0i64, Datum::Null]);
    }

    #[test]
    fn partial_merge_sum_overflow_is_exec_error() {
        let mut a = AggState::SumInt {
            sum: i64::MAX,
            any: true,
        };
        let err = merge_state(&mut a, AggState::SumInt { sum: 1, any: true }).unwrap_err();
        assert_eq!(err.class(), "22000");
        let mut d = new_state(&agg1(AggFunc::Sum, 0), true);
        // DISTINCT states refuse to merge: the pipeline feeds them one partial.
        let distinct = AggState::Distinct(
            HashSet::default(),
            Box::new(AggState::SumInt { sum: 0, any: false }),
        );
        assert!(matches!(
            merge_state(&mut d, distinct).unwrap_err(),
            DashError::Internal(_)
        ));
    }

    #[test]
    fn partial_keeps_first_appearance_group_order() {
        let input = sales();
        let aggs = vec![agg1(AggFunc::Sum, 1)];
        let merged = partial_pipeline(&input, 2, &[Expr::col(0)], &aggs, out_schema(1, 1));
        // east appears first in row order, then west — across morsels.
        assert_eq!(merged.row(0).get(0), &Datum::from("east"));
        assert_eq!(merged.row(1).get(0), &Datum::from("west"));
    }
}
