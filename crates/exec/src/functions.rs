//! The polyglot scalar-function library (§II.C).
//!
//! One registry holds every scalar function the engine knows, each tagged
//! with the dialects it is visible in: the Oracle set (`NVL`, `DECODE`,
//! `INSTR`, `LPAD`, `TO_CHAR`, ...), the Netezza/PostgreSQL set
//! (`DATE_PART`, `BTRIM`, `HASH8`, `INT4AND`, `DAYS_BETWEEN`, ...), the
//! DB2 set (`NORMALIZE_DECFLOAT`, `COMPARE_DECFLOAT`), and the ANSI core.
//! The SQL front-end resolves a name against the session dialect, so the
//! same statement can legally mean different things (or be an error) in
//! different dialects — the paper's "colliding syntaxes" handled via a
//! session variable.
//!
//! It is also the engine's one typing table. Each builtin carries its
//! [`Returns`] rule on its registration, and beside the registry sit the
//! rules for everything else an expression can compute:
//! [`union_supertype`] (UNION arms, `CASE` branches, the `COALESCE`
//! family), [`arith_type`] (operators) and [`AggFunc::output_type`]
//! (aggregates). The analyzer asks these and inserts an explicit cast
//! wherever a value's type must change, so every expression it emits
//! evaluates to its declared type and the executor never converts one.

use crate::agg::AggFunc;
use crate::expr::ArithOp;
use dash_common::dialect::{Dialect, DialectSet};
use dash_common::fxhash::{hash_bytes, FxHashMap};
use dash_common::row::float_to_int;
use dash_common::{date, DashError, DataType, Datum, Result};
use std::sync::Arc;

/// Source of sequence values (implemented by the database catalog).
pub trait SequenceSource: Send + Sync {
    /// Advance and return the next value of the named sequence.
    fn next_value(&self, name: &str) -> Result<i64>;
    /// The current (last generated) value without advancing.
    fn current_value(&self, name: &str) -> Result<i64>;
}

/// Per-query evaluation context (statement start time, sequences, etc.).
#[derive(Clone)]
pub struct EvalContext {
    /// Statement timestamp in micros since epoch — `NOW()`, `SYSDATE`,
    /// `CURRENT_DATE` all derive from this so a statement sees one instant.
    pub now_micros: i64,
    /// Sequence backing for NEXTVAL/CURRVAL; `None` outside a session.
    pub sequences: Option<std::sync::Arc<dyn SequenceSource>>,
    /// The statement's lifecycle handle: cancellation token + memory
    /// budget. Every operator checks it at morsel granularity; the
    /// default is unbounded (never cancels, never rejects).
    pub statement: dash_common::StatementContext,
    /// Pipeline-scheduler settings (inert: every drive holds at most
    /// `parallelism * 4` morsels in flight).
    pub pipeline: crate::pipeline::PipelineConfig,
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("now_micros", &self.now_micros)
            .field("sequences", &self.sequences.is_some())
            .field("cancelled", &self.statement.is_cancelled())
            .finish()
    }
}

impl Default for EvalContext {
    fn default() -> Self {
        // A fixed, documented instant — 2017-04-19 12:00:00 UTC: makes unit
        // tests and EXPLAIN output deterministic. Sessions override with
        // wall-clock time.
        EvalContext {
            now_micros: 1_492_603_200_000_000,
            sequences: None,
            statement: dash_common::StatementContext::unbounded(),
            pipeline: crate::pipeline::PipelineConfig::default(),
        }
    }
}

impl EvalContext {
    /// A default context carrying the given statement lifecycle handle.
    pub fn with_statement(statement: dash_common::StatementContext) -> EvalContext {
        EvalContext {
            statement,
            ..EvalContext::default()
        }
    }
}

/// Implementation of a scalar function: builtins use plain `fn` pointers,
/// UDXes (user-defined extensions, §II.C.4) use boxed closures.
#[derive(Clone)]
#[allow(clippy::type_complexity)]
pub enum ScalarImpl {
    /// A compiled-in builtin.
    Builtin(fn(&[Datum], &EvalContext) -> Result<Datum>),
    /// A user-registered extension.
    User(Arc<dyn Fn(&[Datum], &EvalContext) -> Result<Datum> + Send + Sync>),
}

impl ScalarImpl {
    /// Invoke the implementation.
    #[inline]
    pub fn call(&self, args: &[Datum], ctx: &EvalContext) -> Result<Datum> {
        match self {
            ScalarImpl::Builtin(f) => f(args, ctx),
            ScalarImpl::User(f) => f(args, ctx),
        }
    }
}

/// A registered scalar function.
pub struct ScalarFunction {
    /// Canonical (upper-case) name.
    pub name: String,
    /// Dialects the name is visible in.
    pub dialects: DialectSet,
    /// Minimum argument count.
    pub min_args: usize,
    /// Maximum argument count (`usize::MAX` = variadic).
    pub max_args: usize,
    /// How the result type follows from the argument types (a UDX
    /// declares a fixed one).
    pub returns: Returns,
    /// The evaluator: it returns a value of the type `returns` gives for
    /// its arguments' types, or NULL.
    pub eval: ScalarImpl,
}

impl std::fmt::Debug for ScalarFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScalarFunction({})", self.name)
    }
}

/// How a scalar function's result type follows from its argument types.
#[derive(Debug, Clone, Copy)]
pub enum Returns {
    /// Always this type.
    Fixed(DataType),
    /// The first argument's type.
    First,
    /// The common supertype ([`union_supertype`]) of the value arguments
    /// `picks(i, n)` selects among `n`: the function returns one of them,
    /// and the analyzer casts each of them to that type.
    Supertype(fn(usize, usize) -> bool),
    /// `DATE` for a temporal first argument, else `DOUBLE` (`TRUNC`).
    DateOrDouble,
}

impl ScalarFunction {
    /// The result type for arguments of types `args`; `None` is an untyped
    /// NULL literal, which constrains nothing.
    pub fn result_type(&self, args: &[Option<DataType>]) -> DataType {
        let first = args.first().copied().flatten();
        match self.returns {
            Returns::Fixed(t) => t,
            Returns::First => first.unwrap_or(DataType::Utf8),
            Returns::Supertype(_) => supertype(
                (0..args.len()).filter(|&i| self.takes_value(i, args.len())).filter_map(|i| args[i]),
            ),
            Returns::DateOrDouble if first.is_some_and(DataType::is_temporal) => DataType::Date,
            Returns::DateOrDouble => DataType::Float64,
        }
    }

    /// Whether this is the builtin `name` (a UDX of that name is not).
    pub fn is_builtin(&self, name: &str) -> bool {
        matches!(self.eval, ScalarImpl::Builtin(_)) && self.name == name
    }

    /// Whether this is the `COALESCE` family, which evaluates an argument
    /// only where every argument before it was NULL.
    pub fn is_coalesce(&self) -> bool {
        ["COALESCE", "NVL", "IFNULL"].iter().any(|n| self.is_builtin(n))
    }

    /// Whether argument `i` of `n` is one the result may be, which the
    /// analyzer casts to the result type.
    pub fn takes_value(&self, i: usize, n: usize) -> bool {
        matches!(self.returns, Returns::Supertype(picks) if picks(i, n))
    }
}

// ---- the typing rules -------------------------------------------------

/// (precision, scale) of an exact numeric type.
fn exact_digits(t: DataType) -> Option<(u8, u8)> {
    match t {
        DataType::Int16 => Some((5, 0)),
        DataType::Int32 => Some((10, 0)),
        DataType::Int64 => Some((19, 0)),
        DataType::Decimal(p, s) => Some((p, s)),
        _ => None,
    }
}

/// The common supertype two UNION arms — or the values a `CASE` or a
/// `COALESCE` chooses between — promote to, along the implicit
/// conversions: integer widening, integer → decimal, any number →
/// `DOUBLE`, `DATE` → `TIMESTAMP`; any other pair meets in `VARCHAR`. A
/// decimal stays exact beside an integer or another decimal: the larger
/// scale, and the integer digits of whichever side needs more.
pub fn union_supertype(l: DataType, r: DataType) -> DataType {
    if l == r {
        return l;
    }
    if l.is_numeric() && r.is_numeric() {
        if l.is_integer() && r.is_integer() {
            return DataType::Int64;
        }
        if let (Some((lp, ls)), Some((rp, rs))) = (exact_digits(l), exact_digits(r)) {
            let scale = ls.max(rs);
            let digits = lp.saturating_sub(ls).max(rp.saturating_sub(rs));
            return DataType::Decimal((digits + scale).min(38), scale);
        }
        return DataType::Float64;
    }
    if l.is_temporal() && r.is_temporal() {
        return DataType::Timestamp;
    }
    DataType::Utf8
}

/// [`union_supertype`] of every type in `types`; `VARCHAR` for none.
pub fn supertype(types: impl Iterator<Item = DataType>) -> DataType {
    types.reduce(union_supertype).unwrap_or(DataType::Utf8)
}

/// Whether values of `a` and `b` have one runtime representation, so
/// turning one into the other converts nothing: integer widths share
/// `i64`, float widths `f64`, decimals of one scale their unscaled value.
pub fn same_repr(a: DataType, b: DataType) -> bool {
    a == b
        || (a.is_integer() && b.is_integer())
        || (a.is_float() && b.is_float())
        || matches!((a, b), (DataType::Decimal(_, s), DataType::Decimal(_, t)) if s == t)
}

/// The type of `l op r` and the types its two operands are cast to first.
/// A date moves by whole days; integers compute in `BIGINT`; a decimal
/// beside an integer or a decimal stays exact — `±` and `%` at the larger
/// scale (with a carry digit for `±`), `×` at the sum of the scales,
/// precision capped at 38 — and a float operand, a `/` with a decimal
/// operand, or a product scale past 38 make it a `DOUBLE`. `None`: no
/// implicit conversion makes the operands numbers (`x + 'abc'`), and the
/// evaluator refuses such an operation at run time.
pub fn arith_type(op: ArithOp, l: DataType, r: DataType) -> Option<(DataType, [DataType; 2])> {
    use DataType::*;
    let double = Some((Float64, [Float64, Float64]));
    match (op, l, r) {
        (ArithOp::Add | ArithOp::Sub, Date, t) | (ArithOp::Add, t, Date) if t.is_integer() => {
            return Some((Date, [l, r]))
        }
        (ArithOp::Sub, Date, Date) => return Some((Int64, [l, r])),
        _ if l.is_integer() && r.is_integer() => return Some((Int64, [l, r])),
        _ if !l.is_numeric() || !r.is_numeric() => return None,
        _ => {}
    }
    let (Some((p1, s1)), Some((p2, s2))) = (exact_digits(l), exact_digits(r)) else {
        return double;
    };
    let (p, s) = match op {
        ArithOp::Div => return double,
        ArithOp::Mul => (p1 + p2, s1 + s2),
        _ => {
            let s = s1.max(s2);
            let digits = p1.saturating_sub(s1).max(p2.saturating_sub(s2)) + u8::from(op != ArithOp::Rem);
            (digits + s, s)
        }
    };
    if s > 38 {
        return double;
    }
    Some((Decimal(p.min(38), s), [Decimal(p1, s1), Decimal(p2, s2)]))
}

impl AggFunc {
    /// The type an aggregate over arguments of types `args` returns.
    /// `COUNT` takes anything and `MIN`/`MAX` keep their argument's type;
    /// `SUM` keeps integers (as `BIGINT`) and decimals exact and adds
    /// floats; every other aggregate reads its arguments as `DOUBLE`s. A
    /// numeric aggregate over an argument no implicit conversion makes a
    /// number is refused.
    pub fn output_type(&self, args: &[DataType]) -> Result<DataType> {
        let first = args.first().copied();
        match self {
            AggFunc::CountStar | AggFunc::Count => return Ok(DataType::Int64),
            AggFunc::Min | AggFunc::Max => return Ok(first.unwrap_or(DataType::Float64)),
            _ => {}
        }
        if let Some(t) = args.iter().find(|t| !t.is_numeric()) {
            return Err(DashError::analysis(format!(
                "a numeric argument is required, not {t}: no implicit conversion makes one a number"
            )));
        }
        Ok(match (self, first) {
            (AggFunc::Sum, Some(t)) if t.is_integer() => DataType::Int64,
            (AggFunc::Sum, Some(t @ DataType::Decimal(..))) => t,
            _ => DataType::Float64,
        })
    }
}

/// The function registry: name → function, with dialect visibility.
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    map: FxHashMap<String, Arc<ScalarFunction>>,
}

/// The shared builtin catalogue (built once per process).
pub fn builtin_registry() -> &'static FunctionRegistry {
    static REGISTRY: std::sync::OnceLock<FunctionRegistry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(FunctionRegistry::builtin)
}

impl FunctionRegistry {
    /// Look up a function visible in `dialect`.
    pub fn resolve(&self, name: &str, dialect: Dialect) -> Result<Arc<ScalarFunction>> {
        let upper = name.to_ascii_uppercase();
        match self.map.get(upper.as_str()) {
            Some(f) if f.dialects.contains(dialect) => Ok(f.clone()),
            Some(_) => Err(DashError::analysis(format!(
                "function {upper} is not available in the {dialect} dialect"
            ))),
            None => Err(DashError::not_found("function", upper)),
        }
    }

    /// Lookup without dialect filtering (used to probe UDX registries).
    pub fn get(&self, name: &str) -> Option<Arc<ScalarFunction>> {
        self.map.get(&name.to_ascii_uppercase()).cloned()
    }

    /// All registered names (sorted), for documentation and tests.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.map.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---- argument helpers -------------------------------------------------

fn any_null(args: &[Datum]) -> bool {
    args.iter().any(|a| a.is_null())
}

fn str_arg(args: &[Datum], i: usize) -> Result<&str> {
    args[i]
        .as_str()
        .ok_or_else(|| DashError::exec(format!("argument {} must be a string", i + 1)))
}

/// Argument `i` as an integer. A fractional value truncates toward zero as
/// in `CAST`, and NaN, ±inf or a value past `BIGINT` is out of range.
fn int_arg(args: &[Datum], i: usize) -> Result<i64> {
    match &args[i] {
        Datum::Int(v) => Ok(*v),
        other => match other.as_float() {
            Some(f) => float_to_int(f, DataType::Int64),
            None => Err(DashError::exec(format!(
                "argument {} must be numeric, got {other:?}",
                i + 1
            ))),
        },
    }
}

fn float_arg(args: &[Datum], i: usize) -> Result<f64> {
    args[i]
        .as_float()
        .ok_or_else(|| DashError::exec(format!("argument {} must be numeric", i + 1)))
}

fn date_arg(args: &[Datum], i: usize) -> Result<i32> {
    match &args[i] {
        Datum::Date(d) => Ok(*d),
        Datum::Timestamp(t) => Ok(date::timestamp_micros_to_date(*t)),
        Datum::Str(s) => date::parse_date(s)
            .ok_or_else(|| DashError::exec(format!("cannot interpret '{s}' as a date"))),
        other => Err(DashError::exec(format!(
            "argument {} must be a date, got {other:?}",
            i + 1
        ))),
    }
}

fn ts_arg(args: &[Datum], i: usize) -> Result<i64> {
    match &args[i] {
        Datum::Timestamp(t) => Ok(*t),
        Datum::Date(d) => Ok(date::date_to_timestamp_micros(*d)),
        Datum::Str(s) => date::parse_timestamp(s)
            .ok_or_else(|| DashError::exec(format!("cannot interpret '{s}' as a timestamp"))),
        other => Err(DashError::exec(format!(
            "argument {} must be a timestamp, got {other:?}",
            i + 1
        ))),
    }
}

/// 1-based, negative-from-end substring (Oracle SUBSTR semantics, shared by
/// SUBSTR2/SUBSTR4/SUBSTRB which differ only in length units we treat as
/// characters).
fn substr_impl(s: &str, start: i64, len: Option<i64>) -> String {
    let chars: Vec<char> = s.chars().collect();
    let n = chars.len() as i64;
    let begin = if start > 0 {
        start - 1
    } else if start < 0 {
        n + start
    } else {
        0
    };
    if begin < 0 || begin >= n {
        return String::new();
    }
    let take = match len {
        Some(l) if l < 0 => return String::new(),
        Some(l) => l.min(n - begin),
        None => n - begin,
    };
    chars[begin as usize..(begin + take) as usize]
        .iter()
        .collect()
}

/// `v` rounded half away from zero to a multiple of `10^drop`; unchanged
/// for `drop <= 0`, zero once `10^drop` passes every `i128`.
fn round_unscaled(v: i128, drop: i64) -> i128 {
    if drop <= 0 {
        return v;
    }
    match u32::try_from(drop).ok().and_then(|d| 10i128.checked_pow(d)) {
        Some(p) => (v + v.signum() * (p / 2)) / p * p,
        None => 0,
    }
}

fn pad_impl(s: &str, len: i64, pad: &str, left: bool) -> String {
    if len <= 0 {
        return String::new();
    }
    let len = len as usize;
    let cur: Vec<char> = s.chars().collect();
    if cur.len() >= len {
        return cur[..len].iter().collect();
    }
    if pad.is_empty() {
        return s.to_string();
    }
    let fill: String = pad.chars().cycle().take(len - cur.len()).collect();
    if left {
        format!("{fill}{s}")
    } else {
        format!("{s}{fill}")
    }
}

// ---- the builtin catalogue --------------------------------------------

macro_rules! null_prop {
    ($args:ident) => {
        if any_null($args) {
            return Ok(Datum::Null);
        }
    };
}

fn to_char(args: &[Datum], _ctx: &EvalContext) -> Result<Datum> {
    null_prop!(args);
    let rendered = match (&args[0], args.get(1)) {
        (Datum::Date(d), Some(fmt)) => format_temporal(date::date_to_timestamp_micros(*d), str_arg(std::slice::from_ref(fmt), 0)?),
        (Datum::Timestamp(t), Some(fmt)) => {
            format_temporal(*t, str_arg(std::slice::from_ref(fmt), 0)?)
        }
        (d, _) => d.render(),
    };
    Ok(Datum::str(rendered))
}

/// Minimal Oracle-style format model: YYYY, MM, DD, HH24, MI, SS tokens;
/// everything else copies through literally.
fn format_temporal(micros: i64, fmt: &str) -> String {
    let days = micros.div_euclid(date::MICROS_PER_DAY);
    let within = micros.rem_euclid(date::MICROS_PER_DAY);
    let (y, mo, d) = date::civil_from_days(days as i32);
    let secs = within / 1_000_000;
    let (h, mi, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
    let mut out = String::new();
    let mut rest = fmt;
    while !rest.is_empty() {
        let upper = rest.to_ascii_uppercase();
        if upper.starts_with("YYYY") {
            out.push_str(&format!("{y:04}"));
            rest = &rest[4..];
        } else if upper.starts_with("HH24") {
            out.push_str(&format!("{h:02}"));
            rest = &rest[4..];
        } else if upper.starts_with("MM") {
            out.push_str(&format!("{mo:02}"));
            rest = &rest[2..];
        } else if upper.starts_with("DD") {
            out.push_str(&format!("{d:02}"));
            rest = &rest[2..];
        } else if upper.starts_with("MI") {
            out.push_str(&format!("{mi:02}"));
            rest = &rest[2..];
        } else if upper.starts_with("SS") {
            out.push_str(&format!("{s:02}"));
            rest = &rest[2..];
        } else {
            let mut chars = rest.chars();
            out.extend(chars.next());
            rest = chars.as_str();
        }
    }
    out
}

impl FunctionRegistry {
    /// Build the full builtin catalogue.
    pub fn builtin() -> FunctionRegistry {
        let mut map: FxHashMap<String, Arc<ScalarFunction>> = FxHashMap::default();
        let all = DialectSet::ALL;
        let oracle = DialectSet::of(&[Dialect::Oracle]);
        let npg = DialectSet::of(&[Dialect::Netezza, Dialect::PostgreSql]);
        let npg_ora = DialectSet::of(&[Dialect::Netezza, Dialect::PostgreSql, Dialect::Oracle]);
        let db2 = DialectSet::of(&[Dialect::Db2, Dialect::Ansi]);
        // Result-type rules (see `Returns`).
        const STR: Returns = Returns::Fixed(DataType::Utf8);
        const INT: Returns = Returns::Fixed(DataType::Int64);
        const F64: Returns = Returns::Fixed(DataType::Float64);
        const BOOL: Returns = Returns::Fixed(DataType::Bool);
        const DATE: Returns = Returns::Fixed(DataType::Date);
        const TS: Returns = Returns::Fixed(DataType::Timestamp);
        let any_value = Returns::Supertype(|_, _| true);
        let after_first = Returns::Supertype(|i, _| i > 0);
        // DECODE(expr, search, result, ..., [default]): the results, and the
        // default an even argument count leaves last.
        let decode = Returns::Supertype(|i, n| i >= 2 && (i % 2 == 0 || i + 1 == n));

        let mut reg = |name: &'static str,
                       dialects: DialectSet,
                       min_args: usize,
                       max_args: usize,
                       returns: Returns,
                       eval: fn(&[Datum], &EvalContext) -> Result<Datum>| {
            let prev = map.insert(
                name.to_string(),
                Arc::new(ScalarFunction {
                    name: name.to_string(),
                    dialects,
                    min_args,
                    max_args,
                    returns,
                    eval: ScalarImpl::Builtin(eval),
                }),
            );
            debug_assert!(prev.is_none(), "duplicate function {name}");
        };

        // --- strings (ANSI core) ---
        reg("UPPER", all, 1, 1, STR, |a, _| {
            null_prop!(a);
            Ok(Datum::str(str_arg(a, 0)?.to_uppercase()))
        });
        reg("LOWER", all, 1, 1, STR, |a, _| {
            null_prop!(a);
            Ok(Datum::str(str_arg(a, 0)?.to_lowercase()))
        });
        reg("LENGTH", all, 1, 1, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(str_arg(a, 0)?.chars().count() as i64))
        });
        reg("CONCAT", all, 2, usize::MAX, STR, |a, _| {
            // SQL CONCAT treats NULL as empty string in most dialects.
            let mut out = String::new();
            for d in a {
                if !d.is_null() {
                    out.push_str(&d.render());
                }
            }
            Ok(Datum::str(out))
        });
        reg("TRIM", all, 1, 1, STR, |a, _| {
            null_prop!(a);
            Ok(Datum::str(str_arg(a, 0)?.trim()))
        });
        reg("LTRIM", all, 1, 2, STR, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            let set: Vec<char> = if a.len() > 1 {
                str_arg(a, 1)?.chars().collect()
            } else {
                vec![' ']
            };
            Ok(Datum::str(s.trim_start_matches(|c| set.contains(&c))))
        });
        reg("RTRIM", all, 1, 2, STR, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            let set: Vec<char> = if a.len() > 1 {
                str_arg(a, 1)?.chars().collect()
            } else {
                vec![' ']
            };
            Ok(Datum::str(s.trim_end_matches(|c| set.contains(&c))))
        });
        reg("REPLACE", all, 3, 3, STR, |a, _| {
            null_prop!(a);
            Ok(Datum::str(str_arg(a, 0)?.replace(str_arg(a, 1)?, str_arg(a, 2)?)))
        });

        // --- strings (Oracle §II.C.1.a) ---
        fn substr(a: &[Datum], _c: &EvalContext) -> Result<Datum> {
            null_prop!(a);
            let len = if a.len() > 2 { Some(int_arg(a, 2)?) } else { None };
            Ok(Datum::str(substr_impl(str_arg(a, 0)?, int_arg(a, 1)?, len)))
        }
        reg("SUBSTR", all, 2, 3, STR, substr);
        reg("SUBSTR2", oracle, 2, 3, STR, substr);
        reg("SUBSTR4", oracle, 2, 3, STR, substr);
        reg("SUBSTRB", oracle, 2, 3, STR, substr);
        reg("SUBSTRING", all, 2, 3, STR, substr);
        reg("INSTR", oracle, 2, 3, INT, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            let sub = str_arg(a, 1)?;
            let from = if a.len() > 2 { int_arg(a, 2)?.max(1) as usize - 1 } else { 0 };
            let chars: Vec<char> = s.chars().collect();
            if from > chars.len() {
                return Ok(Datum::Int(0));
            }
            let hay: String = chars[from..].iter().collect();
            Ok(Datum::Int(match hay.find(sub) {
                Some(byte_idx) => (hay[..byte_idx].chars().count() + from + 1) as i64,
                None => 0,
            }))
        });
        reg("LPAD", npg_ora, 2, 3, STR, |a, _| {
            null_prop!(a);
            let pad = if a.len() > 2 { str_arg(a, 2)?.to_string() } else { " ".to_string() };
            Ok(Datum::str(pad_impl(str_arg(a, 0)?, int_arg(a, 1)?, &pad, true)))
        });
        reg("RPAD", npg_ora, 2, 3, STR, |a, _| {
            null_prop!(a);
            let pad = if a.len() > 2 { str_arg(a, 2)?.to_string() } else { " ".to_string() };
            Ok(Datum::str(pad_impl(str_arg(a, 0)?, int_arg(a, 1)?, &pad, false)))
        });
        reg("INITCAP", oracle, 1, 1, STR, |a, _| {
            null_prop!(a);
            let mut out = String::new();
            let mut start_of_word = true;
            for ch in str_arg(a, 0)?.chars() {
                if ch.is_alphanumeric() {
                    if start_of_word {
                        out.extend(ch.to_uppercase());
                    } else {
                        out.extend(ch.to_lowercase());
                    }
                    start_of_word = false;
                } else {
                    out.push(ch);
                    start_of_word = true;
                }
            }
            Ok(Datum::str(out))
        });
        reg("HEXTORAW", oracle, 1, 1, STR, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            if s.len() % 2 != 0 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
                return Err(DashError::exec(format!("'{s}' is not valid hex")));
            }
            // We render RAW as the decoded bytes' lossy UTF-8.
            let bytes = (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16))
                .collect::<std::result::Result<Vec<u8>, _>>()
                .map_err(|_| DashError::exec(format!("'{s}' is not valid hex")))?;
            Ok(Datum::str(String::from_utf8_lossy(&bytes).into_owned()))
        });
        reg("RAWTOHEX", oracle, 1, 1, STR, |a, _| {
            null_prop!(a);
            let mut out = String::new();
            for b in str_arg(a, 0)?.bytes() {
                out.push_str(&format!("{b:02X}"));
            }
            Ok(Datum::str(out))
        });

        // --- strings (Netezza/PostgreSQL §II.C.1.b) ---
        reg("BTRIM", npg, 1, 2, STR, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            let set: Vec<char> = if a.len() > 1 {
                str_arg(a, 1)?.chars().collect()
            } else {
                vec![' ']
            };
            Ok(Datum::str(s.trim_matches(|c| set.contains(&c))))
        });
        reg("STRPOS", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?;
            Ok(Datum::Int(match s.find(str_arg(a, 1)?) {
                Some(b) => s[..b].chars().count() as i64 + 1,
                None => 0,
            }))
        });
        fn strleft(a: &[Datum], _c: &EvalContext) -> Result<Datum> {
            null_prop!(a);
            let n = int_arg(a, 1)?.max(0) as usize;
            Ok(Datum::str(
                str_arg(a, 0)?.chars().take(n).collect::<String>(),
            ))
        }
        reg("STRLEFT", npg, 2, 2, STR, strleft);
        reg("STRLFT", npg, 2, 2, STR, strleft);
        reg("STRRIGHT", npg, 2, 2, STR, |a, _| {
            null_prop!(a);
            let chars: Vec<char> = str_arg(a, 0)?.chars().collect();
            let n = (int_arg(a, 1)?.max(0) as usize).min(chars.len());
            Ok(Datum::str(chars[chars.len() - n..].iter().collect::<String>()))
        });
        reg("TO_HEX", npg, 1, 1, STR, |a, _| {
            null_prop!(a);
            Ok(Datum::str(format!("{:x}", int_arg(a, 0)?)))
        });

        // --- NULL handling / conditional ---
        fn coalesce(a: &[Datum], _c: &EvalContext) -> Result<Datum> {
            Ok(a.iter().find(|d| !d.is_null()).cloned().unwrap_or(Datum::Null))
        }
        reg("COALESCE", all, 1, usize::MAX, any_value, coalesce);
        reg("NVL", oracle, 2, 2, any_value, coalesce);
        reg("IFNULL", npg, 2, 2, any_value, coalesce);
        reg("NVL2", oracle, 3, 3, after_first, |a, _| {
            Ok(if a[0].is_null() { a[2].clone() } else { a[1].clone() })
        });
        reg("NULLIF", all, 2, 2, Returns::First, |a, _| {
            Ok(match a[0].sql_eq(&a[1]) {
                Some(true) => Datum::Null,
                _ => a[0].clone(),
            })
        });
        reg("DECODE", oracle, 3, usize::MAX, decode, |a, _| {
            // DECODE(expr, s1, r1, s2, r2, ..., [default]); NULL matches NULL.
            let expr = &a[0];
            let pairs = &a[1..];
            let mut i = 0;
            while i + 1 < pairs.len() {
                let matches = if expr.is_null() && pairs[i].is_null() {
                    true
                } else {
                    expr.sql_eq(&pairs[i]).unwrap_or(false)
                };
                if matches {
                    return Ok(pairs[i + 1].clone());
                }
                i += 2;
            }
            Ok(if pairs.len() % 2 == 1 {
                pairs[pairs.len() - 1].clone()
            } else {
                Datum::Null
            })
        });
        reg("GREATEST", npg_ora, 1, usize::MAX, any_value, |a, _| {
            null_prop!(a);
            // `min_args` is 1: the list is never empty.
            Ok(a.iter().max_by(|x, y| x.sql_cmp(y)).cloned().unwrap_or(Datum::Null))
        });
        reg("LEAST", npg_ora, 1, usize::MAX, any_value, |a, _| {
            null_prop!(a);
            // `min_args` is 1: the list is never empty.
            Ok(a.iter().min_by(|x, y| x.sql_cmp(y)).cloned().unwrap_or(Datum::Null))
        });

        // --- math ---
        reg("ABS", all, 1, 1, Returns::First, |a, _| {
            null_prop!(a);
            Ok(match &a[0] {
                Datum::Int(v) => Datum::Int(v.checked_abs().ok_or_else(|| DashError::exec("integer overflow in ABS"))?),
                Datum::Decimal(v, s) => Datum::Decimal(v.abs(), *s),
                other => Datum::Float(float_arg(std::slice::from_ref(other), 0)?.abs()),
            })
        });
        reg("MOD", all, 2, 2, INT, |a, _| {
            null_prop!(a);
            let d = int_arg(a, 1)?;
            if d == 0 {
                return Err(DashError::exec("division by zero in MOD"));
            }
            // `i64::MIN % -1` is 0, which `wrapping_rem` gives.
            Ok(Datum::Int(int_arg(a, 0)?.wrapping_rem(d)))
        });
        reg("ROUND", all, 1, 2, Returns::First, |a, _| {
            null_prop!(a);
            let digits = if a.len() > 1 { int_arg(a, 1)? } else { 0 };
            // Integers and decimals round exactly and keep their type.
            Ok(match &a[0] {
                Datum::Int(v) => Datum::Int(
                    i64::try_from(round_unscaled(*v as i128, digits.saturating_neg()))
                        .map_err(|_| DashError::exec("integer overflow in ROUND"))?,
                ),
                Datum::Decimal(v, s) => Datum::Decimal(round_unscaled(*v, (*s as i64).saturating_sub(digits)), *s),
                _ => {
                    let p = 10f64.powi(digits as i32);
                    Datum::Float((float_arg(a, 0)? * p).round() / p)
                }
            })
        });
        reg("TRUNC", npg_ora, 1, 2, Returns::DateOrDouble, |a, _| {
            null_prop!(a);
            if let Datum::Date(_) | Datum::Timestamp(_) = a[0] {
                // TRUNC(date) — strip time component.
                let d = date_arg(a, 0)?;
                return Ok(Datum::Date(d));
            }
            let digits = if a.len() > 1 { int_arg(a, 1)? } else { 0 };
            let f = float_arg(a, 0)?;
            let p = 10f64.powi(digits as i32);
            Ok(Datum::Float((f * p).trunc() / p))
        });
        reg("FLOOR", all, 1, 1, F64, |a, _| {
            null_prop!(a);
            Ok(Datum::Float(float_arg(a, 0)?.floor()))
        });
        fn ceil(a: &[Datum], _c: &EvalContext) -> Result<Datum> {
            null_prop!(a);
            Ok(Datum::Float(float_arg(a, 0)?.ceil()))
        }
        reg("CEIL", all, 1, 1, F64, ceil);
        reg("CEILING", all, 1, 1, F64, ceil);
        reg("SIGN", all, 1, 1, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(float_arg(a, 0)?.partial_cmp(&0.0).map_or(0, |o| match o {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            })))
        });
        reg("SQRT", all, 1, 1, F64, |a, _| {
            null_prop!(a);
            let f = float_arg(a, 0)?;
            if f < 0.0 {
                return Err(DashError::exec("SQRT of a negative number"));
            }
            Ok(Datum::Float(f.sqrt()))
        });
        reg("EXP", all, 1, 1, F64, |a, _| {
            null_prop!(a);
            Ok(Datum::Float(float_arg(a, 0)?.exp()))
        });
        reg("LN", all, 1, 1, F64, |a, _| {
            null_prop!(a);
            let f = float_arg(a, 0)?;
            if f <= 0.0 {
                return Err(DashError::exec("LN of a non-positive number"));
            }
            Ok(Datum::Float(f.ln()))
        });
        fn power(a: &[Datum], _c: &EvalContext) -> Result<Datum> {
            null_prop!(a);
            Ok(Datum::Float(float_arg(a, 0)?.powf(float_arg(a, 1)?)))
        }
        reg("POWER", all, 2, 2, F64, power);
        reg("POW", npg, 2, 2, F64, power);

        // --- bit operations (Netezza intN{and,or,xor,not}) ---
        macro_rules! bitop2 {
            ($f:expr) => {
                |a: &[Datum], _c: &EvalContext| -> Result<Datum> {
                    null_prop!(a);
                    Ok(Datum::Int($f(int_arg(a, 0)?, int_arg(a, 1)?)))
                }
            };
        }
        for name in ["INT1AND", "INT2AND", "INT4AND", "INT8AND"] {
            reg(name, npg, 2, 2, INT, bitop2!(|x: i64, y: i64| x & y));
        }
        for name in ["INT1OR", "INT2OR", "INT4OR", "INT8OR"] {
            reg(name, npg, 2, 2, INT, bitop2!(|x: i64, y: i64| x | y));
        }
        for name in ["INT1XOR", "INT2XOR", "INT4XOR", "INT8XOR"] {
            reg(name, npg, 2, 2, INT, bitop2!(|x: i64, y: i64| x ^ y));
        }
        for name in ["INT1NOT", "INT2NOT", "INT4NOT", "INT8NOT"] {
            reg(name, npg, 1, 1, INT, |a, _| {
                null_prop!(a);
                Ok(Datum::Int(!int_arg(a, 0)?))
            });
        }

        // --- hashing (Netezza HASH/HASH4/HASH8) ---
        reg("HASH", npg, 1, 1, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(hash_bytes(a[0].render().as_bytes()) as i64))
        });
        reg("HASH4", npg, 1, 1, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(
                (hash_bytes(a[0].render().as_bytes()) as u32) as i64,
            ))
        });
        reg("HASH8", npg, 1, 1, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(hash_bytes(a[0].render().as_bytes()) as i64))
        });

        // --- date/time ---
        reg("NOW", npg, 0, 0, TS, |_a, c| Ok(Datum::Timestamp(c.now_micros)));
        reg("CURRENT_TIMESTAMP", all, 0, 0, TS, |_a, c| {
            Ok(Datum::Timestamp(c.now_micros))
        });
        reg("CURRENT_DATE", all, 0, 0, DATE, |_a, c| {
            Ok(Datum::Date(date::timestamp_micros_to_date(c.now_micros)))
        });
        reg("SYSDATE", oracle, 0, 0, DATE, |_a, c| {
            Ok(Datum::Date(date::timestamp_micros_to_date(c.now_micros)))
        });
        reg("DATE_PART", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            let field = str_arg(a, 0)?;
            let micros = ts_arg(a, 1)?;
            let days = date::timestamp_micros_to_date(micros);
            let within = micros.rem_euclid(date::MICROS_PER_DAY);
            Ok(Datum::Int(match field.to_ascii_lowercase().as_str() {
                "hour" | "h" => within / 3_600_000_000,
                "minute" | "min" => (within / 60_000_000) % 60,
                "second" | "sec" | "s" => (within / 1_000_000) % 60,
                other => date::extract_field(days, other).ok_or_else(|| {
                    DashError::exec(format!("unknown DATE_PART field '{other}'"))
                })?,
            }))
        });
        reg("EXTRACT", all, 2, 2, INT, |a, _| {
            // Lowered by the parser to EXTRACT(field_str, expr).
            null_prop!(a);
            let field = str_arg(a, 0)?;
            let d = date_arg(a, 1)?;
            Ok(Datum::Int(date::extract_field(d, field).ok_or_else(
                || DashError::exec(format!("unknown EXTRACT field '{field}'")),
            )?))
        });
        reg("ADD_MONTHS", oracle, 2, 2, DATE, |a, _| {
            null_prop!(a);
            Ok(Datum::Date(date::add_months(
                date_arg(a, 0)?,
                int_arg(a, 1)? as i32,
            )))
        });
        reg("LAST_DAY", oracle, 1, 1, DATE, |a, _| {
            null_prop!(a);
            let d = date_arg(a, 0)?;
            let (y, m, _) = date::civil_from_days(d);
            Ok(Datum::Date(date::days_from_civil(
                y,
                m,
                date::days_in_month(y, m),
            )))
        });
        reg("NEXT_MONTH", npg, 1, 1, DATE, |a, _| {
            // Netezza: first day of the month after the given date.
            null_prop!(a);
            let d = date_arg(a, 0)?;
            let (y, m, _) = date::civil_from_days(d);
            let first = date::days_from_civil(y, m, 1);
            Ok(Datum::Date(date::add_months(first, 1)))
        });
        reg("MONTHS_BETWEEN", oracle, 2, 2, F64, |a, _| {
            null_prop!(a);
            let (y1, m1, d1) = date::civil_from_days(date_arg(a, 0)?);
            let (y2, m2, d2) = date::civil_from_days(date_arg(a, 1)?);
            let months = (y1 as f64 - y2 as f64) * 12.0 + (m1 as f64 - m2 as f64)
                + (d1 as f64 - d2 as f64) / 31.0;
            Ok(Datum::Float(months))
        });
        reg("DAYS_BETWEEN", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(
                (date_arg(a, 0)? as i64 - date_arg(a, 1)? as i64).abs(),
            ))
        });
        reg("HOURS_BETWEEN", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(
                (ts_arg(a, 0)? - ts_arg(a, 1)?).abs() / 3_600_000_000,
            ))
        });
        reg("SECONDS_BETWEEN", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int((ts_arg(a, 0)? - ts_arg(a, 1)?).abs() / 1_000_000))
        });
        reg("WEEKS_BETWEEN", npg, 2, 2, INT, |a, _| {
            null_prop!(a);
            Ok(Datum::Int(
                (date_arg(a, 0)? as i64 - date_arg(a, 1)? as i64).abs() / 7,
            ))
        });
        reg("AGE", npg, 1, 2, INT, |a, c| {
            null_prop!(a);
            let newer = if a.len() > 1 { ts_arg(a, 0)? } else { c.now_micros };
            let older = if a.len() > 1 { ts_arg(a, 1)? } else { ts_arg(a, 0)? };
            // Rendered as a day count (intervals are out of scope).
            Ok(Datum::Int((newer - older) / date::MICROS_PER_DAY))
        });

        // --- conversions ---
        reg("TO_CHAR", npg_ora, 1, 2, STR, to_char);
        reg("TO_DATE", npg_ora, 1, 2, DATE, |a, _| {
            null_prop!(a);
            // Format models beyond ISO are parsed leniently: we accept the
            // ISO form regardless of the model, which covers the workloads.
            Ok(Datum::Date(date_arg(a, 0)?))
        });
        reg("TO_TIMESTAMP", npg_ora, 1, 2, TS, |a, _| {
            null_prop!(a);
            Ok(Datum::Timestamp(ts_arg(a, 0)?))
        });
        reg("TO_NUMBER", npg_ora, 1, 2, F64, |a, _| {
            null_prop!(a);
            let s = str_arg(a, 0)?.trim();
            s.parse::<f64>()
                .map(Datum::Float)
                .map_err(|_| DashError::exec(format!("cannot convert '{s}' to a number")))
        });

        // --- geospatial (SQL/MM, §II.C.5) ---
        {
            use crate::geo::Geometry;
            fn geo_arg(a: &[Datum], i: usize) -> Result<Geometry> {
                Geometry::parse_wkt(str_arg(a, i)?)
            }
            reg("ST_POINT", all, 2, 2, STR, |a, _| {
                null_prop!(a);
                Ok(Datum::str(
                    Geometry::Point(float_arg(a, 0)?, float_arg(a, 1)?).to_wkt(),
                ))
            });
            reg("ST_GEOMFROMTEXT", all, 1, 1, STR, |a, _| {
                null_prop!(a);
                // Validate + canonicalize.
                Ok(Datum::str(geo_arg(a, 0)?.to_wkt()))
            });
            reg("ST_ASTEXT", all, 1, 1, STR, |a, _| {
                null_prop!(a);
                Ok(Datum::str(geo_arg(a, 0)?.to_wkt()))
            });
            reg("ST_GEOMETRYTYPE", all, 1, 1, STR, |a, _| {
                null_prop!(a);
                Ok(Datum::str(geo_arg(a, 0)?.type_name()))
            });
            reg("ST_X", all, 1, 1, F64, |a, _| {
                null_prop!(a);
                match geo_arg(a, 0)? {
                    Geometry::Point(x, _) => Ok(Datum::Float(x)),
                    other => Err(DashError::exec(format!(
                        "ST_X takes a point, got {}",
                        other.type_name()
                    ))),
                }
            });
            reg("ST_Y", all, 1, 1, F64, |a, _| {
                null_prop!(a);
                match geo_arg(a, 0)? {
                    Geometry::Point(_, y) => Ok(Datum::Float(y)),
                    other => Err(DashError::exec(format!(
                        "ST_Y takes a point, got {}",
                        other.type_name()
                    ))),
                }
            });
            reg("ST_NUMPOINTS", all, 1, 1, INT, |a, _| {
                null_prop!(a);
                Ok(Datum::Int(geo_arg(a, 0)?.num_points() as i64))
            });
            reg("ST_DISTANCE", all, 2, 2, F64, |a, _| {
                null_prop!(a);
                Ok(Datum::Float(geo_arg(a, 0)?.distance(&geo_arg(a, 1)?)))
            });
            reg("ST_LENGTH", all, 1, 1, F64, |a, _| {
                null_prop!(a);
                Ok(Datum::Float(geo_arg(a, 0)?.length()))
            });
            reg("ST_AREA", all, 1, 1, F64, |a, _| {
                null_prop!(a);
                Ok(Datum::Float(geo_arg(a, 0)?.area()))
            });
            reg("ST_PERIMETER", all, 1, 1, F64, |a, _| {
                null_prop!(a);
                Ok(Datum::Float(geo_arg(a, 0)?.perimeter()))
            });
            reg("ST_CONTAINS", all, 2, 2, BOOL, |a, _| {
                null_prop!(a);
                Ok(Datum::Bool(geo_arg(a, 0)?.contains(&geo_arg(a, 1)?)))
            });
            reg("ST_WITHIN", all, 2, 2, BOOL, |a, _| {
                null_prop!(a);
                Ok(Datum::Bool(geo_arg(a, 1)?.contains(&geo_arg(a, 0)?)))
            });
            reg("ST_INTERSECTS", all, 2, 2, BOOL, |a, _| {
                null_prop!(a);
                Ok(Datum::Bool(geo_arg(a, 0)?.intersects(&geo_arg(a, 1)?)))
            });
            reg("ST_CENTROID", all, 1, 1, STR, |a, _| {
                null_prop!(a);
                let (x, y) = geo_arg(a, 0)?.centroid();
                Ok(Datum::str(Geometry::Point(x, y).to_wkt()))
            });
        }

        // --- DECFLOAT (DB2 §II.C.1.c) ---
        // DECFLOAT is a fixed-scale `DECIMAL(34,6)` here
        // (`DataType::from_sql_name`), and a value keeps its argument's type:
        // stripping trailing zeros would change its scale, not its value.
        reg("NORMALIZE_DECFLOAT", db2, 1, 1, Returns::First, |a, _| Ok(a[0].clone()));
        reg("COMPARE_DECFLOAT", db2, 2, 2, INT, |a, _| {
            // DB2 semantics: 0 equal, 1 a<b, 2 a>b, 3 unordered.
            if any_null(a) {
                return Ok(Datum::Int(3));
            }
            Ok(Datum::Int(match a[0].sql_cmp(&a[1]) {
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Less => 1,
                std::cmp::Ordering::Greater => 2,
            }))
        });

        FunctionRegistry { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, dialect: Dialect, args: &[Datum]) -> Result<Datum> {
        let reg = FunctionRegistry::builtin();
        let f = reg.resolve(name, dialect)?;
        f.eval.call(args, &EvalContext::default())
    }

    fn ok(name: &str, dialect: Dialect, args: &[Datum]) -> Datum {
        call(name, dialect, args).unwrap()
    }

    #[test]
    fn dialect_visibility() {
        let reg = FunctionRegistry::builtin();
        assert!(reg.resolve("NVL", Dialect::Oracle).is_ok());
        assert!(reg.resolve("NVL", Dialect::Ansi).is_err());
        assert!(reg.resolve("BTRIM", Dialect::Netezza).is_ok());
        assert!(reg.resolve("BTRIM", Dialect::Oracle).is_err());
        assert!(reg.resolve("COALESCE", Dialect::Oracle).is_ok());
        assert!(reg.resolve("NO_SUCH_FN", Dialect::Ansi).is_err());
    }

    #[test]
    fn substr_oracle_semantics() {
        assert_eq!(
            ok("SUBSTR", Dialect::Oracle, &["hello".into(), 2i64.into()]),
            Datum::str("ello")
        );
        assert_eq!(
            ok("SUBSTR", Dialect::Oracle, &["hello".into(), (-3i64).into(), 2i64.into()]),
            Datum::str("ll")
        );
        assert_eq!(
            ok("SUBSTR", Dialect::Oracle, &["hello".into(), 0i64.into(), 2i64.into()]),
            Datum::str("he")
        );
        assert_eq!(
            ok("SUBSTR2", Dialect::Oracle, &["hello".into(), 99i64.into()]),
            Datum::str("")
        );
        // A DOUBLE position or length truncates as CAST does, and NaN,
        // ±inf or a value past BIGINT is out of range, not saturated.
        assert_eq!(
            ok("SUBSTR", Dialect::Oracle, &["abcdef".into(), 2.9f64.into(), 2.0f64.into()]),
            Datum::str("bc")
        );
        for bad in [
            vec!["abcdef".into(), f64::NAN.into()],
            vec!["abcdef".into(), f64::NEG_INFINITY.into()],
            vec!["abcdef".into(), 1i64.into(), 1e300f64.into()],
        ] {
            let e = call("SUBSTR", Dialect::Oracle, &bad).unwrap_err();
            assert_eq!(e.class(), "22000", "{bad:?}: {e}");
        }
        let e = call("LPAD", Dialect::Oracle, &["x".into(), f64::INFINITY.into()]).unwrap_err();
        assert_eq!(e.class(), "22000");
    }

    #[test]
    fn decode_with_null_match_and_default() {
        // DECODE(NULL, NULL, 'was null', 'other') -> 'was null'
        let r = ok(
            "DECODE",
            Dialect::Oracle,
            &[Datum::Null, Datum::Null, "was null".into(), "other".into()],
        );
        assert_eq!(r, Datum::str("was null"));
        let r = ok(
            "DECODE",
            Dialect::Oracle,
            &[2i64.into(), 1i64.into(), "one".into(), "other".into()],
        );
        assert_eq!(r, Datum::str("other"));
        let r = ok(
            "DECODE",
            Dialect::Oracle,
            &[2i64.into(), 1i64.into(), "one".into()],
        );
        assert_eq!(r, Datum::Null);
    }

    #[test]
    fn nvl_family() {
        assert_eq!(
            ok("NVL", Dialect::Oracle, &[Datum::Null, 5i64.into()]),
            Datum::Int(5)
        );
        assert_eq!(
            ok("NVL2", Dialect::Oracle, &[1i64.into(), "a".into(), "b".into()]),
            Datum::str("a")
        );
        assert_eq!(
            ok("NVL2", Dialect::Oracle, &[Datum::Null, "a".into(), "b".into()]),
            Datum::str("b")
        );
        assert_eq!(
            ok("NULLIF", Dialect::Ansi, &[3i64.into(), 3i64.into()]),
            Datum::Null
        );
    }

    #[test]
    fn pad_functions() {
        assert_eq!(
            ok("LPAD", Dialect::Oracle, &["7".into(), 3i64.into(), "0".into()]),
            Datum::str("007")
        );
        assert_eq!(
            ok("RPAD", Dialect::Netezza, &["ab".into(), 5i64.into(), "xy".into()]),
            Datum::str("abxyx")
        );
        // Truncation when target shorter.
        assert_eq!(
            ok("LPAD", Dialect::Oracle, &["hello".into(), 2i64.into()]),
            Datum::str("he")
        );
    }

    #[test]
    fn instr_and_strpos() {
        assert_eq!(
            ok("INSTR", Dialect::Oracle, &["corporate".into(), "or".into()]),
            Datum::Int(2)
        );
        assert_eq!(
            ok("INSTR", Dialect::Oracle, &["corporate".into(), "or".into(), 3i64.into()]),
            Datum::Int(5)
        );
        assert_eq!(
            ok("STRPOS", Dialect::Netezza, &["hello".into(), "zz".into()]),
            Datum::Int(0)
        );
    }

    #[test]
    fn initcap() {
        assert_eq!(
            ok("INITCAP", Dialect::Oracle, &["hello wORLD-again".into()]),
            Datum::str("Hello World-Again")
        );
    }

    #[test]
    fn date_functions() {
        let d = Datum::Date(dash_common::date::parse_date("2017-01-31").unwrap());
        let r = ok("ADD_MONTHS", Dialect::Oracle, &[d.clone(), 1i64.into()]);
        assert_eq!(r.render(), "2017-02-28");
        let r = ok("LAST_DAY", Dialect::Oracle, &[Datum::str("2017-02-10")]);
        assert_eq!(r.render(), "2017-02-28");
        let r = ok("NEXT_MONTH", Dialect::Netezza, &[Datum::str("2017-02-10")]);
        assert_eq!(r.render(), "2017-03-01");
        let r = ok(
            "DAYS_BETWEEN",
            Dialect::Netezza,
            &[Datum::str("2017-03-01"), Datum::str("2017-02-01")],
        );
        assert_eq!(r, Datum::Int(28));
    }

    #[test]
    fn date_part_fields() {
        let ts = Datum::Timestamp(
            dash_common::date::parse_timestamp("2017-04-20 13:45:10").unwrap(),
        );
        assert_eq!(
            ok("DATE_PART", Dialect::Netezza, &["year".into(), ts.clone()]),
            Datum::Int(2017)
        );
        assert_eq!(
            ok("DATE_PART", Dialect::Netezza, &["hour".into(), ts.clone()]),
            Datum::Int(13)
        );
        assert!(call("DATE_PART", Dialect::Netezza, &["eon".into(), ts]).is_err());
    }

    #[test]
    fn now_uses_context() {
        let r = ok("NOW", Dialect::Netezza, &[]);
        assert_eq!(r.render(), "2017-04-19 12:00:00");
        let r = ok("CURRENT_DATE", Dialect::Ansi, &[]);
        assert_eq!(r.render(), "2017-04-19");
    }

    #[test]
    fn to_char_format_model() {
        let ts = Datum::Timestamp(
            dash_common::date::parse_timestamp("2017-04-20 13:45:10").unwrap(),
        );
        let r = ok(
            "TO_CHAR",
            Dialect::Oracle,
            &[ts, "YYYY/MM/DD HH24:MI:SS".into()],
        );
        assert_eq!(r, Datum::str("2017/04/20 13:45:10"));
        let r = ok("TO_CHAR", Dialect::Oracle, &[42i64.into()]);
        assert_eq!(r, Datum::str("42"));
    }

    #[test]
    fn to_number() {
        assert_eq!(
            ok("TO_NUMBER", Dialect::Oracle, &["  42 ".into()]),
            Datum::Int(42)
        );
        assert_eq!(
            ok("TO_NUMBER", Dialect::Oracle, &["3.5".into()]),
            Datum::Float(3.5)
        );
        assert!(call("TO_NUMBER", Dialect::Oracle, &["abc".into()]).is_err());
    }

    #[test]
    fn bit_and_hash_functions() {
        assert_eq!(
            ok("INT4AND", Dialect::Netezza, &[12i64.into(), 10i64.into()]),
            Datum::Int(8)
        );
        assert_eq!(
            ok("INT8XOR", Dialect::Netezza, &[5i64.into(), 3i64.into()]),
            Datum::Int(6)
        );
        let h1 = ok("HASH8", Dialect::Netezza, &["abc".into()]);
        let h2 = ok("HASH8", Dialect::Netezza, &["abc".into()]);
        assert_eq!(h1, h2);
        assert_eq!(
            ok("TO_HEX", Dialect::PostgreSql, &[255i64.into()]),
            Datum::str("ff")
        );
    }

    #[test]
    fn decfloat_functions() {
        assert_eq!(
            format!("{:?}", ok("NORMALIZE_DECFLOAT", Dialect::Db2, &[Datum::Decimal(1200, 2)])),
            "Decimal(1200, 2)",
            "a typed decimal keeps its scale"
        );
        assert_eq!(
            ok(
                "COMPARE_DECFLOAT",
                Dialect::Db2,
                &[Datum::Decimal(100, 2), Datum::Decimal(10, 1)]
            ),
            Datum::Int(0)
        );
        assert_eq!(
            ok("COMPARE_DECFLOAT", Dialect::Db2, &[Datum::Null, Datum::Decimal(1, 0)]),
            Datum::Int(3)
        );
    }

    #[test]
    fn hextoraw_roundtrip() {
        let hex = ok("RAWTOHEX", Dialect::Oracle, &["AB".into()]);
        assert_eq!(hex, Datum::str("4142"));
        let raw = ok("HEXTORAW", Dialect::Oracle, &[hex]);
        assert_eq!(raw, Datum::str("AB"));
        assert!(call("HEXTORAW", Dialect::Oracle, &["xyz".into()]).is_err());
    }

    #[test]
    fn math_errors() {
        assert!(call("SQRT", Dialect::Ansi, &[(-1f64).into()]).is_err());
        assert!(call("MOD", Dialect::Ansi, &[1i64.into(), 0i64.into()]).is_err());
        assert!(call("LN", Dialect::Ansi, &[0f64.into()]).is_err());
        assert_eq!(ok("ROUND", Dialect::Ansi, &[2.567f64.into(), 1i64.into()]), Datum::Float(2.6));
    }

    #[test]
    fn registry_is_large() {
        let reg = FunctionRegistry::builtin();
        assert!(reg.len() >= 60, "expected a broad catalogue, got {}", reg.len());
    }

    #[test]
    fn promotion_ladder() {
        use DataType::*;
        let int_int = arith_type(ArithOp::Add, Int32, Int16).unwrap();
        assert_eq!(int_int, (Int64, [Int32, Int16]), "integers compute in BIGINT");
        assert_eq!(arith_type(ArithOp::Mul, Int64, Float32).unwrap(), (Float64, [Float64, Float64]));
        assert_eq!(arith_type(ArithOp::Add, Utf8, Int32), None);
        // Decimals: ± at the larger scale with a carry digit, × at the sum
        // of the scales, / a double.
        let d = Decimal(10, 2);
        assert_eq!(arith_type(ArithOp::Add, d, Decimal(12, 4)).unwrap().0, Decimal(13, 4));
        assert_eq!(arith_type(ArithOp::Sub, Int32, d).unwrap(), (Decimal(13, 2), [Decimal(10, 0), d]));
        assert_eq!(arith_type(ArithOp::Mul, d, d).unwrap(), (Decimal(20, 4), [d, d]));
        assert_eq!(arith_type(ArithOp::Mul, Decimal(38, 30), d).unwrap().0, Decimal(38, 32), "precision caps at 38");
        assert_eq!(arith_type(ArithOp::Mul, Decimal(38, 30), Decimal(38, 10)).unwrap().0, Float64);
        assert_eq!(arith_type(ArithOp::Div, d, Int64).unwrap(), (Float64, [Float64, Float64]));
        assert_eq!(arith_type(ArithOp::Div, Int64, Int64).unwrap().0, Int64);
        assert_eq!(arith_type(ArithOp::Sub, Date, Date).unwrap().0, Int64);
        assert_eq!(arith_type(ArithOp::Add, Int32, Date).unwrap(), (Date, [Int32, Date]));
    }

    #[test]
    fn aggregates_over_non_numbers_are_refused() {
        assert_eq!(AggFunc::Sum.output_type(&[DataType::Int32]).unwrap(), DataType::Int64);
        assert_eq!(AggFunc::Sum.output_type(&[DataType::Decimal(10, 2)]).unwrap(), DataType::Decimal(10, 2));
        assert_eq!(AggFunc::Avg.output_type(&[DataType::Decimal(10, 2)]).unwrap(), DataType::Float64);
        assert_eq!(AggFunc::Max.output_type(&[DataType::Utf8]).unwrap(), DataType::Utf8);
        assert_eq!(AggFunc::Count.output_type(&[DataType::Date]).unwrap(), DataType::Int64);
        for f in [AggFunc::Sum, AggFunc::Avg, AggFunc::Median, AggFunc::VarPop] {
            assert_eq!(f.output_type(&[DataType::Utf8]).unwrap_err().class(), "42000", "{f:?}");
        }
        assert!(AggFunc::CovarPop.output_type(&[DataType::Float64, DataType::Date]).is_err());
    }

    #[test]
    fn exact_types_round_exactly() {
        assert_eq!(format!("{:?}", ok("ROUND", Dialect::Ansi, &[15i64.into(), (-1i64).into()])), "Int(20)");
        assert_eq!(format!("{:?}", ok("ROUND", Dialect::Ansi, &[Datum::Decimal(-1255, 2), 1i64.into()])), "Decimal(-1260, 2)");
        assert_eq!(format!("{:?}", ok("ROUND", Dialect::Ansi, &[Datum::Decimal(1255, 2), 5i64.into()])), "Decimal(1255, 2)");
        assert_eq!(ok("ROUND", Dialect::Ansi, &[9_007_199_254_740_993i64.into()]), Datum::Int(9_007_199_254_740_993));
        assert!(call("ROUND", Dialect::Ansi, &[i64::MAX.into(), (-1i64).into()]).is_err());
        assert!(call("ABS", Dialect::Ansi, &[i64::MIN.into()]).is_err());
        assert_eq!(ok("MOD", Dialect::Ansi, &[i64::MIN.into(), (-1i64).into()]), Datum::Int(0));
    }
}
