//! Physical scalar expressions.
//!
//! Expressions are evaluated against [`Batch`]es position-by-position with
//! SQL three-valued logic. The fast path for simple comparison predicates
//! bypasses this module entirely (the scan evaluates them on compressed
//! codes via [`crate::simd`]); what remains here are the *residual*
//! expressions — arithmetic, function calls, CASE, LIKE, IN — applied to
//! the already-filtered survivors.

use crate::batch::{push_typed, Batch};
use crate::functions::{same_repr, EvalContext, ScalarFunction};
use dash_common::row::{coerce_datum, float_to_int, out_of_range};
use dash_common::{DashError, DataType, Datum, Field, Result, Schema};
use dash_encoding::column::{int_to_datum, value_kind, ColumnValues, ValueKind};
use dash_encoding::strs::{StrColumn, StrPool, NULL_CODE};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply to an ordering.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater | Equal)
        )
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integer remainder)
    Rem,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Rem => "%",
        };
        write!(f, "{s}")
    }
}

/// A physical scalar expression over a batch's columns (by ordinal).
#[derive(Debug, Clone)]
pub enum Expr {
    /// Input column by ordinal.
    Col(usize),
    /// Literal value.
    Lit(Datum),
    /// Binary comparison with three-valued logic.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical AND over 2+ operands (三-valued).
    And(Vec<Expr>),
    /// Logical OR over 2+ operands.
    Or(Vec<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// `IS NULL` (negated=false) / `IS NOT NULL` (negated=true).
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// Scalar function call.
    Func(Arc<ScalarFunction>, Vec<Expr>),
    /// `CASE [operand] WHEN .. THEN .. ELSE .. END`.
    Case {
        /// Simple-CASE operand (`CASE x WHEN v ...`); `None` for searched.
        operand: Option<Box<Expr>>,
        /// (when, then) branches.
        branches: Vec<(Expr, Expr)>,
        /// ELSE expression.
        otherwise: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)` (also PostgreSQL `expr::type`).
    Cast(Box<Expr>, DataType),
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        /// Value.
        expr: Box<Expr>,
        /// Pattern (literal).
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr IN (list)` over literal lists.
    InList {
        /// Value.
        expr: Box<Expr>,
        /// Candidates.
        list: Vec<Datum>,
        /// NOT IN.
        negated: bool,
    },
    /// Sequence NEXTVAL — advances the named sequence per evaluation.
    SeqNext(String),
    /// Sequence CURRVAL — reads the named sequence without advancing.
    SeqCurr(String),
}

impl Expr {
    /// Convenience: boxed column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Convenience: literal.
    pub fn lit(d: impl Into<Datum>) -> Expr {
        Expr::Lit(d.into())
    }

    /// Evaluate at one row of a batch.
    pub fn eval(&self, batch: &Batch, row: usize, ctx: &EvalContext) -> Result<Datum> {
        match self {
            Expr::Col(i) => Ok(batch.value(row, *i)),
            Expr::Lit(d) => Ok(d.clone()),
            Expr::Cmp(op, l, r) => Ok(compare(*op, &l.eval(batch, row, ctx)?, &r.eval(batch, row, ctx)?)),
            Expr::Arith(op, l, r) => eval_arith(*op, &l.eval(batch, row, ctx)?, &r.eval(batch, row, ctx)?),
            Expr::Neg(e) => negate(e.eval(batch, row, ctx)?),
            Expr::And(parts) | Expr::Or(parts) => {
                // 3VL: the deciding value (FALSE for AND, TRUE for OR)
                // dominates, then NULL.
                let (decisive, what) = self.logic();
                let mut saw_null = false;
                for p in parts {
                    match truth(p.eval(batch, row, ctx)?, what)? {
                        Some(b) if b == decisive => return Ok(Datum::Bool(decisive)),
                        Some(_) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null { Datum::Null } else { Datum::Bool(!decisive) })
            }
            Expr::Not(e) => Ok(truth(e.eval(batch, row, ctx)?, "NOT")?.map_or(Datum::Null, |b| Datum::Bool(!b))),
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(batch, row, ctx)?;
                Ok(Datum::Bool(v.is_null() != *negated))
            }
            // The COALESCE family evaluates an argument only while every
            // one before it was NULL.
            Expr::Func(f, args) if f.is_coalesce() => {
                for a in args {
                    let v = a.eval(batch, row, ctx)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Datum::Null)
            }
            // The analyzer checked the argument count against the function's.
            Expr::Func(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(batch, row, ctx)?);
                }
                f.eval.call(&vals, ctx)
            }
            Expr::Case {
                operand,
                branches,
                otherwise,
            } => {
                let op_val = match operand {
                    Some(o) => Some(o.eval(batch, row, ctx)?),
                    None => None,
                };
                for (when, then) in branches {
                    let w = when.eval(batch, row, ctx)?;
                    if case_hit(op_val.as_ref(), &w) {
                        return then.eval(batch, row, ctx);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(batch, row, ctx),
                    None => Ok(Datum::Null),
                }
            }
            Expr::Cast(e, ty) => cast_datum(e.eval(batch, row, ctx)?, *ty),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => like(expr.eval(batch, row, ctx)?, pattern, *negated),
            Expr::SeqNext(_) | Expr::SeqCurr(_) => self.sequence_value(ctx),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(in_list(&expr.eval(batch, row, ctx)?, list, *negated)),
        }
    }

    /// Evaluate as a predicate at one row: `true` only for `TRUE`
    /// (NULL and FALSE both reject the row).
    pub fn eval_predicate(&self, batch: &Batch, row: usize, ctx: &EvalContext) -> Result<bool> {
        Ok(matches!(self.eval(batch, row, ctx)?, Datum::Bool(true)))
    }

    /// The rows of `rows` at which this predicate is `TRUE`, in order: the
    /// one predicate loop behind `Filter`, the scan's residual and CONNECT
    /// BY's `START WITH`. The predicate is evaluated column at a time; it
    /// runs row by row when it advances a sequence or its column
    /// evaluation fails, so an error is the first in row order.
    pub fn select(&self, batch: &Batch, rows: Range<usize>, ctx: &EvalContext) -> Result<Vec<usize>> {
        if !self.advances_sequence() {
            if let Ok(col) = self.eval_column(batch, rows.clone(), None, ctx) {
                return Ok((0..rows.len()).filter(|&i| col.is_true(i)).map(|i| rows.start + i).collect());
            }
        }
        let mut keep = Vec::new();
        for row in rows {
            if self.eval_predicate(batch, row, ctx)? {
                keep.push(row);
            }
        }
        Ok(keep)
    }

    /// The operands of this node.
    fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::SeqNext(_) | Expr::SeqCurr(_) => Vec::new(),
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) => vec![l, r],
            Expr::Neg(e) | Expr::Not(e) | Expr::Cast(e, _) => vec![e],
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } | Expr::InList { expr, .. } => vec![expr],
            Expr::And(v) | Expr::Or(v) | Expr::Func(_, v) => v.iter().collect(),
            Expr::Case {
                operand,
                branches,
                otherwise,
            } => operand
                .iter()
                .map(|o| &**o)
                .chain(branches.iter().flat_map(|(w, t)| [w, t]))
                .chain(otherwise.iter().map(|o| &**o))
                .collect(),
        }
    }

    /// Whether evaluating this expression advances a sequence (`NEXTVAL`),
    /// which makes the order of evaluation visible.
    pub fn advances_sequence(&self) -> bool {
        matches!(self, Expr::SeqNext(_)) || self.children().into_iter().any(Expr::advances_sequence)
    }

    /// AND's or OR's deciding value and name.
    fn logic(&self) -> (bool, &'static str) {
        match self {
            Expr::Or(_) => (true, "OR"),
            _ => (false, "AND"),
        }
    }

    fn sequence_value(&self, ctx: &EvalContext) -> Result<Datum> {
        let seq = ctx
            .sequences
            .as_ref()
            .ok_or_else(|| DashError::exec("no sequence source in this context"))?;
        Ok(Datum::Int(match self {
            Expr::SeqNext(name) => seq.next_value(name)?,
            Expr::SeqCurr(name) => seq.current_value(name)?,
            _ => return Err(DashError::internal("not a sequence expression")),
        }))
    }

    /// Column ordinals referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) if !out.contains(i) => out.push(*i),
            _ => {
                for c in self.children() {
                    c.referenced_columns(out);
                }
            }
        }
    }

    /// The same expression with every column ordinal `i` replaced by
    /// `f(i)` — how a predicate moves between a scan's output ordinals,
    /// its table's ordinals and a narrower batch.
    pub fn map_columns(self, f: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(i)),
            Expr::Cmp(op, l, r) => {
                Expr::Cmp(op, Box::new(l.map_columns(f)), Box::new(r.map_columns(f)))
            }
            Expr::Arith(op, l, r) => {
                Expr::Arith(op, Box::new(l.map_columns(f)), Box::new(r.map_columns(f)))
            }
            Expr::Neg(i) => Expr::Neg(Box::new(i.map_columns(f))),
            Expr::Not(i) => Expr::Not(Box::new(i.map_columns(f))),
            Expr::And(v) => Expr::And(v.into_iter().map(|x| x.map_columns(f)).collect()),
            Expr::Or(v) => Expr::Or(v.into_iter().map(|x| x.map_columns(f)).collect()),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negated,
            },
            Expr::Func(func, args) => {
                Expr::Func(func, args.into_iter().map(|a| a.map_columns(f)).collect())
            }
            Expr::Case {
                operand,
                branches,
                otherwise,
            } => Expr::Case {
                operand: operand.map(|o| Box::new(o.map_columns(f))),
                branches: branches
                    .into_iter()
                    .map(|(w, t)| (w.map_columns(f), t.map_columns(f)))
                    .collect(),
                otherwise: otherwise.map(|o| Box::new(o.map_columns(f))),
            },
            Expr::Cast(i, t) => Expr::Cast(Box::new(i.map_columns(f)), t),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(expr.map_columns(f)),
                pattern,
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.map_columns(f)),
                list,
                negated,
            },
            leaf @ (Expr::Lit(_) | Expr::SeqNext(_) | Expr::SeqCurr(_)) => leaf,
        }
    }
}

// ---------------------------------------------------------------------------
// Column-at-a-time evaluation
// ---------------------------------------------------------------------------

/// Typed values of an evaluated column: a slice of an input column,
/// borrowed, or computed ones. Index 0 is the first row of the evaluated
/// range.
#[derive(Debug, Clone)]
pub enum Values<'a> {
    /// Integer-domain values (integers, booleans, dates, timestamps,
    /// unscaled decimals).
    Int(Cow<'a, [Option<i64>]>),
    /// Doubles.
    Float(Cow<'a, [Option<f64>]>),
    /// Strings: codes into a pool.
    Str(Cow<'a, [u32]>, Arc<StrPool>),
}

/// What an expression evaluated to over a range of rows, column at a
/// time. A value at a row outside the selection it was evaluated at is
/// unspecified.
#[derive(Debug, Clone)]
pub enum Column<'a> {
    /// Values of one type.
    Typed(DataType, Values<'a>),
    /// One value at every row: a literal, broadcast only where a consumer
    /// needs it.
    Const(Datum),
    /// The values of a node without a typed loop, one datum per row.
    Datums(Vec<Datum>),
}

/// One operand of a typed loop: a column's values, or one value at every
/// row.
#[derive(Clone, Copy)]
enum Arg<'c, T> {
    Col(&'c [Option<T>]),
    Const(Option<T>),
}

impl<T: Copy> Arg<'_, T> {
    #[inline]
    fn at(&self, i: usize) -> Option<T> {
        match self {
            Arg::Col(v) => v[i],
            Arg::Const(c) => *c,
        }
    }
}

/// A string operand of a typed loop: values read from the pool.
enum Strs<'c> {
    Col(&'c [u32], &'c StrPool),
    Const(&'c str),
}

impl<'c> Strs<'c> {
    #[inline]
    fn at(&self, i: usize) -> Option<&'c str> {
        match self {
            Strs::Col(codes, pool) => match codes[i] {
                NULL_CODE => None,
                code => Some(pool.value(code)),
            },
            Strs::Const(s) => Some(s),
        }
    }
}

/// A numeric operand read as the double `Datum::as_float` gives, which is
/// what `sql_cmp` compares two numbers by unless both are integers.
enum Num<'c> {
    Int(Arg<'c, i64>),
    Float(Arg<'c, f64>),
    Decimal(Arg<'c, i64>, f64),
}

impl Num<'_> {
    #[inline]
    fn at(&self, i: usize) -> Option<f64> {
        match self {
            Num::Int(a) => a.at(i).map(|x| x as f64),
            Num::Float(a) => a.at(i),
            Num::Decimal(a, scale) => a.at(i).map(|x| x as f64 / scale),
        }
    }
}

impl<'a> Column<'a> {
    /// The value at row `i` of the evaluated range.
    pub fn datum(&self, i: usize) -> Datum {
        match self {
            Column::Typed(ty, Values::Int(v)) => v[i].map_or(Datum::Null, |x| int_to_datum(*ty, x)),
            Column::Typed(_, Values::Float(v)) => v[i].map_or(Datum::Null, Datum::Float),
            Column::Typed(_, Values::Str(codes, pool)) => match codes[i] {
                NULL_CODE => Datum::Null,
                code => Datum::Str(pool.arc(code).clone()),
            },
            Column::Const(d) => d.clone(),
            Column::Datums(v) => v[i].clone(),
        }
    }

    fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Typed(_, Values::Int(v)) => v[i].is_none(),
            Column::Typed(_, Values::Float(v)) => v[i].is_none(),
            Column::Typed(_, Values::Str(codes, _)) => codes[i] == NULL_CODE,
            Column::Const(d) => d.is_null(),
            Column::Datums(v) => v[i].is_null(),
        }
    }

    /// Whether the value at row `i` is `TRUE`.
    fn is_true(&self, i: usize) -> bool {
        match self {
            Column::Typed(DataType::Bool, Values::Int(v)) => v[i].is_some_and(|x| x != 0),
            Column::Typed(..) => false,
            Column::Const(d) => matches!(d, Datum::Bool(true)),
            Column::Datums(v) => matches!(v[i], Datum::Bool(true)),
        }
    }

    /// The value at row `i` as an operand of AND, OR or NOT (`what`).
    fn truth(&self, i: usize, what: &str) -> Result<Option<bool>> {
        match self {
            Column::Typed(DataType::Bool, Values::Int(v)) => Ok(v[i].map(|x| x != 0)),
            other => truth(other.datum(i), what),
        }
    }

    /// The type every value has, where one type is known (none for a NULL
    /// literal and the datums of a per-row loop).
    fn ty(&self) -> Option<DataType> {
        match self {
            Column::Typed(ty, _) => Some(*ty),
            Column::Const(d) => d.data_type(),
            Column::Datums(_) => None,
        }
    }

    fn is_null_const(&self) -> bool {
        matches!(self, Column::Const(Datum::Null))
    }

    fn ints(&self) -> Option<Arg<'_, i64>> {
        match self {
            Column::Typed(_, Values::Int(v)) => Some(Arg::Col(v)),
            Column::Const(d) => Some(Arg::Const(match d {
                Datum::Null => None,
                Datum::Bool(b) => Some(*b as i64),
                Datum::Int(x) | Datum::Timestamp(x) => Some(*x),
                Datum::Date(x) => Some(*x as i64),
                Datum::Decimal(v, _) => Some(i64::try_from(*v).ok()?),
                _ => return None,
            })),
            _ => None,
        }
    }

    fn floats(&self) -> Option<Arg<'_, f64>> {
        match self {
            Column::Typed(_, Values::Float(v)) => Some(Arg::Col(v)),
            Column::Const(Datum::Null) => Some(Arg::Const(None)),
            Column::Const(Datum::Float(f)) => Some(Arg::Const(Some(*f))),
            _ => None,
        }
    }

    fn strs(&self) -> Option<Strs<'_>> {
        match self {
            Column::Typed(_, Values::Str(codes, pool)) => Some(Strs::Col(codes, pool)),
            Column::Const(Datum::Str(s)) => Some(Strs::Const(s)),
            _ => None,
        }
    }

    fn num(&self) -> Option<Num<'_>> {
        Some(match self.ty()? {
            t if t.is_integer() => Num::Int(self.ints()?),
            t if t.is_float() => Num::Float(self.floats()?),
            DataType::Decimal(_, s) => Num::Decimal(self.ints()?, 10f64.powi(s as i32)),
            _ => return None,
        })
    }

    /// The values of rows `0..n` as a storage column of type `dt`: typed
    /// values of its representation move, anything else is stored value by
    /// value.
    pub fn into_values(self, dt: DataType, n: usize) -> Result<ColumnValues> {
        Ok(match self {
            Column::Typed(ty, values) if same_repr(ty, dt) => match values {
                Values::Int(v) => ColumnValues::Int(v.into_owned()),
                Values::Float(v) => ColumnValues::Float(v.into_owned()),
                Values::Str(codes, pool) => ColumnValues::Str(StrColumn::from_parts(codes.into_owned(), pool)),
            },
            Column::Const(d) => {
                let mut one = ColumnValues::empty_for(dt);
                push_typed(&mut one, dt, &d)?;
                match one {
                    ColumnValues::Int(v) => ColumnValues::Int(vec![v[0]; n]),
                    ColumnValues::Float(v) => ColumnValues::Float(vec![v[0]; n]),
                    ColumnValues::Str(v) => ColumnValues::Str(StrColumn::from_parts(vec![v.codes()[0]; n], v.pool().clone())),
                }
            }
            col => {
                let mut out = ColumnValues::empty_for(dt);
                for i in 0..n {
                    push_typed(&mut out, dt, &col.datum(i))?;
                }
                out
            }
        })
    }
}

/// The rows of `0..n` a selection holds (all of them without one).
fn each_row(n: usize, sel: Option<&[usize]>, mut f: impl FnMut(usize) -> Result<()>) -> Result<()> {
    match sel {
        None => (0..n).try_for_each(f),
        Some(rows) => rows.iter().try_for_each(|&i| f(i)),
    }
}

/// The rows of `0..n` a selection holds where `taken` holds, and the
/// rest.
fn split(n: usize, sel: Option<&[usize]>, mut taken: impl FnMut(usize) -> bool) -> (Vec<usize>, Vec<usize>) {
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    let mut visit = |i: usize| if taken(i) { hit.push(i) } else { miss.push(i) };
    match sel {
        None => (0..n).for_each(&mut visit),
        Some(rows) => rows.iter().for_each(|&i| visit(i)),
    }
    (hit, miss)
}

/// A typed loop: `f(i)` at every selected row of `0..n`.
fn map_rows<T: Clone>(
    n: usize,
    sel: Option<&[usize]>,
    mut f: impl FnMut(usize) -> Result<Option<T>>,
) -> Result<Vec<Option<T>>> {
    match sel {
        None => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(f(i)?);
            }
            Ok(out)
        }
        Some(rows) => {
            let mut out = vec![None; n];
            for &i in rows {
                out[i] = f(i)?;
            }
            Ok(out)
        }
    }
}

/// The per-row loop of a node without a typed one: `f(i)` at every
/// selected row of `0..n`.
fn per_row(n: usize, sel: Option<&[usize]>, mut f: impl FnMut(usize) -> Result<Datum>) -> Result<Column<'static>> {
    let mut out = vec![Datum::Null; n];
    each_row(n, sel, |i| {
        out[i] = f(i)?;
        Ok(())
    })?;
    Ok(Column::Datums(out))
}

fn ints(ty: DataType, v: Vec<Option<i64>>) -> Column<'static> {
    Column::Typed(ty, Values::Int(Cow::Owned(v)))
}

fn floats(v: Vec<Option<f64>>) -> Column<'static> {
    Column::Typed(DataType::Float64, Values::Float(Cow::Owned(v)))
}

fn bools(v: Vec<Option<i64>>) -> Column<'static> {
    ints(DataType::Bool, v)
}

/// One column from `pieces`, each holding the value at its own rows — a
/// CASE's branches, a COALESCE's arguments. Rows no piece holds are NULL.
fn merge<'a>(n: usize, mut pieces: Vec<(Vec<usize>, Column<'a>)>) -> Column<'a> {
    if pieces.len() == 1 && pieces[0].0.len() == n {
        return pieces.swap_remove(0).1;
    }
    let typed = pieces.iter().find_map(|(_, c)| c.ty()).filter(|&ty| {
        pieces.iter().all(|(_, c)| match c.ty() {
            Some(t) => same_repr(ty, t),
            None => c.is_null_const(),
        })
    });
    let merged = typed.and_then(|ty| {
        Some(match value_kind(ty) {
            ValueKind::Int => {
                let mut out = vec![None; n];
                for (rows, c) in &pieces {
                    let a = c.ints()?;
                    rows.iter().for_each(|&i| out[i] = a.at(i));
                }
                ints(ty, out)
            }
            ValueKind::Float => {
                let mut out = vec![None; n];
                for (rows, c) in &pieces {
                    let a = c.floats()?;
                    rows.iter().for_each(|&i| out[i] = a.at(i));
                }
                floats(out)
            }
            ValueKind::Str => {
                // The first column piece lends its pool; the others' codes
                // re-code into it.
                let mut out = StrColumn::new();
                if let Some(pool) = pieces.iter().find_map(|(_, c)| match c {
                    Column::Typed(_, Values::Str(_, pool)) => Some(pool),
                    _ => None,
                }) {
                    out = StrColumn::with_pool(pool.clone());
                }
                out.resize_null(n);
                for (rows, c) in &pieces {
                    match c {
                        Column::Typed(_, Values::Str(codes, pool)) => {
                            rows.iter().for_each(|&i| out.set_code(i, pool, codes[i]));
                        }
                        Column::Const(Datum::Str(s)) => {
                            let code = out.intern(s);
                            rows.iter().for_each(|&i| out.set(i, code));
                        }
                        _ => {}
                    }
                }
                let (codes, pool) = out.into_parts();
                Column::Typed(ty, Values::Str(Cow::Owned(codes), pool))
            }
        })
    });
    merged.unwrap_or_else(|| {
        let mut out = vec![Datum::Null; n];
        for (rows, c) in &pieces {
            rows.iter().for_each(|&i| out[i] = c.datum(i));
        }
        Column::Datums(out)
    })
}

impl Expr {
    /// Evaluate at rows `rows` of `batch`, column at a time, at the rows of
    /// `sel` (positions in `0..rows.len()`, ascending) or, without one, at
    /// every row. Integer, double and same-scale decimal arithmetic,
    /// comparison, AND/OR/NOT, IS NULL, numeric CAST, MOD, ABS and LIKE on
    /// strings run typed loops with [`Expr::eval`]'s overflow, NULL and
    /// `sql_cmp` semantics, strings read as `&str` from their pools; any
    /// other node runs a per-row loop over its operands' columns.
    ///
    /// A child of AND, OR, CASE or the COALESCE family is evaluated only at
    /// the rows row-at-a-time evaluation reaches it at, so this fails only
    /// where [`Expr::eval`] fails at some row of the selection, and
    /// otherwise gives its values. The error may not be the first in row
    /// order: callers that report one re-run the rows with `eval`.
    pub fn eval_column<'a>(
        &self,
        batch: &'a Batch,
        rows: Range<usize>,
        sel: Option<&[usize]>,
        ctx: &EvalContext,
    ) -> Result<Column<'a>> {
        let n = rows.len();
        if n == 0 || sel.is_some_and(<[usize]>::is_empty) {
            // No row evaluates this node: nothing can fail.
            return Ok(Column::Const(Datum::Null));
        }
        let child = |e: &Expr| e.eval_column(batch, rows.clone(), sel, ctx);
        match self {
            Expr::Col(i) => {
                let ty = batch.schema().field(*i).data_type;
                Ok(Column::Typed(
                    ty,
                    match batch.try_column(*i)? {
                        ColumnValues::Int(v) => Values::Int(Cow::Borrowed(&v[rows])),
                        ColumnValues::Float(v) => Values::Float(Cow::Borrowed(&v[rows])),
                        ColumnValues::Str(v) => Values::Str(Cow::Borrowed(&v.codes()[rows]), v.pool().clone()),
                    },
                ))
            }
            Expr::Lit(d) => Ok(Column::Const(d.clone())),
            Expr::Cmp(op, l, r) => compare_columns(*op, &child(l)?, &child(r)?, n, sel),
            Expr::Arith(op, l, r) => arith_columns(*op, &child(l)?, &child(r)?, n, sel),
            Expr::Neg(e) => negate_column(child(e)?, n, sel),
            Expr::And(parts) | Expr::Or(parts) => {
                let (decisive, what) = self.logic();
                let mut out = vec![Some(!decisive as i64); n];
                // The rows every operand so far left undecided.
                let mut open: Option<Vec<usize>> = sel.map(<[usize]>::to_vec);
                for p in parts {
                    let c = p.eval_column(batch, rows.clone(), open.as_deref(), ctx)?;
                    let mut still = Vec::new();
                    each_row(n, open.as_deref(), |i| {
                        match c.truth(i, what)? {
                            Some(b) if b == decisive => out[i] = Some(decisive as i64),
                            t => {
                                if t.is_none() {
                                    out[i] = None;
                                }
                                still.push(i);
                            }
                        }
                        Ok(())
                    })?;
                    if open.is_some() || still.len() < n {
                        open = Some(still);
                    }
                }
                Ok(bools(out))
            }
            Expr::Not(e) => {
                let c = child(e)?;
                Ok(bools(map_rows(n, sel, |i| Ok(c.truth(i, "NOT")?.map(|b| !b as i64)))?))
            }
            Expr::IsNull { expr, negated } => match child(expr)? {
                Column::Const(d) => Ok(Column::Const(Datum::Bool(d.is_null() != *negated))),
                c => Ok(bools(map_rows(n, sel, |i| Ok(Some((c.is_null(i) != *negated) as i64)))?)),
            },
            Expr::Func(f, args) if f.is_coalesce() => {
                let mut pieces = Vec::new();
                let mut open: Option<Vec<usize>> = sel.map(<[usize]>::to_vec);
                for a in args {
                    if open.as_ref().is_some_and(Vec::is_empty) {
                        break;
                    }
                    let c = a.eval_column(batch, rows.clone(), open.as_deref(), ctx)?;
                    let (hit, miss) = split(n, open.as_deref(), |i| !c.is_null(i));
                    pieces.push((hit, c));
                    open = Some(miss);
                }
                Ok(merge(n, pieces))
            }
            Expr::Func(f, args) => {
                let args = args.iter().map(child).collect::<Result<Vec<_>>>()?;
                if let Some(c) = function_column(f, &args, n, sel)? {
                    return Ok(c);
                }
                let mut vals = Vec::with_capacity(args.len());
                per_row(n, sel, |i| {
                    vals.clear();
                    vals.extend(args.iter().map(|a| a.datum(i)));
                    f.eval.call(&vals, ctx)
                })
            }
            Expr::Case {
                operand,
                branches,
                otherwise,
            } => {
                let operand = operand.as_deref().map(child).transpose()?;
                let mut pieces = Vec::new();
                let mut open: Option<Vec<usize>> = sel.map(<[usize]>::to_vec);
                for (when, then) in branches {
                    let w = when.eval_column(batch, rows.clone(), open.as_deref(), ctx)?;
                    let (hit, miss) = split(n, open.as_deref(), |i| match &operand {
                        Some(o) => case_hit(Some(&o.datum(i)), &w.datum(i)),
                        None => w.is_true(i),
                    });
                    let t = then.eval_column(batch, rows.clone(), Some(&hit), ctx)?;
                    pieces.push((hit, t));
                    open = Some(miss);
                }
                if let Some(e) = otherwise {
                    let rest = open.unwrap_or_else(|| (0..n).collect());
                    let c = e.eval_column(batch, rows.clone(), Some(&rest), ctx)?;
                    pieces.push((rest, c));
                }
                Ok(merge(n, pieces))
            }
            Expr::Cast(e, ty) => cast_column(child(e)?, *ty, n, sel),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let c = child(expr)?;
                match c.strs() {
                    // A string column matches its values read from the pool.
                    Some(s) => Ok(bools(map_rows(n, sel, |i| {
                        Ok(s.at(i).map(|s| (like_match(s, pattern) != *negated) as i64))
                    })?)),
                    None => per_row(n, sel, |i| like(c.datum(i), pattern, *negated)),
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let c = child(expr)?;
                per_row(n, sel, |i| Ok(in_list(&c.datum(i), list, *negated)))
            }
            Expr::SeqNext(_) | Expr::SeqCurr(_) => per_row(n, sel, |_| self.sequence_value(ctx)),
        }
    }
}

/// `l op r` over columns.
fn compare_columns<'a>(op: CmpOp, l: &Column<'_>, r: &Column<'_>, n: usize, sel: Option<&[usize]>) -> Result<Column<'a>> {
    if l.is_null_const() || r.is_null_const() {
        return Ok(Column::Const(Datum::Null));
    }
    if let (Column::Const(a), Column::Const(b)) = (l, r) {
        return Ok(Column::Const(compare(op, a, b)));
    }
    let test = |o: Option<Ordering>| Ok::<_, DashError>(o.map(|o| op.matches(o) as i64));
    let typed = match (l.ty(), r.ty()) {
        (Some(a), Some(b)) if (a.is_integer() && b.is_integer()) || (a == b && a.is_integer_encodable() && !matches!(a, DataType::Decimal(..))) => {
            l.ints().zip(r.ints()).map(|(x, y)| map_rows(n, sel, |i| test(x.at(i).zip(y.at(i)).map(|(x, y)| x.cmp(&y)))))
        }
        (Some(DataType::Utf8), Some(DataType::Utf8)) => l
            .strs()
            .zip(r.strs())
            .map(|(x, y)| map_rows(n, sel, |i| test(x.at(i).zip(y.at(i)).map(|(x, y)| x.cmp(y))))),
        (Some(a), Some(b)) if a.is_numeric() && b.is_numeric() => l.num().zip(r.num()).map(|(x, y)| {
            map_rows(n, sel, |i| test(x.at(i).zip(y.at(i)).map(|(x, y)| x.partial_cmp(&y).unwrap_or(Ordering::Equal))))
        }),
        _ => None,
    };
    match typed {
        Some(v) => Ok(bools(v?)),
        None => per_row(n, sel, |i| Ok(compare(op, &l.datum(i), &r.datum(i)))),
    }
}

/// `l op r` over columns: integers, doubles and decimals of one scale in
/// typed loops, anything else per row.
fn arith_columns<'a>(op: ArithOp, l: &Column<'_>, r: &Column<'_>, n: usize, sel: Option<&[usize]>) -> Result<Column<'a>> {
    if l.is_null_const() || r.is_null_const() {
        return Ok(Column::Const(Datum::Null));
    }
    if let (Column::Const(a), Column::Const(b)) = (l, r) {
        return Ok(Column::Const(eval_arith(op, a, b)?));
    }
    let typed = match (l.ty(), r.ty()) {
        (Some(a), Some(b)) if a.is_integer() && b.is_integer() => match (l.ints(), r.ints()) {
            (Some(x), Some(y)) => Some(ints(
                DataType::Int64,
                map_rows(n, sel, |i| x.at(i).zip(y.at(i)).map(|(x, y)| int_op(op, x, y)).transpose())?,
            )),
            _ => None,
        },
        (Some(a), Some(b)) if a.is_float() && b.is_float() => match (l.floats(), r.floats()) {
            (Some(x), Some(y)) => Some(floats(map_rows(n, sel, |i| {
                x.at(i).zip(y.at(i)).map(|(x, y)| float_op(op, x, y)).transpose()
            })?)),
            _ => None,
        },
        // `eval_arith` keeps a decimal exact while the scales sum to 38 at
        // most; the result is computed in `i128` and kept typed while it
        // fits the `i64` a decimal column stores.
        (Some(DataType::Decimal(_, s)), Some(DataType::Decimal(_, t))) if s == t && op != ArithOp::Div && s + t <= 38 => {
            match (l.ints(), r.ints()) {
                (Some(x), Some(y)) => {
                    let mut fits = true;
                    let v = map_rows(n, sel, |i| {
                        let (Some(a), Some(b)) = (x.at(i), y.at(i)) else { return Ok(None) };
                        let (a, b) = (a as i128, b as i128);
                        let v = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            _ if b == 0 => return Err(DashError::exec("division by zero")),
                            _ => a % b,
                        };
                        fits &= i64::try_from(v).is_ok();
                        Ok(Some(v as i64))
                    })?;
                    let scale = if op == ArithOp::Mul { s + t } else { s };
                    fits.then(|| ints(DataType::Decimal(38, scale), v))
                }
                _ => None,
            }
        }
        _ => None,
    };
    match typed {
        Some(c) => Ok(c),
        None => per_row(n, sel, |i| eval_arith(op, &l.datum(i), &r.datum(i))),
    }
}

fn negate_column<'a>(c: Column<'a>, n: usize, sel: Option<&[usize]>) -> Result<Column<'a>> {
    if let Column::Const(d) = c {
        return Ok(Column::Const(negate(d)?));
    }
    let overflow = || DashError::exec("integer overflow in unary -");
    match (c.ty(), &c) {
        (Some(t), Column::Typed(_, Values::Int(v))) if t.is_integer() => Ok(ints(
            DataType::Int64,
            map_rows(n, sel, |i| v[i].map(|x| x.checked_neg().ok_or_else(overflow)).transpose())?,
        )),
        (Some(t), Column::Typed(_, Values::Float(v))) if t.is_float() => Ok(floats(map_rows(n, sel, |i| Ok(v[i].map(|x| -x)))?)),
        (Some(t @ DataType::Decimal(..)), Column::Typed(_, Values::Int(v))) if v.iter().all(|x| x.is_none_or(|x| x != i64::MIN)) => {
            Ok(ints(t, map_rows(n, sel, |i| Ok(v[i].map(|x| -x)))?))
        }
        _ => per_row(n, sel, |i| negate(c.datum(i))),
    }
}

/// `CAST(c AS ty)`: numeric casts in typed loops, the rest per row.
fn cast_column<'a>(c: Column<'a>, ty: DataType, n: usize, sel: Option<&[usize]>) -> Result<Column<'a>> {
    if let Column::Const(d) = c {
        return Ok(Column::Const(cast_datum(d, ty)?));
    }
    let narrow = |x: i64| match ty {
        DataType::Int16 if i16::try_from(x).is_err() => Err(out_of_range(&Datum::Int(x), ty)),
        DataType::Int32 if i32::try_from(x).is_err() => Err(out_of_range(&Datum::Int(x), ty)),
        _ => Ok(x),
    };
    let rescale = |x: i64, from: u8, to: u8| -> Option<i64> {
        let x = x as i128;
        let v = if to >= from {
            x.checked_mul(10i128.checked_pow((to - from) as u32)?)?
        } else {
            // Round half away from zero, as `coerce_datum` does.
            let div = 10i128.checked_pow((from - to) as u32)?;
            (x + x.signum() * (div / 2)) / div
        };
        i64::try_from(v).ok()
    };
    let typed = match (c.ty(), &c, ty) {
        (Some(from), Column::Typed(_, Values::Int(v)), to) if from.is_integer() && to.is_integer() => {
            Some(ints(to, map_rows(n, sel, |i| v[i].map(narrow).transpose())?))
        }
        (Some(from), Column::Typed(_, Values::Int(v)), to) if from.is_integer() && to.is_float() => {
            Some(floats(map_rows(n, sel, |i| Ok(v[i].map(|x| x as f64)))?))
        }
        (Some(from), Column::Typed(_, Values::Float(v)), to) if from.is_float() && to.is_float() => {
            Some(floats(v.to_vec()))
        }
        (Some(from), Column::Typed(_, Values::Float(v)), to) if from.is_float() && to.is_integer() => Some(ints(
            to,
            map_rows(n, sel, |i| v[i].map(|f| float_to_int(f, to).and_then(narrow)).transpose())?,
        )),
        (Some(DataType::Decimal(_, s)), Column::Typed(_, Values::Int(v)), to) if to.is_float() => {
            let scale = 10f64.powi(s as i32);
            Some(floats(map_rows(n, sel, |i| Ok(v[i].map(|x| x as f64 / scale)))?))
        }
        (Some(from), Column::Typed(_, Values::Int(v)), DataType::Decimal(_, to)) if from.is_integer() || matches!(from, DataType::Decimal(..)) => {
            let from = match from {
                DataType::Decimal(_, s) => s,
                _ => 0,
            };
            let mut fits = true;
            let out = map_rows(n, sel, |i| {
                Ok(v[i].map(|x| {
                    rescale(x, from, to).unwrap_or_else(|| {
                        fits = false;
                        0
                    })
                }))
            })?;
            fits.then(|| ints(ty, out))
        }
        _ => None,
    };
    match typed {
        Some(c) => Ok(c),
        None => per_row(n, sel, |i| cast_datum(c.datum(i), ty)),
    }
}

/// The builtins with a typed loop: `MOD` of integers, `ABS` of a number.
fn function_column(f: &ScalarFunction, args: &[Column<'_>], n: usize, sel: Option<&[usize]>) -> Result<Option<Column<'static>>> {
    let ty = |i: usize| args.get(i).and_then(Column::ty);
    if f.is_builtin("MOD") && args.len() == 2 && ty(0).is_some_and(DataType::is_integer) && ty(1).is_some_and(DataType::is_integer) {
        let (Some(x), Some(y)) = (args[0].ints(), args[1].ints()) else { return Ok(None) };
        let v = map_rows(n, sel, |i| match (x.at(i), y.at(i)) {
            (Some(_), Some(0)) => Err(DashError::exec("division by zero in MOD")),
            // `i64::MIN % -1` is 0, which `wrapping_rem` gives.
            (Some(a), Some(d)) => Ok(Some(a.wrapping_rem(d))),
            _ => Ok(None),
        })?;
        return Ok(Some(ints(DataType::Int64, v)));
    }
    if f.is_builtin("ABS") && args.len() == 1 {
        return Ok(match (ty(0), &args[0]) {
            (Some(t), Column::Typed(_, Values::Int(v))) if t.is_integer() => Some(ints(
                t,
                map_rows(n, sel, |i| {
                    v[i].map(|x| x.checked_abs().ok_or_else(|| DashError::exec("integer overflow in ABS"))).transpose()
                })?,
            )),
            (Some(t), Column::Typed(_, Values::Float(v))) if t.is_float() => Some(floats(map_rows(n, sel, |i| Ok(v[i].map(f64::abs)))?)),
            _ => None,
        });
    }
    Ok(None)
}

/// `exprs` at rows `rows` of `batch`, one column each, evaluated column at
/// a time; `None` when one advances a sequence or fails.
fn columns<'a>(exprs: &[Expr], batch: &'a Batch, rows: &Range<usize>, ctx: &EvalContext) -> Option<Vec<Column<'a>>> {
    if exprs.iter().any(Expr::advances_sequence) {
        return None;
    }
    exprs.iter().map(|e| e.eval_column(batch, rows.clone(), None, ctx).ok()).collect()
}

/// `exprs` at rows `rows` of `batch`, one column each, evaluated column at
/// a time. They run row-major, as [`Expr::eval`] at one row after another,
/// when one advances a sequence or a column evaluation fails: the order
/// `NEXTVAL` advances in, and the first error in row order.
pub fn eval_columns<'a>(exprs: &[Expr], batch: &'a Batch, rows: Range<usize>, ctx: &EvalContext) -> Result<Vec<Column<'a>>> {
    if let Some(cols) = columns(exprs, batch, &rows, ctx) {
        return Ok(cols);
    }
    let mut cols = vec![Vec::with_capacity(rows.len()); exprs.len()];
    for row in rows {
        for (e, col) in exprs.iter().zip(&mut cols) {
            col.push(e.eval(batch, row, ctx)?);
        }
    }
    Ok(cols.into_iter().map(Column::Datums).collect())
}

/// Rows `rows` of `batch` projected through `exprs` into `schema`: the one
/// value evaluator behind `Project`. Each column is evaluated column at a
/// time and stored as its declared type; a bare column of that type moves
/// with its dictionary, and a NOT NULL output is checked by a scan of its
/// column. As in [`eval_columns`], the morsel runs row-major when an
/// expression advances a sequence or a column fails, a NOT NULL check
/// included.
pub fn project(exprs: &[Expr], schema: &Schema, batch: &Batch, rows: Range<usize>, ctx: &EvalContext) -> Result<Batch> {
    let fields = schema.fields();
    let not_null = |f: &Field| DashError::Constraint(format!("NULL value for NOT NULL column {}", f.name));
    let columnar = columns(exprs, batch, &rows, ctx).and_then(|cols| {
        cols.into_iter()
            .zip(fields)
            .map(|(c, f)| {
                let v = c.into_values(f.data_type, rows.len()).ok()?;
                (f.nullable || !has_null(&v)).then_some(v)
            })
            .collect::<Option<Vec<_>>>()
    });
    let cols = match columnar {
        Some(cols) => cols,
        None => {
            let mut cols: Vec<ColumnValues> = fields.iter().map(|f| ColumnValues::empty_for(f.data_type)).collect();
            for row in rows {
                for ((e, f), col) in exprs.iter().zip(fields).zip(&mut cols) {
                    let v = e.eval(batch, row, ctx)?;
                    if v.is_null() && !f.nullable {
                        return Err(not_null(f));
                    }
                    push_typed(col, f.data_type, &v)?;
                }
            }
            cols
        }
    };
    Batch::new(schema.clone(), cols)
}

fn has_null(c: &ColumnValues) -> bool {
    match c {
        ColumnValues::Int(v) => v.iter().any(Option::is_none),
        ColumnValues::Float(v) => v.iter().any(Option::is_none),
        ColumnValues::Str(v) => v.has_null(),
    }
}

/// `l op r` over operands the analyzer typed by [`arith_type`]: a date
/// moves by whole days, integers compute overflow-checked in `i64`,
/// decimals exactly in `i128` at the scale SQL gives the result, anything
/// else in `f64`.
///
/// [`arith_type`]: crate::functions::arith_type
fn eval_arith(op: ArithOp, l: &Datum, r: &Datum) -> Result<Datum> {
    use Datum::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    let days = |d: i32, n: i64, sign: i64| {
        i32::try_from(n.checked_mul(sign).ok_or_else(|| DashError::exec(format!("integer overflow in {op}")))?)
            .ok()
            .and_then(|n| d.checked_add(n))
            .map(Date)
            .ok_or_else(|| DashError::exec("date out of range"))
    };
    match (op, l, r) {
        (ArithOp::Add, Date(d), Int(n)) | (ArithOp::Add, Int(n), Date(d)) => return days(*d, *n, 1),
        (ArithOp::Sub, Date(d), Int(n)) => return days(*d, *n, -1),
        (ArithOp::Sub, Date(a), Date(b)) => return Ok(Int(*a as i64 - *b as i64)),
        (_, Int(a), Int(b)) => return int_op(op, *a, *b).map(Int),
        _ => {}
    }
    let unscaled = |d: &Datum| match d {
        Decimal(v, s) => Some((*v, *s)),
        Int(v) => Some((*v as i128, 0)),
        _ => None,
    };
    if let (Some((a, sa)), Some((b, sb))) = (unscaled(l), unscaled(r)) {
        if op != ArithOp::Div && sa as u16 + sb as u16 <= 38 {
            return decimal_arith(op, (a, sa), (b, sb));
        }
    }
    let a = l
        .as_float()
        .ok_or_else(|| DashError::exec(format!("non-numeric operand {l:?}")))?;
    let b = r
        .as_float()
        .ok_or_else(|| DashError::exec(format!("non-numeric operand {r:?}")))?;
    float_op(op, a, b).map(Float)
}

/// `a op b` on integers: overflow-checked, `i64::MIN % -1` is 0.
fn int_op(op: ArithOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ArithOp::Add => a.checked_add(b),
        ArithOp::Sub => a.checked_sub(b),
        ArithOp::Mul => a.checked_mul(b),
        ArithOp::Div | ArithOp::Rem if b == 0 => return Err(DashError::exec("division by zero")),
        ArithOp::Div => a.checked_div(b),
        ArithOp::Rem => Some(a.wrapping_rem(b)),
    }
    .ok_or_else(|| DashError::exec(format!("integer overflow in {op}")))
}

/// `a op b` on doubles; a zero divisor is an error.
fn float_op(op: ArithOp, a: f64, b: f64) -> Result<f64> {
    Ok(match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div | ArithOp::Rem if b == 0.0 => return Err(DashError::exec("division by zero")),
        ArithOp::Div => a / b,
        ArithOp::Rem => a % b,
    })
}

/// `l op r` with three-valued logic: NULL when either side is.
fn compare(op: CmpOp, l: &Datum, r: &Datum) -> Datum {
    if l.is_null() || r.is_null() {
        return Datum::Null;
    }
    Datum::Bool(op.matches(l.sql_cmp(r)))
}

fn negate(v: Datum) -> Result<Datum> {
    Ok(match v {
        Datum::Null => Datum::Null,
        Datum::Int(i) => Datum::Int(i.checked_neg().ok_or_else(|| DashError::exec("integer overflow in unary -"))?),
        Datum::Float(f) => Datum::Float(-f),
        Datum::Decimal(d, s) => Datum::Decimal(-d, s),
        other => return Err(DashError::exec(format!("cannot negate {other:?}"))),
    })
}

/// An operand of AND, OR or NOT (`what`) as a truth value; NULL is none.
fn truth(v: Datum, what: &str) -> Result<Option<bool>> {
    match v {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(b)),
        other => Err(DashError::exec(format!("{what} operand is not boolean: {other:?}"))),
    }
}

/// Whether a CASE branch whose WHEN evaluated to `when` is taken: it
/// equals the simple CASE's operand, or, searched, is TRUE.
fn case_hit(operand: Option<&Datum>, when: &Datum) -> bool {
    match operand {
        Some(v) => v.sql_eq(when).unwrap_or(false),
        None => matches!(when, Datum::Bool(true)),
    }
}

/// `CAST(v AS ty)`: a narrow integer type holds only its range.
fn cast_datum(v: Datum, ty: DataType) -> Result<Datum> {
    let v = coerce_datum(v, ty)?;
    match (ty, &v) {
        (DataType::Int16, Datum::Int(x)) if i16::try_from(*x).is_err() => Err(out_of_range(&v, ty)),
        (DataType::Int32, Datum::Int(x)) if i32::try_from(*x).is_err() => Err(out_of_range(&v, ty)),
        _ => Ok(v),
    }
}

fn like(v: Datum, pattern: &str, negated: bool) -> Result<Datum> {
    match v {
        Datum::Null => Ok(Datum::Null),
        Datum::Str(s) => Ok(Datum::Bool(like_match(&s, pattern) != negated)),
        other => Err(DashError::exec(format!("LIKE on non-string {other:?}"))),
    }
}

fn in_list(v: &Datum, list: &[Datum], negated: bool) -> Datum {
    if v.is_null() {
        return Datum::Null;
    }
    let mut saw_null = false;
    for cand in list {
        match v.sql_eq(cand) {
            Some(true) => return Datum::Bool(!negated),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    if saw_null {
        Datum::Null
    } else {
        Datum::Bool(negated)
    }
}

/// Exact decimal `±`, `%` (at the larger scale) and `×` (at the sum of the
/// scales, at most 38) in `i128`; a result of more than 38 digits is an
/// overflow.
fn decimal_arith(op: ArithOp, (a, sa): (i128, u8), (b, sb): (i128, u8)) -> Result<Datum> {
    let overflow = || DashError::exec(format!("decimal overflow in {op}"));
    let up = |v: i128, by: u8| 10i128.checked_pow(by as u32).and_then(|p| v.checked_mul(p));
    let (v, scale) = if op == ArithOp::Mul {
        (a.checked_mul(b), sa + sb)
    } else {
        let s = sa.max(sb);
        let (a, b) = (up(a, s - sa).ok_or_else(overflow)?, up(b, s - sb).ok_or_else(overflow)?);
        let v = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            _ if b == 0 => return Err(DashError::exec("division by zero")),
            _ => a.checked_rem(b),
        };
        (v, s)
    };
    match v {
        Some(v) if v.unsigned_abs() < 10u128.pow(38) => Ok(Datum::Decimal(v, scale)),
        _ => Err(overflow()),
    }
}

/// SQL LIKE matching (`%` = any run, `_` = any char). Case-sensitive.
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Dynamic programming over chars; patterns are short so this is fine.
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    let (n, m) = (sc.len(), pc.len());
    let mut dp = vec![false; n + 1];
    dp[0] = true;
    for (j, &p) in pc.iter().enumerate() {
        let _ = j;
        let mut prev_diag = dp[0];
        if p == '%' {
            // dp[i] |= dp[i-1] forward propagate; dp[0] unchanged.
            for i in 1..=n {
                dp[i] = dp[i] || dp[i - 1];
            }
        } else {
            dp[0] = false;
            for i in 1..=n {
                let cur = dp[i];
                dp[i] = prev_diag && (p == '_' || sc[i - 1] == p);
                prev_diag = cur;
            }
        }
        let _ = m;
    }
    dp[n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::FunctionRegistry;
    use dash_common::dialect::Dialect;
    use dash_common::types::DataType;
    use dash_common::{row, Field, Schema};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::not_null("a", DataType::Int64),
            Field::new("b", DataType::Utf8),
            Field::new("c", DataType::Float64),
        ])
        .unwrap();
        Batch::from_rows(
            schema,
            &[
                row![1i64, "apple", 1.5f64],
                row![2i64, Datum::Null, 2.5f64],
                row![3i64, "banana", Datum::Null],
            ],
        )
        .unwrap()
    }

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    #[test]
    fn comparisons_and_3vl() {
        let b = batch();
        let e = Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(0)), Box::new(Expr::lit(1i64)));
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Bool(false));
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Bool(true));
        // NULL propagates.
        let e = Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(1)), Box::new(Expr::lit("x")));
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Null);
    }

    #[test]
    fn and_or_three_valued() {
        let b = batch();
        // (c > 0) AND (b = 'banana'): row 2 has c NULL -> NULL AND true -> NULL.
        let e = Expr::And(vec![
            Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(2)), Box::new(Expr::lit(0f64))),
            Expr::Cmp(
                CmpOp::Eq,
                Box::new(Expr::col(1)),
                Box::new(Expr::lit("banana")),
            ),
        ]);
        assert_eq!(e.eval(&b, 2, &ctx()).unwrap(), Datum::Null);
        assert!(!e.eval_predicate(&b, 2, &ctx()).unwrap());
        // FALSE AND NULL -> FALSE (short-circuit dominance).
        let e = Expr::And(vec![
            Expr::lit(false),
            Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(1)), Box::new(Expr::lit("x"))),
        ]);
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Bool(false));
        // TRUE OR NULL -> TRUE.
        let e = Expr::Or(vec![
            Expr::lit(true),
            Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(1)), Box::new(Expr::lit("x"))),
        ]);
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn arithmetic() {
        let b = batch();
        let e = Expr::Arith(
            ArithOp::Mul,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(10i64)),
        );
        assert_eq!(e.eval(&b, 2, &ctx()).unwrap(), Datum::Int(30));
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(0i64)),
        );
        assert!(e.eval(&b, 0, &ctx()).is_err());
        // Mixed int/float promotes.
        let e = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::col(2)),
        );
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Float(2.5));
        assert_eq!(e.eval(&b, 2, &ctx()).unwrap(), Datum::Null);
    }

    #[test]
    fn date_arithmetic() {
        let schema = Schema::new(vec![Field::new("d", DataType::Date)]).unwrap();
        let b = Batch::from_rows(schema, &[row![Datum::Date(100)]]).unwrap();
        let e = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(0)),
            Box::new(Expr::lit(7i64)),
        );
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Date(107));
        let e = Expr::Arith(
            ArithOp::Sub,
            Box::new(Expr::col(0)),
            Box::new(Expr::Lit(Datum::Date(90))),
        );
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Int(10));
    }

    #[test]
    fn case_expressions() {
        let b = batch();
        // Searched CASE.
        let e = Expr::Case {
            operand: None,
            branches: vec![(
                Expr::Cmp(CmpOp::Gt, Box::new(Expr::col(0)), Box::new(Expr::lit(2i64))),
                Expr::lit("big"),
            )],
            otherwise: Some(Box::new(Expr::lit("small"))),
        };
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::str("small"));
        assert_eq!(e.eval(&b, 2, &ctx()).unwrap(), Datum::str("big"));
        // Simple CASE without ELSE -> NULL.
        let e = Expr::Case {
            operand: Some(Box::new(Expr::col(0))),
            branches: vec![(Expr::lit(99i64), Expr::lit("x"))],
            otherwise: None,
        };
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Null);
    }

    #[test]
    fn decimal_arithmetic_is_exact_and_overflow_is_classified() {
        let dec = |v: i128, s: u8| Datum::Decimal(v, s);
        let run = |op, l: &Datum, r: &Datum| format!("{:?}", eval_arith(op, l, r).unwrap());
        assert_eq!(run(ArithOp::Mul, &dec(125, 2), &dec(125, 2)), "Decimal(15625, 4)", "scale s1 + s2");
        assert_eq!(run(ArithOp::Add, &dec(125, 2), &dec(1, 4)), "Decimal(12501, 4)", "the larger scale");
        assert_eq!(run(ArithOp::Sub, &dec(125, 2), &Datum::Int(2)), "Decimal(-75, 2)");
        assert_eq!(run(ArithOp::Rem, &dec(725, 2), &dec(2, 0)), "Decimal(125, 2)");
        assert_eq!(run(ArithOp::Div, &dec(100, 2), &Datum::Int(4)), "Float(0.25)");
        let big = dec(10i128.pow(19), 0);
        assert_eq!(run(ArithOp::Mul, &big, &dec(10i128.pow(18), 0)), format!("Decimal({}, 0)", 10i128.pow(37)));
        for (op, l, r) in [(ArithOp::Mul, &big, &big), (ArithOp::Add, &dec(10i128.pow(37) * 9, 0), &dec(10i128.pow(37) * 9, 0))] {
            assert_eq!(eval_arith(op, l, r).unwrap_err().class(), "22000", "{op}: 38 digits at most");
        }
        assert_eq!(eval_arith(ArithOp::Rem, &dec(1, 2), &dec(0, 2)).unwrap_err().class(), "22000");
        // Integers: overflow is an error, `MIN % -1` is 0.
        assert!(eval_arith(ArithOp::Div, &Datum::Int(i64::MIN), &Datum::Int(-1)).is_err());
        assert_eq!(eval_arith(ArithOp::Rem, &Datum::Int(i64::MIN), &Datum::Int(-1)).unwrap(), Datum::Int(0));
        assert!(eval_arith(ArithOp::Add, &Datum::Date(i32::MAX), &Datum::Int(1)).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("banana", "ban%"));
        assert!(like_match("banana", "%ana"));
        assert!(like_match("banana", "b_n_n_"));
        assert!(like_match("banana", "%"));
        assert!(!like_match("banana", "ban"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
        assert!(like_match("a%b", "a%b")); // literal traversal via % wildcard
    }

    #[test]
    fn in_list_three_valued() {
        let b = batch();
        let e = Expr::InList {
            expr: Box::new(Expr::col(0)),
            list: vec![Datum::Int(1), Datum::Null],
            negated: false,
        };
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::Bool(true));
        // 2 IN (1, NULL) -> NULL (unknown).
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Null);
    }

    #[test]
    fn function_calls_and_arity() {
        let b = batch();
        let reg = FunctionRegistry::builtin();
        let upper = reg.resolve("UPPER", Dialect::Ansi).unwrap();
        assert_eq!((upper.min_args, upper.max_args), (1, 1), "the analyzer checks calls against these");
        let e = Expr::Func(upper, vec![Expr::col(1)]);
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::str("APPLE"));
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Null);
    }

    #[test]
    fn cast_and_is_null() {
        let b = batch();
        let e = Expr::Cast(Box::new(Expr::col(0)), DataType::Utf8);
        assert_eq!(e.eval(&b, 0, &ctx()).unwrap(), Datum::str("1"));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(1)),
            negated: false,
        };
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::col(1)),
            negated: true,
        };
        assert_eq!(e.eval(&b, 1, &ctx()).unwrap(), Datum::Bool(false));
    }

    #[test]
    fn referenced_columns_collects() {
        let e = Expr::And(vec![
            Expr::Cmp(CmpOp::Eq, Box::new(Expr::col(2)), Box::new(Expr::lit(1i64))),
            Expr::Arith(ArithOp::Add, Box::new(Expr::col(0)), Box::new(Expr::col(2))),
        ]);
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 2]);
    }
}
