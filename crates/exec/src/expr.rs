//! Physical scalar expressions.
//!
//! Expressions are evaluated against [`Batch`]es position-by-position with
//! SQL three-valued logic. The fast path for simple comparison predicates
//! bypasses this module entirely (the scan evaluates them on compressed
//! codes via [`crate::simd`]); what remains here are the *residual*
//! expressions — arithmetic, function calls, CASE, LIKE, IN — applied to
//! the already-filtered survivors.

use crate::batch::Batch;
use crate::functions::{EvalContext, ScalarFunction};
use dash_common::row::coerce_datum;
use dash_common::{DashError, DataType, Datum, Result};
use std::fmt;
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
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(batch, row, ctx)?;
                let rv = r.eval(batch, row, ctx)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Datum::Null);
                }
                Ok(Datum::Bool(op.matches(lv.sql_cmp(&rv))))
            }
            Expr::Arith(op, l, r) => {
                let lv = l.eval(batch, row, ctx)?;
                let rv = r.eval(batch, row, ctx)?;
                eval_arith(*op, &lv, &rv)
            }
            Expr::Neg(e) => {
                let v = e.eval(batch, row, ctx)?;
                Ok(match v {
                    Datum::Null => Datum::Null,
                    Datum::Int(i) => Datum::Int(
                        i.checked_neg().ok_or_else(|| DashError::exec("integer overflow in unary -"))?,
                    ),
                    Datum::Float(f) => Datum::Float(-f),
                    Datum::Decimal(d, s) => Datum::Decimal(-d, s),
                    other => {
                        return Err(DashError::exec(format!("cannot negate {other:?}")))
                    }
                })
            }
            Expr::And(parts) => {
                // 3VL AND: false dominates, then null, then true.
                let mut saw_null = false;
                for p in parts {
                    match p.eval(batch, row, ctx)? {
                        Datum::Bool(false) => return Ok(Datum::Bool(false)),
                        Datum::Null => saw_null = true,
                        Datum::Bool(true) => {}
                        other => {
                            return Err(DashError::exec(format!(
                                "AND operand is not boolean: {other:?}"
                            )))
                        }
                    }
                }
                Ok(if saw_null { Datum::Null } else { Datum::Bool(true) })
            }
            Expr::Or(parts) => {
                let mut saw_null = false;
                for p in parts {
                    match p.eval(batch, row, ctx)? {
                        Datum::Bool(true) => return Ok(Datum::Bool(true)),
                        Datum::Null => saw_null = true,
                        Datum::Bool(false) => {}
                        other => {
                            return Err(DashError::exec(format!(
                                "OR operand is not boolean: {other:?}"
                            )))
                        }
                    }
                }
                Ok(if saw_null { Datum::Null } else { Datum::Bool(false) })
            }
            Expr::Not(e) => Ok(match e.eval(batch, row, ctx)? {
                Datum::Null => Datum::Null,
                Datum::Bool(b) => Datum::Bool(!b),
                other => {
                    return Err(DashError::exec(format!(
                        "NOT operand is not boolean: {other:?}"
                    )))
                }
            }),
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(batch, row, ctx)?;
                Ok(Datum::Bool(v.is_null() != *negated))
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
                    let hit = match &op_val {
                        Some(v) => {
                            let w = when.eval(batch, row, ctx)?;
                            v.sql_eq(&w).unwrap_or(false)
                        }
                        None => matches!(when.eval(batch, row, ctx)?, Datum::Bool(true)),
                    };
                    if hit {
                        return then.eval(batch, row, ctx);
                    }
                }
                match otherwise {
                    Some(e) => e.eval(batch, row, ctx),
                    None => Ok(Datum::Null),
                }
            }
            Expr::Cast(e, ty) => {
                let v = coerce_datum(e.eval(batch, row, ctx)?, *ty)?;
                // A narrow integer type holds only its range.
                match (ty, &v) {
                    (DataType::Int16, Datum::Int(x)) if i16::try_from(*x).is_err() => {}
                    (DataType::Int32, Datum::Int(x)) if i32::try_from(*x).is_err() => {}
                    _ => return Ok(v),
                }
                Err(DashError::exec(format!("{v} is out of range for {ty}")))
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(batch, row, ctx)?;
                match v {
                    Datum::Null => Ok(Datum::Null),
                    Datum::Str(s) => Ok(Datum::Bool(like_match(&s, pattern) != *negated)),
                    other => Err(DashError::exec(format!("LIKE on non-string {other:?}"))),
                }
            }
            Expr::SeqNext(name) => match &ctx.sequences {
                Some(s) => Ok(Datum::Int(s.next_value(name)?)),
                None => Err(DashError::exec("no sequence source in this context")),
            },
            Expr::SeqCurr(name) => match &ctx.sequences {
                Some(s) => Ok(Datum::Int(s.current_value(name)?)),
                None => Err(DashError::exec("no sequence source in this context")),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(batch, row, ctx)?;
                if v.is_null() {
                    return Ok(Datum::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    match v.sql_eq(cand) {
                        Some(true) => return Ok(Datum::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Datum::Null
                } else {
                    Datum::Bool(*negated)
                })
            }
        }
    }

    /// Evaluate as a predicate at one row: `true` only for `TRUE`
    /// (NULL and FALSE both reject the row).
    pub fn eval_predicate(&self, batch: &Batch, row: usize, ctx: &EvalContext) -> Result<bool> {
        Ok(matches!(self.eval(batch, row, ctx)?, Datum::Bool(true)))
    }

    /// Column ordinals referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Lit(_) => {}
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) => {
                l.referenced_columns(out);
                r.referenced_columns(out);
            }
            Expr::Neg(e) | Expr::Not(e) | Expr::Cast(e, _) => e.referenced_columns(out),
            Expr::And(v) | Expr::Or(v) => {
                for e in v {
                    e.referenced_columns(out);
                }
            }
            Expr::IsNull { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::InList { expr, .. } => expr.referenced_columns(out),
            Expr::SeqNext(_) | Expr::SeqCurr(_) => {}
            Expr::Func(_, args) => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            Expr::Case {
                operand,
                branches,
                otherwise,
            } => {
                if let Some(o) = operand {
                    o.referenced_columns(out);
                }
                for (w, t) in branches {
                    w.referenced_columns(out);
                    t.referenced_columns(out);
                }
                if let Some(e) = otherwise {
                    e.referenced_columns(out);
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
    let overflow = || DashError::exec(format!("integer overflow in {op}"));
    let zero = || DashError::exec("division by zero");
    let days = |d: i32, n: i64, sign: i64| {
        i32::try_from(n.checked_mul(sign).ok_or_else(overflow)?)
            .ok()
            .and_then(|n| d.checked_add(n))
            .map(Date)
            .ok_or_else(|| DashError::exec("date out of range"))
    };
    match (op, l, r) {
        (ArithOp::Add, Date(d), Int(n)) | (ArithOp::Add, Int(n), Date(d)) => return days(*d, *n, 1),
        (ArithOp::Sub, Date(d), Int(n)) => return days(*d, *n, -1),
        (ArithOp::Sub, Date(a), Date(b)) => return Ok(Int(*a as i64 - *b as i64)),
        (_, Int(a), Int(b)) => {
            return Ok(Int(match op {
                ArithOp::Add => a.checked_add(*b),
                ArithOp::Sub => a.checked_sub(*b),
                ArithOp::Mul => a.checked_mul(*b),
                ArithOp::Div if *b == 0 => return Err(zero()),
                ArithOp::Div => a.checked_div(*b),
                ArithOp::Rem if *b == 0 => return Err(zero()),
                // `i64::MIN % -1` is 0.
                ArithOp::Rem => Some(a.wrapping_rem(*b)),
            }
            .ok_or_else(overflow)?))
        }
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
    Ok(match op {
        ArithOp::Add => Float(a + b),
        ArithOp::Sub => Float(a - b),
        ArithOp::Mul => Float(a * b),
        ArithOp::Div if b == 0.0 => return Err(zero()),
        ArithOp::Div => Float(a / b),
        ArithOp::Rem if b == 0.0 => return Err(zero()),
        ArithOp::Rem => Float(a % b),
    })
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
