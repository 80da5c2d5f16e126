//! Runtime values.
//!
//! [`Datum`] is the dynamically-typed value that flows through row-oriented
//! paths (INSERT, the row-store baseline, final result sets). The columnar
//! engine converts datums to/from compressed integer codes at its edges.

use crate::date;
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single dynamically-typed SQL value, including `NULL`.
///
/// Strings are reference-counted so rows can be cloned cheaply during
/// shuffles and spills.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Datum {
    /// SQL NULL (typed NULLs are tracked by the enclosing schema).
    Null,
    /// Boolean value.
    Bool(bool),
    /// Any integer value (INT16/32/64 all widen to i64 at runtime).
    Int(i64),
    /// Any float value (FLOAT32 widens to f64 at runtime).
    Float(f64),
    /// Decimal: unscaled value plus scale, e.g. `Decimal(12345, 2)` = 123.45.
    Decimal(i128, u8),
    /// Date as days since 1970-01-01.
    Date(i32),
    /// Timestamp as microseconds since the epoch.
    Timestamp(i64),
    /// UTF-8 string.
    Str(Arc<str>),
}

impl Datum {
    /// Construct a string datum.
    pub fn str(s: impl Into<Arc<str>>) -> Datum {
        Datum::Str(s.into())
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The runtime data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Datum::Null => return None,
            Datum::Bool(_) => DataType::Bool,
            Datum::Int(_) => DataType::Int64,
            Datum::Float(_) => DataType::Float64,
            Datum::Decimal(_, s) => DataType::Decimal(38, *s),
            Datum::Date(_) => DataType::Date,
            Datum::Timestamp(_) => DataType::Timestamp,
            Datum::Str(_) => DataType::Utf8,
        })
    }

    /// Whether this value is one of type `dt`: NULL is of every type, an
    /// integer of every integer width, a float of both float widths, a
    /// decimal of decimals at its own scale.
    pub fn has_type(&self, dt: DataType) -> bool {
        match self {
            Datum::Null => true,
            Datum::Int(_) => dt.is_integer(),
            Datum::Float(_) => dt.is_float(),
            Datum::Decimal(_, s) => matches!(dt, DataType::Decimal(_, t) if t == *s),
            other => other.data_type() == Some(dt),
        }
    }

    /// Extract an i64, widening smaller integers; `None` for non-integers.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            Datum::Bool(b) => Some(*b as i64),
            Datum::Date(d) => Some(*d as i64),
            Datum::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Extract a float, converting integers and decimals; `None` otherwise.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            Datum::Decimal(v, s) => Some(*v as f64 / 10f64.powi(*s as i32)),
            _ => None,
        }
    }

    /// Extract a string slice; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract a bool; `None` for non-bools.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether this datum is numeric (int, float or decimal).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Datum::Int(_) | Datum::Float(_) | Datum::Decimal(_, _))
    }

    /// Total-order comparison with SQL semantics: `NULL` sorts last (the
    /// convention used by the engine's sort operator), numerics compare by
    /// value across int/float/decimal, and cross-type comparisons that make
    /// no sense order by type tag (deterministic, never panics).
    pub fn sql_cmp(&self, other: &Datum) -> Ordering {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater, // NULLs last
            (_, Null) => Ordering::Less,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Date(a), Date(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Date(a), Timestamp(b)) => date::date_to_timestamp_micros(*a).cmp(b),
            (Timestamp(a), Date(b)) => a.cmp(&date::date_to_timestamp_micros(*b)),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                // Fast path: both ints.
                if let (Int(x), Int(y)) = (a, b) {
                    return x.cmp(y);
                }
                let x = a.as_float().unwrap_or(f64::NAN);
                let y = b.as_float().unwrap_or(f64::NAN);
                x.partial_cmp(&y).unwrap_or(Ordering::Equal)
            }
            (a, b) => a.type_tag().cmp(&b.type_tag()),
        }
    }

    /// SQL equality (`=`): returns `None` when either side is NULL
    /// (three-valued logic), `Some(bool)` otherwise.
    pub fn sql_eq(&self, other: &Datum) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.sql_cmp(other) == Ordering::Equal)
    }

    fn type_tag(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int(_) => 2,
            Datum::Float(_) => 3,
            Datum::Decimal(_, _) => 4,
            Datum::Date(_) => 5,
            Datum::Timestamp(_) => 6,
            Datum::Str(_) => 7,
        }
    }

    /// Approximate in-memory footprint in bytes, used by memory accounting
    /// in the workload manager and the analytics transfer layer.
    pub fn approx_size(&self) -> usize {
        match self {
            Datum::Str(s) => 16 + s.len(),
            Datum::Decimal(_, _) => 24,
            _ => 16,
        }
    }

    /// Render the datum the way the result-set printer does.
    pub fn render(&self) -> String {
        match self {
            Datum::Null => "NULL".to_string(),
            Datum::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Datum::Decimal(v, s) => {
                let scale = *s as u32;
                if scale == 0 {
                    v.to_string()
                } else {
                    let pow = 10i128.pow(scale);
                    let sign = if *v < 0 { "-" } else { "" };
                    let av = v.unsigned_abs();
                    format!(
                        "{sign}{}.{:0width$}",
                        av / pow.unsigned_abs(),
                        av % pow.unsigned_abs(),
                        width = scale as usize
                    )
                }
            }
            Datum::Date(d) => date::format_date(*d),
            Datum::Timestamp(t) => date::format_timestamp(*t),
            Datum::Str(s) => s.to_string(),
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality: NULL == NULL here (used by hash tables for
        // GROUP BY, where NULLs group together per SQL semantics).
        match (self, other) {
            (Datum::Null, Datum::Null) => true,
            (Datum::Null, _) | (_, Datum::Null) => false,
            _ => self.sql_cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order via [`Datum::sql_cmp`] (NULLs sort last). Consistent with
/// `Eq`: `sql_cmp == Equal` exactly when `==` (including NULL = NULL at the
/// structural level used by grouping).
impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sql_cmp(other)
    }
}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Datum::Null => 0u8.hash(state),
            Datum::Bool(b) => (*b as i64).hash(state),
            // Numerics must hash equal when they compare equal, and they
            // compare by `f64` value across kinds.
            Datum::Int(v) => hash_numeric(*v as f64, state),
            Datum::Float(v) => hash_numeric(*v, state),
            Datum::Decimal(v, s) => hash_numeric(*v as f64 / 10f64.powi(*s as i32), state),
            Datum::Date(d) => date::date_to_timestamp_micros(*d).hash(state),
            Datum::Timestamp(t) => t.hash(state),
            Datum::Str(s) => s.hash(state),
        }
    }
}

/// Hash a numeric by value. A whole number hashes as its `i64`, never as
/// float bits: the bits of a small integer end in ~40 zeros, which survive
/// an Fx multiply into the low hash bits a hash table buckets by, so a
/// table keyed on `Datum::Int` degrades to one long probe chain. Other
/// floats fold the high bits of their canonical form down first, for the
/// same reason (`0.5`, `1.25`, ... also end in zeros).
fn hash_numeric<H: Hasher>(f: f64, state: &mut H) {
    let i = f as i64;
    if i as f64 == f {
        i.hash(state)
    } else {
        let mut x = canonical_f64_bits(f);
        x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        (x ^ (x >> 33)).hash(state)
    }
}

/// Canonical bit pattern for an `f64` acting as a hash or group key.
///
/// `-0.0` folds onto `+0.0` and every NaN payload folds onto one canonical
/// NaN, so bit-level key identity agrees with SQL equality (`-0.0 = 0.0`,
/// and NaN pairs compare Equal under [`Datum::sql_cmp`]). Every keyed path
/// — `Datum` hashing, the aggregate fast path, and the encoded key words —
/// must go through this one form so group identity never drifts between
/// paths.
pub fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::Int(v as i64)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::str(v)
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(v.into())
    }
}
impl<T: Into<Datum>> From<Option<T>> for Datum {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Datum::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ordering_last() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), Ordering::Greater);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), Ordering::Less);
        assert_eq!(Datum::Null.sql_cmp(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Float(2.0)), Ordering::Equal);
        assert_eq!(Datum::Int(2).sql_cmp(&Datum::Float(2.5)), Ordering::Less);
        assert_eq!(
            Datum::Decimal(250, 2).sql_cmp(&Datum::Float(2.5)),
            Ordering::Equal
        );
    }

    #[test]
    fn three_valued_equality() {
        assert_eq!(Datum::Null.sql_eq(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Int(1)), Some(true));
        assert_eq!(Datum::Int(1).sql_eq(&Datum::Int(2)), Some(false));
    }

    #[test]
    fn hash_consistent_with_eq_across_numeric_types() {
        use std::collections::hash_map::DefaultHasher;
        fn h(d: &Datum) -> u64 {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        }
        let a = Datum::Int(42);
        let b = Datum::Float(42.0);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    /// The low bits of the hash are what a hash table buckets by: dense
    /// keys must spread over them, whatever their numeric kind.
    #[test]
    fn numeric_hash_spreads_over_low_bits() {
        use crate::fxhash::FxHasher;
        fn low_bits(d: Datum) -> u64 {
            let mut s = FxHasher::default();
            d.hash(&mut s);
            s.finish() & 0xfff
        }
        let kinds: [fn(i64) -> Datum; 3] = [
            Datum::Int,
            |i| Datum::Float(i as f64 + 0.5),
            |i| Datum::Decimal(i as i128 * 100 + 25, 2),
        ];
        for kind in kinds {
            let distinct: std::collections::HashSet<u64> =
                (0..4096).map(|i| low_bits(kind(i))).collect();
            assert!(distinct.len() > 2048, "{} of 4096 buckets", distinct.len());
        }
    }

    #[test]
    fn decimal_render() {
        assert_eq!(Datum::Decimal(12345, 2).render(), "123.45");
        assert_eq!(Datum::Decimal(-12345, 2).render(), "-123.45");
        assert_eq!(Datum::Decimal(5, 3).render(), "0.005");
        assert_eq!(Datum::Decimal(7, 0).render(), "7");
    }

    #[test]
    fn date_vs_timestamp_compare() {
        let d = Datum::Date(1); // 1970-01-02
        let t = Datum::Timestamp(86_400_000_000); // same instant
        assert_eq!(d.sql_cmp(&t), Ordering::Equal);
    }

    #[test]
    fn from_option() {
        let d: Datum = Option::<i64>::None.into();
        assert!(d.is_null());
        let d: Datum = Some(3i64).into();
        assert_eq!(d, Datum::Int(3));
    }
}
