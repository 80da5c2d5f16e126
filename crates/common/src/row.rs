//! Row representation for the row-oriented paths.

use crate::datum::Datum;
use crate::error::{DashError, Result};
use crate::schema::{Field, Schema};
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single row of datums.
///
/// The columnar engine only materializes rows at plan edges (results,
/// shuffles); internally it stays in compressed column vectors. The
/// row-store baseline uses `Row` throughout.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Row(pub Vec<Datum>);

impl Row {
    /// Create a row from datums.
    pub fn new(values: Vec<Datum>) -> Row {
        Row(values)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The datum at ordinal `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &Datum {
        &self.0[i]
    }

    /// All values.
    pub fn values(&self) -> &[Datum] {
        &self.0
    }

    /// Project a subset of columns into a new row.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate with another row (join output).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend(self.0.iter().cloned());
        v.extend(other.0.iter().cloned());
        Row(v)
    }

    /// Validate the row against a schema: arity, types, nullability.
    /// Integer widths are checked against their declared ranges.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.0.len() != schema.len() {
            return Err(DashError::analysis(format!(
                "row has {} values but table has {} columns",
                self.0.len(),
                schema.len()
            )));
        }
        for (i, (d, f)) in self.0.iter().zip(schema.fields()).enumerate() {
            check_stored(d, f, i)?;
            let ok = matches!(
                (f.data_type, d),
                (_, Datum::Null)
                    | (DataType::Bool, Datum::Bool(_))
                    | (DataType::Int16 | DataType::Int32 | DataType::Int64, Datum::Int(_))
                    | (DataType::Float32 | DataType::Float64, Datum::Float(_) | Datum::Int(_))
                    | (DataType::Decimal(_, _), Datum::Decimal(_, _) | Datum::Int(_))
                    | (DataType::Date, Datum::Date(_))
                    | (DataType::Timestamp, Datum::Timestamp(_))
                    | (DataType::Utf8, Datum::Str(_))
            );
            if !ok {
                return Err(DashError::analysis(format!(
                    "type mismatch for column {}: expected {}, got {:?}",
                    f.name, f.data_type, d
                )));
            }
        }
        Ok(())
    }

    /// Coerce row values to match the schema's declared types (int→float,
    /// int→decimal, string→date, etc.). Used by INSERT paths so users can
    /// write `'2017-01-01'` for a DATE column.
    pub fn coerce(mut self, schema: &Schema) -> Result<Row> {
        if self.0.len() != schema.len() {
            return Err(DashError::analysis(format!(
                "row has {} values but table has {} columns",
                self.0.len(),
                schema.len()
            )));
        }
        for (d, f) in self.0.iter_mut().zip(schema.fields()) {
            if d.is_null() {
                continue;
            }
            *d = coerce_datum(std::mem::replace(d, Datum::Null), f.data_type)?;
        }
        self.validate(schema)?;
        Ok(self)
    }
}

/// Check that `d`, a value of `field`'s type, may be stored at ordinal `i`:
/// not NULL in a NOT NULL column, and inside a narrow integer type's range.
pub fn check_stored(d: &Datum, field: &Field, i: usize) -> Result<()> {
    let range = match field.data_type {
        DataType::Int16 => i16::MIN as i64..=i16::MAX as i64,
        DataType::Int32 => i32::MIN as i64..=i32::MAX as i64,
        _ => i64::MIN..=i64::MAX,
    };
    match d {
        Datum::Null if !field.nullable => Err(DashError::Constraint(format!(
            "NULL value for NOT NULL column {} (ordinal {i})",
            field.name
        ))),
        Datum::Int(v) if !range.contains(v) => Err(DashError::analysis(format!(
            "type mismatch for column {}: expected {}, got {d:?}",
            field.name, field.data_type
        ))),
        _ => Ok(()),
    }
}

/// Coerce a single datum to a target type. Lossless or standard SQL casts
/// only; fails with an execution error on impossible conversions.
pub fn coerce_datum(d: Datum, target: DataType) -> Result<Datum> {
    use crate::date;
    if d.is_null() {
        return Ok(Datum::Null);
    }
    let out = match (target, &d) {
        (DataType::Bool, Datum::Bool(_)) => d,
        (DataType::Bool, Datum::Int(v)) => Datum::Bool(*v != 0),
        (DataType::Int16 | DataType::Int32 | DataType::Int64, Datum::Int(_)) => d,
        (DataType::Int16 | DataType::Int32 | DataType::Int64, Datum::Bool(b)) => {
            Datum::Int(*b as i64)
        }
        (DataType::Int16 | DataType::Int32 | DataType::Int64, Datum::Float(f)) => {
            Datum::Int(float_to_int(*f, target)?)
        }
        (DataType::Int16 | DataType::Int32 | DataType::Int64, Datum::Str(s)) => Datum::Int(
            s.trim()
                .parse::<i64>()
                .map_err(|_| DashError::exec(format!("cannot cast '{s}' to integer")))?,
        ),
        (DataType::Float32 | DataType::Float64, _) if d.as_float().is_some() => {
            Datum::Float(d.as_float().unwrap())
        }
        (DataType::Float32 | DataType::Float64, Datum::Str(s)) => Datum::Float(
            s.trim()
                .parse::<f64>()
                .map_err(|_| DashError::exec(format!("cannot cast '{s}' to double")))?,
        ),
        (DataType::Decimal(_, s), Datum::Int(v)) => rescale_decimal(*v as i128, 0, s)?,
        (DataType::Decimal(_, s), Datum::Float(f)) => Datum::Decimal(float_to_unscaled(*f, target)?, s),
        (DataType::Decimal(_, s), Datum::Decimal(v, vs)) => rescale_decimal(*v, *vs, s)?,
        (DataType::Decimal(_, s), Datum::Str(txt)) => {
            let f: f64 = txt
                .trim()
                .parse()
                .map_err(|_| DashError::exec(format!("cannot cast '{txt}' to decimal")))?;
            Datum::Decimal(float_to_unscaled(f, target)?, s)
        }
        (DataType::Date, Datum::Date(_)) => d,
        (DataType::Date, Datum::Timestamp(t)) => {
            Datum::Date(date::timestamp_micros_to_date(*t))
        }
        (DataType::Date, Datum::Str(s)) => Datum::Date(
            date::parse_date(s)
                .ok_or_else(|| DashError::exec(format!("cannot cast '{s}' to date")))?,
        ),
        (DataType::Timestamp, Datum::Timestamp(_)) => d,
        (DataType::Timestamp, Datum::Date(days)) => {
            Datum::Timestamp(date::date_to_timestamp_micros(*days))
        }
        (DataType::Timestamp, Datum::Str(s)) => Datum::Timestamp(
            date::parse_timestamp(s)
                .ok_or_else(|| DashError::exec(format!("cannot cast '{s}' to timestamp")))?,
        ),
        (DataType::Utf8, Datum::Str(_)) => d,
        (DataType::Utf8, other) => Datum::str(other.render()),
        (t, other) => {
            return Err(DashError::exec(format!(
                "cannot coerce {other:?} to {t}"
            )))
        }
    };
    Ok(out)
}

/// The error for a value no `target` value represents.
pub fn out_of_range(v: &Datum, target: DataType) -> DashError {
    DashError::exec(format!("{v} is out of range for {target}"))
}

/// `f` cast to the integer type `target`: truncated toward zero. NaN,
/// ±inf and a value outside [-2^63, 2^63) after truncation are out of
/// range (a narrow type's own range is checked by the `CAST`).
pub fn float_to_int(f: f64, target: DataType) -> Result<i64> {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    let t = f.trunc();
    if (-TWO_63..TWO_63).contains(&t) {
        Ok(t as i64)
    } else {
        Err(out_of_range(&Datum::Float(f), target))
    }
}

/// `f` as the unscaled value of the decimal type `target`: rounded half
/// away from zero at its scale. NaN, ±inf and a value of more than 38
/// digits are out of range.
pub fn float_to_unscaled(f: f64, target: DataType) -> Result<i128> {
    let scale = match target {
        DataType::Decimal(_, s) => s,
        _ => 0,
    };
    let v = (f * 10f64.powi(scale as i32)).round();
    if v.abs() < 1e38 {
        Ok(v as i128)
    } else {
        Err(out_of_range(&Datum::Float(f), target))
    }
}

fn rescale_decimal(v: i128, from: u8, to: u8) -> Result<Datum> {
    use std::cmp::Ordering::*;
    let pow = |by: u8| 10i128.checked_pow(by as u32);
    Ok(match from.cmp(&to) {
        Equal => Datum::Decimal(v, to),
        Less => Datum::Decimal(
            pow(to - from)
                .and_then(|p| v.checked_mul(p))
                .ok_or_else(|| DashError::exec(format!("decimal overflow rescaling to scale {to}")))?,
            to,
        ),
        // Round half away from zero; a divisor past `i128` leaves 0.
        Greater => Datum::Decimal(
            pow(from - to).map_or(0, |div| (v + v.signum() * (div / 2)) / div),
            to,
        ),
    })
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Datum>> for Row {
    fn from(v: Vec<Datum>) -> Self {
        Row(v)
    }
}

/// Build a row from heterogeneous literals: `row![1i64, "x", Datum::Null]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::datum::Datum::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("id", DataType::Int32),
            Field::new("ts", DataType::Date),
            Field::new("amt", DataType::Decimal(10, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn validate_catches_not_null() {
        let r = Row::new(vec![Datum::Null, Datum::Date(0), Datum::Decimal(100, 2)]);
        assert!(matches!(
            r.validate(&schema()),
            Err(DashError::Constraint(_))
        ));
    }

    #[test]
    fn validate_catches_range() {
        let r = Row::new(vec![
            Datum::Int(i64::MAX),
            Datum::Date(0),
            Datum::Decimal(1, 2),
        ]);
        assert!(r.validate(&schema()).is_err());
    }

    #[test]
    fn coerce_string_date_and_int_decimal() {
        let r = row![7i64, "2017-04-20", 5i64].coerce(&schema()).unwrap();
        assert_eq!(r.get(1), &Datum::Date(17276));
        assert_eq!(r.get(2), &Datum::Decimal(500, 2));
    }

    #[test]
    fn coerce_bad_date_fails() {
        let r = row![7i64, "not a date", 5i64].coerce(&schema());
        assert!(r.is_err());
    }

    #[test]
    fn decimal_rescale_rounds() {
        assert_eq!(rescale_decimal(125, 2, 1).unwrap(), Datum::Decimal(13, 1)); // 1.25 -> 1.3
        assert_eq!(rescale_decimal(-125, 2, 1).unwrap(), Datum::Decimal(-13, 1));
        assert_eq!(rescale_decimal(5, 0, 2).unwrap(), Datum::Decimal(500, 2));
        assert_eq!(coerce_datum(Datum::Int(i64::MAX), DataType::Decimal(38, 30)).unwrap_err().class(), "22000");
    }

    #[test]
    fn project_concat() {
        let r = row![1i64, "a", 2.5f64];
        assert_eq!(r.project(&[2, 0]), row![2.5f64, 1i64]);
        assert_eq!(r.concat(&row![true]).len(), 4);
    }
}
