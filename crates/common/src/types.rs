//! Logical data types.
//!
//! dashDB Local supports a broad polyglot type surface (§II.C of the paper:
//! `NUMBER`, `VARCHAR2`, `INT2`/`INT4`/`INT8`, `FLOAT4`/`FLOAT8`, `BOOLEAN`,
//! `DATE`, `DECFLOAT`, ...). Internally the engine normalizes these dialect
//! spellings onto a small set of physical types; this module defines that
//! set plus the dialect-name mapping.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The physical data types understood by the storage and execution engines.
///
/// Dialect-specific type names (e.g. Oracle `NUMBER`, Netezza `INT4`,
/// PostgreSQL `FLOAT8`) are resolved to one of these via
/// [`DataType::from_sql_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean (`BOOLEAN`, Netezza/PostgreSQL extension).
    Bool,
    /// 16-bit signed integer (`SMALLINT`, `INT2`).
    Int16,
    /// 32-bit signed integer (`INTEGER`, `INT4`).
    Int32,
    /// 64-bit signed integer (`BIGINT`, `INT8`).
    Int64,
    /// 32-bit IEEE float (`REAL`, `FLOAT4`).
    Float32,
    /// 64-bit IEEE float (`DOUBLE`, `FLOAT8`, Oracle `NUMBER` w/ scale).
    Float64,
    /// Fixed-point decimal with (precision, scale), stored as scaled i128.
    Decimal(u8, u8),
    /// Calendar date, stored as days since 1970-01-01 (`DATE`).
    Date,
    /// Timestamp, stored as microseconds since the epoch (`TIMESTAMP`).
    Timestamp,
    /// Variable-length UTF-8 string (`VARCHAR`, `VARCHAR2`, `TEXT`).
    Utf8,
}

impl DataType {
    /// True if the type is any integer type.
    pub fn is_integer(self) -> bool {
        matches!(self, DataType::Int16 | DataType::Int32 | DataType::Int64)
    }

    /// True if the type is any floating-point type.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::Float32 | DataType::Float64)
    }

    /// True if the type is numeric (integer, float, or decimal).
    pub fn is_numeric(self) -> bool {
        self.is_integer() || self.is_float() || matches!(self, DataType::Decimal(_, _))
    }

    /// True if the type is temporal (date or timestamp).
    pub fn is_temporal(self) -> bool {
        matches!(self, DataType::Date | DataType::Timestamp)
    }

    /// True if values of this type are encoded via the integer code path
    /// (the columnar engine maps these onto order-preserving integer codes
    /// directly rather than through a dictionary).
    pub fn is_integer_encodable(self) -> bool {
        self.is_integer() || self.is_temporal() || matches!(self, DataType::Bool | DataType::Decimal(_, _))
    }

    /// Resolve a SQL type name (any supported dialect) to a physical type.
    ///
    /// Returns `None` for unknown names. Matching is case-insensitive.
    ///
    /// ```
    /// use dash_common::DataType;
    /// assert_eq!(DataType::from_sql_name("int4", &[]), Some(DataType::Int32));
    /// assert_eq!(DataType::from_sql_name("VARCHAR2", &[64]), Some(DataType::Utf8));
    /// assert_eq!(DataType::from_sql_name("number", &[10, 2]), Some(DataType::Decimal(10, 2)));
    /// ```
    pub fn from_sql_name(name: &str, args: &[i64]) -> Option<DataType> {
        let upper = name.to_ascii_uppercase();
        Some(match upper.as_str() {
            "BOOLEAN" | "BOOL" => DataType::Bool,
            "SMALLINT" | "INT2" => DataType::Int16,
            "INTEGER" | "INT" | "INT4" => DataType::Int32,
            "BIGINT" | "INT8" => DataType::Int64,
            "REAL" | "FLOAT4" => DataType::Float32,
            "DOUBLE" | "FLOAT8" | "FLOAT" | "DOUBLE PRECISION" => DataType::Float64,
            "DECIMAL" | "NUMERIC" | "DEC" | "NUMBER" => {
                if args.is_empty() {
                    // Oracle NUMBER without precision behaves like a wide decimal.
                    DataType::Decimal(31, 6)
                } else {
                    let p = args[0].clamp(1, 38) as u8;
                    let s = args.get(1).copied().unwrap_or(0).clamp(0, p as i64) as u8;
                    DataType::Decimal(p, s)
                }
            }
            "DECFLOAT" => DataType::Decimal(34, 6),
            "DATE" => DataType::Date,
            "TIMESTAMP" | "DATETIME" => DataType::Timestamp,
            "VARCHAR" | "VARCHAR2" | "CHAR" | "CHARACTER" | "TEXT" | "STRING" | "BPCHAR"
            | "GRAPHIC" | "CLOB" => DataType::Utf8,
            _ => return None,
        })
    }

    /// The canonical (ANSI-ish) name of the type, used by `DESCRIBE` output.
    pub fn sql_name(&self) -> String {
        match self {
            DataType::Bool => "BOOLEAN".to_string(),
            DataType::Int16 => "SMALLINT".to_string(),
            DataType::Int32 => "INTEGER".to_string(),
            DataType::Int64 => "BIGINT".to_string(),
            DataType::Float32 => "REAL".to_string(),
            DataType::Float64 => "DOUBLE".to_string(),
            DataType::Decimal(p, s) => format!("DECIMAL({p},{s})"),
            DataType::Date => "DATE".to_string(),
            DataType::Timestamp => "TIMESTAMP".to_string(),
            DataType::Utf8 => "VARCHAR".to_string(),
        }
    }

    /// True when values of `self` can be compared against values of `other`
    /// without an explicit cast.
    pub fn comparable_with(self, other: DataType) -> bool {
        if self == other {
            return true;
        }
        (self.is_numeric() && other.is_numeric())
            || (self.is_temporal() && other.is_temporal())
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dialect_names_resolve() {
        assert_eq!(DataType::from_sql_name("INT2", &[]), Some(DataType::Int16));
        assert_eq!(DataType::from_sql_name("int8", &[]), Some(DataType::Int64));
        assert_eq!(DataType::from_sql_name("Float4", &[]), Some(DataType::Float32));
        assert_eq!(DataType::from_sql_name("varchar2", &[100]), Some(DataType::Utf8));
        assert_eq!(DataType::from_sql_name("DECFLOAT", &[]), Some(DataType::Decimal(34, 6)));
        assert_eq!(DataType::from_sql_name("bogus", &[]), None);
    }

    #[test]
    fn number_without_args_is_wide_decimal() {
        assert_eq!(DataType::from_sql_name("NUMBER", &[]), Some(DataType::Decimal(31, 6)));
    }

    #[test]
    fn decimal_args_clamped() {
        assert_eq!(DataType::from_sql_name("DECIMAL", &[99, 50]), Some(DataType::Decimal(38, 38)));
    }

    #[test]
    fn comparability() {
        assert!(DataType::Int16.comparable_with(DataType::Float64));
        assert!(DataType::Date.comparable_with(DataType::Timestamp));
        assert!(!DataType::Utf8.comparable_with(DataType::Int32));
        assert!(DataType::Utf8.comparable_with(DataType::Utf8));
    }

    #[test]
    fn integer_encodable_classes() {
        assert!(DataType::Date.is_integer_encodable());
        assert!(DataType::Bool.is_integer_encodable());
        assert!(DataType::Decimal(10, 2).is_integer_encodable());
        assert!(!DataType::Utf8.is_integer_encodable());
        assert!(!DataType::Float64.is_integer_encodable());
    }
}
