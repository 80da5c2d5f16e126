//! Table schemas.

use crate::error::{DashError, Result};
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Column name (stored upper-cased, SQL identifiers fold to upper).
    pub name: String,
    /// Physical type.
    pub data_type: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// Create a nullable field. Names are folded to upper case, matching the
    /// identifier folding the SQL front-end performs.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into().to_ascii_uppercase(),
            data_type,
            nullable: true,
        }
    }

    /// Create a NOT NULL field.
    pub fn not_null(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            nullable: false,
            ..Field::new(name, data_type)
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)?;
        if !self.nullable {
            write!(f, " NOT NULL")?;
        }
        Ok(())
    }
}

/// An ordered collection of fields describing a table or intermediate result.
///
/// Schemas are immutable and shared via `Arc` (cheap to attach to every
/// batch flowing through the executor).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    fields: Arc<[Field]>,
}

impl Schema {
    /// Build a schema from fields. Duplicate column names are rejected.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(DashError::already_exists("column", &f.name));
            }
        }
        Ok(Schema {
            fields: fields.into(),
        })
    }

    /// Build a schema without duplicate checking (for internal plan nodes
    /// that may legitimately carry same-named columns from two join inputs).
    pub fn new_unchecked(fields: Vec<Field>) -> Schema {
        Schema {
            fields: fields.into(),
        }
    }

    /// An empty schema (used by DDL results).
    pub fn empty() -> Schema {
        Schema { fields: Arc::from(vec![]) }
    }

    /// The fields, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The declared type of every column, in order.
    pub fn types(&self) -> Vec<DataType> {
        self.fields.iter().map(|f| f.data_type).collect()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at ordinal `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Find a column ordinal by case-insensitive name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let upper = name.to_ascii_uppercase();
        self.fields.iter().position(|f| f.name == upper)
    }

    /// Like [`Schema::index_of`] but returns a catalog error.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| DashError::not_found("column", name))
    }

    /// Project a subset of columns by ordinal into a new schema.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema::new_unchecked(indices.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields: Vec<Field> = self.fields.to_vec();
        fields.extend(right.fields.iter().cloned());
        Schema::new_unchecked(fields)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("amount", DataType::Decimal(10, 2)),
        ])
        .unwrap()
    }

    #[test]
    fn name_folding_and_lookup() {
        let s = schema();
        assert_eq!(s.index_of("Id"), Some(0));
        assert_eq!(s.index_of("NAME"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.resolve("missing").is_err());
    }

    #[test]
    fn duplicates_rejected() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int32),
            Field::new("A", DataType::Utf8),
        ]);
        assert!(matches!(r, Err(DashError::AlreadyExists { .. })));
    }

    #[test]
    fn project_and_join() {
        let s = schema();
        let p = s.project(&[2, 0]);
        assert_eq!(p.field(0).name, "AMOUNT");
        assert_eq!(p.field(1).name, "ID");
        let j = s.join(&p);
        assert_eq!(j.len(), 5);
    }

    #[test]
    fn display() {
        let s = Schema::new(vec![Field::not_null("id", DataType::Int64)]).unwrap();
        assert_eq!(s.to_string(), "(ID BIGINT NOT NULL)");
    }
}
