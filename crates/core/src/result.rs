//! Query results and rendering.

use dash_common::{Row, Schema};
use dash_exec::batch::Batch;
use dash_exec::stats::ExecStats;

/// What kind of statement produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    /// SELECT / VALUES / EXPLAIN — carries rows.
    Query,
    /// INSERT.
    Insert,
    /// UPDATE.
    Update,
    /// DELETE.
    Delete,
    /// CREATE / DROP / TRUNCATE / SET and friends.
    Ddl,
}

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Statement classification.
    pub kind: StatementKind,
    /// Result schema (empty for non-queries).
    pub schema: Schema,
    /// Result rows (empty for non-queries).
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub affected: u64,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl QueryResult {
    /// A query's rows, with the schema they came back under.
    pub fn query(batch: &Batch, stats: ExecStats) -> QueryResult {
        QueryResult {
            kind: StatementKind::Query,
            schema: batch.schema().clone(),
            rows: batch.to_rows(),
            affected: 0,
            stats,
        }
    }

    /// A DDL acknowledgement.
    pub fn ddl() -> QueryResult {
        QueryResult {
            kind: StatementKind::Ddl,
            schema: Schema::empty(),
            rows: Vec::new(),
            affected: 0,
            stats: ExecStats::default(),
        }
    }

    /// A DML acknowledgement.
    pub fn dml(kind: StatementKind, affected: u64) -> QueryResult {
        QueryResult {
            kind,
            schema: Schema::empty(),
            rows: Vec::new(),
            affected,
            stats: ExecStats::default(),
        }
    }

    /// Render the rows as an aligned text table (console output).
    pub fn to_table(&self) -> String {
        if self.schema.is_empty() {
            return format!("({} row(s) affected)\n", self.affected);
        }
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|d| d.render()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in headers.iter().enumerate() {
            out.push_str(&format!("| {:width$} ", h, width = widths[i]));
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("| {:width$} ", cell, width = widths[i]));
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out.push_str(&format!("({} row(s))\n", self.rows.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    #[test]
    fn table_rendering() {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ])
        .unwrap();
        let r = QueryResult {
            kind: StatementKind::Query,
            schema,
            rows: vec![row![1i64, "alice"], row![2i64, "b"]],
            affected: 0,
            stats: ExecStats::default(),
        };
        let t = r.to_table();
        assert!(t.contains("| ID | NAME  |"));
        assert!(t.contains("| 1  | alice |"));
        assert!(t.contains("(2 row(s))"));
    }

    #[test]
    fn dml_rendering() {
        let r = QueryResult::dml(StatementKind::Update, 7);
        assert_eq!(r.to_table(), "(7 row(s) affected)\n");
    }
}
