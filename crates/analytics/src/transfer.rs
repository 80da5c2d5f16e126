//! The database ↔ analytics data path (Figures 6 & 7).
//!
//! "Each Spark Worker fetches the data collocated to a local shard ...
//! Per default a socket communication is used between the database process
//! and the Spark process. ... To optimize the transfer an additional where
//! clause could be pushed to the database to transfer only the data really
//! needed."
//!
//! [`read_table`] is that JDBC-style interface: a worker reads a table
//! (optionally pushing a WHERE clause down to the engine) and receives a
//! [`Dataset`]. The simulated transfer cost model separates *collocated*
//! (local socket) from *remote* (cluster network) fetches so the
//! integration benchmark can show why collocation preserves the MPP
//! scalability curve.

use crate::dataset::Dataset;
use dash_common::{Result, Row};
use dash_core::Database;
use std::sync::Arc;

/// Where the worker sits relative to the shard it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Worker on the same host as the shard: loopback socket (~8 GB/s,
    /// negligible latency).
    Collocated,
    /// Worker on a different host: cluster network (~1.1 GB/s effective
    /// 10 GbE plus per-fetch round trips).
    Remote,
}

/// Measured (and simulated) transfer characteristics of one fetch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// Rows shipped to the worker.
    pub rows: u64,
    /// Approximate bytes shipped.
    pub bytes: u64,
    /// Simulated transfer time, µs.
    pub simulated_us: f64,
    /// Whether a predicate was pushed down.
    pub pushdown: bool,
    /// Mode used.
    pub mode: TransferMode,
}

impl TransferMode {
    fn simulate_us(self, bytes: u64) -> f64 {
        match self {
            // ~8 GB/s loopback, 20 µs setup.
            TransferMode::Collocated => 20.0 + bytes as f64 / 8000.0,
            // ~1.1 GB/s effective, 500 µs of round trips.
            TransferMode::Remote => 500.0 + bytes as f64 / 1100.0,
        }
    }
}

/// Fetch `columns` of `table` from a shard engine into a `partitions`-way
/// dataset, optionally pushing a WHERE clause into the engine ("to
/// transfer only the data really needed").
pub fn read_table(
    db: &Arc<Database>,
    table: &str,
    columns: &[&str],
    where_clause: Option<&str>,
    mode: TransferMode,
    partitions: usize,
) -> Result<(Dataset, TransferStats)> {
    let mut session = db.connect();
    let cols = if columns.is_empty() {
        "*".to_string()
    } else {
        columns.join(", ")
    };
    let sql = match where_clause {
        Some(w) => format!("SELECT {cols} FROM {table} WHERE {w}"),
        None => format!("SELECT {cols} FROM {table}"),
    };
    let result = session.execute(&sql)?;
    let bytes: u64 = result
        .rows
        .iter()
        .map(|r| r.values().iter().map(|d| d.approx_size() as u64).sum::<u64>())
        .sum();
    let stats = TransferStats {
        rows: result.rows.len() as u64,
        bytes,
        simulated_us: mode.simulate_us(bytes),
        pushdown: where_clause.is_some(),
        mode,
    };
    Ok((
        Dataset::from_rows(result.schema, result.rows, partitions),
        stats,
    ))
}

/// Fetch without pushdown and filter worker-side — the anti-pattern the
/// pushdown exists to avoid; used by the ablation benchmark.
pub fn read_table_then_filter(
    db: &Arc<Database>,
    table: &str,
    columns: &[&str],
    worker_filter: impl Fn(&Row) -> bool + Sync,
    mode: TransferMode,
    partitions: usize,
) -> Result<(Dataset, TransferStats)> {
    let (full, stats) = read_table(db, table, columns, None, mode, partitions)?;
    Ok((full.filter(worker_filter)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::HardwareSpec;

    fn shard_with_data(rows: usize) -> Arc<Database> {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut s = db.connect();
        s.execute("CREATE TABLE m (id BIGINT, grp INT, v DOUBLE)").unwrap();
        for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({}, {}, {})", i, i % 5, (i % 100) as f64 / 10.0))
                .collect();
            s.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
                .unwrap();
        }
        db
    }

    #[test]
    fn pushdown_reduces_transfer() {
        let db = shard_with_data(2000);
        let (full, full_stats) =
            read_table(&db, "m", &["id", "v"], None, TransferMode::Collocated, 4).unwrap();
        let (sel, sel_stats) = read_table(
            &db,
            "m",
            &["id", "v"],
            Some("grp = 0"),
            TransferMode::Collocated,
            4,
        )
        .unwrap();
        assert_eq!(full.count(), 2000);
        assert_eq!(sel.count(), 400);
        assert!(sel_stats.pushdown);
        assert!(
            sel_stats.bytes * 4 < full_stats.bytes,
            "pushdown should cut bytes ~5x: {} vs {}",
            sel_stats.bytes,
            full_stats.bytes
        );
    }

    #[test]
    fn collocated_beats_remote() {
        let db = shard_with_data(1000);
        let (_, local) =
            read_table(&db, "m", &[], None, TransferMode::Collocated, 2).unwrap();
        let (_, remote) = read_table(&db, "m", &[], None, TransferMode::Remote, 2).unwrap();
        assert_eq!(local.rows, remote.rows);
        assert!(
            remote.simulated_us > local.simulated_us * 3.0,
            "remote {} vs local {}",
            remote.simulated_us,
            local.simulated_us
        );
    }

    #[test]
    fn worker_side_filter_matches_pushdown_results() {
        let db = shard_with_data(500);
        let (pushed, _) = read_table(
            &db,
            "m",
            &["id"],
            Some("grp = 1"),
            TransferMode::Collocated,
            2,
        )
        .unwrap();
        let (filtered, stats) = read_table_then_filter(
            &db,
            "m",
            &["id", "grp"],
            |r| r.get(1).as_int() == Some(1),
            TransferMode::Collocated,
            2,
        )
        .unwrap();
        assert_eq!(pushed.count(), filtered.count());
        // But the no-pushdown path paid for the full table.
        assert_eq!(stats.rows, 500);
    }
}
