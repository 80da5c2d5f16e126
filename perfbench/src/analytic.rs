//! The three analytic workloads: the star schema loaded into an in-memory
//! engine, read-only statement lists, one to `nproc` clients.

use crate::gen::{self, Star, Stmt};
use crate::oracle::Checker;
use crate::run::{Client, Recorder};
use dash_core::{Database, HardwareSpec, Session};
use std::sync::Arc;
use std::time::Instant;

/// Which analytic workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanAgg,
    JoinSort,
    Streams,
}

/// A loaded database and what loading it cost.
pub struct Built {
    pub db: Arc<Database>,
    /// Engine time: create tables + `load_rows`, without row generation
    /// or the benchmark's own clone of the rows.
    pub engine_s: f64,
    /// `ColumnTable::load_rows` on `facts` alone.
    pub facts_load_s: f64,
    /// Encoded size of all three tables.
    pub compressed_bytes: u64,
    /// Sealed strides × columns: the pages a full scan of everything touches.
    pub data_pages: u64,
    /// Buffer-pool pages the engine was given.
    pub pool_pages: u64,
}

/// Pages (column strides) the star schema occupies once loaded.
fn data_pages(star: &Star) -> u64 {
    star.tables()
        .iter()
        .map(|t| (t.rows.len() / dash_storage::STRIDE * t.schema.len()) as u64)
        .sum()
}

/// Build the workload's database. `JoinSort` shrinks the buffer pool to a
/// tenth of the data's pages (the paper's data ≫ RAM regime); the others
/// keep the auto-configured pool, which holds everything.
pub fn build(star: &Star, kind: Kind) -> Result<Built, String> {
    let hw = HardwareSpec::detect();
    let pages = data_pages(star);
    let (db, pool_pages) = match kind {
        Kind::JoinSort => {
            let tenth = (pages / 10).max(1);
            (Database::with_pool_pages(hw, tenth as usize), tenth)
        }
        Kind::ScanAgg | Kind::Streams => {
            let db = Database::new();
            let auto = db.config().bufferpool_pages;
            (db, auto)
        }
    };
    let mut built = Built {
        db,
        engine_s: 0.0,
        facts_load_s: 0.0,
        compressed_bytes: 0,
        data_pages: pages,
        pool_pages,
    };
    for t in star.tables() {
        let rows = t.rows.clone();
        let start = Instant::now();
        let handle = built
            .db
            .catalog()
            .create_table(t.name, t.schema.clone(), None)
            .map_err(|e| format!("create {}: {e}", t.name))?;
        let load_start = Instant::now();
        handle
            .write()
            .load_rows(rows)
            .map_err(|e| format!("load {}: {e}", t.name))?;
        if t.name == "facts" {
            built.facts_load_s = load_start.elapsed().as_secs_f64();
        }
        built.engine_s += start.elapsed().as_secs_f64();
        built.compressed_bytes += handle.read().compressed_bytes() as u64;
    }
    Ok(built)
}

/// The statement lists, one per client.
pub fn statement_lists(kind: Kind, seed: u64, fact_rows: usize, nproc: usize) -> Vec<Vec<Stmt>> {
    match kind {
        Kind::ScanAgg => vec![gen::scan_agg_statements(seed, fact_rows, 4)],
        Kind::JoinSort => vec![gen::join_sort_statements(seed, fact_rows, 2)],
        Kind::Streams => (0..nproc)
            .map(|c| gen::stream_statements(seed, fact_rows, c, nproc))
            .collect(),
    }
}

/// One read-only client: a session and its list.
pub struct AnalyticClient {
    index: usize,
    session: Session,
    stmts: Vec<Stmt>,
    /// Row count each statement returned when it was verified.
    expect_rows: Vec<usize>,
}

impl AnalyticClient {
    /// Verify every statement of the list against its oracle, then keep the
    /// row counts as the timed rounds' cheap check.
    pub fn verified(
        db: &Arc<Database>,
        index: usize,
        stmts: Vec<Stmt>,
        checker: &Checker,
    ) -> Result<AnalyticClient, String> {
        let mut session = db.connect();
        let mut expect_rows = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            let rows = session
                .execute(&stmt.sql)
                .map_err(|e| format!("{e}\n  {}", stmt.sql))?
                .rows;
            expect_rows.push(rows.len());
            checker.check(stmt, rows)?;
        }
        Ok(AnalyticClient {
            index,
            session,
            stmts,
            expect_rows,
        })
    }

    pub fn statements(&self) -> &[Stmt] {
        &self.stmts
    }
}

impl Client for AnalyticClient {
    fn run_round(&mut self, _round: u64, rec: &mut Recorder) {
        for (i, stmt) in self.stmts.iter().enumerate() {
            let slot = (stmt.class, (self.index * self.stmts.len() + i) as u32);
            if let Some(result) = rec.execute(&mut self.session, slot, i, &stmt.sql) {
                if result.rows.len() != self.expect_rows[i] {
                    rec.wrong(format!(
                        "{} rows where the verified run returned {}\n  {}",
                        result.rows.len(),
                        self.expect_rows[i],
                        stmt.sql
                    ));
                }
            }
        }
    }
}
