//! Concurrent statement-mix harness: Test 2's mixed workload driven from N
//! sessions at once, under snapshot-isolated transactions.
//!
//! The paper's Test 2 ran the 250K-statement customer mix *concurrently*
//! with the analytic queries. This module reproduces that shape against a
//! single [`Database`]: each stream gets its own session, its own
//! work-table namespace (prefix), and executes batches of the mix inside
//! explicit `BEGIN`/`COMMIT` transactions, retrying on write-write
//! conflicts (SQLSTATE 40001) the way a DB2 application would.
//!
//! Every committed batch also increments two audit counters in a shared
//! `mix_audit` table — one row per stream plus one row contended by *all*
//! streams. Under snapshot isolation with first-writer-wins, the contended
//! counter is the classic lost-update detector: after the run its value
//! must equal the total number of committed batches, or an update was
//! lost. [`MixOutcome::lost_updates`] reports the discrepancy (zero on a
//! correct engine).

use crate::customer::{self, Statement};
use crate::spec::TableDef;
use dash_common::{DashError, Datum, Result};
use dash_core::{Database, Session};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the shared audit table the harness creates.
pub const AUDIT_TABLE: &str = "mix_audit";

/// Audit row id every stream contends on (per-stream rows use the stream
/// index, which is always >= 0).
pub const SHARED_AUDIT_ID: i64 = -1;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Number of concurrent streams (sessions/threads).
    pub streams: usize,
    /// Statements each stream executes.
    pub statements_per_stream: usize,
    /// Scale factor the base tables were generated at (keys in the mix
    /// reference `txn_id < scale`).
    pub scale: usize,
    /// Statements per transaction: each stream groups its statements into
    /// batches of this size and commits each batch atomically.
    pub batch: usize,
    /// How many times a conflicted batch is retried (with a fresh
    /// snapshot) before the stream gives up on it.
    pub max_retries: usize,
    /// When set (and the database is durable), a checkpointer thread runs
    /// `Database::checkpoint` at this interval for the whole run — the
    /// checkpoint-under-load leg: snapshot checkpoints must coexist with
    /// open transactions without losing a single audit increment.
    pub checkpoint_every: Option<Duration>,
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            streams: 4,
            statements_per_stream: 200,
            scale: 1000,
            batch: 8,
            max_retries: 64,
            checkpoint_every: None,
        }
    }
}

/// What one stream did.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Stream index.
    pub stream: usize,
    /// Statements attempted (including retried ones once per batch retry).
    pub statements: u64,
    /// Batches committed.
    pub commits: u64,
    /// 40001 conflicts hit (each one rolled the batch back for a retry).
    pub conflicts: u64,
    /// Batches abandoned after `max_retries` conflicts or an
    /// infrastructure error on BEGIN/COMMIT.
    pub abandoned: u64,
    /// Individual statement errors tolerated inside committed batches
    /// (e.g. work-table DDL replayed after a conflict retry).
    pub statement_errors: u64,
}

/// The harness result: per-stream counters plus the audit table contents
/// read back after all streams joined.
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// One entry per stream.
    pub per_stream: Vec<StreamStats>,
    /// `(id, hits)` rows of the audit table after the run.
    pub audit: Vec<(i64, i64)>,
    /// Snapshot checkpoints completed while the streams ran
    /// ([`MixConfig::checkpoint_every`]; zero when disabled).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (a dead log under chaos testing,
    /// never a refusal — snapshot checkpoints accept open transactions).
    pub checkpoint_errors: u64,
}

impl MixOutcome {
    /// Total committed batches across all streams.
    pub fn total_commits(&self) -> u64 {
        self.per_stream.iter().map(|s| s.commits).sum()
    }

    /// Total 40001 conflicts across all streams.
    pub fn total_conflicts(&self) -> u64 {
        self.per_stream.iter().map(|s| s.conflicts).sum()
    }

    /// The audit counter for one id, if present.
    pub fn audit_hits(&self, id: i64) -> Option<i64> {
        self.audit.iter().find(|(i, _)| *i == id).map(|(_, h)| *h)
    }

    /// Lost updates detected on the contended audit row: committed batches
    /// minus the shared counter's final value. Zero on a correct engine;
    /// positive means increments vanished (the lost-update anomaly),
    /// negative means phantom increments survived aborted transactions.
    pub fn lost_updates(&self) -> i64 {
        self.total_commits() as i64 - self.audit_hits(SHARED_AUDIT_ID).unwrap_or(0)
    }

    /// True when the shared counter and every per-stream counter match the
    /// commit counts exactly.
    pub fn is_consistent(&self) -> bool {
        self.lost_updates() == 0
            && self.per_stream.iter().all(|s| {
                self.audit_hits(s.stream as i64) == Some(s.commits as i64)
            })
    }
}

/// Render one datum as a SQL literal.
fn sql_literal(d: &Datum) -> String {
    match d {
        Datum::Null => "NULL".to_string(),
        Datum::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Datum::Date(_) => format!("DATE '{}'", d.render()),
        other => other.render(),
    }
}

/// Render a column definition for CREATE TABLE.
fn sql_type(dt: dash_common::types::DataType) -> &'static str {
    use dash_common::types::DataType;
    match dt {
        DataType::Bool => "BOOLEAN",
        DataType::Int16 => "SMALLINT",
        DataType::Int32 => "INTEGER",
        DataType::Int64 => "BIGINT",
        DataType::Float32 => "REAL",
        DataType::Float64 => "DOUBLE",
        DataType::Decimal(..) => "DECIMAL(18, 4)",
        DataType::Date => "DATE",
        DataType::Timestamp => "TIMESTAMP",
        DataType::Utf8 => "VARCHAR(64)",
    }
}

/// Load generated base tables through the SQL front-end — CREATE TABLE
/// plus transactional INSERT batches — so that on a durable database every
/// row is WAL-logged and survives crash recovery (unlike a direct
/// catalog-level bulk load, which bypasses the log).
pub fn load_base_tables(db: &Arc<Database>, tables: &[TableDef]) -> Result<()> {
    let mut session = db.connect();
    for t in tables {
        let cols: Vec<String> = t
            .schema
            .fields()
            .iter()
            .map(|f| {
                let null = if f.nullable { "" } else { " NOT NULL" };
                format!("{} {}{null}", f.name, sql_type(f.data_type))
            })
            .collect();
        session.execute(&format!("CREATE TABLE {} ({})", t.name, cols.join(", ")))?;
        for chunk in t.rows.chunks(512) {
            session.execute("BEGIN")?;
            for row in chunk {
                let vals: Vec<String> = row.0.iter().map(sql_literal).collect();
                session.execute(&format!(
                    "INSERT INTO {} VALUES ({})",
                    t.name,
                    vals.join(", ")
                ))?;
            }
            session.execute("COMMIT")?;
        }
    }
    session.close();
    Ok(())
}

/// Create (replacing if present) the audit table with the shared row and
/// one row per stream, all zeroed.
pub fn setup_audit(db: &Arc<Database>, streams: usize) -> Result<()> {
    let mut session = db.connect();
    session.execute(&format!("DROP TABLE IF EXISTS {AUDIT_TABLE}"))?;
    session.execute(&format!(
        "CREATE TABLE {AUDIT_TABLE} (id BIGINT NOT NULL, hits BIGINT NOT NULL)"
    ))?;
    session.execute("BEGIN")?;
    session.execute(&format!(
        "INSERT INTO {AUDIT_TABLE} VALUES ({SHARED_AUDIT_ID}, 0)"
    ))?;
    for s in 0..streams {
        session.execute(&format!("INSERT INTO {AUDIT_TABLE} VALUES ({s}, 0)"))?;
    }
    session.execute("COMMIT")?;
    session.close();
    Ok(())
}

/// Run one batch as a transaction. Returns the number of tolerated
/// statement errors, or the error that rolled the transaction back
/// (a 40001 conflict, or an infrastructure failure on BEGIN/COMMIT).
fn run_batch(session: &mut Session, stream: usize, batch: &[Statement]) -> Result<u64> {
    session.execute("BEGIN")?;
    let mut tolerated = 0u64;
    for st in batch {
        match session.execute(&st.sql) {
            Ok(_) => {}
            // A conflict already rolled the whole transaction back.
            Err(e) if e.class() == "40001" => return Err(e),
            // Anything else was undone at statement level (e.g. CREATE of
            // a work table that survived a prior conflicted attempt —
            // DDL is non-transactional, as in DB2). Keep going.
            Err(_) => tolerated += 1,
        }
    }
    session.execute(&format!(
        "UPDATE {AUDIT_TABLE} SET hits = hits + 1 WHERE id = {SHARED_AUDIT_ID}"
    ))?;
    session.execute(&format!(
        "UPDATE {AUDIT_TABLE} SET hits = hits + 1 WHERE id = {stream}"
    ))?;
    session.execute("COMMIT")?;
    Ok(tolerated)
}

/// Run `attempt` until it returns anything but a write-write conflict
/// (SQLSTATE 40001, which first-writer-wins hands the loser), retrying a
/// conflicted attempt — with a fresh snapshot — at most `max_retries`
/// times. The loser yields before it retries: the winner may be midway
/// through stamping its commit, and until it publishes no snapshot can get
/// past the conflict. Returns the last outcome and the number of conflicts
/// hit.
pub fn retry_conflicts<T>(max_retries: usize, mut attempt: impl FnMut() -> Result<T>) -> (Result<T>, u64) {
    let mut conflicts = 0u64;
    loop {
        let outcome = attempt();
        match &outcome {
            Err(e) if e.class() == "40001" => {
                conflicts += 1;
                if conflicts > max_retries as u64 {
                    return (outcome, conflicts);
                }
                std::thread::yield_now();
            }
            _ => return (outcome, conflicts),
        }
    }
}

/// Drive one stream's statements through its own session.
fn run_stream(
    db: &Arc<Database>,
    stream: usize,
    statements: &[Statement],
    cfg: &MixConfig,
) -> StreamStats {
    let mut session = db.connect();
    let mut stats = StreamStats {
        stream,
        ..StreamStats::default()
    };
    for batch in statements.chunks(cfg.batch.max(1)) {
        let (outcome, conflicts) = retry_conflicts(cfg.max_retries, || {
            stats.statements += batch.len() as u64;
            let outcome = run_batch(&mut session, stream, batch);
            // On a conflict the engine rolled the transaction back for us:
            // the session is clean for the retry's fresh snapshot.
            debug_assert!(!matches!(&outcome, Err(e) if e.class() == "40001") || !session.in_transaction());
            outcome
        });
        stats.conflicts += conflicts;
        match outcome {
            Ok(tolerated) => {
                stats.commits += 1;
                stats.statement_errors += tolerated;
            }
            Err(_) => {
                // Retries exhausted, or a BEGIN/COMMIT infrastructure
                // failure: make sure no transaction lingers, then drop the
                // batch.
                if session.in_transaction() {
                    let _ = session.execute("ROLLBACK");
                }
                stats.abandoned += 1;
            }
        }
    }
    session.close();
    stats
}

/// Run the customer statement mix from `cfg.streams` concurrent sessions
/// against one database.
///
/// The caller loads the base tables first (e.g. [`load_base_tables`] with
/// [`customer::generate`]'s tables). The harness creates the audit table,
/// spawns one thread per stream — each with its own work-table prefix so
/// streams churn disjoint DDL namespaces, exactly as the paper's customer
/// streams did — and joins them. Shared-table traffic (the `txn` fact
/// table updates/deletes and the contended audit row) is where conflicts
/// arise and retries exercise first-writer-wins.
pub fn run_concurrent_mix(db: &Arc<Database>, cfg: &MixConfig) -> Result<MixOutcome> {
    setup_audit(db, cfg.streams)?;
    let queries = customer::analytic_query_set();
    let n_accts = (cfg.scale / 50).max(10);
    let streams: Vec<Vec<Statement>> = (0..cfg.streams)
        .map(|s| {
            customer::statement_stream(
                &format!("s{s}w"),
                cfg.scale,
                n_accts,
                cfg.statements_per_stream,
                &queries,
            )
        })
        .collect();

    let mut per_stream: Vec<StreamStats> = Vec::with_capacity(cfg.streams);
    let checkpoints = AtomicU64::new(0);
    let checkpoint_errors = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The checkpoint-under-load leg: snapshot checkpoints run
        // concurrently with every stream, open transactions included.
        let checkpointer = cfg
            .checkpoint_every
            .filter(|_| db.is_durable())
            .map(|every| {
                let (done, ck, ce) = (&done, &checkpoints, &checkpoint_errors);
                scope.spawn(move || {
                    while !done.load(Ordering::SeqCst) {
                        match db.checkpoint() {
                            Ok(_) => ck.fetch_add(1, Ordering::SeqCst),
                            Err(_) => ce.fetch_add(1, Ordering::SeqCst),
                        };
                        std::thread::sleep(every);
                    }
                })
            });
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(idx, stmts)| scope.spawn(move || run_stream(db, idx, stmts, cfg)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(stats) => per_stream.push(stats),
                Err(_) => per_stream.push(StreamStats::default()),
            }
        }
        done.store(true, Ordering::SeqCst);
        if let Some(h) = checkpointer {
            let _ = h.join();
        }
    });
    per_stream.sort_by_key(|s| s.stream);

    let mut session = db.connect();
    let rows = session.query(&format!("SELECT id, hits FROM {AUDIT_TABLE}"))?;
    session.close();
    let audit = rows
        .iter()
        .map(|r| {
            let id = r.get(0).as_int().ok_or_else(|| {
                DashError::internal("audit id column is not an integer")
            })?;
            let hits = r.get(1).as_int().ok_or_else(|| {
                DashError::internal("audit hits column is not an integer")
            })?;
            Ok((id, hits))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(MixOutcome {
        per_stream,
        audit,
        checkpoints: checkpoints.load(Ordering::SeqCst),
        checkpoint_errors: checkpoint_errors.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_core::HardwareSpec;

    fn small_db() -> Arc<Database> {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let w = customer::generate(200, 0);
        load_base_tables(&db, &w.tables).unwrap();
        db
    }

    #[test]
    fn single_stream_mix_commits_cleanly() {
        let db = small_db();
        let cfg = MixConfig {
            streams: 1,
            statements_per_stream: 120,
            scale: 200,
            batch: 6,
            max_retries: 16,
            checkpoint_every: None,
        };
        let out = run_concurrent_mix(&db, &cfg).unwrap();
        assert_eq!(out.per_stream.len(), 1);
        assert!(out.total_commits() >= 20, "{:?}", out.per_stream);
        assert_eq!(out.lost_updates(), 0);
        assert!(out.is_consistent());
    }

    #[test]
    fn concurrent_streams_preserve_every_update() {
        let db = small_db();
        let cfg = MixConfig {
            streams: 4,
            statements_per_stream: 80,
            scale: 200,
            batch: 4,
            max_retries: 64,
            checkpoint_every: None,
        };
        let out = run_concurrent_mix(&db, &cfg).unwrap();
        assert_eq!(out.per_stream.len(), 4);
        // Every committed batch's audit increments survived: the contended
        // counter equals total commits, per-stream counters match exactly.
        assert_eq!(out.lost_updates(), 0, "audit: {:?}", out.audit);
        assert!(out.is_consistent(), "{:?} vs {:?}", out.per_stream, out.audit);
        // With 4 streams contending on one audit row, first-writer-wins
        // must have fired at least once.
        assert!(out.total_commits() > 0);
    }

    #[test]
    fn audit_table_resets_between_runs() {
        let db = small_db();
        let cfg = MixConfig {
            streams: 2,
            statements_per_stream: 20,
            scale: 200,
            batch: 5,
            max_retries: 32,
            checkpoint_every: None,
        };
        let a = run_concurrent_mix(&db, &cfg).unwrap();
        let b = run_concurrent_mix(&db, &cfg).unwrap();
        // Second run starts from a fresh audit table.
        assert_eq!(a.audit.len(), 3);
        assert_eq!(b.audit.len(), 3);
        assert_eq!(b.lost_updates(), 0);
    }
}
