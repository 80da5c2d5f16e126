//! `txn_mix.durable`: writes beside reads on a durable engine.
//!
//! Clients on a database opened with `open_with`, statement classes in the
//! paper's customer-mix proportions, explicit `BEGIN … COMMIT` around most
//! of the DML, one `checkpoint()` per round. Every client works on private
//! tables with private keys, so snapshot isolation never has a legitimate
//! conflict and the expected number of failed statements is zero.
//!
//! The mix runs in two shapes. The gated run ([`GATED`]) logs, checkpoints
//! and recovers, but does not fsync at commit and has one client. Both
//! choices keep the host out of the numbers. This sandbox's fdatasync
//! drifts between ~90 and ~200 us for minutes at a time, and at one sync per
//! four statements it, not the engine, would set every end-to-end number.
//! With two clients every COMMIT sleeps out the 100 us group-commit window
//! (nine tenths of its 0.17 ms), and how fast this VM wakes from such a
//! sleep also drifts with the host: the 5 us statements that follow a
//! wake-up read 5.1 us or 6.6 us for minutes at a time, which moved
//! `lat_geomean_ms` by a quarter between sets of runs of the same code.
//! A short run with `SyncPolicy::Commit` and one client per core
//! ([`FSYNC_PROBE`]) supplies the per-layer fsync, group-commit and
//! checkpoint numbers, which are reported but not gated.
//!
//! A round's work tables live for two rounds: round `r` creates and fills
//! its own tables and drops round `r - 1`'s. The database therefore starts
//! every round at the same size, and the last round's tables are still
//! there to be checked after the reopen.

use crate::run::{Client, Recorder};
use dash_common::faults::FaultRegistry;
use dash_common::{Datum, Row};
use dash_core::{Database, HardwareSpec, Session};
use dash_storage::wal::SyncPolicy;
use dash_workloads::gen::rng;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Statements per unit of the mix, by class: the customer mix's
/// INSERT 33 / UPDATE 21 / DROP 18 / SELECT 17 / CREATE 10 / DELETE 1 with
/// DROP capped at the 10 tables a unit creates and the other 8 going to
/// INSERT.
const CREATE: usize = 10;
const DROP: usize = 10;
const INSERT: usize = 41;
const UPDATE: usize = 21;
const SELECT: usize = 17;
const DELETE: usize = 1;
/// One way of running the mix.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Mix units (100 statements + BEGIN/COMMIT) per client per round.
    pub units: usize,
    pub sync: SyncPolicy,
    /// One client per core, or a single client.
    pub concurrent: bool,
}

impl Shape {
    pub fn clients(&self, nproc: usize) -> usize {
        if self.concurrent {
            nproc
        } else {
            1
        }
    }
}

/// The run the end-to-end metrics come from: rounds of about a third of a second.
pub const GATED: Shape = Shape {
    units: 400,
    sync: SyncPolicy::Never,
    concurrent: false,
};

/// The run the fsync-path layer metrics come from.
pub const FSYNC_PROBE: Shape = Shape {
    units: 10,
    sync: SyncPolicy::Commit,
    concurrent: true,
};
/// Chance that a DML statement outside a transaction opens one. With
/// [`TXN_DML`] this puts ~9 of 10 DML statements inside an explicit
/// transaction; the rest autocommit.
const EXPLICIT_TXN_SHARE: f64 = 0.5;
/// DML statements an explicit transaction carries. SELECT, CREATE and DROP
/// statements that fall inside it run there too (DDL takes effect at once).
const TXN_DML: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Create,
    Drop,
    Insert,
    Update,
    Select,
    Delete,
}

/// What an acknowledged statement does to the model of the database.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    Begin,
    Commit,
    Create {
        table: String,
    },
    Drop {
        table: String,
    },
    Insert {
        table: String,
        k: i64,
        v: f64,
        note: String,
    },
    /// `v = v + 1.0`.
    Update {
        table: String,
        k: i64,
    },
    Delete {
        table: String,
        k: i64,
    },
    /// A read with the rows it must return.
    Select {
        expect: Vec<Row>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct TxnStmt {
    pub class: &'static str,
    pub sql: String,
    pub effect: Effect,
    /// Raw bytes of the row version the statement writes (8 per number +
    /// the note's length); 0 for statements that write no row.
    pub row_bytes: u64,
}

/// Rows of one work table: `k → (v, note)`.
type TableRows = BTreeMap<i64, (f64, String)>;

fn table_name(client: usize, round: u64, i: usize) -> String {
    format!("w{client}_{round}_{i}")
}

/// One client's statement list for one round: a pure function of its
/// arguments. `drop_previous` is false only for the set-up round, whose
/// DROP share goes to INSERT because there is nothing to drop yet.
pub fn round_statements(
    seed: u64,
    client: usize,
    round: u64,
    drop_previous: bool,
    units: usize,
) -> Vec<TxnStmt> {
    let mut r = rng(seed ^ 0x5458_4e00 ^ ((client as u64) << 40) ^ round.wrapping_mul(0x9E37_79B9));
    let mut kinds = Vec::with_capacity(units * 100);
    let (drops, inserts) = if drop_previous {
        (DROP, INSERT)
    } else {
        (0, INSERT + DROP)
    };
    for (kind, n) in [
        (Kind::Create, CREATE),
        (Kind::Drop, drops),
        (Kind::Insert, inserts),
        (Kind::Update, UPDATE),
        (Kind::Select, SELECT),
        (Kind::Delete, DELETE),
    ] {
        kinds.extend(std::iter::repeat_n(kind, n * units));
    }
    crate::gen::shuffle(&mut kinds, &mut r);
    // Reads and updates need a row to hit: lead with one table and one row.
    for (slot, kind) in [Kind::Create, Kind::Insert].into_iter().enumerate() {
        let at = kinds[slot..]
            .iter()
            .position(|k| *k == kind)
            .expect("mix has the kind")
            + slot;
        kinds.swap(slot, at);
    }

    let mut gen = RoundGen {
        client,
        round,
        tables: Vec::new(),
        created: 0,
        dropped: 0,
        next_key: 0,
        open_txn_dml: None,
        out: Vec::with_capacity(kinds.len() + kinds.len() / 4),
    };
    for kind in kinds {
        gen.emit(kind, &mut r);
    }
    if gen.open_txn_dml.is_some() {
        gen.push("commit", "COMMIT".into(), Effect::Commit);
    }
    gen.out
}

/// The generator's own picture of this round's tables, so that every
/// UPDATE, DELETE and SELECT names a key that exists.
struct RoundGen {
    client: usize,
    round: u64,
    tables: Vec<(String, TableRows)>,
    created: usize,
    dropped: usize,
    next_key: i64,
    /// DML statements left in the open explicit transaction.
    open_txn_dml: Option<usize>,
    out: Vec<TxnStmt>,
}

impl RoundGen {
    fn push(&mut self, class: &'static str, sql: String, effect: Effect) {
        self.out.push(TxnStmt {
            class,
            sql,
            effect,
            row_bytes: 0,
        });
    }

    /// Push a statement that writes one version of a row with `note`.
    fn push_write(&mut self, class: &'static str, sql: String, effect: Effect, note_len: usize) {
        self.push(class, sql, effect);
        self.out.last_mut().expect("just pushed").row_bytes = 16 + note_len as u64;
    }

    /// A table with at least `min_rows` rows, if any: the first such at or
    /// after a random position, wrapping round.
    fn pick(&self, r: &mut StdRng, min_rows: usize) -> Option<usize> {
        let n = self.tables.len();
        let from = r.gen_range(0..n.max(1));
        (0..n)
            .map(|i| (from + i) % n)
            .find(|&i| self.tables[i].1.len() >= min_rows)
    }

    fn pick_key(&self, r: &mut StdRng, t: usize) -> i64 {
        let rows = &self.tables[t].1;
        *rows
            .keys()
            .nth(r.gen_range(0..rows.len()))
            .expect("picked table has rows")
    }

    fn emit(&mut self, kind: Kind, r: &mut StdRng) {
        let is_dml = matches!(kind, Kind::Insert | Kind::Update | Kind::Delete);
        if is_dml && self.open_txn_dml.is_none() && r.gen_bool(EXPLICIT_TXN_SHARE) {
            self.push("begin", "BEGIN".into(), Effect::Begin);
            self.open_txn_dml = Some(TXN_DML);
        }
        match kind {
            Kind::Create => {
                let table = table_name(self.client, self.round, self.created);
                self.created += 1;
                self.push(
                    "create",
                    format!("CREATE TABLE {table} (k BIGINT NOT NULL, v DOUBLE, note VARCHAR(20))"),
                    Effect::Create {
                        table: table.clone(),
                    },
                );
                self.tables.push((table, TableRows::new()));
            }
            Kind::Drop => {
                let table = table_name(self.client, self.round - 1, self.dropped);
                self.dropped += 1;
                self.push(
                    "drop",
                    format!("DROP TABLE {table}"),
                    Effect::Drop { table },
                );
            }
            Kind::Insert => self.insert(r),
            Kind::Update => match self.pick(r, 1) {
                Some(t) => {
                    let k = self.pick_key(r, t);
                    let (table, rows) = &mut self.tables[t];
                    let row = rows.get_mut(&k).expect("picked key");
                    row.0 += 1.0;
                    let note_len = row.1.len();
                    let (sql, effect) = (
                        format!("UPDATE {table} SET v = v + 1.0 WHERE k = {k}"),
                        Effect::Update {
                            table: table.clone(),
                            k,
                        },
                    );
                    self.push_write("update", sql, effect, note_len);
                }
                None => self.insert(r),
            },
            // Keep one row behind so later reads still have a target.
            Kind::Delete => match self.pick(r, 2) {
                Some(t) => {
                    let k = self.pick_key(r, t);
                    let (table, rows) = &mut self.tables[t];
                    rows.remove(&k);
                    let (sql, effect) = (
                        format!("DELETE FROM {table} WHERE k = {k}"),
                        Effect::Delete {
                            table: table.clone(),
                            k,
                        },
                    );
                    self.push("delete", sql, effect);
                }
                None => self.insert(r),
            },
            Kind::Select => {
                let t = self
                    .pick(r, 1)
                    .expect("the round leads with a table and a row");
                let (table, rows) = &self.tables[t];
                let (sql, expect) = if r.gen_bool(0.7) {
                    let k = self.pick_key(r, t);
                    let (v, note) = &rows[&k];
                    (
                        format!("SELECT k, v, note FROM {table} WHERE k = {k}"),
                        vec![Row::new(vec![
                            Datum::Int(k),
                            Datum::Float(*v),
                            Datum::str(note.as_str()),
                        ])],
                    )
                } else {
                    let sum: f64 = rows.values().map(|(v, _)| v).sum();
                    (
                        format!("SELECT COUNT(*), SUM(v) FROM {table}"),
                        vec![Row::new(vec![
                            Datum::Int(rows.len() as i64),
                            Datum::Float(sum),
                        ])],
                    )
                };
                self.push("select", sql, Effect::Select { expect });
            }
        }
        if is_dml {
            if let Some(left) = self.open_txn_dml.as_mut() {
                *left -= 1;
                if *left == 0 {
                    self.open_txn_dml = None;
                    self.push("commit", "COMMIT".into(), Effect::Commit);
                }
            }
        }
    }

    fn insert(&mut self, r: &mut StdRng) {
        let t = self.pick(r, 0).expect("the round leads with a table");
        let k = self.next_key;
        self.next_key += 1;
        // Halves stay exact under `v + 1.0` and under SUM in any order.
        let v = r.gen_range(0i64..2000) as f64 * 0.5;
        let note = format!("n{}", r.gen_range(0..100));
        let note_len = note.len();
        let (table, rows) = &mut self.tables[t];
        rows.insert(k, (v, note.clone()));
        let (sql, effect) = (
            format!("INSERT INTO {table} VALUES ({k}, {v:?}, '{note}')"),
            Effect::Insert {
                table: table.clone(),
                k,
                v,
                note,
            },
        );
        self.push_write("insert", sql, effect, note_len);
    }
}

/// The acknowledged state: every table and row whose statement (or whose
/// COMMIT) returned `Ok`.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct Model {
    tables: BTreeMap<String, TableRows>,
}

impl Model {
    fn apply(&mut self, effect: &Effect) {
        match effect {
            Effect::Create { table } => {
                self.tables.insert(table.clone(), TableRows::new());
            }
            Effect::Drop { table } => {
                self.tables.remove(table);
            }
            Effect::Insert { table, k, v, note } => {
                if let Some(rows) = self.tables.get_mut(table) {
                    rows.insert(*k, (*v, note.clone()));
                }
            }
            Effect::Update { table, k } => {
                if let Some(row) = self.tables.get_mut(table).and_then(|rows| rows.get_mut(k)) {
                    row.0 += 1.0;
                }
            }
            Effect::Delete { table, k } => {
                if let Some(rows) = self.tables.get_mut(table) {
                    rows.remove(k);
                }
            }
            Effect::Begin | Effect::Commit | Effect::Select { .. } => {}
        }
    }

    pub fn merge(&mut self, other: Model) {
        self.tables.extend(other.tables);
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// Execute one client's list, feeding acknowledged effects to `model`.
/// Effects inside an explicit transaction wait for its COMMIT. Returns the
/// raw bytes of the row versions the list's successful statements wrote.
fn run_list(
    session: &mut Session,
    stmts: &[TxnStmt],
    model: &mut Model,
    rec: &mut Recorder,
) -> u64 {
    let mut written = 0;
    let mut pending: Option<Vec<&Effect>> = None;
    let mut skip_to_commit = false;
    for (i, stmt) in stmts.iter().enumerate() {
        if skip_to_commit {
            // The transaction was rolled back after a failure: its
            // remaining statements did not run and count as failed.
            rec.attempted += 1;
            rec.failed += 1;
            skip_to_commit = stmt.effect != Effect::Commit;
            continue;
        }
        let Some(result) = rec.execute(session, (stmt.class, 0), i, &stmt.sql) else {
            if pending.take().is_some() && stmt.effect != Effect::Commit {
                let _ = session.execute("ROLLBACK");
                skip_to_commit = true;
            }
            continue;
        };
        written += stmt.row_bytes;
        match &stmt.effect {
            Effect::Begin => pending = Some(Vec::new()),
            Effect::Commit => {
                for effect in pending.take().unwrap_or_default() {
                    model.apply(effect);
                }
            }
            Effect::Select { expect } => {
                if result.rows != *expect {
                    rec.wrong(format!(
                        "expected {expect:?}, got {:?}\n  {}",
                        result.rows, stmt.sql
                    ));
                }
            }
            // DDL is not transactional: it holds from its own return.
            effect @ (Effect::Create { .. } | Effect::Drop { .. }) => model.apply(effect),
            effect => {
                if result.affected != 1 {
                    rec.wrong(format!(
                        "{} rows affected, expected 1\n  {}",
                        result.affected, stmt.sql
                    ));
                }
                match pending.as_mut() {
                    Some(p) => p.push(effect),
                    None => model.apply(effect),
                }
            }
        }
    }
    written
}

/// One read-write client.
pub struct TxnClient {
    seed: u64,
    index: usize,
    units: usize,
    session: Session,
    pub model: Model,
    /// The last round's list, kept for the layer replay.
    pub last_list: Vec<TxnStmt>,
    /// Raw bytes of every row version written so far.
    pub written_bytes: u64,
}

impl TxnClient {
    pub fn new(
        db: &Arc<Database>,
        seed: u64,
        index: usize,
        units: usize,
        model: Model,
    ) -> TxnClient {
        TxnClient {
            seed,
            index,
            units,
            session: db.connect(),
            model,
            last_list: Vec::new(),
            written_bytes: 0,
        }
    }
}

impl Client for TxnClient {
    fn prepare(&mut self, round: u64) {
        self.last_list = round_statements(self.seed, self.index, round, true, self.units);
    }

    fn run_round(&mut self, _round: u64, rec: &mut Recorder) {
        self.written_bytes += run_list(&mut self.session, &self.last_list, &mut self.model, rec);
    }
}

/// A durable database holding round 0's tables, and what building it cost.
pub struct Built {
    pub db: Arc<Database>,
    /// One acknowledged model per client.
    pub models: Vec<Model>,
    /// Engine time: open, round 0 through SQL, checkpoint, close, reopen.
    pub engine_s: f64,
}

pub fn open(dir: &Path, sync: SyncPolicy) -> Result<Arc<Database>, String> {
    Database::open_with(dir, HardwareSpec::detect(), sync, FaultRegistry::new())
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Build the workload's database in a fresh `dir`: round 0 (no drops) for
/// every client, a checkpoint, and a reopen so the run starts from what
/// recovery produces.
pub fn build(dir: &Path, seed: u64, clients: usize, shape: Shape) -> Result<Built, String> {
    let _ = std::fs::remove_dir_all(dir);
    let lists: Vec<Vec<TxnStmt>> = (0..clients)
        .map(|c| round_statements(seed, c, 0, false, shape.units))
        .collect();
    let start = Instant::now();
    let db = open(dir, shape.sync)?;
    let mut models = Vec::with_capacity(clients);
    let mut session = db.connect();
    for list in &lists {
        let mut model = Model::default();
        let mut rec = Recorder::untraced();
        run_list(&mut session, list, &mut model, &mut rec);
        if let Some(e) = rec.errors.first() {
            return Err(format!("set-up statement failed: {e}"));
        }
        models.push(model);
    }
    session.close();
    db.checkpoint()
        .map_err(|e| format!("set-up checkpoint: {e}"))?;
    drop(db);
    let db = open(dir, shape.sync)?;
    Ok(Built {
        db,
        models,
        engine_s: start.elapsed().as_secs_f64(),
    })
}

/// Reopen the database from its directory and check acked ⊆ recovered:
/// every table of the model exists with exactly the model's rows, and no
/// dropped work table came back. Returns the reopen time.
pub fn reopen_and_verify(dir: &Path, sync: SyncPolicy, model: &Model) -> Result<f64, String> {
    let start = Instant::now();
    let db = open(dir, sync)?;
    let recover_s = start.elapsed().as_secs_f64();
    let mut session = db.connect();
    for (table, rows) in &model.tables {
        let sql = format!("SELECT k, v, note FROM {table}");
        let mut got = session
            .query(&sql)
            .map_err(|e| format!("after reopen: {e}\n  {sql}"))?;
        got.sort();
        let want: Vec<Row> = rows
            .iter()
            .map(|(k, (v, note))| {
                Row::new(vec![
                    Datum::Int(*k),
                    Datum::Float(*v),
                    Datum::str(note.as_str()),
                ])
            })
            .collect();
        if got != want {
            return Err(format!(
                "after reopen {table} holds {} rows, the acknowledged commits say {}\n  {sql}",
                got.len(),
                want.len()
            ));
        }
    }
    let recovered: Vec<String> = db
        .catalog()
        .table_names()
        .into_iter()
        .map(|n| n.to_ascii_lowercase())
        .filter(|n| !model.tables.contains_key(n))
        .collect();
    if !recovered.is_empty() {
        return Err(format!(
            "after reopen, dropped tables are back: {recovered:?}"
        ));
    }
    Ok(recover_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sql_and_other_seed_other_sql() {
        let a = round_statements(7, 1, 3, true, 2);
        assert_eq!(a, round_statements(7, 1, 3, true, 2));
        assert_ne!(a, round_statements(8, 1, 3, true, 2));
        assert_ne!(a, round_statements(7, 0, 3, true, 2));
    }

    #[test]
    fn mix_proportions_hold_and_transactions_close() {
        const UNITS: usize = 3;
        let list = round_statements(1, 0, 2, true, UNITS);
        let count = |class: &str| list.iter().filter(|s| s.class == class).count();
        assert_eq!(count("create"), CREATE * UNITS);
        assert_eq!(count("drop"), DROP * UNITS);
        assert_eq!(count("select"), SELECT * UNITS);
        // A DELETE or UPDATE with no target turns into an INSERT.
        assert_eq!(
            count("insert") + count("update") + count("delete"),
            (INSERT + UPDATE + DELETE) * UNITS
        );
        assert_eq!(count("begin"), count("commit"));
        assert!(count("begin") > 0);
        // The set-up round drops nothing.
        assert!(round_statements(1, 0, 0, false, UNITS)
            .iter()
            .all(|s| s.class != "drop"));
    }
}
