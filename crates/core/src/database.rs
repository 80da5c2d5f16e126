//! The Database and Session objects — the embedded equivalent of
//! connecting to dashDB Local.

use crate::autoconf::{AutoConfig, EnvConfig, HardwareSpec};
use crate::catalog::Catalog;
use crate::monitor::Monitor;
use crate::result::{QueryResult, StatementKind};
use crate::txn::{
    CommitOutcome, CommitRequest, GroupCommitQueue, Transaction, TxnManager, WriteKind, WriteOp,
};
use crate::wlm::WorkloadManager;
use dash_common::dialect::Dialect;
use dash_common::faults::{FaultAction, FaultRegistry, CKPT_CAPTURE, TXN_STAMP};
use dash_common::ids::{SessionId, Tsn};
use dash_common::txn::{is_pending, pending, pending_owner, SnapshotView, TxnId, TS_NEVER};
use dash_common::row::coerce_datum;
use dash_common::{DashError, DataType, Datum, Field, Result, Row, Schema, StatementContext};
use dash_encoding::column::ColumnValues;
use dash_encoding::strs::StrColumn;
use dash_exec::batch::Batch;
use dash_exec::expr::{eval_columns, Column};
use dash_exec::functions::EvalContext;
use dash_exec::plan::{PhysicalPlan, SharedTable};
use dash_exec::scan::ScanConfig;
use dash_exec::stats::ExecStats;
use dash_sql::ast::{AstExpr, ColumnDef, InsertSource, SelectStmt, Statement};
use dash_sql::parser::{parse_statement, split_statements};
use dash_sql::planner::{
    lower_standalone_expr, lower_table_expr, plan_select, plan_select_over, plan_values, pushdown,
    TableHandle,
};
use dash_storage::bufferpool::{BufferPool, Policy};
use dash_storage::table::ColumnTable;
use dash_storage::wal::{
    read_checkpoint, read_wal, truncate_wal, write_checkpoint, CheckpointData, SyncPolicy,
    TableSnapshot, Wal, WalReadOutcome, WalRecord,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a commit-batch leader waits for concurrent committers before
/// flushing, when other transactions are in flight. `BENCH_txn.json`
/// (8 streams) reads 25.0 K commits/s and 0.13 fsyncs/commit at 100 µs
/// against 22.0 K and 0.30 with no wait.
pub const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(100);

/// One single-node dashDB Local engine instance.
///
/// In MPP deployments (`dash-mpp`), each shard runs one `Database`.
pub struct Database {
    catalog: Arc<Catalog>,
    config: AutoConfig,
    /// The `DASH_*` environment as read when this engine opened; new
    /// sessions take their default statement limits from it.
    env: EnvConfig,
    wlm: WorkloadManager,
    monitor: Monitor,
    next_session: AtomicU32,
    /// Transaction manager: commit clock, txn ids, commit serialization.
    txn: TxnManager,
    /// Append side of the write-ahead log; `None` = volatile engine.
    wal: Mutex<Option<Wal>>,
    /// Durability directory (checkpoint + logs); `None` = volatile.
    wal_dir: Option<PathBuf>,
    /// Current checkpoint generation; the live log is `wal.<gen>.log`.
    wal_generation: AtomicU64,
    /// Sync policy new logs are created with.
    wal_sync: SyncPolicy,
    /// Failpoint registry shared with the WAL (and fresh logs at
    /// checkpoint) so chaos tests can crash the log mid-commit.
    faults: Mutex<FaultRegistry>,
    /// Group-commit queue: concurrent committers batch their commit
    /// records into a single WAL flush (see [`Database::checkpoint`] and
    /// the commit path for the protocol).
    commit_queue: GroupCommitQueue,
    /// Group-commit batching window in microseconds. Atomic so tests
    /// and benchmarks can retune it on a live engine.
    group_commit_us: AtomicU64,
    /// Set when commit stamping failed *after* the commit record was
    /// durable: memory has diverged from the log and every further write
    /// or checkpoint is refused. Reopening replays the log and converges.
    poisoned: Mutex<Option<String>>,
}

impl Database {
    /// Create an engine auto-configured for the detected hardware.
    pub fn new() -> Arc<Database> {
        Database::with_hardware(HardwareSpec::detect())
    }

    /// Create an engine auto-configured for the given hardware (used by
    /// the deployment simulator and tests).
    pub fn with_hardware(hw: HardwareSpec) -> Arc<Database> {
        // Simulation pools are capped so tests stay fast; the page budget
        // ratio is preserved.
        let pages = Self::capped_pool_pages(&hw);
        Database::with_pool_pages(hw, pages)
    }

    fn capped_pool_pages(hw: &HardwareSpec) -> usize {
        (AutoConfig::derive(hw).bufferpool_pages as usize).min(1 << 20)
    }

    /// Create an engine with an explicit buffer-pool page budget — used by
    /// benchmarks that model the paper's data ≫ RAM regime by shrinking
    /// the pool below the data size.
    pub fn with_pool_pages(hw: HardwareSpec, pages: usize) -> Arc<Database> {
        Arc::new(Self::build(hw, Some(pages)))
    }

    /// An engine without buffer-pool tracking (micro-benchmarks that want
    /// pure CPU measurements).
    pub fn untracked() -> Arc<Database> {
        Arc::new(Self::build(HardwareSpec::detect(), None))
    }

    fn build(hw: HardwareSpec, pool_pages: Option<usize>) -> Database {
        let env = EnvConfig::read();
        let config = AutoConfig::derive(&hw).with_env(&env);
        let pool = pool_pages.map(|pages| {
            Arc::new(Mutex::new(BufferPool::new(
                pages.max(1),
                Policy::RandomizedWeight,
            )))
        });
        let catalog = Arc::new(Catalog::new(pool));
        catalog.set_parallelism(config.effective_parallelism());
        Database {
            catalog,
            config,
            wlm: WorkloadManager::new(config.wlm_concurrency),
            monitor: Monitor::new(),
            next_session: AtomicU32::new(0),
            txn: TxnManager::new(),
            wal: Mutex::new(None),
            wal_dir: None,
            wal_generation: AtomicU64::new(0),
            wal_sync: SyncPolicy::Commit,
            faults: Mutex::new(FaultRegistry::new()),
            commit_queue: GroupCommitQueue::new(),
            group_commit_us: AtomicU64::new(GROUP_COMMIT_WINDOW.as_micros() as u64),
            poisoned: Mutex::new(None),
            env,
        }
    }

    /// Open (or create) a **durable** engine rooted at `dir`: load the
    /// latest checkpoint, replay the write-ahead log to the last committed
    /// transaction, truncate any torn tail, and start logging. The sync
    /// policy comes from `DASH_WAL_SYNC` (`always`/`commit`/`never`,
    /// default `commit`).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<Database>> {
        Database::recover_at(dir.into(), HardwareSpec::detect(), None, FaultRegistry::new())
    }

    /// Create an engine honoring the environment: durable at
    /// `DASH_WAL_DIR` when that is set and non-empty, volatile otherwise.
    pub fn from_env() -> Result<Arc<Database>> {
        match EnvConfig::read().wal_dir {
            Some(dir) => Database::open(dir),
            None => Ok(Database::new()),
        }
    }

    /// [`Database::open`] with explicit hardware, sync policy, and fault
    /// registry — the chaos-test entry point (the registry's `wal.*`
    /// failpoints simulate crashes at commit, append, and fsync).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        hw: HardwareSpec,
        sync: SyncPolicy,
        faults: FaultRegistry,
    ) -> Result<Arc<Database>> {
        Database::recover_at(dir.into(), hw, Some(sync), faults)
    }

    /// `sync: None` takes the policy the environment names.
    fn recover_at(
        dir: PathBuf,
        hw: HardwareSpec,
        sync: Option<SyncPolicy>,
        faults: FaultRegistry,
    ) -> Result<Arc<Database>> {
        let pages = Self::capped_pool_pages(&hw);
        let mut db = Self::build(hw, Some(pages));
        let sync = match sync {
            Some(sync) => sync,
            None => db.env.wal_sync.clone()?,
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| DashError::Storage(format!("create {}: {e}", dir.display())))?;
        db.wal_dir = Some(dir.clone());
        db.wal_sync = sync;
        *db.faults.lock() = faults.clone();
        let db = Arc::new(db);
        db.recover(&dir, sync, faults)?;
        Ok(db)
    }

    /// True when this engine writes a WAL (opened via [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.wal_dir.is_some()
    }

    /// The current checkpoint generation (0 until the first checkpoint).
    pub fn generation(&self) -> u64 {
        self.wal_generation.load(Ordering::SeqCst)
    }

    /// The transaction manager (commit clock, active-transaction count).
    pub fn transactions(&self) -> &TxnManager {
        &self.txn
    }

    /// Retune the group-commit batching window (tests and the
    /// throughput sweep; it opens at [`GROUP_COMMIT_WINDOW`]).
    pub fn set_group_commit_window(&self, window: Duration) {
        self.group_commit_us
            .store(window.as_micros() as u64, Ordering::SeqCst);
    }

    /// The current group-commit batching window.
    pub fn group_commit_window(&self) -> Duration {
        Duration::from_micros(self.group_commit_us.load(Ordering::SeqCst))
    }

    /// True when post-durability commit stamping diverged from the log
    /// and the engine refuses further writes. Reopen the database to
    /// recover (replay converges memory with the log).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.lock().is_some()
    }

    fn check_poisoned(&self) -> Result<()> {
        match self.poisoned.lock().as_ref() {
            Some(why) => Err(DashError::Storage(format!(
                "database is poisoned, reopen to recover: {why}"
            ))),
            None => Ok(()),
        }
    }

    /// Mark the engine poisoned (first cause wins) and build the error
    /// every subsequent write will see.
    fn poison(&self, why: String) -> DashError {
        let mut p = self.poisoned.lock();
        let cause = p.get_or_insert(why).clone();
        DashError::Storage(format!(
            "database is poisoned, reopen to recover: {cause}"
        ))
    }

    fn checkpoint_path(dir: &std::path::Path) -> PathBuf {
        dir.join("checkpoint.dash")
    }

    fn wal_path(dir: &std::path::Path, generation: u64) -> PathBuf {
        dir.join(format!("wal.{generation}.log"))
    }

    /// Crash recovery: checkpoint restore, two-pass replay of the WAL
    /// *generation chain*, torn-tail truncation. Committed transactions
    /// re-apply with their original timestamps; uncommitted work restores
    /// as permanently invisible placeholder rows so TSNs keep their
    /// log-assigned positions.
    ///
    /// The chain starts at the checkpoint's generation and follows every
    /// newer `wal.<g>.log` on disk: a crash can land between the snapshot
    /// checkpointer's generation switch and its checkpoint write, leaving
    /// commits in `wal.N+1` while `checkpoint.dash` still says `N` —
    /// chaining the logs means that window loses nothing. Because the
    /// snapshot checkpoint may overlap the old generation's records
    /// (capture happens after the cut), replay is *idempotent*: an insert
    /// applies only at the append position, a delete only to an undeleted
    /// row, DDL only when it changes anything.
    fn recover(
        &self,
        dir: &std::path::Path,
        sync: SyncPolicy,
        faults: FaultRegistry,
    ) -> Result<()> {
        let ckpt = read_checkpoint(&Self::checkpoint_path(dir))?.unwrap_or_default();
        // Read the whole chain. A torn log is the crash frontier: nothing
        // after it (there should be nothing — the switch flushes the old
        // generation before creating the new one) may be replayed.
        let mut chain: Vec<(u64, WalReadOutcome)> = Vec::new();
        let mut gen = ckpt.generation;
        loop {
            let path = Self::wal_path(dir, gen);
            if gen != ckpt.generation && !path.exists() {
                break;
            }
            let outcome = read_wal(&path)?;
            let torn = outcome.truncated_bytes > 0;
            chain.push((gen, outcome));
            if torn {
                break;
            }
            gen += 1;
        }
        // Pass 1 over the chain: which transactions have a commit record
        // inside the valid prefix, and at what timestamp. Everything else
        // never happened.
        let mut committed: HashMap<u64, u64> = HashMap::new();
        let mut clock = ckpt.clock;
        let mut max_txn = ckpt.next_txn.saturating_sub(1);
        for (_, outcome) in &chain {
            for rec in &outcome.records {
                match rec {
                    WalRecord::Commit { txn, ts } => {
                        committed.insert(txn.0, *ts);
                        clock = clock.max(*ts);
                        max_txn = max_txn.max(txn.0);
                    }
                    WalRecord::Begin { txn }
                    | WalRecord::Abort { txn }
                    | WalRecord::Insert { txn, .. }
                    | WalRecord::Delete { txn, .. } => max_txn = max_txn.max(txn.0),
                    _ => {}
                }
            }
        }
        // Restore the checkpoint. The snapshot checkpointer captures raw
        // timestamp words, so a row may carry a pending mark from a
        // transaction that was mid-flight at capture time; the commit map
        // is the truth — an owner with a commit record in the chain
        // committed at that timestamp, one without never happened.
        let resolve = |word: u64| -> u64 {
            if is_pending(word) {
                committed
                    .get(&pending_owner(word).0)
                    .copied()
                    .unwrap_or(TS_NEVER)
            } else {
                word
            }
        };
        for t in ckpt.tables {
            let handle = self.catalog.create_table(&t.name, t.schema, None)?;
            let rows = t.rows.into_iter();
            handle.write().append_from_rows(rows.map(|(row, ins, del)| (row, resolve(ins), resolve(del))))?;
        }
        // Pass 2: apply the chain in log order. Row records consult the
        // commit map; records for tables dropped later in the log are
        // skipped when the lookup fails (the handle race is benign — see
        // Session::delete). Records whose effect the checkpoint already
        // captured are skipped by the position / word guards.
        let mut applied = 0u64;
        for (_, outcome) in &chain {
            for rec in &outcome.records {
                match rec {
                    WalRecord::CreateTable { name, schema } => {
                        if !self.catalog.has_table(name) {
                            self.catalog.create_table(name, schema.clone(), None)?;
                        }
                    }
                    WalRecord::DropTable { name } => {
                        self.catalog.drop_table(name, true)?;
                    }
                    WalRecord::Truncate { name } => {
                        if let Ok(h) = self.catalog.table_handle(name) {
                            let mut t = h.table.write();
                            let (tname, schema) = (t.name().to_string(), t.schema().clone());
                            *t = ColumnTable::new(tname, schema);
                        }
                    }
                    WalRecord::Insert {
                        txn,
                        table,
                        tsn,
                        row,
                    } => {
                        let Ok(h) = self.catalog.table_handle(table) else {
                            applied += 1;
                            continue;
                        };
                        let ins = committed.get(&txn.0).copied().unwrap_or(TS_NEVER);
                        let mut t = h.table.write();
                        // Apply only at the append position: a smaller TSN
                        // is already covered by the checkpoint (or was
                        // superseded by a later TRUNCATE resetting the
                        // position space — the wipe replays afterwards in
                        // log order either way).
                        if tsn.0 == t.total_rows() {
                            t.append_from_rows([(row.clone(), ins, TS_NEVER)])?;
                        }
                    }
                    WalRecord::Delete { txn, table, tsn } => {
                        if let (Some(&ts), Ok(h)) =
                            (committed.get(&txn.0), self.catalog.table_handle(table))
                        {
                            let mut t = h.table.write();
                            // Skip deletes the checkpoint captured.
                            if tsn.0 < t.total_rows()
                                && t.delete_ts_words()[tsn.0 as usize] == TS_NEVER
                            {
                                t.replay_delete(*tsn, ts)?;
                            }
                        }
                    }
                    WalRecord::Begin { .. }
                    | WalRecord::Commit { .. }
                    | WalRecord::Abort { .. } => {}
                }
                applied += 1;
            }
        }
        // Only the last log of the chain can have a torn tail.
        if let Some((last_gen, last)) = chain.last() {
            if last.truncated_bytes > 0 {
                truncate_wal(&Self::wal_path(dir, *last_gen), last.valid_len)?;
            }
        }
        let truncated: u64 = chain.iter().map(|(_, o)| o.truncated_bytes).sum();
        self.monitor.record_recovery(applied, truncated);
        self.txn.restore(clock, max_txn + 1);
        let live_gen = chain.last().map_or(ckpt.generation, |(g, _)| *g);
        self.wal_generation.store(live_gen, Ordering::SeqCst);
        *self.wal.lock() = Some(Wal::open_append(
            Self::wal_path(dir, live_gen),
            sync,
            faults,
        )?);
        // Recycle generations older than the checkpoint — a crash between
        // a checkpoint write and its cleanup can leave them behind, and
        // their history is fully covered by the checkpoint.
        for g in (0..ckpt.generation).rev() {
            let p = Self::wal_path(dir, g);
            if p.exists() {
                let _ = std::fs::remove_file(&p);
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Write a **snapshot checkpoint**: capture the durable state against
    /// a pinned commit-clock cut, switch the log to a new generation, and
    /// recycle every older generation file. Runs *concurrently with open
    /// transactions* — uncommitted work is captured as raw pending
    /// timestamp words that recovery resolves against the log chain, so
    /// writers never need to quiesce. Returns the new generation.
    ///
    /// The order of operations makes every failure point safe:
    ///
    /// 1. create `wal.N+1` first — if that fails nothing has changed and
    ///    the old generation stays live (the PR 6 ordering published the
    ///    new generation in `checkpoint.dash` before the log existed,
    ///    losing every later commit on recovery);
    /// 2. under the commit lock, flush and swap the live log — the WAL
    ///    mutex is the generation guard: every append, transactional or
    ///    DDL, lands entirely in one generation relative to this cut;
    /// 3. capture all durable tables *without* the commit lock (readers
    ///    and writers keep running; per-table read locks give each table
    ///    an atomic snapshot that is a superset of the old generation's
    ///    effects, which idempotent replay tolerates);
    /// 4. write `checkpoint.dash` atomically — on failure the old
    ///    checkpoint stands and recovery chains `wal.N`, `wal.N+1`;
    /// 5. recycle generations `< N+1`.
    pub fn checkpoint(&self) -> Result<u64> {
        let dir = self.wal_dir.as_ref().ok_or_else(|| {
            DashError::analysis("checkpoint requires a durable database (Database::open)")
        })?;
        self.check_poisoned()?;
        let faults = self.faults.lock().clone();
        // Phases 1 + 2 — the cut. The commit lock pins a consistent
        // commit-clock snapshot: no commit is mid-stamp while it is held,
        // so every row is either fully published or still pending.
        let (generation, clock, next_txn) = {
            let _guard = self.txn.lock_commits();
            let generation = self.wal_generation.load(Ordering::SeqCst) + 1;
            let new_wal = Wal::create(
                Self::wal_path(dir, generation),
                self.wal_sync,
                faults.clone(),
            )?;
            {
                let mut wal = self.wal.lock();
                if let Some(old) = wal.as_mut() {
                    if let Err(e) = old.flush() {
                        // The old generation is dead or unwritable; a cut
                        // here would capture state the log cannot back.
                        // Drop the orphan new file and abort unchanged.
                        drop(wal);
                        drop(new_wal);
                        let _ = std::fs::remove_file(Self::wal_path(dir, generation));
                        return Err(e.with_context("checkpoint: flushing the old generation"));
                    }
                }
                *wal = Some(new_wal);
            }
            self.wal_generation.store(generation, Ordering::SeqCst);
            (generation, self.txn.snapshot_ts(), self.txn.next_txn_id())
        };
        // Deterministic race window for tests: DDL and commits issued
        // during a `Stall` land in `wal.N+1` while capture waits.
        match faults.evaluate(CKPT_CAPTURE) {
            Some(FaultAction::Stall(d)) => std::thread::sleep(d),
            Some(FaultAction::Error(msg)) => {
                // The switch already happened; aborting is safe because
                // recovery chains the old and new generations.
                return Err(DashError::Storage(format!(
                    "simulated checkpoint failure after the generation switch: {msg}"
                )));
            }
            None => {}
        }
        // Phase 3 — capture. Raw timestamp words: pending marks and
        // commits that landed after the cut are captured as-is; recovery
        // resolves both against the chain (`wal.N+1` holds their commit
        // records if they committed).
        let mut tables = Vec::new();
        for (name, handle) in self.catalog.durable_tables() {
            let t = handle.read();
            let (ins, del) = (t.insert_ts_words(), t.delete_ts_words());
            let mut rows = Vec::with_capacity(ins.len());
            for pos in 0..t.total_rows() {
                rows.push((t.get_row(Tsn(pos))?, ins[pos as usize], del[pos as usize]));
            }
            tables.push(TableSnapshot {
                name,
                schema: t.schema().clone(),
                rows,
            });
        }
        let data = CheckpointData {
            generation,
            clock,
            next_txn,
            tables,
        };
        // Phase 4 — publish.
        write_checkpoint(&Self::checkpoint_path(dir), &data)?;
        // Phase 5 — recycle every generation the checkpoint now covers.
        let mut recycled = 0u64;
        for g in 0..generation {
            let p = Self::wal_path(dir, g);
            if p.exists() && std::fs::remove_file(&p).is_ok() {
                recycled += 1;
            }
        }
        self.monitor.record_checkpoint(recycled);
        Ok(generation)
    }

    /// Append a record to the WAL (no-op for volatile engines).
    fn wal_append(&self, rec: &WalRecord) -> Result<()> {
        match self.wal.lock().as_mut() {
            Some(w) => w.append(rec),
            None => Ok(()),
        }
    }

    /// Group-commit protocol: enqueue the transaction and block until a
    /// batch leader (possibly this thread) has decided its outcome. The
    /// leader holds the commit lock across [timestamp allocation + commit
    /// record appends + one batch flush + stamping + publish], so WAL
    /// record order still equals commit-timestamp order — the invariant
    /// replay depends on — while N concurrent commits cost one fsync.
    fn commit_transaction(&self, txn: &Transaction) -> CommitOutcome {
        if let Err(e) = self.check_poisoned() {
            return CommitOutcome::Aborted(e);
        }
        // Only wait out the batching window when other transactions are
        // in flight; a lone committer has nobody to batch with.
        let window = if self.txn.active_count() > 1 {
            self.group_commit_window()
        } else {
            Duration::ZERO
        };
        let req = CommitRequest {
            txn: txn.id,
            writes: txn.writes.clone(),
        };
        self.commit_queue
            .commit(req, window, |batch| self.commit_batch(batch))
    }

    /// The batch leader's side of group commit. Every member gets exactly
    /// one of four outcomes:
    ///
    /// * its commit record never reached the log → `Aborted` (the session
    ///   undoes the in-memory writes; recovery agrees it never happened);
    /// * the log died with the batch partially flushed → `Unknown` (the
    ///   record may be durable; in-memory stamps stay pending-invisible
    ///   and recovery decides — undoing could contradict the log);
    /// * the record is durable and stamping succeeded → `Committed`;
    /// * the record is durable but stamping failed → `Poisoned`. This is
    ///   the divergence the PR 6 commit path mishandled by undoing a
    ///   logged transaction and reusing its timestamp; now the engine
    ///   refuses further writes instead of lying about durable state.
    fn commit_batch(&self, batch: Vec<CommitRequest>) -> Vec<(TxnId, CommitOutcome)> {
        let _guard = self.txn.lock_commits();
        if let Err(e) = self.check_poisoned() {
            return batch
                .into_iter()
                .map(|r| (r.txn, CommitOutcome::Aborted(e.clone())))
                .collect();
        }
        // Phase 1 — log. One WAL-mutex hold for the whole batch: allocate
        // timestamps in queue order, append every commit record with the
        // boundary flush deferred, then make the batch durable with a
        // single flush. Timestamps are burned, not reused, on failure.
        let mut appended_ts: Vec<u64> = Vec::with_capacity(batch.len());
        let mut append_err: Option<DashError> = None;
        let mut flush_err: Option<DashError> = None;
        let fsync_delta = {
            let mut wal = self.wal.lock();
            let before = wal.as_ref().map_or(0, |w| w.fsyncs());
            for req in &batch {
                let ts = self.txn.allocate_commit_ts();
                let res = match wal.as_mut() {
                    Some(w) => w.append_deferred(&WalRecord::Commit { txn: req.txn, ts }),
                    None => Ok(()),
                };
                match res {
                    Ok(()) => appended_ts.push(ts),
                    Err(e) => {
                        append_err = Some(e);
                        break;
                    }
                }
            }
            if append_err.is_none() {
                if let Some(w) = wal.as_mut() {
                    if let Err(e) = w.flush_commit() {
                        flush_err = Some(e);
                    }
                }
            }
            wal.as_ref().map_or(0, |w| w.fsyncs()).saturating_sub(before)
        };
        self.monitor.record_group_commit(fsync_delta);
        let appended = appended_ts.len();
        let durable = append_err.is_none() && flush_err.is_none();
        // Phase 2 — stamp and publish in timestamp order, WITHOUT the WAL
        // mutex (stamping takes table write locks; DML holds a table lock
        // while appending, so holding both here would deadlock). The
        // commit lock stays held: nobody observes a half-stamped batch.
        let mut outcomes: Vec<(TxnId, CommitOutcome)> = Vec::with_capacity(batch.len());
        let mut poison_err: Option<DashError> = None;
        for (i, req) in batch.iter().enumerate() {
            if i >= appended {
                // Never made it into the log — a definite abort.
                let e = append_err.clone().unwrap_or_else(|| {
                    DashError::Storage("group commit: log died before this record".into())
                });
                outcomes.push((req.txn, CommitOutcome::Aborted(e)));
                continue;
            }
            if !durable {
                // Appended, but the log died before the batch flush
                // definitely completed. The bytes may be on disk.
                let e = flush_err.clone().or_else(|| append_err.clone());
                let e = e.unwrap_or_else(|| DashError::internal("batch not durable, yet no log error"));
                outcomes.push((
                    req.txn,
                    CommitOutcome::Unknown(DashError::Storage(format!(
                        "commit outcome unknown: log died with this batch in flight ({e})"
                    ))),
                ));
                continue;
            }
            let ts = appended_ts[i];
            if let Some(p) = &poison_err {
                outcomes.push((req.txn, CommitOutcome::Poisoned(p.clone())));
                continue;
            }
            match self.stamp_writes(req, ts) {
                Ok(()) => {
                    self.txn.publish(ts);
                    outcomes.push((req.txn, CommitOutcome::Committed(ts)));
                }
                Err(e) => {
                    let p = self.poison(format!(
                        "transaction {} is committed at ts {ts} in the log \
                         but stamping its rows failed: {e}",
                        req.txn.0
                    ));
                    poison_err = Some(p.clone());
                    outcomes.push((req.txn, CommitOutcome::Poisoned(p)));
                }
            }
        }
        outcomes
    }

    /// Stamp one transaction's writes with its commit timestamp. Runs
    /// after the durability point, so any failure here (including the
    /// [`TXN_STAMP`] failpoint, its deterministic repro) poisons the
    /// database rather than pretending the transaction aborted.
    fn stamp_writes(&self, req: &CommitRequest, ts: u64) -> Result<()> {
        if let Some(FaultAction::Error(msg)) = self.faults.lock().evaluate(TXN_STAMP) {
            return Err(DashError::Storage(format!(
                "simulated stamping failure: {msg}"
            )));
        }
        for w in &req.writes {
            let mut t = w.table.write();
            match w.kind {
                WriteKind::Insert => t.commit_insert(w.tsn, ts)?,
                WriteKind::Delete => t.commit_delete(w.tsn, ts)?,
            }
        }
        Ok(())
    }

    /// Undo pending stamps in reverse write order (rollback / failed
    /// commit). Infallible by design: a write-set entry that no longer
    /// resolves (row gone with a dropped table) is simply skipped.
    fn undo_writes(writes: &[WriteOp]) {
        for w in writes.iter().rev() {
            let mut t = w.table.write();
            let _ = match w.kind {
                WriteKind::Insert => t.abort_insert(w.tsn),
                WriteKind::Delete => t.abort_delete(w.tsn),
            };
        }
    }

    /// Route this engine's buffer-pool page reads through `reg`'s
    /// failpoints (no-op for untracked engines), and use it for WAL logs
    /// created from now on. Used by the MPP layer so one cluster-wide
    /// registry reaches every shard's storage.
    pub fn set_fault_registry(&self, reg: dash_common::faults::FaultRegistry) {
        if let Some(pool) = &self.catalog.pool {
            pool.lock().set_fault_registry(reg.clone());
        }
        *self.faults.lock() = reg;
    }

    /// Open a session (default ANSI dialect). Its statement limits start
    /// at the engine's [`EnvConfig`] defaults; unset means unlimited.
    pub fn connect(self: &Arc<Self>) -> Session {
        Session {
            db: self.clone(),
            id: SessionId(self.next_session.fetch_add(1, Ordering::Relaxed)),
            dialect: Dialect::Ansi,
            statement_timeout: self.env.statement_timeout,
            mem_budget: self.env.mem_budget,
            statement: StatementContext::unbounded(),
            txn: None,
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The derived configuration.
    pub fn config(&self) -> &AutoConfig {
        &self.config
    }

    /// The workload manager.
    pub fn wlm(&self) -> &WorkloadManager {
        &self.wlm
    }

    /// Monitoring counters.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }
}

/// A user session: holds the SQL dialect and owns temporary tables.
pub struct Session {
    db: Arc<Database>,
    id: SessionId,
    dialect: Dialect,
    /// Per-statement deadline applied to queries (`None` = no deadline).
    statement_timeout: Option<Duration>,
    /// Per-statement memory budget in bytes (`None` = unlimited).
    mem_budget: Option<u64>,
    /// Deadline token and memory budget of the statement this session is
    /// running (or last ran). [`Session::execute`] arms a fresh one from
    /// the two limits above; [`Session::run_query`] takes its caller's.
    statement: StatementContext,
    /// The open transaction, if any (explicit BEGIN; autocommit wraps each
    /// DML statement in a short-lived one).
    txn: Option<Transaction>,
}

impl Session {
    /// The session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The active SQL dialect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Switch dialect (same as `SET SQL_DIALECT = ...`).
    pub fn set_dialect(&mut self, d: Dialect) {
        self.dialect = d;
    }

    /// Arm (or clear) a per-statement deadline for this session's queries.
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.statement_timeout = timeout;
    }

    /// Arm (or clear) a per-statement memory budget for this session's
    /// queries.
    pub fn set_mem_budget(&mut self, bytes: Option<u64>) {
        self.mem_budget = bytes;
    }

    /// The lifecycle context of the statement this session is running, or
    /// of the last one it ran (its budget account reads zero once the
    /// statement is over, however it ended).
    pub fn statement(&self) -> &StatementContext {
        &self.statement
    }

    /// The owning database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// True while an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.as_ref().is_some_and(|t| !t.autocommit)
    }

    /// The snapshot this session's statements read under: pinned at BEGIN
    /// for the life of the transaction, `None` (latest-committed) outside.
    fn snapshot_view(&self) -> Option<SnapshotView> {
        self.txn.as_ref().map(|t| SnapshotView {
            ts: t.snapshot_ts,
            txn: Some(t.id),
        })
    }

    fn provider(&self) -> SessionCatalog<'_> {
        SessionCatalog {
            catalog: self.db.catalog.as_ref(),
            session: self.id,
            snapshot: self.snapshot_view(),
        }
    }

    fn eval_context(&self) -> EvalContext {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as i64)
            .unwrap_or(0);
        EvalContext {
            now_micros: now,
            sequences: Some(self.db.catalog.clone()),
            statement: self.statement.clone(),
            pipeline: Default::default(),
        }
    }

    /// Execute one SQL statement under a fresh [`StatementContext`] armed
    /// with the session's timeout and memory budget. The limits govern
    /// every statement that runs a query — SELECT, `CREATE TABLE … AS`,
    /// `INSERT … SELECT`, and the row matching of UPDATE and DELETE.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let start = Instant::now();
        let stmt = parse_statement(sql, self.dialect)?;
        let kind = kind_name(&stmt);
        self.statement = StatementContext::with_limits(self.statement_timeout, self.mem_budget);
        let result = self.execute_statement(stmt);
        self.db
            .monitor
            .record(kind, start.elapsed(), result.is_ok());
        result
    }

    /// Execute a `;`-separated script, stopping at the first error. The
    /// script is tokenized whole before anything runs, so one that does
    /// not tokenize fails before its first statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let mut out = Vec::new();
        for stmt in split_statements(sql)? {
            out.push(self.execute(&stmt)?);
        }
        Ok(out)
    }

    /// Execute a query and return its rows (convenience).
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    /// Run an already-parsed query under the caller's statement context,
    /// its rows materialized (see [`Session::run_batch`]).
    pub fn run_query(
        &mut self,
        select: &SelectStmt,
        statement: StatementContext,
    ) -> Result<QueryResult> {
        let (batch, stats) = self.run_batch(select, statement, None)?;
        Ok(QueryResult::query(&batch, stats))
    }

    /// Run an already-parsed query under the caller's statement context —
    /// how a cluster's shard and final statements share one scatter's
    /// deadline and cancel token. `relation`, if given, is a batch the
    /// query reads under its name (the final statement's gathered shard
    /// results).
    pub fn run_batch(
        &mut self,
        select: &SelectStmt,
        statement: StatementContext,
        relation: Option<(&str, Batch)>,
    ) -> Result<(Batch, ExecStats)> {
        self.statement = statement;
        self.run(|ctx| plan_select_over(select, relation, &self.provider(), self.dialect, ctx))
    }

    fn run_select(&self, select: &SelectStmt) -> Result<(Batch, ExecStats)> {
        self.run(|ctx| plan_select(select, &self.provider(), self.dialect, ctx))
    }

    /// The one way this engine runs a query. WLM admission first, under
    /// the statement's token: a statement whose token flips (deadline or
    /// cancel) before or while it queues dies there with a classified
    /// error and never occupies a slot; an admitted one holds an RAII
    /// ticket released on every exit. Then `plan` and `plan::execute`
    /// under the statement's context, and the statement's lifecycle
    /// counters folded into the monitor on success and failure alike.
    /// Nothing that holds a ticket calls back in here (plan-time
    /// subqueries execute on the enclosing context inside the planner).
    fn run(
        &self,
        plan: impl FnOnce(&EvalContext) -> Result<PhysicalPlan>,
    ) -> Result<(Batch, ExecStats)> {
        let stmt_ctx = &self.statement;
        let mon = &self.db.monitor;
        // A caller's context may already have run other statements (the
        // shards of one scatter): fold only what this run added.
        let rejected_before = stmt_ctx.budget_rejections();
        let result = self.db.wlm.admit(stmt_ctx).and_then(|_ticket| {
            let ctx = self.eval_context();
            plan(&ctx).and_then(|plan| dash_exec::plan::execute(&plan, &ctx))
        });
        let rejections = stmt_ctx.budget_rejections() - rejected_before;
        if rejections > 0 {
            mon.record_budget_rejections(rejections);
        }
        let (batch, mut stats) = match result {
            Ok(ok) => ok,
            Err(e) => {
                if stmt_ctx.is_cancelled() {
                    mon.record_cancelled(stmt_ctx);
                }
                return Err(e);
            }
        };
        stats.budget_rejections = rejections;
        stats.cancel_latency_max_morsels = stats
            .cancel_latency_max_morsels
            .max(stmt_ctx.cancel_latency_max_morsels());
        if stats.encoded_key_rows > 0 {
            mon.record_key_path(stats.encoded_key_rows, stats.keys_reencoded_rows);
        }
        if stats.pipelines_run > 0 {
            mon.record_pipeline(
                stats.pipelines_run,
                stats.pipeline_breakers,
                stats.peak_inflight_morsels,
                stats.peak_inflight_bytes,
            );
        }
        Ok((batch, stats))
    }

    /// Close the session: roll back any open transaction and drop its
    /// temporary tables.
    pub fn close(mut self) {
        self.rollback_txn();
        self.db.catalog.drop_session_objects(self.id);
    }

    /// Open a transaction (explicit BEGIN or an autocommit wrapper).
    fn begin_txn(&mut self, autocommit: bool) -> Result<()> {
        let id = self.db.txn.begin();
        let snapshot_ts = self.db.txn.snapshot_ts();
        if let Err(e) = self.db.wal_append(&WalRecord::Begin { txn: id }) {
            self.db.txn.finish(id);
            return Err(e);
        }
        self.txn = Some(Transaction {
            id,
            snapshot_ts,
            writes: Vec::new(),
            autocommit,
        });
        Ok(())
    }

    /// Commit the open transaction (no-op if none — COMMIT outside a
    /// transaction is legal and does nothing, like DB2 autocommit mode).
    fn commit_txn(&mut self) -> Result<()> {
        let Some(txn) = self.txn.take() else {
            return Ok(());
        };
        let outcome = self.db.commit_transaction(&txn);
        self.db.txn.finish(txn.id);
        match outcome {
            CommitOutcome::Committed(_) => {
                self.db.monitor.record_txn_commit();
                Ok(())
            }
            CommitOutcome::Aborted(e) => {
                // The commit record never reached the log, so as far as
                // recovery is concerned the transaction never happened.
                // Undo the in-memory stamps to match.
                Database::undo_writes(&txn.writes);
                self.db.monitor.record_txn_abort();
                Err(e)
            }
            CommitOutcome::Unknown(e) => {
                // The record may be durable; undoing could contradict a
                // log that promises the commit. Leave the stamps pending
                // (invisible) — the log is dead anyway, and recovery
                // resolves the truth on reopen.
                self.db.monitor.record_txn_abort();
                Err(e)
            }
            // Memory and log diverged; the database already refuses
            // further writes. Touch nothing.
            CommitOutcome::Poisoned(e) => Err(e),
        }
    }

    /// Roll back the open transaction (no-op if none). Never fails: a
    /// crashed WAL must not block the in-memory undo.
    fn rollback_txn(&mut self) {
        let Some(txn) = self.txn.take() else {
            return;
        };
        let _ = self.db.wal_append(&WalRecord::Abort { txn: txn.id });
        Database::undo_writes(&txn.writes);
        self.db.txn.finish(txn.id);
        self.db.monitor.record_txn_abort();
    }

    /// Undo only the writes a failed statement made, keeping the rest of
    /// the transaction intact (statement-level atomicity).
    fn undo_statement(&mut self, mark: usize) {
        if let Some(txn) = &mut self.txn {
            let tail: Vec<WriteOp> = txn.writes.drain(mark..).collect();
            Database::undo_writes(&tail);
        }
    }

    /// The open transaction's id and snapshot timestamp (DML only runs
    /// inside one — [`Session::dml`] guarantees it).
    fn active_txn(&self) -> Result<(TxnId, u64)> {
        self.txn
            .as_ref()
            .map(|t| (t.id, t.snapshot_ts))
            .ok_or_else(|| DashError::internal("DML statement outside a transaction"))
    }

    /// Remember a row write for commit stamping / rollback undo.
    fn record_write(&mut self, table: SharedTable, tsn: Tsn, kind: WriteKind) {
        if let Some(txn) = &mut self.txn {
            txn.writes.push(WriteOp { table, tsn, kind });
        }
    }

    /// Run one DML statement transactionally. Outside an explicit
    /// transaction, wrap it in an autocommit one. A `WriteConflict`
    /// (SQLSTATE 40001, first-writer-wins) rolls the whole transaction
    /// back so the application can retry; any other failure undoes just
    /// this statement's writes.
    fn dml<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let autocommit = self.txn.is_none();
        if autocommit {
            self.begin_txn(true)?;
        }
        let mark = self.txn.as_ref().map_or(0, |t| t.writes.len());
        match f(self) {
            Ok(r) => {
                if autocommit {
                    self.commit_txn()?;
                }
                Ok(r)
            }
            Err(e) => {
                if matches!(e, DashError::WriteConflict(_)) {
                    // The snapshot is stale against a concurrent writer;
                    // no statement under it can make progress.
                    self.db.monitor.record_txn_conflict();
                    self.rollback_txn();
                } else if autocommit {
                    self.rollback_txn();
                } else {
                    self.undo_statement(mark);
                }
                Err(e)
            }
        }
    }

    fn execute_statement(&mut self, stmt: Statement) -> Result<QueryResult> {
        // A poisoned engine (commit stamping diverged from the durable
        // log) refuses every statement that could write; reads and
        // ROLLBACK still work so sessions can wind down before reopening.
        if matches!(
            stmt,
            Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
                | Statement::Begin
                | Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::Truncate { .. }
        ) {
            self.db.check_poisoned()?;
        }
        match stmt {
            Statement::Select(select) => {
                let (batch, stats) = self.run_select(&select)?;
                Ok(QueryResult::query(&batch, stats))
            }
            Statement::Explain(inner) => self.explain(*inner),
            Statement::Values(rows) => {
                let (batch, stats) =
                    self.run(|ctx| plan_values(&rows, &self.provider(), self.dialect, ctx))?;
                Ok(QueryResult::query(&batch, stats))
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => self.dml(move |s| s.insert(&table, &columns, source)),
            Statement::Update {
                table,
                assignments,
                selection,
            } => self.dml(move |s| s.update(&table, &assignments, selection.as_ref())),
            Statement::Delete { table, selection } => {
                self.dml(move |s| s.delete(&table, selection.as_ref()))
            }
            Statement::Begin => {
                if self.in_transaction() {
                    return Err(DashError::analysis(
                        "a transaction is already open in this session",
                    ));
                }
                self.begin_txn(false)?;
                Ok(QueryResult::ddl())
            }
            Statement::Commit => {
                self.commit_txn()?;
                Ok(QueryResult::ddl())
            }
            Statement::Rollback => {
                self.rollback_txn();
                Ok(QueryResult::ddl())
            }
            Statement::CreateTable {
                name,
                columns,
                temporary,
                if_not_exists,
                as_select,
            } => {
                if if_not_exists && self.db.catalog.has_table(&name) {
                    return Ok(QueryResult::ddl());
                }
                let owner = temporary.then_some(self.id);
                // CTAS is CREATE + INSERT … SELECT. The query runs first,
                // so a killed CTAS creates no table; the DDL is logged and
                // non-transactional; the rows go through the one write
                // path inside the statement's transaction.
                let (schema, source) = match as_select {
                    Some(select) => {
                        let (batch, _) = self.run_select(&select)?;
                        (batch.schema().clone(), Some(batch))
                    }
                    None => (column_schema(&columns)?, None),
                };
                let table = self.db.catalog.create_table(&name, schema.clone(), owner)?;
                let durable = owner
                    .is_none()
                    .then(|| self.db.catalog.durable_key(&name, None))
                    .flatten();
                if let Some(key) = &durable {
                    self.db.wal_append(&WalRecord::CreateTable {
                        name: key.clone(),
                        schema,
                    })?;
                }
                if let Some(batch) = source {
                    self.dml(|s| s.write(&table, durable, Vec::new(), Some(batch)))?;
                }
                Ok(QueryResult::ddl())
            }
            Statement::DropTable { name, if_exists } => {
                let durable = self.db.catalog.durable_key(&name, Some(self.id));
                let dropped =
                    self.db.catalog.drop_table_for(&name, if_exists, Some(self.id))?;
                if dropped {
                    if let Some(key) = durable {
                        self.db.wal_append(&WalRecord::DropTable { name: key })?;
                    }
                }
                Ok(QueryResult::ddl())
            }
            Statement::Truncate { name } => {
                let durable = self.db.catalog.durable_key(&name, Some(self.id));
                let handle = self.db.catalog.table_handle_for(&name, Some(self.id))?;
                {
                    // Wipe and log under one table write lock so a
                    // concurrent snapshot checkpoint can't capture the
                    // wiped table while the Truncate record slips into
                    // the recycled old generation.
                    let mut t = handle.table.write();
                    let schema = t.schema().clone();
                    let tname = t.name().to_string();
                    *t = ColumnTable::new(tname, schema);
                    if let Some(key) = durable {
                        self.db.wal_append(&WalRecord::Truncate { name: key })?;
                    }
                }
                Ok(QueryResult::ddl())
            }
            Statement::CreateView { name, text, .. } => {
                // Views remember the dialect they were created under
                // (§II.C.2): later sessions parse them with it.
                self.db.catalog.create_view(&name, text, self.dialect)?;
                Ok(QueryResult::ddl())
            }
            Statement::DropView { name, if_exists } => {
                self.db.catalog.drop_view(&name, if_exists)?;
                Ok(QueryResult::ddl())
            }
            Statement::CreateSequence {
                name,
                start,
                increment,
            } => {
                self.db.catalog.create_sequence(&name, start, increment)?;
                Ok(QueryResult::ddl())
            }
            Statement::DropSequence { name } => {
                self.db.catalog.drop_sequence(&name)?;
                Ok(QueryResult::ddl())
            }
            Statement::CreateAlias { name, target } => {
                self.db.catalog.create_alias(&name, &target)?;
                Ok(QueryResult::ddl())
            }
            Statement::SetDialect(d) => {
                self.dialect = d;
                Ok(QueryResult::ddl())
            }
            Statement::Block(stmts) => {
                // Compound SQL: run sequentially, return the last statement's
                // result (DB2 inlined-compound semantics; no atomicity at
                // reproduction scope).
                let mut last = QueryResult::ddl();
                for stmt in stmts {
                    last = self.execute_statement(stmt)?;
                }
                Ok(last)
            }
        }
    }

    fn explain(&mut self, stmt: Statement) -> Result<QueryResult> {
        let text = match stmt {
            Statement::Select(select) => {
                let ctx = self.eval_context();
                let plan =
                    plan_select(&select, &self.provider(), self.dialect, &ctx)?;
                let mut text = plan.explain();
                // Show how the morsel scheduler decomposes the plan
                // (pipelines in execution order).
                for l in dash_exec::pipeline::describe(&plan) {
                    text.push_str(&l);
                    text.push('\n');
                }
                text
            }
            other => format!("{} statement\n", kind_name(&other)),
        };
        let schema = Schema::new_unchecked(vec![Field::new("PLAN", DataType::Utf8)]);
        let lines = ColumnValues::Str(StrColumn::from_values(text.lines().map(Some)));
        Ok(QueryResult::query(&Batch::new(schema, vec![lines])?, ExecStats::default()))
    }

    /// INSERT's VALUES list as one batch of the columns `schema` it
    /// writes: every expression is lowered and evaluated over one empty
    /// row, and its value cast to its column's type once.
    fn values_batch(&self, rows: &[Vec<AstExpr>], schema: Schema) -> Result<Batch> {
        let ctx = self.eval_context();
        let provider = self.provider();
        let one = Batch::unit();
        let mut columns: Vec<ColumnValues> = schema.fields().iter().map(|f| ColumnValues::empty_for(f.data_type)).collect();
        for row in rows {
            if row.len() != schema.len() {
                let msg = format!("INSERT provides {} values for {} columns", row.len(), schema.len());
                return Err(DashError::analysis(msg));
            }
            for ((e, f), column) in row.iter().zip(schema.fields()).zip(&mut columns) {
                let v = lower_standalone_expr(e, &provider, self.dialect, &ctx)?.eval(&one, 0, &ctx)?;
                column.push_datum(f.data_type, &coerce_datum(v, f.data_type)?)?;
            }
        }
        Batch::new(schema, columns)
    }

    /// A DML target: its handle, schema and log name (`None` for a
    /// temporary table).
    fn target(&self, table: &str) -> Result<(TableHandle, Schema, Option<String>)> {
        let handle = self.db.catalog.table_handle_for(table, Some(self.id))?;
        let schema = handle.table.read().schema().clone();
        let durable = self.db.catalog.durable_key(table, Some(self.id));
        Ok((handle, schema, durable))
    }

    fn insert(
        &mut self,
        table: &str,
        columns: &[String],
        source: InsertSource,
    ) -> Result<QueryResult> {
        let (handle, schema, durable) = self.target(table)?;
        // Map the written columns to table ordinals.
        let targets: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            let mut v = Vec::with_capacity(columns.len());
            for c in columns {
                v.push(schema.resolve(c)?);
            }
            v
        };
        let source = match source {
            InsertSource::Values(rows) if columns.is_empty() => self.values_batch(&rows, schema.clone())?,
            InsertSource::Values(rows) => self.values_batch(&rows, schema.project(&targets))?,
            InsertSource::Select(select) => self.run_select(&select)?.0,
        };
        if source.schema().len() != targets.len() {
            return Err(DashError::analysis(format!(
                "INSERT provides {} values for {} columns",
                source.schema().len(),
                targets.len()
            )));
        }
        // Each column at its target ordinal; an omitted one is NULL.
        let batch = if columns.is_empty() {
            source
        } else {
            let n = source.len();
            let base = (schema.fields().iter().enumerate())
                .map(|(i, f)| match targets.contains(&i) {
                    true => Ok(ColumnValues::empty_for(f.data_type)),
                    false => Column::Const(Datum::Null).into_values(f.data_type, n),
                })
                .collect::<Result<_>>()?;
            let types = source.schema().types();
            substitute(&schema, base, &targets, source.into_columns(), &types)?
        };
        let count = self.write(&handle.table, durable, Vec::new(), Some(batch))?;
        Ok(QueryResult::dml(StatementKind::Insert, count))
    }

    /// Scan the rows of `handle` that `selection` matches, in this
    /// session's snapshot. The batch holds the table's columns followed
    /// by `_TSN`, so expressions lowered against the table schema evaluate
    /// on it directly; the positions come back beside it.
    fn matching_rows(
        &self,
        handle: &TableHandle,
        schema: &Schema,
        selection: Option<&AstExpr>,
    ) -> Result<(Batch, Vec<Tsn>)> {
        let (batch, _) = self.run(|ctx| {
            let provider = self.provider();
            let mut config = ScanConfig::full(handle.id, (0..schema.len()).collect());
            config.include_tsn = true;
            config.pool = self.db.catalog.pool.clone();
            config.snapshot = provider.snapshot;
            let mut plan = PhysicalPlan::ColumnScan {
                table: handle.table.clone(),
                config,
            };
            if let Some(sel) = selection {
                let (predicate, _) = lower_table_expr(sel, schema, &provider, self.dialect, ctx)?;
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate,
                };
            }
            Ok(pushdown(plan, &provider))
        })?;
        let tsns = match batch.try_column(schema.len())? {
            ColumnValues::Int(v) => v
                .iter()
                .map(|t| t.map(|t| Tsn(t as u64)))
                .collect::<Option<Vec<Tsn>>>(),
            _ => None,
        }
        .ok_or_else(|| DashError::internal("scan produced a non-integer TSN"))?;
        Ok((batch, tsns))
    }

    fn update(
        &mut self,
        table: &str,
        assignments: &[(String, AstExpr)],
        selection: Option<&AstExpr>,
    ) -> Result<QueryResult> {
        let ctx = self.eval_context();
        let (handle, schema, durable) = self.target(table)?;
        let (mut ordinals, mut exprs, mut types) = (Vec::new(), Vec::new(), Vec::new());
        for (col, e) in assignments {
            ordinals.push(schema.resolve(col)?);
            let (e, dt) = lower_table_expr(e, &schema, &self.provider(), self.dialect, &ctx)?;
            exprs.push(e);
            types.push(dt);
        }
        let (batch, tsns) = self.matching_rows(&handle, &schema, selection)?;
        // The replacements: the matched rows' columns with each assigned
        // one substituted by its values.
        let n = batch.len();
        let assigned = eval_columns(&exprs, &batch, 0..n, &ctx)?
            .into_iter()
            .zip(&types)
            .map(|(values, &dt)| values.into_values(dt, n))
            .collect::<Result<Vec<_>>>()?;
        let mut base = batch.into_columns();
        base.truncate(schema.len());
        let replacements = substitute(&schema, base, &ordinals, assigned, &types)?;
        let applied = self.write(&handle.table, durable, tsns, Some(replacements))?;
        Ok(QueryResult::dml(StatementKind::Update, applied))
    }

    fn delete(&mut self, table: &str, selection: Option<&AstExpr>) -> Result<QueryResult> {
        let (handle, schema, durable) = self.target(table)?;
        let (_, tsns) = self.matching_rows(&handle, &schema, selection)?;
        let count = self.write(&handle.table, durable, tsns, None)?;
        Ok(QueryResult::dml(StatementKind::Delete, count))
    }

    /// The one write path: apply a statement's deletes and its insert
    /// batch to `table` inside the open transaction, under one table write
    /// lock. Deletes apply in order and are first-writer-wins
    /// ([`ColumnTable::mvcc_delete`] raises the `WriteConflict` that rolls
    /// the transaction back); a row already gone in this transaction's
    /// view is skipped. When the statement both deletes and inserts (an
    /// UPDATE), insert row *i* replaces delete *i* and is dropped with it.
    /// The inserts then go in with one [`ColumnTable::append`] of pending
    /// rows. Only once the whole statement has applied are its records
    /// logged, still under the lock: deletes first, then inserts in TSN
    /// order, read back from the table, so per-table log order equals TSN
    /// order and a failed statement leaves nothing in the log. Every
    /// touched row is remembered for commit stamping and rollback.
    /// `durable` is the table's log name. Returns the number of rows
    /// inserted, or deleted when nothing is.
    fn write(
        &mut self,
        table: &SharedTable,
        durable: Option<String>,
        deletes: Vec<Tsn>,
        inserts: Option<Batch>,
    ) -> Result<u64> {
        let (txn, snapshot_ts) = self.active_txn()?;
        let mut t = table.write();
        let (mut deleted, mut kept) = (Vec::new(), Vec::new());
        for (i, &tsn) in deletes.iter().enumerate() {
            if t.mvcc_delete(tsn, txn, snapshot_ts)? {
                self.record_write(table.clone(), tsn, WriteKind::Delete);
                deleted.push(tsn);
                kept.push(i);
            }
        }
        let (inserted, applied) = match inserts {
            Some(mut batch) => {
                if kept.len() < deletes.len() {
                    batch = batch.take(&kept);
                }
                let (n, types) = (batch.len(), batch.schema().types());
                let first = t.append(batch.into_columns(), &types, &vec![pending(txn); n], &vec![TS_NEVER; n])?;
                (first.0..first.0 + n as u64, n as u64)
            }
            None => (0..0, deleted.len() as u64),
        };
        for tsn in inserted.clone() {
            self.record_write(table.clone(), Tsn(tsn), WriteKind::Insert);
        }
        if let Some(key) = &durable {
            for tsn in deleted {
                let table = key.clone();
                self.db.wal_append(&WalRecord::Delete { txn, table, tsn })?;
            }
            for tsn in inserted.map(Tsn) {
                let (table, row) = (key.clone(), t.get_row(tsn)?);
                self.db.wal_append(&WalRecord::Insert { txn, table, tsn, row })?;
            }
        }
        Ok(applied)
    }
}

/// A batch of `schema`'s columns: `base`'s, with the one at each ordinal
/// in `at` replaced by the matching one of `columns`, of the matching type
/// in `types`. The schema is shared, not copied, when every replacement
/// has its column's type.
fn substitute(
    schema: &Schema,
    mut base: Vec<ColumnValues>,
    at: &[usize],
    columns: Vec<ColumnValues>,
    types: &[DataType],
) -> Result<Batch> {
    for (&i, values) in at.iter().zip(columns) {
        base[i] = values;
    }
    if at.iter().zip(types).all(|(&i, &dt)| schema.field(i).data_type == dt) {
        return Batch::new(schema.clone(), base);
    }
    let mut fields = schema.fields().to_vec();
    for (&i, &dt) in at.iter().zip(types) {
        fields[i].data_type = dt;
    }
    Batch::new(Schema::new_unchecked(fields), base)
}

/// A session-scoped view of the catalog: the session's temporary tables
/// resolve ahead of permanent ones; everything else delegates.
struct SessionCatalog<'a> {
    catalog: &'a Catalog,
    session: SessionId,
    /// The session's pinned snapshot when a transaction is open; `None`
    /// keeps latest-committed (bitmap) scan semantics.
    snapshot: Option<SnapshotView>,
}

impl dash_sql::planner::SchemaProvider for SessionCatalog<'_> {
    fn table(&self, name: &str) -> Result<dash_sql::planner::TableHandle> {
        self.catalog.table_handle_for(name, Some(self.session))
    }

    fn view(&self, name: &str) -> Option<(String, Dialect)> {
        dash_sql::planner::SchemaProvider::view(self.catalog, name)
    }

    fn pool(
        &self,
    ) -> Option<Arc<Mutex<BufferPool>>> {
        dash_sql::planner::SchemaProvider::pool(self.catalog)
    }

    fn udx(
        &self,
        name: &str,
    ) -> Option<Arc<dash_exec::functions::ScalarFunction>> {
        dash_sql::planner::SchemaProvider::udx(self.catalog, name)
    }

    fn parallelism(&self) -> usize {
        dash_sql::planner::SchemaProvider::parallelism(self.catalog)
    }

    fn compressed_predicates(&self) -> bool {
        dash_sql::planner::SchemaProvider::compressed_predicates(self.catalog)
    }

    fn snapshot(&self) -> Option<SnapshotView> {
        self.snapshot
    }
}

/// The schema a `CREATE TABLE` column list declares.
fn column_schema(columns: &[ColumnDef]) -> Result<Schema> {
    let fields = columns
        .iter()
        .map(|c| {
            let data_type = DataType::from_sql_name(&c.type_name, &c.type_args).ok_or_else(|| {
                DashError::analysis(format!("unknown type {} for column {}", c.type_name, c.name))
            })?;
            Ok(Field {
                name: c.name.clone(),
                data_type,
                nullable: !c.not_null,
            })
        })
        .collect::<Result<Vec<Field>>>()?;
    Schema::new(fields)
}

fn kind_name(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::Insert { .. } => "INSERT",
        Statement::Update { .. } => "UPDATE",
        Statement::Delete { .. } => "DELETE",
        Statement::CreateTable { .. }
        | Statement::CreateView { .. }
        | Statement::CreateSequence { .. }
        | Statement::CreateAlias { .. } => "CREATE",
        Statement::DropTable { .. }
        | Statement::DropView { .. }
        | Statement::DropSequence { .. } => "DROP",
        Statement::Truncate { .. } => "TRUNCATE",
        Statement::Explain(_) => "EXPLAIN",
        Statement::SetDialect(_) => "SET",
        Statement::Values(_) => "VALUES",
        Statement::Block(_) => "BLOCK",
        Statement::Begin => "BEGIN",
        Statement::Commit => "COMMIT",
        Statement::Rollback => "ROLLBACK",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Database::with_hardware(HardwareSpec::laptop()).connect()
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut s = session();
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR(20), amt DOUBLE)")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5), (3, NULL, 3.5)")
            .unwrap();
        let rows = s.query("SELECT id, name FROM t WHERE amt > 2.0 ORDER BY id").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Datum::Int(2));
        assert!(rows[1].get(1).is_null());
    }

    #[test]
    fn update_and_delete() {
        let mut s = session();
        s.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let r = s.execute("UPDATE t SET v = v + 1 WHERE id >= 2").unwrap();
        assert_eq!(r.affected, 2);
        let rows = s.query("SELECT v FROM t ORDER BY id").unwrap();
        assert_eq!(
            rows.iter().map(|r| r.get(0).as_int().unwrap()).collect::<Vec<_>>(),
            vec![10, 21, 31]
        );
        let r = s.execute("DELETE FROM t WHERE v = 21").unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(s.query("SELECT COUNT(*) FROM t").unwrap()[0].get(0), &Datum::Int(2));

        // A SET reading two columns, over matches in two sealed strides
        // and the open one: every SET reads the row as it was.
        let n = 2500i64;
        s.execute("CREATE TABLE w (id BIGINT, a BIGINT, b BIGINT)").unwrap();
        let values: Vec<String> = (0..n).map(|i| format!("({i}, {i}, {})", i % 10)).collect();
        s.execute(&format!("INSERT INTO w VALUES {}", values.join(", "))).unwrap();
        let r = s
            .execute("UPDATE w SET a = a + b, b = a - b WHERE id >= 1000 AND b < 3")
            .unwrap();
        let hit = |i: i64| i >= 1000 && i % 10 < 3;
        assert_eq!(r.affected, (0..n).filter(|&i| hit(i)).count() as u64);
        let rows = s.query("SELECT id, a, b FROM w ORDER BY id").unwrap();
        let got: Vec<(i64, i64, i64)> = rows
            .iter()
            .map(|r| {
                let v = |c| r.get(c).as_int().unwrap();
                (v(0), v(1), v(2))
            })
            .collect();
        let want: Vec<(i64, i64, i64)> = (0..n)
            .map(|i| match hit(i) {
                true => (i, i + i % 10, i - i % 10),
                false => (i, i, i % 10),
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn group_by_join_pipeline() {
        let mut s = session();
        s.execute("CREATE TABLE f (k INT, amt DOUBLE)").unwrap();
        s.execute("CREATE TABLE d (k INT, label VARCHAR(10))").unwrap();
        s.execute("INSERT INTO d VALUES (1, 'one'), (2, 'two')").unwrap();
        s.execute("INSERT INTO f VALUES (1, 5.0), (1, 7.0), (2, 1.0)").unwrap();
        let rows = s
            .query(
                "SELECT d.label, SUM(f.amt), COUNT(*) FROM f JOIN d ON f.k = d.k \
                 GROUP BY d.label ORDER BY d.label",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0).as_str(), Some("one"));
        assert_eq!(rows[0].get(1), &Datum::Float(12.0));
        assert_eq!(rows[1].get(2), &Datum::Int(1));
    }

    #[test]
    fn dialect_stickiness_of_views() {
        let mut s = session();
        s.set_dialect(Dialect::Oracle);
        s.execute("CREATE VIEW v AS SELECT 1 + 1 total FROM DUAL").unwrap();
        // An ANSI session can still use the Oracle view.
        let mut s2 = s.database().clone().connect();
        let rows = s2.query("SELECT total FROM v").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(2));
    }

    #[test]
    fn oracle_rownum_and_sequences() {
        let mut s = session();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("INSERT INTO t VALUES (5), (6), (7), (8)").unwrap();
        s.execute("CREATE SEQUENCE sq START WITH 100").unwrap();
        s.set_dialect(Dialect::Oracle);
        let rows = s.query("SELECT x FROM t WHERE ROWNUM <= 2").unwrap();
        assert_eq!(rows.len(), 2);
        let rows = s.query("SELECT sq.NEXTVAL FROM DUAL").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(100));
        let rows = s.query("SELECT sq.CURRVAL FROM DUAL").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(100));
    }

    #[test]
    fn db2_values_and_alias() {
        let mut s = session();
        s.set_dialect(Dialect::Db2);
        let r = s.execute("VALUES (1, 'x'), (2, 'y')").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.schema.field(0).name, "COL1");
        s.execute("CREATE TABLE base (a INT)").unwrap();
        s.execute("CREATE ALIAS b FOR base").unwrap();
        s.execute("INSERT INTO b VALUES (9)").unwrap();
        assert_eq!(s.query("SELECT a FROM b").unwrap().len(), 1);
    }

    #[test]
    fn temp_tables_per_session() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut s1 = db.connect();
        s1.set_dialect(Dialect::Netezza);
        s1.execute("CREATE TEMP TABLE scratch (x INT)").unwrap();
        s1.execute("INSERT INTO scratch VALUES (1)").unwrap();
        // Visible within the session.
        assert_eq!(s1.query("SELECT * FROM scratch").unwrap().len(), 1);
        s1.close();
        let mut s2 = db.connect();
        assert!(s2.query("SELECT * FROM scratch").is_err());
    }

    #[test]
    fn ctas_and_truncate() {
        let mut s = session();
        s.execute("CREATE TABLE src (a INT, b VARCHAR(5))").unwrap();
        s.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y')").unwrap();
        s.execute("CREATE TABLE copy AS SELECT a, UPPER(b) AS b FROM src")
            .unwrap();
        let rows = s.query("SELECT b FROM copy ORDER BY a").unwrap();
        assert_eq!(rows[0].get(0).as_str(), Some("X"));
        s.execute("TRUNCATE TABLE copy").unwrap();
        assert_eq!(s.query("SELECT * FROM copy").unwrap().len(), 0);
    }

    #[test]
    fn rolled_back_ctas_leaves_an_empty_table() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut s = db.connect();
        s.execute("CREATE TABLE src (x INT)").unwrap();
        s.execute("INSERT INTO src VALUES (1), (2), (3)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("CREATE TABLE copy AS SELECT x FROM src").unwrap();
        assert_eq!(
            s.query("SELECT * FROM copy").unwrap().len(),
            3,
            "read-your-writes"
        );
        s.execute("ROLLBACK").unwrap();
        // The DDL is non-transactional; the rows are not.
        assert!(db.catalog().has_table("copy"));
        assert_eq!(s.query("SELECT * FROM copy").unwrap().len(), 0);
    }

    #[test]
    fn ctas_rows_obey_snapshot_isolation() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut writer = db.connect();
        writer.execute("CREATE TABLE src (x INT)").unwrap();
        writer
            .execute("INSERT INTO src VALUES (1), (2), (3)")
            .unwrap();
        let mut reader = db.connect();
        reader.execute("BEGIN").unwrap();
        writer
            .execute("CREATE TABLE copy AS SELECT x FROM src")
            .unwrap();
        let count = |s: &mut Session| {
            s.query("SELECT COUNT(*) FROM copy").unwrap()[0]
                .get(0)
                .clone()
        };
        assert_eq!(
            count(&mut reader),
            Datum::Int(0),
            "committed after the reader's snapshot"
        );
        reader.execute("COMMIT").unwrap();
        assert_eq!(count(&mut reader), Datum::Int(3));
    }

    /// A session on a fresh engine whose scans decode before comparing.
    fn ablated_session() -> Session {
        let db = Database::with_hardware(HardwareSpec::laptop());
        db.catalog().set_compressed_predicates(false);
        db.connect()
    }

    fn explain(s: &mut Session, sql: &str) -> Vec<String> {
        let r = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        r.rows.iter().map(|r| r.get(0).render()).collect()
    }

    #[test]
    fn ablation_moves_every_conjunct_to_the_residual() {
        let sql = "SELECT f.x, d.y FROM f JOIN d ON f.k = d.k WHERE f.x > 1 AND d.y = 2 ORDER BY f.x";
        let mut results = Vec::new();
        for (compressed, mut s) in [(true, session()), (false, ablated_session())] {
            s.execute("CREATE TABLE f (k INT, x INT)").unwrap();
            s.execute("CREATE TABLE d (k INT, y INT)").unwrap();
            s.execute("INSERT INTO f VALUES (1, 1), (1, 2), (2, 3), (3, 4)").unwrap();
            s.execute("INSERT INTO d VALUES (1, 2), (2, 2), (3, 5)").unwrap();
            let scans: Vec<String> = explain(&mut s, sql)
                .into_iter()
                .filter(|l| l.contains("ColumnScan"))
                .collect();
            assert_eq!(scans.len(), 2, "{scans:?}");
            for scan in &scans {
                // Conjuncts still reach both scans below the join.
                let want = if compressed { " preds=1 residual=false " } else { " preds=0 residual=true " };
                assert!(scan.contains(want), "compressed={compressed}: {scan}");
            }
            results.push(s.query(sql).unwrap());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].len(), 2);
    }

    #[test]
    fn ablation_turns_off_synopsis_skipping() {
        let rows: Vec<Row> = (0..8 * 1024i64).map(|i| Row::new(vec![Datum::Int(i)])).collect();
        let schema = Schema::new(vec![Field::new("id", DataType::Int64)]).unwrap();
        let mut counts = Vec::new();
        for (compressed, mut s) in [(true, session()), (false, ablated_session())] {
            let handle = s.db.catalog().create_table("t", schema.clone(), None).unwrap();
            handle.write().load_rows(rows.clone()).unwrap();
            let r = s.execute("SELECT COUNT(*) FROM t WHERE id < 100").unwrap();
            let stats = r.stats;
            assert_eq!(stats.strides_total, 8);
            if compressed {
                assert_eq!(stats.strides_skipped, 7, "{stats:?}");
            } else {
                assert_eq!(stats.strides_skipped, 0, "{stats:?}");
                assert_eq!(stats.strides_scanned, stats.strides_total);
            }
            counts.push(r.rows);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0][0].get(0), &Datum::Int(100));
    }

    #[test]
    fn ablated_dml_and_subqueries_match_the_product() {
        let mut outputs = Vec::new();
        for mut s in [session(), ablated_session()] {
            s.execute("CREATE TABLE t (id INT, v INT)").unwrap();
            let values: Vec<String> = (1..=50).map(|i| format!("({i}, {})", i % 7)).collect();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
            let mut out = Vec::new();
            for sql in [
                "UPDATE t SET v = 100 WHERE id BETWEEN 10 AND 19",
                "DELETE FROM t WHERE id > 40 AND v <> 3",
            ] {
                out.push(vec![Row::new(vec![Datum::Int(s.execute(sql).unwrap().affected as i64)])]);
            }
            for sql in [
                "SELECT id FROM t WHERE v IN (SELECT v FROM t WHERE id < 5) ORDER BY id",
                "SELECT COUNT(*) FROM t WHERE id > (SELECT MAX(id) FROM t WHERE v = 100)",
                "SELECT v, COUNT(*) FROM t WHERE v >= 3 GROUP BY v ORDER BY v",
            ] {
                out.push(s.query(sql).unwrap());
            }
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0][0][0].get(0), &Datum::Int(10));
    }

    #[test]
    fn explain_output() {
        let mut s = session();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        let r = s.execute("EXPLAIN SELECT x FROM t WHERE x > 1").unwrap();
        let text: String = r.rows.iter().map(|r| r.get(0).render() + "\n").collect();
        assert!(text.contains("ColumnScan T"), "{text}");
        assert!(text.contains("preds=1"), "pushdown should apply: {text}");
    }

    #[test]
    fn insert_select_and_column_lists() {
        let mut s = session();
        s.execute("CREATE TABLE a (x INT, y VARCHAR(5))").unwrap();
        s.execute("CREATE TABLE b (y VARCHAR(5), x INT)").unwrap();
        s.execute("INSERT INTO a VALUES (1, 'p'), (2, 'q')").unwrap();
        s.execute("INSERT INTO b (x, y) SELECT x, y FROM a").unwrap();
        let rows = s.query("SELECT y FROM b ORDER BY x").unwrap();
        assert_eq!(rows[0].get(0).as_str(), Some("p"));
        // Unspecified columns become NULL.
        s.execute("INSERT INTO b (x) VALUES (3)").unwrap();
        let rows = s.query("SELECT y FROM b WHERE x = 3").unwrap();
        assert!(rows[0].get(0).is_null());
    }

    #[test]
    fn monitor_counts_statements() {
        let mut s = session();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        let _ = s.execute("SELECT * FROM missing_table");
        let m = s.database().monitor();
        assert_eq!(m.stats("CREATE").count, 1);
        assert_eq!(m.stats("INSERT").count, 1);
        assert_eq!(m.stats("SELECT").errors, 1);
    }

    #[test]
    fn connect_by_hierarchy() {
        let mut s = session();
        s.execute("CREATE TABLE org (emp VARCHAR(10), mgr VARCHAR(10))")
            .unwrap();
        s.execute(
            "INSERT INTO org VALUES ('ceo', NULL), ('vp1', 'ceo'), ('vp2', 'ceo'), \
             ('eng1', 'vp1'), ('eng2', 'vp1')",
        )
        .unwrap();
        s.set_dialect(Dialect::Oracle);
        let rows = s
            .query(
                "SELECT emp, LEVEL FROM org START WITH mgr IS NULL \
                 CONNECT BY PRIOR emp = mgr ORDER BY LEVEL, emp",
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].get(0).as_str(), Some("ceo"));
        assert_eq!(rows[0].get(1), &Datum::Int(1));
        assert_eq!(rows[4].get(1), &Datum::Int(3));
    }

    #[test]
    fn netezza_dialect_features() {
        let mut s = session();
        s.execute("CREATE TABLE t (a INT, b VARCHAR(10))").unwrap();
        s.execute("INSERT INTO t VALUES (1, 'aa'), (2, NULL), (3, 'cc')")
            .unwrap();
        s.set_dialect(Dialect::Netezza);
        let rows = s
            .query("SELECT a, b FROM t WHERE b NOTNULL ORDER BY a LIMIT 1 OFFSET 1")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Datum::Int(3));
        let rows = s.query("SELECT a::FLOAT8 FROM t ORDER BY 1 LIMIT 1").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Float(1.0));
    }

    #[test]
    fn decode_nvl_in_oracle_queries() {
        let mut s = session();
        s.execute("CREATE TABLE t (status INT, note VARCHAR(10))").unwrap();
        s.execute("INSERT INTO t VALUES (1, NULL), (2, 'hi')").unwrap();
        s.set_dialect(Dialect::Oracle);
        let rows = s
            .query(
                "SELECT DECODE(status, 1, 'on', 2, 'off', 'other'), NVL(note, '-') \
                 FROM t ORDER BY status",
            )
            .unwrap();
        assert_eq!(rows[0].get(0).as_str(), Some("on"));
        assert_eq!(rows[0].get(1).as_str(), Some("-"));
        assert_eq!(rows[1].get(0).as_str(), Some("off"));
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dash-db-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn explicit_transactions_commit_and_rollback() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut s = db.connect();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        // Read-your-writes inside the transaction.
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 2);
        // Invisible to a concurrent session until commit.
        let mut other = db.connect();
        assert_eq!(other.query("SELECT * FROM t").unwrap().len(), 0);
        s.execute("COMMIT").unwrap();
        assert_eq!(other.query("SELECT * FROM t").unwrap().len(), 2);
        // Rollback undoes everything since BEGIN.
        s.execute("BEGIN WORK").unwrap();
        s.execute("DELETE FROM t WHERE x = 1").unwrap();
        s.execute("INSERT INTO t VALUES (3)").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(other.query("SELECT * FROM t").unwrap().len(), 2);
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 2);
        let t = db.monitor().txn();
        assert!(t.txn_commits >= 1, "explicit commit counted");
        assert!(t.txn_aborts >= 1, "rollback counted");
    }

    #[test]
    fn snapshot_isolation_pins_reads_at_begin() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut writer = db.connect();
        writer.execute("CREATE TABLE t (x INT)").unwrap();
        writer.execute("INSERT INTO t VALUES (1)").unwrap();
        let mut reader = db.connect();
        reader.execute("START TRANSACTION").unwrap();
        assert_eq!(reader.query("SELECT * FROM t").unwrap().len(), 1);
        // A commit after the reader's snapshot stays invisible to it...
        writer.execute("INSERT INTO t VALUES (2)").unwrap();
        writer.execute("DELETE FROM t WHERE x = 1").unwrap();
        assert_eq!(
            reader.query("SELECT x FROM t").unwrap()[0].get(0),
            &Datum::Int(1),
            "reader still sees the row deleted after its snapshot"
        );
        // ...and appears once the reader starts a new transaction.
        reader.execute("COMMIT").unwrap();
        let rows = reader.query("SELECT x FROM t").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Datum::Int(2));
    }

    #[test]
    fn write_conflicts_are_first_writer_wins() {
        let db = Database::with_hardware(HardwareSpec::laptop());
        let mut a = db.connect();
        a.execute("CREATE TABLE t (x INT, v INT)").unwrap();
        a.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let mut b = db.connect();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("UPDATE t SET v = 11 WHERE x = 1").unwrap();
        let err = b.execute("UPDATE t SET v = 12 WHERE x = 1").unwrap_err();
        assert_eq!(err.class(), "40001", "serialization failure: {err}");
        assert!(db.monitor().txn().txn_conflicts >= 1);
        a.execute("COMMIT").unwrap();
        // The conflicted transaction rolled back; a retry in a fresh
        // transaction succeeds against the new state.
        assert!(!b.in_transaction(), "conflict rolled the transaction back");
        b.execute("UPDATE t SET v = 12 WHERE x = 1").unwrap();
        assert_eq!(
            a.query("SELECT v FROM t").unwrap()[0].get(0),
            &Datum::Int(12)
        );
    }

    #[test]
    fn durable_database_replays_wal_on_reopen() {
        let dir = tmpdir("replay");
        {
            let db = Database::open_with(
                &dir,
                HardwareSpec::laptop(),
                SyncPolicy::Commit,
                FaultRegistry::new(),
            )
            .unwrap();
            let mut s = db.connect();
            s.execute("CREATE TABLE t (id INT, v VARCHAR(10))").unwrap();
            s.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
                .unwrap();
            s.execute("UPDATE t SET v = 'bb' WHERE id = 2").unwrap();
            s.execute("DELETE FROM t WHERE id = 3").unwrap();
            // An uncommitted transaction must NOT survive the reopen.
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO t VALUES (9, 'zzz')").unwrap();
            // Dropped without commit.
        }
        let db = Database::open_with(
            &dir,
            HardwareSpec::laptop(),
            SyncPolicy::Commit,
            FaultRegistry::new(),
        )
        .unwrap();
        let mut s = db.connect();
        let rows = s.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(1).as_str(), Some("a"));
        assert_eq!(rows[1].get(1).as_str(), Some("bb"));
        assert!(db.monitor().txn().wal_records_replayed > 0);
        // New writes after recovery keep working.
        s.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_switches_generations_and_reopens() {
        let dir = tmpdir("ckptgen");
        {
            let db = Database::open_with(
                &dir,
                HardwareSpec::laptop(),
                SyncPolicy::Commit,
                FaultRegistry::new(),
            )
            .unwrap();
            let mut s = db.connect();
            s.execute("CREATE TABLE t (x INT)").unwrap();
            s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
            assert_eq!(db.checkpoint().unwrap(), 1);
            assert!(!dir.join("wal.0.log").exists(), "old log retired");
            // Post-checkpoint writes land in the new generation's log.
            s.execute("INSERT INTO t VALUES (3)").unwrap();
        }
        let db = Database::open_with(
            &dir,
            HardwareSpec::laptop(),
            SyncPolicy::Commit,
            FaultRegistry::new(),
        )
        .unwrap();
        assert_eq!(db.generation(), 1);
        let mut s = db.connect();
        assert_eq!(s.query("SELECT * FROM t").unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_mid_commit_loses_only_the_last_transaction() {
        use dash_common::faults::{FaultAction, FaultPolicy, WAL_COMMIT};
        let dir = tmpdir("midcommit");
        {
            let faults = FaultRegistry::new();
            let db = Database::open_with(
                &dir,
                HardwareSpec::laptop(),
                SyncPolicy::Commit,
                faults.clone(),
            )
            .unwrap();
            let mut s = db.connect();
            s.execute("CREATE TABLE t (x INT)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
            faults.arm(
                WAL_COMMIT,
                FaultPolicy::OneShot,
                FaultAction::Error("power cut".into()),
            );
            let err = s.execute("INSERT INTO t VALUES (2)").unwrap_err();
            assert!(err.to_string().contains("simulated crash"), "{err}");
        }
        let db = Database::open_with(
            &dir,
            HardwareSpec::laptop(),
            SyncPolicy::Commit,
            FaultRegistry::new(),
        )
        .unwrap();
        let mut s = db.connect();
        let rows = s.query("SELECT x FROM t").unwrap();
        assert_eq!(rows.len(), 1, "the unfinished commit never happened");
        assert_eq!(rows[0].get(0), &Datum::Int(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temporary_tables_stay_out_of_the_wal() {
        let dir = tmpdir("tempwal");
        {
            let db = Database::open_with(
                &dir,
                HardwareSpec::laptop(),
                SyncPolicy::Commit,
                FaultRegistry::new(),
            )
            .unwrap();
            let mut s = db.connect();
            s.set_dialect(Dialect::Netezza);
            s.execute("CREATE TEMP TABLE scratch (x INT)").unwrap();
            s.execute("INSERT INTO scratch VALUES (1)").unwrap();
            s.execute("CREATE TABLE perm (x INT)").unwrap();
            s.execute("INSERT INTO perm VALUES (7)").unwrap();
            s.close();
        }
        let db = Database::open_with(
            &dir,
            HardwareSpec::laptop(),
            SyncPolicy::Commit,
            FaultRegistry::new(),
        )
        .unwrap();
        let mut s = db.connect();
        assert_eq!(s.query("SELECT * FROM perm").unwrap().len(), 1);
        assert!(s.query("SELECT * FROM scratch").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let mut s = session();
        s.execute("CREATE TABLE l (a INT)").unwrap();
        s.execute("CREATE TABLE r (b INT)").unwrap();
        s.execute("INSERT INTO l VALUES (1)").unwrap();
        s.execute("INSERT INTO r VALUES (2)").unwrap();
        let rows = s.query("SELECT * FROM l CROSS JOIN r").unwrap();
        assert_eq!(rows[0].len(), 2);
        let rows = s.query("SELECT r.* FROM l CROSS JOIN r").unwrap();
        assert_eq!(rows[0].len(), 1);
        assert_eq!(rows[0].get(0), &Datum::Int(2));
    }
}
