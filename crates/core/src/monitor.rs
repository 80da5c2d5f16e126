//! Statement monitoring counters.
//!
//! The Docker image ships a web console with database monitoring history;
//! this is the counter store behind such a console: per-statement-kind
//! counts and cumulative wall time, cheap enough to update on every
//! statement.

use dash_common::StatementContext;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// One statement-kind's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    /// Statements executed.
    pub count: u64,
    /// Statements that failed.
    pub errors: u64,
    /// Cumulative execution wall time.
    pub total_time: Duration,
    /// Slowest single statement.
    pub max_time: Duration,
}

/// Recovery-path counters: what the resilient scatter-gather did to keep
/// a statement alive (retries, failovers) or to kill it cleanly
/// (deadline). The console view behind the Figure 9 repro.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Per-shard attempts retried after a transient fault.
    pub shard_retries: u64,
    /// Nodes declared dead and failed over mid-statement.
    pub failovers: u64,
    /// Shard attempts that stalled (injected or real stragglers).
    pub stragglers: u64,
    /// Statements cancelled because the per-statement deadline passed.
    pub deadline_kills: u64,
    /// Committed assignment-epoch bumps (every rebalance swap — failover,
    /// elastic grow/shrink, forced chaos rebalances). Metadata churn, not
    /// necessarily statement-visible.
    pub epoch_bumps: u64,
    /// Pending shards a statement re-drove under a newer assignment epoch
    /// than the one it had pinned (post-failover re-pin).
    pub stale_epoch_retries: u64,
    /// Scatter rounds whose work list mixed shards resolved from two
    /// different assignment epochs. Epoch pinning makes this structurally
    /// impossible; the counter is a regression tripwire and must stay 0.
    pub torn_epoch_rounds: u64,
    /// Statements that observed cancellation (deadline or external kill)
    /// and terminated with a classified `Cancelled` error.
    pub statements_cancelled: u64,
    /// Memory-budget reservations refused across all statements.
    pub budget_rejections: u64,
    /// Worst preemption latency any statement observed, in morsels
    /// completed after its token flipped. The claim-check contract bounds
    /// this at 1 per worker.
    pub cancel_latency_max_morsels: u64,
}

impl RecoveryStats {
    /// True when no recovery action was ever taken.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Transaction and durability counters: the console view behind the WAL,
/// crash-recovery, and snapshot-isolation subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions committed (explicit COMMIT and autocommit statements).
    pub txn_commits: u64,
    /// Transactions rolled back (explicit ROLLBACK, errors, session close).
    pub txn_aborts: u64,
    /// First-writer-wins conflicts raised (SQLSTATE 40001). A conflicted
    /// transaction also counts as an abort once it rolls back.
    pub txn_conflicts: u64,
    /// WAL records applied during the last crash recovery.
    pub wal_records_replayed: u64,
    /// Bytes of torn tail truncated from the WAL during the last recovery.
    pub recovery_truncated_bytes: u64,
    /// Commit batches flushed by a group-commit leader. One batch may
    /// carry many commits; `txn_commits / group_commit_batches` is the
    /// average group size.
    pub group_commit_batches: u64,
    /// Physical WAL syncs spent on the commit path. Group commit's whole
    /// point is `wal_fsyncs < txn_commits` under concurrency.
    pub wal_fsyncs: u64,
    /// Snapshot checkpoints completed.
    pub checkpoints: u64,
    /// WAL generation files reclaimed after a durable checkpoint.
    pub wal_segments_recycled: u64,
}

impl TxnStats {
    /// True when no transaction activity was recorded.
    pub fn is_clean(&self) -> bool {
        *self == TxnStats::default()
    }
}

/// Operate-on-compressed counters: how many join/group key evaluations ran
/// on encoded code words (all of them), and how much re-encoding the
/// code-domain path paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyPathStats {
    /// Input rows whose join/group keys were hashed and compared as
    /// fixed-width encoded words (no `Datum` in the loop).
    pub encoded_key_rows: u64,
    /// Build/partial-side rows translated into the other side's code
    /// domain instead of decoding the larger side.
    pub keys_reencoded_rows: u64,
}

impl KeyPathStats {
    /// True when no keyed operator has run.
    pub fn is_clean(&self) -> bool {
        *self == KeyPathStats::default()
    }
}

/// Pipeline-scheduler counters: how many query-wide pipelines ran, how
/// many breakers (builds, agg merges, sort seals) split them, and the
/// in-flight peaks the morsel window actually reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Pipelines driven to completion by the morsel scheduler.
    pub pipelines_run: u64,
    /// Pipeline breakers encountered (hash-join builds, aggregate merges,
    /// sort seals).
    pub pipeline_breakers: u64,
    /// Highest number of morsels simultaneously in flight in any drive.
    pub peak_inflight_morsels: u64,
    /// Highest bytes simultaneously resident (in-flight morsels plus
    /// frozen build tables) in any drive.
    pub peak_inflight_bytes: u64,
}

impl PipelineStats {
    /// True when no pipeline has run.
    pub fn is_clean(&self) -> bool {
        *self == PipelineStats::default()
    }
}

/// The monitoring store.
#[derive(Clone, Default)]
pub struct Monitor {
    inner: Arc<Mutex<BTreeMap<&'static str, KindStats>>>,
    recovery: Arc<Mutex<RecoveryStats>>,
    txn: Arc<Mutex<TxnStats>>,
    key_path: Arc<Mutex<KeyPathStats>>,
    pipeline: Arc<Mutex<PipelineStats>>,
    /// Assignment epochs still pinned by in-flight statements:
    /// epoch -> number of statements holding it. The lowest key is the GC
    /// watermark — no snapshot at or above it may be reclaimed.
    epoch_pins: Arc<Mutex<BTreeMap<u64, usize>>>,
}

impl Monitor {
    /// Fresh store.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Record one executed statement.
    pub fn record(&self, kind: &'static str, elapsed: Duration, ok: bool) {
        let mut m = self.inner.lock();
        let e = m.entry(kind).or_default();
        e.count += 1;
        if !ok {
            e.errors += 1;
        }
        e.total_time += elapsed;
        e.max_time = e.max_time.max(elapsed);
    }

    /// Counters for one statement kind.
    pub fn stats(&self, kind: &str) -> KindStats {
        self.inner.lock().get(kind).copied().unwrap_or_default()
    }

    /// Snapshot of every kind, sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, KindStats)> {
        self.inner.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Total statements across kinds.
    pub fn total_statements(&self) -> u64 {
        self.inner.lock().values().map(|v| v.count).sum()
    }

    /// Record a retried shard attempt.
    pub fn record_shard_retry(&self) {
        self.recovery.lock().shard_retries += 1;
    }

    /// Record a mid-statement node failover.
    pub fn record_failover(&self) {
        self.recovery.lock().failovers += 1;
    }

    /// Record a stalled (straggling) shard attempt.
    pub fn record_straggler(&self) {
        self.recovery.lock().stragglers += 1;
    }

    /// Record one committed assignment-epoch bump (a rebalance swap).
    pub fn record_epoch_bump(&self) {
        self.recovery.lock().epoch_bumps += 1;
    }

    /// Record `n` pending shards re-pinned to a newer assignment epoch.
    pub fn record_stale_epoch_retries(&self, n: u64) {
        self.recovery.lock().stale_epoch_retries += n;
    }

    /// Record a scatter round that mixed two assignment epochs (a bug).
    pub fn record_torn_epoch_round(&self) {
        self.recovery.lock().torn_epoch_rounds += 1;
    }

    /// Record a statement that died on its cancellation token: one
    /// cancelled statement, a deadline kill too when its deadline has
    /// passed, and its worst preemption latency (morsels completed after
    /// the flip) folded into the store-wide maximum.
    pub fn record_cancelled(&self, stmt: &StatementContext) {
        let mut r = self.recovery.lock();
        r.statements_cancelled += 1;
        r.deadline_kills += u64::from(stmt.remaining() == Some(Duration::ZERO));
        r.cancel_latency_max_morsels = r
            .cancel_latency_max_morsels
            .max(stmt.cancel_latency_max_morsels());
    }

    /// Record `n` refused memory-budget reservations.
    pub fn record_budget_rejections(&self, n: u64) {
        self.recovery.lock().budget_rejections += n;
    }

    /// A statement pinned assignment epoch `epoch` (scatter snapshot taken).
    pub fn record_epoch_pin(&self, epoch: u64) {
        *self.epoch_pins.lock().entry(epoch).or_insert(0) += 1;
    }

    /// A statement released its pin on `epoch` (finished, failed, or
    /// re-pinned to a newer epoch after a failover).
    pub fn record_epoch_unpin(&self, epoch: u64) {
        let mut pins = self.epoch_pins.lock();
        if let Some(n) = pins.get_mut(&epoch) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&epoch);
            }
        }
    }

    /// Epochs currently pinned by in-flight statements, ascending, with
    /// the number of statements holding each.
    pub fn pinned_epochs(&self) -> Vec<(u64, usize)> {
        self.epoch_pins.lock().iter().map(|(e, n)| (*e, *n)).collect()
    }

    /// The epoch-history GC watermark: the lowest epoch still pinned by an
    /// in-flight statement. Snapshots older than this are reclaimable;
    /// `None` means nothing is pinned (everything old is reclaimable).
    pub fn epoch_gc_watermark(&self) -> Option<u64> {
        self.epoch_pins.lock().keys().next().copied()
    }

    /// Snapshot of the recovery counters.
    pub fn recovery(&self) -> RecoveryStats {
        *self.recovery.lock()
    }

    /// Record a committed transaction.
    pub fn record_txn_commit(&self) {
        self.txn.lock().txn_commits += 1;
    }

    /// Record a rolled-back transaction.
    pub fn record_txn_abort(&self) {
        self.txn.lock().txn_aborts += 1;
    }

    /// Record a first-writer-wins conflict (SQLSTATE 40001).
    pub fn record_txn_conflict(&self) {
        self.txn.lock().txn_conflicts += 1;
    }

    /// Record the outcome of a crash recovery: WAL records applied and
    /// torn-tail bytes truncated.
    pub fn record_recovery(&self, records_replayed: u64, truncated_bytes: u64) {
        let mut t = self.txn.lock();
        t.wal_records_replayed += records_replayed;
        t.recovery_truncated_bytes += truncated_bytes;
    }

    /// Record one group-commit batch: the leader flushed `fsyncs`
    /// physical syncs (0 or 1 per batch, policy-dependent) covering the
    /// whole group.
    pub fn record_group_commit(&self, fsyncs: u64) {
        let mut t = self.txn.lock();
        t.group_commit_batches += 1;
        t.wal_fsyncs += fsyncs;
    }

    /// Record a completed snapshot checkpoint and how many old WAL
    /// generation files it recycled.
    pub fn record_checkpoint(&self, segments_recycled: u64) {
        let mut t = self.txn.lock();
        t.checkpoints += 1;
        t.wal_segments_recycled += segments_recycled;
    }

    /// Snapshot of the transaction/durability counters.
    pub fn txn(&self) -> TxnStats {
        *self.txn.lock()
    }

    /// Fold one statement's key-path counters into the store: rows keyed
    /// on encoded words, and rows re-encoded into the other side's code
    /// domain.
    pub fn record_key_path(&self, encoded: u64, reencoded: u64) {
        let mut k = self.key_path.lock();
        k.encoded_key_rows += encoded;
        k.keys_reencoded_rows += reencoded;
    }

    /// Snapshot of the operate-on-compressed key-path counters.
    pub fn key_path(&self) -> KeyPathStats {
        *self.key_path.lock()
    }

    /// Fold one statement's pipeline-scheduler counters into the store:
    /// pipelines run, breakers crossed, and the in-flight peaks (morsels
    /// and bytes) its drives reached.
    pub fn record_pipeline(&self, run: u64, breakers: u64, peak_morsels: u64, peak_bytes: u64) {
        let mut p = self.pipeline.lock();
        p.pipelines_run += run;
        p.pipeline_breakers += breakers;
        p.peak_inflight_morsels = p.peak_inflight_morsels.max(peak_morsels);
        p.peak_inflight_bytes = p.peak_inflight_bytes.max(peak_bytes);
    }

    /// Snapshot of the pipeline-scheduler counters.
    pub fn pipeline(&self) -> PipelineStats {
        *self.pipeline.lock()
    }

    /// Render the monitoring history as a small report.
    pub fn report(&self) -> String {
        let mut out = String::from("statement     count   errors   total_ms   max_ms\n");
        for (k, s) in self.snapshot() {
            out.push_str(&format!(
                "{:<12} {:>6} {:>8} {:>10.1} {:>8.1}\n",
                k,
                s.count,
                s.errors,
                s.total_time.as_secs_f64() * 1e3,
                s.max_time.as_secs_f64() * 1e3,
            ));
        }
        let r = self.recovery();
        if !r.is_clean() {
            out.push_str(&format!(
                "recovery: {} shard retries, {} failovers, {} stragglers, {} deadline kills, \
                 {} epoch bumps, {} stale-epoch retries, {} torn-epoch rounds, \
                 {} statements cancelled, {} budget rejections, \
                 cancel latency <= {} morsel(s)\n",
                r.shard_retries,
                r.failovers,
                r.stragglers,
                r.deadline_kills,
                r.epoch_bumps,
                r.stale_epoch_retries,
                r.torn_epoch_rounds,
                r.statements_cancelled,
                r.budget_rejections,
                r.cancel_latency_max_morsels,
            ));
        }
        let t = self.txn();
        if !t.is_clean() {
            out.push_str(&format!(
                "txn: {} commits, {} aborts, {} conflicts, \
                 {} wal records replayed, {} bytes truncated in recovery\n",
                t.txn_commits,
                t.txn_aborts,
                t.txn_conflicts,
                t.wal_records_replayed,
                t.recovery_truncated_bytes,
            ));
            if t.group_commit_batches > 0 || t.checkpoints > 0 {
                out.push_str(&format!(
                    "durability: {} group-commit batches, {} wal fsyncs, \
                     {} checkpoints, {} wal segments recycled\n",
                    t.group_commit_batches,
                    t.wal_fsyncs,
                    t.checkpoints,
                    t.wal_segments_recycled,
                ));
            }
        }
        let k = self.key_path();
        if !k.is_clean() {
            out.push_str(&format!(
                "key path: {} rows on encoded keys, {} rows re-encoded\n",
                k.encoded_key_rows, k.keys_reencoded_rows,
            ));
        }
        let p = self.pipeline();
        if !p.is_clean() {
            out.push_str(&format!(
                "pipelines: {} run, {} breakers, peak {} morsels / {} bytes in flight\n",
                p.pipelines_run,
                p.pipeline_breakers,
                p.peak_inflight_morsels,
                p.peak_inflight_bytes,
            ));
        }
        let pins = self.pinned_epochs();
        if !pins.is_empty() {
            let wm = self.epoch_gc_watermark().unwrap_or(0);
            out.push_str(&format!(
                "epoch pins (gc watermark {wm}):{}\n",
                pins.iter()
                    .map(|(e, n)| format!(" e{e}x{n}"))
                    .collect::<String>()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let m = Monitor::new();
        m.record("SELECT", Duration::from_millis(10), true);
        m.record("SELECT", Duration::from_millis(30), false);
        m.record("INSERT", Duration::from_millis(1), true);
        let s = m.stats("SELECT");
        assert_eq!(s.count, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.max_time, Duration::from_millis(30));
        assert_eq!(m.total_statements(), 3);
        let rep = m.report();
        assert!(rep.contains("SELECT"));
        assert!(rep.contains("INSERT"));
    }

    #[test]
    fn unknown_kind_is_zero() {
        let m = Monitor::new();
        assert_eq!(m.stats("DROP"), KindStats::default());
    }

    #[test]
    fn recovery_counters_accumulate_and_share() {
        let m = Monitor::new();
        assert!(m.recovery().is_clean());
        let clone = m.clone();
        clone.record_shard_retry();
        clone.record_shard_retry();
        m.record_failover();
        m.record_straggler();
        m.record_cancelled(&StatementContext::with_deadline(Duration::ZERO));
        m.record_epoch_bump();
        m.record_stale_epoch_retries(3);
        let r = m.recovery();
        assert_eq!(r.shard_retries, 2);
        assert_eq!(r.failovers, 1);
        assert_eq!(r.stragglers, 1);
        assert_eq!(r.deadline_kills, 1);
        assert_eq!(r.epoch_bumps, 1);
        assert_eq!(r.stale_epoch_retries, 3);
        assert_eq!(r.torn_epoch_rounds, 0, "tripwire never fires in tests");
        assert!(m.report().contains("recovery:"));
    }

    #[test]
    fn cancellation_counters_accumulate() {
        let m = Monitor::new();
        let late = StatementContext::unbounded();
        late.note_cancel_latency(1);
        late.cancel();
        m.record_cancelled(&late);
        let prompt = StatementContext::unbounded();
        prompt.cancel();
        m.record_cancelled(&prompt); // max, not last-write
        m.record_budget_rejections(2);
        let r = m.recovery();
        assert_eq!(r.statements_cancelled, 2);
        assert_eq!(r.deadline_kills, 0, "an explicit cancel is no deadline kill");
        assert_eq!(r.budget_rejections, 2);
        assert_eq!(r.cancel_latency_max_morsels, 1);
        assert!(!r.is_clean());
        let rep = m.report();
        assert!(rep.contains("2 statements cancelled"));
        assert!(rep.contains("2 budget rejections"));
    }

    #[test]
    fn key_path_counters_accumulate_and_report() {
        let m = Monitor::new();
        assert!(m.key_path().is_clean());
        m.record_key_path(100, 3);
        m.record_key_path(50, 0);
        let k = m.key_path();
        assert_eq!(k.encoded_key_rows, 150);
        assert_eq!(k.keys_reencoded_rows, 3);
        let rep = m.report();
        assert!(rep.contains("key path: 150 rows on encoded keys, 3 rows re-encoded"));
    }

    #[test]
    fn pipeline_counters_accumulate_and_report() {
        let m = Monitor::new();
        assert!(m.pipeline().is_clean());
        m.record_pipeline(2, 3, 8, 4096);
        m.record_pipeline(1, 1, 4, 8192); // peaks take the max, sums add
        let p = m.pipeline();
        assert_eq!(p.pipelines_run, 3);
        assert_eq!(p.pipeline_breakers, 4);
        assert_eq!(p.peak_inflight_morsels, 8);
        assert_eq!(p.peak_inflight_bytes, 8192);
        let rep = m.report();
        assert!(rep.contains("pipelines: 3 run, 4 breakers, peak 8 morsels / 8192 bytes in flight"));
    }

    #[test]
    fn txn_counters_accumulate_and_report() {
        let m = Monitor::new();
        assert!(m.txn().is_clean());
        let clone = m.clone();
        clone.record_txn_commit();
        clone.record_txn_commit();
        m.record_txn_abort();
        m.record_txn_conflict();
        m.record_recovery(17, 5);
        m.record_group_commit(1);
        m.record_group_commit(0);
        m.record_checkpoint(3);
        let t = m.txn();
        assert_eq!(t.txn_commits, 2);
        assert_eq!(t.txn_aborts, 1);
        assert_eq!(t.txn_conflicts, 1);
        assert_eq!(t.wal_records_replayed, 17);
        assert_eq!(t.recovery_truncated_bytes, 5);
        assert_eq!(t.group_commit_batches, 2);
        assert_eq!(t.wal_fsyncs, 1);
        assert_eq!(t.checkpoints, 1);
        assert_eq!(t.wal_segments_recycled, 3);
        let rep = m.report();
        assert!(rep.contains("txn: 2 commits, 1 aborts, 1 conflicts"));
        assert!(rep.contains("17 wal records replayed"));
        assert!(rep.contains("durability: 2 group-commit batches, 1 wal fsyncs, 1 checkpoints, 3 wal segments recycled"));
    }

    #[test]
    fn epoch_pin_registry_tracks_watermark() {
        let m = Monitor::new();
        assert_eq!(m.epoch_gc_watermark(), None);
        assert!(m.pinned_epochs().is_empty());
        m.record_epoch_pin(3);
        m.record_epoch_pin(3);
        m.record_epoch_pin(5);
        assert_eq!(m.epoch_gc_watermark(), Some(3));
        assert_eq!(m.pinned_epochs(), vec![(3, 2), (5, 1)]);
        assert!(m.report().contains("epoch pins (gc watermark 3): e3x2 e5x1"));
        m.record_epoch_unpin(3);
        assert_eq!(m.epoch_gc_watermark(), Some(3), "one pin still holds 3");
        m.record_epoch_unpin(3);
        assert_eq!(m.epoch_gc_watermark(), Some(5), "watermark advances");
        m.record_epoch_unpin(5);
        assert_eq!(m.epoch_gc_watermark(), None);
        // Unpinning an unknown epoch is a no-op, not a panic.
        m.record_epoch_unpin(99);
        assert!(m.pinned_epochs().is_empty());
    }
}
