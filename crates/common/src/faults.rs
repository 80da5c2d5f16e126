//! Deterministic fault injection.
//!
//! A [`FaultRegistry`] holds named **failpoints** that production code
//! evaluates at interesting moments (a filesystem mount, a per-shard
//! statement execution, a buffer-pool page read, a rebalance shard move).
//! Tests arm a failpoint with a [`FaultPolicy`] deciding *when* it fires
//! and a [`FaultAction`] deciding *what* happens — an injected error or an
//! injected stall (the slow-shard straggler). Disarmed registries cost one
//! relaxed atomic load per evaluation, so failpoints can stay in hot paths.
//!
//! # Determinism
//!
//! The registry is seeded: [`FaultPolicy::Probability`] draws from a
//! SplitMix64 stream owned by the registry, so a fixed seed plus a fixed
//! *evaluation order* replays the same fault schedule. Counting policies
//! (`EveryNth`, `OneShot`) are deterministic per site regardless of thread
//! interleaving; probability draws are deterministic only when the
//! evaluation order is (e.g. single-threaded sections, or one site per
//! thread). Chaos tests that need bit-for-bit replay should prefer the
//! counting policies or scoped sites.
//!
//! # Scoped sites
//!
//! [`FaultRegistry::evaluate_scoped`] consults `"{site}#{scope}"` before
//! the bare site, letting a test target one specific shard/node ("kill
//! shard 7's execution") while leaving the rest of the cluster healthy.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Failpoint: [`crate::faults`]-aware `ClusterFs::mount`.
pub const CLUSTERFS_MOUNT: &str = "clusterfs::mount";
/// Failpoint: one shard's statement execution inside scatter-gather.
pub const SHARD_EXEC: &str = "mpp::shard_exec";
/// Failpoint: evaluated by the MPP coordinator after the scatter, before
/// it loads the gathered shard results and runs the final statement.
/// `Stall` sleeps under the statement's token — the deterministic way to
/// expire a deadline between gather and merge.
pub const GATHER_LOAD: &str = "mpp::gather_load";
/// Failpoint: a node crashes while executing a shard (declared dead).
pub const NODE_CRASH: &str = "mpp::node_crash";
/// Failpoint: moving one shard during a rebalance pass.
pub const SHARD_MOVE: &str = "ha::shard_move";
/// Failpoint: evaluated by the scatter coordinator between failover
/// rounds; any armed action forces a full rebalance (an assignment-epoch
/// bump) before the next round runs. `Stall` sleeps first, then
/// rebalances. This is the deterministic repro for the
/// rebalance-races-scatter window that epoch pinning closes.
pub const REBALANCE_DURING_SCATTER: &str = "rebalance.during_scatter";
/// Failpoint: faulting a page in from the simulated I/O device.
pub const PAGE_READ: &str = "storage::page_read";
/// Failpoint: appending a framed record to the write-ahead log. An
/// `Error` action simulates a crash mid-write: a torn prefix of the
/// frame reaches the file and the log refuses all further writes.
pub const WAL_APPEND: &str = "wal.append";
/// Failpoint: the fsync that makes buffered WAL records durable. An
/// `Error` action simulates power loss before the sync: buffered
/// (unsynced) records are dropped and the log goes dead.
pub const WAL_FSYNC: &str = "wal.fsync";
/// Failpoint: evaluated just before the commit record is appended.
/// An `Error` action kills the process image between the data records
/// and the commit — recovery must roll the transaction back.
pub const WAL_COMMIT: &str = "wal.commit";
/// Failpoint: creating a fresh WAL generation file (the first step of a
/// checkpoint's generation switch). An `Error` action makes the create
/// fail *without* touching the live log: the checkpoint must abort
/// cleanly and commits must keep flowing to the old generation.
pub const WAL_CREATE: &str = "wal.create";
/// Failpoint: evaluated by the group-commit leader after a commit record
/// is durable but before the transaction's rows are stamped with the
/// commit timestamp. An `Error` action forces the memory-vs-log
/// divergence path: the database must poison itself rather than undo a
/// transaction the log already promises.
pub const TXN_STAMP: &str = "txn.stamp";
/// Failpoint: evaluated by `Database::checkpoint` after the generation
/// switch, before table capture. `Stall` widens the window in which DDL
/// and commits race the capture; `Error` aborts the checkpoint after the
/// new generation already exists (recovery must chain both logs).
pub const CKPT_CAPTURE: &str = "checkpoint.capture";

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPolicy {
    /// Fire on every evaluation.
    Always,
    /// Fire on the first evaluation, then never again.
    OneShot,
    /// Fire on the `n`-th, `2n`-th, ... evaluation (`n >= 1`).
    EveryNth(u64),
    /// Fire with this probability per evaluation, drawn from the
    /// registry's seeded stream.
    Probability(f64),
}

/// What a fired failpoint injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// The instrumented operation must fail with this message.
    Error(String),
    /// The instrumented operation must stall this long before continuing
    /// (models a straggling shard / slow device, not a failure).
    Stall(Duration),
}

/// Per-site counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Times the site was evaluated while armed.
    pub evaluations: u64,
    /// Times the site fired.
    pub fires: u64,
}

struct Failpoint {
    policy: FaultPolicy,
    action: FaultAction,
    stats: FaultStats,
    spent: bool,
}

#[derive(Default)]
struct State {
    rng: u64,
    points: BTreeMap<String, Failpoint>,
}

impl State {
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn evaluate(&mut self, site: &str) -> Option<FaultAction> {
        // Decide whether to fire without holding a borrow on the point,
        // because the probability draw needs `&mut self.rng`.
        let fires = {
            let point = self.points.get_mut(site)?;
            if point.spent {
                return None;
            }
            point.stats.evaluations += 1;
            match point.policy {
                FaultPolicy::Always => true,
                FaultPolicy::OneShot => true,
                FaultPolicy::EveryNth(n) => {
                    let n = n.max(1);
                    point.stats.evaluations.is_multiple_of(n)
                }
                FaultPolicy::Probability(_) => false, // decided below
            }
        };
        let fires = if let FaultPolicy::Probability(p) =
            self.points.get(site).expect("checked above").policy
        {
            let draw = self.next_u64() >> 11;
            (draw as f64) * (1.0 / (1u64 << 53) as f64) < p
        } else {
            fires
        };
        if !fires {
            return None;
        }
        let point = self.points.get_mut(site).expect("checked above");
        point.stats.fires += 1;
        if point.policy == FaultPolicy::OneShot {
            point.spent = true;
        }
        Some(point.action.clone())
    }
}

/// A seeded, thread-safe registry of named failpoints.
///
/// Cloning is cheap and shares the same registry (Arc inside), so one
/// registry can be handed to every layer of a cluster under test.
#[derive(Clone, Default)]
pub struct FaultRegistry {
    inner: Arc<Inner>,
}

#[derive(Default)]
struct Inner {
    armed: AtomicBool,
    state: Mutex<State>,
}

impl fmt::Debug for FaultRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultRegistry")
            .field("armed", &self.is_armed())
            .finish_non_exhaustive()
    }
}

impl FaultRegistry {
    /// A disarmed registry seeded with 0.
    pub fn new() -> FaultRegistry {
        FaultRegistry::default()
    }

    /// A disarmed registry with an explicit probability-stream seed.
    pub fn with_seed(seed: u64) -> FaultRegistry {
        let reg = FaultRegistry::default();
        reg.lock().rng = seed;
        reg
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `site` with a policy and action, replacing any previous arming.
    pub fn arm(&self, site: impl Into<String>, policy: FaultPolicy, action: FaultAction) {
        let mut st = self.lock();
        st.points.insert(
            site.into(),
            Failpoint {
                policy,
                action,
                stats: FaultStats::default(),
                spent: false,
            },
        );
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Disarm one site. Counters for it are discarded.
    pub fn disarm(&self, site: &str) {
        let mut st = self.lock();
        st.points.remove(site);
        if st.points.is_empty() {
            self.inner.armed.store(false, Ordering::Release);
        }
    }

    /// Disarm every site.
    pub fn disarm_all(&self) {
        let mut st = self.lock();
        st.points.clear();
        self.inner.armed.store(false, Ordering::Release);
    }

    /// True when at least one site is armed (spent one-shots included).
    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::Acquire)
    }

    /// Evaluate a failpoint. Returns the action to apply when it fires.
    ///
    /// This is the zero-cost-when-disarmed entry: a single relaxed atomic
    /// load guards the slow path.
    #[inline]
    pub fn evaluate(&self, site: &str) -> Option<FaultAction> {
        if !self.inner.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.lock().evaluate(site)
    }

    /// Evaluate `"{site}#{scope}"` first, then the bare `site`, so tests
    /// can target one shard/node without touching the others.
    #[inline]
    pub fn evaluate_scoped(&self, site: &str, scope: u32) -> Option<FaultAction> {
        if !self.inner.armed.load(Ordering::Relaxed) {
            return None;
        }
        let mut st = self.lock();
        if let Some(action) = st.evaluate(&format!("{site}#{scope}")) {
            return Some(action);
        }
        st.evaluate(site)
    }

    /// The scoped name `evaluate_scoped` consults before the bare site.
    pub fn scoped(site: &str, scope: u32) -> String {
        format!("{site}#{scope}")
    }

    /// Counters for one site (zeros when never armed).
    pub fn stats(&self, site: &str) -> FaultStats {
        self.lock()
            .points
            .get(site)
            .map(|p| p.stats)
            .unwrap_or_default()
    }

    /// Every armed site with its counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, FaultStats)> {
        self.lock()
            .points
            .iter()
            .map(|(k, p)| (k.clone(), p.stats))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_silent() {
        let reg = FaultRegistry::new();
        assert!(!reg.is_armed());
        assert_eq!(reg.evaluate(SHARD_EXEC), None);
        assert_eq!(reg.stats(SHARD_EXEC), FaultStats::default());
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let reg = FaultRegistry::new();
        reg.arm(SHARD_EXEC, FaultPolicy::OneShot, FaultAction::Error("boom".into()));
        assert_eq!(
            reg.evaluate(SHARD_EXEC),
            Some(FaultAction::Error("boom".into()))
        );
        for _ in 0..10 {
            assert_eq!(reg.evaluate(SHARD_EXEC), None);
        }
        let s = reg.stats(SHARD_EXEC);
        assert_eq!(s.fires, 1);
        assert_eq!(s.evaluations, 1, "spent one-shots stop counting");
    }

    #[test]
    fn every_nth_pattern() {
        let reg = FaultRegistry::new();
        reg.arm(PAGE_READ, FaultPolicy::EveryNth(3), FaultAction::Error("io".into()));
        let fired: Vec<bool> = (0..9).map(|_| reg.evaluate(PAGE_READ).is_some()).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(reg.stats(PAGE_READ).fires, 3);
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let run = |seed| -> Vec<bool> {
            let reg = FaultRegistry::with_seed(seed);
            reg.arm(SHARD_EXEC, FaultPolicy::Probability(0.5), FaultAction::Error("p".into()));
            (0..64).map(|_| reg.evaluate(SHARD_EXEC).is_some()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same schedule");
        assert_ne!(run(42), run(43), "different seed, different schedule");
        let fires = run(42).iter().filter(|f| **f).count();
        assert!((10..55).contains(&fires), "p=0.5 over 64 draws: {fires}");
    }

    #[test]
    fn scoped_beats_bare_and_falls_back() {
        let reg = FaultRegistry::new();
        reg.arm(
            FaultRegistry::scoped(SHARD_EXEC, 7),
            FaultPolicy::Always,
            FaultAction::Error("only shard 7".into()),
        );
        assert_eq!(reg.evaluate_scoped(SHARD_EXEC, 3), None);
        assert_eq!(
            reg.evaluate_scoped(SHARD_EXEC, 7),
            Some(FaultAction::Error("only shard 7".into()))
        );
        // Bare site applies to every scope once armed.
        reg.arm(SHARD_EXEC, FaultPolicy::Always, FaultAction::Stall(Duration::from_millis(1)));
        assert_eq!(
            reg.evaluate_scoped(SHARD_EXEC, 3),
            Some(FaultAction::Stall(Duration::from_millis(1)))
        );
    }

    #[test]
    fn disarm_clears() {
        let reg = FaultRegistry::new();
        reg.arm(CLUSTERFS_MOUNT, FaultPolicy::Always, FaultAction::Error("x".into()));
        reg.arm(SHARD_MOVE, FaultPolicy::Always, FaultAction::Error("y".into()));
        reg.disarm(CLUSTERFS_MOUNT);
        assert!(reg.is_armed());
        assert_eq!(reg.evaluate(CLUSTERFS_MOUNT), None);
        assert!(reg.evaluate(SHARD_MOVE).is_some());
        reg.disarm_all();
        assert!(!reg.is_armed());
        assert_eq!(reg.evaluate(SHARD_MOVE), None);
    }

    #[test]
    fn clones_share_state() {
        let reg = FaultRegistry::new();
        let clone = reg.clone();
        reg.arm(NODE_CRASH, FaultPolicy::OneShot, FaultAction::Error("die".into()));
        assert!(clone.evaluate(NODE_CRASH).is_some());
        assert_eq!(reg.stats(NODE_CRASH).fires, 1);
    }
}
