//! Per-statement lifecycle control: cancellation tokens and memory budgets.
//!
//! The paper sells dashDB Local as predictable under concurrent analytic
//! load (§II.A workload management; Table 1 Test 2 runs 100 streams).
//! Predictability needs *preemption*: a statement that blows its deadline
//! or its memory budget has to stop where it stands — inside a scan
//! stride, a join partition, a simulated-I/O stall — not at the next
//! coordinator round boundary.
//!
//! [`StatementContext`] is the spine for that. It is created once per
//! statement (by `Session::execute` on a single node, by
//! `Cluster::query_with_deadline` in MPP), cloned freely (one `Arc`
//! bump), and consulted at every long-running check site:
//!
//! * the morsel pool checks it before **claiming each morsel**, so scan,
//!   aggregate, join, and sort observe cancellation within one morsel;
//! * the buffer pool polls it inside simulated-I/O stalls (sliced to
//!   ~1 ms), so a deadline kill never waits out a stalled page read;
//! * the WLM queue polls it while a statement waits for a slot;
//! * MPP shard attempts run as morsels of the same pool, and their stalls
//!   and retry backoff sleep via `sleep_cancellable`.
//!
//! The token is **deadline-armed**: `is_cancelled` returns true once the
//! deadline passes even if nobody called [`StatementContext::cancel`], so
//! it is the statement's one clock — no timer thread watches beside it.
//! The flag is latched on first observation, making subsequent checks a
//! single relaxed atomic load.
//!
//! The memory budget is a shared atomic high-water account: operators
//! [`try_reserve`](StatementContext::try_reserve) their hash-table and
//! partition allocations and get a classified
//! [`DashError::ResourceExhausted`] when the statement would exceed its
//! budget — a clean abort instead of unbounded growth. [`BudgetLease`]
//! gives operators RAII release so an abort (error or cancellation)
//! returns every reserved byte.

use crate::error::{DashError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Granularity at which cancellable sleeps poll the token. 1 ms keeps a
/// deadline kill from waiting out an injected multi-millisecond stall
/// while staying far coarser than the scheduler tick.
pub const STALL_POLL: Duration = Duration::from_millis(1);

#[derive(Debug)]
struct StatementInner {
    /// Latched cancellation flag (explicit cancel or the first observation
    /// of an expired deadline).
    cancelled: AtomicBool,
    /// Absolute deadline; `None` = never expires on its own.
    deadline: Option<Instant>,
    /// Memory budget in bytes; `u64::MAX` = unlimited.
    budget_limit: u64,
    /// Bytes currently reserved against the budget.
    budget_used: AtomicU64,
    /// Highest `budget_used` ever observed: the statement's peak reserved
    /// footprint. Only tracked when a budget limit is set (like
    /// `budget_used`), so unlimited statements stay on the fast path.
    budget_high_water: AtomicU64,
    /// Reservations refused because they would exceed the budget.
    budget_rejections: AtomicU64,
    /// Worst preemption latency observed, in morsels: the maximum number
    /// of morsels any pool worker *completed* after the token flipped.
    /// The claim-check contract bounds this at 1 (only the morsel already
    /// in flight may finish); tests assert it.
    cancel_latency_max_morsels: AtomicU64,
}

/// A cheap, cloneable per-statement cancellation token + memory budget.
///
/// See the [module docs](self) for the lifecycle it models. `Clone` is an
/// `Arc` bump; all methods are thread-safe.
#[derive(Debug, Clone)]
pub struct StatementContext {
    inner: Arc<StatementInner>,
}

impl Default for StatementContext {
    fn default() -> Self {
        StatementContext::unbounded()
    }
}

impl StatementContext {
    fn build(deadline: Option<Instant>, budget: Option<u64>) -> StatementContext {
        StatementContext {
            inner: Arc::new(StatementInner {
                cancelled: AtomicBool::new(false),
                deadline,
                budget_limit: budget.unwrap_or(u64::MAX),
                budget_used: AtomicU64::new(0),
                budget_high_water: AtomicU64::new(0),
                budget_rejections: AtomicU64::new(0),
                cancel_latency_max_morsels: AtomicU64::new(0),
            }),
        }
    }

    /// A context with no deadline and no budget: never cancels on its own
    /// (though [`cancel`](Self::cancel) still works) and never rejects a
    /// reservation. The default for paths that predate lifecycle control.
    pub fn unbounded() -> StatementContext {
        StatementContext::build(None, None)
    }

    /// A shared process-wide unbounded context, for hot paths that need a
    /// `&StatementContext` but have no statement (background maintenance,
    /// direct storage access). Avoids an allocation per call.
    pub fn ambient() -> &'static StatementContext {
        static AMBIENT: OnceLock<StatementContext> = OnceLock::new();
        AMBIENT.get_or_init(StatementContext::unbounded)
    }

    /// A context that self-cancels `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> StatementContext {
        StatementContext::build(Instant::now().checked_add(deadline), None)
    }

    /// A context with a memory budget of `bytes` and no deadline.
    pub fn with_budget(bytes: u64) -> StatementContext {
        StatementContext::build(None, Some(bytes))
    }

    /// A context with an optional deadline and an optional budget — the
    /// general constructor sessions use.
    pub fn with_limits(deadline: Option<Duration>, budget: Option<u64>) -> StatementContext {
        StatementContext::build(
            deadline.and_then(|d| Instant::now().checked_add(d)),
            budget,
        )
    }

    /// Flip the token. Idempotent; every subsequent
    /// [`is_cancelled`](Self::is_cancelled) returns true.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Has the statement been cancelled (explicitly or by its deadline)?
    ///
    /// Deadline-armed: the first check past the deadline latches the flag,
    /// so no other thread has to watch the clock.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(dl) = self.inner.deadline {
            if Instant::now() >= dl {
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// [`is_cancelled`](Self::is_cancelled) as a `Result`:
    /// `Err(DashError::Cancelled)` once the token has flipped.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(DashError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// The absolute deadline, if one is armed.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time left before the deadline (`None` = no deadline; zero once
    /// passed). The WLM admission gate spends queue wait against this.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|dl| dl.saturating_duration_since(Instant::now()))
    }

    /// Sleep for `d`, polling the token every [`STALL_POLL`] so a
    /// cancelled statement never waits out the stall. Returns
    /// `Err(DashError::Cancelled)` if the token flips mid-sleep.
    pub fn sleep_cancellable(&self, d: Duration) -> Result<()> {
        let end = Instant::now() + d;
        loop {
            self.check()?;
            let now = Instant::now();
            if now >= end {
                return Ok(());
            }
            std::thread::sleep((end - now).min(STALL_POLL));
        }
    }

    /// Reserve `bytes` against the statement's memory budget. Refuses with
    /// a classified [`DashError::ResourceExhausted`] (and counts the
    /// rejection) when the reservation would exceed the budget; the
    /// account is left untouched on refusal.
    pub fn try_reserve(&self, bytes: u64) -> Result<()> {
        if self.inner.budget_limit == u64::MAX {
            return Ok(());
        }
        let mut used = self.inner.budget_used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_add(bytes);
            if new > self.inner.budget_limit {
                self.inner.budget_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(DashError::ResourceExhausted(format!(
                    "statement memory budget exceeded: {} B reserved + {} B requested > {} B limit",
                    used, bytes, self.inner.budget_limit
                )));
            }
            match self.inner.budget_used.compare_exchange_weak(
                used,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner
                        .budget_high_water
                        .fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => used = actual,
            }
        }
    }

    /// Return `bytes` to the budget (saturating; over-release is clamped).
    pub fn release(&self, bytes: u64) {
        if self.inner.budget_limit == u64::MAX {
            return;
        }
        let mut used = self.inner.budget_used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_sub(bytes);
            match self.inner.budget_used.compare_exchange_weak(
                used,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => used = actual,
            }
        }
    }

    /// Bytes currently reserved.
    pub fn budget_used(&self) -> u64 {
        self.inner.budget_used.load(Ordering::Relaxed)
    }

    /// Peak bytes ever reserved simultaneously. Zero for unlimited
    /// statements (the budget account is not tracked without a limit).
    pub fn budget_high_water(&self) -> u64 {
        self.inner.budget_high_water.load(Ordering::Relaxed)
    }

    /// Reservations refused so far.
    pub fn budget_rejections(&self) -> u64 {
        self.inner.budget_rejections.load(Ordering::Relaxed)
    }

    /// Record a worker's preemption latency (morsels it completed after
    /// the token flipped); keeps the maximum.
    pub fn note_cancel_latency(&self, morsels: u64) {
        self.inner
            .cancel_latency_max_morsels
            .fetch_max(morsels, Ordering::Relaxed);
    }

    /// Worst preemption latency observed so far, in morsels.
    pub fn cancel_latency_max_morsels(&self) -> u64 {
        self.inner.cancel_latency_max_morsels.load(Ordering::Relaxed)
    }
}

/// RAII budget reservation: charges grow the lease, drop returns every
/// reserved byte — including on error and cancellation unwinds, so an
/// aborted operator can never leak budget into the next one.
#[derive(Debug)]
pub struct BudgetLease {
    ctx: StatementContext,
    held: u64,
}

impl BudgetLease {
    /// An empty lease against `ctx`.
    pub fn new(ctx: &StatementContext) -> BudgetLease {
        BudgetLease {
            ctx: ctx.clone(),
            held: 0,
        }
    }

    /// Reserve `bytes` more; classified refusal leaves the lease intact.
    pub fn charge(&mut self, bytes: u64) -> Result<()> {
        self.ctx.try_reserve(bytes)?;
        self.held += bytes;
        Ok(())
    }

    /// Bytes this lease holds.
    pub fn held(&self) -> u64 {
        self.held
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.ctx.release(self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_cancels_or_rejects() {
        let ctx = StatementContext::unbounded();
        assert!(!ctx.is_cancelled());
        ctx.check().unwrap();
        ctx.try_reserve(u64::MAX).unwrap();
        assert_eq!(ctx.budget_used(), 0, "unlimited budget is not tracked");
        assert_eq!(ctx.remaining(), None);
    }

    #[test]
    fn explicit_cancel_latches_through_clones() {
        let ctx = StatementContext::unbounded();
        let clone = ctx.clone();
        clone.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.check().unwrap_err(), DashError::Cancelled);
    }

    #[test]
    fn deadline_arms_the_token() {
        let ctx = StatementContext::with_deadline(Duration::from_millis(5));
        assert!(!ctx.is_cancelled(), "fresh deadline has not passed");
        std::thread::sleep(Duration::from_millis(10));
        assert!(ctx.is_cancelled(), "expired deadline flips the token");
        // Latched: remaining() is zero, checks stay cancelled.
        assert_eq!(ctx.remaining(), Some(Duration::ZERO));
        assert!(ctx.check().is_err());
    }

    #[test]
    fn budget_accounting_and_classified_refusal() {
        let ctx = StatementContext::with_budget(1000);
        ctx.try_reserve(600).unwrap();
        ctx.try_reserve(400).unwrap();
        let err = ctx.try_reserve(1).unwrap_err();
        assert_eq!(err.class(), "53200", "classified OOM: {err}");
        assert_eq!(ctx.budget_rejections(), 1);
        // Refusal does not consume budget; release frees it.
        assert_eq!(ctx.budget_used(), 1000);
        ctx.release(500);
        ctx.try_reserve(500).unwrap();
        assert_eq!(ctx.budget_used(), 1000);
        assert_eq!(ctx.budget_high_water(), 1000, "peak tracked across release");
        ctx.release(1000);
        assert_eq!(ctx.budget_high_water(), 1000, "release never lowers the peak");
    }

    #[test]
    fn lease_returns_bytes_on_drop() {
        let ctx = StatementContext::with_budget(1000);
        {
            let mut lease = BudgetLease::new(&ctx);
            lease.charge(800).unwrap();
            assert!(lease.charge(300).is_err(), "over budget");
            assert_eq!(lease.held(), 800, "failed charge not added");
            assert_eq!(ctx.budget_used(), 800);
        }
        assert_eq!(ctx.budget_used(), 0, "drop released the lease");
        ctx.try_reserve(1000).unwrap();
    }

    #[test]
    fn cancellable_sleep_preempts() {
        let ctx = StatementContext::unbounded();
        let c = ctx.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            c.cancel();
        });
        let start = Instant::now();
        let err = ctx.sleep_cancellable(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, DashError::Cancelled);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stall must not be waited out: {:?}",
            start.elapsed()
        );
        t.join().unwrap();
    }

    #[test]
    fn cancellable_sleep_completes_when_alive() {
        let ctx = StatementContext::unbounded();
        let start = Instant::now();
        ctx.sleep_cancellable(Duration::from_millis(5)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn cancel_latency_keeps_max() {
        let ctx = StatementContext::unbounded();
        ctx.note_cancel_latency(0);
        ctx.note_cancel_latency(1);
        ctx.note_cancel_latency(0);
        assert_eq!(ctx.cancel_latency_max_morsels(), 1);
    }
}
