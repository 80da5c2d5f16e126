//! Workload management.
//!
//! The auto-configuration sizes an admission limit for concurrent
//! heavyweight queries (§II.A lists "workload management infrastructure"
//! among the automatically configured subsystems). Queries above the limit
//! queue; the concurrent-workload benchmark (Table 1, Test 2) runs its 100
//! streams through this gate.

use dash_common::statement::STALL_POLL;
use dash_common::{DashError, Result, StatementContext};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct WlmState {
    running: u32,
    queued: u32,
    peak_running: u32,
    peak_queued: u32,
    admitted_total: u64,
}

/// Admission-control gate.
#[derive(Clone)]
pub struct WorkloadManager {
    limit: u32,
    state: Arc<(Mutex<WlmState>, Condvar)>,
}

/// RAII admission ticket; releases the slot on drop.
pub struct Admission {
    wlm: WorkloadManager,
}

impl WorkloadManager {
    /// Gate admitting up to `limit` concurrent queries.
    pub fn new(limit: u32) -> WorkloadManager {
        WorkloadManager {
            limit: limit.max(1),
            state: Arc::new((Mutex::new(WlmState::default()), Condvar::new())),
        }
    }

    /// The admission limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Occupy a slot for `stmt`, queueing while the gate is full. The
    /// queue wait is the statement's: it wakes on a freed slot, at the
    /// deadline or every [`STALL_POLL`]. A statement whose token has
    /// flipped (deadline or explicit cancel), before or while it queues,
    /// leaves with `Err(DashError::Cancelled)`, never having occupied a
    /// slot.
    pub fn admit(&self, stmt: &StatementContext) -> Result<Admission> {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock();
        st.queued += 1;
        st.peak_queued = st.peak_queued.max(st.queued);
        loop {
            if stmt.is_cancelled() {
                st.queued -= 1;
                return Err(DashError::Cancelled);
            }
            if st.running < self.limit {
                break;
            }
            let poll = Instant::now() + STALL_POLL;
            cv.wait_until(&mut st, stmt.deadline().map_or(poll, |dl| dl.min(poll)));
        }
        st.queued -= 1;
        st.running += 1;
        st.peak_running = st.peak_running.max(st.running);
        st.admitted_total += 1;
        Ok(Admission { wlm: self.clone() })
    }

    /// (running, queued, peak_running, peak_queued, admitted_total).
    pub fn snapshot(&self) -> (u32, u32, u32, u32, u64) {
        let st = self.state.0.lock();
        (
            st.running,
            st.queued,
            st.peak_running,
            st.peak_queued,
            st.admitted_total,
        )
    }
}

impl Drop for Admission {
    fn drop(&mut self) {
        let (lock, cv) = &*self.wlm.state;
        let mut st = lock.lock();
        st.running -= 1;
        cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn respects_limit_under_contention() {
        let wlm = WorkloadManager::new(4);
        let mut handles = Vec::new();
        for _ in 0..32 {
            let w = wlm.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _ticket = w.admit(StatementContext::ambient()).unwrap();
                    std::hint::black_box(());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (running, queued, peak_running, _, admitted) = wlm.snapshot();
        assert_eq!(running, 0);
        assert_eq!(queued, 0);
        assert!(peak_running <= 4, "peak {peak_running} exceeded the limit");
        assert_eq!(admitted, 32 * 50);
    }

    #[test]
    fn full_gate_refuses_a_cancelled_token_at_once() {
        let wlm = WorkloadManager::new(1);
        let hold = wlm.admit(StatementContext::ambient()).unwrap();
        let cancelled = StatementContext::unbounded();
        cancelled.cancel();
        let start = Instant::now();
        assert_eq!(wlm.admit(&cancelled).err(), Some(DashError::Cancelled));
        assert!(start.elapsed() < Duration::from_secs(1), "refusal must not wait");
        assert_eq!(wlm.snapshot().1, 0, "refused waiter must leave the queue");
        drop(hold);
        assert!(wlm.admit(StatementContext::ambient()).is_ok());
    }

    #[test]
    fn deadline_token_times_out_and_leaves_the_queue() {
        let wlm = WorkloadManager::new(1);
        let _hold = wlm.admit(StatementContext::ambient()).unwrap();
        let stmt = StatementContext::with_deadline(Duration::from_millis(20));
        assert_eq!(wlm.admit(&stmt).err(), Some(DashError::Cancelled));
        let (running, queued, ..) = wlm.snapshot();
        assert_eq!((running, queued), (1, 0), "timed-out waiter must leave the queue");
    }
}
