//! Morsel-driven shared worker pool (§II.B of the paper: "parallelism
//! achieved by scheduling strides of data to multiple threads running on
//! different processor cores").
//!
//! Operators describe their work as `n` independent **morsels** — a stride
//! to evaluate, a stride of survivors to materialize, a hash partition to
//! build and probe — and [`run_morsels`] fans them out over a scoped worker
//! pool. Workers **claim** morsels one at a time from a shared atomic
//! counter instead of receiving a contiguous pre-split chunk. That matters
//! because synopsis skipping clusters the surviving strides: with a static
//! split one worker can end up owning all the survivors while the rest idle
//! on pruned ranges. Claiming keeps every worker busy until the pool of
//! morsels is dry, whatever the skew.
//!
//! Determinism: results are returned **in morsel-index order**, regardless
//! of which worker processed which morsel, so callers that merge results
//! sequentially produce output byte-identical to a serial run.
//!
//! Errors: the first `Err` a worker hits aborts the run — remaining workers
//! stop claiming and the error is propagated to the caller. Panics are
//! caught around each morsel, serial or parallel, and converted to a
//! classified [`DashError::internal`] instead of poisoning the process.
//!
//! There is one driver, [`run_morsels_fold`]; [`run_morsels`] is the same
//! drive with a window as wide as the run and a fold that collects.
//!
//! Cancellation: every claim first consults the statement's
//! [`StatementContext`]. A flipped token aborts the run with
//! [`DashError::Cancelled`] before any further morsel starts, so the
//! preemption latency of the whole operator tree is bounded by **one
//! morsel** — the one already in flight when the token flipped. Workers
//! report how many morsels they completed after the flip via
//! [`StatementContext::note_cancel_latency`]; the claim-check contract
//! keeps that at ≤ 1 per worker and tests assert it.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dash_common::{DashError, Result, StatementContext};

/// The outcome of one [`run_morsels`] fan-out.
#[derive(Debug)]
pub struct MorselRun<T> {
    /// Per-morsel results, in morsel-index order (0..n).
    pub results: Vec<T>,
    /// How many morsels were dispatched (== `n` on success).
    pub morsels_dispatched: u64,
    /// The fan-out width: how many workers the run spawned. `1` for a
    /// serial (inline) run, `0` when there was no work at all. Spawn width
    /// rather than claimed-at-least-one so the counter is deterministic —
    /// on a loaded (or single-core) host one eager worker can drain every
    /// morsel before its siblings are even scheduled.
    pub workers_used: u64,
}

/// Render a caught panic payload as a human-readable message.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    }
}

/// Run one morsel, turning a panic into a classified internal error.
fn run_caught<T>(morsel: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(AssertUnwindSafe(morsel)).unwrap_or_else(|p| {
        Err(DashError::internal(format!(
            "pipeline worker panicked: {}",
            panic_message(p.as_ref())
        )))
    })
}

/// Run `n` morsels through `work`, fanning out over at most `parallelism`
/// scoped workers with work-claiming, and return every result in
/// morsel-index order: [`run_morsels_fold`] with a window as wide as the
/// run and a fold that collects. `work` receives the morsel index and must
/// be safe to call concurrently from multiple threads.
///
/// `stmt` is checked **before every claim** (serial and parallel): a
/// flipped token aborts the run with [`DashError::Cancelled`] without
/// starting another morsel. A morsel that was already executing when the
/// token flipped runs to completion — that single in-flight morsel is the
/// preemption-latency bound, recorded via
/// [`StatementContext::note_cancel_latency`].
///
/// With `parallelism <= 1` (or a single morsel) everything runs inline on
/// the calling thread — no threads are spawned, no behavior changes.
pub fn run_morsels<T, F>(
    n: usize,
    parallelism: usize,
    stmt: &StatementContext,
    work: F,
) -> Result<MorselRun<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let mut results = Vec::with_capacity(n);
    let collect = |_, v| {
        results.push(v);
        Ok(())
    };
    let run = run_morsels_fold(n, parallelism, n, stmt, work, |_| 0, collect)?;
    Ok(MorselRun {
        results,
        morsels_dispatched: run.morsels_dispatched,
        workers_used: run.workers_used,
    })
}

/// The outcome of one [`run_morsels_fold`] pipeline drive.
#[derive(Debug, Clone, Copy)]
pub struct FoldRun {
    /// How many morsels were dispatched (== `n` on success).
    pub morsels_dispatched: u64,
    /// The fan-out width (spawn width, like [`MorselRun::workers_used`]).
    pub workers_used: u64,
    /// Peak number of morsels simultaneously claimed-but-unfolded,
    /// bounded by the inflight window.
    pub peak_inflight_morsels: u64,
    /// Peak bytes (per the caller's `bytes_of` estimate) held by morsel
    /// results awaiting — or undergoing — their in-order fold.
    pub peak_inflight_bytes: u64,
}

/// Lock the fold state. No caller code runs under this lock — `work`,
/// `bytes_of` and `fold` all run outside it — so only a bug in the driver
/// itself could poison it, and its plain counters stay meaningful: take it
/// and let the run finish or abort as usual.
fn lock<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One time slice of waiting on `signal`, poison-tolerant like [`lock`].
/// Waits are sliced so a missed wake-up or a cancelled statement never
/// hangs the drive.
fn wait<'a, T>(signal: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    const WAIT_SLICE: Duration = Duration::from_millis(1);
    signal.wait_timeout(guard, WAIT_SLICE).unwrap_or_else(PoisonError::into_inner).0
}

/// Reorder buffer shared between producing workers and the folding thread.
struct FoldState<T> {
    /// Completed morsel results waiting for their in-order fold, keyed by
    /// morsel index, with the caller's byte estimate.
    ready: BTreeMap<usize, (T, u64)>,
    /// Morsels claimed but not yet folded (includes the one being folded).
    inflight: usize,
    /// Byte estimates of everything in `ready` plus the result currently
    /// being folded.
    inflight_bytes: u64,
    peak_inflight: usize,
    peak_inflight_bytes: u64,
    /// First error any participant hit; latched, aborts the run.
    error: Option<DashError>,
}

/// Run `n` morsels through `work` and feed every result to `fold` in
/// **strict morsel-index order** — the pipelined cousin of [`run_morsels`].
///
/// Where `run_morsels` materializes all `n` results before the caller sees
/// any of them, this keeps at most `window` morsels in flight: workers
/// claim the next morsel only when fewer than `window` results are
/// claimed-but-unfolded, and the calling thread folds each result as soon
/// as its predecessors are folded. `fold` runs on the calling thread only,
/// so it may hold `&mut` state (aggregate accumulators, an output batch)
/// without synchronization — and because it consumes results in index
/// order, the folded outcome is byte-identical to a serial run no matter
/// how the workers were scheduled.
///
/// `bytes_of` estimates a result's heap footprint; the run tracks the peak
/// estimate held simultaneously (the O(morsels in flight) bound that
/// replaces O(intermediate result) peak memory).
///
/// Cancellation and errors follow the [`run_morsels`] contract: `stmt` is
/// checked before every claim, the first error aborts the run, and worker
/// panics become classified [`DashError::internal`] failures. With
/// `parallelism <= 1` the whole drive runs inline on the calling thread —
/// work then fold, morsel by morsel — which is exactly the serial
/// fallback's memory behavior (one morsel in flight).
pub fn run_morsels_fold<T, W, B, F>(
    n: usize,
    parallelism: usize,
    window: usize,
    stmt: &StatementContext,
    work: W,
    bytes_of: B,
    mut fold: F,
) -> Result<FoldRun>
where
    T: Send,
    W: Fn(usize) -> Result<T> + Sync,
    B: Fn(&T) -> u64 + Sync,
    F: FnMut(usize, T) -> Result<()>,
{
    let workers = parallelism.max(1).min(n);
    if workers <= 1 {
        // Serial pipeline drive: one morsel in flight, folded before the
        // next is claimed. Same code path the parallel drive folds through,
        // so parallelism=1 shares the pipelined memory profile.
        let mut peak_bytes = 0u64;
        let mut after_cancel = 0u64;
        for i in 0..n {
            if stmt.is_cancelled() {
                stmt.note_cancel_latency(after_cancel);
                return Err(DashError::Cancelled);
            }
            let v = run_caught(|| work(i))?;
            if stmt.is_cancelled() {
                after_cancel += 1;
            }
            peak_bytes = peak_bytes.max(bytes_of(&v));
            fold(i, v)?;
        }
        stmt.note_cancel_latency(after_cancel);
        return Ok(FoldRun {
            morsels_dispatched: n as u64,
            workers_used: u64::from(n > 0),
            peak_inflight_morsels: u64::from(n > 0),
            peak_inflight_bytes: peak_bytes,
        });
    }

    let window = window.max(1);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let state = Mutex::new(FoldState::<T> {
        ready: BTreeMap::new(),
        inflight: 0,
        inflight_bytes: 0,
        peak_inflight: 0,
        peak_inflight_bytes: 0,
        error: None,
    });
    // Workers wait on `space` for a free inflight slot; the folder waits on
    // `avail` for the next in-order result.
    let space = Condvar::new();
    let avail = Condvar::new();

    let fail = |st: &mut FoldState<T>, e: DashError| {
        abort.store(true, Ordering::Relaxed);
        st.error.get_or_insert(e);
    };

    let fold_outcome: Result<()> = crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let (next, abort, state, space, avail) = (&next, &abort, &state, &space, &avail);
            let (work, bytes_of, fail) = (&work, &bytes_of, &fail);
            s.spawn(move |_| {
                let mut after_cancel = 0u64;
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    if stmt.is_cancelled() {
                        let mut st = lock(state);
                        fail(&mut st, DashError::Cancelled);
                        avail.notify_all();
                        break;
                    }
                    // Acquire an inflight slot before claiming, so the
                    // number of claimed-but-unfolded morsels never exceeds
                    // the window.
                    {
                        let mut st = lock(state);
                        while st.inflight >= window && !abort.load(Ordering::Relaxed) {
                            st = wait(space, st);
                        }
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        st.inflight += 1;
                        st.peak_inflight = st.peak_inflight.max(st.inflight);
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        let mut st = lock(state);
                        st.inflight -= 1;
                        space.notify_one();
                        // Wake the folder: it may be waiting for a result
                        // that will now never arrive past the end.
                        avail.notify_all();
                        break;
                    }
                    // Catch panics here (not at join) so the folder — which
                    // is blocked waiting for morsel `i` — learns about the
                    // failure instead of waiting out the run.
                    let outcome = run_caught(|| work(i).map(|v| (bytes_of(&v), v)));
                    let mut st = lock(state);
                    match outcome {
                        Ok((b, v)) => {
                            if stmt.is_cancelled() {
                                after_cancel += 1;
                            }
                            st.inflight_bytes += b;
                            st.peak_inflight_bytes = st.peak_inflight_bytes.max(st.inflight_bytes);
                            st.ready.insert(i, (v, b));
                            avail.notify_all();
                        }
                        Err(e) => {
                            st.inflight -= 1;
                            fail(&mut st, e);
                            space.notify_one();
                            avail.notify_all();
                            break;
                        }
                    }
                }
                stmt.note_cancel_latency(after_cancel);
            });
        }

        // The calling thread is the folder: consume results in morsel-index
        // order as they land, returning each one's slot to the workers.
        let mut next_fold = 0usize;
        while next_fold < n {
            let entry = {
                let mut st = lock(&state);
                loop {
                    if let Some(e) = st.error.take() {
                        abort.store(true, Ordering::Relaxed);
                        space.notify_all();
                        return Err(e);
                    }
                    if let Some(entry) = st.ready.remove(&next_fold) {
                        break entry;
                    }
                    if stmt.is_cancelled() {
                        fail(&mut st, DashError::Cancelled);
                        continue;
                    }
                    st = wait(&avail, st);
                }
            };
            let (v, b) = entry;
            let folded = fold(next_fold, v);
            {
                let mut st = lock(&state);
                st.inflight -= 1;
                st.inflight_bytes -= b;
                space.notify_one();
                if let Err(e) = folded {
                    fail(&mut st, e.clone());
                    return Err(e);
                }
            }
            next_fold += 1;
        }
        Ok(())
    })
    .map_err(|p| {
        DashError::internal(format!(
            "pipeline scope panicked: {}",
            panic_message(p.as_ref())
        ))
    })?;

    fold_outcome?;
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.error {
        return Err(e);
    }
    Ok(FoldRun {
        morsels_dispatched: n as u64,
        workers_used: workers as u64,
        peak_inflight_morsels: st.peak_inflight as u64,
        peak_inflight_bytes: st.peak_inflight_bytes,
    })
}

/// Split `n` rows into row-range morsels of at least `min_chunk` rows each,
/// at most `parallelism * 4` morsels total (so claiming can still smooth
/// skew without drowning in per-morsel overhead). Returns the half-open
/// `[lo, hi)` ranges; empty when `n == 0`.
pub fn row_morsels(n: usize, parallelism: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let workers = parallelism.max(1);
    let target = n.div_ceil(workers * 4).max(min_chunk.max(1));
    (0..n.div_ceil(target))
        .map(|i| (i * target, ((i + 1) * target).min(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn stmt() -> StatementContext {
        StatementContext::unbounded()
    }

    #[test]
    fn serial_and_parallel_agree() {
        for par in [1usize, 2, 3, 8] {
            let run = run_morsels(37, par, &stmt(), |i| Ok(i * i)).unwrap();
            assert_eq!(run.results, (0..37).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(run.morsels_dispatched, 37);
            assert!(run.workers_used >= 1);
            assert!(run.workers_used <= par as u64);
        }
    }

    #[test]
    fn empty_run() {
        let run = run_morsels(0, 4, &stmt(), |_| Ok(0u32)).unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.morsels_dispatched, 0);
        assert_eq!(run.workers_used, 0);
    }

    #[test]
    fn worker_error_propagates() {
        for par in [1usize, 4] {
            let err = run_morsels(100, par, &stmt(), |i| {
                if i == 13 {
                    Err(DashError::exec("morsel 13 refused"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert!(err.to_string().contains("morsel 13 refused"), "{err}");
        }
    }

    #[test]
    fn worker_panic_becomes_internal_error() {
        for par in [1usize, 4] {
            let err = run_morsels(16, par, &stmt(), |i| -> Result<usize> {
                if i == 7 {
                    panic!("deliberate test panic");
                }
                Ok(i)
            })
            .unwrap_err();
            let msg = err.to_string();
            assert_eq!(err.class(), "XX000", "par={par}: {msg}");
            assert!(msg.contains("panicked"), "{msg}");
            assert!(msg.contains("deliberate test panic"), "{msg}");
        }
    }

    #[test]
    fn workers_capped_by_morsel_count() {
        // 2 morsels, 8 workers: at most 2 can claim work.
        let run = run_morsels(2, 8, &stmt(), Ok).unwrap();
        assert_eq!(run.results, vec![0, 1]);
        assert!(run.workers_used <= 2);
    }

    #[test]
    fn pre_cancelled_run_starts_nothing() {
        for par in [1usize, 4] {
            let ctx = stmt();
            ctx.cancel();
            let started = AtomicUsize::new(0);
            let err = run_morsels(64, par, &ctx, |i| {
                started.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            })
            .unwrap_err();
            assert_eq!(err, DashError::Cancelled);
            assert_eq!(started.load(Ordering::Relaxed), 0, "no morsel may start");
            assert_eq!(ctx.cancel_latency_max_morsels(), 0);
        }
    }

    #[test]
    fn mid_run_cancel_observed_within_one_morsel() {
        for par in [1usize, 4] {
            let ctx = stmt();
            let started_after_cancel = AtomicUsize::new(0);
            let err = run_morsels(1000, par, &ctx, |i| {
                if ctx.is_cancelled() {
                    // Already claimed when the token flipped — the one
                    // in-flight morsel the latency bound allows per worker.
                    started_after_cancel.fetch_add(1, Ordering::Relaxed);
                }
                if i == 5 {
                    // Flip the token from inside a morsel: every worker may
                    // finish its current morsel, then must stop claiming.
                    ctx.cancel();
                }
                Ok(i)
            })
            .unwrap_err();
            assert_eq!(err, DashError::Cancelled);
            let late = started_after_cancel.load(Ordering::Relaxed);
            assert!(
                late <= par,
                "par={par}: {late} morsels started after the flip (≤ 1 per worker allowed)"
            );
            assert!(
                ctx.cancel_latency_max_morsels() <= 1,
                "preemption latency must be ≤ 1 morsel, got {}",
                ctx.cancel_latency_max_morsels()
            );
        }
    }

    #[test]
    fn completed_run_reports_zero_latency() {
        let ctx = stmt();
        run_morsels(8, 4, &ctx, Ok).unwrap();
        assert_eq!(ctx.cancel_latency_max_morsels(), 0);
    }

    #[test]
    fn row_morsel_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 1000, 8192, 100_000] {
            for par in [1usize, 2, 4, 8] {
                let ranges = row_morsels(n, par, 1024);
                let mut expect = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, n);
            }
        }
    }

    #[test]
    fn fold_sees_results_in_morsel_order() {
        for par in [1usize, 2, 4, 8] {
            for window in [1usize, 2, 4, 16] {
                let mut seen = Vec::new();
                let run = run_morsels_fold(
                    37,
                    par,
                    window,
                    &stmt(),
                    |i| Ok(i * i),
                    |_| 8,
                    |i, v| {
                        seen.push((i, v));
                        Ok(())
                    },
                )
                .unwrap();
                assert_eq!(
                    seen,
                    (0..37).map(|i| (i, i * i)).collect::<Vec<_>>(),
                    "par={par} window={window}"
                );
                assert_eq!(run.morsels_dispatched, 37);
                assert!(run.workers_used >= 1 && run.workers_used <= par as u64);
            }
        }
    }

    #[test]
    fn fold_window_bounds_inflight() {
        for (par, window) in [(4usize, 1usize), (4, 2), (8, 3)] {
            let run = run_morsels_fold(
                200,
                par,
                window,
                &stmt(),
                |i| Ok(vec![0u8; 64 + i % 7]),
                |v: &Vec<u8>| v.len() as u64,
                |_, _| Ok(()),
            )
            .unwrap();
            assert!(
                run.peak_inflight_morsels <= window as u64,
                "par={par} window={window}: {} in flight",
                run.peak_inflight_morsels
            );
            assert!(
                run.peak_inflight_bytes <= (window as u64) * 71,
                "bytes bounded by window * max morsel: {}",
                run.peak_inflight_bytes
            );
        }
    }

    #[test]
    fn fold_serial_tracks_single_morsel_peak() {
        let run = run_morsels_fold(
            10,
            1,
            8,
            &stmt(),
            Ok,
            |&i| (i as u64 + 1) * 100,
            |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(run.peak_inflight_morsels, 1, "serial drive: one in flight");
        assert_eq!(run.peak_inflight_bytes, 1000, "largest single morsel");
        assert_eq!(run.workers_used, 1);
    }

    #[test]
    fn fold_work_error_propagates() {
        for par in [1usize, 4] {
            let err = run_morsels_fold(
                100,
                par,
                4,
                &stmt(),
                |i| {
                    if i == 13 {
                        Err(DashError::exec("morsel 13 refused"))
                    } else {
                        Ok(i)
                    }
                },
                |_| 0,
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert!(err.to_string().contains("morsel 13 refused"), "{err}");
        }
    }

    #[test]
    fn fold_sink_error_propagates_and_stops_workers() {
        for par in [1usize, 4] {
            let folded = AtomicUsize::new(0);
            let err = run_morsels_fold(
                100,
                par,
                4,
                &stmt(),
                Ok,
                |_| 0,
                |i, _| {
                    if i == 5 {
                        Err(DashError::exec("sink refused"))
                    } else {
                        folded.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert!(err.to_string().contains("sink refused"), "{err}");
            assert_eq!(folded.load(Ordering::Relaxed), 5, "in-order up to the error");
        }
    }

    #[test]
    fn fold_worker_panic_becomes_internal_error() {
        let err = run_morsels_fold(
            16,
            4,
            4,
            &stmt(),
            |i| -> Result<usize> {
                if i == 7 {
                    panic!("deliberate fold panic");
                }
                Ok(i)
            },
            |_| 0,
            |_, _| Ok(()),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("deliberate fold panic"), "{msg}");
    }

    #[test]
    fn fold_pre_cancelled_starts_nothing() {
        for par in [1usize, 4] {
            let ctx = stmt();
            ctx.cancel();
            let started = AtomicUsize::new(0);
            let err = run_morsels_fold(
                64,
                par,
                4,
                &ctx,
                |i| {
                    started.fetch_add(1, Ordering::Relaxed);
                    Ok(i)
                },
                |_| 0,
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err, DashError::Cancelled);
            assert_eq!(started.load(Ordering::Relaxed), 0, "no morsel may start");
        }
    }

    #[test]
    fn fold_mid_run_cancel_observed_within_one_morsel() {
        for par in [1usize, 4] {
            let ctx = stmt();
            let started_after_cancel = AtomicUsize::new(0);
            let err = run_morsels_fold(
                1000,
                par,
                8,
                &ctx,
                |i| {
                    if ctx.is_cancelled() {
                        started_after_cancel.fetch_add(1, Ordering::Relaxed);
                    }
                    if i == 5 {
                        ctx.cancel();
                    }
                    Ok(i)
                },
                |_| 0,
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err, DashError::Cancelled);
            let late = started_after_cancel.load(Ordering::Relaxed);
            assert!(
                late <= par,
                "par={par}: {late} morsels started after the flip"
            );
            assert!(
                ctx.cancel_latency_max_morsels() <= 1,
                "preemption latency must be ≤ 1 morsel, got {}",
                ctx.cancel_latency_max_morsels()
            );
        }
    }

    #[test]
    fn fold_empty_run() {
        let run = run_morsels_fold(0, 4, 4, &stmt(), |_| Ok(0u32), |_| 0, |_, _| Ok(())).unwrap();
        assert_eq!(run.morsels_dispatched, 0);
        assert_eq!(run.workers_used, 0);
        assert_eq!(run.peak_inflight_morsels, 0);
    }

    proptest! {
        /// Scheduling order must never leak into results: any (n, workers)
        /// combination yields exactly the serial mapping, in order.
        #[test]
        fn prop_order_independent(n in 0usize..200, par in 1usize..9) {
            let run = run_morsels(n, par, &stmt(), |i| Ok(i as u64 * 3 + 1)).unwrap();
            let serial: Vec<u64> = (0..n).map(|i| i as u64 * 3 + 1).collect();
            prop_assert_eq!(run.results, serial);
            prop_assert_eq!(run.morsels_dispatched, n as u64);
        }

        /// The fold drive must agree with the serial mapping for any
        /// (n, workers, window) combination — the pipeline scheduler's
        /// byte-identical guarantee at the unit level.
        #[test]
        fn prop_fold_order_independent(n in 0usize..200, par in 1usize..9, window in 1usize..9) {
            let mut seen = Vec::new();
            run_morsels_fold(
                n, par, window, &stmt(),
                |i| Ok(i as u64 * 3 + 1),
                |_| 1,
                |i, v| { seen.push((i, v)); Ok(()) },
            ).unwrap();
            let serial: Vec<(usize, u64)> = (0..n).map(|i| (i, i as u64 * 3 + 1)).collect();
            prop_assert_eq!(seen, serial);
        }
    }
}
