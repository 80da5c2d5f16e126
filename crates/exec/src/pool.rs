//! Morsel-driven shared worker pool (§II.B of the paper: "parallelism
//! achieved by scheduling strides of data to multiple threads running on
//! different processor cores").
//!
//! Operators describe their work as `n` independent **morsels** — a stride
//! to evaluate, a stride of survivors to materialize, a hash partition to
//! build and probe — and [`run_morsels`] fans them out over the calling
//! thread and the pool's helpers. Workers **claim** morsels one at a time
//! from a shared counter instead of receiving a contiguous pre-split
//! chunk. That matters because synopsis skipping clusters the surviving
//! strides: with a static split one worker can end up owning all the
//! survivors while the rest idle on pruned ranges. Claiming keeps every
//! worker busy until the pool of morsels is dry, whatever the skew.
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
//! Results go home: the fold may hand a result back instead of keeping it
//! (an aggregate partial, once merged), and the thread that built it drops
//! it. glibc caches a freed block on the freeing thread, and growing a
//! block reallocates it in the arena it came from, so every block freed
//! off its thread seeds lock traffic on the other thread's arena; a fold
//! that freed every helper's partial made a cheap aggregate slower at
//! width 2 than at width 1. Every result is tagged with its producer; a
//! helper takes what was handed back to it under the lock it already takes
//! to file a result or claim a morsel, and drops it outside. Once the fold
//! has handed a result back, a helper stays in a dry run until its results
//! are folded, so the caller drops a helper's result only when the run
//! stopped early or the helper left before the first hand-back — at most
//! `window` per drive.
//!
//! Helpers: one process-wide set of parked threads, started on demand. It
//! grows to the widest drive it has been asked for — width − 1 helpers,
//! since the calling thread is itself a worker — and never shrinks, so no
//! drive pays a thread start once the set is that wide. A drive offers
//! width − 1 tickets for its worker loop; a parked helper takes one, runs
//! the loop until the run is dry, and parks again. Meanwhile the caller
//! folds the next in-order result whenever it is ready and otherwise claims
//! and runs a morsel. At the end it revokes the tickets nobody took and
//! waits only for the helpers that took one. A nested drive (a cluster
//! shard statement inside a `run_morsels` morsel) or one that finds every
//! helper busy runs on whichever are free, down to the caller alone, so it
//! never deadlocks.
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
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use dash_common::{DashError, Result, StatementContext};

/// The outcome of one [`run_morsels`] fan-out.
#[derive(Debug)]
pub struct MorselRun<T> {
    /// Per-morsel results, in morsel-index order (0..n).
    pub results: Vec<T>,
    /// How many morsels were dispatched (== `n` on success).
    pub morsels_dispatched: u64,
    /// The fan-out width: the caller plus the helper tickets the run
    /// offered. `1` for a serial (inline) run, `0` when there was no work
    /// at all. Offered width rather than claimed-at-least-one so the
    /// counter is deterministic — on a loaded (or single-core) host one
    /// eager worker can drain every morsel before its siblings are even
    /// scheduled.
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
/// workers with work-claiming, and return every result in
/// morsel-index order: [`run_morsels_fold`] with a window as wide as the
/// run and a fold that collects, so it hands nothing back. `work` receives
/// the morsel index and must be safe to call concurrently from multiple
/// threads.
///
/// `stmt` is checked **before every claim** (serial and parallel): a
/// flipped token aborts the run with [`DashError::Cancelled`] without
/// starting another morsel. A morsel that was already executing when the
/// token flipped runs to completion — that single in-flight morsel is the
/// preemption-latency bound, recorded via
/// [`StatementContext::note_cancel_latency`].
///
/// With `parallelism <= 1` (or a single morsel) everything runs inline on
/// the calling thread — no helper is involved, no behavior changes.
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
        Ok(None)
    };
    let run = run_morsels_fold(n, parallelism, n, stmt, work, |_| 0, collect)?;
    Ok(MorselRun {
        results,
        morsels_dispatched: run.morsels_dispatched,
        workers_used: run.workers_used,
    })
}

/// What a [`run_morsels_fold`] fold returns for the result it was given:
/// `None` (or `()`) when it kept or consumed the result, `Some` to hand the
/// result back, so the thread that built it drops it.
pub trait HandBack<T> {
    /// The result handed back, if any.
    fn handed_back(self) -> Option<T>;
}

impl<T> HandBack<T> for Option<T> {
    fn handed_back(self) -> Option<T> {
        self
    }
}

impl<T> HandBack<T> for () {
    fn handed_back(self) -> Option<T> {
        None
    }
}

/// The outcome of one [`run_morsels_fold`] pipeline drive.
#[derive(Debug, Clone, Copy)]
pub struct FoldRun {
    /// How many morsels were dispatched (== `n` on success).
    pub morsels_dispatched: u64,
    /// The fan-out width (offered width, like [`MorselRun::workers_used`]).
    pub workers_used: u64,
    /// Peak number of morsels simultaneously claimed-but-unfolded,
    /// bounded by the inflight window.
    pub peak_inflight_morsels: u64,
    /// Peak bytes (per the caller's `bytes_of` estimate) held by morsel
    /// results awaiting — or undergoing — their in-order fold.
    pub peak_inflight_bytes: u64,
}

/// Lock `m`. No caller code runs under a pool lock — `work`, `bytes_of` and
/// `fold` all run outside it — so only a bug in the driver itself could
/// poison one, and its plain counters stay meaningful: take it and let the
/// run finish or abort as usual.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One time slice of waiting on `signal`, poison-tolerant like [`lock`].
/// Waits are sliced so a missed wake-up or a cancelled statement never
/// hangs the drive.
fn wait<'a, T>(signal: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    const WAIT_SLICE: Duration = Duration::from_millis(1);
    signal
        .wait_timeout(guard, WAIT_SLICE)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// One drive's offer to the helpers: its worker loop, which every helper
/// that takes one of the drive's tickets runs once.
struct Ticket {
    /// The drive's worker loop, its borrow of the drive erased (see
    /// [`run_morsels_fold`]).
    work: &'static (dyn Fn() + Sync),
    /// Helpers that took a ticket and have not left the loop yet.
    running: Mutex<usize>,
    finished: Condvar,
    /// The thread that offered the ticket, so a test can ask what its own
    /// drives left on offer.
    #[cfg_attr(not(test), allow(dead_code))]
    caller: std::thread::ThreadId,
}

/// The process-wide helper threads and the tickets on offer to them.
struct Helpers {
    queue: Mutex<Queue>,
    /// Parked helpers wait here for a ticket.
    offered: Condvar,
}

struct Queue {
    /// Helper threads started so far: the widest drive's width − 1. The set
    /// never shrinks.
    started: usize,
    /// Helpers parked on `offered`.
    idle: usize,
    /// Tickets on offer, oldest first.
    tickets: VecDeque<Arc<Ticket>>,
}

static HELPERS: Helpers = Helpers {
    queue: Mutex::new(Queue {
        started: 0,
        idle: 0,
        tickets: VecDeque::new(),
    }),
    offered: Condvar::new(),
};

impl Helpers {
    /// Put `count` tickets for `ticket`'s loop on offer, first starting
    /// helpers until at least `count` exist.
    fn offer(&'static self, ticket: &Arc<Ticket>, count: usize) {
        let mut q = lock(&self.queue);
        while q.started < count {
            let started = std::thread::Builder::new()
                .name(format!("dash-pool-{}", q.started))
                .spawn(move || self.serve());
            if started.is_err() {
                // The caller and the helpers already running finish the
                // drive without it.
                break;
            }
            q.started += 1;
        }
        q.tickets.extend((0..count).map(|_| Arc::clone(ticket)));
        let wake = q.idle.min(count);
        drop(q);
        for _ in 0..wake {
            self.offered.notify_one();
        }
    }

    /// Withdraw `ticket`'s unclaimed tickets, then wait for every helper
    /// that took one to leave its loop.
    fn revoke(&self, ticket: &Arc<Ticket>) {
        lock(&self.queue)
            .tickets
            .retain(|t| !Arc::ptr_eq(t, ticket));
        let mut running = lock(&ticket.running);
        while *running > 0 {
            running = wait(&ticket.finished, running);
        }
    }

    /// A helper thread's life: take the oldest ticket and run its loop;
    /// park while none is on offer.
    fn serve(&self) {
        loop {
            let ticket = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(t) = q.tickets.pop_front() {
                        // Counted under the queue lock, so a revoke that no
                        // longer finds the ticket queued finds it running.
                        *lock(&t.running) += 1;
                        break t;
                    }
                    q.idle += 1;
                    q = self.offered.wait(q).unwrap_or_else(PoisonError::into_inner);
                    q.idle -= 1;
                }
            };
            // Morsel panics are caught inside the loop; anything else is a
            // driver bug, which must neither kill the helper nor leave the
            // drive's caller waiting for it.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(ticket.work));
            let mut running = lock(&ticket.running);
            *running -= 1;
            if *running == 0 {
                ticket.finished.notify_one();
            }
        }
    }
}

/// A drive's tickets on offer. Dropping it — on return or while unwinding —
/// revokes them and waits out the helpers that took one.
struct Offer(Arc<Ticket>);

impl Drop for Offer {
    fn drop(&mut self) {
        HELPERS.revoke(&self.0);
    }
}

/// The producer tag of a result the calling thread built; helpers are
/// numbered from 1 in the order they join the drive.
const CALLER: usize = 0;

/// A completed result awaiting its in-order fold.
struct Filed<T> {
    value: T,
    /// The caller's byte estimate.
    bytes: u64,
    /// Who built it: [`CALLER`] or a helper's number.
    producer: usize,
}

/// A helper's side of a drive.
struct Home<T> {
    /// Results the fold handed back for this helper to drop, with their
    /// byte estimates.
    returned: Vec<(T, u64)>,
    /// Results it filed that are not folded yet.
    unfolded: usize,
    /// Asleep on `space`.
    asleep: bool,
    /// Left its loop: the caller drops what the fold hands back for it.
    left: bool,
}

/// Reorder buffer and claim counters shared by a drive's participants.
struct FoldState<T> {
    /// Results awaiting their in-order fold. Morsel `i` waits in slot
    /// `i % slots.len()`: the claimed-but-unfolded morsels span fewer
    /// indices than the window.
    slots: Vec<Option<Filed<T>>>,
    /// Helper `h` is `homes[h - 1]`.
    homes: Vec<Home<T>>,
    /// The fold has handed a result back: a helper then waits for its
    /// results to be folded before it leaves a dry run. A fold that keeps
    /// everything never makes it wait.
    handing_back: bool,
    /// The next morsel to claim.
    next: usize,
    /// The next morsel to fold.
    next_fold: usize,
    /// Morsels claimed whose result is not dropped yet: running, waiting
    /// for the fold, being folded, or handed back to a helper.
    inflight: usize,
    /// Byte estimates of every filed result not dropped yet.
    inflight_bytes: u64,
    peak_inflight: usize,
    peak_inflight_bytes: u64,
    /// First error any participant hit.
    error: Option<DashError>,
    /// Latched by the first error and at the end of the run: nobody claims.
    stop: bool,
    /// The caller is asleep on `avail`.
    folder_waiting: bool,
    /// Helpers asleep on `space`.
    space_waiters: usize,
}

/// What a participant may do next.
enum Claim {
    /// Run this morsel: it holds a window slot.
    Morsel(usize),
    /// The window is full.
    Full,
    /// The run is dry, stopped or cancelled.
    Done,
}

/// One parallel drive: what the calling thread and every helper holding a
/// ticket share.
struct Drive<'a, T, W, B> {
    n: usize,
    window: usize,
    stmt: &'a StatementContext,
    work: W,
    bytes_of: B,
    state: Mutex<FoldState<T>>,
    /// Helpers wait here for a free window slot.
    space: Condvar,
    /// The caller waits here for the next in-order result.
    avail: Condvar,
}

impl<T, W, B> Drive<'_, T, W, B>
where
    T: Send,
    W: Fn(usize) -> Result<T> + Sync,
    B: Fn(&T) -> u64 + Sync,
{
    /// Latch `e` and stop the run.
    fn fail(&self, st: &mut FoldState<T>, e: DashError) {
        st.error.get_or_insert(e);
        st.stop = true;
        if st.folder_waiting {
            self.avail.notify_one();
        }
        if st.space_waiters > 0 {
            self.space.notify_all();
        }
    }

    /// Free `k` window slots whose results, `bytes` in all, were dropped.
    fn release(&self, st: &mut FoldState<T>, k: usize, bytes: u64) {
        if k == 0 {
            return;
        }
        st.inflight -= k;
        st.inflight_bytes -= bytes;
        if st.space_waiters > 0 {
            if k == 1 {
                self.space.notify_one();
            } else {
                self.space.notify_all();
            }
        }
        if st.folder_waiting {
            self.avail.notify_one();
        }
    }

    /// Take a window slot and the next morsel index. The statement is
    /// checked before every claim; a flipped token stops the run.
    fn claim(&self, st: &mut FoldState<T>) -> Claim {
        if st.stop {
            return Claim::Done;
        }
        if self.stmt.is_cancelled() {
            self.fail(st, DashError::Cancelled);
            return Claim::Done;
        }
        if st.next >= self.n {
            return Claim::Done;
        }
        if st.inflight >= self.window {
            return Claim::Full;
        }
        let i = st.next;
        st.next += 1;
        st.inflight += 1;
        st.peak_inflight = st.peak_inflight.max(st.inflight);
        Claim::Morsel(i)
    }

    /// Run morsel `i` outside the lock, then file its result under
    /// `producer` — waking the caller only if it sleeps waiting for exactly
    /// this one — or latch its error.
    fn run(&self, i: usize, producer: usize, after_cancel: &mut u64) -> MutexGuard<'_, FoldState<T>> {
        let outcome = run_caught(|| (self.work)(i).map(|v| ((self.bytes_of)(&v), v)));
        let mut st = lock(&self.state);
        match outcome {
            Ok((bytes, value)) => {
                if self.stmt.is_cancelled() {
                    *after_cancel += 1;
                }
                st.inflight_bytes += bytes;
                st.peak_inflight_bytes = st.peak_inflight_bytes.max(st.inflight_bytes);
                let len = st.slots.len();
                st.slots[i % len] = Some(Filed { value, bytes, producer });
                if producer != CALLER {
                    st.homes[producer - 1].unfolded += 1;
                }
                if st.folder_waiting && i == st.next_fold {
                    self.avail.notify_one();
                }
            }
            Err(e) => {
                st.inflight -= 1;
                self.fail(&mut st, e);
            }
        }
        st
    }

    /// A helper's loop: claim and run morsels until the run is dry or
    /// stopped, sleeping only while the window is full or, once the run is
    /// dry, until its results are folded. Each time it holds the lock it
    /// takes the results handed back to it, and it drops them outside the
    /// lock before it runs or sleeps; their window slots free the next time
    /// it holds the lock.
    fn help(&self) {
        let mut after_cancel = 0u64;
        // Two lists that trade places at each take, both allocated here and
        // sized for every result this helper can have in flight: the
        // caller's pushes never grow one, and neither is freed elsewhere.
        let cap = self.window.min(self.n);
        let mut returned = Vec::with_capacity(cap);
        let mut st = lock(&self.state);
        st.homes.push(Home {
            returned: Vec::with_capacity(cap),
            unfolded: 0,
            asleep: false,
            left: false,
        });
        let me = st.homes.len();
        // Results dropped since the lock was last held: count and bytes.
        let mut dropped = (0, 0);
        loop {
            self.release(&mut st, dropped.0, dropped.1);
            std::mem::swap(&mut returned, &mut st.homes[me - 1].returned);
            dropped = (returned.len(), returned.iter().map(|&(_, b)| b).sum());
            let claim = match self.claim(&mut st) {
                // A dry run may still owe this helper its unfolded
                // results: it waits for them rather than leave them to
                // the caller.
                Claim::Done if !st.stop && st.handing_back && st.homes[me - 1].unfolded > 0 => Claim::Full,
                claim => claim,
            };
            match claim {
                Claim::Morsel(i) => {
                    drop(st);
                    returned.clear();
                    st = self.run(i, me, &mut after_cancel);
                }
                Claim::Full if dropped.0 > 0 => {
                    drop(st);
                    returned.clear();
                    st = lock(&self.state);
                }
                Claim::Full => {
                    st.space_waiters += 1;
                    st.homes[me - 1].asleep = true;
                    st = wait(&self.space, st);
                    st.homes[me - 1].asleep = false;
                    st.space_waiters -= 1;
                }
                Claim::Done => {
                    let home = &mut st.homes[me - 1];
                    home.left = true;
                    let spare = std::mem::take(&mut home.returned);
                    drop(st);
                    drop((returned, spare));
                    break;
                }
            }
        }
        self.stmt.note_cancel_latency(after_cancel);
    }

    /// The calling thread's loop: fold the next in-order result whenever it
    /// is ready, otherwise claim and run a morsel while the window has
    /// room, otherwise sleep until the result lands. A result the fold
    /// hands back keeps its window slot until it is dropped: here if the
    /// caller built it or its producer has left, else by its producer.
    fn lead<R: HandBack<T>>(&self, mut fold: impl FnMut(usize, T) -> Result<R>) -> Result<()> {
        let mut after_cancel = 0u64;
        let mut st = lock(&self.state);
        let outcome = loop {
            if let Some(e) = st.error.take() {
                break Err(e);
            }
            let i = st.next_fold;
            if i == self.n {
                break Ok(());
            }
            let len = st.slots.len();
            if let Some(Filed { value, bytes, producer }) = st.slots[i % len].take() {
                drop(st);
                let mut back = run_caught(|| fold(i, value).map(HandBack::handed_back));
                let handed_own = producer == CALLER && matches!(back, Ok(Some(_)));
                if producer == CALLER {
                    // The caller's own result drops right after its fold.
                    back = back.map(|_| None);
                }
                st = lock(&self.state);
                st.next_fold += 1;
                let back = match back {
                    Ok(back) => back,
                    Err(e) => break Err(e),
                };
                st.handing_back |= back.is_some() || handed_own;
                if producer == CALLER {
                    self.release(&mut st, 1, bytes);
                    continue;
                }
                let home = &mut st.homes[producer - 1];
                home.unfolded -= 1;
                if home.asleep {
                    self.space.notify_all();
                }
                match back {
                    Some(v) if !home.left => home.returned.push((v, bytes)),
                    None => self.release(&mut st, 1, bytes),
                    Some(late) => {
                        drop(st);
                        drop(late);
                        st = lock(&self.state);
                        self.release(&mut st, 1, bytes);
                    }
                }
                continue;
            }
            match self.claim(&mut st) {
                Claim::Morsel(m) => {
                    drop(st);
                    st = self.run(m, CALLER, &mut after_cancel);
                }
                // The claim latched a cancel: take it at the top.
                Claim::Done if st.stop => {}
                Claim::Full | Claim::Done => {
                    st.folder_waiting = true;
                    st = wait(&self.avail, st);
                    st.folder_waiting = false;
                }
            }
        };
        st.stop = true;
        if st.space_waiters > 0 {
            self.space.notify_all();
        }
        drop(st);
        self.stmt.note_cancel_latency(after_cancel);
        outcome
    }
}

/// Run `n` morsels through `work` and feed every result to `fold` in
/// **strict morsel-index order** — the pipelined cousin of [`run_morsels`].
///
/// Where `run_morsels` materializes all `n` results before the caller sees
/// any of them, this keeps at most `window` morsels in flight: participants
/// claim the next morsel only when fewer than `window` results are
/// claimed-but-unfolded, and each result is folded as soon as its
/// predecessors are. `fold` runs on the calling thread only, so it may hold
/// `&mut` state (aggregate accumulators, an output batch) without
/// synchronization — and because it consumes results in index order, the
/// folded outcome is byte-identical to a serial run no matter how the
/// morsels were scheduled.
///
/// `fold` returns what it does with the result ([`HandBack`]): `None` or
/// `()` when it kept it, `Some` to hand it back. A handed-back result is
/// dropped on the thread that built it: a helper drops its own outside the
/// lock the next time it files a result or claims a morsel, and the caller
/// drops its own right after the fold. Once the fold has handed a result
/// back, a helper leaves a dry run only when its results are folded, so a
/// result is dropped off its producer, by the caller, only when the run
/// stopped early (an error, a cancel) or its producer left before the
/// first hand-back — at most `window` per drive. A fold that keeps every
/// result never holds a helper back. A result holds its window slot until it is dropped,
/// so the window and the in-flight peaks count live results.
///
/// The calling thread is one of the `parallelism` workers: it folds the
/// next result whenever that result is ready and otherwise claims and runs
/// a morsel itself. The other `parallelism − 1` are the pool's parked
/// helpers, offered one ticket each; a nested drive, or one that finds the
/// helpers busy, runs on whichever are free, down to the caller alone.
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
pub fn run_morsels_fold<T, W, B, F, R>(
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
    F: FnMut(usize, T) -> Result<R>,
    R: HandBack<T>,
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
    let drive = Drive {
        n,
        window,
        stmt,
        work,
        bytes_of,
        state: Mutex::new(FoldState {
            slots: (0..window.min(n)).map(|_| None).collect(),
            homes: Vec::with_capacity(workers - 1),
            handing_back: false,
            next: 0,
            next_fold: 0,
            inflight: 0,
            inflight_bytes: 0,
            peak_inflight: 0,
            peak_inflight_bytes: 0,
            error: None,
            stop: false,
            folder_waiting: false,
            space_waiters: 0,
        }),
        space: Condvar::new(),
        avail: Condvar::new(),
    };
    let help = || drive.help();
    let help: &(dyn Fn() + Sync) = &help;
    // SAFETY: `help` borrows `drive`, which outlives `offer` (declared
    // after it, so dropped first). Dropping `offer` — on return or while
    // unwinding — withdraws every ticket no helper took, under the queue
    // lock a helper takes a ticket under, and then waits until each helper
    // that took one has left `help`. No helper can call `help` after that,
    // so erasing the borrow never lets it outlive `drive`.
    let help: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(help) };
    let offer = Offer(Arc::new(Ticket {
        work: help,
        running: Mutex::new(0),
        finished: Condvar::new(),
        caller: std::thread::current().id(),
    }));
    HELPERS.offer(&offer.0, workers - 1);
    let outcome = drive.lead(&mut fold);
    drop(offer);
    outcome?;
    let st = lock(&drive.state);
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

    fn stmt() -> StatementContext {
        StatementContext::unbounded()
    }

    /// Tickets this thread's drives left on offer.
    fn tickets_left() -> usize {
        let me = std::thread::current().id();
        lock(&HELPERS.queue)
            .tickets
            .iter()
            .filter(|t| t.caller == me)
            .count()
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
        // The caller claims and runs morsels too: it counts against the
        // window like any helper.
        for (par, window) in WIDTHS
            .into_iter()
            .flat_map(|p| [(p, 1usize), (p, 2), (p, 3)])
        {
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
            assert_eq!(
                folded.load(Ordering::Relaxed),
                5,
                "in-order up to the error"
            );
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

    #[test]
    fn nested_drive_completes() {
        // The cluster shape: every morsel of the outer drive is itself a
        // drive, which runs on whatever helpers are free.
        for par in WIDTHS {
            let run = run_morsels(6, par, &stmt(), |o| {
                let inner = run_morsels(40, par, &stmt(), |i| Ok(o * 1000 + i))?;
                Ok(inner.results.iter().sum::<usize>())
            })
            .unwrap();
            let expect: Vec<usize> = (0..6)
                .map(|o| (0..40).map(|i| o * 1000 + i).sum())
                .collect();
            assert_eq!(run.results, expect, "par={par}");
            assert_eq!(tickets_left(), 0);
        }
    }

    #[test]
    fn concurrent_drives_fold_their_own_results_in_order() {
        for par in WIDTHS {
            std::thread::scope(|s| {
                for client in 0..4u64 {
                    s.spawn(move || {
                        for _ in 0..20 {
                            let mut seen = Vec::new();
                            run_morsels_fold(
                                50,
                                par,
                                par * 2,
                                &stmt(),
                                |i| Ok(client * 1_000 + i as u64),
                                |_| 8,
                                |i, v| {
                                    seen.push((i, v));
                                    Ok(())
                                },
                            )
                            .unwrap();
                            let expect: Vec<(usize, u64)> =
                                (0..50).map(|i| (i, client * 1_000 + i as u64)).collect();
                            assert_eq!(seen, expect, "par={par} client={client}");
                        }
                        assert_eq!(tickets_left(), 0);
                    });
                }
            });
        }
    }

    #[test]
    fn pool_is_reusable_after_a_failed_drive() {
        let refuse = |i: usize| {
            if i == 9 {
                Err(DashError::exec("refused"))
            } else {
                Ok(i)
            }
        };
        let panic = |i: usize| -> Result<usize> {
            if i == 9 {
                panic!("deliberate reuse panic");
            }
            Ok(i)
        };
        for par in WIDTHS {
            let errored = run_morsels(64, par, &stmt(), refuse).unwrap_err();
            assert!(errored.to_string().contains("refused"), "{errored}");
            let panicked = run_morsels(64, par, &stmt(), panic).unwrap_err();
            assert_eq!(panicked.class(), "XX000", "{panicked}");
            let ctx = stmt();
            let cancelled = run_morsels(64, par, &ctx, |i| {
                if i == 9 {
                    ctx.cancel();
                }
                Ok(i)
            })
            .unwrap_err();
            assert_eq!(cancelled, DashError::Cancelled);
            let sink = run_morsels_fold(
                64,
                par,
                4,
                &stmt(),
                Ok,
                |_| 0,
                |i, _| {
                    if i == 9 {
                        Err(DashError::exec("fold refused"))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert!(sink.to_string().contains("fold refused"), "{sink}");
            assert_eq!(tickets_left(), 0, "par={par}: a failed drive left a ticket");

            let run = run_morsels(64, par, &stmt(), |i| Ok(i * 3)).unwrap();
            assert_eq!(
                run.results,
                (0..64).map(|i| i * 3).collect::<Vec<_>>(),
                "par={par}"
            );
            assert_eq!(tickets_left(), 0);
        }
    }

    /// Drops of the results a fold handed back, counted by a drive's
    /// [`Traced`] results.
    #[derive(Default)]
    struct Drops {
        /// Handed-back results dropped.
        back: AtomicUsize,
        /// Those dropped off the thread that built them.
        away: AtomicUsize,
    }

    /// A result that records the thread that built it and counts its drops
    /// once the fold has handed it back.
    struct Traced<'a> {
        built: std::thread::ThreadId,
        handed_back: bool,
        drops: &'a Drops,
    }

    impl<'a> Traced<'a> {
        fn new(drops: &'a Drops) -> Traced<'a> {
            Traced { built: std::thread::current().id(), handed_back: false, drops }
        }
    }

    impl Drop for Traced<'_> {
        fn drop(&mut self) {
            if self.handed_back {
                self.drops.back.fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() != self.built {
                    self.drops.away.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// How a [`home_drive`] ends.
    #[derive(Debug, Clone, Copy)]
    enum Ending {
        Success,
        WorkError,
        FoldError,
        Cancel,
        Panic,
    }

    /// One drive whose fold hands back every result, ending as `ending`
    /// says at morsel `at`. Checks that every handed-back result was
    /// dropped exactly once by the time the drive returns, all but at most
    /// `window` of them on the thread that built them.
    fn home_drive(n: usize, par: usize, window: usize, ending: Ending, at: usize) {
        let drops = Drops::default();
        let ctx = stmt();
        let handed_back = AtomicUsize::new(0);
        let outcome = run_morsels_fold(
            n,
            par,
            window,
            &ctx,
            |i| {
                if i == at {
                    match ending {
                        Ending::WorkError => return Err(DashError::exec("refused")),
                        Ending::Cancel => ctx.cancel(),
                        Ending::Panic => panic!("deliberate hand-back panic"),
                        Ending::Success | Ending::FoldError => {}
                    }
                }
                Ok(Traced::new(&drops))
            },
            |_| 8,
            |i, mut v| {
                if i == at && matches!(ending, Ending::FoldError) {
                    return Err(DashError::exec("fold refused"));
                }
                v.handed_back = true;
                handed_back.fetch_add(1, Ordering::Relaxed);
                Ok(Some(v))
            },
        );
        let failed = !matches!(ending, Ending::Success) && at < n;
        assert_eq!(outcome.is_err(), failed, "{ending:?} at {at} of {n}, par={par} window={window}");
        let back = handed_back.load(Ordering::Relaxed);
        if !failed {
            assert_eq!(back, n);
        }
        assert_eq!(drops.back.load(Ordering::Relaxed), back, "each handed-back result drops once");
        let away = drops.away.load(Ordering::Relaxed);
        assert!(away <= window, "{ending:?}, par={par} window={window}: {away} dropped off their producer");
    }

    #[test]
    fn handed_back_results_drop_at_home() {
        for par in WIDTHS {
            for ending in [Ending::Success, Ending::WorkError, Ending::FoldError, Ending::Cancel, Ending::Panic] {
                home_drive(200, par, par * 4, ending, 150);
                home_drive(200, par, 2, ending, 3);
            }
        }
    }

    #[test]
    fn nested_and_concurrent_drives_drop_results_at_home() {
        for par in WIDTHS {
            run_morsels(6, par, &stmt(), |o| {
                home_drive(60, par, par * 2, Ending::Success, 0);
                home_drive(60, par, 3, Ending::FoldError, o * 7);
                Ok(())
            })
            .unwrap();
            std::thread::scope(|s| {
                for client in 0..4usize {
                    s.spawn(move || {
                        for round in 0..10 {
                            home_drive(50, par, par * 4, Ending::Success, 0);
                            home_drive(50, par, par * 4, Ending::Cancel, (client + round) % 50);
                        }
                    });
                }
            });
            assert_eq!(tickets_left(), 0);
        }
    }

    proptest! {
        /// Every result a fold hands back drops exactly once, on the thread
        /// that built it save at most `window` per drive, however the drive
        /// ends.
        #[test]
        fn prop_handed_back_results_drop_at_home(
            n in 0usize..150,
            w in 0usize..WIDTHS.len(),
            window in 1usize..12,
            ending in 0usize..5,
            at in 0usize..160,
        ) {
            let ending = [Ending::Success, Ending::WorkError, Ending::FoldError, Ending::Cancel, Ending::Panic][ending];
            home_drive(n, WIDTHS[w], window, ending, at);
        }

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
