//! Buffer pool replacement policies (§II.B.5).
//!
//! The paper: LRU collapses on Big Data scans — "the least recently
//! accessed data at the end of a scan is the data that was at the top of
//! the scan, meaning the top of the scan is rarely in RAM at the start of
//! the next scan". dashDB replaced it with "a novel probabilistic algorithm
//! for buffer pool replacement ... maintain[ing] a notion of access
//! frequency, but ... less sensitive to the position of data in the table"
//! (US patent 9,037,803), "within a few percentiles of optimal".
//!
//! [`Policy::RandomizedWeight`] implements that algorithm as two combined
//! ideas:
//!
//! 1. **Frequency weights with probation.** A faulted-in page starts at
//!    weight 0 and earns weight only on re-reference. Weight-0 pages are
//!    always victimized first, so a long scan streams through a bounded
//!    probation pool instead of flushing the frequently-reused set — this
//!    is the "notion of access frequency".
//! 2. **Randomized victim selection.** Among established pages, eviction
//!    samples a few random residents and takes the lightest; probation
//!    evicts newest-first (the page that just streamed past is the one
//!    whose next use is farthest away). There is no global recency queue,
//!    so *where* a page sits in the table (top vs bottom of the scan)
//!    cannot bias its survival — the "less sensitive to the position of
//!    data" property.
//!
//! Weights are periodically halved so a shifted hot set ages out.
//! LRU, MRU, and pure-random baselines plus a Belady-optimal replay oracle
//! complete the experiment for `repro_bufferpool`.

use dash_common::faults::{FaultAction, FaultRegistry, PAGE_READ};
use dash_common::fxhash::FxHashMap;
use dash_common::{DashError, Result, StatementContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Identifies one cached page: a (table, column, stride) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning table.
    pub table: u32,
    /// Column ordinal.
    pub column: u32,
    /// Stride index.
    pub stride: u32,
}

impl PageKey {
    /// Convenience constructor.
    pub fn new(table: u32, column: u32, stride: u32) -> PageKey {
        PageKey {
            table,
            column,
            stride,
        }
    }
}

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Classic least-recently-used (the 30-year default the paper calls
    /// out as incompatible with scanning).
    Lru,
    /// Most-recently-used — the textbook fix for pure cyclic scans.
    Mru,
    /// Uniform random victim.
    Random,
    /// The paper's probabilistic frequency-weighted policy.
    RandomizedWeight,
}

/// Pool access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Accesses that found the page resident.
    pub hits: u64,
    /// Accesses that had to fault the page in.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; 0 for an untouched pool.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PageMeta {
    /// Which slab the page lives in and its index there.
    slab: Slab,
    slab_idx: usize,
    /// Access-frequency weight; 0 = probation (never re-referenced).
    weight: u32,
    /// Logical clock of last access (LRU/MRU policies).
    last_access: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slab {
    Probation,
    Established,
}

/// Victim-selection sample size among established pages.
const SAMPLE: usize = 8;
/// Weights are halved every `capacity * AGE_PERIOD_FACTOR` accesses.
const AGE_PERIOD_FACTOR: u64 = 8;

/// A simulated buffer pool tracking residency, not page bytes: callers ask
/// [`BufferPool::access`] whether a page was a hit; misses feed the
/// simulated I/O device model.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    policy: Policy,
    pages: FxHashMap<PageKey, PageMeta>,
    /// Dense slabs of resident keys for O(1) random sampling.
    probation: Vec<PageKey>,
    established: Vec<PageKey>,
    /// (last_access, key) ordering for LRU/MRU victim selection.
    recency: BTreeSet<(u64, PageKey)>,
    clock: u64,
    stats: PoolStats,
    rng: StdRng,
    /// Armed by chaos tests; `None` (the default) keeps page faults free.
    faults: Option<FaultRegistry>,
}

impl BufferPool {
    /// Create a pool holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: Policy) -> BufferPool {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        BufferPool {
            capacity,
            policy,
            pages: FxHashMap::default(),
            probation: Vec::new(),
            established: Vec::new(),
            recency: BTreeSet::new(),
            clock: 0,
            stats: PoolStats::default(),
            rng: StdRng::seed_from_u64(0x5EED),
            faults: None,
        }
    }

    /// Route this pool's page reads through `reg`'s
    /// [`PAGE_READ`] failpoint (see [`dash_common::faults`]).
    pub fn set_fault_registry(&mut self, reg: FaultRegistry) {
        self.faults = Some(reg);
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident pages.
    pub fn resident(&self) -> usize {
        self.probation.len() + self.established.len()
    }

    /// Access statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Reset counters (e.g. after a warm-up phase) without evicting pages.
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }

    /// Touch a page: returns `true` on hit. On miss the page is faulted in,
    /// evicting a victim if the pool is full. A read a [`PAGE_READ`]
    /// failpoint fails faults nothing in and counts as the miss it was;
    /// callers that must see the error use [`BufferPool::try_access`].
    pub fn access(&mut self, key: PageKey) -> bool {
        self.try_access(key).unwrap_or(false)
    }

    /// [`BufferPool::access`] with injected-fault propagation: a fired
    /// [`PAGE_READ`] failpoint surfaces as [`DashError::Storage`] (the
    /// simulated device failed the read; the page is *not* faulted in) or
    /// stalls the read in place (a slow device). Runs under the ambient
    /// (unbounded) statement context; statement-scoped callers use
    /// [`BufferPool::try_access_for`] so stalls observe cancellation.
    pub fn try_access(&mut self, key: PageKey) -> Result<bool> {
        self.try_access_for(key, StatementContext::ambient())
    }

    /// [`BufferPool::try_access`] under a statement's lifecycle handle: a
    /// simulated-I/O stall is sliced (~1 ms granularity) and polls the
    /// statement's cancellation token, so a deadline kill never waits out
    /// a stalled page read. A cancelled statement surfaces
    /// [`DashError::Cancelled`] from the stall site; the page is *not*
    /// faulted in.
    pub fn try_access_for(&mut self, key: PageKey, stmt: &StatementContext) -> Result<bool> {
        self.clock += 1;
        if self.policy == Policy::RandomizedWeight
            && self.clock.is_multiple_of(self.capacity as u64 * AGE_PERIOD_FACTOR)
        {
            self.age_weights();
        }
        if let Some(m) = self.pages.get_mut(&key) {
            m.weight = m.weight.saturating_add(1);
            let (old, meta) = (m.last_access, *m);
            m.last_access = self.clock;
            self.stats.hits += 1;
            if matches!(self.policy, Policy::Lru | Policy::Mru) {
                self.recency.remove(&(old, key));
                self.recency.insert((self.clock, key));
            }
            if self.policy == Policy::RandomizedWeight && meta.slab == Slab::Probation {
                self.move_to_established(key, meta.slab_idx);
            }
            return Ok(true);
        }
        self.stats.misses += 1;
        // A miss is a physical read against the simulated device — the
        // fault site. An injected error means the read failed and the page
        // stays non-resident; a stall models a slow device.
        if let Some(reg) = &self.faults {
            match reg.evaluate(PAGE_READ) {
                Some(FaultAction::Error(msg)) => {
                    return Err(DashError::Storage(format!(
                        "page read failed (table {} col {} stride {}): {msg}",
                        key.table, key.column, key.stride
                    )));
                }
                Some(FaultAction::Stall(d)) => stmt.sleep_cancellable(d)?,
                None => {}
            }
        }
        if self.resident() >= self.capacity {
            self.evict();
        }
        // New pages start in probation under RandomizedWeight; other
        // policies use the established slab for everything.
        let slab = if self.policy == Policy::RandomizedWeight {
            Slab::Probation
        } else {
            Slab::Established
        };
        let idx = match slab {
            Slab::Probation => {
                self.probation.push(key);
                self.probation.len() - 1
            }
            Slab::Established => {
                self.established.push(key);
                self.established.len() - 1
            }
        };
        self.pages.insert(
            key,
            PageMeta {
                slab,
                slab_idx: idx,
                weight: 0,
                last_access: self.clock,
            },
        );
        if matches!(self.policy, Policy::Lru | Policy::Mru) {
            self.recency.insert((self.clock, key));
        }
        Ok(false)
    }

    /// Move resident `key` from probation slot `idx` to the established slab.
    fn move_to_established(&mut self, key: PageKey, idx: usize) {
        self.slab_remove(Slab::Probation, idx);
        self.established.push(key);
        let at = self.established.len() - 1;
        if let Some(m) = self.pages.get_mut(&key) {
            m.slab = Slab::Established;
            m.slab_idx = at;
        }
    }

    /// Evict the policy's victim; an empty pool (capacity 0) has none.
    fn evict(&mut self) {
        let established = self.established.len();
        let victim = match self.policy {
            Policy::Lru => self.recency.first().map(|&(_, k)| k),
            Policy::Mru => self.recency.last().map(|&(_, k)| k),
            Policy::Random => (established > 0).then(|| self.established[self.rng.gen_range(0..established)]),
            // Probation absorbs scan traffic newest-first: a page that has
            // streamed past without re-reference is the one whose next use
            // is farthest away (for a scan, a full table-pass later), so it
            // is the best victim — this is what keeps the retained set
            // stable across repeated scans instead of LRU's self-flushing.
            Policy::RandomizedWeight if !self.probation.is_empty() => self.probation.last().copied(),
            Policy::RandomizedWeight => {
                // Sample established pages; evict the lightest.
                let mut best: Option<(u32, PageKey)> = None;
                for _ in (0..SAMPLE).filter(|_| established > 0) {
                    let k = self.established[self.rng.gen_range(0..established)];
                    let w = self.pages.get(&k).map_or(0, |m| m.weight);
                    if best.is_none_or(|b| w < b.0) {
                        best = Some((w, k));
                    }
                }
                best.map(|b| b.1)
            }
        };
        if let Some(victim) = victim {
            self.remove(victim);
            self.stats.evictions += 1;
        }
    }

    fn remove(&mut self, key: PageKey) {
        let Some(meta) = self.pages.remove(&key) else { return };
        if matches!(self.policy, Policy::Lru | Policy::Mru) {
            self.recency.remove(&(meta.last_access, key));
        }
        self.slab_remove(meta.slab, meta.slab_idx);
    }

    /// Swap-remove from a slab, fixing the moved page's index.
    fn slab_remove(&mut self, slab: Slab, idx: usize) {
        let v = match slab {
            Slab::Probation => &mut self.probation,
            Slab::Established => &mut self.established,
        };
        v.swap_remove(idx);
        if let Some(m) = v.get(idx).and_then(|moved| self.pages.get_mut(moved)) {
            m.slab_idx = idx;
        }
    }

    fn age_weights(&mut self) {
        for meta in self.pages.values_mut() {
            meta.weight /= 2;
        }
        // Pages aged back to 0 conceptually return to probation so the
        // sampler can reclaim them quickly if the hot set shifted.
        let demote: Vec<PageKey> = self
            .established
            .iter()
            .copied()
            .filter(|k| self.pages[k].weight == 0)
            .collect();
        for k in demote {
            let meta = self.pages[&k];
            self.slab_remove(Slab::Established, meta.slab_idx);
            self.probation.push(k);
            let at = self.probation.len() - 1;
            if let Some(m) = self.pages.get_mut(&k) {
                m.slab = Slab::Probation;
                m.slab_idx = at;
            }
        }
    }
}

/// Replay a page trace under a policy; returns the stats.
pub fn simulate(trace: &[PageKey], capacity: usize, policy: Policy) -> PoolStats {
    let mut pool = BufferPool::new(capacity, policy);
    for &k in trace {
        pool.access(k);
    }
    pool.stats()
}

/// Belady's optimal (clairvoyant) replacement replay: on eviction, discard
/// the resident page whose next use is farthest in the future. The upper
/// bound every online policy is measured against.
pub fn optimal_hit_ratio(trace: &[PageKey], capacity: usize) -> f64 {
    assert!(capacity > 0, "capacity must be positive");
    // next_use[i] = next index where trace[i]'s page recurs (usize::MAX if never).
    let mut next_use = vec![usize::MAX - 1; trace.len()];
    let mut last_seen: FxHashMap<PageKey, usize> = FxHashMap::default();
    for (i, k) in trace.iter().enumerate().rev() {
        if let Some(&j) = last_seen.get(k) {
            next_use[i] = j;
        }
        last_seen.insert(*k, i);
    }
    let mut resident: FxHashMap<PageKey, usize> = FxHashMap::default();
    let mut by_next: BTreeSet<(usize, PageKey)> = BTreeSet::new();
    let mut hits = 0u64;
    for (i, &k) in trace.iter().enumerate() {
        if let Some(&nu) = resident.get(&k) {
            hits += 1;
            by_next.remove(&(nu, k));
        } else if resident.len() >= capacity {
            if let Some((_, far_k)) = by_next.pop_last() {
                resident.remove(&far_k);
            }
        }
        resident.insert(k, next_use[i]);
        by_next.insert((next_use[i], k));
    }
    if trace.is_empty() {
        0.0
    } else {
        hits as f64 / trace.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_trace(pages: u32, cycles: usize) -> Vec<PageKey> {
        let mut t = Vec::new();
        for _ in 0..cycles {
            for p in 0..pages {
                t.push(PageKey::new(0, 0, p));
            }
        }
        t
    }

    #[test]
    fn lru_collapses_on_cyclic_scan() {
        // 100-page table, 50-page cache, repeated scans: LRU gets ~0 hits.
        let trace = scan_trace(100, 10);
        let stats = simulate(&trace, 50, Policy::Lru);
        assert_eq!(stats.hits, 0, "LRU must thrash on a cyclic scan");
    }

    #[test]
    fn mru_is_optimal_on_cyclic_scan() {
        let trace = scan_trace(100, 10);
        let stats = simulate(&trace, 50, Policy::Mru);
        let opt = optimal_hit_ratio(&trace, 50);
        assert!(
            (stats.hit_ratio() - opt).abs() < 0.02,
            "MRU {:.3} vs optimal {:.3}",
            stats.hit_ratio(),
            opt
        );
    }

    #[test]
    fn randomized_weight_within_a_few_percentiles_of_optimal() {
        // The headline claim: on Big-Data-style scanning, the probabilistic
        // policy lands within a few percentage points of Belady.
        let trace = scan_trace(200, 20);
        let stats = simulate(&trace, 100, Policy::RandomizedWeight);
        let opt = optimal_hit_ratio(&trace, 100);
        assert!(opt > 0.4, "sanity: optimal should be ~C/N = 0.5, got {opt}");
        assert!(
            stats.hit_ratio() > opt - 0.08,
            "randomized-weight {:.3} should be within a few points of optimal {:.3}",
            stats.hit_ratio(),
            opt
        );
        // And it must crush LRU on this workload.
        let lru = simulate(&trace, 100, Policy::Lru);
        assert!(stats.hit_ratio() > lru.hit_ratio() + 0.3);
    }

    #[test]
    fn frequency_weighting_retains_hot_pages() {
        // 20 hot pages touched every round interleaved with a rotating
        // window over 200 cold pages; cache of 40.
        let mut trace = Vec::new();
        for round in 0..200 {
            for hot in 0..20u32 {
                trace.push(PageKey::new(0, 0, hot));
            }
            for cold in 0..10u32 {
                trace.push(PageKey::new(0, 1, (round * 10 + cold) % 200));
            }
        }
        let rw = simulate(&trace, 40, Policy::RandomizedWeight);
        let lru = simulate(&trace, 40, Policy::Lru);
        assert!(
            rw.hit_ratio() > 0.55,
            "hot pages should mostly hit: {:.3}",
            rw.hit_ratio()
        );
        assert!(
            rw.hit_ratio() >= lru.hit_ratio() - 0.02,
            "rw {:.3} vs lru {:.3}",
            rw.hit_ratio(),
            lru.hit_ratio()
        );
    }

    #[test]
    fn adapts_after_hot_set_shift() {
        // Hot set A for many rounds, then hot set B: aging must let B in.
        let mut trace = Vec::new();
        for _ in 0..500 {
            for p in 0..30u32 {
                trace.push(PageKey::new(0, 0, p));
            }
        }
        for _ in 0..500 {
            for p in 100..130u32 {
                trace.push(PageKey::new(0, 0, p));
            }
        }
        let mut pool = BufferPool::new(40, Policy::RandomizedWeight);
        for &k in &trace {
            pool.access(k);
        }
        pool.reset_stats();
        for _ in 0..10 {
            for p in 100..130u32 {
                pool.access(PageKey::new(0, 0, p));
            }
        }
        assert!(
            pool.stats().hit_ratio() > 0.9,
            "new hot set should be cached after shift: {:.3}",
            pool.stats().hit_ratio()
        );
    }

    #[test]
    fn capacity_respected() {
        let trace = scan_trace(100, 2);
        for policy in [
            Policy::Lru,
            Policy::Mru,
            Policy::Random,
            Policy::RandomizedWeight,
        ] {
            let mut pool = BufferPool::new(10, policy);
            for &k in &trace {
                pool.access(k);
            }
            assert!(pool.resident() <= 10, "{policy:?} overflowed");
            let s = pool.stats();
            assert_eq!(s.hits + s.misses, trace.len() as u64);
        }
    }

    #[test]
    fn small_workload_all_hits_after_warmup() {
        let mut pool = BufferPool::new(100, Policy::Lru);
        for cycle in 0..3 {
            for p in 0..50u32 {
                let hit = pool.access(PageKey::new(0, 0, p));
                assert_eq!(hit, cycle > 0);
            }
        }
    }

    #[test]
    fn injected_page_read_faults_surface_as_storage_errors() {
        use dash_common::faults::{FaultAction, FaultPolicy, FaultRegistry};

        let reg = FaultRegistry::new();
        let mut pool = BufferPool::new(10, Policy::RandomizedWeight);
        pool.set_fault_registry(reg.clone());
        // Disarmed: behaves exactly like the plain path.
        assert!(!pool.access(PageKey::new(0, 0, 0)));
        assert!(pool.access(PageKey::new(0, 0, 0)));

        reg.arm(
            super::PAGE_READ,
            FaultPolicy::EveryNth(2),
            FaultAction::Error("device dropped the ball".into()),
        );
        // First miss after arming survives (1st evaluation), second fails.
        assert!(!pool.try_access(PageKey::new(0, 0, 1)).unwrap());
        let err = pool.try_access(PageKey::new(0, 0, 2)).unwrap_err();
        assert_eq!(err.class(), "58030", "storage SQLSTATE class: {err}");
        // The failed page was not faulted in.
        assert!(!pool.try_access(PageKey::new(0, 0, 2)).unwrap());
        // Hits never consult the device, so they never fail.
        for _ in 0..8 {
            assert!(pool.try_access(PageKey::new(0, 0, 0)).unwrap());
        }
    }

    #[test]
    fn cancelled_statement_preempts_injected_stall() {
        use dash_common::faults::{FaultAction, FaultPolicy, FaultRegistry};
        use std::time::{Duration, Instant};

        let reg = FaultRegistry::new();
        let mut pool = BufferPool::new(10, Policy::RandomizedWeight);
        pool.set_fault_registry(reg.clone());
        reg.arm(
            super::PAGE_READ,
            FaultPolicy::Always,
            FaultAction::Stall(Duration::from_secs(10)),
        );
        let stmt = StatementContext::unbounded();
        stmt.cancel();
        let start = Instant::now();
        let err = pool
            .try_access_for(PageKey::new(0, 0, 0), &stmt)
            .unwrap_err();
        assert_eq!(err, DashError::Cancelled);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a dead statement must not wait out the stall: {:?}",
            start.elapsed()
        );
        // The stalled read did not fault the page in.
        reg.disarm(super::PAGE_READ);
        assert!(!pool.try_access(PageKey::new(0, 0, 0)).unwrap());
    }

    #[test]
    fn deadline_fires_mid_stall() {
        use dash_common::faults::{FaultAction, FaultPolicy, FaultRegistry};
        use std::time::{Duration, Instant};

        let reg = FaultRegistry::new();
        let mut pool = BufferPool::new(10, Policy::RandomizedWeight);
        pool.set_fault_registry(reg.clone());
        reg.arm(
            super::PAGE_READ,
            FaultPolicy::Always,
            FaultAction::Stall(Duration::from_secs(10)),
        );
        // Deadline-armed token with no explicit cancel(): the sliced sleep
        // itself observes the deadline.
        let stmt = StatementContext::with_deadline(Duration::from_millis(20));
        let start = Instant::now();
        let err = pool
            .try_access_for(PageKey::new(0, 0, 1), &stmt)
            .unwrap_err();
        assert_eq!(err, DashError::Cancelled);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "deadline must preempt the stall: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn optimal_oracle_sanity() {
        // Fits in cache: everything after the first pass hits.
        let trace = scan_trace(10, 10);
        assert!((optimal_hit_ratio(&trace, 10) - 0.9).abs() < 1e-9);
        // Cyclic scan optimum ~ (C-1)/(N-1) per steady-state cycle.
        let trace = scan_trace(100, 50);
        let opt = optimal_hit_ratio(&trace, 50);
        assert!(opt > 0.45 && opt < 0.52, "got {opt}");
        assert_eq!(optimal_hit_ratio(&[], 4), 0.0);
    }
}
