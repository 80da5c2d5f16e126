//! Per-query execution statistics.
//!
//! These counters are how the benchmarks *measure* the architectural
//! claims: strides skipped by the synopsis, pages served from the buffer
//! pool vs faulted, rows touched vs returned.

use std::ops::AddAssign;

/// Counters accumulated during plan execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Sealed strides the table(s) hold in total.
    pub strides_total: u64,
    /// Strides pruned by the synopsis without touching data.
    pub strides_skipped: u64,
    /// Strides actually scanned.
    pub strides_scanned: u64,
    /// Page accesses that hit the buffer pool.
    pub pool_hits: u64,
    /// Page accesses that faulted (simulated I/O).
    pub pool_misses: u64,
    /// Rows examined (post-skipping, pre-predicate).
    pub rows_scanned: u64,
    /// Rows produced by the plan root.
    pub rows_out: u64,
    /// Rows spilled/moved by joins and aggregations (partitioning traffic).
    pub rows_partitioned: u64,
    /// Morsels dispatched to the shared worker pool (scan strides,
    /// materialization strides, aggregate/join partitions, row ranges).
    pub morsels_dispatched: u64,
    /// Peak number of pool workers that claimed work in any single parallel
    /// phase of the query. `1` means everything ran serially.
    pub parallel_workers_used: u64,
    /// Worst preemption latency any pool worker observed, in morsels: how
    /// many morsels completed after the statement's cancellation token
    /// flipped. Bounded at 1 by the claim-check contract; 0 for
    /// statements that were never cancelled.
    pub cancel_latency_max_morsels: u64,
    /// Memory-budget reservations the statement was refused.
    pub budget_rejections: u64,
    /// Sorted runs produced by parallel run generation, with or without
    /// a LIMIT. Zero when no sort ran.
    pub sort_runs_generated: u64,
    /// Widest k-way merge fan-in any sort in the query performed.
    pub merge_fanin: u64,
    /// Join/group key rows keyed on fixed-width code words — every keyed
    /// row: the operate-on-compressed path is the only one.
    pub encoded_key_rows: u64,
    /// Rows whose side lost the dictionary vote and re-encoded into the
    /// other side's code domain (the re-encode rule: translate the
    /// smaller side, never decode the larger one).
    pub keys_reencoded_rows: u64,
    /// Pipelines the morsel scheduler drove (source→…→sink chains).
    pub pipelines_run: u64,
    /// Pipeline breakers crossed: hash-join builds, aggregate merges,
    /// sorts and the whole-batch operators (DISTINCT, UNION ALL, ...) whose
    /// finished output feeds the next pipeline.
    pub pipeline_breakers: u64,
    /// Peak number of morsels simultaneously claimed-but-unfolded inside
    /// any pipeline drive (bounded by the `parallelism * 4` window).
    pub peak_inflight_morsels: u64,
    /// Peak bytes held by in-flight morsel results awaiting their in-order
    /// fold, plus the frozen join builds they probe — the O(morsels in
    /// flight) bound on a pipeline's working memory.
    pub peak_inflight_bytes: u64,
}

impl ExecStats {
    /// Fraction of strides skipped.
    pub fn skip_ratio(&self) -> f64 {
        if self.strides_total == 0 {
            0.0
        } else {
            self.strides_skipped as f64 / self.strides_total as f64
        }
    }

    /// Record one pool fan-out: `morsels` scheduling units dispatched,
    /// `workers` workers that actually claimed work.
    pub fn note_parallel_phase(&mut self, morsels: u64, workers: u64) {
        self.morsels_dispatched += morsels;
        self.parallel_workers_used = self.parallel_workers_used.max(workers);
    }

    /// Buffer pool hit ratio over this query.
    pub fn pool_hit_ratio(&self) -> f64 {
        let t = self.pool_hits + self.pool_misses;
        if t == 0 {
            0.0
        } else {
            self.pool_hits as f64 / t as f64
        }
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.strides_total += rhs.strides_total;
        self.strides_skipped += rhs.strides_skipped;
        self.strides_scanned += rhs.strides_scanned;
        self.pool_hits += rhs.pool_hits;
        self.pool_misses += rhs.pool_misses;
        self.rows_scanned += rhs.rows_scanned;
        self.rows_out += rhs.rows_out;
        self.rows_partitioned += rhs.rows_partitioned;
        self.morsels_dispatched += rhs.morsels_dispatched;
        // Peak concurrency, not a sum: merging two phases that each used 4
        // workers still means the query ran 4-wide.
        self.parallel_workers_used = self.parallel_workers_used.max(rhs.parallel_workers_used);
        // Worst-case latency, not a sum: the bound is per-worker.
        self.cancel_latency_max_morsels = self
            .cancel_latency_max_morsels
            .max(rhs.cancel_latency_max_morsels);
        self.budget_rejections += rhs.budget_rejections;
        self.sort_runs_generated += rhs.sort_runs_generated;
        // Widest fan-in across phases, not a sum.
        self.merge_fanin = self.merge_fanin.max(rhs.merge_fanin);
        self.encoded_key_rows += rhs.encoded_key_rows;
        self.keys_reencoded_rows += rhs.keys_reencoded_rows;
        self.pipelines_run += rhs.pipelines_run;
        self.pipeline_breakers += rhs.pipeline_breakers;
        // Peaks, not sums: two pipelines that each held 4 morsels in flight
        // still bound the statement's simultaneous footprint at 4.
        self.peak_inflight_morsels = self.peak_inflight_morsels.max(rhs.peak_inflight_morsels);
        self.peak_inflight_bytes = self.peak_inflight_bytes.max(rhs.peak_inflight_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = ExecStats {
            strides_total: 10,
            strides_skipped: 8,
            pool_hits: 3,
            pool_misses: 1,
            ..Default::default()
        };
        assert!((s.skip_ratio() - 0.8).abs() < 1e-9);
        assert!((s.pool_hit_ratio() - 0.75).abs() < 1e-9);
        s += ExecStats {
            strides_total: 10,
            ..Default::default()
        };
        assert_eq!(s.strides_total, 20);
        assert_eq!(ExecStats::default().skip_ratio(), 0.0);
        assert_eq!(ExecStats::default().pool_hit_ratio(), 0.0);
    }

    #[test]
    fn parallel_counters_merge() {
        let mut s = ExecStats::default();
        s.note_parallel_phase(12, 4);
        s.note_parallel_phase(3, 2);
        assert_eq!(s.morsels_dispatched, 15);
        assert_eq!(s.parallel_workers_used, 4, "peak, not sum");
        let mut t = ExecStats::default();
        t.note_parallel_phase(5, 8);
        s += t;
        assert_eq!(s.morsels_dispatched, 20);
        assert_eq!(s.parallel_workers_used, 8);
    }

    #[test]
    fn sort_counters_merge() {
        let mut s = ExecStats {
            sort_runs_generated: 3,
            merge_fanin: 3,
            ..Default::default()
        };
        s += ExecStats {
            sort_runs_generated: 5,
            merge_fanin: 2,
            ..Default::default()
        };
        assert_eq!(s.sort_runs_generated, 8, "runs sum across sorts");
        assert_eq!(s.merge_fanin, 3, "fan-in is the widest merge, not a sum");
    }

    #[test]
    fn key_path_counters_sum() {
        let mut s = ExecStats {
            encoded_key_rows: 100,
            keys_reencoded_rows: 5,
            ..Default::default()
        };
        s += ExecStats {
            encoded_key_rows: 50,
            keys_reencoded_rows: 2,
            ..Default::default()
        };
        assert_eq!(s.encoded_key_rows, 150);
        assert_eq!(s.keys_reencoded_rows, 7);
    }

    #[test]
    fn pipeline_counters_merge() {
        let mut s = ExecStats {
            pipelines_run: 2,
            pipeline_breakers: 1,
            peak_inflight_morsels: 4,
            peak_inflight_bytes: 1000,
            ..Default::default()
        };
        s += ExecStats {
            pipelines_run: 1,
            pipeline_breakers: 2,
            peak_inflight_morsels: 3,
            peak_inflight_bytes: 5000,
            ..Default::default()
        };
        assert_eq!(s.pipelines_run, 3, "pipelines sum");
        assert_eq!(s.pipeline_breakers, 3, "breakers sum");
        assert_eq!(s.peak_inflight_morsels, 4, "peak, not sum");
        assert_eq!(s.peak_inflight_bytes, 5000, "peak, not sum");
    }
}
