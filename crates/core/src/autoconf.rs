//! Automatic configuration (§II.A).
//!
//! "dashDB Local includes an automatic configuration component that detects
//! several characteristics of the hardware environment, and adapts its
//! configuration to optimize for the resources available. This includes
//! automatic detection of CPU and core counts, and automatic detection of
//! RAM."
//!
//! [`HardwareSpec::detect`] reads the actual machine; [`AutoConfig::derive`]
//! is the pure sizing function (tested against the paper's envelope: from
//! the 8 GB / 2-core laptop minimum up to 72-core / 6 TB servers).

use serde::{Deserialize, Serialize};

/// Detected (or simulated) hardware characteristics of one host.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Logical CPU cores.
    pub cores: u32,
    /// Physical RAM in megabytes.
    pub ram_mb: u64,
}

impl HardwareSpec {
    /// A spec from explicit values (used by the deployment simulator).
    pub fn new(cores: u32, ram_mb: u64) -> HardwareSpec {
        HardwareSpec { cores, ram_mb }
    }

    /// The paper's entry-level target: "8GB RAM and 20GB of storage ...
    /// suitable for a development / test environment ... on your laptop".
    pub fn laptop() -> HardwareSpec {
        HardwareSpec::new(4, 8 * 1024)
    }

    /// The paper's high-end example: "Xeon e7 4 x 18 core 72 way machines
    /// with 6 TB RAM".
    pub fn xeon_e7() -> HardwareSpec {
        HardwareSpec::new(72, 6 * 1024 * 1024)
    }

    /// Detect the current machine (Linux: `/proc`; elsewhere falls back to
    /// `std::thread::available_parallelism` and a conservative RAM guess).
    pub fn detect() -> HardwareSpec {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(1);
        let ram_mb = read_meminfo_mb().unwrap_or(8 * 1024);
        HardwareSpec { cores, ram_mb }
    }
}

fn read_meminfo_mb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("MemTotal:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb / 1024);
        }
    }
    None
}

/// The derived engine configuration — the knobs a DBA would otherwise have
/// to set for "the allocation of memory to functional purposes (caching,
/// sorting, hashing, locking, logging, etc.), query parallelism degree,
/// workload management infrastructure".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoConfig {
    /// Buffer pool size in 32 KB pages (~40% of RAM).
    pub bufferpool_pages: u64,
    /// Sort/hash working memory per query, in MB (~15% of RAM / concurrency).
    pub sort_heap_mb: u64,
    /// Intra-query parallelism degree (== cores, the scan fan-out).
    pub query_parallelism: u32,
    /// Workload-manager admission limit (concurrent heavyweight queries).
    pub wlm_concurrency: u32,
    /// Hash shards this host should carry (several per host so shards can
    /// be re-associated on failover; bounded by core count, §II.E).
    pub shards: u32,
    /// Memory reserved for the integrated analytics runtime, in MB (~20%).
    pub analytics_mb: u64,
}

impl AutoConfig {
    /// The parallelism degree queries actually run with: the derived
    /// `query_parallelism` (uncapped — one knob governs the whole morsel
    /// pipeline), unless the `DASH_PARALLELISM` environment variable
    /// overrides it. The override exists for tests, benchmarks, and CI
    /// matrices that pin the worker count regardless of host hardware.
    pub fn effective_parallelism(&self) -> usize {
        parallelism_override(std::env::var("DASH_PARALLELISM").ok().as_deref())
            .unwrap_or((self.query_parallelism as usize).max(1))
    }

    /// Rows per parallel sort run: the engine default unless
    /// `DASH_SORT_RUN_ROWS` overrides it. Smaller runs mean more morsels
    /// (useful to force fan-out in tests and benchmarks); larger runs
    /// amortize merge fan-in on huge inputs.
    pub fn effective_sort_run_rows(&self) -> usize {
        sort_run_rows_override(std::env::var("DASH_SORT_RUN_ROWS").ok().as_deref())
            .unwrap_or(dash_exec::sort::DEFAULT_SORT_RUN_ROWS)
    }

    /// Pipeline in-flight morsel window from `DASH_PIPELINE_INFLIGHT`;
    /// 0 (or unset) means auto — the scheduler derives parallelism × 4.
    pub fn effective_pipeline_inflight(&self) -> usize {
        inflight_override(std::env::var("DASH_PIPELINE_INFLIGHT").ok().as_deref()).unwrap_or(0)
    }
}

/// Parse a `DASH_PIPELINE_INFLIGHT` value; `None` when unset or
/// unparsable (zero is a valid explicit "auto").
fn inflight_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
}

/// Parse a `DASH_SORT_RUN_ROWS` value; `None` when unset, unparsable, or
/// zero (zero would be a degenerate run size and means "use the default").
fn sort_run_rows_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// Parse a `DASH_PARALLELISM` value; `None` when unset, unparsable, or
/// zero (zero would deadlock nothing but means "derive it", like unset).
fn parallelism_override(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

/// Default statement deadline from `DASH_STATEMENT_TIMEOUT_MS`. `None`
/// (unset / unparsable / zero) means statements run without a deadline;
/// sessions can still arm one per-statement.
pub fn default_statement_timeout() -> Option<std::time::Duration> {
    timeout_override(std::env::var("DASH_STATEMENT_TIMEOUT_MS").ok().as_deref())
}

fn timeout_override(raw: Option<&str>) -> Option<std::time::Duration> {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&ms| ms >= 1)
        .map(std::time::Duration::from_millis)
}

/// Default per-statement memory budget from `DASH_MEM_BUDGET_BYTES`.
/// `None` (unset / unparsable / zero) means unlimited.
pub fn default_mem_budget() -> Option<u64> {
    budget_override(std::env::var("DASH_MEM_BUDGET_BYTES").ok().as_deref())
}

fn budget_override(raw: Option<&str>) -> Option<u64> {
    raw.and_then(|v| v.trim().parse::<u64>().ok()).filter(|&b| b >= 1)
}

/// Group-commit batching window from `DASH_GROUP_COMMIT_US` (default
/// 100µs). The leader of a commit batch waits at most this long for
/// concurrent committers to pile in before flushing; `0` disables the
/// wait entirely (each commit still batches opportunistically with
/// whatever is already queued).
pub fn default_group_commit_window() -> std::time::Duration {
    group_commit_override(std::env::var("DASH_GROUP_COMMIT_US").ok().as_deref())
        .unwrap_or(std::time::Duration::from_micros(100))
}

fn group_commit_override(raw: Option<&str>) -> Option<std::time::Duration> {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .map(std::time::Duration::from_micros)
}

impl AutoConfig {
    /// Derive the configuration from hardware — the whole point is that
    /// this is a *function*: same hardware in, same tuned system out,
    /// no human in the loop.
    pub fn derive(hw: &HardwareSpec) -> AutoConfig {
        let ram = hw.ram_mb.max(1024);
        let cores = hw.cores.max(1);
        // 40% of RAM to the buffer pool, in 32 KB pages.
        let bufferpool_pages = ram * 2 / 5 * 1024 / 32;
        // WLM admits roughly one heavy query per 4 cores, at least 2.
        let wlm_concurrency = (cores / 4).max(2);
        // 15% of RAM split across admitted queries for sort/hash heaps.
        let sort_heap_mb = (ram * 3 / 20 / wlm_concurrency as u64).max(32);
        // Several shards per host, at most one per core, at least 4
        // (so a small cluster can still rebalance in increments).
        let shards = cores.clamp(4, 24.min(cores.max(4)));
        AutoConfig {
            bufferpool_pages,
            sort_heap_mb,
            query_parallelism: cores,
            wlm_concurrency,
            shards,
            analytics_mb: ram / 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laptop_configuration() {
        let c = AutoConfig::derive(&HardwareSpec::laptop());
        // 8 GB machine: ~3.2 GB buffer pool.
        assert_eq!(c.bufferpool_pages, 8 * 1024 * 2 / 5 * 1024 / 32);
        assert_eq!(c.query_parallelism, 4);
        assert_eq!(c.wlm_concurrency, 2);
        assert!(c.sort_heap_mb >= 32);
        assert_eq!(c.shards, 4);
    }

    #[test]
    fn xeon_configuration_scales() {
        let small = AutoConfig::derive(&HardwareSpec::laptop());
        let big = AutoConfig::derive(&HardwareSpec::xeon_e7());
        assert!(big.bufferpool_pages > small.bufferpool_pages * 100);
        assert_eq!(big.query_parallelism, 72);
        assert_eq!(big.wlm_concurrency, 18);
        assert_eq!(big.shards, 24, "shards bounded so rebalancing stays granular");
    }

    #[test]
    fn derivation_is_deterministic() {
        let hw = HardwareSpec::new(16, 128 * 1024);
        assert_eq!(AutoConfig::derive(&hw), AutoConfig::derive(&hw));
    }

    #[test]
    fn degenerate_hardware_clamped() {
        let c = AutoConfig::derive(&HardwareSpec::new(0, 0));
        assert!(c.query_parallelism >= 1);
        assert!(c.wlm_concurrency >= 2);
        assert!(c.bufferpool_pages > 0);
        assert!(c.shards >= 4);
    }

    #[test]
    fn parallelism_override_parsing() {
        assert_eq!(parallelism_override(None), None);
        assert_eq!(parallelism_override(Some("")), None);
        assert_eq!(parallelism_override(Some("abc")), None);
        assert_eq!(parallelism_override(Some("0")), None, "0 means derive");
        assert_eq!(parallelism_override(Some("4")), Some(4));
        assert_eq!(parallelism_override(Some(" 16 ")), Some(16));
    }

    #[test]
    fn sort_run_rows_override_parsing() {
        assert_eq!(sort_run_rows_override(None), None);
        assert_eq!(sort_run_rows_override(Some("junk")), None);
        assert_eq!(sort_run_rows_override(Some("0")), None, "0 means default");
        assert_eq!(sort_run_rows_override(Some(" 4096 ")), Some(4096));
        if std::env::var("DASH_SORT_RUN_ROWS").is_err() {
            assert_eq!(
                AutoConfig::derive(&HardwareSpec::laptop()).effective_sort_run_rows(),
                dash_exec::sort::DEFAULT_SORT_RUN_ROWS
            );
        }
    }

    #[test]
    fn inflight_override_parsing() {
        assert_eq!(inflight_override(None), None);
        assert_eq!(inflight_override(Some("junk")), None);
        assert_eq!(inflight_override(Some("0")), Some(0), "explicit auto");
        assert_eq!(inflight_override(Some(" 64 ")), Some(64));
    }

    #[test]
    fn statement_limit_override_parsing() {
        assert_eq!(timeout_override(None), None);
        assert_eq!(timeout_override(Some("0")), None, "0 means no deadline");
        assert_eq!(timeout_override(Some("junk")), None);
        assert_eq!(
            timeout_override(Some(" 250 ")),
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(budget_override(None), None);
        assert_eq!(budget_override(Some("0")), None, "0 means unlimited");
        assert_eq!(budget_override(Some("1048576")), Some(1 << 20));
    }

    #[test]
    fn xeon_parallelism_uncapped() {
        // The silent .min(8) cap is gone: a 72-core box runs 72-wide
        // (unless DASH_PARALLELISM overrides, which this test avoids
        // asserting to stay env-independent).
        let big = AutoConfig::derive(&HardwareSpec::xeon_e7());
        if std::env::var("DASH_PARALLELISM").is_err() {
            assert_eq!(big.effective_parallelism(), 72);
        }
    }

    #[test]
    fn detect_runs() {
        let hw = HardwareSpec::detect();
        assert!(hw.cores >= 1);
        assert!(hw.ram_mb >= 256);
    }
}
