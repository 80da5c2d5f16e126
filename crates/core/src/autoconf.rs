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

use dash_common::Result;
use dash_storage::wal::SyncPolicy;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Duration;

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
    /// What [`AutoConfig::effective_parallelism`] returns: the derived
    /// width, or `DASH_PARALLELISM` once [`AutoConfig::with_env`] applied.
    parallelism: usize,
}

/// The widest parallelism the engine runs: every pipeline drive spawns
/// one OS thread per worker, and the paper's largest host has 72 cores.
/// Wider requests (`DASH_PARALLELISM`, [`Catalog::set_parallelism`](crate::catalog::Catalog::set_parallelism))
/// are clamped here, where they enter.
pub const MAX_PARALLELISM: usize = 1024;

impl AutoConfig {
    /// The parallelism degree queries run with: `query_parallelism`
    /// (uncapped — one setting governs the whole morsel pipeline) unless
    /// `DASH_PARALLELISM` overrode it when the engine opened.
    pub fn effective_parallelism(&self) -> usize {
        self.parallelism
    }

    /// This configuration with the environment's parallelism override
    /// applied. [`AutoConfig::derive`] never reads the environment; an
    /// engine resolves both exactly once, when it opens.
    pub(crate) fn with_env(mut self, env: &EnvConfig) -> AutoConfig {
        self.parallelism = env.parallelism.unwrap_or(self.parallelism);
        self
    }
}

/// Every `DASH_*` setting the engine honours, parsed in one place:
/// [`EnvConfig::read`], called once per [`Database`](crate::Database)
/// open. An unset, empty or unparsable value means "not set" (README has
/// the table of defaults and who is expected to set each).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// `DASH_PARALLELISM`: worker count override (1..=[`MAX_PARALLELISM`])
    /// for tests, benchmarks and CI matrices that pin it regardless of
    /// the host.
    pub parallelism: Option<usize>,
    /// `DASH_STATEMENT_TIMEOUT_MS`: default statement deadline (>= 1 ms)
    /// of new sessions; unset means none.
    pub statement_timeout: Option<Duration>,
    /// `DASH_MEM_BUDGET_BYTES`: default per-statement memory budget
    /// (>= 1) of new sessions; unset means unlimited.
    pub mem_budget: Option<u64>,
    /// `DASH_WAL_SYNC` (`always`/`commit`/`never`, default `commit`). An
    /// unknown word is an error, reported by [`Database::open`](crate::Database::open).
    pub wal_sync: Result<SyncPolicy>,
    /// `DASH_WAL_DIR`: where [`Database::from_env`](crate::Database::from_env)
    /// opens a durable engine; unset or empty means volatile.
    pub wal_dir: Option<PathBuf>,
}

impl EnvConfig {
    /// Read the process environment.
    pub fn read() -> EnvConfig {
        EnvConfig::parse(|name| std::env::var(name).ok())
    }

    fn parse(var: impl Fn(&str) -> Option<String>) -> EnvConfig {
        let at_least_one = |name: &str| {
            var(name).and_then(|v| v.trim().parse::<u64>().ok()).filter(|&n| n >= 1)
        };
        EnvConfig {
            parallelism: at_least_one("DASH_PARALLELISM")
                .map(|n| n.min(MAX_PARALLELISM as u64) as usize),
            statement_timeout: at_least_one("DASH_STATEMENT_TIMEOUT_MS").map(Duration::from_millis),
            mem_budget: at_least_one("DASH_MEM_BUDGET_BYTES"),
            wal_sync: var("DASH_WAL_SYNC")
                .map_or(Ok(SyncPolicy::Commit), |v| SyncPolicy::from_env_str(&v)),
            wal_dir: var("DASH_WAL_DIR").filter(|d| !d.is_empty()).map(PathBuf::from),
        }
    }
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
            parallelism: cores as usize,
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

    fn env(pairs: &[(&str, &str)]) -> EnvConfig {
        EnvConfig::parse(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_environment_is_all_defaults() {
        let e = env(&[]);
        assert_eq!(
            e,
            EnvConfig {
                parallelism: None,
                statement_timeout: None,
                mem_budget: None,
                wal_sync: Ok(SyncPolicy::Commit),
                wal_dir: None,
            }
        );
        // Nothing set: the hardware decides (the xeon runs 72-wide — no
        // silent cap).
        let big = AutoConfig::derive(&HardwareSpec::xeon_e7());
        assert_eq!(big.with_env(&e), big);
        assert_eq!(big.effective_parallelism(), 72);
    }

    #[test]
    fn every_setting_parses_and_overrides() {
        let e = env(&[
            ("DASH_PARALLELISM", " 16 "),
            ("DASH_STATEMENT_TIMEOUT_MS", " 250 "),
            ("DASH_MEM_BUDGET_BYTES", "1048576"),
            ("DASH_WAL_SYNC", "Always"),
            ("DASH_WAL_DIR", "/var/lib/dash"),
        ]);
        assert_eq!(e.statement_timeout, Some(Duration::from_millis(250)));
        assert_eq!(e.mem_budget, Some(1 << 20));
        assert_eq!(e.wal_sync, Ok(SyncPolicy::Always));
        assert_eq!(e.wal_dir, Some(PathBuf::from("/var/lib/dash")));
        let c = AutoConfig::derive(&HardwareSpec::laptop()).with_env(&e);
        assert_eq!(c.query_parallelism, 4, "the derived value is kept beside the override");
        assert_eq!(c.effective_parallelism(), 16);
    }

    #[test]
    fn junk_and_zero_mean_unset() {
        let e = env(&[
            ("DASH_PARALLELISM", "0"),
            ("DASH_STATEMENT_TIMEOUT_MS", "0"),
            ("DASH_MEM_BUDGET_BYTES", ""),
            ("DASH_WAL_SYNC", "sometimes"),
            ("DASH_WAL_DIR", ""),
        ]);
        assert_eq!(e.parallelism, None, "0 means derive");
        assert_eq!(e.statement_timeout, None, "0 means no deadline");
        assert_eq!(e.mem_budget, None);
        assert_eq!(e.wal_sync.unwrap_err().class(), "42000");
        assert_eq!(e.wal_dir, None, "empty means volatile");
    }

    #[test]
    fn parallelism_is_clamped_where_it_enters() {
        let e = env(&[("DASH_PARALLELISM", "4611686018427387904")]);
        assert_eq!(e.parallelism, Some(MAX_PARALLELISM));
        let e = env(&[("DASH_PARALLELISM", "1024")]);
        assert_eq!(e.parallelism, Some(1024));
    }

    /// The environment surface is exactly five names: a new knob cannot
    /// be read without this list changing.
    #[test]
    fn environment_names_are_pinned() {
        let asked = std::cell::RefCell::new(std::collections::BTreeSet::new());
        EnvConfig::parse(|name| {
            asked.borrow_mut().insert(name.to_string());
            None
        });
        let want = [
            "DASH_MEM_BUDGET_BYTES",
            "DASH_PARALLELISM",
            "DASH_STATEMENT_TIMEOUT_MS",
            "DASH_WAL_DIR",
            "DASH_WAL_SYNC",
        ];
        assert_eq!(asked.into_inner().into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn detect_runs() {
        let hw = HardwareSpec::detect();
        assert!(hw.cores >= 1);
        assert!(hw.ram_mb >= 256);
    }
}
