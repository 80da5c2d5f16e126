//! Workload generators for the paper's four evaluations (§III).
//!
//! * [`customer`] — the Test 1/2 customer financial workload: a
//!   multi-schema star layout and a statement stream with the paper's
//!   exact mix proportions (86537 INSERT, 55873 UPDATE, 46383 DROP, 44914
//!   SELECT, 25572 CREATE, 2453 DELETE, 12 WITH, 12 EXPLAIN, 5 TRUNCATE),
//!   scaled down; plus the 3,500-longest-queries analytic subset.
//! * [`tpcds`] — a scaled-down TPC-DS-like star schema (store_sales et
//!   al.) and a representative query set (Test 3).
//! * [`bdinsight`] — a 5-stream mixed analytic throughput workload with a
//!   queries-per-hour metric (Test 4).
//! * [`spec`] — the cross-engine query IR: each benchmark query renders to
//!   SQL for the dashDB engine *and* executes programmatically on the
//!   row-store baseline, so comparisons measure architecture, not
//!   frontend differences. Test 4's comparator runs the same SQL on the
//!   dashDB engine with its compressed-code predicates switched off.
//! * [`gen`] — deterministic data generation utilities (seeded RNG, Zipf
//!   skew, value vocabularies).
//! * [`concurrent`] — the N-session concurrent statement-mix harness with
//!   conflict-retry loops and a lost-update audit (Test 2 under snapshot
//!   isolation).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bdinsight;
pub mod concurrent;
pub mod customer;
pub mod gen;
pub mod spec;
pub mod tpcds;

pub use spec::{QuerySpec, TableDef};
