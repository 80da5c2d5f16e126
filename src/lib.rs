//! # dashdb-local-rs
//!
//! A from-scratch Rust reproduction of **"Making Big Data Simple with
//! dashDB Local"** (Lightstone et al., ICDE 2017): a BLU-Acceleration-style
//! columnar SQL engine with frequency/minus compression,
//! operate-on-compressed software-SIMD scans, synopsis data skipping, a
//! scan-aware probabilistic buffer pool, a polyglot SQL front-end (ANSI /
//! Oracle / Netezza / PostgreSQL / DB2 dialects), hardware-adaptive
//! auto-configuration, a shared-nothing MPP layer with HA/elastic shard
//! re-association, and an integrated Spark-style analytics runtime.
//!
//! This facade crate re-exports every subsystem; see the individual crates
//! for the deep documentation, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured results.
//!
//! ## Quick start
//!
//! ```
//! use dashdb_local::core::{Database, HardwareSpec};
//!
//! let db = Database::with_hardware(HardwareSpec::laptop());
//! let mut session = db.connect();
//! session.execute("CREATE TABLE t (id BIGINT, name VARCHAR(20))").unwrap();
//! session.execute("INSERT INTO t VALUES (1, 'hello'), (2, 'world')").unwrap();
//! let rows = session.query("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rows[0].get(0).as_str(), Some("world"));
//! ```

#![deny(missing_docs)]

pub use dash_analytics as analytics;
pub use dash_common as common;
pub use dash_core as core;
pub use dash_encoding as encoding;
pub use dash_exec as exec;
pub use dash_mpp as mpp;
pub use dash_rowstore as rowstore;
pub use dash_sql as sql;
pub use dash_storage as storage;
pub use dash_workloads as workloads;
