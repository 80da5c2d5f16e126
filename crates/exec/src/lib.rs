//! The vectorized execution engine — the runtime half of the BLU
//! Acceleration reproduction (§II.B.6–7 of the paper).
//!
//! * [`simd`] — software-SIMD predicate evaluation: comparison predicates
//!   applied "simultaneously on all values in a word, for any code size"
//!   using 64-bit SWAR arithmetic over the bit-packed code banks.
//! * [`scan`] — the scan-centric access path: synopsis-driven data
//!   skipping, buffer-pool accounting, predicate evaluation directly on
//!   compressed codes, late materialization of survivors.
//! * [`join`] — cache-efficient partitioned hash join (the Hybrid Hash
//!   Join lineage the paper cites): the build side is hash-partitioned
//!   into cache-sized tables and frozen; probe morsels stream through it.
//! * [`agg`] — morsel-partial hash grouping and the aggregate function
//!   suite (including the dialect aggregates: `MEDIAN`, `STDDEV_POP`,
//!   `COVAR_POP`, ...).
//! * [`expr`] / [`functions`] — scalar expression evaluation and the
//!   polyglot scalar-function registry (`DECODE`, `NVL`, `LPAD`,
//!   `DATE_PART`, ...; §II.C).
//! * [`pool`] — the morsel-driven worker pool: strides and hash partitions
//!   become work-claimed morsels so skewed survivor distributions (the
//!   common case after synopsis skipping) still keep every core busy.
//! * [`plan`] — the physical operator tree, executed by [`pipeline`]: every
//!   node is a pipeline source, a per-morsel stage, or a breaker whose
//!   output feeds the next pipeline; per-query statistics in [`stats`].

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod agg;
pub mod batch;
pub mod expr;
pub mod functions;
pub mod geo;
pub mod join;
pub mod key;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod scan;
pub mod simd;
pub mod sort;
pub mod stats;

pub use batch::Batch;
pub use expr::Expr;
pub use key::KeyMode;
pub use plan::{execute, PhysicalPlan};
pub use scan::{ColumnPredicate, ScanConfig};
pub use stats::ExecStats;
