//! The row-store baseline for the paper's Table 1 comparisons.
//!
//! Table 1 Tests 1–3 compare dashDB Local against a hardware appliance
//! whose software architecture is the classical *row-organized table +
//! secondary B-tree indexes + LRU buffer pool* design. This crate
//! implements that comparator for real:
//!
//! * [`heap`] — slotted-page row tables;
//! * [`btree`] — a from-scratch B+tree used for secondary indexes;
//! * [`engine`] — a row-at-a-time executor (index selection, index
//!   nested-loop joins, per-row aggregation) with page-level buffer-pool
//!   accounting.
//!
//! Test 4's cloud column store is not a second engine: it is the product
//! itself with predicates decoded before they are compared
//! (`Catalog::set_compressed_predicates(false)` in `dash-core`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod btree;
pub mod engine;
pub mod heap;

pub use btree::BPlusTree;
pub use engine::RowEngine;
pub use heap::{HeapTable, Rid};
