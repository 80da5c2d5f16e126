//! Column codecs for dashdb-local-rs — the compression half of the BLU
//! Acceleration reproduction (§II.B.1–2 of the paper).
//!
//! The paper describes four compression families; three live here:
//!
//! * **frequency encoding** — order-preserving dictionary codes whose width
//!   depends on value frequency (frequent values get the shortest codes,
//!   "as small as one bit"), organized into *frequency partitions*
//!   ([`dict`]);
//! * **minus encoding** — frame-of-reference offsets for high-cardinality
//!   numerics ([`minus`]);
//! * **bit-aligned packing** — many codes per 64-bit word, the substrate the
//!   software-SIMD scan operates on ([`bitpack`]).
//!
//! The fourth, prefix compression of dictionary strings, is not performed:
//! a string dictionary keeps its values whole, in one flat list that is
//! also the code pool of the column's decoded values ([`strs`]).
//!
//! The codes are *order preserving* within each frequency partition, so the
//! execution engine can evaluate `=`, `<`, `BETWEEN` etc. directly on
//! compressed codes without decompressing ("operating on compressed data").
//!
//! [`column::ColumnCompressor`] is the entry point: it analyzes a column,
//! picks an encoding, and turns value blocks into [`block::EncodedBlock`]s.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod bitmap;
pub mod bitpack;
pub mod block;
pub mod column;
pub mod dict;
pub mod histogram;
pub mod minus;
pub mod order;
pub mod strs;

pub use bitmap::Bitmap;
pub use bitpack::BitPackedVec;
pub use block::EncodedBlock;
pub use column::{ColumnCompressor, ColumnEncoding, ColumnValues};
pub use dict::FreqDict;
