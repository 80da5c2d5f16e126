//! Encoded column blocks.
//!
//! A block is the unit of columnar storage: roughly one storage page worth
//! of one column's values (the storage layer sizes blocks to the stride
//! length, ~1 K tuples). Blocks are self-describing enough for the scan to
//! operate on them without decompression:
//!
//! * **Minus blocks** hold a single fully-ordered code bank
//!   ([`crate::minus::MinusBlock`]).
//! * **Dict blocks** hold one bank per frequency partition plus a selector
//!   vector tagging each position's partition, and an *exception bank* for
//!   values inserted after the dictionary was built. When an entire block
//!   falls into one partition (the common case for clustered data) the
//!   selector vector is elided — the paper's page-local optimization.

use crate::bitmap::Bitmap;
use crate::bitpack::BitPackedVec;
use crate::minus::MinusBlock;
use dash_common::{DashError, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Values that did not exist when the column dictionary was built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExceptionBank {
    /// Raw orderable-u64 values, in arrival order.
    Int(Vec<u64>),
    /// Raw strings, in arrival order.
    Str(Vec<Arc<str>>),
}

impl ExceptionBank {
    /// Number of exception values.
    pub fn len(&self) -> usize {
        match self {
            ExceptionBank::Int(v) => v.len(),
            ExceptionBank::Str(v) => v.len(),
        }
    }

    /// True if there are no exceptions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            ExceptionBank::Int(v) => v.len() * 8,
            ExceptionBank::Str(v) => v.iter().map(|s| 16 + s.len()).sum(),
        }
    }
}

/// The physical representation of one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BlockRepr {
    /// Frame-of-reference codes (fully order-preserving single bank).
    Minus(MinusBlock),
    /// Frequency-partitioned dictionary codes.
    Dict {
        /// Partition tag per position (width covers partition count plus the
        /// exception tag). `None` when the whole block is one partition.
        selectors: Option<BitPackedVec>,
        /// When `selectors` is `None`: the partition every value belongs to.
        single_part: u8,
        /// Per-partition code banks, in arrival order within each bank.
        banks: Vec<BitPackedVec>,
        /// Values missing from the dictionary, in arrival order.
        exceptions: ExceptionBank,
    },
}

/// One encoded block of a column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedBlock {
    /// Number of logical positions (rows) in the block.
    pub len: usize,
    /// Null bitmap: bit set = NULL at that position. `None` = no NULLs.
    pub nulls: Option<Bitmap>,
    /// The code representation.
    pub repr: BlockRepr,
}

impl EncodedBlock {
    /// True if position `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    /// Number of NULLs in the block.
    pub fn null_count(&self) -> usize {
        self.nulls.as_ref().map_or(0, |n| n.count_ones())
    }

    /// Compressed size in bytes (codes + selectors + null bitmap).
    pub fn size_bytes(&self) -> usize {
        let nulls = self.nulls.as_ref().map_or(0, |n| n.words().len() * 8);
        let repr = match &self.repr {
            BlockRepr::Minus(m) => m.size_bytes(),
            BlockRepr::Dict {
                selectors,
                banks,
                exceptions,
                ..
            } => {
                selectors.as_ref().map_or(0, |s| s.size_bytes())
                    + banks.iter().map(|b| b.size_bytes()).sum::<usize>()
                    + exceptions.size_bytes()
            }
        };
        nulls + repr
    }

    /// Map per-bank qualifying bitmaps back to a positional bitmap.
    ///
    /// `bank_hits[p]` has one bit per value stored in bank `p` (in arrival
    /// order); `exc_hits` likewise for the exception bank. The result has
    /// one bit per block position, with NULL positions cleared.
    ///
    /// For minus blocks pass a single bank bitmap and an empty `exc_hits`.
    /// A bank that is already positional (minus, single-partition) is
    /// moved into the result; a multi-partition block costs nothing when no
    /// bank qualified anything, and otherwise one walk over the selector
    /// tags reading the banks' raw hit words.
    pub fn scatter(&self, mut bank_hits: Vec<Bitmap>, exc_hits: &Bitmap) -> Bitmap {
        let mut out = match &self.repr {
            BlockRepr::Minus(_) => {
                assert_eq!(bank_hits.len(), 1, "minus block has one bank");
                bank_hits.swap_remove(0)
            }
            BlockRepr::Dict {
                selectors: None,
                single_part,
                ..
            } => bank_hits.swap_remove(*single_part as usize),
            BlockRepr::Dict {
                selectors: Some(sel),
                banks,
                ..
            } => {
                assert_eq!(bank_hits.len(), banks.len(), "one hit bitmap per bank");
                if !exc_hits.any() && !bank_hits.iter().any(Bitmap::any) {
                    return Bitmap::zeros(self.len);
                }
                // The exception tag follows the last partition's, so the
                // exception bank's hits sit at that index.
                let mut hit_words: Vec<&[u64]> = bank_hits.iter().map(Bitmap::words).collect();
                hit_words.push(exc_hits.words());
                let mut cursors = vec![0usize; hit_words.len()];
                let mut out = Bitmap::zeros(self.len);
                let out_words = out.words_mut();
                for (i, tag) in sel.iter().enumerate() {
                    let tag = tag as usize;
                    let at = cursors[tag];
                    cursors[tag] = at + 1;
                    let hit = (hit_words[tag][at / 64] >> (at % 64)) & 1;
                    out_words[i / 64] |= hit << (i % 64);
                }
                out
            }
        };
        if let Some(nulls) = &self.nulls {
            out.and_not_with(nulls);
        }
        out
    }

    /// Positional decode of a dictionary block: append one entry per
    /// `positions` element (ascending, distinct) to `out` — `null` for a
    /// NULL, `code(partition, code)` for a dictionary entry,
    /// `exception(i)` for the `i`-th value of the exception bank.
    pub(crate) fn gather_dict<T: Clone>(
        &self,
        positions: &[usize],
        out: &mut Vec<T>,
        null: T,
        code: impl Fn(u8, u64) -> T,
        exception: impl Fn(usize) -> T,
    ) -> Result<()> {
        let BlockRepr::Dict {
            selectors,
            single_part,
            banks,
            ..
        } = &self.repr
        else {
            return Err(DashError::internal("dictionary decode of a minus block"));
        };
        let nulls = self.nulls.as_ref();
        match selectors {
            Some(sel) => gather_tagged(sel, banks, nulls, positions, out, null, code, exception),
            None => gather_codes(&banks[*single_part as usize], nulls, positions, out, null, |c| {
                code(*single_part, c)
            }),
        }
        Ok(())
    }

    /// A positional bitmap of the NULLs (for `IS NULL`).
    pub fn null_bitmap(&self) -> Bitmap {
        self.nulls
            .clone()
            .unwrap_or_else(|| Bitmap::zeros(self.len))
    }
}

/// Append `value(code)` for the codes of `codes` at `positions` (ascending,
/// distinct), `null` where `nulls` marks the position.
///
/// The one density branch of decode: when every position is wanted the
/// codes are iterated word by word, otherwise each is fetched by index.
pub(crate) fn gather_codes<T: Clone>(
    codes: &BitPackedVec,
    nulls: Option<&Bitmap>,
    positions: &[usize],
    out: &mut Vec<T>,
    null: T,
    value: impl Fn(u64) -> T,
) {
    let at = |i: usize, code: u64| if nulls.is_some_and(|n| n.get(i)) { null.clone() } else { value(code) };
    if positions.len() == codes.len() {
        out.extend(codes.iter().enumerate().map(|(i, code)| at(i, code)));
    } else {
        out.extend(positions.iter().map(|&i| at(i, codes.get(i))));
    }
}

/// [`gather_codes`] for a multi-partition dictionary block: one walk over
/// the selector tags, counting each bank's arrivals, that fetches a code
/// only at a wanted position and stops after the last one.
#[allow(clippy::too_many_arguments)]
fn gather_tagged<T: Clone>(
    selectors: &BitPackedVec,
    banks: &[BitPackedVec],
    nulls: Option<&Bitmap>,
    positions: &[usize],
    out: &mut Vec<T>,
    null: T,
    code: impl Fn(u8, u64) -> T,
    exception: impl Fn(usize) -> T,
) {
    let mut wanted = positions.iter().copied();
    let Some(mut want) = wanted.next() else {
        return;
    };
    out.reserve(positions.len());
    let exc_tag = banks.len();
    let mut cursors = vec![0usize; exc_tag + 1];
    for (i, tag) in selectors.iter().enumerate() {
        let tag = tag as usize;
        let at = cursors[tag];
        cursors[tag] = at + 1;
        if i != want {
            continue;
        }
        out.push(if nulls.is_some_and(|n| n.get(i)) {
            null.clone()
        } else if tag == exc_tag {
            exception(at)
        } else {
            code(tag as u8, banks[tag].get(at))
        });
        match wanted.next() {
            Some(next) => want = next,
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `scatter` as first written: one bounds-checked bit read and one bit
    /// set per position. Kept as the definition the word-level walk must
    /// reproduce.
    fn scatter_reference(block: &EncodedBlock, bank_hits: &[Bitmap], exc_hits: &Bitmap) -> Bitmap {
        let mut out = Bitmap::zeros(block.len);
        match &block.repr {
            BlockRepr::Minus(_) => out = bank_hits[0].clone(),
            BlockRepr::Dict {
                selectors,
                single_part,
                banks,
                ..
            } => match selectors {
                Some(sel) => {
                    let ntags = banks.len() as u64;
                    let mut cursors = vec![0usize; banks.len()];
                    let mut exc_cursor = 0usize;
                    for (i, tag) in sel.iter().enumerate() {
                        let hit = if tag == ntags {
                            exc_cursor += 1;
                            exc_hits.get(exc_cursor - 1)
                        } else {
                            let p = tag as usize;
                            cursors[p] += 1;
                            bank_hits[p].get(cursors[p] - 1)
                        };
                        if hit {
                            out.set(i);
                        }
                    }
                }
                None => out = bank_hits[*single_part as usize].clone(),
            },
        }
        if let Some(nulls) = &block.nulls {
            out.and_not_with(nulls);
        }
        out
    }

    fn dict_block() -> EncodedBlock {
        // Positions: [p0c1, exc, p1c0, p0c0, null(p0c0 dummy)]
        let mut sel = BitPackedVec::new(2);
        for tag in [0u64, 2, 1, 0, 0] {
            sel.push(tag);
        }
        let bank0 = BitPackedVec::from_codes(1, &[1, 0, 0]);
        let bank1 = BitPackedVec::from_codes(3, &[0]);
        let mut nulls = Bitmap::zeros(5);
        nulls.set(4);
        EncodedBlock {
            len: 5,
            nulls: Some(nulls),
            repr: BlockRepr::Dict {
                selectors: Some(sel),
                single_part: 0,
                banks: vec![bank0, bank1],
                exceptions: ExceptionBank::Int(vec![999]),
            },
        }
    }

    #[test]
    fn gather_dict_walks_banks_in_order() {
        let block = dict_block();
        let code = |p: u8, c: u64| Some(format!("p{p}c{c}"));
        let exc = |i: usize| Some(format!("exc{i}"));
        let mut all = Vec::new();
        block.gather_dict(&[0, 1, 2, 3, 4], &mut all, None, code, exc).unwrap();
        let want = [Some("p0c1"), Some("exc0"), Some("p1c0"), Some("p0c0"), None];
        assert_eq!(all, want.map(|v| v.map(String::from)));
        // A later position still counts the arrivals before it.
        let mut some = Vec::new();
        block.gather_dict(&[3], &mut some, None, code, exc).unwrap();
        assert_eq!(some, vec![Some("p0c0".to_string())]);
    }

    #[test]
    fn scatter_maps_bank_hits_to_positions() {
        let block = dict_block();
        // Qualify bank0 value #1 (position 3) and the exception.
        let b0 = Bitmap::from_bools([false, true, false]);
        let b1 = Bitmap::from_bools([false]);
        let exc = Bitmap::from_bools([true]);
        let out = block.scatter(vec![b0, b1], &exc);
        let hits: Vec<usize> = out.iter_ones().collect();
        assert_eq!(hits, vec![1, 3]);
    }

    #[test]
    fn scatter_clears_nulls() {
        let block = dict_block();
        // Qualify everything; position 4 (null) must still be cleared.
        let b0 = Bitmap::ones(3);
        let b1 = Bitmap::ones(1);
        let exc = Bitmap::ones(1);
        let out = block.scatter(vec![b0, b1], &exc);
        assert!(!out.get(4));
        assert_eq!(out.count_ones(), 4);
    }

    #[test]
    fn minus_scatter_passthrough() {
        let m = MinusBlock::encode(&[Some(5), Some(6), Some(7)]);
        let block = EncodedBlock {
            len: 3,
            nulls: None,
            repr: BlockRepr::Minus(m),
        };
        let hits = Bitmap::from_bools([true, false, true]);
        let out = block.scatter(vec![hits.clone()], &Bitmap::zeros(0));
        assert_eq!(out, hits);
    }

    #[test]
    fn size_accounting() {
        let block = dict_block();
        assert!(block.size_bytes() > 0);
        assert_eq!(block.null_count(), 1);
    }

    proptest! {
        #[test]
        fn prop_scatter_matches_per_position_definition(
            tags in prop::collection::vec(0u64..4, 1..300),
            nparts in 1usize..4,
            with_nulls in any::<bool>(),
            // 0: no bank hit anything, 1: sparse, 2: dense
            density in 0u64..3,
            seed in any::<u64>(),
        ) {
            // Tags above the exception tag fold onto it.
            let tags: Vec<u64> = tags.iter().map(|&t| t.min(nparts as u64)).collect();
            let mut bits = (0u64..).map(|i| {
                let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                x ^ (x >> 29)
            });
            let mut hit = |_| match density {
                0 => false,
                1 => bits.next().unwrap().is_multiple_of(17),
                _ => !bits.next().unwrap().is_multiple_of(3),
            };
            let arrivals = |p: u64| tags.iter().filter(|&&t| t == p).count();
            let bank_hits: Vec<Bitmap> = (0..nparts as u64)
                .map(|p| Bitmap::from_bools((0..arrivals(p)).map(&mut hit)))
                .collect();
            let exc_hits = Bitmap::from_bools((0..arrivals(nparts as u64)).map(&mut hit));
            let block = EncodedBlock {
                len: tags.len(),
                nulls: with_nulls.then(|| Bitmap::from_bools((0..tags.len()).map(|i| i % 5 == 1))),
                repr: BlockRepr::Dict {
                    selectors: Some(BitPackedVec::from_codes(2, &tags)),
                    single_part: 0,
                    banks: (0..nparts as u64)
                        .map(|p| BitPackedVec::from_codes(1, &vec![0; arrivals(p)]))
                        .collect(),
                    exceptions: ExceptionBank::Int(vec![7; arrivals(nparts as u64)]),
                },
            };
            let expect = scatter_reference(&block, &bank_hits, &exc_hits);
            prop_assert_eq!(block.scatter(bank_hits, &exc_hits), expect);
        }

        #[test]
        fn prop_scatter_positional_banks(
            hits in prop::collection::vec(any::<bool>(), 1..200),
            minus in any::<bool>(),
            with_nulls in any::<bool>(),
        ) {
            let n = hits.len();
            let codes = BitPackedVec::from_codes(1, &vec![0; n]);
            let block = EncodedBlock {
                len: n,
                nulls: with_nulls.then(|| Bitmap::from_bools((0..n).map(|i| i % 3 == 0))),
                repr: if minus {
                    BlockRepr::Minus(MinusBlock { base: 0, codes })
                } else {
                    BlockRepr::Dict {
                        selectors: None,
                        single_part: 1,
                        banks: vec![BitPackedVec::new(1), codes],
                        exceptions: ExceptionBank::Int(Vec::new()),
                    }
                },
            };
            let hits = Bitmap::from_bools(hits);
            let bank_hits = if minus { vec![hits] } else { vec![Bitmap::zeros(0), hits] };
            let expect = scatter_reference(&block, &bank_hits, &Bitmap::zeros(0));
            prop_assert_eq!(block.scatter(bank_hits, &Bitmap::zeros(0)), expect);
        }
    }
}
