//! Bit-aligned code packing.
//!
//! Codes are packed at a fixed width into 64-bit words **without straddling
//! word boundaries**: a word holds `64 / width` codes and any leftover high
//! bits are zero padding. This layout is what makes the software-SIMD scan
//! possible — a single 64-bit ALU operation can compare all codes in a word
//! simultaneously (§II.B.6: "multiple values for a column can usually be
//! packed into a single word ... It is not uncommon for tens of values to be
//! packed into a single word").

use serde::{Deserialize, Serialize};

/// Indexes below `2^RECIP_INDEX_BITS` divide by multiplication.
const RECIP_INDEX_BITS: u32 = 32;
/// Six more bits than the index, because lanes per word never exceed `2^6`.
const RECIP_SHIFT: u32 = RECIP_INDEX_BITS + 6;

/// Per code width: codes per word (`64 / width`; 64 for width 0, by
/// convention unused) and `m = ⌈2^38 / lanes⌉`. Since `m · lanes - 2^38 <
/// 2^6`, `⌊i · m / 2^38⌋ = ⌊i / lanes⌋` for every `i < 2^32`
/// (Granlund–Montgomery), so random access divides nothing per code.
const LANES: [(u8, u64); 65] = {
    let mut table = [(0u8, 0u64); 65];
    let mut width = 0;
    while width <= 64 {
        let lanes = if width == 0 { 64 } else { 64 / width as u64 };
        table[width] = (lanes as u8, (1u64 << RECIP_SHIFT).div_ceil(lanes));
        width += 1;
    }
    table
};

/// All ones in the low `width` bits (`width` in 1..=64).
#[inline]
fn code_mask(width: u8) -> u64 {
    u64::MAX >> (64 - width as u32)
}

/// A vector of fixed-width codes packed into 64-bit words.
///
/// Width 0 is allowed and means "every code is zero" (a constant column
/// region) — it stores no words at all, the paper's "in special
/// circumstances even smaller [than one bit]" case.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitPackedVec {
    words: Vec<u64>,
    width: u8,
    len: usize,
}

impl BitPackedVec {
    /// Create an empty vector for codes of `width` bits (0..=64).
    ///
    /// # Panics
    /// Panics if `width > 64`.
    pub fn new(width: u8) -> BitPackedVec {
        assert!(width <= 64, "code width must be <= 64, got {width}");
        BitPackedVec {
            words: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Create with capacity for `n` codes.
    pub fn with_capacity(width: u8, n: usize) -> BitPackedVec {
        assert!(width <= 64, "code width must be <= 64, got {width}");
        let mut v = BitPackedVec::new(width);
        if width > 0 {
            v.words.reserve(n / v.per_word() + 1);
        }
        v
    }

    /// Build from a slice of codes, computing nothing fancy.
    ///
    /// # Panics
    /// Panics if any code does not fit in `width` bits.
    pub fn from_codes(width: u8, codes: &[u64]) -> BitPackedVec {
        let mut v = BitPackedVec::with_capacity(width, codes.len());
        for &c in codes {
            v.push(c);
        }
        v
    }

    /// The code width in bits.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of codes stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no codes are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Codes per 64-bit word (64 for width 0, by convention unused).
    #[inline]
    pub fn per_word(&self) -> usize {
        LANES[self.width as usize].0 as usize
    }

    /// The packed words. The last word may be partially filled; unused code
    /// slots in it are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Append a code.
    ///
    /// # Panics
    /// Panics if the code does not fit in the configured width.
    #[inline]
    pub fn push(&mut self, code: u64) {
        if self.width == 0 {
            debug_assert_eq!(code, 0, "width-0 vector only stores zeros");
            self.len += 1;
            return;
        }
        assert!(
            self.width == 64 || code < (1u64 << self.width),
            "code {code} does not fit in {} bits",
            self.width
        );
        let per = self.per_word();
        let slot = self.len % per;
        if slot == 0 {
            self.words.push(0);
        }
        let w = self.words.last_mut().expect("word just ensured");
        *w |= code << (slot as u32 * self.width as u32);
        self.len += 1;
    }

    /// Get the code at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if self.width == 0 {
            return 0;
        }
        let (per, recip) = LANES[self.width as usize];
        let word_idx = if (i as u64) >> RECIP_INDEX_BITS == 0 {
            ((i as u128 * recip as u128) >> RECIP_SHIFT) as usize
        } else {
            i / per as usize
        };
        let slot = (i - word_idx * per as usize) as u32;
        (self.words[word_idx] >> (slot * self.width as u32)) & code_mask(self.width)
    }

    /// Iterate over all codes in order.
    pub fn iter(&self) -> BitPackedIter<'_> {
        BitPackedIter {
            words: self.words.iter(),
            word: 0,
            in_word: 0,
            remaining: self.len,
            per: self.per_word(),
            width: self.width as u32,
            mask: if self.width == 0 { 0 } else { code_mask(self.width) },
        }
    }

    /// Decode all codes into a `Vec<u64>` (test/diagnostic use).
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// Heap size of the packed representation, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The number of codes held by the (possibly partial) final word.
    pub fn tail_len(&self) -> usize {
        if self.width == 0 || self.len == 0 {
            return 0;
        }
        let r = self.len % self.per_word();
        if r == 0 {
            self.per_word()
        } else {
            r
        }
    }
}

/// Iterator over packed codes; keeps the current word in a register and
/// shifts, which is substantially faster than repeated `get`. Lanes per
/// word, width and mask are fixed at construction.
pub struct BitPackedIter<'a> {
    words: std::slice::Iter<'a, u64>,
    word: u64,
    /// Codes not yet taken from `word`.
    in_word: usize,
    /// Codes not yet yielded.
    remaining: usize,
    per: usize,
    width: u32,
    mask: u64,
}

impl Iterator for BitPackedIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        if self.in_word == 0 {
            // A width-0 vector stores no words: every code is 0.
            self.word = self.words.next().copied().unwrap_or(0);
            self.in_word = self.per;
        }
        let code = self.word & self.mask;
        // Widths above 32 hold one code per word, reloaded before its next
        // use, so the wrapped shift at width 64 never reaches a code.
        self.word = self.word.wrapping_shr(self.width);
        self.in_word -= 1;
        self.remaining -= 1;
        Some(code)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitPackedIter<'_> {}

/// Minimum number of bits needed to represent `max_code` (at least 0).
#[inline]
pub fn bits_for(max_code: u64) -> u8 {
    if max_code == 0 {
        0
    } else {
        (64 - max_code.leading_zeros()) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_small_widths() {
        for width in [1u8, 2, 3, 5, 7, 11, 13, 17, 31, 33, 64] {
            let max = if width == 64 { u64::MAX } else { (1 << width) - 1 };
            let codes: Vec<u64> = (0..200).map(|i| (i * 7919) as u64 % (max.saturating_add(1).max(1))).collect();
            let codes: Vec<u64> = codes.iter().map(|&c| c.min(max)).collect();
            let packed = BitPackedVec::from_codes(width, &codes);
            assert_eq!(packed.to_vec(), codes, "width {width}");
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(packed.get(i), c, "width {width} idx {i}");
            }
        }
    }

    #[test]
    fn width_zero_constant() {
        let packed = BitPackedVec::from_codes(0, &[0, 0, 0, 0]);
        assert_eq!(packed.len(), 4);
        assert_eq!(packed.size_bytes(), 0);
        assert_eq!(packed.to_vec(), vec![0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_panics() {
        let mut v = BitPackedVec::new(3);
        v.push(8);
    }

    #[test]
    fn many_codes_per_word() {
        // 2-bit codes: 32 per word — "tens of values packed into a single word".
        let codes: Vec<u64> = (0..100).map(|i| i % 4).collect();
        let packed = BitPackedVec::from_codes(2, &codes);
        assert_eq!(packed.per_word(), 32);
        assert_eq!(packed.words().len(), 4); // ceil(100/32)
        assert_eq!(packed.to_vec(), codes);
    }

    #[test]
    fn no_straddle_padding() {
        // width 5: 12 codes per word, 4 padding bits at the top must be zero.
        let codes: Vec<u64> = (0..12).map(|_| 31).collect();
        let packed = BitPackedVec::from_codes(5, &codes);
        assert_eq!(packed.words().len(), 1);
        assert_eq!(packed.words()[0] >> 60, 0, "padding bits must be zero");
    }

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    #[test]
    fn reciprocal_divides_every_32_bit_index() {
        for (width, &(lanes, recip)) in LANES.iter().enumerate() {
            let lanes = lanes as u64;
            // Around every multiple of `lanes` is where a rounded
            // reciprocal would first go wrong; the top of the range is
            // where its error is largest.
            let top = (1u64 << RECIP_INDEX_BITS) - 1;
            let probes = (0..4096u64)
                .chain((0..4096).map(|i| top - i))
                .chain((1..2048).flat_map(|q| {
                    [q * lanes - 1, q * lanes, top / lanes * lanes - q * lanes]
                }));
            for i in probes {
                let q = ((i as u128 * recip as u128) >> RECIP_SHIFT) as u64;
                assert_eq!(q, i / lanes, "width {width} index {i}");
            }
        }
    }

    #[test]
    fn tail_len_accounting() {
        let packed = BitPackedVec::from_codes(5, &[1; 25]); // 12 per word
        assert_eq!(packed.tail_len(), 1);
        let packed = BitPackedVec::from_codes(5, &[1; 24]);
        assert_eq!(packed.tail_len(), 12);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(width in 1u8..=64, raw in prop::collection::vec(any::<u64>(), 0..300)) {
            let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let codes: Vec<u64> = raw.iter().map(|&v| v & mask).collect();
            let packed = BitPackedVec::from_codes(width, &codes);
            prop_assert_eq!(packed.to_vec(), codes.clone());
            prop_assert_eq!(packed.len(), codes.len());
            // Random access agrees with iteration.
            for (i, &c) in codes.iter().enumerate() {
                prop_assert_eq!(packed.get(i), c);
            }
        }

        #[test]
        fn prop_size_is_optimal(width in 1u8..=32, n in 0usize..500) {
            let codes: Vec<u64> = vec![0; n];
            let packed = BitPackedVec::from_codes(width, &codes);
            let per = 64 / width as usize;
            let expected_words = n.div_ceil(per);
            prop_assert_eq!(packed.words().len(), expected_words);
        }
    }
}
