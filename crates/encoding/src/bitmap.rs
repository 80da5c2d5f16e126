//! Selection bitmaps.
//!
//! Predicate evaluation over compressed data produces one bit per tuple;
//! subsequent predicates AND into the same bitmap, and the scan's
//! materialization step walks the surviving positions. Bitmaps are also how
//! NULLs are tracked per block.

use serde::{Deserialize, Serialize};

/// A fixed-length bitmap with word-parallel boolean operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of `len` bits.
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Build from an iterator of booleans.
    pub fn from_bools(bits: impl IntoIterator<Item = bool>) -> Bitmap {
        let mut b = Bitmap::zeros(0);
        for bit in bits {
            b.push(bit);
        }
        b
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            let i = self.len;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
        self.len += 1;
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Set bit `i` to 0.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// In-place AND with another bitmap of the same length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place OR with another bitmap of the same length.
    pub fn or_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place AND-NOT (`self &= !other`), used to strike NULLs from a
    /// qualifying set.
    pub fn and_not_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place NOT (respects the true length; tail bits stay zero).
    pub fn not_inplace(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Iterate over the positions of set bits, in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw words (tail bits beyond `len` are guaranteed zero after boolean
    /// ops; `push` maintains the invariant too).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Direct mutable word access for the software-SIMD evaluators. The
    /// caller must keep tail bits zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// OR up to 64 result bits into the bitmap, bit 0 of `bits` landing at
    /// position `at` — how the word-at-a-time kernels deposit a whole code
    /// word's lanes at once. Set bits must land below `len`.
    ///
    /// # Panics
    /// Panics if a set bit lands beyond the last word.
    #[inline]
    pub fn or_bits_at(&mut self, at: usize, bits: u64) {
        let (word, shift) = (at / 64, at % 64);
        self.words[word] |= bits << shift;
        if shift != 0 && bits >> (64 - shift) != 0 {
            self.words[word + 1] |= bits >> (64 - shift);
        }
        debug_assert!(
            self.len.is_multiple_of(64) || self.words[self.len / 64] >> (self.len % 64) == 0,
            "bits deposited beyond len {}",
            self.len
        );
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over set-bit positions using trailing-zero scanning.
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * 64 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bitmap.words.len() {
                return None;
            }
            self.current = self.bitmap.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basics() {
        let mut b = Bitmap::zeros(100);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(99);
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63));
        assert!(!b.get(62));
        b.unset(63);
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn ones_has_clean_tail() {
        let b = Bitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        let mut c = b.clone();
        c.not_inplace();
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn boolean_ops() {
        let mut a = Bitmap::from_bools([true, true, false, false]);
        let b = Bitmap::from_bools([true, false, true, false]);
        a.and_with(&b);
        assert_eq!(a, Bitmap::from_bools([true, false, false, false]));
        let mut a = Bitmap::from_bools([true, true, false, false]);
        a.or_with(&b);
        assert_eq!(a, Bitmap::from_bools([true, true, true, false]));
        let mut a = Bitmap::from_bools([true, true, false, false]);
        a.and_not_with(&b);
        assert_eq!(a, Bitmap::from_bools([false, true, false, false]));
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut b = Bitmap::zeros(200);
        for i in [0usize, 1, 63, 64, 127, 128, 199] {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, vec![0, 1, 63, 64, 127, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_and_panics() {
        let mut a = Bitmap::zeros(10);
        a.and_with(&Bitmap::zeros(11));
    }

    proptest! {
        #[test]
        fn prop_push_matches_get(bits in prop::collection::vec(any::<bool>(), 0..300)) {
            let b = Bitmap::from_bools(bits.iter().copied());
            prop_assert_eq!(b.len(), bits.len());
            for (i, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(b.get(i), bit);
            }
            prop_assert_eq!(b.count_ones(), bits.iter().filter(|&&x| x).count());
            let ones: Vec<usize> = b.iter_ones().collect();
            let expect: Vec<usize> = bits.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i).collect();
            prop_assert_eq!(ones, expect);
        }

        #[test]
        fn prop_demorgan(bits_a in prop::collection::vec(any::<bool>(), 64..128)) {
            let n = bits_a.len();
            let a = Bitmap::from_bools(bits_a.iter().copied());
            let b = Bitmap::from_bools((0..n).map(|i| i % 3 == 0));
            // !(a & b) == !a | !b
            let mut lhs = a.clone();
            lhs.and_with(&b);
            lhs.not_inplace();
            let mut na = a.clone();
            na.not_inplace();
            let mut nb = b.clone();
            nb.not_inplace();
            na.or_with(&nb);
            prop_assert_eq!(lhs, na);
        }
    }
}
