//! Software-SIMD predicate evaluation (§II.B.6).
//!
//! "The BLU Acceleration technology in dashDB enhances these SIMD
//! instructions with novel software-SIMD algorithms to apply predicates
//! simultaneously on all values in a word, for any code size."
//!
//! Codes are packed `k = ⌊64/w⌋` per word (see
//! [`dash_encoding::bitpack::BitPackedVec`]). One 64-bit ALU operation
//! therefore touches up to 64 codes (w = 1). The comparisons below are
//! exact SWAR algorithms with **no cross-lane carry leakage**:
//!
//! * unsigned less-than splits each lane at its MSB — the low parts are
//!   compared with a borrow-free subtraction (minuend is forced ≥ 2^(w-1),
//!   subtrahend < 2^(w-1), so no lane can borrow from its neighbour) and
//!   the MSBs resolve the rest with pure boolean logic;
//! * a range is `¬(x < lo) ∧ ¬(hi < x)` and equality is the range
//!   `[v, v]`;
//! * a code word's lane results are compacted in a register and deposited
//!   into the result bitmap's words in one OR; a word in which no lane
//!   qualified is skipped.

use dash_encoding::bitmap::Bitmap;
use dash_encoding::bitpack::BitPackedVec;

/// Per-width constant masks used by the SWAR kernels.
#[derive(Debug, Clone, Copy)]
struct LaneMasks {
    /// Lanes per word.
    k: usize,
    /// Width in bits.
    w: u32,
    /// MSB of each lane.
    high: u64,
    /// All bits of all lanes (excludes the pad bits above lane k-1).
    all: u64,
}

fn masks(width: u8) -> LaneMasks {
    let w = width as u32;
    let k = (64 / w) as usize;
    let mut high = 0u64;
    let mut all = 0u64;
    let lane_mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    for lane in 0..k {
        high |= (1u64 << (w - 1)) << (lane as u32 * w);
        all |= lane_mask << (lane as u32 * w);
    }
    LaneMasks { k, w, high, all }
}

/// Broadcast a code into every lane of a word.
fn broadcast(m: &LaneMasks, value: u64) -> u64 {
    let mut out = 0u64;
    for lane in 0..m.k {
        out |= value << (lane as u32 * m.w);
    }
    out
}

/// Per-lane unsigned `x < b` with the result in each lane's MSB position.
#[inline]
fn lanes_lt(m: &LaneMasks, word: u64, bcast: u64) -> u64 {
    let x = word & m.all;
    let y = bcast & m.all;
    let xl = x & !m.high;
    let yl = y & !m.high;
    // Low-part compare: ((xl | H) - yl) has per-lane MSB set ⇔ xl >= yl.
    // No borrow can cross lanes: minuend ≥ 2^(w-1) > subtrahend.
    let ge_low = ((xl | m.high).wrapping_sub(yl)) & m.high;
    let lt_low = (!ge_low) & m.high;
    // Combine with the MSBs: x < y ⇔ (¬xm ∧ ym) ∨ (xm == ym ∧ xl < yl).
    let cond1 = (!x) & y & m.high;
    let same = !(x ^ y) & m.high;
    cond1 | (same & lt_low)
}

/// Move the per-lane MSB results of one code word into the low `m.k`
/// bits, lane 0 first.
#[inline]
fn compact(m: &LaneMasks, result: u64) -> u64 {
    let mut lanes = result >> (m.w - 1);
    let mut bits = 0u64;
    for lane in 0..m.k {
        bits |= (lanes & 1) << lane;
        lanes >>= m.w;
    }
    bits
}

/// Evaluate `lo <= code <= hi` (inclusive, code domain) over every code in
/// the vector, one bit per code.
///
/// This is the hot kernel: for width `w` it does O(1) word operations per
/// `⌊64/w⌋` codes instead of one compare per code, and writes each code
/// word's results into the pre-sized bitmap with one OR.
pub fn eval_range(codes: &BitPackedVec, lo: u64, hi: u64) -> Bitmap {
    let width = codes.width();
    if width == 0 {
        // Every code is 0: the range qualifies iff it includes 0.
        debug_assert!(lo <= hi, "caller must order the bounds");
        return if lo == 0 {
            Bitmap::ones(codes.len())
        } else {
            Bitmap::zeros(codes.len())
        };
    }
    let mut out = Bitmap::zeros(codes.len());
    if width == 64 {
        // One lane per word: direct compares.
        for (i, &code) in codes.words().iter().enumerate() {
            if code >= lo && code <= hi {
                out.set(i);
            }
        }
        return out;
    }
    let max_code = (1u64 << width) - 1;
    if lo > max_code {
        return out;
    }
    let m = masks(width);
    let bc_lo = broadcast(&m, lo);
    let bc_hi = broadcast(&m, hi.min(max_code));
    let Some((&tail, full)) = codes.words().split_last() else {
        return out;
    };
    let qualifying = |word: u64| {
        // qualify ⇔ ¬(x < lo) ∧ ¬(hi < x)
        let below = lanes_lt(&m, word, bc_lo);
        let above = lt_rev(&m, word, bc_hi);
        (!(below | above)) & m.high
    };
    for (wi, &word) in full.iter().enumerate() {
        let ok = qualifying(word);
        if ok != 0 {
            out.or_bits_at(wi * m.k, compact(&m, ok));
        }
    }
    // The final word's unused lanes hold code 0, which qualifies when
    // `lo == 0`: keep only the lanes that hold codes.
    let held = u64::MAX >> (64 - codes.tail_len());
    out.or_bits_at(full.len() * m.k, compact(&m, qualifying(tail)) & held);
    out
}

/// Per-lane `b < x` (i.e. x > b) in MSB position.
#[inline]
fn lt_rev(m: &LaneMasks, word: u64, bcast: u64) -> u64 {
    let x = word & m.all;
    let y = bcast & m.all;
    let xl = x & !m.high;
    let yl = y & !m.high;
    let ge_low = ((yl | m.high).wrapping_sub(xl)) & m.high; // yl >= xl
    let lt_low = (!ge_low) & m.high; // yl < xl
    let cond1 = (!y) & x & m.high; // ym=0, xm=1
    let same = !(x ^ y) & m.high;
    cond1 | (same & lt_low)
}

/// Evaluate `code == value` over every code, one bit per code.
pub fn eval_eq(codes: &BitPackedVec, value: u64) -> Bitmap {
    eval_range(codes, value, value)
}

/// Scalar reference implementation (decode each code, compare) — used by
/// tests for equivalence and by the ablation benchmark as the
/// "decompress-then-evaluate" baseline.
pub fn eval_range_scalar(codes: &BitPackedVec, lo: u64, hi: u64) -> Bitmap {
    let mut out = Bitmap::zeros(0);
    for c in codes.iter() {
        out.push(c >= lo && c <= hi);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn packed(width: u8, codes: &[u64]) -> BitPackedVec {
        BitPackedVec::from_codes(width, codes)
    }

    #[test]
    fn eq_small_width() {
        let codes: Vec<u64> = (0..200).map(|i| i % 4).collect();
        let v = packed(2, &codes);
        let bm = eval_eq(&v, 3);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(bm.get(i), c == 3, "at {i}");
        }
    }

    #[test]
    fn range_odd_width() {
        // Width 5: 12 lanes per word — "any code size".
        let codes: Vec<u64> = (0..100).map(|i| (i * 7) % 32).collect();
        let v = packed(5, &codes);
        let bm = eval_range(&v, 10, 20);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(bm.get(i), (10..=20).contains(&c), "at {i} code {c}");
        }
    }

    #[test]
    fn one_bit_codes() {
        let codes: Vec<u64> = (0..130).map(|i| i % 2).collect();
        let v = packed(1, &codes);
        let eq1 = eval_eq(&v, 1);
        assert_eq!(eq1.count_ones(), 65);
        let all = eval_range(&v, 0, 1);
        assert_eq!(all.count_ones(), 130);
    }

    #[test]
    fn width64_fallback() {
        let codes = vec![0u64, u64::MAX, 42, 1 << 63];
        let v = packed(64, &codes);
        let bm = eval_range(&v, 42, u64::MAX);
        assert_eq!(
            bm.iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn width0_constant() {
        let v = packed(0, &[0; 10]);
        assert_eq!(eval_eq(&v, 0).count_ones(), 10);
        assert_eq!(eval_eq(&v, 1).count_ones(), 0);
        assert_eq!(eval_range(&v, 0, 5).count_ones(), 10);
    }

    #[test]
    fn value_above_max_code() {
        let v = packed(3, &[1, 2, 3]);
        assert_eq!(eval_eq(&v, 99).count_ones(), 0);
    }

    #[test]
    fn boundary_codes_extremes() {
        // Max code in every lane, compare against max.
        for width in [3u8, 7, 9, 13, 21, 31, 33] {
            let max = (1u64 << width) - 1;
            let codes = vec![max, 0, max, 1, max - 1];
            let v = packed(width, &codes);
            let bm = eval_eq(&v, max);
            assert_eq!(bm.iter_ones().collect::<Vec<_>>(), vec![0, 2], "w={width}");
            let ge = eval_range(&v, max - 1, max);
            assert_eq!(ge.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4], "w={width}");
        }
    }

    proptest! {
        #[test]
        fn prop_matches_scalar_at_every_width(
            // Empty vectors and every partial tail word.
            raw in prop::collection::vec(any::<u64>(), 0..300),
            lo_raw in any::<u64>(),
            hi_raw in any::<u64>(),
            // 0: any ordered pair, 1: lo == hi on a stored code, 2: the
            // whole domain (code 0 qualifies, as the tail's padding would),
            // 3: lo above the widest code.
            bounds in 0usize..4,
        ) {
            for width in 1u8..=64 {
                let mask = u64::MAX >> (64 - width as u32);
                let codes: Vec<u64> = raw.iter().map(|v| v & mask).collect();
                let v = packed(width, &codes);
                let (lo, hi) = match bounds {
                    0 => ((lo_raw & mask).min(hi_raw & mask), (lo_raw & mask).max(hi_raw & mask)),
                    1 => {
                        let code = codes.get(lo_raw as usize % codes.len().max(1)).copied().unwrap_or(0);
                        (code, code)
                    }
                    2 => (0, mask),
                    _ => (mask.saturating_add(1 + (lo_raw & 0xff)), u64::MAX),
                };
                prop_assert_eq!(eval_range(&v, lo, hi), eval_range_scalar(&v, lo, hi), "width {}", width);
                prop_assert_eq!(eval_eq(&v, lo), eval_range_scalar(&v, lo, lo), "width {}", width);
            }
        }
    }
}
