//! Order-preserving mappings from typed values onto `u64` code domains.
//!
//! Every integer-encodable type (integers, dates, timestamps, booleans,
//! decimals) and even floats are first mapped onto an *orderable u64*: a
//! monotone bijection such that `a < b  ⇔  map(a) < map(b)`. All downstream
//! machinery (minus encoding, frequency dictionaries, synopsis min/max,
//! predicate range mapping) then works on plain u64s regardless of the
//! source type. A string maps through its first 8 bytes, a monotone but
//! lossy mapping ([`str_prefix_ordered`]).

/// Map an i64 onto an order-preserving u64 (flip the sign bit).
#[inline]
pub fn i64_to_ordered(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Inverse of [`i64_to_ordered`].
#[inline]
pub fn ordered_to_i64(u: u64) -> i64 {
    (u ^ (1u64 << 63)) as i64
}

/// Map an f64 onto an order-preserving u64.
///
/// Standard trick: positive floats order like their bit patterns; negative
/// floats order in reverse, so flip all bits for negatives and just the sign
/// bit for positives. NaNs map above +inf (they sort last, like NULL-ish
/// values); -0.0 and +0.0 map to distinct but adjacent codes, and the engine
/// normalizes -0.0 to +0.0 before encoding so equality behaves.
#[inline]
pub fn f64_to_ordered(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

/// Inverse of [`f64_to_ordered`].
#[inline]
pub fn ordered_to_f64(u: u64) -> f64 {
    if u >> 63 == 1 {
        f64::from_bits(u & !(1u64 << 63))
    } else {
        f64::from_bits(!u)
    }
}

/// Convert the first 8 bytes of a string to a big-endian u64 — an
/// order-preserving (though lossy) mapping used by the synopsis to prune
/// string predicates.
pub fn str_prefix_ordered(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn i64_boundaries() {
        assert_eq!(i64_to_ordered(i64::MIN), 0);
        assert_eq!(i64_to_ordered(-1), (1u64 << 63) - 1);
        assert_eq!(i64_to_ordered(0), 1u64 << 63);
        assert_eq!(i64_to_ordered(i64::MAX), u64::MAX);
    }

    #[test]
    fn f64_ordering_examples() {
        let vals = [-f64::INFINITY, -100.5, -1.0, -1e-300, 0.0, 1e-300, 1.0, 2.5, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(
                f64_to_ordered(w[0]) < f64_to_ordered(w[1]),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn negative_zero_normalized() {
        assert_eq!(f64_to_ordered(-0.0), f64_to_ordered(0.0));
    }

    #[test]
    fn str_prefix_ordering() {
        assert!(str_prefix_ordered("apple") < str_prefix_ordered("banana"));
        assert!(str_prefix_ordered("a") < str_prefix_ordered("aa"));
        assert_eq!(str_prefix_ordered(""), 0);
        // Lossy beyond 8 bytes — equal prefixes map equal.
        assert_eq!(
            str_prefix_ordered("12345678abc"),
            str_prefix_ordered("12345678xyz")
        );
    }

    proptest! {
        #[test]
        fn prop_str_prefix_monotone(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            if str_prefix_ordered(&a) < str_prefix_ordered(&b) {
                prop_assert!(a < b);
            }
        }

        #[test]
        fn prop_i64_monotone(a in any::<i64>(), b in any::<i64>()) {
            prop_assert_eq!(a < b, i64_to_ordered(a) < i64_to_ordered(b));
            prop_assert_eq!(ordered_to_i64(i64_to_ordered(a)), a);
        }

        #[test]
        fn prop_f64_monotone(a in any::<f64>(), b in any::<f64>()) {
            prop_assume!(a.is_finite() && b.is_finite());
            prop_assert_eq!(a < b, f64_to_ordered(a) < f64_to_ordered(b));
            let back = ordered_to_f64(f64_to_ordered(a));
            if a == 0.0 {
                prop_assert_eq!(back, 0.0);
            } else {
                prop_assert_eq!(back.to_bits(), a.to_bits());
            }
        }
    }
}
