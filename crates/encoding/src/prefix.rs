//! Prefix compression for string dictionaries.
//!
//! The paper: "*Prefix compression* methods are also used to eliminate
//! storage for commonly occurring string prefixes." The dictionary's
//! partition value lists are sorted, so adjacent entries share prefixes
//! heavily (URLs, account ids, city names...). We store them front-coded:
//! each entry records how many leading bytes it shares with its predecessor
//! plus the remaining suffix. Restart points every [`RESTART_INTERVAL`]
//! entries bound random-access cost, LevelDB-style.

use serde::{Deserialize, Serialize};

/// Entries between full (restart) entries.
pub const RESTART_INTERVAL: usize = 16;

/// A front-coded list of sorted strings with O(RESTART_INTERVAL) access.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontCodedList {
    /// (shared_with_prev, suffix) pairs; shared == 0 at restart points.
    entries: Vec<(u16, Box<str>)>,
    len: usize,
}

impl FrontCodedList {
    /// Build from sorted strings.
    ///
    /// # Panics
    /// Debug-asserts the input is sorted (the dictionary builder guarantees
    /// it).
    pub fn from_sorted<S: AsRef<str>>(sorted: &[S]) -> FrontCodedList {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].as_ref() <= w[1].as_ref()),
            "FrontCodedList input must be sorted"
        );
        let mut entries = Vec::with_capacity(sorted.len());
        let mut prev = "";
        for (i, s) in sorted.iter().enumerate() {
            let s = s.as_ref();
            let shared = if i % RESTART_INTERVAL == 0 {
                0
            } else {
                common_prefix_len(prev, s).min(u16::MAX as usize) as u16
            };
            entries.push((shared, s[shared as usize..].into()));
            prev = s;
        }
        FrontCodedList {
            len: sorted.len(),
            entries,
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reconstruct the string at `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> String {
        assert!(index < self.len, "index {index} out of bounds");
        let restart = index - index % RESTART_INTERVAL;
        let mut out = String::new();
        for i in restart..=index {
            let (shared, suffix) = &self.entries[i];
            out.truncate(*shared as usize);
            out.push_str(suffix);
        }
        out
    }

    /// Iterate all strings in order (single sequential reconstruction).
    pub fn iter(&self) -> impl Iterator<Item = String> + '_ {
        let mut current = String::new();
        self.entries.iter().map(move |(shared, suffix)| {
            current.truncate(*shared as usize);
            current.push_str(suffix);
            current.clone()
        })
    }

    /// Stored bytes for compression accounting, modelling the on-page
    /// layout: a contiguous suffix byte area plus a 2-byte shared-length
    /// and 4-byte offset per entry.
    pub fn size_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, s)| 2 + s.len() + 4)
            .sum::<usize>()
    }

    /// Bytes the raw (uncompressed) strings would occupy.
    pub fn raw_bytes(&self) -> usize {
        // Reconstruct lengths: suffix + shared.
        self.entries
            .iter()
            .map(|(shared, s)| *shared as usize + s.len() + 16)
            .sum::<usize>()
    }
}

/// Extract the single longest common prefix of *all* strings in a column
/// (column-global prefix elimination, applied before dictionary building
/// when profitable, e.g. `"ORD-00001"`, `"ORD-00002"`, ...).
pub fn global_prefix<'a, S>(values: impl IntoIterator<Item = &'a S>) -> String
where
    S: AsRef<str> + 'a,
{
    let mut it = values.into_iter();
    let Some(first) = it.next() else {
        return String::new();
    };
    let mut prefix = first.as_ref().to_string();
    for v in it {
        let l = common_prefix_len(&prefix, v.as_ref());
        prefix.truncate(l);
        if prefix.is_empty() {
            break;
        }
    }
    prefix
}

/// Length of the common prefix of two strings, in bytes, on a char boundary.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    let mut l = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    // Back off to a UTF-8 char boundary.
    while l > 0 && !a.is_char_boundary(l) {
        l -= 1;
    }
    l
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
    fn roundtrip() {
        let data = vec![
            "alpha", "alphabet", "alphabetical", "beta", "betamax", "gamma",
        ];
        let fcl = FrontCodedList::from_sorted(&data);
        for (i, s) in data.iter().enumerate() {
            assert_eq!(fcl.get(i), *s);
        }
        let all: Vec<String> = fcl.iter().collect();
        assert_eq!(all, data);
    }

    #[test]
    fn compression_on_shared_prefixes() {
        let data: Vec<String> = (0..1000).map(|i| format!("customer-order-{i:08}")).collect();
        let fcl = FrontCodedList::from_sorted(&data);
        assert!(
            fcl.size_bytes() < fcl.raw_bytes() / 2,
            "front coding should halve storage: {} vs {}",
            fcl.size_bytes(),
            fcl.raw_bytes()
        );
    }

    #[test]
    fn restart_points_bound_reconstruction() {
        let data: Vec<String> = (0..100).map(|i| format!("k{i:04}")).collect();
        let fcl = FrontCodedList::from_sorted(&data);
        // Entry at a restart index must be stored in full.
        assert_eq!(fcl.entries[RESTART_INTERVAL].0, 0);
        assert_eq!(fcl.get(RESTART_INTERVAL), data[RESTART_INTERVAL]);
    }

    #[test]
    fn global_prefix_extraction() {
        let vals = ["ORD-001", "ORD-002", "ORD-9"];
        assert_eq!(global_prefix(vals.iter()), "ORD-");
        let vals2 = ["abc", "xyz"];
        assert_eq!(global_prefix(vals2.iter()), "");
        let empty: Vec<&str> = vec![];
        assert_eq!(global_prefix(empty.iter()), "");
    }

    #[test]
    fn utf8_boundary_safety() {
        let a = "caf\u{e9}X"; // café + X
        let b = "caf\u{e8}Y"; // cafè + Y — é and è share first UTF-8 byte
        let l = common_prefix_len(a, b);
        assert!(a.is_char_boundary(l));
        assert_eq!(&a[..l], "caf");
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
        fn prop_roundtrip(mut data in prop::collection::vec("[a-z]{0,20}", 1..200)) {
            data.sort();
            let fcl = FrontCodedList::from_sorted(&data);
            for (i, s) in data.iter().enumerate() {
                prop_assert_eq!(fcl.get(i), s.clone());
            }
        }

        #[test]
        fn prop_str_prefix_monotone(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            if str_prefix_ordered(&a) < str_prefix_ordered(&b) {
                prop_assert!(a < b);
            }
        }
    }
}
