//! Operate-on-compressed key machinery for joins and grouping.
//!
//! The BLU design point (paper §II.B) is that joins and grouping run on
//! *encoded* data: every key column is reduced to a fixed-width `u64` word
//! and the hot loops hash, compare, and bucket those words with no [`Datum`]
//! in sight. This module decides when that is sound and provides the word
//! computation:
//!
//! - Integer-family keys (ints, bools, dates, timestamps, same-scale
//!   decimals) become [`dash_encoding::order::i64_to_ordered`] words.
//! - Float keys become [`dash_encoding::order::f64_to_ordered`] words with
//!   NaN canonicalized first, so key identity matches SQL equality
//!   (`-0.0 = 0.0`, NaN groups with NaN).
//! - String keys backed by a frequency-partitioned dictionary become packed
//!   dictionary codes ([`dash_encoding::dict::pack_code`]); strings absent
//!   from the chosen dictionary get the [`STR_MISS`] sentinel and are
//!   interned per partition (see [`StrInterner`]).
//!
//! A join has one code domain per string key: the build side's dictionary.
//! Probe morsels carrying a different dictionary re-encode by value into it
//! (counted in `ExecStats::keys_reencoded_rows`) — the re-encode rule.
//!
//! [`KeyMode`] is the planner-visible switch: `Encoded` when every key
//! column's static type permits the compressed path, `Datum` when any key
//! needs cross-type numeric equality (`Int 2` joins `Float 2.0`), is a
//! computed expression, or mixes key domains.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use dash_common::fxhash::{FxHashMap, FxHasher};
use dash_common::types::DataType;
use dash_common::Schema;
use dash_encoding::column::ColumnValues;
use dash_encoding::dict::{pack_code, FreqDict};
use dash_encoding::order::{f64_to_ordered, i64_to_ordered};

use crate::batch::Batch;
use crate::expr::Expr;

/// Sentinel key word for a string value absent from the shared dictionary.
///
/// Packed dictionary codes always have their top bit clear, and local intern
/// codes live in `[LOCAL_STR_BASE, u64::MAX)`, so the sentinel collides with
/// neither. Rows carrying it are routed by hashing the raw string bytes and
/// resolved through a per-partition [`StrInterner`].
pub(crate) const STR_MISS: u64 = u64::MAX;

/// Base for per-partition local string codes handed out by [`StrInterner`].
///
/// Packed dictionary codes occupy at most `(MAX_PARTITIONS + 1) << 56`
/// (< 2^59), so codes at or above `1 << 63` can never collide with them.
pub(crate) const LOCAL_STR_BASE: u64 = 1 << 63;

/// How a join or aggregate evaluates its keys.
///
/// Chosen statically by the planner from the key columns' types; the
/// executor re-verifies at runtime against the actual batches and may still
/// fall back to `Datum` (e.g. key count too large, non-column expressions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// Keys flow as fixed-width `u64` code words; payloads materialize late.
    Encoded,
    /// Keys materialize to `Datum` values per row (the fallback path).
    Datum,
}

/// The value domain a key column occupies once encoded to a word.
///
/// Two key columns may share the encoded path only when their domains are
/// *equal*: word-level equality must coincide with SQL equality. `Bool` and
/// `Int` stay distinct because `Datum::Bool(true) != Datum::Int(1)`; every
/// decimal scale is its own domain because words carry scaled integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyDomain {
    Int,
    Bool,
    Date,
    Timestamp,
    Decimal(u8),
    Float,
    Str,
}

fn key_domain(dt: DataType) -> KeyDomain {
    match dt {
        DataType::Int16 | DataType::Int32 | DataType::Int64 => KeyDomain::Int,
        DataType::Bool => KeyDomain::Bool,
        DataType::Date => KeyDomain::Date,
        DataType::Timestamp => KeyDomain::Timestamp,
        DataType::Decimal(_, s) => KeyDomain::Decimal(s),
        DataType::Float32 | DataType::Float64 => KeyDomain::Float,
        DataType::Utf8 => KeyDomain::Str,
    }
}

/// Maximum number of group-by key columns the encoded aggregate supports
/// (one bit per column in the null-mask word).
pub(crate) const MAX_ENCODED_GROUP_KEYS: usize = 63;

impl KeyMode {
    /// Static key-mode decision for a hash join on `on` column pairs.
    ///
    /// `Encoded` iff every pair's two columns occupy the same [`KeyDomain`];
    /// any cross-domain pair (e.g. `Int64` vs `Float64`, which needs
    /// cross-numeric SQL equality) forces the `Datum` path.
    pub fn for_join(left: &Schema, right: &Schema, on: &[(usize, usize)]) -> KeyMode {
        let ok = !on.is_empty()
            && on.iter().all(|&(l, r)| {
                key_domain(left.field(l).data_type) == key_domain(right.field(r).data_type)
            });
        if ok {
            KeyMode::Encoded
        } else {
            KeyMode::Datum
        }
    }

    /// Static key-mode decision for a grouped aggregate.
    ///
    /// `Encoded` iff there is at least one group key, every key is a bare
    /// column reference, and the key count fits the null-mask word.
    pub fn for_group(_input: &Schema, group: &[Expr]) -> KeyMode {
        let ok = !group.is_empty()
            && group.len() <= MAX_ENCODED_GROUP_KEYS
            && group.iter().all(|g| matches!(g, Expr::Col(_)));
        if ok {
            KeyMode::Encoded
        } else {
            KeyMode::Datum
        }
    }
}

/// One key column viewed through the encoded path.
///
/// Borrows the batch's column storage; `dict` (strings only) is the join's
/// code domain — the build side's dictionary — which may differ from the
/// dictionary the batch itself carries (the re-encode rule).
pub(crate) enum KeyCol<'a> {
    /// Integer-family values: word = `i64_to_ordered(v)`.
    Int(&'a [Option<i64>]),
    /// Float values: word = `f64_to_ordered` of the canonicalized value.
    Float(&'a [Option<f64>]),
    /// String values: word = packed dictionary code or [`STR_MISS`].
    Str {
        vals: &'a [Option<Arc<str>>],
        dict: Option<Arc<FreqDict<Arc<str>>>>,
    },
}

/// Canonical `u64` key word for a float key.
///
/// All NaN payloads fold onto one word and `-0.0` folds onto `+0.0`
/// (`f64_to_ordered` already normalizes zero), matching
/// [`dash_common::canonical_f64_bits`] on the `Datum` hash path.
#[inline]
pub(crate) fn f64_key_word(v: f64) -> u64 {
    if v.is_nan() {
        f64_to_ordered(f64::NAN)
    } else {
        f64_to_ordered(v)
    }
}

impl<'a> KeyCol<'a> {
    /// Build a key column view over `batch` column `col`, with `dict`
    /// overriding the batch's own dictionary for strings.
    pub(crate) fn from_column(
        batch: &'a Batch,
        col: usize,
        dict: Option<Arc<FreqDict<Arc<str>>>>,
    ) -> KeyCol<'a> {
        match batch.column(col) {
            ColumnValues::Int(v) => KeyCol::Int(v),
            ColumnValues::Float(v) => KeyCol::Float(v),
            ColumnValues::Str(v) => KeyCol::Str { vals: v, dict },
        }
    }

    /// The key word for `row`, or `None` when the value is NULL.
    #[inline]
    pub fn word(&self, row: usize) -> Option<u64> {
        match self {
            KeyCol::Int(v) => v[row].map(i64_to_ordered),
            KeyCol::Float(v) => v[row].map(f64_key_word),
            KeyCol::Str { vals, dict } => vals[row].as_ref().map(|s| match dict {
                Some(d) => d.encode(s).map(pack_code).unwrap_or(STR_MISS),
                None => STR_MISS,
            }),
        }
    }

    /// Whether this key column is a string column — the only kind whose
    /// words can carry the [`STR_MISS`] sentinel. Int keys legitimately
    /// produce the word `u64::MAX` (`i64::MAX` ordered), so every sentinel
    /// check must be gated on the column kind, not the word alone.
    #[inline]
    pub fn is_str(&self) -> bool {
        matches!(self, KeyCol::Str { .. })
    }

    /// The raw string at `row`; only valid for `Str` columns on non-NULL rows.
    #[inline]
    pub fn str_at(&self, row: usize) -> &Arc<str> {
        match self {
            KeyCol::Str { vals, .. } => vals[row].as_ref().expect("str_at on NULL key"),
            _ => unreachable!("str_at on non-string key column"),
        }
    }
}

/// Deterministic partition-routing hash over one row's key words.
///
/// [`STR_MISS`] words hash the raw string bytes instead of the sentinel so
/// equal out-of-dictionary strings still land in the same partition
/// regardless of which side (or worker) sees them.
#[inline]
pub(crate) fn route_hash(cols: &[KeyCol<'_>], words: &[u64], row: usize) -> u64 {
    let mut h = FxHasher::default();
    for (c, &w) in cols.iter().zip(words) {
        if w == STR_MISS && c.is_str() {
            c.str_at(row).as_bytes().hash(&mut h);
        } else {
            w.hash(&mut h);
        }
    }
    h.finish()
}

/// Per-partition interner resolving [`STR_MISS`] words to local codes.
///
/// Built from **build-side rows in row order only**, so the code assignment
/// is deterministic and independent of thread timing. A probe-side string
/// missing from the interner provably has no build match (it is neither in
/// the shared dictionary nor among the build side's out-of-dictionary
/// strings).
#[derive(Default)]
pub(crate) struct StrInterner {
    map: FxHashMap<Arc<str>, u64>,
}

impl StrInterner {
    /// Code for `s`, allocating the next local code on first sight.
    #[inline]
    pub fn intern(&mut self, s: &Arc<str>) -> u64 {
        let next = LOCAL_STR_BASE + self.map.len() as u64;
        *self.map.entry(s.clone()).or_insert(next)
    }

    /// Code for `s` if it was interned; `None` means provably unmatched.
    #[inline]
    pub fn lookup(&self, s: &Arc<str>) -> Option<u64> {
        self.map.get(s.as_ref() as &str).copied()
    }
}

/// Build encoded key column views for a grouped aggregate, or `None` when
/// any group expression is not a bare column.
pub(crate) fn group_key_cols<'a>(input: &'a Batch, group: &[Expr]) -> Option<Vec<KeyCol<'a>>> {
    if group.is_empty() || group.len() > MAX_ENCODED_GROUP_KEYS {
        return None;
    }
    group
        .iter()
        .map(|g| match g {
            Expr::Col(c) => Some(KeyCol::from_column(input, *c, input.str_dict(*c).cloned())),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::{row, Field};

    fn batch(rows: &[dash_common::Row]) -> Batch {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        Batch::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn float_words_canonicalize_zero_and_nan() {
        assert_eq!(f64_key_word(0.0), f64_key_word(-0.0));
        assert_eq!(f64_key_word(f64::NAN), f64_key_word(-f64::NAN));
        assert_ne!(f64_key_word(1.0), f64_key_word(2.0));
    }

    #[test]
    fn int_words_preserve_equality() {
        let b = batch(&[row![1i64, 1.0f64, "a"], row![2i64, 1.0f64, "a"]]);
        let cols = group_key_cols(&b, &[Expr::col(0)]).unwrap();
        assert_ne!(cols[0].word(0), cols[0].word(1));
        assert_eq!(cols[0].word(0), Some(i64_to_ordered(1)));
    }

    #[test]
    fn str_without_dict_is_miss_and_interner_resolves() {
        let b = batch(&[row![1i64, 1.0f64, "a"], row![2i64, 1.0f64, "b"]]);
        let cols = group_key_cols(&b, &[Expr::col(2)]).unwrap();
        assert_eq!(cols[0].word(0), Some(STR_MISS));
        let mut it = StrInterner::default();
        let a = it.intern(cols[0].str_at(0));
        let b2 = it.intern(cols[0].str_at(1));
        assert_ne!(a, b2);
        assert!(a >= LOCAL_STR_BASE && b2 >= LOCAL_STR_BASE);
        assert_eq!(it.intern(cols[0].str_at(0)), a);
        assert_eq!(it.lookup(cols[0].str_at(1)), Some(b2));
    }

    #[test]
    fn route_hash_ignores_miss_sentinel_value() {
        let b1 = batch(&[row![1i64, 1.0f64, "zed"]]);
        let b2 = batch(&[row![9i64, 9.0f64, "zed"]]);
        let c1 = group_key_cols(&b1, &[Expr::col(2)]).unwrap();
        let c2 = group_key_cols(&b2, &[Expr::col(2)]).unwrap();
        let w1 = [c1[0].word(0).unwrap()];
        let w2 = [c2[0].word(0).unwrap()];
        assert_eq!(route_hash(&c1, &w1, 0), route_hash(&c2, &w2, 0));
    }

    #[test]
    fn key_mode_static_decisions() {
        let s = Schema::new(vec![
            Field::not_null("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
        ])
        .unwrap();
        assert_eq!(KeyMode::for_join(&s, &s, &[(0, 0)]), KeyMode::Encoded);
        assert_eq!(KeyMode::for_join(&s, &s, &[(2, 2)]), KeyMode::Encoded);
        // Cross-domain Int vs Float needs SQL numeric equality -> Datum.
        assert_eq!(KeyMode::for_join(&s, &s, &[(0, 1)]), KeyMode::Datum);
        assert_eq!(KeyMode::for_group(&s, &[Expr::col(0)]), KeyMode::Encoded);
        assert_eq!(KeyMode::for_group(&s, &[]), KeyMode::Datum);
    }
}
