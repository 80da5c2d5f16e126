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
//! (counted in `ExecStats::keys_reencoded_rows`) — the re-encode rule. A
//! join pair whose two columns occupy different domains is *lifted* into
//! the pair's common one ([`KeyCol::for_pair`]): numerics compare as `f64`,
//! `DATE` beside `TIMESTAMP` as microseconds, and a pair that is not
//! comparable never matches — so every pair of every join yields words.
//!
//! [`GroupTable`] is the one word-keyed table: a join's build partitions,
//! the per-morsel grouping pass and the accumulator's merge all probe one.
//! Every key is a column: a join pairs column ordinals, and the planner
//! evaluates a computed group key in a `Project` beneath the aggregate.
//! [`KeyMode`] is the planner-visible label and selects no code.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use dash_common::fxhash::{FxHashMap, FxHasher};
use dash_common::date::date_to_timestamp_micros;
use dash_common::types::DataType;
use dash_common::Schema;
use dash_encoding::column::ColumnValues;
use dash_encoding::dict::{pack_code, FreqDict};
use dash_encoding::order::{f64_to_ordered, i64_to_ordered};

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

/// What `EXPLAIN` says about a join's or aggregate's keys (`keys=`).
///
/// A label only: both operators key on `u64` words whatever it says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// A join pair's two columns share a domain, or a grouped aggregate
    /// has a key: the columns' own words are the keys.
    Encoded,
    /// Some join pair is lifted into its common domain before it becomes a
    /// word; or the aggregate is global and keys nothing.
    Datum,
}

/// The value domain a key column occupies once encoded to a word.
///
/// The two columns of a join pair compare on their own words only when
/// their domains are *equal*: word-level equality must coincide with SQL
/// equality. `Bool` and `Int` stay distinct because `Datum::Bool(true) !=
/// Datum::Int(1)`; every decimal scale is its own domain because words
/// carry scaled integers.
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

impl KeyMode {
    /// The label of a hash join on `on` column pairs.
    ///
    /// `Encoded` iff every pair's two columns occupy the same [`KeyDomain`];
    /// `Datum` when some pair (e.g. `Int64` vs `Float64`) is lifted.
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

    /// The label of an aggregate on `group` key columns: `Encoded` iff
    /// there is at least one.
    pub fn for_group(group: &[usize]) -> KeyMode {
        if !group.is_empty() {
            KeyMode::Encoded
        } else {
            KeyMode::Datum
        }
    }
}

/// A string key column's code domain.
pub(crate) type StrDict = Arc<FreqDict<Arc<str>>>;

/// One key column viewed through the encoded path.
///
/// Borrows the column storage; `dict` (strings only) is the code domain —
/// for a join the build side's dictionary, which may differ from the
/// dictionary the batch itself carries (the re-encode rule). A view lives
/// for one morsel on one worker.
pub(crate) enum KeyCol<'a> {
    /// Integer-family values: word = `i64_to_ordered(v)`.
    Int(&'a [Option<i64>]),
    /// Float values: word = `f64_to_ordered` of the canonicalized value.
    Float(&'a [Option<f64>]),
    /// String values: word = packed dictionary code or [`STR_MISS`].
    Str {
        vals: &'a [Option<Arc<str>>],
        dict: Option<StrDict>,
        memo: PtrMemo,
    },
    /// Integer-family values of a cross-domain join pair, lifted into the
    /// pair's common domain.
    Lifted(&'a [Option<i64>], Lift),
    /// One side of a join pair that is not comparable: every row reads as
    /// NULL, and a NULL key never joins.
    Never,
}

/// How [`KeyCol::Lifted`] turns a stored integer into its pair's word.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lift {
    /// Numeric beside numeric: the `f64` word of `v / divisor` (`10^scale`
    /// for a decimal, 1 for an integer) — `Datum::as_float`, under which
    /// `Datum::sql_cmp` compares numerics of different kinds.
    Float(f64),
    /// `DATE` beside `TIMESTAMP`: days become microseconds.
    Micros,
}

impl Lift {
    #[inline]
    fn word(self, v: i64) -> u64 {
        match self {
            Lift::Float(divisor) => f64_key_word(v as f64 / divisor),
            Lift::Micros => i64_to_ordered(date_to_timestamp_micros(v as i32)),
        }
    }
}

/// One row's key in one [`KeyCol`], as [`KeyCol::for_each_word`] hands it
/// out: the sentinel check is already made, against the column's kind.
pub(crate) enum KeyWord<'a> {
    /// SQL NULL.
    Null,
    /// The key word.
    Word(u64),
    /// A string absent from the dictionary: the caller interns it.
    Miss(&'a Arc<str>),
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

/// `Arc` pointer → key word cache for one [`KeyCol::Str`] view.
///
/// The decoder hands out the dictionary's own `Arc<str>`s, so a morsel
/// repeats a few pointers thousands of times; a hit skips hashing the
/// string's bytes in [`FreqDict::encode`]. The viewed column keeps every
/// `Arc` alive, so one pointer is one string for the life of the view. A
/// direct-mapped table: a pointer never seen (a row-at-a-time insert
/// allocates one `Arc` per row) costs the `encode` it would have paid
/// anyway, plus one compare and one store. Out-of-dictionary strings are
/// such pointers, so the interner behind a miss has no memo.
#[derive(Default)]
pub(crate) struct PtrMemo(Vec<(usize, u64)>);

impl PtrMemo {
    const SLOTS: usize = 1024;

    /// The word cached for `s`'s allocation, else `encode()`, cached.
    #[inline]
    fn word(&mut self, s: &Arc<str>, encode: impl FnOnce() -> u64) -> u64 {
        if self.0.is_empty() {
            self.0 = vec![(0, 0); Self::SLOTS];
        }
        // An `Arc` is never null, so a zeroed slot matches no pointer.
        let ptr = Arc::as_ptr(s) as *const u8 as usize;
        let slot = &mut self.0[(ptr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & (Self::SLOTS - 1)];
        if slot.0 != ptr {
            *slot = (ptr, encode());
        }
        slot.1
    }
}

#[inline]
fn str_word(dict: &Option<StrDict>, memo: &mut PtrMemo, s: &Arc<str>) -> u64 {
    match dict {
        Some(d) => memo.word(s, || d.encode(s).map(pack_code).unwrap_or(STR_MISS)),
        None => STR_MISS,
    }
}

impl<'a> KeyCol<'a> {
    /// A key column view over `values`, with `dict` as the string code
    /// domain.
    pub(crate) fn new(values: &'a ColumnValues, dict: Option<StrDict>) -> KeyCol<'a> {
        match values {
            ColumnValues::Int(v) => KeyCol::Int(v),
            ColumnValues::Float(v) => KeyCol::Float(v),
            ColumnValues::Str(v) => KeyCol::Str {
                vals: v,
                dict,
                memo: PtrMemo::default(),
            },
        }
    }

    /// One side of a join pair: `values` holds `own`-typed keys that meet
    /// `other`-typed keys. Two columns of one [`KeyDomain`] compare on
    /// their own words. Otherwise the side that is not yet in the pair's
    /// common domain is lifted into it — numerics to `f64`, a date to
    /// microseconds — and a pair that is not comparable never matches.
    pub(crate) fn for_pair(
        values: &'a ColumnValues,
        own: DataType,
        other: DataType,
        dict: Option<StrDict>,
    ) -> KeyCol<'a> {
        if key_domain(own) == key_domain(other) {
            return KeyCol::new(values, dict);
        }
        match (values, own) {
            _ if !own.comparable_with(other) => KeyCol::Never,
            (ColumnValues::Int(v), DataType::Date) => KeyCol::Lifted(v, Lift::Micros),
            (ColumnValues::Int(v), DataType::Decimal(_, scale)) => {
                KeyCol::Lifted(v, Lift::Float(10f64.powi(i32::from(scale))))
            }
            (ColumnValues::Int(v), _) if own.is_integer() => KeyCol::Lifted(v, Lift::Float(1.0)),
            // A float beside a numeric, a timestamp beside a date: already
            // in the common domain.
            _ => KeyCol::new(values, dict),
        }
    }

    /// The key word for `row`, or `None` when the value is NULL.
    #[inline]
    pub fn word(&mut self, row: usize) -> Option<u64> {
        match self {
            KeyCol::Int(v) => v[row].map(i64_to_ordered),
            KeyCol::Float(v) => v[row].map(f64_key_word),
            KeyCol::Str { vals, dict, memo } => vals[row].as_ref().map(|s| str_word(dict, memo, s)),
            KeyCol::Lifted(v, lift) => v[row].map(|x| lift.word(x)),
            KeyCol::Never => None,
        }
    }

    /// The key of each of `rows` in order, as `f(index within rows, key)` —
    /// one typed loop per column, the kind matched once.
    #[inline]
    pub fn for_each_word(&mut self, rows: Range<usize>, mut f: impl FnMut(usize, KeyWord<'a>)) {
        match self {
            KeyCol::Int(v) => {
                for (i, x) in v[rows].iter().enumerate() {
                    f(i, x.map_or(KeyWord::Null, |x| KeyWord::Word(i64_to_ordered(x))));
                }
            }
            KeyCol::Float(v) => {
                for (i, x) in v[rows].iter().enumerate() {
                    f(i, x.map_or(KeyWord::Null, |x| KeyWord::Word(f64_key_word(x))));
                }
            }
            KeyCol::Str { vals, dict, memo } => {
                for (i, x) in vals[rows].iter().enumerate() {
                    f(
                        i,
                        match x {
                            None => KeyWord::Null,
                            Some(s) => match str_word(dict, memo, s) {
                                STR_MISS => KeyWord::Miss(s),
                                word => KeyWord::Word(word),
                            },
                        },
                    );
                }
            }
            KeyCol::Lifted(v, lift) => {
                for (i, x) in v[rows].iter().enumerate() {
                    f(i, x.map_or(KeyWord::Null, |x| KeyWord::Word(lift.word(x))));
                }
            }
            KeyCol::Never => (0..rows.len()).for_each(|i| f(i, KeyWord::Null)),
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
        if let Some(&code) = self.map.get(s.as_ref() as &str) {
            return code;
        }
        let code = LOCAL_STR_BASE + self.map.len() as u64;
        self.map.insert(s.clone(), code);
        code
    }

    /// Code for `s` if it was interned; `None` means provably unmatched.
    #[inline]
    pub fn lookup(&self, s: &Arc<str>) -> Option<u64> {
        self.map.get(s.as_ref() as &str).copied()
    }

    /// Heap bytes held by the map (the strings are the batch's own).
    pub fn bytes(&self) -> u64 {
        (self.map.capacity() * (std::mem::size_of::<(Arc<str>, u64)>() + 1)) as u64
    }
}

/// A word-keyed group table: every distinct key gets a dense group id in
/// first-appearance order. Keys live in one flat arena (group `g` at
/// `words[g * stride..]`) and the open-addressed slots hold group ids, so
/// neither a probe nor a new group allocates. A join's build partitions,
/// the per-morsel grouping pass and the accumulator's merge all probe one.
///
/// A single key column is one bare word per group, its NULL group kept out
/// of band (every `u64` is a legitimate int key word). Several columns lay
/// out as their words followed by a NULL mask (bit `c` set = column `c`
/// NULL, its word zeroed), which groups NULLs together without reserving a
/// sentinel word.
pub(crate) struct GroupTable {
    stride: usize,
    words: Vec<u64>,
    /// Group id per slot, [`GroupTable::EMPTY`] when free; the length is
    /// zero or a power of two, kept at most half full.
    slots: Vec<u32>,
    /// The NULL key's group in a single-key table. Its arena word is a
    /// placeholder and it owns no slot.
    null_gid: Option<u32>,
}

impl GroupTable {
    const EMPTY: u32 = u32::MAX;

    /// An empty table for `nk` key columns. Nothing is allocated until the
    /// first key arrives.
    pub(crate) fn new(nk: usize) -> GroupTable {
        GroupTable {
            stride: if nk <= 1 { 1 } else { nk + nk.div_ceil(64) },
            words: Vec::new(),
            slots: Vec::new(),
            null_gid: None,
        }
    }

    /// An empty table for `nk` key columns that are never NULL (a join
    /// drops NULL-keyed rows): a key is its `nk` words, with no mask.
    pub(crate) fn without_nulls(nk: usize) -> GroupTable {
        GroupTable {
            stride: nk.max(1),
            ..GroupTable::new(1)
        }
    }

    /// Groups so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Words per key.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The key words of group `gid`, or `None` for a single-key table's
    /// NULL group.
    #[inline]
    pub(crate) fn key(&self, gid: usize) -> Option<&[u64]> {
        (self.null_gid != Some(gid as u32)).then(|| &self.words[gid * self.stride..(gid + 1) * self.stride])
    }

    /// Heap bytes held (keys plus slots).
    pub(crate) fn bytes(&self) -> u64 {
        (self.words.len() * 8 + self.slots.len() * 4) as u64
    }

    /// Home slot from the hash's high bits, which a multiplicative hash
    /// mixes best: ordered-int and float words differ in only a few bits.
    #[inline]
    fn home(&self, key: &[u64]) -> usize {
        let mut h = 0u64;
        for &w in key {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The group of `key` (`stride` words); a new key takes the next id —
    /// the value of `len()` before the call.
    #[inline]
    pub(crate) fn group_of(&mut self, key: &[u64]) -> u32 {
        debug_assert_eq!(key.len(), self.stride);
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let gid = self.slots[at];
            if gid == Self::EMPTY {
                let gid = self.len() as u32;
                self.slots[at] = gid;
                self.words.extend_from_slice(key);
                return gid;
            }
            let g = gid as usize * self.stride;
            if &self.words[g..g + self.stride] == key {
                return gid;
            }
            at = (at + 1) & mask;
        }
    }

    /// [`GroupTable::group_of`] for a single-key table: hashes and compares
    /// one bare word, 1.6–2.1× faster on every single-key group-by leg
    /// than `group_of(&[word])` (EXPERIMENTS.md, group_by).
    #[inline]
    pub(crate) fn group_of_word(&mut self, word: u64) -> u32 {
        debug_assert_eq!(self.stride, 1);
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut at = self.home(&[word]);
        loop {
            let gid = self.slots[at];
            if gid == Self::EMPTY {
                let gid = self.words.len() as u32;
                self.slots[at] = gid;
                self.words.push(word);
                return gid;
            }
            if self.words[gid as usize] == word {
                return gid;
            }
            at = (at + 1) & mask;
        }
    }

    /// The group of `key` if the table holds it; never inserts.
    #[inline]
    pub(crate) fn find(&self, key: &[u64]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.stride);
        self.probe(key, |g| &self.words[g * self.stride..(g + 1) * self.stride] == key)
    }

    /// [`GroupTable::find`] for a single-key table: one bare word.
    #[inline]
    pub(crate) fn find_word(&self, word: u64) -> Option<u32> {
        debug_assert_eq!(self.stride, 1);
        self.probe(&[word], |g| self.words[g] == word)
    }

    /// Walk `key`'s probe chain to the group `holds` accepts, or to a free
    /// slot.
    #[inline]
    fn probe(&self, key: &[u64], holds: impl Fn(usize) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let gid = self.slots[at];
            if gid == Self::EMPTY {
                return None;
            }
            if holds(gid as usize) {
                return Some(gid);
            }
            at = (at + 1) & mask;
        }
    }

    /// The NULL key's group in a single-key table.
    #[inline]
    pub(crate) fn null_group(&mut self) -> u32 {
        debug_assert_eq!(self.stride, 1);
        *self.null_gid.get_or_insert_with(|| {
            self.words.push(0);
            self.words.len() as u32 - 1
        })
    }

    #[inline]
    fn reserve_one(&mut self) {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots = vec![Self::EMPTY; cap];
        for gid in 0..self.len() {
            let Some(key) = self.key(gid) else { continue };
            let mut at = self.home(key);
            while self.slots[at] != Self::EMPTY {
                at = (at + 1) & (cap - 1);
            }
            self.slots[at] = gid as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use dash_common::{row, Field};
    use dash_encoding::histogram::Histogram;

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
        let mut col = KeyCol::new(b.column(0), None);
        assert_ne!(col.word(0), col.word(1));
        assert_eq!(col.word(0), Some(i64_to_ordered(1)));
    }

    #[test]
    fn str_without_dict_is_miss_and_interner_resolves() {
        let b = batch(&[row![1i64, 1.0f64, "a"], row![2i64, 1.0f64, "b"]]);
        let mut col = KeyCol::new(b.column(2), None);
        assert_eq!(col.word(0), Some(STR_MISS));
        let mut it = StrInterner::default();
        let a = it.intern(col.str_at(0));
        let b2 = it.intern(col.str_at(1));
        assert_ne!(a, b2);
        assert!(a >= LOCAL_STR_BASE && b2 >= LOCAL_STR_BASE);
        assert_eq!(it.intern(col.str_at(0)), a);
        assert_eq!(it.lookup(col.str_at(1)), Some(b2));
    }

    /// The pointer memo never changes a word: shared `Arc`s, a fresh `Arc`
    /// per row (the insert path), out-of-dictionary strings and more
    /// distinct pointers than the memo has slots all read as `encode` does.
    #[test]
    fn str_words_match_encode_through_the_pointer_memo() {
        let entries: Vec<Arc<str>> = (0..40).map(|i| Arc::from(format!("v{i}"))).collect();
        let dict = Arc::new(FreqDict::build(&Histogram::from_values(entries.iter().map(Some))));
        let mut vals: Vec<Option<Arc<str>>> = Vec::new();
        for i in 0..3 * PtrMemo::SLOTS {
            vals.push(match i % 4 {
                0 => Some(entries[i % 40].clone()),
                1 => Some(Arc::from(format!("v{}", i % 40))),
                2 => Some(Arc::from(format!("absent{i}"))),
                _ => None,
            });
        }
        let column = ColumnValues::Str(vals.clone());
        let mut col = KeyCol::new(&column, Some(dict.clone()));
        let expect = |v: &Option<Arc<str>>| {
            v.as_ref().map(|s| dict.encode(s).map(pack_code).unwrap_or(STR_MISS))
        };
        for (row, v) in vals.iter().enumerate() {
            assert_eq!(col.word(row), expect(v), "row {row}");
        }
        let mut seen = 0;
        col.for_each_word(5..vals.len(), |i, w| {
            let word = match w {
                KeyWord::Null => None,
                KeyWord::Word(w) => Some(w),
                KeyWord::Miss(s) => {
                    assert_eq!(Some(s), vals[5 + i].as_ref());
                    Some(STR_MISS)
                }
            };
            assert_eq!(word, expect(&vals[5 + i]));
            seen += 1;
        });
        assert_eq!(seen, vals.len() - 5);
    }

    #[test]
    fn route_hash_ignores_miss_sentinel_value() {
        let b1 = batch(&[row![1i64, 1.0f64, "zed"]]);
        let b2 = batch(&[row![9i64, 9.0f64, "zed"]]);
        let mut c1 = [KeyCol::new(b1.column(2), None)];
        let mut c2 = [KeyCol::new(b2.column(2), None)];
        let w1 = [c1[0].word(0).unwrap()];
        let w2 = [c2[0].word(0).unwrap()];
        assert_eq!(route_hash(&c1, &w1, 0), route_hash(&c2, &w2, 0));
    }

    #[test]
    fn group_table_ids_are_dense_and_survive_growth() {
        let mut single = GroupTable::new(1);
        // `u64::MAX` (the word of `i64::MAX`) and 0 (of `i64::MIN`, and the
        // NULL group's placeholder) are ordinary keys.
        let words: Vec<u64> = [u64::MAX, 0].into_iter().chain(1..5000).collect();
        for (i, &w) in words.iter().enumerate() {
            if i == 7 {
                assert_eq!(single.null_group(), 7);
            }
            let expect = if i < 7 { i } else { i + 1 } as u32;
            assert_eq!(single.group_of_word(w), expect);
        }
        assert_eq!(single.len(), words.len() + 1);
        assert_eq!(single.null_group(), 7, "one NULL group");
        assert_eq!(single.key(7), None);
        for (i, &w) in words.iter().enumerate() {
            let gid = if i < 7 { i } else { i + 1 };
            assert_eq!(single.group_of_word(w), gid as u32, "word {w} after growth");
            assert_eq!(single.find_word(w), Some(gid as u32));
            assert_eq!(single.key(gid), Some(&[w][..]));
        }
        // A lookup never inserts, and an empty table holds nothing.
        assert_eq!(single.find_word(5000), None);
        assert_eq!(single.len(), words.len() + 1);
        assert_eq!(GroupTable::new(1).find_word(0), None);

        // 70 key columns: two mask words after the key words.
        let mut multi = GroupTable::new(70);
        assert_eq!(multi.stride(), 72);
        let key = |k: u64| -> Vec<u64> { (0..72).map(|c| if c == 3 { k } else { 0 }).collect() };
        for k in 0..300u64 {
            assert_eq!(multi.group_of(&key(k)), k as u32);
        }
        for k in (0..300u64).rev() {
            assert_eq!(multi.group_of(&key(k)), k as u32);
            assert_eq!(multi.find(&key(k)), Some(k as u32));
        }
        assert_eq!(multi.find(&key(300)), None);
        assert_eq!(multi.len(), 300);
        assert!(multi.bytes() >= 300 * 72 * 8);

        // Keys that are never NULL carry no mask words.
        let mut pairs = GroupTable::without_nulls(2);
        assert_eq!(pairs.stride(), 2);
        assert_eq!(pairs.find(&[1, 2]), None);
        assert_eq!(pairs.group_of(&[1, 2]), 0);
        assert_eq!(pairs.group_of(&[2, 1]), 1);
        assert_eq!(pairs.find(&[1, 2]), Some(0));
    }

    /// A pair of one domain reads its columns' own words; a pair of two
    /// lifts the side that is not yet in the common domain; a pair that is
    /// not comparable reads as NULL.
    #[test]
    fn pairs_of_two_domains_lift_into_the_common_one() {
        let ints = ColumnValues::Int(vec![Some(2), Some(250), Some(i64::MAX), None]);
        let floats = ColumnValues::Float(vec![Some(2.0), Some(2.5), Some(-0.0), Some(f64::NAN)]);
        let word = |values: &ColumnValues, own, other, row| KeyCol::for_pair(values, own, other, None).word(row);
        let (int, float, date, ts) = (DataType::Int64, DataType::Float64, DataType::Date, DataType::Timestamp);
        let (dec2, dec4) = (DataType::Decimal(10, 2), DataType::Decimal(12, 4));
        // One domain: exact integer words, `i64::MAX` included.
        assert_eq!(word(&ints, int, DataType::Int32, 2), Some(u64::MAX));
        assert_eq!(word(&ints, dec2, DataType::Decimal(12, 2), 1), Some(i64_to_ordered(250)));
        // Numeric beside numeric: both sides reach the same `f64` word.
        assert_eq!(word(&ints, int, float, 0), word(&floats, float, int, 0));
        assert_eq!(word(&ints, dec2, float, 1), word(&floats, float, dec2, 1));
        assert_eq!(word(&ints, dec2, dec4, 1), Some(f64_key_word(2.5)));
        assert_eq!(word(&ints, dec4, int, 0), Some(f64_key_word(0.0002)));
        assert_eq!(word(&floats, float, int, 2), Some(f64_key_word(0.0)));
        assert_eq!(word(&ints, int, float, 3), None);
        // A date beside a timestamp becomes its midnight.
        assert_eq!(word(&ints, date, ts, 0), Some(i64_to_ordered(2 * 86_400_000_000)));
        assert_eq!(word(&ints, ts, date, 0), Some(i64_to_ordered(2)));
        // Not comparable: never a word.
        for (own, other) in [(int, DataType::Utf8), (DataType::Bool, int), (date, int), (ts, float)] {
            assert_eq!(word(&ints, own, other, 0), None, "{own} beside {other}");
        }
        assert_eq!(word(&floats, float, DataType::Utf8, 0), None);
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
        assert_eq!(KeyMode::for_group(&[0]), KeyMode::Encoded);
        assert_eq!(KeyMode::for_group(&[]), KeyMode::Datum);
    }
}
