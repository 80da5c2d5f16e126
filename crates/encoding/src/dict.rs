//! Frequency-partitioned, order-preserving dictionaries.
//!
//! This is the paper's *frequency encoding* (§II.B.1): distinct values are
//! split into a small number of **frequency partitions**; the hottest values
//! land in partition 0 and get the narrowest codes ("data with the highest
//! frequency of occurrence are encoded with the shortest representation ...
//! as small as one bit"). Within each partition, codes are assigned in
//! *value order*, so codes are binary-comparable for `=`, `<`, `BETWEEN`
//! **within a partition** — the order-preserving property that enables
//! operating on compressed data (§II.B.2).
//!
//! Partition boundaries are chosen by a small dynamic program that minimizes
//! the bits the blocks will store, considering boundaries at powers of two.
//! A split pays selector bits only on the strides whose values it actually
//! separates: a block whose values all fall in one partition stores no
//! selectors, so a one-partition dictionary pays none at all.

use crate::bitpack::bits_for;
use crate::histogram::{Histogram, NULL_ID};
use dash_common::fxhash::FxHashMap;
use std::borrow::Borrow;
use std::hash::Hash;

/// Maximum number of frequency partitions per dictionary.
pub const MAX_PARTITIONS: usize = 4;

/// A frequency-partitioned order-preserving dictionary.
///
/// Every partition's values are stored flat, partition 0 first and each in
/// value order. A value's *flat code* is its index there; within partition
/// `p` its code is the flat code less `base[p]`. Blocks store the
/// `(partition, code)` pair, while string pools and key words use the flat
/// code.
#[derive(Debug, Clone)]
pub struct FreqDict<T: Eq + Hash> {
    values: Vec<T>,
    /// Flat code of each partition's first value.
    base: Vec<u32>,
    lookup: FxHashMap<T, u32>,
}

impl<T: Eq + Hash> Default for FreqDict<T> {
    /// The empty dictionary: one partition with no values.
    fn default() -> FreqDict<T> {
        FreqDict { values: Vec::new(), base: vec![0], lookup: FxHashMap::default() }
    }
}

impl<T: Eq + Hash + Clone + Ord> FreqDict<T> {
    /// Build a dictionary from a histogram alone. With no row layout to go
    /// on, a split is charged selector bits on every row.
    ///
    /// Values are tiered by frequency; each tier becomes a partition whose
    /// codes are assigned in value order. At most [`MAX_PARTITIONS`] tiers.
    pub fn build(hist: &Histogram<T>) -> FreqDict<T> {
        let (by_freq, _) = hist.ranked();
        let every_row = RankSpan {
            lo: 0,
            hi: by_freq.len().saturating_sub(1) as u32,
            rows: hist.total() + hist.nulls(),
        };
        FreqDict::from_ranked(by_freq, hist.nulls(), &[every_row]).0
    }

    /// Build the dictionary for rows stored in blocks of `stride` rows, in
    /// order: `ids[i]` is row `i`'s distinct-value id from
    /// [`Histogram::add`], or [`NULL_ID`]. A split is charged selector bits
    /// only on the strides whose frequency ranks it separates. Also returns
    /// each distinct-value id's flat code.
    pub fn build_strided(hist: &Histogram<T>, ids: &[u32], stride: usize) -> (FreqDict<T>, Vec<u32>) {
        let (by_freq, rank) = hist.ranked();
        let spans: Vec<RankSpan> = ids
            .chunks(stride)
            .map(|rows| {
                // A NULL keeps a dummy code in partition 0, so it ranks 0.
                let (lo, hi) = rows.iter().fold((u32::MAX, 0), |(lo, hi), &id| {
                    let r = if id == NULL_ID { 0 } else { rank[id as usize] };
                    (lo.min(r), hi.max(r))
                });
                RankSpan { lo, hi, rows: rows.len() as u64 }
            })
            .collect();
        let (dict, flat_of_rank) = FreqDict::from_ranked(by_freq, hist.nulls(), &spans);
        (dict, rank.iter().map(|&r| flat_of_rank[r as usize]).collect())
    }

    /// The dictionary over `by_freq`, and the flat code of each rank.
    fn from_ranked(by_freq: Vec<(T, u64)>, nulls: u64, spans: &[RankSpan]) -> (FreqDict<T>, Vec<u32>) {
        let mut dict = FreqDict::default();
        // Ranks in flat order: each partition's ranks sorted by value.
        let mut order: Vec<usize> = (0..by_freq.len()).collect();
        let mut start = 0usize;
        for (p, &end) in choose_boundaries(&by_freq, nulls, spans).iter().enumerate() {
            order[start..end].sort_unstable_by(|&a, &b| by_freq[a].0.cmp(&by_freq[b].0));
            if p > 0 {
                dict.base.push(start as u32);
            }
            start = end;
        }
        let mut flat_of_rank = vec![0u32; by_freq.len()];
        for (flat, &r) in order.iter().enumerate() {
            flat_of_rank[r] = flat as u32;
            dict.lookup.insert(by_freq[r].0.clone(), flat as u32);
        }
        dict.values = order.into_iter().map(|r| by_freq[r].0.clone()).collect();
        (dict, flat_of_rank)
    }
}

impl<T: Eq + Hash + Ord> FreqDict<T> {
    /// Number of partitions (excluding the per-block exception bank, which
    /// is a block-level concept).
    pub fn partition_count(&self) -> usize {
        self.base.len()
    }

    /// Partition `p`'s values, in value order.
    pub fn partition(&self, p: usize) -> &[T] {
        let end = self.base.get(p + 1).map_or(self.values.len(), |&b| b as usize);
        &self.values[self.base[p] as usize..end]
    }

    /// Code width of partition `p` in bits.
    pub fn width(&self, p: usize) -> u8 {
        bits_for(self.partition(p).len().saturating_sub(1) as u64)
    }

    /// Every value, in flat-code order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Total number of dictionary entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The flat code of `value`. `None` if the dictionary does not hold it
    /// (the block encoder will route it to the exception bank).
    #[inline]
    pub fn code_of<Q: Hash + Eq + ?Sized>(&self, value: &Q) -> Option<u32>
    where
        T: Borrow<Q>,
    {
        if self.values.is_empty() {
            return None;
        }
        self.lookup.get(value).copied()
    }

    /// The flat code of partition `part`'s code `code`.
    #[inline]
    pub fn flat(&self, part: u8, code: u64) -> u32 {
        self.base[part as usize] + code as u32
    }

    /// The partition and code within it of flat code `flat`.
    #[inline]
    pub fn split(&self, flat: u32) -> (u8, u64) {
        let p = self.base.partition_point(|&b| b <= flat) - 1;
        (p as u8, u64::from(flat - self.base[p]))
    }

    /// The value of flat code `flat`.
    ///
    /// # Panics
    /// Panics on an out-of-range code (indicates corruption).
    #[inline]
    pub fn value(&self, flat: u32) -> &T {
        &self.values[flat as usize]
    }

    /// Decode a (partition, code) pair.
    ///
    /// # Panics
    /// Panics on an out-of-range partition or code (indicates corruption).
    #[inline]
    pub fn decode(&self, part: u8, code: u64) -> &T {
        self.value(self.flat(part, code))
    }

    /// For a range predicate `lo..=hi` (either bound optional), the
    /// qualifying *code* range within partition `p`, or `None` if no value
    /// of that partition qualifies. Because codes are assigned in value
    /// order within the partition, the qualifying codes are contiguous.
    pub fn code_bounds(
        &self,
        part: usize,
        lo: Option<&T>,
        hi: Option<&T>,
    ) -> Option<(u64, u64)> {
        let values = self.partition(part);
        if values.is_empty() {
            return None;
        }
        let start = match lo {
            Some(lo) => values.partition_point(|v| v < lo),
            None => 0,
        };
        let end = match hi {
            Some(hi) => values.partition_point(|v| v <= hi),
            None => values.len(),
        };
        if start >= end {
            None
        } else {
            Some((start as u64, end as u64 - 1))
        }
    }

    /// Width of the selector vector needed to tag a value's partition,
    /// reserving one extra tag for the block-level exception bank.
    pub fn selector_width(&self) -> u8 {
        bits_for(self.partition_count() as u64) // exception tag == partition count
    }
}

/// The frequency ranks one stored stride's values span, and its rows.
#[derive(Debug, Clone, Copy)]
struct RankSpan {
    lo: u32,
    hi: u32,
    rows: u64,
}

/// Choose partition boundaries over the frequency-sorted distinct values.
///
/// Candidate boundaries sit at powers of two (1, 2, 4, ..., D). For each
/// partition count `k` up to [`MAX_PARTITIONS`], a dynamic program picks
/// the `k` segments that minimize the bits the blocks store:
/// - codes: each segment's code width times its occurrences, plus
///   partition 0's width once per NULL (its dummy code);
/// - selectors: `bits_for(k)` (one tag is reserved for exceptions) on every
///   row of each stride in `spans` whose rank range crosses a boundary.
///   Any other stride elides its selectors, so `k = 1` pays none.
///
/// Ties go to fewer partitions. Returns the chosen cumulative end indices
/// (last one == D).
fn choose_boundaries<T>(by_freq: &[(T, u64)], nulls: u64, spans: &[RankSpan]) -> Vec<usize> {
    let d = by_freq.len();
    if d == 0 {
        return vec![];
    }
    // Prefix sums of occurrence counts.
    let mut prefix = vec![0u64; d + 1];
    for (i, (_, c)) in by_freq.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    // Segment edges: 0, the powers of two below D, and D itself.
    let mut edges = vec![0usize];
    let mut p = 1usize;
    while p < d {
        edges.push(p);
        p *= 2;
    }
    edges.push(d);
    let ne = edges.len();

    // crossing[s][e]: rows of the strides whose lowest rank lies in
    // [edges[s], edges[e]) and whose highest reaches edges[e]. A boundary at
    // edges[e] makes them store selectors; each is charged to the segment
    // its lowest rank falls in, so no stride is charged twice.
    let bucket = |rank: u32| edges.partition_point(|&x| x <= rank as usize) - 1;
    let mut by_bucket = vec![vec![0u64; ne]; ne];
    for span in spans {
        by_bucket[bucket(span.lo)][bucket(span.hi)] += span.rows;
    }
    let mut crossing = vec![vec![0u64; ne]; ne];
    for (a, row) in by_bucket.iter().enumerate() {
        for (b, &rows) in row.iter().enumerate().filter(|(_, &rows)| rows > 0) {
            for cross_row in &mut crossing[..=a] {
                for c in &mut cross_row[a + 1..=b] {
                    *c += rows;
                }
            }
        }
    }
    // The last segment crosses nothing, so one partition pays no selectors.
    let seg_cost = |s: usize, e: usize, sel_width: u64| -> u64 {
        let width = bits_for((edges[e] - edges[s] - 1) as u64) as u64;
        let codes = prefix[edges[e]] - prefix[edges[s]] + if s == 0 { nulls } else { 0 };
        width * codes + sel_width * crossing[s][e]
    };

    let inf = u64::MAX;
    let mut best: Option<(u64, Vec<usize>)> = None;
    for k in 1..=MAX_PARTITIONS.min(ne - 1) {
        let sel_width = bits_for(k as u64) as u64;
        // cost[m][e]: cheapest cover of [0, edges[e]) by m segments;
        // from[m][e]: where its last segment starts.
        let mut cost = vec![vec![inf; ne]; k + 1];
        let mut from = vec![vec![0usize; ne]; k + 1];
        cost[0][0] = 0;
        for m in 1..=k {
            for e in 1..ne {
                for s in 0..e {
                    if cost[m - 1][s] == inf {
                        continue;
                    }
                    let c = cost[m - 1][s] + seg_cost(s, e, sel_width);
                    if c < cost[m][e] {
                        cost[m][e] = c;
                        from[m][e] = s;
                    }
                }
            }
        }
        let total = cost[k][ne - 1];
        if total == inf || best.as_ref().is_some_and(|(b, _)| *b <= total) {
            continue;
        }
        // Walk back the chosen boundaries.
        let mut bounds = Vec::with_capacity(k);
        let mut e = ne - 1;
        for m in (1..=k).rev() {
            bounds.push(edges[e]);
            e = from[m][e];
        }
        bounds.reverse();
        best = Some((total, bounds));
    }
    best.map(|(_, bounds)| bounds).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `(partition, code)` pair of `v`, if the dictionary holds it.
    fn encode(dict: &FreqDict<u64>, v: &u64) -> Option<(u8, u64)> {
        dict.code_of(v).map(|flat| dict.split(flat))
    }

    fn skewed_hist() -> Histogram<u64> {
        // Two ultra-hot values, a warm tier, and a cold long tail.
        let mut h = Histogram::new();
        for _ in 0..5000 {
            h.add(&100);
        }
        for _ in 0..4000 {
            h.add(&50);
        }
        for v in 0..30u64 {
            for _ in 0..40 {
                h.add(&(200 + v));
            }
        }
        for v in 0..500u64 {
            h.add(&(1000 + v));
        }
        h
    }

    /// `card` values with the same count, in an order that puts every
    /// value in every stride.
    fn uniform_hist(card: u64, rows: u64) -> (Histogram<u64>, Vec<u32>) {
        let values: Vec<u64> = (0..rows).map(|i| i * 7 % card).collect();
        Histogram::with_ids(values.iter().map(Some))
    }

    #[test]
    fn uniform_histograms_build_one_partition() {
        // A split of a uniform column saves no code bits, so it cannot pay
        // for selectors, and one partition stores none: 23 and 1000 values
        // used to build 3 partitions.
        for card in [23u64, 1000] {
            let (hist, ids) = uniform_hist(card, card * 40);
            assert_eq!(FreqDict::build(&hist).partition_count(), 1, "{card} values");
            let dict = FreqDict::build_strided(&hist, &ids, 1024).0;
            assert_eq!(dict.partition_count(), 1, "{card} values, strided");
        }
    }

    #[test]
    fn skewed_histogram_still_splits() {
        let h = skewed_hist();
        assert!(FreqDict::build(&h).partition_count() > 1);
        // Rows in histogram order, hot and cold mixed in every stride.
        let mut rows: Vec<u64> = Vec::new();
        for (v, c) in h.by_frequency() {
            rows.extend(std::iter::repeat_n(v, c as usize));
        }
        let rows: Vec<u64> = (0..rows.len()).map(|i| rows[i * 7919 % rows.len()]).collect();
        let (hist, ids) = Histogram::with_ids(rows.iter().map(Some));
        assert!(FreqDict::build_strided(&hist, &ids, 1024).0.partition_count() > 1);
    }

    #[test]
    fn clustered_strides_keep_a_split_without_paying_selectors() {
        // 1500 equally frequent values, 200 rows each in value order: a
        // split shortens codes, and almost no stride crosses a boundary.
        let rows: Vec<u64> = (0..300_000u64).map(|i| i / 200).collect();
        let (hist, ids) = Histogram::with_ids(rows.iter().map(Some));
        let dict = FreqDict::build_strided(&hist, &ids, 1024).0;
        assert!(dict.partition_count() > 1);
        // Each value's rank is its value, so a boundary falls between
        // strides exactly when the partition changes inside none of them.
        let crossing = rows
            .chunks(1024)
            .filter(|c| encode(&dict, &c[0]).unwrap().0 != encode(&dict, c.last().unwrap()).unwrap().0)
            .count();
        assert!(crossing < dict.partition_count(), "{crossing} strides cross a boundary");
        // Charged on every row instead, the same histogram keeps fewer
        // partitions or the same ones.
        assert!(FreqDict::build(&hist).partition_count() <= dict.partition_count());
    }

    #[test]
    fn ties_go_to_fewer_partitions() {
        // 23 equally frequent values, selectors charged on every row: one
        // partition of 5-bit codes, and three of 3-bit codes under 2-bit
        // selectors, both cost 115 bits per 23 rows.
        let (hist, _) = uniform_hist(23, 23 * 40);
        assert_eq!(FreqDict::build(&hist).partition_count(), 1);
        // Two values in separate strides split for free: 0-bit codes and
        // no selectors beat one partition of 1-bit codes.
        let rows: Vec<u64> = (0..4096u64).map(|i| i / 2048).collect();
        let (hist, ids) = Histogram::with_ids(rows.iter().map(Some));
        assert_eq!(FreqDict::build_strided(&hist, &ids, 1024).0.partition_count(), 2);
    }

    #[test]
    fn hot_values_get_short_codes() {
        let dict = FreqDict::build(&skewed_hist());
        let (p_hot, _) = encode(&dict, &100).unwrap();
        let (p_cold, _) = encode(&dict, &1250).unwrap();
        assert!(p_hot < p_cold, "hot value must be in an earlier partition");
        let hot_width = dict.width(p_hot as usize);
        let cold_width = dict.width(p_cold as usize);
        assert!(
            hot_width < cold_width,
            "hot width {hot_width} !< cold width {cold_width}"
        );
        assert!(hot_width <= 2, "two hot values should need <= 2 bits (got {hot_width})");
    }

    #[test]
    fn order_preserving_within_partition() {
        let dict = FreqDict::build(&skewed_hist());
        for p in 0..dict.partition_count() {
            for w in dict.partition(p).windows(2) {
                assert!(w[0] < w[1], "partition values must be sorted");
            }
        }
        // Codes within a partition compare like values.
        let (p1, c1) = encode(&dict, &1000).unwrap();
        let (p2, c2) = encode(&dict, &1499).unwrap();
        if p1 == p2 {
            assert!(c1 < c2);
        }
    }

    #[test]
    fn roundtrip_all_values() {
        let h = skewed_hist();
        let dict = FreqDict::build(&h);
        for (v, _) in h.by_frequency() {
            let (p, c) = encode(&dict, &v).unwrap();
            assert_eq!(*dict.decode(p, c), v);
        }
        assert_eq!(encode(&dict, &999_999), None);
    }

    #[test]
    fn code_bounds_semantics() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50] {
            h.add(&v);
        }
        let dict = FreqDict::build(&h);
        // Sum qualifying codes across partitions for a value range.
        let qualifying = |lo: Option<u64>, hi: Option<u64>| -> u64 {
            (0..dict.partition_count())
                .filter_map(|p| dict.code_bounds(p, lo.as_ref(), hi.as_ref()))
                .map(|(a, b)| b - a + 1)
                .sum()
        };
        assert_eq!(qualifying(None, None), 5);
        assert_eq!(qualifying(Some(20), Some(40)), 3); // 20, 30, 40
        assert_eq!(qualifying(Some(55), None), 0);
        assert_eq!(qualifying(Some(15), Some(19)), 0);
        // Bounds between values (25..=35) qualify only 30.
        assert_eq!(qualifying(Some(25), Some(35)), 1);
    }

    #[test]
    fn empty_histogram() {
        let h: Histogram<u64> = Histogram::new();
        let dict = FreqDict::build(&h);
        assert!(dict.is_empty());
        assert_eq!(encode(&dict, &1), None);
    }

    #[test]
    fn single_value_zero_width() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.add(&7u64);
        }
        let dict = FreqDict::build(&h);
        assert_eq!(dict.partition_count(), 1);
        assert_eq!(dict.width(0), 0, "single value needs 0 bits");
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(values in prop::collection::vec(0u64..1000, 1..400)) {
            let h = Histogram::from_values(values.iter().map(Some));
            let dict = FreqDict::build(&h);
            for v in &values {
                let (p, c) = encode(&dict, v).expect("value present");
                prop_assert_eq!(dict.decode(p, c), v);
            }
        }

        #[test]
        fn prop_code_bounds_sound_and_complete(
            values in prop::collection::vec(0u64..200, 1..300),
            lo in 0u64..200,
            span in 0u64..100,
        ) {
            let hi = lo + span;
            let h = Histogram::from_values(values.iter().map(Some));
            let dict = FreqDict::build(&h);
            for v in &values {
                let (p, c) = encode(&dict, v).unwrap();
                let in_range = *v >= lo && *v <= hi;
                let bounds = dict.code_bounds(p as usize, Some(&lo), Some(&hi));
                let qualifies = bounds.is_some_and(|(a, b)| c >= a && c <= b);
                prop_assert_eq!(in_range, qualifies, "value {} range [{},{}]", v, lo, hi);
            }
        }
    }
}
