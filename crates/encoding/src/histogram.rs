//! Column frequency analysis.
//!
//! The compressor's first step mirrors dashDB's automated statistics
//! collection: build a value histogram, measure cardinality and skew, and
//! hand the result to the dictionary builder which decides the frequency
//! partitioning.

use dash_common::fxhash::FxHashMap;
use std::hash::Hash;

/// The id [`Histogram::with_ids`] gives a NULL row.
pub const NULL_ID: u32 = u32::MAX;

/// A value histogram: distinct values with occurrence counts.
///
/// Each distinct value also gets an id, its first-sight order, which
/// [`Histogram::add`] returns so a caller can note where each row's value
/// lands in [`Histogram::ranked`] without probing the map a second time.
#[derive(Debug, Clone)]
pub struct Histogram<T> {
    /// Value -> (distinct-value id, occurrences).
    counts: FxHashMap<T, (u32, u64)>,
    total: u64,
    nulls: u64,
}

impl<T: Eq + Hash + Clone + Ord> Histogram<T> {
    /// Empty histogram.
    pub fn new() -> Histogram<T> {
        Histogram {
            counts: FxHashMap::default(),
            total: 0,
            nulls: 0,
        }
    }

    /// Build from an iterator of optional values (None = SQL NULL).
    pub fn from_values<'a, I>(values: I) -> Histogram<T>
    where
        I: IntoIterator<Item = Option<&'a T>>,
        T: 'a,
    {
        Histogram::with_ids(values).0
    }

    /// [`Histogram::from_values`], plus each value's distinct-value id in
    /// input order ([`NULL_ID`] for a NULL): the row layout
    /// [`crate::dict::FreqDict::build_strided`] charges selectors against.
    pub fn with_ids<'a, I>(values: I) -> (Histogram<T>, Vec<u32>)
    where
        I: IntoIterator<Item = Option<&'a T>>,
        T: 'a,
    {
        let mut h = Histogram::new();
        let ids = values
            .into_iter()
            .map(|v| match v {
                Some(v) => h.add(v),
                None => {
                    h.add_null();
                    NULL_ID
                }
            })
            .collect();
        (h, ids)
    }

    /// [`Histogram::with_ids`]'s histogram for values already told apart:
    /// `values[id]` occurred `count` times, ids in first-sight order, and
    /// `nulls` rows were NULL.
    pub fn from_counts(values: Vec<(T, u64)>, nulls: u64) -> Histogram<T> {
        let total = values.iter().map(|&(_, c)| c).sum();
        let counts = values.into_iter().enumerate().map(|(id, (v, c))| (v, (id as u32, c))).collect();
        Histogram { counts, total, nulls }
    }

    /// Record one occurrence of `value` and return its distinct-value id.
    /// The value is cloned only the first time it is seen.
    pub fn add(&mut self, value: &T) -> u32 {
        self.total += 1;
        if let Some((id, count)) = self.counts.get_mut(value) {
            *count += 1;
            return *id;
        }
        let id = self.counts.len() as u32;
        self.counts.insert(value.clone(), (id, 1));
        id
    }

    /// Record one NULL.
    pub fn add_null(&mut self) {
        self.nulls += 1;
    }

    /// Number of distinct non-null values.
    pub fn cardinality(&self) -> usize {
        self.counts.len()
    }

    /// Total non-null occurrences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of NULLs seen.
    pub fn nulls(&self) -> u64 {
        self.nulls
    }

    /// Distinct values sorted by descending frequency (ties broken by value
    /// order so the layout is deterministic).
    pub fn by_frequency(&self) -> Vec<(T, u64)> {
        self.ranked().0
    }

    /// [`Histogram::by_frequency`], plus each distinct-value id's rank
    /// (its index in that order), indexed by id.
    pub fn ranked(&self) -> (Vec<(T, u64)>, Vec<u32>) {
        let mut v: Vec<(T, u64, u32)> = self
            .counts
            .iter()
            .map(|(k, &(id, c))| (k.clone(), c, id))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut rank = vec![0u32; v.len()];
        for (r, &(_, _, id)) in v.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        (v.into_iter().map(|(k, c, _)| (k, c)).collect(), rank)
    }

    /// Fraction of occurrences covered by the `k` most frequent values
    /// (the skew signal the partitioner uses).
    pub fn top_k_coverage(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let by_freq = self.by_frequency();
        let covered: u64 = by_freq.iter().take(k).map(|(_, c)| c).sum();
        covered as f64 / self.total as f64
    }
}

impl<T: Eq + Hash + Clone + Ord> Default for Histogram<T> {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_nulls() {
        let vals = [Some(&1), Some(&1), Some(&2), None, Some(&1)];
        let h = Histogram::from_values(vals.iter().map(|v| v.map(|x| x)));
        assert_eq!(h.cardinality(), 2);
        assert_eq!(h.total(), 4);
        assert_eq!(h.nulls(), 1);
    }

    #[test]
    fn frequency_ordering_deterministic() {
        let data = [3, 3, 3, 1, 1, 2, 2, 5];
        let h = Histogram::from_values(data.iter().map(Some));
        let by_freq = h.by_frequency();
        assert_eq!(by_freq[0], (3, 3));
        // Ties (1 and 2, both count 2) break by value order.
        assert_eq!(by_freq[1], (1, 2));
        assert_eq!(by_freq[2], (2, 2));
        assert_eq!(by_freq[3], (5, 1));
    }

    #[test]
    fn ids_name_first_sight_and_rank_by_frequency() {
        let mut h = Histogram::new();
        let ids: Vec<u32> = [7, 3, 3, 9, 3, 7].iter().map(|v| h.add(v)).collect();
        assert_eq!(ids, [0, 1, 1, 2, 1, 0]);
        let (by_freq, rank) = h.ranked();
        assert_eq!(by_freq, [(3, 3), (7, 2), (9, 1)]);
        assert_eq!(rank, [1, 0, 2], "id 0 (7) ranks 1, id 1 (3) ranks 0");
    }

    #[test]
    fn coverage() {
        // 90 copies of one value + 10 distinct singletons: top-1 covers 0.9.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.add(&42);
        }
        for i in 0..10 {
            h.add(&(100 + i));
        }
        assert!((h.top_k_coverage(1) - 0.9).abs() < 1e-9);
        assert!((h.top_k_coverage(100) - 1.0).abs() < 1e-9);
    }
}
