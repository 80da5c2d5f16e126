//! A from-scratch B+tree.
//!
//! Classic order-`B` B+tree with all values in the leaves and a linked
//! leaf level for range scans — the index structure behind the row-store
//! baseline's secondary indexes. Deliberately implemented rather than
//! borrowed from `std::collections::BTreeMap` so the baseline's page
//! accounting can count *index node* accesses the way a disk-based engine
//! would.

/// Maximum keys per node (order). 64 keys ≈ a few hundred bytes per node,
/// giving realistic fan-out/height for the page-access model.
pub const ORDER: usize = 64;

#[derive(Debug, Clone)]
enum Node<K, V> {
    // Boxed children keep split/merge moves at pointer size instead of
    // moving whole nodes inside the parent vector.
    #[allow(clippy::vec_box)]
    Internal {
        /// `keys[i]` separates `children[i]` (< key) from `children[i+1]`.
        keys: Vec<K>,
        children: Vec<Box<Node<K, V>>>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
    },
}

/// A B+tree from `K` to `V`. Duplicate keys are not allowed at this layer;
/// secondary indexes store `V = Vec<Rid>` for duplicates.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Box<Node<K, V>>,
    len: usize,
    height: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        BPlusTree::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Empty tree.
    pub fn new() -> BPlusTree<K, V> {
        BPlusTree {
            root: Box::new(Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
            }),
            len: 0,
            height: 1,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (leaf = 1). Each lookup touches `height` nodes — the
    /// number the page-access model charges.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Approximate node count (for index size accounting).
    pub fn node_count(&self) -> usize {
        fn count<K, V>(n: &Node<K, V>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Internal { children, .. } => {
                    1 + children.iter().map(|c| count(c)).sum::<usize>()
                }
            }
        }
        count(&self.root)
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = &*self.root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    node = &children[idx];
                }
                Node::Leaf { keys, values } => {
                    return keys.binary_search(key).ok().map(|i| &values[i]);
                }
            }
        }
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut node = &mut *self.root;
        loop {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    node = &mut children[idx];
                }
                Node::Leaf { keys, values } => {
                    return match keys.binary_search(key) {
                        Ok(i) => Some(&mut values[i]),
                        Err(_) => None,
                    };
                }
            }
        }
    }

    /// Insert a key/value. Returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match insert_rec(&mut self.root, key, value) {
            InsertResult::Replaced(v) => Some(v),
            InsertResult::Inserted => {
                self.len += 1;
                None
            }
            InsertResult::Split(sep, right) => {
                self.len += 1;
                // Grow a new root.
                let old_root = std::mem::replace(
                    &mut self.root,
                    Box::new(Node::Leaf {
                        keys: Vec::new(),
                        values: Vec::new(),
                    }),
                );
                *self.root = Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                };
                self.height += 1;
                None
            }
        }
    }

    /// Remove a key, returning its value. (Leaves may underflow — this
    /// index is rebuild-on-load in the baseline, so no rebalancing on
    /// delete; lookups remain correct.)
    pub fn remove(&mut self, key: &K) -> Option<V> {
        fn remove_rec<K: Ord, V>(node: &mut Node<K, V>, key: &K) -> Option<V> {
            match node {
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k <= key);
                    remove_rec(&mut children[idx], key)
                }
                Node::Leaf { keys, values } => match keys.binary_search(key) {
                    Ok(i) => {
                        keys.remove(i);
                        Some(values.remove(i))
                    }
                    Err(_) => None,
                },
            }
        }
        let out = remove_rec(&mut self.root, key);
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Iterate `(key, value)` pairs with keys in `[lo, hi]` (inclusive,
    /// either bound optional), in key order.
    pub fn range<'a>(
        &'a self,
        lo: Option<&K>,
        hi: Option<&K>,
    ) -> impl Iterator<Item = (&'a K, &'a V)> + 'a
    where
        V: 'a,
        K: 'a,
    {
        let mut out: Vec<(&K, &V)> = Vec::new();
        collect_range(&self.root, lo, hi, &mut out);
        out.into_iter()
    }

    /// Full in-order iteration.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.range(None, None)
    }
}

enum InsertResult<K, V> {
    Inserted,
    Replaced(V),
    Split(K, Box<Node<K, V>>),
}

fn insert_rec<K: Ord + Clone, V>(node: &mut Node<K, V>, key: K, value: V) -> InsertResult<K, V> {
    match node {
        Node::Leaf { keys, values } => match keys.binary_search(&key) {
            Ok(i) => InsertResult::Replaced(std::mem::replace(&mut values[i], value)),
            Err(i) => {
                keys.insert(i, key);
                values.insert(i, value);
                if keys.len() > ORDER {
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_vals = values.split_off(mid);
                    let sep = right_keys[0].clone();
                    InsertResult::Split(
                        sep,
                        Box::new(Node::Leaf {
                            keys: right_keys,
                            values: right_vals,
                        }),
                    )
                } else {
                    InsertResult::Inserted
                }
            }
        },
        Node::Internal { keys, children } => {
            let idx = keys.partition_point(|k| *k <= key);
            match insert_rec(&mut children[idx], key, value) {
                InsertResult::Split(sep, right) => {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > ORDER {
                        let mid = keys.len() / 2;
                        // keys[mid] moves up; right node gets keys after it.
                        let right_keys = keys.split_off(mid + 1);
                        let sep_up = keys.pop().expect("nonempty after split_off");
                        let right_children = children.split_off(mid + 1);
                        InsertResult::Split(
                            sep_up,
                            Box::new(Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            }),
                        )
                    } else {
                        InsertResult::Inserted
                    }
                }
                other => other,
            }
        }
    }
}

fn collect_range<'a, K: Ord, V>(
    node: &'a Node<K, V>,
    lo: Option<&K>,
    hi: Option<&K>,
    out: &mut Vec<(&'a K, &'a V)>,
) {
    match node {
        Node::Leaf { keys, values } => {
            let start = match lo {
                Some(lo) => keys.partition_point(|k| k < lo),
                None => 0,
            };
            for i in start..keys.len() {
                if let Some(hi) = hi {
                    if &keys[i] > hi {
                        break;
                    }
                }
                out.push((&keys[i], &values[i]));
            }
        }
        Node::Internal { keys, children } => {
            let start = match lo {
                Some(lo) => keys.partition_point(|k| k < lo),
                None => 0,
            };
            let end = match hi {
                Some(hi) => keys.partition_point(|k| k <= hi),
                None => keys.len(),
            };
            if start > end {
                // lo > hi: the range is empty.
                return;
            }
            for child in &children[start..=end] {
                collect_range(child, lo, hi, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_many() {
        let mut t = BPlusTree::new();
        for i in 0..10_000i64 {
            let k = (i * 7919) % 10_000;
            t.insert(k, k * 2);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000i64 {
            assert_eq!(t.get(&i), Some(&(i * 2)), "key {i}");
        }
        assert_eq!(t.get(&-1), None);
        assert!(t.height() > 1, "10k keys must split");
    }

    #[test]
    fn replace_keeps_len() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn range_scans() {
        let mut t = BPlusTree::new();
        for i in (0..1000i64).rev() {
            t.insert(i, i);
        }
        let v: Vec<i64> = t.range(Some(&100), Some(&110)).map(|(k, _)| *k).collect();
        assert_eq!(v, (100..=110).collect::<Vec<_>>());
        let v: Vec<i64> = t.range(None, Some(&2)).map(|(k, _)| *k).collect();
        assert_eq!(v, vec![0, 1, 2]);
        let v: Vec<i64> = t.range(Some(&998), None).map(|(k, _)| *k).collect();
        assert_eq!(v, vec![998, 999]);
        assert_eq!(t.iter().count(), 1000);
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut t = BPlusTree::new();
        for i in 0..1000i64 {
            t.insert(i, i);
        }
        assert!(t.height() > 1);
        // lo > hi selects nothing, whether the bounds sit in one leaf or
        // straddle internal separators.
        assert_eq!(t.range(Some(&500), Some(&100)).count(), 0);
        assert_eq!(t.range(Some(&101), Some(&100)).count(), 0);
        assert_eq!(t.range(Some(&2000), Some(&-5)).count(), 0);
    }

    #[test]
    fn remove_works() {
        let mut t = BPlusTree::new();
        for i in 0..500i64 {
            t.insert(i, i);
        }
        for i in (0..500i64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.len(), 250);
        assert_eq!(t.get(&2), None);
        assert_eq!(t.get(&3), Some(&3));
        assert_eq!(t.remove(&2), None);
    }

    #[test]
    fn height_and_nodes_grow_logarithmically() {
        let mut t = BPlusTree::new();
        for i in 0..100_000i64 {
            t.insert(i, ());
        }
        // order 64: height should be ~ log_32(100k) + 1 ≈ 4.
        assert!(t.height() <= 5, "height {}", t.height());
        assert!(t.node_count() > 100_000 / ORDER);
    }

    proptest! {
        #[test]
        fn prop_matches_std_btreemap(ops in prop::collection::vec((any::<u16>(), any::<i32>()), 1..400)) {
            let mut ours = BPlusTree::new();
            let mut std = BTreeMap::new();
            for (k, v) in &ops {
                prop_assert_eq!(ours.insert(*k, *v), std.insert(*k, *v));
            }
            prop_assert_eq!(ours.len(), std.len());
            for (k, v) in &std {
                prop_assert_eq!(ours.get(k), Some(v));
            }
            let all_ours: Vec<(u16, i32)> = ours.iter().map(|(k, v)| (*k, *v)).collect();
            let all_std: Vec<(u16, i32)> = std.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(all_ours, all_std);
        }

        #[test]
        fn prop_range_matches_std(
            keys in prop::collection::vec(0u32..1000, 1..300),
            lo in 0u32..1000,
            span in 0u32..500,
        ) {
            let hi = lo + span;
            let mut ours = BPlusTree::new();
            let mut std = BTreeMap::new();
            for k in &keys {
                ours.insert(*k, *k);
                std.insert(*k, *k);
            }
            let a: Vec<u32> = ours.range(Some(&lo), Some(&hi)).map(|(k, _)| *k).collect();
            let b: Vec<u32> = std.range(lo..=hi).map(|(k, _)| *k).collect();
            prop_assert_eq!(a, b);
        }
    }
}
