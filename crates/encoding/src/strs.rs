//! String columns as codes into a shared pool of values.
//!
//! A string column is a `u32` code per row ([`NULL_CODE`] for NULL) into a
//! [`StrPool`] it shares by `Arc`. A pool is a column's string
//! [`FreqDict`] — the very dictionary its encoding holds, whose flat codes
//! number its values — followed by *local* values, none of which the
//! dictionary holds: a stride's exceptions, open-stride values, computed
//! strings.
//!
//! A pool holds each value at most once, so within one pool a code *is*
//! the value's identity: joins and grouping key on codes, never bytes, and
//! a pool costs one entry per distinct value whatever the rows. Code `c`
//! below the dictionary's length names its flat entry in every pool over
//! that dictionary. Moving a column copies codes; a column joining another
//! of a different pool is re-coded once per distinct (pool, code), never
//! per row by string hash. An `Arc<str>` is handed out only at the edges,
//! where a [`dash_common::Datum`] is made.

use crate::dict::FreqDict;
use dash_common::fxhash::FxHashMap;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// The code a NULL holds.
pub const NULL_CODE: u32 = u32::MAX;

/// A string column's dictionary, shared by its encoding and its pools.
pub type SharedDict = Arc<FreqDict<Arc<str>>>;

/// The values string codes index: a dictionary's, then local ones, each
/// value once.
#[derive(Debug, Clone)]
pub struct StrPool {
    dict: SharedDict,
    /// `dict.len()`, kept beside it for the hot code → value branch.
    dict_len: u32,
    /// Codes `dict_len..`: values the dictionary does not hold.
    local: Vec<Arc<str>>,
    /// The code of each local value past the first, which is kept out of
    /// the map so a one-value pool (a single-row INSERT's) allocates none.
    local_codes: FxHashMap<Arc<str>, u32>,
}

/// The dictionary of a pool that has none.
fn no_dict() -> &'static SharedDict {
    static NONE: OnceLock<SharedDict> = OnceLock::new();
    NONE.get_or_init(Arc::default)
}

impl Default for StrPool {
    fn default() -> StrPool {
        StrPool::of_dict(no_dict().clone())
    }
}

impl StrPool {
    /// A pool holding `dict`'s values and nothing else yet.
    pub fn of_dict(dict: SharedDict) -> StrPool {
        StrPool { dict_len: dict.len() as u32, dict, local: Vec::new(), local_codes: FxHashMap::default() }
    }

    /// [`StrPool::of_dict`], shared.
    pub fn for_dict(dict: SharedDict) -> Arc<StrPool> {
        Arc::new(StrPool::of_dict(dict))
    }

    /// The dictionary whose flat codes are this pool's first codes.
    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// Whether the two pools share a dictionary, so a code below its length
    /// names the same value in both.
    #[inline]
    pub fn same_domain(&self, other: &StrPool) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        self.dict_len as usize + self.local.len()
    }

    /// True if the pool holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the pool holds values past its dictionary's.
    pub fn has_local(&self) -> bool {
        !self.local.is_empty()
    }

    /// The value of `code` (not [`NULL_CODE`]).
    #[inline]
    pub fn arc(&self, code: u32) -> &Arc<str> {
        if code < self.dict_len {
            self.dict.value(code)
        } else {
            &self.local[(code - self.dict_len) as usize]
        }
    }

    /// The value of `code` (not [`NULL_CODE`]).
    #[inline]
    pub fn value(&self, code: u32) -> &str {
        self.arc(code)
    }

    /// The code of `s`, if the pool holds it.
    #[inline]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        match (self.dict.code_of(s), self.local.first()) {
            (None, Some(first)) if **first == *s => Some(self.dict_len),
            (None, Some(_)) => self.local_codes.get(s).copied(),
            (code, _) => code,
        }
    }

    /// The code of `s`: the one it has, else a new local one.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        self.code_of(s).unwrap_or_else(|| self.add(s))
    }

    /// Add `s`, which the pool does not hold, as a local value.
    fn add(&mut self, s: &Arc<str>) -> u32 {
        debug_assert!(self.code_of(s).is_none(), "a pool holds a value once");
        let code = self.len();
        debug_assert!(code < NULL_CODE as usize, "string pool overflows its codes");
        if self.has_local() {
            self.local_codes.insert(s.clone(), code as u32);
        }
        self.local.push(s.clone());
        code as u32
    }

    /// Rough heap bytes of the local values and their lookup.
    pub fn local_bytes(&self) -> u64 {
        let lookup = self.local_codes.capacity() * (std::mem::size_of::<(Arc<str>, u32)>() + 1);
        self.local.iter().map(|s| 16 + s.len() as u64).sum::<u64>() + lookup as u64
    }
}

/// The shared pool of columns that hold no value yet.
fn empty_pool() -> Arc<StrPool> {
    static EMPTY: OnceLock<Arc<StrPool>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(StrPool::default())).clone()
}

/// One string column: a code per row into a shared pool.
#[derive(Clone)]
pub struct StrColumn {
    codes: Vec<u32>,
    pool: Arc<StrPool>,
}

impl Default for StrColumn {
    fn default() -> StrColumn {
        StrColumn::new()
    }
}

impl PartialEq for StrColumn {
    /// Equal values, whatever the pools and codes.
    fn eq(&self, other: &StrColumn) -> bool {
        let same_pool = Arc::ptr_eq(&self.pool, &other.pool);
        self.len() == other.len()
            && (0..self.len()).all(|i| (same_pool && self.codes[i] == other.codes[i]) || self.get(i) == other.get(i))
    }
}

impl std::fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl StrColumn {
    /// An empty column.
    pub fn new() -> StrColumn {
        StrColumn { codes: Vec::new(), pool: empty_pool() }
    }

    /// An empty column whose values will be codes of `pool`.
    pub fn with_pool(pool: Arc<StrPool>) -> StrColumn {
        StrColumn { codes: Vec::new(), pool }
    }

    /// A column of `codes` into `pool`.
    pub fn from_parts(codes: Vec<u32>, pool: Arc<StrPool>) -> StrColumn {
        debug_assert!(codes.iter().all(|&c| c == NULL_CODE || (c as usize) < pool.len()));
        StrColumn { codes, pool }
    }

    /// A column of `values`, local to a pool of its own.
    pub fn from_values<'a>(values: impl IntoIterator<Item = Option<&'a str>>) -> StrColumn {
        let mut out = StrColumn::new();
        for v in values {
            out.push(v.map(Arc::from).as_ref());
        }
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Each row's code.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The pool the codes index.
    pub fn pool(&self) -> &Arc<StrPool> {
        &self.pool
    }

    /// The codes, for a decoder appending codes of this pool.
    pub(crate) fn codes_mut(&mut self) -> &mut Vec<u32> {
        &mut self.codes
    }

    /// Row `i`'s value, `None` for NULL.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        self.arc(i).map(|s| &**s)
    }

    /// Row `i`'s value as the pool's `Arc`, `None` for NULL — for the edges
    /// that hand a value on.
    #[inline]
    pub fn arc(&self, i: usize) -> Option<&Arc<str>> {
        match self.codes[i] {
            NULL_CODE => None,
            code => Some(self.pool.arc(code)),
        }
    }

    /// Every row's value.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every row's value as the pool's `Arc`.
    pub fn arcs(&self) -> impl Iterator<Item = Option<&Arc<str>>> + '_ {
        (0..self.len()).map(|i| self.arc(i))
    }

    /// Whether some row is NULL.
    pub fn has_null(&self) -> bool {
        self.codes.contains(&NULL_CODE)
    }

    /// Append a value.
    pub fn push(&mut self, v: Option<&Arc<str>>) {
        let code = v.map_or(NULL_CODE, |s| self.intern(s));
        self.codes.push(code);
    }

    /// Grow to `n` rows, new ones NULL.
    pub fn resize_null(&mut self, n: usize) {
        self.codes.resize(n, NULL_CODE);
    }

    /// The rows at `positions`, in that order, sharing this pool.
    pub fn take(&self, positions: &[usize]) -> StrColumn {
        let codes = positions.iter().map(|&p| self.codes[p]).collect();
        StrColumn { codes, pool: self.pool.clone() }
    }

    /// The rows at `rows`, sharing this pool.
    pub fn slice(&self, rows: std::ops::Range<usize>) -> StrColumn {
        StrColumn { codes: self.codes[rows].to_vec(), pool: self.pool.clone() }
    }

    /// Make `src`'s codes mean the same values in this column's pool where
    /// that costs no string: one pool, this column empty, or one dictionary
    /// with local values on at most one side (this column then takes the
    /// pool that has them). False when `src` must be re-coded.
    fn share(&mut self, src: &StrColumn) -> bool {
        if Arc::ptr_eq(&self.pool, &src.pool) {
            return true;
        }
        if self.codes.is_empty() {
            self.pool = src.pool.clone();
            return true;
        }
        if self.pool.same_domain(&src.pool) {
            if !src.pool.has_local() {
                return true;
            }
            if !self.pool.has_local() {
                self.pool = src.pool.clone();
                return true;
            }
        }
        false
    }

    /// Append the values at `positions` of `src`.
    pub fn append_selected(&mut self, src: &StrColumn, positions: &[usize]) {
        if self.share(src) {
            self.codes.extend(positions.iter().map(|&p| src.codes[p]));
            return;
        }
        let mut recode = Recode::new(&self.pool, &src.pool);
        let pool = Arc::make_mut(&mut self.pool);
        self.codes.extend(positions.iter().map(|&p| recode.code(pool, &src.pool, src.codes[p])));
    }

    /// Append every value of `src`; an empty column takes `src` whole.
    pub fn extend_from(&mut self, src: StrColumn) {
        if self.codes.is_empty() {
            *self = src;
        } else {
            let codes = self.codes_of(&src);
            self.codes.extend_from_slice(&codes);
        }
    }

    /// The code of `s` in this column's pool, added to it if need be (a
    /// shared pool is copied only then); no row is added.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        match self.pool.code_of(s) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.pool).add(s),
        }
    }

    /// `src`'s codes as codes of the same values in this column's pool,
    /// the values it lacks added to it; no row is added. They are the codes
    /// appending `src`'s rows would append.
    pub fn codes_of<'s>(&mut self, src: &'s StrColumn) -> Cow<'s, [u32]> {
        if self.share(src) {
            return Cow::Borrowed(&src.codes);
        }
        let mut recode = Recode::new(&self.pool, &src.pool);
        let pool = Arc::make_mut(&mut self.pool);
        Cow::Owned(src.codes.iter().map(|&c| recode.code(pool, &src.pool, c)).collect())
    }

    /// Set row `i` to `code` of this column's pool.
    pub fn set(&mut self, i: usize, code: u32) {
        debug_assert!(code == NULL_CODE || (code as usize) < self.pool.len());
        self.codes[i] = code;
    }

    /// Set row `i` to `code` of `pool`: the code itself when it means the
    /// same value here, else the value interned into this column's pool.
    pub fn set_code(&mut self, i: usize, pool: &Arc<StrPool>, code: u32) {
        let same = code == NULL_CODE
            || Arc::ptr_eq(&self.pool, pool)
            || (self.pool.same_domain(pool) && code < pool.dict_len);
        self.codes[i] = if same { code } else { self.intern(pool.arc(code)) };
    }

    /// The codes and the pool, moved out.
    pub fn into_parts(self) -> (Vec<u32>, Arc<StrPool>) {
        (self.codes, self.pool)
    }

    /// This column's values as codes of a fresh pool over `dict`, holding
    /// only the values the rows use.
    pub fn repool(&self, dict: SharedDict) -> StrColumn {
        let mut out = StrColumn::with_pool(Arc::new(StrPool::of_dict(dict)));
        out.codes.reserve(self.len());
        let mut recode = Recode::new(&out.pool, &self.pool);
        let pool = Arc::make_mut(&mut out.pool);
        out.codes.extend(self.codes.iter().map(|&c| recode.code(pool, &self.pool, c)));
        out
    }
}

/// Re-codes one source pool's codes into a destination pool, each distinct
/// source code once.
struct Recode {
    /// A dictionary code means the same value in both pools.
    same_domain: bool,
    /// The first code re-coded, kept out of `memo` so a one-row source (a
    /// single-row INSERT) allocates no map.
    first: Option<(u32, u32)>,
    memo: FxHashMap<u32, u32>,
}

impl Recode {
    fn new(dst: &StrPool, src: &StrPool) -> Recode {
        Recode { same_domain: dst.same_domain(src), first: None, memo: FxHashMap::default() }
    }

    #[inline]
    fn code(&mut self, dst: &mut StrPool, src: &StrPool, code: u32) -> u32 {
        if code == NULL_CODE || (self.same_domain && code < src.dict_len) {
            return code;
        }
        match self.first {
            None => {
                let ours = dst.intern(src.arc(code));
                self.first = Some((code, ours));
                ours
            }
            Some((theirs, ours)) if theirs == code => ours,
            Some(_) => *self.memo.entry(code).or_insert_with(|| dst.intern(src.arc(code))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use proptest::prelude::*;

    fn dict(values: &[&str]) -> SharedDict {
        let arcs: Vec<Arc<str>> = values.iter().map(|&s| Arc::from(s)).collect();
        Arc::new(FreqDict::build(&Histogram::from_values(arcs.iter().map(Some))))
    }

    fn column(pool: &Arc<StrPool>, values: &[Option<&str>]) -> StrColumn {
        let mut c = StrColumn::with_pool(pool.clone());
        for v in values {
            c.push(v.map(Arc::from).as_ref());
        }
        c
    }

    #[test]
    fn dictionary_values_take_flat_codes_and_others_local_ones() {
        let d = dict(&["a", "b", "c"]);
        let pool = Arc::new(StrPool::of_dict(d.clone()));
        let c = column(&pool, &[Some("b"), None, Some("zz"), Some("b"), Some("")]);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![Some("b"), None, Some("zz"), Some("b"), Some("")]);
        assert!(c.codes()[0] < 3 && c.codes()[0] == c.codes()[3]);
        assert_eq!(c.codes()[1], NULL_CODE);
        assert_eq!(c.pool().code_of("b"), Some(c.codes()[0]));
        assert!(c.codes()[2] >= 3 && c.codes()[4] >= 3, "values outside the dictionary are local");
        assert!(!Arc::ptr_eq(c.pool(), &pool), "a local value gets the column a pool of its own");
        assert!(c.pool().same_domain(&pool));
    }

    #[test]
    fn moves_share_pools_or_recode_once_per_code() {
        let d = dict(&["a", "b"]);
        let shared = Arc::new(StrPool::of_dict(d.clone()));
        let plain = column(&shared, &[Some("a"), Some("b"), None]);
        let with_local = column(&shared, &[Some("x"), Some("a")]);
        // A dictionary-only column joins one with locals without re-coding.
        let mut joined = plain.clone();
        joined.extend_from(with_local.clone());
        assert!(Arc::ptr_eq(joined.pool(), with_local.pool()));
        assert_eq!(joined.iter().collect::<Vec<_>>(), vec![Some("a"), Some("b"), None, Some("x"), Some("a")]);
        // Two columns with locals of their own re-code the second's locals.
        let other = column(&shared, &[Some("y"), Some("x")]);
        joined.append_selected(&other, &[1, 0, 0]);
        assert_eq!(joined.len(), 8);
        assert_eq!(&joined.iter().skip(5).collect::<Vec<_>>(), &[Some("x"), Some("y"), Some("y")]);
        assert_eq!(joined.pool().len(), 2 + 2, "`y` is interned once, `x` is there already");
        // A different dictionary: values re-code into this one's codes.
        let foreign = column(&Arc::new(StrPool::of_dict(dict(&["b", "q"]))), &[Some("b"), Some("q")]);
        let mut mixed = plain.clone();
        mixed.extend_from(foreign);
        assert_eq!(mixed.codes()[3], mixed.codes()[1], "`b` is the dictionary's code here too");
        assert_eq!(mixed.get(4), Some("q"));
        assert_eq!(plain.take(&[1, 1]).codes(), &[plain.codes()[1]; 2]);
        assert_eq!(plain.slice(1..3), column(&shared, &[Some("b"), None]));
    }

    #[test]
    fn repool_keeps_values_and_only_the_used_locals() {
        let d = dict(&["a"]);
        let c = column(&Arc::new(StrPool::default()), &[Some("a"), Some("q"), None, Some("a")]);
        let tail = c.slice(2..4).repool(d.clone());
        assert_eq!(tail.iter().collect::<Vec<_>>(), vec![None, Some("a")]);
        assert!(!tail.pool().has_local());
        assert!(Arc::ptr_eq(tail.pool().dict(), &d));
    }

    /// The values the property test draws from: `''`, shared 8-byte
    /// prefixes, and values some dictionaries hold and some do not.
    const VALUES: [&str; 8] = ["", "abcdefgh", "abcdefgh-1", "abcdefgh-2", "a", "b", "q", "zz"];

    /// Each code of `pool` names a different value, and `code_of` finds it.
    fn assert_each_value_once(pool: &StrPool) {
        let mut seen = std::collections::HashSet::new();
        for code in 0..pool.len() as u32 {
            assert!(seen.insert(pool.value(code).to_string()), "{:?} has two codes", pool.value(code));
            assert_eq!(pool.code_of(pool.value(code)), Some(code));
        }
    }

    proptest! {
        /// Any sequence of moves over columns of pools with and without a
        /// dictionary leaves every pool holding each value once, and every
        /// column reading back what was put in.
        #[test]
        fn prop_a_pool_holds_each_value_once(
            ops in prop::collection::vec((0u8..7, 0usize..3, 0usize..3, 0usize..=VALUES.len(), any::<u16>()), 0..40),
        ) {
            let dicts = [no_dict().clone(), dict(&["a", "b", "abcdefgh"]), dict(&["b", "q", "", "abcdefgh-1"])];
            let value = |v: usize| VALUES.get(v).map(|&s| Arc::<str>::from(s));
            let mut cols: Vec<StrColumn> = dicts.iter().map(|d| StrColumn::with_pool(StrPool::for_dict(d.clone()))).collect();
            let mut model: Vec<Vec<Option<Arc<str>>>> = vec![Vec::new(); 3];
            for (op, a, b, v, pick) in ops {
                let pick = pick as usize;
                match op {
                    0 => {
                        cols[a].push(value(v).as_ref());
                        model[a].push(value(v));
                    }
                    1 => {
                        if let Some(s) = value(v) {
                            let code = cols[a].intern(&s);
                            prop_assert_eq!(cols[a].pool().value(code), &*s);
                        }
                    }
                    2 => {
                        let src = cols[b].clone();
                        cols[a].extend_from(src);
                        let src = model[b].clone();
                        model[a].extend(src);
                    }
                    3 if !cols[b].is_empty() => {
                        let at: Vec<usize> = (0..1 + pick % 5).map(|k| (pick + 7 * k) % cols[b].len()).collect();
                        let src = cols[b].clone();
                        cols[a].append_selected(&src, &at);
                        let picked: Vec<_> = at.iter().map(|&i| model[b][i].clone()).collect();
                        model[a].extend(picked);
                    }
                    4 if !cols[a].is_empty() && !cols[b].is_empty() => {
                        let (i, j) = (pick % cols[a].len(), (pick / 3) % cols[b].len());
                        let (pool, code) = (cols[b].pool().clone(), cols[b].codes()[j]);
                        cols[a].set_code(i, &pool, code);
                        model[a][i] = model[b][j].clone();
                    }
                    5 => cols[a] = cols[a].repool(dicts[b].clone()),
                    6 => {
                        let src = cols[b].clone();
                        let codes = cols[a].codes_of(&src).into_owned();
                        for (&code, want) in codes.iter().zip(&model[b]) {
                            prop_assert_eq!(code == NULL_CODE, want.is_none());
                            if let Some(want) = want {
                                prop_assert_eq!(cols[a].pool().value(code), &**want);
                            }
                        }
                    }
                    _ => {}
                }
                for (c, m) in cols.iter().zip(&model) {
                    assert_each_value_once(c.pool());
                    prop_assert_eq!(c.iter().collect::<Vec<_>>(), m.iter().map(|v| v.as_deref()).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn from_values_pools_each_distinct_value_once() {
        let values: Vec<String> = (0..3000).map(|i| format!("v{}", i % 23)).collect();
        let c = StrColumn::from_values(values.iter().map(|s| Some(s.as_str())));
        assert_eq!(c.pool().len(), 23);
        let mut x = StrColumn::from_values([Some("x"), Some("y")]);
        x.extend_from(StrColumn::from_values([Some("x"), Some("x")]));
        assert_eq!(x.codes(), &[0, 1, 0, 0]);
    }
}
