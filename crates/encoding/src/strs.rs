//! String columns as codes into a shared pool of values.
//!
//! A string column is a `u32` code per row ([`NULL_CODE`] for NULL) into a
//! [`StrPool`] it shares by `Arc`. A pool is a column's string
//! [`FreqDict`] — the very dictionary its encoding holds, whose flat codes
//! number its values — followed by *local* values, none of which the
//! dictionary holds: a stride's exceptions, open-stride values, computed
//! strings.
//!
//! Code `c` below the dictionary's length names its flat entry, in every
//! pool over that dictionary: that flat code is the value's key word, so
//! scans, joins and grouping on one dictionary's values compare and hash
//! codes, never bytes. A local value's word is [`MISS_WORD`] and its
//! callers fall back to the string. Moving a column copies codes; a column
//! joining another of a different pool is re-coded once per distinct
//! (pool, code), never per row by string hash. An `Arc<str>` is handed out
//! only at the edges, where a [`dash_common::Datum`] is made.

use crate::dict::FreqDict;
use dash_common::fxhash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// The code a NULL holds.
pub const NULL_CODE: u32 = u32::MAX;

/// The key word of a value outside its pool's dictionary.
pub const MISS_WORD: u64 = u64::MAX;

/// A string column's dictionary, shared by its encoding and its pools.
pub type SharedDict = Arc<FreqDict<Arc<str>>>;

/// The values string codes index: a dictionary's, then local ones.
#[derive(Debug, Clone)]
pub struct StrPool {
    dict: SharedDict,
    /// `dict.len()`, kept beside it for the hot code → value branch.
    dict_len: u32,
    /// Codes `dict_len..`: values the dictionary does not hold.
    local: Vec<Arc<str>>,
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
        StrPool { dict_len: dict.len() as u32, dict, local: Vec::new() }
    }

    /// [`StrPool::of_dict`], shared.
    pub fn for_dict(dict: SharedDict) -> Arc<StrPool> {
        Arc::new(StrPool::of_dict(dict))
    }

    /// The dictionary whose flat codes are this pool's key words.
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

    /// The key word of `code` (not [`NULL_CODE`]): its flat dictionary code,
    /// or [`MISS_WORD`] for a local value.
    #[inline]
    pub fn word(&self, code: u32) -> u64 {
        if code < self.dict_len {
            code as u64
        } else {
            MISS_WORD
        }
    }

    /// The code of `s`: its dictionary code, else a new local one.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        match self.dict.code_of(&**s) {
            Some(code) => code,
            None => {
                self.local.push(s.clone());
                let code = self.dict_len as usize + self.local.len() - 1;
                debug_assert!(code < NULL_CODE as usize, "string pool overflows its codes");
                code as u32
            }
        }
    }

    /// Add `s`, which the dictionary does not hold, as a local value.
    pub(crate) fn push_local(&mut self, s: Arc<str>) {
        debug_assert!(self.dict.code_of(&*s).is_none(), "a local value is outside the dictionary");
        self.local.push(s);
    }

    /// Rough heap bytes of the local values.
    pub fn local_bytes(&self) -> u64 {
        self.local.iter().map(|s| 16 + s.len() as u64).sum()
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

    /// The codes and the pool, for a decoder appending codes.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<u32>, &mut Arc<StrPool>) {
        (&mut self.codes, &mut self.pool)
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
        let code = match v {
            None => NULL_CODE,
            Some(s) => Arc::make_mut(&mut self.pool).intern(s),
        };
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
        } else if self.share(&src) {
            self.codes.extend_from_slice(&src.codes);
        } else {
            let mut recode = Recode::new(&self.pool, &src.pool);
            let pool = Arc::make_mut(&mut self.pool);
            self.codes.extend(src.codes.iter().map(|&c| recode.code(pool, &src.pool, c)));
        }
    }

    /// The code of `s` in this column's pool, added to it if need be; no
    /// row is added.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        Arc::make_mut(&mut self.pool).intern(s)
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
        self.codes[i] = if same { code } else { Arc::make_mut(&mut self.pool).intern(pool.arc(code)) };
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
        assert_eq!(c.pool().word(c.codes()[0]), c.codes()[0] as u64);
        assert_eq!(c.pool().word(c.codes()[2]), MISS_WORD);
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
        assert_eq!(joined.pool().len(), 2 + 3, "`y` is interned once, `x` once more");
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
}
