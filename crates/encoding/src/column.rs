//! Column-level encoding decisions and block encode/decode.
//!
//! [`ColumnCompressor::analyze`] implements the "optimized globally per
//! column" half of the paper's compression story: it inspects a column's
//! value distribution and picks minus encoding (high-cardinality numerics)
//! or a frequency-partitioned dictionary (everything else, including all
//! strings). [`ColumnCompressor::encode_block`] then applies the page-local
//! half: per-block re-basing for minus blocks and selector elision for
//! single-partition dictionary blocks.

use crate::bitmap::Bitmap;
use crate::bitpack::BitPackedVec;
use crate::block::{gather_codes, BlockRepr, EncodedBlock, ExceptionBank};
use crate::dict::FreqDict;
use crate::histogram::{Histogram, NULL_ID};
use crate::minus::MinusBlock;
use crate::order::{f64_to_ordered, i64_to_ordered, ordered_to_f64, ordered_to_i64, str_prefix_ordered};
use crate::strs::{SharedDict, StrColumn, StrPool, NULL_CODE};
use dash_common::{DashError, DataType, Datum, Result};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Typed column values, the decoded in-memory form.
///
/// Integer-encodable types (ints, dates, timestamps, bools, decimals) all
/// live in the `Int` variant; the enclosing schema's [`DataType`] recovers
/// the logical type at the edges. Strings stay codes into a shared pool
/// ([`StrColumn`]) until an edge asks for a value.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnValues {
    /// Integer-domain values.
    Int(Vec<Option<i64>>),
    /// Floating-point values.
    Float(Vec<Option<f64>>),
    /// String values, as codes into a shared pool.
    Str(StrColumn),
}

impl ColumnValues {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Int(v) => v.len(),
            ColumnValues::Float(v) => v.len(),
            ColumnValues::Str(v) => v.len(),
        }
    }

    /// True if there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empty container matching `dt`'s domain.
    pub fn empty_for(dt: DataType) -> ColumnValues {
        ColumnValues::empty_of(value_kind(dt))
    }

    /// Empty container of the given storage domain.
    pub fn empty_of(kind: ValueKind) -> ColumnValues {
        match kind {
            ValueKind::Int => ColumnValues::Int(Vec::new()),
            ValueKind::Float => ColumnValues::Float(Vec::new()),
            ValueKind::Str => ColumnValues::Str(StrColumn::new()),
        }
    }

    /// One column of type `dt` holding `data`.
    pub fn from_datums(dt: DataType, data: &[Datum]) -> Result<ColumnValues> {
        let mut out = ColumnValues::empty_for(dt);
        for d in data {
            out.push_datum(dt, d)?;
        }
        Ok(out)
    }

    /// Convert position `i` back to a datum of logical type `dt`.
    pub fn datum_at(&self, dt: DataType, i: usize) -> Datum {
        match self {
            ColumnValues::Int(v) => match v[i] {
                None => Datum::Null,
                Some(x) => int_to_datum(dt, x),
            },
            ColumnValues::Float(v) => v[i].map_or(Datum::Null, Datum::Float),
            ColumnValues::Str(v) => v.arc(i).map_or(Datum::Null, |s| Datum::Str(s.clone())),
        }
    }

    /// Append the values at `positions` of `src` (same variant) without
    /// materializing datums — the vectorized gather used by scan
    /// materialization.
    ///
    /// # Panics
    /// Panics if the variants differ (caller guarantees same column kind).
    pub fn append_selected(&mut self, src: &ColumnValues, positions: &[usize]) {
        match (self, src) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => {
                dst.extend(positions.iter().map(|&p| s[p]));
            }
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => {
                dst.extend(positions.iter().map(|&p| s[p]));
            }
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => dst.append_selected(s, positions),
            _ => panic!("append_selected across column kinds (caller bug)"),
        }
    }

    /// A copy of the values at `rows`.
    pub fn slice(&self, rows: std::ops::Range<usize>) -> ColumnValues {
        match self {
            ColumnValues::Int(v) => ColumnValues::Int(v[rows].to_vec()),
            ColumnValues::Float(v) => ColumnValues::Float(v[rows].to_vec()),
            ColumnValues::Str(v) => ColumnValues::Str(v.slice(rows)),
        }
    }

    /// Append every value of `other` (same variant) — the stitch step that
    /// reassembles per-morsel partial columns in morsel order. When `self`
    /// is still empty the whole vector is moved, not copied.
    pub fn extend_from(&mut self, other: ColumnValues) {
        fn merge<T>(dst: &mut Vec<T>, src: Vec<T>) {
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.extend(src);
            }
        }
        match (self, other) {
            (ColumnValues::Int(dst), ColumnValues::Int(s)) => merge(dst, s),
            (ColumnValues::Float(dst), ColumnValues::Float(s)) => merge(dst, s),
            (ColumnValues::Str(dst), ColumnValues::Str(s)) => dst.extend_from(s),
            _ => panic!("extend_from across column kinds (caller bug)"),
        }
    }

    /// Append a datum (must match the container's domain).
    pub fn push_datum(&mut self, dt: DataType, d: &Datum) -> Result<()> {
        match self {
            ColumnValues::Int(v) => v.push(datum_to_int(dt, d)?),
            ColumnValues::Float(v) => v.push(match d {
                Datum::Null => None,
                other => Some(other.as_float().ok_or_else(|| {
                    DashError::analysis(format!("expected float, got {other:?}"))
                })?),
            }),
            ColumnValues::Str(v) => v.push(match d {
                Datum::Null => None,
                Datum::Str(s) => Some(s),
                other => {
                    return Err(DashError::analysis(format!(
                        "expected string, got {other:?}"
                    )))
                }
            }),
        }
        Ok(())
    }
}

/// The storage domain a logical type maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueKind {
    /// Stored as i64 (ints, bools, dates, timestamps, unscaled decimals).
    Int,
    /// Stored as f64.
    Float,
    /// Stored as UTF-8 strings.
    Str,
}

/// Map a logical type onto its storage domain.
pub fn value_kind(dt: DataType) -> ValueKind {
    if dt.is_integer_encodable() {
        ValueKind::Int
    } else if dt.is_float() {
        ValueKind::Float
    } else {
        ValueKind::Str
    }
}

fn datum_to_int(dt: DataType, d: &Datum) -> Result<Option<i64>> {
    Ok(match d {
        Datum::Null => None,
        Datum::Bool(b) => Some(*b as i64),
        Datum::Int(v) => Some(*v),
        Datum::Date(v) => Some(*v as i64),
        Datum::Timestamp(v) => Some(*v),
        Datum::Decimal(v, s) => {
            // Rescale to the column's declared scale.
            let target = match dt {
                DataType::Decimal(_, ts) => ts,
                _ => *s,
            };
            let rescaled = crate::column::rescale_i128(*v, *s, target)?;
            Some(i64::try_from(rescaled).map_err(|_| {
                DashError::exec(format!("decimal {d:?} overflows storage range"))
            })?)
        }
        other => {
            return Err(DashError::analysis(format!(
                "expected integer-encodable value, got {other:?}"
            )))
        }
    })
}

pub(crate) fn rescale_i128(v: i128, from: u8, to: u8) -> Result<i128> {
    use std::cmp::Ordering::*;
    Ok(match from.cmp(&to) {
        Equal => v,
        Less => v
            .checked_mul(10i128.pow((to - from) as u32))
            .ok_or_else(|| DashError::exec("decimal rescale overflow"))?,
        Greater => {
            let div = 10i128.pow((from - to) as u32);
            (v + v.signum() * div / 2) / div
        }
    })
}

/// Map a predicate bound onto the orderable-u64 domain of a column of
/// logical type `dt`. Strings map through their (lossy but monotone)
/// 8-byte prefix, which is sound for synopsis pruning.
pub fn datum_to_ordered(dt: DataType, d: &Datum) -> Result<u64> {
    let coerced = dash_common::row::coerce_datum(d.clone(), dt)?;
    match value_kind(dt) {
        ValueKind::Int => {
            let v = datum_to_int(dt, &coerced)?
                .ok_or_else(|| DashError::internal("NULL predicate bound"))?;
            Ok(i64_to_ordered(v))
        }
        ValueKind::Float => {
            let v = coerced
                .as_float()
                .ok_or_else(|| DashError::internal("non-float bound"))?;
            Ok(f64_to_ordered(v))
        }
        ValueKind::Str => {
            let s = coerced
                .as_str()
                .ok_or_else(|| DashError::internal("non-string bound"))?;
            Ok(str_prefix_ordered(s))
        }
    }
}

/// The datum of logical type `dt` an integer-domain value `x` stores.
pub fn int_to_datum(dt: DataType, x: i64) -> Datum {
    match dt {
        DataType::Bool => Datum::Bool(x != 0),
        DataType::Date => Datum::Date(x as i32),
        DataType::Timestamp => Datum::Timestamp(x),
        DataType::Decimal(_, s) => Datum::Decimal(x as i128, s),
        _ => Datum::Int(x),
    }
}

/// The column-global encoding decision plus the metadata needed to encode,
/// decode, and map predicates onto codes.
#[derive(Debug, Clone)]
pub enum ColumnEncoding {
    /// Per-block frame-of-reference coding in the orderable-u64 domain.
    Minus {
        /// Whether codes map back to i64 or f64.
        kind: ValueKind,
    },
    /// Frequency-partitioned dictionary over orderable-u64 values.
    IntDict {
        /// Whether codes map back to i64 or f64.
        kind: ValueKind,
        /// The dictionary.
        dict: FreqDict<u64>,
    },
    /// Frequency-partitioned dictionary over strings, shared with the
    /// pools of the column's decoded values.
    StrDict {
        /// The dictionary.
        dict: SharedDict,
    },
}

impl ColumnEncoding {
    /// The storage domain of this encoding.
    pub fn kind(&self) -> ValueKind {
        match self {
            ColumnEncoding::Minus { kind } | ColumnEncoding::IntDict { kind, .. } => *kind,
            ColumnEncoding::StrDict { .. } => ValueKind::Str,
        }
    }

    /// Human-readable name for EXPLAIN and the compression report.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnEncoding::Minus { .. } => "minus",
            ColumnEncoding::IntDict { .. } | ColumnEncoding::StrDict { .. } => "frequency-dict",
        }
    }
}

/// Tuples per stride, the unit a table encodes as one block — the paper
/// collects skipping metadata "for (approximately) 1K tuples".
pub const STRIDE: usize = 1024;

/// Max distinct values before an integer column falls back to minus
/// encoding.
const MAX_DICT_CARDINALITY: usize = 1 << 16;

/// A dictionary must cover at least this fraction of occurrences per
/// distinct value on average (cardinality < len * ratio) to be chosen.
const DICT_CARDINALITY_RATIO: f64 = 0.5;

/// A string column's histogram and each row's distinct-value id, as
/// [`Histogram::with_ids`] gives them. A pool holds each value once, so a
/// code is its value's identity: one dense pass maps each code to a
/// first-sight id, and only a value's first sight touches the value.
fn code_histogram(v: &StrColumn) -> (Histogram<Arc<str>>, Vec<u32>) {
    let pool = v.pool();
    let mut id_of = vec![NULL_ID; pool.len()];
    let mut seen: Vec<(Arc<str>, u64)> = Vec::new();
    let mut nulls = 0;
    let ids = v
        .codes()
        .iter()
        .map(|&code| {
            if code == NULL_CODE {
                nulls += 1;
                return NULL_ID;
            }
            let id = &mut id_of[code as usize];
            if *id == NULL_ID {
                *id = seen.len() as u32;
                seen.push((pool.arc(code).clone(), 0));
            }
            seen[*id as usize].1 += 1;
            *id
        })
        .collect();
    (Histogram::from_counts(seen, nulls), ids)
}

/// Analyzes columns and encodes/decodes blocks.
#[derive(Debug, Clone, Default)]
pub struct ColumnCompressor;

impl ColumnCompressor {
    /// Create a compressor.
    pub fn new() -> ColumnCompressor {
        ColumnCompressor
    }

    /// Choose the column-global encoding from the values, which start a
    /// stride and are stored in blocks of [`STRIDE`] rows from there on. A
    /// string column's values become codes of its new dictionary's pool,
    /// hashing each distinct value once, not each row.
    pub fn analyze(&self, values: &mut ColumnValues) -> ColumnEncoding {
        match values {
            ColumnValues::Int(v) => {
                let ordered: Vec<Option<u64>> =
                    v.iter().map(|o| o.map(i64_to_ordered)).collect();
                self.analyze_ordered(ValueKind::Int, &ordered)
            }
            ColumnValues::Float(v) => {
                let ordered: Vec<Option<u64>> =
                    v.iter().map(|o| o.map(f64_to_ordered)).collect();
                self.analyze_ordered(ValueKind::Float, &ordered)
            }
            ColumnValues::Str(v) => {
                let (hist, ids) = code_histogram(v);
                let (dict, flat) = FreqDict::build_strided(&hist, &ids, STRIDE);
                let dict = Arc::new(dict);
                let codes = ids.iter().map(|&id| if id == NULL_ID { NULL_CODE } else { flat[id as usize] });
                *v = StrColumn::from_parts(codes.collect(), StrPool::for_dict(dict.clone()));
                ColumnEncoding::StrDict { dict }
            }
        }
    }

    fn analyze_ordered(&self, kind: ValueKind, ordered: &[Option<u64>]) -> ColumnEncoding {
        let (hist, ids) = Histogram::with_ids(ordered.iter().map(|o| o.as_ref()));
        let card = hist.cardinality();
        let n = hist.total() as usize;
        if card <= MAX_DICT_CARDINALITY
            && (n == 0 || (card as f64) < n as f64 * DICT_CARDINALITY_RATIO)
        {
            ColumnEncoding::IntDict {
                kind,
                dict: FreqDict::build_strided(&hist, &ids, STRIDE).0,
            }
        } else {
            ColumnEncoding::Minus { kind }
        }
    }

    /// Encode a contiguous range of a column's values into one block.
    pub fn encode_block(
        &self,
        enc: &ColumnEncoding,
        values: &ColumnValues,
        range: std::ops::Range<usize>,
    ) -> EncodedBlock {
        let len = range.len();
        match (enc, values) {
            (ColumnEncoding::Minus { .. }, ColumnValues::Int(v)) => {
                let ordered: Vec<Option<u64>> = v[range.clone()]
                    .iter()
                    .map(|o| o.map(i64_to_ordered))
                    .collect();
                minus_block(len, &ordered)
            }
            (ColumnEncoding::Minus { .. }, ColumnValues::Float(v)) => {
                let ordered: Vec<Option<u64>> = v[range.clone()]
                    .iter()
                    .map(|o| o.map(f64_to_ordered))
                    .collect();
                minus_block(len, &ordered)
            }
            (ColumnEncoding::IntDict { dict, .. }, ColumnValues::Int(v)) => {
                int_dict_block(dict, v[range].iter().map(|o| o.map(i64_to_ordered)))
            }
            (ColumnEncoding::IntDict { dict, .. }, ColumnValues::Float(v)) => {
                int_dict_block(dict, v[range].iter().map(|o| o.map(f64_to_ordered)))
            }
            (ColumnEncoding::StrDict { dict }, ColumnValues::Str(v)) => {
                // Codes of a pool over this dictionary are its flat codes or
                // local ones; any other pool's are re-coded once per value.
                let mut v = v.slice(range);
                if !Arc::ptr_eq(v.pool().dict(), dict) {
                    v = v.repool(dict.clone());
                }
                let pool = v.pool();
                let local = v.codes().iter().filter(|&&c| c != NULL_CODE && c >= dict.len() as u32);
                dict_block(dict, v.codes(), ExceptionBank::Str(local.map(|&c| pool.arc(c).clone()).collect()))
            }
            _ => panic!("encoding/value-kind mismatch (caller bug)"),
        }
    }

    /// Decode a whole block back to typed values (a string block into a
    /// pool of its own dictionary's, built here).
    pub fn decode_block(&self, enc: &ColumnEncoding, block: &EncodedBlock) -> Result<ColumnValues> {
        let mut out = decode_target(enc);
        let all: Vec<usize> = (0..block.len).collect();
        self.decode(enc, block, &all, &mut out)?;
        Ok(out)
    }

    /// Decode the values at `positions` (ascending, distinct) of `block`
    /// and append them to `out` as typed values — the scan's late
    /// materialization. Work is proportional to `positions`, except that a
    /// multi-partition dictionary block also walks its selector tags up to
    /// the last position; passing every position decodes the block
    /// sequentially.
    ///
    /// A string block decodes to codes: a dictionary entry's flat code in
    /// `out`'s pool, which must be over this encoding's very dictionary
    /// (see [`decode_target`]), and the block's exceptions as local values
    /// of that pool, each value once
    /// of that pool.
    pub fn decode(
        &self,
        enc: &ColumnEncoding,
        block: &EncodedBlock,
        positions: &[usize],
        out: &mut ColumnValues,
    ) -> Result<()> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "positions ascend");
        if positions.last().is_some_and(|&p| p >= block.len) {
            return Err(DashError::internal(format!(
                "decode position {:?} outside a block of {}",
                positions.last(),
                block.len
            )));
        }
        match (enc.kind(), out) {
            (ValueKind::Int, ColumnValues::Int(out)) => {
                decode_numeric(enc, block, positions, out, ordered_to_i64)
            }
            (ValueKind::Float, ColumnValues::Float(out)) => {
                decode_numeric(enc, block, positions, out, ordered_to_f64)
            }
            (ValueKind::Str, ColumnValues::Str(out)) => match (enc, &block.repr) {
                (
                    ColumnEncoding::StrDict { dict },
                    BlockRepr::Dict {
                        exceptions: ExceptionBank::Str(exc),
                        ..
                    },
                ) => {
                    if !Arc::ptr_eq(out.pool().dict(), dict) {
                        return Err(DashError::internal("decode of a string block into a pool over another dictionary"));
                    }
                    // An exception repeated in the stride, or already in the
                    // pool, takes the code it has.
                    let exc_codes: Vec<u32> = exc.iter().map(|s| out.intern(s)).collect();
                    block.gather_dict(positions, out.codes_mut(), NULL_CODE, |p, c| dict.flat(p, c), |i| exc_codes[i])
                }
                _ => Err(decode_mismatch(enc)),
            },
            _ => Err(decode_mismatch(enc)),
        }
    }

    /// Min/max of a block in the orderable-u64 domain (strings use their
    /// 8-byte prefix mapping) — the data the synopsis stores per stride.
    /// `None` when every value is NULL.
    pub fn block_min_max(
        &self,
        enc: &ColumnEncoding,
        block: &EncodedBlock,
    ) -> Result<Option<(u64, u64)>> {
        if let (ColumnEncoding::Minus { .. }, BlockRepr::Minus(m)) = (enc, &block.repr) {
            return Ok(m.min_max(block.nulls.as_ref()));
        }
        let all: Vec<usize> = (0..block.len).collect();
        let mut ordered: Vec<Option<u64>> = Vec::new();
        match (enc, &block.repr) {
            (
                ColumnEncoding::IntDict { dict, .. },
                BlockRepr::Dict {
                    exceptions: ExceptionBank::Int(exc),
                    ..
                },
            ) => block.gather_dict(&all, &mut ordered, None, |p, c| Some(*dict.decode(p, c)), |i| Some(exc[i]))?,
            (
                ColumnEncoding::StrDict { dict, .. },
                BlockRepr::Dict {
                    exceptions: ExceptionBank::Str(exc),
                    ..
                },
            ) => block.gather_dict(
                &all,
                &mut ordered,
                None,
                |p, c| Some(str_prefix_ordered(dict.decode(p, c))),
                |i| Some(str_prefix_ordered(&exc[i])),
            )?,
            _ => return Err(decode_mismatch(enc)),
        }
        let present = || ordered.iter().flatten().copied();
        Ok(present().min().zip(present().max()))
    }
}

/// Decode the numeric encodings: codes map to the orderable-u64 domain and
/// `from_ordered` maps that back to the column's value type.
fn decode_numeric<T: Copy>(
    enc: &ColumnEncoding,
    block: &EncodedBlock,
    positions: &[usize],
    out: &mut Vec<Option<T>>,
    from_ordered: fn(u64) -> T,
) -> Result<()> {
    match (enc, &block.repr) {
        (ColumnEncoding::Minus { .. }, BlockRepr::Minus(m)) => {
            gather_codes(&m.codes, block.nulls.as_ref(), positions, out, None, |c| {
                Some(from_ordered(m.base + c))
            });
            Ok(())
        }
        (
            ColumnEncoding::IntDict { dict, .. },
            BlockRepr::Dict {
                exceptions: ExceptionBank::Int(exc),
                ..
            },
        ) => block.gather_dict(
            positions,
            out,
            None,
            |p, c| Some(from_ordered(*dict.decode(p, c))),
            |i| Some(from_ordered(exc[i])),
        ),
        _ => Err(decode_mismatch(enc)),
    }
}

/// An empty column `enc`'s blocks decode into: a string column's is a pool
/// over the encoding's dictionary.
pub fn decode_target(enc: &ColumnEncoding) -> ColumnValues {
    match enc {
        ColumnEncoding::StrDict { dict } => ColumnValues::Str(StrColumn::with_pool(StrPool::for_dict(dict.clone()))),
        _ => ColumnValues::empty_of(enc.kind()),
    }
}

fn decode_mismatch(enc: &ColumnEncoding) -> DashError {
    DashError::internal(format!(
        "{} encoding does not match the block's representation or the output column's kind",
        enc.name()
    ))
}

fn nulls_bitmap<T>(values: &[Option<T>]) -> Option<Bitmap> {
    if values.iter().any(|v| v.is_none()) {
        Some(Bitmap::from_bools(values.iter().map(|v| v.is_none())))
    } else {
        None
    }
}

fn minus_block(len: usize, ordered: &[Option<u64>]) -> EncodedBlock {
    EncodedBlock {
        len,
        nulls: nulls_bitmap(ordered),
        repr: BlockRepr::Minus(MinusBlock::encode(ordered)),
    }
}

/// The dictionary block of an integer-domain stride, each value looked up.
fn int_dict_block(dict: &FreqDict<u64>, ordered: impl Iterator<Item = Option<u64>>) -> EncodedBlock {
    let mut exceptions = Vec::new();
    let codes: Vec<u32> = ordered
        .map(|v| match v {
            None => NULL_CODE,
            Some(v) => dict.code_of(&v).unwrap_or_else(|| {
                exceptions.push(v);
                dict.len() as u32
            }),
        })
        .collect();
    dict_block(dict, &codes, ExceptionBank::Int(exceptions))
}

/// The one dictionary block encoder. `codes` holds each row's flat code in
/// `dict`, [`NULL_CODE`] for NULL, or a code past the dictionary for the
/// next value of `exceptions`.
fn dict_block<T: Eq + std::hash::Hash + Ord>(dict: &FreqDict<T>, codes: &[u32], exceptions: ExceptionBank) -> EncodedBlock {
    let nparts = dict.partition_count();
    let mut tags: Vec<u64> = Vec::with_capacity(codes.len());
    let mut banks: Vec<Vec<u64>> = vec![Vec::new(); nparts];
    for &flat in codes {
        let (p, c) = match flat {
            // NULL: dummy entry in partition 0 keeps cursors aligned.
            NULL_CODE => (0, 0),
            _ if (flat as usize) < dict.len() => dict.split(flat),
            _ => {
                tags.push(nparts as u64);
                continue;
            }
        };
        tags.push(p as u64);
        banks[p as usize].push(c);
    }
    let banks = banks.iter().enumerate().map(|(p, codes)| BitPackedVec::from_codes(dict.width(p), codes)).collect();
    // Page-local optimization: elide the selector vector when every value
    // landed in a single partition and there are no exceptions.
    let first_tag = tags.first().copied();
    let uniform = exceptions.is_empty()
        && first_tag.is_some_and(|t| tags.iter().all(|&x| x == t));
    let (selectors, single_part) = if uniform {
        (None, first_tag.unwrap_or(0) as u8)
    } else {
        (Some(BitPackedVec::from_codes(dict.selector_width(), &tags)), 0)
    };
    EncodedBlock {
        len: codes.len(),
        nulls: codes.contains(&NULL_CODE).then(|| Bitmap::from_bools(codes.iter().map(|&c| c == NULL_CODE))),
        repr: BlockRepr::Dict {
            selectors,
            single_part,
            banks,
            exceptions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use crate::dict::MAX_PARTITIONS;

    /// A string column of `values`.
    fn strs(values: Vec<Option<Arc<str>>>) -> ColumnValues {
        ColumnValues::Str(StrColumn::from_values(values.iter().map(|v| v.as_deref())))
    }

    fn roundtrip(values: ColumnValues) {
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut values.clone());
        let n = values.len();
        let block = comp.encode_block(&enc, &values, 0..n);
        let decoded = comp.decode_block(&enc, &block).unwrap();
        assert_eq!(decoded, values, "encoding {}", enc.name());
    }

    #[test]
    fn int_dict_roundtrip_with_nulls() {
        let v: Vec<Option<i64>> = (0..500)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some((i % 10) as i64 - 5)
                }
            })
            .collect();
        roundtrip(ColumnValues::Int(v));
    }

    #[test]
    fn high_cardinality_chooses_minus() {
        let v: Vec<Option<i64>> = (0..1000).map(|i| Some(i * 13 + 1_000_000)).collect();
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut ColumnValues::Int(v.clone()));
        assert_eq!(enc.name(), "minus");
        roundtrip(ColumnValues::Int(v));
    }

    #[test]
    fn low_cardinality_chooses_dict() {
        let v: Vec<Option<i64>> = (0..1000).map(|i| Some((i % 4) as i64)).collect();
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut ColumnValues::Int(v.clone()));
        assert_eq!(enc.name(), "frequency-dict");
        roundtrip(ColumnValues::Int(v));
    }

    #[test]
    fn dictionary_thresholds() {
        let comp = ColumnCompressor::new();
        let name = |distinct: i64, len: i64| {
            let v: Vec<Option<i64>> = (0..len).map(|i| Some(i % distinct)).collect();
            comp.analyze(&mut ColumnValues::Int(v)).name()
        };
        // Fewer distinct values than half the rows: a dictionary.
        assert_eq!(name(499, 1000), "frequency-dict");
        assert_eq!(name(500, 1000), "minus");
        // Past 65536 distinct values no ratio earns a dictionary.
        let max = MAX_DICT_CARDINALITY as i64;
        assert_eq!(name(max, 2 * max + 2), "frequency-dict");
        assert_eq!(name(max + 1, 2 * max + 4), "minus");
    }

    #[test]
    fn float_roundtrip() {
        let v: Vec<Option<f64>> = (0..300)
            .map(|i| {
                if i % 11 == 0 {
                    None
                } else {
                    Some(i as f64 * 0.25 - 17.5)
                }
            })
            .collect();
        roundtrip(ColumnValues::Float(v));
    }

    #[test]
    fn string_roundtrip() {
        let v: Vec<Option<Arc<str>>> = (0..400)
            .map(|i| {
                if i % 13 == 0 {
                    None
                } else {
                    Some(Arc::from(format!("city-{}", i % 20).as_str()))
                }
            })
            .collect();
        roundtrip(strs(v));
    }

    /// Counting codes gives the histogram and ids hashing every row gives,
    /// for a pool without a dictionary, one over another column's
    /// dictionary with local values, and a pool holding values no row uses.
    #[test]
    fn code_histogram_matches_hashing_every_row() {
        let vals: Vec<Option<&str>> = (0..3000)
            .map(|i| match i % 11 {
                0 => None,
                k => Some(["a", "bb", "c", "dd", "e", "ff", "g", "hh", "i", "jj"][(k * k + i / 97) % 10]),
            })
            .collect();
        let plain = StrColumn::from_values(vals.iter().copied());
        let other: Vec<Arc<str>> = ["zz", "c", "a", "unused"].iter().map(|&s| Arc::from(s)).collect();
        let dict = Arc::new(FreqDict::build(&Histogram::from_values(other.iter().map(Some))));
        for col in [plain.clone(), plain.repool(dict.clone()), plain.slice(100..2000)] {
            let (hist, ids) = code_histogram(&col);
            let (want, want_ids) = Histogram::with_ids(col.arcs());
            assert_eq!(ids, want_ids);
            assert_eq!(hist.ranked(), want.ranked());
            assert_eq!((hist.total(), hist.nulls()), (want.total(), want.nulls()));
        }
    }

    #[test]
    fn exceptions_roundtrip() {
        // Analyze on one set, encode a block containing unseen values.
        let analyzed: Vec<Option<i64>> = (0..100).map(|i| Some((i % 5) as i64)).collect();
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut ColumnValues::Int(analyzed));
        let newdata: Vec<Option<i64>> =
            vec![Some(0), Some(999_999), Some(3), None, Some(-777)];
        let block = comp.encode_block(&enc, &ColumnValues::Int(newdata.clone()), 0..5);
        let decoded = comp.decode_block(&enc, &block).unwrap();
        assert_eq!(decoded, ColumnValues::Int(newdata));
    }

    #[test]
    fn string_exceptions_roundtrip() {
        let analyzed: Vec<Option<Arc<str>>> =
            (0..50).map(|i| Some(Arc::from(format!("v{}", i % 3).as_str()))).collect();
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut strs(analyzed));
        let newdata: Vec<Option<Arc<str>>> = vec![
            Some(Arc::from("v0")),
            Some(Arc::from("unseen-value")),
            None,
        ];
        let block = comp.encode_block(&enc, &strs(newdata.clone()), 0..3);
        let decoded = comp.decode_block(&enc, &block).unwrap();
        assert_eq!(decoded, strs(newdata));
        // The dictionary value decodes to its flat code, the exception to a
        // local value of the decoded column's pool.
        let ColumnValues::Str(decoded) = decoded else { panic!("a string column") };
        assert_eq!(decoded.codes()[0], 0);
        assert!(decoded.codes()[1] as usize >= decoded.pool().dict().len());
    }

    /// A stride whose exceptions repeat a value decodes it to one code, and
    /// decoding the stride again into the same column adds no value.
    #[test]
    fn repeated_exceptions_decode_to_one_code() {
        let analyzed: Vec<Option<Arc<str>>> = (0..50).map(|i| Some(Arc::from(format!("v{}", i % 3).as_str()))).collect();
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut strs(analyzed));
        let newdata: Vec<Option<Arc<str>>> =
            [Some("new"), Some("v1"), None, Some("new"), Some("")].iter().map(|v| v.map(Arc::from)).collect();
        let block = comp.encode_block(&enc, &strs(newdata.clone()), 0..5);
        let mut out = decode_target(&enc);
        let all: Vec<usize> = (0..5).collect();
        comp.decode(&enc, &block, &all, &mut out).unwrap();
        comp.decode(&enc, &block, &all, &mut out).unwrap();
        let ColumnValues::Str(out) = out else { panic!("a string column") };
        assert_eq!(out.iter().collect::<Vec<_>>(), [newdata.clone(), newdata].concat().iter().map(|v| v.as_deref()).collect::<Vec<_>>());
        assert_eq!(out.codes()[0], out.codes()[3]);
        assert_eq!(out.codes()[0], out.codes()[5]);
        assert_eq!(out.pool().len(), 3 + 2, "the dictionary, then `new` and `''` once each");
    }

    #[test]
    fn selector_elision_when_uniform() {
        // All values hit the same (hot) partition -> no selector vector.
        let v: Vec<Option<i64>> = vec![Some(1); 256];
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut ColumnValues::Int(v.clone()));
        let block = comp.encode_block(&enc, &ColumnValues::Int(v), 0..256);
        match &block.repr {
            BlockRepr::Dict { selectors, .. } => assert!(selectors.is_none()),
            other => panic!("expected dict block, got {other:?}"),
        }
    }

    /// The blocks `values` seals into, one per full stride.
    fn sealed_blocks(enc: &ColumnEncoding, values: &ColumnValues) -> Vec<EncodedBlock> {
        let comp = ColumnCompressor::new();
        (0..values.len() / STRIDE)
            .map(|s| comp.encode_block(enc, values, s * STRIDE..(s + 1) * STRIDE))
            .collect()
    }

    fn has_selectors(block: &EncodedBlock) -> bool {
        matches!(&block.repr, BlockRepr::Dict { selectors: Some(_), .. })
    }

    fn partition_count(enc: &ColumnEncoding) -> usize {
        match enc {
            ColumnEncoding::IntDict { dict, .. } => dict.partition_count(),
            ColumnEncoding::StrDict { dict, .. } => dict.partition_count(),
            ColumnEncoding::Minus { .. } => 0,
        }
    }

    #[test]
    fn uniform_columns_encode_one_partition_without_selectors() {
        // The benchmark star's uniform measures: 1000 integers, 4000
        // quarter-step floats and 23 labels, values mixed in every stride.
        let n = 20 * STRIDE;
        let mut draw = draws(3);
        let mut columns = [
            ColumnValues::Int((0..n).map(|_| Some((draw() % 1000) as i64 - 500)).collect()),
            ColumnValues::Float((0..n).map(|_| Some((draw() % 4000) as f64 * 0.25)).collect()),
            strs((0..n).map(|_| Some(Arc::from(format!("L{}", draw() % 23).as_str()))).collect()),
        ];
        for (i, values) in columns.iter_mut().enumerate() {
            let enc = ColumnCompressor::new().analyze(values);
            assert_eq!(partition_count(&enc), 1, "column {i}");
            assert!(!sealed_blocks(&enc, values).iter().any(has_selectors));
        }
    }

    #[test]
    fn clustered_day_column_keeps_its_split_selector_free_and_smaller() {
        // The benchmark star's `day`: 300,000 rows over 1500 days, 200 a day
        // in order. A split still shortens its codes, and no stride pays
        // for selectors, so the DP can afford four partitions: 328,192
        // bytes, where charging selectors on every row settled on three
        // and 343,392.
        let first_day = 15_706i64;
        let values = ColumnValues::Int((0..300_000).map(|i| Some(first_day + i / 200)).collect());
        let enc = ColumnCompressor::new().analyze(&mut values.clone());
        assert!(partition_count(&enc) > 1, "{}", enc.name());
        let blocks = sealed_blocks(&enc, &values);
        assert!(!blocks.iter().any(has_selectors));
        let bytes: usize = blocks.iter().map(|b| b.size_bytes()).sum();
        assert!(bytes <= 328_192, "{bytes} bytes");
    }

    #[test]
    fn block_min_max_matches_values() {
        let v: Vec<Option<i64>> = vec![Some(-5), Some(100), None, Some(7)];
        let comp = ColumnCompressor::new();
        let enc = comp.analyze(&mut ColumnValues::Int(v.clone()));
        let block = comp.encode_block(&enc, &ColumnValues::Int(v), 0..4);
        let (lo, hi) = comp.block_min_max(&enc, &block).unwrap().unwrap();
        assert_eq!(ordered_to_i64(lo), -5);
        assert_eq!(ordered_to_i64(hi), 100);
    }

    #[test]
    fn compression_ratio_on_skewed_data() {
        // 90% one value, 10% spread over 100: should compress far below
        // 8 bytes/value.
        let v: Vec<Option<i64>> = (0..10_000)
            .map(|i| Some(if i % 10 != 0 { 42 } else { (i % 100) as i64 }))
            .collect();
        let comp = ColumnCompressor::new();
        let vals = ColumnValues::Int(v);
        let enc = comp.analyze(&mut vals.clone());
        let block = comp.encode_block(&enc, &vals, 0..10_000);
        let raw = 10_000 * 8;
        let ratio = raw as f64 / block.size_bytes() as f64;
        assert!(ratio > 5.0, "expected >5x compression, got {ratio:.1}x");
    }

    #[test]
    fn datum_conversion_decimal_rescale() {
        let dt = DataType::Decimal(10, 2);
        let vals = ColumnValues::from_datums(
            dt,
            &[Datum::Decimal(5, 1), Datum::Int(3), Datum::Null],
        );
        // Datum::Int(3) is not valid for from_datums? It is: Int -> decimal path
        // goes through datum_to_int which handles Int directly.
        let vals = vals.unwrap();
        match &vals {
            ColumnValues::Int(v) => {
                assert_eq!(v[0], Some(50)); // 0.5 rescaled to scale 2
                assert_eq!(v[1], Some(3)); // raw int stored as-is (unscaled by caller)
                assert_eq!(v[2], None);
            }
            _ => panic!("expected int storage"),
        }
        assert_eq!(vals.datum_at(dt, 0), Datum::Decimal(50, 2));
    }

    const LENS: [usize; 5] = [1, 63, 64, 65, 1024];

    /// A reproducible stream of 64-bit draws.
    fn draws(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let x = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^ (x >> 27)
        }
    }

    /// `values` with NULLs struck in: 0 none, 1 about a third, 2 all.
    fn with_nulls<T>(
        values: Vec<T>,
        mode: usize,
        draw: &mut impl FnMut() -> u64,
    ) -> Vec<Option<T>> {
        values
            .into_iter()
            .map(|v| match mode {
                0 => Some(v),
                1 => (!draw().is_multiple_of(3)).then_some(v),
                _ => None,
            })
            .collect()
    }

    /// Ascending positions of `0..n`: 0 none, 1 one, 2 about one in 64,
    /// 3 about half, 4 all.
    fn pick_positions(n: usize, density: usize, draw: &mut impl FnMut() -> u64) -> Vec<usize> {
        match density {
            0 => Vec::new(),
            1 => vec![draw() as usize % n],
            2 => (0..n).filter(|_| draw().is_multiple_of(64)).collect(),
            3 => (0..n).filter(|_| draw().is_multiple_of(2)).collect(),
            _ => (0..n).collect(),
        }
    }

    /// The block decodes whole to `values`, and at `positions` to exactly
    /// the values there — the oracle is the input, not another decoder.
    fn check_positional(
        enc: &ColumnEncoding,
        values: &ColumnValues,
        positions: &[usize],
    ) -> EncodedBlock {
        let comp = ColumnCompressor::new();
        let block = comp.encode_block(enc, values, 0..values.len());
        assert_eq!(&comp.decode_block(enc, &block).unwrap(), values, "whole block");
        let mut expect = ColumnValues::empty_of(enc.kind());
        let mut got = decode_target(enc);
        expect.append_selected(values, positions);
        comp.decode(enc, &block, positions, &mut got).unwrap();
        assert_eq!(got, expect, "positions {positions:?}");
        block
    }

    /// A dictionary column over `card` values in which three are hot, so
    /// the dictionary splits into several partitions once `card` allows.
    /// Returns the analyzed values too, coldest last.
    fn skewed_dict(card: usize) -> (FreqDict<u64>, Vec<u64>) {
        let domain: Vec<u64> =
            (0..card as u64).map(|v| i64_to_ordered(v as i64 * 3 - 40)).collect();
        let training: Vec<u64> = domain
            .iter()
            .enumerate()
            .flat_map(|(i, &v)| std::iter::repeat_n(v, if i < 3 { 500 } else { 1 }))
            .collect();
        (FreqDict::build(&Histogram::from_values(training.iter().map(Some))), domain)
    }

    /// Block values for a dictionary column: 0 one partition only
    /// (selectors elided), 1 the whole dictionary, 2 with unseen values.
    fn dict_values(
        dict: &FreqDict<u64>,
        domain: &[u64],
        shape: usize,
        n: usize,
        draw: &mut impl FnMut() -> u64,
    ) -> Vec<u64> {
        let part = dict.partition(draw() as usize % dict.partition_count());
        (0..n)
            .map(|_| match shape {
                0 => part[draw() as usize % part.len()],
                2 if draw().is_multiple_of(4) => i64_to_ordered(1_000_000 + (draw() % 50) as i64),
                _ => domain[draw() as usize % domain.len()],
            })
            .collect()
    }

    #[test]
    fn dict_shapes_are_what_they_claim() {
        let (dict, domain) = skewed_dict(128);
        assert!(dict.partition_count() > 1, "skew splits the dictionary");
        let enc = ColumnEncoding::IntDict { kind: ValueKind::Int, dict: dict.clone() };
        let mut draw = draws(1);
        for (shape, elided, exceptions) in [(0, true, false), (1, false, false), (2, false, true)] {
            let ordered = dict_values(&dict, &domain, shape, 1024, &mut draw);
            let values =
                ColumnValues::Int(ordered.iter().map(|&o| Some(ordered_to_i64(o))).collect());
            let block = check_positional(&enc, &values, &[0, 5, 1023]);
            let BlockRepr::Dict { selectors, exceptions: bank, .. } = &block.repr else {
                panic!("dictionary encoding produced {:?}", block.repr);
            };
            assert_eq!(selectors.is_none(), elided, "shape {shape}");
            assert_eq!(!bank.is_empty(), exceptions, "shape {shape}");
        }
    }

    #[test]
    fn float_positional_decode() {
        let v: Vec<Option<f64>> =
            (0..300).map(|i| (i % 11 != 0).then_some(i as f64 * 0.25 - 17.5)).collect();
        let values = ColumnValues::Float(v);
        let minus = ColumnEncoding::Minus { kind: ValueKind::Float };
        check_positional(&minus, &values, &[0, 11, 12, 299]);
        let dict = ColumnCompressor::new().analyze(&mut ColumnValues::Float(
            (0..300).map(|i| Some((i % 7) as f64)).collect(),
        ));
        assert_eq!(dict.name(), "frequency-dict");
        check_positional(&dict, &values, &[1, 2, 150]);
    }

    #[test]
    fn decode_reports_mismatches_instead_of_panicking() {
        let comp = ColumnCompressor::new();
        let ints = ColumnValues::Int(vec![Some(1), Some(2), None]);
        let minus = ColumnEncoding::Minus { kind: ValueKind::Int };
        let block = comp.encode_block(&minus, &ints, 0..3);
        let (dict, _) = skewed_dict(4);
        let wrong_enc = ColumnEncoding::IntDict { kind: ValueKind::Int, dict };
        for err in [
            comp.decode(&wrong_enc, &block, &[0], &mut ColumnValues::Int(Vec::new())),
            comp.decode(&minus, &block, &[0], &mut ColumnValues::Str(StrColumn::new())),
            comp.decode(&minus, &block, &[3], &mut ColumnValues::Int(Vec::new())),
        ] {
            assert_eq!(err.unwrap_err().class(), "XX000");
        }
    }

    /// A string dictionary over `training`.
    fn str_dict<S: AsRef<str>>(training: &[S]) -> SharedDict {
        let arcs: Vec<Arc<str>> = training.iter().map(|s| Arc::from(s.as_ref())).collect();
        Arc::new(FreqDict::build(&Histogram::from_values(arcs.iter().map(Some))))
    }

    /// Values sharing their first 8 bytes, `""` first; the first `hot` of
    /// them `heat` times as frequent as the rest.
    fn prefixed_training(card: usize, hot: usize, heat: usize) -> Vec<String> {
        let value = |i: usize| if i == 0 { String::new() } else { format!("shared-p{i:05}") };
        (0..card).flat_map(|i| std::iter::repeat_n(value(i), if i < hot { heat } else { 1 })).collect()
    }

    #[test]
    fn decode_refuses_a_pool_over_another_dictionary_of_the_same_length() {
        let comp = ColumnCompressor::new();
        let skewed = str_dict(&prefixed_training(128, 3, 500));
        assert!(skewed.partition_count() > 1, "skew splits the dictionary");
        let enc = ColumnEncoding::StrDict { dict: skewed.clone() };
        let values = strs((0..128).map(|i| Some(skewed.value(127 - i).clone())).collect());
        let block = comp.encode_block(&enc, &values, 0..128);
        // Equal lengths: one with other values in one partition, and a copy
        // of the encoding's own dictionary that is not it.
        let uniform = str_dict(&(0..128).map(|i| format!("other-{i:03}")).collect::<Vec<_>>());
        let copy = str_dict(&prefixed_training(128, 3, 500));
        for other in [uniform, copy] {
            assert_eq!(other.len(), skewed.len());
            let mut out = ColumnValues::Str(StrColumn::with_pool(StrPool::for_dict(other)));
            let err = comp.decode(&enc, &block, &[0, 1, 127], &mut out).unwrap_err();
            assert_eq!(err.class(), "XX000");
        }
        let mut out = decode_target(&enc);
        comp.decode(&enc, &block, &[0, 1, 127], &mut out).unwrap();
        let want = [skewed.value(127), skewed.value(126), skewed.value(0)];
        assert_eq!(out, strs(want.iter().map(|&s| Some(s.clone())).collect()));
    }

    proptest! {
        #[test]
        fn prop_minus_positional_decode(
            len in 0usize..5,
            width in 0usize..5,
            null_mode in 0usize..3,
            density in 0usize..5,
            seed in any::<u64>(),
        ) {
            let (n, width) = (LENS[len], [0u32, 1, 7, 63, 64][width]);
            let mut draw = draws(seed);
            let mask = if width == 0 { 0 } else { u64::MAX >> (64 - width) };
            let mut ordered: Vec<u64> = (0..n).map(|_| draw() & mask).collect();
            // Both ends of the code range, so the block packs at `width`.
            ordered[0] = 0;
            ordered[n - 1] = mask;
            let values: Vec<i64> = ordered.into_iter().map(ordered_to_i64).collect();
            let values = with_nulls(values, null_mode, &mut draw);
            let positions = pick_positions(n, density, &mut draw);
            let enc = ColumnEncoding::Minus { kind: ValueKind::Int };
            check_positional(&enc, &ColumnValues::Int(values), &positions);
        }

        #[test]
        fn prop_dict_positional_decode(
            len in 0usize..5,
            card in 0usize..4,
            shape in 0usize..3,
            null_mode in 0usize..3,
            density in 0usize..5,
            strings in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Bank code widths 0, 1 and 7 at the least.
            let (n, card) = (LENS[len], [1usize, 2, 128, 1000][card]);
            let mut draw = draws(seed);
            let (dict, domain) = skewed_dict(card);
            let ordered = dict_values(&dict, &domain, shape, n, &mut draw);
            let positions = pick_positions(n, density, &mut draw);
            if strings {
                // The same values and skew, spelled as strings.
                let spell = |o: u64| -> Arc<str> {
                    Arc::from(format!("v{:07}", ordered_to_i64(o) + 100).as_str())
                };
                let training: Vec<Arc<str>> = domain
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &o)| std::iter::repeat_n(spell(o), if i < 3 { 500 } else { 1 }))
                    .collect();
                let enc = ColumnEncoding::StrDict {
                    dict: Arc::new(FreqDict::build(&Histogram::from_values(training.iter().map(Some)))),
                };
                let values: Vec<Arc<str>> = ordered.into_iter().map(spell).collect();
                let values = with_nulls(values, null_mode, &mut draw);
                check_positional(&enc, &strs(values), &positions);
            } else {
                let enc = ColumnEncoding::IntDict { kind: ValueKind::Int, dict };
                let values: Vec<i64> = ordered.into_iter().map(ordered_to_i64).collect();
                let values = with_nulls(values, null_mode, &mut draw);
                check_positional(&enc, &ColumnValues::Int(values), &positions);
            }
        }

        #[test]
        fn prop_int_roundtrip(v in prop::collection::vec(prop::option::of(-1000i64..1000), 1..300)) {
            roundtrip(ColumnValues::Int(v));
        }

        #[test]
        fn prop_str_stride_encodes_alike_from_any_pool(
            card in 0usize..4,
            hot in 0usize..4,
            null_mode in 0usize..2,
            misses in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Dictionaries of 1 to 4 partitions over values sharing 8-byte
            // prefixes, `''` among them.
            let training = prefixed_training([1usize, 2, 40, 300][card], hot, [1usize, 50, 500, 5000][hot]);
            let dict = str_dict(&training);
            prop_assert!((1..=MAX_PARTITIONS).contains(&dict.partition_count()));
            let mut flat = 0;
            for p in 0..dict.partition_count() {
                for (code, v) in dict.partition(p).iter().enumerate() {
                    prop_assert_eq!(dict.code_of(v), Some(flat));
                    prop_assert_eq!(dict.flat(p as u8, code as u64), flat);
                    prop_assert_eq!(dict.split(flat), (p as u8, code as u64));
                    flat += 1;
                }
            }
            prop_assert_eq!(flat as usize, dict.len());
            let mut draw = draws(seed);
            let values: Vec<Arc<str>> = (0..STRIDE)
                .map(|_| match draw() % 8 {
                    0 if misses => Arc::from(format!("shared-pX{}", draw() % 5).as_str()),
                    _ => dict.value((draw() % dict.len() as u64) as u32).clone(),
                })
                .collect();
            let values = with_nulls(values, null_mode, &mut draw);
            let local = StrColumn::from_values(values.iter().map(|v| v.as_deref()));
            let foreign = str_dict(&["shared-p00001", "zz", "", "shared-pX0"]);
            let enc = ColumnEncoding::StrDict { dict: dict.clone() };
            let comp = ColumnCompressor::new();
            let own = comp.encode_block(&enc, &ColumnValues::Str(local.repool(dict.clone())), 0..STRIDE);
            for input in [local.clone(), local.repool(foreign)] {
                prop_assert_eq!(&comp.encode_block(&enc, &ColumnValues::Str(input), 0..STRIDE), &own);
            }
            prop_assert_eq!(comp.decode_block(&enc, &own).unwrap(), ColumnValues::Str(local));
        }

        #[test]
        fn prop_str_roundtrip(v in prop::collection::vec(prop::option::of("[a-c]{0,6}"), 1..200)) {
            let arcs: Vec<Option<Arc<str>>> = v.into_iter()
                .map(|o| o.map(|s| Arc::from(s.as_str())))
                .collect();
            roundtrip(strs(arcs));
        }

        #[test]
        fn prop_min_max_sound(v in prop::collection::vec(prop::option::of(any::<i64>()), 1..200)) {
            let comp = ColumnCompressor::new();
            let vals = ColumnValues::Int(v.clone());
            let enc = comp.analyze(&mut vals.clone());
            let n = vals.len();
            let block = comp.encode_block(&enc, &vals, 0..n);
            let mm = comp.block_min_max(&enc, &block).unwrap();
            let present: Vec<i64> = v.iter().flatten().copied().collect();
            match mm {
                Some((lo, hi)) => {
                    prop_assert_eq!(ordered_to_i64(lo), *present.iter().min().unwrap());
                    prop_assert_eq!(ordered_to_i64(hi), *present.iter().max().unwrap());
                }
                None => prop_assert!(present.is_empty()),
            }
        }
    }
}
