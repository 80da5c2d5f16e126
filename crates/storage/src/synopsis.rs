//! Data-skipping synopsis (§II.B.4).
//!
//! For every column, the synopsis records the min/max (in the
//! orderable-u64 domain) and a has-nulls flag per stride of ~1 K tuples.
//! A scan with a range predicate consults [`Synopsis::candidate_strides`]
//! and never touches strides whose range cannot overlap — the paper's
//! canonical example is seven years of data where queries touch the most
//! recent months.
//!
//! Faithful detail: the synopsis itself is stored "in the same columnar
//! compressed representation" — [`Synopsis::size_bytes`] measures the
//! min/max vectors re-encoded with minus encoding, which is what makes the
//! metadata ~3 orders of magnitude smaller than the user data.

use dash_encoding::bitmap::Bitmap;
use dash_encoding::minus::MinusBlock;

/// Per-column synopsis state.
#[derive(Debug, Clone, Default)]
struct ColumnSynopsis {
    mins: Vec<u64>,
    maxs: Vec<u64>,
    has_nulls: Vec<bool>,
    /// Strides where the column was entirely NULL (no min/max).
    all_null: Vec<bool>,
}

/// The per-table data-skipping metadata.
#[derive(Debug, Clone)]
pub struct Synopsis {
    columns: Vec<ColumnSynopsis>,
    strides: usize,
}

impl Synopsis {
    /// Empty synopsis for `ncols` columns.
    pub fn new(ncols: usize) -> Synopsis {
        Synopsis {
            columns: vec![ColumnSynopsis::default(); ncols],
            strides: 0,
        }
    }

    /// Record a sealed stride for column `col`. Call once per column per
    /// stride, columns in any order but strides in order.
    pub fn push_stride(&mut self, col: usize, min_max: Option<(u64, u64)>, has_nulls: bool) {
        let c = &mut self.columns[col];
        match min_max {
            Some((lo, hi)) => {
                c.mins.push(lo);
                c.maxs.push(hi);
                c.all_null.push(false);
            }
            None => {
                c.mins.push(0);
                c.maxs.push(0);
                c.all_null.push(true);
            }
        }
        c.has_nulls.push(has_nulls);
        self.strides = self.strides.max(c.mins.len());
    }

    /// Number of strides covered.
    pub fn stride_count(&self) -> usize {
        self.strides
    }

    /// The recorded (min, max) of column `col` in `stride`, or `None` if
    /// the stride was all NULL.
    pub fn stride_range(&self, col: usize, stride: usize) -> Option<(u64, u64)> {
        let c = &self.columns[col];
        if c.all_null[stride] {
            None
        } else {
            Some((c.mins[stride], c.maxs[stride]))
        }
    }

    /// Bitmap over strides that *may* contain a value of column `col`
    /// within `[lo, hi]` (orderable domain, either bound optional). Strides
    /// outside the range are pruned — the scan never reads their pages.
    pub fn candidate_strides(&self, col: usize, lo: Option<u64>, hi: Option<u64>) -> Bitmap {
        let c = &self.columns[col];
        let mut out = Bitmap::zeros(self.strides);
        for s in 0..c.mins.len() {
            if c.all_null[s] {
                continue;
            }
            let smin = c.mins[s];
            let smax = c.maxs[s];
            let below = hi.is_some_and(|hi| smin > hi);
            let above = lo.is_some_and(|lo| smax < lo);
            if !below && !above {
                out.set(s);
            }
        }
        out
    }

    /// Strides that contain at least one NULL in `col` (for IS NULL).
    pub fn null_strides(&self, col: usize) -> Bitmap {
        let c = &self.columns[col];
        let mut out = Bitmap::zeros(self.strides);
        for (s, &h) in c.has_nulls.iter().enumerate() {
            if h {
                out.set(s);
            }
        }
        out
    }

    /// Size of the synopsis stored in its own compressed columnar form:
    /// per column, the min and max vectors minus-encoded, plus one bit per
    /// stride for each flag.
    pub fn size_bytes(&self) -> usize {
        let mut total = 0usize;
        for c in &self.columns {
            let mins: Vec<Option<u64>> = c.mins.iter().copied().map(Some).collect();
            let maxs: Vec<Option<u64>> = c.maxs.iter().copied().map(Some).collect();
            total += MinusBlock::encode(&mins).size_bytes();
            total += MinusBlock::encode(&maxs).size_bytes();
            total += c.has_nulls.len().div_ceil(8) * 2; // two flag bitmaps
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> Synopsis {
        // One column, 10 strides covering [s*100, s*100+99].
        let mut syn = Synopsis::new(1);
        for s in 0..10u64 {
            syn.push_stride(0, Some((s * 100, s * 100 + 99)), s % 2 == 0);
        }
        syn
    }

    #[test]
    fn pruning_by_range() {
        let syn = build();
        // Value 250 lives in stride 2 only.
        let c = syn.candidate_strides(0, Some(250), Some(250));
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![2]);
        // Range 150..=320 overlaps strides 1, 2, 3.
        let c = syn.candidate_strides(0, Some(150), Some(320));
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3]);
        // Open-ended: >= 850 overlaps strides 8, 9.
        let c = syn.candidate_strides(0, Some(850), None);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![8, 9]);
        // Out of range entirely.
        let c = syn.candidate_strides(0, Some(5000), None);
        assert_eq!(c.count_ones(), 0);
        // Unbounded keeps everything.
        let c = syn.candidate_strides(0, None, None);
        assert_eq!(c.count_ones(), 10);
    }

    #[test]
    fn all_null_strides_never_candidates() {
        let mut syn = Synopsis::new(1);
        syn.push_stride(0, None, true);
        syn.push_stride(0, Some((5, 10)), false);
        let c = syn.candidate_strides(0, Some(0), Some(100));
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(syn.stride_range(0, 0), None);
    }

    #[test]
    fn null_strides_tracked() {
        let syn = build();
        let n = syn.null_strides(0);
        assert_eq!(n.iter_ones().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn synopsis_is_small() {
        // 1000 strides of ~1K tuples = ~1M rows; synopsis must be tiny.
        let mut syn = Synopsis::new(1);
        for s in 0..1000u64 {
            syn.push_stride(0, Some((s * 1000, s * 1000 + 999)), false);
        }
        let user_data_bytes = 1000 * 1024 * 8; // ~8 MB of raw u64s
        let ratio = user_data_bytes as f64 / syn.size_bytes() as f64;
        assert!(
            ratio > 500.0,
            "synopsis should be ~3 orders of magnitude smaller, ratio {ratio:.0}"
        );
    }
}
