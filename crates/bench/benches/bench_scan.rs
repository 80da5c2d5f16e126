//! Criterion: predicate evaluation on compressed codes.
//!
//! Backs `repro_simd` with statistically sound measurements: the
//! word-parallel SWAR kernel vs the code-at-a-time scalar loop vs
//! decompress-then-compare, across code widths; plus end-to-end table
//! scans with and without data skipping, and the scan's two inner stages
//! on one stride (predicate bitmap, positional decode of the survivors).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dash_encoding::bitpack::BitPackedVec;
use dash_exec::simd::{eval_range, eval_range_scalar};

fn bench_predicate_eval(c: &mut Criterion) {
    let n = 64 * 1024;
    let mut group = c.benchmark_group("predicate_eval");
    group.throughput(Throughput::Elements(n as u64));
    for width in [2u8, 4, 8, 13, 17] {
        let max = (1u64 << width) - 1;
        let codes: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) & max).collect();
        let packed = BitPackedVec::from_codes(width, &codes);
        let (lo, hi) = (max / 4, max / 2);
        group.bench_with_input(BenchmarkId::new("simd", width), &packed, |b, p| {
            b.iter(|| eval_range(p, lo, hi).count_ones())
        });
        group.bench_with_input(BenchmarkId::new("scalar", width), &packed, |b, p| {
            b.iter(|| eval_range_scalar(p, lo, hi).count_ones())
        });
        group.bench_with_input(
            BenchmarkId::new("decode_then_compare", width),
            &packed,
            |b, p| {
                b.iter(|| {
                    let decoded = p.to_vec();
                    decoded.iter().filter(|&&v| v >= lo && v <= hi).count()
                })
            },
        );
    }
    group.finish();
}

fn bench_table_scan(c: &mut Criterion) {
    use dash_common::{row, Datum, Field, Schema};
    use dash_exec::functions::EvalContext;
    use dash_encoding::column::ColumnValues;
    use dash_exec::scan::{eval_predicate_on_block, scan, ColumnPredicate, ScanConfig};
    use dash_storage::table::{ColumnTable, STRIDE};

    let n = 100_000usize;
    let schema = Schema::new(vec![
        Field::not_null("id", dash_common::DataType::Int64),
        Field::new("d", dash_common::DataType::Date),
        Field::new("v", dash_common::DataType::Float64),
    ])
    .expect("schema");
    let mut t = ColumnTable::new("T", schema);
    let rows: Vec<dash_common::Row> = (0..n)
        .map(|i| row![i as i64, Datum::Date((i / 64) as i32), (i % 97) as f64])
        .collect();
    t.load_rows(rows).expect("load");
    let ctx = EvalContext::default();
    let mut group = c.benchmark_group("table_scan");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("full_scan_project2", |b| {
        b.iter(|| scan(&t, &ScanConfig::full(0, vec![0, 2]), &ctx).expect("scan"))
    });
    group.bench_function("selective_with_skipping", |b| {
        let cfg = ScanConfig {
            predicates: vec![ColumnPredicate::Range {
                col: 1,
                lo: Some(Datum::Date(1500)),
                hi: None,
            }],
            ..ScanConfig::full(0, vec![0, 2])
        };
        b.iter(|| scan(&t, &cfg, &ctx).expect("scan"))
    });
    group.finish();

    // One stride, stage by stage: `v < 3` keeps about 3 % of the rows.
    let pred = ColumnPredicate::Range {
        col: 2,
        lo: None,
        hi: Some(Datum::Float(2.0)),
    };
    let enc = t.encoding(2).expect("sealed column has an encoding");
    let bitmap = || {
        eval_predicate_on_block(&pred, t.block(2, 0), enc, dash_common::DataType::Float64)
            .expect("predicate")
    };
    let survivors: Vec<usize> = bitmap().iter_ones().collect();
    let mut group = c.benchmark_group("stride_stages");
    group.throughput(Throughput::Elements(STRIDE as u64));
    group.bench_function("predicate_bitmap", |b| b.iter(bitmap));
    group.bench_function("decode_at_survivors_project2", |b| {
        b.iter(|| {
            let mut id = ColumnValues::Int(Vec::new());
            let mut v = ColumnValues::Float(Vec::new());
            t.decode_at(0, 0, &survivors, &mut id).expect("decode");
            t.decode_at(2, 0, &survivors, &mut v).expect("decode");
            (id, v)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_predicate_eval, bench_table_scan);
criterion_main!(benches);
