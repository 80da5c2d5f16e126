//! Criterion: codec encode/decode throughput per encoding family — whole
//! blocks and the scan's positional decode at 1-in-64 survivors — plus the
//! classic row-compression baseline for context.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dash_encoding::baseline::RowCompressor;
use dash_encoding::column::{decode_target, ColumnCompressor, ColumnValues};
use dash_encoding::strs::StrColumn;

fn bench_encode_decode(c: &mut Criterion) {
    let n = 64 * 1024usize;
    let comp = ColumnCompressor::new();
    let mut cases: Vec<(&str, ColumnValues)> = vec![
        (
            "int_low_cardinality(dict)",
            ColumnValues::Int((0..n).map(|i| Some((i % 16) as i64)).collect()),
        ),
        (
            "int_high_cardinality(minus)",
            ColumnValues::Int((0..n).map(|i| Some(1_000_000 + i as i64 * 3)).collect()),
        ),
        (
            "float(minus)",
            ColumnValues::Float((0..n).map(|i| Some(i as f64 * 0.37)).collect()),
        ),
        (
            "string(dict)",
            ColumnValues::Str(StrColumn::from_values(
                (0..n).map(|i| format!("region-{:02}", i % 40)).collect::<Vec<_>>().iter().map(|s| Some(s.as_str())),
            )),
        ),
    ];
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Elements(n as u64));
    for (name, values) in &mut cases {
        // A string column becomes codes of its dictionary's pool, as a
        // table's values do.
        let enc = comp.analyze(values);
        let values = &*values;
        group.bench_function(format!("encode/{name}"), |b| {
            b.iter(|| comp.encode_block(&enc, values, 0..values.len()))
        });
        let block = comp.encode_block(&enc, values, 0..values.len());
        group.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| comp.decode_block(&enc, &block).expect("decode"))
        });
        // The scan's late materialization: only the survivors' values.
        let survivors: Vec<usize> = (0..n).step_by(64).collect();
        let target = decode_target(&enc);
        group.bench_function(format!("decode_1_in_64/{name}"), |b| {
            b.iter(|| {
                let mut out = target.clone();
                comp.decode(&enc, &block, &survivors, &mut out).expect("decode");
                out
            })
        });
    }
    group.finish();
}

fn bench_row_compression_baseline(c: &mut Criterion) {
    use dash_common::row;
    let rows: Vec<dash_common::Row> = (0..8192)
        .map(|i| row![(i % 100) as i64, "STATUS-ACTIVE", (i % 7) as f64])
        .collect();
    let trained = RowCompressor::train(&rows);
    let mut group = c.benchmark_group("classic_row_compression");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("compressed_size", |b| {
        b.iter(|| trained.total_compressed(&rows))
    });
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_row_compression_baseline);
criterion_main!(benches);
