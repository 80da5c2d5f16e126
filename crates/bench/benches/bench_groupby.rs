//! Criterion: the aggregate kernel — a bare-column key against a computed
//! one across group cardinalities (4 to 64 K groups, the last more groups
//! than a morsel has rows), a global aggregate, and a two-key (int, string)
//! group-by.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dash_common::{row, Field, Row, Schema};
use dash_exec::agg::{hash_aggregate, AggExpr, AggFunc};
use dash_exec::key::KeyMode;
use dash_exec::batch::Batch;
use dash_exec::expr::{ArithOp, Expr};
use dash_exec::functions::EvalContext;
use dash_exec::stats::ExecStats;

fn batch(n: usize, groups: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::new("g", dash_common::DataType::Int64),
        Field::new("v", dash_common::DataType::Float64),
        Field::new("s", dash_common::DataType::Utf8),
    ])
    .expect("schema");
    let labels: Vec<std::sync::Arc<str>> = (0..23).map(|l| format!("L{l}").into()).collect();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let label = dash_common::Datum::Str(labels[i % 23].clone());
            row![(i % groups) as i64, (i % 101) as f64, label]
        })
        .collect();
    Batch::from_rows(schema, &rows).expect("batch")
}

/// Output schema for `keys` group columns followed by `COUNT(*), SUM(v)`.
fn out_schema(keys: &[(&str, dash_common::DataType)]) -> Schema {
    let mut fields: Vec<Field> = keys.iter().map(|(n, dt)| Field::new(*n, *dt)).collect();
    fields.push(Field::new("cnt", dash_common::DataType::Int64));
    fields.push(Field::new("total", dash_common::DataType::Float64));
    Schema::new(fields).expect("schema")
}

fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr {
            func: AggFunc::CountStar,
            args: vec![],
            distinct: false,
            arg_types: vec![],
        },
        AggExpr {
            func: AggFunc::Sum,
            args: vec![Expr::col(1)],
            distinct: false,
            arg_types: vec![dash_common::DataType::Float64],
        },
    ]
}

fn bench_groupby(c: &mut Criterion) {
    let n = 200_000usize;
    let ctx = EvalContext::default();
    let schema = out_schema(&[("g", dash_common::DataType::Int64)]);
    let mut group = c.benchmark_group("group_by");
    group.throughput(Throughput::Elements(n as u64));
    for cardinality in [4usize, 256, 16_384, 65_536] {
        let b = batch(n, cardinality);
        // Bare column key: key words straight off the column.
        group.bench_with_input(
            BenchmarkId::new("encoded", cardinality),
            &b,
            |bench, input| {
                bench.iter(|| {
                    let mut stats = ExecStats::default();
                    hash_aggregate(
                        input,
                        &[Expr::col(0)],
                        &aggs(),
                        schema.clone(),
                        &ctx,
                        KeyMode::Encoded,
                        1,
                        &mut stats,
                    )
                    .expect("agg")
                })
            },
        );
        // The key is an expression (g + 0 is semantically the same key),
        // so it is evaluated once per morsel into a scratch key column.
        group.bench_with_input(
            BenchmarkId::new("computed_key", cardinality),
            &b,
            |bench, input| {
                let key = Expr::Arith(
                    ArithOp::Add,
                    Box::new(Expr::col(0)),
                    Box::new(Expr::lit(0i64)),
                );
                bench.iter(|| {
                    let mut stats = ExecStats::default();
                    hash_aggregate(
                        input,
                        std::slice::from_ref(&key),
                        &aggs(),
                        schema.clone(),
                        &ctx,
                        KeyMode::Encoded,
                        1,
                        &mut stats,
                    )
                    .expect("agg")
                })
            },
        );
    }
    let b = batch(n, 256);
    let run = |input: &Batch, keys: &[Expr], schema: &Schema| {
        let mut stats = ExecStats::default();
        hash_aggregate(input, keys, &aggs(), schema.clone(), &ctx, KeyMode::Encoded, 1, &mut stats)
            .expect("agg")
    };
    let global = out_schema(&[]);
    group.bench_with_input(BenchmarkId::new("global", 1), &b, |bench, input| {
        bench.iter(|| run(input, &[], &global))
    });
    let two = out_schema(&[("g", dash_common::DataType::Int64), ("s", dash_common::DataType::Utf8)]);
    group.bench_with_input(BenchmarkId::new("two_key_int_str", 256 * 23), &b, |bench, input| {
        bench.iter(|| run(input, &[Expr::col(0), Expr::col(2)], &two))
    });
    group.finish();
}

criterion_group!(benches, bench_groupby);
criterion_main!(benches);
