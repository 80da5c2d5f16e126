//! Criterion: grouped aggregation — encoded key words against evaluated
//! `Datum` keys, across group cardinalities.

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
    ])
    .expect("schema");
    let rows: Vec<Row> = (0..n)
        .map(|i| row![(i % groups) as i64, (i % 101) as f64])
        .collect();
    Batch::from_rows(schema, &rows).expect("batch")
}

fn out_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", dash_common::DataType::Int64),
        Field::new("cnt", dash_common::DataType::Int64),
        Field::new("total", dash_common::DataType::Float64),
    ])
    .expect("schema")
}

fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr {
            func: AggFunc::CountStar,
            args: vec![],
            distinct: false,
        },
        AggExpr {
            func: AggFunc::Sum,
            args: vec![Expr::col(1)],
            distinct: false,
        },
    ]
}

fn bench_groupby(c: &mut Criterion) {
    let n = 200_000usize;
    let ctx = EvalContext::default();
    let schema = out_schema();
    let mut group = c.benchmark_group("group_by");
    group.throughput(Throughput::Elements(n as u64));
    for cardinality in [4usize, 256, 16_384] {
        let b = batch(n, cardinality);
        // Bare column key: groups on encoded key words.
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
        // so it is evaluated per row and grouped as a `Datum`.
        group.bench_with_input(
            BenchmarkId::new("datum", cardinality),
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
    group.finish();
}

criterion_group!(benches, bench_groupby);
criterion_main!(benches);
