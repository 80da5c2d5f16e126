//! Criterion: cache-conscious partitioned hash join, alone and feeding a
//! grouped aggregate (§II.B.7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dash_common::{row, Field, Row, Schema};
use dash_exec::agg::{AggExpr, AggFunc};
use dash_exec::batch::Batch;
use dash_exec::expr::Expr;
use dash_exec::functions::EvalContext;
use dash_exec::join::{hash_join, JoinType};
use dash_exec::key::KeyMode;
use dash_exec::stats::ExecStats;

fn fact(n: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::not_null("fk", dash_common::DataType::Int64),
        Field::new("v", dash_common::DataType::Float64),
    ])
    .expect("schema");
    let rows: Vec<Row> = (0..n)
        .map(|i| row![(i % 1000) as i64, (i % 97) as f64])
        .collect();
    Batch::from_rows(schema, &rows).expect("batch")
}

fn dim() -> Batch {
    let schema = Schema::new(vec![
        Field::not_null("pk", dash_common::DataType::Int64),
        Field::new("label", dash_common::DataType::Utf8),
    ])
    .expect("schema");
    let rows: Vec<Row> = (0..1000)
        .map(|i| row![i as i64, format!("label-{}", i % 25)])
        .collect();
    Batch::from_rows(schema, &rows).expect("batch")
}

fn bench_join(c: &mut Criterion) {
    let d = dim();
    let mut group = c.benchmark_group("hash_join");
    for n in [10_000usize, 100_000] {
        let f = fact(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("inner", n), &f, |b, f| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                let stmt = dash_common::StatementContext::unbounded();
                hash_join(f, &d, &[(0, 0)], JoinType::Inner, KeyMode::Encoded, 1, &stmt, &mut stats).expect("join")
            })
        });
    }
    group.finish();
}

fn bench_join_then_agg(c: &mut Criterion) {
    let d = dim();
    let out_schema = Schema::new(vec![
        Field::new("label", dash_common::DataType::Utf8),
        Field::new("cnt", dash_common::DataType::Int64),
        Field::new("total", dash_common::DataType::Float64),
    ])
    .expect("schema");
    let group_exprs = vec![Expr::col(3)]; // label in joined schema
    let aggs = vec![
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
    ];
    let ctx = EvalContext::default();
    let mut group = c.benchmark_group("join_aggregate");
    for n in [10_000usize, 100_000] {
        let f = fact(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("join_then_agg", n), &f, |b, f| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                let stmt = dash_common::StatementContext::unbounded();
                let joined =
                    hash_join(f, &d, &[(0, 0)], JoinType::Inner, KeyMode::Encoded, 1, &stmt, &mut stats).expect("join");
                dash_exec::agg::hash_aggregate(
                    &joined,
                    &group_exprs,
                    &aggs,
                    out_schema.clone(),
                    &ctx,
                    KeyMode::Encoded,
                    1,
                    &mut stats,
                )
                .expect("agg")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join, bench_join_then_agg);
criterion_main!(benches);
