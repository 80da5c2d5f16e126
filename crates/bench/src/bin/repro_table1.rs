//! Reproduces **Table 1** — the paper's four workload performance tests.
//!
//! | | paper | what this binary measures |
//! |---|---|---|
//! | Test 1 | customer workload serial queries, avg 27.1× / median 6.3× vs appliance | long-tail analytic query set on dashDB vs the row-store appliance model |
//! | Test 2 | concurrent customer workload (up to 100 streams), 2.1× workload time | the full statement mix over N streams on both engines |
//! | Test 3 | TPC-DS queries, 2.1× avg speedup vs (FPGA) appliance | TPC-DS-like query set vs the FPGA-assisted appliance model |
//! | Test 4 | BD Insight 5 streams on AWS, 3.2× QpH vs cloud column store | 5 streams vs the same engine with predicates decoded before compare, on identical hardware |
//!
//! Absolute numbers differ from the paper (their testbed was physical
//! hardware at 25 TB); the *shape* — dashDB wins every test, Test 1's mean
//! far above its median, Tests 3/4 winning by small factors — is the
//! reproduction target. Run with `--test N` for one test, default all.

use dash_bench::*;
use dash_core::{Database, HardwareSpec};
use dash_rowstore::engine::RowEngine;
use dash_workloads::concurrent::{retry_conflicts, MixConfig};
use dash_workloads::{bdinsight, customer, tpcds};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let which: Option<u32> = std::env::args()
        .skip_while(|a| a != "--test")
        .nth(1)
        .and_then(|v| v.parse().ok());
    println!("Table 1 reproduction — dashdb-local-rs");
    if which.is_none() || which == Some(1) {
        test1();
    }
    if which.is_none() || which == Some(2) {
        test2();
    }
    if which.is_none() || which == Some(3) {
        test3();
    }
    if which.is_none() || which == Some(4) {
        test4();
    }
}

/// Test 1: serial long-tail analytic queries, dashDB vs appliance.
fn test1() {
    section("Test 1: customer workload, serial query performance");
    let scale = 200_000;
    let w = customer::generate(scale, 0);
    // Model the paper's data >> RAM regime: both engines get a pool that
    // holds ~10% of the (row-organized) table pages.
    let raw_bytes: usize = w.tables.iter().map(|t| t.rows.len() * 72).sum();
    let pool_pages = (raw_bytes / (32 * 1024) / 10).max(16);
    let db = Database::with_pool_pages(HardwareSpec::laptop(), pool_pages);
    let mut row = RowEngine::new(Some(pool_pages));
    for t in &w.tables {
        load_into_db(&db, t).expect("load db");
        load_into_row_engine(&mut row, t).expect("load row");
    }
    let mut session = db.connect();
    let mut speedups = Vec::new();
    // No warm-up: every query is distinct, as in the paper's 3,500-query
    // serial measurement.
    for q in &w.analytic_queries {
        let (a, _, t_db) = run_on_db(&mut session, q).expect("db query");
        let (b, _, t_row) = run_on_row(&row, q).expect("row query");
        assert_eq!(a, b, "engines disagree on {}", q.to_sql());
        speedups.push(t_row.total() / t_db.total().max(1e-9));
    }
    report("queries", speedups.len());
    report("avg query speedup (paper: 27.1x)", format!("{:.1}x", mean(&speedups)));
    report(
        "median query speedup (paper: 6.3x)",
        format!("{:.1}x", median(&speedups)),
    );
    report("geomean speedup", format!("{:.1}x", geomean(&speedups)));
    let shape_ok = mean(&speedups) > median(&speedups) && median(&speedups) > 1.0;
    report(
        "shape check (avg >> median > 1)",
        if shape_ok { "PASS" } else { "FAIL" },
    );
}

/// Test 2: the concurrent mixed workload.
fn test2() {
    section("Test 2: customer workload, concurrent throughput");
    let scale = 60_000;
    let streams = 8usize;
    let per_stream = 400usize;
    let w = customer::generate(scale, 0);
    let n_accts = w.tables[1].rows.len();
    // Table 1's Test 1/2 hardware: 4 nodes x 20 cores — model one fat
    // node so the WLM admits enough concurrent streams, and keep the
    // data >> RAM pool regime on both engines.
    let hw = HardwareSpec::new(32, 64 * 1024);
    let raw_bytes: usize = w.tables.iter().map(|t| t.rows.len() * 72).sum();
    let pool_pages = (raw_bytes / (32 * 1024) / 10).max(16);

    // dashDB: shared engine, one session per stream, WLM-gated.
    let db = Database::with_pool_pages(hw, pool_pages);
    for t in &w.tables {
        load_into_db(&db, t).expect("load db");
    }
    let started = Instant::now();
    let conflicts = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for s in 0..streams {
            let db: Arc<Database> = db.clone();
            let queries = w.analytic_queries.clone();
            let conflicts = &conflicts;
            scope.spawn(move |_| {
                let stmts = customer::statement_stream(
                    &format!("w{s}"),
                    scale,
                    n_accts,
                    per_stream,
                    &queries,
                );
                let mut session = db.connect();
                // A first-writer-wins conflict (40001) is the engine working
                // as designed: retry the statement. Anything else fails
                // the run.
                let retries = MixConfig::default().max_retries;
                for st in &stmts {
                    let (outcome, hit) = retry_conflicts(retries, || session.execute(&st.sql));
                    conflicts.fetch_add(hit, Ordering::Relaxed);
                    if let Err(e) = outcome {
                        panic!("stream {s} failed on `{}`: {e}", st.sql);
                    }
                }
            });
        }
    })
    .expect("scope");
    let dash_s = started.elapsed().as_secs_f64();

    // Appliance: same streams, programmatic ops, one RowEngine per stream
    // (generous: no cross-stream locking), HDD-class I/O charged per
    // analytic query at the end via the serial-equivalent measure.
    let started = Instant::now();
    let io_s: f64 = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams)
            .map(|s| {
                let tables = w.tables.clone();
                let queries = w.analytic_queries.clone();
                scope.spawn(move |_| {
                    let mut engine = RowEngine::new(Some(pool_pages));
                    for t in &tables {
                        load_into_row_engine(&mut engine, t).expect("load");
                    }
                    let stmts = customer::statement_stream(
                        &format!("w{s}"),
                        scale,
                        n_accts,
                        per_stream,
                        &queries,
                    );
                    let mut io = 0.0;
                    for st in &stmts {
                        if let customer::MixedOp::Analytic(spec) = &st.op {
                            let (_, _, t) = run_on_row(&engine, spec).expect("row query");
                            io += t.sim_io_s;
                        } else {
                            run_mixed_on_row(&mut engine, &st.op).expect("row op");
                        }
                    }
                    io
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("join")).sum()
    })
    .expect("scope");
    // Streams overlap; charge the per-node I/O as parallel across streams.
    let appliance_s = started.elapsed().as_secs_f64() + io_s / streams as f64;
    report("streams", streams);
    report("statements per stream", per_stream);
    report("dashDB workload time", format!("{dash_s:.2} s"));
    report("dashDB write conflicts retried (40001)", conflicts.load(Ordering::Relaxed));
    report("appliance workload time", format!("{appliance_s:.2} s"));
    report(
        "workload time improvement (paper: 2.1x)",
        format!("{:.1}x", appliance_s / dash_s.max(1e-9)),
    );
}

/// Row-for-row equality, float sums to nine significant digits: the two
/// engines add a group's 200 K values in different orders, and the
/// normalized results round at an absolute 1e-6.
fn same_rows(a: &[dash_common::Row], b: &[dash_common::Row]) -> bool {
    let same = |(x, y): (&dash_common::Datum, &dash_common::Datum)| match (x, y) {
        (dash_common::Datum::Float(x), dash_common::Datum::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => x == y,
    };
    a.len() == b.len() && a.iter().zip(b).all(|(r, s)| r.values().len() == s.values().len() && r.values().iter().zip(s.values()).all(same))
}

/// Test 3: TPC-DS-like queries vs the FPGA-assisted appliance.
fn test3() {
    section("Test 3: TPC-DS benchmark vs appliance");
    let scale = 2_000_000;
    let w = tpcds::generate(scale);
    let raw_bytes: usize = w.tables.iter().map(|t| t.rows.len() * 90).sum();
    let pool_pages = (raw_bytes / (32 * 1024) / 10).max(16);
    let db = Database::with_pool_pages(HardwareSpec::laptop(), pool_pages);
    let mut row = RowEngine::new(Some(pool_pages));
    for t in &w.tables {
        load_into_db(&db, t).expect("load db");
        load_into_row_engine(&mut row, t).expect("load row");
    }
    let fact_bytes = row.total_bytes("store_sales").expect("bytes") as u64;
    let mut session = db.connect();
    let mut speedups = Vec::new();
    for q in &w.queries {
        let _ = run_on_db(&mut session, q); // warm
        let (a, stats, t_db) = run_on_db(&mut session, q).expect("db query");
        let (b, _, _) = run_on_row(&row, q).expect("row query");
        assert!(same_rows(&a, &b), "engines disagree on {}:\n{a:?}\n{b:?}", q.to_sql());
        // FPGA appliance model: the FPGAs filter at wire speed (row-engine
        // CPU is not charged) and zone maps skip extents the way our
        // synopsis does, so the appliance streams only the candidate
        // fraction of the full-width rows from its disk array.
        let candidate_fraction = if stats.strides_total > 0 {
            (stats.strides_scanned as f64 / stats.strides_total as f64).max(0.01)
        } else {
            1.0
        };
        let t_appliance =
            appliance_fpga_time_s((fact_bytes as f64 * candidate_fraction) as u64);
        speedups.push(t_appliance / t_db.total().max(1e-9));
    }
    report("queries", speedups.len());
    report(
        "avg query speedup (paper: 2.1x)",
        format!("{:.1}x", mean(&speedups)),
    );
    report("geomean speedup", format!("{:.1}x", geomean(&speedups)));
    report(
        "shape check (dashDB wins, single-digit factor)",
        if mean(&speedups) > 1.0 { "PASS" } else { "FAIL" },
    );
}

/// Test 4: 5-stream throughput vs a column store without BLU's scan
/// techniques — the same engine, predicates decoded first, encoding kept.
fn test4() {
    section("Test 4: BD Insight 5-stream throughput on identical hardware");
    report(
        "competitor",
        "dashDB with predicates decoded before compare (no code-domain compare, no synopsis skipping)",
    );
    let scale = 150_000;
    let w = bdinsight::generate(scale);
    let db = Database::untracked();
    let ablated = Database::untracked();
    ablated.catalog().set_compressed_predicates(false);
    for t in &w.tables {
        load_into_db(&db, t).expect("load db");
        load_into_db(&ablated, t).expect("load competitor");
    }
    // Every stream, untimed: the engines agree, and no competitor scan
    // evaluates a predicate on codes.
    {
        let mut session = db.connect();
        let mut competitor = ablated.connect();
        for q in w.streams.iter().flatten() {
            let (a, _, _) = run_on_db(&mut session, q).expect("db");
            let (b, _, _) = run_on_db(&mut competitor, q).expect("competitor");
            assert_eq!(a, b, "engines disagree on {}", q.to_sql());
        }
        for q in &w.streams[0] {
            let plan = competitor.query(&format!("EXPLAIN {}", q.to_sql())).expect("explain");
            for line in plan.iter().map(|r| r.get(0).render()) {
                assert!(
                    !line.contains("ColumnScan") || line.contains(" preds=0 "),
                    "competitor pushed a predicate: {line}"
                );
            }
        }
    }
    let total_queries: usize = w.streams.iter().map(|s| s.len()).sum();
    let timed = |db: &Arc<Database>| {
        let started = Instant::now();
        crossbeam::thread::scope(|scope| {
            for stream in &w.streams {
                let db = db.clone();
                scope.spawn(move |_| {
                    let mut session = db.connect();
                    for q in stream {
                        run_on_db(&mut session, q).expect("query");
                    }
                });
            }
        })
        .expect("scope");
        started.elapsed().as_secs_f64()
    };
    let dash_s = timed(&db);
    let competitor_s = timed(&ablated);

    let dash_qph = bdinsight::qph(total_queries, dash_s);
    let competitor_qph = bdinsight::qph(total_queries, competitor_s);
    report("streams x queries", format!("{} x {}", w.streams.len(), total_queries / w.streams.len()));
    report("agreement", format!("all {total_queries} queries of every stream"));
    report("dashDB QpH", format!("{dash_qph:.0}"));
    report("competitor QpH", format!("{competitor_qph:.0}"));
    report(
        "throughput increase (paper: 3.2x)",
        format!("{:.1}x", dash_qph / competitor_qph.max(1e-9)),
    );
}
