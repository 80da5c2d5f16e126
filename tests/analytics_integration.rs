//! Cross-crate integration: the analytics runtime against engine data —
//! transfer, datasets, ML, and SQL/analytics agreement on shared data.

use dashdb_local::analytics::dataset::Dataset;
use dashdb_local::analytics::ml::{kmeans, linear_regression, logistic_regression, sigmoid};
use dashdb_local::analytics::transfer::{read_table, read_table_then_filter, TransferMode};
use dashdb_local::analytics::Dispatcher;
use dashdb_local::common::Datum;
use dashdb_local::core::{Database, HardwareSpec};
use std::sync::Arc;

fn db_with_obs(n: usize) -> Arc<Database> {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE obs (id BIGINT, x DOUBLE, y DOUBLE, seg INT)")
        .unwrap();
    let mut chunk = Vec::new();
    for i in 0..n {
        let x = (i % 500) as f64 / 5.0;
        chunk.push(format!(
            "({i}, {x}, {}, {})",
            4.0 * x - 3.0 + ((i % 7) as f64 / 10.0),
            i % 3
        ));
        if chunk.len() == 500 {
            s.execute(&format!("INSERT INTO obs VALUES {}", chunk.join(",")))
                .unwrap();
            chunk.clear();
        }
    }
    db
}

#[test]
fn sql_aggregate_matches_dataset_aggregate() {
    let db = db_with_obs(5000);
    let mut s = db.connect();
    let sql_sum = s.query("SELECT SUM(y) FROM obs").unwrap()[0]
        .get(0)
        .as_float()
        .unwrap();
    let (ds, stats) =
        read_table(&db, "obs", &["y"], None, TransferMode::Collocated, 8).unwrap();
    assert_eq!(stats.rows, 5000);
    let ds_sum = ds.sum_column(0).unwrap();
    assert!((sql_sum - ds_sum).abs() < 1e-6, "{sql_sum} vs {ds_sum}");
}

#[test]
fn pushdown_equals_worker_filter() {
    let db = db_with_obs(3000);
    let (pushed, pushed_stats) = read_table(
        &db,
        "obs",
        &["id", "x"],
        Some("seg = 2"),
        TransferMode::Collocated,
        4,
    )
    .unwrap();
    let (filtered, full_stats) = read_table_then_filter(
        &db,
        "obs",
        &["id", "x", "seg"],
        |r| r.get(2).as_int() == Some(2),
        TransferMode::Collocated,
        4,
    )
    .unwrap();
    assert_eq!(pushed.count(), filtered.count());
    assert!(pushed_stats.bytes < full_stats.bytes / 2);
}

#[test]
fn glm_on_engine_data_recovers_model() {
    let db = db_with_obs(4000);
    let (ds, _) =
        read_table(&db, "obs", &["x", "y"], None, TransferMode::Collocated, 4).unwrap();
    let fs = ds.to_features(&[0], 1).unwrap();
    let m = linear_regression(&fs, 600, 1.0).unwrap();
    assert!((m.weights[0] - 4.0).abs() < 0.1, "slope {}", m.weights[0]);
    assert!((m.intercept + 3.0).abs() < 0.6, "intercept {}", m.intercept);
}

#[test]
fn kmeans_on_engine_data() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    let mut values = Vec::new();
    for i in 0..600 {
        let c = (i % 2) as f64 * 50.0;
        values.push(format!("({}, 0.0)", c + (i % 9) as f64 / 3.0));
    }
    s.execute(&format!("INSERT INTO pts VALUES {}", values.join(",")))
        .unwrap();
    let (ds, _) = read_table(&db, "pts", &["x", "y"], None, TransferMode::Collocated, 3).unwrap();
    let fs = ds.to_features(&[0], 1).unwrap();
    let m = kmeans(&fs, 2, 30).unwrap();
    let mut cs: Vec<f64> = m.centroids.iter().map(|c| c[0]).collect();
    cs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!((cs[0] - 1.3).abs() < 1.5, "{cs:?}");
    assert!((cs[1] - 51.3).abs() < 1.5, "{cs:?}");
}

#[test]
fn logistic_on_engine_data() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE lab (x DOUBLE, label DOUBLE)").unwrap();
    let mut values = Vec::new();
    for i in 0..500 {
        let x = (i % 100) as f64;
        values.push(format!("({x}, {})", if x > 50.0 { 1.0 } else { 0.0 }));
    }
    s.execute(&format!("INSERT INTO lab VALUES {}", values.join(",")))
        .unwrap();
    let (ds, _) =
        read_table(&db, "lab", &["x", "label"], None, TransferMode::Collocated, 2).unwrap();
    let m = logistic_regression(&ds.to_features(&[0], 1).unwrap(), 1500, 2.0).unwrap();
    assert!(sigmoid(m.predict(&[90.0])) > 0.9);
    assert!(sigmoid(m.predict(&[10.0])) < 0.1);
}

#[test]
fn dataset_pipeline_over_transfer() {
    let db = db_with_obs(2000);
    let (ds, _) = read_table(&db, "obs", &["id", "seg"], None, TransferMode::Collocated, 6)
        .unwrap();
    let evens = ds.filter(|r| r.get(0).as_int().unwrap() % 2 == 0).unwrap();
    assert_eq!(evens.count(), 1000);
    let seg_total = evens.aggregate(
        || 0i64,
        |acc, r| acc + r.get(1).as_int().unwrap(),
        |a, b| a + b,
    )
    .unwrap();
    let mut s = db.connect();
    let sql = s
        .query("SELECT SUM(seg) FROM obs WHERE MOD(id, 2) = 0")
        .unwrap();
    assert_eq!(sql[0].get(0), &Datum::Int(seg_total));
}

#[test]
fn dispatcher_runs_analytics_jobs() {
    let db = db_with_obs(1000);
    let dispatcher = Dispatcher::new(db.config().analytics_mb);
    let db2 = db.clone();
    let job = dispatcher.submit("carol", "glm", move || {
        let (ds, _) =
            read_table(&db2, "obs", &["x", "y"], None, TransferMode::Collocated, 2)?;
        let m = linear_regression(&ds.to_features(&[0], 1)?, 200, 1.0)?;
        Ok(format!("slope={:.2}", m.weights[0]))
    });
    match dispatcher.status("carol", job).unwrap() {
        dashdb_local::analytics::JobStatus::Done(s) => assert!(s.starts_with("slope=4")),
        other => panic!("unexpected status {other:?}"),
    }
    let _ = Dataset::from_rows(
        dashdb_local::common::Schema::empty(),
        vec![],
        1,
    );
}
