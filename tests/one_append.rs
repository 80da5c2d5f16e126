//! One append path into a column table. Every write — LOAD, INSERT,
//! CTAS, UPDATE, recovery, the cluster load — goes through
//! `ColumnTable::append`: a statement is logged only after it has applied,
//! a bulk write is analysed over its whole input as LOAD is, and a
//! recovered table keeps its encodings. Plus the script splitter and the
//! cluster's broadcast refusing to add rows.

use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::mpp::{Cluster, Distribution};
use dashdb_local::storage::table::{ColumnTable, STRIDE};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dash-one-append-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn read(db: &Arc<Database>, sql: &str) -> Vec<Row> {
    db.connect().query(sql).unwrap()
}

/// A failed statement inside `BEGIN … COMMIT` leaves the table as the
/// session read it, before and after a reopen.
fn failed_statement_survives_reopen(tag: &str, setup: &[&str], failing: &str, check: &str) {
    let dir = tmpdir(tag);
    let before = {
        let db = Database::open(&dir).unwrap();
        let mut s = db.connect();
        for sql in setup {
            s.execute(sql).unwrap();
        }
        s.execute("BEGIN").unwrap();
        let e = s.execute(failing).unwrap_err();
        assert_eq!(e.class(), "23505", "{failing}: {e}");
        s.execute("COMMIT").unwrap();
        read(&db, check)
    };
    let db = Database::open(&dir).unwrap();
    assert_eq!(read(&db, check), before, "{failing}: recovery disagrees with the session");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_insert_select_logs_nothing() {
    failed_statement_survives_reopen(
        "insert-select",
        &[
            "CREATE TABLE src (k INT)",
            "INSERT INTO src VALUES (1), (2), (NULL)",
            "CREATE TABLE t (k INT NOT NULL)",
        ],
        "INSERT INTO t SELECT k FROM src",
        "SELECT k FROM t ORDER BY k",
    );
}

#[test]
fn failed_update_logs_nothing() {
    failed_statement_survives_reopen(
        "update",
        &[
            "CREATE TABLE t (id INT, k INT NOT NULL)",
            "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
        ],
        "UPDATE t SET k = CASE WHEN id = 3 THEN NULL ELSE k + 1 END",
        "SELECT id, k FROM t ORDER BY id",
    );
}

/// More than one stride whose first stride holds one value and whose later
/// rows are distinct: a first-stride analysis picks a one-entry
/// dictionary, an analysis of the whole input does not.
fn skewed_rows() -> Vec<Row> {
    (0..STRIDE * 2 + 500)
        .map(|i| {
            if i < STRIDE {
                row![0i64, "same"]
            } else {
                row![i as i64, format!("v{i}")]
            }
        })
        .collect()
}

fn skewed_schema() -> Schema {
    Schema::new(vec![Field::new("K", DataType::Int64), Field::new("V", DataType::Utf8)]).unwrap()
}

/// Per-column encoding name and distinct count, and the rows, of `table`.
fn layout(t: &ColumnTable) -> (Vec<String>, Vec<Option<u64>>, u64) {
    let names = (0..t.schema().len())
        .map(|c| t.encoding(c).map_or("none", |e| e.name()).to_string())
        .collect();
    (names, t.stats().column_ndv, t.live_rows())
}

fn loaded_layout(rows: Vec<Row>) -> (Vec<String>, Vec<Option<u64>>, u64) {
    let mut t = ColumnTable::new("L", skewed_schema());
    t.load_rows(rows).unwrap();
    layout(&t)
}

#[test]
fn ctas_is_encoded_as_load_encodes() {
    let dir = tmpdir("ctas");
    let db = Database::open(&dir).unwrap();
    let src = db.catalog().create_table("SRC", skewed_schema(), None).unwrap();
    src.write().load_rows(skewed_rows()).unwrap();
    db.connect().execute("CREATE TABLE c AS SELECT k, v FROM src").unwrap();
    let ctas = layout(&db.catalog().table_handle("C").unwrap().table.read());
    let loaded = loaded_layout(skewed_rows());
    assert_eq!(loaded.0, vec!["minus", "prefix+frequency-dict"]);
    assert_eq!(ctas, loaded);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_load_keeps_its_encodings() {
    let dir = tmpdir("checkpoint");
    let before = {
        let db = Database::open(&dir).unwrap();
        db.connect().execute("CREATE TABLE l (k BIGINT, v VARCHAR(16))").unwrap();
        let handle = db.catalog().table_handle("L").unwrap();
        handle.table.write().load_rows(skewed_rows()).unwrap();
        db.checkpoint().unwrap();
        let t = handle.table.read();
        assert_eq!(layout(&t), loaded_layout(skewed_rows()));
        layout(&t)
    };
    let db = Database::open(&dir).unwrap();
    let after = layout(&db.catalog().table_handle("L").unwrap().table.read());
    assert_eq!(after, before);
    let sum = read(&db, "SELECT SUM(k), COUNT(DISTINCT v) FROM l");
    let n = (STRIDE * 2 + 500) as i64;
    let expected: i64 = (STRIDE as i64..n).sum();
    assert_eq!(sum, vec![row![expected, n - STRIDE as i64 + 1]]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scripts_split_on_tokens() {
    let db = Database::new();
    let mut s = db.connect();
    let out = s.execute_script("SELECT 1 AS \"a;b\"; SELECT 2").unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].rows, vec![row![1i64]]);
    assert_eq!(out[1].rows, vec![row![2i64]]);
    // A script that does not tokenize fails before its first statement.
    let e = s.execute_script("CREATE TABLE z (x INT); SELECT 'oops").unwrap_err();
    assert_eq!(e.class(), "42601");
    assert!(s.query("SELECT * FROM z").is_err(), "no statement of the script ran");
}

#[test]
fn cluster_broadcast_refuses_to_add_rows() {
    let cluster = Cluster::new(2, 2, HardwareSpec::laptop()).unwrap();
    let schema = Schema::new(vec![Field::new("id", DataType::Int64)]).unwrap();
    cluster.create_table("f", schema, Distribution::Hash("id".into())).unwrap();
    cluster.load_rows("f", (0..10).map(|i| row![i as i64]).collect()).unwrap();
    for sql in [
        "INSERT INTO f VALUES (7)",
        "CREATE TABLE g AS SELECT id FROM f",
    ] {
        let e = cluster.execute_all(sql).unwrap_err();
        assert_eq!(e.class(), "0A000", "{sql}: {e}");
        assert!(e.to_string().contains("Cluster::load_rows"), "{e}");
    }
    assert_eq!(cluster.query("SELECT COUNT(*) FROM f").unwrap(), vec![row![10i64]]);
    assert_eq!(cluster.execute_all("DELETE FROM f WHERE id = 3").unwrap(), 1);
    assert_eq!(cluster.query("SELECT COUNT(*) FROM f").unwrap(), vec![row![9i64]]);
}
