//! One append path into a column table. Every write — LOAD, INSERT,
//! CTAS, UPDATE, recovery, the cluster load — goes through
//! `ColumnTable::append`: a statement is logged only after it has applied,
//! a bulk write is analysed over its whole input as LOAD is, and a
//! recovered table keeps its encodings. Plus the script splitter and the
//! cluster's broadcast refusing to add rows.

use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::encoding::column::ColumnValues;
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
    assert_eq!(loaded.0, vec!["minus", "frequency-dict"]);
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

// ---- typed-column coercion against the row rule ------------------------------

/// Every SQL type a coercion pair is drawn from, with the values a source
/// column of it holds: boundaries, values a narrower or other type cannot
/// hold, and a NULL.
const SOURCES: [(&str, &[&str]); 12] = [
    ("BOOLEAN", &["TRUE", "FALSE", "NULL"]),
    ("SMALLINT", &["-32768", "32767", "NULL"]),
    ("INTEGER", &["-7", "40000", "NULL"]),
    ("BIGINT", &["5", "3000000000", "NULL"]),
    ("REAL", &["1.5", "NULL"]),
    ("DOUBLE", &["2.75", "-10000000000.5", "NULL"]),
    ("DECIMAL(10,2)", &["1.25", "-3.55", "NULL"]),
    ("DECIMAL(10,1)", &["7.5", "NULL"]),
    ("DATE", &["'2017-04-20'", "NULL"]),
    ("TIMESTAMP", &["'2017-04-20 10:11:12'", "NULL"]),
    ("VARCHAR(20)", &["'12'", "NULL", "' 7'"]),
    ("VARCHAR(20)", &["'2017-01-01'", "NULL", "'abc'"]),
];

/// The row rule the column coercion must agree with: each value through
/// `Row::coerce` (cast, then `validate`) against a one-column schema of
/// `to`, in order; the first failure's class, or the coerced values.
fn by_rows(values: &[Row], to: DataType, nullable: bool) -> Result<Vec<Row>, &'static str> {
    let schema = Schema::new(vec![Field { name: "V".into(), data_type: to, nullable }]).unwrap();
    values.iter().map(|r| r.clone().coerce(&schema).map_err(|e| e.class())).collect()
}

/// What a table's failed statement must leave as it found it.
fn state(db: &Arc<Database>, table: &str) -> (u64, Vec<ColumnValues>, Vec<u64>, Vec<u64>) {
    let handle = db.catalog().table_handle(table).unwrap();
    let t = handle.table.read();
    let open = (0..t.schema().len()).map(|c| t.open_values(c).clone()).collect();
    (t.total_rows(), open, t.insert_ts_words().to_vec(), t.delete_ts_words().to_vec())
}

/// Run `sql` against `table`: on success its `V` column (rows with
/// `K >= 0`, in `K` order), on failure its class, checking the table is
/// untouched.
fn written(db: &Arc<Database>, table: &str, sql: &str) -> Result<Vec<Row>, &'static str> {
    let before = state(db, table);
    match db.connect().execute(sql) {
        Ok(_) => Ok(read(db, &format!("SELECT v FROM {table} WHERE k >= 0 ORDER BY k"))),
        Err(e) => {
            assert_eq!(state(db, table), before, "{sql}: {e} changed the table");
            Err(e.class())
        }
    }
}

/// CTAS, `INSERT … SELECT` and UPDATE hand the statement's typed columns
/// to the table, which moves a column of its own type and casts any
/// other value by value: for every pair of types the stored values (or
/// the error class) are the row rule's, and a failing batch leaves the
/// row count, the open stride and the words unchanged.
#[test]
fn typed_appends_coerce_as_rows_do() {
    for (i, (from_sql, literals)) in SOURCES.iter().enumerate() {
        let db = Database::untracked();
        let mut s = db.connect();
        s.execute(&format!("CREATE TABLE src (k INT, v {from_sql})")).unwrap();
        let values: Vec<String> = literals.iter().enumerate().map(|(k, l)| format!("({k}, {l})")).collect();
        s.execute(&format!("INSERT INTO src VALUES {}", values.join(", "))).unwrap();
        let src = read(&db, "SELECT v FROM src ORDER BY k");
        assert_eq!(src.len(), literals.len(), "{from_sql}");
        // CTAS: the table takes the query's types, and each column moves.
        s.execute("CREATE TABLE c AS SELECT k, v FROM src").unwrap();
        assert_eq!(read(&db, "SELECT v FROM c ORDER BY k"), src, "CTAS of {from_sql}");
        for (j, (to_sql, _)) in SOURCES.iter().enumerate() {
            let to = DataType::from_sql_name(to_sql.split('(').next().unwrap(), &type_args(to_sql)).unwrap();
            let pair = format!("{from_sql} -> {to_sql} (sources {i}, {j})");
            for nullable in [true, false] {
                let t = format!("t{j}_{}", nullable as u8);
                let not_null = if nullable { "" } else { " NOT NULL" };
                s.execute(&format!("CREATE TABLE {t} (k INT, v {to_sql}{not_null})")).unwrap();
                if nullable {
                    s.execute(&format!("INSERT INTO {t} VALUES (-1, NULL)")).unwrap();
                }
                let got = written(&db, &t, &format!("INSERT INTO {t} SELECT k, v FROM src"));
                assert_eq!(got, by_rows(&src, to, nullable), "INSERT … SELECT {pair}, nullable {nullable}");
            }
            let u = format!("u{j}");
            s.execute(&format!("CREATE TABLE {u} (k INT, s {from_sql}, v {to_sql})")).unwrap();
            s.execute(&format!("INSERT INTO {u} (s, k) SELECT v, k FROM src")).unwrap();
            let got = written(&db, &u, &format!("UPDATE {u} SET v = s"));
            assert_eq!(got, by_rows(&src, to, true), "UPDATE {pair}");
        }
    }
}

/// `DECIMAL(10,2)` → `[10, 2]`; no parenthesis → no arguments.
fn type_args(sql: &str) -> Vec<i64> {
    sql.split_once('(')
        .map(|(_, args)| args.trim_end_matches(')').split(',').map(|a| a.trim().parse().unwrap()).collect())
        .unwrap_or_default()
}

/// An `INSERT … SELECT` whose column list is partial and out of table
/// order places each column at its ordinal, casts it there, and leaves the
/// omitted one NULL.
#[test]
fn insert_select_places_a_reordered_partial_column_list() {
    let db = Database::untracked();
    let mut s = db.connect();
    s.execute("CREATE TABLE q (x INT, y BIGINT, z VARCHAR(12))").unwrap();
    s.execute("INSERT INTO q VALUES (1, 10, '2017-03-04'), (2, 20, NULL)").unwrap();
    s.execute("CREATE TABLE p (a SMALLINT, b VARCHAR(8), c DATE, d DOUBLE)").unwrap();
    let n = s.execute("INSERT INTO p (d, a, c) SELECT x, y, z FROM q").unwrap().affected;
    assert_eq!(n, 2);
    let date = dashdb_local::common::date::parse_date("2017-03-04").unwrap();
    assert_eq!(
        read(&db, "SELECT a, b, c, d FROM p ORDER BY a"),
        vec![
            Row::new(vec![Datum::Int(10), Datum::Null, Datum::Date(date), Datum::Float(1.0)]),
            Row::new(vec![Datum::Int(20), Datum::Null, Datum::Null, Datum::Float(2.0)]),
        ]
    );
    let e = s.execute("INSERT INTO p (d, a) SELECT x, y, z FROM q").unwrap_err();
    assert_eq!(e.class(), "42000", "{e}");
}

/// Inside one transaction, an UPDATE of a row that transaction already
/// deleted changes nothing: no replacement is appended, and after COMMIT
/// the row stays gone.
#[test]
fn update_of_a_row_deleted_earlier_in_the_transaction_appends_nothing() {
    let db = Database::untracked();
    let mut s = db.connect();
    s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    s.execute("BEGIN").unwrap();
    assert_eq!(s.execute("DELETE FROM t WHERE k = 1").unwrap().affected, 1);
    let before = state(&db, "t");
    assert_eq!(s.execute("UPDATE t SET v = v + 1 WHERE k = 1").unwrap().affected, 0);
    assert_eq!(state(&db, "t"), before, "the skipped row's replacement was appended");
    assert_eq!(s.execute("UPDATE t SET v = v + 1").unwrap().affected, 1);
    s.execute("COMMIT").unwrap();
    assert_eq!(read(&db, "SELECT k, v FROM t ORDER BY k"), vec![row![2i64, 21i64]]);
}

/// A CTAS of a dictionary-coded string column stores the same values, in
/// the same order, and codes them with a dictionary again.
#[test]
fn ctas_of_a_dictionary_string_column_equals_its_source() {
    let db = Database::untracked();
    let src = db.catalog().create_table("SRC", skewed_schema(), None).unwrap();
    let rows: Vec<Row> = (0..STRIDE * 2 + 300).map(|i| row![i as i64, format!("c{}", i % 9)]).collect();
    src.write().load_rows(rows).unwrap();
    assert!(src.read().str_pool(1).is_some());
    db.connect().execute("CREATE TABLE c AS SELECT k, v FROM src").unwrap();
    let copy = db.catalog().table_handle("C").unwrap().table;
    assert!(copy.read().str_pool(1).is_some(), "the copy is dictionary-coded");
    assert_eq!(read(&db, "SELECT k, v FROM c ORDER BY k"), read(&db, "SELECT k, v FROM src ORDER BY k"));
}
