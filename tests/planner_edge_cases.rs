//! Edge cases for the analyzer/planner: the shapes that break naive SQL
//! implementations.

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec, Session};

fn session() -> Session {
    Database::with_hardware(HardwareSpec::laptop()).connect()
}

#[test]
fn self_join_with_aliases() {
    let mut s = session();
    s.execute("CREATE TABLE emp (id INT, mgr INT, name VARCHAR(10))").unwrap();
    s.execute(
        "INSERT INTO emp VALUES (1, NULL, 'ceo'), (2, 1, 'vp'), (3, 2, 'eng')",
    )
    .unwrap();
    let rows = s
        .query(
            "SELECT e.name, m.name FROM emp e JOIN emp m ON e.mgr = m.id ORDER BY e.id",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(0).as_str(), Some("vp"));
    assert_eq!(rows[0].get(1).as_str(), Some("ceo"));
}

#[test]
fn empty_tables_everywhere() {
    let mut s = session();
    s.execute("CREATE TABLE e (x INT, y VARCHAR(5))").unwrap();
    assert_eq!(s.query("SELECT * FROM e").unwrap().len(), 0);
    assert_eq!(
        s.query("SELECT COUNT(*), SUM(x) FROM e").unwrap()[0],
        dashdb_local::common::row![0i64, Datum::Null]
    );
    assert_eq!(s.query("SELECT x FROM e GROUP BY x").unwrap().len(), 0);
    assert_eq!(
        s.query("SELECT * FROM e a JOIN e b ON a.x = b.x").unwrap().len(),
        0
    );
    assert_eq!(
        s.query("SELECT x FROM e UNION SELECT x FROM e").unwrap().len(),
        0
    );
    assert_eq!(s.query("SELECT x FROM e ORDER BY y DESC").unwrap().len(), 0);
    // DML on empty tables.
    assert_eq!(s.execute("UPDATE e SET x = 1").unwrap().affected, 0);
    assert_eq!(s.execute("DELETE FROM e").unwrap().affected, 0);
}

#[test]
fn group_by_expression_and_multi_key() {
    let mut s = session();
    s.execute("CREATE TABLE t (a INT, b INT, v DOUBLE)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30), (13, 1, 40)")
        .unwrap();
    // Expression key (generic agg path).
    let rows = s
        .query("SELECT MOD(a, 12), SUM(v) FROM t GROUP BY MOD(a, 12) ORDER BY 1")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(1), &Datum::Float(70.0)); // a=1 and a=13
    // Multi-column key.
    let rows = s
        .query("SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a, b")
        .unwrap();
    assert_eq!(rows.len(), 4);
}

#[test]
fn rownum_in_projection_and_where() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (30), (10), (20)").unwrap();
    s.set_dialect(Dialect::Oracle);
    let rows = s.query("SELECT ROWNUM, x FROM t WHERE ROWNUM <= 2").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(0), &Datum::Int(1));
    assert_eq!(rows[1].get(0), &Datum::Int(2));
    // ROWNUM after a real filter numbers the passing rows.
    let rows = s
        .query("SELECT ROWNUM, x FROM t WHERE x > 10 AND ROWNUM <= 1")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Datum::Int(1));
}

#[test]
fn connect_by_cycle_terminates() {
    let mut s = session();
    s.execute("CREATE TABLE g (node VARCHAR(2), parent VARCHAR(2))").unwrap();
    // a -> b -> c -> a cycle plus a root.
    s.execute("INSERT INTO g VALUES ('r', NULL), ('a', 'r'), ('b', 'a'), ('c', 'b'), ('a2', 'c')")
        .unwrap();
    s.set_dialect(Dialect::Oracle);
    let rows = s
        .query(
            "SELECT node, LEVEL FROM g START WITH parent IS NULL \
             CONNECT BY PRIOR node = parent ORDER BY LEVEL",
        )
        .unwrap();
    assert_eq!(rows.len(), 5, "visited-set must stop re-expansion");
    assert_eq!(rows[4].get(1), &Datum::Int(5));
}

#[test]
fn union_mixed_numeric_types() {
    let mut s = session();
    s.execute("CREATE TABLE a (x INT)").unwrap();
    s.execute("CREATE TABLE b (x DOUBLE)").unwrap();
    s.execute("INSERT INTO a VALUES (1)").unwrap();
    s.execute("INSERT INTO b VALUES (1.0), (2.5)").unwrap();
    let rows = s
        .query("SELECT x FROM a UNION SELECT x FROM b ORDER BY 1")
        .unwrap();
    // 1 and 1.0 compare equal -> dedup to 2 rows.
    assert_eq!(rows.len(), 2);
    // Arity mismatch rejected.
    assert!(s.query("SELECT x FROM a UNION SELECT x, x FROM b").is_err());

    // ORDER BY / OFFSET / FETCH FIRST / LIMIT after the last arm sort and
    // trim the whole union, not that arm.
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES (5, 50), (1, 10), (4, 40), (2, 20), (3, 30)").unwrap();
    let col = |s: &mut Session, sql: &str| -> Vec<i64> {
        let rows = s.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        rows.iter().map(|r| r.get(0).as_int().unwrap()).collect()
    };
    let both = "SELECT a FROM t UNION ALL SELECT b FROM t";
    assert_eq!(col(&mut s, &format!("{both} FETCH FIRST 3 ROWS ONLY")), [5, 1, 4]);
    assert_eq!(col(&mut s, &format!("{both} ORDER BY 1")), [1, 2, 3, 4, 5, 10, 20, 30, 40, 50]);
    // By the left arm's name, by an expression over it, a tie-broken
    // union with duplicates removed first.
    assert_eq!(col(&mut s, &format!("{both} ORDER BY a DESC FETCH FIRST 2 ROWS ONLY")), [50, 40]);
    assert_eq!(col(&mut s, &format!("{both} ORDER BY MOD(a, 10), a FETCH FIRST 4 ROWS ONLY")), [10, 20, 30, 40]);
    assert_eq!(
        col(&mut s, "SELECT a FROM t UNION SELECT a + 1 FROM t ORDER BY a DESC"),
        [6, 5, 4, 3, 2, 1]
    );
    s.set_dialect(Dialect::PostgreSql);
    assert_eq!(col(&mut s, &format!("{both} ORDER BY a LIMIT 3 OFFSET 2")), [3, 4, 5]);
    assert_eq!(col(&mut s, &format!("{both} UNION ALL SELECT a FROM t ORDER BY 1 DESC LIMIT 2")), [50, 40]);
    // Keys name the union's output only; an ORDER BY or LIMIT on an arm
    // other than the last is a syntax error.
    assert_eq!(s.query(&format!("{both} ORDER BY b")).unwrap_err().class(), "42704");
    for sql in [
        "SELECT a FROM t ORDER BY a UNION ALL SELECT b FROM t",
        "SELECT a FROM t LIMIT 1 UNION ALL SELECT b FROM t",
        "SELECT a FROM t UNION ALL SELECT b FROM t LIMIT 1 UNION ALL SELECT a FROM t",
    ] {
        assert_eq!(s.query(sql).unwrap_err().class(), "42601", "{sql}");
    }
}

#[test]
fn in_subquery_empty_and_not_in() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    s.execute("CREATE TABLE keep (x INT)").unwrap();
    assert_eq!(
        s.query("SELECT x FROM t WHERE x IN (SELECT x FROM keep)").unwrap().len(),
        0,
        "IN over an empty subquery matches nothing"
    );
    assert_eq!(
        s.query("SELECT x FROM t WHERE x NOT IN (SELECT x FROM keep)").unwrap().len(),
        3,
        "NOT IN over an empty subquery matches everything"
    );
    s.execute("INSERT INTO keep VALUES (2), (NULL)").unwrap();
    // NOT IN with NULL in the list: three-valued logic rejects everything.
    assert_eq!(
        s.query("SELECT x FROM t WHERE x NOT IN (SELECT x FROM keep)").unwrap().len(),
        0
    );
}

#[test]
fn scalar_subquery_cardinality_enforced() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let e = s.query("SELECT (SELECT x FROM t) FROM t").unwrap_err();
    assert!(e.to_string().contains("more than one row"), "{e}");
    // Empty scalar subquery is NULL.
    s.execute("CREATE TABLE empty_t (x INT)").unwrap();
    let rows = s.query("SELECT (SELECT x FROM empty_t) FROM t").unwrap();
    assert!(rows[0].get(0).is_null());
}

#[test]
fn qualified_wildcards_in_joins() {
    let mut s = session();
    s.execute("CREATE TABLE l (a INT, b INT)").unwrap();
    s.execute("CREATE TABLE r (a INT, c INT)").unwrap();
    s.execute("INSERT INTO l VALUES (1, 2)").unwrap();
    s.execute("INSERT INTO r VALUES (1, 3)").unwrap();
    let rows = s.query("SELECT l.*, r.c FROM l JOIN r ON l.a = r.a").unwrap();
    assert_eq!(rows[0].len(), 3);
    // Unknown alias in a qualified wildcard errors.
    assert!(s.query("SELECT z.* FROM l JOIN r ON l.a = r.a").is_err());
}

#[test]
fn case_without_else_and_nested_functions() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1), (5)").unwrap();
    let rows = s
        .query(
            "SELECT CASE WHEN x > 3 THEN UPPER(CONCAT('big', '!')) END FROM t ORDER BY x",
        )
        .unwrap();
    assert!(rows[0].get(0).is_null());
    assert_eq!(rows[1].get(0).as_str(), Some("BIG!"));
}

#[test]
fn same_column_bounds_push_as_one_intersected_range() {
    // Two sealed strides and an open one, on the product and on an engine
    // that decodes before it compares.
    let product = Database::with_hardware(HardwareSpec::laptop());
    let ablated = Database::with_hardware(HardwareSpec::laptop());
    ablated.catalog().set_compressed_predicates(false);
    let rows: Vec<Row> = (0..2 * 1024 + 100i64)
        .map(|i| {
            dashdb_local::common::row![
                i,
                i % 50,
                (i % 40) as f64 * 0.5,
                Datum::Date(15_706 + (i / 100) as i32),
                format!("L{}", i % 23)
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
        Field::new("day", DataType::Date),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    for db in [&product, &ablated] {
        let t = db.catalog().create_table("t", schema.clone(), None).unwrap();
        t.write().load_rows(rows.clone()).unwrap();
        assert_eq!((t.read().sealed_strides(), t.read().open_len()), (2, 100));
    }
    let cases = [
        ("qty BETWEEN 10 AND 5", 1, true),
        ("qty >= 10 AND qty < 5", 1, true),
        ("qty > 3 AND qty <= 40 AND qty >= 7 AND qty < 39", 1, false),
        ("qty BETWEEN 10 AND 20 AND qty = 15", 1, false),
        ("qty = 15 AND qty = 16", 1, true),
        ("price > 1.5 AND price <= 12.0 AND price < 12.0", 1, false),
        ("day >= DATE '2013-01-05' AND day < DATE '2013-01-22' AND day > DATE '2013-01-03'", 1, false),
        ("label >= 'L1' AND label <= 'L3' AND label >= 'L10'", 1, false),
        ("qty BETWEEN 5 AND 30 AND price BETWEEN 1.0 AND 9.0", 2, false),
    ];
    for (cond, preds, empty) in cases {
        let sql = format!("SELECT id, qty, price, day, label FROM t WHERE {cond} ORDER BY id");
        let explain = |db: &std::sync::Arc<Database>| -> String {
            let rows = db.connect().query(&format!("EXPLAIN {sql}")).unwrap();
            rows.iter().map(|r| r.get(0).render() + "\n").collect()
        };
        let text = explain(&product);
        assert!(text.contains(&format!("preds={preds} residual=false")), "{cond}:\n{text}");
        assert!(explain(&ablated).contains("preds=0 residual=true"), "{cond}");
        let got = product.connect().query(&sql).unwrap();
        let want = ablated.connect().query(&sql).unwrap();
        assert!(got == want, "{cond}: {} rows, {} decoded first", got.len(), want.len());
        assert_eq!(got.is_empty(), empty, "{cond}");
        if !empty {
            let last = got.last().unwrap().get(0).as_int().unwrap();
            assert!(last >= 2 * 1024, "{cond}: no row from the open stride");
        }
    }
}

/// A string literal compared with a DATE column is that date in every
/// plan of the comparison: pushed to the scan as a bound, decoded first
/// (`set_compressed_predicates(false)`) and under an expression
/// (`day + 0`), in `<`, BETWEEN and IN, on sealed and open strides. A
/// literal that is no date is the cast's error on every plan.
#[test]
fn date_compared_with_a_string_literal_is_that_date_in_every_plan() {
    let product = Database::with_hardware(HardwareSpec::laptop());
    let ablated = Database::with_hardware(HardwareSpec::laptop());
    ablated.catalog().set_compressed_predicates(false);
    // 2013-01-01 is day 15_706; `day` walks 20 days over and over.
    let rows: Vec<Row> = (0..1024 + 300i64)
        .map(|i| Row::new(vec![Datum::Int(i), Datum::Date(15_706 + (i % 20) as i32)]))
        .collect();
    let schema = Schema::new(vec![Field::new("id", DataType::Int64), Field::new("day", DataType::Date)]).unwrap();
    for db in [&product, &ablated] {
        let t = db.catalog().create_table("d", schema.clone(), None).unwrap();
        t.write().load_rows(rows.clone()).unwrap();
        assert_eq!((t.read().sealed_strides(), t.read().open_len()), (1, 300));
    }
    let count = |keep: &dyn Fn(i64) -> bool, ids: std::ops::Range<i64>| ids.filter(|i| keep(i % 20)).count() as i64;
    let cases: [(&str, &dyn Fn(i64) -> bool); 3] = [
        ("< '2013-01-09'", &|d| d < 8),
        ("BETWEEN '2013-01-05' AND '2013-01-07'", &|d| (4..=6).contains(&d)),
        ("IN ('2013-01-02', '2013-01-19')", &|d| d == 1 || d == 18),
    ];
    for (cond, keep) in cases {
        for (stride, ids) in [("id < 1024", 0..1024), ("id >= 1024", 1024..1324)] {
            let want = count(keep, ids);
            for operand in ["day", "day + 0"] {
                let sql = format!("SELECT COUNT(*) FROM d WHERE {stride} AND {operand} {cond}");
                for db in [&product, &ablated] {
                    let got = db.connect().query(&sql).unwrap();
                    assert_eq!(got[0].get(0), &Datum::Int(want), "{sql}");
                }
            }
        }
    }
    for db in [&product, &ablated] {
        for operand in ["day", "day + 0"] {
            let err = db.connect().query(&format!("SELECT id FROM d WHERE {operand} < 'not a date'")).unwrap_err();
            assert_eq!(err.class(), "22000", "{operand}: {err}");
        }
    }
}

#[test]
fn negative_literal_bounds_push_down() {
    let mut s = session();
    s.execute("CREATE TABLE f (id INT, qty BIGINT, price DOUBLE, amt DECIMAL(8,2))").unwrap();
    s.execute("INSERT INTO f VALUES (1, -100, -1.5, -2.50), (2, -72, 0.0, 0.00), (3, 5, 2.5, 1.25)")
        .unwrap();
    let explain = |s: &mut Session, cond: &str| -> String {
        let rows = s.query(&format!("EXPLAIN SELECT id FROM f WHERE {cond}")).unwrap();
        rows.iter().map(|r| r.get(0).render() + "\n").collect()
    };
    // Both bounds of a negative BETWEEN reach the scan, as one range;
    // nothing is left for a per-row residual.
    let text = explain(&mut s, "qty BETWEEN -121 AND -72");
    assert!(text.contains("preds=1 residual=false"), "{text}");
    let text = explain(&mut s, "price > -2.0 AND amt <= -1.00 AND qty >= -9223372036854775807");
    assert!(text.contains("preds=3 residual=false"), "{text}");
    // A negated column is still an expression.
    let text = explain(&mut s, "-qty >= 72");
    assert!(text.contains("preds=0 residual=true"), "{text}");
    // `-0.0` equals `0.0` as an expression but not as a code bound: it
    // stays in the residual, so the row with price 0.0 keeps qualifying.
    let text = explain(&mut s, "price <= -0.0");
    assert!(text.contains("preds=0 residual=true"), "{text}");
    let ids = |s: &mut Session, cond: &str| -> Vec<i64> {
        let rows = s.query(&format!("SELECT id FROM f WHERE {cond} ORDER BY id")).unwrap();
        rows.iter().map(|r| r.get(0).as_int().unwrap()).collect()
    };
    assert_eq!(ids(&mut s, "qty BETWEEN -121 AND -72"), vec![1, 2]);
    assert_eq!(ids(&mut s, "price <= -0.0"), vec![1, 2]);
    assert_eq!(ids(&mut s, "amt <= -1.00"), vec![1]);
    assert_eq!(ids(&mut s, "-qty >= 72"), vec![1, 2]);
    // Folded literals keep their value where they are projected.
    assert_eq!(
        s.query("SELECT -5, -2.5, - -3 FROM f WHERE id = 1").unwrap()[0],
        dashdb_local::common::row![-5i64, -2.5f64, 3i64]
    );
}

#[test]
fn order_by_with_limit_stability() {
    let mut s = session();
    s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1), (1, 2), (1, 3), (2, 4)").unwrap();
    // Stable sort: ties keep insertion order.
    let rows = s.query("SELECT v FROM t ORDER BY k FETCH FIRST 3 ROWS ONLY").unwrap();
    assert_eq!(
        rows.iter().map(|r| r.get(0).as_int().unwrap()).collect::<Vec<_>>(),
        vec![1, 2, 3]
    );
}

#[test]
fn where_clause_type_errors_are_clean() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT, s VARCHAR(5))").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'a')").unwrap();
    // Comparing string to int never matches (deterministic type-tag order)
    // but must not panic or error.
    let r = s.query("SELECT x FROM t WHERE s = 1");
    assert!(r.is_ok());
    // LIKE on an integer column is an execution error, not a panic.
    assert!(s.query("SELECT x FROM t WHERE x LIKE 'a%'").is_err());
}

#[test]
fn deeply_nested_subqueries_bounded() {
    let mut s = session();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let mut q = "SELECT x FROM t".to_string();
    for _ in 0..20 {
        q = format!("SELECT x FROM ({q}) d");
    }
    let e = s.query(&q).unwrap_err();
    assert!(e.to_string().contains("nesting"), "{e}");
}

#[test]
fn compound_block_executes_atomically_in_order() {
    let mut s = session();
    s.set_dialect(Dialect::Db2);
    s.execute("CREATE TABLE t (x INT)").unwrap();
    let r = s
        .execute(
            "BEGIN INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); \
             UPDATE t SET x = x * 10; END",
        )
        .unwrap();
    assert_eq!(r.affected, 2, "block returns the last statement's result");
    let rows = s.query("SELECT x FROM t ORDER BY 1").unwrap();
    assert_eq!(
        rows.iter().map(|r| r.get(0).as_int().unwrap()).collect::<Vec<_>>(),
        vec![10, 20]
    );
}

#[test]
fn date_arithmetic_in_sql() {
    let mut s = session();
    s.execute("CREATE TABLE t (d DATE)").unwrap();
    s.execute("INSERT INTO t VALUES ('2016-12-25')").unwrap();
    let rows = s
        .query("SELECT d + 7, d - 360, d - DATE '2016-01-01' FROM t")
        .unwrap();
    assert_eq!(rows[0].get(0).render(), "2017-01-01");
    assert_eq!(rows[0].get(1).render(), "2015-12-31");
    assert_eq!(rows[0].get(2), &Datum::Int(359));
}

#[test]
fn syscat_introspection_views() {
    let mut s = session();
    s.execute("CREATE TABLE inv (sku BIGINT NOT NULL, qty INT, label VARCHAR(10))")
        .unwrap();
    s.execute("INSERT INTO inv VALUES (1, 5, 'a'), (2, 6, 'b')").unwrap();
    let rows = s
        .query("SELECT name, live_rows FROM syscat_tables WHERE name = 'INV'")
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(1), &Datum::Int(2));
    let rows = s
        .query(
            "SELECT column_name, type_name, nullable FROM syscat_columns \
             WHERE table_name = 'INV' ORDER BY ordinal",
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].get(0).as_str(), Some("SKU"));
    assert_eq!(rows[0].get(1).as_str(), Some("BIGINT"));
    assert_eq!(rows[0].get(2), &Datum::Bool(false));
    // Functions view includes builtins and UDXes.
    let rows = s
        .query("SELECT COUNT(*) FROM syscat_functions WHERE kind = 'builtin'")
        .unwrap();
    assert!(rows[0].get(0).as_int().unwrap() > 80);
    s.database().catalog().register_udx(
        "my_fn",
        dashdb_local::common::dialect::DialectSet::ALL,
        1,
        1,
        dashdb_local::common::DataType::Int64,
        std::sync::Arc::new(|a, _| Ok(a[0].clone())),
    );
    let rows = s
        .query("SELECT name FROM syscat_functions WHERE kind = 'udx'")
        .unwrap();
    assert_eq!(rows[0].get(0).as_str(), Some("MY_FN"));
    // A user table may still shadow the SYSCAT name.
    s.execute("CREATE TABLE syscat_tables (x INT)").unwrap();
    let rows = s.query("SELECT * FROM syscat_tables").unwrap();
    assert!(rows.is_empty(), "user table shadows the view");
}

#[test]
fn temp_tables_are_session_private() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s1 = db.connect();
    let mut s2 = db.connect();
    s1.set_dialect(Dialect::Netezza);
    s2.set_dialect(Dialect::Netezza);
    // Both sessions declare the same temp name without collision.
    s1.execute("CREATE TEMP TABLE scratch (x INT)").unwrap();
    s2.execute("CREATE TEMP TABLE scratch (x INT)").unwrap();
    s1.execute("INSERT INTO scratch VALUES (1)").unwrap();
    s2.execute("INSERT INTO scratch VALUES (2), (3)").unwrap();
    assert_eq!(s1.query("SELECT COUNT(*) FROM scratch").unwrap()[0].get(0), &Datum::Int(1));
    assert_eq!(s2.query("SELECT COUNT(*) FROM scratch").unwrap()[0].get(0), &Datum::Int(2));
    // A temp table shadows a same-named permanent table for its session.
    let mut s3 = db.connect();
    s3.execute("CREATE TABLE shadowed (x INT)").unwrap();
    s3.execute("INSERT INTO shadowed VALUES (9)").unwrap();
    s1.execute("CREATE TEMP TABLE shadowed (x INT)").unwrap();
    assert_eq!(s1.query("SELECT COUNT(*) FROM shadowed").unwrap()[0].get(0), &Datum::Int(0));
    assert_eq!(s3.query("SELECT COUNT(*) FROM shadowed").unwrap()[0].get(0), &Datum::Int(1));
    // DROP removes the temp first, revealing the permanent one.
    s1.execute("DROP TABLE shadowed").unwrap();
    assert_eq!(s1.query("SELECT COUNT(*) FROM shadowed").unwrap()[0].get(0), &Datum::Int(1));
    // Session close cleans up.
    s1.close();
    assert_eq!(s2.query("SELECT COUNT(*) FROM scratch").unwrap()[0].get(0), &Datum::Int(2));
}

/// Run `sql` at parallelism 1, 4 and 8 and return its rows, `Debug`-rendered
/// (which shows a value's kind and a zero's sign), asserting every width
/// returns the same.
fn at_every_width(db: &std::sync::Arc<Database>, s: &mut Session, sql: &str) -> Vec<String> {
    let mut first: Option<Vec<String>> = None;
    for par in [1usize, 4, 8] {
        db.catalog().set_parallelism(par);
        let rows = s.query(sql).unwrap_or_else(|e| panic!("{sql} at parallelism {par}: {e}"));
        let rows: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
        assert_eq!(&rows, first.get_or_insert(rows.clone()), "{sql} at parallelism {par}");
    }
    first.unwrap()
}

/// `SELECT DISTINCT` and `UNION` are `GROUP BY` every column: each row's
/// first occurrence, in first-appearance order, at every width.
#[test]
fn distinct_is_group_by_every_column() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    // Duplicates across stride and row-morsel boundaries; an all-NULL row
    // repeated; `-0.0` before `0.0`.
    s.execute("CREATE TABLE t (k INT, f DOUBLE, s VARCHAR(4))").unwrap();
    let values: Vec<String> = (0..9000)
        .map(|i| match i % 9 {
            7 => "(NULL, NULL, NULL)".to_string(),
            8 => format!("(0, {}, 'z')", if i < 4500 { "-0.0" } else { "0.0" }),
            k => format!("({k}, {k}.5, 's{k}')"),
        })
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    let rows = at_every_width(&db, &mut s, "SELECT DISTINCT k, f, s FROM t");
    assert_eq!(rows.len(), 9, "{rows:?}");
    assert_eq!(rows[0], "[Int(0), Float(0.5), Str(\"s0\")]");
    assert_eq!(rows[7], "[Null, Null, Null]", "NULLs group together");
    // One zero, whichever sign storage kept for the first.
    assert!(rows[8] == "[Int(0), Float(-0.0), Str(\"z\")]" || rows[8] == "[Int(0), Float(0.0), Str(\"z\")]", "{rows:?}");
    assert_eq!(at_every_width(&db, &mut s, "SELECT DISTINCT s FROM t WHERE k IS NULL"), ["[Null]"]);
    let explain = s.execute("EXPLAIN SELECT DISTINCT k, f, s FROM t").unwrap();
    let text: Vec<String> = explain.rows.iter().map(|r| r.get(0).render()).collect();
    assert!(text.iter().any(|l| l.contains("HashAggregate groups=3 aggs=0")), "{text:?}");
    assert!(text.iter().any(|l| l.contains("agg-partial")), "morsel-parallel: {text:?}");

    // More columns than one NULL-mask word has bits.
    let cols: Vec<String> = (0..70).map(|c| format!("c{c} INT")).collect();
    s.execute(&format!("CREATE TABLE wide ({})", cols.join(", "))).unwrap();
    let wide_row = |i: usize| {
        let vals: Vec<String> = (0..70).map(|c| if c == 65 && i.is_multiple_of(3) { "NULL".into() } else { (i % 3 + c).to_string() }).collect();
        format!("({})", vals.join(", "))
    };
    let values: Vec<String> = (0..600).map(wide_row).collect();
    s.execute(&format!("INSERT INTO wide VALUES {}", values.join(","))).unwrap();
    let rows = at_every_width(&db, &mut s, "SELECT DISTINCT * FROM wide");
    assert_eq!(rows.len(), 3);
    assert!(rows[0].contains("Null") && !rows[1].contains("Null"), "{rows:?}");

    // UNION promotes its arms to a common type, then de-duplicates.
    s.execute_script(
        "CREATE TABLE a (x INT); CREATE TABLE b (y DOUBLE);
         INSERT INTO a VALUES (1), (2), (2), (NULL); INSERT INTO b VALUES (2.0), (2.5), (NULL), (1.0);",
    )
    .unwrap();
    let rows = at_every_width(&db, &mut s, "SELECT x FROM a UNION SELECT y FROM b");
    assert_eq!(rows, ["[Float(1.0)]", "[Float(2.0)]", "[Null]", "[Float(2.5)]"], "first-appearance order");
}

/// A function that returns one of several arguments is typed by all of
/// them, so an aggregate or a group key over it holds every branch's
/// values: `MIN(COALESCE(i, f))` and `GROUP BY COALESCE(i, f)` used to fail
/// with the `CAST` advice whenever the float branch was taken.
#[test]
fn coalesce_family_is_typed_by_every_value_argument() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.set_dialect(Dialect::Oracle);
    s.execute_script(
        "CREATE TABLE c (g INT, i INT, f DOUBLE, d DECIMAL(10,2), dt DATE, ts TIMESTAMP, s VARCHAR(8), s2 VARCHAR(8));
         INSERT INTO c VALUES (1, 0, NULL, NULL, '2024-01-15', NULL, 'a', NULL),
             (1, NULL, 0.5, 1.25, NULL, '2024-01-14 12:00:00', NULL, 'b'),
             (2, NULL, 0.25, NULL, NULL, NULL, NULL, NULL),
             (2, 3, NULL, 2.50, '2024-01-16', NULL, 'c', 'd');",
    )
    .unwrap();
    let cases: [(&str, &[&str]); 14] = [
        // int / float
        ("SELECT MIN(COALESCE(i, f)), MAX(COALESCE(i, f)) FROM c", &["[Float(0.0), Float(3.0)]"]),
        ("SELECT g, MIN(COALESCE(i, f)) FROM c GROUP BY g ORDER BY g", &["[Int(1), Float(0.0)]", "[Int(2), Float(0.25)]"]),
        (
            "SELECT COALESCE(i, f), COUNT(*) FROM c GROUP BY COALESCE(i, f) ORDER BY 1",
            &["[Float(0.0), Int(1)]", "[Float(0.25), Int(1)]", "[Float(0.5), Int(1)]", "[Float(3.0), Int(1)]"],
        ),
        ("SELECT SUM(NVL(i, f)), MAX(GREATEST(i, 0.5)) FROM c", &["[Float(3.75), Float(3.0)]"]),
        // int / decimal: the decimal stays exact
        ("SELECT MIN(COALESCE(i, d)), MAX(COALESCE(d, i)) FROM c", &["[Decimal(0, 2), Decimal(250, 2)]"]),
        (
            "SELECT COALESCE(i, d), COUNT(*) FROM c GROUP BY COALESCE(i, d) ORDER BY 1",
            &["[Decimal(0, 2), Int(1)]", "[Decimal(125, 2), Int(1)]", "[Decimal(300, 2), Int(1)]", "[Null, Int(1)]"],
        ),
        // date / timestamp
        ("SELECT MIN(COALESCE(dt, ts)) FROM c", &["[Timestamp(1705233600000000)]"]),
        (
            "SELECT g, MIN(COALESCE(dt, ts)), COUNT(COALESCE(ts, dt)) FROM c GROUP BY g ORDER BY g",
            &["[Int(1), Timestamp(1705233600000000), Int(2)]", "[Int(2), Timestamp(1705363200000000), Int(1)]"],
        ),
        (
            "SELECT COALESCE(dt, ts), COUNT(*) FROM c GROUP BY COALESCE(dt, ts) ORDER BY 1",
            &["[Timestamp(1705233600000000), Int(1)]", "[Timestamp(1705276800000000), Int(1)]", "[Timestamp(1705363200000000), Int(1)]", "[Null, Int(1)]"],
        ),
        // strings, and a NULL literal among the arguments
        ("SELECT MIN(COALESCE(s, s2)), MAX(COALESCE(NULL, s2, s)) FROM c", &["[Str(\"a\"), Str(\"d\")]"]),
        (
            "SELECT COALESCE(s, s2), COUNT(*) FROM c GROUP BY COALESCE(s, s2) ORDER BY 1",
            &["[Str(\"a\"), Int(1)]", "[Str(\"b\"), Int(1)]", "[Str(\"c\"), Int(1)]", "[Null, Int(1)]"],
        ),
        ("SELECT MAX(COALESCE(i, NULL)) FROM c", &["[Int(3)]"]),
        // a fixed position no longer types NVL2 / DECODE
        ("SELECT MAX(NVL2(s, i, f)), MAX(DECODE(g, 1, i, f)) FROM c", &["[Float(3.0), Float(0.25)]"]),
        // NULLIF returns its first argument or NULL: first-argument typing is right
        ("SELECT MAX(NULLIF(i, 0.5)) FROM c", &["[Int(3)]"]),
    ];
    for (sql, want) in cases {
        assert_eq!(at_every_width(&db, &mut s, sql), want, "{sql}");
    }
}

/// `CASE` is typed by every THEN and the ELSE (NULL literals aside), the
/// rule the `COALESCE` family follows: a first-branch `INT` used to type
/// the whole expression and the projection truncated `2.5` to `2`. A
/// decimal beside an integer or another decimal stays a decimal.
#[test]
fn case_is_typed_by_every_branch_and_decimals_stay_exact() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.set_dialect(Dialect::Oracle);
    s.execute_script(
        "CREATE TABLE m (k INT, i INT, f DOUBLE, d DECIMAL(10,2), w DECIMAL(8,4));
         INSERT INTO m VALUES (1, 7, 0.25, 1.25, 0.0625), (2, 8, 2.5, NULL, 2.5), (1, NULL, NULL, 3.10, NULL), (3, 9, 4.75, 0.05, 1.0);",
    )
    .unwrap();
    let cases: [(&str, &[&str]); 9] = [
        ("SELECT CASE WHEN k = 1 THEN 1 ELSE 2.5 END FROM m ORDER BY k, i", &["[Float(1.0)]", "[Float(1.0)]", "[Float(2.5)]", "[Float(2.5)]"]),
        // the first THEN is a NULL literal, the ELSE is missing
        ("SELECT CASE WHEN k = 9 THEN NULL WHEN k = 2 THEN i WHEN k = 3 THEN f END FROM m ORDER BY k, i", &["[Null]", "[Null]", "[Float(8.0)]", "[Float(4.75)]"]),
        // aggregates and group keys over a mixed-branch CASE
        ("SELECT MIN(CASE WHEN k = 1 THEN i ELSE f END), SUM(CASE WHEN k = 1 THEN i ELSE f END) FROM m", &["[Float(2.5), Float(14.25)]"]),
        (
            "SELECT CASE WHEN k = 1 THEN 1 ELSE f END, COUNT(*) FROM m GROUP BY CASE WHEN k = 1 THEN 1 ELSE f END ORDER BY 1",
            &["[Float(1.0), Int(2)]", "[Float(2.5), Int(1)]", "[Float(4.75), Int(1)]"],
        ),
        ("SELECT k, MAX(CASE k WHEN 1 THEN d ELSE i END) FROM m GROUP BY k ORDER BY k", &["[Int(1), Decimal(310, 2)]", "[Int(2), Decimal(800, 2)]", "[Int(3), Decimal(900, 2)]"]),
        // decimal x integer and decimal x decimal keep a decimal
        ("SELECT NVL(d, 0) FROM m ORDER BY k, i", &["[Decimal(125, 2)]", "[Decimal(310, 2)]", "[Decimal(0, 2)]", "[Decimal(5, 2)]"]),
        ("SELECT SUM(COALESCE(w, d)) FROM m", &["[Decimal(66625, 4)]"]),
        ("SELECT d FROM m WHERE k = 3 UNION ALL SELECT i FROM m WHERE k = 3", &["[Decimal(5, 2)]", "[Decimal(900, 2)]"]),
        // a float anywhere still makes the result a double
        ("SELECT MAX(COALESCE(d, f)) FROM m", &["[Float(3.1)]"]),
    ];
    for (sql, want) in cases {
        assert_eq!(at_every_width(&db, &mut s, sql), want, "{sql}");
    }
    let schema = s.execute("SELECT NVL(d, i), CASE WHEN k = 1 THEN w ELSE d END FROM m").unwrap().schema;
    assert_eq!(schema.field(0).data_type.sql_name(), "DECIMAL(12,2)", "10 integer digits of an INT, scale 2");
    assert_eq!(schema.field(1).data_type.sql_name(), "DECIMAL(12,4)", "8 integer digits of d, scale 4 of w");
}

/// A computed ORDER BY key is a hidden column a `Project` appends beneath
/// the sort, compared like any column: `-x` sorts by descending `x`, NULLs
/// last, whether `x` is selected or not.
#[test]
fn computed_key_expression_sorts() {
    let mut s = session();
    s.execute("CREATE TABLE srt (x INT, y VARCHAR(5))").unwrap();
    s.execute("INSERT INTO srt VALUES (3, 'c'), (1, 'a'), (NULL, 'n'), (2, 'b')").unwrap();
    let mut first = |sql: &str| -> Vec<String> {
        s.query(sql).unwrap().iter().map(|r| r.get(0).render()).collect()
    };
    assert_eq!(first("SELECT x FROM srt ORDER BY -x"), ["3", "2", "1", "NULL"]);
    assert_eq!(first("SELECT y FROM srt ORDER BY -x"), ["c", "b", "a", "n"]);
    let plan = first("EXPLAIN SELECT x FROM srt ORDER BY -x");
    let sort = plan.iter().position(|l| l.trim_start().starts_with("Sort keys=1")).unwrap();
    assert_eq!(plan[sort + 1].trim(), "Project cols=2", "{plan:?}");
    assert!(plan.iter().any(|l| l.contains("scan SRT→project")), "one pipeline evaluates the key: {plan:?}");
}

/// Column types of `sql`'s result, by SQL name, and its rows rendered.
fn typed(s: &mut Session, sql: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let r = s.execute(sql).unwrap();
    let types = r.schema.fields().iter().map(|f| f.data_type.sql_name()).collect();
    let rows = r.rows.iter().map(|row| row.values().iter().map(Datum::render).collect()).collect();
    (types, rows)
}

/// A bare NULL in a UNION arm constrains nothing, as in CASE and
/// COALESCE: the other arms type the column.
#[test]
fn union_null_arm_takes_the_other_arms_type() {
    let mut s = session();
    let (types, rows) = typed(&mut s, "SELECT NULL AS a, 1 AS b UNION ALL SELECT 2, NULL");
    assert_eq!(types, ["BIGINT", "BIGINT"]);
    assert_eq!(rows, [["NULL", "1"], ["2", "NULL"]]);
    let (types, rows) = typed(
        &mut s,
        "SELECT 1, 'x' UNION ALL SELECT NULL, NULL UNION ALL SELECT 3, 'z'",
    );
    assert_eq!(types, ["BIGINT", "VARCHAR"]);
    assert_eq!(rows, [["1", "x"], ["NULL", "NULL"], ["3", "z"]]);
    let (types, rows) = typed(&mut s, "SELECT 1.5 UNION ALL SELECT NULL UNION ALL SELECT NULL");
    assert_eq!(types, ["DOUBLE"], "{rows:?}");
    let (types, _) = typed(&mut s, "SELECT NULL UNION ALL SELECT NULL");
    assert_eq!(types, ["VARCHAR"], "nothing constrains it");
    let (types, rows) = typed(&mut s, "SELECT 7 UNION SELECT NULL UNION SELECT NULL");
    assert_eq!(types, ["BIGINT"], "a DISTINCT of NULLs is still untyped");
    assert_eq!(rows.len(), 2, "{rows:?}");
}

/// Standalone VALUES types each column as UNION ALL does, and every row
/// holds values of the reported type.
#[test]
fn standalone_values_rows_match_their_schema() {
    let mut s = session();
    s.set_dialect(Dialect::Db2);
    let (types, rows) = typed(&mut s, "VALUES (1), ('a')");
    assert_eq!(types, ["VARCHAR"]);
    assert_eq!(rows, [["1"], ["a"]]);
    let r = s.execute("VALUES (1), (2.5)").unwrap();
    assert_eq!(r.schema.field(0).data_type.sql_name(), "DOUBLE");
    assert_eq!(r.rows.iter().map(|row| row.get(0).clone()).collect::<Vec<_>>(), [Datum::Float(1.0), Datum::Float(2.5)]);
    let (types, rows) = typed(&mut s, "VALUES (NULL, 1), (2, NULL)");
    assert_eq!(types, ["BIGINT", "BIGINT"]);
    assert_eq!(rows, [["NULL", "1"], ["2", "NULL"]]);
    let err = s.execute("VALUES (1, 2), (3)").unwrap_err();
    assert!(err.to_string().contains("unequal arity"), "{err}");
}

/// An out-of-range parallelism is clamped where it enters, so the
/// executor's `parallelism * 4` window and morsel sizing cannot overflow.
#[test]
fn out_of_range_parallelism_is_clamped() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE p (x INT)").unwrap();
    s.execute("INSERT INTO p VALUES (3), (1), (2)").unwrap();
    db.catalog().set_parallelism(usize::MAX);
    let rows = s.query("SELECT x FROM p WHERE x > 1 ORDER BY x").unwrap();
    assert_eq!(rows.iter().map(|r| r.get(0).render()).collect::<Vec<_>>(), ["2", "3"]);
    assert_eq!(s.query("SELECT SUM(x) FROM p").unwrap()[0].get(0), &Datum::Int(6));
}
