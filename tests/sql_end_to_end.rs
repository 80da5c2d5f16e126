//! Cross-crate integration: the full SQL surface through the facade.

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec, Session};

fn session() -> Session {
    Database::with_hardware(HardwareSpec::laptop()).connect()
}

#[test]
fn full_lifecycle_script() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR(20));
         CREATE TABLE emp (id INT, dept_id INT, salary DOUBLE, hired DATE);
         INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty');
         INSERT INTO emp VALUES
           (1, 1, 100.0, '2015-01-01'),
           (2, 1, 120.0, '2016-06-15'),
           (3, 2, 90.0, '2014-03-20'),
           (4, 2, 95.0, '2016-11-30'),
           (5, 1, 130.0, '2016-12-01');",
    )
    .unwrap();
    let rows = s
        .query(
            "SELECT d.name, COUNT(*), AVG(e.salary) FROM emp e JOIN dept d ON e.dept_id = d.id \
             WHERE e.hired >= DATE '2015-01-01' GROUP BY d.name ORDER BY d.name",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(0).as_str(), Some("eng"));
    assert_eq!(rows[0].get(1), &Datum::Int(3));
    assert!((rows[0].get(2).as_float().unwrap() - 116.666).abs() < 0.01);
    assert_eq!(rows[1].get(1), &Datum::Int(1));
}

#[test]
fn left_join_and_having() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE a (k INT, v INT);
         CREATE TABLE b (k INT, w INT);
         INSERT INTO a VALUES (1, 10), (2, 20), (3, 30);
         INSERT INTO b VALUES (1, 100), (1, 101);",
    )
    .unwrap();
    let rows = s
        .query("SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.k, b.w")
        .unwrap();
    assert_eq!(rows.len(), 4);
    assert!(rows[2].get(1).is_null() && rows[3].get(1).is_null());
    let rows = s
        .query(
            "SELECT k, SUM(v) FROM a GROUP BY k HAVING SUM(v) > 15 ORDER BY 1",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn subqueries_union_distinct() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE t (x INT, tag VARCHAR(5));
         INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c');",
    )
    .unwrap();
    // IN subquery.
    let rows = s
        .query("SELECT x FROM t WHERE x IN (SELECT x FROM t WHERE tag = 'a') ORDER BY x")
        .unwrap();
    assert_eq!(rows.len(), 2);
    // Scalar subquery.
    let rows = s
        .query("SELECT x FROM t WHERE x = (SELECT MAX(x) FROM t)")
        .unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(4));
    // EXISTS.
    let rows = s
        .query("SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM t WHERE tag = 'zzz')")
        .unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(0));
    // UNION and UNION ALL.
    let rows = s
        .query("SELECT tag FROM t UNION SELECT tag FROM t")
        .unwrap();
    assert_eq!(rows.len(), 3);
    let rows = s
        .query("SELECT tag FROM t UNION ALL SELECT tag FROM t")
        .unwrap();
    assert_eq!(rows.len(), 8);
    // DISTINCT.
    let rows = s.query("SELECT DISTINCT tag FROM t ORDER BY tag").unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn ctes_and_derived_tables() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE sales (region VARCHAR(10), amt DOUBLE);
         INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5);",
    )
    .unwrap();
    let rows = s
        .query(
            "WITH totals AS (SELECT region, SUM(amt) AS total FROM sales GROUP BY region) \
             SELECT region FROM totals WHERE total > 10",
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0).as_str(), Some("east"));
    let rows = s
        .query(
            "SELECT t.region, t.total FROM \
             (SELECT region, SUM(amt) AS total FROM sales GROUP BY region) t \
             ORDER BY t.total DESC",
        )
        .unwrap();
    assert_eq!(rows[0].get(0).as_str(), Some("east"));
}

#[test]
fn aggregate_function_breadth() {
    let mut s = session();
    s.execute("CREATE TABLE n (x DOUBLE, y DOUBLE)").unwrap();
    s.execute(
        "INSERT INTO n VALUES (2, 4), (4, 8), (4, 8), (4, 8), (5, 10), (5, 10), (7, 14), (9, 18)",
    )
    .unwrap();
    let rows = s
        .query(
            "SELECT COUNT(*), COUNT(DISTINCT x), MEDIAN(x), VAR_POP(x), STDDEV(x), \
             COVARIANCE(x, y) FROM n",
        )
        .unwrap();
    let r = &rows[0];
    assert_eq!(r.get(0), &Datum::Int(8));
    assert_eq!(r.get(1), &Datum::Int(5));
    assert_eq!(r.get(2).as_float(), Some(4.5));
    assert!((r.get(3).as_float().unwrap() - 4.0).abs() < 1e-9);
    assert!((r.get(4).as_float().unwrap() - 2.0).abs() < 1e-9);
    assert!((r.get(5).as_float().unwrap() - 8.0).abs() < 1e-9);
}

#[test]
fn expressions_and_functions_in_queries() {
    let mut s = session();
    s.execute("CREATE TABLE t (s VARCHAR(20), n INT)").unwrap();
    s.execute("INSERT INTO t VALUES ('hello world', -5), (NULL, 12)")
        .unwrap();
    let rows = s
        .query(
            "SELECT UPPER(s), ABS(n), COALESCE(s, 'missing'), \
             CASE WHEN n < 0 THEN 'neg' ELSE 'pos' END FROM t ORDER BY n",
        )
        .unwrap();
    assert_eq!(rows[0].get(0).as_str(), Some("HELLO WORLD"));
    assert_eq!(rows[0].get(1), &Datum::Int(5));
    assert_eq!(rows[1].get(2).as_str(), Some("missing"));
    assert_eq!(rows[0].get(3).as_str(), Some("neg"));
    // LIKE, BETWEEN, IN.
    let rows = s
        .query(
            "SELECT COUNT(*) FROM t WHERE s LIKE 'hello%' OR n BETWEEN 10 AND 20 OR n IN (1, 2)",
        )
        .unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(2));
}

#[test]
fn sequences_views_aliases_across_dialects() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut ora = db.connect();
    ora.set_dialect(Dialect::Oracle);
    ora.execute("CREATE SEQUENCE ids START WITH 1000").unwrap();
    ora.execute("CREATE TABLE log (id INT, msg VARCHAR(30))").unwrap();
    ora.execute("INSERT INTO log VALUES (ids.NEXTVAL, 'first'), (ids.NEXTVAL, 'second')")
        .unwrap();
    let rows = ora.query("SELECT id FROM log ORDER BY id").unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(1000));
    assert_eq!(rows[1].get(0), &Datum::Int(1001));
    // A view created under Oracle is usable from a DB2 session.
    ora.execute("CREATE VIEW latest AS SELECT MAX(id) m FROM log")
        .unwrap();
    let mut db2 = db.connect();
    db2.set_dialect(Dialect::Db2);
    db2.execute("CREATE ALIAS l FOR log").unwrap();
    assert_eq!(
        db2.query("SELECT m FROM latest").unwrap()[0].get(0),
        &Datum::Int(1001)
    );
    db2.execute("INSERT INTO l VALUES (NEXT VALUE FOR ids, 'third')")
        .unwrap();
    assert_eq!(
        db2.query("SELECT m FROM latest").unwrap()[0].get(0),
        &Datum::Int(1002)
    );
}

#[test]
fn large_table_scan_correctness() {
    // Crosses many strides; exercises pushdown + skipping + late
    // materialization through plain SQL.
    let mut s = session();
    s.execute("CREATE TABLE big (id BIGINT, grp INT, v DOUBLE)").unwrap();
    let mut values = Vec::new();
    for i in 0..30_000 {
        values.push(format!("({}, {}, {})", i, i % 7, (i % 1000) as f64 / 10.0));
        if values.len() == 1000 {
            s.execute(&format!("INSERT INTO big VALUES {}", values.join(",")))
                .unwrap();
            values.clear();
        }
    }
    let rows = s
        .query("SELECT COUNT(*), SUM(v) FROM big WHERE id >= 29000")
        .unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(1000));
    let rows = s
        .query("SELECT grp, COUNT(*) FROM big GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(rows.len(), 7);
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert_eq!(total, 30_000);
    // Deletes + update visibility at scale.
    let affected = s.execute("DELETE FROM big WHERE grp = 3").unwrap().affected;
    assert!(affected > 4000);
    let rows = s.query("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(30_000 - affected as i64));
}

#[test]
fn order_by_variants() {
    let mut s = session();
    s.execute("CREATE TABLE t (a INT, b VARCHAR(5))").unwrap();
    s.execute("INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b'), (NULL, 'n')")
        .unwrap();
    // Ordinal, alias, hidden column, NULLS FIRST.
    let rows = s.query("SELECT b FROM t ORDER BY a").unwrap();
    assert_eq!(rows[0].get(0).as_str(), Some("a"));
    assert_eq!(rows[3].get(0).as_str(), Some("n"), "NULLs last by default");
    let rows = s
        .query("SELECT a AS sort_me FROM t ORDER BY sort_me DESC NULLS FIRST")
        .unwrap();
    assert!(rows[0].get(0).is_null());
    let rows = s.query("SELECT b FROM t ORDER BY 1 DESC").unwrap();
    assert_eq!(rows[0].get(0).as_str(), Some("n"));
}

#[test]
fn errors_are_structured() {
    let mut s = session();
    let e = s.execute("SELECT * FROM nope").unwrap_err();
    assert_eq!(e.class(), "42704");
    let e = s.execute("SELEC 1").unwrap_err();
    assert_eq!(e.class(), "42601");
    s.execute("CREATE TABLE t (x INT NOT NULL)").unwrap();
    let e = s.execute("INSERT INTO t VALUES (NULL)").unwrap_err();
    assert_eq!(e.class(), "23505");
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    let e = s.execute("SELECT x + 'abc' FROM t").unwrap_err();
    assert_eq!(e.class(), "22000");
}

/// `SUM` takes its state from the declared output type: an integer
/// expression or a `DECIMAL` column sums exactly and comes back typed,
/// where it used to add `f64`s and fail on the way out.
#[test]
fn sum_of_integer_expressions_and_decimals_is_typed() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE t (k INT, v INT, d DECIMAL(10,2));
         INSERT INTO t VALUES (1, 10, 1.25), (1, -20, 2.50), (2, 30, -0.75), (2, NULL, NULL);",
    )
    .unwrap();
    let dec = |unscaled: i128| Datum::Decimal(unscaled, 2);
    let strict = |rows: Vec<dashdb_local::common::Row>| -> Vec<Vec<String>> {
        // Render with the variant name: `Datum` equality is by value across
        // numeric kinds, and the kind is the point here.
        rows.iter()
            .map(|r| r.values().iter().map(|d| format!("{d:?}")).collect())
            .collect()
    };
    let show = |ds: &[Datum]| -> Vec<String> { ds.iter().map(|d| format!("{d:?}")).collect() };

    let global = [
        ("SELECT SUM(v + 1) FROM t", Datum::Int(23)),
        ("SELECT SUM(ABS(v)) FROM t", Datum::Int(60)),
        ("SELECT SUM(v * 2) FROM t", Datum::Int(40)),
        ("SELECT SUM(d) FROM t", dec(300)),
    ];
    for (sql, want) in global {
        assert_eq!(strict(s.query(sql).unwrap()), vec![show(&[want])], "{sql}");
    }
    let grouped = [
        ("SELECT k, SUM(v + 1) FROM t GROUP BY k ORDER BY k", [Datum::Int(-8), Datum::Int(31)]),
        ("SELECT k, SUM(ABS(v)) FROM t GROUP BY k ORDER BY k", [Datum::Int(30), Datum::Int(30)]),
        ("SELECT k, SUM(v * 2) FROM t GROUP BY k ORDER BY k", [Datum::Int(-20), Datum::Int(60)]),
        ("SELECT k, SUM(d) FROM t GROUP BY k ORDER BY k", [dec(375), dec(-75)]),
    ];
    for (sql, want) in grouped {
        let expect: Vec<Vec<String>> = want
            .iter()
            .enumerate()
            .map(|(k, w)| show(&[Datum::Int(k as i64 + 1), w.clone()]))
            .collect();
        assert_eq!(strict(s.query(sql).unwrap()), expect, "{sql}");
    }
    // An all-NULL decimal sum is NULL, not zero.
    let rows = s.query("SELECT SUM(d) FROM t WHERE v IS NULL").unwrap();
    assert!(rows[0].get(0).is_null());

    // AVG / MIN / MAX of the same arguments stay as they were: AVG is a
    // float, MIN/MAX keep the argument's type.
    let others = [
        ("SELECT AVG(v + 1), MIN(v + 1), MAX(v + 1) FROM t",
         vec![Datum::Float(23.0 / 3.0), Datum::Int(-19), Datum::Int(31)]),
        ("SELECT AVG(ABS(v)), MIN(ABS(v)), MAX(ABS(v)) FROM t",
         vec![Datum::Float(20.0), Datum::Int(10), Datum::Int(30)]),
        ("SELECT AVG(v * 2), MIN(v * 2), MAX(v * 2) FROM t",
         vec![Datum::Float(40.0 / 3.0), Datum::Int(-40), Datum::Int(60)]),
        ("SELECT AVG(d), MIN(d), MAX(d) FROM t", vec![Datum::Float(1.0), dec(-75), dec(250)]),
    ];
    for (sql, want) in others {
        assert_eq!(strict(s.query(sql).unwrap()), vec![show(&want)], "{sql}");
    }
    let rows = s
        .query("SELECT k, AVG(v * 2), MIN(d), MAX(ABS(v)) FROM t GROUP BY k ORDER BY k")
        .unwrap();
    assert_eq!(
        strict(rows),
        vec![
            show(&[Datum::Int(1), Datum::Float(-10.0), dec(125), Datum::Int(20)]),
            show(&[Datum::Int(2), Datum::Float(60.0), dec(-75), Datum::Int(30)]),
        ]
    );

    // Overflow of the exact sum is the SUM overflow error, not a wrap.
    s.execute("CREATE TABLE big (v BIGINT)").unwrap();
    s.execute("INSERT INTO big VALUES (9223372036854775807), (1)").unwrap();
    let err = s.query("SELECT SUM(v) FROM big").unwrap_err();
    assert_eq!(err.class(), "22000", "{err}");
}

/// A computed key or argument evaluates to the type the analyzer declared
/// for it, so nothing is rounded, truncated or parsed on its way into the
/// aggregate: a decimal quotient is a `DOUBLE`, a decimal product carries
/// the sum of the scales exactly, `COUNT(DISTINCT expr)` compares values of
/// one type, and an argument no implicit conversion makes a number is
/// refused before the statement runs.
#[test]
fn computed_aggregate_values_outside_the_declared_type_are_not_cast() {
    let mut s = session();
    s.execute_script(
        "CREATE TABLE m (i INT, f DOUBLE, s VARCHAR(8), d DECIMAL(10,4));
         INSERT INTO m VALUES (0, NULL, '7', 1.25), (NULL, 0.5, '8', 1.25), (NULL, 0.25, 'x', 2.5),
                              (3, NULL, '7', NULL), (NULL, 3.0, NULL, NULL), (NULL, NULL, NULL, NULL);",
    )
    .unwrap();
    let one = |s: &mut Session, sql: &str| s.query(sql).unwrap()[0].get(0).clone();
    // `Datum` equality is by value across numeric kinds and scales; the
    // `Debug` rendering shows both.
    let shown = |rows: Vec<dashdb_local::common::Row>| -> Vec<String> { rows.iter().map(|r| format!("{:?}", r.values())).collect() };

    // 0, 0.5, 0.25, 3 and 3.0 are four values; `Int 3` is `Float 3.0`.
    assert_eq!(one(&mut s, "SELECT COUNT(DISTINCT COALESCE(i, f)) FROM m"), Datum::Int(4));
    assert_eq!(one(&mut s, "SELECT COUNT(COALESCE(i, f)) FROM m"), Datum::Int(5));
    // Numbers and strings in one argument meet as strings: '0', '8', 'x', '3'.
    assert_eq!(one(&mut s, "SELECT COUNT(DISTINCT COALESCE(i, s)) FROM m"), Datum::Int(4));
    let rows = s
        .query("SELECT s, COUNT(DISTINCT COALESCE(i, f)) FROM m GROUP BY s ORDER BY s")
        .unwrap();
    let counts: Vec<Datum> = rows.iter().map(|r| r.get(1).clone()).collect();
    assert_eq!(counts, vec![Datum::Int(2), Datum::Int(1), Datum::Int(1), Datum::Int(1)]);

    // A quotient with a decimal operand is a `DOUBLE`.
    let (third, two_thirds) = (1.25 / 3.0, 2.5 / 3.0);
    assert_eq!(
        shown(s.query("SELECT d / 3, COUNT(*) FROM m GROUP BY d / 3 ORDER BY 1").unwrap()),
        [format!("[Float({third}), Int(2)]"), format!("[Float({two_thirds}), Int(1)]"), "[Null, Int(3)]".to_string()]
    );
    assert_eq!(shown(s.query("SELECT SUM(d / 3) FROM m").unwrap()), [format!("[Float({})]", third + third + two_thirds)]);
    // A string is not a number: refused at plan time, before any row is
    // read (`EXPLAIN` only plans).
    for sql in ["SELECT SUM(s) FROM m", "SELECT AVG(s) FROM m", "SELECT MEDIAN(s) FROM m WHERE 1 = 0"] {
        for stmt in [sql.to_string(), format!("EXPLAIN {sql}")] {
            let err = s.query(&stmt).unwrap_err();
            assert_eq!(err.class(), "42000", "{stmt}: {err}");
        }
    }
    // What an implicit conversion reaches goes through: integers into a
    // float aggregate.
    assert_eq!(one(&mut s, "SELECT SUM(COALESCE(f, i)) FROM m"), Datum::Float(6.75));
    // `COALESCE` and `CASE` are typed by all their branches, so an integer
    // branch beside a float one goes through as the floats they both are.
    let i_or_f = "CASE WHEN i IS NOT NULL THEN i ELSE f END";
    for expr in ["COALESCE(i, f)", i_or_f] {
        assert_eq!(one(&mut s, &format!("SELECT SUM({expr}) FROM m")), Datum::Float(6.75));
        assert_eq!(one(&mut s, &format!("SELECT MIN({expr}) FROM m")), Datum::Float(0.0));
        let groups = s.query(&format!("SELECT {expr}, COUNT(*) FROM m GROUP BY {expr} ORDER BY 1")).unwrap();
        assert_eq!(
            groups,
            vec![row![0.0, 1i64], row![0.25, 1i64], row![0.5, 1i64], row![3.0, 2i64], row![Datum::Null, 1i64]]
        );
    }
    assert_eq!(s.query("SELECT CASE WHEN i = 3 THEN 1 ELSE 2.5 END FROM m WHERE i IS NOT NULL ORDER BY i").unwrap(), vec![row![2.5], row![1.0]]);
    // Decimal arithmetic is exact: `d * 2 + i` at scale 4, `d * d` at 8.
    assert_eq!(shown(s.query("SELECT SUM(d * 2 + i) FROM m").unwrap()), ["[Decimal(25000, 4)]"]);
    assert_eq!(shown(s.query("SELECT MAX(d * d) FROM m").unwrap()), ["[Decimal(625000000, 8)]"]);
    assert_eq!(
        shown(s.query("SELECT d * d, COUNT(*) FROM m GROUP BY d * d ORDER BY 1").unwrap()),
        ["[Decimal(156250000, 8), Int(2)]", "[Decimal(625000000, 8), Int(1)]", "[Null, Int(3)]"]
    );
    assert_eq!(one(&mut s, "SELECT COUNT(DISTINCT d * d) FROM m"), Datum::Int(2));

    // `SUM(d * d)` at DECIMAL(10,2) needs scale 4, and gets it.
    s.execute_script(
        "CREATE TABLE p (k INT, d DECIMAL(10,2));
         INSERT INTO p VALUES (1, 1.25), (1, 0.10), (2, 3.33), (2, NULL), (1, -99999.99);",
    )
    .unwrap();
    assert_eq!(shown(s.query("SELECT SUM(d * d) FROM p").unwrap()), ["[Decimal(99999980126615, 4)]"]);
    assert_eq!(
        shown(s.query("SELECT k, SUM(d * d), MAX(d * d) FROM p WHERE d > -1 GROUP BY k ORDER BY k").unwrap()),
        ["[Int(1), Decimal(15725, 4), Decimal(15625, 4)]", "[Int(2), Decimal(110889, 4), Decimal(110889, 4)]"]
    );
    // A product past what a DECIMAL(38) column holds is the classified
    // overflow error, never a wrapped value.
    s.execute_script("CREATE TABLE w (x DECIMAL(38,0)); INSERT INTO w VALUES (9000000000000000000);").unwrap();
    for sql in ["SELECT x * x FROM w", "SELECT x * x * x FROM w", "SELECT SUM(x * x) FROM w", "SELECT x * x, COUNT(*) FROM w GROUP BY x * x"] {
        let err = s.query(sql).unwrap_err();
        assert_eq!(err.class(), "22000", "{sql}: {err}");
    }
}

/// Join pairs whose two columns occupy different key domains compare in
/// their common one: numerics as `f64`, a date as its midnight, and a pair
/// that is not comparable never matches. The expected `(l.id, r.id)` rows
/// were produced by the `Datum`-keyed join this one replaced.
#[test]
fn cross_domain_join_keys_compare_in_their_common_domain() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute_script(
        "CREATE TABLE l (id INT, i BIGINT, d2 DECIMAL(10,2), dt DATE, s VARCHAR(8));
         CREATE TABLE r (id INT, f DOUBLE, d4 DECIMAL(12,4), ts TIMESTAMP, i BIGINT);
         INSERT INTO l VALUES (1, 2, 1.10, '2024-01-15', '2'), (2, 3, 2.50, '2024-01-16', 'x'),
             (3, 0, 0.00, NULL, NULL), (4, NULL, -1.25, '1970-01-01', '3'),
             (5, 9007199254740993, 7.00, '2024-01-15', '7');
         INSERT INTO r VALUES (10, 2.0, 1.1000, '2024-01-15 00:00:00', 2), (11, 2.5, 2.5000, '2024-01-16 00:00:01', 3),
             (12, -0.0, 0.0000, NULL, 0), (13, 9007199254740992.0, -1.2500, '1970-01-01 00:00:00', 9007199254740993),
             (14, 3.0, 7.0001, '2024-01-15 00:00:00', NULL);",
    )
    .unwrap();
    // (ON clause, inner pairs, EXPLAIN label); a LEFT JOIN adds each
    // unmatched `l.id` padded with NULL.
    type Pairs = &'static [(i64, i64)];
    let cases: [(&str, Pairs, &str); 9] = [
        ("l.i = r.f", &[(1, 10), (2, 14), (3, 12), (5, 13)], "Datum"),
        ("l.i = r.d4", &[(3, 12)], "Datum"),
        ("l.d2 = r.d4", &[(1, 10), (2, 11), (3, 12), (4, 13)], "Datum"),
        ("l.d2 = r.f", &[(2, 11), (3, 12)], "Datum"),
        ("l.dt = r.ts", &[(1, 10), (1, 14), (4, 13), (5, 10), (5, 14)], "Datum"),
        ("l.i = r.i AND l.d2 = r.d4", &[(1, 10), (2, 11), (3, 12)], "Datum"),
        ("l.i = r.f AND l.i = r.i", &[(1, 10), (3, 12), (5, 13)], "Datum"),
        ("l.s = r.i", &[], "Datum"),
        ("l.i = r.i", &[(1, 10), (2, 11), (3, 12), (5, 13)], "Encoded"),
    ];
    for (on, inner, label) in cases {
        let mut left: Vec<(i64, Option<i64>)> = inner.iter().map(|&(l, r)| (l, Some(r))).collect();
        left.extend((1..=5).filter(|l| !inner.iter().any(|p| p.0 == *l)).map(|l| (l, None)));
        left.sort();
        let inner: Vec<(i64, Option<i64>)> = inner.iter().map(|&(l, r)| (l, Some(r))).collect();
        for (kind, want) in [("JOIN", &inner), ("LEFT JOIN", &left)] {
            let sql = format!("SELECT l.id, r.id FROM l {kind} r ON {on} ORDER BY 1, 2");
            for par in [1usize, 4, 8] {
                db.catalog().set_parallelism(par);
                let out = s.execute(&sql).unwrap();
                let got: Vec<(i64, Option<i64>)> =
                    out.rows.iter().map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int())).collect();
                assert_eq!(&got, want, "{kind} ON {on} at parallelism {par}");
                assert_eq!(out.stats.encoded_key_rows, 10, "{kind} ON {on}: every row keys on words");
            }
            let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
            let text: Vec<String> = explain.rows.iter().map(|r| r.get(0).render()).collect();
            assert!(text.iter().any(|l| l.contains(&format!("keys={label}"))), "{on}: {text:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Casts out of range, and the COALESCE family's laziness
// ---------------------------------------------------------------------------

/// A double cast to an integer or a decimal is an error when no value of
/// the target type represents it — NaN, ±inf, or past the type's range
/// after truncation — and the error names the input value. A bound that
/// is out of an integer column's range, or between two of its values,
/// still filters that column exactly.
#[test]
fn float_casts_out_of_range_are_errors() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    for (sql, names) in [
        ("SELECT CAST(1e30 AS BIGINT)", "1000000000000000000000000000000"),
        ("SELECT CAST(CAST('nan' AS DOUBLE) AS BIGINT)", "NaN"),
        ("SELECT CAST(CAST('nan' AS DOUBLE) AS DECIMAL(10,2))", "NaN"),
        ("SELECT CAST(CAST('inf' AS DOUBLE) AS BIGINT)", "inf"),
        ("SELECT CAST(CAST('-inf' AS DOUBLE) AS DECIMAL(10,2))", "inf"),
        ("SELECT CAST(9223372036854775807.0 AS BIGINT)", "9223372036854776000"),
        ("SELECT CAST(1e30 AS INTEGER)", "1000000000000000000000000000000"),
    ] {
        let err = s.execute(sql).expect_err(sql);
        assert_eq!(err.class(), "22000", "{sql}: {err}");
        assert!(err.to_string().contains(names) && err.to_string().contains("out of range"), "{sql}: {err}");
        assert!(!err.to_string().contains("9223372036854775807"), "{sql}: names a saturated value: {err}");
    }
    for (sql, want) in [
        ("SELECT CAST(-9223372036854775808.0 AS BIGINT)", Datum::Int(i64::MIN)),
        ("SELECT CAST(-2.9 AS BIGINT)", Datum::Int(-2)),
        ("SELECT CAST(1.005e2 AS DECIMAL(10,2))", Datum::Decimal(10050, 2)),
    ] {
        assert_eq!(s.execute(sql).unwrap().rows[0].get(0), &want, "{sql}");
    }
    s.execute("CREATE TABLE small (x BIGINT)").unwrap();
    assert!(s.execute("INSERT INTO small VALUES (1e30)").is_err());
    assert!(s.execute("SELECT x FROM small").unwrap().rows.is_empty());
    // Sealed strides: the filter runs on codes where the bound is exact.
    let rows: Vec<Row> = (0..3000).map(|i| Row::new(vec![Datum::Int([2, 3, i64::MAX, i64::MIN][i % 4])])).collect();
    let x = Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap();
    db.catalog().create_table("big", x, None).unwrap().write().load_rows(rows).unwrap();
    for (pred, want) in [("x > 1e30", 0), ("x < -1e30", 0), ("x < 1e30", 3000), ("x > 2.5", 1500), ("x <= 2.5", 1500), ("x = 3.0", 750)] {
        let out = s.execute(&format!("SELECT COUNT(*) FROM big WHERE {pred}")).unwrap();
        assert_eq!(out.rows[0].get(0), &Datum::Int(want), "{pred}");
    }
}

/// `COALESCE`, `NVL` and `IFNULL` evaluate an argument only where every
/// argument before it was NULL, as the equivalent CASE does: a failing
/// later argument fails nothing when an earlier one answers.
#[test]
fn the_coalesce_family_is_lazy() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    let rows: Vec<Row> = (0..2500).map(|i| Row::new(vec![Datum::Int(i % 7 + 1)])).collect();
    let a = Schema::new(vec![Field::new("a", DataType::Int64)]).unwrap();
    db.catalog().create_table("c", a, None).unwrap().write().load_rows(rows).unwrap();
    for (dialect, f) in [(Dialect::Ansi, "COALESCE"), (Dialect::Oracle, "NVL"), (Dialect::Netezza, "IFNULL"), (Dialect::PostgreSql, "IFNULL")] {
        s.set_dialect(dialect);
        let case = s.execute("SELECT CASE WHEN a IS NOT NULL THEN a ELSE 6 / (a - 3) END FROM c").unwrap();
        let lazy = s.execute(&format!("SELECT {f}(a, 6 / (a - 3)) FROM c")).unwrap_or_else(|e| panic!("{f}: {e}"));
        assert_eq!(lazy.rows, case.rows, "{f}");
        assert_eq!(s.execute(&format!("SELECT COUNT(*) FROM c WHERE {f}(a, 6 / (a - 3)) > 2")).unwrap().rows[0].get(0), &Datum::Int(1785), "{f}");
        // Where the earlier argument is NULL the later one runs, and fails.
        assert!(s.execute(&format!("SELECT {f}(CAST(NULL AS BIGINT), 6 / (a - 3)) FROM c")).is_err(), "{f}");
    }
}
