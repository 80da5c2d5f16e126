//! Types are decided once: every expression the analyzer lowers evaluates
//! to the type it declares. Generated expressions over the implicit-
//! conversion lattice (`INT`, `BIGINT`, `DECIMAL(p,s)`, `DOUBLE`, `DATE`,
//! `TIMESTAMP`, `VARCHAR`) and boundary rows run in every plan position —
//! select list, group key, aggregate argument, join key, sort key, UNION
//! arm — at widths 1, 4 and 8; each non-NULL result must be of its
//! column's declared type, and a debug build's executor checks the same of
//! every value it stores on the way. A computed key must behave exactly
//! like the same values stored in a column. A last leg calls every builtin
//! once and checks its result against its registered rule.

#[path = "common/gen.rs"]
mod gen;
use gen::{suite_seed, Gen};

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{date, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec, Session};
use dashdb_local::exec::functions::builtin_registry;
use std::sync::Arc;

/// The generated table's columns and their declared types.
const COLUMNS: [(&str, DataType); 8] = [
    ("i", DataType::Int32),
    ("b", DataType::Int64),
    ("d", DataType::Decimal(10, 2)),
    ("e", DataType::Decimal(18, 4)),
    ("f", DataType::Float64),
    ("dt", DataType::Date),
    ("ts", DataType::Timestamp),
    ("s", DataType::Utf8),
];

fn schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(*n, *t)).collect()).unwrap()
}

/// One row. With `edges` its pools hold each type's edges — `i64::MIN/MAX`,
/// `±0.0`, NaN, the empty string, a decimal at its precision's limit — on
/// which most arithmetic fails; without, moderate values on which it
/// answers. NULL is in every pool.
fn gen_row(g: &mut Gen, edges: bool) -> Row {
    let day = |s: &str| Datum::Date(date::parse_date(s).unwrap());
    let instant = |s: &str| Datum::Timestamp(date::parse_timestamp(s).unwrap());
    let (i, b, d, e, f) = if edges {
        ([i32::MAX as i64, i32::MIN as i64], [i64::MIN, i64::MAX], 9_999_999_999, 123_456_789_012_345_678, [f64::NAN, -1e300])
    } else {
        ([12, -5], [-9, 1000], 31_415, 27_182, [0.25, -3.75])
    };
    Row::new(vec![
        g.pick(&[Datum::Null, Datum::Int(0), Datum::Int(7), Datum::Int(-3), Datum::Int(i[0]), Datum::Int(i[1])]),
        g.pick(&[Datum::Null, Datum::Int(b[0]), Datum::Int(b[1]), Datum::Int(0), Datum::Int(42)]),
        g.pick(&[Datum::Null, Datum::Decimal(125, 2), Datum::Decimal(-75, 2), Datum::Decimal(d, 2), Datum::Decimal(0, 2)]),
        g.pick(&[Datum::Null, Datum::Decimal(1, 4), Datum::Decimal(e, 4), Datum::Decimal(-25_000, 4)]),
        g.pick(&[Datum::Null, Datum::Float(0.0), Datum::Float(-0.0), Datum::Float(f[0]), Datum::Float(1.5), Datum::Float(f[1])]),
        g.pick(&[Datum::Null, day("2024-01-31"), day("1970-01-01"), day("1999-12-31")]),
        g.pick(&[Datum::Null, instant("2024-01-14 12:00:00"), instant("1970-01-01 00:00:01")]),
        g.pick(&[Datum::Null, Datum::from(""), Datum::from("abc"), Datum::from("12"), Datum::from("2024-02-29")]),
    ])
}

/// The kind of value an expression is generated to produce: an exact
/// number (`INT`, `BIGINT`, `DECIMAL`), any number (a `DOUBLE` too), a date
/// or timestamp, a string. Branches of one kind mix types along the
/// lattice (`COALESCE(i, d, f)`), so the analyzer has casts to insert.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Exact,
    Num,
    Time,
    Str,
}

const KINDS: [Kind; 4] = [Kind::Exact, Kind::Num, Kind::Time, Kind::Str];

/// A random expression of `kind` with at most `depth` nested operators, in
/// the shapes the typing rules cover: arithmetic, `CASE`, the `COALESCE`
/// family, `CAST`, and builtins nested in each other.
fn gen_expr(g: &mut Gen, depth: usize, kind: Kind) -> String {
    if depth == 0 || g.below(4) == 0 {
        return leaf(g, kind);
    }
    let sub = |g: &mut Gen, k: Kind| {
        // A number may be exact; an exact number may not be a double.
        let k = if k == Kind::Num && g.below(2) == 0 { Kind::Exact } else { k };
        gen_expr(g, depth - 1, k)
    };
    let any = |g: &mut Gen| {
        let k = g.pick(&KINDS);
        sub(g, k)
    };
    match g.below(6) {
        0 => match kind {
            Kind::Exact => format!("({} {} {})", sub(g, kind), g.pick(&["+", "-", "*", "%"]), sub(g, kind)),
            Kind::Num => format!("({} {} {})", sub(g, kind), g.pick(&["+", "-", "*", "/", "%"]), sub(g, kind)),
            Kind::Time => format!("(CAST({} AS DATE) {} {})", sub(g, kind), g.pick(&["+", "-"]), sub(g, Kind::Exact)),
            Kind::Str => format!("({} || {})", sub(g, kind), any(g)),
        },
        1 => {
            let cond = if g.below(2) == 0 { format!("{} IS NULL", any(g)) } else { format!("{} > {}", sub(g, Kind::Num), sub(g, Kind::Num)) };
            let otherwise = if g.below(3) == 0 { String::new() } else { format!(" ELSE {}", sub(g, kind)) };
            format!("CASE WHEN {cond} THEN {}{otherwise} END", sub(g, kind))
        }
        2 => match g.below(6) {
            0 => format!("COALESCE({}, {}, {})", sub(g, kind), sub(g, kind), sub(g, kind)),
            1 => format!("NVL({}, {})", sub(g, kind), sub(g, kind)),
            2 => format!("NVL2({}, {}, {})", any(g), sub(g, kind), sub(g, kind)),
            3 => format!("DECODE({}, {}, {}, {})", any(g), any(g), sub(g, kind), sub(g, kind)),
            4 => format!("GREATEST({}, {})", sub(g, kind), sub(g, kind)),
            _ => format!("LEAST({}, {})", sub(g, kind), sub(g, kind)),
        },
        3 => {
            let to = match kind {
                Kind::Exact => g.pick(&["INT", "SMALLINT", "BIGINT", "DECIMAL(12,3)"]),
                Kind::Num => g.pick(&["DOUBLE", "DECIMAL(18,1)"]),
                Kind::Time => g.pick(&["DATE", "TIMESTAMP"]),
                Kind::Str => "VARCHAR(20)",
            };
            let from = if kind == Kind::Time { g.pick(&[Kind::Time, Kind::Str]) } else { g.pick(&KINDS) };
            format!("CAST({} AS {to})", sub(g, from))
        }
        4 => match (kind, g.below(4)) {
            (Kind::Exact, 0) => format!("ABS({})", sub(g, kind)),
            (Kind::Exact, 1) => format!("ROUND({}, {})", sub(g, kind), g.pick(&["0", "1", "-1"])),
            (Kind::Exact, 2) => format!("MOD({}, {})", sub(g, kind), sub(g, kind)),
            (Kind::Exact, _) => format!("NULLIF({}, {})", sub(g, kind), sub(g, kind)),
            (Kind::Num, 0) => format!("TRUNC({})", sub(g, kind)),
            (Kind::Num, 1) => format!("SIGN({})", sub(g, kind)),
            (Kind::Num, 2) => format!("LENGTH({})", sub(g, Kind::Str)),
            (Kind::Num, _) => format!("ROUND({}, 1)", sub(g, kind)),
            (Kind::Time, 0) => format!("ADD_MONTHS({}, 1)", sub(g, kind)),
            (Kind::Time, 1) => format!("LAST_DAY({})", sub(g, kind)),
            (Kind::Time, _) => format!("TRUNC({})", sub(g, kind)),
            (Kind::Str, 0) => format!("UPPER({})", sub(g, kind)),
            (Kind::Str, 1) => format!("SUBSTR({}, 1, 2)", sub(g, kind)),
            (Kind::Str, _) => format!("TO_CHAR({})", any(g)),
        },
        _ if kind == Kind::Exact || kind == Kind::Num => format!("(- {})", sub(g, kind)),
        _ => leaf(g, kind),
    }
}

fn leaf(g: &mut Gen, kind: Kind) -> String {
    if g.below(8) == 0 {
        return "NULL".to_string();
    }
    let (cols, lits): (&[&str], &[&str]) = match kind {
        Kind::Exact => (&["i", "b", "d", "e", "d", "e"], &["0", "3", "-1", "9223372036854775807", "CAST(1.5 AS DECIMAL(3,1))"]),
        Kind::Num => (&["f", "d", "e", "i"], &["2.5", "0.0", "-1e300"]),
        Kind::Time => (&["dt", "ts"], &["CAST('2024-02-29' AS DATE)", "CAST('2024-01-01 10:00:00' AS TIMESTAMP)"]),
        Kind::Str => (&["s"], &["''", "'x'", "'12'", "'2024-01-15'"]),
    };
    if g.below(3) > 0 { g.pick(cols) } else { g.pick(lits) }.to_string()
}

/// The statements that put `e` in a key position over table `t`: group
/// key, aggregate argument, sort key.
fn key_positions(t: &str, e: &str) -> Vec<String> {
    vec![
        format!("SELECT {e}, COUNT(*) FROM {t} GROUP BY {e}"),
        format!("SELECT MIN({e}), MAX({e}), COUNT(DISTINCT {e}), COUNT({e}) FROM {t}"),
        format!("SELECT b, COUNT(DISTINCT {e}), MAX({e}) FROM {t} GROUP BY b"),
        format!("SELECT SUM({e}), AVG({e}) FROM {t}"),
        format!("SELECT {e} FROM {t} ORDER BY {e} DESC"),
        format!("SELECT i FROM {t} ORDER BY {e}, i"),
    ]
}

/// The statements that put `e` in every plan position over table `t`; `o`
/// is a second expression for the other UNION arm.
fn positions(t: &str, e: &str, o: &str) -> Vec<String> {
    let mut all = key_positions(t, e);
    all.extend([
        format!("SELECT {e} FROM {t}"),
        format!("SELECT x.k, y.k FROM (SELECT {e} AS k FROM {t} WHERE i = 7) x JOIN (SELECT DISTINCT {e} AS k FROM {t}) y ON x.k = y.k"),
        format!("SELECT {e} FROM {t} UNION ALL SELECT {o} FROM {t}"),
        format!("SELECT {o} FROM {t} UNION SELECT {e} FROM {t}"),
        format!("SELECT DISTINCT i, b FROM {t} ORDER BY i + b"),
        format!("SELECT b, SUM(i) s FROM {t} GROUP BY b ORDER BY s * 2, b"),
    ]);
    all
}

/// One expression per typing rule, whatever the seed draws, each with a
/// second expression for the other UNION arm.
const ANCHORS: [(&str, &str); 10] = [
    ("d * e", "i"),
    ("(d + i) - e", "f"),
    ("e % d", "b"),
    ("d / i", "e"),
    ("COALESCE(i, d, f)", "s"),
    ("CASE WHEN i > 0 THEN d ELSE e END", "i"),
    ("NVL2(s, dt, ts)", "dt"),
    ("DECODE(i, 7, b, 0, d)", "ts"),
    ("GREATEST(i, b, 2.5)", "d"),
    ("ROUND(e, 1) + ABS(d)", "e * e"),
];

/// A database holding the generated tables `t` (boundary rows) and `u`
/// (moderate rows), a session on it, and the generator after the rows.
fn setup(salt: u64) -> (Arc<Database>, Session, Gen) {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut g = Gen(suite_seed() ^ salt);
    // Past two strides, so the wider widths run morsels in parallel.
    for (table, edges) in [("t", true), ("u", false)] {
        let rows: Vec<Row> = (0..2 * 1024 + 17).map(|_| gen_row(&mut g, edges)).collect();
        db.catalog().create_table(table, schema(), None).unwrap().write().load_rows(rows).unwrap();
    }
    let mut s = db.connect();
    s.set_dialect(Dialect::Oracle);
    (db, s, g)
}

/// The anchors, then `n` generated pairs.
fn expressions(g: &mut Gen, n: usize) -> Vec<(String, String)> {
    let generated: Vec<(String, String)> = (0..n)
        .map(|_| {
            let (ek, ok) = (g.pick(&KINDS), g.pick(&KINDS));
            (gen_expr(g, 3, ek), gen_expr(g, 2, ok))
        })
        .collect();
    ANCHORS.iter().map(|(e, o)| (e.to_string(), o.to_string())).chain(generated).collect()
}

/// Run `sql` at widths 1, 4 and 8: the same outcome at each — rows, or an
/// error of one class that is never the internal one — and every non-NULL
/// value of the declared type of its column. Rows compare by `Debug`, so a
/// zero's sign and NaN count.
fn outcome(db: &Arc<Database>, s: &mut Session, sql: &str) -> Result<Vec<String>, &'static str> {
    let mut first: Option<Result<Vec<String>, &'static str>> = None;
    for par in [1usize, 4, 8] {
        db.catalog().set_parallelism(par);
        let outcome = match s.execute(sql) {
            Ok(out) => {
                for row in &out.rows {
                    for (v, f) in row.values().iter().zip(out.schema.fields()) {
                        assert!(v.has_type(f.data_type), "{sql}: {v:?} in column {} declared {}", f.name, f.data_type);
                    }
                }
                Ok(out.rows.iter().map(|r| format!("{:?}", r.values())).collect())
            }
            Err(e) => {
                assert_ne!(e.class(), "XX000", "{sql}: {e}");
                Err(e.class())
            }
        };
        assert_eq!(&outcome, first.get_or_insert(outcome.clone()), "{sql} at width {par}");
    }
    first.expect("three widths ran")
}

#[test]
fn generated_expressions_evaluate_to_their_declared_types_everywhere() {
    let (db, mut s, mut g) = setup(0x7479_7065);
    let (mut ran, mut answered) = (0, 0);
    for (e, o) in expressions(&mut g, 50) {
        for sql in ["t", "u"].into_iter().flat_map(|t| positions(t, &e, &o)) {
            ran += 1;
            answered += usize::from(outcome(&db, &mut s, &sql).is_ok());
        }
    }
    // Boundary rows make many statements fail (overflow, a string that is
    // no date); enough must answer for the property to mean something.
    assert!(answered * 4 >= ran, "only {answered} of {ran} statements returned rows");
}

/// A computed key behaves exactly like the same values stored in a column:
/// with `m` holding `e`'s values as column `k`, every key position over
/// `e` gives what it gives over `k` — the same rows in the same order, or
/// an error of the same class.
#[test]
fn computed_keys_behave_like_stored_columns() {
    let (db, mut s, mut g) = setup(0x6b65_7973);
    let (mut tried, mut twins, mut compared, mut answered) = (0, 0, 0, 0);
    for (e, _) in expressions(&mut g, 30) {
        // An integer literal in GROUP BY or ORDER BY is an ordinal, not a
        // value.
        if e.parse::<i64>().is_ok() {
            continue;
        }
        for t in ["t", "u"] {
            s.execute("DROP TABLE IF EXISTS m").unwrap();
            tried += 1;
            // An expression failing on some row has no stored twin, nor
            // has one whose values the column store does not keep exactly:
            // a sealed stride stores `-0.0` as `0.0`.
            if s.execute(&format!("CREATE TABLE m AS SELECT {e} AS k, i, b FROM {t}")).is_err()
                || outcome(&db, &mut s, "SELECT k FROM m") != outcome(&db, &mut s, &format!("SELECT {e} FROM {t}"))
            {
                continue;
            }
            twins += 1;
            for (computed, stored) in key_positions(t, &e).into_iter().zip(key_positions("m", "k")) {
                let want = outcome(&db, &mut s, &stored);
                assert_eq!(outcome(&db, &mut s, &computed), want, "{computed} vs {stored}");
                compared += 1;
                answered += usize::from(want.is_ok());
            }
        }
    }
    assert!(twins * 2 >= tried, "only {twins} of {tried} expressions have a stored twin");
    assert!(answered * 2 >= compared, "only {answered} of {compared} comparisons returned rows");
}

/// Arguments each builtin is called with: values of the types its rule
/// takes, mixed where the rule merges them.
fn sample_args(name: &str) -> Option<&'static str> {
    const POLY: &str = "'POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'";
    Some(match name {
        "UPPER" | "LOWER" | "INITCAP" | "TRIM" => "' ab cd '",
        "LENGTH" => "'abc'",
        "CONCAT" => "'a', 1, 2.5",
        "LTRIM" | "RTRIM" | "BTRIM" => "'xxaxx', 'x'",
        "REPLACE" => "'abc', 'b', 'xy'",
        "SUBSTR" | "SUBSTR2" | "SUBSTR4" | "SUBSTRB" | "SUBSTRING" => "'hello', 2, 3",
        "INSTR" | "STRPOS" => "'corporate', 'or'",
        "LPAD" | "RPAD" => "'7', 3, '0'",
        "HEXTORAW" => "'4142'",
        "RAWTOHEX" => "'AB'",
        "STRLEFT" | "STRLFT" | "STRRIGHT" => "'hello', 2",
        "TO_HEX" => "255",
        "COALESCE" => "NULL, 1, 2.5",
        "NVL" | "IFNULL" => "NULL, CAST(1.25 AS DECIMAL(5,2))",
        "NVL2" => "1, 2, CAST(3.5 AS DECIMAL(4,1))",
        "NULLIF" => "3, 4",
        "DECODE" => "2, 1, 'one', 2, 20, 3.5",
        "GREATEST" => "1, 2.5, 2",
        "LEAST" => "CAST('2024-01-02' AS DATE), CAST('2024-01-01 10:00:00' AS TIMESTAMP)",
        "ABS" => "CAST(-1.25 AS DECIMAL(5,2))",
        "MOD" => "-7, 3",
        "ROUND" => "CAST(1.255 AS DECIMAL(6,3)), 2",
        "TRUNC" => "CAST('2024-01-31 10:30:00' AS TIMESTAMP)",
        "FLOOR" | "CEIL" | "CEILING" | "SIGN" | "EXP" => "-2.5",
        "SQRT" | "LN" => "2",
        "POWER" | "POW" => "2, 10",
        n if n.starts_with("INT") && n.ends_with("NOT") => "5",
        n if n.starts_with("INT") => "12, 10",
        "HASH" | "HASH4" | "HASH8" => "'abc'",
        "NOW" | "CURRENT_TIMESTAMP" | "CURRENT_DATE" | "SYSDATE" => "",
        "DATE_PART" => "'year', CAST('2024-01-31' AS DATE)",
        "EXTRACT" => "YEAR FROM CAST('2024-01-31' AS DATE)",
        "ADD_MONTHS" => "CAST('2024-01-31' AS DATE), 1",
        "LAST_DAY" | "NEXT_MONTH" => "CAST('2024-01-31' AS DATE)",
        "MONTHS_BETWEEN" | "DAYS_BETWEEN" | "WEEKS_BETWEEN" => "CAST('2024-03-31' AS DATE), CAST('2024-01-31' AS DATE)",
        "HOURS_BETWEEN" | "SECONDS_BETWEEN" | "AGE" => {
            "CAST('2024-01-31 10:00:00' AS TIMESTAMP), CAST('2024-01-30 08:00:00' AS TIMESTAMP)"
        }
        "TO_CHAR" => "CAST(42.5 AS DECIMAL(4,1))",
        "TO_DATE" => "'2024-01-31'",
        "TO_TIMESTAMP" => "'2024-01-31 10:00:00'",
        "TO_NUMBER" => "'42'",
        "ST_POINT" => "1, 2",
        "ST_GEOMFROMTEXT" | "ST_ASTEXT" | "ST_GEOMETRYTYPE" | "ST_X" | "ST_Y" => "'POINT (1 2)'",
        "ST_NUMPOINTS" | "ST_LENGTH" => "'LINESTRING (0 0, 3 4)'",
        "ST_DISTANCE" => "'POINT (0 0)', 'POINT (3 4)'",
        "ST_AREA" | "ST_PERIMETER" | "ST_CENTROID" => POLY,
        "ST_CONTAINS" | "ST_INTERSECTS" => "'POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))', 'POINT (1 1)'",
        "ST_WITHIN" => "'POINT (1 1)', 'POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'",
        "NORMALIZE_DECFLOAT" => "CAST(12 AS DECFLOAT)",
        "COMPARE_DECFLOAT" => "CAST(1 AS DECFLOAT), 2",
        _ => return None,
    })
}

#[test]
fn every_builtin_returns_the_type_its_rule_declares() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    let registry = builtin_registry();
    let dialects = [Dialect::Ansi, Dialect::Oracle, Dialect::Netezza, Dialect::PostgreSql, Dialect::Db2];
    for name in registry.names() {
        let args = sample_args(&name).unwrap_or_else(|| panic!("{name} has no sample arguments: add them"));
        let f = registry.get(&name).unwrap();
        let dialect = dialects.into_iter().find(|d| f.dialects.contains(*d)).unwrap();
        s.set_dialect(dialect);
        let sql = format!("SELECT {name}({args})");
        let out = s.execute(&sql).unwrap_or_else(|e| panic!("{sql} ({dialect}): {e}"));
        let (v, declared) = (out.rows[0].get(0), out.schema.field(0).data_type);
        assert!(!v.is_null(), "{sql}: NULL proves nothing");
        assert!(v.has_type(declared), "{sql}: {v:?} is not of the declared {declared}");
    }
}
