//! Strings as codes: generated equivalence suite.
//!
//! A string column is codes into a shared pool — a dictionary's values,
//! then local ones (exceptions, open-stride values, computed strings).
//! Every operation that moves, keys, compares or materializes strings is
//! checked here against the row-at-a-time reference in
//! `common/reference.rs` (or, for the column primitives, against the same
//! operation on rows) at widths 1, 4 and 8, over columns that exercise
//! each kind of pool: one- and multi-partition dictionaries, exceptions in
//! a sealed stride, open-stride values outside the dictionary, NULLs, `''`,
//! values sharing an 8-byte prefix, and computed strings. The data is drawn
//! from `DASH_FAULT_SEED`.

#[path = "common/gen.rs"]
mod gen;
#[path = "common/reference.rs"]
mod reference;
use gen::{suite_seed, Gen};

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::txn::TS_NEVER;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::encoding::column::ColumnValues;
use dashdb_local::encoding::strs::StrColumn;
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::join::JoinType;
use dashdb_local::exec::key::KeyMode;
use dashdb_local::exec::plan::{execute, PhysicalPlan, SharedTable};
use dashdb_local::exec::scan::{ColumnPredicate, ScanConfig};
use dashdb_local::exec::Batch;
use dashdb_local::sql::{parse_statement, plan_select, Statement};
use dashdb_local::storage::table::STRIDE;
use std::sync::Arc;

const WIDTHS: [usize; 3] = [1, 4, 8];

/// Values sharing the 8-byte prefix `abcdefgh`, which the sort's prefix
/// word cannot tell apart.
const PREFIXED: [&str; 4] = ["abcdefgh", "abcdefgh-1", "abcdefgh-2", "abcdefgh\u{e9}"];

/// A one-partition label: 23 uniform values.
fn label(g: &mut Gen) -> Datum {
    Datum::from(format!("L{}", g.below(23)))
}

/// A skewed value: three hot values and a long cold tail, so the
/// dictionary splits into frequency partitions; plus NULL, `''` and the
/// shared-prefix values.
fn skewed(g: &mut Gen) -> Datum {
    match g.below(20) {
        0 => Datum::Null,
        1 => Datum::from(""),
        2 => Datum::from(g.pick(&PREFIXED)),
        3..=12 => Datum::from(g.pick(&["hot-a", "hot-b", "hot-c"])),
        _ => Datum::from(format!("cold-{:03}", g.below(300))),
    }
}

/// A value the dictionaries were not analysed over.
fn absent(g: &mut Gen) -> Datum {
    match g.below(4) {
        0 => Datum::from(format!("new-{}", g.below(40))),
        1 => Datum::from("abcdefgh-new"),
        _ => Datum::from(format!("L{}", 23 + g.below(5))),
    }
}

fn schema(fields: &[(&str, DataType)]) -> Schema {
    Schema::new(fields.iter().map(|&(n, t)| Field::new(n, t)).collect()).unwrap()
}

/// `fact(id, s1, s2, grp, qty)`: LOADed over two strides and a part, then
/// appended to with values outside both dictionaries — the first full
/// stride of the appends seals with exceptions, the rest stay open — and
/// thinned by deletes. `dim(lab, g, name)`: a second, small dictionary
/// over `s1`'s domain (part of it, plus values `s1` lacks), in its open
/// stride. `big(lab, name)`: a multi-stride build side.
fn star(g: &mut Gen) -> (Arc<Database>, [SharedTable; 3]) {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let fact = db
        .catalog()
        .create_table(
            "fact",
            schema(&[("id", DataType::Int64), ("s1", DataType::Utf8), ("s2", DataType::Utf8), ("grp", DataType::Int64), ("qty", DataType::Int64)]),
            None,
        )
        .unwrap();
    let row = |g: &mut Gen, i: usize, s1: Datum, s2: Datum| {
        let s1 = if g.below(30) == 0 { Datum::Null } else { s1 };
        Row::new(vec![Datum::Int(i as i64), s1, s2, Datum::Int(g.below(7) as i64), Datum::Int(g.below(100) as i64 - 50)])
    };
    let loaded = 2 * STRIDE + 300;
    let rows: Vec<Row> = (0..loaded).map(|i| { let (a, b) = (label(g), skewed(g)); row(g, i, a, b) }).collect();
    fact.write().load_rows(rows).unwrap();
    let appended: Vec<(Row, u64, u64)> = (loaded..loaded + STRIDE + 100)
        .map(|i| {
            let a = if g.below(3) == 0 { absent(g) } else { label(g) };
            let b = if g.below(3) == 0 { absent(g) } else { skewed(g) };
            (row(g, i, a, b), 0, TS_NEVER)
        })
        .collect();
    fact.write().append_from_rows(appended).unwrap();
    {
        let t = fact.read();
        assert_eq!(t.sealed_strides(), 3, "one stride sealed with exceptions");
        let Some(dashdb_local::encoding::ColumnEncoding::StrDict { dict, .. }) = t.encoding(2) else {
            panic!("s2 is dictionary-coded")
        };
        assert!(dict.partition_count() > 1, "s2's dictionary has frequency partitions");
        let Some(dashdb_local::encoding::ColumnEncoding::StrDict { dict, .. }) = t.encoding(1) else {
            panic!("s1 is dictionary-coded")
        };
        assert_eq!(dict.partition_count(), 1, "s1's dictionary has one partition");
    }
    for i in (0..loaded + STRIDE + 100).step_by(13) {
        fact.write().delete(dashdb_local::common::ids::Tsn(i as u64)).unwrap();
    }

    let dim = db.catalog().create_table("dim", schema(&[("lab", DataType::Utf8), ("g", DataType::Int64), ("name", DataType::Utf8)]), None).unwrap();
    let mut dim_rows: Vec<Row> = (0..16)
        .map(|k| Row::new(vec![Datum::from(format!("L{k}")), Datum::Int(k), Datum::from(format!("dim-{k:02}"))]))
        .collect();
    dim_rows.push(Row::new(vec![Datum::from("Z1"), Datum::Int(3), Datum::from("")]));
    dim_rows.push(Row::new(vec![Datum::from("new-1"), Datum::Int(4), Datum::Null]));
    dim_rows.push(Row::new(vec![Datum::Null, Datum::Int(5), Datum::from("abcdefgh-1")]));
    dim_rows.push(Row::new(vec![Datum::from("L3"), Datum::Int(30), Datum::from("dim-03-alt")]));
    dim.write().load_rows(dim_rows).unwrap();

    let big = db.catalog().create_table("big", schema(&[("lab", DataType::Utf8), ("name", DataType::Utf8)]), None).unwrap();
    let big_rows: Vec<Row> = (0..STRIDE + 50)
        .map(|i| {
            let lab = match i % 11 {
                0 => absent(g),
                _ => skewed(g),
            };
            Row::new(vec![lab, Datum::from(format!("b{}", i % 97))])
        })
        .collect();
    big.write().load_rows(big_rows).unwrap();
    (db, [fact, dim, big])
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Run `sql` at every width; each result must equal the reference's (in
/// order when `ordered`), and every width the first.
fn check_sql(db: &Arc<Database>, sql: &str, ordered: bool) {
    let Statement::Select(select) = parse_statement(sql, Dialect::Ansi).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    let ctx = EvalContext::default();
    let plan = plan_select(&select, db.catalog().as_ref(), Dialect::Ansi, &ctx).unwrap();
    let expected = reference::eval(&plan, &ctx).to_rows();
    assert!(!expected.is_empty(), "vacuous: {sql}");
    let mut s = db.connect();
    let mut first: Option<Vec<Row>> = None;
    for par in WIDTHS {
        db.catalog().set_parallelism(par);
        let out = s.execute(sql).unwrap();
        if ordered {
            assert_eq!(out.rows, expected, "{sql} at width {par}");
        } else {
            assert_eq!(sorted(out.rows.clone()), sorted(expected.clone()), "{sql} at width {par}");
        }
        assert_eq!(&out.rows, first.get_or_insert(out.rows.clone()), "{sql}: width {par}");
    }
}

fn scan(t: &SharedTable, id: u32, projection: Vec<usize>, par: usize) -> PhysicalPlan {
    PhysicalPlan::ColumnScan { table: t.clone(), config: ScanConfig { parallelism: par, ..ScanConfig::full(id, projection) } }
}

/// [`scan`] of the rows whose column `col` is below `hi`.
fn scan_below(t: &SharedTable, id: u32, projection: Vec<usize>, par: usize, col: usize, hi: i64) -> PhysicalPlan {
    let PhysicalPlan::ColumnScan { table, mut config } = scan(t, id, projection, par) else { unreachable!() };
    if hi < i64::MAX {
        config.predicates.push(ColumnPredicate::Range { col, lo: None, hi: Some(Datum::Int(hi)) });
    }
    PhysicalPlan::ColumnScan { table, config }
}

/// Inner, Left, Semi and Anti joins on string keys — one dictionary
/// against another (`s1 = lab`), a multi-partition dictionary with
/// exceptions against a multi-stride build side, and two string keys at
/// once — each against the reference at every width. A Left join's build
/// strings are gathered codes with NULL padding.
#[test]
fn string_key_joins_match_the_reference_at_every_width() {
    let mut g = Gen(suite_seed() ^ 0x7374_726a);
    let (_db, [fact, dim, big]) = star(&mut g);
    let ctx = EvalContext::default();
    // (probe, probe rows with column 0 below, build, on); a side is a
    // table, its catalog id and the projection scanned.
    let shapes = [
        ((&fact, 0, vec![0, 1, 4]), i64::MAX, (&dim, 1, vec![0, 2]), vec![(1, 0)]),
        ((&fact, 0, vec![0, 2, 3]), 300, (&big, 2, vec![0, 1]), vec![(1, 0)]),
        ((&dim, 1, vec![1, 0, 2]), i64::MAX, (&fact, 0, vec![1, 2, 0]), vec![(1, 0)]),
        ((&fact, 0, vec![0, 1, 2]), 100, (&fact, 0, vec![2, 1, 3]), vec![(1, 1), (2, 0)]),
    ];
    for ((probe, pid, pproj), below, (build, bid, bproj), on) in shapes {
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
            let plan = |par: usize| PhysicalPlan::HashJoin {
                left: Box::new(scan_below(probe, pid, pproj.clone(), par, 0, below)),
                right: Box::new(scan(build, bid, bproj.clone(), par)),
                on: on.clone(),
                join_type,
                key_mode: KeyMode::Encoded,
                parallelism: par,
            };
            let expected = sorted(reference::eval(&plan(1), &ctx).to_rows());
            assert!(!expected.is_empty(), "{join_type:?} on {on:?}: vacuous");
            let mut first = None;
            for par in WIDTHS {
                let (out, stats) = execute(&plan(par), &ctx).unwrap();
                let rows = out.to_rows();
                assert_eq!(sorted(rows.clone()), expected, "{join_type:?} on {on:?} at width {par}");
                assert_eq!(&rows, first.get_or_insert(rows.clone()), "{join_type:?} on {on:?}: width {par}");
                assert!(stats.encoded_key_rows > 0);
            }
        }
    }
}

/// `s1 = lab` across two dictionaries: every probe row's key is
/// translated into the build side's dictionary, whatever the morsel, and a
/// join of a column with its own table's dictionary translates none.
#[test]
fn a_probe_over_another_dictionary_translates_and_one_over_the_same_does_not() {
    let mut g = Gen(suite_seed() ^ 0x7472_616e);
    let (db, _) = star(&mut g);
    let mut s = db.connect();
    for par in WIDTHS {
        db.catalog().set_parallelism(par);
        let across = s.execute("SELECT f.id, d.name FROM fact f JOIN dim d ON f.s1 = d.lab").unwrap();
        let probed = s.execute("SELECT COUNT(*) FROM fact").unwrap().rows[0].get(0).as_int().unwrap();
        assert_eq!(across.stats.keys_reencoded_rows, probed as u64, "width {par}: {:?}", across.stats);
        let within = s.execute("SELECT a.id, b.id FROM fact a JOIN fact b ON a.s2 = b.s2 WHERE a.id < 200").unwrap();
        assert!(!within.rows.is_empty());
        assert_eq!(within.stats.keys_reencoded_rows, 0, "width {par}: {:?}", within.stats);
    }
}

/// Grouping, aggregates, ordering, de-duplication, UNION ALL and computed
/// strings through SQL, against the reference at every width.
#[test]
fn string_sql_matches_the_reference_at_every_width() {
    let mut g = Gen(suite_seed() ^ 0x7374_7273);
    let (db, _) = star(&mut g);
    let ordered = [
        "SELECT s2, COUNT(*), SUM(qty) FROM fact GROUP BY s2 ORDER BY s2",
        "SELECT s1, s2, COUNT(*) FROM fact GROUP BY s1, s2 ORDER BY s1, s2",
        "SELECT grp, MIN(s1), MAX(s1), MIN(s2), MAX(s2), COUNT(DISTINCT s2), COUNT(DISTINCT s1) FROM fact GROUP BY grp ORDER BY grp",
        "SELECT MIN(s2), MAX(s2), COUNT(s2), COUNT(DISTINCT s2) FROM fact",
        "SELECT id, s2, s1 FROM fact WHERE id < 700 OR id > 5000 ORDER BY s2 DESC, s1, id",
        "SELECT d.name, f.s1, COUNT(*), SUM(f.qty) FROM fact f JOIN dim d ON f.grp = d.g GROUP BY d.name, f.s1 ORDER BY d.name, f.s1",
        "SELECT d.g, COUNT(*), SUM(f.qty) FROM fact f JOIN dim d ON f.s1 = d.lab GROUP BY d.g ORDER BY d.g",
        "SELECT d.name, COUNT(*), MIN(f.s2) FROM fact f LEFT JOIN dim d ON f.s1 = d.lab GROUP BY d.name ORDER BY d.name",
        "SELECT s1 || '-' || s2, COUNT(*) FROM fact GROUP BY s1 || '-' || s2 ORDER BY 1",
        "SELECT CASE WHEN qty < 0 THEN s1 WHEN qty < 20 THEN 'mid' ELSE s2 END AS c, COUNT(*) FROM fact GROUP BY CASE WHEN qty < 0 THEN s1 WHEN qty < 20 THEN 'mid' ELSE s2 END ORDER BY c",
        "SELECT COALESCE(s2, s1, 'none'), MAX(id) FROM fact GROUP BY COALESCE(s2, s1, 'none') ORDER BY 1",
        "SELECT CASE WHEN qty > 30 THEN 'big' WHEN qty > 0 THEN s2 END, COUNT(*) FROM fact \
         GROUP BY CASE WHEN qty > 30 THEN 'big' WHEN qty > 0 THEN s2 END ORDER BY 1",
        "SELECT s2, COUNT(*) FROM fact WHERE s2 LIKE 'abcdefgh%' OR s1 NOT LIKE 'L1%' GROUP BY s2 ORDER BY s2",
    ];
    for sql in ordered {
        check_sql(&db, sql, true);
    }
    let unordered = [
        "SELECT DISTINCT s2 FROM fact",
        "SELECT DISTINCT s1, grp FROM fact WHERE id < 3000",
        "SELECT s1 FROM fact WHERE id < 400 UNION ALL SELECT lab FROM dim UNION ALL SELECT lab FROM big WHERE name < 'b3'",
        "SELECT f.id, f.s2, b.name FROM fact f JOIN big b ON f.s2 = b.lab WHERE f.id < 300",
    ];
    for sql in unordered {
        check_sql(&db, sql, false);
    }
}

/// CTAS and `INSERT … SELECT` of dictionary columns read back as their
/// sources at every width; the copy is dictionary-coded once it seals.
#[test]
fn ctas_and_insert_select_of_dictionary_strings_equal_their_sources() {
    let mut g = Gen(suite_seed() ^ 0x6374_6173);
    let (db, _) = star(&mut g);
    let mut s = db.connect();
    s.execute("CREATE TABLE copy AS SELECT id, s1, s2 FROM fact").unwrap();
    s.execute("CREATE TABLE more (id BIGINT, s1 VARCHAR(20), s2 VARCHAR(20))").unwrap();
    s.execute("INSERT INTO more SELECT id, s2, s1 FROM fact WHERE grp < 4").unwrap();
    s.execute("INSERT INTO more SELECT id, s1, lab FROM fact JOIN dim ON s1 = lab").unwrap();
    let pairs = [
        ("SELECT id, s1, s2 FROM copy ORDER BY id", "SELECT id, s1, s2 FROM fact ORDER BY id"),
        (
            "SELECT s1, s2, COUNT(*) FROM more GROUP BY s1, s2 ORDER BY s1, s2",
            "SELECT s1, s2, COUNT(*) FROM (SELECT s2 AS s1, s1 AS s2 FROM fact WHERE grp < 4 \
             UNION ALL SELECT s1, lab FROM fact JOIN dim ON s1 = lab) u GROUP BY s1, s2 ORDER BY s1, s2",
        ),
    ];
    for (copy, source) in pairs {
        check_sql(&db, copy, true);
        for par in WIDTHS {
            db.catalog().set_parallelism(par);
            assert_eq!(s.execute(copy).unwrap().rows, s.execute(source).unwrap().rows, "{copy} at width {par}");
        }
    }
    assert!(db.catalog().table_handle("copy").unwrap().table.read().str_pool(2).is_some(), "the copy is dictionary-coded");
}

/// `take`, `slice` and `concat` of string columns, with one pool shared and
/// with pools that differ (another dictionary, local values, a computed
/// column), read as the same operations on rows do.
#[test]
fn take_slice_and_concat_match_the_row_operations() {
    let mut g = Gen(suite_seed() ^ 0x6d6f_7665);
    let (db, [fact, dim, big]) = star(&mut g);
    let ctx = EvalContext::default();
    let scanned = |t: &SharedTable, id: u32, col: usize| {
        let plan = scan(t, id, vec![col], 4);
        execute(&plan, &ctx).unwrap().0
    };
    let computed = {
        let mut s = db.connect();
        let out = s.execute("SELECT s1 || '!' FROM fact WHERE id < 500").unwrap();
        let rows: Vec<Row> = out.rows;
        Batch::from_rows(schema(&[("v", DataType::Utf8)]), &rows).unwrap()
    };
    let batches = [scanned(&fact, 0, 1), scanned(&fact, 0, 2), scanned(&dim, 1, 0), scanned(&big, 2, 0), computed];
    let one = schema(&[("v", DataType::Utf8)]);
    let as_one = |b: &Batch| Batch::new(one.clone(), b.columns().to_vec()).unwrap();
    for _ in 0..40 {
        let parts: Vec<Batch> = (0..1 + g.below(4))
            .map(|_| {
                let b = as_one(&batches[g.below(batches.len())]);
                match g.below(3) {
                    0 => b,
                    1 => {
                        let lo = g.below(b.len());
                        let hi = lo + g.below(b.len() - lo + 1);
                        let ColumnValues::Str(v) = b.column(0) else { panic!("strings") };
                        Batch::new(one.clone(), vec![ColumnValues::Str(v.slice(lo..hi))]).unwrap()
                    }
                    _ => {
                        let picks: Vec<usize> = (0..g.below(300)).map(|_| g.below(b.len())).collect();
                        b.take(&picks)
                    }
                }
            })
            .collect();
        let rows: Vec<Row> = parts.iter().flat_map(Batch::to_rows).collect();
        let joined = Batch::concat_columnar(one.clone(), parts.clone()).unwrap();
        assert_eq!(joined.to_rows(), rows);
        let ColumnValues::Str(v) = joined.column(0) else { panic!("strings") };
        // A column of one pool keeps it; NULLs stay NULL codes.
        if parts.iter().filter(|p| !p.is_empty()).map(|p| match p.column(0) {
            ColumnValues::Str(c) => Arc::as_ptr(c.pool()),
            _ => unreachable!(),
        }).collect::<std::collections::BTreeSet<_>>().len() == 1 {
            let ColumnValues::Str(c) = parts.iter().find(|p| !p.is_empty()).unwrap().column(0) else { unreachable!() };
            assert!(Arc::ptr_eq(v.pool(), c.pool()), "one pool is shared, not copied");
        }
        assert_eq!(v.iter().filter(Option::is_none).count(), rows.iter().filter(|r| r.get(0).is_null()).count());
    }
    // A column of values alone: equal to itself through every pool.
    let values: Vec<Option<&str>> = vec![Some(""), None, Some(PREFIXED[1]), Some("x")];
    let plain = StrColumn::from_values(values.iter().copied());
    assert_eq!(plain.iter().collect::<Vec<_>>(), values);
}

/// The breakers charge string intermediates to the statement budget: a
/// budget too small for a string-keyed join's build side or a sort's input
/// refuses the statement, and one large enough runs it.
#[test]
fn string_intermediates_are_charged_to_the_budget() {
    let mut g = Gen(suite_seed() ^ 0x6275_6467);
    let (db, _) = star(&mut g);
    let mut s = db.connect();
    for sql in [
        "SELECT f.id, b.name FROM fact f JOIN big b ON f.s2 = b.lab",
        "SELECT s1, s2, id FROM fact ORDER BY s2, s1, id",
    ] {
        s.set_mem_budget(Some(4096));
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err.class(), "53200", "{sql}: {err}");
        assert_eq!(s.statement().budget_used(), 0, "{sql}: refusal left bytes charged");
        s.set_mem_budget(None);
        assert!(!s.execute(sql).unwrap().rows.is_empty(), "{sql}");
    }
}

/// Grouping, `COUNT(DISTINCT)`, `SELECT DISTINCT`, `UNION` and joins keyed
/// on computed strings — `UPPER`, `||` and a `CASE` of constants, whose
/// values live only in a computed column's pool — against the reference
/// at every width.
#[test]
fn computed_string_keys_match_the_reference_at_every_width() {
    let mut g = Gen(suite_seed() ^ 0x636f_6d70);
    let (db, _) = star(&mut g);
    let band = "CASE WHEN qty < 0 THEN 'neg' WHEN qty < 20 THEN 'low' ELSE 'high' END";
    let ordered = [
        "SELECT UPPER(s1), COUNT(*), SUM(qty) FROM fact GROUP BY UPPER(s1) ORDER BY 1".to_string(),
        "SELECT s2 || 'x', UPPER(s1), COUNT(*) FROM fact GROUP BY s2 || 'x', UPPER(s1) ORDER BY 1, 2".to_string(),
        format!("SELECT {band} AS b, COUNT(*), COUNT(DISTINCT UPPER(s1)), COUNT(DISTINCT s2 || 'x') FROM fact GROUP BY {band} ORDER BY b"),
        format!("SELECT {band} AS b, UPPER(s2) AS u, MIN(s1), COUNT(*) FROM fact GROUP BY {band}, UPPER(s2) ORDER BY b, u"),
        "SELECT a.k, COUNT(*), SUM(b.g) FROM (SELECT UPPER(s1) AS k FROM fact) a \
         JOIN (SELECT UPPER(lab) AS k, g FROM dim) b ON a.k = b.k GROUP BY a.k ORDER BY a.k"
            .to_string(),
    ];
    for sql in &ordered {
        check_sql(&db, sql, true);
    }
    let unordered = [
        "SELECT DISTINCT UPPER(s1) FROM fact".to_string(),
        format!("SELECT DISTINCT s1 || 'x', {band} FROM fact"),
        "SELECT UPPER(s1) FROM fact WHERE id < 2000 UNION SELECT UPPER(lab) FROM dim UNION SELECT lab || 'x' FROM big"
            .to_string(),
        "SELECT a.id, a.k, b.g FROM (SELECT id, s1 || 'x' AS k FROM fact WHERE id < 1500) a \
         LEFT JOIN (SELECT lab || 'x' AS k, g FROM dim) b ON a.k = b.k"
            .to_string(),
    ];
    for sql in &unordered {
        check_sql(&db, sql, false);
    }
}

/// The plan of `sql`, planned at width `par`.
fn planned(db: &Arc<Database>, sql: &str, par: usize) -> PhysicalPlan {
    let Statement::Select(select) = parse_statement(sql, Dialect::Ansi).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    db.catalog().set_parallelism(par);
    plan_select(&select, db.catalog().as_ref(), Dialect::Ansi, &EvalContext::default()).unwrap()
}

/// Inner, Left, Semi and Anti joins of two derived tables on computed
/// string keys, with probe values the build side lacks (`L16`–`L22` and
/// the appended values), against the reference at every width.
#[test]
fn joins_on_computed_string_keys_match_the_reference_at_every_width() {
    let mut g = Gen(suite_seed() ^ 0x6a6f_696e);
    let (db, _) = star(&mut g);
    let ctx = EvalContext::default();
    let sides = [
        ("SELECT id, UPPER(s1) AS k FROM fact WHERE id < 3000", "SELECT UPPER(lab) AS k, g FROM dim"),
        ("SELECT id, s1 || 'x' AS k FROM fact", "SELECT lab || 'x' AS k, name FROM big"),
        (
            "SELECT id, CASE WHEN qty < 0 THEN 'L1' WHEN qty < 20 THEN 'Z1' ELSE 'none' END AS k FROM fact",
            "SELECT lab AS k, g FROM dim",
        ),
    ];
    for (probe, build) in sides {
        for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
            let plan = |par: usize| PhysicalPlan::HashJoin {
                left: Box::new(planned(&db, probe, par)),
                right: Box::new(planned(&db, build, par)),
                on: vec![(1, 0)],
                join_type,
                key_mode: KeyMode::Encoded,
                parallelism: par,
            };
            let expected = sorted(reference::eval(&plan(1), &ctx).to_rows());
            assert!(!expected.is_empty(), "{join_type:?} of {probe}: vacuous");
            let mut first = None;
            for par in WIDTHS {
                let rows = execute(&plan(par), &ctx).unwrap().0.to_rows();
                assert_eq!(sorted(rows.clone()), expected, "{join_type:?} of {probe} at width {par}");
                assert_eq!(&rows, first.get_or_insert(rows.clone()), "{join_type:?} of {probe}: width {par}");
            }
        }
    }
}

/// A computed string column's pool holds each of its values once, however
/// many rows repeat them.
#[test]
fn a_computed_string_column_pools_each_value_once() {
    let mut g = Gen(suite_seed() ^ 0x706f_6f6c);
    let (db, _) = star(&mut g);
    for par in WIDTHS {
        let (out, _) = execute(&planned(&db, "SELECT UPPER(s1) FROM fact", par), &EvalContext::default()).unwrap();
        let ColumnValues::Str(v) = out.column(0) else { panic!("a string column") };
        let distinct: std::collections::BTreeSet<_> = v.iter().flatten().collect();
        assert!(out.len() > 10 * distinct.len(), "width {par}: repeated values");
        assert!(v.pool().len() <= distinct.len(), "width {par}: {} codes for {} values", v.pool().len(), distinct.len());
    }
}
