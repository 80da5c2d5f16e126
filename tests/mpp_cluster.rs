//! Cross-crate integration: the MPP layer against a single-node oracle,
//! plus failover/elasticity under a running workload.

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::faults::{FaultAction, FaultPolicy, FaultRegistry, GATHER_LOAD, SHARD_EXEC};
use dashdb_local::common::ids::NodeId;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec, Session};
use dashdb_local::mpp::{Cluster, Distribution};
use std::time::Duration;

#[path = "common/gen.rs"]
mod gen;
use gen::{suite_seed, Gen};

fn fact_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("grp", DataType::Utf8),
        Field::new("v", DataType::Float64),
    ])
    .unwrap()
}

fn fact_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| row![i as i64, format!("g{}", i % 5), (i % 40) as f64])
        .collect()
}

/// One table on a cluster and the same rows on a single-node engine: the
/// oracle every differential statement below is checked against.
struct Pair {
    cluster: Cluster,
    single: Session,
}

impl Pair {
    fn new(nodes: usize, shards_per_node: usize) -> Pair {
        let mut cluster = Cluster::new(nodes, shards_per_node, HardwareSpec::laptop()).unwrap();
        // LIMIT / OFFSET are Netezza and PostgreSQL syntax.
        cluster.set_dialect(Dialect::Netezza);
        let mut single = Database::with_hardware(HardwareSpec::laptop()).connect();
        single.set_dialect(Dialect::Netezza);
        Pair { cluster, single }
    }

    fn table(&self, name: &str, schema: Schema, rows: Vec<Row>) {
        self.cluster
            .create_table(name, schema.clone(), Distribution::Hash("id".into()))
            .unwrap();
        self.cluster.load_rows(name, rows.clone()).unwrap();
        let db = self.single.database();
        let handle = db.catalog().create_table(name, schema, None).unwrap();
        handle.write().load_rows(rows).unwrap();
    }

    /// The distributed plan is semantically invisible: the same multiset
    /// of rows, and the same sequence when the ORDER BY is total.
    fn check(&mut self, sql: &str, total_order: bool) {
        let a = canonical(&self.cluster.query(sql).unwrap_or_else(|e| panic!("cluster: {sql}: {e}")));
        let b = canonical(&self.single.query(sql).unwrap_or_else(|e| panic!("single: {sql}: {e}")));
        if total_order {
            assert_eq!(a, b, "cluster and single node differ on: {sql}");
        } else {
            assert_eq!(sorted(a), sorted(b), "cluster and single node differ on: {sql}");
        }
    }
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

/// Rows as comparable text. `Row`'s own `==` goes through `sql_cmp`, where
/// a NaN equals every number; here a NaN equals a NaN, the two zeros are
/// one value, and a float is compared to ten significant digits (partial
/// sums associate differently across shards).
fn canonical(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let cells: Vec<String> = r
                .values()
                .iter()
                .map(|d| match d {
                    Datum::Float(f) if f.is_nan() => "NaN".to_string(),
                    Datum::Float(f) if *f == 0.0 => "0e0".to_string(),
                    Datum::Float(f) => format!("{f:.9e}"),
                    other => format!("{other:?}"),
                })
                .collect();
            cells.join(" | ")
        })
        .collect()
}

/// The statements every shape runs over `f`, hand-written: the plain
/// shapes, then the three the coordinator used to reject — HAVING, an
/// expression around aggregates, ORDER BY on an expression with NULLS
/// FIRST — and a hidden group key.
const FIXED: [(&str, bool); 11] = [
    ("SELECT COUNT(*) FROM f", true),
    ("SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(id), MAX(id) FROM f GROUP BY grp ORDER BY grp", true),
    ("SELECT id FROM f WHERE id BETWEEN 700 AND 720 ORDER BY 1", true),
    ("SELECT COUNT(*) FROM f WHERE v >= 20.0", true),
    ("SELECT id FROM f ORDER BY 1 DESC LIMIT 7", true),
    ("SELECT DISTINCT grp FROM f ORDER BY grp", true),
    ("SELECT grp, SUM(v) FROM f GROUP BY grp HAVING SUM(v) > 78000 AND COUNT(*) > 1 ORDER BY 2 DESC", true),
    ("SELECT grp, SUM(v) / COUNT(*), MAX(v) - MIN(v) FROM f GROUP BY grp", false),
    ("SELECT grp, MAX(id) FROM f GROUP BY grp ORDER BY NULLIF(MAX(id) % 5, 4) DESC NULLS FIRST, grp LIMIT 3 OFFSET 1", true),
    ("SELECT COUNT(*), MIN(v) FROM f GROUP BY grp, id % 3", false),
    ("SELECT f.grp, COUNT(*) FROM f GROUP BY f.grp ORDER BY COUNT(*) + 0, 1", true),
];

// ---- generated statements -----------------------------------------------------

fn gen_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("ks", DataType::Utf8),
        Field::new("ki", DataType::Int64),
        Field::new("kf", DataType::Float64),
        Field::new("mi", DataType::Int64),
        Field::new("mx", DataType::Int64),
        Field::new("mf", DataType::Float64),
        Field::new("md", DataType::Decimal(12, 2)),
        Field::new("ms", DataType::Utf8),
    ])
    .unwrap()
}

/// Keys (`k*`) come from small pools seeded with the boundary values so
/// groups repeat, on one shard and across shards. Summed measures are
/// small, and the floats multiples of 0.25: every sum is exact in any
/// order. `mx` holds the `i64` extremes and is only ever counted or
/// MIN/MAX-ed (a sum over it overflows or not depending on order, on one
/// node as much as on twelve).
fn gen_rows(g: &mut Gen, n: usize) -> Vec<Row> {
    (0..n)
        .map(|id| {
            let ks = g.pick(&[Datum::Null, Datum::str("a"), Datum::str("b"), Datum::str(""), Datum::str("zz")]);
            let ki = g.pick(&[Datum::Null, Datum::Int(i64::MIN), Datum::Int(i64::MAX), Datum::Int(0), Datum::Int(-1), Datum::Int(7)]);
            let kf = g.pick(&[
                Datum::Null,
                Datum::Float(0.0),
                Datum::Float(-0.0),
                Datum::Float(f64::NAN),
                Datum::Float(f64::INFINITY),
                Datum::Float(-2.5),
            ]);
            let null_or = |g: &mut Gen, d: Datum| if g.below(100) < 12 { Datum::Null } else { d };
            let mi = Datum::Int(g.below(2001) as i64 - 1000);
            let mx = g.pick(&[Datum::Int(i64::MIN), Datum::Int(i64::MAX), Datum::Int(3), Datum::Int(-3)]);
            let mf = Datum::Float((g.below(801) as f64 - 400.0) * 0.25);
            let md = Datum::Decimal(g.below(200_001) as i128 - 100_000, 2);
            let ms = Datum::str(format!("s{}", g.below(50)));
            Row::new(vec![
                Datum::Int(id as i64),
                ks,
                ki,
                kf,
                null_or(g, mi),
                null_or(g, mx),
                null_or(g, mf),
                null_or(g, md),
                null_or(g, ms),
            ])
        })
        .collect()
}

/// One generated aggregating statement over `table`, and whether its
/// ORDER BY orders its rows totally.
///
/// {global, one-key, two-key, hidden-key GROUP BY} x {COUNT(*), COUNT,
/// SUM, MIN, MAX, AVG, expressions around them} x {HAVING} x {DISTINCT} x
/// {ORDER BY ordinal / column / expression, ASC / DESC, NULLS FIRST /
/// LAST} x {LIMIT, OFFSET}. LIMIT and OFFSET only ride on a total order:
/// under a partial one, which rows they cut is anybody's choice.
fn gen_statement(g: &mut Gen, table: &str) -> (String, bool) {
    // A group key, and an expression over it to sort by.
    const KEYS: [(&str, &str); 5] = [
        ("ks", "ks || 'x'"),
        ("ki", "ki"),
        ("kf", "kf * 1"),
        ("mi % 4", "mi % 4 + 1"),
        ("COALESCE(ks, ms)", "COALESCE(ks, ms)"),
    ];
    const AGGS: [&str; 18] = [
        "COUNT(*)",
        "COUNT(kf)",
        "COUNT(ms)",
        "SUM(mi)",
        "SUM(mf)",
        "SUM(md)",
        "MIN(mx)",
        "MAX(mx)",
        "MIN(mf)",
        "MAX(ms)",
        "MIN(md)",
        "AVG(mi)",
        "AVG(mf)",
        "SUM(mi) / COUNT(*)",
        "MAX(mf) - MIN(mf)",
        "SUM(mf) * 2 + COUNT(mi)",
        "CASE WHEN COUNT(*) > 3 THEN MAX(mi) ELSE MIN(mi) END",
        "COALESCE(SUM(md), 0) + COUNT(*)",
    ];
    const HAVING: [&str; 4] = ["COUNT(*) > 2", "SUM(mi) IS NOT NULL", "MAX(mf) >= 1.0 OR MIN(mx) < 0", "AVG(mf) < 50"];
    const DIRECTIONS: [&str; 6] = ["", " ASC", " DESC", " NULLS FIRST", " DESC NULLS FIRST", " ASC NULLS LAST"];

    let mode = g.below(4); // global, one key, two keys, one hidden key
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for _ in 0..[0, 1, 2, 1][mode] {
        let k = g.pick(&KEYS);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let mut items: Vec<String> = match mode {
        3 => Vec::new(),
        _ => keys.iter().map(|(k, _)| k.to_string()).collect(),
    };
    for a in 0..1 + g.below(3) {
        items.push(format!("{} AS a{a}", g.pick(&AGGS)));
    }
    let distinct = g.below(100) < 20;
    let mut sql = format!("SELECT {}{} FROM {table}", if distinct { "DISTINCT " } else { "" }, items.join(", "));
    if !keys.is_empty() {
        let by: Vec<&str> = keys.iter().map(|(k, _)| *k).collect();
        sql.push_str(&format!(" GROUP BY {}", by.join(", ")));
    }
    if g.below(100) < 35 {
        sql.push_str(&format!(" HAVING {}", g.pick(&HAVING)));
    }
    // A leading sort key of each kind; under DISTINCT it must be a
    // select-list item, so only the first two kinds apply.
    let mut order: Vec<String> = Vec::new();
    if g.below(100) < 80 {
        let key = match g.below(if distinct { 2 } else { 4 }) {
            0 => (1 + g.below(items.len())).to_string(),
            1 => "a0".to_string(),
            2 => g.pick(&["COUNT(*) * 2", "MAX(mf) - MIN(mf)", "SUM(mi) + 1", "-MIN(md)"]).to_string(),
            _ => keys.first().map_or("COUNT(mx)", |(_, by)| by).to_string(),
        };
        order.push(key + g.pick(&DIRECTIONS));
    }
    // Then, more often than not, enough keys to make the order total:
    // every output column of a DISTINCT, else every group key (projected
    // or hidden). A global aggregate's one row is always in order.
    let total_order = keys.is_empty() || g.below(100) < 60;
    if total_order && distinct {
        order.extend((1..=items.len()).map(|i| format!("{i}{}", g.pick(&DIRECTIONS))));
    } else if total_order {
        order.extend(keys.iter().map(|(k, _)| format!("{k}{}", g.pick(&DIRECTIONS))));
    }
    if !order.is_empty() {
        sql.push_str(&format!(" ORDER BY {}", order.join(", ")));
    }
    if total_order && g.below(100) < 50 {
        match g.below(3) {
            0 => sql.push_str(&format!(" LIMIT {}", 1 + g.below(6))),
            1 => sql.push_str(&format!(" OFFSET {}", g.below(4))),
            _ => sql.push_str(&format!(" LIMIT {} OFFSET {}", 1 + g.below(6), g.below(4))),
        }
    }
    (sql, total_order)
}

/// The generated cluster-vs-single-node differential suite. Three cluster
/// shapes — one shard, the default 3x4, Figure 9's 4x6 — each against one
/// single-node engine holding the same rows: a 1500-row table of
/// boundary values, an empty one, and one with fewer rows than shards.
#[test]
fn cluster_matches_single_node() {
    for (nodes, shards_per_node) in [(1, 1), (3, 4), (4, 6)] {
        let mut g = Gen(suite_seed() ^ (nodes * 100 + shards_per_node) as u64);
        let mut pair = Pair::new(nodes, shards_per_node);
        pair.table("f", fact_schema(), fact_rows(20_000));
        pair.table("g", gen_schema(), gen_rows(&mut g, 1500));
        pair.table("empty", gen_schema(), Vec::new());
        pair.table("tiny", gen_schema(), gen_rows(&mut g, 3));
        for (sql, total_order) in FIXED {
            pair.check(sql, total_order);
        }
        for (table, statements) in [("g", 90), ("empty", 25), ("tiny", 25)] {
            for _ in 0..statements {
                let (sql, total_order) = gen_statement(&mut g, table);
                pair.check(&sql, total_order);
            }
        }
    }
}

/// A SUM whose shard partials each fit an `i64` but whose total does not
/// fails with the engine's own classified overflow error — the merge is
/// the engine's SUM, not a second one that wrapped in release builds.
#[test]
fn cross_shard_sum_overflow_is_the_engines_classified_error() {
    let mut pair = Pair::new(3, 4);
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("x", DataType::Int64),
    ])
    .unwrap();
    // Any three fit, all four do not.
    pair.table("big", schema, (0..4).map(|i| row![i as i64, i64::MAX / 3]).collect());
    let shards = pair.cluster.filesystem().shards();
    let per_shard: Vec<i64> = shards
        .iter()
        .map(|s| {
            let db = pair.cluster.filesystem().mount(*s).unwrap().db;
            db.connect().query("SELECT COUNT(*) FROM big").unwrap()[0].get(0).as_int().unwrap()
        })
        .collect();
    assert!(per_shard.iter().all(|&n| n < 4), "the rows must span shards: {per_shard:?}");
    for sql in ["SELECT SUM(x) FROM big", "SELECT id % 1, SUM(x) + 0 FROM big GROUP BY id % 1"] {
        let want = pair.single.query(sql).unwrap_err();
        let got = pair.cluster.query(sql).unwrap_err();
        assert_eq!(got.class(), "22000", "{sql}: {got}");
        assert_eq!(got, want, "{sql}");
        assert!(got.to_string().contains("overflow"), "{sql}: {got}");
    }
    // Three of them still sum.
    pair.check("SELECT SUM(x) FROM big WHERE id < 3", true);
}

/// Aggregates that do not decompose into per-shard partials, and a
/// wildcard beside an aggregate, are refused with a clean `unsupported`
/// error before any shard is asked to run anything.
#[test]
fn non_decomposable_aggregates_are_refused_before_any_shard_runs() {
    let pair = Pair::new(2, 2);
    pair.table("f", fact_schema(), fact_rows(400));
    for agg in [
        "MEDIAN(v)",
        "STDDEV(v)",
        "STDDEV_SAMP(v)",
        "VARIANCE(v)",
        "VAR_SAMP(v)",
        "COVAR_POP(v, id)",
        "COVAR_SAMP(v, id)",
        "COUNT(DISTINCT grp)",
        "SUM(DISTINCT v)",
        "SUM(v) + MEDIAN(v)",
    ] {
        for sql in [
            format!("SELECT {agg} FROM f"),
            format!("SELECT grp, {agg} FROM f GROUP BY grp ORDER BY 1"),
            format!("SELECT grp FROM f GROUP BY grp HAVING {agg} > 0"),
        ] {
            let err = pair.cluster.query(&sql).unwrap_err();
            assert_eq!(err.class(), "0A000", "{sql}: {err}");
        }
    }
    let err = pair.cluster.query("SELECT *, COUNT(*) FROM f GROUP BY id, grp, v").unwrap_err();
    assert_eq!(err.class(), "0A000", "{err}");
    for shard in pair.cluster.filesystem().shards() {
        let db = pair.cluster.filesystem().mount(shard).unwrap().db;
        assert_eq!(db.wlm().snapshot().4, 0, "{shard} admitted a statement");
    }
}

/// A final ORDER BY on a column the gathered relation does not carry is
/// refused with the planner's 42704 before any shard runs: the armed
/// shard fault never fires. Names, aliases, ordinals and wildcards still
/// resolve.
#[test]
fn order_by_outside_the_select_list_is_refused_before_any_shard_runs() {
    let reg = FaultRegistry::new();
    let mut cluster = Cluster::with_faults(2, 2, HardwareSpec::laptop(), reg.clone()).unwrap();
    cluster.set_dialect(Dialect::Netezza);
    cluster
        .create_table("f", fact_schema(), Distribution::Hash("id".into()))
        .unwrap();
    cluster.load_rows("f", fact_rows(200)).unwrap();
    reg.arm(
        SHARD_EXEC,
        FaultPolicy::Always,
        FaultAction::Error("a shard ran".into()),
    );
    for sql in [
        "SELECT id FROM f ORDER BY v",
        "SELECT id, grp FROM f ORDER BY f.v, id LIMIT 3",
        "SELECT id AS k FROM f ORDER BY id",
        "SELECT grp, COUNT(*) AS n FROM f GROUP BY grp ORDER BY id",
    ] {
        let err = cluster.query(sql).unwrap_err();
        assert_eq!(err.class(), "42704", "{sql}: {err}");
    }
    assert_eq!(reg.stats(SHARD_EXEC).evaluations, 0, "a shard ran");
    reg.disarm_all();
    for sql in [
        "SELECT id AS k FROM f ORDER BY k",
        "SELECT id FROM f ORDER BY f.id LIMIT 3",
        "SELECT id, v FROM f ORDER BY 2, 1",
        "SELECT * FROM f ORDER BY v, id",
        "SELECT grp, SUM(v) AS total FROM f GROUP BY grp ORDER BY total, grp",
        "SELECT grp, COUNT(*) FROM f GROUP BY grp ORDER BY grp",
    ] {
        cluster.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

#[test]
fn queries_survive_failover_and_growth() {
    let cluster = Cluster::new(4, 6, HardwareSpec::laptop()).unwrap();
    cluster
        .create_table("f", fact_schema(), Distribution::Hash("id".into()))
        .unwrap();
    cluster.load_rows("f", fact_rows(9000)).unwrap();
    let baseline = cluster
        .query("SELECT grp, COUNT(*), SUM(v) FROM f GROUP BY grp ORDER BY grp")
        .unwrap();

    cluster.fail_node(NodeId(1)).unwrap();
    assert_eq!(cluster.live_nodes(), 3);
    let after_fail = cluster
        .query("SELECT grp, COUNT(*), SUM(v) FROM f GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(baseline, after_fail);

    cluster.restore_node(NodeId(1)).unwrap();
    let (_, _) = cluster.add_node(HardwareSpec::laptop()).unwrap();
    let after_grow = cluster
        .query("SELECT grp, COUNT(*), SUM(v) FROM f GROUP BY grp ORDER BY grp")
        .unwrap();
    assert_eq!(baseline, after_grow);
    // Balance invariant after every transition.
    let dist = cluster.shard_distribution();
    let max = dist.iter().map(|(_, s)| s.len()).max().unwrap();
    let min = dist.iter().map(|(_, s)| s.len()).min().unwrap();
    assert!(max - min <= 1, "unbalanced after growth: {dist:?}");
}

#[test]
fn replicated_dimension_joins() {
    let cluster = Cluster::new(2, 3, HardwareSpec::laptop()).unwrap();
    cluster
        .create_table("f", fact_schema(), Distribution::Hash("id".into()))
        .unwrap();
    cluster.load_rows("f", fact_rows(3000)).unwrap();
    let dim = Schema::new(vec![
        Field::new("grp", DataType::Utf8),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    cluster
        .create_table("d", dim, Distribution::Replicated)
        .unwrap();
    cluster
        .load_rows(
            "d",
            (0..5).map(|i| row![format!("g{i}"), format!("Group {i}")]).collect(),
        )
        .unwrap();
    let rows = cluster
        .query(
            "SELECT label, COUNT(*) FROM f JOIN d ON f.grp = d.grp GROUP BY label ORDER BY label",
        )
        .unwrap();
    assert_eq!(rows.len(), 5);
    let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
    assert_eq!(total, 3000);
}

#[test]
fn broadcast_dml_updates_every_shard() {
    let cluster = Cluster::new(2, 2, HardwareSpec::laptop()).unwrap();
    cluster
        .create_table("f", fact_schema(), Distribution::Hash("id".into()))
        .unwrap();
    cluster.load_rows("f", fact_rows(1000)).unwrap();
    let affected = cluster.execute_all("UPDATE f SET v = 0.0 WHERE id < 100").unwrap();
    assert_eq!(affected, 100, "each matching row lives on exactly one shard");
    let rows = cluster
        .query("SELECT COUNT(*) FROM f WHERE v = 0.0")
        .unwrap();
    let zeroes = rows[0].get(0).as_int().unwrap();
    // ids < 100 now zero plus the naturally-zero v values (i % 40 == 0).
    assert!(zeroes >= 100);
    let affected = cluster.execute_all("DELETE FROM f WHERE id >= 900").unwrap();
    assert_eq!(affected, 100);
    let rows = cluster.query("SELECT COUNT(*) FROM f").unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(900));
}

#[test]
fn relative_cost_tracks_max_load() {
    let cluster = Cluster::new(4, 6, HardwareSpec::laptop()).unwrap();
    assert_eq!(cluster.relative_query_cost(), 6.0);
    cluster.fail_node(NodeId(0)).unwrap();
    assert_eq!(cluster.relative_query_cost(), 8.0);
    cluster.fail_node(NodeId(2)).unwrap();
    assert_eq!(cluster.relative_query_cost(), 12.0);
}

/// The coordinator reads the shards' batches as a bound relation, not as
/// a table: after generated statements, a failover and a statement its
/// deadline kills between gather and merge, its catalog holds no
/// `GATHERED` table (and no temporary one of that name).
#[test]
fn no_scratch_table_appears_on_the_coordinator() {
    let reg = FaultRegistry::with_seed(suite_seed());
    let mut cluster = Cluster::with_faults(3, 2, HardwareSpec::laptop(), reg.clone()).unwrap();
    cluster.set_dialect(Dialect::Netezza);
    let mut g = Gen(suite_seed() ^ 0x6a7e);
    cluster.create_table("g", gen_schema(), Distribution::Hash("id".into())).unwrap();
    cluster.load_rows("g", gen_rows(&mut g, 600)).unwrap();
    let gathered = |c: &Cluster| -> Vec<String> {
        let names = c.coordinator().catalog().table_names();
        names.into_iter().filter(|n| n.contains("GATHERED")).collect()
    };
    for _ in 0..20 {
        let (sql, _) = gen_statement(&mut g, "g");
        cluster.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(gathered(&cluster), Vec::<String>::new(), "{sql}");
    }
    cluster.fail_node(NodeId(1)).unwrap();
    cluster.query("SELECT ks, COUNT(*) FROM g GROUP BY ks").unwrap();
    reg.arm(GATHER_LOAD, FaultPolicy::Always, FaultAction::Stall(Duration::from_secs(30)));
    let err = cluster
        .query_with_deadline("SELECT id FROM g ORDER BY id LIMIT 3", Some(Duration::from_millis(100)))
        .unwrap_err();
    assert_eq!(err.class(), "57014", "{err}");
    reg.disarm(GATHER_LOAD);
    assert_eq!(gathered(&cluster), Vec::<String>::new());
    assert_eq!(cluster.query("SELECT COUNT(*) FROM g").unwrap(), vec![row![600i64]]);
}
