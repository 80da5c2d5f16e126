//! Differential testing: the dashDB engine via SQL, the same engine with
//! predicates decoded before they are compared (the Table 1 Test 4
//! comparator), and the row-store baseline must return identical results
//! for every workload query — randomized within deterministic seeds so
//! regressions reproduce.

use dashdb_local::common::{Datum, Row};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::rowstore::engine::RowEngine;
use dashdb_local::workloads::spec::{normalize_sql_groups, Pred, QuerySpec};
use dashdb_local::workloads::{customer, tpcds};
use std::sync::Arc;

struct Engines {
    db: Arc<Database>,
    /// The same engine with compressed-code predicates switched off.
    ablated: Arc<Database>,
    row: RowEngine,
}

fn load(tables: &[dashdb_local::workloads::TableDef]) -> Engines {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let ablated = Database::with_hardware(HardwareSpec::laptop());
    ablated.catalog().set_compressed_predicates(false);
    let mut row = RowEngine::new(None);
    for t in tables {
        for db in [&db, &ablated] {
            let handle = db
                .catalog()
                .create_table(&t.name, t.schema.clone(), None)
                .unwrap();
            handle.write().load_rows(t.rows.clone()).unwrap();
        }
        row.create_table(&t.name, t.schema.clone()).unwrap();
        row.load(&t.name, t.rows.clone()).unwrap();
        for &c in &t.indexed {
            row.create_index(&t.name, c).unwrap();
        }
    }
    Engines { db, ablated, row }
}

/// Run `spec` as SQL on `db`, normalized for comparison with the row store.
fn sql_rows(db: &Arc<Database>, spec: &QuerySpec) -> Vec<Row> {
    let rows = db.connect().query(&spec.to_sql()).unwrap();
    match spec {
        QuerySpec::FilterScan { .. } => {
            let mut r = rows;
            r.sort();
            r
        }
        // Top-N output order is the contract: compare verbatim.
        QuerySpec::TopN { .. } => rows,
        _ => normalize_sql_groups(rows),
    }
}

fn check(engines: &Engines, spec: &QuerySpec) {
    let sql = spec.to_sql();
    let a = sql_rows(&engines.db, spec);
    let (b, _) = spec.run_row(&engines.row).unwrap();
    let c = sql_rows(&engines.ablated, spec);
    assert_eq!(a, b, "SQL vs row store differ on {sql}");
    assert_eq!(b, c, "row store vs ablated SQL differ on {sql}");
    // The ablation must keep ablating: no scan evaluates a predicate on
    // compressed codes.
    let plan = engines.ablated.connect().query(&format!("EXPLAIN {sql}")).unwrap();
    for line in plan.iter().map(|r| r.get(0).render()) {
        assert!(
            !line.contains("ColumnScan") || line.contains(" preds=0 "),
            "ablated scan pushed a predicate for {sql}: {line}"
        );
    }
}

fn le(column: &str, v: impl Into<Datum>) -> Pred {
    Pred {
        column: column.into(),
        lo: None,
        hi: Some(v.into()),
    }
}

#[test]
fn tpcds_queries_agree_across_engines() {
    let w = tpcds::generate(8000);
    let engines = load(&w.tables);
    for q in &w.queries {
        check(&engines, q);
    }
}

#[test]
fn customer_queries_agree_across_engines() {
    let w = customer::generate(6000, 0);
    let engines = load(&w.tables);
    for q in &w.analytic_queries {
        check(&engines, q);
    }
}

#[test]
fn randomized_predicates_agree() {
    // Sweep generated predicates over the fact table: every combination of
    // bound shapes on three column types, then the boundary bounds.
    let w = tpcds::generate(4000);
    let engines = load(&w.tables);
    let start = dashdb_local::workloads::gen::history_start();
    let mut cases: Vec<Vec<Pred>> = (0..40)
        .map(|i| {
            let lo = start + (i * 61) % 2000;
            let hi = lo + 50 + (i * 13) % 400;
            let mut predicates = vec![Pred::between("ss_sold_date", Datum::Date(lo), Datum::Date(hi))];
            if i % 3 == 0 {
                predicates.push(Pred::ge("ss_quantity", ((i % 15) + 1) as i64));
            }
            if i % 4 == 0 {
                predicates.push(Pred::between("ss_sales_price", 10.0f64, 120.0f64));
            }
            predicates
        })
        .collect();
    // `ss_quantity` holds 1..=19 and `ss_ext_discount` is 0.0 on six rows
    // in seven, else a tenth of a price of at least 1.00: both are
    // dictionary-encoded.
    cases.extend([
        // lo > hi: empty on every engine.
        vec![Pred::between("ss_quantity", 12i64, 4i64)],
        vec![Pred::between("ss_sold_date", Datum::Date(start + 300), Datum::Date(start + 100))],
        vec![Pred::between("ss_ext_discount", 5.0f64, 1.0f64)],
        // The extremes of the integer domain, on a 64- and a 32-bit column.
        vec![Pred::between("ss_ticket", i64::MIN, i64::MAX)],
        vec![Pred::ge("ss_ticket", i64::MAX)],
        vec![le("ss_ticket", i64::MIN)],
        vec![Pred::ge("ss_ticket", i64::MIN)],
        vec![le("ss_ticket", i64::MAX)],
        vec![Pred::between("ss_quantity", i64::MIN, i64::MAX)],
        vec![Pred::ge("ss_quantity", i64::MAX)],
        vec![le("ss_quantity", i64::MIN)],
        // Negative zero equals zero.
        vec![Pred::eq("ss_ext_discount", -0.0f64)],
        vec![le("ss_ext_discount", -0.0f64)],
        vec![Pred::ge("ss_ext_discount", -0.0f64)],
        vec![Pred::between("ss_ext_discount", -0.0f64, 0.5f64)],
        vec![Pred::between("ss_net_profit", -0.0f64, 50.0f64)],
        // Values absent from the dictionary: inside its range and just
        // outside either end.
        vec![Pred::eq("ss_ext_discount", 0.05f64)],
        vec![Pred::between("ss_ext_discount", 0.01f64, 0.09f64)],
        vec![Pred::eq("ss_quantity", 0i64)],
        vec![Pred::eq("ss_quantity", 20i64)],
        vec![Pred::between("ss_quantity", 0i64, 1i64)],
        vec![Pred::between("ss_quantity", 19i64, 20i64)],
    ]);
    for predicates in cases {
        let spec = QuerySpec::GroupAgg {
            table: "store_sales".into(),
            predicates: predicates.clone(),
            key: "ss_store_sk".into(),
            value: "ss_net_profit".into(),
        };
        check(&engines, &spec);
        let spec = QuerySpec::FilterScan {
            table: "store_sales".into(),
            predicates,
            projection: vec!["ss_ticket".into(), "ss_quantity".into()],
        };
        check(&engines, &spec);
    }
}

#[test]
fn dml_then_queries_agree() {
    // Apply the same deletes/updates to both SQL engines and the row
    // engine, then verify queries still agree (exercises delete bitmaps +
    // update-as-delete-insert against in-place row updates).
    let w = customer::generate(5000, 0);
    let mut engines = load(&w.tables);
    for db in [&engines.db, &engines.ablated] {
        let mut session = db.connect();
        session
            .execute("DELETE FROM txn WHERE txn_id BETWEEN 100 AND 499")
            .unwrap();
        session
            .execute("UPDATE txn SET status = 9 WHERE txn_id BETWEEN 1000 AND 1099")
            .unwrap();
    }
    engines
        .row
        .delete_where("txn", &|r| {
            let id = r.get(0).as_int().unwrap();
            (100..=499).contains(&id)
        })
        .unwrap();
    engines
        .row
        .update_where(
            "txn",
            &|r| {
                let id = r.get(0).as_int().unwrap();
                (1000..=1099).contains(&id)
            },
            &|r| {
                let mut nr = r.clone();
                nr.0[6] = Datum::Int(9);
                nr
            },
        )
        .unwrap();
    for spec in [
        QuerySpec::GroupAgg {
            table: "txn".into(),
            predicates: vec![],
            key: "status".into(),
            value: "amount".into(),
        },
        QuerySpec::FilterScan {
            table: "txn".into(),
            predicates: vec![Pred::eq("status", 9i64)],
            projection: vec!["txn_id".into()],
        },
    ] {
        check(&engines, &spec);
    }
}
