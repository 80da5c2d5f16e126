//! Serial-vs-parallel equivalence for the morsel-driven executor.
//!
//! The worker pool must be invisible in results: for every operator and
//! every worker count, output is identical to the serial run — not just
//! set-equal but byte-identical, because the in-morsel-order fold is part
//! of the contract (morsel boundaries do not depend on the worker count,
//! so even float sums associate identically). Correctness itself is
//! checked against the naive evaluator in `common/reference.rs`.

#[path = "common/gen.rs"]
mod gen;
#[path = "common/reference.rs"]
mod reference;
use gen::{suite_seed, Gen};

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema, StatementContext};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::exec::agg::{hash_aggregate, AggExpr, AggFunc};
use dashdb_local::exec::expr::Expr;
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::join::{hash_join, JoinType};
use dashdb_local::exec::key::KeyMode;
use dashdb_local::exec::stats::ExecStats;
use dashdb_local::exec::Batch;

const PARALLELISMS: [usize; 3] = [2, 4, 8];

/// Enough rows that row morsels (4096 rows each) actually fan out.
const BIG: usize = 40_000;

fn agg(func: AggFunc, col: usize, dt: DataType) -> AggExpr {
    AggExpr {
        func,
        args: vec![col],
        distinct: false,
        arg_types: vec![dt],
    }
}

fn count_star() -> AggExpr {
    AggExpr {
        func: AggFunc::CountStar,
        args: vec![],
        distinct: false,
        arg_types: vec![],
    }
}

/// Deterministic pseudo-random fact batch: string + int group columns
/// (both with NULLs), an int measure, a float measure.
fn fact_batch(n: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::new("region", DataType::Utf8),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("weight", DataType::Float64),
    ])
    .unwrap();
    let mut rows = Vec::with_capacity(n);
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let region = match (x >> 33) % 7 {
            0 => Datum::Null,
            k => Datum::from(format!("r{k}")),
        };
        let grp = match (x >> 17) % 11 {
            0 => Datum::Null,
            k => Datum::from(k as i64),
        };
        let qty = Datum::from((x % 1000) as i64 - 500);
        let weight = if i % 13 == 0 {
            Datum::Null
        } else {
            Datum::from((x % 997) as f64 / 7.0)
        };
        rows.push(row![region, grp, qty, weight]);
    }
    Batch::from_rows(schema, &rows).unwrap()
}

fn out_schema(fields: &[(&str, DataType)]) -> Schema {
    Schema::new(
        fields
            .iter()
            .map(|(n, dt)| Field::new(*n, *dt))
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

// ---------------------------------------------------------------------------
// Aggregate equivalence
// ---------------------------------------------------------------------------

#[test]
fn aggregate_matches_serial_exactly() {
    // Two group columns, one int column, and a float SUM under either
    // plan label: partials merge in morsel order over fixed morsel
    // boundaries, so group order and every value — float sums included —
    // are byte-identical to the serial run.
    let input = fact_batch(BIG);
    let two_keys = out_schema(&[
        ("region", DataType::Utf8),
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("total", DataType::Int64),
    ]);
    let one_key = out_schema(&[
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("w", DataType::Float64),
    ]);
    let cases = [
        (vec![0, 1], [count_star(), agg(AggFunc::Sum, 2, DataType::Int64)], two_keys, KeyMode::Datum),
        (vec![1], [count_star(), agg(AggFunc::Sum, 3, DataType::Float64)], one_key, KeyMode::Encoded),
    ];
    for (groups, aggs, schema, key_mode) in cases {
        let run = |par: usize| {
            let mut stats = ExecStats::default();
            let out = hash_aggregate(
                &input,
                &groups,
                &aggs,
                schema.clone(),
                &EvalContext::default(),
                key_mode,
                par,
                &mut stats,
            )
            .unwrap();
            (out.to_rows(), stats)
        };
        let (serial, serial_stats) = run(1);
        assert!(serial_stats.parallel_workers_used <= 1);
        for par in PARALLELISMS {
            let (out, stats) = run(par);
            assert_eq!(out, serial, "{key_mode:?} parallelism {par}");
            assert!(
                stats.parallel_workers_used > 1,
                "{key_mode:?} parallelism {par}: expected fan-out, got {}",
                stats.parallel_workers_used
            );
            assert!(stats.morsels_dispatched > 1);
        }
    }
}

#[test]
fn global_aggregate_matches_serial() {
    // Empty GROUP BY: one output row, including over empty input.
    let schema = out_schema(&[("cnt", DataType::Int64), ("total", DataType::Int64)]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2, DataType::Int64)];
    for input in [fact_batch(BIG), fact_batch(0)] {
        let mut stats = ExecStats::default();
        let serial = hash_aggregate(
            &input,
            &[],
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            KeyMode::Datum,
            1,
            &mut stats,
        )
        .unwrap();
        assert_eq!(serial.len(), 1);
        for par in PARALLELISMS {
            let mut stats = ExecStats::default();
            let out = hash_aggregate(
                &input,
                &[],
                &aggs,
                schema.clone(),
                &EvalContext::default(),
                KeyMode::Datum,
                par,
                &mut stats,
            )
            .unwrap();
            assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
        }
    }
}

// ---------------------------------------------------------------------------
// Join equivalence
// ---------------------------------------------------------------------------

/// Build (probe side, build side) with duplicate keys, NULL keys, and
/// keys that dangle on each side.
fn join_sides(n: usize) -> (Batch, Batch) {
    let left_schema = Schema::new(vec![
        Field::not_null("o_id", DataType::Int64),
        Field::new("cust", DataType::Int64),
    ])
    .unwrap();
    let mut left = Vec::with_capacity(n);
    let mut x: u64 = 0xB7E1_5162_8AED_2A6B;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let cust = match (x >> 29) % 10 {
            0 => Datum::Null,
            // Key space 0..600 against a build side covering 0..400:
            // plenty of dup matches and plenty of dangling probes.
            _ => Datum::from((x % 600) as i64),
        };
        left.push(row![i as i64, cust]);
    }
    let right_schema = Schema::new(vec![
        Field::not_null("c_id", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ])
    .unwrap();
    let mut right = Vec::new();
    for k in 0..400i64 {
        right.push(row![k, format!("cust-{k}")]);
        if k % 5 == 0 {
            // Duplicate build keys: each probe hit fans out.
            right.push(row![k, format!("cust-{k}-alt")]);
        }
    }
    (
        Batch::from_rows(left_schema, &left).unwrap(),
        Batch::from_rows(right_schema, &right).unwrap(),
    )
}

#[test]
fn joins_match_serial_exactly_for_all_types() {
    let (left, right) = join_sides(20_000);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        let mut per_mode = Vec::new();
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut serial_stats = ExecStats::default();
            let serial = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, 1, &StatementContext::unbounded(), &mut serial_stats).unwrap();
            assert!(serial_stats.parallel_workers_used <= 1);
            // The label selects nothing: every row keys on words.
            assert_eq!(serial_stats.encoded_key_rows, (left.len() + right.len()) as u64, "{join_type:?}");
            for par in PARALLELISMS {
                let mut stats = ExecStats::default();
                let out = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, par, &StatementContext::unbounded(), &mut stats).unwrap();
                assert_eq!(
                    out.to_rows(),
                    serial.to_rows(),
                    "{join_type:?} {key_mode:?} at parallelism {par}"
                );
                assert!(
                    stats.parallel_workers_used > 1,
                    "{join_type:?} {key_mode:?} at parallelism {par}"
                );
                assert!(stats.morsels_dispatched > 1);
            }
            per_mode.push(serial.to_rows());
        }
        assert_eq!(per_mode[0], per_mode[1], "{join_type:?}: the label changes nothing");
    }
}

#[test]
fn join_with_all_null_keys_matches_serial() {
    // Every probe key NULL: inner/semi empty, left/anti pass everything.
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("k", DataType::Int64),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..10_000).map(|i| row![i as i64, Datum::Null]).collect();
    let left = Batch::from_rows(schema, &rows).unwrap();
    let (_, right) = join_sides(0);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            let mut stats = ExecStats::default();
            let serial = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, 1, &StatementContext::unbounded(), &mut stats).unwrap();
            for par in PARALLELISMS {
                let mut stats = ExecStats::default();
                let out = hash_join(&left, &right, &[(1, 0)], join_type, key_mode, par, &StatementContext::unbounded(), &mut stats).unwrap();
                assert_eq!(out.to_rows(), serial.to_rows(), "{join_type:?} {key_mode:?} par {par}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Operate-on-compressed equivalence
// ---------------------------------------------------------------------------

#[test]
fn aggregate_groups_on_key_words_whatever_the_plan_label() {
    // Multi-key grouping (string + int, both with NULLs): `KeyMode` is the
    // planner's label only; either way every row groups on interned code
    // words, and group sets and aggregates agree exactly.
    let input = fact_batch(BIG);
    let schema = out_schema(&[
        ("region", DataType::Utf8),
        ("grp", DataType::Int64),
        ("cnt", DataType::Int64),
        ("total", DataType::Int64),
    ]);
    let aggs = [count_star(), agg(AggFunc::Sum, 2, DataType::Int64)];
    let groups = [0, 1];
    let run = |key_mode: KeyMode, par: usize| {
        let mut stats = ExecStats::default();
        let mut rows = hash_aggregate(
            &input,
            &groups,
            &aggs,
            schema.clone(),
            &EvalContext::default(),
            key_mode,
            par,
            &mut stats,
        )
        .unwrap()
        .to_rows();
        rows.sort_by_key(|r| (r.get(0).render(), r.get(1).render()));
        (rows, stats)
    };
    let (datum_rows, datum_stats) = run(KeyMode::Datum, 1);
    assert_eq!(datum_stats.encoded_key_rows, BIG as u64);
    for par in [1usize, 4] {
        let (enc_rows, enc_stats) = run(KeyMode::Encoded, par);
        assert_eq!(enc_rows, datum_rows, "parallelism {par}");
        assert_eq!(enc_stats.encoded_key_rows, BIG as u64, "parallelism {par}");
    }
}

#[test]
fn float_group_keys_agree_across_all_paths() {
    // -0.0 and +0.0 are one group, every NaN is one group — on the
    // encoded path and the Datum path alike (canonical float bits unify
    // the key identity everywhere).
    let schema = Schema::new(vec![Field::new("k", DataType::Float64)]).unwrap();
    let rows: Vec<Row> = (0..4096)
        .map(|i| match i % 5 {
            0 => row![-0.0f64],
            1 => row![0.0f64],
            2 => row![f64::NAN],
            3 => row![-f64::NAN],
            _ => row![1.5f64],
        })
        .collect();
    let input = Batch::from_rows(schema, &rows).unwrap();
    let aggs = [count_star()];
    let run = |groups: &[usize], out: &Schema, key_mode: KeyMode, par: usize| {
        let mut stats = ExecStats::default();
        let mut got = hash_aggregate(
            &input,
            groups,
            &aggs,
            out.clone(),
            &EvalContext::default(),
            key_mode,
            par,
            &mut stats,
        )
        .unwrap()
        .to_rows();
        got.sort_by_key(|r| {
            r.values().iter().map(|d| d.render()).collect::<Vec<_>>()
        });
        got
    };
    // Single bare float key, Encoded vs Datum: 3 groups — ±0.0 fold
    // together, NaNs fold together.
    let out1 = out_schema(&[("k", DataType::Float64), ("cnt", DataType::Int64)]);
    let bare = [0];
    let mut single = Vec::new();
    for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
        for par in [1usize, 4] {
            let got = run(&bare, &out1, key_mode, par);
            assert_eq!(got.len(), 3, "{key_mode:?} par {par}");
            single.push(got);
        }
    }
    for other in &single[1..] {
        assert_eq!(&single[0], other, "single-key paths must agree on float identity");
    }
    // Doubled key (k, k): multi-word keys under Encoded, two-datum keys
    // under Datum.
    let out2 = out_schema(&[
        ("k", DataType::Float64),
        ("k2", DataType::Float64),
        ("cnt", DataType::Int64),
    ]);
    let double = [0, 0];
    let mut multi = Vec::new();
    for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
        for par in [1usize, 4] {
            let got = run(&double, &out2, key_mode, par);
            assert_eq!(got.len(), 3, "{key_mode:?} par {par}");
            multi.push(got);
        }
    }
    for other in &multi[1..] {
        assert_eq!(&multi[0], other, "multi-key paths must agree on float identity");
    }
}

// ---------------------------------------------------------------------------
// End-to-end SQL: deletes, TSN visibility, and the parallelism knob
// ---------------------------------------------------------------------------

fn seeded_db(n: usize) -> std::sync::Arc<Database> {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    let handle = db.catalog().create_table("facts", schema, None).unwrap();
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            let i = i as i64;
            row![i, i % 17, (i * 7) % 1000, format!("L{}", i % 23)]
        })
        .collect();
    handle.write().load_rows(rows).unwrap();

    let dim_schema = Schema::new(vec![
        Field::not_null("g", DataType::Int64),
        Field::new("name", DataType::Utf8),
    ])
    .unwrap();
    let dim = db.catalog().create_table("dims", dim_schema, None).unwrap();
    let dim_rows: Vec<Row> = (0..12).map(|g| row![g as i64, format!("dim-{g}")]).collect();
    dim.write().load_rows(dim_rows).unwrap();
    db
}

#[test]
fn sql_results_identical_across_worker_counts_with_deletes() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    // Delete a slice mid-table so TSN visibility filtering runs inside
    // every parallel stride morsel, not just at the fringes.
    let deleted = s
        .execute("DELETE FROM facts WHERE qty >= 300 AND qty < 500")
        .unwrap()
        .affected;
    assert!(deleted > 0);

    let queries = [
        "SELECT grp, COUNT(*), SUM(qty) FROM facts GROUP BY grp ORDER BY grp",
        "SELECT id, qty FROM facts WHERE qty < 120 ORDER BY id",
        "SELECT d.name, f.label, COUNT(*) FROM facts f JOIN dims d ON f.grp = d.g \
         GROUP BY d.name, f.label ORDER BY d.name, f.label",
    ];
    for (qi, sql) in queries.iter().enumerate() {
        db.catalog().set_parallelism(1);
        let serial = s.execute(sql).unwrap();
        assert!(serial.stats.parallel_workers_used <= 1, "{sql}");
        if qi == 2 {
            // The int-keyed join hashes encoded key words even with MVCC
            // delete filtering in the scan underneath.
            assert!(serial.stats.encoded_key_rows > 0, "{:?}", serial.stats);
        }
        for par in [2usize, 4] {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            assert_eq!(out.rows, serial.rows, "{sql} at parallelism {par}");
        }
    }
}

#[test]
fn sql_string_join_reencodes_probe_rows_into_build_dictionary() {
    // Both join sides are dictionary-backed strings with distinct
    // dictionaries. The frozen build side owns the code domain, so every
    // probe morsel re-encodes its keys by value into the build dictionary
    // — the build side is never translated.
    let db = seeded_db(5_000);
    let mut s = db.connect();
    let schema = Schema::new(vec![
        Field::not_null("lab", DataType::Utf8),
        Field::new("boost", DataType::Int64),
    ])
    .unwrap();
    let t = db.catalog().create_table("labels", schema, None).unwrap();
    let rows: Vec<Row> = (0..23).map(|k| row![format!("L{k}"), k as i64]).collect();
    t.write().load_rows(rows).unwrap();

    let sql = "SELECT f.id, l.boost FROM facts f JOIN labels l ON f.label = l.lab \
               ORDER BY f.id";
    db.catalog().set_parallelism(1);
    let serial = s.execute(sql).unwrap();
    assert_eq!(serial.rows.len(), 5_000, "every fact label resolves");
    assert!(serial.stats.encoded_key_rows > 0, "{:?}", serial.stats);
    assert_eq!(
        serial.stats.keys_reencoded_rows, 5_000,
        "every probe row re-encoded into the build dictionary: {:?}",
        serial.stats
    );
    for par in [2usize, 4] {
        db.catalog().set_parallelism(par);
        let out = s.execute(sql).unwrap();
        assert_eq!(out.rows, serial.rows, "parallelism {par}");
        assert_eq!(out.stats.keys_reencoded_rows, 5_000, "parallelism {par}");
    }
    // The statement counters land in the monitor's key-path store.
    let k = db.monitor().key_path();
    assert!(k.encoded_key_rows > 0);
    assert!(k.keys_reencoded_rows > 0);
}

#[test]
fn sql_cross_type_join_falls_back_to_datum_keys() {
    // Int joined against Float: code domains differ, so the int side lifts
    // into the pair's `f64` words (`EXPLAIN` labels the join `keys=Datum`)
    // — and 2 must still equal 2.0 there.
    let db = seeded_db(200);
    let mut s = db.connect();
    let schema = Schema::new(vec![
        Field::not_null("x", DataType::Float64),
        Field::new("tag", DataType::Utf8),
    ])
    .unwrap();
    let t = db.catalog().create_table("fvals", schema, None).unwrap();
    let rows: Vec<Row> = (0..50).map(|k| row![(k * 7) as f64, format!("t{k}")]).collect();
    t.write().load_rows(rows).unwrap();

    let sql = "SELECT f.id, v.tag FROM facts f JOIN fvals v ON f.qty = v.x ORDER BY f.id";
    db.catalog().set_parallelism(1);
    let serial = s.execute(sql).unwrap();
    assert!(!serial.rows.is_empty(), "int 7k == float 7k.0 must match");
    assert!(serial.stats.encoded_key_rows > 0, "{:?}", serial.stats);
    for par in [2usize, 4] {
        db.catalog().set_parallelism(par);
        let out = s.execute(sql).unwrap();
        assert_eq!(out.rows, serial.rows, "parallelism {par}");
    }
}

#[test]
fn sql_operators_report_parallel_workers() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    db.catalog().set_parallelism(4);

    // Scan fan-out: candidate strides outnumber workers by far.
    let scan = s.execute("SELECT id FROM facts WHERE qty < 900").unwrap();
    assert!(scan.stats.parallel_workers_used > 1, "scan: {:?}", scan.stats);
    assert!(scan.stats.morsels_dispatched > 1);

    // Grouped aggregate: one partial per stride morsel.
    let agg = s
        .execute("SELECT grp, COUNT(*), SUM(qty) FROM facts GROUP BY grp")
        .unwrap();
    assert!(agg.stats.parallel_workers_used > 1, "agg: {:?}", agg.stats);

    // Join: build partitioning + probe morsels.
    let join = s
        .execute(
            "SELECT d.name, f.label, COUNT(*) FROM facts f JOIN dims d ON f.grp = d.g \
             GROUP BY d.name, f.label",
        )
        .unwrap();
    assert!(join.stats.parallel_workers_used > 1, "join: {:?}", join.stats);

    // At parallelism 1 the pool runs inline: no fan-out reported.
    db.catalog().set_parallelism(1);
    let serial = s.execute("SELECT id FROM facts WHERE qty < 900").unwrap();
    assert!(serial.stats.parallel_workers_used <= 1);
}

// ---------------------------------------------------------------------------
// Sort equivalence
// ---------------------------------------------------------------------------

use dashdb_local::exec::sort::{
    merge_sorted_runs, sort_batch, SortKey, SortOptions, DEFAULT_SORT_RUN_ROWS, TOPK_FACTOR,
};

/// Run rows small enough that BIG rows split into many runs — the merge
/// actually merges, and run boundaries land mid-data.
const SMALL_RUN: usize = 4096;

fn sort_with(input: &Batch, keys: &[SortKey], o: &SortOptions) -> (Batch, ExecStats) {
    let mut stats = ExecStats::default();
    let out = sort_batch(input, keys, o, &EvalContext::default(), &mut stats).unwrap();
    (out, stats)
}

fn serial_opts(limit: Option<usize>, offset: usize) -> SortOptions {
    SortOptions {
        limit,
        offset,
        parallelism: 1,
        run_rows: DEFAULT_SORT_RUN_ROWS,
    }
}

#[test]
fn sort_matches_serial_exactly() {
    let input = fact_batch(BIG);
    // Multi-key, asc/desc, NULLs in every key column, and a
    // duplicate-heavy single key whose ties exercise stability.
    let key_sets: Vec<Vec<SortKey>> = vec![
        vec![SortKey::asc(0), SortKey::desc(2)],
        vec![SortKey::desc(1), SortKey::asc(3)],
        vec![SortKey {
            col: 1,
            asc: true,
            nulls_last: false,
        }],
        // 7 distinct region values over 40k rows: almost every comparison
        // is a tie resolved by input order.
        vec![SortKey::asc(0)],
    ];
    for keys in &key_sets {
        let (serial, serial_stats) = sort_with(&input, keys, &serial_opts(None, 0));
        assert!(serial_stats.parallel_workers_used <= 1);
        assert_eq!(serial_stats.sort_runs_generated, 1, "one run when serial");
        for par in PARALLELISMS {
            let o = SortOptions {
                limit: None,
                offset: 0,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, stats) = sort_with(&input, keys, &o);
            assert_eq!(out.to_rows(), serial.to_rows(), "parallelism {par}");
            assert!(stats.parallel_workers_used > 1, "parallelism {par}");
            let runs = (BIG.div_ceil(SMALL_RUN)) as u64;
            assert_eq!(stats.sort_runs_generated, runs);
            assert_eq!(stats.merge_fanin, runs, "merge fan-in == run count");
        }
    }
}

#[test]
fn sort_limit_offset_boundaries_match_serial() {
    let input = fact_batch(BIG);
    let keys = [SortKey::asc(2), SortKey::desc(0)];
    // Boundaries on run edges (SMALL_RUN ± 1), past-the-end offsets,
    // LIMIT 0, and a window straddling the last run.
    let windows: &[(Option<usize>, usize)] = &[
        (None, 0),
        (None, SMALL_RUN),
        (Some(0), 0),
        (Some(1), SMALL_RUN - 1),
        (Some(SMALL_RUN + 1), SMALL_RUN - 1),
        (Some(100), BIG - 50),
        (Some(100), BIG + 50),
        (Some(BIG * 2), 0),
    ];
    for &(limit, offset) in windows {
        let (serial, _) = sort_with(&input, &keys, &serial_opts(limit, offset));
        for par in PARALLELISMS {
            let o = SortOptions {
                limit,
                offset,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, _) = sort_with(&input, &keys, &o);
            assert_eq!(
                out.to_rows(),
                serial.to_rows(),
                "limit {limit:?} offset {offset} parallelism {par}"
            );
        }
    }
}

#[test]
fn top_k_path_matches_full_sort() {
    let input = fact_batch(BIG);
    let keys = [SortKey::desc(2), SortKey::asc(0)];
    // end * TOPK_FACTOR <= n → the bounded-heap path; the full-sort run
    // counter is the discriminator proving which path ran.
    let k = BIG / TOPK_FACTOR - 10;
    for (limit, offset) in [(Some(40), 0), (Some(25), 13), (Some(k - 20), 20)] {
        let (serial, _) = sort_with(&input, &keys, &serial_opts(limit, offset));
        for par in PARALLELISMS {
            let o = SortOptions {
                limit,
                offset,
                parallelism: par,
                run_rows: SMALL_RUN,
            };
            let (out, stats) = sort_with(&input, &keys, &o);
            assert_eq!(
                out.to_rows(),
                serial.to_rows(),
                "limit {limit:?} offset {offset} parallelism {par}"
            );
            assert_eq!(
                stats.sort_runs_generated, 0,
                "Top-K must not generate runs (limit {limit:?})"
            );
            assert!(stats.morsels_dispatched > 1, "Top-K still fans out");
        }
    }
}

/// The value order a stable reference sort compares one key by, written
/// out here rather than shared with the engine: NULL placement follows
/// NULLS FIRST/LAST alone, DESC reverses the rest, integers compare as
/// `i64`, doubles as IEEE with every NaN tied above `+inf` and `-0.0` tying
/// `+0.0`, strings byte by byte.
fn reference_cmp(a: &Datum, b: &Datum, key: &SortKey) -> std::cmp::Ordering {
    use std::cmp::Ordering::*;
    let o = match (a, b) {
        (Datum::Null, Datum::Null) => return Equal,
        (Datum::Null, _) => return if key.nulls_last { Greater } else { Less },
        (_, Datum::Null) => return if key.nulls_last { Less } else { Greater },
        (Datum::Int(x), Datum::Int(y)) => x.cmp(y),
        (Datum::Float(x), Datum::Float(y)) => match (x.is_nan(), y.is_nan()) {
            (true, true) => Equal,
            (true, false) => Greater,
            (false, true) => Less,
            _ => x.partial_cmp(y).unwrap(),
        },
        (Datum::Str(x), Datum::Str(y)) => x.as_bytes().cmp(y.as_bytes()),
        other => panic!("no reference order for {other:?}"),
    };
    if key.asc {
        o
    } else {
        o.reverse()
    }
}

/// The word-keyed sort against a stable comparator sort: NULLs, NaNs of
/// both signs, signed zeros, infinities, `i64::MIN/MAX`, the empty string
/// and strings that tie on their 8-byte prefix, in a dictionary-backed and
/// a plain string column; 1–4 keys in every direction and NULL placement;
/// the full path and the Top-K path at widths 1, 4 and 8, with LIMIT/OFFSET
/// windows across run edges. Rows compare by `Debug`, so which of two tied
/// rows (a `-0.0` and a `0.0`, two NaNs) comes first counts.
#[test]
fn word_sort_matches_a_reference_stable_sort() {
    use dashdb_local::encoding::dict::FreqDict;
    use dashdb_local::encoding::histogram::Histogram;
    let mut g = Gen(suite_seed() ^ 0x776f_7264);
    let ints = [Datum::Null, Datum::Int(i64::MIN), Datum::Int(i64::MAX), Datum::Int(0), Datum::Int(-1), Datum::Int(7)];
    let floats = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25, f64::MIN_POSITIVE]
        .map(Datum::Float)
        .into_iter()
        .chain([Datum::Null])
        .collect::<Vec<_>>();
    let strs = ["", "abc", "abc\0", "abcdefgh", "abcdefghA", "abcdefghB", "abcdefg", "b", "\u{ff}"]
        .map(Datum::from)
        .into_iter()
        .chain([Datum::Null])
        .collect::<Vec<_>>();
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("s", DataType::Utf8),
        Field::new("t", DataType::Utf8),
    ])
    .unwrap();
    let n = 3 * SMALL_RUN + 123;
    let rows: Vec<Row> = (0..n)
        .map(|_| Row::new(vec![g.pick(&ints), g.pick(&floats), g.pick(&strs), g.pick(&strs)]))
        .collect();
    let mut input = Batch::from_rows(schema, &rows).unwrap();
    let words: Vec<std::sync::Arc<str>> = strs.iter().filter_map(|d| d.as_str().map(Into::into)).collect();
    input.set_str_dict(3, std::sync::Arc::new(FreqDict::build(&Histogram::from_values(words.iter().map(Some)))));
    let topk_end = n / TOPK_FACTOR;
    let windows: [(Option<usize>, usize); 6] = [
        (None, 0),
        (Some(SMALL_RUN + 7), SMALL_RUN - 3),
        (Some(100), n - 50),
        (Some(40), 0),
        (Some(topk_end - 30), 30),
        (Some(25), SMALL_RUN - 10),
    ];
    for _ in 0..24 {
        let keys: Vec<SortKey> = (0..1 + g.below(4))
            .map(|_| SortKey { col: g.below(4), asc: g.below(2) == 0, nulls_last: g.below(2) == 0 })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            keys.iter()
                .map(|k| reference_cmp(rows[a].get(k.col), rows[b].get(k.col), k))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &(limit, offset) in &windows {
            let end = limit.map_or(n, |l| (offset + l).min(n));
            let want: Vec<String> = order[offset.min(end)..end].iter().map(|&r| format!("{:?}", rows[r])).collect();
            for par in [1, 4, 8] {
                let o = SortOptions { limit, offset, parallelism: par, run_rows: SMALL_RUN };
                let (out, stats) = sort_with(&input, &keys, &o);
                let got: Vec<String> = out.to_rows().iter().map(|r| format!("{r:?}")).collect();
                assert_eq!(got, want, "keys {keys:?} limit {limit:?} offset {offset} width {par}");
                let topk = limit.is_some() && end * TOPK_FACTOR <= n;
                assert_eq!(stats.sort_runs_generated == 0, topk, "keys {keys:?} limit {limit:?} offset {offset}");
            }
        }
    }
}

#[test]
fn all_equal_keys_preserve_input_order_across_runs() {
    // Every key ties: the output must be the input, at any run size and
    // worker count — the strictest stability test there is.
    let schema = out_schema(&[("k", DataType::Int64), ("id", DataType::Int64)]);
    let rows: Vec<Row> = (0..10_000).map(|i| row![7i64, i as i64]).collect();
    let input = Batch::from_rows(schema, &rows).unwrap();
    for par in PARALLELISMS {
        for run_rows in [1, 37, 1000, 4096] {
            let o = SortOptions {
                limit: None,
                offset: 0,
                parallelism: par,
                run_rows,
            };
            let (out, _) = sort_with(&input, &[SortKey::asc(0)], &o);
            assert_eq!(out.to_rows(), rows, "par {par} run_rows {run_rows}");
        }
    }
}

#[test]
fn sql_order_by_identical_across_worker_counts() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    // LIMIT/OFFSET syntax is gated to the Netezza and PostgreSQL dialects;
    // the default ANSI session only accepts FETCH FIRST (no offset form).
    s.set_dialect(Dialect::Netezza);
    let queries = [
        "SELECT id, qty, label FROM facts ORDER BY qty, label LIMIT 500 OFFSET 250",
        "SELECT id, qty FROM facts ORDER BY qty DESC, id LIMIT 20",
        "SELECT label, qty FROM facts ORDER BY label DESC",
    ];
    for sql in queries {
        db.catalog().set_parallelism(1);
        let serial = s.execute(sql).unwrap();
        for par in PARALLELISMS {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            assert_eq!(out.rows, serial.rows, "{sql} at parallelism {par}");
        }
    }

    // Fan-out is visible in the statement stats: the full sort reports
    // its runs and merge width — one run per worker, derived from the
    // input with nothing set — and the LIMIT 20 query takes Top-K.
    db.catalog().set_parallelism(4);
    let full = s
        .execute("SELECT label, qty FROM facts ORDER BY label DESC")
        .unwrap();
    assert!(
        full.stats.sort_runs_generated > 1,
        "sort must fan out: {:?}",
        full.stats
    );
    assert_eq!(full.stats.merge_fanin, full.stats.sort_runs_generated);
    assert!(full.stats.parallel_workers_used > 1);
    let topk = s
        .execute("SELECT id, qty FROM facts ORDER BY qty DESC, id LIMIT 20")
        .unwrap();
    assert_eq!(topk.stats.sort_runs_generated, 0, "{:?}", topk.stats);
}

/// A NaN used to compare Equal to every number, which is no order at all:
/// where the NaNs landed depended on the run boundaries, so the serial and
/// the parallel sort disagreed (and `sort_by` may panic on such a
/// comparator). Now NaNs tie only with each other and sort above `+inf`;
/// the same rows come back at every width, whose runs split the input
/// at different rows.
#[test]
fn order_by_over_nans_is_a_total_order() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE t (id INT, f DOUBLE)").unwrap();
    let n = 3 * SMALL_RUN;
    let values: Vec<String> = (0..n)
        .map(|i| match i % 11 {
            0 | 6 => format!("({i}, 'NaN')"),
            1 => format!("({i}, NULL)"),
            2 => format!("({i}, 'inf')"),
            3 => format!("({i}, '-inf')"),
            4 => format!("({i}, -0.0)"),
            5 => format!("({i}, 0.0)"),
            k => format!("({i}, {}.25)", (i * 7 + k) % 500),
        })
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    // `Row`'s own `==` goes through `sql_cmp`, where a NaN equals anything.
    let render = |rows: &[Row]| -> Vec<String> { rows.iter().map(|r| format!("{r:?}")).collect() };
    for sql in [
        "SELECT f, id FROM t ORDER BY f",
        "SELECT f, id FROM t ORDER BY f DESC NULLS FIRST",
        "SELECT f, id FROM t ORDER BY f + 0",
        "SELECT f, id FROM t ORDER BY f + 0 DESC, id DESC",
    ] {
        db.catalog().set_parallelism(1);
        let serial = s.query(sql).unwrap();
        assert_eq!(serial.len(), n);
        // Rank of each value class in ascending order, NULLs last.
        let class = |r: &Row| match r.get(0) {
            Datum::Null => 4,
            Datum::Float(f) if f.is_nan() => 3,
            Datum::Float(f) if *f == f64::INFINITY => 2,
            Datum::Float(f) if *f == f64::NEG_INFINITY => 0,
            _ => 1,
        };
        let classes: Vec<i32> = serial.iter().map(class).collect();
        let mut want = classes.clone();
        if sql.contains("DESC NULLS FIRST") {
            want.sort_by_key(|c| if *c == 4 { -1 } else { 3 - c });
        } else if sql.contains("DESC") {
            want.sort_by_key(|c| if *c == 4 { 4 } else { 3 - c });
        } else {
            want.sort();
        }
        assert_eq!(classes, want, "{sql}: NaNs sit between +inf and the NULLs");
        for par in [4usize, 8] {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            assert!(out.stats.sort_runs_generated > 1, "{sql} at parallelism {par}: {:?}", out.stats);
            assert_eq!(render(&out.rows), render(&serial), "{sql} at parallelism {par}");
        }
    }
}

// ---------------------------------------------------------------------------
// K-way merge proptest
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    /// Chunk 0..n into runs of a random width, sort each run, merge — the
    /// result must equal one reference stable sort of all indices, for
    /// any key distribution (few distinct values → massive tie pressure),
    /// any run width, and any truncation point.
    #[test]
    fn prop_merge_equals_stable_sort(
        keys in proptest::collection::vec(0i64..6, 0..300),
        run_rows in 1usize..64,
        take_frac in 0usize..110,
    ) {
        let n = keys.len();
        let runs: Vec<Vec<usize>> = (0..n.div_ceil(run_rows.max(1)))
            .map(|r| {
                let lo = r * run_rows;
                let hi = (lo + run_rows).min(n);
                let mut idx: Vec<usize> = (lo..hi).collect();
                idx.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
                idx
            })
            .collect();
        let take = n * take_frac / 100;
        let cmp = |a: usize, b: usize| keys[a].cmp(&keys[b]);
        let merged = merge_sorted_runs(&runs, take, &StatementContext::unbounded(), &cmp).unwrap();
        let mut reference: Vec<usize> = (0..n).collect();
        reference.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        reference.truncate(take.min(n));
        prop_assert_eq!(merged, reference);
    }
}

// ---------------------------------------------------------------------------
// Pipelined execution vs the naive reference
// ---------------------------------------------------------------------------

use dashdb_local::exec::expr::CmpOp;
use dashdb_local::exec::plan::{aggregate_input, execute, PhysicalPlan, SharedTable};
use dashdb_local::exec::scan::ScanConfig;
use dashdb_local::sql::{parse_statement, plan_select, Statement};

/// Fact table for pipeline chains: nullable int join key with dangling
/// values, a measure, and a string group column with NULLs.
fn pipe_tables(n: usize) -> (SharedTable, SharedTable) {
    let db = Database::untracked();
    let fact_schema = Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("k", DataType::Int64),
        Field::new("qty", DataType::Int64),
        Field::new("grp", DataType::Utf8),
    ])
    .unwrap();
    let facts = db.catalog().create_table("PFACTS", fact_schema, None).unwrap();
    let mut rows = Vec::with_capacity(n);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let k = match (x >> 29) % 10 {
            0 => Datum::Null,
            _ => Datum::from((x % 600) as i64),
        };
        let grp = match (x >> 41) % 6 {
            0 => Datum::Null,
            g => Datum::from(format!("g{g}")),
        };
        rows.push(row![i as i64, k, (x % 1000) as i64 - 500, grp]);
    }
    facts.write().load_rows(rows).unwrap();

    let dim_schema = Schema::new(vec![
        Field::not_null("dk", DataType::Int64),
        Field::new("label", DataType::Utf8),
    ])
    .unwrap();
    let dims = db.catalog().create_table("PDIMS", dim_schema, None).unwrap();
    let mut dim_rows = Vec::new();
    for k in 0..400i64 {
        dim_rows.push(row![k, format!("d{k}")]);
        if k % 5 == 0 {
            dim_rows.push(row![k, format!("d{k}-alt")]);
        }
    }
    dims.write().load_rows(dim_rows).unwrap();
    (facts, dims)
}

/// scan(facts) → filter(qty > -400) → probe(dims) → agg → [sort]: the
/// full pipeline chain, parameterized over join type, key path, worker
/// count, and whether a sort seals the plan.
fn chain_plan(
    facts: &SharedTable,
    dims: &SharedTable,
    join_type: JoinType,
    key_mode: KeyMode,
    par: usize,
    with_sort: bool,
) -> PhysicalPlan {
    let scan = PhysicalPlan::ColumnScan {
        table: facts.clone(),
        config: ScanConfig::full(0, vec![0, 1, 2, 3]),
    };
    let filter = PhysicalPlan::Filter {
        input: Box::new(scan),
        predicate: Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::col(2)),
            Box::new(Expr::lit(-400i64)),
        ),
    };
    let join = PhysicalPlan::HashJoin {
        left: Box::new(filter),
        right: Box::new(PhysicalPlan::ColumnScan {
            table: dims.clone(),
            config: ScanConfig::full(1, vec![0, 1]),
        }),
        on: vec![(1, 0)],
        join_type,
        key_mode,
        parallelism: par,
    };
    // Semi/Anti output only probe columns; group on a surviving column.
    let group_col = match join_type {
        JoinType::Inner | JoinType::Left => 5, // dim label
        JoinType::Semi | JoinType::Anti => 3,  // fact grp
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group: vec![group_col],
        aggs: vec![count_star(), agg(AggFunc::Sum, 2, DataType::Int64)],
        schema: out_schema(&[
            ("g", DataType::Utf8),
            ("cnt", DataType::Int64),
            ("total", DataType::Int64),
        ]),
        key_mode,
        parallelism: par,
    };
    if !with_sort {
        return agg;
    }
    PhysicalPlan::Sort {
        input: Box::new(agg),
        keys: vec![SortKey::asc(0)],
        limit: None,
        offset: 0,
        parallelism: par,
        run_rows: DEFAULT_SORT_RUN_ROWS,
    }
}

fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn pipelined_chain_matches_reference_for_all_join_types() {
    let (facts, dims) = pipe_tables(BIG);
    for join_type in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
        // The reference ignores key mode and worker count: one evaluation
        // of the sorted plan per join type serves every leg.
        let sorted_plan = chain_plan(&facts, &dims, join_type, KeyMode::Datum, 1, true);
        let expected = reference::eval(&sorted_plan, &EvalContext::default()).to_rows();
        for key_mode in [KeyMode::Encoded, KeyMode::Datum] {
            for with_sort in [true, false] {
                let mut serial: Option<Vec<Row>> = None;
                for par in [1usize, 4, 8] {
                    let ctx = EvalContext::with_statement(StatementContext::with_limits(
                        None,
                        Some(1 << 30),
                    ));
                    let plan = chain_plan(&facts, &dims, join_type, key_mode, par, with_sort);
                    let (out, stats) = execute(&plan, &ctx).unwrap();
                    let what = format!("{join_type:?} {key_mode:?} sort={with_sort} par {par}");
                    let rows = out.to_rows();
                    if with_sort {
                        assert_eq!(rows, expected, "{what}");
                    } else {
                        // Unsorted root: the in-order morsel fold alone makes
                        // the output byte-identical at any parallelism.
                        assert_eq!(sorted_rows(rows.clone()), sorted_rows(expected.clone()), "{what}");
                        assert_eq!(&rows, serial.get_or_insert(rows.clone()), "{what}");
                    }
                    assert_eq!(stats.parallel_workers_used > 1, par > 1, "{what}: {stats:?}");
                    assert!(stats.pipelines_run >= 2, "build + probe pipelines: {what}: {stats:?}");
                    assert!(
                        stats.pipeline_breakers >= 2 + u64::from(with_sort),
                        "build + agg (+ sort) breakers: {what}: {stats:?}"
                    );
                    assert_eq!(ctx.statement.budget_used(), 0, "{what}: leases released");
                }
            }
        }
    }
}

/// The nine statement shapes that used to fall to the operator-at-a-time
/// executor, over tables whose float column holds multiples of 0.5 (sums
/// are exact, so the reference's row-order sums match bit for bit).
#[test]
fn former_fallback_shapes_match_reference_at_every_width() {
    let db = Database::with_hardware(HardwareSpec::laptop());
    let mut s = db.connect();
    s.execute("CREATE TABLE t (id INT, grp INT, label VARCHAR(8), amount DOUBLE)").unwrap();
    let values: Vec<String> = (0..6_000)
        .map(|i| format!("({i}, {}, 'L{}', {}.5)", i % 17, i % 23, i % 40))
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    s.execute("CREATE TABLE d (g INT, name VARCHAR(8))").unwrap();
    s.execute("INSERT INTO d VALUES (0, 'zero'), (1, 'one'), (2, 'two'), (3, 'three'), (40, 'none')")
        .unwrap();
    s.execute("CREATE TABLE emp (id INT, mgr INT)").unwrap();
    let chain: Vec<String> = (1..=50).map(|i| format!("({i}, {})", i - 1)).collect();
    s.execute(&format!("INSERT INTO emp VALUES {}", chain.join(","))).unwrap();

    // (shape, dialect, ordered?, SQL)
    let shapes = [
        ("HAVING", Dialect::Ansi, true,
         "SELECT grp, COUNT(*), SUM(amount) FROM t GROUP BY grp HAVING COUNT(*) > 352 ORDER BY grp"),
        ("COUNT(DISTINCT)", Dialect::Ansi, false,
         "SELECT grp, COUNT(DISTINCT label), SUM(DISTINCT amount) FROM t GROUP BY grp"),
        ("SELECT DISTINCT", Dialect::Ansi, false, "SELECT DISTINCT label, grp FROM t WHERE id < 900"),
        ("UNION ALL", Dialect::Ansi, false,
         "SELECT id, label FROM t WHERE id < 700 UNION ALL SELECT id, label FROM t WHERE id >= 5500"),
        ("derived-table aggregate under a join", Dialect::Ansi, true,
         "SELECT d.name, a.n, a.total FROM d JOIN \
          (SELECT grp, COUNT(*) AS n, SUM(amount) AS total FROM t GROUP BY grp) a ON a.grp = d.g \
          ORDER BY d.name"),
        ("CROSS JOIN", Dialect::Ansi, false,
         "SELECT t.id, d.name FROM t CROSS JOIN d WHERE t.id < 1200"),
        ("ROWNUM", Dialect::Oracle, false, "SELECT id, label FROM t WHERE ROWNUM <= 4500"),
        ("CONNECT BY", Dialect::Oracle, true,
         "SELECT id, LEVEL FROM emp START WITH mgr = 0 CONNECT BY PRIOR id = mgr ORDER BY id"),
        ("VALUES", Dialect::Oracle, false, "SELECT 1 + 2, 'x' FROM DUAL"),
    ];
    for (shape, dialect, ordered, sql) in shapes {
        s.set_dialect(dialect);
        let Statement::Select(select) = parse_statement(sql, dialect).unwrap() else {
            panic!("{shape}: not a SELECT");
        };
        let ctx = EvalContext::default();
        let plan = plan_select(&select, db.catalog().as_ref(), dialect, &ctx).unwrap();
        let expected = reference::eval(&plan, &ctx).to_rows();
        assert!(!expected.is_empty(), "{shape}: vacuous");

        let mut first: Option<Vec<Row>> = None;
        for par in [1usize, 4, 8] {
            db.catalog().set_parallelism(par);
            let out = s.execute(sql).unwrap();
            if ordered {
                assert_eq!(out.rows, expected, "{shape} at parallelism {par}");
            } else {
                assert_eq!(
                    sorted_rows(out.rows.clone()),
                    sorted_rows(expected.clone()),
                    "{shape} at parallelism {par}"
                );
            }
            assert!(out.stats.pipelines_run >= 1, "{shape}: {:?}", out.stats);
            assert_eq!(&out.rows, first.get_or_insert(out.rows.clone()), "{shape}: width {par}");
        }
        let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: Vec<String> = explain.rows.iter().map(|r| r.get(0).render()).collect();
        assert!(text.iter().any(|l| l.starts_with("pipeline 0:")), "{shape}: {text:?}");
        assert!(!text.iter().any(|l| l.contains("materialize")), "{shape}: {text:?}");
    }
}

#[test]
fn sql_pipeline_monitor_counters_and_explain() {
    let db = seeded_db(BIG);
    let mut s = db.connect();
    db.catalog().set_parallelism(4);

    let sql = "SELECT d.name, COUNT(*), SUM(f.qty) FROM facts f JOIN dims d ON f.grp = d.g \
               GROUP BY d.name ORDER BY d.name";
    let piped = s.execute(sql).unwrap();
    assert!(piped.stats.pipelines_run >= 2, "build + probe pipelines: {:?}", piped.stats);

    // Statement counters landed in the monitor's pipeline store.
    let p = db.monitor().pipeline();
    assert!(p.pipelines_run >= 1, "{p:?}");
    assert!(p.pipeline_breakers >= 1, "{p:?}");

    // EXPLAIN shows the decomposition: the build pipeline, the probe
    // pipeline that waits on it, and the sort over the aggregate's result.
    let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
    let text: Vec<String> = explain.rows.iter().map(|r| r.get(0).render()).collect();
    for needle in ["pipeline 0: scan", "probe[Inner](0)", "agg merge", "sort("] {
        assert!(text.iter().any(|l| l.contains(needle)), "missing {needle:?}: {text:?}");
    }
}

// ---------------------------------------------------------------------------
// Generated aggregate equivalence
// ---------------------------------------------------------------------------

use dashdb_local::exec::expr::ArithOp;
use dashdb_local::storage::table::STRIDE;

// Columns of the generated table: five key columns (int, float, decimal,
// date, string) and four measures (int, float, decimal, all-NULL int).
const KI: usize = 0;
const KF: usize = 1;
const KD: usize = 2;
const KT: usize = 3;
const KS: usize = 4;
const MI: usize = 5;
const MF: usize = 6;
const MD: usize = 7;
const MN: usize = 8;
const DEC: DataType = DataType::Decimal(12, 2);

fn gen_schema() -> Schema {
    Schema::new(vec![
        Field::new("ki", DataType::Int64),
        Field::new("kf", DataType::Float64),
        Field::new("kd", DEC),
        Field::new("kt", DataType::Date),
        Field::new("ks", DataType::Utf8),
        Field::new("mi", DataType::Int64),
        Field::new("mf", DataType::Float64),
        Field::new("md", DEC),
        Field::new("mn", DataType::Int64),
    ])
    .unwrap()
}

/// One generated row. Keys come from small pools seeded with the boundary
/// values (NULL, `i64::MIN`/`MAX`, `±0.0`, both NaNs) so groups repeat;
/// `wide` draws the int key from `0..wide` instead, for more groups than a
/// morsel has rows. `novel` switches the string key to values a
/// dictionary built before this row cannot hold. Measures are small and
/// multiples of 0.25: every sum is exact in any order.
fn gen_row(g: &mut Gen, wide: usize, novel: bool) -> Row {
    let ki = if wide > 0 {
        Datum::Int(g.below(wide) as i64)
    } else {
        g.pick(&[Datum::Null, Datum::Int(i64::MIN), Datum::Int(i64::MAX), Datum::Int(0), Datum::Int(-1), Datum::Int(7)])
    };
    let kf = g.pick(&[
        Datum::Null,
        Datum::Float(0.0),
        Datum::Float(-0.0),
        Datum::Float(f64::NAN),
        Datum::Float(-f64::NAN),
        Datum::Float(1.5),
        Datum::Float(f64::NEG_INFINITY),
    ]);
    let kd = g.pick(&[Datum::Null, Datum::Decimal(0, 2), Datum::Decimal(125, 2), Datum::Decimal(-125, 2)]);
    let kt = g.pick(&[Datum::Null, Datum::Date(0), Datum::Date(-1), Datum::Date(17_000)]);
    let ks = if novel {
        Datum::from(format!("new-{}", g.below(5)))
    } else {
        g.pick(&[Datum::Null, Datum::from(""), Datum::from("a"), Datum::from("b"), Datum::from("a longer string key")])
    };
    let quarter = |g: &mut Gen| g.below(4001) as i64 - 2000;
    let mi = if g.below(9) == 0 { Datum::Null } else { Datum::Int(quarter(g)) };
    let mf = if g.below(9) == 0 { Datum::Null } else { Datum::Float(quarter(g) as f64 * 0.25) };
    let md = if g.below(9) == 0 { Datum::Null } else { Datum::Decimal(quarter(g) as i128 * 25, 2) };
    row![ki, kf, kd, kt, ks, mi, mf, md, Datum::Null]
}

fn rem3(col: usize) -> Expr {
    Expr::Arith(ArithOp::Rem, Box::new(Expr::col(col)), Box::new(Expr::lit(3i64)))
}

fn times2(col: usize) -> Expr {
    Expr::Arith(ArithOp::Mul, Box::new(Expr::col(col)), Box::new(Expr::lit(2i64)))
}

/// `mi` where it is present, else `mf`, typed as the analyzer types it: a
/// `DOUBLE`, the `mi` branch cast, whole values among the results.
fn int_else_float() -> Expr {
    let mi = Expr::col(MI);
    Expr::Case {
        operand: None,
        branches: vec![(Expr::IsNull { expr: Box::new(mi.clone()), negated: true }, Expr::Cast(Box::new(mi), DataType::Float64))],
        otherwise: Some(Box::new(Expr::col(MF))),
    }
}

/// Group keys with their static types: bare columns of every kind, and an
/// expression of each storage kind.
fn key_menu() -> Vec<(Expr, DataType)> {
    vec![
        (Expr::col(KI), DataType::Int64),
        (Expr::col(KF), DataType::Float64),
        (Expr::col(KD), DEC),
        (Expr::col(KT), DataType::Date),
        (Expr::col(KS), DataType::Utf8),
        (rem3(MI), DataType::Int64),
        (Expr::Neg(Box::new(Expr::col(KF))), DataType::Float64),
        (Expr::Neg(Box::new(Expr::col(KD))), DEC),
        (Expr::Cast(Box::new(Expr::col(KT)), DataType::Utf8), DataType::Utf8),
    ]
}

/// One aggregate call over expressions with their declared types, as the
/// analyzer lowers it; [`gen_plan`] turns its arguments into columns.
#[derive(Clone, Debug)]
struct Call {
    func: AggFunc,
    args: Vec<(Expr, DataType)>,
    distinct: bool,
}

/// Every aggregate function, over bare columns and expressions of the
/// argument's declared type.
fn agg_menu() -> Vec<Call> {
    let call = |func: AggFunc, args: Vec<Expr>, distinct: bool, dt: DataType| {
        Call { func, args: args.into_iter().map(|a| (a, dt)).collect(), distinct }
    };
    let covar = |func: AggFunc, args: [(Expr, DataType); 2]| Call { func, args: args.to_vec(), distinct: false };
    let (int, float) = (DataType::Int64, DataType::Float64);
    let mut menu = vec![Call { func: AggFunc::CountStar, args: Vec::new(), distinct: false }];
    for distinct in [false, true] {
        menu.extend([
            call(AggFunc::Count, vec![Expr::col(MI)], distinct, int),
            call(AggFunc::Count, vec![Expr::col(KS)], distinct, DataType::Utf8),
            call(AggFunc::Count, vec![rem3(MI)], distinct, int),
            call(AggFunc::Count, vec![int_else_float()], distinct, float),
            call(AggFunc::Avg, vec![int_else_float()], distinct, float),
            call(AggFunc::Sum, vec![Expr::col(MI)], distinct, int),
            call(AggFunc::Sum, vec![times2(MI)], distinct, int),
            call(AggFunc::Sum, vec![Expr::col(MF)], distinct, float),
            call(AggFunc::Sum, vec![Expr::col(MD)], distinct, DEC),
            call(AggFunc::Avg, vec![Expr::col(MF)], distinct, float),
        ]);
    }
    for func in [AggFunc::Min, AggFunc::Max] {
        menu.extend([
            call(func.clone(), vec![Expr::col(MI)], false, int),
            call(func.clone(), vec![Expr::col(MF)], false, float),
            call(func.clone(), vec![Expr::col(MD)], false, DEC),
            call(func.clone(), vec![Expr::col(KS)], false, DataType::Utf8),
            call(func.clone(), vec![Expr::col(KT)], false, DataType::Date),
            call(func.clone(), vec![times2(MI)], false, int),
            call(func.clone(), vec![Expr::Neg(Box::new(Expr::col(MD)))], false, DEC),
        ]);
    }
    menu.extend([
        call(AggFunc::Sum, vec![Expr::Neg(Box::new(Expr::col(MD)))], false, DEC),
        call(AggFunc::Sum, vec![Expr::col(MN)], false, int),
        call(AggFunc::Avg, vec![Expr::col(MI)], false, int),
        call(AggFunc::Avg, vec![Expr::col(MD)], false, DEC),
        call(AggFunc::Avg, vec![times2(MI)], false, int),
        call(AggFunc::Avg, vec![Expr::col(MN)], false, int),
        call(AggFunc::Min, vec![Expr::col(MN)], false, int),
        call(AggFunc::Median, vec![Expr::col(MF)], false, float),
        call(AggFunc::Median, vec![times2(MI)], false, int),
        call(AggFunc::PercentileCont(0.25), vec![Expr::col(MI)], false, int),
        call(AggFunc::PercentileDisc(0.9), vec![Expr::col(MD)], false, DEC),
        call(AggFunc::VarPop, vec![Expr::col(MF)], false, float),
        call(AggFunc::VarSamp, vec![Expr::col(MI)], false, int),
        call(AggFunc::StdDevPop, vec![times2(MI)], false, int),
        call(AggFunc::StdDevSamp, vec![Expr::col(MD)], false, DEC),
        covar(AggFunc::CovarPop, [(Expr::col(MI), int), (Expr::col(MF), float)]),
        covar(AggFunc::CovarSamp, [(Expr::col(MF), float), (times2(MI), int)]),
        covar(AggFunc::CovarPop, [(Expr::col(MF), float), (Expr::col(MN), int)]),
    ]);
    menu
}

/// `HashAggregate` over `source`, its keys and arguments made columns and
/// its output schema typed as the planner does both.
fn gen_plan(source: PhysicalPlan, keys: &[(Expr, DataType)], calls: &[Call], par: usize) -> PhysicalPlan {
    let key_fields = keys.iter().enumerate().map(|(i, (_, dt))| Field::new(format!("g{i}"), *dt));
    let arg_types = |c: &Call| c.args.iter().map(|(_, dt)| *dt).collect::<Vec<_>>();
    let agg_fields = calls
        .iter()
        .enumerate()
        .map(|(i, c)| Field::new(format!("a{i}"), c.func.output_type(&arg_types(c)).unwrap()));
    let cols: Vec<(Expr, DataType)> = keys.iter().chain(calls.iter().flat_map(|c| &c.args)).cloned().collect();
    let (input, ordinals) = aggregate_input(source, &cols);
    let mut ordinals = ordinals.into_iter();
    let group: Vec<usize> = ordinals.by_ref().take(keys.len()).collect();
    let aggs = calls
        .iter()
        .map(|c| AggExpr {
            func: c.func.clone(),
            args: ordinals.by_ref().take(c.args.len()).collect(),
            distinct: c.distinct,
            arg_types: arg_types(c),
        })
        .collect();
    PhysicalPlan::HashAggregate {
        key_mode: KeyMode::for_group(&group),
        input: Box::new(input),
        group,
        aggs,
        schema: Schema::new(key_fields.chain(agg_fields).collect()).unwrap(),
        parallelism: par,
    }
}

/// Engine vs reference for one generated aggregate over `rows` (the
/// source's rows in scan order): byte-identical at widths 1, 4 and 8, the
/// reference's groups and values, and groups in first-appearance order.
fn check_generated(what: &str, source: &PhysicalPlan, rows: &[Row], keys: &[(Expr, DataType)], aggs: &[Call]) {
    let ctx = EvalContext::default();
    let nk = keys.len();
    let key_of = |r: &Row| -> Vec<String> { r.values()[..nk].iter().map(reference::key_text).collect() };
    let expected = reference::eval(&gen_plan(source.clone(), keys, aggs, 1), &ctx).to_rows();

    let mut serial: Option<String> = None;
    for par in [1usize, 4, 8] {
        let (out, _) = execute(&gen_plan(source.clone(), keys, aggs, par), &ctx)
            .unwrap_or_else(|e| panic!("{what} par {par}: {e}"));
        let got = out.to_rows();
        // `Debug` shows what `==` on `Datum` forgives: the kind, the sign
        // of a zero.
        let bytes = format!("{got:?}");
        assert_eq!(&bytes, serial.get_or_insert(bytes.clone()), "{what}: width {par} differs from serial");
        if par > 1 {
            continue;
        }
        // Same groups, same values.
        assert_eq!(got.len(), expected.len(), "{what}: group count");
        let by_key: std::collections::BTreeMap<Vec<String>, &Row> = got.iter().map(|r| (key_of(r), r)).collect();
        assert_eq!(by_key.len(), got.len(), "{what}: a group came out twice");
        for want in &expected {
            let have = by_key.get(&key_of(want)).unwrap_or_else(|| panic!("{what}: no group {:?}", key_of(want)));
            for (c, (h, w)) in have.values().iter().zip(want.values()).enumerate().skip(nk) {
                let same = match (h, w) {
                    (Datum::Float(h), Datum::Float(w)) => (h - w).abs() <= 1e-9 * h.abs().max(w.abs()).max(1.0),
                    _ => format!("{h:?}") == format!("{w:?}"),
                };
                assert!(same, "{what}: group {:?} column {c}: {h:?} vs reference {w:?}", key_of(want));
            }
        }
        // First-appearance order: evaluate the keys down the source rows.
        let input = Batch::from_rows(gen_schema(), rows).unwrap();
        let types: Vec<DataType> = keys.iter().map(|(_, dt)| *dt).collect();
        let mut order: Vec<Vec<String>> = Vec::new();
        for i in 0..input.len() {
            let key: Vec<String> = keys
                .iter()
                .zip(&types)
                .map(|((e, _), dt)| {
                    let v = e.eval(&input, i, &ctx).unwrap();
                    reference::key_text(&dashdb_local::common::row::coerce_datum(v, *dt).unwrap())
                })
                .collect();
            if !order.contains(&key) {
                order.push(key);
            }
        }
        if nk > 0 {
            assert_eq!(got.iter().map(key_of).collect::<Vec<_>>(), order, "{what}: group order");
        }
    }
}

#[test]
fn generated_aggregates_match_reference_at_every_width() {
    let seed = suite_seed();
    let mut g = Gen(seed);
    let (key_menu, agg_menu) = (key_menu(), agg_menu());
    let db = Database::untracked();

    // Sources: row morsels straddling the 4096-row boundary, and a table of
    // three strides whose last rows arrived after the dictionary was built.
    let mut sources: Vec<(String, PhysicalPlan, Vec<Row>)> = Vec::new();
    for (n, wide) in [(0, 0), (1, 0), (4095, 0), (4096, 6000), (4097, 0), (4097, 50_000)] {
        let rows: Vec<Row> = (0..n).map(|_| gen_row(&mut g, wide, false)).collect();
        let values = PhysicalPlan::Values(Batch::from_rows(gen_schema(), &rows).unwrap());
        sources.push((format!("values {n} wide {wide}"), values, rows));
    }
    for wide in [0, 5000] {
        let loaded = 2 * STRIDE + 500;
        let mut rows: Vec<Row> = (0..loaded).map(|_| gen_row(&mut g, wide, false)).collect();
        let table = db.catalog().create_table(&format!("GEN{wide}"), gen_schema(), None).unwrap();
        table.write().load_rows(rows.clone()).unwrap();
        for _ in loaded..3 * STRIDE + 9 {
            let r = gen_row(&mut g, wide, true);
            table.write().insert(r.clone()).unwrap();
            rows.push(r);
        }
        assert!(table.read().str_dict(KS).is_some(), "the string key must be dictionary-coded");
        let scan = PhysicalPlan::ColumnScan { table, config: ScanConfig::full(0, (0..9).collect()) };
        sources.push((format!("three strides wide {wide}"), scan, rows));
    }

    let mut covered = vec![false; agg_menu.len()];
    for (name, source, rows) in &sources {
        for case in 0..8 {
            let nk = [0, 1, 1, 2, 2, 3, 1, 2][case];
            let keys: Vec<(Expr, DataType)> = (0..nk).map(|_| g.pick(&key_menu)).collect();
            // Every aggregate in the menu runs against some source; the
            // rest of each list is drawn at random.
            let mut picks: Vec<usize> = (0..1 + g.below(4)).map(|_| g.below(agg_menu.len())).collect();
            picks.extend(covered.iter().position(|c| !c));
            picks.iter().for_each(|&a| covered[a] = true);
            let aggs: Vec<_> = picks.iter().map(|&a| agg_menu[a].clone()).collect();
            check_generated(&format!("seed {seed} {name} case {case} keys {keys:?} aggs {picks:?}"), source, rows, &keys, &aggs);
        }
    }
    assert!(covered.iter().all(|c| *c), "every aggregate in the menu ran");

    // More key columns than one NULL-mask word has bits.
    let many: Vec<(Expr, DataType)> = (0..70).map(|i| key_menu[i % 5].clone()).collect();
    let (name, source, rows) = &sources[2];
    check_generated(&format!("seed {seed} {name} 70 keys"), source, rows, &many, &agg_menu[..3]);
}

/// `SUM` overflow is the 22000 error at every width, wherever the overflow
/// happens: inside one morsel, or only once partials meet at the merge.
#[test]
fn sum_overflow_is_an_error_at_every_width() {
    let schema = out_schema(&[("k", DataType::Int64), ("v", DataType::Int64)]);
    let out = out_schema(&[("k", DataType::Int64), ("s", DataType::Int64)]);
    let half = i64::MAX / 2 + 1;
    let within: Vec<Row> = vec![row![1i64, half], row![1i64, half]];
    let mut across: Vec<Row> = (0..5000).map(|_| row![1i64, 0i64]).collect();
    across[0] = row![1i64, half];
    across[4999] = row![1i64, half];
    for rows in [within, across] {
        let input = Batch::from_rows(schema.clone(), &rows).unwrap();
        for groups in [vec![], vec![0]] {
            let out = if groups.is_empty() { out_schema(&[("s", DataType::Int64)]) } else { out.clone() };
            for par in [1usize, 4, 8] {
                let mut stats = ExecStats::default();
                let err = hash_aggregate(&input, &groups, &[agg(AggFunc::Sum, 1, DataType::Int64)], out.clone(), &EvalContext::default(), KeyMode::Encoded, par, &mut stats)
                    .unwrap_err();
                assert_eq!(err.class(), "22000", "{} rows, {} keys, par {par}: {err}", rows.len(), groups.len());
            }
        }
    }
}

/// A NaN makes `partial_cmp` a partial order; percentiles sort by
/// `total_cmp`, so one answer holds whatever order the values arrive in
/// and at every width: positive NaNs sort above `+inf`.
#[test]
fn percentiles_over_nan_are_pinned() {
    let schema = out_schema(&[("x", DataType::Float64)]);
    let n = 9001;
    // 0..n-1 with every 90th value a NaN, in two arrival orders.
    let value = |i: usize| if i % 90 == 45 { f64::NAN } else { i as f64 };
    let ascending: Vec<Row> = (0..n).map(|i| row![value(i)]).collect();
    let scrambled: Vec<Row> = (0..n).map(|i| row![value(i * 4001 % n)]).collect();
    let mut sorted: Vec<f64> = (0..n).map(value).filter(|x| !x.is_nan()).collect();
    let nans = n - sorted.len();
    sorted.extend(std::iter::repeat_n(f64::NAN, nans));
    assert_eq!(nans, 100);

    let aggs = [
        agg(AggFunc::Median, 0, DataType::Float64),
        agg(AggFunc::PercentileDisc(0.9), 0, DataType::Float64),
        agg(AggFunc::PercentileCont(0.25), 0, DataType::Float64),
        agg(AggFunc::PercentileDisc(1.0), 0, DataType::Float64),
    ];
    let out = out_schema(&[
        ("med", DataType::Float64),
        ("p90", DataType::Float64),
        ("p25", DataType::Float64),
        ("top", DataType::Float64),
    ]);
    let want = [sorted[(n - 1) / 2], sorted[(0.9 * n as f64).ceil() as usize - 1], sorted[(n - 1) / 4], f64::NAN];
    assert_eq!(want[..3], [4551.0, 8191.0, 2275.0]);
    for rows in [&ascending, &scrambled] {
        let input = Batch::from_rows(schema.clone(), rows).unwrap();
        for par in [1usize, 4, 8] {
            let mut stats = ExecStats::default();
            let got = hash_aggregate(&input, &[], &aggs, out.clone(), &EvalContext::default(), KeyMode::Datum, par, &mut stats)
                .unwrap()
                .row(0);
            let got: Vec<u64> = got.values().iter().map(|d| d.as_float().unwrap().to_bits()).collect();
            assert_eq!(got, want.map(f64::to_bits), "par {par}");
        }
    }
}

// ---------------------------------------------------------------------------
// Generated join equivalence
// ---------------------------------------------------------------------------

// Five more key columns beside `gen_row`'s: a second decimal scale, a
// timestamp, a bool, and an int/float pair around 2^53.
const K4: usize = 9;
const KTS: usize = 10;
const KB: usize = 11;
const KW: usize = 12;
const KG: usize = 13;

fn join_schema() -> Schema {
    let mut fields = gen_schema().fields().to_vec();
    fields.extend([
        Field::new("k4", DataType::Decimal(14, 4)),
        Field::new("kts", DataType::Timestamp),
        Field::new("kb", DataType::Bool),
        Field::new("kw", DataType::Int64),
        Field::new("kg", DataType::Float64),
    ]);
    Schema::new(fields).unwrap()
}

/// A `gen_row` plus the five columns above, their pools chosen to meet the
/// first five across domains: 1.25, -1.25 and 0 in both decimal scales, 7,
/// -1 and 1.5 as a scale-4 decimal, midnight of each date and one
/// microsecond past it, and 2^53 ± 1 beside the float 2^53.
fn join_row(g: &mut Gen, wide: usize, novel: bool) -> Row {
    let day = 86_400_000_000i64;
    let big = 1i64 << 53;
    let mut r = gen_row(g, wide, novel);
    let k4 = [0, 12_500, -12_500, 12_501, 70_000, -10_000, 15_000].map(|v| Datum::Decimal(v, 4));
    let kts = [0, -day, 17_000 * day, 17_000 * day + 1].map(Datum::Timestamp);
    let kw = [0, 7, big - 1, big, big + 1].map(Datum::Int);
    let kg = [-0.0, 7.0, -1.0, 1.25, big as f64, f64::NAN].map(Datum::Float);
    let mut or_null = |pool: &[Datum]| if g.below(pool.len() + 1) == 0 { Datum::Null } else { g.pick(pool) };
    r.0.extend([or_null(&k4), or_null(&kts), or_null(&[Datum::Bool(true), Datum::Bool(false)]), or_null(&kw), or_null(&kg)]);
    r
}

/// (probe column, build column) pairs: every column against itself, every
/// comparable pairing of two domains in both directions, and pairings that
/// are not comparable.
fn pair_menu() -> Vec<(usize, usize)> {
    let numeric = [KI, KF, KD, K4, KW, KG];
    let mut menu: Vec<(usize, usize)> = [KI, KF, KD, KT, KS, K4, KTS, KB, KW, KG].iter().map(|&c| (c, c)).collect();
    menu.extend(numeric.iter().flat_map(|&a| numeric.iter().filter(move |&&b| b != a).map(move |&b| (a, b))));
    menu.extend([(KT, KTS), (KTS, KT)]);
    menu.extend([(KS, KI), (KB, KW), (KT, KI), (KF, KS)]);
    menu
}

/// The same kind and, for floats, the same bits: what `==` on `Datum`
/// forgives (a NaN equals every number) a join result may not.
fn identical(a: &[Row], b: &[Row]) -> bool {
    let same = |(x, y): (&Datum, &Datum)| match (x, y) {
        (Datum::Float(x), Datum::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(x) == std::mem::discriminant(y) && x == y,
    };
    let same_row = |(r, s): (&Row, &Row)| r.values().len() == s.values().len() && r.values().iter().zip(s.values()).all(same);
    a.len() == b.len() && a.iter().zip(b).all(same_row)
}

/// Engine vs reference for one generated join: the reference's rows in the
/// reference's order (probe-row-major, build rows ascending) at widths 1, 4
/// and 8 — so byte-identical across widths — with every lease returned.
/// Returns the row count.
fn check_join(what: &str, probe: &PhysicalPlan, build: &PhysicalPlan, on: &[(usize, usize)], join_type: JoinType) -> usize {
    let plan = |par: usize| PhysicalPlan::HashJoin {
        left: Box::new(probe.clone()),
        right: Box::new(build.clone()),
        on: on.to_vec(),
        join_type,
        key_mode: KeyMode::for_join(&join_schema(), &join_schema(), on),
        parallelism: par,
    };
    let expected = reference::eval(&plan(1), &EvalContext::default()).to_rows();
    for par in [1usize, 4, 8] {
        let ctx = EvalContext::with_statement(StatementContext::with_limits(None, Some(1 << 30)));
        let (out, stats) = execute(&plan(par), &ctx).unwrap_or_else(|e| panic!("{what} par {par}: {e}"));
        let got = out.to_rows();
        let differ = (0..got.len().max(expected.len())).find(|&i| match (got.get(i), expected.get(i)) {
            (Some(g), Some(w)) => !identical(std::slice::from_ref(g), std::slice::from_ref(w)),
            _ => true,
        });
        if let Some(i) = differ {
            panic!("{what} par {par}: row {i} is {:?}, the reference has {:?}", got.get(i), expected.get(i));
        }
        assert!(stats.pipeline_breakers >= 1, "{what}: the build is a breaker: {stats:?}");
        assert_eq!(ctx.statement.budget_used(), 0, "{what} par {par}: leases released");
    }
    expected.len()
}

#[test]
fn generated_joins_match_reference_at_every_width() {
    use dashdb_local::exec::join::PARTITION_ROWS;
    let seed = suite_seed();
    let mut g = Gen(seed ^ 0x6A6F_696E);
    let menu = pair_menu();
    let db = Database::untracked();
    let all = [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti];

    let values = |rows: Vec<Row>| PhysicalPlan::Values(Batch::from_rows(join_schema(), &rows).unwrap());
    // A table of `loaded` bulk-loaded rows (its string key dictionary-coded)
    // and `inserted` more whose strings arrived after the dictionary.
    let table = |g: &mut Gen, name: &str, loaded: usize, inserted: usize, wide: usize| {
        let t = db.catalog().create_table(name, join_schema(), None).unwrap();
        t.write().load_rows((0..loaded).map(|_| join_row(g, wide, false)).collect()).unwrap();
        for _ in 0..inserted {
            t.write().insert(join_row(g, wide, true)).unwrap();
        }
        assert!(t.read().str_dict(KS).is_some(), "{name}: the string key must be dictionary-coded");
        PhysicalPlan::ColumnScan { table: t, config: ScanConfig::full(0, (0..14).collect()) }
    };
    let small_probe = values((0..300).map(|_| join_row(&mut g, 0, false)).collect());
    let small_build = values((0..40).map(|i| join_row(&mut g, 0, i % 4 == 3)).collect());
    let probe_table = table(&mut g, "JPROBE", STRIDE, 200, 0);
    let build_table = table(&mut g, "JBUILD", 200, 40, 0);
    let wide_probe = values((0..150).map(|_| join_row(&mut g, 3000, false)).collect());
    let big_build = table(&mut g, "JBIG", PARTITION_ROWS + 200, 60, 3000);
    let empty = values(Vec::new());

    // Every pairing alone, every join type: a probe fed from a breaker. A
    // comparable pairing joins something, one that is not joins nothing.
    let types = join_schema();
    for &pair in &menu {
        for jt in all {
            let n = check_join(&format!("seed {seed} small {pair:?} {jt:?}"), &small_probe, &small_build, &[pair], jt);
            if jt == JoinType::Inner {
                let comparable = types.field(pair.0).data_type.comparable_with(types.field(pair.1).data_type);
                assert_eq!(n > 0, comparable, "seed {seed} small {pair:?}: {n} rows");
            }
        }
    }
    // Lists of two and three pairs — same-domain, lifted and incomparable
    // pairs mixed — over every feed: scan and breaker, with a dictionary,
    // without one, and with two different ones.
    let feeds = [
        ("scan x table", &probe_table, &build_table),
        ("values x table", &small_probe, &build_table),
        ("scan x values", &probe_table, &small_build),
    ];
    for (name, probe, build) in feeds {
        for case in 0..8 {
            let on: Vec<(usize, usize)> = (0..2 + case % 2).map(|_| g.pick(&menu)).collect();
            for jt in all {
                check_join(&format!("seed {seed} {name} {on:?} {jt:?}"), probe, build, &on, jt);
            }
        }
        // The string key alone: dictionary codes, re-encoded codes and
        // interned strings in one join (Semi/Anti bound the output).
        for jt in [JoinType::Semi, JoinType::Anti] {
            check_join(&format!("seed {seed} {name} string key {jt:?}"), probe, build, &[(KS, KS)], jt);
        }
    }
    // A build side of more than one partition: single- and multi-key.
    for on in [vec![(KI, KI)], vec![(KI, KI), (KS, KS)], vec![(KW, KI)], vec![(KI, KF), (KD, K4)], vec![(KG, KI)]] {
        for jt in all {
            check_join(&format!("seed {seed} partitioned build {on:?} {jt:?}"), &wide_probe, &big_build, &on, jt);
        }
    }
    for jt in [JoinType::Semi, JoinType::Anti] {
        check_join(&format!("seed {seed} partitioned build string key {jt:?}"), &wide_probe, &big_build, &[(KS, KS)], jt);
    }
    // Empty sides.
    for on in [vec![(KI, KI)], vec![(KI, KF), (KS, KS)], vec![(KS, KI)]] {
        for jt in all {
            check_join(&format!("seed {seed} empty build {on:?} {jt:?}"), &small_probe, &empty, &on, jt);
            check_join(&format!("seed {seed} empty probe {on:?} {jt:?}"), &empty, &build_table, &on, jt);
        }
    }
}
