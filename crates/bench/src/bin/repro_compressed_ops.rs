//! Operate-on-compressed joins and aggregates (ISSUE 8).
//!
//! The BLU claim (§II.B): when join and group-by keys stay dictionary- or
//! order-encoded, the operators hash, compare, and partition fixed-width
//! code words with no `Datum` materialization in the loop, and only the
//! surviving rows pay decode cost. The join leg times the engine's join
//! (keyed on code words — its only key path) against a baseline local to
//! this binary that decodes a `Datum` per row into a plain hash map, over
//! identical 1.5M-row inputs at parallelism 1 so the difference is pure
//! per-row CPU, then re-runs the engine at parallelism 4 to show results
//! are byte-identical to the serial run. A SQL leg confirms dictionaries
//! reach the join through the planner and that probe rows are re-encoded
//! into the build side's code domain. Results land in
//! `BENCH_compressed.json`.

use dash_bench::{report, section};
use dash_common::fxhash::FxHashMap;
use dash_common::types::DataType;
use dash_common::{row, Datum, Field, Row, Schema, StatementContext};
use dash_core::{Database, HardwareSpec};
use dash_encoding::column::ColumnValues;
use dash_encoding::dict::FreqDict;
use dash_encoding::histogram::Histogram;
use dash_encoding::strs::StrPool;
use dash_exec::agg::{hash_aggregate, AggExpr, AggFunc};
use dash_exec::functions::EvalContext;
use dash_exec::join::{hash_join, JoinType};
use dash_exec::key::KeyMode;
use dash_exec::stats::ExecStats;
use dash_exec::Batch;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Fact rows for the operator-level legs.
const FACT_ROWS: usize = 1_500_000;
/// Distinct dictionary-backed join keys (and dim rows).
const DIM_ROWS: usize = 1_000;
/// Fact rows for the end-to-end SQL leg (LOAD + scan + join + group).
const SQL_ROWS: usize = 200_000;
/// The headline bar: encoded keys must cut join CPU by this factor. The
/// two joins differ only inside the probe loop; both gather the same
/// 1.5 M-row output, which is over half of either run and bounds the
/// whole-join ratio.
const MIN_SPEEDUP: f64 = 1.25;

struct Leg {
    name: &'static str,
    datum_s: f64,
    encoded_s: f64,
    speedup: f64,
    encoded_key_rows: u64,
    keys_reencoded_rows: u64,
    identical: bool,
}

/// `batch` with string column 0 as codes of the pool of a `FreqDict` over
/// `values`.
fn with_dict<'a>(batch: Batch, values: impl Iterator<Item = &'a str>) -> Batch {
    let mut hist: Histogram<Arc<str>> = Histogram::new();
    for v in values {
        hist.add(&Arc::from(v));
    }
    let pool = StrPool::for_dict(Arc::new(FreqDict::build(&hist)));
    let schema = batch.schema().clone();
    let mut columns = batch.into_columns();
    if let ColumnValues::Str(labels) = &columns[0] {
        columns[0] = ColumnValues::Str(labels.repool(pool.dict().clone()));
    }
    Batch::new(schema, columns).unwrap()
}

/// The fact side: a dictionary-keyed label, a small int group, an int
/// measure. Labels are skewed (low ids dominate) so the frequency
/// partitioning in the dictionary is non-trivial.
fn fact_batch(n: usize) -> Batch {
    let schema = Schema::new(vec![
        Field::not_null("label", DataType::Utf8),
        Field::new("grp", DataType::Int64),
        Field::new("qty", DataType::Int64),
    ])
    .unwrap();
    let mut rows = Vec::with_capacity(n);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        // Square the uniform draw: low label ids are ~30x more frequent.
        let u = ((x >> 11) as f64 / (1u64 << 53) as f64).powi(2);
        let label = format!("sku-{:04}", (u * DIM_ROWS as f64) as usize % DIM_ROWS);
        let grp = ((x >> 7) % 64) as i64;
        let qty = (x % 1000) as i64;
        rows.push(row![label, grp, qty]);
    }
    let batch = Batch::from_rows(schema, &rows).unwrap();
    let labels: Vec<String> = (0..DIM_ROWS).map(|k| format!("sku-{k:04}")).collect();
    with_dict(batch, labels.iter().map(|s| s.as_str()))
}

/// The dim side carries its OWN dictionary (different instance, different
/// frequency order), so the encoded join must re-encode the fact side's
/// keys into the dim (build) side's code domain.
fn dim_batch() -> Batch {
    let schema = Schema::new(vec![
        Field::not_null("lab", DataType::Utf8),
        Field::new("boost", DataType::Int64),
    ])
    .unwrap();
    let rows: Vec<Row> = (0..DIM_ROWS)
        .map(|k| row![format!("sku-{k:04}"), k as i64])
        .collect();
    let batch = Batch::from_rows(schema, &rows).unwrap();
    // A dim-only histogram: uniform frequencies, so partition layout (and
    // therefore the code words) differ from the fact dictionary.
    let labels: Vec<String> = (0..DIM_ROWS).map(|k| format!("sku-{k:04}")).collect();
    with_dict(batch, labels.iter().map(|s| s.as_str()))
}

/// Warm once, then report the median of three timed runs.
fn median3(mut f: impl FnMut() -> f64) -> f64 {
    f(); // warm caches, fault in lazily-built state
    let mut t = [f(), f(), f()];
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The decode-per-row baseline: an inner join on column 0 of both sides
/// that materializes a `Datum` per key into a plain hash map, then gathers
/// the joined columns the way the engine does — column at a time from the
/// surviving (probe row, build row) pairs.
fn datum_join(left: &Batch, right: &Batch) -> Batch {
    let mut table: FxHashMap<Datum, Vec<u32>> = FxHashMap::default();
    for ri in 0..right.len() {
        let key = right.value(ri, 0);
        if !key.is_null() {
            table.entry(key).or_default().push(ri as u32);
        }
    }
    let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
    for li in 0..left.len() {
        for &ri in table.get(&left.value(li, 0)).map_or(&[][..], |m| m) {
            probe_rows.push(li);
            build_rows.push(ri as usize);
        }
    }
    let (l, r) = (left.take(&probe_rows), right.take(&build_rows));
    let columns = l.columns().iter().chain(r.columns()).cloned().collect();
    Batch::new(left.schema().join(right.schema()), columns).unwrap()
}

fn join_leg(fact: &Batch, dim: &Batch) -> Leg {
    let stmt = StatementContext::unbounded();
    let run = |par: usize, stats: &mut ExecStats| {
        hash_join(fact, dim, &[(0, 0)], JoinType::Inner, KeyMode::Encoded, par, &stmt, stats).unwrap()
    };
    let mut enc_stats = ExecStats::default();
    let encoded = run(1, &mut enc_stats);
    let parallel = run(4, &mut ExecStats::default());
    // Both joins emit probe-row-major pairs with a key's build rows
    // ascending, at every worker count; compare outputs verbatim.
    let identical = encoded == datum_join(fact, dim) && encoded == parallel;
    let datum_s = median3(|| {
        let t = Instant::now();
        datum_join(fact, dim);
        t.elapsed().as_secs_f64()
    });
    let encoded_s = median3(|| {
        let t = Instant::now();
        run(1, &mut ExecStats::default());
        t.elapsed().as_secs_f64()
    });
    Leg {
        name: "join_group",
        datum_s,
        encoded_s,
        speedup: datum_s / encoded_s,
        encoded_key_rows: enc_stats.encoded_key_rows,
        keys_reencoded_rows: enc_stats.keys_reencoded_rows,
        identical,
    }
}

/// The aggregate has one kernel, which groups on key words under either
/// plan label: the two timings differ by noise only, and the leg's time is
/// what to read, not its ratio.
fn agg_leg(fact: &Batch) -> Leg {
    let ctx = EvalContext::default();
    let out = Schema::new(vec![
        Field::not_null("label", DataType::Utf8),
        Field::new("grp", DataType::Int64),
        Field::new("cnt", DataType::Int64),
        Field::new("total", DataType::Int64),
    ])
    .unwrap();
    let groups = [0, 1];
    let aggs = [
        AggExpr {
            func: AggFunc::CountStar,
            args: vec![],
            distinct: false,
            arg_types: vec![],
        },
        AggExpr {
            func: AggFunc::Sum,
            args: vec![2],
            distinct: false,
            arg_types: vec![DataType::Int64],
        },
    ];
    let run = |mode: KeyMode, par: usize, stats: &mut ExecStats| {
        hash_aggregate(fact, &groups, &aggs, out.clone(), &ctx, mode, par, stats).unwrap()
    };
    let mut enc_stats = ExecStats::default();
    let encoded = run(KeyMode::Encoded, 1, &mut enc_stats);
    let datum = run(KeyMode::Datum, 1, &mut ExecStats::default());
    let parallel = run(KeyMode::Encoded, 4, &mut ExecStats::default());
    // Group emit order is path-specific; compare the sorted group sets.
    let sorted = |b: &Batch| {
        let mut rows = b.to_rows();
        rows.sort_by_key(|r| {
            r.values().iter().map(Datum::render).collect::<Vec<_>>()
        });
        rows
    };
    let identical = sorted(&encoded) == sorted(&datum) && encoded == parallel;
    let datum_s = median3(|| {
        let t = Instant::now();
        run(KeyMode::Datum, 1, &mut ExecStats::default());
        t.elapsed().as_secs_f64()
    });
    let encoded_s = median3(|| {
        let t = Instant::now();
        run(KeyMode::Encoded, 1, &mut ExecStats::default());
        t.elapsed().as_secs_f64()
    });
    Leg {
        name: "grouped_aggregate",
        datum_s,
        encoded_s,
        speedup: datum_s / encoded_s,
        encoded_key_rows: enc_stats.encoded_key_rows,
        keys_reencoded_rows: enc_stats.keys_reencoded_rows,
        identical,
    }
}

struct SqlLeg {
    encoded_key_rows: u64,
    keys_reencoded_rows: u64,
    identical: bool,
}

/// End to end through LOAD, the planner, and the scan: storage-analyzed
/// dictionaries must reach the join.
fn sql_leg() -> SqlLeg {
    let db = Database::with_hardware(HardwareSpec::laptop());
    for (name, batch) in [("facts", fact_batch(SQL_ROWS)), ("dims", dim_batch())] {
        let handle = db.catalog().create_table(name, batch.schema().clone(), None).unwrap();
        let types = batch.schema().types();
        handle.write().load(batch.into_columns(), &types).unwrap();
    }

    let mut s = db.connect();
    let sql = "SELECT d.lab, f.grp, COUNT(*), SUM(f.qty) \
               FROM facts f JOIN dims d ON f.label = d.lab \
               GROUP BY d.lab, f.grp ORDER BY d.lab, f.grp";
    db.catalog().set_parallelism(1);
    let serial = s.execute(sql).unwrap();
    db.catalog().set_parallelism(4);
    let parallel = s.execute(sql).unwrap();
    SqlLeg {
        encoded_key_rows: serial.stats.encoded_key_rows,
        keys_reencoded_rows: serial.stats.keys_reencoded_rows,
        identical: serial.rows == parallel.rows,
    }
}

fn main() {
    println!("Operate-on-compressed join/aggregate reproduction — dashdb-local-rs");
    println!(
        "{FACT_ROWS} fact rows x {DIM_ROWS} dictionary keys, parallelism 1 (CPU cost per row)"
    );

    let fact = fact_batch(FACT_ROWS);
    let dim = dim_batch();

    let mut legs = Vec::new();
    for leg in [join_leg(&fact, &dim), agg_leg(&fact)] {
        section(leg.name);
        report(
            "datum keys (decode per row)",
            format!("{:.3}s", leg.datum_s),
        );
        report("encoded keys (code words)", format!("{:.3}s", leg.encoded_s));
        report("speedup", format!("{:.2}x", leg.speedup));
        report(
            "stats",
            format!(
                "{} rows on encoded keys, {} rows re-encoded",
                leg.encoded_key_rows, leg.keys_reencoded_rows
            ),
        );
        legs.push(leg);
    }

    section("end-to-end SQL (LOAD -> planner -> scan -> join -> group)");
    let sql = sql_leg();
    report(
        "stats",
        format!(
            "{} rows on encoded keys, {} rows re-encoded",
            sql.encoded_key_rows, sql.keys_reencoded_rows
        ),
    );

    section("shape checks");
    let join = &legs[0];
    let checks: Vec<(String, bool)> = vec![
        (
            format!(
                "dictionary-keyed join cuts CPU >= {MIN_SPEEDUP}x ({:.2}x)",
                join.speedup
            ),
            join.speedup >= MIN_SPEEDUP,
        ),
        (
            "encoded join hashed every input row as a code word".into(),
            join.encoded_key_rows == (FACT_ROWS + DIM_ROWS) as u64,
        ),
        (
            "probe rows re-encoded into the build side's code domain".into(),
            join.keys_reencoded_rows == FACT_ROWS as u64,
        ),
        (
            "grouped aggregate interned encoded key words".into(),
            legs[1].encoded_key_rows == FACT_ROWS as u64,
        ),
        (
            "dictionaries reached the SQL join through the planner".into(),
            sql.encoded_key_rows > 0 && sql.keys_reencoded_rows > 0,
        ),
        (
            "results identical to serial on every leg".into(),
            legs.iter().all(|l| l.identical) && sql.identical,
        ),
    ];
    let mut all_pass = true;
    for (name, ok) in &checks {
        report(name, if *ok { "PASS" } else { "FAIL" });
        all_pass &= ok;
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"compressed_ops\",\n");
    let _ = write!(
        json,
        "  \"fact_rows\": {FACT_ROWS},\n  \"dict_keys\": {DIM_ROWS},\n  \"min_speedup\": {MIN_SPEEDUP},\n"
    );
    json.push_str(
        "  \"note\": \"Same input, parallelism 1: 'datum' materializes per-row keys \
         (the join leg's is a baseline local to the repro binary), 'encoded' hashes \
         fixed-width dictionary/order codes and late-materializes survivors. Timings \
         are median-of-3 after a warm run.\",\n",
    );
    json.push_str("  \"legs\": [\n");
    for l in &legs {
        // The SQL leg follows, so every operator leg takes a trailing comma.
        let _ = writeln!(
            json,
            "    {{\"leg\": \"{}\", \"datum_s\": {:.6}, \"encoded_s\": {:.6}, \
             \"speedup\": {:.3}, \"encoded_key_rows\": {}, \"keys_reencoded_rows\": {}, \
             \"results_identical_to_serial\": {}}},",
            l.name,
            l.datum_s,
            l.encoded_s,
            l.speedup,
            l.encoded_key_rows,
            l.keys_reencoded_rows,
            l.identical,
        );
    }
    let _ = writeln!(
        json,
        "    {{\"leg\": \"sql_join_group\", \"encoded_key_rows\": {}, \
         \"keys_reencoded_rows\": {}, \"results_identical_to_serial\": {}}}",
        sql.encoded_key_rows, sql.keys_reencoded_rows, sql.identical,
    );
    json.push_str("  ],\n");
    let _ = write!(json, "  \"all_checks_pass\": {all_pass}\n}}\n");
    std::fs::write("BENCH_compressed.json", &json).expect("write BENCH_compressed.json");
    println!("\nwrote BENCH_compressed.json");
    assert!(all_pass, "shape checks failed — see report above");
}
