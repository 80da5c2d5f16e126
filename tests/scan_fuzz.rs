//! Property-based differential testing of the whole scan path: random
//! data, random predicates — the compressed/SIMD/synopsis scan must match
//! a brute-force evaluation over the raw rows, serial and parallel.

use dashdb_local::common::types::DataType;
use dashdb_local::common::txn::TS_NEVER;
use dashdb_local::common::{date, row, Datum, Field, Row, Schema};
use dashdb_local::core::{Database, HardwareSpec};
use dashdb_local::encoding::block::BlockRepr;
use dashdb_local::encoding::column::ColumnEncoding;
use dashdb_local::exec::functions::EvalContext;
use dashdb_local::exec::scan::{scan, ColumnPredicate, ScanConfig};
use dashdb_local::storage::table::ColumnTable;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("cat", DataType::Int32),
        Field::new("s", DataType::Utf8),
        Field::new("f", DataType::Float64),
        Field::new("d", DataType::Date),
    ])
    .unwrap()
}

#[derive(Debug, Clone)]
struct FuzzRow {
    id: i64,
    cat: Option<i32>,
    s: Option<u8>,
    f: Option<i32>,
    d: Option<i32>,
}

fn arb_rows() -> impl Strategy<Value = Vec<FuzzRow>> {
    prop::collection::vec(
        (
            any::<i64>(),
            prop::option::of(-20i32..20),
            prop::option::of(0u8..6),
            prop::option::of(-50i32..50),
            prop::option::of(0i32..3000),
        )
            .prop_map(|(id, cat, s, f, d)| FuzzRow { id, cat, s, f, d }),
        1..600,
    )
}

fn to_row(fr: &FuzzRow) -> Row {
    row![
        fr.id,
        fr.cat.map(|v| v as i64),
        fr.s.map(|v| format!("str-{v}")),
        fr.f.map(|v| v as f64 / 4.0),
        fr.d.map(Datum::Date)
    ]
}

fn brute_force(rows: &[FuzzRow], preds: &[ColumnPredicate]) -> Vec<i64> {
    let mut out = Vec::new();
    'row: for fr in rows {
        let materialized = to_row(fr);
        for p in preds {
            let matches = match p {
                ColumnPredicate::IsNull { col, negated } => {
                    materialized.get(*col).is_null() != *negated
                }
                ColumnPredicate::Range { col, lo, hi } => {
                    let v = materialized.get(*col);
                    if v.is_null() {
                        false
                    } else {
                        let lo_ok = lo
                            .as_ref()
                            .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Less);
                        let hi_ok = hi
                            .as_ref()
                            .is_none_or(|b| v.sql_cmp(b) != std::cmp::Ordering::Greater);
                        lo_ok && hi_ok
                    }
                }
            };
            if !matches {
                continue 'row;
            }
        }
        out.push(fr.id);
    }
    out.sort_unstable();
    out
}

fn arb_predicate() -> impl Strategy<Value = ColumnPredicate> {
    prop_oneof![
        // Range on cat (int).
        (-25i64..25, 0i64..20).prop_map(|(lo, span)| ColumnPredicate::Range {
            col: 1,
            lo: Some(Datum::Int(lo)),
            hi: Some(Datum::Int(lo + span)),
        }),
        // Equality on the string column.
        (0u8..7).prop_map(|v| ColumnPredicate::eq(2, format!("str-{v}"))),
        // Open-ended range on the float column.
        (-15i32..15).prop_map(|lo| ColumnPredicate::Range {
            col: 3,
            lo: Some(Datum::Float(lo as f64 / 4.0)),
            hi: None,
        }),
        // Date window.
        (0i32..2900, 0i32..400).prop_map(|(lo, span)| ColumnPredicate::Range {
            col: 4,
            lo: Some(Datum::Date(lo)),
            hi: Some(Datum::Date(lo + span)),
        }),
        // NULL tests.
        (1usize..5, any::<bool>()).prop_map(|(col, negated)| ColumnPredicate::IsNull {
            col,
            negated,
        }),
        // Exclusive-style bound that exercises lt/gt pushdown conversion.
        (-25i64..25).prop_map(|hi| ColumnPredicate::Range {
            col: 1,
            lo: None,
            hi: Some(Datum::Int(hi)),
        }),
    ]
}

/// One WHERE conjunct written with negative literals, and the bounds the
/// scan must receive once the planner has folded the minus signs; the
/// planner intersects a column's bounds into one pushed range and leaves
/// nothing as a residual.
fn arb_signed_conjunct() -> impl Strategy<Value = (String, Vec<ColumnPredicate>)> {
    let bound =
        |col: usize, lo: Option<Datum>, hi: Option<Datum>| ColumnPredicate::Range { col, lo, hi };
    prop_oneof![
        // Int: both bounds negative, then a range across zero.
        (0i64..25, 0i64..25).prop_map(move |(a, b)| {
            let (lo, hi) = (-a.max(b), -a.min(b));
            (
                format!("cat BETWEEN {lo} AND {hi}"),
                vec![bound(1, Some(Datum::Int(lo)), None), bound(1, None, Some(Datum::Int(hi)))],
            )
        }),
        (1i64..25, 0i64..25).prop_map(move |(a, b)| (
            format!("cat >= -{a} AND cat <= {b}"),
            vec![bound(1, Some(Datum::Int(-a)), None), bound(1, None, Some(Datum::Int(b)))],
        )),
        // The most negative literal SQL can spell, from both sides.
        any::<bool>().prop_map(move |below| {
            let edge = i64::MIN + 1;
            if below {
                (format!("id < {edge}"), vec![bound(0, None, Some(Datum::Int(i64::MIN)))])
            } else {
                (format!("id >= {edge}"), vec![bound(0, Some(Datum::Int(edge)), None)])
            }
        }),
        // Float: negative pair, then across zero.
        (1i32..60, 1i32..60).prop_map(move |(a, b)| {
            let (lo, hi) = (-(a.max(b) as f64) / 4.0, -(a.min(b) as f64) / 4.0);
            (
                format!("f BETWEEN {lo:.2} AND {hi:.2}"),
                vec![bound(3, Some(Datum::Float(lo)), None), bound(3, None, Some(Datum::Float(hi)))],
            )
        }),
        (1i32..60, 0i32..60).prop_map(move |(a, b)| (
            format!("f >= -{:.2} AND f <= {:.2}", a as f64 / 4.0, b as f64 / 4.0),
            vec![
                bound(3, Some(Datum::Float(-(a as f64) / 4.0)), None),
                bound(3, None, Some(Datum::Float(b as f64 / 4.0))),
            ],
        )),
        // Dates either side of the epoch: day numbers below, at and above 0.
        (-400i32..400, 0i32..300).prop_map(move |(lo, span)| (
            format!(
                "d BETWEEN DATE '{}' AND DATE '{}'",
                date::format_date(lo),
                date::format_date(lo + span)
            ),
            vec![
                bound(4, Some(Datum::Date(lo)), None),
                bound(4, None, Some(Datum::Date(lo + span))),
            ],
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Negative, zero-crossing and `i64::MIN + 1` bounds through SQL: the
    /// planner folds the unary minus, every bound pushes down as one range
    /// per column (`preds=` counts the columns, no residual), and the rows
    /// match brute force over a table with a sealed stride and an open one.
    #[test]
    fn signed_literal_bounds_push_down_and_match_brute_force(
        mut rows in prop::collection::vec(
            (
                any::<i64>(),
                prop::option::of(-20i32..20),
                prop::option::of(0u8..6),
                prop::option::of(-50i32..50),
                prop::option::of(-400i32..400),
            )
                .prop_map(|(id, cat, s, f, d)| FuzzRow { id, cat, s, f, d }),
            1100..1400,
        ),
        conjuncts in prop::collection::vec(arb_signed_conjunct(), 1..3),
        use_load in any::<bool>(),
    ) {
        for id in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            rows.push(FuzzRow { id, cat: Some(0), s: None, f: Some(0), d: Some(0) });
        }
        let db = Database::with_hardware(HardwareSpec::laptop());
        let table = db.catalog().create_table("t", schema(), None).unwrap();
        if use_load {
            table.write().load_rows(rows.iter().map(to_row).collect()).unwrap();
        } else {
            for fr in &rows {
                table.write().insert(to_row(fr)).unwrap();
            }
        }
        prop_assert!(table.read().sealed_strides() >= 1 && table.read().open_len() > 0);
        let sql: Vec<&str> = conjuncts.iter().map(|(text, _)| text.as_str()).collect();
        let preds: Vec<ColumnPredicate> = conjuncts.iter().flat_map(|(_, p)| p.clone()).collect();
        let query = format!("SELECT id FROM t WHERE {}", sql.join(" AND "));
        let mut session = db.connect();

        let plan = session.query(&format!("EXPLAIN {query}")).unwrap();
        let plan: String = plan.iter().map(|r| r.get(0).render() + "\n").collect();
        let mut columns: Vec<usize> = preds.iter().map(|p| p.column()).collect();
        columns.sort_unstable();
        columns.dedup();
        let pushed = format!("preds={} residual=false", columns.len());
        prop_assert!(plan.contains(&pushed), "{} wants {}:\n{}", query, pushed, plan);

        let mut got: Vec<i64> = session
            .query(&query)
            .unwrap()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&rows, &preds), "{}", query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_matches_brute_force(
        rows in arb_rows(),
        preds in prop::collection::vec(arb_predicate(), 0..4),
        use_load in any::<bool>(),
        parallelism in 1usize..5,
    ) {
        let mut table = ColumnTable::new("F", schema());
        let materialized: Vec<Row> = rows.iter().map(to_row).collect();
        if use_load {
            table.load_rows(materialized).unwrap();
        } else {
            for r in materialized {
                table.insert(r).unwrap();
            }
        }
        let cfg = ScanConfig {
            predicates: preds.clone(),
            parallelism,
            ..ScanConfig::full(0, vec![0])
        };
        let ctx = EvalContext::default();
        let (batch, stats) = scan(&table, &cfg, &ctx).unwrap();
        let mut got: Vec<i64> = batch
            .to_rows()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        let expect = brute_force(&rows, &preds);
        prop_assert_eq!(&got, &expect, "preds {:?}", preds);

        // The skipping ablation must agree too.
        let cfg_noskip = ScanConfig {
            disable_skipping: true,
            ..cfg
        };
        let (batch2, stats2) = scan(&table, &cfg_noskip, &ctx).unwrap();
        let mut got2: Vec<i64> = batch2
            .to_rows()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got2.sort_unstable();
        prop_assert_eq!(&got2, &expect);
        prop_assert!(stats.strides_scanned <= stats2.strides_scanned);
    }

    #[test]
    fn scan_matches_brute_force_after_deletes(
        rows in arb_rows(),
        preds in prop::collection::vec(arb_predicate(), 0..3),
        delete_every in 2usize..7,
    ) {
        let mut table = ColumnTable::new("F", schema());
        table.load_rows(rows.iter().map(to_row).collect()).unwrap();
        let mut live = Vec::new();
        for (i, fr) in rows.iter().enumerate() {
            if i % delete_every == 0 {
                table.delete(dashdb_local::common::ids::Tsn(i as u64)).unwrap();
            } else {
                live.push(fr.clone());
            }
        }
        let cfg = ScanConfig {
            predicates: preds.clone(),
            ..ScanConfig::full(0, vec![0])
        };
        let (batch, _) = scan(&table, &cfg, &EvalContext::default()).unwrap();
        let mut got: Vec<i64> = batch
            .to_rows()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&live, &preds));
    }
}

/// A skewed `cat` or `s` value: the hot one in about four rows of five,
/// else a cold one or NULL.
fn arb_skewed<T: std::fmt::Debug + Clone + 'static>(
    hot: T,
    cold: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    (0u8..20, cold).prop_map(move |(w, cold)| match w {
        0..=15 => Some(hot.clone()),
        16..=18 => Some(cold),
        _ => None,
    })
}

/// Predicates over the skewed columns: the hot value, cold ranges, values
/// only the exception banks hold, and NULL tests.
fn arb_skewed_predicate() -> impl Strategy<Value = ColumnPredicate> {
    prop_oneof![
        (-25i64..115, 0i64..12).prop_map(|(lo, span)| ColumnPredicate::Range {
            col: 1,
            lo: Some(Datum::Int(lo)),
            hi: Some(Datum::Int(lo + span)),
        }),
        any::<bool>().prop_map(|int| if int {
            ColumnPredicate::eq(1, 3i64)
        } else {
            ColumnPredicate::eq(2, "str-0")
        }),
        (0u8..20).prop_map(|v| ColumnPredicate::eq(2, format!("str-{v}"))),
        (0u8..20).prop_map(|v| ColumnPredicate::Range {
            col: 2,
            lo: Some(Datum::str(format!("str-{v}"))),
            hi: None,
        }),
        (1usize..3, any::<bool>()).prop_map(|(col, negated)| ColumnPredicate::IsNull {
            col,
            negated,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tagged-block path: skewed `cat` and `s` split their
    /// dictionaries, so every sealed stride stores partition selectors,
    /// and rows appended after the load add values the dictionaries never
    /// saw, so the last sealed stride holds exceptions too. Compressed
    /// evaluation, decode at the survivors and synopsis pruning over those
    /// strides must match brute force, with and without skipping.
    #[test]
    fn skewed_tagged_strides_match_brute_force(
        loaded in prop::collection::vec(
            (arb_skewed(3i32, -20i32..20), arb_skewed(0u8, 1u8..16)),
            1100..1400,
        ),
        appended in prop::collection::vec(
            (arb_skewed(3i32, 90i32..110), arb_skewed(0u8, 10u8..20)),
            1024..1100,
        ),
        preds in prop::collection::vec(arb_skewed_predicate(), 1..3),
        parallelism in 1usize..4,
    ) {
        let rows: Vec<FuzzRow> = loaded
            .iter()
            .chain(&appended)
            .enumerate()
            .map(|(i, &(cat, s))| FuzzRow { id: i as i64, cat, s, f: None, d: None })
            .collect();
        let (first, rest) = rows.split_at(loaded.len());
        let mut table = ColumnTable::new("F", schema());
        table.load_rows(first.iter().map(to_row).collect()).unwrap();
        table.append_from_rows(rest.iter().map(|fr| (to_row(fr), 0, TS_NEVER))).unwrap();

        let sealed = table.sealed_strides();
        prop_assert!(sealed >= 2);
        for col in [1, 2] {
            let parts = match table.encoding(col) {
                Some(ColumnEncoding::IntDict { dict, .. }) => dict.partition_count(),
                Some(ColumnEncoding::StrDict { dict, .. }) => dict.partition_count(),
                other => panic!("column {col} is not dictionary-coded: {other:?}"),
            };
            prop_assert!(parts > 1, "column {} has {} partition(s)", col, parts);
            let tagged = (0..sealed).filter(|&s| matches!(
                &table.block(col, s).repr,
                BlockRepr::Dict { selectors: Some(_), .. }
            ));
            prop_assert_eq!(tagged.count(), sealed, "column {}", col);
            let with_exceptions = (0..sealed).any(|s| matches!(
                &table.block(col, s).repr,
                BlockRepr::Dict { exceptions, .. } if !exceptions.is_empty()
            ));
            prop_assert!(with_exceptions, "column {} has no exceptions", col);
        }

        let expect: Vec<Row> = brute_force(&rows, &preds)
            .into_iter()
            .map(|id| {
                let full = to_row(&rows[id as usize]);
                row![id, full.get(1).clone(), full.get(2).clone()]
            })
            .collect();
        for disable_skipping in [false, true] {
            let cfg = ScanConfig {
                predicates: preds.clone(),
                parallelism,
                disable_skipping,
                ..ScanConfig::full(0, vec![0, 1, 2])
            };
            let (batch, _) = scan(&table, &cfg, &EvalContext::default()).unwrap();
            let mut got = batch.to_rows();
            got.sort_by_key(|r| r.get(0).as_int());
            prop_assert_eq!(&got, &expect, "preds {:?}, skipping off: {}", preds, disable_skipping);
        }
    }
}
