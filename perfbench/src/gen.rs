//! Seeded inputs: the star schema's rows and every workload's SQL text.
//!
//! The engine sees only what this module returns — rows and SQL strings —
//! never the seed or a workload name. `dash_workloads::{tpcds, customer}`
//! hard-code their seeds, so only `gen::{rng, Zipf}` is reused from there.

use dash_common::types::DataType;
use dash_common::{date, Datum, Field, Row, Schema};
use dash_workloads::gen::{rng, Zipf};
use dash_workloads::spec::{Pred, QuerySpec};
use rand::rngs::StdRng;
use rand::Rng;

/// Fact rows. Sized for the contract's time cap (92 runs in 3420 s), not
/// the 1.5 M the issue sketches: rows were cut, rounds were not.
pub const FACT_ROWS: usize = 300_000;
/// Customer dimension rows (the high-cardinality join build side).
pub const CUST_ROWS: usize = 50_000;
/// `dims` rows: `g` 0..16 matches 16 of the 17 `grp` values, `lab`
/// `L0..L15` matches 16 of the 23 labels.
pub const DIM_ROWS: usize = 16;
pub const GROUPS: i64 = 17;
pub const LABELS: i64 = 23;
/// `qty` is uniform over this many integers starting at `QTY_MIN`.
pub const QTY_VALUES: i64 = 1000;
pub const QTY_MIN: i64 = -500;
/// Days the clustered `day` column spans.
pub const DAYS: i32 = 1500;

/// Column ordinals of `facts`.
pub mod col {
    pub const ID: usize = 0;
    pub const DAY: usize = 1;
    pub const GRP: usize = 2;
    pub const QTY: usize = 4;
    pub const PRICE: usize = 5;
    pub const LABEL: usize = 6;
}

/// One generated table.
pub struct Table {
    pub name: &'static str,
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Columns the row-store oracle indexes.
    pub indexed: Vec<usize>,
}

/// The shared star schema.
pub struct Star {
    pub facts: Table,
    pub dims: Table,
    pub cust_dim: Table,
}

impl Star {
    pub fn tables(&self) -> [&Table; 3] {
        [&self.facts, &self.dims, &self.cust_dim]
    }
}

fn first_day() -> i32 {
    date::days_from_civil(2013, 1, 1)
}

fn schema(fields: Vec<Field>) -> Schema {
    Schema::new(fields).expect("benchmark schemas have distinct column names")
}

/// Generate the star schema: `facts` has a clustered `id`/`day`, a
/// low-cardinality int `grp`, a Zipf high-cardinality `cust`, an int and a
/// float measure and a low-cardinality string `label`.
pub fn star(seed: u64, fact_rows: usize) -> Star {
    let mut r = rng(seed ^ 0x5741_5253);
    let zipf = Zipf::new(CUST_ROWS, 0.6);
    let rows_per_day = fact_rows.div_ceil(DAYS as usize).max(1);
    let labels: Vec<Datum> = (0..LABELS).map(|l| Datum::str(format!("L{l}"))).collect();
    let facts = (0..fact_rows)
        .map(|i| {
            // Multiples of 0.25 sum exactly in f64 whatever the order, so
            // engine and oracle sums compare bit for bit.
            let price = r.gen_range(0i64..4000) as f64 * 0.25;
            Row::new(vec![
                Datum::Int(i as i64),
                Datum::Date(first_day() + (i / rows_per_day) as i32),
                Datum::Int(r.gen_range(0..GROUPS)),
                Datum::Int(zipf.sample(&mut r) as i64),
                Datum::Int(QTY_MIN + r.gen_range(0..QTY_VALUES)),
                Datum::Float(price),
                labels[r.gen_range(0..LABELS) as usize].clone(),
            ])
        })
        .collect();
    let dims = (0..DIM_ROWS as i64)
        .map(|g| {
            Row::new(vec![
                Datum::Int(g),
                Datum::str(format!("dim-{g:02}")),
                Datum::str(format!("L{g}")),
            ])
        })
        .collect();
    let cust_dim = (0..CUST_ROWS as i64)
        .map(|c| {
            Row::new(vec![
                Datum::Int(c),
                Datum::str(format!("seg-{:02}", r.gen_range(0..40))),
            ])
        })
        .collect();
    Star {
        facts: Table {
            name: "facts",
            schema: schema(vec![
                Field::not_null("id", DataType::Int64),
                Field::new("day", DataType::Date),
                Field::new("grp", DataType::Int64),
                Field::new("cust", DataType::Int64),
                Field::new("qty", DataType::Int64),
                Field::new("price", DataType::Float64),
                Field::new("label", DataType::Utf8),
            ]),
            rows: facts,
            indexed: vec![col::ID],
        },
        dims: Table {
            name: "dims",
            schema: schema(vec![
                Field::not_null("g", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("lab", DataType::Utf8),
            ]),
            rows: dims,
            indexed: vec![0],
        },
        cust_dim: Table {
            name: "cust_dim",
            schema: schema(vec![
                Field::not_null("c", DataType::Int64),
                Field::new("segment", DataType::Utf8),
            ]),
            rows: cust_dim,
            indexed: vec![0],
        },
    }
}

/// How a statement's rows are checked, once, outside the timed phase.
#[derive(Clone)]
pub enum Oracle {
    /// `dash-rowstore` runs the same query through the shared IR.
    RowStore(QuerySpec),
    /// A plain fold over the generated rows (see `oracle::fold`).
    Fold(Fold),
}

/// The queries the IR cannot express, as data for the fold oracle.
#[derive(Clone)]
pub enum Fold {
    /// `COUNT(*), SUM(qty), MIN(price), MAX(price)` over a `qty` range.
    QtyRangeAgg { lo: i64, hi: i64 },
    /// `COUNT(*), SUM(price)` over a `day` range.
    DayRangeAgg { lo: i32, hi: i32 },
    /// `COUNT(*), SUM(qty)` where `label` equals.
    LabelEqAgg { label: String },
    /// Join on the string key `label = lab`, grouped by `g`.
    StrKeyJoin,
    /// Group on the computed key `grp + qty % 3`.
    ComputedKeyGroup,
    /// Join `dims` on `grp`, group by `(name, label)`, ordered by both.
    JoinGroupOrder,
}

/// One SQL statement of an analytic workload.
#[derive(Clone)]
pub struct Stmt {
    /// Statement class: latency samples pool per class.
    pub class: &'static str,
    pub sql: String,
    pub oracle: Oracle,
    /// True when the SQL's ORDER BY is total, so rows compare as a sequence.
    pub ordered: bool,
}

fn stmt(class: &'static str, oracle: Oracle, sql: String, ordered: bool) -> Stmt {
    Stmt {
        class,
        sql,
        oracle,
        ordered,
    }
}

fn from_spec(class: &'static str, spec: QuerySpec) -> Stmt {
    let ordered = matches!(spec, QuerySpec::TopN { .. });
    stmt(
        class,
        Oracle::RowStore(spec.clone()),
        spec.to_sql(),
        ordered,
    )
}

fn names(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| c.to_string()).collect()
}

/// The `i`-th of `n` draws from `0..span`, each from its own `n`-th of the
/// span. A statement's cost depends on where its constant falls (which
/// strides, which dictionary bank), so a class's `n` constants cover the
/// domain evenly under every seed and only their offsets are random.
fn stratified(r: &mut StdRng, i: usize, n: usize, span: i64) -> i64 {
    let slot = (span / n as i64).max(1);
    (i as i64 * slot + r.gen_range(0..slot)).min(span - 1)
}

/// The `i`-th of `n` `qty` ranges covering `width` of the `QTY_VALUES` values.
fn qty_range(r: &mut StdRng, i: usize, n: usize, width: i64) -> (i64, i64) {
    let lo = QTY_MIN + stratified(r, i, n, QTY_VALUES - width + 1);
    (lo, lo + width - 1)
}

/// The single-table statement list, `reps` statements per heavy class
/// (`scan_agg.serial` runs 4, so every class has at least 4 statements a
/// round); light classes repeat more, or their samples would be too few.
pub fn scan_agg_statements(seed: u64, fact_rows: usize, reps: usize) -> Vec<Stmt> {
    let mut r = rng(seed ^ 0x5343_414e);
    let mut out = Vec::new();
    for i in 0..4 * reps {
        let id = stratified(&mut r, i, 4 * reps, fact_rows as i64);
        out.push(from_spec(
            "point",
            QuerySpec::FilterScan {
                table: "facts".into(),
                predicates: vec![Pred::eq("id", id)],
                projection: names(&["id", "cust", "qty", "price", "label"]),
            },
        ));
    }
    for i in 0..reps {
        let (lo, hi) = qty_range(&mut r, i, reps, 1);
        out.push(from_spec(
            "range_0.1pct",
            QuerySpec::FilterScan {
                table: "facts".into(),
                predicates: vec![Pred::between("qty", lo, hi)],
                projection: names(&["id", "qty", "price"]),
            },
        ));
    }
    for i in 0..reps {
        let (lo, hi) = qty_range(&mut r, i, reps, 20);
        out.push(from_spec(
            "range_2pct",
            QuerySpec::GroupAgg {
                table: "facts".into(),
                predicates: vec![Pred::between("qty", lo, hi)],
                key: "grp".into(),
                value: "qty".into(),
            },
        ));
    }
    for i in 0..reps {
        let (lo, hi) = qty_range(&mut r, i, reps, 500);
        out.push(stmt(
            "range_50pct",
            Oracle::Fold(Fold::QtyRangeAgg { lo, hi }),
            format!(
                "SELECT COUNT(*), SUM(qty), MIN(price), MAX(price) FROM facts \
                 WHERE qty BETWEEN {lo} AND {hi}"
            ),
            false,
        ));
    }
    for i in 0..2 * reps {
        // ~3 % of the days: the synopsis skips the other strides.
        let lo = first_day() + stratified(&mut r, i, 2 * reps, i64::from(DAYS) - 44) as i32;
        let hi = lo + 44;
        out.push(stmt(
            "clustered_range",
            Oracle::Fold(Fold::DayRangeAgg { lo, hi }),
            format!(
                "SELECT COUNT(*), SUM(price) FROM facts WHERE day BETWEEN DATE '{}' AND DATE '{}'",
                date::format_date(lo),
                date::format_date(hi)
            ),
            false,
        ));
    }
    for i in 0..reps {
        let label = format!("L{}", stratified(&mut r, i, reps, LABELS));
        out.push(stmt(
            "dict_eq",
            Oracle::Fold(Fold::LabelEqAgg {
                label: label.clone(),
            }),
            format!("SELECT COUNT(*), SUM(qty) FROM facts WHERE label = '{label}'"),
            false,
        ));
    }
    for i in 0..reps {
        out.push(from_spec(
            "group_17",
            QuerySpec::GroupAgg {
                table: "facts".into(),
                predicates: vec![],
                key: "grp".into(),
                value: "qty".into(),
            },
        ));
        // Grouping all of `facts` by `cust` costs seconds on the seed code
        // (time grows with morsels × groups), so this class groups a 5 %
        // slice: ~15 K rows into ~11 K groups.
        let (lo, hi) = qty_range(&mut r, i, reps, 50);
        out.push(from_spec(
            "group_10k",
            QuerySpec::GroupAgg {
                table: "facts".into(),
                predicates: vec![Pred::between("qty", lo, hi)],
                key: "cust".into(),
                value: "qty".into(),
            },
        ));
    }
    shuffle(&mut out, &mut r);
    out
}

/// `sets` statements of each join/sort class: joins, grouping on join
/// output, and sorts; the only predicate is the Top-100's 50 % filter.
pub fn join_sort_statements(seed: u64, fact_rows: usize, sets: usize) -> Vec<Stmt> {
    let mut r = rng(seed ^ 0x4a4f_494e);
    let mut out = Vec::new();
    let join_agg = |dim: &str, fact_key: &str, dim_key: &str, dim_label: &str| QuerySpec::JoinAgg {
        fact: "facts".into(),
        dim: dim.into(),
        fact_key: fact_key.into(),
        dim_key: dim_key.into(),
        dim_label: dim_label.into(),
        value: "qty".into(),
        predicates: vec![],
    };
    for i in 0..sets {
        out.push(from_spec(
            "join_dims_group",
            join_agg("dims", "grp", "g", "name"),
        ));
        out.push(from_spec(
            "join_cust_group",
            join_agg("cust_dim", "cust", "c", "segment"),
        ));
        out.push(stmt(
            "join_str_key",
            Oracle::Fold(Fold::StrKeyJoin),
            "SELECT d.g, COUNT(*), SUM(f.qty) FROM facts f JOIN dims d ON f.label = d.lab \
             GROUP BY d.g"
                .into(),
            false,
        ));
        out.push(stmt(
            "group_computed_key",
            Oracle::Fold(Fold::ComputedKeyGroup),
            "SELECT grp + MOD(qty, 3), COUNT(*), SUM(qty) FROM facts GROUP BY grp + MOD(qty, 3)"
                .into(),
            false,
        ));
        out.push(stmt(
            "join_group_order",
            Oracle::Fold(Fold::JoinGroupOrder),
            "SELECT d.name, f.label, COUNT(*), SUM(f.qty) FROM facts f JOIN dims d \
             ON f.grp = d.g GROUP BY d.name, f.label ORDER BY d.name, f.label"
                .into(),
            true,
        ));
        out.push(from_spec(
            "order_fetch_20pct",
            QuerySpec::TopN {
                table: "facts".into(),
                predicates: vec![],
                projection: names(&["qty", "id"]),
                order_by: "qty".into(),
                desc: false,
                n: fact_rows / 5,
            },
        ));
        // A different half of the table each time.
        let (lo, hi) = qty_range(&mut r, i, sets, 500);
        out.push(from_spec(
            "top_100",
            QuerySpec::TopN {
                table: "facts".into(),
                predicates: vec![Pred::between("qty", lo, hi)],
                projection: names(&["price", "id"]),
                order_by: "price".into(),
                desc: true,
                n: 100,
            },
        ));
    }
    shuffle(&mut out, &mut r);
    out
}

/// `analytic.streams`: each client runs the union of the two serial lists
/// at one statement per heavy class. The lists are generated at `clients`
/// statements per class and dealt out, so the clients' constants cover each
/// class's domain between them; each client's hand is rotated by its index
/// so clients never run the same class in step.
pub fn stream_statements(seed: u64, fact_rows: usize, client: usize, clients: usize) -> Vec<Stmt> {
    let mut all = scan_agg_statements(seed, fact_rows, clients);
    all.extend(join_sort_statements(seed, fact_rows, clients));
    // Every class now has a multiple of `clients` statements: grouped by
    // class and dealt round-robin, each client gets its share of each.
    all.sort_by_key(|s| s.class);
    let mut hand: Vec<Stmt> = all.into_iter().skip(client).step_by(clients).collect();
    let mut r = rng(seed ^ 0x5354_524d);
    shuffle(&mut hand, &mut r);
    let shift = hand.len() * client / clients;
    hand.rotate_left(shift);
    hand
}

/// Fisher–Yates, so heavy and light statements interleave.
pub fn shuffle<T>(items: &mut [T], r: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, r.gen_range(0..=i));
    }
}

/// Raw user bytes of a row set: 8 per fixed-width value, the UTF-8 length
/// per string. The base of `storage.bytes_per_user_byte`.
pub fn user_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .flat_map(|r| r.values())
        .map(|d| match d {
            Datum::Str(s) => s.len() as u64,
            Datum::Null => 0,
            _ => 8,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sql(stmts: &[Stmt]) -> Vec<&str> {
        stmts.iter().map(|s| s.sql.as_str()).collect()
    }

    #[test]
    fn same_seed_same_rows_and_sql_other_seed_other() {
        let (a, b, c) = (star(5, 3000), star(5, 3000), star(6, 3000));
        for ((x, y), z) in a.tables().iter().zip(b.tables()).zip(c.tables()) {
            assert_eq!(x.rows, y.rows, "{}", x.name);
            // `dims` is the same under every seed; the other two are not.
            assert_eq!(x.rows != z.rows, x.name != "dims", "{}", x.name);
        }
        for clients in [1, 2] {
            let lists = |seed| -> Vec<Vec<Stmt>> {
                (0..clients)
                    .map(|c| stream_statements(seed, 3000, c, clients))
                    .collect()
            };
            let (a, b, c) = (lists(5), lists(5), lists(6));
            for i in 0..clients {
                assert_eq!(sql(&a[i]), sql(&b[i]));
                assert_ne!(sql(&a[i]), sql(&c[i]));
            }
        }
    }

    #[test]
    fn stream_hands_split_every_class_evenly() {
        let hands: Vec<Vec<Stmt>> = (0..2).map(|c| stream_statements(9, 3000, c, 2)).collect();
        let serial = scan_agg_statements(9, 3000, 1).len() + join_sort_statements(9, 3000, 1).len();
        for hand in &hands {
            assert_eq!(hand.len(), serial);
        }
        let count = |hand: &[Stmt], class: &str| hand.iter().filter(|s| s.class == class).count();
        for class in ["point", "clustered_range", "group_10k", "top_100"] {
            assert_eq!(count(&hands[0], class), count(&hands[1], class), "{class}");
        }
        // Two clients, two strata: they never share a constant-bearing statement.
        let shared = hands[0]
            .iter()
            .filter(|s| s.class == "range_2pct" && sql(&hands[1]).contains(&s.sql.as_str()))
            .count();
        assert_eq!(shared, 0);
    }

    #[test]
    fn stratified_draws_stay_in_their_slot() {
        let mut r = rng(1);
        for i in 0..4 {
            let v = stratified(&mut r, i, 4, 1000);
            assert!(
                (i as i64 * 250..(i as i64 + 1) * 250).contains(&v),
                "{i}: {v}"
            );
        }
        assert!(stratified(&mut r, 0, 1, 23) < 23);
    }
}
