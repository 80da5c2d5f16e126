//! Reproduces the compression claim (§II.B.1):
//!
//! > "These techniques in combination have allowed dashDB to regularly
//! > compress data 2-3x smaller than previous generations of compression
//! > techniques used in IBM products."
//!
//! The previous generation is classic row compression (a static
//! Lempel-Ziv-style dictionary over row images — `dash_encoding::baseline`).
//! We load the customer and TPC-DS fact tables into both and compare, and
//! also break the columnar size down per column/encoding. The process exits
//! non-zero when a checked table misses the claim's ">= 2x" shape, which is
//! checked on blocks only: the column dictionaries are reported beside it,
//! counted at a lower bound, until they have a compact stored form.

use dash_bench::{report, section};
use dash_encoding::baseline::{total_raw, RowCompressor};
use dash_encoding::ColumnEncoding;
use dash_storage::table::ColumnTable;
use dash_workloads::{customer, tpcds, TableDef};

/// A lower bound on the bytes of column `col`'s dictionary: 8 per integer
/// entry, a string entry's length plus 4.
fn dict_bytes(col: &ColumnTable, i: usize) -> usize {
    match col.encoding(i) {
        Some(ColumnEncoding::IntDict { dict, .. }) => 8 * dict.len(),
        Some(ColumnEncoding::StrDict { dict }) => dict.values().iter().map(|s| s.len() + 4).sum(),
        _ => 0,
    }
}

/// Report `table`'s sizes; with `check`, whether columnar storage is at
/// least 2x smaller than classic row compression (`false` on a miss).
fn measure(table: &TableDef, check: bool) -> bool {
    section(&format!("table {} ({} rows)", table.name, table.rows.len()));
    // Raw (uncompressed row) size.
    let raw = total_raw(&table.rows);
    // Previous generation: classic row compression.
    let classic = RowCompressor::train(&table.rows);
    let classic_size = classic.total_compressed(&table.rows);
    // BLU-style columnar compression.
    let mut col = ColumnTable::new(table.name.clone(), table.schema.clone());
    col.load_rows(table.rows.clone()).expect("load");
    let columnar_size = col.compressed_bytes()
        + (col.open_len() * table.schema.len() * 8); // open stride raw

    report("raw bytes", raw);
    report(
        "classic row compression",
        format!(
            "{classic_size} bytes ({:.2}x vs raw)",
            raw as f64 / classic_size as f64
        ),
    );
    report(
        "BLU columnar compression",
        format!(
            "{columnar_size} bytes ({:.2}x vs raw)",
            raw as f64 / columnar_size as f64
        ),
    );
    let vs_classic = classic_size as f64 / columnar_size as f64;
    report(
        "columnar vs classic (paper: 2-3x)",
        format!("{vs_classic:.2}x"),
    );
    let dicts: usize = (0..table.schema.len()).map(|i| dict_bytes(&col, i)).sum();
    let counted = columnar_size + dicts;
    report("dictionary bytes (lower bound)", dicts);
    report(
        "BLU columnar, dictionaries counted",
        format!("{counted} bytes ({:.2}x vs raw)", raw as f64 / counted as f64),
    );
    report(
        "columnar vs classic, dictionaries counted",
        format!("{:.2}x", classic_size as f64 / counted as f64),
    );
    let pass = !check || vs_classic >= 2.0;
    if check {
        report("shape check (>= 2x)", if pass { "PASS" } else { "FAIL" });
    } else {
        report(
            "note",
            "tiny dimension table — outside the claim's Big Data scope",
        );
    }
    // Per-column encodings chosen by the analyzer.
    for (i, f) in table.schema.fields().iter().enumerate() {
        if let Some(enc) = col.encoding(i) {
            report(&format!("  column {} encoding", f.name), enc.name());
        }
    }
    pass
}

fn main() {
    println!("Compression reproduction — dashdb-local-rs");
    let cw = customer::generate(100_000, 0);
    let tw = tpcds::generate(100_000);
    let passed = [
        measure(&cw.tables[0], true),
        measure(&tw.tables[0], true),
        measure(&tw.tables[1], false),
    ];
    if passed.contains(&false) {
        std::process::exit(1);
    }
}
