//! Property tests for write-ahead-log robustness: an arbitrarily truncated,
//! bit-flipped, or garbage-extended log never panics the reader, always
//! yields a *prefix* of the original records, and truncating to the valid
//! length produces a clean log.

use dash_common::faults::FaultRegistry;
use dash_common::ids::Tsn;
use dash_common::txn::TxnId;
use dash_common::types::DataType;
use dash_common::{Datum, Field, Row, Schema};
use dash_storage::wal::{read_wal, truncate_wal, SyncPolicy, Wal, WalRecord};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmpfile(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dash-wal-proptest-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&d);
    d.join(format!("{tag}-{}.log", CASE.fetch_add(1, Ordering::Relaxed)))
}

fn datum_strategy() -> BoxedStrategy<Datum> {
    prop_oneof![
        (0u8..1).prop_map(|_| Datum::Null),
        any::<i64>().prop_map(Datum::Int),
        // Finite floats only: NaN breaks the equality the prefix check needs.
        (-1.0e9f64..1.0e9).prop_map(Datum::Float),
        any::<i32>().prop_map(Datum::Date),
        "[a-zA-Z0-9 _']{0,24}".prop_map(|s: String| Datum::Str(s.into())),
    ]
    .boxed()
}

fn record_strategy() -> BoxedStrategy<WalRecord> {
    prop_oneof![
        (0u64..64).prop_map(|t| WalRecord::Begin { txn: TxnId(t) }),
        (0u64..64, 0u64..1024).prop_map(|(t, ts)| WalRecord::Commit { txn: TxnId(t), ts }),
        (0u64..64).prop_map(|t| WalRecord::Abort { txn: TxnId(t) }),
        (
            0u64..64,
            "[A-Z]{1,8}",
            0u64..4096,
            prop::collection::vec(datum_strategy(), 0..6)
        )
            .prop_map(|(t, table, tsn, vals)| WalRecord::Insert {
                txn: TxnId(t),
                table,
                tsn: Tsn(tsn),
                row: Row::new(vals),
            }),
        (0u64..64, "[A-Z]{1,8}", 0u64..4096).prop_map(|(t, table, tsn)| WalRecord::Delete {
            txn: TxnId(t),
            table,
            tsn: Tsn(tsn),
        }),
        "[A-Z]{1,8}".prop_map(|name| WalRecord::CreateTable {
            name,
            schema: Schema::new(vec![
                Field::not_null("K", DataType::Int64),
                Field::new("V", DataType::Utf8),
            ])
            .unwrap(),
        }),
        "[A-Z]{1,8}".prop_map(|name| WalRecord::DropTable { name }),
        "[A-Z]{1,8}".prop_map(|name| WalRecord::Truncate { name }),
    ]
    .boxed()
}

/// How a test case damages the on-disk log.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep this fraction (in 1/256ths) of the file.
    Truncate(u8),
    /// XOR one bit at (position % len).
    FlipBit { pos: usize, bit: u8 },
    /// Append raw garbage past the last frame.
    Garbage(Vec<u8>),
}

fn damage_strategy() -> BoxedStrategy<Damage> {
    prop_oneof![
        any::<u8>().prop_map(Damage::Truncate),
        (any::<usize>(), 0u8..8).prop_map(|(pos, bit)| Damage::FlipBit { pos, bit }),
        prop::collection::vec(any::<u8>(), 1..64).prop_map(Damage::Garbage),
    ]
    .boxed()
}

fn write_log(path: &PathBuf, records: &[WalRecord]) {
    let mut wal = Wal::create(path, SyncPolicy::Never, FaultRegistry::new()).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    wal.flush().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any single act of damage leaves a log the reader handles: no panic,
    /// a strict prefix (or all) of the original records, byte accounting
    /// that adds up, and a clean re-read after truncating the tail.
    #[test]
    fn damaged_log_reads_as_prefix(
        records in prop::collection::vec(record_strategy(), 1..24),
        damage in damage_strategy(),
    ) {
        let path = tmpfile("damage");
        write_log(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        match &damage {
            Damage::Truncate(frac) => {
                let keep = bytes.len() * (*frac as usize) / 256;
                bytes.truncate(keep);
            }
            Damage::FlipBit { pos, bit } => {
                if !bytes.is_empty() {
                    let i = pos % bytes.len();
                    bytes[i] ^= 1 << bit;
                }
            }
            Damage::Garbage(tail) => bytes.extend_from_slice(tail),
        }
        let file_len = bytes.len() as u64;
        std::fs::write(&path, &bytes).unwrap();

        let out = read_wal(&path).unwrap();
        // The reader yields a prefix of what was written.
        prop_assert!(out.records.len() <= records.len());
        prop_assert_eq!(&out.records[..], &records[..out.records.len()]);
        // Byte accounting covers the whole file.
        prop_assert!(out.valid_len <= file_len);
        prop_assert_eq!(out.valid_len + out.truncated_bytes, file_len);

        // Truncating to the valid prefix yields a log that reads clean.
        truncate_wal(&path, out.valid_len).unwrap();
        let clean = read_wal(&path).unwrap();
        prop_assert_eq!(clean.truncated_bytes, 0);
        prop_assert_eq!(&clean.records[..], &out.records[..]);
        let _ = std::fs::remove_file(&path);
    }

    /// An undamaged log always round-trips exactly.
    #[test]
    fn clean_log_roundtrips(records in prop::collection::vec(record_strategy(), 0..24)) {
        let path = tmpfile("clean");
        write_log(&path, &records);
        let out = read_wal(&path).unwrap();
        prop_assert_eq!(out.records, records);
        prop_assert_eq!(out.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }
}
