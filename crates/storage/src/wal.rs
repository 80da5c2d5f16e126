//! Write-ahead log: append-only framed records with per-record CRCs,
//! crash simulation behind [`FaultRegistry`] failpoints, torn-tail
//! tolerant reading, and the checkpoint snapshot file format.
//!
//! ## Frame format
//!
//! Each record is one frame: `[u32 len][u32 crc][payload]`, all fields
//! little-endian. `crc` is CRC-32 (IEEE) over the payload only. A reader
//! stops at the first frame whose header is short, whose length is
//! implausible, or whose CRC does not match — everything before that
//! point is a valid *prefix* of history (the log is never resynced past
//! damage), so recovery truncates the tail and replays the prefix.
//!
//! ## Crash simulation
//!
//! Real process kills are awkward inside a unit test, so the writer
//! simulates them with three failpoints:
//!
//! * [`dash_common::faults::WAL_APPEND`] — the frame is torn in half on
//!   its way to the file, exactly what a kill mid-`write(2)` leaves;
//! * [`dash_common::faults::WAL_FSYNC`] — buffered records are dropped
//!   before reaching the file (power loss before the sync completed);
//! * [`dash_common::faults::WAL_COMMIT`] — the crash lands between a
//!   transaction's data records and its commit record.
//!
//! After any simulated crash the [`Wal`] goes dead: every further call
//! fails, mirroring a dead process. Tests then reopen the database
//! directory and assert on what recovery rebuilds.

use dash_common::faults::{FaultAction, FaultRegistry, WAL_APPEND, WAL_COMMIT, WAL_CREATE, WAL_FSYNC};
use dash_common::ids::Tsn;
use dash_common::txn::TxnId;
use dash_common::types::DataType;
use dash_common::{DashError, Datum, Field, Result, Row, Schema};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Upper bound on a single record's payload; longer lengths in a frame
/// header are treated as corruption (stops the reader at that point).
const MAX_RECORD_LEN: u32 = 64 << 20;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A transaction started.
    Begin {
        /// The starting transaction.
        txn: TxnId,
    },
    /// A transaction appended a row at `tsn`. Logged in TSN order per
    /// table (the append happens under the table's write lock), so replay
    /// reproduces identical row positions.
    Insert {
        /// Writing transaction.
        txn: TxnId,
        /// Durable table name.
        table: String,
        /// Position the row landed at.
        tsn: Tsn,
        /// The (already coerced) row values.
        row: Row,
    },
    /// A transaction marked the row at `tsn` deleted.
    Delete {
        /// Writing transaction.
        txn: TxnId,
        /// Durable table name.
        table: String,
        /// Position of the deleted row.
        tsn: Tsn,
    },
    /// The transaction committed at logical timestamp `ts`. A transaction
    /// whose commit record is absent (or past the torn tail) never
    /// happened, as far as recovery is concerned.
    Commit {
        /// Committing transaction.
        txn: TxnId,
        /// Its commit timestamp.
        ts: u64,
    },
    /// The transaction rolled back.
    Abort {
        /// Aborting transaction.
        txn: TxnId,
    },
    /// A durable table was created (DDL is non-transactional).
    CreateTable {
        /// Table name (catalog-folded).
        name: String,
        /// Column definitions.
        schema: Schema,
    },
    /// A durable table was dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// A durable table was truncated (all rows discarded, schema kept).
    Truncate {
        /// Table name.
        name: String,
    },
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), byte-at-a-time with a lazily built table.
// ---------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Binary codec. Hand-rolled little-endian encoding: the vendored serde
// is derive-only (no serializer), and the format doubles as the wire
// spec documented in DESIGN.md.
// ---------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i128(&mut self, v: i128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn datum(&mut self, d: &Datum) {
        match d {
            Datum::Null => self.u8(0),
            Datum::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Datum::Int(v) => {
                self.u8(2);
                self.i64(*v);
            }
            Datum::Float(v) => {
                self.u8(3);
                self.u64(v.to_bits());
            }
            Datum::Decimal(v, scale) => {
                self.u8(4);
                self.i128(*v);
                self.u8(*scale);
            }
            Datum::Date(v) => {
                self.u8(5);
                self.i64(*v as i64);
            }
            Datum::Timestamp(v) => {
                self.u8(6);
                self.i64(*v);
            }
            Datum::Str(s) => {
                self.u8(7);
                self.str(s);
            }
        }
    }
    fn row(&mut self, r: &Row) {
        self.u32(r.values().len() as u32);
        for d in r.values() {
            self.datum(d);
        }
    }
    fn data_type(&mut self, t: DataType) {
        match t {
            DataType::Bool => self.u8(0),
            DataType::Int16 => self.u8(1),
            DataType::Int32 => self.u8(2),
            DataType::Int64 => self.u8(3),
            DataType::Float32 => self.u8(4),
            DataType::Float64 => self.u8(5),
            DataType::Decimal(p, s) => {
                self.u8(6);
                self.u8(p);
                self.u8(s);
            }
            DataType::Date => self.u8(7),
            DataType::Timestamp => self.u8(8),
            DataType::Utf8 => self.u8(9),
        }
    }
    fn schema(&mut self, s: &Schema) {
        self.u32(s.len() as u32);
        for f in s.fields() {
            self.str(&f.name);
            self.data_type(f.data_type);
            self.u8(f.nullable as u8);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn corrupt(what: &str) -> DashError {
        DashError::Storage(format!("wal decode: truncated or corrupt {what}"))
    }
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Dec::corrupt(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }
    fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self, what: &str) -> Result<u64> {
        let b: [u8; 8] = self.take(8, what)?.try_into().map_err(|_| Dec::corrupt(what))?;
        Ok(u64::from_le_bytes(b))
    }
    fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(self.u64(what)? as i64)
    }
    fn i128(&mut self, what: &str) -> Result<i128> {
        let b: [u8; 16] = self.take(16, what)?.try_into().map_err(|_| Dec::corrupt(what))?;
        Ok(i128::from_le_bytes(b))
    }
    fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Dec::corrupt(what))
    }
    fn datum(&mut self) -> Result<Datum> {
        Ok(match self.u8("datum tag")? {
            0 => Datum::Null,
            1 => Datum::Bool(self.u8("bool")? != 0),
            2 => Datum::Int(self.i64("int")?),
            3 => Datum::Float(f64::from_bits(self.u64("float")?)),
            4 => Datum::Decimal(self.i128("decimal")?, self.u8("decimal scale")?),
            5 => Datum::Date(self.i64("date")? as i32),
            6 => Datum::Timestamp(self.i64("timestamp")?),
            7 => Datum::Str(self.str("string")?.into()),
            t => return Err(DashError::Storage(format!("wal decode: bad datum tag {t}"))),
        })
    }
    fn row(&mut self) -> Result<Row> {
        let n = self.u32("row arity")? as usize;
        if n > MAX_RECORD_LEN as usize {
            return Err(Dec::corrupt("row arity"));
        }
        let mut vals = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            vals.push(self.datum()?);
        }
        Ok(Row::new(vals))
    }
    fn data_type(&mut self) -> Result<DataType> {
        Ok(match self.u8("type tag")? {
            0 => DataType::Bool,
            1 => DataType::Int16,
            2 => DataType::Int32,
            3 => DataType::Int64,
            4 => DataType::Float32,
            5 => DataType::Float64,
            6 => DataType::Decimal(self.u8("precision")?, self.u8("scale")?),
            7 => DataType::Date,
            8 => DataType::Timestamp,
            9 => DataType::Utf8,
            t => return Err(DashError::Storage(format!("wal decode: bad type tag {t}"))),
        })
    }
    fn schema(&mut self) -> Result<Schema> {
        let n = self.u32("schema arity")? as usize;
        if n > 65_536 {
            return Err(Dec::corrupt("schema arity"));
        }
        let mut fields = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            let name = self.str("field name")?;
            let data_type = self.data_type()?;
            let nullable = self.u8("nullable")? != 0;
            fields.push(Field {
                name,
                data_type,
                nullable,
            });
        }
        Ok(Schema::new_unchecked(fields))
    }
    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Dec::corrupt("record (trailing bytes)"))
        }
    }
}

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CREATE: u8 = 6;
const TAG_DROP: u8 = 7;
const TAG_TRUNCATE: u8 = 8;

impl WalRecord {
    /// Encode the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::with_capacity(32));
        match self {
            WalRecord::Begin { txn } => {
                e.u8(TAG_BEGIN);
                e.u64(txn.0);
            }
            WalRecord::Insert { txn, table, tsn, row } => {
                e.u8(TAG_INSERT);
                e.u64(txn.0);
                e.str(table);
                e.u64(tsn.0);
                e.row(row);
            }
            WalRecord::Delete { txn, table, tsn } => {
                e.u8(TAG_DELETE);
                e.u64(txn.0);
                e.str(table);
                e.u64(tsn.0);
            }
            WalRecord::Commit { txn, ts } => {
                e.u8(TAG_COMMIT);
                e.u64(txn.0);
                e.u64(*ts);
            }
            WalRecord::Abort { txn } => {
                e.u8(TAG_ABORT);
                e.u64(txn.0);
            }
            WalRecord::CreateTable { name, schema } => {
                e.u8(TAG_CREATE);
                e.str(name);
                e.schema(schema);
            }
            WalRecord::DropTable { name } => {
                e.u8(TAG_DROP);
                e.str(name);
            }
            WalRecord::Truncate { name } => {
                e.u8(TAG_TRUNCATE);
                e.str(name);
            }
        }
        e.0
    }

    /// Decode one record payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut d = Dec::new(payload);
        let rec = match d.u8("record tag")? {
            TAG_BEGIN => WalRecord::Begin {
                txn: TxnId(d.u64("txn")?),
            },
            TAG_INSERT => WalRecord::Insert {
                txn: TxnId(d.u64("txn")?),
                table: d.str("table")?,
                tsn: Tsn(d.u64("tsn")?),
                row: d.row()?,
            },
            TAG_DELETE => WalRecord::Delete {
                txn: TxnId(d.u64("txn")?),
                table: d.str("table")?,
                tsn: Tsn(d.u64("tsn")?),
            },
            TAG_COMMIT => WalRecord::Commit {
                txn: TxnId(d.u64("txn")?),
                ts: d.u64("commit ts")?,
            },
            TAG_ABORT => WalRecord::Abort {
                txn: TxnId(d.u64("txn")?),
            },
            TAG_CREATE => WalRecord::CreateTable {
                name: d.str("table")?,
                schema: d.schema()?,
            },
            TAG_DROP => WalRecord::DropTable {
                name: d.str("table")?,
            },
            TAG_TRUNCATE => WalRecord::Truncate {
                name: d.str("table")?,
            },
            t => return Err(DashError::Storage(format!("wal decode: bad record tag {t}"))),
        };
        d.done()?;
        Ok(rec)
    }

    fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// When the log forces buffered records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Every record, as appended. Slowest, smallest loss window.
    Always,
    /// At commit/abort/DDL boundaries (the default): a crash can lose the
    /// in-flight transaction but never a committed one.
    Commit,
    /// Only when the log is closed. Benchmarks only — a crash may lose
    /// committed transactions.
    Never,
}

impl SyncPolicy {
    /// Parse a `DASH_WAL_SYNC` value.
    pub fn from_env_str(s: &str) -> Result<SyncPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(SyncPolicy::Always),
            "commit" => Ok(SyncPolicy::Commit),
            "never" => Ok(SyncPolicy::Never),
            other => Err(DashError::analysis(format!(
                "DASH_WAL_SYNC must be always|commit|never, got \"{other}\""
            ))),
        }
    }
}

/// The append side of the write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    sync: SyncPolicy,
    faults: FaultRegistry,
    /// Records appended but not yet flushed to the file. A simulated
    /// fsync crash drops exactly these bytes.
    buffer: Vec<u8>,
    crashed: bool,
    /// Completed physical syncs (write + `sync_data`) on this log. The
    /// group-commit leader reads the delta around a batch flush to report
    /// fsyncs-per-commit to the monitor.
    fsyncs: u64,
}

impl Wal {
    /// Create a fresh (truncated) log at `path`. Evaluates the
    /// [`WAL_CREATE`] failpoint *before* touching the filesystem, so a
    /// simulated failure leaves whatever log is currently live untouched.
    pub fn create(path: impl Into<PathBuf>, sync: SyncPolicy, faults: FaultRegistry) -> Result<Wal> {
        let path = path.into();
        if let Some(FaultAction::Error(msg)) = faults.evaluate(WAL_CREATE) {
            return Err(DashError::Storage(format!(
                "simulated failure creating {}: {msg}",
                path.display()
            )));
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| DashError::Storage(format!("wal create {}: {e}", path.display())))?;
        Ok(Wal {
            file,
            path,
            sync,
            faults,
            buffer: Vec::new(),
            crashed: false,
            fsyncs: 0,
        })
    }

    /// Open an existing log for appending (after recovery has validated
    /// and truncated it).
    pub fn open_append(
        path: impl Into<PathBuf>,
        sync: SyncPolicy,
        faults: FaultRegistry,
    ) -> Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DashError::Storage(format!("wal open {}: {e}", path.display())))?;
        Ok(Wal {
            file,
            path,
            sync,
            faults,
            buffer: Vec::new(),
            crashed: false,
            fsyncs: 0,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Has a simulated crash killed this log? Once true, every append and
    /// flush fails; the only way forward is reopening the database.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    fn dead(&self) -> DashError {
        DashError::Storage("wal is down after a simulated crash; reopen the database".into())
    }

    /// Append one record. Commit records also evaluate the
    /// [`WAL_COMMIT`] failpoint; the [`SyncPolicy`] decides whether the
    /// record is flushed immediately.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        self.append_inner(rec, false)
    }

    /// Append one record *without* the per-record boundary flush that
    /// [`SyncPolicy::Commit`] would normally perform: the group-commit
    /// leader appends a whole batch of commit records and then makes them
    /// durable with a single [`Wal::flush_commit`]. `SyncPolicy::Always`
    /// still flushes every record — its contract is per-record
    /// durability and group commit must not weaken it.
    pub fn append_deferred(&mut self, rec: &WalRecord) -> Result<()> {
        self.append_inner(rec, true)
    }

    fn append_inner(&mut self, rec: &WalRecord, defer_boundary_flush: bool) -> Result<()> {
        if self.crashed {
            return Err(self.dead());
        }
        if matches!(rec, WalRecord::Commit { .. }) {
            if let Some(FaultAction::Error(msg)) = self.faults.evaluate(WAL_COMMIT) {
                // Crash between the data records and the commit record:
                // whatever was already buffered reaches the disk, the
                // commit never does.
                let _ = self.write_out();
                self.crashed = true;
                return Err(DashError::Storage(format!("simulated crash at commit: {msg}")));
            }
        }
        let frame = rec.frame();
        if let Some(FaultAction::Error(msg)) = self.faults.evaluate(WAL_APPEND) {
            // Crash mid-write: half the frame reaches the file — the torn
            // tail recovery must truncate.
            let _ = self.write_out();
            let torn = &frame[..frame.len() / 2];
            let _ = self.file.write_all(torn);
            let _ = self.file.sync_data();
            self.crashed = true;
            return Err(DashError::Storage(format!("simulated crash in append: {msg}")));
        }
        self.buffer.extend_from_slice(&frame);
        match self.sync {
            SyncPolicy::Always => self.flush(),
            SyncPolicy::Commit
                if !defer_boundary_flush
                    && matches!(
                        rec,
                        WalRecord::Commit { .. }
                            | WalRecord::Abort { .. }
                            | WalRecord::CreateTable { .. }
                            | WalRecord::DropTable { .. }
                            | WalRecord::Truncate { .. }
                    ) =>
            {
                self.flush()
            }
            _ => Ok(()),
        }
    }

    /// The batch flush matching [`Wal::append_deferred`]: under
    /// [`SyncPolicy::Commit`] force the deferred records out in one sync;
    /// under `Always` they are already on disk and under `Never` the
    /// policy says not to sync at commit boundaries at all, so both are
    /// no-ops (without re-evaluating the [`WAL_FSYNC`] failpoint).
    pub fn flush_commit(&mut self) -> Result<()> {
        if self.crashed {
            return Err(self.dead());
        }
        match self.sync {
            SyncPolicy::Commit => self.flush(),
            SyncPolicy::Always | SyncPolicy::Never => Ok(()),
        }
    }

    /// Completed physical syncs on this log so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Force buffered records to the file and sync it. Evaluates the
    /// [`WAL_FSYNC`] failpoint: a simulated power loss drops the buffered
    /// records entirely.
    pub fn flush(&mut self) -> Result<()> {
        if self.crashed {
            return Err(self.dead());
        }
        if let Some(FaultAction::Error(msg)) = self.faults.evaluate(WAL_FSYNC) {
            self.buffer.clear();
            self.crashed = true;
            return Err(DashError::Storage(format!("simulated power loss at fsync: {msg}")));
        }
        self.write_out()
    }

    fn write_out(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.buffer)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| DashError::Storage(format!("wal write {}: {e}", self.path.display())))?;
        self.buffer.clear();
        self.fsyncs += 1;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if !self.crashed {
            let _ = self.write_out();
        }
    }
}

/// What a full read of a log file produced.
#[derive(Debug)]
pub struct WalReadOutcome {
    /// Valid records, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn tail / corruption) that were
    /// dropped.
    pub truncated_bytes: u64,
}

/// Read a log file, stopping at the first torn or corrupt frame. Missing
/// files read as empty logs.
pub fn read_wal(path: &Path) -> Result<WalReadOutcome> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)
                .map_err(|e| DashError::Storage(format!("wal read {}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(DashError::Storage(format!("wal open {}: {e}", path.display())));
        }
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos + 8 > data.len() {
            break; // short header = torn tail
        }
        let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        if len > MAX_RECORD_LEN {
            break; // implausible length = corruption
        }
        let (start, end) = (pos + 8, pos + 8 + len as usize);
        if end > data.len() {
            break; // torn payload
        }
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break; // flipped bits
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break, // CRC matched but the payload is malformed
        }
        pos = end;
    }
    Ok(WalReadOutcome {
        records,
        valid_len: pos as u64,
        truncated_bytes: (data.len() - pos) as u64,
    })
}

/// Truncate a log file to its valid prefix (recovery's tail repair).
pub fn truncate_wal(path: &Path, valid_len: u64) -> Result<()> {
    let f = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| DashError::Storage(format!("wal truncate open {}: {e}", path.display())))?;
    f.set_len(valid_len)
        .and_then(|()| f.sync_data())
        .map_err(|e| DashError::Storage(format!("wal truncate {}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// Checkpoint snapshot file.
// ---------------------------------------------------------------------

/// One table's full state inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Catalog-folded durable table name.
    pub name: String,
    /// Column definitions.
    pub schema: Schema,
    /// Every row position in TSN order — including deleted rows and
    /// aborted-insert placeholders, so TSNs keep their meaning for the
    /// log that follows the checkpoint. Each entry is
    /// `(values, insert_ts, delete_ts)`.
    pub rows: Vec<(Row, u64, u64)>,
}

/// A full durable-state snapshot: the recovery starting point.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Monotonic checkpoint generation; the live WAL is `wal.<gen>.log`.
    pub generation: u64,
    /// Commit clock at the time of the checkpoint.
    pub clock: u64,
    /// Next transaction id to hand out.
    pub next_txn: u64,
    /// Every durable table.
    pub tables: Vec<TableSnapshot>,
}

impl Default for CheckpointData {
    fn default() -> Self {
        CheckpointData {
            generation: 0,
            clock: 0,
            next_txn: 1,
            tables: Vec::new(),
        }
    }
}

const CKPT_MAGIC: &[u8; 8] = b"DASHCKPT";

/// Serialize and atomically write a checkpoint (tmp file + rename).
pub fn write_checkpoint(path: &Path, data: &CheckpointData) -> Result<()> {
    let mut e = Enc(Vec::new());
    e.u64(data.generation);
    e.u64(data.clock);
    e.u64(data.next_txn);
    e.u32(data.tables.len() as u32);
    for t in &data.tables {
        e.str(&t.name);
        e.schema(&t.schema);
        e.u64(t.rows.len() as u64);
        for (row, ins, del) in &t.rows {
            e.row(row);
            e.u64(*ins);
            e.u64(*del);
        }
    }
    let payload = e.0;
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(CKPT_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);

    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| DashError::Storage(format!("checkpoint write {}: {e}", path.display()));
    let mut f = File::create(&tmp).map_err(io)?;
    f.write_all(&out).and_then(|()| f.sync_all()).map_err(io)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(io)?;
    // Sync the directory so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read a checkpoint file. `Ok(None)` when the file does not exist (cold
/// start); corrupt checkpoints are an error — unlike a torn log tail,
/// a damaged checkpoint is not recoverable from later data.
pub fn read_checkpoint(path: &Path) -> Result<Option<CheckpointData>> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)
                .map_err(|e| DashError::Storage(format!("checkpoint read {}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(DashError::Storage(format!(
                "checkpoint open {}: {e}",
                path.display()
            )));
        }
    }
    let corrupt = || DashError::Storage(format!("checkpoint {} is corrupt", path.display()));
    if data.len() < 20 || &data[..8] != CKPT_MAGIC {
        return Err(corrupt());
    }
    let len = u64::from_le_bytes(data[8..16].try_into().map_err(|_| corrupt())?) as usize;
    let crc = u32::from_le_bytes(data[16..20].try_into().map_err(|_| corrupt())?);
    if data.len() < 20 + len {
        return Err(corrupt());
    }
    let payload = &data[20..20 + len];
    if crc32(payload) != crc {
        return Err(corrupt());
    }
    let mut d = Dec::new(payload);
    let generation = d.u64("generation")?;
    let clock = d.u64("clock")?;
    let next_txn = d.u64("next txn")?;
    let ntables = d.u32("table count")? as usize;
    let mut tables = Vec::with_capacity(ntables.min(4096));
    for _ in 0..ntables {
        let name = d.str("table name")?;
        let schema = d.schema()?;
        let nrows = d.u64("row count")? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            let row = d.row()?;
            let ins = d.u64("insert ts")?;
            let del = d.u64("delete ts")?;
            rows.push((row, ins, del));
        }
        tables.push(TableSnapshot { name, schema, rows });
    }
    d.done()?;
    Ok(Some(CheckpointData {
        generation,
        clock,
        next_txn,
        tables,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::faults::FaultPolicy;
    use dash_common::row;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dash-wal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int64),
            Field::new("v", DataType::Utf8),
        ])
        .unwrap();
        vec![
            WalRecord::CreateTable {
                name: "T".into(),
                schema,
            },
            WalRecord::Begin { txn: TxnId(1) },
            WalRecord::Insert {
                txn: TxnId(1),
                table: "T".into(),
                tsn: Tsn(0),
                row: row![7i64, "seven"],
            },
            WalRecord::Delete {
                txn: TxnId(1),
                table: "T".into(),
                tsn: Tsn(0),
            },
            WalRecord::Commit { txn: TxnId(1), ts: 3 },
            WalRecord::Abort { txn: TxnId(2) },
            WalRecord::Truncate { name: "T".into() },
            WalRecord::DropTable { name: "T".into() },
        ]
    }

    #[test]
    fn record_roundtrip() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let recs = sample_records();
        {
            let mut wal =
                Wal::create(&path, SyncPolicy::Commit, FaultRegistry::new()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records, recs);
        assert_eq!(out.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_stops_reader() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        let recs = sample_records();
        {
            let mut wal =
                Wal::create(&path, SyncPolicy::Always, FaultRegistry::new()).unwrap();
            for r in &recs {
                wal.append(r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-frame: drop the last 3 bytes.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), recs.len() - 1);
        assert!(out.truncated_bytes > 0);
        truncate_wal(&path, out.valid_len).unwrap();
        let again = read_wal(&path).unwrap();
        assert_eq!(again.truncated_bytes, 0);
        assert_eq!(again.records.len(), recs.len() - 1);
    }

    #[test]
    fn flipped_bit_stops_reader() {
        let dir = tmpdir("flip");
        let path = dir.join("wal.log");
        {
            let mut wal =
                Wal::create(&path, SyncPolicy::Always, FaultRegistry::new()).unwrap();
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let out = read_wal(&path).unwrap();
        // The prefix before the damaged frame survives; nothing after it
        // is returned even if later frames are intact (no resync).
        assert!(out.records.len() < sample_records().len());
        assert!(out.truncated_bytes > 0);
    }

    #[test]
    fn commit_failpoint_loses_commit_keeps_data() {
        let dir = tmpdir("commitfp");
        let path = dir.join("wal.log");
        let faults = FaultRegistry::new();
        faults.arm(
            WAL_COMMIT,
            FaultPolicy::OneShot,
            FaultAction::Error("kill".into()),
        );
        let mut wal = Wal::create(&path, SyncPolicy::Commit, faults).unwrap();
        wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
        wal.append(&WalRecord::Insert {
            txn: TxnId(1),
            table: "T".into(),
            tsn: Tsn(0),
            row: row![1i64],
        })
        .unwrap();
        let err = wal
            .append(&WalRecord::Commit { txn: TxnId(1), ts: 1 })
            .unwrap_err();
        assert_eq!(err.class(), "58030");
        assert!(wal.crashed());
        // Everything after the crash fails.
        assert!(wal.append(&WalRecord::Abort { txn: TxnId(1) }).is_err());
        drop(wal);
        let out = read_wal(&path).unwrap();
        // Data records reached the file; the commit did not.
        assert_eq!(out.records.len(), 2);
        assert!(!out
            .records
            .iter()
            .any(|r| matches!(r, WalRecord::Commit { .. })));
    }

    #[test]
    fn append_failpoint_leaves_torn_frame() {
        let dir = tmpdir("appendfp");
        let path = dir.join("wal.log");
        let faults = FaultRegistry::new();
        let mut wal = Wal::create(&path, SyncPolicy::Always, faults.clone()).unwrap();
        wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
        faults.arm(
            WAL_APPEND,
            FaultPolicy::OneShot,
            FaultAction::Error("kill".into()),
        );
        assert!(wal
            .append(&WalRecord::Commit { txn: TxnId(1), ts: 1 })
            .is_err());
        drop(wal);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records, vec![WalRecord::Begin { txn: TxnId(1) }]);
        assert!(out.truncated_bytes > 0, "torn frame bytes present");
    }

    #[test]
    fn fsync_failpoint_drops_buffered_records() {
        let dir = tmpdir("fsyncfp");
        let path = dir.join("wal.log");
        let faults = FaultRegistry::new();
        let mut wal = Wal::create(&path, SyncPolicy::Commit, faults.clone()).unwrap();
        wal.append(&WalRecord::Begin { txn: TxnId(1) }).unwrap();
        faults.arm(
            WAL_FSYNC,
            FaultPolicy::OneShot,
            FaultAction::Error("power loss".into()),
        );
        assert!(wal
            .append(&WalRecord::Commit { txn: TxnId(1), ts: 1 })
            .is_err());
        drop(wal);
        let out = read_wal(&path).unwrap();
        assert!(out.records.is_empty(), "unsynced records lost: {:?}", out.records);
        assert_eq!(out.truncated_bytes, 0);
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption() {
        let dir = tmpdir("ckpt");
        let path = dir.join("checkpoint.dat");
        assert!(read_checkpoint(&path).unwrap().is_none());
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int64)]).unwrap();
        let data = CheckpointData {
            generation: 2,
            clock: 17,
            next_txn: 9,
            tables: vec![TableSnapshot {
                name: "T".into(),
                schema,
                rows: vec![
                    (row![1i64], 3, u64::MAX),
                    (row![2i64], u64::MAX, u64::MAX),
                    (row![3i64], 4, 9),
                ],
            }],
        };
        write_checkpoint(&path, &data).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap(), data);
        // Corruption is an error, not a silent empty state.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint(&path).is_err());
    }
}
