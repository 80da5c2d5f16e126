//! The catalog: tables, views, sequences, aliases, temporary objects.

use dash_common::dialect::{Dialect, DialectSet};
use dash_common::ids::SessionId;
use dash_common::{DashError, Datum, Result, Schema};
use dash_exec::functions::{EvalContext, Returns, ScalarFunction, ScalarImpl, SequenceSource};
use dash_exec::plan::SharedTable;
use dash_sql::planner::{SchemaProvider, TableHandle};
use dash_storage::bufferpool::BufferPool;
use dash_storage::table::ColumnTable;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone)]
struct TableEntry {
    id: u32,
    table: SharedTable,
    /// Owning session for temporary tables (dropped on session close).
    owner: Option<SessionId>,
}

struct SequenceState {
    next: i64,
    increment: i64,
    current: Option<i64>,
}

struct NicknameState {
    connector: Arc<dyn crate::fluid::Connector>,
    remote_table: String,
    cache: TableEntry,
    cached_version: Mutex<u64>,
}

/// The shared catalog of one database (one shard in MPP deployments).
pub struct Catalog {
    tables: RwLock<HashMap<String, TableEntry>>,
    views: RwLock<HashMap<String, (String, Dialect)>>,
    sequences: Mutex<HashMap<String, SequenceState>>,
    aliases: RwLock<HashMap<String, String>>,
    /// User-defined extension functions (§II.C.4).
    udx: RwLock<HashMap<String, Arc<ScalarFunction>>>,
    /// Fluid Query nicknames (§II.C.6).
    nicknames: RwLock<HashMap<String, NicknameState>>,
    next_table_id: Mutex<u32>,
    /// Shared buffer pool for scan accounting (None = untracked).
    pub(crate) pool: Option<Arc<Mutex<BufferPool>>>,
    /// Intra-query scan parallelism handed to planners.
    pub(crate) parallelism: std::sync::atomic::AtomicUsize,
    /// Rows per parallel sort run handed to planners.
    pub(crate) sort_run_rows: std::sync::atomic::AtomicUsize,
    /// Pipeline in-flight morsel window (`DASH_PIPELINE_INFLIGHT`;
    /// 0 = auto, parallelism × 4).
    pub(crate) pipeline_inflight: std::sync::atomic::AtomicUsize,
    /// Scan predicates run on compressed codes (`false`: decode, then
    /// compare — the Table 1 Test 4 comparator).
    compressed_predicates: std::sync::atomic::AtomicBool,
}

impl Catalog {
    /// Empty catalog, optionally tracking a buffer pool.
    pub fn new(pool: Option<Arc<Mutex<BufferPool>>>) -> Catalog {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            sequences: Mutex::new(HashMap::new()),
            aliases: RwLock::new(HashMap::new()),
            udx: RwLock::new(HashMap::new()),
            nicknames: RwLock::new(HashMap::new()),
            next_table_id: Mutex::new(0),
            pool,
            parallelism: std::sync::atomic::AtomicUsize::new(1),
            sort_run_rows: std::sync::atomic::AtomicUsize::new(
                dash_exec::sort::DEFAULT_SORT_RUN_ROWS,
            ),
            pipeline_inflight: std::sync::atomic::AtomicUsize::new(0),
            compressed_predicates: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Set the intra-query parallelism the auto-configuration derived.
    pub fn set_parallelism(&self, n: usize) {
        self.parallelism
            .store(n.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Set the parallel-sort run size the auto-configuration derived
    /// (`DASH_SORT_RUN_ROWS`).
    pub fn set_sort_run_rows(&self, n: usize) {
        self.sort_run_rows
            .store(n.max(1), std::sync::atomic::Ordering::Relaxed);
    }

    /// Set the pipeline in-flight morsel window (`DASH_PIPELINE_INFLIGHT`;
    /// 0 = auto).
    pub fn set_pipeline_inflight(&self, n: usize) {
        self.pipeline_inflight
            .store(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Switch predicate evaluation on compressed codes, and with it
    /// synopsis skipping, off (`false`) or back on. Off, every filter
    /// conjunct decodes its column before comparing: BLU's scan techniques
    /// ablated on the same parser, planner and executor.
    pub fn set_compressed_predicates(&self, on: bool) {
        self.compressed_predicates
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Inert: every plan runs pipelined. A later `benchmark` PR removes it.
    pub fn pipeline_enabled(&self) -> bool {
        true
    }

    /// The configured pipeline in-flight window (0 = auto).
    pub fn pipeline_inflight(&self) -> usize {
        self.pipeline_inflight
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    fn fold(name: &str) -> String {
        name.to_ascii_uppercase()
    }

    /// Internal key for a session-private temporary table.
    fn temp_key(session: SessionId, name: &str) -> String {
        format!("__TMP{}__{}", session.0, Self::fold(name))
    }

    /// Create a table. Errors if the name is taken (by a table or view).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        owner: Option<SessionId>,
    ) -> Result<SharedTable> {
        // Temporary tables live in a per-session namespace ("different
        // users could not see what other users are doing"): two sessions
        // may DECLARE the same name without collision, and neither shadows
        // a permanent table check below.
        let key = match owner {
            Some(sid) => Self::temp_key(sid, name),
            None => Self::fold(name),
        };
        if self.views.read().contains_key(&key) {
            return Err(DashError::already_exists("view", &key));
        }
        if self.nicknames.read().contains_key(&key) {
            return Err(DashError::already_exists("nickname", &key));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(DashError::already_exists("table", &key));
        }
        let mut next = self.next_table_id.lock();
        let id = *next;
        *next += 1;
        drop(next);
        let table: SharedTable = Arc::new(RwLock::new(ColumnTable::new(key.clone(), schema)));
        tables.insert(
            key,
            TableEntry {
                id,
                table: table.clone(),
                owner,
            },
        );
        Ok(table)
    }

    /// Drop a table. `if_exists` suppresses the not-found error. When a
    /// session is given, its temporary table of that name drops first.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<bool> {
        self.drop_table_for(name, if_exists, None)
    }

    /// Session-aware drop (temporaries first).
    pub fn drop_table_for(
        &self,
        name: &str,
        if_exists: bool,
        session: Option<SessionId>,
    ) -> Result<bool> {
        if let Some(sid) = session {
            if self.tables.write().remove(&Self::temp_key(sid, name)).is_some() {
                return Ok(true);
            }
        }
        let key = self.resolve_alias(&Self::fold(name));
        let removed = self.tables.write().remove(&key).is_some();
        if !removed && !if_exists {
            return Err(DashError::not_found("table", key));
        }
        Ok(removed)
    }

    /// Look up a table (following aliases and nicknames), returning its
    /// handle. Nickname caches refresh here when the remote changed.
    pub fn table_handle(&self, name: &str) -> Result<TableHandle> {
        self.table_handle_for(name, None)
    }

    /// Session-aware lookup: the session's temporary tables resolve first.
    pub fn table_handle_for(
        &self,
        name: &str,
        session: Option<SessionId>,
    ) -> Result<TableHandle> {
        if let Some(sid) = session {
            let tkey = Self::temp_key(sid, name);
            if let Some(e) = self.tables.read().get(&tkey) {
                return Ok(TableHandle {
                    id: e.id,
                    table: e.table.clone(),
                });
            }
        }
        let key = self.resolve_alias(&Self::fold(name));
        {
            let tables = self.tables.read();
            if let Some(e) = tables.get(&key) {
                return Ok(TableHandle {
                    id: e.id,
                    table: e.table.clone(),
                });
            }
        }
        // Catalog introspection views (the console's data source).
        if key.starts_with("SYSCAT_") {
            if let Some(handle) = self.syscat(&key)? {
                return Ok(handle);
            }
        }
        // Nickname path.
        let nicknames = self.nicknames.read();
        if let Some(n) = nicknames.get(&key) {
            let current = n.connector.version(&n.remote_table);
            let mut cached = n.cached_version.lock();
            if *cached != current {
                let rows = n.connector.fetch(&n.remote_table)?;
                n.cache.table.write().load_rows(rows)?;
                *cached = current;
            }
            return Ok(TableHandle {
                id: n.cache.id,
                table: n.cache.table.clone(),
            });
        }
        Err(DashError::not_found("table", key))
    }

    /// True if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables
            .read()
            .contains_key(&self.resolve_alias(&Self::fold(name)))
    }

    /// All table names (sorted; excludes temporaries of other sessions).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn resolve_alias(&self, name: &str) -> String {
        match self.aliases.read().get(name) {
            Some(target) => target.clone(),
            None => name.to_string(),
        }
    }

    /// Register a DB2 alias.
    pub fn create_alias(&self, name: &str, target: &str) -> Result<()> {
        let key = Self::fold(name);
        if self.tables.read().contains_key(&key) {
            return Err(DashError::already_exists("table", &key));
        }
        self.aliases
            .write()
            .insert(key, Self::fold(target));
        Ok(())
    }

    /// Register a view with the dialect it was created under.
    pub fn create_view(&self, name: &str, text: String, dialect: Dialect) -> Result<()> {
        let key = Self::fold(name);
        if self.tables.read().contains_key(&key) {
            return Err(DashError::already_exists("table", &key));
        }
        self.views.write().insert(key, (text, dialect));
        Ok(())
    }

    /// Drop a view.
    pub fn drop_view(&self, name: &str, if_exists: bool) -> Result<()> {
        let removed = self.views.write().remove(&Self::fold(name)).is_some();
        if !removed && !if_exists {
            return Err(DashError::not_found("view", name));
        }
        Ok(())
    }

    /// Create a sequence.
    pub fn create_sequence(&self, name: &str, start: i64, increment: i64) -> Result<()> {
        let key = Self::fold(name);
        let mut seqs = self.sequences.lock();
        if seqs.contains_key(&key) {
            return Err(DashError::already_exists("sequence", &key));
        }
        seqs.insert(
            key,
            SequenceState {
                next: start,
                increment: if increment == 0 { 1 } else { increment },
                current: None,
            },
        );
        Ok(())
    }

    /// Drop a sequence.
    pub fn drop_sequence(&self, name: &str) -> Result<()> {
        if self.sequences.lock().remove(&Self::fold(name)).is_none() {
            return Err(DashError::not_found("sequence", name));
        }
        Ok(())
    }

    /// Register a user-defined extension function, visible in the given
    /// dialects ("allows users and application developers to extend the
    /// set of built-in functions with custom ones using the user defined
    /// extension (UDX) language framework", §II.C.4). UDXes shadow
    /// same-named builtins.
    #[allow(clippy::type_complexity)]
    pub fn register_udx(
        &self,
        name: &str,
        dialects: DialectSet,
        min_args: usize,
        max_args: usize,
        returns: dash_common::DataType,
        eval: Arc<dyn Fn(&[Datum], &EvalContext) -> Result<Datum> + Send + Sync>,
    ) {
        let upper = name.to_ascii_uppercase();
        self.udx.write().insert(
            upper.clone(),
            Arc::new(ScalarFunction {
                name: upper,
                dialects,
                min_args,
                max_args,
                returns: Returns::Fixed(returns),
                eval: ScalarImpl::User(eval),
            }),
        );
    }

    /// Remove a UDX; `true` if it existed.
    pub fn drop_udx(&self, name: &str) -> bool {
        self.udx.write().remove(&name.to_ascii_uppercase()).is_some()
    }

    /// Create a Fluid Query nickname for a remote object (§II.C.6,
    /// Figure 5's "Add Nickname"). The remote data materializes into a
    /// local cache table lazily and refreshes when the remote changes.
    pub fn create_nickname(
        &self,
        name: &str,
        connector: Arc<dyn crate::fluid::Connector>,
        remote_table: &str,
    ) -> Result<()> {
        let key = Self::fold(name);
        if self.tables.read().contains_key(&key)
            || self.nicknames.read().contains_key(&key)
        {
            return Err(DashError::already_exists("table", &key));
        }
        let schema = connector.schema(remote_table)?;
        let mut next = self.next_table_id.lock();
        let id = *next;
        *next += 1;
        drop(next);
        let cache = TableEntry {
            id,
            table: Arc::new(RwLock::new(ColumnTable::new(key.clone(), schema))),
            owner: None,
        };
        self.nicknames.write().insert(
            key,
            NicknameState {
                connector,
                remote_table: remote_table.to_string(),
                cache,
                // Force a fetch on first access.
                cached_version: Mutex::new(u64::MAX),
            },
        );
        Ok(())
    }

    /// Drop a nickname; `true` if it existed.
    pub fn drop_nickname(&self, name: &str) -> bool {
        self.nicknames.write().remove(&Self::fold(name)).is_some()
    }

    /// Build a SYSCAT introspection table on the fly. Supported:
    /// `SYSCAT_TABLES` (name, live_rows, total_rows, compressed_bytes,
    /// synopsis_bytes, strides), `SYSCAT_COLUMNS` (table, column, ordinal,
    /// type, nullable, encoding), `SYSCAT_FUNCTIONS` (name, min_args,
    /// max_args, kind).
    fn syscat(&self, key: &str) -> Result<Option<TableHandle>> {
        use dash_common::types::DataType;
        use dash_common::{row, Field, Row};
        let (schema, rows): (Schema, Vec<Row>) = match key {
            "SYSCAT_TABLES" => {
                let schema = Schema::new(vec![
                    Field::not_null("name", DataType::Utf8),
                    Field::new("live_rows", DataType::Int64),
                    Field::new("total_rows", DataType::Int64),
                    Field::new("compressed_bytes", DataType::Int64),
                    Field::new("synopsis_bytes", DataType::Int64),
                    Field::new("strides", DataType::Int64),
                ])?;
                let mut rows = Vec::new();
                for (name, entry) in self.tables.read().iter() {
                    let t = entry.table.read();
                    let stats = t.stats();
                    rows.push(row![
                        name.as_str(),
                        stats.live_rows as i64,
                        stats.total_rows as i64,
                        stats.compressed_bytes as i64,
                        stats.synopsis_bytes as i64,
                        stats.sealed_strides as i64
                    ]);
                }
                (schema, rows)
            }
            "SYSCAT_COLUMNS" => {
                let schema = Schema::new(vec![
                    Field::not_null("table_name", DataType::Utf8),
                    Field::not_null("column_name", DataType::Utf8),
                    Field::new("ordinal", DataType::Int32),
                    Field::new("type_name", DataType::Utf8),
                    Field::new("nullable", DataType::Bool),
                    Field::new("encoding", DataType::Utf8),
                ])?;
                let mut rows = Vec::new();
                for (name, entry) in self.tables.read().iter() {
                    let t = entry.table.read();
                    for (i, f) in t.schema().fields().iter().enumerate() {
                        rows.push(row![
                            name.as_str(),
                            f.name.as_str(),
                            i as i64,
                            f.data_type.sql_name(),
                            f.nullable,
                            t.encoding(i).map(|e| e.name())
                        ]);
                    }
                }
                (schema, rows)
            }
            "SYSCAT_FUNCTIONS" => {
                let schema = Schema::new(vec![
                    Field::not_null("name", DataType::Utf8),
                    Field::new("min_args", DataType::Int32),
                    Field::new("max_args", DataType::Int32),
                    Field::new("kind", DataType::Utf8),
                ])?;
                let mut rows = Vec::new();
                let builtins = dash_exec::functions::builtin_registry();
                for name in builtins.names() {
                    let f = builtins.get(&name).expect("listed");
                    rows.push(row![
                        name.as_str(),
                        f.min_args as i64,
                        (f.max_args.min(i32::MAX as usize)) as i64,
                        "builtin"
                    ]);
                }
                for (name, f) in self.udx.read().iter() {
                    rows.push(row![
                        name.as_str(),
                        f.min_args as i64,
                        (f.max_args.min(i32::MAX as usize)) as i64,
                        "udx"
                    ]);
                }
                (schema, rows)
            }
            _ => return Ok(None),
        };
        let mut table = ColumnTable::new(key.to_string(), schema);
        table.load_rows(rows)?;
        Ok(Some(TableHandle {
            // A reserved id range keeps SYSCAT page keys away from user
            // tables in the buffer pool.
            id: u32::MAX,
            table: Arc::new(RwLock::new(table)),
        }))
    }

    /// The WAL key for a table if it is durable: a permanent catalog table
    /// resolved through aliases. Session temporaries, SYSCAT views, and
    /// nickname caches return `None` — they are volatile by design and
    /// never logged.
    pub fn durable_key(&self, name: &str, session: Option<SessionId>) -> Option<String> {
        if let Some(sid) = session {
            if self.tables.read().contains_key(&Self::temp_key(sid, name)) {
                return None;
            }
        }
        let key = self.resolve_alias(&Self::fold(name));
        match self.tables.read().get(&key) {
            Some(e) if e.owner.is_none() => Some(key),
            _ => None,
        }
    }

    /// Every durable (permanent) table with its handle, sorted by name —
    /// the checkpoint's input.
    pub fn durable_tables(&self) -> Vec<(String, SharedTable)> {
        let mut v: Vec<(String, SharedTable)> = self
            .tables
            .read()
            .iter()
            .filter(|(_, e)| e.owner.is_none())
            .map(|(k, e)| (k.clone(), e.table.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Drop all temporary objects owned by a session.
    pub fn drop_session_objects(&self, session: SessionId) {
        self.tables
            .write()
            .retain(|_, e| e.owner != Some(session));
    }
}

impl SchemaProvider for Catalog {
    fn table(&self, name: &str) -> Result<TableHandle> {
        self.table_handle(name)
    }

    fn view(&self, name: &str) -> Option<(String, Dialect)> {
        self.views.read().get(&Self::fold(name)).cloned()
    }

    fn pool(&self) -> Option<Arc<Mutex<BufferPool>>> {
        self.pool.clone()
    }

    fn udx(&self, name: &str) -> Option<Arc<ScalarFunction>> {
        self.udx.read().get(&name.to_ascii_uppercase()).cloned()
    }

    fn parallelism(&self) -> usize {
        self.parallelism.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn sort_run_rows(&self) -> usize {
        self.sort_run_rows.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn compressed_predicates(&self) -> bool {
        self.compressed_predicates
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl SequenceSource for Catalog {
    fn next_value(&self, name: &str) -> Result<i64> {
        let key = Self::fold(name);
        let mut seqs = self.sequences.lock();
        match seqs.get_mut(&key) {
            Some(s) => {
                let v = s.next;
                s.next += s.increment;
                s.current = Some(v);
                Ok(v)
            }
            None => Err(DashError::not_found("sequence", key)),
        }
    }

    fn current_value(&self, name: &str) -> Result<i64> {
        let key = Self::fold(name);
        let seqs = self.sequences.lock();
        match seqs.get(&key) {
            Some(s) => s.current.ok_or_else(|| {
                DashError::exec(format!(
                    "sequence {key} CURRVAL is not yet defined in this session"
                ))
            }),
            None => Err(DashError::not_found("sequence", key)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::types::DataType;
    use dash_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap()
    }

    #[test]
    fn table_lifecycle() {
        let c = Catalog::new(None);
        c.create_table("t1", schema(), None).unwrap();
        assert!(c.has_table("T1"));
        assert!(c.create_table("T1", schema(), None).is_err());
        assert!(c.table_handle("t1").is_ok());
        assert!(c.drop_table("t1", false).unwrap());
        assert!(c.table_handle("t1").is_err());
        assert!(c.drop_table("t1", false).is_err());
        assert!(!c.drop_table("t1", true).unwrap());
    }

    #[test]
    fn aliases_resolve() {
        let c = Catalog::new(None);
        c.create_table("orders", schema(), None).unwrap();
        c.create_alias("o", "orders").unwrap();
        assert!(c.table_handle("O").is_ok());
        // Alias cannot shadow an existing table.
        assert!(c.create_alias("orders", "x").is_err());
    }

    #[test]
    fn sequences() {
        let c = Catalog::new(None);
        c.create_sequence("s", 10, 5).unwrap();
        assert!(c.current_value("s").is_err(), "CURRVAL before NEXTVAL");
        assert_eq!(c.next_value("s").unwrap(), 10);
        assert_eq!(c.next_value("s").unwrap(), 15);
        assert_eq!(c.current_value("s").unwrap(), 15);
        assert!(c.create_sequence("s", 1, 1).is_err());
        c.drop_sequence("s").unwrap();
        assert!(c.next_value("s").is_err());
    }

    #[test]
    fn temp_tables_die_with_session() {
        let c = Catalog::new(None);
        let sid = SessionId(7);
        c.create_table("perm", schema(), None).unwrap();
        c.create_table("tmp", schema(), Some(sid)).unwrap();
        c.drop_session_objects(sid);
        assert!(c.has_table("perm"));
        assert!(!c.has_table("tmp"));
    }

    #[test]
    fn views_keep_dialect() {
        let c = Catalog::new(None);
        c.create_view("v", "SELECT 1 FROM DUAL".into(), Dialect::Oracle)
            .unwrap();
        let (text, d) = SchemaProvider::view(&c, "v").unwrap();
        assert_eq!(d, Dialect::Oracle);
        assert!(text.contains("DUAL"));
        c.drop_view("v", false).unwrap();
        assert!(SchemaProvider::view(&c, "v").is_none());
    }
}
