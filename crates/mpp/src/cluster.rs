//! The MPP cluster: shard placement and distributed execution.
//!
//! Data is "sharded (hash partitioned) into the storage onto a number of
//! shards that is several factors larger than the number of servers"
//! (§II.E). The coordinator:
//!
//! * routes DDL to every shard and DML rows by hash of the distribution
//!   key (replicated tables go everywhere — the standard MPP treatment of
//!   dimension tables, which keeps joins co-located);
//! * splits every SELECT into a **shard statement** and a **final
//!   statement**, scatters the first to all live shards in parallel, loads
//!   what they return into a scratch table of its own engine, and runs
//!   the second over it. An aggregating query's shards project the GROUP
//!   BY keys and the partial aggregates (COUNT/SUM/MIN/MAX decompose, AVG
//!   splits into SUM + COUNT); its final statement is the user's own with
//!   FROM replaced by the gathered relation and each aggregate call by its
//!   merge expression, so HAVING, DISTINCT, ORDER BY, LIMIT and OFFSET are
//!   the engine's. The coordinator owns routing, retries, assignment
//!   epochs and the statement's deadline — and no operator.
//!
//! A statement has one clock and one pool. Its [`StatementContext`] is
//! deadline-armed, so every check site — a morsel claim, a WLM queue
//! wait, a stalled shard attempt — observes the deadline without a timer
//! thread, and each scatter round runs its shard attempts as the morsels
//! of one [`pool::run_morsels`] drive, the fan-out every operator uses.

use crate::clusterfs::ClusterFs;
use crate::ha::{balance_assignments, RebalanceReport};
use dash_common::dialect::Dialect;
use dash_common::faults::{
    FaultAction, FaultRegistry, GATHER_LOAD, NODE_CRASH, REBALANCE_DURING_SCATTER, SHARD_EXEC,
    SHARD_MOVE,
};
use dash_common::fxhash::{hash_bytes, FxHashMap};
use dash_common::ids::{NodeId, ShardId};
use dash_common::{DashError, Datum, Result, Row, Schema, StatementContext};
use dash_core::monitor::Monitor;
use dash_core::{Database, HardwareSpec, QueryResult};
use dash_exec::agg::AggFunc;
use dash_exec::pool;
use dash_sql::ast::{AstExpr, BinOp, OrderItem, SelectItem, SelectStmt, Statement, TableRef};
use dash_sql::parser::parse_statement;
use dash_sql::planner::{collect_aggregates, rewrite_post_agg};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-shard attempts before the coordinator stops blaming the statement
/// and declares the assigned node dead.
const SHARD_MAX_ATTEMPTS: u32 = 3;

/// Sentinel owner for a shard found on the clustered filesystem but
/// missing from the published assignment map (damaged metadata). Never a
/// real member; `balance_assignments` treats it like a dead node and
/// re-places the shard.
const UNASSIGNED: NodeId = NodeId(u32::MAX);

/// A versioned, immutable snapshot of the shard → node assignment.
///
/// The cluster publishes exactly one current `AssignmentEpoch`; every
/// rebalance builds a fresh map and swaps it in atomically under a new
/// epoch number. Readers clone the snapshot (a `u64` plus an `Arc` bump)
/// and then read the map with no lock at all, so a statement that pinned
/// epoch `E` keeps seeing `E`'s complete map no matter how many
/// rebalances commit behind its back — the fix for the torn-read window
/// where one scatter round mixed shards from two assignment versions.
#[derive(Debug, Clone)]
pub struct AssignmentEpoch {
    /// Monotonically increasing version; bumped by every committed
    /// rebalance (failover, elastic grow/shrink, chaos-forced).
    pub epoch: u64,
    /// The complete shard → node map published at this epoch. Immutable
    /// once published.
    pub map: Arc<BTreeMap<ShardId, NodeId>>,
}

/// RAII record of which assignment epoch a statement has pinned, kept in
/// the coordinator's [`Monitor`] so operators can see why old epoch
/// snapshots are still referenced. Unpins on drop (every scatter exit
/// path) and re-pins explicitly on the deliberate epoch advances.
struct EpochPin<'a> {
    monitor: &'a Monitor,
    epoch: u64,
}

impl<'a> EpochPin<'a> {
    fn new(monitor: &'a Monitor, epoch: u64) -> EpochPin<'a> {
        monitor.record_epoch_pin(epoch);
        EpochPin { monitor, epoch }
    }

    fn repin(&mut self, epoch: u64) {
        self.monitor.record_epoch_unpin(self.epoch);
        self.monitor.record_epoch_pin(epoch);
        self.epoch = epoch;
    }
}

impl Drop for EpochPin<'_> {
    fn drop(&mut self) {
        self.monitor.record_epoch_unpin(self.epoch);
    }
}

/// Errors worth retrying on the same shard: storage hiccups (mount, page
/// read) and injected cluster transients. Planner/semantic errors are
/// deterministic and re-running them only wastes the retry budget.
fn is_transient(e: &DashError) -> bool {
    matches!(e.class(), "58030" | "57011")
}

/// What one shard attempt (with its internal retry loop) produced.
enum ShardOutcome {
    /// The shard statement's result, ready to gather.
    Rows(QueryResult),
    /// Deterministic failure — propagate to the caller unchanged.
    Fatal(DashError),
    /// Retries exhausted or the node crashed: the assigned node is dead,
    /// fail over and re-drive this shard elsewhere.
    NodeDown(NodeId, DashError),
    /// The statement's token flipped while this shard was in flight.
    Cancelled,
}

/// How a table's rows spread across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distribution {
    /// Hash-partitioned on a column (by name).
    Hash(String),
    /// Full copy on every shard (dimension tables).
    Replicated,
}

/// One cluster node (a host running one dashDB Local container).
#[derive(Debug, Clone)]
pub struct NodeState {
    /// Node hardware.
    pub hardware: HardwareSpec,
    /// Whether the node is serving.
    pub alive: bool,
}

/// The MPP cluster.
pub struct Cluster {
    fs: ClusterFs,
    nodes: RwLock<BTreeMap<NodeId, NodeState>>,
    /// The current shard → node assignment snapshot. The write lock is
    /// held only to compute-and-swap a new epoch; statements clone the
    /// snapshot once and read it lock-free thereafter.
    assignment: RwLock<AssignmentEpoch>,
    distributions: RwLock<FxHashMap<String, Distribution>>,
    dialect: Dialect,
    /// Shared failpoint registry: every layer (mounts, shard execution,
    /// buffer pools, rebalance moves) evaluates the same instance.
    faults: FaultRegistry,
    /// The coordinator's own engine: final statements run in its sessions
    /// over the gathered shard results, and its monitor is the cluster's.
    coordinator: Arc<Database>,
    /// Default per-statement wall-clock budget for distributed SELECTs
    /// issued through [`Cluster::query`]; [`Cluster::query_with_deadline`]
    /// overrides it per call, so concurrent statements never share (or
    /// clobber) each other's budget.
    deadline: RwLock<Option<Duration>>,
}

impl Cluster {
    /// Build a cluster of `node_count` identical nodes with
    /// `shards_per_node` shards each (the paper provisions several shards
    /// per server so failover can rebalance in shard-sized increments).
    pub fn new(node_count: usize, shards_per_node: usize, hw: HardwareSpec) -> Result<Cluster> {
        Cluster::with_faults(node_count, shards_per_node, hw, FaultRegistry::new())
    }

    /// Like [`Cluster::new`], but every layer of the cluster evaluates the
    /// given (typically seeded) failpoint registry — the entry point for
    /// deterministic chaos tests.
    pub fn with_faults(
        node_count: usize,
        shards_per_node: usize,
        hw: HardwareSpec,
        faults: FaultRegistry,
    ) -> Result<Cluster> {
        if node_count == 0 || shards_per_node == 0 {
            return Err(DashError::Cluster(format!(
                "cluster needs at least one node and one shard per node \
                 (got {node_count} nodes x {shards_per_node} shards)"
            )));
        }
        let fs = ClusterFs::with_faults(faults.clone());
        let mut nodes = BTreeMap::new();
        let mut assignment = BTreeMap::new();
        let total_shards = node_count * shards_per_node;
        for n in 0..node_count {
            nodes.insert(
                NodeId(n as u32),
                NodeState {
                    hardware: hw,
                    alive: true,
                },
            );
        }
        for s in 0..total_shards {
            let shard = ShardId(s as u32);
            let node = NodeId((s % node_count) as u32);
            let db = Database::with_hardware(hw);
            db.set_fault_registry(faults.clone());
            fs.create(shard, db)?;
            fs.mount_for(shard, node)?;
            assignment.insert(shard, node);
        }
        Ok(Cluster {
            fs,
            nodes: RwLock::new(nodes),
            assignment: RwLock::new(AssignmentEpoch {
                epoch: 0,
                map: Arc::new(assignment),
            }),
            distributions: RwLock::new(FxHashMap::default()),
            dialect: Dialect::Ansi,
            faults,
            coordinator: Database::untracked(),
            deadline: RwLock::new(None),
        })
    }

    /// The clustered filesystem (exposed for portability experiments).
    pub fn filesystem(&self) -> &ClusterFs {
        &self.fs
    }

    /// The cluster-wide failpoint registry (shared with every shard's
    /// buffer pool and the clustered filesystem).
    pub fn faults(&self) -> &FaultRegistry {
        &self.faults
    }

    /// The coordinator's monitoring store (statement + recovery counters).
    pub fn monitor(&self) -> &Monitor {
        self.coordinator.monitor()
    }

    /// Set (or clear) the *default* per-statement deadline applied by
    /// [`Cluster::query`]. Statements that need their own budget should
    /// use [`Cluster::query_with_deadline`], which never touches this
    /// shared default — so one statement's deadline cannot cancel
    /// another's.
    pub fn set_statement_deadline(&self, deadline: Option<Duration>) {
        *self.deadline.write() = deadline;
    }

    /// Override the SQL dialect distributed statements are parsed with
    /// (default ANSI).
    pub fn set_dialect(&mut self, dialect: Dialect) {
        self.dialect = dialect;
    }

    /// The current assignment epoch (bumped by every committed rebalance).
    pub fn assignment_epoch(&self) -> u64 {
        self.assignment.read().epoch
    }

    /// Clone the current assignment snapshot: one `u64` plus an `Arc`
    /// bump. The returned snapshot stays internally consistent forever.
    fn pin_assignment(&self) -> AssignmentEpoch {
        self.assignment.read().clone()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.fs.len()
    }

    /// Live node count.
    pub fn live_nodes(&self) -> usize {
        self.nodes.read().values().filter(|n| n.alive).count()
    }

    /// Shards per node: `(node, shard list)` for live nodes.
    pub fn shard_distribution(&self) -> Vec<(NodeId, Vec<ShardId>)> {
        let snapshot = self.pin_assignment();
        let mut by_node: BTreeMap<NodeId, Vec<ShardId>> = BTreeMap::new();
        for (n, st) in self.nodes.read().iter() {
            if st.alive {
                by_node.insert(*n, Vec::new());
            }
        }
        for (&s, &n) in snapshot.map.iter() {
            by_node.entry(n).or_default().push(s);
        }
        by_node.into_iter().collect()
    }

    /// Relative scan cost of a balanced query: the max shard count on any
    /// node (query time is gated by the busiest node; per Figure 9, losing
    /// one of four nodes moves this from 6 to 8 → a 1.33× slowdown).
    pub fn relative_query_cost(&self) -> f64 {
        self.shard_distribution()
            .iter()
            .map(|(_, shards)| shards.len())
            .max()
            .unwrap_or(0) as f64
    }

    // ---- DDL / DML routing -------------------------------------------------

    /// Create a table on every shard with a distribution policy.
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        distribution: Distribution,
    ) -> Result<()> {
        if let Distribution::Hash(col) = &distribution {
            if schema.index_of(col).is_none() {
                return Err(DashError::not_found("distribution column", col));
            }
        }
        for shard in self.fs.shards() {
            let fsd = self.fs.mount(shard)?;
            fsd.db.catalog().create_table(name, schema.clone(), None)?;
        }
        self.distributions
            .write()
            .insert(name.to_ascii_uppercase(), distribution);
        Ok(())
    }

    /// Route rows to shards per the table's distribution and bulk-load.
    pub fn load_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let dist = self
            .distributions
            .read()
            .get(&table.to_ascii_uppercase())
            .cloned()
            .ok_or_else(|| DashError::not_found("table", table))?;
        let shards = self.fs.shards();
        let n = rows.len() as u64;
        match dist {
            Distribution::Replicated => {
                for shard in &shards {
                    let fsd = self.fs.mount(*shard)?;
                    let handle = fsd.db.catalog().table_handle(table)?;
                    let mut t = handle.table.write();
                    for r in &rows {
                        t.insert(r.clone())?;
                    }
                }
            }
            Distribution::Hash(col) => {
                // Hash on the rendered key — stable across numeric kinds.
                let Some(&first_shard) = shards.first() else {
                    return Err(DashError::internal(
                        "cluster filesystem holds no shards (constructor guarantees >= 1)",
                    ));
                };
                let first = self.fs.mount(first_shard)?;
                let schema = first.db.catalog().table_handle(table)?.table.read().schema().clone();
                let key_idx = schema.resolve(&col)?;
                let mut per_shard: Vec<Vec<Row>> = vec![Vec::new(); shards.len()];
                for r in rows {
                    let key = r.get(key_idx).render();
                    let h = hash_bytes(key.as_bytes()) as usize % shards.len();
                    per_shard[h].push(r);
                }
                for (i, shard_rows) in per_shard.into_iter().enumerate() {
                    if shard_rows.is_empty() {
                        continue;
                    }
                    let fsd = self.fs.mount(shards[i])?;
                    let handle = fsd.db.catalog().table_handle(table)?;
                    let mut t = handle.table.write();
                    for r in shard_rows {
                        t.insert(r)?;
                    }
                }
            }
        }
        Ok(n)
    }

    /// Run a statement on every shard (DDL, UPDATE, DELETE broadcast).
    pub fn execute_all(&self, sql: &str) -> Result<u64> {
        let mut affected = 0;
        for shard in self.fs.shards() {
            let fsd = self.fs.mount(shard)?;
            let mut session = fsd.db.connect();
            session.set_dialect(self.dialect);
            affected += session.execute(sql)?.affected;
        }
        Ok(affected)
    }

    // ---- distributed query ---------------------------------------------------

    /// Execute a SELECT across the cluster: scatter its shard statement to
    /// live shards in parallel, gather, run its final statement over the
    /// gathered rows. Uses the cluster's default statement deadline (see
    /// [`Cluster::set_statement_deadline`]).
    pub fn query(&self, sql: &str) -> Result<Vec<Row>> {
        self.query_with_deadline(sql, *self.deadline.read())
    }

    /// Like [`Cluster::query`], but with an explicit per-statement
    /// deadline (`None` = run unbounded), ignoring the cluster default.
    /// The deadline travels with this call only; concurrent statements
    /// each keep their own budget.
    pub fn query_with_deadline(&self, sql: &str, deadline: Option<Duration>) -> Result<Vec<Row>> {
        let stmt = parse_statement(sql, self.dialect)?;
        let select = match stmt {
            Statement::Select(s) => *s,
            _ => {
                return Err(DashError::analysis(
                    "Cluster::query takes SELECT; use execute_all for DDL/DML",
                ))
            }
        };
        self.distributed_select(&select, deadline)
    }

    fn distributed_select(&self, stmt: &SelectStmt, deadline: Option<Duration>) -> Result<Vec<Row>> {
        let (shard_stmt, final_stmt) = match analyze_aggregation(stmt)? {
            Some(pair) => pair,
            None => {
                // Shards run the statement itself, minus what only holds
                // over the union. A LIMIT is pushed as a per-shard top-k:
                // each shard returns its best offset+limit rows under the
                // same ordering, and the final statement re-sorts,
                // de-duplicates and trims their union.
                let mut shard_stmt = stmt.clone();
                shard_stmt.offset = None;
                match stmt.limit {
                    Some(limit) => shard_stmt.limit = Some(limit + stmt.offset.unwrap_or(0)),
                    None => shard_stmt.order_by.clear(),
                }
                let final_stmt = SelectStmt {
                    distinct: stmt.distinct,
                    projection: vec![SelectItem::Wildcard],
                    from: vec![gathered()],
                    order_by: stmt.order_by.clone(),
                    limit: stmt.limit,
                    offset: stmt.offset,
                    ..SelectStmt::default()
                };
                (shard_stmt, final_stmt)
            }
        };
        // The statement's lifecycle spine: one deadline-armed token shared
        // by every shard attempt, every shard-local operator and the final
        // statement.
        let stmt_ctx = StatementContext::with_limits(deadline, None);
        let results = self.scatter(&shard_stmt, &stmt_ctx)?;
        self.run_final(results, &final_stmt, stmt_ctx)
    }

    /// Load the shard results, in shard-id order, into the scratch table
    /// of a coordinator session and run the final statement over it, on
    /// the engine's one statement runner and under the scatter's context.
    fn run_final(
        &self,
        results: Vec<QueryResult>,
        final_stmt: &SelectStmt,
        stmt_ctx: StatementContext,
    ) -> Result<Vec<Row>> {
        // A stall cut short by the token falls through: the final
        // statement's admission refuses it and its runner counts the kill.
        if let Some(FaultAction::Stall(d)) = self.faults.evaluate(GATHER_LOAD) {
            let _ = stmt_ctx.sleep_cancellable(d);
        }
        let schema = match results.first() {
            Some(first) => first.schema.clone(),
            None => return Err(DashError::internal("scatter returned no shard result")),
        };
        let rows: Vec<Row> = results.into_iter().flat_map(|r| r.rows).collect();
        let mut session = self.coordinator.connect();
        session.set_dialect(self.dialect);
        let result = self
            .coordinator
            .catalog()
            .create_table(GATHERED, schema, Some(session.id()))
            .and_then(|table| table.write().load_rows(rows))
            .and_then(|_| session.run_query(final_stmt, stmt_ctx));
        session.close();
        Ok(result?.rows)
    }

    // ---- resilient scatter-gather ---------------------------------------------

    /// Drive `shard_stmt` on every shard, one [`pool::run_morsels`] drive
    /// per round, re-driving lost shards after failover, until every shard
    /// has reported or the statement dies (fatal error, quorum loss, or
    /// its token flipping). Returns per-shard results in shard-id order.
    ///
    /// The statement pins one [`AssignmentEpoch`] at scatter start and
    /// resolves every round's work against that single immutable map, so
    /// a concurrent rebalance can never tear one round across two
    /// assignment versions. The pin only advances deliberately: when
    /// shards are requeued (failover, mid-remove orphan) they re-pin the
    /// newest epoch, while shards already collected keep their results.
    fn scatter(
        &self,
        shard_stmt: &SelectStmt,
        stmt_ctx: &StatementContext,
    ) -> Result<Vec<QueryResult>> {
        // One worker per core of the coordinator's host, at most 8.
        let width = (self.coordinator.config().query_parallelism as usize).clamp(1, 8);
        let mut pinned = self.pin_assignment();
        let mut pin = EpochPin::new(self.monitor(), pinned.epoch);
        let mut pending: Vec<ShardId> = self.fs.shards();
        let mut collected: BTreeMap<ShardId, QueryResult> = BTreeMap::new();
        let mut round = 0usize;
        // Convergence accounting: the first round is free; every extra
        // round must be paid for by an observed node death or an epoch
        // re-pin. (Bounding by membership sampled at statement start was
        // wrong: a node added mid-statement that then died could exhaust
        // the budget spuriously.)
        let mut deaths = 0usize;
        let mut repins = 0usize;
        while !pending.is_empty() {
            round += 1;
            if round > deaths + repins + 1 {
                return Err(DashError::Cluster(format!(
                    "scatter-gather did not converge after {} failover rounds \
                     ({deaths} node deaths, {repins} epoch re-pins observed)",
                    round - 1
                )));
            }
            // Chaos hook: force a full rebalance between failover rounds,
            // so tests can deterministically race a rebalance against an
            // in-flight statement. `Stall` sleeps first, then rebalances;
            // a stall the token cuts short skips the rebalance, and the
            // round below refuses the dying statement.
            if round > 1 {
                if let Some(action) = self.faults.evaluate(REBALANCE_DURING_SCATTER) {
                    let stall = match action {
                        FaultAction::Stall(d) => d,
                        FaultAction::Error(_) => Duration::ZERO,
                    };
                    if stmt_ctx.sleep_cancellable(stall).is_ok() {
                        self.rebalance()?;
                    }
                }
            }
            // Resolve this round's work against the pinned snapshot only.
            // A shard can transiently lack an owner while metadata is
            // damaged mid-membership-change: requeue it for the next
            // round instead of killing the whole statement.
            let mut work: Vec<(ShardId, NodeId, u64)> = Vec::with_capacity(pending.len());
            let mut orphans: Vec<ShardId> = Vec::new();
            for s in &pending {
                match pinned.map.get(s) {
                    Some(n) => work.push((*s, *n, pinned.epoch)),
                    None => orphans.push(*s),
                }
            }
            // A round spanning two epochs is the torn read epoch pinning
            // removes; the counter stays as a regression tripwire.
            if work.iter().any(|&(_, _, e)| e != pinned.epoch) {
                self.monitor().record_torn_epoch_round();
            }
            let round_run = pool::run_morsels(work.len(), width, stmt_ctx, |i| {
                let (shard, node, epoch) = work[i];
                Ok(self.attempt_shard(shard_stmt, shard, node, epoch, stmt_ctx))
            });
            // Decided once, here: the pool's `Cancelled` and a shard's
            // `ShardOutcome::Cancelled` both mean the token flipped, and a
            // dying statement requeues nothing as if a node had failed.
            if stmt_ctx.is_cancelled() {
                self.monitor().record_cancelled(stmt_ctx);
                return Err(DashError::Cancelled);
            }
            let mut requeue: Vec<ShardId> = Vec::new();
            let mut dead: Vec<(NodeId, DashError)> = Vec::new();
            for ((shard, _, _), out) in work.iter().zip(round_run?.results) {
                match out {
                    ShardOutcome::Rows(result) => {
                        collected.insert(*shard, result);
                    }
                    ShardOutcome::Fatal(e) => return Err(e),
                    ShardOutcome::NodeDown(n, cause) => {
                        if !dead.iter().any(|(d, _)| *d == n) {
                            dead.push((n, cause));
                        }
                        requeue.push(*shard);
                    }
                    ShardOutcome::Cancelled => requeue.push(*shard),
                }
            }
            for (n, cause) in dead {
                // Quorum loss aborts the statement here; a node another
                // shard already reported (or that a concurrent statement
                // already buried) still counts as an observed death for
                // the convergence budget.
                match self.declare_dead(n) {
                    Ok(Some(_)) => {
                        deaths += 1;
                        self.monitor().record_failover();
                    }
                    Ok(None) => deaths += 1,
                    Err(e) => {
                        return Err(DashError::Cluster(format!("{e}; first failure: {cause}")))
                    }
                }
            }
            let had_orphans = !orphans.is_empty();
            pending = requeue;
            pending.append(&mut orphans);
            if pending.is_empty() {
                continue;
            }
            // Re-drive lost shards against the *post*-failover epoch;
            // everything already collected keeps its pinned-epoch rows.
            let fresh = self.pin_assignment();
            if fresh.epoch != pinned.epoch {
                self.monitor().record_stale_epoch_retries(pending.len() as u64);
                repins += 1;
                pinned = fresh;
                pin.repin(pinned.epoch);
            } else if had_orphans {
                // The published map itself is missing a shard and no
                // rebalance has happened: heal it with a reconciling
                // rebalance (the clustered filesystem is ground truth).
                self.rebalance()?;
                self.monitor().record_stale_epoch_retries(pending.len() as u64);
                repins += 1;
                pinned = self.pin_assignment();
                pin.repin(pinned.epoch);
            }
        }
        Ok(collected.into_values().collect())
    }

    /// Run one shard's statement on its assigned node, retrying transient
    /// faults with a short backoff. Exhausting the retry budget indicts
    /// the node, not the statement. Every wait — the backoff and injected
    /// stalls — sleeps on the statement's token.
    fn attempt_shard(
        &self,
        stmt: &SelectStmt,
        shard: ShardId,
        node: NodeId,
        epoch: u64,
        stmt_ctx: &StatementContext,
    ) -> ShardOutcome {
        let mut last_err: Option<DashError> = None;
        for attempt in 0..SHARD_MAX_ATTEMPTS {
            if attempt > 0 {
                self.monitor().record_shard_retry();
                let backoff = Duration::from_micros(200 * u64::from(attempt));
                if stmt_ctx.sleep_cancellable(backoff).is_err() {
                    return ShardOutcome::Cancelled;
                }
            }
            // Simulated node crash: the whole node is gone, not just this
            // work unit — no local retry can help.
            if let Some(action) = self.faults.evaluate_scoped(NODE_CRASH, node.0) {
                match action {
                    FaultAction::Error(msg) => {
                        return ShardOutcome::NodeDown(
                            node,
                            DashError::Cluster(format!(
                                "{node} crashed while running {shard}: {msg}"
                            )),
                        )
                    }
                    FaultAction::Stall(d) => {
                        self.monitor().record_straggler();
                        if stmt_ctx.sleep_cancellable(d).is_err() {
                            return ShardOutcome::Cancelled;
                        }
                    }
                }
            }
            // Per-shard transient fault (flaky interconnect, lost work
            // unit): consume a retry.
            match self.faults.evaluate_scoped(SHARD_EXEC, shard.0) {
                Some(FaultAction::Error(msg)) => {
                    last_err = Some(DashError::Cluster(format!(
                        "transient fault executing {shard} on {node}: {msg}"
                    )));
                    continue;
                }
                Some(FaultAction::Stall(d)) => {
                    self.monitor().record_straggler();
                    if stmt_ctx.sleep_cancellable(d).is_err() {
                        return ShardOutcome::Cancelled;
                    }
                }
                None => {}
            }
            match self.execute_on_shard(stmt, shard, node, epoch, stmt_ctx) {
                Ok(result) => return ShardOutcome::Rows(result),
                Err(e) if is_transient(&e) => last_err = Some(e),
                Err(e) => return ShardOutcome::Fatal(e),
            }
        }
        let err = last_err
            .unwrap_or_else(|| DashError::Cluster(format!("{shard} failed with no error recorded")));
        ShardOutcome::NodeDown(node, err)
    }

    /// Mount a shard on its node (tagged with the statement's pinned
    /// epoch, so a stale-epoch statement cannot steal the mount from a
    /// post-rebalance owner) and run the shard statement in a session of
    /// the shard's engine — admitted by its WLM, counted in its monitor —
    /// under the scatter's shared context.
    fn execute_on_shard(
        &self,
        stmt: &SelectStmt,
        shard: ShardId,
        node: NodeId,
        epoch: u64,
        stmt_ctx: &StatementContext,
    ) -> Result<QueryResult> {
        let fsd = self.fs.mount_for_epoch(shard, node, epoch)?;
        let mut session = fsd.db.connect();
        session.set_dialect(self.dialect);
        session.run_query(stmt, stmt_ctx.clone())
    }

    // ---- HA & elasticity -------------------------------------------------------

    /// Mark `node` dead (if it is a live member), release its mounts, and
    /// rebalance. `Ok(None)` when the node is unknown or already down;
    /// quorum loss is an error *before* any state changes.
    fn declare_dead(&self, node: NodeId) -> Result<Option<RebalanceReport>> {
        {
            let mut nodes = self.nodes.write();
            let live = nodes.values().filter(|s| s.alive).count();
            let Some(st) = nodes.get_mut(&node) else {
                return Ok(None);
            };
            if !st.alive {
                return Ok(None);
            }
            if live <= 1 {
                return Err(DashError::Cluster(format!(
                    "cannot fail {node}: it is the last live node (quorum loss)"
                )));
            }
            st.alive = false;
        }
        self.fs.release_node(node);
        self.rebalance().map(Some)
    }

    /// Simulate a node failure: its shards re-associate with survivors
    /// (Figure 9). Returns the rebalance report.
    pub fn fail_node(&self, node: NodeId) -> Result<RebalanceReport> {
        {
            let nodes = self.nodes.read();
            let st = nodes
                .get(&node)
                .ok_or_else(|| DashError::not_found("node", node.to_string()))?;
            if !st.alive {
                return Err(DashError::Cluster(format!("{node} is already down")));
            }
        }
        self.declare_dead(node)?
            .ok_or_else(|| DashError::Cluster(format!("{node} vanished during failover")))
    }

    /// Elastic growth: add a node and rebalance shards onto it.
    pub fn add_node(&self, hw: HardwareSpec) -> Result<(NodeId, RebalanceReport)> {
        let id = {
            let mut nodes = self.nodes.write();
            let id = NodeId(nodes.keys().map(|n| n.0 + 1).max().unwrap_or(0));
            nodes.insert(
                id,
                NodeState {
                    hardware: hw,
                    alive: true,
                },
            );
            id
        };
        Ok((id, self.rebalance()?))
    }

    /// Elastic contraction: deliberately decommission a node. Unlike
    /// [`Cluster::fail_node`] (which keeps the dead node as a member so it
    /// can be repaired and restored), removal drops it from the membership
    /// map and releases its clustered-filesystem mounts — a later
    /// [`Cluster::restore_node`] cannot resurrect it.
    pub fn remove_node(&self, node: NodeId) -> Result<RebalanceReport> {
        {
            let mut nodes = self.nodes.write();
            let st = nodes
                .get(&node)
                .ok_or_else(|| DashError::not_found("node", node.to_string()))?;
            let live_after = nodes.values().filter(|s| s.alive).count() - usize::from(st.alive);
            if live_after == 0 {
                return Err(DashError::Cluster(format!(
                    "cannot remove {node}: no live nodes would remain (quorum loss)"
                )));
            }
            nodes.remove(&node);
        }
        self.fs.release_node(node);
        self.rebalance()
    }

    /// Reinstate a repaired node (errors for removed/unknown nodes).
    pub fn restore_node(&self, node: NodeId) -> Result<RebalanceReport> {
        {
            let mut nodes = self.nodes.write();
            let st = nodes
                .get_mut(&node)
                .ok_or_else(|| DashError::not_found("node", node.to_string()))?;
            st.alive = true;
        }
        self.rebalance()
    }

    /// Recompute the shard → node assignment over the live membership and
    /// re-associate moved shards through the clustered filesystem, then
    /// publish the new map under a bumped epoch. Each move passes the
    /// [`SHARD_MOVE`] failpoint; the epoch swap is all-or-nothing (a
    /// failed pass leaves the previous snapshot published), and pinned
    /// readers are never disturbed — they hold their own `Arc` snapshot.
    fn rebalance(&self) -> Result<RebalanceReport> {
        let live: Vec<NodeId> = self
            .nodes
            .read()
            .iter()
            .filter(|(_, st)| st.alive)
            .map(|(n, _)| *n)
            .collect();
        // Hold the write lock across compute+commit so concurrent
        // rebalances serialize and epochs stay monotonic.
        let mut current = self.assignment.write();
        let mut next: BTreeMap<ShardId, NodeId> = current.map.as_ref().clone();
        // Reconcile with the filesystem (ground truth): a shard present
        // on shared storage but missing from the map re-enters under the
        // unassigned sentinel, which rebalancing treats like a dead
        // node's shard and re-places.
        for s in self.fs.shards() {
            next.entry(s).or_insert(UNASSIGNED);
        }
        let next_epoch = current.epoch + 1;
        let report = balance_assignments(&mut next, &live, next_epoch)?;
        for (shard, node) in &next {
            if current.map.get(shard) == Some(node) {
                continue;
            }
            match self.faults.evaluate_scoped(SHARD_MOVE, shard.0) {
                Some(FaultAction::Error(msg)) => {
                    return Err(DashError::Cluster(format!(
                        "re-association of {shard} to {node} failed: {msg}"
                    )))
                }
                Some(FaultAction::Stall(d)) => std::thread::sleep(d),
                None => {}
            }
            self.fs.mount_for_epoch(*shard, *node, next_epoch)?;
        }
        *current = AssignmentEpoch {
            epoch: next_epoch,
            map: Arc::new(next),
        };
        self.monitor().record_epoch_bump();
        Ok(report)
    }
}

// ---- shard statement / final statement ---------------------------------------

/// The coordinator session's scratch table holding the gathered results.
const GATHERED: &str = "GATHERED";

fn gathered() -> TableRef {
    TableRef::Named {
        name: GATHERED.into(),
        alias: None,
    }
}

fn call(name: &str, args: Vec<AstExpr>) -> AstExpr {
    AstExpr::Func {
        name: name.into(),
        args,
        distinct: false,
        star: false,
    }
}

/// Split an aggregating SELECT into the statement every shard runs and the
/// final statement the coordinator runs over what they return; `None` for
/// a query that neither groups nor aggregates.
///
/// The **shard statement** is the user's FROM / WHERE grouped on the
/// user's keys, projecting every key (projected by the user or not) and
/// then the partial aggregates, as columns `_G0`, `_G1`, …. The **final
/// statement** is the user's own with FROM replaced by the gathered
/// relation, every GROUP BY expression replaced by its key column and
/// every aggregate call by its merge expression over the partial columns
/// (COUNT and SUM → `SUM`, MIN → `MIN`, MAX → `MAX`, AVG →
/// `SUM(sum) / SUM(count)` as DOUBLE, NULL when nothing was counted),
/// grouped on the key columns; HAVING, DISTINCT, ORDER BY, LIMIT and
/// OFFSET carry over as written.
///
/// Errors, before any shard runs, on wildcards and on aggregates that do
/// not decompose (MEDIAN, STDDEV, DISTINCT aggregates, …).
fn analyze_aggregation(stmt: &SelectStmt) -> Result<Option<(SelectStmt, SelectStmt)>> {
    let mut agg_calls: Vec<AstExpr> = Vec::new();
    for item in &stmt.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregates(expr, &mut agg_calls);
        }
    }
    if let Some(having) = &stmt.having {
        collect_aggregates(having, &mut agg_calls);
    }
    if agg_calls.is_empty() && stmt.group_by.is_empty() {
        return Ok(None);
    }
    for o in &stmt.order_by {
        collect_aggregates(&o.expr, &mut agg_calls);
    }
    if stmt.projection.iter().any(|i| !matches!(i, SelectItem::Expr { .. })) {
        return Err(DashError::unsupported("wildcards in distributed aggregation"));
    }

    // Add a column to the shard statement; the gathered column it becomes.
    let mut shard_items: Vec<SelectItem> = Vec::new();
    let mut project = |expr: AstExpr| -> AstExpr {
        let name = format!("_G{}", shard_items.len());
        shard_items.push(SelectItem::Expr {
            expr,
            alias: Some(name.clone()),
        });
        AstExpr::column(&name)
    };
    // GROUP BY ordinals name items of the *user's* projection.
    let mut group_exprs: Vec<AstExpr> = Vec::with_capacity(stmt.group_by.len());
    for g in &stmt.group_by {
        group_exprs.push(match g {
            AstExpr::Lit(Datum::Int(n)) => {
                match stmt.projection.get((*n as usize).wrapping_sub(1)) {
                    Some(SelectItem::Expr { expr, .. }) => expr.clone(),
                    _ => {
                        return Err(DashError::analysis(format!(
                            "GROUP BY position {n} is out of range"
                        )))
                    }
                }
            }
            other => other.clone(),
        });
    }
    let keys: Vec<AstExpr> = group_exprs.iter().map(|g| project(g.clone())).collect();

    // Aggregate calls first, as the planner's own rewrite orders them.
    let mut subst: Vec<(AstExpr, AstExpr)> = Vec::with_capacity(agg_calls.len() + keys.len());
    for agg in &agg_calls {
        let AstExpr::Func {
            name,
            args,
            distinct,
            star,
        } = agg
        else {
            return Err(DashError::internal("collected aggregate is not a call"));
        };
        if *distinct {
            return Err(DashError::unsupported(
                "DISTINCT aggregates in distributed queries",
            ));
        }
        let func = if *star {
            AggFunc::CountStar
        } else {
            AggFunc::from_name(name)
                .ok_or_else(|| DashError::not_found("aggregate function", name))?
        };
        let merge = match func {
            AggFunc::CountStar | AggFunc::Count | AggFunc::Sum => {
                call("SUM", vec![project(agg.clone())])
            }
            AggFunc::Min | AggFunc::Max => call(name, vec![project(agg.clone())]),
            AggFunc::Avg => {
                // NULL / 0 is NULL: a group that counted nothing has only
                // NULL partial sums.
                let sum = call("SUM", vec![project(call("SUM", args.clone()))]);
                let count = call("SUM", vec![project(call("COUNT", args.clone()))]);
                AstExpr::Binary {
                    op: BinOp::Div,
                    left: Box::new(AstExpr::Cast {
                        expr: Box::new(sum),
                        type_name: "DOUBLE".into(),
                        type_args: Vec::new(),
                    }),
                    right: Box::new(count),
                }
            }
            other => {
                return Err(DashError::unsupported(format!(
                    "{other:?} does not decompose for distributed execution"
                )))
            }
        };
        subst.push((agg.clone(), merge));
    }
    subst.extend(group_exprs.iter().cloned().zip(keys.iter().cloned()));
    // `SELECT region … GROUP BY sales.region`: the bare name is the key too.
    for (g, key) in group_exprs.iter().zip(&keys) {
        if let AstExpr::Column {
            qualifier: Some(_),
            name,
        } = g
        {
            subst.push((AstExpr::column(name), key.clone()));
        }
    }

    let rewrite = |e: &AstExpr| rewrite_post_agg(e, &subst);
    let final_stmt = SelectStmt {
        distinct: stmt.distinct,
        projection: stmt
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: rewrite(expr),
                    alias: alias.clone(),
                },
                wildcard => wildcard.clone(),
            })
            .collect(),
        from: vec![gathered()],
        group_by: keys,
        having: stmt.having.as_ref().map(rewrite),
        order_by: stmt
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: rewrite(&o.expr),
                ..o.clone()
            })
            .collect(),
        limit: stmt.limit,
        offset: stmt.offset,
        ..SelectStmt::default()
    };
    let shard_stmt = SelectStmt {
        distinct: false,
        projection: shard_items,
        group_by: group_exprs,
        having: None,
        order_by: Vec::new(),
        limit: None,
        offset: None,
        ..stmt.clone()
    };
    Ok(Some((shard_stmt, final_stmt)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_common::faults::FaultPolicy;
    use dash_common::types::DataType;
    use dash_common::{row, Field};

    fn sales_cluster(nodes: usize, shards_per_node: usize, rows: usize) -> Cluster {
        let c = Cluster::new(nodes, shards_per_node, HardwareSpec::laptop()).unwrap();
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int64),
            Field::new("region", DataType::Utf8),
            Field::new("amount", DataType::Float64),
        ])
        .unwrap();
        c.create_table("sales", schema, Distribution::Hash("id".into()))
            .unwrap();
        let data: Vec<Row> = (0..rows)
            .map(|i| row![i as i64, format!("r{}", i % 3), (i % 10) as f64])
            .collect();
        c.load_rows("sales", data).unwrap();
        c
    }

    #[test]
    fn hash_distribution_spreads_rows() {
        let c = sales_cluster(4, 3, 12_000);
        // Every shard should hold a reasonable share.
        let mut counts = Vec::new();
        for shard in c.filesystem().shards() {
            let db = c.filesystem().mount(shard).unwrap().db;
            let mut s = db.connect();
            let n = s.query("SELECT COUNT(*) FROM sales").unwrap()[0]
                .get(0)
                .as_int()
                .unwrap();
            counts.push(n);
        }
        let total: i64 = counts.iter().sum();
        assert_eq!(total, 12_000);
        let expected = 12_000 / 12;
        for &n in &counts {
            assert!(
                (n - expected).abs() < expected / 2,
                "imbalanced shard: {n} vs {expected}"
            );
        }
    }

    #[test]
    fn distributed_scan_and_filter() {
        let c = sales_cluster(2, 4, 5000);
        let rows = c
            .query("SELECT id FROM sales WHERE id >= 4990 ORDER BY 1")
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].get(0), &Datum::Int(4990));
    }

    #[test]
    fn two_phase_aggregation() {
        let c = sales_cluster(3, 2, 3000);
        let rows = c
            .query(
                "SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(id), MAX(id) \
                 FROM sales GROUP BY region ORDER BY region",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.get(1), &Datum::Int(1000));
            // amounts cycle 0..9 => avg 4.5 per region ± regional skew.
            let avg = r.get(3).as_float().unwrap();
            assert!((avg - 4.5).abs() < 1.0, "avg {avg}");
        }
        let total_min = rows.iter().map(|r| r.get(4).as_int().unwrap()).min().unwrap();
        assert_eq!(total_min, 0);
        let total_max = rows.iter().map(|r| r.get(5).as_int().unwrap()).max().unwrap();
        assert_eq!(total_max, 2999);
    }

    #[test]
    fn global_aggregate_without_groups() {
        let c = sales_cluster(2, 2, 1000);
        let rows = c.query("SELECT COUNT(*), SUM(amount) FROM sales").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Datum::Int(1000));
    }

    #[test]
    fn replicated_tables_join_colocated() {
        let c = sales_cluster(2, 2, 1000);
        let dim = Schema::new(vec![
            Field::new("region", DataType::Utf8),
            Field::new("label", DataType::Utf8),
        ])
        .unwrap();
        c.create_table("regions", dim, Distribution::Replicated)
            .unwrap();
        c.load_rows(
            "regions",
            vec![row!["r0", "zero"], row!["r1", "one"], row!["r2", "two"]],
        )
        .unwrap();
        let rows = c
            .query(
                "SELECT label, COUNT(*) FROM sales JOIN regions ON sales.region = regions.region \
                 GROUP BY label ORDER BY label",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        let total: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn limit_pushdown_and_merge() {
        let c = sales_cluster(2, 2, 1000);
        let mut rows = c.query("SELECT id FROM sales ORDER BY 1 DESC FETCH FIRST 5 ROWS ONLY").unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.remove(0).get(0), &Datum::Int(999));
    }

    #[test]
    fn failover_rebalances_like_figure_9() {
        // Figure 9: four servers, six shards each; losing server D leaves
        // A, B, C with eight shards each.
        let c = sales_cluster(4, 6, 0);
        assert_eq!(c.relative_query_cost(), 6.0);
        let report = c.fail_node(NodeId(3)).unwrap();
        assert_eq!(report.moved_shards, 6);
        let dist = c.shard_distribution();
        assert_eq!(dist.len(), 3);
        for (_, shards) in &dist {
            assert_eq!(shards.len(), 8, "8 shards each after failover");
        }
        assert_eq!(c.relative_query_cost(), 8.0);
        // Queries still return complete results.
        let c2 = sales_cluster(4, 6, 2400);
        c2.fail_node(NodeId(3)).unwrap();
        let rows = c2.query("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(2400));
    }

    #[test]
    fn elastic_growth_and_restore() {
        let c = sales_cluster(3, 8, 0); // 24 shards on 3 nodes
        let (new_node, report) = c.add_node(HardwareSpec::laptop()).unwrap();
        assert!(report.moved_shards > 0);
        let dist = c.shard_distribution();
        assert_eq!(dist.len(), 4);
        for (_, shards) in &dist {
            assert_eq!(shards.len(), 6, "24 shards over 4 nodes");
        }
        // Contract again.
        c.remove_node(new_node).unwrap();
        for (_, shards) in c.shard_distribution() {
            assert_eq!(shards.len(), 8);
        }
    }

    #[test]
    fn failing_last_node_errors() {
        let c = Cluster::new(1, 2, HardwareSpec::laptop()).unwrap();
        let err = c.fail_node(NodeId(0)).unwrap_err();
        assert_eq!(err.class(), "57011", "quorum loss is a cluster error: {err}");
        assert_eq!(c.live_nodes(), 1, "refused failover leaves the node up");
    }

    #[test]
    fn zero_sized_cluster_is_an_error_not_a_panic() {
        let e = Cluster::new(0, 4, HardwareSpec::laptop())
            .err()
            .expect("zero nodes must fail");
        assert_eq!(e.class(), "57011");
        let e = Cluster::new(3, 0, HardwareSpec::laptop())
            .err()
            .expect("zero shards must fail");
        assert_eq!(e.class(), "57011");
    }

    #[test]
    fn removed_node_is_decommissioned_for_good() {
        let c = sales_cluster(3, 2, 600);
        c.remove_node(NodeId(2)).unwrap();
        assert_eq!(c.live_nodes(), 2);
        // Membership entry is gone: restore cannot resurrect it.
        assert!(c.restore_node(NodeId(2)).is_err());
        // Its clustered-filesystem mounts were released and re-associated.
        for s in c.filesystem().shards() {
            assert_ne!(c.filesystem().mounted_by(s), Some(NodeId(2)));
        }
        // Data survives on the survivors.
        let rows = c.query("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(600));
        // Removing down to the last node is refused.
        c.remove_node(NodeId(1)).unwrap();
        assert!(c.remove_node(NodeId(0)).is_err());
    }

    #[test]
    fn assignment_epoch_bumps_on_every_membership_event() {
        let c = sales_cluster(3, 2, 300);
        assert_eq!(c.assignment_epoch(), 0, "fresh cluster publishes epoch 0");
        let r = c.fail_node(NodeId(2)).unwrap();
        assert_eq!(r.epoch, 1, "report carries the committed epoch");
        assert_eq!(c.assignment_epoch(), 1);
        let (id, r) = c.add_node(HardwareSpec::laptop()).unwrap();
        assert_eq!(r.epoch, 2);
        c.remove_node(id).unwrap();
        assert_eq!(c.assignment_epoch(), 3);
        assert_eq!(c.monitor().recovery().epoch_bumps, 3);
        // Moved shards' mounts are tagged with the epoch that moved them.
        let tagged = c
            .filesystem()
            .shards()
            .iter()
            .filter_map(|s| c.filesystem().mount_epoch(*s))
            .filter(|e| *e > 0)
            .count();
        assert!(tagged > 0, "rebalance moves re-tag mounts with the new epoch");
    }

    #[test]
    fn missing_assignment_requeues_and_heals_instead_of_killing() {
        let c = sales_cluster(2, 2, 400);
        // Damage the metadata: publish a map missing one shard, same epoch.
        {
            let mut guard = c.assignment.write();
            let mut m = guard.map.as_ref().clone();
            m.remove(&ShardId(0));
            *guard = AssignmentEpoch {
                epoch: guard.epoch,
                map: Arc::new(m),
            };
        }
        // The orphaned shard is requeued and healed by a reconciling
        // rebalance — the statement survives and loses no rows.
        let rows = c.query("SELECT COUNT(*) FROM sales").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(400));
        let rec = c.monitor().recovery();
        assert!(rec.stale_epoch_retries >= 1, "{rec:?}");
        assert_eq!(rec.torn_epoch_rounds, 0, "{rec:?}");
        assert!(c.assignment_epoch() >= 1, "heal committed a new epoch");
        // The healed map is complete again.
        let snap = c.pin_assignment();
        assert!(snap.map.contains_key(&ShardId(0)));
    }

    #[test]
    fn per_call_deadline_overrides_but_never_writes_the_default() {
        let reg = FaultRegistry::new();
        let c = Cluster::with_faults(2, 2, HardwareSpec::laptop(), reg.clone()).unwrap();
        let schema = Schema::new(vec![Field::not_null("id", DataType::Int64)]).unwrap();
        c.create_table("t", schema, Distribution::Hash("id".into())).unwrap();
        c.load_rows("t", (0..100).map(|i| row![i as i64]).collect()).unwrap();
        // Cluster default: effectively unbounded.
        c.set_statement_deadline(Some(Duration::from_secs(60)));
        // A stalling shard plus a tight per-call deadline: only this call
        // is killed; the shared default is untouched.
        reg.arm(
            FaultRegistry::scoped(dash_common::faults::SHARD_EXEC, 0),
            FaultPolicy::Always,
            FaultAction::Stall(Duration::from_secs(5)),
        );
        let err = c
            .query_with_deadline("SELECT COUNT(*) FROM t", Some(Duration::from_millis(50)))
            .unwrap_err();
        assert_eq!(err.class(), "57014", "{err}");
        reg.disarm_all();
        // The default was not clobbered by the per-call override.
        let rows = c.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(100));
        // And an explicit None ignores the default entirely.
        let rows = c
            .query_with_deadline("SELECT COUNT(*) FROM t", None)
            .unwrap();
        assert_eq!(rows[0].get(0), &Datum::Int(100));
    }

    #[test]
    fn unsupported_distributed_median_reports_cleanly() {
        let c = sales_cluster(2, 2, 100);
        let e = c.query("SELECT MEDIAN(amount) FROM sales").unwrap_err();
        assert!(e.to_string().contains("decompose"), "{e}");
    }
}
