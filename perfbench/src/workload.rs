//! The four workloads end to end: set-up, verification, warm-up, measured
//! rounds, and (in a traced run) the per-layer measurements.

use crate::analytic::{self, AnalyticClient, Kind};
use crate::gen::{self, Star};
use crate::layers::{self, OpTime, OpTimes, StatementLayers};
use crate::oracle::Checker;
use crate::run::{run_rounds, Budget, Phase};
use crate::stats;
use crate::trace::{self, LayerTime, Span, Tracer};
use crate::txn::{self, Model, TxnClient};
use dash_core::Database;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "scan_agg.serial",
    "join_sort.serial",
    "analytic.streams",
    "txn_mix.durable",
];

/// Fresh databases built per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Passes of the statement and operator replays.
const REPLAY_PASSES: u64 = 2;
/// Seconds of measured rounds the `SyncPolicy::Commit` run gets inside
/// every traced run (it supplies the fsync-path metrics).
const FSYNC_PROBE_SECONDS: f64 = 1.0;

pub struct Config<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub fact_rows: usize,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: &'a Path,
    /// Where span files stay, one per workload, overwritten by the next run.
    pub out: &'a Path,
}

/// What an untraced run reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub phase: Phase,
    /// Human-readable facts about sizes.
    pub notes: Vec<String>,
}

/// What a traced run reports: every per-layer metric, by name.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the human-readable table.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Layers {
    /// Start a report from the phases whose statements it has to answer for.
    fn of_phases(notes: Vec<String>, phases: [&Phase; 3]) -> Layers {
        Layers {
            metrics: Vec::new(),
            notes,
            attempted: phases.iter().map(|p| p.attempted).sum(),
            failed: phases.iter().map(|p| p.failed).sum(),
            errors: phases
                .iter()
                .flat_map(|p| p.errors.iter().cloned())
                .collect(),
        }
    }
}

/// Build a database `builds` times, dropping each before the next is
/// built, and keep the last. Returns it with every build's engine time.
fn build_repeatedly<B>(
    builds: usize,
    engine_s: impl Fn(&B) -> f64,
    mut build: impl FnMut() -> Result<B, String>,
) -> Result<(B, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(builds);
    let mut last = None;
    for _ in 0..builds.max(1) {
        drop(last.take());
        let built = build()?;
        setups.push(engine_s(&built));
        last = Some(built);
    }
    Ok((last.expect("at least one build"), setups))
}

fn wlm_peaks(db: &Database) -> (u32, u32) {
    let (_, _, peak_running, peak_queued, _) = db.wlm().snapshot();
    (peak_running, peak_queued)
}

fn kind_of(workload: &str) -> Option<Kind> {
    match workload {
        "scan_agg.serial" => Some(Kind::ScanAgg),
        "join_sort.serial" => Some(Kind::JoinSort),
        "analytic.streams" => Some(Kind::Streams),
        _ => None,
    }
}

pub fn end_to_end(workload: &str, cfg: &Config) -> Result<EndToEnd, String> {
    match kind_of(workload) {
        Some(kind) => analytic_end_to_end(kind, cfg),
        None => txn_end_to_end(cfg),
    }
}

pub fn traced(workload: &str, cfg: &Config) -> Result<Layers, String> {
    match kind_of(workload) {
        Some(kind) => analytic_traced(workload, kind, cfg),
        None => txn_traced(cfg),
    }
}

// ---------------------------------------------------------------------
// Analytic workloads
// ---------------------------------------------------------------------

fn analytic_clients(
    kind: Kind,
    cfg: &Config,
    db: &Arc<Database>,
    checker: &Checker,
) -> Result<Vec<AnalyticClient>, String> {
    analytic::statement_lists(kind, cfg.seed, cfg.fact_rows, cfg.nproc)
        .into_iter()
        .enumerate()
        .map(|(i, list)| AnalyticClient::verified(db, i, list, checker))
        .collect()
}

fn size_notes(
    star: &Star,
    built: &analytic::Built,
    clients: usize,
    list_len: usize,
) -> Vec<String> {
    vec![
        format!(
            "facts {} rows, dims {}, cust_dim {}; {} data pages, buffer pool {} pages",
            star.facts.rows.len(),
            star.dims.rows.len(),
            star.cust_dim.rows.len(),
            built.data_pages,
            built.pool_pages
        ),
        format!("{clients} closed-loop client(s), {list_len} statements per client per round"),
    ]
}

fn analytic_end_to_end(kind: Kind, cfg: &Config) -> Result<EndToEnd, String> {
    let star = gen::star(cfg.seed, cfg.fact_rows);
    let (built, setups) = build_repeatedly(
        SETUP_BUILDS,
        |b: &analytic::Built| b.engine_s,
        || analytic::build(&star, kind),
    )?;
    let checker = Checker::new(&star)?;
    let mut clients = analytic_clients(kind, cfg, &built.db, &checker)?;
    drop(checker);
    let notes = size_notes(&star, &built, clients.len(), clients[0].statements().len());
    run_rounds(&mut clients, 0, Budget::WARM_UP, None, &mut |_| {});
    let phase = run_rounds(
        &mut clients,
        1,
        Budget::measure(cfg.seconds),
        None,
        &mut |_| {},
    );
    Ok(EndToEnd {
        setup_s: stats::median(&setups),
        phase,
        notes,
    })
}

fn analytic_traced(workload: &str, kind: Kind, cfg: &Config) -> Result<Layers, String> {
    let epoch = Instant::now();
    let star = gen::star(cfg.seed, cfg.fact_rows);
    let built = analytic::build(&star, kind)?;
    let checker = Checker::new(&star)?;
    let mut clients = analytic_clients(kind, cfg, &built.db, &checker)?;
    drop(checker);
    run_rounds(&mut clients, 0, Budget::WARM_UP, None, &mut |_| {});
    let quarter = Budget::measure(cfg.seconds / 4.0);
    let plain = run_rounds(&mut clients, 1, quarter, None, &mut |_| {});
    let mut traced = run_rounds(&mut clients, 1, quarter, Some(epoch), &mut |_| {});

    let mut tracer = Tracer::new(epoch);
    let mut stmts = StatementLayers::default();
    let mut session = built.db.connect();
    for pass in 0..REPLAY_PASSES {
        for (i, s) in clients[0].statements().iter().enumerate() {
            let session_first = (pass + i as u64).is_multiple_of(2);
            layers::replay_statement(
                &built.db,
                &mut session,
                &s.sql,
                session_first,
                replay_id(pass, i),
                &mut tracer,
                &mut stmts,
            )?;
        }
    }
    // The workload's own statements, operator by operator (join_sort's are
    // the ones the probes replay anyway).
    let mut own_ops = OpTimes::new();
    if kind != Kind::JoinSort {
        for (i, s) in clients[0].statements().iter().enumerate() {
            layers::replay_operators(
                &built.db,
                &s.sql,
                (1 << 62) | replay_id(0, i),
                &mut tracer,
                &mut own_ops,
            )?;
        }
    }
    let star_layers = star_probes(&built, &star, cfg, &mut tracer)?;
    let probe = fsync_probe(cfg)?;

    let mut out = Layers::of_phases(Vec::new(), [&plain, &traced, &probe.plain]);
    statement_metrics(&mut out, &stmts, wlm_peaks(&built.db));
    if !own_ops.is_empty() {
        op_table(&mut out, "this workload's own statements", &own_ops);
    }
    star_metrics(&mut out, &star_layers);
    txn_metrics(&mut out, &probe);
    trace_metrics(&mut out, &plain, &traced);
    traced.spans.push(tracer.into_spans());
    finish_trace(&mut out, workload, cfg, traced.spans)?;
    Ok(out)
}

fn replay_id(pass: u64, idx: usize) -> u64 {
    (1 << 60) | (pass << 24) | idx as u64
}

// ---------------------------------------------------------------------
// Probes on the star schema (every traced run)
// ---------------------------------------------------------------------

struct StarLayers {
    ops: OpTimes,
    simd: BTreeMap<u8, OpTime>,
    pool_ns_per_morsel: f64,
    load_ns_per_row: f64,
    bytes_per_user_byte: f64,
    wal_append_us: f64,
    wal_fsync_us: f64,
}

fn star_probes(
    built: &analytic::Built,
    star: &Star,
    cfg: &Config,
    tracer: &mut Tracer,
) -> Result<StarLayers, String> {
    // The join/sort classes, whatever the workload: this is where
    // "which operator owns the join+group time" is answered.
    let mut ops = OpTimes::new();
    for pass in 0..REPLAY_PASSES {
        for (i, s) in gen::join_sort_statements(cfg.seed, cfg.fact_rows, 1)
            .iter()
            .enumerate()
        {
            layers::replay_operators(
                &built.db,
                &s.sql,
                (1 << 61) | replay_id(pass, i),
                tracer,
                &mut ops,
            )?;
        }
    }
    let (wal_append_us, wal_fsync_us) = layers::wal_probe(&cfg.work.join("wal-probe"))?;
    let user_bytes: u64 = star.tables().iter().map(|t| gen::user_bytes(&t.rows)).sum();
    Ok(StarLayers {
        ops,
        simd: layers::simd_probe(&built.db, "facts")?,
        pool_ns_per_morsel: layers::pool_probe(&built.db)?,
        load_ns_per_row: built.facts_load_s * 1e9 / star.facts.rows.len() as f64,
        bytes_per_user_byte: built.compressed_bytes as f64 / user_bytes as f64,
        wal_append_us,
        wal_fsync_us,
    })
}

// ---------------------------------------------------------------------
// The transactional workload
// ---------------------------------------------------------------------

/// Layer numbers only a durable database has.
struct TxnLayer {
    fsyncs_per_commit: f64,
    avg_group_commit_batch: f64,
    wal_bytes_per_user_byte: f64,
    checkpoint_s: f64,
    recover_s: f64,
}

struct TxnRun {
    setups: Vec<f64>,
    plain: Phase,
    /// The second, traced phase (empty when the run is untraced).
    traced: Phase,
    layer: TxnLayer,
    stmts: StatementLayers,
    wlm_peaks: (u32, u32),
    notes: Vec<String>,
}

/// The whole transactional run: build, warm up, measure, replay, reopen and
/// verify. With `trace`, the measuring time is split into an untraced and a
/// traced phase, and client 0's last list is replayed layer by layer.
fn txn_phases(
    cfg: &Config,
    shape: txn::Shape,
    seconds: f64,
    builds: usize,
    trace: Option<(Instant, &mut Tracer)>,
) -> Result<TxnRun, String> {
    let dir = cfg.work.join("txn-db");
    let (built, setups) = build_repeatedly(
        builds,
        |b: &txn::Built| b.engine_s,
        || txn::build(&dir, cfg.seed, shape.clients(cfg.nproc), shape),
    )?;
    let db = built.db;
    let mut clients: Vec<TxnClient> = built
        .models
        .into_iter()
        .enumerate()
        .map(|(i, model)| TxnClient::new(&db, cfg.seed, i, shape.units, model))
        .collect();
    let notes = vec![format!(
        "{} closed-loop client(s), {} mix units ({} statements + BEGIN/COMMIT) per client per round, \
         {} work tables alive per client; SyncPolicy::{:?}, group-commit window {} us",
        clients.len(),
        shape.units,
        shape.units * 100,
        clients[0].model.table_count(),
        shape.sync,
        db.group_commit_window().as_micros()
    )];

    let mut checkpoint_s = Vec::new();
    let mut wal_bytes = 0u64;
    let mut after_clients = |rec: &mut crate::run::Recorder| {
        // The live log holds exactly this round's records: the previous
        // round's checkpoint switched generations.
        let log = dir.join(format!("wal.{}.log", db.generation()));
        wal_bytes += std::fs::metadata(log).map_or(0, |m| m.len());
        let start = Instant::now();
        if let Err(e) = rec.engine_call("storage.checkpoint", || db.checkpoint()) {
            rec.wrong(format!("checkpoint failed: {e}"));
        }
        checkpoint_s.push(start.elapsed().as_secs_f64());
    };
    let mut next_round = 1;
    let mut rounds = |clients: &mut Vec<TxnClient>, budget: Budget, epoch: Option<Instant>| {
        let phase = run_rounds(clients, next_round, budget, epoch, &mut after_clients);
        next_round += phase.rounds.len() as u64;
        phase
    };
    rounds(&mut clients, Budget::WARM_UP, None);
    let (plain, traced, stmts) = match trace {
        None => (
            rounds(&mut clients, Budget::measure(seconds), None),
            Phase::default(),
            StatementLayers::default(),
        ),
        Some((epoch, tracer)) => {
            let half = Budget::measure(seconds / 2.0);
            let plain = rounds(&mut clients, half, None);
            let traced = rounds(&mut clients, half, Some(epoch));
            // Client 0's last list: every statement's parse, and the
            // SELECTs (their tables are still alive) layer by layer.
            let mut stmts = StatementLayers::default();
            let mut session = db.connect();
            for (i, s) in clients[0].last_list.iter().enumerate() {
                layers::replay_statement(
                    &db,
                    &mut session,
                    &s.sql,
                    i % 2 == 0,
                    replay_id(0, i),
                    tracer,
                    &mut stmts,
                )?;
            }
            (plain, traced, stmts)
        }
    };

    // Counters since the reopen that ended set-up: the warm-up round is in
    // them, and has the same shape as every other round.
    let t = db.monitor().txn();
    let written: u64 = clients.iter().map(|c| c.written_bytes).sum();
    let wlm_peaks = wlm_peaks(&db);
    let mut model = Model::default();
    for c in clients {
        model.merge(c.model);
    }
    drop(db);
    let recover_s = txn::reopen_and_verify(&dir, shape.sync, &model)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(TxnRun {
        setups,
        plain,
        traced,
        layer: TxnLayer {
            fsyncs_per_commit: t.wal_fsyncs as f64 / t.txn_commits.max(1) as f64,
            avg_group_commit_batch: t.txn_commits as f64 / t.group_commit_batches.max(1) as f64,
            wal_bytes_per_user_byte: wal_bytes as f64 / written.max(1) as f64,
            checkpoint_s: stats::median(&checkpoint_s),
            recover_s,
        },
        stmts,
        wlm_peaks,
        notes,
    })
}

fn txn_end_to_end(cfg: &Config) -> Result<EndToEnd, String> {
    let run = txn_phases(cfg, txn::GATED, cfg.seconds, SETUP_BUILDS, None)?;
    Ok(EndToEnd {
        setup_s: stats::median(&run.setups),
        phase: run.plain,
        notes: run.notes,
    })
}

fn txn_traced(cfg: &Config) -> Result<Layers, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut run = txn_phases(
        cfg,
        txn::GATED,
        cfg.seconds / 2.0,
        1,
        Some((epoch, &mut tracer)),
    )?;
    let probe = fsync_probe(cfg)?;
    // The operator, kernel and load probes want the star schema.
    let star = gen::star(cfg.seed, cfg.fact_rows);
    let built = analytic::build(&star, Kind::ScanAgg)?;
    let star_layers = star_probes(&built, &star, cfg, &mut tracer)?;

    let mut out = Layers::of_phases(
        std::mem::take(&mut run.notes),
        [&run.plain, &run.traced, &probe.plain],
    );
    out.notes.push(
        "operator, kernel and load metrics come from the star schema, loaded for the probes only"
            .into(),
    );
    statement_metrics(&mut out, &run.stmts, run.wlm_peaks);
    star_metrics(&mut out, &star_layers);
    txn_metrics(&mut out, &probe);
    trace_metrics(&mut out, &run.plain, &run.traced);
    run.traced.spans.push(tracer.into_spans());
    finish_trace(&mut out, "txn_mix.durable", cfg, run.traced.spans)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Per-layer metric assembly
// ---------------------------------------------------------------------

fn statement_metrics(
    out: &mut Layers,
    s: &StatementLayers,
    (peak_running, peak_queued): (u32, u32),
) {
    let passes = REPLAY_PASSES as f64;
    out.metrics.extend([
        ("sql.parse_us", stats::median(&s.parse_us), "us"),
        ("sql.plan_us", stats::median(&s.plan_us), "us"),
        ("sql.front_share_pct", s.front_share() * 100.0, "%"),
        ("core.session_us", stats::median(&s.session_us), "us"),
        ("core.wlm_peak_running", f64::from(peak_running), "count"),
        ("core.wlm_peak_queued", f64::from(peak_queued), "count"),
        ("exec.execute_ns_per_row", s.execute_ns_per_row(), "ns/row"),
        (
            "exec.materialize_ns_per_row",
            s.materialize_ns_per_row(),
            "ns/row",
        ),
        (
            "exec.rows_scanned_per_row_out",
            s.rows_scanned_per_row_out(),
            "ratio",
        ),
        (
            "exec.morsels_dispatched",
            s.stats.morsels_dispatched as f64 / passes,
            "count",
        ),
        (
            "exec.parallel_workers_used",
            s.stats.parallel_workers_used as f64,
            "count",
        ),
        (
            "exec.peak_inflight_bytes",
            s.stats.peak_inflight_bytes as f64,
            "bytes",
        ),
        ("storage.skip_ratio", s.stats.skip_ratio(), "ratio"),
        ("storage.pool_hit_rate", s.stats.pool_hit_ratio(), "ratio"),
    ]);
    out.notes.push(format!(
        "statement replay: {} statements parsed, {} SELECTs run layer by layer",
        s.parse_us.len(),
        s.selects
    ));
}

fn star_metrics(out: &mut Layers, s: &StarLayers) {
    let op = |name: &str| s.ops.get(name).copied().unwrap_or_default();
    let scans: OpTime = [op("scan"), op("scan_pred")].into_iter().sum();
    let simd_total: OpTime = s.simd.values().copied().sum();
    out.metrics.extend([
        ("exec.scan_ns_per_row", scans.ns_per_row(), "ns/row"),
        (
            "exec.join_ns_per_probe_row",
            op("join").ns_per_row(),
            "ns/row",
        ),
        ("exec.agg_ns_per_row", op("agg").ns_per_row(), "ns/row"),
        ("exec.sort_ns_per_row", op("sort").ns_per_row(), "ns/row"),
        ("exec.simd_ns_per_row", simd_total.ns_per_row(), "ns/row"),
        ("exec.pool_ns_per_morsel", s.pool_ns_per_morsel, "ns/morsel"),
        ("storage.load_ns_per_row", s.load_ns_per_row, "ns/row"),
        (
            "storage.bytes_per_user_byte",
            s.bytes_per_user_byte,
            "ratio",
        ),
        ("storage.wal_append_us", s.wal_append_us, "us"),
        ("storage.wal_fsync_us", s.wal_fsync_us, "us"),
    ]);
    op_table(out, "the join_sort classes", &s.ops);
    for (width, o) in &s.simd {
        out.notes.push(format!(
            "  simd::eval_range width {width:>2}: {:.3} ns/row over {} codes",
            o.ns_per_row(),
            o.rows
        ));
    }
}

/// The operator replay's table: ns/row and share per operator, and the
/// operator that owns the largest share.
fn op_table(out: &mut Layers, of: &str, ops: &OpTimes) {
    let total_ns: u64 = ops.values().map(|o| o.ns).sum();
    out.notes.push(format!(
        "operator replay of {of} (operator-at-a-time path, approximate; scan_pred = scans with pushed-down predicates):"
    ));
    for (name, o) in ops {
        out.notes.push(format!(
            "  op.{name:<10} {:>9.1} ns/row over {:>9} rows, {:>5.1} % of replayed operator time",
            o.ns_per_row(),
            o.rows,
            o.ns as f64 * 100.0 / total_ns.max(1) as f64
        ));
    }
    if let Some((name, o)) = ops.iter().max_by_key(|(_, o)| o.ns) {
        out.notes.push(format!(
            "  largest share of execute time: op.{name} at {:.1} ns/row",
            o.ns_per_row()
        ));
    }
}

/// The mix with `SyncPolicy::Commit`, briefly: what a commit costs when it
/// has to reach the disk.
fn fsync_probe(cfg: &Config) -> Result<TxnRun, String> {
    txn_phases(cfg, txn::FSYNC_PROBE, FSYNC_PROBE_SECONDS, 1, None)
}

fn txn_metrics(out: &mut Layers, probe: &TxnRun) {
    let t = &probe.layer;
    out.notes.push(format!(
        "fsync-path metrics (fsyncs_per_commit .. recover_s) come from a {FSYNC_PROBE_SECONDS} s run of the mix with \
         SyncPolicy::Commit, {} rounds, stmt_per_s {:.0}:",
        probe.plain.rounds.len(),
        probe.plain.stmt_per_s()
    ));
    out.notes
        .extend(probe.notes.iter().map(|n| format!("  {n}")));
    out.metrics.extend([
        ("storage.fsyncs_per_commit", t.fsyncs_per_commit, "ratio"),
        (
            "storage.avg_group_commit_batch",
            t.avg_group_commit_batch,
            "count",
        ),
        (
            "storage.wal_bytes_per_user_byte",
            t.wal_bytes_per_user_byte,
            "ratio",
        ),
        ("storage.checkpoint_s", t.checkpoint_s, "s"),
        ("storage.recover_s", t.recover_s, "s"),
    ]);
    out.notes.push(
        "fsync, checkpoint and reopen times are this sandbox's page cache, not a storage device's"
            .into(),
    );
}

fn trace_metrics(out: &mut Layers, plain: &Phase, traced: &Phase) {
    let (p, t) = (plain.stmt_per_s(), traced.stmt_per_s());
    out.metrics
        .push(("trace.overhead_pct", (p - t) / p * 100.0, "%"));
    out.notes.push(format!(
        "stmt_per_s untraced {p:.2} over {} rounds, traced {t:.2} over {} rounds",
        plain.rounds.len(),
        traced.rounds.len()
    ));
}

/// Write the span file and add the self-time table to the notes.
fn finish_trace(
    out: &mut Layers,
    workload: &str,
    cfg: &Config,
    threads: Vec<Vec<Span>>,
) -> Result<(), String> {
    let table: BTreeMap<&'static str, LayerTime> =
        trace::merge(threads.iter().map(|t| trace::self_times(t)));
    out.notes
        .push("span self time (span minus its children), all threads:".into());
    for (name, lt) in &table {
        out.notes.push(format!(
            "  {name:<20} {:>8} spans, total {:>10.3} ms, self {:>10.3} ms",
            lt.count,
            lt.total_ns as f64 / 1e6,
            lt.self_ns as f64 / 1e6
        ));
    }
    let path = cfg.out.join(format!("spans.{workload}.json"));
    let header = format!(
        "\"workload\": \"{workload}\", \"seed\": {}, \"nproc\": {}",
        cfg.seed, cfg.nproc
    );
    trace::write_json(&path, &header, &threads)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let spans: usize = threads.iter().map(Vec::len).sum();
    out.notes
        .push(format!("{spans} spans written to {}", path.display()));
    Ok(())
}
