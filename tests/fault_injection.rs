//! Deterministic chaos tests: the resilient scatter-gather under injected
//! node deaths, transient shard faults, storage faults, stragglers, and
//! membership churn. Every scenario uses counting (`OneShot`/`EveryNth`)
//! or scoped failpoints so outcomes are bit-for-bit reproducible no matter
//! how the worker threads interleave.

use dashdb_local::common::dialect::Dialect;
use dashdb_local::common::faults::{
    FaultAction, FaultPolicy, FaultRegistry, CLUSTERFS_MOUNT, NODE_CRASH,
    REBALANCE_DURING_SCATTER, SHARD_EXEC,
};
use dashdb_local::common::ids::NodeId;
use dashdb_local::common::types::DataType;
use dashdb_local::common::{row, Datum, Field, Row, Schema};
use dashdb_local::core::monitor::RecoveryStats;
use dashdb_local::core::HardwareSpec;
use dashdb_local::mpp::{Cluster, Distribution};
use std::time::{Duration, Instant};

/// Registry seed for this run: `DASH_FAULT_SEED` (the CI matrix variable)
/// when set, otherwise the scenario's default. Every scenario uses
/// counting or scoped policies, so correctness must hold — and is CI-run
/// — under any seed; the seed varies `Probability` draws and interleaving
/// pressure only.
fn seed(default: u64) -> u64 {
    std::env::var("DASH_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::not_null("id", DataType::Int64),
        Field::new("region", DataType::Utf8),
        Field::new("amount", DataType::Float64),
    ])
    .unwrap()
}

fn sales_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| row![i as i64, format!("r{}", i % 4), (i % 25) as f64])
        .collect()
}

fn loaded_cluster(nodes: usize, shards_per_node: usize, rows: usize, faults: FaultRegistry) -> Cluster {
    let c = Cluster::with_faults(nodes, shards_per_node, HardwareSpec::laptop(), faults).unwrap();
    c.create_table("sales", sales_schema(), Distribution::Hash("id".into()))
        .unwrap();
    c.load_rows("sales", sales_rows(rows)).unwrap();
    c
}

const TOTALS_SQL: &str =
    "SELECT region, COUNT(*), SUM(amount), MIN(id), MAX(id) FROM sales GROUP BY region ORDER BY region";

/// A node dies mid-SELECT: every one of its shards reports the crash, the
/// coordinator fails it over and re-drives only the lost shards, and the
/// query returns exactly what a fault-free run returns.
#[test]
fn node_death_mid_select_fails_over_and_returns_correct_totals() {
    let expected = loaded_cluster(4, 6, 4000, FaultRegistry::new())
        .query(TOTALS_SQL)
        .unwrap();

    let reg = FaultRegistry::with_seed(seed(7));
    let c = loaded_cluster(4, 6, 4000, reg.clone());
    // Node 2 crashes the moment it touches any of its shards — `Always`,
    // so every in-flight shard on the node is lost, exactly like a real
    // process death. After failover its shards belong to other nodes, so
    // the scoped site stops matching and the re-drive succeeds.
    reg.arm(
        FaultRegistry::scoped(NODE_CRASH, 2),
        FaultPolicy::Always,
        FaultAction::Error("kernel panic".into()),
    );
    let rows = c.query(TOTALS_SQL).unwrap();
    assert_eq!(rows, expected, "failover must not change query results");

    let rec = c.monitor().recovery();
    assert_eq!(rec.failovers, 1, "exactly one node was declared dead: {rec:?}");
    assert_eq!(c.live_nodes(), 3);
    // Figure 9: 24 shards over 3 survivors = 8 each.
    for (_, shards) in c.shard_distribution() {
        assert_eq!(shards.len(), 8);
    }
    // The dead node holds no clustered-filesystem mounts any more.
    for s in c.filesystem().shards() {
        assert_ne!(c.filesystem().mounted_by(s), Some(NodeId(2)));
    }
    // A second query needs no recovery at all.
    let before = c.monitor().recovery();
    assert_eq!(c.query(TOTALS_SQL).unwrap(), expected);
    assert_eq!(c.monitor().recovery(), before);
}

/// Transient per-shard faults are absorbed by bounded retry without any
/// failover, and the statement still answers correctly.
#[test]
fn transient_shard_faults_are_retried_not_escalated() {
    let expected = loaded_cluster(3, 4, 1500, FaultRegistry::new())
        .query(TOTALS_SQL)
        .unwrap();
    let reg = FaultRegistry::with_seed(seed(11));
    let c = loaded_cluster(3, 4, 1500, reg.clone());
    // Shards 1 and 5 each fail exactly once; the retry succeeds.
    for shard in [1u32, 5] {
        reg.arm(
            FaultRegistry::scoped(SHARD_EXEC, shard),
            FaultPolicy::OneShot,
            FaultAction::Error("work unit lost".into()),
        );
    }
    assert_eq!(c.query(TOTALS_SQL).unwrap(), expected);
    let rec = c.monitor().recovery();
    assert_eq!(rec.shard_retries, 2, "{rec:?}");
    assert_eq!(rec.failovers, 0, "retries must not kill nodes: {rec:?}");
    assert_eq!(c.live_nodes(), 3);
}

/// Membership churn: random-ish joins and leaves (driven by a fixed seed)
/// keep the shard assignment within an imbalance of one after every single
/// rebalance, and no shard is ever lost.
#[test]
fn imbalance_stays_within_one_under_membership_churn() {
    let c = loaded_cluster(4, 6, 800, FaultRegistry::new());
    let total_shards = c.shard_count();
    // SplitMix64 — same generator the registry uses, fixed seed.
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut alive: Vec<NodeId> = (0..4).map(NodeId).collect();
    for step in 0..24 {
        let grow = alive.len() <= 2 || (next() % 2 == 0 && alive.len() < 8);
        let report = if grow {
            let (id, report) = c.add_node(HardwareSpec::laptop()).unwrap();
            alive.push(id);
            report
        } else {
            let victim = alive.remove((next() as usize) % alive.len());
            if next() % 2 == 0 {
                c.fail_node(victim).unwrap()
            } else {
                c.remove_node(victim).unwrap()
            }
        };
        assert!(
            report.imbalance() <= 1,
            "step {step}: imbalance {} > 1 over {:?}",
            report.imbalance(),
            report.shards_per_node
        );
        let assigned: usize = report.shards_per_node.iter().map(|(_, n)| n).sum();
        assert_eq!(assigned, total_shards, "step {step}: shards lost");
    }
    // The data is still all there.
    let rows = c.query("SELECT COUNT(*) FROM sales").unwrap();
    assert_eq!(rows[0].get(0), &Datum::Int(800));
}

/// Injected faults surface as typed errors with the right SQLSTATE class —
/// never as panics: storage faults are class 58030, cluster exhaustion is
/// 57011, deadline kills are 57014.
#[test]
fn injected_faults_surface_as_classified_errors_never_panics() {
    let reg = FaultRegistry::with_seed(seed(3));
    let c = loaded_cluster(3, 3, 900, reg.clone());

    // A mount fault on a non-retried path (DML broadcast) is a plain
    // storage error.
    reg.arm(
        CLUSTERFS_MOUNT,
        FaultPolicy::OneShot,
        FaultAction::Error("stale file handle".into()),
    );
    let err = c.execute_all("UPDATE sales SET amount = amount").unwrap_err();
    assert_eq!(err.class(), "58030", "{err}");

    // A shard fault that never stops firing exhausts retries, kills the
    // assigned node, follows the shard to its new node, kills that one
    // too... until quorum is lost: a clean cluster error.
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 0),
        FaultPolicy::Always,
        FaultAction::Error("persistent corruption".into()),
    );
    let err = c.query(TOTALS_SQL).unwrap_err();
    assert_eq!(err.class(), "57011", "{err}");
    assert_eq!(c.live_nodes(), 1, "survivors minus the quorum floor");
    reg.disarm_all();

    // A straggler shard plus a statement deadline: the coordinator kills
    // the statement as Cancelled instead of hanging.
    let reg = FaultRegistry::with_seed(seed(5));
    let c = loaded_cluster(3, 3, 900, reg.clone());
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 4),
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(30)),
    );
    c.set_statement_deadline(Some(Duration::from_millis(100)));
    let err = c.query(TOTALS_SQL).unwrap_err();
    assert_eq!(err.class(), "57014", "{err}");
    let rec = c.monitor().recovery();
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");
    assert!(rec.stragglers >= 1, "{rec:?}");
    // Disarm, clear the deadline: the same cluster answers again.
    reg.disarm_all();
    c.set_statement_deadline(None);
    assert_eq!(c.query("SELECT COUNT(*) FROM sales").unwrap()[0].get(0), &Datum::Int(900));
}

/// A deadline kill is always `Cancelled`, whichever check site sees the
/// deadline first — a stalled shard, a morsel claim, or the round's end.
/// Shards that report `Cancelled` must not be requeued as if a node had
/// failed, which used to end in "did not converge" (a cluster error): the
/// round asks the token once, after it ends, and counts the kill there.
#[test]
fn deadline_kill_is_cancelled_whichever_timer_fires_first() {
    let reg = FaultRegistry::with_seed(seed(5));
    let c = loaded_cluster(3, 3, 900, reg.clone());
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 4),
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(30)),
    );
    c.set_statement_deadline(Some(Duration::from_millis(15)));
    for round in 1..=40u64 {
        let err = c.query(TOTALS_SQL).unwrap_err();
        assert_eq!(err.class(), "57014", "round {round}: {err}");
        assert_eq!(c.monitor().recovery().deadline_kills, round);
    }
    assert_eq!(c.live_nodes(), 3, "a deadline kill never buries a node");
}

/// The stall the `rebalance.during_scatter` failpoint injects between
/// failover rounds sleeps on the statement's token: a deadline that fires
/// during it kills the statement promptly, counted once, with no epoch
/// left pinned.
#[test]
fn deadline_fires_inside_the_stall_between_failover_rounds() {
    let reg = FaultRegistry::with_seed(seed(19));
    let c = loaded_cluster(3, 3, 900, reg.clone());
    // One crash on node 1 forces a second round; the stall precedes it.
    reg.arm(
        FaultRegistry::scoped(NODE_CRASH, 1),
        FaultPolicy::OneShot,
        FaultAction::Error("oom killer".into()),
    );
    reg.arm(
        REBALANCE_DURING_SCATTER,
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_secs(30)),
    );
    let start = Instant::now();
    let err = c
        .query_with_deadline(TOTALS_SQL, Some(Duration::from_millis(200)))
        .unwrap_err();
    assert_eq!(err.class(), "57014", "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the 30 s stall must not be waited out"
    );
    let rec = c.monitor().recovery();
    assert_eq!(rec.deadline_kills, 1, "{rec:?}");
    assert_eq!(c.monitor().epoch_gc_watermark(), None);
}

/// The whole point of the seeded registry: an identical fault script on an
/// identical cluster produces identical results, identical recovery
/// counters, and identical per-failpoint statistics, run after run.
#[test]
fn chaos_run_is_bit_for_bit_deterministic() {
    type SiteStats = Vec<(String, (u64, u64))>;
    fn run() -> (Vec<Row>, RecoveryStats, SiteStats) {
        let reg = FaultRegistry::with_seed(seed(42));
        let c = loaded_cluster(4, 5, 2000, reg.clone());
        reg.arm(
            FaultRegistry::scoped(SHARD_EXEC, 3),
            FaultPolicy::EveryNth(2),
            FaultAction::Error("flaky interconnect".into()),
        );
        reg.arm(
            FaultRegistry::scoped(SHARD_EXEC, 9),
            FaultPolicy::OneShot,
            FaultAction::Error("work unit lost".into()),
        );
        reg.arm(
            FaultRegistry::scoped(NODE_CRASH, 1),
            FaultPolicy::OneShot,
            FaultAction::Error("oom killer".into()),
        );
        let mut rows = c.query(TOTALS_SQL).unwrap();
        rows.extend(c.query("SELECT COUNT(*) FROM sales").unwrap());
        let stats = reg
            .snapshot()
            .into_iter()
            .map(|(site, s)| (site, (s.evaluations, s.fires)))
            .collect();
        (rows, c.monitor().recovery(), stats)
    }
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "query results must be reproducible");
    assert_eq!(a.1, b.1, "recovery counters must be reproducible");
    assert_eq!(a.2, b.2, "failpoint statistics must be reproducible");
    assert!(a.1.failovers >= 1, "the node crash really fired: {:?}", a.1);
}

/// The torn-read bug this PR fixes, reproduced deterministically: a node
/// dies mid-SELECT *and* the `rebalance.during_scatter` failpoint forces a
/// second full rebalance between the failover rounds. The statement's
/// pinned epoch makes both invisible — it answers exactly what a quiesced
/// cluster answers, re-pins the lost shards onto the fresh epoch (a
/// stale-epoch retry), and never runs a round spanning two epochs.
#[test]
fn rebalance_during_scatter_is_invisible_to_the_statement() {
    let expected = loaded_cluster(4, 6, 4000, FaultRegistry::new())
        .query(TOTALS_SQL)
        .unwrap();

    let reg = FaultRegistry::with_seed(seed(7));
    let c = loaded_cluster(4, 6, 4000, reg.clone());
    reg.arm(
        FaultRegistry::scoped(NODE_CRASH, 2),
        FaultPolicy::Always,
        FaultAction::Error("kernel panic".into()),
    );
    // Every failover round is preceded by an *extra* full rebalance, so
    // the in-flight statement races not one membership change but two.
    reg.arm(
        REBALANCE_DURING_SCATTER,
        FaultPolicy::Always,
        FaultAction::Error("forced rebalance".into()),
    );
    let rows = c.query(TOTALS_SQL).unwrap();
    assert_eq!(rows, expected, "a racing rebalance must not change results");

    let rec = c.monitor().recovery();
    assert_eq!(rec.failovers, 1, "{rec:?}");
    assert!(
        rec.stale_epoch_retries >= 1,
        "the lost shards re-pinned onto the post-failover epoch: {rec:?}"
    );
    assert_eq!(
        rec.torn_epoch_rounds, 0,
        "no round may mix assignment epochs: {rec:?}"
    );
    assert!(
        c.assignment_epoch() >= 2,
        "failover plus the forced rebalance both bumped the epoch"
    );
    // Quiesce: with the failpoints disarmed the same cluster still
    // answers identically, with no further recovery work.
    reg.disarm_all();
    let before = c.monitor().recovery();
    assert_eq!(c.query(TOTALS_SQL).unwrap(), expected);
    assert_eq!(c.monitor().recovery(), before);
}

/// True concurrency, no failpoints: a stream of SELECTs races real
/// membership churn (remove, add, remove) on other threads. Every single
/// result must equal the quiesced answer — epoch pinning means a
/// statement sees exactly one assignment version, and the clustered
/// filesystem keeps stale-epoch readers off the new owners' mounts.
#[test]
fn select_stream_racing_membership_churn_stays_exact() {
    let c = loaded_cluster(4, 4, 2000, FaultRegistry::new());
    let expected = c.query(TOTALS_SQL).unwrap();
    std::thread::scope(|s| {
        let churn = s.spawn(|| {
            c.remove_node(NodeId(3)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            let (id, _) = c.add_node(HardwareSpec::laptop()).unwrap();
            std::thread::sleep(Duration::from_millis(2));
            c.remove_node(id).unwrap();
        });
        for i in 0..30 {
            let rows = c.query(TOTALS_SQL).unwrap();
            assert_eq!(rows, expected, "iteration {i} tore across a rebalance");
        }
        churn.join().unwrap();
    });
    let rec = c.monitor().recovery();
    assert_eq!(rec.torn_epoch_rounds, 0, "{rec:?}");
    assert!(
        rec.epoch_bumps >= 3,
        "three membership events, three epoch bumps: {rec:?}"
    );
    assert_eq!(c.live_nodes(), 3);
    assert_eq!(c.query(TOTALS_SQL).unwrap(), expected);
}

/// Deadlines belong to statements, not to the cluster: a statement with a
/// tight per-call deadline dies Cancelled while a concurrent statement
/// with no deadline — running through the very same stalled shard — is
/// untouched and answers correctly.
#[test]
fn deadline_is_per_statement_not_shared() {
    let reg = FaultRegistry::with_seed(seed(13));
    let c = loaded_cluster(3, 3, 900, reg.clone());
    let expected = c.query(TOTALS_SQL).unwrap();
    // Shard 4 stalls every statement that touches it for 300ms.
    reg.arm(
        FaultRegistry::scoped(SHARD_EXEC, 4),
        FaultPolicy::Always,
        FaultAction::Stall(Duration::from_millis(300)),
    );
    std::thread::scope(|s| {
        let doomed = s.spawn(|| {
            c.query_with_deadline(TOTALS_SQL, Some(Duration::from_millis(50)))
        });
        let patient = s.spawn(|| c.query_with_deadline(TOTALS_SQL, None));
        let err = doomed.join().unwrap().unwrap_err();
        assert_eq!(err.class(), "57014", "tight deadline dies Cancelled: {err}");
        let rows = patient.join().unwrap().unwrap();
        assert_eq!(rows, expected, "the other statement must ride out the stall");
    });
    let rec = c.monitor().recovery();
    assert_eq!(
        rec.deadline_kills, 1,
        "only the deadlined statement was killed: {rec:?}"
    );
    assert_eq!(rec.failovers, 0, "a stall is not a death: {rec:?}");
    // The cluster-wide default was never written by either call.
    reg.disarm_all();
    assert_eq!(c.query(TOTALS_SQL).unwrap(), expected);
}

/// Coordinator-side LIMIT/OFFSET merge under failover: the per-shard
/// top-k push-down sends `LIMIT limit+offset` to every shard, and the
/// coordinator applies OFFSET exactly once after the re-sort — even when
/// half the shards were re-driven on a newer epoch mid-statement.
#[test]
fn limit_offset_merge_survives_mid_query_failover() {
    const PAGE_SQL: &str = "SELECT id FROM sales ORDER BY 1 LIMIT 10 OFFSET 7";
    let mut quiet = loaded_cluster(4, 5, 3000, FaultRegistry::new());
    quiet.set_dialect(Dialect::PostgreSql);
    let expected = quiet.query(PAGE_SQL).unwrap();
    assert_eq!(expected.len(), 10);
    // Rows 7..17 of the global ORDER BY id — proves OFFSET was applied
    // once (coordinator), not twice (shards and coordinator).
    for (i, r) in expected.iter().enumerate() {
        assert_eq!(r.get(0), &Datum::Int(7 + i as i64));
    }

    let reg = FaultRegistry::with_seed(seed(17));
    let mut c = loaded_cluster(4, 5, 3000, reg.clone());
    c.set_dialect(Dialect::PostgreSql);
    reg.arm(
        FaultRegistry::scoped(NODE_CRASH, 1),
        FaultPolicy::Always,
        FaultAction::Error("power loss".into()),
    );
    reg.arm(
        REBALANCE_DURING_SCATTER,
        FaultPolicy::Always,
        FaultAction::Error("forced rebalance".into()),
    );
    let rows = c.query(PAGE_SQL).unwrap();
    assert_eq!(
        rows, expected,
        "pagination must be stable across a mid-query epoch bump"
    );
    let rec = c.monitor().recovery();
    assert_eq!(rec.failovers, 1, "{rec:?}");
    assert_eq!(rec.torn_epoch_rounds, 0, "{rec:?}");
}

/// Chained crashes: three of four nodes die under the statement, one
/// after another as the shards follow the failovers. The convergence
/// budget is paid by *observed* deaths (not initial membership), so the
/// statement keeps re-driving until the sole survivor answers — exactly.
#[test]
fn chained_crashes_converge_on_the_sole_survivor() {
    let expected = loaded_cluster(4, 3, 2400, FaultRegistry::new())
        .query(TOTALS_SQL)
        .unwrap();
    let reg = FaultRegistry::with_seed(seed(23));
    let c = loaded_cluster(4, 3, 2400, reg.clone());
    for node in [1u32, 2, 3] {
        reg.arm(
            FaultRegistry::scoped(NODE_CRASH, node),
            FaultPolicy::Always,
            FaultAction::Error("cascading failure".into()),
        );
    }
    let rows = c.query(TOTALS_SQL).unwrap();
    assert_eq!(rows, expected, "three deaths must not change the answer");
    let rec = c.monitor().recovery();
    assert_eq!(rec.failovers, 3, "{rec:?}");
    assert_eq!(rec.torn_epoch_rounds, 0, "{rec:?}");
    assert_eq!(c.live_nodes(), 1, "only node 0 survives");
    // All 12 shards now live on the survivor.
    let dist = c.shard_distribution();
    assert_eq!(dist.len(), 1);
    assert_eq!(dist[0].1.len(), 12);
}
