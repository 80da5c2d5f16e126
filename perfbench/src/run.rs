//! The closed loop: clients, rounds, and what a phase of rounds adds up to.
//!
//! A round is every client's whole statement list, once. Each client is one
//! thread with one session and sends its next statement only when the
//! previous one has returned (closed loop, at most `nproc` clients, one
//! process). Rounds repeat, whole, until the measuring time is used up, so
//! every reported number is a median over rounds of identical work.

use crate::stats;
use crate::trace::{Span, Tracer};
use dash_common::DashError;
use dash_core::{QueryResult, Session};
use std::collections::BTreeMap;
use std::time::Instant;

/// How long a phase runs: whole rounds until `seconds` have passed, and
/// at least `min_rounds` however slow the machine.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_rounds: usize,
}

impl Budget {
    /// A measured phase: at least three rounds, so a median exists.
    pub fn measure(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_rounds: 3,
        }
    }

    /// One untimed round to fill caches and finish lazy set-up.
    pub const WARM_UP: Budget = Budget {
        seconds: 0.0,
        min_rounds: 1,
    };
}

/// What latency samples are kept apart by: the statement class and, within
/// it, the statement. Statements that differ only in generated keys (the
/// read-write mix) share slot 0.
pub type Slot = (&'static str, u32);

/// What one client thread collects during one round.
pub struct Recorder {
    samples: Vec<(Slot, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub write_conflicts: u64,
    /// Wrong results and engine errors, with the SQL.
    pub errors: Vec<String>,
    tracer: Option<Tracer>,
    /// High bits of this round's statement ids.
    stmt_base: u64,
}

impl Recorder {
    /// A recorder for statements outside any traced round (set-up).
    pub fn untraced() -> Recorder {
        Recorder::new(None, 0)
    }

    fn new(trace_epoch: Option<Instant>, stmt_base: u64) -> Recorder {
        Recorder {
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            write_conflicts: 0,
            errors: Vec::new(),
            tracer: trace_epoch.map(Tracer::new),
            stmt_base,
        }
    }

    /// Run one statement through the product path and account for it: an
    /// `Err` counts as failed, is left out of the latency samples, and the
    /// loop goes on.
    pub fn execute(
        &mut self,
        session: &mut Session,
        slot: Slot,
        idx: usize,
        sql: &str,
    ) -> Option<QueryResult> {
        self.attempted += 1;
        let span = self
            .tracer
            .as_mut()
            .map(|t| t.enter("session.execute", self.stmt_base | idx as u64));
        let start = Instant::now();
        let result = session.execute(sql);
        let ns = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.exit(id);
        }
        match result {
            Ok(r) => {
                self.samples.push((slot, ns));
                Some(r)
            }
            Err(e) => {
                self.failed += 1;
                if matches!(e, DashError::WriteConflict(_)) {
                    self.write_conflicts += 1;
                }
                self.errors.push(format!("{e}\n  {sql}"));
                None
            }
        }
    }

    /// A statement that returned `Ok` with the wrong answer.
    pub fn wrong(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Time a non-SQL engine call (checkpoint) inside the round.
    pub fn engine_call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_mut() {
            Some(t) => t.span(name, 0, f).0,
            None => f(),
        }
    }
}

/// One closed-loop client.
pub trait Client: Send {
    /// Get ready for `round` (generate its list); runs before the round's
    /// clock starts.
    fn prepare(&mut self, _round: u64) {}

    /// Run this client's statement list once.
    fn run_round(&mut self, round: u64, rec: &mut Recorder);
}

pub struct Round {
    pub wall_s: f64,
    pub ok: u64,
}

/// Everything a sequence of rounds produced.
#[derive(Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
    /// Latency samples in ms, pooled over rounds, per statement.
    pub samples: BTreeMap<Slot, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub write_conflicts: u64,
    pub errors: Vec<String>,
    /// One span list per client thread per round, plus the main thread's.
    pub spans: Vec<Vec<Span>>,
}

impl Phase {
    /// Take in one round: every client's recorder plus the main thread's.
    fn absorb_round(&mut self, wall_s: f64, recorders: Vec<Recorder>) {
        let mut ok = 0;
        for rec in recorders {
            ok += rec.samples.len() as u64;
            for (slot, ns) in rec.samples {
                self.samples.entry(slot).or_default().push(ns as f64 / 1e6);
            }
            self.attempted += rec.attempted;
            self.failed += rec.failed;
            self.write_conflicts += rec.write_conflicts;
            self.errors.extend(rec.errors);
            if let Some(t) = rec.tracer {
                self.spans.push(t.into_spans());
            }
        }
        self.rounds.push(Round { wall_s, ok });
    }

    fn per_round_rates(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.ok as f64 / r.wall_s).collect()
    }

    /// Statements completed OK per second: the median over rounds.
    pub fn stmt_per_s(&self) -> f64 {
        stats::median(&self.per_round_rates())
    }

    /// The benchmark's own noise bound: IQR of the per-round rates over
    /// their median.
    pub fn round_iqr_frac(&self) -> f64 {
        stats::iqr_frac(&self.per_round_rates())
    }

    /// Every class's samples, pooled over its statements and the rounds.
    pub fn class_samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((class, _), v) in &self.samples {
            out.entry(class).or_default().extend(v);
        }
        out
    }

    /// Geometric mean over classes of each class's latency, so a short
    /// interactive class weighs as much as a heavy one. A class's latency
    /// is the mean over its statements of each statement's median over the
    /// rounds: the median drops disturbed rounds, and the mean takes in
    /// every statement of the class, whose costs differ with their
    /// constants (a pooled median would jump between them from seed to seed).
    pub fn lat_geomean_ms(&self) -> f64 {
        let mut classes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((class, _), v) in &self.samples {
            classes.entry(class).or_default().push(stats::median(v));
        }
        let latencies: Vec<f64> = classes
            .values()
            .map(|m| m.iter().sum::<f64>() / m.len() as f64)
            .collect();
        stats::geomean(&latencies)
    }
}

/// Run whole rounds until `budget` is used up. `after_clients` runs on the
/// calling thread inside each round's wall time, once every client has
/// finished its list.
pub fn run_rounds<C: Client>(
    clients: &mut [C],
    first_round: u64,
    budget: Budget,
    trace_epoch: Option<Instant>,
    after_clients: &mut dyn FnMut(&mut Recorder),
) -> Phase {
    let mut phase = Phase::default();
    let began = Instant::now();
    let n = clients.len() as u64;
    let mut round = first_round;
    while phase.rounds.len() < budget.min_rounds || began.elapsed().as_secs_f64() < budget.seconds {
        let mut recorders: Vec<Recorder> = (0..n)
            .map(|c| Recorder::new(trace_epoch, (round * n + c) << 24))
            .collect();
        let mut main_rec = Recorder::new(trace_epoch, 0);
        clients.iter_mut().for_each(|c| c.prepare(round));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (client, rec) in clients.iter_mut().zip(recorders.iter_mut()) {
                scope.spawn(move || client.run_round(round, rec));
            }
        });
        after_clients(&mut main_rec);
        let wall_s = start.elapsed().as_secs_f64();
        recorders.push(main_rec);
        phase.absorb_round(wall_s, recorders);
        round += 1;
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_metrics_are_round_medians_and_class_geomeans() {
        let mut phase = Phase::default();
        for (wall_s, ok) in [(1.0, 100), (2.0, 100), (0.5, 100)] {
            phase.rounds.push(Round { wall_s, ok });
        }
        // Rates 100, 50, 200 per second.
        assert_eq!(phase.stmt_per_s(), 100.0);
        assert!((phase.round_iqr_frac() - 1.5).abs() < 1e-12);
        // Two statements of one class: medians 1 and 3, class latency 2.
        phase.samples.insert(("light", 0), vec![1.0, 1.0, 100.0]);
        phase.samples.insert(("light", 1), vec![3.0, 3.0, 3.0]);
        phase.samples.insert(("heavy", 0), vec![400.0, 50.0, 50.0]);
        assert!((phase.lat_geomean_ms() - 10.0).abs() < 1e-9);
        assert_eq!(phase.class_samples()["light"].len(), 6);
    }
}
