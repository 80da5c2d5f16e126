//! The repo's one wall-clock benchmark. See `README.md` beside this crate
//! and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench [--seed <n>] [--seconds <s>]      every workload, both runs
//! perfbench --selfcheck [--seed <n>]          every workload twice, gaps vs bounds
//! ```

mod analytic;
mod gen;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod txn;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Config, EndToEnd, Layers, WORKLOADS};

/// `--seed` and `--seconds` when not given; the same values
/// `BENCHMARK.json` records (`run_seconds`).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

/// How far each end-to-end metric may worsen before a change counts as a
/// regression; the same bounds `BENCHMARK.json` records.
const BOUNDS: [(&str, f64); 3] = [
    ("setup_s", 0.25),
    ("stmt_per_s", 0.15),
    ("lat_geomean_ms", 0.15),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the benchmark writes, inside the checkout: under the cargo target
/// directory, which `.gitignore` names.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-work")
}

/// The commit the checkout is at, when it is a git repository.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match sha.trim() {
        "" => "unknown".into(),
        s => s.to_string(),
    }
}

/// The last line of a run: the contract's JSON object.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{}` prints every digit an f64 needs to round-trip.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn print_errors(errors: &[String]) {
    for e in errors.iter().take(5) {
        println!("  ERROR {e}");
    }
    if errors.len() > 5 {
        println!("  ... and {} more", errors.len() - 5);
    }
}

fn end_to_end_metrics(e: &EndToEnd) -> [(&'static str, f64, &'static str); 3] {
    [
        ("setup_s", e.setup_s, "s"),
        ("stmt_per_s", e.phase.stmt_per_s(), "1/s"),
        ("lat_geomean_ms", e.phase.lat_geomean_ms(), "ms"),
    ]
}

fn print_end_to_end(workload: &str, e: &EndToEnd) -> bool {
    println!("== {workload}: end to end (tracing off)");
    for n in &e.notes {
        println!("  {n}");
    }
    for (name, value, unit) in end_to_end_metrics(e) {
        println!("  {name:<16} {value:>14.4} {unit}");
    }
    let p = &e.phase;
    println!(
        "  rounds {}   round_iqr_frac {:.4}   ops_attempted {}   ops_failed {}   write_conflicts {}",
        p.rounds.len(),
        p.round_iqr_frac(),
        p.attempted,
        p.failed,
        p.write_conflicts
    );
    println!("  class                 samples      p50_ms       tail");
    for (class, samples) in &p.class_samples() {
        let tail = match stats::tail_percentile(samples.len()) {
            Some(pct) => format!("p{pct} {:.3} ms", stats::percentile(samples, pct)),
            None => "-".into(),
        };
        println!(
            "  {class:<20} {:>8} {:>11.4}   {tail}",
            samples.len(),
            stats::median(samples)
        );
    }
    print_errors(&p.errors);
    let correct = p.failed == 0;
    println!(
        "{}",
        result_line(correct, p.attempted, p.failed, &end_to_end_metrics(e))
    );
    correct
}

fn print_layers(workload: &str, l: &Layers) -> bool {
    println!("== {workload}: per layer (traced run)");
    for (name, value, unit) in &l.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    for n in &l.notes {
        println!("  {n}");
    }
    print_errors(&l.errors);
    let correct = l.failed == 0;
    println!(
        "{}",
        result_line(correct, l.attempted, l.failed, &l.metrics)
    );
    correct
}

/// Run every workload twice back to back and hold the two runs' gaps
/// against the bounds: the test "two sets of runs agree" is judged with.
fn selfcheck(cfg: &Config) -> Result<bool, String> {
    let mut all_pass = true;
    println!("workload             metric              first         second      gap    bound");
    for workload in WORKLOADS {
        let a = workload::end_to_end(workload, cfg)?;
        let b = workload::end_to_end(workload, cfg)?;
        if a.phase.failed + b.phase.failed > 0 {
            print_errors(&a.phase.errors);
            print_errors(&b.phase.errors);
            return Err(format!("{workload}: statements failed"));
        }
        for ((name, x, _), (_, y, _)) in end_to_end_metrics(&a)
            .into_iter()
            .zip(end_to_end_metrics(&b))
        {
            let bound = BOUNDS
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, b)| *b);
            let gap = (x - y).abs() / x.min(y);
            let pass = gap <= bound;
            all_pass &= pass;
            println!(
                "{workload:<20} {name:<16} {x:>12.4} {y:>14.4} {:>7.2}% {:>7.0}%  {}",
                gap * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
        for (run, e) in [("first", &a), ("second", &b)] {
            println!(
                "{workload:<20} round_iqr_frac ({run}) {:.4} over {} rounds",
                e.phase.round_iqr_frac(),
                e.phase.rounds.len()
            );
        }
    }
    Ok(all_pass)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DASH_"))
    {
        return Err(format!(
            "{} is set; the benchmark measures the auto-configured engine and refuses to start",
            name.to_string_lossy()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = out_dir();
    // WAL directories live here for the length of the run.
    let work = out.join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        fact_rows: gen::FACT_ROWS,
        work: &work,
        out: &out,
    };
    println!(
        "perfbench: nproc {nproc}, git {}, seed {}, {} s per measured phase; wall-clock only, nothing modeled",
        git_sha(),
        args.seed,
        args.seconds
    );
    let outcome = (|| {
        if args.selfcheck {
            return selfcheck(&cfg);
        }
        let mut correct = true;
        let chosen: Vec<&str> = match &args.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        for workload in chosen {
            // A named workload runs the one mode `--trace` asks for;
            // with no workload named, each runs both.
            if args.workload.is_none() || !args.trace {
                correct &= print_end_to_end(workload, &workload::end_to_end(workload, &cfg)?);
            }
            if args.workload.is_none() || args.trace {
                correct &= print_layers(workload, &workload::traced(workload, &cfg)?);
            }
        }
        Ok(correct)
    })();
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the constants here are
    /// what `--selfcheck` and the defaults use. They must say the same.
    #[test]
    fn constants_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, bound) in BOUNDS {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{line}");
        }
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        assert!(json.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }
}
