//! The repository benchmark: one command that runs a named workload of the
//! printed-MLP minimization system, prints every metric with its unit, and
//! fails when an output check fails.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload battery|ga|warm_join --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs the traced, layer-by-layer pass instead and
//! prints the per-layer metrics and a self-time table. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod stats;
mod store;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Operations attempted and output checks failed during a run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts `n` attempted operations (workload runs, candidate
    /// evaluations, store and serve requests).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failure unless `ok`, reporting `what` on standard error.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }

    /// Counts `n` failed operations, reporting them when there are any.
    pub fn fail_count(&mut self, n: u64, what: &str) {
        if n > 0 {
            eprintln!("check failed: {n} {what}");
            self.failed += n;
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |()| format!("bad value '{value}' for {flag}");
        let value = value.as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad(()))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Renders the result line: finite values only, every digit kept.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let correct = checks.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    )
    .expect("write to string");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

fn run(args: &Args, checks: &mut Checks) -> Result<Vec<Metric>> {
    let seconds = args.seconds;
    match (args.workload.as_str(), args.trace) {
        ("battery", false) => workloads::battery(args.seed, seconds, checks),
        ("ga", false) => workloads::ga(args.seed, seconds, checks),
        ("warm_join", false) => workloads::warm_join(args.seed, seconds, checks),
        (name @ ("battery" | "ga" | "warm_join"), true) => {
            layers::traced(name, args.seed, seconds, checks)
        }
        (other, _) => Err(format!("unknown workload '{other}' (battery, ga, warm_join)").into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match run(&args, &mut checks) {
        Ok(metrics) => metrics,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} thread(s)):",
        args.workload,
        args.seed,
        workloads::nproc()
    );
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // Not in the result line: the process's resident peak swings by a third
    // between runs of one seed (allocator arenas, thread timing), so it
    // cannot hold a bound.
    println!(
        "  {:<28} {:>16.6} MB (process, not bounded)",
        "peak_rss_mb",
        stats::peak_rss_mb()
    );
    // Failures are the result line's `failed` over `attempted`.
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>16.6} ratio ({} failed of {} attempted)",
        "failed_frac", failed_frac, checks.failed, checks.attempted
    );
    let line = result_json(&checks, &metrics);
    println!("{line}");
    if line.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let checks = Checks {
            attempted: 5,
            failed: 0,
        };
        let line = result_json(
            &checks,
            &[
                Metric::new("wall_s", 1.25, "s"),
                Metric::new("n", 3.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_a_non_finite_value_is_incorrect() {
        let mut checks = Checks::default();
        checks.attempt(2);
        checks.check(false, "expected failure");
        assert!(result_json(&checks, &[]).starts_with("{\"correct\": false"));
        let clean = Checks {
            attempted: 1,
            failed: 0,
        };
        assert!(result_json(&clean, &[Metric::new("x", f64::NAN, "s")])
            .starts_with("{\"correct\": false"));
    }
}
