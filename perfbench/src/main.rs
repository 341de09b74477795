//! The repository's benchmark: two workloads over the eWhoring
//! measurement pipeline, each timed end to end from outside the program
//! and checked for correct output. `--trace 1` adds a traced pass that
//! reports per-layer metrics and tracing overhead.
//!
//! Usage (normally through `python3 perfbench/run.py`, which builds this
//! binary and the `report` server binary first):
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --report-bin PATH
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it records the host. A readable table goes to standard error.

mod host;
mod layers;
mod openloop;
mod pace;
mod stats;
mod steal;
mod trace;
mod wire;
mod workloads;

use serde::{Map, Value};
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `report` binary that `serve` workloads start.
    pub report_bin: PathBuf,
    /// Scratch directory for journals, port files and trace output.
    pub out_dir: PathBuf,
    pub commit: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload batch_cold|serve_mixed \
--seed N --seconds S --trace 0|1 --report-bin PATH [--out-dir DIR] [--commit REV]";

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut report_bin = None;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut commit = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got `{value}`"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                    })
                }
                "--report-bin" => report_bin = Some(PathBuf::from(value)),
                "--out-dir" => out_dir = PathBuf::from(value),
                "--commit" => commit = Some(value.clone()).filter(|c| !c.is_empty()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            report_bin: report_bin.ok_or("missing --report-bin")?,
            out_dir,
            commit,
        })
    }
}

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (name, value, unit) in &self.0 {
            let mut v = Map::new();
            v.insert("value", Value::Float(*value));
            v.insert("unit", Value::Str(unit.to_string()));
            m.insert(name.clone(), Value::Object(v));
        }
        Value::Object(m)
    }
}

/// Output checks: every operation either passes or counts as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    /// Counts one operation; `Err` carries why its output is wrong.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(&why);
        }
    }

    /// Marks an already-counted operation as incorrect.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("check failed: {why}");
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// splitmix64, for deriving per-operation seeds from the workload seed.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed number `i` of stream `stream` under workload seed `seed`.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ stream.rotate_left(40)) ^ i)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create `{}`: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let host = host::describe(&args.workload, args.seed, args.commit.clone());
    let outcome = match workloads::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    eprintln!(
        "{} seed {} trace {}: {} attempted, {} failed (error_ratio {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.checks.error_ratio()
    );
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<40} {value:>14.4} {unit}");
    }
    let mut host_line = Map::new();
    host_line.insert("host", host);
    println!("{}", serde::render(&Value::Object(host_line)));
    let mut result = Map::new();
    result.insert("correct", Value::Bool(outcome.checks.failed == 0));
    result.insert("attempted", Value::UInt(outcome.checks.attempted as u128));
    result.insert("failed", Value::UInt(outcome.checks.failed as u128));
    result.insert("metrics", metrics.to_json());
    println!("{}", serde::render(&Value::Object(result)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload batch_cold --seed 7 --seconds 10 --trace 1 --report-bin r",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("batch_cold", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 7 --seconds 10 --trace 0 --report-bin r",
            "--workload batch_cold --seed x --seconds 10 --trace 0 --report-bin r",
            "--workload batch_cold --seed 7 --seconds 0 --trace 0 --report-bin r",
            "--workload batch_cold --seed 7 --seconds 10 --trace 2 --report-bin r",
            "--workload batch_cold --seed 7 --seconds 10 --trace 0",
            "--workload batch_cold --seed 7 --seconds 10 --trace",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
