//! The repository benchmark: runs one named workload against the
//! workspace crates' public entry points and prints its metrics as one
//! JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-suite|stream-mixed|fleet-migrate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and writes its
//! spans as JSON lines under the build directory. Output checks run in
//! both; any failed check makes `correct` false and the exit code 1.
//! See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod fleet_migrate;
mod layers;
mod paper_suite;
mod report;
mod stream_mixed;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Args, Report};
use trace::Tracer;

const USAGE: &str =
    "usage: parsched-perfbench --workload <paper-suite|stream-mixed|fleet-migrate> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

type Workload = fn(&Args) -> Report;

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper-suite", paper_suite::run),
    ("stream-mixed", stream_mixed::run),
    ("fleet-migrate", fleet_migrate::run),
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Writes the traced run's spans as JSON lines into the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`).
pub(crate) fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some((_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = workload(&args);
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload stream-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "stream-mixed");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
    }
}
