//! One repetition of one benchmark workload, printed as one JSON line.
//!
//! `perfbench/run.py` builds this binary, runs it once per repetition
//! (so each process's peak RSS belongs to one workload), and turns the
//! records into the benchmark's metrics and output checks.
//!
//! ```text
//! perfbench --workload NAME --seed N --scratch DIR
//!           [--threads N] [--setups N] [--trace] [--spans FILE]
//! ```
//!
//! Workloads: `flash_crowd`, `churn_growth`, `paper_validation`.
//! `--trace` wraps every round stage in a span, attaches the profiler
//! and adds a `layers` section; `--spans FILE` also writes the spans.
//! Usage errors exit 2.

mod cpu;
mod model;
mod record;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Options, Workload};

const USAGE: &str = "usage: perfbench --workload flash_crowd|churn_growth|paper_validation \
--seed N --scratch DIR [--threads N] [--setups N] [--trace] [--spans FILE]";

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut scratch = None;
    let mut threads = 1u32;
    let mut setups = 1u32;
    let mut traced = false;
    let mut spans_out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--threads" => threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--setups" => setups = value()?.parse().map_err(|e| format!("--setups: {e}"))?,
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--spans" => spans_out = Some(PathBuf::from(value()?)),
            "--trace" => traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if threads == 0 || setups == 0 {
        return Err("--threads and --setups must be at least 1".to_string());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        threads,
        traced,
        setups,
        scratch: scratch.ok_or("--scratch is required")?,
        spans_out,
    })
}

fn main() -> ExitCode {
    let options = match parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let record = workload::run(&options);
    println!("{}", record.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let options = parse(args(&[
            "--workload",
            "churn_growth",
            "--seed",
            "9",
            "--scratch",
            "d",
            "--threads",
            "2",
            "--trace",
        ]))
        .unwrap();
        assert_eq!(options.workload, Workload::ChurnGrowth);
        assert_eq!(options.seed, 9);
        assert_eq!(options.threads, 2);
        assert!(options.traced);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--scratch",
            "d"
        ]))
        .is_err());
        assert!(parse(args(&["--workload", "flash_crowd", "--scratch", "d"])).is_err());
        assert!(parse(args(&[
            "--workload",
            "flash_crowd",
            "--seed",
            "x",
            "--scratch",
            "d"
        ]))
        .is_err());
        assert!(parse(args(&["--bogus"])).is_err());
        assert!(parse(args(&[
            "--workload",
            "flash_crowd",
            "--seed",
            "1",
            "--scratch",
            "d",
            "--threads",
            "0"
        ]))
        .is_err());
    }
}
