//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_small|fig6_full|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs worker processes of the named workload for `--seconds`, prints
//! every metric with its unit and sample count, and ends with one JSON
//! result line. See `README.md` beside this crate.

mod clock;
mod fig6_full;
mod host;
mod layers;
mod metrics;
mod orchestrate;
mod outcome;
mod paper_small;
mod probe;
mod serve_mix;
mod spans;
mod stats;
mod worker;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <paper_small|fig6_full|serve_mix> --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker_main(&args[1..]);
    }
    match parse(&args) {
        Ok(run) => {
            orchestrate::run(&run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `worker <workload> <seed> <0|1>`: one sample process.
fn worker_main(args: &[String]) -> ExitCode {
    let parsed = match args {
        [workload, seed, traced] => seed
            .parse::<u64>()
            .ok()
            .map(|seed| (workload, seed, traced == "1")),
        _ => None,
    };
    let Some((workload, seed, traced)) = parsed else {
        eprintln!("perfbench: worker <workload> <seed> <0|1>");
        return ExitCode::from(2);
    };
    match worker::run(workload, seed, traced) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<orchestrate::RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !worker::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    // The workloads read the tree they measure; refuse to run elsewhere.
    for needed in ["EXPERIMENTS.md", "crates"] {
        if !std::path::Path::new(needed).exists() {
            return Err(format!("run from the repository root (no `{needed}` here)"));
        }
    }
    Ok(orchestrate::RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}
