//! The run: worker processes one after another until `--seconds` have
//! passed, then medians across processes. Sampling across processes,
//! not only repeats within one, is deliberate: on small hosts whole
//! processes land in slower or faster modes, which repeats within one
//! process never show.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use crate::clock::{self, Instant};
use crate::host::HostFacts;
use crate::metrics::{self, Spec};
use crate::stats::{median, tail};

/// Processes per run at least, whatever `--seconds` says.
const MIN_UNTRACED: usize = 3;
/// Traced runs alternate untraced and traced processes, at least this
/// many of each (the untraced ones are the tracing-overhead baseline).
const MIN_TRACED: usize = 2;
/// No new process starts after this many seconds of a run.
const LAST_START_S: f64 = 120.0;
/// A worker still running this long after the run began is killed.
const HARD_LIMIT_S: f64 = 170.0;

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep sampling.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one worker process reported.
#[derive(Debug, Default)]
struct Sample {
    traced: bool,
    exited_ok: bool,
    setup_s: Option<f64>,
    attempted: u64,
    failed: u64,
    scalars: BTreeMap<String, f64>,
    extras: BTreeMap<String, f64>,
    dists: BTreeMap<String, Vec<f64>>,
    checks: BTreeMap<String, String>,
    layers: BTreeMap<String, (f64, String)>,
    self_ms: BTreeMap<String, f64>,
    calib: Vec<f64>,
    errors: Vec<String>,
    tracefile: Option<String>,
}

/// Runs the workload and prints the summary and the result line.
pub fn run(args: &RunArgs) {
    let host = HostFacts::read();
    let start = clock::now();
    let mut samples: Vec<Sample> = Vec::new();
    loop {
        let untraced = samples.iter().filter(|s| !s.traced).count();
        let traced = samples.len() - untraced;
        let enough = if args.trace {
            untraced >= MIN_TRACED && traced >= MIN_TRACED
        } else {
            untraced >= MIN_UNTRACED
        };
        let elapsed = clock::secs_since(start);
        if (elapsed >= args.seconds && enough) || elapsed >= LAST_START_S {
            break;
        }
        let next_traced = args.trace && traced < untraced;
        samples.push(run_worker(args, next_traced, start));
    }
    report(args, &host, &samples);
}

/// Spawns one worker and collects its records; `setup_s` is the time
/// from spawn to its `ready` line.
fn run_worker(args: &RunArgs, traced: bool, run_start: Instant) -> Sample {
    let mut sample = Sample {
        traced,
        ..Sample::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(sample, format!("current_exe: {e}")),
    };
    let spawned = clock::now();
    let child = Command::new(exe)
        .args([
            "worker",
            &args.workload,
            &args.seed.to_string(),
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child: Child = match child {
        Ok(child) => child,
        Err(e) => return failed(sample, format!("spawn worker: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send((clock::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut lines = Vec::new();
    let mut timed_out = false;
    loop {
        let left = HARD_LIMIT_S - clock::secs_since(run_start);
        if left <= 0.0 {
            timed_out = true;
            break;
        }
        match rx.recv_timeout(Duration::from_secs_f64(left.min(1.0))) {
            Ok((at, line)) => {
                if line == "ready" && sample.setup_s.is_none() {
                    sample.setup_s = Some(clock::us_between(spawned, at) / 1e6);
                } else {
                    lines.push(line);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if timed_out {
        let _ = child.kill();
    }
    let status = child.wait();
    let _ = reader.join();
    sample.exited_ok = !timed_out && status.map(|s| s.success()).unwrap_or(false);
    for line in &lines {
        parse_record(&mut sample, line);
    }
    if timed_out {
        return failed(sample, "worker timed out and was killed".to_string());
    }
    if !sample.exited_ok {
        return failed(sample, "worker exited with an error".to_string());
    }
    sample
}

fn failed(mut sample: Sample, why: String) -> Sample {
    sample.exited_ok = false;
    sample.attempted += 1;
    sample.failed += 1;
    sample.errors.push(why);
    sample
}

fn parse_record(s: &mut Sample, line: &str) {
    let mut parts = line.split(' ');
    let tag = parts.next().unwrap_or("");
    let key = parts.next().unwrap_or("").to_string();
    let rest: Vec<&str> = parts.collect();
    let num = |t: Option<&&str>| t.and_then(|v| v.parse::<f64>().ok());
    match tag {
        "ops" => {
            s.attempted += key.parse::<u64>().unwrap_or(0);
            s.failed += rest
                .first()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
        "m" => {
            if let Some(v) = num(rest.first()) {
                s.scalars.insert(key, v);
            }
        }
        "x" => {
            if let Some(v) = num(rest.first()) {
                s.extras.insert(key, v);
            }
        }
        "d" => {
            let vals = rest.iter().filter_map(|v| v.parse::<f64>().ok()).collect();
            s.dists.insert(key, vals);
        }
        "c" => {
            s.checks.insert(key, rest.join(" "));
        }
        "l" => {
            if let Some(v) = num(rest.first()) {
                let source = rest.get(1).unwrap_or(&"pass").to_string();
                s.layers.insert(key, (v, source));
            }
        }
        "self" => {
            if let Some(v) = num(rest.first()) {
                s.self_ms.insert(key, v);
            }
        }
        "calib" => {
            s.calib.extend(
                [key.as_str()]
                    .iter()
                    .chain(&rest)
                    .filter_map(|v| v.parse::<f64>().ok()),
            );
        }
        "err" => s.errors.push(format!("{key} {}", rest.join(" "))),
        "tracefile" => s.tracefile = Some(key),
        _ => {}
    }
}

/// Median over `samples` of one per-process value.
fn median_of(samples: &[&Sample], get: impl Fn(&Sample) -> Option<f64>) -> (Option<f64>, usize) {
    let vals: Vec<f64> = samples.iter().filter_map(|s| get(s)).collect();
    (median(&vals), vals.len())
}

/// Values every process must agree on (digests and exact counts): the
/// number of checked keys, and one message per key whose values differ
/// between the processes that report it.
fn disagreements(checks: &[&BTreeMap<String, String>]) -> (u64, Vec<String>) {
    let mut keys: Vec<&String> = checks.iter().flat_map(|c| c.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut differ = Vec::new();
    for key in &keys {
        let mut values: Vec<&String> = checks.iter().filter_map(|c| c.get(*key)).collect();
        values.sort();
        values.dedup();
        if values.len() != 1 {
            differ.push(format!("{key} differs between processes: {values:?}"));
        }
    }
    (keys.len() as u64, differ)
}

fn report(args: &RunArgs, host: &HostFacts, samples: &[Sample]) {
    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let mut attempted: u64 = samples.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = samples.iter().map(|s| s.failed).sum();
    let mut errors: Vec<String> = samples
        .iter()
        .flat_map(|s| s.errors.iter().cloned())
        .collect();

    let checks: Vec<&BTreeMap<String, String>> = samples.iter().map(|s| &s.checks).collect();
    let (n_checks, disagreements) = disagreements(&checks);
    attempted += n_checks;
    failed += disagreements.len() as u64;
    errors.extend(disagreements);

    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host.to_json());
    let calibs: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.calib.iter().copied())
        .collect();
    println!(
        "# processes: {} untraced, {} traced; host.calib_ms median {:.3} over {} readings (min {:.3}, max {:.3})",
        untraced.len(),
        traced.len(),
        median(&calibs).unwrap_or(0.0),
        calibs.len(),
        calibs.iter().copied().fold(f64::INFINITY, f64::min),
        calibs.iter().copied().fold(0.0, f64::max),
    );

    let walls: Vec<String> = untraced
        .iter()
        .filter_map(|s| s.scalars.get("wall_s").map(|w| format!("{w:.4}")))
        .collect();
    println!("# per-process wall_s: {}", walls.join(" "));
    let mut result: Vec<(Spec, f64)> = Vec::new();
    let mut missing = Vec::new();
    println!("# end-to-end (median over untraced processes)");
    for spec in metrics::END_TO_END {
        let (value, n) = if spec.name == "setup_s" {
            median_of(&untraced, |s| s.setup_s)
        } else {
            median_of(&untraced, |s| s.scalars.get(spec.name).copied())
        };
        print_metric(spec, value, &format!("n={n} processes"));
        if !args.trace {
            push(&mut result, &mut missing, spec, value);
        }
    }

    println!("# workload figures (not in the result line; see perfbench/README.md)");
    let op_rate = if attempted > 0 {
        failed as f64 / attempted as f64
    } else {
        0.0
    };
    print_metric(
        spec_of("error_rate"),
        Some(op_rate),
        &format!("n={attempted} operations"),
    );
    for key in ["minstr_per_s", "jobs_per_s"] {
        let (value, n) = median_of(&untraced, |s| s.extras.get(key).copied());
        if n > 0 {
            print_metric(spec_of(key), value, &format!("n={n} processes"));
        }
    }
    let pooled = |key: &str| -> Vec<f64> {
        untraced
            .iter()
            .filter_map(|s| s.dists.get(key))
            .flatten()
            .copied()
            .collect()
    };
    let miss = pooled("miss_ms");
    if !miss.is_empty() {
        print_metric(
            spec_of("miss_p50_ms"),
            median(&miss),
            &format!("n={} requests", miss.len()),
        );
        match tail(&miss) {
            Some((p, v)) => print_metric(
                spec_of("miss_tail_ms"),
                Some(v),
                &format!("p{p} n={} requests", miss.len()),
            ),
            None => print_metric(spec_of("miss_tail_ms"), None, "fewer than 20 requests"),
        }
        for key in ["hit", "trace_hit"] {
            let xs = pooled(&format!("{key}_ms"));
            print_metric(
                spec_of(&format!("{key}_p50_ms")),
                median(&xs),
                &format!("n={} requests", xs.len()),
            );
        }
    }

    if args.trace {
        println!("# per-layer (median over traced processes; source: pass, or the layer probe where the pass does not reach the layer)");
        for spec in metrics::PER_LAYER {
            let (value, n) = match spec.name {
                "host.calib_ms" => (median(&calibs), calibs.len()),
                "bench.tracing_overhead" => {
                    let t = median_of(&traced, |s| s.scalars.get("wall_s").copied()).0;
                    let u = median_of(&untraced, |s| s.scalars.get("wall_s").copied()).0;
                    (t.zip(u).map(|(t, u)| t / u - 1.0), traced.len())
                }
                name => median_of(&traced, |s| s.layers.get(name).map(|l| l.0)),
            };
            let mut sources: Vec<&str> = traced
                .iter()
                .filter_map(|s| s.layers.get(spec.name).map(|l| l.1.as_str()))
                .collect();
            sources.dedup();
            print_metric(spec, value, &format!("n={n} {}", sources.join(",")));
            push(&mut result, &mut missing, spec, value);
        }
        println!("# self time per layer of the traced pass (ms, median over traced processes)");
        let mut layers: Vec<&String> = traced.iter().flat_map(|s| s.self_ms.keys()).collect();
        layers.sort();
        layers.dedup();
        for layer in layers {
            let (v, n) = median_of(&traced, |s| s.self_ms.get(layer.as_str()).copied());
            println!("self.{layer}  {:.3} ms  n={n}", v.unwrap_or(0.0));
        }
        for s in &traced {
            if let Some(f) = &s.tracefile {
                println!("# chrome trace: {f}");
            }
        }
    }
    for m in &missing {
        errors.push(format!("no value for metric {m}"));
    }
    for e in errors.iter().take(10) {
        println!("# error: {e}");
    }
    let all_exited = samples.iter().all(|s| s.exited_ok);
    let correct = failed == 0 && missing.is_empty() && all_exited && !samples.is_empty();
    let body: Vec<String> = result
        .iter()
        .map(|(spec, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_num(*v),
                spec.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn spec_of(name: &str) -> Spec {
    metrics::find(name).expect("metric is catalogued")
}

fn push(
    result: &mut Vec<(Spec, f64)>,
    missing: &mut Vec<&'static str>,
    spec: Spec,
    value: Option<f64>,
) {
    match value.filter(|v| v.is_finite()) {
        Some(v) => result.push((spec, v)),
        None => {
            missing.push(spec.name);
            result.push((spec, 0.0));
        }
    }
}

fn print_metric(spec: Spec, value: Option<f64>, note: &str) {
    match value {
        Some(v) => println!("{}  {v}  {}  {note}", spec.name, spec.unit),
        None => println!("{}  -  {}  {note}", spec.name, spec.unit),
    }
}

/// A finite number as JSON, with all its digits (`Debug` prints the
/// shortest form that round-trips, and always a `.` or an exponent).
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checks(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn processes_must_agree_on_every_check() {
        let a = checks(&[("sim.warp_instr", "1058192"), ("fig6.summary_digest", "ab")]);
        let b = checks(&[("sim.warp_instr", "1058192"), ("fig6.summary_digest", "ab")]);
        let c = checks(&[("sim.warp_instr", "1058193"), ("fig6.summary_digest", "ab")]);
        // An untraced process reports no counts and is not compared on them.
        let d = checks(&[("fig6.summary_digest", "ab")]);
        assert_eq!(disagreements(&[&a, &b, &d]), (2, Vec::new()));
        let (n, differ) = disagreements(&[&a, &b, &c, &d]);
        assert_eq!(n, 2);
        assert_eq!(differ.len(), 1);
        assert!(differ[0].starts_with("sim.warp_instr differs"));
    }
}
