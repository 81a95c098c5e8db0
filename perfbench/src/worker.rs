//! One sample: a worker process sets its workload up, prints `ready`,
//! runs one pass and prints what it measured, one `key value…` record a
//! line, for the orchestrator to pool across processes.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::fig6_full::Fig6Full;
use crate::outcome::Outcome;
use crate::paper_small::PaperSmall;
use crate::serve_mix::ServeMix;
use crate::spans::{chrome_json, layer_self_us, Tracer};
use crate::{host, metrics, probe};

/// Directory (under the checkout) for stores and trace files.
pub const OUT_DIR: &str = ".bench_out";

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["paper_small", "fig6_full", "serve_mix"];

/// Counts fixed by the workload and seed alone. Every traced process of
/// a run reports them as checks, so a process whose counts differ fails
/// the run. (The mem/disk split of hits depends on timing and is left
/// out.)
pub const EXACT_COUNTS: [&str; 9] = [
    "sim.launches",
    "sim.warp_instr",
    "sim.shader_cycles",
    "sim.mem_events",
    "trace.bytes",
    "pm.windows",
    "serve.misses",
    "serve.coalesced",
    "serve.errors",
];

/// Runs one worker to completion and prints its records.
pub fn run(workload: &str, seed: u64, traced: bool) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tr = Tracer::new(traced);
    let mut out = Outcome::default();
    let calib_before;
    match workload {
        "paper_small" => {
            let w = PaperSmall::setup(Path::new("EXPERIMENTS.md"))?;
            calib_before = ready();
            w.pass(&mut tr, &mut out);
            if traced {
                w.layer_pass(&mut tr, &mut out);
            }
        }
        "fig6_full" => {
            let w = Fig6Full::setup(seed);
            calib_before = ready();
            let digest = w.pass(&mut tr, &mut out);
            if traced {
                w.layer_pass(&mut tr, &mut out, digest.as_deref());
            }
        }
        "serve_mix" => {
            let w = ServeMix::setup(seed, &dir.join("serve"))?;
            calib_before = ready();
            w.pass(&mut tr, &mut out);
        }
        other => return Err(format!("unknown workload `{other}`")),
    }
    let calib_after = host::calib_ms();

    // Traced only: per-layer metrics (from the layer probe where the
    // pass does not reach a layer), self time, and the Chrome trace.
    let mut traced_lines = Vec::new();
    if traced {
        let mut probe_tr = tr.fork(9);
        let with_report = tr.n_spans("report.generate") == 0;
        out.op(probe::run(&mut probe_tr, &dir, with_report).map_err(|e| format!("probe: {e}")));
        for name in EXACT_COUNTS {
            out.checks.push((name, tr.get_count(name).to_string()));
        }
        for spec in metrics::PER_LAYER {
            if let Some((value, source)) = layer_metric(spec.name, &tr, &probe_tr) {
                traced_lines.push(format!("l {} {value} {source}", spec.name));
            }
        }
        for (layer, us) in layer_self_us(tr.spans()) {
            traced_lines.push(format!("self {layer} {}", us / 1e3));
        }
        tr.join(probe_tr);
        let trace_path = PathBuf::from(OUT_DIR).join(format!(
            "{workload}-seed{seed}-{}.trace.json",
            std::process::id()
        ));
        if std::fs::write(&trace_path, chrome_json(tr.spans())).is_ok() {
            traced_lines.push(format!("tracefile {}", trace_path.display()));
        }
    }

    let mut lines = vec![
        format!("ops {} {}", out.attempted, out.failed),
        format!("m wall_s {}", out.wall_s),
        format!("m cpu_s {}", out.cpu_s),
        format!("m peak_rss_mb {}", host::peak_rss_mb().unwrap_or(0.0)),
        format!("calib {calib_before} {calib_after}"),
    ];
    lines.extend(
        out.errors
            .iter()
            .map(|e| format!("err {}", e.replace('\n', " "))),
    );
    lines.extend(out.scalars.iter().map(|(k, v)| format!("x {k} {v}")));
    for (k, samples) in &out.dists {
        let joined: Vec<String> = samples.iter().map(f64::to_string).collect();
        lines.push(format!("d {k} {}", joined.join(" ")));
    }
    lines.extend(out.checks.iter().map(|(k, v)| format!("c {k} {v}")));
    lines.extend(traced_lines);
    let _ = std::fs::remove_dir_all(&dir);
    let mut stdout = std::io::stdout().lock();
    for line in lines {
        writeln!(stdout, "{line}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Announces the end of set-up, then times the calibration loop that
/// stands beside the pass (after set-up, so it does not enter
/// `setup_s`).
fn ready() -> f64 {
    println!("ready");
    let _ = std::io::stdout().flush();
    host::calib_ms()
}

/// Mean self time (µs) of the spans named `name`.
fn mean_us(t: &Tracer, name: &str) -> Option<f64> {
    let n = t.n_spans(name);
    (n > 0).then(|| t.self_us(name) / n as f64)
}

/// `num / den`, when there is a denominator.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// A per-unit cost from one tracer's spans and counts, or `None` if
/// that tracer never reached the layer call.
fn unit_cost(name: &str, t: &Tracer) -> Option<f64> {
    let c = |k: &str| t.get_count(k);
    let live_ns = (t.self_us("sim.launch") + t.self_us("sim.bench_run")) * 1e3;
    let report_ran = t.n_spans("report.generate") > 0;
    match name {
        "sim.ns_per_warp_instr" => ratio(live_ns, c("live.warp_instr")),
        "sim.exec_ns_per_warp_instr" => ratio(c("exec.us") * 1e3, c("exec.warp_instr")),
        "sim.replay_ns_per_warp_instr" => {
            ratio(t.self_us("sim.replay") * 1e3, c("replay.warp_instr"))
        }
        "sim.ns_per_mem_event" => ratio(live_ns, c("live.mem_events")),
        "sim.ns_per_cycle" => ratio(live_ns, c("live.shader_cycles")),
        "sim.gpu_new_us" => mean_us(t, "sim.gpu_new"),
        "sim.predecode_us" => mean_us(t, "sim.predecode"),
        "trace.decode_ns_per_byte" => {
            ratio(t.self_us("trace.decode") * 1e3, c("trace.decode_bytes"))
        }
        "serve.digest_ns_per_byte" => {
            ratio(t.self_us("serve.digest") * 1e3, c("serve.digest_bytes"))
        }
        "serve.request_decode_us" => mean_us(t, "serve.request_decode"),
        "serve.store_get_mem_us" => ratio(c("store_get_mem.us"), c("store_get_mem.n")),
        "serve.store_get_disk_us" => ratio(c("store_get_disk.us"), c("store_get_disk.n")),
        "serve.result_decode_us" => mean_us(t, "serve.decode_result"),
        "serve.ping_rtt_us" => mean_us(t, "serve.ping"),
        "serve.run_job_ms" => mean_us(t, "serve.run_job").map(|us| us / 1e3),
        "serve.store_insert_us" => mean_us(t, "serve.store_insert"),
        "serve.miss_wait_ms" => ratio(c("miss_wait.ms"), c("miss_wait.n")),
        "serve.run_job_overhead_ms" => ratio(
            c("serve.run_job_overhead_us") / 1e3,
            t.n_spans("serve.run_job") as f64,
        ),
        "pm.replay_us_per_window" => ratio(t.self_us("pm.replay"), c("pm.windows")),
        "report.fig4_s" => report_ran.then(|| c("report.fig4_s")),
        "report.microbench_s" => report_ran.then(|| c("report.microbench_s")),
        "report.fig6_s" => report_ran.then(|| c("report.fig6_s")),
        "power.evaluate_us" => mean_us(t, "power.evaluate"),
        "power.evaluate_scoped_us" => mean_us(t, "power.evaluate_scoped"),
        "power.chip_new_us" => mean_us(t, "power.chip_new"),
        "measure.measure_us" => mean_us(t, "measure.measure"),
        _ => None,
    }
}

/// A per-layer metric of a traced worker, with where it came from:
/// the pass, or (for a per-unit cost the pass did not reach) the probe.
/// Counts always come from the pass. `host.calib_ms` and
/// `bench.tracing_overhead` are the orchestrator's.
fn layer_metric(name: &str, pass: &Tracer, probe: &Tracer) -> Option<(f64, &'static str)> {
    let c = |k: &str| pass.get_count(k);
    let count = match name {
        "sim.launches" | "sim.warp_instr" | "sim.shader_cycles" | "sim.mem_events"
        | "trace.bytes" | "pm.windows" | "serve.hits_mem" | "serve.hits_disk" | "serve.misses"
        | "serve.coalesced" | "serve.errors" => Some(c(name)),
        "sim.ipc" => Some(ratio(c("sim.warp_instr"), c("sim.shader_cycles")).unwrap_or(0.0)),
        "serve.hit_ratio" => {
            let hits = c("serve.hits_mem") + c("serve.hits_disk");
            Some(ratio(hits, hits + c("serve.misses")).unwrap_or(0.0))
        }
        _ => None,
    };
    if let Some(v) = count {
        return Some((v, "pass"));
    }
    unit_cost(name, pass)
        .map(|v| (v, "pass"))
        .or_else(|| unit_cost(name, probe).map(|v| (v, "probe")))
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use gpusimpow_bench::experiments::BOARD_SEED;

    use crate::fig6_full::Fig6Full;
    use crate::outcome::Outcome;
    use crate::paper_small::PaperSmall;
    use crate::serve_mix::{self, ServeMix};
    use crate::spans::Tracer;

    fn tallies(out: &Outcome) -> (u64, u64, u64) {
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.attempted, out.succeeded + out.failed);
        (out.attempted, out.succeeded, out.failed)
    }

    /// Every workload's pass tallies each operation exactly once, as a
    /// success or a failure, and none fails at this commit.
    #[test]
    fn every_workload_tallies_attempted_as_succeeded_plus_failed() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");

        let mut out = Outcome::default();
        let w = PaperSmall::setup(&root.join("EXPERIMENTS.md")).expect("reference report");
        w.pass(&mut Tracer::new(false), &mut out);
        assert_eq!(tallies(&out), (1, 1, 0), "one report, byte-equal");

        let mut out = Outcome::default();
        Fig6Full::setup(BOARD_SEED).pass(&mut Tracer::new(false), &mut out);
        // One validation per GPU, the summary digest.
        assert_eq!(tallies(&out), (3, 3, 0));

        let mut out = Outcome::default();
        let dir = root
            .join(super::OUT_DIR)
            .join(format!("test-serve-{}", std::process::id()));
        ServeMix::setup(1, &dir)
            .expect("serve_mix set-up")
            .pass(&mut Tracer::new(false), &mut out);
        let (attempted, _, failed) = tallies(&out);
        assert_eq!(failed, 0);
        let requests: usize = out.dists.iter().map(|(_, d)| d.len()).sum();
        let (micro, suite, sweeps) = (
            serve_mix::micro_jobs().len(),
            usize::from(serve_mix::SUITE_JOBS),
            serve_mix::captured_kernels().len(),
        );
        let miss_jobs = micro + suite + 2 * sweeps;
        let hits = requests - (micro + suite + sweeps);
        assert_eq!(hits, miss_jobs, "one hit per miss");
        // Each miss job, each hit, the server counters, three local re-runs.
        assert_eq!(attempted as usize, miss_jobs + hits + 1 + 3);
        assert!(!dir.exists(), "the pass removes its store");
    }
}
