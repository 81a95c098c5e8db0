//! The layer probe: a fixed, small set of calls into every layer, run
//! after a traced pass. The contract asks every workload for every
//! per-layer metric, but no workload reaches every layer; a per-unit
//! cost the pass did not reach is taken from the probe instead, and the
//! summary names the source of each value. Counts always come from the
//! pass.

use std::path::Path;

use gpusimpow_bench::experiments::BOARD_SEED;
use gpusimpow_bench::report;
use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::micro;
use gpusimpow_measure::Testbed;
use gpusimpow_pm::{Ondemand, PowerTracer};
use gpusimpow_serve::{
    Client, GovernorSpec, GpuPreset, JobSpec, KernelSpec, ResultStore, Server, ServerConfig,
    StoreConfig,
};
use gpusimpow_sim::{GpuConfig, SimPool, WindowRecorder};

use crate::clock;
use crate::layers;
use crate::spans::Tracer;

/// Repeats of the sub-millisecond calls, so their mean is steady.
const REPEATS: u64 = 20;

/// Runs the probe into `tr`. The report stage is slow (a whole
/// `paper_small` pass), so it runs only when `with_report` is set.
pub fn run(tr: &mut Tracer, dir: &Path, with_report: bool) -> Result<(), String> {
    let cfg = GpuConfig::gt240();
    let kernel = micro::cluster_step_kernel(200);
    let geometry = LaunchConfig::linear(12, 256);

    // sim: pre-decode, and live launches against replays of one capture.
    layers::predecode(tr, &kernel, &cfg, 0);
    let (live, trace) = layers::exec_split(tr, &cfg, &kernel, geometry, 5, 0)?;

    // power and measure controls.
    let chip = layers::chip_new(tr, &cfg, 0)?;
    let mut testbed = Testbed::new(cfg.clone(), BOARD_SEED);
    for i in 0..REPEATS {
        layers::evaluate(tr, &chip, &live, i);
        layers::evaluate_scoped(tr, &chip, &live, i);
        layers::measure(tr, &mut testbed, &live, i);
    }

    // trace codec.
    let bytes = layers::trace_encode(tr, &trace, 0);
    for i in 0..5 {
        layers::trace_decode(tr, &bytes, i)?;
    }

    // pm: a windowed launch replayed under ondemand.
    let mut gpu = layers::gpu_new(tr, &cfg, 0)?;
    gpu.attach_sink(1_000, Box::new(WindowRecorder::new()));
    layers::launch(tr, &mut gpu, &kernel, geometry, None, 0)?;
    let mut sink = gpu.detach_sink().ok_or("window recorder missing")?;
    let recorder = sink
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<WindowRecorder>())
        .ok_or("attached sink is not a WindowRecorder")?;
    let tracer = PowerTracer::new(layers::chip_new(tr, &cfg, 0)?);
    for launch in recorder.launches() {
        layers::pm_replay(tr, &tracer, launch, &mut Ondemand::default(), 0);
    }

    serve(tr, dir, bytes)?;

    if with_report {
        let (_, stages) = tr.span("report.generate", 0, |_| {
            report::generate_timed(true, &SimPool::new(2))
        });
        for stage in stages {
            match stage.name {
                "Fig. 4" => tr.count("report.fig4_s", stage.wall_s),
                "§III-D microbenchmarks" => tr.count("report.microbench_s", stage.wall_s),
                "Fig. 6 + Table V" => tr.count("report.fig6_s", stage.wall_s),
                _ => {}
            }
        }
    }
    Ok(())
}

/// serve: one parametric and one trace job through the miss and hit
/// paths (a one-entry memory tier sends one hit to disk), then a live
/// server for the ping round trip and one miss's wait.
fn serve(tr: &mut Tracer, dir: &Path, trace_bytes: Vec<u8>) -> Result<(), String> {
    let jobs = [
        JobSpec {
            kernel: KernelSpec::ClusterStep {
                iterations: 40,
                blocks: 12,
                threads: 256,
            },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Ondemand,
            window_cycles: 2_000,
        },
        JobSpec {
            kernel: KernelSpec::Trace { bytes: trace_bytes },
            gpu: GpuPreset::Gt240,
            governor: GovernorSpec::Baseline,
            window_cycles: 2_000,
        },
    ];
    let store_dir = dir.join("probe-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ResultStore::new(StoreConfig {
        dir: Some(store_dir),
        mem_capacity: 1,
    })
    .map_err(|e| e.to_string())?;
    for (i, job) in jobs.iter().enumerate() {
        layers::serve_miss(tr, job, &mut store, i as u64)?;
    }
    let run_job_ms = tr.last_dur_us("serve.run_job") / 1e3;
    for (i, job) in jobs.iter().enumerate().rev() {
        layers::serve_hit(tr, job, &mut store, i as u64)?;
    }

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        store: StoreConfig::default(),
    })
    .map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for i in 0..REPEATS {
        tr.span("serve.ping", i, |_| client.ping())
            .map_err(|e| e.to_string())?;
    }
    let t = clock::now();
    tr.span("serve.submit_miss", 1, |_| client.submit(&jobs[1..]))
        .map_err(|e| e.to_string())?;
    tr.count("miss_wait.ms", clock::secs_since(t) * 1e3 - run_job_ms);
    tr.count("miss_wait.n", 1.0);
    drop(client);
    server.shutdown();
    server.join();
    Ok(())
}
