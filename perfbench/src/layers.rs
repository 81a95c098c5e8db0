//! The harness's calls into each layer's public functions, each wrapped
//! in a span and counted at the same boundary.
//!
//! Span names are `layer.operation`; the per-layer metrics in
//! [`crate::worker`] are computed from these names and counts only.

use std::sync::Arc;

use gpusimpow_isa::{Kernel, LaunchConfig};
use gpusimpow_kernels::{micro, Benchmark};
use gpusimpow_measure::{KernelExec, Testbed};
use gpusimpow_pm::PowerTracer;
use gpusimpow_power::{GpuChip, PowerReport, ScopedPowerReport};
use gpusimpow_serve::proto::{decode_result, encode_result};
use gpusimpow_serve::store::StoreTier;
use gpusimpow_serve::{run_job, JobSpec, KernelSpec, ResultStore};
use gpusimpow_sim::{
    DecodedInstr, Gpu, GpuConfig, LaunchReport, PredecodedKernel, RecordedLaunch, WindowRecorder,
};
use gpusimpow_trace::KernelTrace;

use crate::spans::Tracer;

/// NoC transfers, L2 accesses and DRAM read/write bursts of a launch.
pub fn mem_events(r: &LaunchReport) -> u64 {
    let s = &r.stats;
    s.noc_transfers + s.l2_accesses + s.dram_read_bursts + s.dram_write_bursts
}

/// Counts one simulated launch: the pass totals, plus the live or
/// replay denominators of the per-unit metrics.
fn count_launch(tr: &mut Tracer, r: &LaunchReport, replay: bool) {
    let warp = r.stats.warp_instructions as f64;
    tr.count("sim.launches", 1.0);
    tr.count("sim.warp_instr", warp);
    tr.count("sim.shader_cycles", r.stats.shader_cycles as f64);
    tr.count("sim.mem_events", mem_events(r) as f64);
    if replay {
        tr.count("replay.warp_instr", warp);
    } else {
        tr.count("live.warp_instr", warp);
        tr.count("live.shader_cycles", r.stats.shader_cycles as f64);
        tr.count("live.mem_events", mem_events(r) as f64);
    }
}

/// `Gpu::new`.
pub fn gpu_new(tr: &mut Tracer, cfg: &GpuConfig, req: u64) -> Result<Gpu, String> {
    tr.span("sim.gpu_new", req, |_| Gpu::new(cfg.clone()))
        .map_err(|e| e.to_string())
}

/// `PredecodedKernel::new` + `specialize`.
pub fn predecode(tr: &mut Tracer, kernel: &Kernel, cfg: &GpuConfig, req: u64) -> Vec<DecodedInstr> {
    tr.span("sim.predecode", req, |_| {
        PredecodedKernel::new(kernel).specialize(cfg)
    })
}

/// `Gpu::launch`, or `Gpu::launch_decoded` with a pre-decoded table.
pub fn launch(
    tr: &mut Tracer,
    gpu: &mut Gpu,
    kernel: &Kernel,
    geometry: LaunchConfig,
    decoded: Option<&[DecodedInstr]>,
    req: u64,
) -> Result<LaunchReport, String> {
    let r = tr
        .span("sim.launch", req, |_| match decoded {
            Some(table) => gpu.launch_decoded(kernel, geometry, table),
            None => gpu.launch(kernel, geometry),
        })
        .map_err(|e| e.to_string())?;
    count_launch(tr, &r, false);
    Ok(r)
}

/// `Benchmark::run`: the benchmark's host program, its launches and
/// its CPU-reference verification.
pub fn bench_run(
    tr: &mut Tracer,
    bench: &dyn Benchmark,
    gpu: &mut Gpu,
    req: u64,
) -> Result<Vec<LaunchReport>, String> {
    let reports = tr
        .span("sim.bench_run", req, |_| bench.run(gpu))
        .map_err(|e| format!("{}: {e}", bench.name()))?;
    for r in &reports {
        count_launch(tr, r, false);
    }
    Ok(reports)
}

/// `Gpu::launch_traced` (set-up captures; not a per-unit denominator).
pub fn capture(
    tr: &mut Tracer,
    gpu: &mut Gpu,
    kernel: &Kernel,
    geometry: LaunchConfig,
    req: u64,
) -> Result<(LaunchReport, KernelTrace), String> {
    tr.span("sim.capture", req, |_| gpu.launch_traced(kernel, geometry))
        .map_err(|e| e.to_string())
}

/// `Gpu::launch_replay`.
pub fn replay(
    tr: &mut Tracer,
    gpu: &mut Gpu,
    trace: &KernelTrace,
    req: u64,
) -> Result<LaunchReport, String> {
    let r = tr
        .span("sim.replay", req, |_| gpu.launch_replay(trace))
        .map_err(|e| e.to_string())?;
    count_launch(tr, &r, true);
    Ok(r)
}

/// Captures one kernel on `cfg`, then alternates `pairs` live launches
/// with replays of that capture: the functional-execute share is the
/// live time minus the replay time, per warp-instruction. Alternating
/// keeps a slow host phase from landing on one side only.
pub fn exec_split(
    tr: &mut Tracer,
    cfg: &GpuConfig,
    kernel: &Kernel,
    geometry: LaunchConfig,
    pairs: u64,
    req: u64,
) -> Result<(LaunchReport, KernelTrace), String> {
    let mut gpu = gpu_new(tr, cfg, req)?;
    let (captured, trace) = capture(tr, &mut gpu, kernel, geometry, req)?;
    for _ in 0..pairs {
        let mut gpu = gpu_new(tr, cfg, req)?;
        let live = launch(tr, &mut gpu, kernel, geometry, None, req)?;
        let live_us = tr.last_dur_us("sim.launch");
        let mut gpu = gpu_new(tr, cfg, req)?;
        let replayed = replay(tr, &mut gpu, &trace, req)?;
        let replay_us = tr.last_dur_us("sim.replay");
        if replayed.stats != live.stats || live.stats != captured.stats {
            return Err(format!(
                "{}: live, capture and replay disagree",
                live.kernel
            ));
        }
        tr.count("exec.us", live_us - replay_us);
        tr.count("exec.warp_instr", live.stats.warp_instructions as f64);
    }
    Ok((captured, trace))
}

/// `GpuChip::new`.
pub fn chip_new(tr: &mut Tracer, cfg: &GpuConfig, req: u64) -> Result<GpuChip, String> {
    tr.span("power.chip_new", req, |_| GpuChip::new(cfg))
        .map_err(|e| e.to_string())
}

/// `GpuChip::evaluate`.
pub fn evaluate(tr: &mut Tracer, chip: &GpuChip, r: &LaunchReport, req: u64) -> PowerReport {
    tr.span("power.evaluate", req, |_| {
        chip.evaluate(&r.kernel, &r.stats)
    })
}

/// `GpuChip::evaluate_scoped`.
pub fn evaluate_scoped(
    tr: &mut Tracer,
    chip: &GpuChip,
    r: &LaunchReport,
    req: u64,
) -> ScopedPowerReport {
    tr.span("power.evaluate_scoped", req, |_| {
        chip.evaluate_scoped(&r.kernel, &r.stats, &r.scoped)
    })
}

/// `Testbed::measure` of one launch; returns the average power (W).
pub fn measure(tr: &mut Tracer, testbed: &mut Testbed, r: &LaunchReport, req: u64) -> f64 {
    let exec = KernelExec::from_report(r);
    tr.span("measure.measure", req, |_| testbed.measure(&[exec]))[0]
        .avg_power
        .watts()
}

/// `PowerTracer::replay` of one recorded launch.
pub fn pm_replay(
    tr: &mut Tracer,
    tracer: &PowerTracer,
    launch: &RecordedLaunch,
    governor: &mut dyn gpusimpow_pm::Governor,
    req: u64,
) {
    tr.span("pm.replay", req, |_| tracer.replay(launch, governor));
    tr.count("pm.windows", launch.windows.len() as f64);
}

/// `KernelTrace::decode`.
pub fn trace_decode(tr: &mut Tracer, bytes: &[u8], req: u64) -> Result<KernelTrace, String> {
    let t = tr
        .span("trace.decode", req, |_| KernelTrace::decode(bytes))
        .map_err(|e| e.to_string())?;
    tr.count("trace.decode_bytes", bytes.len() as f64);
    Ok(t)
}

/// `KernelTrace::encode`.
pub fn trace_encode(tr: &mut Tracer, trace: &KernelTrace, req: u64) -> Vec<u8> {
    tr.span("trace.encode", req, |_| trace.encode())
}

/// Runs `spec` through the service's layers outside the server, each
/// step a span of its own: request decode, digest, a standalone
/// `run_job`, then `run_job`'s constituent public calls timed one by
/// one (so `run_job` minus its parts is its own overhead), result
/// encode and store insert. Returns the encoded payload.
pub fn serve_miss(
    tr: &mut Tracer,
    spec: &JobSpec,
    store: &mut ResultStore,
    req: u64,
) -> Result<Vec<u8>, String> {
    let canonical = spec.canonical_bytes();
    let decoded = tr
        .span("serve.request_decode", req, |_| JobSpec::decode(&canonical))
        .map_err(|e| e.to_string())?;
    let digest = tr.span("serve.digest", req, |_| decoded.digest());
    tr.count("serve.digest_bytes", canonical.len() as f64);
    let result = tr
        .span("serve.run_job", req, |_| run_job(&decoded))
        .map_err(|e| e.to_string())?;
    let run_job_us = tr.last_dur_us("serve.run_job");
    let parts_us = tr.span("bench.run_job_parts", req, |tr| {
        run_job_parts(tr, &decoded, req)
    });
    let parts_us = parts_us.map(|()| tr.last_covered_us("bench.run_job_parts"))?;
    tr.count("serve.run_job_overhead_us", run_job_us - parts_us);
    let payload = tr.span("serve.encode_result", req, |_| encode_result(&result));
    tr.span("serve.store_insert", req, |_| {
        store.insert(digest, Arc::new(payload.clone()))
    });
    Ok(payload)
}

/// Serves a cached job outside the server: request decode, digest,
/// store lookup (memory or disk tier) and result decode. Returns the
/// stored payload.
pub fn serve_hit(
    tr: &mut Tracer,
    spec: &JobSpec,
    store: &mut ResultStore,
    req: u64,
) -> Result<Vec<u8>, String> {
    let canonical = spec.canonical_bytes();
    let decoded = tr
        .span("serve.request_decode", req, |_| JobSpec::decode(&canonical))
        .map_err(|e| e.to_string())?;
    let digest = tr.span("serve.digest", req, |_| decoded.digest());
    tr.count("serve.digest_bytes", canonical.len() as f64);
    let (payload, tier) = tr
        .span("serve.store_get", req, |_| store.get(digest))
        .ok_or_else(|| format!("{}: not in the store", decoded.kernel.label()))?;
    let get_us = tr.last_dur_us("serve.store_get");
    match tier {
        StoreTier::Memory => {
            tr.count("store_get_mem.us", get_us);
            tr.count("store_get_mem.n", 1.0);
        }
        StoreTier::Disk => {
            tr.count("store_get_disk.us", get_us);
            tr.count("store_get_disk.n", 1.0);
        }
    }
    tr.span("serve.decode_result", req, |_| decode_result(&payload))
        .map_err(|e| e.to_string())?;
    Ok(payload.as_ref().clone())
}

/// `run_job`'s work, step by step through public calls: chip build,
/// kernel (suite build, trace decode), GPU build, launch / replay /
/// benchmark run, scoped evaluation and power-trace replay. What
/// `run_job` spends beyond these (validation, repeated decodes, result
/// summarising) is its overhead.
fn run_job_parts(tr: &mut Tracer, spec: &JobSpec, req: u64) -> Result<(), String> {
    let cfg = spec.gpu.config();
    let chip = chip_new(tr, &cfg, req)?;
    let window = spec.window_cycles;
    let attach = |gpu: &mut Gpu| {
        if window > 0 {
            gpu.attach_sink(window, Box::new(WindowRecorder::new()));
        }
    };
    let launches = match &spec.kernel {
        KernelSpec::Suite { index, small } => {
            let bench = tr.span("sim.suite_build", req, |_| {
                let mut suite = if *small {
                    gpusimpow_kernels::small_benchmarks()
                } else {
                    gpusimpow_kernels::all_benchmarks()
                };
                suite.swap_remove(usize::from(*index))
            });
            let mut gpu = gpu_new(tr, &cfg, req)?;
            attach(&mut gpu);
            let reports = bench_run(tr, bench.as_ref(), &mut gpu, req)?;
            (reports, recordings(&mut gpu, window)?)
        }
        KernelSpec::Trace { bytes } => {
            let trace = trace_decode(tr, bytes, req)?;
            let mut gpu = gpu_new(tr, &cfg, req)?;
            attach(&mut gpu);
            let r = replay(tr, &mut gpu, &trace, req)?;
            (vec![r], recordings(&mut gpu, window)?)
        }
        micro_spec => {
            let (kernel, geometry) = micro_kernel(micro_spec)?;
            let mut gpu = gpu_new(tr, &cfg, req)?;
            attach(&mut gpu);
            let r = launch(tr, &mut gpu, &kernel, geometry, None, req)?;
            (vec![r], recordings(&mut gpu, window)?)
        }
    };
    let (reports, recorded) = launches;
    for r in &reports {
        evaluate_scoped(tr, &chip, r, req);
    }
    if window > 0 {
        let tracer = PowerTracer::new(chip);
        let mut governor = spec.governor.build();
        for launch in &recorded {
            pm_replay(tr, &tracer, launch, governor.as_mut(), req);
        }
    }
    Ok(())
}

/// The kernel and geometry of a micro-kernel job.
fn micro_kernel(spec: &KernelSpec) -> Result<(Kernel, LaunchConfig), String> {
    Ok(match *spec {
        KernelSpec::ClusterStep {
            iterations,
            blocks,
            threads,
        } => (
            micro::cluster_step_kernel(iterations),
            LaunchConfig::linear(blocks, threads),
        ),
        KernelSpec::Lfsr {
            lanes,
            iterations,
            blocks,
            threads,
        } => (
            micro::lfsr_kernel(lanes, iterations),
            LaunchConfig::linear(blocks, threads),
        ),
        KernelSpec::Mandelbrot {
            lanes,
            iterations,
            blocks,
            threads,
        } => (
            micro::mandelbrot_kernel(lanes, iterations),
            LaunchConfig::linear(blocks, threads),
        ),
        KernelSpec::Divergence {
            depth,
            blocks,
            threads,
        } => (
            micro::divergence_kernel(depth),
            LaunchConfig::linear(blocks, threads),
        ),
        KernelSpec::Conflict {
            stride,
            iterations,
            blocks,
            threads,
        } => (
            micro::conflict_kernel(stride, iterations),
            LaunchConfig::linear(blocks, threads),
        ),
        KernelSpec::Suite { .. } | KernelSpec::Trace { .. } => {
            return Err("not a micro-kernel job".to_string())
        }
    })
}

/// Detaches the window recorder [`run_job_parts`] attached.
fn recordings(gpu: &mut Gpu, window: u64) -> Result<Vec<RecordedLaunch>, String> {
    if window == 0 {
        return Ok(Vec::new());
    }
    let mut sink = gpu.detach_sink().ok_or("window recorder missing")?;
    let recorder = sink
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<WindowRecorder>())
        .ok_or("attached sink is not a WindowRecorder")?;
    Ok(std::mem::take(recorder).into_launches())
}
