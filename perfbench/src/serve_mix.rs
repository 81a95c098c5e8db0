//! `serve_mix`: an in-process `Server` with one simulation worker and a
//! fresh disk-backed store whose memory LRU holds fewer results than the
//! pass produces, driven by two closed-loop clients (service callers
//! wait for their reply):
//!
//! - client A submits a seeded stream of unique jobs — micro and suite
//!   kernels under windowed governors, plus GT240+GTX580 `Trace` sweeps
//!   of captures made during set-up — so every request is a miss that
//!   writes the store;
//! - client B meanwhile re-submits every job A completes, once,
//!   parametric and trace-carrying alike, so every request is a hit that
//!   reads the store (from disk once the LRU has evicted the entry).
//!
//! One hit per unique job is the mix the service's `loadgen` uses by
//! default (`--dup-ratio 0.5`). B takes the jobs in a seeded order,
//! each as soon as A has completed it, so a hit comes a varying number
//! of completions after its miss.
//!
//! Chosen because it is the only workload that reaches `serve`, `trace`
//! and `pm`, and it puts reads beside writes on the same store and lock.
//!
//! The stream's kernels, presets, windows and order are fixed; the seed
//! picks each job's governor and B's order, so every seed asks for the
//! same simulation work in the same order.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::micro;
use gpusimpow_serve::proto::encode_result;
use gpusimpow_serve::{
    run_job, Client, GovernorSpec, GpuPreset, JobOutcome, JobSpec, KernelSpec, ResultSource,
    ResultStore, Server, ServerConfig, StoreConfig, SweepSpec,
};
use gpusimpow_sim::{Gpu, GpuConfig};

use crate::clock;
use crate::layers;
use crate::outcome::{expect_eq, Outcome};
use crate::spans::Tracer;

/// Memory-tier capacity of the server's store: a quarter of the pass's
/// unique results, so the store's working set exceeds its own cache.
pub const MEM_CAPACITY: usize = 8;

/// Jobs re-run locally to check the served bytes, per pass.
const SAMPLE_CHECKS: usize = 3;

/// Jobs larger than this are left out of the local re-run sample (the
/// probe capture's replay alone would double the check's cost).
const MAX_CHECK_BYTES: usize = 256 << 10;

/// Pings timed in the traced run.
const TRACED_PINGS: u64 = 20;

/// SplitMix64: the stream generator (self-contained, so a seed means
/// the same stream on every build).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request of client A.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A single job.
    Job(JobSpec),
    /// A multi-preset sweep (served as one job per preset).
    Sweep(SweepSpec),
}

impl Request {
    /// The jobs the request expands to, in reply order.
    pub fn jobs(&self) -> Vec<JobSpec> {
        match self {
            Request::Job(job) => vec![job.clone()],
            Request::Sweep(sweep) => sweep.expand(),
        }
    }
}

/// The kernels captured during set-up and shipped as `Trace` sweeps.
/// The last is the Fig. 4 full-occupancy probe (~1.9 MB encoded); its
/// sweep is the pass's longest miss and its hits the dearest.
pub(crate) fn captured_kernels() -> Vec<(gpusimpow_isa::Kernel, LaunchConfig)> {
    vec![
        (micro::lfsr_kernel(31, 64), micro::micro_launch(12)),
        (micro::mandelbrot_kernel(31, 32), micro::micro_launch(12)),
        (micro::divergence_kernel(3), LaunchConfig::linear(12, 128)),
        (micro::conflict_kernel(8, 16), LaunchConfig::linear(12, 32)),
        (
            micro::cluster_step_kernel(1500),
            LaunchConfig::linear(12, 256),
        ),
    ]
}

/// The parametric micro-kernel jobs (kernel, preset) of every pass:
/// each micro-kernel family of the service on both presets.
pub(crate) fn micro_jobs() -> Vec<(KernelSpec, GpuPreset)> {
    use GpuPreset::{Gt240, Gtx580};
    vec![
        (
            KernelSpec::ClusterStep {
                iterations: 40,
                blocks: 12,
                threads: 256,
            },
            Gt240,
        ),
        (
            KernelSpec::ClusterStep {
                iterations: 40,
                blocks: 16,
                threads: 256,
            },
            Gtx580,
        ),
        (
            KernelSpec::Lfsr {
                lanes: 31,
                iterations: 32,
                blocks: 12,
                threads: 256,
            },
            Gt240,
        ),
        (
            KernelSpec::Lfsr {
                lanes: 1,
                iterations: 32,
                blocks: 16,
                threads: 256,
            },
            Gtx580,
        ),
        (
            KernelSpec::Mandelbrot {
                lanes: 31,
                iterations: 16,
                blocks: 12,
                threads: 256,
            },
            Gt240,
        ),
        (
            KernelSpec::Mandelbrot {
                lanes: 1,
                iterations: 16,
                blocks: 16,
                threads: 256,
            },
            Gtx580,
        ),
        (
            KernelSpec::Divergence {
                depth: 3,
                blocks: 12,
                threads: 256,
            },
            Gt240,
        ),
        (
            KernelSpec::Divergence {
                depth: 5,
                blocks: 16,
                threads: 256,
            },
            Gtx580,
        ),
        (
            KernelSpec::Conflict {
                stride: 2,
                iterations: 16,
                blocks: 12,
                threads: 32,
            },
            Gt240,
        ),
        (
            KernelSpec::Conflict {
                stride: 16,
                iterations: 16,
                blocks: 16,
                threads: 32,
            },
            Gtx580,
        ),
    ]
}

/// Suite benchmarks (small sizes) in the stream: the whole small suite.
pub(crate) const SUITE_JOBS: u8 = 12;

fn governor(rng: &mut SplitMix) -> GovernorSpec {
    match rng.below(4) {
        0 => GovernorSpec::Baseline,
        1 => GovernorSpec::Ondemand,
        2 => GovernorSpec::ClusterOndemand,
        _ => GovernorSpec::PowerCap {
            cap_mw: 20_000 + rng.below(80_000),
        },
    }
}

/// The sampling window of the request at `slot` of the stream. Fixed
/// per slot, so the windows priced (`pm.windows`) repeat on every seed.
fn window(slot: usize) -> u64 {
    [1_000, 2_000, 4_000, 8_000][slot % 4]
}

/// Client A's request stream for `seed`, given the set-up captures'
/// encoded bytes. The order and windows are fixed — each trace sweep,
/// then a micro job and a suite job, round robin — so every seed
/// presents the same work at the same points of the pass; the seed
/// picks each request's governor.
pub fn a_stream(seed: u64, captures: &[Vec<u8>]) -> Vec<Request> {
    let mut rng = SplitMix::new(seed, 1);
    let mut micro = micro_jobs().into_iter();
    let mut suite = 0..SUITE_JOBS;
    let mut traces = captures.iter();
    let mut stream = Vec::new();
    loop {
        let mut progressed = false;
        if let Some(bytes) = traces.next() {
            stream.push(Request::Sweep(SweepSpec {
                kernel: KernelSpec::Trace {
                    bytes: bytes.clone(),
                },
                governor: governor(&mut rng),
                window_cycles: window(stream.len()),
                gpus: vec![GpuPreset::Gt240, GpuPreset::Gtx580],
            }));
            progressed = true;
        }
        if let Some((kernel, gpu)) = micro.next() {
            stream.push(Request::Job(JobSpec {
                kernel,
                gpu,
                governor: governor(&mut rng),
                window_cycles: window(stream.len()),
            }));
            progressed = true;
        }
        if let Some(index) = suite.next() {
            stream.push(Request::Job(JobSpec {
                kernel: KernelSpec::Suite { index, small: true },
                gpu: if index % 2 == 0 {
                    GpuPreset::Gt240
                } else {
                    GpuPreset::Gtx580
                },
                governor: governor(&mut rng),
                window_cycles: window(stream.len()),
            }));
            progressed = true;
        }
        if !progressed {
            return stream;
        }
    }
}

/// Client B's order for `seed`: a uniform permutation of A's `n` jobs,
/// by their place in A's completion order.
pub fn b_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, 2);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// A completed job and the bytes A was served for it.
#[derive(Debug)]
struct Done {
    spec: JobSpec,
    payload: Vec<u8>,
}

/// Set-up state: captures, stream, running server and both clients.
pub struct ServeMix {
    seed: u64,
    dir: PathBuf,
    stream: Vec<Request>,
    capture_bytes: u64,
    server: Server,
    client_a: Client,
    client_b: Client,
}

/// The jobs A has completed, in completion order, and whether A is
/// done; B waits on it.
#[derive(Default)]
struct Completed {
    state: Mutex<(Vec<Arc<Done>>, bool)>,
    grew: Condvar,
}

impl Completed {
    fn push(&self, done: Arc<Done>) {
        self.state
            .lock()
            .expect("completed list poisoned")
            .0
            .push(done);
        self.grew.notify_all();
    }

    fn finish(&self) {
        self.state.lock().expect("completed list poisoned").1 = true;
        self.grew.notify_all();
    }

    /// Waits until A has completed its `i`-th job and returns it;
    /// `None` if A ended without it.
    fn wait_for(&self, i: usize) -> Option<Arc<Done>> {
        let mut state = self.state.lock().expect("completed list poisoned");
        while state.0.len() <= i && !state.1 {
            state = self.grew.wait(state).expect("completed list poisoned");
        }
        state.0.get(i).map(Arc::clone)
    }
}

/// What client A saw.
#[derive(Default)]
struct ASide {
    miss_ms: Vec<f64>,
    ops: Vec<Result<(), String>>,
    done: Vec<Arc<Done>>,
}

/// What client B saw.
#[derive(Default)]
struct BSide {
    hit_ms: Vec<f64>,
    trace_hit_ms: Vec<f64>,
    ops: Vec<Result<(), String>>,
    picks: Vec<Arc<Done>>,
}

impl ServeMix {
    /// Captures the traces, builds the stream, starts the server on a
    /// fresh store under `dir` and connects both clients.
    pub fn setup(seed: u64, dir: &Path) -> Result<ServeMix, String> {
        let cfg = GpuConfig::gt240();
        let mut captures = Vec::new();
        for (kernel, geometry) in captured_kernels() {
            let mut gpu = Gpu::new(cfg.clone()).map_err(|e| e.to_string())?;
            let (_, trace) = gpu
                .launch_traced(&kernel, geometry)
                .map_err(|e| e.to_string())?;
            captures.push(trace.encode());
        }
        let capture_bytes = captures.iter().map(|c| c.len() as u64).sum();
        let stream = a_stream(seed, &captures);
        let _ = std::fs::remove_dir_all(dir);
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            store: StoreConfig {
                dir: Some(dir.join("store")),
                mem_capacity: MEM_CAPACITY,
            },
        })
        .map_err(|e| format!("server start: {e}"))?;
        let connect = || -> Result<Client, String> {
            let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
            c.ping().map_err(|e| e.to_string())?;
            Ok(c)
        };
        let client_a = connect()?;
        let client_b = connect()?;
        Ok(ServeMix {
            seed,
            dir: dir.to_path_buf(),
            stream,
            capture_bytes,
            server,
            client_a,
            client_b,
        })
    }

    /// One pass: A's stream against B's re-submissions, then the
    /// server-counter and local re-run checks (and, traced, the layer
    /// replay of the same jobs). Stops the server and removes the store.
    pub fn pass(mut self, tr: &mut Tracer, out: &mut Outcome) {
        let completed = Completed::default();
        let unique = self.stream.iter().map(|r| r.jobs().len()).sum();
        let order = b_order(self.seed, unique);
        let mut a_tr = tr.fork(1);
        let mut b_tr = tr.fork(2);
        let (a, b) = out.time_pass(|| {
            std::thread::scope(|s| {
                let a = s.spawn(|| {
                    let a = client_a(&mut self.client_a, &self.stream, &mut a_tr, &completed);
                    completed.finish();
                    a
                });
                let b = s.spawn(|| client_b(&mut self.client_b, &order, &mut b_tr, &completed));
                (
                    a.join().expect("client A panicked"),
                    b.join().expect("client B panicked"),
                )
            })
        });
        tr.join(a_tr);
        tr.join(b_tr);
        let jobs = a.done.len() + b.hit_ms.len() + b.trace_hit_ms.len();
        out.scalars.push(("jobs_per_s", jobs as f64 / out.wall_s));
        for r in a.ops.iter().chain(&b.ops) {
            out.op(r.clone());
        }
        let stats = self.server.stats();
        out.op(expect_eq(
            "server counters (errors, misses, hits, coalesced)",
            (
                stats.errors,
                stats.misses_simulated,
                stats.hits_mem + stats.hits_disk,
                stats.coalesced_waits,
            ),
            (
                0,
                a.done.len() as u64,
                b.ops.iter().filter(|r| r.is_ok()).count() as u64,
                0,
            ),
        ));
        tr.count("serve.hits_mem", stats.hits_mem as f64);
        tr.count("serve.hits_disk", stats.hits_disk as f64);
        tr.count("serve.misses", stats.misses_simulated as f64);
        tr.count("serve.coalesced", stats.coalesced_waits as f64);
        tr.count("serve.errors", stats.errors as f64);
        tr.count("trace.bytes", self.capture_bytes as f64);
        sample_check(self.seed, &a.done, out);
        if tr.is_on() {
            for i in 0..TRACED_PINGS {
                let pinged = tr.span("serve.ping", i, |_| self.client_a.ping());
                out.op(pinged.map_err(|e| e.to_string()));
            }
            out.op(layer_replay(tr, &self.stream, &a, &b, &self.dir));
        }
        out.dists.push(("miss_ms", a.miss_ms));
        out.dists.push(("hit_ms", b.hit_ms));
        out.dists.push(("trace_hit_ms", b.trace_hit_ms));
        drop(self.client_a);
        drop(self.client_b);
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn client_a(
    client: &mut Client,
    stream: &[Request],
    tr: &mut Tracer,
    completed: &Completed,
) -> ASide {
    let mut side = ASide::default();
    for (i, request) in stream.iter().enumerate() {
        let jobs = request.jobs();
        let t = clock::now();
        let reply = tr.span("serve.submit_miss", i as u64, |_| match request {
            Request::Job(job) => client.submit(std::slice::from_ref(job)),
            Request::Sweep(sweep) => client.submit_sweep(sweep),
        });
        side.miss_ms.push(clock::secs_since(t) * 1e3);
        let outcomes = match reply {
            Ok(outcomes) if outcomes.len() == jobs.len() => outcomes,
            Ok(outcomes) => {
                let e = format!("{} outcomes for {} jobs", outcomes.len(), jobs.len());
                side.ops.extend(jobs.iter().map(|_| Err(e.clone())));
                continue;
            }
            Err(e) => {
                side.ops.extend(jobs.iter().map(|_| Err(e.to_string())));
                continue;
            }
        };
        for (spec, outcome) in jobs.into_iter().zip(outcomes) {
            let label = spec.kernel.label();
            match served(outcome, ResultSource::Simulated, &label) {
                Ok(payload) => {
                    let done = Arc::new(Done { spec, payload });
                    completed.push(Arc::clone(&done));
                    side.done.push(done);
                    side.ops.push(Ok(()));
                }
                Err(e) => side.ops.push(Err(e)),
            }
        }
    }
    side
}

fn client_b(client: &mut Client, order: &[usize], tr: &mut Tracer, completed: &Completed) -> BSide {
    let mut side = BSide::default();
    for (k, &i) in order.iter().enumerate() {
        let Some(pick) = completed.wait_for(i) else {
            continue;
        };
        let is_trace = matches!(pick.spec.kernel, KernelSpec::Trace { .. });
        let name = if is_trace {
            "serve.submit_trace_hit"
        } else {
            "serve.submit_hit"
        };
        let t = clock::now();
        let reply = tr.span(name, k as u64, |_| {
            client.submit(std::slice::from_ref(&pick.spec))
        });
        let ms = clock::secs_since(t) * 1e3;
        let checked = reply.map_err(|e| e.to_string()).and_then(|mut outcomes| {
            let outcome = outcomes
                .pop()
                .filter(|_| outcomes.is_empty())
                .ok_or("not one outcome for one job")?;
            let label = pick.spec.kernel.label();
            let source = outcome.source;
            if !matches!(source, ResultSource::MemoryHit | ResultSource::DiskHit) {
                return Err(format!(
                    "{label}: re-submission was {}, not a hit",
                    source.name()
                ));
            }
            let payload = served(outcome, source, &label)?;
            expect_eq(
                &format!("{label}: hit payload equals the miss payload"),
                payload == pick.payload,
                true,
            )
        });
        if checked.is_ok() {
            if is_trace {
                side.trace_hit_ms.push(ms);
            } else {
                side.hit_ms.push(ms);
            }
        }
        side.ops.push(checked);
        side.picks.push(pick);
    }
    side
}

/// The payload of an outcome that came from `want`.
fn served(outcome: JobOutcome, want: ResultSource, label: &str) -> Result<Vec<u8>, String> {
    if outcome.source != want {
        return Err(format!(
            "{label}: served as {}, want {}",
            outcome.source.name(),
            want.name()
        ));
    }
    outcome.payload.map_err(|e| format!("{label}: {e}"))
}

/// Re-runs a seeded sample of A's jobs locally: the served bytes must
/// equal `encode_result(run_job(spec))`.
fn sample_check(seed: u64, done: &[Arc<Done>], out: &mut Outcome) {
    let mut rng = SplitMix::new(seed, 3);
    let mut candidates: Vec<&Arc<Done>> = done
        .iter()
        .filter(|d| d.spec.canonical_bytes().len() <= MAX_CHECK_BYTES)
        .collect();
    for _ in 0..SAMPLE_CHECKS.min(candidates.len()) {
        let d = candidates.swap_remove(rng.below(candidates.len() as u64) as usize);
        let label = d.spec.kernel.label();
        out.op(match run_job(&d.spec) {
            Ok(result) => expect_eq(
                &format!("{label}: served bytes equal a local run"),
                encode_result(&result) == d.payload,
                true,
            ),
            Err(e) => Err(format!("{label}: local run failed: {e}")),
        });
    }
}

/// Traced run only: every miss of the pass, then B's picks, go
/// through the service's layers outside the server (see
/// [`layers::serve_miss`] and [`layers::serve_hit`]) against a store
/// sized like the server's. A miss's wait is its client latency minus
/// the standalone `run_job`s of its jobs.
fn layer_replay(
    tr: &mut Tracer,
    stream: &[Request],
    a: &ASide,
    b: &BSide,
    dir: &Path,
) -> Result<(), String> {
    let mut store = ResultStore::new(StoreConfig {
        dir: Some(dir.join("local")),
        mem_capacity: MEM_CAPACITY,
    })
    .map_err(|e| e.to_string())?;
    let served: std::collections::BTreeMap<&JobSpec, &Vec<u8>> =
        a.done.iter().map(|d| (&d.spec, &d.payload)).collect();
    for (i, (request, latency_ms)) in stream.iter().zip(&a.miss_ms).enumerate() {
        let mut run_job_ms = 0.0;
        for job in request.jobs() {
            let payload = layers::serve_miss(tr, &job, &mut store, i as u64)?;
            run_job_ms += tr.last_dur_us("serve.run_job") / 1e3;
            if served.get(&job).is_some_and(|p| **p != payload) {
                return Err(format!(
                    "{}: layer replay differs from the served bytes",
                    job.kernel.label()
                ));
            }
        }
        tr.count("miss_wait.ms", latency_ms - run_job_ms);
        tr.count("miss_wait.n", 1.0);
    }
    for (k, pick) in b.picks.iter().enumerate() {
        let payload = layers::serve_hit(tr, &pick.spec, &mut store, k as u64)?;
        expect_eq("layer hit payload", payload == pick.payload, true)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_captures() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3], vec![4, 5]]
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(a_stream(7, &fake_captures()), a_stream(7, &fake_captures()));
        assert_eq!(b_order(7, 32), b_order(7, 32));
        assert_ne!(a_stream(7, &fake_captures()), a_stream(8, &fake_captures()));
        assert_ne!(b_order(7, 32), b_order(8, 32));
        let mut order = b_order(7, 32);
        order.sort_unstable();
        assert_eq!(order, (0..32).collect::<Vec<_>>(), "B hits every job once");
    }

    #[test]
    fn every_seed_asks_for_the_same_work() {
        // Same kernels on the same presets with the same windows in the
        // same order; only governors move with the seed.
        let work = |seed| {
            a_stream(seed, &fake_captures())
                .iter()
                .flat_map(Request::jobs)
                .map(|j| (j.kernel, j.gpu, j.window_cycles))
                .collect::<Vec<_>>()
        };
        assert_eq!(work(1), work(2));
    }

    #[test]
    fn stream_jobs_are_unique_and_valid() {
        let stream = a_stream(3, &fake_captures());
        let mut digests: Vec<_> = stream
            .iter()
            .flat_map(Request::jobs)
            .map(|j| j.digest())
            .collect();
        let n = digests.len();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), n, "every miss must be a distinct job");
        for job in stream.iter().flat_map(Request::jobs) {
            if !matches!(job.kernel, KernelSpec::Trace { .. }) {
                job.validate()
                    .expect("parametric jobs are in the service's domain");
            }
        }
        assert!(
            n > MEM_CAPACITY,
            "the working set must exceed the memory tier"
        );
    }
}
