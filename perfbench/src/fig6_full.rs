//! `fig6_full`: the full-size Fig. 6 validation (`experiments::
//! fig6_validation(cfg, seed, false)`) for the GT240, then the GTX580 —
//! serial by construction. The seed is the testbed board seed.
//!
//! Chosen because on the GT240 its host time is dominated by memory
//! traffic (bfs and heartwall issue ~90 k DRAM bursts each), needle runs
//! at low IPC so idle-span skipping is exercised, and the GTX580's L1
//! absorbs much of the same traffic: the memory hierarchy is used two
//! ways, and core-tick changes move this workload much less than
//! `paper_small`.
//!
//! The timed pass is the program's own `fig6_validation`, so a change
//! to `validate_suite` or anything below it moves `wall_s`. The traced
//! run then issues `validate_suite`'s public calls itself — benchmark
//! run, power evaluation, testbed measurement, per-kernel averaging in
//! suite order — so each can be wrapped in a span and every launch's
//! report digested. A test pins this mirror to `validate_suite` bit for
//! bit, and every traced run checks that it reproduces the pass's
//! summaries.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpusimpow::{KernelComparison, ValidationSummary};
use gpusimpow_bench::experiments::{fig6_validation, BOARD_SEED};
use gpusimpow_kernels::Benchmark;
use gpusimpow_measure::Testbed;
use gpusimpow_serve::JobDigest;
use gpusimpow_sim::{ActivityStats, GpuConfig};

use crate::layers;
use crate::outcome::{expect_eq, Outcome};
use crate::spans::Tracer;

/// Digest of every launch's kernel name, activity counters and
/// `time_s` bits, both GPUs, in launch order. The board seed does not
/// enter the simulation, so this holds at every seed.
pub const LAUNCH_DIGEST: &str = "16d6a7e99daabb5d905d4ccb4ce7484e";

/// Warp-instructions of one pass, both GPUs (the `minstr_per_s`
/// numerator; checked against the launches in every traced run).
pub const WARP_INSTRUCTIONS: u64 = 1_058_192;

/// Digest of both `ValidationSummary`s at the default board seed.
pub const SUMMARY_DIGEST_AT_BOARD_SEED: &str = "96f50cb52d247d3772d6fc0bd97f2f1b";

/// One launch's digested facts.
type LaunchFacts = (String, ActivityStats, u64);

/// The GPUs of a pass, in order.
fn gpus() -> [GpuConfig; 2] {
    [GpuConfig::gt240(), GpuConfig::gtx580()]
}

/// Set-up state (none: `fig6_validation` builds its own inputs).
pub struct Fig6Full {
    seed: u64,
}

impl Fig6Full {
    /// Nothing to prepare beyond the seed.
    pub fn setup(seed: u64) -> Fig6Full {
        Fig6Full { seed }
    }

    /// One pass: `fig6_validation` on both GPUs, then the summary
    /// checks. `fig6_validation` panics when a benchmark fails its
    /// CPU-reference verification; that panic is one failed operation.
    /// Returns the summary digest (`None` if a GPU failed).
    pub fn pass(&self, tr: &mut Tracer, out: &mut Outcome) -> Option<String> {
        let results = out.time_pass(|| {
            tr.span("experiments.fig6_validation", 0, |_| {
                gpus().map(|cfg| {
                    catch_unwind(AssertUnwindSafe(|| fig6_validation(&cfg, self.seed, false)))
                        .map_err(|_| format!("fig6_validation({}) failed", cfg.name))
                })
            })
        });
        out.scalars
            .push(("minstr_per_s", WARP_INSTRUCTIONS as f64 / out.wall_s / 1e6));
        let mut summaries = Vec::new();
        for result in results {
            out.op(result.map(|s| summaries.push(s)));
        }
        if summaries.len() != 2 {
            return None;
        }
        let digest = digest_summaries(&summaries.iter().collect::<Vec<_>>());
        if self.seed == BOARD_SEED {
            out.op(expect_eq(
                "fig6 summary digest",
                digest.as_str(),
                SUMMARY_DIGEST_AT_BOARD_SEED,
            ));
        }
        out.checks.push(("fig6.summary_digest", digest.clone()));
        Some(digest)
    }

    /// Traced run only: the same validation through `validate_suite`'s
    /// public calls, each in a span. Checks every benchmark's
    /// verification, the launch digest, the warp-instruction pin and
    /// that the summaries equal the pass's (`pass_digest`).
    pub fn layer_pass(&self, tr: &mut Tracer, out: &mut Outcome, pass_digest: Option<&str>) {
        let mut launches = Vec::new();
        let mut summaries = Vec::new();
        for cfg in gpus() {
            let suite = gpusimpow_kernels::all_benchmarks();
            let (summary, verified) = validate(&cfg, &suite, self.seed, tr, &mut launches);
            for v in verified {
                out.op(v);
            }
            summaries.push(summary);
        }
        out.op(expect_eq(
            "fig6 launch digest",
            digest_launches(&launches).as_str(),
            LAUNCH_DIGEST,
        ));
        let warp: u64 = launches.iter().map(|(_, s, _)| s.warp_instructions).sum();
        out.op(expect_eq("fig6 warp-instructions", warp, WARP_INSTRUCTIONS));
        let digest = digest_summaries(&summaries.iter().collect::<Vec<_>>());
        out.op(expect_eq(
            "fig6 layer pass equals fig6_validation",
            Some(digest.as_str()),
            pass_digest,
        ));
    }
}

/// `validate_suite` for `cfg` through its public calls. Returns the
/// summary and one verification result per benchmark (a benchmark
/// whose CPU-reference check fails contributes no rows).
pub fn validate(
    cfg: &GpuConfig,
    suite: &[Box<dyn Benchmark>],
    seed: u64,
    tr: &mut Tracer,
    launches: &mut Vec<LaunchFacts>,
) -> (ValidationSummary, Vec<Result<(), String>>) {
    let mut verified = Vec::new();
    let (chip, mut gpu) = match (layers::chip_new(tr, cfg, 0), layers::gpu_new(tr, cfg, 0)) {
        (Ok(chip), Ok(gpu)) => (chip, gpu),
        (Err(e), _) | (_, Err(e)) => {
            verified.push(Err(e));
            return (empty_summary(cfg), verified);
        }
    };
    let mut testbed = Testbed::new(cfg.clone(), seed);
    let measured_static_w = testbed.hardware().true_static_power().watts();

    // kernel -> (Σ sim total, Σ sim static, Σ measured, launches)
    let mut agg: BTreeMap<String, (f64, f64, f64, usize)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for (b, bench) in suite.iter().enumerate() {
        let req = b as u64;
        let reports = match layers::bench_run(tr, bench.as_ref(), &mut gpu, req) {
            Ok(reports) => reports,
            Err(e) => {
                verified.push(Err(e));
                continue;
            }
        };
        verified.push(Ok(()));
        for report in &reports {
            let power = layers::evaluate(tr, &chip, report, req);
            let sim_total = power.total_power().watts() + power.dram.total().watts()
                - power.dram.background.watts();
            let sim_static = power.static_power().watts();
            let measured = layers::measure(tr, &mut testbed, report, req);
            let entry = agg.entry(report.kernel.clone()).or_insert_with(|| {
                order.push(report.kernel.clone());
                (0.0, 0.0, 0.0, 0)
            });
            entry.0 += sim_total;
            entry.1 += sim_static;
            entry.2 += measured;
            entry.3 += 1;
            launches.push((
                report.kernel.clone(),
                report.stats.clone(),
                report.time_s.to_bits(),
            ));
        }
    }
    let rows = order
        .into_iter()
        .map(|kernel| {
            let (sim, sim_static, meas, n) = agg[&kernel];
            KernelComparison {
                kernel,
                simulated_total_w: sim / n as f64,
                simulated_static_w: sim_static / n as f64,
                measured_total_w: meas / n as f64,
                measured_static_w,
                launches: n,
            }
        })
        .collect();
    let summary = ValidationSummary {
        gpu: cfg.name.clone(),
        rows,
        simulated_static_w: chip.static_power().watts(),
        measured_static_w,
        simulated_area_mm2: chip.area().mm2(),
    };
    (summary, verified)
}

fn empty_summary(cfg: &GpuConfig) -> ValidationSummary {
    ValidationSummary {
        gpu: cfg.name.clone(),
        rows: Vec::new(),
        simulated_static_w: 0.0,
        measured_static_w: 0.0,
        simulated_area_mm2: 0.0,
    }
}

/// Hex digest of every launch's facts (`Debug` prints `f64`s exactly).
pub fn digest_launches(launches: &[LaunchFacts]) -> String {
    let mut text = String::new();
    for (kernel, stats, time_bits) in launches {
        text.push_str(&format!("{kernel}|{stats:?}|{time_bits:016x}\n"));
    }
    JobDigest::compute(text.as_bytes()).to_hex()
}

/// Hex digest of the summaries (`Debug` prints `f64`s exactly).
pub fn digest_summaries(summaries: &[&ValidationSummary]) -> String {
    JobDigest::compute(format!("{summaries:?}").as_bytes()).to_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pass's call sequence is `validate_suite`'s: same summary,
    /// bit for bit, on both GPUs (small suite, to keep the test quick).
    #[test]
    fn the_pass_reproduces_validate_suite() {
        for cfg in [GpuConfig::gt240(), GpuConfig::gtx580()] {
            let suite = gpusimpow_kernels::small_benchmarks();
            let want =
                gpusimpow::validate_suite(&cfg, &suite, BOARD_SEED).expect("suite validates");
            let (got, verified) = validate(
                &cfg,
                &suite,
                BOARD_SEED,
                &mut Tracer::new(false),
                &mut Vec::new(),
            );
            assert!(verified.iter().all(Result::is_ok));
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    /// The traced run's mirror holds every pin at the default seed and
    /// reproduces the pass: 12 benchmarks on each GPU verify, and the
    /// launch digest, warp-instruction pin and summary all match.
    #[test]
    fn the_layer_pass_matches_fig6_validation() {
        let w = Fig6Full::setup(BOARD_SEED);
        let mut out = Outcome::default();
        let digest = w.pass(&mut Tracer::new(false), &mut out);
        assert_eq!(digest.as_deref(), Some(SUMMARY_DIGEST_AT_BOARD_SEED));
        let mut out = Outcome::default();
        w.layer_pass(&mut Tracer::new(true), &mut out, digest.as_deref());
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!((out.attempted, out.failed), (27, 0));
    }
}
