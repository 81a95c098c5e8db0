//! `paper_small`: `report::generate_timed(true, &SimPool::new(2))`,
//! exactly `run_all_experiments --small --threads 2`. The seed is
//! unused: the output must equal the tree's `EXPERIMENTS.md`.
//!
//! Chosen because it is the repository's headline end-to-end number,
//! and it is almost all compute-bound core-tick work (the Fig. 4
//! staircase and the §III-D microbenchmarks), so the uncore does little.

use std::path::Path;

use gpusimpow_bench::experiments::BOARD_SEED;
use gpusimpow_bench::report;
use gpusimpow_isa::LaunchConfig;
use gpusimpow_kernels::micro;
use gpusimpow_measure::Testbed;
use gpusimpow_sim::{GpuConfig, SimPool};

use crate::layers;
use crate::outcome::Outcome;
use crate::spans::Tracer;

/// The pool width `run_all_experiments --threads 2` uses.
const THREADS: usize = 2;

/// Set-up state: the reference report and the pool.
pub struct PaperSmall {
    reference: String,
    pool: SimPool,
}

impl PaperSmall {
    /// Reads the reference report (`EXPERIMENTS.md`) and builds the
    /// pool.
    pub fn setup(reference: &Path) -> Result<PaperSmall, String> {
        let reference = std::fs::read_to_string(reference)
            .map_err(|e| format!("{}: {e}", reference.display()))?;
        Ok(PaperSmall {
            reference,
            pool: SimPool::new(THREADS),
        })
    }

    /// One pass; the report must be byte-equal to `EXPERIMENTS.md`.
    pub fn pass(&self, tr: &mut Tracer, out: &mut Outcome) {
        let (md, stages) = out.time_pass(|| {
            tr.span("report.generate", 0, |_| {
                report::generate_timed(true, &self.pool)
            })
        });
        out.op(if md == self.reference {
            Ok(())
        } else {
            Err("report differs from EXPERIMENTS.md".to_string())
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

    /// Traced run only: the pass's dominant launches (the Fig. 4
    /// staircase with its full-occupancy probe, then the four §III-D
    /// microbenchmarks), re-issued one public call at a time so the sim,
    /// power and measure layers can be timed from outside
    /// `generate_timed`. The probe is captured, then launched live three
    /// times against three replays of the capture, which splits its live
    /// time into timing pipeline and functional execute.
    pub fn layer_pass(&self, tr: &mut Tracer, out: &mut Outcome) {
        out.op(replica(tr));
    }
}

fn replica(tr: &mut Tracer) -> Result<(), String> {
    let cfg = GpuConfig::gt240();
    let cores = cfg.total_cores() as u32;
    let chip = layers::chip_new(tr, &cfg, 0)?;
    let mut testbed = Testbed::new(cfg.clone(), BOARD_SEED);
    let kernel = micro::cluster_step_kernel(1500);
    let table = layers::predecode(tr, &kernel, &cfg, 0);
    for blocks in 1..cores {
        let req = u64::from(blocks);
        let mut gpu = layers::gpu_new(tr, &cfg, req)?;
        let geometry = LaunchConfig::linear(blocks, 256);
        let r = layers::launch(tr, &mut gpu, &kernel, geometry, Some(&table), req)?;
        layers::measure(tr, &mut testbed, &r, req);
        layers::evaluate(tr, &chip, &r, req);
    }
    let req = u64::from(cores);
    let (probe, _) =
        layers::exec_split(tr, &cfg, &kernel, LaunchConfig::linear(cores, 256), 3, req)?;
    layers::measure(tr, &mut testbed, &probe, req);
    layers::evaluate(tr, &chip, &probe, req);
    let micro_kernels = [
        micro::lfsr_kernel(31, 64),
        micro::lfsr_kernel(1, 64),
        micro::mandelbrot_kernel(31, 64),
        micro::mandelbrot_kernel(1, 64),
    ];
    for (i, kernel) in micro_kernels.iter().enumerate() {
        let req = 100 + i as u64;
        let mut gpu = layers::gpu_new(tr, &cfg, req)?;
        let r = layers::launch(tr, &mut gpu, kernel, micro::micro_launch(cores), None, req)?;
        layers::measure(tr, &mut testbed, &r, req);
        layers::evaluate(tr, &chip, &r, req);
    }
    Ok(())
}
