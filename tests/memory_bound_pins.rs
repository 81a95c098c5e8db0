//! Golden pins for the memory-bound path.
//!
//! The blackscholes pins in `determinism.rs` barely load the memory
//! controllers. The kernels pinned here keep them backlogged: requests
//! bounce off full GDDR5 controller queues and wait in the uncore's
//! overflow queues for thousands of DRAM cycles. Full-size vectoradd
//! overflows by up to 373 requests on the GT240 and 706 on the GTX580,
//! and the largest GT240 bfs launch (launch 8) by up to 786. So any
//! change to the overflow retry order, the retry timing or the FR-FCFS
//! scheduler moves at least one counter here.
//!
//! Every counter of `ActivityStats`, the `time_s` bits and the total
//! power bits were captured from the controller as it stood before the
//! per-channel overflow queues: one overflow FIFO shared by all
//! channels, walked in full on every DRAM cycle, and each queued
//! request's bank and row re-derived on every scheduling pass. The
//! per-channel design must reproduce that controller exactly.

use gpusimpow::{SimReport, Simulator};
use gpusimpow_kernels::{bfs::Bfs, vectoradd::VectorAdd};
use gpusimpow_sim::ActivityStats;

/// Every counter in registry order, then the two peak fields.
fn counters(stats: &ActivityStats) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = stats
        .to_vector()
        .iter()
        .map(|(event, n)| (event.name(), n))
        .collect();
    out.push(("peak_cores_busy", stats.peak_cores_busy as u64));
    out.push(("peak_clusters_busy", stats.peak_clusters_busy as u64));
    out
}

fn assert_pinned(r: &SimReport, expected: &[(&str, u64)], time_bits: u64, power_bits: u64) {
    assert_eq!(
        counters(&r.launch.stats),
        expected,
        "activity counters moved"
    );
    assert_eq!(r.launch.time_s.to_bits(), time_bits, "time_s moved");
    assert_eq!(
        r.power.total_power().watts().to_bits(),
        power_bits,
        "total power moved"
    );
}

#[test]
fn vectoradd_gt240_backlog_is_pinned() {
    let mut sim = Simulator::gt240().expect("preset builds");
    let reports = sim.run_benchmark(&VectorAdd::default()).expect("verifies");
    assert_pinned(
        &reports[0],
        VECTORADD_GT240,
        0x3ee01d6dda5de78b,
        0x403e8894c40ce19c,
    );
}

#[test]
fn vectoradd_gtx580_backlog_is_pinned() {
    let mut sim = Simulator::gtx580().expect("preset builds");
    let reports = sim.run_benchmark(&VectorAdd::default()).expect("verifies");
    assert_pinned(
        &reports[0],
        VECTORADD_GTX580,
        0x3ec16ef7bc548deb,
        0x405ce2db6a4cb657,
    );
}

#[test]
fn bfs_gt240_backlog_launch_is_pinned() {
    let mut sim = Simulator::gt240().expect("preset builds");
    let reports = sim.run_benchmark(&Bfs::default()).expect("verifies");
    assert_eq!(reports.len(), 14, "bfs level count");
    assert_pinned(
        &reports[8],
        BFS_GT240_LAUNCH8,
        0x3f0a240411740807,
        0x403cad662d51a30a,
    );
}

const VECTORADD_GT240: &[(&str, u64)] = &[
    ("shader_cycles", 10439),
    ("uncore_cycles", 4226),
    ("dram_cycles", 6531),
    ("core_busy_cycles", 112822),
    ("cluster_busy_cycles", 39139),
    ("icache_accesses", 5120),
    ("icache_misses", 24),
    ("decodes", 5120),
    ("ibuffer_writes", 5120),
    ("ibuffer_reads", 5120),
    ("wst_reads", 5120),
    ("wst_writes", 5120),
    ("fetch_scheduler_selects", 5120),
    ("issue_scheduler_selects", 5120),
    ("scoreboard_reads", 0),
    ("scoreboard_writes", 4096),
    ("simt_stack_reads", 5120),
    ("simt_stack_pushes", 0),
    ("simt_stack_pops", 512),
    ("branches", 0),
    ("divergent_branches", 0),
    ("barrier_waits", 0),
    ("rf_bank_reads", 5120),
    ("rf_bank_writes", 4096),
    ("rf_bank_conflicts", 0),
    ("collector_allocations", 4608),
    ("collector_xbar_transfers", 5120),
    ("int_instructions", 2560),
    ("fp_instructions", 512),
    ("sfu_instructions", 0),
    ("int_lane_ops", 81920),
    ("fp_lane_ops", 16384),
    ("sfu_lane_ops", 0),
    ("warp_instructions", 5120),
    ("thread_instructions", 163840),
    ("mem_instructions", 1536),
    ("agu_ops", 6144),
    ("coalescer_inputs", 49152),
    ("coalescer_outputs", 1536),
    ("smem_accesses", 0),
    ("smem_bank_conflict_cycles", 0),
    ("const_accesses", 0),
    ("const_misses", 0),
    ("l1_accesses", 0),
    ("l1_misses", 0),
    ("l1_fills", 0),
    ("noc_flits", 8704),
    ("noc_transfers", 2560),
    ("l2_accesses", 0),
    ("l2_misses", 0),
    ("l2_fills", 0),
    ("mc_queue_ops", 1536),
    ("dram_activates", 331),
    ("dram_precharges", 267),
    ("dram_read_bursts", 4096),
    ("dram_write_bursts", 2048),
    ("dram_refreshes", 2),
    ("dram_data_bus_busy_cycles", 12288),
    ("pcie_h2d_bytes", 131072),
    ("pcie_d2h_bytes", 0),
    ("kernel_launches", 1),
    ("ctas_dispatched", 64),
    ("peak_cores_busy", 12),
    ("peak_clusters_busy", 4),
];

const VECTORADD_GTX580: &[(&str, u64)] = &[
    ("shader_cycles", 3666),
    ("uncore_cycles", 1833),
    ("dram_cycles", 2082),
    ("core_busy_cycles", 43498),
    ("cluster_busy_cycles", 10946),
    ("icache_accesses", 5120),
    ("icache_misses", 32),
    ("decodes", 5120),
    ("ibuffer_writes", 5120),
    ("ibuffer_reads", 5120),
    ("wst_reads", 5120),
    ("wst_writes", 5120),
    ("fetch_scheduler_selects", 5120),
    ("issue_scheduler_selects", 5120),
    ("scoreboard_reads", 935653),
    ("scoreboard_writes", 4096),
    ("simt_stack_reads", 5120),
    ("simt_stack_pushes", 0),
    ("simt_stack_pops", 512),
    ("branches", 0),
    ("divergent_branches", 0),
    ("barrier_waits", 0),
    ("rf_bank_reads", 5120),
    ("rf_bank_writes", 4096),
    ("rf_bank_conflicts", 0),
    ("collector_allocations", 4608),
    ("collector_xbar_transfers", 5120),
    ("int_instructions", 2560),
    ("fp_instructions", 512),
    ("sfu_instructions", 0),
    ("int_lane_ops", 81920),
    ("fp_lane_ops", 16384),
    ("sfu_lane_ops", 0),
    ("warp_instructions", 5120),
    ("thread_instructions", 163840),
    ("mem_instructions", 1536),
    ("agu_ops", 6144),
    ("coalescer_inputs", 49152),
    ("coalescer_outputs", 1536),
    ("smem_accesses", 0),
    ("smem_bank_conflict_cycles", 0),
    ("const_accesses", 0),
    ("const_misses", 0),
    ("l1_accesses", 1536),
    ("l1_misses", 1024),
    ("l1_fills", 1024),
    ("noc_flits", 8704),
    ("noc_transfers", 2560),
    ("l2_accesses", 1536),
    ("l2_misses", 1024),
    ("l2_fills", 1024),
    ("mc_queue_ops", 1536),
    ("dram_activates", 590),
    ("dram_precharges", 494),
    ("dram_read_bursts", 4096),
    ("dram_write_bursts", 2048),
    ("dram_refreshes", 0),
    ("dram_data_bus_busy_cycles", 12288),
    ("pcie_h2d_bytes", 131072),
    ("pcie_d2h_bytes", 0),
    ("kernel_launches", 1),
    ("ctas_dispatched", 64),
    ("peak_cores_busy", 16),
    ("peak_clusters_busy", 4),
];

const BFS_GT240_LAUNCH8: &[(&str, u64)] = &[
    ("shader_cycles", 67734),
    ("uncore_cycles", 27422),
    ("dram_cycles", 42379),
    ("core_busy_cycles", 535480),
    ("cluster_busy_cycles", 268565),
    ("icache_accesses", 10610),
    ("icache_misses", 32),
    ("decodes", 10610),
    ("ibuffer_writes", 10610),
    ("ibuffer_reads", 10610),
    ("wst_reads", 10610),
    ("wst_writes", 10610),
    ("fetch_scheduler_selects", 10610),
    ("issue_scheduler_selects", 10610),
    ("scoreboard_reads", 0),
    ("scoreboard_writes", 6714),
    ("simt_stack_reads", 10610),
    ("simt_stack_pushes", 1209),
    ("simt_stack_pops", 1273),
    ("branches", 1704),
    ("divergent_branches", 1209),
    ("barrier_waits", 0),
    ("rf_bank_reads", 11200),
    ("rf_bank_writes", 6714),
    ("rf_bank_conflicts", 0),
    ("collector_allocations", 9790),
    ("collector_xbar_transfers", 11200),
    ("int_instructions", 4946),
    ("fp_instructions", 0),
    ("sfu_instructions", 0),
    ("int_lane_ops", 55518),
    ("fp_lane_ops", 0),
    ("sfu_lane_ops", 0),
    ("warp_instructions", 10610),
    ("thread_instructions", 113367),
    ("mem_instructions", 3140),
    ("agu_ops", 4946),
    ("coalescer_inputs", 26716),
    ("coalescer_outputs", 15489),
    ("smem_accesses", 0),
    ("smem_bank_conflict_cycles", 0),
    ("const_accesses", 0),
    ("const_misses", 0),
    ("l1_accesses", 0),
    ("l1_misses", 0),
    ("l1_fills", 0),
    ("noc_flits", 59743),
    ("noc_transfers", 21244),
    ("l2_accesses", 0),
    ("l2_misses", 0),
    ("l2_fills", 0),
    ("mc_queue_ops", 12670),
    ("dram_activates", 2738),
    ("dram_precharges", 2388),
    ("dram_read_bursts", 34296),
    ("dram_write_bursts", 4203),
    ("dram_refreshes", 20),
    ("dram_data_bus_busy_cycles", 76998),
    ("pcie_h2d_bytes", 0),
    ("pcie_d2h_bytes", 4),
    ("kernel_launches", 1),
    ("ctas_dispatched", 8),
    ("peak_cores_busy", 8),
    ("peak_clusters_busy", 4),
];
