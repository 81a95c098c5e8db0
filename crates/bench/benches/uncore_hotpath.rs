//! Microbenchmarks of the event-driven uncore hot path: the same spans
//! advanced cycle-by-cycle (`advance(1)` in a loop — the dense-loop
//! cost model) versus in one skip-ahead call. The ratio between the
//! `dense` and `skip` variants is the per-component payoff behind the
//! suite-level speedup recorded in `BENCH_sim_throughput.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use gpusimpow_sim::core::MemRequest;
use gpusimpow_sim::uncore::Uncore;
use gpusimpow_sim::{ActivityVector, EventKind, GpuConfig};

const IDLE_SPAN: u64 = 65_536;

fn read_req(core: usize, addr: u32) -> MemRequest {
    MemRequest {
        core,
        write: false,
        addr,
        bytes: 128,
    }
}

/// Idle uncore, stepped one shader cycle at a time: every NoC link, L2
/// bank and DRAM channel is consulted each cycle even though only the
/// periodic DRAM refresh ever has work. This is the dense loop's cost.
fn bench_idle_dense(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    let mut uncore = Uncore::new(&cfg);
    let mut stats = ActivityVector::new();
    let mut resps = Vec::new();
    c.bench_function("uncore/idle-dense-65536", |b| {
        b.iter(|| {
            for _ in 0..IDLE_SPAN {
                uncore.advance(1, &mut resps, &mut stats);
                resps.clear();
            }
            black_box(stats[EventKind::DramRefreshes])
        })
    });
}

/// The same idle span in one skip-ahead call: component work only runs
/// on due event cycles (refresh), leaving the clock-domain accumulator
/// walk as the only per-cycle cost.
fn bench_idle_skip(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    let mut uncore = Uncore::new(&cfg);
    let mut stats = ActivityVector::new();
    let mut resps = Vec::new();
    c.bench_function("uncore/idle-skip-65536", |b| {
        b.iter(|| {
            let mut left = IDLE_SPAN;
            while left > 0 {
                left -= uncore.advance(left, &mut resps, &mut stats);
                resps.clear();
            }
            black_box(stats[EventKind::DramRefreshes])
        })
    });
}

/// A loaded drain: a coalesced read burst across all channels pushed at
/// cycle 0, then advanced until every response is back. Measures the
/// event engine under real traffic (links, L2 probes, DRAM timing),
/// where events are due nearly every cycle and skip spans are short.
fn bench_drain_burst(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    c.bench_function("uncore/drain-read-burst-32", |b| {
        b.iter(|| {
            let mut uncore = Uncore::new(&cfg);
            let mut stats = ActivityVector::new();
            let mut resps = Vec::new();
            for i in 0..32u32 {
                uncore.push_request(read_req(i as usize % 12, i * 0x100), &mut stats);
            }
            let mut delivered = 0usize;
            while !uncore.is_idle() {
                uncore.advance(u64::MAX, &mut resps, &mut stats);
                delivered += resps.len();
                resps.clear();
            }
            assert_eq!(delivered, 32);
            black_box(stats[EventKind::DramReadBursts])
        })
    });
}

/// A sustained memory-controller backlog: 512 reads across both GT240
/// channels pushed at cycle 0, far beyond the 16-entry MC queues, then
/// advanced until every response is back. Most requests wait in the
/// per-channel overflow queues, so this prices a backlogged request.
fn bench_overflow_backlog(c: &mut Criterion) {
    let cfg = GpuConfig::gt240();
    c.bench_function("uncore/overflow-backlog-512", |b| {
        b.iter(|| {
            let mut uncore = Uncore::new(&cfg);
            let mut stats = ActivityVector::new();
            let mut resps = Vec::new();
            for i in 0..512u32 {
                uncore.push_request(read_req(i as usize % 12, i * 0x100), &mut stats);
            }
            let mut delivered = 0usize;
            while !uncore.is_idle() {
                uncore.advance(u64::MAX, &mut resps, &mut stats);
                delivered += resps.len();
                resps.clear();
            }
            assert_eq!(delivered, 512);
            black_box(stats[EventKind::DramReadBursts])
        })
    });
}

criterion_group!(
    benches,
    bench_idle_dense,
    bench_idle_skip,
    bench_drain_burst,
    bench_overflow_backlog
);
criterion_main!(benches);
