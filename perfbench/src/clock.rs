//! Wall-clock readings, isolated in one module so the workspace's
//! simlint wall-clock allowance stays confined to the measurement edge
//! (the same idiom as the service's `loadgen`).

// simlint: allow(wall_clock): the benchmark's entire purpose is measuring
// host time; these readings are reported to humans and never feed
// simulation results, digests or correctness checks.
pub use std::time::Instant;

// simlint: allow(wall_clock): measurement edge only — see module note.
pub fn now() -> Instant {
    // simlint: allow(wall_clock): measurement edge only — see module note.
    Instant::now()
}

// simlint: allow(wall_clock): measurement edge only — see module note.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Microseconds from `epoch` to `t` (0 if `t` precedes `epoch`).
pub fn us_between(epoch: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(epoch).as_secs_f64() * 1e6
}
