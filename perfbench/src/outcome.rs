//! What one worker process measured and checked.

use crate::{clock, host};

/// Failure messages kept per worker (the count is always exact).
const KEPT_ERRORS: usize = 5;

/// The measurements and correctness tallies of one pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// CPU seconds (all threads) of the pass.
    pub cpu_s: f64,
    /// Workload-specific figures, one value per pass.
    pub scalars: Vec<(&'static str, f64)>,
    /// Latency samples, pooled across passes.
    pub dists: Vec<(&'static str, Vec<f64>)>,
    /// Values every pass of a run must agree on (digests).
    pub checks: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Tallies one operation.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        match result {
            Ok(()) => self.succeeded += 1,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < KEPT_ERRORS {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Runs the pass `f`, recording its wall and CPU seconds.
    pub fn time_pass<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = host::cpu_s();
        let start = clock::now();
        let out = f();
        self.wall_s = clock::secs_since(start);
        self.cpu_s = match (cpu0, host::cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        out
    }
}

/// `Ok` iff `got == want`, else an error naming `what`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}
