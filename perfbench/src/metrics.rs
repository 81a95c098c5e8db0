//! The metric catalogue: every figure the benchmark reports, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: [Spec; 4] = [
    spec("wall_s", "s", "lower"),
    spec("cpu_s", "s", "lower"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// End-to-end figures that exist on only some workloads. They are
/// printed with their unit and sample count but are not part of the
/// result line, whose metric set must be the same on every workload.
pub const WORKLOAD_EXTRAS: [Spec; 7] = [
    spec("error_rate", "fraction", "lower"),
    spec("minstr_per_s", "Minstr/s", "higher"),
    spec("miss_p50_ms", "ms", "lower"),
    spec("miss_tail_ms", "ms", "lower"),
    spec("hit_p50_ms", "ms", "lower"),
    spec("trace_hit_p50_ms", "ms", "lower"),
    spec("jobs_per_s", "1/s", "higher"),
];

/// Per-layer metrics, from the traced run.
pub const PER_LAYER: [Spec; 41] = [
    // sim
    spec("sim.ns_per_warp_instr", "ns", "lower"),
    spec("sim.exec_ns_per_warp_instr", "ns", "lower"),
    spec("sim.replay_ns_per_warp_instr", "ns", "lower"),
    spec("sim.ns_per_mem_event", "ns", "lower"),
    spec("sim.ns_per_cycle", "ns", "lower"),
    spec("sim.gpu_new_us", "us", "lower"),
    spec("sim.predecode_us", "us", "lower"),
    // trace + digest
    spec("trace.decode_ns_per_byte", "ns/B", "lower"),
    spec("serve.digest_ns_per_byte", "ns/B", "lower"),
    // serve: hit path
    spec("serve.request_decode_us", "us", "lower"),
    spec("serve.store_get_mem_us", "us", "lower"),
    spec("serve.store_get_disk_us", "us", "lower"),
    spec("serve.result_decode_us", "us", "lower"),
    spec("serve.ping_rtt_us", "us", "lower"),
    // serve: miss path
    spec("serve.run_job_ms", "ms", "lower"),
    spec("serve.store_insert_us", "us", "lower"),
    spec("serve.miss_wait_ms", "ms", "lower"),
    spec("serve.run_job_overhead_ms", "ms", "lower"),
    // pm
    spec("pm.replay_us_per_window", "us", "lower"),
    // bench::report stages
    spec("report.fig4_s", "s", "lower"),
    spec("report.microbench_s", "s", "lower"),
    spec("report.fig6_s", "s", "lower"),
    // controls
    spec("power.evaluate_us", "us", "lower"),
    spec("power.evaluate_scoped_us", "us", "lower"),
    spec("power.chip_new_us", "us", "lower"),
    spec("measure.measure_us", "us", "lower"),
    // exact counts of the pass
    spec("sim.launches", "count", "higher"),
    spec("sim.warp_instr", "count", "higher"),
    spec("sim.shader_cycles", "count", "higher"),
    spec("sim.mem_events", "count", "higher"),
    spec("sim.ipc", "instr/cycle", "higher"),
    spec("trace.bytes", "count", "higher"),
    spec("pm.windows", "count", "higher"),
    spec("serve.hits_mem", "count", "higher"),
    spec("serve.hits_disk", "count", "higher"),
    spec("serve.misses", "count", "higher"),
    spec("serve.coalesced", "count", "higher"),
    spec("serve.errors", "count", "lower"),
    spec("serve.hit_ratio", "fraction", "higher"),
    // host and harness
    spec("host.calib_ms", "ms", "lower"),
    spec("bench.tracing_overhead", "fraction", "lower"),
];

#[cfg(test)]
/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Looks a metric up in every table.
pub fn find(name: &str) -> Option<Spec> {
    END_TO_END
        .iter()
        .chain(&WORKLOAD_EXTRAS)
        .chain(&PER_LAYER)
        .find(|s| s.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Spec> {
        END_TO_END
            .iter()
            .chain(&WORKLOAD_EXTRAS)
            .chain(&PER_LAYER)
            .copied()
            .collect()
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        assert!(valid_name("wall_s"));
        assert!(valid_name("sim.ns_per_warp_instr"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name(".dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("ms"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(valid_unit("ns/B"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_metric_is_well_formed_and_named_once() {
        let specs = all();
        for s in &specs {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
            assert!(matches!(s.better, "lower" | "higher"), "{}", s.name);
        }
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<(String, String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expect = |specs: &[Spec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| (s.name.to_string(), s.unit.to_string(), s.better.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(&END_TO_END));
        assert_eq!(listed("per_layer"), expect(&PER_LAYER));
    }
}
