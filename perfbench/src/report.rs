//! Metric catalogue, summary statistics and the result line.
//!
//! Every workload reports every metric of both catalogues, so a result line
//! always has the same keys; a layer a workload bypasses reports the work it
//! saw there, which is zero ([`Outcome::bypassed`]).  `BENCHMARK.json` names
//! the same metrics with the same units (a test in this module keeps the two
//! in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ok_frac", "frac"),
    ("reads_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("recover_s", "s"),
    ("retained", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: name and unit, in report order.
/// The first [`TAILS`] are the end-to-end latency tails.  They are measured
/// on every run (from the untraced phase) and printed with the end-to-end
/// lines, but they carry no bound: on small shared hosts their run-to-run
/// spread is wider than the largest bound a metric may have.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("commit_p99_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("read_p99_us", "us"),
    ("engine.kernel_p50_ms", "ms"),
    ("engine.kernel_p99_ms", "ms"),
    ("engine.validate_us", "us"),
    ("engine.work_per_update", "count"),
    ("engine.depth_per_batch", "count"),
    ("engine.rebuilds", "count"),
    ("core.settle_iterations_per_batch", "count"),
    ("core.luby_iterations", "count"),
    ("core.temp_deletions_per_update", "count"),
    ("core.reinsertions_per_update", "count"),
    ("core.speedup_threads", "x"),
    ("service.drain_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.snapshot_us", "us"),
    ("service.journal_bytes_per_update", "B"),
    ("sharding.route_us", "us"),
    ("sharding.drain_p50_ms", "ms"),
    ("sharding.drain_p99_ms", "ms"),
    ("sharding.self_ms", "ms"),
    ("sharding.batches_per_drain", "count"),
    ("sharding.arbitration_conflicts", "count"),
    ("sharding.arbitration_evicted", "count"),
    ("sharding.arbitration_repaired", "count"),
    ("sharding.queue_depth_max", "count"),
    ("sharding.snapshot_us", "us"),
    ("net.admitted", "count"),
    ("net.retried", "count"),
    ("net.shed", "count"),
    ("net.protocol_errors", "count"),
    ("net.peak_buffer_bytes", "B"),
    ("net.ack_minus_route_us", "us"),
    ("gen.late_p99_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.write_ms", "ms"),
    ("recover.parse_ms", "ms"),
    ("recover.replay_ms", "ms"),
    ("recover.tail_blocks", "count"),
    ("trace.overhead_frac", "frac"),
    ("reconcile.stage_sum_ms", "ms"),
    ("reconcile.untraced_ms", "ms"),
    ("reconcile.error_frac", "frac"),
];

/// How many leading [`PER_LAYER`] entries are end-to-end latency tails.
pub const TAILS: usize = 3;

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations offered to the system in the measured phase.
    pub attempted: u64,
    /// Operations refused, errored or caught by an audit.
    pub failed: u64,
    /// Audit failures, one line each; any entry makes the run incorrect.
    pub audit_failures: Vec<String>,
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timing metrics, for the report.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a timing metric together with its sample count.
    pub fn set_timed(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records an audit result; a failed audit fails the run and counts as
    /// one failed operation.
    pub fn audit(&mut self, what: &str, ok: bool) {
        if !ok {
            self.audit_failures.push(what.to_string());
            self.failed += 1;
        }
    }

    /// Records 0 for every per-layer metric of the layers a workload
    /// bypasses (names starting with one of `layers`) that it did not set.
    pub fn bypassed(&mut self, layers: &[&str]) {
        for &(name, _) in PER_LAYER {
            if layers.iter().any(|layer| name.starts_with(layer)) {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    /// Share of attempted operations that neither failed nor were refused.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }

    /// Whether every audit passed.
    pub fn correct(&self) -> bool {
        self.audit_failures.is_empty()
    }

    /// The value of a catalogued metric; errors name a metric the workload
    /// forgot to set or a value that is not a finite number.
    fn value(&self, name: &str) -> Result<f64, String> {
        let value = *self
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if value.is_finite() {
            Ok(value)
        } else {
            Err(format!("metric {name} is not finite: {value}"))
        }
    }

    /// One human-readable line per metric of `catalogue`.
    pub fn human(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut human = String::new();
        for &(name, unit) in catalogue {
            let value = self.value(name)?;
            let _ = write!(human, "  {name:<34} {value:>16.6} {unit}");
            if let Some(n) = self.samples.get(name) {
                let _ = write!(human, "  (n={n})");
            }
            human.push('\n');
        }
        Ok(human)
    }

    /// The JSON result line over the metrics of `catalogue`.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let value = self.value(name)?;
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        ))
    }
}

/// The fastest of a step's repetitions within one run (recovery):
/// interference from outside the process only ever slows a repetition down.
pub fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rate of a measured phase: operations are `(done_s, amount)` in
/// completion order, with `done_s` seconds since the phase began; the rate
/// is the total amount over the time to the last completion.
pub fn rate(done: &[(f64, f64)]) -> f64 {
    let Some(&(last, _)) = done.last() else {
        return 0.0;
    };
    done.iter().map(|(_, amount)| amount).sum::<f64>() / last.max(1e-9)
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Resident set size of this process in MB (`VmRSS`), 0 where the kernel
/// does not report it.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// A `/proc/self/status` field given in kB, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic splitmix64 stream for the benchmark's own choices
/// (lookup vertices); workload inputs come from `pdmm::hypergraph::streams`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn rate_is_total_over_time_to_last_completion() {
        assert_eq!(rate(&[(0.5, 10.0), (1.0, 10.0), (2.0, 20.0)]), 20.0);
        assert_eq!(rate(&[]), 0.0);
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut outcome = Outcome::default();
        assert!(outcome.json(END_TO_END).is_err());
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.json(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 0, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(outcome.human(&PER_LAYER[..TAILS]).is_err());
        outcome.set("net.shed", 2.0);
        outcome.bypassed(&["net."]);
        assert_eq!(outcome.values["net.shed"], 2.0);
        assert_eq!(outcome.values["net.retried"], 0.0);
        assert!(!outcome.values.contains_key("service.drain_ms"));
        outcome.audit("broken", false);
        assert!(!outcome.correct());
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    }

    /// `BENCHMARK.json` must name exactly the catalogued metrics, units and
    /// workloads.
    #[test]
    fn benchmark_manifest_matches_catalogue() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = manifest.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
        }
    }
}
