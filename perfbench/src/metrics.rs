//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can report is named here once; the names
//! and units must match `BENCHMARK.json` (a self-test checks that).  A run
//! with tracing off reports every [`END_TO_END`] metric; a traced run
//! reports every [`PER_LAYER`] metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the system sees, reported with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("cpu_ns_per_op", "ns", "lower"),
    m("p50_us", "us", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Metrics of single layers, reported by the traced run.  A workload that
/// does not exercise a layer reports its metrics as 0 with 0 samples.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.op_ns.lookup.p50", "ns", "lower"),
    m("workloads.op_ns.lookup.p99", "ns", "lower"),
    m("workloads.op_ns.update.p50", "ns", "lower"),
    m("workloads.op_ns.update.p99", "ns", "lower"),
    m("workloads.op_ns.insert.p50", "ns", "lower"),
    m("workloads.op_ns.insert.p99", "ns", "lower"),
    m("workloads.op_ns.remove.p50", "ns", "lower"),
    m("workloads.op_ns.remove.p99", "ns", "lower"),
    m("workloads.traversal_ns_per_op", "ns", "lower"),
    m("htm.ns_per_op", "ns", "lower"),
    m("core.ns_per_op", "ns", "lower"),
    m("stm.ns_per_op", "ns", "lower"),
    m("htm.commit_ratio", "ratio", "higher"),
    m("core.attempts_per_commit", "ratio", "lower"),
    m("core.commit_share.hw_fast", "share", "higher"),
    m("core.commit_share.mixed_slow", "share", "lower"),
    m("core.commit_share.software", "share", "lower"),
    m("core.aborts_per_kcommit.conflict", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.capacity", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.explicit", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.spurious", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.forced", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.validation", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.locked", "1/kcommit", "lower"),
    m("core.aborts_per_kcommit.unsupported", "1/kcommit", "lower"),
    m("api.retry.retry_here_per_kcommit", "1/kcommit", "lower"),
    m("api.retry.demote_per_kcommit", "1/kcommit", "lower"),
    m("api.retry.backoff_per_kcommit", "1/kcommit", "lower"),
    m("mem.alloc_words_per_kop", "words/kop", "lower"),
    m("api.reclaim.retired_per_kop", "1/kop", "lower"),
    m("api.reclaim.reclaimed_per_kop", "1/kop", "higher"),
    m("api.reclaim.epoch_advances_per_kop", "1/kop", "lower"),
    m("api.reclaim.pending_max", "count", "lower"),
    m("kv.service_us.get.p50", "us", "lower"),
    m("kv.service_us.get.p99", "us", "lower"),
    m("kv.service_us.put.p50", "us", "lower"),
    m("kv.service_us.put.p99", "us", "lower"),
    m("kv.service_us.delete.p50", "us", "lower"),
    m("kv.service_us.delete.p99", "us", "lower"),
    m("kv.response_us.p99", "us", "lower"),
    m("kv.queue_wait_us.p50", "us", "lower"),
    m("kv.queue_wait_us.p99", "us", "lower"),
    m("kv.stalls", "count", "lower"),
    m("kv.prefill_s", "s", "lower"),
    m("kv.warmup_ms", "ms", "lower"),
    m("trace.overhead_share", "share", "lower"),
];

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The value in the metric's unit.
    pub value: f64,
    /// Samples the value summarises (windows, requests, operations or
    /// set-ups; 0 when the workload does not exercise the metric).
    pub samples: u64,
}

/// The metrics one run measured, by name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records `name`; panics on a name outside the catalogue or a value
    /// that is not finite, both of which are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values
            .insert(def(name).name, Measured { value, samples });
    }

    /// The recorded value of `name`, if any.
    fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// The metrics of `defs` in order; end-to-end metrics must all have
    /// been set, per-layer metrics a workload does not exercise read 0.
    fn resolved<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (MetricDef, Measured)> + 'a {
        defs.iter().map(move |d| {
            let v = self.get(d.name).unwrap_or_else(|| {
                assert!(
                    !END_TO_END.iter().any(|e| e.name == d.name),
                    "end-to-end metric {} was not measured",
                    d.name
                );
                Measured {
                    value: 0.0,
                    samples: 0,
                }
            });
            (*d, v)
        })
    }

    /// One human-readable line per metric of `defs`.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for (d, v) in self.resolved(defs) {
            let note = if v.samples == 0 {
                "  (not exercised)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "metric {:<38} {:>16.4} {:<10} samples={}{note}",
                d.name, v.value, d.unit, v.samples
            );
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of `defs`.
    pub fn result_json(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (d, v)) in self.resolved(defs).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, v.value, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Throughput and CPU time per operation of each measurement window,
/// split by whether the window was traced.
#[derive(Clone, Debug, Default)]
pub struct Windows {
    /// Operations per wall-clock second of each untraced window.
    pub rate: Vec<f64>,
    /// CPU nanoseconds per operation of each untraced window.
    pub cpu_ns_per_op: Vec<f64>,
    /// CPU nanoseconds per operation of each traced window.
    pub traced_cpu_ns_per_op: Vec<f64>,
}

impl Windows {
    /// Records one window of `ops` operations over `secs` seconds that
    /// used `cpu_ns` of CPU time.
    pub fn push(&mut self, traced: bool, ops: u64, secs: f64, cpu_ns: u64) {
        let ops = ops.max(1) as f64;
        let cpu = cpu_ns as f64 / ops;
        if traced {
            self.traced_cpu_ns_per_op.push(cpu);
        } else {
            self.rate.push(ops / secs);
            self.cpu_ns_per_op.push(cpu);
        }
    }

    /// One line with the spread of the untraced windows.
    pub fn summary(&self) -> String {
        let span = |v: &[f64]| {
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(0.0, f64::max);
            format!("min={lo:.0} median={:.0} max={hi:.0}", median(v))
        };
        format!(
            "window ops/s {}; window cpu_ns/op {}",
            span(&self.rate),
            span(&self.cpu_ns_per_op)
        )
    }

    /// Windows recorded.
    pub fn count(&self) -> u64 {
        (self.rate.len() + self.traced_cpu_ns_per_op.len()) as u64
    }

    /// Share of the operations per CPU-second that tracing costs: CPU
    /// time rather than wall-clock time, so a descheduled thread on a
    /// shared host does not read as tracing overhead.
    pub fn overhead_share(&self) -> f64 {
        1.0 - median(&self.cpu_ns_per_op) / median(&self.traced_cpu_ns_per_op)
    }
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_set() {
        let mut r = Report::new();
        for d in END_TO_END {
            r.set(d.name, 1.5, 3);
        }
        let line = r.result_json(END_TO_END, true, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        for d in END_TO_END {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
        let traced = r.result_json(PER_LAYER, true, 10, 0);
        assert!(traced.contains("\"kv.stalls\": {\"value\": 0, \"unit\": \"count\"}"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        Report::new().result_json(END_TO_END, true, 1, 0);
    }
}
