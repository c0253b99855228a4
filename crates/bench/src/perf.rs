//! Wall-time measurement of the `synthesize` hot path and the
//! `BENCH_synthesize.json` emitter.
//!
//! The committed `BENCH_synthesize.json` at the repository root records the
//! per-size, per-flow-mode wall-times of full synthesis — with the mean
//! total of every span of the runs' [`Trace`]s: each transformation pass,
//! `transform`, the `sched_*` sub-stages, `schedule`, `bind` and `rtl` — so
//! the performance trajectory of the reproduction is tracked PR over PR; CI
//! regenerates the file on smoke sizes and uploads it as a workflow
//! artifact. The JSON is emitted by hand — the build image has no registry
//! access, so no serde.

use std::time::Instant;

use spark_core::Trace;

use crate::{synthesize_ild_baseline, synthesize_ild_natural, synthesize_ild_spark};

/// One measured benchmark point.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Flow mode (`"coordinated"`, `"baseline"` or `"natural"`).
    pub mode: &'static str,
    /// ILD buffer size.
    pub n: u32,
    /// Mean wall-time of one full synthesis run, milliseconds.
    pub mean_ms: f64,
    /// The span-by-span mean of the same runs' traces.
    pub trace: Trace,
    /// Iterations averaged over (after one warm-up run).
    pub iters: u32,
}

/// A full-synthesis entry point parameterised by ILD buffer size; the result
/// carries its trace.
type SynthFn = fn(u32) -> spark_core::SynthesisResult;

/// The flow modes measured per size, with their synthesis entry points.
const MODES: [(&str, SynthFn); 3] = [
    ("coordinated", synthesize_ild_spark),
    ("baseline", synthesize_ild_baseline),
    ("natural", synthesize_ild_natural),
];

/// Measures full synthesis wall-time for every `(mode, n)` combination,
/// averaging `iters` timed runs after one warm-up run per point.
pub fn measure_synthesize(sizes: &[u32], iters: u32) -> Vec<BenchRecord> {
    let iters = iters.max(1);
    let mut records = Vec::new();
    for &(mode, synth) in &MODES {
        for &n in sizes {
            std::hint::black_box(synth(n)); // warm-up
            let mut traces = Vec::new();
            let start = Instant::now();
            for _ in 0..iters {
                traces.push(std::hint::black_box(synth(n)).trace);
            }
            let mean_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(iters);
            records.push(BenchRecord {
                mode,
                n,
                mean_ms,
                trace: mean_trace(traces),
                iters,
            });
        }
    }
    records
}

/// The span-by-span mean of `traces`. Every run of one flow on one program
/// ends the same spans in the same order, so spans pair up by position.
fn mean_trace(traces: Vec<Trace>) -> Trace {
    let runs = traces.len() as f64;
    let mut traces = traces.into_iter();
    let mut mean = traces.next().unwrap_or_default();
    for trace in traces {
        for (sum, span) in mean.spans.iter_mut().zip(trace.spans) {
            debug_assert_eq!(sum.name, span.name);
            sum.ms += span.ms;
        }
    }
    for span in &mut mean.spans {
        span.ms /= runs;
    }
    mean
}

/// Renders measurement records as the `BENCH_synthesize.json` document: one
/// `"<name>_ms"` field per distinct span name of each record's trace, the
/// host's available parallelism as `"host_cpus"` and the measured commit
/// as `"commit"`.
pub fn bench_json(records: &[BenchRecord]) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = commit();
    let mut out = format!(
        "{{\n  \"benchmark\": \"synthesize\",\n  \"unit\": \"ms\",\n  \
         \"host_cpus\": {host_cpus},\n  \"commit\": \"{commit}\",\n  \"results\": [\n"
    );
    for (index, record) in records.iter().enumerate() {
        let comma = if index + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"mean_ms\": {:.3}, \"iters\": {}",
            record.mode, record.n, record.mean_ms, record.iters
        ));
        for (name, ms) in record.trace.totals() {
            out.push_str(&format!(", \"{name}_ms\": {ms:.3}"));
        }
        out.push_str(&format!("}}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The short hash of the checked-out commit (`git rev-parse --short
/// HEAD`), or `unknown` when git cannot tell.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_core::Span;

    #[test]
    fn measurement_covers_every_mode_and_size() {
        let records = measure_synthesize(&[4], 1);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.n == 4 && r.mean_ms > 0.0));
        let modes: Vec<&str> = records.iter().map(|r| r.mode).collect();
        assert_eq!(modes, vec!["coordinated", "baseline", "natural"]);
        // Every record times the whole flow: real time in the transformation
        // and the schedule, and a span for every back-end stage.
        for record in &records {
            let totals = record.trace.totals();
            let ms = |name: &str| totals.iter().find(|(n, _)| *n == name).map(|(_, ms)| *ms);
            assert!(ms("transform").unwrap() > 0.0, "{}", record.mode);
            assert!(ms("schedule").unwrap() > 0.0, "{}", record.mode);
            for name in [
                "sched_deps",
                "sched_list",
                "sched_wires",
                "sched_validate",
                "sched_controller",
                "bind",
                "rtl",
            ] {
                assert!(ms(name).unwrap() >= 0.0, "{}: {name}", record.mode);
            }
        }
    }

    #[test]
    fn json_is_well_formed() {
        let span = |name: &str, depth, ms| Span {
            name: name.to_string(),
            depth,
            ms,
        };
        let records = vec![
            BenchRecord {
                mode: "coordinated",
                n: 8,
                mean_ms: 1.5,
                trace: Trace {
                    spans: vec![
                        span("propagation", 1, 0.25),
                        span("dead-code-elimination", 1, 0.2),
                        span("propagation", 1, 0.125),
                        span("transform", 0, 0.9),
                        span("sched_deps", 1, 0.15),
                        span("sched_list", 1, 0.1),
                        span("sched_wires", 1, 0.1),
                        span("sched_validate", 1, 0.03),
                        span("sched_controller", 1, 0.02),
                        span("schedule", 0, 0.4),
                        span("bind", 0, 0.1),
                        span("rtl", 0, 0.1),
                    ],
                },
                iters: 3,
            },
            BenchRecord {
                mode: "baseline",
                n: 8,
                mean_ms: 2.25,
                trace: Trace::default(),
                iters: 3,
            },
        ];
        let json = bench_json(&records);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"benchmark\": \"synthesize\""));
        assert!(json.contains("\"host_cpus\": "));
        assert!(json.contains("\"commit\": \""));
        assert!(json.contains("\"mode\": \"coordinated\", \"n\": 8, \"mean_ms\": 1.500"));
        assert!(json.contains("\"transform_ms\": 0.900"));
        assert!(json.contains("\"schedule_ms\": 0.400"));
        // The schedule-stage sub-spans CI guards against losing.
        assert!(json.contains("\"sched_deps_ms\": 0.150"));
        assert!(json.contains("\"sched_list_ms\": 0.100"));
        assert!(json.contains("\"sched_wires_ms\": 0.100"));
        assert!(json.contains("\"sched_validate_ms\": 0.030"));
        assert!(json.contains("\"sched_controller_ms\": 0.020"));
        // A pass that ran twice is written once, as the sum of both runs.
        assert_eq!(json.matches("\"propagation_ms\"").count(), 1);
        assert!(json.contains("\"propagation_ms\": 0.375"));
        assert!(json.contains("\"dead-code-elimination_ms\": 0.200"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Exactly one separating comma between the two records.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn traces_average_span_by_span() {
        let trace = |ms: [f64; 2]| Trace {
            spans: vec![
                Span {
                    name: "cse".to_string(),
                    depth: 1,
                    ms: ms[0],
                },
                Span {
                    name: "transform".to_string(),
                    depth: 0,
                    ms: ms[1],
                },
            ],
        };
        let mean = mean_trace(vec![trace([1.0, 2.0]), trace([3.0, 6.0])]);
        assert_eq!(mean, trace([2.0, 4.0]));
    }
}
