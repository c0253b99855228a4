//! Wall-time measurement of the `synthesize` hot path and the
//! `BENCH_synthesize.json` emitter.
//!
//! The committed `BENCH_synthesize.json` at the repository root records the
//! per-size, per-flow-mode wall-times of full synthesis — including the
//! per-phase breakdown (transform / schedule / bind / RTL reporting) — so
//! the performance trajectory of the reproduction is tracked PR over PR; CI
//! regenerates the file on smoke sizes and uploads it as a workflow
//! artifact. The JSON is emitted by hand — the build image has no registry
//! access, so no serde.

use std::time::Instant;

use spark_core::PhaseBreakdown;

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
    /// Mean per-phase wall-times across the same runs.
    pub phases: PhaseBreakdown,
    /// Iterations averaged over (after one warm-up run).
    pub iters: u32,
}

/// A full-synthesis entry point parameterised by ILD buffer size; the result
/// carries its per-phase wall times.
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
            let mut phases = PhaseBreakdown::default();
            let start = Instant::now();
            for _ in 0..iters {
                let result = synth(n);
                phases.accumulate(&result.phases);
                std::hint::black_box(result);
            }
            let mean_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(iters);
            phases.scale(f64::from(iters));
            records.push(BenchRecord {
                mode,
                n,
                mean_ms,
                phases,
                iters,
            });
        }
    }
    records
}

/// Renders measurement records as the `BENCH_synthesize.json` document.
pub fn bench_json(records: &[BenchRecord]) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"synthesize\",\n  \"unit\": \"ms\",\n  \"results\": [\n",
    );
    for (index, record) in records.iter().enumerate() {
        let comma = if index + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"n\": {}, \"mean_ms\": {:.3}, \"iters\": {}, \
             \"transform_ms\": {:.3}, \"schedule_ms\": {:.3}, \"bind_ms\": {:.3}, \
             \"rtl_ms\": {:.3}, \
             \"sched_deps_ms\": {:.3}, \"sched_list_ms\": {:.3}, \"sched_wires_ms\": {:.3}, \
             \"sched_validate_ms\": {:.3}, \"sched_controller_ms\": {:.3}}}{comma}\n",
            record.mode,
            record.n,
            record.mean_ms,
            record.iters,
            record.phases.transform_ms,
            record.phases.schedule_ms,
            record.phases.bind_ms,
            record.phases.rtl_ms,
            record.phases.sched_deps_ms,
            record.phases.sched_list_ms,
            record.phases.sched_wires_ms,
            record.phases.sched_validate_ms,
            record.phases.sched_controller_ms
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_covers_every_mode_and_size() {
        let records = measure_synthesize(&[4], 1);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.n == 4 && r.mean_ms > 0.0));
        let modes: Vec<&str> = records.iter().map(|r| r.mode).collect();
        assert_eq!(modes, vec!["coordinated", "baseline", "natural"]);
        // The phase breakdown accounts for real time in every phase of the
        // run (transform and schedule dominate; bind/rtl may be tiny but
        // must be non-negative), and the schedule sub-phases account for the
        // schedule phase exactly.
        for record in &records {
            assert!(record.phases.transform_ms > 0.0, "{}", record.mode);
            assert!(record.phases.schedule_ms > 0.0, "{}", record.mode);
            assert!(record.phases.bind_ms >= 0.0);
            assert!(record.phases.rtl_ms >= 0.0);
            let sub_total = record.phases.sched_deps_ms
                + record.phases.sched_list_ms
                + record.phases.sched_wires_ms
                + record.phases.sched_validate_ms
                + record.phases.sched_controller_ms;
            assert!(
                (sub_total - record.phases.schedule_ms).abs() < 1e-9,
                "{}: schedule sub-phases must sum to the phase total",
                record.mode
            );
        }
    }

    #[test]
    fn json_is_well_formed() {
        let records = vec![
            BenchRecord {
                mode: "coordinated",
                n: 8,
                mean_ms: 1.5,
                phases: PhaseBreakdown {
                    transform_ms: 0.9,
                    schedule_ms: 0.4,
                    bind_ms: 0.1,
                    rtl_ms: 0.1,
                    sched_deps_ms: 0.15,
                    sched_list_ms: 0.1,
                    sched_wires_ms: 0.1,
                    sched_validate_ms: 0.03,
                    sched_controller_ms: 0.02,
                },
                iters: 3,
            },
            BenchRecord {
                mode: "baseline",
                n: 8,
                mean_ms: 2.25,
                phases: PhaseBreakdown::default(),
                iters: 3,
            },
        ];
        let json = bench_json(&records);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"benchmark\": \"synthesize\""));
        assert!(json.contains("\"mode\": \"coordinated\", \"n\": 8, \"mean_ms\": 1.500"));
        assert!(json.contains("\"transform_ms\": 0.900"));
        assert!(json.contains("\"schedule_ms\": 0.400"));
        // The schedule-phase sub-breakdown CI guards against losing these.
        assert!(json.contains("\"sched_deps_ms\": 0.150"));
        assert!(json.contains("\"sched_list_ms\": 0.100"));
        assert!(json.contains("\"sched_wires_ms\": 0.100"));
        assert!(json.contains("\"sched_validate_ms\": 0.030"));
        assert!(json.contains("\"sched_controller_ms\": 0.020"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Exactly one separating comma between the two records.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn phase_breakdown_accumulates_and_scales() {
        let mut total = PhaseBreakdown::default();
        total.accumulate(&PhaseBreakdown {
            transform_ms: 2.0,
            schedule_ms: 4.0,
            bind_ms: 6.0,
            rtl_ms: 8.0,
            sched_deps_ms: 1.0,
            sched_list_ms: 1.0,
            sched_wires_ms: 1.0,
            sched_validate_ms: 0.5,
            sched_controller_ms: 0.5,
        });
        total.accumulate(&PhaseBreakdown {
            transform_ms: 4.0,
            schedule_ms: 4.0,
            bind_ms: 2.0,
            rtl_ms: 0.0,
            sched_deps_ms: 1.0,
            sched_list_ms: 3.0,
            sched_wires_ms: 0.0,
            sched_validate_ms: 0.0,
            sched_controller_ms: 0.0,
        });
        total.scale(2.0);
        assert_eq!(total.transform_ms, 3.0);
        assert_eq!(total.schedule_ms, 4.0);
        assert_eq!(total.bind_ms, 4.0);
        assert_eq!(total.rtl_ms, 4.0);
        assert_eq!(total.sched_deps_ms, 1.0);
        assert_eq!(total.sched_list_ms, 2.0);
        assert_eq!(total.sched_wires_ms, 0.5);
        assert_eq!(total.sched_validate_ms, 0.25);
        assert_eq!(total.sched_controller_ms, 0.25);
    }
}
