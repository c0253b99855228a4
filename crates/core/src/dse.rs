//! Design-space exploration helpers.
//!
//! Spark's tunable transformations "enable the system to aid in exploration
//! of several alternative designs" (Section 4). These helpers sweep the knobs
//! a block designer would turn — clock period, flow mode, individual
//! transformations — and collect the resulting datapath reports; the
//! benchmark harness and the `design_space` example print them as tables.

use spark_ir::Program;
use spark_rtl::DatapathReport;

use crate::par::par_map;
use crate::pipeline::{
    synthesize, synthesize_transformed, transform_program, FlowOptions, SynthesisError,
};

/// One point of a design-space sweep.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Human-readable label of the configuration.
    pub label: String,
    /// Clock period used.
    pub clock_period_ns: f64,
    /// The resulting datapath report (`None` if synthesis failed, e.g. an
    /// infeasible clock period).
    pub report: Option<DatapathReport>,
}

/// Sweeps the clock period with the microprocessor-block flow.
///
/// The (clock-agnostic) transformation pipeline runs once; each period point
/// then schedules the same transformed program, with the points fanned out
/// over worker threads. Points come back in input order, so the printed
/// tables are identical to the serial driver's.
pub fn sweep_clock_period(
    program: &Program,
    top: &str,
    periods_ns: &[f64],
) -> Result<Vec<DesignPoint>, SynthesisError> {
    // The transformation switches do not depend on the period, so any period
    // yields the same transformed program; scheduling gets the real one.
    let transformed = transform_program(program, top, &FlowOptions::microprocessor_block(1.0))?;
    // Build the shared dependence graph once up front instead of having
    // every worker block on the first point's lazy build. Loop/call errors
    // are surfaced per point, exactly as scheduling reported them.
    let _ = transformed.dependence_graph();
    Ok(par_map(periods_ns, |&period| {
        let options = FlowOptions::microprocessor_block(period);
        let report = match synthesize_transformed(&transformed, &options) {
            Ok(result) => Some(result.report),
            Err(_) => None,
        };
        DesignPoint {
            label: format!("clock {period:.1} ns"),
            clock_period_ns: period,
            report,
        }
    }))
}

/// Synthesizes every labelled configuration from scratch, fanned out over
/// worker threads; points come back in input order. Points whose schedule
/// is infeasible get `report: None`; transform-level failures propagate as
/// errors.
///
/// # Errors
/// Returns the first non-scheduling [`SynthesisError`] encountered.
pub fn explore_configurations(
    program: &Program,
    top: &str,
    configurations: &[(String, FlowOptions)],
) -> Result<Vec<DesignPoint>, SynthesisError> {
    par_map(configurations, |(label, options)| {
        let report = match synthesize(program, top, options) {
            Ok(result) => Some(result.report),
            // An infeasible schedule is a legitimate "no design here" point;
            // anything else is an error.
            Err(SynthesisError::Scheduling(_)) => None,
            Err(other) => return Err(other),
        };
        Ok(DesignPoint {
            label: label.clone(),
            clock_period_ns: options.clock_period_ns,
            report,
        })
    })
    .into_iter()
    .collect()
}

/// The ablation study (see `docs/ARCHITECTURE.md`, "Design-space
/// exploration"): the coordinated flow with each transformation switched
/// off individually, plus the classical baseline. Returns `(label, report)`
/// per configuration.
pub fn ablation_study(
    program: &Program,
    top: &str,
    clock_period_ns: f64,
) -> Result<Vec<DesignPoint>, SynthesisError> {
    let full = FlowOptions::microprocessor_block(clock_period_ns);
    let mut configurations: Vec<(String, FlowOptions)> =
        vec![("coordinated (all on)".into(), full.clone())];

    let mut no_speculation = full.clone();
    no_speculation.speculate = false;
    configurations.push(("no speculation".into(), no_speculation));

    let mut no_unroll = full.clone();
    no_unroll.unroll = false;
    configurations.push(("no loop unrolling".into(), no_unroll));

    let mut no_const_prop = full.clone();
    no_const_prop.constant_propagation = false;
    configurations.push(("no constant propagation".into(), no_const_prop));

    let mut no_cse = full.clone();
    no_cse.cse = false;
    configurations.push(("no CSE".into(), no_cse));

    configurations.push((
        "ASIC baseline".into(),
        FlowOptions::asic_baseline(clock_period_ns),
    ));

    explore_configurations(program, top, &configurations)
}

/// Formats design points as an aligned text table.
pub fn format_table(points: &[DesignPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>8} {:>12} {:>8} {:>10}\n",
        "configuration", "states", "FUs", "crit.path ns", "regs", "area"
    ));
    for point in points {
        match &point.report {
            Some(report) => out.push_str(&format!(
                "{:<28} {:>8} {:>8} {:>12.2} {:>8} {:>10.0}\n",
                point.label,
                report.states,
                report.total_functional_units(),
                report.critical_path_ns,
                report.registers,
                report.area_estimate
            )),
            None => out.push_str(&format!("{:<28} {:>8}\n", point.label, "infeasible")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ild::{build_ild_program, ILD_FUNCTION};

    #[test]
    fn clock_sweep_marks_infeasible_points() {
        let program = build_ild_program(4);
        let points = sweep_clock_period(&program, ILD_FUNCTION, &[0.1, 50.0, 200.0]).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].report.is_none(), "0.1 ns is infeasible");
        assert!(points[2].report.is_some());
        let table = format_table(&points);
        assert!(table.contains("infeasible"));
        assert!(table.contains("clock 200.0 ns"));
    }

    #[test]
    fn ablation_study_covers_all_knobs() {
        let program = build_ild_program(4);
        let points = ablation_study(&program, ILD_FUNCTION, 200.0).unwrap();
        assert_eq!(points.len(), 6);
        let coordinated = points[0].report.as_ref().unwrap();
        let baseline = points.last().unwrap().report.as_ref().unwrap();
        assert!(coordinated.states <= baseline.states);
    }

    #[test]
    fn unknown_function_propagates() {
        let program = build_ild_program(4);
        assert!(sweep_clock_period(&program, "ghost", &[10.0]).is_err());
        assert!(ablation_study(&program, "ghost", 10.0).is_err());
        assert!(explore_configurations(
            &program,
            "ghost",
            &[("x".into(), FlowOptions::microprocessor_block(10.0))]
        )
        .is_err());
    }

    #[test]
    fn exploration_points_match_from_scratch_synthesis() {
        // Every point, duplicated configurations included, equals a
        // from-scratch `synthesize` of its own configuration; infeasible
        // points come back as `None`.
        let program = build_ild_program(4);
        let full = FlowOptions::microprocessor_block(500.0);
        let mut no_speculation = full.clone();
        no_speculation.speculate = false;
        let configurations = vec![
            (
                "fast clock".to_string(),
                FlowOptions::microprocessor_block(100.0),
            ),
            ("slow clock".to_string(), full.clone()),
            ("duplicate".to_string(), full),
            ("no speculation".to_string(), no_speculation),
            ("baseline".to_string(), FlowOptions::asic_baseline(20.0)),
            (
                "infeasible".to_string(),
                FlowOptions::microprocessor_block(0.1),
            ),
        ];
        let points = explore_configurations(&program, ILD_FUNCTION, &configurations).unwrap();
        assert_eq!(points.len(), configurations.len());
        for (point, (label, options)) in points.iter().zip(&configurations) {
            assert_eq!(&point.label, label);
            assert_eq!(point.clock_period_ns, options.clock_period_ns);
            let fresh = synthesize(&program, ILD_FUNCTION, options).ok();
            assert_eq!(
                point.report.as_ref(),
                fresh.as_ref().map(|result| &result.report),
                "{label}"
            );
        }
        assert!(points.last().unwrap().report.is_none());
    }
}
