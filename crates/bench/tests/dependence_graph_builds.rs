//! Pins the dependence-graph construction contract of the scheduling
//! substrate: **one** `DependenceGraph::build` per transformed program,
//! shared by the scheduler, wire insertion, the chaining check and every
//! design point scheduled against that program. No point builds a graph of
//! its own, whether it schedules or fails.
//!
//! This file is its own test binary, so `DependenceGraph::build_count()`
//! moves only under the calls made here; everything runs inside a single
//! `#[test]` to keep the counter deterministic.

use spark_core::{
    explore_configurations, sweep_clock_period, synthesize, transform_program, FlowOptions,
};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_sched::DependenceGraph;

#[test]
fn one_graph_build_per_synthesis_point_and_one_per_sweep() {
    let program = build_ild_program(8);

    // A full synthesize run: transform + schedule + wire insertion +
    // validation + controller, all on one graph.
    let before = DependenceGraph::build_count();
    let result = synthesize(
        &program,
        ILD_FUNCTION,
        &FlowOptions::microprocessor_block(200.0),
    )
    .expect("synthesis succeeds");
    assert!(result.is_single_cycle());
    assert_eq!(
        DependenceGraph::build_count(),
        before + 1,
        "one synthesis point builds one graph"
    );

    // A clock sweep: every period point schedules against the transformed
    // program's shared graph, however many points there are.
    let before = DependenceGraph::build_count();
    let points = sweep_clock_period(&program, ILD_FUNCTION, &[50.0, 100.0, 200.0, 500.0]).unwrap();
    assert_eq!(points.len(), 4);
    assert!(points.iter().all(|p| p.report.is_some()));
    assert_eq!(
        DependenceGraph::build_count(),
        before + 1,
        "a clock sweep shares one graph across its points"
    );

    // Infeasible points (schedule errors) build nothing of their own
    // either.
    let before = DependenceGraph::build_count();
    let points = sweep_clock_period(&program, ILD_FUNCTION, &[0.01, 0.02, 300.0]).unwrap();
    assert!(points[0].report.is_none() && points[1].report.is_none());
    assert!(points[2].report.is_some());
    assert_eq!(DependenceGraph::build_count(), before + 1);

    // The DSE helper synthesizes every configuration from scratch: one
    // build per configuration.
    let before = DependenceGraph::build_count();
    let configurations = vec![
        ("fast".to_string(), FlowOptions::microprocessor_block(100.0)),
        ("slow".to_string(), FlowOptions::microprocessor_block(500.0)),
        ("baseline".to_string(), FlowOptions::asic_baseline(20.0)),
    ];
    let points = explore_configurations(&program, ILD_FUNCTION, &configurations).unwrap();
    assert!(points.iter().all(|p| p.report.is_some()));
    assert_eq!(
        DependenceGraph::build_count(),
        before + 3,
        "one build per configuration"
    );

    // An explicit transform + repeated back-half synthesis: the graph is
    // built lazily on the first point and reused afterwards.
    let transformed = transform_program(
        &program,
        ILD_FUNCTION,
        &FlowOptions::microprocessor_block(1.0),
    )
    .unwrap();
    let before = DependenceGraph::build_count();
    for period in [100.0, 200.0, 400.0] {
        let options = FlowOptions::microprocessor_block(period);
        let point = spark_core::synthesize_transformed(&transformed, &options).unwrap();
        assert!(point.report.critical_path_ns <= period);
    }
    assert_eq!(DependenceGraph::build_count(), before + 1);
}
