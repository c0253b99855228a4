//! Pins the dependence-graph construction contract of the scheduling
//! substrate: **one** shared pre-wire `DependenceGraph::build` per
//! transformed program, plus **one** post-wire build per scheduled point
//! (wire insertion rewrites the function, and the graph is rebuilt from it).
//! A point that fails to schedule never reaches wire insertion and builds
//! nothing of its own.
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
    // validation + controller — the pre-wire build and the post-wire build.
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
        before + 2,
        "one synthesis point builds the pre-wire and the post-wire graph once each"
    );

    // A clock sweep: every period point schedules against the transformed
    // program's shared pre-wire graph and rebuilds only its own post-wire
    // graph.
    let before = DependenceGraph::build_count();
    let points = sweep_clock_period(&program, ILD_FUNCTION, &[50.0, 100.0, 200.0, 500.0]).unwrap();
    assert_eq!(points.len(), 4);
    assert!(points.iter().all(|p| p.report.is_some()));
    assert_eq!(
        DependenceGraph::build_count(),
        before + 1 + 4,
        "a clock sweep shares one pre-wire graph and builds one post-wire graph per point"
    );

    // Infeasible points (schedule errors) stop before wire insertion and
    // build nothing of their own.
    let before = DependenceGraph::build_count();
    let points = sweep_clock_period(&program, ILD_FUNCTION, &[0.01, 0.02, 300.0]).unwrap();
    assert!(points[0].report.is_none() && points[1].report.is_none());
    assert!(points[2].report.is_some());
    assert_eq!(DependenceGraph::build_count(), before + 1 + 1);

    // The DSE helper: one pre-wire build per distinct transform-flag group,
    // shared by all points of the group, plus one post-wire build per point.
    let before = DependenceGraph::build_count();
    let configurations = vec![
        ("fast".to_string(), FlowOptions::microprocessor_block(100.0)),
        ("slow".to_string(), FlowOptions::microprocessor_block(500.0)),
        ("baseline".to_string(), FlowOptions::asic_baseline(20.0)),
    ];
    let exploration = explore_configurations(&program, ILD_FUNCTION, &configurations).unwrap();
    assert_eq!(exploration.transform_runs, 2);
    assert_eq!(
        DependenceGraph::build_count(),
        before + 2 + 3,
        "one pre-wire build per transform group and one post-wire build per configuration"
    );

    // An explicit transform + repeated back-half synthesis: the pre-wire
    // graph is built lazily on the first point and reused afterwards.
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
    assert_eq!(DependenceGraph::build_count(), before + 1 + 3);
}
