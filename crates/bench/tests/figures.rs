//! Integration tests reproducing the shape of every didactic figure of the
//! paper (Figures 2–7 and the transformation stages of Figures 10–15).
//! The quantitative series behind these tests are printed by the
//! `spark-bench` reproduce binary and recorded in `docs/reproduce.txt`.

use spark_core::{ablation_study, synthesize, transform_program, FlowOptions};
use spark_ild::{build_ild_program, ILD_FUNCTION};
use spark_ir::{FunctionBuilder, FunctionStats, OpKind, Type, Value};
use spark_sched::{schedule, Constraints, DependenceGraph, FuClass, ResourceLibrary};
use spark_transforms as xf;

/// Figure 2/3: the synthetic Op1/Op2 loop. Full unrolling plus constant
/// propagation of the loop index exposes all cross-iteration parallelism:
/// the unlimited-resource schedule needs as many adders/multipliers as
/// iterations and only one cycle.
#[test]
fn figure2_unroll_and_const_prop_expose_parallelism() {
    let n = 8u64;
    let build = || {
        let mut b = FunctionBuilder::new("fig2");
        let input = b.param_array("in", Type::Bits(32), n as u32 + 1);
        let r2 = b.output_array("r2", Type::Bits(32), n as u32 + 1);
        let i = b.var("i", Type::Bits(32));
        let t = b.var("t", Type::Bits(32));
        let r1 = b.var("r1", Type::Bits(32));
        b.for_begin(i, 0, Value::word(n - 1), 1);
        b.array_read(t, input, Value::Var(i));
        b.assign(OpKind::Add, r1, vec![Value::Var(t), Value::Var(i)]); // Op1
        let d = b.compute(
            OpKind::Mul,
            Type::Bits(32),
            vec![Value::Var(r1), Value::word(3)],
        ); // Op2
        b.array_write(r2, Value::Var(i), Value::Var(d));
        b.loop_end();
        b.finish()
    };

    let mut f = build();
    xf::unroll_all_loops(&mut f).unwrap();
    xf::propagation(&mut f);
    xf::dead_code_elimination(&mut f);
    assert_eq!(f.loop_count(), 0);

    let graph = DependenceGraph::build(&f).unwrap();
    let lib = ResourceLibrary::new();
    let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(50.0)).unwrap();
    assert_eq!(
        sched.num_states, 1,
        "all iterations execute concurrently (Figure 3)"
    );
    assert_eq!(
        sched.fu_instances[&FuClass::Multiplier],
        n as usize,
        "one Op2 unit per iteration"
    );
    // One Op1 adder per iteration, except the i = 0 iteration whose `+ 0`
    // folds away during constant propagation.
    assert!(sched.fu_instances[&FuClass::Adder] >= n as usize - 1);

    // Without unrolling the loop cannot even be scheduled by this formulation
    // (it would need a multi-cycle looping controller) — the paper's point
    // that loops must be fully unrolled for single-cycle blocks.
    let untouched = build();
    assert!(DependenceGraph::build(&untouched).is_err());
}

/// Figure 4: chaining across an if-then-else boundary yields a single-cycle
/// schedule in which the steering logic (mux) sits inside the chain.
#[test]
fn figure4_chaining_across_conditional_boundaries() {
    let build = || {
        let mut b = FunctionBuilder::new("fig4");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let c = b.param("c", Type::Bits(8));
        let d = b.param("d", Type::Bits(8));
        let e = b.param("e", Type::Bits(8));
        let cond = b.param("cond", Type::Bool);
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let t3 = b.var("t3", Type::Bits(8));
        let f_ = b.output("f", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(bb)]); // 1
        b.if_begin(Value::Var(cond));
        b.copy(t2, Value::Var(t1)); // 2
        b.assign(OpKind::Add, t3, vec![Value::Var(c), Value::Var(d)]); // 3
        b.else_begin();
        b.copy(t2, Value::Var(e)); // 4
        b.assign(OpKind::Sub, t3, vec![Value::Var(c), Value::Var(d)]); // 5
        b.if_end();
        b.assign(OpKind::Add, f_, vec![Value::Var(t2), Value::Var(t3)]); // 6
        b.finish()
    };
    let f = build();
    let graph = DependenceGraph::build(&f).unwrap();
    let lib = ResourceLibrary::new();

    let chained = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
    assert_eq!(chained.num_states, 1, "Figure 4: single-cycle schedule");

    let mut no_cross = Constraints::microprocessor_block(10.0);
    no_cross.allow_cross_block_chaining = false;
    let classical = schedule(&f, &graph, &lib, &no_cross).unwrap();
    assert!(
        classical.num_states > 1,
        "without cross-conditional chaining the schedule stretches"
    );
}

/// Figures 10→15: the coordinated pipeline stages grow the operation count
/// (speculation, unrolling) and then collapse the control structure until the
/// design is a flat, single-cycle, maximally parallel architecture.
#[test]
fn figures_10_to_15_stage_progression() {
    let n = 8u32;
    let program = build_ild_program(n);
    let result = synthesize(
        &program,
        ILD_FUNCTION,
        &FlowOptions::microprocessor_block(500.0),
    )
    .unwrap();

    let stage = |name: &str| -> FunctionStats {
        result
            .stages
            .iter()
            .find(|s| s.stage == name)
            .unwrap_or_else(|| panic!("stage `{name}` recorded"))
            .stats
    };

    let input = stage("input");
    let inline = stage("inline");
    let unroll = stage("loop-unroll");
    let cleanup = stage("cleanup");
    let scheduled = stage("scheduled");

    // Figure 10: the input has one loop and a handful of operations.
    assert_eq!(input.loops, 1);
    assert!(input.operations < 10);
    // Figure 12: inlining pulls CalculateLength into the loop body.
    assert!(inline.operations > input.operations);
    // Figure 13: full unrolling multiplies the operation count roughly by n.
    assert!(unroll.operations >= inline.operations * (n as usize / 2));
    assert_eq!(unroll.loops, 0);
    // Figure 15: after clean-up the conditionals that remain are only the
    // per-byte marking guards; the scheduled design is a single state.
    assert!(cleanup.operations < unroll.operations);
    assert_eq!(result.report.states, 1);
    assert!(
        scheduled.operations >= cleanup.operations,
        "wire insertion adds commit copies"
    );
    // The data-calculation / control-logic / ripple structure of Figure 15
    // shows up as many speculative ops feeding mux/steering logic.
    assert!(result.wire_report.wires_created > 0);
    assert!(
        result.chaining.cross_block_pairs > 0,
        "chaining across conditional boundaries happened"
    );
}

/// Figure 11: speculating the loop body before unrolling leaves one commit
/// copy per hoisted op, however deep in `CalculateLength` it sat, so the
/// body handed to unrolling has the same 55 ops at every buffer size.
#[test]
fn figure11_speculation_stage_is_the_same_at_every_size() {
    for n in [4u32, 8, 16] {
        let transformed = transform_program(
            &build_ild_program(n),
            ILD_FUNCTION,
            &FlowOptions::microprocessor_block(500.0),
        )
        .unwrap();
        let speculation = transformed
            .stages
            .iter()
            .find(|s| s.stage == "speculation")
            .expect("stage `speculation` recorded");
        assert_eq!(speculation.stats.operations, 55, "n={n}");
    }
}

/// Figure 1 / Section 6: the ablation — removing any single coordinated
/// transformation loses the single-cycle result (or inflates the design),
/// and the classical baseline needs many cycles.
#[test]
fn ablation_shows_coordination_is_required() {
    let n = 8u32;
    let program = build_ild_program(n);
    let points = ablation_study(&program, ILD_FUNCTION, 500.0).unwrap();
    let point = |label: &str| {
        points
            .iter()
            .find(|p| p.label.contains(label))
            .unwrap_or_else(|| panic!("configuration `{label}` present"))
    };
    let coordinated = point("coordinated")
        .report
        .as_ref()
        .expect("coordinated flow succeeds");
    let baseline = point("ASIC baseline")
        .report
        .as_ref()
        .expect("baseline flow succeeds");

    assert_eq!(coordinated.states, 1);
    // "Loops in single cycle designs must, of course, be unrolled completely"
    // (Section 3): with unrolling disabled the loop survives to the scheduler
    // and the configuration is infeasible.
    assert!(
        point("no loop unrolling").report.is_none(),
        "without unrolling the byte loop cannot be scheduled into a block"
    );
    assert!(baseline.states > coordinated.states);
    // The single-cycle design pays in functional units compared to the
    // resource-shared baseline.
    assert!(coordinated.total_functional_units() >= baseline.total_functional_units());
}
