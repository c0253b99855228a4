//! # spark-bench — experiment harness
//!
//! Shared helpers behind the `reproduce` binary (which prints the
//! table/series for every figure of the paper, recorded in
//! `docs/reproduce.txt`) and the `bench_synthesize` timing binary
//! ([`perf`]), which writes the mean span totals of each run's
//! [`Trace`](spark_core::Trace).
//!
//! Experiment index (the design behind it is in `docs/ARCHITECTURE.md`):
//! E1 = Figures 2–3, E2–E4 = Figures 4–7, E5–E8 = the ILD transformation
//! stages of Figures 10–15, E9 = the baseline comparison implied by
//! Figure 1, E10 = the natural description of Figure 16.

#![warn(missing_docs)]

pub mod corpus;
pub mod experiments;
pub mod perf;

use spark_core::{synthesize, FlowOptions, SynthesisResult};
use spark_ild::{build_ild_natural_program, build_ild_program, ILD_FUNCTION, ILD_NATURAL_FUNCTION};
use spark_ir::{Function, FunctionBuilder, OpKind, Type, Value};
use spark_sched::{schedule, Constraints, DependenceGraph, ResourceLibrary, Schedule};
use spark_transforms as xf;

/// Buffer sizes swept by the ILD experiments.
pub const ILD_SIZES: [u32; 5] = [4, 8, 16, 32, 64];

/// A generous clock period that lets the whole unrolled ILD chain into one
/// cycle; only relative critical paths matter, not the absolute value.
pub const SINGLE_CYCLE_CLOCK_NS: f64 = 2000.0;

/// Clock period used for the multi-cycle ASIC baseline.
pub const BASELINE_CLOCK_NS: f64 = 20.0;

/// Builds the Figure 2 synthetic loop (`Op1`/`Op2` over `n` iterations).
pub fn figure2_loop(n: u64) -> Function {
    let mut b = FunctionBuilder::new("fig2");
    let input = b.param_array("in", Type::Bits(32), n as u32 + 1);
    let r2 = b.output_array("r2", Type::Bits(32), n as u32 + 1);
    let i = b.var("i", Type::Bits(32));
    let t = b.var("t", Type::Bits(32));
    let r1 = b.var("r1", Type::Bits(32));
    b.for_begin(i, 0, Value::word(n - 1), 1);
    b.array_read(t, input, Value::Var(i));
    b.assign(OpKind::Add, r1, vec![Value::Var(t), Value::Var(i)]);
    let d = b.compute(
        OpKind::Mul,
        Type::Bits(32),
        vec![Value::Var(r1), Value::word(3)],
    );
    b.array_write(r2, Value::Var(i), Value::Var(d));
    b.loop_end();
    b.finish()
}

/// Applies the Figure 3 recipe (full unroll + constant propagation + DCE) and
/// schedules the result with unlimited resources. Returns the schedule.
pub fn figure2_unrolled_schedule(n: u64) -> Schedule {
    let mut f = figure2_loop(n);
    xf::unroll_all_loops(&mut f).expect("the Figure 2 loop unrolls");
    xf::propagation(&mut f);
    xf::dead_code_elimination(&mut f);
    let graph = DependenceGraph::build(&f).expect("loop-free after unrolling");
    schedule(
        &f,
        &graph,
        &ResourceLibrary::new(),
        &Constraints::microprocessor_block(200.0),
    )
    .expect("schedulable")
}

/// Builds the Figure 4 conditional-chaining fragment.
pub fn figure4_fragment() -> Function {
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
    b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(bb)]);
    b.if_begin(Value::Var(cond));
    b.copy(t2, Value::Var(t1));
    b.assign(OpKind::Add, t3, vec![Value::Var(c), Value::Var(d)]);
    b.else_begin();
    b.copy(t2, Value::Var(e));
    b.assign(OpKind::Sub, t3, vec![Value::Var(c), Value::Var(d)]);
    b.if_end();
    b.assign(OpKind::Add, f_, vec![Value::Var(t2), Value::Var(t3)]);
    b.finish()
}

/// Synthesizes the ILD with the coordinated microprocessor-block flow.
pub fn synthesize_ild_spark(n: u32) -> SynthesisResult {
    let program = build_ild_program(n);
    synthesize(
        &program,
        ILD_FUNCTION,
        &FlowOptions::microprocessor_block(SINGLE_CYCLE_CLOCK_NS),
    )
    .expect("coordinated ILD synthesis succeeds")
}

/// Synthesizes the ILD with the classical ASIC baseline flow.
pub fn synthesize_ild_baseline(n: u32) -> SynthesisResult {
    let program = build_ild_program(n);
    synthesize(
        &program,
        ILD_FUNCTION,
        &FlowOptions::asic_baseline(BASELINE_CLOCK_NS),
    )
    .expect("baseline ILD synthesis succeeds")
}

/// Synthesizes the natural Figure 16 form of the ILD.
pub fn synthesize_ild_natural(n: u32) -> SynthesisResult {
    let program = build_ild_natural_program(n);
    synthesize(
        &program,
        ILD_NATURAL_FUNCTION,
        &FlowOptions::microprocessor_block(SINGLE_CYCLE_CLOCK_NS),
    )
    .expect("natural-form ILD synthesis succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_helpers_reach_single_state() {
        let sched = figure2_unrolled_schedule(4);
        assert_eq!(sched.num_states, 1);
    }

    #[test]
    fn ild_helpers_produce_single_cycle_and_multi_cycle_designs() {
        let spark = synthesize_ild_spark(4);
        let baseline = synthesize_ild_baseline(4);
        assert!(spark.is_single_cycle());
        assert!(baseline.report.states > 1);
    }
}
