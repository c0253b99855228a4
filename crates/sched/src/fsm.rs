//! Finite-state-machine controller model.
//!
//! After scheduling, the controller is a simple sequential FSM: one state per
//! control step, advancing every cycle and wrapping around at the end (the
//! block restarts on fresh inputs, as the ILD does on every new buffer). Each
//! state lists the operations it executes together with their guard — the
//! conjunction of branch conditions under which the operation's result is
//! committed. Single-cycle microprocessor blocks degenerate to a one-state
//! controller, which is exactly the goal of the paper's methodology.
//!
//! A state's operations are listed in program order. Chained producers and
//! consumers pass values through wire-variables (Section 3.1.2), so that
//! order is part of the design: the VHDL emitter writes it and the RTL
//! simulator runs it, and this module is the one place that decides it.
//! A guard term reads its condition like any operand: through the wire a
//! condition was committed from earlier in the same state, if any.

use spark_ir::{Function, OpId, OpKind, SecondaryMap, Value, VarId};

use crate::deps::{walk_guards, Guard};
use crate::scheduler::Schedule;

/// One scheduled operation inside a control step.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: OpId,
    /// Guard under which its result is committed.
    pub guard: Guard,
    /// Start time within the state (ns).
    pub start_ns: f64,
    /// Finish time within the state (ns).
    pub finish_ns: f64,
}

/// One control step of the FSM.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlStep {
    /// State index.
    pub index: usize,
    /// Operations executed in this state, in program order.
    pub ops: Vec<ScheduledOp>,
}

impl ControlStep {
    /// Longest combinational path in this state (ns).
    pub fn critical_path_ns(&self) -> f64 {
        self.ops.iter().map(|o| o.finish_ns).fold(0.0, f64::max)
    }
}

/// The generated controller.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Controller {
    /// Control steps in execution order; the FSM advances one step per cycle
    /// and wraps to step 0.
    pub steps: Vec<ControlStep>,
}

impl Controller {
    /// Builds the controller from a schedule, listing each state's operations
    /// in program order under the guards of their blocks.
    ///
    /// # Panics
    /// Panics if `function` still contains loops or calls: a scheduled
    /// function has neither.
    pub fn build(function: &Function, schedule: &Schedule) -> Self {
        let mut steps: Vec<ControlStep> = (0..schedule.num_states)
            .map(|index| ControlStep {
                index,
                ops: Vec::new(),
            })
            .collect();
        // Per register, the state and wire of its latest commit copy.
        let mut committed: SecondaryMap<VarId, (usize, VarId)> = SecondaryMap::new();
        walk_guards(function, |block_guard, _, ops| {
            for &op in ops {
                let Some(&state) = schedule.op_state.get(&op) else {
                    continue;
                };
                let mut guard = block_guard.clone();
                for (cond, _) in &mut guard.terms {
                    match cond.as_var().and_then(|c| committed.get(&c)) {
                        Some(&(at, wire)) if at == state => *cond = Value::Var(wire),
                        _ => {}
                    }
                }
                let operation = &function.ops[op];
                if let (OpKind::Copy, Some(dest), [Value::Var(src)]) =
                    (&operation.kind, operation.dest, operation.args.as_slice())
                {
                    if function.vars[*src].is_wire() && !function.vars[dest].is_wire() {
                        committed.insert(dest, (state, *src));
                    }
                }
                steps[state].ops.push(ScheduledOp {
                    op,
                    guard,
                    start_ns: schedule.op_start.get(&op).copied().unwrap_or(0.0),
                    finish_ns: schedule.op_finish.get(&op).copied().unwrap_or(0.0),
                });
            }
        })
        .expect("a scheduled function has no loops or calls");
        Controller { steps }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for a single-cycle controller — the target architecture
    /// for microprocessor blocks (Figure 15).
    pub fn is_single_cycle(&self) -> bool {
        self.steps.len() == 1
    }

    /// Longest combinational path over all states (ns).
    pub fn critical_path_ns(&self) -> f64 {
        self.steps
            .iter()
            .map(ControlStep::critical_path_ns)
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            writeln!(
                f,
                "state S{} ({} ops, {:.2} ns):",
                step.index,
                step.ops.len(),
                step.critical_path_ns()
            )?;
            for op in &step.ops {
                let guard = if op.guard.is_unconditional() {
                    String::new()
                } else {
                    format!(" [{} guard term(s)]", op.guard.terms.len())
                };
                writeln!(
                    f,
                    "  op{} @ {:.2}..{:.2} ns{}",
                    op.op.raw(),
                    op.start_ns,
                    op.finish_ns,
                    guard
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::DependenceGraph;
    use crate::resources::ResourceLibrary;
    use crate::scheduler::{schedule, Constraints};
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    fn small_design() -> (Function, Schedule) {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.output("y", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(2)]);
        b.else_begin();
        b.copy(y, Value::Var(x));
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        (f, sched)
    }

    #[test]
    fn controller_reflects_schedule() {
        let (f, sched) = small_design();
        let controller = Controller::build(&f, &sched);
        assert!(controller.is_single_cycle());
        assert_eq!(controller.steps[0].ops.len(), f.live_op_count());
        assert!(controller.critical_path_ns() > 0.0);
        // Guarded ops carry their guards.
        let guarded = controller.steps[0]
            .ops
            .iter()
            .filter(|o| !o.guard.is_unconditional())
            .count();
        assert_eq!(guarded, 2);
    }

    #[test]
    fn ops_are_in_program_order() {
        // `z` starts at 0 ns, before the chained `y`, yet stays last.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bits(8));
        let [x, y, z] = ["x", "y", "z"].map(|name| b.output(name, Type::Bits(8)));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        b.assign(OpKind::Add, z, vec![Value::Var(c), Value::word(1)]);
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(10.0)).unwrap();
        let controller = Controller::build(&f, &sched);
        assert!(controller.is_single_cycle());
        let ops = &controller.steps[0].ops;
        assert!(ops[2].start_ns < ops[1].start_ns);
        let listed: Vec<OpId> = ops.iter().map(|o| o.op).collect();
        assert_eq!(listed, f.live_ops());
    }

    #[test]
    fn display_lists_states() {
        let (f, sched) = small_design();
        let controller = Controller::build(&f, &sched);
        let text = controller.to_string();
        assert!(text.contains("state S0"));
        assert!(text.contains("guard term"));
    }

    #[test]
    fn multi_state_controller() {
        let mut b = FunctionBuilder::new("long");
        let a = b.param("a", Type::Bits(8));
        let mut prev = a;
        for i in 0..6 {
            let x = b.var(&format!("x{i}"), Type::Bits(8));
            b.assign(OpKind::Add, x, vec![Value::Var(prev), Value::word(1)]);
            prev = x;
        }
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(4.5)).unwrap();
        let controller = Controller::build(&f, &sched);
        assert_eq!(controller.num_states(), 3);
        assert!(!controller.is_single_cycle());
    }
}
