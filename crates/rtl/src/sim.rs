//! Cycle-accurate RTL-semantics simulation of a scheduled design.
//!
//! The [`RtlSimulator`] executes a scheduled function the way the generated
//! hardware would: one pass through the FSM states, registers sampled at the
//! state boundary (reads observe the value at state entry, writes become
//! visible in the next state), wire-variables combinational within the state,
//! and guarded operations committing only when their branch conditions hold;
//! a condition is read like any operand, as the VHDL signal it becomes is.
//! It runs the [`Controller`]'s steps — each state's operations in the order
//! and under the guards the VHDL emitter writes — so it checks the emitted
//! controller, not a second reading of the schedule.
//!
//! This is deliberately a *different* evaluation model from the sequential
//! [`spark_ir::Interpreter`]: agreement between the two on the same inputs
//! demonstrates that scheduling, chaining and wire-variable insertion
//! preserved the behaviour — the verification step the paper could not do
//! against a hand design.
//!
//! After operation chaining, same-state consumers — operands and guard
//! conditions alike — must read wire-variables (inserted by
//! [`spark_sched::insert_wire_variables`]); running the RTL simulator on a
//! chained design *without* that pass will expose the register-read hazard,
//! which is exactly what the tests check.

use std::collections::BTreeMap;

use spark_ir::{Env, Function, OpKind, PortDirection, SecondaryMap, Value, VarId};
use spark_sched::Controller;

/// Result of one block evaluation (one pass through all FSM states).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtlOutcome {
    /// Final register/port values by variable name.
    pub scalars: BTreeMap<String, u64>,
    /// Final array contents by variable name.
    pub arrays: BTreeMap<String, Vec<u64>>,
    /// Number of cycles executed.
    pub cycles: usize,
}

impl RtlOutcome {
    /// Final value of a named scalar.
    pub fn scalar(&self, name: &str) -> Option<u64> {
        self.scalars.get(name).copied()
    }

    /// Final contents of a named array.
    pub fn array(&self, name: &str) -> Option<&[u64]> {
        self.arrays.get(name).map(Vec::as_slice)
    }
}

/// Errors raised by the RTL simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtlSimError {
    /// An array access was out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: u64,
    },
    /// The design still contains operations the datapath cannot implement
    /// (calls must be inlined before RTL generation).
    UnsupportedOp(String),
    /// An operation had fewer operands than its kind reads.
    Malformed(String),
}

impl std::fmt::Display for RtlSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtlSimError::OutOfBounds { array, index } => {
                write!(f, "index {index} out of bounds for array `{array}`")
            }
            RtlSimError::UnsupportedOp(op) => write!(f, "unsupported operation in datapath: {op}"),
            RtlSimError::Malformed(msg) => write!(f, "malformed operation: {msg}"),
        }
    }
}

impl std::error::Error for RtlSimError {}

/// Reusable value tables of one simulator run: registers and arrays as of
/// state entry, wires, and the `next_*` tables a state writes. Holding these
/// across [`RtlSimulator::run_batch`] iterations lets every buffer after the
/// first reuse their allocations. (The array store still collects one fresh
/// `Vec` per array variable per run — the env binding is cloned anyway.)
#[derive(Clone, Debug, Default)]
struct SimTables {
    registers: SecondaryMap<VarId, u64>,
    arrays: SecondaryMap<VarId, Vec<u64>>,
    wires: SecondaryMap<VarId, u64>,
    next_registers: SecondaryMap<VarId, u64>,
    next_arrays: SecondaryMap<VarId, Vec<u64>>,
}

/// Cycle-accurate simulator for a scheduled function.
#[derive(Clone, Debug)]
pub struct RtlSimulator<'a> {
    function: &'a Function,
    controller: &'a Controller,
}

impl<'a> RtlSimulator<'a> {
    /// Creates a simulator for one scheduled function and its controller.
    pub fn new(function: &'a Function, controller: &'a Controller) -> Self {
        RtlSimulator {
            function,
            controller,
        }
    }

    /// Runs one block evaluation with the inputs of `env`.
    ///
    /// # Errors
    /// Returns [`RtlSimError`] on out-of-bounds array accesses or operations
    /// that have no datapath implementation (calls).
    pub fn run(&self, env: &Env) -> Result<RtlOutcome, RtlSimError> {
        self.run_with(env, &mut SimTables::default())
    }

    /// Runs one block evaluation per input set, in order, reusing the value
    /// tables (register file, array store, wires, next-state tables) across
    /// buffers. With the per-buffer setup amortised this is the preferred
    /// entry point for workloads — corpus checks, golden-model sweeps — that
    /// simulate the same design on many input sets.
    ///
    /// # Errors
    /// Returns [`RtlSimError`] on the first failing input set.
    pub fn run_batch(&self, envs: &[Env]) -> Result<Vec<RtlOutcome>, RtlSimError> {
        let mut tables = SimTables::default();
        envs.iter()
            .map(|env| self.run_with(env, &mut tables))
            .collect()
    }

    fn run_with(&self, env: &Env, tables: &mut SimTables) -> Result<RtlOutcome, RtlSimError> {
        let function = self.function;
        // Register file and array state, in dense per-variable tables.
        let SimTables {
            registers,
            arrays,
            wires,
            next_registers,
            next_arrays,
        } = tables;
        registers.clear();
        arrays.clear();
        for (var_id, var) in function.vars.iter() {
            match var.storage {
                spark_ir::StorageClass::Array { length } => {
                    let mut contents = env
                        .array_bindings()
                        .get(&var.name)
                        .cloned()
                        .unwrap_or_default();
                    contents.resize(length as usize, 0);
                    contents.iter_mut().for_each(|v| *v &= var.ty.mask());
                    arrays.insert(var_id, contents);
                }
                _ => {
                    let value = env.scalar_bindings().get(&var.name).copied().unwrap_or(0);
                    registers.insert(var_id, value & var.ty.mask());
                }
            }
        }

        for step in &self.controller.steps {
            wires.clear();
            next_registers.clone_from(registers);
            next_arrays.clone_from(arrays);

            // Writes go to the `next_*` tables, so `registers` and `arrays`
            // hold the values at state entry for the whole state.
            let read = |value: Value, wires: &SecondaryMap<VarId, u64>| -> u64 {
                match value {
                    Value::Const(c) => c.value(),
                    Value::Var(v) => {
                        if function.vars[v].is_wire() {
                            wires.get(&v).copied().unwrap_or(0)
                        } else {
                            registers.get(&v).copied().unwrap_or(0)
                        }
                    }
                }
            };

            for scheduled in &step.ops {
                let holds =
                    |&(cond, polarity): &(Value, bool)| (read(cond, wires) != 0) == polarity;
                if !scheduled.guard.terms.iter().all(holds) {
                    continue;
                }
                let op = &function.ops[scheduled.op];
                let arg = |i: usize| {
                    op.args.get(i).copied().ok_or_else(|| {
                        RtlSimError::Malformed(format!("{} missing operand {i}", op.kind))
                    })
                };
                let result: Option<u64> = match &op.kind {
                    OpKind::ArrayRead { array } => {
                        let index = read(arg(0)?, wires);
                        let value = arrays.get(array).and_then(|c| c.get(index as usize));
                        Some(*value.ok_or_else(|| RtlSimError::OutOfBounds {
                            array: function.vars[*array].name.clone(),
                            index,
                        })?)
                    }
                    OpKind::ArrayWrite { array } => {
                        let index = read(arg(0)?, wires);
                        let value = read(arg(1)?, wires) & function.vars[*array].ty.mask();
                        let contents = next_arrays.get_or_insert_with(*array, Vec::new);
                        let slot = contents.get_mut(index as usize).ok_or_else(|| {
                            RtlSimError::OutOfBounds {
                                array: function.vars[*array].name.clone(),
                                index,
                            }
                        })?;
                        *slot = value;
                        None
                    }
                    OpKind::Return => None,
                    OpKind::Call { callee } => {
                        return Err(RtlSimError::UnsupportedOp(format!("call to `{callee}`")))
                    }
                    kind => Some(
                        function
                            .eval_op(op, |value| read(value, wires))
                            .ok_or_else(|| {
                                RtlSimError::Malformed(format!("{kind} missing an operand"))
                            })?,
                    ),
                };
                if let (Some(dest), Some(value)) = (op.dest, result) {
                    let masked = value & function.vars[dest].ty.mask();
                    if function.vars[dest].is_wire() {
                        wires.insert(dest, masked);
                    } else {
                        next_registers.insert(dest, masked);
                    }
                }
            }

            std::mem::swap(registers, next_registers);
            std::mem::swap(arrays, next_arrays);
        }

        let mut outcome = RtlOutcome {
            cycles: self.controller.num_states().max(1),
            ..RtlOutcome::default()
        };
        for (var_id, var) in function.vars.iter() {
            if var.is_array() {
                if let Some(contents) = arrays.get(&var_id) {
                    outcome.arrays.insert(var.name.clone(), contents.clone());
                }
            } else if !var.is_wire() || var.direction != PortDirection::Internal {
                if let Some(&value) = registers.get(&var_id) {
                    outcome.scalars.insert(var.name.clone(), value);
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, Interpreter, Program, Type};
    use spark_sched::{
        insert_wire_variables, schedule, Constraints, DependenceGraph, ResourceLibrary,
    };

    /// Schedules `f` at `period`, inserts wire-variables and returns the
    /// function with its controller.
    fn prepare(mut f: Function, period: f64) -> (Function, Controller) {
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let mut sched =
            schedule(&f, &graph, &lib, &Constraints::microprocessor_block(period)).unwrap();
        insert_wire_variables(&mut f, &graph, &mut sched);
        let controller = Controller::build(&f, &sched);
        (f, controller)
    }

    fn chained_conditional() -> Function {
        // cond = a > 10; if (cond) { x = a + 1 } else { x = a - 1 }; out = x + b
        let mut b = FunctionBuilder::new("design");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let cond = b.var("cond", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Gt, cond, vec![Value::Var(a), Value::word(10)]);
        b.if_begin(Value::Var(cond));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.else_begin();
        b.assign(OpKind::Sub, x, vec![Value::Var(a), Value::word(1)]);
        b.if_end();
        b.assign(OpKind::Add, out, vec![Value::Var(x), Value::Var(bb)]);
        b.finish()
    }

    #[test]
    fn rtl_matches_interpreter_on_single_cycle_design() {
        let original = chained_conditional();
        let (f, controller) = prepare(original.clone(), 20.0);
        assert!(controller.is_single_cycle());

        let mut program = Program::new();
        program.add_function(original);
        for a in [0u64, 5, 11, 200, 255] {
            for b in [0u64, 3, 250] {
                let env = Env::new().with_scalar("a", a).with_scalar("b", b);
                let golden = Interpreter::new(&program).run("design", &env).unwrap();
                let rtl = RtlSimulator::new(&f, &controller).run(&env).unwrap();
                assert_eq!(golden.scalar("out"), rtl.scalar("out"), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn rtl_matches_interpreter_on_multi_cycle_design() {
        let original = chained_conditional();
        // Tight clock: comparator, adders spread over several states.
        let (f, controller) = prepare(original.clone(), 2.5);
        assert!(controller.num_states() > 1);
        let mut program = Program::new();
        program.add_function(original);
        for a in [7u64, 42] {
            let env = Env::new().with_scalar("a", a).with_scalar("b", 9);
            let golden = Interpreter::new(&program).run("design", &env).unwrap();
            let rtl = RtlSimulator::new(&f, &controller).run(&env).unwrap();
            assert_eq!(golden.scalar("out"), rtl.scalar("out"), "a={a}");
        }
    }

    #[test]
    fn without_wire_insertion_the_register_hazard_shows() {
        // Same design, scheduled into one state but *without* wire-variable
        // insertion: the chained read of `x` observes the stale register and
        // the result differs from the golden model — demonstrating why
        // Section 3.1.2 is necessary.
        let f = chained_conditional();
        let graph = DependenceGraph::build(&f).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(&f, &graph, &lib, &Constraints::microprocessor_block(20.0)).unwrap();
        let controller = Controller::build(&f, &sched);
        let env = Env::new().with_scalar("a", 20).with_scalar("b", 1);
        let rtl = RtlSimulator::new(&f, &controller).run(&env).unwrap();
        // golden would be (20+1)+1 = 22; the hazard yields 0+1 = 1.
        assert_ne!(rtl.scalar("out"), Some(22));
    }

    #[test]
    fn a_guard_written_in_its_own_state_needs_its_wire() {
        // c = a > 10; if (c) out = b, in one state. Without wire insertion
        // the guard reads the register `c`, which only takes the comparison
        // at the state boundary, so the store is skipped; with it, the guard
        // reads the comparison's wire and the RTL matches the interpreter.
        let mut b = FunctionBuilder::new("gate");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let c = b.var("c", Type::Bool);
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Gt, c, vec![Value::Var(a), Value::word(10)]);
        b.if_begin(Value::Var(c));
        b.copy(out, Value::Var(bb));
        b.if_end();
        let original = b.finish();
        let mut program = Program::new();
        program.add_function(original.clone());
        let env = Env::new().with_scalar("a", 20).with_scalar("b", 5);
        let golden = Interpreter::new(&program).run("gate", &env).unwrap();
        assert_eq!(golden.scalar("out"), Some(5));

        let graph = DependenceGraph::build(&original).unwrap();
        let lib = ResourceLibrary::new();
        let sched = schedule(
            &original,
            &graph,
            &lib,
            &Constraints::microprocessor_block(20.0),
        )
        .unwrap();
        let controller = Controller::build(&original, &sched);
        assert!(controller.is_single_cycle());
        let stale = RtlSimulator::new(&original, &controller).run(&env).unwrap();
        assert_ne!(stale.scalar("out"), golden.scalar("out"));

        let (f, controller) = prepare(original, 20.0);
        assert!(controller.is_single_cycle());
        let rtl = RtlSimulator::new(&f, &controller).run(&env).unwrap();
        assert_eq!(rtl.scalar("out"), golden.scalar("out"));
    }

    #[test]
    fn guarded_array_writes_commit_only_when_taken() {
        let mut b = FunctionBuilder::new("marks");
        let c = b.param("c", Type::Bool);
        let mark = b.output_array("Mark", Type::Bool, 4);
        b.if_begin(Value::Var(c));
        b.array_write(mark, Value::word(2), Value::bool(true));
        b.if_end();
        let f = b.finish();
        let (f, controller) = prepare(f, 10.0);
        let sim = RtlSimulator::new(&f, &controller);
        let taken = sim.run(&Env::new().with_scalar("c", 1)).unwrap();
        assert_eq!(taken.array("Mark"), Some(&[0, 0, 1, 0][..]));
        let skipped = sim.run(&Env::new().with_scalar("c", 0)).unwrap();
        assert_eq!(skipped.array("Mark"), Some(&[0, 0, 0, 0][..]));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut b = FunctionBuilder::new("oob");
        let i = b.param("i", Type::Bits(8));
        let mark = b.output_array("Mark", Type::Bool, 2);
        b.array_write(mark, Value::Var(i), Value::bool(true));
        let f = b.finish();
        let (f, controller) = prepare(f, 10.0);
        let err = RtlSimulator::new(&f, &controller)
            .run(&Env::new().with_scalar("i", 9))
            .unwrap_err();
        assert!(matches!(err, RtlSimError::OutOfBounds { .. }));
    }

    #[test]
    fn missing_operand_is_reported() {
        // An `add` with one operand is an error, not a sum with zero.
        let mut b = FunctionBuilder::new("short");
        let a = b.param("a", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, out, vec![Value::Var(a)]);
        let (f, controller) = prepare(b.finish(), 10.0);
        let err = RtlSimulator::new(&f, &controller)
            .run(&Env::new().with_scalar("a", 3))
            .unwrap_err();
        assert!(matches!(err, RtlSimError::Malformed(_)), "{err}");
    }
}
