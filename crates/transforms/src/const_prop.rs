//! Constant folding and constant propagation.
//!
//! After a loop is fully unrolled, the initial assignment of the loop index
//! can be propagated as a constant through all the unrolled iterations,
//! eliminating the index variable entirely (Figures 3 and 14 of the paper).
//! That is exactly what this pass does: it folds operations whose operands
//! are all constants, simplifies algebraic identities, and forwards
//! single-definition constants to every dominated use.

use spark_ir::{Constant, Function, OpKind, Rewriter, Value};

use crate::fine::{push_to_readers, FineState, OpQueue};
use crate::report::Report;

/// Simplifies algebraic identities with one constant operand
/// (`x + 0`, `x * 1`, `x & 0`, `cond ? a : a`, ...). Returns the replacement
/// operand if the whole operation reduces to a single value.
fn simplify_identity(kind: &OpKind, args: &[Value]) -> Option<Value> {
    if args.len() < 2 {
        return None;
    }
    let is = |index: usize, value: u64| args[index].as_const().is_some_and(|c| c.value() == value);
    match kind {
        OpKind::Add | OpKind::Or | OpKind::Xor | OpKind::Sub | OpKind::Shl | OpKind::Shr
            if is(1, 0) =>
        {
            Some(args[0])
        }
        OpKind::Add | OpKind::Or | OpKind::Xor if is(0, 0) => Some(args[1]),
        OpKind::Mul | OpKind::And if is(0, 0) => Some(args[0]),
        OpKind::Mul | OpKind::And if is(1, 0) => Some(args[1]),
        OpKind::Mul if is(0, 1) => Some(args[1]),
        OpKind::Mul if is(1, 1) => Some(args[0]),
        OpKind::Select => match args[0].as_const() {
            Some(c) => Some(if c.as_bool() { args[1] } else { args[2] }),
            None => select_of_equal_arms(kind, args),
        },
        _ => None,
    }
}

/// `c ? a : a` is `a`: the one identity here that needs no constant operand,
/// so copy propagation, which can make two arms equal, applies it too.
pub(crate) fn select_of_equal_arms(kind: &OpKind, args: &[Value]) -> Option<Value> {
    if matches!(kind, OpKind::Select) && args[1] == args[2] {
        Some(args[1])
    } else {
        None
    }
}

/// Runs constant folding and propagation to a fixed point on `function`.
///
/// Stand-alone entry point: builds fresh analyses and runs
/// [`constant_propagation_with`]. Returns a [`Report`] with the number of
/// folded operations and forwarded constants.
pub fn constant_propagation(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    constant_propagation_with(function, &mut state)
}

/// Worklist-driven constant folding and propagation over an incrementally
/// maintained [`FineState`].
///
/// The worklist starts from every live operation. Folding depends only on
/// an operation's own operands, and an operand becomes a constant only when
/// its definition, a constant copy, pushes the constant in (the def side),
/// which requeues the reader. Every constant copy is visited, so no reader
/// needs to look for constants on its own. The rewrites (operand →
/// constant, operation → `Copy`) are confluent and monotone, so the fixed
/// point equals the full-rescan implementation's.
pub fn constant_propagation_with(function: &mut Function, state: &mut FineState) -> Report {
    let mut report = Report::new("constant-propagation", &function.name);
    let FineState { graph, positions } = state;
    let mut queue = OpQueue::of(function.live_ops());
    let mut rw = Rewriter::new(function, graph);

    let mut changed = 0usize;
    while let Some(op_id) = queue.pop() {
        if rw.function().ops[op_id].dead {
            continue;
        }

        // --- Folding: rewrite the op if its operands are all constants, or
        // an algebraic identity collapses it to a single value.
        let function = rw.function();
        let op = &function.ops[op_id];
        let replacement = match op.dest {
            Some(dest) if !op.kind.has_side_effects() && op.kind != OpKind::Copy => {
                let folded = op
                    .args
                    .iter()
                    .all(|a| a.is_const())
                    .then(|| function.eval_op(op, |a| a.as_const().map_or(0, Constant::value)));
                folded
                    .flatten()
                    .map(|v| Value::Const(Constant::new(v, function.vars[dest].ty)))
                    .or_else(|| simplify_identity(&op.kind, &op.args))
            }
            _ => None,
        };
        if let Some(replacement) = replacement {
            rw.rewrite_op(op_id, OpKind::Copy, vec![replacement]);
            changed += 1;
        }

        // --- Forwarding: if this op is (or just became) a constant copy
        // with a single-def destination, push the constant into every
        // dominated reader and requeue those readers (they may fold in turn).
        // The copy narrows the constant to its destination's width, so the
        // forwarded constant takes that width too. A definition inside a
        // loop body may execute many times; the constant is the same every
        // time, so forwarding is safe.
        let op = &rw.function().ops[op_id];
        if let (OpKind::Copy, Some(dest), Some(constant)) =
            (&op.kind, op.dest, op.args[0].as_const())
        {
            if rw.graph().has_single_def(dest) {
                let constant = Constant::new(constant.value(), rw.function().vars[dest].ty);
                let value = Value::Const(constant);
                changed += push_to_readers(&mut rw, positions, &mut queue, op_id, value, None);
            }
        }
    }

    report.add(changed);
    state.debug_check(function);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{Env, FunctionBuilder, Interpreter, Program, Type};

    #[test]
    fn folds_constant_arithmetic() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::word(2), Value::word(3)]);
        b.assign(OpKind::Mul, y, vec![Value::Var(x), Value::word(4)]);
        let mut f = b.finish();
        let report = constant_propagation(&mut f);
        assert!(report.changes >= 3, "fold add, forward 5, fold mul");
        // y's definition is now a copy of the constant 20.
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        assert_eq!(last.kind, OpKind::Copy);
        assert_eq!(last.args[0].as_const().unwrap().value(), 20);
    }

    #[test]
    fn propagates_loop_index_after_unroll_style_code() {
        // Mimics Figure 14: i_1 = 1; use DataCalculation(i_1, i_1+1, ...)
        let mut b = FunctionBuilder::new("f");
        let i1 = b.var("i_1", Type::Bits(32));
        let a = b.var("a", Type::Bits(32));
        b.copy(i1, Value::word(1));
        b.assign(OpKind::Add, a, vec![Value::Var(i1), Value::word(1)]);
        let mut f = b.finish();
        constant_propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[ops[1]];
        assert_eq!(last.kind, OpKind::Copy);
        assert_eq!(last.args[0].as_const().unwrap().value(), 2);
    }

    #[test]
    fn does_not_propagate_across_conditional_boundary() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::word(1));
        b.if_end();
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        let mut f = b.finish();
        constant_propagation(&mut f);
        // The use of x after the join must still read x, not the constant.
        let ops = f.live_ops();
        let add = &f.ops[*ops.last().unwrap()];
        assert_eq!(add.args[0], Value::Var(x));
    }

    #[test]
    fn identities_are_simplified() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(0)]);
        b.assign(OpKind::Mul, y, vec![Value::Var(a), Value::word(1)]);
        b.assign(
            OpKind::Select,
            z,
            vec![Value::bool(true), Value::Var(a), Value::word(9)],
        );
        let mut f = b.finish();
        constant_propagation(&mut f);
        for op in f.live_ops() {
            assert_eq!(f.ops[op].kind, OpKind::Copy);
            assert_eq!(f.ops[op].args[0], Value::Var(a));
        }
    }

    #[test]
    fn forwarded_constants_take_the_copied_variables_width() {
        // t is 1 bit wide, so `t = 200` stores 0 and `s = t + w` reads 0 + 5.
        // The forwarded constant must be narrowed, whichever copy pushes
        // into the add first.
        let build = |w_first: bool| {
            let mut b = FunctionBuilder::new("f");
            let w = b.var("w", Type::Bits(8));
            let t = b.var("t", Type::Bits(1));
            let s = b.output("s", Type::Bits(8));
            if w_first {
                b.copy(w, Value::word(5));
            }
            b.copy(t, Value::word(200));
            if !w_first {
                b.copy(w, Value::word(5));
            }
            let add = b.assign(OpKind::Add, s, vec![Value::Var(t), Value::Var(w)]);
            (b.finish(), add)
        };
        for w_first in [true, false] {
            let (mut f, add) = build(w_first);
            constant_propagation(&mut f);
            assert_eq!(f.ops[add].kind, OpKind::Copy, "{f}");
            assert_eq!(f.ops[add].args[0].as_const().unwrap().value(), 5, "{f}");
        }
    }

    #[test]
    fn semantics_preserved_on_random_program() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(3)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(2)]);
        b.else_begin();
        b.assign(OpKind::Sub, y, vec![Value::Var(x), Value::word(2)]);
        b.if_end();
        b.ret(Value::Var(y));
        let f = b.finish();

        let mut p_before = Program::new();
        p_before.add_function(f.clone());
        let mut transformed = f;
        constant_propagation(&mut transformed);
        let mut p_after = Program::new();
        p_after.add_function(transformed);

        for a_val in [0u64, 7, 255] {
            for c_val in [0u64, 1] {
                let env = Env::new().with_scalar("a", a_val).with_scalar("c", c_val);
                let before = Interpreter::new(&p_before).run("f", &env).unwrap();
                let after = Interpreter::new(&p_after).run("f", &env).unwrap();
                assert_eq!(before.return_value, after.return_value);
            }
        }
    }
}
