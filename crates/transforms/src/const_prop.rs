//! Constant folding and constant propagation.
//!
//! After a loop is fully unrolled, the initial assignment of the loop index
//! can be propagated as a constant through all the unrolled iterations,
//! eliminating the index variable entirely (Figures 3 and 14 of the paper).
//! That is exactly what this pass does: it folds operations whose operands
//! are all constants, simplifies algebraic identities, and forwards
//! single-definition constants to every dominated use.

use spark_ir::{Constant, EditLog, Function, OpId, OpKind, Rewriter, Type, Value};

use crate::fine::{FineState, OpQueue};
use crate::report::{Invalidation, Report};

/// Evaluates a pure operation over constant operands.
///
/// Returns `None` for kinds that cannot be folded (array accesses, calls,
/// returns) or when the operand count is wrong.
pub fn fold_constants(kind: &OpKind, args: &[Constant], dest_ty: Type) -> Option<Constant> {
    let a = |i: usize| args.get(i).map(|c| c.value());
    let value = match kind {
        OpKind::Add => a(0)?.wrapping_add(a(1)?),
        OpKind::Sub => a(0)?.wrapping_sub(a(1)?),
        OpKind::Mul => a(0)?.wrapping_mul(a(1)?),
        OpKind::And => a(0)? & a(1)?,
        OpKind::Or => a(0)? | a(1)?,
        OpKind::Xor => a(0)? ^ a(1)?,
        OpKind::Not => !a(0)?,
        OpKind::Shl => a(0)? << a(1)?.min(63),
        OpKind::Shr => a(0)? >> a(1)?.min(63),
        OpKind::Eq => (a(0)? == a(1)?) as u64,
        OpKind::Ne => (a(0)? != a(1)?) as u64,
        OpKind::Lt => (a(0)? < a(1)?) as u64,
        OpKind::Le => (a(0)? <= a(1)?) as u64,
        OpKind::Gt => (a(0)? > a(1)?) as u64,
        OpKind::Ge => (a(0)? >= a(1)?) as u64,
        OpKind::Copy => a(0)?,
        OpKind::Select => {
            if a(0)? != 0 {
                a(1)?
            } else {
                a(2)?
            }
        }
        OpKind::Slice { hi, lo } => (a(0)? >> lo) & Type::Bits(hi - lo + 1).mask(),
        OpKind::Concat => {
            let low_width = args.get(1)?.ty().width();
            (a(0)? << low_width) | a(1)?
        }
        OpKind::ArrayRead { .. }
        | OpKind::ArrayWrite { .. }
        | OpKind::Call { .. }
        | OpKind::Return => return None,
    };
    Some(Constant::new(value, dest_ty))
}

/// Simplifies algebraic identities with one constant operand
/// (`x + 0`, `x * 1`, `x & 0`, `cond ? a : a`, ...). Returns the replacement
/// operand if the whole operation reduces to a single value.
fn simplify_identity(kind: &OpKind, args: &[Value]) -> Option<Value> {
    let const_of = |v: &Value| v.as_const();
    match kind {
        OpKind::Add | OpKind::Or | OpKind::Xor | OpKind::Shl | OpKind::Shr => {
            if const_of(&args[1]).map(|c| c.is_zero()).unwrap_or(false) {
                return Some(args[0]);
            }
            if matches!(kind, OpKind::Add | OpKind::Or | OpKind::Xor)
                && const_of(&args[0]).map(|c| c.is_zero()).unwrap_or(false)
            {
                return Some(args[1]);
            }
            None
        }
        OpKind::Sub => {
            if const_of(&args[1]).map(|c| c.is_zero()).unwrap_or(false) {
                return Some(args[0]);
            }
            None
        }
        OpKind::Mul => {
            for (this, other) in [(0usize, 1usize), (1, 0)] {
                if let Some(c) = const_of(&args[this]) {
                    if c.is_zero() {
                        return Some(Value::Const(c));
                    }
                    if c.value() == 1 {
                        return Some(args[other]);
                    }
                }
            }
            None
        }
        OpKind::And => {
            for (this, other) in [(0usize, 1usize), (1, 0)] {
                if let Some(c) = const_of(&args[this]) {
                    if c.is_zero() {
                        return Some(Value::Const(c));
                    }
                    let _ = other;
                }
            }
            None
        }
        OpKind::Select => {
            if let Some(c) = const_of(&args[0]) {
                return Some(if c.as_bool() { args[1] } else { args[2] });
            }
            if args[1] == args[2] {
                return Some(args[1]);
            }
            None
        }
        _ => None,
    }
}

/// Runs constant folding and propagation to a fixed point on `function`.
///
/// Stand-alone entry point: builds fresh analyses and seeds the worklist
/// with every live operation. Returns a [`Report`] with the number of folded
/// operations and forwarded constants.
pub fn constant_propagation(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    let seed = function.live_ops();
    let (report, _) = constant_propagation_seeded(function, &mut state, &seed);
    report
}

/// Worklist-driven constant folding and propagation over an incrementally
/// maintained [`FineState`].
///
/// The worklist is seeded with `seed` plus — for each seed operation with a
/// destination — the current readers of that destination, so passing the
/// operations a previous pass touched is sufficient to find every new
/// opportunity: folding depends only on an operation's own operands, and
/// forwarding only on the definition of an operand having become a constant
/// copy. Three confluent, monotone rewrites (operand → constant, operation →
/// `Copy`) drive the queue, so the fixed point equals the full-rescan
/// implementation's.
pub fn constant_propagation_seeded(
    function: &mut Function,
    state: &mut FineState,
    seed: &[OpId],
) -> (Report, EditLog) {
    let mut report = Report::new("constant-propagation", &function.name);
    report.set_invalidation(Invalidation::None);
    let FineState { graph, positions } = state;
    let mut rw = Rewriter::new(function, graph);

    let mut queue = OpQueue::default();
    for &op in seed {
        if rw.function().ops[op].dead {
            continue;
        }
        queue.push(op);
        if let Some(dest) = rw.function().ops[op].def() {
            for &user in rw.graph().uses_of(dest) {
                queue.push(user);
            }
        }
    }

    let mut changed = 0usize;
    while let Some(op_id) = queue.pop() {
        if rw.function().ops[op_id].dead {
            continue;
        }

        // --- Use-side forwarding: pull dominating single-def constants into
        // this operation's operands.
        for index in 0..rw.function().ops[op_id].args.len() {
            let Value::Var(var) = rw.function().ops[op_id].args[index] else {
                continue;
            };
            let defs = rw.graph().defs_of(var);
            if defs.len() != 1 || defs[0] == op_id {
                continue;
            }
            let def_op_id = defs[0];
            let def_op = &rw.function().ops[def_op_id];
            if !matches!(def_op.kind, OpKind::Copy) {
                continue;
            }
            let Some(constant) = def_op.args[0].as_const() else {
                continue;
            };
            // The copy narrows the constant to its destination's width, so
            // the forwarded constant takes that width too.
            let constant = Constant::new(constant.value(), rw.function().vars[var].ty);
            // A definition inside a loop body may execute many times; the
            // constant is still the same every time, so forwarding is safe.
            if positions.dominates(def_op_id, op_id)
                && rw.replace_operand(op_id, index, Value::Const(constant))
            {
                changed += 1;
            }
        }

        // --- Folding: rewrite the op if its operands are all constants, or
        // an algebraic identity collapses it to a single value.
        let op = rw.function().ops[op_id].clone();
        if !op.kind.has_side_effects() && !matches!(op.kind, OpKind::Copy) {
            if let Some(dest) = op.dest {
                let dest_ty = rw.function().vars[dest].ty;
                let folded = if op.args.iter().all(|a| a.is_const()) {
                    let consts: Vec<Constant> =
                        op.args.iter().map(|a| a.as_const().unwrap()).collect();
                    fold_constants(&op.kind, &consts, dest_ty).map(Value::Const)
                } else {
                    None
                };
                let replacement = folded.or_else(|| {
                    if op.args.len() >= 2 || matches!(op.kind, OpKind::Select) {
                        simplify_identity(&op.kind, &op.args)
                    } else {
                        None
                    }
                });
                if let Some(replacement) = replacement {
                    rw.rewrite_op(op_id, OpKind::Copy, vec![replacement]);
                    changed += 1;
                }
            }
        }

        // --- Def-side forwarding: if this op is (or just became) a constant
        // copy with a single-def destination, push the constant into every
        // dominated use and requeue those uses (they may fold in turn).
        let op = &rw.function().ops[op_id];
        if matches!(op.kind, OpKind::Copy) {
            if let (Some(dest), Some(constant)) = (op.dest, op.args[0].as_const()) {
                if rw.graph().has_single_def(dest) {
                    let constant = Constant::new(constant.value(), rw.function().vars[dest].ty);
                    let users: Vec<OpId> = rw.graph().uses_of(dest).to_vec();
                    for use_op in users {
                        if use_op == op_id || !positions.dominates(op_id, use_op) {
                            continue;
                        }
                        let mut rewrote = false;
                        for index in 0..rw.function().ops[use_op].args.len() {
                            if rw.function().ops[use_op].args[index] == Value::Var(dest)
                                && rw.replace_operand(use_op, index, Value::Const(constant))
                            {
                                changed += 1;
                                rewrote = true;
                            }
                        }
                        if rewrote {
                            queue.push(use_op);
                        }
                    }
                }
            }
        }
    }

    report.add(changed);
    let effects = rw.finish();
    state.debug_check(function);
    (report, effects)
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
        // t is 1 bit wide, so `t = 200` stores 0 and `s = t + 0` reads 0.
        // Both forwarding sites must narrow the constant: the def side when
        // the copy is examined first, the use side when only the reader is.
        let build = || {
            let mut b = FunctionBuilder::new("f");
            let t = b.var("t", Type::Bits(1));
            let s = b.output("s", Type::Bits(8));
            let copy = b.copy(t, Value::word(200));
            let add = b.assign(OpKind::Add, s, vec![Value::Var(t), Value::word(0)]);
            (b.finish(), copy, add)
        };
        let (mut def_side, copy, add) = build();
        let mut state = FineState::new(&def_side);
        constant_propagation_seeded(&mut def_side, &mut state, &[copy]);
        let (mut use_side, _, _) = build();
        let mut state = FineState::new(&use_side);
        constant_propagation_seeded(&mut use_side, &mut state, &[add]);
        for f in [def_side, use_side] {
            assert_eq!(f.ops[add].kind, OpKind::Copy, "{f}");
            assert_eq!(f.ops[add].args[0].as_const().unwrap().value(), 0, "{f}");
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

    #[test]
    fn fold_constants_covers_all_pure_kinds() {
        let c = |v: u64| Constant::word(v);
        let t = Type::Bits(32);
        assert_eq!(
            fold_constants(&OpKind::Sub, &[c(5), c(3)], t)
                .unwrap()
                .value(),
            2
        );
        assert_eq!(
            fold_constants(&OpKind::And, &[c(0b1100), c(0b1010)], t)
                .unwrap()
                .value(),
            0b1000
        );
        assert_eq!(
            fold_constants(&OpKind::Or, &[c(0b1100), c(0b1010)], t)
                .unwrap()
                .value(),
            0b1110
        );
        assert_eq!(
            fold_constants(&OpKind::Xor, &[c(0b1100), c(0b1010)], t)
                .unwrap()
                .value(),
            0b0110
        );
        assert_eq!(
            fold_constants(&OpKind::Shl, &[c(1), c(4)], t)
                .unwrap()
                .value(),
            16
        );
        assert_eq!(
            fold_constants(&OpKind::Shr, &[c(16), c(4)], t)
                .unwrap()
                .value(),
            1
        );
        assert_eq!(
            fold_constants(&OpKind::Lt, &[c(1), c(2)], Type::Bool)
                .unwrap()
                .value(),
            1
        );
        assert_eq!(
            fold_constants(&OpKind::Ge, &[c(1), c(2)], Type::Bool)
                .unwrap()
                .value(),
            0
        );
        assert_eq!(
            fold_constants(&OpKind::Slice { hi: 3, lo: 2 }, &[c(0b1100)], Type::Bits(2))
                .unwrap()
                .value(),
            0b11
        );
        assert!(fold_constants(&OpKind::Return, &[c(1)], t).is_none());
    }
}
