//! Constant folding, constant propagation and copy propagation, as one pass.
//!
//! After a loop is fully unrolled, the initial assignment of the loop index
//! can be propagated as a constant through all the unrolled iterations,
//! eliminating the index variable entirely (Figures 3 and 14 of the paper).
//! The speculation and wire-variable passes introduce many variable copies
//! (`Length = TempLength1;`, `o1 = t1;`); forwarding their sources to the
//! dominated uses lets a following dead-code elimination delete them. The
//! paper lists copy propagation among the "standard compiler
//! transformations" that support the coarse-grain ones (Section 3).
//!
//! Both are one rule here: a single-definition copy pushes its source, a
//! constant or a variable, into every reader it dominates. Folding an
//! operation whose operands are all constants, or collapsing an algebraic
//! identity, turns it into such a copy.

use spark_ir::{Constant, DefUseGraph, Function, OpId, OpKind, Operation, Rewriter, Value, VarId};

use crate::fine::{FineState, OpQueue};
use crate::position::Positions;
use crate::report::Report;

/// Runs folding and propagation to a fixed point on `function`.
///
/// Stand-alone entry point: builds fresh analyses and runs
/// [`propagation_with`] with folding on. Returns a [`Report`] with the
/// number of rewritten operations and forwarded operands.
///
/// A copy `x = y` is forwarded to a use of `x` when:
/// * `x` has exactly one live definition (the copy itself),
/// * the copy structurally dominates the use,
/// * `y` is never redefined (a constant, a variable with a single definition
///   that dominates the copy, or one defined only as a parameter/primary
///   input), so its value at the use site equals its value at the copy
///   site, and
/// * the copy is lossless: `y` is a variable no wider than `x`, or a
///   constant, which is forwarded narrowed to `x`'s width. A narrowing copy
///   of a variable truncates, so reading `y` in place of `x` would change
///   the value. A concatenation's low operand also needs `y` exactly as
///   wide as `x`, because its width sets the shift of the high operand.
pub fn propagation(function: &mut Function) -> Report {
    let mut state = FineState::new(function);
    propagation_with(function, &mut state, true)
}

/// Worklist-driven folding and propagation over an incrementally maintained
/// [`FineState`].
///
/// The worklist starts from every live operation, in program order. Each
/// operation is first simplified: with `fold`, it is folded to a constant
/// when its operands are all constants, or collapsed to a copy of one
/// operand by an algebraic identity; without it, only a select whose arms
/// are equal (`c ? a : a`) becomes a copy of the arm. Then, if the operation
/// is a forwardable copy, its source is pushed into every dominated reader
/// (the def side), which requeues the reader. A definition precedes every
/// reader it dominates, so a rewritten reader is still queued and is
/// visited after every push it can receive; the requeue keeps that true
/// for any start order. The rewrites are confluent and monotone, so the
/// fixed point equals a full rescan's.
pub fn propagation_with(function: &mut Function, state: &mut FineState, fold: bool) -> Report {
    let mut report = Report::new("propagation", &function.name);
    let FineState { graph, positions } = state;
    let mut queue = OpQueue::of(function.live_ops());
    let mut rw = Rewriter::new(function, graph);

    let mut changed = 0usize;
    while let Some(op_id) = queue.pop() {
        let op = &rw.function().ops[op_id];
        if op.dead {
            continue;
        }

        // --- Simplification: rewrite the op to a copy of the one value it
        // reduces to, if any.
        let replacement = if fold {
            fold_op(rw.function(), op)
        } else {
            select_of_equal_arms(&op.kind, &op.args)
        };
        if let Some(replacement) = replacement {
            rw.rewrite_op(op_id, OpKind::Copy, vec![replacement]);
            changed += 1;
        }

        // --- Forwarding: if this op is (or just became) a copy with a
        // single-def destination and a stable source, push the source into
        // every dominated reader. The copy narrows a constant to its
        // destination's width, so the forwarded constant takes that width.
        // A definition inside a loop body may execute many times; its value
        // is the same every time, so forwarding is safe.
        let op = &rw.function().ops[op_id];
        let (OpKind::Copy, Some(dest)) = (&op.kind, op.dest) else {
            continue;
        };
        let source = match op.args[0] {
            Value::Const(c) => Value::Const(Constant::new(c.value(), rw.function().vars[dest].ty)),
            var => var,
        };
        if rw.graph().has_single_def(dest) && stable(rw.graph(), positions, source, op_id) {
            changed += push_to_readers(&mut rw, positions, &mut queue, op_id, dest, source);
        }
    }

    report.add(changed);
    state.debug_check(function);
    report
}

/// What `op` folds to: the constant it computes when its operands are all
/// constants, else the single operand an algebraic identity reduces it to.
fn fold_op(function: &Function, op: &Operation) -> Option<Value> {
    let dest = op.dest?;
    if op.kind.has_side_effects() || op.kind == OpKind::Copy {
        return None;
    }
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
/// so it applies with folding off too, where a forwarding makes two arms
/// equal.
fn select_of_equal_arms(kind: &OpKind, args: &[Value]) -> Option<Value> {
    if matches!(kind, OpKind::Select) && args[1] == args[2] {
        Some(args[1])
    } else {
        None
    }
}

/// Whether `source` has the same value at every reader `copy` dominates as
/// at `copy`: a constant, or a variable with no definition (an input) or a
/// single definition that dominates the copy.
fn stable(graph: &DefUseGraph, positions: &Positions, source: Value, copy: OpId) -> bool {
    match source {
        Value::Const(_) => true,
        Value::Var(src) => match graph.defs_of(src) {
            [] => true,
            [def] => positions.dominates(*def, copy),
            _ => false,
        },
    }
}

/// Forwards `value` from `def`, the single definition of `dest`, into every
/// operand that reads `dest` in an operation `def` dominates and that may
/// read `value` instead ([`lossless`]), and requeues each rewritten reader.
/// Returns the number of operands replaced.
fn push_to_readers(
    rw: &mut Rewriter<'_>,
    positions: &Positions,
    queue: &mut OpQueue,
    def: OpId,
    dest: VarId,
    value: Value,
) -> usize {
    let mut changed = 0;
    let readers: Vec<OpId> = rw.graph().uses_of(dest).to_vec();
    for reader in readers {
        if reader == def || !positions.dominates(def, reader) {
            continue;
        }
        let mut rewrote = false;
        for index in 0..rw.function().ops[reader].args.len() {
            if rw.function().ops[reader].args[index] == Value::Var(dest)
                && lossless(rw.function(), dest, value, reader, index)
                && rw.replace_operand(reader, index, value)
            {
                changed += 1;
                rewrote = true;
            }
        }
        if rewrote {
            queue.push(reader);
        }
    }
    changed
}

/// Returns `true` if operand `index` of `reader`, which reads the copy
/// `dest = source`, may read `source` instead: the copy keeps every bit of
/// `source`, and the reader sees the same value either way. A constant
/// narrowed to `dest`'s width always passes.
fn lossless(function: &Function, dest: VarId, source: Value, reader: OpId, index: usize) -> bool {
    let ty = function.vars[dest].ty;
    let source_width = match source {
        Value::Const(c) if c.value() & ty.mask() == c.value() => c.ty().width(),
        Value::Var(src) if function.vars[src].ty.width() <= ty.width() => {
            function.vars[src].ty.width()
        }
        _ => return false,
    };
    // A concatenation shifts its high operand by the width of its low one.
    function.ops[reader].kind != OpKind::Concat || index != 1 || source_width == ty.width()
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
        let report = propagation(&mut f);
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
        propagation(&mut f);
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
        propagation(&mut f);
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
        propagation(&mut f);
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
            propagation(&mut f);
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
        propagation(&mut transformed);
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
    fn forwards_simple_copy_chain() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.var("out", Type::Bits(8));
        b.copy(t1, Value::Var(a));
        b.copy(t2, Value::Var(t1));
        b.assign(OpKind::Add, out, vec![Value::Var(t2), Value::word(1)]);
        let mut f = b.finish();
        let report = propagation(&mut f);
        assert!(report.changes >= 2);
        let ops = f.live_ops();
        let add = &f.ops[*ops.last().unwrap()];
        assert_eq!(add.args[0], Value::Var(a));
    }

    #[test]
    fn does_not_forward_unstable_source() {
        // x = y; y = y + 1; z = x  -- x must keep reading the old y.
        let mut b = FunctionBuilder::new("f");
        let y = b.var("y", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        b.copy(y, Value::word(1));
        b.copy(x, Value::Var(y));
        b.assign(OpKind::Add, y, vec![Value::Var(y), Value::word(1)]);
        b.copy(z, Value::Var(x));
        let mut f = b.finish();
        propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        // z must still read x because y was redefined in between.
        assert_eq!(last.args[0], Value::Var(x));
    }

    #[test]
    fn does_not_forward_out_of_conditional() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let z = b.var("z", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::Var(a));
        b.if_end();
        b.copy(z, Value::Var(x));
        let mut f = b.finish();
        propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        assert_eq!(last.args[0], Value::Var(x));
    }

    #[test]
    fn forwards_constants_through_copies() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.copy(x, Value::word(7));
        b.copy(y, Value::Var(x));
        let mut f = b.finish();
        propagation(&mut f);
        let ops = f.live_ops();
        let last = &f.ops[*ops.last().unwrap()];
        assert_eq!(last.args[0].as_const().unwrap().value(), 7);
    }

    #[test]
    fn does_not_forward_through_a_narrowing_copy() {
        // u8 b = y (u16); r = b + 1 -- reading y would skip the truncation.
        let mut b = FunctionBuilder::new("f");
        let y = b.param("y", Type::Bits(16));
        let narrow = b.var("b", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(narrow, Value::Var(y));
        let add = b.assign(OpKind::Add, r, vec![Value::Var(narrow), Value::word(1)]);
        let mut f = b.finish();
        let report = propagation(&mut f);
        assert_eq!(report.changes, 0);
        assert_eq!(f.ops[add].args[0], Value::Var(narrow));
    }

    #[test]
    fn forwards_widening_copies_and_narrowed_constants() {
        let mut b = FunctionBuilder::new("f");
        let y = b.param("y", Type::Bits(8));
        let wide = b.var("wide", Type::Bits(16));
        let fits = b.var("fits", Type::Bits(8));
        let truncated = b.var("truncated", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(wide, Value::Var(y));
        b.copy(fits, Value::word(255));
        b.copy(truncated, Value::word(256));
        let sum = b.assign(OpKind::Add, r, vec![Value::Var(wide), Value::Var(fits)]);
        let again = b.assign(OpKind::Add, r, vec![Value::Var(r), Value::Var(truncated)]);
        let mut f = b.finish();
        propagation(&mut f);
        let u8_const = |v| Value::Const(Constant::new(v, Type::Bits(8)));
        assert_eq!(f.ops[sum].args, vec![Value::Var(y), u8_const(255)]);
        // `truncated` holds 256 & 0xff; `r + 0` then collapses to a copy.
        assert_eq!(f.ops[again].kind, OpKind::Copy);
        assert_eq!(f.ops[again].args, vec![Value::Var(r)]);
    }

    #[test]
    fn concat_low_operand_needs_an_equal_width_source() {
        // {h, w} shifts h by the width of w, so a u4 source cannot stand in
        // for the u8 copy even though the copy is lossless.
        let mut b = FunctionBuilder::new("f");
        let h = b.param("h", Type::Bits(4));
        let n = b.param("n", Type::Bits(4));
        let w = b.var("w", Type::Bits(8));
        let r = b.output("r", Type::Bits(16));
        b.copy(w, Value::Var(n));
        let cat = b.assign(OpKind::Concat, r, vec![Value::Var(h), Value::Var(w)]);
        let mut f = b.finish();
        propagation(&mut f);
        assert_eq!(f.ops[cat].args[1], Value::Var(w));
    }

    #[test]
    fn a_select_whose_arms_become_equal_is_forwarded_as_a_copy() {
        // t = a; x = c ? a : t; out = x + 1 -- forwarding t leaves
        // `c ? a : a`, which is a copy of a, and a then reaches the add.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.copy(t, Value::Var(a));
        let select = b.assign(
            OpKind::Select,
            x,
            vec![Value::Var(c), Value::Var(a), Value::Var(t)],
        );
        let add = b.assign(OpKind::Add, out, vec![Value::Var(x), Value::word(1)]);
        let mut f = b.finish();
        let report = propagation(&mut f);
        assert_eq!(
            report.changes, 3,
            "t into the select, select to copy, a into the add"
        );
        assert_eq!(f.ops[select].kind, OpKind::Copy);
        assert_eq!(f.ops[select].args, vec![Value::Var(a)]);
        assert_eq!(f.ops[add].args[0], Value::Var(a));
    }

    #[test]
    fn without_folding_only_copies_and_equal_arm_selects_change() {
        // s = 2 + 3 stays an add; the variable copy t = a and the constant
        // copy k = 9 are still forwarded, and `c ? a : t` becomes a copy.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let s = b.output("s", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let k = b.var("k", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        let sum = b.assign(OpKind::Add, s, vec![Value::word(2), Value::word(3)]);
        b.copy(t, Value::Var(a));
        b.copy(k, Value::word(9));
        let select = b.assign(
            OpKind::Select,
            x,
            vec![Value::Var(c), Value::Var(a), Value::Var(t)],
        );
        let add = b.assign(OpKind::Add, out, vec![Value::Var(x), Value::Var(k)]);
        let mut f = b.finish();
        let mut state = FineState::new(&f);
        propagation_with(&mut f, &mut state, false);
        assert_eq!(f.ops[sum].kind, OpKind::Add, "{f}");
        assert_eq!(f.ops[select].kind, OpKind::Copy, "{f}");
        assert_eq!(f.ops[select].args, vec![Value::Var(a)]);
        assert_eq!(f.ops[add].kind, OpKind::Add, "{f}");
        assert_eq!(f.ops[add].args[0], Value::Var(a));
        assert_eq!(f.ops[add].args[1].as_const().unwrap().value(), 9);
    }

    #[test]
    fn propagation_after_cse_forwards_its_copy() {
        // CSE turns the repeated `t2 = a + c` into `t2 = t1`; propagation
        // run after it forwards `t1` into `out = t2 + 1`, and DCE then
        // deletes the copy.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bits(8));
        let t1 = b.var("t1", Type::Bits(8));
        let t2 = b.var("t2", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        let o1 = b.output("o1", Type::Bits(8));
        b.assign(OpKind::Add, t1, vec![Value::Var(a), Value::Var(c)]);
        b.copy(o1, Value::Var(t1));
        let repeat = b.assign(OpKind::Add, t2, vec![Value::Var(a), Value::Var(c)]);
        let last = b.assign(OpKind::Add, out, vec![Value::Var(t2), Value::word(1)]);
        let mut f = b.finish();

        let mut state = FineState::new(&f);
        assert!(propagation_with(&mut f, &mut state, true).is_noop());
        let cse = crate::common_subexpression_elimination_with(&mut f, &mut state);
        assert_eq!(cse.changes, 1);
        assert_eq!(f.ops[repeat].kind, OpKind::Copy);
        let report = propagation_with(&mut f, &mut state, true);
        assert_eq!(report.changes, 1);
        assert_eq!(f.ops[last].args[0], Value::Var(t1));
        crate::dead_code_elimination_with(&mut f, &mut state);
        assert!(f.ops[repeat].dead);
    }

    #[test]
    fn propagation_after_cse_reduces_the_select_it_makes_equal() {
        // s = a + b; t = a + b; x = c ? t : s -- CSE makes t a copy of s,
        // forwarding it gives `c ? s : s`, and that is a copy of s.
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let d = b.param("d", Type::Bits(8));
        let s = b.var("s", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let x = b.output("x", Type::Bits(8));
        b.assign(OpKind::Add, s, vec![Value::Var(a), Value::Var(d)]);
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::Var(d)]);
        let select = b.assign(
            OpKind::Select,
            x,
            vec![Value::Var(c), Value::Var(t), Value::Var(s)],
        );
        let mut f = b.finish();

        let mut state = FineState::new(&f);
        crate::common_subexpression_elimination_with(&mut f, &mut state);
        propagation_with(&mut f, &mut state, true);
        assert_eq!(f.ops[select].kind, OpKind::Copy);
        assert_eq!(f.ops[select].args, vec![Value::Var(s)]);
    }
}
