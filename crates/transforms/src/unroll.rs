//! Loop unrolling.
//!
//! For microprocessor functional blocks, loops are "only a programming
//! convenience and latency constraints generally dictate the amount of
//! unrolling" (Section 3 of the paper). A design targeted at a single cycle
//! must have its loops unrolled completely (Figures 2 and 13). Each unrolled
//! iteration receives a fresh copy of the loop index initialised to the
//! iteration's constant value, so that the subsequent propagation pass
//! can eliminate the index exactly as in Figures 3 and 14.

use std::collections::BTreeMap;

use spark_ir::{Constant, Function, HtgNode, LoopKind, NodeId, OpKind, RegionId, Value, Var};

use crate::report::Report;

/// Hard limit on the number of iterations a single loop may be expanded to.
/// The ILD buffer sizes explored in the paper's domain are a few tens of
/// bytes; the limit only guards against run-away expansion.
const MAX_UNROLL_ITERATIONS: u64 = 4096;

/// Hard limit on the operations full unrolling may leave in one function:
/// each constant-bound loop counts its trip count times its body (plus one
/// index copy per iteration), summed over nested loops. Nested loops can
/// pass [`MAX_UNROLL_ITERATIONS`] one by one and still multiply to millions
/// of copies, while the ILD at n=128 unrolls to 7,041 operations.
const MAX_UNROLLED_OPS: u64 = 1 << 16;

/// Why a loop could not be unrolled. [`unroll_all_loops`] skips the loops
/// it cannot unroll and fails only on the two limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnrollError {
    /// The loop bound is not a compile-time constant and no trip bound was
    /// supplied.
    NonConstantBound,
    /// The loop would expand to more than 4,096 iterations.
    TooManyIterations(u64),
    /// The node is not a loop.
    NotALoop,
    /// Unrolling every loop would leave more than 65,536 operations in the
    /// function.
    OverBudget(u64),
}

impl std::fmt::Display for UnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrollError::NonConstantBound => write!(f, "loop bound is not a constant"),
            UnrollError::TooManyIterations(n) => {
                write!(
                    f,
                    "loop would unroll to {n} iterations (limit {MAX_UNROLL_ITERATIONS})"
                )
            }
            UnrollError::NotALoop => write!(f, "node is not a loop"),
            UnrollError::OverBudget(ops) => write!(
                f,
                "unrolling every loop would leave {ops} operations (limit {MAX_UNROLLED_OPS})"
            ),
        }
    }
}

/// Computes the trip count of a `for` loop with constant bounds.
fn trip_count(start: Constant, end: Constant, step: i64) -> u64 {
    let start = start.value() as i64;
    let end = end.value() as i64;
    if step > 0 {
        if end < start {
            0
        } else {
            ((end - start) / step + 1) as u64
        }
    } else if step < 0 {
        if start < end {
            0
        } else {
            ((start - end) / (-step) + 1) as u64
        }
    } else {
        0
    }
}

/// Fully unrolls the loop at `loop_node`.
///
/// The loop must be a `for` loop whose bound is a constant. Each iteration
/// body is cloned with the loop index replaced by a fresh per-iteration
/// variable, initialised by an explicit constant copy (Figure 13); the
/// constants are *not* substituted into uses here — that is constant
/// propagation's job (Figure 14), keeping the two stages separately
/// observable as in the paper.
///
/// # Errors
/// Returns [`UnrollError`] if the node is not a `for` loop with constant
/// bounds. The trip count is checked by [`unrolled_size`] beforehand.
fn unroll_loop_fully(function: &mut Function, loop_node: NodeId) -> Result<Report, UnrollError> {
    let mut report = Report::new("loop-unroll", &function.name);
    let HtgNode::Loop(loop_data) = function.nodes[loop_node].clone() else {
        return Err(UnrollError::NotALoop);
    };
    let LoopKind::For {
        index,
        start,
        end,
        step,
    } = loop_data.kind
    else {
        return Err(UnrollError::NonConstantBound);
    };
    let Some(end_const) = end.as_const() else {
        return Err(UnrollError::NonConstantBound);
    };
    let iterations = trip_count(start, end_const, step);

    // Locate the loop node in its parent region.
    let parent = function
        .regions
        .iter()
        .find_map(|(region_id, region)| {
            region
                .nodes
                .iter()
                .position(|&n| n == loop_node)
                .map(|idx| (region_id, idx))
        })
        .ok_or(UnrollError::NotALoop)?;
    let (parent_region, position) = parent;

    let index_ty = function.vars[index].ty;
    let mut replacement: Vec<NodeId> = Vec::new();
    for k in 0..iterations {
        let value = (start.value() as i64 + k as i64 * step) as u64;
        // Fresh index variable for this iteration, with an explicit constant
        // initialisation so the intermediate state matches Figure 13.
        let iter_index = function.add_var(Var::register(
            format!("{}_{}", function.vars[index].name, k + 1),
            index_ty,
        ));
        let init_block =
            function.add_block(format!("unroll_{}_{}", function.vars[index].name, k + 1));
        function.push_op(
            init_block,
            OpKind::Copy,
            Some(iter_index),
            vec![Value::Const(Constant::new(value, index_ty))],
        );
        replacement.push(function.add_block_node(init_block));

        let mut var_map = BTreeMap::new();
        var_map.insert(index, iter_index);
        let body_clone = function.clone_region_mapped(loop_data.body, &var_map);
        let cloned_nodes = function.regions[body_clone].nodes.clone();
        replacement.extend(cloned_nodes);
    }

    let nodes = &mut function.regions[parent_region].nodes;
    nodes.remove(position);
    let mut rest = nodes.split_off(position);
    nodes.extend(replacement);
    nodes.append(&mut rest);

    report.add(iterations as usize);
    report.note(format!(
        "unrolled loop over `{}` into {iterations} iteration(s)",
        function.vars[index].name
    ));
    Ok(report)
}

/// Returns every loop node currently reachable from the function body, in
/// pre-order.
fn reachable_loops(function: &Function) -> Vec<NodeId> {
    fn walk(function: &Function, region: RegionId, out: &mut Vec<NodeId>) {
        for &node in &function.regions[region].nodes {
            match &function.nodes[node] {
                HtgNode::Block(_) => {}
                HtgNode::If(i) => {
                    walk(function, i.then_region, out);
                    walk(function, i.else_region, out);
                }
                HtgNode::Loop(l) => {
                    out.push(node);
                    walk(function, l.body, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(function, function.body, &mut out);
    out
}

/// Operations left in `region` once every constant-bound `for` loop in it
/// is fully unrolled: such a loop counts its trip count times its body plus
/// one index copy per iteration, any other loop its body once.
///
/// # Errors
/// Returns [`UnrollError::TooManyIterations`] for a loop whose trip count
/// exceeds [`MAX_UNROLL_ITERATIONS`].
fn unrolled_size(function: &Function, region: RegionId) -> Result<u64, UnrollError> {
    let mut ops = 0u64;
    for &node in &function.regions[region].nodes {
        let size = match &function.nodes[node] {
            HtgNode::Block(b) => {
                let live = function.blocks[*b].ops.iter();
                live.filter(|&&op| !function.ops[op].dead).count() as u64
            }
            HtgNode::If(i) => unrolled_size(function, i.then_region)?
                .saturating_add(unrolled_size(function, i.else_region)?),
            HtgNode::Loop(l) => {
                let body = unrolled_size(function, l.body)?;
                match l.kind {
                    LoopKind::For {
                        start,
                        end: Value::Const(end),
                        step,
                        ..
                    } => {
                        let iterations = trip_count(start, end, step);
                        if iterations > MAX_UNROLL_ITERATIONS {
                            return Err(UnrollError::TooManyIterations(iterations));
                        }
                        iterations.saturating_mul(body.saturating_add(1))
                    }
                    _ => body,
                }
            }
        };
        ops = ops.saturating_add(size);
    }
    Ok(ops)
}

/// Fully unrolls every `for` loop with constant bounds, repeatedly, until no
/// such loop remains (unrolling an outer loop may expose copies of inner
/// loops). Loops that cannot be unrolled are skipped and noted.
///
/// # Errors
/// Before changing anything, returns [`UnrollError::TooManyIterations`]
/// when a loop would expand to more than 4,096 iterations and
/// [`UnrollError::OverBudget`] when the unrolled function would hold more
/// than 65,536 operations: the trip count times the body, summed over
/// nested loops.
pub fn unroll_all_loops(function: &mut Function) -> Result<Report, UnrollError> {
    let ops = unrolled_size(function, function.body)?;
    if ops > MAX_UNROLLED_OPS {
        return Err(UnrollError::OverBudget(ops));
    }
    let mut report = Report::new("loop-unroll-all", &function.name);
    for _round in 0..64 {
        let loops = reachable_loops(function);
        let mut progressed = false;
        for node in loops {
            // The node may already have been detached by an enclosing unroll.
            if !reachable_loops(function).contains(&node) {
                continue;
            }
            match unroll_loop_fully(function, node) {
                Ok(r) => {
                    report.add(r.changes);
                    for n in r.notes {
                        report.note(n);
                    }
                    progressed = true;
                }
                Err(e) => report.note(format!("skipped loop: {e}")),
            }
        }
        if !progressed {
            break;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::propagation;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Program, Type};

    /// The synthetic example of Figure 2: a loop computing r1(i) = Op1(i) and
    /// r2(i) = Op2(i, r1(i)).
    fn figure2_function(n: u64) -> Function {
        let mut b = FunctionBuilder::new("fig2");
        let input = b.param_array("in", Type::Bits(32), (n + 1) as u32);
        let r1 = b.array("r1", Type::Bits(32), (n + 1) as u32);
        let r2 = b.output_array("r2", Type::Bits(32), (n + 1) as u32);
        let i = b.var("i", Type::Bits(32));
        let t = b.var("t", Type::Bits(32));
        let u = b.var("u", Type::Bits(32));
        let v = b.var("v", Type::Bits(32));
        b.for_begin(i, 0, Value::word(n - 1), 1);
        // r1[i] = in[i] + i       (Op1)
        b.array_read(t, input, Value::Var(i));
        b.assign(OpKind::Add, u, vec![Value::Var(t), Value::Var(i)]);
        b.array_write(r1, Value::Var(i), Value::Var(u));
        // r2[i] = r1[i] * 2       (Op2)
        b.array_read(v, r1, Value::Var(i));
        let d = b.compute(
            OpKind::Mul,
            Type::Bits(32),
            vec![Value::Var(v), Value::word(2)],
        );
        b.array_write(r2, Value::Var(i), Value::Var(d));
        b.loop_end();
        b.finish()
    }

    #[test]
    fn full_unroll_preserves_semantics() {
        let n = 8u64;
        let original = figure2_function(n);
        let mut unrolled = original.clone();
        let report = unroll_all_loops(&mut unrolled).unwrap();
        assert!(report.changes as u64 >= n);
        assert_eq!(unrolled.loop_count(), 0, "no loops remain");
        verify(&unrolled).expect("unrolled function is well formed");

        let mut p_before = Program::new();
        p_before.add_function(original);
        let mut p_after = Program::new();
        p_after.add_function(unrolled);
        let data: Vec<u64> = (0..=n).map(|x| x * 3 + 1).collect();
        let env = Env::new().with_array("in", data);
        let before = Interpreter::new(&p_before).run("fig2", &env).unwrap();
        let after = Interpreter::new(&p_after).run("fig2", &env).unwrap();
        assert_eq!(before.array("r2"), after.array("r2"));
    }

    #[test]
    fn unroll_then_const_prop_eliminates_index_uses() {
        let mut f = figure2_function(4);
        unroll_all_loops(&mut f).unwrap();
        propagation(&mut f);
        // After constant propagation no live op should read any of the
        // per-iteration index variables (they are only written, and DCE would
        // remove them next).
        for op in f.live_ops() {
            for used in f.ops[op].uses() {
                let name = &f.vars[used].name;
                assert!(
                    !name.starts_with("i_"),
                    "index variable `{name}` still read"
                );
            }
        }
    }

    #[test]
    fn op_count_scales_with_trip_count() {
        let original = figure2_function(4);
        let per_iteration = {
            // ops inside the loop body
            original.live_op_count()
        };
        let mut unrolled = original.clone();
        unroll_all_loops(&mut unrolled).unwrap();
        // Each iteration adds the body ops plus one index initialisation.
        assert_eq!(unrolled.live_op_count(), 4 * (per_iteration + 1));
    }

    #[test]
    fn non_constant_bound_is_rejected() {
        let mut b = FunctionBuilder::new("f");
        let n = b.param("n", Type::Bits(32));
        let i = b.var("i", Type::Bits(32));
        let acc = b.var("acc", Type::Bits(32));
        b.for_begin(i, 0, Value::Var(n), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
        b.loop_end();
        let mut f = b.finish();
        let loops = reachable_loops(&f);
        let err = unroll_loop_fully(&mut f, loops[0]).unwrap_err();
        assert_eq!(err, UnrollError::NonConstantBound);
        // unroll_all_loops records the skip but does not fail.
        let report = unroll_all_loops(&mut f).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("skipped")));
    }

    #[test]
    fn excessive_trip_count_is_rejected() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(32));
        let acc = b.var("acc", Type::Bits(32));
        b.for_begin(i, 0, Value::word(100_000), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
        b.loop_end();
        let mut f = b.finish();
        let err = unroll_all_loops(&mut f).unwrap_err();
        assert_eq!(err, UnrollError::TooManyIterations(100_001));
        assert_eq!(f.loop_count(), 1, "nothing was unrolled");
    }

    #[test]
    fn nested_loops_past_the_op_budget_are_rejected() {
        // Each loop passes the per-loop limit; together they would make
        // 16M copies of the body.
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(32));
        let j = b.var("j", Type::Bits(32));
        let acc = b.var("acc", Type::Bits(32));
        b.for_begin(i, 1, Value::word(4000), 1);
        b.for_begin(j, 1, Value::word(4000), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(j)]);
        b.loop_end();
        b.loop_end();
        let mut f = b.finish();
        let err = unroll_all_loops(&mut f).unwrap_err();
        assert_eq!(err, UnrollError::OverBudget(4000 * (4000 * 2 + 1)));
        assert!(err.to_string().contains("limit 65536"), "{err}");
        assert_eq!(f.loop_count(), 2, "nothing was unrolled");
    }

    #[test]
    fn unrolled_size_predicts_the_unrolled_op_count() {
        let mut b = FunctionBuilder::new("nested");
        let i = b.var("i", Type::Bits(32));
        let j = b.var("j", Type::Bits(32));
        let acc = b.output("acc", Type::Bits(32));
        b.copy(acc, Value::word(0));
        b.for_begin(i, 1, Value::word(3), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
        b.for_begin(j, 1, Value::word(2), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(j)]);
        b.loop_end();
        b.loop_end();
        for mut f in [b.finish(), figure2_function(4)] {
            let predicted = unrolled_size(&f, f.body).unwrap();
            unroll_all_loops(&mut f).unwrap();
            assert_eq!(predicted, f.live_op_count() as u64);
        }
    }

    #[test]
    fn zero_trip_loop_unrolls_to_nothing() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(32));
        let acc = b.output("acc", Type::Bits(32));
        b.copy(acc, Value::word(7));
        b.for_begin(i, 5, Value::word(1), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
        b.loop_end();
        let mut f = b.finish();
        unroll_all_loops(&mut f).unwrap();
        assert_eq!(f.loop_count(), 0);
        assert_eq!(f.live_op_count(), 1, "only the initial copy remains");
    }

    #[test]
    fn nested_loops_unroll_completely() {
        let mut b = FunctionBuilder::new("nested");
        let i = b.var("i", Type::Bits(32));
        let j = b.var("j", Type::Bits(32));
        let acc = b.output("acc", Type::Bits(32));
        b.copy(acc, Value::word(0));
        b.for_begin(i, 1, Value::word(3), 1);
        b.for_begin(j, 1, Value::word(2), 1);
        b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(j)]);
        b.loop_end();
        b.loop_end();
        let f0 = b.finish();
        let mut f = f0.clone();
        unroll_all_loops(&mut f).unwrap();
        assert_eq!(f.loop_count(), 0);
        verify(&f).expect("well formed");
        let mut p0 = Program::new();
        p0.add_function(f0);
        let mut p1 = Program::new();
        p1.add_function(f);
        let a = Interpreter::new(&p0).run("nested", &Env::new()).unwrap();
        let b_ = Interpreter::new(&p1).run("nested", &Env::new()).unwrap();
        assert_eq!(a.scalar("acc"), b_.scalar("acc"));
        assert_eq!(a.scalar("acc"), Some(9));
    }

    #[test]
    fn trip_count_arithmetic() {
        let c = |v: u64| Constant::word(v);
        assert_eq!(trip_count(c(1), c(8), 1), 8);
        assert_eq!(trip_count(c(0), c(7), 2), 4);
        assert_eq!(trip_count(c(5), c(4), 1), 0);
        assert_eq!(trip_count(c(8), c(1), -1), 8);
        assert_eq!(trip_count(c(1), c(1), 1), 1);
        assert_eq!(trip_count(c(1), c(8), 0), 0);
    }
}
