//! Complementary code motions: reverse speculation, conditional speculation
//! and early condition execution.
//!
//! The paper cites these motions (developed in the authors' earlier work
//! [9, 14]) as part of the coordinated tool-box. They move operations *into*
//! conditional branches (reverse speculation / conditional speculation, to
//! shorten paths that do not need the result and to improve resource
//! sharing) and move condition computations as early as possible (early
//! condition execution, so branches can be resolved sooner).

use std::collections::BTreeSet;

use spark_ir::{DefUseGraph, Function, HtgNode, OpId, RegionId, Value};

use crate::report::Report;

/// Moves operations that are only needed inside one branch of a following
/// `if` into that branch (reverse speculation); operations needed in both
/// branches are duplicated into each (conditional speculation).
///
/// Only pure operations whose destinations are internal (not primary outputs)
/// and not read anywhere outside the `if` are moved.
pub fn reverse_speculation(function: &mut Function) -> Report {
    let mut report = Report::new("reverse-speculation", &function.name);
    let regions: Vec<RegionId> = function.regions.ids().collect();
    for region in regions {
        let nodes = function.regions[region].nodes.clone();
        for window in 1..nodes.len() {
            let block_node = nodes[window - 1];
            let if_node_id = nodes[window];
            let (Some(block), Some(if_node)) = (
                function.nodes[block_node].as_block(),
                function.nodes[if_node_id].as_if().cloned(),
            ) else {
                continue;
            };
            let def_use = DefUseGraph::compute(function);
            let then_ops: BTreeSet<OpId> = function
                .ops_in_region(if_node.then_region)
                .into_iter()
                .collect();
            let else_ops: BTreeSet<OpId> = function
                .ops_in_region(if_node.else_region)
                .into_iter()
                .collect();

            let candidate_ops: Vec<OpId> = function.blocks[block].ops.clone();
            for op_id in candidate_ops.into_iter().rev() {
                if function.ops[op_id].dead {
                    continue;
                }
                let op = function.ops[op_id].clone();
                if op.kind.has_side_effects() {
                    continue;
                }
                let Some(dest) = op.dest else { continue };
                if function.vars[dest].direction == spark_ir::PortDirection::Output {
                    continue;
                }
                // The branch condition itself must not depend on this op.
                if if_node.cond == Value::Var(dest) {
                    continue;
                }
                let users = def_use.uses_of(dest);
                if users.is_empty() {
                    continue;
                }
                let all_then = users.iter().all(|u| then_ops.contains(u));
                let all_else = users.iter().all(|u| else_ops.contains(u));
                let all_inside = users
                    .iter()
                    .all(|u| then_ops.contains(u) || else_ops.contains(u));
                // Do not move if another op in this same block (after op_id)
                // also defines dest: keep it simple and skip multi-def blocks.
                if def_use.defs_of(dest).len() != 1 {
                    continue;
                }
                // Moving the op past the rest of the block must not change
                // what its operands read: skip if any operand is redefined
                // between the op and the end of the block.
                let operand_vars: BTreeSet<_> = op.args.iter().filter_map(|a| a.as_var()).collect();
                let position = function.blocks[block]
                    .ops
                    .iter()
                    .position(|&o| o == op_id)
                    .unwrap_or(0);
                let redefined_later =
                    function.blocks[block].ops[position + 1..]
                        .iter()
                        .any(|&later| {
                            !function.ops[later].dead
                                && function.ops[later]
                                    .def()
                                    .map(|d| operand_vars.contains(&d))
                                    .unwrap_or(false)
                        });
                if redefined_later {
                    continue;
                }
                if all_then {
                    move_op_into_region(function, block, op_id, if_node.then_region);
                    report.add(1);
                } else if all_else {
                    move_op_into_region(function, block, op_id, if_node.else_region);
                    report.add(1);
                } else if all_inside {
                    // Conditional speculation: duplicate into both branches.
                    duplicate_op_into_region(function, op_id, if_node.then_region);
                    duplicate_op_into_region(function, op_id, if_node.else_region);
                    function.kill_op(op_id);
                    report.add(1);
                }
            }
        }
    }
    if report.changes > 0 {
        report.note(format!(
            "moved or duplicated {} operation(s) into branches",
            report.changes
        ));
    }
    report
}

fn move_op_into_region(
    function: &mut Function,
    from_block: spark_ir::BlockId,
    op: OpId,
    region: RegionId,
) {
    function.blocks[from_block].remove(op);
    let target_block = first_block_of_region(function, region);
    function.blocks[target_block].insert(0, op);
}

fn duplicate_op_into_region(function: &mut Function, op: OpId, region: RegionId) {
    let original = function.ops[op].clone();
    let clone = function.add_op(original.kind, original.dest, original.args);
    function.ops[clone].speculative = original.speculative;
    let target_block = first_block_of_region(function, region);
    function.blocks[target_block].insert(0, clone);
}

/// Returns the first basic block of a region, creating one if the region is
/// empty or starts with a compound node.
fn first_block_of_region(function: &mut Function, region: RegionId) -> spark_ir::BlockId {
    if let Some(&first) = function.regions[region].nodes.first() {
        if let Some(block) = function.nodes[first].as_block() {
            return block;
        }
    }
    let block = function.add_block("rspec");
    let node = function.add_block_node(block);
    function.regions[region].nodes.insert(0, node);
    block
}

/// Moves the operation computing each `if` condition as early as possible
/// within its basic block, subject to its data dependences (early condition
/// execution). This lets the controller resolve branches sooner and shortens
/// the chains that steering logic sits on.
pub fn early_condition_execution(function: &mut Function) -> Report {
    let mut report = Report::new("early-condition-execution", &function.name);
    // Gather condition variables of all if nodes.
    let mut cond_vars = BTreeSet::new();
    for (_, node) in function.nodes.iter() {
        if let HtgNode::If(i) = node {
            if let Some(v) = i.cond.as_var() {
                cond_vars.insert(v);
            }
        }
    }
    for block_id in function.blocks_in_region(function.body) {
        let ops = function.blocks[block_id].ops.clone();
        for (position, &op_id) in ops.iter().enumerate() {
            if function.ops[op_id].dead {
                continue;
            }
            let op = function.ops[op_id].clone();
            let Some(dest) = op.dest else { continue };
            if !cond_vars.contains(&dest) || op.kind.has_side_effects() {
                continue;
            }
            // Find the earliest position after the last def of any operand.
            let operand_vars: BTreeSet<_> = op.args.iter().filter_map(|a| a.as_var()).collect();
            let mut earliest = 0usize;
            for (idx, &other) in ops.iter().enumerate().take(position) {
                if function.ops[other].dead {
                    continue;
                }
                if let Some(d) = function.ops[other].def() {
                    if operand_vars.contains(&d) || d == dest {
                        earliest = idx + 1;
                    }
                }
            }
            if earliest < position {
                let block = &mut function.blocks[block_id];
                block.remove(op_id);
                block.insert(earliest, op_id);
                report.add(1);
            }
        }
    }
    if report.changes > 0 {
        report.note(format!(
            "advanced {} condition computation(s)",
            report.changes
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, OpKind, Program, Type};

    fn check_equivalent(original: &Function, transformed: &Function, inputs: &[(&str, Vec<u64>)]) {
        // Reverse speculation legitimately changes the final value of
        // *internal* variables on paths where they are no longer computed; the
        // observable behaviour is the primary outputs.
        let outputs: Vec<String> = original
            .outputs()
            .into_iter()
            .map(|v| original.vars[v].name.clone())
            .collect();
        let mut p0 = Program::new();
        p0.add_function(original.clone());
        let mut p1 = Program::new();
        p1.add_function(transformed.clone());
        // Cartesian product over small input sets.
        let mut envs = vec![Env::new()];
        for (name, values) in inputs {
            let mut next = Vec::new();
            for env in &envs {
                for &v in values {
                    next.push(env.clone().with_scalar(name, v));
                }
            }
            envs = next;
        }
        for env in envs {
            let a = Interpreter::new(&p0).run(&original.name, &env).unwrap();
            let b = Interpreter::new(&p1).run(&transformed.name, &env).unwrap();
            for output in &outputs {
                assert_eq!(
                    a.scalar(output),
                    b.scalar(output),
                    "output `{output}` differs"
                );
            }
            assert_eq!(a.arrays, b.arrays);
        }
    }

    #[test]
    fn moves_single_branch_use_into_branch() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]); // only used in then
        b.if_begin(Value::Var(c));
        b.copy(out, Value::Var(t));
        b.else_begin();
        b.copy(out, Value::Var(a));
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        let report = reverse_speculation(&mut f);
        assert_eq!(report.changes, 1);
        verify(&f).expect("well formed");
        check_equivalent(&original, &f, &[("c", vec![0, 1]), ("a", vec![0, 9, 255])]);
        // The add now lives inside the then-branch.
        let if_node = f
            .nodes
            .iter()
            .find_map(|(_, n)| n.as_if().cloned())
            .expect("if node exists");
        let then_ops = f.ops_in_region(if_node.then_region);
        assert!(then_ops.iter().any(|&op| f.ops[op].kind == OpKind::Add));
    }

    #[test]
    fn duplicates_op_needed_in_both_branches() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let a = b.param("a", Type::Bits(8));
        let t = b.var("t", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, t, vec![Value::Var(a), Value::word(1)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, out, vec![Value::Var(t), Value::word(1)]);
        b.else_begin();
        b.assign(OpKind::Sub, out, vec![Value::Var(t), Value::word(1)]);
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        let report = reverse_speculation(&mut f);
        assert_eq!(report.changes, 1);
        verify(&f).expect("well formed");
        check_equivalent(&original, &f, &[("c", vec![0, 1]), ("a", vec![3, 200])]);
        // The computation now appears twice (once per branch).
        let adds = f
            .live_ops()
            .into_iter()
            .filter(|&op| f.ops[op].kind == OpKind::Add && f.ops[op].dest == Some(t))
            .count();
        assert_eq!(adds, 2);
    }

    #[test]
    fn output_definitions_are_not_moved() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let out = b.output("out", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.copy(out, Value::word(5)); // primary output: must stay unconditional
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, y, vec![Value::Var(out), Value::word(1)]);
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        reverse_speculation(&mut f);
        check_equivalent(&original, &f, &[("c", vec![0, 1])]);
        // The copy to `out` is still in the pre-branch block.
        let first_block = f.blocks_in_region(f.body)[0];
        assert!(!f.blocks[first_block].ops.is_empty());
    }

    #[test]
    fn early_condition_execution_moves_comparisons_up() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let cond = b.var("cond", Type::Bool);
        let out = b.output("out", Type::Bits(8));
        // Unrelated work sits between the operand definition and the compare.
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, y, vec![Value::Var(a), Value::word(2)]);
        b.assign(OpKind::Mul, y, vec![Value::Var(y), Value::Var(y)]);
        b.assign(OpKind::Gt, cond, vec![Value::Var(x), Value::word(10)]);
        b.if_begin(Value::Var(cond));
        b.copy(out, Value::Var(y));
        b.if_end();
        let original = b.finish();
        let mut f = original.clone();
        let report = early_condition_execution(&mut f);
        assert_eq!(report.changes, 1);
        verify(&f).expect("well formed");
        check_equivalent(&original, &f, &[("a", vec![0, 20, 255])]);
        // The comparison is now right after the definition of x.
        let first_block = f.blocks_in_region(f.body)[0];
        let kinds: Vec<_> = f.blocks[first_block]
            .ops
            .iter()
            .filter(|&&op| !f.ops[op].dead)
            .map(|&op| f.ops[op].kind.clone())
            .collect();
        assert_eq!(kinds[1], OpKind::Gt);
    }

    #[test]
    fn early_condition_execution_is_idempotent() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let cond = b.var("cond", Type::Bool);
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Gt, cond, vec![Value::Var(a), Value::word(10)]);
        b.if_begin(Value::Var(cond));
        b.copy(out, Value::word(1));
        b.if_end();
        let mut f = b.finish();
        assert!(early_condition_execution(&mut f).is_noop());
    }
}
