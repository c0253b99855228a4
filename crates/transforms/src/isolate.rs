//! Condition isolation: an `if` tests its condition once.
//!
//! The interpreter evaluates an `if` condition on entry. The scheduled
//! design has no `if`: every operation runs under its guard, the
//! conditions of the `if` nodes around it, tested where the operation runs.
//! When a branch writes the condition of its own `if`, the operations after
//! that write would test the new value, and an else-branch after a
//! then-branch write could run as well. So each such `if` tests a copy of
//! its condition taken just before it, which no branch writes.

use spark_ir::{Function, HtgNode, OpKind, RegionId, Value, VarId};

use crate::report::Report;

/// Makes every `if` whose branches write its condition variable test a copy
/// of the condition taken just before it. The copy goes at the end of the
/// block in front of the `if`, or into a new block when the `if` starts its
/// region.
pub fn isolate_conditions(function: &mut Function) -> Report {
    let mut report = Report::new("condition-isolation", &function.name);
    let body = function.body;
    isolate_region(function, body, &mut report);
    report
}

fn isolate_region(function: &mut Function, region: RegionId, report: &mut Report) {
    let mut index = 0;
    while index < function.regions[region].nodes.len() {
        let node = function.regions[region].nodes[index];
        let branches = match &function.nodes[node] {
            HtgNode::Block(_) => None,
            HtgNode::If(i) => Some((i.cond, i.then_region, i.else_region)),
            HtgNode::Loop(l) => {
                let body = l.body;
                isolate_region(function, body, report);
                None
            }
        };
        if let Some((cond, then_region, else_region)) = branches {
            isolate_region(function, then_region, report);
            isolate_region(function, else_region, report);
            let written = cond.as_var().filter(|&var| {
                defines(function, then_region, var) || defines(function, else_region, var)
            });
            if let Some(var) = written {
                let copy = function.fresh_temp_from("cond", var, function.vars[var].ty);
                let previous = index
                    .checked_sub(1)
                    .map(|at| function.regions[region].nodes[at]);
                let block = match previous.map(|at| &function.nodes[at]) {
                    Some(HtgNode::Block(block)) => *block,
                    _ => {
                        let block = function.add_block(format!("cond_{}", function.vars[var].name));
                        let block_node = function.add_block_node(block);
                        function.regions[region].nodes.insert(index, block_node);
                        index += 1;
                        block
                    }
                };
                function.push_op(block, OpKind::Copy, Some(copy), vec![Value::Var(var)]);
                if let HtgNode::If(i) = &mut function.nodes[node] {
                    i.cond = Value::Var(copy);
                }
                report.add(1);
                report.note(format!(
                    "`if` on `{}` tests the copy `{}`",
                    function.vars[var].name, function.vars[copy].name
                ));
            }
        }
        index += 1;
    }
}

/// Whether a live operation in `region`, at any depth, defines `var`.
fn defines(function: &Function, region: RegionId, var: VarId) -> bool {
    function.regions[region]
        .nodes
        .iter()
        .any(|&node| match &function.nodes[node] {
            HtgNode::Block(block) => function.blocks[*block].ops.iter().any(|&op| {
                let op = &function.ops[op];
                !op.dead && op.def() == Some(var)
            }),
            HtgNode::If(i) => {
                defines(function, i.then_region, var) || defines(function, i.else_region, var)
            }
            HtgNode::Loop(l) => defines(function, l.body, var),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Program, Type};

    /// `f = a < b; x = a; if (f) { f = b < a; x = a + b; } else { x = b; }`
    fn self_guarded() -> Function {
        let mut b = FunctionBuilder::new("g");
        let a = b.param("a", Type::Bits(8));
        let bb = b.param("b", Type::Bits(8));
        let f = b.var("f", Type::Bool);
        let x = b.output("x", Type::Bits(8));
        b.assign(OpKind::Lt, f, vec![Value::Var(a), Value::Var(bb)]);
        b.copy(x, Value::Var(a));
        b.if_begin(Value::Var(f));
        b.assign(OpKind::Lt, f, vec![Value::Var(bb), Value::Var(a)]);
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::Var(bb)]);
        b.else_begin();
        b.copy(x, Value::Var(bb));
        b.if_end();
        b.finish()
    }

    fn run(function: &Function, a: u64, b: u64) -> Option<u64> {
        let mut program = Program::new();
        program.add_function(function.clone());
        let env = Env::new().with_scalar("a", a).with_scalar("b", b);
        Interpreter::new(&program)
            .run("g", &env)
            .unwrap()
            .scalar("x")
    }

    #[test]
    fn an_if_whose_branch_writes_its_condition_tests_a_copy() {
        let original = self_guarded();
        let mut f = original.clone();
        let report = isolate_conditions(&mut f);
        assert_eq!(report.changes, 1);
        assert!(verify(&f).is_ok());
        let ifs: Vec<Value> = f
            .nodes
            .iter()
            .filter_map(|(_, node)| match node {
                HtgNode::If(i) => Some(i.cond),
                _ => None,
            })
            .collect();
        let copy = ifs[0].as_var().unwrap();
        assert_eq!(f.vars[copy].name, "cond_f_0");
        // The copy closes the block in front of the `if`, and no branch
        // writes it.
        let ops = f.live_ops();
        assert_eq!(f.ops[ops[2]].dest, Some(copy));
        assert_eq!(
            ops.iter()
                .filter(|&&op| f.ops[op].def() == Some(copy))
                .count(),
            1
        );
        for (a, b) in [(1, 2), (2, 1), (7, 7)] {
            assert_eq!(run(&f, a, b), run(&original, a, b));
        }
    }

    #[test]
    fn an_if_that_starts_its_region_gets_a_block_of_its_own() {
        let mut b = FunctionBuilder::new("g");
        let flag = b.param("flag", Type::Bool);
        let x = b.output("x", Type::Bits(8));
        b.if_begin(Value::Var(flag));
        b.copy(flag, Value::bool(false));
        b.copy(x, Value::word(1));
        b.if_end();
        let mut f = b.finish();
        assert_eq!(f.regions[f.body].nodes.len(), 1);
        assert_eq!(isolate_conditions(&mut f).changes, 1);
        let body = &f.regions[f.body].nodes;
        assert_eq!(body.len(), 2);
        let HtgNode::Block(block) = f.nodes[body[0]] else {
            panic!("the copy's block comes first");
        };
        let copy = f.blocks[block].ops[0];
        assert_eq!(f.ops[copy].args, vec![Value::Var(flag)]);
        assert!(verify(&f).is_ok());
    }

    #[test]
    fn an_if_whose_branches_leave_its_condition_alone_is_unchanged() {
        let mut b = FunctionBuilder::new("g");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let x = b.output("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.if_end();
        let mut f = b.finish();
        let before = f.to_string();
        assert!(isolate_conditions(&mut f).is_noop());
        assert_eq!(f.to_string(), before);
    }
}
