//! Function inlining.
//!
//! Inlining replaces a call with the body of the callee so that the callee's
//! operations can be optimized together with the caller's (Figure 12 of the
//! paper: `CalculateLength` is inlined into the ILD's byte loop before the
//! loop is unrolled).

use std::collections::BTreeMap;

use spark_ir::{
    BlockId, Function, HtgNode, LoopKind, NodeId, OpId, OpKind, PortDirection, Program, RegionId,
    StorageClass, Value, Var, VarId,
};

use crate::report::Report;

/// Inlines every call inside `caller_name`, repeatedly, until no calls remain
/// (calls exposed by inlining are inlined too). Direct or indirect recursion
/// is not supported: a call to the caller itself is left in place and noted
/// in the report.
///
/// Returns values of the callee are assumed to be in tail position (the
/// paper's `CalculateLength` has this shape): each `return v` becomes a copy
/// of `v` into the call's destination.
pub fn inline_calls(program: &mut Program, caller_name: &str) -> Report {
    let mut report = Report::new("inline", caller_name);
    for _round in 0..256 {
        let Some(caller) = program.function(caller_name) else {
            report.note(format!("function `{caller_name}` not found"));
            return report;
        };
        // Find the first live call op.
        let call = caller.live_ops().into_iter().find_map(|op_id| {
            if let OpKind::Call { callee } = &caller.ops[op_id].kind {
                Some((op_id, callee.clone()))
            } else {
                None
            }
        });
        let Some((call_op, callee_name)) = call else {
            break;
        };
        if callee_name == caller_name {
            report.note("recursive call left in place");
            break;
        }
        let Some(callee) = program.function(&callee_name).cloned() else {
            report.note(format!(
                "callee `{callee_name}` not found; call left in place"
            ));
            break;
        };
        let caller = program.function_mut(caller_name).expect("caller exists");
        inline_one(caller, &callee, call_op);
        report.add(1);
        report.note(format!("inlined call to `{callee_name}`"));
    }
    report
}

/// Inlines a single call operation. `call_op` must be a live `Call` op of
/// `caller` whose callee is `callee`.
fn inline_one(caller: &mut Function, callee: &Function, call_op: OpId) {
    let call = caller.ops[call_op].clone();
    let OpKind::Call {
        callee: callee_name,
    } = &call.kind
    else {
        panic!("inline_one requires a call operation");
    };

    // 1. Map every callee variable to a caller variable. Array parameters are
    //    aliased to the caller array passed as the argument; everything else
    //    gets a fresh internal variable.
    let mut var_map: BTreeMap<VarId, VarId> = BTreeMap::new();
    for (callee_var_id, callee_var) in callee.vars.iter() {
        if let Some(position) = callee.params.iter().position(|&p| p == callee_var_id) {
            if callee_var.storage.is_array() {
                let arg = call.args.get(position).copied().unwrap_or(Value::word(0));
                if let Some(array_var) = arg.as_var() {
                    var_map.insert(callee_var_id, array_var);
                    continue;
                }
            }
        }
        let mut new_var = Var {
            name: format!("{}_{}", callee_name, callee_var.name),
            ty: callee_var.ty,
            storage: callee_var.storage,
            direction: PortDirection::Internal,
        };
        // Arrays keep their storage; scalars keep register/wire class.
        if let StorageClass::Array { length } = callee_var.storage {
            new_var.storage = StorageClass::Array { length };
        }
        let new_id = caller.add_var(new_var);
        var_map.insert(callee_var_id, new_id);
    }

    // 2. A binding block copies scalar arguments into the mapped parameters.
    let bind_block = caller.add_block(format!("{}_args", callee_name));
    for (position, &param) in callee.params.iter().enumerate() {
        if callee.vars[param].storage.is_array() {
            continue; // aliased above
        }
        let arg = call.args.get(position).copied().unwrap_or(Value::word(0));
        let mapped = var_map[&param];
        caller.push_op(bind_block, OpKind::Copy, Some(mapped), vec![arg]);
    }
    let bind_node = caller.add_block_node(bind_block);

    // 3. Import the callee body into the caller, rewriting returns into
    //    copies to the call destination.
    let imported = import_region(caller, callee, callee.body, &var_map, call.dest);

    // 4. Splice at the call site: split the containing block around the call.
    let (region, node_index, block, op_index) =
        locate_call(caller, call_op).expect("call op must be attached to a block");
    let tail_ops: Vec<OpId> = caller.blocks[block].ops.split_off(op_index + 1);
    caller.blocks[block].remove(call_op);
    caller.ops[call_op].kill();

    let mut insert: Vec<NodeId> = vec![bind_node];
    insert.extend(caller.regions[imported].nodes.clone());
    if !tail_ops.is_empty() {
        let tail_block = caller.add_block(format!("{}_cont", caller.blocks[block].label));
        caller.blocks[tail_block].ops = tail_ops;
        insert.push(caller.add_block_node(tail_block));
    }
    let nodes = &mut caller.regions[region].nodes;
    let mut rest = nodes.split_off(node_index + 1);
    nodes.extend(insert);
    nodes.append(&mut rest);
}

/// Finds `(region, node index, block, op index)` of a live op.
fn locate_call(function: &Function, op: OpId) -> Option<(RegionId, usize, BlockId, usize)> {
    for (region_id, region) in function.regions.iter() {
        for (node_index, &node) in region.nodes.iter().enumerate() {
            if let HtgNode::Block(block) = function.nodes[node] {
                if let Some(op_index) = function.blocks[block].ops.iter().position(|&o| o == op) {
                    return Some((region_id, node_index, block, op_index));
                }
            }
        }
    }
    None
}

/// Recursively copies a callee region into the caller, applying `var_map` and
/// rewriting `return v` into `ret_dest = v`.
fn import_region(
    caller: &mut Function,
    callee: &Function,
    region: RegionId,
    var_map: &BTreeMap<VarId, VarId>,
    ret_dest: Option<VarId>,
) -> RegionId {
    let map_var = |v: VarId| *var_map.get(&v).unwrap_or(&v);
    let map_val = |v: Value| match v {
        Value::Var(var) => Value::Var(map_var(var)),
        c @ Value::Const(_) => c,
    };
    let new_region = caller.add_region();
    for &node in &callee.regions[region].nodes {
        let new_node = match &callee.nodes[node] {
            HtgNode::Block(b) => {
                let label = format!("inl_{}", callee.blocks[*b].label);
                let new_block = caller.add_block(label);
                for &op_id in &callee.blocks[*b].ops {
                    let op = &callee.ops[op_id];
                    if op.dead {
                        continue;
                    }
                    let (kind, dest, args): (OpKind, Option<VarId>, Vec<Value>) = match &op.kind {
                        OpKind::Return => {
                            // Tail-position return: assign the result.
                            match ret_dest {
                                Some(d) => (OpKind::Copy, Some(d), vec![map_val(op.args[0])]),
                                None => continue,
                            }
                        }
                        OpKind::ArrayRead { array } => (
                            OpKind::ArrayRead {
                                array: map_var(*array),
                            },
                            op.dest.map(map_var),
                            op.args.iter().map(|&a| map_val(a)).collect(),
                        ),
                        OpKind::ArrayWrite { array } => (
                            OpKind::ArrayWrite {
                                array: map_var(*array),
                            },
                            None,
                            op.args.iter().map(|&a| map_val(a)).collect(),
                        ),
                        other => (
                            other.clone(),
                            op.dest.map(map_var),
                            op.args.iter().map(|&a| map_val(a)).collect(),
                        ),
                    };
                    let new_op = caller.push_op(new_block, kind, dest, args);
                    caller.ops[new_op].speculative = op.speculative;
                }
                caller.add_block_node(new_block)
            }
            HtgNode::If(i) => {
                let cond = map_val(i.cond);
                let then_region = import_region(caller, callee, i.then_region, var_map, ret_dest);
                let else_region = import_region(caller, callee, i.else_region, var_map, ret_dest);
                caller.add_if_node(cond, then_region, else_region)
            }
            HtgNode::Loop(l) => {
                let kind = match &l.kind {
                    LoopKind::For {
                        index,
                        start,
                        end,
                        step,
                    } => LoopKind::For {
                        index: map_var(*index),
                        start: *start,
                        end: map_val(*end),
                        step: *step,
                    },
                    LoopKind::While { cond } => LoopKind::While {
                        cond: map_val(*cond),
                    },
                };
                let body = import_region(caller, callee, l.body, var_map, ret_dest);
                caller.add_loop_node(kind, body, l.trip_bound)
            }
        };
        caller.region_push(new_region, new_node);
    }
    new_region
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{verify, Env, FunctionBuilder, Interpreter, Type};

    /// main(a) { r = addone(a); s = addone(r); return s }
    /// addone(x) { if (x > 10) { y = x + 2 } else { y = x + 1 } return y }
    fn call_program() -> Program {
        let mut cb = FunctionBuilder::new("addone");
        let x = cb.param("x", Type::Bits(8));
        let y = cb.var("y", Type::Bits(8));
        let gt = cb.compute(OpKind::Gt, Type::Bool, vec![Value::Var(x), Value::word(10)]);
        cb.if_begin(Value::Var(gt));
        cb.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(2)]);
        cb.else_begin();
        cb.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        cb.if_end();
        cb.ret(Value::Var(y));
        cb.returns(Type::Bits(8));

        let mut mb = FunctionBuilder::new("main");
        let a = mb.param("a", Type::Bits(8));
        let r = mb.var("r", Type::Bits(8));
        let s = mb.var("s", Type::Bits(8));
        mb.call(Some(r), "addone", vec![Value::Var(a)]);
        mb.call(Some(s), "addone", vec![Value::Var(r)]);
        mb.ret(Value::Var(s));

        let mut p = Program::new();
        p.add_function(mb.finish());
        p.add_function(cb.finish());
        p
    }

    #[test]
    fn inlining_preserves_semantics() {
        let original = call_program();
        let mut inlined = original.clone();
        let report = inline_calls(&mut inlined, "main");
        assert_eq!(report.changes, 2, "both calls inlined");

        let main = inlined.function("main").unwrap();
        verify(main).expect("inlined function is well formed");
        assert!(
            !main
                .live_ops()
                .iter()
                .any(|&op| matches!(main.ops[op].kind, OpKind::Call { .. })),
            "no calls remain"
        );

        for a in [0u64, 5, 11, 200, 255] {
            let env = Env::new().with_scalar("a", a);
            let before = Interpreter::new(&original).run("main", &env).unwrap();
            let after = Interpreter::new(&inlined).run("main", &env).unwrap();
            assert_eq!(before.return_value, after.return_value, "input a={a}");
        }
    }

    #[test]
    fn inlining_aliases_array_parameters() {
        // callee(buf, i) { v = buf[i]; return v }
        let mut cb = FunctionBuilder::new("peek");
        let buf = cb.param_array("buf", Type::Bits(8), 4);
        let i = cb.param("i", Type::Bits(32));
        let v = cb.var("v", Type::Bits(8));
        cb.array_read(v, buf, Value::Var(i));
        cb.ret(Value::Var(v));

        let mut mb = FunctionBuilder::new("main");
        let data = mb.param_array("data", Type::Bits(8), 4);
        let r = mb.var("r", Type::Bits(8));
        mb.call(Some(r), "peek", vec![Value::Var(data), Value::word(2)]);
        mb.ret(Value::Var(r));

        let mut p = Program::new();
        p.add_function(mb.finish());
        p.add_function(cb.finish());

        let original = p.clone();
        inline_calls(&mut p, "main");
        let env = Env::new().with_array("data", vec![3, 1, 4, 1]);
        let before = Interpreter::new(&original).run("main", &env).unwrap();
        let after = Interpreter::new(&p).run("main", &env).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(after.return_value, Some(4));
    }

    #[test]
    fn recursion_is_left_alone() {
        let mut rb = FunctionBuilder::new("rec");
        let x = rb.param("x", Type::Bits(8));
        let r = rb.var("r", Type::Bits(8));
        rb.call(Some(r), "rec", vec![Value::Var(x)]);
        rb.ret(Value::Var(r));
        let mut p = Program::new();
        p.add_function(rb.finish());
        let report = inline_calls(&mut p, "rec");
        assert!(report.is_noop());
        assert!(report.notes.iter().any(|n| n.contains("recursive")));
    }

    #[test]
    fn missing_callee_is_reported() {
        let mut mb = FunctionBuilder::new("main");
        let r = mb.var("r", Type::Bits(8));
        mb.call(Some(r), "ghost", vec![]);
        let mut p = Program::new();
        p.add_function(mb.finish());
        let report = inline_calls(&mut p, "main");
        assert!(report.is_noop());
        assert!(report.notes.iter().any(|n| n.contains("ghost")));
    }

    #[test]
    fn call_in_loop_body_is_inlined_in_place() {
        // main: for i in 1..=3 { acc = acc + addone(i) }
        let mut cb = FunctionBuilder::new("addone");
        let x = cb.param("x", Type::Bits(32));
        let y = cb.compute(
            OpKind::Add,
            Type::Bits(32),
            vec![Value::Var(x), Value::word(1)],
        );
        cb.ret(Value::Var(y));

        let mut mb = FunctionBuilder::new("main");
        let i = mb.var("i", Type::Bits(32));
        let acc = mb.var("acc", Type::Bits(32));
        let t = mb.var("t", Type::Bits(32));
        mb.copy(acc, Value::word(0));
        mb.for_begin(i, 1, Value::word(3), 1);
        mb.call(Some(t), "addone", vec![Value::Var(i)]);
        mb.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(t)]);
        mb.loop_end();
        mb.ret(Value::Var(acc));

        let mut p = Program::new();
        p.add_function(mb.finish());
        p.add_function(cb.finish());
        let original = p.clone();
        inline_calls(&mut p, "main");
        let before = Interpreter::new(&original)
            .run("main", &Env::new())
            .unwrap();
        let after = Interpreter::new(&p).run("main", &Env::new()).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(after.return_value, Some(2 + 3 + 4));
    }
}
