//! Structural program positions and a structural dominance test.
//!
//! The fine-grain transformations (propagation, CSE) must only forward a
//! value from a definition to a use when the definition is guaranteed to
//! execute before the use on every path. For the structured HTG this
//! reduces to a simple *structural dominance* test: the definition's chain
//! of enclosing regions must be a prefix of the use's chain, and the
//! definition must come earlier in program order. A definition buried inside
//! a conditional branch therefore never dominates a use after the join,
//! while a definition at the top level dominates everything that follows it.
//!
//! Positions stay valid across in-place rewrites and erasures: the fine
//! passes never move an operation between blocks, erasing operations keeps
//! the relative order of the survivors, and pruning emptied structure does
//! not change the region chain of any remaining operation. The pass manager
//! in `spark-core` therefore computes positions once per fine-grain phase
//! (the round before the second speculation, and the clean-up after it) and
//! shares them across every worklist pass of that phase, instead of
//! recomputing them per pass or per fixed-point round.

use std::collections::HashMap;

use spark_ir::{Function, HtgNode, OpId, RegionId, SecondaryMap};

/// Per-operation position record: an interned region chain and the
/// pre-order program index.
#[derive(Clone, Copy, Debug)]
struct OpPosition {
    /// Index into [`Positions::paths`].
    path: u32,
    /// Index in a pre-order walk of the whole body (program order).
    order: u32,
}

/// Structural position of every live operation in a function.
///
/// Region chains are interned: operations in the same region share one path
/// entry, so the dominance test is usually a single integer comparison plus
/// an equality check, and computing positions allocates O(regions) instead
/// of O(operations) chains.
#[derive(Clone, Debug, Default)]
pub struct Positions {
    info: SecondaryMap<OpId, OpPosition>,
    /// Unique region chains from the body down, in first-encounter order.
    paths: Vec<Vec<RegionId>>,
}

impl Positions {
    /// Computes positions for all live operations of `function`.
    pub fn compute(function: &Function) -> Self {
        let mut positions = Positions::default();
        let mut interned: HashMap<Vec<RegionId>, u32> = HashMap::new();
        let mut counter = 0u32;
        let mut path = vec![function.body];
        walk(
            function,
            function.body,
            &mut path,
            &mut counter,
            &mut interned,
            &mut positions,
        );
        positions
    }

    /// Program-order index of an operation (`None` for dead/detached ops).
    pub fn order_of(&self, op: OpId) -> Option<usize> {
        self.info.get(&op).map(|p| p.order as usize)
    }

    /// Returns `true` if `def` structurally dominates `user`: `def` executes
    /// before `user` on every path from the function entry to `user`.
    ///
    /// Conservative: operations inside loops never dominate operations
    /// outside their loop, and definitions inside conditional branches never
    /// dominate uses outside the branch.
    pub fn dominates(&self, def: OpId, user: OpId) -> bool {
        let (Some(def_pos), Some(use_pos)) = (self.info.get(&def), self.info.get(&user)) else {
            return false;
        };
        if def_pos.order >= use_pos.order {
            return false;
        }
        if def_pos.path == use_pos.path {
            return true;
        }
        // def's region chain must be a prefix of use's region chain.
        let def_path = &self.paths[def_pos.path as usize];
        let use_path = &self.paths[use_pos.path as usize];
        if def_path.len() > use_path.len() {
            return false;
        }
        def_path.iter().zip(use_path.iter()).all(|(a, b)| a == b)
    }
}

fn walk(
    function: &Function,
    region: RegionId,
    path: &mut Vec<RegionId>,
    counter: &mut u32,
    interned: &mut HashMap<Vec<RegionId>, u32>,
    positions: &mut Positions,
) {
    let mut path_id = None;
    for &node in &function.regions[region].nodes {
        match &function.nodes[node] {
            HtgNode::Block(b) => {
                for &op in &function.blocks[*b].ops {
                    if function.ops[op].dead {
                        continue;
                    }
                    let path_id = *path_id.get_or_insert_with(|| {
                        *interned.entry(path.clone()).or_insert_with(|| {
                            positions.paths.push(path.clone());
                            (positions.paths.len() - 1) as u32
                        })
                    });
                    positions.info.insert(
                        op,
                        OpPosition {
                            path: path_id,
                            order: *counter,
                        },
                    );
                    *counter += 1;
                }
            }
            HtgNode::If(i) => {
                for region in [i.then_region, i.else_region] {
                    path.push(region);
                    walk(function, region, path, counter, interned, positions);
                    path.pop();
                }
            }
            HtgNode::Loop(l) => {
                path.push(l.body);
                walk(function, l.body, path, counter, interned, positions);
                path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    #[test]
    fn top_level_def_dominates_branch_use() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let def = b.copy(x, Value::word(1));
        b.if_begin(Value::Var(c));
        let use_in_branch = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        b.if_end();
        let f = b.finish();
        let pos = Positions::compute(&f);
        assert!(pos.dominates(def, use_in_branch));
        assert!(!pos.dominates(use_in_branch, def));
    }

    #[test]
    fn branch_def_does_not_dominate_join_use() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.if_begin(Value::Var(c));
        let def = b.copy(x, Value::word(1));
        b.if_end();
        let after = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        let f = b.finish();
        let pos = Positions::compute(&f);
        assert!(!pos.dominates(def, after));
    }

    #[test]
    fn then_def_does_not_dominate_else_use() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        b.if_begin(Value::Var(c));
        let def = b.copy(x, Value::word(1));
        b.else_begin();
        let other = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        b.if_end();
        let f = b.finish();
        let pos = Positions::compute(&f);
        assert!(!pos.dominates(def, other));
    }

    #[test]
    fn def_before_a_loop_dominates_ops_inside_it() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(32));
        let x = b.var("x", Type::Bits(32));
        let before = b.copy(x, Value::word(0));
        b.for_begin(i, 1, Value::word(4), 1);
        let inside = b.assign(OpKind::Add, x, vec![Value::Var(x), Value::Var(i)]);
        b.loop_end();
        let f = b.finish();
        let pos = Positions::compute(&f);
        assert!(pos.dominates(before, inside));
        assert!(!pos.dominates(inside, before));
    }

    #[test]
    fn order_is_program_order() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let first = b.copy(x, Value::word(1));
        let second = b.copy(x, Value::word(2));
        let f = b.finish();
        let pos = Positions::compute(&f);
        assert!(pos.order_of(first).unwrap() < pos.order_of(second).unwrap());
        assert_eq!(pos.order_of(spark_ir::OpId::from_raw(99)), None);
    }
}
