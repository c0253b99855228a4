//! Behavioral functions: the unit of synthesis.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::arena::Arena;
use crate::block::{BasicBlock, BlockId};
use crate::htg::{HtgNode, IfNode, LoopKind, LoopNode, NodeId, Region, RegionId};
use crate::op::{OpId, OpKind, Operation};
use crate::types::Type;
use crate::value::Value;
use crate::var::{PortDirection, Var, VarId};

/// A behavioral function: parameters, variables, operations and a
/// hierarchical task graph describing its control structure.
///
/// A function is the unit on which transformations, scheduling, binding and
/// RTL generation operate. The top-level function of a
/// [`Program`](crate::Program) describes the synthesized block; other
/// functions (such as the ILD's `CalculateLength`) are callees that inlining
/// folds into their callers.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name, unique within its program.
    pub name: String,
    /// Parameter variables in declaration order.
    pub params: Vec<VarId>,
    /// Declared return type, if the function returns a value.
    pub return_type: Option<Type>,
    /// All variables (parameters, locals, temporaries, arrays).
    pub vars: Arena<Var>,
    /// All operations, live and dead ([`Function::compact`] drops the dead).
    pub ops: Arena<Operation>,
    /// All basic blocks.
    pub blocks: Arena<BasicBlock>,
    /// All HTG nodes.
    pub nodes: Arena<HtgNode>,
    /// All regions.
    pub regions: Arena<Region>,
    /// The top-level region: the function body.
    pub body: RegionId,
    /// Counter used to generate unique temporary names.
    next_temp: u32,
}

impl Function {
    /// Creates an empty function with an empty body region.
    pub fn new(name: impl Into<String>) -> Self {
        let mut regions = Arena::new();
        let body = regions.alloc(Region::new());
        Function {
            name: name.into(),
            params: Vec::new(),
            return_type: None,
            vars: Arena::new(),
            ops: Arena::new(),
            blocks: Arena::new(),
            nodes: Arena::new(),
            regions,
            body,
            next_temp: 0,
        }
    }

    // ------------------------------------------------------------------
    // Entity creation
    // ------------------------------------------------------------------

    /// Declares a variable and returns its id.
    pub fn add_var(&mut self, var: Var) -> VarId {
        self.vars.alloc(var)
    }

    /// Declares a parameter variable. Parameters default to primary inputs.
    pub fn add_param(&mut self, mut var: Var) -> VarId {
        if var.direction == PortDirection::Internal {
            var.direction = PortDirection::Input;
        }
        let id = self.add_var(var);
        self.params.push(id);
        id
    }

    /// Creates a fresh uniquely-named register temporary of type `ty`.
    pub fn fresh_temp(&mut self, prefix: &str, ty: Type) -> VarId {
        let name = format!("{prefix}_{}", self.next_temp);
        self.next_temp += 1;
        self.add_var(Var::register(name, ty))
    }

    /// Creates a fresh uniquely-named register temporary of type `ty` named
    /// after an existing variable: `{prefix}_{base name}_{n}`, the name built
    /// in a single allocation.
    pub fn fresh_temp_from(&mut self, prefix: &str, base: VarId, ty: Type) -> VarId {
        let base_name = &self.vars[base].name;
        let mut name = String::with_capacity(prefix.len() + base_name.len() + 12);
        name.push_str(prefix);
        name.push('_');
        name.push_str(base_name);
        name.push('_');
        write!(name, "{}", self.next_temp).expect("writing to a String cannot fail");
        self.next_temp += 1;
        self.add_var(Var::register(name, ty))
    }

    /// Creates an empty basic block.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        self.blocks.alloc(BasicBlock::new(label))
    }

    /// Creates an empty region.
    pub fn add_region(&mut self) -> RegionId {
        self.regions.alloc(Region::new())
    }

    /// Creates an operation (not yet placed into any block).
    pub fn add_op(&mut self, kind: OpKind, dest: Option<VarId>, args: Vec<Value>) -> OpId {
        self.ops.alloc(Operation::new(kind, dest, args))
    }

    /// Creates an operation and appends it to `block`.
    pub fn push_op(
        &mut self,
        block: BlockId,
        kind: OpKind,
        dest: Option<VarId>,
        args: Vec<Value>,
    ) -> OpId {
        let op = self.add_op(kind, dest, args);
        self.blocks[block].push(op);
        op
    }

    /// Wraps a basic block into a leaf HTG node.
    pub fn add_block_node(&mut self, block: BlockId) -> NodeId {
        self.nodes.alloc(HtgNode::Block(block))
    }

    /// Creates an `if` HTG node.
    pub fn add_if_node(
        &mut self,
        cond: Value,
        then_region: RegionId,
        else_region: RegionId,
    ) -> NodeId {
        self.nodes.alloc(HtgNode::If(IfNode {
            cond,
            then_region,
            else_region,
        }))
    }

    /// Creates a loop HTG node.
    pub fn add_loop_node(
        &mut self,
        kind: LoopKind,
        body: RegionId,
        trip_bound: Option<u64>,
    ) -> NodeId {
        self.nodes.alloc(HtgNode::Loop(LoopNode {
            kind,
            body,
            trip_bound,
        }))
    }

    /// Appends a node to a region.
    pub fn region_push(&mut self, region: RegionId, node: NodeId) {
        self.regions[region].nodes.push(node);
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// All basic blocks inside `region`, in execution order, recursing into
    /// compound nodes (then-branch before else-branch, loop bodies inline).
    pub fn blocks_in_region(&self, region: RegionId) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.collect_blocks(region, &mut out);
        out
    }

    fn collect_blocks(&self, region: RegionId, out: &mut Vec<BlockId>) {
        for &node in &self.regions[region].nodes {
            match &self.nodes[node] {
                HtgNode::Block(b) => out.push(*b),
                HtgNode::If(i) => {
                    self.collect_blocks(i.then_region, out);
                    self.collect_blocks(i.else_region, out);
                }
                HtgNode::Loop(l) => self.collect_blocks(l.body, out),
            }
        }
    }

    /// All live operations inside `region` in program order.
    pub fn ops_in_region(&self, region: RegionId) -> Vec<OpId> {
        self.blocks_in_region(region)
            .into_iter()
            .flat_map(|b| self.blocks[b].ops.iter().copied())
            .filter(|&op| !self.ops[op].dead)
            .collect()
    }

    /// All live operations of the function body in program order.
    pub fn live_ops(&self) -> Vec<OpId> {
        self.ops_in_region(self.body)
    }

    /// Number of live operations in the function body.
    pub fn live_op_count(&self) -> usize {
        self.live_ops().len()
    }

    /// What the pure operation `op` computes, with each operand it needs
    /// read by `read`: [`OpKind::eval`], with the width of a `Concat`'s low
    /// operand looked up only for a `Concat`.
    ///
    /// Returns `None` for the kinds that are not pure and when an operand is
    /// missing.
    #[inline]
    pub fn eval_op(&self, op: &Operation, mut read: impl FnMut(Value) -> u64) -> Option<u64> {
        let arg = |i: usize| op.args.get(i).map(|&arg| read(arg));
        op.kind.eval(arg, || match op.args[1] {
            Value::Const(c) => c.ty().width(),
            Value::Var(v) => self.vars[v].ty.width(),
        })
    }

    /// Number of basic blocks reachable from the function body.
    pub fn block_count(&self) -> usize {
        self.blocks_in_region(self.body).len()
    }

    /// Maximum nesting depth of compound nodes in the body (a straight-line
    /// function has depth 0).
    pub fn nesting_depth(&self) -> usize {
        self.region_depth(self.body)
    }

    fn region_depth(&self, region: RegionId) -> usize {
        self.regions[region]
            .nodes
            .iter()
            .map(|&node| match &self.nodes[node] {
                HtgNode::Block(_) => 0,
                HtgNode::If(i) => {
                    1 + self
                        .region_depth(i.then_region)
                        .max(self.region_depth(i.else_region))
                }
                HtgNode::Loop(l) => 1 + self.region_depth(l.body),
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of loop nodes reachable from the body.
    pub fn loop_count(&self) -> usize {
        fn walk(f: &Function, region: RegionId, count: &mut usize) {
            for &node in &f.regions[region].nodes {
                match &f.nodes[node] {
                    HtgNode::Block(_) => {}
                    HtgNode::If(i) => {
                        walk(f, i.then_region, count);
                        walk(f, i.else_region, count);
                    }
                    HtgNode::Loop(l) => {
                        *count += 1;
                        walk(f, l.body, count);
                    }
                }
            }
        }
        let mut count = 0;
        walk(self, self.body, &mut count);
        count
    }

    /// Number of conditional (`if`) nodes reachable from the body.
    pub fn if_count(&self) -> usize {
        fn walk(f: &Function, region: RegionId, count: &mut usize) {
            for &node in &f.regions[region].nodes {
                match &f.nodes[node] {
                    HtgNode::Block(_) => {}
                    HtgNode::If(i) => {
                        *count += 1;
                        walk(f, i.then_region, count);
                        walk(f, i.else_region, count);
                    }
                    HtgNode::Loop(l) => walk(f, l.body, count),
                }
            }
        }
        let mut count = 0;
        walk(self, self.body, &mut count);
        count
    }

    /// Finds a variable by name (first match, a linear scan).
    ///
    /// The function keeps no name index: clones of it are made per design
    /// point, and only tests and tools look names up. The frontend lowering
    /// keeps its own name map while it declares.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .find(|(_, v)| v.name == name)
            .map(|(id, _)| id)
    }

    /// Primary output variables of the function.
    pub fn outputs(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|(_, v)| v.direction == PortDirection::Output)
            .map(|(id, _)| id)
            .collect()
    }

    /// Primary input variables (parameters plus any input-marked variables).
    pub fn inputs(&self) -> Vec<VarId> {
        self.vars
            .iter()
            .filter(|(_, v)| v.direction == PortDirection::Input)
            .map(|(id, _)| id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Mutation helpers used by transformations
    // ------------------------------------------------------------------

    /// Deep-clones `region` (its nodes, blocks and operations) applying the
    /// variable substitution `var_map` to every operand, destination and loop
    /// index. Variables not present in the map are shared with the original.
    ///
    /// Used by loop unrolling (each iteration body is a clone), inlining
    /// (callee body cloned into the caller) and conditional speculation
    /// (duplicating operations into both branches).
    pub fn clone_region_mapped(
        &mut self,
        region: RegionId,
        var_map: &BTreeMap<VarId, VarId>,
    ) -> RegionId {
        let map_var = |v: VarId, map: &BTreeMap<VarId, VarId>| *map.get(&v).unwrap_or(&v);
        let map_val = |val: Value, map: &BTreeMap<VarId, VarId>| match val {
            Value::Var(v) => Value::Var(map_var(v, map)),
            c @ Value::Const(_) => c,
        };

        // Recursive clone. We gather the node list first to avoid holding a
        // borrow of the region while allocating.
        let nodes: Vec<NodeId> = self.regions[region].nodes.clone();
        let new_region = self.add_region();
        for node in nodes {
            let cloned = match self.nodes[node].clone() {
                HtgNode::Block(b) => {
                    let label = format!("{}c", self.blocks[b].label);
                    let new_block = self.add_block(label);
                    let ops: Vec<OpId> = self.blocks[b].ops.clone();
                    for op in ops {
                        let original = self.ops[op].clone();
                        if original.dead {
                            continue;
                        }
                        let mut kind = original.kind.clone();
                        match &mut kind {
                            OpKind::ArrayRead { array } | OpKind::ArrayWrite { array } => {
                                *array = map_var(*array, var_map);
                            }
                            _ => {}
                        }
                        let dest = original.dest.map(|d| map_var(d, var_map));
                        let args = original.args.iter().map(|&a| map_val(a, var_map)).collect();
                        let new_op = self.add_op(kind, dest, args);
                        self.ops[new_op].speculative = original.speculative;
                        self.blocks[new_block].push(new_op);
                    }
                    self.add_block_node(new_block)
                }
                HtgNode::If(i) => {
                    let cond = map_val(i.cond, var_map);
                    let then_region = self.clone_region_mapped(i.then_region, var_map);
                    let else_region = self.clone_region_mapped(i.else_region, var_map);
                    self.add_if_node(cond, then_region, else_region)
                }
                HtgNode::Loop(l) => {
                    let kind = match l.kind {
                        LoopKind::For {
                            index,
                            start,
                            end,
                            step,
                        } => LoopKind::For {
                            index: map_var(index, var_map),
                            start,
                            end: map_val(end, var_map),
                            step,
                        },
                        LoopKind::While { cond } => LoopKind::While {
                            cond: map_val(cond, var_map),
                        },
                    };
                    let body = self.clone_region_mapped(l.body, var_map);
                    self.add_loop_node(kind, body, l.trip_bound)
                }
            };
            self.region_push(new_region, cloned);
        }
        new_region
    }

    /// Drops every operation that is dead or outside the blocks reachable
    /// from the body, and every unreachable block, HTG node and region. Of
    /// the variables it keeps the parameters, the ports and those a kept
    /// operation (destination, operand or array) or node (condition, loop
    /// index or bound) names; the rest are internal and unused. The
    /// survivors of every arena are renumbered in their original id order,
    /// so program order and every iteration or tie-break by id are
    /// unchanged.
    ///
    /// Every variable, operation, block, node and region id held outside the
    /// function is invalidated. The transformation pipeline compacts its
    /// result once, so each design point copies, sizes its tables by,
    /// binds, simulates and declares the live design only.
    pub fn compact(&mut self) {
        let mut keep_regions = vec![false; self.regions.len()];
        let mut keep_nodes = vec![false; self.nodes.len()];
        let mut keep_blocks = vec![false; self.blocks.len()];
        let mut keep_ops = vec![false; self.ops.len()];
        let mut stack = vec![self.body];
        while let Some(region) = stack.pop() {
            if std::mem::replace(&mut keep_regions[region.index()], true) {
                continue;
            }
            for &node in &self.regions[region].nodes {
                keep_nodes[node.index()] = true;
                match &self.nodes[node] {
                    HtgNode::Block(b) => {
                        keep_blocks[b.index()] = true;
                        for &op in &self.blocks[*b].ops {
                            keep_ops[op.index()] |= !self.ops[op].dead;
                        }
                    }
                    HtgNode::If(i) => stack.extend([i.then_region, i.else_region]),
                    HtgNode::Loop(l) => stack.push(l.body),
                }
            }
        }

        let ops = self.ops.retain(&keep_ops);
        let blocks = self.blocks.retain(&keep_blocks);
        let nodes = self.nodes.retain(&keep_nodes);
        let regions = self.regions.retain(&keep_regions);
        let region = |id: RegionId| regions[id.index()].expect("a kept node's region is kept");
        for (_, block) in self.blocks.iter_mut() {
            block.ops.retain_mut(|op| match ops[op.index()] {
                Some(renumbered) => {
                    *op = renumbered;
                    true
                }
                None => false,
            });
        }
        for (_, node) in self.nodes.iter_mut() {
            match node {
                HtgNode::Block(b) => *b = blocks[b.index()].expect("a kept node's block is kept"),
                HtgNode::If(i) => {
                    i.then_region = region(i.then_region);
                    i.else_region = region(i.else_region);
                }
                HtgNode::Loop(l) => l.body = region(l.body),
            }
        }
        for (_, kept) in self.regions.iter_mut() {
            for node in &mut kept.nodes {
                *node = nodes[node.index()].expect("a kept region's node is kept");
            }
        }
        self.body = region(self.body);
        self.compact_vars();
    }

    /// Drops the internal variables that no operation or node names (every
    /// one left is live after [`Function::compact`]'s own pass), renumbering
    /// the survivors in id order.
    fn compact_vars(&mut self) {
        let mut keep = vec![false; self.vars.len()];
        for (id, var) in self.vars.iter() {
            keep[id.index()] = var.direction != PortDirection::Internal;
        }
        for &param in &self.params {
            keep[param.index()] = true;
        }
        for (_, op) in self.ops.iter_mut() {
            op_vars(op, |var| keep[var.index()] = true);
        }
        for (_, node) in self.nodes.iter_mut() {
            node_vars(node, |var| keep[var.index()] = true);
        }
        let vars = self.vars.retain(&keep);
        let renumber =
            |var: &mut VarId| *var = vars[var.index()].expect("a named variable is kept");
        for param in &mut self.params {
            renumber(param);
        }
        for (_, op) in self.ops.iter_mut() {
            op_vars(op, renumber);
        }
        for (_, node) in self.nodes.iter_mut() {
            node_vars(node, renumber);
        }
    }

    /// Removes empty basic blocks and empty `if` nodes from every region.
    /// Returns the number of nodes removed.
    pub fn prune_empty(&mut self) -> usize {
        let mut removed = 0;
        // Iterate to a fixed point: removing an inner node may empty a region.
        loop {
            let mut changed = 0;
            let region_ids: Vec<RegionId> = self.regions.ids().collect();
            for region in region_ids {
                let nodes = self.regions[region].nodes.clone();
                let mut kept = Vec::with_capacity(nodes.len());
                for node in nodes {
                    let keep = match &self.nodes[node] {
                        HtgNode::Block(b) => {
                            self.blocks[*b].ops.iter().any(|&op| !self.ops[op].dead)
                        }
                        HtgNode::If(i) => {
                            !(self.regions[i.then_region].is_empty()
                                && self.regions[i.else_region].is_empty())
                        }
                        HtgNode::Loop(l) => !self.regions[l.body].is_empty(),
                    };
                    if keep {
                        kept.push(node);
                    } else {
                        changed += 1;
                    }
                }
                self.regions[region].nodes = kept;
            }
            removed += changed;
            if changed == 0 {
                break;
            }
        }
        removed
    }
}

/// Calls `visit` on every variable `op` names: its destination, its
/// variable operands and the array it reads or writes.
fn op_vars(op: &mut Operation, mut visit: impl FnMut(&mut VarId)) {
    for var in op
        .dest
        .iter_mut()
        .chain(op.args.iter_mut().filter_map(|arg| match arg {
            Value::Var(var) => Some(var),
            Value::Const(_) => None,
        }))
    {
        visit(var);
    }
    if let OpKind::ArrayRead { array } | OpKind::ArrayWrite { array } = &mut op.kind {
        visit(array);
    }
}

/// Calls `visit` on every variable `node` names: an `if` condition, a loop
/// index, bound or condition.
fn node_vars(node: &mut HtgNode, mut visit: impl FnMut(&mut VarId)) {
    let value = match node {
        HtgNode::Block(_) => None,
        HtgNode::If(i) => Some(&mut i.cond),
        HtgNode::Loop(l) => match &mut l.kind {
            LoopKind::For { index, end, .. } => {
                visit(index);
                Some(end)
            }
            LoopKind::While { cond } => Some(cond),
        },
    };
    if let Some(Value::Var(var)) = value {
        visit(var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionStats;

    fn sample_function() -> (Function, VarId, VarId, VarId) {
        // if (c) { x = a + 1 } else { x = a - 1 }
        let mut f = Function::new("sample");
        let a = f.add_param(Var::register("a", Type::Bits(8)));
        let c = f.add_param(Var::register("c", Type::Bool));
        let x = f.add_var(Var::register("x", Type::Bits(8)));

        let then_bb = f.add_block("then");
        f.push_op(
            then_bb,
            OpKind::Add,
            Some(x),
            vec![Value::Var(a), Value::word(1)],
        );
        let then_region = f.add_region();
        let then_node = f.add_block_node(then_bb);
        f.region_push(then_region, then_node);

        let else_bb = f.add_block("else");
        f.push_op(
            else_bb,
            OpKind::Sub,
            Some(x),
            vec![Value::Var(a), Value::word(1)],
        );
        let else_region = f.add_region();
        let else_node = f.add_block_node(else_bb);
        f.region_push(else_region, else_node);

        let if_node = f.add_if_node(Value::Var(c), then_region, else_region);
        let body = f.body;
        f.region_push(body, if_node);
        (f, a, c, x)
    }

    #[test]
    fn traversal_counts() {
        let (f, ..) = sample_function();
        assert_eq!(f.live_op_count(), 2);
        assert_eq!(f.block_count(), 2);
        assert_eq!(f.if_count(), 1);
        assert_eq!(f.loop_count(), 0);
        assert_eq!(f.nesting_depth(), 1);
    }

    #[test]
    fn clone_region_with_substitution() {
        let (mut f, a, _, x) = sample_function();
        let x2 = f.add_var(Var::register("x2", Type::Bits(8)));
        let mut map = BTreeMap::new();
        map.insert(x, x2);
        let body = f.body;
        let cloned = f.clone_region_mapped(body, &map);
        // The clone has the same structure.
        assert_eq!(f.ops_in_region(cloned).len(), 2);
        // Destinations were remapped, operands that were not in the map are shared.
        for op in f.ops_in_region(cloned) {
            assert_eq!(f.ops[op].dest, Some(x2));
            assert_eq!(f.ops[op].args[0], Value::Var(a));
        }
        // The original is untouched.
        for op in f.ops_in_region(body) {
            assert_eq!(f.ops[op].dest, Some(x));
        }
    }

    #[test]
    fn prune_empty_removes_hollow_structure() {
        let mut f = Function::new("empty");
        let bb = f.add_block("BB0");
        let node = f.add_block_node(bb);
        let body = f.body;
        f.region_push(body, node);
        let empty_then = f.add_region();
        let empty_else = f.add_region();
        let if_node = f.add_if_node(Value::bool(true), empty_then, empty_else);
        f.region_push(body, if_node);
        let removed = f.prune_empty();
        assert_eq!(removed, 2);
        assert!(f.regions[f.body].is_empty());
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut f = Function::new("t");
        let a = f.fresh_temp("tmp", Type::Bits(8));
        let b = f.fresh_temp("tmp", Type::Bits(8));
        assert_ne!(f.vars[a].name, f.vars[b].name);
        assert!(!f.vars[b].is_wire());
    }

    #[test]
    fn fresh_temp_from_names_after_the_base_variable() {
        let mut f = Function::new("t");
        let x = f.add_var(Var::register("x", Type::Bits(8)));
        let first = f.fresh_temp("t", Type::Bool);
        let derived = f.fresh_temp_from("spec", x, Type::Bits(16));
        assert_eq!(f.vars[first].name, "t_0");
        assert_eq!(f.vars[derived].name, "spec_x_1");
        assert_eq!(f.vars[derived].ty, Type::Bits(16));
        assert_eq!(f.var_by_name("spec_x_1"), Some(derived));
    }

    #[test]
    fn var_by_name_keeps_first_match_semantics() {
        let mut f = Function::new("n");
        let a = f.add_param(Var::register("a", Type::Bits(8)));
        let dup_first = f.add_var(Var::register("dup", Type::Bits(8)));
        let _dup_second = f.add_var(Var::register("dup", Type::Bits(16)));
        let t = f.fresh_temp("t", Type::Bool);
        assert_eq!(f.var_by_name("a"), Some(a));
        assert_eq!(f.var_by_name("dup"), Some(dup_first));
        assert_eq!(f.var_by_name(&f.vars[t].name.clone()), Some(t));
        assert_eq!(f.var_by_name("missing"), None);
        // Clones answer the same way.
        assert_eq!(f.clone().var_by_name("dup"), Some(dup_first));
    }

    /// `sample_function` between two top-level blocks, plus garbage
    /// interleaved with the live IR: a dead op left in a live block, an
    /// `if` node, its regions and a block no longer reachable from the body,
    /// an op never placed in any block, and variables only the garbage
    /// names (`gone_*`) or nothing names (`unused`, `unused_out`; the
    /// second is an output port).
    fn function_with_garbage() -> Function {
        let (mut f, a, _, x) = sample_function();
        let unused = f.add_var(Var::register("unused", Type::Bits(8)));
        let dead_dest = f.add_var(Var::register("gone_dead", Type::Bits(8)));
        let _unused_out = f.add_var(Var::register("unused_out", Type::Bits(8)).as_output());
        let orphan_dest = f.add_var(Var::register("gone_orphan", Type::Bits(8)));
        let loose_arg = f.add_var(Var::register("gone_loose", Type::Bits(8)));
        let orphan_cond = f.add_var(Var::register("gone_cond", Type::Bool));
        let body = f.body;
        let pre = f.add_block("pre");
        let dead = f.push_op(
            pre,
            OpKind::Add,
            Some(dead_dest),
            vec![Value::Var(unused), Value::word(2)],
        );
        f.push_op(
            pre,
            OpKind::Sub,
            Some(x),
            vec![Value::Var(a), Value::word(3)],
        );
        f.ops[dead].kill();
        let pre_node = f.add_block_node(pre);
        f.regions[body].nodes.insert(0, pre_node);

        let orphan = f.add_block("orphan");
        f.push_op(
            orphan,
            OpKind::Copy,
            Some(orphan_dest),
            vec![Value::word(9)],
        );
        let orphan_then = f.add_region();
        let orphan_node = f.add_block_node(orphan);
        f.region_push(orphan_then, orphan_node);
        let orphan_else = f.add_region();
        f.add_if_node(Value::Var(orphan_cond), orphan_then, orphan_else);
        f.add_op(OpKind::Copy, Some(x), vec![Value::Var(loose_arg)]);

        let post = f.add_block("post");
        f.push_op(post, OpKind::Copy, Some(x), vec![Value::Var(a)]);
        let post_node = f.add_block_node(post);
        f.region_push(body, post_node);
        f
    }

    /// The nodes and regions reachable from the body, each sorted by id.
    fn reachable_structure(f: &Function) -> (Vec<NodeId>, Vec<RegionId>) {
        let (mut nodes, mut regions) = (Vec::new(), vec![f.body]);
        let mut stack = vec![f.body];
        while let Some(region) = stack.pop() {
            for &node in &f.regions[region].nodes {
                nodes.push(node);
                let children = match &f.nodes[node] {
                    HtgNode::Block(_) => vec![],
                    HtgNode::If(i) => vec![i.then_region, i.else_region],
                    HtgNode::Loop(l) => vec![l.body],
                };
                regions.extend(&children);
                stack.extend(children);
            }
        }
        nodes.sort();
        regions.sort();
        (nodes, regions)
    }

    /// A node's kind and, for a leaf, its block's label: what identifies it
    /// independently of how the arenas number it.
    fn node_shape(f: &Function, node: NodeId) -> String {
        match &f.nodes[node] {
            HtgNode::Block(b) => format!("block {}", f.blocks[*b].label),
            HtgNode::If(i) => format!("if {:?}", i.cond),
            HtgNode::Loop(l) => format!("loop {:?}", l.kind),
        }
    }

    #[test]
    fn compact_keeps_only_live_ir_in_its_original_order() {
        let before = function_with_garbage();
        let mut f = before.clone();
        f.compact();
        assert_eq!(f.live_op_count(), f.ops.len());
        assert_eq!(f.block_count(), f.blocks.len());

        // Survivors keep their relative id order.
        let mut live = before.live_ops();
        live.sort();
        let kept: Vec<&Operation> = live.iter().map(|&op| &before.ops[op]).collect();
        let survivors: Vec<&Operation> = f.ops.iter().map(|(_, op)| op).collect();
        assert_eq!(kept, survivors);
        let mut blocks = before.blocks_in_region(before.body);
        blocks.sort();
        let labels: Vec<&str> = blocks.iter().map(|&b| &*before.blocks[b].label).collect();
        let kept_labels: Vec<&str> = f.blocks.iter().map(|(_, b)| &*b.label).collect();
        assert_eq!(labels, kept_labels);
        let (nodes, regions) = reachable_structure(&before);
        let shapes: Vec<String> = nodes.iter().map(|&n| node_shape(&before, n)).collect();
        let kept_shapes: Vec<String> = f.nodes.ids().map(|n| node_shape(&f, n)).collect();
        assert_eq!(shapes, kept_shapes);
        let sizes: Vec<usize> = regions
            .iter()
            .map(|&r| before.regions[r].nodes.len())
            .collect();
        let kept_sizes: Vec<usize> = f.regions.iter().map(|(_, r)| r.nodes.len()).collect();
        assert_eq!(sizes, kept_sizes);

        // The parameters, the ports and the variables live IR names survive,
        // in their id order; nothing else does.
        let vars: Vec<&str> = f.vars.iter().map(|(_, v)| &*v.name).collect();
        assert_eq!(vars, ["a", "c", "x", "unused_out"]);
        assert_eq!(f.params.len(), 2);

        // Program order and the other statistics are unchanged.
        assert_eq!(before.to_string(), f.to_string());
        assert_eq!(
            FunctionStats {
                variables: vars.len(),
                ..FunctionStats::of(&before)
            },
            FunctionStats::of(&f)
        );
        let verdict = crate::verify(&f);
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn compact_renumbers_variables_everywhere_they_are_named() {
        // Every named variable comes after a dropped one, so each id the
        // function holds moves: parameters, op destinations, operands and
        // arrays, and the conditions, indices and bounds of HTG nodes.
        let mut b = crate::FunctionBuilder::new("renumber");
        let gone = b.var("gone", Type::Bits(8));
        let n = b.param("n", Type::Bits(8));
        let c = b.var("c", Type::Bool);
        let i = b.var("i", Type::Bits(8));
        let arr = b.output_array("arr", Type::Bits(8), 4);
        let t = b.var("t", Type::Bits(8));
        b.copy(gone, Value::word(1));
        b.assign(OpKind::Lt, c, vec![Value::Var(n), Value::word(3)]);
        b.if_begin(Value::Var(c));
        b.for_begin(i, 0, Value::Var(n), 1);
        b.array_read(t, arr, Value::Var(i));
        b.array_write(arr, Value::Var(i), Value::Var(t));
        b.loop_end();
        b.if_end();
        let mut f = b.finish();
        let first_block = f.blocks_in_region(f.body)[0];
        let first = f.blocks[first_block].ops[0];
        f.ops[first].kill();
        f.blocks[first_block].remove(first);
        let before = f.to_string();
        f.compact();
        let names: Vec<&str> = f.vars.iter().map(|(_, v)| &*v.name).collect();
        assert_eq!(names, ["n", "c", "i", "arr", "t"]);
        assert_eq!(f.to_string(), before);
        let verdict = crate::verify(&f);
        assert!(verdict.is_ok(), "{verdict:?}");
    }

    #[test]
    fn compacting_twice_equals_compacting_once() {
        let mut once = function_with_garbage();
        once.compact();
        let mut twice = once.clone();
        twice.compact();
        assert_eq!(format!("{once:?}"), format!("{twice:?}"));
    }

    #[test]
    fn outputs_and_inputs() {
        let mut f = Function::new("io");
        let i = f.add_param(Var::array("buf", Type::Bits(8), 4));
        let o = f.add_var(Var::array("mark", Type::Bool, 4).as_output());
        assert_eq!(f.inputs(), vec![i]);
        assert_eq!(f.outputs(), vec![o]);
    }
}
