//! Incrementally-maintained def–use information and the mutation API that
//! keeps it consistent.
//!
//! Recomputing def–use chains from scratch on every query round makes the
//! fine-grain transformation passes O(n) per *change* instead of per
//! *pass*. [`DefUseGraph`] stores the chains in dense [`SecondaryMap`] side
//! tables and is kept exactly consistent through every edit by routing all
//! IR mutations through a [`Rewriter`]: operand replacement, whole-operation
//! rewrites, erasure and insertion all unlink and relink the affected chains
//! in O(degree) time. Passes that edit the function directly (the
//! complementary code motions) simply recompute it with
//! [`DefUseGraph::compute`].
//!
//! The worklist-driven passes in `spark-transforms` are built on this pair:
//! they query the graph instead of rescanning the function, and they learn
//! which operations a previous pass touched from the rewriter's
//! [`EditLog`]. In debug builds the passes cross-check the incrementally
//! maintained graph against a from-scratch [`DefUseGraph::compute`] rebuild
//! after every run (see [`DefUseGraph::consistency_errors`]).

use crate::block::BlockId;
use crate::dense::SecondaryMap;
use crate::function::Function;
use crate::htg::{HtgNode, LoopKind};
use crate::op::{OpId, OpKind};
use crate::value::Value;
use crate::var::{PortDirection, VarId};

/// Dense def–use chains over the live operations of one function, designed
/// to be kept consistent through edits instead of recomputed.
///
/// The contents: per-variable use and def chains over the live operations
/// reachable from the function body, in program order when freshly
/// computed, plus the variables read by control structure (`if`
/// conditions, loop bounds and indices) of **every** HTG node in the arena —
/// detached nodes included, so a variable that was once a loop bound keeps
/// its producers alive. In addition the graph tracks the owning
/// block of every live operation, which turns erasure from an O(blocks)
/// scan into an O(1) lookup.
#[derive(Clone, Debug, Default)]
pub struct DefUseGraph {
    /// Per variable: live operations reading it, one entry per reading
    /// operand occurrence.
    uses: SecondaryMap<VarId, Vec<OpId>>,
    /// Per variable: live operations writing it (scalar destinations and
    /// array-write targets).
    defs: SecondaryMap<VarId, Vec<OpId>>,
    /// Per variable: number of control-structure sites reading it.
    control: SecondaryMap<VarId, u32>,
    /// Owning block of every live operation reachable from the body.
    op_block: SecondaryMap<OpId, BlockId>,
}

impl DefUseGraph {
    /// Builds the graph from scratch by walking the live operations and HTG
    /// nodes of `function`.
    pub fn compute(function: &Function) -> Self {
        let mut graph = DefUseGraph::default();
        for block in function.blocks_in_region(function.body) {
            for &op in &function.blocks[block].ops {
                if function.ops[op].dead {
                    continue;
                }
                graph.link_op(function, op);
                graph.op_block.insert(op, block);
            }
        }
        // Control reads come from every node ever allocated, live or
        // detached.
        let record = |value: Value, graph: &mut DefUseGraph| {
            if let Value::Var(v) = value {
                *graph.control.get_or_insert_with(v, || 0) += 1;
            }
        };
        for (_, node) in function.nodes.iter() {
            match node {
                HtgNode::Block(_) => {}
                HtgNode::If(i) => record(i.cond, &mut graph),
                HtgNode::Loop(l) => match &l.kind {
                    LoopKind::For { index, end, .. } => {
                        record(*end, &mut graph);
                        *graph.control.get_or_insert_with(*index, || 0) += 1;
                    }
                    LoopKind::While { cond } => record(*cond, &mut graph),
                },
            }
        }
        graph
    }

    /// Live operations reading `var`, one entry per operand occurrence.
    pub fn uses_of(&self, var: VarId) -> &[OpId] {
        self.uses.get(&var).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Live operations writing `var`.
    pub fn defs_of(&self, var: VarId) -> &[OpId] {
        self.defs.get(&var).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns `true` if `var` is written by exactly one live operation.
    pub fn has_single_def(&self, var: VarId) -> bool {
        self.defs_of(var).len() == 1
    }

    /// Returns `true` if `var` is read by control structure (an `if`
    /// condition, a loop bound or a loop index).
    pub fn is_control_used(&self, var: VarId) -> bool {
        self.control.get(&var).copied().unwrap_or(0) > 0
    }

    /// Returns `true` if `var` has no live readers (neither operations nor
    /// control structure) and is not a primary output — i.e. writes to it
    /// are dead unless they have other side effects.
    pub fn is_dead(&self, function: &Function, var: VarId) -> bool {
        self.uses_of(var).is_empty()
            && !self.is_control_used(var)
            && function.vars[var].direction != PortDirection::Output
    }

    /// The block owning live operation `op`, if it is reachable from the
    /// function body.
    pub fn block_of(&self, op: OpId) -> Option<BlockId> {
        self.op_block.get(&op).copied()
    }

    /// Compares this (incrementally maintained) graph against a from-scratch
    /// rebuild, returning a description of every divergence. Chain order is
    /// compared as a multiset: maintenance preserves determinism but not
    /// program order within a chain.
    pub fn consistency_errors(&self, function: &Function) -> Vec<String> {
        let fresh = DefUseGraph::compute(function);
        let mut errors = Vec::new();
        let sorted = |ops: &[OpId]| {
            let mut v = ops.to_vec();
            v.sort_unstable();
            v
        };
        for (var, _) in function.vars.iter() {
            if sorted(self.uses_of(var)) != sorted(fresh.uses_of(var)) {
                errors.push(format!(
                    "uses of v{} diverged: {:?} vs fresh {:?}",
                    var.raw(),
                    self.uses_of(var),
                    fresh.uses_of(var)
                ));
            }
            if sorted(self.defs_of(var)) != sorted(fresh.defs_of(var)) {
                errors.push(format!(
                    "defs of v{} diverged: {:?} vs fresh {:?}",
                    var.raw(),
                    self.defs_of(var),
                    fresh.defs_of(var)
                ));
            }
            if self.is_control_used(var) != fresh.is_control_used(var) {
                errors.push(format!("control use of v{} diverged", var.raw()));
            }
        }
        for (op, _) in function.ops.iter() {
            if self.block_of(op) != fresh.block_of(op) {
                errors.push(format!(
                    "owning block of op{} diverged: {:?} vs fresh {:?}",
                    op.raw(),
                    self.block_of(op),
                    fresh.block_of(op)
                ));
            }
        }
        errors
    }

    /// Panics with a diagnostic if the graph has drifted from the function.
    ///
    /// The worklist passes call this (in debug builds) after every run, so a
    /// maintenance bug fails loudly at the pass that introduced it.
    pub fn assert_consistent(&self, function: &Function) {
        let errors = self.consistency_errors(function);
        assert!(
            errors.is_empty(),
            "DefUseGraph inconsistent with `{}`:\n  {}",
            function.name,
            errors.join("\n  ")
        );
    }

    // ------------------------------------------------------------------
    // Link maintenance (crate-internal; used by `Rewriter`)
    // ------------------------------------------------------------------

    fn link_use(&mut self, var: VarId, op: OpId) {
        self.uses.get_or_insert_with(var, Vec::new).push(op);
    }

    fn unlink_use(&mut self, var: VarId, op: OpId) {
        let chain = self
            .uses
            .get_mut(&var)
            .unwrap_or_else(|| panic!("no use chain for v{}", var.raw()));
        let position = chain
            .iter()
            .position(|&o| o == op)
            .unwrap_or_else(|| panic!("op{} not in use chain of v{}", op.raw(), var.raw()));
        chain.remove(position);
    }

    fn link_def(&mut self, var: VarId, op: OpId) {
        self.defs.get_or_insert_with(var, Vec::new).push(op);
    }

    fn unlink_def(&mut self, var: VarId, op: OpId) {
        let chain = self
            .defs
            .get_mut(&var)
            .unwrap_or_else(|| panic!("no def chain for v{}", var.raw()));
        let position = chain
            .iter()
            .position(|&o| o == op)
            .unwrap_or_else(|| panic!("op{} not in def chain of v{}", op.raw(), var.raw()));
        chain.remove(position);
    }

    /// Links every use and the def of a live operation.
    fn link_op(&mut self, function: &Function, op: OpId) {
        let data = &function.ops[op];
        for used in data.uses_iter() {
            self.link_use(used, op);
        }
        if let Some(defined) = data.def() {
            self.link_def(defined, op);
        }
    }

    fn unlink_op(&mut self, function: &Function, op: OpId) {
        let data = &function.ops[op];
        for used in data.uses_iter() {
            self.unlink_use(used, op);
        }
        if let Some(defined) = data.def() {
            self.unlink_def(defined, op);
        }
    }
}

/// What a sequence of [`Rewriter`] edits changed, for worklist seeding.
#[derive(Clone, Debug, Default)]
pub struct EditLog {
    /// Operations whose kind, operands or liveness changed (erased and
    /// inserted operations included). May contain duplicates.
    pub touched: Vec<OpId>,
    /// Variables that lost at least one reading operand occurrence — the
    /// candidates whose definitions dead-code elimination should re-examine.
    /// May contain duplicates.
    pub released: Vec<VarId>,
}

impl EditLog {
    /// Appends another log (e.g. from a later rewriter over the same graph).
    pub fn merge(&mut self, other: EditLog) {
        self.touched.extend(other.touched);
        self.released.extend(other.released);
    }
}

/// A mutation handle over a function that keeps a [`DefUseGraph`] exactly
/// consistent through every edit and records what changed.
///
/// All fine-grain passes go through this API; editing the function behind
/// the graph's back is what the debug-mode consistency check exists to
/// catch.
pub struct Rewriter<'a> {
    function: &'a mut Function,
    graph: &'a mut DefUseGraph,
    log: EditLog,
}

impl<'a> Rewriter<'a> {
    /// Wraps a function and its (consistent) graph.
    pub fn new(function: &'a mut Function, graph: &'a mut DefUseGraph) -> Self {
        Rewriter {
            function,
            graph,
            log: EditLog::default(),
        }
    }

    /// Read access to the function being edited.
    pub fn function(&self) -> &Function {
        self.function
    }

    /// Read access to the maintained graph.
    pub fn graph(&self) -> &DefUseGraph {
        self.graph
    }

    /// Replaces operand `index` of `op` with `value`, returning `true` if
    /// the operand actually changed.
    pub fn replace_operand(&mut self, op: OpId, index: usize, value: Value) -> bool {
        let old = self.function.ops[op].args[index];
        if old == value {
            return false;
        }
        if let Value::Var(v) = old {
            self.graph.unlink_use(v, op);
            self.log.released.push(v);
        }
        if let Value::Var(v) = value {
            self.graph.link_use(v, op);
        }
        self.function.ops[op].args[index] = value;
        self.log.touched.push(op);
        true
    }

    /// Replaces every operand occurrence of variable `from` with `to` across
    /// all live operations reading it. Returns the number of rewritten
    /// operands.
    pub fn replace_all_uses(&mut self, from: VarId, to: Value) -> usize {
        let readers: Vec<OpId> = self.graph.uses_of(from).to_vec();
        let mut count = 0;
        for op in readers {
            for index in 0..self.function.ops[op].args.len() {
                if self.function.ops[op].args[index] == Value::Var(from)
                    && self.replace_operand(op, index, to)
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Rewrites the kind and operands of `op` in place (the destination is
    /// kept). Used to turn a computed operation into a `Copy` of a constant
    /// or an earlier result.
    pub fn rewrite_op(&mut self, op: OpId, kind: OpKind, args: Vec<Value>) {
        let old_uses = self.function.ops[op].uses();
        let old_def = self.function.ops[op].def();
        for v in old_uses {
            self.graph.unlink_use(v, op);
            self.log.released.push(v);
        }
        {
            let data = &mut self.function.ops[op];
            data.kind = kind;
            data.args = args;
        }
        let new_uses = self.function.ops[op].uses();
        let new_def = self.function.ops[op].def();
        for v in new_uses {
            self.graph.link_use(v, op);
        }
        if old_def != new_def {
            if let Some(d) = old_def {
                self.graph.unlink_def(d, op);
            }
            if let Some(d) = new_def {
                self.graph.link_def(d, op);
            }
        }
        self.log.touched.push(op);
    }

    /// Erases `op`: marks it dead, drops its operands, detaches it from its
    /// block and unlinks all of its chains. O(degree) — no block scan.
    pub fn erase_op(&mut self, op: OpId) {
        for v in self.function.ops[op].uses() {
            self.log.released.push(v);
        }
        self.graph.unlink_op(self.function, op);
        self.function.ops[op].kill();
        if let Some(block) = self.graph.op_block.remove(&op) {
            self.function.blocks[block].remove(op);
        }
        self.log.touched.push(op);
    }

    /// Creates a new live operation and inserts it into `block` at position
    /// `index`, linking its chains.
    pub fn insert_op(
        &mut self,
        block: BlockId,
        index: usize,
        kind: OpKind,
        dest: Option<VarId>,
        args: Vec<Value>,
    ) -> OpId {
        let op = self.function.add_op(kind, dest, args);
        self.function.blocks[block].insert(index, op);
        self.graph.link_op(self.function, op);
        self.graph.op_block.insert(op, block);
        self.log.touched.push(op);
        op
    }

    /// Finishes editing, returning the log of what changed.
    pub fn finish(self) -> EditLog {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;
    use crate::value::Constant;

    fn sample() -> (Function, VarId, VarId, VarId) {
        // x = a + 1; y = x + x; out = y
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let out = b.output("out", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.assign(OpKind::Add, y, vec![Value::Var(x), Value::Var(x)]);
        b.copy(out, Value::Var(y));
        (b.finish(), a, x, y)
    }

    #[test]
    fn compute_builds_the_expected_chains() {
        let (f, a, x, y) = sample();
        let graph = DefUseGraph::compute(&f);
        let ops = f.live_ops();
        let (def_x, def_y, def_out) = (ops[0], ops[1], ops[2]);
        assert_eq!(graph.uses_of(a), &[def_x]);
        assert_eq!(graph.defs_of(x), &[def_x]);
        assert_eq!(graph.uses_of(x), &[def_y, def_y], "one entry per operand");
        assert_eq!(graph.defs_of(y), &[def_y]);
        assert_eq!(graph.uses_of(y), &[def_out]);
        assert!(graph.defs_of(a).is_empty());
        assert!(graph.has_single_def(x));
        assert!(!graph.is_dead(&f, x));
        assert!(graph.consistency_errors(&f).is_empty());
    }

    #[test]
    fn replace_operand_keeps_graph_consistent() {
        let (mut f, _, x, _) = sample();
        let mut graph = DefUseGraph::compute(&f);
        let use_op = graph.defs_of(x)[0];
        let reader = graph.uses_of(x)[0];
        let mut rw = Rewriter::new(&mut f, &mut graph);
        assert!(rw.replace_operand(reader, 0, Value::word(7)));
        assert!(!rw.replace_operand(reader, 0, Value::word(7)), "idempotent");
        let log = rw.finish();
        assert_eq!(log.touched, vec![reader]);
        assert_eq!(log.released, vec![x]);
        assert_eq!(graph.uses_of(x).len(), 1);
        let _ = use_op;
        graph.assert_consistent(&f);
    }

    #[test]
    fn replace_all_uses_rewrites_every_occurrence() {
        let (mut f, _, x, _) = sample();
        let mut graph = DefUseGraph::compute(&f);
        let mut rw = Rewriter::new(&mut f, &mut graph);
        let n = rw.replace_all_uses(x, Value::Const(Constant::word(3)));
        assert_eq!(n, 2);
        rw.finish();
        assert!(graph.uses_of(x).is_empty());
        graph.assert_consistent(&f);
    }

    #[test]
    fn rewrite_and_erase_keep_graph_consistent() {
        let (mut f, a, x, y) = sample();
        let mut graph = DefUseGraph::compute(&f);
        let def_y = graph.defs_of(y)[0];
        let mut rw = Rewriter::new(&mut f, &mut graph);
        // y = x + x  becomes  y = copy a
        rw.rewrite_op(def_y, OpKind::Copy, vec![Value::Var(a)]);
        rw.finish();
        assert!(graph.uses_of(x).is_empty());
        assert_eq!(graph.uses_of(a).len(), 2);
        graph.assert_consistent(&f);

        let def_x = graph.defs_of(x)[0];
        let mut rw = Rewriter::new(&mut f, &mut graph);
        rw.erase_op(def_x);
        let log = rw.finish();
        assert!(log.released.contains(&a));
        assert!(f.ops[def_x].dead);
        assert!(graph.block_of(def_x).is_none());
        assert!(graph.defs_of(x).is_empty());
        graph.assert_consistent(&f);
    }

    #[test]
    fn erase_op_drops_operands_and_keeps_the_function_valid() {
        let (mut f, _, x, _) = sample();
        let mut graph = DefUseGraph::compute(&f);
        let def_x = graph.defs_of(x)[0];
        assert!(!f.ops[def_x].args.is_empty());
        let mut rw = Rewriter::new(&mut f, &mut graph);
        rw.erase_op(def_x);
        rw.finish();
        assert!(f.ops[def_x].args.is_empty());
        let verdict = crate::verify(&f);
        assert!(verdict.is_ok(), "{verdict:?}");
        graph.assert_consistent(&f);
    }

    #[test]
    fn insert_op_links_the_new_operation() {
        let (mut f, a, x, _) = sample();
        let mut graph = DefUseGraph::compute(&f);
        let block = graph.block_of(graph.defs_of(x)[0]).unwrap();
        let mut rw = Rewriter::new(&mut f, &mut graph);
        let t = rw.insert_op(block, 0, OpKind::Not, None, vec![Value::Var(a)]);
        rw.finish();
        assert!(graph.uses_of(a).contains(&t));
        assert_eq!(graph.block_of(t), Some(block));
        graph.assert_consistent(&f);
    }

    #[test]
    fn control_uses_cover_detached_nodes() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::word(1));
        b.if_end();
        let f = b.finish();
        let graph = DefUseGraph::compute(&f);
        assert!(graph.is_control_used(c));
        assert!(!graph.is_dead(&f, c));
    }

    #[test]
    fn consistency_check_reports_drift() {
        let (mut f, _, x, _) = sample();
        let graph = DefUseGraph::compute(&f);
        // Edit behind the graph's back: kill the def of x.
        let def_x = graph.defs_of(x)[0];
        f.kill_op(def_x);
        assert!(!graph.consistency_errors(&f).is_empty());
    }
}
