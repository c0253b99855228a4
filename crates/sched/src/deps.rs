//! Data dependences, branch guards and mutual exclusion.
//!
//! Scheduling with operation chaining across conditional boundaries "has to
//! use a modified resource utilization and operation scheduling model that
//! looks across the conditional boundaries" (Section 3.1). The model here
//! captures exactly the information that needs: the guard (branch context)
//! of every operation, whether two operations are mutually exclusive (and may
//! therefore share a functional unit in the same cycle), and the data
//! dependences that chaining must respect.
//!
//! All per-operation facts live in dense [`SecondaryMap`]s keyed by the arena
//! id, so the scheduler's innermost loops pay one array read per lookup.
//! Guards are **interned**: every distinct branch context gets a dense
//! [`GuardId`], and pairwise mutual exclusion is precomputed into a bitset at
//! build time, so the scheduler's resource-sharing loop and the dependence
//! history scans answer exclusion queries with a single word test instead of
//! a term-by-term `Vec` comparison.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use spark_ir::{BlockId, DenseKey, Function, HtgNode, OpId, RegionId, SecondaryMap, Value, VarId};

/// Why scheduling cannot proceed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The function still contains loops; unroll (or pipeline) them first.
    ContainsLoops,
    /// The function still contains calls; inline them first.
    ContainsCalls,
    /// An operation could not be placed within the resource/latency limits.
    Unschedulable(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::ContainsLoops => {
                write!(f, "function contains loops; unroll them before scheduling")
            }
            SchedError::ContainsCalls => {
                write!(f, "function contains calls; inline them before scheduling")
            }
            SchedError::Unschedulable(msg) => write!(f, "unschedulable: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// The branch context of an operation: the conditions (with polarity) of
/// every `if` node enclosing it, outermost first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Guard {
    /// `(condition value, polarity)` pairs; polarity `true` means the
    /// operation sits in the then-branch of that condition.
    pub terms: Vec<(Value, bool)>,
}

impl Guard {
    /// Returns `true` for an unguarded (always-executed) operation.
    pub fn is_unconditional(&self) -> bool {
        self.terms.is_empty()
    }

    /// Two guards are mutually exclusive when they disagree on the polarity
    /// of some shared condition.
    pub fn mutually_exclusive(&self, other: &Guard) -> bool {
        self.terms
            .iter()
            .any(|(cond, pol)| other.terms.iter().any(|(c2, p2)| c2 == cond && p2 != pol))
    }
}

/// Dense id of an interned [`Guard`] in a [`GuardTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GuardId(u32);

impl GuardId {
    /// The id every [`GuardTable`] reserves for the empty (unconditional)
    /// guard.
    pub const UNCONDITIONAL: GuardId = GuardId(0);

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DenseKey for GuardId {
    fn dense_index(self) -> usize {
        self.0 as usize
    }
    fn from_dense_index(index: usize) -> Self {
        GuardId(index as u32)
    }
}

/// The interned guards of one function plus their precomputed pairwise
/// mutual-exclusion relation.
///
/// Distinct branch contexts are few (one per basic block at most), so the
/// exclusion relation fits a dense `len × len` bitset and every
/// [`GuardTable::mutually_exclusive`] query is one shift-and-mask on a word.
#[derive(Clone, Debug)]
pub struct GuardTable {
    guards: Vec<Guard>,
    lookup: HashMap<Vec<(Value, bool)>, GuardId>,
    /// Row-major `len × len` exclusion bitset, `row_words` words per row.
    excl: Vec<u64>,
    row_words: usize,
}

impl Default for GuardTable {
    fn default() -> Self {
        let mut table = GuardTable {
            guards: Vec::new(),
            lookup: HashMap::new(),
            excl: Vec::new(),
            row_words: 0,
        };
        let id = table.intern(&Guard::default());
        debug_assert_eq!(id, GuardId::UNCONDITIONAL);
        table
    }
}

impl GuardTable {
    /// Number of interned guards.
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// Always `false`: the unconditional guard is interned up front.
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// The guard behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not interned in this table.
    pub fn guard(&self, id: GuardId) -> &Guard {
        &self.guards[id.index()]
    }

    /// Interns `guard`, returning the id of an existing equal guard if any.
    /// Only valid before [`GuardTable::seal`]; the exclusion bitset does not
    /// cover guards interned afterwards.
    fn intern(&mut self, guard: &Guard) -> GuardId {
        if let Some(&id) = self.lookup.get(&guard.terms) {
            return id;
        }
        let id = GuardId(self.guards.len() as u32);
        self.guards.push(guard.clone());
        self.lookup.insert(guard.terms.clone(), id);
        id
    }

    /// Precomputes the pairwise exclusion bitset over all interned guards.
    ///
    /// Two guards are mutually exclusive iff they disagree on the polarity of
    /// a shared condition, so only guards sharing a condition value need
    /// testing: group `(guard, polarity)` occurrences by condition, then mark
    /// the cross product of the true side and the false side of each group.
    fn seal(&mut self) {
        let n = self.guards.len();
        self.row_words = n.div_ceil(64);
        self.excl = vec![0u64; n * self.row_words];
        let mut by_cond: HashMap<Value, (Vec<u32>, Vec<u32>)> = HashMap::new();
        for (id, guard) in self.guards.iter().enumerate() {
            for &(cond, polarity) in &guard.terms {
                let entry = by_cond.entry(cond).or_default();
                if polarity {
                    entry.0.push(id as u32);
                } else {
                    entry.1.push(id as u32);
                }
            }
        }
        for (trues, falses) in by_cond.values() {
            for &a in trues {
                for &b in falses {
                    self.mark(a as usize, b as usize);
                    self.mark(b as usize, a as usize);
                }
            }
        }
    }

    fn mark(&mut self, a: usize, b: usize) {
        self.excl[a * self.row_words + b / 64] |= 1u64 << (b % 64);
    }

    /// One-word mutual-exclusion test between two interned guards.
    #[inline]
    pub fn mutually_exclusive(&self, a: GuardId, b: GuardId) -> bool {
        let (a, b) = (a.index(), b.index());
        self.excl[a * self.row_words + b / 64] >> (b % 64) & 1 != 0
    }
}

/// The kind of a dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Read-after-write: the consumer needs the producer's value. Chaining a
    /// flow dependence within a state requires a wire-variable.
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
    /// The operation is guarded by a condition computed by the producer.
    Control,
}

/// A single dependence edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Dependence {
    /// Producer (must be scheduled no later than the consumer). The
    /// consumer is implicit: edges live in its
    /// [`DependenceGraph::preds_of`] slice.
    pub from: OpId,
    /// Edge kind.
    pub kind: DepKind,
    /// Variable the edge is about (the condition variable for control edges).
    pub var: VarId,
}

/// Data-dependence information for one loop-free, call-free function.
///
/// An operation depends on the earlier accesses of a variable back to, and
/// including, the last unconditional definition of it (of a scalar): the
/// definitions its read may see, and the accesses its write must not pass.
/// Ordering behind older accesses follows through that definition's own
/// edges, so the graph grows with the reaching definitions, not with every
/// earlier access. Edges between mutually exclusive operations are dropped.
///
/// Edges are stored flat: one `Vec<Dependence>` grouped by consumer in
/// `order`, with a per-operation range into it. Consumers take
/// [`DependenceGraph::preds_of`] slices; nothing allocates per operation.
#[derive(Clone, Debug, Default)]
pub struct DependenceGraph {
    /// Live operations in program order (a valid topological order).
    pub order: Vec<OpId>,
    /// Incoming edges of every operation, grouped by consumer in `order`.
    edges: Vec<Dependence>,
    /// `start..end` of each operation's incoming edges in `edges`.
    ranges: SecondaryMap<OpId, (u32, u32)>,
    /// Interned guard per operation.
    guard_ids: SecondaryMap<OpId, GuardId>,
    /// Basic block of every operation.
    blocks: SecondaryMap<OpId, BlockId>,
    /// The guard interner and exclusion bitset.
    guard_table: GuardTable,
}

/// Global count of [`DependenceGraph::build`] executions, for the
/// graph-build counting assertions in tests.
static GRAPH_BUILDS: AtomicUsize = AtomicUsize::new(0);

impl DependenceGraph {
    /// Builds the dependence graph of `function`.
    ///
    /// # Errors
    /// Returns [`SchedError::ContainsLoops`] / [`SchedError::ContainsCalls`]
    /// if coarse-grain transformations have not yet removed loops and calls.
    pub fn build(function: &Function) -> Result<Self, SchedError> {
        GRAPH_BUILDS.fetch_add(1, Ordering::Relaxed);
        if function.loop_count() > 0 {
            return Err(SchedError::ContainsLoops);
        }
        let mut graph = DependenceGraph {
            ranges: SecondaryMap::with_capacity(function.ops.len()),
            guard_ids: SecondaryMap::with_capacity(function.ops.len()),
            blocks: SecondaryMap::with_capacity(function.ops.len()),
            ..DependenceGraph::default()
        };
        walk_guards(function, |guard, block, ops| {
            let gid = graph.guard_table.intern(guard);
            for &op_id in ops {
                graph.order.push(op_id);
                graph.guard_ids.insert(op_id, gid);
                graph.blocks.insert(op_id, block);
            }
        })?;
        graph.guard_table.seal();

        // Data dependences by program order. The edges of each consumer are
        // appended to the flat list as they are found, so every operation's
        // range is contiguous and the ranges follow `order`.
        let (mut last_defs, mut last_uses) = Histories::sized_for(function, &graph);
        let DependenceGraph {
            ref order,
            ref mut edges,
            ref mut ranges,
            ref guard_ids,
            ref guard_table,
            ..
        } = graph;
        for &op_id in order {
            let op = &function.ops[op_id];
            let gid = guard_ids[&op_id];
            let start = edges.len() as u32;

            // Control dependences: the op depends on the producers of every
            // condition in its guard that can run in the same pass.
            for &(cond, _) in &guard_table.guard(gid).terms {
                if let Some(cond_var) = cond.as_var() {
                    for &producer in last_defs.of(cond_var) {
                        if guard_table.mutually_exclusive(guard_ids[&producer], gid) {
                            continue;
                        }
                        edges.push(Dependence {
                            from: producer,
                            kind: DepKind::Control,
                            var: cond_var,
                        });
                    }
                }
            }

            // Flow dependences on every operand.
            for used in op.uses_iter() {
                for &producer in last_defs.of(used) {
                    if !guard_table.mutually_exclusive(guard_ids[&producer], gid) {
                        edges.push(Dependence {
                            from: producer,
                            kind: DepKind::Flow,
                            var: used,
                        });
                    }
                }
            }

            if let Some(defined) = op.def() {
                // Output dependences on earlier defs, anti dependences on earlier uses.
                for &producer in last_defs.of(defined) {
                    if !guard_table.mutually_exclusive(guard_ids[&producer], gid) {
                        edges.push(Dependence {
                            from: producer,
                            kind: DepKind::Output,
                            var: defined,
                        });
                    }
                }
                for &reader in last_uses.of(defined) {
                    if reader != op_id && !guard_table.mutually_exclusive(guard_ids[&reader], gid) {
                        edges.push(Dependence {
                            from: reader,
                            kind: DepKind::Anti,
                            var: defined,
                        });
                    }
                }
            }

            // Update access history. An unconditional scalar definition is
            // the only earlier write a later access can depend on: a later
            // read sees its value, and a later write is ordered after every
            // earlier access through this op's own Output and Anti edges. So
            // it clears the variable's histories before joining them. A
            // guarded definition may not run, and an array write sets one
            // element only; neither clears anything.
            if let Some(defined) = op.def() {
                if gid == GuardId::UNCONDITIONAL && !function.vars[defined].is_array() {
                    last_defs.kill(defined);
                    last_uses.kill(defined);
                }
            }
            // A guard condition is read too: when it is defined again later,
            // that definition must not move above this op, so the op joins
            // the condition's use history.
            for used in op.uses_iter() {
                last_uses.push(used, op_id);
            }
            for &(cond, _) in &guard_table.guard(gid).terms {
                if let Some(cond_var) = cond.as_var() {
                    if !last_defs.is_full(cond_var) {
                        last_uses.push(cond_var, op_id);
                    }
                }
            }
            if let Some(defined) = op.def() {
                last_defs.push(defined, op_id);
            }

            ranges.insert(op_id, (start, edges.len() as u32));
        }
        Ok(graph)
    }

    /// Number of [`DependenceGraph::build`] calls in this process.
    pub fn build_count() -> usize {
        GRAPH_BUILDS.load(Ordering::Relaxed)
    }

    /// Guard of an operation (unconditional if unknown).
    pub fn guard_of(&self, op: OpId) -> Guard {
        self.guard_ids
            .get(&op)
            .map(|&id| self.guard_table.guard(id).clone())
            .unwrap_or_default()
    }

    /// Interned guard id of an operation, if it is part of the graph.
    pub fn guard_id_of(&self, op: OpId) -> Option<GuardId> {
        self.guard_ids.get(&op).copied()
    }

    /// Basic block of an operation, if it is part of the graph. Wire
    /// insertion moves no scheduled operation to another block, so the
    /// answer holds for the rewritten function too.
    pub fn block_of(&self, op: OpId) -> Option<BlockId> {
        self.blocks.get(&op).copied()
    }

    /// The guard interner and precomputed exclusion bitset.
    pub fn guard_table(&self) -> &GuardTable {
        &self.guard_table
    }

    /// Returns `true` if the two operations can never execute in the same run
    /// (they sit in opposite branches of some condition).
    pub fn mutually_exclusive(&self, a: OpId, b: OpId) -> bool {
        match (self.guard_ids.get(&a), self.guard_ids.get(&b)) {
            (Some(&ga), Some(&gb)) => self.guard_table.mutually_exclusive(ga, gb),
            _ => false,
        }
    }

    /// Incoming dependences of an operation (empty if it is not part of the
    /// graph).
    pub fn preds_of(&self, op: OpId) -> &[Dependence] {
        match self.ranges.get(&op) {
            Some(&(start, end)) => &self.edges[start as usize..end as usize],
            None => &[],
        }
    }
}

/// The def (or use) history of every variable during the program-order
/// scan of [`DependenceGraph::build`], in one flat array.
///
/// A counting pre-pass gives each variable one range, sized to its total
/// number of accesses; the scan fills a variable's range front to back as it
/// reaches the accesses, so the filled part is the history so far, in
/// program order. A kill moves the history's start up to its end, so the
/// accesses before it drop out. A def range is full once the scan has
/// passed the variable's last definition.
struct Histories {
    /// Accessing operations, grouped by variable.
    ops: Vec<OpId>,
    /// Start of each variable's live history in `ops`.
    start: Vec<u32>,
    /// One past the last filled slot of each variable's range.
    end: Vec<u32>,
    /// One past the last slot of each variable's range.
    limit: Vec<u32>,
}

impl Histories {
    /// Empty def and use histories with one range per variable of
    /// `function`, sized by the accesses of the operations in `graph.order`:
    /// their definitions, their operands and the conditions of their guards.
    /// Guard reads are counted whether or not the scan records them.
    fn sized_for(function: &Function, graph: &DependenceGraph) -> (Histories, Histories) {
        let vars = function.vars.len();
        let mut def_counts = vec![0u32; vars];
        let mut use_counts = vec![0u32; vars];
        for &op_id in &graph.order {
            let op = &function.ops[op_id];
            for used in op.uses_iter() {
                use_counts[used.index()] += 1;
            }
            let guard = graph.guard_table.guard(graph.guard_ids[&op_id]);
            for (cond, _) in &guard.terms {
                if let Some(cond_var) = cond.as_var() {
                    use_counts[cond_var.index()] += 1;
                }
            }
            if let Some(defined) = op.def() {
                def_counts[defined.index()] += 1;
            }
        }
        (
            Histories::with_counts(def_counts),
            Histories::with_counts(use_counts),
        )
    }

    /// Turns per-variable access counts into empty ranges (the counts
    /// become the start offsets in place).
    fn with_counts(mut counts: Vec<u32>) -> Histories {
        let mut total = 0u32;
        let mut limit = Vec::with_capacity(counts.len());
        for count in &mut counts {
            let len = *count;
            *count = total;
            total += len;
            limit.push(total);
        }
        Histories {
            // Placeholders: a slot is always written before `of` exposes it.
            ops: vec![OpId::from_raw(0); total as usize],
            end: counts.clone(),
            start: counts,
            limit,
        }
    }

    /// True once every access of `var` counted by the pre-pass is in its
    /// history.
    #[inline]
    fn is_full(&self, var: VarId) -> bool {
        let v = var.index();
        self.end[v] == self.limit[v]
    }

    /// The history of `var` so far.
    #[inline]
    fn of(&self, var: VarId) -> &[OpId] {
        let v = var.index();
        &self.ops[self.start[v] as usize..self.end[v] as usize]
    }

    /// Forgets the history of `var` so far; later pushes start a new one.
    #[inline]
    fn kill(&mut self, var: VarId) {
        let v = var.index();
        self.start[v] = self.end[v];
    }

    /// Appends `op` to the history of `var`.
    #[inline]
    fn push(&mut self, var: VarId, op: OpId) {
        let slot = &mut self.end[var.index()];
        self.ops[*slot as usize] = op;
        *slot += 1;
    }
}

/// Walks the HTG of `function` in program order and calls `visit` once per
/// basic block with the block's guard, the block and its live operations.
///
/// This is the one guard walk: [`DependenceGraph::build`] interns its guards
/// from it, and [`Controller::build`](crate::Controller::build) reads the
/// guards of the function that wire insertion rewrote.
///
/// # Errors
/// Returns [`SchedError::ContainsLoops`] at a loop node and
/// [`SchedError::ContainsCalls`] at a live call.
pub(crate) fn walk_guards(
    function: &Function,
    mut visit: impl FnMut(&Guard, BlockId, &[OpId]),
) -> Result<(), SchedError> {
    walk_region(
        function,
        function.body,
        &mut Guard::default(),
        &mut Vec::new(),
        &mut visit,
    )
}

fn walk_region(
    function: &Function,
    region: RegionId,
    guard: &mut Guard,
    live: &mut Vec<OpId>,
    visit: &mut impl FnMut(&Guard, BlockId, &[OpId]),
) -> Result<(), SchedError> {
    for &node in &function.regions[region].nodes {
        match &function.nodes[node] {
            HtgNode::Block(b) => {
                live.clear();
                for &op_id in &function.blocks[*b].ops {
                    let op = &function.ops[op_id];
                    if op.dead {
                        continue;
                    }
                    if matches!(op.kind, spark_ir::OpKind::Call { .. }) {
                        return Err(SchedError::ContainsCalls);
                    }
                    live.push(op_id);
                }
                visit(guard, *b, live);
            }
            HtgNode::If(i) => {
                guard.terms.push((i.cond, true));
                walk_region(function, i.then_region, guard, live, visit)?;
                guard.terms.pop();
                guard.terms.push((i.cond, false));
                walk_region(function, i.else_region, guard, live, visit)?;
                guard.terms.pop();
            }
            HtgNode::Loop(_) => return Err(SchedError::ContainsLoops),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type};

    #[test]
    fn guards_and_mutual_exclusion() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let before = b.copy(x, Value::word(0));
        b.if_begin(Value::Var(c));
        let then_op = b.copy(x, Value::word(1));
        b.else_begin();
        let else_op = b.copy(x, Value::word(2));
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert!(graph.guard_of(before).is_unconditional());
        assert!(!graph.guard_of(then_op).is_unconditional());
        assert!(graph.mutually_exclusive(then_op, else_op));
        assert!(!graph.mutually_exclusive(before, then_op));
    }

    #[test]
    fn interned_exclusion_matches_guard_reference() {
        // Nested conditionals: every op pair's bitset answer must equal the
        // term-by-term `Guard::mutually_exclusive` reference.
        let mut b = FunctionBuilder::new("f");
        let c1 = b.param("c1", Type::Bool);
        let c2 = b.param("c2", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.copy(x, Value::word(0));
        b.if_begin(Value::Var(c1));
        b.if_begin(Value::Var(c2));
        b.copy(x, Value::word(1));
        b.else_begin();
        b.copy(x, Value::word(2));
        b.if_end();
        b.else_begin();
        b.copy(x, Value::word(3));
        b.if_end();
        b.if_begin(Value::Var(c2));
        b.copy(x, Value::word(4));
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        for &a in &graph.order {
            for &b in &graph.order {
                assert_eq!(
                    graph.mutually_exclusive(a, b),
                    graph.guard_of(a).mutually_exclusive(&graph.guard_of(b)),
                    "ops {a:?} / {b:?}"
                );
            }
        }
    }

    #[test]
    fn guard_ids_are_shared_within_a_branch_context() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        let t1 = b.copy(x, Value::word(1));
        let t2 = b.copy(x, Value::word(2));
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert_eq!(graph.guard_id_of(t1), graph.guard_id_of(t2));
        assert_ne!(graph.guard_id_of(t1), Some(GuardId::UNCONDITIONAL));
        // Three contexts: unconditional (always interned), then-branch — and
        // the sealed table answers self-exclusion queries.
        assert!(graph.guard_table().len() >= 2);
        let gid = graph.guard_id_of(t1).unwrap();
        assert!(!graph.guard_table().mutually_exclusive(gid, gid));
    }

    #[test]
    fn build_counter_counts_from_scratch_builds() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        b.copy(x, Value::word(1));
        let f = b.finish();
        let before = DependenceGraph::build_count();
        let _ = DependenceGraph::build(&f).unwrap();
        let _ = DependenceGraph::build(&f).unwrap();
        // Other tests run concurrently in this process, so the counter may
        // move by more than our own two builds — never by less.
        assert!(DependenceGraph::build_count() >= before + 2);
    }

    #[test]
    fn flat_ranges_cover_edges_in_order() {
        // Nested conditionals and a redefinition give every edge kind.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.var("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Gt, c, vec![Value::Var(a), Value::word(3)]);
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.if_begin(Value::Var(c));
        b.assign(OpKind::Add, x, vec![Value::Var(x), Value::Var(x)]);
        b.else_begin();
        b.copy(x, Value::word(2));
        b.if_end();
        let dead = b.assign(OpKind::Add, x, vec![Value::Var(x), Value::Var(a)]);
        let mut f = b.finish();
        f.ops[dead].dead = true;
        let graph = DependenceGraph::build(&f).unwrap();
        // Consecutive ranges in `order` tile the flat edge list exactly.
        let mut next = 0;
        for &op in &graph.order {
            let (start, end) = graph.ranges[&op];
            assert_eq!(
                start as usize, next,
                "range of {op:?} starts where the last ended"
            );
            assert!(start <= end);
            assert_eq!(
                graph.preds_of(op),
                &graph.edges[start as usize..end as usize]
            );
            next = end as usize;
        }
        assert_eq!(next, graph.edges.len());
        assert!(!graph.edges.is_empty());
        // An op outside the graph (here: a dead one) has no edges.
        assert!(!graph.order.contains(&dead));
        assert_eq!(graph.preds_of(dead), &[]);
    }

    #[test]
    fn flow_and_control_edges() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let cond = b.var("cond", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let def_x = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        let def_cond = b.assign(OpKind::Gt, cond, vec![Value::Var(a), Value::word(7)]);
        b.if_begin(Value::Var(cond));
        let use_x = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let preds = graph.preds_of(use_x);
        assert!(preds
            .iter()
            .any(|d| d.from == def_x && d.kind == DepKind::Flow));
        assert!(preds
            .iter()
            .any(|d| d.from == def_cond && d.kind == DepKind::Control));
    }

    #[test]
    fn anti_and_output_edges() {
        let mut b = FunctionBuilder::new("f");
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let def1 = b.copy(x, Value::word(1));
        let reader = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        let def2 = b.copy(x, Value::word(2));
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let preds = graph.preds_of(def2);
        assert!(preds
            .iter()
            .any(|d| d.from == def1 && d.kind == DepKind::Output));
        assert!(preds
            .iter()
            .any(|d| d.from == reader && d.kind == DepKind::Anti));
    }

    #[test]
    fn guard_reads_order_a_later_redefinition_of_the_condition() {
        // An unrolled loop reuses its condition temporary: the second
        // iteration's compare must stay after the first iteration's guarded
        // store, or the store sees the wrong condition.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.var("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Gt, c, vec![Value::Var(a), Value::word(100)]);
        b.if_begin(Value::Var(c));
        let guarded = b.copy(x, Value::word(1));
        b.if_end();
        let redefine = b.assign(OpKind::Gt, c, vec![Value::Var(a), Value::word(200)]);
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert!(graph
            .preds_of(redefine)
            .iter()
            .any(|d| d.from == guarded && d.kind == DepKind::Anti && d.var == c));
    }

    #[test]
    fn control_edges_skip_condition_writes_in_the_other_branch() {
        // `d` is written under `c` and read as a guard only under `!c`: the
        // guarded op depends on the unconditional `d = e` alone.
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let e = b.param("e", Type::Bool);
        let d = b.var("d", Type::Bool);
        let x = b.output("x", Type::Bits(8));
        let outer = b.copy(d, Value::Var(e));
        b.if_begin(Value::Var(c));
        let then_def = b.assign(OpKind::Gt, d, vec![Value::Var(a), Value::word(3)]);
        b.else_begin();
        b.if_begin(Value::Var(d));
        let guarded = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        b.if_end();
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let controls: Vec<OpId> = graph
            .preds_of(guarded)
            .iter()
            .filter(|dep| dep.kind == DepKind::Control)
            .map(|dep| dep.from)
            .collect();
        assert_eq!(controls, vec![outer]);
        assert!(graph.mutually_exclusive(then_def, guarded));
    }

    /// The sources of `op`'s incoming edges of `kind`.
    fn sources(graph: &DependenceGraph, op: OpId, kind: DepKind) -> Vec<OpId> {
        graph
            .preds_of(op)
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.from)
            .collect()
    }

    #[test]
    fn unconditional_redefinition_cuts_edges_to_earlier_accesses() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let first = b.copy(x, Value::Var(a));
        let early_read = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        let kill = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(2)]);
        let late_read = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(3)]);
        let last = b.copy(x, Value::word(4));
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert_eq!(sources(&graph, kill, DepKind::Output), vec![first]);
        assert_eq!(sources(&graph, kill, DepKind::Anti), vec![early_read]);
        assert_eq!(sources(&graph, late_read, DepKind::Flow), vec![kill]);
        assert_eq!(sources(&graph, last, DepKind::Output), vec![kill]);
        assert_eq!(sources(&graph, last, DepKind::Anti), vec![late_read]);
    }

    #[test]
    fn guarded_redefinition_keeps_edges_to_earlier_accesses() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let first = b.copy(x, Value::Var(a));
        let early_read = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(1)]);
        b.if_begin(Value::Var(c));
        let guarded = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(2)]);
        b.if_end();
        let late_read = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::word(3)]);
        let last = b.copy(x, Value::word(4));
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert_eq!(
            sources(&graph, late_read, DepKind::Flow),
            vec![first, guarded]
        );
        assert_eq!(sources(&graph, last, DepKind::Output), vec![first, guarded]);
        assert_eq!(
            sources(&graph, last, DepKind::Anti),
            vec![early_read, late_read]
        );
    }

    #[test]
    fn unconditional_array_write_kills_nothing() {
        let mut b = FunctionBuilder::new("f");
        let i = b.param("i", Type::Bits(2));
        let arr = b.array("arr", Type::Bits(8), 4);
        let t = b.var("t", Type::Bits(8));
        let first = b.array_write(arr, Value::word(0), Value::word(5));
        let early_read = b.array_read(t, arr, Value::Var(i));
        let second = b.array_write(arr, Value::word(1), Value::word(6));
        let late_read = b.array_read(t, arr, Value::Var(i));
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        assert_eq!(sources(&graph, second, DepKind::Output), vec![first]);
        assert_eq!(sources(&graph, second, DepKind::Anti), vec![early_read]);
        assert_eq!(
            sources(&graph, late_read, DepKind::Flow),
            vec![first, second]
        );
    }

    #[test]
    fn cross_branch_dependences_are_dropped() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        let then_def = b.copy(x, Value::word(1));
        b.else_begin();
        let else_def = b.copy(x, Value::word(2));
        b.if_end();
        let f = b.finish();
        let graph = DependenceGraph::build(&f).unwrap();
        let preds = graph.preds_of(else_def);
        assert!(
            !preds.iter().any(|d| d.from == then_def),
            "mutually exclusive defs do not order each other"
        );
    }

    #[test]
    fn loops_and_calls_are_rejected() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i", Type::Bits(8));
        b.for_begin(i, 0, Value::word(3), 1);
        b.copy(i, Value::Var(i));
        b.loop_end();
        let f = b.finish();
        assert_eq!(
            DependenceGraph::build(&f).unwrap_err(),
            SchedError::ContainsLoops
        );

        let mut b = FunctionBuilder::new("g");
        let r = b.var("r", Type::Bits(8));
        b.call(Some(r), "h", vec![]);
        let f = b.finish();
        assert_eq!(
            DependenceGraph::build(&f).unwrap_err(),
            SchedError::ContainsCalls
        );
    }
}
