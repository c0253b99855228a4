//! Shared analysis state for the worklist-driven fine-grain passes.
//!
//! Propagation, CSE and dead code elimination all operate over the same two
//! whole-function analyses: the incrementally maintained [`DefUseGraph`]
//! and the structural [`Positions`]. [`FineState`] bundles them so the
//! `spark-core` pass manager can build them once per fine-grain phase and
//! thread them through every pass, and so a wrapper entry point
//! (`propagation(&mut Function)` and friends) can build a fresh state for
//! stand-alone use.
//!
//! Positions survive the whole phase because the fine passes only rewrite
//! operations in place or erase them — they never move an operation between
//! blocks, and pruning emptied structure does not change the region chain of
//! any surviving operation. The graph survives because every mutation goes
//! through the [`Rewriter`](spark_ir::Rewriter); in debug builds each pass
//! re-checks the graph against a from-scratch rebuild before returning.
//!
//! The state carries analyses only, not work: every pass starts its
//! worklist from the function itself (see each pass for where), so no pass
//! depends on what an earlier one touched.

use spark_ir::{DefUseGraph, Function, OpId};

use crate::position::Positions;

/// The analyses shared by the fine-grain worklist passes.
#[derive(Clone, Debug)]
pub struct FineState {
    /// Incrementally maintained def–use chains and op→block ownership.
    pub graph: DefUseGraph,
    /// Structural positions and the dominance test.
    pub positions: Positions,
}

impl FineState {
    /// Builds both analyses from scratch for `function`.
    pub fn new(function: &Function) -> Self {
        FineState {
            graph: DefUseGraph::compute(function),
            positions: Positions::compute(function),
        }
    }

    /// Debug-mode consistency check: the incrementally maintained graph must
    /// equal a from-scratch rebuild. Compiled to nothing in release builds.
    pub fn debug_check(&self, function: &Function) {
        if cfg!(debug_assertions) {
            self.graph.assert_consistent(function);
        }
    }
}

/// A FIFO worklist of operations with O(1) membership dedup.
///
/// Processing order is deterministic (start order, then discovery order),
/// which keeps pass behaviour reproducible run over run.
#[derive(Debug, Default)]
pub(crate) struct OpQueue {
    queue: std::collections::VecDeque<OpId>,
    queued: Vec<bool>,
}

impl OpQueue {
    /// A queue of `ops`, in order.
    pub(crate) fn of(ops: impl IntoIterator<Item = OpId>) -> Self {
        let mut queue = OpQueue::default();
        for op in ops {
            queue.push(op);
        }
        queue
    }

    pub(crate) fn push(&mut self, op: OpId) {
        let index = op.index();
        if index >= self.queued.len() {
            self.queued.resize(index + 1, false);
        }
        if !self.queued[index] {
            self.queued[index] = true;
            self.queue.push_back(op);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<OpId> {
        let op = self.queue.pop_front()?;
        self.queued[op.index()] = false;
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_ir::{FunctionBuilder, OpKind, Type, Value};

    #[test]
    fn op_queue_dedups_until_popped() {
        let mut q = OpQueue::default();
        let a = OpId::from_raw(3);
        let b = OpId::from_raw(1);
        q.push(a);
        q.push(b);
        q.push(a);
        assert_eq!(q.pop(), Some(a));
        q.push(a); // re-queuable once popped
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), Some(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fine_state_builds_consistent_analyses() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        let f = b.finish();
        let state = FineState::new(&f);
        state.debug_check(&f);
        assert_eq!(state.graph.uses_of(a).len(), 1);
        assert!(state
            .positions
            .order_of(state.graph.defs_of(x)[0])
            .is_some());
    }
}
