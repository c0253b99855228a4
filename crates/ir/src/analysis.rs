//! Function-level analyses: the structural statistics reports and
//! benchmarks record per stage. Def–use chains live in
//! [`DefUseGraph`](crate::DefUseGraph); the tests below pin their semantics
//! on small functions.

use crate::function::Function;

/// Summary statistics of a function, used by reports and benchmarks to record
/// the effect of each transformation stage (operation counts per Figure of
/// the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FunctionStats {
    /// Live operations in the body.
    pub operations: usize,
    /// Basic blocks reachable from the body.
    pub blocks: usize,
    /// Conditional (`if`) HTG nodes.
    pub conditionals: usize,
    /// Loop HTG nodes.
    pub loops: usize,
    /// Maximum compound-node nesting depth.
    pub nesting_depth: usize,
    /// Declared variables (live or not).
    pub variables: usize,
}

impl FunctionStats {
    /// Gathers statistics for `function`.
    pub fn of(function: &Function) -> Self {
        FunctionStats {
            operations: function.live_op_count(),
            blocks: function.block_count(),
            conditionals: function.if_count(),
            loops: function.loop_count(),
            nesting_depth: function.nesting_depth(),
            variables: function.vars.len(),
        }
    }
}

impl std::fmt::Display for FunctionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops, {} blocks, {} ifs, {} loops, depth {}, {} vars",
            self.operations,
            self.blocks,
            self.conditionals,
            self.loops,
            self.nesting_depth,
            self.variables
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::defuse::DefUseGraph;
    use crate::op::OpKind;
    use crate::types::Type;
    use crate::value::Value;

    #[test]
    fn def_use_chains() {
        let mut b = FunctionBuilder::new("f");
        let a = b.param("a", Type::Bits(8));
        let x = b.var("x", Type::Bits(8));
        let y = b.var("y", Type::Bits(8));
        let op1 = b.assign(OpKind::Add, x, vec![Value::Var(a), Value::word(1)]);
        let op2 = b.assign(OpKind::Add, y, vec![Value::Var(x), Value::Var(x)]);
        let f = b.finish();
        let du = DefUseGraph::compute(&f);
        assert_eq!(du.defs_of(x), &[op1]);
        assert_eq!(du.uses_of(x), &[op2, op2]);
        assert_eq!(du.uses_of(a), &[op1]);
        assert!(du.has_single_def(x));
        assert!(du.is_dead(&f, y));
        assert!(!du.is_dead(&f, x));
    }

    #[test]
    fn outputs_are_never_dead() {
        let mut b = FunctionBuilder::new("f");
        let o = b.output("o", Type::Bits(8));
        b.copy(o, Value::word(1));
        let f = b.finish();
        let du = DefUseGraph::compute(&f);
        assert!(!du.is_dead(&f, o));
    }

    #[test]
    fn stats_capture_structure() {
        let mut b = FunctionBuilder::new("f");
        let c = b.param("c", Type::Bool);
        let x = b.var("x", Type::Bits(8));
        b.if_begin(Value::Var(c));
        b.copy(x, Value::word(1));
        b.if_end();
        let f = b.finish();
        let stats = FunctionStats::of(&f);
        assert_eq!(stats.operations, 1);
        assert_eq!(stats.conditionals, 1);
        assert_eq!(stats.loops, 0);
        assert_eq!(stats.nesting_depth, 1);
        assert!(stats.to_string().contains("1 ops"));
    }
}
