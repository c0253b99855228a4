//! Operations: the nodes of the control/data flow graph.
//!
//! Each operation reads a small number of [`Value`] operands, optionally
//! writes a destination variable, and belongs to exactly one basic block.
//! Scheduling assigns operations to control steps; binding maps them onto
//! functional units.

use crate::arena::Id;
use crate::value::Value;
use crate::var::VarId;
use std::fmt;

/// Typed id of an [`Operation`] inside its owning function.
pub type OpId = Id<Operation>;

/// The computation performed by an operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `dest = a + b`
    Add,
    /// `dest = a - b`
    Sub,
    /// `dest = a * b`
    Mul,
    /// `dest = a & b`
    And,
    /// `dest = a | b`
    Or,
    /// `dest = a ^ b`
    Xor,
    /// `dest = !a` (bitwise complement within the destination width)
    Not,
    /// `dest = a << b`
    Shl,
    /// `dest = a >> b` (logical)
    Shr,
    /// `dest = a == b`
    Eq,
    /// `dest = a != b`
    Ne,
    /// `dest = a < b` (unsigned)
    Lt,
    /// `dest = a <= b` (unsigned)
    Le,
    /// `dest = a > b` (unsigned)
    Gt,
    /// `dest = a >= b` (unsigned)
    Ge,
    /// `dest = a` — a variable copy. Copies are free in hardware (wires) and
    /// are inserted/removed liberally by the wire-variable transformation and
    /// copy propagation.
    Copy,
    /// `dest = cond ? a : b` — a multiplexer. Produced when control logic is
    /// collapsed into steering logic (speculation, Figure 11).
    Select,
    /// `dest = a[hi:lo]` — bit-field extraction; `hi`/`lo` are stored in the
    /// kind, the single operand is the source.
    Slice {
        /// Most-significant extracted bit (inclusive).
        hi: u16,
        /// Least-significant extracted bit (inclusive).
        lo: u16,
    },
    /// `dest = {a, b}` — bit concatenation, `a` forms the high bits.
    Concat,
    /// `dest = array[index]` — operands are `[index]`, the array is named by
    /// the kind so def/use analysis can distinguish element data flow.
    ArrayRead {
        /// The array variable being read.
        array: VarId,
    },
    /// `array[index] = value` — operands are `[index, value]`; there is no
    /// scalar destination. Array writes to output arrays are side effects.
    ArrayWrite {
        /// The array variable being written.
        array: VarId,
    },
    /// `dest = callee(args...)` — a call to another behavioral function.
    /// Removed by inlining before scheduling.
    Call {
        /// Name of the called function within the program.
        callee: String,
    },
    /// `return a` — terminates the function, yielding `a` as its result.
    Return,
}

impl OpKind {
    /// Returns `true` for comparison operations producing a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            OpKind::Eq | OpKind::Ne | OpKind::Lt | OpKind::Le | OpKind::Gt | OpKind::Ge
        )
    }

    /// Returns `true` for two-operand arithmetic/logical operations whose
    /// operands may be commuted.
    pub fn is_commutative(&self) -> bool {
        matches!(
            self,
            OpKind::Add
                | OpKind::Mul
                | OpKind::And
                | OpKind::Or
                | OpKind::Xor
                | OpKind::Eq
                | OpKind::Ne
        )
    }

    /// Returns `true` if the operation has side effects beyond writing its
    /// destination variable (array writes, calls, returns). Such operations
    /// are never removed by dead code elimination on the basis of an unused
    /// destination alone.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            OpKind::ArrayWrite { .. } | OpKind::Call { .. } | OpKind::Return
        )
    }

    /// Number of value operands the kind expects, or `None` for variadic
    /// kinds (calls).
    pub fn arity(&self) -> Option<usize> {
        Some(match self {
            OpKind::Not | OpKind::Copy | OpKind::Slice { .. } | OpKind::Return => 1,
            OpKind::ArrayRead { .. } => 1,
            OpKind::ArrayWrite { .. } => 2,
            OpKind::Select => 3,
            OpKind::Call { .. } => return None,
            _ => 2,
        })
    }

    /// A short mnemonic used by the pretty-printer and RTL naming.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Not => "not",
            OpKind::Shl => "shl",
            OpKind::Shr => "shr",
            OpKind::Eq => "eq",
            OpKind::Ne => "ne",
            OpKind::Lt => "lt",
            OpKind::Le => "le",
            OpKind::Gt => "gt",
            OpKind::Ge => "ge",
            OpKind::Copy => "copy",
            OpKind::Select => "select",
            OpKind::Slice { .. } => "slice",
            OpKind::Concat => "concat",
            OpKind::ArrayRead { .. } => "aread",
            OpKind::ArrayWrite { .. } => "awrite",
            OpKind::Call { .. } => "call",
            OpKind::Return => "return",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single operation of the behavioral description.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// What the operation computes.
    pub kind: OpKind,
    /// Destination variable, if the operation produces a scalar result.
    pub dest: Option<VarId>,
    /// Operand values, in positional order (see [`OpKind`] docs).
    pub args: Vec<Value>,
    /// Set when the operation has been removed by a transformation. Dead
    /// operations stay in the arena (ids remain stable) but are skipped by
    /// every traversal.
    pub dead: bool,
    /// Set when the operation was hoisted speculatively above the condition it
    /// originally depended on (Section 3 of the paper). Purely informational:
    /// used in reports and pretty-printing.
    pub speculative: bool,
}

impl Operation {
    /// Creates a new live operation.
    pub fn new(kind: OpKind, dest: Option<VarId>, args: Vec<Value>) -> Self {
        Operation {
            kind,
            dest,
            args,
            dead: false,
            speculative: false,
        }
    }

    /// Marks the operation dead and drops its operands. A dead operation
    /// keeps its arena slot (ids stay stable) and its kind, but no operand
    /// `Vec`, so cloning the owning function allocates nothing for it.
    pub fn kill(&mut self) {
        self.dead = true;
        self.args = Vec::new();
    }

    /// Variables read by this operation (operands plus array sources).
    pub fn uses(&self) -> Vec<VarId> {
        self.uses_iter().collect()
    }

    /// Allocation-free variant of [`Operation::uses`], yielding one variable
    /// per operand *occurrence* (a twice-used variable appears twice) in the
    /// same order — for the analysis inner loops that visit every operation.
    pub fn uses_iter(&self) -> impl Iterator<Item = VarId> + '_ {
        let array = match self.kind {
            OpKind::ArrayRead { array } => Some(array),
            _ => None,
        };
        self.args.iter().filter_map(|v| v.as_var()).chain(array)
    }

    /// Variable defined by this operation: the scalar destination, or the
    /// array for an array write.
    pub fn def(&self) -> Option<VarId> {
        match self.kind {
            OpKind::ArrayWrite { array } => Some(array),
            _ => self.dest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn v(i: u32) -> VarId {
        VarId::from_raw(i)
    }

    #[test]
    fn classification() {
        assert!(OpKind::Eq.is_comparison());
        assert!(!OpKind::Add.is_comparison());
        assert!(OpKind::Add.is_commutative());
        assert!(!OpKind::Sub.is_commutative());
        assert!(OpKind::ArrayWrite { array: v(0) }.has_side_effects());
        assert!(OpKind::Call { callee: "f".into() }.has_side_effects());
        assert!(!OpKind::Add.has_side_effects());
    }

    #[test]
    fn arity() {
        assert_eq!(OpKind::Add.arity(), Some(2));
        assert_eq!(OpKind::Not.arity(), Some(1));
        assert_eq!(OpKind::Select.arity(), Some(3));
        assert_eq!(OpKind::Call { callee: "f".into() }.arity(), None);
        assert_eq!(OpKind::ArrayWrite { array: v(0) }.arity(), Some(2));
    }

    #[test]
    fn uses_and_defs() {
        let op = Operation::new(
            OpKind::Add,
            Some(v(2)),
            vec![Value::Var(v(0)), Value::word(1)],
        );
        assert_eq!(op.uses(), vec![v(0)]);
        assert_eq!(op.def(), Some(v(2)));

        let read = Operation::new(
            OpKind::ArrayRead { array: v(5) },
            Some(v(1)),
            vec![Value::word(3)],
        );
        assert_eq!(read.uses(), vec![v(5)]);
        assert_eq!(read.def(), Some(v(1)));

        let write = Operation::new(
            OpKind::ArrayWrite { array: v(5) },
            None,
            vec![Value::word(3), Value::Var(v(1))],
        );
        assert_eq!(write.uses(), vec![v(1)]);
        assert_eq!(write.def(), Some(v(5)));
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(OpKind::Add.mnemonic(), "add");
        assert_eq!(OpKind::Select.to_string(), "select");
        assert_eq!(OpKind::Slice { hi: 3, lo: 0 }.mnemonic(), "slice");
    }
}
