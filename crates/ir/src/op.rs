//! Operations: the nodes of the control/data flow graph.
//!
//! Each operation reads a small number of [`Value`] operands, optionally
//! writes a destination variable, and belongs to exactly one basic block.
//! Scheduling assigns operations to control steps; binding maps them onto
//! functional units.

use crate::arena::Id;
use crate::types::Type;
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

    /// What a pure operation computes: the one definition the interpreter,
    /// the RTL simulator and constant folding all call.
    ///
    /// `arg(i)` reads the value of operand `i`, only when the kind needs it
    /// (a `Select` reads the arm it picks). `low_width` gives the width of
    /// the low operand of a `Concat`; it is called only for `Concat`, so a
    /// caller can look the width up lazily. The result
    /// is not truncated: the caller's store masks it to the destination
    /// width. A shift by 64 or more gives 0, as `shift_left` and
    /// `shift_right` of `numeric_std` do, and so does the high part of a
    /// `Concat` whose low operand is 64 bits wide.
    ///
    /// Returns `None` for the kinds that are not pure (array accesses,
    /// calls, returns) and when an operand is missing.
    #[inline]
    pub fn eval(
        &self,
        mut a: impl FnMut(usize) -> Option<u64>,
        low_width: impl FnOnce() -> u16,
    ) -> Option<u64> {
        Some(match self {
            OpKind::Add => a(0)?.wrapping_add(a(1)?),
            OpKind::Sub => a(0)?.wrapping_sub(a(1)?),
            OpKind::Mul => a(0)?.wrapping_mul(a(1)?),
            OpKind::And => a(0)? & a(1)?,
            OpKind::Or => a(0)? | a(1)?,
            OpKind::Xor => a(0)? ^ a(1)?,
            OpKind::Not => !a(0)?,
            OpKind::Shl => shift(a(0)?, a(1)?, u64::checked_shl),
            OpKind::Shr => shift(a(0)?, a(1)?, u64::checked_shr),
            OpKind::Eq => (a(0)? == a(1)?) as u64,
            OpKind::Ne => (a(0)? != a(1)?) as u64,
            OpKind::Lt => (a(0)? < a(1)?) as u64,
            OpKind::Le => (a(0)? <= a(1)?) as u64,
            OpKind::Gt => (a(0)? > a(1)?) as u64,
            OpKind::Ge => (a(0)? >= a(1)?) as u64,
            OpKind::Copy => a(0)?,
            OpKind::Select => {
                if a(0)? != 0 {
                    a(1)?
                } else {
                    a(2)?
                }
            }
            OpKind::Slice { hi, lo } => (a(0)? >> lo) & Type::Bits(hi - lo + 1).mask(),
            OpKind::Concat => {
                let (high, low) = (a(0)?, a(1)?);
                shift(high, u64::from(low_width()), u64::checked_shl) | low
            }
            OpKind::ArrayRead { .. }
            | OpKind::ArrayWrite { .. }
            | OpKind::Call { .. }
            | OpKind::Return => return None,
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

/// `value` shifted by `amount` bits with `by`; an amount of 64 or more
/// shifts every bit out.
#[inline]
fn shift(value: u64, amount: u64, by: fn(u64, u32) -> Option<u64>) -> u64 {
    u32::try_from(amount)
        .ok()
        .and_then(|amount| by(value, amount))
        .unwrap_or(0)
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
    fn eval_covers_all_pure_kinds() {
        let eval = |kind: OpKind, args: &[u64]| {
            let no_width = || -> u16 { panic!("only a Concat reads the low width") };
            kind.eval(|i| args.get(i).copied(), no_width)
        };
        assert_eq!(eval(OpKind::Sub, &[5, 3]), Some(2));
        assert_eq!(eval(OpKind::And, &[0b1100, 0b1010]), Some(0b1000));
        assert_eq!(eval(OpKind::Or, &[0b1100, 0b1010]), Some(0b1110));
        assert_eq!(eval(OpKind::Xor, &[0b1100, 0b1010]), Some(0b0110));
        assert_eq!(eval(OpKind::Shl, &[1, 4]), Some(16));
        assert_eq!(eval(OpKind::Shr, &[16, 4]), Some(1));
        assert_eq!(eval(OpKind::Lt, &[1, 2]), Some(1));
        assert_eq!(eval(OpKind::Ge, &[1, 2]), Some(0));
        assert_eq!(eval(OpKind::Slice { hi: 3, lo: 2 }, &[0b1100]), Some(0b11));
        assert_eq!(eval(OpKind::Select, &[0, 7, 9]), Some(9));
        assert_eq!(eval(OpKind::Return, &[1]), None);
        assert_eq!(eval(OpKind::ArrayRead { array: v(0) }, &[1]), None);
        // A missing operand is not read as zero; a Select reads only the
        // arm it picks.
        assert_eq!(eval(OpKind::Add, &[1]), None);
        assert_eq!(eval(OpKind::Select, &[0, 2]), None);
        assert_eq!(eval(OpKind::Select, &[1, 2]), Some(2));
        // Shifting by 64 or more shifts every bit out, as does a Concat over
        // a 64-bit low operand.
        let top = 1u64 << 63;
        assert_eq!(eval(OpKind::Shl, &[1, 63]), Some(top));
        assert_eq!(eval(OpKind::Shr, &[top, 63]), Some(1));
        for amount in [64, 200, u64::MAX] {
            assert_eq!(eval(OpKind::Shl, &[1, amount]), Some(0));
            assert_eq!(eval(OpKind::Shr, &[top, amount]), Some(0));
        }
        let concat = |low_width| OpKind::Concat.eval(|i| [1, 7].get(i).copied(), || low_width);
        assert_eq!(concat(4), Some(0x17));
        assert_eq!(concat(64), Some(7));
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(OpKind::Add.mnemonic(), "add");
        assert_eq!(OpKind::Select.to_string(), "select");
        assert_eq!(OpKind::Slice { hi: 3, lo: 0 }.mnemonic(), "slice");
    }
}
