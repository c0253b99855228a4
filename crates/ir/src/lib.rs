//! # spark-ir — behavioral IR for the Spark HLS reproduction
//!
//! This crate provides the intermediate representation used throughout the
//! reproduction of *"Coordinated Transformations for High-Level Synthesis of
//! High Performance Microprocessor Blocks"* (Gupta et al., DAC 2002):
//!
//! * a variable-based (non-SSA) operation set ([`OpKind`], [`Operation`]),
//!   matching Spark's model in which every variable is initially a virtual
//!   register and *wire-variables* are explicitly marked;
//! * basic blocks and a **hierarchical task graph** ([`HtgNode`], [`Region`])
//!   with `if` and loop compound nodes, the structure on which speculative
//!   code motions and loop transformations operate;
//! * a structured [`FunctionBuilder`], a flattened [`Cfg`] with backward
//!   *chaining trails*, def–use analysis, a reference [`Interpreter`] (the
//!   golden semantics every transformation must preserve) and a structural
//!   [`verify`] pass.
//!
//! # Examples
//!
//! Build a small conditional function and execute it:
//!
//! ```
//! use spark_ir::{Env, FunctionBuilder, Interpreter, OpKind, Program, Type, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new("abs_diff");
//! let x = b.param("x", Type::Bits(8));
//! let y = b.param("y", Type::Bits(8));
//! let out = b.var("out", Type::Bits(8));
//! let gt = b.compute(OpKind::Gt, Type::Bool, vec![Value::Var(x), Value::Var(y)]);
//! b.if_begin(Value::Var(gt));
//! b.assign(OpKind::Sub, out, vec![Value::Var(x), Value::Var(y)]);
//! b.else_begin();
//! b.assign(OpKind::Sub, out, vec![Value::Var(y), Value::Var(x)]);
//! b.if_end();
//! b.ret(Value::Var(out));
//!
//! let mut program = Program::new();
//! program.add_function(b.finish());
//! let outcome = Interpreter::new(&program)
//!     .run("abs_diff", &Env::new().with_scalar("x", 3).with_scalar("y", 10))?;
//! assert_eq!(outcome.return_value, Some(7));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod analysis;
mod arena;
mod block;
mod builder;
mod cfg;
mod defuse;
mod dense;
mod display;
mod function;
mod htg;
mod interp;
mod op;
mod program;
mod types;
mod value;
mod var;
mod verify;

pub use analysis::FunctionStats;
pub use arena::{Arena, Id};
pub use block::{BasicBlock, BlockId};
pub use builder::FunctionBuilder;
pub use cfg::{Cfg, CfgNode, CfgNodeKind, TrailCounter};
pub use defuse::{DefUseGraph, EditLog, Rewriter};
pub use dense::{DenseKey, SecondaryMap};
pub use function::Function;
pub use htg::{HtgNode, IfNode, LoopKind, LoopNode, NodeId, Region, RegionId};
pub use interp::{Env, EvalError, Interpreter, Outcome};
pub use op::{OpId, OpKind, Operation};
pub use program::Program;
pub use types::Type;
pub use value::{Constant, Value};
pub use var::{PortDirection, StorageClass, Var, VarId};
pub use verify::{verify, VerifyError};
