//! # spark-transforms — coordinated parallelizing transformations
//!
//! The coarse-grain and fine-grain compiler transformations of the Spark HLS
//! reproduction (Gupta et al., DAC 2002, Section 3):
//!
//! * **Coarse grain:** [`inline_calls`], [`unroll_all_loops`],
//!   [`while_to_for`] (the source-level rewrite of the natural Figure 16
//!   description into the synthesizable Figure 10 form).
//! * **Speculative code motion:** [`speculate`] (hoist pure operations above
//!   the conditions they depend on — Figure 11).
//! * **Fine grain:** [`propagation`] (constant folding, constant and copy
//!   propagation — Figures 3/14), [`common_subexpression_elimination`] and
//!   [`dead_code_elimination`].
//! * **Backend preparation:** [`isolate_conditions`] (an `if` whose branch
//!   writes its own condition tests a copy, since the scheduled design tests
//!   each operation's guard where the operation runs).
//!
//! Every pass takes a mutable [`Function`](spark_ir::Function) (or
//! [`Program`](spark_ir::Program) for inlining), preserves the observable
//! semantics checked by the [`spark_ir::Interpreter`], and returns a
//! [`Report`] describing what changed, so that the `spark-core` pass manager
//! can log the per-stage effect exactly as the paper's figures do.
//!
//! The fine-grain passes also come in `_with` form
//! ([`propagation_with`], [`common_subexpression_elimination_with`],
//! [`dead_code_elimination_with`]): worklist-driven passes over a shared
//! [`FineState`] (an incrementally maintained
//! [`DefUseGraph`](spark_ir::DefUseGraph) plus [`Positions`]), so a
//! sequence of them builds the analyses once instead of once per pass. Each
//! starts from the function itself — propagation and DCE from every live
//! operation, CSE from every block — and runs to its own fixed point.
//! Propagation forwards in one direction only: a single-definition copy
//! pushes its value into the operands of the readers it dominates, and no
//! reader looks up the definitions of its operands. Its `fold` switch turns
//! constant folding off and leaves the forwarding on.
//!
//! # Examples
//!
//! Unroll and fold the loop of Figure 2/3:
//!
//! ```
//! use spark_ir::{FunctionBuilder, OpKind, Type, Value};
//! use spark_transforms::{dead_code_elimination, propagation, unroll_all_loops};
//!
//! let mut b = FunctionBuilder::new("fig2");
//! let i = b.var("i", Type::Bits(32));
//! let acc = b.output("acc", Type::Bits(32));
//! b.copy(acc, Value::word(0));
//! b.for_begin(i, 0, Value::word(7), 1);
//! b.assign(OpKind::Add, acc, vec![Value::Var(acc), Value::Var(i)]);
//! b.loop_end();
//! let mut f = b.finish();
//!
//! unroll_all_loops(&mut f).unwrap();
//! propagation(&mut f);
//! dead_code_elimination(&mut f);
//! assert_eq!(f.loop_count(), 0);
//! ```

#![warn(missing_docs)]

mod cse;
mod dce;
mod fine;
mod inline;
mod isolate;
mod position;
mod propagation;
mod report;
mod speculation;
mod unroll;
mod while_to_for;

pub use cse::{common_subexpression_elimination, common_subexpression_elimination_with};
pub use dce::{dead_code_elimination, dead_code_elimination_with};
pub use fine::FineState;
pub use inline::inline_calls;
pub use isolate::isolate_conditions;
pub use position::Positions;
pub use propagation::{propagation, propagation_with};
pub use report::Report;
pub use speculation::{speculate, speculative_op_count};
pub use unroll::{unroll_all_loops, UnrollError};
pub use while_to_for::while_to_for;
