//! # spark-ild — the instruction length decoder case study
//!
//! The case study of the Spark HLS reproduction (Gupta et al., DAC 2002,
//! Sections 5–6): a Pentium-style instruction length decoder that finds the
//! starting byte of every variable-length instruction (1–11 bytes, up to
//! 4 bytes examined) in an instruction buffer.
//!
//! The crate provides:
//!
//! * a synthetic [`encoding`] with the paper's look-ahead structure (see
//!   "The encoding" below);
//! * a [`decode_marks`] golden software reference decoder;
//! * behavioral descriptions: the Figure 10 form ([`build_ild_program`]) and
//!   the natural Figure 16 form ([`build_ild_natural_program`]);
//! * buffer workload generators used by tests and benchmarks.
//!
//! # The encoding
//!
//! The paper's decoder reads Pentium instructions, whose length tables are
//! proprietary. This reproduction substitutes a synthetic encoding with the
//! same structure: a length contribution per byte and a `Need_kth_Byte`
//! flag that says whether the next byte counts, so lengths run from 1 to 11
//! bytes and are decided by at most 4 bytes. What the transformations act
//! on is that nested look-ahead, not the table contents.
//!
//! # Examples
//!
//! ```
//! use spark_ild::{build_ild_program, buffer_env, decode_marks, marks_from_outcome, random_buffer, ILD_FUNCTION};
//! use spark_ir::Interpreter;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 8;
//! let program = build_ild_program(n as u32);
//! let buffer = random_buffer(n, 42);
//! let outcome = Interpreter::new(&program).run(ILD_FUNCTION, &buffer_env(&buffer))?;
//! let marks = marks_from_outcome(&outcome, n);
//! assert_eq!(marks, decode_marks(&buffer, n)[1..=n].to_vec());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod behavior;
pub mod encoding;
mod golden;
mod workload;

pub use behavior::{
    buffer_env, build_ild_natural_program, build_ild_program, marks_from_outcome,
    CALCULATE_LENGTH_FUNCTION, ILD_FUNCTION, ILD_NATURAL_FUNCTION,
};
pub use golden::{decode_marks, instruction_count};
pub use workload::{
    long_instruction_buffer, mixed_instruction_buffer, random_buffer, short_instruction_buffer,
};
