//! # spark-front — a SPARK-C textual frontend for the Spark HLS pipeline
//!
//! The paper's flow starts from behavioral ANSI-C; this crate provides the
//! corresponding textual entry point for the reproduction. It implements a
//! small, dependency-free compiler frontend for **SPARK-C** — the C subset
//! documented in `docs/LANGUAGE.md`: `int`/`bool`/`u<N>` scalars, fixed-size
//! arrays, functions with parameters and returns, `if`/`else`, `while`
//! (with a `bound(n)` trip-count annotation) and `for` loops, and the
//! arithmetic/logical/comparison operators of the IR's
//! [`OpKind`](spark_ir::OpKind) set.
//!
//! The stages are the classic ones, each a module:
//!
//! * a hand-written tokenizer with spans;
//! * [`parser`]: recursive descent to a span-carrying [`ast`];
//! * [`sema`]: scopes, kinds, call signatures, constant bounds, recursion —
//!   with source-located [`Diagnostic`] errors — plus per-expression type
//!   inference;
//! * [`lower`](mod@lower): destination-hinted lowering onto
//!   [`spark_ir::FunctionBuilder`], producing HTG programs that
//!   [`spark_ir::verify`] accepts;
//! * [`eval`]: a direct AST evaluator, the frontend's own golden model.
//!
//! # Examples
//!
//! Compile a source program and execute its lowered IR:
//!
//! ```
//! use spark_front::compile;
//! use spark_ir::{Env, Interpreter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let compiled = compile(
//!     "u8 max(u8 a, u8 b) {
//!        u8 m;
//!        if (a > b) { m = a; } else { m = b; }
//!        return m;
//!      }",
//! )
//! .map_err(|diags| diags[0].clone())?;
//! let outcome = Interpreter::new(&compiled.program)
//!     .run("max", &Env::new().with_scalar("a", 3).with_scalar("b", 10))?;
//! assert_eq!(outcome.return_value, Some(10));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
mod diag;
pub mod eval;
mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;
mod token;

pub use diag::{Diagnostic, LineMap, Span};
pub use eval::{evaluate, AstEvalError};
pub use lower::lower;
pub use parser::parse;
pub use sema::{analyze_with_source, Analysis};

/// A fully compiled source program: the AST, its analysis, and the lowered
/// behavioral IR, ready for the coordinated synthesis pipeline.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The parsed AST (kept for `--dump-ast` and the reference evaluator).
    pub ast: ast::ProgramAst,
    /// Per-expression inferred types.
    pub analysis: Analysis,
    /// The lowered behavioral IR.
    pub program: spark_ir::Program,
    /// Name of the first function in the file — the default top level.
    pub top: String,
}

impl Compiled {
    /// Runs the frontend's reference evaluator on a function of this
    /// program.
    ///
    /// # Errors
    /// Returns [`AstEvalError`] on missing inputs or runtime faults.
    pub fn evaluate(
        &self,
        function: &str,
        env: &spark_ir::Env,
    ) -> Result<spark_ir::Outcome, AstEvalError> {
        evaluate(&self.ast, &self.analysis, function, env)
    }
}

/// Compiles SPARK-C source text: lex + parse + semantic checks + lowering.
///
/// The lowered functions are checked with [`spark_ir::verify`]; a frontend
/// that emits malformed IR is a bug, so violations panic rather than
/// surfacing as user diagnostics.
///
/// # Errors
/// Returns every lexical, syntactic and semantic [`Diagnostic`], in source
/// order.
pub fn compile(source: &str) -> Result<Compiled, Vec<Diagnostic>> {
    let ast = parse(source)?;
    if ast.functions.is_empty() {
        let mut sink = diag::DiagSink::new(source);
        sink.error(Span::new(0, 0), "source contains no functions");
        return Err(sink.into_diagnostics());
    }
    let analysis = analyze_with_source(&ast, source)?;
    let program = lower(&ast, &analysis);
    for function in &program.functions {
        if let Err(errors) = spark_ir::verify(function) {
            panic!(
                "frontend lowering produced malformed IR for `{}`: {}",
                function.name,
                errors
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
    }
    let top = ast.functions[0].name.clone();
    Ok(Compiled {
        ast,
        analysis,
        program,
        top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_parse_and_sema_errors() {
        assert!(compile("int f() { return ; }").is_err());
        assert!(compile("int f() { return x; }").is_err());
        assert!(compile("").is_err());
    }

    #[test]
    fn compile_sets_top_to_first_function() {
        let compiled = compile("int a() { return 1; }\nint b() { return 2; }").unwrap();
        assert_eq!(compiled.top, "a");
        assert_eq!(compiled.program.functions.len(), 2);
    }
}
