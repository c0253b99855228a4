//! A direct AST evaluator for SPARK-C — the frontend's own golden model.
//!
//! Evaluates the *source* semantics without going through the IR at all:
//! unsigned arithmetic truncated at every inferred intermediate width,
//! C-style control flow, arrays passed to calls by value. Because the
//! truncation points mirror exactly where the lowering materializes
//! temporaries, running [`spark_ir::Interpreter`] on the lowered IR must
//! produce identical results — the round-trip property the test suite
//! checks on generated programs.

use std::collections::BTreeMap;

use crate::ast::{
    BinOp, Decl, Expr, ExprKind, ForCmp, FunctionAst, ProgramAst, Stmt, StmtKind, UnOp,
};
use crate::sema::Analysis;
use spark_ir::{Env, Outcome, Type};

/// Errors raised by the AST evaluator (mirrors
/// [`spark_ir::EvalError`] where the cases overlap).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AstEvalError {
    /// A named input was expected but not provided.
    MissingInput(String),
    /// A call referenced an unknown function.
    UnknownFunction(String),
    /// An array access was out of bounds.
    OutOfBounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: u64,
    },
    /// A loop exceeded the evaluator's iteration limit.
    LoopLimit(u64),
}

impl std::fmt::Display for AstEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AstEvalError::MissingInput(name) => write!(f, "missing input `{name}`"),
            AstEvalError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            AstEvalError::OutOfBounds { array, index } => {
                write!(f, "index {index} out of bounds for array `{array}`")
            }
            AstEvalError::LoopLimit(limit) => write!(f, "loop exceeded {limit} iterations"),
        }
    }
}

impl std::error::Error for AstEvalError {}

const LOOP_LIMIT: u64 = 1 << 20;

/// Evaluates `function` of the analyzed AST `program` on the inputs of
/// `env`, returning the same [`Outcome`] shape the IR interpreter produces
/// (restricted to source-declared variables — lowering temporaries do not
/// exist here).
///
/// # Errors
/// Returns [`AstEvalError`] on missing inputs, unknown functions,
/// out-of-bounds accesses or runaway loops.
pub fn evaluate(
    program: &ProgramAst,
    analysis: &Analysis,
    function: &str,
    env: &Env,
) -> Result<Outcome, AstEvalError> {
    let func = program
        .functions
        .iter()
        .find(|f| f.name == function)
        .ok_or_else(|| AstEvalError::UnknownFunction(function.to_string()))?;

    let mut frame = Frame::init(func, env)?;
    let mut ctx = Evaluator { program, analysis };
    let flow = ctx.exec_stmts(&func.body, &mut frame)?;

    let mut outcome = Outcome {
        return_value: match flow {
            Flow::Return(v) => Some(v),
            Flow::Continue => None,
        },
        ..Outcome::default()
    };
    for (name, (value, _)) in &frame.scalars {
        outcome.scalars.insert(name.clone(), *value);
    }
    for (name, (contents, _)) in &frame.arrays {
        outcome.arrays.insert(name.clone(), contents.clone());
    }
    Ok(outcome)
}

enum Flow {
    Continue,
    Return(u64),
}

struct Frame {
    scalars: BTreeMap<String, (u64, Type)>,
    arrays: BTreeMap<String, (Vec<u64>, Type)>,
}

impl Frame {
    /// Mirrors the IR interpreter's frame initialization: every declared
    /// variable exists from function entry with value zero, inputs are
    /// masked to their declared width, missing parameters are errors.
    fn init(func: &FunctionAst, env: &Env) -> Result<Frame, AstEvalError> {
        let mut frame = Frame {
            scalars: BTreeMap::new(),
            arrays: BTreeMap::new(),
        };
        let mut declare = |decl: &Decl| match decl.array_len {
            Some(len) => {
                let mut contents = env
                    .array_bindings()
                    .get(&decl.name)
                    .cloned()
                    .unwrap_or_default();
                contents.resize(len as usize, 0);
                contents.iter_mut().for_each(|v| *v &= decl.ty.mask());
                frame.arrays.insert(decl.name.clone(), (contents, decl.ty));
            }
            None => {
                let value =
                    env.scalar_bindings().get(&decl.name).copied().unwrap_or(0) & decl.ty.mask();
                frame.scalars.insert(decl.name.clone(), (value, decl.ty));
            }
        };
        for param in &func.params {
            declare(param);
        }
        collect_decls(&func.body, &mut declare);
        // Non-output parameters are required inputs, like the interpreter's.
        for param in &func.params {
            if param.out {
                continue;
            }
            let provided = match param.array_len {
                Some(_) => env.array_bindings().contains_key(&param.name),
                None => env.scalar_bindings().contains_key(&param.name),
            };
            if !provided {
                return Err(AstEvalError::MissingInput(param.name.clone()));
            }
        }
        Ok(frame)
    }

    fn store(&mut self, name: &str, value: u64) {
        if let Some((slot, ty)) = self.scalars.get_mut(name) {
            *slot = value & ty.mask();
        }
    }

    fn load(&self, name: &str) -> u64 {
        self.scalars.get(name).map(|(v, _)| *v).unwrap_or(0)
    }
}

/// Walks every declaration in a statement tree (all locals are
/// function-scoped, like the IR's flat variable arena).
fn collect_decls(stmts: &[Stmt], declare: &mut impl FnMut(&Decl)) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Decl(decl) => declare(decl),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_decls(then_body, declare);
                collect_decls(else_body, declare);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                collect_decls(body, declare);
            }
            _ => {}
        }
    }
}

struct Evaluator<'a> {
    program: &'a ProgramAst,
    analysis: &'a Analysis,
}

impl Evaluator<'_> {
    fn exec_stmts(&mut self, stmts: &[Stmt], frame: &mut Frame) -> Result<Flow, AstEvalError> {
        for stmt in stmts {
            if let Flow::Return(v) = self.exec_stmt(stmt, frame)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> Result<Flow, AstEvalError> {
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                if let Some(init) = &decl.init {
                    let value = self.eval_raw(init, frame)?;
                    frame.store(&decl.name, value);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                // Top-level masking happens at the destination width, exactly
                // like the destination-hinted lowering.
                let value = self.eval_raw(value, frame)?;
                frame.store(target, value);
            }
            StmtKind::Store {
                array,
                index,
                value,
                ..
            } => {
                let index = self.eval(index, frame)?;
                let raw = self.eval(value, frame)?;
                let (contents, ty) = frame
                    .arrays
                    .get_mut(array.as_str())
                    .expect("sema checked array names");
                let masked = raw & ty.mask();
                let slot =
                    contents
                        .get_mut(index as usize)
                        .ok_or_else(|| AstEvalError::OutOfBounds {
                            array: array.clone(),
                            index,
                        })?;
                *slot = masked;
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.eval(cond, frame)? != 0;
                let body = if cond { then_body } else { else_body };
                return self.exec_stmts(body, frame);
            }
            StmtKind::While { cond, bound, body } => {
                let limit = bound.unwrap_or(LOOP_LIMIT);
                let mut iterations = 0u64;
                loop {
                    if self.eval(cond, frame)? == 0 {
                        break;
                    }
                    if let Flow::Return(v) = self.exec_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                    iterations += 1;
                    if iterations >= limit {
                        if bound.is_none() {
                            return Err(AstEvalError::LoopLimit(LOOP_LIMIT));
                        }
                        break;
                    }
                }
            }
            StmtKind::For {
                index,
                start,
                cmp,
                end,
                step,
                body,
                ..
            } => {
                let index_ty = frame
                    .scalars
                    .get(index.as_str())
                    .map(|(_, ty)| *ty)
                    .unwrap_or_default();
                frame.store(index, *start);
                // Mirror the lowering's bound handling: `i < LIT` becomes the
                // inclusive constant `LIT - 1`; a compound bound materializes
                // into a temporary *before* the loop (a loop-invariant
                // snapshot); only a bare variable bound is re-read each
                // iteration.
                let static_bound = match (cmp, &end.kind) {
                    (ForCmp::Lt, ExprKind::Int(value)) => Some(value - 1),
                    (_, ExprKind::Var(_)) => None,
                    _ => Some(self.eval(end, frame)?),
                };
                let mut iterations = 0u64;
                loop {
                    let current = frame.load(index);
                    let bound = match static_bound {
                        Some(bound) => bound,
                        None => self.eval(end, frame)?,
                    };
                    if current > bound {
                        break;
                    }
                    if let Flow::Return(v) = self.exec_stmts(body, frame)? {
                        return Ok(Flow::Return(v));
                    }
                    let next = current.wrapping_add(*step) & index_ty.mask();
                    frame.store(index, next);
                    iterations += 1;
                    if iterations > LOOP_LIMIT {
                        return Err(AstEvalError::LoopLimit(LOOP_LIMIT));
                    }
                }
            }
            StmtKind::Return { value } => {
                let value = self.eval(value, frame)?;
                return Ok(Flow::Return(value));
            }
            StmtKind::CallStmt { call } => {
                self.eval_raw(call, frame)?;
            }
        }
        Ok(Flow::Continue)
    }

    /// Evaluates an expression, masked to its inferred type — the value a
    /// materialized temporary would hold.
    fn eval(&mut self, expr: &Expr, frame: &mut Frame) -> Result<u64, AstEvalError> {
        let raw = self.eval_raw(expr, frame)?;
        Ok(raw & self.analysis.type_of(expr).mask())
    }

    /// Evaluates an expression *without* the final mask (the destination
    /// applies its own width when the value is stored).
    fn eval_raw(&mut self, expr: &Expr, frame: &mut Frame) -> Result<u64, AstEvalError> {
        match &expr.kind {
            ExprKind::Int(value) => Ok(*value),
            ExprKind::Bool(value) => Ok(*value as u64),
            ExprKind::Var(name) => Ok(frame.load(name)),
            // A complement stays within the operand's width (a bool's for
            // `!`), whatever the destination's.
            ExprKind::Unary { op, operand } => {
                let operand = self.eval(operand, frame)?;
                Ok(match op {
                    UnOp::Not | UnOp::BitNot => !operand & self.analysis.type_of(expr).mask(),
                })
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, frame)?;
                let r = self.eval(rhs, frame)?;
                Ok(match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::And | BinOp::LogicAnd => l & r,
                    BinOp::Or | BinOp::LogicOr => l | r,
                    BinOp::Xor => l ^ r,
                    // `numeric_std` shifts every bit out at 64 and past.
                    BinOp::Shl if r < 64 => l << r,
                    BinOp::Shr if r < 64 => l >> r,
                    BinOp::Shl | BinOp::Shr => 0,
                    BinOp::Eq => (l == r) as u64,
                    BinOp::Ne => (l != r) as u64,
                    BinOp::Lt => (l < r) as u64,
                    BinOp::Le => (l <= r) as u64,
                    BinOp::Gt => (l > r) as u64,
                    BinOp::Ge => (l >= r) as u64,
                })
            }
            ExprKind::Ternary {
                cond,
                then_value,
                else_value,
            } => {
                let cond = self.eval(cond, frame)?;
                // Both branches evaluate (this is a multiplexer, not control
                // flow), exactly like the IR's `select`.
                let t = self.eval(then_value, frame)?;
                let e = self.eval(else_value, frame)?;
                Ok(if cond != 0 { t } else { e })
            }
            ExprKind::Index { array, index, .. } => {
                let index = self.eval(index, frame)?;
                let (contents, _) = frame
                    .arrays
                    .get(array.as_str())
                    .expect("sema checked array names");
                contents
                    .get(index as usize)
                    .copied()
                    .ok_or_else(|| AstEvalError::OutOfBounds {
                        array: array.clone(),
                        index,
                    })
            }
            ExprKind::Slice { base, hi, lo } => {
                let value = self.eval(base, frame)?;
                let width = hi - lo + 1;
                Ok((value >> lo) & Type::Bits(width).mask())
            }
            ExprKind::Call { callee, args, .. } => self.eval_call(callee, args, frame),
        }
    }

    fn eval_call(
        &mut self,
        callee: &str,
        args: &[Expr],
        frame: &mut Frame,
    ) -> Result<u64, AstEvalError> {
        let func = self
            .program
            .functions
            .iter()
            .find(|f| f.name == *callee)
            .ok_or_else(|| AstEvalError::UnknownFunction(callee.to_string()))?;
        let mut env = Env::new();
        for (param, arg) in func.params.iter().zip(args) {
            match param.array_len {
                Some(_) => {
                    let ExprKind::Var(name) = &arg.kind else {
                        unreachable!("sema requires bare array arguments");
                    };
                    let contents = frame
                        .arrays
                        .get(name.as_str())
                        .map(|(c, _)| c.clone())
                        .unwrap_or_default();
                    env.set_array(&param.name, contents);
                }
                None => {
                    env.set_scalar(&param.name, self.eval(arg, frame)?);
                }
            }
        }
        let outcome = evaluate(self.program, self.analysis, callee, &env)?;
        Ok(outcome.return_value.unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse;
    use crate::sema::analyze_with_source;
    use spark_ir::Interpreter;

    fn both(source: &str, top: &str, env: &Env) -> (Outcome, Outcome) {
        let ast = parse(source).expect("parses");
        let analysis = analyze_with_source(&ast, source).expect("sema clean");
        let lowered = lower(&ast, &analysis);
        let interp = Interpreter::new(&lowered).run(top, env).expect("interp");
        let direct = evaluate(&ast, &analysis, top, env).expect("eval");
        (direct, interp)
    }

    fn assert_agree(source: &str, top: &str, env: &Env) {
        let (direct, interp) = both(source, top, env);
        assert_eq!(direct.return_value, interp.return_value, "return value");
        for (name, value) in &direct.scalars {
            assert_eq!(
                Some(*value),
                interp.scalar(name),
                "scalar `{name}` disagrees"
            );
        }
        for (name, contents) in &direct.arrays {
            assert_eq!(
                Some(contents.as_slice()),
                interp.array(name),
                "array `{name}` disagrees"
            );
        }
    }

    #[test]
    fn arithmetic_and_truncation_agree() {
        assert_agree(
            "u8 f(u8 a, u8 b) {\n  u8 x;\n  x = (a + b) * 3;\n  return x;\n}",
            "f",
            &Env::new().with_scalar("a", 200).with_scalar("b", 100),
        );
    }

    #[test]
    fn u64_shifts_by_64_or_more_give_zero() {
        let source = "void f(u64 a, u64 k, out u64 l, out u64 r) { l = a << k; r = a >> k; }";
        let top = 1u64 << 63;
        for (k, l, r) in [(63, top, 1), (64, 0, 0), (200, 0, 0)] {
            let env = Env::new().with_scalar("a", top | 1).with_scalar("k", k);
            let (direct, interp) = both(source, "f", &env);
            assert_eq!(direct.scalar("l"), Some(l), "<< {k}");
            assert_eq!(direct.scalar("r"), Some(r), ">> {k}");
            assert_eq!(direct.scalars, interp.scalars, "shift by {k}");
        }
    }

    #[test]
    fn control_flow_agrees() {
        for a in [0u64, 5, 200] {
            assert_agree(
                "u8 f(u8 a) {\n  u8 x;\n  if (a > 100) { x = a - 100; } else { x = a; }\n  return x;\n}",
                "f",
                &Env::new().with_scalar("a", a),
            );
        }
    }

    #[test]
    fn loops_and_arrays_agree() {
        assert_agree(
            "u16 sum(u8 data[8]) {\n  u16 acc;\n  u16 i;\n  acc = 0;\n  for (i = 0; i <= 7; i = i + 1) { acc = acc + data[i]; }\n  return acc;\n}",
            "sum",
            &Env::new().with_array("data", vec![1, 2, 3, 4, 5, 6, 7, 8]),
        );
    }

    #[test]
    fn while_loop_agrees() {
        assert_agree(
            "int f() {\n  int x;\n  x = 1;\n  while (x < 100) { x = x * 2; }\n  return x;\n}",
            "f",
            &Env::new(),
        );
    }

    #[test]
    fn calls_agree() {
        assert_agree(
            "u8 inc(u8 x) { return x + 1; }\nu8 f(u8 a) {\n  u8 y;\n  y = inc(inc(a));\n  return y;\n}",
            "f",
            &Env::new().with_scalar("a", 254),
        );
    }

    #[test]
    fn oob_is_reported() {
        let source = "u8 f(u8 b[4], u8 i) { return b[i]; }";
        let ast = parse(source).unwrap();
        let analysis = analyze_with_source(&ast, source).unwrap();
        let err = evaluate(
            &ast,
            &analysis,
            "f",
            &Env::new().with_array("b", vec![0; 4]).with_scalar("i", 9),
        )
        .unwrap_err();
        assert!(matches!(err, AstEvalError::OutOfBounds { .. }));
    }
}
