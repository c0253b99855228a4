//! Lowering from the SPARK-C AST to the behavioral IR's hierarchical task
//! graph, through the same [`FunctionBuilder`] API hand-written workloads
//! use.
//!
//! The lowering is *destination-hinted*: `x = a + b;` becomes a single
//! `add` operation writing `x` directly, and only proper subexpressions
//! materialize into fresh `t_N` temporaries (in left-to-right order). This
//! matters beyond aesthetics — a source program transliterated from a
//! builder-constructed workload lowers to a structurally identical
//! [`Function`](spark_ir::Function) (same arena ids, same names), which the
//! corpus tests exploit to pin the frontend against the builder twins
//! fingerprint-for-fingerprint.

use crate::ast::{
    BinOp, Decl, Expr, ExprKind, ForCmp, FunctionAst, ProgramAst, Stmt, StmtKind, UnOp,
};
use crate::sema::Analysis;
use spark_ir::{FunctionBuilder, OpKind, Program, Type, Value, VarId};
use std::collections::HashMap;

/// Lowers an analyzed program to behavioral IR.
///
/// Must only be called with the [`Analysis`] produced for this exact AST;
/// the lowering assumes all semantic checks passed.
pub fn lower(program: &ProgramAst, analysis: &Analysis) -> Program {
    let mut out = Program::new();
    for function in &program.functions {
        out.add_function(lower_function(function, analysis));
    }
    out
}

fn lower_function<'a>(function: &'a FunctionAst, analysis: &'a Analysis) -> spark_ir::Function {
    let mut lowerer = Lowerer {
        builder: FunctionBuilder::new(&function.name),
        analysis,
        names: HashMap::new(),
    };
    for param in &function.params {
        lowerer.declare(param, true);
    }
    if let Some(ret) = function.ret {
        lowerer.builder.returns(ret);
    }
    lowerer.stmts(&function.body);
    lowerer.builder.finish()
}

struct Lowerer<'a> {
    builder: FunctionBuilder,
    analysis: &'a Analysis,
    /// Declared name → variable, first declaration wins. Temporaries are
    /// never looked up by name, so they stay out of the map.
    names: HashMap<&'a str, VarId>,
}

impl<'a> Lowerer<'a> {
    /// Resolves a (sema-checked) name to its variable id.
    fn var(&self, name: &str) -> VarId {
        *self.names.get(name).expect("sema resolved every name")
    }

    fn declare(&mut self, decl: &'a Decl, is_param: bool) {
        let id = match (decl.array_len, decl.out, is_param) {
            // `out` parameters and locals are primary outputs, not inputs.
            (Some(len), true, _) => self.builder.output_array(&decl.name, decl.ty, len),
            (Some(len), false, true) => self.builder.param_array(&decl.name, decl.ty, len),
            (Some(len), false, false) => self.builder.array(&decl.name, decl.ty, len),
            (None, true, _) => self.builder.output(&decl.name, decl.ty),
            (None, false, true) => self.builder.param(&decl.name, decl.ty),
            (None, false, false) => self.builder.var(&decl.name, decl.ty),
        };
        self.names.entry(&decl.name).or_insert(id);
        if let Some(init) = &decl.init {
            let dest = self.var(&decl.name);
            self.assign_into(dest, init);
        }
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &'a Stmt) {
        match &stmt.kind {
            StmtKind::Decl(decl) => self.declare(decl, false),
            StmtKind::Assign { target, value, .. } => {
                let dest = self.var(target);
                self.assign_into(dest, value);
            }
            StmtKind::Store {
                array,
                index,
                value,
                ..
            } => {
                let array = self.var(array);
                let index = self.value_of(index);
                let value = self.value_of(value);
                self.builder.array_write(array, index, value);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.value_of(cond);
                self.builder.if_begin(cond);
                self.stmts(then_body);
                if !else_body.is_empty() {
                    self.builder.else_begin();
                    self.stmts(else_body);
                }
                self.builder.if_end();
            }
            StmtKind::While { cond, bound, body } => {
                // The IR's while condition is a single `Value` re-read every
                // iteration; non-trivial conditions are materialized into a
                // temporary that the loop body recomputes at its end.
                match &cond.kind {
                    ExprKind::Bool(_) | ExprKind::Int(_) | ExprKind::Var(_) => {
                        let cond = self.value_of(cond);
                        self.builder.while_begin(cond, *bound);
                        self.stmts(body);
                        self.builder.loop_end();
                    }
                    _ => {
                        let ty = self.analysis.type_of(cond);
                        let cond_var = self.temp_of(cond, ty);
                        self.builder.while_begin(Value::Var(cond_var), *bound);
                        self.stmts(body);
                        self.assign_into(cond_var, cond);
                        self.builder.loop_end();
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
                let index = self.var(index);
                // `i < LIT` lowers to the IR's inclusive bound `LIT - 1`
                // (sema guarantees the literal form and LIT >= 1).
                let end = match (cmp, &end.kind) {
                    (ForCmp::Lt, ExprKind::Int(value)) => Value::word(value - 1),
                    _ => self.value_of(end),
                };
                self.builder.for_begin(index, *start, end, *step as i64);
                self.stmts(body);
                self.builder.loop_end();
            }
            StmtKind::Return { value } => {
                let value = self.value_of(value);
                self.builder.ret(value);
            }
            StmtKind::CallStmt { call } => {
                let ExprKind::Call { callee, args, .. } = &call.kind else {
                    unreachable!("parser only builds CallStmt from calls");
                };
                let args = self.call_args(args);
                self.builder.call(None, callee, args);
            }
        }
    }

    /// Lowers `dest = expr` as one operation writing `dest` directly.
    fn assign_into(&mut self, dest: VarId, expr: &Expr) {
        match &expr.kind {
            ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => {
                let value = self.value_of(expr);
                self.builder.copy(dest, value);
            }
            ExprKind::Unary { op, operand } => {
                // `~` and `!` complement within the operand's width (a bool's
                // for `!`), the IR's `Not` within its destination's. A wider
                // destination takes the complement through a temporary of the
                // expression's type; a narrower one keeps the same low bits.
                let ty = self.analysis.type_of(expr);
                if self.builder.function_mut().vars[dest].ty.width() > ty.width() {
                    let temp = self.temp_of(expr, ty);
                    self.builder.copy(dest, Value::Var(temp));
                    return;
                }
                let operand = self.value_of(operand);
                let kind = match op {
                    UnOp::Not | UnOp::BitNot => OpKind::Not,
                };
                self.builder.assign(kind, dest, vec![operand]);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lhs = self.value_of(lhs);
                let rhs = self.value_of(rhs);
                self.builder.assign(bin_op_kind(*op), dest, vec![lhs, rhs]);
            }
            ExprKind::Ternary {
                cond,
                then_value,
                else_value,
            } => {
                let cond = self.value_of(cond);
                let then_value = self.value_of(then_value);
                let else_value = self.value_of(else_value);
                self.builder
                    .assign(OpKind::Select, dest, vec![cond, then_value, else_value]);
            }
            ExprKind::Index { array, index, .. } => {
                let array = self.var(array);
                let index = self.value_of(index);
                self.builder.array_read(dest, array, index);
            }
            ExprKind::Slice { base, hi, lo } => {
                let base = self.value_of(base);
                self.builder
                    .assign(OpKind::Slice { hi: *hi, lo: *lo }, dest, vec![base]);
            }
            ExprKind::Call { callee, args, .. } => {
                let args = self.call_args(args);
                self.builder.call(Some(dest), callee, args);
            }
        }
    }

    /// Lowers an expression to an operand [`Value`], materializing compound
    /// expressions into fresh temporaries.
    fn value_of(&mut self, expr: &Expr) -> Value {
        match &expr.kind {
            ExprKind::Int(value) => Value::word(*value),
            ExprKind::Bool(value) => Value::bool(*value),
            ExprKind::Var(name) => Value::Var(self.var(name)),
            _ => {
                let ty = self.analysis.type_of(expr);
                Value::Var(self.temp_of(expr, ty))
            }
        }
    }

    /// Materializes a compound expression into a fresh temporary of type
    /// `ty` and returns the temporary.
    fn temp_of(&mut self, expr: &Expr, ty: Type) -> VarId {
        let temp = self.builder.function_mut().fresh_temp("t", ty);
        self.assign_into(temp, expr);
        temp
    }

    /// Lowers call arguments; array arguments stay bare variable references.
    fn call_args(&mut self, args: &[Expr]) -> Vec<Value> {
        args.iter().map(|arg| self.value_of(arg)).collect()
    }
}

fn bin_op_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add => OpKind::Add,
        BinOp::Sub => OpKind::Sub,
        BinOp::Mul => OpKind::Mul,
        BinOp::And | BinOp::LogicAnd => OpKind::And,
        BinOp::Or | BinOp::LogicOr => OpKind::Or,
        BinOp::Xor => OpKind::Xor,
        BinOp::Shl => OpKind::Shl,
        BinOp::Shr => OpKind::Shr,
        BinOp::Eq => OpKind::Eq,
        BinOp::Ne => OpKind::Ne,
        BinOp::Lt => OpKind::Lt,
        BinOp::Le => OpKind::Le,
        BinOp::Gt => OpKind::Gt,
        BinOp::Ge => OpKind::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::analyze_with_source;
    use spark_ir::{verify, Env, Interpreter};

    fn lower_src(source: &str) -> Program {
        let ast = parse(source).expect("parses");
        let analysis = analyze_with_source(&ast, source).expect("sema clean");
        let program = lower(&ast, &analysis);
        for function in &program.functions {
            verify(function).expect("lowered IR verifies");
        }
        program
    }

    #[test]
    fn lowers_if_else_to_htg() {
        let program = lower_src(
            "u8 max(u8 a, u8 b) {\n  u8 m;\n  if (a > b) { m = a; } else { m = b; }\n  return m;\n}",
        );
        let f = program.function("max").unwrap();
        assert_eq!(f.if_count(), 1);
        // gt-compare temp, two copies, return.
        assert_eq!(f.live_op_count(), 4);
        let out = Interpreter::new(&program)
            .run("max", &Env::new().with_scalar("a", 9).with_scalar("b", 4))
            .unwrap();
        assert_eq!(out.return_value, Some(9));
    }

    #[test]
    fn direct_assignment_avoids_temporaries() {
        let program = lower_src("u8 f(u8 a, u8 b) {\n  u8 x;\n  x = a + b;\n  return x;\n}");
        let f = program.function("f").unwrap();
        // One add (straight into x) and the return: no copy, no temp.
        assert_eq!(f.live_op_count(), 2);
        assert_eq!(f.vars.len(), 3);
    }

    #[test]
    fn nested_expression_materializes_left_to_right() {
        let program = lower_src("u8 f(u8 a) {\n  u8 x;\n  x = (a & 3) + 1;\n  return x;\n}");
        let f = program.function("f").unwrap();
        let ops = f.live_ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(f.ops[ops[0]].kind, OpKind::And);
        assert_eq!(f.ops[ops[1]].kind, OpKind::Add);
        // The temp carries the operand's width, not the literal's.
        let temp = f.ops[ops[0]].dest.unwrap();
        assert_eq!(f.vars[temp].ty, Type::Bits(8));
        assert_eq!(f.vars[temp].name, "t_0");
    }

    #[test]
    fn for_loop_with_lt_bound_lowers_to_inclusive_end() {
        let program = lower_src(
            "int f() {\n  int i;\n  int acc;\n  acc = 0;\n  for (i = 0; i < 4; i = i + 1) { acc = acc + i; }\n  return acc;\n}",
        );
        let out = Interpreter::new(&program).run("f", &Env::new()).unwrap();
        assert_eq!(out.return_value, Some(6)); // 0 + 1 + 2 + 3
    }

    #[test]
    fn while_with_computed_condition_recomputes_in_body() {
        let program = lower_src(
            "int f() {\n  int x;\n  x = 0;\n  while (x < 5) {\n    x = x + 1;\n  }\n  return x;\n}",
        );
        let out = Interpreter::new(&program).run("f", &Env::new()).unwrap();
        assert_eq!(out.return_value, Some(5));
    }

    #[test]
    fn out_params_become_primary_outputs() {
        let program = lower_src("void f(u8 a, out bool m[4]) {\n  m[1] = true;\n}");
        let f = program.function("f").unwrap();
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.outputs().len(), 1);
        let out = Interpreter::new(&program)
            .run("f", &Env::new().with_scalar("a", 0))
            .unwrap();
        assert_eq!(out.array("m"), Some(&[0, 1, 0, 0][..]));
    }

    #[test]
    fn calls_lower_with_array_and_scalar_args() {
        let program = lower_src(
            "u8 get(u8 b[4], u16 i) { return b[i]; }\nu8 f(u8 b[4]) {\n  u8 x;\n  x = get(b, 2);\n  return x;\n}",
        );
        let out = Interpreter::new(&program)
            .run("f", &Env::new().with_array("b", vec![5, 6, 7, 8]))
            .unwrap();
        assert_eq!(out.return_value, Some(7));
    }

    #[test]
    fn ternary_lowers_to_select() {
        let program =
            lower_src("u8 f(u8 a, u8 b) {\n  u8 m;\n  m = a > b ? a : b;\n  return m;\n}");
        let out = Interpreter::new(&program)
            .run("f", &Env::new().with_scalar("a", 3).with_scalar("b", 200))
            .unwrap();
        assert_eq!(out.return_value, Some(200));
    }
}
