//! Recursive-descent parser for SPARK-C.
//!
//! The grammar is the C subset documented in `docs/LANGUAGE.md`: function
//! definitions over scalar/array parameters, declarations, assignments,
//! `if`/`else`, `while` (with an optional `bound(n)` trip-count annotation)
//! and C-style `for` loops, plus the expression operators the IR's
//! [`OpKind`](spark_ir::OpKind) set supports. On a parse error inside a
//! function body the parser records a diagnostic and synchronizes to the
//! next `;` or `}`, so one mistake yields one error, not a cascade.

use crate::ast::{
    BinOp, Decl, Expr, ExprId, ExprKind, ForCmp, FunctionAst, ProgramAst, Stmt, StmtKind, UnOp,
};
use crate::diag::{DiagSink, Span};
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use spark_ir::Type;

/// The deepest nesting the parser accepts. A parenthesis, a `?:` arm, an
/// index, a call argument, a unary operator, a slice, a block and an
/// `else if` each go one level deeper, and so does each binary operator:
/// `a + b + c` is the tree `(a + b) + c`, two levels deep. The parser and
/// every later stage (semantic checks, lowering, the AST evaluator) walk
/// the tree recursively, so past this limit parsing fails with a
/// diagnostic instead of overflowing the stack.
pub const MAX_NESTING: usize = 128;

/// Parses a whole source file into an AST.
///
/// # Errors
/// Returns every lexical and syntactic diagnostic found (the AST is not
/// returned when any error occurred), including nesting deeper than
/// [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<ProgramAst, Vec<crate::diag::Diagnostic>> {
    let mut sink = DiagSink::new(source);
    let tokens = lex(source, &mut sink);
    let mut parser = Parser {
        tokens,
        pos: 0,
        sink: &mut sink,
        next_expr_id: 0,
        depth: 0,
    };
    let program = parser.program();
    if sink.is_clean() {
        Ok(program)
    } else {
        Err(sink.into_diagnostics())
    }
}

struct Parser<'d> {
    tokens: Vec<Token>,
    pos: usize,
    sink: &'d mut DiagSink,
    next_expr_id: ExprId,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
}

/// Internal marker: the current construct cannot be parsed; a diagnostic has
/// already been recorded and the caller should synchronize.
struct Abort;

type PResult<T> = Result<T, Abort>;

impl Parser<'_> {
    // ------------------------------------------------------------------
    // Token plumbing
    // ------------------------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let token = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            let found = self.peek().clone();
            self.sink.error(
                found.span,
                format!("expected {}, found {}", kind.describe(), found.kind),
            );
            Err(Abort)
        }
    }

    fn expect_ident(&mut self) -> PResult<(String, Span)> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let token = self.bump();
                Ok((name, token.span))
            }
            other => {
                let span = self.peek().span;
                self.sink
                    .error(span, format!("expected identifier, found {other}"));
                Err(Abort)
            }
        }
    }

    fn expect_int(&mut self) -> PResult<(u64, Span)> {
        match *self.peek_kind() {
            TokenKind::Int(value) => {
                let token = self.bump();
                Ok((value, token.span))
            }
            ref other => {
                let span = self.peek().span;
                self.sink
                    .error(span, format!("expected integer literal, found {other}"));
                Err(Abort)
            }
        }
    }

    fn expr_id(&mut self) -> ExprId {
        let id = self.next_expr_id;
        self.next_expr_id += 1;
        id
    }

    fn make(&mut self, span: Span, kind: ExprKind) -> Expr {
        Expr {
            id: self.expr_id(),
            span,
            kind,
        }
    }

    /// Goes one nesting level deeper, or records a diagnostic at the current
    /// token when that would pass [`MAX_NESTING`]. A construct that goes
    /// deeper returns to its own level when it parsed; after an error,
    /// [`Parser::block_body`] and [`Parser::program`], which catch it, reset
    /// the level.
    fn deeper(&mut self) -> PResult<()> {
        if self.depth == MAX_NESTING {
            let span = self.peek().span;
            self.sink.error(
                span,
                format!("nesting deeper than {MAX_NESTING} levels (the parser's limit)"),
            );
            return Err(Abort);
        }
        self.depth += 1;
        Ok(())
    }

    /// Skips ahead to just past the next top-level `;` (or to the enclosing
    /// `}`/end of input), recovering from a statement-level parse error.
    /// Brace-aware: a malformed compound statement is skipped whole,
    /// including its `{ ... }` body, so one header error does not cascade.
    fn synchronize(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek_kind() {
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                    // A fully skipped `{ ... }` ends the malformed statement.
                    if depth == 0 {
                        return;
                    }
                }
                TokenKind::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Types
    // ------------------------------------------------------------------

    /// Parses a type name: `int`, `bool`, or `u<width>` with width 1..=64.
    fn type_name(&mut self) -> PResult<Type> {
        match self.peek_kind().clone() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::Bits(32))
            }
            TokenKind::KwBool => {
                self.bump();
                Ok(Type::Bool)
            }
            TokenKind::Ident(name) => {
                if let Some(width) = parse_width_type(&name) {
                    self.bump();
                    Ok(Type::Bits(width))
                } else {
                    let span = self.peek().span;
                    self.sink.error(
                        span,
                        format!("expected a type (`int`, `bool`, `u1`..`u64`), found `{name}`"),
                    );
                    Err(Abort)
                }
            }
            other => {
                let span = self.peek().span;
                self.sink
                    .error(span, format!("expected a type, found {other}"));
                Err(Abort)
            }
        }
    }

    /// True when the current token begins a type name.
    fn at_type(&self) -> bool {
        match self.peek_kind() {
            TokenKind::KwInt | TokenKind::KwBool | TokenKind::KwOut => true,
            TokenKind::Ident(name) => parse_width_type(name).is_some(),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Program / functions
    // ------------------------------------------------------------------

    fn program(&mut self) -> ProgramAst {
        let mut functions = Vec::new();
        while !self.at(&TokenKind::Eof) {
            match self.function() {
                Ok(function) => functions.push(function),
                Err(Abort) => {
                    self.depth = 0;
                    // Skip to the next plausible function start: a type/void
                    // token following a `}`.
                    loop {
                        match self.peek_kind() {
                            TokenKind::Eof => break,
                            TokenKind::RBrace => {
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
            }
        }
        ProgramAst {
            functions,
            expr_count: self.next_expr_id,
        }
    }

    fn function(&mut self) -> PResult<FunctionAst> {
        let ret = if self.eat(&TokenKind::KwVoid) {
            None
        } else {
            Some(self.type_name()?)
        };
        let (name, name_span) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        let body = self.block_body();
        self.expect(TokenKind::RBrace)?;
        Ok(FunctionAst {
            name,
            name_span,
            ret,
            params,
            body,
        })
    }

    fn param(&mut self) -> PResult<Decl> {
        let out = self.eat(&TokenKind::KwOut);
        let ty = self.type_name()?;
        let (name, name_span) = self.expect_ident()?;
        let array_len = self.array_suffix()?;
        Ok(Decl {
            name,
            name_span,
            ty,
            array_len,
            out,
            init: None,
        })
    }

    /// Parses an optional `[LEN]` array suffix.
    fn array_suffix(&mut self) -> PResult<Option<u32>> {
        if !self.eat(&TokenKind::LBracket) {
            return Ok(None);
        }
        let (len, span) = self.expect_int()?;
        self.expect(TokenKind::RBracket)?;
        if len == 0 || len > u32::MAX as u64 {
            self.sink.error(
                span,
                format!("array length {len} out of range (1..=2^32-1)"),
            );
            return Err(Abort);
        }
        Ok(Some(len as u32))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parses statements until the closing `}` of the current block,
    /// synchronizing on statement-level errors.
    fn block_body(&mut self) -> Vec<Stmt> {
        let depth = self.depth;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            match self.statement() {
                Ok(stmt) => stmts.push(stmt),
                Err(Abort) => {
                    self.depth = depth;
                    self.synchronize();
                }
            }
        }
        stmts
    }

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.deeper()?;
        self.expect(TokenKind::LBrace)?;
        let stmts = self.block_body();
        self.expect(TokenKind::RBrace)?;
        self.depth -= 1;
        Ok(stmts)
    }

    fn statement(&mut self) -> PResult<Stmt> {
        let start = self.peek().span;
        if self.at_type() {
            return self.declaration(start);
        }
        match self.peek_kind().clone() {
            TokenKind::KwIf => self.if_statement(start),
            TokenKind::KwWhile => self.while_statement(start),
            TokenKind::KwFor => self.for_statement(start),
            TokenKind::KwReturn => {
                self.bump();
                let value = self.expression()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt {
                    span: start.to(end),
                    kind: StmtKind::Return { value },
                })
            }
            TokenKind::Ident(_) => self.assignment_or_call(start),
            other => {
                self.sink
                    .error(start, format!("expected a statement, found {other}"));
                Err(Abort)
            }
        }
    }

    fn declaration(&mut self, start: Span) -> PResult<Stmt> {
        let out = self.eat(&TokenKind::KwOut);
        let ty = self.type_name()?;
        let (name, name_span) = self.expect_ident()?;
        let array_len = self.array_suffix()?;
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        if array_len.is_some() && init.is_some() {
            self.sink
                .error(name_span, "array declarations cannot have initializers");
            return Err(Abort);
        }
        Ok(Stmt {
            span: start.to(end),
            kind: StmtKind::Decl(Decl {
                name,
                name_span,
                ty,
                array_len,
                out,
                init,
            }),
        })
    }

    fn if_statement(&mut self, start: Span) -> PResult<Stmt> {
        self.expect(TokenKind::KwIf)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(TokenKind::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat(&TokenKind::KwElse) {
            if self.at(&TokenKind::KwIf) {
                let nested_start = self.peek().span;
                self.deeper()?;
                let nested = self.if_statement(nested_start)?;
                self.depth -= 1;
                vec![nested]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt {
            span: start,
            kind: StmtKind::If {
                cond,
                then_body,
                else_body,
            },
        })
    }

    fn while_statement(&mut self, start: Span) -> PResult<Stmt> {
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expression()?;
        self.expect(TokenKind::RParen)?;
        let bound = if self.eat(&TokenKind::KwBound) {
            self.expect(TokenKind::LParen)?;
            let (value, _) = self.expect_int()?;
            self.expect(TokenKind::RParen)?;
            Some(value)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Stmt {
            span: start,
            kind: StmtKind::While { cond, bound, body },
        })
    }

    /// `for (i = START; i <= END; STEP) { ... }` where `STEP` is
    /// `i = i + K`, `i = i - K` (rejected later), or `i++`.
    fn for_statement(&mut self, start: Span) -> PResult<Stmt> {
        self.expect(TokenKind::KwFor)?;
        self.expect(TokenKind::LParen)?;
        let (index, index_span) = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let (start_value, _) = self.expect_int()?;
        self.expect(TokenKind::Semi)?;

        let (cond_index, cond_index_span) = self.expect_ident()?;
        if cond_index != index {
            self.sink.error(
                cond_index_span,
                format!("for-loop condition must test the index `{index}`, found `{cond_index}`"),
            );
            return Err(Abort);
        }
        let cmp = match self.peek_kind() {
            TokenKind::Le => {
                self.bump();
                ForCmp::Le
            }
            TokenKind::Lt => {
                self.bump();
                ForCmp::Lt
            }
            other => {
                let span = self.peek().span;
                self.sink.error(
                    span,
                    format!("for-loop condition must use `<` or `<=`, found {other}"),
                );
                return Err(Abort);
            }
        };
        let end = self.expression()?;
        self.expect(TokenKind::Semi)?;

        let step = self.for_step(&index)?;
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt {
            span: start,
            kind: StmtKind::For {
                index,
                index_span,
                start: start_value,
                cmp,
                end: Box::new(end),
                step,
                body,
            },
        })
    }

    fn for_step(&mut self, index: &str) -> PResult<u64> {
        let (step_index, step_span) = self.expect_ident()?;
        if step_index != index {
            self.sink.error(
                step_span,
                format!("for-loop step must update the index `{index}`, found `{step_index}`"),
            );
            return Err(Abort);
        }
        if self.eat(&TokenKind::PlusPlus) {
            return Ok(1);
        }
        self.expect(TokenKind::Assign)?;
        let (rhs_index, rhs_span) = self.expect_ident()?;
        if rhs_index != index {
            self.sink.error(
                rhs_span,
                format!("for-loop step must have the form `{index} = {index} + K`"),
            );
            return Err(Abort);
        }
        self.expect(TokenKind::Plus)?;
        let (step, step_value_span) = self.expect_int()?;
        if step == 0 {
            self.sink
                .error(step_value_span, "for-loop step must be non-zero");
            return Err(Abort);
        }
        Ok(step)
    }

    fn assignment_or_call(&mut self, start: Span) -> PResult<Stmt> {
        // Call statement: `name(...)` followed by `;`.
        if matches!(self.peek2_kind(), TokenKind::LParen) {
            let call = self.expression()?;
            let end = self.expect(TokenKind::Semi)?.span;
            if !matches!(call.kind, ExprKind::Call { .. }) {
                self.sink
                    .error(call.span, "only calls may be used as expression statements");
                return Err(Abort);
            }
            return Ok(Stmt {
                span: start.to(end),
                kind: StmtKind::CallStmt { call },
            });
        }

        let (name, name_span) = self.expect_ident()?;
        if self.eat(&TokenKind::LBracket) {
            let index = self.expression()?;
            self.expect(TokenKind::RBracket)?;
            self.expect(TokenKind::Assign)?;
            let value = self.expression()?;
            let end = self.expect(TokenKind::Semi)?.span;
            return Ok(Stmt {
                span: start.to(end),
                kind: StmtKind::Store {
                    array: name,
                    array_span: name_span,
                    index,
                    value,
                },
            });
        }
        self.expect(TokenKind::Assign)?;
        let value = self.expression()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt {
            span: start.to(end),
            kind: StmtKind::Assign {
                target: name,
                target_span: name_span,
                value,
            },
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing, lowest binds last)
    // ------------------------------------------------------------------

    fn expression(&mut self) -> PResult<Expr> {
        self.deeper()?;
        let expr = self.ternary()?;
        self.depth -= 1;
        Ok(expr)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok(cond);
        }
        let then_value = self.expression()?;
        self.expect(TokenKind::Colon)?;
        let else_value = self.expression()?;
        let span = cond.span.to(else_value.span);
        Ok(self.make(
            span,
            ExprKind::Ternary {
                cond: Box::new(cond),
                then_value: Box::new(then_value),
                else_value: Box::new(else_value),
            },
        ))
    }

    /// Parses a chain of binary operators that bind at least as tightly as
    /// `min_precedence` (precedence climbing). Operators of one precedence
    /// associate to the left; each one takes the tree a level deeper.
    fn binary(&mut self, min_precedence: u8) -> PResult<Expr> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, precedence)) = binary_op(self.peek_kind()) {
            if precedence < min_precedence {
                break;
            }
            self.bump();
            self.deeper()?;
            let rhs = self.binary(precedence + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.make(
                span,
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
            );
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let op = match self.peek_kind() {
            TokenKind::Bang => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            let start = self.bump().span;
            self.deeper()?;
            let operand = self.unary()?;
            self.depth -= 1;
            let span = start.to(operand.span);
            return Ok(self.make(
                span,
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
            ));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let depth = self.depth;
        let mut expr = self.primary()?;
        while self.at(&TokenKind::LBracket) {
            self.bump();
            self.deeper()?;
            // Disambiguate `a[i]` (array read) from `x[hi:lo]` (bit slice):
            // a slice has the form `INT : INT`.
            if let (TokenKind::Int(hi), TokenKind::Colon) = (self.peek_kind(), self.peek2_kind()) {
                let hi = *hi;
                let hi_span = self.bump().span;
                self.bump(); // colon
                let (lo, lo_span) = self.expect_int()?;
                let end = self.expect(TokenKind::RBracket)?.span;
                if hi > u16::MAX as u64 || lo > u16::MAX as u64 {
                    self.sink
                        .error(hi_span.to(lo_span), "slice bounds out of range");
                    return Err(Abort);
                }
                let span = expr.span.to(end);
                expr = self.make(
                    span,
                    ExprKind::Slice {
                        base: Box::new(expr),
                        hi: hi as u16,
                        lo: lo as u16,
                    },
                );
            } else {
                let index = self.expression()?;
                let end = self.expect(TokenKind::RBracket)?.span;
                let (array, array_span) = match &expr.kind {
                    ExprKind::Var(name) => (name.clone(), expr.span),
                    _ => {
                        self.sink
                            .error(expr.span, "only named arrays can be indexed");
                        return Err(Abort);
                    }
                };
                let span = expr.span.to(end);
                expr = self.make(
                    span,
                    ExprKind::Index {
                        array,
                        array_span,
                        index: Box::new(index),
                    },
                );
            }
        }
        self.depth = depth;
        Ok(expr)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let token = self.peek().clone();
        match token.kind {
            TokenKind::Int(value) => {
                self.bump();
                if value > u32::MAX as u64 {
                    self.sink.error(
                        token.span,
                        format!("integer literal {value} exceeds the 32-bit literal range"),
                    );
                    return Err(Abort);
                }
                Ok(self.make(token.span, ExprKind::Int(value)))
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(self.make(token.span, ExprKind::Bool(true)))
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(self.make(token.span, ExprKind::Bool(false)))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(&TokenKind::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    let span = token.span.to(end);
                    return Ok(self.make(
                        span,
                        ExprKind::Call {
                            callee: name,
                            callee_span: token.span,
                            args,
                        },
                    ));
                }
                Ok(self.make(token.span, ExprKind::Var(name)))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expression()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            other => {
                self.sink
                    .error(token.span, format!("expected an expression, found {other}"));
                Err(Abort)
            }
        }
    }
}

/// The binary operator `kind` spells and its precedence, loosest first:
/// `||`, `&&`, `|`, `^`, `&`, equality, relations, shifts, `+`/`-`, `*`.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::LogicOr, 0),
        TokenKind::AndAnd => (BinOp::LogicAnd, 1),
        TokenKind::Pipe => (BinOp::Or, 2),
        TokenKind::Caret => (BinOp::Xor, 3),
        TokenKind::Amp => (BinOp::And, 4),
        TokenKind::EqEq => (BinOp::Eq, 5),
        TokenKind::Ne => (BinOp::Ne, 5),
        TokenKind::Lt => (BinOp::Lt, 6),
        TokenKind::Le => (BinOp::Le, 6),
        TokenKind::Gt => (BinOp::Gt, 6),
        TokenKind::Ge => (BinOp::Ge, 6),
        TokenKind::Shl => (BinOp::Shl, 7),
        TokenKind::Shr => (BinOp::Shr, 7),
        TokenKind::Plus => (BinOp::Add, 8),
        TokenKind::Minus => (BinOp::Sub, 8),
        TokenKind::Star => (BinOp::Mul, 9),
        _ => return None,
    })
}

/// Parses `u<width>` type names (`u1`..`u64`).
fn parse_width_type(name: &str) -> Option<u16> {
    let digits = name.strip_prefix('u')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let width: u16 = digits.parse().ok()?;
    (1..=64).contains(&width).then_some(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(source: &str) -> ProgramAst {
        parse(source).unwrap_or_else(|diags| {
            panic!(
                "expected clean parse, got: {}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        })
    }

    #[test]
    fn parses_function_with_params_and_body() {
        let program = parse_ok(
            "u8 max(u8 a, u8 b) {\n  u8 m;\n  if (a > b) { m = a; } else { m = b; }\n  return m;\n}",
        );
        assert_eq!(program.functions.len(), 1);
        let f = &program.functions[0];
        assert_eq!(f.name, "max");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.body.len(), 3);
        assert_eq!(f.ret, Some(Type::Bits(8)));
    }

    #[test]
    fn parses_out_array_param_and_for_loop() {
        let program = parse_ok(
            "void mark(u8 buf[12], out bool m[9]) {\n  u16 i;\n  for (i = 1; i <= 8; i = i + 1) {\n    m[i] = true;\n  }\n}",
        );
        let f = &program.functions[0];
        assert!(f.params[1].out);
        assert_eq!(f.params[1].array_len, Some(9));
        match &f.body[1].kind {
            StmtKind::For {
                start, cmp, step, ..
            } => {
                assert_eq!(*start, 1);
                assert_eq!(*cmp, ForCmp::Le);
                assert_eq!(*step, 1);
            }
            other => panic!("expected for loop, got {other:?}"),
        }
    }

    #[test]
    fn precedence_binds_mul_tighter_than_add() {
        let program = parse_ok("int f(int a) { int x; x = a + 2 * 3; return x; }");
        let f = &program.functions[0];
        let StmtKind::Assign { value, .. } = &f.body[1].kind else {
            panic!()
        };
        assert_eq!(value.to_string(), "(a + (2 * 3))");
    }

    #[test]
    fn slice_and_index_disambiguate() {
        let program = parse_ok("void f(u8 b[4]) { u8 x; bool c; x = b[2]; c = x[7:7]; }");
        let f = &program.functions[0];
        let StmtKind::Assign { value, .. } = &f.body[2].kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Index { .. }));
        let StmtKind::Assign { value, .. } = &f.body[3].kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Slice { hi: 7, lo: 7, .. }));
    }

    #[test]
    fn while_bound_annotation() {
        let program = parse_ok("void f() { u8 x; while (true) bound(16) { x = x + 1; } }");
        let StmtKind::While { bound, .. } = &program.functions[0].body[1].kind else {
            panic!()
        };
        assert_eq!(*bound, Some(16));
    }

    #[test]
    fn missing_semicolon_is_located() {
        let err = parse("int f() {\n  int x;\n  x = 1\n}").unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].to_string().starts_with("4:1: error: expected `;`"));
    }

    #[test]
    fn every_kind_of_nesting_counts_toward_the_limit() {
        let deep = 3 * MAX_NESTING;
        for body in [
            format!("s = {};", vec!["a"; deep].join(" + ")),
            format!("s = {}a;", "~".repeat(deep)),
            format!("s = a{};", "[7:0]".repeat(deep)),
            format!("s = {}a;", "c ? a : ".repeat(deep)),
            format!("s = {}a{};", "g(".repeat(deep), ")".repeat(deep)),
            format!("{}s = a;{}", "if (c) { ".repeat(deep), "}".repeat(deep)),
            format!(
                "if (c) {{ s = a; }} {}",
                "else if (c) { s = a; } ".repeat(deep)
            ),
        ] {
            let source = format!("void f(u8 a, bool c, out u8 s) {{ {body} }}");
            let errors = parse(&source).unwrap_err();
            assert!(
                errors[0].message.contains("parser's limit"),
                "{errors:?} for {body:.40}"
            );
        }
    }

    #[test]
    fn error_recovery_reports_multiple_statements() {
        let err = parse("int f() {\n  x = ;\n  y = ;\n  return 0;\n}").unwrap_err();
        assert_eq!(err.len(), 2);
    }

    #[test]
    fn ternary_parses() {
        let program = parse_ok("int f(int a, int b) { int m; m = a > b ? a : b; return m; }");
        let StmtKind::Assign { value, .. } = &program.functions[0].body[1].kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::Ternary { .. }));
    }
}
