//! Recursive-descent parser for mini-C.
//!
//! Grammar summary (C subset):
//!
//! ```text
//! program     := (global | function)*
//! global      := type ident ('[' int ']')? ('=' init)? ';'
//! function    := (type | 'void') ident '(' params? ')' block
//! block       := '{' stmt* '}'
//! stmt        := decl | assign | exprstmt | if | while | do | for
//!              | return | break | continue | block | ';'
//! assign      := lvalue ('='|'+='|'-='|'*='|'/='|'%=') expr ';'
//! expr        := ternary with C precedence, pointer arithmetic,
//!                '*' deref, '&' addr-of, calls, ++/--
//! ```
//!
//! The parser pulls tokens from the lexer one at a time and looks at most
//! one token ahead. A global's initializer list first goes through the
//! lexer's literal run, which takes plain `-?digits ,` pairs straight from
//! the source; the token path takes whatever the run leaves. Errors come
//! out as if the whole source were lexed before parsing: a lex error
//! anywhere wins over a parse error, so after a parse error the rest of
//! the source is lexed to look for one. Nesting is bounded by
//! [`MAX_AST_DEPTH`].
//!
//! Loops receive sequential [`LoopId`]s and every potential memory-access
//! expression receives a sequential [`SiteId`]; both are re-canonicalized by
//! [`crate::sema::check`].

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::Lexer;
use crate::token::{Keyword, Loc, Token, TokenKind};

/// The deepest nesting a program may have; a deeper one is an
/// [`Error::Parse`] at the token that opens the level past it.
///
/// Each `(`, `[`, `{`, prefix operator, `?` and unbraced statement body
/// opens one level inside the levels around it, and each operator of a
/// flat chain such as `1 + 1 + …` or `a[i][j]` adds one level to the
/// chain, because the tree it builds is that deep. The parser and every
/// pass over the tree (sema, instrumentation, printing, lowering, the
/// tree-walker and `Drop`) recurse along that depth, so the bound keeps
/// each of them inside a 2 MiB thread stack, even in a debug build.
pub const MAX_AST_DEPTH: u32 = 128;

/// Parses a full mini-C translation unit.
///
/// # Errors
///
/// Returns [`Error::Lex`] or [`Error::Parse`] on malformed input. Semantic
/// validation is separate: see [`crate::sema::check`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let prog = minic::parse("int a[8]; void main() { a[0] = 1; }")?;
/// assert_eq!(prog.globals.len(), 1);
/// assert_eq!(prog.functions.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program> {
    let mut parser = Parser::new(src);
    let parsed = parser.program();
    parser.finish(parsed)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The one token of lookahead; the lexer stands just past it.
    tok: Token,
    /// The first lex error. From it on the parser sees only `Eof`, and
    /// [`Parser::finish`] reports it whatever the parse returned.
    lex_err: Option<Error>,
    next_loop: u32,
    next_site: u32,
    /// Levels open at `tok` (see [`MAX_AST_DEPTH`]).
    depth: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(src),
            tok: Token::new(TokenKind::Eof, Loc::default()),
            lex_err: None,
            next_loop: 0,
            next_site: 0,
            depth: 0,
        };
        parser.tok = parser.lex();
        parser
    }

    /// The next token from the lexer. A lex error is kept and reads as
    /// `Eof`.
    fn lex(&mut self) -> Token {
        if self.lex_err.is_none() {
            match self.lexer.next_token() {
                Ok(tok) => return tok,
                Err(e) => self.lex_err = Some(e),
            }
        }
        Token::new(TokenKind::Eof, self.tok.loc)
    }

    /// The parse's result, or the first lex error in the source.
    fn finish(mut self, parsed: Result<Program>) -> Result<Program> {
        if let Some(e) = self.lex_err {
            return Err(e);
        }
        let Err(parse_err) = parsed else { return parsed };
        loop {
            match self.lexer.next_token() {
                Err(e) => return Err(e),
                Ok(tok) if tok.kind == TokenKind::Eof => return Err(parse_err),
                Ok(_) => {}
            }
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tok.kind
    }

    fn loc(&self) -> Loc {
        self.tok.loc
    }

    fn bump(&mut self) -> TokenKind {
        let next = self.lex();
        std::mem::replace(&mut self.tok, next).kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kind}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Parse { loc: self.loc(), msg: msg.into() }
    }

    /// Opens one more level at `loc`, the token that opens it.
    fn deeper(&mut self, loc: Loc) -> Result<()> {
        if self.depth == MAX_AST_DEPTH {
            let msg = format!("nesting deeper than {MAX_AST_DEPTH} levels");
            return Err(Error::Parse { loc, msg });
        }
        self.depth += 1;
        Ok(())
    }

    /// Parses with `parse` one level deeper than the current token.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deeper(self.loc())?;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn fresh_loop(&mut self) -> LoopId {
        let id = LoopId(self.next_loop);
        self.next_loop += 1;
        id
    }

    fn fresh_site(&mut self) -> SiteId {
        let id = SiteId(self.next_site);
        self.next_site += 1;
        id
    }

    fn ident(&mut self) -> Result<String> {
        let TokenKind::Ident(name) = &mut self.tok.kind else {
            return Err(self.err(format!("expected identifier, found `{}`", self.peek())));
        };
        let name = std::mem::take(name);
        self.bump();
        Ok(name)
    }

    // ---- types ------------------------------------------------------

    fn peek_is_type(&self) -> bool {
        matches!(self.peek(), TokenKind::Kw(Keyword::Int | Keyword::Char))
    }

    /// Parses `int`/`char` followed by any number of `*`s.
    fn ty(&mut self) -> Result<Type> {
        let base = match self.bump() {
            TokenKind::Kw(Keyword::Int) => Type::Int,
            TokenKind::Kw(Keyword::Char) => Type::Char,
            other => return Err(self.err(format!("expected type, found `{other}`"))),
        };
        let mut ty = base;
        while self.eat(&TokenKind::Star) {
            ty = Type::ptr_to(ty);
        }
        Ok(ty)
    }

    // ---- top level ----------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            let loc = self.loc();
            if self.eat(&TokenKind::Kw(Keyword::Void)) {
                let name = self.ident()?;
                prog.functions.push(self.function(name, None, loc)?);
                continue;
            }
            if !self.peek_is_type() {
                return Err(
                    self.err(format!("expected declaration or function, found `{}`", self.peek()))
                );
            }
            let ty = self.ty()?;
            let name = self.ident()?;
            if matches!(self.peek(), TokenKind::LParen) {
                prog.functions.push(self.function(name, Some(ty), loc)?);
            } else {
                prog.globals.push(self.global(name, ty, loc)?);
            }
        }
        Ok(prog)
    }

    fn global(&mut self, name: String, ty: Type, loc: Loc) -> Result<GlobalDecl> {
        let mut array_len = None;
        if self.eat(&TokenKind::LBracket) {
            array_len = Some(self.array_size()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let mut init = Vec::new();
        if self.eat(&TokenKind::Assign) {
            if matches!(self.peek(), TokenKind::LBrace) {
                // `tok` is the `{` or a `,`, and nothing past it is lexed.
                loop {
                    self.lexer.literal_run(&mut init);
                    self.bump();
                    init.push(self.const_int()?);
                    if !matches!(self.peek(), TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBrace)?;
            } else {
                init.push(self.const_int()?);
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(GlobalDecl { name, ty, array_len, init, loc })
    }

    fn array_size(&mut self) -> Result<u32> {
        let v = self.const_int()?;
        u32::try_from(v).map_err(|_| self.err("array size must fit in u32"))
    }

    /// A constant integer expression: literal, possibly negated.
    fn const_int(&mut self) -> Result<i64> {
        let neg = self.eat(&TokenKind::Minus);
        match self.bump() {
            TokenKind::IntLit(v) => Ok(if neg { -v } else { v }),
            TokenKind::CharLit(c) => Ok(if neg { -(c as i64) } else { c as i64 }),
            other => Err(self.err(format!("expected integer constant, found `{other}`"))),
        }
    }

    fn function(&mut self, name: String, ret: Option<Type>, loc: Loc) -> Result<Function> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let ty = self.ty()?;
                let pname = self.ident()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(Function { name, params, ret, body, loc })
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Block> {
        self.nested(|p| {
            p.expect(&TokenKind::LBrace)?;
            let mut stmts = Vec::new();
            while !p.eat(&TokenKind::RBrace) {
                if matches!(p.peek(), TokenKind::Eof) {
                    return Err(p.err("unterminated block"));
                }
                stmts.push(p.stmt()?);
            }
            Ok(Block { stmts })
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek() {
            TokenKind::Kw(Keyword::Int | Keyword::Char) => {
                let s = self.local_decl()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
            TokenKind::Kw(Keyword::If) => self.if_stmt(),
            TokenKind::Kw(Keyword::While) => self.while_stmt(),
            TokenKind::Kw(Keyword::Do) => self.do_stmt(),
            TokenKind::Kw(Keyword::For) => self.for_stmt(),
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let value =
                    if matches!(self.peek(), TokenKind::Semi) { None } else { Some(self.expr()?) };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return(value))
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break)
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue)
            }
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::Block(Block::new()))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn local_decl(&mut self) -> Result<Stmt> {
        let loc = self.loc();
        let ty = self.ty()?;
        let name = self.ident()?;
        let mut array_len = None;
        if self.eat(&TokenKind::LBracket) {
            array_len = Some(self.array_size()?);
            self.expect(&TokenKind::RBracket)?;
        }
        let init = if self.eat(&TokenKind::Assign) {
            if array_len.is_some() {
                return Err(self.err("local arrays cannot have initializers"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::LocalDecl { name, ty, array_len, init, loc })
    }

    /// An assignment or expression statement, without the trailing `;`
    /// (shared by statement position and `for` init/step slots).
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let expr = self.expr()?;
        let op = match self.peek() {
            TokenKind::Assign => AssignOp::Set,
            TokenKind::PlusAssign => AssignOp::Add,
            TokenKind::MinusAssign => AssignOp::Sub,
            TokenKind::StarAssign => AssignOp::Mul,
            TokenKind::SlashAssign => AssignOp::Div,
            TokenKind::PercentAssign => AssignOp::Rem,
            _ => return Ok(Stmt::Expr(expr)),
        };
        if !expr.is_lvalue() {
            return Err(self.err("left-hand side of assignment is not an lvalue"));
        }
        self.bump();
        let value = self.expr()?;
        Ok(Stmt::Assign { target: expr, op, value })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_blk = self.stmt_as_block()?;
        let else_blk = if self.eat(&TokenKind::Kw(Keyword::Else)) {
            Some(self.stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt::If { cond, then_blk, else_blk })
    }

    /// Parses either a braced block or a single statement wrapped in a block,
    /// so loop/if bodies are uniformly [`Block`]s.
    fn stmt_as_block(&mut self) -> Result<Block> {
        if matches!(self.peek(), TokenKind::LBrace) {
            self.block()
        } else {
            self.nested(|p| Ok(Block { stmts: vec![p.stmt()?] }))
        }
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        self.bump();
        let id = self.fresh_loop();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { id, cond, body })
    }

    fn do_stmt(&mut self) -> Result<Stmt> {
        self.bump();
        let id = self.fresh_loop();
        let body = self.stmt_as_block()?;
        self.expect(&TokenKind::Kw(Keyword::While))?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::DoWhile { id, body, cond })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        self.bump();
        let id = self.fresh_loop();
        self.expect(&TokenKind::LParen)?;
        let init = if self.eat(&TokenKind::Semi) {
            None
        } else {
            let s = if self.peek_is_type() { self.local_decl()? } else { self.simple_stmt()? };
            self.expect(&TokenKind::Semi)?;
            Some(Box::new(s))
        };
        let cond = if matches!(self.peek(), TokenKind::Semi) { None } else { Some(self.expr()?) };
        self.expect(&TokenKind::Semi)?;
        let step = if matches!(self.peek(), TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::For { id, init, cond, step, body })
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr> {
        let cond = self.binary(0)?;
        if !matches!(self.peek(), TokenKind::Question) {
            return Ok(cond);
        }
        self.nested(|p| {
            p.bump();
            let then = p.expr()?;
            p.expect(&TokenKind::Colon)?;
            let els = p.ternary()?;
            Ok(Expr::Cond { cond: Box::new(cond), then: Box::new(then), els: Box::new(els) })
        })
    }

    fn bin_op_of(kind: &TokenKind) -> Option<(BinOp, u8)> {
        // Higher binds tighter; mirrors C precedence.
        Some(match kind {
            TokenKind::PipePipe => (BinOp::Or, 1),
            TokenKind::AmpAmp => (BinOp::And, 2),
            TokenKind::Pipe => (BinOp::BitOr, 3),
            TokenKind::Caret => (BinOp::BitXor, 4),
            TokenKind::Amp => (BinOp::BitAnd, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::BangEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_of(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.deeper(self.loc())?;
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        let loc = self.loc();
        let prefix = matches!(
            self.peek(),
            TokenKind::Minus
                | TokenKind::Bang
                | TokenKind::Tilde
                | TokenKind::Star
                | TokenKind::Amp
                | TokenKind::PlusPlus
                | TokenKind::MinusMinus
        );
        if !prefix {
            return self.postfix();
        }
        self.nested(|p| match p.bump() {
            TokenKind::Minus => Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(p.unary()?) }),
            TokenKind::Bang => Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(p.unary()?) }),
            TokenKind::Tilde => Ok(Expr::Unary { op: UnOp::BitNot, expr: Box::new(p.unary()?) }),
            TokenKind::Star => {
                let site = p.fresh_site();
                let inner = p.unary()?;
                Ok(Expr::Deref { ptr: Box::new(inner), site, loc })
            }
            TokenKind::Amp => {
                let lvalue = p.unary()?;
                if !lvalue.is_lvalue() {
                    return Err(p.err("`&` requires an lvalue operand"));
                }
                Ok(Expr::AddrOf { lvalue: Box::new(lvalue), loc })
            }
            TokenKind::PlusPlus => {
                let target = p.unary()?;
                if !target.is_lvalue() {
                    return Err(p.err("`++` requires an lvalue operand"));
                }
                Ok(Expr::IncDec { op: IncDec::PreInc, target: Box::new(target) })
            }
            // `--`, the last prefix operator.
            _ => {
                let target = p.unary()?;
                if !target.is_lvalue() {
                    return Err(p.err("`--` requires an lvalue operand"));
                }
                Ok(Expr::IncDec { op: IncDec::PreDec, target: Box::new(target) })
            }
        })
    }

    fn postfix(&mut self) -> Result<Expr> {
        let outer = self.depth;
        let mut expr = self.primary()?;
        loop {
            let loc = self.loc();
            match self.peek() {
                TokenKind::LBracket => {
                    self.deeper(loc)?;
                    self.bump();
                    let site = self.fresh_site();
                    let index = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    expr = Expr::Index { base: Box::new(expr), index: Box::new(index), site, loc };
                }
                TokenKind::PlusPlus => {
                    self.deeper(loc)?;
                    self.bump();
                    if !expr.is_lvalue() {
                        return Err(self.err("`++` requires an lvalue operand"));
                    }
                    expr = Expr::IncDec { op: IncDec::PostInc, target: Box::new(expr) };
                }
                TokenKind::MinusMinus => {
                    self.deeper(loc)?;
                    self.bump();
                    if !expr.is_lvalue() {
                        return Err(self.err("`--` requires an lvalue operand"));
                    }
                    expr = Expr::IncDec { op: IncDec::PostDec, target: Box::new(expr) };
                }
                _ => break,
            }
        }
        self.depth = outer;
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr> {
        let loc = self.loc();
        if matches!(self.peek(), TokenKind::LParen) {
            return self.nested(|p| {
                p.bump();
                let inner = p.expr()?;
                p.expect(&TokenKind::RParen)?;
                Ok(inner)
            });
        }
        match self.bump() {
            TokenKind::IntLit(v) => Ok(Expr::IntLit(v)),
            TokenKind::CharLit(c) => Ok(Expr::IntLit(c as i64)),
            TokenKind::Ident(name) if matches!(self.peek(), TokenKind::LParen) => {
                self.nested(|p| {
                    p.bump();
                    let mut args = Vec::new();
                    if !p.eat(&TokenKind::RParen) {
                        loop {
                            args.push(p.expr()?);
                            if !p.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        p.expect(&TokenKind::RParen)?;
                    }
                    Ok(Expr::Call { name, args, loc })
                })
            }
            TokenKind::Ident(name) => {
                let site = self.fresh_site();
                Ok(Expr::Var { name, site, loc })
            }
            other => {
                Err(Error::Parse { loc, msg: format!("expected expression, found `{other}`") })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG4A: &str = r#"
        char q[10000];
        char *ptr;
        void main() {
            int i;
            int t1 = 98;
            ptr = q;
            while (t1 < 100) {
                t1++;
                ptr += 100;
                for (i = 40; i > 37; i--) {
                    *ptr++ = i * i % 256;
                }
            }
        }
    "#;

    #[test]
    fn parses_figure4() {
        let prog = parse(FIG4A).unwrap();
        assert_eq!(prog.globals.len(), 2);
        assert_eq!(prog.functions.len(), 1);
        assert_eq!(prog.loop_count(), 2);
    }

    #[test]
    fn loop_ids_sequential() {
        let prog = parse("void main(){ while(1){} do {} while(0); for(;;){} }").unwrap();
        let mut ids = Vec::new();
        prog.visit_stmts(&mut |s| {
            if let Some(id) = s.loop_id() {
                ids.push(id);
            }
        });
        assert_eq!(ids, vec![LoopId(0), LoopId(1), LoopId(2)]);
    }

    #[test]
    fn precedence() {
        let prog = parse("void main(){ int x; x = 1 + 2 * 3; }").unwrap();
        let Stmt::Assign { value, .. } = &prog.functions[0].body.stmts[1] else {
            panic!("expected assignment");
        };
        // 1 + (2 * 3)
        let Expr::Binary { op: BinOp::Add, rhs, .. } = value else { panic!("expected add") };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn pointer_walk_statement() {
        let prog = parse("char *p; void main(){ *p++ = 1; }").unwrap();
        let Stmt::Assign { target, .. } = &prog.functions[0].body.stmts[0] else {
            panic!("expected assignment");
        };
        // *(p++) — deref of post-increment.
        let Expr::Deref { ptr, .. } = target else { panic!("expected deref") };
        assert!(matches!(**ptr, Expr::IncDec { op: IncDec::PostInc, .. }));
    }

    #[test]
    fn for_with_decl_init() {
        let prog = parse("void main(){ for (int i = 0; i < 4; i++) {} }").unwrap();
        let Stmt::For { init, cond, step, .. } = &prog.functions[0].body.stmts[0] else {
            panic!("expected for");
        };
        assert!(matches!(init.as_deref(), Some(Stmt::LocalDecl { .. })));
        assert!(cond.is_some());
        assert!(matches!(
            step.as_deref(),
            Some(Stmt::Expr(Expr::IncDec { op: IncDec::PostInc, .. }))
        ));
    }

    #[test]
    fn global_array_with_init() {
        let prog = parse("int tab[4] = { 1, 2, 3, 4 }; void main(){}").unwrap();
        assert_eq!(prog.globals[0].init, vec![1, 2, 3, 4]);
        assert_eq!(prog.globals[0].array_len, Some(4));
    }

    #[test]
    fn ternary_and_calls() {
        let prog = parse("int f(int x){ return x ? f(x-1) : 0; } void main(){ f(3); }");
        assert!(prog.is_ok());
    }

    #[test]
    fn single_statement_bodies() {
        let prog = parse("void main(){ int s; for(int i=0;i<3;i++) s += i; if (s) s = 0; }");
        assert!(prog.is_ok());
    }

    #[test]
    fn rejects_bad_lvalues() {
        assert!(parse("void main(){ 1 = 2; }").is_err());
        assert!(parse("void main(){ int x; &1; }").is_err());
        assert!(parse("void main(){ (1+2)++; }").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse("void main(){ ").is_err());
        assert!(parse("int x").is_err());
    }

    #[test]
    fn site_ids_are_distinct() {
        let prog = parse("int a[4]; void main(){ a[0] = a[1] + a[2]; }").unwrap();
        let mut sites = Vec::new();
        prog.visit_exprs(&mut |e| {
            if let Expr::Index { site, .. } = e {
                sites.push(*site);
            }
        });
        assert_eq!(sites.len(), 3);
        sites.dedup();
        assert_eq!(sites.len(), 3);
    }

    #[test]
    fn pointer_types_parse() {
        let prog = parse("int **pp; void main(){}").unwrap();
        assert_eq!(prog.globals[0].ty, Type::ptr_to(Type::ptr_to(Type::Int)));
    }

    #[test]
    fn empty_statement() {
        assert!(parse("void main(){ ;;; }").is_ok());
    }

    fn lex_err(line: u32, col: u32, msg: &str) -> Error {
        Error::Lex { loc: Loc::new(line, col), msg: msg.into() }
    }

    fn parse_err(line: u32, col: u32, msg: &str) -> Error {
        Error::Parse { loc: Loc::new(line, col), msg: msg.into() }
    }

    #[test]
    fn a_lex_error_after_a_parse_error_is_the_one_reported() {
        let broken = "void main() { int x; x = ; }";
        assert_eq!(parse(broken), Err(parse_err(1, 26, "expected expression, found `;`")));
        let unexpected = lex_err(2, 2, "unexpected character '@'");
        assert_eq!(parse(&format!("{broken}\n@")), Err(unexpected.clone()));
        // Past the error, nothing is parsed, but all of it is lexed.
        let tail = "int t[3] = {1, 2, 3};\nint u = 0x;";
        let hex = lex_err(3, 11, "hex literal needs at least one digit");
        assert_eq!(parse(&format!("{broken}\n{tail}")), Err(hex.clone()));
        // The first lex error wins, wherever the parse stops.
        assert_eq!(parse(&format!("{broken}\n@\n{tail}")), Err(unexpected));
        let hex = lex_err(2, 11, "hex literal needs at least one digit");
        assert_eq!(parse(&format!("{tail} @")), Err(hex));
        // A parse error inside an initializer list, after a literal run.
        let list = "int t[4] = {1, 2, ;, 4};";
        assert_eq!(parse(list), Err(parse_err(1, 20, "expected integer constant, found `;`")));
        let late = lex_err(1, 27, "unterminated character literal");
        assert_eq!(parse(&format!("{list} '")), Err(late));
    }

    /// The `init` that `int t[N] = {list};` parses to.
    fn init_of(list: &str) -> Result<Vec<i64>> {
        parse(&format!("int t[64] = {{{list}}};")).map(|mut prog| prog.globals.remove(0).init)
    }

    #[test]
    fn initializer_lists_read_the_same_through_the_literal_run_and_the_token_path() {
        let big = i64::MAX.to_string();
        let cases: [(&str, Result<Vec<i64>>); 12] = [
            ("1, 2, 3", Ok(vec![1, 2, 3])),
            ("0x10, 0xfF, 7", Ok(vec![16, 255, 7])),
            (r"'a', '\n', 7", Ok(vec![97, 10, 7])),
            ("-0, 0, -5", Ok(vec![0, 0, -5])),
            ("- 5 , -5,\t-\t5", Ok(vec![-5, -5, -5])),
            (
                "007, 999999999999999999, -999999999999999999",
                Ok(vec![7, 999_999_999_999_999_999, -999_999_999_999_999_999]),
            ),
            (&format!("{big}, -{big}, 1"), Ok(vec![i64::MAX, -i64::MAX, 1])),
            ("1, 9223372036854775808, 2", Err(lex_err(1, 35, "decimal literal overflows i64"))),
            // A constant's error stands at the token after it, as ever.
            ("1, 2,", Err(parse_err(1, 20, "expected integer constant, found `}`"))),
            ("", Err(parse_err(1, 15, "expected integer constant, found `}`"))),
            ("1, /* c */ 2, // d\n 3", Ok(vec![1, 2, 3])),
            ("1,\n2,\n3", Ok(vec![1, 2, 3])),
        ];
        for (list, want) in cases {
            assert_eq!(init_of(list), want, "{{{list}}}");
            // A newline after every comma sends each value the token path.
            let token_path = init_of(&list.replace(',', ",\n"));
            match (&want, token_path) {
                (Ok(_), got) => assert_eq!(got, want, "{{{list}}} on the token path"),
                (Err(Error::Lex { msg, .. } | Error::Parse { msg, .. }), Err(got)) => {
                    assert!(got.to_string().ends_with(msg.as_str()), "{{{list}}}: {got}")
                }
                (want, got) => panic!("{{{list}}}: {want:?} but {got:?} on the token path"),
            }
        }
        assert_eq!(init_of("1, 2 3"), Err(parse_err(1, 19, "expected `}`, found `3`")));
        assert_eq!(
            init_of("12abc, 1"),
            Err(lex_err(1, 16, "identifier character directly after number"))
        );
    }

    /// Nested parentheses, nested blocks and a flat sum, each nested
    /// exactly `depth` levels as [`MAX_AST_DEPTH`] counts them (the
    /// function body's `{` is the first), with the column of the token
    /// that opens the last level.
    fn nested_shapes(depth: usize) -> [(&'static str, String, u32); 3] {
        let k = depth - 1;
        [
            (
                "parentheses",
                format!("int x; void main() {{ x = {}1{}; }}", "(".repeat(k), ")".repeat(k)),
                25 + k as u32,
            ),
            (
                "blocks",
                format!("void main() {}{}", "{".repeat(depth), "}".repeat(depth)),
                12 + depth as u32,
            ),
            (
                "a flat sum",
                format!("int x; void main() {{ x = 1{}; }}", " + 1".repeat(k)),
                24 + 4 * k as u32,
            ),
        ]
    }

    #[test]
    fn nesting_past_the_bound_is_a_parse_error_at_its_opening_token() {
        let bound = MAX_AST_DEPTH as usize;
        for (shape, src, _) in nested_shapes(bound) {
            assert!(crate::frontend(&src).is_ok(), "{shape} at the bound");
        }
        for (shape, src, col) in nested_shapes(bound + 1) {
            let want = parse_err(1, col, "nesting deeper than 128 levels");
            assert_eq!(crate::frontend(&src).map(drop), Err(want), "{shape} past the bound");
        }
    }

    #[test]
    fn every_recursive_form_counts_toward_the_bound() {
        /// A form's name, and its program nested `k` levels inside the
        /// function body's `{`.
        type Form = (&'static str, fn(usize) -> String);
        let forms: [Form; 7] = [
            ("prefix", |k| format!("int x; void main() {{ x = {}1; }}", "- ".repeat(k))),
            ("index", |k| {
                format!("int a[4]; void main() {{ {}0{} = 1; }}", "a[".repeat(k), "]".repeat(k))
            }),
            ("index chain", |k| format!("int *a; void main() {{ a{} = 1; }}", "[0]".repeat(k))),
            ("call", |k| {
                let calls = format!("{}1{}", "f(".repeat(k), ")".repeat(k));
                format!("int f(int a) {{ return a; }} void main() {{ {calls}; }}")
            }),
            ("conditional", |k| format!("int x; void main() {{ x = {}0; }}", "x ? 1 : ".repeat(k))),
            // The innermost `if`'s own body is one level more.
            ("else if", |k| {
                let chain = " else if (x) x = 1;".repeat(k - 1);
                format!("int x; void main() {{ if (x) x = 1;{chain} }}")
            }),
            ("unbraced body", |k| {
                format!("int x; void main() {{ {}x = 0; }}", "while (x) ".repeat(k))
            }),
        ];
        let inner = MAX_AST_DEPTH as usize - 1;
        for (name, form) in forms {
            assert_eq!(parse(&form(inner)).err(), None, "{name} at the bound");
            let err = parse(&form(inner + 1)).unwrap_err();
            assert!(err.to_string().ends_with("nesting deeper than 128 levels"), "{name}: {err}");
        }
    }
}
