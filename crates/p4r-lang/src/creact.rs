//! Parser for the C-like reaction bodies embedded in P4R programs.
//!
//! The paper compiles reaction bodies with `gcc` into shared objects. In this
//! reproduction, reaction bodies are parsed into an AST (this module) and
//! executed by the `reaction-interp` crate inside the Mantis agent's dialogue
//! loop. The language is the C subset the paper's examples use:
//!
//! * integer types (`intN_t`/`uintN_t`/`int`/`unsigned`), local and `static`
//!   variables, fixed-size arrays,
//! * the usual expressions: arithmetic, bitwise, logical, comparisons,
//!   assignment (including compound `+=` etc.), `++`/`--`, ternary `?:`,
//! * `if`/`else`, `while`, `for`, `break`, `continue`, `return`,
//! * malleable accesses `${name}` (read anywhere, write as assignment
//!   target),
//! * malleable-table calls `table.addEntry(...)`, `table.modEntry(...)`,
//!   `table.delEntry(...)`, `table.setDefault(...)`,
//! * free function calls into the agent's builtin library (`now_us()`,
//!   `abs()`, ...).

use crate::lexer::{lex, Spanned, Tok};
use crate::parser::ParseError;
use serde::{Deserialize, Serialize};

/// Integer type of a declared variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CType {
    /// `uintN_t` / `unsigned` — value wraps modulo 2^bits on store.
    UInt(u16),
    /// `intN_t` / `int` — two's-complement wrap at the given width.
    Int(u16),
}

impl CType {
    pub fn bits(&self) -> u16 {
        match self {
            CType::UInt(b) | CType::Int(b) => *b,
        }
    }

    pub fn is_signed(&self) -> bool {
        matches!(self, CType::Int(_))
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LAnd,
    LOr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    Neg,
    Not,
    LNot,
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LValue {
    /// Local/static variable or reaction argument.
    Var(String),
    /// Malleable write: `${name} = ...`.
    Mbl(String),
    /// Array element: `arr[idx] = ...`.
    Index(String, Box<Expr>),
}

/// Expressions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expr {
    Num(i128),
    Var(String),
    /// `${name}` read.
    Mbl(String),
    /// `name[index]` read (argument slices, local arrays).
    Index(String, Box<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Builtin free-function call.
    Call(String, Vec<Expr>),
    /// Malleable-table method call: `table.addEntry(...)`.
    Method {
        receiver: String,
        method: String,
        args: Vec<Expr>,
    },
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Assignment as an expression: `x = e`, `x += e`, ...
    Assign {
        target: LValue,
        op: Option<BinOp>,
        value: Box<Expr>,
    },
    /// `++x`, `x++`, `--x`, `x--` (value semantics of pre/post preserved).
    Incr {
        target: LValue,
        delta: i8,
        post: bool,
    },
}

/// One declarator in a declaration: name, optional array length, optional
/// initializer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Declarator {
    pub name: String,
    pub array_len: Option<usize>,
    pub init: Option<Expr>,
}

/// Statements. A branch or loop body (`then_`, `else_`, `body`) as the
/// parser builds it is never a bare `Decl`: that is wrapped in a `Block`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stmt {
    Decl {
        is_static: bool,
        ty: CType,
        decls: Vec<Declarator>,
    },
    Expr(Expr),
    If {
        cond: Expr,
        then_: Box<Stmt>,
        else_: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
    Empty,
}

/// A parsed reaction body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Body {
    pub stmts: Vec<Stmt>,
}

type PResult<T> = Result<T, ParseError>;

/// Parse a reaction body (the text between the braces of a `reaction`).
pub fn parse_body(src: &str) -> PResult<Body> {
    let toks = lex(src)?;
    let mut p = CParser { src, pos: 0, toks };
    let mut stmts = Vec::new();
    while p.peek().is_some() {
        stmts.push(p.stmt()?);
    }
    Ok(Body { stmts })
}

struct CParser<'s> {
    src: &'s str,
    toks: Vec<Spanned>,
    pos: usize,
}

impl CParser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.line)
            .unwrap_or(1)
    }

    fn col(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| s.col)
            .unwrap_or(1)
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError::at(self.src, msg, self.line(), self.col()))
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> PResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            match self.peek() {
                Some(got) => self.err(format!("expected {t}, found {got}")),
                None => self.err(format!("expected {t}, found end of input")),
            }
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            Some(got) => self.err(format!("expected identifier, found {got}")),
            None => self.err("expected identifier, found end of input"),
        }
    }

    // -- types --------------------------------------------------------------

    /// Try to parse a type name; returns `None` without consuming if the
    /// next tokens are not a type.
    fn try_type(&mut self) -> Option<CType> {
        let Some(Tok::Ident(name)) = self.peek() else {
            return None;
        };
        let ty = parse_type_name(name)?;
        // `unsigned int` / `unsigned long` forms: consume a following bare
        // `int`/`long` if present.
        self.pos += 1;
        if matches!(ty, CType::UInt(_) | CType::Int(_)) {
            if let Some(Tok::Ident(next)) = self.peek() {
                if next == "int" || next == "long" {
                    let wide = next == "long";
                    self.pos += 1;
                    return Some(match ty {
                        CType::UInt(_) => CType::UInt(if wide { 64 } else { 32 }),
                        CType::Int(_) => CType::Int(if wide { 64 } else { 32 }),
                    });
                }
            }
        }
        Some(ty)
    }

    // -- statements ----------------------------------------------------------

    fn stmt(&mut self) -> PResult<Stmt> {
        match self.peek().cloned() {
            Some(Tok::Semi) => {
                self.pos += 1;
                Ok(Stmt::Empty)
            }
            Some(Tok::LBrace) => {
                self.pos += 1;
                let mut stmts = Vec::new();
                while !self.eat(&Tok::RBrace) {
                    if self.peek().is_none() {
                        return self.err("unterminated block");
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Some(Tok::Ident(kw)) => match kw.as_str() {
                "if" => self.if_stmt(),
                "while" => self.while_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    self.pos += 1;
                    if self.eat(&Tok::Semi) {
                        Ok(Stmt::Return(None))
                    } else {
                        let e = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Return(Some(e)))
                    }
                }
                "break" => {
                    self.pos += 1;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Break)
                }
                "continue" => {
                    self.pos += 1;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Continue)
                }
                "static" => {
                    self.pos += 1;
                    let Some(ty) = self.try_type() else {
                        return self.err("expected type after `static`");
                    };
                    self.decl(true, ty)
                }
                _ => {
                    if let Some(ty) = self.try_type() {
                        self.decl(false, ty)
                    } else {
                        let e = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Expr(e))
                    }
                }
            },
            Some(_) => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
            None => self.err("expected statement, found end of input"),
        }
    }

    /// The body of an `if` / `else` / `while` / `for`. A bare declaration
    /// there is wrapped in a block — C++'s implicit substatement scope — so
    /// no consumer of the AST ever sees a name whose visibility depends on
    /// whether a branch ran.
    fn substmt(&mut self) -> PResult<Stmt> {
        Ok(match self.stmt()? {
            decl @ Stmt::Decl { .. } => Stmt::Block(vec![decl]),
            s => s,
        })
    }

    fn decl(&mut self, is_static: bool, ty: CType) -> PResult<Stmt> {
        let mut decls = Vec::new();
        loop {
            let name = self.ident()?;
            let array_len = if self.eat(&Tok::LBracket) {
                let n = match self.peek().cloned() {
                    Some(Tok::Number(n)) => {
                        self.pos += 1;
                        n as usize
                    }
                    _ => return self.err("array length must be a constant"),
                };
                self.expect(&Tok::RBracket)?;
                Some(n)
            } else {
                None
            };
            let init = if self.eat(&Tok::Eq) {
                Some(self.assign_expr()?)
            } else {
                None
            };
            decls.push(Declarator {
                name,
                array_len,
                init,
            });
            if self.eat(&Tok::Semi) {
                break;
            }
            self.expect(&Tok::Comma)?;
        }
        Ok(Stmt::Decl {
            is_static,
            ty,
            decls,
        })
    }

    fn if_stmt(&mut self) -> PResult<Stmt> {
        self.pos += 1; // `if`
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_ = Box::new(self.substmt()?);
        let else_ = if matches!(self.peek(), Some(Tok::Ident(s)) if s == "else") {
            self.pos += 1;
            Some(Box::new(self.substmt()?))
        } else {
            None
        };
        Ok(Stmt::If { cond, then_, else_ })
    }

    fn while_stmt(&mut self) -> PResult<Stmt> {
        self.pos += 1; // `while`
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let body = Box::new(self.substmt()?);
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> PResult<Stmt> {
        self.pos += 1; // `for`
        self.expect(&Tok::LParen)?;
        let init = if self.eat(&Tok::Semi) {
            None
        } else {
            // The init clause may be a declaration or an expression; `stmt`
            // consumes the `;` in both cases.
            Some(Box::new(self.stmt()?))
        };
        let cond = if self.eat(&Tok::Semi) {
            None
        } else {
            let e = self.expr()?;
            self.expect(&Tok::Semi)?;
            Some(e)
        };
        let step = if self.peek() == Some(&Tok::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&Tok::RParen)?;
        let body = Box::new(self.substmt()?);
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    // -- expressions (precedence climbing) -----------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.assign_expr()
    }

    fn assign_expr(&mut self) -> PResult<Expr> {
        // Try to parse an lvalue followed by an assignment operator. We
        // detect this by lookahead to avoid backtracking in the common case.
        if let Some((target, consumed)) = self.try_lvalue()? {
            let op = match self.peek_at(consumed) {
                Some(Tok::Eq) => Some(None),
                Some(Tok::PlusEq) => Some(Some(BinOp::Add)),
                Some(Tok::MinusEq) => Some(Some(BinOp::Sub)),
                Some(Tok::StarEq) => Some(Some(BinOp::Mul)),
                Some(Tok::SlashEq) => Some(Some(BinOp::Div)),
                Some(Tok::PercentEq) => Some(Some(BinOp::Rem)),
                Some(Tok::AmpEq) => Some(Some(BinOp::And)),
                Some(Tok::PipeEq) => Some(Some(BinOp::Or)),
                Some(Tok::CaretEq) => Some(Some(BinOp::Xor)),
                Some(Tok::ShlEq) => Some(Some(BinOp::Shl)),
                Some(Tok::ShrEq) => Some(Some(BinOp::Shr)),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += consumed + 1; // lvalue + operator
                let value = Box::new(self.assign_expr()?);
                return Ok(Expr::Assign { target, op, value });
            }
        }
        self.ternary()
    }

    /// If the upcoming tokens form an lvalue, return it along with the
    /// number of tokens it spans, *without consuming them*.
    fn try_lvalue(&mut self) -> PResult<Option<(LValue, usize)>> {
        match self.peek() {
            Some(Tok::MblOpen) => {
                if let (Some(Tok::Ident(name)), Some(Tok::RBrace)) =
                    (self.peek_at(1), self.peek_at(2))
                {
                    Ok(Some((LValue::Mbl(name.clone()), 3)))
                } else {
                    Ok(None)
                }
            }
            Some(Tok::Ident(name)) => {
                let name = name.clone();
                if self.peek_at(1) == Some(&Tok::LBracket) {
                    // Scan to the matching `]`; the index is parsed properly
                    // only if an assignment operator follows.
                    let mut depth = 0usize;
                    let mut i = 1usize;
                    loop {
                        match self.peek_at(i) {
                            Some(Tok::LBracket) => depth += 1,
                            Some(Tok::RBracket) => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Some(_) => {}
                            None => return Ok(None),
                        }
                        i += 1;
                    }
                    // Parse the index sub-expression on a clone of positions.
                    let save = self.pos;
                    self.pos += 2; // name + `[`
                    let idx = self.expr()?;
                    // We must now be at the matching `]`.
                    if self.peek() != Some(&Tok::RBracket) {
                        self.pos = save;
                        return Ok(None);
                    }
                    let consumed = self.pos - save + 1;
                    self.pos = save;
                    Ok(Some((LValue::Index(name, Box::new(idx)), consumed)))
                } else {
                    Ok(Some((LValue::Var(name), 1)))
                }
            }
            _ => Ok(None),
        }
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.logical_or()?;
        if self.eat(&Tok::Question) {
            let a = self.expr()?;
            self.expect(&Tok::Colon)?;
            let b = self.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    fn logical_or(&mut self) -> PResult<Expr> {
        let mut lhs = self.logical_and()?;
        while self.eat(&Tok::PipePipe) {
            let rhs = self.logical_and()?;
            lhs = Expr::Binary(BinOp::LOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> PResult<Expr> {
        let mut lhs = self.bit_or()?;
        while self.eat(&Tok::AmpAmp) {
            let rhs = self.bit_or()?;
            lhs = Expr::Binary(BinOp::LAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> PResult<Expr> {
        let mut lhs = self.bit_xor()?;
        while self.eat(&Tok::Pipe) {
            let rhs = self.bit_xor()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> PResult<Expr> {
        let mut lhs = self.bit_and()?;
        while self.eat(&Tok::Caret) {
            let rhs = self.bit_and()?;
            lhs = Expr::Binary(BinOp::Xor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_and(&mut self) -> PResult<Expr> {
        let mut lhs = self.equality()?;
        while self.eat(&Tok::Amp) {
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> PResult<Expr> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Some(Tok::EqEq) => BinOp::Eq,
                Some(Tok::Ne) => BinOp::Ne,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.relational()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn relational(&mut self) -> PResult<Expr> {
        let mut lhs = self.shift()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Le) => BinOp::Le,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Ge) => BinOp::Ge,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.shift()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn shift(&mut self) -> PResult<Expr> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Shl) => BinOp::Shl,
                Some(Tok::Shr) => BinOp::Shr,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn additive(&mut self) -> PResult<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)))
            }
            Some(Tok::Tilde) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)))
            }
            Some(Tok::Bang) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::LNot, Box::new(self.unary()?)))
            }
            Some(Tok::PlusPlus) | Some(Tok::MinusMinus) => {
                let delta = if self.peek() == Some(&Tok::PlusPlus) {
                    1
                } else {
                    -1
                };
                self.pos += 1;
                let Some((target, consumed)) = self.try_lvalue()? else {
                    return self.err("expected lvalue after `++`/`--`");
                };
                self.pos += consumed;
                Ok(Expr::Incr {
                    target,
                    delta,
                    post: false,
                })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Some(Tok::PlusPlus) | Some(Tok::MinusMinus) => {
                    let delta = if self.peek() == Some(&Tok::PlusPlus) {
                        1
                    } else {
                        -1
                    };
                    let target = match &e {
                        Expr::Var(n) => LValue::Var(n.clone()),
                        Expr::Mbl(n) => LValue::Mbl(n.clone()),
                        Expr::Index(n, i) => LValue::Index(n.clone(), i.clone()),
                        _ => return self.err("`++`/`--` target must be an lvalue"),
                    };
                    self.pos += 1;
                    e = Expr::Incr {
                        target,
                        delta,
                        post: true,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.peek().cloned() {
            Some(Tok::Number(n)) => {
                self.pos += 1;
                Ok(Expr::Num(n as i128))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                // Parenthesized expression or a C cast like `(uint32_t) e`.
                if let Some(Tok::Ident(name)) = self.peek() {
                    if parse_type_name(name).is_some() && self.peek_at(1) == Some(&Tok::RParen) {
                        let ty = parse_type_name(name).unwrap();
                        self.pos += 2;
                        let inner = self.unary()?;
                        // Casts are modelled as a truncating builtin.
                        return Ok(Expr::Call(
                            format!(
                                "__cast_{}{}",
                                if ty.is_signed() { "i" } else { "u" },
                                ty.bits()
                            ),
                            vec![inner],
                        ));
                    }
                }
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::MblOpen) => {
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::RBrace)?;
                Ok(Expr::Mbl(name))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match self.peek() {
                    Some(Tok::LParen) => {
                        self.pos += 1;
                        let args = self.call_args()?;
                        Ok(Expr::Call(name, args))
                    }
                    Some(Tok::LBracket) => {
                        self.pos += 1;
                        let idx = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        Ok(Expr::Index(name, Box::new(idx)))
                    }
                    Some(Tok::Dot) => {
                        self.pos += 1;
                        let method = self.ident()?;
                        self.expect(&Tok::LParen)?;
                        let args = self.call_args()?;
                        Ok(Expr::Method {
                            receiver: name,
                            method,
                            args,
                        })
                    }
                    _ => Ok(Expr::Var(name)),
                }
            }
            Some(got) => self.err(format!("expected expression, found {got}")),
            None => self.err("expected expression, found end of input"),
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&Tok::RParen) {
                return Ok(args);
            }
            self.expect(&Tok::Comma)?;
        }
    }
}

/// Recognize C integer type names.
fn parse_type_name(name: &str) -> Option<CType> {
    match name {
        "int" => Some(CType::Int(32)),
        "long" => Some(CType::Int(64)),
        "unsigned" => Some(CType::UInt(32)),
        "int8_t" => Some(CType::Int(8)),
        "int16_t" => Some(CType::Int(16)),
        "int32_t" => Some(CType::Int(32)),
        "int64_t" => Some(CType::Int(64)),
        "uint8_t" => Some(CType::UInt(8)),
        "uint16_t" => Some(CType::UInt(16)),
        "uint32_t" => Some(CType::UInt(32)),
        "uint64_t" => Some(CType::UInt(64)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Body {
        parse_body(src).unwrap()
    }

    #[test]
    fn parses_figure_1_body() {
        let src = r#"
uint16_t current_max = 0, max_port = 0;
for (int i = 1; i <= 10; ++i)
    if (qdepths[i] > current_max) {
        current_max = qdepths[i]; max_port = i;
    }
${value_var} = max_port;
"#;
        let b = parse(src);
        assert_eq!(b.stmts.len(), 3);
        match &b.stmts[0] {
            Stmt::Decl {
                is_static,
                ty,
                decls,
            } => {
                assert!(!is_static);
                assert_eq!(*ty, CType::UInt(16));
                assert_eq!(decls.len(), 2);
                assert_eq!(decls[0].name, "current_max");
                assert_eq!(decls[0].init, Some(Expr::Num(0)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &b.stmts[1] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(init.is_some());
                assert!(cond.is_some());
                assert!(matches!(step, Some(Expr::Incr { post: false, .. })));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &b.stmts[2] {
            Stmt::Expr(Expr::Assign { target, op, .. }) => {
                assert_eq!(target, &LValue::Mbl("value_var".into()));
                assert!(op.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_before_add() {
        let b = parse("int x = 1 + 2 * 3;");
        match &b.stmts[0] {
            Stmt::Decl { decls, .. } => match decls[0].init.as_ref().unwrap() {
                Expr::Binary(BinOp::Add, lhs, rhs) => {
                    assert_eq!(**lhs, Expr::Num(1));
                    assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_vs_relational() {
        // `a << 1 < b` parses as `(a << 1) < b`.
        let b = parse("int x = a << 1 < b;");
        match &b.stmts[0] {
            Stmt::Decl { decls, .. } => {
                assert!(matches!(
                    decls[0].init.as_ref().unwrap(),
                    Expr::Binary(BinOp::Lt, _, _)
                ));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn compound_assignment() {
        let b = parse("x += 2; arr[i] -= 1; ${m} = 5;");
        assert!(matches!(
            &b.stmts[0],
            Stmt::Expr(Expr::Assign {
                op: Some(BinOp::Add),
                ..
            })
        ));
        match &b.stmts[1] {
            Stmt::Expr(Expr::Assign { target, op, .. }) => {
                assert!(matches!(target, LValue::Index(n, _) if n == "arr"));
                assert_eq!(*op, Some(BinOp::Sub));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(
            &b.stmts[2],
            Stmt::Expr(Expr::Assign {
                target: LValue::Mbl(_),
                ..
            })
        ));
    }

    #[test]
    fn static_arrays_and_while() {
        let b = parse("static uint64_t tbl[4096]; while (i < 10) { i++; }");
        match &b.stmts[0] {
            Stmt::Decl {
                is_static, decls, ..
            } => {
                assert!(is_static);
                assert_eq!(decls[0].array_len, Some(4096));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(&b.stmts[1], Stmt::While { .. }));
    }

    #[test]
    fn table_method_calls() {
        let b = parse("table_var.addEntry(1, 2, 3); table_var.delEntry(0);");
        match &b.stmts[0] {
            Stmt::Expr(Expr::Method {
                receiver,
                method,
                args,
            }) => {
                assert_eq!(receiver, "table_var");
                assert_eq!(method, "addEntry");
                assert_eq!(args.len(), 3);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ternary_and_logical() {
        let b = parse("int x = a > b && c || !d ? 1 : 0;");
        assert!(matches!(
            &b.stmts[0],
            Stmt::Decl { decls, .. }
                if matches!(decls[0].init.as_ref().unwrap(), Expr::Ternary(_, _, _))
        ));
    }

    #[test]
    fn casts_become_builtin_calls() {
        let b = parse("int x = (uint32_t) y;");
        match &b.stmts[0] {
            Stmt::Decl { decls, .. } => match decls[0].init.as_ref().unwrap() {
                Expr::Call(name, args) => {
                    assert_eq!(name, "__cast_u32");
                    assert_eq!(args.len(), 1);
                }
                other => panic!("unexpected: {other:?}"),
            },
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn post_and_pre_increment() {
        let b = parse("x++; ++x; x--; --x;");
        let posts: Vec<bool> = b
            .stmts
            .iter()
            .map(|s| match s {
                Stmt::Expr(Expr::Incr { post, .. }) => *post,
                other => panic!("unexpected: {other:?}"),
            })
            .collect();
        assert_eq!(posts, vec![true, false, true, false]);
    }

    #[test]
    fn for_with_empty_clauses() {
        let b = parse("for (;;) { break; }");
        match &b.stmts[0] {
            Stmt::For {
                init, cond, step, ..
            } => {
                assert!(init.is_none());
                assert!(cond.is_none());
                assert!(step.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bare_decl_substatement_is_wrapped_in_a_block() {
        let block_of_decl =
            |s: &Stmt| matches!(s, Stmt::Block(b) if matches!(b[..], [Stmt::Decl { .. }]));
        let b = parse(
            "if (a) int x = 1; else static int y = 2; \
             while (a) int z; for (int i = 0;;) int w = i; if (a) x = 1;",
        );
        match &b.stmts[..] {
            [Stmt::If {
                then_,
                else_: Some(else_),
                ..
            }, Stmt::While { body: w, .. }, Stmt::For { init, body: f, .. }, Stmt::If { then_: plain, .. }] =>
            {
                assert!(block_of_decl(then_) && block_of_decl(else_));
                assert!(block_of_decl(w) && block_of_decl(f));
                // A `for` init clause shares the loop's scope and stays bare;
                // a non-declaration body is left alone.
                assert!(matches!(init.as_deref(), Some(Stmt::Decl { .. })));
                assert!(matches!(**plain, Stmt::Expr(_)));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(parse("if (a) int x = 1;"), parse("if (a) { int x = 1; }"));
    }

    #[test]
    fn dangling_else_binds_inner() {
        let b = parse("if (a) if (b) x = 1; else x = 2;");
        match &b.stmts[0] {
            Stmt::If { else_, then_, .. } => {
                assert!(else_.is_none());
                assert!(matches!(**then_, Stmt::If { else_: Some(_), .. }));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn builtin_calls() {
        let b = parse("uint64_t t = now_us(); int d = abs(a - b);");
        assert_eq!(b.stmts.len(), 2);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_body("int = ;").is_err());
        assert!(parse_body("if (").is_err());
        assert!(parse_body("{ unclosed").is_err());
    }

    #[test]
    fn unsigned_long_parses() {
        let b = parse("unsigned long x = 1;");
        assert!(matches!(
            &b.stmts[0],
            Stmt::Decl {
                ty: CType::UInt(64),
                ..
            }
        ));
    }
}
