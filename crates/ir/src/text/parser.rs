//! Recursive-descent parser lowering source text to the affine IR.

use super::lexer::{Lexer, Token, TokenKind};
use super::ParseError;
use crate::build::{DistSpec, ProgramBuilder};
use crate::{
    Affine, ArrayId, CmpOp, Expr, GuardCond, LhsRef, LoopId, Program, RedOp, ScalarId, SymId,
};
use std::collections::HashMap;

type PResult<T> = Result<T, ParseError>;

const OVERFLOW: &str = "affine expression overflows a 64-bit integer";

/// `a - b`, or `None` on overflow.
fn checked_sub(a: Affine, b: &Affine) -> Option<Affine> {
    a.checked_add(&b.checked_scaled(-1)?)
}

/// Parsed-but-untyped expression tree.
#[derive(Clone, Debug)]
enum PExpr {
    Int(i64),
    Float(f64),
    Var(String),
    Call(String, Vec<PExpr>),
    Neg(Box<PExpr>),
    Bin(char, Box<PExpr>, Box<PExpr>),
}

enum OpenKind {
    Loop,
    Guard,
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    pb: ProgramBuilder,
    syms: HashMap<String, SymId>,
    scalars: HashMap<String, ScalarId>,
    arrays: HashMap<String, ArrayId>,
    params: HashMap<String, i64>,
    /// `param` values supplied by the caller, replacing the defaults.
    given: Vec<(String, i64)>,
    /// Innermost-last stack of (name, id) loop bindings.
    loops: Vec<(String, LoopId)>,
    open: Vec<OpenKind>,
}

/// Parse a whole program.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    parse_with(src, &[])
}

/// Parse a whole program, giving each named `param` the supplied value
/// instead of its declared default. Naming a `param` the source does
/// not declare is an error.
pub fn parse_with(src: &str, params: &[(&str, i64)]) -> Result<Program, ParseError> {
    let mut p = Parser {
        toks: Lexer::new(src).tokenize()?,
        pos: 0,
        pb: ProgramBuilder::new("anonymous"),
        syms: HashMap::new(),
        scalars: HashMap::new(),
        arrays: HashMap::new(),
        params: HashMap::new(),
        given: params.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        loops: Vec::new(),
        open: Vec::new(),
    };
    let prog = p.program()?;
    match p.given.iter().find(|(n, _)| !p.params.contains_key(n)) {
        Some((name, _)) => Err(ParseError {
            line: 0,
            msg: format!("no `param {name}` to set"),
        }),
        None => Ok(prog),
    }
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn line(&self) -> usize {
        self.peek().line
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.err(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(s) = &self.peek().kind {
            if s == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn end_of_stmt(&mut self) -> PResult<()> {
        if self.eat(&TokenKind::Newline) || self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of line, found {}", self.peek().kind))
        }
    }

    fn skip_newlines(&mut self) {
        while self.eat(&TokenKind::Newline) {}
    }

    // ------------------------------------------------------------------
    // Top level
    // ------------------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        self.skip_newlines();
        if !self.eat_keyword("program") {
            return self.err("program must start with `program <name>`");
        }
        let name = self.expect_ident()?;
        self.pb = ProgramBuilder::new(name);
        self.end_of_stmt()?;

        loop {
            self.skip_newlines();
            if self.peek().kind == TokenKind::Eof {
                break;
            }
            self.statement()?;
        }
        if !self.open.is_empty() {
            return self.err("unterminated `do`/`doall`/`if` (missing `end`)");
        }
        let pb = std::mem::replace(&mut self.pb, ProgramBuilder::new("x"));
        let prog = pb.finish_unchecked();
        let problems = prog.validate();
        if let Some(p) = problems.first() {
            return Err(ParseError {
                line: 0,
                msg: format!("invalid program: {p}"),
            });
        }
        Ok(prog)
    }

    fn statement(&mut self) -> PResult<()> {
        let TokenKind::Ident(word) = self.peek().kind.clone() else {
            return self.err(format!("expected a statement, found {}", self.peek().kind));
        };
        match word.as_str() {
            "sym" => self.sym_decl(),
            "param" => self.param_decl(),
            "array" => self.array_decl(),
            "scalar" => self.scalar_decl(),
            "do" | "doall" => self.loop_stmt(word == "doall"),
            "if" => self.if_stmt(),
            "end" => {
                self.bump();
                match self.open.pop() {
                    Some(OpenKind::Loop) => {
                        self.loops.pop();
                        self.pb.end();
                    }
                    Some(OpenKind::Guard) => self.pb.end(),
                    None => return self.err("`end` with nothing open"),
                }
                self.end_of_stmt()
            }
            "maxreduce" | "minreduce" => {
                self.bump();
                let op = if word == "maxreduce" {
                    RedOp::Max
                } else {
                    RedOp::Min
                };
                let lhs = self.lhs()?;
                self.expect(TokenKind::Eq)?;
                let rhs = self.value_expr()?;
                self.pb.reduce(lhs, op, rhs);
                self.end_of_stmt()
            }
            _ => self.assign_stmt(),
        }
    }

    fn sym_decl(&mut self) -> PResult<()> {
        self.bump(); // sym
        loop {
            let name = self.expect_ident()?;
            if self.syms.contains_key(&name) || self.params.contains_key(&name) {
                return self.err(format!("duplicate sym `{name}`"));
            }
            let id = self.pb.sym(&name);
            self.syms.insert(name, id);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.end_of_stmt()
    }

    fn param_decl(&mut self) -> PResult<()> {
        self.bump(); // param
        let name = self.expect_ident()?;
        if self.params.contains_key(&name) || self.syms.contains_key(&name) {
            return self.err(format!("duplicate name `{name}`"));
        }
        self.expect(TokenKind::Eq)?;
        let default = self.expect_int()?;
        let value = self
            .given
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(default, |g| g.1);
        self.params.insert(name, value);
        self.end_of_stmt()
    }

    fn array_decl(&mut self) -> PResult<()> {
        self.bump(); // array
        let name = self.expect_ident()?;
        if self.arrays.contains_key(&name) {
            return self.err(format!("duplicate array `{name}`"));
        }
        self.expect(TokenKind::LParen)?;
        let mut extents = Vec::new();
        loop {
            let e = self.affine_expr()?;
            extents.push(e);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::RParen)?;
        // Distribution keyword.
        let mut private = false;
        let dist = if self.eat_keyword("block") {
            DistSpec::Block(self.opt_dim()?)
        } else if self.eat_keyword("cyclic") {
            if self.eat(&TokenKind::LParen) {
                let b = self.expect_int()?;
                self.expect(TokenKind::RParen)?;
                DistSpec::BlockCyclic(self.opt_dim()?, b)
            } else {
                DistSpec::Cyclic(self.opt_dim()?)
            }
        } else if self.eat_keyword("repl") {
            DistSpec::Repl
        } else if self.eat_keyword("private") {
            private = true;
            DistSpec::Repl
        } else {
            DistSpec::Repl
        };
        match dist {
            DistSpec::Block(k) | DistSpec::Cyclic(k) | DistSpec::BlockCyclic(k, _)
                if k >= extents.len() =>
            {
                return self.err(format!(
                    "distributed dimension @{k} of `{name}` is past its rank {}",
                    extents.len()
                ));
            }
            DistSpec::BlockCyclic(_, b) if b < 1 => {
                return self.err(format!("block-cyclic block size {b} is below 1"));
            }
            _ => {}
        }
        let id = if private {
            self.pb.private_array(&name, &extents)
        } else {
            self.pb.array(&name, &extents, dist)
        };
        self.arrays.insert(name, id);
        self.end_of_stmt()
    }

    fn opt_dim(&mut self) -> PResult<usize> {
        if self.eat(&TokenKind::At) {
            Ok(self.expect_int()? as usize)
        } else {
            Ok(0)
        }
    }

    fn expect_int(&mut self) -> PResult<i64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => self.err(format!("expected integer, found {}", self.peek().kind)),
        }
    }

    fn scalar_decl(&mut self) -> PResult<()> {
        self.bump(); // scalar
        let name = self.expect_ident()?;
        if self.scalars.contains_key(&name) {
            return self.err(format!("duplicate scalar `{name}`"));
        }
        let init = if self.eat(&TokenKind::Eq) {
            match self.peek().kind {
                TokenKind::Float(v) => {
                    self.bump();
                    v
                }
                TokenKind::Int(v) => {
                    self.bump();
                    v as f64
                }
                TokenKind::Minus => {
                    self.bump();
                    match self.peek().kind {
                        TokenKind::Float(v) => {
                            self.bump();
                            -v
                        }
                        TokenKind::Int(v) => {
                            self.bump();
                            -(v as f64)
                        }
                        _ => return self.err("expected a number after `-`"),
                    }
                }
                _ => return self.err("expected a number initializer"),
            }
        } else {
            0.0
        };
        let private = self.eat_keyword("private");
        let id = if private {
            self.pb.private_scalar(&name, init)
        } else {
            self.pb.scalar(&name, init)
        };
        self.scalars.insert(name, id);
        self.end_of_stmt()
    }

    fn loop_stmt(&mut self, parallel: bool) -> PResult<()> {
        self.bump(); // do / doall
        let var = self.expect_ident()?;
        self.expect(TokenKind::Eq)?;
        let lo = self.affine_expr()?;
        self.expect(TokenKind::Comma)?;
        let hi = self.affine_expr()?;
        self.end_of_stmt()?;
        let id = if parallel {
            self.pb.begin_par(&var, lo, hi)
        } else {
            self.pb.begin_seq(&var, lo, hi)
        };
        self.loops.push((var, id));
        self.open.push(OpenKind::Loop);
        Ok(())
    }

    fn if_stmt(&mut self) -> PResult<()> {
        self.bump(); // if
        let mut conds = Vec::new();
        loop {
            let lhs = self.affine_expr()?;
            let op = match self.peek().kind {
                TokenKind::EqEq => CmpOp::Eq,
                TokenKind::Ge => CmpOp::Ge,
                TokenKind::Le => CmpOp::Le,
                _ => return self.err("expected `==`, `>=`, or `<=` in condition"),
            };
            self.bump();
            let rhs = self.affine_expr()?;
            let Some(expr) = checked_sub(lhs, &rhs) else {
                return self.err(OVERFLOW);
            };
            conds.push(GuardCond { expr, op });
            if !self.eat_keyword("and") {
                break;
            }
        }
        if !self.eat_keyword("then") {
            return self.err("expected `then` after condition");
        }
        self.end_of_stmt()?;
        self.pb.begin_guard(conds);
        self.open.push(OpenKind::Guard);
        Ok(())
    }

    fn lhs(&mut self) -> PResult<LhsRef> {
        let name = self.expect_ident()?;
        if let Some(&arr) = self.arrays.get(&name) {
            self.expect(TokenKind::LParen)?;
            let mut subs = Vec::new();
            loop {
                subs.push(self.affine_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
            Ok(LhsRef::Elem(arr, subs))
        } else if let Some(&s) = self.scalars.get(&name) {
            Ok(LhsRef::Scalar(s))
        } else {
            self.err(format!("`{name}` is not a declared array or scalar"))
        }
    }

    fn assign_stmt(&mut self) -> PResult<()> {
        let lhs = self.lhs()?;
        if self.eat(&TokenKind::PlusEq) {
            let rhs = self.value_expr()?;
            self.pb.reduce(lhs, RedOp::Add, rhs);
        } else {
            self.expect(TokenKind::Eq)?;
            let rhs = self.value_expr()?;
            self.pb.assign(lhs, rhs);
        }
        self.end_of_stmt()
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn pexpr(&mut self) -> PResult<PExpr> {
        self.pexpr_add()
    }

    fn pexpr_add(&mut self) -> PResult<PExpr> {
        let mut e = self.pexpr_mul()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                e = PExpr::Bin('+', Box::new(e), Box::new(self.pexpr_mul()?));
            } else if self.eat(&TokenKind::Minus) {
                e = PExpr::Bin('-', Box::new(e), Box::new(self.pexpr_mul()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn pexpr_mul(&mut self) -> PResult<PExpr> {
        let mut e = self.pexpr_unary()?;
        loop {
            if self.eat(&TokenKind::Star) {
                e = PExpr::Bin('*', Box::new(e), Box::new(self.pexpr_unary()?));
            } else if self.eat(&TokenKind::Slash) {
                e = PExpr::Bin('/', Box::new(e), Box::new(self.pexpr_unary()?));
            } else {
                return Ok(e);
            }
        }
    }

    fn pexpr_unary(&mut self) -> PResult<PExpr> {
        if self.eat(&TokenKind::Minus) {
            return Ok(PExpr::Neg(Box::new(self.pexpr_unary()?)));
        }
        match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(PExpr::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(PExpr::Float(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.pexpr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if self.peek().kind != TokenKind::RParen {
                        loop {
                            args.push(self.pexpr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(PExpr::Call(name, args))
                } else {
                    Ok(PExpr::Var(name))
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    /// Parse an affine expression (bounds, subscripts, conditions).
    fn affine_expr(&mut self) -> PResult<Affine> {
        let line = self.line();
        let p = self.pexpr()?;
        self.to_affine(&p).map_err(|msg| ParseError { line, msg })
    }

    fn lookup_atom(&self, name: &str) -> Option<Affine> {
        if let Some((_, id)) = self.loops.iter().rev().find(|(n, _)| n == name) {
            return Some(Affine::index(*id));
        }
        if let Some(&v) = self.params.get(name) {
            return Some(Affine::constant(v));
        }
        self.syms.get(name).map(|&s| Affine::sym(s))
    }

    fn to_affine(&self, p: &PExpr) -> Result<Affine, String> {
        let overflow = || OVERFLOW.to_string();
        match p {
            PExpr::Int(v) => Ok(Affine::constant(*v)),
            PExpr::Float(_) => Err("float literal in an affine context".into()),
            PExpr::Var(name) => self
                .lookup_atom(name)
                .ok_or_else(|| format!("`{name}` is not a loop index, sym or param")),
            PExpr::Neg(e) => self.to_affine(e)?.checked_scaled(-1).ok_or_else(overflow),
            PExpr::Bin('+', a, b) => self
                .to_affine(a)?
                .checked_add(&self.to_affine(b)?)
                .ok_or_else(overflow),
            PExpr::Bin('-', a, b) => {
                checked_sub(self.to_affine(a)?, &self.to_affine(b)?).ok_or_else(overflow)
            }
            PExpr::Bin('*', a, b) => {
                // One side must be an integer constant.
                let ea = self.to_affine(a)?;
                let eb = self.to_affine(b)?;
                let product = if ea.is_constant() {
                    eb.checked_scaled(ea.constant_term())
                } else if eb.is_constant() {
                    ea.checked_scaled(eb.constant_term())
                } else {
                    return Err("non-affine product of two variables".into());
                };
                product.ok_or_else(overflow)
            }
            PExpr::Bin('/', ..) => Err("division is not affine".into()),
            PExpr::Bin(op, ..) => Err(format!("operator `{op}` is not affine")),
            PExpr::Call(name, _) => Err(format!("call to `{name}` in an affine context")),
        }
    }

    /// Parse a value (floating-point) expression.
    fn value_expr(&mut self) -> PResult<Expr> {
        let line = self.line();
        let p = self.pexpr()?;
        self.to_value(&p).map_err(|msg| ParseError { line, msg })
    }

    fn to_value(&self, p: &PExpr) -> Result<Expr, String> {
        use crate::{BinOp, UnOp};
        Ok(match p {
            PExpr::Int(v) => Expr::Lit(*v as f64),
            PExpr::Float(v) => Expr::Lit(*v),
            PExpr::Var(name) => {
                if let Some(&s) = self.scalars.get(name) {
                    Expr::Scalar(s)
                } else if let Some(a) = self.lookup_atom(name) {
                    Expr::Idx(a)
                } else {
                    return Err(format!("`{name}` is not declared"));
                }
            }
            PExpr::Neg(e) => Expr::Un(UnOp::Neg, Box::new(self.to_value(e)?)),
            PExpr::Bin(op, a, b) => {
                let bop = match op {
                    '+' => BinOp::Add,
                    '-' => BinOp::Sub,
                    '*' => BinOp::Mul,
                    '/' => BinOp::Div,
                    _ => return Err(format!("unknown operator `{op}`")),
                };
                Expr::Bin(
                    bop,
                    Box::new(self.to_value(a)?),
                    Box::new(self.to_value(b)?),
                )
            }
            PExpr::Call(name, args) => {
                if let Some(&arr) = self.arrays.get(name) {
                    let subs: Result<Vec<Affine>, String> =
                        args.iter().map(|a| self.to_affine(a)).collect();
                    return Ok(Expr::Elem(arr, subs?));
                }
                if name == "real" {
                    let [arg] = &args[..] else {
                        return Err("`real` takes one argument".into());
                    };
                    return Ok(Expr::Idx(self.to_affine(arg)?));
                }
                let un = match name.as_str() {
                    "sqrt" => Some(UnOp::Sqrt),
                    "abs" => Some(UnOp::Abs),
                    "exp" => Some(UnOp::Exp),
                    "sin" => Some(UnOp::Sin),
                    "cos" => Some(UnOp::Cos),
                    _ => None,
                };
                if let Some(u) = un {
                    if args.len() != 1 {
                        return Err(format!("`{name}` takes one argument"));
                    }
                    return Ok(Expr::Un(u, Box::new(self.to_value(&args[0])?)));
                }
                match name.as_str() {
                    "min" | "max" => {
                        if args.len() != 2 {
                            return Err(format!("`{name}` takes two arguments"));
                        }
                        let b = match name.as_str() {
                            "min" => BinOp::Min,
                            _ => BinOp::Max,
                        };
                        Expr::Bin(
                            b,
                            Box::new(self.to_value(&args[0])?),
                            Box::new(self.to_value(&args[1])?),
                        )
                    }
                    _ => return Err(format!("`{name}` is not an array or builtin function")),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JACOBI: &str = "
program jacobi
sym n, tmax
array A(n) block
array B(n) block

doall i0 = 0, n-1
  A(i0) = sin(i0)
end

do t = 0, tmax-1
  doall i = 1, n-2
    B(i) = 0.5 * (A(i-1) + A(i+1))
  end
  doall j = 1, n-2
    A(j) = B(j)
  end
end
";

    #[test]
    fn parses_jacobi() {
        let prog = parse(JACOBI).unwrap();
        assert_eq!(prog.name, "jacobi");
        assert_eq!(prog.arrays.len(), 2);
        assert_eq!(prog.parallel_loops().len(), 3);
        assert!(prog.validate().is_empty());
    }

    #[test]
    fn reductions_guards_and_distributions() {
        let src = "
program kitchen
sym n
array A(n, n) cyclic(2)@1
array D(n) private
scalar acc = 0.0
scalar tmp = 1.5 private

do k = 0, n-1
  doall j = 0, n-1
    D(j) = A(k, j)
  end
  doall i = 0, n-1
    if i - k >= 1 then
      acc += D(i) * D(i)
    end
  end
  maxreduce acc = D(k)
end
";
        let prog = parse(src).unwrap();
        assert!(prog.validate().is_empty());
        assert!(prog.arrays[1].privatizable);
        assert!(prog.scalars[1].privatizable);
        assert_eq!(prog.arrays[0].dist.dims[1], crate::DimDist::BlockCyclic(2));
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "
program bad
sym n
array A(n) block
doall i = 0, n-1
  A(i) = B(i)
end
";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.msg.contains("B"), "{e}");
    }

    #[test]
    fn non_affine_subscript_rejected() {
        let src = "
program bad2
sym n
array A(n) block
doall i = 0, n-1
  A(i * i) = 1.0
end
";
        let e = parse(src).unwrap_err();
        assert!(e.msg.contains("non-affine"), "{e}");
    }

    #[test]
    fn unbalanced_end_rejected() {
        let e = parse("\nprogram p\nsym n\nend\n").unwrap_err();
        assert!(e.msg.contains("nothing open"), "{e}");
        let e2 = parse("\nprogram p\nsym n\ndo i = 0, n\n").unwrap_err();
        assert!(e2.msg.contains("unterminated"), "{e2}");
    }
}
