//! Tokenizer for the source language.

use super::ParseError;
use std::fmt;

/// Token categories.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `+=`
    PlusEq,
    /// `==`
    EqEq,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `@`
    At,
    /// End of line (statements are line-oriented).
    Newline,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Float(v) => write!(f, "{v}"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Eq => write!(f, "`=`"),
            TokenKind::PlusEq => write!(f, "`+=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::At => write!(f, "`@`"),
            TokenKind::Newline => write!(f, "end of line"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source line (1-based) for error messages.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Category and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
}

/// Streaming tokenizer.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    /// Lex a whole source string.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    /// Produce the token stream (newlines are significant; consecutive
    /// newlines collapse to one).
    pub fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out: Vec<Token> = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(b' ') | Some(b'\t') | Some(b'\r') => {
                    self.bump();
                }
                Some(b'!') => {
                    // Comment to end of line.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'\n') => {
                    self.bump();
                    if !matches!(out.last().map(|t| &t.kind), None | Some(TokenKind::Newline)) {
                        out.push(Token {
                            kind: TokenKind::Newline,
                            line: self.line,
                        });
                    }
                    self.line += 1;
                }
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == b'_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let word = std::str::from_utf8(&self.src[start..self.pos])
                        .unwrap()
                        .to_string();
                    out.push(Token {
                        kind: TokenKind::Ident(word),
                        line: self.line,
                    });
                }
                Some(c) if c.is_ascii_digit() => {
                    let start = self.pos;
                    let mut is_float = false;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_digit() {
                            self.bump();
                        } else if c == b'.'
                            && self
                                .src
                                .get(self.pos + 1)
                                .map_or(false, |d| d.is_ascii_digit())
                        {
                            is_float = true;
                            self.bump();
                        } else if (c == b'e' || c == b'E')
                            && self
                                .src
                                .get(self.pos + 1)
                                .map_or(false, |d| d.is_ascii_digit() || *d == b'-' || *d == b'+')
                        {
                            is_float = true;
                            self.bump();
                            if matches!(self.peek(), Some(b'-') | Some(b'+')) {
                                self.bump();
                            }
                        } else {
                            break;
                        }
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                    let kind = if is_float {
                        TokenKind::Float(
                            text.parse()
                                .map_err(|_| self.error(format!("bad float `{text}`")))?,
                        )
                    } else {
                        TokenKind::Int(
                            text.parse()
                                .map_err(|_| self.error(format!("bad integer `{text}`")))?,
                        )
                    };
                    out.push(Token {
                        kind,
                        line: self.line,
                    });
                }
                Some(b'(') => self.push_simple(&mut out, TokenKind::LParen),
                Some(b')') => self.push_simple(&mut out, TokenKind::RParen),
                Some(b',') => self.push_simple(&mut out, TokenKind::Comma),
                Some(b'*') => self.push_simple(&mut out, TokenKind::Star),
                Some(b'/') => self.push_simple(&mut out, TokenKind::Slash),
                Some(b'@') => self.push_simple(&mut out, TokenKind::At),
                Some(b'+') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        out.push(Token {
                            kind: TokenKind::PlusEq,
                            line: self.line,
                        });
                    } else {
                        out.push(Token {
                            kind: TokenKind::Plus,
                            line: self.line,
                        });
                    }
                }
                Some(b'-') => self.push_simple(&mut out, TokenKind::Minus),
                Some(b'=') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        out.push(Token {
                            kind: TokenKind::EqEq,
                            line: self.line,
                        });
                    } else {
                        out.push(Token {
                            kind: TokenKind::Eq,
                            line: self.line,
                        });
                    }
                }
                Some(b'>') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        out.push(Token {
                            kind: TokenKind::Ge,
                            line: self.line,
                        });
                    } else {
                        return Err(self.error("`>` must be `>=`"));
                    }
                }
                Some(b'<') => {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        out.push(Token {
                            kind: TokenKind::Le,
                            line: self.line,
                        });
                    } else {
                        return Err(self.error("`<` must be `<=`"));
                    }
                }
                Some(c) => return Err(self.error(format!("unexpected character `{}`", c as char))),
            }
        }
        out.push(Token {
            kind: TokenKind::Eof,
            line: self.line,
        });
        Ok(out)
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn push_simple(&mut self, out: &mut Vec<Token>, kind: TokenKind) {
        self.bump();
        out.push(Token {
            kind,
            line: self.line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn words_numbers_ops() {
        let k = kinds("doall i = 1, n-1");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("doall".into()),
                TokenKind::Ident("i".into()),
                TokenKind::Eq,
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Ident("n".into()),
                TokenKind::Minus,
                TokenKind::Int(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn floats_and_comments() {
        let k = kinds("x = 0.5 ! half\ny = 1e-3");
        assert!(k.contains(&TokenKind::Float(0.5)));
        assert!(k.contains(&TokenKind::Float(1e-3)));
        assert!(k.contains(&TokenKind::Newline));
    }

    #[test]
    fn compound_operators() {
        let k = kinds("s += a >= b <= c == d");
        assert!(k.contains(&TokenKind::PlusEq));
        assert!(k.contains(&TokenKind::Ge));
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::EqEq));
    }

    #[test]
    fn newlines_collapse() {
        let k = kinds("a\n\n\nb");
        let nl = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(nl, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Lexer::new("a\n&").tokenize().unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert_eq!(e.to_string(), "line 2: unexpected character `&`");
    }
}
