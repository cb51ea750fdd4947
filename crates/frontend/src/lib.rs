//! The text front end, now [`ir::text`]: this crate re-exports its
//! parser and lexer under their old paths.

pub use ir::text::{parse, Lexer, ParseError, Token, TokenKind};
