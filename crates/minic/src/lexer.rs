//! Hand-written streaming lexer for mini-C.
//!
//! Supports `//` and `/* */` comments, decimal and hexadecimal integer
//! literals, and character literals with the common escapes. The parser
//! pulls one token at a time ([`Lexer::next_token`]), so no token vector
//! is built; [`lex`] collects the same tokens for callers that want them
//! all. A column is the byte offset from the start of its line, plus one.

use crate::error::{Error, Result};
use crate::token::{Keyword, Loc, Token, TokenKind};

/// Lexes an entire source string into a token vector terminated by
/// [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns [`Error::Lex`] on unterminated comments or character literals,
/// malformed numbers, or characters outside the language's alphabet.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minic::Error> {
/// let toks = minic::lex("x += 0x10; // bump")?;
/// assert_eq!(toks.len(), 5); // x, +=, 16, ;, eof
/// # Ok(())
/// # }
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let tok = lexer.next_token()?;
        let eof = tok.kind == TokenKind::Eof;
        out.push(tok);
        if eof {
            return Ok(out);
        }
    }
}

/// The most digits [`Lexer::literal_run`] takes in one literal. Every
/// 18-digit decimal fits in an `i64`, so the run never checks for
/// overflow; a longer literal goes the token path.
const RUN_MAX_DIGITS: usize = 18;

/// The lexer's state: where it stands in the source.
pub(crate) struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the first unlexed byte.
    pos: usize,
    /// 1-based line of `pos`.
    line: u32,
    /// Byte offset at which `line` starts.
    line_start: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0, line: 1, line_start: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn loc(&self) -> Loc {
        let col = u32::try_from(self.pos - self.line_start + 1).unwrap_or(u32::MAX);
        Loc::new(self.line, col)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes().get(self.pos + 1).copied()
    }

    /// Consumes one byte, which may be a newline.
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Lex { loc: self.loc(), msg: msg.into() }
    }

    /// Lexes the next token: [`TokenKind::Eof`], again and again, once the
    /// source is used up.
    pub(crate) fn next_token(&mut self) -> Result<Token> {
        self.skip_trivia()?;
        let loc = self.loc();
        let Some(c) = self.peek() else {
            return Ok(Token::new(TokenKind::Eof, loc));
        };
        let kind = match c {
            b'0'..=b'9' => self.number()?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_kw(),
            b'\'' => self.char_lit()?,
            _ => self.operator()?,
        };
        Ok(Token::new(kind, loc))
    }

    /// Scans a run of `-?digits ,` pairs in an initializer list, with
    /// spaces or tabs around each part, and pushes each value onto `init`.
    /// Call it where the grammar wants a constant: just past the list's `{`
    /// or a `,`. It stops before the first pair that is anything else (a
    /// hex or character literal, a comment, a newline, a literal of more
    /// than [`RUN_MAX_DIGITS`] digits, the closing `}`) and leaves it to
    /// the token path, so every value and every error is the token path's.
    pub(crate) fn literal_run(&mut self, init: &mut Vec<i64>) {
        let src = self.bytes();
        let blank = |mut p: usize| {
            while let Some(b' ' | b'\t') = src.get(p) {
                p += 1;
            }
            p
        };
        loop {
            let mut p = blank(self.pos);
            let neg = src.get(p) == Some(&b'-');
            p += usize::from(neg);
            let digits = p;
            let mut value = 0i64;
            while let Some(&c @ b'0'..=b'9') = src.get(p) {
                if p - digits == RUN_MAX_DIGITS {
                    return;
                }
                value = value * 10 + i64::from(c - b'0');
                p += 1;
            }
            if p == digits {
                return;
            }
            p = blank(p);
            if src.get(p) != Some(&b',') {
                return;
            }
            init.push(if neg { -value } else { value });
            self.pos = p + 1;
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    // To the end of the line; the newline is whitespace.
                    let rest = &self.bytes()[self.pos..];
                    self.pos += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.loc();
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(Error::Lex {
                                    loc: start,
                                    msg: "unterminated block comment".into(),
                                });
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn number(&mut self) -> Result<TokenKind> {
        let mut value: i64 = 0;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x' | b'X')) {
            self.pos += 2;
            let mut any = false;
            while let Some(c) = self.peek() {
                let digit = match c {
                    b'0'..=b'9' => (c - b'0') as i64,
                    b'a'..=b'f' => (c - b'a' + 10) as i64,
                    b'A'..=b'F' => (c - b'A' + 10) as i64,
                    _ => break,
                };
                any = true;
                value = value
                    .checked_mul(16)
                    .and_then(|v| v.checked_add(digit))
                    .ok_or_else(|| self.err("hex literal overflows i64"))?;
                self.pos += 1;
            }
            if !any {
                return Err(self.err("hex literal needs at least one digit"));
            }
        } else {
            while let Some(c @ b'0'..=b'9') = self.peek() {
                value = value
                    .checked_mul(10)
                    .and_then(|v| v.checked_add((c - b'0') as i64))
                    .ok_or_else(|| self.err("decimal literal overflows i64"))?;
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_')) {
            return Err(self.err("identifier character directly after number"));
        }
        Ok(TokenKind::IntLit(value))
    }

    fn ident_or_kw(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') = self.peek() {
            self.pos += 1;
        }
        // ASCII bytes only, so both ends are character boundaries.
        let text = &self.src[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(text.to_owned()),
        }
    }

    fn char_lit(&mut self) -> Result<TokenKind> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => match self.bump() {
                Some(b'n') => b'\n',
                Some(b't') => b'\t',
                Some(b'r') => b'\r',
                Some(b'0') => 0,
                Some(b'\\') => b'\\',
                Some(b'\'') => b'\'',
                other => {
                    return Err(self.err(format!(
                        "unsupported escape: \\{}",
                        other.map(|c| c as char).unwrap_or('?')
                    )));
                }
            },
            Some(b'\'') => return Err(self.err("empty character literal")),
            Some(c) => c,
            None => return Err(self.err("unterminated character literal")),
        };
        if self.bump() != Some(b'\'') {
            return Err(self.err("character literal must be a single character"));
        }
        Ok(TokenKind::CharLit(c))
    }

    fn operator(&mut self) -> Result<TokenKind> {
        // Trivia took every newline, so this byte is not one.
        let c = self.bytes()[self.pos];
        self.pos += 1;
        let two = |lexer: &mut Self, next: u8, yes: TokenKind, no: TokenKind| {
            if lexer.peek() == Some(next) {
                lexer.pos += 1;
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'?' => TokenKind::Question,
            b':' => TokenKind::Colon,
            b'~' => TokenKind::Tilde,
            b'^' => TokenKind::Caret,
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    TokenKind::PlusPlus
                }
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::PlusAssign
                }
                _ => TokenKind::Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.pos += 1;
                    TokenKind::MinusMinus
                }
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::MinusAssign
                }
                _ => TokenKind::Minus,
            },
            b'*' => two(self, b'=', TokenKind::StarAssign, TokenKind::Star),
            b'/' => two(self, b'=', TokenKind::SlashAssign, TokenKind::Slash),
            b'%' => two(self, b'=', TokenKind::PercentAssign, TokenKind::Percent),
            b'&' => two(self, b'&', TokenKind::AmpAmp, TokenKind::Amp),
            b'|' => two(self, b'|', TokenKind::PipePipe, TokenKind::Pipe),
            b'!' => two(self, b'=', TokenKind::BangEq, TokenKind::Bang),
            b'=' => two(self, b'=', TokenKind::EqEq, TokenKind::Assign),
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::Le
                }
                Some(b'<') => {
                    self.pos += 1;
                    TokenKind::Shl
                }
                _ => TokenKind::Lt,
            },
            b'>' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    TokenKind::Ge
                }
                Some(b'>') => {
                    self.pos += 1;
                    TokenKind::Shr
                }
                _ => TokenKind::Gt,
            },
            other => {
                return Err(self.err(format!("unexpected character {:?}", other as char)));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_figure4_statement() {
        // `*ptr++ = i*i % 256;` — the key idiom from the paper's Fig 4(a).
        let k = kinds("*ptr++ = i*i % 256;");
        assert_eq!(
            k,
            vec![
                TokenKind::Star,
                TokenKind::Ident("ptr".into()),
                TokenKind::PlusPlus,
                TokenKind::Assign,
                TokenKind::Ident("i".into()),
                TokenKind::Star,
                TokenKind::Ident("i".into()),
                TokenKind::Percent,
                TokenKind::IntLit(256),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn hex_and_decimal() {
        assert_eq!(
            kinds("0x10 0XfF 42"),
            vec![
                TokenKind::IntLit(16),
                TokenKind::IntLit(255),
                TokenKind::IntLit(42),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // line\n /* block\n over lines */ b");
        assert_eq!(
            k,
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn char_literals() {
        assert_eq!(
            kinds(r"'a' '\n' '\0'"),
            vec![
                TokenKind::CharLit(b'a'),
                TokenKind::CharLit(b'\n'),
                TokenKind::CharLit(0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn location_tracking() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].loc, Loc::new(1, 1));
        assert_eq!(toks[1].loc, Loc::new(2, 3));
    }

    #[test]
    fn compound_operators() {
        let k = kinds("<<= is not a token, but << = are");
        // `<<=` lexes as `<<` `=` in this grammar (no shift-assign).
        assert_eq!(k[0], TokenKind::Shl);
        assert_eq!(k[1], TokenKind::Assign);
    }

    #[test]
    fn errors_on_garbage() {
        assert!(lex("@").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("'ab'").is_err());
        assert!(lex("99999999999999999999").is_err());
        assert!(lex("12abc").is_err());
    }

    #[test]
    fn lex_error_columns_count_bytes_from_the_line_start() {
        let cases = [
            ("\tint\r x; /* a\n\n b */ \t@", Loc::new(3, 9), "unexpected character '@'"),
            ("int x;\r\n\t\t/* c\r\n */ int\t@", Loc::new(3, 10), "unexpected character '@'"),
            ("int x;\r\n\tint y = '", Loc::new(2, 11), "unterminated character literal"),
            ("int x; /* a\n b", Loc::new(1, 8), "unterminated block comment"),
        ];
        for (src, loc, msg) in cases {
            let want = Error::Lex { loc, msg: msg.into() };
            assert_eq!(lex(src).unwrap_err(), want, "{src:?}");
            assert_eq!(crate::parse(src).unwrap_err(), want, "{src:?} while parsing");
        }
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("for forever"),
            vec![TokenKind::Kw(Keyword::For), TokenKind::Ident("forever".into()), TokenKind::Eof]
        );
    }
}
