//! A small Rust lexer: enough fidelity for static analysis of this
//! workspace, not a full implementation of the reference grammar.
//!
//! Produces a token stream (identifiers, literals, punctuation) with
//! line/column positions, plus a per-line *comment map* — the concatenated
//! comment text of every line, which is where the `// ordering:`
//! justifications live.
//!
//! Handled subtleties: nested `/* */` block comments, string/char/byte/raw
//! string literals (so `"https://…"` never opens a comment and `'{'` never
//! unbalances a brace count), lifetimes vs char literals, numeric literals
//! with `_` separators and float detection (`1.0`, `1e9`, but `x.0` stays
//! an integer field index and `0..n` stays a range).

/// What a token is. Punctuation is one character per token; the parser
/// peeks ahead for multi-character operators where it cares (`::`, `->`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the parser distinguishes keywords by text).
    Ident,
    /// Lifetime such as `'a` (includes the quote in the text).
    Lifetime,
    /// Integer literal.
    Int,
    /// Float literal (has a fractional part or exponent).
    Float,
    /// String/char/byte-string literal of any flavor, stored as one token.
    Literal,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Classification of the token.
    pub kind: TokKind,
    /// The token text (for literals, the raw source text including quotes).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Token {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// Whether this token is the identifier/keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// The result of lexing one file: the token stream and the per-line
/// comment map (`comments[i]` is the concatenated comment text of line
/// `i + 1`; empty when the line has no comment).
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment text per line, 0-indexed by `line - 1`.
    pub comments: Vec<String>,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<u8> {
        self.src.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and a per-line comment map. The lexer never
/// fails: unrecognized bytes become single-character punct tokens, and an
/// unterminated literal or comment simply runs to end of file (the
/// compiler's job is rejecting such a file; ours is not crashing on it).
pub fn lex(src: &str) -> Lexed {
    let line_count = src.lines().count().max(1);
    let mut out = Lexed {
        tokens: Vec::new(),
        comments: vec![String::new(); line_count],
    };
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };

    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek2() == Some(b'/') => lex_line_comment(&mut cur, &mut out),
            b'/' if cur.peek2() == Some(b'*') => lex_block_comment(&mut cur, &mut out),
            b'"' => lex_string(&mut cur, &mut out, line, col),
            b'r' | b'b' if starts_string_prefix(&cur) => lex_string(&mut cur, &mut out, line, col),
            b'\'' => lex_quote(&mut cur, &mut out, line, col),
            _ if is_ident_start(b) => lex_ident(&mut cur, &mut out, line, col),
            _ if b.is_ascii_digit() => lex_number(&mut cur, &mut out, line, col),
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Whether the cursor sits at a raw/byte string prefix (`r"`, `r#`, `b"`,
/// `br"`, `b'`, `br#`) rather than a plain identifier starting with `r`/`b`.
fn starts_string_prefix(cur: &Cursor<'_>) -> bool {
    matches!(
        (cur.peek(), cur.peek2(), cur.peek3()),
        (Some(b'r'), Some(b'"' | b'#'), _)
            | (Some(b'b'), Some(b'"' | b'\''), _)
            | (Some(b'b'), Some(b'r'), Some(b'"' | b'#'))
    )
}

fn push_comment(out: &mut Lexed, line: u32, text: &str) {
    let idx = (line as usize).saturating_sub(1);
    if idx < out.comments.len() {
        if !out.comments[idx].is_empty() {
            out.comments[idx].push(' ');
        }
        out.comments[idx].push_str(text);
    }
}

fn lex_line_comment(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    // Collect raw bytes and convert once: comment text is prose (em-dashes
    // included), so multi-byte UTF-8 must survive intact.
    let mut bytes = Vec::new();
    while let Some(b) = cur.peek() {
        if b == b'\n' {
            break;
        }
        bytes.push(b);
        cur.bump();
    }
    push_comment(out, line, &String::from_utf8_lossy(&bytes));
}

fn lex_block_comment(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let mut depth = 0usize;
    let mut bytes: Vec<u8> = Vec::new();
    let mut line = cur.line;
    loop {
        match (cur.peek(), cur.peek2()) {
            (Some(b'/'), Some(b'*')) => {
                depth += 1;
                bytes.extend_from_slice(b"/*");
                cur.bump();
                cur.bump();
            }
            (Some(b'*'), Some(b'/')) => {
                depth -= 1;
                bytes.extend_from_slice(b"*/");
                cur.bump();
                cur.bump();
                if depth == 0 {
                    break;
                }
            }
            (Some(b'\n'), _) => {
                push_comment(out, line, &String::from_utf8_lossy(&bytes));
                bytes.clear();
                cur.bump();
                line = cur.line;
            }
            (Some(b), _) => {
                bytes.push(b);
                cur.bump();
            }
            (None, _) => break,
        }
    }
    if !bytes.is_empty() {
        push_comment(out, line, &String::from_utf8_lossy(&bytes));
    }
}

/// Lexes every string flavor: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `br#"…"#`,
/// and byte chars `b'…'`. The cursor sits on the first prefix byte.
fn lex_string(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    let mut raw = false;
    // Consume the prefix (`r`, `b`, `br`) and `#`s.
    while let Some(b) = cur.peek() {
        match b {
            b'r' => raw = true,
            b'b' => {}
            b'#' if raw => {}
            _ => break,
        }
        text.push(b as char);
        cur.bump();
    }
    let hashes = text.bytes().filter(|&b| b == b'#').count();
    let quote = cur.peek().unwrap_or(b'"');
    text.push(quote as char);
    cur.bump();
    if quote == b'\'' {
        // Byte char literal b'x'.
        lex_char_body(cur, &mut text);
    } else if raw {
        // Raw string: ends at `"` followed by `hashes` `#`s; no escapes.
        while let Some(b) = cur.bump() {
            text.push(b as char);
            if b == b'"' {
                let mut n = 0;
                while n < hashes && cur.peek() == Some(b'#') {
                    text.push('#');
                    cur.bump();
                    n += 1;
                }
                if n == hashes {
                    break;
                }
            }
        }
    } else {
        let mut escaped = false;
        while let Some(b) = cur.bump() {
            text.push(b as char);
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                break;
            }
        }
    }
    out.tokens.push(Token {
        kind: TokKind::Literal,
        text,
        line,
        col,
    });
}

/// After an opening `'`: either a char literal (`'x'`, `'\n'`, `'\''`) or
/// a lifetime (`'a`, `'static`). A lifetime is an identifier after the
/// quote with no closing quote right after it.
fn lex_quote(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::from("'");
    cur.bump(); // the opening quote
    let first = cur.peek();
    let second = cur.peek2();
    let is_lifetime = match first {
        Some(b) if is_ident_start(b) => second != Some(b'\''),
        _ => false,
    };
    if is_lifetime {
        while let Some(b) = cur.peek() {
            if !is_ident_continue(b) {
                break;
            }
            text.push(b as char);
            cur.bump();
        }
        out.tokens.push(Token {
            kind: TokKind::Lifetime,
            text,
            line,
            col,
        });
    } else {
        lex_char_body(cur, &mut text);
        out.tokens.push(Token {
            kind: TokKind::Literal,
            text,
            line,
            col,
        });
    }
}

/// Consumes a char-literal body up to and including the closing `'`.
fn lex_char_body(cur: &mut Cursor<'_>, text: &mut String) {
    let mut escaped = false;
    while let Some(b) = cur.bump() {
        text.push(b as char);
        if escaped {
            escaped = false;
        } else if b == b'\\' {
            escaped = true;
        } else if b == b'\'' {
            break;
        }
    }
}

fn lex_ident(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    while let Some(b) = cur.peek() {
        if !is_ident_continue(b) {
            break;
        }
        text.push(b as char);
        cur.bump();
    }
    out.tokens.push(Token {
        kind: TokKind::Ident,
        text,
        line,
        col,
    });
}

fn lex_number(cur: &mut Cursor<'_>, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    let mut float = false;
    // Integer part (covers 0x/0b/0o prefixes too: the digits-and-letters
    // loop below eats hex digits and suffixes without caring).
    while let Some(b) = cur.peek() {
        if b.is_ascii_alphanumeric() || b == b'_' {
            text.push(b as char);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: `.` followed by a digit (so `0..n` and `x.f()` are
    // not floats).
    if cur.peek() == Some(b'.') && cur.peek2().is_some_and(|b| b.is_ascii_digit()) {
        float = true;
        text.push('.');
        cur.bump();
        while let Some(b) = cur.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                text.push(b as char);
                cur.bump();
            } else {
                break;
            }
        }
    }
    // An exponent consumed by the alphanumeric loop (`1e9`) still marks a
    // float; hex literals never contain a bare `e` followed by digits
    // without the 0x prefix making them start with `0x`.
    if !float && !text.starts_with("0x") && !text.starts_with("0b") && !text.starts_with("0o") {
        let lower = text.to_ascii_lowercase();
        if lower.contains('e') && !lower.contains("u8") && !lower.contains("e_") {
            float = lower
                .split('e')
                .nth(1)
                .is_some_and(|exp| exp.chars().next().is_some_and(|c| c.is_ascii_digit()));
        }
        if lower.ends_with("f32") || lower.ends_with("f64") {
            float = true;
        }
    }
    out.tokens.push(Token {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_puncts_and_positions() {
        let l = lex("fn f() {\n  x.lock();\n}\n");
        let t: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            t,
            ["fn", "f", "(", ")", "{", "x", ".", "lock", "(", ")", ";", "}"]
        );
        assert_eq!(l.tokens[5].line, 2);
        assert_eq!(l.tokens[5].col, 3);
    }

    #[test]
    fn comments_go_to_the_map_not_the_stream() {
        let l = lex("let a = 1; // trailing note\n/* block\nspans lines */ let b = 2;\n");
        assert!(l.comments[0].contains("trailing note"));
        assert!(l.comments[1].contains("block"));
        assert!(l.comments[2].contains("spans lines"));
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"b"));
        assert!(!texts.iter().any(|t| t.contains("note")));
    }

    #[test]
    fn strings_hide_comment_markers_and_braces() {
        let l = lex("let u = \"https://x\"; let c = '{'; let r = r#\"a \" b\"#;\n");
        assert!(l.comments[0].is_empty());
        let lits: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[2], "r#\"a \" b\"#");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let k = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let e = '\\''; }");
        assert!(k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Lifetime && t == "'a"));
        assert!(k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Literal && t == "'x'"));
        assert!(k
            .iter()
            .any(|(kind, t)| *kind == TokKind::Literal && t == "'\\''"));
    }

    #[test]
    fn numbers_int_vs_float() {
        let k =
            kinds("let a = 1.0; let b = 2; let c = x.0; let d = 0..9; let e = 1e9; let f=1_000;");
        let get = |s: &str| k.iter().find(|(_, t)| t == s).map(|(kind, _)| *kind);
        assert_eq!(get("1.0"), Some(TokKind::Float));
        assert_eq!(get("2"), Some(TokKind::Int));
        assert_eq!(get("0"), Some(TokKind::Int), "tuple index stays an int");
        assert_eq!(get("1e9"), Some(TokKind::Float));
        assert_eq!(get("1_000"), Some(TokKind::Int));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still */ fn f() {}\n");
        assert!(l.comments[0].contains("inner"));
        assert_eq!(l.tokens[0].text, "fn");
    }
}
