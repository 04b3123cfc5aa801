//! Hand-rolled JSON writer and reader — the analyzer is dependency-free,
//! so `analysis_report.json` is emitted by this module; the reader lets
//! tests (and the out-of-workspace `benchmark/` package) parse JSON back.

use crate::diag::{Diagnostic, Report};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` as a JSON string body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_diag(out: &mut String, d: &Diagnostic, indent: &str) {
    let _ = write!(
        out,
        "{indent}{{\"pass\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"",
        escape(d.pass),
        d.severity.as_str(),
        escape(&d.file),
        d.line,
        d.col,
        escape(&d.message)
    );
    if let Some(f) = &d.func {
        let _ = write!(out, ", \"function\": \"{}\"", escape(f));
    }
    out.push('}');
}

/// Serializes a [`Report`] as pretty-printed JSON.
pub fn render_report(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = write!(
        out,
        "  \"schema\": \"cpq-analyze/v1\",\n  \"files_scanned\": {},\n  \"functions\": {},\n",
        r.files_scanned, r.functions
    );
    let _ = writeln!(
        out,
        "  \"passes\": [{}],",
        r.passes
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("  \"diagnostics\": [\n");
    for (i, d) in r.diagnostics.iter().enumerate() {
        write_diag(&mut out, d, "    ");
        if i + 1 < r.diagnostics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n  \"waived\": [\n");
    for (i, (d, why)) in r.waived.iter().enumerate() {
        out.push_str("    {\"rationale\": \"");
        out.push_str(&escape(why));
        out.push_str("\", \"diagnostic\": ");
        write_diag(&mut out, d, "");
        out.push('}');
        if i + 1 < r.waived.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// A parsed JSON value (just enough structure for fragment merging).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any number (kept as f64; diagnostics only carry small integers).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with source-ordered keys collapsed into a map.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(src: &str) -> Result<Value, String> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key is not a string at offset {pos}")),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    b'"' => return Ok(Value::Str(s)),
                    b'\\' => {
                        let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                        *pos += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\\' => s.push('\\'),
                            b'/' => s.push('/'),
                            b'n' => s.push('\n'),
                            b'r' => s.push('\r'),
                            b't' => s.push('\t'),
                            b'b' => s.push('\u{8}'),
                            b'f' => s.push('\u{c}'),
                            b'u' => {
                                let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                *pos += 4;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape `\\{}`", other as char)),
                        }
                    }
                    _ => {
                        // Re-assemble UTF-8 runs byte-accurately.
                        let start = *pos - 1;
                        let mut end = *pos;
                        while end < b.len() && b[end] != b'"' && b[end] != b'\\' {
                            end += 1;
                        }
                        s.push_str(std::str::from_utf8(&b[start..end]).map_err(|e| e.to_string())?);
                        *pos = end;
                    }
                }
            }
            Err("unterminated string".to_string())
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at offset {start}"))
        }
        None => Err("empty input".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn report_roundtrips_through_parser() {
        let mut r = Report {
            passes: vec!["lock-order".into(), "waiver".into()],
            files_scanned: 3,
            functions: 17,
            ..Report::default()
        };
        r.diagnostics.push(Diagnostic::new(
            "lock-order",
            Severity::Error,
            "crates/x/src/lib.rs",
            10,
            5,
            "cycle: \"a\" -> b\nand back",
        ));
        r.waived.push((
            Diagnostic::new("panic-path", Severity::Error, "src/lib.rs", 2, 2, "unwrap"),
            "startup — fine".to_string(),
        ));
        let text = render_report(&r);
        let v = parse(&text).expect("parse back");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("cpq-analyze/v1")
        );
        let diags = v.get("diagnostics").and_then(Value::as_arr).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(
            diags[0].get("message").and_then(Value::as_str),
            Some("cycle: \"a\" -> b\nand back")
        );
        let waived = v.get("waived").and_then(Value::as_arr).unwrap();
        assert_eq!(
            waived[0].get("rationale").and_then(Value::as_str),
            Some("startup — fine")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
