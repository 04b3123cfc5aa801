//! The one JSON writer behind every output of the benchmark: the result
//! line, the result files, the span file and the history line.
//!
//! Parsing and string escaping are `cpq_analyze::json`'s; this module adds
//! only the rendering of a [`Value`] tree, which the analyzer does not
//! offer. A non-finite number is written as `null`, so no output can hold
//! `NaN` or `inf`.

pub use cpq_analyze::json::{escape, parse, Value};
use std::fmt::Write as _;

/// An object from `(key, value)` pairs. Keys are rendered sorted.
pub fn obj<I: IntoIterator<Item = (&'static str, Value)>>(items: I) -> Value {
    Value::Obj(items.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A number; non-finite values render as `null`.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}

/// A string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// Renders `v` on one line.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // `{}` prints an f64 with the fewest digits that read back to the
        // same value: every measured digit, never an exponent.
        Value::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => {
            let _ = write!(out, "\"{}\"", escape(s));
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", escape(k));
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_what_the_parser_reads_back() {
        let v = obj([
            ("a", num(1.25)),
            (
                "b",
                Value::Arr(vec![text("x\"y"), Value::Null, Value::Bool(true)]),
            ),
            ("nan", num(f64::NAN)),
            ("inf", num(f64::INFINITY)),
        ]);
        let s = render(&v);
        assert!(!s.contains("NaN") && !s.contains("inf\": inf"), "{s}");
        let back = parse(&s).expect("own output parses");
        assert_eq!(back.get("a"), Some(&Value::Num(1.25)));
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(back.get("inf"), Some(&Value::Null));
        assert_eq!(
            back.get("b").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
    }
}
