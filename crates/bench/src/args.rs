//! A deliberately tiny command-line argument parser (`--key value` and
//! `--flag`), keeping the harness free of CLI dependencies.

use std::collections::HashMap;

/// Reports a malformed flag value and exits with status 2: bad command-line
/// input is an operator mistake, not a harness bug, so it gets a clean error
/// naming the offending flag instead of a panic backtrace.
fn bad_value(key: &str, value: &str, what: &str) -> ! {
    eprintln!("error: --{key} expects {what}, got {value:?}");
    std::process::exit(2)
}

/// Parsed `--key value` / `--flag` arguments.
#[derive(Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        if let Some(value) = it.next() {
                            args.values.insert(key.to_string(), value);
                        }
                    }
                    _ => args.flags.push(key.to_string()),
                }
            } else {
                eprintln!("warning: ignoring positional argument {arg:?}");
            }
        }
        args
    }

    /// `--key value` as f64, or `default`. Exits with status 2 (naming the
    /// flag) when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| bad_value(key, v, "a number")),
            None => default,
        }
    }

    /// `--key value` as string, or `default`.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// `true` when `--flag` was present.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The dataset scale factor (`--scale`, default 1.0): figure binaries
    /// multiply the paper's cardinalities by this so CI can smoke-run them.
    pub fn scale(&self) -> f64 {
        let s = self.get_f64("scale", 1.0);
        if !(s > 0.0 && s <= 1.0) {
            bad_value("scale", &s.to_string(), "a factor in (0, 1]");
        }
        s
    }
}

/// Scales a paper cardinality by the scale factor (at least 2 points).
pub fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn values_and_flags() {
        let a = parse("--scale 0.5 --quiet --out results");
        assert_eq!(a.get_f64("scale", 1.0), 0.5);
        assert!(a.flag("quiet"));
        assert_eq!(a.get_str("out", "x"), "results");
    }

    #[test]
    fn scale_bounds() {
        assert_eq!(parse("--scale 1.0").scale(), 1.0);
        assert_eq!(scaled(80_000, 0.1), 8_000);
        assert_eq!(scaled(3, 0.0001), 2);
    }
}
