//! The analyzed workspace model: files, functions, and the facts passes
//! consume — atomic accesses with their memory orderings.
//!
//! Facts are extracted by a single token-pattern walk over each function
//! body (see `analyze_fn`).

use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parse::{parse, Function};
use std::path::{Path, PathBuf};

/// The shape of an atomic access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// `load`.
    Load,
    /// `store`.
    Store,
    /// Read-modify-write (`fetch_*`, `swap`).
    Rmw,
    /// `compare_exchange`/`compare_exchange_weak`/`fetch_update`.
    Cas,
}

/// One atomic field access with its requested memory orderings.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The accessed field's bare name (last receiver segment): the unit
    /// the pairing pass matches Release stores to Acquire loads on.
    pub field: String,
    /// Canonical `crate::Type::field` identity when the receiver is a
    /// `self` path, else a function-local id.
    pub field_id: String,
    /// Load, store, RMW, or CAS.
    pub kind: AtomicKind,
    /// Every `Ordering::X` named in the call's arguments, in order.
    pub orderings: Vec<String>,
    /// 1-based line.
    pub line: u32,
    /// Column.
    pub col: u32,
}

/// One analyzed function with every extracted fact.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Test code (never analyzed by default-tier passes).
    pub is_test: bool,
    /// Atomic accesses.
    pub atomics: Vec<AtomicSite>,
    /// Body token range (inclusive braces), if the function has a body.
    pub body: Option<(usize, usize)>,
}

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Token stream + per-line comments.
    pub lexed: Lexed,
    /// Line ranges of test-gated item scopes (see
    /// [`crate::parse::ParsedFile::test_regions`]).
    pub test_regions: Vec<(u32, u32)>,
}

/// The fully analyzed workspace.
pub struct Workspace {
    /// Scanned files, sorted by path.
    pub files: Vec<SourceFile>,
    /// All functions across all files.
    pub functions: Vec<FnInfo>,
}

const ATOMIC_METHODS: &[(&str, AtomicKind)] = &[
    ("load", AtomicKind::Load),
    ("store", AtomicKind::Store),
    ("swap", AtomicKind::Rmw),
    ("fetch_add", AtomicKind::Rmw),
    ("fetch_sub", AtomicKind::Rmw),
    ("fetch_and", AtomicKind::Rmw),
    ("fetch_or", AtomicKind::Rmw),
    ("fetch_xor", AtomicKind::Rmw),
    ("fetch_max", AtomicKind::Rmw),
    ("fetch_min", AtomicKind::Rmw),
    ("compare_exchange", AtomicKind::Cas),
    ("compare_exchange_weak", AtomicKind::Cas),
    ("fetch_update", AtomicKind::Cas),
];

/// Crates whose *internals* are analysis infrastructure, not analyzed
/// subject matter: `check` is the model checker, whose modeled atomics take
/// an `Ordering` and execute SeqCst, so `ordering-comment` has nothing to
/// ask of them; `analyze` is this tool. Their files are not added to the
/// workspace.
pub const INFRA_CRATES: &[&str] = &["check", "analyze"];

impl Workspace {
    /// Scans and analyzes every `crates/*/src/**/*.rs` and `src/**/*.rs`
    /// file under `root` (the same file set the old `cpq_lint` covered:
    /// integration `tests/` directories are runtime-validated, not
    /// statically analyzed).
    pub fn scan(root: &Path) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in std::fs::read_dir(&crates_dir)
                .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
            {
                let entry = entry.map_err(|e| e.to_string())?;
                let src = entry.path().join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut paths).map_err(|e| e.to_string())?;
                }
            }
        }
        let facade = root.join("src");
        if facade.is_dir() {
            collect_rs(&facade, &mut paths).map_err(|e| e.to_string())?;
        }
        paths.sort();

        let mut ws = Workspace {
            files: Vec::new(),
            functions: Vec::new(),
        };
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let content = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ws.add_file(rel, content);
        }
        Ok(ws)
    }

    /// Analyzes an in-memory file set (used by fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            functions: Vec::new(),
        };
        for (rel, content) in sources {
            ws.add_file((*rel).to_string(), (*content).to_string());
        }
        ws
    }

    fn add_file(&mut self, rel: String, content: String) {
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("cpq")
            .to_string();
        if INFRA_CRATES.contains(&krate.as_str()) {
            return;
        }
        let lexed = lex(&content);
        let parsed = parse(&lexed);
        let file_idx = self.files.len();
        for f in &parsed.functions {
            let info = analyze_fn(&lexed, f, file_idx, &krate);
            self.functions.push(info);
        }
        self.files.push(SourceFile {
            rel,
            lexed,
            test_regions: parsed.test_regions,
        });
    }

    /// Whether the comment text on `line` of `file` (or the `window`
    /// preceding lines) contains `needle` — the `// ordering:` lookup
    /// primitive.
    pub fn comment_near(&self, file: usize, line: u32, window: u32, needle: &str) -> bool {
        let comments = &self.files[file].lexed.comments;
        let line = line as usize;
        let lo = line.saturating_sub(window as usize + 1);
        (lo..line).any(|i| comments.get(i).is_some_and(|c| c.contains(needle)))
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The receiver chain of a postfix method call: idents joined by `.`,
/// walking left from the `.` before the method name. Empty when the
/// receiver is not a plain path (e.g. a call result).
fn receiver_chain(toks: &[Token], method_tok: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut i = method_tok;
    // toks[method_tok] is the method name; toks[method_tok-1] must be `.`.
    loop {
        if i < 2 || !toks[i - 1].is_punct('.') {
            break;
        }
        let prev = &toks[i - 2];
        if prev.kind == TokKind::Ident {
            chain.push(prev.text.clone());
            i -= 2;
        } else if prev.kind == TokKind::Int {
            // Tuple field access `pair.0.load(..)`.
            chain.push(prev.text.clone());
            i -= 2;
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// Canonical identity for an atomic receiver: `crate::Type::field` when
/// the chain starts at `self` inside an impl, else a `local:`-prefixed id
/// unique to the function (two functions' locals never unify: a name-only
/// match across unrelated locals would conflate two atomics).
fn resolve_id(chain: &[String], krate: &str, impl_type: Option<&str>, fn_name: &str) -> String {
    if chain.first().map(String::as_str) == Some("self") {
        if let Some(ty) = impl_type {
            let field = chain.last().filter(|_| chain.len() > 1);
            return match field {
                Some(f) => format!("{krate}::{ty}::{f}"),
                None => format!("{krate}::{ty}::self"),
            };
        }
    }
    format!("local:{krate}::{fn_name}::{}", chain.join("."))
}

/// Extracts every fact from one function.
fn analyze_fn(lexed: &Lexed, f: &Function, file_idx: usize, krate: &str) -> FnInfo {
    let toks = &lexed.tokens;
    let mut info = FnInfo {
        file: file_idx,
        name: f.name.clone(),
        line: f.line,
        is_test: f.is_test,
        atomics: Vec::new(),
        body: f.body,
    };
    let Some((open, close)) = f.body else {
        return info;
    };
    for i in open + 1..close {
        let t = &toks[i];
        // A method call `.name(` of an atomic operation.
        let Some(&(_, kind)) = ATOMIC_METHODS
            .iter()
            .find(|(m, _)| t.kind == TokKind::Ident && t.text == *m)
        else {
            continue;
        };
        if !toks[i - 1].is_punct('.') || !toks[i + 1].is_punct('(') {
            continue;
        }
        let close_paren = crate::parse::match_brace_like(toks, i + 1, '(', ')');
        let mut orderings = Vec::new();
        let mut k = i + 1;
        while k + 2 < close_paren {
            if toks[k].is_ident("Ordering")
                && toks[k + 1].is_punct(':')
                && toks[k + 2].is_punct(':')
            {
                if let Some(ord) = toks.get(k + 3) {
                    orderings.push(ord.text.clone());
                }
                k += 4;
            } else {
                k += 1;
            }
        }
        let chain = receiver_chain(toks, i);
        let Some(field) = chain.last().filter(|_| !orderings.is_empty()).cloned() else {
            continue;
        };
        info.atomics.push(AtomicSite {
            field,
            field_id: resolve_id(&chain, krate, f.impl_type.as_deref(), &f.name),
            kind,
            orderings,
            line: t.line,
            col: t.col,
        });
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_sites_with_orderings() {
        let src = "\
impl Bound {
    fn tighten(&self) {
        self.bits.compare_exchange_weak(a, b, Ordering::Relaxed, Ordering::Relaxed).ok();
        self.updates.fetch_add(1, Ordering::Relaxed);
    }
    fn get(&self) -> u64 { self.bits.load(Ordering::Acquire) }
}
";
        let ws = Workspace::from_sources(&[("crates/demo/src/lib.rs", src)]);
        let tighten = ws
            .functions
            .iter()
            .find(|f| f.name == "tighten")
            .expect("f");
        assert_eq!(tighten.atomics.len(), 2);
        assert_eq!(tighten.atomics[0].field, "bits");
        assert_eq!(tighten.atomics[0].field_id, "demo::Bound::bits");
        assert_eq!(tighten.atomics[0].kind, AtomicKind::Cas);
        assert_eq!(tighten.atomics[0].orderings, ["Relaxed", "Relaxed"]);
        let get = ws.functions.iter().find(|f| f.name == "get").expect("f");
        assert_eq!(get.atomics[0].kind, AtomicKind::Load);
        assert_eq!(get.atomics[0].orderings, ["Acquire"]);
    }

    #[test]
    fn local_receivers_stay_function_local() {
        let src = "fn f(x: &AtomicU32) -> u32 { x.load(Ordering::Acquire) }";
        let ws = Workspace::from_sources(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(ws.functions[0].atomics[0].field_id, "local:demo::f::x");
    }
}
