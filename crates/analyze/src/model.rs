//! The analyzed workspace model: files, functions, and the facts passes
//! consume — lock acquisition scopes, atomic accesses with their memory
//! orderings, call edges, and `unwrap`/`expect` sites.
//!
//! Facts are extracted by a single token-pattern walk over each function
//! body (see [`scan_body`]), with *guard scopes* approximated
//! conservatively: a `let`-bound guard lives to the end of its enclosing
//! block (truncated by an explicit `drop(binding)`), an unbound temporary
//! to the end of its statement. This matches how rustc drops guards
//! closely enough for deadlock analysis; where the
//! approximation over-reports, the scoped waiver system carries the
//! argument (see [`crate::waiver`]).

use crate::lexer::{lex, Lexed, TokKind, Token};
use crate::parse::{match_brace, parse, Function};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One lock acquisition and the token range its guard is live for.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Canonical lock identity (see [`FnInfo::qname`] conventions):
    /// `crate::Type::field` for `self.field` receivers, a function-local
    /// id otherwise.
    pub lock_id: String,
    /// Token index of the acquiring method name (file-local stream).
    pub tok: usize,
    /// Token index the guard is last live at.
    pub scope_end: usize,
    /// 1-based source position of the acquisition.
    pub line: u32,
    /// Column of the acquisition.
    pub col: u32,
    /// Whether the site came from calling a guard-returning helper
    /// (`self.guard()`) rather than a literal `.lock()`.
    pub via_helper: bool,
}

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
    /// `self` path, else a function-local id (parallel to lock ids).
    pub field_id: String,
    /// Load, store, RMW, or CAS.
    pub kind: AtomicKind,
    /// Every `Ordering::X` named in the call's arguments, in order.
    pub orderings: Vec<String>,
    /// Token index of the method name.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Column.
    pub col: u32,
}

/// One call site (free-function or method position).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (bare; the workspace call graph matches by name).
    pub name: String,
    /// Token index of the name.
    pub tok: usize,
    /// Whether the call is in method position (`recv.name(...)`).
    pub method: bool,
    /// Whether the receiver is exactly `self` (`self.name(...)`): the
    /// only method-call shape resolvable to the caller's own impl.
    pub recv_self: bool,
    /// 1-based line.
    pub line: u32,
    /// Column.
    pub col: u32,
}

/// What kind of panic a [`PanicSite`] can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(...)` (message captured when it is a string literal).
    Expect,
}

/// One potentially-panicking operation.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Which operation.
    pub kind: PanicKind,
    /// For `Expect`, the string-literal message if one was given.
    pub message: Option<String>,
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
    /// Qualified name: `crate::Type::name` / `crate::name`.
    pub qname: String,
    /// `impl`/`trait` type, if a method.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Test code (never analyzed by default-tier passes).
    pub is_test: bool,
    /// Whether the signature returns a guard type — calling this function
    /// acquires the lock its body takes.
    pub returns_guard: bool,
    /// Direct lock acquisitions (helper-call acquisitions are appended by
    /// [`Workspace::resolve_helper_locks`]).
    pub locks: Vec<LockSite>,
    /// Atomic accesses.
    pub atomics: Vec<AtomicSite>,
    /// Call sites.
    pub calls: Vec<CallSite>,
    /// Panic-capable operations.
    pub panics: Vec<PanicSite>,
    /// Body token range (inclusive braces), if the function has a body.
    pub body: Option<(usize, usize)>,
}

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// `crates/<name>/…` → `name`; the facade `src/` → `cpq`.
    pub krate: String,
    /// Whether the file is a binary target (`/bin/` or `main.rs`).
    pub is_bin: bool,
    /// Whether the file is a crate root (`lib.rs` at `src/` top level).
    pub is_crate_root: bool,
    /// Raw content.
    pub content: String,
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
    /// Name → function indices (non-test functions only): the approximate
    /// call graph's resolution table.
    pub by_name: BTreeMap<String, Vec<usize>>,
}

const LOCK_METHODS: &[&str] = &["lock", "write", "try_lock", "try_write", "read", "try_read"];

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
/// subject matter: `check` implements locks and condvars *with* locks (the
/// deterministic-exec shim), so treating its bodies as user code fabricates
/// lock-graph edges; `analyze` is this tool. Their files still get
/// token-stream passes (ordering comments, crate attrs), but no semantic
/// facts are extracted and their functions never enter the call graph.
pub const INFRA_CRATES: &[&str] = &["check", "analyze"];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "break", "continue", "in", "as", "where", "impl", "dyn", "struct", "enum", "trait", "type",
    "use", "mod", "pub", "const", "static", "unsafe", "async", "await", "self", "Self", "super",
    "crate", "true", "false",
];

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
            by_name: BTreeMap::new(),
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
        ws.finish();
        Ok(ws)
    }

    /// Analyzes an in-memory file set (used by fixture tests).
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            functions: Vec::new(),
            by_name: BTreeMap::new(),
        };
        for (rel, content) in sources {
            ws.add_file((*rel).to_string(), (*content).to_string());
        }
        ws.finish();
        ws
    }

    fn add_file(&mut self, rel: String, content: String) {
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("cpq")
            .to_string();
        let is_bin = rel.contains("/bin/") || rel.ends_with("/main.rs");
        let is_crate_root = rel.ends_with("src/lib.rs");
        let lexed = lex(&content);
        let parsed = parse(&lexed);
        let file_idx = self.files.len();
        let extract = !INFRA_CRATES.contains(&krate.as_str());
        for f in &parsed.functions {
            let info = analyze_fn(&lexed, f, file_idx, &krate, extract);
            self.functions.push(info);
        }
        self.files.push(SourceFile {
            rel,
            krate,
            is_bin,
            is_crate_root,
            content,
            lexed,
            test_regions: parsed.test_regions,
        });
    }

    fn finish(&mut self) {
        for (i, f) in self.functions.iter().enumerate() {
            let infra = INFRA_CRATES.contains(&self.files[f.file].krate.as_str());
            if !f.is_test && !infra {
                self.by_name.entry(f.name.clone()).or_default().push(i);
            }
        }
        self.resolve_helper_locks();
    }

    /// Turns calls to guard-returning helpers into lock sites at the call
    /// site: `let st = self.guard();` acquires whatever `guard()`'s body
    /// locks, scoped like any other `let`-bound guard. One propagation
    /// round suffices — helpers wrapping helpers do not occur, and a
    /// second round would only chase pathological cycles.
    fn resolve_helper_locks(&mut self) {
        // Helper fn index → lock id of its single direct lock.
        let mut helper_locks: BTreeMap<usize, String> = BTreeMap::new();
        for (i, f) in self.functions.iter().enumerate() {
            if f.is_test || !f.returns_guard {
                continue;
            }
            if let Some(site) = f.locks.iter().find(|l| !l.via_helper) {
                helper_locks.insert(i, site.lock_id.clone());
            }
        }
        let mut new_sites: Vec<(usize, LockSite)> = Vec::new();
        for (fi, f) in self.functions.iter().enumerate() {
            let Some((body_open, body_close)) = f.body else {
                continue;
            };
            let file = &self.files[f.file];
            for call in &f.calls {
                let targets = resolve_call(self, fi, call);
                let [target] = targets[..] else { continue };
                let Some(lock_id) = helper_locks.get(&target).cloned() else {
                    continue;
                };
                let scope_end = guard_scope(&file.lexed.tokens, call.tok, body_open, body_close);
                new_sites.push((
                    fi,
                    LockSite {
                        lock_id,
                        tok: call.tok,
                        scope_end,
                        line: call.line,
                        col: call.col,
                        via_helper: true,
                    },
                ));
            }
        }
        for (fi, site) in new_sites {
            self.functions[fi].locks.push(site);
        }
        for f in &mut self.functions {
            f.locks.sort_by_key(|l| l.tok);
        }
    }

    /// The file a function lives in.
    pub fn file_of(&self, f: &FnInfo) -> &SourceFile {
        &self.files[f.file]
    }

    /// Whether the comment text on `line` of `file` (or the `window`
    /// preceding lines) contains `needle` — the `// ordering:` and waiver
    /// lookup primitive.
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
            // Tuple field access `pair.0.lock()`.
            chain.push(prev.text.clone());
            i -= 2;
        } else {
            break;
        }
    }
    chain.reverse();
    chain
}

/// Canonical identity for a lock/atomic receiver: `crate::Type::field`
/// when the chain starts at `self` inside an impl, else a `local:`-prefixed
/// id unique to the function (two functions' locals never unify — a
/// deliberate choice: a name-only match across unrelated locals would
/// fabricate lock-graph edges out of thin air). Passes treat `local:` ids
/// as real for scope analysis but exclude them from cross-function
/// ordering facts.
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

/// Whether a lock/atomic id is canonical (`crate::Type::field`) rather
/// than function-local.
pub fn is_canonical(id: &str) -> bool {
    !id.starts_with("local:")
}

/// Method names std containers and sync primitives define: on a non-`self`
/// receiver these never resolve to a workspace method, however unique the
/// workspace definition is — `self.map.clear()` is `HashMap::clear`, not
/// the one workspace type that happens to have a `clear`.
const UBIQUITOUS_METHODS: &[&str] = &[
    "clear",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "push",
    "pop",
    "push_back",
    "pop_front",
    "push_front",
    "pop_back",
    "contains",
    "contains_key",
    "next",
    "wait",
    "notify_one",
    "notify_all",
    "join",
    "send",
    "recv",
    "try_recv",
    "write",
    "read",
    "lock",
    "clone",
    "take",
    "replace",
    "flush",
    "extend",
    "append",
    "drain",
    "retain",
    "iter",
    "keys",
    "values",
    "entry",
    "min",
    "max",
    "abs",
];

/// Resolves a call site to candidate workspace functions, by name with
/// receiver discipline:
///
/// - `self.name(...)` resolves within the caller's own impl (same crate,
///   same type) and only when that match is unique;
/// - a method call on any *other* receiver (`st.tree.get_d2(...)`) resolves
///   only when the name denotes exactly one method workspace-wide *and* is
///   not a [`UBIQUITOUS_METHODS`] name — a `clear` or `insert` on a foreign
///   receiver is overwhelmingly a std-container call, and wiring it to the
///   one workspace method sharing its name fabricates call-graph cycles;
/// - a free/path call (`Self::helper(...)`, `encode(...)`) resolves when
///   the name is workspace-unique.
///
/// The resolved set never includes the caller itself: recursion is
/// invisible to the analysis rather than misread as re-acquisition.
pub fn resolve_call(ws: &Workspace, caller: usize, call: &CallSite) -> Vec<usize> {
    let Some(cands) = ws.by_name.get(&call.name) else {
        return Vec::new();
    };
    let f = &ws.functions[caller];
    if call.method {
        if call.recv_self {
            let Some(ty) = f.impl_type.as_deref() else {
                return Vec::new();
            };
            let krate = &ws.files[f.file].krate;
            let same: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| c != caller)
                .filter(|&c| {
                    ws.functions[c].impl_type.as_deref() == Some(ty)
                        && &ws.files[ws.functions[c].file].krate == krate
                })
                .collect();
            return if same.len() == 1 { same } else { Vec::new() };
        }
        if UBIQUITOUS_METHODS.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let methods: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| c != caller && ws.functions[c].impl_type.is_some())
            .collect();
        return if methods.len() == 1 {
            methods
        } else {
            Vec::new()
        };
    }
    // An unqualified call (`name(...)`, no `Type::` path before it) can only
    // reach a free function: associated functions cannot be imported, so a
    // method that happens to share the name is not a candidate.
    let toks = &ws.files[f.file].lexed.tokens;
    let qualified = call.tok > 0 && toks[call.tok - 1].is_punct(':');
    let frees: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| c != caller && (qualified || ws.functions[c].impl_type.is_none()))
        .collect();
    if frees.len() == 1 {
        frees
    } else {
        Vec::new()
    }
}

/// Scope of a guard born at `site` (the acquiring token): the enclosing
/// block's `}` when the statement binds it (`let g = …;` / `g = …;`), the
/// statement's `;` when it is a temporary, truncated by `drop(binding)`.
fn guard_scope(toks: &[Token], site: usize, body_open: usize, body_close: usize) -> usize {
    // Find the enclosing block and the statement start by walking back.
    let mut depth = 0i32;
    let mut stmt_start = body_open + 1;
    let mut block_open = body_open;
    let mut i = site;
    while i > body_open {
        i -= 1;
        let t = &toks[i];
        if t.is_punct('}') || t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('{') {
            if depth == 0 {
                block_open = i;
                stmt_start = i + 1;
                break;
            }
            depth -= 1;
        } else if t.is_punct('(') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            stmt_start = i + 1;
            break;
        }
    }
    if block_open == body_open && stmt_start == body_open + 1 && site > body_open {
        // Walked clear back to the body without a `;`: first statement.
        block_open = body_open;
    } else if stmt_start > body_open + 1 && !toks[stmt_start - 1].is_punct('{') {
        // Statement found mid-block: locate its enclosing `{` for scope.
        let mut d = 0i32;
        let mut j = stmt_start - 1;
        while j > body_open {
            j -= 1;
            let t = &toks[j];
            if t.is_punct('}') {
                d += 1;
            } else if t.is_punct('{') {
                if d == 0 {
                    block_open = j;
                    break;
                }
                d -= 1;
            }
        }
    }
    let block_close = match_brace(toks, block_open).min(body_close);

    // A guard projected past its adapters (`…lock().expect(..).field`)
    // never reaches any `let`: the binding holds the projected value and
    // the guard itself is a temporary dying at the statement end.
    let projected = {
        let mut j = site + 1; // the call's `(` (lock methods are arg-free)
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            j = crate::parse::match_brace_like(toks, j, '(', ')');
            loop {
                if toks.get(j + 1).is_some_and(|t| t.is_punct('?')) {
                    j += 1;
                } else if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && toks
                        .get(j + 2)
                        .is_some_and(|t| t.is_ident("expect") || t.is_ident("unwrap"))
                    && toks.get(j + 3).is_some_and(|t| t.is_punct('('))
                {
                    j = crate::parse::match_brace_like(toks, j + 3, '(', ')');
                } else {
                    break;
                }
            }
            toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        } else {
            false
        }
    };

    // Does the statement bind the guard? (`let x =` or `x =` before the
    // site, at the statement head.)
    let mut binding: Option<&str> = None;
    let head: Vec<&Token> = toks[stmt_start..site.min(stmt_start + 6)].iter().collect();
    if projected {
        // Leave `binding` unset: temporary semantics.
    } else if let Some(first) = head.first() {
        if first.is_ident("let") {
            let mut k = 1;
            if head.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            if let Some(name) = head.get(k).filter(|t| t.kind == TokKind::Ident) {
                binding = Some(&name.text);
            } else {
                // Pattern binding (`let (a, b) = …`): block-scoped, no
                // drop tracking.
                binding = Some("");
            }
        } else if first.kind == TokKind::Ident && head.get(1).is_some_and(|t| t.is_punct('=')) {
            binding = Some(&first.text);
        }
    }

    match binding {
        None => {
            // Temporary: dies at the end of its statement.
            let mut d = 0i32;
            let mut j = site;
            while j < block_close {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                    d += 1;
                } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                    d -= 1;
                } else if t.is_punct(';') && d <= 0 {
                    return j;
                }
                j += 1;
            }
            block_close
        }
        Some(name) if !name.is_empty() => {
            // Truncate at an explicit `drop(name)`.
            let mut j = site;
            while j + 3 < block_close {
                if toks[j].is_ident("drop")
                    && toks[j + 1].is_punct('(')
                    && toks[j + 2].is_ident(name)
                    && toks[j + 3].is_punct(')')
                {
                    return j;
                }
                j += 1;
            }
            block_close
        }
        Some(_) => block_close,
    }
}

/// Extracts every fact from one function (`extract: false` records the
/// function for waiver scoping but no semantic facts — infra crates).
fn analyze_fn(lexed: &Lexed, f: &Function, file_idx: usize, krate: &str, extract: bool) -> FnInfo {
    let toks = &lexed.tokens;
    let qname = match &f.impl_type {
        Some(ty) => format!("{krate}::{ty}::{}", f.name),
        None => format!("{krate}::{}", f.name),
    };
    let returns_guard = {
        let (s, e) = f.sig;
        let guards = ["MutexGuard", "RwLockWriteGuard", "RwLockReadGuard"];
        toks[s..e.min(toks.len())]
            .iter()
            .any(|t| guards.iter().any(|g| t.is_ident(g)))
    };

    let mut info = FnInfo {
        file: file_idx,
        name: f.name.clone(),
        qname,
        impl_type: f.impl_type.clone(),
        line: f.line,
        is_test: f.is_test,
        returns_guard,
        locks: Vec::new(),
        atomics: Vec::new(),
        calls: Vec::new(),
        panics: Vec::new(),
        body: f.body,
    };
    let Some((open, close)) = f.body else {
        return info;
    };
    if !extract {
        return info;
    }

    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        let name = t.text.as_str();
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        // A call? (name, optional turbofish, `(`) — and not a macro.
        let mut after = i + 1;
        if after + 1 < close && toks[after].is_punct(':') && toks[after + 1].is_punct(':') {
            if after + 2 < close && toks[after + 2].is_punct('<') {
                after = crate::parse::skip_generics_pub(toks, after + 2);
            } else {
                // Path continuation `a::b`: not this token's call.
                i += 1;
                continue;
            }
        }
        let is_call = after < close && toks[after].is_punct('(');
        let is_macro = i + 1 < close && toks[i + 1].is_punct('!');
        if !is_call || is_macro {
            i += 1;
            continue;
        }
        let open_paren = after;
        let no_args = toks.get(open_paren + 1).is_some_and(|t| t.is_punct(')'));

        // Lock acquisition? (`read`/`write` must be argument-free: with
        // arguments they are I/O calls.)
        if is_method {
            if LOCK_METHODS.contains(&name) && no_args {
                let chain = receiver_chain(toks, i);
                if !chain.is_empty() {
                    let lock_id = resolve_id(&chain, krate, f.impl_type.as_deref(), &f.name);
                    info.locks.push(LockSite {
                        lock_id,
                        tok: i,
                        scope_end: guard_scope(toks, i, open, close),
                        line: t.line,
                        col: t.col,
                        via_helper: false,
                    });
                    i += 1;
                    continue;
                }
            }
            if let Some(&(_, kind)) = ATOMIC_METHODS.iter().find(|(m, _)| *m == name) {
                let close_paren = crate::parse::match_brace_like(toks, open_paren, '(', ')');
                let mut orderings = Vec::new();
                let mut k = open_paren;
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
                if !orderings.is_empty() {
                    let chain = receiver_chain(toks, i);
                    let field = chain.last().cloned().unwrap_or_default();
                    if !field.is_empty() {
                        let field_id = resolve_id(&chain, krate, f.impl_type.as_deref(), &f.name);
                        info.atomics.push(AtomicSite {
                            field,
                            field_id,
                            kind,
                            orderings,
                            tok: i,
                            line: t.line,
                            col: t.col,
                        });
                        i += 1;
                        continue;
                    }
                }
            }
            if name == "unwrap" && no_args {
                info.panics.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    message: None,
                    line: t.line,
                    col: t.col,
                });
            }
            if name == "expect" {
                let message = toks
                    .get(open_paren + 1)
                    .filter(|t| t.kind == TokKind::Literal)
                    .map(|t| t.text.clone());
                info.panics.push(PanicSite {
                    kind: PanicKind::Expect,
                    message,
                    line: t.line,
                    col: t.col,
                });
            }
        }

        if !KEYWORDS.contains(&name) {
            let recv_self = is_method && {
                let chain = receiver_chain(toks, i);
                chain.len() == 1 && chain[0] == "self"
            };
            info.calls.push(CallSite {
                name: name.to_string(),
                tok: i,
                method: is_method,
                recv_self,
                line: t.line,
                col: t.col,
            });
        }
        i += 1;
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_fn(src: &str) -> (Workspace, usize) {
        let ws = Workspace::from_sources(&[("crates/demo/src/lib.rs", src)]);
        let idx = ws
            .functions
            .iter()
            .position(|f| !f.is_test)
            .expect("one fn");
        (ws, idx)
    }

    #[test]
    fn lock_site_resolution_and_scope() {
        let src = "\
impl Pool {
    fn write_page(&self) {
        let mut st = self.state.lock().expect(\"poisoned\");
        self.file.write().expect(\"poisoned\");
        st.touch();
    }
}
";
        let (ws, i) = single_fn(src);
        let f = &ws.functions[i];
        assert_eq!(f.locks.len(), 2, "locks: {:?}", f.locks);
        assert_eq!(f.locks[0].lock_id, "demo::Pool::state");
        assert_eq!(f.locks[1].lock_id, "demo::Pool::file");
        // The let-bound state guard outlives the file acquisition.
        assert!(f.locks[0].scope_end > f.locks[1].tok);
        // The unbound file guard dies at its own statement.
        assert!(f.locks[1].scope_end < f.locks[0].scope_end);
    }

    #[test]
    fn read_with_args_is_io_not_a_lock() {
        let (ws, i) = single_fn("fn f(file: &File, buf: &mut [u8]) { file.read(buf).ok(); }");
        assert!(ws.functions[i].locks.is_empty());
    }

    #[test]
    fn drop_truncates_guard_scope() {
        let src = "\
fn f(m: &Mutex<u32>) {
    let st = m.lock().expect(\"poisoned\");
    drop(st);
    std::thread::sleep(d);
}
";
        let (ws, i) = single_fn(src);
        let f = &ws.functions[i];
        let lock = &f.locks[0];
        let sleep = f.calls.iter().find(|c| c.name == "sleep").expect("sleep");
        assert!(lock.scope_end < sleep.tok, "drop must end the guard scope");
    }

    #[test]
    fn helper_call_becomes_lock_site() {
        let src = "\
impl Pool {
    fn guard(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(\"poisoned\")
    }
    fn use_it(&self) {
        let st = self.guard();
        st.touch();
    }
}
";
        let (ws, _) = single_fn(src);
        let use_it = ws
            .functions
            .iter()
            .find(|f| f.name == "use_it")
            .expect("use_it");
        assert_eq!(use_it.locks.len(), 1);
        assert!(use_it.locks[0].via_helper);
        assert_eq!(use_it.locks[0].lock_id, "demo::Pool::state");
    }

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
        let (ws, _) = single_fn(src);
        let tighten = ws
            .functions
            .iter()
            .find(|f| f.name == "tighten")
            .expect("f");
        assert_eq!(tighten.atomics.len(), 2);
        assert_eq!(tighten.atomics[0].field, "bits");
        assert_eq!(tighten.atomics[0].kind, AtomicKind::Cas);
        assert_eq!(tighten.atomics[0].orderings, ["Relaxed", "Relaxed"]);
        let get = ws.functions.iter().find(|f| f.name == "get").expect("f");
        assert_eq!(get.atomics[0].kind, AtomicKind::Load);
        assert_eq!(get.atomics[0].orderings, ["Acquire"]);
    }

    #[test]
    fn panic_sites() {
        let src = "\
fn f(v: &[u32], i: usize, n: u32) -> u32 {
    let x = v[i] / n;
    let z = opt.unwrap();
    let w = res.expect(\"named reason\");
    x + z + w
}
";
        let (ws, i) = single_fn(src);
        let panics = &ws.functions[i].panics;
        let kinds: Vec<PanicKind> = panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, [PanicKind::Unwrap, PanicKind::Expect]);
        assert_eq!(panics[1].message.as_deref(), Some("\"named reason\""));
    }

    #[test]
    fn local_receivers_stay_function_local() {
        let src = "fn f(m: &Mutex<u32>) { let _g = m.lock().expect(\"poisoned\"); }";
        let (ws, i) = single_fn(src);
        assert_eq!(ws.functions[i].locks[0].lock_id, "local:demo::f::m");
        assert!(!is_canonical(&ws.functions[i].locks[0].lock_id));
    }
}
