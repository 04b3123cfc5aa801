//! Item/block-level parser over the lexed token stream.
//!
//! Recovers the structure the passes need — no more: function definitions
//! with their body token ranges, the `impl`/`trait` type each method
//! belongs to, and which items are test code (`#[test]`, `#[cfg(test)]`,
//! or inside a `mod tests`). Expression grammar is deliberately *not*
//! parsed; the passes scan body token slices with local pattern matching
//! (see [`crate::model`]).

use crate::lexer::{Lexed, TokKind, Token};

/// One recovered function (free function, method, or trait default body).
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's bare name.
    pub name: String,
    /// The `impl` or `trait` type name the function is defined on, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function is test code (directly attributed or inside a
    /// test-gated module).
    pub is_test: bool,
    /// Token range of the body, inclusive of both braces. `None` for a
    /// bodiless trait method declaration.
    pub body: Option<(usize, usize)>,
}

/// Everything recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// All functions in the file, in source order.
    pub functions: Vec<Function>,
    /// 1-based line ranges of test-gated item scopes (`#[cfg(test)] mod`,
    /// test-attributed impls) — everything inside, functions or not, is
    /// test code.
    pub test_regions: Vec<(u32, u32)>,
}

/// Attribute scan state: did the pending attributes mark the next item as
/// test code?
#[derive(Default, Clone, Copy)]
struct Attrs {
    test: bool,
}

struct Scope {
    impl_type: Option<String>,
    is_test: bool,
    /// Set when *this* scope turned test-ness on (its parent was not
    /// test): the start line of a reportable test region.
    region_start: Option<u32>,
}

/// Parses a lexed file into its functions.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile::default();
    // The scope stack mirrors `{` nesting at item level; each entry carries
    // the enclosing impl/trait type and test-ness.
    let mut scopes: Vec<Scope> = vec![Scope {
        impl_type: None,
        is_test: false,
        region_start: None,
    }];
    let mut attrs = Attrs::default();
    let mut i = 0;

    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.is_punct('#') => {
                // `#[...]` or `#![...]`: scan the bracket group for test
                // markers.
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct('!') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('[') {
                    let end = match_bracket(toks, j, '[', ']');
                    let stop = end.min(toks.len().saturating_sub(1));
                    for tok in &toks[j..=stop] {
                        if tok.is_ident("test") {
                            attrs.test = true;
                        }
                    }
                    i = end + 1;
                } else {
                    i = j;
                }
            }
            TokKind::Ident if t.text == "impl" => {
                let (type_name, body_open) = parse_impl_header(toks, i);
                match body_open {
                    Some(open) => {
                        let was_test = current_test(&scopes);
                        let is_test = was_test || attrs.test;
                        scopes.push(Scope {
                            impl_type: type_name,
                            is_test,
                            region_start: (is_test && !was_test).then_some(t.line),
                        });
                        attrs = Attrs::default();
                        i = open + 1;
                    }
                    None => i += 1,
                }
            }
            TokKind::Ident if t.text == "trait" => {
                let name = toks.get(i + 1).map(|t| t.text.clone());
                match scan_to_body_open(toks, i + 1) {
                    Some(open) => {
                        let was_test = current_test(&scopes);
                        let is_test = was_test || attrs.test;
                        scopes.push(Scope {
                            impl_type: name,
                            is_test,
                            region_start: (is_test && !was_test).then_some(t.line),
                        });
                        attrs = Attrs::default();
                        i = open + 1;
                    }
                    None => i += 1,
                }
            }
            TokKind::Ident if t.text == "mod" => {
                let name = toks.get(i + 1).map(|t| t.text.as_str()).unwrap_or("");
                let was_test = current_test(&scopes);
                let test = attrs.test || was_test || name == "tests";
                // `mod x;` declares, `mod x {` defines.
                match toks.get(i + 2) {
                    Some(t2) if t2.is_punct('{') => {
                        scopes.push(Scope {
                            impl_type: None,
                            is_test: test,
                            region_start: (test && !was_test).then_some(t.line),
                        });
                        attrs = Attrs::default();
                        i += 3;
                    }
                    _ => {
                        attrs = Attrs::default();
                        i += 2;
                    }
                }
            }
            TokKind::Ident if t.text == "fn" => {
                let (func, next) = parse_fn(toks, i, &scopes, attrs);
                if let Some(f) = func {
                    out.functions.push(f);
                }
                attrs = Attrs::default();
                i = next;
            }
            TokKind::Punct if t.is_punct('{') => {
                // A stray item-level brace (e.g. a const initializer):
                // inherit the current scope.
                scopes.push(Scope {
                    impl_type: scopes.last().and_then(|s| s.impl_type.clone()),
                    is_test: current_test(&scopes),
                    region_start: None,
                });
                i += 1;
            }
            TokKind::Punct if t.is_punct('}') => {
                if scopes.len() > 1 {
                    if let Some(scope) = scopes.pop() {
                        if let Some(start) = scope.region_start {
                            out.test_regions.push((start, t.line));
                        }
                    }
                }
                i += 1;
            }
            TokKind::Punct if t.is_punct(';') => {
                attrs = Attrs::default();
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

fn current_test(scopes: &[Scope]) -> bool {
    scopes.iter().any(|s| s.is_test)
}

/// Returns the index of the bracket matching `toks[open]`, or the last
/// token on unbalanced input.
fn match_bracket(toks: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(oc) {
            depth += 1;
        } else if toks[i].is_punct(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Returns the matching `}` for `toks[open]` (an opening `{`).
pub fn match_brace(toks: &[Token], open: usize) -> usize {
    match_bracket(toks, open, '{', '}')
}

/// Returns the matching closer for `toks[open]` given an arbitrary
/// bracket pair (e.g. `(`/`)` for call argument lists).
pub fn match_brace_like(toks: &[Token], open: usize, o: char, c: char) -> usize {
    match_bracket(toks, open, o, c)
}

/// From `impl`, finds the implemented type name and the body `{`.
/// `impl<T> Foo<T> { … }` → `Foo`; `impl Trait for Bar { … }` → `Bar`.
fn parse_impl_header(toks: &[Token], impl_idx: usize) -> (Option<String>, Option<usize>) {
    let mut i = impl_idx + 1;
    i = skip_generics(toks, i);
    let mut first_path_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            let name = if saw_for { after_for } else { first_path_ident };
            return (name, Some(i));
        }
        if t.is_punct(';') {
            return (None, None);
        }
        if t.is_ident("for") {
            saw_for = true;
            i += 1;
            continue;
        }
        if t.is_ident("where") {
            // Type names are settled; scan on to the `{`.
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            // Remember the *last* plain ident of the current path segment
            // group before generics: `crate::x::Foo<T>` → `Foo`.
            if saw_for {
                if after_for.is_none() || toks[i.saturating_sub(1)].is_punct(':') {
                    after_for = Some(t.text.clone());
                }
            } else if first_path_ident.is_none() || toks[i.saturating_sub(1)].is_punct(':') {
                first_path_ident = Some(t.text.clone());
            }
            i += 1;
            continue;
        }
        if t.is_punct('<') {
            i = skip_generics(toks, i);
            continue;
        }
        i += 1;
    }
    (None, None)
}

/// Skips a `<...>` generics group starting at `i` (no-op when `toks[i]`
/// is not `<`). Understands that `->` and `=>` do not close generics.
pub(crate) fn skip_generics(toks: &[Token], i: usize) -> usize {
    if i >= toks.len() || !toks[i].is_punct('<') {
        return i;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && (toks[j - 1].is_punct('-') || toks[j - 1].is_punct('='));
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    toks.len()
}

/// From a position after an item keyword, finds the next `{` at
/// paren/bracket depth 0 (used for trait headers).
fn scan_to_body_open(toks: &[Token], mut i: usize) -> Option<usize> {
    let mut paren = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            return Some(i);
        } else if t.is_punct(';') && paren == 0 {
            return None;
        }
        i += 1;
    }
    None
}

/// Parses one `fn` item starting at the `fn` keyword; returns the function
/// (if recoverable) and the token index to resume scanning at (after the
/// body, so nested closures and inner items never confuse the item walk).
fn parse_fn(
    toks: &[Token],
    fn_idx: usize,
    scopes: &[Scope],
    attrs: Attrs,
) -> (Option<Function>, usize) {
    let name_idx = fn_idx + 1;
    let Some(name_tok) = toks.get(name_idx) else {
        return (None, fn_idx + 1);
    };
    if name_tok.kind != TokKind::Ident {
        return (None, fn_idx + 1);
    }
    let i = skip_generics(toks, name_idx + 1);
    // Parameter list.
    if i >= toks.len() || !toks[i].is_punct('(') {
        return (None, name_idx + 1);
    }
    let params_close = match_bracket(toks, i, '(', ')');
    // Signature tail: up to the body `{` or a `;` at depth 0.
    let mut j = params_close + 1;
    let mut depth = 0i32;
    let mut body = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            body = Some((j, match_brace(toks, j)));
            break;
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        j += 1;
    }
    let func = Function {
        name: name_tok.text.clone(),
        impl_type: scopes.iter().rev().find_map(|s| s.impl_type.clone()),
        line: toks[fn_idx].line,
        is_test: attrs.test || current_test(scopes),
        body,
    };
    let resume = match body {
        Some((_, close)) => close + 1,
        None => j + 1,
    };
    (Some(func), resume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn functions(src: &str) -> Vec<Function> {
        parse(&lex(src)).functions
    }

    #[test]
    fn free_fn_and_method() {
        let fns = functions(
            "fn free() { let x = 1; }\n\
             impl Pool { fn method(&self) -> u32 { 2 } }\n",
        );
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].impl_type, None);
        assert_eq!(fns[1].name, "method");
        assert_eq!(fns[1].impl_type.as_deref(), Some("Pool"));
    }

    #[test]
    fn impl_trait_for_type_attributes_to_the_type() {
        let fns = functions("impl fmt::Display for Finding { fn fmt(&self) {} }");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Finding"));
    }

    #[test]
    fn generic_impl_headers() {
        let fns = functions(
            "impl<const D: usize, O: SpatialObject<D>> ShardedTree<D, O> {\n\
                 fn shard(&self, i: usize) -> &RTree<D, O> { &self.shards[i] }\n\
             }\n",
        );
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].impl_type.as_deref(), Some("ShardedTree"));
    }

    #[test]
    fn fn_generics_with_fn_bounds() {
        let fns = functions("fn g<F: Fn() -> u32>(f: F) -> u32 { f() }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "g");
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn cfg_test_mod_marks_functions_test() {
        let fns = functions(
            "fn lib_code() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn a_test() {}\n    fn helper() {}\n}\n",
        );
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
        assert!(fns[2].is_test, "helpers inside a test mod are test code");
    }

    #[test]
    fn cfg_all_test_model_marks_test() {
        let fns = functions("#[cfg(all(test, cpq_model))]\nmod model_tests { fn f() {} }");
        assert!(fns[0].is_test);
    }

    #[test]
    fn trait_default_bodies_and_decls() {
        let fns =
            functions("trait Probe { fn on_node(&self); fn enabled(&self) -> bool { true } }");
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
        assert_eq!(fns[1].impl_type.as_deref(), Some("Probe"));
    }
}
