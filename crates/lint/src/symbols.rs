//! Pass 1's per-file symbol table.
//!
//! The whole-workspace pass (the call graph in [`crate::graph`]) needs more
//! than extents: every function definition with its body span, owning
//! `impl` type, and call sites. This module extracts all of that from the
//! token stream in one walk per file — still no AST, in the same
//! lexical-fidelity philosophy as [`crate::scan`].
//!
//! Known approximations (documented in DESIGN.md §17):
//!
//! - The owning type of a method is the innermost `impl` block's *type
//!   name* (trait name stripped, generics stripped, last path segment).
//!   Two `impl Foo` blocks in different files share the owner name `Foo`.
//! - Call sites are `ident (`-shaped token patterns classified by their
//!   immediate left context (`.` method call, `::` path call, bare call).
//!   Macro invocations (`name!(…)`) are not calls; neither are keywords.
//! - Functions and call sites inside `#[cfg(test)]`/`#[test]` code are
//!   excluded entirely — test code is exempt from the H-rules, so it must
//!   not contribute nodes or edges to the hot closure.

use crate::scan::{body_braces, is_ident, is_punct, Extents};
use crate::tokenizer::{Lexed, Tok, TokKind};

/// How a call site names its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free-function (or locally `use`d) call.
    Bare,
    /// `recv.name(…)` — a method call through any receiver but `self`.
    Method,
    /// `self.name(…)` — a method call on the caller's own receiver.
    SelfMethod,
    /// `Qual::name(…)` — a path call; the qualifier is the last path
    /// segment before `::` (a type, `Self`, or a module name).
    Path(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Call {
    /// The called name.
    pub name: String,
    /// Left-context classification.
    pub kind: CallKind,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One function definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The innermost `impl` type containing the definition, if any.
    pub owner: Option<String>,
    /// 1-based source line of the `fn` token.
    pub line: u32,
    /// Token span of the body: `(open_brace, one_past_close)`.
    pub body: (usize, usize),
    /// Whether the function is directly annotated `// cosmos-lint: hot`.
    pub hot: bool,
    /// Call sites in the body (excluding nested fn bodies and test code).
    pub calls: Vec<Call>,
}

impl FnDef {
    /// `Owner::name` or bare `name` — the display form used in witness
    /// chains and the hot-closure report.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One `trait` declaration: its name and declared method names (with or
/// without default bodies). The call-graph builder treats a dot-call to a
/// trait-declared name as potential dynamic dispatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraitDef {
    /// Trait name.
    pub name: String,
    /// Method names declared in the trait body.
    pub methods: Vec<String>,
}

/// Everything pass 2 needs from one file.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    /// Function definitions outside test code.
    pub fns: Vec<FnDef>,
    /// Trait declarations outside test code.
    pub traits: Vec<TraitDef>,
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "let", "else", "fn", "impl",
    "pub", "use", "mod", "where", "unsafe", "move", "ref", "mut", "dyn", "enum", "struct", "trait",
    "type", "const", "static", "crate", "super", "await", "yield", "box",
];

/// Extracts the symbol table for a lexed file whose extents are already
/// computed (hot spans and test spans come from `ext`).
pub fn file_symbols(lexed: &Lexed, ext: &Extents) -> FileSymbols {
    let toks = &lexed.toks;
    let mut out = FileSymbols::default();

    // Impl block spans: (open, one_past_close, type name).
    let impls = impl_spans(toks);

    // Function definitions.
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(toks, i, "fn") && !ext.in_test(i) {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if let Some((open, close)) = body_braces(toks, i + 2) {
                    let owner = impls
                        .iter()
                        .filter(|&&(a, b, _)| a <= i && i < b)
                        .max_by_key(|&&(a, _, _)| a)
                        .map(|(_, _, n)| n.clone());
                    out.fns.push(FnDef {
                        name: name_tok.text.clone(),
                        owner,
                        line: toks[i].line,
                        body: (open, close),
                        hot: ext.hot_spans.iter().any(|&(a, _, _)| a == open),
                        calls: Vec::new(),
                    });
                }
            }
        }
        i += 1;
    }

    // Trait declarations.
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(toks, i, "trait") && !ext.in_test(i) {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if let Some((open, close)) = body_braces(toks, i + 2) {
                    let mut methods = Vec::new();
                    let mut j = open + 1;
                    while j + 1 < close {
                        if is_ident(toks, j, "fn") {
                            if let Some(m) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                                methods.push(m.text.clone());
                            }
                        }
                        j += 1;
                    }
                    out.traits.push(TraitDef {
                        name: name_tok.text.clone(),
                        methods,
                    });
                }
            }
        }
        i += 1;
    }

    // Call sites, attributed to the innermost enclosing fn body.
    for i in 0..toks.len() {
        let Some(call) = call_at(toks, i) else {
            continue;
        };
        if ext.in_test(i) {
            continue;
        }
        let Some(owner_fn) = out
            .fns
            .iter_mut()
            .filter(|f| f.body.0 < i && i < f.body.1)
            .max_by_key(|f| f.body.0)
        else {
            continue;
        };
        owner_fn.calls.push(call);
    }

    out
}

/// Classifies the token at `i` as a call site, if it is one.
fn call_at(toks: &[Tok], i: usize) -> Option<Call> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !is_punct(toks, i + 1, "(") {
        return None;
    }
    if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if is_ident(toks, i.wrapping_sub(1), "fn") {
        return None;
    }
    let kind =
        if is_punct(toks, i.wrapping_sub(1), ".") && is_ident(toks, i.wrapping_sub(2), "self") {
            CallKind::SelfMethod
        } else if is_punct(toks, i.wrapping_sub(1), ".") {
            CallKind::Method
        } else if is_punct(toks, i.wrapping_sub(1), ":") && is_punct(toks, i.wrapping_sub(2), ":") {
            match path_qualifier(toks, i.wrapping_sub(3)) {
                Some(q) => CallKind::Path(q),
                None => CallKind::Bare,
            }
        } else {
            CallKind::Bare
        };
    Some(Call {
        name: t.text.clone(),
        kind,
        line: t.line,
    })
}

/// The last path segment before a `::`, skipping a turbofish
/// (`Vec::<u8>::new` → `Vec`). `j` points at the token just before the
/// first `:` of the `::`.
fn path_qualifier(toks: &[Tok], j: usize) -> Option<String> {
    let mut j = j;
    if is_punct(toks, j, ">") {
        // Walk back over the `<…>` of a turbofish.
        let mut depth = 0i32;
        loop {
            let t = toks.get(j)?;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    ">" => depth += 1,
                    "<" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j = j.checked_sub(1)?;
        }
        // Before the `<` sits `::` then the qualifier ident.
        if is_punct(toks, j.wrapping_sub(1), ":") && is_punct(toks, j.wrapping_sub(2), ":") {
            j = j.checked_sub(3)?;
        } else {
            j = j.checked_sub(1)?;
        }
    }
    toks.get(j)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Spans of `impl` blocks with their resolved type names:
/// `(body_open, one_past_close, type_name)`.
fn impl_spans(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(toks, i, "impl") {
            if let Some((open, close)) = body_braces(toks, i + 1) {
                if let Some(name) = impl_type_name(toks, i + 1, open) {
                    out.push((open, close, name));
                }
                // Nested impls don't occur; continue past the header so a
                // method named `impl_…` inside the body isn't re-matched.
                i += 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// The implemented type's name for an `impl` header spanning tokens
/// `[start, body_open)`: the last angle-depth-0 identifier of the segment
/// after `for` (trait impls) or of the whole header (inherent impls),
/// stopping at `where`.
fn impl_type_name(toks: &[Tok], start: usize, body_open: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut last: Option<&str> = None;
    let mut j = start;
    while j < body_open {
        let t = &toks[j];
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                ">" if !is_punct(toks, j.wrapping_sub(1), "-") => angle = (angle - 1).max(0),
                _ => {}
            },
            TokKind::Ident if angle == 0 => match t.text.as_str() {
                "for" => last = None, // restart: the target is after `for`
                "where" => break,
                "mut" | "dyn" => {}
                name => last = Some(name),
            },
            _ => {}
        }
        j += 1;
    }
    last.map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::extents;
    use crate::tokenizer::lex;

    fn symbols(src: &str) -> FileSymbols {
        let l = lex(src);
        let e = extents(&l);
        file_symbols(&l, &e)
    }

    #[test]
    fn fn_defs_with_owners() {
        let src = "\
pub struct Cache { x: u64 }
impl Cache {
    pub fn access(&mut self) { self.touch(1); helper(); }
    fn touch(&mut self, i: usize) { let _ = i; }
}
fn helper() {}
";
        let s = symbols(src);
        let names: Vec<(String, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("access".to_string(), Some("Cache".to_string())),
                ("touch".to_string(), Some("Cache".to_string())),
                ("helper".to_string(), None),
            ]
        );
        let access = &s.fns[0];
        assert_eq!(access.calls.len(), 2);
        assert_eq!(access.calls[0].name, "touch");
        assert_eq!(access.calls[0].kind, CallKind::SelfMethod);
        assert_eq!(access.calls[1].name, "helper");
        assert_eq!(access.calls[1].kind, CallKind::Bare);
    }

    #[test]
    fn trait_impl_owner_is_the_type() {
        let s = symbols("impl Policy for Lru { fn pick(&self) -> usize { 0 } }");
        assert_eq!(s.fns[0].owner.as_deref(), Some("Lru"));
    }

    #[test]
    fn generic_impl_owner_strips_generics() {
        let s = symbols("impl<T: Clone> Holder<T> where T: Default { fn get(&self) {} }");
        assert_eq!(s.fns[0].owner.as_deref(), Some("Holder"));
    }

    #[test]
    fn path_calls_carry_qualifier() {
        let src = "fn f() { Cache::probe(); Vec::<u8>::with_capacity(4); Self::go(); }";
        let s = symbols(src);
        let kinds: Vec<&CallKind> = s.fns[0].calls.iter().map(|c| &c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &CallKind::Path("Cache".to_string()),
                &CallKind::Path("Vec".to_string()),
                &CallKind::Path("Self".to_string()),
            ]
        );
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f(x: u64) { if (x > 0) { } let v = vec!(1); format!(\"{x}\"); g(); }";
        let s = symbols(src);
        let names: Vec<&str> = s.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["g"]);
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let src = "\
fn outer() {
    fn inner() { deep(); }
    shallow();
}
";
        let s = symbols(src);
        let outer = s.fns.iter().find(|f| f.name == "outer").expect("outer fn");
        let inner = s.fns.iter().find(|f| f.name == "inner").expect("inner fn");
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            vec!["shallow"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            vec!["deep"]
        );
    }

    #[test]
    fn test_code_contributes_nothing() {
        let src = "\
fn real() { used(); }
#[cfg(test)]
mod tests {
    fn helper() { allocating(); }
}
";
        let s = symbols(src);
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn trait_declarations_collect_method_names() {
        let src = "\
pub trait Prefetcher: Send {
    fn name(&self) -> &'static str;
    fn on_access(&mut self, line: u64, hit: bool) -> Vec<u64>;
    fn reset(&mut self) {}
}
#[cfg(test)]
mod tests {
    trait Fake { fn shadow(&self); }
}
";
        let s = symbols(src);
        assert_eq!(s.traits.len(), 1, "test-code traits are excluded");
        assert_eq!(s.traits[0].name, "Prefetcher");
        assert_eq!(s.traits[0].methods, vec!["name", "on_access", "reset"]);
    }

    #[test]
    fn hot_flag_matches_pragma() {
        let src = "\
// cosmos-lint: hot
fn fast() {}
fn slow() {}
";
        let s = symbols(src);
        assert!(s.fns[0].hot);
        assert!(!s.fns[1].hot);
    }
}
