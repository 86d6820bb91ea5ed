//! Pass 2a: the workspace call graph and the hot-path closure rules.
//!
//! Nodes are the function definitions collected by [`crate::symbols`];
//! edges come from resolving each call site against the workspace-wide
//! name indices. Resolution is deliberately conservative about *false*
//! edges and permissive about trait dispatch (DESIGN.md §17):
//!
//! - **Path calls** (`Type::f(…)`): edges to every fn named `f` owned by
//!   `Type` (any file — impl blocks may be split). `Self::f` resolves
//!   through the caller's owner. A qualifier that matches no impl type
//!   (a module path like `codec::u64_field`) falls back to free-fn
//!   resolution.
//! - **Method calls** (`recv.f(…)`): the receiver's type is unknown
//!   without inference, so: if any method named `f` is defined in the
//!   *same file*, edges go to those only (covers `self.f()` and the
//!   common same-file helper), except that a `STD_NAMES` name takes this
//!   shortcut only on a bare `self` receiver (`self.items.get(i)` is a
//!   std call, not the file's own `get`). Otherwise, as across files,
//!   resolution depends on the name: a name declared by any workspace `trait` fans out to
//!   **every** method of that name (soundly over-approximating dynamic
//!   dispatch); a name on the `STD_NAMES` deny-list resolves to
//!   **nothing** (`.len()`, `.push()`, … are overwhelmingly std calls —
//!   a workspace method shadowing one never gets cross-file edges, so
//!   annotate it `hot` directly if it is genuinely on the hot path);
//!   any other inherent name resolves only when **unique** workspace-wide
//!   (two same-name inherent methods on different types produce no edge).
//! - **Bare calls** (`f(…)`): a same-file free fn wins; otherwise a
//!   *unique*, non-`STD_NAMES` workspace free fn; two same-name free
//!   fns in different modules produce **no** edge (no false edges, an
//!   under-approximation). The deny-list keeps `std::mem::take(…)` from
//!   resolving to an unrelated workspace fn named `take`.
//! - Calls whose name matches nothing (std/external functions) produce no
//!   edge; external code is outside the closure by construction.
//!
//! The closure is a BFS from every `// cosmos-lint: hot` root at once,
//! with parent pointers recording a shortest witness chain — each H2–H4
//! finding carries the chain from its nearest root.

use crate::rules::{alloc_site, lock_site, panic_site, FileAnalysis, Finding};
use crate::symbols::CallKind;
use std::collections::{BTreeMap, BTreeSet};

/// Ubiquitous std method/function names that never resolve across files:
/// a dot- or bare call to one of these from a file that does not define it
/// is almost certainly a std call, and a cross-file edge to a same-named
/// workspace item would be a false edge. Sorted for binary search.
const STD_NAMES: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "borrow",
    "borrow_mut",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "default",
    "drain",
    "drop",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "lock",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "read",
    "remove",
    "replace",
    "retain",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split",
    "split_off",
    "sum",
    "swap",
    "take",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_vec",
    "try_into",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "windows",
    "write",
    "zip",
];

/// Whether cross-file resolution is denied for `name`.
fn is_std_name(name: &str) -> bool {
    STD_NAMES.binary_search(&name).is_ok()
}

/// One hot root's transitive callee set, for the JSON report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootClosure {
    /// The root's display name (`Owner::name` or bare `name`).
    pub root: String,
    /// The root's file.
    pub path: String,
    /// The root's `fn` line.
    pub line: u32,
    /// Sorted, deduplicated display names of every function transitively
    /// callable from the root (the root itself always excluded — a
    /// recursive root still covers itself via H1).
    pub reachable: Vec<String>,
}

/// The resolved workspace call graph.
pub(crate) struct Graph {
    /// `(file index, fn index)` per node id, in file-then-definition order.
    nodes: Vec<(usize, usize)>,
    /// Sorted, deduplicated adjacency per node id.
    edges: Vec<Vec<usize>>,
    /// Node ids of directly-annotated hot roots, ascending.
    roots: Vec<usize>,
    /// Node id lookup by `(file index, fn index)`.
    by_loc: BTreeMap<(usize, usize), usize>,
}

/// Builds the call graph over every file's symbol table.
pub(crate) fn build(fas: &[FileAnalysis]) -> Graph {
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    for (fi, fa) in fas.iter().enumerate() {
        for ni in 0..fa.symbols.fns.len() {
            nodes.push((fi, ni));
        }
    }
    let by_loc: BTreeMap<(usize, usize), usize> =
        nodes.iter().enumerate().map(|(g, &loc)| (loc, g)).collect();

    // Name indices. BTreeMap keeps candidate lists in node order via the
    // sorted push below, so edge order is input-order deterministic.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_owner_and_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (gid, &(fi, ni)) in nodes.iter().enumerate() {
        let f = &fas[fi].symbols.fns[ni];
        match &f.owner {
            Some(owner) => {
                methods_by_name.entry(&f.name).or_default().push(gid);
                by_owner_and_name
                    .entry((owner, &f.name))
                    .or_default()
                    .push(gid);
            }
            None => free_by_name.entry(&f.name).or_default().push(gid),
        }
    }

    // Names declared by any workspace trait: dot-calls to these may be
    // dynamic dispatch, so they fan out workspace-wide.
    let trait_methods: BTreeSet<&str> = fas
        .iter()
        .flat_map(|fa| fa.symbols.traits.iter())
        .flat_map(|t| t.methods.iter())
        .map(String::as_str)
        .collect();

    let bare_resolve = |name: &str, caller_file: usize| -> Vec<usize> {
        let Some(cands) = free_by_name.get(name) else {
            return Vec::new();
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&g| nodes[g].0 == caller_file)
            .collect();
        if !same_file.is_empty() {
            same_file
        } else if cands.len() == 1 && !is_std_name(name) {
            cands.clone()
        } else {
            // Ambiguous same-name free fns in different modules, or a std
            // name (`std::mem::take` must not resolve to a workspace
            // `take`): no edge beats a false edge.
            Vec::new()
        }
    };

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (gid, &(fi, ni)) in nodes.iter().enumerate() {
        let caller = &fas[fi].symbols.fns[ni];
        let mut out: Vec<usize> = Vec::new();
        for call in &caller.calls {
            let name = call.name.as_str();
            match &call.kind {
                CallKind::Method | CallKind::SelfMethod => {
                    if let Some(cands) = methods_by_name.get(name) {
                        // A std name resolves in its own file only on `self`:
                        // `self.items.get(i)` is almost surely a std call.
                        let on_self = call.kind == CallKind::SelfMethod;
                        let same_file: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&g| nodes[g].0 == fi && (on_self || !is_std_name(name)))
                            .collect();
                        if !same_file.is_empty() {
                            out.extend(same_file);
                        } else if trait_methods.contains(name) {
                            // Potential dynamic dispatch: fan out to every
                            // method of this name.
                            out.extend(cands.iter().copied());
                        } else if cands.len() == 1 && !is_std_name(name) {
                            // A unique inherent method resolves; ambiguous
                            // or std-shadowing names get no edge.
                            out.extend(cands.iter().copied());
                        }
                    }
                }
                CallKind::Path(q) => {
                    let owner = if q == "Self" {
                        caller.owner.clone()
                    } else {
                        Some(q.clone())
                    };
                    let hits = owner
                        .as_deref()
                        .and_then(|o| by_owner_and_name.get(&(o, name)));
                    match hits {
                        Some(cands) => out.extend(cands.iter().copied()),
                        // A qualifier that names no impl type is a module
                        // path; resolve like a bare call.
                        None => out.extend(bare_resolve(name, fi)),
                    }
                }
                CallKind::Bare => out.extend(bare_resolve(name, fi)),
            }
        }
        out.sort_unstable();
        out.dedup();
        edges[gid] = out;
    }

    let roots: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|&(_, &(fi, ni))| fas[fi].symbols.fns[ni].hot)
        .map(|(g, _)| g)
        .collect();

    Graph {
        nodes,
        edges,
        roots,
        by_loc,
    }
}

impl Graph {
    fn display(&self, fas: &[FileAnalysis], gid: usize) -> String {
        let (fi, ni) = self.nodes[gid];
        fas[fi].symbols.fns[ni].display()
    }

    /// BFS from `starts`, returning the parent pointer per discovered node
    /// (`parent[start] == start`). Deterministic: starts ascending, sorted
    /// adjacency.
    fn bfs(&self, starts: &[usize]) -> BTreeMap<usize, usize> {
        use std::collections::btree_map::Entry;
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &s in starts {
            if let Entry::Vacant(e) = parent.entry(s) {
                e.insert(s);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if let Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// The witness chain of display names from `gid`'s nearest root down
    /// to `gid` itself.
    fn chain(
        &self,
        fas: &[FileAnalysis],
        parent: &BTreeMap<usize, usize>,
        gid: usize,
    ) -> Vec<String> {
        let mut rev = vec![gid];
        let mut cur = gid;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        rev.into_iter().map(|g| self.display(fas, g)).collect()
    }
}

/// Per-root transitive callee sets for the JSON report, in
/// (file, definition) order.
pub(crate) fn closures(g: &Graph, fas: &[FileAnalysis]) -> Vec<RootClosure> {
    g.roots
        .iter()
        .map(|&r| {
            let parent = g.bfs(&[r]);
            let mut reachable: Vec<String> = parent
                .keys()
                .filter(|&&n| n != r)
                .map(|&n| g.display(fas, n))
                .collect();
            reachable.sort();
            reachable.dedup();
            let (fi, ni) = g.nodes[r];
            let f = &fas[fi].symbols.fns[ni];
            RootClosure {
                root: f.display(),
                path: fas[fi].path.clone(),
                line: f.line,
                reachable,
            }
        })
        .collect()
}

/// Applies the closure rules (H2/H3/H4) over every function reachable from
/// a hot root, attaching witness chains.
pub(crate) fn check(g: &Graph, fas: &[FileAnalysis]) -> Vec<Finding> {
    let parent = g.bfs(&g.roots);
    let mut findings: Vec<Finding> = Vec::new();

    for (fi, fa) in fas.iter().enumerate() {
        if fa.symbols.fns.is_empty() {
            continue;
        }
        let toks = &fa.lexed.toks;
        for i in 0..toks.len() {
            if fa.ext.in_test(i) {
                continue;
            }
            let Some((rule, what)) = alloc_site(toks, i)
                .map(|s| ("H2", s))
                .or_else(|| lock_site(toks, i).map(|s| ("H3", s)))
                .or_else(|| panic_site(toks, i).map(|s| ("H4", s)))
            else {
                continue;
            };
            // Attribute the site to the innermost enclosing fn definition.
            let Some(ni) = fa
                .symbols
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.body.0 < i && i < f.body.1)
                .max_by_key(|(_, f)| f.body.0)
                .map(|(ni, _)| ni)
            else {
                continue;
            };
            let gid = g.by_loc[&(fi, ni)];
            if !parent.contains_key(&gid) {
                continue; // not on the hot closure
            }
            let direct_hot = fa.symbols.fns[ni].hot;
            if rule == "H2" && direct_hot {
                continue; // H1 already covers directly-annotated fns
            }
            let line = toks[i].line;
            if findings
                .iter()
                .any(|f| f.rule == rule && f.path == fa.path && f.line == line)
            {
                continue;
            }
            let chain = g.chain(fas, &parent, gid);
            let fn_name = fa.symbols.fns[ni].display();
            let root = chain.first().cloned().unwrap_or_else(|| fn_name.clone());
            let message = match rule {
                "H2" => format!(
                    "`{what}` allocates in `{fn_name}`, which is reachable from hot root \
                     `{root}` (runs per simulated access); hoist the allocation out or \
                     break the call edge"
                ),
                "H3" => format!(
                    "`{what}` acquires a lock in `{fn_name}` on the hot-path closure of \
                     `{root}`; hot code must stay wait-free (use atomics or move the \
                     lock off the per-access path)"
                ),
                _ => format!(
                    "`{what}` can panic in `{fn_name}` on the hot-path closure of \
                     `{root}`; hot code must be total (return Result or prove the \
                     invariant)"
                ),
            };
            findings.push(Finding {
                rule: rule.to_string(),
                path: fa.path.clone(),
                line,
                message,
                excerpt: fa.excerpt(line),
                chain,
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::analyze_file;

    fn fas(files: &[(&str, &str)]) -> Vec<FileAnalysis> {
        files.iter().map(|(p, s)| analyze_file(p, s)).collect()
    }

    #[test]
    fn closure_spans_files_and_chains_are_shortest() {
        let a = "\
// cosmos-lint: hot
pub fn access() { mid(); }
fn mid() { leaf(); }
";
        let b = "pub fn leaf() { tail(); }\nfn tail() {}\n";
        let fas = fas(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        let g = build(&fas);
        let cl = closures(&g, &fas);
        assert_eq!(cl.len(), 1);
        assert_eq!(cl[0].root, "access");
        assert_eq!(cl[0].reachable, vec!["leaf", "mid", "tail"]);
        let parent = g.bfs(&g.roots);
        // leaf is node 3 overall? Resolve by display instead.
        let leaf = (0..g.nodes.len())
            .find(|&n| g.display(&fas, n) == "leaf")
            .expect("leaf node exists in graph");
        assert_eq!(g.chain(&fas, &parent, leaf), vec!["access", "mid", "leaf"]);
    }

    #[test]
    fn same_name_free_fns_in_two_modules_get_no_edge() {
        let a = "\
// cosmos-lint: hot
pub fn access() { helper(); }
";
        let b = "pub fn helper() {}\n";
        let c = "pub fn helper() {}\n";
        let fas = fas(&[
            ("crates/a/src/lib.rs", a),
            ("crates/b/src/lib.rs", b),
            ("crates/c/src/lib.rs", c),
        ]);
        let g = build(&fas);
        let cl = closures(&g, &fas);
        assert!(
            cl[0].reachable.is_empty(),
            "ambiguous bare call must not create edges: {:?}",
            cl[0].reachable
        );
    }

    #[test]
    fn same_file_bare_call_beats_global_uniqueness() {
        let a = "\
// cosmos-lint: hot
pub fn access() { helper(); }
fn helper() {}
";
        let b = "pub fn helper() { other(); }\nfn other() {}\n";
        let fas = fas(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        let g = build(&fas);
        let cl = closures(&g, &fas);
        assert_eq!(cl[0].reachable, vec!["helper"], "same-file helper only");
    }

    #[test]
    fn recursion_terminates_and_self_appears_in_reachable() {
        let a = "\
// cosmos-lint: hot
pub fn access(n: u64) { if (n > 0) { access(n - 1); } step(); }
fn step() {}
";
        let fas = fas(&[("crates/a/src/lib.rs", a)]);
        let g = build(&fas);
        let cl = closures(&g, &fas);
        assert_eq!(cl[0].reachable, vec!["step"], "root itself is excluded");
    }

    #[test]
    fn method_calls_prefer_same_file_then_go_wide() {
        // Same-file: `self.touch()` binds only to the local method even
        // though another `touch` exists elsewhere.
        let a = "\
pub struct Cache;
impl Cache {
    // cosmos-lint: hot
    pub fn access(&mut self) { self.touch(); }
    fn touch(&mut self) {}
}
";
        let b =
            "pub struct Other;\nimpl Other { pub fn touch(&mut self) { boom(); } }\nfn boom() {}\n";
        let fas1 = fas(&[("crates/a/src/lib.rs", a), ("crates/b/src/lib.rs", b)]);
        let g1 = build(&fas1);
        assert_eq!(closures(&g1, &fas1)[0].reachable, vec!["Cache::touch"]);

        // No same-file candidate: the dot call fans out to every impl
        // (trait-dispatch over-approximation).
        let c = "\
// cosmos-lint: hot
pub fn drive(p: &mut dyn Policy) { p.pick(); }
pub trait Policy { fn pick(&mut self); }
";
        let d = "\
pub struct Lru;
impl Policy for Lru { fn pick(&mut self) {} }
pub struct Rand;
impl Policy for Rand { fn pick(&mut self) {} }
";
        let fas2 = fas(&[("crates/c/src/lib.rs", c), ("crates/d/src/lib.rs", d)]);
        let g2 = build(&fas2);
        assert_eq!(
            closures(&g2, &fas2)[0].reachable,
            vec!["Lru::pick", "Rand::pick"]
        );
    }

    #[test]
    fn path_and_self_calls_resolve_by_owner() {
        let a = "\
pub struct Cache;
impl Cache {
    // cosmos-lint: hot
    pub fn access(&mut self) { Self::probe(); Layout::offset(); }
    fn probe() {}
}
pub struct Layout;
impl Layout { pub fn offset() {} }
pub struct Decoy;
impl Decoy { pub fn offset() {} }
";
        let fas = fas(&[("crates/a/src/lib.rs", a)]);
        let g = build(&fas);
        assert_eq!(
            closures(&g, &fas)[0].reachable,
            vec!["Cache::probe", "Layout::offset"]
        );
    }

    #[test]
    fn std_names_are_sorted_for_binary_search() {
        assert!(STD_NAMES.windows(2).all(|w| w[0] < w[1]));
        assert!(is_std_name("len") && is_std_name("take") && !is_std_name("on_access"));
    }

    #[test]
    fn std_method_names_never_resolve_across_files() {
        let a = "\
// cosmos-lint: hot
pub fn access(q: &mut Q, v: &[u64]) { q.push(1); let _ = v.iter(); }
pub struct Q;
";
        let b = "\
pub struct Queue { inner: u64 }
impl Queue {
    pub fn push(&mut self, v: u64) { let _s = format!(\"{v}\"); }
    pub fn iter(&self) { let _x = Vec::<u64>::new(); }
}
";
        let fas = fas(&[("crates/a/src/lib.rs", a), ("crates/serve/src/q.rs", b)]);
        let g = build(&fas);
        assert!(
            closures(&g, &fas)[0].reachable.is_empty(),
            "`.push()`/`.iter()` must not bind to a workspace shadow of a std method"
        );
        assert!(check(&g, &fas).is_empty());
    }

    #[test]
    fn std_free_fn_names_never_resolve_via_module_paths() {
        let a = "\
// cosmos-lint: hot
pub fn access(x: &mut Option<u64>) { std::mem::take(x); }
";
        let b = "pub fn take(s: &str) -> String { s.to_string() }\n";
        let fas = fas(&[("crates/a/src/lib.rs", a), ("crates/b/src/cli.rs", b)]);
        let g = build(&fas);
        assert!(
            closures(&g, &fas)[0].reachable.is_empty(),
            "`std::mem::take` must not resolve to an unrelated workspace `take`"
        );
    }

    #[test]
    fn unique_inherent_method_resolves_ambiguous_does_not() {
        // `demand` is defined once workspace-wide: the cross-file dot call
        // binds to it even though no trait declares it.
        let a = "\
// cosmos-lint: hot
pub fn access(s: &mut Shadow) { s.demand(1); s.value(2); }
pub struct Shadow;
";
        let b = "\
pub struct ShadowCache;
impl ShadowCache {
    pub fn demand(&mut self, v: u64) { let _ = v; }
    pub fn value(&self, v: u64) -> u64 { v }
}
";
        let c = "\
pub struct Cycle;
impl Cycle { pub fn value(&self, v: u64) -> u64 { v } }
";
        let fas = fas(&[
            ("crates/a/src/lib.rs", a),
            ("crates/b/src/shadow.rs", b),
            ("crates/c/src/cycle.rs", c),
        ]);
        let g = build(&fas);
        assert_eq!(
            closures(&g, &fas)[0].reachable,
            vec!["ShadowCache::demand"],
            "unique inherent name binds; two-way ambiguous `value` gets no edge"
        );
    }

    #[test]
    fn h2_carries_witness_chain() {
        let a = "\
// cosmos-lint: hot
pub fn access() { mid(); }
fn mid() { leaf(); }
fn leaf() { let v = Vec::<u8>::with_capacity(4); drop(v); }
";
        let fas = fas(&[("crates/a/src/lib.rs", a)]);
        let g = build(&fas);
        let f = check(&g, &fas);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "H2");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].chain, vec!["access", "mid", "leaf"]);
    }

    #[test]
    fn h3_h4_fire_on_roots_too() {
        let a = "\
// cosmos-lint: hot
pub fn access(m: &std::sync::Mutex<u64>, o: Option<u64>) { let _g = m.lock(); o.unwrap(); }
";
        let fas = fas(&[("crates/a/src/lib.rs", a)]);
        let g = build(&fas);
        let rules: Vec<String> = check(&g, &fas).into_iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["H3", "H4"]);
    }

    #[test]
    fn cold_code_is_untouched() {
        let a = "\
pub fn cold() { let v = Vec::<u8>::new(); v.lock(); v.unwrap(); }
";
        let fas = fas(&[("crates/a/src/lib.rs", a)]);
        let g = build(&fas);
        assert!(check(&g, &fas).is_empty());
    }
}
