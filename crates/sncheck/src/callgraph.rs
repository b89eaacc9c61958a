//! Pass 1b of the v2 analyzer: the intra-workspace call graph.
//!
//! Call sites are extracted token-wise from every non-test `fn` body and
//! resolved *by name* against the symbol table — sncheck has no type
//! information, so resolution is a documented over/under-approximation
//! rather than a guess:
//!
//! * **Path calls** `Qualifier::name(` resolve to methods whose `impl`
//!   owner is `Qualifier`; failing that, to free fns named `name` whose
//!   crate or file stem matches `Qualifier` (covering `obs::time(..)` and
//!   `scratch::take(..)` style module calls). `Self::name(` resolves
//!   against the calling fn's own owner.
//! * **Method calls** `.name(` resolve to *every* workspace method named
//!   `name` — the sound over-approximation for trait objects and generic
//!   dispatch (a `Box<dyn ScoreBackend>` call reaches all impls). Two
//!   carve-outs, both recorded rather than silently dropped:
//!   names in [`STD_SHADOWED`] (workspace methods that share a name with
//!   ubiquitous std methods — `len`, `push`, …) are recorded as
//!   `std-shadowed` and **not traversed**, a documented false-negative
//!   class; names with no workspace method are recorded as `unresolved`.
//! * **Bare calls** `name(` resolve to free fns named `name`, preferring
//!   the same file, then the same crate, then all candidates (recorded as
//!   ambiguous). Keywords and macro invocations (`name!`) are skipped;
//!   tuple-struct constructors fall out as `unresolved`.
//!
//! Every call site therefore lands in exactly one bucket: resolved edges
//! (unique or ambiguous — ambiguous edges fan out to all candidates) or
//! the unresolved table. Nothing is dropped, and the dump serializes all
//! three so CI can diff the graph across commits.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::symbols::{FnSym, NON_CALL_KEYWORDS};

/// Workspace method names that shadow ubiquitous std methods: a `.len()`
/// in arbitrary code is overwhelmingly `slice::len`, not a workspace
/// method, so traversing these edges would drag near the whole workspace
/// into every cone. They are recorded as `std-shadowed` and skipped by
/// reachability — the documented false-negative class of the resolver.
pub const STD_SHADOWED: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "get",
    "insert",
    "contains",
    "extend",
    "clear",
    "iter",
    "next",
    "last",
    "fmt",
    "clone",
    "drop",
    "default",
    "from",
    "into",
    "eq",
    "cmp",
    "hash",
    "as_ref",
    "to_string",
    "take",
    "min",
    "max",
    "abs",
    "sqrt",
    "truncate",
    "split",
    "swap",
    "resize",
];

/// How a call site was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// Exactly one candidate.
    Unique,
    /// Several candidates; the edge fans out to all of them.
    Ambiguous,
}

/// One resolved edge. `caller`/`callee` index into the flat symbol list.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Calling fn (symbol index).
    pub caller: usize,
    /// Called fn (symbol index).
    pub callee: usize,
    /// 1-based line of the call site (diagnostic anchoring only; not part
    /// of any fingerprint).
    pub line: u32,
    /// Resolution class.
    pub resolution: Resolution,
}

/// One call site that produced no traversable edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnresolvedCall {
    /// Calling fn (symbol index).
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// `"unresolved"` (no candidate) or `"std-shadowed"` (candidates
    /// exist but the name is on [`STD_SHADOWED`]).
    pub class: &'static str,
}

/// The workspace call graph over a flat symbol list.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Resolved edges, sorted and deduplicated.
    pub edges: Vec<Edge>,
    /// Calls with no traversable edge, sorted and deduplicated.
    pub unresolved: Vec<UnresolvedCall>,
    /// Adjacency: `succ[f]` lists callee symbol indices of fn `f`.
    pub succ: Vec<Vec<usize>>,
}

/// Name-indexed views of the symbol table used during resolution.
struct Index<'a> {
    syms: &'a [FnSym],
    /// name -> indices of methods (owner.is_some()).
    methods: BTreeMap<&'a str, Vec<usize>>,
    /// name -> indices of free fns.
    free: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Index<'a> {
    fn build(syms: &'a [FnSym]) -> Index<'a> {
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (k, s) in syms.iter().enumerate() {
            if s.is_test {
                continue;
            }
            if s.owner.is_some() {
                methods.entry(&s.name).or_default().push(k);
            } else {
                free.entry(&s.name).or_default().push(k);
            }
        }
        Index {
            syms,
            methods,
            free,
        }
    }
}

/// File stem (`par` from `crates/ndtensor/src/par.rs`) for module-path
/// resolution.
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("")
}

/// Resolves one call site into candidate symbol indices, or an
/// unresolved class.
fn resolve(
    idx: &Index<'_>,
    caller: &FnSym,
    name: &str,
    qualifier: Option<&str>,
    is_method: bool,
) -> Result<Vec<usize>, &'static str> {
    if is_method {
        if STD_SHADOWED.contains(&name) {
            return Err("std-shadowed");
        }
        return match idx.methods.get(name) {
            Some(c) => Ok(c.clone()),
            None => Err("unresolved"),
        };
    }
    if let Some(q) = qualifier {
        let q = if q == "Self" {
            caller.owner.as_deref().unwrap_or(q)
        } else {
            q
        };
        // Methods of the named owner first.
        if let Some(cands) = idx.methods.get(name) {
            let owned: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&k| idx.syms[k].owner.as_deref() == Some(q))
                .collect();
            if !owned.is_empty() {
                return Ok(owned);
            }
        }
        // Module-path free fns: `obs::time`, `scratch::take`.
        if let Some(cands) = idx.free.get(name) {
            let moduled: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&k| idx.syms[k].krate == q || file_stem(&idx.syms[k].file) == q)
                .collect();
            if !moduled.is_empty() {
                return Ok(moduled);
            }
        }
        return Err("unresolved");
    }
    // Bare call: same file, then same crate, then anywhere.
    let Some(cands) = idx.free.get(name) else {
        return Err("unresolved");
    };
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&k| idx.syms[k].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return Ok(same_file);
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&k| idx.syms[k].krate == caller.krate)
        .collect();
    if !same_crate.is_empty() {
        return Ok(same_crate);
    }
    Ok(cands.clone())
}

/// Builds the call graph. `files` pairs each file's symbol-range in the
/// flat `syms` list with its token stream: `(first_sym, last_sym, tokens)`.
pub fn build(syms: &[FnSym], files: &[(usize, usize, &[Token])]) -> CallGraph {
    let idx = Index::build(syms);
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    let mut unresolved: BTreeSet<UnresolvedCall> = BTreeSet::new();

    for &(lo, hi, tokens) in files {
        for caller_id in lo..hi {
            let caller = &syms[caller_id];
            if caller.is_test {
                continue;
            }
            let (blo, bhi) = caller.body;
            // Body ranges of fn items nested inside this one (rare but
            // legal): their call sites belong to the nested symbol.
            let nested: Vec<(usize, usize)> = syms[lo..hi]
                .iter()
                .filter(|s| s.body.0 > blo && s.body.1 < bhi && s.body.0 < s.body.1)
                .map(|s| s.body)
                .collect();
            let mut i = blo;
            while i < bhi.min(tokens.len()) {
                if let Some(&(_, skip_to)) = nested.iter().find(|&&(nlo, nhi)| i >= nlo && i < nhi)
                {
                    i = skip_to;
                    continue;
                }
                let t = &tokens[i];
                let is_call = t.kind == TokenKind::Ident
                    && tokens.get(i + 1).is_some_and(|n| n.text == "(")
                    && !NON_CALL_KEYWORDS.contains(&t.text.as_str());
                if !is_call {
                    i += 1;
                    continue;
                }
                let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
                let is_method = prev == Some(".");
                let qualifier = if prev == Some("::") && i >= 2 {
                    Some(tokens[i - 2].text.as_str())
                } else {
                    None
                };
                match resolve(&idx, caller, &t.text, qualifier, is_method) {
                    Ok(cands) => {
                        let resolution = if cands.len() == 1 {
                            Resolution::Unique
                        } else {
                            Resolution::Ambiguous
                        };
                        for callee in cands {
                            edges.insert(Edge {
                                caller: caller_id,
                                callee,
                                line: t.line,
                                resolution,
                            });
                        }
                    }
                    Err(class) => {
                        unresolved.insert(UnresolvedCall {
                            caller: caller_id,
                            name: t.text.clone(),
                            class,
                        });
                    }
                }
                i += 1;
            }
        }
    }

    let mut succ = vec![Vec::new(); syms.len()];
    for e in &edges {
        succ[e.caller].push(e.callee);
    }
    for s in &mut succ {
        s.sort_unstable();
        s.dedup();
    }
    CallGraph {
        edges: edges.into_iter().collect(),
        unresolved: unresolved.into_iter().collect(),
        succ,
    }
}

impl CallGraph {
    /// Serializes the graph (symbols, edges, unresolved calls) as
    /// deterministic JSON — a pure function of the inputs, byte-identical
    /// across runs, uploaded by CI as the reachability audit artifact.
    pub fn dump_json(&self, syms: &[FnSym]) -> String {
        use crate::diag::json_string;
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"sncheck_graph_version\": 3,\n  \"symbols\": [");
        let mut first = true;
        for s in syms {
            if s.is_test {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"file\": {}, \"line\": {}, \"pub\": {}}}",
                json_string(&s.path()),
                json_string(&s.file),
                s.line,
                s.is_pub,
            ));
        }
        out.push_str("\n  ],\n  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"caller\": {}, \"callee\": {}, \"resolution\": {}}}",
                json_string(&syms[e.caller].path()),
                json_string(&syms[e.callee].path()),
                json_string(match e.resolution {
                    Resolution::Unique => "unique",
                    Resolution::Ambiguous => "ambiguous",
                }),
            ));
        }
        out.push_str("\n  ],\n  \"unresolved\": [");
        for (i, u) in self.unresolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"caller\": {}, \"name\": {}, \"class\": {}}}",
                json_string(&syms[u.caller].path()),
                json_string(&u.name),
                json_string(u.class),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::classify_crate;
    use crate::scope::test_scopes;
    use crate::symbols::file_symbols;

    /// Builds a one-or-more-file workspace graph for tests.
    fn graph(files: &[(&str, &str)]) -> (Vec<FnSym>, CallGraph, Vec<Vec<Token>>) {
        let mut syms = Vec::new();
        let mut toks: Vec<Vec<Token>> = Vec::new();
        let mut ranges = Vec::new();
        for (rel, src) in files {
            let lexed = lex(src);
            let scopes = test_scopes(&lexed.tokens);
            let krate = classify_crate(rel);
            let fs = file_symbols(rel, &krate, &lexed.tokens, &scopes);
            let lo = syms.len();
            syms.extend(fs.fns);
            ranges.push((lo, syms.len()));
            toks.push(lexed.tokens);
        }
        let file_views: Vec<(usize, usize, &[Token])> = ranges
            .iter()
            .zip(&toks)
            .map(|(&(lo, hi), t)| (lo, hi, t.as_slice()))
            .collect();
        let g = build(&syms, &file_views);
        (syms, g, toks)
    }

    fn edge_paths(syms: &[FnSym], g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (syms[e.caller].path(), syms[e.callee].path()))
            .collect()
    }

    #[test]
    fn bare_calls_resolve_within_file_then_crate() {
        let (syms, g, _) = graph(&[
            ("crates/a/src/l.rs", "fn top() { helper(); } fn helper() {}"),
            ("crates/b/src/l.rs", "fn helper() {}"),
        ]);
        assert_eq!(
            edge_paths(&syms, &g),
            [("a::top".to_string(), "a::helper".to_string())]
        );
    }

    #[test]
    fn method_calls_fan_out_to_all_impls() {
        let (syms, g, _) = graph(&[(
            "crates/a/src/l.rs",
            "trait T { fn go(&self); }\n\
             struct X; impl T for X { fn go(&self) { x_work(); } }\n\
             struct Y; impl T for Y { fn go(&self) { y_work(); } }\n\
             fn x_work() {} fn y_work() {}\n\
             fn driver(t: &dyn T) { t.go(); }",
        )]);
        let paths = edge_paths(&syms, &g);
        assert!(paths.contains(&("a::driver".into(), "a::X::go".into())));
        assert!(paths.contains(&("a::driver".into(), "a::Y::go".into())));
        assert!(g
            .edges
            .iter()
            .filter(|e| syms[e.caller].name == "driver")
            .all(|e| e.resolution == Resolution::Ambiguous));
    }

    #[test]
    fn path_calls_resolve_by_owner_and_module() {
        let (syms, g, _) = graph(&[
            (
                "crates/a/src/l.rs",
                "struct S; impl S { fn make() {} }\n\
                 fn top() { S::make(); scratch::take(); }",
            ),
            ("crates/nd/src/scratch.rs", "pub fn take() {}"),
        ]);
        let paths = edge_paths(&syms, &g);
        assert!(paths.contains(&("a::top".into(), "a::S::make".into())));
        assert!(paths.contains(&("a::top".into(), "nd::take".into())));
    }

    #[test]
    fn self_calls_resolve_to_own_impl() {
        let (syms, g, _) = graph(&[(
            "crates/a/src/l.rs",
            "struct S; impl S { fn a() { Self::b(); } fn b() {} }\n\
             struct Q; impl Q { fn b() {} }",
        )]);
        let paths = edge_paths(&syms, &g);
        assert!(paths.contains(&("a::S::a".into(), "a::S::b".into())));
        assert!(!paths.contains(&("a::S::a".into(), "a::Q::b".into())));
    }

    #[test]
    fn std_shadowed_and_unknown_names_are_recorded_not_dropped() {
        let (syms, g, _) = graph(&[(
            "crates/a/src/l.rs",
            "struct S; impl S { fn len(&self) -> usize { 0 } }\n\
             fn top(v: &[u8]) { v.len(); v.unknown_method(); std::mem::take(&mut 0); }",
        )]);
        assert!(g.edges.iter().all(|e| syms[e.caller].name != "top"));
        let classes: Vec<(&str, &str)> = g
            .unresolved
            .iter()
            .map(|u| (u.name.as_str(), u.class))
            .collect();
        assert!(classes.contains(&("len", "std-shadowed")));
        assert!(classes.contains(&("unknown_method", "unresolved")));
        assert!(classes.contains(&("take", "unresolved")));
    }

    #[test]
    fn test_fns_contribute_no_edges_or_symbol_targets() {
        let (syms, g, _) = graph(&[(
            "crates/a/src/l.rs",
            "fn lib() {}\n\
             #[cfg(test)] mod tests { fn t() { lib(); } fn lib2() {} }\n\
             fn caller() { lib2(); }",
        )]);
        // The test fn's call is skipped, and `lib2` (test-only) is not a
        // resolution target.
        assert!(g.edges.is_empty());
        assert!(g
            .unresolved
            .iter()
            .any(|u| u.name == "lib2" && u.class == "unresolved"));
        let _ = syms;
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, g, _) = graph(&[(
            "crates/a/src/l.rs",
            "fn helper() {} fn top() { if (true) {} helper!(); return (3); }",
        )]);
        assert!(g.edges.is_empty());
        assert!(g.unresolved.is_empty());
    }

    #[test]
    fn dump_is_deterministic() {
        let files = [(
            "crates/a/src/l.rs",
            "fn a() { b(); c(); } fn b() { c(); } fn c() {}",
        )];
        let (syms1, g1, _) = graph(&files);
        let (syms2, g2, _) = graph(&files);
        assert_eq!(g1.dump_json(&syms1), g2.dump_json(&syms2));
        assert!(g1.dump_json(&syms1).contains("\"edges\""));
    }
}
