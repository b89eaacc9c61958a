//! Pass 2 of the v2 analyzer: reachability rules over the call graph.
//!
//! The per-line rules in [`crate::rules`] see one line at a time, so a
//! panic, allocation or ambient clock two calls below `score_batch` is
//! invisible to them. This pass computes the *hot cone* — every fn
//! reachable from the hot-path roots — and scans each fn in it exactly
//! once, anchoring findings at the offending token with the root→fn call
//! chain in the message.
//!
//! ## Roots
//!
//! | root | why |
//! |------|-----|
//! | `score_batch` / `score_batch_recorded` | the batch scoring entry the paper's numbers come from |
//! | `classify_each` | the per-frame verdict entry the stream runtime drives |
//! | `StreamServer::offer` / `step` / `step_recorded` | the multi-tenant serve round (admission + resolve) |
//! | any fn marked `// sncheck:hot-root` | opt-in roots — bench timing loops join the contract |
//!
//! ## Rules
//!
//! * `hot-path-transitive-alloc` — `vec!` / `Vec::with_capacity` /
//!   `.to_vec()` anywhere in the cone (generalizes the per-line
//!   `no-hot-alloc` module list).
//! * `hot-path-transitive-panic` — `unwrap` / `expect` / panic-family
//!   macros anywhere in the cone, *including* bins and bench code the
//!   per-line rule exempts. Slice indexing is a documented false-negative
//!   class (see DESIGN.md §6): the packed kernels are index-dense and a
//!   lexical linter cannot see bounds proofs.
//! * `hot-path-transitive-clock` — raw `Instant::now` / `SystemTime` in
//!   the cone. `crates/obs` is exempt: `obs::Stopwatch` is the sanctioned
//!   clock surface and reads nothing when recording is disabled.
//! * `recorded-parity-drift` — the plain wrapper of every public
//!   `*_recorded` fn must be a *pure forward*: it calls the recorded
//!   variant exactly once and contains no other statements, branches or
//!   assignments (existence of the wrapper is the per-line
//!   `recorded-parity` rule; this one catches the wrapper growing logic).
//! * `lock-order` — mutex acquisition order. Each fn's acquisitions
//!   (`<field>.lock()`) are collected; a lock acquired in a fn is
//!   conservatively treated as held across every call the fn makes, so
//!   ordered pairs propagate through the cone. Any unordered pair seen in
//!   both orders is flagged at both witnesses. Self-pairs are skipped
//!   (guard scopes are invisible lexically; a re-acquire is almost always
//!   a dropped guard, a documented false-negative class).
//! * `no-float-promotion` — `as f32` / `as f64` inside fns marked
//!   `// sncheck:int-hot` (the ROADMAP item 2 integer-GEMM guard; not a
//!   reachability rule, but it needs the symbol table so it lives here).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{Token, TokenKind};
use crate::symbols::FnSym;

/// Built-in hot-path roots: `(fn name, required impl owner)`. `None`
/// matches any owner, so trait impls and inherent methods both qualify.
pub const HOT_ROOTS: &[(&str, Option<&str>)] = &[
    ("score_batch", None),
    ("score_batch_recorded", None),
    ("classify_each", None),
    ("offer", Some("StreamServer")),
    ("step", Some("StreamServer")),
    ("step_recorded", Some("StreamServer")),
];

/// Everything pass 2 needs: the flat symbol list, the graph over it, and
/// each file's token stream addressed by the symbols' file index ranges.
pub struct ReachInput<'a> {
    /// Flat symbol table.
    pub syms: &'a [FnSym],
    /// Call graph over `syms`.
    pub graph: &'a CallGraph,
    /// Per-file `(first_sym, last_sym, tokens)` views, matching the
    /// ranges used to build the graph.
    pub files: &'a [(usize, usize, &'a [Token])],
}

impl std::fmt::Debug for ReachInput<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachInput")
            .field("syms", &self.syms.len())
            .field("files", &self.files.len())
            .finish()
    }
}

/// Root symbol indices: built-in table matches plus `sncheck:hot-root`
/// markers, in symbol order.
pub fn roots(syms: &[FnSym]) -> Vec<usize> {
    syms.iter()
        .enumerate()
        .filter(|(_, s)| !s.is_test)
        .filter(|(_, s)| {
            s.hot_root
                || HOT_ROOTS.iter().any(|&(name, owner)| {
                    s.name == name && owner.is_none_or(|o| s.owner.as_deref() == Some(o))
                })
        })
        .map(|(k, _)| k)
        .collect()
}

/// BFS over the traversable edges. Returns, for every symbol, the parent
/// on one shortest path from a root (`usize::MAX` for roots themselves),
/// keyed only for reachable symbols. Deterministic: roots in symbol
/// order, adjacency pre-sorted.
pub fn reachable(graph: &CallGraph, root_ids: &[usize]) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in root_ids {
        if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
            e.insert(usize::MAX);
            queue.push_back(r);
        }
    }
    while let Some(f) = queue.pop_front() {
        for &g in &graph.succ[f] {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(g) {
                e.insert(f);
                queue.push_back(g);
            }
        }
    }
    parent
}

/// Renders the root→fn chain for a reachable symbol, eliding long
/// middles: `a::root → b::mid → … → c::leaf`.
fn chain(syms: &[FnSym], parent: &BTreeMap<usize, usize>, mut k: usize) -> String {
    let mut hops = vec![syms[k].path()];
    while let Some(&p) = parent.get(&k) {
        if p == usize::MAX {
            break;
        }
        hops.push(syms[p].path());
        k = p;
    }
    hops.reverse();
    if hops.len() > 4 {
        format!(
            "{} → {} → … → {}",
            hops[0],
            hops[1],
            hops.last().expect("non-empty")
        )
    } else {
        hops.join(" → ")
    }
}

/// Tokens of one fn body, with the nested-fn ranges excluded.
fn body_indices<'a>(
    sym: &FnSym,
    file_syms: &'a [FnSym],
    limit: usize,
) -> impl Iterator<Item = usize> + 'a {
    let (blo, bhi) = sym.body;
    let nested: Vec<(usize, usize)> = file_syms
        .iter()
        .filter(|s| s.body.0 > blo && s.body.1 < bhi && s.body.0 < s.body.1)
        .map(|s| s.body)
        .collect();
    (blo..bhi.min(limit)).filter(move |&i| !nested.iter().any(|&(lo, hi)| i >= lo && i < hi))
}

/// Emits one cone diagnostic anchored at token `i`.
fn cone_diag(
    sym: &FnSym,
    tokens: &[Token],
    i: usize,
    rule: &'static str,
    token: &str,
    what: &str,
    via: &str,
) -> Diagnostic {
    let t = &tokens[i];
    let mut d = Diagnostic::new(
        sym.file.clone(),
        t.line,
        t.col,
        rule,
        Severity::Deny,
        format!("{what} is reachable from a hot root via `{via}`"),
    );
    d.token = token.to_string();
    d.fn_path = sym.path();
    d
}

/// Runs every reachability rule. Returned diagnostics are unsorted and
/// unsuppressed — the engine merges, suppresses and fingerprints them.
pub fn run(input: &ReachInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let root_ids = roots(input.syms);
    let parent = reachable(input.graph, &root_ids);

    for &(lo, hi, tokens) in input.files {
        let file_syms = &input.syms[lo..hi];
        for (off, sym) in file_syms.iter().enumerate() {
            let id = lo + off;
            if sym.is_test {
                continue;
            }
            if parent.contains_key(&id) {
                let via = chain(input.syms, &parent, id);
                cone_rules(sym, file_syms, tokens, &via, &mut out);
            }
            if sym.int_hot {
                float_promotion(sym, file_syms, tokens, &mut out);
            }
        }
    }

    recorded_parity_drift(input, &mut out);
    lock_order(input, &parent, &mut out);
    out
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The three transitive token scans (alloc, panic, clock) over one
/// reachable fn body.
fn cone_rules(
    sym: &FnSym,
    file_syms: &[FnSym],
    tokens: &[Token],
    via: &str,
    out: &mut Vec<Diagnostic>,
) {
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
    for i in body_indices(sym, file_syms, tokens.len()) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();

        // hot-path-transitive-alloc
        let alloc = match name {
            "vec" if text(i + 1) == "!" => Some("vec!"),
            "Vec" if text(i + 1) == "::" && text(i + 2) == "with_capacity" => {
                Some("Vec::with_capacity")
            }
            "to_vec" if i > 0 && text(i - 1) == "." && text(i + 1) == "(" => Some(".to_vec()"),
            _ => None,
        };
        if let Some(what) = alloc {
            out.push(cone_diag(
                sym,
                tokens,
                i,
                "hot-path-transitive-alloc",
                what,
                &format!("`{what}` allocates in `{}`, which", sym.path()),
                via,
            ));
        }

        // hot-path-transitive-panic
        if PANIC_METHODS.contains(&name) && i > 0 && text(i - 1) == "." && text(i + 1) == "(" {
            out.push(cone_diag(
                sym,
                tokens,
                i,
                "hot-path-transitive-panic",
                name,
                &format!("`.{name}()` can panic in `{}`, which", sym.path()),
                via,
            ));
        } else if PANIC_MACROS.contains(&name) && text(i + 1) == "!" {
            out.push(cone_diag(
                sym,
                tokens,
                i,
                "hot-path-transitive-panic",
                name,
                &format!("`{name}!` aborts in `{}`, which", sym.path()),
                via,
            ));
        }

        // hot-path-transitive-clock (obs is the sanctioned clock surface)
        if sym.krate != "obs" {
            if name == "Instant" && text(i + 1) == "::" && text(i + 2) == "now" {
                out.push(cone_diag(
                    sym,
                    tokens,
                    i,
                    "hot-path-transitive-clock",
                    "Instant::now",
                    &format!("raw `Instant::now` in `{}`, which", sym.path()),
                    via,
                ));
            } else if name == "SystemTime" {
                out.push(cone_diag(
                    sym,
                    tokens,
                    i,
                    "hot-path-transitive-clock",
                    "SystemTime",
                    &format!("`SystemTime` in `{}`, which", sym.path()),
                    via,
                ));
            }
        }
    }
}

/// `no-float-promotion` over one `sncheck:int-hot` fn.
fn float_promotion(sym: &FnSym, file_syms: &[FnSym], tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
    for i in body_indices(sym, file_syms, tokens.len()) {
        if text(i) == "as" && (text(i + 1) == "f32" || text(i + 1) == "f64") {
            let t = &tokens[i];
            let cast = format!("as {}", text(i + 1));
            let mut d = Diagnostic::new(
                sym.file.clone(),
                t.line,
                t.col,
                "no-float-promotion",
                Severity::Deny,
                format!(
                    "`{cast}` promotes to float inside `{}`, an `sncheck:int-hot` integer \
                     hot loop; keep the quantized path integral (or move the conversion out \
                     of the marked fn)",
                    sym.path()
                ),
            );
            d.token = cast;
            d.fn_path = sym.path();
            out.push(d);
        }
    }
}

/// `recorded-parity-drift`: every public `*_recorded` fn with a plain
/// sibling requires the sibling to be a pure forward.
fn recorded_parity_drift(input: &ReachInput<'_>, out: &mut Vec<Diagnostic>) {
    for &(lo, hi, tokens) in input.files {
        let file_syms = &input.syms[lo..hi];
        for rec in file_syms.iter().filter(|s| !s.is_test && s.is_pub) {
            let Some(base) = rec.name.strip_suffix("_recorded") else {
                continue;
            };
            if base.is_empty() {
                continue;
            }
            let Some(plain) = file_syms
                .iter()
                .find(|s| !s.is_test && s.name == base && s.owner == rec.owner)
            else {
                continue; // absence is the per-line recorded-parity rule
            };
            if plain.body.0 >= plain.body.1 {
                continue; // bodyless trait declaration
            }
            let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
            let mut forwards = 0usize;
            let mut impurity: Option<String> = None;
            let mut semis = 0usize;
            for i in body_indices(plain, file_syms, tokens.len()) {
                let t = &tokens[i];
                if t.kind == TokenKind::Ident && t.text == rec.name && text(i + 1) == "(" {
                    forwards += 1;
                    continue;
                }
                match t.text.as_str() {
                    "if" | "match" | "while" | "loop" | "for" | "let" => {
                        impurity.get_or_insert_with(|| format!("`{}`", t.text));
                    }
                    "=" => {
                        impurity.get_or_insert_with(|| "an assignment".to_string());
                    }
                    ";" => semis += 1,
                    _ => {}
                }
            }
            if semis > 1 {
                impurity.get_or_insert_with(|| "multiple statements".to_string());
            }
            let problem = if forwards == 0 {
                Some(format!("never calls `{}`", rec.name))
            } else if forwards > 1 {
                Some(format!("calls `{}` more than once", rec.name))
            } else {
                impurity.map(|w| format!("contains {w} around the forward"))
            };
            if let Some(problem) = problem {
                let mut d = Diagnostic::new(
                    plain.file.clone(),
                    plain.line,
                    1,
                    "recorded-parity-drift",
                    Severity::Deny,
                    format!(
                        "`{}` must be a pure forward to `{}` so the recorded/plain pair \
                         cannot drift, but it {problem}",
                        plain.path(),
                        rec.name
                    ),
                );
                d.token = plain.name.clone();
                d.fn_path = plain.path();
                out.push(d);
            }
        }
    }
}

/// One mutex acquisition: the field-name key and its anchor.
#[derive(Debug, Clone)]
struct Acquire {
    key: String,
    line: u32,
    col: u32,
}

/// `lock-order` over the whole graph (not just the hot cone: a lock
/// inversion between any two reachable paths can deadlock the server).
fn lock_order(input: &ReachInput<'_>, _parent: &BTreeMap<usize, usize>, out: &mut Vec<Diagnostic>) {
    let n = input.syms.len();
    // Own acquisitions per fn, in body order.
    let mut own: Vec<Vec<Acquire>> = vec![Vec::new(); n];
    for &(lo, hi, tokens) in input.files {
        let file_syms = &input.syms[lo..hi];
        for (off, sym) in file_syms.iter().enumerate() {
            if sym.is_test {
                continue;
            }
            let text = |i: usize| tokens.get(i).map_or("", |t| t.text.as_str());
            for i in body_indices(sym, file_syms, tokens.len()) {
                if text(i) == "lock" && i > 0 && text(i - 1) == "." && text(i + 1) == "(" {
                    let key = if i >= 2 && tokens[i - 2].kind == TokenKind::Ident {
                        tokens[i - 2].text.clone()
                    } else {
                        "<expr>".to_string()
                    };
                    own[lo + off].push(Acquire {
                        key,
                        line: tokens[i].line,
                        col: tokens[i].col,
                    });
                }
            }
        }
    }

    // cone_locks: fixpoint of lock keys acquired in a fn or its callees.
    let mut cone: Vec<BTreeSet<String>> = own
        .iter()
        .map(|a| a.iter().map(|x| x.key.clone()).collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for f in 0..n {
            for &g in &input.graph.succ[f] {
                if g == f {
                    continue;
                }
                let add: Vec<String> = cone[g].difference(&cone[f]).cloned().collect();
                if !add.is_empty() {
                    cone[f].extend(add);
                    changed = true;
                }
            }
        }
    }

    // Ordered pairs with one deterministic witness each: first-seen in
    // symbol order, anchored at the *second* acquisition of the pair.
    let mut pairs: BTreeMap<(String, String), (String, u32, u32, String)> = BTreeMap::new();
    for (f, sym) in input.syms.iter().enumerate() {
        if sym.is_test {
            continue;
        }
        // Own sequential pairs.
        for (a_ix, a) in own[f].iter().enumerate() {
            for b in own[f].iter().skip(a_ix + 1) {
                if a.key != b.key {
                    pairs
                        .entry((a.key.clone(), b.key.clone()))
                        .or_insert_with(|| (sym.file.clone(), b.line, b.col, sym.path()));
                }
            }
            // Held-across-call pairs: anything the callees' cones acquire.
            for &g in &input.graph.succ[f] {
                for m in &cone[g] {
                    if *m != a.key {
                        pairs
                            .entry((a.key.clone(), m.clone()))
                            .or_insert_with(|| (sym.file.clone(), a.line, a.col, sym.path()));
                    }
                }
            }
        }
    }

    for ((a, b), (file, line, col, fn_path)) in &pairs {
        if a >= b {
            continue; // report each unordered pair once, from the a<b side
        }
        if let Some((rfile, rline, rcol, rfn)) = pairs.get(&(b.clone(), a.clone())) {
            let mut d = Diagnostic::new(
                file.clone(),
                *line,
                *col,
                "lock-order",
                Severity::Deny,
                format!(
                    "mutexes `{a}` then `{b}` are acquired in this order here (in `{fn_path}`) \
                     but in the opposite order at {rfile}:{rline}:{rcol} (in `{rfn}`); pick one \
                     global order or merge the critical sections"
                ),
            );
            d.token = format!("{a}<{b}");
            d.fn_path = fn_path.clone();
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use crate::lexer::lex;
    use crate::rules::classify_crate;
    use crate::scope::test_scopes;
    use crate::symbols::file_symbols;

    fn analyze(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut syms = Vec::new();
        let mut toks = Vec::new();
        let mut ranges = Vec::new();
        for (rel, src) in files {
            let lexed = lex(src);
            let scopes = test_scopes(&lexed.tokens);
            let krate = classify_crate(rel);
            let fs = file_symbols(rel, &krate, &lexed.tokens, &scopes, &lexed.comments);
            let lo = syms.len();
            syms.extend(fs.fns);
            ranges.push((lo, syms.len()));
            toks.push(lexed.tokens);
        }
        let views: Vec<(usize, usize, &[Token])> = ranges
            .iter()
            .zip(&toks)
            .map(|(&(lo, hi), t)| (lo, hi, t.as_slice()))
            .collect();
        let graph = callgraph::build(&syms, &views);
        run(&ReachInput {
            syms: &syms,
            graph: &graph,
            files: &views,
        })
    }

    #[test]
    fn panic_two_calls_below_a_root_is_caught() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "pub fn score_batch() { middle(); }\n\
             fn middle() { deep(); }\n\
             fn deep() { panic!(\"boom\"); }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "hot-path-transitive-panic");
        assert_eq!(diags[0].fn_path, "novelty::deep");
        assert!(diags[0].message.contains("novelty::score_batch"));
    }

    #[test]
    fn unreachable_fns_are_not_scanned() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "pub fn score_batch() {}\nfn cold() { x.unwrap(); }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn hot_root_marker_adds_a_root() {
        let diags = analyze(&[(
            "crates/bench/src/bin/b.rs",
            "// sncheck:hot-root\nfn timing_loop() { helper(); }\n\
             fn helper() { let v = vec![0u8; 4]; }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "hot-path-transitive-alloc");
    }

    #[test]
    fn clock_in_cone_is_flagged_except_in_obs() {
        let diags = analyze(&[
            (
                "crates/novelty/src/p.rs",
                "pub fn classify_each() { tick(); obs_tick(); }\n\
                 fn tick() { let t = Instant::now(); }",
            ),
            (
                "crates/obs/src/s.rs",
                "pub fn obs_tick() { let t = Instant::now(); }",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "hot-path-transitive-clock");
        assert_eq!(diags[0].fn_path, "novelty::tick");
    }

    #[test]
    fn diamond_reaches_the_shared_leaf_once() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "pub fn score_batch() { left(); right(); }\n\
             fn left() { shared(); }\n\
             fn right() { shared(); }\n\
             fn shared() { x.unwrap(); }",
        )]);
        // One finding for the one token, not one per path.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].fn_path, "novelty::shared");
    }

    #[test]
    fn drift_fires_when_the_wrapper_grows_logic() {
        let diags = analyze(&[(
            "crates/obs/src/p.rs",
            "pub fn go(x: u8) -> u8 { let y = go_recorded(x); y }\n\
             pub fn go_recorded(x: u8) -> u8 { x }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "recorded-parity-drift");
        assert!(diags[0].message.contains("`let`"), "{}", diags[0].message);
    }

    #[test]
    fn pure_forward_passes() {
        let diags = analyze(&[(
            "crates/obs/src/p.rs",
            "pub fn go(x: u8) -> u8 { go_recorded(x, noop()) }\n\
             pub fn go_recorded(x: u8, n: u8) -> u8 { x + n }\n\
             fn noop() -> u8 { 0 }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn drift_fires_when_the_wrapper_reimplements() {
        let diags = analyze(&[(
            "crates/obs/src/p.rs",
            "pub fn go(x: u8) -> u8 { x }\n\
             pub fn go_recorded(x: u8) -> u8 { x }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("never calls"));
    }

    #[test]
    fn lock_inversion_is_flagged_once_with_both_witnesses() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "fn ab(&self) { self.alpha.lock(); self.beta.lock(); }\n\
             fn ba(&self) { self.beta.lock(); self.alpha.lock(); }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lock-order");
        assert_eq!(diags[0].token, "alpha<beta");
        assert!(diags[0].message.contains("opposite order"));
    }

    #[test]
    fn lock_order_propagates_through_calls() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "fn outer(&self) { self.alpha.lock(); inner_b(); }\n\
             fn inner_b() { GLOBAL.beta.lock(); }\n\
             fn other(&self) { self.beta.lock(); inner_a(); }\n\
             fn inner_a() { GLOBAL.alpha.lock(); }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lock-order");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let diags = analyze(&[(
            "crates/novelty/src/p.rs",
            "fn ab(&self) { self.alpha.lock(); self.beta.lock(); }\n\
             fn ab2(&self) { self.alpha.lock(); self.beta.lock(); }",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn float_promotion_fires_only_in_int_hot_fns() {
        let diags = analyze(&[(
            "crates/ndtensor/src/q.rs",
            "// sncheck:int-hot\nfn qgemm(x: i32) -> f32 { x as f32 }\n\
             fn plain(x: i32) -> f32 { x as f32 }",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-float-promotion");
        assert_eq!(diags[0].token, "as f32");
        assert_eq!(diags[0].fn_path, "ndtensor::qgemm");
    }
}
