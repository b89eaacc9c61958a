//! Ties the two analysis passes together over real files, and implements
//! the `sncheck:allow` suppression protocol.
//!
//! Pass 1 runs the per-line [`crate::rules`] on each file and builds the
//! workspace [`crate::symbols`] table plus the [`crate::callgraph`] over
//! library, binary and bench sources. Pass 2 runs the
//! [`crate::reach`]ability rules over the graph. Both passes' findings go
//! through the same suppression filter and then a fingerprint pass that
//! gives every diagnostic its stable `rule|fn_path|token|ordinal`
//! identity — the key `--diff` baselines use.
//!
//! A suppression is a comment containing the `sncheck:allow` marker with
//! a parenthesised rule list, optionally followed by `: reason` — see
//! the CLI usage text for the exact shape. A trailing comment silences
//! exactly those rules on its own line; a comment on a line of its own
//! (no code before it) silences them on the next line of code instead,
//! so rustfmt moving a comment off a `{` line does not void it.
//! Suppressions are themselves linted: naming an unknown rule or
//! suppressing nothing produces a `warn` diagnostic, so stale allows
//! cannot accumulate.
//!
//! The core entry point is [`check_sources`], which is pure over
//! `(path, text)` pairs — the determinism tests exploit this to prove
//! the report and graph dump are byte-identical regardless of the order
//! the walker yields files in. [`check_files`] is the thin fs wrapper.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{self, CallGraph};
use crate::diag::{fnv1a64, Diagnostic, FileDigest, Report, Severity};
use crate::lexer::{lex, Comment, Token};
use crate::reach::{self, ReachInput};
use crate::rules::{classify, classify_crate, is_known_rule, run_rules, FileCtx, FileKind};
use crate::scope::test_scopes;
use crate::symbols::{file_symbols, FnSym};

/// Directory names never descended into during workspace discovery.
/// `fixtures` holds deliberately-bad snippets for the self-test;
/// `perfbench` is the benchmark harness, a package of its own outside
/// the workspace that reads the wall clock and prints by design.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "perfbench"];

/// Everything one analysis run produces: the report plus the canonical
/// call-graph dump (`--graph` writes it; CI byte-compares it).
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Sorted, suppressed, fingerprinted findings with per-file digests.
    pub report: Report,
    /// Deterministic JSON dump of the workspace call graph.
    pub graph_json: String,
}

/// One parsed `sncheck:allow` entry. `line` is the line of code the
/// suppression targets; `comment_line` is where the comment itself
/// starts (they differ for the own-line form) and anchors hygiene
/// diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Suppression {
    line: u32,
    comment_line: u32,
    rule: String,
}

/// Extracts suppressions from a file's comments. Unknown rule names are
/// reported immediately as `unknown-rule` warnings.
///
/// `token_lines` is the sorted, deduplicated set of lines containing
/// code; it decides whether a comment is trailing (targets its own line)
/// or own-line (targets the next line of code).
fn parse_suppressions(
    rel: &str,
    comments: &[Comment],
    token_lines: &[u32],
    out_diags: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut sups = Vec::new();
    for c in comments {
        let Some(start) = c.text.find("sncheck:allow(") else {
            continue;
        };
        let after = &c.text[start + "sncheck:allow(".len()..];
        let Some(end) = after.find(')') else {
            out_diags.push(Diagnostic::new(
                rel,
                c.line,
                1,
                "unknown-rule",
                Severity::Warn,
                "malformed `sncheck:allow(...)`: missing closing parenthesis",
            ));
            continue;
        };
        // A trailing comment shares its line with code; an own-line
        // comment targets the next line that has any.
        let target = if token_lines.binary_search(&c.line).is_ok() {
            c.line
        } else {
            let next = token_lines.partition_point(|&l| l <= c.line);
            token_lines.get(next).copied().unwrap_or(c.line)
        };
        for name in after[..end].split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            if is_known_rule(name) {
                sups.push(Suppression {
                    line: target,
                    comment_line: c.line,
                    rule: name.to_string(),
                });
            } else {
                out_diags.push(Diagnostic::new(
                    rel,
                    c.line,
                    1,
                    "unknown-rule",
                    Severity::Warn,
                    format!(
                        "`sncheck:allow({name})` names no known rule; see `sncheck --list-rules`"
                    ),
                ));
            }
        }
    }
    sups
}

/// Per-file intermediate state threaded between the passes.
struct FileState {
    rel: String,
    digest: String,
    tokens: Vec<Token>,
    line_is_test: Vec<bool>,
    token_lines: Vec<u32>,
    comments: Vec<Comment>,
    raw: Vec<Diagnostic>,
    /// `(first, last)` range of this file's symbols in the flat table,
    /// or `None` for files outside the graph scope.
    sym_range: Option<(usize, usize)>,
    krate: String,
}

/// Whether a file contributes symbols to the call graph. Tests,
/// examples and fixtures stay out: their fns would pollute name
/// resolution and nothing hot can live there.
fn graph_scope(kind: &FileKind) -> bool {
    matches!(
        kind,
        FileKind::Lib { .. } | FileKind::Bin | FileKind::Benches
    )
}

/// Checks a set of `(workspace-relative path, source text)` pairs — the
/// whole pipeline, pure over its input. Duplicate paths keep the last
/// text. Input order is irrelevant: files are re-sorted by path, and
/// every downstream structure is ordered, so report and graph bytes are
/// a function of the file *contents* only.
pub fn check_sources(sources: &[(String, String)]) -> Analysis {
    let ordered: BTreeMap<&str, &str> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.as_str()))
        .collect();

    // Pass 1: lex, per-line rules, suppressions, symbols.
    let mut states: Vec<FileState> = Vec::with_capacity(ordered.len());
    let mut syms: Vec<FnSym> = Vec::new();
    for (rel, text) in &ordered {
        let lexed = lex(text);
        let scopes = test_scopes(&lexed.tokens);
        let kind = classify(rel);
        let krate = classify_crate(rel);
        let ctx = FileCtx {
            rel,
            kind: &kind,
            tokens: &lexed.tokens,
            scopes: &scopes,
        };
        let raw = run_rules(&ctx);
        let mut token_lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        token_lines.dedup();
        let max_line = lexed.tokens.last().map_or(0, |t| t.line);
        let line_is_test = (0..=max_line).map(|l| scopes.line_is_test(l)).collect();
        let sym_range = if graph_scope(&kind) {
            let fs = file_symbols(rel, &krate, &lexed.tokens, &scopes, &lexed.comments);
            let lo = syms.len();
            syms.extend(fs.fns);
            Some((lo, syms.len()))
        } else {
            None
        };
        states.push(FileState {
            rel: rel.to_string(),
            digest: format!("{:016x}", fnv1a64(text.as_bytes())),
            tokens: lexed.tokens,
            line_is_test,
            token_lines,
            comments: lexed.comments,
            raw,
            sym_range,
            krate,
        });
    }

    // Pass 2: call graph and reachability rules.
    let views: Vec<(usize, usize, &[Token])> = states
        .iter()
        .filter_map(|s| s.sym_range.map(|(lo, hi)| (lo, hi, s.tokens.as_slice())))
        .collect();
    let graph: CallGraph = callgraph::build(&syms, &views);
    let graph_diags = reach::run(&ReachInput {
        syms: &syms,
        graph: &graph,
        files: &views,
    });
    // Route graph findings back to their file's diagnostic stream so one
    // suppression mechanism covers both passes.
    let mut by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in graph_diags {
        by_file.entry(d.path.clone()).or_default().push(d);
    }

    // Suppression + hygiene per file, then collect.
    let mut report = Report::default();
    for st in &mut states {
        let mut raw = std::mem::take(&mut st.raw);
        if let Some(extra) = by_file.remove(st.rel.as_str()) {
            raw.extend(extra);
        }
        let mut diags = Vec::new();
        let suppressions = parse_suppressions(&st.rel, &st.comments, &st.token_lines, &mut diags);
        let mut used = vec![false; suppressions.len()];
        for d in raw {
            let hit = suppressions
                .iter()
                .position(|s| s.line == d.line && s.rule == d.rule);
            match hit {
                Some(k) => used[k] = true,
                None => diags.push(d),
            }
        }
        for (k, s) in suppressions.iter().enumerate() {
            // A suppression may cover several diagnostics of the same rule
            // on its line; one hit marks it used. Suppressions inside test
            // regions are ignored rather than flagged — rules are off
            // there.
            let in_test = st
                .line_is_test
                .get(s.line as usize)
                .copied()
                .unwrap_or(false);
            if !used[k] && !in_test {
                diags.push(Diagnostic::new(
                    st.rel.clone(),
                    s.comment_line,
                    1,
                    "unused-suppression",
                    Severity::Warn,
                    format!(
                        "`sncheck:allow({})` suppresses nothing on line {}; remove it",
                        s.rule, s.line
                    ),
                ));
            }
        }
        // Fill fn paths from the symbol table for diagnostics the rules
        // anchored without one (all per-line findings).
        for d in &mut diags {
            if d.fn_path.is_empty() {
                d.fn_path = enclosing_fn(&syms, st, d.line);
            }
        }
        report.files_checked += 1;
        report.files.push(FileDigest {
            path: st.rel.clone(),
            digest: st.digest.clone(),
            diagnostics: diags.len(),
        });
        report.diagnostics.append(&mut diags);
    }

    report.sort();
    fingerprint(&mut report.diagnostics);
    Analysis {
        report,
        graph_json: graph.dump_json(&syms),
    }
}

/// Qualified path of the innermost fn whose line span contains `line`,
/// or `crate::<file-scope>` for file-level findings (use statements,
/// consts, impl headers).
fn enclosing_fn(syms: &[FnSym], st: &FileState, line: u32) -> String {
    let scope = if st.krate.is_empty() {
        // Paths outside any crate layout (tests/, fixtures passed
        // explicitly): fall back to the file stem so fingerprints stay
        // distinct per file.
        st.rel
            .rsplit('/')
            .next()
            .unwrap_or(&st.rel)
            .trim_end_matches(".rs")
            .to_string()
    } else {
        st.krate.clone()
    };
    let Some((lo, hi)) = st.sym_range else {
        return format!("{scope}::<file-scope>");
    };
    syms[lo..hi]
        .iter()
        .filter(|s| s.line <= line && line <= s.end_line)
        .max_by_key(|s| s.line)
        .map(|s| s.path())
        .unwrap_or_else(|| format!("{scope}::<file-scope>"))
}

/// Assigns every diagnostic its stable identity
/// `rule|fn_path|token|ordinal`. The ordinal disambiguates repeats of
/// the same construct in the same fn, numbered in source order — so two
/// `unwrap`s in one fn get `…|0` and `…|1`, and deleting the first
/// shifts the second's fingerprint (by design: "the second unwrap" is
/// a positional notion once the first is gone). Lines and columns are
/// deliberately absent: reformatting and renaming files must not change
/// any fingerprint.
fn fingerprint(diags: &mut [Diagnostic]) {
    // diags are already in canonical (path, line, col, rule) order, so
    // counting occurrences per key yields source-ordered ordinals.
    let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for d in diags {
        let key = (d.rule.to_string(), d.fn_path.clone(), d.token.clone());
        let ordinal = counts.entry(key).or_insert(0);
        d.fingerprint = format!("{}|{}|{}|{}", d.rule, d.fn_path, d.token, ordinal);
        *ordinal += 1;
    }
}

/// Checks one file's source text — the full pipeline (both passes) over
/// a single file. `rel` is the workspace-relative path used for
/// classification and diagnostics.
pub fn check_source(rel: &str, source: &str) -> Vec<Diagnostic> {
    check_sources(&[(rel.to_string(), source.to_string())])
        .report
        .diagnostics
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
/// Results are sorted for deterministic output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Discovers every checkable `.rs` file under `root` (the workspace).
pub fn discover_workspace(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    Ok(files)
}

/// Expands an explicit path argument: files are taken as-is, directories
/// are walked like the workspace (including `fixtures` when named
/// directly — a directory passed on the command line is always scanned,
/// only nested skip-dirs are pruned).
pub fn expand_path(path: &Path) -> io::Result<Vec<PathBuf>> {
    if path.is_dir() {
        let mut files = Vec::new();
        let mut entries: Vec<PathBuf> = fs::read_dir(path)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if p.is_dir() {
                if !SKIP_DIRS.contains(&name) || name == "fixtures" {
                    let mut sub = expand_path(&p)?;
                    files.append(&mut sub);
                }
            } else if name.ends_with(".rs") {
                files.push(p);
            }
        }
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// The workspace-relative form of `path` used for classification: the
/// prefix `root` is stripped when present.
fn relativise(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Checks a set of files, returning the full [`Analysis`]. Paths are
/// classified relative to `root`.
pub fn check_files(root: &Path, files: &[PathBuf]) -> io::Result<Analysis> {
    // Deduplicate while keeping the canonical relative path; reading in
    // sorted order is cosmetic (check_sources re-sorts) but keeps I/O
    // error messages stable.
    let mut by_rel: BTreeMap<String, PathBuf> = BTreeMap::new();
    for f in files {
        by_rel.insert(relativise(root, f), f.clone());
    }
    let mut sources = Vec::with_capacity(by_rel.len());
    for (rel, path) in by_rel {
        let text = fs::read_to_string(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("reading {}: {e}", path.display())))?;
        sources.push((rel, text));
    }
    Ok(check_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/novelty/src/x.rs";

    #[test]
    fn suppression_silences_exactly_its_line() {
        let src = "fn f() {\n\
                   x.unwrap(); // sncheck:allow(no-panic-in-lib): infallible by construction\n\
                   y.unwrap();\n\
                   }";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn own_line_suppression_covers_the_next_code_line() {
        let src = "fn f() {\n\
                   // sncheck:allow(no-panic-in-lib): infallible by construction\n\
                   x.unwrap();\n\
                   y.unwrap();\n\
                   }";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn own_line_suppression_skips_blank_and_comment_lines() {
        let src = "fn f() {\n\
                   // sncheck:allow(no-panic-in-lib): reason\n\
                   \n\
                   // an unrelated comment\n\
                   x.unwrap();\n\
                   }";
        assert!(check_source(LIB, src).is_empty());
    }

    #[test]
    fn unused_own_line_suppression_anchors_to_the_comment() {
        let src = "fn f() {\n\
                   // sncheck:allow(no-float-eq): stale\n\
                   x.unwrap();\n\
                   }";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .any(|d| d.rule == "unused-suppression" && d.line == 2));
    }

    #[test]
    fn suppression_covers_multiple_hits_on_its_line() {
        let src = "fn f() { a.unwrap(); b.unwrap(); } // sncheck:allow(no-panic-in-lib)";
        assert!(check_source(LIB, src).is_empty());
    }

    #[test]
    fn multi_rule_suppression() {
        let src =
            "fn f() { println!(\"{}\", m.unwrap()); } // sncheck:allow(no-panic-in-lib, no-stdout-in-lib)";
        assert!(check_source(LIB, src).is_empty());
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "fn f() {} // sncheck:allow(no-panic-in-lib)";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-suppression");
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn unknown_rule_is_flagged() {
        let src = "fn f() {} // sncheck:allow(no-such-rule)";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unknown-rule");
    }

    #[test]
    fn suppression_does_not_leak_to_other_rules() {
        let src = "fn f() { x.unwrap(); } // sncheck:allow(no-float-eq)";
        let diags = check_source(LIB, src);
        // The unwrap still fires, and the float-eq allow is unused.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "no-panic-in-lib"));
        assert!(diags.iter().any(|d| d.rule == "unused-suppression"));
    }

    #[test]
    fn suppressions_in_test_code_are_not_hygiene_checked() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); // sncheck:allow(no-panic-in-lib)\n }\n}";
        assert!(check_source(LIB, src).is_empty());
    }

    #[test]
    fn bins_and_tests_are_exempt_from_per_line_rules() {
        let panicky = "fn main() { x.unwrap(); println!(\"ok\"); }";
        assert!(check_source("src/bin/cli.rs", panicky).is_empty());
        assert!(check_source("tests/integration.rs", panicky).is_empty());
        assert!(check_source("crates/neural/benches/b.rs", panicky).is_empty());
    }

    #[test]
    fn graph_rules_obey_suppressions_too() {
        let src = "pub fn score_batch() { helper(); }\n\
                   fn helper() {\n\
                   x.unwrap() // sncheck:allow(hot-path-transitive-panic, no-panic-in-lib): checked by caller\n\
                   }";
        // Both the per-line rule and the transitive rule are silenced;
        // nothing is left and neither allow is stale.
        let diags = check_source(LIB, src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_carry_fn_paths_and_fingerprints() {
        let src = "pub fn score_batch() { a.unwrap(); b.unwrap(); }";
        let diags = check_source(LIB, src);
        // Per-line no-panic-in-lib ×2 and transitive panic ×2.
        assert_eq!(diags.len(), 4, "{diags:?}");
        for d in &diags {
            assert_eq!(d.fn_path, "novelty::score_batch", "{d:?}");
            assert!(!d.fingerprint.is_empty());
        }
        let fps: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "hot-path-transitive-panic")
            .map(|d| d.fingerprint.as_str())
            .collect();
        assert_eq!(
            fps,
            [
                "hot-path-transitive-panic|novelty::score_batch|unwrap|0",
                "hot-path-transitive-panic|novelty::score_batch|unwrap|1",
            ]
        );
    }

    #[test]
    fn fingerprints_survive_line_shifts() {
        let before = "pub fn score_batch() {\n x.unwrap();\n}";
        let after = "// a new leading comment\n\npub fn score_batch() {\n\n x.unwrap();\n}";
        let fp = |src: &str| {
            check_source(LIB, src)
                .iter()
                .map(|d| d.fingerprint.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(fp(before), fp(after));
    }

    #[test]
    fn file_scope_findings_get_the_sentinel_fn_path() {
        // A float-eq outside any fn (a const expression).
        let src = "pub const BAD: bool = 1.0 == 1.0;";
        let diags = check_source(LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].fn_path, "novelty::<file-scope>");
    }

    #[test]
    fn report_and_graph_are_order_independent() {
        let a = (
            "crates/novelty/src/a.rs".to_string(),
            "pub fn score_batch() { helper(); }".to_string(),
        );
        let b = (
            "crates/novelty/src/b.rs".to_string(),
            "pub fn helper() { x.unwrap(); }".to_string(),
        );
        let fwd = check_sources(&[a.clone(), b.clone()]);
        let rev = check_sources(&[b, a]);
        assert_eq!(fwd.report.to_json(), rev.report.to_json());
        assert_eq!(fwd.graph_json, rev.graph_json);
    }

    #[test]
    fn digests_cover_every_file() {
        let out = check_sources(&[
            (
                "crates/novelty/src/a.rs".to_string(),
                "fn ok() {}".to_string(),
            ),
            (
                "crates/novelty/src/b.rs".to_string(),
                "fn f() { x.unwrap(); }".to_string(),
            ),
        ]);
        assert_eq!(out.report.files.len(), 2);
        assert_eq!(out.report.files[0].path, "crates/novelty/src/a.rs");
        assert_eq!(out.report.files[0].diagnostics, 0);
        assert_eq!(out.report.files[1].diagnostics, 1);
        assert_eq!(out.report.files[0].digest.len(), 16);
    }
}
