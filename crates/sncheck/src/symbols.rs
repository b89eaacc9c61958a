//! Pass 1 of the v2 analyzer: the workspace symbol table.
//!
//! Walks every lexed file once and records each `fn` item — name, crate,
//! file, line span, `impl` owner (the *type*, with the trait name kept
//! separately for `impl Trait for Type` blocks), visibility, whether the
//! item lives in test code, and the token range of its body. The table is
//! the substrate for [`crate::callgraph`] and [`crate::reach`]: call-site
//! resolution and reachability both key off it.
//!
//! The builder is purely syntactic (delimiter counting, no type
//! information) and total: malformed input degrades to fewer symbols,
//! never to a panic.

use crate::lexer::{Token, TokenKind};
use crate::scope::TestScopes;

/// One `fn` item somewhere in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSym {
    /// Bare function name (`score_batch`).
    pub name: String,
    /// Enclosing `impl` type name (`StreamServer`), `None` for free fns.
    pub owner: Option<String>,
    /// Trait being implemented when the enclosing block is
    /// `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Crate the defining file belongs to (from path classification).
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based last line of the body (== `line` for bodyless items).
    pub end_line: u32,
    /// Whether the item is inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Whether the item is `pub` (any visibility qualifier).
    pub is_pub: bool,
    /// Token index range of the body *contents* (between the braces).
    /// Empty for trait-declaration items without a body.
    pub body: (usize, usize),
}

impl FnSym {
    /// Stable qualified path used in fingerprints and the graph dump:
    /// `crate::Owner::name` or `crate::name`. Deliberately excludes the
    /// file path and line so fingerprints survive file moves and edits
    /// above the item.
    pub fn path(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.krate, owner, self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// Symbols of one file, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// All `fn` items found in the file.
    pub fns: Vec<FnSym>,
}

/// Keywords that can immediately precede `(` without being a call; used
/// by the call-graph pass but defined here with the other token tables.
pub const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "impl", "dyn", "where", "unsafe", "break", "continue", "await", "use", "pub", "mut", "ref",
];

/// Reads the type name an `impl` header applies to. `toks` starts just
/// after the `impl` keyword; returns `(trait_name, type_name)` where the
/// names are the last plain identifier of each path (generics stripped).
fn parse_impl_header(toks: &[Token]) -> (Option<String>, Option<String>) {
    let mut i = 0;
    // Skip the generic parameter list `<...>` if present.
    if toks.get(i).is_some_and(|t| t.text == "<") {
        let mut depth = 0i64;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "<" | "<<" => depth += 1,
                ">" | ">>" => depth -= 1,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0i64;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" | "where" if angle == 0 => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => saw_for = true,
            _ if t.kind == TokenKind::Ident && angle == 0 => {
                let slot = if saw_for { &mut second } else { &mut first };
                *slot = Some(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    if saw_for {
        (first, second)
    } else {
        (None, first)
    }
}

/// True when the `fn` keyword at `i` belongs to a `pub`-qualified item
/// (any visibility: `pub`, `pub(crate)`, `pub(in …)`).
fn fn_is_pub(tokens: &[Token], i: usize) -> bool {
    let mut j = i;
    for _ in 0..8 {
        if j == 0 {
            return false;
        }
        j -= 1;
        match tokens[j].text.as_str() {
            "pub" => return true,
            "crate" | "in" | "self" | "super" | "(" | ")" | "const" | "async" | "unsafe"
            | "extern" => continue,
            _ => {
                if tokens[j].kind == TokenKind::Str {
                    continue; // `extern "C"` ABI string
                }
                return false;
            }
        }
    }
    false
}

/// Builds the symbol table for one lexed file.
///
/// `krate` comes from path classification ([`crate::rules::classify`]);
/// `scopes` masks test code.
pub fn file_symbols(rel: &str, krate: &str, tokens: &[Token], scopes: &TestScopes) -> FileSymbols {
    let mut fns = Vec::new();
    // Stack of (delimiter depth of the impl's `{`, trait, type).
    let mut impl_stack: Vec<(i64, Option<String>, Option<String>)> = Vec::new();
    // An `impl` header seen but its `{` not yet reached.
    let mut pending_impl: Option<(Option<String>, Option<String>)> = None;
    let mut depth: i64 = 0;

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => {
                    if let Some((tr, ty)) = pending_impl.take() {
                        impl_stack.push((depth, tr, ty));
                    }
                    depth += 1;
                }
                "(" | "[" => depth += 1,
                "}" => {
                    depth -= 1;
                    if impl_stack.last().map(|&(d, _, _)| d) == Some(depth) {
                        impl_stack.pop();
                    }
                }
                ")" | "]" => depth -= 1,
                ";" => {
                    // `impl Trait for Type;` cannot occur, but a stray `;`
                    // before the brace would otherwise leak the header.
                    pending_impl = None;
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        if t.kind == TokenKind::Ident && t.text == "impl" {
            let header_end = tokens[i + 1..]
                .iter()
                .position(|t| t.text == "{" || t.text == ";")
                .map_or(tokens.len(), |k| i + 1 + k);
            let (tr, ty) = parse_impl_header(&tokens[i + 1..header_end]);
            // `impl Trait for Type` in fn signatures (`impl Fn()`) parses
            // to a type with no brace following; pending_impl is cleared
            // by the `;`/`)` handling or overwritten harmlessly.
            pending_impl = Some((tr, ty));
            i += 1;
            continue;
        }

        if t.kind == TokenKind::Ident
            && t.text == "fn"
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            let line = t.line;
            let is_test = scopes.mask.get(i).copied().unwrap_or(false);
            let is_pub = fn_is_pub(tokens, i);
            // Find the body: first `{` at signature depth, or `;`.
            let mut j = i + 2;
            let mut sig_depth = 0i64;
            let mut body = (0usize, 0usize);
            let mut end_line = line;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "(" | "[" => sig_depth += 1,
                    ")" | "]" => sig_depth -= 1,
                    ";" if sig_depth == 0 => break, // bodyless trait item
                    "{" if sig_depth == 0 => {
                        let open = j;
                        let mut d = 1i64;
                        j += 1;
                        while j < tokens.len() && d > 0 {
                            match tokens[j].text.as_str() {
                                "{" | "(" | "[" => d += 1,
                                "}" | ")" | "]" => d -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        body = (open + 1, j.saturating_sub(1));
                        end_line = tokens.get(j.saturating_sub(1)).map_or(line, |t| t.line);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let (trait_name, owner) = impl_stack
                .last()
                .map_or((None, None), |(_, tr, ty)| (tr.clone(), ty.clone()));
            fns.push(FnSym {
                name,
                owner,
                trait_name,
                krate: krate.to_string(),
                file: rel.to_string(),
                line,
                end_line,
                is_test,
                is_pub,
                body,
            });
            // Continue scanning from after the signature so nested fns
            // (closures declaring fns is rare but legal) are still seen:
            // we only skipped to the body start above when one exists, so
            // resume right after the name and let the walker re-count
            // depth naturally.
            i += 2;
            continue;
        }
        i += 1;
    }
    FileSymbols { fns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_scopes;

    fn build(src: &str) -> FileSymbols {
        let lexed = lex(src);
        let scopes = test_scopes(&lexed.tokens);
        file_symbols("crates/x/src/a.rs", "x", &lexed.tokens, &scopes)
    }

    #[test]
    fn free_fns_and_methods() {
        let syms = build(
            "fn free() { a(); }\n\
             struct S;\n\
             impl S { pub fn m(&self) -> u8 { 1 } }\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        assert_eq!(syms.fns.len(), 3);
        assert_eq!(syms.fns[0].name, "free");
        assert_eq!(syms.fns[0].owner, None);
        assert!(!syms.fns[0].is_pub);
        assert_eq!(syms.fns[1].name, "m");
        assert_eq!(syms.fns[1].owner.as_deref(), Some("S"));
        assert!(syms.fns[1].is_pub);
        assert_eq!(syms.fns[1].path(), "x::S::m");
        assert_eq!(syms.fns[2].name, "clone");
        assert_eq!(syms.fns[2].owner.as_deref(), Some("S"));
        assert_eq!(syms.fns[2].trait_name.as_deref(), Some("Clone"));
    }

    #[test]
    fn generic_impls_resolve_to_the_type_name() {
        let syms = build("impl<'d, T: Copy> Server<'d, T> { fn step(&mut self) {} }");
        assert_eq!(syms.fns[0].owner.as_deref(), Some("Server"));
    }

    #[test]
    fn test_code_is_marked() {
        let syms = build("#[cfg(test)]\nmod tests { fn t() {} }\nfn lib() {}");
        assert_eq!(syms.fns.len(), 2);
        assert!(syms.fns[0].is_test);
        assert!(!syms.fns[1].is_test);
    }

    #[test]
    fn body_ranges_cover_the_braces_content() {
        let src = "fn f(x: [u8; 2]) -> u8 { inner(); 1 }\nfn g();";
        let syms = build(src);
        let lexed = lex(src);
        let (lo, hi) = syms.fns[0].body;
        let body: Vec<&str> = lexed.tokens[lo..hi]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, ["inner", "(", ")", ";", "1"]);
        assert_eq!(syms.fns[1].body, (0, 0), "bodyless item has no range");
    }

    #[test]
    fn end_line_spans_the_body() {
        let syms = build("fn f() {\n a();\n b();\n}");
        assert_eq!(syms.fns[0].line, 1);
        assert_eq!(syms.fns[0].end_line, 4);
    }
}
