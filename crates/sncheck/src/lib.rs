#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

//! `sncheck` — the workspace invariant linter.
//!
//! The reproduction's headline guarantees are dynamic: pinned detector
//! digests (`tests/reproducibility.rs`), recording
//! that never perturbs detector JSON (`tests/observability.rs`), and
//! byte-reproducible fault schedules (`tests/stream_runtime.rs`). Those
//! tests only catch a regression on the paths they exercise; one stray
//! `Instant::now()` in a scoring branch or a `HashMap` iteration in
//! calibration silently breaks the ECDF-threshold contract the paper's
//! novelty test depends on. This crate turns the invariants into
//! machine-checked rules that run on every commit, on every line.
//!
//! The tool is offline and std-only, and analyses in two passes. Pass 1
//! is per-line: a hand-rolled [`lexer`] (comments, string/raw-string/char
//! literals), a [`scope`] tracker that exempts `#[cfg(test)]`/`#[test]`
//! code, and the [`rules`] engine. Pass 2 is whole-workspace: a
//! [`symbols`] table over every fn item, a [`callgraph`] with documented
//! ambiguity handling, and [`reach`]ability rules that flag panics,
//! allocations and clock reads anywhere in the cone of the hot-path
//! roots, plus `*_recorded` wrappers that grew logic. `sncheck:allow`
//! comment suppressions (with hygiene checking) cover both passes,
//! findings carry stable `rule|fn_path|token|ordinal` fingerprints, and
//! [`baseline`]s let CI gate on *new* findings only (`--diff`). Output
//! is byte-identical across runs by construction — the linter itself
//! obeys the determinism rules it enforces (no clock, no environment,
//! ordered maps only).
//!
//! ```
//! let diags = sncheck::check_source(
//!     "crates/novelty/src/demo.rs",
//!     "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "no-panic-in-lib");
//! ```

pub mod baseline;
pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod reach;
pub mod rules;
pub mod scope;
pub mod symbols;

pub use baseline::Baseline;
pub use diag::{Diagnostic, Report, Severity};
pub use engine::{
    check_files, check_source, check_sources, discover_workspace, expand_path, Analysis,
};
pub use rules::{classify, classify_crate, FileKind, RuleInfo, RULES};
