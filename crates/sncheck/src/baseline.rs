//! `--diff` baselines: a committed set of accepted finding fingerprints.
//!
//! The file is the tiny JSON document
//!
//! ```json
//! {
//!   "sncheck_baseline_version": 1,
//!   "fingerprints": [
//!     "hot-path-transitive-alloc|novelty::Pipeline::score_batch|vec!|0"
//!   ]
//! }
//! ```
//!
//! and is keyed purely by [`crate::diag::Diagnostic::fingerprint`] —
//! `rule|fn_path|token|ordinal` — never by line numbers, so reformatting,
//! renaming a file, or inserting code above a finding does not resurrect
//! it. The parser is hand-rolled (the linter is std-only) and accepts
//! exactly the shape the writer emits plus insignificant whitespace;
//! anything else is a hard error so a corrupted baseline cannot silently
//! accept everything.

use std::collections::BTreeSet;

use crate::diag::{json_string, Report};

/// A parsed baseline: the set of accepted fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Accepted fingerprints, ordered (the writer emits them sorted).
    pub fingerprints: BTreeSet<String>,
}

impl Baseline {
    /// Parses a baseline document. Errors describe what was malformed.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut version: Option<u64> = None;
        let mut fingerprints: Option<BTreeSet<String>> = None;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            match key.as_str() {
                "sncheck_baseline_version" => version = Some(p.number()?),
                "fingerprints" => {
                    p.expect(b'[')?;
                    let mut set = BTreeSet::new();
                    loop {
                        p.skip_ws();
                        if p.eat(b']') {
                            break;
                        }
                        set.insert(p.string()?);
                        p.skip_ws();
                        if !p.eat(b',') {
                            p.skip_ws();
                            p.expect(b']')?;
                            break;
                        }
                    }
                    fingerprints = Some(set);
                }
                other => return Err(format!("unknown baseline key `{other}`")),
            }
            p.skip_ws();
            if !p.eat(b',') {
                p.skip_ws();
                p.expect(b'}')?;
                break;
            }
        }
        match version {
            Some(1) => {}
            Some(v) => return Err(format!("unsupported sncheck_baseline_version {v}")),
            None => return Err("missing sncheck_baseline_version".to_string()),
        }
        Ok(Baseline {
            fingerprints: fingerprints.ok_or("missing fingerprints array")?,
        })
    }

    /// Renders the canonical baseline document (stable byte-for-byte;
    /// fingerprints sorted).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fingerprints.len() * 80);
        out.push_str("{\n  \"sncheck_baseline_version\": 1,\n  \"fingerprints\": [");
        for (i, fp) in self.fingerprints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_string(fp));
        }
        if !self.fingerprints.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The baseline capturing every current finding of `report` —
    /// `--write-baseline` output.
    pub fn from_report(report: &Report) -> Baseline {
        Baseline {
            fingerprints: report
                .diagnostics
                .iter()
                .map(|d| d.fingerprint.clone())
                .collect(),
        }
    }

    /// Marks every finding of `report` whose fingerprint is accepted as
    /// `baselined` (kept in the output, excluded from the exit code).
    pub fn apply(&self, report: &mut Report) {
        for d in &mut report.diagnostics {
            if self.fingerprints.contains(&d.fingerprint) {
                d.baselined = true;
            }
        }
    }
}

/// Minimal recursive-descent scanner over the baseline grammar.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} of baseline",
                b as char, self.pos
            ))
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start} of baseline"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start} of baseline"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string in baseline".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        // Fingerprints are plain ASCII; \uXXXX never
                        // appears in files the writer produced.
                        other => {
                            return Err(format!(
                                "unsupported escape `\\{}` in baseline",
                                other.map(|&b| b as char).unwrap_or('?')
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diagnostic, Severity};

    fn fp_diag(fp: &str) -> Diagnostic {
        let mut d = Diagnostic::new("a.rs", 1, 1, "no-float-eq", Severity::Deny, "m");
        d.fingerprint = fp.to_string();
        d
    }

    #[test]
    fn round_trips() {
        let mut b = Baseline::default();
        b.fingerprints.insert("r|c::f|tok|0".to_string());
        b.fingerprints.insert("r|c::g|tok|1".to_string());
        let text = b.to_json();
        assert_eq!(Baseline::parse(&text).unwrap(), b);
        // And the empty baseline too.
        let empty = Baseline::default();
        assert_eq!(Baseline::parse(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"fingerprints\": []}").is_err());
        assert!(
            Baseline::parse("{\"sncheck_baseline_version\": 2, \"fingerprints\": []}").is_err()
        );
        assert!(Baseline::parse("{\"sncheck_baseline_version\": 1, \"oops\": []}").is_err());
    }

    #[test]
    fn apply_marks_only_matching_fingerprints() {
        let mut b = Baseline::default();
        b.fingerprints.insert("known".to_string());
        let mut r = Report {
            files_checked: 1,
            diagnostics: vec![fp_diag("known"), fp_diag("new")],
            files: Vec::new(),
        };
        b.apply(&mut r);
        assert!(r.diagnostics[0].baselined);
        assert!(!r.diagnostics[1].baselined);
        assert_eq!(r.deny_count(), 1);
    }

    #[test]
    fn from_report_captures_all_fingerprints() {
        let r = Report {
            files_checked: 1,
            diagnostics: vec![fp_diag("b"), fp_diag("a"), fp_diag("b")],
            files: Vec::new(),
        };
        let b = Baseline::from_report(&r);
        assert_eq!(b.fingerprints.len(), 2);
        assert!(b.to_json().find("\"a\"").unwrap() < b.to_json().find("\"b\"").unwrap());
    }
}
