//! The violation baseline: a checked-in, shrink-only list of known
//! violations.
//!
//! Each entry is one line of the form `rule path:line` (the
//! [`crate::diagnostics::Diagnostic::baseline_key`] format); `#` starts a
//! comment. A violation whose key appears in the baseline is reported as
//! *baselined* and does not fail the run; a baseline entry that matches
//! nothing is *stale* and must be deleted — the file may only shrink.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use crate::diagnostics::Diagnostic;

/// The parsed baseline file.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    keys: BTreeSet<String>,
}

impl Baseline {
    /// Parses baseline text: one `rule path:line` key per line, `#`
    /// comments and blank lines ignored.
    pub fn parse(text: &str) -> Baseline {
        let keys = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Baseline { keys }
    }

    /// Loads a baseline file; a missing file is an empty baseline.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(e),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the baseline has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Splits diagnostics into (fresh, baselined) and returns the stale
    /// baseline entries that matched nothing.
    pub fn partition(
        &self,
        diags: Vec<Diagnostic>,
    ) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<String>) {
        let mut fresh = Vec::new();
        let mut baselined = Vec::new();
        let mut matched: BTreeSet<&str> = BTreeSet::new();
        for d in diags {
            let key = d.baseline_key();
            match self.keys.get(key.as_str()) {
                Some(k) => {
                    matched.insert(k.as_str());
                    baselined.push(d);
                }
                None => fresh.push(d),
            }
        }
        let stale = self
            .keys
            .iter()
            .filter(|k| !matched.contains(k.as_str()))
            .cloned()
            .collect();
        (fresh, baselined, stale)
    }

    /// Serializes a set of keys as baseline file content.
    pub fn render(keys: &BTreeSet<String>) -> String {
        let mut out = String::from(
            "# srlr-lint baseline: known violations, one `rule path:line` per line.\n\
             # This file may only shrink. Fix the violation (or add an inline\n\
             # `// srlr-lint: allow(rule, reason = \"…\")`) and delete its entry.\n",
        );
        for key in keys {
            out.push_str(key);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn diag(rule: RuleId, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line,
            col: 1,
            rule,
            message: String::new(),
            snippet: String::new(),
            width: 1,
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let b = Baseline::parse("# header\n\nfloat-eq a.rs:3\n  raw-f64-api b.rs:9  \n");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn partition_separates_fresh_baselined_and_stale() {
        let b = Baseline::parse("float-eq a.rs:3\nraw-f64-api gone.rs:1\n");
        let diags = vec![
            diag(RuleId::FloatEq, "a.rs", 3),
            diag(RuleId::RawF64Api, "b.rs", 9),
        ];
        let (fresh, baselined, stale) = b.partition(diags);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].path, "b.rs");
        assert_eq!(baselined.len(), 1);
        assert_eq!(stale, vec!["raw-f64-api gone.rs:1".to_string()]);
    }

    #[test]
    fn render_round_trips() {
        let keys: BTreeSet<String> = [
            "float-eq a.rs:3".to_string(),
            "raw-f64-api b.rs:9".to_string(),
        ]
        .into_iter()
        .collect();
        let b = Baseline::parse(&Baseline::render(&keys));
        assert_eq!(b.len(), 2);
        assert!(b.keys.contains("float-eq a.rs:3"));
    }

    #[test]
    fn missing_file_is_empty() {
        let b = Baseline::load(Path::new("/nonexistent/lint-baseline.txt"));
        assert!(b.is_ok_and(|b| b.is_empty()));
    }
}
