//! The workspace lint engine: repo-invariant rules over every `.rs`
//! source, with in-line suppressions and a checked-in allowlist.
//!
//! Pipeline: [`source::collect_sources`] prepares each file (comments
//! and literals blanked, test regions marked), [`rules::run_all`]
//! produces raw findings, then suppressions and the allowlist filter
//! them. What survives fails the CI gate.
//!
//! Suppressing a finding:
//!
//! * in-line — put `// teeve-check: allow(<rule>)` on the flagged line
//!   or the line directly above it;
//! * allowlist — add a line to `crates/check/teeve-check.allow`
//!   (`<rule> <path-substring> <line-snippet>`), the reviewable home for
//!   grandfathered sites and sanctioned modules. An entry that silences
//!   nothing is itself a finding ([`RULE_ALLOW_UNUSED`]), so the list
//!   cannot outlive the code it excuses.

mod locks;
mod rules;
mod source;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

pub use locks::{
    run_locks_rules, LOCK_RULES, RULE_LOCK_BLOCKING, RULE_LOCK_DOUBLE, RULE_LOCK_ORDER,
};
pub use rules::{
    run_all, ALL_RULES, RULE_CLOCK, RULE_DECODE_BOUNDS, RULE_NET_NO_PANIC, RULE_STD_SYNC,
    RULE_WIRE_PARITY,
};
pub use source::{collect_sources, strip_comments_and_strings, SourceFile};

/// The finding reported against an allowlist entry that silenced nothing.
pub const RULE_ALLOW_UNUSED: &str = "allow-unused";

/// Workspace-relative path of the checked-in allowlist.
const ALLOWLIST_PATH: &str = "crates/check/teeve-check.allow";

/// One lint hit: a rule, a place, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (one of [`ALL_RULES`] or [`LOCK_RULES`], or
    /// [`RULE_ALLOW_UNUSED`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, path: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// One entry of the checked-in allowlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule the entry silences.
    pub rule: String,
    /// Substring the finding's workspace-relative path must contain.
    pub path: String,
    /// Substring the flagged raw source line must contain.
    pub snippet: String,
    /// 1-based line of the entry in the allowlist file.
    pub line: usize,
}

/// Parses the allowlist format: one entry per line,
/// `<rule> <path-substring> <line-snippet...>`; `#` starts a comment.
///
/// ```
/// let entries = teeve_check::lint::parse_allowlist(
///     "# sanctioned wall-clock module\nclock crates/types/src/clock.rs SystemTime::now()\n",
/// );
/// assert_eq!(entries.len(), 1);
/// assert_eq!(entries[0].rule, "clock");
/// ```
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path), Some(snippet)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        entries.push(AllowEntry {
            rule: rule.to_owned(),
            path: path.to_owned(),
            snippet: snippet.trim().to_owned(),
            line: idx + 1,
        });
    }
    entries
}

/// True when an in-line `// teeve-check: allow(<rule>)` marker covers the
/// finding (same raw line or the line directly above).
fn suppressed_inline(file: &SourceFile, finding: &Finding) -> bool {
    let marker = format!("teeve-check: allow({})", finding.rule);
    let idx = finding.line - 1;
    let same = file.raw_lines.get(idx).is_some_and(|l| l.contains(&marker));
    // The line above only counts when it is a standalone comment, so a
    // trailing marker never leaks onto the next line.
    let above = idx > 0
        && file
            .raw_lines
            .get(idx - 1)
            .is_some_and(|l| l.trim_start().starts_with("//") && l.contains(&marker));
    same || above
}

/// The first allowlist entry covering the finding, by position.
fn allowlisted(entries: &[AllowEntry], file: &SourceFile, finding: &Finding) -> Option<usize> {
    entries.iter().position(|e| {
        e.rule == finding.rule
            && finding.path.contains(&e.path)
            && file
                .raw_lines
                .get(finding.line - 1)
                .is_some_and(|l| l.contains(&e.snippet))
    })
}

/// The lint pass result.
#[derive(Debug)]
pub struct LintReport {
    /// Findings that survived suppression and the allowlist — each one
    /// fails the gate.
    pub findings: Vec<Finding>,
    /// Findings silenced by an in-line marker or an allowlist entry
    /// (reported for transparency, not failures).
    pub suppressed: usize,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Filters raw findings through in-line suppressions and the allowlist,
/// producing the report both lint passes share. Every entry of `entries`
/// must earn its place: one that covered no finding becomes a finding.
fn filter_report(files: &[SourceFile], entries: &[AllowEntry], raw: Vec<Finding>) -> LintReport {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut used = vec![false; entries.len()];
    for finding in raw {
        let file = files.iter().find(|f| f.rel == finding.path);
        let entry = file.and_then(|f| allowlisted(entries, f, &finding));
        if let Some(slot) = entry.and_then(|idx| used.get_mut(idx)) {
            *slot = true;
        }
        if entry.is_some() || file.is_some_and(|f| suppressed_inline(f, &finding)) {
            suppressed += 1;
        } else {
            findings.push(finding);
        }
    }
    for (entry, _) in entries.iter().zip(&used).filter(|(_, &hit)| !hit) {
        findings.push(Finding::new(
            RULE_ALLOW_UNUSED,
            ALLOWLIST_PATH,
            entry.line,
            format!(
                "allowlist entry `{} {} {}` silenced nothing; delete it",
                entry.rule, entry.path, entry.snippet
            ),
        ));
    }
    LintReport {
        findings,
        suppressed,
        files_scanned: files.len(),
    }
}

/// Loads the entries one pass answers for: the lock rules' entries for
/// the locks pass, every other entry (unknown rule names included, so a
/// typo is reported rather than ignored) for the lint pass.
fn load_allowlist(root: &Path, locks_pass: bool) -> Vec<AllowEntry> {
    let allow_text = fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let mut entries = parse_allowlist(&allow_text);
    entries.retain(|e| LOCK_RULES.contains(&e.rule.as_str()) == locks_pass);
    entries
}

/// Runs the full lint pass over the workspace at `root`, loading the
/// allowlist from `crates/check/teeve-check.allow` when present.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources.
pub fn run_lint(root: &Path) -> io::Result<LintReport> {
    let files = collect_sources(root)?;
    let entries = load_allowlist(root, false);
    let raw = run_all(&files);
    Ok(filter_report(&files, &entries, raw))
}

/// Runs the lock-discipline pass (see [`locks`](self)) over the
/// workspace at `root`, with the same suppression and allowlist workflow
/// as [`run_lint`].
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources.
pub fn run_locks(root: &Path) -> io::Result<LintReport> {
    let files = collect_sources(root)?;
    let entries = load_allowlist(root, true);
    let raw = run_locks_rules(&files);
    Ok(filter_report(&files, &entries, raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(rel: &str, src: &str) -> SourceFile {
        let clean = strip_comments_and_strings(src);
        SourceFile {
            rel: rel.to_owned(),
            raw_lines: src.lines().map(str::to_owned).collect(),
            clean_lines: clean.lines().map(str::to_owned).collect(),
            test_lines: vec![false; src.lines().count()],
            test_path: false,
        }
    }

    #[test]
    fn inline_suppression_covers_same_and_previous_line() {
        let src = "// teeve-check: allow(net-no-panic)\nx.unwrap();\n\
                   y.unwrap(); // teeve-check: allow(net-no-panic)\nz.unwrap();";
        let file = fake("crates/net/src/f.rs", src);
        let findings = run_all(std::slice::from_ref(&file));
        assert_eq!(findings.len(), 3);
        let silenced: Vec<bool> = findings
            .iter()
            .map(|f| suppressed_inline(&file, f))
            .collect();
        assert_eq!(silenced, vec![true, true, false]);
    }

    #[test]
    fn allowlist_needs_rule_path_and_snippet_to_match() {
        let file = fake("crates/net/src/f.rs", "x.unwrap();");
        let finding = &run_all(std::slice::from_ref(&file))[0];
        let hit = parse_allowlist("net-no-panic crates/net/src/f.rs x.unwrap()");
        let wrong_rule = parse_allowlist("clock crates/net/src/f.rs x.unwrap()");
        let wrong_snip = parse_allowlist("net-no-panic crates/net/src/f.rs y.unwrap()");
        assert_eq!(allowlisted(&hit, &file, finding), Some(0));
        assert_eq!(allowlisted(&wrong_rule, &file, finding), None);
        assert_eq!(allowlisted(&wrong_snip, &file, finding), None);
    }

    #[test]
    fn allowlist_entry_that_silences_nothing_is_a_finding() {
        let file = fake("crates/net/src/f.rs", "x.unwrap();");
        let raw = run_all(std::slice::from_ref(&file));
        let entries = parse_allowlist(
            "net-no-panic crates/net/src/f.rs x.unwrap()\n\
             # the file this one excused is gone\n\
             net-no-panic crates/net/src/gone.rs y.unwrap()\n",
        );
        let report = filter_report(std::slice::from_ref(&file), &entries, raw);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        let stale = &report.findings[0];
        assert_eq!(stale.rule, RULE_ALLOW_UNUSED);
        assert_eq!((stale.path.as_str(), stale.line), (ALLOWLIST_PATH, 3));
        assert!(stale.message.contains("gone.rs"));
    }

    #[test]
    fn allowlist_parser_skips_comments_and_blanks() {
        let entries = parse_allowlist("# header\n\n  # indented comment\nclock a b c\n");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].snippet, "b c");
    }
}
