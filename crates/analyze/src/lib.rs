//! `malec-analyze` — workspace-invariant static analysis.
//!
//! The workspace's correctness story rests on invariants no compiler
//! checks: bit-identical golden digests, a serve layer whose scheduler
//! holds several mutexes with only convention preventing deadlock,
//! untrusted-byte parsers that must never panic per request,
//! string-named failpoints whose value is zero if a name is never
//! exercised by a test, and `pub` API that rustc's `dead_code` lint never
//! sees. This crate machine-checks those conventions with five lexical
//! analysis passes over the source tree (see [`lexer`] for the tokenizer
//! that makes a lexical approach sound):
//!
//! * [`lock_order`] — nested `lock(…)` acquisitions in `crates/serve`
//!   resolved to named lock fields; the acquisition graph must be
//!   acyclic, and every mutex acquisition must route through the
//!   poison-recovering `serve::sync::lock` funnel;
//! * [`panic_surface`] — no `unwrap`/`expect`/`panic!`-family macros or
//!   slice indexing in the request-path modules, outside `#[cfg(test)]`;
//! * [`determinism`] — no `HashMap`/`HashSet`, wall-clock reads or
//!   environment-dependent branches in the golden-digest crates;
//! * [`failpoint_coverage`] — every failpoint name is registered, armed
//!   at exactly one site, documented in the fault-table, and referenced
//!   by at least one test;
//! * [`dead_export`] — every plain-`pub` item in `crates/*/src` is named
//!   in some other scanned file, and every crate-root re-export is reached
//!   through its root by some other file, so unused public API and unused
//!   second paths cannot pile up.
//!
//! Exceptions are explicit, in-source, and carry a mandatory reason:
//!
//! ```text
//! // analyze: allow(panic-surface) key comes from the LRU index, which mirrors the map
//! ```
//!
//! A suppression with no reason, or one that suppresses nothing, is
//! itself a finding — the annotation budget is audited on every run.
//! See `ANALYSIS.md` at the repository root for the full lint catalog.

pub mod dead_export;
pub mod determinism;
pub mod failpoint_coverage;
pub mod lexer;
pub mod lock_order;
pub mod panic_surface;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Comment, Lexed};

/// The five analysis passes, in the order they run.
pub const PASSES: &[&str] = &[
    "lock-order",
    "panic-surface",
    "determinism",
    "failpoint-coverage",
    "dead-export",
];

/// One source file, with a workspace-relative path (always `/`-separated,
/// so findings render identically on every platform).
#[derive(Clone, Debug)]
pub struct Source {
    /// Workspace-relative path, e.g. `crates/serve/src/json.rs`.
    pub path: String,
    /// File contents.
    pub text: String,
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The lint that fired (a name from [`PASSES`], or `annotation`).
    pub lint: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// One edge of the lock-acquisition graph: `from` was held while `to`
/// was acquired, first observed at `path:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// Where the nesting was first observed.
    pub path: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// What one analysis run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by (path, line).
    pub findings: Vec<Finding>,
    /// The lock-acquisition graph (lock-order pass only).
    pub graph: Vec<Edge>,
    /// Files analyzed.
    pub files: usize,
    /// Findings silenced by an `// analyze: allow(…)` annotation.
    pub suppressed: usize,
}

impl Report {
    /// The one-line run summary (finding + suppression counts included,
    /// so the annotation budget is visible on every run).
    pub fn summary(&self) -> String {
        format!(
            "malec-analyze: {} finding{} across {} file{}, {} suppression{} honored",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.files,
            if self.files == 1 { "" } else { "s" },
            self.suppressed,
            if self.suppressed == 1 { "" } else { "s" },
        )
    }

    /// Renders findings (one `file:line: [lint] message` per row), the
    /// summary line, and optionally the lock graph.
    pub fn render(&self, dump_graph: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        if dump_graph {
            out.push_str("lock-order graph (held -> acquired):\n");
            for e in &self.graph {
                out.push_str(&format!(
                    "  {} -> {}  ({}:{})\n",
                    e.from, e.to, e.path, e.line
                ));
            }
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }
}

/// An `// analyze: allow(<lint>) <reason>` annotation.
#[derive(Clone, Debug)]
struct Suppression {
    line: u32,
    lint: String,
    reason: String,
}

/// Parses suppressions out of a file's comments.
fn suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("analyze:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let (lint, reason) = match rest.split_once(')') {
            Some((lint, reason)) => (lint.trim().to_owned(), reason.trim().to_owned()),
            None => (rest.trim().to_owned(), String::new()),
        };
        out.push(Suppression {
            line: c.line,
            lint,
            reason,
        });
    }
    out
}

/// A lexed source with its suppressions — what every pass consumes.
pub struct Unit {
    /// Workspace-relative path.
    pub path: String,
    /// The token/comment view.
    pub lexed: Lexed,
    suppressions: Vec<Suppression>,
}

/// Runs the requested `passes` (names from [`PASSES`]; unknown names are
/// ignored) over `sources` and applies suppressions.
pub fn analyze(sources: &[Source], passes: &[&str]) -> Report {
    let units: Vec<Unit> = sources
        .iter()
        .map(|s| {
            let lexed = lexer::lex(&s.text);
            let sup = suppressions(&lexed.comments);
            Unit {
                path: s.path.clone(),
                lexed,
                suppressions: sup,
            }
        })
        .collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut graph = Vec::new();
    if passes.contains(&"lock-order") {
        let (findings, edges) = lock_order::run(&units);
        raw.extend(findings);
        graph = edges;
    }
    if passes.contains(&"panic-surface") {
        raw.extend(panic_surface::run(&units));
    }
    if passes.contains(&"determinism") {
        raw.extend(determinism::run(&units));
    }
    if passes.contains(&"failpoint-coverage") {
        raw.extend(failpoint_coverage::run(&units));
    }
    if passes.contains(&"dead-export") {
        raw.extend(dead_export::run(&units));
    }

    // Apply suppressions: an annotation covers findings of its lint on
    // its own line and on the line directly below it.
    let mut suppressed = 0usize;
    let mut used = vec![Vec::new(); units.len()];
    for (ui, u) in units.iter().enumerate() {
        used[ui] = vec![false; u.suppressions.len()];
    }
    let mut findings: Vec<Finding> = Vec::new();
    'f: for f in raw {
        if let Some((ui, u)) = units.iter().enumerate().find(|(_, u)| u.path == f.path) {
            for (si, s) in u.suppressions.iter().enumerate() {
                if s.lint == f.lint && (s.line == f.line || s.line + 1 == f.line) {
                    used[ui][si] = true;
                    suppressed += 1;
                    continue 'f;
                }
            }
        }
        findings.push(f);
    }

    // Audit the annotations themselves: a reason is mandatory, and a
    // suppression that suppresses nothing (under the passes that ran) is
    // dead weight that hides drift.
    for (ui, u) in units.iter().enumerate() {
        for (si, s) in u.suppressions.iter().enumerate() {
            if !PASSES.contains(&s.lint.as_str()) {
                findings.push(Finding {
                    path: u.path.clone(),
                    line: s.line,
                    lint: "annotation".to_owned(),
                    message: format!("unknown lint `{}` in allow(…)", s.lint),
                });
                continue;
            }
            if s.reason.is_empty() {
                findings.push(Finding {
                    path: u.path.clone(),
                    line: s.line,
                    lint: "annotation".to_owned(),
                    message: format!(
                        "allow({}) without a reason — suppressions must say why",
                        s.lint
                    ),
                });
            }
            if passes.contains(&s.lint.as_str()) && !used[ui][si] {
                findings.push(Finding {
                    path: u.path.clone(),
                    line: s.line,
                    lint: "annotation".to_owned(),
                    message: format!("allow({}) suppresses nothing — remove it", s.lint),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, &a.lint).cmp(&(&b.path, b.line, &b.lint)));
    graph.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    Report {
        findings,
        graph,
        files: units.len(),
        suppressed,
    }
}

/// Loads every analyzable source under `root`, sorted by path:
/// `crates/*/src`, `crates/*/benches`, `tests`, `examples` and
/// `perfbench/src` (the benchmark, read so its imports count as uses).
/// Vendored stand-ins and build output are out of scope.
///
/// # Errors
///
/// Propagates filesystem errors from the walk.
pub fn load_workspace(root: &Path) -> io::Result<Vec<Source>> {
    let mut dirs = vec![
        root.join("tests"),
        root.join("examples"),
        root.join("perfbench/src"),
    ];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let krate = entry?.path();
            dirs.push(krate.join("src"));
            dirs.push(krate.join("benches"));
        }
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut files)?;
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(Source {
            path: rel,
            text: std::fs::read_to_string(&f)?,
        });
    }
    Ok(out)
}

/// Recursively collects `*.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks up from `start` to the workspace root (the directory holding
/// `crates/serve/src/lib.rs`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("crates/serve/src/lib.rs").is_file() {
            return Some(d.to_owned());
        }
        dir = d.parent();
    }
    None
}

/// Rust keywords that can directly precede a `[` without it being an
/// index expression (slice patterns, array types after `mut`, …).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];
