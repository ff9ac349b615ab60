//! Lock-order pass: the serve layer's deadlock-freedom argument,
//! machine-checked.
//!
//! `crates/serve` holds five mutexes (`cells`, `jobs`, `queue`, `handles`
//! and the fault registry's `points`) and avoids deadlock purely by
//! convention: no lock is taken while another is held, except the fault
//! registry's leaf lock, which a failpoint check inside a cache write takes
//! under `cells` when a schedule is armed and which never takes another.
//! Every acquisition must route through the poison-recovering
//! `serve::sync::lock` funnel so a panicking worker can never wedge its
//! peers.
//!
//! The pass walks each function in `crates/serve/src`, models guard
//! lifetimes (a `let`-bound guard lives to the end of its block or an
//! explicit `drop(guard)`; an unbound guard is a statement temporary),
//! records an edge `A -> B` whenever lock `B` is taken while `A` is
//! held, and fails on any cycle in the resulting acquisition graph —
//! including self-loops, which are immediate self-deadlocks with
//! non-reentrant mutexes. Direct `.lock()` calls are flagged wherever
//! they appear: outside the funnel they silently re-introduce poison
//! propagation.

use crate::lexer::{Kind, Token};
use crate::{Edge, Finding, Unit, KEYWORDS};

/// A currently-held guard.
struct Guard {
    /// The lock it guards (last path segment of the `lock(…)` argument).
    lock: String,
    /// Binding name, if `let`-bound (so `drop(name)` can release it).
    var: Option<String>,
    /// Brace depth of the binding; the guard dies when depth drops below.
    depth: i32,
    /// Statement temporary: dies at the next `;` or block boundary.
    temp: bool,
}

/// Runs the pass. Returns findings plus the deduplicated acquisition
/// graph (for `--dump-graph` and the harness's acyclicity test).
pub fn run(units: &[Unit]) -> (Vec<Finding>, Vec<Edge>) {
    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();

    for u in units {
        if !u.path.starts_with("crates/serve/src/") {
            continue;
        }
        scan_file(u, &mut findings, &mut edges);
    }

    // Cycle check over the whole-crate graph.
    findings.extend(find_cycles(&edges));
    (findings, edges)
}

fn scan_file(u: &Unit, findings: &mut Vec<Finding>, edges: &mut Vec<Edge>) {
    let toks = &u.lexed.tokens;
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0i32;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            Kind::Punct('{') => {
                depth += 1;
                held.retain(|g| !g.temp);
            }
            Kind::Punct('}') => {
                depth -= 1;
                held.retain(|g| !g.temp && g.depth <= depth);
            }
            Kind::Punct(';') => held.retain(|g| !g.temp),
            Kind::Ident if t.text == "drop" && !t.in_test => {
                // `drop(guard)` releases a named guard early.
                if let (
                    Some(Token {
                        kind: Kind::Punct('('),
                        ..
                    }),
                    Some(v),
                    Some(Token {
                        kind: Kind::Punct(')'),
                        ..
                    }),
                ) = (toks.get(i + 1), toks.get(i + 2), toks.get(i + 3))
                {
                    if v.kind == Kind::Ident {
                        held.retain(|g| g.var.as_deref() != Some(v.text.as_str()));
                    }
                }
            }
            Kind::Ident if t.text == "lock" && !t.in_test => {
                let prev_dot = i > 0 && toks[i - 1].kind == Kind::Punct('.');
                let next_paren = toks.get(i + 1).is_some_and(|n| n.kind == Kind::Punct('('));
                if prev_dot {
                    findings.push(Finding {
                        path: u.path.clone(),
                        line: t.line,
                        lint: "lock-order".to_owned(),
                        message: "direct `.lock()` call bypasses the poison-recovering \
                                  `serve::sync::lock` funnel"
                            .to_owned(),
                    });
                } else if next_paren {
                    if let Some((lock, after)) = lock_target(toks, i + 1) {
                        for g in &held {
                            record_edge(edges, &g.lock, &lock, &u.path, t.line);
                        }
                        let (var, temp) = binding(toks, i, after);
                        held.push(Guard {
                            lock,
                            var,
                            depth,
                            temp,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Resolves the lock being acquired by `lock(…)`: the last identifier
/// inside the parens (`lock(&self.cells)` → `cells`,
/// `lock(&log.inner)` → `inner`). Returns the name and the index just
/// past the closing paren.
fn lock_target(toks: &[Token], open: usize) -> Option<(String, usize)> {
    let mut pdepth = 0i32;
    let mut last_ident: Option<&str> = None;
    let mut j = open;
    while j < toks.len() {
        match &toks[j].kind {
            Kind::Punct('(') => pdepth += 1,
            Kind::Punct(')') => {
                pdepth -= 1;
                if pdepth == 0 {
                    return last_ident.map(|n| (n.to_owned(), j + 1));
                }
            }
            Kind::Ident => last_ident = Some(&toks[j].text),
            _ => {}
        }
        j += 1;
    }
    None
}

/// Classifies the acquisition at token `i` (the `lock` identifier):
/// `let`-bound guard (`let g = lock(…);`) or statement temporary
/// (anything else, including method-chained `lock(…).get(…)`).
fn binding(toks: &[Token], i: usize, after_close: usize) -> (Option<String>, bool) {
    let whole_initializer = toks
        .get(after_close)
        .is_some_and(|t| t.kind == Kind::Punct(';'));
    if whole_initializer && i >= 3 {
        let eq = toks[i - 1].kind == Kind::Punct('=');
        let name = &toks[i - 2];
        if eq && name.kind == Kind::Ident && !KEYWORDS.contains(&name.text.as_str()) {
            let let_at = if toks.get(i.wrapping_sub(3)).is_some_and(|t| t.text == "mut") {
                i.checked_sub(4)
            } else {
                i.checked_sub(3)
            };
            if let_at
                .and_then(|k| toks.get(k))
                .is_some_and(|t| t.text == "let")
            {
                return (Some(name.text.clone()), false);
            }
        }
    }
    (None, true)
}

fn record_edge(edges: &mut Vec<Edge>, from: &str, to: &str, path: &str, line: u32) {
    if !edges.iter().any(|e| e.from == from && e.to == to) {
        edges.push(Edge {
            from: from.to_owned(),
            to: to.to_owned(),
            path: path.to_owned(),
            line,
        });
    }
}

/// Depth-first cycle search over the acquisition graph; one finding per
/// cycle, anchored at the edge that closes it.
fn find_cycles(edges: &[Edge]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    for start in &nodes {
        let mut path: Vec<&str> = vec![start];
        if let Some(f) = dfs(start, edges, &mut path) {
            findings.push(f);
            break; // one cycle is enough to fail the build
        }
    }
    findings
}

fn dfs<'a>(node: &'a str, edges: &'a [Edge], path: &mut Vec<&'a str>) -> Option<Finding> {
    for e in edges.iter().filter(|e| e.from == node) {
        if path.contains(&e.to.as_str()) {
            let mut cycle: Vec<&str> = path
                .iter()
                .copied()
                .skip_while(|n| *n != e.to.as_str())
                .collect();
            cycle.push(&e.to);
            return Some(Finding {
                path: e.path.clone(),
                line: e.line,
                lint: "lock-order".to_owned(),
                message: format!(
                    "lock acquisition cycle: {} (deadlock if threads interleave)",
                    cycle.join(" -> ")
                ),
            });
        }
        path.push(&e.to);
        let hit = dfs(&e.to, edges, path);
        path.pop();
        if hit.is_some() {
            return hit;
        }
    }
    None
}
