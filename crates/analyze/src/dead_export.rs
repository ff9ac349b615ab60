//! Dead-export pass: every `pub` item has a user outside its own file.
//!
//! rustc's `dead_code` lint never fires on a `pub` item, and every module
//! in this workspace is `pub`, so an accessor whose last caller went away
//! compiles on silently. This pass approximates "used from elsewhere"
//! lexically, over the whole scanned set:
//!
//! * **candidates** are plain-`pub` `fn` (including `const fn`), `const`,
//!   `static`, `struct`, `enum`, `trait` and `type` items in
//!   `crates/*/src/**`, outside `#[cfg(test)]` — not `pub(crate)` items,
//!   `pub mod`, `pub use`, fields or variants;
//! * **a use** is an identifier token carrying the item's name in any
//!   other scanned file, test code included. Tokens inside a `pub use …;`
//!   re-export do not count (a re-export alone keeps nothing alive), and
//!   comments and string literals are not tokens;
//! * **a type** (`struct`/`enum`/`trait`/`type`) is also used when its own
//!   file's non-test code names it anywhere but right after
//!   `struct`/`enum`/`trait`/`type`/`impl`/`for`: a public signature may
//!   carry it, and narrowing it would trip rustc's `private_interfaces`.
//!
//! A finding resolves one of three ways: delete the item, move it into
//! its file's `#[cfg(test)]` module, or narrow its visibility — after
//! which rustc's own `dead_code` lint covers it.
//!
//! The re-exports themselves are weighed too. A name that a crate root
//! (`crates/<dir>/src/lib.rs`, crate `malec_<dir>`) re-exports with a
//! `pub use` is flagged when no other scanned file reaches it through
//! that root: as `malec_<dir>::Name`, or as the first segment of an item
//! in a `malec_<dir>::{…}` group. A path through one of the root's
//! modules (`malec_<dir>::module::…`) is not a use of the root's name.
//! Such a re-export is a second path nobody takes; drop it.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Kind, Token};
use crate::{Finding, Unit};

/// Item keywords that make a plain-`pub` item a candidate.
const ITEMS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Keywords after which a type's name is its definition or an impl
/// header, not a use.
const DEFINING: &[&str] = &["struct", "enum", "trait", "type", "impl", "for"];

/// Runs the pass.
pub fn run(units: &[Unit]) -> Vec<Finding> {
    let reexports: Vec<Vec<bool>> = units
        .iter()
        .map(|u| pub_use_mask(&u.lexed.tokens))
        .collect();
    // One identifier -> files index per run; a per-item rescan of every
    // file is quadratic and slow in the debug-built tier-1 test.
    let mut index: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, u) in units.iter().enumerate() {
        for (t, &reexport) in u.lexed.tokens.iter().zip(&reexports[fi]) {
            if t.kind == Kind::Ident && !reexport {
                let files = index.entry(t.text.as_str()).or_default();
                if files.last() != Some(&fi) {
                    files.push(fi);
                }
            }
        }
    }

    let mut findings = unreached_reexports(units);
    for (fi, u) in units.iter().enumerate() {
        if !u.path.starts_with("crates/") || u.path.split('/').nth(2) != Some("src") {
            continue;
        }
        let toks = &u.lexed.tokens;
        for (i, item, name) in candidates(toks) {
            let elsewhere = index
                .get(name)
                .is_some_and(|files| files.iter().any(|&g| g != fi));
            let in_signature = matches!(item, "struct" | "enum" | "trait" | "type")
                && names_type(toks, &reexports[fi], name);
            if !elsewhere && !in_signature {
                findings.push(Finding {
                    path: u.path.clone(),
                    line: toks[i].line,
                    lint: "dead-export".to_owned(),
                    message: format!(
                        "`pub {item} {name}` is named in no other file — delete it, move it \
                         into the file's tests, or narrow its visibility"
                    ),
                });
            }
        }
    }
    findings
}

/// The candidate items of one file: `(index of pub, item keyword, name)`.
fn candidates(toks: &[Token]) -> Vec<(usize, &str, &str)> {
    let ident = |j: usize| {
        toks.get(j)
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
    };
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || ident(i) != Some("pub") {
            continue;
        }
        let mut j = i + 1;
        if ident(j) == Some("const") && ident(j + 1) == Some("fn") {
            j += 1;
        }
        if let (Some(item), Some(name)) = (ident(j), ident(j + 1)) {
            if ITEMS.contains(&item) {
                out.push((i, item, name));
            }
        }
    }
    out
}

/// Whether a file's non-test code names type `name` outside a definition
/// or impl header (and outside re-exports).
fn names_type(toks: &[Token], reexports: &[bool], name: &str) -> bool {
    toks.iter().enumerate().any(|(i, t)| {
        t.kind == Kind::Ident
            && t.text == name
            && !t.in_test
            && !reexports[i]
            && !(i > 0
                && toks[i - 1].kind == Kind::Ident
                && DEFINING.contains(&toks[i - 1].text.as_str()))
    })
}

/// Marks the tokens of every `pub use …;` statement.
fn pub_use_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].kind == Kind::Ident
            && toks[i].text == "pub"
            && toks[i + 1].kind == Kind::Ident
            && toks[i + 1].text == "use"
        {
            while i < toks.len() && toks[i].kind != Kind::Punct(';') {
                mask[i] = true;
                i += 1;
            }
        }
        i += 1;
    }
    mask
}

/// The crate a crate root defines: `crates/<dir>/src/lib.rs` is `malec_<dir>`.
fn root_crate(path: &str) -> Option<String> {
    match path.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", dir, "src", "lib.rs"] => Some(format!("malec_{dir}")),
        _ => None,
    }
}

/// Findings for root re-exports no other file reaches through the root.
fn unreached_reexports(units: &[Unit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (ri, root) in units.iter().enumerate() {
        let Some(krate) = root_crate(&root.path) else {
            continue;
        };
        let toks = &root.lexed.tokens;
        let modules: BTreeSet<&str> = (1..toks.len())
            .filter(|&i| !toks[i].in_test && is_ident(&toks[i - 1], "mod"))
            .filter(|&i| toks[i].kind == Kind::Ident)
            .map(|i| toks[i].text.as_str())
            .collect();
        let exported = reexported_names(toks);
        if exported.is_empty() {
            continue;
        }
        let mut reached = BTreeSet::new();
        for (ui, u) in units.iter().enumerate() {
            if ui != ri {
                reached_through(&u.lexed.tokens, &krate, &modules, &mut reached);
            }
        }
        for (name, line) in exported {
            if !reached.contains(name) {
                findings.push(Finding {
                    path: root.path.clone(),
                    line,
                    lint: "dead-export".to_owned(),
                    message: format!(
                        "`{krate}::{name}` is re-exported but no other file reaches it \
                         through the crate root — drop the re-export"
                    ),
                });
            }
        }
    }
    findings
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == Kind::Ident && t.text == text
}

/// The names each non-test `pub use …;` makes public, with their lines:
/// the last segment of each leaf path, or its `as` rename (a `self` leaf
/// names its group's prefix; globs name nothing).
fn reexported_names(toks: &[Token]) -> Vec<(&str, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].in_test || !is_ident(&toks[i], "pub") || !is_ident(&toks[i + 1], "use") {
            i += 1;
            continue;
        }
        i += 2;
        // The last identifier of the leaf being read (a path segment or
        // its rename), and of each enclosing group's prefix.
        let mut leaf: Option<&Token> = None;
        let mut prefixes: Vec<Option<&Token>> = Vec::new();
        while i < toks.len() {
            let t = &toks[i];
            i += 1;
            match t.kind {
                Kind::Ident if t.text == "as" => {}
                Kind::Ident => leaf = Some(t),
                Kind::Punct('{') => prefixes.push(leaf.take()),
                Kind::Punct('*') => leaf = None,
                Kind::Punct(c @ (',' | '}' | ';')) => {
                    let named = match leaf.take() {
                        Some(l) if l.text == "self" => prefixes.last().copied().flatten(),
                        other => other,
                    };
                    if let Some(n) = named {
                        out.push((n.text.as_str(), n.line));
                    }
                    if c == '}' {
                        prefixes.pop();
                    }
                    if c == ';' {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Adds to `reached` every name `toks` reaches directly through crate
/// `krate`'s root: `krate::Name`, or an item's first segment inside a
/// `krate::{…}` group. A segment naming one of the root's `modules` and
/// followed by `::` is a module path, not a use of the root's name.
fn reached_through<'a>(
    toks: &'a [Token],
    krate: &str,
    modules: &BTreeSet<&str>,
    reached: &mut BTreeSet<&'a str>,
) {
    let path_sep = |j: usize| {
        matches!(
            (
                toks.get(j).map(|t| &t.kind),
                toks.get(j + 1).map(|t| &t.kind)
            ),
            (Some(Kind::Punct(':')), Some(Kind::Punct(':')))
        )
    };
    let mut note = |j: usize| {
        let t = &toks[j];
        if t.kind == Kind::Ident && !(modules.contains(t.text.as_str()) && path_sep(j + 1)) {
            reached.insert(t.text.as_str());
        }
    };
    for i in 0..toks.len() {
        if !is_ident(&toks[i], krate) || !path_sep(i + 1) {
            continue;
        }
        let Some(next) = toks.get(i + 3) else {
            continue;
        };
        if next.kind != Kind::Punct('{') {
            note(i + 3);
            continue;
        }
        let mut depth = 0usize;
        for j in i + 3..toks.len() {
            match toks[j].kind {
                Kind::Punct('{') => depth += 1,
                Kind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Kind::Ident
                    if depth == 1
                        && matches!(toks[j - 1].kind, Kind::Punct('{') | Kind::Punct(',')) =>
                {
                    note(j);
                }
                _ => {}
            }
        }
    }
}
