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

use std::collections::BTreeMap;

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

    let mut findings = Vec::new();
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
