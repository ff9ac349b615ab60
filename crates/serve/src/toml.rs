//! A minimal TOML parser for scenario sweep specs.
//!
//! The build environment has no crates.io access, so there is no `toml`
//! crate; this module implements the TOML subset the spec format uses,
//! hand-rolled and fully tested:
//!
//! * `[table.header]` and `[[array.of.tables]]` sections;
//! * `key = value` pairs with bare keys;
//! * basic `"strings"` (with `\"`, `\\`, `\n`, `\t` escapes), integers
//!   (with `_` separators), floats, booleans, and single-line inline
//!   arrays of scalars;
//! * `#` comments and blank lines.
//!
//! Anything outside the subset fails loudly with a line number — a spec
//! that parses is a spec whose meaning is unambiguous.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An inline array (or an `[[array.of.tables]]`).
    Array(Vec<Value>),
    /// A table.
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// The table behind this value, if it is one.
    pub(crate) fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The string behind this value, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer behind this value, if it is one.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float behind this value (integers coerce).
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The array behind this value, if it is one.
    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TomlError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError {
        line,
        message: message.into(),
    }
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for anything outside
/// the supported subset (see the module docs).
pub fn parse(input: &str) -> Result<BTreeMap<String, Value>, TomlError> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    // Path of the table currently receiving `key = value` lines, and
    // whether it is the newest element of an array-of-tables.
    let mut current: Vec<String> = Vec::new();
    let mut current_is_array_elem = false;

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let header = header
                .strip_suffix("]]")
                .ok_or_else(|| err(lineno, "unterminated [[header]]"))?;
            current = parse_key_path(header, lineno)?;
            current_is_array_elem = true;
            push_array_table(&mut root, &current, lineno)?;
        } else if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated [header]"))?;
            current = parse_key_path(header, lineno)?;
            current_is_array_elem = false;
            ensure_table(&mut root, &current, lineno)?;
        } else {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            let key = key.trim();
            if !is_bare_key(key) {
                return Err(err(lineno, format!("unsupported key `{key}`")));
            }
            let value = parse_value(value.trim(), lineno)?;
            let table = navigate_mut(&mut root, &current, current_is_array_elem, lineno)?;
            if table.insert(key.to_owned(), value).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        }
    }
    Ok(root)
}

/// Strips a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return line.get(..idx).unwrap_or(line),
            _ => escaped = false,
        }
    }
    line
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Maximum dotted-path depth of a table header. The spec language uses at
/// most two levels (`[[scenario.phase]]`); the bound exists because every
/// path segment nests one `Value::Table`, whose destructor recurses — a
/// `[a.a.a…]` header thousands of segments deep would build a value that
/// overflows the stack when dropped.
const MAX_TABLE_DEPTH: usize = 16;

fn parse_key_path(path: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let parts: Vec<String> = path
        .trim()
        .split('.')
        .map(|p| p.trim().to_owned())
        .collect();
    if parts.iter().any(|p| !is_bare_key(p)) {
        return Err(err(lineno, format!("unsupported table path `{path}`")));
    }
    if parts.len() > MAX_TABLE_DEPTH {
        return Err(err(
            lineno,
            format!("table path deeper than {MAX_TABLE_DEPTH} levels"),
        ));
    }
    Ok(parts)
}

/// Walks to (creating as needed) the table at `path`.
fn ensure_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, Value>, TomlError> {
    let mut table = root;
    for part in path {
        let entry = table
            .entry(part.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        table = match entry {
            Value::Table(t) => t,
            Value::Array(a) => match a.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(err(lineno, format!("`{part}` is not a table"))),
            },
            _ => return Err(err(lineno, format!("`{part}` is not a table"))),
        };
    }
    Ok(table)
}

/// Appends a fresh element to the array-of-tables at `path`.
fn push_array_table(
    root: &mut BTreeMap<String, Value>,
    path: &[String],
    lineno: usize,
) -> Result<(), TomlError> {
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| err(lineno, "empty [[header]]"))?;
    let parent = ensure_table(root, parents, lineno)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(a) => {
            a.push(Value::Table(BTreeMap::new()));
            Ok(())
        }
        _ => Err(err(lineno, format!("`{last}` is not an array of tables"))),
    }
}

/// Walks to the table `key = value` lines currently target.
fn navigate_mut<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    is_array_elem: bool,
    lineno: usize,
) -> Result<&'a mut BTreeMap<String, Value>, TomlError> {
    if !is_array_elem {
        return ensure_table(root, path, lineno);
    }
    let (last, parents) = path
        .split_last()
        .ok_or_else(|| err(lineno, "no current table"))?;
    let parent = ensure_table(root, parents, lineno)?;
    match parent.get_mut(last) {
        Some(Value::Array(a)) => match a.last_mut() {
            Some(Value::Table(t)) => Ok(t),
            _ => Err(err(lineno, "array of tables has no open element")),
        },
        _ => Err(err(lineno, format!("`{last}` is not an array of tables"))),
    }
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, TomlError> {
    if text.is_empty() {
        return Err(err(lineno, "missing value"));
    }
    if let Some(rest) = text.strip_prefix('"') {
        return parse_string(rest, lineno);
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(lineno, "arrays must close on the same line"))?;
        let mut items = Vec::new();
        for piece in split_array_items(body) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            // Reject nesting *before* recursing: parse_value calls itself
            // once per `[`, so a `[[[[…` value thousands of brackets deep
            // would otherwise exhaust the stack before the rejection on the
            // way back out could fire.
            if piece.starts_with('[') {
                return Err(err(lineno, "nested arrays are not supported"));
            }
            items.push(parse_value(piece, lineno)?);
        }
        return Ok(Value::Array(items));
    }
    match text {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let numeric: String = text.chars().filter(|&c| c != '_').collect();
    if numeric.contains(['.', 'e', 'E']) {
        if let Ok(f) = numeric.parse::<f64>() {
            return Ok(Value::Float(f));
        }
    } else if let Ok(i) = numeric.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(err(lineno, format!("unsupported value `{text}`")))
}

/// Splits inline-array items on top-level commas (commas inside string
/// literals do not count).
fn split_array_items(body: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in body.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                items.push(body.get(start..idx).unwrap_or_default());
                start = idx + 1;
            }
            _ => escaped = false,
        }
    }
    items.push(body.get(start..).unwrap_or_default());
    items
}

fn parse_string(rest: &str, lineno: usize) -> Result<Value, TomlError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let tail: String = chars.collect();
                if !tail.trim().is_empty() {
                    return Err(err(lineno, format!("trailing content `{}`", tail.trim())));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => {
                    return Err(err(lineno, format!("unsupported escape `\\{other:?}`")));
                }
            },
            _ => out.push(c),
        }
    }
    Err(err(lineno, "unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_spec_shape() {
        let doc = r#"
# A scenario spec.
[scenario]
name = "mixed-demo"   # inline comment
mode = "mixed"
block = 48

[[scenario.part]]
kind = "benchmark"
benchmark = "djpeg"
weight = 2

[[scenario.part]]
kind = "tlb_thrash"
weight = 1
load_fraction = 0.6

[sweep]
configs = ["Base1ldst", "MALEC"]
insts = 12_000
seed = 2013
"#;
        let root = parse(doc).expect("parses");
        let scenario = root["scenario"].as_table().unwrap();
        assert_eq!(scenario["name"].as_str(), Some("mixed-demo"));
        assert_eq!(scenario["block"].as_int(), Some(48));
        let parts = scenario["part"].as_array().unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(
            parts[1].as_table().unwrap()["load_fraction"].as_float(),
            Some(0.6)
        );
        let sweep = root["sweep"].as_table().unwrap();
        assert_eq!(sweep["insts"].as_int(), Some(12_000));
        let configs = sweep["configs"].as_array().unwrap();
        assert_eq!(configs[1].as_str(), Some("MALEC"));
    }

    #[test]
    fn scalars_and_escapes() {
        let root = parse(
            "a = \"x \\\"y\\\" \\n z\"\nb = -7\nc = 1.5e3\nd = true\ne = false\nf = [1, 2, 3]\n",
        )
        .expect("parses");
        assert_eq!(root["a"].as_str(), Some("x \"y\" \n z"));
        assert_eq!(root["b"].as_int(), Some(-7));
        assert_eq!(root["c"].as_float(), Some(1500.0));
        assert_eq!(root["d"], Value::Bool(true));
        assert_eq!(root["e"], Value::Bool(false));
        assert_eq!(root["f"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let root = parse("a = \"one # two\" # real comment\n").expect("parses");
        assert_eq!(root["a"].as_str(), Some("one # two"));
    }

    #[test]
    fn empty_array_parses() {
        let root = parse("a = []\n").expect("parses");
        assert_eq!(root["a"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("ok = 1\nbroken\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("key = value"));

        let e = parse("a = \"unterminated\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse("[t\n").unwrap_err();
        assert!(e.message.contains("unterminated"));

        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = parse("a = what\n").unwrap_err();
        assert!(e.message.contains("unsupported value"));
    }

    #[test]
    fn array_of_tables_under_missing_parent_is_created() {
        let root = parse("[[a.b]]\nx = 1\n[[a.b]]\nx = 2\n").expect("parses");
        let b = root["a"].as_table().unwrap()["b"].as_array().unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[1].as_table().unwrap()["x"].as_int(), Some(2));
    }

    #[test]
    fn deep_inline_array_nesting_is_an_error_not_a_stack_overflow() {
        // parse_value recurses once per `[`; the nesting rejection must
        // fire before the recursive call, or 200k brackets kill the
        // process with SIGABRT instead of returning an error.
        let doc = format!("x = {}1{}\n", "[".repeat(200_000), "]".repeat(200_000));
        let e = parse(&doc).unwrap_err();
        assert!(e.message.contains("nested arrays"), "{e}");
        // Flat arrays (and the rejection of one-level nesting) still work.
        assert!(parse("x = [1, 2, 3]\n").is_ok());
        assert!(parse("x = [[1], 2]\n").is_err());
    }

    #[test]
    fn pathological_table_depth_is_an_error_not_a_stack_overflow() {
        // Each path segment nests one table; dropping a 10k-deep value
        // recurses 10k frames. The depth bound turns that into a clean
        // error (found by the parser-hardening proptest suite).
        let deep = (0..10_000).map(|_| "a").collect::<Vec<_>>().join(".");
        let e = parse(&format!("[{deep}]\nx = 1\n")).unwrap_err();
        assert!(e.message.contains("deeper than"), "{e}");
        let e = parse(&format!("[[{deep}]]\nx = 1\n")).unwrap_err();
        assert!(e.message.contains("deeper than"), "{e}");
        // The bound leaves real specs untouched.
        assert!(parse("[a.b.c.d]\nx = 1\n").is_ok());
    }

    #[test]
    fn redefining_scalar_as_table_fails() {
        let e = parse("a = 1\n[a]\nb = 2\n").unwrap_err();
        assert!(e.message.contains("not a table"));
    }

    #[test]
    fn keys_after_array_header_land_in_latest_element() {
        let root = parse("[[p]]\nk = 1\n[s]\nv = 2\n[[p]]\nk = 3\n").expect("parses");
        let p = root["p"].as_array().unwrap();
        assert_eq!(p[0].as_table().unwrap()["k"].as_int(), Some(1));
        assert_eq!(p[1].as_table().unwrap()["k"].as_int(), Some(3));
        assert_eq!(root["s"].as_table().unwrap()["v"].as_int(), Some(2));
    }

    /// The hardened slice sites (`strip_comment`, `split_array_items`)
    /// keep their semantics on multibyte text and edge-shaped arrays.
    #[test]
    fn comments_and_arrays_survive_multibyte_and_edges() {
        let root = parse("a = \"caf\u{e9}\" # comment après café ✓\n").expect("parses");
        assert_eq!(root["a"].as_str(), Some("café"));
        let root = parse("f = [1, 2,]\n").expect("trailing comma");
        assert_eq!(root["f"].as_array().unwrap().len(), 2);
        let root = parse("f = [,]\n").expect("empty items are skipped");
        assert_eq!(root["f"].as_array().unwrap().len(), 0);
        assert!(parse("#\u{2014}\n# only comments\n")
            .expect("parses")
            .is_empty());
    }
}
