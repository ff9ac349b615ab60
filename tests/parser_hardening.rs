//! Parser-hardening property suite for the hand-rolled `malec-serve`
//! parsers, mirroring the TraceReader corruption-hardening tests of PR 3:
//! the TOML spec parser, the JSON reader and the spec layer must return
//! `Ok`/`Err` on **arbitrary byte-string inputs** — never panic, never
//! overflow the stack, never allocate unboundedly.

use malec_serve::{json, parse_spec, toml};
use proptest::prelude::*;

/// Expands draws of `u64` words into raw bytes (the vendored proptest has
/// no byte-vector strategy; eight bytes per word is plenty of entropy).
fn bytes_of(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// TOML-ish fragments that reach the parser's deeper paths (headers,
/// arrays of tables, strings, escapes, comments, malformed stubs).
const TOML_FRAGMENTS: [&str; 16] = [
    "[scenario]",
    "[[scenario.phase]]",
    "[a.b.c]",
    "[[",
    "[t",
    "key = \"value\"",
    "key = \"unterminated",
    "key = [1, 2, 3]",
    "key = [\"a\", \"b\"",
    "key = 1_000_000",
    "key = 99999999999999999999999999",
    "key = \"esc \\\" \\n \\t \\\\ end\"",
    "# just a comment",
    "= 5",
    "weight = 0.5e3",
    "x = \"a # not a comment\" # real one",
];

/// JSON-ish fragments exercising containers, escapes and malformed stubs.
const JSON_FRAGMENTS: [&str; 16] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"key\"",
    "\"\\u0041\"",
    "\"\\u\"",
    "\"unterminated",
    "null",
    "true",
    "fals",
    "-1.5e-3",
    "1e999",
    "{\"a\": [1, {\"b\": []}]}",
];

fn assemble(picks: &[(u8, u64)], fragments: &[&str; 16], joiner: &str) -> String {
    picks
        .iter()
        .map(|&(idx, salt)| {
            let mut piece = fragments[(idx % 16) as usize].to_owned();
            // Sprinkle raw bytes into some fragments so boundaries between
            // structure and garbage are fuzzed too.
            if salt % 5 == 0 {
                piece.push_str(&String::from_utf8_lossy(&salt.to_le_bytes()));
            }
            piece
        })
        .collect::<Vec<_>>()
        .join(joiner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The TOML parser returns a result — never panics — on arbitrary
    /// bytes decoded lossily (the service hands it request bodies).
    fn toml_never_panics_on_arbitrary_bytes(words in proptest::collection::vec(proptest::num::u64::ANY, 0..64)) {
        let bytes = bytes_of(&words);
        let text = String::from_utf8_lossy(&bytes);
        let _ = toml::parse(&text);
    }

    /// Same for structured noise assembled from TOML-shaped fragments,
    /// which reaches the table/array/string paths plain garbage misses.
    fn toml_never_panics_on_structured_noise(picks in proptest::collection::vec((0u8..16, proptest::num::u64::ANY), 0..40)) {
        let doc = assemble(&picks, &TOML_FRAGMENTS, "\n");
        let _ = toml::parse(&doc);
    }

    /// The full spec layer (TOML parse + semantic validation) is panic-free
    /// on the same inputs — a bad spec over HTTP must always become a 400.
    fn spec_never_panics_on_structured_noise(picks in proptest::collection::vec((0u8..16, proptest::num::u64::ANY), 0..40)) {
        let doc = assemble(&picks, &TOML_FRAGMENTS, "\n");
        let _ = parse_spec(&doc);
    }

    /// The JSON reader is panic-free on arbitrary bytes (the CLI client
    /// hands it whatever a server returns).
    fn json_never_panics_on_arbitrary_bytes(words in proptest::collection::vec(proptest::num::u64::ANY, 0..64)) {
        let bytes = bytes_of(&words);
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
    }

    /// JSON-shaped noise: container tokens in hostile orders, truncated
    /// escapes, oversized numbers.
    fn json_never_panics_on_structured_noise(picks in proptest::collection::vec((0u8..16, proptest::num::u64::ANY), 0..60)) {
        let doc = assemble(&picks, &JSON_FRAGMENTS, "");
        let _ = json::parse(&doc);
    }

    /// Valid documents corrupted at one byte stay panic-free (the mirror of
    /// the TraceReader single-byte corruption suite).
    fn corrupted_valid_spec_never_panics(offset in 0usize..220, byte in 0u8..255) {
        let good = "[scenario]\nname = \"p\"\nmode = \"mixed\"\nblock = 16\n\
                    [[scenario.part]]\nkind = \"benchmark\"\nbenchmark = \"gzip\"\nweight = 2\n\
                    [[scenario.part]]\nkind = \"store_burst\"\nburst = 8\n\
                    [sweep]\nconfigs = [\"MALEC\"]\ninsts = 1000\nseeds = 4\n";
        let mut bytes = good.as_bytes().to_vec();
        let at = offset % bytes.len();
        bytes[at] = byte;
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_spec(&text);
    }
}

#[test]
fn deep_toml_table_paths_error_cleanly() {
    // A 10k-segment dotted path used to build a 10k-deep nested table
    // whose destructor overflowed the stack (found by the proptest suite
    // above); the parser now bounds table-path depth.
    let deep_path = (0..10_000).map(|_| "a").collect::<Vec<_>>().join(".");
    let doc = format!("[{deep_path}]\nx = 1\n");
    assert!(toml::parse(&doc).is_err(), "pathological depth must error");
}

#[test]
fn json_hundred_thousand_brackets_error_cleanly() {
    // The regression the depth guard exists for: one byte per recursion
    // level used to overflow a worker thread's stack.
    let doc = "[".repeat(100_000);
    assert!(json::parse(&doc).is_err(), "deep nesting must be an error");
}
