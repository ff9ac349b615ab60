//! Acceptance tests for `malec-analyze`, the workspace-invariant lint
//! gate (tier-1: CI runs these on every change):
//!
//! * **The workspace is clean** — all five passes over the real source
//!   tree produce zero findings (this is the deny-by-default gate: a
//!   regression anywhere in the tree fails this test, not just the CI
//!   job);
//! * **The serve lock graph is acyclic** and empty: no serve lock is
//!   taken while another is held;
//! * **Synthetic violations** of each lint class are detected at their
//!   exact `file:line` — reversed lock nestings form a cycle, direct
//!   `.lock()` calls, every forbidden panic form, nondeterminism in a
//!   golden crate, each failpoint-registry mismatch, and `pub` items no
//!   other file names;
//! * **Suppressions** silence exactly one adjacent finding, demand a
//!   written reason, and rot loudly when they no longer bite.

use std::path::Path;

use malec_analyze::{analyze, find_root, load_workspace, Report, Source, PASSES};

fn src(path: &str, text: &str) -> Source {
    Source {
        path: path.to_owned(),
        text: text.to_owned(),
    }
}

/// `(line, lint)` pairs of a report's findings, for exact-site asserts.
fn sites(report: &Report) -> Vec<(u32, &str)> {
    report
        .findings
        .iter()
        .map(|f| (f.line, f.lint.as_str()))
        .collect()
}

/// `(path, line)` pairs of a report's findings, for multi-file fixtures.
fn places(report: &Report) -> Vec<(&str, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.path.as_str(), f.line))
        .collect()
}

// ---------------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------------

/// The deny-by-default gate: all five passes over the actual source tree
/// (crates, benches, tests, examples and the benchmark's sources) must come
/// back clean, and the suppression budget must be in use (the funnel's own
/// `.lock()` is always annotated).
#[test]
fn the_workspace_passes_all_five_lints() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let sources = load_workspace(&root).expect("load workspace");
    let report = analyze(&sources, PASSES);
    assert!(
        report.findings.is_empty(),
        "the workspace must be lint-clean:\n{}",
        report.render(false)
    );
    assert!(report.files > 50, "walked the whole tree: {}", report.files);
    assert!(
        report.suppressed >= 1,
        "the sync funnel annotation must bite"
    );
}

/// The serve lock-acquisition graph is acyclic and has no edge: the
/// result cache and the in-flight claims share one lock (`cells`), so
/// nothing nests.
#[test]
fn the_serve_lock_graph_is_acyclic_with_only_the_documented_edge() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let sources = load_workspace(&root).expect("load workspace");
    let report = analyze(&sources, &["lock-order"]);
    assert!(report.findings.is_empty(), "{}", report.render(true));
    assert!(
        report.graph.is_empty(),
        "no serve lock nests: {:?}",
        report.graph
    );
}

/// One scanned set for every pass: each crate's `src` and `benches`, the
/// root `tests` and `examples`, and the benchmark's `perfbench/src` (read
/// only, so its imports keep the items they name alive) — and nothing
/// else, so build output and vendored stand-ins are never linted.
#[test]
fn the_scanned_set_spans_crates_benches_tests_examples_and_perfbench() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let sources = load_workspace(&root).expect("load workspace");
    let paths: Vec<&str> = sources.iter().map(|s| s.path.as_str()).collect();
    for want in [
        "crates/analyze/src/dead_export.rs",
        "crates/bench/benches/micro_structures.rs",
        "tests/analyze.rs",
        "examples/quickstart.rs",
        "perfbench/src/main.rs",
    ] {
        assert!(paths.contains(&want), "{want} is scanned");
    }
    for path in &paths {
        let scanned = path.starts_with("tests/")
            || path.starts_with("examples/")
            || path.starts_with("perfbench/src/")
            || (path.starts_with("crates/")
                && matches!(path.split('/').nth(2), Some("src" | "benches")));
        assert!(
            scanned && path.ends_with(".rs"),
            "{path} is outside the set"
        );
    }
}

// ---------------------------------------------------------------------------
// Synthetic violations, detected at exact file:line
// ---------------------------------------------------------------------------

#[test]
fn reversed_lock_nestings_form_a_reported_cycle() {
    let fixture = src(
        "crates/serve/src/synthetic.rs",
        "fn ab(&self) {\n\
         \x20   let a = lock(&self.alpha);\n\
         \x20   let b = lock(&self.beta);\n\
         }\n\
         fn ba(&self) {\n\
         \x20   let b = lock(&self.beta);\n\
         \x20   let a = lock(&self.alpha);\n\
         }\n",
    );
    let report = analyze(&[fixture], &["lock-order"]);
    assert_eq!(
        sites(&report),
        [(7, "lock-order")],
        "{}",
        report.render(true)
    );
    assert!(
        report.findings[0]
            .message
            .contains("alpha -> beta -> alpha"),
        "{}",
        report.findings[0]
    );
    assert_eq!(report.graph.len(), 2, "both nestings recorded");
}

#[test]
fn scope_aware_guard_tracking_respects_drop_and_blocks() {
    // `drop(a)` releases the guard, so the second acquisition does not
    // nest; the block-scoped guard dies at `}` before beta is taken.
    let fixture = src(
        "crates/serve/src/synthetic.rs",
        "fn f(&self) {\n\
         \x20   let a = lock(&self.alpha);\n\
         \x20   drop(a);\n\
         \x20   let b = lock(&self.beta);\n\
         }\n\
         fn g(&self) {\n\
         \x20   { let a = lock(&self.alpha); }\n\
         \x20   let b = lock(&self.beta);\n\
         }\n",
    );
    let report = analyze(&[fixture], &["lock-order"]);
    assert!(report.findings.is_empty(), "{}", report.render(true));
    assert!(report.graph.is_empty(), "no nesting survives the releases");
}

#[test]
fn direct_lock_calls_are_flagged_at_their_exact_site() {
    let fixture = src(
        "crates/serve/src/synthetic.rs",
        "fn ok(&self) {\n\
         \x20   let g = lock(&self.alpha);\n\
         }\n\
         fn bad(&self) {\n\
         \x20   let g = self.alpha.lock().unwrap();\n\
         }\n",
    );
    let report = analyze(&[fixture], &["lock-order"]);
    assert_eq!(
        sites(&report),
        [(5, "lock-order")],
        "{}",
        report.render(false)
    );
    assert!(report.findings[0].message.contains("funnel"));
}

#[test]
fn panic_surface_catches_each_forbidden_form_outside_tests() {
    let fixture = src(
        "crates/serve/src/json.rs",
        "fn f(x: Option<u8>) -> u8 {\n\
         \x20   let v = x.unwrap();\n\
         \x20   if v > 250 { panic!(\"big\") }\n\
         \x20   let s = [v, 2];\n\
         \x20   s[0]\n\
         }\n\
         #[cfg(test)]\n\
         mod tests { fn t(x: Option<u8>) { x.unwrap(); } }\n",
    );
    let report = analyze(&[fixture], &["panic-surface"]);
    assert_eq!(
        sites(&report),
        [
            (2, "panic-surface"),
            (3, "panic-surface"),
            (5, "panic-surface")
        ],
        "unwrap, panic!, and indexing — and nothing from the test module:\n{}",
        report.render(false)
    );
}

#[test]
fn determinism_catches_hash_collections_wall_clock_and_env() {
    let fixture = src(
        "crates/core/src/lib.rs",
        "use std::collections::HashMap;\n\
         fn when() -> std::time::Instant { std::time::Instant::now() }\n\
         fn home() -> Option<String> { std::env::var(\"HOME\").ok() }\n",
    );
    let report = analyze(&[fixture], &["determinism"]);
    let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [1, 2, 2, 3], "{}", report.render(false));
    assert!(report.findings.iter().all(|f| f.lint == "determinism"));
}

#[test]
fn failpoint_registry_docs_sites_and_tests_are_cross_checked() {
    let fault = src(
        "crates/serve/src/fault.rs",
        "//! | `good.point`     | delay | fine |\n\
         //! | `unarmed.point`  | delay | fine |\n\
         //! | `untested.point` | delay | fine |\n\
         //! | `stale.point`    | delay | row outlived the point |\n\
         pub const KNOWN_POINTS: &[&str] = &[\n\
         \x20   \"good.point\",\n\
         \x20   \"undoc.point\",\n\
         \x20   \"unarmed.point\",\n\
         \x20   \"untested.point\",\n\
         ];\n",
    );
    let server = src(
        "crates/serve/src/server.rs",
        "fn f(&self) {\n\
         \x20   self.faults.check(\"good.point\");\n\
         \x20   self.faults.check_delay(\"good.point\");\n\
         \x20   self.faults.check(\"undoc.point\");\n\
         \x20   self.faults.check(\"untested.point\");\n\
         \x20   self.faults.check(\"rogue.point\");\n\
         }\n",
    );
    let tests = src(
        "tests/t.rs",
        "const REFS: &[&str] = &[\"good.point@1\", \"undoc.point\", \"unarmed.point\"];\n",
    );
    let report = analyze(&[fault, server, tests], &["failpoint-coverage"]);
    let got: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| {
            let which = [
                "good.point",
                "undoc.point",
                "unarmed.point",
                "untested.point",
                "stale.point",
                "rogue.point",
            ]
            .into_iter()
            .find(|n| f.message.contains(n))
            .expect("finding names its point");
            (f.path.as_str(), f.line, which)
        })
        .collect();
    assert_eq!(
        got,
        [
            // Registry-anchored findings (line of KNOWN_POINTS):
            ("crates/serve/src/fault.rs", 5, "undoc.point"), // no doc row
            ("crates/serve/src/fault.rs", 5, "unarmed.point"), // no call site
            ("crates/serve/src/fault.rs", 5, "untested.point"), // no test ref
            ("crates/serve/src/fault.rs", 5, "stale.point"), // stale doc row
            // Site-anchored findings:
            ("crates/serve/src/server.rs", 3, "good.point"), // second arming site
            ("crates/serve/src/server.rs", 6, "rogue.point"), // unregistered
        ],
        "{}",
        report.render(false)
    );
}

#[test]
fn dead_export_flags_pub_items_only_a_reexport_names() {
    let lib = src(
        "crates/demo/src/lib.rs",
        "pub mod util;\n\
         pub use util::{orphan, reexported};\n",
    );
    let util = src(
        "crates/demo/src/util.rs",
        "pub fn orphan() {}\n\
         pub const fn reexported() -> u8 { 1 }\n\
         pub(crate) fn crate_only() {}\n",
    );
    // Outside `crates/*/src` nothing is a candidate.
    let helper = src("tests/common.rs", "pub fn helper() {}\n");
    let report = analyze(&[lib, util, helper], &["dead-export"]);
    assert_eq!(
        places(&report),
        [
            ("crates/demo/src/lib.rs", 2),
            ("crates/demo/src/lib.rs", 2),
            ("crates/demo/src/util.rs", 1),
            ("crates/demo/src/util.rs", 2)
        ],
        "the orphan and the re-exported-only fn, never pub(crate), and both \
         re-exports, which nothing reaches through the root:\n{}",
        report.render(false)
    );
    assert!(report.findings.iter().all(|f| f.lint == "dead-export"));
}

#[test]
fn dead_export_counts_test_code_in_other_files_but_not_its_own() {
    let util = src(
        "crates/demo/src/util.rs",
        "pub fn used_by_tests_dir() {}\n\
         pub fn used_by_other_unit_tests() {}\n\
         pub fn used_by_own_tests_only() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   pub fn test_helpers_are_not_candidates() {}\n\
         \x20   #[test]\n\
         \x20   fn t() { super::used_by_own_tests_only(); }\n\
         }\n",
    );
    let other = src(
        "crates/demo/src/other.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() { crate::util::used_by_other_unit_tests(); }\n\
         }\n",
    );
    let it = src(
        "tests/it.rs",
        "#[test]\nfn it() { demo::util::used_by_tests_dir(); }\n",
    );
    let report = analyze(&[util, other, it], &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/util.rs", 3)],
        "{}",
        report.render(false)
    );
}

#[test]
fn dead_export_keeps_a_type_its_own_signatures_carry() {
    let shape = src(
        "crates/demo/src/shape.rs",
        "pub struct Carried;\n\
         pub struct Unused;\n\
         impl Unused {}\n\
         impl Clone for Unused { fn clone(&self) -> Self { Self } }\n\
         pub fn make() -> Carried { Carried }\n",
    );
    let it = src("tests/it.rs", "fn f() { demo::shape::make(); }\n");
    let report = analyze(&[shape, it], &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/shape.rs", 2)],
        "impl headers are not uses; a return type is:\n{}",
        report.render(false)
    );
}

#[test]
fn dead_export_type_exception_skips_own_tests_and_reexports() {
    let lib = src(
        "crates/demo/src/lib.rs",
        "pub mod shape;\n\
         pub use shape::Reexported;\n",
    );
    let shape = src(
        "crates/demo/src/shape.rs",
        "pub struct Tested;\n\
         pub struct Reexported;\n\
         pub use self::Reexported as Alias;\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn make() -> super::Tested { super::Tested }\n\
         }\n",
    );
    let report = analyze(&[lib, shape], &["dead-export"]);
    assert_eq!(
        places(&report),
        [
            ("crates/demo/src/lib.rs", 2),
            ("crates/demo/src/shape.rs", 1),
            ("crates/demo/src/shape.rs", 2)
        ],
        "a type named only by its own tests or a re-export is dead, and so \
         is the root re-export itself:\n{}",
        report.render(false)
    );
}

#[test]
fn dead_export_flags_every_candidate_item_kind() {
    let util = src(
        "crates/demo/src/util.rs",
        "pub fn plain() {}\n\
         pub const fn constant_fn() -> u8 { 0 }\n\
         pub const LIMIT: u8 = 0;\n\
         pub static COUNTER: u8 = 0;\n\
         pub struct Shape;\n\
         pub enum Mode {}\n\
         pub trait Probe {}\n\
         pub type Width = u8;\n",
    );
    let report = analyze(&[util], &["dead-export"]);
    assert_eq!(
        sites(&report),
        (1..=8)
            .map(|line| (line, "dead-export"))
            .collect::<Vec<_>>(),
        "{}",
        report.render(false)
    );
    let named = [
        "pub fn plain",
        "pub fn constant_fn",
        "pub const LIMIT",
        "pub static COUNTER",
        "pub struct Shape",
        "pub enum Mode",
        "pub trait Probe",
        "pub type Width",
    ];
    for (finding, item) in report.findings.iter().zip(named) {
        assert!(finding.message.contains(item), "{}", finding.message);
    }
}

#[test]
fn dead_export_never_flags_restricted_visibility() {
    let util = src(
        "crates/demo/src/util.rs",
        "pub(crate) fn crate_only() {}\n\
         pub(super) struct ParentOnly;\n\
         pub(in crate::demo) const PATH_ONLY: u8 = 0;\n\
         fn private() {}\n\
         pub fn public() {}\n",
    );
    let report = analyze(&[util], &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/util.rs", 5)],
        "only the plain-pub item is a candidate:\n{}",
        report.render(false)
    );
}

#[test]
fn dead_export_skips_modules_reexports_fields_and_variants() {
    let lib = src(
        "crates/demo/src/lib.rs",
        "pub mod shape;\n\
         pub mod unnamed_module;\n\
         pub use shape::Point as Spot;\n",
    );
    let shape = src(
        "crates/demo/src/shape.rs",
        "pub struct Point {\n\
         \x20   pub x: u8,\n\
         \x20   pub unnamed_field: u8,\n\
         }\n\
         pub enum Dir {\n\
         \x20   UnnamedVariant,\n\
         }\n",
    );
    // The root re-export is reached through the root, so the root-path
    // rule has nothing to say either.
    let it = src(
        "tests/it.rs",
        "fn f(_: demo::shape::Point, _: demo::shape::Dir, _: malec_demo::Spot) {}\n",
    );
    let report = analyze(&[lib, shape, it], &["dead-export"]);
    assert!(report.findings.is_empty(), "{}", report.render(false));
}

#[test]
fn dead_export_only_weighs_items_under_crates_src() {
    let sources = [
        src("crates/demo/src/lib.rs", "pub fn in_src() {}\n"),
        src("crates/demo/benches/b.rs", "pub fn in_bench() {}\n"),
        src("tests/common.rs", "pub fn in_tests() {}\n"),
        src("examples/demo.rs", "pub fn in_example() {}\n"),
        src("perfbench/src/main.rs", "pub fn in_perfbench() {}\n"),
    ];
    let report = analyze(&sources, &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/lib.rs", 1)],
        "{}",
        report.render(false)
    );
}

#[test]
fn dead_export_counts_benches_examples_and_perfbench_as_users() {
    let util = src(
        "crates/demo/src/util.rs",
        "pub fn for_bench() {}\n\
         pub fn for_example() {}\n\
         pub fn for_perfbench() {}\n\
         pub fn for_nobody() {}\n",
    );
    let bench = src(
        "crates/demo/benches/b.rs",
        "fn main() { demo::util::for_bench(); }\n",
    );
    let example = src(
        "examples/e.rs",
        "fn main() { demo::util::for_example(); }\n",
    );
    // A plain `use` is a use, unlike a `pub use` re-export.
    let perf = src(
        "perfbench/src/main.rs",
        "use demo::util::for_perfbench;\n\
         fn main() { for_perfbench(); }\n",
    );
    let report = analyze(&[util, bench, example, perf], &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/util.rs", 4)],
        "{}",
        report.render(false)
    );
}

#[test]
fn dead_export_ignores_names_in_comments_and_string_literals() {
    let util = src("crates/demo/src/util.rs", "pub fn orphan() {}\n");
    let other = src(
        "crates/demo/src/other.rs",
        "// orphan\n\
         /// orphan\n\
         /* orphan */\n\
         fn name() -> &'static str { \"orphan\" }\n\
         fn raw() -> &'static str { r#\"orphan\"# }\n",
    );
    let report = analyze(&[util, other], &["dead-export"]);
    assert_eq!(
        places(&report),
        [("crates/demo/src/util.rs", 1)],
        "{}",
        report.render(false)
    );
}

#[test]
fn dead_export_flags_root_reexports_no_file_reaches_through_the_root() {
    let lib = src(
        "crates/demo/src/lib.rs",
        "pub mod util;\n\
         pub use util::{Reached, ViaModule};\n\
         pub use util::Quoted as Renamed;\n\
         pub use util::{nested::{self, Deep}};\n\
         // malec_demo::ViaModule, in the root's own comment\n\
         fn own() -> util::Reached { malec_demo::Deep }\n",
    );
    let util = src(
        "crates/demo/src/util.rs",
        "pub struct Reached;\n\
         pub struct ViaModule;\n\
         pub struct Quoted;\n\
         pub mod nested { pub struct Deep; }\n\
         // A re-export outside a crate root is not weighed.\n\
         pub use self::Quoted as Unweighed;\n",
    );
    let it = src(
        "tests/it.rs",
        "use malec_demo::Reached;\n\
         fn f(_: Reached, _: malec_demo::util::ViaModule, _: malec_demo::util::nested::Deep) {}\n\
         // malec_demo::Renamed\n\
         const S: &str = \"malec_demo::nested\";\n\
         fn g(_: demo::Quoted, _: malec_demo::{util::Quoted}) {}\n",
    );
    let report = analyze(&[lib, util, it], &["dead-export"]);
    assert_eq!(
        places(&report),
        [
            ("crates/demo/src/lib.rs", 2),
            ("crates/demo/src/lib.rs", 3),
            ("crates/demo/src/lib.rs", 4),
            ("crates/demo/src/lib.rs", 4)
        ],
        "module paths, comments, strings, other crates' roots and the root's \
         own file never reach a root name:\n{}",
        report.render(false)
    );
    let named: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or_default())
        .collect();
    assert_eq!(
        named,
        [
            "malec_demo::ViaModule",
            "malec_demo::Renamed",
            "malec_demo::nested",
            "malec_demo::Deep"
        ]
    );
}

#[test]
fn dead_export_keeps_root_reexports_reached_through_the_root() {
    let lib = src(
        "crates/demo/src/lib.rs",
        "pub mod digest;\n\
         pub mod util;\n\
         pub use digest::digest;\n\
         pub use util::{Mode, Plain, Grouped, Renamed as Alias, nested::{self, Deep}};\n\
         pub use util::*;\n",
    );
    let util = src(
        "crates/demo/src/util.rs",
        "pub enum Mode { On }\n\
         pub struct Plain;\n\
         pub struct Grouped;\n\
         pub struct Renamed;\n\
         pub mod nested { pub struct Deep; }\n",
    );
    // The item rule needs its own user of the renamed struct.
    let digest = src(
        "crates/demo/src/digest.rs",
        "pub fn digest() {}\nfn own(_: crate::util::Renamed) {}\n",
    );
    let users = src(
        "perfbench/src/main.rs",
        "use malec_demo::{\n\
         \x20   Grouped,\n\
         \x20   Alias as Local,\n\
         \x20   Mode::On,\n\
         \x20   digest,\n\
         \x20   nested::Deep as _,\n\
         };\n\
         fn f() -> malec_demo::Plain { let _ = (Grouped, Local, On); digest(); malec_demo::Plain }\n\
         fn g(_: malec_demo::Deep) {}\n",
    );
    let report = analyze(&[lib, util, digest, users], &["dead-export"]);
    assert!(
        report.findings.is_empty(),
        "a plain path, a group item, a rename, an enum path, a name shared \
         with a module and a `self` leaf all count:\n{}",
        report.render(false)
    );
}

#[test]
fn a_dead_export_suppression_silences_exactly_one_finding() {
    let util = src(
        "crates/demo/src/util.rs",
        "// analyze: allow(dead-export) stands in for an API kept on purpose\n\
         pub fn kept() {}\n\
         pub fn dropped() {}\n",
    );
    let report = analyze(&[util], &["dead-export"]);
    assert_eq!(report.suppressed, 1);
    assert_eq!(
        sites(&report),
        [(3, "dead-export")],
        "{}",
        report.render(false)
    );
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

#[test]
fn suppressions_silence_one_site_demand_a_reason_and_rot_loudly() {
    let fixture = src(
        "crates/serve/src/json.rs",
        "fn f(x: Option<u8>) -> u8 {\n\
         \x20   // analyze: allow(panic-surface) fixture invariant holds by construction\n\
         \x20   x.unwrap()\n\
         }\n\
         fn g(x: Option<u8>) -> u8 {\n\
         \x20   // analyze: allow(panic-surface)\n\
         \x20   x.unwrap()\n\
         }\n\
         // analyze: allow(determinism) nothing below ever triggers this\n\
         fn h() {}\n",
    );
    let report = analyze(&[fixture], PASSES);
    assert_eq!(
        report.suppressed,
        2,
        "both unwraps silenced:\n{}",
        report.render(false)
    );
    assert_eq!(
        sites(&report),
        [(6, "annotation"), (9, "annotation")],
        "missing reason and dead suppression are findings:\n{}",
        report.render(false)
    );
    assert!(report.findings[0].message.contains("without a reason"));
    assert!(report.findings[1].message.contains("suppresses nothing"));
}

/// A suppression only reaches its own line and the line directly below —
/// a third-line finding still fires.
#[test]
fn a_suppression_does_not_leak_past_the_next_line() {
    let fixture = src(
        "crates/serve/src/json.rs",
        "// analyze: allow(panic-surface) covers only the next line\n\
         fn f(x: Option<u8>) { x.unwrap(); }\n\
         fn g(x: Option<u8>) { x.unwrap(); }\n",
    );
    let report = analyze(&[fixture], &["panic-surface"]);
    assert_eq!(report.suppressed, 1);
    assert_eq!(
        sites(&report),
        [(3, "panic-surface")],
        "{}",
        report.render(false)
    );
}
