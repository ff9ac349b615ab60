//! `malec-analyze` — run the workspace-invariant lints from the shell.
//!
//! ```text
//! malec-analyze [--root DIR] [--pass NAME]... [--dump-graph]
//! ```
//!
//! With no `--root`, walks up from the current directory to the
//! workspace root. With no `--pass`, runs all five passes. Exits 1 if
//! any finding survives suppression — the CI contract.

use std::process::ExitCode;

use malec_analyze::{analyze, find_root, load_workspace, PASSES};

fn usage() -> String {
    format!(
        "usage: malec-analyze [--root DIR] [--pass NAME]... [--dump-graph]\n\
         passes: {} (default: all)",
        PASSES.join(", ")
    )
}

fn main() -> ExitCode {
    let mut root = None;
    let mut passes: Vec<String> = Vec::new();
    let mut dump_graph = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(std::path::PathBuf::from(dir)),
                None => return fail("--root needs a directory"),
            },
            "--pass" => match args.next() {
                Some(name) if PASSES.contains(&name.as_str()) => passes.push(name),
                Some(name) => return fail(&format!("unknown pass `{name}`")),
                None => return fail("--pass needs a name"),
            },
            "--dump-graph" => dump_graph = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => return fail("not inside a MALEC workspace (and no --root given)"),
    };

    let sources = match load_workspace(&root) {
        Ok(s) => s,
        Err(e) => return fail(&format!("failed to read workspace: {e}")),
    };

    let selected: Vec<&str> = if passes.is_empty() {
        PASSES.to_vec()
    } else {
        passes.iter().map(String::as_str).collect()
    };
    let report = analyze(&sources, &selected);
    print!("{}", report.render(dump_graph));
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("malec-analyze: {msg}\n{}", usage());
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_pass() {
        let text = usage();
        assert_eq!(PASSES.len(), 5, "{PASSES:?}");
        for pass in PASSES {
            assert!(text.contains(pass), "--help omits `{pass}`:\n{text}");
        }
    }
}
