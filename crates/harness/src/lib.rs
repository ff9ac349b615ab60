//! Umbrella crate hosting the repository-level `examples/` and `tests/`
//! directories (Cargo requires examples and integration tests to belong to a
//! package; the interesting code lives in the other workspace crates, which
//! the examples and tests import directly).
//!
//! The library holds the helpers several integration tests share.

use std::path::PathBuf;

use malec_serve::json::parse;
use malec_serve::server::{ServeOptions, Server, ServerHandle};

/// A fresh directory `malec_<name>_<pid>` under the system temp directory.
/// The process id keeps two concurrent test runs out of each other's files.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("malec_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Starts a server on an ephemeral local port.
pub fn serve(opts: ServeOptions) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", opts)
        .expect("bind")
        .spawn()
        .expect("spawn")
}

/// The per-cell content of a server report — everything except timing.
pub fn report_cells(report: &str) -> String {
    let v = parse(report).expect("report is valid JSON");
    format!("{:?}", v.get("cells").expect("cells array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_dir_is_named_per_process_and_exists() {
        let dir = tmp_dir("harness_self_test");
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        assert_eq!(
            name,
            format!("malec_harness_self_test_{}", std::process::id())
        );
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn report_cells_ignores_everything_but_the_cells() {
        let a = r#"{"cells": [{"digest": "01"}], "wall_seconds": 1.5}"#;
        let b = r#"{"wall_seconds": 9.0, "cells": [{"digest": "01"}]}"#;
        let c = r#"{"cells": [{"digest": "02"}], "wall_seconds": 1.5}"#;
        assert_eq!(report_cells(a), report_cells(b));
        assert_ne!(report_cells(a), report_cells(c));
    }
}
