//! Every backticked `*.rs` path in the project's documents names a file
//! that exists, so the docs cannot keep citing a module after it is
//! renamed or deleted.
//!
//! The test reads README.md, DESIGN.md, EXPERIMENTS.md and
//! perfbench/README.md and edits none of them. A path resolves when it is
//! one of:
//!
//! - repo-relative (`crates/ilp/src/profile.rs`);
//! - crate-name-relative, through the crate's directory or its `src/`
//!   (`bofl-control/tests/recovery.rs`, `bofl/exploit.rs`);
//! - the tail of a file in some crate: a bare file name (`guardian.rs`) or
//!   a path inside a crate (`tests/chaos_lanes.rs`).
//!
//! Spans inside fenced code blocks are skipped, and a `:line` suffix is
//! dropped before the lookup.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "perfbench/README.md",
];

/// The packages a doc path may name: `(package name, directory)`, the
/// directory relative to the repo root.
struct Crates {
    crates: Vec<(String, PathBuf)>,
    /// Every `.rs` file under a crate directory, relative to the repo root.
    files: Vec<PathBuf>,
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `name` of a manifest's `[package]` table.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let package = text.split("[package]").nth(1)?;
    package.lines().find_map(|line| {
        let value = line.trim().strip_prefix("name")?.trim().strip_prefix('=')?;
        Some(value.trim().trim_matches('"').to_string())
    })
}

/// Collects the `.rs` files under `dir` (relative to the repo root),
/// skipping build output and hidden directories.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(repo().join(dir)) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = dir.join(&*name);
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() && name != "target" && !name.starts_with('.') {
            rs_files(&path, out);
        } else if kind.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
}

impl Crates {
    /// The root package, every `crates/*` member and `perfbench`.
    fn scan() -> Self {
        let mut dirs = vec![PathBuf::new(), PathBuf::from("perfbench")];
        let members = fs::read_dir(repo().join("crates")).expect("crates/ directory");
        dirs.extend(
            members
                .flatten()
                .map(|e| Path::new("crates").join(e.file_name())),
        );
        let mut crates = Vec::new();
        let mut files = Vec::new();
        for dir in dirs {
            let Some(name) = package_name(&repo().join(&dir).join("Cargo.toml")) else {
                continue;
            };
            if dir.as_os_str().is_empty() {
                // The root package's sources; its other entries are
                // the member crates and documents.
                for sub in ["src", "tests", "examples", "benches"] {
                    rs_files(Path::new(sub), &mut files);
                }
            } else {
                rs_files(&dir, &mut files);
            }
            crates.push((name, dir));
        }
        Crates { crates, files }
    }

    fn resolves(&self, path: &str) -> bool {
        let path = Path::new(path);
        if repo().join(path).is_file() {
            return true;
        }
        let mut parts = path.components();
        let head = parts.next().map(|c| c.as_os_str().to_string_lossy());
        let rest = parts.as_path();
        let named = self
            .crates
            .iter()
            .filter(|(name, _)| Some(name.as_str()) == head.as_deref());
        for (_, dir) in named {
            let dir = repo().join(dir);
            if dir.join(rest).is_file() || dir.join("src").join(rest).is_file() {
                return true;
            }
        }
        self.files.iter().any(|file| file.ends_with(path))
    }
}

/// The backticked `*.rs` paths of a Markdown text, outside fenced code
/// blocks, each without its `:line` suffix.
fn rs_paths(markdown: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut prose = Vec::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push(line);
        }
    }
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut paths = Vec::new();
    for line in prose {
        for span in line.split('`').skip(1).step_by(2) {
            let path = span.split(':').next().unwrap_or_default();
            if path.ends_with(".rs") && path.chars().all(is_path_char) {
                paths.push(path);
            }
        }
    }
    paths
}

/// `doc: path` for every path in `text` that no file matches.
fn stale(crates: &Crates, doc: &str, text: &str) -> Vec<String> {
    rs_paths(text)
        .into_iter()
        .filter(|path| !crates.resolves(path))
        .map(|path| format!("{doc}: `{path}`"))
        .collect()
}

#[test]
fn every_backticked_rust_path_in_the_docs_resolves() {
    let crates = Crates::scan();
    let mut missing = Vec::new();
    let mut cited = 0;
    for doc in DOCS {
        let text = fs::read_to_string(repo().join(doc)).expect("document exists");
        cited += rs_paths(&text).len();
        missing.extend(stale(&crates, doc, &text));
    }
    assert!(cited > 0, "the documents cite no `.rs` path at all");
    assert!(
        missing.is_empty(),
        "paths no file matches:\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_planted_stale_path_is_reported() {
    let crates = Crates::scan();
    let doc = "\
- `crates/ilp/src/profile.rs`, `bofl/exploit.rs`, `bofl-control/tests/recovery.rs`,
  `guardian.rs:93`, `tests/chaos_lanes.rs` and `tests/doc_paths.rs` all exist.
- `explore.rs` and `bofl/construct.rs` do not, nor does `crates/core/src/explore.rs:12`.

```text
`fenced.rs` is skipped
```
";
    assert_eq!(
        stale(&crates, "planted", doc),
        [
            "planted: `explore.rs`",
            "planted: `bofl/construct.rs`",
            "planted: `crates/core/src/explore.rs`",
        ]
    );
}
