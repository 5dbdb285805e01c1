//! Bench-regression gate: compares two `BENCH_*.json` perf-trajectory
//! artifacts and fails when any workload present in both regressed its
//! median by more than the threshold.
//!
//! ```sh
//! cargo run --release -p bofl-bench --bin bench_check -- <baseline> <candidate> \
//!     [--require <prefix>]...
//! ```
//!
//! Each positional argument is either a `BENCH_*.json` file or a
//! directory, in which case the lexicographically last `BENCH_*.json`
//! inside it is used (the dated naming scheme makes that the newest).
//! Workloads only present on one side are reported but never gate — new
//! benches must be landable without a baseline; on the *next* run they
//! are in the committed artifact and gate like any other.
//!
//! `--require <prefix>` (repeatable) additionally fails the gate when no
//! candidate workload name starts with the prefix — so whole workload
//! families (`mobo/`, `round/`) cannot silently vanish from the harness.
//!
//! Exit codes: `0` no regression, `1` at least one workload regressed or
//! a required family is missing, `2` usage or artifact-parsing error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Median regression beyond this fraction fails the gate.
const THRESHOLD: f64 = 0.20;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut required_prefixes = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--require" {
            match it.next() {
                Some(p) => required_prefixes.push(p),
                None => {
                    eprintln!("bench_check: --require needs a prefix argument");
                    return ExitCode::from(2);
                }
            }
        } else {
            positional.push(arg);
        }
    }
    let [baseline_arg, candidate_arg] = positional.as_slice() else {
        eprintln!(
            "usage: bench_check <baseline file|dir> <candidate file|dir> [--require <prefix>]..."
        );
        return ExitCode::from(2);
    };
    let (baseline_path, candidate_path) = match (
        resolve(Path::new(baseline_arg)),
        resolve(Path::new(candidate_arg)),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    let (baseline, candidate) = match (load(&baseline_path), load(&candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    println!("baseline:  {}", baseline_path.display());
    println!("candidate: {}\n", candidate_path.display());

    let mut regressions = 0usize;
    for (name, old_median) in &baseline {
        let Some(new_median) = candidate.iter().find(|(n, _)| n == name).map(|(_, m)| *m) else {
            println!("  ~ {name:<42} dropped from candidate (not gated)");
            continue;
        };
        let ratio = if *old_median > 0.0 {
            new_median / old_median
        } else {
            1.0
        };
        let delta_pct = (ratio - 1.0) * 100.0;
        let verdict = if ratio > 1.0 + THRESHOLD {
            regressions += 1;
            "REGRESSED"
        } else if ratio < 1.0 - THRESHOLD {
            "improved"
        } else {
            "ok"
        };
        println!(
            "  {verdict:>9}  {name:<42} {old_median:>9.2} -> {new_median:>9.2} ms ({delta_pct:+.1}%)"
        );
    }
    for (name, _) in &candidate {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("  + {name:<42} new in candidate (not gated)");
        }
    }

    let mut missing_families = 0usize;
    for prefix in &required_prefixes {
        if !candidate.iter().any(|(n, _)| n.starts_with(prefix)) {
            eprintln!("bench_check: required workload family \"{prefix}*\" missing from candidate");
            missing_families += 1;
        }
    }

    if regressions > 0 || missing_families > 0 {
        eprintln!(
            "\nbench_check: {regressions} workload(s) regressed beyond {:.0}%, {missing_families} required family(ies) missing",
            THRESHOLD * 100.0
        );
        ExitCode::from(1)
    } else {
        println!(
            "\nbench_check: no median regression beyond {:.0}%",
            THRESHOLD * 100.0
        );
        ExitCode::SUCCESS
    }
}

/// A file argument is used as-is; a directory argument resolves to the
/// lexicographically last `BENCH_*.json` it contains.
fn resolve(arg: &Path) -> Result<PathBuf, String> {
    if arg.is_file() {
        return Ok(arg.to_path_buf());
    }
    if arg.is_dir() {
        let mut candidates: Vec<PathBuf> = std::fs::read_dir(arg)
            .map_err(|e| format!("cannot read {}: {e}", arg.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        candidates.sort();
        return candidates
            .pop()
            .ok_or_else(|| format!("no BENCH_*.json in {}", arg.display()));
    }
    Err(format!("no such file or directory: {}", arg.display()))
}

/// Extracts `(name, median_ms)` pairs from a perf-trajectory artifact.
/// The format is the harness's own hand-rolled JSON — one bench object
/// per line — so a line scanner beats a full parser and vendors nothing.
fn load(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let median = field_num(line, "median_ms")
            .ok_or_else(|| format!("{}: bench \"{name}\" has no median_ms", path.display()))?;
        if !median.is_finite() || median < 0.0 {
            return Err(format!(
                "{}: bench \"{name}\" has invalid median_ms {median}",
                path.display()
            ));
        }
        out.push((name, median));
    }
    if out.is_empty() {
        return Err(format!("{}: no bench entries found", path.display()));
    }
    Ok(out)
}

/// `"key": "value"` on this line, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\": \"");
    let start = line.find(&pattern)? + pattern.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// `"key": <number>` on this line, if present.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\": ");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
