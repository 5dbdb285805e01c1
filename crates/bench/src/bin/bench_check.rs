//! Benchmark regression gate: runs the parent's and the change's
//! `perfbench` back to back on one host and fails when the change alters
//! an outcome or a layer count, or slows a metric beyond its bound.
//!
//! ```sh
//! cargo run --release -p bofl-bench --bin bench_check -- <parent perfbench> <change perfbench>
//! ```
//!
//! Workloads, metrics, their orientation (`better`) and bounds come from
//! the repository's `BENCHMARK.json`. Each workload runs [`PAIRS`] pairs
//! with `--trace 0`, and with `--trace 1` [`PAIRS`] pairs where a layer
//! timing is gated ([`LAYER_BOUNDS`]) and one pair elsewhere. Pairs
//! alternate which side runs first. The rules:
//!
//! - (i) every run of both sides prints `correct: true`, and its
//!   `attempted`, outcome metrics ([`OUTCOMES`]) and notes ([`NOTES`])
//!   read exactly what the parent's first run in the same mode printed;
//! - (ii) so does every per-layer metric counted in `count/…` or
//!   `bytes/…` units;
//! - (iii) every other end-to-end metric, and each layer of
//!   [`LAYER_BOUNDS`], has a median paired ratio, oriented so that above
//!   1 is worse, of at most 1 + its bound.
//!
//! A workload the parent's binary rejects (usage error, exit 2) is new:
//! the change runs it once per mode and it is not gated.
//!
//! Exit codes: `0` every rule holds, `1` a rule failed, `2` no verdict: a
//! usage error, a failed run, or output that is not perfbench's.

use std::collections::BTreeMap;
use std::fmt;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The benchmark's declaration: workloads, metrics, orientation, bounds.
const SPEC: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json"));
/// Pairs per workload and mode: five keep a full gate near ten minutes
/// on two cores, and one outlier pair cannot move the median far.
const PAIRS: usize = 5;
/// End-to-end metrics that are outcomes, not timings: a change keeps
/// them bit for bit.
const OUTCOMES: [&str; 3] = [
    "energy_j_per_client_round",
    "deadline_met_pct",
    "update_delivered_pct",
];
/// Printed notes that are outcomes: BoFL's saving and regret on
/// `paper_pace`.
const NOTES: [&str; 2] = ["energy_saved_vs_performant_pct", "regret_vs_oracle_pct"];
/// Layer timings gated like end-to-end metrics: workload, layer, bound.
/// The surrogate's fit and scan are most of `paper_pace`; they keep the
/// 20% bound the earlier absolute gate gave them.
const LAYER_BOUNDS: [(&str, &str, f64); 1] = [("paper_pace", "mobo.update_ms", 0.20)];
/// Deepest JSON nesting accepted; perfbench's output nests three deep.
const MAX_DEPTH: usize = 8;

/// Why the gate could not reach a verdict.
#[derive(Debug)]
enum GateError {
    /// Text that should be perfbench's report or `BENCHMARK.json` is not.
    Malformed { what: String, reason: String },
    /// A value the rules need is absent, or not a number.
    MissingMetric { what: String, metric: String },
    /// A binary could not be run, or its run failed.
    Run(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Malformed { what, reason } => write!(f, "{what}: {reason}"),
            GateError::MissingMetric { what, metric } => {
                write!(f, "{what}: {metric} is missing or not a number")
            }
            GateError::Run(why) => f.write_str(why),
        }
    }
}

/// Flattens one JSON document into `path → value`, the path joining
/// object keys and array indices with dots. Strings lose their quotes;
/// numbers and literals keep their printed text, so rule (i) compares
/// exactly what perfbench printed.
fn flatten(text: &str, what: &str) -> Result<BTreeMap<String, String>, GateError> {
    let (mut rest, mut flat) = (text, BTreeMap::new());
    let mut done = flatten_value(&mut rest, String::new(), 0, &mut flat);
    if done.is_ok() && !rest.trim().is_empty() {
        done = Err("trailing text".to_string());
    }
    done.map(|()| flat).map_err(|e| GateError::Malformed {
        what: what.to_string(),
        reason: format!("{e} at byte {}", text.len() - rest.len()),
    })
}

/// Flattens the value at the front of `s` under `path`, advancing past it.
fn flatten_value(
    s: &mut &str,
    path: String,
    depth: usize,
    flat: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    *s = s.trim_start();
    let close = match s.chars().next() {
        Some('{') => '}',
        Some('[') => ']',
        Some('"') => {
            flat.insert(path, parse_string(s)?);
            return Ok(());
        }
        _ => {
            let len = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                .unwrap_or(s.len());
            let atom = &s[..len];
            let number = atom.parse().is_ok_and(f64::is_finite);
            if !number && !["true", "false", "null"].contains(&atom) {
                return Err(format!("bad value {atom:?}"));
            }
            flat.insert(path, atom.to_string());
            *s = &s[len..];
            return Ok(());
        }
    };
    if depth == MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    *s = &s[1..];
    for i in 0.. {
        *s = s.trim_start();
        if i == 0 && s.starts_with(close) {
            break;
        }
        let key = match close {
            '}' => {
                let key = parse_string(s)?;
                expect(s, ':')?;
                key
            }
            _ => i.to_string(),
        };
        let path = if path.is_empty() {
            key
        } else {
            format!("{path}.{key}")
        };
        flatten_value(s, path, depth + 1, flat)?;
        *s = s.trim_start();
        if s.starts_with(close) {
            break;
        }
        expect(s, ',')?;
    }
    *s = &s[1..];
    Ok(())
}

fn expect(s: &mut &str, c: char) -> Result<(), String> {
    let rest = s.trim_start().strip_prefix(c);
    *s = rest.ok_or_else(|| format!("expected {c:?}"))?;
    Ok(())
}

/// A string without escapes; neither perfbench nor `BENCHMARK.json`
/// writes any.
fn parse_string(s: &mut &str) -> Result<String, String> {
    expect(s, '"')?;
    let end = s.find(['"', '\\']).ok_or("unterminated string")?;
    if s[end..].starts_with('\\') {
        return Err("escape in string".to_string());
    }
    let text = s[..end].to_string();
    *s = &s[end + 1..];
    Ok(text)
}

#[derive(Debug)]
struct Metric {
    name: String,
    unit: String,
    /// `better: higher`; otherwise lower is better.
    higher: bool,
    bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, GateError> {
        let what = "BENCHMARK.json";
        let bad = |reason: String| GateError::Malformed {
            what: what.to_string(),
            reason,
        };
        let flat = flatten(text, what)?;
        let field = |list: &str, i: usize, key: &str| {
            flat.get(&format!("{list}.{i}.{key}")).map(String::as_str)
        };
        let names = |list: &str| {
            let names = (0..).map_while(|i| field(list, i, "name").map(str::to_string));
            names.collect::<Vec<_>>()
        };
        let metrics = |list: &str| -> Result<Vec<Metric>, GateError> {
            let metric = |(i, name)| {
                let higher = match field(list, i, "better") {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(bad(format!("{name} is better neither higher nor lower"))),
                };
                let unit =
                    field(list, i, "unit").ok_or_else(|| bad(format!("{name} has no unit")))?;
                let bound = field(list, i, "bound").map(|b| {
                    let bound = b.parse::<f64>().ok().filter(|b| *b >= 0.0);
                    bound.ok_or_else(|| bad(format!("{name} has bound {b}")))
                });
                Ok(Metric {
                    name,
                    unit: unit.to_string(),
                    higher,
                    bound: bound.transpose()?,
                })
            };
            names(list).into_iter().enumerate().map(metric).collect()
        };
        let workloads = names("workloads");
        if workloads.is_empty() {
            return Err(bad("no workloads".to_string()));
        }
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// One perfbench run's printed values by name: `correct`, `attempted`,
/// each metric's value, and each note (a line ending in `(not gated, …)`).
#[derive(Debug, Clone, Default)]
struct Run(BTreeMap<String, String>);

impl Run {
    fn parse(stdout: &str, what: &str) -> Result<Run, GateError> {
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        let mut run = Run::default();
        for (path, value) in flatten(last.unwrap_or(""), what)? {
            let metric = path.strip_prefix("metrics.");
            match metric.and_then(|p| p.strip_suffix(".value")) {
                Some(name) => run.0.insert(name.to_string(), value),
                None if !path.contains('.') => run.0.insert(path, value),
                None => None,
            };
        }
        for line in stdout.lines().filter(|l| l.contains("(not gated")) {
            let mut words = line.split_whitespace().map(str::to_string);
            if let (Some(name), Some(value)) = (words.next(), words.next()) {
                run.0.insert(name, value);
            }
        }
        Ok(run)
    }

    fn get(&self, name: &str, what: &str) -> Result<&str, GateError> {
        let value = self.0.get(name).map(String::as_str);
        value.ok_or_else(|| GateError::MissingMetric {
            what: what.to_string(),
            metric: name.to_string(),
        })
    }
}

/// One rule's verdict on one metric.
#[derive(Debug)]
struct Check {
    rule: &'static str,
    name: String,
    pass: bool,
    detail: String,
}

/// Rules (i) and (ii): every value reads exactly what the first does.
fn identical(rule: &'static str, name: &str, values: &[&str]) -> Check {
    let odd = values.iter().find(|v| **v != values[0]);
    let detail = match odd {
        None => format!("= {}", values[0]),
        Some(v) => format!("expected {}, a run read {v}", values[0]),
    };
    Check {
        rule,
        name: name.to_string(),
        pass: odd.is_none(),
        detail,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The two middle values; one value twice when the count is odd.
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// Rule (iii): the median over pairs of the change's value over the
/// parent's, oriented so that above 1 is worse, is within 1 + `bound`.
fn within_bound(
    m: &Metric,
    bound: f64,
    sides: [&[Run]; 2],
    what: &str,
) -> Result<Check, GateError> {
    let number = |r: &Run| {
        let value = r.get(&m.name, what)?;
        value.parse::<f64>().map_err(|_| GateError::MissingMetric {
            what: what.to_string(),
            metric: format!("{} = {value}", m.name),
        })
    };
    let [p, c] = sides.map(|runs| runs.iter().map(number).collect::<Result<Vec<_>, _>>());
    let (p, c) = (p?, c?);
    let paired = |(&p, &c): (&f64, &f64)| match m.higher {
        _ if p == c => 1.0,
        true => p / c,
        false => c / p,
    };
    let ratio = median(&p.iter().zip(&c).map(paired).collect::<Vec<_>>());
    let (pm, cm) = (median(&p), median(&c));
    Ok(Check {
        rule: "iii",
        name: m.name.clone(),
        pass: ratio <= 1.0 + bound,
        detail: format!(
            "median ratio {ratio:.3}, bound {:.2} (parent {pm:.4}, change {cm:.4})",
            1.0 + bound
        ),
    })
}

/// The rules for one workload, given each side's untraced and traced
/// runs in pair order. `parent` is `None` when the parent's binary
/// rejected the workload: it is new, and not gated.
fn compare(
    spec: &Spec,
    workload: &str,
    parent: Option<&[Vec<Run>; 2]>,
    change: &[Vec<Run>; 2],
) -> Result<Vec<Check>, GateError> {
    let Some(parent) = parent else {
        let detail = "the parent rejects this workload; not gated".to_string();
        return Ok(vec![Check {
            rule: "new",
            name: workload.to_string(),
            pass: true,
            detail,
        }]);
    };
    let mut checks = Vec::new();
    for (traced, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
        let what = format!("{workload} --trace {}", u8::from(traced));
        let sides = [
            &parent[usize::from(traced)][..],
            &change[usize::from(traced)],
        ];
        let runs: Vec<&Run> = sides.iter().flat_map(|runs| runs.iter()).collect();
        let printed = |name: &str| -> Result<Vec<&str>, GateError> {
            runs.iter().map(|&r| r.get(name, &what)).collect()
        };
        checks.push(identical(
            "i",
            "correct",
            &[vec!["true"], printed("correct")?].concat(),
        ));
        checks.push(identical("i", "attempted", &printed("attempted")?));
        for note in NOTES {
            let values: Vec<&str> = runs
                .iter()
                .map(|r| r.0.get(note).map_or("-", String::as_str))
                .collect();
            if values.iter().any(|v| *v != "-") {
                checks.push(identical("i", note, &values));
            }
        }
        for m in metrics {
            let count = m.unit.starts_with("count/") || m.unit.starts_with("bytes/");
            let layer = LAYER_BOUNDS
                .iter()
                .find(|b| b.0 == workload && b.1 == m.name);
            if !traced && OUTCOMES.contains(&m.name.as_str()) {
                checks.push(identical("i", &m.name, &printed(&m.name)?));
            } else if traced && count {
                checks.push(identical("ii", &m.name, &printed(&m.name)?));
            } else if let Some(bound) = if traced { layer.map(|b| b.2) } else { m.bound } {
                checks.push(within_bound(m, bound, sides, &what)?);
            }
        }
    }
    Ok(checks)
}

/// Runs one perfbench; `None` when it rejects the workload (exit 2).
fn perfbench(
    bin: &str,
    workload: &str,
    traced: bool,
    what: &str,
) -> Result<Option<Run>, GateError> {
    let start = Instant::now();
    let trace = if traced { "1" } else { "0" };
    let out = Command::new(bin)
        .args(["--workload", workload, "--trace", trace])
        .output()
        .map_err(|e| GateError::Run(format!("{what}: cannot run {bin}: {e}")))?;
    eprintln!("  {what}: {:.1} s", start.elapsed().as_secs_f64());
    match out.status.code() {
        Some(0) => Run::parse(&String::from_utf8_lossy(&out.stdout), what).map(Some),
        Some(2) => Ok(None),
        _ => {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let last = stderr.lines().last().unwrap_or("");
            Err(GateError::Run(format!(
                "{what} exited with {}: {last}",
                out.status
            )))
        }
    }
}

/// Runs `workload` in alternating pairs and applies the rules.
fn gate_workload(spec: &Spec, bins: [&str; 2], workload: &str) -> Result<Vec<Check>, GateError> {
    // sides[side][traced], side 0 the parent.
    let mut sides: [[Vec<Run>; 2]; 2] = Default::default();
    let mut new = false;
    let layer_gated = LAYER_BOUNDS.iter().any(|b| b.0 == workload);
    for traced in [false, true] {
        let pairs = if traced && !layer_gated { 1 } else { PAIRS };
        // Alternate the order, so drift in the host's load falls on both
        // sides alike. A new workload runs once per mode, on the change.
        for pair in 0..pairs {
            for side in [pair % 2, 1 - pair % 2] {
                if new && side == 0 {
                    continue;
                }
                let who = ["parent", "change"][side];
                let what = format!(
                    "{workload} --trace {} {who} pair {}",
                    u8::from(traced),
                    pair + 1
                );
                match perfbench(bins[side], workload, traced, &what)? {
                    Some(run) => sides[side][usize::from(traced)].push(run),
                    None if side == 0 => new = true,
                    None => return Err(GateError::Run(format!("{what} rejected the workload"))),
                }
            }
            if new {
                break;
            }
        }
    }
    compare(spec, workload, (!new).then_some(&sides[0]), &sides[1])
}

/// Runs the gate over every workload; returns the number of failed checks.
fn gate(parent: &str, change: &str) -> Result<usize, GateError> {
    let spec = Spec::parse(SPEC)?;
    let mut failed = 0;
    for workload in &spec.workloads {
        eprintln!("{workload}:");
        let checks = gate_workload(&spec, [parent, change], workload)?;
        println!("{workload}");
        for c in &checks {
            let verdict = if c.pass { "ok" } else { "FAIL" };
            println!("  {verdict:>4} ({}) {:<32} {}", c.rule, c.name, c.detail);
        }
        failed += checks.iter().filter(|c| !c.pass).count();
    }
    Ok(failed)
}

/// `0` pass, `1` failed checks, `2` no verdict.
fn exit_code(result: &Result<usize, GateError>) -> u8 {
    match result {
        Ok(0) => 0,
        Ok(_) => 1,
        Err(_) => 2,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: bench_check <parent perfbench> <change perfbench>");
        return ExitCode::from(2);
    };
    let result = gate(parent, change);
    match &result {
        Ok(0) => println!("\nbench_check: every rule holds"),
        Ok(n) => eprintln!("\nbench_check: {n} check(s) failed"),
        Err(e) => eprintln!("\nbench_check: {e}"),
    }
    ExitCode::from(exit_code(&result))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line perfbench printed for `scale_1m --trace 0`, shortened.
    const LINE: &str = r#"{"correct": true, "attempted": 5734400, "failed": 0, "metrics": {"round_ms.p50": {"value": 4.557716, "unit": "ms"}, "energy_j_per_client_round": {"value": 123.8526496508789, "unit": "J"}}}"#;

    fn spec() -> Spec {
        Spec::parse(SPEC).expect("BENCHMARK.json parses")
    }

    /// `PAIRS` runs per mode that read 10 for every metric but `plain`
    /// (untraced) and `traced`.
    fn runs(plain: &[(&str, f64)], traced: &[(&str, f64)]) -> [Vec<Run>; 2] {
        let spec = spec();
        let run = |metrics: &[Metric], overrides: &[(&str, f64)]| {
            let mut run = Run(metrics
                .iter()
                .map(|m| (m.name.clone(), "10.0".into()))
                .collect());
            for (name, value) in [
                ("correct", "true"),
                ("attempted", "400"),
                (NOTES[0], "19.1234"),
            ] {
                run.0.insert(name.into(), value.into());
            }
            for (name, value) in overrides {
                run.0.insert(name.to_string(), format!("{value:?}"));
            }
            vec![run; PAIRS]
        };
        [run(&spec.end_to_end, plain), run(&spec.per_layer, traced)]
    }

    /// The names of the checks that fail on `workload`.
    fn failed(workload: &str, parent: &[Vec<Run>; 2], change: &[Vec<Run>; 2]) -> Vec<String> {
        let checks = compare(&spec(), workload, Some(parent), change).expect("a verdict");
        checks
            .into_iter()
            .filter(|c| !c.pass)
            .map(|c| c.name)
            .collect()
    }

    #[test]
    fn the_committed_spec_gates_every_rule() {
        let spec = spec();
        assert_eq!(spec.workloads, ["paper_pace", "fleet_control", "scale_1m"]);
        let side = runs(&[], &[]);
        let checks = compare(&spec, "paper_pace", Some(&side), &side).expect("a verdict");
        assert!(checks.iter().all(|c| c.pass));
        let gated: Vec<(&str, &str)> = checks.iter().map(|c| (c.rule, c.name.as_str())).collect();
        for name in OUTCOMES.into_iter().chain(NOTES[..1].iter().copied()) {
            assert!(gated.contains(&("i", name)), "{name}");
        }
        for check in [
            ("iii", "setup_s"),
            ("ii", "mobo.updates"),
            ("iii", "mobo.update_ms"),
        ] {
            assert!(gated.contains(&check), "{check:?}");
        }
    }

    #[test]
    fn an_outcome_mismatch_fails_rule_i() {
        let energy = 123.8526496508789_f64;
        let parent = runs(&[("energy_j_per_client_round", energy)], &[]);
        let ulp = f64::from_bits(energy.to_bits() + 1);
        let mut change = parent.clone();
        change[0][3] = runs(&[("energy_j_per_client_round", ulp)], &[])[0][0].clone();
        assert_eq!(
            failed("scale_1m", &parent, &change),
            ["energy_j_per_client_round"]
        );

        let mut change = parent.clone();
        change[0][2].0.insert("correct".into(), "false".into());
        change[0][1].0.insert(NOTES[0].into(), "19.1235".into());
        change[1][0].0.insert("attempted".into(), "401".into());
        let want = ["correct", NOTES[0], "attempted"];
        assert_eq!(failed("paper_pace", &parent, &change), want);
    }

    #[test]
    fn a_layer_count_mismatch_fails_rule_ii() {
        let parent = runs(&[], &[("fleet.compress_calls", 409_600.0)]);
        let mut change = parent.clone();
        change[1][0]
            .0
            .insert("fleet.compress_calls".into(), "409601.0".into());
        assert_eq!(
            failed("scale_1m", &parent, &change),
            ["fleet.compress_calls"]
        );
        // Layer timings outside `LAYER_BOUNDS` are not gated.
        let mut change = parent.clone();
        change[1][0]
            .0
            .insert("fleet.compress_ms".into(), "1e6".into());
        assert!(failed("scale_1m", &parent, &change).is_empty());
    }

    #[test]
    fn the_median_paired_ratio_is_oriented_and_includes_its_bound() {
        // `client_rounds_per_s` is better higher and `setup_s` lower; both
        // bounds are 0.25, so 100 → 80 and 4 → 5 sit on the edge.
        let parent = runs(&[("client_rounds_per_s", 100.0), ("setup_s", 4.0)], &[]);
        let edge = runs(&[("client_rounds_per_s", 80.0), ("setup_s", 5.0)], &[]);
        assert!(failed("fleet_control", &parent, &edge).is_empty());
        let beyond = runs(&[("client_rounds_per_s", 79.9), ("setup_s", 5.01)], &[]);
        let both = ["setup_s", "client_rounds_per_s"];
        assert_eq!(failed("fleet_control", &parent, &beyond), both);

        // Gains pass, and two slow pairs of five leave the median alone.
        let mut change = runs(&[("client_rounds_per_s", 200.0), ("setup_s", 1.0)], &[]);
        for pair in [0, 4, 2] {
            assert!(failed("fleet_control", &parent, &change).is_empty());
            change[0][pair]
                .0
                .insert("client_rounds_per_s".into(), "1.0".into());
        }
        assert_eq!(
            failed("fleet_control", &parent, &change),
            ["client_rounds_per_s"]
        );

        // The surrogate layer keeps a 20% bound, on `paper_pace` only.
        let parent = runs(&[], &[("mobo.update_ms", 1000.0)]);
        let change = runs(&[], &[("mobo.update_ms", 1200.0)]);
        assert!(failed("paper_pace", &parent, &change).is_empty());
        let change = runs(&[], &[("mobo.update_ms", 1201.0)]);
        assert_eq!(failed("paper_pace", &parent, &change), ["mobo.update_ms"]);
        assert!(failed("scale_1m", &parent, &change).is_empty());
    }

    #[test]
    fn a_workload_the_parent_rejects_is_new_and_not_gated() {
        let change = runs(&[("setup_s", 1e9)], &[]);
        let checks = compare(&spec(), "paper_pace", None, &change).expect("a verdict");
        assert_eq!(checks.len(), 1);
        assert_eq!((checks[0].rule, checks[0].pass), ("new", true));
    }

    #[test]
    fn perfbench_output_parses_with_its_notes() {
        let note = "  compression_ratio   7.5294 x   (not gated, first episode)";
        let run = Run::parse(&format!("workload scale_1m\n{note}\n{LINE}\n"), "run");
        let run = run.expect("perfbench's report parses");
        let read = |name| run.get(name, "run").ok();
        assert_eq!(read("correct"), Some("true"));
        assert_eq!(read("attempted"), Some("5734400"));
        assert_eq!(read("energy_j_per_client_round"), Some("123.8526496508789"));
        assert_eq!(read("round_ms.p50"), Some("4.557716"));
        assert_eq!(read("compression_ratio"), Some("7.5294"));
    }

    #[test]
    fn bad_output_is_a_typed_error_and_exit_2() {
        let mut bad = vec![
            format!("{LINE}}}"),
            format!("{}1{}", "[".repeat(99), "]".repeat(99)),
        ];
        bad.extend([0, 1, 30, LINE.len() / 2, LINE.len() - 1].map(|cut| LINE[..cut].to_string()));
        bad.extend(
            [
                ("4.55", "4x55"),
                ("4.557716", "inf"),
                (",", ""),
                ("ms", "m\\s"),
                ("true", "tr\u{e9}e"),
            ]
            .map(|(from, to)| LINE.replacen(from, to, 1)),
        );
        for text in &bad {
            let err = Run::parse(text, "run").expect_err(text);
            assert!(
                matches!(err, GateError::Malformed { .. }),
                "{text:?}: {err}"
            );
            assert_eq!(exit_code(&Err(err)), 2);
        }

        let spec_edits = [
            ("\"bound\": 0.25", "\"bound\": -1"),
            ("\"higher\"", "\"up\""),
        ];
        for (from, to) in spec_edits {
            let err = Spec::parse(&SPEC.replacen(from, to, 1)).expect_err(to);
            assert!(matches!(err, GateError::Malformed { .. }), "{to}: {err}");
        }

        // A value the rules need that a run lacks, or printed as null.
        let parent = runs(&[], &[]);
        for (name, value) in [
            ("round_ms.p90", None),
            ("setup_s", Some("null")),
            ("correct", None),
        ] {
            let mut change = parent.clone();
            change[0][1].0.remove(name);
            if let Some(value) = value {
                change[0][1].0.insert(name.into(), value.into());
            }
            let err = compare(&spec(), "scale_1m", Some(&parent), &change).expect_err(name);
            assert!(
                matches!(&err, GateError::MissingMetric { metric, .. } if metric.starts_with(name))
            );
            assert_eq!(exit_code(&Err(err)), 2);
        }
        assert_eq!((exit_code(&Ok(0)), exit_code(&Ok(3))), (0, 1));
    }
}
