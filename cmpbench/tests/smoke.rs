//! The benchmark's own tests: a tiny-scale smoke run of every workload in
//! both modes, and negative cases for the correctness checks.

use cmpbench::jobs::{run_job, RunSpec};
use cmpbench::out::{MetricDef, END_TO_END, PER_LAYER};
use cmpsim_core::{ArchKind, CpuKind};
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_benchmark_emits() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

/// Runs the benchmark binary once at tiny scale and returns its stdout.
fn smoke(workload: &str, trace: &str) -> String {
    let dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_cmpbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--scale", "0.05"])
        .current_dir(&dir)
        // Knobs that would change the measured program if they leaked in.
        .env("CMPSIM_SHARDS", "3")
        .env("CMPSIM_TRACE_OUT", dir.join("leaked.trace"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir.join("leaked.trace").exists(),
        "CMPSIM_TRACE_OUT reached the simulator"
    );
    stdout
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_on_every_workload() {
    for workload in ["paper_suite", "explore_replay", "mesh64"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let stdout = smoke(workload, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": ")
                    && last.contains("\"failed\": 0, \"metrics\": {"),
                "{workload}: {last}"
            );
            for (name, unit) in declared(section) {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace}: no {name}"));
                let rest = &last[at + key.len()..];
                let (value, tail) = rest.split_once(',').expect("value then unit");
                let v: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
                assert!(v.is_finite(), "{workload}: {name} = {value}");
                assert!(
                    tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} unit"
                );
            }
            let record = stdout
                .lines()
                .find(|l| l.starts_with("record: "))
                .expect("a record line");
            for field in [
                "\"host_cpus\": ",
                "\"git_rev\": ",
                "\"seed\": 3",
                "\"samples\": {",
            ] {
                assert!(record.contains(field), "{workload}: record lacks {field}");
            }
            assert!(
                record.contains("\"cleared_env\": [\"CMPSIM_SHARDS\", \"CMPSIM_TRACE_OUT\"]"),
                "{workload}: {record}"
            );
        }
    }
}

fn volpack(golden: Option<u64>) -> RunSpec {
    RunSpec {
        kernel: "volpack",
        arch: ArchKind::SharedL1,
        cpu: CpuKind::Mipsy,
        n_cpus: 4,
        scale: 1.0,
        golden,
    }
}

#[test]
fn a_wrong_published_count_fails_the_run_and_counts_in_fail_frac() {
    let (ok, ok_runs) = run_job(&[volpack(Some(166100))]);
    assert_eq!((ok.attempted, ok.failed, ok.golden), (1, 0, (1, 1)));

    // Half the operations miss the check: fail_frac = failed / attempted = 0.5.
    let (bad, bad_runs) = run_job(&[volpack(Some(166101)), volpack(None)]);
    assert_eq!((bad.attempted, bad.failed, bad.golden), (2, 1, (0, 1)));
    assert!(
        bad.errors[0].contains("published 166101"),
        "{:?}",
        bad.errors
    );
    assert_eq!(
        bad_runs[0].digest, ok_runs[0].digest,
        "the simulation itself is unchanged"
    );
}

#[test]
fn a_run_that_errors_counts_as_failed() {
    let mut spec = volpack(None);
    spec.kernel = "no-such-kernel";
    let (s, _) = run_job(&[spec, volpack(None)]);
    assert_eq!((s.attempted, s.failed), (2, 1));
    assert!(s.errors.iter().any(|e| e.contains("no-such-kernel")));
}
