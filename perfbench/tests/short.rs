//! Every workload, in its short-input mode, passes its oracle checks
//! and reports every metric of its run type with the catalogue's unit;
//! the catalogue matches `BENCHMARK.json`; a debug build refuses to
//! report.

use perfbench::{run_workload, Report, RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn short_run(workload: &str, trace: bool) -> Report {
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.3,
        trace,
        short: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("short-{workload}-{}", u8::from(trace))),
    };
    let report = run_workload(workload, &cfg).expect("short run succeeds");
    assert!(
        report.correct(),
        "{workload} (trace {trace}): {} of {} operations failed",
        report.failed,
        report.attempted
    );
    let line = report.result_line(trace);
    for (name, unit) in Report::catalogue(trace) {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        assert!(
            line.contains(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )),
            "{workload}: {name} missing from {line}"
        );
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
        }
    }
    report
}

fn check(workload: &str) {
    short_run(workload, false);
    let traced = short_run(workload, true);
    assert!(traced.metrics.contains_key("trace.overhead_frac"));
}

#[test]
fn serve_short() {
    check("serve");
}

#[test]
fn ingest_short() {
    check("ingest");
}

#[test]
fn dict_10k_short() {
    check("dict_10k");
}

#[test]
fn batch_short() {
    check("batch");
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = RunConfig {
        seed: 1,
        seconds: 0.1,
        trace: false,
        short: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("short-unknown"),
    };
    assert!(run_workload("nope", &cfg).is_err());
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) not in BENCHMARK.json"
        );
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "{w} not in BENCHMARK.json"
        );
    }
    let listed = json.matches("\"unit\"").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
}

#[test]
#[cfg(debug_assertions)]
fn debug_build_refuses_to_report() {
    let args = [
        "--workload",
        "batch",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
