//! The benchmark's own tests: every workload at its smoke size (seconds
//! long, every check kept), traced and untraced, and the agreement of
//! `BENCHMARK.json` with the metrics the binary prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench")
}

/// The standard output of a smoke run.
fn smoke_output(workload: &str, trace: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    let out = bench(&args);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8")
}

/// The result line of a smoke run.
fn smoke(workload: &str, trace: &str) -> String {
    let stdout = smoke_output(workload, trace, &[]);
    stdout.lines().last().expect("a result line").to_string()
}

fn value_of(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("a unit follows")]
        .parse()
        .expect("a number")
}

#[test]
fn every_workload_passes_its_checks_with_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let line = smoke(workload, "0");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            assert!(value_of(&line, name) > 0.0, "{workload}: {name} reads 0");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for workload in WORKLOADS {
        let line = smoke(workload, "1");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {line}"
        );
        for (name, _) in PER_LAYER {
            assert!(value_of(&line, name) >= 0.0);
        }
        assert!(value_of(&line, "catalog.build_ms") > 0.0);
        assert!(value_of(&line, "inum.warmup_ms") > 0.0);
    }
}

#[test]
fn spans_in_a_file() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    let spans = tmp.join("spans.jsonl");
    smoke_output(
        "offline-sdss200",
        "1",
        &["--spans", spans.to_str().expect("utf-8 path")],
    );
    let text = std::fs::read_to_string(&spans).expect("spans written");
    let first = text.lines().next().expect("at least one span");
    assert!(
        first.starts_with("{\"run\": 3, \"id\": 0, \"parent\": null, "),
        "{first}"
    );
    assert!(text.contains("\"layer\": \"cophy\", \"name\": \"advise_index\", \"op\": false"));
    assert!(text.contains("\"name\": \"recommend\", \"op\": true"));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "{name}"
        );
    }
    let names = json.matches("{\"name\": ").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "online-durable", "--seconds", "-1"][..],
        &["--workload", "online-durable", "--trace", "2"][..],
        &["--seed", "1"][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
