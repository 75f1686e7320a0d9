//! Runs every workload at 1/100 scale and holds the printed result to the
//! contract: names, units and workloads exactly as `BENCHMARK.json` has
//! them, every value finite.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_teeve-benchmark");

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|entries| entries.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    field(value, key).as_str().expect("a string")
}

fn benchmark_json() -> (String, Value) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let parsed = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    (raw, parsed)
}

#[test]
fn benchmark_json_is_the_programs_own_spec() {
    let output = Command::new(BIN)
        .arg("--spec")
        .output()
        .expect("run --spec");
    assert!(output.status.success());
    let (raw, parsed) = benchmark_json();
    assert_eq!(String::from_utf8_lossy(&output.stdout), raw);
    let setup = field(&parsed, "end_to_end")
        .as_array()
        .expect("an array")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

#[test]
fn every_workload_runs_quick_and_prints_the_contracted_metrics() {
    let (_, spec) = benchmark_json();
    let workloads = field(&spec, "workloads").as_array().expect("an array");
    assert!((2..=8).contains(&workloads.len()));
    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let name = text(workload, "name");
            let output = Command::new(BIN)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "7",
                    "--quick",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            assert_eq!(field(&result, "failed"), &Value::UInt(0));
            assert!(matches!(field(&result, "attempted"), Value::UInt(n) if *n >= 1));

            let printed = field(&result, "metrics").as_object().expect("an object");
            let expected = field(&spec, section).as_array().expect("an array");
            let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            let expected_names: Vec<&str> = expected.iter().map(|m| text(m, "name")).collect();
            assert_eq!(printed_names, expected_names, "{name} --trace {trace}");
            for ((metric, entry), want) in printed.iter().zip(expected) {
                assert_eq!(text(entry, "unit"), text(want, "unit"), "{metric}");
                let finite = match field(entry, "value") {
                    Value::Float(v) => v.is_finite(),
                    Value::UInt(_) | Value::Int(_) => true,
                    _ => false,
                };
                assert!(finite, "{name}: {metric} is not a finite number");
            }
        }
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("traced runs create out/")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|file| file.ends_with(".log"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "store logs left behind: {leftovers:?}"
    );
}
