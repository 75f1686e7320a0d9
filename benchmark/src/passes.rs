//! Runs of every workload, each in a fresh process of this same binary:
//! the full pass, and the noise self-check that proves two sets of runs
//! of the same code agree before a number is trusted.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::spec::{EndToEnd, END_TO_END};
use crate::workload::WORKLOADS;

/// The metrics one child run printed, by name.
type RunMetrics = BTreeMap<String, f64>;

/// Runs one workload in a child process, passing its report through, and
/// returns the metrics of its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}",
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    let result: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let field = |value: &Value, key: &str| -> Option<Value> {
        let entries = value.as_object()?;
        entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let metrics = field(&result, "metrics").ok_or("result line has no metrics")?;
    let mut parsed = RunMetrics::new();
    for (name, entry) in metrics.as_object().ok_or("metrics is not an object")? {
        let value = match field(entry, "value") {
            Some(Value::Float(v)) => v,
            Some(Value::UInt(v)) => v as f64,
            Some(Value::Int(v)) => v as f64,
            _ => return Err(format!("{name} has no numeric value")),
        };
        parsed.insert(name.clone(), value);
    }
    Ok(parsed)
}

/// Every workload once, each in its own process.
pub fn full_pass(seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        if let Err(error) = run_child(workload.name, seed, seconds, traced) {
            eprintln!("{error}");
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is how the driver judges spread.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.len() < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let n = 4usize;
    let m = sorted.len() + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    cuts
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// By what share of `first` the metric got worse going to `second`
/// (negative when it got better).
fn worsening(metric: &EndToEnd, first: f64, second: f64) -> f64 {
    let change = (second - first) / first;
    if metric.better == "lower" {
        change
    } else {
        -change
    }
}

/// `runs` untraced runs of every workload in alternating order, each with
/// another seed; fails when a spread passes its metric's bound or when
/// the medians of the two interleaved halves disagree by more than it.
pub fn selfcheck(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut results: BTreeMap<&str, Vec<RunMetrics>> = BTreeMap::new();
    for run in 0..runs {
        let mut order: Vec<_> = WORKLOADS.iter().collect();
        if run % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            match run_child(workload.name, seed + run as u64, seconds, false) {
                Ok(metrics) => results.entry(workload.name).or_default().push(metrics),
                Err(error) => {
                    eprintln!("{error}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let mut agreed = true;
    println!(
        "\n{:<22} {:<24} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "a-vs-b", "bound"
    );
    for workload in WORKLOADS {
        let Some(all) = results.get(workload.name) else {
            continue;
        };
        for metric in END_TO_END {
            let values: Vec<f64> = all
                .iter()
                .filter_map(|r| r.get(metric.name).copied())
                .collect();
            let [q1, mid, q3] = quartiles(&values);
            let spread = (q3 - q1) / mid;
            let set = |parity: usize| -> Vec<f64> {
                let picked = values.iter().skip(parity).step_by(2);
                picked.copied().collect()
            };
            let (first, second) = (median(&set(0)), median(&set(1)));
            let drift = worsening(metric, first, second).max(worsening(metric, second, first));
            // setup_s is held to its bound on the medians only.
            let steady = metric.name == "setup_s" || spread <= metric.bound;
            let ok = steady && drift <= metric.bound;
            agreed &= ok;
            println!(
                "{:<22} {:<24} {q1:>12.3} {mid:>12.3} {q3:>12.3} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload.name,
                metric.name,
                spread * 100.0,
                drift * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "TOO NOISY" }
            );
        }
    }
    if agreed {
        ExitCode::SUCCESS
    } else {
        eprintln!("self-check failed: two sets of runs of the same code disagree");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }
}
