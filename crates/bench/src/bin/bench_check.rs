//! CI gate for the bench trajectories: every headline bench must have
//! written a schema-valid `BENCH_<name>.json` to the repo root.
//!
//! Run after the bench smoke steps; exits non-zero (failing the job) if
//! any expected file is missing, unparsable, or violates the contract
//! checked by [`teeve_bench::validate_bench_json`].

use std::process::ExitCode;

/// The benches whose trajectories CI archives.
const EXPECTED: [&str; 4] = [
    "runtime_repair",
    "quality_delta",
    "coordinator_resync",
    "fleet_scale",
];

fn main() -> ExitCode {
    let mut failed = false;
    for name in EXPECTED {
        match teeve_bench::validate_bench_json(name) {
            Ok(report) => {
                println!("BENCH_{name}.json ok: {} metric(s)", report.metrics.len());
                for (key, value) in &report.metrics {
                    println!("  {key} = {value}");
                }
            }
            Err(err) => {
                eprintln!("BENCH_{name}.json FAILED: {err}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
