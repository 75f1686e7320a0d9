//! `teeve-benchmark`: the repo's one repeatable benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints, as the last line of standard
//! output, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics untraced, the per-layer metrics traced. Without
//! `--workload` every workload runs, each in a fresh process (peak RSS is
//! per process); `--selfcheck N` runs them N times and checks that two
//! interleaved sets of runs agree within the metrics' bounds. See
//! `README.md`.

mod layers;
mod passes;
mod procstat;
mod rig;
mod run;
mod spec;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::Outcome;
use workload::WORKLOADS;

/// Seconds a `--quick` run measures: 1/100 of a full run.
const QUICK_SECONDS: f64 = spec::RUN_SECONDS as f64 / 100.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: Option<usize>,
    /// Print the text of `BENCHMARK.json` and exit.
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        selfcheck: None,
        spec: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.seconds = QUICK_SECONDS,
            "--spec" => args.spec = true,
            "--selfcheck" => {
                args.selfcheck = Some(value()?.parse().map_err(|e| format!("--selfcheck: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `benchmark/out`: the only directory the benchmark writes to.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The contract's result line.
fn result_json(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (index, metric) in outcome.metrics.iter().enumerate() {
        if index > 0 {
            line.push(',');
        }
        // `{}` prints an f64 with every digit needed to read it back.
        let value = if metric.value.is_finite() {
            metric.value.to_string()
        } else {
            "null".to_string()
        };
        write!(
            line,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(workload) = workload::find(name) else {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "# workload {} seed {} seconds {} traced {}",
        workload.name, args.seed, args.seconds, args.traced
    );
    println!(
        "# closed loop, {} client(s); harness thread + Reactor::new(1); available_parallelism {}; \
         traffic crosses the host's loopback interface (127.0.0.1)",
        workload.sessions,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match run::run(workload, args.seed, args.seconds, args.traced, &out_dir()) {
        Ok(outcome) => {
            for metric in &outcome.metrics {
                println!("{:<40} {:>16.4} {}", metric.name, metric.value, metric.unit);
            }
            for failure in &outcome.failures {
                eprintln!("FAILED: {failure}");
            }
            println!("{}", result_json(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("{}: {error}", workload.name);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: [--workload <name>] [--seed <n>] [--seconds <s> | --quick] \
                 [--trace <0|1>] [--selfcheck <N>] [--spec]"
            );
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(runs) = args.selfcheck {
        return passes::selfcheck(runs, args.seed, args.seconds);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => passes::full_pass(args.seed, args.seconds, args.traced),
    }
}
