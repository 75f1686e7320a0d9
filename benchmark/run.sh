#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it; every argument goes
# to the program. See README.md.
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace 1            every workload, per-layer metrics + span files
#   benchmark/run.sh --selfcheck 10       noise self-check
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
