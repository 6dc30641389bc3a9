#!/usr/bin/env bash
# Builds the real `crowdtz-serve` binary and the benchmark from source, then
# runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload <backfill|dashboard|durable_restart> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last line of
# stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p crowdtz-serve --bin crowdtz-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/crowdtz-perfbench" --server "$target/release/crowdtz-serve" "$@"
