#!/usr/bin/env bash
# Build the benchmark (release, offline) and hand the arguments to it.
#
#   benchmark/run.sh [--seed S] [--seconds T]     every workload, end-to-end metrics
#   benchmark/run.sh --trace [--seed S]           every workload, traced lap + per-layer metrics
#   benchmark/run.sh compare A.json B.json        two run records, row by row
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                                 one workload, one JSON line (the driver's call)
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
# else to benchmark/target; cargo's own output goes to stderr, so stdout
# carries only the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/pp-benchmark" "$@"
