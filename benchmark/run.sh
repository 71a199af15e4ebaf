#!/usr/bin/env bash
# Build the benchmark package (release, offline) and run it from wherever
# this is called; every argument goes to the binary (README.md explains them).
#
#   benchmark/run.sh [--workload <name>|all] [--seed 1] [--instance 1]
#                    [--seconds 10 | --reps N] [--trace 0|1] [--out file] [--smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr so stdout ends with the result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/falcon-e2e-bench" "$@"
