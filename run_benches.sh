#!/usr/bin/env bash
# Regenerate every paper table/figure (see DESIGN.md experiment index).
# Usage: ./run_benches.sh [scale] — scale multiplies each dataset's default size.
set -u
SCALE="${1:-1.0}"
RUNS="${2:-3}"
# serve_bench and serve_chaos print their tables and assert in-bench:
# every tenant's matches equal a solo run of the same job, and every
# chaos cell's kill + resume reproduces the uninterrupted run
# byte-for-byte without re-asking the crowd.
BINS=(table1 table2 table4 table5 fig9 fig10 sweep_physical sweep_ruleseq sweep_cluster sweep_sample sweep_iters sweep_workflow sweep_sampler kbb_recall serve_bench serve_chaos)
for bin in "${BINS[@]}"; do
  echo
  echo "##### $bin (scale $SCALE) #####"
  cargo run --release -q -p falcon-bench --bin "$bin" -- --scale "$SCALE" --runs "$RUNS" || echo "$bin FAILED"
done
echo
echo "##### table3 (per-run) #####"
cargo run --release -q -p falcon-bench --bin table2 -- --scale "$SCALE" --runs "$RUNS" --per-run || echo "table3 FAILED"
