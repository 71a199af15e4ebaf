#!/usr/bin/env bash
# Regenerate every paper table/figure (see DESIGN.md experiment index).
# Usage: ./run_benches.sh [scale] — scale multiplies each dataset's default size.
set -u
SCALE="${1:-1.0}"
RUNS="${2:-3}"
# serve_bench emits BENCH_serve.json:
#   throughput_speedup        — aggregate throughput of the shared-pool
#     multi-tenant run over replaying the same jobs serially,
#   shared/serial             — makespan, utilization, p50/p99 job latency
#     for each mode,
#   tenants_bit_identical_to_solo — asserted in-bench: every tenant's
#     match set equals a solo (ungated) run of the same job.
# serve_chaos emits BENCH_chaos.json:
#   cells                     — one entry per {policy x kill-round x
#     crowd-loss x pool-shrink} chaos cell: resume_identical and
#     zero_reasked are asserted in-bench (kill + resume reproduces the
#     uninterrupted run byte-for-byte without re-asking the crowd),
#   worst_recovery_overhead   — max (kill + resume) / reference wall time,
#   degraded_half_pool_slowdown — makespan ratio after losing half the
#     node pool mid-run (crowd waits mask most of the loss).
BINS=(table1 table2 table4 table5 fig9 fig10 sweep_physical sweep_ruleseq sweep_cluster sweep_sample sweep_iters sweep_workflow sweep_sampler kbb_recall serve_bench serve_chaos)
for bin in "${BINS[@]}"; do
  echo
  echo "##### $bin (scale $SCALE) #####"
  cargo run --release -q -p falcon-bench --bin "$bin" -- --scale "$SCALE" --runs "$RUNS" || echo "$bin FAILED"
done
echo
echo "##### table3 (per-run) #####"
cargo run --release -q -p falcon-bench --bin table2 -- --scale "$SCALE" --runs "$RUNS" --per-run || echo "table3 FAILED"
