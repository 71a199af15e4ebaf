#!/usr/bin/env bash
# Run the full set twice on the same build and compare the two: the
# benchmark's own noise check. For every end-to-end metric x workload,
#   regressed   the two reported values differ by more than the metric's bound
#   unresolved  within one set, (max - min) / median of the repetitions
#               exceeds the bound, so the comparison proves nothing
# Exit status is non-zero if anything regressed or a set failed its checks.
#
#   benchmark/repeat_check.sh [arguments for run.sh, e.g. --instance 2]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-$here/target}/repeat-check"
mkdir -p "$out"

for set in a b; do
    echo "== set $set ==" >&2
    "$here/run.sh" --workload all --trace 0 "$@" --out "$out/$set.json" > "$out/$set.log"
done

python3 - "$out/a.json" "$out/b.json" <<'PY'
import json, sys

a, b = (json.load(open(p)) for p in sys.argv[1:3])
regressed, unresolved, failed = [], [], []
for wa, wb in zip(a["workloads"], b["workloads"]):
    for which, w in (("a", wa), ("b", wb)):
        if not w["correct"] or w["failed"]:
            failed.append(f'{w["name"]} (set {which}): {w["failures"]}')
    for name, ma in wa["end_to_end"].items():
        mb = wb["end_to_end"][name]
        bound = ma["bound"]
        base = abs(ma["value"]) or 1.0
        diff = abs(mb["value"] - ma["value"]) / base
        spread = max((m["max"] - m["min"]) / (abs(m["median"]) or 1.0) for m in (ma, mb))
        row = (f'{wa["name"]:<24} {name:<28} a {ma["value"]:.6g} b {mb["value"]:.6g} '
               f'{ma["unit"]:<10} diff {diff:.2%} spread {spread:.2%} bound {bound:.0%}')
        print(row)
        if spread > bound:
            unresolved.append(row)
        if diff > bound:
            regressed.append(row)

for title, rows in (("unresolved (spread > bound)", unresolved),
                    ("regressed (values differ by more than the bound)", regressed),
                    ("failed checks", failed)):
    print(f"\n{title}: {len(rows)}")
    for r in rows:
        print("  " + r)
sys.exit(1 if regressed or failed else 0)
PY
