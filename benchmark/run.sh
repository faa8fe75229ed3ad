#!/usr/bin/env bash
# Build the benchmark, run every workload and record the result.
#
#   benchmark/run.sh <label> [seed] [repeats]
#
# writes benchmark/out/<label>.json (end-to-end metrics, one value per
# repeat) and benchmark/out/<label>.trace.json (per-layer metrics), each
# stamped with nproc, the load average and the git revision, plus one
# trace-<workload>.jsonl span file per workload. Compare two labels with
#
#   cargo run --release --manifest-path benchmark/Cargo.toml -- \
#       compare benchmark/out/A.json benchmark/out/B.json
#
# Seed 1 is the working seed; seed 2 is held out: a claim made on seed 1
# must also hold on seed 2.
set -euo pipefail
label=${1:?usage: benchmark/run.sh <label> [seed] [repeats]}
seed=${2:-1}
repeats=${3:-3}
here=$(cd "$(dirname "$0")" && pwd)
rev=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
mkdir -p "$here/out"

bench() {
    cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
}
bench run --seed "$seed" --repeats "$repeats" --rev "$rev" --json "$here/out/$label.json"
bench trace --seed "$seed" --rev "$rev" --json "$here/out/$label.trace.json"
echo "recorded $here/out/$label.json and $label.trace.json"
