#!/usr/bin/env bash
# Golden outputs of the simulator-backed `paper` targets.
#
# Each file here is the exact stdout of one `paper` invocation at the quick
# scale. The simulator is deterministic, so any byte that moves is a change
# in behaviour: a refactor must leave every file identical.
#
#   crates/bench/golden/check.sh [path/to/paper]           # compare
#   crates/bench/golden/check.sh [path/to/paper] --update  # rewrite
#
# The binary defaults to target/release/paper (build it with
# `cargo build --release -p sbc-bench` first).
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
paper=${1:-target/release/paper}
update=${2:-}

runs=(
  "fig7.csv      fig7 --csv"
  "fig8.csv      fig8 --csv"
  "fig9.csv      fig9 --csv"
  "fig10.csv     fig10 --csv"
  "fig11.csv     fig11 --csv"
  "fig12.csv     fig12 --csv"
  "fig13.csv     fig13 --csv"
  "fig14.csv     fig14 --csv"
  "ablations.csv ablations --csv"
  "table1.txt    table1"
  "patterns.txt  patterns"
  "trace.txt     trace"
  "planner.txt   planner"
  "topo.txt      topo --nodes 12 --nt 16 --block 128"
  "topo28.txt    topo --nodes 28 --nt 24 --block 500"
)

failed=0
for run in "${runs[@]}"; do
  read -r file args <<< "$run"
  # shellcheck disable=SC2086 # the arguments are meant to split
  if [ "$update" = --update ]; then
    "$paper" $args 2>/dev/null > "$dir/$file"
  elif ! "$paper" $args 2>/dev/null | cmp - "$dir/$file"; then
    echo "golden mismatch: paper $args (crates/bench/golden/$file)"
    failed=1
  fi
done
exit $failed
