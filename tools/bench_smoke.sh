#!/usr/bin/env bash
# The bench-smoke checks of CI: every workload of bench/run.py, end to end
# and traced, must end in a JSON line with "correct": true.  The tier-1
# tests never import bench/, so a public-API change that breaks the
# benchmark shows only here.
#
#   tools/bench_smoke.sh python3
#
# The arguments are the command of the Python interpreter that runs
# bench/run.py; run from the repository root.  Each run takes about 2 s of
# timed passes plus its set-up.
set -eo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 PYTHON..." >&2
  exit 2
fi
python=("$@")
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for workload in pece_long ensemble_envelope map_sweep reproduce_cli; do
  for trace in 0 1; do
    echo "::group::$workload --trace $trace"
    "${python[@]}" bench/run.py --workload "$workload" --seed 1 --seconds 2 --trace "$trace" | tee "$tmp/bench.txt"
    echo "::endgroup::"
    tail -n 1 "$tmp/bench.txt" | "${python[@]}" -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)' \
      || { echo "$workload --trace $trace: not correct"; exit 1; }
  done
done
echo "bench smoke runs passed"
