#!/usr/bin/env bash
# The console-script checks of the tier1 CI job: exit codes and outputs of
# the CLI on inputs the tests do not run through an installed entry point.
#
#   tools/console_script.sh fracprey
#   tools/console_script.sh python -m fracprey.cli
#
# The arguments are the command that runs the CLI.  Outputs go to a fresh
# temporary directory, removed on exit.  Needs bash and, for the one-CPU
# reproduce run, taskset.
set -eo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
cli=("$@")
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"${cli[@]}" --help
"${cli[@]}" thresholds --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.86 --d 1.06 \
  --m 0.95 --output "$tmp/t.csv"
grep -q '^s2,' "$tmp/t.csv"
# s2 underflows to 0 at r = 100, m = 0.004: a config error, exit 2
status=0
"${cli[@]}" thresholds --r 100 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 1.06 \
  --m 0.004 --output "$tmp/u.csv" 2> "$tmp/u.err" || status=$?
test "$status" -eq 2
grep -q 'float range' "$tmp/u.err"
# the gain 2/d of s1 is inf at the smallest subnormal d: exit 2
status=0
"${cli[@]}" thresholds --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 5e-324 \
  --m 0.9 --output "$tmp/v.csv" 2> "$tmp/v.err" || status=$?
test "$status" -eq 2
grep -q 'float range' "$tmp/v.err"
# 1 - c1 keeps 7 digits, and the transcritical Jury residual stays within
# the rounding bound of its entry: the sweep runs, exit 0
"${cli[@]}" sweep --r 78.0953046065382 --K 166291130.36944187 --alpha 51.40139183153161 \
  --h 0.000103855858725885 --theta 0.8566894680343942 --c 0.03355198973015889 --d 12.811150260460337 \
  --m 0.2168728395724311 --s-min 0.1 --s-max 0.2 --n-points 2 --n-samples 2 --transient 2 \
  --output "$tmp/w.csv"
grep -q '^param,x,y$' "$tmp/w.csv"
# a sweep whose orbits escape at s = 0.2 and 0.21, into a directory that
# does not exist: exit 4 and the one stderr line of the unwritable file
status=0
"${cli[@]}" sweep --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.05 --d 1.06 \
  --m 0.95 --s-min 0.18 --s-max 0.21 --n-points 4 --n-samples 5 --kick 1e-3 \
  --output "$tmp/no/such/dir/x.csv" 2> "$tmp/x.err" || status=$?
test "$status" -eq 4
test "$(wc -l < "$tmp/x.err")" -eq 1
grep -q '^cannot write output:' "$tmp/x.err"
if grep -q 'Traceback' "$tmp/x.err"; then exit 1; fi
# x0 on the prey pole x = -1/(alpha (1 - c) h) of the field: a numerical escape, exit 3
for run in "discrete --s 0.1 --iterations 5" "simulate --step 0.1 --horizon 1"; do
  status=0
  "${cli[@]}" $run --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 1.06 \
    --m 0.9 --x0=-924.5775836164851,1 --output "$tmp/p.csv" 2> "$tmp/p.err" || status=$?
  test "$status" -eq 3
  if grep -q 'Traceback' "$tmp/p.err"; then exit 1; fi
done
# an orbit that escapes at row 142, after its first block of 64 rows: exit
# 3, one stderr line, and the 142 rows before the escape under the header
status=0
"${cli[@]}" discrete --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 1.06 \
  --m 0.95 --s 0.57 --iterations 2000 --output "$tmp/e.csv" > "$tmp/e.out" 2> "$tmp/e.err" || status=$?
test "$status" -eq 3
test "$(wc -l < "$tmp/e.err")" -eq 1
test "$(cat "$tmp/e.err")" = "numerical escape after 141 iterations"
test "$(wc -l < "$tmp/e.csv")" -eq 143
if grep -q 'Traceback' "$tmp/e.out" "$tmp/e.err" "$tmp/e.csv"; then exit 1; fi
# discrete writes every row of its orbit and takes no transient: a usage
# error, exit 2, and no output file
status=0
"${cli[@]}" discrete --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 1.06 \
  --m 0.95 --s 0.1 --iterations 50 --transient 1 --output "$tmp/d.csv" 2> "$tmp/d.err" || status=$?
test "$status" -eq 2
grep -q 'unrecognized arguments: --transient 1' "$tmp/d.err"
test ! -e "$tmp/d.csv"
# the subcommand alone names the mode: a mode line in a config file is an
# unknown key, exit 2, one stderr line and no output file
printf 'mode = nonsense\nc = 0.45\n' > "$tmp/mode.cfg"
status=0
"${cli[@]}" equilibria --config "$tmp/mode.cfg" --r 2.65 --K 898 --alpha 0.045 --h 0.0437 \
  --theta 0.215 --d 1.06 --output "$tmp/m.csv" 2> "$tmp/m.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$tmp/m.err")" -eq 1
test "$(cat "$tmp/m.err")" = "config error: line 1: unknown key 'mode'"
test ! -e "$tmp/m.csv"
# a restarted sweep is never kicked: a kick without follow is exit 2, one
# stderr line and no output file
status=0
"${cli[@]}" sweep --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --c 0.45 --d 1.06 \
  --m 0.95 --s-min 0.18 --s-max 0.21 --n-points 4 --no-follow --kick 1e-3 \
  --output "$tmp/k.csv" 2> "$tmp/k.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$tmp/k.err")" -eq 1
grep -q '^config error: kick applies only in follow mode' "$tmp/k.err"
test ! -e "$tmp/k.csv"
# the region grid starts at the run's c: a --c-min is a usage error, a
# start outside [0, 1) or no grid point a config error with one stderr line;
# each exits 2 and writes no file
region=(region --r 2.65 --K 898 --alpha 0.045 --h 0.0437 --theta 0.215 --d 1.06 --c-max 0.1)
status=0
"${cli[@]}" "${region[@]}" --c 0.02 --c-points 5 --c-min 0.02 --output "$tmp/r1.csv" \
  2> "$tmp/r1.err" || status=$?
test "$status" -eq 2
grep -q 'unrecognized arguments: --c-min 0.02' "$tmp/r1.err"
test ! -e "$tmp/r1.csv"
status=0
"${cli[@]}" "${region[@]}" --c 1.5 --c-points 5 --output "$tmp/r2.csv" 2> "$tmp/r2.err" || status=$?
test "$status" -eq 2
test "$(cat "$tmp/r2.err")" = "config error: c must satisfy 0 <= c < 1, got 1.5"
test ! -e "$tmp/r2.csv"
status=0
"${cli[@]}" "${region[@]}" --c 0.02 --c-points 0 --output "$tmp/r3.csv" 2> "$tmp/r3.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$tmp/r3.err")" -eq 1
grep -q '^config error: c_points must be >= 1' "$tmp/r3.err"
test ! -e "$tmp/r3.csv"
# reproduce exits 0 and writes one directory of 11 files; summary.csv has 37
# rows under its header
status=0
"${cli[@]}" reproduce --output "$tmp/repro" > "$tmp/repro.out" || status=$?
test "$status" -eq 0
set -- "$tmp"/repro/reproduce-*
test "$#" -eq 1
test "$(ls "$1" | wc -l)" -eq 11
test "$(wc -l < "$1/summary.csv")" -eq 38
# on one usable CPU every analysis runs in the calling process: the same
# files, the same report on stdout after its first line (the output path),
# and the same exit status
status1=0
taskset -c 0 "${cli[@]}" reproduce --output "$tmp/repro1" > "$tmp/repro1.out" || status1=$?
test "$status1" -eq "$status"
diff <(tail -n +2 "$tmp/repro.out") <(tail -n +2 "$tmp/repro1.out")
diff -r "$1" "$tmp"/repro1/reproduce-*
echo "console script checks passed: ${cli[*]}"
