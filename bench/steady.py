"""Steadiness check: two sets of runs of the same code, spread against bound.

    python3 bench/steady.py [--workloads map_sweep ...]

Each run is ``bench/run.py --trace 0`` with its own seed (set k of SETS uses
seeds 1 + k*RUNS ... RUNS + k*RUNS), one after another, with ``run_seconds``
from BENCHMARK.json.  For every end-to-end metric and workload it prints each
set's median and its spread, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
and how much worse the second set's median is than the first's, both
against the metric's bound.  It also prints the median of every metric in
the runs' reports, the ungated ones included.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SETS = 2
RUNS = 10


def run_once(workload, seed):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    if not result["correct"]:
        print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed",
              file=sys.stderr)
    return result, report


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        sets, reports = [], []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = 1 + k * RUNS + i
                result, report = run_once(workload, seed)
                ok &= result["correct"]
                runs.append({name: m["value"] for name, m in result["metrics"].items()})
                reports.append(report["metrics"])
                print(f"  {workload} set {k + 1} seed {seed}: "
                      + "  ".join(f"{n}={v:.5g}" for n, v in runs[-1].items())
                      + f"  (wall_s={report['metrics']['wall_s']:.5g})", flush=True)
            sets.append(runs)

        print(f"\n{workload}")
        print(f"  {'metric':<12} {'unit':<6} {'bound':>6}  " + "  ".join(
            f"{'median' + str(k + 1):>11} {'spread' + str(k + 1):>8}" for k in range(SETS))
            + "  second worse by")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[run[name] for run in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            line = f"  {name:<12} {metric['unit']:<6} {bound:>6.3f}  " + "  ".join(
                f"{m:>11.5g} {s:>7.3f}{'!' if s > bound else ('~' if s > bound / 3 else ' ')}"
                for m, s in zip(medians, spreads))
            drift = worse_by(medians[0], medians[-1], metric["better"])
            line += f"  {drift:>+8.3f}{' !' if drift > bound else ''}"
            ok &= drift <= bound and all(s <= bound for s in spreads)
            print(line)
        print("  every reported metric, median over the runs that report it:")
        for name in dict.fromkeys(name for r in reports for name in r):
            values = [r[name] for r in reports if name in r]
            print(f"    {name:<12} {statistics.median(values):.6g}")
    print("\n'!' marks a spread above the bound (or a second median worse by more than it), "
          "'~' a spread above a third of the bound.")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
