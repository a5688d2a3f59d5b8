"""Benchmark of fracprey: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload pece_long --seed 1 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
``--trace 0`` times whole passes with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads and the metric each layer should
move are described in ``bench/NOTES.md``.
"""

import os

# One thread per BLAS / OpenMP pool, for this process and every child it starts.
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the pinning above must precede numpy's import)
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import quad  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pece_long", "ensemble_envelope", "map_sweep", "reproduce_cli")
# Set-up probes per run, half before the passes and half after them.  Each
# is timed against reference interpreters started just before and after it,
# which import, from outside the repository, what fracprey imports; their
# time to READY was about 0.75 s on the machine this bench was built on
# (see NOTES.md).
SETUP_PROBES = 6
SETUP_REFERENCE = ("-c", "import numpy, scipy.integrate; print('READY', flush=True)")
SETUP_REFERENCE_S = 0.75
IMPORTTIME_RUNS = 3
REFERENCE_REPEATS = 5
REFERENCE_EVERY_S = 0.25
REFERENCE_MIN_SAMPLES = 15
MIN_OPS_FOR_PERCENTILES = 100
# The report table: the gated metric wall_rel, the eight end-to-end metrics
# NOTES.md lists and the unscaled set-up time; the ones a workload does not
# define print as n/a.
REPORTED = {"wall_rel": "ref", "setup_s": "s", "setup_raw_s": "s", "wall_s": "s",
            "work_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
            "fail_frac": "ratio", "oracle_err": "abs"}
LAYER_MODULES = ("fracprey", "fracprey.special", "fracprey.model", "fracprey.pece",
                 "fracprey.stability", "fracprey.discrete", "fracprey.bifurcation", "fracprey.cli")


def run_seconds():
    """The run length BENCHMARK.json fixes, the default for --seconds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_workloads():
    """Import the package from this checkout's src/ and the workload module."""
    if not (SRC / "fracprey" / "__init__.py").is_file():
        die(f"no package sources at {SRC / 'fracprey'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fracprey
    import workloads

    if Path(fracprey.__file__).resolve().parent != SRC / "fracprey":
        die(f"imported fracprey from {fracprey.__file__}, not from {SRC}")
    return workloads


# --- environment --------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in PINNED},
    }


# --- set-up time and import profile (fresh interpreters) -------------------------

def ready_seconds(argv):
    """Time from spawning a fresh interpreter with `argv` until it prints READY."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("set-up probe did not exit within 120 s")
    if line.strip() != "READY" or proc.returncode != 0:
        die(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
    return ready - start


def setup_probes(workload, seed, count):
    """(probe seconds, reference seconds) pairs; a probe's reference is the
    mean of the reference interpreters started just before and just after it."""
    probe = (str(Path(__file__).resolve().parent / "probe.py"), workload, str(seed))
    pairs = []
    before = ready_seconds(SETUP_REFERENCE)
    for _ in range(count):
        seconds = ready_seconds(probe)
        after = ready_seconds(SETUP_REFERENCE)
        pairs.append((seconds, (before + after) / 2))
        before = after
    return pairs


def import_profile():
    """Median self and cumulative import seconds per module from -X importtime."""
    runs = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fracprey.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            die(f"import of fracprey.cli failed: {proc.stderr.strip()[-500:]}")
        table = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue  # the header line
            table[fields[2].strip()] = (self_us * 1e-6, cumulative_us * 1e-6)
        runs.append(table)

    def median(module, index):
        return statistics.median(run.get(module, (0.0, 0.0))[index] for run in runs)

    out = {f"cli.import.{module}.self_s": median(module, 0) for module in LAYER_MODULES}
    out["cli.import.scipy.integrate.cumulative_s"] = median("scipy.integrate", 1)
    out["cli.import.total_s"] = median("fracprey", 1) + median("fracprey.cli", 1)
    return out


# --- passes -------------------------------------------------------------------

def run_passes(seconds, step):
    """Call step() while one more call is expected to end within `seconds`; at least once."""
    lengths = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        step()
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(lengths) > seconds:
            return


# The reference kernels: fixed bench-owned code that never touches fracprey.
# Each takes about 1 ms here and stands for one kind of work the workloads
# do, so timing them next to the passes tracks how fast the machine runs that
# kind of work at the moment.
REFERENCE_HISTORY = np.linspace(0.0, 1.0, 40_000).reshape(-1, 2)
REFERENCE_WEIGHTS = np.linspace(1.0, 2.0, 20_000)


def scalar_math():
    """Interpreter-bound float math, like the Mittag-Leffler series."""
    total = 0.0
    for k in range(1, 4_000):
        total += math.exp(-math.lgamma(0.9 * (k % 50) + 1.0))
    return total


def small_arrays():
    """numpy calls on 2-vectors, like rhs and the map step."""
    state = np.array([1.0, 2.0])
    for _ in range(300):
        state = state + 1e-3 * np.array([state[0] * 0.5, state[1] * 0.25])
    return state


def long_dots():
    """Reversed-kernel dot products over a long history, like the PECE convolution."""
    for n in range(1_000, 20_000, 500):
        REFERENCE_WEIGHTS[:n][::-1] @ REFERENCE_HISTORY[:n]


def quadrature():
    """scipy quad on a Python integrand, like the Mittag-Leffler integral."""
    for x in (5.0, 20.0, 40.0):
        quad(lambda u: math.exp(-u ** 1.1) / ((u - x) ** 2 + 1.0), 0.0, 50.0, limit=200)


# Share of each kernel in each workload's reference, after the traced
# profile of the workload (see NOTES.md).
REFERENCE_MIX = {
    "pece_long": {long_dots: 0.75, small_arrays: 0.2, quadrature: 0.05},
    "ensemble_envelope": {quadrature: 0.35, scalar_math: 0.35, small_arrays: 0.3},
    "map_sweep": {small_arrays: 0.85, scalar_math: 0.15},
    "reproduce_cli": {small_arrays: 0.7, scalar_math: 0.2, long_dots: 0.1},
}


def reference_seconds(workload):
    """The workload's reference time: its mix of the kernels' median times."""
    total = 0.0
    for kernel, share in REFERENCE_MIX[workload].items():
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        total += share * statistics.median(times)
    return total


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, args, workloads):
    setup = setup_probes(args.workload, args.seed, SETUP_PROBES // 2)
    wl.warm_up()
    ops_by_pass, durations, relative = [], [], []
    refs = [reference_seconds(wl.name)]
    last_ref = time.perf_counter()

    def sample_reference():
        nonlocal last_ref
        if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
            refs.append(reference_seconds(wl.name))
            last_ref = time.perf_counter()

    def step():
        nonlocal last_ref
        first = len(refs) - 1  # the sample taken just before this pass
        ops = workloads.run_pass(wl, after_op=sample_reference)
        # top up right after the pass: reproduce_cli has a single operation
        while len(refs) - first < REFERENCE_MIN_SAMPLES:
            refs.append(reference_seconds(wl.name))
        last_ref = time.perf_counter()
        ops_by_pass.append(ops)
        durations.append(sum(op.seconds for op in ops))
        # The pass in units of the reference sampled just before, during and
        # after it.  The mean, not the median: single samples fall into two
        # speed modes, and a median would jump between them from run to run.
        relative.append(durations[-1] / statistics.fmean(refs[first:]))

    run_passes(args.seconds, step)
    setup += setup_probes(args.workload, args.seed, SETUP_PROBES - len(setup))
    ops = [op for pass_ops in ops_by_pass for op in pass_ops]
    work = [sum(op.work for op in pass_ops) for pass_ops in ops_by_pass]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_rel": (statistics.median(relative), "ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        # Set-up time at the build machine's speed: each probe is scaled by
        # the reference interpreters around it, so the machine's drift between runs cancels.
        "setup_s": (SETUP_REFERENCE_S * statistics.median(p / r for p, r in setup), "s"),
    }
    failed = sum(not op.ok for op in ops)
    extra = {
        "wall_s": (statistics.median(durations), "s"),
        "work_per_s": (statistics.median(w / d for w, d in zip(work, durations)), "1/s"),
        "fail_frac": (failed / len(ops), "ratio"),
        "ref_s": (statistics.median(refs), "s"),
        "setup_raw_s": (statistics.median(p for p, _ in setup), "s"),
    }
    for kind in {op.kind for op in ops_by_pass[0]}:
        latencies = [op.seconds * 1e3 for op in ops if op.kind == kind]
        if len(latencies) >= MIN_OPS_FOR_PERCENTILES * len(ops_by_pass):
            extra["op_p50_ms"] = (statistics.median(latencies), "ms")
            extra["op_p90_ms"] = (percentile(latencies, 90), "ms")
    if getattr(wl, "oracle_err", None) is not None:
        extra["oracle_err"] = (wl.oracle_err, "abs")
    info = {"passes": len(durations), "pass_s": durations, "ref_s": refs, "setup_pairs_s": setup,
            "work_per_pass": work[0], "work_unit": wl.work_unit}
    return metrics, extra, ops, info


# --- traced run ---------------------------------------------------------------

def layer_metrics(tr, wall_s):
    """The per-layer metrics of one traced pass."""
    ml_calls = tr.stat("special.mittag_leffler", 0)
    steps = tr.counts["pece.steps"]
    orbits = tr.stat("discrete.iterate_orbit", 0)
    layers = tr.layer_self()
    m = {
        "special.mittag_leffler.calls": (ml_calls, "count"),
        "special.mittag_leffler.busy_s": (tr.stat("special.mittag_leffler", 1), "s"),
        "special.quad_frac": (tr.counts["special.quad_path"] / ml_calls if ml_calls else 0.0, "ratio"),
        "model.rhs.calls": (tr.stat("model.rhs", 0), "count"),
        "model.rhs.busy_s": (tr.stat("model.rhs", 1), "s"),
        "pece.pece_solve.calls": (tr.stat("pece.pece_solve", 0), "count"),
        "pece.pece_solve.busy_s": (tr.stat("pece.pece_solve", 1), "s"),
        "pece.pece_solve.self_s": (tr.stat("pece.pece_solve", 2), "s"),
        "pece.steps": (steps, "count"),
        "pece.rhs_per_step": (tr.stat("model.field", 0) / steps if steps else 0.0, "calls/step"),
        "stability.classify_equilibria.busy_s": (tr.stat("stability.classify_equilibria", 1), "s"),
        "stability.critical_order.busy_s": (tr.stat("stability.critical_order", 1), "s"),
        "stability.boundedness_envelope.self_s": (tr.stat("stability.boundedness_envelope", 2), "s"),
        "discrete.iterate_orbit.calls": (orbits, "count"),
        "discrete.iterate_orbit.busy_s": (tr.stat("discrete.iterate_orbit", 1), "s"),
        "discrete.iterate_orbit.self_s": (tr.stat("discrete.iterate_orbit", 2), "s"),
        "discrete.iterations": (tr.counts["discrete.iterations"], "count"),
        "discrete.escape_frac": (tr.counts["discrete.escaped"] / orbits if orbits else 0.0, "ratio"),
        "bifurcation.sweep_step_size.follow.self_s":
            (tr.stat("bifurcation.sweep_step_size.follow", 2), "s"),
        "bifurcation.sweep_step_size.restart.self_s":
            (tr.stat("bifurcation.sweep_step_size.restart", 2), "s"),
        "bifurcation.cluster_count.busy_s": (tr.stat("bifurcation.cluster_count", 1), "s"),
        "bifurcation.export_series.busy_s": (tr.stat("bifurcation.export_series", 1), "s"),
        "cli.write_csv.calls": (tr.stat("cli.write_csv", 0), "count"),
        "cli.write_csv.busy_s": (tr.stat("cli.write_csv", 1), "s"),
        "cli.rows_written": (tr.counts["cli.rows_written"], "count"),
        "cli.bytes_written": (tr.counts["cli.bytes_written"], "bytes"),
    }
    for layer, seconds in layers.items():
        if layer != "bench":
            m[f"layer.{layer}.self_s"] = (seconds, "s")
    m["trace.glue_s"] = (layers["bench"], "s")
    m["trace.wall_s"] = (wall_s, "s")
    return m


def traced(wl, args, workloads):
    wl.warm_up()
    tr = Tracer()
    untraced_s, per_pass, ops, spans = [], [], [], []

    def pair():
        start = time.perf_counter()
        ops.extend(workloads.run_pass(wl))
        untraced_s.append(time.perf_counter() - start)
        tr.reset()
        tr.install()
        try:
            start = time.perf_counter()
            ops.extend(tr.span("bench.pass", workloads.run_pass, wl))
            wall = time.perf_counter() - start
        finally:
            tr.uninstall()
        per_pass.append(layer_metrics(tr, wall))
        spans.append({"spans": tr.spans, "stats": tr.stats, "counts": dict(tr.counts)})

    run_passes(args.seconds, pair)
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics.update({name: (value, "s") for name, value in import_profile().items()})
    untraced = statistics.median(untraced_s)
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead"] = (metrics["trace.wall_s"][0] / untraced, "ratio")
    return metrics, ops, spans


def write_spans(args, env, passes):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                   "span_fields": ["name", "start_s", "end_s", "parent"],
                   "stat_fields": ["calls", "busy_s", "self_s"], "passes": passes}, fh)
    return path


# --- reporting ----------------------------------------------------------------

def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_traced(metrics):
    wall = metrics["trace.wall_s"][0]
    print("traced pass (median over traced passes):")
    accounted = 0.0
    for layer in LAYERS:
        seconds = metrics[f"layer.{layer}.self_s"][0]
        accounted += seconds
        print(f"  layer {layer:<12} self {seconds:10.4f} s  {100 * seconds / wall:5.1f} %")
    glue = metrics["trace.glue_s"][0]
    print(f"  bench glue         self {glue:10.4f} s  {100 * glue / wall:5.1f} %")
    print(f"  layers + glue           {accounted + glue:10.4f} s  vs traced wall_s {wall:.4f} s")
    print(f"  tracing overhead: traced wall_s / untraced wall_s = {metrics['trace.overhead'][0]:.3f}")
    for name in ("pece.pece_solve.self_s", "special.mittag_leffler.busy_s", "discrete.iterate_orbit.busy_s"):
        print(f"  share of traced wall_s: {name} = {100 * metrics[name][0] / wall:.1f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))
    print("inputs: " + wl.describe())

    if args.trace:
        metrics, ops, passes = traced(wl, args, workloads)
        path = write_spans(args, env, passes)
        report_traced(metrics)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, extra, ops, info = end_to_end(wl, args, workloads)
        print(f"passes {info['passes']}  work per pass {info['work_per_pass']} {info['work_unit']}")
        shown = {**metrics, **extra}
        for name in REPORTED:
            value, unit = shown.get(name, ("n/a", REPORTED[name]))
            print(f"  {name:<12} {fmt(value):>14} {unit}")
        print("report " + json.dumps({"workload": args.workload, "seed": args.seed, **info,
                                      "metrics": {k: v[0] for k, v in shown.items()}}))

    failures = [op for op in ops if not op.ok]
    for op in failures[:10]:
        print(f"FAILED {op.kind}: {op.error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
