"""Seeded inputs, timed passes and output checks for the four workloads.

Every call into the package goes through a module attribute looked up at
call time (``fp.pece_solve``, ``fp.cli.main``), so the traced run can swap
in its wrappers without this file knowing about them.  All four workloads
run in the calling process.

A workload object draws all of its inputs from the seed in ``__init__``
(that is part of the measured set-up time) and lists the operations of one
pass in ``operations()``; every pass runs the same list.  Each operation runs
the package, checks what came back, and is recorded as passed or failed,
with anything it raises counted as a failure.
"""

import contextlib
import csv
import io
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import fracprey as fp
import fracprey.cli  # noqa: F401  (binds fp.cli for reproduce_cli)

# The paper's parameter set; c is the habitat complexity that selects the
# regime (0.86 predator-free attractor, 0.45 stable coexistence, 0.05
# order-dependent coexistence).
BASE = dict(r=2.65, K=898.0, alpha=0.045, h=0.0437, theta=0.215, d=1.06)

# Initial states are drawn from this box: larger predator densities make the
# explicit PECE step overshoot into negative prey and blow up at h = 0.1.
X0_PREY = (5.0, 400.0)
X0_PREDATOR = (1.0, 120.0)


class OpFailure(AssertionError):
    """An operation's output failed its check."""


def check(condition, message):
    if not condition:
        raise OpFailure(message)


class Op:
    """Outcome of one timed operation."""

    __slots__ = ("kind", "seconds", "ok", "error", "work")

    def __init__(self, kind, seconds, ok, error, work):
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        self.error = error
        self.work = work


def run_op(kind, fn, args):
    """Time fn(*args); fn returns the work units it completed."""
    t0 = time.perf_counter()
    try:
        work = fn(*args)
        ok, error = True, None
    except Exception as exc:  # a failing operation is counted, not fatal
        work, ok, error = 0, False, f"{type(exc).__name__}: {exc}"
    return Op(kind, time.perf_counter() - t0, ok, error, work)


def run_pass(wl, after_op=None):
    """Run every operation of one pass in order; after_op() runs untimed between them."""
    ops = []
    for kind, fn, args in wl.operations():
        ops.append(run_op(kind, fn, args))
        if after_op is not None:
            after_op()
    return ops


def params(c):
    return fp.ModelParams(c=c, **BASE)


def draw_x0(rng):
    return (float(rng.uniform(*X0_PREY)), float(rng.uniform(*X0_PREDATOR)))


def check_envelope(p, m, traj, eta, stride=1):
    """V = x + y/theta stays under the Mittag-Leffler envelope at the nodes."""
    x0, y0 = traj.states[0]
    v0 = x0 + y0 / p.theta
    nodes = range(0, len(traj.times), stride)
    bound = np.array([fp.boundedness_envelope(p, m, eta, v0, float(traj.times[i])) for i in nodes])
    states = traj.states[::stride]
    weighted = states[:, 0] + states[:, 1] / p.theta
    excess = weighted - bound * (1.0 + 1e-9) - 1e-9
    worst = int(np.argmax(excess))
    check(excess[worst] <= 0.0, f"V={weighted[worst]:.6g} above envelope {bound[worst]:.6g} "
          f"at t={traj.times[worst * stride]:.6g}")


def check_near(state, target, rel, what):
    target = np.asarray(target, dtype=float)
    dist = float(np.linalg.norm(np.asarray(state) - target))
    check(dist <= rel * float(np.linalg.norm(target)),
          f"{what}: end state {np.round(state, 6)} is {dist:.3g} from {np.round(target, 6)}")


# --- pece_long -------------------------------------------------------------

class PeceLong:
    """A few full-memory PECE trajectories of 20k steps each."""

    name = "pece_long"
    work_unit = "PECE steps"
    STEPS = 20_000
    STEP = 0.05
    STRIDE = 100           # envelope checked at every 100th node
    END_REL_TOL = 1e-2     # end state within 1 % of the equilibrium's norm
    ORACLE_TOL = 2e-3      # max |u - E_m(-lambda t^m)| over the checked nodes

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        self.cfg = fp.SolverConfig(step=self.STEP, horizon=self.STEP * self.STEPS)
        self.cfg3 = fp.SolverConfig(step=self.STEP, horizon=self.STEP * self.STEPS, corrector_sweeps=3)
        # c = 0.05 is drawn below its critical order m* = 0.9898 so that all
        # three regimes are stable and have an analytic end point to check.
        self.regimes = [
            (0.86, float(rng.uniform(0.8, 1.0)), draw_x0(rng), self.cfg),
            (0.45, float(rng.uniform(0.8, 1.0)), draw_x0(rng), self.cfg3),
            (0.05, float(rng.uniform(0.8, 0.95)), draw_x0(rng), self.cfg),
        ]
        self.oracle_m = float(rng.uniform(0.8, 1.0))
        self.oracle_lambda = float(rng.uniform(0.5, 2.0))
        self.oracle_nodes = np.unique(np.round(np.geomspace(1, self.STEPS, 200)).astype(int))
        self.oracle_err = None

    def describe(self):
        rows = [f"c={c} m={m:.4f} x0=({x0[0]:.2f}, {x0[1]:.2f}) sweeps={cfg.corrector_sweeps}"
                for c, m, x0, cfg in self.regimes]
        rows.append(f"oracle D^m u = -lambda u, m={self.oracle_m:.4f} lambda={self.oracle_lambda:.4f}")
        return f"{self.STEPS} steps of h={self.STEP}: " + "; ".join(rows)

    def _regime(self, c, m, x0, cfg):
        p = params(c)
        traj = fp.pece_solve(fp.vector_field(p), x0, m, cfg)
        if c > fp.thresholds(p).c1:
            target = (p.K, 0.0)
        else:
            target = fp.equilibria(p)[2].point
        check_near(traj.states[-1], target, self.END_REL_TOL, f"c={c} m={m:.4f}")
        check_envelope(p, m, traj, p.d / 2.0, stride=self.STRIDE)
        return len(traj.times) - 1

    def _oracle(self):
        m, lam = self.oracle_m, self.oracle_lambda
        traj = fp.pece_solve(lambda u: -lam * u, [1.0], m, self.cfg)
        idx = self.oracle_nodes
        exact = np.array([fp.mittag_leffler(m, -lam * float(traj.times[i]) ** m) for i in idx])
        err = float(np.max(np.abs(traj.states[idx, 0] - exact)))
        self.oracle_err = err
        check(err <= self.ORACLE_TOL, f"oracle error {err:.3g} above {self.ORACLE_TOL}")
        return len(traj.times) - 1

    def operations(self):
        return [("trajectory", self._regime, r) for r in self.regimes] + [("trajectory", self._oracle, ())]

    def warm_up(self):
        fp.pece_solve(fp.vector_field(params(0.45)), (10.0, 5.0), 0.9,
                      fp.SolverConfig(step=self.STEP, horizon=self.STEP * 200))


# --- ensemble_envelope -----------------------------------------------------

class EnsembleEnvelope:
    """Many short trajectories, each labelled and checked against the envelope."""

    name = "ensemble_envelope"
    work_unit = "members"
    MEMBERS = 160
    STEPS = 250
    STEP = 0.12
    C_RANGE = (0.02, 0.8)  # below c1 = 0.8445, so every member has an interior state

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.cfg = fp.SolverConfig(step=self.STEP, horizon=self.STEP * self.STEPS)
        self.members = []
        for _ in range(self.MEMBERS):
            c = float(rng.uniform(*self.C_RANGE))
            m = float(rng.uniform(0.8, 1.0))
            x0 = draw_x0(rng)
            eta_share = float(rng.uniform(0.3, 0.7))
            self.members.append((params(c), m, x0, eta_share))

    def describe(self):
        return (f"{self.MEMBERS} members of {self.STEPS} steps (h={self.STEP}), "
                f"c in {self.C_RANGE}, m in (0.8, 1), eta in (0.3, 0.7) d")

    def _member(self, p, m, x0, eta_share):
        traj = fp.pece_solve(fp.vector_field(p), x0, m, self.cfg)
        reports = fp.classify_equilibria(p, m)
        order = fp.critical_order(p)
        label = reports[2].classification
        if order.reason == "hopf":
            expected = "stable" if m < order.value else "unstable"
        else:
            expected = "stable" if order.reason == "stable-for-all-m" else "unstable"
        check(label == expected, f"interior labelled {label}, critical order says {expected}")
        check_envelope(p, m, traj, eta_share * p.d)
        return 1

    def operations(self):
        return [("member", self._member, member) for member in self.members]

    def warm_up(self):
        self._member(*self.members[0])


# --- map_sweep -------------------------------------------------------------

def two_cycle(p, gain):
    """Analytic period-2 prey values of the predator-free map (logistic form)."""
    mu = 1.0 + p.r * gain
    root = math.sqrt((mu + 1.0) * (mu - 3.0))
    return sorted(z * mu * p.K / (mu - 1.0) for z in ((mu + 1.0 + root) / (2.0 * mu),
                                                       (mu + 1.0 - root) / (2.0 * mu)))


class MapSweep:
    """Step-size sweeps across the flip (c = 0.86) and the Hopf point (c = 0.45)."""

    name = "map_sweep"
    work_unit = "map iterations"
    TRANSIENT = 1000
    SAMPLES = 100
    ORBIT_ITERATIONS = 60_000
    FIXED_TOL = 1e-6        # relative distance of samples from the analytic point
    CIRCLE_FIXED_TOL = 1e-3  # interior point: contraction is only ~0.991 per step

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.m = float(rng.uniform(0.9, 1.0))
        self.p86, self.p45 = params(0.86), params(0.45)
        self.s2 = fp.step_thresholds(self.p86, self.m).s2
        self.s4 = fp.step_thresholds(self.p45, self.m).s4
        self.sweeps = []
        for follow in (True, False):
            self.sweeps.append(("flip", follow, self.p86,
                                self.s2 * float(rng.uniform(0.78, 0.82)),
                                self.s2 * float(rng.uniform(1.16, 1.2)), 24, draw_x0(rng)))
            self.sweeps.append(("hopf", follow, self.p45,
                                self.s4 * float(rng.uniform(0.48, 0.52)),
                                self.s4 * float(rng.uniform(3.55, 3.65)), 32, draw_x0(rng)))
        self.orbit_s = self.s2 * float(rng.uniform(1.06, 1.14))
        self.orbit_x0 = draw_x0(rng)
        self.interior = np.array(fp.equilibria(self.p45)[2].point)

    def describe(self):
        rows = [f"{kind} {'follow' if follow else 'restart'} s in [{lo:.4f}, {hi:.4f}] x {n}"
                for kind, follow, _, lo, hi, n, _ in self.sweeps]
        return (f"m={self.m:.4f} s2={self.s2:.4f} s4={self.s4:.4f}; " + "; ".join(rows)
                + f"; orbit s={self.orbit_s:.4f} x {self.ORBIT_ITERATIONS}")

    def _sweep(self, kind, follow, p, lo, hi, n, x0):
        res = fp.sweep_step_size(p, self.m, lo, hi, n, transient=self.TRANSIENT,
                                 n_samples=self.SAMPLES, x0=x0, follow=follow,
                                 kick=1e-3 if follow else 0.0)
        counts = [fp.cluster_count(block) if len(block) else 0 for block in res.samples]
        check_sweep = self._check_flip if kind == "flip" else self._check_hopf
        check_sweep(res, counts)
        return n * (self.TRANSIENT + self.SAMPLES)

    def _check_flip(self, res, counts):
        check(not any(res.escaped), "flip sweep escaped")
        check(counts[0] == 1 and counts[-1] == 2, f"cluster counts {counts} do not go 1 -> 2")
        flips = [e for e in res.events if e.kind == "flip"]
        check(len(flips) == 1 and abs(flips[0].s - self.s2) <= 1e-12 * self.s2,
              f"flip event {flips} not at s2={self.s2}")
        fixed = np.array([self.p86.K, 0.0])
        for s, block, count in zip(res.parameter_values, res.samples, counts):
            if s <= 0.98 * self.s2:
                check(count == 1, f"s={s:.5f} below s2 has {count} clusters")
                dev = float(np.max(np.abs(block - fixed)))
                check(dev <= self.FIXED_TOL * self.p86.K, f"s={s:.5f} below s2 is {dev:.3g} off (K, 0)")
            elif s >= 1.05 * self.s2:
                check(count == 2, f"s={s:.5f} above s2 has {count} clusters")
                self._check_two_cycle(s, block)

    def _check_two_cycle(self, s, block):
        lo, hi = two_cycle(self.p86, fp.map_gain(float(s), self.m))
        prey = block[:, 0]
        dev = float(np.max(np.minimum(np.abs(prey - lo), np.abs(prey - hi))))
        check(dev <= self.FIXED_TOL * self.p86.K, f"s={s:.5f} is {dev:.3g} off the 2-cycle")
        check(float(np.max(np.abs(block[:, 1]))) <= self.FIXED_TOL * self.p86.K,
              f"s={s:.5f}: predator did not die out")

    def _check_hopf(self, res, counts):
        hopf = [e for e in res.events if e.kind == "hopf"]
        check(len(hopf) == 1 and abs(hopf[0].s - self.s4) <= 1e-12 * self.s4,
              f"hopf event {hopf} not at s4={self.s4}")
        for s, block, escaped, count in zip(res.parameter_values, res.samples, res.escaped, counts):
            if s <= 0.7 * self.s4:
                dev = float(np.max(np.linalg.norm(block - self.interior, axis=1)))
                check(dev <= self.CIRCLE_FIXED_TOL * np.linalg.norm(self.interior),
                      f"s={s:.5f} below s4 is {dev:.3g} off the interior point")
            if s <= 2.5 * self.s4:
                check(not escaped, f"s={s:.5f} escaped below 2.5 s4")
            if 1.1 * self.s4 <= s <= 2.5 * self.s4:
                check(count > 1, f"s={s:.5f} above s4 still a fixed point")
            if s >= 3.3 * self.s4:
                check(escaped and len(block) == 0, f"s={s:.5f} did not escape above 3.3 s4")

    def _orbit(self):
        cfg = fp.DiscreteConfig(s=self.orbit_s, m=self.m, iterations=self.ORBIT_ITERATIONS,
                                transient=self.TRANSIENT)
        orbit = fp.iterate_orbit(self.p86, cfg, self.orbit_x0)
        check(not orbit.escaped, "long orbit escaped")
        count = fp.cluster_count(orbit.samples)
        check(count == 2, f"long orbit has {count} clusters")
        self._check_two_cycle(self.orbit_s, orbit.samples)
        return self.ORBIT_ITERATIONS

    def operations(self):
        return [("sweep", self._sweep, sweep) for sweep in self.sweeps] + [("orbit", self._orbit, ())]

    def warm_up(self):
        kind, follow, p, lo, hi, _, x0 = self.sweeps[0]
        fp.sweep_step_size(p, self.m, lo, hi, 2, transient=10, n_samples=10, x0=x0)


# --- reproduce_cli ---------------------------------------------------------

# Reference values of the paper as tests/test_acceptance.py states them,
# copied here so that the check does not trust the 'expected' column the
# program writes itself.
REFERENCE_SCALARS = {
    "c1": 0.8445, "theta1": 0.0726, "c2": 0.1227, "theta2": 0.1673,
    "x_star_c045": 253.9056, "y_star_c045": 97.8867,
    "trace_interior_c045": -0.3398, "trace_interior_c005": 0.0437,
    "two_sqrt_det_c005": 2.7152, "m_star_c005": 0.9898,
    "lambda_re": 0.9635, "lambda_im": 0.2678, "lambda_modulus": 1.0,
    "transversality": 0.1699, "gamma": -1.9961e-8, "flip_eig1": -1.0, "flip_eig2": 1.0,
}
REFERENCE_STEPS = {
    0.3: (0.2729, 26269.0, 0.0041, 256.7923),
    0.4: (0.3669, 2005.2, 0.0159, 62.3401),
    0.6: (0.5186, 160.8894, 0.0639, 15.9072),
    0.8: (0.6436, 47.5805, 0.1339, 8.3894),
    0.95: (0.7279, 27.2757, 0.1940, 6.3253),
}
# data rows (header excluded) of every file reproduce writes
REPRODUCE_ROWS = {
    "summary.csv": len(REFERENCE_SCALARS) + 4 * len(REFERENCE_STEPS),
    "step_size_table.csv": len(REFERENCE_STEPS),
    "predator_free_series_m080.csv": 1601,
    "predator_free_series_m095.csv": 1601,
    "predator_free_series_m100.csv": 1601,
    "interior_series_m090.csv": 3001,
    "order_stable_series.csv": 6001,
    "order_unstable_series.csv": 6001,
    "stability_region.csv": 24,
    "interior_sweep.csv": 31 * 120,
    "predator_free_sweep.csv": 31 * 120,
}


def reference_within(name, value):
    """The tests/test_acceptance.py tolerance for one summary row."""
    if name == "gamma":
        ref = REFERENCE_SCALARS[name]
        return math.copysign(1.0, value) == math.copysign(1.0, ref) and abs(value - ref) <= 0.1 * abs(ref)
    if name in REFERENCE_SCALARS:
        return abs(value - REFERENCE_SCALARS[name]) <= 5e-4
    column, _, m = name.partition("_m")
    ref = REFERENCE_STEPS[float(m)][("s2", "s3", "s4", "s5").index(column)]
    return abs(value - ref) <= max(5e-3 * abs(ref), 5e-4)


def check_reproduce_dir(outdir):
    """Check every file a reproduce run wrote; returns the data rows."""
    runs = [d for d in Path(outdir).iterdir() if d.name.startswith("reproduce-")]
    check(len(runs) == 1, f"expected one reproduce directory, found {len(runs)}")
    run_dir = runs[0]
    names = sorted(f.name for f in run_dir.iterdir())
    check(names == sorted(REPRODUCE_ROWS), f"reproduce wrote {names}")
    total = 0
    for name, expected in REPRODUCE_ROWS.items():
        with open(run_dir / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        check(len(rows) == expected, f"{name} has {len(rows)} rows, expected {expected}")
        total += len(rows)
        if name == "summary.csv":
            seen = set()
            for row_name, _, computed, _ in rows:
                seen.add(row_name)
                check(reference_within(row_name, float(computed)),
                      f"summary {row_name}={computed} outside its tolerance")
            expected_names = set(REFERENCE_SCALARS) | {
                f"{col}_m{m:g}" for m in REFERENCE_STEPS for col in ("s2", "s3", "s4", "s5")}
            check(seen == expected_names, f"summary rows {sorted(seen ^ expected_names)} differ")
    return total


class ReproduceCli:
    """`fracprey reproduce` through ``fracprey.cli.main``; it has no inputs to draw.

    It runs in the bench process, next to the reference kernel that
    normalises its time: a reproduce child process ran up to 1.5x faster or
    slower than the parent sampling the reference, which made the ratio
    noisier than the raw time.  The fresh-interpreter import a user also pays
    is what ``setup_s`` measures.
    """

    name = "reproduce_cli"
    work_unit = "CSV rows"

    def __init__(self, seed, scratch):
        del seed  # reproduce takes no inputs: the seed has nothing to draw
        self.scratch = Path(scratch)

    def describe(self):
        return "fracprey.cli.main(['reproduce', '--output', <fresh dir>]); no seeded inputs"

    def _reproduce(self):
        outdir = Path(tempfile.mkdtemp(prefix="reproduce_", dir=self.scratch))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = fp.cli.main(["reproduce", "--output", str(outdir)])
            check(code == 0, f"reproduce returned {code}")
            return check_reproduce_dir(outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def operations(self):
        return [("reproduce", self._reproduce, ())]

    def warm_up(self):
        pass


WORKLOADS = {w.name: w for w in (PeceLong, EnsembleEnvelope, MapSweep, ReproduceCli)}


def build(name, seed, scratch):
    cls = WORKLOADS[name]
    if cls is ReproduceCli:
        return cls(seed, scratch)
    return cls(seed)
