import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracprey import (
    DiscreteConfig,
    SolverConfig,
    Trajectory,
    cluster_count,
    critical_order,
    equilibria,
    export_series,
    iterate_orbit,
    pece_solve,
    stability_region_cm,
    step_thresholds,
    sweep_step_size,
    thresholds,
    vector_field,
)
from fracprey.cli import format_number


class TestSweep:
    def test_determinism(self, mid_complexity):
        a = sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 5, transient=200, n_samples=20, kick=1e-3)
        b = sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 5, transient=200, n_samples=20, kick=1e-3)
        assert np.array_equal(a.parameter_values, b.parameter_values)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa, sb)

    def test_degenerate_grid(self, mid_complexity):
        result = sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 2, transient=50, n_samples=10)
        assert len(result.parameter_values) == 2
        assert len(result.samples) == 2
        assert all(block.shape == (10, 2) for block in result.samples)

    def test_validation(self, mid_complexity):
        with pytest.raises(ValueError):
            sweep_step_size(mid_complexity, 0.95, 0.2, 0.1, 5)
        with pytest.raises(ValueError):
            sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 1)

    def test_kick_needs_follow(self, mid_complexity):
        # a restarted orbit starts from x0 and is never kicked
        with pytest.raises(ValueError, match="kick applies only in follow mode"):
            sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 2, transient=0, n_samples=1, follow=False, kick=1e-3)

    @pytest.mark.parametrize(
        "counts",
        [dict(n_points=2.5), dict(n_points=5.0), dict(n_samples=2.5), dict(transient=2.5), dict(transient=-1)],
    )
    def test_counts_must_be_integers(self, mid_complexity, counts):
        args = dict(n_points=5, transient=10, n_samples=5) | counts
        with pytest.raises(ValueError, match="n_points|n_samples|transient"):
            sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, **args)

    def test_size_budget_rejected_before_allocation(self, mid_complexity):
        # 1e13 grid points would ask linspace alone for 80 TB
        with pytest.raises(ValueError, match="exceeds the budget"):
            sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 10**13)
        # 10**5 points x 51 samples x 2 components is just over 1e7 values
        with pytest.raises(ValueError, match="exceeds the budget"):
            sweep_step_size(mid_complexity, 0.95, 0.1, 0.2, 10**5, n_samples=51)

    def test_interior_onset_bracketed(self, mid_complexity):
        # collapse below the circle-shedding step, spread above, with the
        # analytic event inside the bracketing grid cell
        result = sweep_step_size(
            mid_complexity, 0.95, 0.15, 0.25, 11, transient=5000, n_samples=150, kick=1e-3
        )
        counts = [cluster_count(block) for block in result.samples]
        values = result.parameter_values
        singles = [s for s, n in zip(values, counts) if n == 1]
        spreads = [s for s, n in zip(values, counts) if n > 1]
        assert singles and spreads
        onset_low, onset_high = max(singles), min(spreads)
        assert onset_high - onset_low <= 0.0100001
        hopf = [e for e in result.events if e.kind == "hopf"]
        assert len(hopf) == 1
        assert onset_low <= hopf[0].s <= onset_high

    def test_flip_onset_bracketed(self, high_complexity):
        result = sweep_step_size(
            high_complexity, 0.95, 0.68, 0.78, 11, transient=3000, n_samples=100, kick=1e-3
        )
        counts = [cluster_count(block) for block in result.samples]
        values = result.parameter_values
        onset_low = max(s for s, n in zip(values, counts) if n == 1)
        onset_high = min(s for s, n in zip(values, counts) if n == 2)
        flip = [e for e in result.events if e.kind == "flip"]
        assert len(flip) == 1
        assert onset_low <= flip[0].s <= onset_high

    def test_escape_flagged_and_reset(self, mid_complexity):
        result = sweep_step_size(
            mid_complexity, 1.0, 1.5, 2.5, 3, transient=100, n_samples=10, x0=(10.0, 5.0)
        )
        assert any(result.escaped)


class TestClusterCount:
    def test_single_point(self):
        pts = np.tile([[253.9, 97.9]], (50, 1))
        assert cluster_count(pts) == 1

    def test_two_clusters(self):
        pts = np.array([[1.0, 0.0], [1.0000001, 0.0], [2.0, 0.0], [2.0000001, 0.0]] * 10)
        assert cluster_count(pts) == 2

    def test_radius_controls_merging(self):
        # the merge radius is 1e-4 relative to the largest coordinate (~1)
        assert cluster_count(np.array([[1.0, 0.0], [1.0 + 0.5e-4, 0.0]])) == 1
        assert cluster_count(np.array([[1.0, 0.0], [1.0 + 2e-4, 0.0]])) == 2

    def test_empty(self):
        assert cluster_count(np.empty((0, 2))) == 0

    @staticmethod
    def greedy_reference(points):
        """Point by point: join the first center within radius, else found one."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0:
            return 0
        finite = np.abs(pts[np.isfinite(pts)])
        radius = 1e-4 * max(float(finite.max()) if finite.size else 0.0, 1e-30)
        centers = np.empty_like(pts)
        count = 0
        for row in pts:
            if not (np.linalg.norm(row - centers[:count], axis=1) <= radius).any():
                centers[count] = row
                count += 1
        return count

    def test_matches_greedy_reference_on_random_clouds(self):
        # n above 256 leaves fewer candidates per round than open rows, so
        # several rounds run
        rng = np.random.default_rng(20)
        for n in [120] * 60 + [257, 300, 450, 700] * 3:
            k = int(rng.integers(1, 6))
            spread = 10.0 ** rng.uniform(-7.0, 0.0)
            centers = rng.uniform(-5.0, 5.0, size=(k, 2))
            pts = centers[rng.integers(0, k, size=n)] + spread * rng.standard_normal((n, 2))
            assert cluster_count(pts) == self.greedy_reference(pts)

    def test_spread_out_clouds_found_one_cluster_per_row(self):
        # rows of a shuffled lattice of spacing 0.01, jittered by far less
        # than that, are farther apart than the radius (~5e-4)
        rng = np.random.default_rng(22)
        lattice = np.stack(np.meshgrid(np.arange(30), np.arange(30)), axis=-1).reshape(-1, 2)
        for n in (1, 2, 100, 257, 450, 700):
            pts = 0.01 * rng.permutation(lattice)[:n] - 4.5 + 1e-3 * rng.uniform(size=(n, 2))
            assert cluster_count(pts) == self.greedy_reference(pts) == n

    def test_two_clusters_one_candidate_per_round(self):
        # over 65,536 open rows a round holds one candidate
        rng = np.random.default_rng(23)
        pts = np.tile([[1.0, 2.0], [3.0, 4.0]], (35_000, 1)) + 1e-7 * rng.standard_normal((70_000, 2))
        assert cluster_count(pts) == 2

    def test_distance_rounds_bound_memory(self):
        # 5,000 distinct rows: one round's distances are at most 65,536
        # floats (0.5 MB), where all at once would be 200 MB
        pts = np.column_stack(np.divmod(np.arange(5_000.0), 100.0))
        tracemalloc.start()
        try:
            count = cluster_count(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 5_000
        assert peak < 3_000_000

    def test_nan_rows_match_greedy_reference(self):
        # a NaN or inf row is never within radius of anything (inf - inf is
        # NaN), so each one founds its own cluster, without a warning; the
        # finite rows keep their two clusters
        rng = np.random.default_rng(21)
        pts = np.repeat([[1.0, 2.0], [3.0, 4.0]], 20, axis=0) + 1e-7 * rng.standard_normal((40, 2))
        pts[[0, 7, 25]] = np.nan
        pts[[3, 30]] = [[np.inf, 2.0], [np.inf, -np.inf]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = cluster_count(pts)
        with np.errstate(invalid="ignore"):
            assert count == self.greedy_reference(pts) == 2 + 3 + 2

    @pytest.mark.parametrize("layout", ["strided", "fortran", "three_columns", "nan_rows"])
    def test_layouts_match_greedy_reference(self, layout):
        # 420 spread-out rows and 480 rows on four tight clusters: the first
        # round closes one cluster, and a later round takes at most
        # 65,536 // n of its n open rows as candidates (83 of 785), so
        # compaction runs four rounds on every layout
        rng = np.random.default_rng(24)
        width = 3 if layout == "three_columns" else 2
        lattice = np.stack(np.meshgrid(*[np.arange(30)] * width), axis=-1).reshape(-1, width)
        spread = 0.01 * rng.permutation(lattice)[:420] - 4.5 + 1e-3 * rng.uniform(size=(420, width))
        centers = rng.uniform(-5.0, 5.0, size=(4, width))
        tight = centers[rng.integers(0, 4, size=480)] + 1e-7 * rng.standard_normal((480, width))
        pts = rng.permutation(np.concatenate([spread, tight]))
        if layout == "strided":
            pts = np.repeat(pts, 3, axis=0)[::3]
            assert not pts.flags.c_contiguous
        elif layout == "fortran":
            pts = np.asfortranarray(pts)
            assert not pts.flags.c_contiguous
        elif layout == "nan_rows":
            pts[rng.choice(900, size=12, replace=False)] = np.nan
            pts[[5, 500]] = [[np.inf, 1.0], [-np.inf, np.nan]]
        with np.errstate(invalid="ignore"):
            expected = self.greedy_reference(pts)
        # more centers than the first two rounds can found
        assert expected > 100
        assert cluster_count(pts) == expected

    @staticmethod
    def spread_lattice(rng, n):
        """n rows of a shuffled lattice of spacing 0.01, jittered by far less
        than that: every row is farther than the radius from every other."""
        lattice = np.stack(np.meshgrid(np.arange(30), np.arange(30)), axis=-1).reshape(-1, 2)
        return 0.01 * rng.permutation(lattice)[:n] - 4.5 + 1e-3 * rng.uniform(size=(n, 2))

    def test_merge_free_blocks_take_every_candidate(self, mid_complexity, monkeypatch):
        # samples on the attracting circle past s4, and lattices with NaN
        # and inf rows: no round needs the center loop or its bit rows
        monkeypatch.setattr(np, "packbits", None)
        s4 = step_thresholds(mid_complexity, 0.95).s4
        cfg = DiscreteConfig(s=2.0 * s4, m=0.95, iterations=1100, transient=1000)
        circle = iterate_orbit(mid_complexity, cfg, (10.0, 5.0)).samples
        assert cluster_count(circle) == self.greedy_reference(circle) == 100
        rng = np.random.default_rng(25)
        for n in (2, 100, 256, 257, 700):
            pts = self.spread_lattice(rng, n)
            bad = rng.choice(n, size=min(n, 5), replace=False)
            pts[bad] = [[np.nan, 1.0], [np.inf, 2.0], [-np.inf, np.nan], [np.nan, np.nan], [1.0, np.inf]][: len(bad)]
            with np.errstate(invalid="ignore"):
                assert cluster_count(pts) == self.greedy_reference(pts) == n

    def test_one_close_pair_among_isolated_rows(self):
        # the pair's second row is within radius of its first, which is a
        # later candidate than row 0; every other row is isolated
        rng = np.random.default_rng(26)
        for n, first, second in [(3, 1, 2), (100, 1, 99), (100, 50, 51), (100, 98, 20), (256, 7, 200),
                                 (300, 250, 3), (700, 5, 600)]:
            pts = self.spread_lattice(rng, n)
            pts[second] = pts[first] + 1e-7
            assert cluster_count(pts) == self.greedy_reference(pts) == n - 1

    def test_partly_merged_block(self):
        # isolated rows, and rows on three tight clusters each of whose
        # first rows is a later candidate than row 0
        rng = np.random.default_rng(27)
        for n in (20, 100, 256, 400):
            pts = self.spread_lattice(rng, n)
            tight = rng.choice(np.arange(4, n), size=n // 4, replace=False)
            pts[tight] = pts[1 + rng.integers(0, 3, size=n // 4)] + 1e-7 * rng.standard_normal((n // 4, 2))
            expected = self.greedy_reference(pts)
            assert n // 2 < expected < n
            assert cluster_count(pts) == expected


class TestStabilityRegion:
    def test_reference_boundary_point(self, low_complexity):
        result = stability_region_cm(low_complexity, 0.05, 1)
        assert len(result.points) == 1
        c, m_star = result.points[0]
        assert m_star == pytest.approx(0.9898, abs=5e-4)

    def test_out_of_window_values_skipped(self, low_complexity):
        # a grid of 0 and c2 hits both margins; 0.5 and 0.9 lie past c2
        c2 = thresholds(low_complexity).c2
        for start, c_max in ((0.0, c2), (0.5, 0.9)):
            result = stability_region_cm(replace(low_complexity, c=start), c_max, 2)
            assert result.points == []
            assert [c for c, _ in result.skipped] == [start, c_max]
            assert all("c2" in reason or "outside" in reason for _, reason in result.skipped)

    def test_empty_grid_rejected(self, low_complexity):
        with pytest.raises(ValueError, match="c_points must be >= 1"):
            stability_region_cm(low_complexity, 0.1, 0)

    @pytest.mark.parametrize("c_max, c_points, message", [
        (0.1, 2.0, "c_points must be an integer"),
        (0.1, 10**13, "region grid of 10000000000000 points exceeds the budget"),
        (np.nan, 5, "c_max must be finite"),
        (np.inf, 5, "c_max must be finite"),
    ], ids=["float_count", "budget", "nan_end", "inf_end"])
    def test_grid_checked_before_allocation(self, low_complexity, c_max, c_points, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.linspace over a non-finite end warns
            with pytest.raises(ValueError, match=message):
                stability_region_cm(low_complexity, c_max, c_points)

    def test_boundary_monotone_and_limits(self, low_complexity):
        c2 = thresholds(low_complexity).c2
        grid = np.linspace(0.005, c2 * 0.999, 16)
        result = stability_region_cm(replace(low_complexity, c=0.005), c2 * 0.999, 16)
        assert [c for c, _ in result.points] == grid.tolist()
        values = [m for _, m in result.points]
        assert all(b - a > -1e-6 for a, b in zip(values, values[1:]))  # non-decreasing
        assert values[-1] > 0.995  # m* -> 1 as c -> c2
        assert all(0.0 < m <= 1.0 for m in values)

    def test_simulation_verifies_boundary(self, low_complexity):
        # below the curve the coexistence state attracts, above it the orbit
        # oscillates away; the admissible range caps the upper probe at 1
        for c in (0.01, 0.03, 0.05):
            p = replace(low_complexity, c=c)
            m_star = critical_order(p).value
            eq = np.array(equilibria(p)[2].point)
            for m, expect_growth in ((m_star - 0.02, False), (min(1.0, m_star + 0.02), True)):
                traj = pece_solve(
                    vector_field(p), eq * (1.0 + 1e-3), m, SolverConfig(step=0.05, horizon=250.0)
                )
                dist = np.linalg.norm(traj.states - eq, axis=1)
                assert (dist[-500:].max() > 2.0 * dist[0]) == expect_growth


class TestExport:
    def test_trajectory_rows(self):
        traj = Trajectory(
            times=np.array([0.0, 0.1, 0.2]),
            states=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        )
        columns, rows = export_series(traj)
        assert columns == ("t", "x", "y")
        assert len(rows) == 3
        assert rows[1].tolist() == [0.1, 3.0, 4.0]

    def test_orbit_rows(self, mid_complexity):
        orbit = iterate_orbit(mid_complexity, DiscreteConfig(s=0.1, m=0.9, iterations=4), (10.0, 5.0))
        columns, rows = export_series(orbit)
        assert columns == ("n", "x", "y")
        assert len(rows) == 5
        assert rows[0].tolist() == [0.0, 10.0, 5.0]

    def test_empty_source(self):
        traj = Trajectory(times=np.empty(0), states=np.empty((0, 2)))
        columns, rows = export_series(traj)
        assert columns == ("t", "x", "y")
        assert rows.shape == (0, 3)

    @pytest.mark.parametrize("u0", [[1.0], [1.0, 2.0, 3.0]], ids=["one", "three"])
    def test_other_state_sizes_rejected(self, u0):
        # a one-component state has no y, and a third component has no column
        traj = pece_solve(lambda u: -u, u0, 0.9, SolverConfig(step=0.1, horizon=0.5))
        with pytest.raises(ValueError, match=f"2 state components, got {len(u0)}$"):
            export_series(traj)

    def test_round_trip_through_serialization(self, mid_complexity):
        orbit = iterate_orbit(mid_complexity, DiscreteConfig(s=0.11, m=0.77, iterations=30), (10.0, 5.0))
        _, rows = export_series(orbit)
        text = [",".join(format_number(v) for v in row) for row in rows]
        parsed = [tuple(float(v) for v in line.split(",")) for line in text]
        for original, back in zip(rows, parsed):
            for a, b in zip(original, back):
                assert b == pytest.approx(a, rel=1e-14, abs=1e-300)
        # re-serialization is byte-stable
        again = [",".join(format_number(v) for v in row) for row in parsed]
        assert again == text


class TestPhasePortraitStructure:
    def test_point_ring_and_spread_regimes(self, mid_complexity):
        # radial statistics of the sampled attractor about the coexistence
        # state: tiny for a point, an annulus bounded away from zero for the
        # invariant circle, much wider (and heavily multi-clustered) beyond
        target = np.array(equilibria(mid_complexity)[2].point)

        def radii(s):
            cfg = DiscreteConfig(s=s, m=0.95, iterations=5500, transient=5000)
            orbit = iterate_orbit(mid_complexity, cfg, (10.0, 5.0))
            assert not orbit.escaped
            return orbit.samples, np.linalg.norm(orbit.samples - target, axis=1)

        _, r_point = radii(0.15)
        assert r_point.max() < 1e-6

        ring_samples, r_ring = radii(0.25)
        assert r_ring.min() > 10.0
        assert r_ring.max() < 400.0
        angles = np.arctan2(ring_samples[:, 1] - target[1], ring_samples[:, 0] - target[0])
        hist, _ = np.histogram(angles, bins=24, range=(-np.pi, np.pi))
        assert np.all(hist > 0)  # closed curve encircling the fixed point

        spread_samples, r_spread = radii(0.5)
        assert r_spread.max() > 450.0
        assert r_spread.max() < 1e4
        assert cluster_count(spread_samples) >= 4
