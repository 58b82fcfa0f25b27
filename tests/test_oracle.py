import tracemalloc

import numpy as np
import pytest

from conftest import poly2
from nonalter import corpus, oracle
from nonalter.instances import random_triple
from nonalter.oracle import GridSpec, find_witness, grid_min, grid_points, s1_empirical
from nonalter.quad_core import QuadForm, evaluate, evaluate_many

# Resolutions per dimension for the comparisons with the materialized grid;
# none is a multiple of the 7 first-axis slices per block set below.
RESOLUTION = {1: 401, 2: 101, 3: 31}


@pytest.fixture()
def seven_slice_blocks(monkeypatch):
    """Blocks of 7 first-axis slices, so blocks split the first axis unevenly."""

    def set_for(spec):
        monkeypatch.setattr(oracle, "_BLOCK", 7 * spec.resolution ** (spec.n - 1))

    return set_for


def brute_min(f, g, h, spec):
    """(feasible count, argmin, min) of f over the materialized grid."""
    pts = grid_points(spec)
    feasible = (evaluate_many(g, pts) <= spec.eps) & (evaluate_many(h, pts) <= spec.eps)
    if not feasible.any():
        return 0, None, None
    fv = evaluate_many(f, pts[feasible])
    j = int(np.argmin(fv))
    return int(feasible.sum()), pts[feasible][j], fv[j]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(bounds=((1.0, 0.0),))
        with pytest.raises(ValueError):
            GridSpec(bounds=((0.0, 1.0),), resolution=2)
        with pytest.raises(ValueError):
            GridSpec(bounds=((0.0, 1.0),), eps=-1.0)
        with pytest.raises(ValueError):
            GridSpec(bounds=((0.0, 1.0),), eps=float("nan"))
        for bounds in ((0.0, np.inf), (-np.inf, 0.0)):
            with pytest.raises(ValueError):
                GridSpec(bounds=(bounds,))

    def test_spacing(self):
        spec = GridSpec.cube(2, -10, 10, 401)
        assert spec.spacing == (0.05, 0.05)


class TestGridMin:
    def test_interior_disk(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, ayy=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        res = grid_min(f, g, h, GridSpec.cube(2, -2, 2, 401))
        assert res.min_value == pytest.approx(0.0, abs=1e-4)
        assert np.allclose(res.argmin, 0.0, atol=0.02)

    def test_two_point_feasible_set_needs_slack(self):
        f, g, h, _ = corpus.load("hqpd_s5a")
        tight = grid_min(f, g, h, GridSpec.cube(2, resolution=400, eps=1e-6))
        assert tight.feasible_count == 0  # grid misses the two points
        loose = grid_min(f, g, h, GridSpec.cube(2, resolution=801, eps=1e-3))
        assert loose.feasible_count > 0
        assert loose.min_value == pytest.approx(1.0, abs=5e-3)

    def test_shell_minimum(self):
        f, g, h, _ = corpus.load("ex25a")
        res = grid_min(f, g, h, GridSpec.cube(2, resolution=801))
        assert res.min_value == pytest.approx(2.0, abs=0.05)
        assert abs(res.argmin[0]) == pytest.approx(np.sqrt(2), abs=0.05)

    def test_infeasible(self):
        res = grid_min(
            poly2(axx=1), QuadForm.constant(2, 1.0), QuadForm.constant(2, -1.0),
            GridSpec.cube(2, resolution=11),
        )
        assert res.min_value is None and res.feasible_count == 0

    def test_dimension_guard(self):
        q = QuadForm(np.eye(4), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            grid_min(q, q, q, GridSpec.cube(4, resolution=5))


class TestBlockScan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_matches_materialized_grid(self, seven_slice_blocks, n, eps):
        spec = GridSpec.cube(n, resolution=RESOLUTION[n], eps=eps)
        seven_slice_blocks(spec)
        found = 0
        for i in range(20):
            f, g, h = random_triple(np.random.default_rng([n, i]), n)
            count, argmin, value = brute_min(f, g, h, spec)
            res = grid_min(f, g, h, spec)
            assert res.feasible_count == count
            if argmin is None:
                assert res.argmin is None and res.min_value is None
                continue
            found += 1
            assert np.array_equal(res.argmin, argmin)
            assert abs(res.min_value - value) <= 1e-14 * max(1.0, abs(value))
        assert found >= 5

    def test_flat_tie_across_blocks_keeps_first_point(self, seven_slice_blocks):
        # Feasible from x = 1.6 on, the third slice of the block of slices
        # 56-62; f ties there and on every point of the later blocks.
        spec = GridSpec.cube(2, -10, 10, 101)
        seven_slice_blocks(spec)
        f = QuadForm.constant(2, 5.0)
        res = grid_min(f, poly2(bx=-1, c=1.5), QuadForm.constant(2, -1.0), spec)
        x0 = np.linspace(-10, 10, 101)[58]
        assert res.argmin.tolist() == [x0, -10.0]
        assert res.min_value == 5.0 and res.feasible_count == 43 * 101

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_first_witness_is_first_grid_hit(self, seven_slice_blocks, n):
        spec = GridSpec.cube(n, resolution=RESOLUTION[n])
        seven_slice_blocks(spec)
        pts = grid_points(spec)
        hits = 0
        for i in range(10):
            _, g, h = random_triple(np.random.default_rng([n, i]), n)
            gv, hv = evaluate_many(g, pts), evaluate_many(h, pts)
            for signs in ((">", ">"), (">", ">="), (">=", ">")):
                mask = (gv > 1e-9 if signs[0] == ">" else gv >= -1e-9) & (
                    hv > 1e-9 if signs[1] == ">" else hv >= -1e-9)
                w = find_witness(g, h, signs, spec, n_samples=0)
                if mask.any():
                    hits += 1
                    assert np.array_equal(w, pts[np.flatnonzero(mask)[0]])
                else:
                    assert w is None
        assert hits >= 10

    def test_memory_is_per_block(self):
        # The 401^3 grid holds 1.5 GB of coordinates; the scan needs one
        # first-axis slice per quadratic at a time.
        f, g, h = random_triple(np.random.default_rng(3), 3)
        tracemalloc.start()
        try:
            grid_min(f, g, h, GridSpec.cube(3, resolution=401))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestFindWitness:
    def test_crossing_disks_have_doubly_positive_points(self):
        f, g, h, _ = corpus.load("cdt_s2")
        w = find_witness(g, h, (">", ">="), GridSpec.cube(2, resolution=201))
        assert w is not None
        assert evaluate(g, w) > 0 and evaluate(h, w) >= -1e-9
        # the specific point (2, 0) qualifies as well
        assert evaluate(g, [2.0, 0.0]) > 0 and evaluate(h, [2.0, 0.0]) > 0

    def test_nested_hyperbolas_have_none(self):
        f, g, h, _ = corpus.load("ex24")
        assert find_witness(g, h, (">", ">="), GridSpec.cube(2, resolution=201)) is None
        assert find_witness(g, h, (">=", ">"), GridSpec.cube(2, resolution=201)) is None

    def test_negative_constant_never_positive(self):
        g = QuadForm.constant(2, -1.0)
        h = poly2(axx=1)
        assert find_witness(g, h, (">", ">="), GridSpec.cube(2, resolution=51)) is None


class TestS1Empirical:
    def test_shell_thresholds(self):
        f, g, h, _ = corpus.load("ex25a")
        spec = GridSpec.cube(2, resolution=801)
        assert s1_empirical(f, 1.9, g, h, spec)
        assert not s1_empirical(f, 2.1, g, h, spec)

    def test_nonnegative_objective(self):
        f = poly2(axx=1, ayy=1)
        g = poly2(axx=1, ayy=1, c=-1)
        h = QuadForm.constant(2, -1.0)
        assert s1_empirical(f, -5.0, g, h, GridSpec.cube(2, resolution=101))

    def test_vacuous_when_infeasible(self):
        f = poly2(axx=1)
        assert s1_empirical(
            f, 100.0, QuadForm.constant(2, 1.0), QuadForm.constant(2, -1.0),
            GridSpec.cube(2, resolution=11),
        )


class TestDeterminismAndRefinement:
    def test_bitwise_determinism(self):
        f, g, h, _ = corpus.load("ex25a")
        spec = GridSpec.cube(2, resolution=201)
        r1 = grid_min(f, g, h, spec)
        r2 = grid_min(f, g, h, spec)
        assert r1.min_value == r2.min_value
        assert (r1.argmin == r2.argmin).all()
        w1 = find_witness(g, h, (">", ">"), spec, seed=7)
        w2 = find_witness(g, h, (">", ">"), spec, seed=7)
        assert (w1 is None and w2 is None) or (w1 == w2).all()

    def test_refinement_monotone(self):
        f, g, h, _ = corpus.load("ex25a")
        coarse = grid_min(f, g, h, GridSpec.cube(2, resolution=201))
        fine = grid_min(f, g, h, GridSpec.cube(2, resolution=401))
        grad = 2 * (f.A @ coarse.argmin + f.a)
        lip = np.linalg.norm(grad) + 4 * np.abs(f.A).max() * max(coarse.spacing)
        assert fine.min_value <= coarse.min_value + lip * max(coarse.spacing)

    def test_lexicographic_argmin(self):
        # A flat objective ties everywhere: the first grid point wins.
        f = QuadForm.constant(1, 5.0)
        g = QuadForm.constant(1, -1.0)
        res = grid_min(f, g, g, GridSpec.cube(1, -1, 1, 5))
        assert res.argmin[0] == -1.0

    def test_grid_order_is_lexicographic(self):
        pts = grid_points(GridSpec.cube(2, 0, 1, 3))
        assert np.allclose(pts[:3], [[0, 0], [0, 0.5], [0, 1]])
