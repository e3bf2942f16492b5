"""Tridiagonal kernels against scipy and dense numpy references, and
bit for bit against a plain element-by-element loop version."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sombrero import RadialGrid, _kernels, discretize


def random_tridiagonal(rng, n):
    d = rng.uniform(-5.0, 5.0, n)
    e = rng.uniform(-3.0, 3.0, n - 1)
    return d, e


def degenerate_constant_matrix(n):
    # flux-form free particle: d[0] = k, d[j] = 2k, e = -k; plain
    # sign-counting loops on such matrices unless zero pivots are
    # floored and counted as negative
    k = 12665.147955292221
    d = np.full(n, 2 * k)
    d[0] = k
    return d, np.full(n - 1, -k)


def dense_groundstate(d, e):
    vals, vecs = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    return vals[0], vecs[:, 0]


def loop_smallest_eigenvalue(d, e, abs_tol, visited=None):
    """Reference: Gershgorin bracket and full Sturm count at every probe.

    Appends each probed mid to visited, if given."""
    n = d.shape[0]
    if n == 1:
        return d[0]
    e2 = e * e
    e2max = 0.0
    for i in range(n - 1):
        if e2[i] > e2max:
            e2max = e2[i]
    pivmin = 2.2250738585072014e-308 * (e2max if e2max > 1.0 else 1.0)
    lo = d[0] - abs(e[0])
    hi = d[0] + abs(e[0])
    for i in range(1, n):
        rad = abs(e[i - 1])
        if i < n - 1:
            rad += abs(e[i])
        if d[i] - rad < lo:
            lo = d[i] - rad
        if d[i] + rad > hi:
            hi = d[i] + rad
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if visited is not None:
            visited.append(mid)
        count = 0
        q = d[0] - mid
        if abs(q) < pivmin:
            q = -pivmin
        if q <= 0.0:
            count += 1
        for i in range(1, n):
            q = d[i] - mid - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            if q <= 0.0:
                count += 1
        if count >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def hint_sets(d, e, ref, visited, rng):
    """Hint lists for smallest_eigenvalue that must not change its result:
    at the eigenvalue and one ulp either side, far outside the Gershgorin
    bracket, at mids the bisection visits, at random, and non-finite."""
    entries = np.concatenate([d, e])
    reach = 1.0 + 3.0 * float(np.max(np.abs(entries[np.isfinite(entries)]), initial=0.0))
    below, above = np.nextafter(ref, -math.inf), np.nextafter(ref, math.inf)
    sets = [
        (ref,),
        (below,),
        (above,),
        (below, above),
        (above, ref, below),
        (-1e3 * reach,),
        (1e3 * reach,),
        (-1e3 * reach, 1e3 * reach),
        tuple(rng.uniform(-reach, reach, 4)),
        (math.nan,),
        (math.inf, -math.inf),
        (below, math.nan, above),
    ]
    for mid in (visited[0], visited[len(visited) // 2], visited[-1]) if visited else ():
        sets.append((mid,))
        sets.append((np.nextafter(mid, -math.inf), np.nextafter(mid, math.inf)))
    return sets


def assert_same_bits(d, e, tol, hints_seed=0):
    with np.errstate(all="ignore"):
        got = _kernels.smallest_eigenvalue(d, e, tol)
        visited = []
        ref = loop_smallest_eigenvalue(d, e, tol, visited)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        for hints in hint_sets(d, e, float(ref), visited, np.random.default_rng(hints_seed)):
            hinted = _kernels.smallest_eigenvalue(d, e, tol, hints)
            assert np.float64(hinted).tobytes() == np.float64(ref).tobytes(), hints


class TestMatchesLoopReference:
    """The bisection performs the loop version's IEEE-754 operations in
    the same order, so every result is identical to the last bit, whatever
    hints it is given."""

    def test_random_matrices(self):
        rng = np.random.default_rng(71)
        for k in range(120):
            n = int(rng.integers(1, 120))
            d = rng.uniform(-5.0, 5.0, n) * 10 ** rng.uniform(-3, 3)
            e = rng.uniform(-3.0, 3.0, n - 1) * 10 ** rng.uniform(-3, 3)
            if k % 7 == 0:
                e[rng.integers(0, max(n - 1, 1)):] = 0.0  # split into blocks
            assert_same_bits(d, e, 10 ** rng.uniform(-14, -8), hints_seed=k)

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_degenerate_constant_matrix(self, n):
        d, e = degenerate_constant_matrix(n)
        assert_same_bits(d, e, 1e-12)

    def test_zero_pivots_and_signed_zeros(self):
        assert_same_bits(np.ones(3), np.zeros(2), 1e-12)
        assert_same_bits(np.zeros(5), np.zeros(4), 1e-12)
        assert_same_bits(np.array([-0.0, 0.0, -0.0]), np.array([-0.0, 0.0]), 1e-12)
        assert_same_bits(np.array([4.2]), np.zeros(0), 1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        rng = np.random.default_rng(79)
        for pos in (0, 1, 5, 9):
            d = rng.uniform(1.0, 5.0, 10)
            e = rng.uniform(-1.0, 1.0, 9)
            d_bad = d.copy()
            d_bad[pos] = bad
            assert_same_bits(d_bad, e, 1e-12)
            e_bad = e.copy()
            e_bad[min(pos, 8)] = bad
            assert_same_bits(d, e_bad, 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_hints_never_change_the_eigenvalue(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        entry = st.one_of(
            st.floats(-1e3, 1e3),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        d = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="d"))
        e = np.array(data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1), label="e"), dtype=float)
        tol = data.draw(st.sampled_from([1e-13, 1e-9, 1e-3]), label="tol")
        visited = []
        with np.errstate(all="ignore"):
            ref = float(loop_smallest_eigenvalue(d, e, tol, visited))
        near = [ref] + visited
        point = st.one_of(
            st.sampled_from(near).map(lambda x: float(np.nextafter(x, math.inf))),
            st.sampled_from(near).map(lambda x: float(np.nextafter(x, -math.inf))),
            st.sampled_from(near),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        hints = data.draw(st.lists(point, max_size=4), label="hints")
        with np.errstate(all="ignore"):
            got = _kernels.smallest_eigenvalue(d, e, tol, hints)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestSmallestEigenvalue:
    def test_against_scipy(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            d, e = random_tridiagonal(rng, n)
            reference = sla.eigh_tridiagonal(
                d, e, select="i", select_range=(0, 0), eigvals_only=True
            )[0]
            got = _kernels.smallest_eigenvalue(d, e, 1e-13)
            assert got == pytest.approx(reference, abs=1e-10)

    def test_single_element(self):
        assert _kernels.smallest_eigenvalue(np.array([4.2]), np.zeros(0), 1e-13) == 4.2

    def test_degenerate_constant_matrix_terminates(self):
        d, e = degenerate_constant_matrix(500)
        reference = sla.eigh_tridiagonal(
            d, e, select="i", select_range=(0, 0), eigvals_only=True
        )[0]
        got = _kernels.smallest_eigenvalue(d, e, 1e-12)
        assert got == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_matrices_against_dense_eigh(self, n):
        rng = np.random.default_rng(59 + n)
        for _ in range(20):
            d, e = random_tridiagonal(rng, n)
            reference, _ = dense_groundstate(d, e)
            assert _kernels.smallest_eigenvalue(d, e, 1e-13) == pytest.approx(reference, abs=1e-12)
        d, e = degenerate_constant_matrix(n)
        reference, _ = dense_groundstate(d, e)
        assert _kernels.smallest_eigenvalue(d, e, 1e-12) == pytest.approx(reference, abs=1e-9)


class TestEigenvector:
    @staticmethod
    def assert_matches(v, reference, tol):
        """v is a unit vector along reference: 1 - |cos| <= tol."""
        assert v.shape == reference.shape
        assert math.fsum(v * v) == pytest.approx(1.0, rel=1e-12)
        assert 1.0 - abs(math.fsum(v * reference)) <= tol

    def test_against_scipy(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(3, 400))
            d, e = random_tridiagonal(rng, n)  # off-diagonals of both signs
            _, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
            sigma = _kernels.smallest_eigenvalue(d, e, 1e-13)
            self.assert_matches(_kernels.eigenvector(d, e, sigma), vecs[:, 0], 1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_matrices_against_dense_eigh(self, n):
        rng = np.random.default_rng(67 + n)
        for _ in range(20):
            d, e = random_tridiagonal(rng, n)
            _, reference = dense_groundstate(d, e)
            sigma = _kernels.smallest_eigenvalue(d, e, 1e-13)
            self.assert_matches(_kernels.eigenvector(d, e, sigma), reference, 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 500])
    def test_degenerate_constant_matrix(self, n):
        d, e = degenerate_constant_matrix(n)
        _, reference = dense_groundstate(d, e)
        sigma = _kernels.smallest_eigenvalue(d, e, 1e-12)
        v = _kernels.eigenvector(d, e, sigma)
        self.assert_matches(v, reference, 1e-12)
        assert v.min() > 0.0

    @pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
    def test_oracle_matrices(self, n, worked_potential):
        # the worked case's flux-form operator: negative off-diagonals, so
        # the groundstate vector is nonnegative entry by entry (its tail
        # underflows to zero where the true values fall below 1e-308)
        op = discretize(worked_potential, grid=RadialGrid.make(8.0, n))
        sigma = _kernels.smallest_eigenvalue(op.diag, op.off_diag, 1e-12)
        v = _kernels.eigenvector(op.diag, op.off_diag, sigma)
        _, vecs = sla.eigh_tridiagonal(op.diag, op.off_diag, select="i", select_range=(0, 0))
        reference = vecs[:, 0] * np.sign(vecs[:, 0].sum())
        self.assert_matches(v, reference, 1e-13)
        assert np.max(np.abs(v - reference)) < 1e-10
        assert v.min() >= 0.0

    def test_exact_singular_shift_survives(self):
        # sigma exactly an eigenvalue of 1x1 blocks: every pivot is zero
        v = _kernels.eigenvector(np.ones(3), np.zeros(2), 1.0)
        assert np.all(np.isfinite(v))
        assert math.fsum(v * v) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_residual_and_eigh_agreement(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1.0, -1.0]))
        d = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="d"))
        e = np.array(data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1), label="e"), dtype=float)
        norm = max(1.0, float(np.max(np.abs(d))) + 2.0 * float(np.max(np.abs(e), initial=0.0)))
        sigma = _kernels.smallest_eigenvalue(d, e, 1e-13 * norm)
        v = _kernels.eigenvector(d, e, sigma)
        assert math.fsum(v * v) == pytest.approx(1.0, rel=1e-12)
        # the twisted factorization solves (T - sigma) v = gamma_k e_k, a
        # residual no larger than the eigenvalue's own error allows
        tv = d * v - sigma * v
        tv[1:] += e * v[:-1]
        tv[:-1] += e * v[1:]
        assert np.max(np.abs(tv)) <= 1e-10 * norm
        vals, vecs = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        if n == 1 or vals[1] - vals[0] > 1e-3 * norm:
            self.assert_matches(v, vecs[:, 0], 1e-9)
