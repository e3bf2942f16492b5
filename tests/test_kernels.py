"""Tridiagonal kernels against scipy and dense numpy references, and
bit for bit against a plain element-by-element loop version."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sombrero import _kernels


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


def loop_inverse_iteration(d, e, sigma, rel_tol, max_iter):
    """Reference: dgttrf-style factorization and sweeps, one element at a time."""
    n = d.shape[0]
    dd = np.array([d[i] - sigma for i in range(n)])
    dl = e.copy()
    du = e.copy()
    du2 = np.zeros(max(n - 2, 0))
    swapped = np.zeros(max(n - 1, 0), dtype=bool)
    scale_t = 0.0
    for i in range(n):
        if abs(dd[i]) > scale_t:
            scale_t = abs(dd[i])
    for i in range(n - 1):
        if abs(e[i]) > scale_t:
            scale_t = abs(e[i])
    tiny = 2.220446049250313e-16 * scale_t
    if tiny == 0.0:
        tiny = 2.2250738585072014e-308
    for i in range(n - 1):
        if abs(dd[i]) >= abs(dl[i]):
            if dd[i] == 0.0:
                dd[i] = tiny
            fact = dl[i] / dd[i]
            dl[i] = fact
            dd[i + 1] -= fact * du[i]
        else:
            swapped[i] = True
            fact = dd[i] / dl[i]
            dd[i] = dl[i]
            dl[i] = fact
            tmp = du[i]
            du[i] = dd[i + 1]
            dd[i + 1] = tmp - fact * dd[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
    if dd[n - 1] == 0.0:
        dd[n - 1] = tiny
    v = np.full(n, 1.0 / math.sqrt(n))
    x = np.empty(n)
    for sweep in range(max_iter):
        x[:] = v
        for i in range(n - 1):
            if swapped[i]:
                tmp = x[i]
                x[i] = x[i + 1]
                x[i + 1] = tmp - dl[i] * x[i]
            else:
                x[i + 1] -= dl[i] * x[i]
        x[n - 1] /= dd[n - 1]
        if n > 1:
            x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / dd[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / dd[i]
        amax = 0.0
        for i in range(n):
            if abs(x[i]) > amax:
                amax = abs(x[i])
        if amax == 0.0 or not math.isfinite(amax):
            return v, -1
        nrm = 0.0
        for i in range(n):
            x[i] /= amax
            nrm += x[i] * x[i]
        nrm = math.sqrt(nrm)
        dot = 0.0
        for i in range(n):
            x[i] /= nrm
            dot += x[i] * v[i]
        if dot < 0.0:
            x = -x
        delta = 0.0
        for i in range(n):
            diff = abs(x[i] - v[i])
            if diff > delta:
                delta = diff
            v[i] = x[i]
        if delta < rel_tol:
            return v, sweep + 1
    return v, -1


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


def assert_same_bits(d, e, tol, sigmas=(None,), rel_tol=1e-12, max_iter=50, hints_seed=0):
    with np.errstate(all="ignore"):
        got = _kernels.smallest_eigenvalue(d, e, tol)
        visited = []
        ref = loop_smallest_eigenvalue(d, e, tol, visited)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        for hints in hint_sets(d, e, float(ref), visited, np.random.default_rng(hints_seed)):
            hinted = _kernels.smallest_eigenvalue(d, e, tol, hints)
            assert np.float64(hinted).tobytes() == np.float64(ref).tobytes(), hints
        for sigma in sigmas:
            sigma = ref if sigma is None else sigma
            v, sweeps = _kernels.inverse_iteration(d, e, sigma, rel_tol, max_iter)
            v_ref, sweeps_ref = loop_inverse_iteration(d, e, sigma, rel_tol, max_iter)
            assert sweeps == sweeps_ref
            assert v.tobytes() == v_ref.tobytes()


class TestMatchesLoopReference:
    """The kernels perform the loop version's IEEE-754 operations in the
    same order, so every result is identical to the last bit, whatever
    hints the bisection is given."""

    def test_random_matrices(self):
        rng = np.random.default_rng(71)
        for k in range(120):
            n = int(rng.integers(1, 120))
            d = rng.uniform(-5.0, 5.0, n) * 10 ** rng.uniform(-3, 3)
            e = rng.uniform(-3.0, 3.0, n - 1) * 10 ** rng.uniform(-3, 3)
            if k % 7 == 0:
                e[rng.integers(0, max(n - 1, 1)):] = 0.0  # split into blocks
            assert_same_bits(d, e, 10 ** rng.uniform(-14, -8), sigmas=(None, rng.uniform(-5, 5)), hints_seed=k)

    def test_unconverged_sweeps(self):
        rng = np.random.default_rng(73)
        for max_iter in range(4):
            d, e = random_tridiagonal(rng, 40)
            assert_same_bits(d, e, 1e-13, rel_tol=1e-30, max_iter=max_iter)

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_degenerate_constant_matrix(self, n):
        d, e = degenerate_constant_matrix(n)
        assert_same_bits(d, e, 1e-12, sigmas=(None, 0.0, d[0], d[1]))

    def test_zero_pivots_and_signed_zeros(self):
        assert_same_bits(np.ones(3), np.zeros(2), 1e-12, sigmas=(1.0,))
        assert_same_bits(np.zeros(5), np.zeros(4), 1e-12, sigmas=(0.0,))
        assert_same_bits(np.array([-0.0, 0.0, -0.0]), np.array([-0.0, 0.0]), 1e-12, sigmas=(0.0, -0.0))
        assert_same_bits(np.array([4.2]), np.zeros(0), 1e-13, sigmas=(4.2, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        rng = np.random.default_rng(79)
        for pos in (0, 1, 5, 9):
            d = rng.uniform(1.0, 5.0, 10)
            e = rng.uniform(-1.0, 1.0, 9)
            d_bad = d.copy()
            d_bad[pos] = bad
            assert_same_bits(d_bad, e, 1e-12, sigmas=(1.0,))
            e_bad = e.copy()
            e_bad[min(pos, 8)] = bad
            assert_same_bits(d, e_bad, 1e-12, sigmas=(1.0,))

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


class TestInverseIteration:
    def test_against_scipy_eigenvector(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            n = int(rng.integers(8, 150))
            d, e = random_tridiagonal(rng, n)
            vals, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
            sigma = _kernels.smallest_eigenvalue(d, e, 1e-13)
            v, sweeps = _kernels.inverse_iteration(d, e, sigma, 1e-12, 50)
            assert sweeps > 0
            assert abs(float(v @ vecs[:, 0])) == pytest.approx(1.0, abs=1e-10)
            assert float(v @ v) == pytest.approx(1.0, rel=1e-12)

    def test_unconverged_flag(self):
        d = np.array([2.0, 3.0, 4.0, 5.0])
        e = np.array([1.0, 1.0, 1.0])
        _, sweeps = _kernels.inverse_iteration(d, e, 1.0, 1e-30, 0)
        assert sweeps == -1

    def test_exact_singular_shift_survives(self):
        # sigma exactly an eigenvalue of the 2x2 blocks: pivots hit zero
        d = np.array([1.0, 1.0, 1.0])
        e = np.array([0.0, 0.0])
        v, sweeps = _kernels.inverse_iteration(d, e, 1.0, 1e-12, 50)
        assert sweeps > 0
        assert np.all(np.isfinite(v))

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_matrices_against_dense_eigh(self, n):
        rng = np.random.default_rng(67 + n)
        for _ in range(20):
            d, e = random_tridiagonal(rng, n)
            _, reference = dense_groundstate(d, e)
            sigma = _kernels.smallest_eigenvalue(d, e, 1e-13)
            v, sweeps = _kernels.inverse_iteration(d, e, sigma, 1e-12, 50)
            assert sweeps > 0
            assert v.shape == (n,)
            assert abs(float(v @ reference)) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_constant_matrix_vector(self):
        d, e = degenerate_constant_matrix(500)
        vals, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        sigma = _kernels.smallest_eigenvalue(d, e, 1e-12)
        v, sweeps = _kernels.inverse_iteration(d, e, sigma, 1e-12, 50)
        assert sweeps > 0
        assert abs(float(v @ vecs[:, 0])) == pytest.approx(1.0, abs=1e-8)
