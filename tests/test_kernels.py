"""Tridiagonal kernels against scipy and dense numpy references, and
against a plain element-by-element loop version: the bisection within
its tolerance, the pivot walks bit for bit."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from sombrero import PotentialParams, RadialGrid, _kernels, derive_trial, discretize, groundstate, trial_split
from conftest import SQRT3, log_walks, random_potential


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


def loop_gershgorin_ends(d, e):
    """Reference: the Gershgorin bracket (lo, hi) of (d, e), n >= 2."""
    lo = d[0] - abs(e[0])
    hi = d[0] + abs(e[0])
    for i in range(1, d.shape[0]):
        rad = abs(e[i - 1])
        if i < d.shape[0] - 1:
            rad += abs(e[i])
        if d[i] - rad < lo:
            lo = d[i] - rad
        if d[i] + rad > hi:
            hi = d[i] + rad
    return lo, hi


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
    lo, hi = loop_gershgorin_ends(d, e)
    while hi - lo > abs_tol:
        mid = 0.5 * lo + 0.5 * hi
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
    return 0.5 * lo + 0.5 * hi


def estimates(d, e, ref, visited, rng):
    """Estimates for smallest_eigenvalue that must not take its result
    out of tolerance: the eigenvalue and one ulp either side, far outside
    the Gershgorin bracket, at random, non-finite, and at mids the
    bisection visits and one ulp either side of them."""
    entries = np.concatenate([d, e])
    reach = 1.0 + 3.0 * float(np.max(np.abs(entries)))
    points = [
        ref,
        np.nextafter(ref, -math.inf),
        np.nextafter(ref, math.inf),
        -1e3 * reach,
        1e3 * reach,
        *rng.uniform(-reach, reach, 4),
        math.nan,
        math.inf,
        -math.inf,
    ]
    for mid in (visited[0], visited[len(visited) // 2], visited[-1]) if visited else ():
        points += [mid, np.nextafter(mid, -math.inf), np.nextafter(mid, math.inf)]
    return points


def exact_eigenvalue(d, e):
    """The loop reference's smallest eigenvalue at ulp resolution: where
    the Sturm count, as the kernels compute it, turns from no to yes."""
    with np.errstate(all="ignore"):
        return float(loop_smallest_eigenvalue(d, e, 0.0))


def assert_within_tolerance(got, exact, tol):
    """smallest_eigenvalue's contract: within tol of the eigenvalue, or
    within a few ulps of it where tol is smaller.  An eigenvalue whose
    bisection overflows is the loop reference's to the bit."""
    if not math.isfinite(exact):
        assert np.float64(got).tobytes() == np.float64(exact).tobytes()
        return
    ulp = float(np.spacing(max(abs(exact), abs(got))))
    assert abs(got - exact) <= max(tol, 4.0 * ulp), (got, exact, tol)


def assert_within_tolerance_of_loop(d, e, tol, estimates_seed=0, also=()):
    exact = exact_eigenvalue(d, e)
    visited = []
    with np.errstate(all="ignore"):
        ref = loop_smallest_eigenvalue(d, e, tol, visited)
        for estimate in [None, *estimates(d, e, float(ref), visited, np.random.default_rng(estimates_seed)), *also]:
            got = _kernels.smallest_eigenvalue(d, e, tol, estimate)
            assert_within_tolerance(got, exact, tol)


def groundstate_bisections(*args, **kwargs):
    """(d, e, abs_tol, estimate) of each bisection a groundstate solve makes."""
    calls = []
    smallest_eigenvalue = _kernels.smallest_eigenvalue

    def recorded(d, e, abs_tol, estimate=None):
        calls.append((d, e, abs_tol, estimate))
        return smallest_eigenvalue(d, e, abs_tol, estimate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "smallest_eigenvalue", recorded)
        groundstate(*args, **kwargs)
    return calls


def gap_pole(d, e):
    """The pole of gamma_k(x) between the two smallest eigenvalues, for the
    aim's k = argmin(d): the smallest eigenvalue of T without row and
    column k."""
    k = int(np.argmin(d))
    blocks = [(d[:k], e[: k - 1]), (d[k + 1 :], e[k + 1 :])]
    return min(
        sla.eigh_tridiagonal(bd, be, select="i", select_range=(0, 0), eigvals_only=True)[0]
        for bd, be in blocks
        if bd.size
    )


def aimed_gap(d, e, x):
    """gamma_k(x) at the index k = argmin(d) that smallest_eigenvalue aims with."""
    e2 = np.concatenate(([0.0], e * e))
    pivmin = _kernels._SAFMIN * max(1.0, float(np.max(e2)))
    top, bottom = _kernels._rows(d, e2)
    return _kernels._twisted_gap(*top, *bottom, int(np.argmin(d)), x, pivmin)


def _worked_case():
    # the automatic domain: 125, 250, 500 and 1000 cells
    p = PotentialParams(g=1.5, alpha=2.0 * SQRT3, beta=2.0, bigA=2.0 * SQRT3 / 3.0, n_dim=3)
    return groundstate_bisections(p)


def _callable_correction():
    # V - h with h the trial's correction, as the identity sweep solves it
    p = random_potential(np.random.default_rng(5))
    split = trial_split(p, derive_trial(p))
    return groundstate_bisections(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)


def _oscillator():
    return groundstate_bisections(lambda r: 0.5 * r * r, n_dim=1, r_max=12.0, n_points=2000)


def random_matrices():
    """(d, e, abs_tol) of 120 random matrices over six decades of scale,
    every seventh split into blocks by zero off-diagonals."""
    rng = np.random.default_rng(71)
    for k in range(120):
        n = int(rng.integers(1, 120))
        d = rng.uniform(-5.0, 5.0, n) * 10 ** rng.uniform(-3, 3)
        e = rng.uniform(-3.0, 3.0, n - 1) * 10 ** rng.uniform(-3, 3)
        if k % 7 == 0:
            e[rng.integers(0, max(n - 1, 1)):] = 0.0  # split into blocks
        yield d, e, 10 ** rng.uniform(-14, -8)


def wall_matrices():
    """(d, e, abs_tol, estimate) of 60 matrices like a discretized
    confining potential over six decades of scale: a well in the first
    rows and a wall rising to the last, through which the state decays
    far below abs_tol, so that the walks stop at the tail.  Couplings
    vary, every third matrix has both signs and every seventh zero
    couplings in the wall.  Every third also has an estimate two
    secant spreads below the bisection's last probe point, so that the
    secant starts, and the tail is found, below the eigenvalue; the
    others have no estimate."""
    rng = np.random.default_rng(97)
    for k in range(60):
        n = int(rng.integers(40, 400))
        h = 1.0 / n
        r = (np.arange(n) + rng.uniform(0.0, 1.0)) * h - rng.uniform(0.0, 0.2)
        v = rng.uniform(1e4, 1e6) * np.abs(r) ** int(rng.choice([2, 4, 8])) + rng.uniform(1e3, 1e4) * r * r
        e = -0.5 / h**2 * rng.uniform(0.5, 1.5, n - 1)
        if k % 3 == 1:
            e *= rng.choice([-1.0, 1.0], n - 1)
        if k % 7 == 0:
            j = int(rng.integers(n // 2, n - 2))
            e[j : j + 2] = 0.0
        # every Gershgorin disc starts at v; the wall's top holds the upper end
        d = v + np.abs(np.concatenate(([0.0], e))) + np.abs(np.concatenate((e, [0.0])))
        d[-1] += 10.0 / h**2
        scale = 10 ** rng.uniform(-3, 3)
        d, e = d * scale, e * scale
        tol = scale * 10 ** rng.uniform(-16, -12) / h**2
        estimate = None
        if k % 3 == 2:
            visited = []
            loop_smallest_eigenvalue(d, e, tol, visited)
            estimate = visited[-1] - 2.0 * _kernels._AIM_SPREAD * tol
        yield d, e, tol, estimate


def stops_short(log, n):
    """Whether some probe of the log answered no having walked fewer than n rows."""
    return any(kind == "no" and rows < n for kind, rows in log)


class TestMatchesLoopReference:
    """Whatever estimate it is given, the bisection's result lies within
    its tolerance of the loop version's eigenvalue, or within a few ulps
    of it where the tolerance is smaller."""

    def test_random_matrices(self):
        for k, (d, e, tol) in enumerate(random_matrices()):
            assert_within_tolerance_of_loop(d, e, tol, estimates_seed=k)

    def test_wall_matrices(self, monkeypatch):
        # the walks stop at the tail, found below the eigenvalue for the
        # estimates two spreads low
        log = log_walks(monkeypatch)
        short = []
        for k, (d, e, tol, estimate) in enumerate(wall_matrices()):
            log.clear()
            assert_within_tolerance_of_loop(d, e, tol, estimates_seed=k, also=[estimate])
            short.append(stops_short(log, d.size))
        assert all(short)

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_degenerate_constant_matrix(self, n):
        d, e = degenerate_constant_matrix(n)
        assert_within_tolerance_of_loop(d, e, 1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 5e-324, math.inf])
    def test_tolerance_at_the_ends(self, tol):
        d, e = degenerate_constant_matrix(17)
        assert_within_tolerance_of_loop(d, e, tol)

    def test_nan_tolerance_takes_no_step(self):
        # no bracket is narrower than NaN, and none is wider: the result
        # is the middle of the first bracket, Gershgorin's lower end to min(d)
        d, e = degenerate_constant_matrix(17)
        lo = float(np.min(d - np.abs(np.concatenate(([0.0], e))) - np.abs(np.concatenate((e, [0.0])))))
        for estimate in (None, 1.0):
            assert _kernels.smallest_eigenvalue(d, e, math.nan, estimate) == 0.5 * (lo + float(np.min(d)))

    def test_zero_pivots_and_signed_zeros(self):
        assert_within_tolerance_of_loop(np.ones(3), np.zeros(2), 1e-12)
        assert_within_tolerance_of_loop(np.zeros(5), np.zeros(4), 1e-12)
        assert_within_tolerance_of_loop(np.array([-0.0, 0.0, -0.0]), np.array([-0.0, 0.0]), 1e-12)
        assert_within_tolerance_of_loop(np.array([4.2]), np.zeros(0), 1e-13)

    @pytest.mark.parametrize("solve", [_worked_case, _callable_correction, _oscillator],
                             ids=["worked_auto_domain", "callable_correction", "oscillator_n1"])
    def test_aimed_oracle_bisections(self, solve):
        # every bisection of the solve (the cold first level included),
        # with the estimate it was given and with estimates that mislead
        # the aim: its secant starting on one side of the eigenvalue,
        # straddling the second eigenvalue or the pole of the aim's
        # gamma_k between the two, far outside the Gershgorin bracket, or
        # at the ends of the double range.  No numpy warning is allowed
        # on the way.
        for d, e, tol, estimate in solve():
            ref = exact_eigenvalue(d, e)
            second = sla.eigh_tridiagonal(d, e, select="i", select_range=(1, 1), eigvals_only=True)[0]
            pole = gap_pole(d, e)
            w = _kernels._AIM_SPREAD * tol  # the secant starts at estimate -+ w
            assert ref < pole < second
            assert aimed_gap(d, e, pole - w) < 0.0 < aimed_gap(d, e, pole + w)
            reach = 1e3 * float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
            for guess in [
                estimate,
                ref + 2.0 * w,
                ref - 2.0 * w,
                second,
                pole,
                reach,
                -reach,
                -np.finfo(float).max,
                np.finfo(float).max,
            ]:
                got = _kernels.smallest_eigenvalue(d, e, tol, guess)
                assert_within_tolerance(got, ref, tol)

    def test_gap_overflow_skips_the_aim(self):
        # entries near the top of the double range: gamma_k where the
        # secant starts is infinite, so the bisection runs unaimed
        rng = np.random.default_rng(83)
        d = rng.uniform(9e307, 1.7e308, 40)
        e = rng.uniform(-1e150, 1e150, 39)
        estimate = -1e308
        spread = _kernels._AIM_SPREAD * 1e-3
        assert aimed_gap(d, e, estimate - spread) == aimed_gap(d, e, estimate + spread) == math.inf
        ref = exact_eigenvalue(d, e)
        assert math.isfinite(ref)  # no midpoint 0.5 lo + 0.5 hi overflows
        for given in (estimate, None):
            assert_within_tolerance(_kernels.smallest_eigenvalue(d, e, 1e-3, given), ref, 1e-3)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_estimate_never_changes_the_eigenvalue(self, data):
        n = data.draw(st.integers(1, 12), label="n")

        def entry(bound):
            # finite d and e * e, as discretize guarantees
            return st.one_of(
                st.floats(-1e3, 1e3),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, bound, -bound]),
                st.floats(-bound, bound),
            )

        d = np.array(data.draw(st.lists(entry(1e300), min_size=n, max_size=n), label="d"))
        e = np.array(data.draw(st.lists(entry(1e150), min_size=n - 1, max_size=n - 1), label="e"), dtype=float)
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
        estimate = data.draw(st.one_of(st.none(), point), label="estimate")
        with np.errstate(all="ignore"):
            got = _kernels.smallest_eigenvalue(d, e, tol, estimate)
        assert_within_tolerance(got, exact_eigenvalue(d, e), tol)


class TestEstimateNeverChangesResult:
    """Whatever the secant aim estimates, the bisection's result lies
    within its tolerance of the loop version's eigenvalue: the estimate
    only picks probe points."""

    @staticmethod
    def adversarial_estimates(d, e, tol, ref, visited):
        lo, hi = loop_gershgorin_ends(d, e)
        return [
            ref,
            float(np.nextafter(ref, -math.inf)),
            float(np.nextafter(ref, math.inf)),
            *(ref + side * w * tol for w in (0.5, 1.0, 1.5, 3.0) for side in (-1.0, 1.0)),
            *((visited[len(visited) // 2], visited[-1]) if visited else ()),
            float(lo),
            float(hi),
            -1e300,
            1e300,
            math.nan,
        ]

    def assert_within_tolerance(self, monkeypatch, d, e, tol, given=None):
        calls = []
        visited = []
        with np.errstate(all="ignore"):
            ref = float(loop_smallest_eigenvalue(d, e, tol, visited))
        exact = exact_eigenvalue(d, e)
        estimates = self.adversarial_estimates(d, e, tol, ref, visited)
        for estimate in estimates:
            monkeypatch.setattr(_kernels, "_secant_root", lambda *args: calls.append(args) or estimate)
            got = _kernels.smallest_eigenvalue(d, e, tol, given)
            assert_within_tolerance(got, exact, tol)
        # each call aimed, and aimed again where it fell back to a cold
        # bisection; a bracket that starts narrower than tol needs no aim
        assert len(calls) >= len(estimates) or float(np.min(d)) - loop_gershgorin_ends(d, e)[0] <= tol

    @pytest.mark.parametrize("solve", [_worked_case, _callable_correction, _oscillator],
                             ids=["worked_auto_domain", "callable_correction", "oscillator_n1"])
    def test_oracle_bisections(self, solve, monkeypatch):
        # every bisection of the solve, with the estimate it was given
        for d, e, tol, given in solve():
            self.assert_within_tolerance(monkeypatch, d, e, tol, given)

    def test_random_matrices(self, monkeypatch):
        for d, e, tol in random_matrices():
            if d.size > 1:  # a 1x1 matrix is its own eigenvalue
                self.assert_within_tolerance(monkeypatch, d, e, tol)

    def test_wall_matrices(self, monkeypatch):
        log = log_walks(monkeypatch)
        short = []
        for d, e, tol, estimate in wall_matrices():
            log.clear()
            self.assert_within_tolerance(monkeypatch, d, e, tol, estimate)
            short.append(stops_short(log, d.size))
        assert any(short)


class TestTailStop:
    """The leading block that the walks stop at has its smallest
    eigenvalue at or above T's (Cauchy interlacing) and above it by less
    than tol / 16, wherever the tail was found at or above the
    eigenvalue.  Measured at ulp resolution, the two are the same float
    on every matrix below."""

    @staticmethod
    def assert_block_stands_for_the_matrix(monkeypatch, d, e, tol, estimate):
        tails = []
        tail = _kernels._tail

        def recorded(d, radius, lower, x, reach):
            tails.append((x, tail(d, radius, lower, x, reach)))
            return tails[-1][1]

        monkeypatch.setattr(_kernels, "_tail", recorded)
        exact = exact_eigenvalue(d, e)
        for given in (None, estimate):
            with np.errstate(all="ignore"):
                _kernels.smallest_eigenvalue(d, e, tol, given)
        cuts = {s for x, s in tails if x >= exact and s < d.size - 1}
        for s in cuts:
            block = exact_eigenvalue(d[: s + 1], e[:s])
            assert exact - float(np.spacing(abs(exact))) <= block <= exact + tol / 16.0, (d.size, s)
        return cuts

    def test_wall_matrices(self, monkeypatch):
        cuts = [self.assert_block_stands_for_the_matrix(monkeypatch, *args) for args in wall_matrices()]
        assert any(cuts)

    @pytest.mark.parametrize("solve", [_worked_case, _callable_correction, _oscillator],
                             ids=["worked_auto_domain", "callable_correction", "oscillator_n1"])
    def test_oracle_matrices(self, solve, monkeypatch):
        cuts = [self.assert_block_stands_for_the_matrix(monkeypatch, *args) for args in solve()]
        assert any(cuts)


class TestSameBitsTwice:
    """Repeated calls on one input return the same bits, as the
    benchmark requires of every case it runs more than once."""

    def test_kernels(self):
        matrices = [*wall_matrices(), *_worked_case(), *_callable_correction()]
        matrices += [(d, e, tol, None) for d, e, tol in random_matrices()]
        for d, e, tol, estimate in matrices:
            first = _kernels.smallest_eigenvalue(d, e, tol, estimate)
            again = _kernels.smallest_eigenvalue(d, e, tol, estimate)
            assert np.float64(again).tobytes() == np.float64(first).tobytes()
            assert _kernels.eigenvector(d, e, first, tol).tobytes() == _kernels.eigenvector(d, e, again, tol).tobytes()

    @staticmethod
    def _identity_case():
        p = random_potential(np.random.default_rng(5))
        return groundstate(p, extra_potential=trial_split(p, derive_trial(p)).h_at, r_max=8.0, n_points=2000)

    @pytest.mark.parametrize("solve", [
        lambda: groundstate(PotentialParams(g=1.5, alpha=2.0 * SQRT3, beta=2.0, bigA=2.0 * SQRT3 / 3.0, n_dim=3)),
        _identity_case,
        lambda: groundstate(lambda r: 0.5 * r * r, n_dim=1, r_max=12.0, n_points=2000),
    ], ids=["worked_auto_domain", "callable_correction", "oscillator_n1"])
    def test_groundstate(self, solve):
        first, again = solve(), solve()
        for a, b in ((first.energy, again.energy), (first.error_estimate, again.error_estimate),
                     *zip(first.richardson_pair, again.richardson_pair)):
            assert a.hex() == b.hex()
        assert first.vector.tobytes() == again.vector.tobytes()


def loop_pivots(shifted, e2, pivmin):
    """Reference: q_0 = shifted_0, q_i = shifted_i - e2_(i-1) / q_(i-1),
    each |q_i| < pivmin floored to -pivmin, one index at a time."""
    n = shifted.shape[0]
    out = np.empty(n)
    with np.errstate(all="ignore"):
        for i in range(n):
            q = shifted[i] if i == 0 else shifted[i] - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            out[i] = q
    return out


def loop_eigenvector(d, e, sigma):
    """Reference: the full walk, one twisted factorization of the whole
    matrix one index at a time.  loop_pivots top-down and bottom-up, the
    first twist index k with the least |D+_k + D-_k - (d_k - sigma)|,
    running products outward from x_k = 1, then the scaling by the
    largest |x_i| and by the root of a running sum of squares."""
    n = d.shape[0]
    e2 = e * e
    pivmin = _kernels._SAFMIN * max(1.0, float(np.max(e2, initial=0.0)))
    with np.errstate(all="ignore"):
        shifted = d - sigma
        down = loop_pivots(shifted, e2, pivmin)
        up = loop_pivots(shifted[::-1], e2[::-1], pivmin)[::-1]
        k = 0
        for i in range(1, n):
            if abs(down[i] + up[i] - shifted[i]) < abs(down[k] + up[k] - shifted[k]):
                k = i
        x = np.ones(n)
        for i in range(k - 1, -1, -1):
            x[i] = x[i + 1] * (-e[i] / down[i])
        for i in range(k + 1, n):
            x[i] = x[i - 1] * (-e[i - 1] / up[i])
        peak = max(abs(xi) for xi in x)
        x /= peak
        total = 0.0
        for xi in x:
            total += xi * xi
        x /= math.sqrt(total)
    return x


def loop_last_pivot(x, d, e2, pivmin):
    """Reference: the last pivot of the floored walk over d - x."""
    with np.errstate(all="ignore"):
        for i in range(d.shape[0]):
            q = d[i] - x if i == 0 else d[i] - x - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
    return q


def walk_inputs():
    """(d, e, shifts) that cover floored zero pivots, signed zeros and
    non-finite entries."""
    rng = np.random.default_rng(89)
    for n in (1, 2, 3, 40, 300):
        d, e = random_tridiagonal(rng, n)
        yield d, e, (0.0, -0.0, float(d[0]), float(rng.uniform(-8.0, 8.0)))
    for n in (2, 3, 17, 300):
        d, e = degenerate_constant_matrix(n)
        # at x = d_0 the first pivot is an exact zero, which is floored
        yield d, e, (float(d[0]), 0.0, float(_kernels.smallest_eigenvalue(d, e, 1e-12)))
    yield np.zeros(5), np.zeros(4), (0.0, -0.0)
    yield np.array([-0.0, 0.0, -0.0]), np.array([-0.0, 0.0]), (0.0, -0.0, 1.0)
    yield np.ones(3), np.zeros(2), (1.0,)
    for bad in (math.nan, math.inf, -math.inf):
        for pos in (0, 4, 9):
            d, e = rng.uniform(1.0, 5.0, 10), rng.uniform(-1.0, 1.0, 9)
            d_bad, e_bad = d.copy(), e.copy()
            d_bad[pos] = bad
            e_bad[min(pos, 8)] = bad
            yield d_bad, e, (0.0, 2.0)
            yield d, e_bad, (0.0, 2.0)
            yield d, e, (bad,)


class TestWalksMatchLoopReference:
    """The pivot walks are bit for bit their plain index-loop definitions."""

    def test_pivots_and_last_pivot(self):
        for d, e, shifts in walk_inputs():
            e2 = e * e
            # the walks take any pivmin; this one skips the NaNs in e2
            pivmin = _kernels._SAFMIN * float(np.fmax.reduce(e2, initial=1.0))
            # the walks' lists, e2 led by a 0 top-down and bottom-up
            top, bottom = _kernels._rows(d, np.concatenate(([0.0], e2)))
            for x in shifts:
                # top-down and bottom-up: the eigenvector's two walks, and _twisted_gap's
                for (rows, couplings), dd, ee in ((top, d, e2), (bottom, d[::-1], e2[::-1])):
                    with np.errstate(all="ignore"):
                        shifted = dd - x
                    got = _kernels._pivots(rows, couplings, x, pivmin)
                    assert got.dtype == np.float64 and got.shape == dd.shape
                    assert got.tobytes() == loop_pivots(shifted, ee, pivmin).tobytes(), (d, e, x)
                    got = _kernels._last_pivot(rows, couplings, x, pivmin)
                    ref = loop_last_pivot(x, dd, ee, pivmin)
                    assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (d, e, x)


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
    # |v - full walk| / peak in units of e^-R = sqrt(abs_tol / (64
    # max(|e|, 1))), the decay at which the leading block ends: measured
    # at most 0.142 (the worked case on 8000 cells at r_max = 8), 0.106
    # on the wall matrices and 0.032 on the random ones
    CUT_ERROR = 0.25

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
            self.assert_matches(_kernels.eigenvector(d, e, sigma, 1e-13), vecs[:, 0], 1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_matrices_against_dense_eigh(self, n):
        rng = np.random.default_rng(67 + n)
        for _ in range(20):
            d, e = random_tridiagonal(rng, n)
            _, reference = dense_groundstate(d, e)
            sigma = _kernels.smallest_eigenvalue(d, e, 1e-13)
            self.assert_matches(_kernels.eigenvector(d, e, sigma, 1e-13), reference, 1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 500])
    def test_degenerate_constant_matrix(self, n):
        d, e = degenerate_constant_matrix(n)
        _, reference = dense_groundstate(d, e)
        sigma = _kernels.smallest_eigenvalue(d, e, 1e-12)
        v = _kernels.eigenvector(d, e, sigma, 1e-12)
        self.assert_matches(v, reference, 1e-12)
        assert v.min() > 0.0

    @pytest.mark.parametrize("n", [1000, 2000, 4000, 8000])
    def test_oracle_matrices(self, n, worked_potential):
        # the worked case's flux-form operator: negative off-diagonals, so
        # the groundstate vector is nonnegative entry by entry (its tail
        # underflows to zero where the true values fall below 1e-308)
        op = discretize(worked_potential, grid=RadialGrid.make(8.0, n))
        sigma = _kernels.smallest_eigenvalue(op.diag, op.off_diag, 1e-12)
        v = _kernels.eigenvector(op.diag, op.off_diag, sigma, 1e-12)
        _, vecs = sla.eigh_tridiagonal(op.diag, op.off_diag, select="i", select_range=(0, 0))
        reference = vecs[:, 0] * np.sign(vecs[:, 0].sum())
        self.assert_matches(v, reference, 1e-13)
        assert np.max(np.abs(v - reference)) < 1e-10
        assert v.min() >= 0.0

    def test_leading_block_against_full_walk(self, worked_potential, monkeypatch):
        # the vector of the leading block the walks stop at, against the
        # twisted factorization of the whole matrix at the same sigma:
        # within CUT_ERROR e^-R of its peak, exactly 0 past the block,
        # positive in it where every coupling is negative, and the full
        # walk's bits where nothing is cut.  One random matrix that zero
        # couplings split, and the five-row ones below, hold the state
        # past rows they isolate, which a tail found below the eigenvalue
        # cuts off
        matrices = [(d, e, tol, None) for d, e, tol in random_matrices()]
        matrices += [*wall_matrices(), *_worked_case()]
        for n in (1000, 2000, 4000, 8000):
            op = discretize(worked_potential, grid=RadialGrid.make(8.0, n))
            # groundstate bisects to 1e-10 / r_max^2
            matrices.append((op.diag, op.off_diag, 1e-10 / 64.0, None))
        # the state on a row that zero couplings isolate, behind another
        # isolated row and bisected to under half its ulp, so that sigma
        # may lie an ulp below it
        for dm in np.linspace(9998.25, 9998.35, 16):
            matrices.append((np.array([1e4, 1e4, 1e4, 1e4 + 100.0, dm]), np.array([-1.0, -1.0, 0.0, 0.0]), 1e-14, None))
        log = log_walks(monkeypatch)
        cut = []
        for d, e, tol, estimate in matrices:
            sigma = _kernels.smallest_eigenvalue(d, e, tol, estimate)
            log.clear()
            v = _kernels.eigenvector(d, e, sigma, tol)
            (_, rows), (_, rows_up) = [entry for entry in log if entry[0] == "vector"]
            assert rows == rows_up
            full = loop_eigenvector(d, e, sigma)
            depth = math.sqrt(tol / (64.0 * max(1.0, float(np.max(np.abs(e), initial=0.0)))))
            assert np.max(np.abs(v - full)) <= self.CUT_ERROR * depth * np.max(np.abs(full))
            assert not v[rows:].any()
            if np.all(e[: rows - 1] < 0.0):
                assert np.all(v[:rows] > 0.0)
            if rows == d.size:
                assert v.tobytes() == full.tobytes()
            cut.append(rows < d.size)
        assert any(cut)

    def test_exact_singular_shift_survives(self):
        # sigma exactly an eigenvalue of 1x1 blocks: every pivot is zero
        v = _kernels.eigenvector(np.ones(3), np.zeros(2), 1.0, 1e-13)
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
        v = _kernels.eigenvector(d, e, sigma, 1e-13 * norm)
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
