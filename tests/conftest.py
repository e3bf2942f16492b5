"""Shared fixtures: the exact N=3, g=1.5 zero-energy reference case, a
log of the rows the kernels' walks take, and the loop references of the
pivot walk and the eigenvector."""

import math

import numpy as np
import pytest

from sombrero import PotentialParams, _kernels

SQRT3 = math.sqrt(3.0)


@pytest.fixture
def worked_potential() -> PotentialParams:
    """Zero-energy sombrero at N=3, g=1.5: alpha = 2 sqrt(3), beta = 2, A = alpha/3."""
    return PotentialParams(g=1.5, alpha=2.0 * SQRT3, beta=2.0, bigA=2.0 * SQRT3 / 3.0, n_dim=3)


def random_potential(rng: np.random.Generator) -> PotentialParams:
    """Arbitrary (not constraint-satisfying) parameters in the tested ranges."""
    return PotentialParams(
        g=rng.uniform(0.5, 2.0),
        alpha=rng.uniform(-2.0, 3.0),
        beta=rng.uniform(-2.0, 3.0),
        bigA=rng.uniform(-2.0, 3.0),
        n_dim=int(rng.choice([1, 2, 3, 5])),
    )


class _Counted:
    """An iterable over rows that counts the rows taken from it."""

    def __init__(self, rows):
        self.rows, self.taken = rows, 0

    def __iter__(self):
        for row in self.rows:
            self.taken += 1
            yield row


def log_walks(monkeypatch) -> list:
    """Log each Sturm probe, gamma_k walk and eigenvector walk the kernels make.

    Appends (kind, rows walked): kind "yes" or "no" for a probe's answer,
    "gamma" for one top-down or bottom-up walk of the aim's gamma_k
    (_last_pivot), and "vector" for one top-down or bottom-up pivot walk
    of the eigenvector's (_pivot_list, the top-down walk first).  A
    probe walks the leading block only, so a "no" that walked fewer rows
    than the matrix has stopped short of its last row.
    """
    log = []
    pivot_below, last_pivot, pivot_list = _kernels._pivot_below, _kernels._last_pivot, _kernels._pivot_list

    def counted_pivot_below(d, e2, x, pivmin):
        rows = _Counted(d)
        answer = pivot_below(rows, e2, x, pivmin)
        log.append(("yes" if answer else "no", rows.taken))
        return answer

    def counted_last_pivot(d, e2, x, pivmin):
        rows = _Counted(d)
        q = last_pivot(rows, e2, x, pivmin)
        log.append(("gamma", rows.taken))
        return q

    def counted_pivot_list(d, e2, x, pivmin):
        pivots = pivot_list(d, e2, x, pivmin)
        log.append(("vector", len(pivots)))
        return pivots

    monkeypatch.setattr(_kernels, "_pivot_below", counted_pivot_below)
    monkeypatch.setattr(_kernels, "_last_pivot", counted_last_pivot)
    monkeypatch.setattr(_kernels, "_pivot_list", counted_pivot_list)
    return log


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


def loop_eigenvector(d, e, sigma, abs_tol=math.inf, k=None):
    """Reference: the full walk, one twisted factorization of the whole
    matrix one index at a time.  loop_pivots top-down and bottom-up, the
    twist at k (by default the first index of the least d_k), with
    running products outward from x_k = 1, kept where
    |gamma_k| <= n (abs_tol + ulp(max|e_i|)) max|x_i| for
    gamma_k = (d_k - sigma) - e2_(k-1) / D+_(k-1) - e2_k / D-_(k+1), and
    otherwise taken again at the first index of the least
    |D+_j + D-_j - (d_j - sigma)|; then the scaling by the largest
    |x_i| and by the root of a running sum of squares."""
    n = d.shape[0]
    e2 = e * e
    pivmin = _kernels._SAFMIN * max(1.0, float(np.max(e2, initial=0.0)))
    with np.errstate(all="ignore"):
        shifted = d - sigma
        down = loop_pivots(shifted, e2, pivmin)
        up = loop_pivots(shifted[::-1], e2[::-1], pivmin)[::-1]

        def twist(j):
            x = np.ones(n)
            for i in range(j - 1, -1, -1):
                x[i] = x[i + 1] * (-e[i] / down[i])
            for i in range(j + 1, n):
                x[i] = x[i - 1] * (-e[i - 1] / up[i])
            return x

        if k is None:
            k = 0
            for i in range(1, n):
                if d[i] < d[k]:
                    k = i
        x = twist(k)
        gap = float(shifted[k])
        if k > 0:
            gap -= float(e2[k - 1]) / float(down[k - 1])
        if k < n - 1:
            gap -= float(e2[k]) / float(up[k + 1])
        if not abs(gap) <= n * (abs_tol + math.ulp(float(np.max(np.abs(e), initial=0.0)))) * max(abs(xi) for xi in x):
            k = 0
            for i in range(1, n):
                if abs(down[i] + up[i] - shifted[i]) < abs(down[k] + up[k] - shifted[k]):
                    k = i
            x = twist(k)
        peak = max(abs(xi) for xi in x)
        x /= peak
        total = 0.0
        for xi in x:
            total += xi * xi
        x /= math.sqrt(total)
    return x
