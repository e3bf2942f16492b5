"""Shared fixtures: the exact N=3, g=1.5 zero-energy reference case, and
a log of the rows the kernels' walks take."""

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
    "gamma" for one top-down or bottom-up walk of gamma_k, and "vector"
    for one top-down or bottom-up pivot walk of the eigenvector.  A
    probe walks the leading block only, so a "no" that walked fewer rows
    than the matrix has stopped short of its last row.
    """
    log = []
    pivot_below, last_pivot, pivots = _kernels._pivot_below, _kernels._last_pivot, _kernels._pivots

    def counted_pivot_below(shifted, e2, pivmin):
        rows = _Counted(shifted)
        answer = pivot_below(rows, e2, pivmin)
        log.append(("yes" if answer else "no", rows.taken))
        return answer

    def counted_last_pivot(shifted, e2, pivmin):
        log.append(("gamma", len(shifted)))
        return last_pivot(shifted, e2, pivmin)

    def counted_pivots(shifted, e2, pivmin):
        log.append(("vector", len(shifted)))
        return pivots(shifted, e2, pivmin)

    monkeypatch.setattr(_kernels, "_pivot_below", counted_pivot_below)
    monkeypatch.setattr(_kernels, "_last_pivot", counted_last_pivot)
    monkeypatch.setattr(_kernels, "_pivots", counted_pivots)
    return log
