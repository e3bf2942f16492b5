"""Evaluation of the trial wavefunction psi = exp(-S0) and its diagnostics.

All residual work happens in S-space (on the exponent and its analytic
derivatives), never by differentiating psi numerically: psi underflows
to zero far out in the tail while S0 stays perfectly representable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .potential import PotentialParams, eval_potential
from .solvers import _quadratic_roots
from .trial import TrialParams, derive_trial


@dataclass(frozen=True)
class TrialWavefunction:
    """Trial state psi = exp(-S0) with S0 = a r^4 - c r^2 + m log(r^2+1).

    Carries the potential it was built for so Schroedinger residuals can
    be evaluated.  psi is positive everywhere, decays at infinity for
    a > 0, and has psi'(0) = 0.
    """

    trial: TrialParams
    potential: PotentialParams

    @classmethod
    def from_potential(cls, p: PotentialParams) -> "TrialWavefunction":
        return cls(trial=derive_trial(p), potential=p)


@dataclass(frozen=True)
class PeakLocation:
    """Radius of the global maximum of psi; valley_at_origin marks an
    off-center peak with a local minimum at r = 0."""

    radius: float
    valley_at_origin: bool


def eval_s0(w: TrialWavefunction, r):
    """Exponent S0(r) = a r^4 - c r^2 + m log(r^2 + 1)."""
    t = w.trial
    u = np.asarray(r) ** 2
    val = t.a * u * u - t.c * u + t.m * np.log1p(u)
    return val if np.ndim(r) else float(val)


def eval_psi(w: TrialWavefunction, r):
    """Amplitude exp(-S0(r)); underflows quietly to 0 at large radii."""
    s = eval_s0(w, r)
    with np.errstate(under="ignore", over="ignore"):
        val = np.exp(-np.asarray(s))
    return val if np.ndim(r) else float(val)


def derivatives_s0(w: TrialWavefunction, r):
    """Analytic (S0', S0'') at radius r (scalar or ndarray).

    S0'  = 4 a r^3 - 2 c r + 2 m r / (r^2+1)
    S0'' = 12 a r^2 - 2 c + 2 m (1 - r^2) / (r^2+1)^2
    """
    t = w.trial
    rr = np.asarray(r)
    u = rr * rr
    d1 = 4.0 * t.a * u * rr - 2.0 * t.c * rr + 2.0 * t.m * rr / (u + 1.0)
    d2 = 12.0 * t.a * u - 2.0 * t.c + 2.0 * t.m * (1.0 - u) / (u + 1.0) ** 2
    if np.ndim(r):
        return d1, d2
    return float(d1), float(d2)


def maxima_radius(w: TrialWavefunction) -> PeakLocation:
    """Locate the global maximum of psi along the radial profile.

    With u = r^2, S0'(r) = 2 r [2a u - c + m / (u + 1)], so the peak is
    whichever of r = 0 and the sqrt(u) for positive roots u of
    2a u^2 + (2a - c) u + (m - c) has the smallest S0.  For m = 0 that
    is a ring at r = sqrt(c / (2a)) = sqrt(2c/g) when c > 0, else r = 0.
    """
    t = w.trial
    roots = _quadratic_roots(2.0 * t.a, 2.0 * t.a - t.c, t.m - t.c)
    candidates = [0.0, *(math.sqrt(u) for u in roots if u > 0.0)]
    best = min(candidates, key=lambda r: eval_s0(w, r))
    return PeakLocation(radius=best, valley_at_origin=best > 0.0)


def _riccati_residual(w: TrialWavefunction, e: float, r: np.ndarray):
    """schrodinger_residual on radii r > 0, and the sum of its four terms' magnitudes.

    One evaluation of S0'^2, ((N-1)/r) S0', S0'' and 2 (V(r) - e) gives
    both; verify_solution scales the residual by the sum.
    """
    d1, d2 = derivatives_s0(w, r)
    slope_sq = d1 * d1
    drift = (w.potential.n_dim - 1.0) / r * d1
    potential = 2.0 * (eval_potential(w.potential, r) - e)
    return slope_sq - drift - d2 - potential, slope_sq + np.abs(drift) + np.abs(d2) + np.abs(potential)


def schrodinger_residual(w: TrialWavefunction, e: float, r):
    """Pointwise residual S0'^2 - ((N-1)/r) S0' - S0'' - 2 (V(r) - e).

    Vanishes identically when psi is an exact eigenstate of V at energy e.
    Its terms are evaluated once, by _riccati_residual, which also hands
    verify_solution their magnitudes.  Singular form: r must be strictly
    positive.
    """
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0.0):
        raise ValueError("residual requires r > 0")
    val = _riccati_residual(w, e, rr)[0]
    return val if np.ndim(r) else float(val)
