"""Closed-form trial-function machinery.

The groundstate ansatz is psi = exp(-S0) with

    S0(r) = a r^4 - c r^2 + m log(r^2 + 1).

Killing the r^6, r^4 and r^2 terms of the Riccati identity fixes

    a = g/4,
    c = (alpha - A) g / 4,
    m = [g (beta - alpha A) - g (alpha - A)^2 / 4 + N + 2] / 4,

and leaves a bounded potential correction h(r) plus a shifted eigenvalue
E0, so that psi solves the problem with potential V - h at energy E0
exactly.  m = 0 makes h vanish identically (psi is then the exact
groundstate of V itself), and E0 = 0 on top of that selects the
zero-energy potentials this package is about.
"""

from dataclasses import dataclass

import numpy as np

from .potential import PotentialParams

# relative tolerance of the constraint checks, against the size of the
# terms that make up each residual
CONSTRAINT_RTOL = 1e-10


@dataclass(frozen=True)
class TrialParams:
    """Exponent coefficients (a, c, m) of the trial function."""

    a: float
    c: float
    m: float


@dataclass(frozen=True)
class TrialSplit:
    """Potential correction h and shifted eigenvalue E0 for a trial function.

    h(r) = h_coef2 / (r^2+1)^2 + h_coef1 / (r^2+1); it vanishes
    identically when m = 0 and always decays to 0 as r -> infinity.
    """

    e0: float
    h_coef1: float
    h_coef2: float

    def h_at(self, r):
        """Evaluate h at a scalar radius or ndarray of radii."""
        w = 1.0 / (np.asarray(r) ** 2 + 1.0)
        val = (self.h_coef2 * w + self.h_coef1) * w
        return val if np.ndim(r) else float(val)


def derive_trial(p: PotentialParams) -> TrialParams:
    """Trial coefficients (a, c, m) for a potential with g > 0."""
    if not (p.g > 0):
        raise ValueError(f"trial construction requires g > 0, got g={p.g}")
    a = p.g / 4.0
    c = (p.alpha - p.bigA) * p.g / 4.0
    m = m_zero_residual(p) / 4.0
    return TrialParams(a=a, c=c, m=m)


def trial_split(p: PotentialParams, t: TrialParams) -> TrialSplit:
    """Correction h(r) and eigenvalue E0 for trial t over potential p.

    t is taken as given (normally derive_trial(p)) rather than recomputed,
    so perturbed coefficients can be fed in deliberately to probe how the
    Riccati identity breaks.
    """
    m, c = t.m, t.c
    n = p.n_dim
    h_coef2 = 2.0 * m * (m + 1.0)
    h_coef1 = (n - 2.0) * m - 2.0 * m * m - 2.0 * m * p.g - 4.0 * m * c
    e0 = 0.5 * p.bigA * p.g**2 * p.beta + 2.0 * m * p.g - n * c + 4.0 * m * c
    return TrialSplit(e0=e0, h_coef1=h_coef1, h_coef2=h_coef2)


def m_zero_residual(p: PotentialParams) -> float:
    """Signed residual of the exact-solvability constraint (equals 4m).

    Zero iff the trial function is the exact groundstate of V itself.
    """
    diff = p.alpha - p.bigA
    return p.g * (p.beta - p.alpha * p.bigA) - 0.25 * p.g * diff * diff + p.n_dim + 2.0


def zero_energy_residual(p: PotentialParams) -> float:
    """Signed residual of the E0 = 0 constraint (assuming m = 0).

    Returns A g^2 beta / 2 - N c with c = (alpha - A) g / 4.
    """
    c = (p.alpha - p.bigA) * p.g / 4.0
    return 0.5 * p.bigA * p.g**2 * p.beta - p.n_dim * c


def _m_zero_scale(p: PotentialParams) -> float:
    diff = p.alpha - p.bigA
    return abs(p.g * (p.beta - p.alpha * p.bigA)) + 0.25 * p.g * diff * diff + p.n_dim + 2.0


def _zero_energy_scale(p: PotentialParams) -> float:
    c = (p.alpha - p.bigA) * p.g / 4.0
    return abs(0.5 * p.bigA * p.g**2 * p.beta) + abs(p.n_dim * c)


def satisfies_m_zero(p: PotentialParams) -> bool:
    """True when the exact-solvability residual vanishes to CONSTRAINT_RTOL (term-scaled)."""
    return abs(m_zero_residual(p)) <= CONSTRAINT_RTOL * _m_zero_scale(p)


def satisfies_zero_energy(p: PotentialParams) -> bool:
    """True when the E0 = 0 residual vanishes to CONSTRAINT_RTOL (term-scaled)."""
    return abs(zero_energy_residual(p)) <= CONSTRAINT_RTOL * _zero_energy_scale(p)
