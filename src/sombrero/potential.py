"""Sombrero-family potentials and their parametrizations.

The potential family is

    V(r) = (1/2) g^2 (r^4 - alpha r^2 + beta) (r^2 + A)

in N spatial dimensions, with everything dimensionless (hbar = mass = 1).
Besides the raw (g, alpha, beta, A, N) coefficients, two reparametrizations
of the same family are provided: the shape/shift ratios (lambda, eta) with
alpha^2 = 4 lambda beta and A = eta alpha, and the Jackiw well form
(r0^2, mu, eta) with alpha = 2 r0^2, beta = r0^4 (1 - mu), A = eta alpha.
"""

from dataclasses import dataclass

import numpy as np


def _check_n_dim(n_dim) -> int:
    """n_dim as an int, or ValueError unless it is an integer >= 1."""
    if int(n_dim) != n_dim or n_dim < 1:
        raise ValueError(f"n_dim must be an integer >= 1, got {n_dim}")
    return int(n_dim)


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of the sextic sombrero potential in n_dim dimensions.

    g must be nonnegative; g = 0 is allowed only for plain evaluation
    (the trial/solver machinery requires g > 0).  alpha, beta, bigA are
    arbitrary finite reals.
    """

    g: float
    alpha: float
    beta: float
    bigA: float
    n_dim: int

    def __post_init__(self):
        if not np.isfinite([self.g, self.alpha, self.beta, self.bigA]).all():
            raise ValueError("potential coefficients must be finite")
        if self.g < 0:
            raise ValueError(f"coupling g must be >= 0, got {self.g}")
        _check_n_dim(self.n_dim)


@dataclass(frozen=True)
class LambdaForm:
    """Shape ratio lambda (alpha^2 = 4 lambda beta) and shift ratio eta (A = eta alpha).

    Zero-energy solutions produced by the solvers always satisfy
    lambda > 1 and 0 < eta < 1.
    """

    lambda_: float
    eta: float


@dataclass(frozen=True)
class JackiwForm:
    """Well-centered parametrization: reference radius r0, depth mu, shift eta.

    V(r) = (1/2) g^2 [(r^2 - r0^2)^2 - mu r0^4] (r^2 + 2 eta r0^2),
    equivalent to the raw form under alpha = 2 r0^2, beta = r0^4 (1 - mu),
    A = eta alpha.
    """

    r0_sq: float
    mu: float
    eta: float

    def __post_init__(self):
        if not (self.r0_sq > 0):
            raise ValueError(f"r0_sq must be > 0, got {self.r0_sq}")


def eval_potential(p: PotentialParams, r):
    """Evaluate V(r) = (1/2) g^2 (r^4 - alpha r^2 + beta) (r^2 + A).

    Accepts a scalar radius or an ndarray of radii (r >= 0, finite).
    V(0) = (1/2) g^2 beta A.
    """
    u = np.asarray(r) ** 2
    v = 0.5 * p.g**2 * (u * u - p.alpha * u + p.beta) * (u + p.bigA)
    return v if np.ndim(r) else float(v)


def from_jackiw_form(j: JackiwForm, g: float, n_dim: int) -> PotentialParams:
    """Raw coefficients from the Jackiw form: alpha = 2 r0^2, beta = r0^4 (1 - mu), A = eta alpha."""
    alpha = 2.0 * j.r0_sq
    beta = j.r0_sq**2 * (1.0 - j.mu)
    return PotentialParams(g=g, alpha=alpha, beta=beta, bigA=j.eta * alpha, n_dim=n_dim)
