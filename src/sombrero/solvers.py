"""Constraint solvers that pick out zero-energy groundstate potentials.

Three routes produce exactly solvable parameter sets:

  * solve_eta / params_from_lambda: fix (g, lambda), solve the cubic in
    eta that encodes both the exact-solvability (m = 0) and zero-energy
    (E0 = 0) constraints, and reconstruct (alpha, beta, A).
  * jackiw_solutions: the special one-parameter family with g = 1,
    beta = r0^4 and A = 2 r0^2 where r0^4 = (N+2)/3; the m = 0
    condition becomes a quadratic in alpha with two closed branches
    (these have m = 0 but generally E0 != 0).
  * solve_eta_mu: the well-form route; eliminating mu and c from the
    three constraints leaves one cubic in eta with at most one root in
    (0, 1), which exists exactly when g > 3/4.  Both routes take beta
    from eta by one rule, N (1 - eta) / (2 eta g).

Each cubic has at most one root in (0, 1), so solve_eta and solve_eta_mu
share one finder that bisects [0, 1] to the last float when the cubic's
ends there are nonzero and of opposite sign, and finds no root otherwise;
jackiw_solutions needs none.  Both cubics are convex on [0, 1]:

  * the eta cubic f(eta) = lambda N (eta+1)^2 (eta-1) + (N+4) eta + N has
    f(0) = N (1 - lambda), f(1) = 2N + 4 > 0 and f'' = lambda N (6 eta + 2).
    For lambda > 1, f(0) < 0 and a convex f changes sign exactly once.
    For 0 < lambda <= 1, f'(0) = N + 4 - lambda N > 0 and f' rises, so
    f > 0 on (0, 1]; for lambda <= 0, f is concave or linear and positive
    at both ends, so again f > 0 on (0, 1).
  * the well-form cubic p (eta_mu_cubic_coefficients, leading
    coefficient 2) has p'' > 0 on [0, 1], p(0) = -3N / ((N+2) g) < 0 and
    p(1) = 2 (4g - 3) / g: one root if g > 3/4, none otherwise.

A grid of lambdas, as the scan-lambda command solves, goes through a
numpy copy of that finder that gives the same roots bit for bit; one
lambda stays on the scalar finder, some fifty times faster than a
one-element batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .potential import JackiwForm, LambdaForm, PotentialParams
from .trial import (
    TrialParams,
    derive_trial,
    m_zero_residual,
    satisfies_m_zero,
    satisfies_zero_energy,
    trial_split,
    zero_energy_residual,
)


class NoRootError(RuntimeError):
    """A constraint system has no root in the admissible interval."""


@dataclass(frozen=True)
class ZeroModeSolution:
    """A potential whose exact groundstate has eigenvalue zero.

    Factory-produced instances satisfy both constraint residuals to
    trial.CONSTRAINT_RTOL = 1e-10 (term-scaled) and carry trial =
    derive_trial(potential).
    """

    potential: PotentialParams
    trial: TrialParams
    lambda_form: LambdaForm | None = None
    jackiw_form: JackiwForm | None = None


@dataclass(frozen=True)
class JackiwBranch:
    """One closed-form branch of the fixed-r0 family: m = 0 exactly, but
    the groundstate energy e0 is generally nonzero."""

    potential: PotentialParams
    trial: TrialParams
    e0: float


def _quadratic_roots(a, b, c):
    """Real roots of a x^2 + b x + c, ascending, a double root once.

    Dividing by the largest coefficient keeps b^2 - 4ac finite, and
    q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 gives the roots q / a and
    c / q without cancellation.  With a = 0 the linear root is returned.
    """
    scale = max(abs(a), abs(b), abs(c))
    a, b, c = a / scale, b / scale, c / scale
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:
        return [0.0]
    return sorted({q / a, c / q})


def _cubic_roots_in_unit_interval(coefficients):
    """Root strictly inside (0, 1) of the cubic c3 x^3 + c2 x^2 + c1 x + c0, as a list.

    The list holds one bisected root when the cubic is nonzero at 0 and 1
    with opposite signs, and is empty otherwise: a cubic that is convex
    or concave on [0, 1], as both constraint cubics are (see the module
    docstring), has no other root there.  |c3| + |c2| + |c1| + |c0|
    bounds every Horner intermediate on [0, 1].
    """
    c3, c2, c1, c0 = map(float, coefficients)
    if not math.isfinite(abs(c3) + abs(c2) + abs(c1) + abs(c0)):
        raise ValueError(f"cubic coefficients must be finite with a finite sum, got {coefficients}")

    def cubic(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    f_lo, f_hi = cubic(0.0), cubic(1.0)
    if min(f_lo, f_hi) < 0.0 < max(f_lo, f_hi):
        return [_bisect(cubic, 0.0, 1.0, f_lo, f_hi)]
    return []


def _bisect(f, lo, hi, f_lo, f_hi):
    """Halve [lo, hi], where f changes sign, until no float lies strictly
    inside; return the end with the smaller |f| or an exact zero."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


# lambdas per block of _solve_eta_grid: its working arrays stay a few
# hundred kB however long the grid is
_BLOCK = 4096
# halving steps of _bisect_batch between looks for settled brackets
_CHECK_EVERY = 8


def _first_roots_in_unit_interval(coefficients):
    """Root in (0, 1) of each cubic in a batch, NaN where there is none.

    coefficients is (c3, c2, c1, c0), four equal-length float arrays.
    Each cubic runs through the steps of _cubic_roots_in_unit_interval
    in numpy, so each root equals that finder's root bit for bit, and the
    first cubic with a non-finite coefficient sum raises its ValueError.
    One array bisection of [0, 1] serves every cubic whose ends there
    differ in sign.
    """
    c3, c2, c1, c0 = coefficients = tuple(np.asarray(c, dtype=float) for c in coefficients)
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(np.abs(c3) + np.abs(c2) + np.abs(c1) + np.abs(c0))
        if np.count_nonzero(bad):
            i = int(np.argmax(bad))
            got = tuple(float(c[i]) for c in coefficients)
            raise ValueError(f"cubic coefficients must be finite with a finite sum, got {got}")

        f_lo, f_hi = _horner(coefficients, 0.0), _horner(coefficients, 1.0)
        change = (np.minimum(f_lo, f_hi) < 0.0) & (np.maximum(f_lo, f_hi) > 0.0)
        count = np.count_nonzero(change)
        roots = np.full(c3.shape, np.nan)
        roots[change] = _bisect_batch(
            np.zeros(count), np.ones(count), f_lo[change], [c[change] for c in coefficients]
        )
    return roots


def _horner(coefficients, x):
    c3, c2, c1, c0 = coefficients
    return ((c3 * x + c2) * x + c1) * x + c0


def _bisect_batch(lo, hi, f_lo, coefficients):
    """_bisect on many cubics at once, one per element of lo, hi and f_lo.

    Each cubic is first negated where f_lo > 0, which is exact, so that
    f < 0 at every lo and f > 0 at every hi.  Halving then leaves a
    bracket with no float inside as it is, and shrinks one whose midpoint
    is an exact zero to that point.  So all brackets halve in step, the
    settled ones leave every _CHECK_EVERY steps, and each ends where the
    scalar loop returns: at the zero, or at the end with the smaller |f|,
    recomputed here to the bit.
    """
    sign = np.where(f_lo < 0.0, 1.0, -1.0)
    coefficients = [c * sign for c in coefficients]
    roots = np.empty_like(lo)
    index = np.arange(lo.size)
    while index.size:
        for _ in range(_CHECK_EVERY):
            mid = 0.5 * (lo + hi)
            f_mid = _horner(coefficients, mid)
            lo = np.where(f_mid <= 0.0, mid, lo)
            hi = np.where(f_mid >= 0.0, mid, hi)
        mid = 0.5 * (lo + hi)
        done = (mid <= lo) | (mid >= hi)
        if np.count_nonzero(done):
            f_lo, f_hi = _horner(coefficients, lo), _horner(coefficients, hi)
            roots[index[done]] = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)[done]
            keep = ~done
            lo, hi, index = lo[keep], hi[keep], index[keep]
            coefficients = [c[keep] for c in coefficients]
    return roots


def _solve_eta_grid(lambdas, n_dim: int):
    """solve_eta(lam, n_dim)[0] for each finite lam of a grid, NaN where it has no root.

    Works through the grid in blocks of _BLOCK; the first lambda whose
    cubic has a non-finite coefficient raises solve_eta's ValueError.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    roots = np.empty_like(lambdas)
    for start in range(0, lambdas.size, _BLOCK):
        with np.errstate(over="ignore"):  # an infinite coefficient is reported below
            coefficients = eta_cubic_coefficients(lambdas[start : start + _BLOCK], n_dim)
        roots[start : start + _BLOCK] = _first_roots_in_unit_interval(coefficients)
    return roots


def eta_cubic_coefficients(lambda_: float, n_dim: int):
    """Cubic in eta whose roots make both m and E0 vanish for given lambda.

    Coefficients (c3, c2, c1, c0) of
    lambda N eta^3 + lambda N eta^2 + (N + 4 - lambda N) eta + N (1 - lambda).
    """
    n = float(n_dim)
    return (lambda_ * n, lambda_ * n, n + 4.0 - lambda_ * n, n * (1.0 - lambda_))


def solve_eta(lambda_: float, n_dim: int):
    """The root of the eta cubic strictly inside (0, 1), as a list.

    The cubic is convex on [0, 1] and negative at 0 exactly when
    lambda > 1 (see the module docstring), so the list holds one root for
    lambda > 1 and is empty otherwise: an empty list is a legitimate
    outcome (no zero-energy potential has that shape ratio).
    """
    if not math.isfinite(lambda_):
        raise ValueError(f"lambda must be finite, got {lambda_}")
    if n_dim < 1:
        raise ValueError(f"n_dim must be >= 1, got {n_dim}")
    return _cubic_roots_in_unit_interval(eta_cubic_coefficients(lambda_, n_dim))


def params_from_lambda(g: float, lambda_: float, eta: float, n_dim: int) -> ZeroModeSolution:
    """Reconstruct the zero-energy potential for a root eta of solve_eta.

    beta = N (1 - eta) / (2 eta g) (_zero_energy_beta, the rule
    solve_eta_mu uses too), alpha = +2 sqrt(lambda beta) (the positive
    branch), A = eta alpha.  The result is validated against both
    constraint residuals, so an eta that is not actually a root is
    rejected.
    """
    if not (g > 0):
        raise ValueError(f"need g > 0, got {g}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    beta = _zero_energy_beta(g, eta, n_dim)
    if not (beta > 0) or not (lambda_ * beta > 0):
        raise ValueError(f"invalid shape parameters: beta={beta}, lambda={lambda_}")
    alpha = 2.0 * math.sqrt(lambda_ * beta)
    p = PotentialParams(g=g, alpha=alpha, beta=beta, bigA=eta * alpha, n_dim=n_dim)
    if not (satisfies_m_zero(p) and satisfies_zero_energy(p)):
        raise ValueError(
            f"eta={eta!r} does not solve the constraints for lambda={lambda_!r}, "
            f"N={n_dim}: residuals ({_fmt_res(p)})"
        )
    return ZeroModeSolution(
        potential=p,
        trial=derive_trial(p),
        lambda_form=LambdaForm(lambda_=lambda_, eta=eta),
    )


def _zero_energy_beta(g: float, eta: float, n_dim: int) -> float:
    """beta = N (1 - eta) / (2 eta g): with A = eta alpha, the E0 = 0
    constraint A g^2 beta / 2 = N (alpha - A) g / 4 for any alpha.

    Both the lambda and the well-form route take beta from it; it has no
    difference of nearly equal terms for any eta in (0, 1).
    """
    return n_dim * (1.0 - eta) / (2.0 * eta * g)


def _fmt_res(p: PotentialParams) -> str:
    return f"m: {m_zero_residual(p):.3e}, e0: {zero_energy_residual(p):.3e}"


def jackiw_solutions(n_dim: int):
    """Both exactly solvable branches of the fixed-r0 family (g = 1).

    With r0^4 = (N+2)/3, beta = r0^4 and A = 2 r0^2, the m = 0 condition
    alpha^2 + 4 r0^2 alpha - 12 r0^4 = 0 factors cleanly, so both
    branches are written down analytically: alpha = 2 r0^2 gives c = 0
    and e0 = r0^6 (the pure exp(-r^4/4) state), alpha = -6 r0^2 gives
    c = -2 r0^2 and e0 = r0^6 + 2 N r0^2.  Returned with the
    alpha = 2 r0^2 branch first; trial coefficients are the exact closed
    forms rather than derive_trial output, keeping c and m free of
    rounding residue.
    """
    if n_dim < 1:
        raise ValueError(f"n_dim must be >= 1, got {n_dim}")
    r0_4 = (n_dim + 2.0) / 3.0
    r0_sq = math.sqrt(r0_4)
    branches = []
    for alpha, c in ((2.0 * r0_sq, 0.0), (-6.0 * r0_sq, -2.0 * r0_sq)):
        p = PotentialParams(g=1.0, alpha=alpha, beta=r0_4, bigA=2.0 * r0_sq, n_dim=n_dim)
        t = TrialParams(a=0.25, c=c, m=0.0)
        branches.append(JackiwBranch(potential=p, trial=t, e0=trial_split(p, t).e0))
    return branches


def eta_mu_cubic_coefficients(g: float, n_dim: int):
    """Cubic in eta from eliminating mu and c in the well-form constraints.

    Eliminating gives eta [g (1+eta)^2 - 3] r0^4 = (N/2)(1 - eta) with
    r0^4 = (N+2)/3; expanded and scaled so the leading coefficient is
    exactly 2, which for g = 1, N = 3 lands on (2, 4, -11/5, -9/5).
    """
    n = float(n_dim)
    a3 = (n + 2.0) * g
    a2 = 2.0 * (n + 2.0) * g
    a1 = (n + 2.0) * (g - 3.0) + 1.5 * n
    a0 = -1.5 * n
    return (2.0, 2.0 * a2 / a3, 2.0 * a1 / a3, 2.0 * a0 / a3)


def solve_eta_mu(g: float, n_dim: int) -> ZeroModeSolution:
    """Zero-energy solution in the well form for coupling g.

    Solves the eta cubic, which is convex on [0, 1], negative at 0, and
    positive at 1 exactly when g > 3/4 (see the module docstring), so it
    has one root in (0, 1) for g > 3/4 and none otherwise.  Builds the
    potential from the root directly: alpha = 2 r0^2 with
    r0^4 = (N+2)/3, A = eta alpha, and beta = N (1 - eta) / (2 eta g),
    the rule params_from_lambda uses (_zero_energy_beta).  The depth
    mu = 1 - (1+eta)^2 + 3/g is reported in the Jackiw form, not used:
    beta = r0^4 (1 - mu) is the same number, but 1 - mu cancels near
    g = 3/4.  The quadratic trial coefficient follows
    c = (1 - eta) g r0^2 / 2.  Raises NoRootError when the cubic has no
    root in (0, 1), or when the potential rebuilt from the root misses
    either constraint residual, which within about 2.4e-7 above 3/4 some
    still do (the residuals' own alpha - A = alpha (1 - eta) cancels).
    """
    if not (g > 0):
        raise ValueError(f"need g > 0, got {g}")
    if n_dim < 1:
        raise ValueError(f"n_dim must be >= 1, got {n_dim}")
    roots = _cubic_roots_in_unit_interval(eta_mu_cubic_coefficients(g, n_dim))
    if not roots:
        raise NoRootError(
            f"no shift ratio eta in (0, 1) solves the constraints for g={g}, N={n_dim}"
        )
    eta = roots[0]
    form = JackiwForm(r0_sq=math.sqrt((n_dim + 2.0) / 3.0), mu=1.0 - (1.0 + eta) ** 2 + 3.0 / g, eta=eta)
    alpha = 2.0 * form.r0_sq
    p = PotentialParams(g=g, alpha=alpha, beta=_zero_energy_beta(g, eta, n_dim), bigA=eta * alpha, n_dim=n_dim)
    if not (satisfies_m_zero(p) and satisfies_zero_energy(p)):
        raise NoRootError(
            f"the root eta={eta!r} found for g={g}, N={n_dim} misses the constraints ({_fmt_res(p)})"
        )
    return ZeroModeSolution(potential=p, trial=derive_trial(p), jackiw_form=form)
