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
    three constraints leaves one cubic in eta with a single root in
    (0, 1) for the couplings of interest.

All three lean on the same deterministic scan/bisect/secant root finder.
"""

import math
from dataclasses import dataclass

import numpy as np

from .potential import JackiwForm, LambdaForm, PotentialParams, from_jackiw_form
from .trial import (
    TrialParams,
    derive_trial,
    satisfies_m_zero,
    satisfies_zero_energy,
    trial_split,
)


class NoRootError(RuntimeError):
    """A constraint system has no root in the admissible interval."""


@dataclass(frozen=True)
class ZeroModeSolution:
    """A potential whose exact groundstate has eigenvalue zero.

    Factory-produced instances satisfy both constraint residuals to
    1e-10 (term-scaled) and carry trial = derive_trial(potential).
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


def find_bracketed_roots(f, lo, hi, subdivisions=64, tol=1e-12, scale=None):
    """All roots of f on [lo, hi] found by panel scan + bisection + secant.

    The interval is split into `subdivisions` equal panels; every sign
    change is bisected down to a bracket narrower than tol and then
    polished with derivative-free secant steps until |f| stops improving
    (target 1e-13 * scale, scale defaulting to max(1, |f(lo)|, |f(hi)|)).
    Exact zeros at panel boundaries are kept once.  Output is sorted,
    deduplicated, and a pure function of the inputs.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if subdivisions < 2:
        raise ValueError(f"need at least 2 subdivisions, got {subdivisions}")

    xs = np.linspace(lo, hi, subdivisions + 1)
    fs = np.array([float(f(x)) for x in xs])
    if not np.isfinite(fs).all():
        raise ValueError("f must be finite on [lo, hi]")
    if scale is None:
        scale = max(1.0, abs(fs[0]), abs(fs[-1]))
    target = 1e-13 * scale

    roots = []
    for i in range(subdivisions + 1):
        if fs[i] == 0.0:
            roots.append(float(xs[i]))
    for i in range(subdivisions):
        fa, fb = fs[i], fs[i + 1]
        if fa == 0.0 or fb == 0.0 or fa * fb > 0.0:
            continue
        a, b = float(xs[i]), float(xs[i + 1])
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break
            fm = float(f(mid))
            if fm == 0.0:
                a = b = mid
                fa = fb = 0.0
                break
            if fa * fm < 0.0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        roots.append(_polish_secant(f, a, b, fa, fb, target, lo, hi))

    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > max(tol, 1e-14 * max(abs(lo), abs(hi))):
            merged.append(r)
    return merged


def _polish_secant(f, a, b, fa, fb, target, lo, hi):
    """Secant refinement inside a tight bracket; returns the best-|f| point."""
    best_x, best_f = (a, abs(fa)) if abs(fa) <= abs(fb) else (b, abs(fb))
    x0, f0, x1, f1 = a, fa, b, fb
    for _ in range(30):
        if best_f <= target or f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi) or not math.isfinite(x2):
            break
        f2 = float(f(x2))
        if abs(f2) < best_f:
            best_x, best_f = x2, abs(f2)
        else:
            break
        x0, f0, x1, f1 = x1, f1, x2, f2
    return best_x


def _cubic_roots_in_unit_interval(coefficients):
    """Roots strictly inside (0, 1) of the cubic with coefficients (c3, c2, c1, c0).

    One find_bracketed_roots call on [0, 1], with the cubic evaluated by
    Horner's rule and |f| judged against its largest coefficient.
    """
    c3, c2, c1, c0 = coefficients

    def cubic(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    coef_scale = max(1.0, abs(c3), abs(c2), abs(c1), abs(c0))
    roots = find_bracketed_roots(cubic, 0.0, 1.0, subdivisions=64, scale=coef_scale)
    return [r for r in roots if 0.0 < r < 1.0]


def eta_cubic_coefficients(lambda_: float, n_dim: int):
    """Cubic in eta whose roots make both m and E0 vanish for given lambda.

    Coefficients (c3, c2, c1, c0) of
    lambda N eta^3 + lambda N eta^2 + (N + 4 - lambda N) eta + N (1 - lambda).
    """
    n = float(n_dim)
    return (lambda_ * n, lambda_ * n, n + 4.0 - lambda_ * n, n * (1.0 - lambda_))


def solve_eta(lambda_: float, n_dim: int):
    """All roots of the eta cubic strictly inside (0, 1), sorted ascending.

    An empty list is a legitimate outcome (no zero-energy potential has
    that shape ratio); roots only exist for lambda > 1.
    """
    if not math.isfinite(lambda_):
        raise ValueError(f"lambda must be finite, got {lambda_}")
    if n_dim < 1:
        raise ValueError(f"n_dim must be >= 1, got {n_dim}")
    return _cubic_roots_in_unit_interval(eta_cubic_coefficients(lambda_, n_dim))


def params_from_lambda(g: float, lambda_: float, eta: float, n_dim: int) -> ZeroModeSolution:
    """Reconstruct the zero-energy potential for a root eta of solve_eta.

    beta = N (1 - eta) / (2 eta g), alpha = +2 sqrt(lambda beta) (the
    positive branch), A = eta alpha.  The result is validated against
    both constraint residuals, so an eta that is not actually a root is
    rejected.
    """
    if not (g > 0):
        raise ValueError(f"need g > 0, got {g}")
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    beta = n_dim * (1.0 - eta) / (2.0 * eta * g)
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


def _fmt_res(p: PotentialParams) -> str:
    from .trial import m_zero_residual, zero_energy_residual

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

    Solves the eta cubic, takes its unique root in (0, 1), recovers mu
    from the exact-solvability constraint (mu = 1 - (1+eta)^2 + 3/g) and
    the potential through the Jackiw form.  The quadratic trial
    coefficient follows c = (1 - eta) g r0^2 / 2.  Raises NoRootError
    when the cubic has no root or several in (0, 1), or when the
    potential rebuilt from the root misses either constraint residual.
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
    if len(roots) > 1:
        raise NoRootError(
            f"expected a unique eta in (0, 1) for g={g}, N={n_dim}, found {roots}"
        )
    eta = roots[0]
    mu = 1.0 - (1.0 + eta) ** 2 + 3.0 / g
    form = JackiwForm(r0_sq=math.sqrt((n_dim + 2.0) / 3.0), mu=mu, eta=eta)
    p = from_jackiw_form(form, g=g, n_dim=n_dim)
    if not (satisfies_m_zero(p) and satisfies_zero_energy(p)):
        raise NoRootError(
            f"the root eta={eta!r} found for g={g}, N={n_dim} misses the constraints ({_fmt_res(p)})"
        )
    return ZeroModeSolution(potential=p, trial=derive_trial(p), jackiw_form=form)
