"""Independent numerical groundstate solver for the radial problem.

Discretizes -(1/2) (1/r^(N-1)) d/dr (r^(N-1) d/dr) + V(r) - extra(r) in
flux form on a staggered grid r_j = (j + 1/2) dr, so the coordinate
singularity at r = 0 is never touched and the zero-flux inner face
enforces psi'(0) = 0 for every dimension; the outer boundary is
Dirichlet.  A similarity transform by r^((N-1)/2) makes the operator an
exactly symmetric tridiagonal matrix, whose smallest eigenvalue comes
from Sturm-sequence bisection.  The energy is computed on a ladder of
grids, each with half the spacing of the one before, and each
consecutive pair is Richardson-extrapolated, cancelling the leading
O(dr^2) error; the ladder stops once the extrapolated energy meets an
accuracy target.  The groundstate vector comes from one twisted
factorization on the finest grid.  Each solve uses one domain: an
explicit r_max, or for the sextic family one derived from the
potential's own length scale, so that a rescaled potential r -> s r
gets a domain exactly s times as wide.

This module shares no formulas with the closed-form trial construction;
it is the truth oracle the analytic solutions are checked against.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .potential import PotentialParams, eval_potential
from .solvers import ZeroModeSolution
from .trial import m_zero_residual, satisfies_m_zero, satisfies_zero_energy, trial_split, zero_energy_residual
from .wavefunction import TrialWavefunction, derivatives_s0, eval_s0, schrodinger_residual

MIN_GRID_POINTS = 16
# decay exponent of psi, in WKB terms, between the outermost turning
# point of the energy bound and the automatic domain's outer wall
_WKB_REACH = 40.0
# half-width, in units of the energy scale, of the bracket around an
# eigenvalue estimate that is probed before a bisection starts
_HINT_WIDTH = 1e-6
# grid ladder: cells per level (spacing halved each time, up to the cap)
# and the error target of the extrapolated energy, in units of 1/r_max^2
_LADDER = tuple(250 * 2**k for k in range(6))
_LADDER_TARGET = 1e-8
# verify_solution passes a claim when |E - e0| < TOL_ENERGY and the
# cosine similarity of the vectors exceeds 1 - TOL_SIMILARITY
TOL_ENERGY = 1e-6
TOL_SIMILARITY = 1e-6


class GridExtentWarning(UserWarning):
    """The domain looks too small to confine the state being solved for."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Cell-centered radial mesh: points r_j = (j + 1/2) dr, dr = r_max / n_points."""

    r_max: float
    n_points: int
    points: np.ndarray

    def __post_init__(self):
        if not (self.r_max > 0):
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        if self.n_points < MIN_GRID_POINTS:
            raise ValueError(f"need at least {MIN_GRID_POINTS} grid points, got {self.n_points}")

    @classmethod
    def make(cls, r_max: float, n_points: int) -> "RadialGrid":
        dr = r_max / n_points
        return cls(r_max=r_max, n_points=n_points, points=(np.arange(n_points) + 0.5) * dr)

    @property
    def spacing(self) -> float:
        return self.r_max / self.n_points


@dataclass(frozen=True, eq=False)
class TridiagonalOperator:
    """Symmetrized discrete Hamiltonian: diagonal and subdiagonal arrays."""

    diag: np.ndarray
    off_diag: np.ndarray
    grid: RadialGrid


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Groundstate estimate from the oracle.

    energy is the Richardson-extrapolated eigenvalue; vector holds the
    discrete wavefunction samples on the finest grid, from one twisted
    factorization at the fine eigenvalue, sign-checked (no entry below
    -1e-8 times the peak) and normalized so sum(vector^2 r^(N-1)) dr = 1.
    richardson_pair keeps the two raw eigenvalues (coarse, fine) behind
    the extrapolation.
    """

    energy: float
    vector: np.ndarray
    grid: RadialGrid
    richardson_pair: tuple[float, float]


def _resolve_potential(potential, n_dim):
    """Normalize the potential argument to (vectorized callable, n_dim)."""
    if isinstance(potential, PotentialParams):
        return (lambda r: eval_potential(potential, r)), potential.n_dim
    if n_dim is None:
        raise ValueError("a callable potential needs an explicit n_dim")
    return potential, int(n_dim)


def discretize(potential, extra_potential=None, grid: RadialGrid = None, n_dim: int = None) -> TridiagonalOperator:
    """Flux-form symmetric tridiagonal discretization on the given grid.

    potential is either PotentialParams or a vectorized callable V(r)
    (then n_dim is required); extra_potential, if given, is subtracted
    from V.  Raises ValueError naming the first grid radius where
    V - extra_potential is NaN or infinite.  Warns when V(r_max) is below
    10 max(|V(0)|, 1/r_max^2), i.e. when the Dirichlet wall may truncate
    a barely confined state; both terms scale like V under r -> s r, so
    the test does not depend on the choice of units.
    """
    if grid is None:
        raise ValueError("discretize requires a RadialGrid")
    v_at, ndim = _resolve_potential(potential, n_dim)
    r = grid.points
    dr = grid.spacing
    n = grid.n_points

    v = np.asarray(v_at(r), dtype=float)
    if extra_potential is not None:
        v = v - np.asarray(extra_potential(r), dtype=float)
    _require_finite(v, r)

    faces = np.arange(n + 1) * dr
    w = faces ** (ndim - 1.0)
    w[0] = 0.0  # zero flux through r = 0: psi'(0) = 0 in every dimension
    rw = r ** (ndim - 1.0)
    diag = 0.5 * (w[:-1] + w[1:]) / (rw * dr * dr) + v
    off = -0.5 * w[1:-1] / (dr * dr * np.sqrt(rw[:-1] * rw[1:]))

    v_origin, v_edge = (float(x) for x in np.asarray(v_at(np.array([0.0, grid.r_max]))))
    if v_edge < 10.0 * max(abs(v_origin), 1.0 / grid.r_max**2):
        warnings.warn(
            f"V(r_max={grid.r_max:g}) = {v_edge:.3g} is small; the domain may be "
            "too short to confine the groundstate",
            GridExtentWarning,
            stacklevel=2,
        )
    return TridiagonalOperator(diag=diag, off_diag=off, grid=grid)


def _require_finite(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = bad[0]
        raise ValueError(f"potential is not finite at r = {r[j]:.9g} (value {v[j]})")
    return v


def _energy_scale(v_at, r_max: float) -> float:
    v0 = float(np.asarray(v_at(np.array([0.0])))[0])
    v_edge = float(np.asarray(v_at(np.array([r_max])))[0])
    return max(1.0, abs(v0), abs(v_edge) ** (1.0 / 3.0))


def _domain_radius(p: PotentialParams) -> float:
    """Outer radius of the domain for a sextic potential, from V and N alone.

    L = max(g^-1/4, sqrt|alpha|, |beta|^1/4, sqrt|A|) is the potential's
    length scale.  On 1600 samples of (0, 8L], E_b = min over R of
    [max_{r<=R} V + j^2/(2R^2)] bounds the groundstate energy from above:
    for each R it is the largest V in the ball of radius R plus the
    ball's lowest Dirichlet kinetic energy, with j = sqrt(N/2)
    (sqrt(N/2+1) + 1) no smaller than the first zero of J_{N/2-1}.  The
    domain ends where the WKB exponent, the integral of
    sqrt(2(V - E_b)) dr from the outermost turning point of E_b, reaches
    _WKB_REACH.  Every step scales with L, so r -> s r gives a radius s
    times as large.
    """
    length = max(p.g**-0.25, math.sqrt(abs(p.alpha)), abs(p.beta) ** 0.25, math.sqrt(abs(p.bigA)))
    dr = 8.0 * length / 1600
    r = dr * np.arange(1, 1601)
    v = _require_finite(eval_potential(p, r), r)
    half_n = 0.5 * p.n_dim
    j = math.sqrt(half_n) * (math.sqrt(half_n + 1.0) + 1.0)
    e_bound = float(np.min(np.maximum.accumulate(v) + 0.5 * j * j / (r * r)))
    # the first sample lies below E_b, so a turning point always exists
    turning = np.flatnonzero(v <= e_bound)[-1]
    decay = np.sqrt(2.0 * np.maximum(v[turning:] - e_bound, 0.0))
    reach = np.concatenate(([0.0], np.cumsum(0.5 * dr * (decay[:-1] + decay[1:]))))
    if not reach[-1] >= _WKB_REACH:
        raise RuntimeError(
            f"V stays within reach of its energy bound {e_bound:.6g} out to r = {r[-1]:.6g}; "
            "it does not confine the groundstate (pass r_max explicitly)"
        )
    return float(np.interp(_WKB_REACH, reach, r[turning:]))


def groundstate(
    potential,
    extra_potential=None,
    r_max: float = None,
    n_points: int = None,
    n_dim: int = None,
) -> EigenResult:
    """Smallest eigenvalue and groundstate vector of V - extra_potential.

    Solves on one domain [0, r_max] over a ladder of grids, each with
    half the spacing of the one before, and Richardson-extrapolates each
    consecutive pair of raw eigenvalues, E_k = (4 e_k - e_(k-1)) / 3.
    With n_points=None the ladder runs 250, 500, 1000, ... cells and
    stops at the first level from the third on where the extrapolated
    error estimate |E_k - E_(k-1)| / 15 is at most 1e-8 / r_max^2, or at
    8000 cells, whatever the estimate there; the target scales like the
    energy under r -> s r, so a rescaled potential stops at the same
    level.  An explicit n_points solves on n_points and 2*n_points cells
    only.  The energy, richardson_pair and vector all come from the last
    pair of levels; the vector is one twisted factorization
    (_kernels.eigenvector) at the finest grid's eigenvalue.  Raises
    RuntimeError when two consecutive raw eigenvalues disagree by more
    than a tenth of the energy scale (grid too coarse), and when the
    vector is not finite or changes sign.

    With r_max=None a PotentialParams potential gets the radius where
    its groundstate has decayed by about e^-40, found from V and N alone
    (extra_potential is not consulted); see _domain_radius.  A callable
    potential needs an explicit r_max, as it needs an explicit n_dim.

    PotentialParams inputs must have g > 0 for confinement; a callable
    potential is trusted to confine on its own.
    """
    if isinstance(potential, PotentialParams) and not (potential.g > 0):
        raise ValueError(f"groundstate requires g > 0 for confinement, got g={potential.g}")
    v_at, ndim = _resolve_potential(potential, n_dim)
    if r_max is None:
        if not isinstance(potential, PotentialParams):
            raise ValueError("a callable potential needs an explicit r_max")
        r_max = _domain_radius(potential)
    r_max = float(r_max)

    scale = _energy_scale(v_at, r_max)
    bisect_tol = 1e-12 * scale
    target = _LADDER_TARGET / r_max**2
    raw = []
    energies = []
    hints = ()
    for n in _LADDER if n_points is None else (n_points, 2 * n_points):
        op = discretize(v_at, extra_potential, RadialGrid.make(r_max, n), n_dim=ndim)
        # a hint only shortens the bisection (see _kernels.smallest_eigenvalue)
        raw.append(float(_kernels.smallest_eigenvalue(op.diag, op.off_diag, bisect_tol, hints)))
        estimate = raw[-1]
        if len(raw) > 1:
            e_coarse, e_fine = raw[-2:]
            if abs(e_coarse - e_fine) > 0.1 * scale:
                raise RuntimeError(
                    f"raw eigenvalues {e_coarse:.6g} and {e_fine:.6g} disagree by more than "
                    f"10% of scale {scale:.3g}: grid too coarse"
                )
            energies.append((4.0 * e_fine - e_coarse) / 3.0)
            if len(energies) > 1 and abs(energies[-1] - energies[-2]) / 15.0 <= target:
                break
            # the raw error falls 4x per halving of dr, so the next level's
            # eigenvalue sits near E + (e_coarse - e_fine) / 12
            estimate = energies[-1] + (e_coarse - e_fine) / 12.0
        hints = (estimate - _HINT_WIDTH * scale, estimate + _HINT_WIDTH * scale)

    # op is the finest grid's operator, the last one the loop built
    vec = _kernels.eigenvector(op.diag, op.off_diag, e_fine)
    if not np.isfinite(vec).all():
        raise RuntimeError("groundstate vector is not finite")
    if vec.min() < -1e-8 * vec.max():
        raise RuntimeError("groundstate vector changed sign; eigenpair suspect")

    grid = op.grid
    r = grid.points
    dr = grid.spacing
    psi = vec / r ** ((ndim - 1.0) / 2.0)
    psi /= math.sqrt(float(np.sum(psi * psi * r ** (ndim - 1.0)) * dr))
    return EigenResult(energy=energies[-1], vector=psi, grid=grid, richardson_pair=(e_coarse, e_fine))


@dataclass(frozen=True)
class VerificationReport:
    """Oracle-vs-closed-form comparison for a claimed zero-energy solution.

    passed requires the oracle energy to match the closed-form e0 and
    the oracle vector to match psi; the constraint residuals and the
    worst pointwise Riccati residual are reported alongside, and every
    check that misses lands in failures.
    """

    oracle_energy: float
    closed_form_e0: float
    energy_error: float
    similarity: float
    max_residual: float
    m_residual: float
    zero_energy_residual: float
    passed: bool
    failures: tuple[str, ...]


def verify_solution(sol: ZeroModeSolution, *, r_max: float = None, n_points: int = None) -> VerificationReport:
    """Check a claimed zero-energy solution against the numerical oracle.

    Compares the oracle groundstate energy of sol.potential with the
    closed-form e0 of its trial, and the oracle eigenvector with
    psi = exp(-S0), scaled to peak 1 on the grid, under the r^(N-1)
    weight (cosine similarity).  The constraint residuals and the max
    pointwise Riccati residual on a log-spaced radius grid are included
    as diagnostics.  r_max and n_points go to groundstate: None takes
    the domain from the potential's length scale and lets the grid
    ladder pick the grid from its accuracy target; an explicit n_points
    solves on n_points and 2*n_points cells.
    """
    p = sol.potential
    split = trial_split(p, sol.trial)
    result = groundstate(p, r_max=r_max, n_points=n_points)

    w = TrialWavefunction(trial=sol.trial, potential=p)
    r = result.grid.points
    dr = result.grid.spacing
    weight = r ** (p.n_dim - 1.0)
    # psi = exp(-S0) divided by its peak on the grid: unscaled, its square
    # overflows once the peak exponent passes ~355 (the scale cancels below)
    s0 = np.asarray(eval_s0(w, r))
    with np.errstate(under="ignore"):
        psi = np.exp(-(s0 - s0.min()))
    psi_norm = math.sqrt(float(np.sum(psi * psi * weight) * dr))
    similarity = float(np.sum(psi * result.vector * weight) * dr / psi_norm)

    radii = np.geomspace(1e-3, min(result.grid.r_max, 20.0), 60)
    residual = np.asarray(schrodinger_residual(w, split.e0, radii))
    max_residual = float(np.max(np.abs(residual) / _residual_scale(w, split.e0, radii)))

    failures = []
    energy_error = abs(result.energy - split.e0)
    if not (energy_error < TOL_ENERGY):
        failures.append("oracle_energy_vs_e0")
    if not (similarity > 1.0 - TOL_SIMILARITY):
        failures.append("eigenvector_similarity")
    if not satisfies_m_zero(p):
        failures.append("m_zero_residual")
    if not satisfies_zero_energy(p):
        failures.append("zero_energy_residual")

    return VerificationReport(
        oracle_energy=result.energy,
        closed_form_e0=split.e0,
        energy_error=energy_error,
        similarity=similarity,
        max_residual=max_residual,
        m_residual=m_zero_residual(p),
        zero_energy_residual=zero_energy_residual(p),
        passed=("oracle_energy_vs_e0" not in failures and "eigenvector_similarity" not in failures),
        failures=tuple(failures),
    )


def _residual_scale(w: TrialWavefunction, e: float, radii: np.ndarray) -> np.ndarray:
    """Magnitude of the residual's constituent terms, for relative error."""
    d1, d2 = derivatives_s0(w, radii)
    n = w.potential.n_dim
    v = eval_potential(w.potential, radii)
    total = (
        d1 * d1
        + np.abs((n - 1.0) / radii * d1)
        + np.abs(d2)
        + 2.0 * np.abs(v - e)
    )
    return np.maximum(1.0, total)
