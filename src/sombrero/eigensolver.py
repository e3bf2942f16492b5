"""Independent numerical groundstate solver for the radial problem.

Discretizes -(1/2) (1/r^(N-1)) d/dr (r^(N-1) d/dr) + V(r) - extra(r) in
flux form on a staggered grid r_j = (j + 1/2) dr, so the coordinate
singularity at r = 0 is never touched and the zero-flux inner face
enforces psi'(0) = 0 for every dimension; the outer boundary is
Dirichlet.  A similarity transform by r^((N-1)/2) makes the operator an
exactly symmetric tridiagonal matrix, whose smallest eigenvalue comes
from Sturm-sequence bisection.  Each energy is computed at spacings dr
and dr/2 and Richardson-extrapolated, cancelling the leading O(dr^2)
error.  The groundstate vector comes from inverse iteration, once per
solve, on the fine grid of the domain the solve accepts; the trial
domains of the automatic domain search compare energies only.

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
from .wavefunction import TrialWavefunction, derivatives_s0, eval_psi, schrodinger_residual

DEFAULT_R_MAX = 8.0
MIN_GRID_POINTS = 16
# half-width, in units of the energy scale, of the bracket around an
# eigenvalue estimate that is probed before a bisection starts
_HINT_WIDTH = 1e-6


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
    discrete wavefunction samples on the finer grid, sign-fixed positive
    and normalized so sum(vector^2 r^(N-1)) dr = 1.  richardson_pair
    keeps the two raw eigenvalues (coarse, fine) behind the
    extrapolation.
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
    V - extra_potential is NaN or infinite.  Warns when V(r_max) is small
    compared to the energy scale, i.e. when the Dirichlet wall may
    truncate a barely confined state.
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
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = bad[0]
        raise ValueError(f"potential is not finite at r = {r[j]:.9g} (value {v[j]})")

    faces = np.arange(n + 1) * dr
    w = faces ** (ndim - 1.0)
    w[0] = 0.0  # zero flux through r = 0: psi'(0) = 0 in every dimension
    rw = r ** (ndim - 1.0)
    diag = 0.5 * (w[:-1] + w[1:]) / (rw * dr * dr) + v
    off = -0.5 * w[1:-1] / (dr * dr * np.sqrt(rw[:-1] * rw[1:]))

    v_edge = float(np.asarray(v_at(np.array([grid.r_max])))[0])
    if v_edge < 10.0 * _energy_scale(v_at, grid.r_max):
        warnings.warn(
            f"V(r_max={grid.r_max:g}) = {v_edge:.3g} is small; the domain may be "
            "too short to confine the groundstate",
            GridExtentWarning,
            stacklevel=2,
        )
    return TridiagonalOperator(diag=diag, off_diag=off, grid=grid)


def _energy_scale(v_at, r_max: float) -> float:
    v0 = float(np.asarray(v_at(np.array([0.0])))[0])
    v_edge = float(np.asarray(v_at(np.array([r_max])))[0])
    return max(1.0, abs(v0), abs(v_edge) ** (1.0 / 3.0))


def groundstate(
    potential,
    extra_potential=None,
    r_max: float = None,
    n_points: int = 2000,
    n_dim: int = None,
) -> EigenResult:
    """Smallest eigenvalue and groundstate vector of V - extra_potential.

    Solves at spacings dr and dr/2 (n_points and 2*n_points cells),
    Richardson-extrapolates the energy, and reports the eigenvector on
    the finer grid.  With r_max=None the domain starts at 8 and is
    extended by 25% (up to three times) until the extrapolated energy is
    stable to 1e-9 * scale; an explicit r_max is used as given.  Trial
    domains compare energies only: the eigenvector is computed once, on
    the domain the solve returns.

    PotentialParams inputs must have g > 0 for confinement; a callable
    potential (with n_dim) is trusted to confine on its own.
    """
    if isinstance(potential, PotentialParams) and not (potential.g > 0):
        raise ValueError(f"groundstate requires g > 0 for confinement, got g={potential.g}")
    v_at, ndim = _resolve_potential(potential, n_dim)

    if r_max is not None:
        return _eigenvector(_eigenvalues(v_at, extra_potential, float(r_max), n_points, ndim), ndim)

    rm = DEFAULT_R_MAX
    current = _eigenvalues(v_at, extra_potential, rm, n_points, ndim)
    for _ in range(3):
        # at fixed n_points the wider domain's dr^2 is 1.25^2 times this one's,
        # and so, to leading order, is the coarse grid's error
        guess = current.energy + 1.5625 * (current.pair[0] - current.energy)
        wider = _eigenvalues(v_at, extra_potential, 1.25 * rm, n_points, ndim, guess)
        if abs(current.energy - wider.energy) <= 1e-9 * current.scale:
            return _eigenvector(current, ndim)
        rm *= 1.25
        current = wider
    raise RuntimeError(
        f"groundstate energy still drifting at r_max={rm:g}; the potential "
        "may be too shallow for the default domain (pass r_max explicitly)"
    )


@dataclass(frozen=True, eq=False)
class _Eigenvalues:
    """The eigenvalue stage on one domain: the Richardson-extrapolated
    energy, the raw (coarse, fine) pair, the fine operator the vector
    stage factors, and the domain's energy scale."""

    energy: float
    pair: tuple[float, float]
    fine_op: TridiagonalOperator
    scale: float


def _eigenvalues(v_at, extra_potential, r_max, n_points, ndim, guess=None) -> _Eigenvalues:
    """Smallest eigenvalues at n_points and 2*n_points cells, extrapolated.

    guess, if given, estimates the coarse eigenvalue; the coarse one in
    turn estimates the fine one.  An estimate only shortens the
    bisection (see _kernels.smallest_eigenvalue); the result is the same.
    """
    scale = _energy_scale(v_at, r_max)
    bisect_tol = 1e-12 * scale
    width = _HINT_WIDTH * scale

    energies = []
    fine_op = None
    for n in (n_points, 2 * n_points):
        op = discretize(v_at, extra_potential, RadialGrid.make(r_max, n), n_dim=ndim)
        hints = () if guess is None else (guess - width, guess + width)
        guess = float(_kernels.smallest_eigenvalue(op.diag, op.off_diag, bisect_tol, hints))
        energies.append(guess)
        fine_op = op
    e_coarse, e_fine = energies
    if abs(e_coarse - e_fine) > 0.1 * scale:
        raise RuntimeError(
            f"raw eigenvalues {e_coarse:.6g} and {e_fine:.6g} disagree by more than "
            f"10% of scale {scale:.3g}: grid too coarse"
        )
    energy = (4.0 * e_fine - e_coarse) / 3.0
    return _Eigenvalues(energy=energy, pair=(e_coarse, e_fine), fine_op=fine_op, scale=scale)


def _eigenvector(stage: _Eigenvalues, ndim) -> EigenResult:
    """Groundstate vector on the stage's fine grid, by inverse iteration."""
    fine_op = stage.fine_op
    vec, sweeps = _kernels.inverse_iteration(fine_op.diag, fine_op.off_diag, stage.pair[1], 1e-12, 50)
    if sweeps < 0:
        raise RuntimeError("inverse iteration did not converge in 50 sweeps")
    if vec.sum() < 0.0:
        vec = -vec
    if vec.min() < -1e-8 * vec.max():
        raise RuntimeError("groundstate vector changed sign; eigenpair suspect")
    # entries below the solver noise floor can carry stray signs; fold them up
    vec = np.abs(vec)

    grid = fine_op.grid
    r = grid.points
    dr = grid.spacing
    psi = vec / r ** ((ndim - 1.0) / 2.0)
    psi /= math.sqrt(float(np.sum(psi * psi * r ** (ndim - 1.0)) * dr))
    return EigenResult(energy=stage.energy, vector=psi, grid=grid, richardson_pair=stage.pair)


@dataclass(frozen=True)
class VerifyTolerances:
    """Pass thresholds and oracle grid settings for verify_solution."""

    tol_energy: float = 1e-6
    tol_similarity: float = 1e-6
    r_max: float = None
    n_points: int = 2000


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


def verify_solution(sol: ZeroModeSolution, tolerances: VerifyTolerances = None) -> VerificationReport:
    """Check a claimed zero-energy solution against the numerical oracle.

    Compares the oracle groundstate energy of sol.potential with the
    closed-form e0 of its trial, and the oracle eigenvector with
    psi = exp(-S0) under the r^(N-1) weight (cosine similarity).  The
    constraint residuals and the max pointwise Riccati residual on a
    log-spaced radius grid are included as diagnostics.
    """
    tol = tolerances if tolerances is not None else VerifyTolerances()
    p = sol.potential
    split = trial_split(p, sol.trial)
    result = groundstate(p, r_max=tol.r_max, n_points=tol.n_points)

    w = TrialWavefunction(trial=sol.trial, potential=p)
    r = result.grid.points
    dr = result.grid.spacing
    weight = r ** (p.n_dim - 1.0)
    psi = np.asarray(eval_psi(w, r))
    psi_norm = math.sqrt(float(np.sum(psi * psi * weight) * dr))
    similarity = float(np.sum(psi * result.vector * weight) * dr / psi_norm)

    radii = np.geomspace(1e-3, min(result.grid.r_max, 20.0), 60)
    residual = np.asarray(schrodinger_residual(w, split.e0, radii))
    max_residual = float(np.max(np.abs(residual) / _residual_scale(w, split.e0, radii)))

    failures = []
    energy_error = abs(result.energy - split.e0)
    if not (energy_error < tol.tol_energy):
        failures.append("oracle_energy_vs_e0")
    if not (similarity > 1.0 - tol.tol_similarity):
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
