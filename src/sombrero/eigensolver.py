"""Independent numerical groundstate solver for the radial problem.

Discretizes -(1/2) (1/r^(N-1)) d/dr (r^(N-1) d/dr) + V(r) - extra(r) in
flux form on a staggered grid r_j = (j + 1/2) dr, so the coordinate
singularity at r = 0 is never touched and the zero-flux inner face
enforces psi'(0) = 0 for every dimension; the outer boundary is
Dirichlet.  A similarity transform by r^((N-1)/2) makes the operator an
exactly symmetric tridiagonal matrix, whose smallest eigenvalue comes
from Sturm-sequence bisection.  The energy is computed on a ladder of
grids, each with half the spacing of the one before, and Richardson-
extrapolated twice: each consecutive pair cancels the leading O(dr^2)
error, and each consecutive pair of those the O(dr^4) one.  The ladder
stops once the error estimate of the twice-extrapolated energy, which
adds the bisection's tolerance and the eigenvalues' round-off to the
extrapolation's own estimate, meets an accuracy target.  It never
stops before its fourth level: the first level's operator comes from
discretize, and the next three from one pass that calls V once on all
their radii.  The groundstate vector comes from one twisted
factorization on the finest grid, over the block that grid's bisection
solved.  Each solve uses one domain: an explicit r_max, or for the
sextic family one derived from the potential's own length scale, so
that a rescaled potential r -> s r gets a domain exactly s times as
wide.  A solve warns once when its vector reaches the outer wall: the
bisection cuts its block where the state has decayed past its reach,
so a vector still nonzero in the last cell has not, and the wall may
move the energy.

This module shares no formulas with the closed-form trial construction;
it is the truth oracle the analytic solutions are checked against.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .potential import PotentialParams, _check_n_dim, eval_potential
from .solvers import ZeroModeSolution
from .trial import m_zero_residual, satisfies_m_zero, satisfies_zero_energy, trial_split, zero_energy_residual
from .wavefunction import TrialWavefunction, _riccati_residual, eval_s0

MIN_GRID_POINTS = 16
# decay exponent of psi, in WKB terms, between the outermost turning
# point of the energy bound and the automatic domain's outer wall
_WKB_REACH = 40.0
# every energy threshold is a multiple of the unit 1/r_max^2, which
# scales like the energy under r -> s r: verify_solution passes a claim
# when the oracle's error estimate and |E - e0| are below TOL_ENERGY
# units and the cosine similarity of the vectors exceeds 1 - TOL_SIMILARITY
TOL_ENERGY = 1e-6
TOL_SIMILARITY = 1e-6
# grid ladder: the default finest grid, the fewest cells a level below
# the fourth-finest may have, and the extrapolated energy's error target
# in units; each level's bisection stops at 1/100 of the target, and a
# Sturm-bisected eigenvalue on n cells is good only to about
# _ROUNDOFF * n^2 units (measured at most 0.74 eps n^2 from 8000 to
# 16000 cells)
DEFAULT_GRID_POINTS = 8192
_LADDER_FLOOR = 32
_LADDER_TARGET = TOL_ENERGY / 100
_ROUNDOFF = float(np.finfo(float).eps)


class GridExtentWarning(UserWarning):
    """The groundstate vector reaches the domain's outer wall: the domain
    may be too short to confine the state being solved for."""


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

    energy is the twice Richardson-extrapolated eigenvalue E2_k (see
    groundstate for a ladder restarted near its top); vector
    holds the discrete wavefunction samples on the finest grid, from one
    twisted factorization at the fine eigenvalue, sign-checked (no entry
    below -1e-8 times the peak) and normalized so
    sum(vector^2 r^(N-1)) dr = 1.  It is the leading block's that the
    fine eigenvalue's bisection solved and handed on (see
    _kernels.eigenvector): exactly 0 past the row where the state has
    decayed below about sqrt(tol / (64 max|e|)) of its peak, for the
    bisection's tolerance tol and the operator's largest off-diagonal
    |e|; a vector nonzero in its last cell, where the state has not
    decayed that far, is what makes groundstate warn GridExtentWarning.
    richardson_pair keeps the two finest raw eigenvalues (coarse,
    fine).  error_estimate bounds the energy's
    error: |E2_k - E2_(k-1)| / 31 over the ladder's last two levels,
    plus the bisection's tolerance, plus the round-off eps n^2 / r_max^2
    of an eigenvalue on n cells (see groundstate); every solve has one.
    """

    energy: float
    vector: np.ndarray
    grid: RadialGrid
    richardson_pair: tuple[float, float]
    error_estimate: float


def _resolve_potential(potential, n_dim):
    """Normalize the potential argument to (vectorized callable, n_dim)."""
    if isinstance(potential, PotentialParams):
        return (lambda r: eval_potential(potential, r)), potential.n_dim
    if n_dim is None:
        raise ValueError("a callable potential needs an explicit n_dim")
    return potential, _check_n_dim(n_dim)


def discretize(potential, extra_potential=None, grid: RadialGrid = None, n_dim: int = None) -> TridiagonalOperator:
    """Flux-form symmetric tridiagonal discretization on the given grid.

    potential is either PotentialParams or a vectorized callable V(r)
    (then n_dim is required); extra_potential, if given, is subtracted
    from V.  Both are called on 1-D arrays of radii, which need not be
    one grid's (groundstate passes several grids' radii at once), so
    they must act elementwise.  Raises ValueError naming the first grid
    radius where V - extra_potential is NaN or infinite, or failing that
    where a diagonal entry or an off-diagonal entry's square is (the
    r^(N-1) weights or 1/dr^2 overflow): every operator it returns has
    the finite d and e*e the kernels require.  After those checks it
    raises groundstate's ValueError naming r_max when 1/r_max^2 is not
    finite and nonzero.  It only builds the operator: whether the
    domain confines the state is groundstate's to decide, from the
    vector it solves for.
    """
    if grid is None:
        raise ValueError("discretize requires a RadialGrid")
    v_at, ndim = _resolve_potential(potential, n_dim)
    ((diag, off),) = _operators(v_at, extra_potential, grid.r_max, ndim, (grid.n_points,))
    _energy_unit(grid.r_max)  # raises for an r_max without an energy unit
    return TridiagonalOperator(diag=diag, off_diag=off, grid=grid)


def _operators(v_at, extra_potential, r_max, ndim, sizes) -> list:
    """(diag, off) of discretize's operator for each cell count in sizes, in one pass.

    V and extra_potential are called once each, on every level's radii
    (j + 1/2) r_max / n concatenated in the order of sizes.  The flux
    weights depend on the cell index j alone, so each level takes a
    prefix of the largest level's and divides it by its own 2 dr^2;
    every entry has the bits a one-level pass gives it.  Raises
    discretize's ValueError for the first level in sizes that fails,
    with the check on V before the one on the operator.
    """
    spacing = [r_max / n for n in sizes]
    r = np.concatenate([(np.arange(n) + 0.5) * dr for n, dr in zip(sizes, spacing)])
    # what overflows is reported by the checks below, not by numpy
    with np.errstate(all="ignore"):
        v = np.asarray(v_at(r), dtype=float)
        if extra_potential is not None:
            v = v - np.asarray(extra_potential(r), dtype=float)

        # the r^(N-1) weights enter only as ratios of face to cell radii,
        # in units of dr, which stay near 1: nothing underflows at any N
        faces = np.arange(max(sizes) + 1.0)
        cells = faces[:-1] + 0.5
        inner = (faces[:-1] / cells) ** (ndim - 1.0)
        inner[0] = 0.0  # zero flux through r = 0: psi'(0) = 0 in every dimension
        kinetic = inner + (faces[1:] / cells) ** (ndim - 1.0)  # inner plus outer face
        coupling = -((faces[1:-1] / np.sqrt(cells[:-1] * cells[1:])) ** (ndim - 1.0))
        ops, row = [], 0
        for n, dr in zip(sizes, spacing):
            rs, vs = r[row : row + n], v[row : row + n]
            scale = 2.0 * dr * dr
            diag = kinetic[:n] / scale + vs
            off = coupling[: n - 1] / scale
            # the kernels take only a finite diag and off * off
            if not (np.isfinite(diag).all() and np.isfinite(off * off).all()):
                _require_finite(vs, rs)
                bad = ~np.isfinite(diag)
                bad[:-1] |= ~np.isfinite(off * off)
                j = np.flatnonzero(bad)[0]
                raise ValueError(f"operator is not finite at r = {rs[j]:.9g} (N = {ndim}, dr = {dr:.3g})")
            ops.append((diag, off))
            row += n
    return ops


def _energy_unit(r_max: float) -> float:
    """1/r_max^2, the unit of every energy threshold; raises ValueError
    unless it is finite and nonzero."""
    square = r_max * r_max
    unit = 1.0 / square if square > 0.0 else math.inf
    if not 0.0 < unit < math.inf:
        raise ValueError(f"r_max must have a finite, nonzero 1/r_max^2, got {r_max:g}")
    return unit


def _require_finite(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = bad[0]
        raise ValueError(f"potential is not finite at r = {r[j]:.9g} (value {v[j]})")
    return v


def _ladder(n_points: int) -> tuple[int, ...]:
    """Cells per grid-ladder level, coarsest first, with n_points the finest.

    The levels are n_points, n_points/2, n_points/4, ... down to the
    smallest exact halving with at least _LADDER_FLOOR cells, and always
    at least four, so that the finest level has an error estimate from
    two Richardson steps: 8192 gives 32, 64, ..., 8192 and 2000 gives
    125, 250, 500, 1000, 2000.  Raises ValueError unless n_points is a
    multiple of 8 and at least 128, which makes n_points/8 an exact
    level of MIN_GRID_POINTS or more.
    """
    if n_points % 8 or n_points < 8 * MIN_GRID_POINTS:
        raise ValueError(f"n_points must be a multiple of 8 and at least {8 * MIN_GRID_POINTS}, got {n_points}")
    levels = [n_points, n_points // 2, n_points // 4, n_points // 8]
    while levels[-1] % 2 == 0 and levels[-1] // 2 >= _LADDER_FLOOR:
        levels.append(levels[-1] // 2)
    return tuple(reversed(levels))


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
    with np.errstate(all="ignore"):  # _require_finite reports what overflows
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
    n_points: int = DEFAULT_GRID_POINTS,
    n_dim: int = None,
) -> EigenResult:
    """Smallest eigenvalue and groundstate vector of V - extra_potential.

    Solves on one domain [0, r_max] over a ladder of grids, each with
    half the spacing of the one before, and Richardson-extrapolates
    twice: each consecutive pair of raw eigenvalues to
    E_k = (4 e_k - e_(k-1)) / 3, and each consecutive pair of those to
    E2_k = (16 E_k - E_(k-1)) / 15: one step (f x_k - x_(k-1)) / (f - 1)
    with f = 4, then 16.  Each level needs only the values of the level
    below, and that is all the ladder keeps.  n_points is the finest grid the
    ladder may use (see _ladder for its levels; 8192 gives 32, 64,
    ..., 8192 cells).  The first level is bisected cold, the one after it
    (or after a restart, below) from its eigenvalue, and each later one
    from E_k + (e_(k-1) - e_k) / 12.  The ladder stops at the first level
    from the fourth on where the error estimate, the sum of
      |E2_k - E2_(k-1)| / 31 (for N = 3 the error left after two
        steps falls only about 32x per halving of dr, and / 63
        undershot it by about 2x),
      the bisection's tolerance 1e-10 / r_max^2, which bounds what the
        bisections leave in E2_k: each raw eigenvalue is off by at most
        1/2 + 1/64 of a tolerance, whatever the estimate, and
        E2_k = (64 e_k - 20 e_(k-1) + e_(k-2)) / 45 weighs three of
        them, so they move it by at most 85/45 * 0.516 < 1 tolerance, and
      eps n^2 / r_max^2, the round-off of a Sturm-bisected eigenvalue on
        n cells (measured at most 0.74 eps n^2 / r_max^2),
    is at most 1e-8 / r_max^2, or at n_points cells, whatever the
    estimate there.  Every term scales like the energy under r -> s r,
    so a rescaled potential takes the same steps.  The last level's
    estimate comes back as error_estimate.  The energy, richardson_pair
    and vector all come from the last level and the ones below; the
    vector is one twisted factorization (_kernels.eigenvector) at the
    finest grid's eigenvalue, over the leading block its bisection
    solved and handed on with it, and 0 past it.

    The operators are discretize's.  The first level's comes from
    discretize itself.  The ladder never stops before its fourth level,
    so the next three are built in one pass, with one call of V (and of
    extra_potential) on all their radii concatenated; each later level
    takes one call of its own.  Like discretize's, these callables must
    act elementwise on any 1-D array of radii.

    When two consecutive raw eigenvalues disagree by more than 1/dr^2 of
    the coarser grid (grid too coarse), the extrapolation starts over
    from the finer level, and at the finest pair this raises
    RuntimeError.  A ladder restarted at its second- or third-finest
    level has no two E2 values: it returns its best extrapolation there
    (E_k after a restart at the second-finest) and reports the size of
    its last Richardson correction as the discretization part of the
    estimate.  Raises ValueError unless n_points is a multiple of 8 and
    at least 128, r_max > 0 and 1/r_max^2, the unit of every energy
    threshold, is finite and nonzero (and discretize's, for the first
    level that fails), and RuntimeError when the energy or the vector
    is not finite or the vector changes sign.  After those checks it
    warns GridExtentWarning once when the finest level's vector is
    nonzero in its last cell: the bisection cuts its block only where
    the state has decayed past the kernel's reach, about
    sqrt(tol / (64 max|e|)) of its peak for the bisection's tolerance
    tol, so an uncut vector has not decayed that far by the wall, and
    the wall may move the energy by more than the cut is allowed to.
    The message names r_max and the vector's value there as a fraction
    of its peak.  The rule is a ratio on the operator itself, so it
    does not depend on the choice of units.

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
    levels = _ladder(n_points)
    if r_max is None:
        if not isinstance(potential, PotentialParams):
            raise ValueError("a callable potential needs an explicit r_max")
        r_max = _domain_radius(potential)
    r_max = float(r_max)

    unit = _energy_unit(r_max)
    target = _LADDER_TARGET * unit
    bisect_tol = target / 100.0
    # the ladder never stops before its fourth level: the first comes from
    # discretize (where perfbench's tracer reads each solve's domain), the
    # next three from one pass, and each later one from a pass of its own
    coarsest = discretize(v_at, extra_potential, RadialGrid.make(r_max, levels[0]), n_dim=ndim)
    first = [(coarsest.diag, coarsest.off_diag)] + _operators(v_at, extra_potential, r_max, ndim, levels[1:4])
    # [e_k, E_k, E2_k] of the level being solved and of the one below,
    # as far as the levels since the last restart reach
    row = estimate = None
    for k, n in enumerate(levels):
        below = row
        diag, off = first[k] if k < len(first) else _operators(v_at, extra_potential, r_max, ndim, (n,))[0]
        # whatever the estimate, each level lies within bisect_tol / 2 +
        # bisect_tol / 64 of its eigenvalue (the bracket and the tail, see
        # _kernels.smallest_eigenvalue), and E2 weights three levels by
        # (64, -20, 1) / 45, so the bisections move E2 by at most
        # 85/45 * 0.516 < 1 bisect_tol, the share error_estimate adds
        fine = _kernels.smallest_eigenvalue(diag, off, bisect_tol, estimate)
        e_fine = float(fine)
        if below is not None:
            coarse_kinetic = (n / 2.0 / r_max) ** 2
            if abs(below[0] - e_fine) > coarse_kinetic:
                if n == levels[-1]:
                    raise RuntimeError(
                        f"raw eigenvalues {below[0]:.6g} and {e_fine:.6g} disagree by more than "
                        f"the coarser grid's 1/dr^2 = {coarse_kinetic:.3g}: grid too coarse"
                    )
                # a finer pair may resolve what this one cannot: extrapolate
                # from this level on
                below = None
        row = [e_fine]
        if below is not None:
            # E_k with f = 4, then E2_k with f = 16, as far as below reaches
            for f, x_below in zip((4.0, 16.0), below):
                row.append((f * row[-1] - x_below) / (f - 1.0))
            # an O(dr^6) error would call for / 63, but for N = 3 what two
            # steps leave falls only about 32x per halving; a ladder
            # restarted near its top counts its last Richardson correction
            if len(below) == 3:
                error_estimate = abs(row[2] - below[2]) / 31.0
            else:
                error_estimate = abs(row[-1] - row[-2])
            error_estimate += bisect_tol + _ROUNDOFF * n * n * unit
            if len(below) == 3 and error_estimate <= target:
                break
        # the raw error falls 4x per halving of dr, so the next level's
        # eigenvalue sits near E_k + (e_(k-1) - e_k) / 12
        estimate = e_fine if below is None else row[1] + (below[0] - e_fine) / 12.0

    energy = row[-1]
    if not math.isfinite(energy):
        raise RuntimeError("groundstate energy is not finite")
    # fine is the last level's eigenvalue, with the block it was bisected over
    vec = _kernels.eigenvector(fine.block, fine)
    if not np.isfinite(vec).all():
        raise RuntimeError("groundstate vector is not finite")
    if vec.min() < -1e-8 * vec.max():
        raise RuntimeError("groundstate vector changed sign; eigenpair suspect")
    # the vector is 0 past the row where the bisection found the state decayed
    if vec[-1] != 0.0:
        warnings.warn(
            f"the groundstate reaches the wall at r_max = {r_max:g}, at {vec[-1] / vec.max():.3g} "
            "of its peak; the domain may be too short to confine it",
            GridExtentWarning,
            stacklevel=2,
        )

    grid = RadialGrid.make(r_max, n)
    r = grid.points
    dr = grid.spacing
    # sum psi^2 r^(N-1) dr = 1 from vec's own squares, so that r^(N-1),
    # which overflows from about N = 500, is never formed; entries of vec
    # that underflow to 0 stay 0 where r^((N-1)/2) does too
    scale = r ** ((ndim - 1.0) / 2.0) * math.sqrt(dr * float(np.sum(vec * vec)))
    psi = np.divide(vec, scale, out=np.zeros_like(vec), where=vec != 0.0)
    return EigenResult(
        energy=energy,
        vector=psi,
        grid=grid,
        richardson_pair=(below[0], e_fine),
        error_estimate=error_estimate,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Oracle-vs-closed-form comparison for a claimed zero-energy solution.

    passed requires the oracle energy to match the closed-form e0 and
    the oracle vector to match psi; the constraint residuals and the
    worst pointwise Riccati residual are reported alongside, and every
    check that misses lands in failures.  An oracle whose own error
    estimate is not below the energy tolerance fails as
    oracle_unresolved, in place of the energy comparison it cannot
    settle.
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


def verify_solution(
    sol: ZeroModeSolution, *, r_max: float = None, n_points: int = DEFAULT_GRID_POINTS
) -> VerificationReport:
    """Check a claimed zero-energy solution against the numerical oracle.

    Compares the oracle groundstate energy of sol.potential with the
    closed-form e0 of its trial, and the oracle eigenvector with
    psi = exp(-S0) under the r^(N-1) weight (cosine similarity, from log
    amplitudes, so that neither psi nor the weight overflows).  The
    constraint residuals and the max pointwise Riccati residual on a
    log-spaced radius grid are included as diagnostics.  r_max and
    n_points go to groundstate: r_max=None takes the domain from the
    potential's length scale, and n_points caps the grid ladder, which
    picks the grid from its accuracy target.
    The energy is compared only when the oracle's own error estimate is
    below TOL_ENERGY / r_max^2; otherwise the check reads oracle_unresolved.
    """
    p = sol.potential
    split = trial_split(p, sol.trial)
    result = groundstate(p, r_max=r_max, n_points=n_points)

    w = TrialWavefunction(trial=sol.trial, potential=p)
    r = result.grid.points
    # the cosine of psi r^((N-1)/2) and the oracle's vector r^((N-1)/2),
    # each from its log amplitude shifted by its own maximum: psi =
    # exp(-S0) overflows once -S0 passes about 709, and the weight
    # r^(N-1) from about N = 500 (the shifts cancel in the cosine)
    half_log_r = 0.5 * (p.n_dim - 1.0) * np.log(r)
    log_psi = half_log_r - np.asarray(eval_s0(w, r))
    with np.errstate(divide="ignore", under="ignore"):
        log_oracle = np.log(np.abs(result.vector)) + half_log_r
        a = np.exp(log_psi - log_psi.max())
        b = np.copysign(np.exp(log_oracle - log_oracle.max()), result.vector)
    similarity = float(np.sum(a * b)) / math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))

    # the Riccati residual relative to its terms' magnitudes, floored at the unit
    unit = _energy_unit(result.grid.r_max)
    radii = np.geomspace(1e-3 * result.grid.r_max, result.grid.r_max, 60)
    residual, size = _riccati_residual(w, split.e0, radii)
    max_residual = float(np.max(np.abs(residual) / np.maximum(unit, size)))

    failures = []
    energy_error = abs(result.energy - split.e0)
    if not (result.error_estimate < TOL_ENERGY * unit):
        failures.append("oracle_unresolved")
    elif not (energy_error < TOL_ENERGY * unit):
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
        passed=not {"oracle_unresolved", "oracle_energy_vs_e0", "eigenvector_similarity"} & set(failures),
        failures=tuple(failures),
    )

