"""Exact zero-energy groundstates for sombrero-shaped sextic potentials.

Closed-form construction of potentials V = (1/2) g^2 (r^4 - alpha r^2 +
beta)(r^2 + A) in N dimensions whose groundstate psi = exp(-S0) is known
exactly with eigenvalue zero, together with an independent
finite-difference radial eigensolver that verifies every claim
numerically.
"""

__version__ = "0.1.0"

from .eigensolver import (
    EigenResult,
    GridExtentWarning,
    RadialGrid,
    TridiagonalOperator,
    VerificationReport,
    discretize,
    groundstate,
    verify_solution,
)
from .potential import (
    JackiwForm,
    LambdaForm,
    PotentialParams,
    eval_potential,
    from_jackiw_form,
)
from .solvers import (
    JackiwBranch,
    NoRootError,
    ZeroModeSolution,
    eta_cubic_coefficients,
    eta_mu_cubic_coefficients,
    find_bracketed_roots,
    jackiw_solutions,
    params_from_lambda,
    solve_eta,
    solve_eta_mu,
)
from .trial import (
    TrialParams,
    TrialSplit,
    derive_trial,
    m_zero_residual,
    satisfies_m_zero,
    satisfies_zero_energy,
    trial_split,
    zero_energy_residual,
)
from .wavefunction import (
    PeakLocation,
    TrialWavefunction,
    derivatives_s0,
    eval_psi,
    eval_s0,
    maxima_radius,
    schrodinger_residual,
)

__all__ = [
    "__version__",
    "EigenResult",
    "GridExtentWarning",
    "RadialGrid",
    "TridiagonalOperator",
    "VerificationReport",
    "discretize",
    "groundstate",
    "verify_solution",
    "JackiwForm",
    "LambdaForm",
    "PotentialParams",
    "eval_potential",
    "from_jackiw_form",
    "JackiwBranch",
    "NoRootError",
    "ZeroModeSolution",
    "eta_cubic_coefficients",
    "eta_mu_cubic_coefficients",
    "find_bracketed_roots",
    "jackiw_solutions",
    "params_from_lambda",
    "solve_eta",
    "solve_eta_mu",
    "TrialParams",
    "TrialSplit",
    "derive_trial",
    "m_zero_residual",
    "satisfies_m_zero",
    "satisfies_zero_energy",
    "trial_split",
    "zero_energy_residual",
    "PeakLocation",
    "TrialWavefunction",
    "derivatives_s0",
    "eval_psi",
    "eval_s0",
    "maxima_radius",
    "schrodinger_residual",
]
