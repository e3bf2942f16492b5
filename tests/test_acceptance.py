"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (plus per-check details) and then
asserts, so `pytest tests/test_acceptance.py -v -s` reads as a checklist.
"""

import math
import time

import numpy as np

from sombrero import (
    JackiwForm,
    PotentialParams,
    TrialWavefunction,
    derivatives_s0,
    derive_trial,
    eval_potential,
    eval_psi,
    from_jackiw_form,
    groundstate,
    jackiw_solutions,
    m_zero_residual,
    params_from_lambda,
    satisfies_m_zero,
    solve_eta,
    solve_eta_mu,
    trial_split,
)
from sombrero.cli import main as cli_main
from conftest import random_potential

SQRT3 = math.sqrt(3.0)


def _finish(num: int, name: str, checks):
    passed = all(ok for _, ok, _ in checks)
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {name}")
    for label, ok, detail in checks:
        print(f"    [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    assert passed, "; ".join(
        f"{label} ({detail})" for label, ok, detail in checks if not ok
    )


def weighted_similarity(result, w: TrialWavefunction) -> float:
    r = result.grid.points
    dr = result.grid.spacing
    weight = r ** (w.potential.n_dim - 1.0)
    psi = np.asarray(eval_psi(w, r))
    psi /= math.sqrt(float(np.sum(psi * psi * weight) * dr))
    return float(np.sum(psi * result.vector * weight) * dr)


def riccati_relative_violation(p: PotentialParams) -> float:
    """Worst relative violation of the exponent identity on a log grid."""
    t = derive_trial(p)
    split = trial_split(p, t)
    w = TrialWavefunction(trial=t, potential=p)
    radii = np.geomspace(1e-3, 20.0, 100)
    d1, d2 = derivatives_s0(w, radii)
    n = p.n_dim
    lhs = d1 * d1 - (n - 1.0) / radii * d1 - d2
    rhs = 2.0 * (eval_potential(p, radii) - split.h_at(radii) - split.e0)
    scale = np.maximum(
        1.0,
        d1 * d1 + np.abs((n - 1.0) / radii * d1) + np.abs(d2) + np.abs(rhs),
    )
    return float(np.max(np.abs(lhs - rhs) / scale))


def test_criterion_1_worked_example_regression():
    start = time.perf_counter()
    roots = solve_eta(1.5, 3)
    sol = params_from_lambda(1.5, 1.5, roots[0], 3)
    split = trial_split(sol.potential, sol.trial)
    elapsed = time.perf_counter() - start
    checks = [
        ("single eta root", len(roots) == 1, f"roots={roots}"),
        ("eta = 1/3 to 1e-9", abs(roots[0] - 1.0 / 3.0) < 1e-9, f"eta={roots[0]:.12f}"),
        ("beta = 2 to 1e-9", abs(sol.potential.beta - 2.0) < 1e-9, f"beta={sol.potential.beta:.12f}"),
        (
            "alpha = sqrt(12) to 1e-9",
            abs(sol.potential.alpha - math.sqrt(12.0)) < 1e-9,
            f"alpha={sol.potential.alpha:.12f}",
        ),
        (
            "A = sqrt(12)/3 to 1e-9",
            abs(sol.potential.bigA - math.sqrt(12.0) / 3.0) < 1e-9,
            f"A={sol.potential.bigA:.12f}",
        ),
        (
            "c = sqrt(3)/2 to 1e-9",
            abs(sol.trial.c - SQRT3 / 2.0) < 1e-9,
            f"c={sol.trial.c:.12f}",
        ),
        ("m = 0 to 1e-12", abs(sol.trial.m) < 1e-12, f"m={sol.trial.m:.3e}"),
        ("e0 = 0 to 1e-12", abs(split.e0) < 1e-12, f"e0={split.e0:.3e}"),
        ("runtime well under a second", elapsed < 1.0, f"{elapsed*1e3:.1f} ms"),
    ]
    _finish(1, "closed-form reconstruction at N=3, g=1.5, lambda=1.5", checks)


def test_criterion_2_zero_eigenvalue_oracle(worked_potential):
    start = time.perf_counter()
    res = groundstate(worked_potential, r_max=8.0, n_points=2000)
    sim = weighted_similarity(res, TrialWavefunction.from_potential(worked_potential))
    elapsed = time.perf_counter() - start
    checks = [
        ("|E| < 1e-6 at r_max=8, n=2000", abs(res.energy) < 1e-6, f"E={res.energy:.3e}"),
        ("eigenvector similarity > 1 - 1e-6", sim > 1.0 - 1e-6, f"1-sim={1.0-sim:.3e}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
    ]
    _finish(2, "numerical oracle confirms the zero eigenvalue", checks)


def test_criterion_3_jackiw_branches():
    first, second = jackiw_solutions(3)
    r0_sq = math.sqrt(5.0 / 3.0)
    res1 = groundstate(first.potential, r_max=8.0, n_points=2000)
    res2 = groundstate(second.potential, r_max=8.0, n_points=2000)
    checks = [
        (
            "branch alphas are 2 r0^2 and -6 r0^2",
            abs(first.potential.alpha - 2 * r0_sq) < 1e-12
            and abs(second.potential.alpha + 6 * r0_sq) < 1e-12,
            f"alphas=({first.potential.alpha:.7f}, {second.potential.alpha:.7f})",
        ),
        (
            "oracle matches e0 = 2.1516574 within 1e-6",
            abs(res1.energy - 2.1516574) < 1e-6,
            f"E={res1.energy:.9f}",
        ),
        (
            "oracle matches e0 = 9.8976241 within 1e-6",
            abs(res2.energy - 9.8976241) < 1e-6,
            f"E={res2.energy:.9f}",
        ),
    ]
    _finish(3, "both closed-form branches of the fixed-r0 family", checks)


def test_criterion_4_eta_mu_solution():
    sol = solve_eta_mu(1.0, 3)
    eta = sol.jackiw_form.eta
    mu = sol.jackiw_form.mu
    c = sol.trial.c
    res = groundstate(sol.potential, r_max=8.0, n_points=2000)

    # the printed c = 0.103152, propagated consistently (eta from the c
    # relation, mu from the solvability relation), still yields an m = 0
    # potential, but its groundstate energy is far from zero
    c_printed = 0.103152
    r0_sq = sol.jackiw_form.r0_sq
    eta_printed = 1.0 - 2.0 * c_printed / r0_sq
    mu_printed = 1.0 - (1.0 + eta_printed) ** 2 + 3.0
    p_printed = from_jackiw_form(
        JackiwForm(r0_sq=r0_sq, mu=mu_printed, eta=eta_printed), g=1.0, n_dim=3
    )
    res_printed = groundstate(p_printed, r_max=8.0, n_points=2000)

    # the printed mu = 0.770765 cannot hold together with eta = 0.797005
    # +- 1e-6: the solvability relation mu = 1 - (1 + eta)^2 + 3/g maps that
    # eta window onto mu in [0.7707694, 0.7707766], which misses the printed
    # value by more than its 1e-6. With the solved eta it is not an m = 0
    # potential and its groundstate energy is off zero by far more than the
    # oracle's own error (~1e-12 on this grid)
    p_printed_mu = from_jackiw_form(
        JackiwForm(r0_sq=r0_sq, mu=0.770765, eta=eta), g=1.0, n_dim=3
    )
    res_printed_mu = groundstate(p_printed_mu, r_max=8.0, n_points=2000)

    checks = [
        ("eta = 0.797005 +- 1e-6", abs(eta - 0.797005) < 1e-6, f"eta={eta:.9f}"),
        ("mu = 0.7707726 +- 1e-6", abs(mu - 0.7707726) < 1e-6, f"mu={mu:.9f}"),
        ("c = 0.1310332 +- 1e-6", abs(c - 0.1310332) < 1e-6, f"c={c:.9f}"),
        (
            "oracle confirms E = 0 +- 1e-6 for this c",
            abs(res.energy) < 1e-6,
            f"E={res.energy:.3e}",
        ),
        (
            "printed c = 0.103152 fails the oracle: |E| > 1e-3",
            abs(res_printed.energy) > 1e-3,
            f"E={res_printed.energy:.6f}",
        ),
        (
            "printed mu = 0.770765 fails the oracle: |E| > 1e-5",
            abs(res_printed_mu.energy) > 1e-5,
            f"E={res_printed_mu.energy:.3e}",
        ),
        (
            "printed mu = 0.770765 is not an m = 0 potential",
            not satisfies_m_zero(p_printed_mu),
            f"m-residual={m_zero_residual(p_printed_mu):.3e}",
        ),
    ]
    _finish(
        4,
        "well-form solution, adjudicating the printed-c and printed-mu inconsistencies",
        checks,
    )


def test_criterion_5_universal_split_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    worst_identity = 0.0
    worst_energy = 0.0
    cases = 100
    for _ in range(cases):
        p = random_potential(rng)
        worst_identity = max(worst_identity, riccati_relative_violation(p))
        split = trial_split(p, derive_trial(p))
        res = groundstate(p, extra_potential=split.h_at, r_max=8.0, n_points=2000)
        worst_energy = max(worst_energy, abs(res.energy - split.e0))
    elapsed = time.perf_counter() - start
    checks = [
        (
            f"identity residual < 1e-9 relative over {cases} random sets",
            worst_identity < 1e-9,
            f"worst={worst_identity:.3e}",
        ),
        (
            "oracle groundstate of V - h equals e0 within 1e-6",
            worst_energy < 1e-6,
            f"worst |E-e0|={worst_energy:.3e}",
        ),
        ("runtime < 5 min", elapsed < 300.0, f"{elapsed:.1f} s"),
    ]
    _finish(5, "universal trial/correction split identity", checks)


def test_criterion_6_oracle_calibration():
    worst = 0.0
    for n_dim in (1, 2, 3, 5, 9):
        res = groundstate(lambda r: 0.5 * r * r, n_dim=n_dim, r_max=12.0, n_points=2000)
        worst = max(worst, abs(res.energy - n_dim / 2.0))
    coarse = groundstate(lambda r: 0.5 * r * r, n_dim=3, r_max=12.0, n_points=512)
    e_coarse, e_fine = coarse.richardson_pair
    order = math.log2(abs(e_coarse - 1.5) / abs(e_fine - 1.5))
    checks = [
        (
            "harmonic E = N/2 +- 1e-6 for N in {1,2,3,5,9}",
            worst < 1e-6,
            f"worst={worst:.3e}",
        ),
        ("observed convergence order >= 1.9", order >= 1.9, f"order={order:.3f}"),
    ]
    _finish(6, "harmonic-oscillator calibration of the oracle", checks)


def test_criterion_7_eta_lambda_scan(tmp_path):
    out_path = tmp_path / "eta_lambda.csv"
    code = cli_main(
        ["scan-lambda", "--N", "3", "--from", "1.01", "--to", "10", "--steps", "200",
         "--out", str(out_path)]
    )
    lines = out_path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    etas = np.array([float(eta) for _, eta in rows if eta != ""])
    lams = np.array([float(lam) for lam, eta in rows if eta != ""])
    curve_at_ref = solve_eta(1.5, 3)
    checks = [
        ("scan command succeeds", code == 0, f"exit={code}"),
        ("a root at every sampled lambda", len(etas) == 200, f"rows={len(etas)}"),
        ("all roots strictly inside (0,1)", bool(np.all((etas > 0) & (etas < 1))), ""),
        ("strictly increasing in lambda", bool(np.all(np.diff(etas) > 0)), ""),
        (
            "curve passes through (1.5, 1/3)",
            len(curve_at_ref) == 1 and abs(curve_at_ref[0] - 1.0 / 3.0) < 1e-9,
            f"eta(1.5)={curve_at_ref}",
        ),
        (
            "interpolated scan agrees at lambda=1.5",
            abs(float(np.interp(1.5, lams, etas)) - 1.0 / 3.0) < 1e-3,
            f"interp={float(np.interp(1.5, lams, etas)):.6f}",
        ),
    ]
    _finish(7, "shift-ratio curve over the shape-ratio range", checks)


def test_criterion_8_plot_datasets(tmp_path, worked_potential):
    flags = [
        "--g", "1.5",
        "--alpha", "3.4641016151377544",
        "--beta", "2",
        "--A", "1.1547005383792515",
        "--N", "3",
    ]
    v_path = tmp_path / "potential.csv"
    p_code = cli_main(
        ["plot-data", "--what", "potential", *flags,
         "--r-from", "0", "--r-to", "3", "--steps", "600", "--out", str(v_path)]
    )
    w_path = tmp_path / "psi.csv"
    w_code = cli_main(
        ["plot-data", "--what", "wavefunction", *flags,
         "--r-from", "0", "--r-to", "3", "--steps", "600", "--out", str(w_path)]
    )
    v_rows = np.array(
        [[float(x) for x in line.split(",")]
         for line in v_path.read_text(encoding="utf-8").splitlines()[1:]]
    )
    w_rows = np.array(
        [[float(x) for x in line.split(",")]
         for line in w_path.read_text(encoding="utf-8").splitlines()[1:]]
    )
    spacing = 3.0 / 599

    # sombrero profile: reflected through r=0, the origin is a local
    # maximum flanked by the ring minimum on each side
    v = v_rows[:, 1]
    i_min = int(np.argmin(v))
    sombrero = (
        v[1] < v[0]  # falls away from the origin
        and 0 < i_min < len(v) - 1  # interior ring minimum
        and v[-1] > v[0]  # confining rise beyond the ring
        and v[i_min] < v[0]
    )

    psi = w_rows[:, 1]
    i_peak = int(np.argmax(psi))
    peak_r = w_rows[i_peak, 0]
    valley = psi[1] > psi[0] and psi[0] < psi[i_peak]

    checks = [
        ("both commands succeed", p_code == 0 and w_code == 0, f"exits=({p_code},{w_code})"),
        ("potential has the sombrero profile", bool(sombrero), f"min at r={v_rows[i_min,0]:.4f}"),
        (
            "wavefunction valley at r=0",
            bool(valley),
            f"psi(0)={psi[0]:.6f} vs peak {psi[i_peak]:.6f}",
        ),
        (
            "peak at r^2 = 2/sqrt(3) within grid spacing",
            abs(peak_r - math.sqrt(2.0 / SQRT3)) <= spacing,
            f"peak_r={peak_r:.6f} vs {math.sqrt(2.0/SQRT3):.6f}",
        ),
        ("display normalization: max = 1", abs(psi.max() - 1.0) < 1e-4, f"max={psi.max():.8f}"),
    ]
    _finish(8, "figure datasets for the reference case", checks)
