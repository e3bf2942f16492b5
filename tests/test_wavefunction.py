"""Trial wavefunction evaluation, extrema, and residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombrero import (
    PotentialParams,
    TrialParams,
    TrialWavefunction,
    derivatives_s0,
    derive_trial,
    eval_psi,
    eval_s0,
    maxima_radius,
    schrodinger_residual,
    solve_eta_mu,
)

SQRT3 = math.sqrt(3.0)


def reference_wavefunction(worked_potential):
    return TrialWavefunction.from_potential(worked_potential)


def log_trial(n_dim=3):
    # a = 1/4, c = 0, m = 5/4 (the all-zero-coefficient potential at N=3)
    p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=n_dim)
    return TrialWavefunction.from_potential(p)


class TestExponent:
    def test_vanishes_at_origin(self, worked_potential):
        assert eval_s0(reference_wavefunction(worked_potential), 0.0) == 0.0

    def test_reference_at_unit_radius(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        assert eval_s0(w, 1.0) == pytest.approx(0.375 - SQRT3 / 2.0, rel=1e-15)

    def test_log_term(self):
        # 1/4 + (5/4) log 2
        assert eval_s0(log_trial(), 1.0) == pytest.approx(1.1164339756999316, rel=1e-14)


class TestAmplitude:
    def test_unit_at_origin(self, worked_potential):
        assert eval_psi(reference_wavefunction(worked_potential), 0.0) == 1.0

    def test_reference_at_unit_radius(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        assert eval_psi(w, 1.0) == pytest.approx(math.exp(SQRT3 / 2.0 - 0.375), rel=1e-14)
        assert eval_psi(w, 1.0) == pytest.approx(1.6339908616299291, rel=1e-12)

    def test_underflow_is_quiet_zero(self):
        w = TrialWavefunction(
            trial=TrialParams(a=0.25, c=0.0, m=0.0),
            potential=PotentialParams(g=1.0, alpha=0, beta=0, bigA=0, n_dim=3),
        )
        assert eval_psi(w, 10.0) == 0.0

    def test_positive_everywhere(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        r = np.linspace(0.0, 6.0, 200)
        assert np.all(eval_psi(w, r) >= 0.0)
        assert np.all(eval_psi(w, r[r < 4.0]) > 0.0)


class TestDerivatives:
    def test_odd_symmetry_at_origin(self, worked_potential):
        d1, _ = derivatives_s0(reference_wavefunction(worked_potential), 0.0)
        assert d1 == 0.0

    def test_reference_first_derivative(self, worked_potential):
        d1, _ = derivatives_s0(reference_wavefunction(worked_potential), 1.0)
        assert d1 == pytest.approx(1.5 - SQRT3, rel=1e-15)

    def test_log_trial_values(self):
        d1, d2 = derivatives_s0(log_trial(), 1.0)
        assert d1 == pytest.approx(2.25, rel=1e-15)
        assert d2 == pytest.approx(3.0, rel=1e-15)

    def test_matches_finite_differences(self):
        # first derivative probed at h = 1e-5; the second needs a larger
        # step so FD roundoff (~eps |S0| / h^2) stays under tolerance
        rng = np.random.default_rng(31)
        radii = np.geomspace(1e-2, 5.0, 50)
        h1, h2 = 1e-5, 1e-4
        for _ in range(15):
            t = TrialParams(
                a=rng.uniform(0.1, 3.0), c=rng.uniform(-2.0, 2.0), m=rng.uniform(-2.0, 4.0)
            )
            w = TrialWavefunction(
                trial=t, potential=PotentialParams(g=4 * t.a, alpha=0, beta=0, bigA=0, n_dim=3)
            )
            d1, d2 = derivatives_s0(w, radii)
            fd1 = (eval_s0(w, radii + h1) - eval_s0(w, radii - h1)) / (2 * h1)
            fd2 = (
                eval_s0(w, radii + h2) - 2 * eval_s0(w, radii) + eval_s0(w, radii - h2)
            ) / h2**2
            assert np.allclose(d1, fd1, rtol=1e-6, atol=1e-6)
            assert np.allclose(d2, fd2, rtol=1e-6, atol=1e-4)


class TestMaxima:
    def test_reference_ring_maximum(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        peak = maxima_radius(w)
        assert peak.valley_at_origin
        # r^2 = 2c/g = 2/sqrt(3)
        assert peak.radius == pytest.approx(math.sqrt(2.0 / SQRT3), rel=1e-12)
        assert peak.radius == pytest.approx(1.0745699318235352, rel=1e-9)
        # stationary point of the exponent, curvature confirms max of psi
        d1, d2 = derivatives_s0(w, peak.radius)
        assert abs(d1) < 1e-12
        assert d2 > 0.0

    def test_centered_when_c_nonpositive(self):
        w = TrialWavefunction(
            trial=TrialParams(a=0.5, c=0.0, m=0.0),
            potential=PotentialParams(g=2.0, alpha=0, beta=0, bigA=0, n_dim=3),
        )
        peak = maxima_radius(w)
        assert peak.radius == 0.0
        assert not peak.valley_at_origin

    def test_well_form_solution_peak(self):
        sol = solve_eta_mu(1.0, 3)
        peak = maxima_radius(TrialWavefunction(trial=sol.trial, potential=sol.potential))
        assert peak.radius == pytest.approx(math.sqrt(2.0 * sol.trial.c), rel=1e-12)
        assert peak.radius == pytest.approx(0.5119231092887727, abs=1e-9)

    def test_log_term_against_closed_form(self):
        # with the log term, stationary radii solve 2a u^2 + (2a-c) u + (m-c) = 0, u = r^2
        a, c, m = 0.25, 1.0, 0.5
        w = TrialWavefunction(
            trial=TrialParams(a=a, c=c, m=m),
            potential=PotentialParams(g=1.0, alpha=0, beta=0, bigA=0, n_dim=3),
        )
        disc = (2 * a - c) ** 2 - 8 * a * (m - c)
        u = (-(2 * a - c) + math.sqrt(disc)) / (4 * a)
        peak = maxima_radius(w)
        assert peak.valley_at_origin
        assert peak.radius == pytest.approx(math.sqrt(u), rel=1e-9)
        d1, _ = derivatives_s0(w, peak.radius)
        assert abs(d1) < 1e-12

    def test_log_term_centered(self):
        peak = maxima_radius(log_trial())
        assert peak.radius == 0.0
        assert not peak.valley_at_origin

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        a=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
        c=st.floats(-100.0, 100.0),
        m=st.floats(-100.0, 100.0),
    )
    def test_peak_minimizes_the_exponent(self, a, c, m):
        w = TrialWavefunction(
            trial=TrialParams(a=a, c=c, m=m),
            potential=PotentialParams(g=4 * a, alpha=0, beta=0, bigA=0, n_dim=3),
        )
        peak = maxima_radius(w)
        assert peak.valley_at_origin == (peak.radius > 0.0)
        # every stationary radius has 2a r^2 <= |c| + |m|, and S0 grows beyond
        r_hi = math.sqrt((abs(c) + abs(m)) / (2 * a)) + 1.0
        stationary = [
            math.sqrt(u.real) for u in np.roots([2 * a, 2 * a - c, m - c]) if u.imag == 0 and u.real > 0
        ]
        radii = np.concatenate([[0.0], stationary, np.linspace(0.0, r_hi, 2001)])
        s0 = eval_s0(w, radii)
        scale = a * r_hi**4 + abs(c) * r_hi**2 + abs(m) * math.log1p(r_hi**2)
        assert eval_s0(w, peak.radius) <= s0.min() + 1e-12 * scale


class TestSchrodingerResidual:
    def test_reference_solution_is_exact(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        for r in (0.1, 0.5, 1.0, 2.0, 5.0):
            assert abs(schrodinger_residual(w, 0.0, r)) < 1e-9

    def test_jackiw_branch_is_exact(self):
        r0_sq = math.sqrt(5.0 / 3.0)
        p = PotentialParams(g=1.0, alpha=2 * r0_sq, beta=r0_sq**2, bigA=2 * r0_sq, n_dim=3)
        w = TrialWavefunction(trial=TrialParams(a=0.25, c=0.0, m=0.0), potential=p)
        assert abs(schrodinger_residual(w, r0_sq**3, 1.0)) < 1e-9

    def test_perturbed_c_is_detected(self, worked_potential):
        t = derive_trial(worked_potential)
        w = TrialWavefunction(
            trial=TrialParams(a=t.a, c=t.c + 0.01, m=t.m), potential=worked_potential
        )
        assert abs(schrodinger_residual(w, 0.0, 1.0)) > 1e-3

    def test_rejects_origin(self, worked_potential):
        w = reference_wavefunction(worked_potential)
        with pytest.raises(ValueError, match="r > 0"):
            schrodinger_residual(w, 0.0, 0.0)
