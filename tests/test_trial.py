"""Trial coefficients, the h/E0 split, and the constraint residuals."""

import math

import numpy as np
import pytest

from sombrero import (
    PotentialParams,
    TrialParams,
    TrialWavefunction,
    derive_trial,
    m_zero_residual,
    satisfies_m_zero,
    satisfies_zero_energy,
    schrodinger_residual,
    trial_split,
    zero_energy_residual,
)
from conftest import random_potential

ZEROS_P = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)


def jackiw_style_potential(n_dim=3):
    r0_sq = math.sqrt((n_dim + 2.0) / 3.0)
    return PotentialParams(
        g=1.0, alpha=2 * r0_sq, beta=r0_sq**2, bigA=2 * r0_sq, n_dim=n_dim
    )


class TestDeriveTrial:
    def test_reference_case(self, worked_potential):
        t = derive_trial(worked_potential)
        assert t.a == 0.375
        assert t.c == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert abs(t.m) < 1e-12

    def test_all_zero_coefficients(self):
        t = derive_trial(ZEROS_P)
        assert (t.a, t.c, t.m) == (0.25, 0.0, 1.25)

    def test_jackiw_style(self):
        t = derive_trial(jackiw_style_potential())
        assert t.a == 0.25
        assert t.c == 0.0
        assert abs(t.m) < 1e-12

    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError, match="g"):
            derive_trial(PotentialParams(g=0.0, alpha=1.0, beta=1.0, bigA=1.0, n_dim=3))

    def test_m_depends_on_alpha_A_difference_only_through_square(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_potential(rng)
            swapped = PotentialParams(
                g=p.g, alpha=p.bigA, beta=p.beta, bigA=p.alpha, n_dim=p.n_dim
            )
            assert derive_trial(swapped).m == derive_trial(p).m
            assert derive_trial(swapped).c == -derive_trial(p).c


class TestTrialSplit:
    def test_zeros_case_h_and_e0(self):
        t = derive_trial(ZEROS_P)
        split = trial_split(ZEROS_P, t)
        # h(0) = 2m(m+1) + (N-2)m - 2m^2 - 2mg with m = 5/4
        assert split.h_at(0.0) == pytest.approx(1.25, rel=1e-14)
        assert split.e0 == pytest.approx(2.5, rel=1e-14)

    def test_reference_case_collapses(self, worked_potential):
        split = trial_split(worked_potential, derive_trial(worked_potential))
        assert abs(split.h_coef1) < 1e-12
        assert abs(split.h_coef2) < 1e-12
        assert abs(split.e0) < 1e-12

    def test_steep_jackiw_branch_e0(self):
        # alpha = -6 r0^2 branch: c = -2 r0^2, e0 = r0^6 + 6 r0^2 at N=3
        r0_sq = math.sqrt(5.0 / 3.0)
        p = PotentialParams(
            g=1.0, alpha=-6 * r0_sq, beta=r0_sq**2, bigA=2 * r0_sq, n_dim=3
        )
        t = TrialParams(a=0.25, c=-2 * r0_sq, m=0.0)
        assert trial_split(p, t).e0 == pytest.approx(9.897624106974513, rel=1e-12)

    def test_m_zero_means_h_vanishes_identically(self):
        rng = np.random.default_rng(5)
        radii = np.geomspace(1e-2, 30.0, 40)
        for _ in range(20):
            p = random_potential(rng)
            t = derive_trial(p)
            forced = TrialParams(a=t.a, c=t.c, m=0.0)
            split = trial_split(p, forced)
            assert split.h_coef1 == 0.0 and split.h_coef2 == 0.0
            assert np.all(split.h_at(radii) == 0.0)
            # and e0 reduces to A g^2 beta / 2 - N c
            assert split.e0 == pytest.approx(
                0.5 * p.bigA * p.g**2 * p.beta - p.n_dim * t.c, rel=1e-13, abs=1e-13
            )

    def test_h_decays_at_infinity(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_potential(rng)
            split = trial_split(p, derive_trial(p))
            big = 1e9 * max(1.0, abs(split.h_coef1), abs(split.h_coef2))
            r = math.sqrt(big - 1.0)
            assert abs(split.h_at(r)) < 1e-8

    def test_h_is_quadratic_in_inverse_shifted_square(self):
        # h (r^2+1)^2 must be degree <= 2 in u = r^2+1: fit three radii, predict a fourth
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_potential(rng)
            split = trial_split(p, derive_trial(p))
            radii = np.array([0.3, 0.9, 1.7, 2.6])
            u = radii**2 + 1.0
            probe = split.h_at(radii) * u**2
            coeffs = np.polyfit(u[:3], probe[:3], 2)
            predicted = np.polyval(coeffs, u[3])
            scale = max(1.0, np.abs(probe).max())
            assert abs(predicted - probe[3]) < 1e-10 * scale


class TestResiduals:
    def test_m_zero_residual_examples(self, worked_potential):
        assert abs(m_zero_residual(worked_potential)) < 1e-12
        assert m_zero_residual(ZEROS_P) == 5.0
        assert abs(m_zero_residual(jackiw_style_potential())) < 1e-12

    def test_zero_energy_residual_examples(self, worked_potential):
        assert abs(zero_energy_residual(worked_potential)) < 1e-12
        # alpha = A (so c = 0) leaves the bare A g^2 beta / 2 term
        p = PotentialParams(g=1.0, alpha=2.0, beta=3.0, bigA=2.0, n_dim=3)
        assert zero_energy_residual(p) == pytest.approx(3.0, rel=1e-15)
        p0 = PotentialParams(g=1.0, alpha=0.0, beta=3.0, bigA=0.0, n_dim=3)
        assert zero_energy_residual(p0) == 0.0

    def test_boolean_helpers(self, worked_potential):
        assert satisfies_m_zero(worked_potential)
        assert satisfies_zero_energy(worked_potential)
        assert not satisfies_m_zero(ZEROS_P)
        off = PotentialParams(g=1.0, alpha=2.0, beta=3.0, bigA=2.0, n_dim=3)
        assert not satisfies_zero_energy(off)


class TestRiccatiIdentity:
    """Master check: S0'^2 - ((N-1)/r) S0' - S0'' == 2 (V - h - E0) pointwise."""

    radii = np.geomspace(1e-3, 20.0, 120)

    def relative_violation(self, p, t):
        split = trial_split(p, t)
        w = TrialWavefunction(trial=t, potential=p)
        # residual is against V alone; adding back 2h isolates the identity
        res = schrodinger_residual(w, split.e0, self.radii) + 2.0 * split.h_at(self.radii)
        from sombrero import derivatives_s0, eval_potential

        d1, d2 = derivatives_s0(w, self.radii)
        n = p.n_dim
        scale = np.maximum(
            1.0,
            d1 * d1
            + np.abs((n - 1.0) / self.radii * d1)
            + np.abs(d2)
            + 2.0 * np.abs(eval_potential(p, self.radii) - split.e0)
            + 2.0 * np.abs(split.h_at(self.radii)),
        )
        return float(np.max(np.abs(res) / scale))

    def test_identity_holds_for_random_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = random_potential(rng)
            assert self.relative_violation(p, derive_trial(p)) < 1e-9

    def test_identity_breaks_for_perturbed_trial(self, worked_potential):
        t = derive_trial(worked_potential)
        bad = TrialParams(a=t.a, c=t.c + 0.01, m=t.m)
        assert self.relative_violation(worked_potential, bad) > 1e-5
