"""Potential family, parametrizations, and pointwise evaluation."""

import math

import numpy as np
import pytest

from sombrero import (
    JackiwForm,
    PotentialParams,
    asymptotic_radius,
    eval_potential,
    from_jackiw_form,
    to_jackiw_form,
)


class TestEvalPotential:
    def test_origin_value_reference_case(self, worked_potential):
        # V(0) = g^2 beta A / 2
        assert eval_potential(worked_potential, 0.0) == pytest.approx(2.598076211353316, rel=1e-12)

    def test_g_zero_kills_everything(self):
        p = PotentialParams(g=0.0, alpha=1.3, beta=-0.4, bigA=2.0, n_dim=3)
        for r in (0.0, 0.7, 5.0):
            assert eval_potential(p, r) == 0.0

    def test_unit_coefficients(self):
        p = PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
        assert eval_potential(p, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized_matches_scalar(self, worked_potential):
        r = np.linspace(0.0, 4.0, 17)
        vec = eval_potential(worked_potential, r)
        assert vec.shape == r.shape
        for i, ri in enumerate(r):
            assert vec[i] == eval_potential(worked_potential, float(ri))

    def test_sextic_leading_behavior(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = PotentialParams(
                g=rng.uniform(0.3, 3.0),
                alpha=rng.uniform(-5.0, 5.0),
                beta=rng.uniform(-5.0, 5.0),
                bigA=rng.uniform(-5.0, 5.0),
                n_dim=3,
            )
            r_big = asymptotic_radius(p)
            for r in (r_big, 3.0 * r_big, 10.0 * r_big):
                v = eval_potential(p, r)
                assert v > 0.0
                assert v / r**6 == pytest.approx(0.5 * p.g**2, rel=0.01)


class TestJackiwForm:
    def test_from_form_mu_zero_eta_one(self):
        j = JackiwForm(r0_sq=math.sqrt(5.0 / 3.0), mu=0.0, eta=1.0)
        p = from_jackiw_form(j, g=1.0, n_dim=3)
        assert p.alpha == pytest.approx(2.5819888974716110, rel=1e-12)
        assert p.beta == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert p.bigA == pytest.approx(p.alpha, rel=1e-15)

    def test_from_form_degenerate(self):
        p = from_jackiw_form(JackiwForm(r0_sq=1.0, mu=1.0, eta=0.0), g=1.0, n_dim=3)
        assert (p.alpha, p.beta, p.bigA) == (2.0, 0.0, 0.0)

    def test_from_form_solution_values(self):
        # the printed, rounded well-form values at g=1, N=3; the oracle shows
        # they are not a zero-energy point (the solution has mu = 0.7707726),
        # so this checks only the from_jackiw_form algebra on these inputs
        j = JackiwForm(r0_sq=1.2909944, mu=0.770765, eta=0.797005)
        p = from_jackiw_form(j, g=1.0, n_dim=3)
        assert p.alpha == pytest.approx(2.5819889, abs=1e-6)
        assert p.beta == pytest.approx(0.3820583, abs=1e-6)
        assert p.bigA == pytest.approx(j.eta * p.alpha, rel=1e-15)
        assert p.bigA == pytest.approx(2.0578580, abs=1e-6)

    def test_rejects_nonpositive_r0(self):
        with pytest.raises(ValueError):
            JackiwForm(r0_sq=0.0, mu=0.0, eta=0.5)
        with pytest.raises(ValueError):
            JackiwForm(r0_sq=-1.0, mu=0.0, eta=0.5)

    def test_to_form_simple(self):
        p = PotentialParams(g=1.0, alpha=2.0, beta=0.0, bigA=0.0, n_dim=3)
        j = to_jackiw_form(p)
        assert (j.r0_sq, j.mu, j.eta) == (1.0, 1.0, 0.0)

    def test_to_form_roundtrip_values(self):
        p = PotentialParams(
            g=1.0, alpha=2.5819889, beta=1.6666667, bigA=2.5819889, n_dim=3
        )
        j = to_jackiw_form(p)
        assert j.r0_sq == pytest.approx(1.29099445, abs=1e-7)
        assert j.mu == pytest.approx(0.0, abs=1e-7)
        assert j.eta == pytest.approx(1.0, rel=1e-12)

    def test_to_form_rejects_nonpositive_alpha(self):
        p = PotentialParams(g=1.0, alpha=-1.0, beta=1.0, bigA=0.5, n_dim=3)
        with pytest.raises(ValueError, match="alpha"):
            to_jackiw_form(p)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = JackiwForm(
                r0_sq=rng.uniform(0.05, 9.0),
                mu=rng.uniform(-3.0, 3.0),
                eta=rng.uniform(-2.0, 2.0),
            )
            g = rng.uniform(0.2, 4.0)
            back = to_jackiw_form(from_jackiw_form(j, g=g, n_dim=3))
            assert back.r0_sq == pytest.approx(j.r0_sq, rel=1e-14)
            assert back.mu == pytest.approx(j.mu, rel=1e-14, abs=1e-14)
            assert back.eta == pytest.approx(j.eta, rel=1e-14, abs=1e-14)


class TestValidation:
    def test_negative_g_rejected(self):
        with pytest.raises(ValueError, match="g"):
            PotentialParams(g=-0.1, alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="n_dim"):
            PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=0)
        with pytest.raises(ValueError, match="n_dim"):
            PotentialParams(g=1.0, alpha=0.0, beta=0.0, bigA=0.0, n_dim=2.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PotentialParams(g=1.0, alpha=float("nan"), beta=0.0, bigA=0.0, n_dim=3)
        with pytest.raises(ValueError):
            PotentialParams(g=float("inf"), alpha=0.0, beta=0.0, bigA=0.0, n_dim=3)
