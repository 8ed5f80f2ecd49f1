import math

import numpy as np
import pytest

from adwave.spectral import (
    NEUMANN_1D,
    PERIODIC,
    Domain,
    build_operator,
    embedding_constant,
    hs_norm,
    verify_embedding,
)

from oracles import embedding_constant_oracle


# Closed forms for the defining integral I(d, s):
#   d=1, s=1: I = 2                     (antiderivative -1/(1+x))
#   d=1, s=2: I = pi/2                  (trig substitution)
#   d=2, s=3/2: I = 8 pi^2 / (9 sqrt 3) (Beta-function reduction)
#   d=3, s=2: I = pi^2                  (int r^2/(1+r^2)^2 = pi/4)
CLOSED_FORMS = {
    (1, 1.0): 2.0 / math.sqrt(2.0 * math.pi),
    (1, 2.0): 1.0 / math.sqrt(2.0),
    (2, 1.5): 2.0 / (3.0 * 3.0 ** 0.25),
    (3, 2.0): 1.0 / (2.0 * math.sqrt(math.pi)),
}


class TestConstant:
    @pytest.mark.parametrize("key", sorted(CLOSED_FORMS))
    def test_closed_forms(self, key):
        d, s = key
        assert embedding_constant(d, s) == pytest.approx(CLOSED_FORMS[key], abs=1e-9)

    @pytest.mark.parametrize("d,s", [(1, 0.8), (1, 3.0), (2, 1.2), (3, 1.7)])
    def test_against_direct_quadrature(self, d, s):
        assert embedding_constant(d, s) == pytest.approx(
            embedding_constant_oracle(d, s), abs=1e-8)

    def test_slowly_decaying_tail(self):
        # 2s - d = 0.1: the single-term tail bound alone would need an
        # astronomically large cutoff; the series refinement must still land.
        assert embedding_constant(1, 0.55) == pytest.approx(
            embedding_constant_oracle(1, 0.55), abs=1e-7)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [91.0, 150.0, 1e3, 1e308])
    def test_huge_s_matches_the_one_dimensional_closed_form(self, s):
        # d = 1: I = 2 Gamma(1 + 1/s) Gamma(2 - 1/s); (1 + r^s)^2 overflows
        # a double inside the quadrature for every s above about 90
        closed = math.sqrt(2.0 / (2.0 * math.pi)) * math.sqrt(
            2.0 * math.gamma(1.0 + 1.0 / s) * math.gamma(2.0 - 1.0 / s))
        assert embedding_constant(1, s) == pytest.approx(closed, abs=2.3e-16)

    def test_hypothesis_violations_rejected(self):
        with pytest.raises(ValueError, match="2s > d"):
            embedding_constant(2, 0.9)
        with pytest.raises(ValueError, match="2s > d"):
            embedding_constant(1, 0.5)
        with pytest.raises(ValueError, match="2s > d"):
            embedding_constant(3, 1.5)

    def test_tolerance_parameter(self):
        coarse = embedding_constant(1, 1.0, tol=1e-4)
        fine = embedding_constant(1, 1.0, tol=1e-12)
        assert abs(coarse - CLOSED_FORMS[(1, 1.0)]) <= 1e-4
        assert abs(fine - CLOSED_FORMS[(1, 1.0)]) <= 1e-11


class TestVerify:
    def domain(self, n=64, s=1.0, d=1):
        return Domain(d=d, s=s, omega_extent=2.0 * np.pi, n=n, pad_factor=1.0,
                      boundary_mode=PERIODIC)

    def test_thousand_random_trials(self):
        op = build_operator(self.domain())
        report = verify_embedding(op, trials=1000, seed=42)
        assert report.passed
        assert 0.0 < report.worst_ratio <= 1.0
        assert report.constant == pytest.approx(CLOSED_FORMS[(1, 1.0)], abs=1e-9)

    def test_single_mode_ratio_formula(self):
        # For f = sin(kx) on the 2 pi box: max|f| = 1 and
        # ||f||_{H^1}^2 = pi (1 + k^2), so the ratio has a closed form.
        dom = self.domain(n=128)
        op = build_operator(dom)
        const = embedding_constant(1, 1.0)
        x = dom.axes()[0]
        for k in (1, 2, 7):
            f = np.sin(k * x)
            ratio = np.max(np.abs(f)) / (const * hs_norm(op, f))
            expected = 1.0 / (const * math.sqrt(math.pi * (1.0 + k * k)))
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert ratio < 1.0

    def test_zero_field_ratio_is_zero(self):
        op = build_operator(self.domain(n=16))
        f = np.zeros(16)
        assert hs_norm(op, f) == 0.0
        report = verify_embedding(op, trials=1, seed=0)
        assert report.worst_ratio <= 1.0

    def test_2d_trials(self):
        dom = Domain(d=2, s=1.5, omega_extent=2.0 * np.pi, n=32, pad_factor=1.0,
                     boundary_mode=PERIODIC)
        op = build_operator(dom)
        report = verify_embedding(op, trials=100, seed=7)
        assert report.passed

    def test_neumann_trials(self):
        dom = Domain(d=1, s=1.0, omega_extent=2.0 * np.pi, n=64, pad_factor=1.0,
                     boundary_mode=NEUMANN_1D)
        op = build_operator(dom)
        report = verify_embedding(op, trials=200, seed=3)
        assert report.passed

    def test_exterior_dirichlet_trials(self):
        dom = Domain(d=1, s=1.0, omega_extent=2.0 * np.pi, n=128, pad_factor=2.0)
        op = build_operator(dom)
        report = verify_embedding(op, trials=200, seed=5)
        assert report.passed

    def test_deterministic_given_seed(self):
        op = build_operator(self.domain())
        a = verify_embedding(op, trials=50, seed=11)
        b = verify_embedding(op, trials=50, seed=11)
        assert a.worst_ratio == b.worst_ratio
