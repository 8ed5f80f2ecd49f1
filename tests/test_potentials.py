import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from adwave import potentials
from adwave.potentials import (
    C1_UNIFORM,
    DISCONTINUOUS_GRAD,
    POINTWISE_OFFCRITICAL,
    UNIFORM_C1,
    MollifiedProfile,
    Profile,
    RegularizedFamily,
    _cubic_pieces,
    _radius,
    ball_potential,
    certify_family,
    clipped_quadratic,
    constant_family,
    linear_taper_family,
    mollified_family,
    zero_potential,
)
from adwave.spectral import ParameterError

from oracles import (
    ball_oracle,
    central_difference_gradient,
    extreme_floats,
    profile_build_oracle,
    radial_grad_oracle,
    radius_oracle,
    same_bits,
    taper_grad_oracle,
    taper_value_oracle,
)


class TestClippedQuadratic:
    def test_reference_values(self):
        W = clipped_quadratic(1.0)
        assert W.value(0.0) == 0.0 and W.grad(0.0) == 0.0
        assert W.value(1.0) == 1.0 and W.grad(1.0) == 2.0
        assert W.value(2.0) == 1.0 and W.grad(2.0) == 0.0
        assert W.grad(-1.0) == -2.0

    def test_general_threshold(self):
        W = clipped_quadratic(0.5)
        assert W.value(0.3) == pytest.approx(0.09)
        assert W.value(0.7) == 0.25
        assert W.grad(0.5) == 1.0
        assert W.bound == max(0.25, 1.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clipped_quadratic(0.0)
        with pytest.raises(ValueError):
            clipped_quadratic(-2.0)

    @pytest.mark.parametrize("u_star", [1.35e154, 1e200, 1.7976931348623157e308])
    def test_a_threshold_whose_square_overflows_is_refused_by_name(self, u_star):
        """The bound u*^2 would be inf: the factory names u_star, not the
        bound that ``Potential`` would refuse."""
        with pytest.raises(ValueError, match="^u_star must be positive with a finite "
                           "square, got "):
            clipped_quadratic(u_star)

    def test_a_threshold_just_below_the_overflow_is_accepted(self):
        W = clipped_quadratic(1e154)
        assert W.bound == 1e154 * 1e154 < math.inf


class TestBallPotential:
    def test_boundary_takes_inside_closure(self):
        W = ball_potential(2)
        y = np.array([0.6, 0.8])  # |y| = 1 exactly
        assert W.value(y) == 1.0
        assert np.linalg.norm(W.grad(y)) == pytest.approx(2.0, abs=1e-15)

    def test_outside_is_flat(self):
        W = ball_potential(3)
        y = np.array([2.0, 0.0, 0.0])
        assert W.value(y) == 1.0
        assert np.all(W.grad(y) == 0.0)

    def test_origin(self):
        W = ball_potential(2)
        assert W.value(np.zeros(2)) == 0.0
        assert np.all(W.grad(np.zeros(2)) == 0.0)

    def test_scalar_case_matches_clipped(self):
        W1, Wb = clipped_quadratic(1.0), ball_potential(1)
        u = np.linspace(-3, 3, 101)
        assert np.array_equal(W1.value(u), Wb.value(u))

    # Components are 0, -0 or at least 1e-150 in magnitude: below about
    # 1e-154 every square underflows, |y| reads 0, and the radial form
    # returns a zero gradient where 2y is a subnormal-scale vector.
    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(1e-150, 4.0), st.floats(-4.0, -1e-150)),
                 min_size=m, max_size=m), min_size=1, max_size=16)))
    def test_radial_form_matches_closed_form(self, rows):
        y = np.array(rows)
        m = y.shape[-1]
        norms = np.linalg.norm(y, axis=-1, keepdims=True)
        eye = np.eye(m)
        # the origin, the unit sphere along the axes, and each draw moved
        # onto the sphere, then the draws themselves, inside and outside
        y = np.concatenate([np.zeros((1, m)), eye, -eye,
                            y[norms[:, 0] > 0] / norms[norms[:, 0] > 0], y])
        value, grad = ball_oracle(m)
        W = ball_potential(m)
        states = y if m > 1 else y[:, 0]
        expected_grad = grad(y) if m > 1 else grad(y)[:, 0]
        assert W.value(states).tobytes() == value(y).tobytes()
        assert np.array_equal(W.grad(states), expected_grad)


class TestGradientConsistency:
    def finite_difference_ok(self, W, points, h=1e-5):
        for y in points:
            if W.critical_distance is not None and \
                    np.min(W.critical_distance(np.asarray(y))) <= 1e-3:
                continue
            fd = central_difference_gradient(W.value, np.asarray(y, dtype=float), h)
            assert np.max(np.abs(fd - W.grad(np.asarray(y, dtype=float)))) <= 10 * h

    def test_clipped(self):
        rng = np.random.default_rng(0)
        self.finite_difference_ok(clipped_quadratic(1.0), rng.uniform(-3, 3, 200))

    def test_ball_2d(self):
        rng = np.random.default_rng(1)
        self.finite_difference_ok(ball_potential(2), rng.uniform(-2, 2, (200, 2)))

    def test_taper_member(self):
        rng = np.random.default_rng(2)
        W = linear_taper_family().make(0.3)
        self.finite_difference_ok(W, rng.uniform(-3, 3, 200))

    def test_mollified_member(self):
        rng = np.random.default_rng(3)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        self.finite_difference_ok(W, rng.uniform(-3, 3, 200))

    def test_mollified_radial(self):
        rng = np.random.default_rng(4)
        W = mollified_family(ball_potential(2)).make(0.2)
        self.finite_difference_ok(W, rng.uniform(-2, 2, (150, 2)))


class TestNonnegativityAndBounds:
    @pytest.mark.parametrize("build", [
        lambda: clipped_quadratic(1.0),
        lambda: clipped_quadratic(0.4),
        lambda: ball_potential(2),
        lambda: ball_potential(3),
        lambda: linear_taper_family().make(0.5),
        lambda: linear_taper_family().make(1.5),
        lambda: mollified_family(clipped_quadratic(1.0)).make(0.15),
        lambda: mollified_family(ball_potential(2)).make(0.1),
        lambda: zero_potential(),
    ])
    def test_random_cloud(self, build):
        W = build()
        rng = np.random.default_rng(12)
        pts = rng.uniform(-10, 10, (100_000,) if W.m == 1 else (100_000 // W.m, W.m))
        vals = W.value(pts)
        assert float(np.min(vals)) >= -1e-12
        assert float(np.max(vals)) <= W.bound + 1e-12
        assert float(np.max(_radius(W.grad(pts), W.m))) <= W.bound + 1e-12

    @pytest.mark.parametrize("name", ["bound", "grad_lipschitz"])
    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.inf, math.nan])
    def test_a_negative_or_non_finite_bound_or_lipschitz_constant_fails(self, name, bad):
        """Such a value would reach the step: a NaN Lipschitz constant made
        the stability limit inf, and SimConfig's auto step the whole run."""
        with pytest.raises(ParameterError, match=name) as info:
            replace(clipped_quadratic(1.0), **{name: bad})
        assert info.value.field == name

    @pytest.mark.parametrize("name", ["bound", "grad_lipschitz"])
    def test_zero_bound_and_lipschitz_constant_are_accepted(self, name):
        assert getattr(replace(clipped_quadratic(1.0), **{name: 0.0}), name) == 0.0


@st.composite
def _taper_fields(draw):
    """``(eps, u)``: a field of one piece of the taper member's gradient or
    of several, with the knots, +-0, NaN and +-inf mixed in or not, from
    0-d to 2-D, empty ones included."""
    eps = draw(st.floats(0.01, 1.99))
    edge = 1.0 + eps
    pieces = [st.floats(-1.0, 1.0),
              st.floats(1.0, edge) | st.floats(-edge, -1.0),
              st.floats(min_value=edge) | st.floats(max_value=-edge)]
    elements = draw(st.sampled_from(pieces + [st.one_of(pieces)]))
    if draw(st.booleans()):
        elements |= st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                     1.0, -1.0, edge, -edge])
    shape = draw(st.sampled_from([(), (0,), (1,), (5,), (64,), (3, 4), (0, 2)]))
    return eps, draw(arrays(np.float64, shape, elements=elements, fill=st.nothing()))


class TestLinearTaperFamily:
    def test_member_gradient_values(self):
        W = linear_taper_family().make(0.5)
        assert W.grad(1.5) == 0.0
        assert W.grad(1.0) == pytest.approx(1.5, abs=1e-15)
        assert W.grad(1.25) == pytest.approx(0.75, abs=1e-15)
        assert W.grad(-1.25) == pytest.approx(-0.75, abs=1e-15)

    def test_width_validation(self):
        fam = linear_taper_family()
        for bad in (0.0, -0.1, 2.0, 2.7):
            with pytest.raises(ValueError):
                fam.make(bad)

    @pytest.mark.parametrize("eps", [0.1, 0.4, 1.0, 1.9])
    def test_gradient_continuous_at_knots(self, eps):
        # Compare the closed-form branch values at each knot directly.
        slope = 2.0 - eps
        inner_at_1 = slope * 1.0
        ramp_at_1 = (slope / eps) * (1.0 + eps - 1.0)
        assert abs(inner_at_1 - ramp_at_1) <= 1e-14
        ramp_at_top = (slope / eps) * (1.0 + eps - (1.0 + eps))
        assert abs(ramp_at_top - 0.0) <= 1e-14
        W = linear_taper_family().make(eps)
        assert abs(float(W.grad(1.0)) - inner_at_1) <= 1e-14
        assert abs(float(W.grad(1.0 + eps))) <= 1e-14
        assert abs(float(W.grad(-1.0)) + inner_at_1) <= 1e-14
        assert abs(float(W.grad(-1.0 - eps))) <= 1e-14

    def test_value_is_antiderivative(self):
        # W_e(b) - W_e(a) must equal the quadrature of the gradient.
        W = linear_taper_family().make(0.3)
        u = np.linspace(0.0, 2.0, 20001)
        integral = np.cumsum(W.grad(u)) * (u[1] - u[0])
        drift = W.value(u) - W.value(0.0) - (integral - 0.5 * (u - u[0]) * W.grad(u))
        # crude trapezoid correction keeps this a sanity check, not an oracle
        assert np.max(np.abs(W.value(2.0) - W.value(1.3))) == 0.0
        assert W.value(0.0) == 0.0

    def test_plateau_value(self):
        eps = 0.4
        W = linear_taper_family().make(eps)
        plateau = 1.0 + 0.5 * eps - 0.5 * eps * eps
        assert W.value(1.0 + eps) == pytest.approx(plateau, abs=1e-15)
        assert W.value(5.0) == pytest.approx(plateau, abs=1e-15)

    def test_even_symmetry(self):
        W = linear_taper_family().make(0.7)
        u = np.linspace(0, 3, 301)
        assert np.array_equal(W.value(u), W.value(-u))
        assert np.array_equal(W.grad(u), -W.grad(-u))

    def test_pointwise_convergence_beyond_layer(self):
        # At u = 1.0001 every member with eps < 1e-4 already has zero force.
        fam = linear_taper_family()
        for eps in (5e-5, 1e-5):
            assert fam.make(eps).grad(1.0001) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(case=_taper_fields())
    @example(case=(0.2, np.array([0.5, 1.1])))
    @example(case=(0.2, np.array([1.1, -1.15])))
    @example(case=(0.2, np.array([1.2, 1.2, 1.1])))
    @example(case=(0.2, np.full(3, 1.2)))
    @example(case=(0.2, np.array(1.1)))
    @example(case=(0.2, np.empty((0, 3))))
    def test_gradient_is_the_where_chain_bit_for_bit(self, case):
        """A field wholly on the zero piece takes +0 alone; on every field,
        one piece or several, the gradient
        is the ``where`` chain's bit for bit (+-0, NaN -> +0, +-inf, the
        knots 1 and 1 + eps), and 0-d and empty input come back as the
        chain's ndarray."""
        eps, u = case
        got = linear_taper_family().make(eps).grad(u)
        with np.errstate(over="ignore"):  # the chain's pieces at |u| near the largest float
            want = taper_grad_oracle(eps)(u)
        assert type(got) is type(want) is np.ndarray
        assert same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(case=_taper_fields())
    @example(case=(0.2, np.full(3, 1.2)))
    @example(case=(0.2, np.array([1.2, np.nan])))
    @example(case=(0.2, np.array(1.3)))
    def test_value_is_the_where_chain_bit_for_bit(self, case):
        """On every field, one piece or several, the value is the ``where``
        chain's bit for bit, and 0-d and empty input come back as the
        chain's ndarray."""
        eps, u = case
        got = linear_taper_family().make(eps).value(u)
        want = taper_value_oracle(eps)(u)
        assert type(got) is type(want) is np.ndarray
        assert same_bits(got, want)


# every piece of both potentials, |u| where squaring it overflows, inf and NaN
_FAR = np.array([0.0, -0.0, 5e-324, 0.5, -0.8, 1.0, 1.01, -1.2, 2.0, 2e154, -1.3e154,
                 1e200, -1e200, np.inf, -np.inf, np.nan])


class TestValuesFarOnThePlateau:
    """``value`` squares |u| clipped at the edge of the flat piece, so a
    finite |u| above 1.3e154, inf or NaN raises no ``RuntimeWarning`` (the
    suite turns one into an error), and every value keeps the bits that
    squaring |u| itself gave. The taper's ``grad`` takes its pieces on the
    same clipped |u|, so it raises none up to the largest float."""

    def test_clipped_quadratic(self):
        u_star = 0.8
        with np.errstate(all="ignore"):
            want = np.where(np.abs(_FAR) <= u_star, _FAR * _FAR, u_star * u_star)
        assert same_bits(clipped_quadratic(u_star).value(_FAR), want)

    @pytest.mark.parametrize("eps", [0.03125, 0.3, 1.9])
    def test_linear_taper(self, eps):
        slope, a = 2.0 - eps, np.abs(_FAR)
        with np.errstate(all="ignore"):
            inner = 0.5 * slope * a * a
            mid = 0.5 * slope + (slope / eps) * ((1.0 + eps) * (a - 1.0)
                                                 - 0.5 * (a * a - 1.0))
            want = np.where(a <= 1.0, inner, np.where(
                a < 1.0 + eps, mid, 1.0 + 0.5 * eps - 0.5 * eps * eps))
        assert same_bits(linear_taper_family().make(eps).value(_FAR), want)

    @pytest.mark.parametrize("eps", [0.03125, 0.3, 1.9])
    def test_linear_taper_grad(self, eps):
        u = np.concatenate([_FAR, [1e308, -1e308, 1.7e308, -1.7e308, np.inf, -np.inf]])
        with np.errstate(over="ignore"):
            want = taper_grad_oracle(eps)(u)
        assert same_bits(linear_taper_family().make(eps).grad(u), want)

    @pytest.mark.parametrize("W", [ball_potential(2),
                                   mollified_family(ball_potential(2)).make(0.1)],
                             ids=["ball", "mollified"])
    def test_radial_vector_far_out(self, W):
        """|y|^2 past the largest float reads |y| = inf: W is 1 and its
        gradient 0 there, with no overflow warning."""
        y = np.array([[1e200, 0.0], [0.0, -1e200], [-1.3e154, 1.3e154]])
        assert same_bits(W.value(y), np.ones(3))
        assert np.array_equal(W.grad(y), np.zeros((3, 2)))


# one potential of every kind, with its state dimension m
_KINDS = {
    "mollified-m1": mollified_family(clipped_quadratic(1.0)).make(0.1),
    "mollified-m2": mollified_family(ball_potential(2)).make(0.1),
    "clipped": clipped_quadratic(0.8),
    "ball-m2": ball_potential(2),
    "ball-m3": ball_potential(3),
    "taper": linear_taper_family().make(0.3),
    "zero-m1": zero_potential(1),
    "zero-m2": zero_potential(2),
}


@st.composite
def _kind_fields(draw):
    """``(kind, y)``: a key of :data:`_KINDS` and an array of its states,
    over 0 to 2 leading axes, with entries from ``extreme_floats()``."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    m = _KINDS[kind].m
    lead = tuple(draw(st.lists(st.integers(0, 4), max_size=2)))
    shape = lead + ((m,) if m > 1 else ())
    return kind, draw(arrays(np.float64, shape, elements=extreme_floats(), fill=st.nothing()))


class TestExtremeInputs:
    @settings(max_examples=300, deadline=None)
    @given(case=_kind_fields())
    @example(case=("mollified-m1", np.array([np.nan, 0.3])))
    @example(case=("mollified-m2", np.array([[np.nan, 0.0], [np.inf, 0.0]])))
    @example(case=("ball-m2", np.array([[np.inf, 0.0], [0.0, -np.inf], [1e200, 0.0]])))
    @example(case=("ball-m3", np.array([np.inf, -np.inf, 0.0])))
    def test_value_and_grad_raise_no_warning(self, case):
        """Every kind's ``value`` and ``grad`` take signed zeros,
        subnormals, +-inf, NaN and 1e200 with no ``RuntimeWarning``, and
        keep the states' shape (``value`` drops the component axis)."""
        kind, y = case
        W = _KINDS[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, grad = W.value(y), W.grad(y)
        assert np.shape(grad) == y.shape
        assert np.shape(value) == (y.shape if W.m == 1 else y.shape[:-1])


class TestMollifiedFamily:
    def test_an_eps_the_lattice_cap_cannot_resolve_raises_on_eps(self):
        base = clipped_quadratic(1.0)
        with pytest.raises(ValueError) as cap:
            MollifiedProfile(base.profile, 1e-9)
        with pytest.raises(ParameterError) as info:
            mollified_family(base).make(1e-9)
        assert info.value.field == "eps" and str(info.value) == str(cap.value)

    def test_value_at_origin_small(self):
        fam = mollified_family(clipped_quadratic(1.0))
        for eps in (0.2, 0.1, 0.05):
            W = fam.make(eps)
            gap = abs(float(W.value(0.0)))
            cert_gap = float(np.max(np.abs(
                W.value(np.linspace(-2, 2, 2001))
                - clipped_quadratic(1.0).value(np.linspace(-2, 2, 2001)))))
            assert gap <= cert_gap + 1e-15
            assert gap <= eps  # second moment of the kernel times radius^2

    def test_deep_interior_exact(self):
        base = clipped_quadratic(1.0)
        W = mollified_family(base, kernel_width_ratio=1.0).make(0.1)
        u = np.linspace(-0.85, 0.85, 257)
        assert np.max(np.abs(W.grad(u) - 2.0 * u)) <= 1e-13
        m2r2 = float(W.value(0.0))
        assert np.max(np.abs(W.value(u) - (u * u + m2r2))) <= 1e-13

    def test_flat_outside_support(self):
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        u = np.linspace(1.5, 4.0, 100)
        assert np.max(np.abs(W.value(u) - 1.0)) <= 1e-12
        assert np.max(np.abs(W.grad(u))) <= 1e-13

    def test_uniform_c1_base_obeys_mollifier_estimate(self):
        # Smoothing a potential whose gradient is already Lipschitz must
        # move the gradient by at most Lip(grad) * radius, uniformly.
        base = linear_taper_family().make(0.8)
        fam = mollified_family(base, kernel_width_ratio=1.0)
        assert fam.mode == UNIFORM_C1
        for eps in (0.1, 0.05):
            W = fam.make(eps)
            u = np.linspace(-3, 3, 4001)
            dev = np.max(np.abs(W.grad(u) - base.grad(u)))
            assert dev <= base.grad_lipschitz * eps * (1 + 1e-9) + 1e-12

    def test_radial_matches_profile_on_rays(self):
        fam1 = mollified_family(clipped_quadratic(1.0))
        fam2 = mollified_family(ball_potential(2))
        w1, w2 = fam1.make(0.1), fam2.make(0.1)
        r = np.linspace(0.0, 2.0, 201)
        direction = np.array([0.6, 0.8])
        pts = r[:, None] * direction
        assert np.allclose(w2.value(pts), w1.value(r), atol=1e-13)
        assert np.allclose(np.linalg.norm(w2.grad(pts), axis=-1),
                           np.abs(w1.grad(r)), atol=1e-12)

    def test_gradient_direction_is_radial(self):
        W = mollified_family(ball_potential(2)).make(0.15)
        y = np.array([0.3, 0.4])
        g = W.grad(y)
        assert g[0] * y[1] - g[1] * y[0] == pytest.approx(0.0, abs=1e-14)
        assert W.grad(np.zeros(2)) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_certified_region_shrinks_toward_critical_set(self):
        fam = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=1.0)
        assert fam.mode == POINTWISE_OFFCRITICAL
        assert fam.grad_region(0.1) == pytest.approx(0.8)
        # inside the certified region the construction is exact
        W = fam.make(0.1)
        u = np.linspace(-0.8, 0.8, 801)
        assert np.max(np.abs(W.grad(u) - 2.0 * u)) <= 1e-12

    def test_make_builds_each_member_once_per_family(self):
        """A repeated eps, whether a float, a numpy scalar, a 0-d array or a
        keyword, hands out the member built first, whose Horner
        coefficients are read-only; another family builds its own."""
        fam = mollified_family(clipped_quadratic(1.0))
        with mock.patch.object(potentials, "MollifiedProfile",
                               wraps=MollifiedProfile) as builds:
            W = fam.make(0.1)
            assert fam.make(0.1) is W and fam.make(np.float64(0.1)) is W
            assert fam.make(np.array(0.1)) is W and fam.make(eps=0.1) is W
            assert fam.make(0.05) is not W
            other = mollified_family(clipped_quadratic(1.0)).make(0.1)
        assert builds.call_count == 3 and other is not W
        prof = W.grad.__self__
        for c in prof._value_pieces + prof._grad_pieces:
            assert not c.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            prof._grad_pieces[0][0] = 0.0

    def test_members_keep_the_critical_distance_but_not_the_profile(self):
        base = ball_potential(2)
        W = mollified_family(base).make(0.1)
        assert W.critical_distance is base.critical_distance
        assert W.profile is None
        y = np.array([[0.0, 0.0], [0.6, 0.8], [-3.0, 4.0]])
        assert np.allclose(W.critical_distance(y), [1.0, 0.0, 4.0], atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mollified_family(zero_potential())  # no profile
        fam = mollified_family(clipped_quadratic(1.0))
        with pytest.raises(ValueError):
            fam.make(0.0)
        with pytest.raises(ValueError):
            mollified_family(clipped_quadratic(1.0), kernel_width_ratio=-1.0)


def lattice(prof: MollifiedProfile) -> np.ndarray:
    return prof.lo + prof.step * np.arange(round((prof.hi - prof.lo) / prof.step) + 1)


def hermite_reference(prof: MollifiedProfile, profile, x, which: str):
    """The cubic Hermite formula over the lattice node arrays, evaluated
    with the standard basis functions (the construction before the
    per-cell Horner coefficients)."""
    grid = lattice(prof)
    val, grd, grd2 = prof._build(profile, grid)
    y, d = (val, grd) if which == "value" else (grd, grd2)
    x = np.clip(np.asarray(x, dtype=float), grid[0], grid[-1])
    i = np.clip(((x - prof.lo) / prof.step).astype(int), 0, grid.size - 2)
    t = (x - grid[i]) / prof.step
    t2, t3 = t * t, t * t * t
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y[i] + (t3 - 2.0 * t2 + t) * prof.step * d[i]
            + (-2.0 * t3 + 3.0 * t2) * y[i + 1] + (t3 - t2) * prof.step * d[i + 1])


class TestHornerEvaluation:
    @pytest.mark.parametrize("profile, radius", [
        (clipped_quadratic(1.0).profile, 0.1),
        (clipped_quadratic(0.7).profile, 0.05),
        (linear_taper_family().make(0.8).profile, 0.2),
    ])
    def test_matches_cubic_hermite_formula(self, profile, radius):
        prof = MollifiedProfile(profile, radius)
        grid = lattice(prof)
        rng = np.random.default_rng(31)
        x = np.concatenate([
            rng.uniform(prof.lo - 1.0, prof.hi + 1.0, 20000),   # includes both clipped ends
            grid,                                               # exactly on lattice nodes
            profile.knots,                                      # on the profile's kinks
            [prof.lo, prof.hi, prof.lo - 10.0, prof.hi + 10.0, -np.inf, np.inf]])
        for which in ("value", "grad"):
            ours = getattr(prof, which)(x)
            ref = hermite_reference(prof, profile, x, which)
            assert ours.shape == x.shape
            assert np.max(np.abs(ours - ref)) <= 1e-13, which

    def test_ends_clip_to_the_end_values(self):
        prof = MollifiedProfile(clipped_quadratic(1.0).profile, 0.1)
        assert prof.value(prof.lo - 3.0) == prof.value(prof.lo)
        assert prof.grad(prof.hi + 3.0) == prof.grad(prof.hi)
        assert prof.grad(prof.hi + 3.0) == pytest.approx(0.0, abs=1e-13)

    def test_scalar_in_scalar_out(self):
        prof = MollifiedProfile(clipped_quadratic(1.0).profile, 0.1)
        out = prof.grad(0.3)
        assert np.ndim(out) == 0
        assert out == pytest.approx(0.6, abs=1e-13)
        assert prof.grad(np.full((3, 2), 0.3)).shape == (3, 2)


    def test_nan_propagates(self):
        prof = MollifiedProfile(clipped_quadratic(1.0).profile, 0.1)
        for fn in (prof.value, prof.grad):
            out = fn(np.array([np.nan, 0.3]))
            assert np.isnan(out[0]) and np.isfinite(out[1])
            assert np.isnan(fn(np.nan))

    def test_finite_input_takes_the_truncated_cell_index(self):
        """Bit for bit Horner's rule in the cell that truncating the
        clipped lattice coordinate picks, the last cell at the top end, on
        a profile with no flat end, whose cells all differ."""
        prof = MollifiedProfile(_kinked_profile((-0.5, 0.3)), 0.2)
        grid = lattice(prof)
        rng = np.random.default_rng(7)
        x = np.concatenate([rng.uniform(prof.lo - 1.0, prof.hi + 1.0, 5000), grid,
                            [-0.0, 5e-324, prof.lo, prof.hi, -1e200, 1e200, -np.inf, np.inf]])
        for pieces, fn in ((prof._value_pieces, prof.value), (prof._grad_pieces, prof.grad)):
            t = (np.clip(x, prof.lo, prof.hi) - prof.lo) / prof.step
            i = np.minimum(t.astype(np.intp), grid.size - 2)
            t = t - i
            c3, c2, c1, c0 = (c[i] for c in pieces)
            assert same_bits(fn(x), ((c3 * t + c2) * t + c1) * t + c0)


def _kinked_profile(knots) -> Profile:
    """sin(x) + sum of |x - k| over the knots, kinked at each of them."""
    ks = np.asarray(knots, dtype=float)

    def value(x):
        return np.sin(x) + np.sum(np.abs(np.asarray(x)[..., None] - ks), axis=-1)

    def grad(x):
        return np.cos(x) + np.sum(np.sign(np.asarray(x)[..., None] - ks), axis=-1)

    return Profile(value, grad, tuple(knots))


@st.composite
def _build_cases(draw):
    """``(profile, radius)``: 0 to 7 knots in any order, neighbours often
    closer than two radii, so that one window holds several kinks. With a
    power-of-two radius and knots on multiples of the lattice step every
    lattice coordinate is exact, and lattice points lie exactly one radius
    from each knot; otherwise knots and radius are arbitrary floats."""
    k = draw(st.integers(0, 7))
    if draw(st.booleans()):
        radius = draw(st.sampled_from([0.25, 0.125, 0.0625, 0.03125]))
        step = radius / 32
        start = draw(st.integers(-64, 64))
        gaps = draw(st.lists(st.integers(1, 160), min_size=k, max_size=k))
        knots = [(start + int(g)) * step for g in np.cumsum(gaps)]
    else:
        radius = draw(st.floats(0.02, 0.5))
        start = draw(st.floats(-1.5, 1.5))
        gaps = draw(st.lists(st.floats(1e-3, 2.0) | st.floats(1e-3, 2.0 * radius),
                             min_size=k, max_size=k))
        knots = [start + float(g) for g in np.cumsum(gaps)]
    return _kinked_profile(draw(st.permutations(knots))), radius


# the bases and radii of the six members the experiments build, and of
# mollified(ball(2), eps = 0.1)
_MEMBERS = [(clipped_quadratic(1.0), 1.0, 0.1), (clipped_quadratic(1.0), 1.0, 0.05)] + [
    (clipped_quadratic(1.0), 2.0, eps) for eps in (0.2, 0.1, 0.05, 0.025)] + [
    (ball_potential(2), 1.0, 0.1)]


class TestBuildAgainstOracle:
    """The Hermite coefficients and the Lipschitz constant of a mollified
    profile are those of the per-row quadrature of
    :func:`oracles.profile_build_oracle`, bit for bit."""

    @staticmethod
    def check(profile, radius):
        prof = MollifiedProfile(profile, radius)
        grid = lattice(prof)
        assert grid.size == prof._value_pieces[0].size + 1
        val, grd, grd2 = profile_build_oracle(profile, radius, grid)
        want = _cubic_pieces(val, grd, prof.step) + _cubic_pieces(grd, grd2, prof.step)
        for got, w in zip(prof._value_pieces + prof._grad_pieces, want):
            assert same_bits(got, w)
        assert prof.grad_lipschitz == float(np.max(np.abs(grd2)))

    @settings(max_examples=80, deadline=None)
    @given(case=_build_cases())
    def test_generated_profiles(self, case):
        self.check(*case)

    @pytest.mark.parametrize("base, ratio, eps", _MEMBERS)
    def test_members(self, base, ratio, eps):
        fam = mollified_family(base, kernel_width_ratio=ratio)
        with mock.patch.object(potentials, "MollifiedProfile",
                               wraps=MollifiedProfile) as builds:
            fam.make(eps)
        (profile, radius), _ = builds.call_args
        self.check(profile, radius)


class TestLatticeResolution:
    def test_too_small_radius_is_rejected_not_coarsened(self):
        profile = clipped_quadratic(1.0).profile
        with pytest.raises(ValueError, match=r"radius 0\.0005 .*15\.0 points per radius"):
            MollifiedProfile(profile, 5e-4)
        with pytest.raises(ValueError, match="points per radius"):
            mollified_family(clipped_quadratic(1.0)).make(5e-4)

    def test_radius_above_the_cap_keeps_full_resolution(self):
        prof = MollifiedProfile(clipped_quadratic(1.0).profile, 1.1e-3)
        assert prof.step == pytest.approx(1.1e-3 / 32, rel=1e-15)


class TestCertification:
    def test_taper_gradient_gap_is_exactly_eps(self):
        cert = certify_family(linear_taper_family(), [0.4, 0.2, 0.1], seed=0)
        for eps, gap in zip(cert.series["eps"], cert.series["sup_grad_dist"]):
            assert abs(gap - eps) <= 1e-12
        for eps, gap in zip(cert.series["eps"], cert.series["sup_W_dist"]):
            assert abs(gap - 0.5 * eps) <= 1e-2 * eps
        assert cert.passed

    def test_taper_lipschitz_estimate(self):
        cert = certify_family(linear_taper_family(), [0.1], seed=0)
        true_lip = (2.0 - 0.1) / 0.1
        assert cert.series["lipschitz"][0] >= 0.8 * true_lip
        assert cert.series["lipschitz"][0] <= true_lip * (1 + 1e-9)

    def test_mollified_sup_distances_decrease(self):
        fam = mollified_family(clipped_quadratic(1.0))
        cert = certify_family(fam, [0.2, 0.1, 0.05, 0.025], seed=1)
        gaps = cert.series["sup_W_dist"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert cert.passed

    def test_uniform_bound_reported(self):
        cert = certify_family(linear_taper_family(), [0.5], seed=2)
        assert cert.series["grad_bound"][0] == pytest.approx(2.0 - 0.5, abs=1e-12)

    def test_constant_family_is_degenerate(self):
        base = linear_taper_family().make(0.5)
        cert = certify_family(constant_family(base), [0.4, 0.2], seed=3)
        assert max(cert.series["sup_W_dist"]) == 0.0
        assert max(cert.series["sup_grad_dist"]) == 0.0
        assert cert.passed

    def test_eps_list_validation(self):
        fam = linear_taper_family()
        with pytest.raises(ValueError):
            certify_family(fam, [])
        with pytest.raises(ValueError):
            certify_family(fam, [0.1, 0.2])

    @pytest.mark.parametrize("ratio, eps_list, samples, seed", [
        (1.0, [0.2, 0.1], 2000, 4),
        # the region is empty at eps 0.4, so the gap 0 is followed by the
        # rounding noise 1.1e-15, which once failed monotone_grad_gap
        (2.0, [0.4, 0.2, 0.1], 4096, 3),
    ], ids=["ratio-1", "empty-region-then-rounding"])
    def test_radial_family_certifies(self, ratio, eps_list, samples, seed):
        fam = mollified_family(ball_potential(2), kernel_width_ratio=ratio)
        cert = certify_family(fam, eps_list, samples=samples, seed=seed)
        assert cert.passed
        assert cert.series["sup_W_dist"][1] < cert.series["sup_W_dist"][0]

    def test_a_gradient_gap_that_grows_past_rounding_fails(self):
        """Members whose gradients sit 1e-14, 2e-14 and 4e-14 off the base's:
        the gap doubles, by far more than the rounding floor of 8 ulp of
        the bound 1.5, so the monotone check still fails."""
        base = linear_taper_family().make(0.5)
        fam = RegularizedFamily(
            "drifting", base, grad_region=lambda eps: math.inf,
            make=lambda eps: replace(base, grad=lambda y: base.grad(y) + 4e-15 / eps))
        cert = certify_family(fam, [0.4, 0.2, 0.1], seed=3)
        assert [c.name for c in cert.checks if c.passed is False] == [
            "monotone_grad_gap(0.4->0.2)", "monotone_grad_gap(0.2->0.1)"]

    def test_each_member_gradient_runs_once_per_eps(self):
        fam = linear_taper_family()
        calls = []

        def make(eps):
            member = fam.make(eps)
            return replace(member, grad=lambda y: calls.append(eps) or member.grad(y))

        cert = certify_family(replace(fam, make=make), [0.4, 0.2, 0.1], seed=3)
        assert calls == [0.4, 0.2, 0.1]
        assert cert.series == certify_family(fam, [0.4, 0.2, 0.1], seed=3).series

    def test_the_report_is_named_after_the_family_with_its_mode(self):
        fam = mollified_family(clipped_quadratic(1.0))
        cert = certify_family(fam, [0.2, 0.1], seed=0)
        assert cert.name == fam.name and cert.parameters == {"mode": fam.mode}
        assert list(cert.series) == ["eps", "sup_W_dist", "sup_grad_dist", "lipschitz",
                                     "grad_bound"]
        assert [len(v) for v in cert.series.values()] == [2] * 5
        assert {type(c.passed) for c in cert.checks} == {bool}  # as report.json needs


class TestFamilyMode:
    """A family's ``mode`` is read off its base: uniform-c1 exactly when
    the base is c1-uniform."""

    @pytest.mark.parametrize("family, mode", [
        (lambda: linear_taper_family(), POINTWISE_OFFCRITICAL),
        (lambda: mollified_family(linear_taper_family().make(0.5)), UNIFORM_C1),
        (lambda: mollified_family(clipped_quadratic(1.0), 2.0), POINTWISE_OFFCRITICAL),
        (lambda: mollified_family(ball_potential(2)), POINTWISE_OFFCRITICAL),
        (lambda: constant_family(zero_potential(2)), UNIFORM_C1),
        (lambda: constant_family(linear_taper_family().make(0.5)), UNIFORM_C1),
    ], ids=["linear-taper", "mollified-c1", "mollified-clipped", "mollified-ball",
            "constant-zero", "constant-taper"])
    def test_every_factory_s_mode_follows_its_base(self, family, mode):
        fam = family()
        assert fam.mode == mode
        assert (fam.mode == UNIFORM_C1) == (fam.base.regularity == C1_UNIFORM)
        # how a tracer wraps a family: a new make keeps the mode
        assert replace(fam, make=lambda eps: fam.make(eps)).mode == mode

    @pytest.mark.parametrize("base, mode", [
        (zero_potential(), UNIFORM_C1),
        (linear_taper_family().make(0.3), UNIFORM_C1),
        (clipped_quadratic(0.5), POINTWISE_OFFCRITICAL),
        (ball_potential(3), POINTWISE_OFFCRITICAL),
    ], ids=["zero", "taper-member", "clipped", "ball"])
    def test_a_family_built_by_hand_takes_its_base_s_mode(self, base, mode):
        fam = RegularizedFamily("by-hand", base, lambda eps: base, lambda eps: math.inf)
        assert fam.mode == mode
        assert replace(fam, make=lambda eps: base).mode == mode
        other = clipped_quadratic(1.0) if mode == UNIFORM_C1 else zero_potential(base.m)
        assert replace(fam, base=other).mode != mode
        assert "mode" not in {f.name for f in fields(RegularizedFamily)}


@st.composite
def _states(draw):
    """``(y, m)``: an array of states in R^m, m = 1-3, over 0-3 leading axes
    (a trailing component axis when m >= 2), with extreme entries."""
    m = draw(st.integers(1, 3))
    lead = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    shape = lead + ((m,) if m > 1 else ())
    return draw(arrays(np.float64, shape, elements=extreme_floats(), fill=st.nothing())), m


# 1 + t^2 + t^2 with t^2 just above half an ulp of 1 rounds to 1 + 2 ulp
# summed left to right, and to 1 + 1 ulp in any other order
_T = math.sqrt(2.0 ** -53) * (1.0 + 1e-8)


class TestRadiusAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_states())
    @example(case=(np.array([[1.0, _T, _T], [_T, _T, 1.0]]), 3))
    def test_componentwise_squares_are_the_norm(self, case):
        """Bit for bit ``np.linalg.norm(y, axis=-1)`` (|y| for m = 1), which
        sums the squares left to right."""
        y, m = case
        got = np.asarray(_radius(y, m))
        with np.errstate(over="ignore"):
            want = np.asarray(radius_oracle(y, m))
        assert same_bits(got, want)

    @settings(max_examples=100, deadline=None)
    @given(case=_states().filter(lambda case: case[1] > 1))
    def test_radial_grad_is_the_broadcast_product(self, case):
        """The ball potential's gradient, y times p'(|y|) / |y|, bit for bit
        as one product broadcast over the component axis."""
        y, m = case
        W = ball_potential(m)
        with np.errstate(over="ignore", invalid="ignore"):
            want = radial_grad_oracle(W.profile, m)(y)
            got = W.grad(y)
        assert same_bits(np.asarray(got), np.asarray(want))
