import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from adwave.spectral import (
    EXTERIOR_DIRICHLET,
    NEUMANN_1D,
    PERIODIC,
    Domain,
    DomainError,
    GridMismatchError,
    SpectralOperator,
    apply_fractional_laplacian,
    build_operator,
    hs_norm,
    l2_inner,
    l2_norm,
    _placed,
    _times_grid,
    seminorm_s,
    seminorms_sq,
)

from oracles import (
    dense_operator_1d,
    dense_operator_2d,
    extreme_floats,
    fractional_laplacian_oracle,
    grid_product_oracle,
    interior_mask_oracle,
    mask_exterior,
    per_axis_laplacian_oracle,
    same_bits,
    seminorm_sq_oracle,
    traced_memory,
)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def periodic_domain(n=64, s=1.0, length=2 * np.pi, d=1):
    return Domain(d=d, s=s, omega_extent=length, n=n, pad_factor=1.0,
                  boundary_mode=PERIODIC)


class TestSymbol:
    def test_integer_wavenumbers_s1(self):
        op = build_operator(periodic_domain(n=8))
        assert np.array_equal(op.symbol, [0.0, 1.0, 4.0, 9.0, 16.0, 9.0, 4.0, 1.0])

    def test_half_order(self):
        op = build_operator(periodic_domain(n=8, s=0.5))
        assert op.symbol[4] == pytest.approx(4.0, abs=1e-14)

    def test_2d_mixed_mode(self):
        op = build_operator(periodic_domain(n=16, s=0.75, d=2))
        assert op.symbol[3, 4] == pytest.approx(25.0 ** 0.75, rel=1e-14)

    def test_zero_frequency_is_exactly_zero(self):
        for s in (0.3, 0.5, 1.0, 1.7):
            op = build_operator(periodic_domain(n=16, s=s))
            assert op.symbol[0] == 0.0
        op2 = build_operator(periodic_domain(n=8, s=0.6, d=2))
        assert op2.symbol[0, 0] == 0.0

    def test_even_under_frequency_negation(self):
        op = build_operator(periodic_domain(n=16, s=0.8))
        sym = op.symbol
        for k in range(1, 8):
            assert sym[k] == sym[16 - k]

    def test_monotone_in_frequency_magnitude(self):
        op = build_operator(periodic_domain(n=32, s=0.75, d=2))
        order = np.argsort(np.abs(np.fft.fftfreq(32)))
        for row in op.symbol[order][:, order]:
            assert np.all(np.diff(row) >= 0)

    def test_neumann_cosine_eigenvalues(self):
        dom = Domain(d=1, s=1.0, omega_extent=1.0, n=16, pad_factor=1.0,
                     boundary_mode=NEUMANN_1D)
        op = build_operator(dom)
        expected = (np.pi * np.arange(16)) ** 2
        assert np.allclose(op.symbol, expected, rtol=1e-14)

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError, match="positive"):
            Domain(d=1, s=0.0, omega_extent=1.0, n=8, pad_factor=1.0,
                   boundary_mode=PERIODIC)
        with pytest.raises(ValueError, match="positive"):
            Domain(d=1, s=-1.0, omega_extent=1.0, n=8, pad_factor=1.0,
                   boundary_mode=PERIODIC)


class TestDomainValidation:
    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="even"):
            Domain(d=1, s=1.0, omega_extent=1.0, n=9, pad_factor=2.0)

    def test_dirichlet_needs_padding(self):
        with pytest.raises(ValueError, match="pad_factor"):
            Domain(d=1, s=1.0, omega_extent=1.0, n=8, pad_factor=1.0)

    def test_neumann_restrictions(self):
        with pytest.raises(ValueError, match="d = 1"):
            Domain(d=2, s=1.0, omega_extent=1.0, n=8, pad_factor=1.0,
                   boundary_mode=NEUMANN_1D)
        with pytest.raises(ValueError, match="s = 1"):
            Domain(d=1, s=0.5, omega_extent=1.0, n=8, pad_factor=1.0,
                   boundary_mode=NEUMANN_1D)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(omega_extent=1e308), "omega_extent"),  # h overflows to inf
        (dict(omega_extent=1e-323), "omega_extent"),  # h underflows to 0
        (dict(omega_extent=1e-323, pad_factor=1.0, boundary_mode=PERIODIC), "omega_extent"),
        (dict(d=2, omega_extent=(1.0, 1e308)), "omega_extent"),
        (dict(omega_extent=1.0, pad_factor=1e17), "pad_factor"),  # no point strictly inside
        (dict(d=3, omega_extent=(1.0, 1.0, 1e-300), pad_factor=1e17), "pad_factor"),
        # a symbol that overflows is refused before it is built, with no warning
        (dict(omega_extent=1e-160, n=16), "omega_extent"),  # (pi / h)^2 is inf
        (dict(d=3, omega_extent=(1.0, 1.0, 1e-160), n=16), "omega_extent"),
        (dict(omega_extent=1.0, s=200.0, n=16), "s"),  # (pi / h)^2 is finite, its s-th power not
    ], ids=["spacing-inf", "spacing-zero", "periodic-spacing-zero", "one-axis-inf",
            "pad-too-wide", "pad-too-wide-3d", "symbol-squared-frequency-inf",
            "symbol-one-axis-squared-frequency-inf", "symbol-power-inf"])
    def test_a_grid_on_which_omega_holds_no_point_is_refused(self, kwargs, field):
        with pytest.raises(DomainError) as err:
            Domain(**{"d": 1, "s": 1.0, "n": 64, **kwargs})
        assert err.value.field == field

    @pytest.mark.parametrize("d, n", [(1, 2 ** 45), (3, 2 ** 15), (1, 1e300), (2, 1e300)])
    def test_a_grid_larger_than_memory_is_refused_before_it_is_allocated(self, d, n):
        """One real field of at least 2^48 bytes: more than any machine's
        memory, refused by size alone (a 2^45-point array would not fit)."""
        with pytest.raises(DomainError, match="physical memory") as err:
            Domain(d=d, s=1.0, omega_extent=1.0, n=n)
        assert err.value.field == "n"

    @pytest.mark.parametrize("kwargs", [dict(s=100.0), dict(omega_extent=1e-150),
                                        dict(omega_extent=1e300, n=2)])
    def test_a_symbol_near_the_float_range_is_accepted(self, kwargs):
        dom = Domain(**{"d": 1, "s": 1.0, "omega_extent": 1.0, "n": 16, **kwargs})
        assert np.isfinite(build_operator(dom).symbol).all()

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 3), n=st.sampled_from([2, 4, 64]),
           extent=st.floats(1e-320, 1e308), pad=st.floats(1.0, 1e20, exclude_min=True))
    def test_every_grid_it_accepts_holds_a_point_inside_omega(self, d, n, extent, pad):
        try:
            dom = Domain(d=d, s=1.0, omega_extent=extent, n=n, pad_factor=pad)
        except DomainError as err:
            assert err.field in ("omega_extent", "pad_factor")
            return
        assert all(0 < h < math.inf for h in dom.h)
        assert dom.interior_mask.any()

    def test_geometry_is_cached_and_domain_stays_hashable(self):
        dom = Domain(d=2, s=1.0, omega_extent=(1.0, 2.0), n=(8, 16), pad_factor=1.5)
        assert dom.box_extent == (1.5, 3.0)
        assert dom.h == (1.5 / 8, 3.0 / 16)
        assert dom.cell_volume == (1.5 / 8) * (3.0 / 16)
        assert {"box_extent", "h", "cell_volume"} <= set(vars(dom))
        assert dom.h is dom.h
        twin = Domain(d=2, s=1.0, omega_extent=(1.0, 2.0), n=(8, 16), pad_factor=1.5)
        assert twin == dom and hash(twin) == hash(dom)
        assert build_operator(twin) is build_operator(dom)

    def test_grid_mismatch(self):
        op = build_operator(periodic_domain(n=16))
        with pytest.raises(GridMismatchError):
            apply_fractional_laplacian(op, np.zeros(8))
        with pytest.raises(GridMismatchError):
            seminorm_s(op, np.zeros(8))
        with pytest.raises(GridMismatchError):
            hs_norm(op, np.zeros((16, 2, 2)))
        with pytest.raises(GridMismatchError):
            l2_norm(op.domain, np.zeros(32))
        with pytest.raises(GridMismatchError):
            l2_inner(op.domain, np.zeros(16), np.zeros((16, 2)))


class TestApply:
    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_fourier_eigenfunctions(self, k, s):
        # Tolerance: 1e-12 relative to the eigenvalue, plus the float64
        # conditioning floor eps * lambda_max of any FFT-based application
        # (measured at ~8 eps; 50 eps leaves margin).
        dom = periodic_domain(n=256, s=s)
        op = build_operator(dom)
        x = dom.axes()[0]
        f = np.sin(k * x)
        out = apply_fractional_laplacian(op, f)
        exact = float(k) ** (2 * s) * f
        floor = 50 * np.finfo(float).eps * float(np.max(op.symbol))
        assert np.max(np.abs(out - exact)) <= 1e-12 * float(k) ** (2 * s) + floor

    def test_constant_maps_to_zero(self):
        op = build_operator(periodic_domain(n=32, s=0.7))
        out = apply_fractional_laplacian(op, np.full(32, 3.25))
        assert np.max(np.abs(out)) <= 1e-13

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("s", [0.5, 0.75, 1.0, 1.5])
    def test_dense_oracle_matrix_1d(self, n, s):
        op = build_operator(periodic_domain(n=n, s=s))
        dense = dense_operator_1d(n, op.symbol)
        ours = np.column_stack([
            apply_fractional_laplacian(op, np.eye(n)[:, j]) for j in range(n)])
        scale = np.linalg.norm(dense)
        assert np.linalg.norm(ours - dense) <= 1e-11 * scale

    def test_dense_oracle_random_field_1d(self):
        rng = np.random.default_rng(7)
        dom = periodic_domain(n=16, s=0.6)
        op = build_operator(dom)
        dense = dense_operator_1d(16, op.symbol)
        f = rng.standard_normal(16)
        ours = apply_fractional_laplacian(op, f)
        ref = dense @ f
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dense_oracle_2d(self):
        rng = np.random.default_rng(11)
        dom = periodic_domain(n=8, s=0.75, d=2)
        op = build_operator(dom)
        dense = dense_operator_2d((8, 8), op.symbol)
        f = rng.standard_normal((8, 8))
        ours = apply_fractional_laplacian(op, f).ravel()
        ref = dense @ f.ravel()
        assert np.max(np.abs(ours - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_neumann_cosine_eigenfunctions(self):
        dom = Domain(d=1, s=1.0, omega_extent=1.0, n=64, pad_factor=1.0,
                     boundary_mode=NEUMANN_1D)
        op = build_operator(dom)
        x = dom.axes()[0]
        for k in (0, 1, 3, 7):
            f = np.cos(np.pi * k * x)
            out = apply_fractional_laplacian(op, f)
            assert np.allclose(out, (np.pi * k) ** 2 * f, atol=1e-9)

    def test_vector_components_transform_independently(self):
        rng = np.random.default_rng(3)
        dom = periodic_domain(n=32, s=0.8)
        op = build_operator(dom)
        f = rng.standard_normal((32, 2))
        out = apply_fractional_laplacian(op, f)
        for c in range(2):
            assert np.allclose(out[:, c],
                               apply_fractional_laplacian(op, f[:, c]), atol=1e-13)

    def test_self_adjoint(self):
        rng = np.random.default_rng(5)
        dom = periodic_domain(n=64, s=0.9)
        op = build_operator(dom)
        f, g = rng.standard_normal(64), rng.standard_normal(64)
        lhs = l2_inner(dom, apply_fractional_laplacian(op, f), g)
        rhs = l2_inner(dom, f, apply_fractional_laplacian(op, g))
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_semigroup_composition(self):
        rng = np.random.default_rng(9)
        dom = periodic_domain(n=64)
        f = np.zeros(64)
        spec = np.zeros(64, dtype=complex)
        idx = rng.integers(1, 12, size=6)
        spec[idx] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = np.fft.ifft(spec + np.conj(np.roll(spec[::-1], 1))).real
        for s1, s2 in ((0.5, 0.75), (1.0, 0.5), (0.3, 1.2)):
            op1 = build_operator(periodic_domain(n=64, s=s1))
            op2 = build_operator(periodic_domain(n=64, s=s2))
            op12 = build_operator(periodic_domain(n=64, s=s1 + s2))
            two = apply_fractional_laplacian(op2, apply_fractional_laplacian(op1, f))
            one = apply_fractional_laplacian(op12, f)
            assert np.max(np.abs(two - one)) <= 1e-11 * max(np.max(np.abs(one)), 1.0)


class TestNorms:
    def test_zero_field(self):
        dom = periodic_domain(n=32)
        op = build_operator(dom)
        z = np.zeros(32)
        assert l2_norm(dom, z) == 0.0
        assert seminorm_s(op, z) == 0.0
        assert hs_norm(op, z) == 0.0

    def test_constant_l2(self):
        dom = periodic_domain(n=128)
        assert l2_norm(dom, np.ones(128)) == pytest.approx(math.sqrt(2 * np.pi),
                                                           rel=1e-13)

    def test_sine_norms(self):
        dom = periodic_domain(n=128)
        op = build_operator(dom)
        f = np.sin(dom.axes()[0])
        assert l2_norm(dom, f) == pytest.approx(math.sqrt(np.pi), rel=1e-12)
        assert seminorm_s(op, f) == pytest.approx(math.sqrt(np.pi), rel=1e-12)
        assert hs_norm(op, f) == pytest.approx(math.sqrt(2 * np.pi), rel=1e-12)

    def test_constant_seminorm_vanishes(self):
        op = build_operator(periodic_domain(n=64, s=0.75))
        assert seminorm_s(op, np.full(64, 2.5)) <= 1e-14

    def test_pythagoras_identity(self):
        rng = np.random.default_rng(2)
        dom = periodic_domain(n=64, s=0.65)
        op = build_operator(dom)
        f = rng.standard_normal(64)
        lhs = seminorm_s(op, f) ** 2 + l2_norm(dom, f) ** 2
        assert lhs == pytest.approx(hs_norm(op, f) ** 2, rel=1e-12)
        assert hs_norm(op, f) >= l2_norm(dom, f)

    def test_parseval_against_operator(self):
        rng = np.random.default_rng(4)
        for s in (0.5, 1.0, 1.5):
            dom = periodic_domain(n=64, s=s)
            op = build_operator(dom)
            f = rng.standard_normal(64)
            quad = l2_inner(dom, apply_fractional_laplacian(op, f), f)
            assert seminorm_s(op, f) ** 2 == pytest.approx(quad, rel=1e-11)

    def test_neumann_parseval(self):
        dom = Domain(d=1, s=1.0, omega_extent=1.0, n=64, pad_factor=1.0,
                     boundary_mode=NEUMANN_1D)
        op = build_operator(dom)
        rng = np.random.default_rng(6)
        f = rng.standard_normal(64)
        quad = l2_inner(dom, apply_fractional_laplacian(op, f), f)
        assert seminorm_s(op, f) ** 2 == pytest.approx(quad, rel=1e-11)

    @pytest.mark.parametrize("mode", [EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D])
    def test_integer_stack_gives_the_float_stack_values(self, mode):
        dom = Domain(d=1, s=1.0, omega_extent=3.0, n=16, boundary_mode=mode,
                     pad_factor=2.0 if mode == EXTERIOR_DIRICHLET else 1.0)
        op = build_operator(dom)
        ints = np.zeros((4, 16), dtype=np.int64)
        ints[0, dom.interior[0]] = 1
        inside = ints[1:, dom.interior[0]]
        ints[1:, dom.interior[0]] = np.random.default_rng(7).integers(-3, 4, inside.shape)
        assert seminorms_sq(op, ints) == seminorms_sq(op, ints.astype(np.float64))


class TestMask:
    def dirichlet_domain(self, n=64):
        return Domain(d=1, s=1.0, omega_extent=1.0, n=n, pad_factor=2.0)

    def test_ones_masked_to_indicator(self):
        dom = self.dirichlet_domain()
        out = mask_exterior(dom, np.ones(64))
        assert np.array_equal(out, dom.interior_mask.astype(float))
        lo, hi = dom.omega_bounds[0]
        x = dom.axes()[0]
        assert np.all(out[(x > lo) & (x < hi)] == 1.0)
        assert np.all(out[(x <= lo) | (x >= hi)] == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        dom = self.dirichlet_domain()
        f = rng.standard_normal(64)
        once = mask_exterior(dom, f)
        assert np.array_equal(mask_exterior(dom, once), once)

    def test_supported_field_unchanged(self):
        dom = self.dirichlet_domain()
        f = np.where(dom.interior_mask, 1.7, 0.0)
        assert np.array_equal(mask_exterior(dom, f), f)

    def test_contraction_in_l2_and_max(self):
        rng = np.random.default_rng(10)
        dom = self.dirichlet_domain()
        f = rng.standard_normal(64)
        out = mask_exterior(dom, f)
        assert l2_norm(dom, out) <= l2_norm(dom, f)
        assert np.max(np.abs(out)) <= np.max(np.abs(f))

    def test_periodic_mask_is_identity(self):
        dom = periodic_domain(n=16)
        f = np.arange(16.0)
        assert np.array_equal(mask_exterior(dom, f), f)

    def test_neumann_mode_rejected(self):
        dom = Domain(d=1, s=1.0, omega_extent=1.0, n=16, pad_factor=1.0,
                     boundary_mode=NEUMANN_1D)
        with pytest.raises(ValueError, match="neumann"):
            mask_exterior(dom, np.ones(16))

    def test_2d_mask_vector_field(self):
        dom = Domain(d=2, s=1.5, omega_extent=1.0, n=16, pad_factor=2.0)
        f = np.ones((16, 16, 3))
        out = mask_exterior(dom, f)
        assert np.all(out[~dom.interior_mask] == 0.0)
        assert np.all(out[dom.interior_mask] == 1.0)


@st.composite
def _masked_fields(draw):
    """A scalar field, or one with 1-3 components, on a small exterior or
    periodic grid, with signed zeros and non-finite entries among its values."""
    mode = draw(st.sampled_from([EXTERIOR_DIRICHLET, PERIODIC]))
    d = draw(st.integers(1, 3))
    n = draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=d, max_size=d))
    pad = draw(st.floats(1.25, 3.0)) if mode == EXTERIOR_DIRICHLET else 1.0
    dom = Domain(d=d, s=1.0, omega_extent=draw(st.floats(0.5, 4.0)), n=n,
                 pad_factor=pad, boundary_mode=mode)
    shape = dom.n + (draw(st.integers(1, 3)),) if draw(st.booleans()) else dom.n
    values = st.floats(-1e3, 1e3) | st.sampled_from(
        [0.0, -0.0, 5e-324, float("nan"), float("inf"), -float("inf")])
    return dom, draw(arrays(np.float64, shape, elements=values))


class TestMaskAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=_masked_fields())
    def test_product_with_the_oracle_mask_in_a_new_array(self, case):
        """Bit for bit ``f * mask``, the mask broadcast over the component
        axis; in periodic mode that is ``f`` itself, -0 and NaN included."""
        dom, f = case
        mask = interior_mask_oracle(dom)
        with np.errstate(invalid="ignore"):
            want = f * (mask if f.ndim == dom.d else mask[..., None])
            got = mask_exterior(dom, f)
        assert not np.shares_memory(got, f)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if dom.boundary_mode == PERIODIC:
            assert np.array_equal(got.view(np.int64), f.view(np.int64))


@st.composite
def _grid_products(draw):
    """``(f, grid, stacked)``: a real or complex field, or a stack of them,
    over 1-3 spatial axes, with no component axis or 1-3 components, and a
    real or boolean grid over the spatial axes."""
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    stacked = draw(st.integers(0, 1))
    lead = (draw(st.integers(1, 3)),) * stacked
    comps = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    shape = lead + n + comps
    values = {"elements": extreme_floats(), "fill": st.nothing()}
    f = draw(arrays(np.float64, shape, **values))
    if draw(st.booleans()):
        spectrum = np.empty(shape, dtype=complex)
        spectrum.real = f
        spectrum.imag = draw(arrays(np.float64, shape, **values))
        f = spectrum
    grid = draw(arrays(np.bool_, n) | arrays(np.float64, n, **values))
    return f, grid, stacked


class TestGridProductAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=_grid_products(), in_place=st.booleans())
    def test_one_component_at_a_time_is_the_broadcast_product(self, case, in_place):
        """Bit for bit ``f * grid[..., None]`` (``f * grid`` without a
        component axis), into a new array or into ``f`` itself."""
        f, grid, stacked = case
        with np.errstate(over="ignore", invalid="ignore"):
            want = grid_product_oracle(f, grid, stacked)
            if in_place:
                got = f.copy()
                assert _times_grid(got, grid, stacked=stacked, out=got) is got
            else:
                got = _times_grid(f, grid, stacked=stacked)
                assert not np.shares_memory(got, f)
        assert same_bits(got, want)


@st.composite
def _domains(draw):
    mode = draw(st.sampled_from([EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D]))
    d = 1 if mode == NEUMANN_1D else draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(1, 40).map(lambda k: 2 * k), min_size=d, max_size=d))
    extent = draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))
    pad = (draw(st.floats(1.0, 8.0, exclude_min=True) | st.sampled_from([1.5, 2.0, 3.0]))
           if mode == EXTERIOR_DIRICHLET else 1.0)
    return Domain(d=d, s=1.0, omega_extent=extent, n=n, pad_factor=pad,
                  boundary_mode=mode)


class TestInteriorBlock:
    @settings(max_examples=300, deadline=None)
    @given(dom=_domains())
    def test_slices_are_exactly_omega(self, dom):
        mask, inner = dom.interior_mask, dom.interior
        assert len(inner) == dom.d
        assert mask[inner].all()
        sizes = [len(range(*sl.indices(k))) for sl, k in zip(inner, dom.n)]
        assert mask.sum() == math.prod(sizes)
        assert np.array_equal(mask, interior_mask_oracle(dom))
        # the box's centre point lies in Omega, so no slice is empty
        assert all(sl.indices(k)[0] <= k // 2 < sl.indices(k)[1]
                   for sl, k in zip(inner, dom.n))
        if dom.boundary_mode != EXTERIOR_DIRICHLET:
            assert sizes == list(dom.n)

    def test_slices_of_a_padded_grid(self):
        dom = Domain(d=2, s=1.0, omega_extent=(1.0, 2.0), n=(8, 16), pad_factor=2.0)
        assert dom.interior == (slice(3, 6), slice(5, 12))


class TestRealTransforms:
    """The half-spectrum (rfftn) paths against dense DFT matrices and, in
    3-D, against a full complex transform computed here."""

    @staticmethod
    def dense_seminorm_sq(dom, dense, f):
        comps = f.reshape(math.prod(dom.n), -1)
        return sum(float(c @ dense @ c) for c in comps.T) * dom.cell_volume

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("mode", [PERIODIC, EXTERIOR_DIRICHLET])
    def test_1d_against_dense_matrix(self, m, mode):
        rng = np.random.default_rng(21)
        dom = Domain(d=1, s=0.7, omega_extent=2.0, n=16, boundary_mode=mode,
                     pad_factor=1.0 if mode == PERIODIC else 2.0)
        op = build_operator(dom)
        dense = dense_operator_1d(16, op.symbol)
        f = rng.standard_normal((16, m) if m > 1 else 16)
        out = apply_fractional_laplacian(op, f)
        ref = dense @ f
        assert out.shape == f.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert seminorm_s(op, f) ** 2 == pytest.approx(
            self.dense_seminorm_sq(dom, dense, f), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_2d_against_dense_matrix(self, m):
        rng = np.random.default_rng(22)
        dom = Domain(d=2, s=0.75, omega_extent=(1.0, 2.0), n=(8, 12), pad_factor=2.0)
        op = build_operator(dom)
        dense = dense_operator_2d((8, 12), op.symbol)
        f = rng.standard_normal((8, 12, m) if m > 1 else (8, 12))
        out = apply_fractional_laplacian(op, f)
        ref = (dense @ f.reshape(96, -1)).reshape(f.shape)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert seminorm_s(op, f) ** 2 == pytest.approx(
            self.dense_seminorm_sq(dom, dense, f), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_3d_against_full_complex_transform(self, m):
        rng = np.random.default_rng(23)
        dom = Domain(d=3, s=1.3, omega_extent=3.0, n=(8, 6, 10), pad_factor=2.0)
        op = build_operator(dom)
        f = rng.standard_normal(dom.n + ((m,) if m > 1 else ()))
        sym = op.symbol[..., None] if m > 1 else op.symbol
        fhat = np.fft.fftn(f, axes=(0, 1, 2))
        ref = np.fft.ifftn(sym * fhat, axes=(0, 1, 2)).real
        out = apply_fractional_laplacian(op, f)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        full = float(np.sum(sym * np.abs(fhat) ** 2)) * dom.cell_volume / math.prod(dom.n)
        assert seminorm_s(op, f) ** 2 == pytest.approx(full, rel=1e-13)

    def test_half_spectrum_layout(self):
        op = build_operator(Domain(d=2, s=0.5, omega_extent=1.0, n=(8, 12), pad_factor=2.0))
        assert op.half_symbol.shape == (8, 7)
        assert np.array_equal(op.half_symbol, op.symbol[:, :7])
        weights = np.r_[1.0, np.full(5, 2.0), 1.0]
        assert np.array_equal(op.parseval_symbol, op.half_symbol * weights)


@st.composite
def _fields_inside_omega(draw, sizes=None, stack=False):
    """``(op, f)``: a field supported in Omega with m = 1 or 2 components
    on a grid whose sizes per axis come from ``sizes[d]``, or a stack of
    one to three such fields along a new leading axis when ``stack``."""
    mode = draw(st.sampled_from([EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D]))
    d = 1 if mode == NEUMANN_1D else draw(st.integers(1, 3))
    if sizes is None:
        sizes = {1: [2, 4, 6, 8, 10, 12, 16, 18], 3: [2, 4, 6, 8, 10]}
        sizes[2] = sizes[1]
    n = draw(st.lists(st.sampled_from(sizes[d]), min_size=d, max_size=d))
    s = 1.0 if mode == NEUMANN_1D else draw(st.floats(0.5, 2.0))
    pad = draw(st.floats(1.25, 3.0)) if mode == EXTERIOR_DIRICHLET else 1.0
    dom = Domain(d=d, s=s, omega_extent=draw(st.floats(1.0, 8.0)), n=n,
                 pad_factor=pad, boundary_mode=mode)
    m = draw(st.integers(1, 2))
    lead = (draw(st.integers(1, 3)),) if stack else ()
    f = np.zeros(lead + dom.n + ((m,) if m > 1 else ()))
    inside = (slice(None),) * len(lead) + dom.interior
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f[inside] = rng.standard_normal(f[inside].shape)
    return build_operator(dom), f


# every even n per axis, up to 64 in 1-D, 32 in 2-D and 12 in 3-D
_EVERY_EVEN = {1: range(2, 65, 2), 2: range(2, 33, 2), 3: range(2, 13, 2)}


class TestPrunedTransforms:
    """The per-axis transform pair: the lines block of a field supported in
    Omega against the full box, the full box against the multi-axis
    ``rfftn``/``irfftn`` path it replaced, and every result against the
    same passes made through scipy.fft's public front ends."""

    @settings(max_examples=300, deadline=None)
    @given(case=_fields_inside_omega())
    def test_omega_lines_match_the_full_box(self, case):
        op, f = case
        dom = op.domain
        lines = dom.interior_lines
        full = apply_fractional_laplacian(op, f)
        placed = _placed(apply_fractional_laplacian(op, f[lines]), lines, f.shape)
        off = np.ones(dom.n, dtype=bool)
        off[lines] = False
        assert placed.shape == full.shape
        assert np.array_equal(placed[lines].view(np.int64), full[lines].view(np.int64))
        assert np.all(placed[off] == 0.0) and not np.signbit(placed[off]).any()
        assert seminorms_sq(op, f[lines][None]) == seminorms_sq(op, f[None])
        old = fractional_laplacian_oracle(op, f)
        assert np.max(np.abs(full - old)) <= 1e-14 * np.max(np.abs(old))
        if all(k & (k - 1) == 0 for k in dom.n):
            assert np.array_equal(full.view(np.int64), old.view(np.int64))

    @staticmethod
    def _assert_front_end_bits(op, fs):
        lines = op.domain.interior_lines
        want = [seminorm_sq_oracle(op, f) for f in fs]
        assert seminorms_sq(op, fs) == want
        assert seminorms_sq(op, fs[(slice(None),) + lines]) == want
        for f in fs:
            oracle = per_axis_laplacian_oracle(op, f)
            assert same_bits(apply_fractional_laplacian(op, f), oracle)
            assert same_bits(apply_fractional_laplacian(op, f[lines]), oracle[lines])

    @settings(max_examples=200, deadline=None)
    @given(case=_fields_inside_omega(sizes=_EVERY_EVEN, stack=True))
    def test_bit_for_bit_the_public_front_ends(self, case):
        self._assert_front_end_bits(*case)

    @pytest.mark.parametrize("mode", [EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D])
    @pytest.mark.parametrize("m", [1, 2])
    def test_bit_for_bit_the_public_front_ends_at_every_even_1d_n(self, mode, m):
        rng = np.random.default_rng(m)
        for n in _EVERY_EVEN[1]:
            dom = Domain(d=1, s=1.0 if mode == NEUMANN_1D else 0.75, omega_extent=3.0,
                         n=n, pad_factor=2.0 if mode == EXTERIOR_DIRICHLET else 1.0,
                         boundary_mode=mode)
            fs = np.zeros((3, n) + ((m,) if m > 1 else ()))
            fs[:, dom.interior[0]] = rng.standard_normal(fs[:, dom.interior[0]].shape)
            self._assert_front_end_bits(build_operator(dom), fs)


class TestLinesBlock:
    """A field given as Omega's grid lines alone, its lines block: the
    transforms read and return the block, and the shape tells it from the
    full box."""

    @settings(max_examples=300, deadline=None)
    @given(case=_fields_inside_omega())
    def test_block_in_block_out_bit_for_bit(self, case):
        op, f = case
        dom = op.domain
        lines = dom.interior_lines
        block = f[lines].copy()
        got = apply_fractional_laplacian(op, block)
        assert got.shape == block.shape
        assert same_bits(got, apply_fractional_laplacian(op, f)[lines])
        assert seminorms_sq(op, block[None]) == seminorms_sq(op, f[None])

    @settings(max_examples=200, deadline=None)
    @given(case=_fields_inside_omega())
    def test_the_transform_hands_out_the_parseval_sum_of_its_spectrum(self, case):
        """A list passed as ``seminorms`` gets ``seminorms_sq`` of the field
        bit for bit, in both layouts, and the result is the one a call
        without the list gives."""
        op, f = case
        for field in (f, f[op.domain.interior_lines].copy()):
            sq = []
            got = apply_fractional_laplacian(op, field, seminorms=sq)
            assert same_bits(got, apply_fractional_laplacian(op, field))
            want = seminorms_sq(op, field[None])
            assert np.array(sq).tobytes() == np.array(want).tobytes()

    def test_a_forward_spectrum_is_built_in_one_array(self):
        """On a 3-D 64^3 lines block with m = 2 the transform pair holds at
        most one half spectrum and the output at a time."""
        dom = Domain(d=3, s=1.0, omega_extent=2 * np.pi, n=64)
        op = build_operator(dom)
        block = np.zeros(dom.n + (2,))[dom.interior_lines]
        inner = dom.layout(block)[1]
        block[inner] = np.random.default_rng(0).standard_normal(block[inner].shape)
        apply_fractional_laplacian(op, block)  # builds the operator's cached arrays
        half = np.dtype(complex).itemsize * math.prod(dom.n[:-1]) * (dom.n[-1] // 2 + 1) * 2
        _, peak = traced_memory(lambda: apply_fractional_laplacian(op, block))
        assert peak <= half + block.nbytes + 64 * 1024  # the output is block-shaped

    @settings(max_examples=300, deadline=None)
    @given(case=_fields_inside_omega())
    def test_layout_tells_the_box_from_its_lines_block(self, case):
        op, f = case
        dom = op.domain
        assert dom.layout(f)[:2] == (dom.interior_lines, dom.interior)
        block = f[dom.interior_lines]
        lines, inner, lead = dom.layout(block)
        if lead is not None:  # a lines block holds Omega's lines, the box every line
            assert lead == dom.interior_lines
            assert dom.layout(f).lead == (slice(None),) * (dom.d - 1)
        # the step's projection: the collar slabs tile Omega's exterior in the block
        inside = np.ones(block.shape[:dom.d], dtype=bool)
        for slab in dom._collar:
            inside[slab] = False
        assert np.array_equal(inside, interior_mask_oracle(dom)[dom.interior_lines])
        assert np.array_equal(block[lines][inner], f[dom.interior])
        if block.shape != f.shape:
            assert lines == () and all(a < b for a, b in zip(block.shape, dom.n[:-1]))
        longer = list(block.shape)
        longer[dom.d - 1] += 2
        for bad in (np.zeros(longer), block[..., None, None]):
            with pytest.raises(GridMismatchError):
                dom.layout(bad)


def test_missing_pocketfft_binding_names_the_module_and_the_verified_release():
    probe = (
        "import sys, scipy.fft._pocketfft as p\n"
        "del p.pypocketfft\n"
        "sys.modules['scipy.fft._pocketfft.pypocketfft'] = None\n"
        "import adwave\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": _SRC})
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert "scipy.fft._pocketfft.pypocketfft" in last and "scipy 1.17.1" in last


class TestOperatorMemo:
    def test_equal_domains_share_one_read_only_operator(self):
        a = build_operator(Domain(d=2, s=0.75, omega_extent=3.0, n=16, pad_factor=2.0))
        b = build_operator(Domain(d=2, s=0.75, omega_extent=(3.0, 3.0), n=(16, 16)))
        assert a is b
        for arr in (a.symbol, a.half_symbol, a.parseval_symbol):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_distinct_domains_get_distinct_operators(self):
        base = dict(d=1, s=0.75, omega_extent=3.0, n=16, pad_factor=2.0)
        ops = [build_operator(Domain(**base)),
               build_operator(Domain(**{**base, "s": 0.8})),
               build_operator(Domain(**{**base, "n": 32})),
               build_operator(Domain(**{**base, "pad_factor": 3.0})),
               build_operator(Domain(**{**base, "pad_factor": 1.0,
                                        "boundary_mode": PERIODIC}))]
        assert len({id(op) for op in ops}) == len(ops)
        assert ops[1].domain.s == 0.8 and ops[2].symbol.shape == (32,)


class TestTransformsHoldNothing:
    """An operator is built with its half-spectrum grids, so a transform
    holds nothing once it returns, its first call on an operator included."""

    @pytest.mark.parametrize("mode", [EXTERIOR_DIRICHLET, PERIODIC])
    @pytest.mark.parametrize("d, n", [(1, 2048), (2, 64), (3, 16)])
    def test_a_first_transform_holds_only_its_result(self, mode, d, n):
        dom = Domain(d=d, s=0.75, omega_extent=2.0, n=n, boundary_mode=mode,
                     pad_factor=2.0 if mode == EXTERIOR_DIRICHLET else 1.0)
        f = np.zeros(dom.n)
        f[dom.interior] = np.random.default_rng(d).standard_normal(f[dom.interior].shape)

        def fresh():  # build_operator is memoised; this operator is new
            return SpectralOperator(dom, build_operator(dom).symbol)

        slack = 1024  # the result's array or list object
        assert fresh().half_symbol.nbytes > slack
        for field in (f, f[dom.interior_lines]):
            # a first run of each call fills the domain's caches and the plan cache
            apply_fractional_laplacian(fresh(), field)
            seminorms_sq(fresh(), field[None])
            op = fresh()
            held, _ = traced_memory(lambda: apply_fractional_laplacian(op, field))
            assert 0 <= held - field.nbytes < slack
            op = fresh()
            held, _ = traced_memory(lambda: seminorms_sq(op, field[None]))
            assert 0 <= held < slack
