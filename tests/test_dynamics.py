import functools
import hashlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from adwave import dynamics, spectral
from adwave.dynamics import (
    BlowUpError,
    FieldState,
    SimConfig,
    SimConfigError,
    TestField as WeakTestField,
    Trajectory,
    apriori_l2_bound,
    bump_field,
    constant_field,
    constant_trajectory,
    energies,
    energy,
    energy_drift_tolerance,
    fitted_dt,
    scale_to_hs,
    sine_field,
    simulate,
    stability_limit,
    stack_size,
    step,
    sup_bound_from_energy,
    weak_residual,
    window_one,
    zero_field,
)
from adwave.potentials import (
    C1_UNIFORM,
    clipped_quadratic,
    linear_taper_family,
    mollified_family,
    ball_potential,
    zero_potential,
)
from adwave.spectral import (
    EXTERIOR_DIRICHLET,
    NEUMANN_1D,
    PERIODIC,
    Domain,
    DomainError,
    ParameterError,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
    hs_norm,
    l2_norm,
    seminorms_sq,
)

from oracles import (
    energy_oracle,
    energy_per_state_oracle,
    interior_mask_oracle,
    mask_exterior,
    step_oracle,
    sup_bound_oracle,
    traced_memory,
    weak_residual_oracle,
    window_sin_sq,
)



def periodic_domain(n=64, s=1.0, length=2 * np.pi):
    return Domain(d=1, s=s, omega_extent=length, n=n, pad_factor=1.0,
                  boundary_mode=PERIODIC)


def neumann_domain(n=64, L=1.0):
    return Domain(d=1, s=1.0, omega_extent=L, n=n, pad_factor=1.0,
                  boundary_mode=NEUMANN_1D)


def dirichlet_domain(n=128, length=2 * np.pi, s=1.0):
    return Domain(d=1, s=s, omega_extent=length, n=n, pad_factor=2.0)


class TestEnergy:
    def test_zero_state(self):
        dom = periodic_domain()
        op = build_operator(dom)
        e = energy(op, clipped_quadratic(1.0), FieldState(zero_field(dom), zero_field(dom)))
        assert e.kinetic == e.elastic == e.adhesive == e.total == 0.0

    def test_constant_one_neumann(self):
        L = 1.5
        dom = neumann_domain(n=64, L=L)
        op = build_operator(dom)
        st = FieldState(constant_field(dom, 1.0), zero_field(dom))
        e = energy(op, clipped_quadratic(1.0), st)
        assert e.kinetic == 0.0
        assert e.elastic <= 1e-20
        assert e.adhesive == pytest.approx(L, rel=1e-14)
        assert e.total == e.kinetic + e.elastic + e.adhesive

    def test_adhesive_restricted_to_interior(self):
        # a potential with W(0) > 0 contributes only over Omega, measured
        # by the rectangle rule on the strict-interior grid points
        dom = dirichlet_domain(n=128, length=1.0)
        op = build_operator(dom)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        floor = float(W.value(0.0))
        st = FieldState(zero_field(dom), zero_field(dom))
        e = energy(op, W, st)
        omega_h = float(dom.interior_mask.sum()) * dom.cell_volume
        assert e.adhesive == pytest.approx(floor * omega_h, rel=1e-12)
        assert omega_h == pytest.approx(1.0, abs=2 * dom.h[0])  # |Omega| = 1

    def test_masked_sine_elastic_matches_derivative(self):
        L = 1.0
        dom = dirichlet_domain(n=1024, length=L)
        op = build_operator(dom)
        lo, hi = dom.omega_bounds[0]
        x = dom.axes()[0]
        u = np.where((x > lo) & (x < hi), np.sin(np.pi * (x - lo) / L), 0.0)
        st = FieldState(u, zero_field(dom))
        e = energy(op, zero_potential(), st)
        exact = 0.5 * (np.pi / L) ** 2 * (L / 2.0)
        assert e.elastic == pytest.approx(exact, rel=2e-2)

    def test_parts_nonnegative(self):
        rng = np.random.default_rng(0)
        dom = dirichlet_domain(n=64)
        op = build_operator(dom)
        u = mask_exterior(dom, rng.standard_normal(64))
        v = mask_exterior(dom, rng.standard_normal(64))
        e = energy(op, clipped_quadratic(1.0), FieldState(u, v))
        assert e.kinetic >= 0 and e.elastic >= 0 and e.adhesive >= 0


class TestStep:
    def test_linear_wave_second_order(self):
        dom = periodic_domain(n=64)
        u0, v0 = sine_field(dom, k=3), zero_field(dom)
        errs = []
        for dt in (0.01, 0.005):
            cfg = SimConfig(domain=dom, potential=zero_potential(), T=2.0,
                            dt=dt, u0=u0, v0=v0, record_every=10 ** 6)
            traj = simulate(cfg)
            exact = math.cos(3.0 * traj.times[-1]) * u0
            errs.append(float(np.max(np.abs(traj.states[-1].u - exact))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_fractional_dispersion_against_fine_reference(self):
        # s = 0.5 mode: closed-form cos(|xi|^s t) checked against an
        # independent run at 50x finer dt.
        dom = periodic_domain(n=32, s=0.5)
        u0, v0 = sine_field(dom, k=4), zero_field(dom)
        T = 1.5
        coarse = simulate(SimConfig(domain=dom, potential=zero_potential(),
                                    T=T, dt=0.01, u0=u0, v0=v0,
                                    record_every=10 ** 6))
        fine = simulate(SimConfig(domain=dom, potential=zero_potential(),
                                  T=T, dt=0.0002, u0=u0, v0=v0,
                                  record_every=10 ** 6))
        exact = math.cos(2.0 * T) * u0  # |xi_4|^(1/2) = 2 on the 2 pi box
        err_exact = np.max(np.abs(fine.states[-1].u - exact))
        assert err_exact <= 1e-6
        err_coarse = np.max(np.abs(coarse.states[-1].u - exact))
        assert err_coarse <= 5e-4

    def test_flat_state_is_equilibrium(self):
        eps = 0.25
        member = linear_taper_family().make(eps)
        dom = neumann_domain(n=32, L=1.0)
        op = build_operator(dom)
        st = FieldState(constant_field(dom, 1.0 + eps), zero_field(dom))
        out = step(st, op, member, 0.001)
        assert np.max(np.abs(out.u - (1.0 + eps))) <= 1e-14
        assert np.max(np.abs(out.v)) <= 1e-12

    def test_zero_data_stays_zero(self):
        dom = dirichlet_domain(n=64)
        cfg = SimConfig(domain=dom, potential=clipped_quadratic(1.0), T=1.0,
                        dt=0.01, u0=zero_field(dom), v0=zero_field(dom))
        traj = simulate(cfg)
        assert all(np.max(np.abs(st.u)) == 0.0 for st in traj.states)
        assert all(e.total == 0.0 for e in traj.energies)

    def test_constant_with_zero_gradient_fixed_in_neumann(self):
        dom = neumann_domain(n=32)
        op = build_operator(dom)
        W = clipped_quadratic(1.0)
        assert W.grad(2.0) == 0.0
        st = FieldState(constant_field(dom, 2.0), zero_field(dom))
        out = step(st, op, W, 0.005)
        assert np.max(np.abs(out.u - 2.0)) <= 1e-13

    def test_time_reversibility(self):
        dom = dirichlet_domain(n=64)
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        op = build_operator(dom)
        u0 = bump_field(dom, amplitude=0.5)
        v0 = zero_field(dom)
        dt = 0.9 * stability_limit(op, W)
        state = FieldState(u0.copy(), v0.copy())
        n = 400
        for _ in range(n):
            state = step(state, op, W, dt)
        state = FieldState(state.u, -state.v)
        for _ in range(n):
            state = step(state, op, W, dt)
        assert np.max(np.abs(state.u - u0)) <= 1e-10
        assert np.max(np.abs(-state.v - v0)) <= 1e-10

    def test_exterior_stays_exactly_zero(self):
        dom = dirichlet_domain(n=128)
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        cfg = SimConfig(domain=dom, potential=W, T=2.0, dt=0.05,
                        u0=bump_field(dom, 0.8), v0=zero_field(dom),
                        record_every=3)
        traj = simulate(cfg)
        outside = ~dom.interior_mask
        for st in traj.states:
            assert np.max(np.abs(st.u[outside])) == 0.0
            assert np.max(np.abs(st.v[outside])) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_step_leaves_plus_zero_off_omega_lines(self, d):
        """Off Omega's grid lines a new state is +0, not the -0 that a
        mask product leaves where the exterior force is negative."""
        dom = Domain(d=d, s=0.75, omega_extent=3.0, n=(12, 10, 8)[:d], pad_factor=2.0)
        op = build_operator(dom)
        W = clipped_quadratic(0.8)
        state = FieldState(bump_field(dom, -0.5), bump_field(dom, 0.3))
        off = np.ones(dom.n, dtype=bool)
        off[dom.interior[:-1]] = False
        for _ in range(3):
            state = step(state, op, W, 0.05)
            for f in (state.u, state.v):
                assert np.all(f[off] == 0.0) and not np.signbit(f[off]).any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected_in_step(self):
        dom = periodic_domain(n=64)
        op = build_operator(dom)
        W = zero_potential()
        dt = 10.0 / math.sqrt(float(np.max(op.symbol)))
        state = FieldState(sine_field(dom, k=31, amplitude=1.0), zero_field(dom))
        with pytest.raises(BlowUpError):
            for _ in range(10_000):
                state = step(state, op, W, dt)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mode", [PERIODIC, NEUMANN_1D, EXTERIOR_DIRICHLET])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["zero", "ball"])
    @pytest.mark.parametrize("peak, dt", [(math.inf, 0.1), (1e308, 10.0)])
    def test_a_drift_that_overflows_raises_blowup(self, mode, m, kind, peak, dt):
        """u = 0 and one v value of ``peak`` in Omega: the drift makes u1
        non-finite there (1e308 * 10 overflows while the first kick stays
        finite). A non-finite u1 makes the second force NaN on all of
        Omega's lines, through the zero-frequency coefficient, where the
        symbol is 0, so ``step``'s check of v1 alone raises, on a full box
        and on a lines block."""
        d = 1 if mode == NEUMANN_1D else 2
        dom = Domain(d=d, s=1.0 if mode == NEUMANN_1D else 0.75, omega_extent=2.0,
                     n=(8, 6)[:d], pad_factor=2.0 if mode == EXTERIOR_DIRICHLET else 1.0,
                     boundary_mode=mode)
        op, W = build_operator(dom), _potential(kind, m)
        v = np.zeros(dom.n if m == 1 else dom.n + (m,))
        v[tuple(np.argwhere(dom.interior_mask)[0])] = peak
        lines = dom.interior_lines
        for st_ in (FieldState(np.zeros_like(v), v),
                    FieldState(np.zeros_like(v[lines]), v[lines].copy())):
            assert np.isnan(dynamics.force(op, W, np.where(st_.v != 0, math.inf, 0.0))).all()
            with pytest.raises(BlowUpError, match="non-finite"):
                step(st_, op, W, dt)

    @pytest.mark.parametrize("m", [1, 2])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_bound_0_potential_gives_the_gradient_paths_force(self, m, data):
        """grad W of a bound-0 potential is +0, so ``force`` skips it, and
        f - (+0) is f: the force equals the one the gradient path gives bit
        for bit, -0 and NaN included, on a full box and on a lines block
        with -0 off Omega, and on a zero field, whose force is -0."""
        op, _, _, state = data.draw(_step_cases(m=m))
        dom = op.domain
        u = state.u.copy()
        u[~dom.interior_mask] = -0.0
        u[tuple(np.argwhere(dom.interior_mask)[0])] = data.draw(
            st.sampled_from([0.5, -0.0, math.nan]))
        free = zero_potential(m)
        with_grad = replace(free, bound=1.0)
        for f in (u, u[dom.interior_lines].copy(), np.zeros_like(u)):
            assert np.array_equal(dynamics.force(op, free, f).view(np.uint64),
                                  dynamics.force(op, with_grad, f).view(np.uint64))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_step_index(self):
        dom = periodic_domain(n=64)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=300.0,
                        dt=0.5, u0=sine_field(dom, k=31), v0=zero_field(dom),
                        enforce_cfl=False)
        with pytest.raises(BlowUpError) as info:
            simulate(cfg)
        err = info.value
        assert err.step is not None and 0 < err.step < 300
        assert err.t == err.step * cfg.dt
        assert math.isfinite(err.energy) and math.isfinite(err.max_abs)

    def test_vector_valued_run(self):
        dom = dirichlet_domain(n=64)
        W = ball_potential(2)
        u0 = np.stack([bump_field(dom, 0.3), bump_field(dom, -0.2)], axis=-1)
        cfg = SimConfig(domain=dom, potential=W, T=1.0, dt=0.02,
                        u0=u0, v0=np.zeros_like(u0), record_every=10)
        traj = simulate(cfg)
        assert traj.states[-1].u.shape == (64, 2)
        assert np.all(np.isfinite(traj.states[-1].u))


# potentials drawn by the step property test, per component count
_KINDS = {1: ["clipped_quadratic", "ball", "linear_taper", "mollified", "zero"],
          2: ["ball", "mollified", "zero"]}


@functools.lru_cache(maxsize=None)
def _potential(kind, m):
    if kind == "clipped_quadratic":
        return clipped_quadratic(0.8)
    if kind == "ball":
        return ball_potential(m)
    if kind == "linear_taper":
        return linear_taper_family().make(0.3)
    if kind == "mollified":
        return mollified_family(ball_potential(m)).make(0.1)
    return zero_potential(m)


def _band_limited_inside_omega(dom, m, rng, band, amplitude):
    """Sum of the lowest sine modes of Omega's index block, zero outside
    it, scaled to the given maximum modulus."""
    inner = dom.interior
    sizes = [len(range(*sl.indices(k))) for sl, k in zip(inner, dom.n)]
    block = rng.standard_normal(tuple(min(band, k) for k in sizes) + (m,))
    for ax, k in enumerate(sizes):
        modes = np.sin(np.pi * np.outer(np.arange(1, k + 1),
                                        np.arange(1, block.shape[ax] + 1)) / (k + 1))
        block = np.moveaxis(np.tensordot(modes, block, axes=([1], [ax])), 0, ax)
    block *= amplitude / np.max(np.abs(block))
    out = np.zeros(dom.n + (m,))
    out[inner] = block
    return out if m > 1 else out[..., 0]


@st.composite
def _step_cases(draw, embedding=False, mode=None, m=None, kind=None):
    """``(op, W, dt, state)``; with ``embedding``, 2s > d; ``mode``, ``m``
    and the potential's ``kind`` are drawn unless given."""
    if mode is None:
        mode = draw(st.sampled_from([EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D]))
    d = 1 if mode == NEUMANN_1D else draw(st.integers(1, 3))
    sizes = [2, 4, 6] if d == 3 else [2, 4, 6, 8, 10]
    n = tuple(draw(st.lists(st.sampled_from(sizes), min_size=d, max_size=d)))
    s = 1.0 if mode == NEUMANN_1D else draw(st.floats(d / 2 + 0.05 if embedding else 0.5, 2.0))
    pad = draw(st.floats(1.25, 3.0)) if mode == EXTERIOR_DIRICHLET else 1.0
    dom = Domain(d=d, s=s, omega_extent=draw(st.floats(1.0, 8.0)), n=n,
                 pad_factor=pad, boundary_mode=mode)
    if m is None:
        m = draw(st.integers(1, 2))
    W = _potential(kind or draw(st.sampled_from(_KINDS[m])), m)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    band = draw(st.integers(1, 3))
    u0 = _band_limited_inside_omega(dom, m, rng, band, draw(st.floats(0.05, 2.0)))
    v_amp = draw(st.sampled_from([0.0]) | st.floats(0.05, 1.0))
    v0 = _band_limited_inside_omega(dom, m, rng, band, v_amp) if v_amp else np.zeros_like(u0)
    op = build_operator(dom)
    dt = draw(st.floats(0.1, 0.9)) * stability_limit(op, W)
    return op, W, dt, FieldState(u0, v0)


class TestStepAgainstFullBoxOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=_step_cases())
    def test_interior_block_step_matches_full_box_step(self, case):
        """grad W and W on the interior block only, kicks in place: on
        Omega the states equal the full-box step bit for bit, everywhere
        they compare equal (an exterior zero may differ in sign), the
        exterior stays zero, and the energy moves by rounding only."""
        op, W, dt, state = case
        dom = op.domain
        inner, outside = dom.interior, ~dom.interior_mask
        ou, ov = state.u, state.v
        for _ in range(4):
            prev, kept = state, (state.u.copy(), state.v.copy())
            state = step(prev, op, W, dt)
            # simulate records states without copies: step must not write its input
            assert np.array_equal(prev.u, kept[0]) and np.array_equal(prev.v, kept[1])
            ou, ov = step_oracle(ou, ov, op, W, dt)
            for got, want in ((state.u, ou), (state.v, ov)):
                assert np.array_equal(got[inner].view(np.int64), want[inner].view(np.int64))
                assert np.array_equal(got, want)
                assert np.all(got[outside] == 0.0)
            e = energy(op, W, state)
            kin, ela, adh, total = energy_oracle(op, W, ou, ov)
            assert abs(e.total - total) <= 1e-13 * (abs(kin) + abs(ela) + abs(adh))


@settings(max_examples=80, deadline=None)
@given(case=_step_cases().filter(lambda case: case[1].regularity == C1_UNIFORM),
       k=st.integers(1, 8))
def test_k_steps_back_from_the_negated_velocity_return_to_the_start(case, k):
    """Kick-drift-kick is time-reversible: k steps, v negated, k steps again
    give u0 and -v0 to rounding. Only C1 potentials are drawn: at a kink of
    W a rounding difference can flip the branch that grad W takes."""
    op, W, dt, start = case
    scale = max(np.max(np.abs(start.u)), np.max(np.abs(start.v)))
    state = start
    for _ in range(k):
        state = step(state, op, W, dt)
    state = FieldState(state.u, -state.v)
    for _ in range(k):
        state = step(state, op, W, dt)
    assert np.max(np.abs(state.u - start.u)) <= 1e-12 * scale
    assert np.max(np.abs(-state.v - start.v)) <= 1e-12 * scale


def _leapfrog_invariant(op, W, dt, state):
    """E_kin + E_ela + E_adh - (dt^2 / 8) ||F(u)||^2 over Omega, with F the
    force: the leapfrog energy 1/2 v^2 + 1/2 w^2 u^2 (1 - w^2 dt^2 / 4) of
    every eigenmode of the projected operator wherever grad W is linear."""
    f = dynamics.force(op, W, state.u)[op.domain.interior]
    modified = dt ** 2 / 8 * float(np.sum(f * f)) * op.domain.cell_volume
    return energy(op, W, state).total - modified


def _invariant_drift(case, steps=30, radius=0.5):
    """The largest change of :func:`_leapfrog_invariant` over up to
    ``steps`` steps from ``case``'s data scaled to max |u0| = max |v0| =
    0.3, relative to 1/2 ||v0||^2 + 1/2 (lambda_max + L) ||u0||^2 + |E_adh|,
    the scale of each energy term's rounding. The run stops before the
    first state with a |u| >= ``radius``."""
    op, W, dt, state = case
    u, v = (f * (0.3 / max(np.max(np.abs(f)), 1e-300)) for f in (state.u, state.v))
    state = FieldState(u, v)
    stiff = float(np.max(op.symbol)) + W.grad_lipschitz
    scale = (0.5 * float(np.sum(v * v) + stiff * np.sum(u * u)) * op.domain.cell_volume
             + abs(energy(op, W, state).adhesive))
    start, worst = _leapfrog_invariant(op, W, dt, state), 0.0
    for _ in range(steps):
        state = step(state, op, W, dt)
        if np.max(np.abs(state.u)) >= radius:
            break
        worst = max(worst, abs(_leapfrog_invariant(op, W, dt, state) - start))
    return worst / scale


@settings(max_examples=60, deadline=None)
@given(case=_step_cases(kind="zero"))
def test_the_free_wave_conserves_the_leapfrog_energy_in_every_mode(case):
    """Kick-drift-kick conserves the modified energy exactly, up to
    rounding, when the force is linear: the zero potential's in all three
    boundary modes, for scalar and vector data."""
    assert _invariant_drift(case, radius=math.inf) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(case=_step_cases())
def test_every_potential_conserves_the_leapfrog_energy_in_its_quadratic_region(case):
    """While |u| < 0.5 every drawn potential has a linear gradient: 2u (the
    clipped quadratic, the ball and the mollified members, whose kernel
    radius is 0.1) or (2 - eps) u (the taper). There the modified energy
    is conserved up to rounding."""
    assert _invariant_drift(case) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(case=_step_cases().filter(
    lambda case: case[1].name.split("(")[0] in ("clipped_quadratic", "linear_taper", "ball")),
       steps=st.integers(1, 6))
def test_negated_data_give_the_negated_run_and_the_same_energies(case, steps):
    """W is even and the transforms, kicks and projection commute with
    negation exactly, so (-u0, -v0) gives -u(t) and -v(t), equal to the
    last bit but for the sign of a zero, and the same energies bit for
    bit. A mollified member misses this by rounding: its lattice is not
    symmetric about 0."""
    op, W, dt, state = case
    plus, minus = (simulate(SimConfig(domain=op.domain, potential=W, T=steps * dt, dt=dt,
                                      u0=sign * state.u, v0=sign * state.v, record_every=1,
                                      enforce_cfl=False))
                   for sign in (1.0, -1.0))
    for a, b in zip(plus.states, minus.states):
        assert np.array_equal(b.u, -a.u) and np.array_equal(b.v, -a.v)
    assert _bits([tuple(e) for e in minus.energies]) == \
        _bits([tuple(e) for e in plus.energies])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("factor, bounded", [(0.99, True), (1.01, False)])
def test_the_stability_limit_is_sharp(factor, bounded):
    """2 / sqrt(lambda_max) is the scheme's own limit: with the zero
    potential, 1e-3 noise stays near its size for 2,000 steps 1 % below it
    and grows past 1e100 (or overflows) 1 % above it."""
    dom = periodic_domain(n=32, s=0.75)
    W = zero_potential()
    dt = factor * stability_limit(build_operator(dom), W)
    u0 = 1e-3 * np.random.default_rng(0).standard_normal(dom.n)
    cfg = SimConfig(domain=dom, potential=W, T=2000 * dt, dt=dt, u0=u0,
                    v0=zero_field(dom), record_every=1, enforce_cfl=False)
    assert cfg.nsteps == 2000
    try:
        peak = float(np.max(simulate(cfg).max_abs_series()))
    except BlowUpError:
        peak = math.inf
    assert peak < 1e-2 if bounded else peak > 1e100


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 2), data=st.data())
def test_the_projected_step_is_symplectic_on_omega(d, data):
    """With the zero potential the step is linear. Its matrix M on Omega's
    points (u, v), built by stepping basis vectors, satisfies
    M^T J M = J to rounding: the projected step is Verlet on the
    constrained subspace."""
    sizes = [8, 10, 12, 14, 16] if d == 1 else [4, 6, 8]
    n = tuple(data.draw(st.lists(st.sampled_from(sizes), min_size=d, max_size=d)))
    dom = Domain(d=d, s=data.draw(st.floats(0.5, 1.0)),
                 omega_extent=data.draw(st.floats(1.0, 8.0)), n=n, pad_factor=2.0)
    op, W = build_operator(dom), zero_potential()
    dt = data.draw(st.floats(0.1, 0.99)) * stability_limit(op, W)
    omega = dom.interior_mask
    k = int(omega.sum())
    columns = []
    for j in range(2 * k):
        basis = np.zeros(2 * k)
        basis[j] = 1.0
        u, v = np.zeros(dom.n), np.zeros(dom.n)
        u[omega], v[omega] = basis[:k], basis[k:]
        new = step(FieldState(u, v), op, W, dt)
        columns.append(np.concatenate([new.u[omega], new.v[omega]]))
    M = np.array(columns).T
    J = np.block([[np.zeros((k, k)), np.eye(k)], [-np.eye(k), np.zeros((k, k))]])
    assert np.max(np.abs(M.T @ J @ M - J)) <= 1e-12


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _off_lines(dom):
    """Boolean grid, True off Omega's grid lines."""
    off = np.ones(dom.n, dtype=bool)
    off[dom.interior_lines] = False
    return off


class TestLinesBlock:
    """simulate advances and records Omega's grid lines, the lines block;
    ``traj.states`` gives full boxes, expanded when read."""

    @settings(max_examples=80, deadline=None)
    @given(case=_step_cases(), steps=st.integers(1, 4))
    def test_simulate_equals_the_full_box_oracle_run(self, case, steps):
        """Every recorded state, signbits included, is the full-box oracle
        run's: on Omega's grid lines bit for bit, +0 off them after a step,
        and the initial data itself (its -0 off the lines included) at the
        first snapshot; so is every energy."""
        op, W, dt, state = case
        dom = op.domain
        off = _off_lines(dom)
        u0 = state.u.copy()
        u0[off] = -0.0
        cfg = SimConfig(domain=dom, potential=W, T=steps * dt, dt=dt, u0=u0,
                        v0=state.v, record_every=1, enforce_cfl=False)
        traj = simulate(cfg)
        assert len(traj.states) == steps + 1
        ou, ov = cfg.u0, cfg.v0
        for k, st_ in enumerate(traj.states):
            if k:
                ou, ov = step_oracle(ou, ov, op, W, cfg.dt)
            want_u, want_v = ou.copy(), ov.copy()
            if k:  # step leaves +0 off Omega's grid lines
                want_u[off], want_v[off] = 0.0, 0.0
            assert st_.u.shape == want_u.shape and st_.t == traj.times[k]
            assert np.array_equal(st_.u.view(np.int64), want_u.view(np.int64))
            assert np.array_equal(st_.v.view(np.int64), want_v.view(np.int64))
            want = energy_per_state_oracle(op, W, FieldState(ou, ov))
            assert _bits(tuple(traj.energies[k])) == _bits(want)

    @settings(max_examples=80, deadline=None)
    @given(case=_step_cases())
    def test_step_on_a_lines_block_is_the_full_step_on_those_lines(self, case):
        op, W, dt, state = case
        lines = op.domain.interior_lines
        full = step(state, op, W, dt)
        block = step(FieldState(state.u[lines].copy(), state.v[lines].copy(), state.t),
                     op, W, dt)
        assert block.t == full.t
        for got, want in ((block.u, full.u[lines]), (block.v, full.v[lines])):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(case=_step_cases())
    def test_force_on_a_full_box_is_the_block_force_on_omegas_lines(self, case):
        """force transforms the layout it is handed: on Omega's grid lines
        the full box's force is the lines block's bit for bit, and off Omega
        it is the nonlocal term alone."""
        op, W, _, state = case
        dom = op.domain
        lines = dom.interior_lines
        full = dynamics.force(op, W, state.u)
        block = dynamics.force(op, W, state.u[lines].copy())
        assert full.shape == state.u.shape and block.shape == state.u[lines].shape
        assert _bits(full[lines]) == _bits(block)
        outside = ~dom.interior_mask
        nonlocal_term = apply_fractional_laplacian(op, state.u)
        assert _bits(full[outside]) == _bits(-nonlocal_term[outside])

    def test_a_3d_trajectory_holds_omega_blocks_and_sign_bits_only(self):
        """The arrays a 3-D exterior trajectory keeps alive are, past its
        first snapshot (the config's own u0 and v0), its Omega blocks and the
        sign bits of its lines blocks: less than the lines blocks, which are
        about a quarter of the full boxes here."""
        dom = Domain(d=3, s=1.0, omega_extent=3.0, n=16, pad_factor=2.0)
        W = mollified_family(ball_potential(2)).make(0.1)
        u0 = np.zeros(dom.n + (2,))
        u0[dom.interior] = 0.5
        cfg = SimConfig(domain=dom, potential=W, T=0.2, dt=0.05, u0=u0,
                        v0=np.zeros_like(u0), record_every=1)
        simulate(cfg)  # builds the operator's and the domain's cached arrays
        runs = []
        held, _ = traced_memory(lambda: runs.append(simulate(cfg)))
        traj, = runs
        kept = len(traj.times) - 1  # snapshots packed: all but the first
        blocks = kept * 2 * u0[dom.interior_lines].nbytes
        packed = kept * 2 * (u0[dom.interior].nbytes + -(-u0[dom.interior_lines].size // 8))
        assert blocks * 4 < kept * 2 * u0.nbytes
        assert packed <= held < blocks
        assert held < packed + u0.nbytes // 2
        assert traj.states[-1].u.shape == u0.shape

    def test_a_3d_vector_run_peaks_near_two_spectra_above_what_it_keeps(self):
        """On a 3-D 64^3, m = 2 run, the memory a run allocates beyond the
        snapshots it keeps peaks at about two half spectra (the step's
        spectrum and the Parseval terms of a record step), not at a third
        temporary of the terms' size (2.46 spectra). The lines blocks of
        the state being stepped, which the run does not keep, come on top:
        0.23 spectra more than their packed form (2.24 in all)."""
        dom = Domain(d=3, s=1.0, omega_extent=2 * np.pi, n=64, pad_factor=2.0)
        W = mollified_family(ball_potential(2)).make(0.1)
        bump = bump_field(dom, 1.3)
        u0 = np.stack([bump, 0.6 * bump], axis=-1)
        dt = fitted_dt(1.0, 0.9 * stability_limit(build_operator(dom), W))
        cfg = SimConfig(domain=dom, potential=W, T=1.0, dt=dt, u0=u0,
                        v0=np.zeros_like(u0), record_every=2)
        simulate(cfg)  # builds the operator's and the domain's cached arrays
        runs = []
        held, peak = traced_memory(lambda: runs.append(simulate(cfg)))
        traj, = runs
        spectrum = 16 * 64 * 64 * 33 * 2  # bytes: complex half spectrum, m = 2
        kept = len(traj.times) - 1  # snapshots packed: all but the first
        assert held >= kept * 2 * (u0[dom.interior].nbytes
                                   + -(-u0[dom.interior_lines].size // 8))
        assert held < kept * 2 * u0[dom.interior_lines].nbytes
        assert peak - held < 2.25 * spectrum


def _negative_zeros(f) -> int:
    return int(np.count_nonzero(np.signbit(f) & (f == 0.0)))


class TestRecordedStates:
    """An exterior run with d > 1 keeps each snapshot as Omega's block and
    the sign bits of its lines block; the ``u`` and ``v`` of
    ``traj.states`` give back every bit of the full boxes that repeated
    ``step`` calls make."""

    @pytest.mark.parametrize("d, n, m, stacked", [(2, 64, 1, True), (3, 20, 2, False)])
    def test_states_are_the_full_box_steps_bit_for_bit(self, d, n, m, stacked):
        dom = Domain(d=d, s=0.75, omega_extent=4.0, n=n, pad_factor=2.0)
        W = _potential("mollified" if m > 1 else "clipped_quadratic", m)
        rng = np.random.default_rng(5)
        u0 = _band_limited_inside_omega(dom, m, rng, 3, 1.2)
        v0 = _band_limited_inside_omega(dom, m, rng, 3, 0.5)
        u0[u0 == 0.0] = -0.0  # on the collar of Omega's lines and off them
        op = build_operator(dom)
        dt = 0.5 * stability_limit(op, W)
        cfg = SimConfig(domain=dom, potential=W, T=9 * dt, dt=dt, u0=u0, v0=v0,
                        record_every=1 if stacked else 2)
        assert (stack_size(FieldState(u0, v0)) > 1) == stacked
        state, want = FieldState(cfg.u0, cfg.v0), [FieldState(cfg.u0, cfg.v0)]
        for i in range(1, cfg.nsteps + 1):
            state = step(state, op, W, cfg.dt)
            if i % cfg.record_every == 0 or i == cfg.nsteps:
                want.append(state)
        traj = simulate(cfg)
        assert len(traj.states) == len(want)
        assert [got.t for got in traj.states] == traj.times.tolist()
        for got, w in zip(traj.states, want):
            for a, b in ((got.u, w.u), (got.v, w.v)):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        # the signs are what the comparison can miss: -0 on the collar of
        # Omega's lines after a step, and the initial data's -0 off the lines
        collar = ~dom.interior_mask[dom.interior_lines]
        lines = dom.interior_lines
        assert all(sum(_negative_zeros(getattr(w, f)[lines][collar]) for w in want[1:])
                   for f in ("u", "v"))
        assert _negative_zeros(traj.states[0].u[_off_lines(dom)]) > 0

    @pytest.mark.parametrize("d, n, stacked", [(2, 16, True), (3, 32, False)])
    def test_the_first_snapshot_is_the_configs_initial_data_itself(self, d, n, stacked):
        """A packed run keeps no copy of its initial data: its first state
        holds the config's own arrays, and every later one is packed."""
        dom = Domain(d=d, s=1.0, omega_extent=3.0, n=n, pad_factor=2.0)
        u0 = bump_field(dom, 0.5)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=0.2, dt=0.05, u0=u0,
                        v0=np.zeros_like(u0), record_every=1)
        assert (stack_size(FieldState(cfg.u0, cfg.v0)) > 1) == stacked
        traj = simulate(cfg)
        first = traj.states[0]
        assert first.u is traj.config.u0 and first.v is traj.config.v0 and first.t == 0.0
        assert all(isinstance(st_, dynamics._Packed) for st_ in traj.states[1:])

    def test_reading_one_field_builds_one_box(self):
        """Reading ``v`` of a packed 3-D, m = 2 snapshot builds ``v``'s full
        box and no ``u``, and writes the stored signs straight into it: the
        read peaks below 1.1 boxes (1.05 here; the unpacked sign bits come
        on top of the box)."""
        dom = Domain(d=3, s=1.0, omega_extent=3.0, n=32, pad_factor=2.0)
        W = mollified_family(ball_potential(2)).make(0.1)
        u0 = np.zeros(dom.n + (2,))
        u0[dom.interior] = 0.5
        traj = simulate(SimConfig(domain=dom, potential=W, T=0.2, dt=0.05, u0=u0,
                                  v0=np.zeros_like(u0), record_every=1))
        traj.states[-1].v  # builds the domain's cached layout of the lines block
        _, peak = traced_memory(lambda: traj.states[-1].v)
        assert u0.nbytes <= peak < 1.1 * u0.nbytes


class TestStackedEvaluation:
    """Recorded snapshots are evaluated in stacks; every value equals the
    one-snapshot-at-a-time one bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=_step_cases(), steps=st.integers(1, 9), per_stack=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_energies_and_residuals_equal_per_state_ones(self, case, steps,
                                                                 per_stack, seed):
        """simulate's energies, in stacks of ``per_stack`` snapshots with a
        shorter last one, and energies of stacks of 1, 2 and every snapshot
        equal the per-state oracle; weak_residual in the same stacks equals
        the per-snapshot oracle."""
        op, W, dt, state = case
        dom = op.domain
        cfg = SimConfig(domain=dom, potential=W, T=steps * dt, dt=dt, u0=state.u,
                        v0=state.v, record_every=1, enforce_cfl=False)
        rng = np.random.default_rng(seed)
        tests = [WeakTestField(_band_limited_inside_omega(dom, W.m, rng, 2, 1.0), window)
                 for window in (window_one(), window_sin_sq(cfg.T))]
        budget = per_stack * (state.u.nbytes + state.v.nbytes)
        with mock.patch.object(dynamics, "STACK_BYTES", budget), \
                mock.patch.object(dynamics, "energies", wraps=dynamics.energies) as spy:
            traj = simulate(cfg)
            residuals = weak_residual(traj, tests, W)
        count = len(traj.states)
        assert [len(c.args[2]) for c in spy.call_args_list] == \
            [per_stack] * (count // per_stack) + [count % per_stack] * (count % per_stack > 0)
        want = [energy_per_state_oracle(op, W, st) for st in traj.states]
        assert _bits([tuple(e) for e in traj.energies]) == _bits(want)
        for stack in (traj.states[:1], traj.states[:2], traj.states):
            got = energies(op, W, np.stack([st.u for st in stack]),
                           np.stack([st.v for st in stack]))
            assert _bits([tuple(e) for e in got]) == _bits(want[:len(stack)])
        assert _bits(residuals) == _bits(weak_residual_oracle(traj, tests, W))

    def test_one_d_snapshots_stack_by_the_hundreds_and_large_ones_stand_alone(self):
        def per_stack(shape):
            u = np.zeros(shape)
            return stack_size(FieldState(u, u))

        assert per_stack((32,)) >= per_stack((64,)) >= 200
        assert per_stack((128, 128)) == per_stack((256, 256)) == 1
        assert per_stack((64, 64, 64, 2)) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("record_every", [1, 3])
    def test_blow_up_energy_reads_the_pending_snapshots(self, record_every):
        """The last finite state's energy overflows, so BlowUpError.energy is
        the latest finite recorded one, although no stack was full yet."""
        dom = periodic_domain(n=64)
        op, W = build_operator(dom), zero_potential()
        cfg = SimConfig(domain=dom, potential=W, T=300.0, dt=0.5, u0=sine_field(dom, k=31),
                        v0=zero_field(dom), record_every=record_every, enforce_cfl=False)
        with pytest.raises(BlowUpError) as info:
            simulate(cfg)
        err = info.value
        state, totals = FieldState(cfg.u0, cfg.v0), []
        for i in range(err.step):
            state = state if i == 0 else step(state, op, W, cfg.dt)
            if i % record_every == 0:
                totals.append(energy_per_state_oracle(op, W, state)[3])
        assert len(totals) < stack_size(state)
        assert not math.isfinite(energy_per_state_oracle(op, W, state)[3])
        latest = next(t for t in reversed(totals) if math.isfinite(t))
        assert _bits(err.energy) == _bits(latest)
        assert err.max_abs == float(np.max(np.abs(state.u)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["periodic-1d", "exterior-2d"])
    def test_the_blow_up_report_is_the_same_at_every_batch_boundary(self, case):
        """Stacks of 1, 2, 3 and the default number of snapshots, with
        record_every 1 and 3, put the failing step's snapshot at a batch's
        first row, in its middle and in a run whose snapshots stand alone;
        the 2-D exterior run packs its snapshots. Every report has the bits
        of the per-state oracle."""
        if case == "periodic-1d":
            dom, W, dt = periodic_domain(n=64), zero_potential(), 0.5
            u0 = sine_field(dom, k=31)
        else:
            dom, W = Domain(d=2, s=1.0, omega_extent=2.0, n=16), clipped_quadratic(1.0)
            dt, u0 = 2.0 * stability_limit(build_operator(dom), W), bump_field(dom, 0.5)
        rows = set()  # (stack size, the row of the failing step's snapshot)
        for every in (1, 3):
            cfg = SimConfig(domain=dom, potential=W, T=1000 * dt, dt=dt, u0=u0,
                            v0=zero_field(dom), record_every=every, enforce_cfl=False)
            want = _blow_up_oracle(cfg)
            fields = cfg.u0.nbytes + cfg.v0.nbytes
            for budget in (fields, 2 * fields, 3 * fields, dynamics.STACK_BYTES):
                with mock.patch.object(dynamics, "STACK_BYTES", budget), \
                        pytest.raises(BlowUpError) as info:
                    simulate(cfg)
                err = info.value
                assert (err.step, _bits([err.t, err.energy, err.max_abs]), err.index) == want
                rows.add((budget // fields, (1 + (err.step - 1) // every) % (budget // fields)))
        assert {(2, 0), (3, 1)} <= rows
        packed = dom.interior_lines != ()  # the lines block is not the box
        assert packed == (case == "exterior-2d")


def _blow_up_oracle(cfg):
    """``BlowUpError``'s step, (t, energy, max_abs) as bits and index, from
    full-box steps: the energy of the last finite state or, where it
    overflows, the latest finite one of the snapshots recorded before."""
    op, W = build_operator(cfg.domain), cfg.potential
    state, totals = FieldState(cfg.u0, cfg.v0), []
    for i in range(cfg.nsteps):  # i: the steps taken
        if i % cfg.record_every == 0:
            totals.append(energy_per_state_oracle(op, W, state)[3])
        try:
            nxt = step(state, op, W, cfg.dt)
        except BlowUpError:
            break
        state = nxt
    else:
        raise AssertionError("the run does not blow up")
    last = energy_per_state_oracle(op, W, state)[3]
    if not math.isfinite(last):
        last = next(t for t in reversed(totals) if math.isfinite(t))
    mag = np.abs(state.u)
    at = np.unravel_index(int(np.argmax(mag)), mag.shape)
    return (i + 1, _bits([(i + 1) * cfg.dt, last, float(mag[at])]),
            tuple(int(k) for k in at))


def _chunks_of_states(traj):
    """``u_stacks`` as a trajectory built by hand gives them: ``np.stack``
    of the states' ``u`` in chunks of ``stack_size``."""
    k = stack_size(FieldState(traj.config.u0, traj.config.v0))
    return [np.stack([st.u for st in traj.states[i:i + k]])
            for i in range(0, len(traj.states), k)]


class TestStoredStacks:
    """Where the lines block is the box, simulate keeps the recorded states
    as rows of per-stack ``u`` and ``v`` arrays, and ``u_stacks`` yields
    those arrays themselves."""

    @settings(max_examples=60, deadline=None)
    @given(case=_step_cases(), steps=st.integers(1, 9), per_stack=st.integers(1, 4),
           every=st.integers(1, 3))
    def test_u_stacks_are_the_stored_rows_of_the_states(self, case, steps, per_stack, every):
        op, W, dt, state = case
        cfg = SimConfig(domain=op.domain, potential=W, T=steps * dt, dt=dt, u0=state.u,
                        v0=state.v, record_every=every, enforce_cfl=False)
        with mock.patch.object(dynamics, "STACK_BYTES",
                               per_stack * (state.u.nbytes + state.v.nbytes)):
            traj = simulate(cfg)
            stacks, want = list(traj.u_stacks()), _chunks_of_states(traj)
        assert [a.shape for a in stacks] == [b.shape for b in want]
        assert all(_bits(a) == _bits(b) for a, b in zip(stacks, want))
        assert _bits([tuple(e) for e in traj.energies]) == \
            _bits([energy_per_state_oracle(op, W, st_) for st_ in traj.states])
        if state.u[op.domain.interior_lines].shape != state.u.shape:
            assert traj.stored_u == []  # packed snapshots: stacked from the states
            return
        assert len(stacks) == len(traj.stored_u) and \
            all(a is b for a, b in zip(stacks, traj.stored_u))
        rows = iter(traj.states)
        for us in stacks:
            chunk = [next(rows) for _ in us]
            assert all(np.shares_memory(st_.u, us) for st_ in chunk)
            if len(us) > 1:  # and their v are the rows of one array of the same shape
                vs = chunk[0].v.base
                assert vs.shape == us.shape and all(st_.v.base is vs for st_ in chunk)

    @settings(max_examples=40, deadline=None)
    @given(case=_step_cases(), steps=st.integers(1, 9), per_stack=st.sampled_from([1, 3]))
    def test_every_recorded_total_is_the_sum_of_its_terms(self, case, steps, per_stack):
        """``total`` is kinetic + elastic + adhesive, added left to right,
        bit for bit: in stacked snapshots and in lone ones, whose elastic
        term comes from their step's spectrum."""
        op, W, dt, state = case
        cfg = SimConfig(domain=op.domain, potential=W, T=steps * dt, dt=dt, u0=state.u,
                        v0=state.v, record_every=2, enforce_cfl=False)
        with mock.patch.object(dynamics, "STACK_BYTES",
                               per_stack * (state.u.nbytes + state.v.nbytes)):
            traj = simulate(cfg)
        assert len(traj.energies) == 2 + (steps - 1) // 2
        assert _bits([e.total for e in traj.energies]) == \
            _bits([e.kinetic + e.elastic + e.adhesive for e in traj.energies])

    @settings(max_examples=40, deadline=None)
    @given(case=_step_cases())
    def test_a_step_makes_its_new_state_in_out(self, case):
        """``out`` receives the bits a step without it returns, the new
        state holds those arrays, and the input state is not written to."""
        op, W, dt, state = case
        lines = op.domain.interior_lines
        block = FieldState(state.u[lines].copy(), state.v[lines].copy())
        kept = _bits(block.u) + _bits(block.v)
        out = np.full_like(block.u, np.nan), np.full_like(block.v, np.nan)
        new, plain = step(block, op, W, dt, out=out), step(block, op, W, dt)
        assert new.u is out[0] and new.v is out[1]
        assert _bits(new.u) + _bits(new.v) == _bits(plain.u) + _bits(plain.v)
        assert _bits(block.u) + _bits(block.v) == kept

    @pytest.mark.parametrize("dom, W, value, m", [
        (neumann_domain(n=32), linear_taper_family().make(0.3), 1.2, 1),
        (periodic_domain(n=16), ball_potential(2), (0.3, -0.4), 2),
    ], ids=["neumann-taper", "periodic-ball-m2"])
    def test_trajectories_built_by_hand_stack_their_states(self, dom, W, value, m):
        traj = constant_trajectory(dom, W, value, np.linspace(0.0, 2.0, 700), m=m)
        by_hand = Trajectory(traj.config, traj.times, traj.states, traj.energies)
        want = _chunks_of_states(traj)
        assert len(want) == 2 and len(want[1]) < len(want[0])  # a full stack, a short one
        for t in (traj, by_hand):
            got = list(t.u_stacks())
            assert t.stored_u == [] and len(got) == len(want)
            assert all(_bits(a) == _bits(b) for a, b in zip(got, want))


class TestBlowUpIndex:
    """``BlowUpError.index`` is where max |u| of the last finite state sits,
    as an index into the full box, with the component last when m >= 2."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
    def test_the_index_points_at_max_abs_in_the_full_box(self, d, m):
        dom = Domain(d=d, s=1.0, omega_extent=4.0, n=32 if d == 1 else 16, pad_factor=2.0)
        W = _potential("ball", m)
        u0 = _band_limited_inside_omega(dom, m, np.random.default_rng(3), 2, 0.5)
        op = build_operator(dom)
        dt = 2.0 * stability_limit(op, W)
        cfg = SimConfig(domain=dom, potential=W, T=2000 * dt, dt=dt, u0=u0,
                        v0=np.zeros_like(u0), enforce_cfl=False)
        with pytest.raises(BlowUpError) as info:
            simulate(cfg)
        err = info.value
        state = FieldState(cfg.u0, cfg.v0)
        for _ in range(err.step - 1):
            state = step(state, op, W, cfg.dt)
        assert len(err.index) == u0.ndim and all(type(k) is int for k in err.index)
        assert abs(state.u[err.index]) == err.max_abs == float(np.max(np.abs(state.u)))
        assert dom.interior_mask[err.index[:d]]
        assert str(err) == f"blow-up at step {err.step} (t = {err.t:g})"


class TestCarriedSeminorm:
    """A recorded snapshot that stands alone takes its elastic energy from
    the spectrum of the second kick of the step that made it."""

    @pytest.mark.parametrize("mode", [EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D])
    @pytest.mark.parametrize("m", [1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_step_carries_the_seminorm_of_its_new_u(self, mode, m, data):
        """The value a step hands out is ``seminorms_sq`` of the new u bit
        for bit, for a full box and for a lines block, and the new state is
        the one a step without the list makes."""
        op, W, dt, state = data.draw(_step_cases(mode=mode, m=m))
        lines = op.domain.interior_lines
        for st_ in (state, FieldState(state.u[lines].copy(), state.v[lines].copy())):
            carried = []
            new = step(st_, op, W, dt, seminorms=carried)
            plain = step(st_, op, W, dt)
            assert np.array_equal(new.u.view(np.int64), plain.u.view(np.int64))
            assert np.array_equal(new.v.view(np.int64), plain.v.view(np.int64))
            assert _bits(carried) == _bits(seminorms_sq(op, new.u[None]))

    def test_snapshots_that_stand_alone_transform_for_the_energy_at_t0_only(self):
        """On a 3-D grid whose snapshots stand alone, simulate transforms u
        for an energy once, at t = 0; each later recorded step hands out
        its seminorm, and every energy is the per-state oracle's."""
        dom = Domain(d=3, s=1.0, omega_extent=2 * np.pi, n=32)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        u0 = bump_field(dom, 0.8)
        cfg = SimConfig(domain=dom, potential=W, T=0.5, dt=0.1, u0=u0,
                        v0=np.zeros_like(u0), record_every=2)
        assert stack_size(FieldState(cfg.u0, cfg.v0)) == 1 and cfg.nsteps % 2 == 1
        with mock.patch.object(dynamics, "seminorms_sq", wraps=seminorms_sq) as transforms, \
                mock.patch.object(dynamics, "step", wraps=dynamics.step) as steps:
            traj = simulate(cfg)
        assert transforms.call_count == 1
        assert [c.kwargs["seminorms"] is not None for c in steps.call_args_list] == \
            [i % 2 == 0 or i == cfg.nsteps for i in range(1, cfg.nsteps + 1)]
        op = build_operator(dom)
        want = [energy_per_state_oracle(op, W, st_) for st_ in traj.states]
        assert _bits([tuple(e) for e in traj.energies]) == _bits(want)

    def test_snapshots_that_stack_carry_nothing(self):
        """1-D snapshots stack, so every step runs without the list and the
        energies come from one transform per stack."""
        dom = dirichlet_domain(n=64)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        cfg = SimConfig(domain=dom, potential=W, T=1.0, dt=None, u0=bump_field(dom, 0.8),
                        v0=zero_field(dom), record_every=1)
        with mock.patch.object(dynamics, "seminorms_sq", wraps=seminorms_sq) as transforms, \
                mock.patch.object(dynamics, "step", wraps=dynamics.step) as steps:
            traj = simulate(cfg)
        assert all(c.kwargs["seminorms"] is None for c in steps.call_args_list)
        assert transforms.call_count == -(-len(traj.times) // stack_size(traj.states[0]))


class TestTracePatchPoints:
    """A tracer wraps the module attributes that callers look up; a 1-D
    run, where a step costs its calls, must still call each of them."""

    @pytest.mark.parametrize("mode", [PERIODIC, NEUMANN_1D, EXTERIOR_DIRICHLET])
    def test_a_1d_run_calls_every_patch_point_on_every_step(self, mode):
        """Also with the zero potential, whose bound 0 makes grad W +0, so
        that no force calls it."""
        dom = Domain(d=1, s=1.0 if mode == NEUMANN_1D else 0.75, omega_extent=2.0, n=32,
                     pad_factor=2.0 if mode == EXTERIOR_DIRICHLET else 1.0,
                     boundary_mode=mode)
        for member, grads_per_step in ((linear_taper_family().make(0.2), 2),
                                       (zero_potential(), 0)):
            grads = mock.Mock(wraps=member.grad)
            cfg = SimConfig(domain=dom, potential=replace(member, grad=grads), T=1.0,
                            dt=None, u0=bump_field(dom, 1.1), v0=zero_field(dom),
                            record_every=3)
            with mock.patch.object(dynamics, "step", wraps=dynamics.step) as steps, \
                    mock.patch.object(dynamics, "force", wraps=dynamics.force) as forces, \
                    mock.patch.object(dynamics, "apply_fractional_laplacian",
                                      wraps=dynamics.apply_fractional_laplacian) as transforms:
                traj = simulate(cfg)
            assert steps.call_count == cfg.nsteps == round(traj.times[-1] / cfg.dt)
            assert forces.call_count == transforms.call_count == 2 * cfg.nsteps
            assert grads.call_count == grads_per_step * cfg.nsteps
            # a step that records nothing calls force with three positional arguments
            assert all(len(c.args) == 3 and not c.kwargs for c in forces.call_args_list)

    def test_a_2d_run_whose_snapshots_stand_alone_calls_every_patch_point(self):
        """A 2-D exterior 128^2 snapshot fills a stack alone, so a record step
        passes the seminorm list to its second force; every other force call
        keeps the three positional arguments."""
        dom = Domain(d=2, s=1.0, omega_extent=2.0, n=128, pad_factor=2.0)
        member = linear_taper_family().make(0.2)
        grads = mock.Mock(wraps=member.grad)
        u0 = bump_field(dom, 1.1)
        dt = 0.5 * stability_limit(build_operator(dom), member)
        cfg = SimConfig(domain=dom, potential=replace(member, grad=grads), T=5 * dt, dt=dt,
                        u0=u0, v0=zero_field(dom), record_every=2)
        assert stack_size(FieldState(cfg.u0, cfg.v0)) == 1
        with mock.patch.object(dynamics, "step", wraps=dynamics.step) as steps, \
                mock.patch.object(dynamics, "force", wraps=dynamics.force) as forces, \
                mock.patch.object(dynamics, "apply_fractional_laplacian",
                                  wraps=dynamics.apply_fractional_laplacian) as transforms:
            traj = simulate(cfg)
        assert steps.call_count == cfg.nsteps == 5 and len(traj.states) == 4
        assert forces.call_count == transforms.call_count == grads.call_count == 10
        records = [i % 2 == 0 or i == cfg.nsteps for i in range(1, cfg.nsteps + 1)]
        for i, recording in enumerate(records):
            first, second = forces.call_args_list[2 * i: 2 * i + 2]
            assert len(first.args) == 3 and not first.kwargs
            assert len(second.args) == (4 if recording else 3) and not second.kwargs
            if recording:
                assert len(second.args[3]) == 1  # the seminorm of the new u


class TestSimConfig:
    def test_cfl_violation_rejected(self):
        dom = periodic_domain(n=256)
        with pytest.raises(ValueError, match="stability"):
            SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=0.5,
                      u0=zero_field(dom), v0=zero_field(dom))

    def test_unmasked_data_rejected(self):
        dom = dirichlet_domain(n=64)
        with pytest.raises(ValueError, match="vanish outside"):
            SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=0.001,
                      u0=np.ones(64), v0=zero_field(dom))

    def test_mismatched_components_rejected(self):
        dom = periodic_domain(n=32)
        with pytest.raises(ValueError, match="components"):
            SimConfig(domain=dom, potential=ball_potential(2), T=1.0, dt=0.001,
                      u0=zero_field(dom), v0=zero_field(dom))

    @pytest.mark.parametrize("dt, fitted", [(0.3, 0.25), (0.7, 0.5)])
    def test_dt_that_does_not_divide_T_is_rejected(self, dt, fitted):
        dom = periodic_domain(n=8)
        with pytest.raises(SimConfigError, match=rf"^dt = {dt} does not divide T = 1\.0 "
                           rf".*use dt = T / ceil\(T / dt\) = {fitted}$") as info:
            SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=dt,
                      u0=zero_field(dom), v0=zero_field(dom), enforce_cfl=False)
        assert info.value.field == "dt"

    @pytest.mark.parametrize("T, dt, nsteps", [(1.0, 0.25, 4), (0.3, 0.1, 3),
                                               (1.0, 1.0 / 3.0, 3)])
    def test_run_ends_at_T(self, T, dt, nsteps):
        dom = periodic_domain(n=8)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=T, dt=dt,
                        u0=sine_field(dom, 1), v0=zero_field(dom), record_every=2)
        traj = simulate(cfg)
        assert cfg.nsteps == nsteps
        assert traj.times[-1] == pytest.approx(T, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=_step_cases(), T=st.floats(0.01, 10.0), cfl=st.floats(0.05, 1.0))
    def test_auto_dt_is_the_fitted_stability_step(self, case, T, cfl):
        """``dt=None`` takes fitted_dt(T, cfl_safety * stability_limit),
        bit for bit, and the run then ends at T."""
        op, W, _, state = case
        cfg = SimConfig(domain=op.domain, potential=W, T=T, dt=None, u0=state.u,
                        v0=state.v, cfl_safety=cfl)
        assert _bits(cfg.dt) == _bits(fitted_dt(T, cfl * stability_limit(op, W)))
        assert cfg.nsteps * cfg.dt == pytest.approx(T, rel=1e-12)

    @pytest.mark.parametrize("field, T, cfl", [
        ("T", 0.0, 0.9), ("T", -1.0, 0.9), ("T", math.inf, 0.9), ("T", math.nan, 0.9),
        ("cfl_safety", 1.0, 0.0), ("cfl_safety", 1.0, 1.5), ("cfl_safety", 1.0, math.nan)])
    def test_auto_dt_with_a_bad_T_or_cfl_safety_raises_on_that_field(self, field, T, cfl):
        dom = periodic_domain(n=8)
        with pytest.raises(SimConfigError) as info:
            SimConfig(domain=dom, potential=zero_potential(), T=T, dt=None,
                      u0=zero_field(dom), v0=zero_field(dom), cfl_safety=cfl)
        assert info.value.field == field

    def test_a_plan_whose_fraction_of_a_step_no_check_sees_raises_on_dt(self):
        """T / dt = 1e9 + 0.5 would pass the relative 1e-9 whole-step check
        and end the run half a step short of T."""
        dom = periodic_domain(n=8)
        with pytest.raises(SimConfigError, match=r"^T / dt = 1e\+09 steps; plans of "
                           r"500,000,000 steps or more are refused$") as info:
            SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=1 / (1e9 + 0.5),
                      u0=zero_field(dom), v0=zero_field(dom))
        assert info.value.field == "dt"

    def test_a_plan_just_under_the_step_limit_is_accepted_and_not_run(self):
        """Recording its ends alone, so that its snapshots fit any memory."""
        dom = periodic_domain(n=8)
        with mock.patch.object(dynamics, "step") as steps:
            cfg = SimConfig(domain=dom, potential=zero_potential(), T=1.0,
                            dt=1 / (5e8 - 1), u0=zero_field(dom),
                            v0=zero_field(dom), record_every=10 ** 9)
        assert cfg.nsteps == 5e8 - 1 and steps.call_count == 0

    def test_an_auto_step_plan_at_the_step_limit_raises_on_T(self):
        """The auto step comes from T and the stability bound, so T is the
        key to change. The plans record their ends alone, so that their
        snapshots fit any memory."""
        dom = Domain(d=1, s=200, omega_extent=2 * np.pi, n=16)
        bound = 0.9 * stability_limit(build_operator(dom), zero_potential())

        def plan(steps):
            return SimConfig(domain=dom, potential=zero_potential(), T=steps * bound,
                             dt=None, u0=zero_field(dom), v0=zero_field(dom),
                             record_every=10 ** 9)

        assert plan(5e8 - 2).nsteps < 5e8
        with pytest.raises(SimConfigError, match=r"^T / dt = 5e\+08 steps; ") as info:
            plan(5e8)
        assert info.value.field == "T"

    @pytest.mark.parametrize("T, field", [(0.5, "potential"), (1e9, "T"), (1e300, "T")])
    def test_an_auto_step_plan_a_stiff_potential_makes_endless_raises_on_it(self, T, field):
        """A gradient Lipschitz constant above the largest symbol value sets
        the auto step: the potential is the thing to change, unless the
        symbol alone would still refuse the plan, also where T / bound
        overflows to inf and fitted_dt gives one step of T."""
        dom = periodic_domain(n=16)
        W = linear_taper_family().make(1e-300)
        with pytest.raises(SimConfigError, match=r"plans of 500,000,000 steps or more are "
                           r"refused") as info:
            SimConfig(domain=dom, potential=W, T=T, dt=None, u0=zero_field(dom),
                      v0=zero_field(dom))
        assert info.value.field == field

    def test_an_auto_step_plan_whose_bound_is_zero_raises_on_T(self):
        """The symbol and the gradient Lipschitz constant overflow in sum, so
        the stability bound is 0 and fitted_dt gives one step of T: the plan
        is refused on T, not passed on to blame a dt that an auto config
        does not carry."""
        dom = periodic_domain(n=16, s=170.2)
        W = linear_taper_family().make(1.2e-308)
        assert stability_limit(build_operator(dom), W) == 0.0
        with pytest.raises(SimConfigError, match=r"^T / dt = inf steps; plans of "
                           r"500,000,000 steps or more are refused$") as info:
            SimConfig(domain=dom, potential=W, T=1.0, dt=None, u0=zero_field(dom),
                      v0=zero_field(dom))
        assert info.value.field == "T"

    @pytest.mark.parametrize("d, n, m, dt", [(2, 256, 1, 2.0 ** -28), (3, 64, 2, 1 / (5e8 - 1))],
                             ids=["periodic-2d-stacks", "exterior-3d-packed"])
    def test_a_plan_whose_kept_snapshots_exceed_any_memory_raises_on_record_every(
            self, d, n, m, dt):
        """Kept every step, 2^28 + 1 periodic 2-D 256^2 snapshots take 2^48
        bytes, and 5e8 packed 3-D 64^3, m = 2 ones 4.9e14: refused before
        anything runs, under the step limit and on any machine."""
        dom = Domain(d=d, s=1.0, omega_extent=2 * np.pi, n=n, pad_factor=2.0 if m > 1 else 1.0,
                     boundary_mode=EXTERIOR_DIRICHLET if m > 1 else PERIODIC)
        with mock.patch.object(dynamics, "step") as steps, \
                pytest.raises(SimConfigError, match=r"^the \d+ snapshots that record_every = 1 "
                              r"keeps take .* bytes, more than the .* bytes of physical "
                              r"memory$") as info:
            SimConfig(domain=dom, potential=zero_potential(m), T=1.0, dt=dt,
                      u0=zero_field(dom, m), v0=zero_field(dom, m), record_every=1,
                      enforce_cfl=False)
        assert info.value.field == "record_every" and steps.call_count == 0

    @pytest.mark.parametrize("d, n, m", [(1, 32, 1), (2, 16, 1), (3, 16, 2)],
                             ids=["stacked-1d", "packed-2d", "packed-3d-vector"])
    def test_a_plan_is_refused_one_byte_short_of_the_bytes_its_run_keeps(
            self, monkeypatch, d, n, m):
        """The kept bytes are count x (u0 + v0), or, for a packed run, whose
        first snapshot is the config's own data, count - 1 x (two Omega
        blocks + two rows of packed sign bits); the run holds at least that
        much, and a machine of exactly that much memory accepts the plan."""
        dom = Domain(d=d, s=1.0, omega_extent=3.0, n=n, pad_factor=2.0)
        u0 = bump_field(dom, 0.5) if m == 1 else np.zeros(dom.n + (m,))
        count, lines = 2 + (9 - 1) // 2, dom.interior_lines
        if u0[lines].shape != u0.shape:
            kept = (count - 1) * 2 * (u0[dom.interior].nbytes + -(-u0[lines].size // 8))
        else:
            kept = count * 2 * u0.nbytes

        def plan():
            return SimConfig(domain=dom, potential=zero_potential(m), T=0.9, dt=0.1, u0=u0,
                             v0=np.zeros_like(u0), record_every=2, enforce_cfl=False)

        monkeypatch.setattr(dynamics, "_PHYSICAL_MEMORY", kept)
        cfg = plan()
        simulate(cfg)  # builds the domain's cached arrays
        runs = []
        held, _ = traced_memory(lambda: runs.append(simulate(cfg)))
        assert len(runs[0].times) == count and kept <= held
        monkeypatch.setattr(dynamics, "_PHYSICAL_MEMORY", kept - 1)
        with pytest.raises(SimConfigError, match=f"^the {count} snapshots") as info:
            plan()
        assert info.value.field == "record_every"

    @pytest.mark.parametrize("T, dt_max", [(1e308, 1e-10), (1.0, 0.0)])
    def test_fitted_dt_is_T_where_no_finite_step_count_fits(self, T, dt_max):
        assert fitted_dt(T, dt_max) == T

    def test_trajectory_time_grid(self):
        dom = periodic_domain(n=32)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=0.01,
                        u0=sine_field(dom, 1), v0=zero_field(dom), record_every=7)
        traj = simulate(cfg)
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 1.0) <= cfg.dt / 2
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.states) == len(traj.times) == len(traj.energies)


class TestEnergyInequality:
    def test_drift_bounded_and_second_order(self):
        dom = dirichlet_domain(n=64)
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        op = build_operator(dom)
        base_dt = fitted_dt(5.0, 0.9 * stability_limit(op, W))
        drifts = []
        for dt in (base_dt, base_dt / 2):
            cfg = SimConfig(domain=dom, potential=W, T=5.0, dt=dt,
                            u0=bump_field(dom, 0.5), v0=zero_field(dom),
                            record_every=2)
            traj = simulate(cfg)
            totals = traj.totals
            assert np.max(totals - totals[0]) <= energy_drift_tolerance(cfg)
            drifts.append(np.max(np.abs(totals - totals[0])))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.5)


class TestWeakResidual:
    def test_linear_wave_residual_refines(self):
        dom = periodic_domain(n=64)
        W = zero_potential()
        # bump centered off the box midpoint: every sine mode is odd about
        # the midpoint, so a centered bump would be orthogonal to it
        psi = bump_field(dom, 1.0, width_frac=0.5, center=[2.0])
        vals = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(domain=dom, potential=W, T=2.0, dt=dt,
                            u0=sine_field(dom, 2), v0=zero_field(dom),
                            record_every=1)
            traj = simulate(cfg)
            tf = WeakTestField(psi=psi, window=window_sin_sq(2.0))
            vals.append(abs(weak_residual(traj, [tf], W)[0]))
        assert vals[1] < vals[0]
        assert vals[0] / vals[1] > 2.5

    def test_constant_limit_residual_chi_one(self):
        dom = neumann_domain(n=64, L=1.0)
        times = np.linspace(0.0, 10.0, 501)
        W = clipped_quadratic(1.0)
        traj = constant_trajectory(dom, W, 1.0, times)
        tf = WeakTestField(psi=np.ones(dom.n), window=window_one())
        res = weak_residual(traj, [tf], W)[0]
        assert res == pytest.approx(2.0 * 10.0 * 1.0, rel=1e-12)

    def test_constant_trajectory_takes_recorded_times(self):
        # the last gap is short when record_every does not divide the step count
        dom = neumann_domain(n=64, L=1.0)
        W = clipped_quadratic(1.0)
        traj = constant_trajectory(dom, W, 1.0, np.array([0.0, 3.0, 6.0, 9.0, 10.0]))
        tf = WeakTestField(psi=np.ones(dom.n), window=window_one())
        assert weak_residual(traj, [tf], W)[0] == pytest.approx(20.0, rel=1e-12)

    def test_constant_limit_residual_windowed(self):
        # chi = sin^2(pi t / T): integral T/2, exact under the trapezoid
        # rule on a uniform grid spanning the full period.
        dom = neumann_domain(n=64, L=1.0)
        T = 4.0
        times = np.linspace(0.0, T, 801)
        W = clipped_quadratic(1.0)
        traj = constant_trajectory(dom, W, 1.0, times)
        psi = np.ones(dom.n)
        tf = WeakTestField(psi=psi, window=window_sin_sq(T))
        res = weak_residual(traj, [tf], W)[0]
        assert res == pytest.approx(2.0 * (T / 2.0) * 1.0, rel=1e-10)

    @pytest.mark.parametrize("dom, W, value, m", [
        (neumann_domain(n=32), linear_taper_family().make(0.3), 1.2, 1),
        (periodic_domain(n=16), ball_potential(2), (0.3, -0.4), 2),
    ], ids=["neumann-taper", "periodic-ball-m2"])
    def test_constant_trajectory_energies_are_those_of_its_states(self, dom, W, value, m):
        traj = constant_trajectory(dom, W, value, np.linspace(0.0, 2.0, 5), m=m)
        op = build_operator(dom)
        assert traj.energies == [energy(op, W, st) for st in traj.states]
        assert traj.energies[0] == energy(op, W, FieldState(constant_field(dom, value, m),
                                                            zero_field(dom, m)))

    def test_taper_flat_state_residual_zero(self):
        eps = 0.3
        member = linear_taper_family().make(eps)
        dom = neumann_domain(n=32, L=1.0)
        times = np.linspace(0.0, 5.0, 101)
        traj = constant_trajectory(dom, member, 1.0 + eps, times)
        tf = WeakTestField(psi=np.ones(dom.n), window=window_one())
        assert abs(weak_residual(traj, [tf], member)[0]) <= 1e-12

    def test_unsupported_test_field_rejected(self):
        dom = dirichlet_domain(n=64)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=0.1, dt=0.01,
                        u0=zero_field(dom), v0=zero_field(dom))
        traj = simulate(cfg)
        tf = WeakTestField(psi=np.ones(64), window=window_one())
        with pytest.raises(ValueError, match="supported in Omega"):
            weak_residual(traj, [tf], zero_potential())


# values set at chosen points off Omega: zeros of either sign pass the support
# checks, everything else (a subnormal, NaN, infinity) must fail them
_OFF_OMEGA = [0.0, -0.0, 5e-324, -2.5, float("nan"), float("inf")]


@st.composite
def _support_cases(draw):
    """A field of m = 1-3 components on a small grid in any mode: values
    drawn on Omega (non-finite ones included), zero off Omega except at up
    to three chosen points; with whether a chosen point is non-zero or NaN.
    Half the domains have an exterior, where the chosen points matter."""
    mode = draw(st.sampled_from([EXTERIOR_DIRICHLET, EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D]))
    d = 1 if mode == NEUMANN_1D else draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.sampled_from([2, 4, 6, 8]), min_size=d, max_size=d)))
    pad = draw(st.floats(1.25, 3.0)) if mode == EXTERIOR_DIRICHLET else 1.0
    dom = Domain(d=d, s=1.0, omega_extent=draw(st.floats(0.5, 4.0)), n=n,
                 pad_factor=pad, boundary_mode=mode)
    m = draw(st.integers(1, 3))
    values = st.floats(-10.0, 10.0) | st.sampled_from([-0.0, float("nan"), float("inf")])
    f = draw(arrays(np.float64, dom.n if m == 1 else dom.n + (m,), elements=values))
    outside = ~interior_mask_oracle(dom)
    f[outside] = 0.0
    off = [tuple(int(i) for i in idx) + ((c,) if m > 1 else ())
           for idx in zip(*np.nonzero(outside)) for c in range(m)]
    picks = st.tuples(st.sampled_from(off), st.sampled_from(_OFF_OMEGA))
    chosen = dict(draw(st.lists(picks, min_size=1, max_size=3))) if off else {}
    for idx, value in chosen.items():
        f[idx] = value
    return dom, m, f, any(not value == 0.0 for value in chosen.values())


class TestSupportChecks:
    @settings(max_examples=150, deadline=None)
    @given(case=_support_cases())
    def test_reject_exactly_a_nonzero_or_nan_off_omega(self, case):
        """SimConfig's data and weak_residual's test field: rejected exactly
        when a point off the oracle's Omega is non-zero or NaN, in every
        mode and layout; -0 passes, and so does anything on Omega."""
        dom, m, f, bad = case
        W, zeros = zero_potential(m), np.zeros_like(f)
        for label, u0, v0 in (("u0", f, zeros), ("v0", zeros, f)):
            try:
                SimConfig(domain=dom, potential=W, T=1.0, dt=0.5, u0=u0, v0=v0,
                          enforce_cfl=False)
            except SimConfigError as exc:
                assert bad and exc.field == label
            else:
                assert not bad
        traj = constant_trajectory(dom, W, 0.0, np.array([0.0, 0.5]), m=m)
        test = WeakTestField(psi=f, window=window_one())
        with np.errstate(all="ignore"):
            try:
                weak_residual(traj, [test], W)
            except ValueError as exc:
                assert bad and "supported in Omega" in str(exc)
            else:
                assert not bad


class TestAprioriBounds:
    def test_zero_energy(self):
        assert apriori_l2_bound(0.0, 0.3, 7.0) == 0.3

    def test_formula(self):
        assert apriori_l2_bound(2.0, 0.1, 3.0) == pytest.approx(0.1 + 3.0 * 2.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            apriori_l2_bound(-1.0, 0.0, 1.0)

    def test_holds_along_linear_wave(self):
        dom = periodic_domain(n=64)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=3.0, dt=0.01,
                        u0=sine_field(dom, 2, amplitude=0.3),
                        v0=zero_field(dom), record_every=5)
        traj = simulate(cfg)
        bound = apriori_l2_bound(traj.energies[0].total,
                                 l2_norm(dom, cfg.u0), 3.0)
        measured = max(l2_norm(dom, st.u) for st in traj.states)
        assert measured <= bound

    def test_sup_bound_zero_trajectory(self):
        dom = dirichlet_domain(n=64)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=0.5, dt=0.01,
                        u0=zero_field(dom), v0=zero_field(dom))
        traj = simulate(cfg)
        assert sup_bound_from_energy(traj) == 0.0

    def test_sup_bound_single_mode(self):
        dom = periodic_domain(n=64)
        op = build_operator(dom)
        u0 = sine_field(dom, 3, amplitude=0.1)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=0.05,
                        dt=0.05, u0=u0, v0=zero_field(dom))
        traj = simulate(cfg)
        const = embedding_constant(1, 1.0)
        expected_floor = const * hs_norm(op, u0)
        bound = sup_bound_from_energy(traj)
        assert bound >= expected_floor * (1 - 1e-10)
        assert float(np.max(traj.max_abs_series())) <= bound

    @settings(max_examples=60, deadline=None)
    @given(case=_step_cases(embedding=True), steps=st.integers(1, 3))
    def test_sup_bound_reads_the_recorded_energies(self, case, steps):
        """The bound from the recorded elastic energies equals the one from
        the H^s norm of every snapshot bit for bit, and transforms nothing."""
        op, W, dt, state = case
        traj = simulate(SimConfig(domain=op.domain, potential=W, T=steps * dt, dt=dt,
                                  u0=state.u, v0=state.v, record_every=1, enforce_cfl=False))
        want = sup_bound_oracle(traj)
        with mock.patch.object(spectral, "_pocketfft", None):  # any transform would raise
            assert sup_bound_from_energy(traj) == want

    def test_sup_bound_requires_embedding_regime(self):
        dom = periodic_domain(n=32, s=0.5)
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=0.05,
                        dt=0.01, u0=sine_field(dom, 1), v0=zero_field(dom))
        traj = simulate(cfg)
        with pytest.raises(ValueError, match="2s > d"):
            sup_bound_from_energy(traj)


class TestHigherDimensions:
    def test_2d_mode_oscillates_at_symbol_frequency(self):
        # sin(x) sin(y) mixes the four modes (+-1, +-1), all with the same
        # symbol value 2^s, so it stays an eigenfunction of the evolution.
        s = 0.75
        dom = Domain(d=2, s=s, omega_extent=2 * np.pi, n=32, pad_factor=1.0,
                     boundary_mode=PERIODIC)
        grids = dom.grids()
        u0 = np.sin(grids[0]) * np.sin(grids[1])
        T = 1.5
        cfg = SimConfig(domain=dom, potential=zero_potential(), T=T, dt=0.002,
                        u0=u0, v0=np.zeros(dom.n), record_every=10 ** 6)
        traj = simulate(cfg)
        omega = 2.0 ** (s / 2.0)  # |xi|^s with |xi| = sqrt(2)
        exact = math.cos(omega * traj.times[-1]) * u0
        assert np.max(np.abs(traj.states[-1].u - exact)) <= 1e-4

    def test_2d_exterior_run_masks_and_conserves(self):
        dom = Domain(d=2, s=1.0, omega_extent=2.0, n=32, pad_factor=2.0)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        op = build_operator(dom)
        dt = fitted_dt(1.0, 0.9 * stability_limit(op, W))
        cfg = SimConfig(domain=dom, potential=W, T=1.0, dt=dt,
                        u0=bump_field(dom, 0.5), v0=np.zeros(dom.n),
                        record_every=5)
        traj = simulate(cfg)
        outside = ~dom.interior_mask
        assert all(np.max(np.abs(st.u[outside])) == 0.0 for st in traj.states)
        totals = traj.totals
        assert np.max(totals - totals[0]) <= energy_drift_tolerance(cfg)

    def test_3d_symbol_and_eigenfunction(self):
        dom = Domain(d=3, s=0.5, omega_extent=2 * np.pi, n=8, pad_factor=1.0,
                     boundary_mode=PERIODIC)
        op = build_operator(dom)
        assert op.symbol[1, 1, 1] == pytest.approx(3.0 ** 0.5, rel=1e-14)
        grids = dom.grids()
        f = np.sin(grids[0]) * np.sin(grids[1]) * np.sin(grids[2])
        from adwave.spectral import apply_fractional_laplacian
        out = apply_fractional_laplacian(op, f)
        assert np.max(np.abs(out - 3.0 ** 0.5 * f)) <= 1e-12

    def test_vector_ball_energy_bounded(self):
        dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=64, pad_factor=2.0)
        fam = mollified_family(ball_potential(2))
        W = fam.make(0.1)
        op = build_operator(dom)
        u0 = np.stack([bump_field(dom, 0.4), bump_field(dom, 0.3)], axis=-1)
        dt = fitted_dt(2.0, 0.9 * stability_limit(op, W))
        cfg = SimConfig(domain=dom, potential=W, T=2.0, dt=dt, u0=u0,
                        v0=np.zeros_like(u0), record_every=3)
        traj = simulate(cfg)
        totals = traj.totals
        assert np.max(totals - totals[0]) <= energy_drift_tolerance(cfg)
        assert max(float(np.max(np.linalg.norm(st.u, axis=-1)))
                   for st in traj.states) < 1.0


def _vector_bump_run(d, n, potential, direction):
    """A bump times a fixed vector, at rest on a 2pi exterior-dirichlet box,
    under the auto step to T = 2, every step recorded."""
    dom = Domain(d=d, s=1.0, omega_extent=2 * np.pi, n=n)
    u0 = bump_field(dom, 1.2)[..., None] * np.asarray(direction)
    return simulate(SimConfig(domain=dom, potential=potential, T=2.0, dt=None,
                              u0=u0, v0=np.zeros_like(u0), record_every=1))


def _trajectory_digests(traj):
    """SHA-256 of every recorded u, of every recorded v, and of every
    (kinetic, elastic, adhesive, total), each series in record order."""

    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return h.hexdigest()

    return (digest(st.u for st in traj.states), digest(st.v for st in traj.states),
            digest(tuple(e) for e in traj.energies))


class TestVectorPins:
    """Nonzero vector runs through the exterior step, pinned bit for bit:
    the radial force, the mask on a component axis and the stacked
    energies. The hashes are those the code gave before the component axis
    was handled one component at a time; the 3-D n = 32 run, whose
    snapshots stand alone, was pinned before its elastic energies came from
    the step's own spectrum. It takes the ball itself: under numpy's AVX2
    kernels the mollified ball's values change in their last bits at this
    size."""

    @pytest.mark.parametrize("d, n, potential, direction, hashes", [
        (2, 16, lambda: mollified_family(ball_potential(2)).make(0.1), (1.0, 0.6),
         ("4eee41869a9159f05107cf45705c37c8a8b9bb9dedf1756138e75530b9b174d2",
          "62e2003b5977af76a3b059be4e095a86f4e0ef5f57c751e7c4d7ca8598dcf9e2",
          "4f99d121ae1aa4b31e292fd4d58d7bb2d33a43aecf54611d59090c6ea57ef25d")),
        (3, 8, lambda: mollified_family(ball_potential(2)).make(0.1), (1.0, 0.6),
         ("b125e3e7d4cc0c513f34c0e181d828376d2ed7321b6fd252e9ff8b67eb59b12b",
          "c4b210ea4a8baa6798ff15153e996be2d2967f37427d07bb5219aca35d67d29a",
          "e1ebe83c49a2b629496d484d9f938e7095496ddd15ddd7788e71649a51d11b62")),
        (2, 16, lambda: ball_potential(3), (1.0, 0.6, -0.3),
         ("ccfc4d6f730ac8f469a2fc3f304dc9118809d282e721034e566c1503857e9c48",
          "8080ebe2711338611091ced5a166ce93900f649322a2300a68960e77f7caeaa2",
          "ca991f1c166229b158ffb7cec837d987a17822d4e241dc2423315b250ab854cf")),
        (3, 32, lambda: ball_potential(2), (1.0, 0.6),
         ("6117202eb1688672c37502540d00bc719d2a0e64d25e1bd6bb2dbc485da0d980",
          "25946776b7ca743c242ac0e64be9f1809c26391be5c5fe9253c57a56f84d8a63",
          "fa52b2db5e2cabe74145c714a2e1958b7576acc05178d22f949b0e02975d1eb9")),
    ], ids=["2d-mollified-ball-m2", "3d-mollified-ball-m2", "2d-ball-m3", "3d-n32-ball-m2"])
    def test_vector_bump_run_has_fixed_hashes(self, d, n, potential, direction, hashes):
        traj = _vector_bump_run(d, n, potential(), direction)
        assert max(float(np.max(np.linalg.norm(st.u, axis=-1)))
                   for st in traj.states) > 1.0  # the run crosses the critical set
        assert _trajectory_digests(traj) == hashes


class TestApproximationKnobs:
    def test_padding_collar_is_a_convergence_knob(self):
        # Fixed Omega and grid spacing, growing exterior collar: interior
        # trajectories must converge as the periodic images move away.
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        T = 2.0
        sols = {}
        for pad, n in ((1.5, 96), (2.0, 128), (4.0, 256)):
            dom = Domain(d=1, s=1.0, omega_extent=2.0, n=n, pad_factor=pad)
            op = build_operator(dom)
            dt = fitted_dt(T, 0.5 * stability_limit(op, W))
            cfg = SimConfig(domain=dom, potential=W, T=T, dt=dt,
                            u0=bump_field(dom, 0.8, width_frac=0.6),
                            v0=zero_field(dom), record_every=10 ** 6)
            traj = simulate(cfg)
            x = dom.axes()[0] - dom.omega_bounds[0][0]
            inside = dom.interior_mask
            sols[pad] = (x[inside], traj.states[-1].u[inside])
        ref_x, ref_u = sols[4.0]
        diffs = []
        for pad in (1.5, 2.0):
            x, u = sols[pad]
            diffs.append(float(np.max(np.abs(np.interp(ref_x, x, u) - ref_u))))
        assert diffs[1] < diffs[0]
        assert diffs[1] <= 1e-4

    def test_nonlinear_weak_residual_refines_second_order(self):
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        dom = Domain(d=1, s=1.0, omega_extent=2.0, n=128, pad_factor=2.0)
        op = build_operator(dom)
        psi = bump_field(dom, 1.0, width_frac=0.5, center=[1.7])
        vals = []
        for k in (1, 2):
            dt = fitted_dt(2.0, 0.4 * stability_limit(op, W)) / k
            cfg = SimConfig(domain=dom, potential=W, T=2.0, dt=dt,
                            u0=bump_field(dom, 0.8), v0=zero_field(dom),
                            record_every=1)
            traj = simulate(cfg)
            tf = WeakTestField(psi=psi, window=window_sin_sq(2.0))
            vals.append(abs(weak_residual(traj, [tf], W)[0]))
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.3)


_BOX = dict(s=1.0, omega_extent=1.0, pad_factor=2.0)


def _record_every(value):
    dom = periodic_domain(n=8)
    return SimConfig(domain=dom, potential=zero_potential(), T=1.0, dt=0.25,
                     u0=zero_field(dom), v0=zero_field(dom), record_every=value)


@pytest.mark.parametrize("field, call", [
    ("n", lambda: Domain(d=2, n=(32.9, 64.2), **_BOX)),
    ("n", lambda: Domain(d=1, n=math.inf, **_BOX)),
    ("d", lambda: Domain(d=1.5, n=8, **_BOX)),
    ("d", lambda: Domain(d=math.nan, n=8, **_BOX)),
    ("k", lambda: sine_field(Domain(d=1, n=8, **_BOX), k=1.6)),
    ("k", lambda: sine_field(Domain(d=2, n=8, **_BOX), k=(1, 2.5))),
    ("m", lambda: ball_potential(2.5)),
    ("m", lambda: ball_potential(math.inf)),
    ("m", lambda: zero_potential(2.5)),
    ("record_every", lambda: _record_every(2.5)),
    ("record_every", lambda: _record_every(math.nan)),
], ids=["domain-n", "domain-n-inf", "domain-d", "domain-d-nan", "sine-k", "sine-k-axis",
        "ball-m", "ball-m-inf", "zero-m", "record_every", "record_every-nan"])
def test_a_fractional_or_non_finite_whole_number_raises_on_its_field(field, call):
    """The library, not only the CLI, decides which numbers are whole: none
    is truncated silently."""
    with pytest.raises(ParameterError, match="whole number|integers") as err:
        call()
    assert err.value.field == field


def test_an_integral_float_is_a_whole_number():
    dom = Domain(d=2.0, n=(16.0, 8), **_BOX)
    assert dom == Domain(d=2, n=(16, 8), **_BOX) and type(dom.d) is int
    assert [type(k) for k in dom.n] == [int, int]
    assert ball_potential(2.0).name == "ball(m=2)" and zero_potential(2.0).m == 2
    assert np.array_equal(sine_field(dom, k=(2.0, 1)), sine_field(dom, k=(2, 1)))
    assert _record_every(2.0).record_every == 2


class TestDataHelpers:
    def test_bump_is_supported_inside_omega(self):
        dom = dirichlet_domain(n=128)
        u = bump_field(dom, amplitude=2.0)
        assert np.max(np.abs(u[~dom.interior_mask])) == 0.0
        assert np.max(u) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("field,kwargs", [
        ("k", {"k": (1,)}), ("k", {"k": (1, 2, 3)}),
        ("center", {"center": (0.5,)}), ("center", {"center": (0.5, 0.5, 0.5)})],
        ids=["k-short", "k-long", "center-short", "center-long"])
    def test_per_axis_values_of_the_wrong_length_name_their_field(self, field, kwargs):
        dom = Domain(d=2, s=1.0, omega_extent=1.0, n=8, pad_factor=2.0)
        make = sine_field if field == "k" else bump_field
        with pytest.raises(ParameterError, match=f"{field}: expected 2 per-axis values") as err:
            make(dom, **kwargs)
        assert err.value.field == field
        assert not isinstance(err.value, DomainError)

    def test_scale_to_hs(self):
        dom = dirichlet_domain(n=128)
        op = build_operator(dom)
        u = scale_to_hs(op, bump_field(dom, 1.0), 0.05)
        assert hs_norm(op, u) == pytest.approx(0.05, rel=1e-12)
