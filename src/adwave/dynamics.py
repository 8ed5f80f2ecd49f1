"""Time integration, energy bookkeeping, and weak-form diagnostics.

The second-order system u_tt = -(-Delta)^s u - grad W(u) is advanced with a
Stoermer-Verlet (kick-drift-kick) scheme. In exterior-dirichlet mode the
position update is followed by the exterior projection and the second kick
uses the projected state, which makes the map identical to plain Verlet on
the constrained subspace: it stays symplectic there, exactly
time-reversible, and keeps every recorded snapshot supported in Omega.

Exterior contract: u vanishes outside Omega: it is +0 or -0 at every point
off ``domain.interior_mask``, a set that is empty unless the mode is
exterior-dirichlet, so one check serves every mode. W models the adhesive
layer on Omega, so grad W(u) and W(u) are evaluated on the interior block
``u[domain.interior]`` only, and the transforms of ``force`` and ``energy``
take the ``in_omega`` shortcut of :mod:`adwave.spectral`: they read and
produce only Omega's grid lines ``[domain.interior_lines]``, the lines along
the last spatial axis through Omega. ``step`` works on those lines alone.
On their points outside Omega the force holds the nonlocal term
-(-Delta)^s u alone, which the step's projection discards (a negative value
leaves -0 there); off them a new state is +0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .potentials import Potential
from .spectral import (
    EXTERIOR_DIRICHLET,
    Domain,
    SpectralOperator,
    _fitted,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
    hs_norm,
    l2_inner,
    l2_norm,
    seminorm_s,
)


class SimConfigError(ValueError):
    """An invalid :class:`SimConfig` parameter; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class BlowUpError(RuntimeError):
    """Non-finite field values were produced (time step unstable).

    :func:`simulate` fills in where it happened: the failing ``step`` and
    its time ``t``, ``max_abs`` = max |u| of the last finite state, and
    ``energy``, the latest finite total energy: that of the last finite
    state, or, where that overflows (it is quadratic in u, so it does long
    before u does), that of the latest recorded snapshot.
    """

    def __init__(self, message: str, step: int | None = None,
                 t: float | None = None, energy: float | None = None,
                 max_abs: float | None = None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.energy = energy
        self.max_abs = max_abs


@dataclass
class FieldState:
    """The pair (u, v = u_t) plus the simulation clock."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic, elastic (order-s seminorm), and adhesive energy terms."""

    kinetic: float
    elastic: float
    adhesive: float
    total: float

    @staticmethod
    def of(kinetic: float, elastic: float, adhesive: float) -> "EnergyBreakdown":
        return EnergyBreakdown(kinetic, elastic, adhesive,
                               kinetic + elastic + adhesive)


def stability_limit(op: SpectralOperator, potential: Potential) -> float:
    """Largest stable step 2 / sqrt(lambda_max + L_gradW) for the scheme."""
    lam = float(np.max(op.symbol))
    lip = max(potential.grad_lipschitz, 0.0)
    return 2.0 / math.sqrt(lam + lip) if lam + lip > 0 else math.inf


@dataclass
class SimConfig:
    """Fully validated description of one simulation run.

    ``dt`` must split ``T`` into a whole number of steps, to a relative
    1e-9, so that the run ends at ``T``; :func:`~adwave.experiments.fitted_dt`
    picks such a step below a bound. Invalid parameters raise
    :class:`SimConfigError`.
    """

    domain: Domain
    potential: Potential
    T: float
    dt: float
    u0: np.ndarray
    v0: np.ndarray
    record_every: int = 10
    cfl_safety: float = 0.9
    enforce_cfl: bool = True

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        mu = self.domain.field_components(self.u0)
        mv = self.domain.field_components(self.v0)
        if self.u0.shape != self.v0.shape:
            raise SimConfigError("v0", "u0 and v0 must have the same shape")
        if mu != self.potential.m or mv != self.potential.m:
            raise SimConfigError("u0", f"data has {mu} components but potential "
                                 f"{self.potential.name} expects {self.potential.m}")
        if not 0 < self.T < math.inf:
            raise SimConfigError("T", "final time T must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise SimConfigError("dt", "time step dt must be positive and finite")
        steps = self.T / self.dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise SimConfigError(
                "dt", f"dt = {self.dt!r} does not divide T = {self.T!r} into a whole "
                f"number of steps (T / dt = {steps!r}); use dt = T / ceil(T / dt) "
                f"= {self.T / math.ceil(steps)!r}")
        if self.record_every < 1:
            raise SimConfigError("record_every", "record_every must be >= 1")
        if not 0 < self.cfl_safety <= 1:
            raise SimConfigError("cfl_safety", "cfl_safety must lie in (0, 1]")
        outside = ~self.domain.interior_mask
        for label, f in (("u0", self.u0), ("v0", self.v0)):
            if np.any(f[outside] != 0.0):
                raise SimConfigError(label, f"{label} must vanish outside Omega")
        if self.enforce_cfl:
            limit = self.cfl_safety * stability_limit(
                build_operator(self.domain), self.potential)
            if self.dt > limit * (1 + 1e-12):
                raise SimConfigError(
                    "dt", f"dt = {self.dt:g} exceeds the stability bound "
                    f"{limit:g} (cfl_safety = {self.cfl_safety:g})")

    @property
    def nsteps(self) -> int:
        """Number of steps of size dt that reach T."""
        return round(self.T / self.dt)


@dataclass
class Trajectory:
    """Recorded snapshots, aligned times, and energy series of one run."""

    config: SimConfig
    times: np.ndarray
    states: list[FieldState]
    energies: list[EnergyBreakdown]

    @property
    def totals(self) -> np.ndarray:
        return np.array([e.total for e in self.energies])

    def energy_rows(self):
        for t, e in zip(self.times, self.energies):
            yield (t, e.kinetic, e.elastic, e.adhesive, e.total)

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(st.u))) for st in self.states)

    def max_abs_series(self) -> np.ndarray:
        return np.array([float(np.max(np.abs(st.u))) for st in self.states])


def _embed(slab: np.ndarray, lines: tuple, shape: tuple) -> np.ndarray:
    """A fresh full-box array holding ``slab`` on the grid lines ``[lines]``
    and +0 off them; ``slab`` itself when it already spans the box."""
    if slab.shape == shape:
        return slab
    out = np.zeros(shape)
    out[lines] = slab
    return out


def force(op: SpectralOperator, potential: Potential, u: np.ndarray) -> np.ndarray:
    """-(-Delta)^s u - grad W(u) for a ``u`` that vanishes outside Omega.

    On Omega this is the full force. On the rest of Omega's grid lines
    (``[domain.interior_lines]``) it holds the nonlocal term alone, and off
    those lines it is exactly +0. Returns a new full-box array that the
    caller may overwrite.
    """
    lines, inner = op.domain.interior_lines, op.domain.interior
    f = apply_fractional_laplacian(op, u, in_omega=True)
    on_lines = f[lines] if lines else f
    np.negative(on_lines, out=on_lines)
    f[inner] -= potential.grad(u[inner])
    return f


def step(state: FieldState, op: SpectralOperator, potential: Potential,
         dt: float) -> FieldState:
    """One kick-drift-kick step; projects onto the exterior constraint.

    The kicks, the drift, the projection and the finite check run on
    Omega's grid lines ``[domain.interior_lines]`` only, whatever values
    ``force`` returns off them; the new state holds +0 off those lines.
    ``state`` is not written to.
    """
    dom = op.domain
    lines = dom.interior_lines
    mask = None
    if dom.boundary_mode == EXTERIOR_DIRICHLET:
        mask = _fitted(dom, state.u, dom.interior_mask)
    u, v, vh = state.u, state.v, force(op, potential, state.u)
    if lines:  # leading axes: update Omega's grid lines alone
        u, v, vh = u[lines], v[lines], vh[lines]
        mask = mask if mask is None else mask[lines]
    vh *= 0.5 * dt
    vh += v
    u1 = vh * dt
    u1 += u
    if mask is not None:
        u1 *= mask
    u1_box = _embed(u1, lines, state.u.shape) if lines else u1
    v1 = force(op, potential, u1_box)
    if lines:
        v1 = v1[lines]
    v1 *= 0.5 * dt
    v1 += vh
    if mask is not None:
        v1 *= mask
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        raise BlowUpError("non-finite field values during time step")
    v1_box = _embed(v1, lines, state.u.shape) if lines else v1
    return FieldState(u1_box, v1_box, state.t + dt)


def energy(op: SpectralOperator, potential: Potential,
           state: FieldState) -> EnergyBreakdown:
    """Energy of a state: kinetic + elastic + adhesive over Omega."""
    dom = op.domain
    kin = 0.5 * l2_norm(dom, state.v) ** 2
    ela = 0.5 * seminorm_s(op, state.u, in_omega=True) ** 2
    adh = float(np.sum(potential.value(state.u[dom.interior]))) * dom.cell_volume
    return EnergyBreakdown.of(kin, ela, adh)


def simulate(config: SimConfig) -> Trajectory:
    """Integrate to T, recording a snapshot every ``record_every`` steps."""
    op = build_operator(config.domain)
    nsteps = config.nsteps
    # step never writes into its input, so recorded states need no copies
    state = FieldState(config.u0.copy(), config.v0.copy(), 0.0)
    times = [0.0]
    states = [state]
    energies = [energy(op, config.potential, state)]
    for i in range(1, nsteps + 1):
        try:
            nxt = step(state, op, config.potential, config.dt)
        except BlowUpError:
            t = i * config.dt
            with np.errstate(all="ignore"):
                last = energy(op, config.potential, state).total
            if not math.isfinite(last):
                last = next((e.total for e in reversed(energies)
                             if math.isfinite(e.total)), last)
            raise BlowUpError(f"blow-up at step {i} (t = {t:g})", step=i, t=t,
                              energy=last,
                              max_abs=float(np.max(np.abs(state.u)))) from None
        state = nxt
        state.t = i * config.dt
        if i % config.record_every == 0 or i == nsteps:
            times.append(state.t)
            states.append(state)
            energies.append(energy(op, config.potential, state))
    return Trajectory(config, np.array(times), states, energies)


def energy_drift_tolerance(config: SimConfig) -> float:
    """Integrator drift allowance 10 * dt^2 * T * (lambda_max + L_gradW)."""
    op = build_operator(config.domain)
    lam = float(np.max(op.symbol))
    return 10.0 * config.dt ** 2 * config.T * (lam + config.potential.grad_lipschitz)


def apriori_l2_bound(energy0: float, u0_l2: float, T: float) -> float:
    """A-priori bound u0_l2 + T * sqrt(2 * energy0) on max_t ||u(t)||_L2."""
    if energy0 < 0:
        raise ValueError("energy bound must be nonnegative")
    return u0_l2 + T * math.sqrt(2.0 * energy0)


def sup_bound_from_energy(traj: Trajectory) -> float:
    """Embedding bound on max|u|: constant times the largest H^s norm seen."""
    dom = traj.config.domain
    const = embedding_constant(dom.d, dom.s)
    op = build_operator(dom)
    return const * max(hs_norm(op, st.u) for st in traj.states)


@dataclass(frozen=True)
class TimeWindow:
    """Smooth scalar window chi(t) with its first two derivatives."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    label: str = ""


def window_one() -> TimeWindow:
    return TimeWindow(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, "const")


def window_sin_sq(T: float) -> TimeWindow:
    w = math.pi / T

    def value(t):
        return math.sin(w * t) ** 2

    def d1(t):
        return w * math.sin(2.0 * w * t)

    def d2(t):
        return 2.0 * w * w * math.cos(2.0 * w * t)

    return TimeWindow(value, d1, d2, "sin^2 window")


@dataclass
class TestField:
    """Separable space-time test function chi(t) * psi(x), psi in Omega."""

    psi: np.ndarray
    window: TimeWindow
    label: str = ""


def weak_residual(traj: Trajectory, test_fields: list[TestField],
                  potential: Potential) -> list[float]:
    """Discrete weak-form defect of a trajectory against test functions.

    The second time derivative is removed by two integrations by parts, so
    only recorded u and u_t enter:

        [<u_t, phi> - <u, phi_t>]_0^T + int <u, phi_tt>
        + int [u, phi]_s + int <grad W(u), phi>  over (0, T).

    Time integrals use the composite trapezoid rule on snapshot times. A
    trajectory of a genuine weak solution drives these values to zero under
    (dt, recording) refinement. Test fields must vanish outside Omega, so
    grad W(u) enters on the interior block only.
    """
    config = traj.config
    dom = config.domain
    op = build_operator(dom)
    inner, outside = dom.interior, ~dom.interior_mask
    times = traj.times
    T = float(times[-1])
    out = []
    for tf in test_fields:
        psi = np.asarray(tf.psi, dtype=float)
        dom.field_components(psi)
        if np.any(psi[outside] != 0.0):
            raise ValueError("test field must be supported in Omega")
        lpsi = apply_fractional_laplacian(op, psi, in_omega=True)
        psi_in = psi[inner]
        a = np.array([l2_inner(dom, st.u, psi) for st in traj.states])
        b = np.array([l2_inner(dom, st.u, lpsi) for st in traj.states])
        c = np.array([float(np.sum(potential.grad(st.u[inner]) * psi_in)) * dom.cell_volume
                      for st in traj.states])
        chi = np.array([tf.window.value(t) for t in times])
        chi2 = np.array([tf.window.d2(t) for t in times])
        boundary = (tf.window.value(T) * l2_inner(dom, traj.states[-1].v, psi)
                    - tf.window.value(0.0) * l2_inner(dom, traj.states[0].v, psi)
                    - tf.window.d1(T) * a[-1] + tf.window.d1(0.0) * a[0])
        val = (boundary + np.trapezoid(chi2 * a, times)
               + np.trapezoid(chi * b, times) + np.trapezoid(chi * c, times))
        out.append(float(val))
    return out


def constant_trajectory(domain: Domain, potential: Potential, value,
                        times: np.ndarray, m: int = 1) -> Trajectory:
    """Synthetic trajectory frozen at a constant state (v = 0 throughout)."""
    u = constant_field(domain, value, m)
    v = zero_field(domain, m)
    op = build_operator(domain)
    states = [FieldState(u.copy(), v.copy(), float(t)) for t in times]
    energies = [energy(op, potential, st) for st in states]
    # a nominal step that divides T: recorded times may end with a short gap
    config = SimConfig(domain=domain, potential=potential, T=float(times[-1]),
                       dt=float(times[-1]) / max(len(times) - 1, 1),
                       u0=u, v0=v, record_every=1, enforce_cfl=False)
    return Trajectory(config, np.asarray(times, dtype=float), states, energies)


def zero_field(domain: Domain, m: int = 1) -> np.ndarray:
    shape = domain.n if m == 1 else domain.n + (m,)
    return np.zeros(shape)


def constant_field(domain: Domain, value, m: int = 1) -> np.ndarray:
    return zero_field(domain, m) + np.asarray(value, dtype=float)


def bump_field(domain: Domain, amplitude: float = 1.0, width_frac: float = 0.6,
               center=None) -> np.ndarray:
    """Smooth compactly supported bump inside Omega, peak value = amplitude.

    Per axis the profile is exp(1 - 1/(1 - t^2)) on |t| < 1 scaled to the
    requested fraction of Omega's width; it underflows to exact zeros at the
    support edge, so the field is admissible initial data in every mode.
    """
    if not 0 < width_frac <= 1:
        raise ValueError("width_frac must lie in (0, 1]")
    grids = domain.grids()
    out = np.ones(domain.n)
    for ax, ((lo, hi), x) in enumerate(zip(domain.omega_bounds, grids)):
        c = 0.5 * (lo + hi) if center is None else center[ax]
        half = 0.5 * width_frac * (hi - lo)
        t = (x - c) / half
        with np.errstate(divide="ignore", over="ignore"):
            w = np.where(np.abs(t) < 1.0,
                         np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
        out = out * w
    return amplitude * out


def sine_field(domain: Domain, k=1, amplitude: float = 1.0) -> np.ndarray:
    """Single periodic Fourier mode prod_i sin(2 pi k_i x_i / L_i)."""
    ks = (int(k),) * domain.d if np.isscalar(k) else tuple(int(v) for v in k)
    grids = domain.grids()
    out = np.ones(domain.n)
    for ki, L, x in zip(ks, domain.box_extent, grids):
        out = out * np.sin(2.0 * np.pi * ki * x / L)
    return amplitude * out


def scale_to_hs(op: SpectralOperator, f: np.ndarray, target: float) -> np.ndarray:
    return _scaled(f, hs_norm(op, f), target)


def scale_to_l2(domain: Domain, f: np.ndarray, target: float) -> np.ndarray:
    return _scaled(f, l2_norm(domain, f), target)


def _scaled(f: np.ndarray, current: float, target: float) -> np.ndarray:
    if current == 0.0:
        raise ValueError("cannot scale a zero field to a positive norm")
    if not math.isfinite(target):
        raise ValueError(f"target norm must be finite, got {target!r}")
    return f * (target / current)
