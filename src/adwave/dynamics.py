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

Recorded snapshots are evaluated in stacks of up to :data:`STACK_BYTES` of
(u, v): :func:`energies` takes a stack's energies with one transform, one
``potential.value`` and one row sum per term, and :func:`weak_residual`
reads the snapshots in the same stacks. On the experiments' 1-D grids a
transform or potential call costs several times its arithmetic in dispatch,
and the stacks pay it once per few hundred snapshots; a 2-D 128^2 snapshot
or larger is evaluated alone at its record step, with no extra copy. Every
value equals the one-state one bit for bit.
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
    GridMismatchError,
    ParameterError,
    SpectralOperator,
    _fitted,
    _placed,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
    hs_norm,
    l2_inner,
    l2_norm,
    row_sums,
    seminorms_sq,
)


class SimConfigError(ParameterError):
    """An invalid :class:`SimConfig` parameter."""


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


def fitted_dt(T: float, dt_max: float) -> float:
    """Largest dt <= dt_max that splits T into whole steps; T if no finite count does."""
    steps = T / dt_max if dt_max > 0 else math.inf
    return T / max(1, math.ceil(steps - 1e-12)) if steps < math.inf else T


@dataclass
class SimConfig:
    """Fully validated description of one simulation run.

    ``dt`` must split ``T`` into a whole number of steps, to a relative
    1e-9, so that the run ends at ``T``; :func:`fitted_dt` picks such a step
    below a bound. ``dt=None`` is the auto step, ``fitted_dt(T, cfl_safety *
    stability_limit(op, potential))``, taken once ``T`` and ``cfl_safety``
    are checked. Invalid parameters raise :class:`SimConfigError`.
    """

    domain: Domain
    potential: Potential
    T: float
    dt: float | None
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
        if not 0 < self.cfl_safety <= 1:
            raise SimConfigError("cfl_safety", "cfl_safety must lie in (0, 1]")
        limit = self.cfl_safety * stability_limit(build_operator(self.domain),
                                                  self.potential)
        if self.dt is None:
            self.dt = fitted_dt(self.T, limit)
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
        for label, f in (("u0", self.u0), ("v0", self.v0)):
            if not self.domain.vanishes_off_omega(f):
                raise SimConfigError(label, f"{label} must vanish outside Omega")
        if self.enforce_cfl and self.dt > limit * (1 + 1e-12):
            raise SimConfigError("dt", f"dt = {self.dt:g} exceeds the stability bound "
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

    def max_abs(self) -> float:
        return float(np.max(self.max_abs_series()))

    def max_abs_series(self) -> np.ndarray:
        return np.array([float(np.max(np.abs(st.u))) for st in self.states])

    def u_stacks(self):
        """The recorded ``u`` along a new leading axis, in the stacks of
        :func:`stack_size` snapshots that :func:`simulate` evaluates."""
        k = stack_size(self.states[0])
        for i in range(0, len(self.states), k):
            yield _stacked([st.u for st in self.states[i:i + k]])


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
    u1_box = _placed(u1, lines, state.u.shape) if lines else u1
    v1 = force(op, potential, u1_box)
    if lines:
        v1 = v1[lines]
    v1 *= 0.5 * dt
    v1 += vh
    if mask is not None:
        v1 *= mask
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        raise BlowUpError("non-finite field values during time step")
    v1_box = _placed(v1, lines, state.u.shape) if lines else v1
    return FieldState(u1_box, v1_box, state.t + dt)


def energy(op: SpectralOperator, potential: Potential,
           state: FieldState) -> EnergyBreakdown:
    """Energy of a state: kinetic + elastic + adhesive over Omega."""
    return energies(op, potential, [state])[0]


def energies(op: SpectralOperator, potential: Potential,
             states: list[FieldState]) -> list[EnergyBreakdown]:
    """Energies of a nonempty list of equally shaped states, evaluated as
    one stack: one transform of the stacked ``u``, one ``potential.value``
    and one row sum per term. Each equals the energy of its state alone,
    bit for bit; a lone state is viewed as a stack, not copied."""
    dom = op.domain
    us, vs = _stacked([st.u for st in states]), _stacked([st.v for st in states])
    kin = row_sums(vs * vs)
    ela = seminorms_sq(op, us, in_omega=True)
    adh = row_sums(potential.value(us[(slice(None),) + dom.interior]))
    cv = dom.cell_volume
    return [EnergyBreakdown.of(0.5 * math.sqrt(float(k) * cv) ** 2,
                               0.5 * math.sqrt(max(e, 0.0)) ** 2, float(a) * cv)
            for k, e, a in zip(kin, ela, adh)]


def _stacked(fields: list[np.ndarray]) -> np.ndarray:
    """``fields`` along a new leading axis; a view of a lone field."""
    return fields[0][None] if len(fields) == 1 else np.stack(fields)


# bytes of (u, v) per stack of recorded snapshots: 1-D snapshots of 32 to 256
# points stack by the hundreds, a 2-D 128^2 one or larger stands alone, and a
# stack with its spectrum stays within a core's L2 cache
STACK_BYTES = 1 << 18


def stack_size(state: FieldState) -> int:
    """How many snapshots shaped like ``state`` fill one stack of
    :data:`STACK_BYTES`; at least 1."""
    return max(1, STACK_BYTES // (state.u.nbytes + state.v.nbytes))


def simulate(config: SimConfig) -> Trajectory:
    """Integrate to T, recording a snapshot every ``record_every`` steps.

    Recorded energies are evaluated by :func:`energies` in stacks of
    :func:`stack_size` snapshots: when a stack is full, at the end, and at
    a blow-up.
    """
    op = build_operator(config.domain)
    nsteps = config.nsteps
    # step never writes into its input, so recorded states need no copies
    state = FieldState(config.u0.copy(), config.v0.copy(), 0.0)
    times, states, recorded = [], [], []  # recorded: the energies evaluated so far
    per_stack = stack_size(state)

    def flush():
        if len(recorded) < len(states):
            recorded.extend(energies(op, config.potential, states[len(recorded):]))

    def record(st: FieldState):
        times.append(st.t)
        states.append(st)
        if len(states) - len(recorded) == per_stack:
            flush()

    record(state)
    for i in range(1, nsteps + 1):
        try:
            nxt = step(state, op, config.potential, config.dt)
        except BlowUpError:
            flush()
            t = i * config.dt
            with np.errstate(all="ignore"):
                last = energy(op, config.potential, state).total
            if not math.isfinite(last):
                last = next((e.total for e in reversed(recorded)
                             if math.isfinite(e.total)), last)
            raise BlowUpError(f"blow-up at step {i} (t = {t:g})", step=i, t=t,
                              energy=last,
                              max_abs=float(np.max(np.abs(state.u)))) from None
        state = nxt
        state.t = i * config.dt
        if i % config.record_every == 0 or i == nsteps:
            record(state)
    flush()
    return Trajectory(config, np.array(times), states, recorded)


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
    """Embedding bound on max|u|: constant times the largest H^s norm seen,
    read from the recorded energies with no transform: the elastic term is
    half the squared order-s seminorm, so H^s^2 = L2^2 + 2 * elastic."""
    dom = traj.config.domain
    const = embedding_constant(dom.d, dom.s)
    return const * max(math.sqrt(l2_norm(dom, st.u) ** 2 + 2.0 * e.elastic)
                       for st, e in zip(traj.states, traj.energies))


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
    grad W(u) enters on the interior block only. Snapshots are read in the
    stacks of :meth:`Trajectory.u_stacks`, with one ``potential.grad`` per
    stack for every test field.
    """
    dom = traj.config.domain
    op = build_operator(dom)
    shape = traj.states[0].u.shape
    tests = []  # (test field, psi, (-Delta)^s psi, psi on Omega)
    for tf in test_fields:
        psi = np.asarray(tf.psi, dtype=float)
        dom.field_components(psi)
        if not dom.vanishes_off_omega(psi):
            raise ValueError("test field must be supported in Omega")
        if psi.shape != shape:
            raise GridMismatchError("inner product requires matching field shapes")
        tests.append((tf, psi, apply_fractional_laplacian(op, psi, in_omega=True),
                      psi[dom.interior]))
    # per test field, the per-snapshot sums of <u, psi>, <u, lpsi>, <grad W(u), psi>
    sums = [([], [], []) for _ in tests]
    for us in traj.u_stacks():
        grads = potential.grad(us[(slice(None),) + dom.interior])
        for (_, psi, lpsi, psi_in), (a, b, c) in zip(tests, sums):
            a.append(row_sums(us * psi))
            b.append(row_sums(us * lpsi))
            c.append(row_sums(grads * psi_in))
    times = traj.times
    T = float(times[-1])
    out = []
    for (tf, psi, _, _), parts in zip(tests, sums):
        a, b, c = (np.concatenate(p) * dom.cell_volume for p in parts)
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
    states = [FieldState(u.copy(), v.copy(), float(t)) for t in times]
    energies = [energy(build_operator(domain), potential, states[0])] * len(times)
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
