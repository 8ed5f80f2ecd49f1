"""Time integration, energy bookkeeping, and weak-form diagnostics.

u_tt = -(-Delta)^s u - grad W(u) is advanced with kick-drift-kick
Stoermer-Verlet. In exterior-dirichlet mode each step projects the new u
and v onto the states that vanish outside Omega (+0 or -0 off
``domain.interior``), so the map is plain Verlet on that subspace:
symplectic and time-reversible. W acts on Omega alone. ``step`` and
``force`` take a state as the full box or as its lines block
(:meth:`Domain.layout`) and return the layout they were given. Per step,
:func:`simulate` calls this module's ``step`` once, ``step`` calls its
``force`` twice (with three positional arguments where it records
nothing), and each ``force`` calls its ``apply_fractional_laplacian`` once
and ``potential.grad`` at most once: wrappers of these names see every
step, transform and gradient of a run. README's "Numerical scheme in
brief" explains the lines block, the stored stacks, the packed snapshots
and the seminorm a step carries to the energy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .potentials import Potential
from .spectral import (
    Domain,
    GridMismatchError,
    ParameterError,
    SpectralOperator,
    _as_tuple,
    _placed,
    _whole,
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
    its time ``t``, ``max_abs`` = max |u| of the last finite state and
    ``index``, the full-box grid index where it sits (with the component
    last when m >= 2), and ``energy``, the latest finite total energy: that
    of the last finite state, or, where that overflows (it is quadratic in
    u, so it does long before u does), that of the latest recorded
    snapshot.
    """

    def __init__(self, message: str, step: int | None = None,
                 t: float | None = None, energy: float | None = None,
                 max_abs: float | None = None, index: tuple | None = None):
        super().__init__(message)
        self.step = step
        self.t = t
        self.energy = energy
        self.max_abs = max_abs
        self.index = index


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
        # fills __dict__ as the frozen __init__ does, less its object.__setattr__ calls
        e = object.__new__(EnergyBreakdown)
        e.__dict__.update(kinetic=kinetic, elastic=elastic, adhesive=adhesive,
                          total=kinetic + elastic + adhesive)
        return e


def stability_limit(op: SpectralOperator, potential: Potential) -> float:
    """Largest stable step 2 / sqrt(lambda_max + L_gradW) for the scheme."""
    lam, lip = float(np.max(op.symbol)), potential.grad_lipschitz
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
        self.record_every = _whole(self.record_every, "record_every", SimConfigError)
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
    """Recorded states, aligned times, and energy series of one run.

    ``states`` holds one state per recorded time, each with ``t``, ``u``
    and ``v`` read as full boxes, every bit: :class:`FieldState` objects,
    or, where :func:`simulate` runs exterior-dirichlet with d > 1, packed
    snapshots. ``stored_u``, where :func:`simulate` sets it, holds the
    stacks whose rows the states' ``u`` are.
    """

    config: SimConfig
    times: np.ndarray
    states: list[FieldState | _Packed]
    energies: list[EnergyBreakdown]
    stored_u: list[np.ndarray] = field(default_factory=list)

    @property
    def totals(self) -> np.ndarray:
        return np.array([e.total for e in self.energies])

    def max_abs_series(self) -> np.ndarray:
        return np.concatenate([np.max(np.abs(us).reshape(len(us), -1), axis=1)
                               for us in self.u_stacks()])

    def u_stacks(self):
        """The recorded ``u`` as full boxes along a new leading axis, in the
        stacks of :func:`stack_size` snapshots that :func:`simulate`
        evaluates: ``stored_u`` itself where it is set."""
        if self.stored_u:
            yield from self.stored_u
            return
        k = stack_size(FieldState(self.config.u0, self.config.v0))
        for i in range(0, len(self.states), k):
            us = [st.u for st in self.states[i:i + k]]
            yield us[0][None] if len(us) == 1 else np.stack(us)  # a lone field: a view


_SIGN_BYTE = 7 if sys.byteorder == "little" else 0  # of a float64


class _Packed:
    """A recorded lines-block state as :func:`simulate` keeps it: Omega's
    block of ``u`` and of ``v`` and ``np.packbits`` of the sign bits of each
    lines block (:meth:`Domain.layout`), +0 or -0 off Omega. ``u`` and ``v``
    each build that field's full box when read, from the initial data for
    the first snapshot and from +0, as :func:`step` leaves it, for later
    ones."""

    __slots__ = ("t", "_config", "_first", "_u", "_v", "_u_signs", "_v_signs")

    def __init__(self, state: FieldState, config: SimConfig, first: bool):
        inner = config.domain.layout(state.u).inner
        self.t, self._config, self._first = state.t, config, first
        self._u, self._v = state.u[inner].copy(), state.v[inner].copy()
        self._u_signs = np.packbits(np.signbit(state.u))
        self._v_signs = np.packbits(np.signbit(state.v))

    @property
    def u(self) -> np.ndarray:
        return self._box(self._config.u0, self._u, self._u_signs)

    @property
    def v(self) -> np.ndarray:
        return self._box(self._config.v0, self._v, self._v_signs)

    def _box(self, initial: np.ndarray, on_omega: np.ndarray,
             signs: np.ndarray) -> np.ndarray:
        out = initial.copy() if self._first else np.zeros_like(initial)
        block = out[self._config.domain.interior_lines]
        # +0 or -0 on Omega's lines: each stored bit shifted into the top bit
        # of its value's sign byte, whose other bytes are 0 off Omega
        np.left_shift(np.unpackbits(signs, count=block.size).reshape(block.shape),
                      7, out=block.view(np.uint8)[..., _SIGN_BYTE::8])
        block[self._config.domain.layout(block).inner] = on_omega
        return out


def force(op: SpectralOperator, potential: Potential, u: np.ndarray,
          seminorms: list | None = None) -> np.ndarray:
    """-(-Delta)^s u - grad W(u) for a ``u`` given as a full box or as its
    lines block (:meth:`Domain.layout`).

    On Omega this is the full force; elsewhere it holds the nonlocal term
    alone, since W acts on Omega only. Returns a new array in ``u``'s
    layout that the caller may overwrite. For a ``u`` that vanishes off
    Omega's grid lines the block's force equals the full box's on them bit
    for bit. A list passed as ``seminorms`` gets the squared order-s
    seminorm of ``u`` appended, from the transform's own spectrum (see
    :func:`~adwave.spectral.apply_fractional_laplacian`).
    """
    f = apply_fractional_laplacian(op, u, seminorms=seminorms)
    np.negative(f, out=f)
    if potential.bound:  # else grad W is +0, and f - (+0) is f bit for bit
        inner = op.domain.layout(u).inner
        on_omega = f[inner]
        on_omega -= potential.grad(u[inner])
    return f


def step(state: FieldState, op: SpectralOperator, potential: Potential, dt: float, *,
         seminorms: list | None = None, out: tuple | None = None) -> FieldState:
    """One kick-drift-kick step; projects onto the exterior constraint.

    ``state`` holds full boxes or lines blocks (:meth:`Domain.layout`), and
    the new state comes in the same layout. The kicks, the drift, the
    projection and the finite check of the new v run on Omega's grid lines
    ``[domain.interior_lines]`` only, whatever values ``force`` returns off
    them; a full-box new state holds +0 off those lines. ``state`` is not
    written to. A list passed as ``seminorms`` gets the squared order-s
    seminorm of the new ``u`` appended, which the second kick's force takes
    from its spectrum: ``seminorms_sq`` of that ``u`` bit for bit. ``out``,
    two lines-block arrays, receives the new u and v.
    """
    lines, collar = op.domain.layout(state.u).lines, op.domain._collar
    half, whole, zero = _scalars(dt)
    u, v = (state.u[lines], state.v[lines]) if lines else (state.u, state.v)
    vh = force(op, potential, u)
    vh *= half
    vh += v
    u1 = np.multiply(vh, whole, out=None if out is None else out[0])
    u1 += u
    for slab in collar:  # times 0.0, which keeps the sign of a zero and NaN
        edge = u1[slab]  # a view: u1[slab] *= 0.0 would also write it back
        edge *= zero
    # a step that records nothing keeps force's three-argument call, which
    # a substitute force with that signature still serves
    v1 = force(op, potential, u1) if seminorms is None else force(op, potential, u1, seminorms)
    v1 *= half
    v1 = np.add(v1, vh, out=v1 if out is None else out[1])
    for slab in collar:
        edge = v1[slab]
        edge *= zero
    # v1 . v1 is finite unless a value is not or the sum overflows: one call, not two
    if not math.isfinite(np.vdot(v1, v1)) and not np.isfinite(v1).all():
        raise BlowUpError("non-finite field values during time step")
    if lines:  # a full box
        u1, v1 = _placed(u1, lines, state.u.shape), _placed(v1, lines, state.u.shape)
    return FieldState(u1, v1, state.t + dt)


@lru_cache(maxsize=16)
def _scalars(dt: float) -> tuple[np.ndarray, ...]:
    # 0.5 * dt, dt and 0.0 as 0-d arrays: a field's product with one skips
    # NumPy's Python-scalar path (0.3 us of a 1-D product), with the same bits
    return np.array(0.5 * dt), np.array(dt, dtype=float), np.zeros(())


def energy(op: SpectralOperator, potential: Potential,
           state: FieldState) -> EnergyBreakdown:
    """Energy of a state: kinetic + elastic + adhesive over Omega."""
    return energies(op, potential, state.u[None], state.v[None])[0]


def energies(op: SpectralOperator, potential: Potential, us: np.ndarray, vs: np.ndarray,
             *, seminorms: list[float] | None = None) -> list[EnergyBreakdown]:
    """Energies of the states whose ``u`` and ``v`` are the rows of the
    equally shaped stacks ``us`` and ``vs`` (nonempty, C-contiguous),
    evaluated in place: one transform of ``us``, one ``potential.value``
    and one row sum per term. Each equals the energy of its state alone,
    bit for bit. ``seminorms``, the squared order-s seminorms of the rows
    of ``us`` as :func:`step` hands them out, replaces the transform."""
    dom = op.domain
    inner = dom.layout(us[0]).inner
    # summed over the full box: over the lines alone, numpy's pairwise sum
    # would group the terms otherwise and change the bits
    kin = row_sums(_placed(vs * vs, (slice(None),) + dom.interior_lines,
                           vs.shape[:1] + dom.n + vs.shape[1 + dom.d:]))
    ela = seminorms_sq(op, us) if seminorms is None else seminorms
    adh = row_sums(potential.value(us[(slice(None),) + inner]))
    cv = dom.cell_volume
    # math.sqrt, max and * value by value, the same IEEE operations; ** 2 stays Python's
    return [EnergyBreakdown.of(0.5 * k ** 2, 0.5 * e ** 2, a) for k, e, a in
            zip(np.sqrt(kin * cv).tolist(), np.sqrt(np.maximum(ela, 0.0)).tolist(),
                (adh * cv).tolist())]


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

    The recorded snapshots are made in batches of :func:`stack_size`, one
    stack each, whose energies :func:`energies` takes in place when the
    batch is done. A batch of more than one snapshot is made in the rows
    of a pair of stacks (``step``'s ``out``); a snapshot that stands alone
    keeps its step's arrays and, but the initial one, takes its elastic
    energy from that step's spectrum (``seminorms``). The state is advanced
    as its lines block (:meth:`Domain.layout`), which is the full box
    unless the mode is exterior-dirichlet with d > 1; there a snapshot is
    packed once its energy is taken (:class:`_Packed`), else the trajectory
    keeps the stacks (``Trajectory.stored_u``). Overflow and invalid values
    raise no numpy warning during the run; a non-finite state raises
    :class:`BlowUpError`.
    """
    op = build_operator(config.domain)
    potential, dt, every = config.potential, config.dt, config.record_every
    nsteps, lines = config.nsteps, config.domain.interior_lines
    u0, v0 = config.u0[lines], config.v0[lines]
    per_stack = stack_size(FieldState(config.u0, config.v0))
    count = 2 + (nsteps - 1) // every  # snapshots: t = 0, every record_every-th step, T
    # a lines block that is not the box is kept packed once its energy is taken
    packed = u0.shape != config.u0.shape
    states, recorded, stored, done = [], [], [], 0  # recorded: energies so far; done: steps
    # once per run: entered per step, it would cost about 1 us a step
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for first in range(0, count, per_stack):
                # the batch's one decision: its record steps write into a stack's
                # rows, or a lone snapshot keeps its step's arrays and, past t = 0, its seminorm
                size = min(per_stack, count - first)
                rows = None if per_stack == 1 else (np.empty((size,) + u0.shape),
                                                    np.empty((size,) + v0.shape))
                carried = [] if rows is None and first else None
                batch = []
                for k, out in enumerate([None] if rows is None else zip(*rows), first):
                    mark = min(k * every, nsteps)
                    if k == 0:  # the initial data, copied
                        state = FieldState(*(out or (np.empty_like(u0), np.empty_like(v0))))
                        np.copyto(state.u, u0)
                        np.copyto(state.v, v0)
                    for i in range(done + 1, mark + 1):
                        state = step(state, op, potential, dt,
                                     seminorms=carried if i == mark else None,
                                     out=out if i == mark else None)
                        state.t = i * dt
                    done = mark
                    batch.append(state)
                rows = rows or (state.u[None], state.v[None])
                recorded += energies(op, potential, *rows, seminorms=carried)
                if packed:
                    states += [_Packed(st, config, j == 0) for j, st in enumerate(batch, first)]
                else:
                    states += batch
                    stored.append(rows[0])
        except BlowUpError:  # state: the last finite one; i: the step that failed
            raise _blow_up(op, config, state, i, recorded, rows, len(batch)) from None
    return Trajectory(config, np.array([st.t for st in states]), states, recorded, stored)


def _blow_up(op: SpectralOperator, config: SimConfig, state: FieldState, i: int,
             recorded: list, rows: tuple | None, filled: int) -> BlowUpError:
    """The :class:`BlowUpError` that :func:`simulate` raises when step ``i``
    fails; ``state`` is the last finite state, as its lines block. The
    ``filled`` first rows of the batch's stacks ``rows`` are evaluated
    first, so that the energy can fall back on the latest finite one of
    every snapshot recorded (``recorded`` holds the others')."""
    if filled:
        recorded = recorded + energies(op, config.potential, rows[0][:filled], rows[1][:filled])
    t = i * config.dt
    with np.errstate(all="ignore"):
        last = energy(op, config.potential, state).total
    if not math.isfinite(last):
        last = next((e.total for e in reversed(recorded) if math.isfinite(e.total)), last)
    mag = np.abs(state.u)
    at = [int(k) for k in np.unravel_index(int(np.argmax(mag)), mag.shape)]
    max_abs = float(mag[tuple(at)])
    for ax, sl in enumerate(config.domain.interior_lines):  # a block starts at Omega's lines
        at[ax] += sl.indices(config.domain.n[ax])[0]
    return BlowUpError(f"blow-up at step {i} (t = {t:g})", step=i, t=t, energy=last,
                       max_abs=max_abs, index=tuple(at))


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
    shape = traj.config.u0.shape
    tests = []  # (test field, psi, (-Delta)^s psi, psi on Omega)
    for tf in test_fields:
        psi = np.asarray(tf.psi, dtype=float)
        dom.field_components(psi)
        if not dom.vanishes_off_omega(psi):
            raise ValueError("test field must be supported in Omega")
        if psi.shape != shape:
            raise GridMismatchError("inner product requires matching field shapes")
        lpsi = apply_fractional_laplacian(op, psi[dom.interior_lines])
        tests.append((tf, psi, _placed(lpsi, dom.interior_lines, shape), psi[dom.interior]))
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
    ``center`` defaults to Omega's centre; a per-axis sequence of the wrong
    length raises :class:`~adwave.spectral.ParameterError` naming it.
    """
    if not 0 < width_frac <= 1:
        raise ValueError("width_frac must lie in (0, 1]")
    bounds = domain.omega_bounds
    centers = ([0.5 * (lo + hi) for lo, hi in bounds] if center is None
               else _as_tuple(center, domain.d, float, "center"))
    out = None
    for (lo, hi), c, x in zip(bounds, centers, domain.grids()):
        half = 0.5 * width_frac * (hi - lo)
        t = (x - c) / half
        with np.errstate(divide="ignore", over="ignore"):
            w = np.where(np.abs(t) < 1.0,
                         np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
        out = w if out is None else out * w
    return amplitude * out


def sine_field(domain: Domain, k=1, amplitude: float = 1.0) -> np.ndarray:
    """Single periodic Fourier mode prod_i sin(2 pi k_i x_i / L_i); ``k`` is
    one whole number for every axis or one per axis (a fraction, or a sequence
    of the wrong length, raises :class:`~adwave.spectral.ParameterError`)."""
    grids = domain.grids()
    out = np.ones(domain.n)
    for ki, L, x in zip(_as_tuple(k, domain.d, int, "k"), domain.box_extent, grids):
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
