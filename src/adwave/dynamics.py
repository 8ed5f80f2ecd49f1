"""Time integration, energy bookkeeping, and weak-form diagnostics.

The second-order system u_tt = -(-Delta)^s u - grad W(u) is advanced with a
Stoermer-Verlet (kick-drift-kick) scheme. In exterior-dirichlet mode the
position update is followed by the exterior projection and the second kick
uses the projected state, which makes the map identical to plain Verlet on
the constrained subspace: it stays symplectic there, exactly
time-reversible, and keeps every recorded snapshot supported in Omega.
The blow-up check reads the new v alone, after the second kick: a
non-finite value anywhere in the new u makes the second force's zero
frequency NaN (the symbol is 0 there), which the inverse transform adds
into every v. ``bound`` caps |grad W|, so ``force`` makes no ``grad`` call
for a bound-0 potential such as the free wave's: subtracting +0 would
leave every bit as it is, -0 and NaN included.

Exterior contract: u vanishes outside Omega: it is +0 or -0 at every point
off ``domain.interior_mask``, a set that is empty unless the mode is
exterior-dirichlet, so one check serves every mode. W models the adhesive
layer on Omega, so grad W(u) and W(u) are evaluated on the interior block
``u[domain.interior]`` only. A field's layout is the only promise the
transforms of :mod:`adwave.spectral` read: ``step`` hands ``force`` the
lines block ``[domain.interior_lines]``, the lines along the last spatial
axis through Omega, and kicks, drifts and projects on those lines alone.
On their points outside Omega the force holds the nonlocal term
-(-Delta)^s u alone, which the step's projection discards (a negative value
leaves -0 there); off them a new state is +0.

A state comes in either of two layouts (:meth:`Domain.layout`): the full
box, or its lines block ``u[domain.interior_lines]``, which is all a state
that vanishes off those lines needs. ``step``, ``force`` and ``energies``
take either and return the layout they were given. :func:`simulate`
advances the lines block. Once a snapshot's energies are taken, it keeps
that snapshot as Omega's block of u and v plus the sign bits of each lines
block: off Omega a recorded field is +0 or -0, and the projection's -0
shows in ``trajectory.csv``. :attr:`Trajectory.states` (and
:attr:`Trajectory.us`, u alone) expands a snapshot to the full box only
when it is read. In periodic and neumann-1d mode, and at d = 1, the block
is the box, and snapshots are kept as they are.

Recorded snapshots are evaluated in stacks of up to :data:`STACK_BYTES` of
(u, v): :func:`energies` takes a stack's energies with one transform, one
``potential.value`` and one row sum per term, and :func:`weak_residual`
reads the snapshots in the same stacks. On the experiments' 1-D grids a
transform or potential call costs several times its arithmetic in dispatch,
and the stacks pay it once per few hundred snapshots; a 2-D 128^2 snapshot
or larger is evaluated alone at its record step, with no extra copy and,
after the first, no transform: its elastic term is the Parseval sum of
the spectrum the second kick of its step took of the same u (``step``'s
``seminorms``). Every value equals the one-state one bit for bit.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .potentials import Potential
from .spectral import (
    Domain,
    GridMismatchError,
    ParameterError,
    SpectralOperator,
    _as_tuple,
    _placed,
    _times_grid,
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
    """Recorded snapshots, aligned times, and energy series of one run.

    ``snapshots`` holds the recorded states as full boxes, or, as
    :func:`simulate` stores an exterior-dirichlet run with d > 1, packed:
    Omega's block of ``u`` and of ``v`` and the sign bits of each lines
    block (:meth:`Domain.layout`). Off Omega a recorded field is +0 or -0,
    and only its sign is kept, one bit per value. :attr:`states` and
    :attr:`us` give them as full boxes, expanded on access: the first
    snapshot, the initial state, starts from the initial data (its own +0
    or -0 off Omega's lines) and later ones from +0, as :func:`step` leaves
    them; the stored signs then go on Omega's lines and the Omega block in
    its place.
    """

    config: SimConfig
    times: np.ndarray
    snapshots: list[FieldState | _Packed]
    energies: list[EnergyBreakdown]

    @property
    def states(self) -> Sequence[FieldState]:
        """The snapshots as full-box states: ``snapshots`` itself when they
        are full boxes, else a sequence that expands each when read."""
        if isinstance(self.snapshots[0], FieldState):
            return self.snapshots
        cfg = self.config

        def state(i):
            p = self.snapshots[i]
            return FieldState(self._box(i, cfg.u0, p.u, p.u_signs),
                              self._box(i, cfg.v0, p.v, p.v_signs), p.t)

        return _Expanded(len(self.snapshots), state)

    @property
    def us(self) -> Sequence[np.ndarray]:
        """The recorded ``u`` alone as full boxes, expanded when read like
        :attr:`states`, which also expands ``v``."""
        if isinstance(self.snapshots[0], FieldState):
            return [st.u for st in self.snapshots]
        return _Expanded(len(self.snapshots), lambda i: self._box(
            i, self.config.u0, self.snapshots[i].u, self.snapshots[i].u_signs))

    def _box(self, i: int, initial: np.ndarray, on_omega: np.ndarray,
             signs: np.ndarray) -> np.ndarray:
        """Snapshot ``i``'s field as a full box, from its Omega block and
        the packed sign bits of its lines block."""
        out = initial.copy() if i == 0 else np.zeros_like(initial)
        block = out[self.config.domain.interior_lines]
        # +0 or -0 on Omega's lines: each stored bit shifted into the sign bit
        np.left_shift(np.unpackbits(signs, count=block.size).reshape(block.shape),
                      np.uint64(63), out=block.view(np.uint64))
        block[self.config.domain.layout(block).inner] = on_omega
        return out

    @property
    def totals(self) -> np.ndarray:
        return np.array([e.total for e in self.energies])

    def max_abs_series(self) -> np.ndarray:
        # off Omega a snapshot is zero, so its stored part holds the maximum
        return np.array([float(np.max(np.abs(st.u))) for st in self.snapshots])

    def u_stacks(self):
        """The recorded ``u`` as full boxes along a new leading axis, in the
        stacks of :func:`stack_size` snapshots that :func:`simulate`
        evaluates."""
        k, us = stack_size(FieldState(self.config.u0, self.config.v0)), self.us
        for i in range(0, len(us), k):
            yield _stacked(us[i:i + k])


class _Packed(NamedTuple):
    """A recorded lines-block state as :func:`simulate` keeps it: the Omega
    block of ``u`` and ``v``, and ``np.packbits`` of each lines block's
    sign bits."""

    u: np.ndarray
    v: np.ndarray
    u_signs: np.ndarray
    v_signs: np.ndarray
    t: float

    @staticmethod
    def of(state: FieldState, inner: tuple) -> "_Packed":
        return _Packed(state.u[inner].copy(), state.v[inner].copy(),
                       np.packbits(np.signbit(state.u)), np.packbits(np.signbit(state.v)),
                       state.t)


class _Expanded(Sequence):
    """``count`` stored snapshots read through ``expand(i)``, one at a time."""

    def __init__(self, count: int, expand: Callable):
        self._count, self._expand = count, expand

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._expand(range(len(self))[i])


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


def step(state: FieldState, op: SpectralOperator, potential: Potential,
         dt: float, *, seminorms: list | None = None) -> FieldState:
    """One kick-drift-kick step; projects onto the exterior constraint.

    ``state`` holds full boxes or lines blocks (:meth:`Domain.layout`), and
    the new state comes in the same layout. The kicks, the drift, the
    projection and the finite check of the new v run on Omega's grid lines
    ``[domain.interior_lines]`` only, whatever values ``force`` returns off
    them; a full-box new state holds +0 off those lines. ``state`` is not
    written to. A list passed as ``seminorms`` gets the squared order-s
    seminorm of the new ``u`` appended, which the second kick's force takes
    from its spectrum: ``seminorms_sq`` of that ``u`` bit for bit.
    """
    lines, _, _, mask = op.domain.layout(state.u)
    u, v = (state.u[lines], state.v[lines]) if lines else (state.u, state.v)
    vh = force(op, potential, u)
    vh *= 0.5 * dt
    vh += v
    u1 = vh * dt
    u1 += u
    if mask is not None:
        _times_grid(u1, mask, out=u1)
    # a step that records nothing keeps force's three-argument call, which
    # a substitute force with that signature still serves
    v1 = force(op, potential, u1) if seminorms is None else force(op, potential, u1, seminorms)
    v1 *= 0.5 * dt
    v1 += vh
    if mask is not None:
        _times_grid(v1, mask, out=v1)
    if not np.logical_and.reduce(np.isfinite(v1), axis=None):
        raise BlowUpError("non-finite field values during time step")
    if lines:  # a full box
        u1, v1 = _placed(u1, lines, state.u.shape), _placed(v1, lines, state.u.shape)
    return FieldState(u1, v1, state.t + dt)


def energy(op: SpectralOperator, potential: Potential,
           state: FieldState) -> EnergyBreakdown:
    """Energy of a state: kinetic + elastic + adhesive over Omega."""
    return energies(op, potential, [state])[0]


def energies(op: SpectralOperator, potential: Potential, states: list[FieldState], *,
             seminorms: list[float] | None = None) -> list[EnergyBreakdown]:
    """Energies of a nonempty list of equally shaped states, evaluated as
    one stack: one transform of the stacked ``u``, one ``potential.value``
    and one row sum per term. Each equals the energy of its state alone,
    bit for bit; a lone state is viewed as a stack, not copied.
    ``seminorms``, the squared order-s seminorms of the states' ``u`` as
    :func:`step` hands them out, replaces the transform."""
    dom = op.domain
    us, vs = _stacked([st.u for st in states]), _stacked([st.v for st in states])
    inner = dom.layout(us[0]).inner
    # summed over the full box: over the lines alone, numpy's pairwise sum
    # would group the terms otherwise and change the bits
    kin = row_sums(_placed(vs * vs, (slice(None),) + dom.interior_lines,
                           vs.shape[:1] + dom.n + vs.shape[1 + dom.d:]))
    ela = seminorms_sq(op, us) if seminorms is None else seminorms
    adh = row_sums(potential.value(us[(slice(None),) + inner]))
    cv = dom.cell_volume
    return [EnergyBreakdown.of(0.5 * math.sqrt(k * cv) ** 2,
                               0.5 * math.sqrt(max(e, 0.0)) ** 2, a * cv)
            for k, e, a in zip(kin.tolist(), ela, adh.tolist())]


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
    a blow-up. Where a stack holds one snapshot, every snapshot but the
    initial one takes its elastic energy from the spectrum of the step
    that made it (``step``'s ``seminorms``). The state is advanced as its
    lines block (:meth:`Domain.layout`), which is the full box unless the
    mode is exterior-dirichlet with d > 1; there a snapshot is packed once
    its energy is taken (:class:`Trajectory`). Overflow and invalid values
    raise no numpy warning during the run; a non-finite state raises
    :class:`BlowUpError`.
    """
    op = build_operator(config.domain)
    potential, dt, every = config.potential, config.dt, config.record_every
    nsteps, lines = config.nsteps, config.domain.interior_lines
    # step never writes into its input, so recorded states need no copies
    state = FieldState(config.u0[lines].copy(), config.v0[lines].copy(), 0.0)
    times, snapshots, recorded = [], [], []  # recorded: the energies evaluated so far
    per_stack = stack_size(FieldState(config.u0, config.v0))
    # a lines block that is not the box is kept packed once its energy is taken
    packed = state.u.shape != config.u0.shape
    inner = config.domain.layout(state.u).inner

    def flush(seminorms=None):
        done = len(recorded)
        if done < len(snapshots):
            recorded.extend(energies(op, potential, snapshots[done:], seminorms=seminorms))
            if packed:
                snapshots[done:] = [_Packed.of(st, inner) for st in snapshots[done:]]

    def record(st: FieldState, seminorms=None):
        times.append(st.t)
        snapshots.append(st)
        if len(snapshots) - len(recorded) == per_stack:
            flush(seminorms)

    # once per run: entered per step, it would cost about 1 us a step
    with np.errstate(over="ignore", invalid="ignore"):
        record(state)
        for i in range(1, nsteps + 1):
            recording = i % every == 0 or i == nsteps
            # a snapshot that stands alone takes its elastic energy from its step
            carried = [] if recording and per_stack == 1 else None
            try:
                nxt = step(state, op, potential, dt, seminorms=carried)
            except BlowUpError:
                flush()
                t = i * dt
                with np.errstate(all="ignore"):
                    last = energy(op, potential, state).total
                if not math.isfinite(last):
                    last = next((e.total for e in reversed(recorded)
                                 if math.isfinite(e.total)), last)
                mag = np.abs(state.u)
                at = [int(k) for k in np.unravel_index(int(np.argmax(mag)), mag.shape)]
                max_abs = float(mag[tuple(at)])
                for ax, sl in enumerate(lines):  # a lines block starts at Omega's lines
                    at[ax] += sl.indices(config.domain.n[ax])[0]
                raise BlowUpError(f"blow-up at step {i} (t = {t:g})", step=i, t=t,
                                  energy=last, max_abs=max_abs, index=tuple(at)) from None
            state = nxt
            state.t = i * dt
            if recording:
                record(state, carried)
        flush()
    return Trajectory(config, np.array(times), snapshots, recorded)


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
    return const * max(math.sqrt(l2_norm(dom, u) ** 2 + 2.0 * e.elastic)
                       for u, e in zip(traj.us, traj.energies))


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
    one integer for every axis or one per axis (a sequence of the wrong
    length raises :class:`~adwave.spectral.ParameterError` naming it)."""
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
