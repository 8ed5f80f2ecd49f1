"""Independent oracles used by the test suite.

Everything here is built from first principles (explicit DFT matrices,
closed-form antiderivatives, generic quadrature, one CSV cell at a time,
the full-box time step) and never calls the package code they check, so
agreement is a genuine cross-check.
"""
import math

import numpy as np
from scipy import fft, integrate

from adwave.reporting import fmt
from adwave.spectral import (
    EXTERIOR_DIRICHLET,
    NEUMANN_1D,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
    hs_norm,
    l2_inner,
    l2_norm,
    seminorm_s,
)


def dft_matrix(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def dense_operator_1d(n: int, symbol: np.ndarray) -> np.ndarray:
    """Explicit n x n matrix of inverse-DFT * diag(symbol) * DFT."""
    F = dft_matrix(n)
    Finv = np.conj(F) / n
    return np.real(Finv @ np.diag(symbol) @ F)


def dense_operator_2d(shape, symbol: np.ndarray) -> np.ndarray:
    """Dense matrix over row-major flattened 2-d grids."""
    n0, n1 = shape
    F = np.kron(dft_matrix(n0), dft_matrix(n1))
    Finv = np.conj(F) / (n0 * n1)
    return np.real(Finv @ np.diag(symbol.ravel()) @ F)


def fractional_laplacian_oracle(op, f: np.ndarray) -> np.ndarray:
    """(-Delta)^s f through scipy's multi-axis ``rfftn``/``irfftn`` with the
    half-spectrum symbol and one 1/N scaling at the end (the cosine
    transform in neumann-1d mode): the full-box path that the per-axis
    passes replaced."""
    dom = op.domain
    sym = op.symbol if f.ndim == dom.d else op.symbol[..., None]
    if dom.boundary_mode == NEUMANN_1D:
        coeff = fft.dct(f, type=2, axis=0, norm="ortho")
        return fft.idct(sym * coeff, type=2, axis=0, norm="ortho")
    axes = tuple(range(dom.d))
    half = sym[(slice(None),) * (dom.d - 1) + (slice(dom.n[-1] // 2 + 1),)]
    return fft.irfftn(half * fft.rfftn(f, axes=axes), s=dom.n, axes=axes)


def embedding_integral(d: int, s: float) -> float:
    """I(d, s) = integral of (1 + |xi|^s)^(-2) over R^d by direct quadrature."""
    sphere = 2.0 * np.pi ** (d / 2.0) / math.gamma(d / 2.0)
    radial, _ = integrate.quad(lambda r: r ** (d - 1) / (1.0 + r ** s) ** 2,
                               0.0, np.inf, limit=400)
    return sphere * radial


def embedding_constant_oracle(d: int, s: float) -> float:
    return np.sqrt(2.0) * (2.0 * np.pi) ** (-d / 2.0) * np.sqrt(embedding_integral(d, s))


def central_difference_gradient(fn, y, h: float = 1e-5) -> np.ndarray:
    """Componentwise central differences of a scalar function of R^m."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape == ():
        return (fn(y + h) - fn(y - h)) / (2.0 * h)
    out = np.zeros_like(y)
    for i in range(y.shape[-1]):
        e = np.zeros_like(y)
        e[..., i] = h
        out[..., i] = (fn(y + e) - fn(y - e)) / (2.0 * h)
    return out


def trajectory_csv_oracle(traj) -> str:
    """Text of trajectory.csv built cell by cell: the header, then one
    ``t,idx0,...,comp,value`` row per snapshot, grid point (``np.ndindex``
    order) and component, every cell formatted with ``fmt``."""
    dom = traj.config.domain
    m = dom.field_components(traj.states[0].u)
    lines = [",".join(["t", *(f"idx{i}" for i in range(dom.d)), "comp", "value"])]
    for t, st in zip(traj.times, traj.states):
        u = st.u if m > 1 else st.u[..., None]
        for idx in np.ndindex(*dom.n):
            for comp in range(m):
                row = (t, *idx, comp, float(u[idx + (comp,)]))
                lines.append(",".join(fmt(x) for x in row))
    return "".join(line + "\n" for line in lines)


def interior_mask_oracle(domain) -> np.ndarray:
    """Boolean grid of the points strictly inside Omega, one axis at a time
    from the sample coordinates; all True unless exterior-dirichlet."""
    mask = np.ones(domain.n, dtype=bool)
    if domain.boundary_mode != EXTERIOR_DIRICHLET:
        return mask
    for ax, (x, (lo, hi)) in enumerate(zip(domain.axes(), domain.omega_bounds)):
        shape = [1] * domain.d
        shape[ax] = domain.n[ax]
        mask &= ((x > lo) & (x < hi)).reshape(shape)
    return mask


def _force_oracle(op, potential, u):
    return -apply_fractional_laplacian(op, u) - potential.grad(u)


def step_oracle(u, v, op, potential, dt):
    """One kick-drift-kick step with grad W evaluated on the whole box and
    the exterior projection as a mask product; returns ``(u1, v1)``."""
    dom = op.domain
    vh = v + 0.5 * dt * _force_oracle(op, potential, u)
    u1 = u + dt * vh
    if dom.boundary_mode == EXTERIOR_DIRICHLET:
        mask = interior_mask_oracle(dom)
        mask = mask if u1.ndim == dom.d else mask[..., None]
        u1 = u1 * mask
        v1 = (vh + 0.5 * dt * _force_oracle(op, potential, u1)) * mask
    else:
        v1 = vh + 0.5 * dt * _force_oracle(op, potential, u1)
    return u1, v1


def energy_oracle(op, potential, u, v):
    """(kinetic, elastic, adhesive, total) with W summed over the whole box
    times the interior mask."""
    dom = op.domain
    kin = 0.5 * l2_norm(dom, v) ** 2
    ela = 0.5 * seminorm_s(op, u) ** 2
    adh = float(np.sum(potential.value(u) * interior_mask_oracle(dom))) * dom.cell_volume
    return kin, ela, adh, kin + ela + adh


def energy_per_state_oracle(op, potential, state):
    """(kinetic, elastic, adhesive, total) of one state alone, the
    reference for stacked energies: each term is one ``np.sum`` over that
    state's arrays, the elastic term from per-axis passes over the whole
    box in ``rfftn``'s order (rfft along the last spatial axis, then fft
    along each leading one), or from the cosine transform in neumann-1d
    mode, and W on the interior block."""
    dom = op.domain
    u, v = state.u, state.v
    if dom.boundary_mode == NEUMANN_1D:
        sym = op.symbol if u.ndim == dom.d else op.symbol[..., None]
        coeff = fft.dct(u, type=2, axis=0, norm="ortho")
        val = float(np.sum(sym * coeff * coeff)) * dom.cell_volume
    else:
        sym = op.parseval_symbol if u.ndim == dom.d else op.parseval_symbol[..., None]
        g = fft.rfft(u, axis=dom.d - 1)
        for ax in range(dom.d - 1):
            g = fft.fft(g, axis=ax)
        val = float(np.sum(sym * (g.real ** 2 + g.imag ** 2)))
        val *= dom.cell_volume / math.prod(dom.n)
    kin = 0.5 * math.sqrt(float(np.sum(v * v)) * dom.cell_volume) ** 2
    ela = 0.5 * math.sqrt(max(val, 0.0)) ** 2
    adh = float(np.sum(potential.value(u[dom.interior]))) * dom.cell_volume
    return kin, ela, adh, kin + ela + adh


def weak_residual_oracle(traj, test_fields, potential) -> list:
    """The weak-form defect of ``dynamics.weak_residual`` taken one snapshot
    at a time: per snapshot and test field, three inner products, each one
    ``np.sum`` over that snapshot alone, and ``grad W`` anew for each."""
    dom = traj.config.domain
    op = build_operator(dom)
    inner = dom.interior
    times = traj.times
    T = float(times[-1])
    out = []
    for tf in test_fields:
        psi = np.asarray(tf.psi, dtype=float)
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


def sup_bound_oracle(traj) -> float:
    """The embedding bound on max|u| from the snapshots alone: the embedding
    constant times the largest H^s norm, each transformed anew."""
    dom = traj.config.domain
    op = build_operator(dom)
    return embedding_constant(dom.d, dom.s) * max(hs_norm(op, st.u) for st in traj.states)


def ball_oracle(m: int):
    """``(value, grad)`` of W(y) = |y|^2 on the closed unit ball of R^m and
    1 outside it, written out directly: ``grad`` is ``2y`` where |y| <= 1
    and ``0.0`` elsewhere."""

    def radius(y):
        return np.linalg.norm(np.asarray(y, dtype=float), axis=-1)

    def value(y):
        r = radius(y)
        return np.where(r <= 1.0, r * r, 1.0)

    def grad(y):
        y = np.asarray(y, dtype=float)
        return np.where((radius(y) <= 1.0)[..., None], 2.0 * y, 0.0)

    return value, grad
