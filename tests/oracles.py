"""Independent oracles used by the test suite.

Everything here is built from first principles (explicit DFT matrices,
closed-form antiderivatives, generic quadrature, one CSV cell at a time,
the full-box time step) and never calls the package code they check, so
agreement is a genuine cross-check.
"""
import math

import numpy as np
from scipy import integrate

from adwave.reporting import fmt
from adwave.spectral import (
    EXTERIOR_DIRICHLET,
    apply_fractional_laplacian,
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
