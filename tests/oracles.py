"""Independent oracles used by the test suite.

Everything here is built from first principles (explicit DFT matrices,
closed-form antiderivatives, generic quadrature, one CSV cell at a time)
and never calls the package code they check, so agreement is a genuine
cross-check.
"""
import math

import numpy as np
from scipy import integrate

from adwave.reporting import fmt


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
