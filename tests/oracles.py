"""Independent oracles used by the test suite.

Everything here is built from first principles (explicit DFT matrices,
closed-form antiderivatives, generic quadrature, one CSV cell at a time,
the full-box time step) and never calls the package code they check, so
agreement is a genuine cross-check. The randomized embedding check and the
sin^2 time window at the end are test inputs, not oracles, and
:func:`traced_memory` is a measuring tool.
"""
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from scipy import fft, integrate

from adwave.dynamics import TimeWindow
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


def per_axis_spectrum_oracle(dom, f: np.ndarray) -> np.ndarray:
    """Half spectrum of ``f`` over the whole box through scipy.fft's public
    front ends, one pass per spatial axis in ``rfftn``'s order: ``rfft``
    along the last spatial axis, then ``fft`` along each leading one."""
    g = fft.rfft(f, axis=dom.d - 1)
    for ax in range(dom.d - 1):
        g = fft.fft(g, axis=ax)
    return g


def per_axis_laplacian_oracle(op, f: np.ndarray) -> np.ndarray:
    """(-Delta)^s f through scipy.fft's public front ends in the package's
    passes and order: :func:`per_axis_spectrum_oracle` times the
    half-spectrum symbol, then ``ifft`` along each leading axis and
    ``irfft`` along the last; ``dct``/``idct`` in neumann-1d mode."""
    dom = op.domain
    if dom.boundary_mode == NEUMANN_1D:
        coeff = fft.dct(f, type=2, axis=0, norm="ortho")
        return fft.idct(grid_product_oracle(coeff, op.symbol), type=2, axis=0, norm="ortho")
    g = grid_product_oracle(per_axis_spectrum_oracle(dom, f), op.half_symbol)
    for ax in range(dom.d - 1):
        g = fft.ifft(g, axis=ax)
    return fft.irfft(g, n=dom.n[-1], axis=dom.d - 1)


def seminorm_sq_oracle(op, f: np.ndarray) -> float:
    """Squared order-s seminorm of one field, one ``np.sum`` of the
    Parseval terms of :func:`per_axis_spectrum_oracle` (of the orthonormal
    ``dct`` in neumann-1d mode)."""
    dom = op.domain
    if dom.boundary_mode == NEUMANN_1D:
        coeff = fft.dct(f, type=2, axis=0, norm="ortho")
        return float(np.sum(grid_product_oracle(coeff, op.symbol) * coeff)) * dom.cell_volume
    g = per_axis_spectrum_oracle(dom, f)
    val = float(np.sum(grid_product_oracle(g.real ** 2 + g.imag ** 2, op.parseval_symbol)))
    return val * (dom.cell_volume / math.prod(dom.n))


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
    state's arrays, the elastic term from :func:`seminorm_sq_oracle`, and
    W on the interior block."""
    dom = op.domain
    u, v = state.u, state.v
    val = seminorm_sq_oracle(op, u)
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
        # the whole box's (-Delta)^s psi, kept on Omega's grid lines alone
        lpsi = np.zeros_like(psi)
        lpsi[dom.interior_lines] = apply_fractional_laplacian(op, psi)[dom.interior_lines]
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


# signed zeros, infinities, NaN, subnormals and values whose squares overflow
EXTREMES = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
            1e-310, -2.5e-309, 1e200, -1e200]


# full-mantissa values from 1e-8 to 1e8, whose sums round differently in
# another order
ROUGH = (np.random.default_rng(0).standard_normal(24)
         * np.repeat([1e-8, 1.0, 1e8], 8)).tolist()


def extreme_floats():
    """A hypothesis strategy: moderate floats, one of :data:`ROUGH`, or one
    of :data:`EXTREMES`."""
    return st.floats(-1e3, 1e3) | st.sampled_from(ROUGH) | st.sampled_from(EXTREMES)


def same_bits(got, want) -> bool:
    """Equal dtype, shape and bytes: -0 against +0 and NaN payloads count."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def taper_grad_oracle(eps: float):
    """grad of ``linear_taper_family().make(eps)`` as one ``where`` chain
    over every point, whichever pieces the field occupies: (2 - eps) u on
    |u| <= 1, the ramp down to 0 on 1 < |u| < 1 + eps, +0 elsewhere (NaN
    included)."""
    slope = 2.0 - eps

    def grad(u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        ramp = np.sign(u) * (slope / eps) * (1.0 + eps - a)
        return np.where(a <= 1.0, slope * u, np.where(a < 1.0 + eps, ramp, 0.0))

    return grad


def grid_product_oracle(f, grid, stacked: int = 0):
    """``f * grid`` in one broadcast product, for ``f`` holding ``stacked``
    stack axes, then ``grid``'s axes, then perhaps one component axis, over
    which ``grid`` is given a new trailing axis."""
    return f * (grid if f.ndim == stacked + np.ndim(grid) else grid[..., None])


def radius_oracle(y, m: int):
    """|y| over the trailing component axis by ``np.linalg.norm``; |y| for m = 1."""
    y = np.asarray(y, dtype=float)
    return np.abs(y) if m == 1 else np.linalg.norm(y, axis=-1)


def radial_grad_oracle(profile, m: int):
    """grad of W(y) = p(|y|) on R^m, m >= 2: y times p'(|y|) / |y|, the
    factor broadcast over the component axis in one product."""

    def grad(y):
        y = np.asarray(y, dtype=float)
        r = radius_oracle(y, m)
        return y * (profile.grad(r) / np.maximum(r, 1e-300))[..., None]

    return grad


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of a randomized max-norm vs H^s-norm inequality check."""

    constant: float
    trials: int
    worst_ratio: float
    passed: bool


def _random_band_limited(domain, rng: np.random.Generator, band: int) -> np.ndarray:
    if domain.boundary_mode == NEUMANN_1D:
        coeff = np.zeros(domain.n[0])
        coeff[: band + 1] = rng.standard_normal(band + 1)
        return fft.idct(coeff, type=2, norm="ortho")
    spec = rng.standard_normal(domain.n) + 1j * rng.standard_normal(domain.n)
    for ax, m in enumerate(domain.n):
        k = np.minimum(np.arange(m), m - np.arange(m))
        keep = k <= band
        shape = [1] * domain.d
        shape[ax] = m
        spec = spec * keep.reshape(shape)
    axes = tuple(range(domain.d))
    return fft.ifftn(spec, axes=axes).real


def verify_embedding(op, trials: int = 1000, seed: int = 0) -> EmbeddingReport:
    """Check max|f| <= C * ||f||_{H^s} on random fields band-limited to the
    lowest quarter of the lattice, |k| <= max(1, min(n) // 4).

    Returns the worst observed ratio max|f| / (C * hs_norm(f)); the
    inequality holds whenever the box is large enough that the discrete
    frequency lattice resolves the defining integral of the constant (side
    length of order 2*pi suffices for the regimes exercised here).
    """
    dom = op.domain
    const = embedding_constant(dom.d, dom.s)
    band = max(1, min(dom.n) // 4)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = _random_band_limited(dom, rng, band)
        denom = const * hs_norm(op, f)
        ratio = 0.0 if denom == 0.0 else float(np.max(np.abs(f))) / denom
        worst = max(worst, ratio)
    return EmbeddingReport(constant=const, trials=trials,
                           worst_ratio=worst, passed=worst <= 1.0)


def window_sin_sq(T: float) -> TimeWindow:
    """chi(t) = sin(pi t / T)^2, which vanishes with its derivative at 0 and T."""
    w = math.pi / T

    def value(t):
        return math.sin(w * t) ** 2

    def d1(t):
        return w * math.sin(2.0 * w * t)

    def d2(t):
        return 2.0 * w * w * math.cos(2.0 * w * t)

    return TimeWindow(value, d1, d2, "sin^2 window")


def traced_memory(fn) -> tuple[int, int]:
    """``(held, peak)``: the bytes that ``fn()`` allocated and still holds
    when it returns (its result kept alive), and the most it held at once,
    as ``tracemalloc`` counts them from the call's start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()  # alive while the memory is read
        held, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return held, peak
