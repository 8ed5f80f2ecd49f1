"""Fourier-multiplier discretization of the fractional Laplacian.

The operator (-Delta)^s is realized through its symbol |xi|^(2s) on the
frequency lattice of a rectangular computational box. Three boundary modes
are supported:

* ``exterior-dirichlet``: the physical region Omega sits centered inside a
  strictly larger periodic box (``pad_factor > 1``). Fields that represent
  states of the constrained problem vanish identically outside Omega; the
  collar of exterior points damps periodic wrap-around. Use
  :func:`mask_exterior` to project onto that subspace.
* ``periodic``: Omega is the whole box, no exterior constraint. This is the
  natural setting for single-mode and dispersion diagnostics.
* ``neumann-1d``: one-dimensional cosine basis on (0, L) sampled at cell
  midpoints, so zero-slope endpoint conditions hold structurally. Restricted
  to d = 1, s = 1.

Grid layout contract: arrays are row-major with spatial axes ordered
(x1, ..., xd). Vector-valued fields carry their m components on one trailing
axis; scalar fields have no trailing axis. :func:`_fitted` shapes an array
over the grid (a symbol, a mask) to meet either kind. The grid points inside
Omega form one block, ``f[domain.interior]``: :attr:`Domain.interior` holds
its per-axis slices and :attr:`Domain.interior_mask` is the same set as a
boolean grid. Both span the whole box unless the mode is exterior-dirichlet.

Spectral layout: fields are real, so the periodic modes use real-to-complex
transforms, one pass per spatial axis in ``rfftn``'s order: real-to-complex
along the last spatial axis, then complex along the leading axes in turn
(the inverse does the complex passes first, in the same order, then
complex-to-real). Every pass scales with ``norm="backward"``,
so with whole axes this is ``rfftn``/``irfftn`` up to rounding, and bit for
bit when every n is a power of two. Spectra keep only the non-negative half
of the last spatial axis, ``n/2 + 1`` columns; ``n`` is even, so the Nyquist
column is always present. A field that vanishes outside Omega may say so
with ``in_omega=True``: the passes then read and produce only Omega's grid
lines, ``f[domain.interior_lines]`` (the lines along the last spatial axis
through Omega), so the forward transform skips the all-zero lines of the
exterior and the inverse leaves exact zeros off Omega's lines (FFT pruning,
Markel 1971). A :class:`SpectralOperator` carries the full symbol plus
read-only half-spectrum copies for the multiplier and for Parseval sums,
and :func:`build_operator` is memoised on the (frozen, hashable)
:class:`Domain`, so every caller that asks for the operator of one domain
shares one instance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as _fft
from scipy import integrate as _integrate

EXTERIOR_DIRICHLET = "exterior-dirichlet"
PERIODIC = "periodic"
NEUMANN_1D = "neumann-1d"

_MODES = (EXTERIOR_DIRICHLET, PERIODIC, NEUMANN_1D)


class GridMismatchError(ValueError):
    """A field's shape does not match the grid it is used with."""


class ParameterError(ValueError):
    """An invalid parameter of a library call; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class DomainError(ParameterError):
    """An invalid :class:`Domain` parameter."""


def _as_tuple(value, d: int, kind: type, field: str) -> tuple:
    if np.isscalar(value):
        return (kind(value),) * d
    out = tuple(kind(v) for v in value)
    if len(out) != d:
        raise DomainError(field, f"{field}: expected {d} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class Domain:
    """Spatial discretization: Omega embedded in a padded computational box.

    Parameters
    ----------
    d:
        Spatial dimension (1 to 3).
    s:
        Fractional order of the operator, s > 0.
    omega_extent:
        Side length of Omega per axis (scalar or per-axis sequence).
    n:
        Grid points per axis of the computational box (even).
    pad_factor:
        Ratio of box side to Omega side. Must be > 1 in exterior-dirichlet
        mode so a nonempty exterior collar exists, and exactly 1 otherwise.
    boundary_mode:
        One of ``exterior-dirichlet``, ``periodic``, ``neumann-1d``.

    An invalid parameter raises :class:`DomainError` naming the field.
    """

    d: int
    s: float
    omega_extent: tuple
    n: tuple
    pad_factor: float = 2.0
    boundary_mode: str = EXTERIOR_DIRICHLET

    def __post_init__(self):
        if not 1 <= self.d <= 3:
            raise DomainError("d", f"spatial dimension must be 1..3, got {self.d}")
        if not 0 < self.s < math.inf:
            raise DomainError("s", f"fractional order s must be positive and finite, "
                              f"got {self.s}")
        object.__setattr__(self, "omega_extent",
                           _as_tuple(self.omega_extent, self.d, float, "omega_extent"))
        object.__setattr__(self, "n", _as_tuple(self.n, self.d, int, "n"))
        if not all(0 < e < math.inf for e in self.omega_extent):
            raise DomainError("omega_extent",
                              "omega_extent must be positive and finite on every axis")
        if any(m <= 0 or m % 2 for m in self.n):
            raise DomainError("n", "grid sizes must be positive even integers")
        if self.boundary_mode not in _MODES:
            raise DomainError("boundary_mode", f"unknown boundary mode {self.boundary_mode!r}")
        if self.boundary_mode == EXTERIOR_DIRICHLET:
            if not 1 < self.pad_factor < math.inf:
                raise DomainError("pad_factor", "exterior-dirichlet mode needs a finite "
                                  "pad_factor > 1 (nonempty exterior collar)")
        else:
            if self.pad_factor != 1:
                raise DomainError("pad_factor",
                                  f"{self.boundary_mode} mode requires pad_factor = 1")
        if self.boundary_mode == NEUMANN_1D:
            if self.d != 1:
                raise DomainError("d", "neumann-1d mode requires d = 1")
            if abs(self.s - 1.0) > 1e-12:
                raise DomainError("s", "neumann-1d mode requires s = 1")

    @cached_property
    def box_extent(self) -> tuple:
        return tuple(self.pad_factor * e for e in self.omega_extent)

    @cached_property
    def h(self) -> tuple:
        """Grid spacing per axis."""
        return tuple(L / m for L, m in zip(self.box_extent, self.n))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.h)

    @property
    def omega_bounds(self) -> tuple:
        """Per-axis (low, high) coordinates of Omega inside the box."""
        out = []
        for L, e in zip(self.box_extent, self.omega_extent):
            lo = 0.5 * (L - e)
            out.append((lo, lo + e))
        return tuple(out)

    def axes(self) -> list[np.ndarray]:
        """Per-axis sample coordinates (midpoints in neumann-1d mode)."""
        offset = 0.5 if self.boundary_mode == NEUMANN_1D else 0.0
        return [(np.arange(m) + offset) * hh for m, hh in zip(self.n, self.h)]

    def grids(self) -> list[np.ndarray]:
        return np.meshgrid(*self.axes(), indexing="ij", sparse=True)

    @cached_property
    def interior(self) -> tuple:
        """Per-axis slices whose Cartesian product is the set of grid points
        strictly inside Omega; they span the whole box unless the mode is
        exterior-dirichlet. Never empty: the box's centre point, index n/2
        on every axis, lies inside Omega."""
        if self.boundary_mode != EXTERIOR_DIRICHLET:
            return (slice(None),) * self.d
        out = []
        for x, (lo, hi) in zip(self.axes(), self.omega_bounds):
            # x is increasing, so the points inside form one index range
            out.append(slice(int(np.searchsorted(x, lo, side="right")),
                             int(np.searchsorted(x, hi, side="left"))))
        return tuple(out)

    @cached_property
    def interior_lines(self) -> tuple:
        """Slices of the leading spatial axes that pick Omega's grid lines,
        the lines along the last axis through :attr:`interior`; empty when
        d = 1, where the one line is the whole box."""
        return self.interior[:-1]

    @cached_property
    def interior_mask(self) -> np.ndarray:
        """Boolean grid, True strictly inside Omega (on :attr:`interior`)."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.interior] = True
        return mask

    def vanishes_off_omega(self, f: np.ndarray) -> bool:
        """Whether the field ``f`` is +0 or -0 at every grid point off
        :attr:`interior` (NaN is not zero). Reads the collar slabs alone:
        per axis the index ranges below and above Omega's, within Omega's
        ranges of the axes before it, which together tile the exterior."""
        for ax, (sl, m) in enumerate(zip(self.interior, self.n)):
            lo, hi, _ = sl.indices(m)
            for collar in (slice(None, lo), slice(hi, None)):
                if np.any(f[self.interior[:ax] + (collar,)] != 0.0):
                    return False
        return True

    def field_components(self, f: np.ndarray) -> int:
        """Validate a field's shape against the grid; return its component count."""
        f = np.asarray(f)
        if f.shape == self.n:
            return 1
        if f.shape[:-1] == self.n:
            return f.shape[-1]
        raise GridMismatchError(
            f"field shape {f.shape} does not match grid {self.n} "
            f"(optionally with one trailing component axis)")


@dataclass(frozen=True)
class SpectralOperator:
    """(-Delta)^s as a multiplier grid over the domain's frequency lattice.

    ``symbol`` covers the full lattice. For the periodic lattice the
    operator also carries read-only half-spectrum copies, computed on first
    use: ``half_symbol`` is the symbol on the columns a real-to-complex
    transform keeps (last spatial axis cut to n/2 + 1), and
    ``parseval_symbol`` weights those columns by how often they stand for
    a full-spectrum column: once for columns 0 and n/2, twice otherwise.
    """

    domain: Domain
    symbol: np.ndarray

    def __post_init__(self):
        if self.symbol.shape != self.domain.n:
            raise GridMismatchError("symbol grid does not match domain grid")

    @cached_property
    def half_symbol(self) -> np.ndarray:
        half = self.symbol[..., : self.domain.n[-1] // 2 + 1].copy()
        half.flags.writeable = False
        return half

    @cached_property
    def parseval_symbol(self) -> np.ndarray:
        weighted = 2.0 * self.half_symbol
        weighted[..., 0] = self.half_symbol[..., 0]
        weighted[..., -1] = self.half_symbol[..., -1]
        weighted.flags.writeable = False
        return weighted


@lru_cache(maxsize=8)
def build_operator(domain: Domain) -> SpectralOperator:
    """Build the multiplier |xi|^(2s) on the box's standard frequency lattice.

    Angular frequencies are xi_k = 2*pi*k / L_box with k in {-n/2, ..., n/2-1}
    per axis; in neumann-1d mode the cosine eigenvalues (pi*k/L)^2 are used.
    The result is memoised per domain: equal domains share one read-only
    operator.
    """
    if domain.boundary_mode == NEUMANN_1D:
        L = domain.box_extent[0]
        xi = np.pi * np.arange(domain.n[0]) / L
        symbol = xi ** (2.0 * domain.s)
    else:
        ksq = np.zeros(domain.n)
        for ax, (L, m) in enumerate(zip(domain.box_extent, domain.n)):
            xi = 2.0 * np.pi * _fft.fftfreq(m, d=L / m)
            shape = [1] * domain.d
            shape[ax] = m
            ksq = ksq + (xi ** 2).reshape(shape)
        symbol = ksq ** domain.s
    symbol.flags.writeable = False
    return SpectralOperator(domain, symbol)


def _fitted(domain: Domain, f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``grid``, an array over the spatial axes (a symbol, a mask), shaped to
    broadcast against the field ``f`` or its spectrum; validates ``f``."""
    domain.field_components(f)
    return grid if f.ndim == domain.d else grid[..., None]


# every grid line of the box, indexed by the number of leading axes, d - 1
_WHOLE_LINES = ((), (slice(None),), (slice(None),) * 2)


def _placed(block: np.ndarray, index: tuple, shape: tuple) -> np.ndarray:
    """``block`` itself when it has ``shape``, else a fresh zero array of
    ``shape`` that holds ``block`` at ``index``."""
    if block.shape == shape:
        return block
    out = np.zeros(shape, dtype=block.dtype)
    out[index] = block
    return out


def _rfft(f: np.ndarray, lead: tuple, n: tuple, stacked: int = 0) -> np.ndarray:
    """Half spectrum of ``f`` over its spatial axes, read from the grid
    lines ``f[lead]`` alone, where ``lead`` holds one slice per leading
    spatial axis: ``f`` must vanish off those lines. The first ``stacked``
    axes of ``f`` index a stack of fields, each transformed alone.

    One pass per axis, in ``rfftn``'s order: real-to-complex along the last
    spatial axis on the lines, then complex along each leading axis, after
    the block is zero-filled back to that axis's full length. With whole
    axes this is ``rfftn`` bit for bit.
    """
    if not lead:
        return _fft.rfft(f, axis=stacked)
    g = _fft.rfft(f[(slice(None),) * stacked + lead], axis=stacked + len(lead))
    for ax, sl in enumerate(lead, start=stacked):
        g = _placed(g, (slice(None),) * ax + (sl,),
                    g.shape[:ax] + (n[ax - stacked],) + g.shape[ax + 1:])
        g = _fft.fft(g, axis=ax, overwrite_x=True)
    return g


def _irfft(fhat: np.ndarray, lead: tuple, n: tuple) -> np.ndarray:
    """Inverse of :func:`_rfft` on the grid lines ``[lead]``, exactly +0 off
    them; consumes ``fhat``.

    Complex passes along the leading axes keep only the rows of ``lead``
    after each pass, then complex-to-real along the last spatial axis
    (``n`` is even, so the default output length 2 * (n/2 + 1 - 1) is
    ``n``). Every pass scales by 1/n of its own axis, which is
    ``irfftn``'s single 1/N bit for bit when every n is a power of two.
    """
    if not lead:
        return _fft.irfft(fhat, axis=0, overwrite_x=True)
    g = fhat
    for ax, sl in enumerate(lead):
        g = _fft.ifft(g, axis=ax, overwrite_x=True)[(slice(None),) * ax + (sl,)]
    lines = _fft.irfft(g, axis=len(lead), overwrite_x=True)
    return _placed(lines, lead, n + lines.shape[len(n):])


def apply_fractional_laplacian(op: SpectralOperator, f: np.ndarray, *,
                               in_omega: bool = False) -> np.ndarray:
    """Apply (-Delta)^s to a field: inverse transform of symbol * transform.

    ``in_omega=True`` promises that ``f`` vanishes outside Omega. The
    transforms then skip the all-zero grid lines of the exterior and
    produce only Omega's grid lines (:attr:`Domain.interior_lines`): on
    them the result equals the full-box one bit for bit, and it is exactly
    +0 off them.
    """
    f = np.asarray(f, dtype=float)
    dom = op.domain
    if dom.boundary_mode == NEUMANN_1D:
        sym = _fitted(dom, f, op.symbol)
        coeff = _fft.dct(f, type=2, axis=0, norm="ortho")
        return _fft.idct(sym * coeff, type=2, axis=0, norm="ortho")
    sym = _fitted(dom, f, op.half_symbol)
    lead = dom.interior_lines if in_omega else _WHOLE_LINES[dom.d - 1]
    fhat = _rfft(f, lead, dom.n)
    fhat *= sym
    return _irfft(fhat, lead, dom.n)


def l2_norm(domain: Domain, f: np.ndarray) -> float:
    """Rectangle-rule L2 norm over the computational box."""
    return math.sqrt(l2_inner(domain, f, f))


def l2_inner(domain: Domain, f: np.ndarray, g: np.ndarray) -> float:
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    domain.field_components(f)
    if f.shape != g.shape:
        raise GridMismatchError("inner product requires matching field shapes")
    return float(np.sum(f * g)) * domain.cell_volume


def row_sums(x: np.ndarray) -> np.ndarray:
    """``np.sum`` of each entry of ``x`` along its leading axis. For a
    C-contiguous ``x`` each entry is one contiguous run, summed bit for bit
    as ``np.sum`` of that entry alone sums it."""
    return np.sum(x.reshape(len(x), -1), axis=1)


def seminorm_s(op: SpectralOperator, f: np.ndarray) -> float:
    """Order-s seminorm: L2 norm of (-Delta)^(s/2) f via Parseval."""
    f = np.asarray(f, dtype=float)
    return math.sqrt(max(seminorms_sq(op, f[None])[0], 0.0))


def seminorms_sq(op: SpectralOperator, fs: np.ndarray, *,
                 in_omega: bool = False) -> list[float]:
    """Squared order-s seminorm of each field of the stack ``fs`` (the
    fields along its leading axis), from one transform of the whole stack;
    each equals ``seminorm_s(op, f) ** 2`` before the square root, bit for
    bit. ``in_omega=True`` promises that every field vanishes outside
    Omega, so the transform reads Omega's grid lines only; the values are
    the same."""
    dom = op.domain
    if dom.boundary_mode == NEUMANN_1D:
        sym = _fitted(dom, fs[0], op.symbol)
        coeff = _fft.dct(fs, type=2, axis=1, norm="ortho")
        return [float(x) * dom.cell_volume for x in row_sums(sym * coeff * coeff)]
    sym = _fitted(dom, fs[0], op.parseval_symbol)
    lead = dom.interior_lines if in_omega else _WHOLE_LINES[dom.d - 1]
    fhat = _rfft(fs, lead, dom.n, stacked=1)
    scale = dom.cell_volume / math.prod(dom.n)
    return [float(x) * scale for x in row_sums(sym * (fhat.real ** 2 + fhat.imag ** 2))]


def hs_norm(op: SpectralOperator, f: np.ndarray) -> float:
    """Full H^s norm: sqrt(l2_norm^2 + seminorm_s^2)."""
    return math.sqrt(l2_norm(op.domain, f) ** 2 + seminorm_s(op, f) ** 2)


def mask_exterior(domain: Domain, f: np.ndarray) -> np.ndarray:
    """Zero a field on all grid points outside Omega, in a new array. Idempotent.

    In periodic mode Omega is the whole box, so the result equals the field
    bit for bit (-0 and NaN included). Not meaningful in neumann-1d mode.
    """
    if domain.boundary_mode == NEUMANN_1D:
        raise ValueError("mask_exterior is undefined in neumann-1d mode")
    f = np.asarray(f, dtype=float)
    return f * _fitted(domain, f, domain.interior_mask)


def _tail_series(c: float, d: int, s: float, stop: float) -> tuple[float, float]:
    # Alternating expansion of the radial tail integral
    #   int_c^inf r^(d-1) (1+r^s)^(-2) dr
    #     = sum_j (-1)^j (j+1) c^(d-(j+2)s) / ((j+2)s - d),
    # valid termwise for c^s > 1; magnitudes decrease once c^s >= 4, so the
    # truncation error is bounded by the first omitted term.
    total = 0.0
    for j in range(400):
        p = (j + 2) * s - d
        term = (j + 1) * c ** (-p) / p
        if term < stop or not math.isfinite(term):
            return total, term
        total += term if j % 2 == 0 else -term
    return total, term


def embedding_constant(d: int, s: float, tol: float = 1e-9) -> float:
    """Max-norm embedding constant sqrt(2) * (2 pi)^(-d/2) * I(d, s)^(1/2).

    I(d, s) is the integral of (1 + |xi|^s)^(-2) over R^d, reduced to a
    radial integral (sphere surface measure times a 1-d improper integral).
    The integral is evaluated adaptively up to r = 50 plus an analytic
    alternating-series tail whose truncation error joins the error budget;
    the returned constant is within ``tol`` of the exact value. Requires
    2s > d, otherwise the integral diverges, and a positive finite ``tol``.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError("tol", f"tol must be positive and finite, got {tol!r}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 2.0 * s > d:
        raise ValueError(f"embedding requires 2s > d (got s={s}, d={d})")
    c = 50.0  # s > d / 2 >= 1 / 2, so c^s > 7 and the tail series applies
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    budget = 0.1 * tol / sphere

    def integrand(r):
        try:
            return r ** (d - 1) / (1.0 + r ** s) ** 2
        except OverflowError:  # r^s > 1e154, so 1 + r^s rounds to r^s
            return r ** (d - 1 - 2.0 * s)

    radial, quad_err = _integrate.quad(integrand, 0.0, c,
                                       epsabs=budget, epsrel=1e-13, limit=400)
    tail, trunc = _tail_series(c, d, s, stop=budget)
    i_value = sphere * (radial + tail)
    return math.sqrt(2.0) * (2.0 * math.pi) ** (-d / 2.0) * math.sqrt(i_value)


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of a randomized max-norm vs H^s-norm inequality check."""

    constant: float
    trials: int
    worst_ratio: float
    passed: bool


def _random_band_limited(domain: Domain, rng: np.random.Generator,
                         band: int) -> np.ndarray:
    if domain.boundary_mode == NEUMANN_1D:
        coeff = np.zeros(domain.n[0])
        coeff[: band + 1] = rng.standard_normal(band + 1)
        return _fft.idct(coeff, type=2, norm="ortho")
    spec = rng.standard_normal(domain.n) + 1j * rng.standard_normal(domain.n)
    for ax, m in enumerate(domain.n):
        k = np.minimum(np.arange(m), m - np.arange(m))
        keep = k <= band
        shape = [1] * domain.d
        shape[ax] = m
        spec = spec * keep.reshape(shape)
    axes = tuple(range(domain.d))
    return _fft.ifftn(spec, axes=axes).real


def verify_embedding(op: SpectralOperator, trials: int = 1000,
                     seed: int = 0) -> EmbeddingReport:
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
