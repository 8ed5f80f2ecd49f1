"""Fourier-multiplier discretization of the fractional Laplacian (-Delta)^s.

The symbol |xi|^(2s) acts on the frequency lattice of a rectangular box in
one of three boundary modes: ``exterior-dirichlet`` (Omega centred in a
strictly larger periodic box, states vanish outside Omega), ``periodic``
(Omega is the box) and ``neumann-1d`` (cosine basis, d = 1 and s = 1).
Arrays are row-major over the spatial axes (x1, ..., xd); a vector field
carries its m components on one trailing axis. A field comes as the full
box or as its lines block ``f[domain.interior_lines]`` (:meth:`Domain.layout`),
and every function returns the layout it was given, with the same bits on
Omega's lines. Transforms call scipy's pocketfft kernel on one thread, and
:func:`build_operator` is memoised per :class:`Domain`. README's "Numerical
scheme in brief" explains the pruned transforms, and the bias of the
periodised symbol at non-integer s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy import integrate as _integrate
# Every transform pass calls scipy's pocketfft kernel, the extension behind
# scipy.fft, through this one binding, with the arguments its front ends
# pass: on small 1-D grids a front end costs more than the transform (README
# has the timings). Arguments, by position: the array, the axes, the dct
# type or c2r's output length, the direction (r2c, c2r, c2c), the norm code
# (0 forward and 2 inverse for norm="backward", 1 for the orthonormal cosine
# transforms), the output array, one thread. Verified on scipy 1.17.1.
try:
    from scipy.fft._pocketfft import pypocketfft as _pocketfft
except ImportError as exc:
    import scipy
    raise ImportError(
        f"adwave calls scipy's private pocketfft binding "
        f"scipy.fft._pocketfft.pypocketfft, which scipy {scipy.__version__} does "
        f"not provide; scipy 1.17.1 is the release adwave was verified on") from exc

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


def _whole(value, field: str, error=ParameterError) -> int:
    """``value`` as an int, an integral float such as 2.0 included; a
    fractional or non-finite value raises ``error`` naming ``field``."""
    if not float(value).is_integer():
        raise error(field, f"{field} must be a whole number, got {value}")
    return int(value)


def _as_tuple(value, d: int, kind: type, field: str, error=ParameterError) -> tuple:
    """``value`` as ``d`` per-axis values of ``kind``, ``int`` through :func:`_whole`;
    a sequence of the wrong length raises ``error`` naming ``field``."""
    values = (value,) * d if np.isscalar(value) else tuple(value)
    if len(values) != d:
        raise error(field, f"{field}: expected {d} per-axis values, got {len(values)}")
    return tuple(_whole(v, field, error) if kind is int else kind(v) for v in values)


class Layout(NamedTuple):
    """A field's layout as steps and transforms read it (:meth:`Domain.layout`)."""

    lines: tuple  # Omega's grid lines within the field; () in a lines block
    inner: tuple  # Omega's interior block within the field
    lead: tuple | None  # the grid lines the field holds; None: cosine transform


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

    An invalid parameter raises :class:`DomainError` naming the field; ``d``
    and ``n`` take whole numbers, an integral float such as 2.0 included.
    """

    d: int
    s: float
    omega_extent: tuple
    n: tuple
    pad_factor: float = 2.0
    boundary_mode: str = EXTERIOR_DIRICHLET

    def __post_init__(self):
        object.__setattr__(self, "d", _whole(self.d, "d", DomainError))
        if not 1 <= self.d <= 3:
            raise DomainError("d", f"spatial dimension must be 1..3, got {self.d}")
        if not 0 < self.s < math.inf:
            raise DomainError("s", f"fractional order s must be positive and finite, "
                              f"got {self.s}")
        object.__setattr__(self, "omega_extent", _as_tuple(
            self.omega_extent, self.d, float, "omega_extent", DomainError))
        n = _as_tuple(self.n, self.d, float, "n", DomainError)
        if not all(m.is_integer() for m in n):
            got = ", ".join(f"{m:.17g}" for m in (n[:1] if np.isscalar(self.n) else n))
            raise DomainError("n", f"grid sizes must be integers, got {got}")
        object.__setattr__(self, "n", tuple(map(int, n)))
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

    @cached_property
    def _layouts(self) -> dict:
        # the scalar shape of each layout -> its Layout; the box's entry
        # comes last, so it stands where the block is the box
        block = tuple(len(range(*sl.indices(m))) for sl, m in
                      zip(self.interior_lines, self.n)) + self.n[-1:]
        whole = (slice(None),) * (self.d - 1)
        cosine = self.boundary_mode == NEUMANN_1D
        return {block: Layout((), whole + self.interior[-1:],
                              None if cosine else self.interior_lines),
                self.n: Layout(self.interior_lines, self.interior, None if cosine else whole)}

    @cached_property
    def _collar(self) -> tuple:
        # Omega's exterior in a lines block: the last axis's slabs off interior[-1]
        if self.boundary_mode != EXTERIOR_DIRICHLET:
            return ()
        lo, hi, _ = self.interior[-1].indices(self.n[-1])
        whole = (slice(None),) * (self.d - 1)
        return whole + (slice(None, lo),), whole + (slice(hi, None),)

    def layout(self, f: np.ndarray) -> Layout:
        """The :class:`Layout` of the field ``f``, which comes in one of two
        layouts, each with an optional trailing component axis: the full
        box, or its lines block ``f[interior_lines]``, where ``lines`` is
        ``()``. The shape tells them apart, since in exterior-dirichlet
        mode index 0 of every axis lies outside Omega; in the other modes,
        and at d = 1, the block is the box. Any other shape raises
        :class:`GridMismatchError`."""
        shape = f.shape
        index = self._layouts.get(shape) or self._layouts.get(shape[:-1])
        if index is None:
            raise GridMismatchError(
                f"field shape {shape} matches neither the grid {self.n} nor its "
                f"lines block {next(iter(self._layouts))} (optionally with one "
                f"trailing component axis)")
        return index

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

    ``symbol`` covers the full lattice. The operator is built with two
    read-only half-spectrum grids, which the Fourier transforms read (the
    cosine transform of neumann-1d mode reads ``symbol``): ``half_symbol``
    is the symbol on the columns a real-to-complex transform keeps (last
    spatial axis cut to n/2 + 1), and ``parseval_symbol`` weights those
    columns by how often they stand for a full-spectrum column: once for
    columns 0 and n/2, twice otherwise.
    """

    domain: Domain
    symbol: np.ndarray
    half_symbol: np.ndarray = field(init=False)
    parseval_symbol: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.symbol.shape != self.domain.n:
            raise GridMismatchError("symbol grid does not match domain grid")
        half = self.symbol[..., : self.domain.n[-1] // 2 + 1].copy()
        weighted = 2.0 * half
        weighted[..., [0, -1]] = half[..., [0, -1]]
        half.flags.writeable = weighted.flags.writeable = False
        object.__setattr__(self, "half_symbol", half)
        object.__setattr__(self, "parseval_symbol", weighted)


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
            xi = 2.0 * np.pi * np.fft.fftfreq(m, d=L / m)
            shape = [1] * domain.d
            shape[ax] = m
            ksq = ksq + (xi ** 2).reshape(shape)
        symbol = ksq ** domain.s
    symbol.flags.writeable = False
    return SpectralOperator(domain, symbol)


def _times_grid(f: np.ndarray, grid: np.ndarray, *, stacked: int = 0,
                out: np.ndarray | None = None) -> np.ndarray:
    """``f * grid`` into ``out`` (a new array by default; ``f`` itself to
    multiply in place), for a field or its spectrum ``f`` after ``stacked``
    stack axes and ``grid`` an array over its spatial axes (a symbol, a
    weight grid). Over a trailing component axis the product runs one component
    view ``f[..., c]`` at a time, so NumPy's inner loop walks a spatial axis
    and not the length-m component axis; every value is that of
    ``f * grid[..., None]`` bit for bit."""
    if f.ndim == stacked + grid.ndim:
        return np.multiply(f, grid, out=out)
    if out is None:
        out = np.empty(f.shape, np.result_type(f, grid))
    for c in range(f.shape[-1]):
        np.multiply(f[..., c], grid, out=out[..., c])
    return out


def _placed(block: np.ndarray, index: tuple, shape: tuple) -> np.ndarray:
    """``block`` itself when it has ``shape``, else a fresh zero array of
    ``shape`` that holds ``block`` at ``index``."""
    if block.shape == shape:
        return block
    out = np.zeros(shape, dtype=block.dtype)
    out[index] = block
    return out


def _forward(f: np.ndarray, lead: tuple | None, n: tuple, stacked: int = 0) -> np.ndarray:
    """Spectrum over the spatial axes of the field whose grid lines
    ``[lead]`` are ``f`` (:attr:`Layout.lead`; the field vanishes off those
    lines), each field of a stack along the first ``stacked`` axes alone.
    Where ``lead`` is None, the orthonormal type-2 cosine transform; else
    the half spectrum, one pass per axis in ``rfftn``'s order, for d >= 2
    in one zeroed half spectrum, each complex pass in place on the part
    that is not all zeros yet: with whole axes ``rfftn`` bit for bit."""
    if lead is None:
        return _pocketfft.dct(f, 2, (stacked,), 1, None, 1)
    if not lead:  # d = 1: the one real-to-complex pass
        return _pocketfft.r2c(f, (stacked,), True, 0, None, 1)
    stack = (slice(None),) * stacked
    d = len(lead) + 1
    g = np.zeros(f.shape[:stacked] + n[:-1] + (n[-1] // 2 + 1,) + f.shape[stacked + d:],
                 dtype=complex)
    _pocketfft.r2c(f, (stacked + d - 1,), True, 0, g[stack + lead], 1)
    for ax in range(d - 1):
        view = g[stack + (slice(None),) * (ax + 1) + lead[ax + 1:]]
        _pocketfft.c2c(view, (stacked + ax,), True, 0, view, 1)
    return g


def _inverse(fhat: np.ndarray, lead: tuple | None, n: tuple) -> np.ndarray:
    """Inverse of :func:`_forward` for one field: the type-3 cosine
    transform where ``lead`` is None; else the grid lines ``[lead]`` alone,
    each complex pass keeping only those rows, then complex-to-real. Every
    pass scales by 1/n of its axis, ``irfftn``'s 1/N bit for bit on
    power-of-two grids. Consumes ``fhat``."""
    if lead is None:
        return _pocketfft.dct(fhat, 3, (0,), 1, None, 1)
    for ax, sl in enumerate(lead):
        fhat = _pocketfft.c2c(fhat, (ax,), False, 2, fhat, 1)[(slice(None),) * ax + (sl,)]
    return _pocketfft.c2r(fhat, (len(lead),), n[-1], False, 2, None, 1)


def apply_fractional_laplacian(op: SpectralOperator, f: np.ndarray, *,
                               seminorms: list | None = None) -> np.ndarray:
    """Apply (-Delta)^s to a field: inverse transform of symbol * transform.

    ``f`` is a full box or its lines block (:meth:`Domain.layout`), and the
    result comes in the same layout. A full box is transformed whole; a
    lines block is taken to vanish off Omega's grid lines, and its result
    equals the full box's on them bit for bit.

    A list passed as ``seminorms`` gets the squared order-s seminorm of
    ``f`` appended, the Parseval sum of the forward spectrum taken before
    the symbol multiplies it: ``seminorms_sq(op, f[None])[0]`` bit for bit,
    with no transform of its own.
    """
    f = np.asarray(f, dtype=float)
    lead, n = op.domain.layout(f).lead, op.domain.n
    fhat = _forward(f, lead, n)
    if seminorms is not None:
        seminorms.extend(_parseval_sums(op, fhat[None]))
    _times_grid(fhat, op.symbol if lead is None else op.half_symbol, out=fhat)
    return _inverse(fhat, lead, n)


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


def seminorms_sq(op: SpectralOperator, fs: np.ndarray) -> list[float]:
    """Squared order-s seminorm of each field of the stack ``fs`` (the
    fields along its leading axis), from one transform of the whole stack;
    each equals ``seminorm_s(op, f) ** 2`` before the square root, bit for
    bit. The fields are full boxes or lines blocks (:meth:`Domain.layout`),
    with the same values in either layout."""
    fs = np.asarray(fs, dtype=float)
    return _parseval_sums(op, _forward(fs, op.domain.layout(fs[0]).lead, op.domain.n, 1))


def _parseval_sums(op: SpectralOperator, spec: np.ndarray) -> list[float]:
    """Squared order-s seminorm of each field of a stack from the stack's
    spectrum ``spec``, stack axis first: the half spectrum of :func:`_forward`
    weighted by ``op.parseval_symbol``, or in neumann-1d mode the
    orthonormal cosine coefficients weighted by ``op.symbol``. Takes one
    real temporary of the spectrum's size."""
    dom = op.domain
    if dom.boundary_mode == NEUMANN_1D:
        terms = _times_grid(spec, op.symbol, stacked=1)
        terms *= spec
        scale = dom.cell_volume
    else:
        # imag^2 in 256 KiB slabs: one temporary of its size is 2.2 MB at 3-D 64^3, m = 2
        terms, k = spec.real ** 2, 1 << 15
        flat, imag = terms.reshape(-1), spec.imag.reshape(-1)
        for i in range(0, flat.size, k):
            flat[i:i + k] += imag[i:i + k] ** 2
        _times_grid(terms, op.parseval_symbol, stacked=1, out=terms)
        scale = dom.cell_volume / math.prod(dom.n)
    return (row_sums(terms) * scale).tolist()


def hs_norm(op: SpectralOperator, f: np.ndarray) -> float:
    """Full H^s norm: sqrt(l2_norm^2 + seminorm_s^2)."""
    return math.sqrt(l2_norm(op.domain, f) ** 2 + seminorm_s(op, f) ** 2)


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
