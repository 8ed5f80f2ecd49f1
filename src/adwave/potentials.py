"""Adhesive-layer potentials, their gradients, and regularized families.

A potential W maps state vectors in R^m to [0, K] and models an adhesive
layer: it is constant outside a bounded set of states, so the restoring
force -grad W switches off once the body leaves the layer. The boundary of
that set (a point pair for scalar states, the unit sphere for vector ones)
is the critical set where the gradient jumps.

Regularized families e -> W_e replace such a potential by smooth members
whose gradients are Lipschitz, either

* ``uniform-c1``: both W_e -> W and grad W_e -> grad W uniformly, possible
  only when grad W is already continuous, or
* ``pointwise-offcritical``: W_e -> W uniformly, grad W_e -> grad W
  pointwise away from the critical set and uniformly on a certified region
  inside it, with grad W_e uniformly bounded.

:func:`certify_family` measures these properties on sample clouds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .reporting import ExperimentReport
from .spectral import ParameterError, _times_grid, _whole

C1_UNIFORM = "c1-uniform"
DISCONTINUOUS_GRAD = "discontinuous-gradient"

UNIFORM_C1 = "uniform-c1"
POINTWISE_OFFCRITICAL = "pointwise-offcritical"


@dataclass(frozen=True)
class Profile:
    """One-dimensional section of a potential, used for mollification.

    ``value`` and ``grad`` are piecewise-smooth callables on R with kinks
    only at ``knots``.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    knots: tuple


@dataclass(frozen=True)
class Potential:
    """An evaluable pair (W, grad W) with uniform bound and regularity tag.

    ``value`` maps arrays of states to W values; for m = 1 states are plain
    arrays, for m >= 2 the last axis holds the m components and ``value``
    drops it. ``grad`` preserves the input shape. ``bound`` is a K with
    0 <= W <= K and |grad W| <= K everywhere. A negative or non-finite
    ``bound`` or ``grad_lipschitz`` raises ParameterError naming it.
    """

    name: str
    m: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    bound: float
    regularity: str
    grad_lipschitz: float
    critical_distance: Callable[[np.ndarray], np.ndarray] | None = None
    profile: Profile | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("codomain dimension m must be >= 1")
        if self.regularity not in (C1_UNIFORM, DISCONTINUOUS_GRAD):
            raise ValueError(f"unknown regularity tag {self.regularity!r}")
        for name in ("bound", "grad_lipschitz"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(name, f"{name} must be >= 0 and finite, got "
                                     f"{getattr(self, name)!r}")


@dataclass(frozen=True)
class RegularizedFamily:
    """Parametric map eps -> smooth Potential approximating ``base``.

    ``mode`` follows the base's regularity: uniform-c1 for a c1-uniform
    base, pointwise-offcritical for one whose gradient jumps.
    ``grad_region(eps)`` is the radius of the state-space ball on which the
    gradient deviation is certified for that eps (infinite in uniform-c1
    mode, where the deviation is certified everywhere).
    """

    name: str
    base: Potential
    make: Callable[[float], Potential]
    grad_region: Callable[[float], float]

    @property
    def mode(self) -> str:
        return UNIFORM_C1 if self.base.regularity == C1_UNIFORM else POINTWISE_OFFCRITICAL


def _radius(y: np.ndarray, m: int) -> np.ndarray:
    """|y| over the trailing component axis (|y| itself for m = 1): the
    squares summed one component at a time, then one square root, which is
    ``np.linalg.norm(y, axis=-1)`` bit for bit without its length-m inner
    loop."""
    y = np.asarray(y, dtype=float)
    if m == 1:
        return np.abs(y)
    with np.errstate(over="ignore"):  # a square past the largest float is inf
        sq = y[..., 0] * y[..., 0]
        for c in range(1, m):
            sq += y[..., c] * y[..., c]
    return np.sqrt(sq)


def _radial(profile, m: int) -> tuple:
    """``(value, grad)`` of W(y) = p(|y|) on R^m from the profile p's
    ``value`` and ``grad``; for m = 1 they are the profile's own."""
    if m == 1:
        return profile.value, profile.grad

    def grad(y):
        y = np.asarray(y, dtype=float)
        r = _radius(y, m)
        ratio = profile.grad(r) / np.maximum(r, 1e-300)
        with np.errstate(invalid="ignore"):  # an infinite component times ratio 0 is NaN
            return _times_grid(y, ratio)

    return (lambda y: profile.value(_radius(y, m))), grad


def clipped_quadratic(u_star: float) -> Potential:
    """Scalar adhesive potential: W(u) = u^2 up to |u| = u*, flat beyond.

    The gradient at the jump points |u| = u* takes the inside closure value
    +-2u*, so the restoring force is still 'on' exactly at the layer edge.
    A u* that is not positive, or whose square overflows, raises ValueError.
    """
    u_star = float(u_star)
    top = u_star * u_star
    if not (u_star > 0 and top < math.inf):
        raise ValueError(f"u_star must be positive with a finite square, got {u_star!r}")

    def value(u):
        # |u| clipped at u* (fmin takes u* for NaN): u^2 up to u*, and top
        # bit for bit beyond it, with no square that overflows
        c = np.fmin(np.abs(np.asarray(u, dtype=float)), u_star)
        return c * c

    def grad(u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= u_star, 2.0 * u, 0.0)

    return Potential(
        name=f"clipped_quadratic(u_star={u_star:g})",
        m=1,
        value=value,
        grad=grad,
        bound=max(top, 2.0 * u_star),
        regularity=DISCONTINUOUS_GRAD,
        grad_lipschitz=2.0,
        critical_distance=lambda u: np.abs(np.abs(np.asarray(u, dtype=float)) - u_star),
        profile=Profile(value, grad, (-u_star, u_star)),
    )


def ball_potential(m: int) -> Potential:
    """W(y) = |y|^2 on the closed unit ball, 1 outside the open ball.

    The unit sphere is the critical set; on it the gradient takes the inside
    closure value 2y. A fractional or non-finite ``m`` raises ParameterError.
    """
    m = _whole(m, "m")
    scalar = clipped_quadratic(1.0)
    if m == 1:
        return scalar
    value, grad = _radial(scalar.profile, m)
    return Potential(
        name=f"ball(m={m})",
        m=m,
        value=value,
        grad=grad,
        bound=2.0,
        regularity=DISCONTINUOUS_GRAD,
        grad_lipschitz=2.0,
        critical_distance=lambda y: np.abs(_radius(y, m) - 1.0),
        profile=scalar.profile,
    )


def zero_potential(m: int = 1) -> Potential:
    """W identically 0, the free fractional wave's; ``m`` as in :func:`ball_potential`."""
    m = _whole(m, "m")

    def value(y):
        shape = np.shape(y)  # drops the component axis of m >= 2
        return np.zeros(shape if m == 1 else shape[:-1])

    def grad(y):
        return np.zeros(np.shape(y))

    return Potential(name="zero()", m=m, value=value, grad=grad, bound=0.0,
                     regularity=C1_UNIFORM, grad_lipschitz=0.0)


def linear_taper_family() -> RegularizedFamily:
    """Regularization of clipped_quadratic(1) with exact piecewise gradient.

    The member gradient keeps the linear shape (2-e)u on |u| <= 1, ramps
    linearly down to zero across 1 <= |u| <= 1+e, and vanishes beyond, so the
    transition zone sits entirely outside the unit interval. Member values
    are the antiderivative normalized by W_e(0) = 0, which makes every
    member nonnegative and constant outside [-1-e, 1+e].
    """
    base = clipped_quadratic(1.0)

    def make(eps: float) -> Potential:
        eps = float(eps)
        if not 0.0 < eps < 2.0:
            raise ParameterError("eps", f"taper width must lie in (0, 2), got {eps}")
        slope = 2.0 - eps
        plateau = 1.0 + 0.5 * eps - 0.5 * eps * eps

        def grad(u):
            u = np.asarray(u, dtype=float)
            a = np.abs(u)
            # a field wholly on the zero piece, like the flat states 1 + eps, takes +0 alone
            # (NaN, 0-d and empty input keep the chain); experiments' steps: 1.25x without it
            if a.ndim and a.size and np.minimum.reduce(a, axis=None) >= 1.0 + eps:
                return np.zeros(u.shape)
            # both pieces on |u| clipped at 1 + eps: they keep their bits where
            # they are taken (copysign gives u back there, -0 and NaN
            # included), and neither overflows where the zero piece is
            c = np.minimum(a, 1.0 + eps)
            ramp = np.sign(u) * (slope / eps) * (1.0 + eps - c)
            return np.where(a <= 1.0, slope * np.copysign(c, u),
                            np.where(a < 1.0 + eps, ramp, 0.0))

        def value(u):
            a = np.abs(np.asarray(u, dtype=float))
            # clipped at 1 + eps: the pieces keep their bits where they are
            # taken, and no square overflows where the plateau is
            c = np.minimum(a, 1.0 + eps)
            inner = 0.5 * slope * c * c
            mid = 0.5 * slope + (slope / eps) * ((1.0 + eps) * (c - 1.0)
                                                 - 0.5 * (c * c - 1.0))
            return np.where(a <= 1.0, inner,
                            np.where(a < 1.0 + eps, mid, plateau))

        return Potential(
            name=f"linear_taper(eps={eps:g})",
            m=1,
            value=value,
            grad=grad,
            bound=max(plateau, slope),
            regularity=C1_UNIFORM,
            grad_lipschitz=max(slope, slope / eps),
            profile=Profile(value, grad, (-1.0 - eps, -1.0, 1.0, 1.0 + eps)),
        )

    return RegularizedFamily(
        name="linear_taper",
        base=base,
        make=make,
        grad_region=lambda eps: 1.0,
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _kernel_pair(t: np.ndarray) -> tuple:
    # C-infinity bump phi(t) = exp(-1/(1-t^2)) on (-1, 1), unnormalized, and
    # its derivative phi(t) * (-2t) / (1 - t^2)^2, from one exp
    inside = np.abs(t) < 1.0
    arg = np.where(inside, 1.0 - t * t, 1.0)
    phi = np.exp(-1.0 / arg)
    return np.where(inside, phi, 0.0), np.where(inside, phi * (-2.0 * t) / (arg * arg), 0.0)


_MAX_LATTICE = 60000


def _cubic_pieces(y: np.ndarray, d: np.ndarray, step: float) -> tuple:
    """Per-cell coefficients (c3, c2, c1, c0) of the cubic Hermite pieces
    through the lattice values ``y`` and slopes ``d``, in the local
    coordinate t = (x - x_i) / step of cell i."""
    m0, m1 = step * d[:-1], step * d[1:]
    dy = y[1:] - y[:-1]
    return m0 + m1 - 2.0 * dy, 3.0 * dy - 2.0 * m0 - m1, m0, y[:-1]


class MollifiedProfile:
    """Profile convolved with a compact bump of the given radius.

    The smoothed profile and its first two derivatives are evaluated on a
    lattice with quadrature segments split at every kink crossing (so each
    segment integrates a smooth function), then interpolated with cubic
    Hermite pieces fed by the exact lattice derivatives. Each piece is kept
    as its four per-cell coefficients and evaluated with Horner's rule.
    Where the source window sees a single polynomial piece the construction
    is exact: in particular the smoothed gradient equals the original one
    on the deep interior of the quadratic region.

    The lattice holds at most 60000 points; a radius too small to get
    ``points_per_radius`` points under that cap raises ``ValueError``.
    """

    def __init__(self, profile: Profile, radius: float, points_per_radius: int = 32):
        if radius <= 0:
            raise ValueError("mollification radius must be positive")
        self.radius = float(radius)
        knots = sorted(profile.knots) if profile.knots else [0.0]
        step = self.radius / points_per_radius
        lo = knots[0] - 2.0 * self.radius - 2.0 * step
        hi = knots[-1] + 2.0 * self.radius + 2.0 * step
        count = int(math.ceil((hi - lo) / step)) + 1
        if count > _MAX_LATTICE:
            capped = self.radius * (_MAX_LATTICE - 1) / (hi - lo)
            raise ValueError(
                f"mollification radius {self.radius:g} needs {count} lattice points "
                f"at {points_per_radius} points per radius; the {_MAX_LATTICE}-point "
                f"lattice cap would give only {capped:.1f} points per radius")
        grid = lo + step * np.arange(count)
        self.lo, self.hi, self.step = lo, float(grid[-1]), step
        val, grd, grd2 = self._build(profile, grid)
        self.grad_lipschitz = float(np.max(np.abs(grd2)))
        self._value_pieces = _cubic_pieces(val, grd, step)
        self._grad_pieces = _cubic_pieces(grd, grd2, step)
        for c in self._value_pieces + self._grad_pieces:
            c.flags.writeable = False

    def _build(self, profile: Profile, u: np.ndarray):
        r = self.radius
        knots = np.asarray(profile.knots, dtype=float)
        # Group lattice points by which kinks fall inside their source window,
        # one integer code per pattern; inside a group the quadrature
        # subdivision has one fixed layout.
        bit = 2 ** np.arange(knots.size)[::-1]
        codes = (np.abs(u[:, None] - knots[None, :]) < r) @ bit
        val = np.zeros_like(u)
        grd = np.zeros_like(u)
        grd2 = np.zeros_like(u)
        for code in np.unique(codes):
            sel = codes == code
            uu = u[sel]
            active = knots[(code & bit) != 0]
            # a kink-free window is the one segment [-1, 1] for every row:
            # one row of bounds, whose nodes broadcast against the sources
            cuts = np.sort((uu[:, None] - active[None, :]) / r, axis=1) \
                if active.size else np.empty((1, 0))
            ends = np.ones((cuts.shape[0], 1))
            bounds = np.concatenate([-ends, cuts, ends], axis=1)
            acc = [np.zeros_like(uu) for _ in range(5)]
            for j in range(bounds.shape[1] - 1):
                a, b = bounds[:, j], bounds[:, j + 1]
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
                wq = half[:, None] * _GL_WEIGHTS[None, :]
                phi, kd1 = _kernel_pair(t)
                w = wq * phi
                src = uu[:, None] - r * t
                gsrc = profile.grad(src)
                acc[0] += np.sum(w * profile.value(src), axis=1)
                acc[1] += np.sum(w * gsrc, axis=1)
                # second derivative via the differentiated kernel; the
                # gradient jumps at the knots would otherwise be lost
                acc[2] += np.sum(wq * kd1 * gsrc, axis=1)
                acc[3] += np.sum(w, axis=1)
                # -int t phi'(t) equals int phi; normalizing the rule above
                # by its own discrete value keeps linear gradients exact
                acc[4] += np.sum(-wq * t * kd1, axis=1)
            val[sel] = acc[0] / acc[3]
            grd[sel] = acc[1] / acc[3]
            grd2[sel] = acc[2] / (r * acc[4])
        return val, grd, grd2

    def _horner(self, x, pieces):
        # cell index and local coordinate once, then Horner's rule; np.clip costs about
        # 1 us more a call at 32 to 512 points, and experiments' steps 1.03x with it
        x = np.asarray(x, dtype=float)
        t = np.maximum(x, self.lo, out=np.empty_like(x))
        np.minimum(t, self.hi, out=t)
        t -= self.lo
        t /= self.step
        # fmax gives t for finite input and index 0 for NaN, which stays NaN
        i = np.fmax(t, 0.0, out=np.empty_like(t)).astype(np.intp)
        np.minimum(i, pieces[0].size - 1, out=i)
        t -= i
        c3, c2, c1, c0 = pieces
        out = c3[i]
        out *= t
        out += c2[i]
        out *= t
        out += c1[i]
        out *= t
        out += c0[i]
        return out[()]

    def value(self, x):
        return self._horner(x, self._value_pieces)

    def grad(self, x):
        return self._horner(x, self._grad_pieces)


def mollified_family(base: Potential, kernel_width_ratio: float = 1.0) -> RegularizedFamily:
    """Family built by convolving ``base`` with bumps of radius eps * ratio.

    Scalar potentials are smoothed directly; for m >= 2 the (radial) base is
    smoothed through its one-dimensional profile, which preserves radial
    symmetry and the uniform gradient bound. The family mode follows the
    base regularity: a base with continuous gradient yields a uniform-c1
    family, a base with gradient jumps yields a pointwise-offcritical one
    whose certified gradient region keeps a distance of two kernel radii
    from the critical set. Members keep the base's ``critical_distance``,
    but not its ``profile``. ``make`` builds each member once, with
    read-only coefficient arrays, and memoises it; an eps it cannot build,
    such as one whose kernel radius the lattice cap cannot resolve, raises
    :class:`ParameterError` naming ``eps``.
    """
    if base.profile is None:
        raise ValueError(f"{base.name} exposes no one-dimensional profile to smooth")
    ratio = float(kernel_width_ratio)
    if not 0 < ratio < math.inf:
        raise ValueError("kernel_width_ratio must be positive and finite")

    def make(eps: float) -> Potential:
        eps = float(eps)
        if not 0 < eps < math.inf:
            raise ParameterError("eps", "eps must be positive and finite")
        try:
            return member(eps)
        except ValueError as exc:  # a kernel radius the lattice cannot resolve
            raise ParameterError("eps", str(exc)) from None

    @cache
    def member(eps: float) -> Potential:
        prof = MollifiedProfile(base.profile, eps * ratio)
        value, grad = _radial(prof, base.m)
        return Potential(
            name=f"mollified({base.name}, ratio={ratio:g}, eps={eps:g})",
            m=base.m,
            value=value,
            grad=grad,
            bound=base.bound,
            regularity=C1_UNIFORM,
            grad_lipschitz=prof.grad_lipschitz,
            critical_distance=base.critical_distance,
        )

    if base.regularity == C1_UNIFORM:
        region = lambda eps: math.inf
    else:
        inner = min(abs(k) for k in base.profile.knots) if base.profile.knots else math.inf
        region = lambda eps: inner - 2.0 * eps * ratio

    return RegularizedFamily(
        name=f"mollified({base.name}, ratio={ratio:g})",
        base=base,
        make=make,
        grad_region=region,
    )


def constant_family(potential: Potential) -> RegularizedFamily:
    """Degenerate family W_e = W for potentials that are already smooth."""
    if potential.regularity != C1_UNIFORM:
        raise ValueError("constant families need a c1-uniform potential")
    return RegularizedFamily(
        name=f"constant({potential.name})",
        base=potential,
        make=lambda eps: potential,
        grad_region=lambda eps: math.inf,
    )


def _sample_states(m: int, rng: np.random.Generator, samples: int,
                   reach: float) -> np.ndarray:
    """Global sample cloud: dense radial structure plus random points."""
    if m == 1:
        dense = np.linspace(-reach, reach, 1601)
        ball = np.linspace(-1.0, 1.0, 801)
        rand = rng.uniform(-reach, reach, samples)
        return np.concatenate([dense, ball, rand])
    radii = np.concatenate([np.linspace(0.0, reach, 401),
                            np.linspace(0.0, 1.0, 201)])
    dirs = rng.standard_normal((radii.size, m))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs[: m] = np.eye(m)[: min(m, dirs.shape[0])]
    structured = radii[:, None] * dirs
    rand = rng.uniform(-reach, reach, (samples, m))
    return np.concatenate([structured, rand], axis=0)


def _lipschitz_estimate(pot: Potential, pts: np.ndarray, grad: np.ndarray,
                        rng: np.random.Generator) -> float:
    """Largest sampled slope of ``pot.grad``, given its values ``grad`` at ``pts``."""
    if pot.m == 1:
        order = np.argsort(pts)
        u = pts[order]
        du = np.diff(u)
        keep = du > 1e-9
        slopes = np.abs(np.diff(grad[order]))[keep] / du[keep]
        return float(np.max(slopes)) if slopes.size else 0.0
    b = pts + rng.normal(scale=1e-3, size=pts.shape)
    num = np.linalg.norm(grad - pot.grad(b), axis=-1)
    den = np.linalg.norm(pts - b, axis=-1)
    keep = den > 1e-9
    return float(np.max(num[keep] / den[keep]))


def certify_family(family: RegularizedFamily, eps_list, samples: int = 4096,
                   seed: int = 0) -> ExperimentReport:
    """Certify ``family`` along ``eps_list``: a report named ``family.name``
    with parameters ``{"mode": family.mode}`` and, one entry per eps, the
    series ``eps``, ``sup_W_dist`` (sup|W_e - W|), ``sup_grad_dist`` (the
    gradient deviation), ``lipschitz`` (a sampled Lipschitz constant of
    grad W_e) and ``grad_bound`` (sup|grad W_e|), certification.csv's columns.

    The gradient deviation is taken over the ball of radius
    ``family.grad_region(eps)`` in pointwise-offcritical mode and over the
    whole sample cloud in uniform-c1 mode. Both sup distances must decrease
    along ``eps_list`` within 10 percent plus a rounding floor, max(1e-15,
    8 * 2^-52 * ``family.base.bound``), which the printed threshold leaves out.
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ParameterError("eps_list", "eps_list must be nonempty")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError("eps_list", "eps_list must be strictly decreasing")
    base = family.base
    rng = np.random.default_rng(seed)
    reach = (max(abs(k) for k in base.profile.knots) + 2.0) if base.profile \
        and base.profile.knots else 3.0
    pts = _sample_states(base.m, rng, samples, reach)
    radius = _radius(pts, base.m)
    base_val = base.value(pts)
    base_grad = base.grad(pts)

    series = {"eps": eps_list, "sup_W_dist": [], "sup_grad_dist": [], "lipschitz": [],
              "grad_bound": []}
    cert = ExperimentReport(family.name, parameters={"mode": family.mode}, series=series)
    for eps in eps_list:
        member = family.make(eps)
        member_val = member.value(pts)
        member_grad = member.grad(pts)
        in_region = radius <= family.grad_region(eps) + 1e-12
        dev = _radius(member_grad - base_grad, base.m)
        grad_gap = float(np.max(dev[in_region])) if np.any(in_region) else 0.0
        series["sup_W_dist"].append(float(np.max(np.abs(member_val - base_val))))
        series["sup_grad_dist"].append(grad_gap)
        series["lipschitz"].append(_lipschitz_estimate(member, pts, member_grad, rng))
        series["grad_bound"].append(float(np.max(_radius(member_grad, base.m))))
        min_val = float(np.min(member_val))
        cert.check(f"nonnegative(eps={eps:g})", min_val >= -1e-12, min_val, 0.0, ">=")
        top = max(float(np.max(member_val)), series["grad_bound"][-1])
        cert.check(f"uniform_bound(eps={eps:g})", top <= member.bound + 1e-12,
                   top, member.bound)
    # a gap measured as 0 may be followed by one of pure rounding noise
    floor = max(1e-15, 8.0 * math.ulp(1.0) * base.bound)
    for label, key in (("value_gap", "sup_W_dist"), ("grad_gap", "sup_grad_dist")):
        seq = series[key]
        for i in range(len(eps_list) - 1):
            cert.check(f"monotone_{label}({eps_list[i]:g}->{eps_list[i + 1]:g})",
                       seq[i + 1] <= 1.1 * seq[i] + floor, seq[i + 1], 1.1 * seq[i])
    return cert
