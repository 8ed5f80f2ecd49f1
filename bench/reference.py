"""Reference fingerprints for the integration workloads.

The integration workloads draw their inputs from ``seed % SEEDS``, so every
seed has a stored reference. ``references.json`` holds, per workload and
input variant, the energy series, final L2 norm and final max |u| computed
by :func:`integrate`, a plain NumPy kick-drift-kick integrator written
independently of adwave's ``spectral`` and ``dynamics`` modules (it takes
only the domain geometry, the initial data and the potential from adwave).
Before a table is stored, the potential itself is checked against a direct
quadrature of the smoothed profile (:func:`potential_mismatches`). A run
compares its output with the stored entry; agreement is required to a
relative 1e-9: rounding-level changes such as a real-to-complex transform
pass, different physics fails.

Regenerate the stored table (and confirm adwave agrees on every variant)
with

    python3 bench/reference.py
"""
from __future__ import annotations

import json
import math
import os
import sys
import warnings

import numpy as np
from scipy import integrate as quad_

RTOL = 1e-9
SEEDS = 64   # input variants per workload, all stored in the table
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# Tolerances of the quadrature check. The lattice-and-Hermite construction
# of a mollified member is accurate to about 5e-8 in value and 7e-7 in
# gradient at 32 lattice points per radius; halving the lattice density
# raises the gradient error to about 5e-6, linear interpolation to 4e-4.
VALUE_ATOL = 2e-7
GRAD_ATOL = 2e-6
LIPSCHITZ_RTOL = 1e-3


def integrate(domain, potential, u0, v0, T: float, record_every: int) -> dict:
    """Fingerprint of the exterior-dirichlet Verlet run of (u0, v0) to T.

    The step is the largest below 0.9 * 2 / sqrt(lambda_max + Lip(grad W))
    that divides T; energies are recorded every ``record_every`` steps and
    at the end.
    """
    d = domain.d
    ksq = 0.0
    for ax, (L, n) in enumerate(zip(domain.box_extent, domain.n)):
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        view = [1] * d
        view[ax] = n
        ksq = ksq + (xi ** 2).reshape(view)
    symbol = ksq ** domain.s
    dt_max = 0.9 * 2.0 / math.sqrt(float(np.max(symbol)) + potential.grad_lipschitz)
    nsteps = max(1, math.ceil(T / dt_max - 1e-12))
    dt = T / nsteps
    vector = np.ndim(u0) == d + 1
    mult = symbol[..., None] if vector else symbol
    mask = domain.interior_mask[..., None] if vector else domain.interior_mask
    axes = tuple(range(d))
    vol = math.prod(domain.h)
    npoints = math.prod(domain.n)

    def force(u):
        return -np.fft.ifftn(mult * np.fft.fftn(u, axes=axes), axes=axes).real - potential.grad(u)

    def energy(u, v):
        uhat = np.fft.fftn(u, axes=axes)
        elastic = 0.5 * float(np.sum(mult * np.abs(uhat) ** 2)) * vol / npoints
        adhesive = float(np.sum(potential.value(u) * domain.interior_mask)) * vol
        return 0.5 * float(np.sum(v * v)) * vol + elastic + adhesive

    u, v = np.array(u0, dtype=float), np.array(v0, dtype=float)
    energies = [energy(u, v)]
    for i in range(1, nsteps + 1):
        vh = v + 0.5 * dt * force(u)
        u = (u + dt * vh) * mask
        v = (vh + 0.5 * dt * force(u)) * mask
        if i % record_every == 0 or i == nsteps:
            energies.append(energy(u, v))
    return {"energy": energies,
            "l2_final": math.sqrt(float(np.sum(u * u)) * vol),
            "max_abs_final": float(np.max(np.abs(u)))}


def integrate_config(config) -> dict:
    return integrate(config.domain, config.potential, config.u0, config.v0,
                     config.T, config.record_every)


def _bump(t: float) -> float:
    return math.exp(-1.0 / (1.0 - t * t)) if abs(t) < 1.0 else 0.0


def _bump_d1(t: float) -> float:
    if abs(t) >= 1.0:
        return 0.0
    a = 1.0 - t * t
    return math.exp(-1.0 / a) * (-2.0 * t) / (a * a)


def smoothed_clipped_quadratic(x: float, radius: float) -> tuple[float, float, float]:
    """Value, first and second derivative at ``x`` of min(u^2, 1) convolved
    with the normalised bump exp(-1/(1-t^2)) of the given radius, each by
    adaptive quadrature split at the kinks u = -1, 1."""
    def w(u):
        return u * u if abs(u) <= 1.0 else 1.0

    def dw(u):
        return 2.0 * u if abs(u) <= 1.0 else 0.0

    cuts = [t for t in ((x - 1.0) / radius, (x + 1.0) / radius) if -1.0 < t < 1.0]
    opts = dict(points=cuts or None, epsabs=1e-15, epsrel=1e-13, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", quad_.IntegrationWarning)
        norm = quad_.quad(_bump, -1.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
        value = quad_.quad(lambda t: _bump(t) * w(x - radius * t), -1.0, 1.0, **opts)[0]
        grad = quad_.quad(lambda t: _bump(t) * dw(x - radius * t), -1.0, 1.0, **opts)[0]
        curv = quad_.quad(lambda t: _bump_d1(t) * dw(x - radius * t), -1.0, 1.0, **opts)[0]
    return value / norm, grad / norm, curv / (radius * norm)


def potential_mismatches(member, radius: float) -> list[str]:
    """Where a mollified clipped_quadratic(1) or ball(m) member, smoothed
    with the given radius, differs from :func:`smoothed_clipped_quadratic`:
    value and gradient at 241 radii in [0, 1.6] (along a fixed direction
    for m >= 2, and at -r for m = 1), and ``grad_lipschitz`` against the
    largest second derivative on a 0.0005 grid across the kink."""
    radii = np.linspace(0.0, 1.6, 241) + 0.0011
    want = np.array([smoothed_clipped_quadratic(float(r), radius) for r in radii])
    if member.m == 1:
        points = np.concatenate([radii, -radii])
        want_value = np.concatenate([want[:, 0], want[:, 0]])
        want_grad = np.concatenate([want[:, 1], -want[:, 1]])
    else:
        direction = np.arange(1.0, member.m + 1.0)
        direction /= np.linalg.norm(direction)
        points = radii[:, None] * direction
        want_value = want[:, 0]
        want_grad = want[:, 1, None] * direction
    out = []
    value_err = float(np.max(np.abs(member.value(points) - want_value)))
    grad_err = float(np.max(np.abs(member.grad(points) - want_grad)))
    if not value_err <= VALUE_ATOL:
        out.append(f"{member.name}: value off the quadrature by {value_err:.3g}")
    if not grad_err <= GRAD_ATOL:
        out.append(f"{member.name}: grad off the quadrature by {grad_err:.3g}")
    kink = np.arange(1.0 - 1.5 * radius, 1.0 + 1.5 * radius, 0.0005)
    lip = max(abs(smoothed_clipped_quadratic(float(r), radius)[2]) for r in kink)
    if not abs(member.grad_lipschitz - lip) <= LIPSCHITZ_RTOL * lip:
        out.append(f"{member.name}: grad_lipschitz {member.grad_lipschitz:.6g}, "
                   f"quadrature {lip:.6g}")
    return out


def mismatches(got: dict, want: dict, rtol: float = RTOL) -> list[str]:
    """Fingerprint entries that differ by more than ``rtol`` relative."""
    def close(a, b):
        return abs(a - b) <= rtol * max(abs(a), abs(b))

    out = []
    if len(got["energy"]) != len(want["energy"]):
        out.append(f"energy series has {len(got['energy'])} entries, "
                   f"reference {len(want['energy'])}")
    elif not all(close(a, b) for a, b in zip(got["energy"], want["energy"])):
        out.append("energy series differs from the reference")
    for key in ("l2_final", "max_abs_final"):
        if not close(got[key], want[key]):
            out.append(f"{key} {got[key]!r} differs from the reference {want[key]!r}")
    return out


def expected(workload: str, seed: int) -> dict:
    """The stored fingerprint of ``workload`` for ``seed``'s input variant.

    Raises KeyError when the table has none.
    """
    with open(TABLE) as fh:
        table = json.load(fh)
    return table[workload][str(seed % SEEDS)]


def main() -> int:
    import run
    import workloads
    adwave = run.import_adwave(run.ROOT)
    scratch = os.path.join(run.ROOT, run.RUNS_DIR, "references")
    table = {}
    for name in workloads.FINGERPRINTED:
        config = workloads.make(name, adwave, 0, scratch).setup()
        bad = potential_mismatches(config.potential, workloads.EPS)
        if bad:
            print(f"{name}: {bad}", file=sys.stderr)
            return 1
        table[name] = {}
        for seed in range(SEEDS):
            wl = workloads.make(name, adwave, seed, scratch)
            config = wl.setup()
            want = integrate_config(config)
            bad = mismatches(wl.fingerprint(wl.run(config)), want)
            if bad:
                print(f"{name} seed {seed}: adwave disagrees: {bad}", file=sys.stderr)
                return 1
            table[name][str(seed)] = want
            print(f"{name} seed {seed}: ok", flush=True)
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
