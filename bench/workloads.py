"""The benchmark's four workloads, their seeded inputs and correctness gates.

Each workload object offers:

* ``setup()``: build a run's inputs through adwave's public constructors;
  its wall time is one ``setup_s`` sample.
* ``run(inputs)``: one iteration as a user would run it, returning its
  output.
* ``check(out)``: the per-iteration correctness gate, a list of failure
  messages (empty when the iteration passed), at most one per operation.
* ``ops``: operations one iteration attempts (``fail_ratio`` denominator).
* ``identity(out)``: must repeat exactly between iterations.
* ``fingerprint(out)``: energy series, final L2 norm and final max |u|,
  compared with the reference (None for the experiments).

``setup_feeds_run`` says whether ``run`` consumes what ``setup`` built; only
then is setup part of the iteration's wall time. The CLI and experiments
workloads rebuild their own inputs inside the call a user makes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

import reference

EPS = 0.1           # mollification parameter of the integration workloads
OMEGA = 2.0 * math.pi
EXPERIMENT_NAMES = ("energy-inequality", "epsilon-convergence",
                    "limit-obstruction", "small-data", "dispersion")


def band_limited(rng: np.random.Generator, shape: tuple, band: int) -> np.ndarray:
    """Real random field with Fourier modes |k_i| <= band, scaled to max 1."""
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax, m in enumerate(shape):
        k = np.minimum(np.arange(m), m - np.arange(m))
        view = [1] * len(shape)
        view[ax] = m
        spec = spec * (k <= band).reshape(view)
    f = np.fft.ifftn(spec).real
    return f / float(np.max(np.abs(f)))


def seeded_data(dyn, domain, m: int, seed: int) -> np.ndarray:
    """Initial displacement from the seed: a bump of amplitude in
    [1.25, 1.35] (above the critical level 1, so the run crosses the kink),
    centre shifted by up to 5 % of Omega per axis, plus a 2 % band-limited
    perturbation under a smooth envelope that vanishes outside Omega.
    For m = 2 the second component is 0.6 times the first bump."""
    rng = np.random.default_rng(seed)
    amplitude = rng.uniform(1.25, 1.35)
    centre = [0.5 * (lo + hi) + rng.uniform(-0.05, 0.05) * (hi - lo)
              for lo, hi in domain.omega_bounds]
    bump = dyn.bump_field(domain, amplitude, 0.6, centre)
    envelope = dyn.bump_field(domain, 1.0, 0.8)
    comps = [scale * bump + 0.02 * amplitude * envelope * band_limited(rng, domain.n, 4)
             for scale in (1.0, 0.6)[:m]]
    return comps[0] if m == 1 else np.stack(comps, axis=-1)


def field_fingerprint(energies, u, cell_volume: float) -> dict:
    return {"energy": [float(e) for e in energies],
            "l2_final": math.sqrt(float(np.sum(u * u)) * cell_volume),
            "max_abs_final": float(np.max(np.abs(u)))}


class FieldWorkload:
    """``dyn.simulate`` on a seeded bump with a mollified adhesive potential,
    exterior-dirichlet mode, s = 1, Omega of side 2 pi in a box twice as
    wide."""

    setup_feeds_run = True
    ops = 1

    def __init__(self, adwave, seed: int, workdir: str, *, d: int, n: int,
                 m: int, T: float, record_every: int):
        self.aw, self.seed = adwave, seed
        self.d, self.n, self.m, self.T, self.record_every = d, n, m, T, record_every

    def setup(self):
        sp, pot, dyn = self.aw.spectral, self.aw.potentials, self.aw.dynamics
        domain = sp.Domain(d=self.d, s=1.0, omega_extent=OMEGA, n=self.n, pad_factor=2.0)
        base = pot.clipped_quadratic(1.0) if self.m == 1 else pot.ball_potential(self.m)
        member = pot.mollified_family(base).make(EPS)
        op = sp.build_operator(domain)
        dt = self.aw.experiments.fitted_dt(self.T, 0.9 * dyn.stability_limit(op, member))
        u0 = seeded_data(dyn, domain, self.m, self.seed)
        return dyn.SimConfig(domain=domain, potential=member, T=self.T, dt=dt, u0=u0,
                             v0=np.zeros_like(u0), record_every=self.record_every)

    def run(self, config):
        traj = self.aw.dynamics.simulate(config)
        return traj, field_fingerprint(traj.totals, traj.states[-1].u,
                                       config.domain.cell_volume)

    def fingerprint(self, out) -> dict:
        return out[1]

    identity = fingerprint

    def check(self, out) -> list[str]:
        traj = out[0]
        cfg = traj.config
        outside = ~cfg.domain.interior_mask
        failures = []
        for st in traj.states:
            if np.any(st.u[outside] != 0.0) or np.any(st.v[outside] != 0.0):
                failures.append(f"nonzero exterior at t = {st.t:g}")
                break
        drift = float(np.max(np.abs(traj.totals - traj.totals[0])))
        tol = self.aw.dynamics.energy_drift_tolerance(cfg)
        if not drift <= tol:
            failures.append(f"energy drift {drift:g} above tolerance {tol:g}")
        return failures[:1]


CLI_TEMPLATE = """\
[domain]
d = 2
s = 1.0
omega_extent = {omega!r}, {omega!r}
n = 128, 128
pad_factor = 2.0

[potential]
kind = mollified(base=clipped_quadratic(u_star=1.0), eps={eps!r})

[data]
u0 = bump(amplitude={amplitude!r}, width_frac={width!r})
v0 = zero()

[simulation]
T = 4.0
record_every = 5
"""


class CliWorkload:
    """``adwave simulate`` through ``cli.main`` on a 2-D 128^2 config whose
    bump amplitude and width come from the seed; writes trajectory.csv and
    energy.csv."""

    setup_feeds_run = False
    ops = 1
    header = "t,idx0,idx1,comp,value"

    def __init__(self, adwave, seed: int, workdir: str):
        self.aw = adwave
        rng = np.random.default_rng(seed)
        self.text = CLI_TEMPLATE.format(omega=OMEGA, eps=EPS,
                                        amplitude=round(rng.uniform(1.25, 1.35), 6),
                                        width=round(rng.uniform(0.59, 0.61), 6))
        self.out_dir = os.path.join(workdir, "cli-out")
        self.config_path = os.path.join(workdir, "simulate.ini")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w") as fh:
            fh.write(self.text)

    def setup(self):
        return self.aw.cli.parse_config(self.text).build_simconfig()

    def run(self, config):
        """The CLI call; ``config`` (what setup built from the same text) is
        passed through for the checks."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.aw.cli.main(["simulate", self.config_path, "--out", self.out_dir])
        return rc, config

    def _files(self):
        with open(os.path.join(self.out_dir, "trajectory.csv"), "rb") as fh:
            traj = fh.read()
        with open(os.path.join(self.out_dir, "energy.csv"), "rb") as fh:
            energy = fh.read()
        return traj, energy

    def identity(self, out):
        traj, energy = self._files()
        return hashlib.sha256(traj).hexdigest(), hashlib.sha256(energy).hexdigest()

    @staticmethod
    def _final(traj: bytes, points: int) -> np.ndarray:
        tail = traj.rsplit(b"\n", points + 1)[1:]
        return np.array([float(line.rsplit(b",", 1)[1]) for line in tail if line])

    @staticmethod
    def _totals(energy: bytes) -> np.ndarray:
        lines = energy.decode().splitlines()[1:]
        return np.array([float(line.rsplit(",", 1)[1]) for line in lines])

    @staticmethod
    def expected_rows(cfg) -> int:
        nsteps = max(1, round(cfg.T / cfg.dt))
        snaps = 1 + nsteps // cfg.record_every + (1 if nsteps % cfg.record_every else 0)
        return snaps * math.prod(cfg.domain.n)

    def check(self, out) -> list[str]:
        rc, cfg = out
        if rc != 0:
            return [f"adwave simulate exited with {rc}"]
        traj, energy = self._files()
        first_line = traj.split(b"\n", 1)[0].decode()
        if first_line != self.header:
            return [f"trajectory.csv header {first_line!r}"]
        rows, expected = traj.count(b"\n") - 1, self.expected_rows(cfg)
        if rows != expected:
            return [f"trajectory.csv has {rows} rows, expected {expected}"]
        final = self._final(traj, math.prod(cfg.domain.n)).reshape(cfg.domain.n)
        if np.any(final[~cfg.domain.interior_mask] != 0.0):
            return ["nonzero exterior in the final snapshot"]
        totals = self._totals(energy)
        drift = float(np.max(np.abs(totals - totals[0])))
        tol = self.aw.dynamics.energy_drift_tolerance(cfg)
        if not drift <= tol:
            return [f"energy drift {drift:g} above tolerance {tol:g}"]
        return []

    def fingerprint(self, out) -> dict:
        traj, energy = self._files()
        domain = out[1].domain
        return field_fingerprint(self._totals(energy),
                                 self._final(traj, math.prod(domain.n)), domain.cell_volume)


class ExperimentsWorkload:
    """The five named experiments at their CLI defaults, run through the
    CLI registry with an output directory so CSV and SVG files are written.
    The seed fixes the order in which they run; their inputs are the CLI
    defaults."""

    setup_feeds_run = False
    ops = len(EXPERIMENT_NAMES)

    def __init__(self, adwave, seed: int, workdir: str):
        self.aw = adwave
        order = np.random.default_rng(seed).permutation(len(EXPERIMENT_NAMES))
        self.order = [EXPERIMENT_NAMES[i] for i in order]
        self.out_dir = os.path.join(workdir, "experiments-out")

    def setup(self):
        """The mollified members the experiments build: energy-inequality
        (eps 0.1), small-data (eps 0.05) and epsilon-convergence (kernel
        ratio 2, four eps)."""
        pot = self.aw.potentials
        narrow = pot.mollified_family(pot.clipped_quadratic(1.0))
        wide = pot.mollified_family(pot.clipped_quadratic(1.0), kernel_width_ratio=2.0)
        return ([narrow.make(0.1), narrow.make(0.05)]
                + [wide.make(e) for e in (0.2, 0.1, 0.05, 0.025)])

    def run(self, _inputs):
        cli = self.aw.cli
        return [cli.EXPERIMENTS[name](cli.RunSpec(), os.path.join(self.out_dir, name))
                for name in self.order]

    def identity(self, reports):
        return json.dumps([r.to_dict() for r in reports], sort_keys=True)

    def check(self, reports) -> list[str]:
        return [f"{r.name}: {r.first_failure}" for r in reports if not r.passed]

    fingerprint = None


def make(name: str, adwave, seed: int, workdir: str):
    """The workload ``name`` with the inputs of ``seed``'s variant,
    ``seed % reference.SEEDS``, for which a reference is stored."""
    seed %= reference.SEEDS
    if name == "scalar-2d":
        return FieldWorkload(adwave, seed, workdir, d=2, n=256, m=1, T=1.0,
                             record_every=1000)
    if name == "vector-3d":
        return FieldWorkload(adwave, seed, workdir, d=3, n=64, m=2, T=1.0,
                             record_every=2)
    if name == "cli-simulate":
        return CliWorkload(adwave, seed, workdir)
    if name == "experiments":
        return ExperimentsWorkload(adwave, seed, workdir)
    raise KeyError(name)


NAMES = ("scalar-2d", "vector-3d", "cli-simulate", "experiments")
FINGERPRINTED = ("scalar-2d", "vector-3d", "cli-simulate")
