"""Command-line front end: config parsing, dispatch, deterministic output.

Configuration files are flat INI-style text: ``[section]`` headers and
``key = value`` lines, with ``#`` comments. Unknown sections or keys are
rejected with line-anchored diagnostics, and every physical parameter is
validated against the module invariants before any computation starts.

Exit codes: 0 pass, 1 assertion failure, 2 configuration error,
3 numerical blow-up.

Environment: ``ADWAVE_OUT`` overrides the output directory, ``ADWAVE_WORKERS``
sets the fan-out width for sweeps and per-parameter experiment runs.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import experiments as ex
from . import potentials as pot
from . import spectral as sp
from .reporting import fmt, write_csv


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# descriptors: name(key=value, ...), values may be nested descriptors

@dataclass(frozen=True)
class Descriptor:
    kind: str
    args: tuple  # ordered (key, value) pairs; values: float | int | Descriptor

    def __str__(self):
        inner = ", ".join(f"{k}={_fmt_arg(v)}" for k, v in self.args)
        return f"{self.kind}({inner})"

    def get(self, key, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


def _fmt_arg(v):
    if isinstance(v, Descriptor):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _split_top_level(text: str) -> list[str]:
    """``text`` split at the commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_descriptor(text: str, line: int | None = None) -> Descriptor:
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ConfigError(f"malformed descriptor {text!r}, expected name(...)", line)
    kind, _, inner = text.partition("(")
    kind = kind.strip()
    inner = inner[:-1]
    args = []
    for part in _split_top_level(inner):
        if "=" not in part:
            raise ConfigError(f"descriptor argument {part!r} must be key=value", line)
        key, _, raw = part.partition("=")
        raw = raw.strip()
        if "(" in raw:
            value = parse_descriptor(raw, line)
        else:
            try:
                value = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
            except ValueError:
                raise ConfigError(f"descriptor argument {key.strip()}={raw!r} "
                                  "is not numeric", line) from None
        args.append((key.strip(), value))
    return Descriptor(kind, tuple(args))


def _whole(desc: Descriptor, key: str, default: int) -> int:
    """Descriptor argument ``key`` as an int; rejects a fractional or non-finite value."""
    value = desc.get(key, default)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def build_potential(desc: Descriptor, line: int | None = None) -> pot.Potential:
    try:
        if desc.kind == "clipped_quadratic":
            return pot.clipped_quadratic(desc.get("u_star", 1.0))
        if desc.kind == "ball":
            return pot.ball_potential(_whole(desc, "m", 1))
        if desc.kind == "zero":
            return pot.zero_potential(_whole(desc, "m", 1))
        if desc.kind == "linear_taper":
            return pot.linear_taper_family().make(desc.get("eps"))
        if desc.kind == "mollified":
            base = desc.get("base", Descriptor("clipped_quadratic", (("u_star", 1.0),)))
            fam = pot.mollified_family(build_potential(base, line),
                                       desc.get("ratio", 1.0))
            return fam.make(desc.get("eps"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid potential {desc}: {exc}", line) from None
    raise ConfigError(f"unknown potential kind {desc.kind!r}", line)


def build_family(desc: Descriptor, line: int | None = None) -> pot.RegularizedFamily:
    try:
        if desc.kind == "linear_taper":
            return pot.linear_taper_family()
        if desc.kind == "mollified":
            base = desc.get("base", Descriptor("clipped_quadratic", (("u_star", 1.0),)))
            return pot.mollified_family(build_potential(base, line),
                                        desc.get("ratio", 1.0))
        if desc.kind == "constant":
            base = desc.get("base")
            return pot.constant_family(build_potential(base, line))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid family {desc}: {exc}", line) from None
    raise ConfigError(f"unknown family kind {desc.kind!r}", line)


def build_data(desc: Descriptor, domain: sp.Domain, m: int,
               line: int | None = None) -> np.ndarray:
    try:
        if desc.kind == "zero":
            return dyn.zero_field(domain, m)
        if desc.kind == "constant":
            return dyn.constant_field(domain, desc.get("value", 0.0), m)
        if m != 1:
            raise ConfigError(f"data kind {desc.kind!r} is scalar-only", line)
        if desc.kind == "bump":
            return dyn.bump_field(domain, desc.get("amplitude", 1.0),
                                  desc.get("width_frac", 0.6))
        if desc.kind == "sine":
            return dyn.sine_field(domain, _whole(desc, "k", 1),
                                  desc.get("amplitude", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid data {desc}: {exc}", line) from None
    raise ConfigError(f"unknown data kind {desc.kind!r}", line)


# ---------------------------------------------------------------------------
# config file schema

_FLOATS = "float-list"
_DESC = "descriptor"
_AUTO = "float-or-auto"

_SCHEMA = {
    "domain": {"d": int, "s": float, "omega_extent": _FLOATS, "n": _FLOATS,
               "pad_factor": float, "boundary": str},
    "potential": {"kind": _DESC},
    "family": {"kind": _DESC},
    "data": {"u0": _DESC, "v0": _DESC, "u0_hs": float, "v0_l2": float},
    "simulation": {"T": float, "dt": _AUTO, "record_every": int,
                   "cfl_safety": float, "enforce_cfl": bool},
    "run": {"seed": int, "out": str},
    "experiment": {"name": str, "eps_list": _FLOATS, "T": float, "L": float,
                   "n": int, "extent": float, "eps1": float, "eps2": float,
                   "family_eps": float, "amplitude": float, "eps": float},
    "sweep": None,  # free-form dotted keys, validated against the schema
}

_DEFAULTS = {
    "domain": {"pad_factor": 2.0, "boundary": sp.EXTERIOR_DIRICHLET},
    "simulation": {"dt": "auto", "record_every": 10, "cfl_safety": 0.9,
                   "enforce_cfl": True},
    "run": {"seed": 0, "out": "out"},
}


def _convert(section: str, key: str, raw: str, line: int):
    spec = _SCHEMA[section].get(key) if _SCHEMA[section] is not None else None
    if _SCHEMA[section] is not None and spec is None:
        raise ConfigError(f"unknown key {key!r} in section [{section}]", line)
    try:
        if section == "sweep":
            head, _, tail = key.partition(".")
            if head not in _SCHEMA or _SCHEMA[head] is None or tail not in _SCHEMA[head]:
                raise ConfigError(f"sweep key {key!r} does not name a known "
                                  "section.key", line)
            return [_convert(head, tail, v.strip(), line) for v in raw.split(",")]
        if spec is int:
            return int(raw)
        if spec is float:
            return float(raw)
        if spec is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"expected boolean, got {raw!r}")
        if spec is str:
            return raw
        if spec == _FLOATS:
            return [float(v) for v in raw.split(",")]
        if spec == _AUTO:
            return "auto" if raw.strip() == "auto" else float(raw)
        if spec == _DESC:
            return parse_descriptor(raw, line)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line) from None
    raise ConfigError(f"unhandled schema entry for {key!r}", line)


def _per_axis(values: list):
    """One value stands for every axis, as in :class:`~adwave.spectral.Domain`."""
    return values[0] if len(values) == 1 else tuple(values)


@dataclass
class RunSpec:
    """Validated configuration: sections of typed key-value pairs."""

    sections: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, RunSpec) and self._norm() == other._norm()

    def _norm(self):
        return {s: {k: str(v) for k, v in kv.items()}
                for s, kv in self.sections.items()}

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def line_of(self, section: str, key: str):
        return self.lines.get((section, key))

    def build_domain(self) -> sp.Domain:
        sec = self.sections.get("domain")
        if not sec or "d" not in sec or "s" not in sec:
            raise ConfigError("[domain] section with keys d and s is required")
        n = sec.get("n", [64.0])
        if not all(v.is_integer() for v in n):
            raise ConfigError(f"invalid [domain]: grid sizes must be integers, got "
                              f"{', '.join(fmt(v) for v in n)}", self.line_of("domain", "n"))
        try:
            return sp.Domain(
                d=int(sec["d"]), s=float(sec["s"]),
                omega_extent=_per_axis(sec.get("omega_extent", [1.0])),
                n=_per_axis([int(v) for v in n]),
                pad_factor=float(sec.get("pad_factor", 2.0)),
                boundary_mode=sec.get("boundary", sp.EXTERIOR_DIRICHLET))
        except sp.DomainError as exc:
            key = "boundary" if exc.field == "boundary_mode" else exc.field
            # a defaulted pad_factor only fails against the chosen boundary
            line = self.line_of("domain", key) or self.line_of("domain", "boundary")
            raise ConfigError(f"invalid [domain]: {exc}", line) from None

    def build_potential(self) -> pot.Potential:
        desc = self.get("potential", "kind")
        if desc is None:
            raise ConfigError("[potential] kind is required")
        return build_potential(desc, self.line_of("potential", "kind"))

    def build_family(self) -> pot.RegularizedFamily:
        desc = self.get("family", "kind")
        if desc is None:
            raise ConfigError("[family] kind is required")
        return build_family(desc, self.line_of("family", "kind"))

    def build_simconfig(self) -> dyn.SimConfig:
        domain = self.build_domain()
        potential = self.build_potential()
        u0_desc = self.get("data", "u0", Descriptor("zero", ()))
        v0_desc = self.get("data", "v0", Descriptor("zero", ()))
        u0 = build_data(u0_desc, domain, potential.m, self.line_of("data", "u0"))
        v0 = build_data(v0_desc, domain, potential.m, self.line_of("data", "v0"))
        op = sp.build_operator(domain)
        if self.get("data", "u0_hs") is not None:
            u0 = dyn.scale_to_hs(op, u0, self.get("data", "u0_hs"))
        if self.get("data", "v0_l2") is not None:
            v0 = dyn.scale_to_l2(domain, v0, self.get("data", "v0_l2"))
        T = self.get("simulation", "T", 1.0)
        cfl_safety = self.get("simulation", "cfl_safety", 0.9)
        dt = self.get("simulation", "dt", "auto")
        if dt == "auto":
            dt = ex.fitted_dt(T, cfl_safety * dyn.stability_limit(op, potential))
        try:
            return dyn.SimConfig(
                domain=domain, potential=potential, T=T, dt=dt, u0=u0, v0=v0,
                record_every=self.get("simulation", "record_every", 10),
                cfl_safety=cfl_safety,
                enforce_cfl=self.get("simulation", "enforce_cfl", True))
        except dyn.SimConfigError as exc:
            section = "data" if exc.field in ("u0", "v0") else "simulation"
            raise ConfigError(f"invalid [simulation]: {exc}",
                              self.line_of(section, exc.field)) from None
        except ValueError as exc:
            raise ConfigError(f"invalid [simulation]: {exc}") from None

    def out_dir(self) -> str:
        return os.environ.get("ADWAVE_OUT") or self.get("run", "out", "out")

    def seed(self) -> int:
        return self.get("run", "seed", 0)


def parse_config(text: str) -> RunSpec:
    """Parse flat sectioned key=value text into a validated RunSpec."""
    spec = RunSpec()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            spec.sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, raw_value = line.partition("=")
        key, raw_value = key.strip(), raw_value.strip()
        if key in spec.sections[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        spec.sections[section][key] = _convert(section, key, raw_value, lineno)
        spec.lines[(section, key)] = lineno
    for section, defaults in _DEFAULTS.items():
        if section in spec.sections:
            for key, value in defaults.items():
                spec.sections[section].setdefault(key, value)
    return spec


def _format_value(value) -> str:
    if isinstance(value, list):  # a float list, or the values of a swept key
        return ", ".join(_format_value(v) if isinstance(v, list) else fmt(v)
                         for v in value)
    if isinstance(value, float):
        return repr(value)
    return fmt(value)


def format_runspec(spec: RunSpec) -> str:
    """Canonical text form; parse(format(parse(x))) == parse(x)."""
    out = []
    for section in _SCHEMA:
        if section not in spec.sections:
            continue
        out.append(f"[{section}]")
        keys = spec.sections[section]
        order = list(_SCHEMA[section]) if _SCHEMA[section] else sorted(keys)
        for key in order:
            if key in keys:
                out.append(f"{key} = {_format_value(keys[key])}")
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# experiment registry

# the [experiment] keys each experiment reads, besides ``name``
_EXPERIMENT_KEYS = {
    "energy-inequality": ("eps", "T", "n", "extent", "amplitude"),
    "epsilon-convergence": ("eps_list", "T", "n", "extent", "amplitude"),
    "limit-obstruction": ("eps_list", "T", "L", "n"),
    "small-data": ("eps1", "eps2", "T", "family_eps"),
    "dispersion": ("n",),
}


def _experiment_keys(spec: RunSpec, name: str) -> dict:
    """The [experiment] keys the config sets, except ``name``; one that
    experiment ``name`` does not read is an error at its line."""
    keys = {k: v for k, v in spec.sections.get("experiment", {}).items() if k != "name"}
    for key in keys:
        if key not in _EXPERIMENT_KEYS[name]:
            line = spec.line_of("experiment", key) or spec.line_of("sweep", f"experiment.{key}")
            raise ConfigError(f"experiment {name!r} does not read [experiment] key "
                              f"{key!r}; it reads {', '.join(_EXPERIMENT_KEYS[name])}", line)
    return keys


def _exp_energy_inequality(spec: RunSpec, out_dir: str):
    e = _experiment_keys(spec, "energy-inequality")
    extent = e.get("extent", 2.0 * math.pi)
    n = int(e.get("n", 64))
    domain = sp.Domain(d=1, s=1.0, omega_extent=extent, n=n, pad_factor=2.0)
    family = pot.mollified_family(pot.clipped_quadratic(1.0))
    potential = family.make(e.get("eps", 0.1))
    T = e.get("T", 5.0)
    cfg = dyn.SimConfig(domain=domain, potential=potential, T=T,
                        dt=ex._auto_dt(domain, potential, T),
                        u0=dyn.bump_field(domain, e.get("amplitude", 0.5)),
                        v0=dyn.zero_field(domain), record_every=2)
    return ex.run_energy_inequality(potential, cfg, out_dir=out_dir)


def _exp_epsilon_convergence(spec: RunSpec, out_dir: str):
    e = _experiment_keys(spec, "epsilon-convergence")
    eps_list = e.get("eps_list", [0.2, 0.1, 0.05, 0.025])
    family = spec.build_family() if "family" in spec.sections else \
        pot.mollified_family(pot.clipped_quadratic(1.0), kernel_width_ratio=2.0)
    extent = e.get("extent", 2.0 * math.pi)
    domain = sp.Domain(d=1, s=1.0, omega_extent=extent, n=int(e.get("n", 128)),
                       pad_factor=2.0)
    T = e.get("T", 5.0)
    members = [family.make(v) for v in eps_list]
    dt = min(ex._auto_dt(domain, m, T) for m in members)
    cfg = dyn.SimConfig(domain=domain, potential=members[0], T=T, dt=dt,
                        u0=dyn.bump_field(domain, e.get("amplitude", 0.98)),
                        v0=dyn.zero_field(domain), record_every=4)
    return ex.run_epsilon_convergence(family, eps_list, cfg, out_dir=out_dir)


def _exp_limit_obstruction(spec: RunSpec, out_dir: str):
    return ex.run_limit_obstruction(**_experiment_keys(spec, "limit-obstruction"),
                                    out_dir=out_dir)


def _exp_small_data(spec: RunSpec, out_dir: str):
    family = spec.build_family() if "family" in spec.sections else None
    return ex.run_small_data(family=family, **_experiment_keys(spec, "small-data"),
                             out_dir=out_dir)


def _exp_dispersion(spec: RunSpec, out_dir: str):
    return ex.run_dispersion_check(**_experiment_keys(spec, "dispersion"), out_dir=out_dir)


EXPERIMENTS = {
    "energy-inequality": _exp_energy_inequality,
    "epsilon-convergence": _exp_epsilon_convergence,
    "limit-obstruction": _exp_limit_obstruction,
    "small-data": _exp_small_data,
    "dispersion": _exp_dispersion,
}


def _experiment(spec: RunSpec, name: str):
    """The entry of experiment ``name``; an unknown name is an error at the
    line that sets it."""
    if name not in EXPERIMENTS:
        line = spec.line_of("sweep", "experiment.name") or spec.line_of("experiment", "name")
        raise ConfigError(f"unknown experiment {name!r}; known: "
                          + ", ".join(sorted(EXPERIMENTS)), line)
    return EXPERIMENTS[name]


# ---------------------------------------------------------------------------
# subcommands

def _trajectory_blocks(traj: dyn.Trajectory):
    """The rows of trajectory.csv as text blocks, one per grid line of a
    snapshot: ``t,idx0,...,comp,value`` in ``np.ndindex`` order with the
    component innermost, which is the C order of ``u.ravel()``. Each block
    holds one line of the last axis, so a block stays small on any grid."""
    dom = traj.config.domain
    m = dom.field_components(traj.states[0].u)
    leads = ["".join(f"{i}," for i in idx) for idx in np.ndindex(*dom.n[:-1])]
    cells = [f"{i},{comp}," for i in range(dom.n[-1]) for comp in range(m)]
    for t, st in zip(traj.times, traj.states):
        head = fmt(t) + ","
        for lead, line in zip(leads, st.u.reshape(len(leads), -1)):
            prefix = head + lead
            # format(x, ".17g") is fmt(x) for every float, nan and -0 included
            yield "".join(f"{prefix}{cell}{format(x, '.17g')}\n"
                          for cell, x in zip(cells, line.tolist()))


def _write_trajectory(traj: dyn.Trajectory, out_dir: str):
    dom = traj.config.domain
    idx_cols = [f"idx{i}" for i in range(dom.d)]
    return [
        write_csv(os.path.join(out_dir, "trajectory.csv"),
                  ["t", *idx_cols, "comp", "value"], _trajectory_blocks(traj)),
        write_csv(os.path.join(out_dir, "energy.csv"),
                  ["t", "kinetic", "elastic", "adhesive", "total"],
                  traj.energy_rows()),
    ]


def cmd_simulate(spec: RunSpec, out_dir: str) -> int:
    config = spec.build_simconfig()
    traj = dyn.simulate(config)
    paths = _write_trajectory(traj, out_dir)
    print(f"simulated {len(traj.times)} snapshots to t = {fmt(float(traj.times[-1]))}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_experiment(spec: RunSpec, name: str, out_dir: str) -> int:
    report = _experiment(spec, name)(spec, out_dir)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


def cmd_embed_const(d: int, s: float, tol: float) -> int:
    print(fmt(sp.embedding_constant(d, s, tol=tol)))
    return 0


def cmd_certify(spec: RunSpec, out_dir: str) -> int:
    family = spec.build_family()
    eps_list = spec.get("experiment", "eps_list", [0.4, 0.2, 0.1])
    cert = pot.certify_family(family, eps_list, seed=spec.seed())
    write_csv(os.path.join(out_dir, "certification.csv"),
              ["eps", "sup_W_dist", "sup_grad_dist", "lipschitz", "grad_bound"],
              cert.rows())
    print(f"family {cert.family} [{cert.mode}]: "
          f"{'PASS' if cert.passed else 'FAIL'}")
    for c in cert.checks:
        print("  " + c.line())
    return 0 if cert.passed else 1


def cmd_sweep(spec: RunSpec, out_dir: str) -> int:
    sweep = spec.sections.get("sweep", {})
    if not sweep:
        raise ConfigError("sweep requires a [sweep] section")
    runs = []  # (sub-run spec, its experiment entry or None), all checked up front
    for combo in itertools.product(*sweep.values()):
        sub = RunSpec({s: dict(kv) for s, kv in spec.sections.items() if s != "sweep"},
                      dict(spec.lines))
        for key, value in zip(sweep, combo):
            section, _, name = key.partition(".")
            sub.sections.setdefault(section, {})[name] = value
        name = sub.get("experiment", "name")
        runs.append((sub, _experiment(sub, name) if name else None))

    def one(item):
        i, (sub, experiment) = item
        run_dir = os.path.join(out_dir, f"run-{i:03d}")
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "config.ini"), "w") as fh:
            fh.write(format_runspec(sub))
        if experiment:
            return 0 if experiment(sub, run_dir).passed else 1
        return cmd_simulate(sub, run_dir)

    results = ex._map_ordered(one, list(enumerate(runs)))
    for i, rc in enumerate(results):
        print(f"run-{i:03d}: {'PASS' if rc == 0 else 'FAIL'}")
    return max(results)


def _load_spec(path: str | None) -> RunSpec:
    if path is None:
        return RunSpec()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adwave",
        description="Spectral laboratory for fractional wave dynamics with "
                    "adhesive-layer potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("config", nargs="?", default=None)
    p_exp.add_argument("--out", default=None)

    p_emb = sub.add_parser("embed-const", help="print the max-norm embedding constant")
    p_emb.add_argument("--d", type=int, required=True)
    p_emb.add_argument("--s", type=float, required=True)
    p_emb.add_argument("--tol", type=float, default=1e-9)

    p_cert = sub.add_parser("certify-potential",
                            help="certify a regularized family from a config file")
    p_cert.add_argument("config")
    p_cert.add_argument("--out", default=None)

    p_swp = sub.add_parser("sweep", help="run a Cartesian parameter sweep")
    p_swp.add_argument("config")
    p_swp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "embed-const":
            return cmd_embed_const(args.d, args.s, args.tol)
        spec = _load_spec(getattr(args, "config", None))
        out_dir = args.out or spec.out_dir()
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(spec, out_dir)
        if args.command == "experiment":
            return cmd_experiment(spec, args.name, out_dir)
        if args.command == "certify-potential":
            return cmd_certify(spec, out_dir)
        if args.command == "sweep":
            return cmd_sweep(spec, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except dyn.BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return 3
    except (ValueError, sp.GridMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
