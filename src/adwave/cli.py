"""Command-line front end: config parsing, dispatch, deterministic output.

Configuration files are flat INI-style text (README's "Configuration
files" lists the sections, keys, descriptors and defaults). Every error in
one, a library range error included, is a :class:`ConfigError` at the line
of the key that carries the offending value, raised before the output
directory is made. Exit codes: 0 pass, 1 assertion failure, 2 configuration
error, 3 numerical blow-up.

Environment: ``ADWAVE_OUT`` overrides the output directory.
"""
from __future__ import annotations

import argparse
import functools
import inspect
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
        inner = ", ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.args)
        return f"{self.kind}({inner})"


def _split_top_level(text: str) -> list[str]:
    """``text`` split at the commas outside parentheses; an empty part is
    kept, so a stray comma reaches the converter of its part."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    return parts + [text[start:].strip()]


def parse_descriptor(text: str, line: int | None = None) -> Descriptor:
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ConfigError(f"malformed descriptor {text!r}, expected name(...)", line)
    kind, _, inner = text[:-1].partition("(")
    args = {}
    for part in _split_top_level(inner) if inner.strip() else []:
        if "=" not in part:
            raise ConfigError(f"descriptor argument {part!r} must be key=value", line)
        key, _, raw = part.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in args:
            raise ConfigError(f"descriptor argument {key!r} given twice", line)
        if "(" in raw:
            args[key] = parse_descriptor(raw, line)
            continue
        try:
            args[key] = int(raw) if raw.lstrip("+-").isdigit() else float(raw)
        except ValueError:
            raise ConfigError(f"descriptor argument {key}={raw!r} "
                              "is not numeric", line) from None
    return Descriptor(kind.strip(), tuple(args.items()))


def _build(table: dict, what: str, desc: Descriptor, line: int | None, *lead):
    """``factory(*lead, **arguments)`` for ``table[desc.kind] = (factory,
    {argument: default})``. ``base`` is a potential descriptor, built first,
    and the factory checks every other argument (an ``m`` or ``k`` must be a
    whole number) and rejects a missing one whose default is ``None``."""
    if desc.kind not in table:
        raise ConfigError(f"unknown {what} kind {desc.kind!r}", line)
    factory, defaults = table[desc.kind]
    args = dict(defaults)
    try:
        for key, value in desc.args:
            if key not in defaults:
                raise ValueError(f"{desc.kind} takes no argument {key!r}; it takes "
                                 + (", ".join(defaults) or "none"))
            args[key] = value
        if "base" in args:
            if not isinstance(args["base"], Descriptor):
                raise ValueError(f"base must be a potential kind(...), got {args['base']!r}")
            args["base"] = build_potential(args["base"], line)
        return factory(*lead, **args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} {desc}: {exc}", line) from None


def _scalar(domain: sp.Domain, m: int, kind: str) -> sp.Domain:
    """``domain``, for data ``kind``, which has no vector form."""
    if m != 1:
        raise ValueError(f"data kind {kind!r} is scalar-only")
    return domain


# kind -> (factory, {argument: default}). The factories look the library's
# functions up when called, so a patched module attribute is the one used.
_MOLLIFIED = {"base": Descriptor("clipped_quadratic", (("u_star", 1.0),)), "ratio": 1.0}
_POTENTIALS = {
    "clipped_quadratic": (lambda u_star: pot.clipped_quadratic(u_star), {"u_star": 1.0}),
    "ball": (lambda m: pot.ball_potential(m), {"m": 1}),
    "zero": (lambda m: pot.zero_potential(m), {"m": 1}),
    "linear_taper": (lambda eps: pot.linear_taper_family().make(eps), {"eps": None}),
    "mollified": (lambda base, ratio, eps: pot.mollified_family(base, ratio).make(eps),
                  {**_MOLLIFIED, "eps": None}),
}
_FAMILIES = {
    "linear_taper": (lambda: pot.linear_taper_family(), {}),
    "mollified": (lambda base, ratio: pot.mollified_family(base, ratio), _MOLLIFIED),
    "constant": (lambda base: pot.constant_family(base), {"base": None}),
}
_DATA = {  # factories of (domain, m, **arguments)
    "zero": (lambda domain, m: dyn.zero_field(domain, m), {}),
    "constant": (lambda domain, m, **a: dyn.constant_field(domain, m=m, **a), {"value": 0.0}),
    "bump": (lambda domain, m, **a: dyn.bump_field(_scalar(domain, m, "bump"), **a),
             {"amplitude": 1.0, "width_frac": 0.6}),
    "sine": (lambda domain, m, **a: dyn.sine_field(_scalar(domain, m, "sine"), **a),
             {"k": 1, "amplitude": 1.0}),
}


def build_potential(desc: Descriptor, line: int | None = None) -> pot.Potential:
    return _build(_POTENTIALS, "potential", desc, line)


def build_family(desc: Descriptor, line: int | None = None) -> pot.RegularizedFamily:
    return _build(_FAMILIES, "family", desc, line)


# ---------------------------------------------------------------------------
# config file schema: the converter of each key's text


def _bool(raw: str) -> bool:
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected boolean, got {raw!r}")
    return raw.lower() in ("true", "yes", "1")


def _floats(raw: str) -> list:
    return [float(v) for v in _split_top_level(raw)]


def _float_or_auto(raw: str):
    return "auto" if raw == "auto" else float(raw)


def _whole(raw: str) -> int:
    """A whole number, an integral float such as 2.0 included (``spectral._whole``)."""
    return int(raw) if raw.lstrip("+-").isdigit() else sp._whole(float(raw), "the value")


_SCHEMA = {
    "domain": {"d": _whole, "s": float, "omega_extent": _floats, "n": _floats,
               "pad_factor": float, "boundary": str},
    "potential": {"kind": parse_descriptor},
    "family": {"kind": parse_descriptor},
    "data": {"u0": parse_descriptor, "v0": parse_descriptor, "u0_hs": float,
             "v0_l2": float},
    "simulation": {"T": float, "dt": _float_or_auto, "record_every": _whole,
                   "cfl_safety": float, "enforce_cfl": _bool},
    "run": {"seed": _whole, "out": str},
    "experiment": {"name": str, "eps_list": _floats, "T": float, "L": float,
                   "n": _whole, "extent": float, "eps1": float, "eps2": float,
                   "family_eps": float, "amplitude": float, "eps": float},
    "sweep": {},  # free-form section.key names, each value split at top-level commas
}

_DEFAULTS = {
    "domain": {"pad_factor": 2.0, "boundary": sp.EXTERIOR_DIRICHLET},
    "simulation": {"dt": "auto", "record_every": 10, "cfl_safety": 0.9,
                   "enforce_cfl": True},
    "run": {"out": "out"},
}


def _convert(section: str, key: str, raw: str, line: int):
    if section == "sweep":
        head, _, tail = key.partition(".")
        if tail not in _SCHEMA.get(head, {}):
            raise ConfigError(f"sweep key {key!r} does not name a known "
                              "section.key", line)
        return [_convert(head, tail, part, line) for part in _split_top_level(raw)]
    if key not in _SCHEMA[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]", line)
    try:
        return _SCHEMA[section][key](raw)
    except ConfigError as exc:  # a malformed descriptor
        raise ConfigError(str(exc), line) from None
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line) from None


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
        """``key``'s value, else its entry in ``_DEFAULTS``, else ``default``."""
        return self.sections.get(section, {}).get(
            key, _DEFAULTS.get(section, {}).get(key, default))

    def line_of(self, section: str, key: str | None = None):
        """The line of ``key`` in [``section``], or of the section's header."""
        return self.lines.get((section, key))

    def build_domain(self) -> sp.Domain:
        if self.get("domain", "d") is None or self.get("domain", "s") is None:
            raise ConfigError("[domain] section with keys d and s is required",
                              self.line_of("domain"))
        return _at_lines(self, "domain", sp.Domain,
                         d=self.get("domain", "d"), s=self.get("domain", "s"),
                         omega_extent=_per_axis(self.get("domain", "omega_extent", [1.0])),
                         n=_per_axis(self.get("domain", "n", [64.0])),
                         pad_factor=self.get("domain", "pad_factor"),
                         boundary_mode=self.get("domain", "boundary"))

    def build(self, section: str):
        """The potential or the family that [``section``] ``kind`` names."""
        desc = self.get(section, "kind")
        if desc is None:
            raise ConfigError(f"[{section}] kind is required", self.line_of(section))
        build = {"potential": build_potential, "family": build_family}[section]
        return build(desc, self.line_of(section, "kind"))

    def build_simconfig(self) -> dyn.SimConfig:
        _checked(self, "simulate")
        domain = self.build_domain()
        potential = self.build("potential")
        u0, v0 = (_build(_DATA, "data", self.get("data", key, Descriptor("zero", ())),
                         self.line_of("data", key), domain, potential.m) for key in ("u0", "v0"))
        op = sp.build_operator(domain)
        u0 = self._scaled("u0", "u0_hs", lambda f, x: dyn.scale_to_hs(op, f, x), u0)
        v0 = self._scaled("v0", "v0_l2", lambda f, x: dyn.scale_to_l2(domain, f, x), v0)
        dt = self.get("simulation", "dt")
        return _at_lines(self, "simulation", dyn.SimConfig,
                         domain=domain, potential=potential, T=self.get("simulation", "T", 1.0),
                         dt=None if dt == "auto" else dt, u0=u0, v0=v0,
                         record_every=self.get("simulation", "record_every"),
                         cfl_safety=self.get("simulation", "cfl_safety"),
                         enforce_cfl=self.get("simulation", "enforce_cfl"))

    def _scaled(self, name: str, key: str, scale, f: np.ndarray) -> np.ndarray:
        """``scale(f, target)`` for [data] ``key``, the target norm of field
        ``name``, if it is set; a zero field is the fault of ``name``'s line."""
        try:
            return f if self.get("data", key) is None else scale(f, self.get("data", key))
        except ValueError as exc:
            line = None if np.any(f) else self.line_of("data", name)
            raise ConfigError(f"invalid [data]: {key}: {exc}",
                              line or self.line_of("data", key)) from None

    def seed(self) -> int:
        seed = self.get("run", "seed", 0)
        if seed < 0:
            raise ConfigError(f"invalid [run]: seed must be a non-negative integer, "
                              f"got {seed}", self.line_of("run", "seed"))
        return seed


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
            spec.lines.setdefault((section, None), lineno)
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

def _bump_run(members: list, T: float, n: int, extent: float, amplitude: float,
              record_every: int) -> dyn.SimConfig:
    """A bump at rest on a 1-D exterior-dirichlet grid under the stiffest of
    ``members`` (largest ``grad_lipschitz``), whose auto dt is the smallest."""
    domain = sp.Domain(d=1, s=1.0, omega_extent=extent, n=n)
    return dyn.SimConfig(domain=domain, T=T, dt=None,
                         potential=max(members, key=lambda m: m.grad_lipschitz),
                         u0=dyn.bump_field(domain, amplitude), v0=dyn.zero_field(domain),
                         record_every=record_every)


def _energy_inequality(eps=0.1, T=5.0, n=64, extent=2.0 * math.pi, amplitude=0.5):
    """The energy inequality for W_eps of the default mollified family."""
    potential = build_family(Descriptor("mollified", ())).make(eps)
    return ex.run_energy_inequality(_bump_run([potential], T, n, extent, amplitude, 2))


def _epsilon_convergence(family=None, eps_list=(0.2, 0.1, 0.05, 0.025), T=5.0, n=128,
                         extent=2.0 * math.pi, amplitude=0.98):
    """eps -> 0 along ``family``, by default the mollified one of kernel ratio 2."""
    if family is None:
        family = build_family(Descriptor("mollified", (("ratio", 2.0),)))
    if family.base.m != 1:
        raise sp.ParameterError("family", "epsilon-convergence experiment builds scalar "
                                "initial data; use a family over scalar states")
    cfg = _bump_run([family.make(v) for v in eps_list], T, n, extent, amplitude, 4)
    return ex.run_epsilon_convergence(family, eps_list, cfg)


def _reads_of(run) -> dict:
    """The ``_READS`` row of an experiment computed by ``run``."""
    params = inspect.signature(run).parameters
    return {"run": ["out"],
            "experiment": ["name", *(k for k in params if k in _SCHEMA["experiment"])],
            **({"family": None} if "family" in params else {})}


# experiment -> its run, looked up per call, so a patched module attribute is the one run
_RUNS = {"energy-inequality": lambda: _energy_inequality,
         "epsilon-convergence": lambda: _epsilon_convergence,
         "limit-obstruction": lambda: ex.run_limit_obstruction,
         "small-data": lambda: ex.run_small_data,
         "dispersion": lambda: ex.run_dispersion_check}

# command -> {section it reads: the keys it reads there, or None for all}; a
# sweep reads [sweep], and each sub-run what its command reads
_READS = {"simulate": {**dict.fromkeys(("domain", "potential", "data", "simulation")),
                       "run": ["out"]},
          "certify-potential": {"family": None, "run": None, "experiment": ["eps_list"]},
          **{name: _reads_of(run()) for name, run in _RUNS.items()}}

# library parameter -> the config keys that carry its value, tried in order;
# any other parameter is carried by the key of its own name
_PASSED_AS = {"boundary_mode": ("boundary",),
              # a defaulted pad_factor only fails against the chosen boundary
              "pad_factor": ("pad_factor", "boundary"),
              "omega_extent": ("omega_extent", "extent", "L"),
              "eps": ("eps", "eps_list", "family_eps"),
              "family": ("kind",),
              # a potential too stiff to step: the eps of its member, else its kind
              "potential": ("eps", "eps_list", "family_eps", "kind")}


def _checked(spec: RunSpec, command: str) -> dict:
    """``spec``'s [experiment] keys but ``name``, once every section and key
    it sets is one that ``command`` reads and every [experiment] number is
    finite; else the error at the line of the first offending key, or of
    the header of a section that sets none."""
    reads = _READS[command]
    who = f"experiment {command!r}" if command in _RUNS else command
    for section, keys in spec.sections.items():
        if section not in reads:
            raise ConfigError(f"{who} does not read [{section}]",
                              spec.line_of(section, next(iter(keys), None))
                              or spec.line_of(section))
        for key in keys:
            if reads[section] is not None and key not in reads[section]:
                raise ConfigError(f"{who} does not read [{section}] key {key!r}; it reads "
                                  + ", ".join(reads[section]), spec.line_of(section, key))
    keys = {k: v for k, v in spec.sections.get("experiment", {}).items() if k != "name"}
    for key, x in keys.items():
        bad = [v for v in (x if isinstance(x, list) else [x]) if not math.isfinite(v)]
        if bad:
            raise ConfigError(f"invalid [experiment]: {key} must be finite, got {bad[0]!r}",
                              spec.line_of("experiment", key))
    return keys


def _at_lines(spec: RunSpec, section: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; a library :class:`~adwave.spectral.ParameterError`
    is an error of [``section``] at the line of the first key, in any
    section, that carries its ``field`` (``_PASSED_AS``)."""
    try:
        return call(*args, **kwargs)
    except sp.ParameterError as exc:
        lines = (spec.line_of(s, key) for key in _PASSED_AS.get(exc.field, (exc.field,))
                 for s in _SCHEMA)
        raise ConfigError(f"invalid [{section}]: {exc}",
                          next((n for n in lines if n), None)) from None


def _bind(spec: RunSpec, name: str):
    """``spec``'s run of experiment ``name``, a call that computes its report
    and writes nothing. An unknown name, or an [experiment] ``name`` other
    than ``name``, is an error at the line that sets it; every key and
    section ``spec`` sets is checked, and [family] built, before it runs."""
    line = spec.line_of("experiment", "name")
    if name not in _RUNS:
        raise ConfigError(f"unknown experiment {name!r}; known: "
                          + ", ".join(sorted(_RUNS)), line)
    if spec.get("experiment", "name", name) != name:
        raise ConfigError(f"[experiment] name = {spec.get('experiment', 'name')} "
                          f"disagrees with the experiment {name!r} to run", line)
    keys = _checked(spec, name)
    if "family" in spec.sections:
        keys["family"] = spec.build("family")
    return lambda: _at_lines(spec, "experiment", _RUNS[name](), **keys)


def _run_experiment(name: str, spec: RunSpec, out_dir: str, out_line: int | None = None):
    """Experiment ``name`` of ``spec``, computed and then written to
    ``out_dir``, which is made (``_made`` at ``out_line``) only once the
    computation has accepted every value."""
    report = _bind(spec, name)()
    return ex.write(report, _made(out_dir, out_line))


EXPERIMENTS = {name: functools.partial(_run_experiment, name) for name in _RUNS}


# ---------------------------------------------------------------------------
# subcommands

def _trajectory_blocks(traj: dyn.Trajectory):
    """The rows of trajectory.csv as text blocks, one per grid line of a
    snapshot: ``t,idx0,...,comp,value`` in ``np.ndindex`` order with the
    component innermost, which is the C order of ``u.ravel()``. Each block
    holds one line of the last axis, so a block stays small on any grid, and
    is formatted by one ``%`` over the line's rows, joined at each row's
    ``t,idx0,...,`` prefix; ``"%.17g" % x`` is fmt(x) for every float. A
    line whose values are all +0 (every bit zero, so no -0 or NaN) is joined
    from a text that already reads ``0``, formatting nothing; the test reads
    each snapshot's values, since the initial state may hold -0."""
    dom = traj.config.domain
    m = dom.field_components(traj.config.u0)
    leads = ["".join(f"{i}," for i in idx) for idx in np.ndindex(*dom.n[:-1])]
    parts = ["", *(f"{i},{comp},%.17g\n" for i in range(dom.n[-1]) for comp in range(m))]
    zeros = ["", *(f"{i},{comp},0\n" for i in range(dom.n[-1]) for comp in range(m))]
    for t, st in zip(traj.times, traj.states):
        head = fmt(t) + ","
        lines = st.u.reshape(len(leads), -1)
        zero = (~lines.view(np.uint64).any(axis=1)).tolist()
        for lead, line, is_zero in zip(leads, lines, zero):
            yield ((head + lead).join(zeros) if is_zero
                   else (head + lead).join(parts) % tuple(line.tolist()))


def _write_trajectory(traj: dyn.Trajectory, out_dir: str):
    idx_cols = [f"idx{i}" for i in range(traj.config.domain.d)]
    return [
        write_csv(os.path.join(out_dir, "trajectory.csv"),
                  ["t", *idx_cols, "comp", "value"], _trajectory_blocks(traj)),
        write_csv(os.path.join(out_dir, "energy.csv"),
                  ["t", *dyn.EnergyBreakdown._fields],
                  ((t, *e) for t, e in zip(traj.times, traj.energies))),
    ]


def _simulate(config: dyn.SimConfig, out_dir: str) -> list[str]:
    """Run ``config`` into ``out_dir``; the lines reporting it."""
    traj = dyn.simulate(config)
    paths = _write_trajectory(traj, out_dir)
    return [f"simulated {len(traj.times)} snapshots to t = {fmt(float(traj.times[-1]))}",
            *(f"wrote {p}" for p in paths)]


def cmd_simulate(spec: RunSpec, out_dir: str, out_line: int | None) -> int:
    config = spec.build_simconfig()
    print("\n".join(_simulate(config, _made(out_dir, out_line))))
    return 0


def cmd_experiment(spec: RunSpec, out_dir: str, out_line: int | None, name: str) -> int:
    report = _run_experiment(name, spec, out_dir, out_line)
    print("\n".join(report.summary_lines()))
    return 0 if report.passed else 1


def cmd_embed_const(d: int, s: float, tol: float) -> int:
    print(fmt(sp.embedding_constant(d, s, tol=tol)))
    return 0


def cmd_certify(spec: RunSpec, out_dir: str, out_line: int | None) -> int:
    eps_list = _checked(spec, "certify-potential").get("eps_list", [0.4, 0.2, 0.1])
    cert = _at_lines(spec, "experiment", pot.certify_family, spec.build("family"), eps_list,
                     seed=spec.seed())
    write_csv(os.path.join(_made(out_dir, out_line), "certification.csv"), list(cert.series),
              zip(*cert.series.values()))
    print(f"family {cert.name} [{cert.parameters['mode']}]: "
          f"{'PASS' if cert.passed else 'FAIL'}")
    for c in cert.checks:
        print("  " + c.line())
    return 0 if cert.passed else 1


def cmd_sweep(spec: RunSpec, out_dir: str, out_line: int | None) -> int:
    """Check every sub-run and compute every experiment, then make the
    output directory and every run-NNN, then write each sub-run in order: an
    experiment sweep writes all or nothing."""
    sweep = spec.sections.get("sweep", {})
    if not sweep:
        raise ConfigError("sweep requires a [sweep] section", spec.line_of("sweep"))
    subs, runs = [], []  # each sub-run's spec and its SimConfig or bound experiment
    for combo in itertools.product(*sweep.values()):
        sub = RunSpec({s: dict(kv) for s, kv in spec.sections.items() if s != "sweep"},
                      dict(spec.lines))
        for key, value in zip(sweep, combo):  # a swept value's errors name its sweep line
            section, _, name = key.partition(".")
            sub.sections.setdefault(section, {})[name] = value
            sub.lines[(section, name)] = spec.line_of("sweep", key)
        name = sub.get("experiment", "name")
        subs.append(sub)
        runs.append(_bind(sub, name) if name else sub.build_simconfig())
    runs = [run if isinstance(run, dyn.SimConfig) else run() for run in runs]
    _made(out_dir, out_line)
    run_dirs = [_made(os.path.join(out_dir, f"run-{i:03d}")) for i in range(len(runs))]
    results = []  # (exit code, stdout lines) of each sub-run
    for sub, run, run_dir in zip(subs, runs, run_dirs):
        with open(os.path.join(run_dir, "config.ini"), "w", newline="\n") as fh:
            fh.write(format_runspec(sub))
        if isinstance(run, dyn.SimConfig):
            results.append((0, _simulate(run, run_dir)))
        else:
            results.append((0 if ex.write(run, run_dir).passed else 1, []))
    print("".join(f"{line}\n" for _, lines in results for line in lines), end="")
    for i, (rc, _) in enumerate(results):
        print(f"run-{i:03d}: {'PASS' if rc == 0 else 'FAIL'}")
    return max(rc for rc, _ in results)


def _spec_and_out(args) -> tuple:
    """The config ``args`` names, parsed, its output directory, not yet
    made, and the line an error in making it names: ``--out``, else
    ``ADWAVE_OUT``, else [run] ``out`` at its line."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    spec = parse_config(text)
    out = args.out or os.environ.get("ADWAVE_OUT")
    return spec, out or spec.get("run", "out"), None if out else spec.line_of("run", "out")


def _made(path: str, line: int | None = None) -> str:
    """``path``, created as a directory if it is none; a path that cannot
    be is a configuration error that names it, at ``line``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc.strerror}",
                          line) from None
    return path


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

    for name, text in (("certify-potential", "certify a regularized family from a config file"),
                       ("sweep", "run a Cartesian parameter sweep")):
        p_cfg = sub.add_parser(name, help=text)
        p_cfg.add_argument("config")
        p_cfg.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    commands = {
        "simulate": lambda: cmd_simulate(*_spec_and_out(args)),
        "experiment": lambda: cmd_experiment(*_spec_and_out(args), args.name),
        "embed-const": lambda: cmd_embed_const(args.d, args.s, args.tol),
        "certify-potential": lambda: cmd_certify(*_spec_and_out(args)),
        "sweep": lambda: cmd_sweep(*_spec_and_out(args)),
    }
    try:
        return commands[args.command]()
    except dyn.BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, DomainError, SimConfigError, GridMismatchError
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
