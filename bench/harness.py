"""Run one workload for a time budget and reduce its samples to metrics.

An untraced run measures the end-to-end metrics. Its only instrument is a
probe on ``dynamics.simulate`` (one wrapper call per trajectory) that gives
``ms_per_step`` and ``energy_drift_rel``. A traced run alternates untraced
and fully traced iterations; the traced ones give the per-layer metrics and
the pair gives ``trace.overhead_ratio``.

Reported times are normalised to a reference machine speed. On a shared
virtual machine the speed of a core drifts by up to 2x over tens of
seconds, which no choice of run length or estimator averages out. So every
iteration is bracketed by runs of a fixed calibration kernel
(:func:`kernel`), and its times are multiplied by ``KERNEL_REF_S`` over the
kernel's median time around it. The kernel does not touch adwave, so a
change to adwave moves normalised times in the same proportion as raw ones.
Timed end-to-end metrics are reported by :func:`at_reference_speed`, the
run's total raw time over its total kernel time, rather than as a median of
per-iteration normalised times: the speed also changes within iterations,
and the errors that leaves in single factors average out over the run. Raw
samples and factors are kept in the run's record.
"""
from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy import fft

import reference
import spans as sp_
from spans import END, INFO, LABEL, NAME, START

SETUP_REPEATS = 3   # extra setup samples per untraced iteration
KERNEL_RUNS = 3     # calibration kernel runs before and after each iteration
KERNEL_REF_S = 0.012  # kernel time at the reference speed (2-core Xeon KVM guest)
KINDS = ("mollified", "clipped_quadratic", "ball", "linear_taper", "zero")
EXPERIMENTS = ("energy_inequality", "epsilon_convergence", "limit_obstruction",
               "small_data", "dispersion")


_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((128, 128)) + 0j
_CUBE = _rng.standard_normal((64, 64, 64))
_SHORT = _rng.standard_normal(64)
_VALUES = _rng.standard_normal(3000).tolist()


def kernel() -> float:
    """Wall time of a fixed mix of interpreter, small-call, FFT, memory and
    number-formatting work (about 12 ms at the reference speed)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    s = _SHORT
    for _ in range(1000):
        s = s + 1.0
    for _ in range(8):
        fft.ifftn(fft.fftn(_SQUARE))
    y = _CUBE
    for _ in range(4):
        y = np.sqrt(np.abs(y) + 1.0)
    "".join(format(v, ".17g") + ",0\n" for v in _VALUES)
    return time.perf_counter() - t0


def probe_targets(aw):
    return [("dynamics.simulate", [(aw.dynamics, "simulate")], sp_.with_info(sp_.simulate_info))]


def trace_targets(aw):
    """Every layer boundary the traced run records, by the module attributes
    that callers look up."""
    dyn, spec, pot, ex, cli = aw.dynamics, aw.spectral, aw.potentials, aw.experiments, aw.cli
    plain = sp_.plain
    return probe_targets(aw) + [
        ("spectral.transform", [(dyn, "apply_fractional_laplacian"),
                                (spec, "apply_fractional_laplacian")],
         sp_.with_info(sp_.transform_info)),
        ("spectral.seminorm", [(dyn, "seminorm_s"), (spec, "seminorm_s")], plain),
        ("spectral.build_operator", [(dyn, "build_operator"), (spec, "build_operator")], plain),
        ("potentials", [(pot, "clipped_quadratic"), (pot, "ball_potential"),
                        (pot, "zero_potential")], sp_.potential_factory),
        ("potentials.make", [(pot, "mollified_family"), (pot, "linear_taper_family"),
                             (pot, "constant_family")], sp_.family_factory),
        ("dynamics.step", [(dyn, "step")], sp_.with_info(sp_.step_info)),
        ("dynamics.energy", [(dyn, "energy")], plain),
        ("dynamics.weak_residual", [(dyn, "weak_residual")], plain),
        ("experiments.certify_family", [(pot, "certify_family")], plain),
        *[(f"experiments.{name}", [(ex, fn)], plain) for name, fn in (
            ("energy_inequality", "run_energy_inequality"),
            ("epsilon_convergence", "run_epsilon_convergence"),
            ("limit_obstruction", "run_limit_obstruction"),
            ("small_data", "run_small_data"),
            ("dispersion", "run_dispersion_check"))],
        ("reporting.write_csv", [(cli, "write_csv"), (ex, "write_csv")],
         sp_.with_info(sp_.csv_info)),
        ("reporting.svg", [(ex, "svg_line_plot")], plain),
        ("cli.parse_config", [(cli, "parse_config")], plain),
        ("cli.build_simconfig", [(cli.RunSpec, "build_simconfig")], plain),
    ]


@dataclass
class Sample:
    """One iteration; times are raw seconds, ``factor`` normalises them.
    ``setup_repeats`` are further setup times taken right after it."""
    wall: float
    setup: float
    sim_time: float = 0.0
    steps: int = 0
    drift: float = 0.0
    factor: float = 1.0
    setup_repeats: list = field(default_factory=list)
    spans: list = field(default_factory=list)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    missing: set = field(default_factory=set)
    peak_rss_mb: float = 0.0


def _iteration(wl, targets, outcome: Outcome, first_identity: list):
    """One iteration with ``targets`` installed around its timed part."""
    gc.collect()
    kernel_times = [kernel() for _ in range(KERNEL_RUNS)]
    tracer = sp_.Tracer()
    undo = None
    out = None
    outcome.attempted += wl.ops
    try:
        if wl.setup_feeds_run:
            undo = tracer.install(targets)
        t0 = time.perf_counter()
        inputs = wl.setup()
        t1 = time.perf_counter()
        if undo is None:
            undo = tracer.install(targets)
        t2 = time.perf_counter()
        out = wl.run(inputs)
        t3 = time.perf_counter()
    except Exception:  # a failing iteration is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        outcome.failed += wl.ops
        outcome.failures.append("iteration raised")
        return None, None
    finally:
        if undo is not None:
            undo()
    kernel_times += [kernel() for _ in range(KERNEL_RUNS)]
    outcome.missing |= tracer.missing
    failures = wl.check(out)
    if not failures:
        ident = wl.identity(out)
        if not first_identity:
            first_identity.append(ident)
        elif ident != first_identity[0]:
            failures = ["output differs from the first iteration"]
    outcome.failed += min(len(failures), wl.ops)
    outcome.failures.extend(failures)
    sims = [s for s in tracer.spans if s[NAME] == "dynamics.simulate"]
    sample = Sample(wall=(t3 - t0) if wl.setup_feeds_run else (t3 - t2), setup=t1 - t0,
                    sim_time=sum(s[END] - s[START] for s in sims),
                    steps=sum(s[INFO][0] for s in sims if s[INFO]),
                    drift=max((s[INFO][1] for s in sims if s[INFO]), default=0.0),
                    factor=KERNEL_REF_S / statistics.median(kernel_times),
                    spans=tracer.spans)
    return sample, out


def run(wl, aw, seconds: float, trace: bool, want: dict | None = None) -> Outcome:
    """Warm up once, then iterate for ``seconds``. The warm-up output's
    fingerprint must match ``want``, the stored reference (None for a
    workload without one)."""
    outcome = Outcome()
    probe, full = probe_targets(aw), trace_targets(aw)
    first_identity: list = []
    _, out = _iteration(wl, probe, outcome, first_identity)
    warm_passed = outcome.failed == 0
    fingerprint = wl.fingerprint(out) if warm_passed and want is not None else None
    del out
    start = time.perf_counter()
    while True:
        sample = _iteration(wl, probe, outcome, first_identity)[0]
        if sample is not None:
            sample.spans = []
            outcome.untraced.append(sample)
            if not trace:
                for _ in range(SETUP_REPEATS):
                    t0 = time.perf_counter()
                    wl.setup()
                    sample.setup_repeats.append(time.perf_counter() - t0)
        if trace:
            sample = _iteration(wl, full, outcome, first_identity)[0]
            if sample is not None:
                outcome.traced.append(sample)
        if time.perf_counter() - start >= seconds:
            break
    outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if fingerprint is not None:
        bad = reference.mismatches(fingerprint, want)
        if bad:
            outcome.failed += 1
            outcome.failures.extend(bad)
    return outcome


def at_reference_speed(samples: list, raw) -> float:
    """Sum of ``raw(sample)`` over the sum of the samples' kernel times
    relative to the reference (``1 / factor``): the mean of ``raw`` at the
    reference speed."""
    return sum(raw(s) for s in samples) / sum(1.0 / s.factor for s in samples)


def end_to_end(outcome: Outcome) -> dict:
    """name -> (value, unit, samples) for every end-to-end metric. Samples
    are per-iteration normalised values; ``wall_s`` and ``ms_per_step`` are
    taken :func:`at_reference_speed`, the others are medians."""
    u = outcome.untraced
    stepped = [s for s in u if s.steps]
    out = {
        "wall_s": ([s.wall * s.factor for s in u], "s"),
        "setup_s": ([t * s.factor for s in u for t in (s.setup, *s.setup_repeats)], "s"),
        "ms_per_step": ([1e3 * s.sim_time * s.factor / s.steps for s in stepped], "ms"),
        "peak_rss_mb": ([outcome.peak_rss_mb] if u else [], "MB"),
        "energy_drift_rel": ([s.drift for s in stepped], "1"),
    }
    totals = {"wall_s": lambda: at_reference_speed(u, lambda s: s.wall),
              "ms_per_step": lambda: at_reference_speed(
                  stepped, lambda s: 1e3 * s.sim_time / s.steps)}
    return {k: (totals[k]() if k in totals else statistics.median(v), unit, v)
            for k, (v, unit) in out.items() if v}


_STAT_KEYS = ("calls", "time", "self", "info0", "info1", "info0_max",
              "step_calls", "step_info0", "step_info1")


def _stats(spans, factor: float = 1.0) -> dict:
    """Per span name (and name.label): calls, time and self time (times
    ``factor``), info sums, and the same restricted to spans inside a
    ``dynamics.step``."""
    selfs = sp_.self_times(spans)
    in_step = sp_.under(spans, "dynamics.step")
    stats: dict = {}
    for s in spans:
        keys = [s[NAME]] + ([f"{s[NAME]}.{s[LABEL]}"] if s[LABEL] else [])
        info = s[INFO] or (0, 0)
        for key in keys:
            st = stats.setdefault(key, dict.fromkeys(_STAT_KEYS, 0))
            st["calls"] += 1
            st["time"] += (s[END] - s[START]) * factor
            st["self"] += selfs[s[sp_.ID]] * factor
            st["info0"] += info[0]
            st["info1"] += info[1]
            st["info0_max"] = max(st["info0_max"], info[0])
            if s[sp_.ID] in in_step:
                st["step_calls"] += 1
                st["step_info0"] += info[0]
                st["step_info1"] += info[1]
    return stats


def _layer_table(outcome: Outcome) -> tuple[list, set]:
    """(name, unit, trace targets it needs, value function) per metric, and
    the per-step boundaries the traced steps did not cross.

    A need ``"<layer> in step"`` holds when the layer recorded calls inside
    ``dynamics.step``, or when no step was traced at all. So when a refactor
    routes steps around a wrapped function (which still exists and so is
    not missing), the per-step metrics built on it read missing, not 0.
    """
    its = [_stats(s.spans, s.factor) for s in outcome.traced]
    walls = [s.wall * s.factor for s in outcome.traced]
    empty = dict.fromkeys(_STAT_KEYS, 0)

    def tot(name, key):
        return sum(it.get(name, empty)[key] for it in its)

    def per_iter(name, key="time"):
        return statistics.median(it.get(name, empty)[key] for it in its)

    def per_call_ms(name, key="time"):
        calls = tot(name, "calls")
        return 1e3 * tot(name, key) / calls if calls else 0.0

    steps = tot("dynamics.step", "calls")

    def per_step(x):
        return x / steps if steps else 0.0

    step_ms = sorted(1e3 * (s[END] - s[START]) * t.factor for t in outcome.traced
                     for s in t.spans if s[NAME] == "dynamics.step")

    def pct(q):
        return step_ms[min(len(step_ms) - 1, int(q * len(step_ms)))] if step_ms else 0.0

    T, P, D = "spectral.transform", "potentials.grad", "dynamics.step"
    W = "reporting.write_csv"
    TS, PS = f"{T} in step", f"{P} in step"
    unseen = {f"{layer} in step" for layer in (T, P)
              if steps and not tot(layer, "step_calls")}
    table = [
        # name, unit, targets it needs, value
        ("spectral.transform_ms", "ms", [T], lambda: per_call_ms(T)),
        ("spectral.transform_calls_per_step", "count", [T, D, TS],
         lambda: per_step(tot(T, "step_calls"))),
        ("spectral.seminorm_ms", "ms", ["spectral.seminorm"],
         lambda: per_call_ms("spectral.seminorm")),
        ("spectral.build_operator_calls", "count", ["spectral.build_operator"],
         lambda: per_iter("spectral.build_operator", "calls")),
        ("spectral.build_operator_s", "s", ["spectral.build_operator"],
         lambda: per_iter("spectral.build_operator")),
        ("spectral.fft_flops_per_step_computed", "flop", [T, D, TS],
         lambda: per_step(tot(T, "step_info0"))),
        ("potentials.grad_ms", "ms", ["potentials"], lambda: per_call_ms(P)),
        ("potentials.value_ms", "ms", ["potentials"],
         lambda: per_call_ms("potentials.value")),
        ("potentials.grad_calls_per_step", "count", ["potentials", D, PS],
         lambda: per_step(tot(P, "step_calls"))),
        *[(f"potentials.{fn}_ms.{kind}", "ms", ["potentials"],
           lambda fn=fn, kind=kind: per_call_ms(f"potentials.{fn}.{kind}"))
          for fn in ("grad", "value") for kind in KINDS],
        ("potentials.make_s", "s", ["potentials.make"], lambda: per_iter("potentials.make")),
        ("dynamics.step_ms_p50", "ms", [D], lambda: pct(0.50)),
        ("dynamics.step_ms_p95", "ms", [D], lambda: pct(0.95)),
        ("dynamics.step_self_ms", "ms", [D, TS, PS], lambda: per_call_ms(D, "self")),
        ("dynamics.energy_ms", "ms", ["dynamics.energy"],
         lambda: per_call_ms("dynamics.energy")),
        ("dynamics.energy_calls", "count", ["dynamics.energy"],
         lambda: per_iter("dynamics.energy", "calls")),
        ("dynamics.simulate_self_s", "s", ["dynamics.simulate"],
         lambda: per_iter("dynamics.simulate", "self")),
        ("dynamics.weak_residual_s", "s", ["dynamics.weak_residual"],
         lambda: per_iter("dynamics.weak_residual")),
        ("dynamics.bytes_per_step_computed", "B", [D, T, "potentials", TS, PS],
         lambda: per_step(tot(D, "info1") + tot(T, "step_info1") + tot(P, "step_info1"))),
        ("dynamics.working_set_bytes_computed", "B", [D],
         lambda: max((it.get(D, empty)["info0_max"] for it in its), default=0)),
        *[(f"experiments.{name}_s", "s", [f"experiments.{name}"],
           lambda name=name: per_iter(f"experiments.{name}")) for name in EXPERIMENTS],
        ("experiments.certify_family_s", "s", ["experiments.certify_family"],
         lambda: per_iter("experiments.certify_family")),
        ("reporting.write_csv_s", "s", [W], lambda: per_iter(W)),
        ("reporting.csv_rows", "count", [W], lambda: per_iter(W, "info0")),
        ("reporting.csv_rows_per_s", "1/s", [W],
         lambda: tot(W, "info0") / tot(W, "time") if tot(W, "time") else 0.0),
        ("reporting.csv_bytes", "B", [W], lambda: per_iter(W, "info1")),
        ("reporting.svg_s", "s", ["reporting.svg"], lambda: per_iter("reporting.svg")),
        ("cli.parse_config_ms", "ms", ["cli.parse_config"],
         lambda: per_call_ms("cli.parse_config")),
        ("cli.build_simconfig_s", "s", ["cli.build_simconfig"],
         lambda: per_iter("cli.build_simconfig")),
        ("cli.output_share", "1", [W],
         lambda: statistics.median(it.get(W, empty)["time"] / w for it, w in zip(its, walls))),
        ("trace.overhead_ratio", "1", [],
         lambda: statistics.median(walls)
         / statistics.median(s.wall * s.factor for s in outcome.untraced)),
    ]
    return table, unseen


def per_layer(outcome: Outcome) -> tuple[dict, list[str]]:
    """name -> (value, unit) for the per-layer metrics, and the names that
    are missing because a wrapped function no longer exists or the traced
    steps no longer pass through it."""
    table, unseen = _layer_table(outcome)
    if not outcome.traced or not outcome.untraced:
        return {}, [name for name, *_ in table]
    gone = outcome.missing | unseen
    metrics, missing = {}, []
    for name, unit, needs, value in table:
        if any(n in gone for n in needs):
            missing.append(name)
        else:
            metrics[name] = (float(value()), unit)
    return metrics, missing


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, unit, *_ in _layer_table(Outcome())[0]]


def spread(samples) -> str:
    """Sample count, quartiles and quartile distance over the median."""
    if not samples:
        return "n=0"
    lo, _, hi = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    med = statistics.median(samples)
    rel = (hi - lo) / med if med else math.nan
    return f"n={len(samples)} p25={lo:.6g} p75={hi:.6g} iqr/median={rel:.3f}"
