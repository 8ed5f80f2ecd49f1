"""adwave benchmark: one workload, one seed, a fixed time budget.

    python3 bench/run.py --workload scalar-2d --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: adwave is imported from ``src/`` of
that checkout and nowhere else, with ``ADWAVE_WORKERS=1`` and one thread
per numerical library. Prints one metric per line with its unit, sample
count and spread, the provenance of the run, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process in turn.

Full results go to ``bench/_runs/<workload>-trace<0|1>.json`` and the
spans of a traced run to ``bench/_runs/<workload>-spans.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join("bench", "_runs")
THREAD_VARS = ("ADWAVE_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no adwave sources)."""


def import_adwave(root: str):
    """Import adwave from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "adwave", "__init__.py")):
        raise SetupError(f"no adwave package under {src}")
    sys.path.insert(0, src)
    import adwave
    import adwave.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(adwave.__file__))) != src:
        raise SetupError(f"adwave imported from {adwave.__file__}, not from {src}")
    return adwave


def _git_commit(root: str) -> str:
    """HEAD of the repository at ``root``; git does not look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cache_bytes() -> dict:
    """L2 and L3 size of cpu0 from sysfs (0 where not reported)."""
    out = {"l2_bytes": 0, "l3_bytes": 0}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        units = {"K": 1024, "M": 1024 ** 2}
        value = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        if level in ("2", "3"):
            out[f"l{level}_bytes"] = value
    return out


def provenance(root: str) -> dict:
    """Where and how the run happened. ``src_lines`` is information only."""
    import numpy
    import scipy
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "env": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_commit": _git_commit(root), "src_lines": src_lines,
            **_cache_bytes()}


def _fmt(value, unit) -> str:
    return f"{value:.6g} {unit}"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; print the report and return the
    contract's result object."""
    for var in THREAD_VARS:  # before NumPy is imported
        os.environ[var] = "1"
    aw = import_adwave(ROOT)
    import harness
    import reference
    import workloads
    want = None
    if workload in workloads.FINGERPRINTED:
        try:
            want = reference.expected(workload, seed)
        except (OSError, ValueError, KeyError) as exc:
            raise SetupError(f"no stored reference for {workload} seed {seed}: {exc!r}")
    runs = os.path.join(ROOT, RUNS_DIR)
    workdir = os.path.join(runs, f"work-{os.getpid()}")
    try:
        wl = workloads.make(workload, aw, seed, workdir)
        outcome = harness.run(wl, aw, seconds, trace, want)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov = provenance(ROOT)
    attempted, failed = outcome.attempted, outcome.failed
    print(f"workload {workload} seed {seed} (input variant {seed % reference.SEEDS}) "
          f"trace {int(trace)}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    e2e = harness.end_to_end(outcome)
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<36} {_fmt(value, unit):<22} {harness.spread(samples)}")
    print(f"  {'fail_ratio':<36} {failed / attempted:.6g} 1{'':<16} "
          f"failed={failed} attempted={attempted}")
    factors = [s.factor for s in outcome.untraced]
    raw = [s.wall for s in outcome.untraced]
    if raw:
        print(f"  {'(raw wall_s)':<36} {_fmt(statistics.median(raw), 's'):<22} "
              f"{harness.spread(raw)}")
        print(f"  {'(speed factor)':<36} {statistics.median(factors):<22.6g} "
              f"{harness.spread(factors)}")
    for msg in outcome.failures:
        print(f"  failure: {msg}")
    layers, missing = harness.per_layer(outcome) if trace else ({}, [])
    for name, (value, unit) in layers.items():
        print(f"  {name:<36} {_fmt(value, unit)}")
    for name in missing:
        print(f"  {name:<36} missing")
    if trace and "dynamics.working_set_bytes_computed" in layers:
        ws = layers["dynamics.working_set_bytes_computed"][0]
        print(f"  working set {ws / 2 ** 20:.3g} MiB (computed) against "
              f"L2 {prov['l2_bytes'] / 2 ** 20:.3g} MiB, L3 {prov['l3_bytes'] / 2 ** 20:.3g} MiB")
    chosen = layers if trace else {k: v[:2] for k, v in e2e.items()}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{workload}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "provenance": prov, "failures": outcome.failures,
                   "missing": missing, **result,
                   "samples": {k: v[2] for k, v in e2e.items()},
                   "raw_wall_s": raw, "speed_factor": factors}, fh, indent=1)
    if trace:
        harness.sp_.write(os.path.join(runs, f"{workload}-spans.jsonl"),
                          [t.spans for t in outcome.traced])
    return result


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own child process, one after the other."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {name} exited with {proc.returncode}")
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adwave benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["scalar-2d", "vector-3d", "cli-simulate", "experiments", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
