"""In-memory span tracer that wraps adwave's public functions from outside.

A span is one call across a layer boundary: ``[id, parent, name, label,
start, end, info]``. ``parent`` is the id of the innermost traced call that
was running when this one started (-1 at top level), ``label`` refines the
name (the potential kind for potential callables) and ``info`` holds counts
computed at the same boundary (for example flops and bytes of a transform).

Tracing works by replacing the module attributes that callers look up, for
example ``adwave.dynamics.step``, with wrappers; :meth:`Tracer.install`
returns an undo function that puts every original back. A target whose
attribute no longer exists is recorded in :attr:`Tracer.missing`, so a
metric built on it is reported as missing rather than as zero.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import time

ID, PARENT, NAME, LABEL, START, END, INFO = range(7)
_TRACED = "__bench_traced__"


class Tracer:
    """Collects spans from wrapped callables, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, label: str = "", info=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``info(args, kwargs, result)`` runs after the span has ended, so its
        cost is not charged to the span.
        """
        if getattr(fn, _TRACED, False):
            return fn
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, label, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        setattr(traced, _TRACED, True)
        return traced

    def install(self, targets) -> callable:
        """Patch every ``(name, [(owner, attr), ...], make_wrapper)`` target.

        ``make_wrapper(tracer, name, original)`` returns the replacement.
        Returns a function that restores the originals.
        """
        saved = []
        for name, places, make_wrapper in targets:
            found = False
            for owner, attr in places:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                found = True
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(self, name, original))
            if not found:
                self.missing.add(name)

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo


def write(path: str, iterations) -> None:
    """Write the spans of each traced iteration as JSON lines: a header line
    naming the fields, then one array per span (times in seconds from the
    process's performance counter)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(["iteration", "id", "parent", "name", "label",
                             "start", "end", "info"]) + "\n")
        for it, spans in enumerate(iterations):
            for s in spans:
                fh.write(json.dumps([it, *s]) + "\n")


def plain(tracer: Tracer, name: str, fn):
    return tracer.wrap(name, fn)


def with_info(info):
    """Wrapper factory that attaches ``info(args, kwargs, result)`` counts."""
    def make(tracer: Tracer, name: str, fn):
        return tracer.wrap(name, fn, info=info)
    return make


def traced_potential(tracer: Tracer, pot):
    """Copy of a Potential whose ``value`` and ``grad`` record spans.

    The label is the potential kind, the part of its name before '('.
    """
    kind = pot.name.split("(", 1)[0]
    return dataclasses.replace(
        pot,
        value=tracer.wrap("potentials.value", pot.value, kind, _field_info),
        grad=tracer.wrap("potentials.grad", pot.grad, kind, _field_info))


def potential_factory(tracer: Tracer, name: str, fn):
    """Wrap a Potential factory so every Potential it returns is traced."""
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        return traced_potential(tracer, fn(*args, **kwargs))
    return factory


def family_factory(tracer: Tracer, name: str, fn):
    """Wrap a RegularizedFamily factory: ``make`` records ``name`` spans and
    returns traced members."""
    @functools.wraps(fn)
    def factory(*args, **kwargs):
        fam = fn(*args, **kwargs)
        make = fam.make

        def traced_make(eps):
            return traced_potential(tracer, make(eps))

        return dataclasses.replace(fam, make=tracer.wrap(name, traced_make))
    return factory


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _field_info(args, kwargs, result):
    """(flops, bytes): bytes read and written at the boundary, computed."""
    return 0, _nbytes(args[0] if args else None) + _nbytes(result)


def transform_info(args, kwargs, result):
    """Computed FFT flops and boundary bytes of one operator application.

    One application is a forward and an inverse transform per component,
    each counted as a complex transform of 5 N log2 N flops, N the number
    of grid points.
    """
    op, f = args[0], args[1]
    n = math.prod(op.domain.n)
    comps = f.size // n if n else 0
    flops = 2 * comps * 5 * n * math.log2(n) if n > 1 else 0
    return flops, _nbytes(f) + _nbytes(result)


def step_info(args, kwargs, result):
    """Boundary bytes of a step (state in, state out) and its computed
    working set: five real fields (u, v, the half-step velocity, the new u
    and v), one real force field, one complex spectrum, the symbol and the
    interior mask."""
    state, op = args[0], args[1]
    field = _nbytes(state.u)
    points = op.symbol.size
    working = 6 * field + 2 * field + _nbytes(op.symbol) + points
    return working, 2 * field + _nbytes(result.u) + _nbytes(result.v)


def simulate_info(args, kwargs, result):
    """(steps taken, max relative energy drift) of one trajectory."""
    cfg = result.config
    steps = round(float(result.times[-1]) / cfg.dt)
    totals = result.totals
    e0 = abs(float(totals[0]))
    drift = float(max(abs(float(e) - float(totals[0])) for e in totals)) / e0 if e0 else 0.0
    return steps, drift


def csv_info(args, kwargs, result):
    """(rows, bytes) of the file write_csv produced."""
    with open(result, "rb") as fh:
        data = fh.read()
    return data.count(b"\n") - 1, len(data)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its children's intervals cover (overlaps counted once)."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            a, b = max(c[START], lo), min(c[END], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[ID]] = (hi - lo) - covered
    return out


def under(spans, ancestor: str) -> set[int]:
    """Ids of spans that have a span called ``ancestor`` above them."""
    by_id = {s[ID]: s for s in spans}
    out = set()
    for s in spans:
        parent = s[PARENT]
        while parent >= 0:
            if by_id[parent][NAME] == ancestor:
                out.add(s[ID])
                break
            parent = by_id[parent][PARENT]
    return out
