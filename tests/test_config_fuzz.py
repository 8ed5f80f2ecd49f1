"""Generated configs: the text round trip, and fuzzers for ``cli.main``.

The first fuzzer starts from a small config that ``adwave simulate`` (or,
with a [sweep] section, ``adwave sweep``) runs: d <= 2, n <= 16, T <= 0.5.
It changes one place: it drops, repeats or misspells a key or a descriptor
argument, writes a non-numeric or non-finite number, unbalances a
parenthesis, adds a stray comma, or sets a dt that does not divide T. The
run must exit 0, 2 or 3 with no exception escaping, and on exit 2 print one
``config error:`` line, which names the changed line while it is in the file.

The second starts from a small config of each experiment and of
``adwave certify-potential`` (n <= 32, T <= 0.5) and sets one [experiment]
number, or one entry of a list, to a zero, negative, tiny, huge, non-finite
or merely different value. The run must exit 0, 1, 2 or 3 with no exception
escaping, and on exit 2 print one ``config error:`` line naming that line.
"""
import contextlib
import io
import os
import re
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from adwave.cli import (
    _SCHEMA,
    Descriptor,
    _bool,
    _float_or_auto,
    _floats,
    _whole,
    format_runspec,
    main,
    parse_config,
    parse_descriptor,
)

# ---------------------------------------------------------------------------
# round trip: parse(format(parse(text))) == parse(text) on generated text

_NAMES = st.tuples(st.sampled_from("abkmsuz"), st.text("abe_kmps", max_size=6)).map("".join)
_NUMBERS = st.integers(-10 ** 6, 10 ** 6) | st.floats()
_DESCRIPTORS = st.recursive(
    st.builds(lambda kind: Descriptor(kind, ()), _NAMES),
    lambda inner: st.builds(lambda kind, args: Descriptor(kind, tuple(args.items())),
                            _NAMES, st.dictionaries(_NAMES, _NUMBERS | inner, max_size=3)),
    max_leaves=6)

# the text of one value, by converter; a swept value is one of these
_VALUE_TEXT = {
    _whole: st.integers(-100, 100).flatmap(lambda i: st.sampled_from([str(i), f"{i}.0"])),
    float: st.floats().map(repr),
    _floats: st.lists(st.floats().map(repr), min_size=1, max_size=3).map(", ".join),
    _bool: st.sampled_from(["true", "yes", "1", "false", "no", "0", "True", "NO"]),
    _float_or_auto: st.just("auto") | st.floats().map(repr),
    str: st.sampled_from(["periodic", "neumann-1d", "exterior-dirichlet", "dispersion",
                          "out", "runs/a"]),
    parse_descriptor: _DESCRIPTORS.map(str),
}
_SWEPT_TEXT = {**_VALUE_TEXT, _floats: st.floats().map(repr)}
_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]


@st.composite
def _config_texts(draw):
    lines = []
    for section, keys in _SCHEMA.items():
        if not keys or not draw(st.booleans()):
            continue
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4)):
            lines.append(f"{key} = {draw(_VALUE_TEXT[keys[key]])}")
    swept = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=3))
    if swept:
        lines.append("[sweep]")
    for section, key in swept:
        values = draw(st.lists(_SWEPT_TEXT[_SCHEMA[section][key]], min_size=1, max_size=3))
        lines.append(f"{section}.{key} = {', '.join(values)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=_config_texts())
def test_round_trip_idempotent_on_generated_configs(text):
    """Nested descriptors, float lists, non-finite numbers and swept
    multi-argument descriptors all come back from their canonical text."""
    spec = parse_config(text)
    once = format_runspec(spec)
    again = parse_config(once)
    assert again == spec
    assert format_runspec(again) == once


# ---------------------------------------------------------------------------
# fuzzer: one change to a config that runs

_POTENTIALS = {
    1: ["clipped_quadratic(u_star=1.0)", "clipped_quadratic(u_star=0.8)", "ball(m=1)",
        "zero()", "linear_taper(eps=0.2)", "mollified(eps=0.2)",
        "mollified(base=clipped_quadratic(u_star=1.0), ratio=1.5, eps=0.2)"],
    2: ["ball(m=2)", "zero(m=2)", "mollified(base=ball(m=2), eps=0.2)"],
}


@st.composite
def _runnable_configs(draw):
    """``(command, lines)`` of a config that exits 0."""
    d = draw(st.sampled_from([1, 2]))
    boundary = draw(st.sampled_from(["exterior-dirichlet", "periodic"]
                                    + (["neumann-1d"] if d == 1 else [])))
    exterior = boundary == "exterior-dirichlet"
    m = draw(st.sampled_from([1, 2]))
    lines = ["[domain]", f"d = {d}",
             f"s = {1.0 if boundary == 'neumann-1d' else draw(st.sampled_from([0.5, 1.0]))}",
             f"omega_extent = {draw(st.sampled_from(['1.0', '6.283185307179586'] + (['1.0, 2.0'] if d == 2 else [])))}",
             f"n = {draw(st.sampled_from(['8', '16'] + (['8, 16'] if d == 2 else [])))}"]
    if not exterior:
        lines += ["pad_factor = 1.0", f"boundary = {boundary}"]
    elif draw(st.booleans()):
        lines += ["pad_factor = 2.0", f"boundary = {boundary}"]
    lines += ["", "[potential]", f"kind = {draw(st.sampled_from(_POTENTIALS[m]))}", "", "[data]"]
    if m == 1:
        data = ["bump(amplitude=0.5)", "bump(amplitude=0.5, width_frac=0.5)"]
        data += [] if exterior else ["sine(k=1, amplitude=0.3)", "constant(value=0.3)"]
    else:
        data = [] if exterior else ["constant(value=0.2)"]
    u0 = draw(st.sampled_from(data + ["zero()"]))
    v0 = draw(st.sampled_from(data + ["zero()"]))
    lines += [f"u0 = {u0}", f"v0 = {v0}"]
    if u0 != "zero()" and draw(st.booleans()):
        lines.append("u0_hs = 0.1")
    if v0 != "zero()" and draw(st.booleans()):
        lines.append("v0_l2 = 0.1")
    lines += ["", "[simulation]", f"T = {draw(st.sampled_from(['0.25', '0.5']))}",
              "record_every = 1000"]  # the first and the last snapshot
    lines += draw(st.lists(st.sampled_from(["cfl_safety = 0.5", "enforce_cfl = true"]),
                           unique=True))
    if not draw(st.integers(0, 3)):
        pair = draw(st.lists(st.sampled_from(_POTENTIALS[m]), min_size=2, max_size=2,
                             unique=True))
        lines += ["", "[sweep]", f"potential.kind = {', '.join(pair)}"]
        return "sweep", lines
    return "simulate", lines


_ARG = re.compile(r"(\w+)=([-+\w.]+)(?=[,)])")  # a numeric descriptor argument
_NUMERIC = {"d", "s", "omega_extent", "n", "pad_factor", "u0_hs", "v0_l2", "T",
            "record_every", "cfl_safety"}


def _tidy(value: str) -> str:
    return value.replace("(, ", "(").replace(", ,", ",").replace(", )", ")")


@st.composite
def _fuzzed_configs(draw):
    """``(command, text, line)``: a runnable config with one change, and
    the 1-based line of the change while it is in the file, else None."""
    command, lines = draw(_runnable_configs())
    keyed = [i for i, text in enumerate(lines) if " = " in text]
    i = draw(st.sampled_from(keyed))
    key, value = lines[i].split(" = ", 1)
    args = list(_ARG.finditer(value))
    ops = ["drop", "repeat", "misspell", "comma", "dt"]
    ops += ["number"] if key in _NUMERIC or args else []
    ops += ["drop arg", "repeat arg", "misspell arg"] if args else []
    ops += ["paren"] if "(" in value else []
    op = draw(st.sampled_from(ops))
    line = i + 1
    if op == "drop":
        del lines[i]
        line = None
    elif op == "repeat":
        lines.insert(i + 1, lines[i])
        line = i + 2
    elif op == "misspell":
        lines[i] = f"{key}{draw(st.sampled_from(['x', '_', 's']))} = {value}"
    elif op == "comma":
        at = draw(st.integers(0, len(value)))
        lines[i] = f"{key} = {value[:at]},{value[at:]}"
    elif op == "dt":
        t = lines.index("[simulation]") + 1
        lines.insert(t + 1, f"dt = {draw(st.sampled_from(['0.3', '0.175', '0.2']))}")
        line = t + 2
    elif op == "paren":
        at = draw(st.integers(0, len(value)))
        if draw(st.booleans()):
            value = value[:at] + draw(st.sampled_from("()")) + value[at:]
        else:
            at = draw(st.sampled_from([j for j, ch in enumerate(value) if ch in "()"]))
            value = value[:at] + value[at + 1:]
        lines[i] = f"{key} = {value}"
    else:
        bad = draw(st.sampled_from(["nan", "inf", "-inf", "abc", "1.0.0", "", "1e"]))
        if op == "number" and key in _NUMERIC:
            parts = value.split(", ")
            parts[draw(st.integers(0, len(parts) - 1))] = bad
            lines[i] = f"{key} = {', '.join(parts)}"
        else:
            arg = draw(st.sampled_from(args))
            a, b = arg.span()
            new = {"number": f"{arg[1]}={bad}", "drop arg": "",
                   "repeat arg": f"{arg[0]}, {arg[0]}",
                   "misspell arg": f"{arg[1]}x={arg[2]}"}[op]
            lines[i] = f"{key} = {_tidy(value[:a] + new + value[b:])}"
    return command, "\n".join(lines) + "\n", line


def _main(command: str, text: str):
    """Exit code, stdout and stderr of ``adwave command`` on config ``text``;
    ``command`` may carry arguments before the config, as ``experiment NAME``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            rc = main([*command.split(), cfg, "--out", os.path.join(tmp, "out")])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(case=_runnable_configs())
def test_unchanged_configs_run(case):
    command, lines = case
    rc, _, err = _main(command, "\n".join(lines) + "\n")
    assert (rc, err) == (0, "")


@settings(max_examples=300, deadline=None)
@given(case=_fuzzed_configs())
def test_changed_configs_exit_with_a_documented_code(case):
    command, text, line = case
    rc, _, err = _main(command, text)
    assert rc in (0, 2, 3), err
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith("config error: "), err
        if line is not None:
            assert err.startswith(f"config error: line {line}: "), (text, err)


# ---------------------------------------------------------------------------
# fuzzer: one [experiment] number of an experiment's config

_EXPERIMENT_CONFIGS = {
    "experiment energy-inequality": ["[experiment]", "eps = 0.1", "T = 0.5", "n = 32",
                                     "extent = 6.283185307179586", "amplitude = 0.5"],
    "experiment epsilon-convergence": ["[experiment]", "eps_list = 0.2, 0.1, 0.05",
                                       "T = 0.5", "n = 32", "extent = 6.283185307179586",
                                       "amplitude = 0.9"],
    "experiment limit-obstruction": ["[experiment]", "eps_list = 0.4, 0.2", "T = 0.5",
                                     "L = 1.0", "n = 32"],
    "experiment small-data": ["[experiment]", "eps1 = 0.05", "eps2 = 0.01", "T = 0.5",
                              "family_eps = 0.05"],
    "experiment dispersion": ["[experiment]", "n = 16"],
    "certify-potential": ["[family]", "kind = mollified()", "", "[experiment]",
                          "eps_list = 0.4, 0.2"],
}


@st.composite
def _experiment_cases(draw):
    """``(command, text, line)``: an experiment config with one [experiment]
    number changed, and the 1-based line of the change."""
    command = draw(st.sampled_from(sorted(_EXPERIMENT_CONFIGS)))
    lines = list(_EXPERIMENT_CONFIGS[command])
    i = draw(st.sampled_from([i for i, text in enumerate(lines)
                              if " = " in text and not text.startswith("kind")]))
    key, value = lines[i].split(" = ")
    parts = value.split(", ")
    parts[draw(st.integers(0, len(parts) - 1))] = draw(
        st.sampled_from(["0", "-1", "1e-300", "1e300", "nan", "inf", "3"]))
    lines[i] = f"{key} = {', '.join(parts)}"
    return command, "\n".join(lines) + "\n", i + 1


def test_the_experiment_configs_run():
    for command, lines in _EXPERIMENT_CONFIGS.items():
        assert _main(command, "\n".join(lines) + "\n")[::2] == (0, ""), command


@settings(max_examples=200, deadline=None)
@given(case=_experiment_cases())
def test_changed_experiment_numbers_exit_with_a_documented_code(case):
    command, text, line = case
    rc, _, err = _main(command, text)
    assert rc in (0, 1, 2, 3), err
    if rc == 2:
        assert err.count("\n") == 1 and err.startswith(f"config error: line {line}: "), \
            (text, err)
