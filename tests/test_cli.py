import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from adwave import cli
from adwave.cli import (
    ConfigError,
    Descriptor,
    EXPERIMENTS,
    _trajectory_blocks,
    _write_trajectory,
    build_family,
    build_potential,
    format_runspec,
    main,
    parse_config,
    parse_descriptor,
)
from adwave.dynamics import EnergyBreakdown, FieldState, SimConfig, Trajectory
from adwave.potentials import zero_potential
from adwave.reporting import fmt
from adwave.spectral import PERIODIC, Domain
from oracles import trajectory_csv_oracle

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MINIMAL = """\
[domain]
d = 1
s = 1.0
omega_extent = 6.283185307179586
n = 64

[potential]
kind = clipped_quadratic(u_star=1.0)

[data]
u0 = zero()
v0 = zero()

[simulation]
T = 0.5
"""


class TestParse:
    def test_minimal_config_gets_defaults(self):
        spec = parse_config(MINIMAL)
        assert spec.get("domain", "pad_factor") == 2.0
        assert spec.get("simulation", "cfl_safety") == 0.9
        assert spec.get("simulation", "record_every") == 10
        assert spec.get("simulation", "dt") == "auto"
        config = spec.build_simconfig()
        assert config.domain.n == (64,)
        assert config.potential.name == "clipped_quadratic(u_star=1)"

    def test_unknown_key_is_line_anchored(self):
        text = "[domain]\nd = 1\nspooky = 3\n"
        with pytest.raises(ConfigError, match="line 3.*spooky"):
            parse_config(text)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[conjuring]\nx = 1\n")

    def test_type_error_is_line_anchored(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[domain]\nd = one\n")

    @pytest.mark.parametrize("section, key, raw, want", [
        ("domain", "d", "1.0", 1), ("simulation", "record_every", "2.0", 2),
        ("experiment", "n", "64.0", 64), ("run", "seed", "3.0", 3),
        ("run", "seed", "12345678901234567890", 12345678901234567890)])
    def test_whole_number_keys_take_integral_floats(self, section, key, raw, want):
        got = parse_config(f"[{section}]\n{key} = {raw}\n").get(section, key)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("section, key", [
        ("domain", "d"), ("simulation", "record_every"), ("experiment", "n"), ("run", "seed")])
    @pytest.mark.parametrize("raw", ["1.5", "inf", "nan"])
    def test_a_fractional_whole_number_key_names_its_line(self, section, key, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# a comment\n[{section}]\n{key} = {raw}\n")
        assert str(err.value) == (f"line 3: bad value for {key!r}: the value must be "
                                  f"a whole number, got {float(raw)}")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[domain]\nd = 1\nd = 2\n")

    def test_negative_s_names_requirement(self):
        text = MINIMAL.replace("s = 1.0", "s = -1.0")
        with pytest.raises(ConfigError, match="positive"):
            parse_config(text).build_simconfig()

    def test_embedding_requirement_reported(self):
        # s = 0.5, d = 1 violates 2s > d for the small-data experiment
        from adwave.experiments import run_small_data
        from adwave.spectral import Domain
        dom = Domain(d=1, s=0.5, omega_extent=1.0, n=64, pad_factor=2.0)
        with pytest.raises(ValueError, match="2s > d"):
            run_small_data(domain=dom)

    def test_round_trip_idempotent(self):
        spec = parse_config(MINIMAL)
        once = format_runspec(spec)
        spec2 = parse_config(once)
        assert spec2 == spec
        assert format_runspec(spec2) == once

    def test_comments_and_blank_lines_ignored(self):
        text = "# top\n\n[domain]\nd = 1  # dimension\ns = 1.0\n"
        spec = parse_config(text)
        assert spec.get("domain", "d") == 1


class TestDomainSection:
    TWO_D = MINIMAL.replace("d = 1", "d = 2")   # omega_extent is line 4, n line 5

    def test_single_values_broadcast_to_every_axis(self):
        dom = parse_config(self.TWO_D.replace("n = 64", "n = 16")).build_domain()
        assert dom.omega_extent == (6.283185307179586,) * 2
        assert dom.n == (16, 16)
        dom = parse_config(self.TWO_D.replace("n = 64", "n = 16, 8")).build_domain()
        assert dom.n == (16, 8)

    def test_two_d_scalar_config_simulates(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(self.TWO_D.replace("n = 64", "n = 8").replace("T = 0.5", "T = 0.1"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,idx0,idx1,comp,value"

    @pytest.mark.parametrize("old, new, line, what", [
        ("omega_extent = 6.283185307179586", "omega_extent = 1, 2, 3", 4,
         "omega_extent: expected 2 per-axis values, got 3"),
        ("omega_extent = 6.283185307179586", "omega_extent = -1", 4, "positive"),
        ("n = 64", "n = 8, 8, 8", 5, "n: expected 2 per-axis values, got 3"),
        ("n = 64", "n = 63", 5, "even"),
        ("n = 64", "n = 64.5", 5, "integers, got 64.5"),
        ("d = 2", "d = 4", 2, "dimension"),
        ("n = 64", "n = 64\npad_factor = 1.0", 6, "pad_factor > 1"),
        ("n = 64", "n = 64\nboundary = periodic", 6, "requires pad_factor = 1"),
        ("n = 64", "n = 64\nboundary = sideways", 6, "unknown boundary"),
        ("n = 64", "n = 1e300", 5, "1e\\+300 x 1e\\+300 grid .* physical memory"),
    ])
    def test_errors_anchor_at_the_offending_key(self, old, new, line, what):
        with pytest.raises(ConfigError, match=f"^line {line}: .*{what}"):
            parse_config(self.TWO_D.replace(old, new)).build_domain()

    @pytest.mark.parametrize("old, new, line, what", [
        ("omega_extent = 6.283185307179586", "omega_extent = 1e308", 4,
         "the grid spacing omega_extent * pad_factor / n must be positive and finite, "
         "got (inf,)"),
        ("omega_extent = 6.283185307179586", "omega_extent = 1e-323", 4,
         "the grid spacing omega_extent * pad_factor / n must be positive and finite, "
         "got (0.0,)"),
        ("omega_extent = 6.283185307179586\nn = 64", "omega_extent = 1\nn = 64\n"
         "pad_factor = 1e17", 6, "pad_factor = 1e+17 leaves no grid point strictly inside Omega"),
        ("omega_extent = 6.283185307179586", "omega_extent = 1e-160", 4,
         "the squared frequency (pi / h)^2 overflows at the grid spacing h = (3.125e-162,)"),
        ("s = 1.0", "s = 300", 3, "the largest symbol value 256^s overflows at s = 300.0"),
    ], ids=["spacing-overflows", "spacing-underflows", "pad-too-wide",
            "symbol-squared-frequency-overflows", "symbol-power-overflows"])
    def test_a_grid_on_which_omega_holds_no_point_exits_2_at_its_key(
            self, tmp_path, capsys, old, new, line, what):
        """Refused before anything runs: unchecked, the overflowing spacing
        writes NaN energies and the wide pad turns every field into zeros,
        and an overflowing symbol warned, then blamed a dt never set."""
        rc, (out, err) = _run(tmp_path, capsys, MINIMAL.replace(old, new))
        assert rc == 2 and out == ""
        _assert_one_error_at(err, line)
        assert f"invalid [domain]: {what}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["64.5", "64.5, 32", "64, inf"])
    def test_fractional_grid_sizes_are_the_librarys_error_in_the_cli_text(self, n):
        with pytest.raises(ConfigError) as err:
            parse_config(self.TWO_D.replace("n = 64", f"n = {n}")).build_domain()
        assert str(err.value) == f"line 5: invalid [domain]: grid sizes must be integers, got {n}"


class TestSimulationSection:
    # [simulation] starts at line 14 of MINIMAL: T on line 15, the key after it on 16
    @pytest.mark.parametrize("old, new, line, what", [
        ("T = 0.5", "T = 1.0\ndt = 0.3", 16,
         r"dt = 0\.3 does not divide T = 1\.0 .* = 0\.25$"),
        ("T = 0.5", "T = 1.0\ndt = 0.5", 16, "exceeds the stability bound"),
        ("T = 0.5", "T = 0.5\nrecord_every = 0", 16, "record_every must be >= 1"),
        ("T = 0.5", "T = -1.0", 15, "T must be positive"),
        ("u0 = zero()", "u0 = constant(value=1.0)", 11, "u0 must vanish outside"),
        ("clipped_quadratic(u_star=1.0)", "linear_taper(eps=1e-300)", 8,
         r"refused \(the auto step follows the gradient Lipschitz constant 2e\+300 of "
         r"linear_taper\(eps=1e-300\)\)$"),
    ])
    def test_errors_anchor_at_the_offending_key(self, old, new, line, what):
        with pytest.raises(ConfigError, match=f"^line {line}: invalid \\[simulation\\]: .*{what}"):
            parse_config(MINIMAL.replace(old, new)).build_simconfig()

    def test_dt_that_does_not_divide_T_exits_2_at_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL.replace("T = 0.5", "T = 1.0\ndt = 0.7\nenforce_cfl = false"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: line 16: invalid [simulation]: dt = 0.7 does not divide T = 1.0")
        assert not (tmp_path / "out").exists()

    def test_an_auto_step_plan_that_never_ends_exits_2_at_the_T_line(self, tmp_path):
        """s = 200 on 16 points gives an auto step of about 7e-121, some 7e119
        steps to T = 0.5: refused before anything runs, where it once ran
        with no output until killed (in a subprocess, so that a regression
        ends at the timeout and does not hang the suite)."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL.replace("s = 1.0", "s = 200").replace("n = 64", "n = 16"))
        proc = subprocess.run(
            [sys.executable, "-m", "adwave.cli", "simulate", str(cfg), "--out",
             str(tmp_path / "out")], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": _SRC})
        assert proc.returncode == 2 and proc.stdout == ""
        assert re.fullmatch(r"config error: line 15: invalid \[simulation\]: T / dt = "
                            r"7\.\d+e\+119 steps; plans of 500,000,000 steps or more are "
                            r"refused\n", proc.stderr)
        assert not (tmp_path / "out").exists()


# floats whose text is easy to get wrong: signed zero, subnormals, huge and
# integral values, non-finite values, and fractions with no exact binary form
_AWKWARD = [0.0, -0.0, 5e-324, -2.2250738585072014e-309, 1e300, -1e300, 2.0,
            -17.0, 1e16, 0.1, 1.0 / 3.0, float("nan"), float("inf"), float("-inf")]


@st.composite
def _snapshots(draw, shape, line_size, values):
    """A field of ``shape`` whose grid lines (``line_size`` values each) are
    often all +0, all -0, or +0 but for one value, so that trajectory.csv's
    zero-line text and each of its fall-backs are met."""
    u = draw(arrays(np.float64, shape, elements=values))
    for line in u.reshape(-1, line_size):
        kind = draw(st.sampled_from(["drawn", "+0", "-0", "one"]))
        if kind != "drawn":
            line[:] = -0.0 if kind == "-0" else 0.0
        if kind == "one":
            line[draw(st.integers(0, line_size - 1))] = draw(values)
    return u


@st.composite
def _trajectories(draw):
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.sampled_from([2, 4, 6]), min_size=d, max_size=d)))
    m = draw(st.integers(1, 2))
    shape = n if m == 1 else n + (m,)
    values = st.sampled_from(_AWKWARD) | st.floats(allow_nan=False, allow_infinity=False)
    times = draw(st.lists(st.integers(0, 99).map(lambda k: k * 0.1)
                          | st.floats(0.0, 1e6) | st.sampled_from([1.0 / 3.0, 0.7]),
                          min_size=1, max_size=3))
    domain = Domain(d=d, s=1.0, omega_extent=1.0, n=n, pad_factor=1.0,
                    boundary_mode=PERIODIC)
    config = SimConfig(domain=domain, potential=zero_potential(m), T=1.0, dt=0.5,
                       u0=np.zeros(shape), v0=np.zeros(shape), enforce_cfl=False)
    states = [FieldState(draw(_snapshots(shape, n[-1] * m, values)), np.zeros(shape), t)
              for t in times]
    return Trajectory(config, np.array(times), states,
                      [EnergyBreakdown(0.0, 0.0, 0.0, 0.0)] * len(times))


class TestTrajectoryCsv:
    @settings(max_examples=60, deadline=None)
    @given(traj=_trajectories())
    def test_bytes_match_the_cell_by_cell_oracle(self, traj):
        with tempfile.TemporaryDirectory() as out:
            _write_trajectory(traj, out)
            with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
                assert fh.read() == trajectory_csv_oracle(traj).encode()

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats())
    def test_percent_template_formats_every_float_as_fmt(self, x):
        """Each grid line is formatted by one ``%`` over ``%.17g`` cells."""
        for y in [*_AWKWARD, x]:
            assert "%.17g" % y == fmt(y)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_block_holds_one_grid_line(self, d, m):
        """A block is one line of the last axis, n[-1] * m rows, so the text
        held at once stays small on any grid."""
        n = (2, 4, 6)[-d:]
        shape = n if m == 1 else n + (m,)
        domain = Domain(d=d, s=1.0, omega_extent=1.0, n=n, pad_factor=1.0,
                        boundary_mode=PERIODIC)
        config = SimConfig(domain=domain, potential=zero_potential(m), T=1.0, dt=0.5,
                           u0=np.zeros(shape), v0=np.zeros(shape), enforce_cfl=False)
        times = [0.0, 0.5, 1.0]
        states = [FieldState(np.full(shape, t), np.zeros(shape), t) for t in times]
        traj = Trajectory(config, np.array(times), states,
                          [EnergyBreakdown(0.0, 0.0, 0.0, 0.0)] * len(times))
        blocks = list(_trajectory_blocks(traj))
        assert len(blocks) == len(times) * int(np.prod(n[:-1]))
        assert [b.count("\n") for b in blocks] == [n[-1] * m] * len(blocks)

    def test_minimal_bump_run_has_a_fixed_hash(self, tmp_path):
        """The file this config gave before trajectory.csv was written in
        blocks; a formatting change that alters a single byte breaks it."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL.replace("u0 = zero()", "u0 = bump(amplitude=0.5)"))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "4ad0f56decf99ea2c281726ca29854862d8927cc65b940ed32e0d5cf16ce404b"

    @pytest.mark.parametrize("domain, potential, data, record_every, hashes", [
        ("d = 1\ns = 1.0\nomega_extent = 1.0\nn = 64\nboundary = neumann-1d",
         "mollified(eps=0.1)", "u0 = bump(amplitude=1.2)\nv0 = zero()", 50,
         ("38d93963ddba7a3e908d8e3dd2f87b9315d934c612593229e6cd28de85e75f85",
          "9018dea0e70f12787dc4b4e8a0b2265d1788f1612caa6eebba32c679a6d6a1f5")),
        ("d = 2\ns = 1.0\nomega_extent = 6.283185307179586\nn = 8\nboundary = periodic",
         "ball(m=2)", "u0 = constant(value=0.3)\nv0 = constant(value=0.9)", 5,
         ("6db2b5b172d06b16907ed04a3721e202c64cbf456cd22e178e243d734e6778d0",
          "4079da9bba3ad149ae2ecf57858027bed5a645f30a985ccae2a84ddf1975c94e")),
    ], ids=["neumann-1d-mollified-bump", "periodic-2d-ball-constant"])
    def test_runs_where_omega_is_the_box_have_fixed_hashes(
            self, tmp_path, domain, potential, data, record_every, hashes):
        """trajectory.csv and energy.csv of a cosine-basis scalar run and of a
        2-D vector run on the whole periodic box, as the code gave them
        before the support checks stopped testing the boundary mode."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[domain]\n{domain}\npad_factor = 1.0\n\n"
                       f"[potential]\nkind = {potential}\n\n[data]\n{data}\n\n"
                       f"[simulation]\nT = 1.0\nrecord_every = {record_every}\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("trajectory.csv", "energy.csv"))
        assert got == hashes

    @pytest.mark.parametrize("domain, potential, hashes", [
        ("d = 2\nn = 16", "mollified(eps=0.1)",
         ("087fb021ef7e9c3b355c3e1f81f16d77048c1372497f8242d52e9d1aa5793d80",
          "5ef6103577057ae1ea75d735ecf88da6a1fc0db4c13884aefe572489dd1dfe52")),
        ("d = 3\nn = 8", "linear_taper(eps=0.2)",
         ("cbf4cfc48db0bfc33e993712714dd95145d3e837512cd5286efcb3eff4f15f3b",
          "b8fef8941b13e93a26b85adbc6ccc422807397a54d84b5997a7ea00b361bf560")),
    ], ids=["exterior-2d-mollified-bump", "exterior-3d-linear-taper-bump"])
    def test_exterior_runs_have_fixed_hashes(self, tmp_path, domain, potential, hashes):
        """trajectory.csv and energy.csv of exterior-dirichlet runs in d >= 2,
        whose exterior cells print as 0 and -0, as the code gave them before
        trajectory.csv was formatted one grid line per %-template."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[domain]\n{domain}\ns = 1.0\nomega_extent = 6.283185307179586\n\n"
                       f"[potential]\nkind = {potential}\n\n"
                       "[data]\nu0 = bump(amplitude=1.2)\nv0 = zero()\n\n"
                       "[simulation]\nT = 1.0\nrecord_every = 2\n")
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        data = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert b",-0\n" in data and b",0\n" in data
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in ("trajectory.csv", "energy.csv"))
        assert got == hashes


class TestDescriptors:
    def test_nested_descriptor(self):
        d = parse_descriptor("mollified(base=clipped_quadratic(u_star=1.0), "
                             "ratio=2.0, eps=0.1)")
        assert d.kind == "mollified"
        args = dict(d.args)
        assert isinstance(args["base"], Descriptor)
        assert args["ratio"] == 2.0

    def test_canonical_text_round_trips(self):
        text = "mollified(base=clipped_quadratic(u_star=1.0), ratio=2.0, eps=0.1)"
        d = parse_descriptor(text)
        assert parse_descriptor(str(d)) == d

    def test_build_potentials(self):
        assert build_potential(parse_descriptor("ball(m=2)")).m == 2
        assert build_potential(parse_descriptor("zero()")).bound == 0.0
        W = build_potential(parse_descriptor("linear_taper(eps=0.5)"))
        assert W.grad(1.0) == pytest.approx(1.5)

    def test_build_family(self):
        fam = build_family(parse_descriptor("linear_taper()"))
        assert fam.name == "linear_taper"
        fam2 = build_family(parse_descriptor(
            "mollified(base=clipped_quadratic(u_star=1.0), ratio=2.0)"))
        assert "mollified" in fam2.name

    def test_malformed_descriptor(self):
        with pytest.raises(ConfigError):
            parse_descriptor("bump")
        with pytest.raises(ConfigError):
            parse_descriptor("bump(amplitude)")
        with pytest.raises(ConfigError, match="unknown potential"):
            build_potential(parse_descriptor("wishful(x=1)"))

    def test_taper_requires_eps(self):
        with pytest.raises(ConfigError):
            build_potential(parse_descriptor("linear_taper()"))


class TestCommands:
    def write(self, tmp_path, text, name="cfg.ini"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_simulate_writes_csvs(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL)
        rc = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "energy.csv").exists()
        header = (tmp_path / "out" / "energy.csv").read_text().splitlines()[0]
        assert header == "t,kinetic,elastic,adhesive,total"

    def test_trajectory_csv_schema(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL)
        main(["simulate", cfg, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,idx0,comp,value"
        assert len(lines[1].split(",")) == 4

    def test_determinism_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL.replace("u0 = zero()",
                                                   "u0 = bump(amplitude=0.5)"))
        main(["simulate", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", cfg, "--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "energy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_embed_const_prints_value(self, capsys):
        assert main(["embed-const", "--d", "1", "--s", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(2.0 / np.sqrt(2 * np.pi), abs=1e-9)

    @pytest.mark.parametrize("s", ["150", "1e308"])
    def test_embed_const_of_a_huge_s_prints_the_limit(self, capsys, s):
        assert main(["embed-const", "--d", "1", "--s", s]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert float(out) == pytest.approx(2.0 / np.sqrt(2 * np.pi), rel=5e-3)

    def test_embed_const_rejects_bad_regime(self, capsys):
        assert main(["embed-const", "--d", "2", "--s", "0.9"]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_embed_const_rejects_a_tol_not_positive_and_finite(self, capsys, tol):
        assert main(["embed-const", "--d", "1", "--s", "1", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: tol must be positive and finite, got {float(tol)!r}\n"

    def test_experiment_dispersion(self, tmp_path, capsys):
        rc = main(["experiment", "dispersion", "--out", str(tmp_path / "disp")])
        assert rc == 0
        assert (tmp_path / "disp" / "report.json").exists()
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_experiment_limit_obstruction_config_override(self, tmp_path):
        cfg = self.write(tmp_path, "[experiment]\nname = limit-obstruction\n"
                                   "eps_list = 0.3, 0.15\nT = 2.0\nn = 32\n")
        rc = main(["experiment", "limit-obstruction", cfg,
                   "--out", str(tmp_path / "obs")])
        assert rc == 0
        report = json.loads((tmp_path / "obs" / "report.json").read_text())
        assert report["parameters"]["eps"] == [0.3, 0.15]

    def test_experiment_rejects_a_key_it_does_not_read(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[experiment]\nn = 16\nT = 3\n")
        rc = main(["experiment", "dispersion", cfg, "--out", str(tmp_path / "disp")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'T'" in err
        assert not (tmp_path / "disp" / "report.json").exists()

    def test_sweep_rejects_a_key_its_experiment_does_not_read(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[experiment]\nname = dispersion\n\n"
                                   "[sweep]\nexperiment.T = 1.0, 2.0\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "'T'" in err

    @pytest.mark.parametrize("text, line", [
        ("[experiment]\nname = bogus\n\n[sweep]\nexperiment.n = 16\n", 2),
        ("[experiment]\nname = dispersion\n\n[sweep]\n"
         "experiment.name = dispersion, bogus\n", 5),
    ], ids=["experiment-name", "swept-name"])
    def test_sweep_rejects_an_unknown_experiment_before_any_run(self, tmp_path, capsys,
                                                                text, line):
        cfg = self.write(tmp_path, text)
        assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: unknown experiment 'bogus'")
        assert "Traceback" not in err
        assert not list((tmp_path / "sw").glob("run-*"))

    def test_sweep_rejects_a_bad_value_at_its_line_before_any_run(self, tmp_path, capsys):
        cfg = self.write(tmp_path, MINIMAL + "\n[sweep]\nsimulation.T = 0.5, abc\n")
        assert main(["sweep", cfg, "--out", str(tmp_path / "sw")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: line 18: bad value for 'T'")
        assert not (tmp_path / "sw").exists()

    def test_swept_values_are_typed_and_round_trip(self, tmp_path):
        text = (MINIMAL + "\n[sweep]\nsimulation.T = 0.25, 0.5\ndomain.n = 16, 32\n"
                "potential.kind = zero(), ball(m=1)\nsimulation.enforce_cfl = yes, no\n")
        spec = parse_config(text)
        assert spec.get("sweep", "simulation.T") == [0.25, 0.5]
        assert spec.get("sweep", "domain.n") == [[16.0], [32.0]]
        assert spec.get("sweep", "potential.kind")[1] == Descriptor("ball", (("m", 1),))
        assert spec.get("sweep", "simulation.enforce_cfl") == [True, False]
        once = format_runspec(spec)
        assert parse_config(once) == spec
        assert format_runspec(parse_config(once)) == once

    @pytest.mark.parametrize("old, new, line, what", [
        ("kind = clipped_quadratic(u_star=1.0)", "kind = ball(m=2.5)", 8,
         "invalid potential ball(m=2.5): m must be a whole number, got 2.5"),
        ("kind = clipped_quadratic(u_star=1.0)", "kind = ball(m=inf)", 8,
         "invalid potential ball(m=inf): m must be a whole number, got inf"),
        ("kind = clipped_quadratic(u_star=1.0)", "kind = zero(m=nan)", 8,
         "invalid potential zero(m=nan): m must be a whole number, got nan"),
        ("kind = clipped_quadratic(u_star=1.0)",
         "kind = mollified(base=ball(m=1.5), eps=0.1)", 8,
         "m must be a whole number, got 1.5"),
        ("u0 = zero()", "u0 = sine(k=1.5)", 11,
         "invalid data sine(k=1.5): k must be a whole number, got 1.5"),
    ])
    def test_fractional_or_infinite_descriptor_integers_exit_2(self, tmp_path, capsys,
                                                              old, new, line, what):
        text = MINIMAL.replace("n = 64\n", "n = 64\npad_factor = 1.0\nboundary = periodic\n")
        cfg = self.write(tmp_path, text.replace(old, new))
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line + 2}: ") and what in err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_whole_float_descriptor_integers_still_accepted(self, tmp_path):
        text = MINIMAL.replace("clipped_quadratic(u_star=1.0)", "ball(m=1.0)")
        cfg = self.write(tmp_path, text.replace("u0 = zero()", "u0 = sine(k=2.0)").replace(
            "n = 64\n", "n = 64\npad_factor = 1.0\nboundary = periodic\n"))
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_experiment_applies_library_defaults(self, tmp_path):
        cfg = self.write(tmp_path, "[experiment]\nT = 2.0\n")
        assert main(["experiment", "limit-obstruction", cfg,
                     "--out", str(tmp_path / "obs")]) == 0
        report = json.loads((tmp_path / "obs" / "report.json").read_text())
        assert report["parameters"] == {"eps": [0.4, 0.2, 0.1], "T": 2.0,
                                        "L": 1.0, "n": 64}

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output directory is ./out
        cfg = self.write(tmp_path, "[domain]\nd = 1\ns = -3\n")
        assert main(["simulate", cfg]) == 2

    def test_failed_experiment_exit_code(self, tmp_path):
        # data far outside the small-data regime: the report must fail
        cfg = self.write(tmp_path, "[experiment]\nname = small-data\neps1 = 2.0\n")
        rc = main(["experiment", "small-data", cfg,
                   "--out", str(tmp_path / "big")])
        assert rc == 1
        report = json.loads((tmp_path / "big" / "report.json").read_text())
        assert report["first_failure"] == "small_data_regime"

    def test_blowup_exit_code(self, tmp_path, capsys):
        text = MINIMAL.replace("u0 = zero()", "u0 = sine(k=31, amplitude=1.0)")
        text = text.replace("[simulation]\nT = 0.5",
                            "[simulation]\nT = 300.0\ndt = 0.5\nenforce_cfl = false")
        text = text.replace("[domain]\nd = 1\ns = 1.0\n"
                            "omega_extent = 6.283185307179586\nn = 64",
                            "[domain]\nd = 1\ns = 1.0\n"
                            "omega_extent = 6.283185307179586\nn = 64\n"
                            "pad_factor = 1.0\nboundary = periodic")
        cfg = self.write(tmp_path, text)
        assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical blow-up: blow-up at step 128 (t = 64)\n"

    def test_certify_potential(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "[family]\nkind = linear_taper()\n"
                                   "[experiment]\neps_list = 0.4, 0.2\n")
        rc = main(["certify-potential", cfg, "--out", str(tmp_path / "cert")])
        assert rc == 0
        assert (tmp_path / "cert" / "certification.csv").exists()

    def test_certify_potential_has_fixed_output(self, tmp_path, capsys):
        """stdout and certification.csv of the exact taper family; a change
        that alters a byte of either breaks it. A mollified family is not
        pinned: its kernel values follow numpy's SIMD dispatch of np.exp."""
        cfg = self.write(tmp_path, "[family]\nkind = linear_taper()\n\n"
                                   "[experiment]\neps_list = 0.4, 0.2, 0.1\n\n"
                                   "[run]\nseed = 3\n")
        assert main(["certify-potential", cfg, "--out", str(tmp_path / "cert")]) == 0
        assert capsys.readouterr().out == """\
family linear_taper [pointwise-offcritical]: PASS
  PASS nonnegative(eps=0.4): measured 0 >= 0
  PASS uniform_bound(eps=0.4): measured 1.6000000000000001 <= 1.6000000000000001
  PASS nonnegative(eps=0.2): measured 0 >= 0
  PASS uniform_bound(eps=0.2): measured 1.8 <= 1.8
  PASS nonnegative(eps=0.1): measured 0 >= 0
  PASS uniform_bound(eps=0.1): measured 1.8999999999999999 <= 1.8999999999999999
  PASS monotone_value_gap(0.4->0.2): measured 0.099999999999999978 <= 0.21999999999999997
  PASS monotone_value_gap(0.2->0.1): measured 0.050000000000000044 <= 0.10999999999999999
  PASS monotone_grad_gap(0.4->0.2): measured 0.19999999999999996 <= 0.43999999999999995
  PASS monotone_grad_gap(0.2->0.1): measured 0.10000000000000009 <= 0.21999999999999997
"""
        data = (tmp_path / "cert" / "certification.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == \
            "c2299b63009698e5226f46c1338d59ccb2bcc14923a82270b4307ba4e402fd0c"

    def test_sweep_runs_cartesian_grid(self, tmp_path):
        text = MINIMAL + "\n[sweep]\nsimulation.T = 0.25, 0.5\n"
        cfg = self.write(tmp_path, text)
        rc = main(["sweep", cfg, "--out", str(tmp_path / "sw")])
        assert rc == 0
        assert (tmp_path / "sw" / "run-000" / "config.ini").exists()
        assert (tmp_path / "sw" / "run-001" / "trajectory.csv").exists()

    def test_out_env_override(self, tmp_path, monkeypatch):
        cfg = self.write(tmp_path, MINIMAL)
        monkeypatch.setenv("ADWAVE_OUT", str(tmp_path / "env_out"))
        assert main(["simulate", cfg]) == 0
        assert (tmp_path / "env_out" / "energy.csv").exists()

    def test_flat_state_config_simulates_unchanged(self, tmp_path):
        # the zero-slope setup with a tapered potential and flat data: the
        # trajectory must sit at the constant 1 + eps for the whole run
        text = """\
[domain]
d = 1
s = 1.0
omega_extent = 1.0
n = 64
pad_factor = 1.0
boundary = neumann-1d

[potential]
kind = linear_taper(eps=0.1)

[data]
u0 = constant(value=1.1)
v0 = zero()

[simulation]
T = 1.0
record_every = 25
"""
        cfg = self.write(tmp_path, text)
        spec = parse_config(text)
        assert format_runspec(parse_config(format_runspec(spec))) == \
            format_runspec(spec)
        rc = main(["simulate", cfg, "--out", str(tmp_path / "flat")])
        assert rc == 0
        rows = (tmp_path / "flat" / "trajectory.csv").read_text().splitlines()[1:]
        values = {float(r.split(",")[-1]) for r in rows}
        assert values == {1.1}


class TestExperimentRegistry:
    def test_all_names_runnable_cheaply(self):
        assert set(EXPERIMENTS) == {"energy-inequality", "epsilon-convergence",
                                    "limit-obstruction", "small-data",
                                    "dispersion"}


def _run(tmp_path, capsys, text, command="simulate"):
    """Exit code and captured output of ``adwave command`` on config ``text``."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    rc = main([command, str(cfg), "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr()


def _assert_one_error_at(err, line):
    """``err`` is one ``config error:`` line with one prefix, ``line N:``."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert err.startswith(f"config error: line {line}: "), err
    assert len(re.findall(r"line \d+:", err)) == 1, err


class TestBadDescriptors:
    # MINIMAL: kind on line 8, u0 on 11, v0 on 12, T on 15
    @pytest.mark.parametrize("old, new, line, what", [
        ("clipped_quadratic(u_star=1.0)", "clipped_quadratic(ustar=0.5)", 8,
         "clipped_quadratic takes no argument 'ustar'; it takes u_star"),
        ("u0 = zero()", "u0 = bump(amplitud=0.9)", 11,
         "bump takes no argument 'amplitud'; it takes amplitude, width_frac"),
        ("clipped_quadratic(u_star=1.0)", "mollified(base=1.0, eps=0.1)", 8,
         "base must be a potential kind(...), got 1.0"),
        ("clipped_quadratic(u_star=1.0)\n\n[data]\nu0 = zero()",
         "ball(m=2)\n\n[data]\nu0 = bump()", 11,
         "invalid data bump(): data kind 'bump' is scalar-only"),
        ("clipped_quadratic(u_star=1.0)", "mollified(base=ball(m=1.5), eps=0.1)", 8,
         "invalid potential ball(m=1.5): m must be a whole number, got 1.5"),
        ("clipped_quadratic(u_star=1.0)", "ball(m=1, m=1)", 8,
         "descriptor argument 'm' given twice"),
        ("clipped_quadratic(u_star=1.0)", "clipped_quadratic(u_star=1e200)", 8,
         "invalid potential clipped_quadratic(u_star=1e+200): u_star must be positive "
         "with a finite square, got 1e+200\n"),
        ("clipped_quadratic(u_star=1.0)", "mollified(eps=1e-9)", 8,
         "invalid potential mollified(eps=1e-09): mollification radius 1e-09 needs "
         "64000000133 lattice points at 32 points per radius; the 60000-point lattice cap "
         "would give only 0.0 points per radius\n"),
    ], ids=["misspelt-potential-argument", "misspelt-data-argument", "numeric-base",
            "vector-bump", "nested-fractional-m", "repeated-argument", "u_star-squared-overflows",
            "mollified-eps-under-the-lattice-cap"])
    def test_exit_2_with_one_prefix(self, tmp_path, capsys, old, new, line, what):
        rc, (_, err) = _run(tmp_path, capsys, MINIMAL.replace(old, new))
        assert rc == 2
        _assert_one_error_at(err, line)
        assert what in err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_constant_family_without_base_exits_2(self, tmp_path, capsys):
        rc, (_, err) = _run(tmp_path, capsys, "[family]\nkind = constant()\n",
                                  "certify-potential")
        assert rc == 2
        _assert_one_error_at(err, 2)
        assert "base must be a potential kind(...), got None" in err

    @pytest.mark.parametrize("old, new, line", [
        ("n = 64", "n = 64,", 5),
        ("u0 = zero()", "u0 = bump(amplitude=0.5,)", 11),
        ("T = 0.5", "T = 0.5\n\n[sweep]\nsimulation.T = 0.25, 0.5,", 18),
    ], ids=["float-list", "descriptor", "sweep"])
    def test_stray_comma_is_an_error_at_its_line(self, tmp_path, capsys, old, new, line):
        command = "sweep" if "[sweep]" in new else "simulate"
        rc, (_, err) = _run(tmp_path, capsys, MINIMAL.replace(old, new), command)
        assert rc == 2
        _assert_one_error_at(err, line)

    def test_swept_multi_argument_descriptor_runs_every_value(self, tmp_path, capsys):
        text = MINIMAL + ("\n[sweep]\npotential.kind = "
                          "mollified(eps=0.1, ratio=1.5), zero()\n")
        assert parse_config(text).get("sweep", "potential.kind") == [
            Descriptor("mollified", (("eps", 0.1), ("ratio", 1.5))), Descriptor("zero", ())]
        rc, (_, err) = _run(tmp_path, capsys, text, "sweep")
        assert rc == 0 and err == ""
        for i in range(2):
            assert (tmp_path / "out" / f"run-{i:03d}" / "trajectory.csv").exists()
        assert "mollified(eps=0.1, ratio=1.5)" in \
            (tmp_path / "out" / "run-000" / "config.ini").read_text()


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("old, new, line", [
        ("s = 1.0", "s = inf", 3),
        ("omega_extent = 6.283185307179586", "omega_extent = inf", 4),
        ("omega_extent = 6.283185307179586", "omega_extent = nan", 4),
        ("n = 64", "n = 64\npad_factor = inf", 6),
        ("u_star=1.0", "u_star=nan", 8),
        ("u_star=1.0", "u_star=inf", 8),
        ("clipped_quadratic(u_star=1.0)", "mollified(eps=inf)", 8),
        ("T = 0.5", "T = nan", 15),
        ("T = 0.5", "T = inf", 15),
        ("T = 0.5", "T = 0.5\ncfl_safety = nan", 16),
        ("T = 0.5", "T = 0.5\ncfl_safety = 0", 16),
        ("u0 = zero()\nv0 = zero()", "u0 = bump()\nv0 = zero()\nu0_hs = nan", 13),
        ("u0 = zero()\nv0 = zero()", "u0 = bump()\nv0 = bump()\nv0_l2 = inf", 13),
    ], ids=["s-inf", "omega-inf", "omega-nan", "pad-inf", "u_star-nan", "u_star-inf",
            "eps-inf", "T-nan", "T-inf", "cfl-nan", "cfl-zero", "u0_hs-nan", "v0_l2-inf"])
    def test_exit_2_at_the_line_of_the_key(self, tmp_path, capsys, old, new, line):
        rc, (_, err) = _run(tmp_path, capsys, MINIMAL.replace(old, new))
        assert rc == 2
        _assert_one_error_at(err, line)
        assert not (tmp_path / "out" / "trajectory.csv").exists()


class TestExperimentConfig:
    @pytest.mark.parametrize("name, text, line", [
        ("limit-obstruction", "[experiment]\nT = inf\n", 2),
        ("energy-inequality", "[experiment]\nn = 16\neps = inf\n", 3),
        ("small-data", "[experiment]\neps1 = nan\n", 2),
        ("epsilon-convergence", "[experiment]\neps_list = 0.2, nan\n", 2),
    ], ids=["limit-obstruction-T-inf", "energy-inequality-eps-inf", "small-data-eps1-nan",
            "epsilon-convergence-eps_list-nan"])
    def test_non_finite_number_exits_2_at_its_line(self, tmp_path, capsys, name, text, line):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["experiment", name, str(cfg), "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        _assert_one_error_at(err, line)
        assert "must be finite" in err and out == ""
        assert not (tmp_path / "out").exists()

    def test_non_finite_swept_number_exits_2_at_its_sweep_line_before_any_run(
            self, tmp_path, capsys):
        rc, (_, err) = _run(tmp_path, capsys, "[experiment]\nname = small-data\n\n"
                            "[sweep]\nexperiment.eps1 = 0.05, nan\n", "sweep")
        assert rc == 2
        _assert_one_error_at(err, 5)
        assert not list((tmp_path / "out").glob("run-*"))

    def test_a_small_data_cap_that_overflows_fails_the_regime_check(self, tmp_path, capsys):
        rc, (out, _) = _run_command(tmp_path, capsys, "experiment small-data",
                                    "[experiment]\neps1 = 1e300\n")
        assert rc == 1
        assert "  FAIL small_data_regime: measured inf < 1 " in out

    def test_family_an_experiment_does_not_read_exits_2_at_its_kind_line(
            self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[experiment]\nn = 16\n\n[family]\nkind = wishful()\n")
        assert main(["experiment", "dispersion", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        _assert_one_error_at(err, 5)
        assert "experiment 'dispersion' does not read [family]" in err
        assert not (tmp_path / "out" / "report.json").exists()


_TAPER = "[family]\nkind = linear_taper()\n\n"


def _run_command(tmp_path, capsys, command, text):
    """Exit code and captured output of ``adwave *command cfg``."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    rc = main([*command.split(), str(cfg), "--out", str(tmp_path / "out")])
    return rc, capsys.readouterr()


class TestWhatEachCommandReads:
    @pytest.mark.parametrize("command, text, line, what", [
        ("simulate", MINIMAL + "\n[family]\nkind = wishful()\n\n"
         "[experiment]\nname = bogus\nT = inf\n", 18, "simulate does not read [family]"),
        ("simulate", MINIMAL + "\n[sweep]\nsimulation.T = 0.25, 0.5\n", 18,
         "simulate does not read [sweep]"),
        ("experiment dispersion", "[domain]\nd = 1\n\n[sweep]\nexperiment.n = 16, 32\n", 2,
         "experiment 'dispersion' does not read [domain]"),
        ("certify-potential", _TAPER + "[domain]\nd = 1\n", 5,
         "certify-potential does not read [domain]"),
        ("certify-potential", _TAPER + "[experiment]\nT = 3\n", 5,
         "certify-potential does not read [experiment] key 'T'; it reads eps_list"),
        ("certify-potential", _TAPER + "[experiment]\neps_list = 0.2, nan\n", 5,
         "invalid [experiment]: eps_list must be finite, got nan"),
        ("simulate", MINIMAL + "\n[run]\nseed = 3\n", 18,
         "simulate does not read [run] key 'seed'; it reads out"),
        ("experiment dispersion", "[experiment]\nn = 16\n\n[run]\nseed = -1\n", 5,
         "experiment 'dispersion' does not read [run] key 'seed'; it reads out"),
        ("sweep", "[experiment]\nname = dispersion\n\n[run]\nout = x\nseed = 0\n\n"
         "[sweep]\nexperiment.n = 16, 32\n", 6,
         "experiment 'dispersion' does not read [run] key 'seed'; it reads out"),
        ("sweep", MINIMAL + "\n[sweep]\nrun.seed = 1, 2\n", 18,
         "simulate does not read [run] key 'seed'; it reads out"),
        # an error about a whole section names the line of its header
        ("simulate", MINIMAL + "\n[family]\n", 17, "simulate does not read [family]"),
        ("experiment dispersion", "[experiment]\nn = 16\n\n[domain]\n", 4,
         "experiment 'dispersion' does not read [domain]"),
        ("simulate", MINIMAL.replace("s = 1.0\n", ""), 1,
         "[domain] section with keys d and s is required"),
        ("simulate", MINIMAL.replace("kind = clipped_quadratic(u_star=1.0)\n", ""), 7,
         "[potential] kind is required"),
        ("certify-potential", "[experiment]\neps_list = 0.2, 0.1\n\n[family]\n", 4,
         "[family] kind is required"),
        ("sweep", MINIMAL + "\n[sweep]\n", 17, "sweep requires a [sweep] section"),
    ], ids=["simulate-family-experiment", "simulate-sweep", "dispersion-domain-sweep",
            "certify-domain", "certify-experiment-T", "certify-eps_list-nan",
            "simulate-seed", "dispersion-seed", "sweep-dispersion-seed", "swept-seed",
            "simulate-empty-family", "dispersion-defaulted-domain", "domain-without-s",
            "potential-without-kind", "family-without-kind", "empty-sweep"])
    def test_an_unread_section_or_key_exits_2_at_its_first_key(self, tmp_path, capsys,
                                                              command, text, line, what):
        rc, (out, err) = _run_command(tmp_path, capsys, command, text)
        assert rc == 2 and out == ""
        _assert_one_error_at(err, line)
        assert what in err
        assert not (tmp_path / "out").exists()

    def test_an_experiment_name_other_than_the_commands_exits_2_at_its_line(
            self, tmp_path, capsys):
        rc, (out, err) = _run_command(tmp_path, capsys, "experiment dispersion",
                                      "[experiment]\nn = 16\nname = small-data\n")
        assert rc == 2 and out == ""
        _assert_one_error_at(err, 3)
        assert "name = small-data disagrees with the experiment 'dispersion'" in err
        assert not (tmp_path / "out").exists()

    def test_every_key_the_table_names_is_a_key_its_command_reads(self):
        """Every command has a row, and a renamed config key cannot leave a
        row, or a library field's carrier, naming a key nobody reads."""
        assert set(cli._READS) == {"simulate", "certify-potential", *EXPERIMENTS}
        read = set()
        for command, reads in cli._READS.items():
            for section, keys in reads.items():
                assert set(keys or ()) <= set(cli._SCHEMA[section]), (command, section)
                read |= {(section, key) for key in keys or cli._SCHEMA[section]}
        for field, keys in cli._PASSED_AS.items():
            for key in keys:
                assert any((section, key) in read for section in cli._SCHEMA), (field, key)

    @pytest.mark.parametrize("command, text, line, what", [
        ("experiment energy-inequality", "[experiment]\nn = 16\neps = -1\n", 3,
         "eps must be positive and finite"),
        ("experiment limit-obstruction", "[experiment]\nT = -1\n", 2,
         "final time T must be positive and finite"),
        ("experiment dispersion", "[experiment]\nn = 1\n", 2,
         "grid sizes must be positive even integers"),
        ("certify-potential", _TAPER + "[experiment]\neps_list = 0.1, 0.2\n", 5,
         "eps_list must be strictly decreasing"),
        ("experiment small-data", "[experiment]\nfamily_eps = -1\n", 2,
         "eps must be positive and finite"),
        ("experiment epsilon-convergence", "[experiment]\nT = 1\neps_list = 0.2, -0.1\n", 3,
         "eps must be positive and finite"),
        ("certify-potential", _TAPER + "[experiment]\neps_list = 3, 0.1\n", 5,
         "taper width must lie in (0, 2), got 3.0"),
        ("experiment energy-inequality", "[experiment]\nn = 16\nextent = -1\n", 3,
         "omega_extent must be positive and finite on every axis"),
        ("experiment epsilon-convergence", "[experiment]\nT = 1\nextent = 0\n", 3,
         "omega_extent must be positive and finite on every axis"),
        ("experiment limit-obstruction", "[experiment]\nL = -1\n", 2,
         "omega_extent must be positive and finite on every axis"),
        ("experiment dispersion", "[experiment]\nn = 8\n", 2,
         "n = 8 resolves the modes 1 <= k < n/2 only, got k = 4"),
        ("experiment small-data", "[experiment]\neps2 = -0.5\n", 2,
         "eps2 must be non-negative and finite, got -0.5"),
        ("experiment small-data", "[experiment]\nT = 0.5\neps1 = -0.05\n", 3,
         "eps1 must be non-negative and finite, got -0.05"),
        ("experiment energy-inequality", "[experiment]\nn = 16\neps = 1e-9\n", 3,
         "mollification radius 1e-09 needs"),
        ("experiment epsilon-convergence", "[experiment]\neps_list = 0.2, 1e-9\n", 2,
         "mollification radius 2e-09 needs"),
        ("experiment small-data", "[experiment]\nfamily_eps = 1e-9\n", 2,
         "mollification radius 1e-09 needs"),
        ("certify-potential", "[family]\nkind = mollified()\n\n[experiment]\n"
         "eps_list = 0.4, 1e-9\n", 5, "mollification radius 1e-09 needs"),
        ("experiment small-data", "[family]\nkind = mollified(base=ball(m=2))\n", 2,
         "small-data experiment builds scalar initial data; use a family over scalar states"),
        ("experiment epsilon-convergence", "[family]\nkind = mollified(base=ball(m=2))\n",
         2, "epsilon-convergence experiment builds scalar initial data; use a family over "
         "scalar states"),
        ("experiment limit-obstruction", "[experiment]\nn = 16\neps_list = 0.4, 1e-300\n",
         3, "T / dt = 7.85674e+150 steps; plans of 500,000,000 steps or more are refused "
         "(the auto step follows the gradient Lipschitz constant 2e+300 of "
         "linear_taper(eps=1e-300))"),
        ("experiment dispersion", "[experiment]\nn = 1e300\n", 2,
         "one real field on the 1e+300 grid needs more than the"),
    ], ids=["energy-inequality-eps", "limit-obstruction-T", "dispersion-n",
            "certify-eps_list-increasing", "small-data-family_eps",
            "epsilon-convergence-eps_list", "certify-eps_list-member",
            "energy-inequality-extent", "epsilon-convergence-extent", "limit-obstruction-L",
            "dispersion-nyquist-mode", "small-data-eps2", "small-data-eps1",
            "energy-inequality-eps-under-the-lattice-cap",
            "epsilon-convergence-eps_list-under-the-lattice-cap",
            "small-data-family_eps-under-the-lattice-cap",
            "certify-eps_list-under-the-lattice-cap", "small-data-vector-family",
            "epsilon-convergence-vector-family", "limit-obstruction-stiff-taper",
            "dispersion-n-beyond-memory"])
    @pytest.mark.parametrize("out_from", ["flag", "env", "config"])
    def test_a_library_range_error_names_the_line_of_its_key(
            self, tmp_path, capsys, monkeypatch, out_from, command, text, line, what):
        """The error names its key's line, and the output directory is not
        made, whether ``--out``, ``ADWAVE_OUT`` or [run] ``out`` names it."""
        monkeypatch.delenv("ADWAVE_OUT", raising=False)
        cfg = tmp_path / "cfg.ini"
        argv = [*command.split(), str(cfg)]
        if out_from == "flag":
            argv += ["--out", str(tmp_path / "out")]
        elif out_from == "env":
            monkeypatch.setenv("ADWAVE_OUT", str(tmp_path / "out"))
        else:
            text += f"\n[run]\nout = {tmp_path / 'out'}\n"
        cfg.write_text(text)
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        _assert_one_error_at(err, line)
        assert f"invalid [experiment]: {what}" in err
        assert not (tmp_path / "out").exists()


def test_sweep_builds_every_sub_run_before_any_run(tmp_path, capsys):
    """A bad swept potential is found before run-000 is simulated or any
    run-NNN directory is made."""
    rc, (out, err) = _run(tmp_path, capsys,
                          MINIMAL + "\n[sweep]\npotential.kind = zero(), bogus()\n", "sweep")
    assert rc == 2 and out == ""
    _assert_one_error_at(err, 18)
    assert "unknown potential kind 'bogus'" in err
    assert not list((tmp_path / "out").glob("run-*"))


def test_an_experiment_sweep_computes_every_sub_run_before_it_writes(tmp_path, capsys):
    """run-000 computes and passes, run-001's eps is out of range: the error
    names the sweep line and no directory is made."""
    rc, (out, err) = _run(tmp_path, capsys, "[experiment]\nname = energy-inequality\n"
                          "T = 0.5\n\n[sweep]\nexperiment.eps = 0.1, -1\n", "sweep")
    assert rc == 2 and out == ""
    _assert_one_error_at(err, 6)
    assert "invalid [experiment]: eps must be positive and finite" in err
    assert not (tmp_path / "out").exists()


def test_a_sweep_whose_run_directory_is_a_file_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "run-001").write_text("")
    rc, (out, err) = _run(tmp_path, capsys, "[experiment]\nname = dispersion\n\n"
                          "[sweep]\nexperiment.n = 16, 32\n", "sweep")
    run_dir = str(tmp_path / "out" / "run-001")
    assert rc == 2 and out == ""
    assert err == f"config error: cannot create output directory {run_dir!r}: File exists\n"
    assert (tmp_path / "out" / "run-001").read_text() == ""
    assert not (tmp_path / "out" / "run-000" / "config.ini").exists()


def test_sweep_prints_sub_run_lines_in_run_order(tmp_path, capsys):
    """Every sub-run's lines, in run order, and then one PASS or FAIL line
    per sub-run."""
    rc, (out, err) = _run(tmp_path, capsys,
                          MINIMAL + "\n[sweep]\nsimulation.T = 0.25, 0.5\n", "sweep")
    assert rc == 0 and err == ""
    runs = [tmp_path / "out" / f"run-{i:03d}" for i in range(2)]
    assert out.splitlines() == [
        "simulated 2 snapshots to t = 0.25",
        f"wrote {runs[0] / 'trajectory.csv'}", f"wrote {runs[0] / 'energy.csv'}",
        "simulated 2 snapshots to t = 0.5",
        f"wrote {runs[1] / 'trajectory.csv'}", f"wrote {runs[1] / 'energy.csv'}",
        "run-000: PASS", "run-001: PASS"]


def test_a_blow_up_stops_a_sweep_before_the_next_sub_run(tmp_path, capsys):
    """run-000 blows up at step 128, run-001 is stable but never starts:
    only run-000's config.ini is written, and the exit is 3 with run-000's
    error."""
    text = (MINIMAL.replace("n = 64", "n = 64\npad_factor = 1.0\nboundary = periodic")
            .replace("u0 = zero()", "u0 = sine(k=31, amplitude=1.0)")
            .replace("T = 0.5", "T = 80.0\nenforce_cfl = false")
            + "\n[sweep]\nsimulation.dt = 0.5, 0.05\n")
    rc, (out, err) = _run(tmp_path, capsys, text, "sweep")
    assert rc == 3 and out == ""
    assert err == "numerical blow-up: blow-up at step 128 (t = 64)\n"
    written = sorted(str(p.relative_to(tmp_path / "out"))
                     for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert written == ["run-000/config.ini"]


def test_a_sweep_runs_its_sub_runs_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    """A sweep starts no thread and ignores ADWAVE_WORKERS, even one that
    is no whole number: it writes the same files and prints the same lines
    as a sweep run without it."""
    def no_thread(thread):
        raise AssertionError(f"started thread {thread.name}")

    monkeypatch.delenv("ADWAVE_WORKERS", raising=False)
    text = MINIMAL + "\n[sweep]\nsimulation.T = 0.25, 0.5\n"
    runs = {}
    for name in ("unset", "set"):
        if name == "set":
            monkeypatch.setenv("ADWAVE_WORKERS", "abc")
            monkeypatch.setattr(threading.Thread, "start", no_thread)
        (tmp_path / name).mkdir()
        rc, (out, err) = _run(tmp_path / name, capsys, text, "sweep")
        assert rc == 0 and err == ""
        root = tmp_path / name / "out"
        runs[name] = (out.replace(str(root), "OUT"),
                      {str(p.relative_to(root)): p.read_bytes()
                       for p in sorted(root.rglob("*")) if p.is_file()})
    assert len(runs["set"][1]) == 6 and runs["set"] == runs["unset"]


@pytest.mark.parametrize("command, text, line, what", [
    ("experiment dispersion", "[experiment]\nn = 8\n", 2, "n = 8 resolves the modes"),
    ("certify-potential", "[family]\nkind = wishful()\n", 2, "unknown family kind"),
    ("sweep", "[experiment]\nname = dispersion\n\n[sweep]\nexperiment.n = 16, 8\n", 5,
     "n = 8 resolves the modes"),
], ids=["experiment", "certify-potential", "sweep"])
def test_a_refused_config_leaves_no_output_directory(tmp_path, capsys, command, text,
                                                     line, what):
    rc, (out, err) = _run_command(tmp_path, capsys, command, text)
    assert rc == 2 and out == ""
    _assert_one_error_at(err, line)
    assert what in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.ini"]


class TestRunSection:
    def test_an_empty_out_exits_2_at_its_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ADWAVE_OUT", raising=False)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL + "\n[run]\nout =\n")
        assert main(["simulate", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        _assert_one_error_at(err, 18)
        assert "cannot create output directory ''" in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.ini"]

    def test_an_out_naming_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(MINIMAL)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "taken")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: cannot create output directory "
                       f"{str(tmp_path / 'taken')!r}: File exists\n")
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_an_out_naming_a_file_exits_2_at_its_line_before_anything_runs(
            self, tmp_path, capsys, monkeypatch, command):
        def no_run(config):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli.dyn, "simulate", no_run)
        monkeypatch.delenv("ADWAVE_OUT", raising=False)
        (tmp_path / "taken").write_text("")
        text = MINIMAL + f"\n[run]\nout = {tmp_path / 'taken'}\n"
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text + ("\n[sweep]\nsimulation.T = 0.25, 0.5\n" if command == "sweep"
                               else ""))
        assert main([command, str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        _assert_one_error_at(err, 18)
        assert err.endswith(f"cannot create output directory "
                            f"{str(tmp_path / 'taken')!r}: File exists\n")
        assert (tmp_path / "taken").read_text() == ""

    def test_a_sweep_sub_runs_config_runs_again(self, tmp_path, capsys):
        """A [run] section fills in no seed, so the config.ini of a sweep
        sub-run, which lists [run] out, is one its command reads."""
        rc, _ = _run(tmp_path, capsys, MINIMAL + "\n[run]\nout = x\n\n"
                     "[sweep]\nsimulation.T = 0.25, 0.5\n", "sweep")
        assert rc == 0
        config = tmp_path / "out" / "run-001" / "config.ini"
        assert config.read_text().endswith("[run]\nout = x\n")
        assert main(["simulate", str(config), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "trajectory.csv").read_bytes() == \
            (tmp_path / "out" / "run-001" / "trajectory.csv").read_bytes()

    def test_a_negative_seed_exits_2_at_its_line(self, tmp_path, capsys):
        rc, (out, err) = _run(tmp_path, capsys,
                              "[family]\nkind = linear_taper()\n\n[run]\nseed = -1\n",
                              "certify-potential")
        assert rc == 2 and out == ""
        _assert_one_error_at(err, 5)
        assert "invalid [run]: seed must be a non-negative integer, got -1" in err
        assert not (tmp_path / "out" / "certification.csv").exists()


@pytest.mark.parametrize("data, line", [
    ("u0 = constant()\nv0 = zero()\nu0_hs = 0.1", 11),
    ("v0 = zero()\nu0_hs = 0.1", 12),
], ids=["zero-field-line", "defaulted-field"])
def test_scaling_a_zero_field_names_the_field_or_else_the_norm(tmp_path, capsys, data, line):
    """A zero u0 cannot reach u0_hs: the error names u0's line, or u0_hs's
    when u0 takes its default."""
    rc, (_, err) = _run(tmp_path, capsys, MINIMAL.replace("u0 = zero()\nv0 = zero()", data))
    assert rc == 2
    _assert_one_error_at(err, line)
    assert "u0_hs: cannot scale a zero field to a positive norm" in err
