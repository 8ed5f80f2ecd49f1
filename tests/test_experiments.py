import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest

from adwave import cli
from adwave import experiments as ex
from adwave.dynamics import SimConfig, bump_field, stability_limit, zero_field
from adwave.experiments import (
    fitted_dt,
    run_dispersion_check,
    run_energy_inequality,
    run_epsilon_convergence,
    run_limit_obstruction,
    run_small_data,
)
from adwave.potentials import (
    clipped_quadratic,
    constant_family,
    linear_taper_family,
    mollified_family,
    zero_potential,
)
from adwave.reporting import ExperimentReport
from adwave.spectral import Domain, build_operator


def energy_config(n=64, amplitude=0.5, T=5.0, potential=None):
    dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=n, pad_factor=2.0)
    W = potential or mollified_family(clipped_quadratic(1.0)).make(0.1)
    op = build_operator(dom)
    dt = fitted_dt(T, 0.9 * stability_limit(op, W))
    return dyn_config(dom, W, T, dt, amplitude)


def dyn_config(dom, W, T, dt, amplitude):
    return SimConfig(domain=dom, potential=W, T=T, dt=dt,
                     u0=bump_field(dom, amplitude), v0=zero_field(dom),
                     record_every=2)


class TestFittedDt:
    def test_integer_step_count(self):
        dt = fitted_dt(5.0, 0.123)
        n = 5.0 / dt
        assert abs(n - round(n)) < 1e-9
        assert dt <= 0.123

    def test_tight_fit_kept(self):
        assert fitted_dt(1.0, 0.25) == 0.25


class TestEnergyInequality:
    def test_report_structure_and_pass(self, tmp_path):
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        rep = ex.write(run_energy_inequality(energy_config(potential=W)), str(tmp_path))
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert any(n.startswith("energy_inequality") for n in names)
        assert any(n.startswith("drift_refinement") for n in names)
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "energy.csv").exists()
        assert (tmp_path / "energy.svg").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["passed"] is True

    def test_zero_data_trivially_passes(self):
        dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=32, pad_factor=2.0)
        W = mollified_family(clipped_quadratic(1.0)).make(0.2)
        cfg = SimConfig(domain=dom, potential=W, T=1.0, dt=0.05,
                        u0=zero_field(dom), v0=zero_field(dom))
        rep = run_energy_inequality(cfg, dt_refinements=(1, 2))
        for c in rep.checks:
            if c.name.startswith("energy_inequality"):
                assert c.passed

    def test_rejects_discontinuous_gradient(self):
        with pytest.raises(ValueError, match="continuous"):
            run_energy_inequality(energy_config(potential=clipped_quadratic(1.0)))


class TestEpsilonConvergence:
    def make_config(self, family, eps_list, n=64, T=2.0, amplitude=0.98):
        dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=n, pad_factor=2.0)
        members = [family.make(e) for e in eps_list]
        op = build_operator(dom)
        dt = fitted_dt(T, min(0.9 * stability_limit(op, m) for m in members))
        return SimConfig(domain=dom, potential=members[0], T=T, dt=dt,
                         u0=bump_field(dom, amplitude), v0=zero_field(dom),
                         record_every=4)

    def test_distances_decrease(self, tmp_path):
        family = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=2.0)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        cfg = self.make_config(family, eps_list)
        rep = ex.write(run_epsilon_convergence(family, eps_list, cfg), str(tmp_path))
        assert rep.passed
        dists = rep.series["l2_cauchy_dist"]
        assert all(b < a for a, b in zip(dists[:-2], dists[1:-1]))
        assert math.isnan(dists[-1])
        csv = (tmp_path / "epsilon_study.csv").read_text().splitlines()
        assert csv[0] == "eps,sup_W_dist,sup_grad_dist,l2_cauchy_dist"
        assert len(csv) == 1 + len(eps_list)

    def test_constant_family_distances_vanish(self):
        base = linear_taper_family().make(0.5)
        family = constant_family(base)
        eps_list = [0.2, 0.1, 0.05]
        cfg = self.make_config(family, eps_list, n=32, T=1.0, amplitude=0.5)
        rep = run_epsilon_convergence(family, eps_list, cfg)
        assert max(rep.series["l2_cauchy_dist"][:-1]) <= 1e-14

    def test_distance_table_stable_under_dt_refinement(self):
        family = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=2.0)
        eps_list = [0.2, 0.1]
        cfg = self.make_config(family, eps_list, n=64, T=2.0)
        d1 = run_epsilon_convergence(family, eps_list, cfg).series["l2_cauchy_dist"][0]
        cfg2 = self.make_config(family, eps_list, n=64, T=2.0)
        cfg2 = SimConfig(domain=cfg2.domain, potential=cfg2.potential, T=cfg2.T,
                         dt=cfg2.dt / 2, u0=cfg2.u0, v0=cfg2.v0,
                         record_every=cfg2.record_every * 2)
        d2 = run_epsilon_convergence(family, eps_list, cfg2).series["l2_cauchy_dist"][0]
        assert abs(d1 - d2) <= 1e-3


class TestLimitObstruction:
    def test_full_story(self, tmp_path):
        rep = ex.write(run_limit_obstruction(eps_list=(0.4, 0.2, 0.1), T=10.0, L=1.0,
                                             n=64), str(tmp_path))
        assert rep.passed
        limit_res = rep.series["limit_residual"][0]
        assert limit_res == pytest.approx(20.0, rel=1e-6)
        assert max(abs(r) for r in rep.series["residual_eps"]) <= 1e-10
        assert max(rep.series["max_dev_from_flat"]) <= 1e-10
        for eps, gap in zip(rep.series["eps"], rep.series["limit_gap"]):
            assert gap == pytest.approx(eps, abs=1e-10)
        assert (tmp_path / "limit_obstruction.csv").exists()
        assert (tmp_path / "limit_obstruction.svg").exists()

    def test_rescaled_geometry(self):
        rep = run_limit_obstruction(eps_list=(0.3,), T=4.0, L=2.5, n=32)
        assert rep.series["limit_residual"][0] == pytest.approx(2 * 4.0 * 2.5,
                                                                rel=1e-6)
        assert rep.passed

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            run_limit_obstruction(eps_list=(2.5,), T=1.0, n=32)


class TestSmallData:
    def test_chain_passes(self, tmp_path):
        rep = ex.write(run_small_data(), str(tmp_path))
        assert rep.passed
        order = [c.name for c in rep.checks]
        assert order == ["small_data_regime", "initial_adhesive_bound",
                         "energy_bound", "l2_apriori_bound",
                         "sup_embedding_bound", "confinement",
                         "smooth_region_agreement"]
        assert rep.parameters["eta"] > 0
        assert (tmp_path / "small_data.csv").exists()
        assert (tmp_path / "small_data.svg").exists()

    def test_zero_data(self):
        rep = run_small_data(eps1=0.0, eps2=0.0)
        assert rep.passed
        conf = {c.name: c for c in rep.checks}["confinement"]
        assert conf.measured <= 1e-18  # zero to rounding, eta = 1
        assert rep.parameters["eta"] == pytest.approx(1.0, abs=1e-15)

    def test_large_data_reports_regime_violation(self):
        rep = run_small_data(eps1=2.0)
        assert not rep.passed
        assert rep.first_failure == "small_data_regime"
        skipped = [c for c in rep.checks if c.passed is None]
        assert {c.name for c in skipped} >= {"confinement", "energy_bound"}

    def test_nonzero_velocity_data(self):
        rep = run_small_data(eps1=0.04, eps2=0.02)
        assert rep.passed


class TestDispersion:
    def test_default_cases(self, tmp_path):
        rep = ex.write(run_dispersion_check(), str(tmp_path))
        assert rep.passed
        fitted = rep.series["omega_fitted"]
        expected = rep.series["omega_expected"]
        assert expected == [1.0, 2.0, 4.0]
        for f, e in zip(fitted, expected):
            assert f == pytest.approx(e, rel=5e-3)
        assert (tmp_path / "dispersion.csv").exists()

    def test_classical_wave_case(self):
        rep = run_dispersion_check(cases=((1, 1.0),), n=16)
        assert rep.passed
        assert rep.series["omega_fitted"][0] == pytest.approx(1.0, rel=1e-3)


class TestReportMechanics:
    def test_first_failure_names_earliest_check(self):
        rep = run_small_data(eps1=2.0)
        assert rep.first_failure == "small_data_regime"

    def test_json_roundtrip(self, tmp_path):
        ex.write(run_dispersion_check(cases=((1, 1.0),), n=16), str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["name"] == "dispersion"
        assert isinstance(payload["checks"], list)
        assert payload["checks"][0]["name"].startswith("dispersion")

    def test_workers_give_same_result(self, monkeypatch):
        """``ADWAVE_WORKERS`` widens sweeps only: the experiments that run a
        parameter list run it in the calling thread, whatever its value."""
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        family = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=2.0)
        eps_list = [0.2, 0.1, 0.05]
        runs = [
            lambda: run_energy_inequality(energy_config(n=32, T=1.0, potential=W)),
            lambda: run_epsilon_convergence(family, eps_list, energy_config(
                n=32, T=1.0, potential=family.make(eps_list[-1]))),  # the stiffest
            lambda: run_limit_obstruction(eps_list=(0.4, 0.2), T=2.0, n=32),
            lambda: run_dispersion_check(cases=((1, 1.0), (2, 1.0)), n=16),
        ]
        serial = [json.dumps(run().to_dict()) for run in runs]

        def no_thread(thread):
            raise AssertionError(f"an experiment started thread {thread.name}")

        monkeypatch.setenv("ADWAVE_WORKERS", "3")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert [json.dumps(run().to_dict()) for run in runs] == serial


# SHA-256 of every file the five experiments write at their CLI defaults:
# the tables and plots recorded before the experiments declared their
# outputs, each report.json (artifact paths reduced to file names) before
# the experiments ran their parameter lists in one serial loop
OUTPUT_SHA256 = {
    "dispersion/dispersion.csv":
        "402ff4916cf4f3f9a8faf83924a707def506839a7944444bd932b16ac750c20e",
    "dispersion/report.json":
        "22debbf8310b9c6809e59f1280010cf9ea615c9e6cf71ec69e7a75149c0a326c",
    "energy-inequality/energy.csv":
        "a1a7ed57429eafd69a1811583de2457a5c7b09baea58479c5a35451d4c9b374f",
    "energy-inequality/energy.svg":
        "83c652d5b04bec8e746dd39fcec91e0594982c955d04e6170298eadc0e891090",
    "energy-inequality/report.json":
        "897740bffe470d175d69d1e579d437cb39413e92b04bb0477967af97ea1fad7e",
    "epsilon-convergence/epsilon_study.csv":
        "701fafd503082a63bbdf924b316a7eba744d826181c48844c4baa04f6c5cab65",
    "epsilon-convergence/epsilon_study.svg":
        "71ada8b6c6a604a327339c5983e54c51a42c97916e62bc82a79613150b38fb6f",
    "epsilon-convergence/report.json":
        "24ac7679fdec200cf2f9aadc667ba5a654fc8c6b075b8da6782538cd26088812",
    "limit-obstruction/limit_obstruction.csv":
        "5157f39909e5360257b79ba21e4ccf4f61b56af317a8ee33b253147b9b759881",
    "limit-obstruction/limit_obstruction.svg":
        "15b25b22267a339d80532b9116a0b1b893de5b7678a9d4f2d216fcc8f117258b",
    "limit-obstruction/report.json":
        "58b9e8048a55e6a5fdc0c7df45948bebcd6123bceaf5d5701b35bdbe8f4995be",
    "small-data/small_data.csv":
        "4c6dfbb371b00e20c222873545567c6ff6fcbaa9a98400636de88a19e85a0a69",
    "small-data/small_data.svg":
        "afa94dfffb0e04dd8636863d715360bde87c3da36ced0d4726ed2812d87cba5b",
    "small-data/report.json":
        "638de030b0a6467d20f36fa81b9a4a6d96589409d22d8b2812fcbacb488ec7eb",
}


class TestDeclaredOutputs:
    def test_cli_defaults_write_pinned_bytes(self, tmp_path):
        for name in cli.EXPERIMENTS:
            assert cli.main(["experiment", name, "--out", str(tmp_path / name)]) == 0
        written = {}
        for name in cli.EXPERIMENTS:
            # report.json lists its artifacts by path: keep their file names
            prefix = json.dumps(str(tmp_path / name) + os.sep)[1:-1].encode()
            for entry in sorted(os.listdir(tmp_path / name)):
                data = (tmp_path / name / entry).read_bytes().replace(prefix, b"")
                written[f"{name}/{entry}"] = hashlib.sha256(data).hexdigest()
        assert written == OUTPUT_SHA256

    def test_artifacts_list_tables_then_plots_then_report(self, tmp_path):
        rep = cli.EXPERIMENTS["energy-inequality"](cli.RunSpec(), str(tmp_path))
        assert [os.path.basename(a) for a in rep.artifacts] == [
            "energy.csv", "energy.svg", "report.json"]
        assert all(os.path.dirname(a) == str(tmp_path) for a in rep.artifacts)

    def test_no_files_without_out_dir(self, tmp_path, monkeypatch):
        """None of the five experiments writes a file: each returns its
        report, which declares its tables and plots for ``ex.write``."""
        def forbidden(*args, **kwargs):
            raise AssertionError("wrote a file without an output directory")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(ex, "write_csv", forbidden)
        monkeypatch.setattr(ex, "svg_line_plot", forbidden)
        monkeypatch.setattr(ExperimentReport, "write", forbidden)
        W = mollified_family(clipped_quadratic(1.0)).make(0.1)
        family = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=2.0)
        reports = [
            run_energy_inequality(energy_config(n=32, T=1.0, potential=W), (1, 2)),
            run_epsilon_convergence(family, [0.2, 0.1], energy_config(
                n=32, T=1.0, potential=family.make(0.1))),
            run_limit_obstruction(eps_list=(0.4,), T=1.0, n=32),
            run_small_data(domain=Domain(d=1, s=1.0, omega_extent=1.0, n=32), T=0.5),
            run_dispersion_check(cases=((1, 1.0),), n=16),
        ]
        assert {r.name for r in reports} == set(cli.EXPERIMENTS)
        for rep in reports:
            assert rep.passed and rep.artifacts == [], rep.name
            assert rep.tables, rep.name
        assert os.listdir(tmp_path) == []

    def test_registry_writes_through_module_attributes(self, tmp_path, monkeypatch):
        # the bench tracer wraps exactly these attributes, so every write
        # and every experiment run must go through them
        calls = {"write_csv": [], "svg_line_plot": [], "run_limit_obstruction": 0}
        write_csv, svg_line_plot = ex.write_csv, ex.svg_line_plot
        run_limit_obstruction = ex.run_limit_obstruction

        def counting_csv(path, *args, **kwargs):
            calls["write_csv"].append(os.path.relpath(path, tmp_path))
            return write_csv(path, *args, **kwargs)

        def counting_svg(path, *args, **kwargs):
            calls["svg_line_plot"].append(os.path.relpath(path, tmp_path))
            return svg_line_plot(path, *args, **kwargs)

        def counting_run(*args, **kwargs):
            calls["run_limit_obstruction"] += 1
            return run_limit_obstruction(*args, **kwargs)

        monkeypatch.setattr(ex, "write_csv", counting_csv)
        monkeypatch.setattr(ex, "svg_line_plot", counting_svg)
        monkeypatch.setattr(ex, "run_limit_obstruction", counting_run)
        for name, run in cli.EXPERIMENTS.items():
            assert run(cli.RunSpec(), str(tmp_path / name)).passed
        assert sorted(calls["write_csv"]) == sorted(
            k for k in OUTPUT_SHA256 if k.endswith(".csv"))
        assert sorted(calls["svg_line_plot"]) == sorted(
            k for k in OUTPUT_SHA256 if k.endswith(".svg"))
        assert calls["run_limit_obstruction"] == 1
