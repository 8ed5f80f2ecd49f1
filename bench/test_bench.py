"""Tests of the benchmark itself: seeded inputs, span arithmetic, metric
names, and the correctness gate of every workload at the current commit."""
from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

AW = run.import_adwave(run.ROOT)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _span(sid, parent, start, end, name="x"):
    return [sid, parent, name, "", start, end, None]


class TestSeededInputs:
    @pytest.mark.parametrize("m", [1, 2])
    def test_same_seed_same_data_other_seed_other_data(self, m):
        dom = AW.spectral.Domain(d=2, s=1.0, omega_extent=6.0, n=32, pad_factor=2.0)
        a = workloads.seeded_data(AW.dynamics, dom, m, 7)
        b = workloads.seeded_data(AW.dynamics, dom, m, 7)
        c = workloads.seeded_data(AW.dynamics, dom, m, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        outside = ~dom.interior_mask
        assert np.all((a[outside] if m == 1 else a[outside, :]) == 0.0)

    def test_cli_config_and_experiment_order_follow_the_seed(self, tmp_path):
        one = workloads.make("cli-simulate", AW, 3, str(tmp_path / "a"))
        two = workloads.make("cli-simulate", AW, 3, str(tmp_path / "b"))
        other = workloads.make("cli-simulate", AW, 4, str(tmp_path / "c"))
        assert one.text == two.text != other.text
        order = workloads.make("experiments", AW, 5, str(tmp_path)).order
        assert order == workloads.make("experiments", AW, 5, str(tmp_path)).order
        assert sorted(order) == sorted(workloads.EXPERIMENT_NAMES)

    def test_every_seed_maps_to_a_stored_reference(self, tmp_path):
        far = workloads.make("cli-simulate", AW, 3 + 5 * reference.SEEDS, str(tmp_path / "a"))
        assert far.text == workloads.make("cli-simulate", AW, 3, str(tmp_path / "b")).text
        for name in workloads.FINGERPRINTED:
            for seed in (0, reference.SEEDS - 1, reference.SEEDS, 10 ** 6 + 7, -1):
                assert reference.expected(name, seed)["energy"]


class TestReference:
    @pytest.mark.parametrize("name", workloads.FINGERPRINTED)
    def test_workload_potential_matches_quadrature(self, name, tmp_path):
        config = workloads.make(name, AW, 0, str(tmp_path)).setup()
        assert reference.potential_mismatches(config.potential, workloads.EPS) == []

    def test_coarser_lattice_fails_the_quadrature_check(self):
        pot = AW.potentials
        member = pot.mollified_family(pot.clipped_quadratic(1.0)).make(workloads.EPS)
        coarse = pot.MollifiedProfile(pot.clipped_quadratic(1.0).profile, workloads.EPS,
                                      points_per_radius=16)
        bad = reference.potential_mismatches(
            dataclasses.replace(member, grad=coarse.grad), workloads.EPS)
        assert len(bad) == 1 and "grad off the quadrature" in bad[0]


class TestSpans:
    def test_self_time_subtracts_the_union_of_children(self):
        recorded = [_span(0, -1, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
                    _span(2, 0, 2.0, 4.0), _span(3, 0, 6.0, 7.0),
                    _span(4, 1, 1.5, 2.5), _span(5, 0, 9.5, 12.0)]
        selfs = spans.self_times(recorded)
        # children of 0 cover [1, 4], [6, 7] and [9.5, 10] (clipped)
        assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
        assert selfs[1] == pytest.approx(2.0 - 1.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_under_follows_the_parent_chain(self):
        recorded = [_span(0, -1, 0, 9, "dynamics.simulate"),
                    _span(1, 0, 1, 4, "dynamics.step"),
                    _span(2, 1, 1, 2, "spectral.transform"),
                    _span(3, 2, 1, 1.5, "inner"),
                    _span(4, 0, 5, 6, "dynamics.energy")]
        assert spans.under(recorded, "dynamics.step") == {2, 3}

    def test_tracer_records_parents_and_restores_originals(self):
        mod = types.SimpleNamespace(outer=None, inner=lambda x: x + 1)
        mod.outer = lambda x: mod.inner(x) * 2
        originals = (mod.outer, mod.inner)
        tracer = spans.Tracer()
        undo = tracer.install([("outer", [(mod, "outer")], spans.plain),
                               ("inner", [(mod, "inner")], spans.plain),
                               ("gone", [(mod, "removed")], spans.plain)])
        assert mod.outer(1) == 4
        undo()
        assert (mod.outer, mod.inner) == originals
        assert [(s[spans.NAME], s[spans.PARENT]) for s in tracer.spans] == \
            [("outer", -1), ("inner", 0)]
        assert tracer.missing == {"gone"}

    def test_missing_function_gives_missing_metric_not_zero(self):
        outcome = harness.Outcome(missing={"dynamics.weak_residual"})
        outcome.untraced = [harness.Sample(wall=1.0, setup=0.1)]
        outcome.traced = [harness.Sample(wall=1.1, setup=0.1)]
        metrics, missing = harness.per_layer(outcome)
        assert "dynamics.weak_residual_s" in missing
        assert "dynamics.weak_residual_s" not in metrics
        assert metrics["trace.overhead_ratio"][0] == pytest.approx(1.1)


def test_timed_metrics_are_total_raw_time_over_total_kernel_time():
    # 1 s at full speed and 3 s at half speed: 4 s of work in 3 reference
    # seconds of kernel time, although the per-iteration values are 1 and 1.5
    samples = [harness.Sample(wall=1.0, setup=0.1, sim_time=0.5, steps=5, factor=1.0),
               harness.Sample(wall=3.0, setup=0.2, sim_time=1.5, steps=5, factor=0.5)]
    e2e = harness.end_to_end(harness.Outcome(untraced=samples))
    assert e2e["wall_s"][0] == pytest.approx(4.0 / 3.0)
    assert e2e["wall_s"][2] == [1.0, 1.5]
    assert e2e["ms_per_step"][0] == pytest.approx(1e3 * 0.4 / 3.0)
    assert e2e["setup_s"][0] == pytest.approx(0.1)


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer_names = [name for name, _ in harness.per_layer_spec()]
    e2e_names = list(harness.end_to_end(harness.Outcome(
        untraced=[harness.Sample(wall=1.0, setup=0.1, sim_time=0.5, steps=5, drift=1e-3)],
        peak_rss_mb=100.0)))
    for name in layer_names + e2e_names + list(workloads.NAMES):
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == e2e_names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_passes_its_gate(name, tmp_path):
    wl = workloads.make(name, AW, 0, str(tmp_path))
    want = reference.expected(name, 0) if name in workloads.FINGERPRINTED else None
    outcome = harness.run(wl, AW, seconds=0, trace=False, want=want)
    assert outcome.attempted >= 2 * wl.ops
    assert outcome.failed == 0, outcome.failures
    assert set(harness.end_to_end(outcome)) == {
        "wall_s", "setup_s", "ms_per_step", "peak_rss_mb", "energy_drift_rel"}


def test_traced_run_reports_every_layer_and_restores_adwave(tmp_path):
    step = AW.dynamics.step
    wl = workloads.make("cli-simulate", AW, 1, str(tmp_path))
    outcome = harness.run(wl, AW, seconds=0, trace=True,
                          want=reference.expected("cli-simulate", 1))
    metrics, missing = harness.per_layer(outcome)
    assert outcome.failed == 0, outcome.failures
    assert missing == []
    assert metrics["spectral.transform_calls_per_step"][0] == 2.0
    assert metrics["reporting.csv_rows"][0] == wl.expected_rows(wl.setup()) + 22
    assert AW.dynamics.step is step


def test_step_routed_around_a_wrapped_transform_reads_missing(tmp_path, monkeypatch):
    """A refactor that calls the transform through a name the tracer does
    not patch leaves ``spectral.apply_fractional_laplacian`` in place; the
    per-step metrics built on it must read missing, not 0."""
    alias = AW.spectral.apply_fractional_laplacian

    def force(op, potential, u):
        return -alias(op, u) - potential.grad(u)

    monkeypatch.setattr(AW.dynamics, "force", force)
    wl = workloads.FieldWorkload(AW, 0, str(tmp_path), d=2, n=32, m=1, T=0.5,
                                 record_every=1000)
    outcome = harness.run(wl, AW, seconds=0, trace=True)
    metrics, missing = harness.per_layer(outcome)
    assert outcome.failed == 0, outcome.failures
    assert sorted(missing) == ["dynamics.bytes_per_step_computed",
                               "dynamics.step_self_ms",
                               "spectral.fft_flops_per_step_computed",
                               "spectral.transform_calls_per_step"]
    assert metrics["potentials.grad_calls_per_step"][0] == 2.0
