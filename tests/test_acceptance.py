"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the PASS lines
with their measured values and runtimes.
"""
import math
import time

import numpy as np
import pytest

from adwave.dynamics import (
    SimConfig,
    bump_field,
    simulate,
    stability_limit,
    zero_field,
)
from adwave.experiments import (
    fitted_dt,
    run_dispersion_check,
    run_energy_inequality,
    run_epsilon_convergence,
    run_limit_obstruction,
    run_small_data,
)
from adwave.potentials import (
    certify_family,
    clipped_quadratic,
    linear_taper_family,
    mollified_family,
)
from adwave.spectral import (
    PERIODIC,
    Domain,
    apply_fractional_laplacian,
    build_operator,
    embedding_constant,
)
from adwave.cli import main as cli_main

from oracles import dense_operator_1d, verify_embedding


def report(number: int, detail: str, elapsed: float, limit: float):
    print(f"ACCEPTANCE {number}: PASS ({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_operator_matches_dense_oracle():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(0)
    for n in (16, 32):
        for s in (0.5, 0.75, 1.0, 1.5):
            dom = Domain(d=1, s=s, omega_extent=2 * np.pi, n=n, pad_factor=1.0,
                         boundary_mode=PERIODIC)
            op = build_operator(dom)
            dense = dense_operator_1d(n, op.symbol)
            ours = np.column_stack([
                apply_fractional_laplacian(op, np.eye(n)[:, j]) for j in range(n)])
            rel = np.linalg.norm(ours - dense) / np.linalg.norm(dense)
            worst = max(worst, rel)
            f = rng.standard_normal(n)
            vec_rel = np.max(np.abs(ours @ f - dense @ f)) / np.max(np.abs(dense @ f))
            worst = max(worst, vec_rel)
    assert worst <= 1e-11
    report(1, f"worst relative error {worst:.2e} <= 1e-11",
           time.perf_counter() - start, 1.0)


def test_criterion_2_dispersion():
    start = time.perf_counter()
    rep = run_dispersion_check(cases=((1, 1.0), (4, 0.5), (2, 2.0)))
    assert rep.passed, rep.first_failure
    detail = ", ".join(
        f"(k={int(k)},s={s:g}): w={w:.6f}"
        for k, s, w in zip(rep.series["k"], rep.series["s"],
                           rep.series["omega_fitted"]))
    report(2, detail, time.perf_counter() - start, 10.0)


def test_criterion_3_embedding_constant_and_inequality():
    start = time.perf_counter()
    c11 = embedding_constant(1, 1.0)
    c12 = embedding_constant(1, 2.0)
    assert abs(c11 - 2.0 / math.sqrt(2.0 * math.pi)) <= 1e-6
    assert abs(c12 - 1.0 / math.sqrt(2.0)) <= 1e-6
    dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=64, pad_factor=1.0,
                 boundary_mode=PERIODIC)
    check = verify_embedding(build_operator(dom), trials=1000, seed=2024)
    assert check.passed and check.worst_ratio <= 1.0
    report(3, f"C(1,1)={c11:.6f}, C(1,2)={c12:.6f}, "
              f"worst ratio {check.worst_ratio:.4f} over {check.trials} trials",
           time.perf_counter() - start, 5.0)


def test_criterion_4_energy_inequality_with_refinement():
    start = time.perf_counter()
    family = mollified_family(clipped_quadratic(1.0))
    potential = family.make(0.1)
    dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=64, pad_factor=2.0)
    T = 5.0
    dt = fitted_dt(T, 0.9 * stability_limit(build_operator(dom), potential))
    config = SimConfig(domain=dom, potential=potential, T=T, dt=dt,
                       u0=bump_field(dom, amplitude=0.5),
                       v0=zero_field(dom), record_every=2)
    rep = run_energy_inequality(config, dt_refinements=(1, 2, 4))
    assert rep.passed, rep.first_failure
    drifts = rep.series["drift"]
    ratios = [drifts[i] / drifts[i + 1] for i in range(2)]
    assert all(2.2 <= r <= 7.2 for r in ratios)
    report(4, f"drifts {drifts[0]:.2e} -> {drifts[1]:.2e} -> {drifts[2]:.2e}, "
              f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (~4x per halving)",
           time.perf_counter() - start, 30.0)


def test_criterion_5_flat_state_limit_obstruction():
    start = time.perf_counter()
    T, L = 10.0, 1.0
    rep = run_limit_obstruction(eps_list=(0.4, 0.2, 0.1), T=T, L=L, n=64)
    assert rep.passed, rep.first_failure
    flat_dev = max(rep.series["max_dev_from_flat"])
    eps_res = max(abs(r) for r in rep.series["residual_eps"])
    limit_res = rep.series["limit_residual"][0]
    assert flat_dev <= 1e-10
    assert eps_res <= 1e-10
    assert abs(limit_res - 2.0 * T * L) <= 1e-6 * 2.0 * T * L
    report(5, f"flat dev {flat_dev:.1e}, member residuals {eps_res:.1e}, "
              f"limit residual {limit_res:.9f} = 2TL",
           time.perf_counter() - start, 20.0)


def test_criterion_6_small_data_confinement_chain():
    start = time.perf_counter()
    rep = run_small_data(eps1=0.05, eps2=0.0, T=1.0)
    assert rep.passed, rep.first_failure
    by_name = {c.name: c for c in rep.checks}
    for name in ("initial_adhesive_bound", "energy_bound", "l2_apriori_bound",
                 "sup_embedding_bound", "confinement"):
        assert by_name[name].passed, name
    eta = rep.parameters["eta"]
    assert eta > 0
    report(6, f"max|u| = {by_name['confinement'].measured:.4f} < 1, "
              f"eta = {eta:.4f}, all five chain inequalities hold",
           time.perf_counter() - start, 20.0)


def test_criterion_7_family_certification():
    start = time.perf_counter()
    taper = certify_family(linear_taper_family(), [0.4, 0.2, 0.1], seed=7)
    assert taper.passed
    grad_gaps = taper.series["sup_grad_dist"]
    for eps, gap in zip(taper.series["eps"], grad_gaps):
        assert abs(gap - eps) <= 1e-12
    assert all(b < a for a, b in zip(grad_gaps, grad_gaps[1:]))
    moll = certify_family(mollified_family(clipped_quadratic(1.0)),
                          [0.2, 0.1, 0.05], seed=7)
    assert moll.passed
    value_gaps = moll.series["sup_W_dist"]
    assert all(b < a for a, b in zip(value_gaps, value_gaps[1:]))
    report(7, f"taper grad gaps {grad_gaps} equal eps to 1e-12; "
              f"mollified value gaps decrease {value_gaps[0]:.3f} -> "
              f"{value_gaps[-1]:.3f}",
           time.perf_counter() - start, 10.0)


def test_criterion_8_epsilon_convergence_proxy():
    start = time.perf_counter()
    family = mollified_family(clipped_quadratic(1.0), kernel_width_ratio=2.0)
    eps_list = [0.2, 0.1, 0.05, 0.025]
    dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=128, pad_factor=2.0)
    T = 5.0
    op = build_operator(dom)
    dt = fitted_dt(T, min(0.9 * stability_limit(op, family.make(e))
                          for e in eps_list))
    config = SimConfig(domain=dom, potential=family.make(eps_list[0]), T=T,
                       dt=dt, u0=bump_field(dom, amplitude=0.98),
                       v0=zero_field(dom), record_every=4)
    rep = run_epsilon_convergence(family, eps_list, config)
    assert rep.passed, rep.first_failure
    dists = rep.series["l2_cauchy_dist"][:-1]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    report(8, "cauchy distances " + " > ".join(f"{d:.4f}" for d in dists),
           time.perf_counter() - start, 60.0)


def test_criterion_9_determinism_and_masking(tmp_path):
    start = time.perf_counter()
    cfg_text = """\
[domain]
d = 1
s = 1.0
omega_extent = 6.283185307179586
n = 64

[potential]
kind = mollified(base=clipped_quadratic(u_star=1.0), ratio=1.0, eps=0.1)

[data]
u0 = bump(amplitude=0.5)
v0 = zero()

[simulation]
T = 2.0
record_every = 2
"""
    cfg = tmp_path / "run.ini"
    cfg.write_text(cfg_text)
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["simulate", str(cfg), "--out", str(tmp_path / "b")]) == 0
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("trajectory.csv", "energy.csv"))
    assert identical

    dom = Domain(d=1, s=1.0, omega_extent=2 * np.pi, n=64, pad_factor=2.0)
    W = mollified_family(clipped_quadratic(1.0)).make(0.1)
    config = SimConfig(domain=dom, potential=W, T=2.0, dt=0.05,
                       u0=bump_field(dom, 0.5), v0=zero_field(dom),
                       record_every=2)
    traj = simulate(config)
    outside = ~dom.interior_mask
    worst = max(float(np.max(np.abs(st.u[outside]))) for st in traj.states)
    worst_v = max(float(np.max(np.abs(st.v[outside]))) for st in traj.states)
    assert worst == 0.0 and worst_v == 0.0
    report(9, f"byte-identical CSVs, exterior values exactly 0.0 in all "
              f"{len(traj.states)} snapshots",
           time.perf_counter() - start, 60.0)
