"""Scripted numerical experiments on the adhesive wave system.

Each experiment assembles simulations from the lower-level modules, measures
a chain of named inequalities or convergence proxies, and returns an
:class:`~adwave.reporting.ExperimentReport`. Each ends by declaring its CSV
tables and SVG plots, which :func:`_emit` writes, followed by
``report.json``, when an output directory is given.
Fan-out over independent parameter values (per eps, per s) uses a pool of
``ADWAVE_WORKERS`` threads (default 1, no pool); results are assembled in
parameter order, never completion order.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import dynamics as dyn
from . import potentials as pot
from . import spectral as sp
from .reporting import ExperimentReport, svg_line_plot, write_csv


def fitted_dt(T: float, dt_max: float) -> float:
    """Largest dt <= dt_max such that T is an integer number of steps."""
    nsteps = max(1, math.ceil(T / dt_max - 1e-12))
    return T / nsteps


def _auto_dt(domain: sp.Domain, potential: pot.Potential, T: float) -> float:
    op = sp.build_operator(domain)
    return fitted_dt(T, 0.9 * dyn.stability_limit(op, potential))


def _emit(report: ExperimentReport, out_dir: str | None, tables=(),
          plots=()) -> ExperimentReport:
    """Write the CSV ``tables``, the SVG ``plots`` and ``report.json`` into
    ``out_dir`` and list them in ``report.artifacts``; no-op without
    ``out_dir``. A table is ``(file, {header: column})``, a plot
    ``(file, x, series, labels)``, ``labels`` passed to ``svg_line_plot``."""
    if out_dir:
        for name, columns in tables:
            report.artifacts.append(write_csv(os.path.join(out_dir, name), list(columns),
                                              zip(*columns.values())))
        for name, x, series, labels in plots:
            report.artifacts.append(svg_line_plot(os.path.join(out_dir, name), x,
                                                  series, **labels))
        report.write(out_dir)
    return report


def _map_ordered(fn, items):
    workers = int(os.environ.get("ADWAVE_WORKERS", "1"))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_energy_inequality(potential: pot.Potential, config: dyn.SimConfig,
                          dt_refinements=(1, 2, 4),
                          out_dir: str | None = None) -> ExperimentReport:
    """Energy never rises above its initial value, and the leftover drift
    shrinks quadratically under dt refinement.

    ``config.dt`` is the coarsest step; refined runs divide it by each
    entry of ``dt_refinements``.
    """
    if potential.regularity != pot.C1_UNIFORM:
        raise ValueError("energy inequality experiment needs a potential "
                         "with continuous bounded gradient")
    if not dt_refinements:
        raise ValueError("dt_refinements must be nonempty")
    report = ExperimentReport("energy-inequality", parameters={
        "potential": potential.name, "T": config.T, "dt": config.dt,
        "refinements": list(dt_refinements)})

    def one(fac: int):
        cfg = replace(config, potential=potential, dt=config.dt / fac)
        return cfg, dyn.simulate(cfg)

    runs = _map_ordered(one, list(dt_refinements))
    drifts = []
    for fac, (cfg, traj) in zip(dt_refinements, runs):
        totals = traj.totals
        tol = dyn.energy_drift_tolerance(cfg)
        rise = float(np.max(totals - totals[0]))
        drift = float(np.max(np.abs(totals - totals[0])))
        drifts.append(drift)
        report.check(f"energy_inequality(dt/{fac})", rise <= tol,
                     measured=rise, threshold=tol)
        report.series[f"energy_total(dt/{fac})"] = list(totals)
        if fac == dt_refinements[0]:
            report.series["time"] = list(traj.times)
            report.series["energy_kinetic"] = [e.kinetic for e in traj.energies]
            report.series["energy_elastic"] = [e.elastic for e in traj.energies]
            report.series["energy_adhesive"] = [e.adhesive for e in traj.energies]
    for i in range(len(dt_refinements) - 1):
        lo = max(drifts[i + 1], 1e-300)
        ratio = drifts[i] / lo
        halvings = math.log2(dt_refinements[i + 1] / dt_refinements[i])
        expected = 4.0 ** halvings
        report.check(f"drift_refinement({dt_refinements[i]}->{dt_refinements[i + 1]})",
                     expected / 1.8 <= ratio <= expected * 1.8,
                     measured=ratio, threshold=expected, comparator="~",
                     note="drift should shrink ~4x per dt halving")
    report.series["drift"] = drifts
    time = report.series["time"]
    energy = {"kinetic": report.series["energy_kinetic"],
              "elastic": report.series["energy_elastic"],
              "adhesive": report.series["energy_adhesive"],
              "total": report.series[f"energy_total(dt/{dt_refinements[0]})"]}
    return _emit(report, out_dir, [("energy.csv", {"t": time, **energy})],
                 [("energy.svg", time, energy,
                   dict(title="energy vs time", xlabel="t", ylabel="energy"))])


def run_epsilon_convergence(family: pot.RegularizedFamily, eps_list,
                            config: dyn.SimConfig,
                            out_dir: str | None = None) -> ExperimentReport:
    """Cauchy proxy for convergence of the regularized runs as eps -> 0.

    Simulates the same data under each member W_eps and measures consecutive
    distances max_t ||u_i(t) - u_{i+1}(t)||_L2, which must decrease along
    ``eps_list``. Certification data for the family is attached. No rate is
    asserted.
    """
    eps_list = [float(e) for e in eps_list]
    cert = pot.certify_family(family, eps_list)
    report = ExperimentReport("epsilon-convergence", parameters={
        "family": family.name, "mode": family.mode, "eps": eps_list,
        "T": config.T, "dt": config.dt})
    report.check("family_certified", cert.passed, measured=float(cert.passed),
                 threshold=1.0, comparator="==")

    def one(eps: float):
        cfg = replace(config, potential=family.make(eps))
        return dyn.simulate(cfg)

    trajs = _map_ordered(one, eps_list)
    dom = config.domain
    dists = []
    for i in range(len(eps_list) - 1):
        a, b = trajs[i], trajs[i + 1]
        if len(a.times) != len(b.times):
            raise ValueError("trajectories must share snapshot times")
        dists.append(max(sp.l2_norm(dom, sa.u - sb.u)
                         for sa, sb in zip(a.states, b.states)))
    for i in range(len(dists) - 1):
        report.check(f"cauchy_decrease({eps_list[i]:g}->{eps_list[i + 1]:g})",
                     dists[i + 1] < dists[i],
                     measured=dists[i + 1], threshold=dists[i], comparator="<")
    report.series["eps"] = eps_list
    report.series["sup_W_dist"] = cert.sup_value_gap
    report.series["sup_grad_dist"] = cert.sup_grad_gap
    report.series["l2_cauchy_dist"] = dists + [math.nan]
    return _emit(report, out_dir, [("epsilon_study.csv", report.series)],
                 [("epsilon_study.svg", eps_list[:-1], {"l2 cauchy distance": dists},
                   dict(title="consecutive-eps trajectory distance",
                        xlabel="eps", ylabel="max_t L2 distance"))])


def run_limit_obstruction(eps_list=(0.4, 0.2, 0.1), T: float = 10.0,
                          L: float = 1.0, n: int = 64,
                          out_dir: str | None = None) -> ExperimentReport:
    """Flat states 1+eps solve the tapered problems exactly, converge
    uniformly to the constant 1, yet the limit fails the weak form.

    Uses the zero-slope one-dimensional setting where the flat approximate
    solutions are available in closed form. The defect of the limit against
    the test function chi = 1, psi = 1 equals 2*T*L, driven entirely by the
    gradient value 2 at the layer edge.
    """
    eps_list = [float(e) for e in eps_list]
    family = pot.linear_taper_family()
    domain = sp.Domain(d=1, s=1.0, omega_extent=L, n=n, pad_factor=1.0,
                       boundary_mode=sp.NEUMANN_1D)
    report = ExperimentReport("limit-obstruction", parameters={
        "eps": eps_list, "T": T, "L": L, "n": n})
    psi = np.ones(domain.n)
    test = dyn.TestField(psi=psi, window=dyn.window_one(), label="chi=1 psi=1")

    def one(eps: float):
        member = family.make(eps)
        dt = _auto_dt(domain, member, T)
        cfg = dyn.SimConfig(domain=domain, potential=member, T=T, dt=dt,
                            u0=dyn.constant_field(domain, 1.0 + eps),
                            v0=dyn.zero_field(domain), record_every=1)
        traj = dyn.simulate(cfg)
        dev = max(float(np.max(np.abs(st.u - (1.0 + eps)))) for st in traj.states)
        res = dyn.weak_residual(traj, [test], member)[0]
        return traj, dev, res

    results = _map_ordered(one, eps_list)
    limit_dev = []
    for eps, (traj, dev, res) in zip(eps_list, results):
        report.check(f"flat_state(eps={eps:g})", dev <= 1e-10,
                     measured=dev, threshold=1e-10)
        report.check(f"approx_residual(eps={eps:g})", abs(res) <= 1e-10,
                     measured=abs(res), threshold=1e-10)
        gap = max(float(np.max(np.abs(st.u - 1.0))) for st in traj.states)
        limit_dev.append(gap)
        report.check(f"uniform_limit_gap(eps={eps:g})", abs(gap - eps) <= 1e-10,
                     measured=gap, threshold=eps, comparator="==",
                     note="distance of the flat state to the constant 1")
    times = results[0][0].times
    base = pot.clipped_quadratic(1.0)
    limit_traj = dyn.constant_trajectory(domain, base, 1.0, times)
    limit_res = dyn.weak_residual(limit_traj, [test], base)[0]
    expected = 2.0 * T * L
    report.check("limit_residual_equals_2TL",
                 abs(limit_res - expected) <= 1e-6 * expected,
                 measured=limit_res, threshold=expected, comparator="==",
                 note="the constant limit is not a weak solution")
    worst_eps_res = max(abs(r) for _, _, r in results)
    report.check("obstruction_gap",
                 abs((limit_res - worst_eps_res) - expected) <= 1e-6 * expected + 1e-9,
                 measured=limit_res - worst_eps_res, threshold=expected,
                 comparator="==")
    columns = {"eps": eps_list,
               "max_dev_from_flat": [dev for _, dev, _ in results],
               "residual_eps": [res for _, _, res in results],
               "limit_gap": limit_dev}
    report.series.update(columns, limit_residual=[limit_res])
    return _emit(report, out_dir, [("limit_obstruction.csv", columns)],
                 [("limit_obstruction.svg", eps_list,
                   {"max |u - 1|": limit_dev,
                    "|weak residual| of u_eps": [abs(r) for _, _, r in results]},
                   dict(title="flat approximate solutions vs their limit",
                        xlabel="eps", ylabel="measured"))])


def run_small_data(family: pot.RegularizedFamily | None = None,
                   eps1: float = 0.05, eps2: float = 0.0,
                   domain: sp.Domain | None = None, T: float = 1.0,
                   family_eps: float = 0.05,
                   out_dir: str | None = None) -> ExperimentReport:
    """Small-data confinement: the full a-priori bound chain, measured.

    With ||u0||_{H^s} <= eps1 and ||v0||_L2 <= eps2 small, the trajectory
    must stay strictly inside the unit ball of states, never touching the
    critical set. Every link of the chain is asserted as measured:

    1. initial adhesive term  ||W(u0)||_L1 <= |Omega| eps1^2,
    2. energy cap             max_t E(t) <= E_cap(eps1, eps2, eps3),
    3. L2 a-priori bound      max_t ||u(t)||_L2 <= eps1 + T sqrt(2 E_cap),
    4. sup embedding bound    max_{t,x} |u| <= C * max_t ||u(t)||_{H^s},
    5. confinement            max_{t,x} |u| <= 1 - eta with eta > 0.

    The run is performed both with the smooth member W_eps and with the
    nonsmooth base W; trajectories must agree within a Gronwall-style bound
    because neither visits the critical region. If the a-priori certificate
    (the data-only bound) fails to stay below 1, the hypothesis is reported
    as violated and confinement is not asserted.
    """
    if family is None:
        family = pot.mollified_family(pot.clipped_quadratic(1.0))
    if family.base.m != 1:
        raise ValueError("small-data experiment builds scalar initial data; "
                         "use a family over scalar states")
    if domain is None:
        domain = sp.Domain(d=1, s=1.0, omega_extent=1.0, n=128, pad_factor=2.0)
    if not 2.0 * domain.s > domain.d:
        raise ValueError("small-data experiment needs 2s > d")
    base = family.base
    member = family.make(family_eps)
    op = sp.build_operator(domain)

    u0 = dyn.bump_field(domain, amplitude=1.0, width_frac=0.7)
    u0 = dyn.scale_to_hs(op, u0, eps1) if eps1 > 0 else dyn.zero_field(domain)
    if eps2 > 0:
        v0 = dyn.scale_to_l2(domain, dyn.bump_field(domain, 1.0, 0.5), eps2)
    else:
        v0 = dyn.zero_field(domain)

    omega = math.prod(domain.omega_extent)
    eps3 = _sampled_value_gap(base, member)
    e_cap = 0.5 * eps2 ** 2 + 0.5 * eps1 ** 2 + omega * eps1 ** 2 + eps3 * omega
    l2_cap = dyn.apriori_l2_bound(e_cap, eps1, T)
    const = sp.embedding_constant(domain.d, domain.s)
    certificate = const * math.sqrt(l2_cap ** 2 + 2.0 * e_cap)

    report = ExperimentReport("small-data", parameters={
        "family": family.name, "family_eps": family_eps, "eps1": eps1,
        "eps2": eps2, "eps3": eps3, "T": T, "embedding_constant": const,
        "energy_cap": e_cap, "l2_cap": l2_cap, "apriori_sup_bound": certificate})

    regime_ok = certificate < 1.0
    report.check("small_data_regime", regime_ok, measured=certificate,
                 threshold=1.0, comparator="<",
                 note="data-only sup bound must confine below the critical set")
    if not regime_ok:
        for name in ("initial_adhesive_bound", "energy_bound", "l2_apriori_bound",
                     "sup_embedding_bound", "confinement", "smooth_region_agreement"):
            report.check(name, None, measured=math.nan, threshold=math.nan,
                         note="skipped: small-data hypothesis violated")
        return _emit(report, out_dir)

    dt = _auto_dt(domain, member, T)
    cfg = dyn.SimConfig(domain=domain, potential=member, T=T, dt=dt,
                        u0=u0, v0=v0, record_every=1)
    traj = dyn.simulate(cfg)
    cfg_base = replace(cfg, potential=base, enforce_cfl=False)
    traj_base = dyn.simulate(cfg_base)

    w0 = base.value(u0) * domain.interior_mask
    adh0 = float(np.sum(w0)) * domain.cell_volume
    report.check("initial_adhesive_bound", adh0 <= omega * eps1 ** 2 + 1e-15,
                 measured=adh0, threshold=omega * eps1 ** 2)

    max_energy = float(np.max(traj.totals))
    report.check("energy_bound", max_energy <= e_cap,
                 measured=max_energy, threshold=e_cap)

    max_l2 = max(sp.l2_norm(domain, st.u) for st in traj.states)
    report.check("l2_apriori_bound", max_l2 <= l2_cap,
                 measured=max_l2, threshold=l2_cap)

    sup_bound = dyn.sup_bound_from_energy(traj)
    max_abs = traj.max_abs()
    report.check("sup_embedding_bound", max_abs <= sup_bound,
                 measured=max_abs, threshold=sup_bound)

    eta = 1.0 - max_abs
    report.check("confinement", max_abs < 1.0, measured=max_abs, threshold=1.0,
                 comparator="<", note=f"eta = {eta:.6g}")

    gap = max(float(np.max(np.abs(sa.u - sb.u)))
              for sa, sb in zip(traj.states, traj_base.states))
    region = max(0.0, 1.0 - eta)
    dev_region = _sampled_grad_gap(base, member, region)
    agree_tol = dev_region * T ** 2 / 2.0 + 1e-12
    report.check("smooth_region_agreement", gap <= agree_tol,
                 measured=gap, threshold=agree_tol,
                 note="smooth and nonsmooth runs coincide away from the layer edge")

    report.parameters["eta"] = eta
    time = list(traj.times)
    columns = {"max_abs_u": list(traj.max_abs_series()),
               "l2_u": [sp.l2_norm(domain, st.u) for st in traj.states],
               "energy_total": list(traj.totals)}
    report.series.update(time=time, **columns)
    return _emit(report, out_dir, [("small_data.csv", {"t": time, **columns})],
                 [("small_data.svg", time,
                   {"max |u|": columns["max_abs_u"],
                    "sup bound": [sup_bound] * len(time)},
                   dict(title="confinement below the critical amplitude",
                        xlabel="t", ylabel="max |u|", hlines=(1.0,)))])


def _sampled_value_gap(base: pot.Potential, member: pot.Potential) -> float:
    pts = np.linspace(-3.0, 3.0, 4001)
    return float(np.max(np.abs(member.value(pts) - base.value(pts))))


def _sampled_grad_gap(base: pot.Potential, member: pot.Potential,
                      radius: float) -> float:
    if radius <= 0:
        return 0.0
    pts = np.linspace(-radius, radius, 2001)
    return float(np.max(np.abs(member.grad(pts) - base.grad(pts))))


def run_dispersion_check(cases=((1, 1.0), (4, 0.5), (2, 2.0)), n: int = 32,
                         out_dir: str | None = None) -> ExperimentReport:
    """Free-wave dispersion: a single mode k oscillates at |xi_k|^s.

    Each mode runs for 6 periods on a periodic box of side 2*pi. Fits the
    oscillation frequency of the mode amplitude from the recurrence
    cos(w dt) = (a_{j-1} + a_{j+1}) / (2 a_j) and compares against the
    symbol; the allowance 5 dt^2 |xi_k|^{3s} covers the second-order phase
    error of the integrator.
    """
    box, periods = 2.0 * math.pi, 6.0
    report = ExperimentReport("dispersion", parameters={
        "cases": [list(c) for c in cases], "n": n, "box": box})
    potential = pot.zero_potential()

    def one(case):
        k, s = int(case[0]), float(case[1])
        domain = sp.Domain(d=1, s=s, omega_extent=box, n=n, pad_factor=1.0,
                           boundary_mode=sp.PERIODIC)
        op = sp.build_operator(domain)
        xi = 2.0 * math.pi * k / box
        omega = xi ** s
        dt = fitted_dt(periods * 2.0 * math.pi / omega,
                       min(0.45 * dyn.stability_limit(op, potential),
                           0.05 * 2.0 * math.pi / omega))
        T = periods * 2.0 * math.pi / omega
        cfg = dyn.SimConfig(domain=domain, potential=potential, T=T, dt=dt,
                            u0=dyn.sine_field(domain, k=k),
                            v0=dyn.zero_field(domain), record_every=1)
        traj = dyn.simulate(cfg)
        x = domain.axes()[0]
        mode = np.sin(2.0 * math.pi * k * x / box)
        amp = np.array([2.0 / n * float(np.sum(st.u * mode)) for st in traj.states])
        fitted = _fit_frequency(amp, dt)
        return k, s, xi, omega, dt, fitted

    rows = _map_ordered(one, list(cases))
    for k, s, xi, omega, dt, fitted in rows:
        tol = 5.0 * dt ** 2 * xi ** (3.0 * s)
        report.check(f"dispersion(k={k},s={s:g})", abs(fitted - omega) <= tol,
                     measured=fitted, threshold=omega, comparator="==",
                     note=f"allowance {tol:.3g}")
    report.series["k"] = [r[0] for r in rows]
    report.series["s"] = [r[1] for r in rows]
    report.series["omega_expected"] = [r[3] for r in rows]
    report.series["omega_fitted"] = [r[5] for r in rows]
    return _emit(report, out_dir, [("dispersion.csv", report.series)])


def _fit_frequency(amplitude: np.ndarray, dt: float) -> float:
    """Frequency of a sampled cosine via the three-point recurrence."""
    a = amplitude
    scale = float(np.max(np.abs(a)))
    mid = a[1:-1]
    ok = np.abs(mid) > 0.2 * scale
    ratio = np.clip((a[:-2][ok] + a[2:][ok]) / (2.0 * mid[ok]), -1.0, 1.0)
    return float(np.median(np.arccos(ratio))) / dt
