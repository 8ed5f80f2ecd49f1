"""Scripted numerical experiments on the adhesive wave system.

Each experiment assembles simulations from the lower-level modules, measures
a chain of named inequalities or convergence proxies, and returns an
:class:`~adwave.reporting.ExperimentReport` that declares its CSV tables and
SVG plots; it writes nothing, :func:`write` does. An experiment runs, checks
and records its parameter values (per eps, per dt, per mode) one at a time,
in their order, in the calling thread.
"""
from __future__ import annotations

import math
import os
from dataclasses import fields, replace

import numpy as np

from . import dynamics as dyn
from . import potentials as pot
from . import spectral as sp
from .dynamics import fitted_dt
from .reporting import ExperimentReport, svg_line_plot, write_csv


def write(report: ExperimentReport, out_dir: str) -> ExperimentReport:
    """Write ``report``'s CSV tables, its SVG plots and then ``report.json``
    into ``out_dir``, each listed in ``report.artifacts``; return
    ``report``. A table is ``(file, {header: column})``, a plot ``(file, x,
    series, labels)``, ``labels`` passed to ``svg_line_plot``."""
    for name, columns in report.tables:
        report.artifacts.append(write_csv(os.path.join(out_dir, name), list(columns),
                                          zip(*columns.values())))
    for name, x, series, labels in report.plots:
        report.artifacts.append(svg_line_plot(os.path.join(out_dir, name), x,
                                              series, **labels))
    report.write(out_dir)
    return report


def run_energy_inequality(config: dyn.SimConfig,
                          dt_refinements=(1, 2, 4)) -> ExperimentReport:
    """Energy never rises above its initial value, and the leftover drift
    shrinks quadratically under dt refinement.

    ``config.dt`` is the coarsest step; refined runs divide it by each
    entry of ``dt_refinements``.
    """
    if config.potential.regularity != pot.C1_UNIFORM:
        raise ValueError("energy inequality experiment needs a potential "
                         "with continuous bounded gradient")
    if not dt_refinements:
        raise ValueError("dt_refinements must be nonempty")
    report = ExperimentReport("energy-inequality", parameters={
        "potential": config.potential.name, "T": config.T, "dt": config.dt,
        "refinements": list(dt_refinements)})
    first, drifts = None, []  # energy.csv tabulates the first run
    for fac in dt_refinements:
        cfg = replace(config, dt=config.dt / fac)
        traj = dyn.simulate(cfg)
        first = traj if first is None else first
        totals = traj.totals
        tol = dyn.energy_drift_tolerance(cfg)
        rise = float(np.max(totals - totals[0]))
        drift = float(np.max(np.abs(totals - totals[0])))
        drifts.append(drift)
        report.check(f"energy_inequality(dt/{fac})", rise <= tol,
                     measured=rise, threshold=tol)
        report.series[f"energy_total(dt/{fac})"] = list(totals)
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
    time = list(first.times)
    energy = {f.name: [getattr(e, f.name) for e in first.energies]
              for f in fields(dyn.EnergyBreakdown)}
    report.series.update(time=time, **{f"energy_{k}": v for k, v in energy.items()
                                       if k != "total"})
    report.tables.append(("energy.csv", {"t": time, **energy}))
    report.plots.append(("energy.svg", time, energy,
                         dict(title="energy vs time", xlabel="t", ylabel="energy")))
    return report


def run_epsilon_convergence(family: pot.RegularizedFamily, eps_list,
                            config: dyn.SimConfig) -> ExperimentReport:
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
    prev, dists = None, []  # dists[i]: from the run of eps_list[i] to the next
    for i, eps in enumerate(eps_list):
        traj = dyn.simulate(replace(config, potential=family.make(eps)))
        if i > 0:
            dists.append(max(sp.l2_norm(config.domain, ua - ub)
                             for ua, ub in zip(prev.us, traj.us)))
        if i > 1:
            report.check(f"cauchy_decrease({eps_list[i - 2]:g}->{eps_list[i - 1]:g})",
                         dists[-1] < dists[-2],
                         measured=dists[-1], threshold=dists[-2], comparator="<")
        prev = traj
    report.series.update(eps=eps_list, sup_W_dist=cert.sup_value_gap,
                         sup_grad_dist=cert.sup_grad_gap, l2_cauchy_dist=dists + [math.nan])
    report.tables.append(("epsilon_study.csv", report.series))
    report.plots.append(("epsilon_study.svg", eps_list[:-1], {"l2 cauchy distance": dists},
                         dict(title="consecutive-eps trajectory distance",
                              xlabel="eps", ylabel="max_t L2 distance")))
    return report


def run_limit_obstruction(eps_list=(0.4, 0.2, 0.1), T: float = 10.0,
                          L: float = 1.0, n: int = 64) -> ExperimentReport:
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
    times = None  # the first run's; the limit is sampled at them
    devs, residuals, limit_dev = [], [], []
    for eps in eps_list:
        member = family.make(eps)
        cfg = dyn.SimConfig(domain=domain, potential=member, T=T, dt=None,
                            u0=dyn.constant_field(domain, 1.0 + eps),
                            v0=dyn.zero_field(domain), record_every=1)
        traj = dyn.simulate(cfg)
        times = traj.times if times is None else times
        dev = max(float(np.max(np.abs(us - (1.0 + eps)))) for us in traj.u_stacks())
        res = dyn.weak_residual(traj, [test], member)[0]
        report.check(f"flat_state(eps={eps:g})", dev <= 1e-10,
                     measured=dev, threshold=1e-10)
        report.check(f"approx_residual(eps={eps:g})", abs(res) <= 1e-10,
                     measured=abs(res), threshold=1e-10)
        gap = max(float(np.max(np.abs(us - 1.0))) for us in traj.u_stacks())
        report.check(f"uniform_limit_gap(eps={eps:g})", abs(gap - eps) <= 1e-10,
                     measured=gap, threshold=eps, comparator="==",
                     note="distance of the flat state to the constant 1")
        devs.append(dev)
        residuals.append(res)
        limit_dev.append(gap)
    base = pot.clipped_quadratic(1.0)
    limit_traj = dyn.constant_trajectory(domain, base, 1.0, times)
    limit_res = dyn.weak_residual(limit_traj, [test], base)[0]
    expected = 2.0 * T * L
    report.check("limit_residual_equals_2TL",
                 abs(limit_res - expected) <= 1e-6 * expected,
                 measured=limit_res, threshold=expected, comparator="==",
                 note="the constant limit is not a weak solution")
    worst_eps_res = max(abs(r) for r in residuals)
    report.check("obstruction_gap",
                 abs((limit_res - worst_eps_res) - expected) <= 1e-6 * expected + 1e-9,
                 measured=limit_res - worst_eps_res, threshold=expected,
                 comparator="==")
    columns = {"eps": eps_list,
               "max_dev_from_flat": devs,
               "residual_eps": residuals,
               "limit_gap": limit_dev}
    report.series.update(columns, limit_residual=[limit_res])
    report.tables.append(("limit_obstruction.csv", columns))
    report.plots.append(("limit_obstruction.svg", eps_list,
                         {"max |u - 1|": limit_dev,
                          "|weak residual| of u_eps": [abs(r) for r in residuals]},
                         dict(title="flat approximate solutions vs their limit",
                              xlabel="eps", ylabel="measured")))
    return report


def run_small_data(family: pot.RegularizedFamily | None = None,
                   eps1: float = 0.05, eps2: float = 0.0,
                   domain: sp.Domain | None = None, T: float = 1.0,
                   family_eps: float = 0.05) -> ExperimentReport:
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
    as violated and confinement is not asserted. A negative or non-finite
    ``eps1`` or ``eps2`` raises :class:`~adwave.spectral.ParameterError`
    naming it; zero is zero data.
    """
    for field, value in (("eps1", eps1), ("eps2", eps2)):
        if not 0 <= value < math.inf:
            raise sp.ParameterError(field, f"{field} must be non-negative and finite, "
                                    f"got {value!r}")
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
    eps3 = _sampled_gap(member.value, base.value, 3.0, 4001)
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
        return report

    cfg = dyn.SimConfig(domain=domain, potential=member, T=T, dt=None,
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

    l2_u = [sp.l2_norm(domain, u) for u in traj.us]
    report.check("l2_apriori_bound", max(l2_u) <= l2_cap, measured=max(l2_u), threshold=l2_cap)

    sup_bound = dyn.sup_bound_from_energy(traj)
    max_abs_u = traj.max_abs_series()
    max_abs = float(np.max(max_abs_u))
    report.check("sup_embedding_bound", max_abs <= sup_bound,
                 measured=max_abs, threshold=sup_bound)

    eta = 1.0 - max_abs
    report.check("confinement", max_abs < 1.0, measured=max_abs, threshold=1.0,
                 comparator="<", note=f"eta = {eta:.6g}")

    gap = max(float(np.max(np.abs(ua - ub))) for ua, ub in zip(traj.us, traj_base.us))
    region = max(0.0, 1.0 - eta)
    dev_region = _sampled_gap(member.grad, base.grad, region, 2001)
    agree_tol = dev_region * T ** 2 / 2.0 + 1e-12
    report.check("smooth_region_agreement", gap <= agree_tol,
                 measured=gap, threshold=agree_tol,
                 note="smooth and nonsmooth runs coincide away from the layer edge")

    report.parameters["eta"] = eta
    time = list(traj.times)
    columns = {"max_abs_u": list(max_abs_u),
               "l2_u": l2_u,
               "energy_total": list(traj.totals)}
    report.series.update(time=time, **columns)
    report.tables.append(("small_data.csv", {"t": time, **columns}))
    report.plots.append(("small_data.svg", time,
                         {"max |u|": columns["max_abs_u"],
                          "sup bound": [sup_bound] * len(time)},
                         dict(title="confinement below the critical amplitude",
                              xlabel="t", ylabel="max |u|", hlines=(1.0,))))
    return report


def _sampled_gap(f, g, radius: float, count: int) -> float:
    """max |f - g| at ``count`` points evenly over [-radius, radius]; 0 if radius <= 0."""
    if radius <= 0:
        return 0.0
    pts = np.linspace(-radius, radius, count)
    return float(np.max(np.abs(f(pts) - g(pts))))


def run_dispersion_check(cases=((1, 1.0), (4, 0.5), (2, 2.0)),
                         n: int = 32) -> ExperimentReport:
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
    columns = report.series
    columns.update(k=[], s=[], omega_expected=[], omega_fitted=[])
    for case in cases:
        k, s = int(case[0]), float(case[1])
        domain = sp.Domain(d=1, s=s, omega_extent=box, n=n, pad_factor=1.0,
                           boundary_mode=sp.PERIODIC)
        op = sp.build_operator(domain)
        xi = 2.0 * math.pi * k / box
        omega = xi ** s
        T = periods * 2.0 * math.pi / omega
        dt = fitted_dt(T, min(0.45 * dyn.stability_limit(op, potential),
                              0.05 * 2.0 * math.pi / omega))
        cfg = dyn.SimConfig(domain=domain, potential=potential, T=T, dt=dt,
                            u0=dyn.sine_field(domain, k=k),
                            v0=dyn.zero_field(domain), record_every=1)
        traj = dyn.simulate(cfg)
        x = domain.axes()[0]
        mode = np.sin(2.0 * math.pi * k * x / box)
        amp = np.concatenate([2.0 / n * sp.row_sums(us * mode) for us in traj.u_stacks()])
        fitted = _fit_frequency(amp, dt)
        tol = 5.0 * dt ** 2 * xi ** (3.0 * s)
        report.check(f"dispersion(k={k},s={s:g})", abs(fitted - omega) <= tol,
                     measured=fitted, threshold=omega, comparator="==",
                     note=f"allowance {tol:.3g}")
        for key, value in zip(columns, (k, s, omega, fitted)):
            columns[key].append(value)
    report.tables.append(("dispersion.csv", columns))
    return report


def _fit_frequency(amplitude: np.ndarray, dt: float) -> float:
    """Frequency of a sampled cosine via the three-point recurrence."""
    a = amplitude
    scale = float(np.max(np.abs(a)))
    mid = a[1:-1]
    ok = np.abs(mid) > 0.2 * scale
    ratio = np.clip((a[:-2][ok] + a[2:][ok]) / (2.0 * mid[ok]), -1.0, 1.0)
    return float(np.median(np.arccos(ratio))) / dt
