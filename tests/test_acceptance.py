"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values when it succeeds (run with -s or -rA to see them)."""

import dataclasses
import json

import numpy as np
import pytest

from brspec import PhysParams
from brspec.assemble import assemble_operator
from brspec.channels import ChannelSpec
from brspec.cli import RunReport, parse_config, run_command, write_report
from brspec.dirac import a_plus_minus, lambda_of
from brspec.experiments import (commutator_decay, critical_coupling_scan,
                                hardy_check, kato_check, scaling_limit, tix_check)
from brspec.extension import (default_x_grid, dtn_apply, dtn_finite_difference,
                              exponential_field, extend, minimality_check,
                              momentum_energy, multiplier_profile, random_boundary,
                              trace_inequality_margin, x_quadrature_energy)
from brspec.grids import build_grid
from brspec.spectra import binding_grid, dense_spectrum, variational_spectrum
from brspec.params import HARDY_CONSTANT, KATO_CONSTANT, TIX_CONSTANT
from oracles import ALPHA, BETA, I4, dirac_symbol, fw_unitary, projector_symbol

CH = ChannelSpec.from_kappa(-1)
ATOMIC = PhysParams(Z=1.0)
UNIT = PhysParams(c=1.0, m=1.0, Z=1.0)


def _report(name, **values):
    pretty = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in values.items())
    print(f"ACCEPTANCE {name}: PASS  {pretty}")


def _sample_momenta(rng, n, lo=1e-6, hi=1e3):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return mags[:, None] * dirs


def test_c01_transformation_algebra():
    rng = np.random.default_rng(101)
    params = ATOMIC
    worst_u = worst_d = worst_p = 0.0
    for p in _sample_momenta(rng, 1000):
        lam = lambda_of(np.linalg.norm(p), params)
        u = fw_unitary(p, params).entries
        uinv = fw_unitary(p, params, inverse=True).entries
        worst_u = max(worst_u, np.abs(u @ u.conj().T - I4).max())
        d = dirac_symbol(p, params).entries
        worst_d = max(worst_d, np.abs(u @ d @ uinv - BETA * lam).max() / lam)
        plus = projector_symbol(p, +1, params).entries
        minus = projector_symbol(p, -1, params).entries
        worst_p = max(worst_p,
                      np.abs(plus @ plus - plus).max(),
                      np.abs(plus + minus - I4).max(),
                      np.abs(plus @ minus).max())
    assert worst_u < 1e-12
    assert worst_d < 1e-11
    assert worst_p < 1e-12
    _report("01 transformation algebra", unitarity=worst_u, diagonalization=worst_d,
            projectors=worst_p)


def test_c02_pointwise_kernel_bounds():
    rng = np.random.default_rng(102)
    params = ATOMIC
    n = 10_000
    ps = _sample_momenta(rng, n, 1e-3, 1e3)
    qs = _sample_momenta(rng, n, 1e-3, 1e3)
    Rs = np.exp(rng.uniform(0.0, np.log(1e3), n))
    mc = params.m * params.c

    mags = np.linalg.norm(ps, axis=1)
    ap, am = a_plus_minus(mags / Rs, params)
    u1 = ap[:, None, None] * np.eye(4, dtype=complex)[None]
    hats = ps / mags[:, None]
    for k in range(3):
        u1 = u1 + am[:, None, None] * hats[:, k, None, None] * (BETA @ ALPHA[k])[None]
    diff = ps - qs
    dmags = np.linalg.norm(diff, axis=1)
    ap2, am2 = a_plus_minus(dmags / Rs, params)
    u2 = ap2[:, None, None] * np.eye(4, dtype=complex)[None]
    dhats = diff / dmags[:, None]
    for k in range(3):
        u2 = u2 + am2[:, None, None] * dhats[:, k, None, None] * (BETA @ ALPHA[k])[None]
    norms = np.linalg.matrix_norm(u1 - u2, ord=2)
    bound = 5 * np.sqrt(2) * np.linalg.norm(qs, axis=1) / (mc * Rs)
    margin_k = float((norms / bound).max())
    assert margin_k <= 1 + 1e-10

    etas = rng.uniform(1e-4, 1.0, n)
    app, amm = a_plus_minus(etas * mags, params)
    m_plus = float((np.abs(app - 1) * 2 * mc**2 / (etas * mags) ** 2).max())
    m_minus = float((amm * np.sqrt(2) * mc / (etas * mags)).max())
    assert m_plus <= 1 + 1e-10
    assert m_minus <= 1 + 1e-10
    _report("02 pointwise kernel bounds", difference_margin=margin_k,
            a_plus_margin=m_plus, a_minus_margin=m_minus)


def test_c03_commutator_decay():
    rep = commutator_decay()  # R in {2..64}, n=160, kappa=-1
    assert -1.15 <= rep.fitted_slope <= -0.85
    assert rep.fit_residual < 0.1
    _report("03 commutator decay", slope=rep.fitted_slope, residual=rep.fit_residual)


def test_c04_extension_identities():
    params = PhysParams(c=1.0, m=1.0, Z=0.0)
    grid = build_grid(200, 1.0)
    xg = default_x_grid(params)
    mult = multiplier_profile(grid, xg, params)
    rng = np.random.default_rng(104)

    energy_err = 0.0
    dtn_err = 0.0
    for _ in range(20):
        u = random_boundary(grid, rng)
        e_mom = momentum_energy(u, params)
        e_x = x_quadrature_energy(extend(u, xg, params, mult), params).value
        energy_err = max(energy_err, abs(e_mom - e_x) / e_mom)
        fd = dtn_finite_difference(u, params)
        exact = dtn_apply(u, params)
        floor = 1e-30 * np.abs(exact.values).max()
        dtn_err = max(dtn_err, float(np.max(
            np.abs(fd.values - exact.values) / np.maximum(np.abs(exact.values), floor))))
    assert energy_err < 1e-7

    min_viol = -np.inf
    for _ in range(50):
        u = random_boundary(grid, rng)
        b = random_boundary(grid, rng).values
        rate = params.mc2 * rng.uniform(0.5, 2.0)
        e0, e1 = minimality_check(u, b, rate, rng.uniform(0.02, 0.5), params, mult)
        min_viol = max(min_viol, (e0.value - e1.value) / e0.value)
    assert min_viol < 1e-10
    assert dtn_err < 1e-8
    _report("04 extension identities", energy_rel_err=energy_err,
            minimality_violation=min_viol, dtn_richardson_err=dtn_err)


def test_c05_trace_inequality():
    params = PhysParams(c=1.0, m=1.0, Z=0.0)
    grid = build_grid(200, 1.0)
    xg = default_x_grid(params)
    rng = np.random.default_rng(105)
    worst = np.inf
    for _ in range(50):
        u = random_boundary(grid, rng)
        rates = params.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
        res = trace_inequality_margin(exponential_field(u, rates, xg), params)
        worst = min(worst, res.margin / res.scale)
    assert worst >= -1e-10
    u = random_boundary(grid, rng)
    eq = trace_inequality_margin(
        exponential_field(u, np.full(grid.n, params.mc2), xg), params)
    assert abs(eq.margin) < 1e-10 * eq.scale
    _report("05 trace inequality", min_margin=worst,
            equality_margin=eq.margin / eq.scale)


def test_c06_nonrelativistic_limit_of_spectrum():
    params = PhysParams(c=137.035999, m=1.0, Z=1.0)
    op = assemble_operator(build_grid(200, 1.0), CH, params)
    res = dense_spectrum(op, 3)
    b = res.binding_energies()
    hydrogen = np.array([0.5, 0.125, 1.0 / 18.0])
    errs = np.abs(b - hydrogen)
    assert errs[0] < 1e-3
    assert errs[1] < 5e-4
    assert errs[2] < 5e-4
    _report("06 nonrelativistic limit", err_1s=float(errs[0]), err_2s=float(errs[1]),
            err_3s=float(errs[2]))


def test_c07_variational_route_equivalence():
    params = PhysParams(c=1.0, m=1.0, Z=0.5)
    op = assemble_operator(build_grid(200, 0.5), CH, params)
    dense = dense_spectrum(op, 5)
    var = variational_spectrum(op, 5)
    gap = float(np.abs(dense.eigenvalues - var.eigenvalues).max())
    assert gap < 1e-8 * params.mc2
    gram = var.eigenvectors.T @ var.eigenvectors
    ortho = float(np.abs(gram - np.eye(5)).max())
    assert ortho < 1e-10
    resid = float(var.residuals.max())
    assert resid < 1e-7
    _report("07 variational equivalence", route_gap=gap, orthogonality=ortho,
            neumann_residual=resid)


def test_c08_spectral_bounds_across_charges():
    params = PhysParams()
    rows = []
    for Z in (1.0, 10.0, 50.0, 100.0, 120.0):
        pz = dataclasses.replace(params, Z=Z)
        rows.append(dense_spectrum(assemble_operator(binding_grid(Z, pz), CH, pz), 4))
    lam1 = np.array([r.eigenvalues[0] for r in rows])
    assert np.all(np.diff(lam1) < 0)
    for r in rows:
        assert np.all(r.eigenvalues > 0)
        assert np.all(r.eigenvalues < params.mc2)
        assert np.all(np.diff(r.binding_energies()) < 0)
    _report("08 spectral bounds",
            lam1_over_mc2=[round(float(v) / params.mc2, 6) for v in lam1])


def test_c09_sharp_inequality_constants():
    h = hardy_check()
    k = kato_check(n=300)
    t = tix_check(n=300)
    assert h.max_ratio <= HARDY_CONSTANT * (1 + 1e-9) and h.max_ratio >= 1.8
    assert k.max_ratio <= KATO_CONSTANT * (1 + 1e-9) and k.max_ratio >= 1.45
    assert t.max_ratio <= 1.103708 * (1 + 1e-6) and t.max_ratio >= 1.0
    assert min(h.margin, k.margin, t.margin) >= -1e-9
    _report("09 inequality constants", hardy=h.max_ratio, kato=k.max_ratio,
            tix=t.max_ratio)


def test_c10_critical_coupling():
    params = PhysParams()
    rep = critical_coupling_scan([120.0, 130.0], grid_sizes=(100, 200, 400),
                                 params=params)
    sub = {r.Z: r for r in rep.rows}[120.0]
    sup = {r.Z: r for r in rep.rows}[130.0]
    assert min(sub.lambda1_fixed) > 0
    assert sub.variation_fixed < 1e-4 * params.mc2
    assert sup.lambda1_exhaustion[-1] < sup.lambda1_exhaustion[0] - 0.05 * params.mc2
    _report("10 critical coupling", stable_variation=sub.variation_fixed / params.mc2,
            collapse_drop=sup.exhaustion_drop / params.mc2)


def test_c11_small_scale_limit():
    rep = scaling_limit()
    rel = abs(rep.leading_coefficient - rep.oracle_coefficient) / rep.oracle_coefficient
    assert rel < 0.02
    assert rep.remainder_exponent >= 1.7
    assert rep.monotone_divergence
    _report("11 small-scale limit", coefficient_rel_err=rel,
            remainder_exponent=rep.remainder_exponent)


def test_c12_determinism_and_serialization(tmp_path):
    overrides = ["params.c=1", "params.m=1", "params.Z=0.5", "grid.n=64",
                 "grid.s=0.5", "solver.k=2"]
    rep1 = run_command("spectrum", parse_config(overrides=overrides))
    rep2 = run_command("spectrum", parse_config(overrides=overrides))
    assert rep1.report_hash == rep2.report_hash
    paths = write_report(rep1, formats=["json"], destination=tmp_path)
    back = RunReport(**json.loads(paths[0].read_text()))
    assert back.to_dict() == rep1.to_dict()
    _report("12 determinism and serialization", report_hash=rep1.report_hash[:16])
