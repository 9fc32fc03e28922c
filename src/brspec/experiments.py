"""Numerical verification experiments for the operator's analytic estimates.

Sharp-constant checks (Hardy, Kato, projected-Coulomb), the critical
coupling scan around Z_c, the dilation-commutator decay rate, and the
small-scale limit of the transformed potential form.  Each experiment
returns a report dataclass with the computed quantities and pass flags;
report invariants are enforced by the acceptance suite.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh

from .assemble import assemble_operator, assemble_potential, _kernel_callables, _nonrel_kernel_callables
from .channels import (GAUSSIAN_PROFILE, ChannelSpec, multiplier_channel_kernel,
                       spherical_bessel_transform)
from .dirac import a_plus_minus, lambda_of
from .errors import DomainError
from .grids import assemble_h12_metric, build_grid, build_log_grid, operator_norm_h12
from .params import HARDY_CONSTANT, KATO_CONSTANT, TIX_CONSTANT, PhysParams
from .spectra import dense_spectrum, sweep_workers, _map_ordered


@dataclass
class InequalityReport:
    inequality_name: str
    trial_family_description: str
    max_ratio: float
    theoretical_constant: float
    sample_count: int
    ratios: list = field(default_factory=list)

    @property
    def margin(self):
        return self.theoretical_constant - self.max_ratio

    @property
    def satisfied(self):
        return self.max_ratio <= self.theoretical_constant * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Hardy: || |x|^-1 psi || <= 2 || grad psi ||, sharp constant not attained.
# Concentrating trial family psi_eps(r) = r^(eps - 1/2) e^{-r} (l = 0), whose
# reduced radial part is u = r psi; then ||grad psi||^2 = Int u'^2 dr and
# || psi/r ||^2 = Int u^2/r^2 dr, and the ratio tends to 2 as eps -> 0.

def hardy_check(eps_family=None, params: PhysParams = None) -> InequalityReport:
    eps_family = [0.5, 0.25, 0.1, 0.05, 0.02, 0.01] if eps_family is None else list(eps_family)
    if any(e <= 0 for e in eps_family):
        raise DomainError("hardy trial exponents must be positive")
    ratios = []
    for eps in eps_family:
        # reduced radial part u = r psi = r^(1/2+eps) e^-r;  both integrands
        # carry the endpoint weight r^(2 eps - 1), handled by the algebraic-
        # weight rule on [0, 1] and plain quadrature beyond
        num_s = lambda r: np.exp(-2 * r)
        den_s = lambda r: (0.5 + eps - r) ** 2 * np.exp(-2 * r)
        alpha = 2 * eps - 1
        num = quad(num_s, 0, 1, weight="alg", wvar=(alpha, 0))[0] \
            + quad(lambda r: r**alpha * num_s(r), 1, np.inf, limit=200)[0]
        den = quad(den_s, 0, 1, weight="alg", wvar=(alpha, 0))[0] \
            + quad(lambda r: r**alpha * den_s(r), 1, np.inf, limit=200)[0]
        ratios.append(float(np.sqrt(num / den)))
    return InequalityReport(
        "hardy", f"r^(eps-1/2) e^-r, eps in {eps_family}",
        max(ratios), HARDY_CONSTANT, len(ratios), ratios)


def kato_check(params: PhysParams = None, n=300, window=(1e-6, 1e6)) -> InequalityReport:
    """Largest generalized eigenvalue of the |x|^-1 form against |p| (l = 0).

    The grid sup approaches pi/2 from below under refinement; mass and c
    drop out of the massless comparison.
    """
    base = (params or PhysParams()).replace(Z=1.0)
    grid = build_log_grid(n, *window)
    kern, split = _nonrel_kernel_callables(0, base)
    W = -assemble_potential(grid, kern, split)
    B = np.diag(grid.nodes)
    mu = eigh(W, B, eigvals_only=True)
    return InequalityReport(
        "kato", f"grid sup, l=0, n={n}, window={window}",
        float(mu[-1]), KATO_CONSTANT, n)


def tix_check(channels=(-1, 1), params: PhysParams = None, n=300) -> InequalityReport:
    """Projected-Coulomb sharp constant: sup over channels of the generalized
    eigenvalue of the transformed |x|^-1 kernel against lambda(p)/c."""
    base = (params or PhysParams()).replace(Z=1.0)
    mc = base.m * base.c
    grid = build_log_grid(n, 1e-5 * mc, 2e3 * mc)
    lam = lambda_of(grid.nodes, base)
    B = np.diag(lam / base.c)
    ratios = []
    for kappa in channels:
        ch = ChannelSpec.from_kappa(kappa)
        kern, split = _kernel_callables(ch, base, 1.0)
        W = -assemble_potential(grid, kern, split)
        mu = eigh(W, B, eigvals_only=True)
        ratios.append(float(mu[-1]))
    return InequalityReport(
        "tix", f"grid sup over channels {tuple(channels)}, n={n}",
        max(ratios), TIX_CONSTANT, len(ratios) * n, ratios)


# ---------------------------------------------------------------------------
# Critical coupling scan


@dataclass
class CriticalScanRow:
    Z: float
    grid_sizes: list
    lambda1_fixed: list          # mesh refinement, fixed momentum window
    lambda1_exhaustion: list     # window grows with n
    variation_fixed: float
    exhaustion_drop: float
    stable: bool
    collapsed: bool


@dataclass
class CriticalScanReport:
    rows: list
    stability_tol: float
    collapse_drop: float


def critical_coupling_scan(Z_values, grid_sizes=(100, 200, 400), kappa=-1,
                           params: PhysParams = None, workers=None) -> CriticalScanReport:
    """Probe boundedness-from-below around the critical charge.

    Two refinement families per charge: mesh refinement on a fixed momentum
    window (a bounded-below truncation whose ground level is stable exactly
    when the coupling is subcritical), and window exhaustion coupled to n
    (supercritical couplings dive without stabilizing as the scales open
    up; subcritical ones drift by their truncation bias only).
    """
    base = params or PhysParams()
    ch = ChannelSpec.from_kappa(kappa)
    mc = base.m * base.c
    mc2 = base.mc2
    sizes = sorted(int(n) for n in grid_sizes)
    stability_tol = 1e-4 * mc2
    collapse_drop = 0.05 * mc2
    workers = sweep_workers() if workers is None else workers

    # the potential is linear in Z and none of the grids depends on it:
    # assemble each grid once at unit charge, then rescale for every charge
    grids = ([build_log_grid(n, 1e-4 * mc, 2e3 * mc) for n in sizes]
             + [build_log_grid(n, 1e-3 * mc * sizes[0] / n, 5.0 * mc * n) for n in sizes])
    unit = base.replace(Z=1.0)
    ops = _map_ordered(lambda grid: assemble_operator(grid, ch, unit), grids, workers)

    def run(Z):
        lam1 = [float(dense_spectrum(op.with_charge(Z), 1).eigenvalues[0]) for op in ops]
        fixed, grow = lam1[:len(sizes)], lam1[len(sizes):]
        variation = max(fixed) - min(fixed)
        drop = grow[0] - grow[-1]
        return CriticalScanRow(
            Z=float(Z), grid_sizes=sizes, lambda1_fixed=fixed,
            lambda1_exhaustion=grow, variation_fixed=variation,
            exhaustion_drop=drop,
            stable=bool(variation < stability_tol and min(fixed) > 0),
            collapsed=bool(drop > collapse_drop))

    rows = _map_ordered(run, [float(Z) for Z in Z_values], workers)
    return CriticalScanReport(rows, stability_tol, collapse_drop)


# ---------------------------------------------------------------------------
# Dilation-commutator decay


@dataclass
class CommutatorDecayReport:
    R_values: list
    norms: list
    fitted_slope: float
    fit_residual: float
    flagged: bool


def commutator_matrix(R, grid, channel: ChannelSpec, params: PhysParams,
                      chi_profile=GAUSSIAN_PROFILE):
    """Channel-reduced matrix of [chi_R, U^-1] U on the (upper, lower) pair.

    chi_R acts blockwise through the channel kernels of its two orbital
    components; the transformation acts momentum-diagonally through the
    channel rotation, so the commutator reduces to X - G^T X G.  The matrix
    acts on node values (quadrature weights on the columns).
    """
    p = grid.nodes
    n = grid.n
    lw = grid.l2_weights
    P, Q = np.meshgrid(p, p, indexing="ij")
    X = np.zeros((2 * n, 2 * n))
    X[:n, :n] = multiplier_channel_kernel(chi_profile, channel.l_up, R, P, Q) * lw[None, :]
    X[n:, n:] = multiplier_channel_kernel(chi_profile, channel.l_down, R, P, Q) * lw[None, :]
    ap, am = a_plus_minus(p, params)
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = np.diag(ap)
    G[:n, n:] = np.diag(-am)
    G[n:, :n] = np.diag(am)
    G[n:, n:] = np.diag(ap)
    return X - G.T @ X @ G


def commutator_decay(R_values=(2., 4., 8., 16., 32., 64.), grid=None, kappa=-1,
                     chi_profile=GAUSSIAN_PROFILE,
                     params: PhysParams = None) -> CommutatorDecayReport:
    """Operator norms of the cutoff commutator across dilation scales R.

    Fits the log-log slope; the norm decays like 1/R.
    """
    base = params or PhysParams()
    if grid is None:
        grid = build_log_grid(160, 1e-4, 1e3)
    R_values = [float(R) for R in R_values]
    if any(R <= 0 for R in R_values) or sorted(R_values) != R_values:
        raise DomainError("R values must be positive and increasing")
    ch = ChannelSpec.from_kappa(kappa)
    metric = assemble_h12_metric(grid)
    norms = [operator_norm_h12(commutator_matrix(R, grid, ch, base, chi_profile), metric)
             for R in R_values]
    coef = np.polyfit(np.log(R_values), np.log(norms), 1)
    resid = np.log(norms) - np.polyval(coef, np.log(R_values))
    rms = float(np.sqrt(np.mean(resid**2)))
    return CommutatorDecayReport(R_values, [float(v) for v in norms],
                                 float(coef[0]), rms, flagged=rms > 0.1)


# ---------------------------------------------------------------------------
# Small-scale limit of the transformed potential form


@dataclass
class ScalingLimitReport:
    eta_values: list
    form_values: list
    leading_coefficient: float
    oracle_coefficient: float
    remainder_exponent: float
    monotone_divergence: bool
    flagged: bool


def scaling_limit(eta_values=(0.4, 0.2, 0.1, 0.05, 0.025), grid=None,
                  kappa=-1, params: PhysParams = None,
                  profile=None) -> ScalingLimitReport:
    """Transformed-potential form on the concentrating family eta^{3/2} phi(eta y).

    In momentum space the family rescales the mixing coefficients to
    a_pm(eta p) while the Coulomb kernel contributes one power of eta, so
    F(eta) = eta * (f, P_eta f) with P_eta the potential matrix evaluated
    with rescaled mixing.  F(eta) = -A eta + B eta^e with A = Z (phi, |y|^-1 phi)
    and e >= 2; eta^-2 F(eta) then diverges monotonically to -infinity.
    """
    base = params or PhysParams()
    if base.Z <= 0:
        raise DomainError("scaling limit requires an attractive potential, Z > 0")
    etas = sorted(float(e) for e in eta_values)[::-1]
    if etas[0] > 0.5 or etas[-1] <= 0:
        raise DomainError("eta values must lie in (0, 0.5], decreasing")
    if grid is None:
        grid = build_grid(200, 1.0)
    ch = ChannelSpec.from_kappa(kappa)

    f = np.exp(-grid.nodes**2 / 2) if profile is None else np.asarray(profile, float)
    coords = f * np.sqrt(grid.l2_weights)
    coords = coords / np.linalg.norm(coords)

    forms = []
    for eta in etas:
        kern, split = _kernel_callables(ch, base, fw_scale=eta)
        P = assemble_potential(grid, kern, split)
        forms.append(float(eta * (coords @ (P @ coords))))

    # F/eta = -A + B eta^(e-1): successive differences of d = F/eta cancel A,
    # their log-log slope gives the remainder exponent, and extrapolating the
    # geometric remainder to eta -> 0 recovers A without assuming e
    ar_eta = np.array(etas)
    d = np.array(forms) / ar_eta
    diffs = d[:-1] - d[1:]
    sel = diffs != 0
    slope = float(np.polyfit(np.log(ar_eta[:-1][sel]), np.log(np.abs(diffs[sel])), 1)[0]) + 1.0
    q = (etas[-1] / etas[-2]) ** (slope - 1.0)
    tail = diffs[-1] * q / (1.0 - q)
    A = float(tail - d[-1])

    # position-space oracle for Z (phi, |y|^-1 phi) through the Bessel
    # transform; beyond the profile's support the oscillatory quadrature
    # returns noise, so the radial integrals stop at the first node where
    # the transform has decayed ten orders below its peak
    fr = np.abs(spherical_bessel_transform(ch.l_up, f, grid))
    below = np.nonzero(fr < 1e-10 * fr.max())[0]
    cut = below[0] if below.size else grid.n
    w = grid.weights[:cut]
    r = grid.nodes[:cut]
    fr = fr[:cut]
    norm2 = float(np.dot(w * r * r, fr**2))
    oracle = base.Z * float(np.dot(w * r, fr**2)) / norm2

    normalized = np.array(forms) / np.array(etas) ** 2
    monotone = bool(np.all(np.diff(normalized) < 0) and normalized[-1] < 0)
    flagged = not (np.isfinite(A) and np.isfinite(slope))
    return ScalingLimitReport([float(e) for e in etas], forms, float(A),
                              float(oracle), slope, monotone, flagged)
