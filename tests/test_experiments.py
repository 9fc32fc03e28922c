import numpy as np
import pytest
from scipy.integrate import quad

from brspec import PhysParams, experiments
from brspec.assemble import assemble_operator, assemble_potential, _nonrel_kernel_callables
from brspec.channels import ChannelSpec, spherical_bessel_transform
from brspec.errors import DomainError
from brspec.experiments import (commutator_decay, critical_coupling_scan,
                                hardy_check, kato_check, scaling_limit, tix_check)
from brspec.grids import build_grid, build_log_grid
from brspec.params import HARDY_CONSTANT, KATO_CONSTANT, TIX_CONSTANT
from brspec.spectra import dense_spectrum


class TestHardy:
    def test_constant_and_window(self):
        rep = hardy_check()
        assert rep.theoretical_constant == 2.0
        assert rep.satisfied
        assert 1.8 <= rep.max_ratio <= 2.0

    def test_hydrogenic_ratio(self):
        # for e^-r the two radial integrals are 2 and 1 after normalization
        rep = hardy_check(eps_family=[0.5])
        assert rep.max_ratio == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_family_concentration_increases_ratio(self):
        rep = hardy_check()
        assert rep.ratios == sorted(rep.ratios)

    def test_bad_family(self):
        with pytest.raises(DomainError):
            hardy_check(eps_family=[0.1, -0.2])

    def test_momentum_kernel_crosscheck(self):
        # (psi, r^-1 psi) for psi = e^-r through the channel kernel matrix:
        # transform of e^-r is sqrt(2/pi) * 2/(1+p^2)^2, and the position
        # value is Int r e^-2r / Int r^2 e^-2r = 1
        grid = build_grid(300, 1.0)
        params = PhysParams(c=1.0, m=1.0, Z=1.0)
        kern, split = _nonrel_kernel_callables(0, params)
        W = -assemble_potential(grid, kern, split)
        f = np.sqrt(2 / np.pi) * 2.0 / (1 + grid.nodes**2) ** 2
        coords = f * np.sqrt(grid.l2_weights)
        val = (coords @ (W @ coords)) / (coords @ coords)
        assert val == pytest.approx(1.0, rel=1e-6)


class TestKato:
    def test_constant_and_window(self):
        rep = kato_check(n=300)
        assert rep.theoretical_constant == pytest.approx(np.pi / 2)
        assert rep.satisfied
        assert 1.45 < rep.max_ratio <= np.pi / 2

    def test_refinement_stays_below_and_stable(self):
        vals = [kato_check(n=n).max_ratio for n in (160, 320)]
        assert all(v <= KATO_CONSTANT * (1 + 1e-9) for v in vals)
        assert abs(vals[1] - vals[0]) < 1e-5

    def test_gaussian_ratio_strictly_below(self):
        grid = build_log_grid(240, 1e-5, 1e4)
        params = PhysParams(c=1.0, m=1.0, Z=1.0)
        kern, split = _nonrel_kernel_callables(0, params)
        W = -assemble_potential(grid, kern, split)
        for s in (1.0, 2.0):
            f = np.exp(-(grid.nodes / s) ** 2 / 2)
            coords = f * np.sqrt(grid.l2_weights)
            ratio = (coords @ (W @ coords)) / (coords @ (grid.nodes * coords))
            assert ratio < KATO_CONSTANT

    def test_scaling_invariance_of_single_ratio(self):
        grid = build_log_grid(400, 1e-4, 1e4)
        params = PhysParams(c=1.0, m=1.0, Z=1.0)
        kern, split = _nonrel_kernel_callables(0, params)
        W = -assemble_potential(grid, kern, split)

        def ratio(scale):
            f = np.exp(-(grid.nodes / scale) ** 2 / 2)
            coords = f * np.sqrt(grid.l2_weights)
            return (coords @ (W @ coords)) / (coords @ (grid.nodes * coords))

        assert abs(ratio(1.0) - ratio(4.0)) < 1e-6


class TestTix:
    def test_constant_value(self):
        assert TIX_CONSTANT == pytest.approx((np.pi / 2 + 2 / np.pi) / 2, rel=1e-15)
        assert TIX_CONSTANT == pytest.approx(1.103708, abs=1e-6)

    def test_window(self):
        rep = tix_check(n=300)
        assert rep.satisfied
        assert 1.0 < rep.max_ratio <= TIX_CONSTANT * (1 + 1e-9)
        assert len(rep.ratios) == 2

    def test_implied_critical_charge(self):
        params = PhysParams()
        assert 123.5 < params.critical_charge < 124.5
        assert params.critical_charge == pytest.approx(2 * params.c / (np.pi / 2 + 2 / np.pi))


@pytest.fixture(scope="module")
def scan_report():
    return critical_coupling_scan([60.0, 120.0, 130.0], grid_sizes=(100, 200, 400))


class TestCriticalScan:
    def test_subcritical_rows_stable(self, scan_report):
        report = scan_report
        by_z = {r.Z: r for r in report.rows}
        for Z in (60.0, 120.0):
            row = by_z[Z]
            assert row.stable and not row.collapsed
            assert min(row.lambda1_fixed) > 0
            assert row.variation_fixed < report.stability_tol

    def test_supercritical_row_collapses(self, scan_report):
        row = {r.Z: r for r in scan_report.rows}[130.0]
        report = scan_report
        assert row.collapsed
        assert row.exhaustion_drop > report.collapse_drop
        assert np.all(np.diff(row.lambda1_exhaustion) < 0)

    def test_mid_charge_band(self, scan_report):
        # cross-checked against the point-nucleus single-particle value
        # sqrt(1 - (Z/c)^2) ~ 0.901 as an order-of-magnitude band
        row = {r.Z: r for r in scan_report.rows}[60.0]
        mc2 = PhysParams().mc2
        assert 0.89 < row.lambda1_fixed[-1] / mc2 < 0.95


class TestCriticalScanUnitCharge:
    @pytest.mark.filterwarnings("ignore:Z = 130.0 lies outside:UserWarning")
    def test_matches_per_charge_assembly(self):
        # the scan rescales one unit-charge assembly per grid; a fresh
        # assembly at each charge gives the same ground level
        base = PhysParams()
        mc, mc2 = base.m * base.c, base.mc2
        sizes = (64, 128)
        ch = ChannelSpec.from_kappa(-1)
        rep = critical_coupling_scan([60.0, 120.0, 130.0], grid_sizes=sizes)
        for row in rep.rows:
            pz = base.replace(Z=row.Z)
            fixed = [build_log_grid(n, 1e-4 * mc, 2e3 * mc) for n in sizes]
            grow = [build_log_grid(n, 1e-3 * mc * sizes[0] / n, 5.0 * mc * n) for n in sizes]
            for grids, scanned in ((fixed, row.lambda1_fixed), (grow, row.lambda1_exhaustion)):
                direct = [dense_spectrum(assemble_operator(g, ch, pz), 1).eigenvalues[0]
                          for g in grids]
                assert np.abs(np.array(scanned) - direct).max() <= 1e-12 * mc2

    def test_assembles_each_grid_once(self, monkeypatch):
        charges = []
        real = experiments.assemble_operator

        def counting(grid, channel, params, *args, **kwargs):
            charges.append(params.Z)
            return real(grid, channel, params, *args, **kwargs)

        monkeypatch.setattr(experiments, "assemble_operator", counting)
        sizes = (32, 48, 64)
        rep = critical_coupling_scan([100, 110, 115, 120, 122, 124, 130, 140],
                                     grid_sizes=sizes)
        assert len(rep.rows) == 8
        assert charges == [1.0] * (2 * len(sizes))

    def test_with_charge_is_nystrom_only(self):
        op = assemble_operator(build_grid(32, 1.0), ChannelSpec.from_kappa(-1),
                               PhysParams(Z=1.0), scheme="galerkin")
        with pytest.raises(DomainError):
            op.with_charge(2.0)


@pytest.fixture(scope="module")
def decay_report():
    return commutator_decay()


class TestCommutatorDecay:
    def test_slope_window(self, decay_report):
        report = decay_report
        assert -1.15 <= report.fitted_slope <= -0.85
        assert report.fit_residual < 0.1
        assert not report.flagged

    def test_norms_decrease(self, decay_report):
        report = decay_report
        assert all(a > b for a, b in zip(report.norms, report.norms[1:]))

    def test_doubling_halves_norm(self, decay_report):
        report = decay_report
        for a, b in zip(report.norms, report.norms[1:]):
            assert b / a == pytest.approx(0.5, abs=0.1)

    def test_r_values_validation(self):
        with pytest.raises(DomainError):
            commutator_decay(R_values=(4.0, 2.0))


@pytest.fixture(scope="module")
def scaling_report():
    return scaling_limit()


class TestScalingLimit:
    def test_leading_coefficient_matches_position_oracle(self, scaling_report):
        report = scaling_report
        rel = abs(report.leading_coefficient - report.oracle_coefficient) \
            / report.oracle_coefficient
        assert rel < 0.02

    def test_gaussian_oracle_against_closed_form(self, scaling_report):
        report = scaling_report
        # Z <phi, r^-1 phi> for the normalized Gaussian is 2 Z / sqrt(pi)
        assert report.oracle_coefficient == pytest.approx(2 / np.sqrt(np.pi), rel=1e-4)

    def test_remainder_exponent(self, scaling_report):
        report = scaling_report
        assert report.remainder_exponent >= 1.7

    def test_forms_negative_and_monotone(self, scaling_report):
        report = scaling_report
        assert all(v < 0 for v in report.form_values)
        assert report.monotone_divergence

    def test_eta_validation(self):
        with pytest.raises(DomainError):
            scaling_limit(eta_values=(0.9, 0.4))
