import dataclasses
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from brspec import PhysParams, channels, experiments
from brspec.assemble import assemble_operator, assemble_potential
from brspec.channels import (ChannelSpec, br_terms, coulomb_terms, legendre_q_cosh,
                             multiplier_channel_kernel)
from brspec.dirac import a_plus_minus, lambda_of
from brspec.errors import DomainError, NumericalError
from brspec.experiments import (commutator_decay, commutator_matrix, critical_coupling_scan,
                                hardy_check, kato_check, scaling_limit, tix_check)
from brspec.grids import build_grid, build_log_grid
from brspec.channels import KATO_CONSTANT, TIX_CONSTANT, critical_charge
from brspec.params import HARDY_CONSTANT
from brspec.spectra import dense_spectrum
from oracles import spherical_bessel_transform


class TestHardy:
    def test_constant_and_window(self):
        rep = hardy_check()
        assert rep["constant"] == 2.0
        assert rep["margin"] == rep["constant"] - rep["max_ratio"]
        assert 1.8 <= rep["max_ratio"] <= 2.0

    def test_hydrogenic_ratio(self):
        # for e^-r the two radial integrals are 2 and 1 after normalization
        rep = hardy_check(eps_family=[0.5])
        assert rep["max_ratio"] == pytest.approx(np.sqrt(2.0), rel=1e-9)

    def test_family_concentration_increases_ratio(self):
        rep = hardy_check()
        assert rep["ratios"] == sorted(rep["ratios"])

    def test_bad_family(self):
        with pytest.raises(DomainError):
            hardy_check(eps_family=[0.1, -0.2])

    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 1e-3, 3.0])
    def test_closed_form_against_quadrature(self, eps):
        # u = r^(1/2+eps) e^-r: both integrands carry the endpoint weight
        # r^(2 eps - 1), taken by the algebraic-weight rule on [0, 1] and
        # plain quadrature beyond
        alpha = 2 * eps - 1

        def integral(f):
            return (quad(f, 0, 1, weight="alg", wvar=(alpha, 0))[0]
                    + quad(lambda r: r**alpha * f(r), 1, np.inf, limit=200)[0])

        num = integral(lambda r: np.exp(-2 * r))
        den = integral(lambda r: (0.5 + eps - r) ** 2 * np.exp(-2 * r))
        assert hardy_check(eps_family=[eps])["max_ratio"] == pytest.approx(
            np.sqrt(num / den), rel=1e-13)

    def test_momentum_kernel_crosscheck(self):
        # (psi, r^-1 psi) for psi = e^-r through the channel kernel matrix:
        # transform of e^-r is sqrt(2/pi) * 2/(1+p^2)^2, and the position
        # value is Int r e^-2r / Int r^2 e^-2r = 1
        grid = build_grid(300, 1.0)
        W = -assemble_potential(grid, coulomb_terms(0))
        f = np.sqrt(2 / np.pi) * 2.0 / (1 + grid.nodes**2) ** 2
        coords = f * np.sqrt(grid.l2_weights)
        val = (coords @ (W @ coords)) / (coords @ coords)
        assert val == pytest.approx(1.0, rel=1e-6)


class TestKato:
    def test_constant_and_window(self):
        rep = kato_check(n=300)
        assert rep["constant"] == pytest.approx(np.pi / 2)
        assert rep["margin"] == rep["constant"] - rep["max_ratio"]
        assert 1.45 < rep["max_ratio"] <= np.pi / 2

    def test_refinement_stays_below_and_stable(self):
        vals = [kato_check(n=n)["max_ratio"] for n in (160, 320)]
        assert all(v <= KATO_CONSTANT * (1 + 1e-9) for v in vals)
        assert abs(vals[1] - vals[0]) < 1e-5

    def test_gaussian_ratio_strictly_below(self):
        grid = build_log_grid(240, 1e-5, 1e4)
        W = -assemble_potential(grid, coulomb_terms(0))
        for s in (1.0, 2.0):
            f = np.exp(-(grid.nodes / s) ** 2 / 2)
            coords = f * np.sqrt(grid.l2_weights)
            ratio = (coords @ (W @ coords)) / (coords @ (grid.nodes * coords))
            assert ratio < KATO_CONSTANT

    def test_scaling_invariance_of_single_ratio(self):
        grid = build_log_grid(400, 1e-4, 1e4)
        W = -assemble_potential(grid, coulomb_terms(0))

        def ratio(scale):
            f = np.exp(-(grid.nodes / scale) ** 2 / 2)
            coords = f * np.sqrt(grid.l2_weights)
            return (coords @ (W @ coords)) / (coords @ (grid.nodes * coords))

        assert abs(ratio(1.0) - ratio(4.0)) < 1e-6


class TestSharpSupsAgainstGeneralizedEigh:
    # the checks take one eigenvalue of B^-1/2 W B^-1/2; the oracle is the
    # whole generalized spectrum of (W, B).  build_log_grid rounds n to whole
    # panels (n = 64 gives 60 nodes)

    @pytest.mark.parametrize("n", [64, 300])
    def test_kato(self, n):
        grid = build_log_grid(n, 1e-6, 1e6)
        W = -assemble_potential(grid, coulomb_terms(0))
        oracle = eigh(W, np.diag(grid.nodes), eigvals_only=True)[-1]
        rep = kato_check(n=n)
        assert rep["max_ratio"] == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("n", [64, 300])
    def test_tix(self, n):
        base = PhysParams(Z=1.0)
        mc = base.m * base.c
        grid = build_log_grid(n, 1e-5 * mc, 2e3 * mc)
        B = np.diag(lambda_of(grid.nodes, base) / base.c)
        oracle = [eigh(-assemble_potential(grid, br_terms(ChannelSpec.from_kappa(kappa), base)),
                       B, eigvals_only=True)[-1] for kappa in (-1, 1)]
        rep = tix_check(n=n)
        assert rep["ratios"] == pytest.approx(oracle, rel=1e-13)

    def test_scaled_product_read_as_formed(self):
        # the scaled matrix goes to LAPACK in Fortran order, without a copy:
        # same lower triangle, same bits, and W is left alone, also when W
        # is not exactly symmetric
        rng = np.random.default_rng(5)
        W = rng.standard_normal((60, 60))
        W += W.T
        W[np.triu_indices(60, 1)] *= 1 + 1e-9 * rng.standard_normal(60 * 59 // 2)
        b = rng.uniform(0.5, 2.0, 60)
        s = 1.0 / np.sqrt(b)
        want = eigh(W * s[:, None] * s[None, :], subset_by_index=[59, 59], eigvals_only=True)[0]
        before = W.copy()
        assert experiments._top_scaled_eigenvalue(W, b) == want
        assert np.array_equal(W, before)

    def test_samples_are_the_grid_nodes(self):
        # n = 64 builds 60 nodes: the reports count and describe those
        kato, tix = kato_check(n=64), tix_check(n=64)
        assert kato["samples"] == 60 and "n=60," in kato["trial_family"]
        assert tix["samples"] == 2 * 60 and tix["trial_family"].endswith("n=60")


class TestTix:
    def test_constant_value(self):
        assert TIX_CONSTANT == pytest.approx((np.pi / 2 + 2 / np.pi) / 2, rel=1e-15)
        assert TIX_CONSTANT == pytest.approx(1.103708, abs=1e-6)

    def test_window(self):
        rep = tix_check(n=300)
        assert rep["margin"] == rep["constant"] - rep["max_ratio"]
        assert 1.0 < rep["max_ratio"] <= TIX_CONSTANT * (1 + 1e-9)
        assert len(rep["ratios"]) == 2

    def test_implied_critical_charge(self):
        params = PhysParams()
        assert 123.5 < critical_charge(params, -1) < 124.5
        assert critical_charge(params, -1) == pytest.approx(2 * params.c / (np.pi / 2 + 2 / np.pi))


class TestCriticalCharge:
    @pytest.mark.parametrize("l", range(4))
    def test_symbol_at_zero_against_quadrature(self, l):
        # S_l(0) = (1/pi) Int Q_l(cosh x) dx over the real line, an even
        # integrand with a log singularity at 0 and decay e^{-(l+1)|x|}
        def q(x):
            return float(legendre_q_cosh([l], np.array([x]))[0][0])
        integral = quad(q, 0.0, 1.0, limit=200)[0] + quad(q, 1.0, 40.0, limit=200)[0]
        assert 2 * integral / np.pi == pytest.approx(channels.COULOMB_SYMBOL_AT_ZERO[l],
                                                     rel=1e-14)

    def test_sharp_constants_come_from_the_table(self):
        # bit for bit the closed forms pi/2 and (pi/2 + 2/pi)/2
        assert KATO_CONSTANT == np.pi / 2
        assert TIX_CONSTANT == (np.pi / 2 + 2 / np.pi) / 2

    @pytest.mark.parametrize("params", [PhysParams(), PhysParams(c=1.0, m=1.0, Z=0.5)])
    def test_unit_channels_keep_the_tix_charge(self, params):
        for kappa in (-1, 1):
            assert critical_charge(params, kappa) == params.c / TIX_CONSTANT

    def test_channel_values(self):
        # Z_c(kappa) at c = 137.036: 124.160, 266.265 and 405.647 for |kappa| = 1, 2, 3
        for kappa, z_c in ((1, 124.160), (2, 266.265), (3, 405.647)):
            for k in (kappa, -kappa):
                assert critical_charge(PhysParams(), k) == pytest.approx(
                    z_c, abs=5e-4)


# the gates ``critical-scan`` applies, in units of m c^2
STABILITY_TOL, COLLAPSE_DROP = 1e-4, 0.05


@pytest.fixture(scope="module")
def scan_rows():
    rows, _ = critical_coupling_scan([60.0, 120.0, 130.0], grid_sizes=(100, 200, 400))
    return {row["Z"]: row for row in rows}


class TestCriticalScan:
    def test_subcritical_rows_stable(self, scan_rows):
        mc2 = PhysParams().mc2
        for Z in (60.0, 120.0):
            row = scan_rows[Z]
            assert min(row["lambda1_fixed"]) > 0
            assert row["variation_fixed"] < STABILITY_TOL * mc2
            assert row["exhaustion_drop"] <= COLLAPSE_DROP * mc2

    def test_supercritical_row_collapses(self, scan_rows):
        row = scan_rows[130.0]
        assert row["exhaustion_drop"] > COLLAPSE_DROP * PhysParams().mc2
        assert np.all(np.diff(row["lambda1_exhaustion"]) < 0)

    def test_mid_charge_band(self, scan_rows):
        # cross-checked against the point-nucleus single-particle value
        # sqrt(1 - (Z/c)^2) ~ 0.901 as an order-of-magnitude band
        mc2 = PhysParams().mc2
        assert 0.89 < scan_rows[60.0]["lambda1_fixed"][-1] / mc2 < 0.95


class TestCriticalScanUnitCharge:
    @pytest.mark.filterwarnings("ignore:Z = 130.0 lies outside:UserWarning")
    def test_matches_per_charge_assembly(self):
        # the scan rescales one unit-charge assembly per grid; a fresh
        # assembly at each charge gives the same ground level
        base = PhysParams()
        mc, mc2 = base.m * base.c, base.mc2
        sizes = (64, 128)
        ch = ChannelSpec.from_kappa(-1)
        rows, _ = critical_coupling_scan([60.0, 120.0, 130.0], grid_sizes=sizes)
        for row in rows:
            pz = dataclasses.replace(base, Z=row["Z"])
            fixed = [build_log_grid(n, 1e-4 * mc, 2e3 * mc) for n in sizes]
            grow = [build_log_grid(n, 1e-3 * mc * sizes[0] / n, 5.0 * mc * n) for n in sizes]
            for grids, scanned in ((fixed, row["lambda1_fixed"]),
                                   (grow, row["lambda1_exhaustion"])):
                direct = [dense_spectrum(assemble_operator(g, ch, pz), 1).eigenvalues[0]
                          for g in grids]
                assert np.abs(np.array(scanned) - direct).max() <= 1e-12 * mc2

    def test_assembles_each_grid_once(self, monkeypatch):
        assembled = []
        real = experiments.assemble_potential

        def counting(grid, terms):
            assembled.append(grid.n)
            return real(grid, terms)

        monkeypatch.setattr(experiments, "assemble_potential", counting)
        sizes = (32, 48, 64)
        rows, _ = critical_coupling_scan([100, 110, 115, 120, 122, 124, 130, 140],
                                         grid_sizes=sizes)
        assert len(rows) == 8
        assert len(assembled) == 2 * len(sizes)

    def test_no_warning_below_unit_critical_charge(self):
        # at c = 1 the critical charge is 0.91: the scan assembles unit-charge
        # potentials and scales them, so no warning nobody asked for
        params = PhysParams(c=1.0, m=1.0, Z=0.5)
        sizes = (32, 48)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, _ = critical_coupling_scan([0.5, 2.0], grid_sizes=sizes, params=params)
            direct = [dense_spectrum(assemble_operator(
                build_log_grid(n, 1e-4, 2e3), ChannelSpec.from_kappa(-1), params), 1)
                .eigenvalues[0] for n in sizes]
        assert [r["Z"] for r in rows] == [0.5, 2.0]
        assert np.abs(np.array(rows[0]["lambda1_fixed"]) - direct).max() <= 1e-12 * params.mc2


def verdicts(rows, mc2=PhysParams().mc2):
    """Per charge: (stable and positive on the fixed window, collapsed under exhaustion)."""
    return {r["Z"]: (r["variation_fixed"] < STABILITY_TOL * mc2 and min(r["lambda1_fixed"]) > 0,
                     r["exhaustion_drop"] > COLLAPSE_DROP * mc2) for r in rows}


def direct_levels(Z, sizes, params=None, kappa=-1):
    """lambda_1 of a fresh assembly at charge Z on each scan grid, by dense eigh."""
    base = dataclasses.replace(params or PhysParams(), Z=Z)
    mc = base.m * base.c
    ch = ChannelSpec.from_kappa(kappa)
    grids = ([build_log_grid(n, 1e-4 * mc, 2e3 * mc) for n in sizes]
             + [build_log_grid(n, 1e-3 * mc * sizes[0] / n, 5.0 * mc * n) for n in sizes])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)        # supercritical charges
        return np.array([dense_spectrum(assemble_operator(g, ch, base), 1).eigenvalues[0]
                         for g in grids])


def scanned_levels(rows):
    return {row["Z"]: np.array(row["lambda1_fixed"] + row["lambda1_exhaustion"])
            for row in rows}


class TestCriticalScanWarmStart:
    """Every charge after the first comes from inverse iteration warm-started
    at the previous charge's ground state, whatever the order of the charges;
    only the coarsest grid of each family calls eigh."""

    SIZES = (100, 200, 400)
    CHARGES = [100.0, 110.0, 115.0, 120.0, 122.0, 124.0, 130.0, 140.0]

    @pytest.fixture(scope="class")
    def ascending(self):
        return critical_coupling_scan(self.CHARGES, grid_sizes=self.SIZES)

    def test_counts(self, ascending):
        _, eigen = ascending
        grids = 2 * len(self.SIZES)
        assert eigen["eigh_calls"] == 2
        # one certified factorization per inverse-iteration level, plus the
        # rejected shifts
        warm = grids * len(self.CHARGES) - 2
        assert eigen["factorizations"] - eigen["rejected_shifts"] >= warm
        assert 1 <= eigen["max_solves_per_level"] <= 30
        assert eigen["solves"] <= 10 * warm

    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_order_of_charges(self, ascending, order):
        charges = (sorted(self.CHARGES, reverse=True) if order == "descending"
                   else random.Random(5).sample(self.CHARGES, len(self.CHARGES)))
        assert charges != self.CHARGES
        rows, _ = critical_coupling_scan(charges, grid_sizes=self.SIZES)
        mc2 = PhysParams().mc2
        want, got = scanned_levels(ascending[0]), scanned_levels(rows)
        for Z in self.CHARGES:
            assert np.abs(got[Z] - want[Z]).max() <= 1e-12 * mc2
        assert verdicts(rows) == verdicts(ascending[0])

    def test_jump_rejects_shifts(self):
        # from Z = 100 the Rayleigh quotient at Z = 140 lies far above lambda_1
        # (up to 14 mc^2 on the exhaustion grids), so the first shifts fail
        rows, eigen = critical_coupling_scan([100.0, 140.0], grid_sizes=self.SIZES)
        assert eigen["rejected_shifts"] >= 1
        mc2 = PhysParams().mc2
        for Z, levels in scanned_levels(rows).items():
            assert np.abs(levels - direct_levels(Z, self.SIZES)).max() <= 1e-12 * mc2
        assert rows[1]["exhaustion_drop"] > COLLAPSE_DROP * mc2

    def test_repeated_charge(self, monkeypatch):
        # the start vector is the ground state already: on each of the four
        # grids one certified factorization and at most two solves confirm it
        calls = []                  # (V, solves, rejected shifts) per level

        def recording(V, scale, kinetic, x, gap, guess, buf, counts):
            before = dict(counts)
            out = ground_level(V, scale, kinetic, x, gap, guess, buf, counts)
            calls.append((V, counts["solves"] - before["solves"],
                          counts["rejected_shifts"] - before["rejected_shifts"]))
            return out

        ground_level = experiments._ground_level
        _, once = critical_coupling_scan([120.0], grid_sizes=(32, 48))
        monkeypatch.setattr(experiments, "_ground_level", recording)
        rows, eigen = critical_coupling_scan([120.0, 120.0], grid_sizes=(32, 48))
        first, again = (np.array(r["lambda1_fixed"] + r["lambda1_exhaustion"]) for r in rows)
        assert np.abs(again - first).max() <= 1e-12 * PhysParams().mc2
        assert eigen["factorizations"] - once["factorizations"] == 4
        # a grid's calls are consecutive, and its last one is the second charge
        second = [c for c, nxt in zip(calls, calls[1:] + [(None,)]) if nxt[0] is not c[0]]
        assert len(second) == 4
        for _, solves, rejected in second:
            assert solves <= 2 and rejected == 0

    def test_supercritical_at_unit_c(self):
        # at c = 1 the critical charge is 0.91: Z = 2 is far above it, and
        # its levels dive on the exhaustion grids
        params = PhysParams(c=1.0, m=1.0, Z=0.5)
        sizes = (32, 48)
        rows, _ = critical_coupling_scan([0.5, 2.0], grid_sizes=sizes, params=params)
        drop = COLLAPSE_DROP * params.mc2
        assert rows[0]["exhaustion_drop"] <= drop < rows[1]["exhaustion_drop"]
        for Z, levels in scanned_levels(rows).items():
            direct = direct_levels(Z, sizes, params)
            assert np.abs(levels - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    def test_capped_iteration_raises(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_STEPS", 2)
        with pytest.raises(NumericalError, match="did not reach"):
            critical_coupling_scan([120.0, 130.0], grid_sizes=(32, 48))


class TestCriticalScanGridMajor:
    """The scan works grid by grid, coarse to fine: a finer grid's first charge
    starts from the coarser grid's ground vector, and only each family's
    coarsest grid calls eigh.  Every level matches a dense eigh of a fresh
    assembly."""

    @pytest.mark.parametrize("charges, sizes, kappa", [
        ([130.0, 140.0], (100, 200, 400), -1),      # supercritical from the start
        ([140.0], (100, 200, 400), -1),
        ([200.0, 120.0], (100, 200, 400), -1),      # descending, far above Z_c first
        ([60.0, 120.0], (100, 200), 1),
        ([60.0, 120.0], (100, 200), -2),
        ([60.0, 120.0], (100, 200), 3),
        ([120.0, 130.0], (16, 400, 1600), -1),
        ([120.0, 130.0], (16, 17), -1),             # both round up to n = 20
        ([0.0, 50.0], (100, 200, 400), -1),
    ])
    def test_levels_match_dense(self, charges, sizes, kappa):
        rows, eigen = critical_coupling_scan(charges, grid_sizes=sizes, kappa=kappa)
        assert eigen["eigh_calls"] == 2
        assert [r["Z"] for r in rows] == charges
        mc2 = PhysParams().mc2
        for Z, levels in scanned_levels(rows).items():
            direct = direct_levels(Z, sizes, kappa=kappa)
            assert np.abs(levels - direct).max() <= 1e-12 * mc2

    def test_one_potential_in_memory(self):
        # the benchmark scan holds one reused buffer and one potential at a
        # time, n_max^2 doubles each; the tracemalloc peak stays below three
        sizes = (100, 200, 400)
        charges = TestCriticalScanWarmStart.CHARGES
        critical_coupling_scan(charges, grid_sizes=sizes)   # the shared rule tables
        tracemalloc.start()
        try:
            _, eigen = critical_coupling_scan(charges, grid_sizes=sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eigen["eigh_calls"] == 2
        assert peak < 3 * max(sizes) ** 2 * 8

    def test_no_charges(self):
        rows, eigen = critical_coupling_scan([], grid_sizes=(32, 48))
        assert rows == [] and eigen["eigh_calls"] == 0


@pytest.fixture(scope="module")
def decay_report():
    return commutator_decay()


def dense_commutator(R, grid, channel, params):
    """X - G^T X G with the channel rotation G as a dense 2n x 2n matrix,
    and the multiplier blocks X whose size sets its rounding."""
    p, n = grid.nodes, grid.n
    P, Q = np.meshgrid(p, p, indexing="ij")
    X = np.zeros((2 * n, 2 * n))
    for block, l in ((slice(0, n), channel.l_up), (slice(n, 2 * n), channel.l_down)):
        X[block, block] = multiplier_channel_kernel(l, R, P, Q) * grid.l2_weights[None, :]
    ap, am = a_plus_minus(p, params)
    G = np.block([[np.diag(ap), np.diag(-am)], [np.diag(am), np.diag(ap)]])
    return X - G.T @ X @ G, X


class TestCommutatorMatrix:
    @pytest.mark.parametrize("kappa", [-1, 1, -2, 2])
    @pytest.mark.parametrize("R", [0.5, 4.0, 64.0])
    def test_elementwise_matches_dense_rotation(self, kappa, R):
        grid = build_log_grid(80, 1e-4, 1e3)
        params = PhysParams()
        ch = ChannelSpec.from_kappa(kappa)
        oracle, X = dense_commutator(R, grid, ch, params)
        C = commutator_matrix(R, grid, ch, params)
        # the dense form cancels terms the size of X and rounds at that size:
        # at R = 64 the commutator's entries are ~1e-8 of X
        assert np.abs(C - oracle).max() <= 1e-15 * np.abs(X).max()

    @pytest.mark.parametrize("kappa", [-1, 1, -2, 2])
    def test_matches_mpmath_rotation(self, kappa):
        # X - G^T X G in 40 digits from the same X and exact mixing
        # coefficients: at R = 64 the commutator is 1e-8 of X, and writing it
        # as X minus its rotation in doubles errs by about that much of C
        R, params = 64.0, PhysParams()
        grid = build_log_grid(20, 1e-4, 1e3)
        ch = ChannelSpec.from_kappa(kappa)
        n, p = grid.n, grid.nodes
        P, Q = p[:, None], p[None, :]
        Xu, Xd = (multiplier_channel_kernel(l, R, P, Q)
                  * grid.l2_weights[None, :] for l in (ch.l_up, ch.l_down))
        with mpmath.workdps(40):
            mc2 = mpmath.mpf(params.m) * mpmath.mpf(params.c) ** 2
            lam = [mpmath.sqrt((mpmath.mpf(params.c) * mpmath.mpf(q)) ** 2 + mc2 ** 2)
                   for q in p]
            ap = [mpmath.sqrt((1 + mc2 / v) / 2) for v in lam]
            am = [mpmath.sqrt((1 - mc2 / v) / 2) for v in lam]
            oracle = np.empty((2 * n, 2 * n))
            for i in range(n):
                for j in range(n):
                    u, d = mpmath.mpf(Xu[i, j]), mpmath.mpf(Xd[i, j])
                    oracle[i, j] = u - ap[i] * u * ap[j] - am[i] * d * am[j]
                    oracle[i, n + j] = ap[i] * u * am[j] - am[i] * d * ap[j]
                    oracle[n + i, j] = am[i] * u * ap[j] - ap[i] * d * am[j]
                    oracle[n + i, n + j] = d - am[i] * u * am[j] - ap[i] * d * ap[j]
        C = commutator_matrix(R, grid, ch, params)
        assert np.abs(C - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_norms_match_dense_svd(self, decay_report):
        grid = build_log_grid(160, 1e-4, 1e3)
        d = np.sqrt(np.tile((1.0 + grid.nodes) * grid.l2_weights, 2))
        ch = ChannelSpec.from_kappa(-1)
        for R, norm in zip(decay_report["R_values"], decay_report["norms"]):
            C = dense_commutator(R, grid, ch, PhysParams())[0]
            oracle = np.linalg.norm(C * d[:, None] / d[None, :], 2)
            assert norm == pytest.approx(oracle, rel=1e-13)


class TestCommutatorDecay:
    def test_slope_window(self, decay_report):
        report = decay_report
        assert -1.15 <= report["fitted_slope"] <= -0.85
        assert np.isfinite(report["fitted_slope"]) and np.isfinite(report["fit_residual"])
        assert report["fit_residual"] < 0.1

    def test_norms_decrease(self, decay_report):
        report = decay_report
        assert all(a > b for a, b in zip(report["norms"], report["norms"][1:]))

    def test_doubling_halves_norm(self, decay_report):
        report = decay_report
        for a, b in zip(report["norms"], report["norms"][1:]):
            assert b / a == pytest.approx(0.5, abs=0.1)

    def test_r_values_validation(self):
        with pytest.raises(DomainError):
            commutator_decay(R_values=(0.0, 2.0))


@pytest.fixture(scope="module")
def scaling_report():
    return scaling_limit()


class TestScalingLimit:
    def test_leading_coefficient_matches_position_oracle(self, scaling_report):
        report = scaling_report
        oracle = report["oracle_coefficient"]
        rel = abs(report["leading_coefficient"] - oracle) / oracle
        assert rel < 0.02

    def test_gaussian_oracle_against_closed_form(self, scaling_report):
        report = scaling_report
        # Z <phi, r^-1 phi> for the normalized Gaussian is 2 Z / sqrt(pi)
        assert report["oracle_coefficient"] == pytest.approx(2 / np.sqrt(np.pi), rel=1e-4)

    @pytest.mark.parametrize("l", range(4), ids=lambda l: f"l={l}")
    def test_closed_form_oracle_against_bessel_transform(self, l):
        # Z (phi, |y|^-1 phi) / (phi, phi) by quadrature of the position-space
        # profile, the order-l transform of p^l e^{-p^2/2}; past r = 12 the
        # profile lies below 1e-30 and the oscillatory quadrature returns noise
        kappa = (-1, 1, 2, 3)[l]
        assert ChannelSpec.from_kappa(kappa).l_up == l
        params = PhysParams(Z=20.0)
        grid = build_grid(200, 1.0)
        r, w = grid.nodes, grid.weights
        fr = spherical_bessel_transform(l, r**l * np.exp(-r * r / 2), grid)[r < 12.0]
        r, w = r[r < 12.0], w[r < 12.0]
        oracle = params.Z * np.dot(w * r, fr**2) / np.dot(w * r * r, fr**2)
        rep = scaling_limit(kappa=kappa, params=params)
        assert rep["oracle_coefficient"] == pytest.approx(oracle, rel=1e-14)

    def test_remainder_exponent(self, scaling_report):
        report = scaling_report
        assert report["remainder_exponent"] >= 1.7

    def test_forms_negative_and_monotone(self, scaling_report):
        report = scaling_report
        assert all(v < 0 for v in report["form_values"])
        assert report["monotone_divergence"]

    def test_eta_validation(self):
        with pytest.raises(DomainError):
            scaling_limit(eta_values=(0.9, 0.4))
