import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from brspec import PhysParams, assemble, channels, grids
from brspec.assemble import (assemble_nonrel_operator, assemble_operator, assemble_potential,
                             subtraction_integral_adaptive, subtraction_integrals,
                             subtraction_profile)
from brspec.channels import (TIX_CONSTANT, ChannelSpec, br_terms, coulomb_terms, kernel_at,
                             log_ratio)
from brspec.dirac import lambda_of
from brspec.errors import ConfigurationError, NumericalError
from brspec.grids import (RadialGrid, build_grid, build_log_grid, gauss_log, gauss_panels,
                          operator_norm_h12)
from brspec.params import SPEED_OF_LIGHT
from brspec.spectra import binding_grid

CH = ChannelSpec.from_kappa(-1)


class TestRationalGrid:
    def test_exponential_integral(self):
        g = build_grid(100, 1.0)
        assert g.weights @ np.exp(-g.nodes) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_moment(self):
        g = build_grid(100, 1.0)
        val = g.weights @ (g.nodes**2 * np.exp(-g.nodes**2))
        assert val == pytest.approx(np.sqrt(np.pi) / 4, abs=1e-10)

    def test_node_monotonicity_and_positivity(self):
        g = build_grid(64, 2.5)
        assert np.all(g.nodes > 0)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(8, 1.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(64, 0.0)

    def test_gauss_rule_computed_once(self, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        grids.gauss_legendre.cache_clear()
        try:
            a, b = build_grid(200, 1.0), build_grid(200, 3.0)
            t, w = grids.gauss_legendre(200)
        finally:
            grids.gauss_legendre.cache_clear()
        assert calls == [200]
        assert not t.flags.writeable and not w.flags.writeable
        ref_t, ref_w = leggauss(200)
        assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
        assert np.array_equal(a.nodes, 1.0 * (1 + ref_t) / (1 - ref_t))


class TestLogGrid:
    def test_quadrature(self):
        g = build_log_grid(200, 1e-6, 50.0)
        exact = np.exp(-1e-6) - np.exp(-50.0)
        assert g.weights @ np.exp(-g.nodes) == pytest.approx(exact, abs=1e-12)

    def test_domain_recorded(self):
        g = build_log_grid(100, 1e-3, 10.0)
        assert g.domain == (1e-3, 10.0)
        assert g.nodes[0] > 1e-3 and g.nodes[-1] < 10.0

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            build_log_grid(100, 1.0, 0.5)


def _h12_diagonal(grid):
    return (1.0 + grid.nodes) * grid.l2_weights


class TestOperatorNormH12:
    def test_identity(self):
        assert operator_norm_h12(np.eye(32), build_grid(32, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        d = np.linspace(-3, 5, 32)
        assert operator_norm_h12(np.diag(d), build_grid(32, 1.0)) == pytest.approx(5.0, rel=1e-14)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(3)
        g = build_grid(48, 1.0)
        A = rng.standard_normal((48, 48))
        val = operator_norm_h12(A, g)
        d = np.sqrt(_h12_diagonal(g))
        B = A * d[:, None] / d[None, :]
        v = rng.standard_normal(48)
        for _ in range(4000):
            v = B.T @ (B @ v)
            v /= np.linalg.norm(v)
        oracle = np.linalg.norm(B @ v)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_stacked_channels(self):
        assert operator_norm_h12(np.eye(48), build_grid(24, 1.0)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("kind", ["nonsymmetric", "rank1", "stacked"])
    def test_against_full_svd(self, kind):
        # the top eigenvalue of the Gram matrix gives the largest singular value
        rng = np.random.default_rng(7)
        g = build_log_grid(60, 1e-4, 1e3)
        reps = 2 if kind == "stacked" else 1
        d = np.sqrt(np.tile(_h12_diagonal(g), reps))
        size = d.size
        A = (np.outer(rng.standard_normal(size), rng.standard_normal(size)) if kind == "rank1"
             else rng.standard_normal((size, size)) * np.exp(rng.uniform(-5, 5, size))[None, :])
        oracle = np.linalg.norm(A * d[:, None] / d[None, :], 2)
        assert operator_norm_h12(A, g) == pytest.approx(oracle, rel=1e-13)

    def test_zero_operator(self):
        assert operator_norm_h12(np.zeros((64, 64)), build_grid(32, 1.0)) == 0.0

    def test_gram_matrix_read_as_formed(self):
        # LAPACK gets the Gram matrix's F-ordered transpose in place of a
        # copy of it: the same matrix, so the same bits
        rng = np.random.default_rng(11)
        g = build_log_grid(60, 1e-4, 1e3)
        A = rng.standard_normal((60, 60))
        d = np.sqrt(_h12_diagonal(g))
        M = A * d[:, None] / d[None, :]
        top = eigh(M.T @ M, subset_by_index=[59, 59], eigvals_only=True)[0]
        assert operator_norm_h12(A, g) == np.sqrt(top)


class TestSubtractionIntegrals:
    @pytest.mark.parametrize("n", [8, 12])
    def test_gauss_log_exact_on_polynomials(self, n):
        # Int_0^1 t^j (-ln t) dt = 1/(j+1)^2
        t, w = gauss_log(n)
        j = np.arange(2 * n)
        exact = 1.0 / (j + 1.0) ** 2
        assert np.all(np.abs(w @ t[:, None] ** j - exact) <= 1e-15)
        assert np.all((t > 0) & (t < 1)) and np.all(w > 0)

    @pytest.mark.parametrize("terms, grid, rows", [
        # h = 1.54: S = 4 sub-panels a panel, K = 24.  The window holds the
        # mixing factors' transition at p = mc and, at fw_scale 0.025, at 40 mc
        *((terms, build_log_grid(60, 10.0, 1e5), [0, 3, 5, 54, 56, 59]) for terms in (
            *(br_terms(ChannelSpec.from_kappa(k), PhysParams(), fw)
              for k in (-1, 1, -2, 2, -3, 3) for fw in (0.025, 1.0)),
            *(coulomb_terms(l) for l in range(4)))),
        # h = 0.46: one sub-panel a panel, K = 20
        *((terms, build_log_grid(200, 10.0, 1e5), [0, 10, 20, 179, 189, 199]) for terms in (
            br_terms(CH, PhysParams()), br_terms(CH, PhysParams(), 0.025), coulomb_terms(3))),
    ])
    def test_clipped_product_panels_match_adaptive(self, terms, grid, rows):
        # the rows lie in the first three and last three sub-panels, so the
        # window's edge cuts or bounds their neighbourhood; rows 0 and n - 1
        # sit 0.013 h from it
        pan = grid.panels
        S = int(np.ceil(pan.width / 0.5))
        K = pan.count * S
        sub = np.floor((np.log(grid.nodes[rows]) - pan.log_lo) / (pan.width / S))
        assert list(sub) == [0, 1, 2, K - 3, K - 2, K - 1]
        vals = subtraction_integrals(terms, grid)
        for i in rows:
            ref = subtraction_integral_adaptive(terms, grid.nodes[i], grid.domain, tol=1e-13)
            assert vals[i] == pytest.approx(ref, rel=1e-12)

    def test_log_grid_orders_agree(self):
        # the two Gauss orders of the error estimate, far inside ORDER_TOL on
        # grids with S = 1, 2 and 4 sub-panels a panel
        for grid in (build_log_grid(200, 10.0, 1e5), build_log_grid(100, 10.0, 1e5),
                     build_log_grid(60, 10.0, 1e5)):
            for terms in (br_terms(CH, PhysParams()), coulomb_terms(3)):
                low, high = (assemble._log_grid_sums(terms, grid, o) for o in assemble._ORDERS)
                assert np.abs(high - low).max() <= 1e-13 * np.abs(high).max()

    @pytest.mark.parametrize("l, cut", enumerate([(-13, 40), (-10, 20), (-8, 13), (-7, 10)]))
    def test_tail_cut_drops_below_bound(self, l, cut):
        # Q_l(cosh x) rho(x) > 0 and every mixing factor is in [0, 1], so the
        # mass beyond the cut bounds what any row drops
        def f(x):                   # Q_l(cosh x) rho(x), without overflow at large |x|
            e = np.exp(-2 * abs(x))
            rho = 2 / (1 + e) if x > 0 else 2 * e / (1 + e)
            return channels.legendre_q_cosh((l,), np.array([x]))[0][0] * rho

        # the log-grid far table spans the cut, so the cut pins its extent
        lo, hi = assemble._tail_cut(l)
        assert (lo, hi) == cut
        mass = quad(f, lo, 0, limit=200)[0] + quad(f, 0, hi, limit=200)[0]
        # beyond |x| = 700 the integrand is below e^-700
        dropped = (quad(f, -700, lo, epsabs=0, limit=200)[0]
                   + quad(f, hi, 700, epsabs=0, limit=200)[0])
        assert 0 < dropped <= 1e-17 * mass
        # the row-centred rule keeps exactly the panels that reach into the
        # cut, a contiguous run covering it
        kept = assemble._kept_panels(l)
        assert np.array_equal(kept, (assemble._PANEL_HI > lo) & (assemble._PANEL_LO < hi))
        assert assemble._PANEL_LO[kept].min() <= lo and assemble._PANEL_HI[kept].max() >= hi
        assert np.all(np.isin(assemble._PANEL_LO[kept][1:], assemble._PANEL_HI[kept]))

    def test_mixing_points_per_row(self):
        # an unclipped kappa = -1 row evaluates the mixing factors at every
        # node of the l = 0 cut [-13, 40]: 2 unit and 5 widening panels to
        # the left (out to -14.04), 2 unit and 14 widening panels to the
        # right (out to 41.04), and 2 product panels of two node sets, over
        # both orders: 27 * (8 + 12) = 540 (1,100 with unit panels out to
        # the cut, 2,964 with the geometric panels toward the singularity)
        params = PhysParams(Z=1.0)
        base = br_terms(CH, params)
        seen = []

        def counting(p):
            if np.ndim(p) == 2:                 # the nodes p e^x of a row block
                seen.append(np.size(p))
            return base.mixing(p)

        grid = build_grid(100, 1.0)
        subtraction_integrals(replace(base, mixing=counting), grid)
        assert sum(seen) / grid.n == 540

    def test_mixing_points_per_log_grid_row(self):
        # per Gauss order o, the K o nodes of the far sub-panels are shared
        # by all rows, and each row evaluates its own p and 2 o product nodes
        # on either side; over both orders (20 nodes) with S = 4 and m = 10,
        # K = 24: (24 * 20 + 60 * (2 + 4 * 20)) / 60 = 90 a row
        base = br_terms(CH, PhysParams(Z=1.0))
        seen = []

        def counting(p):
            seen.append(np.size(p))
            return base.mixing(p)

        grid = build_log_grid(60, 10.0, 1e5)
        subtraction_integrals(replace(base, mixing=counting), grid)
        assert sum(seen) / grid.n <= 100

    @pytest.mark.parametrize("rule, grid", [("_centred_rule_sums", build_grid(40, 1.0)),
                                            ("_log_grid_sums", build_log_grid(40, 1e-2, 1e2))])
    def test_disagreeing_orders_raise(self, rule, grid, monkeypatch):
        # one row whose two Gauss orders disagree beyond ORDER_TOL ends the
        # assembly, quoting both estimates; no other quadrature takes over
        real = getattr(assemble, rule)

        def skewed(terms, where, order):
            out = real(terms, where, order)
            if order == assemble._ORDERS[0]:
                out[7] *= 1 + 10 * assemble.ORDER_TOL
            return out

        monkeypatch.setattr(assemble, rule, skewed)
        terms = br_terms(CH, PhysParams(Z=1.0))
        with pytest.raises(NumericalError) as err:
            subtraction_integrals(terms, grid)
        where = grid if rule == "_log_grid_sums" else grid.nodes
        low, high = (-1.0 / np.pi * grid.nodes[7] * f(terms, where, order)[7]
                     for f, order in zip((skewed, real), assemble._ORDERS))
        message = str(err.value)
        assert f"on 1 of 40 rows; row 7 (p = {grid.nodes[7]:.6g}): " in message
        assert f"{low!r} and {high!r}" in message and f"{assemble.ORDER_TOL:g}" in message

    @pytest.mark.parametrize("kappa", [-1, 1, -2, 3])
    @pytest.mark.parametrize("fw_scale", [1.0, 0.025])
    def test_panel_rule_matches_adaptive(self, kappa, fw_scale):
        # the mixing factors turn over near q = mc / fw_scale, which the rows
        # tested meet at x = ln(q/p) from 1.1 to 12.8 at fw_scale 1 and from
        # 4.8 to 16.4 at fw_scale 0.025: on the widening panels
        params = PhysParams(Z=1.0)
        g = build_grid(60, 1.0)
        kern = br_terms(ChannelSpec.from_kappa(kappa), params, fw_scale)
        vals = subtraction_integrals(kern, g)
        for i in range(0, 60, 9):
            ref = subtraction_integral_adaptive(kern, g.nodes[i], g.domain, tol=1e-13)
            assert vals[i] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n", [16, 200])
    def test_centred_rule_orders_agree_at_config_corners(self, n):
        # every corner of the configuration ranges on the rational grid: no
        # row raises, and the two Gauss orders stay far inside ORDER_TOL
        # (the widest gap here is 0.022 of it; unit panels out to the cut
        # read 0.0019)
        worst = 0.0
        for s, c, m, Z in itertools.product((None, 1e-6, 1e6), (1.0, SPEED_OF_LIGHT, 1e6),
                                            (1e-3, 1.0, 1e3), (1.0, 120.0, 1000.0)):
            grid = build_grid(n, Z if s is None else s)
            params = PhysParams(c=c, m=m, Z=Z)
            for kappa in (-1, 1, -3, 3):
                terms = br_terms(ChannelSpec.from_kappa(kappa), params)
                subtraction_integrals(terms, grid)
                low, high = (grid.nodes * assemble._centred_rule_sums(terms, grid.nodes, o)
                             for o in assemble._ORDERS)
                scale = np.maximum(np.abs(high), 1e-3 * np.abs(high).max())
                worst = max(worst, (np.abs(high - low) / scale).max())
        assert worst <= 0.05 * assemble.ORDER_TOL

    def test_finite_domain(self):
        params = PhysParams(Z=2.0)
        g = build_log_grid(60, 1e-2, 1e2)
        kern = br_terms(CH, params)
        vals = subtraction_integrals(kern, g)
        for i in (0, 17, 44, 59):
            ref = subtraction_integral_adaptive(kern, g.nodes[i], g.domain, tol=1e-13)
            assert vals[i] == pytest.approx(ref, rel=1e-10)

    def test_mixing_free_case_against_scaled_form(self):
        # with the mixing switched off the unit-charge subtraction integral
        # collapses to a momentum-scaled universal integral of Q_0; both sides
        # come from independent adaptive quadratures
        from brspec.channels import legendre_q_cosh
        kern = coulomb_terms(0)
        q0 = lambda u: float(legendre_q_cosh((0,), np.log(u))[0])     # Q_0((u + 1/u)/2)
        universal = quad(lambda u: q0(u) * u / (1 + u * u), 0, 1, points=[1.0], limit=200)[0] \
            + quad(lambda u: q0(u) * u / (1 + u * u), 1, np.inf, limit=200)[0]
        for p in (0.2, 1.0, 7.5):
            direct = subtraction_integral_adaptive(kern, p, (0.0, np.inf), tol=1e-12)
            assert direct == pytest.approx(-2 * p / np.pi * universal, rel=1e-9)


def _plain_q_l_series(l, u):
    """Reference far-field series: all 30 terms, generated and summed in ascending order."""
    c = (1.0, 1.0 / 3.0, 2.0 / 15.0, 2.0 / 35.0)[l]
    acc = np.full_like(u, c)
    term = np.full_like(u, c)
    u2 = u * u
    for k in range(30):
        term = term * u2 * ((l + 2 * k + 1) * (l + 2 * k + 2)) \
            / ((2 * k + 2) * (2 * l + 2 * k + 3))
        acc += term
    return acc * u ** (l + 1)


class TestKernelEvaluation:
    @pytest.mark.parametrize("grid, evaluations", [
        # l = 0 and 1 at the fill's P m^2 - m = 990 panel offsets, and in the
        # subtraction rule over both Gauss orders (8 + 12 nodes): h = 1.68
        # gives S = 4 sub-panels of g = 0.42, K = 40, and the far table holds
        # m * 20 values per offset 2 <= |d| < K inside the tail cut, 68 for
        # l = 0 (d = -31..39) and 61 for l = 1 (d = -24..39); the
        # neighbourhood has 13 segment lengths a side (10 whole, 3 cut by
        # the window) of 2 * 20 product nodes:
        # 2 * 990 + (68 + 61) * 10 * 20 + 2 * 26 * 40 = 29,860 (9,540 with
        # the row-centred rule clipped at the window, which evaluated Q_l per
        # row; the pairwise fill took 366,612)
        (build_log_grid(100, 1e-4, 2e3), 29860),
        # l = 0 and 1 at the 4,950 node pairs; the domain (0, inf) clips no
        # panel (the pairwise fill took 602,900)
        (build_grid(100, 1.0), 9900),
    ])
    def test_q_evaluations_per_assembly(self, grid, evaluations, monkeypatch):
        params = PhysParams(Z=1.0)
        # the first assembly also tabulates the shared panel rule, once per process
        assemble_potential(grid, br_terms(CH, params))
        seen = []
        evaluator = channels._q_l_split

        def counting(ls, z, log_term):
            seen.append(np.size(z) * len(ls))
            return evaluator(ls, z, log_term)

        monkeypatch.setattr(channels, "_q_l_split", counting)
        assemble_potential(grid, br_terms(CH, params))
        assert sum(seen) == evaluations

    @pytest.mark.parametrize("grid", [build_log_grid(200, 4e-3, 8e4), build_grid(100, 40.0)])
    def test_matrix_matches_plain_series(self, grid, monkeypatch):
        params = PhysParams(Z=40.0)
        new = assemble_operator(grid, CH, params).matrix
        monkeypatch.setattr(channels, "_q_l_series", _plain_q_l_series)
        monkeypatch.setattr(channels, "_SERIES_TIERS", (2.0, np.inf))
        # the shared panel-rule tables are cached per process: rebuild them
        # from the plain series, and drop those before the next test
        assemble._rule_table.cache_clear()
        try:
            old = assemble_operator(grid, CH, params).matrix
        finally:
            assemble._rule_table.cache_clear()
        off = ~np.eye(grid.n, dtype=bool)
        assert np.all(np.abs(new - old)[off] <= 2e-15 * np.abs(old[off]))
        # a diagonal entry is the subtraction integral minus the row's
        # collocation sum, hundreds of times smaller than its terms; its
        # rounding is relative to the terms
        sq = np.sqrt(grid.l2_weights)
        terms = np.where(off, np.abs(old), 0.0) * subtraction_profile(
            grid.nodes[:, None], grid.nodes[None, :]) * sq[None, :] / sq[:, None]
        scale = np.abs(np.diag(old)) + 2 * terms.sum(axis=1)
        assert np.all(np.abs(np.diag(new - old)) <= 2e-15 * scale)


class TestToeplitzFill:
    """The log grid's block-Toeplitz fill against the pointwise fill on the same nodes
    (and the same subtraction integrals, which need the grid's panels)."""

    @pytest.mark.parametrize("terms, Z, window", [
        (br_terms(CH, PhysParams()), 40.0, (4e-3, 8e4)),
        (br_terms(ChannelSpec.from_kappa(2), PhysParams(), fw_scale=0.3), 80.0, (1e-2, 5e4)),
        (coulomb_terms(1), 3.0, (1e-4, 1e3)),
    ])
    def test_matches_pointwise_fill(self, terms, Z, window, monkeypatch):
        grid = build_log_grid(400, *window)
        toeplitz = assemble_potential(grid, terms)
        monkeypatch.setattr(assemble, "_toeplitz_strips",
                            lambda panels, ls: assemble._pointwise_strips(grid.nodes, ls))
        pointwise = assemble_potential(grid, terms)
        off = ~np.eye(grid.n, dtype=bool)
        assert np.all(np.abs(toeplitz - pointwise)[off] <= 1e-12 * np.abs(pointwise[off]))
        assert np.array_equal(toeplitz, toeplitz.T)
        kin = lambda_of(grid.nodes, PhysParams())
        mc2 = PhysParams().mc2
        ev_t = np.linalg.eigvalsh(Z * toeplitz + np.diag(kin))[:4]
        ev_p = np.linalg.eigvalsh(Z * pointwise + np.diag(kin))[:4]
        assert np.abs(ev_t - ev_p).max() <= 1e-11 * mc2

    def test_nodes_must_follow_the_recorded_panels(self):
        grid = build_log_grid(100, 1e-3, 1e2)
        nodes = grid.nodes.copy()
        nodes[37] *= 1 + 1e-12
        with pytest.raises(ConfigurationError, match="log-panel"):
            RadialGrid(nodes, grid.weights, grid.mapping_scale, grid.panels)
        with pytest.raises(ConfigurationError, match="log-panel"):
            replace(grid, panels=replace(grid.panels, count=grid.panels.count - 1))
        with pytest.raises(ConfigurationError, match="log-panel"):
            replace(grid, panels=replace(grid.panels, width=grid.panels.width * (1 + 1e-9)))


class TestAssembly:
    def test_free_operator_is_diagonal(self):
        params = PhysParams(Z=0.0)
        g = build_grid(48, 1.0)
        op = assemble_operator(g, CH, params)
        kin = lambda_of(g.nodes, params)
        assert np.abs(op.matrix - np.diag(kin)).max() == 0.0
        assert np.linalg.eigvalsh(op.matrix)[0] >= params.mc2

    def test_symmetry(self):
        op = assemble_operator(build_grid(80, 1.0), CH, PhysParams(Z=1.0))
        m = op.matrix
        assert np.abs(m - m.T).max() < 1e-12 * np.abs(m).max()

    @pytest.mark.parametrize("Z", [1.0, 40.0])
    def test_charge_times_unit_potential_plus_kinetic(self, Z):
        # the charge enters once: the operator is Z V_1 + diag(lambda), bit for bit
        params = PhysParams(Z=Z)
        grid = build_grid(48, 1.0)
        expected = assemble_potential(grid, br_terms(CH, params))
        expected *= Z
        expected[np.diag_indices(grid.n)] += lambda_of(grid.nodes, params)
        np.testing.assert_array_equal(assemble_operator(grid, CH, params).matrix, expected)

    def test_free_spectrum_inside_essential_range(self):
        params = PhysParams(Z=0.0)
        g = build_grid(48, 1.0)
        op = assemble_operator(g, CH, params)
        ev = np.linalg.eigvalsh(op.matrix)
        assert ev[0] >= params.mc2
        assert ev[-1] <= lambda_of(g.nodes[-1], params)

    def test_potential_form_negative(self):
        params = PhysParams(Z=1.0)
        op = assemble_operator(build_grid(80, 1.0), CH, params)
        pot = op.matrix - np.diag(lambda_of(op.grid.nodes, params))
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = rng.standard_normal(op.n)
            assert f @ (pot @ f) <= 0

    def test_form_subordination_witness(self):
        # |(f, V f)| <= a (f, T f) with a = Z (pi/2 + 2/pi)/(2c) + margin
        params = PhysParams(Z=10.0)
        op = assemble_operator(build_grid(100, 1.0), CH, params)
        kin = lambda_of(op.grid.nodes, params)
        pot = op.matrix - np.diag(kin)
        a = params.Z * TIX_CONSTANT / params.c + 0.01
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = rng.standard_normal(op.n)
            assert abs(f @ (pot @ f)) <= a * (f @ (kin * f))

    def test_refinement_cauchy(self):
        params = PhysParams(Z=1.0)
        vals = []
        for n in (200, 400):
            op = assemble_operator(build_grid(n, 1.0), CH, params)
            vals.append(np.linalg.eigvalsh(op.matrix)[0])
        assert abs(vals[1] - vals[0]) < 1e-6 * params.mc2

    def test_out_of_window_charge_warns(self):
        params = PhysParams(Z=130.0)
        with pytest.warns(UserWarning):
            assemble_operator(build_log_grid(32, 1.0, 1e4), CH, params)

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            assemble_operator(build_grid(32, 1.0), CH, PhysParams(), scheme="spectral")


class TestGalerkin:
    @pytest.mark.parametrize("g", [build_grid(200, 1.0), binding_grid(1.0, PhysParams(Z=1.0), 200)],
                             ids=["rational", "log"])
    def test_matches_collocation_ground_level(self, g):
        params = PhysParams(Z=1.0)
        lam_nys = np.linalg.eigvalsh(assemble_operator(g, CH, params).matrix)[0]
        lam_gal = np.linalg.eigvalsh(
            assemble_operator(g, CH, params, scheme="galerkin").matrix)[0]
        assert abs(lam_gal - lam_nys) < 1e-5 * params.mc2

    def test_gap_to_collocation_at_z40(self):
        # Galerkin is Rayleigh-Ritz on the form domain, so its lambda_1 lies
        # above collocation's.  With the diagonal cells graded toward p = q
        # the gap reads 1.53e-6 and 1.35e-7 mc^2 at n = 200 and 400, a rate
        # of n^-3.5; a plain Gauss rule across p = q (1.5% error on the
        # logarithm per cell) left 3.6e-5 and 1.8e-5, first order
        params = PhysParams(Z=40.0)
        gaps = []
        for n in (200, 400):
            grid = binding_grid(params.Z, params, n)
            nys, gal = (eigh(assemble_operator(grid, CH, params, scheme=scheme).matrix,
                             subset_by_index=[0, 0], eigvals_only=True)[0]
                        for scheme in ("nystrom", "galerkin"))
            gaps.append((gal - nys) / params.mc2)
        assert 0 < gaps[0] < 3e-6 and 0 < gaps[1] < 3e-7
        assert np.log2(gaps[0] / gaps[1]) > 3.0

    def test_symmetry(self):
        op = assemble_operator(build_grid(64, 1.0), CH, PhysParams(Z=1.0),
                               scheme="galerkin")
        assert np.abs(op.matrix - op.matrix.T).max() < 1e-12 * np.abs(op.matrix).max()

    @staticmethod
    def dense_far_field(nodes, terms):
        """The far field as one dense product Hg^T K Hg over all quadrature points."""
        order = assemble._POTENTIAL_ORDER
        n = nodes.size
        x, w = gauss_panels(nodes[:-1], nodes[1:], order)
        xg = x.ravel()
        hl, hr = assemble._hat_pair(x, nodes[:-1, None], nodes[1:, None])
        Hg = np.zeros((xg.size, n))
        rows = np.repeat(np.arange(n - 1), order)
        Hg[np.arange(xg.size), rows] = hl.ravel()
        Hg[np.arange(xg.size), rows + 1] = hr.ravel()
        wg = (w * x * x).ravel()
        near = np.abs(rows[:, None] - rows[None, :]) <= 1
        ax = np.where(near, 1.0, log_ratio(xg[:, None], xg[None, :]))
        K = kernel_at(terms, xg[:, None], xg[None, :], ax)
        K[near] = 0.0
        return Hg.T @ (K * wg[:, None] * wg[None, :]) @ Hg

    @pytest.mark.parametrize("grid", [build_grid(64, 1.0), build_log_grid(64, 1e-3, 1e5)],
                             ids=["rational", "log"])
    def test_streamed_far_field_matches_dense_product(self, grid):
        # the far cells, walked a few element rows at a time and each pair
        # added with its mirror, against one product over all points
        terms = br_terms(CH, PhysParams(Z=40.0))
        oracle = self.dense_far_field(grid.nodes, terms)
        far = np.zeros_like(oracle)
        for e, f, d in assemble._cell_pairs(grid.n - 1):
            if d == 2:
                assemble._add_blocks(far, e, f, assemble._cell_blocks(grid.nodes, terms, e, f, d))
        assert np.abs(far - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_assembly_memory_stays_below_the_point_grid_square(self):
        # one (6 (n-1))^2 array of the quadrature points alone is 11 MB at
        # n = 200; the cell blocks keep the peak well below the dozen such
        # arrays a dense far field holds
        grid = build_grid(200, 1.0)
        tracemalloc.start()
        try:
            assemble_operator(grid, CH, PhysParams(Z=40.0), scheme="galerkin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_assembly_holds_few_matrices(self):
        # banded mass and kinetic matrices, cell blocks of a bounded number of
        # points and the pencil reduced on the assembled matrix: beside it
        # only the second banded solve's Fortran copy remains (2.03 matrices
        # in all; far-field row blocks of 2^16 points made 2.54)
        n = 800
        grid = build_log_grid(n, 4e-3, 8e4)
        tracemalloc.start()
        try:
            assemble_operator(grid, CH, PhysParams(Z=40.0), scheme="galerkin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * n * n * 8

    def test_each_cell_pair_evaluated_once(self, monkeypatch):
        # 36 far points per pair f >= e + 2, one Duffy cell per element and
        # one corner cell per adjacent pair; evaluating the far field in both
        # orders and over the near cells too costs 36 (n - 1)^2 far points
        n = 64
        points = []

        def counted(terms, p, q, x):
            points.append(np.broadcast(p, q, x).size)
            return kernel_at(terms, p, q, x)

        monkeypatch.setattr(assemble, "kernel_at", counted)
        assemble_operator(build_grid(n, 1.0), CH, PhysParams(Z=40.0), scheme="galerkin")
        far = 36 * (n - 2) * (n - 3) // 2
        assert sum(points) == far + (n - 1) * 4212 + (n - 2) * 2916


ASSEMBLERS = {
    "potential-rational": lambda: assemble_potential(build_grid(80, 1.0),
                                                     br_terms(CH, PhysParams())),
    "potential-log": lambda: assemble_potential(build_log_grid(80, 1e-6, 1e6),
                                                coulomb_terms(2)),
    "nystrom-rational": lambda: assemble_operator(build_grid(80, 1.0), CH,
                                                  PhysParams(Z=40.0)).matrix,
    "nystrom-log": lambda: assemble_operator(build_log_grid(80, 4e-3, 3e5),
                                             ChannelSpec.from_kappa(2), PhysParams(Z=80.0)).matrix,
    "galerkin-rational": lambda: assemble_operator(build_grid(48, 1.0), CH, PhysParams(Z=1.0),
                                                   scheme="galerkin").matrix,
    "galerkin-log": lambda: assemble_operator(build_log_grid(48, 4e-3, 3e5), CH,
                                              PhysParams(Z=40.0), scheme="galerkin").matrix,
    "nonrel": lambda: assemble_nonrel_operator(build_grid(80, 1.0), 1, PhysParams(Z=2.0)).matrix,
}


@pytest.mark.parametrize("name", sorted(ASSEMBLERS))
def test_assembled_matrix_exactly_symmetric(name):
    # the dense solvers hand a matrix's F-ordered transpose to LAPACK as the
    # matrix itself, which holds only when it is symmetric to the last bit
    M = ASSEMBLERS[name]()
    assert np.array_equal(M, M.T)


class TestNonrelAssembly:
    @pytest.mark.parametrize("Z", [1.0, 2.0])
    def test_kinetic_is_schroedinger(self, Z):
        # Z times the unit-charge Coulomb potential plus p^2/2m, bit for bit
        g = build_grid(48, 1.0)
        expected = assemble_potential(g, coulomb_terms(0))
        expected *= Z
        expected[np.diag_indices(g.n)] += g.nodes**2 / 2
        op = assemble_nonrel_operator(g, 0, PhysParams(Z=Z))
        np.testing.assert_array_equal(op.matrix, expected)

    def test_hydrogen_ground_state(self):
        params = PhysParams(Z=1.0)
        op = assemble_nonrel_operator(build_grid(200, 1.0), 0, params)
        assert np.linalg.eigvalsh(op.matrix)[0] == pytest.approx(-0.5, abs=5e-6)
