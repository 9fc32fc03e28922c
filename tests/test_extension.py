import numpy as np
import pytest

from brspec import PhysParams, extension
from brspec.cli import parse_config, run_command
from brspec.dirac import lambda_of
from brspec.errors import DomainError
from brspec.extension import (build_x_grid, default_x_grid, dtn_certificate,
                              dtn_finite_difference, mode_energies)
from brspec.grids import build_grid, build_log_grid
from oracles import (field_arrays, materialized_energy, materialized_mode_energies,
                     random_boundary)

P11 = PhysParams(c=1.0, m=1.0, Z=0.0)
GRIDS = {"rational": build_grid(200, 1.0), "log": build_log_grid(200, 1e-4, 2e3)}
# rounding of the materialized sums, next to the certificate's extremes
ROUNDING = 1e-15
GRID, XG = GRIDS["rational"], default_x_grid(P11)
LAM = lambda_of(GRID.nodes, P11)
ZERO = np.zeros(GRID.n)


def _pair(f, g):
    """L^2 pairing Sum w conj(f) g on the rational grid, real part."""
    return float(np.real(np.conj(f) * g) @ GRID.l2_weights)


def _multiplier_energy(u):
    """x-quadrature energy of the multiplier extension u exp(-lambda x), per mode."""
    a, _, _ = mode_energies(LAM, LAM**2, XG, ())
    return np.abs(u) ** 2 * a


def _competitor_energy(u, b, sigma):
    """Total energy of u exp(-lambda x) + b e_sigma(x): the per-mode form, summed."""
    a, c, d = mode_energies(LAM, LAM**2, XG, [sigma])
    return _pair(u, u * a) + 2 * _pair(u, b * c[0]) + _pair(b, b * d[0])


class TestXGrid:
    def test_default_extent(self):
        # the weights integrate 1 over [0, x_max], x_max = 40 / (m c^2)
        assert default_x_grid(P11).weights.sum() == pytest.approx(40.0, rel=1e-12)
        assert default_x_grid(PhysParams()).weights.sum() == pytest.approx(
            40.0 / PhysParams().mc2, rel=1e-12)

    def test_starts_at_zero_with_zero_weight(self):
        g = default_x_grid(P11)
        assert g.nodes[0] == 0.0 and g.weights[0] == 0.0
        assert np.all(np.diff(g.nodes) > 0)

    def test_quadrature_of_boundary_layer(self):
        g = build_x_grid(40.0, n_nodes=400)
        for lam in (1.0, 10.0, 1e4):
            val = np.dot(g.weights, np.exp(-2 * lam * g.nodes))
            assert val == pytest.approx(1 / (2 * lam), rel=1e-12)

    def test_invalid_extent(self):
        with pytest.raises(DomainError):
            build_x_grid(-1.0)

    def test_graded_to_the_fastest_mode(self):
        # up to lambda x_max = 1e10 the grid is the plain one; past it the
        # innermost panel ends at 1 / lambda, at five panels per decade
        assert np.array_equal(build_x_grid(40.0, rate_max=2.5e8).nodes, build_x_grid(40.0).nodes)
        lam = 2.5e14
        g = build_x_grid(40.0, rate_max=lam)
        assert g.nodes.size == 1 + 8 * 80 and g.nodes[8] < 1.0 / lam < g.nodes[9]
        for rate in (1.0, 1e4, 1e10, lam):
            val = np.dot(g.weights, np.exp(-2 * rate * g.nodes))
            assert val == pytest.approx(1 / (2 * rate), rel=1e-12)

    @pytest.mark.parametrize("x_max, n_nodes", [(40.0, 400), (1e-3, 16), (2.1, 1000)])
    def test_panels_carry_the_plain_gauss_rule(self, x_max, n_nodes):
        # the 8-point Gauss-Legendre rule mapped onto each graded panel, one
        # panel at a time, bit for bit
        g = build_x_grid(x_max, n_nodes)
        n_panels = max(2, n_nodes // 8)
        edges = np.concatenate([[0.0], x_max * np.geomspace(1e-10, 1.0, n_panels)])
        t, wt = np.polynomial.legendre.leggauss(8)
        assert g.nodes.size == 1 + 8 * n_panels
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            panel = slice(1 + 8 * k, 9 + 8 * k)
            np.testing.assert_array_equal(g.nodes[panel], 0.5 * (b - a) * t + 0.5 * (a + b))
            np.testing.assert_array_equal(g.weights[panel], 0.5 * (b - a) * wt)


class TestExtend:
    """The multiplier extension u exp(-lambda x), materialized by the oracle."""

    def test_boundary_slice(self):
        u = random_boundary(GRID, np.random.default_rng(0))
        values, _ = field_arrays(u, LAM, ZERO, P11.mc2, XG.nodes)
        np.testing.assert_array_equal(values[0], u)

    def test_single_mode_decay(self):
        # one mode's x-quadrature energy is lambda |u|^2, by both sums
        vals = np.zeros(GRID.n, dtype=complex)
        vals[37] = 2.0 - 1.0j
        exact = LAM[37] * abs(vals[37]) ** 2
        assert _multiplier_energy(vals)[37] == pytest.approx(exact, rel=1e-12)
        field = materialized_energy(vals, LAM, ZERO, P11.mc2, LAM**2, XG)
        assert field[37] == pytest.approx(exact, rel=1e-12)
        assert np.all(np.delete(field, 37) == 0.0)

    def test_modulus_nonincreasing_per_mode(self):
        u = random_boundary(GRID, np.random.default_rng(1))
        mods = np.abs(field_arrays(u, LAM, ZERO, P11.mc2, XG.nodes)[0])
        assert np.all(np.diff(mods, axis=0) <= 1e-300 + mods[:-1] * 1e-15)


class TestModeEnergies:
    @pytest.mark.parametrize("k2", [0.0, 1.0, 1e8, "rate^2"])
    def test_closed_forms(self, k2):
        # on [0, inf): A = (tau^2 + k2) / (2 tau), and with e = e sigma x exp(-sigma x),
        # C = e sigma (k2 - tau^2) / (sigma + tau)^2, D = e^2 (sigma^2 + k2) / (4 sigma)
        taus = np.geomspace(0.5, 1e6, 40)
        k2 = taus**2 if k2 == "rate^2" else k2
        s = np.array([0.5, 1.0, 2.0])[:, None]
        a, c, d = mode_energies(taus, k2, default_x_grid(P11), s[:, 0])
        np.testing.assert_allclose(a, (taus**2 + k2) / (2 * taus), rtol=1e-12)
        np.testing.assert_allclose(d, np.e**2 * (s**2 + k2) / (4 * s), rtol=1e-12)
        exact = np.e * s * (k2 - taus**2) / (s + taus) ** 2
        assert np.all(np.abs(c - exact) <= 1e-12 * np.sqrt(a * d))


class TestDtN:
    def test_low_momentum_identity(self):
        # with m c^2 = 1 the Dirichlet-to-Neumann multiplier is 1 at p -> 0
        sel = GRID.nodes < 1e-3
        assert sel.any()
        np.testing.assert_allclose(dtn_finite_difference(LAM[sel]), 1.0, rtol=1e-6)

    def test_energy_pairing(self):
        # (u, T u) in L^2 equals the extension energy of the minimizer
        u = random_boundary(GRID, np.random.default_rng(3))
        pairing = _pair(u, LAM * u)
        energy = materialized_energy(u, LAM, ZERO, P11.mc2, LAM**2, XG) @ GRID.l2_weights
        assert pairing == pytest.approx(energy, rel=1e-12)

    @pytest.mark.parametrize("kind", GRIDS)
    def test_richardson_matches_multiplier(self, kind):
        lam = lambda_of(GRIDS[kind].nodes, P11)
        for scale in (1.0, 1e-6, 1e8):
            err = np.abs(dtn_finite_difference(scale * lam) / (scale * lam) - 1.0)
            assert err.max() < 1e-8


class TestDirichletEnergy:
    """The momentum route Sum w lambda |u|^2 against the x-quadrature A |u|^2."""

    def test_two_routes_gaussian(self):
        u = np.exp(-GRID.nodes**2 / 2).astype(complex)
        e_mom = _pair(u, LAM * u)
        assert abs(e_mom - _multiplier_energy(u) @ GRID.l2_weights) / e_mom < 1e-8

    def test_two_routes_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = random_boundary(GRID, rng)
            e_mom = _pair(u, LAM * u)
            assert abs(e_mom - _multiplier_energy(u) @ GRID.l2_weights) / e_mom < 1e-7

    def test_quadratic_scaling(self):
        u = random_boundary(GRID, np.random.default_rng(6))
        one = materialized_energy(u, LAM, ZERO, P11.mc2, LAM**2, XG) @ GRID.l2_weights
        two = materialized_energy(2 * u, LAM, ZERO, P11.mc2, LAM**2, XG) @ GRID.l2_weights
        assert two == pytest.approx(4 * one, rel=1e-15)


class TestMinimality:
    """A competitor u exp(-lambda x) + t b e_sigma(x) keeps the trace and costs more."""

    def test_best_amplitude_within_certificate(self):
        # over t the energy e0 + 2 t X + t^2 Y is least at t = -X / Y, where it
        # saves X^2 / Y; by Cauchy-Schwarz per mode that is at most
        # max C^2 / (A D) of e0, the certificate's minimality value
        cert, _ = dtn_certificate(GRID.nodes, XG, P11)
        rng = np.random.default_rng(8)
        for sigma in P11.mc2 * np.array([0.5, 1.0, 2.0]):
            a, c, d = mode_energies(LAM, LAM**2, XG, [sigma])
            u, b = random_boundary(GRID, rng), random_boundary(GRID, rng)
            e0 = _pair(u, u * a)
            cross, self_ = _pair(u, b * c[0]), _pair(b, b * d[0])
            assert abs(cross / self_) < 1e-12 * np.sqrt(e0 / self_)
            assert cross**2 / self_ <= cert["minimality_violation_max"] * e0 * (1 + 1e-12)

    def test_competitors_cost_more(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u, b = random_boundary(GRID, rng), random_boundary(GRID, rng)
            sigma = P11.mc2 * rng.uniform(0.5, 2.0)
            e0 = float(_multiplier_energy(u) @ GRID.l2_weights)
            e1 = _competitor_energy(u, rng.uniform(0.02, 0.5) * b, sigma)
            assert e1 >= e0 * (1 - 1e-10)

    def test_energy_quadratic_in_amplitude(self):
        # the cross term vanishes, so the extra energy is t^2 times one number
        rng = np.random.default_rng(10)
        u, b = random_boundary(GRID, rng), random_boundary(GRID, rng)
        e0, e1, e2 = (_competitor_energy(u, t * b, P11.mc2) for t in (0.0, 0.25, 0.5))
        assert (e2 - e0) / (e1 - e0) == pytest.approx(4.0, rel=1e-8)

    def test_competitor_keeps_the_trace(self):
        # the envelope vanishes at x = 0, so the competitor's x = 0 slice is u
        rng = np.random.default_rng(11)
        u, b = random_boundary(GRID, rng), random_boundary(GRID, rng)
        values, _ = field_arrays(u, LAM, b, P11.mc2, XG.nodes)
        np.testing.assert_array_equal(values[0], u)


class TestTraceInequality:
    """Sum w A |u|^2 >= m c^2 Sum w |u|^2 for exp(-tau x), k^2 = m^2 c^4."""

    @staticmethod
    def _margin(u, rates):
        a, _, _ = mode_energies(rates, P11.mc2**2, XG, ())
        scale = _pair(u, u * a)
        return scale - P11.mc2 * _pair(u, u), scale

    def test_equality_case(self):
        u = random_boundary(GRID, np.random.default_rng(12))
        margin, scale = self._margin(u, np.full(GRID.n, P11.mc2))
        assert abs(margin) < 1e-10 * scale

    def test_double_rate_margin(self):
        # decay rate 2 m c^2 per mode: positive part (4+1)/(2*2) m c^2 per
        # unit of trace mass, so the margin is exactly a fifth of the scale
        u = random_boundary(GRID, np.random.default_rng(13))
        margin, scale = self._margin(u, np.full(GRID.n, 2 * P11.mc2))
        assert margin / scale == pytest.approx(0.2, rel=1e-10)

    def test_certificate_margins_closed_form(self):
        # 1 - m c^2 / A = (tau - m c^2)^2 / (tau^2 + m^2 c^4) on the trace rates,
        # least, and zero, at tau = m c^2
        params = PhysParams(c=3.0, m=2.0, Z=0.0)
        cert, _ = dtn_certificate(GRID.nodes, default_x_grid(params), params)
        t = extension.TRACE_RATES
        assert cert["trace_margin_min"] == pytest.approx(0.0, abs=1e-14)
        assert abs(cert["trace_equality_margin"]) < 1e-14
        a, _, _ = mode_energies(params.mc2 * t, params.mc2**2, default_x_grid(params), ())
        np.testing.assert_allclose(1 - params.mc2 / a, (t - 1) ** 2 / (t**2 + 1), atol=1e-14)

    def test_randomized_extensions_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = random_boundary(GRID, rng)
            margin, scale = self._margin(u, P11.mc2 * rng.uniform(0.5, 4.0, size=GRID.n))
            assert margin >= -1e-10 * scale


class TestPerModeQuadrature:
    """The per-mode integrals equal the quadrature of the materialized field."""

    @pytest.mark.parametrize("kind", GRIDS)
    def test_matches_materialized_field(self, kind):
        # the multiplier extension, an exponential field with random rates, a
        # zero-trace part alone, and a decay plus a scaled zero-trace part
        grid, rng = GRIDS[kind], np.random.default_rng(18)
        lam = lambda_of(grid.nodes, P11)
        u, v, b = (random_boundary(grid, rng) for _ in range(3))
        rates = P11.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
        sigma = P11.mc2 * rng.uniform(0.5, 2.0)
        zero = np.zeros(grid.n)
        fields = {"extend": (u, lam, zero), "exponential": (v, rates, zero),
                  "zero-trace part": (zero, lam, b),
                  "decay + scaled zero-trace part": (u, lam, -0.7j * b)}
        for name, (trace, decay, part) in fields.items():
            for k2 in (lam**2, P11.mc2**2):
                a, c, d = mode_energies(decay, k2, XG, [sigma])
                form = (np.abs(trace) ** 2 * a + 2 * np.real(np.conj(trace) * part) * c[0]
                        + np.abs(part) ** 2 * d[0]) @ grid.l2_weights
                field = materialized_energy(trace, decay, part, sigma, k2, XG) @ grid.l2_weights
                assert form == pytest.approx(field, rel=1e-13), name

    @pytest.mark.parametrize("overrides", [[], ["grid.kind=log"], ["params.c=1", "params.m=1"]],
                             ids=["default", "log", "unit"])
    def test_dtn_check_payload(self, overrides, monkeypatch):
        config = parse_config(overrides=overrides)
        fast = run_command("dtn-check", config)
        monkeypatch.setattr(extension, "mode_energies", materialized_mode_energies)
        reference = run_command("dtn-check", config)
        assert fast.results.keys() == reference.results.keys()
        for key, value in reference.results.items():
            assert abs(fast.results[key] - value) <= 1e-14, key
        assert [c["ok"] for c in fast.checks] == [c["ok"] for c in reference.checks]
        tails = [r.diagnostics["x_quadrature"]["tail_ratio_max"] for r in (fast, reference)]
        assert tails[0] == pytest.approx(tails[1], rel=1e-10)


class TestCertificate:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", GRIDS)
    def test_bounds_the_sampled_fields(self, kind, seed):
        """The traces and competitors dtn-check used to sample: each field's
        materialized energy is |u|^2 A + 2 Re(conj(u) b) C + |b|^2 D per mode,
        and its error or violation stays within the certificate's extreme."""
        grid, xg, rng = GRIDS[kind], default_x_grid(P11), np.random.default_rng(seed)
        cert, _ = dtn_certificate(grid.nodes, xg, P11)
        lam = lambda_of(grid.nodes, P11)
        k2 = P11.c**2 * grid.nodes**2 + P11.mc2**2
        zero = np.zeros(grid.n)

        def energy(u, rates, b, sigma, k2):
            a, c, d = mode_energies(rates, k2, xg, [sigma])
            form = np.abs(u) ** 2 * a + 2 * np.real(np.conj(u) * b) * c[0] + np.abs(b) ** 2 * d[0]
            field = materialized_energy(u, rates, b, sigma, k2, xg)
            # per mode; the floor takes the modes where |u|^2 A is subnormal
            scale = np.abs(u) ** 2 * a + np.abs(b) ** 2 * d[0]
            assert np.all(np.abs(field - form) <= 1e-13 * scale + 1e-300)
            return float(field @ grid.l2_weights)

        def trace_margin(u, field_energy):
            return 1.0 - P11.mc2 * float(np.abs(u) ** 2 @ grid.l2_weights) / field_energy

        for _ in range(5):
            u, b = random_boundary(grid, rng), random_boundary(grid, rng)
            sigma = P11.mc2 * rng.uniform(0.5, 2.0)
            amplitude = rng.uniform(0.02, 0.5)
            # the multiplier extension: two energy routes and the Richardson DtN
            e0 = energy(u, lam, zero, sigma, k2)
            closed = float(lam * np.abs(u) ** 2 @ grid.l2_weights)
            assert abs(e0 / closed - 1.0) <= cert["energy_relative_error_max"] + ROUNDING
            fd = dtn_finite_difference(lam) * u
            floor = 1e-30 * np.abs(lam * u).max()
            dtn = np.abs(fd - lam * u) / np.maximum(np.abs(lam * u), floor)
            assert dtn.max() <= cert["dtn_richardson_error_max"] + ROUNDING
            # a competitor with the same trace
            e1 = energy(u, lam, amplitude * b, sigma, k2)
            assert (e0 - e1) / e0 <= cert["minimality_violation_max"] + ROUNDING
            # the trace inequality, for random decay rates, with and without a
            # zero-trace part; and its equality case
            rates = P11.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
            for part in (zero, amplitude * b):
                margin = trace_margin(u, energy(u, rates, part, sigma, P11.mc2**2))
                assert margin >= cert["trace_margin_min"] - ROUNDING
            equal = trace_margin(u, energy(u, np.full(grid.n, P11.mc2), zero, sigma,
                                           P11.mc2**2))
            assert abs(equal) <= abs(cert["trace_equality_margin"]) + ROUNDING

    @pytest.mark.parametrize("overrides", [
        ["params.c=1", "params.m=1e-3", "grid.n=16"],
        ["params.c=1", "params.m=1e-3", "grid.n=200"],
        ["params.c=1", "params.m=1", "grid.n=200"],
        ["params.c=137.036", "params.m=1e-3", "grid.n=200"]])
    def test_passes_at_range_corners(self, overrides):
        # grid.s = 1e6 stretches the rational grid until lambda(p_max) x_max
        # passes 1e10, where a grid graded to 1e-10 x_max missed the boundary
        # layer exp(-2 lambda x) of the fastest modes
        report = run_command("dtn-check", parse_config(overrides=["grid.s=1e6"] + overrides))
        assert report.ok, [c for c in report.checks if not c["ok"]]

    def test_tail_flag(self):
        # an x-grid cut far too early leaves tails well above 1e-12 of the energy
        nodes = GRIDS["rational"].nodes
        assert dtn_certificate(nodes, default_x_grid(P11), P11)[1] <= 1e-12
        assert dtn_certificate(nodes, build_x_grid(0.05, n_nodes=64), P11)[1] > 1e-3

    def test_payload_is_the_same_for_any_seed(self):
        base = run_command("dtn-check", parse_config())
        assert base.ok, [c for c in base.checks if not c["ok"]]
        for seed in (0, 1, 7):
            assert run_command("dtn-check", parse_config(overrides=[f"seed={seed}"])).results \
                == base.results

    def test_planted_cross_term_fails_minimality(self, monkeypatch):
        # a cross term of 1e-4 sqrt(A D) lets a competitor undercut the
        # multiplier extension by 1e-8 of its energy
        real = extension.mode_energies

        def planted(rates, k2, x_grid, sigmas):
            a, c, d = real(rates, k2, x_grid, sigmas)
            return a, c + 1e-4 * np.sqrt(a * d), d

        monkeypatch.setattr(extension, "mode_energies", planted)
        report = run_command("dtn-check", parse_config())
        failed = [c for c in report.checks if not c["ok"]]
        assert [c["name"] for c in failed] == ["minimality"] and not report.ok
        assert failed[0]["value"] == pytest.approx(1e-8, rel=1e-6)
