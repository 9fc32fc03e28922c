import numpy as np
import pytest

from brspec import PhysParams, extension
from brspec.cli import parse_config, run_command
from brspec.dirac import lambda_of
from brspec.errors import DomainError
from brspec.extension import (BoundaryFunction, ExtensionField, build_x_grid,
                              default_x_grid, dirichlet_energy, dtn_apply,
                              dtn_finite_difference, extend, exponential_field,
                              minimality_check, multiplier_profile, random_boundary,
                              trace_inequality_margin, zero_trace_bump)
from brspec.grids import build_grid, build_log_grid

P11 = PhysParams(c=1.0, m=1.0, Z=0.0)


@pytest.fixture(scope="module")
def grid():
    return build_grid(200, 1.0)


@pytest.fixture(scope="module")
def xg():
    return default_x_grid(P11)


class TestXGrid:
    def test_default_extent(self):
        assert default_x_grid(P11).x_max == pytest.approx(40.0)
        assert default_x_grid(PhysParams()).x_max == pytest.approx(40.0 / PhysParams().mc2)

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
    def test_boundary_slice(self, grid, xg):
        rng = np.random.default_rng(0)
        u = random_boundary(grid, rng)
        fld = extend(u, xg, P11)
        np.testing.assert_array_equal(fld.values[0], u.values)
        np.testing.assert_array_equal(fld.trace, u.values)

    def test_single_mode_decay(self, grid, xg):
        vals = np.zeros(grid.n, dtype=complex)
        vals[37] = 2.0 - 1.0j
        fld = extend(BoundaryFunction(grid, vals), xg, P11)
        lam = lambda_of(grid.nodes[37], P11)
        np.testing.assert_allclose(fld.values[:, 37],
                                   vals[37] * np.exp(-lam * xg.nodes), rtol=1e-14)

    def test_modulus_nonincreasing_per_mode(self, grid, xg):
        rng = np.random.default_rng(1)
        fld = extend(random_boundary(grid, rng), xg, P11)
        mods = np.abs(fld.values)
        assert np.all(np.diff(mods, axis=0) <= 1e-300 + mods[:-1] * 1e-15)


class TestDtN:
    def test_low_momentum_identity(self, grid):
        vals = np.where(grid.nodes < 1e-3, 1.0, 0.0).astype(complex)
        u = BoundaryFunction(grid, vals)
        out = dtn_apply(u, P11)
        sel = vals != 0
        np.testing.assert_allclose(out.values[sel], u.values[sel], rtol=1e-6)

    def test_linearity_exact(self, grid):
        rng = np.random.default_rng(2)
        u, w = random_boundary(grid, rng), random_boundary(grid, rng)
        a, b = 1.7, -0.3 + 2j
        lhs = dtn_apply(BoundaryFunction(grid, a * u.values + b * w.values), P11)
        rhs = a * dtn_apply(u, P11).values + b * dtn_apply(w, P11).values
        np.testing.assert_allclose(lhs.values, rhs, rtol=2e-15,
                                   atol=1e-14 * np.abs(rhs).max())

    def test_energy_pairing(self, grid, xg):
        # (u, T u) in L^2 equals the extension energy of the minimizer
        rng = np.random.default_rng(3)
        u = random_boundary(grid, rng)
        pairing = np.real(np.conj(u.values) * grid.l2_weights @ dtn_apply(u, P11).values)
        energy = dirichlet_energy(extend(u, xg, P11), "x_quadrature", P11).value
        assert pairing == pytest.approx(energy, rel=1e-12)

    def test_richardson_matches_multiplier(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = random_boundary(grid, rng)
            fd = dtn_finite_difference(u, P11)
            exact = dtn_apply(u, P11)
            floor = 1e-30 * np.abs(exact.values).max()
            err = np.abs(fd.values - exact.values) / np.maximum(np.abs(exact.values), floor)
            assert err.max() < 1e-8


class TestDirichletEnergy:
    def test_two_routes_gaussian(self, grid, xg):
        u = BoundaryFunction(grid, np.exp(-grid.nodes**2 / 2).astype(complex))
        e_mom = dirichlet_energy(u, "momentum", P11).value
        e_x = dirichlet_energy(extend(u, xg, P11), "x_quadrature", P11).value
        assert abs(e_mom - e_x) / e_mom < 1e-8

    def test_two_routes_random(self, grid, xg):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = random_boundary(grid, rng)
            e_mom = dirichlet_energy(u, "momentum", P11).value
            e_x = dirichlet_energy(extend(u, xg, P11), "x_quadrature", P11).value
            assert abs(e_mom - e_x) / e_mom < 1e-7

    def test_zero_boundary(self, grid, xg):
        u = BoundaryFunction(grid, np.zeros(grid.n, dtype=complex))
        assert dirichlet_energy(u, "momentum", P11).value == 0.0
        assert dirichlet_energy(extend(u, xg, P11), "x_quadrature", P11).value == 0.0

    def test_quadratic_scaling(self, grid):
        rng = np.random.default_rng(6)
        u = random_boundary(grid, rng)
        double = BoundaryFunction(grid, 2 * u.values)
        assert dirichlet_energy(double, "momentum", P11).value == pytest.approx(
            4 * dirichlet_energy(u, "momentum", P11).value, rel=1e-15)

    def test_route_validation(self, grid, xg):
        u = random_boundary(grid, np.random.default_rng(7))
        with pytest.raises(DomainError):
            dirichlet_energy(u, "position", P11)
        with pytest.raises(DomainError):
            dirichlet_energy(u, "x_quadrature", P11)

    def test_tail_flag(self, grid):
        # truncating far too early must trip the tail warning flag
        u = BoundaryFunction(grid, np.exp(-grid.nodes**2 / 2).astype(complex))
        short = build_x_grid(0.05, n_nodes=64)
        res = dirichlet_energy(extend(u, short, P11), "x_quadrature", P11)
        assert not res.tail_ok and res.tail_bound > 0


class TestMinimality:
    def test_zero_amplitude_equality(self, grid, xg):
        rng = np.random.default_rng(8)
        u = random_boundary(grid, rng)
        bump = zero_trace_bump(grid, xg, P11, random_boundary(grid, rng).values)
        e0, e1 = minimality_check(u, bump, 0.0, P11)
        assert e0.value == e1.value

    def test_competitors_cost_more(self, grid, xg):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = random_boundary(grid, rng)
            bump = zero_trace_bump(grid, xg, P11, random_boundary(grid, rng).values,
                                   rate=P11.mc2 * rng.uniform(0.5, 2.0))
            e0, e1 = minimality_check(u, bump, rng.uniform(0.02, 0.5), P11)
            assert e1.value >= e0.value * (1 - 1e-10)

    def test_energy_quadratic_in_amplitude(self, grid, xg):
        rng = np.random.default_rng(10)
        u = random_boundary(grid, rng)
        bump = zero_trace_bump(grid, xg, P11, random_boundary(grid, rng).values)
        e0, e1 = minimality_check(u, bump, 0.25, P11)
        _, e2 = minimality_check(u, bump, 0.5, P11)
        ratio = (e2.value - e0.value) / (e1.value - e0.value)
        assert ratio == pytest.approx(4.0, rel=1e-8)

    def test_nonzero_trace_rejected(self, grid, xg):
        rng = np.random.default_rng(11)
        u = random_boundary(grid, rng)
        bad = extend(u, xg, P11)
        with pytest.raises(DomainError):
            minimality_check(u, bad, 0.1, P11)


class TestTraceInequality:
    def test_equality_case(self, grid, xg):
        rng = np.random.default_rng(12)
        u = random_boundary(grid, rng)
        fld = exponential_field(u, np.full(grid.n, P11.mc2), xg)
        res = trace_inequality_margin(fld, P11)
        assert abs(res.margin) < 1e-10 * res.scale

    def test_double_rate_margin(self, grid, xg):
        # decay rate 2 m c^2 per mode: positive part (4+1)/(2*2) m c^2 per
        # unit of trace mass, so the margin is exactly a fifth of the scale
        rng = np.random.default_rng(13)
        u = random_boundary(grid, rng)
        fld = exponential_field(u, np.full(grid.n, 2 * P11.mc2), xg)
        res = trace_inequality_margin(fld, P11)
        assert res.margin / res.scale == pytest.approx(0.2, rel=1e-10)

    def test_zero_field(self, grid, xg):
        u = BoundaryFunction(grid, np.zeros(grid.n, dtype=complex))
        res = trace_inequality_margin(exponential_field(
            BoundaryFunction(grid, np.zeros(grid.n) + 0j),
            np.full(grid.n, P11.mc2), xg), P11)
        assert res.margin == 0.0 and res.scale == 0.0

    def test_randomized_extensions_nonnegative(self, grid, xg):
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = random_boundary(grid, rng)
            rates = P11.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
            res = trace_inequality_margin(exponential_field(u, rates, xg), P11)
            assert res.margin >= -1e-10 * res.scale

    def test_bad_rates_rejected(self, grid, xg):
        u = random_boundary(grid, np.random.default_rng(15))
        with pytest.raises(DomainError):
            exponential_field(u, np.zeros(grid.n), xg)


class TestFieldAlgebra:
    def test_scaling_and_addition(self, grid, xg):
        rng = np.random.default_rng(16)
        u = random_boundary(grid, rng)
        fld = extend(u, xg, P11)
        double = fld.scaled(2.0)
        (coef, profile), = double.terms
        np.testing.assert_array_equal(coef, 2 * u.values)
        assert profile is fld.terms[0][1]
        # (2c) g and 2 (c g) round alike except where c g is subnormal
        tiny = np.finfo(float).tiny
        for part in (np.real, np.imag):
            single, doubled = part(fld.values), part(double.values)
            normal = np.abs(single) >= tiny
            np.testing.assert_array_equal(doubled[normal], 2 * single[normal])
            assert np.all(np.abs(doubled[~normal]) <= 2 * tiny)
        s = fld + fld.scaled(-1.0)
        assert np.abs(s.values).max() == 0.0

    def test_boundary_mismatch_detected(self, grid, xg):
        ones = np.ones(grid.n, dtype=complex)
        u = BoundaryFunction(grid, np.zeros(grid.n, dtype=complex))
        with pytest.raises(DomainError):
            ExtensionField(u, xg, ((ones, multiplier_profile(grid, xg, P11)),))

    def test_terms_checked(self, grid, xg):
        u = random_boundary(grid, np.random.default_rng(17))
        mult = multiplier_profile(grid, xg, P11)
        with pytest.raises(DomainError):
            ExtensionField(u, xg, ((u.values[:-1], mult),))
        with pytest.raises(DomainError):
            ExtensionField(u, xg, ())
        other = build_x_grid(40.0, n_nodes=64)
        with pytest.raises(DomainError):
            ExtensionField(u, xg, ((u.values, multiplier_profile(grid, other, P11)),))
        with pytest.raises(DomainError):
            extend(u, other, P11, mult)
        with pytest.raises(DomainError):
            extend(u, xg, PhysParams(c=2.0, m=1.0, Z=0.0), mult)
        assert extend(u, xg, P11, mult).terms[0][1] is mult


def _materialized(field, k2):
    """The product-grid quadrature Sum_x w_x Sum_p W_p (|d_x phi|^2 + k2 |phi|^2)
    from the materialized (n_x, n_p) field arrays."""
    density = np.abs(field.x_derivative) ** 2 + k2 * np.abs(field.values) ** 2
    return float(field.x_grid.weights @ density @ field.boundary.grid.l2_weights)


def _fields(grid, xg, rng):
    u, v, b, d = (random_boundary(grid, rng) for _ in range(4))
    rates = P11.mc2 * rng.uniform(0.5, 4.0, size=grid.n)
    base = extend(u, xg, P11)
    bump, other = (zero_trace_bump(grid, xg, P11, f.values, rate=P11.mc2 * rng.uniform(0.5, 2.0))
                   for f in (b, d))
    return {"extend": base, "exponential": exponential_field(v, rates, xg), "bump": bump,
            "base + scaled bump": base + bump.scaled(0.3),
            "three terms": base + exponential_field(v, rates, xg) + bump.scaled(-0.7j),
            "two envelopes": base + bump + other.scaled(0.5)}


class TestPerModeQuadrature:
    """The per-mode profile integrals equal the quadrature of the materialized field."""

    @pytest.mark.parametrize("grid", [build_grid(200, 1.0), build_log_grid(200, 1e-4, 2e3)],
                             ids=["rational", "log"])
    def test_matches_materialized_field(self, grid, xg):
        lam2 = P11.c**2 * grid.nodes**2 + P11.mc2**2
        for name, fld in _fields(grid, xg, np.random.default_rng(18)).items():
            energy = dirichlet_energy(fld, "x_quadrature", P11).value
            assert energy == pytest.approx(_materialized(fld, lam2), rel=1e-13), name
            res = trace_inequality_margin(fld, P11)
            positive = _materialized(fld, P11.mc2**2)
            trace = P11.mc2 * np.dot(grid.l2_weights, np.abs(fld.values[0]) ** 2)
            assert res.scale == pytest.approx(positive, rel=1e-13), name
            assert abs(res.margin - (positive - trace)) <= 1e-13 * positive, name

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dtn_check_payload(self, seed, monkeypatch):
        config = parse_config(overrides=[f"seed={seed}"])
        fast = run_command("dtn-check", config).results
        monkeypatch.setattr(extension, "_product_quadrature", _materialized)
        reference = run_command("dtn-check", config).results
        assert fast.keys() == reference.keys()
        for key, value in reference.items():
            if isinstance(value, float):
                assert abs(fast[key] - value) <= 1e-14, key
            else:
                assert fast[key] == value, key
