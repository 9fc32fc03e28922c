import numpy as np
import pytest

from brspec import PhysParams
from brspec.assemble import assemble_operator
from brspec.channels import ChannelSpec
from brspec.cli import parse_config, run_command
from brspec.errors import DomainError
from brspec.grids import build_grid
from brspec.spectra import (binding_curve, dense_spectrum, minimize_pk,
                            neumann_residual, nonrel_spectrum,
                            variational_spectrum)

CH = ChannelSpec.from_kappa(-1)


@pytest.fixture(scope="module")
def op_relativistic():
    # strongly mixed regime: c = m = 1, subcritical charge
    return assemble_operator(build_grid(160, 0.5), CH, PhysParams(c=1.0, m=1.0, Z=0.5))


@pytest.fixture(scope="module")
def op_atomic():
    return assemble_operator(build_grid(200, 1.0), CH, PhysParams(Z=1.0))


class TestDenseSpectrum:
    def test_free_case(self):
        params = PhysParams(Z=0.0)
        g = build_grid(48, 1.0)
        res = dense_spectrum(assemble_operator(g, CH, params), 3)
        assert res.eigenvalues[0] == pytest.approx(
            np.sqrt(params.c**2 * g.nodes[0] ** 2 + params.mc2**2), rel=1e-14)
        assert not res.bound_flags().any()

    def test_hydrogenic_bindings(self, op_atomic):
        res = dense_spectrum(op_atomic, 3)
        b = res.binding_energies()
        assert abs(b[0] - 0.5) < 1e-3
        assert abs(b[1] - 0.125) < 5e-4
        assert abs(b[2] - 1.0 / 18.0) < 5e-4
        assert res.bound_flags().all()

    def test_ascending_and_orthonormal(self, op_relativistic):
        res = dense_spectrum(op_relativistic, 6)
        assert np.all(np.diff(res.eigenvalues) >= 0)
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.abs(gram - np.eye(6)).max() < 1e-10

    def test_dense_residuals_tiny(self, op_relativistic):
        res = dense_spectrum(op_relativistic, 4)
        assert res.residuals.max() < 1e-9

    def test_k_validation(self, op_relativistic):
        with pytest.raises(DomainError):
            dense_spectrum(op_relativistic, 0)


class TestMinimizePk:
    def test_free_case_reaches_lowest_node(self):
        params = PhysParams(c=1.0, m=1.0, Z=0.0)
        op = assemble_operator(build_grid(24, 1.0), CH, params)
        E, f, trace = minimize_pk(op, 1)
        assert E == pytest.approx(op.kinetic_diagonal.min(), rel=1e-12)
        assert np.argmax(np.abs(f)) == 0
        assert trace.converged

    def test_matches_dense_ground_state(self, op_atomic):
        dense = dense_spectrum(op_atomic, 1)
        E, f, _ = minimize_pk(op_atomic, 1)
        assert abs(E - dense.eigenvalues[0]) < 1e-8 * op_atomic.params.mc2

    def test_deflated_level_is_orthogonal(self, op_relativistic):
        E1, f1, _ = minimize_pk(op_relativistic, 1)
        E2, f2, _ = minimize_pk(op_relativistic, 2, prior=f1[:, None])
        assert abs(np.dot(f1, f2)) < 1e-10
        assert E2 > E1

    def test_monotone_energy_trace(self, op_relativistic):
        _, _, trace = minimize_pk(op_relativistic, 1)
        assert np.all(np.diff(trace.iterates) <= 0)
        assert len(trace.gradient_norms) >= 1

    def test_bad_prior_rejected(self, op_relativistic):
        skew = np.ones((op_relativistic.n, 2))
        with pytest.raises(DomainError):
            minimize_pk(op_relativistic, 2, prior=skew)

    def test_iteration_exhaustion_carries_trace(self, op_relativistic):
        from brspec.errors import NumericalError
        from brspec.spectra import MinimizationTrace
        with pytest.raises(NumericalError) as err:
            minimize_pk(op_relativistic, 1, max_iter=2)
        assert isinstance(err.value.payload, MinimizationTrace)
        assert not err.value.payload.converged


class TestPreconditionedConvergence:
    @pytest.mark.parametrize("n", [200, 400])
    def test_tens_of_iterations_per_level(self, n):
        # the shifted metric keeps the count flat in n; the unshifted one
        # needed thousands of iterations per level, growing with n
        op = assemble_operator(build_grid(n, 1.0), CH, PhysParams(Z=1.0))
        prior = np.zeros((n, 0))
        for j in range(4):
            _, f, trace = minimize_pk(op, j + 1, prior=prior, max_iter=100)
            assert trace.exit_reason == "residual"
            assert len(trace.gradient_norms) <= 100
            prior = np.column_stack([prior, f])

    @pytest.mark.parametrize("Z, kind", [(40, "rational"), (80, "rational"),
                                         (1, "log"), (40, "log"), (80, "log"),
                                         (120, "log")])
    def test_spectrum_variational_checks_pass(self, Z, kind):
        # passes the gated checks on a budget of 100 iterations per level
        report = run_command("spectrum", parse_config(
            overrides=[f"params.Z={Z}", f"grid.kind={kind}", "solver.route=both",
                       "solver.max_iter=100"]))
        verdicts = {c["name"]: c["ok"] for c in report.checks}
        assert verdicts["variational_residuals_small"]
        assert verdicts["route_equivalence"]


class TestRouteEquivalence:
    def test_five_levels(self, op_relativistic):
        dense = dense_spectrum(op_relativistic, 5)
        var = variational_spectrum(op_relativistic, 5)
        mc2 = op_relativistic.params.mc2
        assert np.abs(dense.eigenvalues - var.eigenvalues).max() < 1e-8 * mc2
        gram = var.eigenvectors.T @ var.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10
        assert var.residuals.max() < 1e-7


class TestNeumannResidual:
    def test_dense_pair(self, op_relativistic):
        res = dense_spectrum(op_relativistic, 2)
        assert neumann_residual(res, op_relativistic, 0) < 1e-9

    def test_variational_pair(self, op_relativistic):
        res = variational_spectrum(op_relativistic, 2, tol=1e-8)
        assert neumann_residual(res, op_relativistic, 1) < 1e-7

    def test_perturbed_vector_scales_linearly(self, op_relativistic):
        # first-order oracle: residual of v + eps e equals eps ||(A - lam) e||
        res = dense_spectrum(op_relativistic, 1)
        v = res.eigenvectors[:, 0]
        lam = res.eigenvalues[0]
        rng = np.random.default_rng(0)
        e = rng.standard_normal(op_relativistic.n)
        e -= v * (v @ e)
        e /= np.linalg.norm(e)
        eps = 1e-3
        vp = v + eps * e
        r = op_relativistic.matrix @ vp - lam * vp
        expect = eps * np.linalg.norm(op_relativistic.matrix @ e - lam * e)
        assert np.linalg.norm(r) == pytest.approx(expect, rel=1e-4)

    def test_index_bounds(self, op_relativistic):
        res = dense_spectrum(op_relativistic, 2)
        with pytest.raises(DomainError):
            neumann_residual(res, op_relativistic, 5)


class TestNonrelSpectrum:
    def test_hydrogen_s_levels(self):
        vals = nonrel_spectrum(build_grid(300, 1.0), 1.0, 0, 3)
        exact = [-0.5, -0.125, -1.0 / 18.0]
        np.testing.assert_allclose(vals, exact, atol=1e-5)

    def test_helium_like_ground(self):
        vals = nonrel_spectrum(build_grid(300, 2.0), 2.0, 0, 1)
        assert abs(vals[0] + 2.0) < 4e-5

    def test_p_wave_ground(self):
        vals = nonrel_spectrum(build_grid(300, 1.0), 1.0, 1, 1)
        assert abs(vals[0] + 0.125) < 1e-5

    def test_charge_validation(self):
        with pytest.raises(DomainError):
            nonrel_spectrum(build_grid(64, 1.0), 0.0, 0, 1)


class TestBindingCurve:
    def test_small_sweep(self):
        rows = binding_curve([1.0, 2.0, 5.0], CH, 4, PhysParams(), n=120, workers=1)
        lam1 = [r.eigenvalues[0] for r in rows]
        assert lam1[0] > lam1[1] > lam1[2]
        mc2 = PhysParams().mc2
        for r in rows:
            assert np.all(r.eigenvalues > 0) and np.all(r.eigenvalues < mc2)
            assert np.all(np.diff(r.bindings) < 0)
            assert r.bound_flags.all()

    def test_rydberg_accumulation(self):
        rows = binding_curve([1.0], CH, 4, PhysParams(), n=200, workers=1)
        b = rows[0].bindings
        hydrogen = 0.5 / np.arange(1, 5) ** 2
        np.testing.assert_allclose(b, hydrogen, rtol=0.05)

    def test_positive_charges_required(self):
        with pytest.raises(DomainError):
            binding_curve([1.0, -2.0], CH, 2, PhysParams(), workers=1)

    def test_flattened_table_shape(self):
        # flat (Z, level) table carries |Z_values| * k rows
        Zs, k = [1.0, 2.0], 3
        rows = binding_curve(Zs, CH, k, PhysParams(), n=64, workers=1)
        flat = [(r.Z, j, r.eigenvalues[j]) for r in rows for j in range(k)]
        assert len(flat) == len(Zs) * k
