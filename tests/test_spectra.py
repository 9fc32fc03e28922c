import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh

from brspec import PhysParams, spectra
from brspec.assemble import assemble_nonrel_operator, assemble_operator
from brspec.channels import ChannelSpec
from brspec.cli import parse_config, run_command
from brspec.dirac import lambda_of
from brspec.errors import DomainError
from brspec.grids import build_grid, build_log_grid
from brspec.spectra import binding_grid, dense_spectrum, minimize_pk, variational_spectrum

CH = ChannelSpec.from_kappa(-1)


@pytest.fixture(scope="module")
def op_relativistic():
    # strongly mixed regime: c = m = 1, subcritical charge
    return assemble_operator(build_grid(160, 0.5), CH, PhysParams(c=1.0, m=1.0, Z=0.5))


@pytest.fixture(scope="module")
def op_atomic():
    return assemble_operator(build_grid(200, 1.0), CH, PhysParams(Z=1.0))


IN_PLACE_OPERATORS = {
    "nystrom-rational": lambda: assemble_operator(build_grid(120, 1.0), CH, PhysParams(Z=40.0)),
    "nystrom-log": lambda: assemble_operator(build_log_grid(120, 4e-3, 3e5), CH,
                                             PhysParams(Z=40.0)),
    "galerkin": lambda: assemble_operator(build_grid(64, 1.0), CH, PhysParams(Z=1.0),
                                          scheme="galerkin"),
    "nonrel": lambda: assemble_nonrel_operator(build_grid(96, 1.0), 1, PhysParams(Z=2.0)),
}


class TestDenseInPlace:
    """dense_spectrum lets LAPACK overwrite op.matrix and restores it."""

    @pytest.mark.parametrize("name", sorted(IN_PLACE_OPERATORS))
    def test_matrix_restored_and_pairs_unchanged(self, name):
        # the vectors are eigh's on a copy, the levels their Rayleigh quotients
        op = IN_PLACE_OPERATORS[name]()
        before = op.matrix.copy()
        vecs = eigh(before.copy(), subset_by_index=[0, 3])[1]
        res = dense_spectrum(op, 4)
        assert np.array_equal(op.matrix, before)
        assert np.array_equal(res.eigenvectors, vecs)
        assert np.array_equal(res.eigenvalues, np.einsum("ij,ij->j", vecs, before @ vecs))

    def test_matrix_restored_when_the_solver_fails(self, monkeypatch):
        op = IN_PLACE_OPERATORS["nystrom-log"]()
        before = op.matrix.copy()

        def failing(a, **kwargs):          # scribbles on its triangle, as LAPACK may
            a[np.tril_indices(a.shape[0])] = np.nan
            raise LinAlgError("no convergence")

        monkeypatch.setattr(spectra, "eigh", failing)
        with pytest.raises(LinAlgError):
            dense_spectrum(op, 2)
        assert np.array_equal(op.matrix, before)

    def test_peak_memory_below_half_a_matrix(self):
        # the solver works on op.matrix itself, not on a copy of it
        op = assemble_operator(build_log_grid(400, 4e-3, 3e5), CH, PhysParams(Z=40.0))
        tracemalloc.start()
        try:
            dense_spectrum(op, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * op.matrix.nbytes


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

    def test_graded_window_level_to_1e_8(self):
        # Z = 80 on 40 nodes per decade from 1e-4 Z: with binding_grid's p_hi
        # raised 1e4 and 1e8 times, the ground level agrees to 2.6e-9 mc^2.  At
        # p_hi = 1.6e13 eigh's own eigenvalue errs by about eps max |A_ii| and
        # misses by 1.6e-6 mc^2; the Rayleigh quotient of its vector does not.
        params = PhysParams(Z=80.0)
        p_lo, p_hi = binding_grid(80.0, params).domain
        lam1 = [dense_spectrum(assemble_operator(build_log_grid(n, p_lo, wider * p_hi), CH,
                                                 params), 1).eigenvalues[0]
                for n, wider in ((450, 1e4), (610, 1e8))]
        assert abs(lam1[1] - lam1[0]) < 1e-8 * params.mc2


class TestMinimizePk:
    def test_free_case_reaches_lowest_node(self):
        params = PhysParams(c=1.0, m=1.0, Z=0.0)
        op = assemble_operator(build_grid(24, 1.0), CH, params)
        vals, X, trace = minimize_pk(op, 1)
        assert vals[0] == pytest.approx(lambda_of(op.grid.nodes, params).min(), rel=1e-12)
        assert np.argmax(np.abs(X[:, 0])) == 0
        assert trace.converged

    def test_matches_dense_ground_state(self, op_atomic):
        dense = dense_spectrum(op_atomic, 1)
        vals, _, _ = minimize_pk(op_atomic, 1)
        assert abs(vals[0] - dense.eigenvalues[0]) < 1e-8 * op_atomic.params.mc2

    def test_levels_orthonormal_and_ascending(self, op_relativistic):
        vals, X, _ = minimize_pk(op_relativistic, 5)
        assert np.abs(X.T @ X - np.eye(5)).max() < 1e-10
        assert np.all(np.diff(vals) > 0)

    def test_trace_records_iterations_and_levels(self, op_relativistic):
        _, _, trace = minimize_pk(op_relativistic, 3)
        assert len(trace.gradient_norms) >= 1
        assert len(trace.levels) == 3

    def test_one_record_per_level(self, op_atomic):
        tol = 1e-10
        _, _, trace = minimize_pk(op_atomic, 4, tol=tol)
        iterations = len(trace.gradient_norms)
        for rec in trace.levels:
            assert rec.exit_reason == "residual"
            assert rec.residual <= tol * op_atomic.params.mc2
            assert 0 <= rec.iterations <= iterations

    def test_k_validation(self, op_relativistic):
        for k, max_iter in ((0, 10), (op_relativistic.n + 1, 10), (2, 0)):
            with pytest.raises(DomainError):
                minimize_pk(op_relativistic, k, max_iter=max_iter)

    def test_whole_space_block(self):
        # k = n = 16: the block is the whole space, one Rayleigh-Ritz step
        params = PhysParams(Z=1.0)
        op = assemble_operator(build_grid(16, 1.0), CH, params)
        vals, X, trace = minimize_pk(op, 16)
        assert len(trace.gradient_norms) == 1
        assert np.abs(vals - np.linalg.eigvalsh(op.matrix)).max() < 1e-12 * params.mc2
        assert np.abs(X.T @ X - np.eye(16)).max() < 1e-12

    def test_iteration_exhaustion_carries_trace(self, op_relativistic):
        from brspec.errors import NumericalError
        from brspec.spectra import MinimizationTrace
        with pytest.raises(NumericalError) as err:
            minimize_pk(op_relativistic, 4, max_iter=2)
        trace = err.value.payload
        assert isinstance(trace, MinimizationTrace)
        assert not trace.converged
        assert len(trace.gradient_norms) == 2
        assert "max_iter" in [rec.exit_reason for rec in trace.levels]


class TestPreconditionedConvergence:
    @pytest.mark.parametrize("n", [200, 400, 800])
    def test_tens_of_iterations_per_level(self, n):
        # the shifted metric keeps the block iteration count flat in n; the
        # unshifted one needed thousands of iterations per level, growing with n
        op = assemble_operator(build_grid(n, 1.0), CH, PhysParams(Z=1.0))
        _, _, trace = minimize_pk(op, 4, max_iter=50)
        assert all(rec.exit_reason == "residual" for rec in trace.levels)
        assert len(trace.gradient_norms) <= 50

    def test_guard_columns_speed_the_highest_levels(self):
        # k = 40 at n = 400 takes 18 block iterations with the guard columns
        # and 37 without them: a level converges at a rate set by its gap to
        # the first level outside the block, which the guard columns widen
        op = assemble_operator(build_grid(400, 1.0), CH, PhysParams(Z=1.0))
        _, _, trace = minimize_pk(op, 40, max_iter=25)
        assert trace.converged

    @pytest.mark.parametrize("Z, kind", [(40, "rational"), (80, "rational"),
                                         (1, "log"), (40, "log"), (80, "log"),
                                         (120, "log")])
    def test_spectrum_variational_checks_pass(self, Z, kind):
        # passes the gated checks on a budget of 100 block iterations
        report = run_command("spectrum", parse_config(
            overrides=[f"params.Z={Z}", f"grid.kind={kind}", "solver.route=both",
                       "solver.max_iter=100"]))
        verdicts = {c["name"]: c["ok"] for c in report.checks}
        assert verdicts["variational_residuals_small"]
        assert verdicts["route_equivalence"]


class TestRouteEquivalence:
    @pytest.mark.parametrize("Z", [1, 40, 120])
    def test_default_spectrum_routes_agree_to_rounding(self, Z):
        # both routes report their vectors' Rayleigh quotients; eigh's own
        # eigenvalues missed the variational levels by up to 5.5e-13 mc^2
        report = run_command("spectrum", parse_config(overrides=[f"params.Z={Z}"]))
        gap = next(c for c in report.checks if c["name"] == "route_equivalence")["value"]
        assert gap <= 1e-13 * report.results["mc2"]

    def test_five_levels(self, op_relativistic):
        dense = dense_spectrum(op_relativistic, 5)
        var = variational_spectrum(op_relativistic, 5)
        mc2 = op_relativistic.params.mc2
        assert np.abs(dense.eigenvalues - var.eigenvalues).max() < 1e-8 * mc2
        gram = var.eigenvectors.T @ var.eigenvectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10
        assert var.residuals.max() < 1e-7

    def test_forty_levels_in_order(self):
        # up to the closely spaced levels below m c^2 (Z=1, the default grid),
        # the block finds every level, in order
        report = run_command("spectrum", parse_config(overrides=["solver.k=40"]))
        check = next(c for c in report.checks if c["name"] == "route_equivalence")
        assert check["ok"], check
        levels = report.diagnostics["variational"]["levels"]
        assert [rec["exit_reason"] for rec in levels] == ["residual"] * 40


class TestNeumannResidual:
    def test_dense_pair(self, op_relativistic):
        res = dense_spectrum(op_relativistic, 2)
        assert res.residuals[0] < 1e-9

    def test_variational_pair(self, op_relativistic):
        res = variational_spectrum(op_relativistic, 2, tol=1e-8)
        assert res.residuals[1] < 1e-7

    def test_residuals_are_column_norms(self, op_relativistic):
        # one product with A gives theta_j = v_j^T A v_j and ||A v_j - theta_j v_j||
        # for every column
        A = op_relativistic.matrix
        rng = np.random.default_rng(1)
        vecs = np.linalg.qr(rng.standard_normal((op_relativistic.n, 4)))[0]
        thetas = [v @ A @ v for v in vecs.T]
        each = [np.linalg.norm(A @ v - theta * v) for theta, v in zip(thetas, vecs.T)]
        res = spectra._ritz(op_relativistic, vecs)
        np.testing.assert_allclose(res.eigenvalues, thetas, rtol=1e-12)
        np.testing.assert_allclose(res.residuals, each, rtol=1e-12)

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


class TestNonrelSpectrum:
    def test_hydrogen_s_levels(self):
        op = assemble_nonrel_operator(build_grid(300, 1.0), 0, PhysParams(Z=1.0))
        vals = dense_spectrum(op, 3).eigenvalues
        exact = [-0.5, -0.125, -1.0 / 18.0]
        np.testing.assert_allclose(vals, exact, atol=1e-5)

    def test_helium_like_ground(self):
        op = assemble_nonrel_operator(build_grid(300, 2.0), 0, PhysParams(Z=2.0))
        vals = dense_spectrum(op, 1).eigenvalues
        assert abs(vals[0] + 2.0) < 4e-5

    def test_p_wave_ground(self):
        op = assemble_nonrel_operator(build_grid(300, 1.0), 1, PhysParams(Z=1.0))
        vals = dense_spectrum(op, 1).eigenvalues
        assert abs(vals[0] + 0.125) < 1e-5


def _binding_levels(Z, k, n):
    """The k lowest dense levels at charge Z on the n-node ``binding_grid``."""
    params = PhysParams(Z=Z)
    return dense_spectrum(assemble_operator(binding_grid(Z, params, n=n), CH, params), k)


class TestBindingCurve:
    def test_small_sweep(self):
        rows = [_binding_levels(Z, 4, 120) for Z in (1.0, 2.0, 5.0)]
        lam1 = [r.eigenvalues[0] for r in rows]
        assert lam1[0] > lam1[1] > lam1[2]
        mc2 = PhysParams().mc2
        for r in rows:
            assert np.all(r.eigenvalues > 0) and np.all(r.eigenvalues < mc2)
            assert np.all(np.diff(r.binding_energies()) < 0)
            assert r.bound_flags().all()

    def test_rydberg_accumulation(self):
        b = _binding_levels(1.0, 4, 200).binding_energies()
        hydrogen = 0.5 / np.arange(1, 5) ** 2
        np.testing.assert_allclose(b, hydrogen, rtol=0.05)
