import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brspec import PhysParams
from brspec.dirac import (ALPHA, BETA, I2, I4, SpinorMatrix4, a_plus_minus,
                          channel_rotation, difference_kernel_bound, dirac_symbol,
                          fw_block_upper, fw_difference_kernel, fw_unitary,
                          lambda_of, projector_symbol, spherical_spinor)
from brspec.errors import DomainError

P11 = PhysParams(c=1.0, m=1.0, Z=0.0)


def random_momenta(rng, n, lo=1e-6, hi=1e3):
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return mags[:, None] * dirs


class TestLambda:
    def test_rest_energy(self):
        assert lambda_of(0.0, P11) == 1.0

    def test_unit_momentum(self):
        assert lambda_of(1.0, P11) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_general_values(self):
        # c^2 p^2 + (m c^2)^2 = 4*9 + (0.5*4)^2 = 40
        p = PhysParams(c=2.0, m=0.5, Z=0.0)
        assert lambda_of(3.0, p) == pytest.approx(np.sqrt(40.0), rel=1e-15)

    def test_strictly_increasing(self):
        p = np.linspace(0, 50, 400)
        assert np.all(np.diff(lambda_of(p, PhysParams())) > 0)

    def test_negative_momentum_rejected(self):
        with pytest.raises(DomainError):
            lambda_of(-1.0, P11)


class TestMixingCoefficients:
    def test_at_rest(self):
        ap, am = a_plus_minus(0.0, P11)
        assert ap == 1.0 and am == 0.0

    def test_ultrarelativistic_limit(self):
        ap, am = a_plus_minus(1e12, P11)
        assert ap == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert am == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_explicit_value(self):
        ap, am = a_plus_minus(1.0, P11)
        assert ap == pytest.approx(np.sqrt((1 + 1 / np.sqrt(2)) / 2), rel=1e-15)
        assert am == pytest.approx(np.sqrt((1 - 1 / np.sqrt(2)) / 2), rel=1e-15)

    @pytest.mark.parametrize("params", [PhysParams(), P11, PhysParams(c=0.3, m=7.0)])
    def test_minus_factor_from_plus(self, params):
        # a_minus = (c p / lambda) / (2 a_plus) against the closed form, from
        # deep nonrelativistic to ultrarelativistic momenta
        p = np.geomspace(1e-8, 1e8, 2001) * params.m * params.c
        ap, am = a_plus_minus(p, params)
        lam = lambda_of(p, params)
        closed = params.c * p / np.sqrt(2 * lam * (lam + params.mc2))
        assert np.all(np.abs(ap * ap + am * am - 1.0) <= 2 * np.finfo(float).eps)
        assert np.all(np.abs(am - closed) <= 1e-15 * closed)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0, 1e6), c=st.floats(0.1, 300), m=st.floats(0.1, 10))
    def test_normalization_and_ranges(self, p, c, m):
        ap, am = a_plus_minus(p, PhysParams(c=c, m=m, Z=0.0))
        assert ap * ap + am * am == pytest.approx(1.0, abs=1e-14)
        assert 1 / np.sqrt(2) < ap <= 1.0
        assert 0.0 <= am < 1 / np.sqrt(2) + 1e-15


class TestDiracSymbol:
    def test_zero_momentum_is_rest_term(self):
        m = dirac_symbol(np.zeros(3), PhysParams())
        np.testing.assert_allclose(m.entries, PhysParams().mc2 * BETA, atol=0)

    def test_eigenvalues_are_pm_lambda_twice(self):
        rng = np.random.default_rng(11)
        for p in random_momenta(rng, 20):
            lam = lambda_of(np.linalg.norm(p), PhysParams())
            ev = np.linalg.eigvalsh(dirac_symbol(p, PhysParams()).entries)
            np.testing.assert_allclose(ev, [-lam, -lam, lam, lam], rtol=1e-13)

    def test_traceless_at_unit_momentum(self):
        m = dirac_symbol(np.array([1.0, 0, 0]), P11)
        assert abs(np.trace(m.entries)) < 1e-14


class TestUnitary:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(fw_unitary(np.zeros(3), P11).entries, I4)

    def test_unitarity_bulk(self):
        rng = np.random.default_rng(5)
        params = PhysParams()
        worst = 0.0
        for p in random_momenta(rng, 200):
            u = fw_unitary(p, params).entries
            worst = max(worst, np.abs(u @ u.conj().T - I4).max())
        assert worst < 1e-13

    def test_diagonalizes_symbol(self):
        rng = np.random.default_rng(6)
        params = PhysParams()
        for p in random_momenta(rng, 100):
            lam = lambda_of(np.linalg.norm(p), params)
            u = fw_unitary(p, params).entries
            uinv = fw_unitary(p, params, inverse=True).entries
            d = dirac_symbol(p, params).entries
            assert np.abs(u @ d @ uinv - BETA * lam).max() < 1e-12 * lam

    def test_inverse_flag(self):
        p = np.array([0.3, -1.2, 0.5])
        u = fw_unitary(p, P11).entries
        uinv = fw_unitary(p, P11, inverse=True).entries
        np.testing.assert_allclose(u @ uinv, I4, atol=1e-14)


class TestProjectors:
    def test_zero_momentum_upper_block(self):
        m = projector_symbol(np.zeros(3), +1, P11).entries
        np.testing.assert_allclose(m, np.diag([1.0, 1, 0, 0]), atol=0)

    def test_projector_algebra(self):
        rng = np.random.default_rng(7)
        params = PhysParams()
        for p in random_momenta(rng, 50):
            plus = projector_symbol(p, +1, params).entries
            minus = projector_symbol(p, -1, params).entries
            assert np.abs(plus @ plus - plus).max() < 1e-13
            assert np.abs(plus + minus - I4).max() < 1e-13
            assert np.abs(plus @ minus).max() < 1e-13
            assert np.linalg.matrix_rank(plus) == 2

    def test_projects_onto_positive_branch(self):
        rng = np.random.default_rng(8)
        params = PhysParams()
        for p in random_momenta(rng, 30):
            lam = lambda_of(np.linalg.norm(p), params)
            plus = projector_symbol(p, +1, params).entries
            d = dirac_symbol(p, params).entries
            assert np.abs(plus @ d @ plus - lam * plus).max() < 1e-12 * lam

    def test_bad_sign_rejected(self):
        with pytest.raises(DomainError):
            projector_symbol(np.zeros(3), 2, P11)


class TestUpperBlock:
    def test_equal_momenta_give_identity(self):
        p = np.array([0.4, 0.1, -0.8])
        np.testing.assert_allclose(fw_block_upper(p, p, 1.0, P11), I2, atol=1e-15)

    def test_perpendicular_momenta(self):
        from brspec.dirac import PAULI
        p = np.array([0.7, 0.0, 0.0])
        q = np.array([0.0, 1.3, 0.0])
        ap_p, am_p = a_plus_minus(np.linalg.norm(p), P11)
        ap_q, am_q = a_plus_minus(np.linalg.norm(q), P11)
        cross = np.cross(p / np.linalg.norm(p), q / np.linalg.norm(q))
        expect = ap_p * ap_q * I2 + am_p * am_q * 1j * sum(
            cross[k] * PAULI[k] for k in range(3))
        np.testing.assert_allclose(fw_block_upper(p, q, 1.0, P11), expect, atol=1e-15)

    def test_against_full_product(self):
        # oracle: the literal 4x4 product U(p) s U^-1(q), upper-left block
        rng = np.random.default_rng(9)
        params = PhysParams()
        for p, q in zip(random_momenta(rng, 40), random_momenta(rng, 40)):
            s = complex(rng.standard_normal(), rng.standard_normal())
            full = fw_unitary(p, params).entries @ (
                s * fw_unitary(q, params, inverse=True).entries)
            block = fw_block_upper(p, q, s, params)
            assert np.abs(block - full[:2, :2]).max() < 1e-13 * abs(s)

    def test_zero_momentum_rejected(self):
        with pytest.raises(DomainError):
            fw_block_upper(np.zeros(3), np.ones(3), 1.0, P11)


class TestDifferenceKernel:
    def test_zero_shift_vanishes(self):
        p = np.array([1.0, 2.0, 0.5])
        k = fw_difference_kernel(p, np.zeros(3), 3.0, P11).entries
        assert np.abs(k).max() == 0.0

    def test_norm_bound_scan(self):
        # 1e4-sample scan of the dilation-difference bound and the pointwise
        # mixing-coefficient estimates
        rng = np.random.default_rng(10)
        params = PhysParams()
        n = 10_000
        ps = random_momenta(rng, n, 1e-3, 1e3)
        qs = random_momenta(rng, n, 1e-3, 1e3)
        Rs = np.exp(rng.uniform(0.0, np.log(1e3), n))
        u1 = _unitary_batch(ps / Rs[:, None], params)
        u2 = _unitary_batch((ps - qs) / Rs[:, None], params)
        norms = np.linalg.matrix_norm(u1 - u2, ord=2)
        bounds = difference_kernel_bound_batch(qs, Rs, params)
        assert np.all(norms <= bounds * (1 + 1e-10))

        etas = rng.uniform(1e-4, 1.0, n)
        pmags = np.linalg.norm(ps, axis=1)
        ap, am = a_plus_minus(etas * pmags, params)
        mc = params.m * params.c
        assert np.all(np.abs(ap - 1) <= (etas * pmags) ** 2 / (2 * mc**2) * (1 + 1e-10))
        assert np.all(am <= etas * pmags / (np.sqrt(2) * mc) * (1 + 1e-10))

    def test_single_sample_matches_batch(self):
        p = np.array([3.0, -1.0, 2.0])
        q = np.array([0.5, 0.5, 0.1])
        k = fw_difference_kernel(p, q, 7.0, PhysParams())
        assert np.linalg.norm(k.entries, 2) <= difference_kernel_bound(q, 7.0, PhysParams())

    def test_degenerate_arguments_rejected(self):
        p = np.array([1.0, 0, 0])
        with pytest.raises(DomainError):
            fw_difference_kernel(p, p, 1.0, P11)
        with pytest.raises(DomainError):
            fw_difference_kernel(p, q=np.zeros(3), R=-1.0, params=P11)


def _unitary_batch(ps, params):
    """Vectorized U(p) over rows of ps (all |p| > 0)."""
    mags = np.linalg.norm(ps, axis=1)
    ap, am = a_plus_minus(mags, params)
    out = ap[:, None, None] * np.eye(4, dtype=complex)[None]
    hats = ps / mags[:, None]
    for k in range(3):
        out += am[:, None, None] * hats[:, k, None, None] * (BETA @ ALPHA[k])[None]
    return out


def difference_kernel_bound_batch(qs, Rs, params):
    return 5 * np.sqrt(2) * np.linalg.norm(qs, axis=1) / (params.m * params.c * Rs)


class TestChannelRotation:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(channel_rotation(0.0, -1, PhysParams()), np.eye(2))

    def test_special_orthogonal(self):
        params = PhysParams()
        for p in (1e-4, 0.3, 137.0, 4e4):
            r = channel_rotation(p, -1, params)
            assert abs(np.linalg.det(r) - 1.0) < 1e-14
            np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-14)

    def test_zero_kappa_rejected(self):
        with pytest.raises(DomainError):
            channel_rotation(1.0, 0, PhysParams())

    @pytest.mark.parametrize("kappa", [-1, 1])
    @pytest.mark.parametrize("m_j", [0.5, -0.5])
    def test_sign_convention_against_full_unitary(self, kappa, m_j):
        # oracle: apply the full 4x4 unitary to a channel spinor built from
        # explicit spherical spinors and read off the reduced coefficients
        params = PhysParams(c=1.0, m=1.0, Z=0.0)
        rng = np.random.default_rng(12)
        dirs = [np.array([0.0, 0.0, 1.0])] + list(rng.standard_normal((3, 3)))
        for pmag in (0.25, 1.0, 9.0):
            for d in dirs:
                d = d / np.linalg.norm(d)
                p = pmag * d
                om_up = spherical_spinor(kappa, m_j, d)
                om_dn = spherical_spinor(-kappa, m_j, d)
                u, w = 0.8, -0.4
                psi = np.concatenate([u * om_up, w * om_dn])
                out = fw_unitary(p, params).entries @ psi
                rot = channel_rotation(pmag, kappa, params)
                expect = np.concatenate([(rot[0, 0] * u + rot[0, 1] * w) * om_up,
                                         (rot[1, 0] * u + rot[1, 1] * w) * om_dn])
                assert np.abs(out - expect).max() < 1e-12


class TestSpinorMatrixTags:
    def test_hermitian_tag_enforced(self):
        with pytest.raises(DomainError):
            SpinorMatrix4(np.diag([1, 2, 3, 4]) + 1e-9 * np.triu(np.ones((4, 4)), 1),
                          hermitian=True)

    def test_unitary_tag_enforced(self):
        with pytest.raises(DomainError):
            SpinorMatrix4(2 * np.eye(4), unitary=True)

    def test_shape_enforced(self):
        with pytest.raises(DomainError):
            SpinorMatrix4(np.eye(3))
