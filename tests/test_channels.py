import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brspec import PhysParams, channels
from brspec.assemble import _CORNER_RULE, _DIAGONAL_RULE
from brspec.channels import (ChannelSpec, KernelTerms, br_terms, coulomb_terms, kernel_at,
                             legendre_q_cosh, log_ratio, multiplier_channel_kernel,
                             scaled_sph_bessel_i)
from brspec.dirac import a_plus_minus
from brspec.errors import DomainError
from brspec.grids import build_grid
from oracles import (PAULI, SingularPointError, angular_reduce, kernel_value,
                     spherical_bessel_transform, spherical_spinor)

P11 = PhysParams(c=1.0, m=1.0, Z=1.0)
EPS = np.finfo(float).eps


class TestChannelSpec:
    @pytest.mark.parametrize("kappa,l_up,l_down", [
        (-1, 0, 1), (1, 1, 0),
        (-2, 1, 2), (2, 2, 1),
        (-3, 2, 3), (3, 3, 2),
    ])
    def test_quantum_numbers(self, kappa, l_up, l_down):
        ch = ChannelSpec.from_kappa(kappa)
        assert (ch.l_up, ch.l_down) == (l_up, l_down)

    def test_zero_kappa_rejected(self):
        with pytest.raises(DomainError):
            ChannelSpec.from_kappa(0)

    def test_deep_channels_rejected(self):
        with pytest.raises(DomainError):
            ChannelSpec.from_kappa(4)


def _q_at(l, z):
    """Q_l(z) through the x-form evaluator, at x = arccosh z."""
    return legendre_q_cosh((l,), np.arccosh(z))[0]


class TestLegendreQ:
    def test_q0_closed_form(self):
        z = 1.7
        assert _q_at(0, z) == pytest.approx(0.5 * np.log((z + 1) / (z - 1)), rel=1e-15)

    def test_q1_at_three(self):
        assert _q_at(1, 3.0) == pytest.approx(1.5 * np.log(2.0) - 1.0, rel=1e-14)

    def test_q0_large_argument_decay(self):
        z = np.array([1e3, 1e6])
        np.testing.assert_allclose(_q_at(0, z) * z, 1.0, rtol=1e-5)

    def test_q0_log_singularity(self):
        z = 1 + 1e-8
        assert _q_at(0, z) == pytest.approx(0.5 * np.log(2 / 1e-8), rel=1e-7)

    def test_domain_error(self):
        # the diagonal x = 0 (z = 1) is refused by kernel_value, see
        # test_diagonal_rejected; nonpositive momenta and orders beyond 3
        # are refused here
        with pytest.raises(DomainError):
            kernel_value(coulomb_terms(0), -1.0, 2.0)
        with pytest.raises(DomainError):
            KernelTerms((4,))

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_against_mpmath(self, l):
        for z in (1.01, 1.5, 2.0, 7.0, 1e3):
            x = np.arccosh(z)
            ref = float(mpmath.re(mpmath.legenq(l, 0, mpmath.cosh(mpmath.mpf(x)), type=3)))
            assert _q_at(l, z) == pytest.approx(ref, rel=2e-12)


class TestCoulombKernel:
    def test_closed_form_value(self):
        # z((1,2)) = 5/4, unit-charge kernel -Q_0(5/4)/(pi p q) with Q_0(5/4) = ln 3
        val = kernel_value(coulomb_terms(0), 1.0, 2.0)
        assert val == pytest.approx(-np.log(3.0) / (2 * np.pi), rel=1e-14)

    def test_against_angular_quadrature(self):
        # oracle: adaptive reduction of the pointwise kernel -Z/(2 pi^2 d^2)
        pointwise = lambda d: -1.0 / (2 * np.pi**2 * d * d)
        for l in (0, 1, 2):
            for p, q in ((1.0, 2.0), (0.3, 0.45), (5.0, 1.2)):
                oracle = angular_reduce(pointwise, l, p, q)
                value = kernel_value(coulomb_terms(l), p, q)
                assert value == pytest.approx(oracle, rel=1e-9)

    def test_closed_form_matches_quadrature_on_grid(self):
        # 20 x 20 log-spaced momenta, all three low channels
        pointwise = lambda d: -1.0 / (2 * np.pi**2 * d * d)
        ps = np.geomspace(0.05, 20.0, 20)
        qs = ps * 1.37  # avoid the diagonal
        for l in (0, 1, 2):
            for p in ps:
                for q in qs:
                    oracle = angular_reduce(pointwise, l, p, q, tol=1e-11)
                    value = kernel_value(coulomb_terms(l), p, q)
                    assert value == pytest.approx(oracle, rel=1e-9)

    def test_higher_channel_decays_faster(self):
        qs = np.array([0.1, 0.01, 0.001])
        k0 = kernel_value(coulomb_terms(0), 1.0, qs)
        k1 = kernel_value(coulomb_terms(1), 1.0, qs)
        ratio = k1 / k0
        assert np.all(np.abs(np.diff(np.abs(ratio))) < np.abs(ratio[:-1]))
        assert np.all(np.abs(ratio) < 0.1)

    def test_symmetry_exact(self):
        terms = coulomb_terms(1)
        assert kernel_value(terms, 0.7, 2.2) == kernel_value(terms, 2.2, 0.7)

    def test_diagonal_rejected(self):
        with pytest.raises(SingularPointError):
            kernel_value(coulomb_terms(0), 1.0, 1.0)

    @pytest.mark.parametrize("l", [-1, 4])
    def test_unsupported_l_rejected(self, l):
        with pytest.raises(DomainError):
            kernel_at(coulomb_terms(l), 1.0, 2.0, np.log(2.0))
        with pytest.raises(DomainError):
            kernel_value(coulomb_terms(l), 1.0, 2.0)
        deep = ChannelSpec(kappa=l + 1, l_up=l, l_down=l)
        with pytest.raises(DomainError):
            kernel_at(br_terms(deep, P11), 1.0, 2.0, np.log(2.0))

    def test_negative_for_positive_charge(self):
        rng = np.random.default_rng(0)
        p = np.exp(rng.uniform(-5, 5, 100))
        q = p * np.exp(rng.uniform(0.1, 2.0, 100))
        for l in (0, 1, 2, 3):
            assert np.all(kernel_value(coulomb_terms(l), p, q) < 0)


# z on both sides of the tier edges 8 and 128 where the series changes its
# term count, on the series side of the closed-form switch at 2, and deep
# in the far field
SERIES_Z = [np.nextafter(2.0, 3.0), 2.0 * (1 + 1e-9)] + [
    z for edge in (8.0, 128.0)
    for z in (edge * (1 - 1e-9), np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
              edge * (1 + 1e-9))] + [3.0, 30.0, 1e3, 1e8]


class TestSeriesAccuracy:
    """The far-field series against mpmath wherever its term count changes."""

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_legendre_q(self, l):
        # every z lies beyond the switch, so the log term must go unused
        z = np.array(SERIES_Z)
        (got,), (logcoef,) = channels._q_l_split((l,), z, lambda near: np.full(near.sum(), np.nan))
        assert not logcoef.any()
        for zk, value in zip(SERIES_Z, got):
            ref = float(mpmath.re(mpmath.legenq(l, 0, mpmath.mpf(zk), type=3)))
            assert abs(value - ref) <= 1e-15 * abs(ref), zk

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_coulomb_kernel_value(self, l):
        # x = ln(q/p) carries a few ulp of its own, which move
        # Q_l(cosh x) ~ e^-(l+1)x by about (l + 1) x ulp
        for z in SERIES_Z:
            for p in (1e-3, 1.0, 1e4):
                q = p * (z + np.sqrt(z * z - 1))        # (p^2 + q^2) / (2pq) = z
                value = kernel_value(coulomb_terms(l), p, q)
                with mpmath.workdps(40):
                    mp, mq = mpmath.mpf(p), mpmath.mpf(q)
                    zz = (mp * mp + mq * mq) / (2 * mp * mq)
                    exact = float(-mpmath.re(mpmath.legenq(l, 0, zz, type=3)) / (mpmath.pi * mp * mq))
                x = float(log_ratio(p, q))
                assert abs(value - exact) <= (1e-15 + 2 * (l + 1) * x * EPS) * abs(exact), (z, p)


class TestScaleFreeValue:
    """The pointwise kernel value goes through Q_l(cosh x), x = ln(q/p), at every scale."""

    # near the closed form's switch at z = 2, P_l Q_0 - W_{l-1} cancels by
    # ~140x (l = 2) and ~2500x (l = 3)
    BOUND = {0: 1e-13, 1: 1e-13, 2: 1e-13, 3: 1.5e-12}
    XS = np.concatenate([np.geomspace(1e-3, 0.1, 8), np.linspace(0.1, np.arccosh(2.0), 24)])

    @staticmethod
    def _exact_q(l, p, q):
        with mpmath.workdps(40):
            mp, mq = mpmath.mpf(p), mpmath.mpf(q)
            z = (mp * mp + mq * mq) / (2 * mp * mq)
            return mpmath.re(mpmath.legenq(l, 0, z, type=3)), mp * mq

    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_coulomb_against_mpmath(self, l):
        for p in (1e-4, 1.0, 1e6):
            for x in self.XS:
                q = p * np.exp(x)
                ql, pq = self._exact_q(l, p, q)
                exact = float(-ql / (mpmath.pi * pq))
                for a, b in ((p, q), (q, p)):
                    value = kernel_value(coulomb_terms(l), a, b)
                    assert abs(value - exact) <= self.BOUND[l] * abs(exact), (p, x)

    @pytest.mark.parametrize("kappa", [-3, -2, -1, 1, 2, 3])
    def test_br_against_mpmath(self, kappa):
        ch = ChannelSpec.from_kappa(kappa)
        params = PhysParams(Z=1.0)
        bound = max(self.BOUND[ch.l_up], self.BOUND[ch.l_down])
        for p in (1e-4, 1.0, 1e6):
            for x in self.XS[::3]:
                q = p * np.exp(x)
                (ap_p, am_p), (ap_q, am_q) = a_plus_minus(p, params), a_plus_minus(q, params)
                q_up, pq = self._exact_q(ch.l_up, p, q)
                q_dn, _ = self._exact_q(ch.l_down, p, q)
                exact = float(-(ap_p * ap_q * q_up + am_p * am_q * q_dn) / (mpmath.pi * pq))
                value = kernel_value(br_terms(ch, params), p, q)
                assert abs(value - exact) <= bound * abs(exact), (p, x)

    @staticmethod
    def _closed_form_q(z):
        """Q_0..Q_3 at the mpmath number z > 1 by P_l Q_0 - W_{l-1}.

        Near z = 2 the terms cancel by at most ~1e5, far inside the 60
        digits carried; legenq at every rule point would take minutes.
        """
        q0 = mpmath.log((z + 1) / (z - 1)) / 2
        return (q0, z * q0 - 1, (3 * z * z - 1) / 2 * q0 - 3 * z / 2,
                (5 * z**3 - 3 * z) / 2 * q0 - (5 * z * z / 2 - mpmath.mpf(2) / 3))

    @staticmethod
    def _galerkin_points(s, rng):
        """(p, q, x, exact p, exact q) of the far-field pairs, Duffy and corner points at scale s.

        The exact momenta are the maps' images of the rule's nodes, as
        mpmath numbers; p and q are their rounded values.
        """
        mp = lambda v: mpmath.mpf(float(v))
        x = rng.uniform(0.05, np.arccosh(2.0), 40) * rng.choice([-1.0, 1.0], 40)
        p = np.full(40, s)
        q = p * np.exp(x)
        yield p, q, log_ratio(p, q), map(mp, p), map(mp, q)
        U, V, _ = _DIAGONAL_RULE
        a, D = s, 0.3 * s
        Q = a + D * (U * (1 - V))
        yield (a + D * U, Q, np.log1p(D * (U * V) / Q),
               (mp(a) + mp(D) * mp(u) for u in U),
               (mp(a) + mp(D) * mp(u) * (1 - mp(v)) for u, v in zip(U, V)))
        X, Y, _ = _CORNER_RULE
        m, r = 1.3 * s, 1.625 * s
        D1, D2 = m - a, r - m
        P = m - D1 * X
        yield (P, m + D2 * Y, np.log1p((D1 * X + D2 * Y) / P),
               (mp(m) - mp(D1) * mp(u) for u in X), (mp(m) + mp(D2) * mp(v) for v in Y))

    @pytest.mark.parametrize("s", [1e-4, 1.0, 1e4, 1e6])
    def test_galerkin_points_against_mpmath(self, s):
        # the pairs and rule points the Galerkin blocks evaluate, one cell of
        # each rule, with x formed as each rule forms it
        rng = np.random.default_rng(3)
        with mpmath.workdps(60):
            z = mpmath.mpf(1.7)
            for l, ql in enumerate(self._closed_form_q(z)):
                assert abs(ql / mpmath.legenq(l, 0, z, type=3) - 1) < 1e-40
            for p, q, x, p_exact, q_exact in self._galerkin_points(s, rng):
                exact = np.array([
                    [float(-ql / (mpmath.pi * mp * mq)) for ql in
                     self._closed_form_q((mp * mp + mq * mq) / (2 * mp * mq))]
                    for mp, mq in zip(p_exact, q_exact)])
                for l in range(4):
                    value = kernel_at(coulomb_terms(l), p, q, x)
                    err = np.abs(value - exact[:, l]) / np.abs(exact[:, l])
                    assert err.max() <= self.BOUND[l], (l, p.size, err.max())


class TestAngularReduce:
    def test_constant_kernel_monopole(self):
        val = angular_reduce(lambda d: 3.5, 0, 1.0, 2.0)
        assert val == pytest.approx(4 * np.pi * 3.5, rel=1e-12)

    def test_constant_kernel_higher_moments_vanish(self):
        for l in (1, 2):
            assert abs(angular_reduce(lambda d: 1.0, l, 1.0, 2.0)) < 1e-9

    def test_nonconvergence_carries_best_estimate(self):
        from brspec.errors import NumericalError
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError) as err:
                angular_reduce(lambda d: np.sin(1e7 * d), 0, 1.0, 2.0, tol=1e-12)
        assert np.isfinite(err.value.payload)


def _transformed_kernel_oracle(channel, p, q, params, n_theta=240, n_phi=32):
    """Full angular reduction of the transformed Coulomb block.

    Fixes the outgoing direction at the pole, integrates the 2x2 sandwich
    [a+ a+ I + a- a- (sigma.z)(sigma.qhat)] (-Z / (2 pi^2 |p zhat - q qhat|^2))
    against an explicit spherical spinor over the incoming sphere, and reads
    off the channel coefficient.
    """
    t, wt = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    wphi = 2 * np.pi / n_phi
    ct = t[:, None]
    stheta = np.sqrt(1 - ct**2)
    qhat = np.stack([stheta * np.cos(phi)[None, :],
                     stheta * np.sin(phi)[None, :],
                     np.broadcast_to(ct, (n_theta, n_phi))], axis=-1)
    dist2 = p * p + q * q - 2 * p * q * ct
    v = -params.Z / (2 * np.pi**2 * dist2)
    ap_p, am_p = a_plus_minus(p, params)
    ap_q, am_q = a_plus_minus(q, params)
    zhat = np.array([0.0, 0.0, 1.0])
    om_pole = spherical_spinor(channel.kappa, 0.5, zhat)
    sig_z = PAULI[2]
    sig_q = sum(qhat[..., k, None, None] * PAULI[k] for k in range(3))
    om_q = np.empty((n_theta, n_phi, 2), dtype=complex)
    for i in range(n_theta):
        for j in range(n_phi):
            om_q[i, j] = spherical_spinor(channel.kappa, 0.5, qhat[i, j])
    block = (ap_p * ap_q * np.eye(2)[None, None] + am_p * am_q * (sig_z @ sig_q))
    integrand = v[..., None] * np.einsum("ijab,ijb->ija", block, om_q)
    h = (integrand * (wt[:, None, None] * wphi)).sum(axis=(0, 1))
    return float(np.real(np.vdot(om_pole, h) / np.vdot(om_pole, om_pole)))


class TestTransformedKernel:
    def test_nonrelativistic_reduction(self):
        big_c = PhysParams(c=1e8, m=1.0, Z=1.0)
        ch = ChannelSpec.from_kappa(-1)
        val = kernel_value(br_terms(ch, big_c), 1.0, 2.0)
        assert val == pytest.approx(kernel_value(coulomb_terms(0), 1.0, 2.0), rel=1e-12)

    def test_symmetry(self):
        ch = ChannelSpec.from_kappa(-1)
        terms = br_terms(ch, PhysParams(Z=2.0))
        a = kernel_value(terms, 0.8, 1.9)
        b = kernel_value(terms, 1.9, 0.8)
        assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_against_angular_oracle(self, kappa):
        params = PhysParams(c=1.0, m=1.0, Z=1.0)
        ch = ChannelSpec.from_kappa(kappa)
        rng = np.random.default_rng(21)
        pairs = []
        for _ in range(25):
            p = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            q = p * float(np.exp(rng.uniform(0.15, 1.5) * rng.choice([-1, 1])))
            pairs.append((p, q))
        for p, q in pairs:
            oracle = _transformed_kernel_oracle(ch, p, q, params)
            assert kernel_value(br_terms(ch, params), p, q) == pytest.approx(oracle, rel=1e-8)

    def test_default_c_value_against_oracle(self):
        params = PhysParams(Z=1.0)
        ch = ChannelSpec.from_kappa(-1)
        oracle = _transformed_kernel_oracle(ch, 1.0, 2.0, params)
        assert kernel_value(br_terms(ch, params), 1.0, 2.0) == pytest.approx(oracle, rel=1e-9)

    def test_negative_for_positive_charge(self):
        rng = np.random.default_rng(2)
        p = np.exp(rng.uniform(-4, 6, 200))
        q = p * np.exp(rng.uniform(0.05, 2.0, 200))
        for kappa in (-2, -1, 1, 2):
            ch = ChannelSpec.from_kappa(kappa)
            assert np.all(kernel_value(br_terms(ch, PhysParams(Z=5.0)), p, q) < 0)


# p log-uniform on [1e-4, 1e6] and q = p e^x with 1e-3 <= |x| <= 10, which
# covers both sides of the evaluator's switch at z = cosh x = 2
MOMENTA = st.tuples(st.floats(np.log(1e-4), np.log(1e6)), st.floats(1e-3, 10.0),
                    st.sampled_from([-1.0, 1.0])).map(
    lambda a: (float(np.exp(a[0])), float(np.exp(a[0] + a[2] * a[1]))))


class TestKernelProperties:
    @settings(max_examples=80, deadline=None)
    @given(pq=MOMENTA, l=st.integers(0, 3), kappa=st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_symmetry_exact(self, pq, l, kappa):
        p, q = pq
        coulomb = coulomb_terms(l)
        assert kernel_value(coulomb, p, q) == kernel_value(coulomb, q, p)
        terms = br_terms(ChannelSpec.from_kappa(kappa), PhysParams(Z=1.0))
        assert kernel_value(terms, p, q) == kernel_value(terms, q, p)
        x = log_ratio(p, q)
        assert kernel_at(terms, p, q, x) == kernel_at(terms, q, p, x)

    @settings(max_examples=80, deadline=None)
    @given(pq=MOMENTA, kappa=st.sampled_from([-3, -2, -1, 1, 2, 3]), Z=st.floats(1e-3, 200.0))
    def test_kernel_carries_no_charge(self, pq, kappa, Z):
        # the kernel is per unit charge: the charge of the parameters the
        # mixing factors read changes no value, bit for bit
        p, q = pq
        x = log_ratio(p, q)
        ch = ChannelSpec.from_kappa(kappa)
        assert (kernel_at(br_terms(ch, PhysParams(Z=Z)), p, q, x)
                == kernel_at(br_terms(ch, PhysParams(Z=1.0)), p, q, x))

    @settings(max_examples=80, deadline=None)
    @given(pq=MOMENTA, l=st.integers(0, 3), k=st.integers(-10, 10))
    def test_nonrel_kernel_homogeneous(self, pq, l, k):
        # k_l(tp, tq) = k_l(p, q) / t^2; a dyadic t scales p, q and |q - p|
        # exactly, so x = ln(q/p) and Q_l(cosh x) do not change and the
        # prefactor scales exactly
        p, q = pq
        t = 2.0 ** k
        base = kernel_value(coulomb_terms(l), p, q)
        assert kernel_value(coulomb_terms(l), t * p, t * q) * t * t == base

    @settings(max_examples=60, deadline=None)
    @given(pq=MOMENTA, l=st.integers(0, 3))
    def test_value_matches_exact_kernel(self, pq, l):
        # the value goes through x = ln(q/p) and is scale-free
        p, q = pq
        with mpmath.workdps(40):
            mp, mq = mpmath.mpf(p), mpmath.mpf(q)
            z = (mp * mp + mq * mq) / (2 * mp * mq)
            exact = float(-mpmath.re(mpmath.legenq(l, 0, z, type=3)) / (mpmath.pi * mp * mq))
        assert abs(kernel_value(coulomb_terms(l), p, q) - exact) <= 1.5e-12 * abs(exact)


class TestScaledBessel:
    def test_against_scipy_moderate(self):
        from scipy.special import ive
        a = np.array([1e-6, 1e-3, 0.3, 0.499, 0.501, 2.0, 50.0, 1e6])
        for l in range(4):
            ref = np.sqrt(np.pi / (2 * a)) * ive(l + 0.5, a)
            np.testing.assert_allclose(scaled_sph_bessel_i(l, a), ref, rtol=1e-12)

    def test_huge_argument_asymptote(self):
        a = np.array([1e10, 1e14])
        for l in range(4):
            np.testing.assert_allclose(scaled_sph_bessel_i(l, a), 1 / (2 * a), rtol=1e-9)


class TestMultiplierKernel:
    def test_symmetry(self):
        a = multiplier_channel_kernel(1, 3.0, 0.7, 1.1)
        b = multiplier_channel_kernel(1, 3.0, 1.1, 0.7)
        assert a == pytest.approx(b, rel=1e-12)

    def test_acts_as_identity_for_large_R(self):
        grid = build_grid(200, 1.0)
        f = np.exp(-grid.nodes**2)
        for R, tol in ((8.0, 2e-2), (32.0, 1e-3)):
            K = multiplier_channel_kernel(0, R, grid.nodes[:, None], grid.nodes[None, :])
            g = K @ (grid.l2_weights * f)
            i = np.argmax(f)
            sel = slice(i - 5, i + 40)
            chi_at = np.exp(-grid.nodes[sel] ** 2 / (2 * R * R))
            np.testing.assert_allclose(g[sel], chi_at * f[sel], rtol=tol)

    @pytest.mark.parametrize("l", [0, 1])
    def test_position_space_product_crosscheck(self, l):
        # oracle: multiply by the cutoff in position space, come back through
        # the Bessel transform, compare with the momentum-space kernel action.
        # Beyond the resolved momentum band the oscillatory transform
        # quadrature returns noise, so the comparison stops there.
        grid = build_grid(200, 1.0)
        r = grid.nodes
        f_pos = r**l * np.exp(-r * r / 2)
        f_mom = spherical_bessel_transform(l, f_pos, grid)
        R = 2.0
        g_pos = np.exp(-r * r / (2 * R * R)) * f_pos
        oracle = spherical_bessel_transform(l, g_pos, grid)
        K = multiplier_channel_kernel(l, R, grid.nodes[:, None], grid.nodes[None, :])
        g_mom = K @ (grid.l2_weights * f_mom)
        scale = np.abs(oracle).max()
        sel = grid.nodes < 12.0
        np.testing.assert_allclose(g_mom[sel], oracle[sel], rtol=1e-6, atol=1e-6 * scale)


def _uniform_grid(lo, hi, n_panels, order):
    from brspec.grids import RadialGrid
    t, wt = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * t + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wt)
    return RadialGrid(np.concatenate(nodes), np.concatenate(weights), mapping_scale=1.0)


class TestBesselTransform:
    def test_gaussian_self_transform(self):
        grid = build_grid(200, 1.0)
        f = np.exp(-grid.nodes**2 / 2)
        g = spherical_bessel_transform(0, f, grid)
        sel = grid.nodes < 8.0
        np.testing.assert_allclose(g[sel], f[sel], atol=1e-8)

    def test_round_trip(self):
        # oscillatory integrands want uniform sampling: a linear composite
        # panel rule on [0, 40] resolves j_l(k r) across the whole support
        # of a concentrated profile, and there the transform is its own inverse
        grid = _uniform_grid(0.005, 12.0, 60, 8)
        # r^l times an even series in r: smooth as a 3-d function, so the
        # transform decays fast enough to live on the finite window
        f = grid.nodes * np.exp(-grid.nodes**2)
        g = spherical_bessel_transform(1, f, grid)
        back = spherical_bessel_transform(1, g, grid)
        sel = grid.nodes < 6.0
        np.testing.assert_allclose(back[sel], f[sel], atol=1e-6)

    def test_zero_maps_to_zero(self):
        grid = build_grid(64, 1.0)
        out = spherical_bessel_transform(0, np.zeros(grid.n), grid)
        assert np.abs(out).max() == 0.0
