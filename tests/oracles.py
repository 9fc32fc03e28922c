"""Independent oracles the tests hold the package against.

No command runs these; they state the paper's algebra and the channel
reduction in their most literal form, so that the production code can be
compared with them:

* the free Dirac symbol c alpha.p + m c^2 beta as an exact 4x4 matrix, the
  momentum-dependent Foldy-Wouthuysen unitary that block-diagonalizes it,
  the positive/negative spectral projectors, the upper block of the
  transformed potential, the dilation difference kernel U(p/R) - U((p-q)/R)
  with its bound, the channel-reduced rotation and the spherical spinors of
  kappa = +-1;
* the pointwise channel kernel off its diagonal, and the adaptive angular
  reduction 2 pi Int P_l(t) k(|p - q|) dt of a pointwise kernel, with P_l
  taken from ``numpy.polynomial.legendre`` so that it shares no code with
  the Legendre-Q closed form it checks;
* the radial spherical Bessel transform between position and momentum
  space, on scipy's j_l;
* random smooth boundary data on a grid, and an extension field
  u(p) exp(-tau(p) x) + b(p) e sigma x exp(-sigma x) with its x-derivative
  materialized on the (x, p) product grid from plain arrays, with the
  x-quadrature of its energy density per mode summed over those arrays,
  and the per-mode integrals A, C, D of the decay and the envelopes summed
  the same way.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.special import spherical_jn

from brspec.channels import KernelTerms, kernel_at, log_ratio
from brspec.dirac import a_plus_minus
from brspec.errors import DomainError, NumericalError
from brspec.params import PhysParams

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

ALPHA = tuple(
    np.block([[np.zeros((2, 2), dtype=complex), s], [s, np.zeros((2, 2), dtype=complex)]])
    for s in PAULI
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


class SingularPointError(DomainError):
    """A kernel was evaluated on its diagonal p == q, where it is singular."""


@dataclass
class SpinorMatrix4:
    """A 4x4 complex matrix tagged with the algebraic properties it must satisfy.

    Tags are checked at construction to 1e-13 in max-entry norm.
    """

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False
    _TOL = 1e-13

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        self.entries = m
        scale = max(1.0, np.abs(m).max())
        if self.hermitian and np.abs(m - m.conj().T).max() > self._TOL * scale:
            raise DomainError("matrix tagged hermitian is not hermitian")
        if self.unitary and np.abs(m @ m.conj().T - I4).max() > self._TOL * scale:
            raise DomainError("matrix tagged unitary is not unitary")


def _as_momentum(p):
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise DomainError(f"momentum must be a 3-vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("momentum has non-finite components")
    return p


def dirac_symbol(p, params: PhysParams) -> SpinorMatrix4:
    """Free Dirac symbol c alpha.p + m c^2 beta at momentum p (hermitian)."""
    p = _as_momentum(p)
    m = params.mc2 * BETA.copy()
    for k in range(3):
        m += params.c * p[k] * ALPHA[k]
    return SpinorMatrix4(m, hermitian=True)


def _beta_alpha_phat(p):
    """beta (alpha . p/|p|) for |p| > 0."""
    pmag = np.linalg.norm(p)
    m = np.zeros((4, 4), dtype=complex)
    for k in range(3):
        m += (p[k] / pmag) * ALPHA[k]
    return BETA @ m


def fw_unitary(p, params: PhysParams, inverse=False) -> SpinorMatrix4:
    """The unitary a_plus I + a_minus beta (alpha.p)/|p| diagonalizing the symbol.

    U(p) D(p) U(p)^-1 = beta lambda(p).  At p = 0 the formula degenerates to
    the identity (a_minus(0) = 0), which is taken as the value by continuity.
    """
    p = _as_momentum(p)
    pmag = np.linalg.norm(p)
    if pmag == 0.0:
        return SpinorMatrix4(I4.copy(), unitary=True)
    ap, am = a_plus_minus(pmag, params)
    sign = -1.0 if inverse else 1.0
    return SpinorMatrix4(ap * I4 + sign * am * _beta_alpha_phat(p), unitary=True)


def projector_symbol(p, sign, params: PhysParams) -> SpinorMatrix4:
    """Spectral projector onto the positive/negative branch of the symbol.

    U^-1 (I pm beta)/2 U; rank-2 orthogonal projector commuting with D(p).
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    u = fw_unitary(p, params).entries
    uinv = fw_unitary(p, params, inverse=True).entries
    half = 0.5 * (I4 + sign * BETA)
    return SpinorMatrix4(uinv @ half @ u, hermitian=True)


def fw_block_upper(p, q, scalar, params: PhysParams):
    """Upper-left 2x2 block of U(p) . scalar . U^-1(q).

    Closed form scalar [a+(p)a+(q) I2 + a-(p)a-(q) (sigma.phat)(sigma.qhat)];
    this is the matrix structure of the transformed potential kernel between
    momenta p and q.
    """
    p, q = _as_momentum(p), _as_momentum(q)
    pmag, qmag = np.linalg.norm(p), np.linalg.norm(q)
    if pmag == 0.0 or qmag == 0.0:
        raise DomainError("fw_block_upper requires nonzero momenta")
    ap_p, am_p = a_plus_minus(pmag, params)
    ap_q, am_q = a_plus_minus(qmag, params)
    sig_p = sum((p[k] / pmag) * PAULI[k] for k in range(3))
    sig_q = sum((q[k] / qmag) * PAULI[k] for k in range(3))
    return scalar * (ap_p * ap_q * I2 + am_p * am_q * (sig_p @ sig_q))


def fw_difference_kernel(p, q, R, params: PhysParams) -> SpinorMatrix4:
    """Difference kernel U(p/R) - U((p-q)/R) of the dilation-commutator bound.

    Its spectral norm is bounded by 5 sqrt(2) |q| / (m c R).
    """
    p, q = _as_momentum(p), _as_momentum(q)
    if not R > 0:
        raise DomainError(f"scale R must be positive, got {R}")
    if np.linalg.norm(p) == 0.0 or np.linalg.norm(p - q) == 0.0:
        raise DomainError("fw_difference_kernel requires |p| > 0 and |p-q| > 0")
    u1 = fw_unitary(p / R, params).entries
    u2 = fw_unitary((p - q) / R, params).entries
    return SpinorMatrix4(u1 - u2)


def difference_kernel_bound(q, R, params: PhysParams):
    """The bound 5 sqrt(2) |q| / (m c R) on ||U(p/R) - U((p-q)/R)||_2."""
    q = _as_momentum(q)
    return 5 * np.sqrt(2) * np.linalg.norm(q) / (params.m * params.c * R)


# Reduced action of the unitary on a fixed angular channel.  On the pair
# (upper radial amplitude, lower radial amplitude) of channel kappa the
# 4x4 unitary acts as a plane rotation by the mixing angle; the sign is
# fixed by the convention sigma.phat Omega_kappa = -Omega_{-kappa} for the
# spherical spinors and frozen by the consistency test against the full
# 4x4 action.

def channel_rotation(p_mag, kappa, params: PhysParams):
    """2x2 orthogonal matrix [[a+, -a-], [a-, a+]] of the channel-reduced unitary."""
    if kappa == 0:
        raise DomainError("kappa must be a nonzero integer")
    if np.any(np.asarray(p_mag) < 0):
        raise DomainError("momentum magnitude must be nonnegative")
    ap, am = a_plus_minus(p_mag, params)
    return np.array([[ap, -am], [am, ap]])


def spherical_spinor(kappa, m_j, direction):
    """Spherical spinor Omega_{kappa, m_j} evaluated at a unit direction.

    Supports kappa = -1 (l=0) and kappa = +1 (l=1), m_j = +-1/2; these are
    the channels used by the reduction tests.
    """
    n = np.asarray(direction, dtype=float)
    n = n / np.linalg.norm(n)
    if kappa == -1:
        chi = np.array([1.0, 0.0]) if m_j > 0 else np.array([0.0, 1.0])
        return chi.astype(complex) / np.sqrt(4 * np.pi)
    if kappa == +1:
        sig_n = sum(n[k] * PAULI[k] for k in range(3))
        return -(sig_n @ spherical_spinor(-1, m_j, n))
    raise DomainError(f"spherical_spinor supports kappa = +-1, got {kappa}")


def _check_offdiag(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("kernel momenta must be positive")
    if np.any(p == q):
        raise SingularPointError("channel kernel evaluated on its diagonal p == q")
    return p, q


def kernel_value(terms: KernelTerms, p, q):
    """Pointwise kernel value off the diagonal, through Q_l(cosh |ln(q/p)|)."""
    p, q = _check_offdiag(p, q)
    return kernel_at(terms, p, q, log_ratio(p, q))


def angular_reduce(pointwise_kernel, l, p, q, tol=1e-10):
    """Channel-l reduction 2 pi Int_{-1}^{1} kernel(|p - q|) P_l(t) dt.

    ``pointwise_kernel`` maps the distance |p - q| between 3-momenta of
    magnitudes p, q at angle arccos(t) to the kernel value.  Adaptive
    quadrature oracle for the closed-form channel kernels.
    """
    from scipy.integrate import quad

    if l not in (0, 1, 2, 3):
        raise DomainError(f"angular_reduce supports l in 0..3, got {l}")
    p, q = _check_offdiag(p, q)
    p_l = legendre.Legendre.basis(l)

    def integrand(t):
        dist = np.sqrt(max(p * p + q * q - 2 * p * q * t, 0.0))
        return pointwise_kernel(dist) * float(p_l(t))

    val, err = quad(integrand, -1.0, 1.0, epsabs=tol, epsrel=tol, limit=400)
    if abs(err) > 10 * tol * max(1.0, abs(val)):
        raise NumericalError(
            f"angular reduction did not converge to {tol} (error estimate {err})",
            payload=2 * np.pi * val,
        )
    return 2 * np.pi * val


def spherical_bessel_transform(l, samples, grid):
    """Order-l spherical Bessel transform between radial representations.

    g(k) = sqrt(2/pi) Int f(r) j_l(k r) r^2 dr, evaluated on the grid's own
    nodes.  The transform is its own inverse: applied twice it returns f,
    to quadrature-level accuracy for functions resolved by the grid.
    """
    samples = np.asarray(samples)
    r = grid.nodes
    if samples.shape != r.shape:
        raise DomainError("sample count must match the grid")
    jl = spherical_jn(l, np.outer(r, r))
    return np.sqrt(2 / np.pi) * (jl * (grid.weights * r * r * samples)[None, :]).sum(axis=1)


def random_boundary(grid, rng):
    """Random smooth decaying boundary datum on the grid's mapping scale."""
    x = grid.nodes / grid.mapping_scale
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.uniform(0.5, 2.0)
    return (coef[0] + coef[1] * x + coef[2] * x * x) * np.exp(-g * x * x)


def field_arrays(u, rates, b, sigma, x):
    """(phi, d_x phi), (n_x, n_p) each, of u(p) exp(-rate(p) x) + b(p) e(x)
    with the envelope e = e sigma x exp(-sigma x), at the nodes x."""
    g = np.exp(-np.outer(x, rates))
    e = np.e * sigma * x * np.exp(-sigma * x)
    de = np.e * sigma * (1.0 - sigma * x) * np.exp(-sigma * x)
    values = g * u + np.outer(e, b)
    derivative = -rates * g * u + np.outer(de, b)
    return values, derivative


def materialized_energy(u, rates, b, sigma, k2, x_grid):
    """Sum_x w_x (|d_x phi|^2 + k2 |phi|^2) per mode of that field, summed
    over its materialized (n_x, n_p) arrays."""
    values, derivative = field_arrays(u, rates, b, sigma, x_grid.nodes)
    return x_grid.weights @ (np.abs(derivative) ** 2 + k2 * np.abs(values) ** 2)


def materialized_mode_energies(rates, k2, x_grid, sigmas):
    """A, C, D of ``extension.mode_energies``, per mode, summed over the
    materialized arrays of the decay (u = 1, b = 0) and of each envelope
    (u = 0, b = 1): the energy pairing Sum_x w (f' h' + k2 f h) of each pair."""
    rates = np.asarray(rates, dtype=float)
    x, w = x_grid.nodes, x_grid.weights
    one, zero = np.ones(rates.shape), np.zeros(rates.shape)
    g, dg = field_arrays(one, rates, zero, 1.0, x)
    a = w @ (dg * dg + k2 * g * g)
    c, d = [], []
    for sigma in sigmas:
        e, de = field_arrays(zero, rates, one, sigma, x)
        c.append(w @ (dg * de + k2 * g * e))
        d.append(w @ (de * de + k2 * e * e))
    shape = (len(c),) + rates.shape
    return a, np.reshape(c, shape), np.reshape(d, shape)
