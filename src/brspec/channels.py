"""Angular-momentum channel reduction of radial operators to scalar kernels.

For a rotationally invariant potential the transformed operator block-
diagonalizes over channels kappa; each channel sees a scalar integral
kernel k(p, q) on (0, inf)^2 acting through the measure q^2 dq.  This
module provides the Coulomb channel kernels (Legendre Q closed forms),
the smooth Gaussian-multiplier kernels, the adaptive angular-reduction
oracle, and the radial spherical Bessel transform used to cross-check
position- and momentum-space representations.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn

from .dirac import a_plus_minus
from .errors import ConfigurationError, DomainError, NumericalError, SingularPointError
from .params import PhysParams

GAUSSIAN_PROFILE = "gaussian"

MAX_CHANNEL = 3  # |kappa| <= 3, orbital momenta l <= 3


@dataclass(frozen=True)
class ChannelSpec:
    """Angular channel kappa with its upper/lower orbital quantum numbers."""

    kappa: int
    l_up: int
    l_down: int
    j: float

    @classmethod
    def from_kappa(cls, kappa):
        kappa = int(kappa)
        if kappa == 0:
            raise DomainError("kappa must be a nonzero integer")
        if abs(kappa) > MAX_CHANNEL:
            raise DomainError(f"|kappa| <= {MAX_CHANNEL} supported, got {kappa}")
        l_up = kappa if kappa > 0 else -kappa - 1
        mk = -kappa
        l_down = mk if mk > 0 else kappa - 1
        return cls(kappa=kappa, l_up=l_up, l_down=l_down, j=abs(kappa) - 0.5)


_LEGENDRE_P = (
    lambda z: np.ones_like(z),
    lambda z: z,
    lambda z: 1.5 * z * z - 0.5,
    lambda z: 2.5 * z**3 - 1.5 * z,
)

# Q_l(z) = P_l(z) Q_0(z) - W_{l-1}(z)
_LEGENDRE_W = (
    lambda z: np.zeros_like(z),
    lambda z: np.ones_like(z),
    lambda z: 1.5 * z,
    lambda z: 2.5 * z * z - 2.0 / 3.0,
)


def legendre_q(l, z):
    """Legendre function of the second kind Q_l(z) for z > 1, l <= 3.

    Q_0(z) = ln((z+1)/(z-1))/2, Q_1 = z Q_0 - 1, higher orders via
    Q_l = P_l Q_0 - W_{l-1}; beyond z = 2 the closed form cancels and the
    inverse-power series takes over.
    """
    if l not in (0, 1, 2, 3):
        raise DomainError(f"legendre_q supports l in 0..3, got {l}")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 1.0):
        raise DomainError("legendre_q requires z > 1")
    out, _ = _q_l_split(l, z, lambda near: 0.5 * np.log((z[near] + 1) / (z[near] - 1)))
    return out if out.shape else float(out)


def _check_offdiag(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("kernel momenta must be positive")
    if np.any(p == q):
        raise SingularPointError("channel kernel evaluated on its diagonal p == q")
    return p, q


# Large-argument series Q_l(z) = sum_k c_k u^(l+1+2k), u = 1/z: the closed
# form P_l(z) Q_0(z) - W_{l-1}(z) cancels catastrophically once z >> 1,
# where Q_l itself is O(z^-(l+1)) but both terms are O(z^l log z).
_SERIES_SWITCH = 2.0
_SERIES_TERMS = 30
# tail bound, relative to the leading term, below which the series stops
# (half an ulp is 1.1e-16)
_SERIES_TOL = 5e-17
# far points are summed in these z tiers, each with the term count its
# smallest z needs: up to 27 coefficients just above z = 2, 9 above 8 and
# 4 above 128
_SERIES_TIERS = (_SERIES_SWITCH, 8.0, 128.0, np.inf)


def _series_coefficients(l):
    c = [(1.0, 1.0 / 3.0, 2.0 / 15.0, 2.0 / 35.0)[l]]
    for k in range(_SERIES_TERMS):
        c.append(c[-1] * ((l + 2 * k + 1) * (l + 2 * k + 2)) / ((2 * k + 2) * (2 * l + 2 * k + 3)))
    return c


_SERIES_COEFFS = np.array([_series_coefficients(l) for l in range(MAX_CHANNEL + 1)])


def _series_terms(l, umax):
    """Index n of the last coefficient needed: the tail after c_n is below _SERIES_TOL at umax.

    The coefficients decrease from k = 1 on, so the tail after c_n is at
    most c_{n+1} u^(2n+2) / (1 - u^2), and the series is at least c_0.
    """
    c = _SERIES_COEFFS[l]
    u2 = umax * umax
    tail = c[1:] * u2 ** np.arange(1, c.size) / ((1.0 - u2) * c[0])
    return int(np.argmax(tail < _SERIES_TOL)) if tail[-1] < _SERIES_TOL else _SERIES_TERMS


def _q_l_series(l, u):
    """Series for Q_l at u = 1/z < 1/2, by Horner, as long as the largest u needs."""
    coeffs = _SERIES_COEFFS[l, :_series_terms(l, u.max()) + 1]
    u2 = u * u
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u2
        acc += c
    return acc * u ** (l + 1)


def _q_l_split(l, z, log_term):
    """Q_l(z) = smooth + logcoef * L for z > 1, the one Q_l evaluator.

    Up to z = 2 the closed form Q_l = P_l Q_0 - W_{l-1} holds with the
    caller's Q_0 = log_term(near) - L, so smooth = P_l log_term - W_{l-1}
    and logcoef = -P_l; ``log_term`` maps the boolean mask of those points
    to its values there.  Beyond z = 2 the series, summed tier by tier of
    _SERIES_TIERS, gives all of Q_l and logcoef = 0.  A caller whose
    log_term is Q_0 itself reads Q_l = smooth.
    """
    far = z > _SERIES_SWITCH
    smooth = np.empty(z.shape, dtype=float)
    logcoef = np.zeros(z.shape, dtype=float)
    zn = z[~far]
    pl = _LEGENDRE_P[l](zn)
    smooth[~far] = pl * log_term(~far) - _LEGENDRE_W[l](zn)
    logcoef[~far] = -pl
    zf = z[far]
    series = np.empty(zf.shape, dtype=float)
    for lo, hi in zip(_SERIES_TIERS[:-1], _SERIES_TIERS[1:]):
        tier = (zf > lo) & (zf <= hi)
        if tier.any():
            series[tier] = _q_l_series(l, 1.0 / zf[tier])
    smooth[far] = series
    return smooth, logcoef


def split_value(split, p, q):
    """Pointwise kernel value smooth + logcoef * ln|p - q| of a (smooth, logcoef) split.

    The logarithm is taken only where logcoef != 0, near the diagonal.
    """
    smooth, logcoef = split
    value = np.array(smooth, dtype=float)
    near = logcoef != 0
    dist = np.broadcast_to(np.abs(np.subtract(p, q)), value.shape)
    value[near] += logcoef[near] * np.log(dist[near])
    return value


def coulomb_radial_kernel(l, p, q, params: PhysParams):
    """Channel-l momentum kernel of -Z/|x|: -Z Q_l((p^2+q^2)/(2pq)) / (pi p q)."""
    p, q = _check_offdiag(p, q)
    return split_value(coulomb_kernel_split(l, p, q, params), p, q)


def br_channel_kernel(channel: ChannelSpec, p, q, params: PhysParams, fw_scale=1.0):
    """Transformed-potential channel kernel for the Coulomb potential.

    k_kappa(p,q) = a+(p) a+(q) k_{l_up}(p,q) + a-(p) a-(q) k_{l_down}(p,q).
    ``fw_scale`` evaluates the mixing coefficients at (fw_scale * momentum),
    which is what the small-scale rescaling experiment needs.
    """
    p, q = _check_offdiag(p, q)
    return split_value(br_kernel_split(channel, p, q, params, fw_scale), p, q)


def coulomb_kernel_split(l, p, q, params: PhysParams):
    """Split the Coulomb channel kernel into smooth + logcoef * ln|p-q|.

    Returns (smooth, logcoef) with kernel = smooth + logcoef * ln|p-q|;
    both factors are smooth across the diagonal.  Far from the diagonal
    (z > 2, where the kernel is regular anyway) the whole kernel moves
    into the smooth part, evaluated by the stable series.  This split is
    the one kernel representation: quadratures integrate the logarithm
    explicitly and ``split_value`` gives the pointwise value.
    """
    if l not in (0, 1, 2, 3):
        raise DomainError(f"channel kernels support l in 0..3, got {l}")
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    z = (p * p + q * q) / (2 * p * q)
    pref = -params.Z / (np.pi * (p * q))
    smooth, logcoef = _q_l_split(l, z, lambda near: np.log(p[near] + q[near]))
    return pref * smooth, pref * logcoef


def br_kernel_split(channel: ChannelSpec, p, q, params: PhysParams, fw_scale=1.0):
    """Smooth/log split of the transformed-potential channel kernel."""
    ap_p, am_p = a_plus_minus(fw_scale * np.asarray(p, dtype=float), params)
    ap_q, am_q = a_plus_minus(fw_scale * np.asarray(q, dtype=float), params)
    s_up, g_up = coulomb_kernel_split(channel.l_up, p, q, params)
    s_dn, g_dn = coulomb_kernel_split(channel.l_down, p, q, params)
    up, dn = ap_p * ap_q, am_p * am_q
    return up * s_up + dn * s_dn, up * g_up + dn * g_dn


def angular_reduce(pointwise_kernel, l, p, q, tol=1e-10):
    """Channel-l reduction 2 pi Int_{-1}^{1} kernel(|p - q|) P_l(t) dt.

    ``pointwise_kernel`` maps the distance |p - q| between 3-momenta of
    magnitudes p, q at angle arccos(t) to the kernel value.  Adaptive
    quadrature oracle for the closed-form channel kernels.
    """
    if l not in (0, 1, 2, 3):
        raise DomainError(f"angular_reduce supports l in 0..3, got {l}")
    p, q = _check_offdiag(p, q)

    def integrand(t):
        dist = np.sqrt(max(p * p + q * q - 2 * p * q * t, 0.0))
        return pointwise_kernel(dist) * float(_LEGENDRE_P[l](np.asarray(t, dtype=float)))

    val, err = quad(integrand, -1.0, 1.0, epsabs=tol, epsrel=tol, limit=400)
    if abs(err) > 10 * tol * max(1.0, abs(val)):
        raise NumericalError(
            f"angular reduction did not converge to {tol} (error estimate {err})",
            payload=2 * np.pi * val,
        )
    return 2 * np.pi * val


def scaled_sph_bessel_i(l, a):
    """exp(-a) i_l(a) for the modified spherical Bessel i_l, l <= 3.

    Evaluated in closed form for a >= 1 and by series below; stable for
    all nonnegative a including very large arguments.
    """
    if l not in (0, 1, 2, 3):
        raise DomainError(f"scaled_sph_bessel_i supports l in 0..3, got {l}")
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a < 1.0
    s = a[small]
    b = a[~small]
    em2 = np.exp(-2 * b)
    sh, ch = 0.5 * (1 - em2), 0.5 * (1 + em2)
    if l == 0:
        big = sh / b
    elif l == 1:
        big = (b * ch - sh) / (b * b)
    elif l == 2:
        big = ((b * b + 3) * sh - 3 * b * ch) / b**3
    else:
        big = ((b**3 + 15 * b) * ch - (6 * b * b + 15) * sh) / b**4
    dfact = (1.0, 3.0, 15.0, 105.0)[l]
    term = np.ones_like(s)
    acc = np.ones_like(s)
    s2 = s * s
    for k in range(12):
        term = term * s2 / ((2 * k + 2) * (2 * l + 2 * k + 3))
        acc += term
    out[~small] = big
    out[small] = s**l / dfact * acc * np.exp(-s)
    return out


def multiplier_channel_kernel(chi_profile, l, R, p, q):
    """Channel-l momentum kernel of multiplication by chi(|y|/R).

    Only the Gaussian profile chi(y) = exp(-|y|^2/2) is supported; its
    channel kernel is smooth:
        2 R^3 / sqrt(2 pi) exp(-R^2 (p-q)^2 / 2) [e^-a i_l(a)],  a = R^2 p q.
    """
    if chi_profile != GAUSSIAN_PROFILE:
        raise ConfigurationError(f"unsupported cutoff profile {chi_profile!r}")
    if not R > 0:
        raise DomainError("cutoff scale R must be positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("kernel momenta must be positive")
    a = R * R * p * q
    return (
        2.0 * R**3 / np.sqrt(2 * np.pi) * np.exp(-0.5 * R * R * (p - q) ** 2)
        * scaled_sph_bessel_i(l, a)
    )


def spherical_bessel_transform(l, samples, grid, direction="forward"):
    """Order-l spherical Bessel transform between radial representations.

    g(k) = sqrt(2/pi) Int f(r) j_l(k r) r^2 dr, evaluated on the grid's own
    nodes; the inverse has the identical form.  Quadrature-level accuracy
    for functions resolved by the grid.
    """
    if direction not in ("forward", "inverse"):
        raise DomainError(f"direction must be forward or inverse, got {direction}")
    samples = np.asarray(samples)
    r = grid.nodes
    w = grid.weights
    if samples.shape != r.shape:
        raise DomainError("sample count must match the grid")
    kr = np.outer(r, r)
    jl = spherical_jn(l, kr)
    return np.sqrt(2 / np.pi) * (jl * (w * r * r * samples)[None, :]).sum(axis=1)
