"""Angular-momentum channel reduction of radial operators to scalar kernels.

For a rotationally invariant potential the transformed operator block-
diagonalizes over channels kappa; each channel sees a scalar integral
kernel k(p, q) on (0, inf)^2 acting through the measure q^2 dq.  This
module provides the one Q_l(cosh x) evaluator (closed form near the
diagonal, inverse-power series beyond), the Coulomb channel kernels as
Legendre-Q terms with their mixing factors and their value at a given
log-ratio x (``kernel_at``), and the smooth Gaussian-multiplier kernels.
The adaptive angular-reduction oracle, the checked pointwise value off the
diagonal and the radial spherical Bessel transform live in
``tests/oracles.py``.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dirac import a_plus_minus
from .errors import DomainError
from .params import PhysParams

MAX_CHANNEL = 3  # |kappa| <= 3, orbital momenta l <= 3


@dataclass(frozen=True)
class ChannelSpec:
    """Angular channel kappa with its upper/lower orbital quantum numbers."""

    kappa: int
    l_up: int
    l_down: int

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
        return cls(kappa=kappa, l_up=l_up, l_down=l_down)


#: S_l(0) = (1/pi) Int Q_l(cosh x) dx over the real line, l = 0..3: the
#: channel-l Coulomb form's Mellin symbol at its sup, tau = 0.  For p >> mc
#: the form over the kinetic form c Int |h|^2 is diagonal in the log-ratio
#: variable, with symbol S_l(tau) <= S_l(0).  The table fixes every sharp
#: constant below and each channel's critical charge.
COULOMB_SYMBOL_AT_ZERO = (np.pi / 2, 2 / np.pi, np.pi / 8, 8 / (9 * np.pi))

#: Kato/Herbst constant for (psi, |x|^-1 psi) <= (pi/2)(psi, sqrt(-Lap) psi): S_0(0).
KATO_CONSTANT = COULOMB_SYMBOL_AT_ZERO[0]

#: Sharp constant of the projected (positive-subspace) Coulomb inequality in
#: the channels kappa = +-1, (S_0(0) + S_1(0)) / 2 = (pi/2 + 2/pi) / 2.
TIX_CONSTANT = (COULOMB_SYMBOL_AT_ZERO[0] + COULOMB_SYMBOL_AT_ZERO[1]) / 2


def critical_charge(params: PhysParams, kappa):
    """The channel's critical charge c / S_kappa(0), S_kappa = (S_l_up + S_l_down) / 2.

    Below it the projected Coulomb form is strictly subordinate to the
    kinetic form in that channel; at kappa = +-1 it is c / TIX_CONSTANT.
    """
    ch = ChannelSpec.from_kappa(kappa)
    symbol = (COULOMB_SYMBOL_AT_ZERO[ch.l_up] + COULOMB_SYMBOL_AT_ZERO[ch.l_down]) / 2
    return params.c / symbol


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


def legendre_q_cosh(ls, x):
    """Q_l(cosh x) for each l in ls at x != 0, one array per l.

    With x = ln(q/p) this is the whole (p, q)-dependence of the Coulomb
    channel kernel beyond its prefactor: z = (p^2+q^2)/(2pq) = cosh x.  The
    logarithm enters as Q_0(cosh x) = -ln tanh(|x|/2), which is scale-free
    and accurate however close x is to the diagonal x = 0.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    return _q_l_split(ls, np.cosh(ax), lambda near: -np.log(np.tanh(0.5 * ax[near])))[0]


def legendre_q_cosh_split(ls, x):
    """Q_l(cosh x) = smooth + logcoef * ln|x| for each l in ls at x != 0, two lists of arrays.

    Both parts are smooth through x = 0, so a quadrature with the weight
    ln|x| can take the logarithm; beyond z = cosh x = 2, logcoef is 0.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    return _q_l_split(ls, np.cosh(ax), lambda near: np.log(ax[near] / np.tanh(0.5 * ax[near])))


def log_ratio(p, q):
    """|ln(q/p)| to a few ulp, also next to the diagonal where q/p rounds to 1."""
    return np.log1p(np.abs(q - p) / np.minimum(p, q))


def _check_orders(ls):
    for l in ls:
        if l not in (0, 1, 2, 3):
            raise DomainError(f"orders l in 0..3 are supported, got {l}")


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


def _q_l_split(ls, z, log_term):
    """Q_l(cosh x) = smooth + logcoef * L for each l in ls at z = cosh x > 1, the one Q_l evaluator.

    Up to z = 2 the closed form Q_l = P_l Q_0 - W_{l-1} holds with the
    caller's Q_0(cosh x) = log_term(near) - L, so smooth = P_l log_term -
    W_{l-1} and logcoef = -P_l; ``log_term`` maps the boolean mask of those
    points to its values there.  Beyond z = 2 the series, summed tier by
    tier of _SERIES_TIERS, gives all of Q_l and logcoef = 0.  A caller whose
    log_term is Q_0(cosh x) = -ln tanh(|x|/2) reads Q_l = smooth; one whose
    L is ln|x| gets two parts smooth through x = 0.  Returns two lists with
    one array per l; the masks, the tiers and the log term are evaluated
    once for all orders.
    """
    far = z > _SERIES_SWITCH
    near = ~far
    zn = z[near]
    log_near = log_term(near)
    zf = z[far]
    tiers = []
    for lo, hi in zip(_SERIES_TIERS[:-1], _SERIES_TIERS[1:]):
        tier = (zf > lo) & (zf <= hi)
        if tier.any():
            tiers.append((tier, 1.0 / zf[tier]))
    smooth, logcoef = [], []
    for l in ls:
        s = np.empty(z.shape, dtype=float)
        g = np.zeros(z.shape, dtype=float)
        pl = _LEGENDRE_P[l](zn)
        s[near] = pl * log_near - _LEGENDRE_W[l](zn)
        g[near] = -pl
        series = np.empty(zf.shape, dtype=float)
        for tier, u in tiers:
            series[tier] = _q_l_series(l, u)
        s[far] = series
        smooth.append(s)
        logcoef.append(g)
    return smooth, logcoef


@dataclass(frozen=True)
class KernelTerms:
    """A channel kernel per unit charge as its Legendre-Q terms:

        k(p, q) = -1 / (pi p q) * sum_t f_t(p) f_t(q) Q_{l_t}(cosh x),  x = ln(q/p).

    The potential is linear in the charge, so the kernel carries none:
    every evaluator returns the unit-charge value, and each operator
    multiplies its potential by the charge once.  ``ls`` lists the orders l_t;
    ``mixing(p)`` returns the factors (f_1(p), ..., f_T(p)) in the same
    order, and None means every factor is 1 (the bare Coulomb kernel);
    ``factors`` always gives arrays.  Everything but the factors depends on
    x alone, which is what lets the assembly evaluate each Q_l value once.
    """

    ls: tuple
    mixing: Callable | None = None

    def __post_init__(self):
        _check_orders(self.ls)

    def factors(self, p):
        if self.mixing is None:
            return (np.ones(np.shape(p)),) * len(self.ls)
        return self.mixing(p)


def _fw_mixing(p, params, scale):
    return a_plus_minus(scale * np.asarray(p, dtype=float), params)


def coulomb_terms(l):
    """Channel-l Coulomb kernel per unit charge, -Q_l(cosh ln(q/p)) / (pi p q), no mixing."""
    return KernelTerms((l,))


def br_terms(channel: ChannelSpec, params: PhysParams, fw_scale=1.0):
    """Transformed-potential channel kernel per unit charge for the Coulomb potential.

    k_kappa(p,q) = a+(p) a+(q) k_{l_up}(p,q) + a-(p) a-(q) k_{l_down}(p,q).
    The mixing coefficients read only c and m of ``params``; ``fw_scale``
    evaluates them at (fw_scale * momentum), which is what the small-scale
    rescaling experiment needs.
    """
    return KernelTerms((channel.l_up, channel.l_down),
                       partial(_fw_mixing, params=params, scale=fw_scale))


def kernel_at(terms: KernelTerms, p, q, x):
    """Unit-charge kernel value at momenta p, q whose |ln(q/p)| the caller gives as x != 0.

    A caller that knows q - p without cancellation, such as a quadrature
    map, passes x = log1p(|q - p| / min(p, q)) from it; p, q and x broadcast.
    """
    mix = [fp * fq for fp, fq in zip(terms.factors(p), terms.factors(q))]
    qs = legendre_q_cosh(terms.ls, x)
    return -1.0 / (np.pi * (p * q)) * sum(m * v for m, v in zip(mix, qs))


def scaled_sph_bessel_i(ls, a):
    """exp(-a) i_l(a) for the modified spherical Bessel i_l, for each l in ls (l <= 3).

    Evaluated in closed form for a >= 1 and by series below; stable for
    all nonnegative a including very large arguments.  Returns one array
    per l; e^-2a with its sinh and cosh, and the series' s^2 and e^-s, are
    evaluated once for all orders.
    """
    _check_orders(ls)
    a = np.asarray(a, dtype=float)
    small = a < 1.0
    large = ~small
    s = a[small]
    b = a[large]
    em2 = np.exp(-2 * b)
    sh, ch = 0.5 * (1 - em2), 0.5 * (1 + em2)
    del em2
    s2 = s * s
    es = np.exp(-s)
    out = []
    for l in ls:
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
        for k in range(12):
            term = term * s2 / ((2 * k + 2) * (2 * l + 2 * k + 3))
            acc += term
        v = np.empty_like(a)
        v[large] = big
        v[small] = s**l / dfact * acc * es
        out.append(v)
    return out


def multiplier_channel_kernel(ls, R, p, q):
    """Channel-l momentum kernels of multiplication by the Gaussian cutoff chi(|y|/R),
    one array for each l in ls.

    The cutoff is chi(y) = exp(-|y|^2/2), and its channel kernel is smooth:
        2 R^3 / sqrt(2 pi) exp(-R^2 (p-q)^2 / 2) [e^-a i_l(a)],  a = R^2 p q.
    The Gaussian and a are evaluated once for all orders.
    """
    if not R > 0:
        raise DomainError("cutoff scale R must be positive")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p <= 0) or np.any(q <= 0):
        raise DomainError("kernel momenta must be positive")
    out = scaled_sph_bessel_i(ls, R * R * p * q)
    # the Gaussian, formed in place once the Bessel factors are done
    gauss = np.asarray(p - q)
    gauss *= gauss
    gauss *= -0.5 * R * R
    np.exp(gauss, out=gauss)
    gauss *= 2.0 * R**3 / np.sqrt(2 * np.pi)
    for v in out:
        v *= gauss
    return out
