"""The free relativistic dispersion and the Foldy-Wouthuysen mixing coefficients.

lambda(p) = sqrt(c^2 p^2 + m^2 c^4) is the kinetic energy and the
Dirichlet-to-Neumann multiplier of the half-space extension; the mixing
coefficients a_pm(p) are the scalar content of the momentum-dependent
unitary U(p) = a_+ I + a_- beta (alpha.p)/|p| that block-diagonalizes the
free Dirac symbol, which is all of it a channel kernel needs.  The 4x4
algebra itself (the symbol, the unitary, the projectors, the difference
kernel bound and the channel rotation) lives in ``tests/oracles.py``, the
oracle these two are checked against.
"""

import numpy as np

from .errors import DomainError
from .params import PhysParams


def lambda_of(p_mag, params: PhysParams):
    """Relativistic dispersion sqrt(c^2 p^2 + m^2 c^4); p_mag may be an array."""
    p_mag = np.asarray(p_mag, dtype=float)
    if np.any(p_mag < 0):
        raise DomainError("momentum magnitude must be nonnegative")
    return np.sqrt(params.c**2 * p_mag**2 + params.mc2**2)


def a_plus_minus(p_mag, params: PhysParams):
    """Mixing coefficients a_pm = sqrt((1 pm m c^2 / lambda(p)) / 2).

    Satisfy a_plus^2 + a_minus^2 = 1, a_plus in (1/sqrt(2), 1],
    a_minus in [0, 1/sqrt(2)).  a_minus is evaluated as
    (c p / lambda) / (2 a_plus), which equals c p / sqrt(2 lambda (lambda + m c^2))
    and has no cancellation where the textbook square root cancels
    catastrophically (c p << m c^2).
    """
    lam = lambda_of(p_mag, params)
    ap = np.sqrt(0.5 * (lam + params.mc2) / lam)
    am = params.c * np.asarray(p_mag, dtype=float) / lam / (2.0 * ap)
    return ap, am
