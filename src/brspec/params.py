"""Physical parameters and unit conventions.

Atomic units throughout: hbar = 1, e^2 = 1, electron mass m = 1, and the
speed of light c = 1/alpha = 137.035999084.  With these conventions the
nuclear charge Z is the only coupling in the Coulomb problem and energies
come out in hartree.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 137.035999084

#: Sharp constant in the projected (positive-subspace) Coulomb inequality:
#: (pi/2 + 2/pi) / 2.  The coupling window Z/c < 1/TIX_CONSTANT keeps the
#: projected Coulomb form strictly subordinate to the kinetic form.
TIX_CONSTANT = (np.pi / 2 + 2 / np.pi) / 2

#: Kato/Herbst constant for (psi, |x|^-1 psi) <= (pi/2)(psi, sqrt(-Lap) psi).
KATO_CONSTANT = np.pi / 2

#: Hardy constant for || |x|^-1 psi || <= 2 || grad psi ||.
HARDY_CONSTANT = 2.0


@dataclass(frozen=True)
class PhysParams:
    """Physical constants for one solver run.

    c: speed of light, m: particle mass, Z: nuclear charge (Z >= 0).
    """

    c: float = SPEED_OF_LIGHT
    m: float = 1.0
    Z: float = 1.0

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise DomainError(f"speed of light must be positive, got {self.c}")
        if not (self.m > 0 and np.isfinite(self.m)):
            raise DomainError(f"mass must be positive, got {self.m}")
        if not (self.Z >= 0 and np.isfinite(self.Z)):
            raise DomainError(f"nuclear charge must be nonnegative, got {self.Z}")

    @property
    def mc2(self):
        """Rest energy m c^2, the essential-spectrum edge."""
        return self.m * self.c**2

    @property
    def coupling(self):
        """Dimensionless Coulomb coupling Z/c."""
        return self.Z / self.c

    @property
    def critical_charge(self):
        """Largest charge with a strictly subordinate projected Coulomb form."""
        return self.c / TIX_CONSTANT

    def in_subordinacy_window(self):
        """True when Z/c < 2/(pi/2 + 2/pi), i.e. Z below the critical charge."""
        return self.coupling * TIX_CONSTANT < 1.0
