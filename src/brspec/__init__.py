"""Spectral solver and verification suite for the Brown-Ravenhall operator.

The projected Dirac operator of a one-electron atom is represented through
its block-diagonalizing momentum transformation, reduced to angular
channels, discretized on radial momentum grids, and solved by a dense
eigensolver plus an independent deflated constrained minimization of the
boundary energy of the half-space extension problem.  Companion
experiments verify the sharp inequality constants, the critical coupling
window, the cutoff-commutator decay rate, and the small-scale behaviour
of the transformed potential.
"""

__version__ = "0.1.0"

from .params import PhysParams
