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

from .params import PhysParams, SPEED_OF_LIGHT, HARDY_CONSTANT, KATO_CONSTANT, TIX_CONSTANT
from .errors import (BrspecError, ConfigurationError, DomainError, NumericalError,
                     SingularPointError)
from .dirac import (ALPHA, BETA, PAULI, SpinorMatrix4, a_plus_minus, channel_rotation,
                    dirac_symbol, difference_kernel_bound, fw_block_upper,
                    fw_difference_kernel, fw_unitary, lambda_of, projector_symbol,
                    spherical_spinor)
from .channels import (ChannelSpec, KernelTerms, angular_reduce, br_channel_kernel, br_terms,
                       coulomb_radial_kernel, coulomb_terms, legendre_q,
                       multiplier_channel_kernel, scaled_sph_bessel_i,
                       spherical_bessel_transform)
from .grids import (LogPanels, MetricH12, RadialGrid, assemble_h12_metric, build_grid,
                    build_log_grid, operator_norm_h12)
from .assemble import (DiscreteOperator, assemble_nonrel_operator, assemble_operator,
                       subtraction_integral_adaptive, subtraction_integrals,
                       subtraction_profile)
from .extension import (BoundaryFunction, DecayProfile, EnvelopeProfile, ExtensionField,
                        XGrid, build_x_grid, default_x_grid, dirichlet_energy, dtn_apply,
                        dtn_finite_difference, extend, exponential_field,
                        minimality_check, multiplier_profile, random_boundary,
                        trace_inequality_margin, zero_trace_bump)
from .spectra import (MinimizationTrace, SpectralResult, binding_curve, dense_spectrum,
                      minimize_pk, neumann_residual, nonrel_spectrum,
                      variational_spectrum)
from .experiments import (CommutatorDecayReport, CriticalScanReport, InequalityReport,
                          ScalingLimitReport, commutator_decay, critical_coupling_scan,
                          hardy_check, kato_check, scaling_limit, tix_check)
