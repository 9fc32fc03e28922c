"""Half-space extension of boundary data and the Dirichlet-to-Neumann map.

A momentum-space boundary function u(p) on a radial grid extends into the
half space x > 0 as the multiplier field u(p) exp(-lambda(p) x), which is
the unique finite-energy solution of

    -d^2_x v + (c^2 p^2 + m^2 c^4) v = 0,   v(0, p) = u(p),

and realizes sqrt(-c^2 Lap + m^2 c^4) as the Neumann trace -d_x v(0, .).
Everything is channel-reduced: one radial momentum variable plus the
extension variable x.  The x-quadrature only serves to cross-validate the
closed-form energies.

A field is its trace's decay plus at most one zero-trace part,
u(p) g(x, p) + b(p) e(x): the profile g = exp(-tau(p) x)
(``DecayProfile``; tau = lambda for the multiplier extension) carries the
trace, and the momentum-independent envelope e = e sigma x exp(-sigma x)
(``EnvelopeProfile``) vanishes at x = 0.  This is the split of the
minimality argument: any finite-energy extension of u is the multiplier
field plus a part with zero trace.  The product-grid
quadrature of an energy density |d_x phi|^2 + k^2 |phi|^2 is therefore
evaluated per mode as three x-integrals,

    |u|^2 Sum w (g'^2 + k^2 g^2) + 2 Re(conj(u) b) Sum w (g' e' + k^2 g e)
        + |b|^2 Sum w (e'^2 + k^2 e^2),

the same quadrature on the same x-grid summed in another order, from the
profiles' tables instead of complex (n_x, n_p) field arrays.  A decay
profile holds its exp table and its per-mode square integral, built once;
the multiplier profile depends on the grid, the x-grid and the parameters
alone, so a run builds it once (``multiplier_profile``) and every sample
reuses it.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import lambda_of
from .errors import DomainError
from .grids import RadialGrid, gauss_panels
from .params import PhysParams


@dataclass
class XGrid:
    """Quadrature grid on [0, x_max]: node 0 carries the trace, weight 0."""

    nodes: np.ndarray
    weights: np.ndarray


def build_x_grid(x_max, n_nodes=400):
    """Composite 8-point Gauss-Legendre panels geometrically graded toward x = 0.

    The grading resolves boundary layers exp(-2 lambda x) for lambda up to
    about 1/(1e-10 x_max) while the outer panels capture the slow modes out
    to x_max.
    """
    if not x_max > 0:
        raise DomainError("x_max must be positive")
    n_panels = max(2, int(n_nodes) // 8)
    edges = np.concatenate([[0.0], x_max * np.geomspace(1e-10, 1.0, n_panels)])
    x, w = gauss_panels(edges[:-1], edges[1:], 8)
    nodes = np.concatenate([[0.0], x.ravel()])
    weights = np.concatenate([[0.0], w.ravel()])
    return XGrid(nodes, weights)


def default_x_grid(params: PhysParams):
    """Default extension grid: x_max = 40 / (m c^2), 400 nodes."""
    return build_x_grid(40.0 / params.mc2)


@dataclass
class BoundaryFunction:
    """Momentum-space radial boundary datum on a fixed channel."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.nodes.shape:
            raise DomainError("boundary values must match the grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("boundary values must be finite")
        self.values = v.astype(complex)


class DecayProfile:
    """Profile exp(-rate(p) x) on an x-grid: its table and per-mode square integral.

    ``values`` is the (n_x, n_p) table and ``square`` the x-quadrature
    Sum_x w_x exp(-2 rate(p) x) per mode, both computed once, on construction.
    """

    def __init__(self, rates, x_grid: XGrid):
        self.rates = rates
        self.x_grid = x_grid
        self.values = np.exp(np.outer(x_grid.nodes, -rates))
        self.square = x_grid.weights @ np.square(self.values)


class EnvelopeProfile:
    """Momentum-independent profile e sigma x exp(-sigma x): unit peak, 0 at x = 0.

    ``values`` and ``derivative`` are its value and x-derivative at the nodes.
    """

    def __init__(self, sigma, x_grid: XGrid):
        x = x_grid.nodes
        peak = np.e * sigma
        decay = np.exp(-sigma * x)
        self.x_grid = x_grid
        self.values = peak * x * decay
        self.derivative = peak * (1.0 - sigma * x) * decay


@dataclass(frozen=True)
class ExtensionField:
    """Field u(p) exp(-tau(p) x) + b(p) e(x) on the (x, p) product grid.

    The trace u = ``boundary.values`` decays with the profile ``decay``;
    ``coefficient`` b and ``envelope`` e, both None or both given, add a
    zero-trace part.  The field equals its trace at x = 0 by construction.
    """

    boundary: BoundaryFunction
    decay: DecayProfile
    coefficient: np.ndarray
    envelope: EnvelopeProfile

    def __post_init__(self):
        n = self.boundary.grid.n
        if self.envelope is None:
            ok = self.coefficient is None
        else:
            ok = (np.shape(self.coefficient) == (n,)
                  and self.envelope.x_grid is self.decay.x_grid)
        if not ok or np.shape(self.decay.rates) != (n,):
            raise DomainError("field parts must be (n_p,) per mode on one x-grid")


def multiplier_profile(grid: RadialGrid, x_grid: XGrid, params: PhysParams) -> DecayProfile:
    """The multiplier profile exp(-lambda(p) x); build once, pass to ``extend``."""
    return DecayProfile(lambda_of(grid.nodes, params), x_grid)


def extend(u: BoundaryFunction, x_grid: XGrid, params: PhysParams,
           multiplier: DecayProfile) -> ExtensionField:
    """Multiplier extension u(p) exp(-lambda(p) x).

    ``multiplier`` is ``multiplier_profile(u.grid, x_grid, params)``.
    """
    if (multiplier.x_grid is not x_grid
            or not np.array_equal(multiplier.rates, lambda_of(u.grid.nodes, params))):
        raise DomainError("not the multiplier profile of this grid, x-grid and parameters")
    return ExtensionField(u, multiplier, None, None)


def exponential_field(u: BoundaryFunction, rates, x_grid: XGrid) -> ExtensionField:
    """Field u(p) exp(-tau(p) x) for arbitrary positive per-mode rates."""
    rates = np.broadcast_to(np.asarray(rates, dtype=float), u.grid.nodes.shape)
    if np.any(rates <= 0):
        raise DomainError("decay rates must be positive")
    return ExtensionField(u, DecayProfile(rates, x_grid), None, None)


def dtn_apply(u: BoundaryFunction, params: PhysParams) -> BoundaryFunction:
    """Dirichlet-to-Neumann image p -> lambda(p) u(p)."""
    return BoundaryFunction(u.grid, lambda_of(u.grid.nodes, params) * u.values)


def dtn_finite_difference(u: BoundaryFunction, params: PhysParams):
    """Richardson-extrapolated centered difference of -d_x v(0, p) per node.

    Steps scale as h = 1e-2 / lambda(p) so every mode is resolved alike;
    one Richardson step removes the O(h^2) error of the centered stencil.
    Independent of the multiplier formula used by dtn_apply.
    """
    lam = lambda_of(u.grid.nodes, params)
    h = 1e-2 / lam

    def deriv(step):
        # field value at x = +-step per mode, from the extension problem's
        # unique solution evaluated off the grid
        return (np.exp(lam * step) - np.exp(-lam * step)) / (2 * step) * u.values

    d1 = deriv(h)
    d2 = deriv(h / 2)
    return BoundaryFunction(u.grid, (4 * d2 - d1) / 3)


@dataclass
class EnergyResult:
    """Quadrature energy value with its analytic truncation-tail bound."""

    value: float
    tail_bound: float
    tail_ok: bool


def _product_quadrature(field: ExtensionField, k2):
    """Sum_x w_x Sum_p W_p (|d_x phi|^2 + k2(p) |phi|^2) of a field, per mode.

    For phi = u g + b e, with g = exp(-tau x) and e the envelope, the x-sum
    at each mode is three integrals: |u|^2 (tau^2 + k2) Sum w g^2, read from
    the profile's stored square; 2 Re(conj(u) b) Sum w (g' e' + k2 g e), two
    matrix-vector products of the envelope with the table; and
    |b|^2 Sum w (e'^2 + k2 e^2).
    """
    g, u = field.decay, field.boundary.values
    density = np.real(np.conj(u) * u) * (g.rates**2 * g.square + k2 * g.square)
    if field.envelope is not None:
        w, e, b = g.x_grid.weights, field.envelope, field.coefficient
        cross = (-g.rates * ((w * e.derivative) @ g.values)
                 + k2 * ((w * e.values) @ g.values))
        density = (density + np.real(np.conj(u) * b) * 2.0 * cross
                   + np.real(np.conj(b) * b) * (w @ (e.derivative * e.derivative)
                                                + k2 * (w @ (e.values * e.values))))
    return float(density @ field.boundary.grid.l2_weights)


def momentum_energy(u: BoundaryFunction, params: PhysParams):
    """Closed-form energy Int lambda(p) |u(p)|^2 p^2 dp of u's multiplier extension."""
    lam = lambda_of(u.grid.nodes, params)
    return float(np.real(np.dot(u.grid.l2_weights * lam, np.abs(u.values) ** 2)))


def x_quadrature_energy(field: ExtensionField, params: PhysParams) -> EnergyResult:
    """Weighted H^1 energy Int |d_x phi|^2 + (c^2 p^2 + m^2 c^4) |phi|^2 of a
    field over the product grid, evaluated per mode from its parts."""
    grid = field.boundary.grid
    lam2 = params.c**2 * grid.nodes**2 + params.mc2**2
    val = _product_quadrature(field, lam2)
    # bound the discarded tail x > x_max as if every mode kept decaying at
    # its slowest admissible rate lambda(p); below 1e-12 of the energy it is ok
    far = field.boundary.values * field.decay.values[-1]
    if field.envelope is not None:
        far = far + field.coefficient * field.envelope.values[-1]
    tail = float(np.dot(grid.l2_weights * np.sqrt(lam2), np.abs(far) ** 2))
    return EnergyResult(val, tail, tail <= 1e-12 * max(val, 1e-300))


def minimality_check(u: BoundaryFunction, profile, rate, amplitude, params: PhysParams,
                     multiplier: DecayProfile):
    """Energies of the multiplier extension and a zero-trace competitor.

    The competitor adds amplitude * b(p) e sigma x exp(-sigma x), with b the
    given ``profile`` and sigma = ``rate``; the envelope has unit peak, so
    the competitor carries an O(1) energy perturbation at unit amplitude.
    Returns the EnergyResults (E_multiplier, E_perturbed) by x-quadrature;
    the multiplier field minimizes the energy among extensions sharing its
    trace, so E_perturbed >= E_multiplier up to quadrature error.
    ``multiplier`` is passed to ``extend``.
    """
    base = extend(u, multiplier.x_grid, params, multiplier)
    competitor = ExtensionField(u, multiplier, amplitude * np.asarray(profile, dtype=complex),
                                EnvelopeProfile(rate, multiplier.x_grid))
    return x_quadrature_energy(base, params), x_quadrature_energy(competitor, params)


@dataclass
class TraceMarginResult:
    """Margin of the boundary trace inequality and its natural scale."""

    margin: float
    scale: float


def trace_inequality_margin(field: ExtensionField, params: PhysParams) -> TraceMarginResult:
    """Margin of Int(|d_x phi|^2 + m^2 c^4 |phi|^2) - m c^2 |phi_tr|^2 >= 0."""
    grid = field.boundary.grid
    positive = _product_quadrature(field, params.mc2**2)
    trace_term = params.mc2 * float(np.dot(grid.l2_weights, np.abs(field.boundary.values) ** 2))
    return TraceMarginResult(positive - trace_term, positive)


def random_boundary(grid: RadialGrid, rng) -> BoundaryFunction:
    """Random smooth decaying boundary datum on the grid's mapping scale."""
    x = grid.nodes / grid.mapping_scale
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.uniform(0.5, 2.0)
    vals = (coef[0] + coef[1] * x + coef[2] * x * x) * np.exp(-g * x * x)
    return BoundaryFunction(grid, vals)
