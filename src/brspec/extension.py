"""Half-space extension of boundary data and the Dirichlet-to-Neumann map.

A momentum-space boundary function u(p) on a radial grid extends into the
half space x > 0 as the multiplier field u(p) exp(-lambda(p) x), which is
the unique finite-energy solution of

    -d^2_x v + (c^2 p^2 + m^2 c^4) v = 0,   v(0, p) = u(p),

and realizes sqrt(-c^2 Lap + m^2 c^4) as the Neumann trace -d_x v(0, .).
Everything is channel-reduced: one radial momentum variable plus the
extension variable x.  The x-quadrature only serves to cross-validate the
closed-form energies.

A field is a short sum of separable terms c_t(p) g_t(x, p) whose profiles
g_t are real and carry their analytic x-derivative: the decay
exp(-tau(p) x) (``DecayProfile``; tau = lambda for the multiplier
extension) or the momentum-independent envelope x exp(-sigma x)
(``EnvelopeProfile``).  The product-grid quadrature of an energy density
|d_x phi|^2 + k^2 |phi|^2 is therefore evaluated per mode,

    Sum_p W_p Sum_{s,t} Re(conj(c_s) c_t) Sum_x w_x (g_s' g_t' + k^2 g_s g_t),

the same quadrature on the same x-grid summed in another order, from the
profiles' x-integrals instead of complex (n_x, n_p) field arrays.  A decay
profile holds its exp table and its per-mode square integral, built once;
the multiplier profile depends on the grid, the x-grid and the parameters
alone, so a run builds it once (``multiplier_profile``) and every sample
reuses it.  ``ExtensionField.values`` and ``x_derivative`` materialize the
field for tests and inspection.
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
    Sum_x w_x exp(-2 rate(p) x) per mode, both computed once, on construction;
    the x-derivative is -rate(p) times the table.
    """

    def __init__(self, rates, x_grid: XGrid):
        self.rates = rates
        self.x_grid = x_grid
        self.values = np.exp(np.outer(x_grid.nodes, -rates))
        self.square = x_grid.weights @ np.square(self.values)

    @property
    def derivative(self):
        return -self.rates * self.values


class EnvelopeProfile:
    """Momentum-independent profile e sigma x exp(-sigma x): unit peak, 0 at x = 0.

    ``values`` and ``derivative`` are (n_x, 1) columns.
    """

    def __init__(self, sigma, x_grid: XGrid):
        x = x_grid.nodes[:, None]
        peak = np.e * sigma
        decay = np.exp(-sigma * x)
        self.x_grid = x_grid
        self.values = peak * x * decay
        self.derivative = peak * (1.0 - sigma * x) * decay


def _profile_products(f, g):
    """Per-mode x-quadratures (Sum_x w f' g', Sum_x w f g) of two profiles.

    Arrays over the momentum nodes (length 1 for two envelopes).  A decay
    profile paired with itself reads its stored integral; an envelope
    against a decay table costs two matrix-vector products.
    """
    w = f.x_grid.weights
    if isinstance(f, EnvelopeProfile) and isinstance(g, DecayProfile):
        f, g = g, f
    if isinstance(f, DecayProfile):
        if g is f:
            return f.rates**2 * f.square, f.square
        if isinstance(g, DecayProfile):
            fg = w @ (f.values * g.values)
            return f.rates * g.rates * fg, fg
        return (-f.rates * ((w * g.derivative[:, 0]) @ f.values),
                (w * g.values[:, 0]) @ f.values)
    return w @ (f.derivative * g.derivative), w @ (f.values * g.values)


@dataclass(frozen=True)
class ExtensionField:
    """Field Sum_t coef_t(p) g_t(x, p) on the (x, p) product grid.

    ``terms`` holds (coef, profile) pairs: a complex coefficient per momentum
    node and a real profile on the field's x-grid.  ``values[0] ==
    boundary.values`` always; for fields produced by ``extend`` the modulus
    is nonincreasing in x per momentum node.
    """

    boundary: BoundaryFunction
    x_grid: XGrid
    terms: tuple

    def __post_init__(self):
        n = self.boundary.grid.n
        if not self.terms or any(
                np.shape(coef) != (n,) or profile.x_grid is not self.x_grid
                or profile.values.shape[1] not in (1, n)
                for coef, profile in self.terms):
            raise DomainError("field terms must be (n_p,) coefficients on the field's x-grid")
        if not np.array_equal(_slice(self.terms, 0), self.boundary.values):
            raise DomainError("field does not match its boundary datum at x = 0")

    @property
    def values(self):
        """The field on the product grid, (n_x, n_p), materialized from its terms."""
        return sum(profile.values * coef for coef, profile in self.terms)

    @property
    def x_derivative(self):
        """Its analytic x-derivative, (n_x, n_p), materialized from its terms."""
        return sum(profile.derivative * coef for coef, profile in self.terms)

    @property
    def trace(self):
        return self.boundary.values

    def scaled(self, amplitude):
        return _field_of(self.boundary.grid, self.x_grid,
                         tuple((amplitude * coef, profile) for coef, profile in self.terms))

    def __add__(self, other):
        if other.x_grid is not self.x_grid or other.boundary.grid is not self.boundary.grid:
            raise DomainError("fields must share their grids to be combined")
        return _field_of(self.boundary.grid, self.x_grid, self.terms + other.terms)


def _slice(terms, i):
    """The field of the given terms at x-node i, (n_p,)."""
    return sum(coef * profile.values[i] for coef, profile in terms)


def _field_of(grid, x_grid, terms):
    """The field of the given terms, whose x = 0 slice is its boundary datum."""
    return ExtensionField(BoundaryFunction(grid, _slice(terms, 0)), x_grid, terms)


def multiplier_profile(grid: RadialGrid, x_grid: XGrid, params: PhysParams) -> DecayProfile:
    """The multiplier profile exp(-lambda(p) x); build once, pass to ``extend``."""
    return DecayProfile(lambda_of(grid.nodes, params), x_grid)


def extend(u: BoundaryFunction, x_grid: XGrid, params: PhysParams,
           multiplier: DecayProfile = None) -> ExtensionField:
    """Multiplier extension u(p) exp(-lambda(p) x) with analytic derivative.

    ``multiplier`` is ``multiplier_profile(u.grid, x_grid, params)``, built
    here when not given.
    """
    if multiplier is None:
        multiplier = multiplier_profile(u.grid, x_grid, params)
    elif (multiplier.x_grid is not x_grid
          or not np.array_equal(multiplier.rates, lambda_of(u.grid.nodes, params))):
        raise DomainError("not the multiplier profile of this grid, x-grid and parameters")
    return ExtensionField(u, x_grid, ((u.values, multiplier),))


def exponential_field(u: BoundaryFunction, rates, x_grid: XGrid) -> ExtensionField:
    """Field u(p) exp(-tau(p) x) for arbitrary positive per-mode rates."""
    rates = np.broadcast_to(np.asarray(rates, dtype=float), u.grid.nodes.shape)
    if np.any(rates <= 0):
        raise DomainError("decay rates must be positive")
    return ExtensionField(u, x_grid, ((u.values, DecayProfile(rates, x_grid)),))


def zero_trace_bump(grid: RadialGrid, x_grid: XGrid, params: PhysParams,
                    profile, rate=None) -> ExtensionField:
    """Zero-trace field x exp(-sigma x) b(p); competitor for the minimality test.

    The envelope is normalized to unit peak so the competitor carries an
    O(1) energy perturbation at unit amplitude.
    """
    sigma = params.mc2 if rate is None else rate
    zero = BoundaryFunction(grid, np.zeros(grid.n, dtype=complex))
    return ExtensionField(zero, x_grid, ((np.asarray(profile, dtype=complex),
                                          EnvelopeProfile(sigma, x_grid)),))


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

    For phi = Sum_t c_t g_t with real profiles the x-sum at each mode is
    Sum_{s,t} Re(conj(c_s) c_t) Sum_x w_x (g_s' g_t' + k2 g_s g_t), taken over
    pairs s <= t with the off-diagonal ones doubled.
    """
    terms = field.terms
    density = 0.0
    for s, (cs, gs) in enumerate(terms):
        for t in range(s, len(terms)):
            ct, gt = terms[t]
            dd, gg = _profile_products(gs, gt)
            pair = np.real(np.conj(cs) * ct) * (1.0 if s == t else 2.0)
            density = density + pair * (dd + k2 * gg)
    return float(density @ field.boundary.grid.l2_weights)


def dirichlet_energy(obj, route, params: PhysParams):
    """Weighted H^1 energy of an extension, by either of two routes.

    ``momentum`` integrates the closed form Int lambda(p) |u(p)|^2 p^2 dp of
    the multiplier extension of a BoundaryFunction; ``x_quadrature``
    integrates |d_x phi|^2 + (c^2 p^2 + m^2 c^4) |phi|^2 of an
    ExtensionField over the product grid, evaluated per mode from its terms.
    """
    if route == "momentum":
        u = obj.boundary if isinstance(obj, ExtensionField) else obj
        lam = lambda_of(u.grid.nodes, params)
        val = float(np.real(np.dot(u.grid.l2_weights * lam,
                                   np.abs(u.values) ** 2)))
        return EnergyResult(val, 0.0, True)
    if route != "x_quadrature":
        raise DomainError(f"unknown energy route {route!r}")
    if not isinstance(obj, ExtensionField):
        raise DomainError("the x_quadrature route requires an ExtensionField")
    grid = obj.boundary.grid
    lam2 = params.c**2 * grid.nodes**2 + params.mc2**2
    val = _product_quadrature(obj, lam2)
    # bound the discarded tail x > x_max as if every mode kept decaying at
    # its slowest admissible rate lambda(p); below 1e-12 of the energy it is ok
    lam = np.sqrt(lam2)
    tail = float(np.dot(grid.l2_weights * lam, np.abs(_slice(obj.terms, -1)) ** 2))
    return EnergyResult(val, tail, tail <= 1e-12 * max(val, 1e-300))


def minimality_check(u: BoundaryFunction, perturbation: ExtensionField,
                     amplitude, params: PhysParams, multiplier: DecayProfile = None):
    """Energies of the multiplier extension and a zero-trace competitor.

    Returns the EnergyResults (E_multiplier, E_perturbed) by x-quadrature;
    the multiplier field minimizes the energy among extensions sharing its
    trace, so E_perturbed >= E_multiplier up to quadrature error.
    ``multiplier`` is passed to ``extend``.
    """
    if np.max(np.abs(perturbation.trace)) != 0.0:
        raise DomainError("perturbation must have exactly zero trace")
    base = extend(u, perturbation.x_grid, params, multiplier)
    e0 = dirichlet_energy(base, "x_quadrature", params)
    e1 = dirichlet_energy(base + perturbation.scaled(amplitude), "x_quadrature", params)
    return e0, e1


@dataclass
class TraceMarginResult:
    """Margin of the boundary trace inequality and its natural scale."""

    margin: float
    scale: float


def trace_inequality_margin(field: ExtensionField, params: PhysParams) -> TraceMarginResult:
    """Margin of Int(|d_x phi|^2 + m^2 c^4 |phi|^2) - m c^2 |phi_tr|^2 >= 0."""
    grid = field.boundary.grid
    positive = _product_quadrature(field, params.mc2**2)
    trace_term = params.mc2 * float(np.dot(grid.l2_weights, np.abs(field.trace) ** 2))
    return TraceMarginResult(positive - trace_term, positive)


def random_boundary(grid: RadialGrid, rng) -> BoundaryFunction:
    """Random smooth decaying boundary datum on the grid's mapping scale."""
    x = grid.nodes / grid.mapping_scale
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.uniform(0.5, 2.0)
    vals = (coef[0] + coef[1] * x + coef[2] * x * x) * np.exp(-g * x * x)
    return BoundaryFunction(grid, vals)
