"""Half-space extension of boundary data and the Dirichlet-to-Neumann map.

A momentum-space boundary function u(p) on a radial grid extends into the
half space x > 0 as the multiplier field u(p) exp(-lambda(p) x), which is
the unique finite-energy solution of

    -d^2_x v + (c^2 p^2 + m^2 c^4) v = 0,   v(0, p) = u(p),

and realizes sqrt(-c^2 Lap + m^2 c^4) as the Neumann trace -d_x v(0, .).
Everything is channel-reduced: one radial momentum variable plus the
extension variable x.  Fields carry their analytic x-derivative; the
x-quadrature only serves to cross-validate the closed-form energies.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import lambda_of
from .errors import DomainError
from .grids import RadialGrid, gauss_legendre
from .params import PhysParams


@dataclass
class XGrid:
    """Quadrature grid on [0, x_max]: node 0 carries the trace, weight 0."""

    nodes: np.ndarray
    weights: np.ndarray
    x_max: float


def build_x_grid(x_max, n_nodes=400, order=8, grade_span=1e-10):
    """Composite Gauss-Legendre panels geometrically graded toward x = 0.

    The grading resolves boundary layers exp(-2 lambda x) for lambda up to
    about 1/(grade_span * x_max) while the outer panels capture the slow
    modes out to x_max.
    """
    if not x_max > 0:
        raise DomainError("x_max must be positive")
    n_panels = max(2, int(n_nodes) // order)
    edges = np.concatenate([[0.0], x_max * np.geomspace(grade_span, 1.0, n_panels)])
    t, wt = gauss_legendre(order)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wt)
    nodes = np.concatenate([[0.0], *xs])
    weights = np.concatenate([[0.0], *ws])
    return XGrid(nodes, weights, float(x_max))


def default_x_grid(params: PhysParams, n_nodes=400):
    """Default extension grid: x_max = 40 / (m c^2), 400 nodes."""
    return build_x_grid(40.0 / params.mc2, n_nodes=n_nodes)


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

    def l2_norm(self):
        return self.grid.l2_norm(self.values)

    def h12_norm(self):
        w = (1.0 + self.grid.nodes) * self.grid.l2_weights
        return np.sqrt(np.real(np.dot(np.conj(self.values) * w, self.values)))


@dataclass
class ExtensionField:
    """Field on the (x, p) product grid with its analytic x-derivative.

    ``values[0] == boundary.values`` always; for fields produced by
    ``extend`` the modulus is nonincreasing in x per momentum node.
    """

    boundary: BoundaryFunction
    x_grid: XGrid
    values: np.ndarray
    x_derivative: np.ndarray

    def __post_init__(self):
        nx, npp = self.x_grid.nodes.size, self.boundary.grid.n
        if self.values.shape != (nx, npp) or self.x_derivative.shape != (nx, npp):
            raise DomainError("field arrays must have shape (n_x, n_p)")
        if not np.allclose(self.values[0], self.boundary.values, rtol=0, atol=0):
            raise DomainError("field does not match its boundary datum at x = 0")

    @property
    def trace(self):
        return self.values[0]

    def scaled(self, amplitude):
        return ExtensionField(
            BoundaryFunction(self.boundary.grid, amplitude * self.boundary.values),
            self.x_grid, amplitude * self.values, amplitude * self.x_derivative)

    def __add__(self, other):
        if other.x_grid is not self.x_grid or other.boundary.grid is not self.boundary.grid:
            raise DomainError("fields must share their grids to be combined")
        return ExtensionField(
            BoundaryFunction(self.boundary.grid, self.boundary.values + other.boundary.values),
            self.x_grid, self.values + other.values,
            self.x_derivative + other.x_derivative)


def extend(u: BoundaryFunction, x_grid: XGrid, params: PhysParams) -> ExtensionField:
    """Multiplier extension u(p) exp(-lambda(p) x) with analytic derivative."""
    lam = lambda_of(u.grid.nodes, params)
    decay = np.exp(-np.outer(x_grid.nodes, lam))
    vals = decay * u.values[None, :]
    return ExtensionField(u, x_grid, vals, -lam[None, :] * vals)


def exponential_field(u: BoundaryFunction, rates, x_grid: XGrid) -> ExtensionField:
    """Field u(p) exp(-tau(p) x) for arbitrary positive per-mode rates."""
    rates = np.broadcast_to(np.asarray(rates, dtype=float), u.grid.nodes.shape)
    if np.any(rates <= 0):
        raise DomainError("decay rates must be positive")
    decay = np.exp(-np.outer(x_grid.nodes, rates))
    vals = decay * u.values[None, :]
    return ExtensionField(u, x_grid, vals, -rates[None, :] * vals)


def zero_trace_bump(grid: RadialGrid, x_grid: XGrid, params: PhysParams,
                    profile, rate=None) -> ExtensionField:
    """Zero-trace field x exp(-sigma x) b(p); competitor for the minimality test.

    The envelope is normalized to unit peak so the competitor carries an
    O(1) energy perturbation at unit amplitude.
    """
    sigma = params.mc2 if rate is None else rate
    b = np.asarray(profile, dtype=complex)
    x = x_grid.nodes[:, None]
    peak = np.e * sigma
    env = peak * x * np.exp(-sigma * x)
    denv = peak * (1.0 - sigma * x) * np.exp(-sigma * x)
    zero = BoundaryFunction(grid, np.zeros(grid.n, dtype=complex))
    return ExtensionField(zero, x_grid, env * b[None, :], denv * b[None, :])


def dtn_apply(u: BoundaryFunction, params: PhysParams) -> BoundaryFunction:
    """Dirichlet-to-Neumann image p -> lambda(p) u(p)."""
    return BoundaryFunction(u.grid, lambda_of(u.grid.nodes, params) * u.values)


def dtn_finite_difference(u: BoundaryFunction, params: PhysParams, h_scale=1e-2):
    """Richardson-extrapolated centered difference of -d_x v(0, p) per node.

    Steps scale as h = h_scale / lambda(p) so every mode is resolved alike;
    one Richardson step removes the O(h^2) error of the centered stencil.
    Independent of the multiplier formula used by dtn_apply.
    """
    lam = lambda_of(u.grid.nodes, params)
    h = h_scale / lam

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


def dirichlet_energy(obj, route, params: PhysParams, tail_tol=1e-12):
    """Weighted H^1 energy of an extension, by either of two routes.

    ``momentum`` integrates the closed form Int lambda(p) |u(p)|^2 p^2 dp of
    the multiplier extension of a BoundaryFunction; ``x_quadrature``
    integrates |d_x phi|^2 + (c^2 p^2 + m^2 c^4) |phi|^2 of an
    ExtensionField over the product grid.
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
    p = grid.nodes
    lam2 = params.c**2 * p**2 + params.mc2**2
    density = np.abs(obj.x_derivative) ** 2 + lam2[None, :] * np.abs(obj.values) ** 2
    val = float(obj.x_grid.weights @ density @ grid.l2_weights)
    # bound the discarded tail x > x_max as if every mode kept decaying at
    # its slowest admissible rate lambda(p)
    lam = np.sqrt(lam2)
    tail = float(np.dot(grid.l2_weights * lam, np.abs(obj.values[-1]) ** 2))
    return EnergyResult(val, tail, tail <= tail_tol * max(val, 1e-300))


def minimality_check(u: BoundaryFunction, perturbation: ExtensionField,
                     amplitude, params: PhysParams):
    """Energies of the multiplier extension and a zero-trace competitor.

    Returns (E_multiplier, E_perturbed) by x-quadrature; the multiplier
    field minimizes the energy among extensions sharing its trace, so
    E_perturbed >= E_multiplier up to quadrature error.
    """
    if np.max(np.abs(perturbation.trace)) != 0.0:
        raise DomainError("perturbation must have exactly zero trace")
    base = extend(u, perturbation.x_grid, params)
    e0 = dirichlet_energy(base, "x_quadrature", params).value
    e1 = dirichlet_energy(base + perturbation.scaled(amplitude),
                          "x_quadrature", params).value
    return e0, e1


@dataclass
class TraceMarginResult:
    """Margin of the boundary trace inequality and its natural scale."""

    margin: float
    scale: float


def trace_inequality_margin(field: ExtensionField, params: PhysParams) -> TraceMarginResult:
    """Margin of Int(|d_x phi|^2 + m^2 c^4 |phi|^2) - m c^2 |phi_tr|^2 >= 0."""
    grid = field.boundary.grid
    density = np.abs(field.x_derivative) ** 2 + params.mc2**2 * np.abs(field.values) ** 2
    positive = float(field.x_grid.weights @ density @ grid.l2_weights)
    trace_term = params.mc2 * float(np.dot(grid.l2_weights, np.abs(field.trace) ** 2))
    return TraceMarginResult(positive - trace_term, positive)


def random_boundary(grid: RadialGrid, rng, width=None) -> BoundaryFunction:
    """Random smooth decaying boundary datum, resolved by the grid."""
    s = grid.mapping_scale if width is None else width
    x = grid.nodes / s
    coef = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.uniform(0.5, 2.0)
    vals = (coef[0] + coef[1] * x + coef[2] * x * x) * np.exp(-g * x * x)
    return BoundaryFunction(grid, vals)
