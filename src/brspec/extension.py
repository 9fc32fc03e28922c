"""Half-space extension of boundary data, and a per-mode certificate of its identities.

A momentum-space boundary function u(p) on a radial grid extends into the
half space x > 0 as the multiplier field u(p) exp(-lambda(p) x), which is
the unique finite-energy solution of

    -d^2_x v + (c^2 p^2 + m^2 c^4) v = 0,   v(0, p) = u(p),

and realizes sqrt(-c^2 Lap + m^2 c^4) as the Neumann trace -d_x v(0, .).
Everything is channel-reduced: one radial momentum variable plus the
extension variable x.

By the minimality argument any finite-energy extension of u is the
multiplier field plus a part with zero trace; ``dtn-check`` takes that part
as b(p) e(x) with the envelope e = e sigma x exp(-sigma x), of unit peak and
e(0) = 0.  On an x-quadrature the energy Sum_x w (|d_x phi|^2 + k^2 |phi|^2)
of phi = u exp(-tau x) + b e is, mode by mode,

    |u|^2 A + 2 Re(conj(u) b) C + |b|^2 D

with the three x-integrals A, C and D of ``mode_energies``.  Every energy
the command gates is of this form, so a trace u and a competitor b only
weight per-mode numbers, and the extreme over the grid's modes bounds every
trace at once (``dtn_certificate``):

* the multiplier extension's energy is lambda |u|^2 in closed form and
  A |u|^2 by quadrature (tau = lambda, k^2 = lambda^2), so |A / lambda - 1|
  bounds the relative gap of the two energy routes;
* the competitor's energy, minimized over b, is |u|^2 (A - C^2 / D), so
  C^2 / (A D) is the largest relative energy decrease any competitor with
  that envelope reaches;
* the Neumann trace is linear in u, so the Richardson difference of u = 1
  gives its relative error for every trace;
* for the decay exp(-tau x) with k^2 = m^2 c^4 the trace inequality
  A >= m c^2 holds with equality at tau = m c^2.
"""

from dataclasses import dataclass

import numpy as np

from .dirac import lambda_of
from .errors import DomainError
from .grids import gauss_panels
from .params import PhysParams

#: The competitors' envelope rates sigma and the trace inequality's decay
#: rates tau, in units of m c^2.  The second grid holds 1, the equality
#: case, exactly.
ENVELOPE_RATES = np.linspace(0.5, 2.0, 9)
TRACE_RATES = np.linspace(0.5, 4.0, 8)


@dataclass
class XGrid:
    """Quadrature grid on [0, x_max]: node 0 carries the trace, weight 0."""

    nodes: np.ndarray
    weights: np.ndarray


def build_x_grid(x_max, n_nodes=400, rate_max=0.0):
    """Composite 8-point Gauss-Legendre panels geometrically graded toward x = 0.

    The innermost panel ends at 1e-10 x_max, or nearer at 1 / rate_max, so the
    boundary layer exp(-2 lambda x) of every mode up to rate_max is resolved;
    n_nodes // 8 panels per ten decades carry the slow modes out to x_max.
    """
    if not x_max > 0:
        raise DomainError("x_max must be positive")
    decades = max(10.0, np.log10(max(rate_max * x_max, 1.0)))
    n_panels = max(2, int(np.ceil(int(n_nodes) // 8 * decades / 10)))
    edges = np.concatenate([[0.0], x_max * np.geomspace(10.0**-decades, 1.0, n_panels)])
    x, w = gauss_panels(edges[:-1], edges[1:], 8)
    nodes = np.concatenate([[0.0], x.ravel()])
    weights = np.concatenate([[0.0], w.ravel()])
    return XGrid(nodes, weights)


def default_x_grid(params: PhysParams, nodes=()):
    """Default extension grid: x_max = 40 / (m c^2), 400 nodes per ten decades, graded
    for the fastest mode lambda(p) of the momentum ``nodes``."""
    return build_x_grid(40.0 / params.mc2, rate_max=lambda_of(nodes, params).max(initial=0.0))


def _envelopes(sigmas, x):
    """e sigma x exp(-sigma x) and its x-derivative, one row per sigma."""
    sx = np.multiply.outer(sigmas, x)
    decay = np.e * np.asarray(sigmas)[:, None] * np.exp(-sx)
    return x * decay, (1.0 - sx) * decay


def mode_energies(rates, k2, x_grid: XGrid, sigmas):
    """The x-integrals A, C, D of exp(-rate x) and the envelopes, per mode.

    With g = exp(-rate x) and e the envelope of rate sigma,

        A = (rate^2 + k2) Sum w g^2,
        C = Sum w (g' e' + k2 g e) = -rate Sum w e' g + k2 Sum w e g,
        D = Sum w (e'^2 + k2 e^2).

    A has the shape of ``rates`` (and ``k2``); C and D hold one row per sigma.
    """
    x, w = x_grid.nodes, x_grid.weights
    g = np.exp(np.multiply.outer(-x, rates))
    a = (rates**2 + k2) * (w @ (g * g))
    e, de = _envelopes(sigmas, x)
    c = -rates * ((w * de) @ g) + k2 * ((w * e) @ g)
    d = ((de * de) @ w)[:, None] + ((e * e) @ w)[:, None] * k2
    return a, c, d


def dtn_finite_difference(lam):
    """Richardson-extrapolated centred difference of -d_x exp(-lambda x) at x = 0.

    Steps scale as h = 1e-2 / lambda so every mode is resolved alike; one
    Richardson step removes the O(h^2) error of the centred stencil.  The
    field is evaluated off the grid, at x = +-h, from the extension
    problem's unique solution, independently of the multiplier lambda.
    """
    h = 1e-2 / lam

    def deriv(step):
        return (np.exp(lam * step) - np.exp(-lam * step)) / (2 * step)

    return (4 * deriv(h / 2) - deriv(h)) / 3


def dtn_certificate(nodes, x_grid: XGrid, params: PhysParams):
    """The per-mode extremes that bound every trace at once (module docstring).

    Returns the five values, keyed as ``dtn-check`` reports them, and the
    largest truncation-tail bound of a part of a field relative to that
    part's energy: beyond x_max each part is bounded as if it kept decaying
    at its mode's rate lambda(p), which leaves lambda |part(x_max)|^2.
    """
    lam = lambda_of(nodes, params)
    k2 = params.c**2 * nodes**2 + params.mc2**2
    sigmas = params.mc2 * ENVELOPE_RATES
    a, c, d = mode_energies(lam, k2, x_grid, sigmas)
    scale, _, _ = mode_energies(params.mc2 * TRACE_RATES, params.mc2**2, x_grid, ())
    margin = 1.0 - params.mc2 / scale
    x_max = x_grid.nodes[-1:]
    tails = lam * np.vstack([np.exp(-2.0 * lam * x_max) / a,
                             _envelopes(sigmas, x_max)[0] ** 2 / d])
    values = {
        "energy_relative_error_max": float(np.abs(a / lam - 1.0).max()),
        "dtn_richardson_error_max": float(np.abs(dtn_finite_difference(lam) / lam - 1.0).max()),
        "minimality_violation_max": float((c * c / (a * d)).max()),
        "trace_margin_min": float(margin.min()),
        "trace_equality_margin": float(margin[TRACE_RATES == 1.0][0]),
    }
    return values, float(tails.max())
