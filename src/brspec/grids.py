"""Radial momentum grids, their quadrature weights, and the operator norm on the
discrete H^{1/2} space of a grid."""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from scipy.linalg import eigh

from .errors import ConfigurationError, DomainError

# how far (relative to max(1, |ln p|)) a node may sit from its recorded
# log-panel position: a few ulp of rounding, nothing more
_PANEL_RTOL = 1e-14
# Gauss-Legendre nodes in each panel of a log-panel grid
LOG_PANEL_ORDER = 10


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on (-1, 1), ``leggauss(n)``, computed once per n.

    The arrays are shared by every caller and read-only.
    """
    return _frozen(*np.polynomial.legendre.leggauss(n))


def gauss_panels(a, b, order):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on panels [a, b].

    ``a`` and ``b`` hold the panel ends, of any common shape; the results
    add one trailing axis of length ``order``.
    """
    t, wt = gauss_legendre(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid[..., None] + half[..., None] * t, half[..., None] * wt


@lru_cache(maxsize=None)
def gauss_log(n):
    """The n-point Gauss rule for the weight -ln t on (0, 1), computed once per n.

    Exact for polynomials of degree < 2n: the modified Chebyshev algorithm
    (Gautschi) turns the modified moments Int_0^1 P*_k(t) (-ln t) dt of the
    shifted Legendre polynomials, 1 for k = 0 and (-1)^k / (k (k+1)) beyond,
    into the weight's recurrence coefficients, and Golub-Welsch turns those
    into nodes and weights.  The arrays are shared and read-only.
    """
    k = np.arange(2 * n)
    # moments against the monic shifted Legendre polynomials, whose recurrence
    # is pi_{k+1} = (t - 1/2) pi_k - b_k pi_{k-1}
    sig = np.array([1.0] + [(-1.0) ** j / (j * (j + 1) * comb(2 * j, j)) for j in k[1:]])
    a = 0.5
    b = np.concatenate([[0.0], 0.25 / (4.0 - 1.0 / k[1:] ** 2)])
    alpha, beta = np.empty(n), np.empty(n)
    alpha[0], beta[0] = a + sig[1] / sig[0], sig[0]
    prev = np.zeros(2 * n)
    for j in range(1, n):
        l = k[j:2 * n - j]
        nxt = np.zeros(2 * n)
        nxt[l] = (sig[l + 1] - (alpha[j - 1] - a) * sig[l] - beta[j - 1] * prev[l]
                  + b[l] * sig[l - 1])
        alpha[j] = a + nxt[j + 1] / nxt[j] - sig[j] / sig[j - 1]
        beta[j] = nxt[j] / sig[j - 1]
        prev, sig = sig, nxt
    off = np.sqrt(beta[1:])
    t, v = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    return _frozen(t, beta[0] * v[0] ** 2)


@dataclass(frozen=True)
class LogPanels:
    """Structure of a log-panel grid: ``count`` panels of width ``width`` in
    ln p from ``log_lo``, each carrying the ``order``-point Gauss rule, over
    the momentum window (p_lo, p_hi) they were built from."""

    log_lo: float
    width: float
    count: int
    order: int
    window: tuple

    def places(self):
        """Node positions inside a panel, as fractions of its width."""
        return 0.5 * (1.0 + gauss_legendre(self.order)[0])

    def node_logs(self):
        """ln p of every node, panel by panel."""
        return self.log_lo + self.width * (np.arange(self.count)[:, None] + self.places())

    def offsets(self):
        """x = ln(p_j/p_i) from node a of panel i to node b of panel i + d.

        Shape (2 count - 1, order, order) for d = -(count-1) .. count-1;
        exactly antisymmetric under (d, a, b) -> (-d, b, a).
        """
        s = self.places()
        d = np.arange(1 - self.count, self.count, dtype=float)
        return self.width * (d[:, None, None] + (s[None, None, :] - s[None, :, None]))


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes/weights for radial momentum integrals Int_0^inf . dp.

    ``panels`` records the structure of a log-panel grid; its nodes must
    follow it, and the assembly then fills the potential from one table per
    panel offset.  Without panels the grid is a rational map of (0, inf).
    """

    nodes: np.ndarray
    weights: np.ndarray
    mapping_scale: float
    panels: LogPanels | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ConfigurationError("nodes and weights must be matching 1-d arrays")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise ConfigurationError("grid nodes must be positive and strictly increasing")
        if np.any(weights <= 0):
            raise ConfigurationError("grid weights must be positive")
        if self.panels is not None:
            logs = self.panels.node_logs().ravel()
            if logs.size != nodes.size or np.any(
                    np.abs(np.log(nodes) - logs) > _PANEL_RTOL * np.maximum(1.0, np.abs(logs))):
                raise ConfigurationError("grid nodes disagree with the recorded log-panel structure")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return self.nodes.size

    @property
    def kind(self):
        return "rational" if self.panels is None else "log"

    @property
    def domain(self):
        """The momentum interval the quadrature rule represents: (0, inf) for
        the rational map, the panels' window for a log-panel grid.  Kernel
        assembly restricts its singularity-subtraction integrals to it, so
        that the discrete quadratic form is a restriction of the continuum one.
        """
        return (0.0, np.inf) if self.panels is None else self.panels.window

    @property
    def l2_weights(self):
        """Discrete L^2 measure w_i p_i^2 (radial functions, q^2 dq pairing)."""
        return self.weights * self.nodes**2


def build_grid(n, s):
    """Mapped Gauss-Legendre grid on (0, inf): p = s (1+t)/(1-t).

    The rational map sends the GL nodes t on (-1, 1) to (0, inf) with
    weights transformed by dp/dt = 2 s / (1-t)^2.  Half the nodes fall
    below p = s.
    """
    n = int(n)
    if n < 16:
        raise ConfigurationError(f"grid size must satisfy n >= 16, got {n}")
    if not s > 0:
        raise ConfigurationError(f"mapping scale must be positive, got {s}")
    t, wt = gauss_legendre(n)
    nodes = s * (1 + t) / (1 - t)
    weights = wt * 2 * s / (1 - t) ** 2
    return RadialGrid(nodes, weights, mapping_scale=float(s))


def build_log_grid(n, p_lo, p_hi):
    """Composite Gauss-Legendre grid, panels uniform in log p on [p_lo, p_hi].

    Uniform resolution per decade; the quadrature represents exactly the
    window [p_lo, p_hi], which its panels record as the grid domain.  Used by the
    scale-invariant experiments (sharp-constant checks, critical-coupling
    scan) where the rational map's stretched tail would under-resolve.
    """
    n = int(n)
    if n < 16:
        raise ConfigurationError(f"grid size must satisfy n >= 16, got {n}")
    if not (0 < p_lo < p_hi):
        raise ConfigurationError(f"need 0 < p_lo < p_hi, got ({p_lo}, {p_hi})")
    npan = max(2, n // LOG_PANEL_ORDER)
    lo, hi = np.log(p_lo), np.log(p_hi)
    panels = LogPanels(float(lo), float((hi - lo) / npan), npan, LOG_PANEL_ORDER,
                       (float(p_lo), float(p_hi)))
    nodes = np.exp(panels.node_logs()).ravel()
    wt = gauss_legendre(LOG_PANEL_ORDER)[1]
    weights = (0.5 * panels.width * np.tile(wt, npan)) * nodes
    return RadialGrid(nodes, weights, mapping_scale=float(np.sqrt(p_lo * p_hi)),
                      panels=panels)


def operator_norm_h12(A, grid: RadialGrid):
    """Operator norm of A as a map of the grid's discrete H^{1/2} space onto itself.

    The space carries the diagonal metric d_i = (1 + p_i) w_i p_i^2 of
    Int (1 + |p|) |f(p)|^2 p^2 dp.  The norm is the largest singular value
    of M = D^{1/2} A D^{-1/2}, as the square root of the top eigenvalue of
    M^T M (one eigenvalue, not a full SVD; clamped at 0 so that A = 0
    gives 0).  A may act on k stacked channel copies of the grid (size k * n).
    """
    A = np.asarray(A)
    d = (1.0 + grid.nodes) * grid.l2_weights
    if A.shape[0] != A.shape[1] or A.shape[0] % d.size != 0:
        raise DomainError(f"operator shape {A.shape} incompatible with grid size {d.size}")
    reps = A.shape[0] // d.size
    dr = np.sqrt(np.tile(d, reps))
    M = A * dr[:, None] / dr[None, :]
    k = M.shape[0]
    # numpy forms M^H M by a rank-k update, exactly Hermitian, so its
    # F-ordered transpose is its conjugate (itself for a real M), with the
    # same eigenvalues, and LAPACK works on it in place without a copy
    top = eigh((M.conj().T @ M).T, subset_by_index=[k - 1, k - 1], eigvals_only=True,
               overwrite_a=True)[0]
    return float(np.sqrt(max(top, 0.0)))
