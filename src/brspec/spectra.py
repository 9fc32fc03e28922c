"""Eigenvalues of the discrete channel operator by two independent routes.

The dense route diagonalizes the assembled symmetric matrix.  The
variational route minimizes the boundary Rayleigh energy over orthonormal
k-frames of trace data, the block (Ky Fan) form of the successive
constrained-minimization characterization of the discrete spectrum: the
optimal half-space extension of any trace is the exponential multiplier,
so the full extension energy restricted to its minimizing fiber is exactly
the boundary energy, and the constrained gradient is taken in the
extension-energy metric.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .assemble import DiscreteOperator, assemble_nonrel_operator, assemble_operator
from .channels import ChannelSpec
from .dirac import lambda_of
from .errors import DomainError, NumericalError
from .grids import RadialGrid, build_log_grid
from .params import PhysParams

BOUND_STATE_EDGE = 1e-9  # flag lambda < mc^2 (1 - edge) as a bound state


@dataclass
class SpectralResult:
    """Ascending eigenvalues with eigenvectors and Neumann residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # columns, L^2-orthonormal coordinates
    residuals: np.ndarray
    channel: ChannelSpec
    params: PhysParams
    solver_route: str
    grid_meta: dict
    trace: "MinimizationTrace" = None  # the variational route's block minimization

    def bound_flags(self):
        return self.eigenvalues < self.params.mc2 * (1.0 - BOUND_STATE_EDGE)

    def binding_energies(self):
        return self.params.mc2 - self.eigenvalues

    def node_values(self, op: DiscreteOperator, k):
        return op.node_values(self.eigenvectors[:, k])


@dataclass
class LevelRecord:
    """One variational level: the block iterations it spent above the
    residual target, its final residual ||A f - E f||, and ``exit_reason``
    (``"residual"`` or ``"max_iter"``)."""

    iterations: int = 0
    residual: float = float("inf")
    exit_reason: str = "max_iter"


@dataclass
class MinimizationTrace:
    """History of one block minimization.

    ``iterates`` holds the Ky Fan energy (the sum of the k level energies)
    after each strict decrease (so it is monotone), ``gradient_norms`` the
    largest level residual at every block iteration, and ``levels`` one
    ``LevelRecord`` per level.
    """

    iterates: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    levels: list = field(default_factory=list)

    @property
    def converged(self):
        return bool(self.levels) and all(r.exit_reason == "residual" for r in self.levels)


def _grid_meta(grid: RadialGrid):
    return {
        "kind": grid.kind,
        "n": int(grid.n),
        "mapping_scale": float(grid.mapping_scale),
        "domain": [float(grid.domain[0]),
                   float(grid.domain[1]) if np.isfinite(grid.domain[1]) else "inf"],
    }


def neumann_residual_vector(op: DiscreteOperator, value, vec):
    """|| A v - value v || / || v || in the discrete L^2 coordinates."""
    r = op.matrix @ vec - value * vec
    return float(np.linalg.norm(r) / np.linalg.norm(vec))


def neumann_residual(result: SpectralResult, op: DiscreteOperator, index):
    if not 0 <= index < result.eigenvalues.size:
        raise DomainError(f"eigenpair index {index} out of range")
    return neumann_residual_vector(op, result.eigenvalues[index],
                                   result.eigenvectors[:, index])


def dense_spectrum(op: DiscreteOperator, k) -> SpectralResult:
    """k smallest eigenpairs of the symmetric operator matrix."""
    if not 1 <= k <= op.n:
        raise DomainError(f"need 1 <= k <= {op.n}, got {k}")
    vals, vecs = eigh(op.matrix, subset_by_index=[0, k - 1])
    res = np.array([neumann_residual_vector(op, vals[j], vecs[:, j]) for j in range(k)])
    return SpectralResult(vals, vecs, res, op.channel, op.params, "dense",
                          _grid_meta(op.grid))


def _extension_metric(op: DiscreteOperator):
    """Diagonal of the extension-energy inner product in operator coordinates."""
    if op.scheme == "nystrom":
        return lambda_of(op.grid.nodes, op.params)
    d = np.diag(op.matrix).copy()
    return np.maximum(d, 1e-3 * op.params.mc2)


def minimize_pk(op: DiscreteOperator, k, tol=1e-10, max_iter=2000):
    """The k lowest levels by one block minimization of the extension energy.

    Minimizes the trace of F^T A F over orthonormal frames F (the Ky Fan
    form of the min-max characterization), with k level columns and
    max(2, ceil(k/4)) guard columns, capped at n.  Each block iteration is
    a Rayleigh-Ritz step over the span of the block, its preconditioned
    residuals and the previous displacement (locally optimal block
    preconditioned descent).  The residual of a column at energy E is
    divided by the extension metric shifted to E,
    |lambda(p) - min(E, m c^2)| + max(m c^2 - E, 1e-12 m c^2), which stays
    of the size of the binding energy at low momentum, where bound states
    live just below the continuum edge.  A level is done when its Euclidean
    residual ||A f - E f|| falls to tol * m c^2, the quantity the spectrum
    checks gate; ``max_iter`` bounds the block iterations.

    Returns (ascending eigenvalues, eigenvector columns, MinimizationTrace).
    """
    n = op.n
    if not 1 <= k <= n or max_iter < 1:
        raise DomainError(f"need 1 <= k <= {n} and max_iter >= 1, got {k} and {max_iter}")
    M, lam, mc2 = op.matrix, _extension_metric(op), op.params.mc2
    m = min(n, k + max(2, -(-k // 4)))
    # smooth deterministic start: cosines of rising frequency in the node
    # index under a decaying envelope (low momentum first), with a floor so
    # every coordinate direction keeps some overlap
    i = np.arange(n) + 0.5
    S = (np.exp(-i / 15.0) + 1e-3)[:, None] * np.cos(np.outer(i, np.arange(m)) * np.pi / n)
    Q = np.linalg.qr(S)[0]
    trace = MinimizationTrace(levels=[LevelRecord() for _ in range(k)])
    for _ in range(max_iter):
        MQ = M @ Q
        H = Q.T @ MQ
        theta, V = eigh(0.5 * (H + H.T), subset_by_index=[0, m - 1])
        X = Q @ V
        R = MQ @ V - X * theta
        P = Q[:, m:] @ V[m:]              # the move out of the previous block
        rnorm = np.linalg.norm(R, axis=0)
        E = float(theta[:k].sum())
        if not trace.iterates or E < trace.iterates[-1]:
            trace.iterates.append(E)
        trace.gradient_norms.append(float(rnorm[:k].max()))
        active = rnorm[:k] > tol * mc2
        for rec, busy, r in zip(trace.levels, active, rnorm):
            rec.iterations += int(busy)
            rec.residual = float(r)
            rec.exit_reason = "max_iter" if busy else "residual"
        if not active.any():
            break
        # the guard columns keep working while any level does
        cols = np.concatenate([np.flatnonzero(active), np.arange(k, m)])
        shift = (np.abs(lam[:, None] - np.minimum(theta[cols], mc2))
                 + np.maximum(mc2 - theta[cols], 1e-12 * mc2))
        B = np.hstack([X, R[:, cols] / shift, P[:, cols]])
        # unit columns, so that a tiny preconditioned residual is not
        # mistaken for a dependent direction; X comes first and stays whole
        B /= np.maximum(np.linalg.norm(B, axis=0), np.finfo(float).tiny)
        Q, Rq = np.linalg.qr(B)
        Q = Q[:, np.abs(np.diag(Rq)) > 1e-12]
    if not trace.converged:
        raise NumericalError(
            f"block minimization did not converge in {max_iter} iterations "
            f"(residual {trace.gradient_norms[-1]:.3e}, target {tol * mc2:.3e})",
            payload=trace)
    return theta[:k], X[:, :k], trace


def variational_spectrum(op: DiscreteOperator, k, tol=1e-10, max_iter=2000) -> SpectralResult:
    """k lowest eigenpairs by one block minimization of the extension energy."""
    vals, vecs, trace = minimize_pk(op, k, tol=tol, max_iter=max_iter)
    res = np.array([neumann_residual_vector(op, vals[j], vecs[:, j]) for j in range(k)])
    return SpectralResult(vals, vecs, res, op.channel, op.params, "variational",
                          _grid_meta(op.grid), trace)


def nonrel_spectrum(grid: RadialGrid, Z, l, k, params: PhysParams = None):
    """Eigenvalues of p^2/2m + Coulomb channel-l kernel (mixing switched off).

    The nonrelativistic comparison operator; its bound states sit at
    -Z^2/(2 n^2) and act as the large-c oracle for the binding energies.
    """
    if not Z > 0:
        raise DomainError("nonrel_spectrum requires Z > 0")
    base = params or PhysParams()
    op = assemble_nonrel_operator(grid, l, base.replace(Z=float(Z)))
    return dense_spectrum(op, k).eigenvalues


def binding_grid(Z, params: PhysParams, n=200):
    """Log-panel grid window covering the bound-state and relativistic scales."""
    scale = max(float(Z), 1.0)
    p_lo = 1e-4 * scale
    p_hi = max(2e3 * scale, 15.0 * params.m * params.c)
    return build_log_grid(n, p_lo, p_hi)


@dataclass
class BindingCurveRow:
    Z: float
    eigenvalues: np.ndarray
    bindings: np.ndarray
    bound_flags: np.ndarray
    residual_max: float


def binding_curve(Z_values, channel: ChannelSpec, k, params: PhysParams, n=200):
    """Spectral results across a charge sweep, in input order."""
    Z_values = [float(Z) for Z in Z_values]
    if any(Z <= 0 for Z in Z_values):
        raise DomainError("charge sweep values must be positive")
    rows = []
    for Z in Z_values:
        pz = params.replace(Z=Z)
        res = dense_spectrum(assemble_operator(binding_grid(Z, pz, n=n), channel, pz), k)
        rows.append(BindingCurveRow(Z, res.eigenvalues, res.binding_energies(),
                                    res.bound_flags(), float(res.residuals.max())))
    return rows
