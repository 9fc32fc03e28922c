"""Eigenvalues of the discrete channel operator by two independent routes.

The dense route diagonalizes the assembled symmetric matrix.  The
variational route minimizes the boundary Rayleigh energy over orthonormal
k-frames of trace data, the block (Ky Fan) form of the successive
constrained-minimization characterization of the discrete spectrum: the
optimal half-space extension of any trace is the exponential multiplier,
so the full extension energy restricted to its minimizing fiber is exactly
the boundary energy, and the constrained gradient is taken in the
extension-energy metric.  Both routes end alike: each reported level is
its vector's Rayleigh quotient, with its residual from the same product.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .assemble import DiscreteOperator
from .dirac import lambda_of
from .errors import DomainError, NumericalError
from .grids import build_log_grid
from .params import PhysParams


@dataclass
class SpectralResult:
    """Ascending eigenvalues with eigenvectors and Neumann residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # columns, L^2-orthonormal coordinates
    residuals: np.ndarray
    params: PhysParams
    edge: float                       # m c^2 less the operator's rounding floor
    trace: "MinimizationTrace" = None  # the variational route's block minimization

    def bound_flags(self):
        """Levels below the edge: bound by more than rounding in the operator's scale resolves."""
        return self.eigenvalues < self.edge

    def binding_energies(self):
        return self.params.mc2 - self.eigenvalues


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

    ``gradient_norms`` holds the largest level residual at every block
    iteration, and ``levels`` one ``LevelRecord`` per level.
    """

    gradient_norms: list = field(default_factory=list)
    levels: list = field(default_factory=list)

    @property
    def converged(self):
        return bool(self.levels) and all(r.exit_reason == "residual" for r in self.levels)


def _rounding_floor(op: DiscreteOperator):
    """10 eps max |A_ii|: below it rounding in the operator's scale hides a residual or binding."""
    return 10 * np.finfo(float).eps * float(np.abs(op.matrix.diagonal()).max())


def _ritz(op: DiscreteOperator, vecs, trace=None) -> SpectralResult:
    """The levels of the unit columns v_j: theta_j = v_j^T A v_j and || A v_j - theta_j v_j ||.

    Both come from one product A V.  On a graded matrix (the diagonal
    lambda(p) spans the grid's momentum window) the Rayleigh quotient
    weights each entry by the vector, which is small where A is large, so
    it is accurate where an eigensolver's own eigenvalue errs by
    eps max |A_ii| (Demmel-Veselic 1992).
    """
    R = op.matrix @ vecs
    vals = np.einsum("ij,ij->j", vecs, R)
    R -= vecs * vals
    return SpectralResult(vals, vecs, np.linalg.norm(R, axis=0), op.params,
                          op.params.mc2 - _rounding_floor(op), trace)


# rows per block when the eigensolver's triangle is mirrored back
_MIRROR_ROWS = 64


def _mirror_lower(A):
    """Copy the strict lower triangle of the square C-ordered A onto its upper one."""
    n = A.shape[0]
    for lo in range(0, n, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, n)
        A[lo:hi, hi:] = A[hi:, lo:hi].T
        block = A[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        block[upper] = block.T[upper]


def dense_spectrum(op: DiscreteOperator, k) -> SpectralResult:
    """k smallest eigenpairs of the symmetric operator matrix, as ``_ritz`` levels.

    ``op.matrix`` is LAPACK's workspace: every assembler builds it exactly
    symmetric and C-ordered, so its transpose is the same matrix in Fortran
    order, which the eigensolver reads and overwrites in place (its lower
    triangle in Fortran terms, the upper triangle and diagonal of
    ``op.matrix``) instead of copying.  The diagonal is saved beforehand,
    and afterwards the untouched strict lower triangle is mirrored back, so
    ``op.matrix`` comes back bitwise as it was and the eigenvectors are
    those of ``eigh(op.matrix)``.  Only one n x n matrix is held.
    """
    if not 1 <= k <= op.n:
        raise DomainError(f"need 1 <= k <= {op.n}, got {k}")
    A = op.matrix
    diag = A.diagonal().copy()
    try:
        vecs = eigh(A.T, subset_by_index=[0, k - 1], overwrite_a=True)[1]
    finally:
        _mirror_lower(A)
        A[np.diag_indices(op.n)] = diag
    return _ritz(op, vecs)


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
    residual ||A f - E f||, the quantity the spectrum checks gate, falls to
    tol * m c^2, or to 10 eps max |A_ii| where rounding in the operator's
    scale keeps it above that; ``max_iter`` bounds the block iterations.

    Returns (ascending eigenvalues, eigenvector columns, MinimizationTrace).
    """
    n = op.n
    if not 1 <= k <= n or max_iter < 1:
        raise DomainError(f"need 1 <= k <= {n} and max_iter >= 1, got {k} and {max_iter}")
    M, lam, mc2 = op.matrix, lambda_of(op.grid.nodes, op.params), op.params.mc2
    target = max(tol * mc2, _rounding_floor(op))
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
        trace.gradient_norms.append(float(rnorm[:k].max()))
        active = rnorm[:k] > target
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
            f"(residual {trace.gradient_norms[-1]:.3e}, target {target:.3e})",
            payload=trace)
    return theta[:k], X[:, :k], trace


def variational_spectrum(op: DiscreteOperator, k, tol=1e-10, max_iter=2000) -> SpectralResult:
    """The k lowest eigenpairs of ``minimize_pk``, as ``_ritz`` levels."""
    return _ritz(op, *minimize_pk(op, k, tol=tol, max_iter=max_iter)[1:])


def binding_grid(Z, params: PhysParams, n=200):
    """Log-panel grid window covering the bound-state and relativistic scales."""
    scale = max(float(Z), 1.0)
    p_lo = 1e-4 * scale
    p_hi = max(2e3 * scale, 15.0 * params.m * params.c)
    return build_log_grid(n, p_lo, p_hi)
