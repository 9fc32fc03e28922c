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
from scipy.linalg.lapack import dgeqrf, dorgqr, dsyevr

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

    iterations: int
    residual: float
    exit_reason: str


@dataclass
class MinimizationTrace:
    """History of one block minimization.

    ``gradient_norms`` holds the largest level residual at every block
    iteration, and ``levels`` one ``LevelRecord`` per level, recorded when
    the iteration ends.
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
    those of ``eigh(op.matrix)``.  Only one n x n matrix is held.  A matrix
    with a NaN or inf entry raises ``NumericalError`` before LAPACK sees it,
    and comes back untouched; the check is the one pass over the matrix
    that ``eigh`` would otherwise make.
    """
    if not 1 <= k <= op.n:
        raise DomainError(f"need 1 <= k <= {op.n}, got {k}")
    A = op.matrix
    if not np.isfinite(A).all():
        raise NumericalError("the operator matrix is not finite")
    diag = A.diagonal().copy()
    try:
        vecs = eigh(A.T, subset_by_index=[0, k - 1], overwrite_a=True, check_finite=False)[1]
    finally:
        _mirror_lower(A)
        A[np.diag_indices(op.n)] = diag
    return _ritz(op, vecs)


def _lapack(routine, *args, **kwargs):
    """Call a ``scipy.linalg.lapack`` routine; a nonzero ``info`` (its last output) raises."""
    *out, info = routine(*args, **kwargs)
    if info:
        raise NumericalError(f"LAPACK {routine.__name__} returned info = {info}")
    return out


def _orthonormal_rows(B):
    """An orthonormal basis of the span of the rows of B, computed in B's memory.

    Householder QR (``dgeqrf``, then ``dorgqr``) runs in place on B.T, the
    rows of the C-ordered B as Fortran-ordered columns.  A row whose |R_ii|
    is at most 1e-12 (relative to the unit rows of a block step) adds no
    direction and is dropped; with more rows than coordinates only the
    first n can span, and ``dorgqr`` forms only those.
    """
    qr, tau, _ = _lapack(dgeqrf, B.T, overwrite_a=1)
    keep = np.abs(qr.diagonal()) > 1e-12
    Q = _lapack(dorgqr, qr[:, :tau.size], tau, overwrite_a=1)[0].T
    return Q if keep.all() else Q[keep]


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

    A step costs about its arithmetic: one product of A with the basis, and
    LAPACK called directly on the small matrices, ``dsyevr`` for the Ritz
    pairs and ``dgeqrf`` + ``dorgqr`` for the next basis, which is filled
    in place in one preallocated buffer.  At n = 200 and k = 4 a step takes
    about 0.20 ms on one BLAS thread of a 2-core Xeon, against 0.36 ms
    through ``scipy.linalg.eigh`` and ``np.linalg.qr`` of a stacked copy.
    A nonzero LAPACK ``info``, or a Rayleigh-Ritz matrix that is not finite
    (``dsyevr`` takes NaN without complaint), raises ``NumericalError``
    before any level is recorded.

    Returns (ascending eigenvalues, eigenvector columns, MinimizationTrace).
    """
    n = op.n
    if not 1 <= k <= n or max_iter < 1:
        raise DomainError(f"need 1 <= k <= {n} and max_iter >= 1, got {k} and {max_iter}")
    M, lam, mc2 = op.matrix, lambda_of(op.grid.nodes, op.params), op.params.mc2
    target = max(tol * mc2, _rounding_floor(op))
    m = min(n, k + max(2, -(-k // 4)))
    # the basis [X, W, P] is held by rows, the transposes of its columns, and
    # orthonormalized in place
    basis = np.empty((3 * m, n))
    # smooth deterministic start: cosines of rising frequency in the node
    # index under a decaying envelope (low momentum first), with a floor so
    # every coordinate direction keeps some overlap
    i = np.arange(n) + 0.5
    np.multiply(np.cos(np.outer(np.arange(m), i) * np.pi / n), np.exp(-i / 15.0) + 1e-3,
                out=basis[:m])
    Qt = _orthonormal_rows(basis[:m])
    trace = MinimizationTrace()
    iterations = np.zeros(k, dtype=int)
    work = np.ones(m, dtype=bool)         # the guard columns work while any level does
    for _ in range(max_iter):
        # the basis as C-ordered columns, a copy that the next basis can
        # overwrite; BLAS multiplies it by A about twice as fast as Qt.T
        Q = np.ascontiguousarray(Qt.T)
        MQ = M @ Q
        H = Q.T @ MQ
        H += H.T
        H *= 0.5
        if not np.isfinite(H).all():
            raise NumericalError("the Rayleigh-Ritz matrix is not finite", payload=trace)
        # H is exactly symmetric, so H.T is H in Fortran order, solved in place
        theta, V = _lapack(dsyevr, H.T, range="I", il=1, iu=m, lower=1, overwrite_a=1)[:2]
        theta = theta[:m]
        Xt = np.matmul(V.T, Q.T, out=basis[:m])
        Rt = V.T @ MQ.T
        Rt -= theta[:, None] * Xt
        rnorm = np.sqrt(np.einsum("ij,ij->i", Rt, Rt))
        trace.gradient_norms.append(float(rnorm[:k].max()))
        active = rnorm[:k] > target
        iterations += active
        if not active.any():
            break
        work[:k] = active
        cols = np.flatnonzero(work)
        c = cols.size
        W = basis[m:m + c]
        np.subtract(lam, np.minimum(theta[cols], mc2)[:, None], out=W)
        np.abs(W, out=W)
        W += np.maximum(mc2 - theta[cols], 1e-12 * mc2)[:, None]
        np.divide(Rt[cols], W, out=W)
        # the move out of the previous block
        np.matmul(V[m:, cols].T, Q[:, m:].T, out=basis[m + c:m + 2 * c])
        # unit rows, so that a tiny preconditioned residual is not mistaken
        # for a dependent direction; X comes first and stays whole
        B = basis[:m + 2 * c]
        B /= np.maximum(np.sqrt(np.einsum("ij,ij->i", B, B)), np.finfo(float).tiny)[:, None]
        Qt = _orthonormal_rows(B)
    trace.levels = [LevelRecord(int(it), float(r), "max_iter" if busy else "residual")
                    for it, r, busy in zip(iterations, rnorm, active)]
    if not trace.converged:
        raise NumericalError(
            f"block minimization did not converge in {max_iter} iterations "
            f"(residual {trace.gradient_norms[-1]:.3e}, target {target:.3e})",
            payload=trace)
    return theta[:k], Xt[:k].T, trace


def variational_spectrum(op: DiscreteOperator, k, tol=1e-10, max_iter=2000) -> SpectralResult:
    """The k lowest eigenpairs of ``minimize_pk``, as ``_ritz`` levels."""
    return _ritz(op, *minimize_pk(op, k, tol=tol, max_iter=max_iter)[1:])


def binding_grid(Z, params: PhysParams, n=200):
    """Log-panel grid window covering the bound-state and relativistic scales."""
    scale = max(float(Z), 1.0)
    p_lo = 1e-4 * scale
    p_hi = max(2e3 * scale, 15.0 * params.m * params.c)
    return build_log_grid(n, p_lo, p_hi)
