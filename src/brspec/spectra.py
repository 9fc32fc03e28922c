"""Eigenvalues of the discrete channel operator by two independent routes.

The dense route diagonalizes the assembled symmetric matrix.  The
variational route minimizes the boundary Rayleigh energy (f, A f) over
unit-norm trace data orthogonal to the previously found minimizers,
mirroring the deflated constrained-minimization characterization of the
discrete spectrum: the optimal half-space extension of any trace is the
exponential multiplier, so the full extension energy restricted to its
minimizing fiber is exactly the boundary energy, and the constrained
gradient is taken in the extension-energy metric.
"""

import os
from concurrent.futures import ThreadPoolExecutor
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

    def bound_flags(self):
        return self.eigenvalues < self.params.mc2 * (1.0 - BOUND_STATE_EDGE)

    def binding_energies(self):
        return self.params.mc2 - self.eigenvalues

    def node_values(self, op: DiscreteOperator, k):
        return op.node_values(self.eigenvectors[:, k])


@dataclass
class MinimizationTrace:
    """Per-iteration history of one constrained minimization.

    ``iterates`` holds the energy after each strict decrease (so it is
    monotone), ``gradient_norms`` the Euclidean residual ||A f - E f|| at
    every iteration, and ``exit_reason`` is ``"residual"`` or ``"max_iter"``.
    """

    iterates: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    converged: bool = False
    exit_reason: str = "max_iter"


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


def minimize_pk(op: DiscreteOperator, prior=None, tol=1e-10, max_iter=2000):
    """Deflated constrained minimization of the boundary Rayleigh energy.

    Minimizes (f, A f) over unit-L^2 trace data orthogonal to the columns
    of ``prior``.  Each step minimizes the energy exactly over the span of
    the iterate, the projected preconditioned gradient and the previous
    displacement (a locally optimal three-term descent).  The gradient is
    divided by the extension metric shifted to the running energy E,
    |lambda(p) - min(E, m c^2)| + max(m c^2 - E, 1e-12 m c^2), which stays
    of the size of the binding energy at low momentum, where bound states
    live just below the continuum edge.  Converges when the Euclidean
    residual ||A f - E f|| falls to tol * m c^2, the quantity the
    spectrum checks gate.

    Returns (eigenvalue, eigenvector coordinates, MinimizationTrace).
    """
    n = op.n
    if prior is None:
        prior = np.zeros((n, 0))
    if prior.ndim != 2 or prior.shape[0] != n:
        raise DomainError("prior eigenvectors must form an (n, k-1) array")
    if prior.shape[1]:
        gram = prior.T @ prior
        if np.abs(gram - np.eye(prior.shape[1])).max() > 1e-8:
            raise DomainError("prior eigenvectors must be orthonormal")
    M = op.matrix
    lam = _extension_metric(op)

    def deflate(v):
        return v - prior @ (prior.T @ v) if prior.shape[1] else v

    # smooth deterministic start in eigenvector coordinates: decays with
    # the node index (low momentum first), with a floor so every
    # coordinate direction keeps some overlap after deflation
    f = deflate(np.exp(-np.arange(n) / 15.0) + 1e-3)
    nrm = np.linalg.norm(f)
    if nrm == 0:
        raise DomainError("the start profile lies entirely in the deflated subspace")
    f = f / nrm

    trace = MinimizationTrace()
    mc2 = op.params.mc2
    prev_step = None
    Mf = M @ f
    E = float(f @ Mf)
    trace.iterates.append(E)

    for _ in range(max_iter):
        r = Mf - E * f
        rnorm = float(np.linalg.norm(r))
        trace.gradient_norms.append(rnorm)
        if rnorm <= tol * mc2:
            trace.converged = True
            trace.exit_reason = "residual"
            break
        # |.| keeps the shift positive where the Galerkin metric (a clipped
        # matrix diagonal) sits below a deflated level's energy
        shift = np.abs(lam - min(E, mc2)) + max(mc2 - E, 1e-12 * mc2)
        g = deflate(r / shift)
        g -= f * float(f @ g)
        B = np.column_stack([f, g] if prev_step is None else [f, g, prev_step])
        # unit columns, so that a tiny preconditioned gradient is not
        # mistaken for a dependent direction
        B /= np.maximum(np.linalg.norm(B, axis=0), np.finfo(float).tiny)
        Q, R = np.linalg.qr(B)
        Q = Q[:, np.abs(np.diag(R)) > 1e-12 * np.abs(R[0, 0])]
        Hs = Q.T @ (M @ Q)
        vals, vecs = eigh(0.5 * (Hs + Hs.T))
        fn = deflate(Q @ vecs[:, 0])
        fn /= np.linalg.norm(fn)
        prev_step = fn - f
        f = fn
        Mf = M @ f
        E = float(f @ Mf)
        if E < trace.iterates[-1]:
            trace.iterates.append(E)
    if not trace.converged:
        raise NumericalError(
            f"constrained minimization did not converge in {max_iter} "
            f"iterations (residual {trace.gradient_norms[-1]:.3e}, "
            f"target {tol * mc2:.3e})",
            payload=trace)
    return E, f, trace


def variational_spectrum(op: DiscreteOperator, k, tol=1e-10, max_iter=2000) -> SpectralResult:
    """k lowest eigenpairs by successive deflated minimizations."""
    prior = np.zeros((op.n, 0))
    vals = []
    for _ in range(k):
        E, f, _ = minimize_pk(op, prior=prior, tol=tol, max_iter=max_iter)
        vals.append(E)
        prior = np.column_stack([prior, f])
    vals = np.array(vals)
    res = np.array([neumann_residual_vector(op, vals[j], prior[:, j]) for j in range(k)])
    return SpectralResult(vals, prior, res, op.channel, op.params, "variational",
                          _grid_meta(op.grid))


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


def sweep_workers():
    """Worker cap from BRSPEC_THREADS (0 or unset means automatic)."""
    raw = os.environ.get("BRSPEC_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        return 1
    if v == 0:
        return min(4, os.cpu_count() or 1)
    return max(1, v)


def map_ordered(fn, items, workers):
    """fn over items on up to ``workers`` threads, results in input order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


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


def binding_curve(Z_values, channel: ChannelSpec, k, params: PhysParams,
                  n=200, workers=None):
    """Spectral results across a charge sweep; merged in input order."""
    Z_values = [float(Z) for Z in Z_values]
    if any(Z <= 0 for Z in Z_values):
        raise DomainError("charge sweep values must be positive")
    workers = sweep_workers() if workers is None else workers

    def run(Z):
        pz = params.replace(Z=Z)
        op = assemble_operator(binding_grid(Z, pz, n=n), channel, pz)
        res = dense_spectrum(op, k)
        return BindingCurveRow(Z, res.eigenvalues, res.binding_energies(),
                               res.bound_flags(), float(res.residuals.max()))

    return map_ordered(run, Z_values, workers)
