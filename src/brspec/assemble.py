"""Assembly of the discrete channel operator: kinetic diagonal + potential kernel.

Two schemes:

* ``nystrom`` (default): collocation on the quadrature nodes with diagonal
  singularity subtraction.  The logarithmically singular diagonal of the
  Coulomb-type kernel is replaced through the smooth profile
  phi_p(q) = 2 p^2 / (p^2 + q^2), whose channel integrals are computed
  per run by adaptive panel quadrature restricted to the grid's domain.
  Restricting to the domain keeps the discrete quadratic form a
  restriction of the continuum form; extending the subtraction integral
  beyond the represented window would feed potential energy from outside
  the grid into the diagonal with no matching kinetic cost and destroys
  positivity near the critical coupling.

* ``galerkin``: piecewise-linear elements on the same nodes with
  panel-split Gauss quadrature across the kernel diagonal (Duffy maps on
  the diagonal cells).  Independent cross-check of the collocation scheme.

Matrices are expressed in the metric-normalized basis e_i = delta_i /
sqrt(w_i p_i^2), in which the discrete L^2 inner product is Euclidean and
the assembled operator is symmetric.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cholesky, solve_triangular

from .channels import (ChannelSpec, _br_kernel_raw, _coulomb_kernel_raw,
                       br_kernel_split, coulomb_kernel_split)
from .dirac import lambda_of
from .errors import ConfigurationError, DomainError
from .grids import RadialGrid
from .params import PhysParams


def subtraction_profile(p, q):
    """Smooth profile phi_p(q) = 2 p^2/(p^2+q^2); equals 1 at q = p."""
    return 2.0 * p * p / (p * p + q * q)


# ---------------------------------------------------------------------------
# Singularity-aware panel quadrature for the subtraction integrals
# I(p) = Int_domain k(p, q) phi_p(q) q^2 dq, log-singular at q = p.
# Panels are geometric in the log-ratio x = ln(q/p) toward the singular
# point and expand outward until the integrand underflows or the domain
# edge clips them.  Two Gauss orders per panel give the adaptive error
# estimate; rows that miss the tolerance fall back to scipy's adaptive
# routine.

_SLIVER = 1e-13


def _panel_edges():
    # geometric refinement into the log singularity at x = ln(q/p) = 0,
    # then unit-width panels far enough out to resolve the relativistic
    # transition of the mixing coefficients wherever it falls
    near = _SLIVER * 4.0 ** np.arange(0, 23)     # 1e-13 .. ~7e-1
    near = near[near < 1.0]
    right = np.concatenate([near, np.arange(1.0, 47.0, 1.0)])
    left = -np.concatenate([near, np.arange(1.0, 27.0, 1.0)])
    return np.sort(left), np.sort(right)


_LEFT_EDGES, _RIGHT_EDGES = _panel_edges()


def _row_rule(p_nodes, domain, order):
    """Quadrature nodes/weights in q for every row, avoiding each row's diagonal.

    Returns (Q, W) of shape (n_rows, n_quad); clipped panels get zero weight.
    """
    t, wt = np.polynomial.legendre.leggauss(order)
    p = np.asarray(p_nodes, dtype=float)[:, None]
    qlo, qhi = domain
    xlo = -np.inf if qlo == 0.0 else np.log(qlo / p)
    xhi = np.inf if not np.isfinite(qhi) else np.log(qhi / p)

    qs, ws = [], []
    for edges in (_LEFT_EDGES, _RIGHT_EDGES):
        a = np.clip(edges[None, :-1], xlo, xhi)
        b = np.clip(edges[None, 1:], xlo, xhi)
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        x = mid[..., None] + half[..., None] * t          # (rows?, panels, order)
        w = half[..., None] * wt
        q = p[..., None] * np.exp(x)                      # broadcasts rows in
        qs.append(np.broadcast_to(q, (p.size,) + q.shape[1:]).reshape(p.size, -1))
        ws.append((w * q).reshape(p.size, -1))            # dq = q dx
    return np.concatenate(qs, axis=1), np.concatenate(ws, axis=1)


def _sliver_term(kernel_split, p):
    """Analytic contribution of |ln(q/p)| < 1e-13 around the diagonal."""
    s, g = kernel_split(p, p * (1.0 + 1e-8))
    eps = _SLIVER
    # Int_{-eps}^{eps} ln|p(e^x - 1)| dx = 2 eps (ln p + ln eps - 1) + O(eps^2)
    log_part = 2 * eps * (np.log(p) + np.log(eps) - 1.0)
    return (s * 2 * eps + g * log_part) * p**3  # phi_p(p) = 1, q^2 dq = p^3 dx


def subtraction_integrals(kernel, kernel_split, p_nodes, domain, tol=1e-10):
    """I(p_i) = Int_domain kernel(p_i, q) phi_{p_i}(q) q^2 dq for all rows at once.

    ``kernel`` must accept arrays; ``kernel_split`` returns the smooth/log
    decomposition used for the diagonal sliver.  Rows whose two-level panel
    estimates disagree beyond ``tol`` are recomputed adaptively.
    """
    p = np.asarray(p_nodes, dtype=float)
    vals = {}
    for order in (10, 16):
        Q, W = _row_rule(p, domain, order)
        F = kernel(p[:, None], Q) * subtraction_profile(p[:, None], Q) * Q * Q
        vals[order] = (F * W).sum(axis=1)
    out = vals[16] + _sliver_term(kernel_split, p)
    err = np.abs(vals[16] - vals[10])
    scale = np.maximum(np.abs(out), np.abs(out).max() * 1e-3 + 1e-300)
    bad = err > tol * scale
    for i in np.nonzero(bad)[0]:
        out[i] = subtraction_integral_adaptive(kernel, p[i], domain, tol=tol)
    return out


def subtraction_integral_adaptive(kernel, p, domain, tol=1e-12):
    """Reference adaptive quadrature of one subtraction integral (scipy)."""
    qlo, qhi = domain
    f = lambda q: kernel(p, q) * subtraction_profile(p, q) * q * q
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not np.isfinite(qhi):
            v1 = quad(f, qlo, 2 * p, points=[p], limit=400, epsabs=1e-14, epsrel=tol)[0]
            v2 = quad(f, 2 * p, np.inf, limit=400, epsabs=1e-14, epsrel=tol)[0]
        else:
            mid = min(2 * p, 0.5 * (p + qhi))
            v1 = quad(f, qlo, mid, points=[p], limit=400, epsabs=1e-14, epsrel=tol)[0]
            v2 = quad(f, mid, qhi, limit=400, epsabs=1e-14, epsrel=tol)[0]
    return v1 + v2


# ---------------------------------------------------------------------------
# Discrete operator


@dataclass
class DiscreteOperator:
    """Symmetric matrix of the channel operator in the L^2-orthonormal basis.

    ``matrix`` includes kinetic and potential parts; eigenvector coordinates
    are Euclidean-orthonormal exactly when the underlying radial functions
    are L^2-orthonormal.  ``node_values`` maps eigenvector coordinates back
    to function values on the grid nodes.
    """

    matrix: np.ndarray
    grid: RadialGrid
    channel: ChannelSpec
    params: PhysParams
    metric: np.ndarray            # discrete L^2 weights w_i p_i^2
    scheme: str
    kinetic_diagonal: np.ndarray | None = None
    _chol: np.ndarray | None = None
    _dscale: np.ndarray | None = None

    @property
    def n(self):
        return self.matrix.shape[0]

    def potential_part(self):
        pot = self.matrix.copy()
        if self.kinetic_diagonal is not None:
            pot[np.diag_indices_from(pot)] -= self.kinetic_diagonal
            return pot
        raise DomainError("potential split is only direct for the nystrom scheme")

    def with_charge(self, Z):
        """The same operator at nuclear charge Z, by rescaling the potential.

        The transformed Coulomb kernel is proportional to Z and the
        subtraction integrals' fallback decision is relative, so
        lambda(p) + (Z / params.Z) V equals a fresh assembly at charge Z up
        to rounding; from a unit-charge operator the factor is exactly Z.
        Nystrom only, like ``potential_part``.
        """
        pot = self.potential_part()
        if self.params.Z == 0:
            raise DomainError("a zero-charge operator carries no potential to rescale")
        pot *= Z / self.params.Z
        pot[np.diag_indices_from(pot)] += self.kinetic_diagonal
        return replace(self, matrix=pot, params=self.params.replace(Z=float(Z)))

    def node_values(self, vec):
        if self.scheme == "nystrom":
            return vec / np.sqrt(self.metric)
        x = solve_triangular(self._chol, vec, lower=True, trans="T")
        return x / self._dscale


def _kernel_callables(channel, params, fw_scale):
    kern = lambda p, q: _br_kernel_raw(channel, p, q, params, fw_scale)
    split = lambda p, q: br_kernel_split(channel, p, q, params, fw_scale)
    return kern, split


def _nonrel_kernel_callables(l, params):
    kern = lambda p, q: _coulomb_kernel_raw(l, p, q, params.Z)
    split = lambda p, q: coulomb_kernel_split(l, p, q, params)
    return kern, split


def assemble_potential(grid: RadialGrid, kernel, kernel_split, tol=1e-10):
    """Symmetric metric-normalized potential matrix by collocation + subtraction."""
    p = grid.nodes
    n = grid.n
    lw = grid.l2_weights
    sq = np.sqrt(lw)
    P, Q = np.meshgrid(p, p, indexing="ij")
    iu = np.triu_indices(n, k=1)
    K = np.zeros((n, n))
    K[iu] = kernel(P[iu], Q[iu])
    K = K + K.T                                  # exact symmetry by construction
    M = K * sq[:, None] * sq[None, :]
    ints = subtraction_integrals(kernel, kernel_split, p, grid.domain, tol=tol)
    row_correction = ints - (K * subtraction_profile(p[:, None], p[None, :]) * lw[None, :]).sum(axis=1)
    M[np.diag_indices(n)] = row_correction
    return M


def assemble_operator(grid: RadialGrid, channel: ChannelSpec, params: PhysParams,
                      scheme="nystrom", fw_scale=1.0, tol=1e-10) -> DiscreteOperator:
    """Discrete channel operator lambda(p) + transformed Coulomb potential."""
    if scheme not in ("nystrom", "galerkin"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if params.Z > 0 and not params.in_subordinacy_window():
        warnings.warn(
            f"Z = {params.Z} lies outside the subordinacy window Z < "
            f"{params.critical_charge:.2f}; the operator is not bounded below",
            UserWarning, stacklevel=2)
    kern, split = _kernel_callables(channel, params, fw_scale)
    kinetic = lambda p: lambda_of(p, params)
    if scheme == "nystrom":
        kin = kinetic(grid.nodes)
        M = assemble_potential(grid, kern, split, tol=tol)
        M[np.diag_indices(grid.n)] += kin
        return DiscreteOperator(M, grid, channel, params, grid.l2_weights,
                                "nystrom", kinetic_diagonal=kin)
    return _assemble_galerkin(grid, channel, params, split, kinetic)


def assemble_nonrel_operator(grid: RadialGrid, l, params: PhysParams,
                             tol=1e-10) -> DiscreteOperator:
    """Nonrelativistic comparison operator p^2/2m + Coulomb channel-l kernel."""
    kern, split = _nonrel_kernel_callables(l, params)
    kin = grid.nodes**2 / (2 * params.m)
    M = assemble_potential(grid, kern, split, tol=tol)
    M[np.diag_indices(grid.n)] += kin
    channel = ChannelSpec.from_kappa(-(l + 1) if l < 3 else l)  # l_up = l
    return DiscreteOperator(M, grid, channel, params, grid.l2_weights,
                            "nystrom", kinetic_diagonal=kin)


# ---------------------------------------------------------------------------
# Galerkin fallback: piecewise-linear elements, Duffy panels on the diagonal


def _gl(order):
    return np.polynomial.legendre.leggauss(order)


def _element_quad(edges, order):
    """GL nodes/weights on each element; arrays (n_el, order)."""
    t, wt = _gl(order)
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (b - a) * t + 0.5 * (a + b)
    w = 0.5 * (b - a) * wt
    return x, w


def _hat_pair(x, a, b):
    """Values of the (left, right) hats of element [a, b] at points x."""
    lam = (x - a) / (b - a)
    return 1.0 - lam, lam


def _assemble_tridiag(nodes, weight_fn, order=12):
    """Tridiagonal Int weight(p) h_i h_j dp-type matrices on the hat basis."""
    n = nodes.size
    x, w = _element_quad(nodes, order)
    hl, hr = _hat_pair(x, nodes[:-1, None], nodes[1:, None])
    f = weight_fn(x) * w
    out = np.zeros((n, n))
    d_ll = (f * hl * hl).sum(axis=1)
    d_rr = (f * hr * hr).sum(axis=1)
    d_lr = (f * hl * hr).sum(axis=1)
    idx = np.arange(n - 1)
    np.add.at(out, (idx, idx), d_ll)
    np.add.at(out, (idx + 1, idx + 1), d_rr)
    np.add.at(out, (idx, idx + 1), d_lr)
    np.add.at(out, (idx + 1, idx), d_lr)
    return out


def _duffy_triangle_rule(nu_levels=12, order=6):
    """Graded panels in the Duffy u-variable times GL in v, on [0,1]^2."""
    t, wt = _gl(order)
    edges = np.concatenate([[0.0], 4.0 ** np.arange(-nu_levels, 1, dtype=float)])
    us, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        us.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wt)
    u = np.concatenate(us)
    wu = np.concatenate(ws)
    v = 0.5 * t + 0.5
    wv = 0.5 * wt
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    return U.ravel(), V.ravel(), W.ravel()


def _diagonal_blocks(nodes, kernel_split, order=6):
    """2x2 hat-pair integrals over each diagonal cell [a,b]^2 (all elements at once).

    The cell is split along p = q into two congruent triangles; the lower
    one is mapped by p = a + D u, q = a + D u v (Jacobian D^2 u), on which
    ln|p - q| = ln(D u (1 - v)) is integrable; the upper triangle is the
    mirror image obtained by swapping the hat indices.
    """
    U, V, W = _duffy_triangle_rule(order=order)
    a = nodes[:-1, None]
    b = nodes[1:, None]
    D = b - a
    P = a + D * U[None, :]
    Q = a + D * (U * V)[None, :]
    S, G = kernel_split(P, Q)
    K = S + G * np.log(D * (U * (1 - V))[None, :])
    F = K * P * P * Q * Q * (W * U)[None, :] * D**2
    hlp, hrp = _hat_pair(P, a, b)
    hlq, hrq = _hat_pair(Q, a, b)
    L = np.empty((nodes.size - 1, 2, 2))
    L[:, 0, 0] = (F * hlp * hlq).sum(axis=1)
    L[:, 0, 1] = (F * hlp * hrq).sum(axis=1)
    L[:, 1, 0] = (F * hrp * hlq).sum(axis=1)
    L[:, 1, 1] = (F * hrp * hrq).sum(axis=1)
    return L + np.transpose(L, (0, 2, 1))


def _corner_rule(levels=8, order=6):
    """Tensor rule on [0,1]^2 geometrically refined toward the (0, 0) corner."""
    t, wt = _gl(order)
    edges = np.concatenate([[0.0], 4.0 ** np.arange(-levels, 1, dtype=float)])
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wt)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return X.ravel(), Y.ravel(), W.ravel()


def _adjacent_blocks(nodes, kernel_split, order=6):
    """Hat-pair integrals over adjacent cells [p_e, p_m] x [p_m, p_r].

    The kernel is singular only at the shared corner (p_m, p_m); geometric
    tensor refinement toward it integrates the logarithm accurately.
    """
    X, Y, W = _corner_rule(order=order)
    a = nodes[:-2, None]
    m = nodes[1:-1, None]
    r = nodes[2:, None]
    D1, D2 = m - a, r - m
    P = m - D1 * X[None, :]
    Q = m + D2 * Y[None, :]
    S, G = kernel_split(P, Q)
    F = (S + G * np.log(Q - P)) * P * P * Q * Q * W[None, :] * D1 * D2
    hlp, hrp = _hat_pair(P, a, m)
    hlq, hrq = _hat_pair(Q, m, r)
    L = np.empty((nodes.size - 2, 2, 2))
    L[:, 0, 0] = (F * hlp * hlq).sum(axis=1)
    L[:, 0, 1] = (F * hlp * hrq).sum(axis=1)
    L[:, 1, 0] = (F * hrp * hlq).sum(axis=1)
    L[:, 1, 1] = (F * hrp * hrq).sum(axis=1)
    return L


def _assemble_galerkin(grid, channel, params, kernel_split, kinetic_fn,
                       far_order=6):
    nodes = grid.nodes
    n = nodes.size
    mass = _assemble_tridiag(nodes, lambda p: p * p)
    kin = _assemble_tridiag(nodes, lambda p: kinetic_fn(p) * p * p)

    # far-field potential: tensor GL on every element pair, then the
    # near-diagonal pairs are replaced with the singularity-aware values
    x, w = _element_quad(nodes, far_order)
    xg = x.ravel()
    hl, hr = _hat_pair(x, nodes[:-1, None], nodes[1:, None])
    Hg = np.zeros((xg.size, n))
    rows = np.repeat(np.arange(n - 1), far_order)
    Hg[np.arange(xg.size), rows] = hl.ravel()
    Hg[np.arange(xg.size), rows + 1] = hr.ravel()
    wg = (w * x * x).ravel()
    S, G = kernel_split(xg[:, None], xg[None, :])
    dist = np.abs(xg[:, None] - xg[None, :])
    el = np.repeat(np.arange(n - 1), far_order)
    near = np.abs(el[:, None] - el[None, :]) <= 1
    K = S + G * np.log(np.where(near, 1.0, dist))
    K[near] = 0.0
    A = Hg.T @ (K * wg[:, None] * wg[None, :]) @ Hg

    Ldiag = _diagonal_blocks(nodes, kernel_split)
    Ladj = _adjacent_blocks(nodes, kernel_split)
    idx = np.arange(n - 1)
    for di, dj, vals in (
        (idx, idx, Ldiag[:, 0, 0]),
        (idx, idx + 1, Ldiag[:, 0, 1]),
        (idx + 1, idx, Ldiag[:, 1, 0]),
        (idx + 1, idx + 1, Ldiag[:, 1, 1]),
    ):
        np.add.at(A, (di, dj), vals)
    jdx = np.arange(n - 2)
    for di, dj, vals in (
        (jdx, jdx + 1, Ladj[:, 0, 0]),
        (jdx, jdx + 2, Ladj[:, 0, 1]),
        (jdx + 1, jdx + 1, Ladj[:, 1, 0]),
        (jdx + 1, jdx + 2, Ladj[:, 1, 1]),
    ):
        np.add.at(A, (di, dj), vals)
        np.add.at(A, (dj, di), vals)

    A = A + kin
    A = 0.5 * (A + A.T)

    # reduce the pencil (A, mass) to a standard symmetric problem with a
    # Jacobi-scaled Cholesky factor; eigenvector coordinates then carry the
    # Euclidean inner product = discrete L^2
    d = np.sqrt(np.diag(mass))
    Ab = A / d[:, None] / d[None, :]
    Bb = mass / d[:, None] / d[None, :]
    L = cholesky(Bb, lower=True)
    Y = solve_triangular(L, Ab, lower=True)
    M = solve_triangular(L, Y.T, lower=True).T
    M = 0.5 * (M + M.T)
    return DiscreteOperator(M, grid, channel, params, grid.l2_weights,
                            "galerkin", kinetic_diagonal=None,
                            _chol=L, _dscale=d)
