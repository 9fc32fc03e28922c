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
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from .channels import (ChannelSpec, KernelTerms, br_terms, coulomb_terms, kernel_split,
                       kernel_value, legendre_q_cosh, legendre_q_cosh_split, log_ratio)
from .dirac import lambda_of
from .errors import ConfigurationError, DomainError
from .grids import LogPanels, RadialGrid, gauss_legendre, gauss_log
from .params import PhysParams


def subtraction_profile(p, q):
    """Smooth profile phi_p(q) = 2 p^2/(p^2+q^2); equals 1 at q = p."""
    return 2.0 * p * p / (p * p + q * q)


# ---------------------------------------------------------------------------
# Panel quadrature for the subtraction integrals
# I(p) = Int_domain k(p, q) phi_p(q) q^2 dq, log-singular at q = p.
#
# In the log-ratio x = ln(q/p) the integrand is
# -(Z p/pi) sum_t f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) with
# rho(x) = 2/(1 + e^-2x) (the profile times q^2 dq/dx over p^3 e^x).  On
# [-1, 0] and [0, 1] a product rule takes the singularity: with
# Q_l = smooth + logcoef ln|x|, Gauss-Legendre nodes carry the smooth part
# and Gauss-log nodes (weight -ln|x|) the logcoef part.  Unit-width Gauss
# panels continue outward to a tail cut per l.  Everything but f_t(p e^x)
# depends on x alone and the panels are the same in every row, so the
# weights times Q_l rho are tabulated once per (l, order); a row pays for
# its mixing factors, and for Q_l only on the at most two panels its domain
# clips.  Two Gauss orders give the error estimate; rows that miss the
# tolerance fall back to scipy's adaptive routine.

# Gauss orders of the estimate; with the logarithm in the weight the higher
# one is at rounding and the lower one within 3.2e-13 of it on the grids,
# channels and charges tried, far inside the fallback tolerance
_ORDERS = (8, 12)
# tail cut: Q_l(cosh x) rho(x) > 0 and every mixing factor lies in [0, 1],
# so a row drops at most the dropped part of the table, which is kept below
# this fraction of the kept part
_TAIL = 1e-17
# the outermost unit panels the cut chooses from
_REACH = (-40.0, 60.0)


def _panel_edges():
    # unit panels out to the reach on either side; the product panels
    # [-1, 0] and [0, 1] appear twice, once per node set (Gauss-Legendre,
    # Gauss-log)
    left = np.arange(_REACH[0], -1.0)
    right = np.arange(1.0, _REACH[1])
    return (np.concatenate([left, [-1.0, -1.0, 0.0, 0.0], right]),
            np.concatenate([left + 1.0, [0.0, 0.0, 1.0, 1.0], right + 1.0]))


_PANEL_LO, _PANEL_HI = _panel_edges()
_PRODUCT = np.abs(_PANEL_LO + _PANEL_HI) == 1.0
_LOG_NODES = np.r_[False, (_PANEL_LO[1:] == _PANEL_LO[:-1]) & (_PANEL_HI[1:] == _PANEL_HI[:-1])]
_GL_NODES = _PRODUCT & ~_LOG_NODES


def _gauss_panels(a, b, rule):
    """Nodes and weights of the Gauss ``rule`` on panels [a, b] (any leading shape)."""
    t, wt = rule
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid[..., None] + half[..., None] * t, half[..., None] * wt


def _rho(x):
    return 2.0 / (1.0 + np.exp(-2.0 * x))


def _product_rule(order):
    """Gauss-Legendre then Gauss-log nodes and weights on (0, 1), each ``order`` long."""
    t, w = gauss_legendre(order)
    tl, wl = gauss_log(order)
    return np.concatenate([0.5 * (1.0 + t), tl]), np.concatenate([0.5 * w, wl])


@lru_cache(maxsize=None)
def _rule_nodes(order):
    """Nodes x and weights of the whole rule, each (panels, order), read-only."""
    x, w = _gauss_panels(_PANEL_LO, _PANEL_HI, gauss_legendre(order))
    tl, wl = gauss_log(order)
    x[_LOG_NODES] = np.sign(_PANEL_LO + _PANEL_HI)[_LOG_NODES, None] * tl
    w[_LOG_NODES] = wl
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _rule_table(l, order):
    """Weight times Q_l(cosh x) rho(x) at every node of the rule, (panels, order).

    The Gauss-Legendre nodes of the product panels carry the smooth part of
    Q_l, their Gauss-log nodes minus its logcoef.  Built on first use and
    shared, read-only, by every row, call and sweep thread.
    """
    x, w = _rule_nodes(order)
    q = np.empty_like(x)
    q[~_PRODUCT] = legendre_q_cosh((l,), x[~_PRODUCT])[0]
    (smooth,), (logcoef,) = legendre_q_cosh_split((l,), x[_PRODUCT])
    q[_PRODUCT] = np.where(_LOG_NODES[_PRODUCT, None], -logcoef, smooth)
    table = q * _rho(x) * w
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _kept_panels(l):
    """Mask of the panels inside the tail cut of Q_l.

    The unit panels are dropped lightest first, which is outermost first on
    either side, while their table mass stays below _TAIL of the whole; the
    product panels are always kept.
    """
    mass = _rule_table(l, _ORDERS[-1]).sum(axis=1)
    unit = np.flatnonzero(~_PRODUCT)
    light = unit[np.argsort(mass[unit])]
    kept = _PRODUCT.copy()
    kept[light] = np.cumsum(mass[light]) >= _TAIL * mass.sum()
    return kept


# rows per block of the panel rule: each row carries ~0.65k quadrature points
# at order 12, so evaluating all rows at once would make the temporaries
# dwarf the assembled matrix
_ROW_BLOCK = 64


def _clipped_sum(terms, f0, p, r, x, w, values):
    """Per-row sums of f_t(p) f_t(p e^x) values_t rho(x) w over clipped nodes of rows r."""
    fc = terms.factors(p[r, None] * np.exp(x))
    v = sum(f[r, None] * fx * val for f, fx, val in zip(f0, fc, values))
    return np.bincount(r, (v * _rho(x) * w).sum(axis=1), minlength=p.size)


def _panel_rule_sums(terms, p, xlo, xhi, order):
    """Sum over the panel rule of f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) w, per row."""
    ex = np.exp(_rule_nodes(order)[0])
    tables = [_rule_table(l, order) for l in terms.ls]
    kept = np.logical_or.reduce([_kept_panels(l) for l in terms.ls])
    rule = gauss_legendre(order)
    t_prod, w_prod = _product_rule(order)
    fp = terms.factors(p)
    out = np.empty(p.size)
    for lo in range(0, p.size, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        pr = p[rows]
        fr = [f[rows] for f in fp]
        a = np.clip(_PANEL_LO, xlo[rows, None], xhi[rows, None])
        b = np.clip(_PANEL_HI, xlo[rows, None], xhi[rows, None])
        whole = (a == _PANEL_LO) & (b == _PANEL_HI)
        # panels inside the domain: the shared table, masked per row, over
        # the kept panels that some row of the block has whole
        live = whole.any(axis=0) & kept
        inside = np.repeat(whole[:, live], order, axis=1)
        fq = terms.factors(pr[:, None] * ex[live].ravel())
        acc = sum(f0 * ((f * inside) @ tab[live].ravel()) for f0, f, tab in zip(fr, fq, tables))
        clipped = ~whole & (b > a)
        # unit panels the domain clips: at most one per side of a row, Gauss
        # on the part inside
        r, k = np.nonzero(clipped & kept & ~_PRODUCT)
        if r.size:
            xc, wc = _gauss_panels(a[r, k], b[r, k], rule)
            acc += _clipped_sum(terms, fr, pr, r, xc, wc, legendre_q_cosh(terms.ls, xc))
        # product panels the domain clips to [0, c]: x = c t gives
        # |c| Int_0^1 (smooth + logcoef (ln|c| + ln t)) dt, the product rule again
        r, k = np.nonzero(clipped & _GL_NODES)
        if r.size:
            c = (a + b)[r, k, None]           # one end is 0: the signed length
            xc = c * t_prod
            log_c = np.log(np.abs(c))
            values = [np.concatenate([s[:, :order] + g[:, :order] * log_c, -g[:, order:]], axis=1)
                      for s, g in zip(*legendre_q_cosh_split(terms.ls, xc))]
            acc += _clipped_sum(terms, fr, pr, r, xc, np.abs(c) * w_prod, values)
        out[rows] = acc
    return out


def subtraction_integrals(terms: KernelTerms, p_nodes, domain, tol=1e-10, counts=None):
    """I(p_i) = Int_domain k(p_i, q) phi_{p_i}(q) q^2 dq for all rows of the kernel ``terms``.

    Rows whose two-order panel estimates disagree beyond ``tol`` are
    recomputed adaptively; their number is added to ``counts["fallback_rows"]``
    when a ``counts`` dict is given.
    """
    p = np.asarray(p_nodes, dtype=float)
    qlo, qhi = domain
    xlo = np.log(qlo / p) if qlo > 0 else np.full(p.size, -np.inf)
    xhi = np.log(qhi / p) if np.isfinite(qhi) else np.full(p.size, np.inf)
    pref = -terms.Z / np.pi * p
    low, out = (pref * _panel_rule_sums(terms, p, xlo, xhi, order) for order in _ORDERS)
    err = np.abs(out - low)
    scale = np.maximum(np.abs(out), np.abs(out).max() * 1e-3 + 1e-300)
    bad = np.nonzero(err > tol * scale)[0]
    for i in bad:
        out[i] = subtraction_integral_adaptive(terms, p[i], domain, tol=tol)
    if counts is not None:
        counts["fallback_rows"] += bad.size
    return out


def subtraction_integral_adaptive(terms: KernelTerms, p, domain, tol=1e-12):
    """Reference adaptive quadrature of one subtraction integral (scipy)."""
    from scipy.integrate import quad

    qlo, qhi = domain
    f = lambda q: kernel_value(terms, p, q) * subtraction_profile(p, q) * q * q
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
    to function values on the grid nodes.  ``fallback_rows`` counts the
    subtraction integrals recomputed adaptively during assembly.
    """

    matrix: np.ndarray
    grid: RadialGrid
    channel: ChannelSpec
    params: PhysParams
    metric: np.ndarray            # discrete L^2 weights w_i p_i^2
    scheme: str
    kinetic_diagonal: np.ndarray | None = None
    fallback_rows: int = 0
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


def _toeplitz_strips(panels: LogPanels, ls):
    """Block-rows of Q_l(cosh x_ij) and of the profile on a log-panel grid.

    x_ij = ln(p_j/p_i) depends only on the panel offset d = j - i and the
    two nodes' places in their panels, so Q_l is evaluated once per offset
    d >= 0 (P m^2 - m values per l), the blocks d < 0 are their transposes,
    and every block-row is a window of the concatenated blocks.  Yields
    (rows, [Q_l rows for each l], profile rows); the diagonal Q entries are 0.
    """
    P, m = panels.count, panels.order
    x = panels.offsets()                        # d = -(P-1) .. P-1
    upper = x[P - 1:]
    off = upper != 0
    q = np.zeros((len(ls),) + upper.shape)
    for k, v in enumerate(legendre_q_cosh(ls, upper[off])):
        q[k][off] = v
    blocks = np.concatenate([q[:, :0:-1].swapaxes(-1, -2), q], axis=1)
    cat = blocks.transpose(0, 2, 1, 3).reshape(len(ls), m, (2 * P - 1) * m)
    phi = (2.0 / (1.0 + np.exp(2.0 * x))).transpose(1, 0, 2).reshape(m, -1)
    for i in range(P):
        cols = slice((P - 1 - i) * m, (2 * P - 1 - i) * m)
        yield slice(i * m, (i + 1) * m), [c[:, cols] for c in cat], phi[:, cols]


def _pointwise_strips(p, ls):
    """Row blocks of Q_l(cosh x_ij) and of the profile on any grid, each pair evaluated once."""
    n = p.size
    q = np.zeros((len(ls), n, n))
    for lo in range(0, n, _ROW_BLOCK):          # upper triangle, a block of rows at a time
        r, c = np.triu_indices(min(_ROW_BLOCK, n - lo), k=1, m=n - lo)
        r, c = r + lo, c + lo
        for k, v in enumerate(legendre_q_cosh(ls, log_ratio(p[r], p[c]))):
            q[k, r, c] = v
            q[k, c, r] = v
    for lo in range(0, n, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        yield rows, [qk[rows] for qk in q], subtraction_profile(p[rows, None], p[None, :])


def assemble_potential(grid: RadialGrid, terms: KernelTerms, tol=1e-10, counts=None):
    """Symmetric metric-normalized potential matrix by collocation + subtraction.

    M_ij = -(Z/pi) sum_t d_t(p_i) d_t(p_j) Q_l(cosh ln(p_j/p_i)) with the
    diagonal factors d_t(p) = f_t(p) sqrt(w p^2)/p, and the diagonal is the
    subtraction integral minus the row's collocation sum against the
    profile.  A grid that records its log-panel structure gets the
    block-Toeplitz fill, any other grid the pointwise one.  ``counts`` goes
    to ``subtraction_integrals``.
    """
    p = grid.nodes
    n = grid.n
    sq = np.sqrt(grid.l2_weights)
    ints = subtraction_integrals(terms, p, grid.domain, tol=tol, counts=counts)
    diag = [f * np.sqrt(grid.weights) for f in terms.factors(p)]
    strips = (_pointwise_strips(p, terms.ls) if grid.panels is None
              else _toeplitz_strips(grid.panels, terms.ls))
    M = np.empty((n, n))
    row_sums = np.empty(n)
    for rows, qs, phi in strips:
        # d_i d_j before Q_ij keeps every entry exactly symmetric
        M[rows] = sum(np.multiply.outer(d[rows], d) * qk for d, qk in zip(diag, qs))
        M[rows] *= -terms.Z / np.pi
        row_sums[rows] = (M[rows] * phi) @ sq / sq[rows]
    M[np.diag_indices(n)] = ints - row_sums
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
    terms = br_terms(channel, params, fw_scale)
    kinetic = lambda p: lambda_of(p, params)
    if scheme == "nystrom":
        kin = kinetic(grid.nodes)
        counts = {"fallback_rows": 0}
        M = assemble_potential(grid, terms, tol=tol, counts=counts)
        M[np.diag_indices(grid.n)] += kin
        return DiscreteOperator(M, grid, channel, params, grid.l2_weights,
                                "nystrom", kinetic_diagonal=kin,
                                fallback_rows=counts["fallback_rows"])
    return _assemble_galerkin(grid, channel, params, terms, kinetic)


def assemble_nonrel_operator(grid: RadialGrid, l, params: PhysParams,
                             tol=1e-10) -> DiscreteOperator:
    """Nonrelativistic comparison operator p^2/2m + Coulomb channel-l kernel."""
    kin = grid.nodes**2 / (2 * params.m)
    M = assemble_potential(grid, coulomb_terms(l, params), tol=tol)
    M[np.diag_indices(grid.n)] += kin
    channel = ChannelSpec.from_kappa(-(l + 1) if l < 3 else l)  # l_up = l
    return DiscreteOperator(M, grid, channel, params, grid.l2_weights,
                            "nystrom", kinetic_diagonal=kin)


# ---------------------------------------------------------------------------
# Galerkin fallback: piecewise-linear elements, Duffy panels on the diagonal


def _element_quad(edges, order):
    """GL nodes/weights on each element; arrays (n_el, order)."""
    return _gauss_panels(edges[:-1], edges[1:], gauss_legendre(order))


def _graded_rule(levels, order):
    """GL on the panels [0, 4^-levels], ..., [1/4, 1], graded toward 0; levels=0 is one panel."""
    edges = np.concatenate([[0.0], 4.0 ** np.arange(-levels, 1, dtype=float)])
    x, w = _element_quad(edges, order)
    return x.ravel(), w.ravel()


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
    u, wu = _graded_rule(nu_levels, order)
    v, wv = _graded_rule(0, order)
    U, V = np.meshgrid(u, v, indexing="ij")
    W = np.outer(wu, wv)
    return U.ravel(), V.ravel(), W.ravel()


def _diagonal_blocks(nodes, terms, order=6):
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
    S, G = kernel_split(terms, P, Q)
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
    x, w = _graded_rule(levels, order)
    X, Y = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    return X.ravel(), Y.ravel(), W.ravel()


def _adjacent_blocks(nodes, terms, order=6):
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
    S, G = kernel_split(terms, P, Q)
    F = (S + G * np.log(Q - P)) * P * P * Q * Q * W[None, :] * D1 * D2
    hlp, hrp = _hat_pair(P, a, m)
    hlq, hrq = _hat_pair(Q, m, r)
    L = np.empty((nodes.size - 2, 2, 2))
    L[:, 0, 0] = (F * hlp * hlq).sum(axis=1)
    L[:, 0, 1] = (F * hlp * hrq).sum(axis=1)
    L[:, 1, 0] = (F * hrp * hlq).sum(axis=1)
    L[:, 1, 1] = (F * hrp * hrq).sum(axis=1)
    return L


def _assemble_galerkin(grid, channel, params, terms, kinetic_fn,
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
    S, G = kernel_split(terms, xg[:, None], xg[None, :])
    dist = np.abs(xg[:, None] - xg[None, :])
    el = np.repeat(np.arange(n - 1), far_order)
    near = np.abs(el[:, None] - el[None, :]) <= 1
    K = S + G * np.log(np.where(near, 1.0, dist))
    K[near] = 0.0
    A = Hg.T @ (K * wg[:, None] * wg[None, :]) @ Hg

    Ldiag = _diagonal_blocks(nodes, terms)
    Ladj = _adjacent_blocks(nodes, terms)
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
