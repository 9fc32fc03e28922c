"""Assembly of the discrete channel operator: kinetic diagonal + potential kernel.

The kernel, the subtraction integrals and the potential matrix are per unit
charge; each operator constructor multiplies its potential by the charge
once, before it adds the kinetic energy.  Two schemes:

* ``nystrom`` (default): collocation on the quadrature nodes with diagonal
  singularity subtraction.  The logarithmically singular diagonal of the
  Coulomb-type kernel is replaced through the smooth profile
  phi_p(q) = 2 p^2 / (p^2 + q^2), whose channel integrals are computed
  per run by a product Gauss rule restricted to the grid's domain:
  Gauss-Legendre panels, with Gauss-log nodes on the panels that touch the
  singularity, at two orders whose disagreement is an error.
  Restricting to the domain keeps the discrete quadratic form a
  restriction of the continuum form; extending the subtraction integral
  beyond the represented window would feed potential energy from outside
  the grid into the diagonal with no matching kinetic cost and destroys
  positivity near the critical coupling.

* ``galerkin``: piecewise-linear elements on the same nodes.  The
  potential is integrated once on each unordered pair of elements by the
  rule of its class: a Duffy map on the diagonal cells, a rule graded
  toward the shared corner on the adjacent ones, tensor Gauss on the rest;
  one scatter adds each 2x2 hat block and its mirror.  Every rule
  evaluates Q_l(cosh x) as collocation does, with |x| = |ln(q/p)| taken
  from its own map without cancellation.  Independent cross-check of the
  collocation scheme.

Matrices are expressed in the metric-normalized basis e_i = delta_i /
sqrt(w_i p_i^2), in which the discrete L^2 inner product is Euclidean and
the assembled operator is symmetric.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky_banded, solve_banded

from .channels import (ChannelSpec, KernelTerms, br_terms, coulomb_terms, critical_charge,
                       kernel_at, legendre_q_cosh, legendre_q_cosh_split, log_ratio)
from .dirac import lambda_of
from .errors import ConfigurationError, NumericalError
from .grids import LogPanels, RadialGrid, gauss_legendre, gauss_log, gauss_panels
from .params import PhysParams


def subtraction_profile(p, q):
    """Smooth profile phi_p(q) = 2 p^2/(p^2+q^2); equals 1 at q = p."""
    return 2.0 * p * p / (p * p + q * q)


# ---------------------------------------------------------------------------
# Panel quadrature for the subtraction integrals
# I(p) = Int_domain k(p, q) phi_p(q) q^2 dq, log-singular at q = p.
#
# In the log-ratio x = ln(q/p) the integrand is
# -(p/pi) sum_t f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) per unit charge, with
# rho(x) = 2/(1 + e^-2x) (the profile times q^2 dq/dx over p^3 e^x).  On
# [-1, 0] and [0, 1] a product rule takes the singularity: with
# Q_l = smooth + logcoef ln|x|, Gauss-Legendre nodes carry the smooth part
# and Gauss-log nodes (weight -ln|x|) the logcoef part.  Gauss panels
# continue outward, of unit width to |x| = 3 and then each _GROWTH times as
# wide as the last, up to _WIDEST: out there Q_l(cosh x) rho(x) is smooth
# and decays like e^-|x| or faster.  They end at the first panel past the
# tail cut of Q_l, which is set on the unit lattice.  On the domain
# (0, inf) this row-centred rule is the same in every row and never
# clipped, so the weights times Q_l rho are tabulated once per (l, order)
# and a row pays only for its mixing factors.  A log-panel grid integrates
# over its own panels instead (below).  Two Gauss orders give the error
# estimate; a row whose estimates disagree beyond ORDER_TOL raises
# NumericalError.

# Gauss orders of the estimate; with the logarithm in the weight the higher
# one is at rounding and the lower one within 2.4e-12 of it (relative, on
# ORDER_TOL's scale) over the corners of the configuration ranges, far
# inside ORDER_TOL
_ORDERS = (8, 12)
# largest disagreement of the two orders, relative to the row's value (or a
# thousandth of the largest row, whichever is larger)
ORDER_TOL = 1e-10
# tail cut: Q_l(cosh x) rho(x) > 0 and every mixing factor lies in [0, 1],
# so a row drops at most the dropped part of the table, which is kept below
# this fraction of the kept part
_TAIL = 1e-17
# the outermost unit panels the cut chooses from
_REACH = (-40.0, 60.0)
# beyond |x| = 3 each panel is _GROWTH times as wide as the one before it,
# up to _WIDEST
_GROWTH, _WIDEST = 1.3, 3.0


def _panel_edges():
    # unit panels out to |x| = 3, then widening ones out to the reach on
    # either side; the product panels [-1, 0] and [0, 1] appear twice, once
    # per node set (Gauss-Legendre, Gauss-log); the 26 widths end past
    # |x| = 70
    widths = np.clip(_GROWTH ** np.arange(-1.0, 25.0), 1.0, _WIDEST)
    edges = np.concatenate([[1.0], 1.0 + np.cumsum(widths)])
    right = edges[:np.searchsorted(edges, _REACH[1]) + 1]
    left = -edges[:np.searchsorted(edges, -_REACH[0]) + 1][::-1]
    return (np.concatenate([left[:-1], [-1.0, -1.0, 0.0, 0.0], right[:-1]]),
            np.concatenate([left[1:], [0.0, 0.0, 1.0, 1.0], right[1:]]))


_PANEL_LO, _PANEL_HI = _panel_edges()
_PRODUCT = np.abs(_PANEL_LO + _PANEL_HI) == 1.0
_LOG_NODES = np.r_[False, (_PANEL_LO[1:] == _PANEL_LO[:-1]) & (_PANEL_HI[1:] == _PANEL_HI[:-1])]


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
    x, w = gauss_panels(_PANEL_LO, _PANEL_HI, order)
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
    shared, read-only, by every row and call.
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
def _tail_cut(l):
    """Ends (lo, hi) of the tail cut of Q_l on the unit lattice.

    The unit panels between the reach and [-1, 1] are dropped lightest
    first, which is outermost first on either side, while their order-12
    mass stays below _TAIL of the whole.  The log-grid rule's far table
    spans the cut, so its Q_l evaluations grow with it; a cut on the
    widening panels would reach up to 3 further.  The row-centred rule keeps
    every panel that reaches into the cut, so it drops less.
    """
    lo = np.concatenate([np.arange(_REACH[0], -1.0), np.arange(1.0, _REACH[1])])
    x, w = gauss_panels(lo, lo + 1.0, _ORDERS[-1])
    mass = (legendre_q_cosh((l,), x)[0] * _rho(x) * w).sum(axis=1)
    light = np.argsort(mass)
    whole = mass.sum() + _rule_table(l, _ORDERS[-1])[_PRODUCT].sum()
    kept = lo[light][np.cumsum(mass[light]) >= _TAIL * whole]
    return kept.min(), kept.max() + 1.0


@lru_cache(maxsize=None)
def _kept_panels(l):
    """Mask of the panels that reach into the tail cut of Q_l, the product panels among them.

    For l = 0 (the cut [-13, 40]) these are 7 panels left of [-1, 0], the
    two product panels of two node sets each, and 16 right of [0, 1].
    """
    lo, hi = _tail_cut(l)
    return (_PANEL_HI > lo) & (_PANEL_LO < hi)


# rows per block of the row-centred rule: each row carries ~0.32k quadrature
# points at order 12, so evaluating all rows at once would make the
# temporaries dwarf the assembled matrix
_ROW_BLOCK = 64


def _centred_rule_sums(terms, p, order):
    """Sum over the row-centred rule of f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) w, per row.

    For the domain (0, inf), which clips no panel of any row.
    """
    kept = np.logical_or.reduce([_kept_panels(l) for l in terms.ls])
    ex = np.exp(_rule_nodes(order)[0][kept]).ravel()
    tables = [_rule_table(l, order)[kept].ravel() for l in terms.ls]
    fp = terms.factors(p)
    out = np.empty(p.size)
    for lo in range(0, p.size, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        fq = terms.factors(p[rows, None] * ex)
        out[rows] = sum(f0[rows] * (f @ tab) for f0, f, tab in zip(fp, fq, tables))
    return out


# ---------------------------------------------------------------------------
# The subtraction integrals on a log-panel grid.
#
# The window is the panels' span in u = ln q.  Each panel is split into
# S = ceil(h / _SUB_WIDTH) sub-panels of width g = h/S, K = P S in all, and
# a row at node r of panel i, u_i = u_0 + h (i + tau_r), lies in sub-panel
# k_i = i S + floor(S tau_r) at the offset phi_r = S tau_r - floor(S tau_r),
# both fixed by r.  Sub-panels d = k - k_i with |d| >= 2 carry plain Gauss
# nodes at x = g (d + s_j - phi_r): weight times Q_l rho is one
# block-Toeplitz table over (d, j, r), the mixing factors one table over the
# K sub-panels' nodes, and every row's sum is their correlation along k, one
# real FFT per (term, order).  What is left, from the start of sub-panel
# k_i - 1 to u_i and from u_i to the end of k_i + 1, cut at the window, is at
# most 2 g <= 1 long on either side and takes the product rule of the
# row-centred rule scaled to its length; its Q_l values depend on the length
# alone, of which there are at most 2 m per side.  No panel is ever clipped.

_SUB_WIDTH = 0.5


def _far_table(l, g, s, w, phi, K):
    """Weight times Q_l(cosh x) rho(x) at x = g (d + s_j - phi_r), shape (offsets, order, m).

    The offsets d, |d| < K, run over the sub-panels that reach into the tail
    cut of Q_l for some row; the neighbourhood's |d| < 2 are 0.  Returns the
    table and its first offset.
    """
    lo, hi = _tail_cut(l)
    d = np.arange(max(1 - K, int(np.floor(lo / g))), min(K - 1, int(np.ceil(hi / g))) + 1)
    x = g * (d[:, None, None] + (s[:, None] - phi))
    far = np.abs(d) >= 2
    table = np.zeros(x.shape)
    table[far] = legendre_q_cosh((l,), x[far])[0] * _rho(x[far]) * w[:, None]
    return table, d[0]


def _correlate(f, table, d0):
    """sum_{k, j} f[k, j] table[k - k_i - d0, j, r] for every sub-panel k_i, shape (K, m).

    The reversed f convolved with the table, read at K - 1 - k_i - d0, by
    real FFTs zero-padded to hold the whole linear convolution, so that
    nothing wraps around.
    """
    K = f.shape[0]
    size = 1 << (K + table.shape[0] - 2).bit_length()
    spectrum = np.fft.rfft(f[::-1], size, axis=0)[:, :, None] * np.fft.rfft(table, size, axis=0)
    conv = np.fft.irfft(spectrum.sum(axis=1), size, axis=0)
    return conv[K - 1 - d0 - np.arange(K)]


def _log_grid_sums(terms, grid, order):
    """Sum over the log-grid rule of f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) w, per row."""
    pan = grid.panels
    p = grid.nodes
    S = int(np.ceil(pan.width / _SUB_WIDTH))
    g = pan.width / S
    K = pan.count * S
    sub, phi = np.divmod(S * pan.places(), 1.0)
    k_row = (S * np.arange(pan.count)[:, None] + sub.astype(int)).ravel()
    r_row = np.tile(np.arange(pan.order), pan.count)
    s, w = gauss_legendre(order)
    s, w = 0.5 * (1.0 + s), 0.5 * g * w
    f_far = terms.factors(np.exp(pan.log_lo + g * (np.arange(K)[:, None] + s)))
    # the neighbourhood: one signed length per side and row, cut at the window
    ends = np.concatenate([-g * (phi[r_row] + np.minimum(k_row, 1)),
                           g * (1.0 - phi[r_row] + np.minimum(K - 1 - k_row, 1))])
    lengths, which = np.unique(ends, return_inverse=True)
    t_prod, w_prod = _product_rule(order)
    x = lengths[:, None] * t_prod
    # x = c t on [0, c] gives |c| Int_0^1 (smooth + logcoef (ln|c| + ln t)) dt
    log_c = np.log(np.abs(lengths))[:, None]
    weight = np.abs(lengths)[:, None] * w_prod * _rho(x)
    near = [np.concatenate([sm[:, :order] + lc[:, :order] * log_c, -lc[:, order:]], axis=1) * weight
            for sm, lc in zip(*legendre_q_cosh_split(terms.ls, x))]
    which = which.reshape(2, p.size)
    f_near = terms.factors(p[:, None] * np.exp(x[which]))
    out = np.zeros(p.size)
    for l, f0, ff, fn, tab in zip(terms.ls, terms.factors(p), f_far, f_near, near):
        far = _correlate(ff, *_far_table(l, g, s, w, phi, K))
        out += f0 * (far[k_row, r_row] + (fn * tab[which]).sum(axis=(0, 2)))
    return out


def subtraction_integrals(terms: KernelTerms, grid: RadialGrid):
    """I(p_i) = Int_domain k(p_i, q) phi_{p_i}(q) q^2 dq per unit charge, at every node.

    A log-panel grid integrates over its panels, any other grid over
    (0, inf) by the row-centred rule.  A row whose two-order estimates
    disagree beyond ``ORDER_TOL`` raises NumericalError.
    """
    p = grid.nodes
    if grid.panels is not None:
        sums = lambda order: _log_grid_sums(terms, grid, order)
    else:
        sums = lambda order: _centred_rule_sums(terms, p, order)
    pref = -1.0 / np.pi * p
    low, out = (pref * sums(order) for order in _ORDERS)
    err = np.abs(out - low)
    scale = np.maximum(np.abs(out), np.abs(out).max() * 1e-3 + 1e-300)
    bad = np.nonzero(err > ORDER_TOL * scale)[0]
    if bad.size:
        i = bad[0]
        raise NumericalError(
            f"the Gauss orders {_ORDERS} of the subtraction integrals disagree on "
            f"{bad.size} of {p.size} rows; row {i} (p = {p[i]:.6g}): {low[i]!r} and "
            f"{out[i]!r}, apart by {err[i]:.3g}, more than {ORDER_TOL:g} of {scale[i]:.3g}")
    return out


def subtraction_integral_adaptive(terms: KernelTerms, p, domain, tol=1e-12):
    """Reference adaptive quadrature of one subtraction integral (scipy).

    The oracle the panel rules are tested against; assembly never calls it.
    It stays in the package while the benchmark's tracer times it by name.
    ``quad`` never samples its breakpoint q = p, the kernel's diagonal.
    """
    from scipy.integrate import quad

    qlo, qhi = domain
    f = lambda q: kernel_at(terms, p, q, log_ratio(p, q)) * subtraction_profile(p, q) * q * q
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
    are L^2-orthonormal.
    """

    matrix: np.ndarray
    grid: RadialGrid
    params: PhysParams

    @property
    def n(self):
        return self.matrix.shape[0]


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


def assemble_potential(grid: RadialGrid, terms: KernelTerms):
    """Symmetric metric-normalized unit-charge potential matrix by collocation + subtraction.

    M_ij = -(1/pi) sum_t d_t(p_i) d_t(p_j) Q_l(cosh ln(p_j/p_i)) with the
    diagonal factors d_t(p) = f_t(p) sqrt(w p^2)/p, and the diagonal is the
    subtraction integral minus the row's collocation sum against the
    profile.  A grid that records its log-panel structure gets the
    block-Toeplitz fill, any other grid the pointwise one.
    """
    p = grid.nodes
    n = grid.n
    sq = np.sqrt(grid.l2_weights)
    ints = subtraction_integrals(terms, grid)
    diag = [f * np.sqrt(grid.weights) for f in terms.factors(p)]
    strips = (_pointwise_strips(p, terms.ls) if grid.panels is None
              else _toeplitz_strips(grid.panels, terms.ls))
    M = np.empty((n, n))
    row_sums = np.empty(n)
    for rows, qs, phi in strips:
        # d_i d_j before Q_ij keeps every entry exactly symmetric
        M[rows] = sum(np.multiply.outer(d[rows], d) * qk for d, qk in zip(diag, qs))
        M[rows] *= -1.0 / np.pi
        row_sums[rows] = (M[rows] * phi) @ sq / sq[rows]
    M[np.diag_indices(n)] = ints - row_sums
    return M


def assemble_operator(grid: RadialGrid, channel: ChannelSpec, params: PhysParams,
                      scheme="nystrom") -> DiscreteOperator:
    """Discrete channel operator lambda(p) + transformed Coulomb potential."""
    if scheme not in ("nystrom", "galerkin"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    z_c = critical_charge(params, channel.kappa)
    if params.Z >= z_c:
        warnings.warn(
            f"Z = {params.Z} lies outside the subordinacy window Z < {z_c:.2f} of "
            f"kappa = {channel.kappa}; the operator is not bounded below",
            UserWarning, stacklevel=2)
    terms = br_terms(channel, params)
    if scheme == "galerkin":
        return DiscreteOperator(_assemble_galerkin(grid, params, terms), grid, params)
    M = assemble_potential(grid, terms)
    M *= params.Z
    M[np.diag_indices(grid.n)] += lambda_of(grid.nodes, params)
    return DiscreteOperator(M, grid, params)


def assemble_nonrel_operator(grid: RadialGrid, l, params: PhysParams) -> DiscreteOperator:
    """Nonrelativistic comparison operator p^2/2m + Coulomb channel-l kernel."""
    M = assemble_potential(grid, coulomb_terms(l))
    M *= params.Z
    M[np.diag_indices(grid.n)] += grid.nodes**2 / (2 * params.m)
    return DiscreteOperator(M, grid, params)


# ---------------------------------------------------------------------------
# Galerkin cross-check: piecewise-linear elements, Duffy panels on the diagonal

# Gauss orders of the mass and kinetic matrices and of every potential panel;
# the diagonal cells grade their Duffy u-panels over 12 levels toward the
# cell's corner and their v-panels over 8 toward the diagonal, the adjacent
# cells both over 8 toward the shared corner
_TRIDIAG_ORDER = 12
_POTENTIAL_ORDER = 6
_DUFFY_LEVELS = 12
_CORNER_LEVELS = 8
# quadrature points per block of cells, so that no temporary grows with the
# square of the grid
_BLOCK_POINTS = 1 << 15


def _graded_rule(levels):
    """GL on the panels [0, 4^-levels], ..., [1/4, 1], graded toward 0; levels=0 is one panel."""
    edges = np.concatenate([[0.0], 4.0 ** np.arange(-levels, 1, dtype=float)])
    x, w = gauss_panels(edges[:-1], edges[1:], _POTENTIAL_ORDER)
    return x.ravel(), w.ravel()


def _tensor_rule(u_levels, v_levels):
    """Tensor product of two graded rules on [0,1]^2, as flat (U, V, W)."""
    u, wu = _graded_rule(u_levels)
    v, wv = _graded_rule(v_levels)
    U, V = np.meshgrid(u, v, indexing="ij")
    return U.ravel(), V.ravel(), np.outer(wu, wv).ravel()


# the rules of the cell classes d = min(f - e, 2) of element pairs (e, f)
_DIAGONAL_RULE = _tensor_rule(_DUFFY_LEVELS, _CORNER_LEVELS)
_CORNER_RULE = _tensor_rule(_CORNER_LEVELS, _CORNER_LEVELS)
_FAR_RULE = _tensor_rule(0, 0)
_CELL_RULES = (_DIAGONAL_RULE, _CORNER_RULE, _FAR_RULE)


def _hat_pair(x, a, b):
    """Values of the (left, right) hats of element [a, b] at points x."""
    lam = (x - a) / (b - a)
    return 1.0 - lam, lam


def _hat_blocks(F, p, p_element, q, q_element):
    """Sum of F h_a(p) h_b(q) over each cell's points, as 2x2 blocks (cells, 2, 2).

    h_a runs over the (left, right) hats of the element (a, b) holding the
    points p, h_b over those of the element holding q; F carries the
    integrand and the quadrature weights, one row per cell.
    """
    hp = np.stack(_hat_pair(p, *p_element), axis=1) * F[:, None]
    return hp @ np.stack(_hat_pair(q, *q_element), axis=2)


def _tridiag_blocks(nodes, weight_fn):
    """Int weight(p) h_a h_b dp over each element, as 2x2 blocks of its hat pair."""
    x, w = gauss_panels(nodes[:-1], nodes[1:], _TRIDIAG_ORDER)
    element = (nodes[:-1, None], nodes[1:, None])
    return _hat_blocks(weight_fn(x) * w, x, element, x, element)


def _cell_blocks(nodes, terms, e, f, d):
    """Potential on the cells [p_e, p_e+1] x [p_f, p_f+1] against the hat pairs, (cells, 2, 2).

    Every cell is of the class d = min(f - e, 2), whose rule takes the
    kernel's logarithm where the class has it, with x = |ln(q/p)| from the
    rule's own map:

    * d = 0, the diagonal cell [a, b]^2, is split along p = q into two
      congruent triangles.  The lower one is mapped by p = a + D u,
      q = a + D u (1 - v) (Jacobian D^2 u), which gives x = log1p(D u v / q);
      the kernel's ln|x| then sits on v = 0, toward which the rule is graded
      as it is toward u = 0.  The upper triangle is the mirror image,
      obtained by swapping the hat indices.
    * d = 1, adjacent cells, are singular only at the shared corner (b, b);
      p = b - D_e u, q = b + D_f v, geometrically refined toward it, gives
      x = log1p((D_e u + D_f v) / p).
    * d = 2, every pair at least two elements apart, takes the 6 x 6
      tensor Gauss rule and x from ``log_ratio``.
    """
    a, b = nodes[e, None], nodes[e + 1, None]
    c, g = nodes[f, None], nodes[f + 1, None]
    De, Df = b - a, g - c
    U, V, W = _CELL_RULES[d]
    if d == 0:
        P, Q = a + De * U, a + De * (U * (1 - V))
        x = np.log1p(De * (U * V) / Q)
        W = W * U
    elif d == 1:
        P, Q = b - De * U, c + Df * V
        x = np.log1p((De * U + Df * V) / P)
    else:
        P, Q = a + De * U, c + Df * V
        x = log_ratio(P, Q)
    F = kernel_at(terms, P, Q, x) * P * P * Q * Q * W * (De * Df)
    blocks = _hat_blocks(F, P, (a, b), Q, (c, g))
    return blocks + blocks.transpose(0, 2, 1) if d == 0 else blocks


def _cell_pairs(count):
    """Every pair f >= e of ``count`` elements once, as blocks (e, f, d) of one class d.

    A block holds about _BLOCK_POINTS quadrature points, or one element row;
    d = min(f - e, 2), and the pairs at least two apart come a few element
    rows at a time.
    """
    for d, (U, _, _) in enumerate(_CELL_RULES):
        step = max(1, _BLOCK_POINTS // (U.size * (count if d == 2 else 1)))
        for lo in range(0, count - d, step):
            if d < 2:
                e = np.arange(lo, min(lo + step, count - d))
                yield e, e + d, d
            else:
                e, f = np.triu_indices(min(step, count - 2 - lo), k=2, m=count - lo)
                yield e + lo, f + lo, d


def _add_blocks(A, e, f, blocks):
    """Add blocks[c] at rows (e_c, e_c + 1) and columns (f_c, f_c + 1) of A.

    Where f_c > e_c its transpose goes to the mirror cell as well.
    """
    rows, cols = e[:, None] + [0, 0, 1, 1], f[:, None] + [0, 1, 0, 1]
    vals = blocks.reshape(-1, 4)                # entries (a, b), row-major
    off = f > e
    n = A.shape[0]
    np.add.at(A.reshape(-1), np.concatenate([rows * n + cols, cols[off] * n + rows[off]]),
              np.concatenate([vals, vals[off]]))


def _assemble_galerkin(grid, params, terms):
    """The Galerkin pencil reduced to one symmetric C-ordered matrix."""
    nodes = grid.nodes
    # the unit-charge potential, each pair of elements once, times the
    # charge, then the kinetic energy
    A = np.zeros((nodes.size, nodes.size))
    for e, f, d in _cell_pairs(nodes.size - 1):
        _add_blocks(A, e, f, _cell_blocks(nodes, terms, e, f, d))
    A *= params.Z
    element = np.arange(nodes.size - 1)
    _add_blocks(A, element, element, _tridiag_blocks(nodes, lambda p: lambda_of(p, params) * p * p))

    # reduce the pencil (A, mass) to a standard symmetric problem with the
    # banded Cholesky factor L of the Jacobi-scaled mass matrix; eigenvector
    # coordinates then carry the Euclidean inner product = discrete L^2
    mass = _tridiag_blocks(nodes, lambda p: p * p)
    diag = np.zeros(nodes.size)
    diag[:-1] += mass[:, 0, 0]
    diag[1:] += mass[:, 1, 1]
    d = np.sqrt(diag)
    L = cholesky_banded(np.stack([diag / d / d, np.append(mass[:, 1, 0] / d[1:] / d[:-1], 0.0)]),
                        lower=True)
    A /= d[:, None]
    A /= d
    # the columns of A's Fortran-ordered transpose are A's rows, so solving
    # on it in place leaves A L^-T in A; L^-1 (A L^-T) comes in Fortran order
    # and, averaged in place with its transpose, is exactly symmetric, so its
    # transpose is the same matrix in C order
    M = solve_banded((1, 0), L, solve_banded((1, 0), L, A.T, overwrite_b=True).T)
    del A
    M += M.T
    M *= 0.5
    return M.T
