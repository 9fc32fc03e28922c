"""Assembly of the discrete channel operator: kinetic diagonal + potential kernel.

The kernel, the subtraction integrals and the potential matrix are per unit
charge; each operator constructor multiplies its potential by the charge
once, before it adds the kinetic energy.  Two schemes:

* ``nystrom`` (default): collocation on the quadrature nodes with diagonal
  singularity subtraction.  The logarithmically singular diagonal of the
  Coulomb-type kernel is replaced through the smooth profile
  phi_p(q) = 2 p^2 / (p^2 + q^2): the integral of the kernel against it
  minus the row's collocation sum against it, both over the row's
  neighbourhood.  One product Gauss rule takes every row's integral over
  its own interval, Gauss-Legendre panels with Gauss-log nodes on those
  that touch the singularity, at two orders whose disagreement is an
  error.  On a log-panel grid the neighbourhood is the row's panel and
  three on either side, cut at the window: beyond them the grid's own rule
  integrates the smooth far field of both terms alike, so it would cancel,
  and nothing outside the window enters the diagonal with no kinetic cost
  to match it.  On the rational grid the neighbourhood is (0, inf), every
  column and the integral out to the tail cut.

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
# I(p) = Int k(p, q) phi_p(q) q^2 dq, log-singular at q = p.
#
# In the log-ratio x = ln(q/p) the integrand is
# -(p/pi) sum_t f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) per unit charge, with
# rho(x) = 2/(1 + e^-2x) (the profile times q^2 dq/dx over p^3 e^x).  Each
# row integrates over its own interval [lo, hi] around x = 0, by one rule
# from 0 to either end.  Within one unit of x = 0 a product rule takes the
# singularity: with Q_l = smooth + logcoef ln|x|, Gauss-Legendre nodes carry
# the smooth part and Gauss-log nodes (weight -ln|x|) the logcoef part.
# Gauss panels continue outward, of unit width to |x| = 3 and then each
# _GROWTH times as wide as the last, up to _WIDEST: out there
# Q_l(cosh x) rho(x) is smooth and decays like e^-|x| or faster.  The last
# panel is clipped at the end, and no end lies past the first panel edge
# beyond the tail cut of Q_l, which is set on the unit lattice.  The rows
# that share an end share its table of weights times Q_l rho and pay only
# for their mixing factors.  Two Gauss orders give the error estimate; a row
# whose estimates disagree beyond ORDER_TOL raises NumericalError.

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
# up to _WIDEST; _EDGES are the panel edges from |x| = 1 outward, on either
# side, the 26 widths ending past |x| = 70
_GROWTH, _WIDEST = 1.3, 3.0
_EDGES = np.concatenate([[1.0], 1.0 + np.cumsum(np.clip(_GROWTH ** np.arange(-1.0, 25.0), 1.0,
                                                        _WIDEST))])
# a log-grid row's edges halve [1, 2], so that no outer panel is wider than
# half its distance from x = 0 (whole, at l = 3, its logarithm put the two
# orders 5.7e-14 of the largest row apart)
_NEAR_EDGES = np.insert(_EDGES, 1, 1.5)
# a log-grid row's neighbourhood: its own panel and this many a side.  With
# one, the grid rule's far-field error on the mixing factors (panels 2.8
# wide) put a kappa = -1 diagonal 1.06e-12 of its integral from the window
# integral minus the whole row sum; with three, 5e-15
_NEAR_PANELS = 3
# quadrature points per block of rows, whose temporaries stay in cache (2^14
# took 1.3 times as long in the 200-node rational assemblies of `spectrum`)
_ROW_POINTS = 1 << 13


def _rho(x):
    return 2.0 / (1.0 + np.exp(-2.0 * x))


def _rule(ends, order, edges):
    """Nodes x and weights (ws, wl) of the rule from x = 0 to each of ``ends``, (ends, nodes).

    Summing ws smooth + wl logcoef over an end e's nodes integrates smooth +
    logcoef ln|x| between 0 and e.  On the product panel x = c t, 0 < t < 1,
    c = e cut at +-1, gives |c| Int_0^1 (smooth + logcoef (ln|c| + ln t)) dt;
    the outer panels lie between ``edges``, mirrored for e < 0, with wl the
    weight times ln|x|, as many for every end as the farthest needs, each
    clipped at the end, so that those beyond it have zero length and weight.
    """
    c = np.clip(ends, -1.0, 1.0)[:, None]
    a = np.abs(c)
    t, w = gauss_legendre(order)
    t, w = 0.5 * (1.0 + t), 0.5 * w
    tl, wl = gauss_log(order)
    reach = np.abs(ends)[:, None]
    outer = edges[:np.count_nonzero(edges < reach.max()) + 1]
    x, wx = gauss_panels(np.minimum(outer[:-1], reach), np.minimum(outer[1:], reach), order)
    x, wx = (v.reshape(ends.size, -1) for v in (np.sign(c)[..., None] * x, wx))
    return (np.concatenate([c * t, c * tl, x], axis=1),
            np.concatenate([a * w, np.zeros((ends.size, order)), wx], axis=1),
            np.concatenate([a * np.log(a) * w, -a * wl, wx * np.log(np.abs(x))], axis=1))


# 32 hold the 24 tables of a whole critical scan (6 grids, 2 orders, 2 sides)
@lru_cache(maxsize=32)
def _rule_table(ls, ends, order, near):
    """Nodes x of the rule to each of ``ends`` and weight times Q_l(cosh x) rho(x) there.

    Returns x and one table per l, each (ends, nodes); ``near`` picks the
    log-grid rows' edges.  Built on first use and shared, read-only, by
    every row and call.
    """
    x, ws, wl = _rule(np.array(ends), order, _NEAR_EDGES if near else _EDGES)
    smooth, logcoef = legendre_q_cosh_split(ls, x)
    tables = [(ws * s + wl * g) * _rho(x) for s, g in zip(smooth, logcoef)]
    for v in (x, *tables):
        v.flags.writeable = False
    return x, tables


@lru_cache(maxsize=None)
def _tail_cut(l):
    """Ends (lo, hi) of the tail cut of Q_l on the unit lattice.

    The unit panels between the reach and [-1, 1] are dropped lightest
    first, which is outermost first on either side, while their order-12
    mass stays below _TAIL of the whole.  The rule keeps every panel that
    reaches into the cut, so it drops less.
    """
    lo = np.concatenate([np.arange(_REACH[0], -1.0), np.arange(1.0, _REACH[1])])
    x, w = gauss_panels(lo, lo + 1.0, _ORDERS[-1])
    mass = (legendre_q_cosh((l,), x)[0] * _rho(x) * w).sum(axis=1)
    light = np.argsort(mass)
    whole = mass.sum() + _rule_table((l,), (-1.0, 1.0), _ORDERS[-1], False)[1][0].sum()
    kept = lo[light][np.cumsum(mass[light]) >= _TAIL * whole]
    return kept.min(), kept.max() + 1.0


def _neighbourhoods(grid: RadialGrid):
    """Each row's neighbourhood: its ends in x = ln(q/p_i) and its columns [first, end).

    On a log-panel grid its own panel and _NEAR_PANELS a side, cut at the
    window, beyond which the grid's own rule takes the far field of both
    terms alike; on (0, inf) every column and no end.
    """
    n = grid.n
    pan = grid.panels
    if pan is None:
        return np.full(n, -np.inf), np.full(n, np.inf), np.zeros(n, int), np.full(n, n)
    k = np.repeat(np.arange(pan.count), pan.order)
    tau = np.tile(pan.places(), pan.count)
    first = np.maximum(k - _NEAR_PANELS, 0)
    end = np.minimum(k + _NEAR_PANELS + 1, pan.count)
    return (pan.width * (first - k - tau), pan.width * (end - k - tau),
            first * pan.order, end * pan.order)


def _intervals(grid: RadialGrid, ls):
    """Each row's interval [lo, hi] in x: its neighbourhood, cut at the tail cut of every l.

    The cut ends at the panel edges first at or past it, so that a row on
    (0, inf) keeps every panel that reaches into the cut: for l = 0 (the cut
    [-13, 40]) its interval is [-14.04, 41.04], 7 panels left of [-1, 0] and
    16 right of [0, 1].
    """
    lo, hi, _, _ = _neighbourhoods(grid)
    cut_lo = min(_tail_cut(l)[0] for l in ls)
    cut_hi = max(_tail_cut(l)[1] for l in ls)
    return (np.maximum(lo, -_EDGES[np.searchsorted(_EDGES, -cut_lo)]),
            np.minimum(hi, _EDGES[np.searchsorted(_EDGES, cut_hi)]))


def _row_sums(terms, grid, order):
    """Sum over each row's rule of f_t(p) f_t(p e^x) Q_l(cosh x) rho(x) w.

    The rule runs from x = 0 to either end of the row's interval; the rows
    that share an end share its table.
    """
    p = grid.nodes
    fp = terms.factors(p)
    out = np.zeros(p.size)
    for end in _intervals(grid, terms.ls):
        ends, group = np.unique(end, return_inverse=True)
        x, tables = _rule_table(terms.ls, tuple(ends.tolist()), order, grid.panels is not None)
        ex = np.exp(x)
        step = max(1, _ROW_POINTS // ex.shape[1])
        for start in range(0, p.size, step):
            r = slice(start, start + step)
            g = group[r]
            fq = terms.factors(p[r, None] * ex[g])
            out[r] += sum(f0[r] * (f * tab[g]).sum(axis=1) for f0, f, tab in zip(fp, fq, tables))
    return out


def subtraction_integrals(terms: KernelTerms, grid: RadialGrid):
    """I(p_i) = Int k(p_i, q) phi_{p_i}(q) q^2 dq per unit charge over each row's interval.

    A log-panel grid's row integrates over its neighbourhood, a row on
    (0, inf) over the tail cut.  A row whose two-order estimates disagree
    beyond ``ORDER_TOL`` raises NumericalError.
    """
    p = grid.nodes
    pref = -1.0 / np.pi * p
    low, out = (pref * _row_sums(terms, grid, order) for order in _ORDERS)
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

    The oracle the panel rule is tested against; assembly never calls it.
    It stays in the package while the benchmark's tracer times it by name.
    The domain is split where ln(q/p) crosses an integer, q = p among the
    splits, so that ``quad`` meets the kernel's logarithm only at an end
    and each piece spans at most a factor e in q; outside
    [e^-40 p, e^60 p] the first and last pieces run to the domain's ends.
    A single ``quad`` over a window of several decades can misread the
    integrand's decay and return a wrong value with only a warning.
    """
    from scipy.integrate import quad

    qlo, qhi = domain
    f = lambda q: kernel_at(terms, p, q, log_ratio(p, q)) * subtraction_profile(p, q) * q * q
    splits = p * np.exp(np.arange(_REACH[0], _REACH[1] + 1.0))
    ends = np.concatenate([[qlo], splits[(splits > qlo) & (splits < qhi)], [qhi]])
    return sum(quad(f, a, b, limit=400, epsabs=1e-14, epsrel=tol)[0]
               for a, b in zip(ends[:-1], ends[1:]))


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


# rows per block of the pointwise fill
_ROW_BLOCK = 64


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
    profile, both over the row's neighbourhood.  A grid that records its
    log-panel structure gets the block-Toeplitz fill, any other grid the
    pointwise one.
    """
    p = grid.nodes
    n = grid.n
    sq = np.sqrt(grid.l2_weights)
    ints = subtraction_integrals(terms, grid)
    _, _, first, end = _neighbourhoods(grid)
    diag = [f * np.sqrt(grid.weights) for f in terms.factors(p)]
    strips = (_pointwise_strips(p, terms.ls) if grid.panels is None
              else _toeplitz_strips(grid.panels, terms.ls))
    M = np.empty((n, n))
    row_sums = np.empty(n)
    for rows, qs, phi in strips:
        # d_i d_j before Q_ij keeps every entry exactly symmetric
        M[rows] = sum(np.multiply.outer(d[rows], d) * qk for d, qk in zip(diag, qs))
        M[rows] *= -1.0 / np.pi
        # the row sum over the row's neighbourhood: the block's span, unless
        # the block holds rows of several (the pointwise fill of a log grid)
        r = np.arange(n)[rows]
        span = slice(first[r[0]], end[r[-1]])
        near = M[rows, span] * phi[:, span]
        if first[r[0]] != first[r[-1]] or end[r[0]] != end[r[-1]]:
            cols = np.arange(n)[span]
            near *= (cols >= first[r, None]) & (cols < end[r, None])
        row_sums[rows] = near @ sq[span] / sq[rows]
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
