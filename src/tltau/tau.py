"""Tau functions of the determinant kernel and their bilinear identities.

A tau function here is a ratio tau(v) = det F_i(v_j) / Delta(v) built from one
of the two generating families F of the chain module.  This module gives:

  * the Miwa map from point sets to times;
  * two independent constructions of tau (Vandermonde quotient and a
    partial-fraction residue determinant) that must agree identically;
  * the Pluecker exchange residual on point sets, zero for any family;
  * Hirota bilinear operators, plain mappings {alpha: c} for sum c D^alpha,
    applied to pairs of Miwa polynomials and known through the operands'
    cutoff less the operator's weight: the low-order odd operators that
    annihilate (tau, tau) outright, and the weight-4 KP operator whose
    residual vanishes wherever it is known;
  * Baker-Akhiezer quotients of the Schur-reconstructed tau sums;
  * the symmetrized multiple-sum identity for determinants of moment
    matrices (an exchange-symmetrization cross-check used on random data).
"""

import math
from itertools import combinations, product

from .algebra import (MiwaPolynomial, Rational, det, field_product, field_sum, vandermonde,
                      weighted_degree)
from .chain import family_matrix
from . import schur as _schur


# -- Miwa map ----------------------------------------------------------------


def miwa_map(points, K, ctx):
    """Times of a point set as a tuple: t_m = (1/m) sum_i x_i^m, m = 1..K."""
    pts = list(points)
    return tuple(field_sum([x ** m for x in pts], ctx) * ctx.embed(Rational(1, m))
                 for m in range(1, K + 1))


# -- tau functions -------------------------------------------------------------


def det_family(p, u, family, points):
    """det F_i(v_j) over the given points, columns in the given order."""
    return det(family_matrix(p, u, family, points), p.ctx)


def tau_det(p, u, family, points):
    """tau(v) = det F_i(v_j) / Delta(v)."""
    pts = list(points)
    if len(pts) != p.M:
        raise ValueError("need exactly M points")
    vdm = vandermonde(pts, p.ctx)
    if not vdm:
        raise ValueError("repeated evaluation points")
    return det_family(p, u, family, pts) / vdm


def tau_residue(p, u, family, points):
    """The same tau as a residue determinant.

    Row i of the matrix is sum_k v_k^(M-i) F_j(v_k) / prod_{m != k}(v_k - v_m);
    the determinant times (-1)^(M(M-1)/2) reproduces det F / Delta identically.
    """
    pts = list(points)
    M = p.M
    if len(pts) != M:
        raise ValueError("need exactly M points")
    ctx = p.ctx
    denoms = [field_product([pts[k] - x for m, x in enumerate(pts) if m != k], ctx)
              for k in range(M)]
    if not all(denoms):
        raise ValueError("repeated evaluation points")
    fmat = family_matrix(p, u, family, pts)
    rows = [[field_sum([(fmat[j][k] if i == M - 1 else pts[k] ** (M - 1 - i) * fmat[j][k])
                        / denoms[k] for k in range(M)], ctx)
             for j in range(M)] for i in range(M)]
    d = det(rows, ctx)
    return -d if (M * (M - 1) // 2) % 2 else d


def pluecker_residual(p, u, family, bigset, smallset):
    """Exchange relation on point sets: with |X| = M + 1 and |Y| = M - 1,

        sum_i (-1)^i det F(X without x_i) det F(Y, x_i)

    vanishes for every generating family.  x_i is appended as the last
    column of the Y determinant; X keeps its order with x_i deleted.
    """
    X = list(bigset)
    Y = list(smallset)
    M = p.M
    if len(X) != M + 1 or len(Y) != M - 1:
        raise ValueError("need |X| = M + 1 and |Y| = M - 1")
    terms = []
    for i in range(M + 1):
        term = det_family(p, u, family, X[:i] + X[i + 1:]) * det_family(p, u, family, Y + [X[i]])
        terms.append(-term if i % 2 == 0 else term)
    return field_sum(terms, p.ctx)


# -- Hirota bilinear operators -------------------------------------------------


def kp_operator():
    """D_1^4 + 3 D_2^2 - 4 D_1 D_3 as {exponents of D_1, D_2, ..: coefficient}."""
    return {(4,): 1, (0, 2): 3, (1, 0, 1): -4}


def _iter_deriv(poly, beta, known, cache):
    """d^beta poly known through weight known, formed once per beta from the
    terms of poly that reach it."""
    while beta and not beta[-1]:  # D1^4's (1,) and D1 D3's (1, 0, 0) share one key
        beta = beta[:-1]
    if beta not in cache:
        out = poly.restrict(known + weighted_degree(beta))
        for m, k in enumerate(beta, 1):
            for _ in range(k):
                out = out.deriv(m)
        cache[beta] = out
    return cache[beta]


def hirota_apply(op, f, g):
    """The operator op = {alpha: c}, which stands for sum c D^alpha with
    alpha the exponents of D_1, D_2, .., acting on the pair (f, g):

        D^alpha [f, g] = sum_{beta <= alpha} (-1)^|beta|
                         prod_k C(alpha_k, beta_k) (d^beta f) (d^(alpha-beta) g)

    The Miwa truncation rules make the result known through
    min(f.cutoff, g.cutoff) less the largest weight of the operator's terms.
    Each derivative is formed only through that weight, from the operand's
    terms that reach it, so no product forms a term the result cannot know.
    A D_m beyond the operands' K and operands of different K raise
    ValueError (from ``deriv`` and from the Miwa product).

    On (f, f) with |alpha| even, the beta and alpha - beta terms are the same
    product, so only beta <= alpha - beta is formed, the unequal ones twice.
    """
    ctx = f.ctx
    known = min(f.cutoff, g.cutoff) - max(map(weighted_degree, op), default=0)
    out = MiwaPolynomial(ctx, f.K, known)
    cf = {}
    cg = cf if f is g else {}
    for alpha, c in op.items():
        paired = f is g and sum(alpha) % 2 == 0
        for beta in product(*(range(a + 1) for a in alpha)):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            if paired and beta > gamma:
                continue
            coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            if sum(beta) % 2:
                coeff = -coeff
            if paired and beta < gamma:
                coeff *= 2
            df = _iter_deriv(f, beta, known, cf)
            dg = _iter_deriv(g, gamma, known, cg)
            out = out + (df * dg).scale(ctx.embed(c * coeff))
    return out


def hirota_kp_check(tau):
    """Residual of the weight-4 bilinear operator on (tau, tau), known through
    weighted degree tau.cutoff - 4."""
    return hirota_apply(kp_operator(), tau, tau)


# -- Baker-Akhiezer quotients ---------------------------------------------------


def baker_akhiezer(p, u, a, b, times, z=None, cutoff=8):
    """psi_ab(t, z) = tau_a(t - [1/z]) / tau_b(t) on the Schur-reconstructed
    tau sums at the times t_1..t_K, with z=None meaning the point at infinity
    (no shift).  t - [x] has entries t_m - x^m / m, so at z = 1/x and
    t = miwa_map(X) it is miwa_map of X with x deleted."""
    ctx = p.ctx
    times = tuple(times)
    K = len(times)
    num = _schur.tau_schur_poly(p, u, a, cutoff, K)
    den = _schur.tau_schur_poly(p, u, b, cutoff, K)
    dval = den.evaluate(times)
    if not dval:
        raise ZeroDivisionError("denominator tau vanishes at these times")
    if z is not None:
        times = tuple(t - s for t, s in zip(times, miwa_map([ctx.one() / z], K, ctx)))
    return num.evaluate(times) / dval


# -- moment-determinant symmetrization ------------------------------------------


def andreev_residual(ctx, points, weights, fvals, gvals):
    """Difference between det of the moment matrix S_ij = sum_k mu_k f_i(z_k)
    g_j(z_k) and its exchange-symmetrized multiple sum

        (1/M!) sum_{k in [n]^M} (prod_a mu_{k_a}) det f_i(z_{k_j}) det g_i(z_{k_j}),

    which vanishes identically.  The summand is symmetric in k (both
    determinants change sign together) and vanishes when an index repeats (two
    equal columns), so the sum is formed exactly as the same summand over the
    C(n, M) subsets k_1 < .. < k_M.  fvals and gvals are value tables indexed
    [function][point]."""
    n = len(list(points))
    M = len(fvals)
    if len(gvals) != M:
        raise ValueError("need equally many f and g rows")
    if any(len(row) != n for row in fvals) or any(len(row) != n for row in gvals):
        raise ValueError("value tables must cover every point")
    if len(weights) != n:
        raise ValueError("need one weight per point")
    smat = [[field_sum([weights[k] * fvals[i][k] * gvals[j][k] for k in range(n)], ctx)
             for j in range(M)] for i in range(M)]
    rhs = []
    for ks in combinations(range(n), M):
        mu = field_product([weights[k] for k in ks], ctx)
        fminor = [[fvals[i][k] for k in ks] for i in range(M)]
        gminor = [[gvals[i][k] for k in ks] for i in range(M)]
        rhs.append(mu * det(fminor, ctx) * det(gminor, ctx))
    return det(smat, ctx) - field_sum(rhs, ctx)
