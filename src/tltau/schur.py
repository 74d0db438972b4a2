"""Schur-function machinery and character expansions of the determinant data.

Two independent constructions of the Schur function are provided: the
bialternant ratio det(x_i^(lam_j - j + M)) / det(x_i^(M - j)) on a finite
point set, and the Jacobi-Trudi determinant det(h_{lam_i - i + j}) in the
power-sum times t_m = (1/m) sum_i x_i^m.  They agree whenever the point set
is at least as long as the partition; the bialternant is identically zero
when the partition is longer than the point set.

The expansion engine reads Taylor coefficients of the two generating
families off their series in the squared variable y = v^2
(chain.taylor_y, from each family's leading power on), assembles Schur
coefficients as minors of that coefficient table, and reconstructs the
normalized tau sums

    tau~(a) = sum_lam c_lam(a) s_lam,      c_lam(a) = det f^(a)[i][lam_j - j + M].

`normalized_kernel_poly` divides the two reconstructions as graded Miwa
series and `slavnov_schur_coeffs` reads the quotient's Schur coefficients
back off, for partitions with at most M rows, by the Hall inner product
(Macdonald, Symmetric Functions and Hall Polynomials, I.4): the Schur
functions are orthonormal, so each coefficient is one pairing of the
quotient with a Jacobi-Trudi polynomial, and no change of basis is solved.
"""

from fractions import Fraction
from math import factorial

from .algebra import (
    FieldContext,
    MiwaPolynomial,
    det,
    det_ring,
    miwa_series_invert,
    vandermonde,
)
from .chain import family_matrix_y, taylor_y


# -- partitions ------------------------------------------------------------


def partition_normalize(lam):
    """Canonical form: tuple of weakly decreasing positive ints, no zeros."""
    parts = tuple(int(x) for x in lam)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(x <= 0 for x in parts):
        raise ValueError("partition parts must be positive: %r" % (lam,))
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must decrease weakly: %r" % (lam,))
    return parts


def partitions_bounded(maxweight, maxlen=None):
    """All partitions with |lam| <= maxweight and at most maxlen rows,
    sorted by (weight, parts)."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if maxlen is not None and len(prefix) >= maxlen:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(prefix, remaining - part, part)
            prefix.pop()

    rec([], maxweight, maxweight)
    out.sort(key=lambda lam: (sum(lam), lam))
    return out


def ell_indices(lam, npoints):
    """Strictly decreasing exponent labels l_j = lam_j - j + npoints of a
    partition padded to npoints rows."""
    parts = partition_normalize(lam)
    if len(parts) > npoints:
        raise ValueError("partition has more than %d rows" % npoints)
    padded = parts + (0,) * (npoints - len(parts))
    return tuple(padded[j] - (j + 1) + npoints for j in range(npoints))


# -- Schur functions ---------------------------------------------------------


def schur_points(lam, points, ctx):
    """Bialternant Schur function on a finite point set.

    Returns zero when the partition has more rows than there are points;
    raises on repeated points (the alternant denominator vanishes).
    """
    parts = partition_normalize(lam)
    pts = list(points)
    npts = len(pts)
    if len(parts) > npts:
        return ctx.zero()
    if npts == 0:
        return ctx.one()
    vdm = vandermonde(pts, ctx)
    if ctx.is_zero(vdm):
        raise ValueError("repeated evaluation points")
    exps = ell_indices(parts, npts)
    mat = [[x ** e for e in exps] for x in pts]
    return det(mat, ctx) / vdm


_H_CACHE = {}


def complete_homogeneous(ctx, K, cutoff):
    """h_0 .. h_cutoff as Miwa polynomials via j h_j = sum_m m t_m h_{j-m}."""
    key = (ctx, K, cutoff)
    got = _H_CACHE.get(key)
    if got is not None:
        return got
    hs = [MiwaPolynomial.constant(ctx, K, cutoff, 1)]
    for j in range(1, cutoff + 1):
        acc = MiwaPolynomial(ctx, K, cutoff)
        for m in range(1, min(j, K) + 1):
            tm = MiwaPolynomial.time_var(ctx, K, cutoff, m)
            acc = acc + (tm * hs[j - m]).scale(ctx.embed(m))
        hs.append(acc.scale(ctx.embed(Fraction(1, j))))
    _H_CACHE[key] = hs
    return hs


def schur_miwa(lam, cutoff, ctx, K=None):
    """Jacobi-Trudi Schur polynomial det(h_{lam_i - i + j}) in the times."""
    parts = partition_normalize(lam)
    if K is None:
        K = max(cutoff, 1)
    if sum(parts) > cutoff:
        raise ValueError("partition weight exceeds the cutoff")
    if not parts:
        return MiwaPolynomial.constant(ctx, K, cutoff, 1)
    hs = complete_homogeneous(ctx, K, cutoff)
    zero = MiwaPolynomial(ctx, K, cutoff)
    n = len(parts)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            idx = parts[i] - (i + 1) + (j + 1)
            row.append(hs[idx] if 0 <= idx <= cutoff else zero)
        rows.append(row)
    return det_ring(rows, zero)


# -- coefficient extraction ---------------------------------------------------


def fhat_table(p, u, family, nmax):
    """Taylor table fhat[i][n] in y = v^2 for rows i and 0 <= n <= nmax.

    fhat[i][n] is the z-series coefficient of row i's generating function at
    exponent 2 n + start, where start is the family's fixed leading offset:
    the coefficient of y**n in chain.taylor_y.
    """
    table = []
    for i in range(p.M):
        ys = taylor_y(p, u, family, i, nmax)
        table.append([ys.coeff(n) for n in range(nmax + 1)])
    return table


class SchurCoeffMap:
    """Finitely many Schur coefficients, canonically keyed by partition."""

    __slots__ = ("ctx", "cutoff", "entries")

    def __init__(self, ctx, cutoff, entries):
        self.ctx = ctx
        self.cutoff = cutoff
        store = {}
        for lam, c in entries.items():
            lam = partition_normalize(lam)
            if sum(lam) > cutoff:
                raise ValueError("partition weight exceeds the cutoff")
            if not ctx.is_zero(c):
                store[lam] = c
        self.entries = store

    def coeff(self, lam):
        return self.entries.get(partition_normalize(lam), self.ctx.zero())

    def partitions(self):
        return sorted(self.entries, key=lambda lam: (sum(lam), lam))

    def items(self):
        return [(lam, self.entries[lam]) for lam in self.partitions()]

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SchurCoeffMap):
            return NotImplemented
        return self.cutoff == other.cutoff and self.entries == other.entries

    def to_jsonable(self):
        return [
            {"partition": list(lam), "coeff": self.ctx.to_string(c)}
            for lam, c in self.items()
        ]

    def __repr__(self):
        return "SchurCoeffMap(cutoff=%d, %d entries)" % (self.cutoff, len(self.entries))


def cauchy_binet_coeffs(p, u, family, cutoff, variable="y"):
    """Schur coefficients of the normalized tau sum as minors of the Taylor
    table: c_lam = det fhat[i][lam_j - j + M].

    variable="y" expands in the squared variable; variable="z" works on the
    unsquared exponent lattice where odd columns vanish identically, so only
    partitions whose labels lam_j - j + M are all even survive.
    """
    M = p.M
    if M < 1:
        raise ValueError("need at least one row")
    if variable not in ("y", "z"):
        raise ValueError("variable must be 'y' or 'z'")
    nmax = cutoff + M - 1
    if variable == "y":
        table = fhat_table(p, u, family, nmax)
    else:
        half = fhat_table(p, u, family, nmax // 2)
        zero = p.ctx.zero()
        table = [
            [half[i][n // 2] if n % 2 == 0 else zero for n in range(nmax + 1)]
            for i in range(M)
        ]
    entries = {}
    for lam in partitions_bounded(cutoff, M):
        cols = ell_indices(lam, M)
        minor = [[table[i][n] for n in cols] for i in range(M)]
        c = det(minor, p.ctx)
        if not p.ctx.is_zero(c):
            entries[lam] = c
    return SchurCoeffMap(p.ctx, cutoff, entries)


def tau_schur_poly(p, u, family, cutoff, K=None):
    """Normalized tau sum as a Miwa polynomial: sum_lam c_lam s_lam(t)."""
    if K is None:
        K = max(cutoff, 1)
    cmap = cauchy_binet_coeffs(p, u, family, cutoff)
    acc = MiwaPolynomial(p.ctx, K, cutoff)
    for lam, c in cmap.items():
        acc = acc + schur_miwa(lam, cutoff, p.ctx, K).scale(c)
    return acc


def schur_sum_eval(cmap, points, ctx):
    """Evaluate sum_lam c_lam s_lam on a point set (rows beyond the point
    count contribute nothing)."""
    npts = len(list(points))
    acc = ctx.zero()
    for lam, c in cmap.items():
        if len(lam) > npts:
            continue
        acc = acc + c * schur_points(lam, points, ctx)
    return acc


def tau_tilde_direct(p, u, family, points):
    """Direct evaluation of the normalized tau sum on squared points:
    det of the y-space family matrix divided by the row prefactors and the
    Vandermonde of the points."""
    pts = list(points)
    if len(pts) != p.M:
        raise ValueError("need exactly M points")
    ctx = p.ctx
    vdm = vandermonde(pts, ctx)
    if ctx.is_zero(vdm):
        raise ValueError("repeated evaluation points")
    power = 1 - p.N if family == 1 else 1
    pref = ctx.one()
    for y in pts:
        pref = pref * (y ** power)
    dm = det(family_matrix_y(p, u, family, pts), ctx)
    return dm / (pref * vdm)


# -- Schur coefficients by the Hall inner product ------------------------------


def _hall_norm(key):
    """<t^k, t^k> = prod_m k_m! / m^k_m under the Hall inner product, where
    t_m = p_m / m; distinct monomials are orthogonal."""
    norm = Fraction(1)
    for m, k in enumerate(key, 1):
        if k:
            norm *= Fraction(factorial(k), m**k)
    return norm


def poly_to_schur(poly, maxlen):
    """Schur coefficients of a Miwa polynomial for every partition with
    |lam| <= cutoff and at most maxlen rows.

    The Schur functions are orthonormal under the Hall inner product, so

        A_lam = <s_lam, f> = sum_k [s_lam]_k [f]_k prod_m k_m! / m^k_m

    over the monomials t^k of the Jacobi-Trudi polynomial s_lam.  Requires
    K >= cutoff so that s_lam keeps every time it depends on.
    """
    ctx = poly.ctx
    if poly.K < poly.cutoff:
        raise ValueError("need K >= cutoff for a Schur-basis expansion")
    rational = FieldContext("rational")
    out = {}
    for lam in partitions_bounded(poly.cutoff, maxlen):
        acc = ctx.zero()
        for key, c in schur_miwa(lam, poly.cutoff, rational, poly.K).terms.items():
            f = poly.terms.get(key)
            if f is not None:
                acc = acc + ctx.embed(c * _hall_norm(key)) * f
        if not ctx.is_zero(acc):
            out[lam] = acc
    return out


def normalized_kernel_poly(p, u, cutoff, K=None):
    """The quotient of the two normalized tau sums as a graded Miwa series,
    correct through the weighted-degree cutoff."""
    if K is None:
        K = max(cutoff, 1)
    tau1 = tau_schur_poly(p, u, 1, cutoff, K)
    tau2 = tau_schur_poly(p, u, 2, cutoff, K)
    return tau1 * miwa_series_invert(tau2)


def slavnov_schur_coeffs(p, u, cutoff):
    """Schur coefficients A_lam of the normalized kernel quotient for
    partitions with at most M rows (the rest cannot contribute on M
    points)."""
    return SchurCoeffMap(p.ctx, cutoff, poly_to_schur(normalized_kernel_poly(p, u, cutoff), p.M))
