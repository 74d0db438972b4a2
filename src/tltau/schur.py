"""Schur-function machinery and character expansions of the determinant data.

Two independent constructions of the Schur function are provided: the
Jacobi-Trudi determinant in the elementary symmetric functions e_1..e_n of n
variables (Macdonald, Symmetric Functions and Hall Polynomials, I.2-I.3),
evaluated at the e_k of a finite point set, and the character sum
s_lam = sum_mu chi^lam(mu) p_mu / z_mu in the times t_m = p_m / m =
(1/m) sum_i x_i^m (Macdonald I.7).  They agree whenever the point set is at
least as long as the partition; in n variables s_lam is zero when the
partition has more than n rows.

The expansion engine reads Taylor coefficients of the two generating
families off their series in the squared variable y = v^2
(chain.taylor_rows, from each family's leading power on, every family-1 row
from one shell) and assembles Schur coefficients as minors of that table.
It keeps nothing on the roots: a caller keeps the maps it reuses.  The
normalized tau sums

    tau~(a) = sum_lam c_lam(a) s_lam,      c_lam(a) = det f^(a)[i][lam_j - j + M],

are keyed sums (`algebra.keyed_sum`) of c_lam(a) times a cached table of
s_lam per partition, on both sides: in the times t_1..t_K (`_schur_t`,
[s_lam]_{t^k} = chi^lam(mu_k) / prod_m k_m!, mu_k the cycle type of t^k) and
on n points as one polynomial in e_1..e_n (`_schur_e`, `schur_sum_e`) at
their e_k.  One Schur polynomial reads its table alone.

`schur_quotient` divides the two tau sums in Lambda_M = Q[e_1..e_M],
the symmetric functions of M variables: restriction to M variables kills
exactly the s_lam of more than M rows, which M points cannot see, and keeps
the rest independent (Macdonald I.2-I.3).  `poly_to_schur` reads Schur
coefficients of a Miwa polynomial by the Hall inner product (Macdonald I.4).
"""

from functools import cache
from math import factorial, prod

from .algebra import (FieldContext, MiwaPolynomial, Rational, det, det_ring, field_product,
                      keyed_sum, miwa_series_invert, vandermonde)
from .chain import family_matrix_y, leading_power, taylor_rows


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
    sorted by (weight, parts), as a new list."""
    return list(_partitions(maxweight, maxlen))


@cache
def _partitions(maxweight, maxlen):
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
    return tuple(out)


def ell_indices(lam, npoints):
    """Strictly decreasing exponent labels l_j = lam_j - j + npoints of a
    partition in normal form (a tuple), padded to npoints rows."""
    if len(lam) > npoints:
        raise ValueError("partition has more than %d rows" % npoints)
    padded = lam + (0,) * npoints
    return tuple(padded[j] - (j + 1) + npoints for j in range(npoints))


# -- Schur functions ---------------------------------------------------------


def schur_points(lam, points, ctx):
    """s_lam on a finite point set by Jacobi-Trudi in the points' e_k; zero
    when the partition has more rows than there are points."""
    return _schur_at_e(partition_normalize(lam), elementary_symmetric(points), ctx)


def _schur_at_e(lam, e, ctx):
    """s_lam, lam in normal form, at the points with elementary symmetric e."""
    return MiwaPolynomial(ctx, len(e), sum(lam),
                          {key: ctx.embed(k) for key, k in _schur_e(lam, len(e))}).evaluate(e)


@cache
def _character(lam, mu):
    """Symmetric-group character chi^lam at cycle type mu, |lam| = |mu|, by
    Murnaghan-Nakayama on the beta-numbers lam_i + n - i of an n-row lam: a
    rim hook of length mu_1 moves a beta-number b to a free b - mu_1 >= 0, and
    its height counts the beta-numbers in between (Stanley, EC2, 7.17).

    >>> _character((2, 1), (1, 1, 1)), _character((2, 1), (3,))
    (2, -1)
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    n = len(lam)
    beta = [part + n - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < r or b - r in beta:
            continue
        height = sum(b - r < c < b for c in beta)
        moved = sorted((b - r if c == b else c for c in beta), reverse=True)
        smaller = partition_normalize(c - (n - 1 - i) for i, c in enumerate(moved))
        total += (-1) ** height * _character(smaller, rest)
    return total


def complete_homogeneous(ctx, K, cutoff):
    """h_0 .. h_cutoff as Miwa polynomials: h_j = s_(j)."""
    return [schur_miwa((j,), cutoff, ctx, K) for j in range(cutoff + 1)]


def schur_miwa(lam, cutoff, ctx, K=None):
    """Schur polynomial in the times t_1..t_K, [s_lam]_{t^k} = chi^lam(mu_k) /
    prod_m k_m!; cycle types with a part above K drop out (t_m = 0 for m > K).

    >>> from tltau.algebra import FieldContext
    >>> schur_miwa((1, 1), 2, FieldContext("rational"))
    MiwaPolynomial(-1 t2 + 1/2 t1^2; cutoff=2)
    """
    parts = partition_normalize(lam)
    if sum(parts) > cutoff:
        raise ValueError("partition weight exceeds the cutoff")
    K = max(cutoff, 1) if K is None else K
    return MiwaPolynomial(ctx, K, cutoff, {key: ctx.embed(r) for key, r in _schur_t(parts, K)})


@cache
def _schur_t(lam, K):
    """s_lam in the times t_1..t_K as (key, Rational) pairs, key[m - 1] the
    power of t_m: [s_lam]_{t^k} = chi^lam(mu_k) / prod_m k_m!, mu_k the cycle
    type with k_m parts m; cycle types with a part above K drop out."""
    out = []
    for mu in _partitions(sum(lam), None):
        if sum(mu) == sum(lam) and max(mu, default=0) <= K and (chi := _character(lam, mu)):
            key = tuple(mu.count(m) for m in range(1, K + 1))
            out.append((key, Rational(chi, prod(map(factorial, key)))))
    return tuple(out)


# -- coefficient extraction ---------------------------------------------------


def fhat_table(p, u, family, nmax):
    """Taylor table fhat[i][n] in y = v^2 for rows i and 0 <= n <= nmax.

    fhat[i][n] is the z-series coefficient of row i's generating function at
    exponent 2 n + start, where start is the family's fixed leading offset:
    the coefficient of y**n in chain.taylor_rows, as a tuple of row tuples.
    """
    return tuple(tuple(map(s.coeff, range(nmax + 1))) for s in taylor_rows(p, u, family, nmax))


class SchurCoeffMap:
    """Finitely many Schur coefficients, kept as given: `entries` maps partitions
    in normal form, of weight at most `cutoff`, to nonzero coefficients."""

    __slots__ = ("ctx", "cutoff", "entries")

    def __init__(self, ctx, cutoff, entries):
        self.ctx = ctx
        self.cutoff = cutoff
        self.entries = entries

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

    def __repr__(self):
        return "SchurCoeffMap(cutoff=%d, %d entries)" % (self.cutoff, len(self.entries))


def cauchy_binet_coeffs(p, u, family, cutoff):
    """Schur coefficients of the normalized tau sum as minors of the Taylor
    table in the squared variable: c_lam = det fhat[i][lam_j - j + M], a new
    map on each call."""
    M = p.M
    if M < 1:
        raise ValueError("need at least one row")
    table = fhat_table(p, u, family, cutoff + M - 1)
    entries = {}
    for lam in _partitions(cutoff, M):
        cols = ell_indices(lam, M)
        if c := det([[row[n] for n in cols] for row in table], p.ctx):
            entries[lam] = c
    return SchurCoeffMap(p.ctx, cutoff, entries)


def tau_schur_poly(p, u, family, cutoff, K=None):
    """Normalized tau sum as a Miwa polynomial: sum_lam c_lam s_lam(t), one
    keyed sum of each c_lam times the table of s_lam in the times."""
    ctx, K = p.ctx, max(cutoff, 1) if K is None else K
    return MiwaPolynomial(ctx, K, cutoff, keyed_sum({}, (
        (key, c * ctx.embed(r)) for lam, c in cauchy_binet_coeffs(p, u, family, cutoff).items()
        for key, r in _schur_t(lam, K))))


def elementary_symmetric(points):
    """e_1 .. e_n of n points, the coefficients of prod_i (1 + x_i z), each
    formed from its first term: a new point x adds x * e_(k-1) to each e_k."""
    e = []
    for x in points:
        step = [x] + [x * b for b in e]
        e = [a + b for a, b in zip(e, step)] + step[len(e):]
    return e


def tau_tilde_direct(p, u, family, points):
    """Direct evaluation of the normalized tau sum on squared points:
    det of the y-space family matrix divided by the row prefactors and the
    Vandermonde of the points."""
    pts = list(points)
    if len(pts) != p.M:
        raise ValueError("need exactly M points")
    ctx = p.ctx
    vdm = vandermonde(pts, ctx)
    if not vdm:
        raise ValueError("repeated evaluation points")
    power = leading_power(p, family)
    pref = field_product([y ** power for y in pts], ctx)
    dm = det(family_matrix_y(p, u, family, pts), ctx)
    return dm / (pref * vdm)


# -- Schur coefficients by the Hall inner product ------------------------------


def poly_to_schur(poly, maxlen):
    """Schur coefficients of a Miwa polynomial for every partition with
    |lam| <= cutoff and at most maxlen rows.

    The Schur functions are orthonormal under the Hall inner product, in which
    distinct monomials are orthogonal and <t^k, t^k> = prod_m k_m! / m^k_m, so
    the character form of s_lam gives, in one pass over the terms of f,

        A_lam = <s_lam, f> = sum_k chi^lam(mu_k) [f]_k / prod_m m^k_m.

    Requires K >= cutoff so that s_lam keeps every time it depends on.
    """
    ctx = poly.ctx
    if poly.K < poly.cutoff:
        raise ValueError("need K >= cutoff for a Schur-basis expansion")
    by_weight = {}
    for lam in partitions_bounded(poly.cutoff, maxlen):
        by_weight.setdefault(sum(lam), []).append(lam)
    out = {}
    for key, c in poly.terms.items():
        mu = tuple(m for m in range(poly.K, 0, -1) for _ in range(key[m - 1]))
        denom = prod(m**k for m, k in enumerate(key, 1))
        keyed_sum(out, ((lam, ctx.embed(Rational(chi, denom)) * c)
                        for lam in by_weight.get(sum(mu), ()) if (chi := _character(lam, mu))))
    return {lam: a for lam, a in out.items() if a}


@cache
def _complete_e(M, n):
    """The complete symmetric function h_n in Lambda_M as (key, int) pairs,
    key[m - 1] the power of e_m: h_n = sum_{k=1}^M (-1)^(k-1) e_k h_(n-k),
    h_0 = 1 and h_(n<0) = 0."""
    if n <= 0:
        return (((0,) * M, 1),) if n == 0 else ()
    out = keyed_sum({}, ((key[: k - 1] + (key[k - 1] + 1,) + key[k:], (-1) ** (k - 1) * c)
                         for k in range(1, M + 1) for key, c in _complete_e(M, n - k)))
    return tuple((key, c) for key, c in out.items() if c)


@cache
def _schur_e(lam, M):
    """s_lam in Lambda_M as (key, int) pairs, key[m - 1] the power of e_m: the
    Jacobi-Trudi determinant det(h_(lam_i - i + j)), its entries held as Miwa
    polynomials of K = M (e_m has weight m); no pairs for more than M rows."""
    if len(lam) > M:  # s_lam vanishes in M variables
        return ()
    if not lam:  # s_() = 1, in Lambda_0 too
        return (((0,) * M, 1),)
    ctx, w = FieldContext("rational"), sum(lam)
    rows = [[MiwaPolynomial(ctx, M, w, dict(_complete_e(M, part - i + j))) for j in range(M)]
            for i, part in enumerate(lam + (0,) * (M - len(lam)))]
    return tuple((key, int(c)) for key, c in det_ring(rows).terms.items())


def schur_sum_e(cmap, n):
    """sum_lam c_lam s_lam in n variables as a Miwa polynomial in e_1..e_n
    (K = n, e_m of weight m, known through cmap's cutoff): one keyed sum of
    each c_lam times the Jacobi-Trudi table of s_lam in Lambda_n."""
    return MiwaPolynomial(cmap.ctx, n, cmap.cutoff, keyed_sum({}, (
        (key, c * k) for lam, c in cmap.items() for key, k in _schur_e(lam, n))))


def slavnov_schur_coeffs(p, u, cutoff):
    """Schur coefficients A_lam, |lam| <= cutoff, at most M rows, of the
    quotient of the two normalized tau sums (see schur_quotient)."""
    return schur_quotient(*(cauchy_binet_coeffs(p, u, family, cutoff) for family in (1, 2)), p.M)


def schur_quotient(c1, c2, M):
    """Schur coefficients A_lam, |lam| <= c1.cutoff, at most M rows (the rest
    cannot contribute on M points), of sum c1_lam s_lam / sum c2_lam s_lam
    divided as graded series in Lambda_M, read off heaviest partition first
    (lex order) as the coefficient of s_lam's leading monomial
    prod_m e_m^(lam_m - lam_(m+1)), with A_lam s_lam then subtracted."""
    rest = (schur_sum_e(c1, M) * miwa_series_invert(schur_sum_e(c2, M))).terms
    out = {}
    for lam in reversed(_partitions(c1.cutoff, M)):
        padded = lam + (0,) * (M + 1)
        if a := rest.get(tuple(padded[m] - padded[m + 1] for m in range(M))):
            out[lam] = a
            keyed_sum(rest, ((key, a * -k) for key, k in _schur_e(lam, M)))
    return SchurCoeffMap(c1.ctx, c1.cutoff, out)
