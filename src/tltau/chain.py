"""Open-chain transfer-matrix eigenvalue and the two determinant families.

The building block is w(x) = x - 1/x.  The boundary data (spin s, boundary
parameter Q) fixes the bulk parameter q through

    sum_{k=-s}^{s} Q^{2k} = -(q + 1/q).

The eigenvalue Lambda(v, u) of the transfer matrix of the U_q(sl2)-invariant
open chain on L = N sites, with M Bethe roots u_1..u_M, is even in v; the
exponent 2N below comes from the double-row monodromy.  It is coded once, in
y = v^2, with every factor multiplied through by y, which turns each into a
polynomial in y with a nonzero constant term:

    Lambda = -y^(-N) [A prod_j n1_j/d_j + B prod_j n2_j/d_j] / W,

    W    = q y^2 - 1/q                    = y w(q v^2),
    A    = (q y + 1/q)(q y - 1/q)^(2N+1)  = y^(N+1) w(q^2 v^2) w(q v)^(2N),
    B    = (y + 1)(y - 1)^(2N+1)          = y^(N+1) w(v^2) w(v)^(2N),
    n1_j = y^2/q - sigma_j y + q          = y w(v/(q u_j)) w(v u_j),
    n2_j = q^3 y^2 - sigma_j y + q^-3     = y w(q v/u_j) w(q^2 v u_j),
    d_j  = q y^2 - sigma_j y + 1/q        = y w(v/u_j) w(q v u_j),
    sigma_j = q u_j^2 + 1/(q u_j^2).

The formula reads the roots only through their sigma_j, formed once per root
vector, so u_j -> -u_j and u_j -> 1/(q u_j) leave it unchanged.  Family 1 is
F^(1)_i = d Lambda / d u_i: n/d_i becomes d(n/d_i)/d sigma_i = y (n - d_i)/d_i^2,
times sigma_i' = 2(q u_i - 1/(q u_i^3)), which the roots' data carries.
Family 2 is F^(2)_i = y/d_i = 1/(w(v/u_i) w(q v u_i)) = 1/(sigma(v) - sigma_i),
sigma(v) = q y + 1/(q y): a Cauchy matrix, so det F^(2) is (-1)^M times the
Cauchy product in the sigma_i and sigma(v_j), nonzero on every pair validate_uv
admits.  At y = u_j^2, A n1_j and B n2_j share the factor w(y) w(q^2 y), so the
residue of Lambda at v = u_j is that factor times a pole bracket, in which it is
cancelled in closed form.

The formula only adds, multiplies and divides, so one code path serves every
carrier: field scalars for pointwise values (the v-form entry points evaluate
it at y = v*v) and truncated series in y for Taylor data.  On a series the
truncation is exact: all denominators have nonzero constant terms, so y known
through y^T gives y^N Lambda through y^T without padding.

The inner product of an on-shell state with a free one factorizes as a
prefactor G(u, v) times det F^(1)_i(v_j) / det F^(2)_i(v_j), and that ratio is
the quotient of the two tau functions built downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .algebra import (FieldContext, LaurentSeries, QuadraticNumber, Rational, det, field_sum,
                      squarefree_kernel)


class PoleError(ZeroDivisionError):
    """A factor in the w-algebra vanished where it must not.

    The ``factor`` attribute names the vanishing factor.
    """

    def __init__(self, factor, detail=""):
        self.factor = factor
        msg = "vanishing factor %s" % factor
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)


def w_eval(x):
    """w(x) = x - 1/x.  Errors on x = 0."""
    if isinstance(x, int):
        x = Rational(x)
    if not x:
        raise PoleError("w(0)", "argument is zero")
    return x - 1 / x


def _refuse_pm(a, b, factor, detail):
    """Raise PoleError(factor, detail) when a = +-b, where w(a/b) vanishes."""
    if a == b or a == -b:
        raise PoleError(factor, detail)


def _w_nonzero(x, factor, detail):
    """w(x), after refusing x = +-1, where it vanishes."""
    _refuse_pm(x, 1, factor, detail)
    return w_eval(x)


def _q_powers(q):
    """(1/q, q^3, 1/q^3) on the carrier of q: the powers the eigenvalue
    formula reads, formed once per ChainParams or solver stand-in."""
    q3 = q * q * q
    return 1 / q, q3, 1 / q3


def boundary_sum(Q, spin_twice):
    """sum of Q^{2k} for k = -s..s, with 2s = spin_twice: never an empty sum,
    so it needs no context for its zero."""
    return field_sum([Q**t for t in range(-spin_twice, spin_twice + 1, 2)], None)


class ChainParams:
    """Chain sizes and couplings: N sites, M Bethe roots, spin s = spin_twice/2.

    q and Q are scalars of the held FieldContext and must satisfy the
    boundary constraint; q = 0, +1, -1 are rejected since w(q) and w(1/q)
    appear in denominators throughout.  M = 0 is allowed (free eigenvalue
    with no Bethe roots); the inner-product operations demand M >= 1.
    The q-powers the eigenvalue formula reads, (iq, q3, iq3) = _q_powers(q),
    are formed once here.
    """

    __slots__ = ("N", "M", "spin_twice", "q", "Q", "ctx", "iq", "q3", "iq3")

    def __init__(self, N, M, spin_twice, q, Q, ctx):
        if N < 1:
            raise ValueError("N must be at least 1")
        if M < 0:
            raise ValueError("M must be nonnegative")
        if spin_twice < 1:
            raise ValueError("spin_twice must be at least 1")
        self.N = int(N)
        self.M = int(M)
        self.spin_twice = int(spin_twice)
        self.ctx = ctx
        self.q = q
        self.Q = Q
        if not q:
            raise ValueError("q must be nonzero")
        if not q * q - ctx.one():
            raise ValueError("q must not be +1 or -1")
        if not Q:
            raise ValueError("Q must be nonzero")
        self.iq, self.q3, self.iq3 = _q_powers(q)
        lhs = boundary_sum(Q, self.spin_twice)
        rhs = -(q + self.iq)
        if not ctx.residual_ok(lhs - rhs, scale=rhs):
            raise ValueError("boundary constraint violated: sum Q^{2k} != -(q + 1/q)")

    @classmethod
    def from_boundary(cls, N, M, spin_twice, Q, mode="rational", prec=192):
        """Derive q from the boundary constraint and build the matching context.

        Q is given as a rational number.  With c = sum Q^{2k}, q solves
        q^2 + c q + 1 = 0 and the root q = (-c + sqrt(c^2 - 4))/2 is taken.
        Rational mode requires c^2 - 4 to be a rational square; quadratic
        mode adjoins sqrt of its squarefree kernel; float mode just evaluates
        (complex if |c| < 2).
        """
        Qf = Fraction(Q)
        if Qf == 0:
            raise ValueError("Q must be nonzero")
        c = boundary_sum(Qf, int(spin_twice))
        e = c * c - 4
        if mode == "rational":
            if e < 0:
                raise ValueError("c^2 - 4 = %s is negative; use quadratic or float mode" % e)
            sn, sd = isqrt(e.numerator), isqrt(e.denominator)
            if sn * sn != e.numerator or sd * sd != e.denominator:
                raise ValueError(
                    "c^2 - 4 = %s is not a rational square; use quadratic or float mode" % e
                )
            ctx = FieldContext("rational")
            q = ctx.embed((-c + Fraction(sn, sd)) / 2)
        elif mode == "quadratic":
            m = e.numerator * e.denominator
            if m == 0:
                raise ValueError("c^2 - 4 vanishes; q would be degenerate")
            sgn = -1 if m < 0 else 1
            s, d0 = squarefree_kernel(abs(m))
            d = sgn * d0
            if d == 1:
                raise ValueError("c^2 - 4 is a rational square; use rational mode")
            ctx = FieldContext("quadratic", d=d)
            q = QuadraticNumber(-c / 2, Fraction(s, 2 * e.denominator), d)
        elif mode == "float":
            ctx = FieldContext("float", prec=prec)
            cf = ctx.embed(c)
            q = (-cf + ctx.mp.sqrt(cf * cf - 4)) / 2
        else:
            raise ValueError("unknown mode %r" % (mode,))
        return cls(N, M, spin_twice, q, ctx.embed(Qf), ctx)


class ParameterVector(tuple):
    """Tuple of spectral parameters with a role tag ('bethe' or 'free').

    The constructor enforces what it can see without q: entries nonzero and
    pairwise distinct.  The q-dependent excluded sets are checked by
    validate_uv at the operations that depend on them.

    Used as roots, a vector keeps chain's data on it in one store, read
    through `remember`: the root data (sigma-tuple, sigma'-tuple), keyed by
    params, and the columns, keyed by (params, family, y).
    """

    def __new__(cls, values, role):
        if role not in ("bethe", "free"):
            raise ValueError("role must be 'bethe' or 'free'")
        self = super().__new__(cls, values)
        for x in self:
            if not x:
                raise ValueError("parameter entries must be nonzero")
        for i in range(len(self)):
            for j in range(i + 1, len(self)):
                if self[i] == self[j]:
                    raise ValueError("parameter entries must be pairwise distinct")
        self.role = role
        self._memo = {}
        return self

    def __repr__(self):
        return "ParameterVector(%r, %r)" % (tuple(self), self.role)


def remember(u, key, make):
    """make(), kept under key in the store of a ParameterVector u, so that it
    is formed once per vector; a plain sequence of roots keeps nothing."""
    if not isinstance(u, ParameterVector):
        return make()
    got = u._memo.get(key)
    if got is None:
        got = u._memo[key] = make()
    return got


def validate_uv(p, u=(), v=()):
    """Check the q-dependent admissibility sets, naming the factor that fails.

    sigma(a) = sigma(b) exactly when w(a/b) or w(q a b) vanishes.  For i != j,
    w(u_i/u_j), w(q u_i u_j), w(v_i/v_j) and w(q v_i v_j) are sigma-coincidences
    (two rows or columns of each family proportional); w(v_i/u_j), w(q v_i u_j)
    and w(q v_i^2) are poles; where w(v_i) or w(q v_i) vanishes Lambda is free of
    the roots, so the family-1 column is 0, and where w(q u_j^2) does sigma_j'
    and the family-1 row are; w(u_i u_j) is a pole of the prefactor G alone.
    """
    q = p.q
    for j, x in enumerate(u):
        qx = q * x
        _refuse_pm(qx * x, 1, "w(q*u_j^2)", "j=%d" % j)
        for i, y in enumerate(u[:j]):
            ij = "i=%d j=%d" % (i, j)
            _refuse_pm(y * x, 1, "w(u_i*u_j)", ij)
            _refuse_pm(qx * y, 1, "w(q*u_i*u_j)", ij)
            _refuse_pm(y, x, "w(u_i/u_j)", ij)
    for i, x in enumerate(v):
        qx = q * x
        _refuse_pm(x, 1, "w(v_i)", "i=%d" % i)
        _refuse_pm(qx, 1, "w(q*v_i)", "i=%d" % i)
        _refuse_pm(qx * x, 1, "w(q*v^2)", "i=%d" % i)
        for j, y in enumerate(v[:i]):
            ij = "i=%d j=%d" % (j, i)
            _refuse_pm(x, y, "w(v_i/v_j)", ij)
            _refuse_pm(qx * y, 1, "w(q*v_i*v_j)", ij)
        for j, y in enumerate(u):
            ij = "i=%d j=%d" % (i, j)
            _refuse_pm(x, y, "w(v_i/u_j)", ij)
            _refuse_pm(qx * y, 1, "w(q*v_i*u_j)", ij)


def _check_row(u, i):
    if not 0 <= i < len(u):
        raise ValueError("index i=%d outside the %d Bethe roots" % (i, len(u)))


def _sigma(q, uj):
    qy = q * (uj * uj)
    return qy + 1 / qy


def _dsigma(q, ui):
    """sigma_i' = d sigma_i / d u_i."""
    qu = q * ui
    return 2 * (qu - 1 / (qu * ui * ui))


def _denominator(p, y, s):
    """d_j = q y^2 - sigma_j y + 1/q."""
    d = (y * p.q - s) * y + p.iq
    if not d:
        raise PoleError("w(v/u_j)*w(q*v*u_j)", "y-form denominator")
    return d


def _factors(p, y, s):
    """(n1_j, n2_j, d_j) at y from sigma_j = s, as the eigenvalue and the pole
    brackets both read them."""
    return (y * p.iq - s) * y + p.q, (y * p.q3 - s) * y + p.iq3, _denominator(p, y, s)


def pole_brackets(p, u):
    """Pole brackets at v = u_j for every root, one sigma pass: with
    y = u_j^2 and i != j, -w(q) y^(1-N) [(y-1)^(2N) prod n2_i - (qy-1/q)^(2N)
    prod n1_i] / (2 u_j w(qy)^2 prod d_i), finite where w(y) w(q^2 y), the
    rest of the residue, vanishes.  Each root's 1/(q y) serves both sigma_j
    and w(q y).  Reads only p.N, p.q and its powers p.iq, p.q3, p.iq3."""
    if not all(u):
        raise PoleError("w(u_j)", "root is zero")
    q, iq = p.q, p.iq
    ys = [x * x for x in u]
    qys = [q * y for y in ys]
    rs = [1 / qy for qy in qys]
    ss = [qy + r for qy, r in zip(qys, rs)]
    e = 2 * p.N
    out = []
    for j in range(len(u)):
        y, qy = ys[j], qys[j]
        _refuse_pm(qy, 1, "w(q*u_j^2)", "")
        wqy = qy - rs[j]
        a, b, den = (qy - iq) ** e, (y - 1) ** e, 2 * u[j] * wqy * wqy * y ** (p.N - 1)
        for i, s in enumerate(ss):
            if i != j:
                n1, n2, d = _factors(p, y, s)
                a, b, den = a * n1, b * n2, den * d
        out.append((iq - q) * (b - a) / den)
    return out


def _shell(p, y):
    """The root-independent factors W, A, B of the formula."""
    if not y:
        raise PoleError("w(v)", "y is zero")
    qy, iq = y * p.q, p.iq
    W = qy * y - iq
    if not W:
        raise PoleError("w(q*v^2)")
    e = 2 * p.N + 1
    return W, (qy + iq) * (qy - iq) ** e, (y + 1) * (y - 1) ** e


def _cleared(p, y, ss, rows=(None,)):
    """y^N Lambda at y, a field scalar or a series in y, from the roots'
    sigma-tuple ss (see the module doc).

    Returns one value per entry of rows: None gives y^N Lambda, i gives
    y^(N-1) d Lambda / d sigma_i, which sigma_i' turns into y^(N-1) F^(1)_i.
    """
    W, A, B = _shell(p, y)
    factors = [_factors(p, y, s) for s in ss]
    out = []
    for ds in rows:
        a, b, den = A, B, W
        for j, (n1, n2, d) in enumerate(factors):
            if j == ds:
                n1, n2, d = n1 - d, n2 - d, d * d
            a, b, den = a * n1, b * n2, den * d
        out.append(-(a + b) / den)
    return out


def leading_power(p, family):
    """The power of y each row of a family starts at: 1 - N for family 1 (d/du_i
    annihilates the u-independent leading term of y^N Lambda), 1 for family 2."""
    if family not in (1, 2):
        raise ValueError("family must be 1 or 2")
    return 1 - p.N if family == 1 else 1


def _root_data(p, u):
    """(sigma-tuple, sigma'-tuple) of the roots u, kept by a ParameterVector."""
    q = p.q
    return remember(u, p, lambda: (tuple(_sigma(q, x) for x in u),
                                   tuple(_dsigma(q, x) for x in u)))


def _rows(p, roots, family, y):
    """Every row of a family at y (a field scalar or a series in y) divided by
    its leading power: y^(N-1) F^(1)_i, from one shell, and F^(2)_i / y = 1/d_i."""
    ss, ds = roots
    if family == 1:
        return [c * d for c, d in zip(_cleared(p, y, ss, range(len(ss))), ds)]
    if family == 2:
        return [1 / _denominator(p, y, s) for s in ss]
    raise ValueError("family must be 1 or 2")


def family_matrix_y(p, u, family, ypoints):
    """Matrix F^(family)_i(y_j), built column by column from the roots' data:
    the rows at y_j times the leading power y_j**leading_power, formed once
    per column.  A ParameterVector u keeps the data and the columns."""
    roots = _root_data(p, u)

    def column(y):
        if not y:
            raise PoleError("w(v)", "y is zero")
        lead = y ** leading_power(p, family)
        return [r * lead for r in _rows(p, roots, family, y)]

    cols = [remember(u, (p, family, y), lambda y=y: column(y)) for y in ypoints]
    return [[col[i] for col in cols] for i in range(len(roots[0]))]


def lambda_du_y(p, i, y, u):
    """d Lambda / d u_i at v = sqrt(y)."""
    _check_row(u, i)
    return family_matrix_y(p, u, 1, [y])[i][0]


def kernel_y(p, u, ypoints):
    """Determinant-ratio kernel evaluated at squared points y_j = v_j^2."""
    ys = list(ypoints)
    if len(u) < 1 or len(ys) != len(u):
        raise ValueError("kernel_y needs len(u) = len(y) >= 1")
    num = det(family_matrix_y(p, u, 1, ys), p.ctx)
    den = det(family_matrix_y(p, u, 2, ys), p.ctx)
    if not den:
        raise PoleError("det(F2)", "singular denominator family")
    return num / den


# -- the v-form: the y-form at y = v*v --------------------------------------


def lambda_eval(p, v, u):
    """Transfer-matrix eigenvalue Lambda(v, u); u may be empty.

    Poles w(v), w(q v^2) and the dressing denominators raise PoleError.
    """
    y = v * v
    return _cleared(p, y, _root_data(p, u)[0])[0] / y**p.N


def lambda_du(p, i, v, u):
    """d Lambda / d u_i at (v, u)."""
    return lambda_du_y(p, i, v * v, u)


def f2_eval(p, i, v, u):
    """Family-2 value 1/(w(v/u_i) w(q v u_i))."""
    _check_row(u, i)
    return family_matrix_y(p, u, 2, [v * v])[i][0]


def family_matrix(p, u, family, points):
    """Matrix F^(family)_i(x_j) with rows indexed by the Bethe roots."""
    return family_matrix_y(p, u, family, [x * x for x in points])


def kernel(p, u, v):
    """Determinant-ratio kernel det F^(1)_i(v_j) / det F^(2)_i(v_j)."""
    if len(u) < 1 or len(v) != len(u):
        raise ValueError("kernel needs len(u) = len(v) >= 1")
    validate_uv(p, u, v)
    return kernel_y(p, u, [x * x for x in v])


def slavnov(p, u, v):
    """Inner product of the on-shell state at u with the free state at v:
    g_prefactor(u, v) times the determinant-ratio kernel."""
    return g_prefactor(p, u, v) * kernel(p, u, v)


def g_prefactor(p, u, v):
    """Scalar prefactor G(u, v) of the factorized inner product.

    G = 2^{-M} Q^{-2Ms} prod_j [ u_j w(u_j)^{2N} w(u_j^2) /
        (w(u_j^2) w(q^2 v_j^2)) ] * prod_{i>j} w(q^2 u_i u_j) / w(u_i u_j).

    The w(u_j^2)/w(u_j^2) pair is kept verbatim rather than cancelled, so
    u_j = +-1 is an error, as is any other vanishing listed factor.
    """
    ctx = p.ctx
    q = p.q
    M = len(u)
    if M < 1 or len(v) != M:
        raise ValueError("g_prefactor needs len(u) = len(v) >= 1")
    out = ctx.embed(Rational(1, 2**M)) * p.Q ** (-M * p.spin_twice)
    for j in range(M):
        wu = _w_nonzero(u[j], "w(u_j)", "j=%d" % j)
        wu2 = _w_nonzero(u[j] * u[j], "w(u_j^2)", "j=%d" % j)
        wv2 = _w_nonzero(v[j] * v[j] * q * q, "w(q^2*v_j^2)", "j=%d" % j)
        out = out * u[j] * wu ** (2 * p.N) * wu2 / (wu2 * wv2)
    for i in range(M):
        for j in range(i):
            ij = "i=%d j=%d" % (i, j)
            num = _w_nonzero(u[i] * u[j] * q * q, "w(q^2*u_i*u_j)", ij)
            den = _w_nonzero(u[i] * u[j], "w(u_i*u_j)", ij)
            out = out * num / den
    return out


# -- Taylor data: the y-form on a truncated series in y ----------------------


def _y_series(ctx, order):
    return LaurentSeries(ctx, {1: ctx.one()}, max(order, 1))


def taylor_rows(p, u, family, order):
    """Every row of a family (see _rows) as a Taylor series in y through y**order."""
    y = _y_series(p.ctx, order)
    return [r.truncate(order) for r in _rows(p, _root_data(p, u), family, y)]


def _z_series(ys, start, order):
    """sum_n c_n z^(2n + start) for the y-series sum_n c_n y^n, through z**order."""
    return LaurentSeries(
        ys.ctx, {2 * n + start: c for n, c in ys.coeffs.items() if 2 * n + start <= order}, order
    )


def f_series(p, u, family, i, order):
    """Laurent expansion of F^(family)_i about v = 0 through z**order.

    Both series are even and start at twice the family's leading power of y:
    z**(2-2N) for family 1, z**2 with leading coefficient q for family 2.
    """
    start = 2 * leading_power(p, family)
    if order < start:
        raise ValueError("order %d is below the family's starting exponent %d" % (order, start))
    _check_row(u, i)
    return _z_series(taylor_rows(p, u, family, (order - start) // 2)[i], start, order)


def pole_radius_y(p, u):
    """Distance from y = 0 to the nearest pole of the y-form families:
    min over |u_j^2|, |1/(q u_j)^2| and |1/q|.  Float magnitude, used only
    to place sample points safely inside convergence disks."""
    ctx = p.ctx
    cands = [ctx.magnitude(p.iq)]
    for uj in u:
        cands.append(ctx.magnitude(uj * uj))
        inv = ctx.one() / (p.q * uj)
        cands.append(ctx.magnitude(inv * inv))
    return min(cands)
