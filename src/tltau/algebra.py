"""Scalar fields, truncated Laurent and Miwa-time arithmetic, determinants.

Three scalar modes drive everything downstream:

* ``rational``  -- ``Rational``, a ``fractions.Fraction`` whose arithmetic
  runs on its integer numerator and denominator;
* ``quadratic`` -- elements ``a + b*sqrt(d)`` of one fixed real or imaginary
  quadratic field, exact, held as integer numerators over one denominator;
* ``float``     -- mpmath arbitrary-precision floats, complex allowed, made
  by the context's own mpmath context, never at mpmath's global precision.

Exact modes compare by literal equality.  Float mode keeps exact-zero tests
for canonical-form bookkeeping (never dropping merely small numbers) and uses
a relative tolerance only for verdicts.

The series types carry explicit truncation state.  A ``LaurentSeries`` knows
its coefficients up to and including ``trunc``; anything above is unknown,
not zero.  A ``MiwaPolynomial`` knows its monomials in the times t_1..t_K of
weighted degree (weight of t_m is m) up to and including ``cutoff``.  Each
operation returns the cutoff its operands determine: a sum or product the
smaller of the two, d/dt_m the cutoff less m, and ``restrict`` a lower one.
So a caller never trims a result to its known weights by hand.

One determinant, ``det_ring``, serves every scalar mode; one series inverse,
``_graded_inverse``, serves Laurent series (graded by exponent) and Miwa
polynomials (graded by weight).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from operator import add, itemgetter

import mpmath as mp
from mpmath.ctx_mp_python import mpnumeric


def _sum(na, da, nb, db):
    """na/da + nb/db for reduced operands, in lowest terms by Knuth's gcd
    form (TAOCP vol. 2, 4.5.1): only gcd(da, db) and one small gcd."""
    g = math.gcd(da, db)
    x = object.__new__(Rational)
    if g == 1:
        x._numerator, x._denominator = na * db + nb * da, da * db
        return x
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    x._numerator, x._denominator = t // g2, s * (db // g2)
    return x


def _diff(na, da, nb, db):
    return _sum(na, da, -nb, db)


def _prod(na, da, nb, db):
    """na/da * nb/db for reduced operands, in lowest terms by cross gcds."""
    g1 = math.gcd(na, db)
    g2 = math.gcd(nb, da)
    x = object.__new__(Rational)
    x._numerator, x._denominator = (na // g1) * (nb // g2), (da // g2) * (db // g1)
    return x


def _quot(na, da, nb, db):
    if nb < 0:
        nb, db = -nb, -db
    elif not nb:
        raise ZeroDivisionError("division by zero")
    return _prod(na, da, db, nb)


def _fast_operators(op, name):
    """Forward and reflected methods that run op on the integer parts when
    the other operand is an int or a Fraction, and hand any other operand
    to Fraction's method of the same name."""

    def forward(a, b):
        if type(b) is Rational:
            return op(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, (int, Fraction)):
            return op(a._numerator, a._denominator, b.numerator, b.denominator)
        return getattr(Fraction, name)(a, b)

    def reverse(b, a):
        if isinstance(a, (int, Fraction)):
            return op(a.numerator, a.denominator, b._numerator, b._denominator)
        return getattr(Fraction, "__r" + name[2:])(b, a)

    return forward, reverse


class Rational(Fraction):
    """The rational-mode scalar: a Fraction whose + - * /, unary minus and
    integer powers run on its integer numerator and denominator.

    With an int, a Fraction or a Rational on the other side, each operation
    builds its result directly in lowest terms with a positive denominator
    and returns a Rational; any other operand goes to Fraction's own method.
    Equality, hashing, ordering, str and float() are Fraction's, so a
    Rational is interchangeable with the Fraction of the same value.

    >>> x = Rational(3, 4)
    >>> x * 2 - Fraction(1, 2) == 1, type(1 / x).__name__, x ** -2
    (True, 'Rational', Rational(16, 9))
    """

    __slots__ = ()

    __add__, __radd__ = _fast_operators(_sum, "__add__")
    __sub__, __rsub__ = _fast_operators(_diff, "__sub__")
    __mul__, __rmul__ = _fast_operators(_prod, "__mul__")
    __truediv__, __rtruediv__ = _fast_operators(_quot, "__truediv__")

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __pow__(a, k):
        if type(k) is not int:
            return Fraction.__pow__(a, k)
        n, d = a._numerator, a._denominator
        if k < 0:
            if not n:
                raise ZeroDivisionError("zero to a negative power")
            n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
        return _rational(n**k, d**k)


def _rational(n, d):
    """Rational n/d from integers with gcd(n, d) = 1 and d > 0."""
    x = object.__new__(Rational)
    x._numerator, x._denominator = n, d
    return x


def _qsum(n1, m1, c1, n2, m2, c2, d):
    return _norm(n1 * c2 + n2 * c1, m1 * c2 + m2 * c1, c1 * c2, d)


def _qdiff(n1, m1, c1, n2, m2, c2, d):
    return _norm(n1 * c2 - n2 * c1, m1 * c2 - m2 * c1, c1 * c2, d)


def _qprod(n1, m1, c1, n2, m2, c2, d):
    return _norm(n1 * n2 + m1 * m2 * d, n1 * m2 + m1 * n2, c1 * c2, d)


def _qeq(n1, m1, c1, n2, m2, c2, d):
    return n1 == n2 and m1 == m2 and c1 == c2


def _quad_operators(op):
    """Forward and reflected methods that run op on the parts (n, m, c) of
    two operands of one field; an int or a Fraction enters as (numerator,
    0, denominator), never as a new element."""

    def forward(a, b):
        if type(b) is QuadraticNumber and b.d == a.d:
            return op(a.n, a.m, a.c, b.n, b.m, b.c, a.d)
        if isinstance(b, (int, Fraction)):
            return op(a.n, a.m, a.c, b.numerator, 0, b.denominator, a.d)
        if isinstance(b, QuadraticNumber):
            raise ValueError("mixed quadratic fields: d=%s vs d=%s" % (a.d, b.d))
        return NotImplemented

    def reverse(b, a):
        if isinstance(a, (int, Fraction)):
            return op(a.numerator, 0, a.denominator, b.n, b.m, b.c, b.d)
        return NotImplemented

    return forward, reverse


class QuadraticNumber:
    """Element (n + m*sqrt(d)) / c of Q(sqrt(d)), d a fixed non-square integer.

    n, m and c are integers in the normal form gcd(n, m, c) = 1, c > 0, so an
    element has one representation and arithmetic needs one gcd.  ``a`` = n/c
    and ``b`` = m/c are the parts as Fractions.  A negative ``d`` gives an
    imaginary field with the same arithmetic, and an int or Fraction operand
    enters as its parts (numerator, 0, denominator).

    >>> x = QuadraticNumber(Fraction(-21, 8), Fraction(1, 4), 377)
    >>> (x.n, x.m, x.c), x + x.conjugate()
    ((-21, 2, 8), QuadraticNumber(Fraction(-21, 4), Fraction(0, 1), 377))
    """

    __slots__ = ("n", "m", "c", "d")

    def __init__(self, a, b=0, d=None):
        if d is None:
            raise ValueError("QuadraticNumber requires the discriminant d")
        # reduced parts over their least common denominator have gcd(n, m, c) = 1
        a, b = (x if type(x) in (int, Fraction) else Fraction(x) for x in (a, b))
        c = math.lcm(a.denominator, b.denominator)
        self.n, self.m = a.numerator * (c // a.denominator), b.numerator * (c // b.denominator)
        self.c, self.d = c, int(d)

    a = property(lambda self: Fraction(self.n, self.c))
    b = property(lambda self: Fraction(self.m, self.c))

    __add__, __radd__ = _quad_operators(_qsum)
    __sub__, __rsub__ = _quad_operators(_qdiff)
    __mul__, __rmul__ = _quad_operators(_qprod)

    def inverse(self):
        # c / (n + m sqrt d) = c (n - m sqrt d) / (n^2 - d m^2)
        n, m, c = self.n, self.m, self.c
        norm = n * n - m * m * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return _norm(c * n, -c * m, norm, self.d)

    # quotients go through inverse and *, which the benchmark wraps and counts
    def __truediv__(self, o):
        if isinstance(o, (int, Fraction)):
            return self * Fraction(o.denominator, o.numerator)
        if isinstance(o, QuadraticNumber):
            return self * o.inverse()
        return NotImplemented

    def __rtruediv__(self, o):
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        return self.inverse() if o == 1 else self.inverse() * o

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return _quad(1, 0, 1, self.d) if out is None else out

    def __neg__(self):
        return _quad(-self.n, -self.m, self.c, self.d)

    def conjugate(self):
        return _quad(self.n, -self.m, self.c, self.d)

    __eq__ = _quad_operators(_qeq)[0]

    def __bool__(self):
        return self.n != 0 or self.m != 0

    def __hash__(self):
        # equal to a rational exactly when m == 0, so hash like that rational
        if self.m:
            return hash((self.n, self.m, self.c, self.d))
        return hash(_rational(self.n, self.c))

    def __float__(self):
        if not self.m:
            return self.n / self.c
        if self.d < 0:
            raise ValueError("complex quadratic number has no float value")
        return self.n / self.c + self.m / self.c * math.sqrt(self.d)

    def __repr__(self):
        return "QuadraticNumber(%r, %r, %r)" % (self.a, self.b, self.d)

    def __str__(self):
        return "(%s,%s|%s)" % (self.a, self.b, self.d)


def _quad(n, m, c, d):
    """QuadraticNumber (n + m*sqrt(d)) / c from parts already in normal form."""
    x = object.__new__(QuadraticNumber)
    x.n, x.m, x.c, x.d = n, m, c, d
    return x


def _norm(n, m, c, d):
    """(n + m*sqrt(d)) / c, c != 0, in normal form by one gcd and a sign fix."""
    g = math.gcd(n, m, c) if c > 0 else -math.gcd(n, m, c)
    x = object.__new__(QuadraticNumber)
    x.n, x.m, x.c, x.d = n // g, m // g, c // g, d
    return x


def _ratio(p, q, e):
    """The float nearest p / (q * 2**e), for integers p and q > 0."""
    return p / (q << e) if e >= 0 else (p << -e) / q


def squarefree_kernel(n):
    """Split a positive integer as s^2 * d with d squarefree; return (s, d)."""
    if n <= 0:
        raise ValueError("squarefree_kernel wants a positive integer")
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+|\d+\.\d*[eE][+-]?\d+)$")
_QUAD_RE = re.compile(r"^\(([^,()|]+),([^,()|]+)\|([+-]?\d+)\)$")


@cache
def _mp_context(prec):
    """The mpmath context at prec bits, one per precision for the process."""
    m = mp.MPContext()
    m.prec = prec
    return m


class FieldContext:
    """Carrier for one scalar mode and its comparison policy.

    mode      one of 'rational', 'quadratic', 'float'
    d         quadratic discriminant (quadratic mode only)
    prec      binary precision for float mode, at least 128 bits
    mp        the mpmath context at prec bits that makes every float scalar
              (float mode only; shared by equal prec, never to be re-set)
    tol       relative tolerance for float verdicts, fixed at 1e-20

    A float context computes at prec bits and leaves mpmath's global alone:

    >>> import mpmath
    >>> before = mpmath.mp.prec
    >>> ctx = FieldContext("float", prec=400)
    >>> mpmath.mp.prec == before, ctx.mp.prec
    (True, 400)
    >>> mpmath.nstr(ctx.embed(1) / 3, 40)
    '0.3333333333333333333333333333333333333333'
    """

    def __init__(self, mode="rational", d=None, prec=192):
        if mode not in ("rational", "quadratic", "float"):
            raise ValueError("unknown scalar mode %r" % (mode,))
        if mode == "quadratic":
            if d is None:
                raise ValueError("quadratic mode needs a discriminant d")
            if int(d) in (0, 1):
                raise ValueError("d=%s is a perfect square" % (d,))
            _, kern = squarefree_kernel(abs(int(d)))
            if abs(int(d)) != kern:
                raise ValueError("d=%s is not squarefree" % (d,))
        if mode == "float" and prec < 128:
            raise ValueError("float mode needs at least 128 bits")
        self.mode = mode
        self.d = int(d) if (mode == "quadratic") else None
        self.prec = int(prec)
        self.mp = _mp_context(self.prec) if mode == "float" else None
        self.tol = self.mp.mpf("1e-20") if mode == "float" else None
        self._zero, self._one = self.embed(0), self.embed(1)

    def __repr__(self):
        if self.mode == "quadratic":
            return "FieldContext('quadratic', d=%d)" % self.d
        if self.mode == "float":
            return "FieldContext('float', prec=%d)" % self.prec
        return "FieldContext('rational')"

    # -- construction ------------------------------------------------------

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def embed(self, x):
        """Coerce an int, Fraction, or same-mode scalar into this field; in
        float mode an mpf or mpc of any mpmath context enters exactly."""
        if self.mode == "rational":
            if type(x) is Rational:
                return x
            if isinstance(x, (int, Fraction)):
                return _rational(x.numerator, x.denominator)
            raise TypeError("cannot embed %r into the rational field" % (x,))
        if self.mode == "quadratic":
            if isinstance(x, QuadraticNumber):
                if x.d != self.d:
                    raise ValueError("wrong discriminant")
                return x
            if isinstance(x, (int, Fraction)):
                return _quad(x.numerator, 0, x.denominator, self.d)
            raise TypeError("cannot embed %r into Q(sqrt(%d))" % (x, self.d))
        m = self.mp
        if isinstance(x, (mpnumeric, complex)):
            return m.convert(x)
        if isinstance(x, (int, Fraction)):
            return m.mpf(x.numerator) / m.mpf(x.denominator)
        raise TypeError("cannot embed %r into float mode" % (x,))

    def from_string(self, s):
        """Parse the canonical serializations: 'p/q', '(a,b|d)', or decimal."""
        s = s.strip()
        m = _QUAD_RE.match(s)
        if m:
            val = QuadraticNumber(m.group(1), m.group(2), int(m.group(3)))
            if self.mode != "quadratic":
                raise ValueError("quadratic literal %r in %s mode" % (s, self.mode))
            return self.embed(val)
        if _DECIMAL_RE.match(s):
            if self.mode != "float":
                raise ValueError("decimal literal %r in exact mode" % (s,))
            return self.mp.mpf(s)
        return self.embed(Fraction(s))

    def to_string(self, x):
        if isinstance(x, (int, Fraction, QuadraticNumber)):
            return str(x)
        if isinstance(x, mpnumeric):
            return mp.nstr(x, 24)
        raise TypeError("cannot serialize %r" % (x,))

    # -- comparisons -------------------------------------------------------

    def residual_ok(self, r, scale=1):
        """Verdict test: exact zero in exact modes, relative bound in float."""
        if self.mode != "float":
            return not r
        return abs(r) <= self.tol * max(abs(self.embed(scale)), 1)

    def magnitude(self, x):
        """Float magnitude for radius and shrink comparisons, free of
        cancellation: a real a + b*sqrt(d) with a, b of opposite signs is
        |a^2 - d b^2| / |a - b*sqrt(d)|, whose numerator is exact.  The parts
        and that numerator are read scaled by powers of two to near 1 and the
        scale is put back last, so a value beyond float range reads inf or
        0.0, as a Fraction does; inside the range the scaling is exact."""
        try:
            if isinstance(x, Fraction):
                return abs(float(x))
            if isinstance(x, QuadraticNumber):
                n, m, c, d = x.n, x.m, x.c, x.d
                e = max(abs(n), abs(m)).bit_length() - c.bit_length()
                a, b, root = _ratio(n, c, e), _ratio(m, c, e), math.sqrt(abs(d))
                if d < 0:
                    mag = math.hypot(a, b * root)
                elif n * m < 0:
                    norm = abs(n * n - d * m * m)
                    k = norm.bit_length() - 2 * c.bit_length()
                    mag, e = _ratio(norm, c * c, k) / abs(a - b * root), k - e
                else:
                    mag = abs(a + b * root)
                return math.ldexp(mag, e)
            return float(abs(x))
        except OverflowError:
            return float("inf")


def det(rows, ctx):
    """Determinant of a square matrix of field scalars, by the minor expansion
    of ``det_ring`` in every field mode.  The empty matrix has determinant
    one."""
    if not rows:
        return ctx.one()
    return det_ring(rows, ctx.zero())


def det_ring(rows, zero):
    """Division-free determinant for entries from a commutative ring.

    Minor expansion along the first rows, memoized on column subsets, so a
    size-n matrix costs O(n * 2^n) ring multiplications, which suits the small
    matrices of field scalars that ``det`` passes it.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("det_ring wants at least a 1x1 matrix")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    memo = {}

    def minor(i, cols):
        if len(cols) == 1:
            return rows[i][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[i][c]
            sub = minor(i + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        memo[cols] = acc
        return acc

    out = minor(0, tuple(range(n)))
    return zero + out


def solve_linear(rows, rhs, ctx):
    """Solve the square system A x = b by Gaussian elimination.

    Exact modes pivot on the first nonzero entry; float mode on the largest
    magnitude.  Raises on a singular matrix.
    """
    n = len(rows)
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for k in range(n):
        if ctx.mode == "float":
            piv = max(range(k, n), key=lambda i: abs(m[i][k]))
            if not m[piv][k]:
                raise ValueError("singular linear system")
        else:
            piv = next((i for i in range(k, n) if m[i][k]), None)
            if piv is None:
                raise ValueError("singular linear system")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            if not m[i][k]:
                continue
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] = m[i][j] - f * m[k][j]
    x = [None] * n
    for k in range(n - 1, -1, -1):
        acc = m[k][n]
        for j in range(k + 1, n):
            acc = acc - m[k][j] * x[j]
        x[k] = acc / m[k][k]
    return x


def _graded_inverse(parts, order):
    """Grades 0..order of the inverse of sum_w parts[w], as {w: g_w} with
    g_0 = 1/parts[0] and g_w = -g_0 * sum_{j=1..w} parts[j] * g_{w-j}.

    parts[0] is an invertible scalar; the other parts are scalars or Miwa
    polynomials.  Missing grades, in ``parts`` and in the result, are zero.
    """
    g0 = 1 / parts[0]
    g = {0: g0}
    for w in range(1, order + 1):
        acc = None
        for j, pj in parts.items():
            if 0 < j <= w and w - j in g:
                term = pj * g[w - j]
                acc = term if acc is None else acc + term
        if acc is not None:
            g[w] = acc * -g0
    return g


def miwa_series_invert(poly):
    """Multiplicative inverse of a Miwa polynomial with nonzero constant term,
    correct through the polynomial's weighted-degree cutoff."""
    c0 = poly.terms.get((0,) * poly.K)
    if not c0:
        raise ZeroDivisionError("constant term vanishes; Miwa series not invertible")
    grades = {}
    for key, c in poly.terms.items():
        grades.setdefault(weighted_degree(key), {})[key] = c
    parts = {w: MiwaPolynomial(poly.ctx, poly.K, poly.cutoff, t) for w, t in grades.items()}
    parts[0] = c0
    g = _graded_inverse(parts, poly.cutoff)
    out = MiwaPolynomial.constant(poly.ctx, poly.K, poly.cutoff, g.pop(0))
    for gw in g.values():
        out = out + gw
    return out


def vandermonde(points, ctx):
    """prod_{i<j} (x_i - x_j), the determinant of the matrix x_i**(M-j)."""
    out = ctx.one()
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out = out * (pts[i] - pts[j])
    return out


class LaurentSeries:
    """Truncated Laurent series sum_{e <= trunc} c_e * z**e.

    Coefficients are stored sparsely; zero coefficients are never kept, and
    exponents above ``trunc`` are unknown rather than zero.  Finitely many
    negative exponents are allowed.  Multiplication propagates the truncation
    pessimistically:

        trunc(f*g) = min(trunc(f) + minexp(g), trunc(g) + minexp(f)),

    and inversion of a series with lowest exponent m gives trunc - 2m known
    orders, which matches the hand expansion (1/z**2 truncated at 4 inverts
    to z**-2 known through order 0).

    >>> ctx = FieldContext()
    >>> s = LaurentSeries(ctx, {0: Fraction(1), 1: Fraction(-1)}, 3)
    >>> sorted(s.invert().coeffs.items())
    [(0, Fraction(1, 1)), (1, Fraction(1, 1)), (2, Fraction(1, 1)), (3, Fraction(1, 1))]
    """

    __slots__ = ("ctx", "coeffs", "trunc")

    def __init__(self, ctx, coeffs, trunc):
        self.ctx = ctx
        self.trunc = int(trunc)
        clean = {}
        for e, c in coeffs.items():
            if e > self.trunc:
                raise ValueError("coefficient beyond truncation order %d" % self.trunc)
            if c:
                clean[int(e)] = c
        self.coeffs = clean

    def min_exp(self):
        """Lowest stored exponent; the truncation order for the zero series."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, e):
        if e > self.trunc:
            raise ValueError("coefficient of order %d is beyond trunc=%d" % (e, self.trunc))
        return self.coeffs.get(e, self.ctx.zero())

    def truncate(self, order):
        if order > self.trunc:
            raise ValueError("cannot extend a series by truncating")
        return LaurentSeries(self.ctx, {e: c for e, c in self.coeffs.items() if e <= order}, order)

    def shift(self, k):
        """Multiply by z**k."""
        return LaurentSeries(self.ctx, {e + k: c for e, c in self.coeffs.items()}, self.trunc + k)

    def __neg__(self):
        return LaurentSeries(self.ctx, {e: -c for e, c in self.coeffs.items()}, self.trunc)

    def _lift(self, c):
        """A field scalar as an exactly known constant series."""
        return LaurentSeries(self.ctx, {0: self.ctx.embed(c)}, max(self.trunc, 0))

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = self._lift(other)
        t = min(self.trunc, other.trunc)
        zero = self.ctx.zero()
        out = {e: c for e, c in self.coeffs.items() if e <= t}
        for e, c in other.coeffs.items():
            if e <= t:
                out[e] = out.get(e, zero) + c
        return LaurentSeries(self.ctx, out, t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, c):
        return LaurentSeries(self.ctx, {e: c * v for e, v in self.coeffs.items()}, self.trunc)

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return self * other.invert()
        return self.scale(self.ctx.one() / other)

    def __rtruediv__(self, other):
        return self.invert().scale(other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return self.scale(other)
        t = min(self.trunc + other.min_exp(), other.trunc + self.min_exp())
        zero = self.ctx.zero()
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= t:
                    out[e] = out.get(e, zero) + c1 * c2
        return LaurentSeries(self.ctx, out, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power wants a nonnegative integer")
        out = LaurentSeries(self.ctx, {0: self.ctx.one()}, self.trunc - self.min_exp())
        for _ in range(n):
            out = out * self
        return out

    def invert(self):
        """Multiplicative inverse through order trunc - 2*min_exp."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series with no known nonzero term")
        m = self.min_exp()
        g = _graded_inverse({e - m: c for e, c in self.coeffs.items()}, self.trunc - m)
        return LaurentSeries(self.ctx, {w - m: c for w, c in g.items()}, self.trunc - 2 * m)

    def evaluate(self, x):
        acc = self.ctx.zero()
        for e, c in self.coeffs.items():
            acc = acc + c * x**e
        return acc

    def is_even(self):
        return all(e % 2 == 0 for e in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = ", ".join(
            "%d: %s" % (e, self.ctx.to_string(c)) for e, c in sorted(self.coeffs.items())
        )
        return "LaurentSeries({%s}, trunc=%d)" % (terms, self.trunc)


@cache
def weighted_degree(key):
    """Weight of a Miwa monomial exponent tuple: sum over m of m * k_m."""
    return sum((m + 1) * k for m, k in enumerate(key) if k)


class MiwaPolynomial:
    """Polynomial in the Miwa times t_1..t_K, truncated by weighted degree.

    Monomial keys are length-K exponent tuples (t_m carries weight m).  The
    coefficients of weighted degree at most ``cutoff`` are known and stored;
    those above are unknown, not zero.  Every operation returns the cutoff
    its operands determine:

    * ``f + g`` and ``f * g`` know weights through min(f.cutoff, g.cutoff),
      since dropped cross terms of a product all exceed it;
    * ``f.deriv(m)`` knows weights through f.cutoff - m;
    * ``f.restrict(w)`` knows weights through w, which may not exceed
      f.cutoff.

    >>> ctx = FieldContext()
    >>> t1 = MiwaPolynomial.time_var(ctx, 2, 4, 1)
    >>> (t1 * t1 * t1).deriv(1)
    MiwaPolynomial(3 t1^2; cutoff=3)
    """

    __slots__ = ("ctx", "K", "cutoff", "terms")

    def __init__(self, ctx, K, cutoff, terms=None):
        self.ctx = ctx
        self.K = int(K)
        self.cutoff = int(cutoff)
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != self.K:
                raise ValueError("exponent tuple of wrong length")
            if weighted_degree(key) > self.cutoff:
                continue
            if c:
                clean[tuple(key)] = c
        self.terms = clean

    def _result(self, terms, cutoff=None):
        """A result with this K whose keys lie within the cutoff (this one's by
        default), as operations build them: only zero coefficients drop."""
        out = object.__new__(MiwaPolynomial)
        out.ctx, out.K = self.ctx, self.K
        out.cutoff = self.cutoff if cutoff is None else cutoff
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    @classmethod
    def constant(cls, ctx, K, cutoff, c):
        return cls(ctx, K, cutoff, {(0,) * K: ctx.embed(c) if isinstance(c, (int, Fraction)) else c})

    @classmethod
    def time_var(cls, ctx, K, cutoff, m):
        """The single Miwa time t_m as a polynomial."""
        if not 1 <= m <= K:
            raise ValueError("t_%d is outside K=%d" % (m, K))
        key = [0] * K
        key[m - 1] = 1
        return cls(ctx, K, cutoff, {tuple(key): ctx.one()})

    def _compat(self, other):
        if self.K != other.K:
            raise ValueError("mixed K in Miwa arithmetic: %d vs %d" % (self.K, other.K))
        return min(self.cutoff, other.cutoff)

    def __add__(self, other):
        if not isinstance(other, MiwaPolynomial):
            return NotImplemented
        cutoff = self._compat(other)
        zero = self.ctx.zero()
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, zero) + c
        if self.cutoff != other.cutoff:
            return MiwaPolynomial(self.ctx, self.K, cutoff, out)
        return self._result(out)

    def __sub__(self, other):
        if not isinstance(other, MiwaPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._result({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        return self._result({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MiwaPolynomial):
            return self.scale(other)
        cutoff = self._compat(other)
        # right operand by weight, so each left term stops at the room it leaves
        right = sorted(((weighted_degree(k), k, c) for k, c in other.terms.items()),
                       key=itemgetter(0))
        zero = self.ctx.zero()
        out = {}
        for k1, c1 in self.terms.items():
            room = cutoff - weighted_degree(k1)
            for w2, k2, c2 in right:
                if w2 > room:
                    break
                key = tuple(map(add, k1, k2))
                out[key] = out.get(key, zero) + c1 * c2
        return self._result(out, cutoff)

    __rmul__ = __mul__

    def deriv(self, m):
        """Partial derivative with respect to t_m, known through cutoff - m."""
        if not 1 <= m <= self.K:
            raise ValueError("t_%d is outside K=%d" % (m, self.K))
        out = {}
        for key, c in self.terms.items():
            k = key[m - 1]
            if k:
                new = list(key)
                new[m - 1] = k - 1
                out[tuple(new)] = c * k
        return self._result(out, self.cutoff - m)

    def evaluate(self, times):
        if len(times) < self.K:
            raise ValueError("need %d time values" % self.K)
        acc = self.ctx.zero()
        for key, c in self.terms.items():
            term = c
            for m, k in enumerate(key):
                if k:
                    term = term * times[m] ** k
            acc = acc + term
        return acc

    def restrict(self, maxweight):
        """The polynomial known only through weighted degree maxweight."""
        if maxweight > self.cutoff:
            raise ValueError("cannot extend a Miwa polynomial by restricting")
        return MiwaPolynomial(self.ctx, self.K, maxweight, self.terms)

    def max_abs(self):
        """Largest coefficient magnitude, for float-mode verdicts."""
        if not self.terms:
            return 0.0
        return max(self.ctx.magnitude(c) for c in self.terms.values())

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, MiwaPolynomial)
            and self.K == other.K
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __repr__(self):
        bits = []
        for key in sorted(self.terms, key=lambda k: (weighted_degree(k), k)):
            mono = "*".join(
                "t%d%s" % (m + 1, "" if e == 1 else "^%d" % e) for m, e in enumerate(key) if e
            )
            bits.append("%s %s" % (self.ctx.to_string(self.terms[key]), mono or "1"))
        return "MiwaPolynomial(%s; cutoff=%d)" % (" + ".join(bits) or "0", self.cutoff)
