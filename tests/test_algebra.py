"""Field contexts, exact linear algebra, Laurent series, and Miwa polynomials.

Determinant and series values are pinned against hand-computed examples and
cross-checked against the Leibniz sum (in all three field modes) and, for
Miwa inverses, the geometric series; sympy serves as an independent oracle
for the quadratic field arithmetic.
"""

import doctest
import importlib
import itertools
import math
import operator
import pkgutil
from fractions import Fraction as F

import pytest

import tltau
from tltau.algebra import (
    FieldContext,
    LaurentSeries,
    MiwaPolynomial,
    QuadraticNumber,
    Rational,
    det,
    det_ring,
    miwa_series_invert,
    solve_linear,
    squarefree_kernel,
    vandermonde,
    weighted_degree,
)

RAT = FieldContext("rational")


def brute_det(rows, ctx=RAT):
    """Leibniz sum over permutations."""
    n = len(rows)
    total = ctx.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ctx.one()
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term if sign == 1 else -term
    return total


def geometric_inverse(poly):
    """Inverse of a Miwa polynomial as the geometric series
    (1/c0) * sum_{k <= cutoff} (1 - poly/c0)**k, exact through the cutoff."""
    c0 = poly.terms[(0,) * poly.K]
    one = MiwaPolynomial.constant(poly.ctx, poly.K, poly.cutoff, 1)
    body = one - poly.scale(1 / c0)
    acc = power = one
    for _ in range(poly.cutoff):
        power = power * body
        acc = acc + power
    return acc.scale(1 / c0)


class TwoFractions:
    """Reference arithmetic on a + b*sqrt(d) held as two Fractions (a, b),
    the representation `QuadraticNumber` had before its integer numerators
    over one common denominator."""

    @staticmethod
    def add(x, y, d):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y, d):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def mul(x, y, d):
        return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])

    @staticmethod
    def inverse(x, d):
        n = x[0] * x[0] - x[1] * x[1] * d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return (x[0] / n, -x[1] / n)

    @staticmethod
    def truediv(x, y, d):
        return TwoFractions.mul(x, TwoFractions.inverse(y, d), d)

    @staticmethod
    def power(x, k, d):
        out = (F(1), F(0))
        for _ in range(abs(k)):
            out = TwoFractions.mul(out, x, d)
        return TwoFractions.inverse(out, d) if k < 0 else out

    @staticmethod
    def neg(x):
        return (-x[0], -x[1])

    @staticmethod
    def conjugate(x):
        return (x[0], -x[1])

    @staticmethod
    def hash(x, d):
        # the integer parts (n, m, c) over the parts' least common denominator
        c = math.lcm(x[0].denominator, x[1].denominator)
        return hash((x[0].numerator * c // x[0].denominator,
                     x[1].numerator * c // x[1].denominator, c, d)) if x[1] else hash(x[0])

    @staticmethod
    def str(x, d):
        def part(fr):
            return str(fr.numerator) if fr.denominator == 1 else "%d/%d" % (
                fr.numerator, fr.denominator)
        return "(%s,%s|%s)" % (part(x[0]), part(x[1]), d)

    @staticmethod
    def float(x, d):
        # a rational element has a float value in every field, imaginary ones too
        if not x[1]:
            return float(x[0])
        return float(x[0]) + float(x[1]) * math.sqrt(d)

    @staticmethod
    def magnitude(x, d):
        a, b = x
        root = math.sqrt(abs(d))
        if d < 0:
            return math.hypot(float(a), float(b) * root)
        if a * b < 0:
            return abs(float(a * a - b * b * d)) / abs(float(a) - float(b) * root)
        return abs(float(a) + float(b) * root)


def same_as_reference(got, want, d):
    """`got` is in normal form and reads everywhere as the reference parts."""
    assert type(got) is QuadraticNumber
    assert all(type(v) is int for v in (got.n, got.m, got.c, got.d))
    assert got.c > 0 and math.gcd(got.n, got.m, got.c) == 1
    assert (got.a, got.b, got.d) == (want[0], want[1], d)
    assert type(got.a) is F and type(got.b) is F
    assert got == QuadraticNumber(want[0], want[1], d)
    assert hash(got) == TwoFractions.hash(want, d)
    assert str(got) == TwoFractions.str(want, d)
    assert repr(got) == "QuadraticNumber(%r, %r, %r)" % (want[0], want[1], d)
    assert bool(got) == (want != (0, 0))
    if not want[1]:
        assert got == want[0] and want[0] == got and hash(got) == hash(want[0])
    try:
        ref = TwoFractions.float(want, d)
    except ValueError:
        with pytest.raises(ValueError):
            float(got)
    else:
        assert float(got) == ref


class TestDeterminants:
    def test_cauchy_2x2_pinned(self):
        # det [1/(x_i + y_j)] for x=(2,1), y=(1,3): hand value 1/12 - 1/10
        rows = [[F(1, 2 + 1), F(1, 2 + 3)], [F(1, 1 + 1), F(1, 1 + 3)]]
        assert det(rows, RAT) == F(-1, 60)
        assert brute_det(rows) == F(-1, 60)

    def test_matches_cofactor_expansion(self):
        import random

        for mode in ("rational", "quadratic", "float"):
            ctx = FieldContext(mode, d=377 if mode == "quadratic" else None)
            sqrt_d = QuadraticNumber(0, 1, 377)

            def draw():
                x = ctx.embed(F(rng.randint(-9, 9), rng.randint(1, 5)))
                if mode == "quadratic":
                    x = x + F(rng.randint(-3, 3), rng.randint(1, 4)) * sqrt_d
                return x

            def agree(rows):
                got, want = det(rows, ctx), brute_det(rows, ctx)
                if mode == "float":
                    return ctx.residual_ok(got - want, want)
                return got == want

            rng = random.Random(11)
            for n in (1, 2, 3, 4):
                for _ in range(6):
                    rows = [[draw() for _ in range(n)] for _ in range(n)]
                    assert agree(rows)
                    # a zero in the top-left corner, where elimination must swap rows
                    rows[0][0] = ctx.zero()
                    assert agree(rows)
                    # a repeated row: singular, exactly zero in the exact modes
                    rows[-1] = list(rows[0])
                    assert agree(rows)
                    if n > 1 and mode != "float":
                        assert det(rows, ctx) == 0

    def test_empty_matrix(self):
        assert det([], RAT) == F(1)

    def test_singular(self):
        rows = [[F(1), F(2)], [F(2), F(4)]]
        assert det(rows, RAT) == 0

    def test_det_ring_agrees_on_scalars(self):
        rows = [[F(2), F(3), F(5)], [F(7), F(11), F(13)], [F(17), F(19), F(23)]]
        assert det_ring(rows, F(0)) == det(rows, RAT) == brute_det(rows)

    def test_float_mode(self):
        ctx = FieldContext("float")
        rows = [[ctx.embed(F(1, 4)), ctx.embed(F(1, 6))],
                [ctx.embed(F(1, 5)), ctx.embed(F(1, 7))]]
        want = F(1, 4) * F(1, 7) - F(1, 6) * F(1, 5)
        assert ctx.residual_ok(det(rows, ctx) - ctx.embed(want), 1)

    def test_vandermonde(self):
        assert vandermonde([F(3), F(1)], RAT) == F(2)
        pts = [F(2), F(5), F(7)]
        want = (2 - 5) * (2 - 7) * (5 - 7)
        assert vandermonde(pts, RAT) == want


class TestSolveLinear:
    def test_exact_solution(self):
        rows = [[F(2), F(1)], [F(1), F(3)]]
        rhs = [F(5), F(10)]
        x = solve_linear(rows, rhs, RAT)
        assert [rows[i][0] * x[0] + rows[i][1] * x[1] for i in range(2)] == rhs

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)], RAT)

    def test_needs_row_swap(self):
        rows = [[F(0), F(1)], [F(1), F(0)]]
        assert solve_linear(rows, [F(3), F(4)], RAT) == [F(4), F(3)]


class TestQuadraticNumber:
    def test_arithmetic_vs_sympy(self):
        import sympy

        r = sympy.sqrt(377)
        x = QuadraticNumber(F(1, 2), F(3, 4), 377)
        y = QuadraticNumber(F(-2, 3), F(1, 5), 377)
        xs = sympy.Rational(1, 2) + sympy.Rational(3, 4) * r
        ys = sympy.Rational(-2, 3) + sympy.Rational(1, 5) * r
        for ours, theirs in (
            (x + y, xs + ys),
            (x - y, xs - ys),
            (x * y, sympy.expand(xs * ys)),
            (x / y, xs / ys),
            (x ** 3, sympy.expand(xs ** 3)),
            (x ** -2, 1 / sympy.expand(xs ** 2)),
        ):
            diff = sympy.simplify(
                sympy.Rational(ours.a.numerator, ours.a.denominator)
                + sympy.Rational(ours.b.numerator, ours.b.denominator) * r
                - theirs
            )
            assert diff == 0

    def test_inverse_and_conjugate(self):
        x = QuadraticNumber(F(2), F(3), 5)
        assert x * x.inverse() == QuadraticNumber(1, 0, 5)
        assert x * x.conjugate() == QuadraticNumber(F(4) - F(9) * 5, 0, 5)

    def test_results_are_like_publicly_built_values(self):
        x = QuadraticNumber(F(1, 2), F(3, 4), 377)
        y = QuadraticNumber(F(-2, 3), F(1, 5), 377)
        for got, a, b in (
            (x + y, F(-1, 6), F(19, 20)),
            (x - y, F(7, 6), F(11, 20)),
            (x * y, F(3373, 60), F(-2, 5)),
            (-x, F(-1, 2), F(-3, 4)),
            (x.inverse(), F(-8, 3389), F(12, 3389)),
            (x - 1, F(-1, 2), F(3, 4)),
            (2 * x, F(1), F(3, 2)),
        ):
            assert type(got.a) is F and type(got.b) is F and type(got.d) is int
            want = QuadraticNumber(a, b, 377)
            assert got == want and hash(got) == hash(want)

    def test_zero_power(self):
        assert QuadraticNumber(F(7), F(2), 13) ** 0 == QuadraticNumber(1, 0, 13)

    def test_hash_agrees_with_equality(self):
        # a rational-valued element equals that Fraction, so it must hash alike
        x = QuadraticNumber(2, 0, 5)
        assert x == F(2)
        assert hash(x) == hash(F(2)) == hash(2)
        assert len({x, F(2)}) == 1
        assert len({QuadraticNumber(2, 1, 5), F(2)}) == 2

    def test_matches_the_two_fraction_formulas(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        small = st.fractions(min_value=-6, max_value=6, max_denominator=9)
        # an operand is an int, a Fraction, or the parts (a, b) of a quadratic
        operand = st.one_of(st.integers(-7, 7), small, st.tuples(small, small))

        @settings(max_examples=150, deadline=None)
        @given(st.sampled_from([377, 5, -3]), st.tuples(small, small), operand,
               st.integers(-4, 4))
        def inner(d, xref, y, k):
            x = QuadraticNumber(*xref, d)
            if isinstance(y, tuple):
                y, yref = QuadraticNumber(*y, d), y
            else:
                yref = (F(y), F(0))

            def agrees(got, want):
                # both raise ZeroDivisionError, or both give the same element
                try:
                    expected = want()
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        got()
                else:
                    same_as_reference(got(), expected, d)

            agrees(lambda: x, lambda: xref)
            for op in ("add", "sub", "mul", "truediv"):
                for left, right, lref, rref in ((x, y, xref, yref), (y, x, yref, xref)):
                    agrees(lambda: getattr(operator, op)(left, right),
                           lambda: getattr(TwoFractions, op)(lref, rref, d))
            agrees(lambda: -x, lambda: TwoFractions.neg(xref))
            agrees(x.conjugate, lambda: TwoFractions.conjugate(xref))
            agrees(x.inverse, lambda: TwoFractions.inverse(xref, d))
            agrees(lambda: x ** k, lambda: TwoFractions.power(xref, k, d))
            assert (x == y) == (xref == yref) == (y == x)

        inner()

    def test_float_of_a_rational_element_of_an_imaginary_field(self):
        assert float(QuadraticNumber(2, 0, -3)) == 2.0
        assert float(QuadraticNumber(F(-1, 3), 0, -1)) == -1 / 3
        assert float(FieldContext("quadratic", d=-3).zero()) == 0.0
        with pytest.raises(ValueError):
            float(QuadraticNumber(2, 1, -3))

    def test_division_goes_through_the_counted_methods(self, monkeypatch):
        # 1 / x is the bare inverse, r / x that inverse times r, and x / r
        # one product by 1/r with no inverse
        x, r = QuadraticNumber(F(1, 2), F(3, 4), 377), F(-2, 3)
        want = {"1/x": x.inverse(), "r/x": x.inverse() * r, "x/r": x * F(-3, 2)}
        calls = []

        def counted(name):
            method = vars(QuadraticNumber)[name]

            def wrapper(*args):
                calls.append(name)
                return method(*args)
            return wrapper

        for name in ("__mul__", "__rmul__", "inverse"):
            monkeypatch.setattr(QuadraticNumber, name, counted(name))
        for key, divide, made in (("1/x", lambda: 1 / x, ["inverse"]),
                                  ("r/x", lambda: r / x, ["inverse", "__mul__"]),
                                  ("x/r", lambda: x / r, ["__mul__"])):
            del calls[:]
            assert divide() == want[key] and calls == made, key

    def test_an_element_of_another_field_is_refused(self):
        x, y = QuadraticNumber(1, 1, 5), QuadraticNumber(1, 1, 377)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            for left, right in ((x, y), (y, x)):
                with pytest.raises(ValueError, match="mixed quadratic fields"):
                    op(left, right)

    def test_squarefree_kernel(self):
        assert squarefree_kernel(12) == (2, 3)
        assert squarefree_kernel(377) == (1, 377)
        assert squarefree_kernel(49) == (7, 1)


def same_as_fraction(got, want):
    """Both raise ZeroDivisionError, or `got` is a Rational in lowest terms
    that equals, hashes and prints as the Fraction `want()`."""
    try:
        expected = want()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
        return
    value = got()
    assert type(value) is Rational and type(expected) is F
    assert value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1
    assert value == expected and expected == value and hash(value) == hash(expected)
    assert RAT.to_string(value) == RAT.to_string(expected) == str(expected)


class TestRational:
    """The rational-mode carrier against fractions.Fraction."""

    def test_matches_fraction_for_every_operator_and_operand(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        small = st.fractions(min_value=-50, max_value=50, max_denominator=60)
        # the other operand is a Rational, an int or a plain Fraction
        operand = st.one_of(small.map(Rational), st.integers(-50, 50), small)

        @settings(max_examples=300, deadline=None)
        @given(small, operand, st.integers(-6, 6))
        def inner(xref, y, k):
            x, yref = Rational(xref), F(y)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                same_as_fraction(lambda: op(x, y), lambda: op(xref, yref))
                same_as_fraction(lambda: op(y, x), lambda: op(yref, xref))
            same_as_fraction(lambda: -x, lambda: -xref)
            same_as_fraction(lambda: x**k, lambda: xref**k)

        inner()

    def test_division_by_zero_raises(self):
        zero = Rational(0)
        for thunk in (lambda: Rational(1, 2) / 0, lambda: Rational(1, 2) / F(0),
                      lambda: 3 / zero, lambda: F(1, 3) / zero, lambda: zero / zero,
                      lambda: zero**-1, lambda: zero**-3):
            with pytest.raises(ZeroDivisionError):
                thunk()

    def test_other_operands_go_to_fraction(self):
        half = Rational(1, 2)
        assert half + 0.25 == 0.25 + half == 0.75
        assert half ** F(2) == F(1, 4) and half ** 0.5 == 0.5**0.5
        got = half + QuadraticNumber(0, 1, 5)
        assert got == QuadraticNumber(F(1, 2), 1, 5) and type(got) is QuadraticNumber

    def test_rational_mode_embeds_into_the_carrier(self):
        for x in (3, F(-6, 4), Rational(5, 7), True):
            got = RAT.embed(x)
            assert type(got) is Rational and got == x
        assert type(RAT.from_string("-3/12")) is Rational
        for ctx in (FieldContext("quadratic", d=5), FieldContext("float")):
            assert type(ctx.embed(Rational(3, 4))) is type(ctx.embed(F(3, 4)))

    def test_fraction_internals_the_carrier_relies_on(self):
        # Rational writes Fraction's two slots directly and overrides its
        # operators; a Python whose Fraction differs fails here, not quietly
        # on Fraction's slower paths
        assert F.__slots__ == ("_numerator", "_denominator")
        assert Rational.__slots__ == ()
        x = Rational(3, 4)
        assert not hasattr(x, "__dict__")
        assert (x._numerator, x._denominator) == (x.numerator, x.denominator) == (3, 4)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
            assert vars(Rational)[name] is not vars(F)[name]
        # a subclass's reflected method runs before Fraction's own
        assert type(F(1, 2) + x) is type(F(1, 2) * x) is type(2 - x) is Rational


class TestFieldContext:
    def test_scalar_roundtrip_rational(self):
        for s in ("3/4", "-7", "0"):
            assert RAT.to_string(RAT.from_string(s)) == s

    def test_scalar_roundtrip_quadratic(self):
        ctx = FieldContext("quadratic", d=377)
        x = ctx.from_string("(1/2,-3/4|377)")
        assert ctx.to_string(x) == "(1/2,-3/4|377)"

    def test_quadratic_literal_rejected_in_rational_mode(self):
        with pytest.raises(ValueError):
            RAT.from_string("(1,2|5)")

    def test_float_parse(self):
        ctx = FieldContext("float")
        x = ctx.from_string("0.25")
        assert ctx.residual_ok(x - ctx.embed(F(1, 4)), 1)

    def test_float_scalars_belong_to_the_context(self):
        # every float scalar is made by ctx.mp at the context's precision,
        # one mpmath context per precision; an mpf or mpc of another mpmath
        # context enters exactly
        import mpmath

        ctx = FieldContext("float", prec=192)
        assert FieldContext("float", prec=192).mp is ctx.mp and ctx.mp.prec == 192
        assert {type(ctx.tol), type(ctx.embed(2)), type(ctx.embed(F(1, 3))),
                type(ctx.from_string("0.25"))} == {ctx.mp.mpf}
        wide = mpmath.MPContext()
        wide.prec = 300
        third = wide.mpf(1) / 3
        for x in (third, wide.mpc(third, -third)):
            y = ctx.embed(x)
            assert type(y) in (ctx.mp.mpf, ctx.mp.mpc)
            assert (y.real._mpf_, y.imag._mpf_) == (x.real._mpf_, x.imag._mpf_)
            assert ctx.to_string(x) == ctx.to_string(y)
        assert ctx.residual_ok(ctx.embed(F(1, 3)) - third, third)
        assert not ctx.residual_ok(ctx.embed(F(1, 3)) - (third + 2 * ctx.tol), third)

    def test_residual_ok_exact_mode_requires_zero(self):
        assert RAT.residual_ok(F(0), 100)
        assert not RAT.residual_ok(F(1, 10**40), 100)

    def test_squarefree_discriminant_required(self):
        with pytest.raises(ValueError):
            FieldContext("quadratic", d=12)
        for d in (0, 1):
            with pytest.raises(ValueError, match="d=%d is a perfect square" % d):
                FieldContext("quadratic", d=d)

    def test_magnitude_of_a_cancelling_quadratic(self):
        # (3 - 2 sqrt 2)^25 ~ 7e-20: a and b have opposite signs and agree to
        # about 38 digits, so a double-precision a + b sqrt(d) reads noise
        ctx = FieldContext("quadratic", d=2)
        small = QuadraticNumber(3, -2, 2) ** 25
        want = 1 / ctx.magnitude(small.conjugate())
        assert ctx.magnitude(small) == pytest.approx(want, rel=1e-12)
        assert ctx.magnitude(-small) == pytest.approx(want, rel=1e-12)

    def test_magnitude_of_quadratic_parts_beyond_float_range(self):
        inf = float("inf")
        real, imaginary = FieldContext("quadratic", d=377), FieldContext("quadratic", d=-3)
        assert real.magnitude(QuadraticNumber(10**400, 1, 377)) == inf
        assert real.magnitude(QuadraticNumber(10**400, -1, 377)) == inf
        assert imaginary.magnitude(QuadraticNumber(10**400, 1, -3)) == inf
        # about 1.8e-399, below the smallest float
        assert real.magnitude(QuadraticNumber(F(1, 10**400), F(-1, 10**400), 377)) == 0.0
        # parts near 1e682 that cancel to about 1e-83, a value well inside the range
        ctx = FieldContext("quadratic", d=2)
        x = QuadraticNumber(3, -2, 2) ** 500 * 10**300
        import mpmath

        with mpmath.workdps(30):
            want = float((3 - 2 * mpmath.sqrt(2)) ** 500 * 10**300)
        assert ctx.magnitude(x) == pytest.approx(want, rel=1e-14)
        assert ctx.magnitude(-x) == ctx.magnitude(x)

    def test_magnitude_inside_float_range_is_the_two_fraction_formula(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        small = st.fractions(min_value=-50, max_value=50, max_denominator=60)

        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from([377, 5, 2, -3]), small, small, st.integers(1, 20))
        def inner(d, a, b, k):
            x = QuadraticNumber(a, b, d) ** k
            want = TwoFractions.magnitude((x.a, x.b), d)
            assert FieldContext("quadratic", d=d).magnitude(x) == want

        inner()

    def test_magnitude_of_a_fraction_with_huge_terms(self):
        assert RAT.magnitude(F(10**301 + 1, 10**301)) == pytest.approx(1.0)
        assert RAT.magnitude(F(-(10**400), 3)) == float("inf")


class TestLaurentSeries:
    def test_geometric_inverse(self):
        # 1/(1 - z) = 1 + z + z^2 + ... pinned through z^5
        s = LaurentSeries(RAT, {0: F(1), 1: F(-1)}, 5)
        inv = s.invert()
        for k in range(6):
            assert inv.coeff(k) == F(1)

    def test_product_coefficient(self):
        # (1 - a z^2)(1 - b z^2): z^2 coefficient is -(a + b)
        a, b = F(3, 7), F(5, 2)
        s1 = LaurentSeries(RAT, {0: F(1), 2: -a}, 6)
        s2 = LaurentSeries(RAT, {0: F(1), 2: -b}, 6)
        prod = s1 * s2
        assert prod.coeff(2) == -(a + b)
        assert prod.coeff(4) == a * b

    def test_mul_truncation_rule(self):
        s1 = LaurentSeries(RAT, {-1: F(1)}, 3)
        s2 = LaurentSeries(RAT, {2: F(1)}, 5)
        assert (s1 * s2).trunc == min(3 + 2, 5 - 1)

    def test_invert_truncation_rule(self):
        s = LaurentSeries(RAT, {-2: F(1), 0: F(4)}, 4)
        inv = s.invert()
        assert inv.trunc == 4 - 2 * (-2)
        assert (s * inv).coeff(0) == F(1)
        # 1/(2/z - 2) = (z/2)(1 + z + z^2 + ...), known through z^(3 + 2)
        s = LaurentSeries(RAT, {-1: F(2), 0: F(-2)}, 3)
        inv = s.invert()
        assert inv == LaurentSeries(RAT, {e: F(1, 2) for e in range(1, 6)}, 5)
        assert s * inv == LaurentSeries(RAT, {0: F(1)}, 4)

    def test_shift_and_min_exp(self):
        s = LaurentSeries(RAT, {1: F(2)}, 4)
        assert s.shift(-3).min_exp() == -2
        assert s.shift(-3).trunc == 1

    def test_coeff_beyond_truncation_raises(self):
        s = LaurentSeries(RAT, {0: F(1)}, 2)
        with pytest.raises(ValueError):
            s.coeff(3)

    def test_evenness(self):
        assert LaurentSeries(RAT, {-2: F(1), 4: F(2)}, 5).is_even()
        assert not LaurentSeries(RAT, {1: F(1)}, 5).is_even()

    def test_power(self):
        s = LaurentSeries(RAT, {0: F(1), 1: F(1)}, 4)
        cube = s ** 3
        assert [cube.coeff(k) for k in range(4)] == [F(1), F(3), F(3), F(1)]

    def test_scalar_arithmetic(self):
        z = LaurentSeries(RAT, {1: F(1)}, 4)
        s = (z * 2 - 1) / 3 + F(1, 3)
        assert s == LaurentSeries(RAT, {1: F(2, 3)}, 4)
        assert 1 - z == -(z - 1)
        # 1/(1 - z) = 1 + z + z^2 + ... through the truncation order
        inv = 1 / (1 - z)
        assert inv.trunc == 4
        assert all(inv.coeff(k) == 1 for k in range(5))
        assert (z / (1 - z)).coeff(4) == 1


class TestMiwaPolynomial:
    def test_weighted_degree(self):
        assert weighted_degree((2, 0, 1)) == 2 * 1 + 1 * 3

    def test_product_respects_cutoff(self):
        t2 = MiwaPolynomial.time_var(RAT, 3, 3, 2)
        prod = t2 * t2
        assert prod.is_zero()

    def test_derivative(self):
        t1 = MiwaPolynomial.time_var(RAT, 3, 4, 1)
        sq = t1 * t1
        assert sq.deriv(1) == t1.scale(F(2)).restrict(3)

    def test_series_inverse(self):
        from tltau.chain import ChainParams, ParameterVector
        from tltau.schur import tau_schur_poly

        t1 = MiwaPolynomial.time_var(RAT, 4, 4, 1)
        polys = [MiwaPolynomial.constant(RAT, 4, 4, 1) + t1.scale(F(2))]
        # family-2 normalized tau sums, with terms in every weight up to the cutoff
        for mode, spin_twice, Q in (("rational", 1, F(-2)), ("quadratic", 2, F(2))):
            p = ChainParams.from_boundary(2, 2, spin_twice, Q, mode=mode)
            u = ParameterVector([p.ctx.embed(F(3)), p.ctx.embed(F(-5, 7))], "bethe")
            polys.append(tau_schur_poly(p, u, 2, 8))
            assert len({weighted_degree(k) for k in polys[-1].terms}) == 9
        for poly in polys:
            inv = miwa_series_invert(poly)
            assert poly * inv == MiwaPolynomial.constant(poly.ctx, poly.K, poly.cutoff, 1)
            assert inv == geometric_inverse(poly)

    def test_series_inverse_needs_constant_term(self):
        t1 = MiwaPolynomial.time_var(RAT, 2, 2, 1)
        with pytest.raises(ZeroDivisionError):
            miwa_series_invert(t1)

    def test_restrict(self):
        t1 = MiwaPolynomial.time_var(RAT, 2, 4, 1)
        t2 = MiwaPolynomial.time_var(RAT, 2, 4, 2)
        poly = t1 + t2 + t2 * t2
        assert poly.restrict(2) == (t1 + t2).restrict(2)

    def test_restrict_never_raises_the_cutoff(self):
        t1 = MiwaPolynomial.time_var(RAT, 2, 4, 1)
        assert t1.restrict(4) == t1
        with pytest.raises(ValueError):
            t1.restrict(5)

    def test_derivative_lowers_the_cutoff_by_the_weight(self):
        t1 = MiwaPolynomial.time_var(RAT, 3, 6, 1)
        t3 = MiwaPolynomial.time_var(RAT, 3, 6, 3)
        poly = t1 * t1 * t3
        d3 = poly.deriv(3)
        assert d3.cutoff == 3
        assert d3.terms == {(2, 0, 0): F(1)}
        assert poly.deriv(1).cutoff == 5
        # the derivative of a monomial at the cutoff stays known
        assert poly.deriv(1).terms == {(1, 0, 1): F(2)}

    def test_mixed_cutoffs_take_the_smaller(self):
        lo = MiwaPolynomial.time_var(RAT, 2, 3, 1)
        hi = MiwaPolynomial.time_var(RAT, 2, 6, 1) + MiwaPolynomial.time_var(RAT, 2, 6, 2)
        for got in (lo + hi, hi + lo, hi - lo):
            assert got.cutoff == 3
        prod = hi * lo
        assert prod == lo * hi
        assert prod.cutoff == 3
        # t2 * t1 has weight 3 and survives, t2 * t2 of weight 4 would not
        assert prod.terms == {(2, 0): F(1), (1, 1): F(1)}

    def test_mixed_K_is_refused(self):
        f = MiwaPolynomial.time_var(RAT, 2, 4, 1)
        g = MiwaPolynomial.time_var(RAT, 3, 4, 1)
        for op in (lambda: f + g, lambda: f * g):
            with pytest.raises(ValueError):
                op()


class TestPropertyStyle:
    def test_series_invert_roundtrip_random(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            coeffs = {0: F(rng.randint(1, 9))}
            for e in range(1, 5):
                if rng.random() < 0.6:
                    coeffs[e] = F(rng.randint(-9, 9), rng.randint(1, 9))
            s = LaurentSeries(RAT, coeffs, 6)
            prod = s * s.invert()
            assert prod.coeff(0) == F(1)
            assert all(prod.coeff(k) == 0 for k in range(1, prod.trunc + 1))

    def test_det_multiplicativity_random(self):
        import random

        rng = random.Random(9)
        for _ in range(10):
            a = [[F(rng.randint(-6, 6)) for _ in range(3)] for _ in range(3)]
            b = [[F(rng.randint(-6, 6)) for _ in range(3)] for _ in range(3)]
            ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
                  for i in range(3)]
            assert det(ab, RAT) == det(a, RAT) * det(b, RAT)

    def test_hypothesis_quadratic_field_axioms(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        small = st.fractions(min_value=-5, max_value=5, max_denominator=7)

        @settings(max_examples=60, deadline=None)
        @given(small, small, small, small)
        def inner(a1, b1, a2, b2):
            x = QuadraticNumber(a1, b1, 5)
            y = QuadraticNumber(a2, b2, 5)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) * x == x * x + y * x
            if y != QuadraticNumber(0, 0, 5):
                assert (x / y) * y == x

        inner()


# every module's doctests run; these two must keep at least this many
DOCTEST_FLOORS = {"algebra": 5, "schur": 3}


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(tltau.__path__)))
def test_doctests(name):
    result = doctest.testmod(importlib.import_module("tltau." + name), verbose=False)
    assert result.failed == 0
    assert result.attempted >= DOCTEST_FLOORS.get(name, 0)
