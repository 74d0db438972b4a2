"""Eigenvalue, generating families, prefactor, and their Laurent data.

The main oracle is an independent sympy expression tree for Lambda, its
u-derivatives, the second family, and the prefactor, in the v-form of the
paper.  The engine codes Lambda once, in y = v^2, and reads pointwise values,
Taylor tables and pole residues off that one formula; the sympy tree is the
reference for each of those routes: exact values at rational points, exact
Taylor coefficients about v = 0, and exact residues.  Series data is also
cross-checked against exact rational finite differences and against direct
evaluation inside the convergence radius.
"""

import functools
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
import sympy

from tltau import chain
from tltau.algebra import FieldContext, LaurentSeries, QuadraticNumber, det, field_product
from tltau.chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    boundary_sum,
    f2_eval,
    f_series,
    family_matrix,
    family_matrix_y,
    g_prefactor,
    kernel,
    kernel_y,
    lambda_du,
    lambda_du_y,
    lambda_eval,
    pole_brackets,
    pole_radius_y,
    slavnov,
    taylor_rows,
    validate_uv,
    w_eval,
)
from tltau.schur import fhat_table
from reference import lambda_residue, lambda_series

RAT = FieldContext("rational")
POINTWISE = {1: lambda_du, 2: f2_eval}  # F^(family)_i(v) as (p, i, v, u) -> value


def params(N, M, q=F(2), Q=F(-2)):
    return ChainParams(N, M, 1, q, Q, RAT)


def roots(*vals):
    return ParameterVector([F(x) if not isinstance(x, F) else x for x in vals], "bethe")


# -- sympy oracle --------------------------------------------------------------


def _sw(x):
    return x - 1 / x


def sym_lambda(N, q, v, us):
    a = sympy.Integer(1)
    b = sympy.Integer(1)
    for u in us:
        den = _sw(v / u) * _sw(q * v * u)
        a *= _sw(v / (q * u)) * _sw(v * u) / den
        b *= _sw(q * v / u) * _sw(q * q * v * u) / den
    total = _sw(v ** 2 * q ** 2) * _sw(v * q) ** (2 * N) * a + _sw(v ** 2) * _sw(v) ** (2 * N) * b
    return -total / _sw(v ** 2 * q)


def sym_g(N, M, spin_twice, q, Q, us, vs):
    g = sympy.Rational(1, 2) ** M * Q ** (-M * spin_twice)
    for j in range(M):
        u, v = us[j], vs[j]
        g *= u * _sw(u) ** (2 * N) * _sw(u * u) / (_sw(u * u) * _sw(q * q * v * v))
    for i in range(M):
        for j in range(i):
            g *= _sw(q * q * us[i] * us[j]) / _sw(us[i] * us[j])
    return g


def _to_sympy(x):
    return sympy.Rational(x.numerator, x.denominator)


def _du_mismatches():
    """Rows i where lambda_du at N = M = 2, u = (2, 3), v = 5/2 differs from
    sympy's derivative of the tree."""
    vq, vv = sympy.symbols("q v")
    vu = sympy.symbols("u0:2")
    expr = sym_lambda(2, vq, vv, vu)
    subs = {vq: 2, vv: sympy.Rational(5, 2), vu[0]: 2, vu[1]: 3}
    p = params(2, 2)
    got = [_to_sympy(lambda_du(p, i, F(5, 2), roots(2, 3))) for i in range(2)]
    return [i for i in range(2) if got[i] != sympy.diff(expr, vu[i]).subs(subs)]


SERIES_ORDER = 10


@functools.lru_cache(maxsize=None)
def sym_laurent(N, uvals):
    """sympy's Laurent coefficients about v = 0, through v**SERIES_ORDER, of
    Lambda (key (0, None)) and of row i of family f (key (f, i)) at q = 2."""
    v = sympy.Symbol("v")
    vu = sympy.symbols("u0:%d" % len(uvals))
    subs = {vu[k]: _to_sympy(x) for k, x in enumerate(uvals)}
    lam = sym_lambda(N, sympy.Integer(2), v, vu)

    def coeffs(expr):
        # cancel first: sympy's series of the raw tree takes minutes
        s = sympy.series(sympy.cancel(expr.subs(subs)), v, 0, SERIES_ORDER + 1).removeO()
        return {e: s.coeff(v, e) for e in range(-2 * N, SERIES_ORDER + 1)}

    out = {(0, None): coeffs(lam)}
    for i in range(len(uvals)):
        out[(1, i)] = coeffs(sympy.diff(lam, vu[i]))
        out[(2, i)] = coeffs(1 / (_sw(v / vu[i]) * _sw(2 * v * vu[i])))
    return out


def _series_mismatches(N, uvals):
    """Routes whose Taylor data differs from sympy's: lambda_series, and
    f_series and fhat_table for every row of both families."""
    p = params(N, len(uvals))
    u = roots(*uvals)
    want = sym_laurent(N, tuple(uvals))
    bad = []
    got = lambda_series(p, u, SERIES_ORDER)
    if any(_to_sympy(got.coeff(e)) != c for e, c in want[(0, None)].items()):
        bad.append("lambda_series")
    for fam in (1, 2):
        start = 2 - 2 * N if fam == 1 else 2
        nmax = (SERIES_ORDER - start) // 2
        table = fhat_table(p, u, fam, nmax)
        for i in range(len(uvals)):
            ref = want[(fam, i)]
            s = f_series(p, u, fam, i, SERIES_ORDER)
            if any(_to_sympy(s.coeff(e)) != c for e, c in ref.items()):
                bad.append("f_series %d/%d" % (fam, i))
            if any(_to_sympy(table[i][n]) != ref[2 * n + start] for n in range(nmax + 1)):
                bad.append("fhat_table %d/%d" % (fam, i))
    return bad


def sym_residue(j):
    """lim (v - u_j) Lambda(v) at N = M = 2, q = 2, u = (2, 3): the pole is
    simple, so cancelling (v - u_j) and substituting is the limit."""
    v = sympy.Symbol("v")
    us = (sympy.Integer(2), sympy.Integer(3))
    return sympy.cancel((v - us[j]) * sym_lambda(2, sympy.Integer(2), v, us)).subs(v, us[j])


class TestEigenvalueOracle:
    def test_lambda_matches_sympy(self):
        rng = random.Random(3)
        vq, vv = sympy.symbols("q v")
        vu = sympy.symbols("u0:3")
        for N, M in ((1, 1), (2, 2), (3, 3)):
            expr = sym_lambda(N, vq, vv, vu[:M])
            p = params(N, M)
            for _ in range(3):
                uvals = [F(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(M)]
                while len(set(uvals)) != M:
                    uvals = [F(rng.randint(2, 9), rng.randint(1, 3)) for _ in range(M)]
                v = F(rng.randint(10, 20), 7)
                subs = {vq: 2, vv: _to_sympy(v)}
                subs.update({vu[i]: _to_sympy(uvals[i]) for i in range(M)})
                want = expr.subs(subs)
                got = lambda_eval(p, v, roots(*uvals))
                assert _to_sympy(got) == want

    def test_lambda_du_matches_sympy_derivative(self):
        assert _du_mismatches() == []

    @pytest.mark.parametrize("N, uvals", [(2, (F(2),)), (3, (F(2), F(3)))], ids=["N2M1", "N3M2"])
    def test_taylor_data_matches_sympy(self, N, uvals):
        assert _series_mismatches(N, uvals) == []

    def test_residue_matches_sympy_limit(self):
        p = params(2, 2)
        for j in range(2):
            assert _to_sympy(lambda_residue(p, roots(2, 3), j)) == sym_residue(j)

    def test_slavnov_matches_monolithic_sympy(self):
        # the fully assembled inner product against sympy, entries substituted
        # to rationals before the determinants are taken
        vq, vQ = sympy.symbols("q Q")
        vu = sympy.symbols("u0:2")
        vv = sympy.symbols("v0:2")
        N, M = 2, 2
        subs = {vq: 2, vQ: -2, vu[0]: 2, vu[1]: 3,
                vv[0]: sympy.Rational(5, 1), vv[1]: sympy.Rational(7, 2)}
        f1 = sympy.Matrix(
            [[sympy.diff(sym_lambda(N, vq, x, vu), vu[i]).subs(subs) for x in vv]
             for i in range(M)]
        )
        f2 = sympy.Matrix(
            [[(1 / (_sw(x / vu[i]) * _sw(vq * x * vu[i]))).subs(subs) for x in vv]
             for i in range(M)]
        )
        want = sym_g(N, M, 1, vq, vQ, vu, vv).subs(subs) * f1.det() / f2.det()
        p = params(2, 2)
        got = slavnov(p, roots(2, 3), ParameterVector([F(5), F(7, 2)], "free"))
        assert _to_sympy(got) == want

    def test_lambda_pinned_value(self):
        # N=1, no roots: Lambda(1) = -w(q^2) w(q)^2 / w(q) at q=2
        p = params(1, 0)
        assert lambda_eval(p, F(1), ()) == F(-45, 8)

    def test_evenness(self):
        p = params(2, 2)
        u = roots(2, 3)
        rng = random.Random(8)
        for _ in range(12):
            v = F(rng.randint(1, 40), rng.randint(1, 23))
            try:
                validate_uv(p, u, [v])
            except PoleError:
                continue
            assert lambda_eval(p, v, u) == lambda_eval(p, -v, u)


class TestCauchyForm:
    """F2_i(v) = 1/(sigma(v) - sigma(u_i)), sigma(x) = q x^2 + 1/(q x^2): a
    Cauchy matrix, so det F2 vanishes only where two sigma coincide."""

    @pytest.mark.parametrize("spin_twice, Q, mode", [(1, F(-2), "rational"),
                                                     (2, F(2), "quadratic")])
    def test_family_2_is_a_cauchy_matrix(self, spin_twice, Q, mode):
        for M, us, vs in ((2, (2, 3), (F(1, 3), F(7, 5))),
                          (3, (2, 3, F(5, 7)), (F(1, 3), F(7, 5), F(11, 4)))):
            p = ChainParams.from_boundary(2, M, spin_twice, Q, mode=mode)
            ctx, q = p.ctx, p.q
            u = ParameterVector([ctx.embed(x) for x in us], "bethe")
            v = [ctx.embed(x) for x in vs]
            validate_uv(p, u, v)
            x = [q * a * a + 1 / (q * a * a) for a in u]
            y = [q * b * b + 1 / (q * b * b) for b in v]
            f2 = family_matrix(p, u, 2, v)
            assert f2 == [[1 / (yj - xi) for yj in y] for xi in x]
            cauchy = (field_product([(x[j] - x[i]) * (y[i] - y[j])
                                     for i, j in combinations(range(M), 2)], ctx)
                      / field_product([xi - yj for xi in x for yj in y], ctx))
            assert det(f2, ctx) == (-1) ** M * cauchy != 0


class TestBoundary:
    def test_q_from_rational_discriminants(self):
        p = ChainParams.from_boundary(2, 1, 1, F(-2))
        assert p.q == F(2)
        p = ChainParams.from_boundary(2, 1, 1, F(-3, 2))
        assert p.q == F(3, 2)

    def test_boundary_sum(self):
        assert boundary_sum(F(-2), 1) == F(-5, 2)
        assert boundary_sum(F(2), 2) == F(21, 4)

    def test_quadratic_branch(self):
        p = ChainParams.from_boundary(2, 1, 2, F(2), mode="quadratic")
        assert isinstance(p.q, QuadraticNumber)
        assert p.q.d == 377
        # boundary constraint holds exactly in Q(sqrt(377))
        lhs = boundary_sum(p.ctx.embed(2), 2)
        assert lhs == -(p.q + p.ctx.one() / p.q)
        # the + branch of the square root
        assert p.q.b > 0

    def test_irrational_rational_mode_rejected(self):
        with pytest.raises(ValueError):
            ChainParams.from_boundary(2, 1, 2, F(2), mode="rational")

    def test_float_branch(self):
        p = ChainParams.from_boundary(2, 1, 1, F(-2), mode="float")
        assert p.ctx.residual_ok(p.q - p.ctx.embed(2), 1)

    def test_constructor_rejects_bad_q(self):
        with pytest.raises(ValueError):
            ChainParams(2, 1, 1, F(1), F(-2), RAT)
        with pytest.raises(ValueError):
            ChainParams(2, 1, 1, F(2), F(-3), RAT)


class TestPoles:
    def test_w_zero(self):
        with pytest.raises(PoleError):
            w_eval(F(0))
        assert w_eval(F(2)) == F(3, 2)
        assert w_eval(F(1)) == 0

    def test_named_exclusions(self):
        p = params(2, 2)
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, F(1, 2)), [])
        assert e.value.factor == "w(u_i*u_j)"
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, F(1, 4)), [])
        assert e.value.factor == "w(q*u_i*u_j)"
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, 3), [F(2), F(5)])
        assert e.value.factor == "w(v_i/u_j)"
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, 3), [F(1, 4), F(5)])
        assert e.value.factor == "w(q*v_i*u_j)"

    def test_opposite_roots_and_points_are_excluded(self):
        # sigma reads u only through u^2 and the families read v only through
        # v^2, so u_i = -u_j repeats a row of F up to sign, v_i = -v_j repeats
        # a column, and every determinant would pass on 0 = 0
        p = params(2, 2)
        for fam in (1, 2):
            assert det(family_matrix(p, roots(2, -2), fam, [F(5), F(7)]), RAT) == 0
            assert det(family_matrix(p, roots(2, 3), fam, [F(5), F(-5)]), RAT) == 0
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, -2), [])
        assert e.value.factor == "w(u_i/u_j)"
        with pytest.raises(PoleError) as e:
            validate_uv(p, roots(2, 3), [F(5), F(-5)])
        assert e.value.factor == "w(v_i/v_j)"

    @pytest.mark.parametrize("Q, u, v, factor, where", [
        (F(-2), (3, 7), (1, F(5, 3)), "w(v_i)", "i=0"),          # B = 0 at y = 1
        (F(-2), (3, 7), (F(5, 3), F(1, 2)), "w(q*v_i)", "i=1"),  # A = 0 at y = 1/q^2
        (F(-2), (3, 7), (5, F(1, 10)), "w(q*v_i*v_j)", "i=0 j=1"),  # sigma(v_0) = sigma(v_1)
        (F(-4), (F(1, 2), 3), (5, 7), "w(q*u_j^2)", "j=0"),      # sigma_0' = 0
    ])
    def test_structural_zeros_of_family_1_are_named(self, Q, u, v, factor, where):
        # each point makes det F1 vanish, so a record there would pass on
        # 0 = 0; validate_uv and the kernel name the factor instead (q = 2
        # from Q = -2, q = 4 from Q = -4)
        p = ChainParams.from_boundary(2, 2, 1, Q)
        u, v = roots(*u), [F(x) for x in v]
        assert det(family_matrix(p, u, 1, v), RAT) == 0
        for call in (validate_uv, kernel):
            with pytest.raises(PoleError) as e:
                call(p, u, v)
            assert str(e.value) == "vanishing factor %s (%s)" % (factor, where)

    def test_eigenvalue_pole_in_quadratic_field(self):
        ctx = FieldContext("quadratic", d=2)
        p = ChainParams(2, 1, 1, ctx.embed(2), ctx.embed(-2), ctx)
        v = QuadraticNumber(0, F(1, 2), 2)  # v^2 = 1/2, so w(q v^2) = w(1) = 0
        with pytest.raises(PoleError) as e:
            lambda_eval(p, v, [ctx.embed(3)])
        assert e.value.factor == "w(q*v^2)"

    def test_prefactor_rejects_unit_root(self):
        p = params(2, 1)
        with pytest.raises(PoleError) as e:
            g_prefactor(p, roots(1), ParameterVector([F(3)], "free"))
        assert e.value.factor == "w(u_j)"
        with pytest.raises(PoleError) as e:
            g_prefactor(p, roots(-1), ParameterVector([F(3)], "free"))
        assert e.value.factor == "w(u_j)"

    def test_parameter_vector(self):
        pv = ParameterVector([F(1)], "bethe")
        assert len(pv) == 1
        with pytest.raises(ValueError):
            ParameterVector([F(2), F(2)], "free")
        with pytest.raises(ValueError):
            ParameterVector([F(0)], "free")
        with pytest.raises(ValueError):
            ParameterVector([F(1)], "other")


class TestFamilies:
    def test_f2_pinned(self):
        p = params(2, 1)
        # 1 / (w(3/2) w(12)) = 72 / 715
        assert f2_eval(p, 0, F(3), roots(2)) == F(72, 715)

    def test_f2_y_agrees_with_squared_argument(self):
        p = params(2, 1)
        assert family_matrix_y(p, roots(2), 2, [F(9)]) == [[f2_eval(p, 0, F(3), roots(2))]]

    def test_y_route_matches_v_route(self):
        p = params(2, 2)
        u = roots(2, 3)
        for v in (F(5), F(7, 2), F(9, 4)):
            y = v * v
            for i in range(2):
                assert lambda_du_y(p, i, y, u) == lambda_du(p, i, v, u)
            for family, value in POINTWISE.items():
                want = [[value(p, i, v, u)] for i in range(2)]
                assert family_matrix_y(p, tuple(u), family, [y]) == want

    def test_matrices_consistent(self):
        p = params(2, 2)
        u = roots(2, 3)
        vs = [F(5), F(7, 2)]
        ys = [x * x for x in vs]
        assert family_matrix_y(p, u, 1, ys) == family_matrix(p, u, 1, vs)
        k1 = kernel(p, u, ParameterVector(vs, "free"))
        assert kernel_y(p, u, ys) == k1

    def test_quadratic_instance(self):
        # full kernel evaluation in Q(sqrt(377)) at spin 1
        p = ChainParams.from_boundary(2, 1, 2, F(2), mode="quadratic")
        ctx = p.ctx
        u = ParameterVector([ctx.embed(2)], "bethe")
        v = ParameterVector([ctx.embed(3)], "free")
        k = kernel(p, u, v)
        n = lambda_du(p, 0, ctx.embed(3), u)
        d = f2_eval(p, 0, ctx.embed(3), u)
        assert k == n / d
        # cross-check against an independent sympy tree with the exact radical,
        # compared at 60 digits (simplify on nested radicals is too slow)
        vq, vv, vu = sympy.symbols("q v u")
        expr = sympy.diff(sym_lambda(2, vq, vv, (vu,)), vu) * _sw(vv / vu) * _sw(vq * vv * vu)
        qs = (-sympy.Rational(21, 4) + sympy.sqrt(377) / 4) / 2
        want = expr.subs({vq: qs, vv: 3, vu: 2}).evalf(60)
        got = (
            sympy.Rational(k.a.numerator, k.a.denominator)
            + sympy.Rational(k.b.numerator, k.b.denominator) * sympy.sqrt(377)
        ).evalf(60)
        assert abs(got - want) < sympy.Float("1e-40") * max(1, abs(want))


class TestSigmaReading:
    # the formula reads each root only through sigma_j = q u_j^2 + 1/(q u_j^2),
    # and u_j -> -u_j and u_j -> 1/(q u_j) keep sigma_j; a root read anywhere
    # else would break these exact equalities
    def test_eigenvalue_is_unchanged_in_the_sigma_fibre(self):
        p = params(3, 2)
        want = F(-12342777661119862899, 15388606849000000)
        for u in ((F(2), F(3)), (F(1, 4), F(-3)), (F(-2), F(1, 6))):
            assert lambda_eval(p, F(7, 5), u) == want

    def test_family_columns_in_the_sigma_fibre(self):
        # family 2 reads sigma_i alone; family 1 carries sigma_i', which is odd
        # in u_i, so flipping u_1 flips row 1 only
        p = params(3, 2)
        pts = [F(7, 5), F(5, 2)]
        want = family_matrix(p, (F(2), F(3)), 2, pts)
        for u in ((F(1, 4), F(-3)), (F(-2), F(1, 6))):
            assert family_matrix(p, u, 2, pts) == want
        row0, row1 = family_matrix(p, (F(2), F(3)), 1, pts)
        assert family_matrix(p, (F(2), F(-3)), 1, pts) == [row0, [-x for x in row1]]

    def test_quadratic_field(self):
        p = _mode_params("quadratic", 2)
        ctx = p.ctx
        u = (ctx.embed(2), ctx.embed(3))
        v = ctx.embed(F(7, 5))
        pts = [v, ctx.embed(F(5, 2))]
        for w in ((1 / (p.q * u[0]), -u[1]), (-u[0], 1 / (p.q * u[1]))):
            assert lambda_eval(p, v, w) == lambda_eval(p, v, u)
            assert family_matrix(p, w, 2, pts) == family_matrix(p, u, 2, pts)


def _mode_params(mode, M):
    if mode == "quadratic":
        return ChainParams.from_boundary(3, M, 2, F(2), mode="quadratic")
    return ChainParams.from_boundary(3, M, 1, F(-2), mode=mode)


def _count_shells(monkeypatch):
    calls = []
    shell = chain._shell

    def counted(p, y):
        calls.append(y)
        return shell(p, y)

    monkeypatch.setattr(chain, "_shell", counted)
    return calls


class TestColumns:
    @pytest.mark.parametrize("mode", ["rational", "quadratic", "float"])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_memo_changes_no_value(self, mode, M):
        p = _mode_params(mode, M)
        ctx = p.ctx
        u = ParameterVector([ctx.embed(x) for x in (F(2), F(3), F(5, 2))[:M]], "bethe")
        pts = [ctx.embed(x) for x in (F(5), F(7, 2), F(9, 4), F(11, 3))[: M + 1]]
        validate_uv(p, u, pts)
        for family in (1, 2):
            want = [[POINTWISE[family](p, i, x, tuple(u)) for x in pts] for i in range(M)]
            assert family_matrix(p, u, family, pts) == want
            assert family_matrix(p, u, family, pts) == want
            assert family_matrix(p, u, family, pts[::-1]) == [row[::-1] for row in want]

    def test_each_column_is_evaluated_once_per_vector(self, monkeypatch):
        from tltau.tau import pluecker_residual, tau_det

        # and sigma_i, sigma_i' once per root vector, whatever the columns
        p = params(2, 2)
        calls = _count_shells(monkeypatch)
        root_calls = {"_sigma": [], "_dsigma": []}
        for name, seen in root_calls.items():
            real = getattr(chain, name)
            monkeypatch.setattr(chain, name,
                                lambda q, x, real=real, seen=seen: seen.append(x) or real(q, x))
        u = roots(2, 3)
        v = ParameterVector([F(5), F(7, 2)], "free")
        first = slavnov(p, u, v)
        kernel(p, u, v)
        tau_det(p, u, 1, v)
        tau_det(p, u, 2, v)
        assert slavnov(p, u, v) == first
        assert len(calls) == p.M
        assert root_calls == {"_sigma": list(u), "_dsigma": list(u)}
        calls.clear()
        u2 = roots(2, 3)
        for family in (1, 2):
            pluecker_residual(p, u2, family, [F(5), F(7, 2), F(9, 4)], [F(11, 3)])
        assert len(calls) == 2 * p.M
        assert root_calls == {"_sigma": list(u) * 2, "_dsigma": list(u) * 2}

    def test_root_data_serves_point_columns_and_taylor_rows(self, monkeypatch):
        # sigma_i' is formed once per vector for the point columns and the
        # Taylor rows of both families, and the family-1 shell runs through
        # the requested order, with no extra power of y to shift off
        p = params(3, 2)
        u = roots(2, 3)
        dsigma_args, series_truncs = [], []
        dsigma, cleared = chain._dsigma, chain._cleared

        def counted(p, y, *args):
            if isinstance(y, LaurentSeries):
                series_truncs.append(y.trunc)
            return cleared(p, y, *args)

        monkeypatch.setattr(chain, "_dsigma", lambda q, x: dsigma_args.append(x) or dsigma(q, x))
        monkeypatch.setattr(chain, "_cleared", counted)
        for family in (1, 2):
            family_matrix_y(p, u, family, [F(1, 5), F(2, 7), F(3, 11)])
            taylor_rows(p, u, family, 5)
        assert dsigma_args == list(u)
        assert series_truncs == [5]

    def test_pole_of_the_shell_spares_family_2(self):
        p = params(2, 2)
        y = 1 / p.q  # W = q y^2 - 1/q vanishes
        for u in (roots(2, 3), (F(2), F(3))):
            want = [[y / (p.q * y * y - (p.q * x * x + 1 / (p.q * x * x)) * y + 1 / p.q)]
                    for x in u]
            assert family_matrix_y(p, u, 2, [y]) == want
            for _ in range(2):
                with pytest.raises(PoleError) as e:
                    family_matrix_y(p, u, 1, [y])
                assert e.value.factor == "w(q*v^2)"


class TestLaurentData:
    def test_leading_coefficient_formula_and_u_independence(self):
        rng = random.Random(4)
        for N, M in ((2, 1), (3, 2), (2, 2)):
            p = params(N, M)
            q = F(2)
            want = -(1 + q ** (2 * (N - 2 * M + 1))) / q ** (2 * (N - M) + 1)
            for _ in range(5):
                uvals = []
                while len(uvals) < M:
                    x = F(rng.randint(2, 19), rng.randint(1, 7))
                    if x not in uvals and all(
                        x * y not in (1, -1, F(1, 2), F(-1, 2)) for y in uvals
                    ):
                        uvals.append(x)
                s = lambda_series(p, roots(*uvals), order=2 - 2 * N)
                assert s.min_exp() == -2 * N
                assert s.coeff(-2 * N) == want

    def test_series_is_even_with_odd_terms_absent(self):
        p = params(2, 2)
        s = lambda_series(p, roots(2, 3), order=2)
        assert s.is_even()

    def test_series_value_convergence(self):
        p = params(2, 2)
        u = roots(2, 3)
        v = F(1, 40)
        exact = lambda_eval(p, v, u)
        errs = []
        for order in (8, 14, 20):
            s = lambda_series(p, u, order=order)
            errs.append(RAT.magnitude(s.evaluate(v) - exact))
        assert errs[2] < errs[1] < errs[0]

    def test_family2_series_pinned_coefficients(self):
        p = params(2, 1)
        s = f_series(p, roots(2), 2, 0, 6)
        assert s.min_exp() == 2
        assert s.coeff(2) == F(2)
        assert s.coeff(4) == F(65, 2)
        assert s.coeff(3) == 0

    def test_family1_series_matches_rational_finite_difference(self):
        # central difference of the eigenvalue series in exact arithmetic
        p = params(2, 1)
        u0 = F(2)
        h = F(1, 10**8)
        order = 4
        analytic = f_series(p, roots(u0), 1, 0, order)
        up = lambda_series(p, roots(u0 + h), order=order)
        dn = lambda_series(p, roots(u0 - h), order=order)
        for e in range(analytic.min_exp(), order + 1):
            fd = (up.coeff(e) - dn.coeff(e)) / (2 * h)
            diff = abs(fd - analytic.coeff(e))
            scale = max(abs(analytic.coeff(e)), F(1))
            assert diff / scale < F(1, 10**12)

    def test_family1_start_bound_and_special_cases(self):
        # generic start is 2 - 2N; specific (N, M) push leading terms to zero
        for (N, M, uvals, start) in (
            (2, 1, (F(2),), -2),
            (2, 2, (F(2), F(3)), 0),
            (3, 2, (F(2), F(3)), -4),
            (4, 3, (F(2), F(3), F(5)), -4),
        ):
            p = params(N, M)
            s = f_series(p, roots(*uvals), 1, 0, 2)
            assert s.min_exp() >= 2 - 2 * N
            assert s.min_exp() == start

    def test_series_matches_value_both_families(self):
        p = params(2, 2)
        u = roots(2, 3)
        v = F(1, 50)
        for fam in (1, 2):
            s = f_series(p, u, fam, 0, 26)
            exact = POINTWISE[fam](p, 0, v, u)
            err = RAT.magnitude(s.evaluate(v) - exact)
            assert err < 1e-18 * max(1.0, RAT.magnitude(exact))

    def test_pole_radius(self):
        p = params(2, 2)
        r = pole_radius_y(p, roots(2, 3))
        assert r == pytest.approx(1 / 36)


class TestPrefactor:
    def test_g_matches_sympy(self):
        vq, vQ = sympy.symbols("q Q")
        vu = sympy.symbols("u0:2")
        vv = sympy.symbols("v0:2")
        expr = sym_g(2, 2, 1, vq, vQ, vu, vv)
        p = params(2, 2)
        got = g_prefactor(p, roots(2, 3), ParameterVector([F(5), F(7, 2)], "free"))
        want = expr.subs({vq: 2, vQ: -2, vu[0]: 2, vu[1]: 3,
                          vv[0]: 5, vv[1]: sympy.Rational(7, 2)})
        assert _to_sympy(got) == want

    def test_slavnov_is_g_times_kernel(self):
        p = params(2, 2)
        u = roots(2, 3)
        v = ParameterVector([F(5), F(7, 2)], "free")
        assert slavnov(p, u, v) == g_prefactor(p, u, v) * kernel(p, u, v)


class TestOneFormula:
    # each root factor and each family is coded once, so a fault seeded in
    # that one place reaches every route that reads it
    def test_root_factors_reach_the_eigenvalue_and_the_pole_brackets(self, monkeypatch):
        # q^3 -> q^2 in n2_j: at M = 2 every bracket holds the other root's n2
        p, u, v = params(2, 2), (F(2), F(3)), F(7, 5)
        value, brackets = lambda_eval(p, v, u), pole_brackets(p, u)
        factors = chain._factors

        def wrong_n2(p, y, s):
            n1, n2, d = factors(p, y, s)
            return n1, n2 - (p.q3 - p.q * p.q) * y * y, d

        monkeypatch.setattr(chain, "_factors", wrong_n2)
        assert lambda_eval(p, v, u) != value
        assert all(got != want for got, want in zip(pole_brackets(p, u), brackets))

    def test_family_rows_reach_point_columns_and_taylor_rows(self, monkeypatch):
        p, u, ys = params(3, 2), (F(2), F(3)), [F(1, 5), F(2, 7)]
        want = {family: (family_matrix_y(p, u, family, ys), taylor_rows(p, u, family, 4))
                for family in (1, 2)}
        def pointwise():
            return [lambda_du_y(p, 1, ys[0], u), f2_eval(p, 1, F(3, 7), u)]

        values = pointwise()
        rows = chain._rows
        monkeypatch.setattr(chain, "_rows",
                            lambda p, roots, family, y: [2 * r for r in rows(p, roots, family, y)])
        for family, (matrix, series) in want.items():
            assert family_matrix_y(p, u, family, ys) == [[2 * x for x in row] for row in matrix]
            assert taylor_rows(p, u, family, 4) == [2 * r for r in series]
        assert pointwise() == [2 * x for x in values]


class TestSeededFault:
    def test_doubled_b_term_turns_every_reference_red(self, monkeypatch, seed_fault):
        # one fault in the shared shell reaches values and series; residues
        # come from the pole bracket, whose B term (y - 1)^(2N) is the shell's
        # with the residue prefactor cancelled, so it is doubled there too
        shell = chain._shell

        def doubled_b(p, y):
            W, A, B = shell(p, y)
            return W, A, 2 * B

        monkeypatch.setattr(chain, "_shell", doubled_b)
        assert _du_mismatches()
        assert _series_mismatches(2, (F(2),))
        old = "(y - 1) ** e"
        seed_fault(chain, "pole_brackets", old, "2 * " + old)
        assert lambda_residue(params(2, 2), roots(2, 3), 0) != F(5335875, 11648)
