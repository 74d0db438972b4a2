"""Residue formula, closed-form single roots, and the Newton solver.

The residue closed form is pinned exactly in rational arithmetic and
cross-checked against a Richardson-extrapolated numerical limit of
(v - u_j) Lambda(v).  Grid solves, which keep only regular root sets, are
compared against the closed-form root family as they come.
"""

import decimal
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from mpmath import mp

from tltau import bethe, chain
from tltau.algebra import FieldContext, QuadraticNumber
from tltau.bethe import (
    BetheSolution,
    closed_form_single_roots,
    is_regular,
    residue_vector,
    solve_bethe,
    solve_bethe_grid,
)
from tltau.chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    g_prefactor,
    kernel,
    lambda_eval,
    pole_brackets,
    slavnov,
    w_eval,
)
from tltau.cli import run_suite, validate_config
from reference import lambda_residue

RAT = FieldContext("rational")


def params(N, M):
    return ChainParams(N, M, 1, F(2), F(-2), RAT)


def fparams(N, M):
    ctx = FieldContext("float", prec=192)
    return ChainParams(N, M, 1, ctx.embed(2), ctx.embed(-2), ctx)


class TestResidueFormula:
    def test_pinned_rational_value(self):
        p = params(2, 2)
        assert lambda_residue(p, (F(2), F(3)), 0) == F(5335875, 11648)

    def test_richardson_limit(self):
        # res_j = lim (v - u_j) Lambda(v); two-step Richardson in epsilon
        p = fparams(2, 2)
        ctx = p.ctx
        u = (ctx.embed(2), ctx.embed(3))
        with mp.workprec(200):
            want = mp.mpf(F(5335875, 11648).numerator) / F(5335875, 11648).denominator

            def probe(eps):
                v = u[0] + eps
                return eps * lambda_eval(p, v, u)

            e = mp.mpf("1e-12")
            r1, r2 = probe(e), probe(e / 2)
            extrap = 2 * r2 - r1
            assert abs(extrap - want) / abs(want) < mp.mpf("1e-20")

    def test_vector_shape(self):
        p = params(2, 2)
        vec = residue_vector(p, (F(2), F(3)))
        assert len(vec) == 2
        assert vec[0] == F(5335875, 11648)

    def test_vector_shares_one_sigma_pass(self):
        # pole_brackets forms each sigma_j once for all M brackets; the
        # residues must agree exactly with those taken one root at a time
        for N, u in ((2, (F(2), F(3))), (3, (F(2), F(3), F(5, 2)))):
            p = params(N, len(u))
            assert residue_vector(p, u) == [lambda_residue(p, u, j) for j in range(len(u))]

    def test_vector_takes_one_bracket_pass(self, monkeypatch):
        # one pole_brackets call per vector, however many roots, whichever
        # module the call goes through
        calls = []

        def counted(p, u):
            calls.append(len(u))
            return pole_brackets(p, u)

        monkeypatch.setattr(bethe, "pole_brackets", counted)
        monkeypatch.setattr(chain, "pole_brackets", counted)
        for N, u in ((2, (F(2), F(3))), (3, (F(2), F(3), F(5, 2)))):
            calls.clear()
            residue_vector(params(N, len(u)), u)
            assert calls == [len(u)]

    def test_pole_of_the_formula_is_named(self):
        from tltau.chain import PoleError

        # u^2 q = 1 makes w(u^2 q) vanish inside the residue prefactor, with
        # u = sqrt(1/2) taken at the context's precision
        p = fparams(2, 1)
        m = p.ctx.mp
        with pytest.raises(PoleError) as e:
            lambda_residue(p, (m.sqrt(m.mpf("0.5")),), 0)
        assert e.value.factor == "w(q*u_j^2)"


class TestPoleBracket:
    # the bracket is the residue with w(u_j^2) w(q^2 u_j^2) cancelled in
    # closed form; the reference codes the residue from the product form
    # (bracket_terms below): -(u_j / 2) w(u_j^2) w(q^2 u_j^2) / w(q u_j^2)^2
    # times the sum of its two terms
    def test_residue_is_prefactor_times_bracket(self):
        def w(x):
            return x - 1 / x

        quad = ChainParams.from_boundary(2, 2, 2, F(2), mode="quadratic")
        assert quad.q.d == 377
        cases = [(params(2, 2), (F(2), F(3))),
                 (params(3, 3), (F(2), F(3), F(5, 2))),
                 (params(4, 2), (F(3, 2), F(-5, 3))),
                 (quad, (quad.ctx.embed(2), quad.q + 1))]
        for p, u in cases:
            brackets = pole_brackets(p, u)
            for j, x in enumerate(u):
                ta, tb = bracket_terms(u, j, p.q, p.N)
                wq = w(p.q * x * x)
                want = -x * (ta + tb) / (2 * wq * wq)
                assert brackets[j] == want
                assert lambda_residue(p, u, j) == w(x * x) * w(p.q * p.q * x * x) * want
        assert lambda_residue(params(2, 2), (F(2), F(3)), 0) == F(5335875, 11648)

    def test_bracket_stays_finite_where_the_residue_vanishes(self):
        # at q = 2, u = 1 and i zero w(u^2) and u = 1/2 zeros w(q^2 u^2): the
        # residue vanishes there, the bracket does not
        gauss = FieldContext("quadratic", d=-1)
        for N in (2, 3):
            cases = [(params(N, 1), F(1)), (params(N, 1), F(1, 2)),
                     (ChainParams(N, 1, 1, gauss.embed(2), gauss.embed(-2), gauss),
                      QuadraticNumber(0, 1, -1))]
            for p, u in cases:
                assert lambda_residue(p, (u,), 0) == 0
                assert pole_brackets(p, (u,))[0] != 0

    def test_poles_are_named(self):
        # a zero root, and q u^2 = +-1 (q = +-4, u = 1/2), where w(q u^2) in
        # the bracket's denominator vanishes
        for q, u, factor in ((F(2), (F(3), F(0)), "w(u_j)"),
                             (F(4), (F(1, 2), F(3)), "w(q*u_j^2)"),
                             (F(-4), (F(1, 2), F(3)), "w(q*u_j^2)")):
            p = ChainParams(2, 2, 1, q, -q, RAT)
            for call in (pole_brackets, residue_vector, lambda p, u: lambda_residue(p, u, 0)):
                with pytest.raises(PoleError) as e:
                    call(p, u)
                assert e.value.factor == factor


class TestDecimalCarrier:
    # the refinement evaluates the unchanged pole_brackets on bethe._Complex;
    # 64 digits is the solver's rule for 192 bits, ceil(192 log10 2) + 6
    def test_brackets_agree_with_mpmath(self):
        rng = random.Random(19)
        cases = [(2, 2), (3, 1), (4, 2), (5, 2), (3, 3)]
        with mp.workprec(192):
            for Q in (F(-2), F(3)):
                for N, M in cases:
                    p = ChainParams.from_boundary(N, M, 1, Q, "float")
                    for _ in range(4):
                        u = [mp.mpc(rng.choice((-1, 1)) * rng.uniform(0.3, 2),
                                    rng.choice((-1, 1)) * rng.uniform(0.3, 2)) for _ in range(M)]
                        want = pole_brackets(p, u)
                        with decimal.localcontext(decimal.Context(prec=64)):
                            stand = bethe._stand_in(N, bethe._Complex.of(p.q))
                            got = pole_brackets(stand, [bethe._Complex.of(x) for x in u])
                            got = [mpc_of(z) for z in got]
                        for g, w in zip(got, want):
                            assert abs(g - w) <= abs(w) * mp.mpf(2) ** -185, (Q, N, M, u)

    def test_zero_divisor_is_a_pole(self):
        zero = bethe._Complex(decimal.Decimal(0))
        with decimal.localcontext(decimal.Context(prec=64)):
            for num in (bethe._Complex(decimal.Decimal(1)), zero, 1, 0.5):
                with pytest.raises(ZeroDivisionError):
                    num / zero
            # q = 0 sends the stand-in's 1/q, and pole_brackets' 1/(q y_j),
            # through the carrier's division
            with pytest.raises(ZeroDivisionError):
                bethe._stand_in(2, zero)
            stand = bethe._stand_in(2, bethe._Complex.of(2))._replace(q=zero)
            assert bethe._brackets(stand, [bethe._Complex.of(2), bethe._Complex.of(3)]) is None

    def test_arithmetic_matches_mpmath(self):
        a, b = mp.mpc(1.25, -0.75), mp.mpc(-0.5, 2.0)
        x, y = bethe._Complex.of(a), bethe._Complex.of(b)
        with mp.workprec(192), decimal.localcontext(decimal.Context(prec=64)):
            for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b), (x / y, a / b),
                              (x ** 5, a ** 5), (x ** -3, a ** -3), (-x, -a),
                              (2 - x, 2 - a), (0.5 * x, 0.5 * a), (3 / x, 3 / a)):
                assert abs(mpc_of(got) - want) <= abs(want) * mp.mpf(2) ** -190
            assert abs(mp.mpf(str(abs(x))) - abs(a)) <= mp.mpf(2) ** -190
            assert x == x * 1 and x != y and bethe._Complex.of(2) == 2
            assert bool(x) and not bethe._Complex(decimal.Decimal(0))
            with pytest.raises(TypeError):
                x + a
            with pytest.raises(TypeError):
                x * a

    def test_power_matches_the_ladder_from_one(self):
        # x ** n starts from +x, which rounds x as 1 * 1 * x did; the parts
        # agree with the ladder from 1 on a base held at 64 digits and on an
        # unrounded one (192-bit parts have up to 192 decimal digits)
        def ladder(x, n):
            out = bethe._Complex(decimal.Decimal(1))
            for bit in bin(abs(n))[2:]:
                out = out * out * x if bit == "1" else out * out
            return out if n >= 0 else 1 / out

        with mp.workprec(192):
            third = bethe._Complex.of(mp.mpc(mp.mpf(1) / 3, -mp.mpf(2) / 7))
        assert len(str(third.re)) > 64
        with decimal.localcontext(decimal.Context(prec=64)):
            for x in (bethe._Complex.of(mp.mpc(1.25, -0.75)), third, bethe._Complex.of(third.re)):
                for n in range(-3, 10):
                    got, want = x ** n, ladder(x, n)
                    assert (got.re, got.im) == (want.re, want.im), n

    def test_real_operand_multiplies_the_parts(self):
        # an int, float or Decimal operand scales both parts; the product
        # equals the one with a complex operand of zero imaginary part
        with mp.workprec(192):
            x = bethe._Complex.of(mp.mpc(mp.mpf(1) / 3, -mp.mpf(2) / 7))
        with decimal.localcontext(decimal.Context(prec=64)):
            for y in (x, bethe._Complex.of(mp.mpc(1.25, -0.75))):
                for r in (3, -2, 0, 0.5, decimal.Decimal("-1.75"), x.re):
                    want = y * bethe._Complex(decimal.Decimal(r))
                    for got in (y * r, r * y):
                        assert (got.re, got.im) == (want.re, want.im), r

    def test_handoff_is_the_decimal_string_route(self, monkeypatch):
        # each root and bracket of the (2, 2) grid goes back to mpmath
        # rounded once at the context's precision, as its decimal string
        # read at that precision would be
        seen = []
        handoff = bethe._mpc

        def logged(z, m):
            seen.append((z, handoff(z, m)))
            return seen[-1][1]

        monkeypatch.setattr(bethe, "_mpc", logged)
        sols = solve_bethe_grid(fparams(2, 2))
        assert sols and len(seen) >= 4 * len(sols)
        with mp.workprec(192):
            for z, got in seen:
                want = mpc_of(z)
                assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)


class TestClosedForm:
    def test_roots_kill_the_residue(self):
        for N in (2, 3):
            p = fparams(N, 1)
            roots = closed_form_single_roots(p)
            assert roots
            for r in roots:
                with mp.workprec(200):
                    res = lambda_residue(p, (r,), 0)
                assert abs(res) < mp.mpf("1e-40")

    def test_family_size(self):
        # 2N-th roots of unity minus {+1, -1}, modulo u -> -u; zeta -> u^2 is
        # a Moebius map of determinant -q (q^2 - 1) != 0, so no two coincide
        for Q in (F(-2), F(3)):
            for N in range(2, 7):
                roots = closed_form_single_roots(ChainParams.from_boundary(N, 1, 1, Q, "float"))
                assert len(roots) == 2 * (N - 1)
                assert min(abs(a - b) for a, b in combinations(roots, 2)) > mp.mpf("1e-3")

    def test_float_mode_required(self):
        with pytest.raises(ValueError):
            closed_form_single_roots(params(2, 1))


class TestSolver:
    def test_newton_converges_from_perturbed_start(self):
        p = fparams(2, 1)
        root = closed_form_single_roots(p)[0]
        start = root * (1 + mp.mpf("1e-3"))
        sol = solve_bethe(p, [start], tol=mp.mpf("1e-40"))
        assert sol.converged
        assert sol.max_residual() < mp.mpf("1e-40")
        assert abs(sol.roots[0] - root) < mp.mpf("1e-25") or abs(
            sol.roots[0] + root
        ) < mp.mpf("1e-25")

    def test_reconverge_is_instant(self):
        p = fparams(2, 1)
        root = closed_form_single_roots(p)[0]
        sol = solve_bethe(p, [root])
        assert sol.converged
        assert sol.iterations == 0

    def test_refinement_digits_follow_the_precision(self):
        # the decimal context holds ceil(prec log10 2) + 6 digits, so at 400
        # bits the default tol 2^-200 is met, and a tol of 2^-350, beyond
        # what 192 bits could resolve, is met too
        for bits in (128, 400):
            with mp.workprec(bits):
                ctx = FieldContext("float", prec=bits)
                p = ChainParams(3, 1, 1, ctx.embed(2), ctx.embed(-2), ctx)
                want = closed_form_single_roots(p)
                sols = solve_bethe_grid(p)
                assert len(sols) == len(want)
                close = mp.mpf(2) ** (16 - bits // 2)
                for s in sols:
                    assert s.max_residual() < mp.mpf(2) ** -(bits // 2)
                    assert min(min(abs(s.roots[0] - w), abs(s.roots[0] + w)) for w in want) < close
        with mp.workprec(400):
            ctx = FieldContext("float", prec=400)
            p = ChainParams(3, 1, 1, ctx.embed(2), ctx.embed(-2), ctx)
            root = closed_form_single_roots(p)[0]
            sol = solve_bethe(p, [root * (1 + mp.mpf("1e-3"))], tol=mp.mpf(2) ** -350)
            assert sol.converged and sol.max_residual() < mp.mpf(2) ** -350
            assert min(abs(sol.roots[0] - root), abs(sol.roots[0] + root)) < mp.mpf(2) ** -330

    def test_records_ignore_process_history(self):
        # a caller's decimal context (5 digits, rounding down) and a wider
        # float context made earlier, which leaves mpmath's global precision
        # alone, leave the bethe records, and the roots and brackets of a
        # direct grid call to the last bit, unchanged
        def run():
            sols = solve_bethe_grid(fparams(2, 2))
            records = [bethe_records(N, M) for N, M in ((2, 2), (3, 1))]
            return records, [(s.roots, s.residuals) for s in sols]

        clean = run()
        before = mp.prec
        with decimal.localcontext(decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR)):
            FieldContext("float", prec=400)
            assert mp.prec == before
            assert run() == clean

    def test_float_values_ignore_the_global_precision(self):
        # direct float kernel and eigenvalue values and grid roots are made
        # at their context's precision: the same bits whatever the global
        # mp.prec of the caller
        def bits(x):
            return x.real._mpf_, x.imag._mpf_

        def run():
            p = fparams(2, 2)
            u = tuple(map(p.ctx.embed, (2, 3)))
            v = tuple(map(p.ctx.embed, (F(1, 5), F(2, 7))))
            values = [kernel(p, u, v)] + [lambda_eval(p, x, u) for x in v]
            roots = [r for s in solve_bethe_grid(p) for r in s.roots]
            assert roots
            return [bits(x) for x in values + roots]

        with mp.workprec(53):
            low = run()
        with mp.workprec(1000):
            assert run() == low

    def test_input_validation(self):
        p = fparams(2, 2)
        with pytest.raises(ValueError):
            solve_bethe(params(2, 1), [F(2)])
        with pytest.raises(ValueError):
            solve_bethe(p, [mp.mpf(2)])
        with pytest.raises(ValueError):
            solve_bethe(p, [mp.mpf(2), mp.mpf(2) + mp.mpf("1e-13")])

    def test_no_roots_is_nothing_to_solve(self):
        # at M = 0 the empty start is the solution, and the palette's one
        # empty subset gives the grid that solution alone
        p = fparams(2, 0)
        sol = solve_bethe(p, [])
        assert (sol.roots, sol.residuals, sol.converged, sol.iterations, sol.message) == (
            (), (), True, 0, "nothing to solve")
        assert [(s.roots, s.message) for s in solve_bethe_grid(p)] == [((), "nothing to solve")]

    def test_singular_jacobian_ends_the_run_at_its_start(self):
        # a chord Jacobian that solve_linear refuses stops the loop,
        # unconverged, where it stands
        double = bethe._stand_in(2, 2 + 0j)
        start = [0.45 + 0.35j, 0.85 + 0.55j]
        got = bethe._newton(double, start, 0, 0, 2.0**-26, [[0, 0], [0, 0]])
        assert got == (start, bethe._brackets(double, start), False, 1, "singular jacobian")

    def test_central_jacobian_is_none_when_a_bump_lands_on_a_pole(self):
        # u_0 = -h bumps up onto u_0 = 0, where pole_brackets names w(u_j);
        # u_0 = -2h does not
        double, h = bethe._stand_in(2, 2 + 0j), 2.0**-17
        assert bethe._central_jacobian(double, [complex(-h), 0.85 + 0.55j], h) is None
        jac = bethe._central_jacobian(double, [complex(-2 * h), 0.85 + 0.55j], h)
        assert len(jac) == 2 and all(len(row) == 2 and all(row) for row in jac)

    def test_solution_repr(self):
        sol = BetheSolution((mp.mpf(1),), (mp.mpf(0),), True, 3, "converged")
        assert "converged=True" in repr(sol)
        assert sol.max_residual() == 0


class TestRegularity:
    def test_prefactor_zeros_are_rejected(self):
        # u = 1, 1/2, i all zero the residue through w(u^2) or w(u^2 q^2),
        # not through the bracket, and must be filtered
        p = fparams(2, 1)
        for bad in (mp.mpf(1), mp.mpf("0.5"), mp.mpc(0, 1)):
            res = lambda_residue(p, (bad,), 0)
            assert abs(res) < mp.mpf("1e-30")
            assert not is_regular(p, (bad,))

    def test_closed_form_roots_are_regular(self):
        p = fparams(2, 1)
        for r in closed_form_single_roots(p):
            assert is_regular(p, (r,))

    def test_root_sets_run_off_to_zero_or_infinity_do_not_pass(self):
        # the step test is relative for |u| > 1 and the brackets decay as
        # u -> 0, so some starts stop far from any finite root: at (1, 1)
        # every converged set has |u^2| ~ 1e-20, at (1, 2) and (2, 3) some do
        def passing_roots(N, M, Q):
            cfg = validate_config({"checks": ["bethe"], "N": N, "M": M, "Q": Q})
            return [[complex(x.replace(" ", "")) for x in r["params"]["roots"]]
                    for r in run_suite(cfg)["records"] if r["pass"] and "roots" in r["params"]]

        assert passing_roots(1, 1, "-2") == passing_roots(1, 1, "5") == []
        for N, M in ((1, 2), (2, 3)):
            sets = passing_roots(N, M, "5")
            assert sets and all(1e-8 < abs(r * r) < 1e8 for roots in sets for r in roots)

    def test_doubles_agree_with_mpmath_near_the_excluded_points(self):
        # is_regular runs in complex doubles; at 1e-9 and 1e-7 from each
        # excluded u^2, in four directions, it gives the verdict of the same
        # test in mpmath at 192 bits
        def regular_mp(p, roots):
            for r in roots:
                u2 = r * r
                if min(abs(w_eval(u2)), abs(w_eval(u2 * p.q * p.q))) < mp.mpf("1e-8"):
                    return False
            return True

        verdicts = set()
        with mp.workprec(192):
            for p in (fparams(2, 1), ChainParams.from_boundary(3, 1, 1, F(3), "float")):
                for base in (1, -1, 1 / p.q ** 2, -1 / p.q ** 2):
                    for dist in (mp.mpf("1e-9"), mp.mpf("1e-7")):
                        for turn in (1, 1j, -1, -1j):
                            root = mp.sqrt(base + dist * turn)
                            verdict = is_regular(p, (root,))
                            assert verdict == regular_mp(p, (root,)), (base, dist, turn)
                            verdicts.add((dist, verdict))
            assert verdicts == {(mp.mpf("1e-9"), False), (mp.mpf("1e-7"), True)}

    def test_solver_refuses_irregular_search_roots_before_refining(self):
        # at (1, 1) every search that converges ends with |u^2| ~ 1e-20:
        # no start is refined at working precision, and none converges
        p = ChainParams.from_boundary(1, 1, 1, F(-2), "float")
        sols = [solve_bethe(p, [z]) for z in bethe._PALETTE]
        assert [(s.converged, s.iterations) for s in sols] == [(False, 0)] * 12

    def test_runs_that_leave_the_regular_set_end_there(self):
        # let run, these two (2, 2) starts take all _MAXITER search steps off
        # to |u^2| ~ 1e16 and 1e-7; the guard in _newton ends each where it
        # first leaves the regular set, unconverged and unrefined
        p = fparams(2, 2)
        for start in ((0.3 - 0.85j, 1.1 - 0.9j), (0.55 + 0.95j, 0.35 + 0.6j)):
            sol = solve_bethe(p, start)
            assert (sol.converged, sol.iterations, sol.message) == (
                False, 0, "ran off to an irregular set")
            assert 0 < sol.search_iterations < bethe._MAXITER // 2
            assert not is_regular(p, sol.roots)

    @pytest.mark.parametrize("carrier", [complex, bethe._Complex.of])
    @pytest.mark.parametrize("first", [1e-5 + 0j, 1 + 1e-10j])
    def test_newton_from_an_irregular_start_ends_at_once(self, carrier, first):
        # |u_0^2| = 1e-10 is below the floor, and u_0^2 = 1 + 2e-10 j within
        # 1e-8 of an excluded point: on either carrier no step is taken
        with decimal.localcontext(decimal.Context(64)):
            p = bethe._stand_in(2, carrier(2))
            start = [carrier(first), carrier(0.85 + 0.55j)]
            got = bethe._newton(p, start, 0, 0, 2.0**-26, None)
            assert got == (start, bethe._brackets(p, start), False, 0,
                           "ran off to an irregular set")

    @pytest.mark.parametrize("Q", ["3", "5"])
    def test_grid_returns_only_regular_root_sets(self, Q):
        # at (1, 2) some sets are regular after the search and run off to 0
        # or infinity only during the refinement; the grid returns neither kind
        p = ChainParams.from_boundary(1, 2, 1, F(Q), "float")
        sols = solve_bethe_grid(p)
        assert sols and all(is_regular(p, s.roots) for s in sols)


class TestGrid:
    def test_grid_matches_closed_form(self):
        for N in (2, 3):
            p = fparams(N, 1)
            want = closed_form_single_roots(p)
            sols = solve_bethe_grid(p, tol=mp.mpf("1e-40"))
            got = []
            for s in sols:
                r = s.roots[0]
                if r.real < 0 or (r.real == 0 and r.imag < 0):
                    r = -r
                got.append(r)
            assert len(got) == len(want)
            for w in want:
                assert min(abs(g - w) for g in got) < mp.mpf("1e-25")

    def test_grid_searches_in_complex_doubles(self, monkeypatch):
        # 64 starts at (2, 2): the search runs in complex doubles, and each of
        # the 61 converged starts takes three bracket vectors at working
        # precision, its start and two chord steps on the central-difference
        # Jacobian handed over from the search (183 in all).  Newton at working
        # precision from every start reads 1,607.
        # At M = 1 a start whose search lands on a root already found is not
        # refined, so each distinct root costs three.  Every working-precision
        # vector is taken on the decimal carrier at 64 digits (192 bits).
        working = []
        real = bethe._brackets

        def counted(p, u):
            if not isinstance(p.q, complex):
                working.append((type(p.q), {type(x) for x in u}, decimal.getcontext().prec))
            return real(p, u)

        on_carrier = (bethe._Complex, {bethe._Complex}, 64)
        monkeypatch.setattr(bethe, "_brackets", counted)
        assert len(solve_bethe_grid(fparams(2, 2))) > 0
        assert 0 < len(working) <= 183
        assert all(w == on_carrier for w in working)
        for N in (2, 3, 4):
            del working[:]
            distinct = len(solve_bethe_grid(fparams(N, 1)))
            assert distinct == 2 * (N - 1)
            assert len(working) <= 3 * distinct, (N, len(working))
            assert working and all(w == on_carrier for w in working)

        # at M = 1 every converged refinement reaches 2^-96 in two chord steps
        steps = []
        solve = bethe.solve_bethe

        def logged(*args, **kwargs):
            sol = solve(*args, **kwargs)
            if sol.converged:
                steps.append(sol.iterations)
            return sol

        monkeypatch.setattr(bethe, "solve_bethe", logged)
        for N in (2, 3, 4):
            del steps[:]
            assert solve_bethe_grid(fparams(N, 1))
            assert steps and max(steps) <= 2, (N, steps)

    def test_grid_search_stops_runs_that_leave_the_regular_set(self, monkeypatch):
        # at (2, 2) the 64 starts take 1,842 bracket vectors in complex
        # doubles, 244 of them the central-difference handoffs; letting the
        # runs that leave the regular set go on to their end reads 2,963
        double = []
        real = bethe._brackets

        def counted(p, u):
            double.append(isinstance(p.q, complex))
            return real(p, u)

        monkeypatch.setattr(bethe, "_brackets", counted)
        assert len(solve_bethe_grid(fparams(2, 2))) == 61
        assert sum(double) <= 1850

    def test_on_shell_identities_hold_in_float(self):
        # at an on-shell root the factorized inner product still matches
        # G times the determinant quotient to working precision
        p = fparams(2, 1)
        ctx = p.ctx
        root = closed_form_single_roots(p)[0]
        u = ParameterVector([root], "bethe")
        v = ParameterVector([ctx.embed(F(7, 3))], "free")
        lhs = slavnov(p, u, v)
        rhs = g_prefactor(p, u, v) * kernel(p, u, v)
        assert abs(lhs - rhs) <= mp.mpf("1e-20") * max(1, abs(lhs))


def mpc_of(z):
    """A bethe._Complex as the mpc its decimal strings round to at the
    global precision."""
    return mp.mpc(str(z.re), str(z.im))


def bethe_records(N, M):
    # the one error a valid config may record is the search finding no root set
    recs = run_suite(validate_config({"checks": ["bethe"], "N": N, "M": M}))["records"]
    assert all(r.get("error", NO_ROOTS) == NO_ROOTS for r in recs)
    return recs


NO_ROOTS = "no regular root set converged from any palette start"


def bracket_terms(us, j, q, N):
    """The two terms of the residue of Lambda at v = u_j, coded here from the
    eigenvalue's product form, with the factor w(u_j^2) w(q^2 u_j^2) /
    w(q u_j^2) they share left out."""
    def w(x):
        return x - 1 / x

    u = us[j]
    ta = w(q * u) ** (2 * N) * w(1 / q)
    tb = w(u) ** (2 * N) * w(q)
    for k, x in enumerate(us):
        if k != j:
            den = w(u / x) * w(q * u * x)
            ta *= w(u / (q * x)) * w(u * x) / den
            tb *= w(q * u / x) * w(q * q * u * x) / den
    return ta, tb


class TestCheckRecords:
    def test_four_sites_match_the_closed_form(self):
        recs = bethe_records(4, 1)
        match = [r for r in recs if r["params"].get("part") == "closed-form-match"]
        assert [(r["params"]["found"], r["params"]["expected"], r["pass"]) for r in match] == [
            (6, 6, True)]

    def test_passed_root_sets_cancel_the_bracket(self):
        # at the excluded points u_j^2 in {+-1, +-1/q^2} the residue vanishes
        # through its prefactor while the two bracket terms stay apart
        passed = {}
        with mp.workprec(256):
            q = mp.mpf(2)
            for N, M in ((2, 2), (3, 2)):
                sets = [r["params"]["roots"] for r in bethe_records(N, M)
                        if r["pass"] and "roots" in r["params"]]
                for roots in sets:
                    us = [mp.mpmathify(s.strip("()").replace(" ", "")) for s in roots]
                    for j in range(M):
                        ta, tb = bracket_terms(us, j, q, N)
                        assert abs(ta + tb) / (abs(ta) + abs(tb)) < mp.mpf("1e-10"), roots
                passed[N, M] = len(sets)
        assert passed[2, 2] > 0
