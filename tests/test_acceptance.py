"""End-to-end acceptance gate.

Each criterion prints exactly one verdict line.  Exact-field criteria demand
literal equality, float criteria carry explicit tolerances, and the stated
wall-clock budgets are asserted alongside the mathematics.
"""

import random
import time
from fractions import Fraction as F
from math import comb

from mpmath import mp

from tltau.algebra import FieldContext
from tltau.bethe import closed_form_single_roots, solve_bethe_grid
from tltau.chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    g_prefactor,
    kernel,
    kernel_y,
    lambda_eval,
    slavnov,
    validate_uv,
)
from tltau.diagrams import count_closed, count_nested, enumerate_admissible
from tltau.schur import (
    cauchy_binet_coeffs,
    partitions_bounded,
    schur_miwa,
    schur_points,
    slavnov_schur_coeffs,
    tau_schur_poly,
    tau_tilde_direct,
)
from tltau.tau import (
    baker_akhiezer,
    hirota_apply,
    hirota_kp_check,
    miwa_map,
    pluecker_residual,
    tau_det,
    tau_residue,
)
from reference import lambda_series, schur_sum_eval

RAT = FieldContext("rational")


def _verdict(num, name, fn, limit=None):
    t0 = time.monotonic()
    try:
        fn()
        dt = time.monotonic() - t0
        ok = limit is None or dt < limit
    except BaseException:
        dt = time.monotonic() - t0
        print("criterion-%02d %s: FAIL (%.2fs)" % (num, name, dt))
        raise
    print("criterion-%02d %s: %s (%.2fs)" % (num, name, "PASS" if ok else "FAIL", dt))
    assert ok, "wall-clock budget exceeded: %.2fs, limit %ss" % (dt, limit)


def _draw_u(rng, p, lo=2, hi=19, maxden=7):
    while True:
        vals = []
        while len(vals) < p.M:
            x = F(rng.randint(lo, hi), rng.randint(1, maxden))
            if x not in vals:
                vals.append(x)
        try:
            u = ParameterVector(vals, "bethe")
            validate_uv(p, u, [])
        except (PoleError, ValueError):
            continue
        return u


def _draw_instance(rng, p, npts):
    while True:
        u = _draw_u(rng, p)
        pts = []
        while len(pts) < npts:
            v = F(rng.randint(20, 120), rng.randint(1, 13))
            if v not in pts:
                pts.append(v)
        try:
            validate_uv(p, u, pts)
            if p.M == npts:
                kernel(p, u, ParameterVector(pts, "free"))
        except (PoleError, ValueError):
            continue
        return u, pts


def test_criterion_01_kernel_equals_tau_quotient():
    def body():
        rng = random.Random(101)
        for Q in (F(-2), F(-3, 2)):
            for N in (2, 3, 4):
                for M in (1, 2):
                    p = ChainParams.from_boundary(N, M, 1, Q)
                    for _ in range(20):
                        u, pts = _draw_instance(rng, p, M)
                        t1 = tau_det(p, u, 1, pts)
                        t2 = tau_det(p, u, 2, pts)
                        assert kernel(p, u, ParameterVector(pts, "free")) == t1 / t2

    _verdict(1, "kernel equals tau quotient", body, limit=5)


def test_criterion_02_pluecker_exchange_vanishes():
    def body():
        rng = random.Random(202)
        for M in (1, 2, 3):
            p = ChainParams.from_boundary(2, M, 1, F(-2))
            for _ in range(20):
                u, pts = _draw_instance(rng, p, 2 * M)
                X, Y = pts[: M + 1], pts[M + 1 :]
                for fam in (1, 2):
                    assert pluecker_residual(p, u, fam, X, Y) == 0

    _verdict(2, "exchange relation vanishes", body, limit=10)


def test_criterion_03_residue_sum_equals_determinant():
    def body():
        rng = random.Random(303)
        for M in (1, 2, 3):
            p = ChainParams.from_boundary(2, M, 1, F(-2))
            for _ in range(20):
                u, pts = _draw_instance(rng, p, M)
                for fam in (1, 2):
                    assert tau_det(p, u, fam, pts) == tau_residue(p, u, fam, pts)

    _verdict(3, "residue sum equals determinant", body, limit=10)


def test_criterion_04_eigenvalue_series_structure():
    def body():
        rng = random.Random(404)
        even_checks = 0
        for N, M in ((2, 1), (2, 2), (3, 1), (3, 2)):
            p = ChainParams.from_boundary(N, M, 1, F(-2))
            q = p.q
            want = -(1 + q ** (2 * (N - 2 * M + 1))) / q ** (2 * (N - M) + 1)
            for _ in range(5):
                u = _draw_u(rng, p)
                s = lambda_series(p, u, order=2)
                assert s.min_exp() == -2 * N
                assert s.coeff(-2 * N) == want
                assert s.is_even()
        # pointwise evenness at 50 parameter draws
        p = ChainParams.from_boundary(2, 2, 1, F(-2))
        done = 0
        while done < 50:
            u = _draw_u(rng, p)
            v = F(rng.randint(1, 60), rng.randint(1, 37))
            try:
                validate_uv(p, u, [v])
            except (PoleError, ValueError):
                continue
            assert lambda_eval(p, v, u) == lambda_eval(p, -v, u)
            done += 1

    _verdict(4, "eigenvalue series structure", body)


def test_criterion_05_bilinear_identities():
    def body():
        for M in (1, 2):
            p = ChainParams.from_boundary(2, M, 1, F(-2))
            u = ParameterVector([F(2), F(3)][:M], "bethe")
            for fam in (1, 2):
                tau = tau_schur_poly(p, u, fam, 8)
                for terms in ({(1,): F(1)}, {(0, 1): F(1)}, {(3,): F(1), (0, 0, 1): F(-4)}):
                    assert hirota_apply(terms, tau, tau).is_zero()
                assert hirota_kp_check(tau).is_zero()

    _verdict(5, "bilinear identities on reconstructed taus", body, limit=30)


def test_criterion_06_schur_reconstruction():
    def body():
        ptsets = ([F(2)], [F(2), F(3)], [F(1, 2), F(3), F(5, 7)])
        for lam in partitions_bounded(6):
            for pts in ptsets:
                poly = schur_miwa(lam, 7, RAT)
                got = poly.evaluate(miwa_map(pts, poly.K, RAT))
                assert got == schur_points(lam, pts, RAT)
        rng = random.Random(606)
        cases = (
            (ChainParams.from_boundary(2, 1, 1, F(-2)), (F(2),), 17),
            (ChainParams.from_boundary(2, 2, 1, F(-2)), (F(2), F(3)), 37),
        )
        for p, uvals, minden in cases:
            u = ParameterVector(list(uvals), "bethe")
            for fam in (1, 2):
                lo = cauchy_binet_coeffs(p, u, fam, 6)
                hi = cauchy_binet_coeffs(p, u, fam, 8)
                for _ in range(10):
                    ys = []
                    while len(ys) < p.M:
                        y = F(1, rng.randint(minden, 3 * minden))
                        if y not in ys:
                            ys.append(y)
                    direct = tau_tilde_direct(p, u, fam, ys)
                    e0 = RAT.magnitude(schur_sum_eval(lo, ys, RAT) - direct)
                    e1 = RAT.magnitude(schur_sum_eval(hi, ys, RAT) - direct)
                    assert e1 < e0 or (e0 == 0 and e1 == 0)

    _verdict(6, "Schur reconstruction of the taus", body)


def test_criterion_07_kernel_expansion():
    def body():
        cases = (
            (ChainParams.from_boundary(2, 1, 1, F(-2)), (F(2),), [F(1, 20)]),
            (ChainParams.from_boundary(2, 2, 1, F(-2)), (F(2), F(3)), [F(1, 40), F(1, 50)]),
        )
        for p, uvals, ys in cases:
            u = ParameterVector(list(uvals), "bethe")
            direct = kernel_y(p, u, ys)
            pref = RAT.one()
            for y in ys:
                pref = pref * y ** (-p.N)
            errs = []
            for cutoff in (6, 8):
                amap = slavnov_schur_coeffs(p, u, cutoff)
                errs.append(RAT.magnitude(pref * schur_sum_eval(amap, ys, RAT) - direct))
            assert errs[1] < errs[0] or (errs[0] == 0 and errs[1] == 0)

    _verdict(7, "kernel Schur expansion converges", body)


def test_criterion_08_wave_function_normalization():
    def body():
        rng = random.Random(808)
        done = 0
        while done < 10:
            M = 1 + (done % 2)
            p = ChainParams.from_boundary(2, M, 1, F(-2))
            u = ParameterVector([F(2), F(3)][:M], "bethe")
            pts = []
            while len(pts) < M:
                y = F(1, rng.randint(9, 80))
                if y not in pts:
                    pts.append(y)
            K = 8
            t = miwa_map(pts, K, RAT)
            try:
                assert baker_akhiezer(p, u, 1, 1, t) == 1
                assert baker_akhiezer(p, u, 2, 2, t) == 1
                a = baker_akhiezer(p, u, 1, 2, t)
                b = baker_akhiezer(p, u, 2, 1, t)
            except ZeroDivisionError:
                continue
            assert a * b == 1
            for fam in (1, 2):
                poly = tau_schur_poly(p, u, fam, 8, K)
                psi = baker_akhiezer(p, u, fam, fam, t, z=1 / pts[-1])
                assert psi * poly.evaluate(t) == poly.evaluate(miwa_map(pts[:-1], K, RAT))
            done += 1

    _verdict(8, "wave-function normalization and point deletion", body)


def test_criterion_09_diagram_counts():
    def body():
        for lam in range(1, 50, 2):
            assert count_closed(2, lam) == len(enumerate_admissible(2, lam))
        for lam in range(0, 31, 2):
            assert count_closed(3, lam) == len(enumerate_admissible(3, lam))
        for M in range(1, 6):
            start = 0 if (M + 1) % 2 == 0 else 1
            for lam in range(start, 13, 2):
                n = len(enumerate_admissible(M, lam))
                assert count_nested(M, lam) == n
                assert comb((lam + M - 1) // 2 + 1, M) == n
        for lam in range(0, 49, 2):
            assert count_closed(1, lam) == (lam + 2) // 2

    _verdict(9, "admissible diagram counts", body, limit=5)


def test_criterion_10_moment_determinant_symmetrization():
    def body():
        from tltau.tau import andreev_residual

        rng = random.Random(1010)
        for _ in range(20):
            M = rng.randint(1, 3)
            n = rng.randint(4, 6)
            pts = [F(k + 1) for k in range(n)]
            weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            fvals = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(M)]
            gvals = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(M)]
            assert andreev_residual(RAT, pts, weights, fvals, gvals) == 0

    _verdict(10, "moment determinant symmetrization", body)


def test_criterion_11_on_shell_roots():
    def _identities_hold(p, u, pts, tol):
        # the first three criteria, restated with a float tolerance
        vm = ParameterVector(pts[: p.M], "free")
        t1 = tau_det(p, u, 1, pts[: p.M])
        t2 = tau_det(p, u, 2, pts[: p.M])
        k = kernel(p, u, vm)
        assert abs(k - t1 / t2) <= tol * max(1, abs(k))
        for fam in (1, 2):
            X, Y = pts[: p.M + 1], pts[p.M + 1 : 2 * p.M]
            r = pluecker_residual(p, u, fam, X, Y)
            scale = max(1, abs(t1), abs(t2))
            assert abs(r) <= tol * scale
            a = tau_det(p, u, fam, pts[: p.M])
            b = tau_residue(p, u, fam, pts[: p.M])
            assert abs(a - b) <= tol * max(1, abs(a))
        lhs = slavnov(p, u, vm)
        rhs = g_prefactor(p, u, vm) * k
        assert abs(lhs - rhs) <= tol * max(1, abs(lhs))

    def body():
        tol = mp.mpf("1e-20")
        for N in (2, 3):
            ctx = FieldContext("float", prec=192)
            p = ChainParams(N, 1, 1, ctx.embed(2), ctx.embed(-2), ctx)
            want = closed_form_single_roots(p)
            sols = solve_bethe_grid(p, tol=mp.mpf("1e-30"))
            assert len(sols) == len(want)
            pts = [ctx.embed(F(7, 3)), ctx.embed(F(9, 4)), ctx.embed(F(11, 5))]
            for s in sols:
                assert s.converged
                assert s.max_residual() < mp.mpf("1e-10")
                r = s.roots[0]
                if r.real < 0 or (r.real == 0 and r.imag < 0):
                    r = -r
                assert min(abs(r - w) for w in want) < mp.mpf("1e-10")
                _identities_hold(p, ParameterVector(s.roots, "bethe"), pts, tol)
            # the same identities off-shell
            _identities_hold(p, ParameterVector([ctx.embed(F(5, 2))], "bethe"), pts, tol)

    _verdict(11, "on-shell root certification", body)


def test_criterion_12_higher_spin_quadratic_field():
    def body():
        rng = random.Random(1212)
        for N in (2, 3, 4):
            for M in (1, 2):
                p = ChainParams.from_boundary(N, M, 2, F(2), mode="quadratic")
                ctx = p.ctx
                done = 0
                while done < 20:
                    ui = []
                    while len(ui) < M:
                        x = F(rng.randint(2, 19), rng.randint(1, 7))
                        if x not in ui:
                            ui.append(x)
                    vi = []
                    while len(vi) < M:
                        x = F(rng.randint(20, 120), rng.randint(1, 13))
                        if x not in vi:
                            vi.append(x)
                    try:
                        u = ParameterVector([ctx.embed(x) for x in ui], "bethe")
                        pts = [ctx.embed(x) for x in vi]
                        pv = ParameterVector(pts, "free")
                        validate_uv(p, u, pts)
                        t1 = tau_det(p, u, 1, pts)
                        t2 = tau_det(p, u, 2, pts)
                        assert kernel(p, u, pv) == t1 / t2
                    except (PoleError, ValueError, ZeroDivisionError):
                        continue
                    done += 1

    _verdict(12, "higher-spin quadratic-field quotient", body)
