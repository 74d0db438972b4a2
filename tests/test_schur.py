"""Partitions, Schur polynomials, and the determinant-to-Schur expansion.

Independent oracles: a brute-force semistandard-tableau enumerator for Schur
polynomials in few variables, sympy rational arithmetic spot values, the
Jacobi-Trudi/character agreement exercised over every partition of weight at
most six, a Jacobi-Trudi determinant of complete homogeneous polynomials
against the character form through weight eight, and the closed form
s_(a,b) = e_2^b h_(a-b) of two-row Schur functions in two variables.
"""

import random
from fractions import Fraction as F
from math import comb

import pytest

from tltau.algebra import FieldContext, MiwaPolynomial, QuadraticNumber, det_ring
from tltau.chain import ChainParams, ParameterVector, taylor_rows
from tltau.schur import (
    SchurCoeffMap,
    _schur_e,
    cauchy_binet_coeffs,
    complete_homogeneous,
    ell_indices,
    fhat_table,
    partition_normalize,
    partitions_bounded,
    poly_to_schur,
    schur_miwa,
    schur_points,
    slavnov_schur_coeffs,
    tau_schur_poly,
    tau_tilde_direct,
)
from tltau.tau import miwa_map
from reference import schur_sum_eval

RAT = FieldContext("rational")
QUAD = FieldContext("quadratic", d=377)


def params(N, M):
    return ChainParams(N, M, 1, F(2), F(-2), RAT)


def roots(*vals):
    return ParameterVector([F(x) for x in vals], "bethe")


def ssyt_schur(lam, values):
    """Brute-force Schur polynomial: sum over semistandard tableaux.

    Rows weakly increase, columns strictly increase, entries in 1..n.
    """
    lam = partition_normalize(lam)
    n = len(values)
    if not lam:
        return F(1)
    if len(lam) > n:
        return F(0)
    rows = [list(range(lam[i])) for i in range(len(lam))]
    total = F(0)
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]

    def fill(k, tab):
        nonlocal total
        if k == len(cells):
            term = F(1)
            for (i, j) in cells:
                term *= values[tab[(i, j)] - 1]
            total += term
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, tab[(i, j - 1)])
        if i > 0:
            lo = max(lo, tab[(i - 1, j)] + 1)
        for val in range(lo, n + 1):
            tab[(i, j)] = val
            fill(k + 1, tab)
        tab.pop((i, j), None)

    fill(0, {})
    return total


class TestPartitions:
    def test_normalize(self):
        assert partition_normalize((3, 2, 0, 0)) == (3, 2)
        assert partition_normalize([]) == ()
        with pytest.raises(ValueError):
            partition_normalize((2, 3))
        with pytest.raises(ValueError):
            partition_normalize((2, -1))

    def test_bounded_enumeration(self):
        parts = partitions_bounded(4)
        assert parts[0] == ()
        assert (4,) in parts and (1, 1, 1, 1) in parts
        assert len(parts) == 1 + 1 + 2 + 3 + 5
        assert parts == sorted(parts, key=lambda l: (sum(l), l))
        only2 = partitions_bounded(4, maxlen=2)
        assert all(len(l) <= 2 for l in only2)
        assert (2, 1, 1) not in only2 and (2, 2) in only2

    def test_ell_indices(self):
        assert ell_indices((3, 2), 3) == (5, 3, 0)
        assert ell_indices((), 2) == (1, 0)


class TestSchurValues:
    def test_empty_partition(self):
        assert schur_points((), [], RAT) == F(1)
        assert schur_points((), [F(2), F(3)], RAT) == F(1)

    def test_single_box(self):
        assert schur_points((1,), [F(2), F(3)], RAT) == F(5)

    def test_hook_pinned(self):
        # s_(2,1)(x, y) = x^2 y + x y^2 -> 2^2*3 + 2*3^2 = 30
        assert schur_points((2, 1), [F(2), F(3)], RAT) == F(30)

    def test_too_long_vanishes(self):
        assert schur_points((1, 1, 1), [F(2), F(3)], RAT) == F(0)
        assert schur_points((1, 1, 1), [F(2), F(2)], RAT) == F(0)

    def test_repeated_points_match_the_tableau_oracle(self):
        # s_lam is a polynomial, defined at coinciding points as anywhere else
        for lam in partitions_bounded(4):
            for pts in ([F(2), F(2)], [F(2), F(2), F(3)], [F(1, 3)] * 3):
                assert schur_points(lam, pts, RAT) == ssyt_schur(lam, pts), (lam, pts)

    def test_against_tableau_oracle(self):
        rng = random.Random(11)
        for lam in partitions_bounded(4):
            for n in (1, 2, 3):
                pts = []
                while len(pts) < n:
                    x = F(rng.randint(1, 9), rng.randint(1, 4))
                    if x not in pts:
                        pts.append(x)
                assert schur_points(lam, pts, RAT) == ssyt_schur(lam, pts)


def _stripped(poly):
    out = {}
    for key, c in poly.terms.items():
        while key and key[-1] == 0:
            key = key[:-1]
        out[key] = c
    return out


class TestMiwaSchur:
    def test_complete_homogeneous_low_degrees(self):
        hs = complete_homogeneous(RAT, 4, 4)
        assert _stripped(hs[0]) == {(): F(1)}
        assert _stripped(hs[1]) == {(1,): F(1)}
        # h2 = t1^2/2 + t2
        assert _stripped(hs[2]) == {(2,): F(1, 2), (0, 1): F(1)}

    def test_antisymmetric_pair(self):
        s11 = schur_miwa((1, 1), 4, RAT)
        assert _stripped(s11) == {(2,): F(1, 2), (0, 1): F(-1)}

    def test_points_vs_miwa_all_small_partitions(self):
        # Jacobi-Trudi at the points' e_k == character sum in power-sum times,
        # |lam| <= 6
        ptsets = ([F(2)], [F(2), F(3)], [F(1, 2), F(3), F(5, 7)])
        for lam in partitions_bounded(6):
            for pts in ptsets:
                want = schur_points(lam, pts, RAT)
                poly = schur_miwa(lam, 7, RAT)
                got = poly.evaluate(miwa_map(pts, poly.K, RAT))
                assert got == want, (lam, pts)

    def test_matches_jacobi_trudi(self):
        # det(h_{lam_i - i + j}) over Miwa polynomials, with the h's from
        # j h_j = sum_{m <= K} m t_m h_{j-m}, through weight 8 at K = cutoff
        # and K = 3
        cutoff = 8
        for K in (cutoff, 3):
            hs = [MiwaPolynomial.constant(RAT, K, cutoff, 1)]
            for j in range(1, cutoff + 1):
                acc = MiwaPolynomial(RAT, K, cutoff)
                for m in range(1, min(j, K) + 1):
                    tm = MiwaPolynomial.time_var(RAT, K, cutoff, m)
                    acc = acc + (tm * hs[j - m]).scale(F(m, j))
                hs.append(acc)
            zero = MiwaPolynomial(RAT, K, cutoff)
            for lam in partitions_bounded(cutoff):
                n = len(lam)
                rows = [[hs[lam[i] - i + j] if 0 <= lam[i] - i + j else zero
                         for j in range(n)] for i in range(n)]
                want = det_ring(rows) if n else hs[0]
                assert schur_miwa(lam, cutoff, RAT, K) == want, (lam, K)

    def test_weight_above_cutoff_rejected(self):
        with pytest.raises(ValueError):
            schur_miwa((3,), 2, RAT)


class TestElementarySchur:
    """s_lam in Lambda_M = Q[e_1..e_M], as the Lambda_M route holds it."""

    def test_two_rows_are_a_power_of_e2_times_a_complete_function(self):
        # s_(a,b)(x, y) = (x y)^b h_(a-b)(x, y), and in two variables
        # h_n = sum_j (-1)^j C(n-j, j) e_1^(n-2j) e_2^j
        for a, b in ((a, b) for a in range(11) for b in range(a + 1) if a + b <= 10):
            n = a - b
            want = {(n - 2 * j, b + j): (-1) ** j * comb(n - j, j) for j in range(n // 2 + 1)}
            assert dict(_schur_e(partition_normalize((a, b)), 2)) == want, (a, b)


class TestSeriesHelpers:
    def test_fhat_table_matches_series(self):
        from tltau.chain import f_series

        p = params(2, 1)
        u = roots(2)
        tab = fhat_table(p, u, 2, 3)
        s = f_series(p, u, 2, 0, 2 * 3 + 2)
        for n in range(4):
            assert tab[0][n] == s.coeff(2 * n + 2)


class TestCoeffMap:
    def test_roundtrip_and_equality(self):
        m1 = SchurCoeffMap(RAT, 4, {(): F(1), (1,): F(5)})
        m2 = SchurCoeffMap(RAT, 4, {(1,): F(5), (): F(1)})
        assert m1 == m2
        assert m1.coeff((2,)) == F(0)
        assert len(m1) == 2


class TestPolyToSchur:
    def test_roundtrip_small(self):
        # the Hall pairing inverts a sum of Schur polynomials: three rows through
        # weight 5 over Q, and every partition through weight 6 (up to six
        # rows) over Q and Q(sqrt 377)
        rng = random.Random(5)

        def draw(ctx):
            c = F(rng.randint(-9, 9), rng.randint(1, 5))
            if ctx is QUAD:
                return QuadraticNumber(c, F(rng.randint(-9, 9), rng.randint(1, 5)), 377)
            return c

        for ctx, cutoff, maxlen in ((RAT, 5, 3), (RAT, 6, 6), (QUAD, 6, 6)):
            entries = {lam: draw(ctx) for lam in partitions_bounded(cutoff, maxlen)}
            poly = MiwaPolynomial(ctx, cutoff, cutoff)
            for lam, c in entries.items():
                poly = poly + schur_miwa(lam, cutoff, ctx, K=cutoff).scale(c)
            back = poly_to_schur(poly, maxlen)
            assert back == {lam: c for lam, c in entries.items() if c}, (ctx, cutoff)
            # a row bound leaves the longer partitions out, the rest unchanged
            short = poly_to_schur(poly, 2)
            assert short == {lam: c for lam, c in back.items() if len(lam) <= 2}

    def test_rejects_small_variable_count(self):
        poly = MiwaPolynomial(RAT, 2, 4)
        with pytest.raises(ValueError):
            poly_to_schur(poly, 2)


class TestCauchyBinet:
    def test_m1_coefficients_are_table_entries(self):
        p = params(2, 1)
        u = roots(2)
        for fam in (1, 2):
            cmap = cauchy_binet_coeffs(p, u, fam, 5)
            tab = fhat_table(p, u, fam, 5)
            for n in range(5):
                lam = (n,) if n else ()
                assert cmap.coeff(lam) == tab[0][n]

    def test_empty_coefficient_pinned(self):
        p = params(2, 2)
        u = roots(2, 3)
        c1 = cauchy_binet_coeffs(p, u, 1, 4)
        c2 = cauchy_binet_coeffs(p, u, 2, 4)
        assert c1.coeff(()) == F(0)
        assert c2.coeff(()) == F(-715, 9)

    def test_length_bound(self):
        p = params(2, 2)
        cmap = cauchy_binet_coeffs(p, roots(2, 3), 2, 5)
        assert all(len(lam) <= 2 for lam in cmap.partitions())

    def test_z_variable_parity(self):
        # on the unsquared exponent lattice z = v the odd columns of the
        # Taylor table vanish, so the z-route minors vanish off the parity
        # class and match the y-route through the index shift
        # mu_j = (lam_j - j + M)/2 + j - M
        p = params(2, 2)
        u = roots(2, 3)
        M = 2
        cy = cauchy_binet_coeffs(p, u, 2, 4)
        half = fhat_table(p, u, 2, 4)
        ztab = [[half[i][n // 2] if n % 2 == 0 else F(0) for n in range(10)] for i in range(M)]
        cz = {}
        for lam in partitions_bounded(8, M):
            c = det_ring([[ztab[i][n] for n in ell_indices(lam, M)] for i in range(M)])
            if c:
                cz[lam] = c
        for lam, c in cz.items():
            padded = list(lam) + [0] * (M - len(lam))
            assert all((padded[j] - (j + 1) + M) % 2 == 0 for j in range(M))
            mu = tuple(
                (padded[j] - (j + 1) + M) // 2 + (j + 1) - M for j in range(M)
            )
            assert c == cy.coeff(partition_normalize(mu))

    def test_reconstruction_error_shrinks(self):
        p = params(2, 2)
        u = roots(2, 3)
        ys = [F(1, 40), F(1, 50)]
        for fam in (1, 2):
            direct = tau_tilde_direct(p, u, fam, ys)
            errs = []
            for cutoff in (4, 8):
                cmap = cauchy_binet_coeffs(p, u, fam, cutoff)
                approx = schur_sum_eval(cmap, ys, RAT)
                errs.append(RAT.magnitude(approx - direct))
            assert errs[1] < errs[0] or (errs[0] == 0 and errs[1] == 0)

    def test_tau_schur_poly_matches_coeffs(self):
        p = params(2, 1)
        u = roots(2)
        cutoff = 4
        cmap = cauchy_binet_coeffs(p, u, 1, cutoff)
        poly = tau_schur_poly(p, u, 1, cutoff)
        assert poly_to_schur(poly, p.M) == cmap.entries


class TestKernelExpansion:
    def test_normalized_quotient_two_ways_m1(self):
        # at M = 1 the Schur coefficients of the tau quotient are the Taylor
        # coefficients of the scalar series ratio
        p = params(2, 1)
        u = roots(2)
        cutoff = 6
        amap = slavnov_schur_coeffs(p, u, cutoff)
        rat = taylor_rows(p, u, 1, cutoff)[0] / taylor_rows(p, u, 2, cutoff)[0]
        assert len(amap) == cutoff + 1
        for n in range(cutoff + 1):
            lam = (n,) if n else ()
            assert amap.coeff(lam) == rat.coeff(n)

    def test_empty_ratio_m2(self):
        p = params(2, 2)
        u = roots(2, 3)
        amap = slavnov_schur_coeffs(p, u, 5)
        assert amap.coeff(()) == F(0)
        assert all(len(lam) <= 2 for lam in amap.partitions())

    def test_kernel_sum_error_shrinks(self):
        from tltau.chain import kernel_y

        p = params(2, 1)
        u = roots(2)
        ys = [F(1, 20)]
        direct = kernel_y(p, u, ys)
        pref = ys[0] ** (-p.N)
        errs = []
        for cutoff in (4, 8):
            amap = slavnov_schur_coeffs(p, u, cutoff)
            approx = pref * schur_sum_eval(amap, ys, RAT)
            errs.append(RAT.magnitude(approx - direct))
        assert errs[1] < errs[0] or (errs[0] == 0 and errs[1] == 0)
