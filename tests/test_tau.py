"""Tau quotients, bilinear identities, and the residue representation.

Determinant taus are cross-checked against the residue sum, the Hirota
machinery against hand-expanded small cases, and the moment-determinant
symmetrization against exhaustive enumeration.
"""

import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from tltau.algebra import FieldContext, MiwaPolynomial, det, vandermonde
from tltau.chain import ChainParams, ParameterVector, family_matrix, kernel, lambda_du
from tltau.schur import tau_schur_poly
from tltau.tau import (
    andreev_residual,
    baker_akhiezer,
    det_family,
    hirota_apply,
    hirota_kp_check,
    kp_operator,
    miwa_map,
    pluecker_residual,
    tau_det,
    tau_residue,
)

RAT = FieldContext("rational")
# Hirota operators D1, D2, D3 and D1^3 - 4 D3 as {exponent tuple: coefficient}
D1, D2, D3 = {(1,): F(1)}, {(0, 1): F(1)}, {(0, 0, 1): F(1)}
D1_CUBED_MINUS_4D3 = {(3,): F(1), (0, 0, 1): F(-4)}


def params(N, M):
    return ChainParams(N, M, 1, F(2), F(-2), RAT)


def roots(*vals):
    return ParameterVector([F(x) for x in vals], "bethe")


class TestMiwaTimes:
    def test_from_points(self):
        assert miwa_map([F(2)], 3, RAT) == (F(2), F(2), F(8, 3))
        t2 = miwa_map([F(2), F(3)], 4, RAT)
        assert t2[0] == F(5)
        assert t2[1] == F(13, 2)

    def test_deleted_point_identity_on_tau(self):
        # the Baker-Akhiezer shift by [x] at z = 1/x deletes the point x:
        # psi_aa(t(X), 1/x) tau_a(t(X)) = tau_a(t(X without x))
        K = 8
        for M, pts in ((1, [F(1, 9)]), (2, [F(1, 9), F(1, 11)])):
            p = params(2, M)
            u = roots(*([2, 3][:M]))
            t = miwa_map(pts, K, RAT)
            for fam in (1, 2):
                poly = tau_schur_poly(p, u, fam, 8, K)
                psi = baker_akhiezer(p, u, fam, fam, t, z=1 / pts[-1])
                assert psi * poly.evaluate(t) == poly.evaluate(miwa_map(pts[:-1], K, RAT))


class TestTauQuotient:
    def test_residue_equals_determinant(self):
        rng = random.Random(7)
        for N, M in ((2, 2), (2, 3), (3, 2)):
            p = params(N, M)
            uvals, pts = _draw(rng, p, M)
            u = roots(*uvals)
            for fam in (1, 2):
                a = tau_det(p, u, fam, pts)
                b = tau_residue(p, u, fam, pts)
                assert a == b, (N, M, fam)

    def test_kernel_is_tau_quotient(self):
        rng = random.Random(9)
        for N, M in ((2, 1), (2, 2), (3, 2)):
            p = params(N, M)
            uvals, pts = _draw(rng, p, M)
            u = roots(*uvals)
            t1 = tau_det(p, u, 1, pts)
            t2 = tau_det(p, u, 2, pts)
            got = kernel(p, u, ParameterVector(pts, "free"))
            assert got == t1 / t2

    def test_determinant_matches_vandermonde_quotient(self):
        p = params(2, 2)
        u = roots(2, 3)
        pts = [F(5), F(7, 2)]
        mat = family_matrix(p, u, 1, pts)
        assert mat[0][1] == lambda_du(p, 0, pts[1], u)
        assert det_family(p, u, 1, pts) == det(mat, RAT)
        dv = vandermonde(pts, RAT)
        assert tau_det(p, u, 1, pts) == det(mat, RAT) / dv

    def test_point_count_enforced(self):
        p = params(2, 2)
        u = roots(2, 3)
        with pytest.raises(ValueError):
            tau_det(p, u, 1, [F(1, 9)])
        with pytest.raises(ValueError):
            tau_det(p, u, 1, [F(1, 9), F(1, 9)])


def _draw(rng, p, npts):
    """Bethe roots plus distinct evaluation points clear of the exclusions."""
    from tltau.chain import PoleError, validate_uv

    while True:
        uvals = []
        while len(uvals) < p.M:
            x = F(rng.randint(2, 19), rng.randint(1, 7))
            if x not in uvals:
                uvals.append(x)
        pts = []
        while len(pts) < npts:
            v = F(rng.randint(20, 90), rng.randint(1, 11))
            if v not in pts:
                pts.append(v)
        try:
            u = ParameterVector(uvals, "bethe")
            validate_uv(p, u, pts)
            kernel(p, u, ParameterVector(pts, "free"))
        except (PoleError, ValueError):
            continue
        return uvals, pts


class TestPluecker:
    def test_residual_vanishes_m2(self):
        p = params(2, 2)
        u = roots(2, 3)
        X = [F(5), F(7, 2), F(9, 4)]
        Y = [F(11, 5)]
        for fam in (1, 2):
            assert pluecker_residual(p, u, fam, X, Y) == F(0)

    def test_residual_vanishes_m3(self):
        p = params(2, 3)
        u = roots(2, 3, 5)
        X = [F(7), F(9, 2), F(11, 3), F(13, 6)]
        Y = [F(17, 5), F(19, 7)]
        for fam in (1, 2):
            assert pluecker_residual(p, u, fam, X, Y) == F(0)

    def test_sizes_enforced(self):
        p = params(2, 2)
        u = roots(2, 3)
        with pytest.raises(ValueError):
            pluecker_residual(p, u, 1, [F(5), F(7, 2)], [F(11, 5)])

    def test_sign_alternation_is_essential(self):
        # the same minors summed without alternating signs are nonzero, so
        # the vanishing residual is not an artifact of degenerate data
        p = params(2, 2)
        u = roots(2, 3)
        X = [F(5), F(7, 2), F(9, 4)]
        Y = [F(11, 5)]
        assert pluecker_residual(p, u, 1, X, Y) == 0
        acc = F(0)
        for i, xi in enumerate(X):
            rest = [x for x in X if x is not xi]
            d1 = det(family_matrix(p, u, 1, rest), RAT)
            d2 = det(family_matrix(p, u, 1, Y + [xi]), RAT)
            acc += d1 * d2
        assert acc != 0


class TestHirota:
    def test_single_d1_on_monomials(self):
        # D1 (t1 . t1^2) = 2 t1 * t1 ... expanded: t1^2 (hand value)
        K = 3
        f = MiwaPolynomial.time_var(RAT, K, 6, 1)
        g = f * f
        out = hirota_apply(D1, f, g)
        want = (f * f).scale(F(1)).restrict(5)
        assert out == want

    def test_antisymmetry_kills_diagonal(self):
        # any odd-total-weight operator annihilates (f, f)
        K = 4
        rng = random.Random(3)
        f = MiwaPolynomial.constant(RAT, K, 8, F(1))
        for lam in ((1,), (2,), (3,), (1, 1)):
            f = f + MiwaPolynomial.time_var(RAT, K, 8, 1).scale(
                F(rng.randint(-5, 5), rng.randint(1, 3))
            )
        for terms in (D1, D2, D1_CUBED_MINUS_4D3):
            assert hirota_apply(terms, f, f).is_zero()

    def test_random_polynomial_diagonal(self):
        rng = random.Random(17)
        K = 4
        terms = {}
        for key in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0),
                    (1, 1, 0, 0), (0, 0, 1, 0), (3, 0, 0, 0)):
            terms[key] = F(rng.randint(-9, 9), rng.randint(1, 4))
        f = MiwaPolynomial(RAT, K, 8, terms)
        for terms in (D1, D3, D1_CUBED_MINUS_4D3):
            assert hirota_apply(terms, f, f).is_zero()

    def test_kp_on_trivial_taus(self):
        one = MiwaPolynomial.constant(RAT, 4, 8, F(1))
        assert hirota_kp_check(one).is_zero()
        linear = one + MiwaPolynomial.time_var(RAT, 4, 8, 1)
        assert hirota_kp_check(linear).is_zero()

    def test_kp_operator_terms(self):
        assert kp_operator() == {(4,): 1, (0, 2): 3, (1, 0, 1): -4}

    def test_kp_detects_a_non_tau(self):
        # 1 + t1^4 is not a tau function: the restricted residual must survive
        K = 4
        bad = MiwaPolynomial.constant(RAT, K, 8, F(1))
        t1 = MiwaPolynomial.time_var(RAT, K, 8, 1)
        bad = bad + t1 * t1 * t1 * t1
        assert not hirota_kp_check(bad).is_zero()

    def test_kp_matches_the_seven_product_form(self):
        # (D1^4 + 3 D2^2 - 4 D1 D3) f.f written out by Leibniz:
        # 2[f f1111 - 4 f1 f111 + 3 f11^2 + 3 f f22 - 3 f2^2 - 4 f f13 + 4 f1 f3],
        # which the truncation rules know through f.cutoff - 4
        K, cutoff = 4, 8
        rng = random.Random(5)
        t = [MiwaPolynomial.time_var(RAT, K, cutoff, m) for m in range(1, K + 1)]
        f = MiwaPolynomial.constant(RAT, K, cutoff, F(1)) + t[0] * t[0] * t[0] * t[0]
        for _ in range(6):
            mono = MiwaPolynomial.constant(RAT, K, cutoff, F(rng.randint(-5, 5), rng.randint(1, 4)))
            for m in rng.sample(range(K), rng.randint(1, 3)):
                mono = mono * t[m]
            f = f + mono

        def d(*ms):
            return functools.reduce(MiwaPolynomial.deriv, ms, f)

        seven = (
            f * d(1, 1, 1, 1) - (d(1) * d(1, 1, 1)).scale(F(4))
            + (d(1, 1) * d(1, 1)).scale(F(3)) + (f * d(2, 2)).scale(F(3))
            - (d(2) * d(2)).scale(F(3)) - (f * d(1, 3)).scale(F(4))
            + (d(1) * d(3)).scale(F(4))
        ).scale(F(2))
        got = hirota_kp_check(f)
        assert got.cutoff == cutoff - 4
        assert got == seven
        assert not got.is_zero()

    def test_kp_residual_takes_each_derivative_once(self, monkeypatch):
        # d/dt1 serves D1^4 and D1 D3 under one key, whatever its written
        # length: D1^4 takes 4 + 1 + 3 + 2 passes, 3 D2^2 takes 2 + 1, and
        # -4 D1 D3 takes 2 + 1, as (1, 0, 0) is (1,); 17 with two keys
        p, u = params(2, 2), roots(2, 3)
        deriv, calls = MiwaPolynomial.deriv, []
        monkeypatch.setattr(MiwaPolynomial, "deriv", lambda f, m: calls.append(m) or deriv(f, m))
        for fam in (1, 2):
            tau = tau_schur_poly(p, u, fam, 8)
            del calls[:]
            assert hirota_kp_check(tau).is_zero()
            assert sorted(calls) == [1] * 11 + [2] * 3 + [3] * 2

    def test_result_cutoff_follows_the_operator_weight(self):
        K = 4
        f = MiwaPolynomial.constant(RAT, K, 8, F(1)) + MiwaPolynomial.time_var(RAT, K, 8, 2)
        g = MiwaPolynomial.constant(RAT, K, 6, F(2)) + MiwaPolynomial.time_var(RAT, K, 6, 1)
        for op, weight in ((D1, 1), (D2, 2), (D1_CUBED_MINUS_4D3, 3), (kp_operator(), 4)):
            assert hirota_apply(op, f, g).cutoff == 6 - weight
            assert hirota_apply(op, g, f).cutoff == 6 - weight

    def test_kp_on_reconstructed_taus(self):
        for M in (1, 2):
            p = params(2, M)
            u = roots(*([2, 3][:M]))
            for fam in (1, 2):
                tau = tau_schur_poly(p, u, fam, 8)
                assert hirota_kp_check(tau).is_zero(), (M, fam)

    def test_operator_validation(self):
        # D_3 acting on polynomials in t_1, t_2 only
        f = MiwaPolynomial.constant(RAT, 2, 6, F(1))
        with pytest.raises(ValueError):
            hirota_apply(D3, f, f)
        f = MiwaPolynomial.constant(RAT, 3, 6, F(1))
        g = MiwaPolynomial.constant(RAT, 4, 6, F(1))
        with pytest.raises(ValueError):
            hirota_apply(D1, f, g)


class TestBakerAkhiezer:
    def test_diagonal_normalization(self):
        p = params(2, 2)
        u = roots(2, 3)
        t = miwa_map([F(1, 9), F(1, 11)], 8, RAT)
        for fam in (1, 2):
            assert baker_akhiezer(p, u, fam, fam, t) == F(1)

    def test_off_diagonal_product(self):
        p = params(2, 2)
        u = roots(2, 3)
        t = miwa_map([F(1, 9), F(1, 11)], 8, RAT)
        a = baker_akhiezer(p, u, 1, 2, t)
        b = baker_akhiezer(p, u, 2, 1, t)
        assert a * b == F(1)

    def test_shifted_argument_runs(self):
        p = params(2, 1)
        u = roots(2)
        t = miwa_map([F(1, 9)], 8, RAT)
        val = baker_akhiezer(p, u, 1, 2, list(t), z=F(100))
        assert val != 0
        assert val == baker_akhiezer(p, u, 1, 2, t, z=F(100))


class TestAndreev:
    def test_exhaustive_small(self):
        # the reference route is (1/M!) times the summand over all n^M index
        # tuples, repeated indices included; the engine's right-hand side,
        # det S less the residual, must equal it
        rng = random.Random(13)
        for M in (1, 2, 3):
            for n in range(M, M + 4):
                pts = [F(k + 1) for k in range(n)]
                weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
                fvals = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(M)]
                gvals = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(M)]
                residual = andreev_residual(RAT, pts, weights, fvals, gvals)
                assert residual == F(0)
                reference = sum(
                    math.prod(weights[k] for k in ks)
                    * det([[row[k] for k in ks] for row in fvals], RAT)
                    * det([[row[k] for k in ks] for row in gvals], RAT)
                    for ks in itertools.product(range(n), repeat=M)
                ) / math.factorial(M)
                smat = [[sum(w * f * g for w, f, g in zip(weights, frow, grow)) for grow in gvals]
                        for frow in fvals]
                assert det(smat, RAT) - residual == reference

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            andreev_residual(RAT, [F(1)], [F(1)], [[F(1)]], [])
        with pytest.raises(ValueError):
            andreev_residual(RAT, [F(1), F(2)], [F(1)], [[F(1), F(2)]], [[F(1), F(2)]])
