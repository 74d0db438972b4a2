"""The expansion pipeline's shortcuts against the direct routes they replace.

Each test keeps a local copy of the direct route: a Schur polynomial per
partition summed with its coefficient, every beta of a Hirota operator on
(tau, tau), the KP residual of tau in all the times with every product
through its operands' cutoff, one Taylor series per row, one bialternant
per partition, the Miwa product over all term pairs, the Hall pairing of
every partition with every monomial, the tau quotient formed in all the
times (not in the symmetric functions of M variables) and read back by that
pairing, and a schur-expansion record from two separate Schur sums.
They are compared exactly on rational instances and on one instance over
Q(sqrt 377); the last three also in float mode, where the order of the sums
shows.
"""

import importlib.util
import math
import random
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from tltau import cli, schur
from tltau.algebra import (
    FieldContext,
    MiwaPolynomial,
    Rational,
    det,
    miwa_series_invert,
    vandermonde,
    weighted_degree,
)
from tltau.chain import ChainParams, ParameterVector, taylor_rows
from tltau.cli import draw_instance
from tltau.schur import (
    SchurCoeffMap,
    _character,
    cauchy_binet_coeffs,
    ell_indices,
    fhat_table,
    partitions_bounded,
    poly_to_schur,
    schur_miwa,
    slavnov_schur_coeffs,
    tau_schur_poly,
)
from tltau.tau import hirota_apply, hirota_kp_check, kp_operator
from reference import schur_sum_eval

RAT = FieldContext("rational")


def _instances():
    """(params, u) for three rational sizes and one quadratic one."""
    out = []
    for N, M, seed in ((2, 1, 3), (2, 2, 1), (3, 3, 7)):
        p = ChainParams(N, M, 1, F(2), F(-2), RAT)
        out.append((p, draw_instance(p, random.Random(seed), vcount=0)[0]))
    p = ChainParams.from_boundary(N=2, M=2, spin_twice=2, Q=F(2), mode="quadratic")
    out.append((p, draw_instance(p, random.Random(5), vcount=0)[0]))
    return out


INSTANCES = _instances()
IDS = ["N2M1", "N2M2", "N3M3", "quadratic-N2M2"]
QUADRATIC = {"field_mode": "quadratic", "spin_twice": 2, "Q": "2"}


# -- the direct routes --------------------------------------------------------


def direct_schur_miwa(lam, cutoff, ctx, K):
    weight = sum(lam)
    terms = {}
    for mu in partitions_bounded(weight):
        if sum(mu) == weight and max(mu, default=0) <= K:
            key = tuple(mu.count(m) for m in range(1, K + 1))
            denom = math.prod(map(math.factorial, key))
            terms[key] = ctx.embed(F(_character(lam, mu), denom))
    return MiwaPolynomial(ctx, K, cutoff, terms)


def direct_tau_schur_poly(p, u, family, cutoff, K):
    acc = MiwaPolynomial(p.ctx, K, cutoff)
    for lam, c in cauchy_binet_coeffs(p, u, family, cutoff).items():
        acc = acc + direct_schur_miwa(lam, cutoff, p.ctx, K).scale(c)
    return acc


def direct_hirota_apply(op, f, g):
    out = MiwaPolynomial(f.ctx, f.K, min(f.cutoff, g.cutoff))
    for alpha, c in op.items():
        for beta in product(*(range(a + 1) for a in alpha)):
            coeff = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            if sum(beta) % 2:
                coeff = -coeff
            df, dg = f, g
            for m, (a, b) in enumerate(zip(alpha, beta), 1):
                for _ in range(b):
                    df = df.deriv(m)
                for _ in range(a - b):
                    dg = dg.deriv(m)
            out = out + (df * dg).scale(c * f.ctx.embed(coeff))
    return out


def direct_kp_residual(p, u, family, D):
    """The KP residual of tau in all the times t_1..t_D, every product formed
    through its operands' cutoff, then read through weight D - 4 in the times
    t_1..t_K of the hirota check: the keys lose entries that must be zero."""
    K = max(D - 4, 3)
    full = direct_hirota_apply(kp_operator(), *[tau_schur_poly(p, u, family, D, D)] * 2)
    assert all(not any(key[K:]) for key in full.terms)
    return MiwaPolynomial(p.ctx, K, D - 4, {key[:K]: c for key, c in full.terms.items()})


def direct_mul(f, g):
    cutoff = min(f.cutoff, g.cutoff)
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            if weighted_degree(k1) + weighted_degree(k2) <= cutoff:
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, f.ctx.zero()) + c1 * c2
    return MiwaPolynomial(f.ctx, f.K, cutoff, out)


def direct_schur_sum_eval(cmap, points, ctx):
    # bialternants: s_lam(x) = det(x_i^(lam_j - j + n)) / det(x_i^(n - j))
    acc = ctx.zero()
    for lam, c in cmap.items():
        if len(lam) <= len(points):
            rows = [[x**l for l in ell_indices(lam, len(points))] for x in points]
            acc = acc + c * det(rows, ctx) / vandermonde(points, ctx)
    return acc


def direct_poly_to_schur(poly, maxlen):
    ctx = poly.ctx
    acc = {lam: ctx.zero() for lam in partitions_bounded(poly.cutoff, maxlen)}
    for key, c in poly.terms.items():
        mu = tuple(m for m in range(poly.K, 0, -1) for _ in range(key[m - 1]))
        denom = math.prod(m**k for m, k in enumerate(key, 1))
        for lam in acc:
            if sum(lam) == sum(mu) and (chi := _character(lam, mu)):
                acc[lam] = acc[lam] + ctx.embed(F(chi, denom)) * c
    return {lam: a for lam, a in acc.items() if a}


def direct_shrink_record(ctx, hi, cutoff, samples, blob, seed):
    lo = SchurCoeffMap(ctx, cutoff, {lam: c for lam, c in hi.entries.items()
                                     if sum(lam) <= cutoff})
    shrank = True
    worst_pair = (0.0, 0.0)
    for w, pref, direct in samples:
        dlo = ctx.magnitude(pref * schur_sum_eval(lo, w, ctx) - direct)
        dhi = ctx.magnitude(pref * schur_sum_eval(hi, w, ctx) - direct)
        if not dhi * 16 <= dlo <= ctx.magnitude(direct):
            shrank = False
        if dhi > worst_pair[1]:
            worst_pair = (dlo, dhi)
    return blob, seed, "%g -> %g" % worst_pair, shrank


# -- comparisons -------------------------------------------------------------------


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_one_character_pass_is_the_sum_of_schur_polynomials(p, u):
    for family, cutoff, K in product((1, 2), (4, 7), (None, 3)):
        want = direct_tau_schur_poly(p, u, family, cutoff, max(cutoff, 1) if K is None else K)
        assert tau_schur_poly(p, u, family, cutoff, K) == want


def test_schur_miwa_is_the_character_sum_of_one_partition():
    for cutoff in (0, 3, 6):
        for K in (1, 2, cutoff + 1):
            for lam in partitions_bounded(cutoff):
                for ctx in (RAT, INSTANCES[-1][0].ctx):
                    assert schur_miwa(lam, cutoff, ctx, K) == direct_schur_miwa(lam, cutoff, ctx, K)


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_paired_hirota_terms_match_every_beta(p, u):
    ctx = p.ctx
    ops = [
        kp_operator(),
        {(2, 1): ctx.embed(5), (0, 0, 0, 2): ctx.one(), (1, 1, 0, 0, 0, 1): ctx.embed(F(-1, 3))},
        {(3,): ctx.one(), (1, 1): ctx.embed(2)},
    ]
    for family in (1, 2):
        tau = tau_schur_poly(p, u, family, 6)
        twin = MiwaPolynomial(ctx, tau.K, tau.cutoff, tau.terms)
        for op in ops:
            want = direct_hirota_apply(op, tau, twin)
            assert hirota_apply(op, tau, tau) == want
            assert hirota_apply(op, tau, twin) == want


def check_kp_residual(p, u, family, D):
    """The hirota check's residual: tau in t_1..t_K only."""
    return hirota_kp_check(tau_schur_poly(p, u, family, D, max(D - 4, 3)))


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_kp_residual_in_few_times_matches_the_full_one(p, u):
    for D, family in product((4, 5, 8, 10), (1, 2)):
        assert check_kp_residual(p, u, family, D) == direct_kp_residual(p, u, family, D)


def test_kp_residual_in_few_times_turns_red_on_the_same_faults(monkeypatch):
    # one more unit of any c_lam with |lam| <= 8 and at most two rows, in the
    # default hirota config: both residuals agree, so the check turns red on
    # the same faults; 35 of the 50 (partition, family) faults turn it red,
    # and (8), (7, 1) and family 1's (4, 4) leave it green
    cfg = cli.validate_config({"checks": ["hirota"]})
    p = cli.build_params(cfg)
    ctx, D = p.ctx, cfg["miwa_cutoff"]
    u = [ctx.from_string(s) for s in cli.run_suite(cfg)["records"][0]["params"]["u"]]
    real = schur.cauchy_binet_coeffs
    red = set()
    for lam in partitions_bounded(8, 2):
        def faulty(*args, lam=lam):
            cmap = real(*args)
            cmap.entries[lam] = cmap.entries.get(lam, ctx.zero()) + ctx.one()
            return cmap

        monkeypatch.setattr(schur, "cauchy_binet_coeffs", faulty)
        for family in (1, 2):
            resid = check_kp_residual(p, u, family, D)
            assert resid == direct_kp_residual(p, u, family, D), (lam, family)
            if not resid.is_zero():
                red.add((lam, family))
        recs = cli.run_suite(cfg)["records"]
        assert {(lam, r["params"]["family"]) for r in recs if not r["pass"]} == {
            fault for fault in red if fault[0] == lam}
    assert (D, p.M, len(red)) == (8, 2, 35)
    assert not {((8,), 1), ((8,), 2), ((7, 1), 1), ((7, 1), 2), ((4, 4), 1)} & red
    assert ((4, 4), 2) in red


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_taylor_table_matches_per_row_series(p, u):
    for family in (1, 2):
        table = fhat_table(p, u, family, 6)
        assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
        assert fhat_table(p, list(u), family, 6) == table
        for i in range(p.M):
            series = taylor_rows(p, u, family, 6)[i]
            assert table[i] == tuple(series.coeff(n) for n in range(7))
    assert fhat_table(p, u, 1, 4) == tuple(row[:5] for row in fhat_table(p, u, 1, 6))


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_schur_sum_eval_matches_per_partition_bialternants(p, u):
    ctx = p.ctx
    rng = random.Random(p.N * 10 + p.M)
    for family in (1, 2):
        cmap = cauchy_binet_coeffs(p, u, family, 6)
        for npts in (1, 2, 3):
            pts = [ctx.embed(F(rng.randint(1, 9), rng.randint(10, 30)) * (k + 1))
                   for k in range(npts)]
            assert schur_sum_eval(cmap, pts, ctx) == direct_schur_sum_eval(cmap, pts, ctx)


@pytest.mark.parametrize("p, u", INSTANCES, ids=IDS)
def test_weight_sorted_miwa_product_matches_all_pairs(p, u):
    taus = [tau_schur_poly(p, u, family, 7, K) for family in (1, 2) for K in (3, 7)]
    for f, g in product(taus, repeat=2):
        if f.K != g.K:
            continue
        # the right operand also with its terms heaviest first
        heavy_first = MiwaPolynomial(g.ctx, g.K, g.cutoff, dict(reversed(g.terms.items())))
        for a, b in ((f, g), (f, heavy_first), (f.restrict(4), g), (f.deriv(1), g.deriv(2))):
            assert a * b == direct_mul(a, b)


def test_a_plain_list_of_roots_keeps_no_table():
    # a vector keeps its root data in its one store; the table is the caller's
    p = ChainParams(2, 2, 1, F(2), F(-2), RAT)
    u = ParameterVector([F(3), F(5)], "bethe")
    assert fhat_table(p, [F(3), F(5)], 1, 3) == fhat_table(p, u, 1, 3)
    assert list(u._memo) == [p]


@pytest.mark.parametrize("p, u", INSTANCES + [(None, None)], ids=IDS + ["float-N2M2"])
def test_hall_pairing_by_weight_matches_every_pair(p, u):
    if p is None:
        p = ChainParams.from_boundary(2, 2, 1, F(-2), mode="float")
        u = draw_instance(p, random.Random(1), vcount=0)[0]
    quotient = tau_schur_poly(p, u, 1, 6) * miwa_series_invert(tau_schur_poly(p, u, 2, 6))
    for maxlen in (p.M, None):
        assert poly_to_schur(quotient, maxlen) == direct_poly_to_schur(quotient, maxlen)


def test_hall_pairing_sees_a_wrong_pairing_weight(seed_fault):
    # dividing each [f]_k by prod k_m! as well puts the pairing weight
    # <t^k, t^k> = prod k_m!/m^k_m off by that factor
    p, u = INSTANCES[1]
    quotient = tau_schur_poly(p, u, 1, 6) * miwa_series_invert(tau_schur_poly(p, u, 2, 6))
    faulty = seed_fault(schur, "poly_to_schur", "prod(m**k for", "prod(m**k * factorial(k) for")
    assert faulty(quotient, p.M) != direct_poly_to_schur(quotient, p.M)


@pytest.mark.parametrize("N, M, mode", [(2, 1, "rational"), (2, 2, "rational"), (3, 2, "rational"),
                                        (3, 3, "rational"), (2, 2, "quadratic"), (2, 2, "float")],
                         ids=["N2M1", "N2M2", "N3M2", "N3M3", "quadratic-N2M2", "float-N2M2"])
def test_lambda_m_quotient_matches_the_miwa_quotient(N, M, mode):
    # the quotient formed in all the times through weight 10 and read back by
    # the Hall pairing; in float mode, where the two routes round apart, to
    # half the working precision relative to the largest coefficient
    if mode == "rational":
        p = ChainParams(N, M, 1, F(2), F(-2), RAT)
    else:  # spin 1, Q = 2 over Q(sqrt 377); spin 1/2, Q = -2 in float mode
        spin_twice, Q = (2, F(2)) if mode == "quadratic" else (1, F(-2))
        p = ChainParams.from_boundary(N, M, spin_twice, Q, mode=mode)
    u = draw_instance(p, random.Random(10 * N + M), vcount=0)[0]
    quotient = tau_schur_poly(p, u, 1, 10) * miwa_series_invert(tau_schur_poly(p, u, 2, 10))
    want = poly_to_schur(quotient, p.M)
    got = slavnov_schur_coeffs(p, u, 10)
    assert got.cutoff == 10
    if p.ctx.mode != "float":
        assert got.entries == want
        return
    scale = max(abs(a) for a in want.values())
    for lam in set(want) | set(got.entries):
        assert abs(got.coeff(lam) - want.get(lam, 0)) <= scale * 2.0 ** (-p.ctx.prec // 2)


@pytest.mark.parametrize("raw", [{}, QUADRATIC, {"field_mode": "float"}, {"N": 3, "M": 3}],
                         ids=["rational", "quadratic", "float", "N3M3"])
def test_shrink_record_reads_the_low_sum_off_the_high_one(raw, monkeypatch):
    cfg = cli.validate_config(dict(raw, checks=["schur-expansion"], schur_cutoff=4, seed=2))
    got = cli.run_suite(cfg)["records"]
    monkeypatch.setattr(cli, "_shrink_record", direct_shrink_record)
    assert got == cli.run_suite(cfg)["records"]


# -- the rational carrier against plain Fraction ------------------------------------

FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                      "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                      "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
                      "__rpow__", "__neg__", "__pos__", "__abs__")


def expansion_units():
    """Validated configs of the hirota/s1 and schur-expansion/s1 units of the
    benchmark's rational expansions workload."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    units = {u.name: u.config for u in workloads.units_of("expansions-rational")}
    return [cli.validate_config(units[name]) for name in ("hirota/s1", "schur-expansion/s1")]


def records_and_fraction_operations(cfgs, monkeypatch):
    """The records of each config, and how many operator calls ran Fraction's
    own methods (Rational's fallbacks included) while they were made."""
    calls = [0]

    def counted(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)
        return wrapper

    with monkeypatch.context() as patch:
        for name in FRACTION_OPERATORS:
            patch.setattr(F, name, counted(vars(F)[name]))
        records = [cli.run_suite(cfg)["records"] for cfg in cfgs]
    return records, calls[0]


def test_rational_expansions_run_on_the_carrier(monkeypatch):
    # tens of operations, from parsing the config; on plain Fraction one
    # unit runs about ten thousand
    _, plain = records_and_fraction_operations(expansion_units(), monkeypatch)
    assert plain < 100


def test_carrier_records_match_plain_fraction_records(monkeypatch):
    cfgs = expansion_units()
    got, _ = records_and_fraction_operations(cfgs, monkeypatch)
    embed = FieldContext.embed

    def embed_as_fraction(self, x):
        out = embed(self, x)
        return F(out) if isinstance(out, Rational) else out

    monkeypatch.setattr(FieldContext, "embed", embed_as_fraction)
    want, plain = records_and_fraction_operations(cfgs, monkeypatch)
    assert plain > 10_000
    assert got == want
