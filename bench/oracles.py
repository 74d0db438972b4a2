"""Independent checks of what the engine certified.

Each check recomputes part of a workload's output by a route coded here, not
in `tltau`, and compares it with the engine.  None compares against a stored
copy of an earlier report.  Every function returns a list of problems; an
empty list means the outputs agree.

* identities-quadratic: det F1 / det F2 over Q(sqrt d) with sympy, F1 built
  by symbolically differentiating the eigenvalue formula in u_i; compared
  with `chain.kernel` and with the `tau_det` quotient on sampled instances.
* expansions-rational: Cauchy-Binet coefficients of family 2 from a sympy
  series, the tau sum rebuilt here from them in the Miwa times, and its KP
  residual by this module's own Hirota code.
* bethe-float: every reported root set's pole-cancellation residue from the
  eigenvalue coded in mpmath at 512 bits, and for M = 1 the closed form
  u^2 = (1 - zeta q) / (q (q - zeta)).
"""

import random
import re
from fractions import Fraction
from itertools import permutations

_QUAD = re.compile(r"^\(([^,]+),([^|]+)\|([+-]?\d+)\)$")


def _sign(perm):
    sign = 1
    seen = set()
    for start in range(len(perm)):
        if start in seen:
            continue
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(rows, one, zero):
    """Determinant by the permutation sum; for the small orders used here."""
    n = len(rows)
    acc = zero
    for perm in permutations(range(n)):
        term = one
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term if _sign(perm) > 0 else acc - term
    return acc


def _full_config(raw):
    from tltau import cli

    return cli.validate_config(raw)


def _engine_params(raw):
    from tltau import cli

    return cli.build_params(_full_config(raw))


# -- identities-quadratic ----------------------------------------------------


def eigenvalue_terms(v, us, q, N):
    """The paper's eigenvalue as Lambda = -(ta + tb) / w(q v^2), returning
    (ta, tb, w(q v^2)), on any field's elements."""
    def w(x):
        return x - 1 / x

    pa = pb = 1
    for u in us:
        den = w(v / u) * w(q * v * u)
        pa = pa * w(v / (q * u)) * w(v * u) / den
        pb = pb * w(q * v / u) * w(q * q * v * u) / den
    return (w(q * q * v * v) * w(q * v) ** (2 * N) * pa,
            w(v * v) * w(v) ** (2 * N) * pb,
            w(q * v * v))


def sympy_kernel(q, us, vs, N):
    """det F1_i(v_j) / det F2_i(v_j) in Q(sqrt d) with sympy.

    q, us and vs are (a, b, d) triples for a + b sqrt(d).  F1_i is the
    derivative of the eigenvalue in u_i, taken symbolically over the rational
    function field in one variable x and evaluated at x = u_i.
    """
    import sympy as sp

    d = q[2]
    A = sp.QQ.algebraic_field(sp.sqrt(d))
    root = A.from_sympy(sp.sqrt(d))

    def elem(t):
        a, b, _ = t
        return (A.convert(sp.Rational(a.numerator, a.denominator))
                + A.convert(sp.Rational(b.numerator, b.denominator)) * root)

    field, X = sp.field("x", A)
    x = field.ring.gens[0]
    qa, ua, va = elem(q), [elem(t) for t in us], [elem(t) for t in vs]
    M = len(ua)
    f1 = []
    for i in range(M):
        row = []
        for vj in va:
            args = [field(t) for t in ua]
            args[i] = X
            ta, tb, wq = eigenvalue_terms(field(vj), args, field(qa), N)
            lam = -(ta + tb) / wq
            num = lam.numer.diff(x) * lam.denom - lam.numer * lam.denom.diff(x)
            den = lam.denom ** 2
            row.append(num.evaluate(x, ua[i]) / den.evaluate(x, ua[i]))
        f1.append(row)
    one, zero = A.one, A.zero
    f2 = [[one / ((vj / ui - ui / vj) * (qa * vj * ui - one / (qa * vj * ui))) for vj in va]
          for ui in ua]
    return leibniz_det(f1, one, zero) / leibniz_det(f2, one, zero), elem


def _quadratic(s):
    m = _QUAD.match(s)
    if not m:
        raise ValueError("not a quadratic literal: %r" % s)
    return Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3))


def check_identities(unit_records, config, seed, sample=2):
    """Recompute the kernel of `sample` theorem-quotient instances, chosen by
    the benchmark seed, and compare with the engine's kernel and tau quotient."""
    from tltau.chain import ParameterVector, kernel
    from tltau.tau import tau_det

    records = [recs[0] for name, recs in unit_records if name.startswith("theorem-quotient/")]
    if not records:
        return ["no theorem-quotient records"]
    p = _engine_params(config)
    ctx = p.ctx
    problems = []
    for k in sorted(random.Random(seed).sample(range(len(records)), min(sample, len(records)))):
        rec = records[k]
        par = rec["params"]
        where = "theorem-quotient seed %d" % rec["instance_seed"]
        if par["q"] != ctx.to_string(p.q):
            problems.append("%s: record q %s, config gives %s" % (where, par["q"], p.q))
            continue
        want, elem = sympy_kernel(_quadratic(par["q"]), [_quadratic(s) for s in par["u"]],
                                  [_quadratic(s) for s in par["v"]], par["N"])
        u = ParameterVector([ctx.from_string(s) for s in par["u"]], "bethe")
        v = ParameterVector([ctx.from_string(s) for s in par["v"]], "free")
        for label, got in (("kernel", kernel(p, u, v)),
                           ("tau quotient", tau_det(p, u, 1, v) / tau_det(p, u, 2, v))):
            if elem((got.a, got.b, got.d)) != want:
                problems.append("%s: engine %s %s differs from the sympy determinant ratio"
                                % (where, label, got))
    return problems


# -- expansions-rational -------------------------------------------------------


def sympy_family2_coeffs(q, u, cutoff):
    """Cauchy-Binet coefficients c_lam = det fhat[i][lam_j - j + M] of family 2,
    fhat[i][n] being the y^(n+1) Taylor coefficient of
    F2_i = q u_i^2 y / ((y - u_i^2)(q^2 u_i^2 y - 1)), y = v^2, from a sympy
    power series."""
    import sympy as sp
    from sympy.polys.ring_series import rs_mul, rs_series_inversion

    ring, y = sp.ring("y", sp.QQ)
    M = len(u)
    nmax = cutoff + M - 1
    qs = sp.QQ(q.numerator, q.denominator)
    table = []
    for ui in u:
        us = sp.QQ(ui.numerator, ui.denominator)
        den = (y - us ** 2) * (qs ** 2 * us ** 2 * y - 1)
        ser = rs_mul(qs * us ** 2 * y, rs_series_inversion(den, y, nmax + 2), y, nmax + 2)
        coeffs = [ser.coeff(y ** (n + 1)) for n in range(nmax + 1)]
        table.append([Fraction(int(c.numerator), int(c.denominator)) for c in coeffs])
    out = {}
    for lam in _partitions(cutoff, M):
        padded = lam + (0,) * (M - len(lam))
        cols = [padded[j] - (j + 1) + M for j in range(M)]
        c = leibniz_det([[table[i][n] for n in cols] for i in range(M)], Fraction(1), Fraction(0))
        if c:
            out[lam] = c
    return out


def _partitions(maxweight, maxlen):
    out = []

    def rec(prefix, left, cap):
        out.append(tuple(prefix))
        if len(prefix) == maxlen:
            return
        for part in range(min(left, cap), 0, -1):
            rec(prefix + [part], left - part, part)

    rec([], maxweight, maxweight)
    return out


class TimesPoly:
    """Polynomial in the times t_1..t_K with Fraction coefficients, kept
    through weight `cutoff` (t_k has weight k)."""

    def __init__(self, K, cutoff, terms=None):
        self.K, self.cutoff = K, cutoff
        self.terms = {k: c for k, c in (terms or {}).items() if c and self._weight(k) <= cutoff}

    @staticmethod
    def _weight(key):
        return sum((k + 1) * e for k, e in enumerate(key))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TimesPoly(self.K, self.cutoff, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        return TimesPoly(self.K, self.cutoff, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            w1 = self._weight(k1)
            for k2, c2 in other.terms.items():
                if w1 + self._weight(k2) <= self.cutoff:
                    key = tuple(a + b for a, b in zip(k1, k2))
                    out[key] = out.get(key, 0) + c1 * c2
        return TimesPoly(self.K, self.cutoff, out)

    def d(self, m):
        out = {}
        for key, c in self.terms.items():
            if key[m - 1]:
                new = list(key)
                new[m - 1] -= 1
                out[tuple(new)] = c * key[m - 1]
        return TimesPoly(self.K, self.cutoff, out)

    def below(self, weight):
        return {k: c for k, c in self.terms.items() if self._weight(k) <= weight}


def complete_h(K, cutoff):
    """h_n = sum over m with sum k m_k = n of prod_k t_k^m_k / m_k!."""
    hs = []
    for n in range(cutoff + 1):
        terms = {}
        for lam in _partitions(n, n):
            if sum(lam) != n:
                continue
            key = [0] * K
            for part in lam:
                key[part - 1] += 1
            c = Fraction(1)
            for e in key:
                for j in range(2, e + 1):
                    c /= j
            terms[tuple(key)] = c
        hs.append(TimesPoly(K, cutoff, terms))
    return hs


def tau_from_coeffs(coeffs, K, cutoff):
    """sum_lam c_lam s_lam(t), s_lam = det h_{lam_i - i + j} (Jacobi-Trudi)."""
    hs = complete_h(K, cutoff)
    zero = TimesPoly(K, cutoff)
    one = TimesPoly(K, cutoff, {(0,) * K: Fraction(1)})
    acc = zero
    for lam, c in coeffs.items():
        n = len(lam)
        rows = [[hs[lam[i] - i + j] if 0 <= lam[i] - i + j <= cutoff else zero
                 for j in range(n)] for i in range(n)]
        acc = acc + (leibniz_det(rows, one, zero) if n else one).scaled(c)
    return acc


def kp_residual(tau):
    """(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau / 2, kept through weight cutoff - 4,
    where the truncated tau determines it."""
    t1 = tau.d(1)
    t11 = t1.d(1)
    t111 = t11.d(1)
    res = (tau * t111.d(1) - (t1 * t111).scaled(4) + (t11 * t11).scaled(3)
           + (tau * tau.d(2).d(2) - tau.d(2) * tau.d(2)).scaled(3)
           - (tau * t1.d(3) - t1 * tau.d(3)).scaled(4))
    return res.below(tau.cutoff - 4)


def check_expansions(unit_records, configs):
    """Family-2 Cauchy-Binet coefficients, tau sum and KP residual for the u
    of every hirota and schur-expansion record."""
    from tltau import schur

    problems = []
    by_seed = {cfg["seed"]: cfg for cfg in configs}
    for name, recs in unit_records:
        seed = int(name.rsplit("/s", 1)[1])
        cfg = by_seed[seed]
        p = _engine_params(cfg)
        ctx = p.ctx
        us = {tuple(r["params"]["u"]) for r in recs if "u" in r["params"]}
        if len(us) != 1:
            problems.append("%s: expected one drawn u, found %d" % (name, len(us)))
            continue
        ustr = us.pop()
        u = [Fraction(s) for s in ustr]
        q = Fraction(recs[0]["params"]["q"])
        if ctx.to_string(p.q) != recs[0]["params"]["q"]:
            problems.append("%s: record q differs from the config's" % name)
        cutoff = cfg["miwa_cutoff"] if name.startswith("hirota") else cfg["schur_cutoff"]
        want = sympy_family2_coeffs(q, u, cutoff)
        uvec = [ctx.from_string(s) for s in ustr]
        got = schur.cauchy_binet_coeffs(p, uvec, 2, cutoff).entries
        if got != want:
            bad = sorted(set(got) ^ set(want)) or [k for k in want if got[k] != want[k]]
            problems.append("%s: family-2 Cauchy-Binet coefficients differ from the sympy "
                            "series at %s" % (name, bad[:3]))
            continue
        if name.startswith("hirota"):
            tau = tau_from_coeffs(want, cutoff, cutoff)
            engine_tau = schur.tau_schur_poly(p, uvec, 2, cutoff, cutoff)
            if engine_tau.terms != tau.terms:
                problems.append("%s: engine tau sum differs from the Jacobi-Trudi rebuild"
                                % name)
            if kp_residual(tau):
                problems.append("%s: KP residual of the rebuilt family-2 tau is not zero"
                                % name)
    return problems


# -- bethe-float -----------------------------------------------------------------


def bethe_q(Q):
    """q from sum_k Q^{2k} = -(q + 1/q) for spin 1/2."""
    import mpmath as mp

    Q = mp.mpf(Q.numerator) / Q.denominator
    c = Q + 1 / Q
    return (-c + mp.sqrt(c * c - 4)) / 2


def residue_ratio(roots, j, q, N, eps="1e-40"):
    """|res_j| / (size of its two terms) for the residue of Lambda at v = u_j,
    from eps * Lambda(u_j + eps) at the caller's precision."""
    import mpmath as mp

    ta, tb, _ = eigenvalue_terms(roots[j] + mp.mpf(eps), roots, q, N)
    return abs(ta + tb) / (abs(ta) + abs(tb))


def closed_form_roots(q, N):
    """u with u^2 = (1 - zeta q) / (q (q - zeta)), zeta^(2N) = 1, zeta != +-1,
    one of each sign pair."""
    import mpmath as mp

    out = []
    for k in range(1, 2 * N):
        if k == N:
            continue
        zeta = mp.exp(1j * mp.pi * k / N)
        r = mp.sqrt((1 - zeta * q) / (q * (q - zeta)))
        if all(min(abs(r - s), abs(r + s)) > mp.mpf("1e-30") for s in out):
            out.append(r)
    return out


def check_bethe(unit_records, configs, tol="1e-10"):
    """Re-verify every root record the engine passed, and the closed-form
    match of each M = 1 unit.

    A root set is accepted when, for every j, the two terms of the residue
    at v = u_j cancel to `tol` relative to their size; `tol` is the bound the
    engine itself states for pole residues.  The ratio leaves out the factor
    w(u_j^2) w(q^2 u_j^2) the two terms share, so a point where only that
    factor vanishes (an excluded point of the model) is rejected.  Rejected
    root records are returned as failed operations, not as problems.
    """
    import mpmath as mp

    problems, rejected = [], []
    by_size = {(c["N"], c["M"]): c for c in configs}
    with mp.workprec(512):
        tol = mp.mpf(tol)
        for name, recs in unit_records:
            N, M = map(int, re.match(r"bethe/N(\d+)M(\d+)$", name).groups())
            cfg = _full_config(by_size[N, M])
            if cfg["spin_twice"] != 1:
                raise ValueError("the Bethe checks are coded for spin 1/2")
            q = bethe_q(Fraction(cfg["Q"]))
            found = []
            for rec in recs:
                par = rec["params"]
                if "roots" not in par:
                    continue
                roots = [mp.mpmathify(s.strip("()").replace(" ", "")) for s in par["roots"]]
                found.append(roots)
                worst = max(residue_ratio(roots, j, q, N) for j in range(M))
                if rec["pass"] and worst > tol:
                    rejected.append("%s: roots %s leave residue ratio %s"
                                    % (name, par["roots"], mp.nstr(worst, 3)))
            if M != 1:
                continue
            closed = closed_form_roots(q, N)
            matched = [min(min(abs(r[0] - c), abs(r[0] + c)) for c in closed) < tol
                       for r in found]
            if not all(matched):
                problems.append("%s: a reported root matches no closed-form root" % name)
            for rec in recs:
                par = rec["params"]
                if par.get("part") != "closed-form-match":
                    continue
                if par["found"] != len(found) or par["expected"] != len(closed):
                    problems.append("%s: closed-form-match reports found %s expected %s, "
                                    "recomputed %d and %d" % (name, par["found"],
                                                              par["expected"], len(found),
                                                              len(closed)))
                if rec["pass"] != (len(found) == len(closed) and all(matched)):
                    problems.append("%s: closed-form-match verdict disagrees with the "
                                    "closed form" % name)
    return problems, rejected


def check(workload, unit_records, configs, seed):
    """Run the workload's checks on [(unit name, records)], given the
    workload's raw verify configs.

    Returns (problems, rejected): problems are disagreements with the
    engine's outputs; rejected are records the engine passed that the
    independent check fails, which count as failed operations.
    """
    if workload == "identities-quadratic":
        return check_identities(unit_records, configs[0], seed), []
    if workload == "expansions-rational":
        return check_expansions(unit_records, configs), []
    if workload == "bethe-float":
        return check_bethe(unit_records, configs)
    raise ValueError("unknown workload %r" % workload)
