"""Command-line verification suite.

`tltau verify` loads a JSON config (every key optional), runs the requested
checks on deterministic pseudo-random instances, and emits a machine-readable
report: one record per checked identity instance with the exact residual and
a pass flag, plus a summary.  Reruns with the same config are byte-identical
apart from the timestamp.  Subcommands run a single check with the same
report shape.

Each check is a generator of cases, (params, instance seed, residual, pass
[, error]), one per record; `run_suite` names them and writes the records,
and a check that yields no case gets an error record.  Every check that
reads (u, v) draws it through `draw_instance`, whose one admissibility rule
is `chain.validate_uv`; no check refuses a draw on its own.

Checks
  theorem-quotient   kernel(u, v) equals tau1(v) / tau2(v)
  pluecker           the exchange sum over point sets vanishes
  integral-rep       residue determinant equals det F / Vandermonde
  hirota             the KP operator D1^4 + 3 D2^2 - 4 D1 D3 annihilates each
                     reconstructed tau wherever its truncation determines it
  schur-expansion    Schur machinery: points vs times, reconstruction and
                     kernel expansion discrepancies shrink with the cutoff
  diagram-counts     enumeration vs nested sum vs closed-form counts
  andreev            symmetrized multiple-sum identity on random data
  bethe              root solver: regular root sets; at M = 1, closed-form match
"""

import argparse
import json
import random
import sys
import zlib
from copy import copy
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .algebra import field_product, weighted_degree
from .chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    kernel_y,
    leading_power,
    pole_radius_y,
    validate_uv,
)
from . import bethe as _bethe
from . import diagrams as _diagrams
from . import schur as _schur
from . import tau as _tau


def build_params(cfg):
    try:
        Q = Fraction(cfg["Q"])
    except ZeroDivisionError:
        raise ValueError("Q %s has a zero denominator" % cfg["Q"]) from None
    return ChainParams.from_boundary(
        cfg["N"],
        cfg["M"],
        cfg["spin_twice"],
        Q,
        mode=cfg["field_mode"],
        prec=cfg["precision_bits"],
    )


# -- deterministic instance drawing -----------------------------------------


def _draw_fraction(rng):
    return Fraction(rng.randint(1, 13) * rng.choice((-1, 1)), rng.randint(1, 13))


def _draw_distinct(rng, count):
    out = []
    seen = set()
    while len(out) < count:
        x = _draw_fraction(rng)
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def draw_instance(p, rng, fixed_u=None, vcount=None, fixed_v=None):
    """Draw (u, v) that chain.validate_uv admits, for up to 500 draws.

    validate_uv is the one admissibility rule: a draw it refuses is drawn
    again, and a fixed u and v (or u alone when vcount is 0) are checked
    once.  Deterministic given the rng state.
    """
    ctx = p.ctx
    vcount = p.M if vcount is None else vcount
    for _ in range(500):
        try:
            if fixed_u is None:
                uraw = _draw_distinct(rng, p.M)
                u = ParameterVector([ctx.embed(x) for x in uraw], "bethe")
            else:
                u = fixed_u
            if fixed_v is None:
                vraw = _draw_distinct(rng, vcount)
                v = ParameterVector([ctx.embed(x) for x in vraw], "free") if vcount else None
            else:
                v = fixed_v
            validate_uv(p, u, v if v is not None else ())
            return u, v
        except PoleError:
            if fixed_u is not None and (fixed_v is not None or not vcount):
                raise  # nothing was drawn, so another try fails alike
    raise RuntimeError("could not draw an admissible instance")


def _instances(cfg, p, seed, vcount=None):
    """Yield (instance seed, u, v), instance i drawn by draw_instance from
    Random(seed + i): `instances` of them, or one when the config fixes both
    u and v.  A `vcount` draws that many points as v and ignores the
    config's v."""
    fixed_u = _fixed_vector(cfg, p, "u", "bethe")
    fixed_v = _fixed_vector(cfg, p, "v", "free") if vcount is None else None
    count = 1 if fixed_u is not None and fixed_v is not None else cfg["instances"]
    for iseed in range(seed, seed + count):
        u, v = draw_instance(p, random.Random(iseed), fixed_u=fixed_u, vcount=vcount,
                             fixed_v=fixed_v)
        yield iseed, u, v


def _params_blob(p, u=None, v=None, extra=None):
    ctx = p.ctx
    blob = {
        "N": p.N,
        "M": p.M,
        "spin_twice": p.spin_twice,
        "q": ctx.to_string(p.q),
        "mode": ctx.mode,
    }
    if u is not None:
        blob["u"] = [ctx.to_string(x) for x in u]
    if v is not None:
        blob["v"] = [ctx.to_string(x) for x in v]
    if extra:
        blob.update(extra)
    return blob


def _record(check, params, seed, residual, ok, error=None):
    rec = {
        "check": check,
        "params": params,
        "instance_seed": seed,
        "residual": residual,
        "pass": bool(ok),
    }
    if error is not None:
        rec["error"] = error
    return rec


def _compared(ctx, params, seed, resid, scale):
    """The case of a two-route check: the residual between the routes, which
    must vanish (exact modes) or be small against `scale` (float)."""
    return params, seed, ctx.to_string(resid), ctx.residual_ok(resid, scale)


# -- checks: each yields its cases --------------------------------------------


def check_theorem_quotient(cfg, p, seed):
    for iseed, u, v in _instances(cfg, p, seed):
        kv = kernel_y(p, u, [x * x for x in v])  # draw_instance has validated (u, v)
        resid = kv - _tau.tau_det(p, u, 1, v) / _tau.tau_det(p, u, 2, v)
        yield _compared(p.ctx, _params_blob(p, u, v), iseed, resid, kv)


def check_pluecker(cfg, p, seed):
    ctx = p.ctx
    for iseed, u, xy in _instances(cfg, p, seed, vcount=2 * p.M):
        X, Y = list(xy)[: p.M + 1], list(xy)[p.M + 1 :]
        for family in (1, 2):
            resid = _tau.pluecker_residual(p, u, family, X, Y)
            scale = _tau.det_family(p, u, family, X[1:]) * _tau.det_family(p, u, family, Y + [X[0]])
            blob = _params_blob(p, u, extra={"family": family,
                                             "X": [ctx.to_string(x) for x in X],
                                             "Y": [ctx.to_string(x) for x in Y]})
            yield _compared(ctx, blob, iseed, resid, scale)


def check_integral_rep(cfg, p, seed):
    for iseed, u, v in _instances(cfg, p, seed):
        for family in (1, 2):
            direct = _tau.tau_det(p, u, family, v)
            resid = _tau.tau_residue(p, u, family, v) - direct
            yield _compared(p.ctx, _params_blob(p, u, v, extra={"family": family}), iseed,
                            resid, direct)


def check_hirota(cfg, p, seed):
    ctx = p.ctx
    u, _ = draw_instance(p, random.Random(seed), _fixed_vector(cfg, p, "u", "bethe"), vcount=0)
    D = cfg["miwa_cutoff"]
    # The residual is known through weight D - 4 (4 the operator's weight), so
    # its monomials hold t_m only for m <= D - 4, and the derivatives add only
    # t_1..t_3 (3 its highest time): a tau monomial in any t_m beyond
    # K = max(D - 4, 3) never reaches it.
    op = _tau.kp_operator()
    K = max(D - max(map(weighted_degree, op)), max(map(len, op)))
    for family in (1, 2):
        taup = _schur.tau_schur_poly(p, u, family, D, K)
        applied = _tau.hirota_kp_check(taup)
        if ctx.mode == "float":
            ok = applied.max_abs() <= float(ctx.tol) * max(taup.max_abs() ** 2, 1.0)
            residual = "%g" % applied.max_abs()
        else:
            ok = applied.is_zero()
            residual = "0" if ok else ctx.to_string(max(applied.terms.values(), key=ctx.magnitude))
        blob = _params_blob(p, u, extra={"family": family, "operator": "D1^4+3D2^2-4D1D3",
                                         "cutoff": D})
        yield blob, seed, residual, ok


def check_schur_expansion(cfg, p, seed):
    ctx = p.ctx
    rng = random.Random(seed)

    # Jacobi-Trudi in e_k vs characters in the times, all |lam| <= 6, 1..3 points
    worst = ctx.zero()
    ok_pts = True
    polys = [(lam, _schur.schur_miwa(lam, 6, ctx, 6)) for lam in _schur.partitions_bounded(6)]
    for npts in (1, 2, 3):
        pts = [ctx.embed(x) for x in _draw_distinct(rng, npts)]
        times, e = _tau.miwa_map(pts, 6, ctx), _schur.elementary_symmetric(pts)
        for lam, poly in polys:
            lhs = _schur._schur_at_e(lam, e, ctx)
            resid = lhs - poly.evaluate(times)
            if not ctx.residual_ok(resid, lhs):
                ok_pts = False
            if ctx.magnitude(resid) > ctx.magnitude(worst):
                worst = resid
    yield _params_blob(p, extra={"part": "points-vs-times"}), seed, ctx.to_string(worst), ok_pts

    u, _ = draw_instance(p, rng, _fixed_vector(cfg, p, "u", "bethe"), vcount=0)
    cutoff = cfg["schur_cutoff"]
    wsets = _sample_ysets(p, u, rng)

    hi = {}
    for family in (1, 2):
        hi[family] = _schur.cauchy_binet_coeffs(p, u, family, cutoff + 2)
        samples = [(w, ctx.one(), _schur.tau_tilde_direct(p, u, family, w)) for w in wsets]
        blob = _params_blob(p, u, extra={"part": "reconstruction", "family": family,
                                         "cutoff": cutoff})
        yield _shrink_record(ctx, hi[family], cutoff, samples, blob, seed)

    ahi = _schur.schur_quotient(hi[1], hi[2], p.M)
    power = leading_power(p, 1) - leading_power(p, 2)
    samples = [(w, field_product([y ** power for y in w], ctx), kernel_y(p, u, w))
               for w in wsets]
    blob = _params_blob(p, u, extra={"part": "kernel-expansion", "cutoff": cutoff})
    yield _shrink_record(ctx, ahi, cutoff, samples, blob, seed)


def _shrink_record(ctx, hi, cutoff, samples, blob, seed):
    """One schur-expansion case: on every sample (w, pref, direct) the error
    of pref * (Schur sum of `hi`) against `direct` must be at most 1/16 of
    that of its part through weight `cutoff`, two weights lower, which in
    turn must be at most |direct|; two zero errors pass.

    `_sample_ysets` keeps every point below R/16, R the smallest pole radius,
    so two more weights should cut the error by a factor of 16**2 or more.
    Every sample has M points, so one polynomial in their e_k serves them
    all; the low sum is its restriction to weight `cutoff`.
    """
    high = _schur.schur_sum_e(hi, len(samples[0][0]))
    low = high.restrict(cutoff)
    shrank = True
    worst_pair = (0.0, 0.0)
    for w, pref, direct in samples:
        e = _schur.elementary_symmetric(w)
        dlo = ctx.magnitude(pref * low.evaluate(e) - direct)
        dhi = ctx.magnitude(pref * high.evaluate(e) - direct)
        if not dhi * 16 <= dlo <= ctx.magnitude(direct):
            shrank = False
        if dhi > worst_pair[1]:
            worst_pair = (dlo, dhi)
    return blob, seed, "%g -> %g" % worst_pair, shrank


def _sample_ysets(p, u, rng):
    """Up to three sets of distinct rational y-points strictly inside the
    smallest pole radius."""
    radius = pole_radius_y(p, u)
    ctx = p.ctx
    sets = []
    denom = max(2, int(4 / radius) + 1)
    for s in range(3):
        pts = []
        for i in range(p.M):
            num = 1 + rng.randint(0, 2)
            pts.append(Fraction(num, denom * (3 + 2 * i + s) * (1 + num)))
        if len(set(pts)) != p.M:
            continue
        sets.append([ctx.embed(x) for x in pts])
    return sets or [[ctx.embed(Fraction(1, denom * (3 + 2 * i))) for i in range(p.M)]]


def check_diagram_counts(cfg, p, seed):
    M = max(p.M, 1)
    lam1 = cfg.get("lambda1_max")
    if lam1 is None:
        lam1 = {1: 12, 2: 13, 3: 12}.get(M, 11 + (M % 2))
    lam = (M + 1) % 2
    if lam1 < lam:
        yield ({"M": M, "lambda1_max": lam1}, seed, None, False,
               "lambda1_max %d is below %d, the least lambda_1 with the parity of M + 1"
               % (lam1, lam))
        return
    lam1 -= (lam1 - (M + 1)) % 2
    while lam <= lam1:
        enumerated = len(_diagrams.enumerate_admissible(M, lam))
        closed = _diagrams.count_closed(M, lam)
        nested = _diagrams.count_nested(M, lam)
        ok = enumerated == closed == nested
        blob = {"M": M, "lambda1_max": lam, "enumerated": enumerated,
                "closed_form": closed, "nested_sum": nested}
        yield blob, seed, str(enumerated - closed), ok
        lam += 2


def check_andreev(cfg, p, seed):
    ctx = p.ctx
    M = max(p.M, 1)
    for i in range(cfg["instances"]):
        iseed = seed + i
        rng = random.Random(iseed)
        n = rng.randint(max(4, M), max(4, M) + 2)
        pts = [ctx.embed(x) for x in _draw_distinct(rng, n)]
        wts = [ctx.embed(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n)]
        fv = [[_poly_value(ctx, rng, d, x) for x in pts] for d in range(M)]
        gv = [[_poly_value(ctx, rng, d + 1, x) for x in pts] for d in range(M)]
        resid = _tau.andreev_residual(ctx, pts, wts, fv, gv)
        blob = {"M": M, "points": [ctx.to_string(x) for x in pts], "mode": ctx.mode}
        yield _compared(ctx, blob, iseed, resid, 1)


def _poly_value(ctx, rng, degree, x):
    """sum_d c_d x^d, the c_d drawn lowest first, evaluated by Horner from the
    leading coefficient."""
    *rest, lead = [rng.randint(-9, 9) for _ in range(degree + 1)]
    acc = ctx.embed(lead)
    for c in reversed(rest):
        acc = acc * x + ctx.embed(c)
    return acc


def check_bethe(cfg, p, seed):
    if p.M == 0:
        yield {"N": p.N, "M": 0}, seed, None, True
        return
    pf = build_params(dict(cfg, field_mode="float"))
    ctx = pf.ctx
    sols = _bethe.solve_bethe_grid(pf)
    if not sols and pf.M > 1:
        yield ({"N": pf.N, "M": pf.M}, seed, None, False,
               "no regular root set converged from any palette start")
    tol = ctx.mp.mpf("1e-10")
    for s in sols:
        blob = {"N": pf.N, "M": pf.M, "roots": [ctx.to_string(r) for r in s.roots],
                "iterations": s.iterations, "search_iterations": s.search_iterations}
        resid = s.max_residual()
        yield blob, seed, ctx.mp.nstr(resid, 8), s.converged and resid < tol
    if pf.M == 1:
        closed = _bethe.closed_form_single_roots(pf)
        matched = len(sols) == len(closed) and all(
            min(min(abs(s.roots[0] - c), abs(s.roots[0] + c)) for c in closed) < tol
            for s in sols
        )
        yield ({"N": pf.N, "M": 1, "part": "closed-form-match", "found": len(sols),
                "expected": len(closed)}, seed, str(len(sols) - len(closed)), matched)


def _fixed_vector(cfg, p, key, role):
    """The config's u or v, if given, checked against the admissibility sets."""
    vals = cfg.get(key)
    if vals is None:
        return None
    vec = ParameterVector([p.ctx.from_string(s) for s in vals], role)
    validate_uv(p, **{key: vec})
    return vec


# -- check table and config keys -----------------------------------------------


# Every check once, in registry order: (function, its subcommand or None,
# whether it draws Bethe roots; at M = 0 such a check gives one passing record).
CHECKS = {
    "theorem-quotient": (check_theorem_quotient, "kernel-vs-tau", True),
    "pluecker": (check_pluecker, "pluecker", True),
    "integral-rep": (check_integral_rep, None, True),
    "hirota": (check_hirota, "hirota", True),
    "schur-expansion": (check_schur_expansion, "schur-expand", True),
    "diagram-counts": (check_diagram_counts, "count-diagrams", False),
    "andreev": (check_andreev, None, False),
    "bethe": (check_bethe, "solve-bethe", False),
}
CHECK_NAMES = tuple(CHECKS)
ROOT_CHECKS = tuple(name for name, (_, _, roots) in CHECKS.items() if roots)
SUBCOMMAND_CHECKS = {"verify": None, **{sub: [name] for name, (_, sub, _) in CHECKS.items() if sub}}

FIELD_MODES = ("rational", "quadratic", "float")

# Every config key once, with its default (None: none) and its rule: an int
# is an integer key's minimum, str asks for a string, a tuple lists the allowed
# values and a list [rule, n] asks for a list of at least n items that each
# keep that rule.
KEYS = {
    "field_mode": ("rational", FIELD_MODES),
    "N": (2, 1),
    "M": (2, 0),
    "spin_twice": (1, 1),
    "Q": ("-2", str),
    "u": (None, [str, 0]),
    "v": (None, [str, 0]),
    "instances": (20, 1),
    "seed": (1, 0),
    "miwa_cutoff": (8, 4),
    "schur_cutoff": (8, 2),
    "lambda1_max": (None, 0),
    "precision_bits": (192, 128),
    "checks": (list(CHECK_NAMES), [CHECK_NAMES, 1]),
}


class ConfigError(ValueError):
    pass


def _violation(rule, x):
    """What is wrong with the value x under a KEYS rule, or None."""
    if isinstance(rule, list):
        item_rule, least = rule
        if not isinstance(x, list):
            return "%r is not a list" % (x,)
        if len(x) < least:
            return "%r has fewer than the minimum of %d entries" % (x, least)
        return next(filter(None, (_violation(item_rule, item) for item in x)), None)
    if isinstance(rule, tuple):
        return None if x in rule else "%r is not one of %s" % (x, ", ".join(rule))
    if rule is str:
        return None if isinstance(x, str) else "%r is not a string" % (x,)
    if not isinstance(x, int) or isinstance(x, bool):
        return "%r is not an integer" % (x,)
    return "%d is less than the minimum of %d" % (x, rule) if x < rule else None


def validate_config(raw):
    """Check a raw config against KEYS and fill in the defaults.

    Collects every violation, one "config key <name>: ..." line each, sorted
    by key; an unknown key is one.  Then u and v must have M entries each.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object, not %s" % type(raw).__name__)
    problems = []
    for key in sorted(raw):
        bad = _violation(KEYS[key][1], raw[key]) if key in KEYS else "unknown key"
        if bad:
            problems.append("config key %s: %s" % (key, bad))
    if not problems:
        cfg = {key: copy(default) for key, (default, _) in KEYS.items() if default is not None}
        cfg.update(raw)
        problems = ["config key %s: expected %d entries for M=%d" % (key, cfg["M"], cfg["M"])
                    for key in ("u", "v") if key in cfg and len(cfg[key]) != cfg["M"]]
    if problems:
        raise ConfigError("\n".join(problems))
    return cfg


# -- suite driver --------------------------------------------------------------


def run_suite(cfg):
    """Run the configured checks in registry order; float checks run at
    precision_bits, which their params' FieldContext owns."""
    names = [n for n in CHECK_NAMES if n in cfg["checks"]]
    try:
        p = build_params(cfg)
    except (ValueError, TypeError) as exc:
        records = [_record(n, {}, cfg["seed"], None, False, error=str(exc)) for n in names]
        return _assemble_report(cfg, records)

    def run_one(name):
        """The check's cases, or one case that says why there are none."""
        check, _, draws_roots = CHECKS[name]
        seed = (cfg["seed"] + zlib.crc32(name.encode())) % 2**32
        blob = _params_blob(p)
        if p.M < 1 and draws_roots:
            return [(blob, seed, None, True)]
        try:
            return list(check(cfg, p, seed)) or [(blob, seed, None, False,
                                                  "check yielded no record")]
        except Exception as exc:  # recorded, never fatal to the suite
            return [(blob, seed, None, False, "%s: %s" % (type(exc).__name__, exc))]

    records = [_record(name, *case) for name in names for case in run_one(name)]
    return _assemble_report(cfg, records)


def _assemble_report(cfg, records):
    passed = sum(1 for r in records if r["pass"])
    return {
        "tool": "tltau",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {k: cfg[k] for k in sorted(cfg)},
        "records": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
    }


def format_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def format_text(report):
    lines = []
    lines.append("tltau verification report, version %s (%s)" % (report["version"], report["timestamp"]))
    cfgbits = ", ".join("%s=%s" % (k, v) for k, v in report["config"].items()
                        if k in ("field_mode", "N", "M", "spin_twice", "Q", "seed", "instances"))
    lines.append("config: " + cfgbits)
    lines.append("")
    lines.append("%-18s %-12s %-28s %s" % ("check", "seed", "residual", "verdict"))
    for rec in report["records"]:
        resid = rec["residual"] if rec["residual"] is not None else "-"
        verdict = "pass" if rec["pass"] else "FAIL"
        if "error" in rec:
            verdict += " (%s)" % rec["error"]
        lines.append("%-18s %-12d %-28s %s" % (rec["check"], rec["instance_seed"], resid[:28], verdict))
    s = report["summary"]
    lines.append("")
    lines.append("summary: %d/%d passed" % (s["passed"], s["total"]))
    return "\n".join(lines) + "\n"


# -- argument parsing ------------------------------------------------------------


def _base_flags(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--field", choices=FIELD_MODES, help="override the field mode")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text")
    sp.add_argument("--out", help="also write the report to this file")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="tltau",
        description="exact verification suite for the determinant kernel, its tau"
                    " functions, and their bilinear identities",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SUBCOMMAND_CHECKS:
        sp = sub.add_parser(name)
        _base_flags(sp)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print("cannot read config: %s" % exc, file=sys.stderr)
            return 2
    overrides = {"seed": args.seed, "field_mode": args.field,
                 "checks": SUBCOMMAND_CHECKS[args.command]}
    if isinstance(raw, dict):  # validate_config refuses anything else
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = run_suite(cfg)
    text = format_text(report) if args.fmt == "text" else format_json(report)
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print("cannot write report: %s" % exc, file=sys.stderr)
            return 2
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
