"""Command-line verification suite.

`tltau verify` loads a JSON config (every key optional), runs the requested
checks on deterministic pseudo-random instances, and emits a machine-readable
report: one record per checked identity instance with the exact residual and
a pass flag, plus a summary.  Reruns with the same config are byte-identical
apart from the timestamp.  Subcommands run a single check with the same
report shape.

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
  bethe              root solver: convergence and, at M = 1, closed-form match
"""

import argparse
import json
import math
import random
import sys
import zlib
from copy import copy
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    kernel,
    kernel_y,
    leading_power,
    pole_radius_y,
    slavnov,
    validate_uv,
)
from . import bethe as _bethe
from . import diagrams as _diagrams
from . import schur as _schur
from . import tau as _tau


CHECK_NAMES = (
    "theorem-quotient",
    "pluecker",
    "integral-rep",
    "hirota",
    "schur-expansion",
    "diagram-counts",
    "andreev",
    "bethe",
)

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


def draw_instance(p, rng, fixed_u=None, vcount=None, fixed_v=None, accept=None):
    """Draw admissible (u, v) for the chain, rejecting excluded values.

    Rejection covers the model's pole sets, for up to 500 draws; a fixed u
    and v (or u alone when vcount is 0) are checked once.  An optional
    accept(u, v) callback lets the caller reject draws with singular derived
    quantities (it should raise to reject).  Deterministic given the rng state.
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
            if accept is not None:
                accept(u, v)
            return u, v
        except (ValueError, PoleError, ZeroDivisionError):
            if fixed_u is not None and (fixed_v is not None or not vcount):
                raise  # nothing was drawn, so another try fails alike
    raise RuntimeError("could not draw an admissible instance")


def _instances(cfg, p, seed, vcount=None, accept=None):
    """Yield (instance seed, u, v), instance i drawn from Random(seed + i):
    `instances` of them, or one when the config fixes both u and v.  A
    `vcount` draws that many points as v and ignores the config's v."""
    fixed_u = _fixed_vector(cfg, p, "u", "bethe")
    fixed_v = _fixed_vector(cfg, p, "v", "free") if vcount is None else None
    count = 1 if fixed_u is not None and fixed_v is not None else cfg["instances"]
    for iseed in range(seed, seed + count):
        u, v = draw_instance(p, random.Random(iseed), fixed_u=fixed_u, vcount=vcount,
                             fixed_v=fixed_v, accept=accept)
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


# -- checks -------------------------------------------------------------------


def check_theorem_quotient(cfg, p, seed):
    ctx = p.ctx
    out = []
    for iseed, u, v in _instances(cfg, p, seed, accept=lambda uu, vv: slavnov(p, uu, vv)):
        kv = kernel(p, u, v)
        resid = kv - _tau.tau_det(p, u, 1, v) / _tau.tau_det(p, u, 2, v)
        out.append(_record("theorem-quotient", _params_blob(p, u, v), iseed,
                           ctx.to_string(resid), ctx.residual_ok(resid, kv)))
    return out


def check_pluecker(cfg, p, seed):
    ctx = p.ctx
    out = []
    for iseed, u, xy in _instances(cfg, p, seed, vcount=2 * p.M):
        X = list(xy)[: p.M + 1]
        Y = list(xy)[p.M + 1 :]
        for family in (1, 2):
            resid = _tau.pluecker_residual(p, u, family, X, Y)
            scale = _tau.det_family(p, u, family, X[1:]) * _tau.det_family(p, u, family, Y + [X[0]])
            ok = ctx.residual_ok(resid, scale)
            blob = _params_blob(p, u, extra={"family": family,
                                             "X": [ctx.to_string(x) for x in X],
                                             "Y": [ctx.to_string(x) for x in Y]})
            out.append(_record("pluecker", blob, iseed, ctx.to_string(resid), ok))
    return out


def check_integral_rep(cfg, p, seed):
    ctx = p.ctx
    out = []
    for iseed, u, v in _instances(cfg, p, seed):
        for family in (1, 2):
            direct = _tau.tau_det(p, u, family, v)
            viares = _tau.tau_residue(p, u, family, v)
            resid = viares - direct
            ok = ctx.residual_ok(resid, direct)
            blob = _params_blob(p, u, v, extra={"family": family})
            out.append(_record("integral-rep", blob, iseed, ctx.to_string(resid), ok))
    return out


def check_hirota(cfg, p, seed):
    ctx = p.ctx
    u, _ = draw_instance(p, random.Random(seed), _fixed_vector(cfg, p, "u", "bethe"), vcount=0)
    D = cfg["miwa_cutoff"]
    out = []
    for family in (1, 2):
        taup = _schur.tau_schur_poly(p, u, family, D, D)
        applied = _tau.hirota_kp_check(taup)
        if ctx.mode == "float":
            ok = applied.max_abs() <= float(ctx.tol) * max(taup.max_abs() ** 2, 1.0)
            residual = "%g" % applied.max_abs()
        else:
            ok = applied.is_zero()
            residual = "0" if ok else ctx.to_string(max(applied.terms.values(), key=ctx.magnitude))
        blob = _params_blob(p, u, extra={"family": family, "operator": "D1^4+3D2^2-4D1D3",
                                         "cutoff": D})
        out.append(_record("hirota", blob, seed, residual, ok))
    return out


def check_schur_expansion(cfg, p, seed):
    ctx = p.ctx
    rng = random.Random(seed)
    out = []

    # Jacobi-Trudi in e_k vs characters in the times, all |lam| <= 6, 1..3 points
    worst = ctx.zero()
    ok_pts = True
    polys = [(lam, _schur.schur_miwa(lam, 6, ctx, 6)) for lam in _schur.partitions_bounded(6)]
    for npts in (1, 2, 3):
        pts = [ctx.embed(x) for x in _draw_distinct(rng, npts)]
        times = _tau.miwa_map(pts, 6, ctx)
        for lam, poly in polys:
            lhs = _schur.schur_points(lam, pts, ctx)
            rhs = poly.evaluate(times)
            resid = lhs - rhs
            if not ctx.residual_ok(resid, lhs):
                ok_pts = False
            if ctx.magnitude(resid) > ctx.magnitude(worst):
                worst = resid
    out.append(
        _record("schur-expansion", _params_blob(p, extra={"part": "points-vs-times"}),
                seed, ctx.to_string(worst), ok_pts)
    )

    u, _ = draw_instance(p, rng, _fixed_vector(cfg, p, "u", "bethe"), vcount=0)
    cutoff = cfg["schur_cutoff"]
    wsets = _sample_ysets(p, u, rng)

    for family in (1, 2):
        hi = _schur.cauchy_binet_coeffs(p, u, family, cutoff + 2)
        samples = [(w, ctx.one(), _schur.tau_tilde_direct(p, u, family, w)) for w in wsets]
        blob = _params_blob(p, u, extra={"part": "reconstruction", "family": family,
                                         "cutoff": cutoff})
        out.append(_shrink_record(ctx, hi, cutoff, samples, blob, seed))

    ahi = _schur.slavnov_schur_coeffs(p, u, cutoff + 2)
    power = leading_power(p, 1) - leading_power(p, 2)
    samples = [(w, math.prod((y ** power for y in w), start=ctx.one()), kernel_y(p, u, w))
               for w in wsets]
    blob = _params_blob(p, u, extra={"part": "kernel-expansion", "cutoff": cutoff})
    out.append(_shrink_record(ctx, ahi, cutoff, samples, blob, seed))
    return out


def _shrink_record(ctx, hi, cutoff, samples, blob, seed):
    """One schur-expansion record: on every sample (w, pref, direct) the error
    of pref * (Schur sum of `hi`) against `direct` must be at most 1/16 of
    that of its part through weight `cutoff`, two weights lower; two zero
    errors pass.

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
        e = _schur.elementary_symmetric(w, ctx)
        dlo = ctx.magnitude(pref * low.evaluate(e) - direct)
        dhi = ctx.magnitude(pref * high.evaluate(e) - direct)
        if not dhi * 16 <= dlo:
            shrank = False
        if dhi > worst_pair[1]:
            worst_pair = (dlo, dhi)
    return _record("schur-expansion", blob, seed, "%g -> %g" % worst_pair, shrank)


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
        return [_record("diagram-counts", {"M": M, "lambda1_max": lam1}, seed, None, False,
                        error="lambda1_max %d is below %d, the least lambda_1 with the parity "
                              "of M + 1" % (lam1, lam))]
    lam1 -= (lam1 - (M + 1)) % 2
    out = []
    while lam <= lam1:
        enumerated = len(_diagrams.enumerate_admissible(M, lam))
        closed = _diagrams.count_closed(M, lam)
        nested = _diagrams.count_nested(M, lam)
        ok = enumerated == closed == nested
        blob = {"M": M, "lambda1_max": lam, "enumerated": enumerated,
                "closed_form": closed, "nested_sum": nested}
        out.append(_record("diagram-counts", blob, seed, str(enumerated - closed), ok))
        lam += 2
    return out


def check_andreev(cfg, p, seed):
    ctx = p.ctx
    M = max(p.M, 1)
    out = []
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
        out.append(_record("andreev", blob, iseed, ctx.to_string(resid),
                           ctx.residual_ok(resid, 1)))
    return out


def _poly_value(ctx, rng, degree, x):
    """sum_d c_d x^d, the c_d drawn lowest first, evaluated by Horner."""
    acc = ctx.zero()
    for c in reversed([rng.randint(-9, 9) for _ in range(degree + 1)]):
        acc = acc * x + ctx.embed(c)
    return acc


def check_bethe(cfg, p, seed):
    if p.M == 0:
        return [_record("bethe", {"N": p.N, "M": 0}, seed, None, True)]
    pf = build_params(dict(cfg, field_mode="float"))
    ctx = pf.ctx
    sols = [s for s in _bethe.solve_bethe_grid(pf) if _bethe.is_regular(pf, s.roots)]
    out = []
    if not sols:
        out.append(_record("bethe", {"N": pf.N, "M": pf.M}, seed, None, False,
                           error="no regular root set converged from any palette start"))
    tol = ctx.mp.mpf("1e-10")
    for s in sols:
        blob = {"N": pf.N, "M": pf.M, "roots": [ctx.to_string(r) for r in s.roots],
                "iterations": s.iterations, "search_iterations": s.search_iterations}
        resid = s.max_residual()
        out.append(_record("bethe", blob, seed, ctx.mp.nstr(resid, 8), s.converged and resid < tol))
    if pf.M == 1:
        closed = _bethe.closed_form_single_roots(pf)
        matched = len(sols) == len(closed) and all(
            min(min(abs(s.roots[0] - c), abs(s.roots[0] + c)) for c in closed) < tol
            for s in sols
        )
        out.append(_record("bethe", {"N": pf.N, "M": 1, "part": "closed-form-match",
                                     "found": len(sols), "expected": len(closed)},
                           seed, str(len(sols) - len(closed)), matched))
    return out


def _fixed_vector(cfg, p, key, role):
    """The config's u or v, if given, checked against the admissibility sets."""
    vals = cfg.get(key)
    if vals is None:
        return None
    vec = ParameterVector([p.ctx.from_string(s) for s in vals], role)
    validate_uv(p, **{key: vec})
    return vec


# Checks that draw Bethe roots; at M = 0 each gives one passing record.
ROOT_CHECKS = ("theorem-quotient", "pluecker", "integral-rep", "hirota", "schur-expansion")

CHECKS = {
    "theorem-quotient": check_theorem_quotient,
    "pluecker": check_pluecker,
    "integral-rep": check_integral_rep,
    "hirota": check_hirota,
    "schur-expansion": check_schur_expansion,
    "diagram-counts": check_diagram_counts,
    "andreev": check_andreev,
    "bethe": check_bethe,
}


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
        seed = (cfg["seed"] + zlib.crc32(name.encode())) % 2**32
        if p.M < 1 and name in ROOT_CHECKS:
            return [_record(name, _params_blob(p), seed, None, True)]
        try:
            return CHECKS[name](cfg, p, seed)
        except Exception as exc:  # recorded, never fatal to the suite
            return [_record(name, _params_blob(p), seed, None, False,
                            error="%s: %s" % (type(exc).__name__, exc))]

    records = [rec for name in names for rec in run_one(name)]
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


SUBCOMMAND_CHECKS = {
    "verify": None,
    "kernel-vs-tau": ["theorem-quotient"],
    "pluecker": ["pluecker"],
    "hirota": ["hirota"],
    "schur-expand": ["schur-expansion"],
    "count-diagrams": ["diagram-counts"],
    "solve-bethe": ["bethe"],
}


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
