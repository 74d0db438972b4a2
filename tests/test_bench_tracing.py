"""The benchmark's span tracer (`bench/tracing.py`) still finds every engine
function and method it names, and puts each one back when it is removed.

`--trace 1` runs fail on a name the engine no longer has; this test sees that
without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tltau.cli
from tltau import algebra

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracing):
    """Every tltau module and traced algebra class, by name, as a dict copy."""
    out = {name: dict(vars(mod)) for name, mod in sys.modules.items()
           if mod is not None and (name == "tltau" or name.startswith("tltau."))}
    for cls in {entry[1] for entry in tracing.METHODS + tracing.COUNTED}:
        out["algebra." + cls] = dict(vars(getattr(algebra, cls)))
    return out


def test_tracer_wraps_every_named_function_and_restores_it():
    tracing = _load_tracing()
    before = _namespaces(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for layer, funcs in tracing.LAYERS:
            home = sys.modules["tltau." + layer]
            for fname, _ in funcs:
                assert getattr(home, fname).__wrapped__ is before["tltau." + layer][fname]
        for entry in tracing.METHODS + tracing.COUNTED:
            for meth in entry[2]:
                assert hasattr(vars(getattr(algebra, entry[1]))[meth], "__wrapped__")
        cfg = tltau.cli.validate_config({"checks": ["andreev"], "instances": 1})
        assert tltau.cli.run_suite(cfg)["summary"]["failed"] == 0
        names = {span[0] for span in tracer.spans}
        assert {"cli.run_suite", "tau.andreev_residual", "algebra.det"} <= names
    finally:
        tracer.uninstall()
    after = _namespaces(tracing)
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert all(after[name][k] is v for k, v in space.items()), name


# (records, products, inverses) of one quadratic instance of each instance
# check; pluecker and integral-rep give one record per family
QUADRATIC_PINS = {
    "theorem-quotient": (1, 146, 21),
    "pluecker": (2, 309, 27),
    "integral-rep": (2, 170, 35),
    "andreev": (1, 184, 3),
}


@pytest.mark.parametrize("check", QUADRATIC_PINS)
def test_tracer_counts_every_quadratic_scalar_product_and_inverse(check):
    # theorem-quotient is pinned on the integer carrier, with every 1 / x the bare inverse and
    # no product (a reciprocal times 1 would read 18 more products: eight
    # in w_eval's x - 1/x, two each in the q-powers, the sigma_i and the
    # sigma_i', four in the family-2 rows); validate_uv forming q x once per
    # root and point and reading it in every factor with a q (two products
    # per root or point, two per pair of roots, one per other pair);
    # ChainParams forming 1/q, q^3 and 1/q^3 once per params (two
    # inverses, two products), which _cleared and the family-2 columns
    # read; family_matrix_y forming each sigma_i (two products, one
    # inverse: q y_i serves both terms) and each sigma_i' (four products,
    # one inverse) once per root vector, not once per column; _cleared
    # multiplying by 1/q, not dividing by q; each column taking its leading
    # power once: a family-1 column one y^(1-N) (one inverse) and two
    # products per row (c_i sigma_i', then the power), a family-2 column
    # the bare inverse 1/d_i times y (one inverse and one product per row);
    # x**n taking one product per squaring and per set bit after the
    # first (y**2 one, x**5 three); and each Vandermonde product formed
    # from its first factor.
    # The q-powers formed again in each _cleared call would read 8 more
    # products and 4 more inverses, root data formed per column 64 more
    # products and 16 more inverses, y / q in _cleared 4 more inverses (one
    # per root and family-1 column), y^(1-N) formed per row 2 more inverses,
    # powers that start from 1 and square once too often 23 more
    # products, the two Vandermondes of M = 2 points started from 1 two
    # more, q v_i u_j formed as v_i u_j q 4 more (four such pairs), a second
    # validate_uv call through chain.kernel on the pair draw_instance has
    # already validated 15 more, and a second admissibility test that formed
    # the Slavnov product on each draw 54 more.  A fast path that multiplied or
    # inverted without the counted methods would make these read lower.
    # The other checks take signs as negations and start sums at their first
    # term, and read q v_i u_j alike (pluecker 8 more without it, integral-rep
    # 4): pluecker multiplying each exchange term by +-1 reads 6 more
    # products, integral-rep multiplying the residue determinant by its sign
    # 2 more, and andreev starting Horner's rule at zero (zero times x first)
    # 24 more.
    records, products, inverses = QUADRATIC_PINS[check]
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cfg = tltau.cli.validate_config({"checks": [check], "instances": 1,
                                         "field_mode": "quadratic", "spin_twice": 2, "Q": "2"})
        summary = tltau.cli.run_suite(cfg)["summary"]
        assert summary == {"total": records, "passed": records, "failed": 0}
    finally:
        tracer.uninstall()
    assert tracer.counters["algebra.qnum_mul.calls"] == products
    assert tracer.counters["algebra.qnum_inverse.calls"] == inverses


def test_expansion_checks_build_each_taylor_table_once_and_pair_hirota_terms(monkeypatch):
    # a second family-1 table per instance, or one shell per row, reads more
    # series calls of the eigenvalue formula; the unpaired Hirota sum reads
    # 12 Miwa products per family instead of 7
    from tltau import chain

    series_calls = []
    cleared = chain._cleared

    def counted(p, y, *args, **kwargs):
        if isinstance(y, algebra.LaurentSeries):
            series_calls.append(y.trunc)
        return cleared(p, y, *args, **kwargs)

    monkeypatch.setattr(chain, "_cleared", counted)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    counts = {}
    try:
        tracer.install()
        for check in ("schur-expansion", "hirota"):
            del series_calls[:]
            cfg = tltau.cli.validate_config({"checks": [check], "seed": 1})
            assert tltau.cli.run_suite(cfg)["summary"]["failed"] == 0
            counts[check] = len(series_calls)
    finally:
        tracer.uninstall()
    assert counts == {"schur-expansion": 1, "hirota": 1}
    spans = tracer.spans
    hirota = [i for i, span in enumerate(spans) if span[0] == "tau.hirota_apply"]
    products = [sum(1 for span in spans if span[0] == "algebra.miwa_mul" and span[3] == i)
                for i in hirota]
    assert products == [7, 7]
