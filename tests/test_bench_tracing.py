"""The benchmark's span tracer (`bench/tracing.py`) still finds every engine
function and method it names, and puts each one back when it is removed.

`--trace 1` runs fail on a name the engine no longer has; this test sees that
without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

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


def test_tracer_counts_every_quadratic_scalar_product_and_inverse():
    # pinned on the integer carrier, with every 1 / x the bare inverse and
    # no product (a reciprocal times 1 would read 18 more products: eight
    # in w_eval's x - 1/x, two each in the q-powers, the sigma_i and the
    # sigma_i', four in the family-2 rows); validate_uv forming each product
    # once; ChainParams forming 1/q, q^3 and 1/q^3 once per params (two
    # inverses, two products), which _cleared and the family-2 columns
    # read; family_matrix_y forming each sigma_i (two products, one
    # inverse: q y_i serves both terms) and each sigma_i' (four products,
    # one inverse) once per root vector, not once per column; _cleared
    # multiplying by 1/q, not dividing by q; each column taking its leading
    # power once: a family-1 column one y^(1-N) (one inverse) and two
    # products per row (c_i sigma_i', then the power), a family-2 column
    # the bare inverse 1/d_i times y (one inverse and one product per row);
    # and x**n taking one product per squaring and per set bit after the
    # first (y**2 one, x**5 three).
    # The q-powers formed again in each _cleared call would read 8 more
    # products and 4 more inverses, root data formed per column 64 more
    # products and 16 more inverses, y / q in _cleared 4 more inverses (one
    # per root and family-1 column), y^(1-N) formed per row 2 more inverses,
    # and powers that start from 1 and square once too often 23 more
    # products.  A fast path that multiplied or inverted without the counted
    # methods would make these read lower.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        cfg = tltau.cli.validate_config({"checks": ["theorem-quotient"], "instances": 1,
                                         "field_mode": "quadratic", "spin_twice": 2, "Q": "2"})
        assert tltau.cli.run_suite(cfg)["summary"] == {"total": 1, "passed": 1, "failed": 0}
    finally:
        tracer.uninstall()
    assert tracer.counters["algebra.qnum_mul.calls"] == 214
    assert tracer.counters["algebra.qnum_inverse.calls"] == 34


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
