"""Float precision has one owner, checked on the engine's syntax trees.

Each float FieldContext makes its scalars with its own mpmath context
(`FieldContext.mp`), so no module under src/tltau may set the precision of
an mpmath context or scope it with workprec, workdps, extraprec or extradps.
The one exception is a context that the same function has just made with
MPContext().  An mpmath context here is a name imported from mpmath, a name
bound to an expression rooted in one, or anything reached through an
attribute `mp` (as `ctx.mp`).

mpmath also has one loader: `algebra._mp_context` imports it when the first
float context is made, so the exact modes never pay for loading it.  No
other function, and no module body, may import it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tltau"
SCOPES = {"workprec", "workdps", "extraprec", "extradps"}
PRECISION = {"prec", "dps"}


def _called(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _chain(node):
    """The names along an attribute chain a.b.c (through calls), root first."""
    parts = []
    while isinstance(node, (ast.Attribute, ast.Call)):
        if isinstance(node, ast.Call):
            node = node.func
            continue
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if isinstance(node, ast.Name) else "")
    return parts[::-1]


def _bindings(tree):
    """(name, value) for each plain name bound by an assignment."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign):
            for t in n.targets:
                if isinstance(t, ast.Tuple) and isinstance(n.value, ast.Tuple):
                    pairs = zip(t.elts, n.value.elts)
                else:
                    pairs = [(t, n.value)]
                yield from ((x.id, v) for x, v in pairs if isinstance(x, ast.Name))


def precision_breaches(source):
    """(line, what) for each mpmath precision write or scope in the source."""
    tree = ast.parse(source)
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in n.names
                      if a.name.split(".")[0] == "mpmath"}
        elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "mpmath":
            names |= {a.asname or a.name for a in n.names}

    def mpmath_ish(node):
        parts = _chain(node)
        return parts[0] in names or "mp" in parts[1:]

    while True:
        more = {name for name, value in _bindings(tree) if mpmath_ish(value)} - names
        if not more:
            break
        names |= more
    fresh = set()
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            made = {name for name, value in _bindings(f)
                    if isinstance(value, ast.Call) and _called(value) == "MPContext"}
            fresh |= {id(n) for n in ast.walk(f) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id in made}
    out = []
    for n in ast.walk(tree):
        if (isinstance(n, ast.Attribute) and n.attr in PRECISION and not isinstance(n.ctx, ast.Load)
                and mpmath_ish(n.value) and id(n) not in fresh):
            out.append((n.lineno, "sets %s" % ast.unparse(n)))
        elif isinstance(n, ast.Call) and _called(n) in SCOPES:
            out.append((n.lineno, "calls %s" % ast.unparse(n.func)))
        elif (isinstance(n, ast.Call) and _called(n) == "setattr" and len(n.args) > 1
              and isinstance(n.args[1], ast.Constant) and n.args[1].value in PRECISION):
            out.append((n.lineno, "sets %s by setattr" % n.args[1].value))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_engine_leaves_the_global_precision_alone(path):
    assert precision_breaches(path.read_text()) == []


@pytest.mark.parametrize("source, lines", [
    ("import mpmath as mp\nmp.mp.prec = max(mp.mp.prec, 192)", [2]),
    ("from mpmath import mp\nmp.dps += 5", [2]),
    ("import mpmath\nsetattr(mpmath.mp, 'prec', 100)", [2]),
    ("with mp.workprec(192):\n    pass", [1]),
    ("x = mpmath.extradps(10)(f)", [1]),
    ("def f(ctx, p):\n    ctx.mp.prec = p", [2]),
    ("def f(p):\n    q, m = p.q, p.ctx.mp\n    m.prec = 300", [3]),
    ("import mpmath\nm = mpmath.MPContext()\nm.prec = 300", [3]),
    ("import mpmath\ndef f(p):\n    m = mpmath.MPContext()\n    m.prec = p\n    return m", []),
    ("class C:\n    def __init__(self, prec):\n        self.prec = prec", []),
    ("from mpmath import mp\ndef f(p):\n    return p.ctx.prec, mp.prec", []),
])
def test_guard_sees_each_form(source, lines):
    assert [line for line, _ in precision_breaches(source)] == lines


def mpmath_imports(source):
    """(line, enclosing function or None) for each import of mpmath."""
    tree = ast.parse(source)
    owner = {}
    for f in ast.walk(tree):  # outer functions first, so the innermost name stays
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(n), f.name) for n in ast.walk(f))
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            roots = [a.name.split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            roots = [(n.module or "").split(".")[0]]
        else:
            continue
        if "mpmath" in roots:
            out.append((n.lineno, owner.get(id(n))))
    return sorted(out)


def test_mpmath_loads_only_in_the_first_float_context():
    found = {(path.name, fn) for path in SRC.glob("*.py")
             for _, fn in mpmath_imports(path.read_text())}
    assert found == {("algebra.py", "_mp_context")}


@pytest.mark.parametrize("source, found", [
    ("import mpmath as mp", [(1, None)]),
    ("from mpmath.libmp import from_rational", [(1, None)]),
    ("import math, mpmath.libmp", [(1, None)]),
    ("class C:\n    from mpmath import mp", [(2, None)]),
    ("if True:\n    import mpmath", [(2, None)]),
    ("def f():\n    import mpmath\n    def g():\n        from mpmath import mpf",
     [(2, "f"), (4, "g")]),
    ("import math\nfrom fractions import Fraction", []),
])
def test_import_scan_sees_each_form(source, found):
    assert mpmath_imports(source) == found
