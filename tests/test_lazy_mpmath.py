"""Exact modes never load mpmath; the first float FieldContext does.

Each check runs in a fresh interpreter, since the test process itself has
loaded mpmath long before.  `test_precision_guard.py` keeps the one import
of mpmath in `algebra._mp_context` on the syntax trees; this file checks
what a process actually loads.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from tltau.algebra import FieldContext

FRESH = textwrap.dedent("""
    import sys

    import tltau.cli
    from tltau.algebra import FieldContext
    from tltau.cli import CHECK_NAMES, run_suite, validate_config

    assert "mpmath" not in sys.modules, "import tltau.cli"
    try:
        FieldContext("rational").to_string(1.5)
    except TypeError as exc:
        assert str(exc) == "cannot serialize 1.5", exc
    else:
        raise AssertionError("to_string(1.5) returned")
    assert "mpmath" not in sys.modules, "to_string"
    exact = [name for name in CHECK_NAMES if name != "bethe"]
    for raw in ({"checks": exact, "instances": 2},
                {"checks": exact, "instances": 2, "field_mode": "quadratic",
                 "spin_twice": 2, "Q": "2"}):
        assert run_suite(validate_config(raw))["summary"]["failed"] == 0, raw
        assert "mpmath" not in sys.modules, raw
    FieldContext("float")
    assert "mpmath" in sys.modules, "float context"
""")


def test_exact_runs_never_load_mpmath():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", FRESH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("ctx", [FieldContext("rational"), FieldContext("quadratic", d=377),
                                 FieldContext("float")], ids=repr)
def test_serializing_a_python_float_is_refused_by_name(ctx):
    with pytest.raises(TypeError, match=r"^cannot serialize 1\.5$"):
        ctx.to_string(1.5)
