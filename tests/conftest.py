"""Shared fixtures."""

import inspect
import sys
import textwrap

import pytest


@pytest.fixture
def seed_fault(monkeypatch):
    """seed_fault(module, name, old, new, rebuild=(), into=None) seeds a text
    fault: it runs the source of `module.name`, with its one `old` turned
    into `new`, in a copy of the module's namespace, and sets the faulty
    function on each module of `into` (default: `module`) for the test.
    Then each cached function of `rebuild` is run afresh from its source, in
    a copy of its module's namespace as patched so far, and set on that
    module, so that the fault fills its new memo.  Returns the faulty
    function."""

    def seed(module, name, old, new, rebuild=(), into=None):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        faulty = namespace[name]
        for target in (module,) if into is None else into:
            monkeypatch.setattr(target, name, faulty)
        for fn in rebuild:
            home = sys.modules[fn.__module__]
            space = dict(vars(home))
            exec(textwrap.dedent(inspect.getsource(fn)), space)
            monkeypatch.setattr(home, fn.__name__, space[fn.__name__])
        return faulty

    return seed
