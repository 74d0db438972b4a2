"""The benchmark's independent checks (`bench/oracles.py`) still run against
the engine and find nothing wrong with it.

The oracles call `kernel`, `tau_det`, `ParameterVector`, `validate_config`,
`build_params`, `cauchy_binet_coeffs(...).entries` and
`tau_schur_poly(...).terms`; a change that drops or reshapes one of them makes
a benchmark run incorrect, and this test sees that without running it.
"""

import importlib.util
from pathlib import Path

import pytest

from tltau import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(workload, unit_name):
    oracles, workloads = _load("oracles"), _load("workloads")
    layout = workloads.plan(workload)
    (unit,) = [u for _, units in layout for u in units if u.name == unit_name]
    records = cli.run_suite(cli.validate_config(unit.config))["records"]
    assert records
    return oracles.check(workload, [(unit.name, records)], [c for c, _ in layout], seed=1)


def test_oracles_accept_a_hirota_unit():
    assert _check("expansions-rational", "hirota/s1") == ([], [])


def test_oracles_accept_a_quadratic_theorem_quotient_unit():
    assert _check("identities-quadratic", "theorem-quotient/s1") == ([], [])


@pytest.mark.parametrize("unit", ["bethe/N2M1", "bethe/N3M1"])
def test_oracles_accept_a_single_root_bethe_unit(unit):
    # the oracle recomputes the closed-form roots and the found/expected counts
    assert _check("bethe-float", unit) == ([], [])
