"""Config validation, report assembly, determinism, and exit codes."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
from itertools import combinations

import pytest
from mpmath import mp

from tltau import algebra, diagrams, schur, tau
from tltau.algebra import FieldContext
from tltau.cli import (
    CHECK_NAMES,
    ROOT_CHECKS,
    ConfigError,
    _params_blob,
    build_params,
    format_text,
    main,
    run_suite,
    validate_config,
)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = validate_config({})
        assert cfg["field_mode"] == "rational"
        assert cfg["N"] == 2 and cfg["M"] == 2
        assert cfg["checks"] == list(CHECK_NAMES)

    def test_defaults_are_not_shared_between_configs(self):
        validate_config({})["checks"].remove("bethe")
        assert validate_config({})["checks"] == list(CHECK_NAMES)

    def test_unknown_key_named(self):
        # the report file is named by the --out flag, not by a config key
        for key in ("bogus", "out"):
            with pytest.raises(ConfigError) as e:
                validate_config({key: "x"})
            assert "config key %s: unknown key" % key in str(e.value)

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as e:
            validate_config({"N": 0, "field_mode": "decimal"})
        msg = str(e.value)
        assert "config key N" in msg
        assert "config key field_mode" in msg

    def test_vector_length_checked(self):
        with pytest.raises(ConfigError) as e:
            validate_config({"M": 2, "u": ["2"]})
        assert "config key u" in str(e.value)

    def test_checks_enum(self):
        with pytest.raises(ConfigError):
            validate_config({"checks": ["not-a-check"]})
        cfg = validate_config({"checks": ["pluecker"]})
        assert cfg["checks"] == ["pluecker"]

    @pytest.mark.parametrize("key, value", [("instances", 2.0), ("miwa_cutoff", 8.0),
                                            ("N", 2.0), ("seed", True)])
    def test_integer_keys_take_only_ints(self, key, value):
        # an integral float used to pass as an integer and then break every
        # check that counts with it
        with pytest.raises(ConfigError) as e:
            validate_config({key: value})
        assert str(e.value) == "config key %s: %r is not an integer" % (key, value)

    def test_both_vector_lengths_named(self):
        with pytest.raises(ConfigError) as e:
            validate_config({"M": 2, "u": ["2"], "v": ["3", "5", "7"]})
        assert str(e.value).splitlines() == ["config key u: expected 2 entries for M=2",
                                             "config key v: expected 2 entries for M=2"]

    def test_import_needs_no_schema_engine(self):
        code = "import sys; sys.modules['jsonschema'] = None; import tltau.cli"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _schur_record(part, seed=1):
    cfg = validate_config({"checks": ["schur-expansion"], "seed": seed})
    recs = [r for r in run_suite(cfg)["records"] if r["params"].get("part") == part]
    assert len(recs) == 1
    return recs[0]


class TestSuite:
    def test_an_empty_check_list_is_refused(self, tmp_path, capsys):
        # an empty list would certify nothing and report "0/0 passed"
        with pytest.raises(ConfigError, match="config key checks: "):
            validate_config({"checks": []})
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"checks": []}))
        assert main(["verify", "--config", str(path)]) == 2
        assert "config key checks: [] has fewer than" in capsys.readouterr().err

    def test_diagram_counts_all_pass(self):
        cfg = validate_config({"checks": ["diagram-counts"], "M": 2})
        report = run_suite(cfg)
        assert report["summary"]["total"] > 0
        assert report["summary"]["failed"] == 0
        assert all(r["check"] == "diagram-counts" for r in report["records"])

    def test_diagram_counts_fail_on_an_empty_range(self, tmp_path, capsys):
        # at even M the least lambda_1 with the parity of M + 1 is 1, so
        # lambda1_max 0 leaves nothing to count; at odd M it counts lambda_1 = 0
        raw = {"checks": ["diagram-counts"], "lambda1_max": 0}
        (rec,) = run_suite(validate_config(raw))["records"]
        assert not rec["pass"]
        assert "lambda1_max 0 is below 1" in rec["error"]
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        assert main(["count-diagrams", "--config", str(path), "--text"]) == 1
        assert "summary: 0/1 passed" in capsys.readouterr().out
        summary = run_suite(validate_config(dict(raw, M=1)))["summary"]
        assert summary == {"total": 1, "passed": 1, "failed": 0}

    def test_bethe_fails_when_no_root_set_converges(self, tmp_path, capsys):
        # at (N, M) = (3, 2) every palette start stalls or ends on an excluded
        # point; the run is one failing record, not a 0/0 pass
        path = tmp_path / "noroots.json"
        path.write_text(json.dumps({"checks": ["bethe"], "N": 3, "M": 2}))
        assert main(["verify", "--config", str(path), "--json"]) == 1
        (rec,) = json.loads(capsys.readouterr().out)["records"]
        assert (rec["check"], rec["params"], rec["pass"]) == ("bethe", {"N": 3, "M": 2}, False)
        assert rec["error"] == "no regular root set converged from any palette start"

    def test_repeated_roots_become_error_record(self):
        cfg = validate_config(
            {"checks": ["theorem-quotient"], "M": 2, "u": ["2", "2"], "instances": 1}
        )
        report = run_suite(cfg)
        assert report["summary"]["failed"] == report["summary"]["total"] > 0
        errors = [r for r in report["records"] if "error" in r]
        assert errors
        assert all(r["params"] == _params_blob(build_params(cfg)) for r in errors)

    @pytest.mark.parametrize("raw, error", [
        ({"u": ["2", "3"], "v": ["2", "5"], "checks": ["theorem-quotient", "integral-rep"]},
         "PoleError: vanishing factor w(v_i/u_j) (i=0 j=0)"),
        ({"N": 2, "M": 1, "u": ["1"], "v": ["1/3"], "checks": ["theorem-quotient"]},
         "PoleError: vanishing factor w(u_j) (j=0)"),
    ])
    def test_fixed_instance_that_fails_names_the_factor(self, raw, error):
        # with nothing to draw, a failing check is the answer, not a cue to
        # retry the same (u, v) until the draw budget runs out
        records = run_suite(validate_config(raw))["records"]
        assert [r["check"] for r in records] == raw["checks"]
        assert all(not r["pass"] and r["error"] == error for r in records)

    def test_boundary_violation_becomes_error_records(self):
        # an irrational deformation parameter cannot build rational params
        cfg = validate_config({"checks": ["diagram-counts"], "Q": "2", "spin_twice": 2})
        report = run_suite(cfg)
        assert report["summary"]["failed"] == report["summary"]["total"] > 0

    @pytest.mark.parametrize("Q, error", [("0", "Q must be nonzero"),
                                          ("1/0", "Q 1/0 has a zero denominator")])
    def test_bad_q_becomes_one_named_error_per_check(self, Q, error):
        cfg = validate_config({"Q": Q})
        report = run_suite(cfg)
        assert [r["check"] for r in report["records"]] == list(CHECK_NAMES)
        assert all(not r["pass"] and r["error"] == error for r in report["records"])

    def test_report_shape(self):
        cfg = validate_config({"checks": ["diagram-counts"]})
        report = run_suite(cfg)
        assert report["tool"] == "tltau"
        assert "timestamp" in report
        assert "out" not in report["config"]
        for rec in report["records"]:
            assert set(rec) >= {"check", "params", "instance_seed", "residual", "pass"}

    @pytest.mark.parametrize("seed", [1, 4, 5])
    def test_quadratic_schur_expansion_passes(self, seed):
        # the shrink test compares reconstruction errors near 1e-15, which a
        # double evaluation of a + b sqrt(d) reads as 0 or as rounding noise
        cfg = validate_config({"checks": ["schur-expansion"], "field_mode": "quadratic",
                               "spin_twice": 2, "Q": "2", "seed": seed})
        report = run_suite(cfg)
        assert report["summary"]["failed"] == 0, [r["residual"] for r in report["records"]]

    def test_kernel_expansion_sees_a_dropped_sign_in_the_h_recurrence(self, monkeypatch):
        # h_n = sum_k e_k h_(n-k) without (-1)^(k-1) is not the complete
        # symmetric function in M variables (h_2 becomes e_1^2 + e_2), so each
        # s_lam of the Lambda_M route is wrong from weight 2 on: the low Schur
        # coefficients of the tau quotient are spoiled, and the kernel-expansion
        # error stops shrinking with the cutoff.  The same tables evaluate every
        # Schur sum on points, so points-vs-times and both reconstruction
        # records fail too
        seeds = (1, 2, 3)
        parts = ("points-vs-times", "reconstruction", "kernel-expansion")

        def verdicts(seed):
            cfg = validate_config({"checks": ["schur-expansion"], "seed": seed})
            recs = run_suite(cfg)["records"]
            assert [r["params"]["part"] for r in recs] == [parts[0], parts[1], parts[1], parts[2]]
            return [r["pass"] for r in recs]

        assert all(all(verdicts(seed)) for seed in seeds)

        source = textwrap.dedent(inspect.getsource(schur._complete_e))
        assert "(-1) ** (k - 1) * " in source
        namespace = dict(vars(schur))
        exec(source.replace("(-1) ** (k - 1) * ", ""), namespace)
        # a fresh _schur_e, whose memo the faulty recurrence fills
        exec(textwrap.dedent(inspect.getsource(schur._schur_e)), namespace)
        monkeypatch.setattr(schur, "_schur_e", namespace["_schur_e"])
        assert not any(any(verdicts(seed)) for seed in seeds)

    def test_points_vs_times_builds_each_schur_polynomial_once(self, monkeypatch):
        built = []
        original = schur.schur_miwa

        def counted(lam, *args):
            built.append(lam)
            return original(lam, *args)

        monkeypatch.setattr(schur, "schur_miwa", counted)
        assert _schur_record("points-vs-times")["pass"]
        assert sorted(built) == sorted(schur.partitions_bounded(6))

    def test_points_vs_times_sees_a_flipped_hook_height_sign(self, monkeypatch):
        # (-1)^(height + 1) for every removed rim hook turns chi^lam(mu) into
        # (-1)^len(mu) chi^lam(mu), so s_(1) = t_1 becomes -t_1 and the
        # character route leaves Jacobi-Trudi in the points' e_k
        assert _schur_record("points-vs-times")["pass"]

        source = textwrap.dedent(inspect.getsource(schur._character))
        assert "(-1) ** height" in source
        namespace = dict(vars(schur))
        exec(source.replace("(-1) ** height", "(-1) ** (height + 1)"), namespace)
        monkeypatch.setattr(schur, "_character", namespace["_character"])
        assert not _schur_record("points-vs-times")["pass"]

    def test_hirota_sees_a_wrong_cauchy_binet_coefficient(self, monkeypatch):
        # one more unit of s_(1,1) in each reconstructed tau sum breaks the
        # Pluecker relations among its Schur coefficients, so the KP residual
        # turns nonzero
        def kp_passes():
            cfg = validate_config({"checks": ["hirota"], "seed": 1})
            recs = run_suite(cfg)["records"]
            assert len(recs) == 2 and not any("error" in r for r in recs)
            assert [r["params"]["operator"] for r in recs] == ["D1^4+3D2^2-4D1D3"] * 2
            assert [r["params"]["family"] for r in recs] == [1, 2]
            return [r["pass"] for r in recs]

        assert kp_passes() == [True, True]

        real = schur.cauchy_binet_coeffs

        def faulty(*args, **kwargs):
            cmap = real(*args, **kwargs)
            cmap.entries[(1, 1)] += 1
            return cmap

        monkeypatch.setattr(schur, "cauchy_binet_coeffs", faulty)
        assert kp_passes() == [False, False]

    # each fault edits the source of `name` as the check finds it in `module`
    @pytest.mark.parametrize("check, module, name, old, new", [
        # the minor expansion without its alternating sign is the permanent
        ("pluecker", algebra, "det_ring", "term = -term", "term = term"),
        # (x_j - x_i) flips the sign of the M = 2 Vandermonde in det F / Delta
        ("integral-rep", tau, "vandermonde", "pts[i] - pts[j]", "pts[j] - pts[i]"),
        # S_ij = sum_k mu_k f_i g_i is no longer the moment matrix
        ("andreev", tau, "andreev_residual", "gvals[j][k]", "gvals[i][k]"),
        # the moment determinant as a permanent gains the repeated-index
        # terms that the sum over M-subsets leaves out
        ("andreev", algebra, "det_ring", "term = -term", "term = term"),
    ])
    def test_instance_check_sees_a_seeded_fault(self, monkeypatch, check, module, name, old, new):
        def passes():
            cfg = validate_config({"checks": [check], "instances": 5})
            recs = run_suite(cfg)["records"]
            assert not any("error" in r for r in recs)
            return [r["pass"] for r in recs]

        assert all(passes())

        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert old in source
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(module, name, namespace[name])
        verdicts = passes()
        assert verdicts.count(False) * 2 > len(verdicts), verdicts

    @pytest.mark.parametrize("M", [5, 7])
    def test_andreev_draws_at_least_m_points(self, M):
        # fewer points than M give a moment matrix of rank below M and no
        # M-subset, so both sides are 0 and the record passes on nothing
        report = run_suite(validate_config({"checks": ["andreev"], "M": M, "instances": 6}))
        assert [len(r["params"]["points"]) >= M for r in report["records"]] == [True] * 6

    def test_andreev_sees_a_dropped_subset_at_m5(self, monkeypatch):
        def verdicts():
            cfg = validate_config({"checks": ["andreev"], "M": 5, "instances": 6})
            return [r["pass"] for r in run_suite(cfg)["records"]]

        assert verdicts() == [True] * 6
        monkeypatch.setattr(tau, "combinations", lambda ks, M: list(combinations(ks, M))[:-1])
        assert verdicts() == [False] * 6

    def test_bethe_sees_a_seeded_fault_in_the_pole_bracket(self, monkeypatch):
        # q^2 y - 1/q for q y - 1/q in the bracket's A term moves its zero
        # set: the solver then certifies roots of the wrong equation, which
        # only the closed form of the single root can tell.  (The n2_i
        # factors hold only the other roots, so at M = 1 they are absent.)
        from tltau import bethe, chain

        def verdicts():
            recs = run_suite(validate_config({"checks": ["bethe"], "M": 1}))["records"]
            assert not any("error" in r for r in recs)
            return [(r["params"].get("part", "roots"), r["pass"]) for r in recs]

        clean = verdicts()
        assert all(ok for _, ok in clean) and ("closed-form-match", True) in clean

        old = "(qy - iq) ** e"
        source = textwrap.dedent(inspect.getsource(chain.pole_brackets))
        assert old in source
        namespace = dict(vars(chain))
        exec(source.replace(old, "(qy * q - iq) ** e"), namespace)
        monkeypatch.setattr(bethe, "pole_brackets", namespace["pole_brackets"])
        assert ("closed-form-match", False) in verdicts()

    def test_diagram_counts_see_a_wrong_two_row_closed_form(self, monkeypatch):
        # for odd lam, (lam + 1)(lam + 3) / 8 is an integer and (lam + 1)^2 / 8
        # is below it, so the two-row closed form is off on every
        # default-config record (M = 2)
        def verdicts():
            recs = run_suite(validate_config({"checks": ["diagram-counts"]}))["records"]
            assert not any("error" in r for r in recs)
            assert {r["params"]["M"] for r in recs} == {2}
            return [r["pass"] for r in recs]

        assert verdicts() == [True] * 7

        old = "(lam1max + 1) * (lam1max + 3) // 8"
        source = textwrap.dedent(inspect.getsource(diagrams.count_closed))
        assert old in source
        namespace = dict(vars(diagrams))
        exec(source.replace(old, "(lam1max + 1) * (lam1max + 1) // 8"), namespace)
        monkeypatch.setattr(diagrams, "count_closed", namespace["count_closed"])
        assert verdicts() == [False] * 7

    def test_root_checks_name_opposite_config_roots(self):
        # u = (2, -2) gives sigma_1 = sigma_2, so every determinant is 0; the
        # checks that draw roots must refuse it instead of passing on 0 = 0
        cfg = validate_config({"checks": list(ROOT_CHECKS), "u": ["2", "-2"]})
        recs = run_suite(cfg)["records"]
        assert [r["check"] for r in recs] == list(ROOT_CHECKS)
        assert all(not r["pass"] and "w(u_i/u_j)" in r["error"] for r in recs)

    def test_root_checks_pass_once_without_roots(self):
        cfg = validate_config({"checks": list(ROOT_CHECKS), "M": 0})
        recs = run_suite(cfg)["records"]
        assert [r["check"] for r in recs] == list(ROOT_CHECKS)
        assert all(r["pass"] and r["residual"] is None for r in recs)

    def test_float_records_do_not_depend_on_an_earlier_precision(self):
        # a 400-bit context made earlier in the process must not raise the
        # precision of a later 192-bit run, which would read the family-1
        # integral-rep residual 1.4e-56 as -3.4e-119
        cfg = validate_config({"checks": ["theorem-quotient", "integral-rep"],
                               "field_mode": "float", "instances": 1})
        with mp.workprec(53):  # restores the global precision afterwards
            first = run_suite(cfg)["records"]
            FieldContext("float", prec=400)
            again = run_suite(cfg)["records"]
        assert (first[1]["check"], first[1]["params"]["family"]) == ("integral-rep", 1)
        assert first[1]["residual"] == "1.40192088179655800378541e-56"
        assert again == first

    def test_text_format_smoke(self):
        cfg = validate_config({"checks": ["diagram-counts"]})
        report = run_suite(cfg)
        text = format_text(report)
        assert "summary:" in text
        assert "diagram-counts" in text


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"checks": ["diagram-counts"]}))
        assert main(["verify", "--config", str(good)]) == 0
        capsys.readouterr()

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 0}))
        assert main(["verify", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config key N" in err

        failing = tmp_path / "failing.json"
        failing.write_text(
            json.dumps({"checks": ["theorem-quotient"], "u": ["2", "2"], "instances": 1})
        )
        assert main(["verify", "--config", str(failing)]) == 1
        capsys.readouterr()

    def test_subcommand_restricts_checks(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["count-diagrams", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert {r["check"] for r in report["records"]} == {"diagram-counts"}
        assert report["config"]["seed"] == 7

    def test_reruns_byte_identical_modulo_timestamp(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["count-diagrams", "--seed", "5", "--json", "--out", str(out)]
            )
            assert code == 0
            capsys.readouterr()
            blob = json.loads(out.read_text())
            blob.pop("timestamp")
            outs.append(json.dumps(blob, sort_keys=True))
        assert outs[0] == outs[1]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"N": 2}]))
        assert main(["verify", "--config", str(path)]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_flag_overrides_are_validated(self, capsys):
        assert main(["count-diagrams", "--seed", "-3"]) == 2
        assert "config key seed" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["verify", "--config", str(missing)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unwritable_out_is_named_and_exits_2(self, tmp_path, capsys):
        # the directory is missing, so the file cannot be opened for writing
        out = tmp_path / "missing" / "report.json"
        assert main(["count-diagrams", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["summary"]["failed"] == 0
        assert captured.err.startswith("cannot write report: ")
        assert "Traceback" not in captured.err
        assert not out.exists()
