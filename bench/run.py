"""Benchmark of `tltau verify`: reference-normalised unit timings, cold start,
set-up, memory, and a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  Details, seeds and reference figures: README.md
in this directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path[:0] = [BENCH, SRC]

import oracles  # noqa: E402
from timing import clock, normalised  # noqa: E402
from workloads import WORKLOADS, plan, units_of  # noqa: E402

SETUP_PROCESSES = 8
MEASURE_PROCESSES = 3
DEADLINE_S = 170

END_TO_END = (("verify_s", "s"), ("cold_verify_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))

# Per-layer metrics: (metric, unit, source).  A source "calls"/"self_s"/
# "cold_self_s" reads that field of the span named by the metric's first two
# parts; "counter" reads the tracer counter of the same name; "layer" sums
# the self time of every span of the layer.
PER_LAYER = [
    ("algebra.det.calls", "count", "calls"),
    ("algebra.det.self_s", "s", "self_s"),
    ("algebra.det.n3", "count", "counter"),
    ("algebra.qnum_mul.calls", "count", "counter"),
    ("algebra.qnum_inverse.calls", "count", "counter"),
    ("algebra.miwa_mul.calls", "count", "calls"),
    ("algebra.miwa_mul.self_s", "s", "self_s"),
    ("algebra.miwa_mul.term_pairs", "count", "counter"),
    ("algebra.miwa_series_invert.calls", "count", "calls"),
    ("algebra.miwa_series_invert.self_s", "s", "self_s"),
    ("algebra.det_ring.calls", "count", "calls"),
    ("algebra.det_ring.self_s", "s", "self_s"),
    ("algebra.solve_linear.calls", "count", "calls"),
    ("algebra.solve_linear.self_s", "s", "self_s"),
    ("algebra.laurent_mul.calls", "count", "calls"),
    ("algebra.laurent_mul.self_s", "s", "self_s"),
    ("algebra.laurent_mul.coeff_pairs", "count", "counter"),
    ("algebra.laurent_invert.calls", "count", "calls"),
    ("algebra.laurent_invert.self_s", "s", "self_s"),
    ("chain.lambda_du.calls", "count", "calls"),
    ("chain.lambda_du.self_s", "s", "self_s"),
    ("chain.f2_eval.calls", "count", "calls"),
    ("chain.kernel.calls", "count", "calls"),
    ("chain.kernel.self_s", "s", "self_s"),
    ("chain.g_prefactor.calls", "count", "calls"),
    ("chain.validate_uv.calls", "count", "calls"),
    ("chain.f_series.calls", "count", "calls"),
    ("chain.f_series.self_s", "s", "self_s"),
    ("chain.lambda_du_y.calls", "count", "calls"),
    ("chain.lambda_du_y.self_s", "s", "self_s"),
    ("chain.kernel_y.calls", "count", "calls"),
]
for _fn in ("fhat_table", "cauchy_binet_coeffs", "schur_miwa", "tau_schur_poly",
            "schur_points", "poly_to_schur"):
    PER_LAYER += [("schur.%s.calls" % _fn, "count", "calls"),
                  ("schur.%s.self_s" % _fn, "s", "self_s")]
PER_LAYER += [
    ("schur.complete_homogeneous.calls", "count", "calls"),
    ("schur.poly_to_schur.cold_self_s", "s", "cold_self_s"),
    ("schur.complete_homogeneous.cold_self_s", "s", "cold_self_s"),
]
for _fn in ("tau_det", "tau_residue", "pluecker_residual", "andreev_residual", "hirota_apply"):
    PER_LAYER += [("tau.%s.calls" % _fn, "count", "calls"),
                  ("tau.%s.self_s" % _fn, "s", "self_s")]
PER_LAYER += [
    ("bethe.solve_bethe.calls", "count", "calls"),
    ("bethe.solve_bethe.self_s", "s", "self_s"),
    ("bethe.solve_bethe.iterations", "count", "counter"),
    ("bethe.solve_bethe.converged", "count", "counter"),
    ("bethe.residue_vector.calls", "count", "calls"),
    ("bethe.residue_vector.self_s", "s", "self_s"),
    ("bethe.solve_bethe_grid.solutions", "count", "counter"),
    ("bethe.solve_bethe_grid.distinct_per_start", "ratio", "derived"),
    ("diagrams.self_s", "s", "layer"),
    ("cli.self_s", "s", "layer"),
    ("cli.draw_instance.calls", "count", "calls"),
    ("algebra.self_s", "s", "layer"),
    ("chain.self_s", "s", "layer"),
    ("schur.self_s", "s", "layer"),
    ("tau.self_s", "s", "layer"),
    ("bethe.self_s", "s", "layer"),
    ("src.lines", "lines", "derived"),
]


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline, ok_codes=(0,)):
    left = deadline - clock()
    if left <= 1:
        raise BenchError("out of time before %s" % " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left, cwd=ROOT,
                              env=_env())
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: %s" % " ".join(cmd[1:]))
    if proc.returncode not in ok_codes:
        raise BenchError("%s exited %d:\n%s" % (" ".join(cmd[1:]), proc.returncode,
                                                 proc.stderr[-2000:]))
    return proc.stdout


def worker(args, deadline):
    out = _run([sys.executable, os.path.join(BENCH, "worker.py")] + args, deadline)
    return json.loads(out.strip().splitlines()[-1])


def cli_records(workload, layout, deadline):
    """Records of one `tltau verify --config` per workload config, each in a
    fresh process."""
    out = []
    for k, (config, _) in enumerate(layout):
        path = os.path.join(OUT, "verify-%s-%d.json" % (workload, k))
        with open(path, "w") as fh:
            json.dump(config, fh)
        report = _run([sys.executable, "-m", "tltau.cli", "verify", "--config", path],
                      deadline, ok_codes=(0, 1))
        out.append(json.loads(report)["records"])
    return out


def src_lines():
    pkg = os.path.join(SRC, "tltau")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def structural_problems(layout, results, verify_records):
    """Determinism across passes and processes, and the decomposition of each
    verify config into its units."""
    problems = []
    digests = {p["sha256"] for r in results for p in r["passes"]}
    if len(digests) != 1:
        problems.append("unit records differ between passes or processes (%d variants)"
                        % len(digests))
    records = results[0]["records"]
    idx = 0
    for k, (_, units) in enumerate(layout):
        union = [rec for i in range(idx, idx + len(units)) for rec in records[i]]
        idx += len(units)
        if union != verify_records[k]:
            problems.append("units of verify config %d do not reproduce its %d records "
                            "(got %d)" % (k, len(verify_records[k]), len(union)))
    return problems


def unit_medians(results, passes, value):
    """Per unit, the median of value(sample) over the selected passes of
    every process."""
    n = len(results[0]["passes"][0]["samples"])
    return [statistics.median(value(p["samples"][u]) for r in results for p in passes(r["passes"]))
            for u in range(n)]


def end_to_end(results, setups):
    def warm(passes):
        return passes[1:]

    def cold(passes):
        return passes[:1]

    def raw(sample):
        return sample[0]

    setup_samples = [r["setup"] for r in setups + results]
    unit_verify_s = unit_medians(results, warm, normalised)
    metrics = {
        "verify_s": sum(unit_verify_s),
        "cold_verify_s": sum(unit_medians(results, cold, normalised)),
        "setup_s": statistics.median(normalised(s) for s in setup_samples),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in results) / 1024,
    }
    details = {
        "verify_raw_s": sum(unit_medians(results, warm, raw)),
        "cold_verify_raw_s": sum(unit_medians(results, cold, raw)),
        "setup_raw_s": statistics.median(raw(s) for s in setup_samples),
        "warm_passes": [len(r["passes"]) - 1 for r in results],
        "unit_verify_s": unit_verify_s,
        "samples": [[p["samples"] for p in r["passes"]] for r in results],
        "setup_samples": setup_samples,
    }
    return metrics, details


def per_layer(result):
    cold, warm = result["passes"]
    layers = {}
    for name, t in warm["self_s"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    starts = warm["calls"].get("bethe.solve_bethe", 0)
    derived = {
        "bethe.solve_bethe_grid.distinct_per_start":
            warm["counters"].get("bethe.solve_bethe_grid.solutions", 0) / starts if starts else 0.0,
        "src.lines": src_lines(),
    }
    values = {}
    for metric, _unit, source in PER_LAYER:
        span = ".".join(metric.split(".")[:2])
        if source == "calls":
            values[metric] = warm["calls"].get(span, 0)
        elif source == "self_s":
            values[metric] = warm["self_s"].get(span, 0.0)
        elif source == "cold_self_s":
            values[metric] = cold["self_s"].get(span, 0.0)
        elif source == "counter":
            values[metric] = warm["counters"].get(metric, 0)
        elif source == "layer":
            values[metric] = layers.get(metric.split(".")[0], 0.0)
        else:
            values[metric] = derived[metric]
    return values


def measure(workload, seed, seconds, trace, measure_processes=MEASURE_PROCESSES,
            setup_processes=SETUP_PROCESSES):
    """Run the benchmark; returns (result object, summary for the out file)."""
    deadline = clock() + DEADLINE_S
    layout = plan(workload)
    os.makedirs(OUT, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    setups = []
    if trace:
        spans = os.path.join(OUT, "spans-%s.json.gz" % tag)
        results = [worker(base + ["--mode", "trace", "--spans", spans], deadline)]
    else:
        setups = [worker(base + ["--mode", "setup"], deadline) for _ in range(setup_processes)]
        budget = seconds / measure_processes
        results = [worker(base + ["--mode", "measure", "--budget", str(budget)], deadline)
                   for _ in range(measure_processes)]
    verify_records = cli_records(workload, layout, deadline)

    units = units_of(workload)
    unit_records = [(u.name, recs) for u, recs in zip(units, results[0]["records"])]
    problems = structural_problems(layout, results, verify_records)
    found, rejected = oracles.check(workload, unit_records, [c for c, _ in layout], seed)
    problems += found
    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["records"] for p in passes)
    failed = sum(p["failed"] + len(rejected) for p in passes)

    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "problems": problems, "rejected": rejected,
               "unit_names": [u.name for u in units]}
    if trace:
        metrics = per_layer(results[0])
        unit_of = {m: u for m, u, _ in PER_LAYER}
        warm = results[0]["passes"][1]["samples"]
        summary["traced_verify_s"] = sum(normalised(s) for s in warm)
        summary["traced_verify_raw_s"] = sum(s[0] for s in warm)
    else:
        metrics, details = end_to_end(results, setups)
        unit_of = dict(END_TO_END)
        summary.update(details)
    summary["metrics"] = metrics
    with open(os.path.join(OUT, "summary-%s.json" % tag), "w") as fh:
        json.dump(summary, fh, indent=1)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": unit_of[m]} for m, v in metrics.items()}}
    return result, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tltau", "cli.py")):
        print("no engine source at %s; run from a tltau checkout" % SRC, file=sys.stderr)
        return 2
    try:
        result, summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    for line in summary["problems"] + summary["rejected"]:
        print(("problem: " if line in summary["problems"] else "failed: ") + line,
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
