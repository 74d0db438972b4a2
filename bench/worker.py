"""One fresh benchmark process: set-up, then (by mode) cold and warm passes.

    python3 bench/worker.py --workload W --seed N --mode setup|measure|trace
                            [--budget SECONDS] [--spans PATH]

Every mode first times `import tltau.cli` plus `validate_config` and
`build_params` of each workload config (the set-up sample).  `measure` then
runs the cold pass (the first pass of this process, which fills the engine's
caches) and warm passes until `--budget` seconds have passed since start, at
least one.  `trace` runs one cold and one warm pass with the span tracer
installed and writes the spans to `--spans`.  A pass runs every unit once,
each a `run_suite` call timed by `timing.timed_unit`.  The result is one JSON
object on the last line of stdout.
"""

import argparse
import gzip
import hashlib
import importlib
import json
import os
import resource
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(1, BENCH)

from timing import clock, normalised, timed_reference, timed_unit  # noqa: E402
from workloads import plan, run_order, units_of  # noqa: E402


def time_setup(configs):
    def setup():
        cli = importlib.import_module("tltau.cli")
        for raw in configs:
            cli.build_params(cli.validate_config(raw))
        return cli

    cli, sample, _ = timed_unit(setup, timed_reference())
    return cli, sample


def run_pass(cli, cfgs, order, tracer=None):
    """Run every unit once in the given order.

    Returns per-unit timing samples (see timing.timed_unit), per-unit
    records, and per-unit span ranges when tracing.
    """
    samples = [None] * len(cfgs)
    records = [None] * len(cfgs)
    ranges = [None] * len(cfgs)
    before = timed_reference()
    for idx in order:
        lo = len(tracer.spans) if tracer else 0
        report, samples[idx], before = timed_unit(lambda: cli.run_suite(cfgs[idx]), before,
                                                  ticks=tracer is None)
        ranges[idx] = (lo, len(tracer.spans) if tracer else 0)
        records[idx] = report["records"]
    return samples, records, ranges


def pass_summary(records):
    flat = [r for recs in records for r in recs]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {"records": len(flat), "failed": sum(1 for r in flat if not r["pass"]),
            "sha256": digest}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    start = clock()

    cli, setup = time_setup([cfg for cfg, _ in plan(args.workload)])
    out = {"setup": setup}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    cfgs = [cli.validate_config(u.config) for u in units_of(args.workload)]
    order = run_order(args.workload, args.seed)
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    passes = []
    while True:
        samples, records, ranges = run_pass(cli, cfgs, order, tracer)
        summary = pass_summary(records)
        summary["samples"] = samples
        if tracer:
            summary["ranges"] = [(lo, hi, normalised((1.0, s[1])))
                                 for (lo, hi), s in zip(ranges, samples)]
            summary["counters"] = tracer.take_counters()
        if not passes:
            out["records"] = records
            out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.append(summary)
        if tracer and len(passes) == 2:
            break
        if not tracer and len(passes) >= 2 and clock() - start >= args.budget:
            break
    out["passes"] = passes

    if tracer:
        tracer.uninstall()
        from tracing import aggregate

        for p in passes:
            p["calls"], p["self_s"] = aggregate(tracer.spans, p.pop("ranges"))
        if args.spans:
            with gzip.open(args.spans, "wt") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
