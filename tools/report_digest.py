"""One sha1 per `tltau verify` report, timestamp removed, on 100 fixed configs.

Usage:  python3 tools/report_digest.py TREE OUT

TREE is a checkout of this repository: its engine (`TREE/src`) runs the
configs and its `TREE/bench/workloads.py` names the benchmark units.  The
script prints one line per config, "<sha1>  <name>", then a total (the sha1
of those lines), and writes the same lines to OUT.  Two trees give the same
report bytes on these configs exactly when `diff` finds their OUT files equal.

The configs:
  * the 91 units of the three benchmark workloads;
  * default `tltau verify` in rational, float and quadratic modes (the last
    with spin_twice 2 and Q "2", as the quadratic workload);
  * hirota with schur-expansion at seeds 1-3, in rational and float modes.
"""

import hashlib
import os
import sys


def configs(workloads):
    for name in workloads.WORKLOADS:
        for unit in workloads.units_of(name):
            yield "%s/%s" % (name, unit.name), unit.config
    yield "verify/rational", {}
    yield "verify/float", {"field_mode": "float"}
    yield "verify/quadratic", dict(workloads.QUADRATIC)
    for mode in ("rational", "float"):
        for seed in (1, 2, 3):
            yield ("expansions/%s/s%d" % (mode, seed),
                   {"checks": ["hirota", "schur-expansion"], "field_mode": mode, "seed": seed})


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    tree, out = os.path.abspath(argv[1]), argv[2]
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import workloads
    from tltau import cli

    lines = []
    for name, raw in configs(workloads):
        report = cli.run_suite(cli.validate_config(dict(raw)))
        del report["timestamp"]
        lines.append("%s  %s" % (hashlib.sha1(cli.format_json(report).encode()).hexdigest(), name))
        print(lines[-1], flush=True)
    lines.append("%s  total of %d configs" % (
        hashlib.sha1("\n".join(lines).encode()).hexdigest(), len(lines)))
    print(lines[-1])
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
