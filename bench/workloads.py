"""Workload definitions: the `tltau verify` configs each workload certifies and
the short units they are split into.

A unit is one `run_suite` call on a validated config that names one check.
For each workload config, the records of its units, concatenated in the
order given here, are exactly the records of one `tltau verify` of that
config (timestamp aside); `run.py` checks this on every run.
"""

import random
from collections import namedtuple

# Registry order of `tltau verify`; records of one config come in this order.
# Copied rather than imported so that loading this module does not import the
# engine before a worker has timed its set-up.
CHECK_ORDER = (
    "theorem-quotient",
    "pluecker",
    "integral-rep",
    "hirota",
    "schur-expansion",
    "diagram-counts",
    "andreev",
    "bethe",
)

QUADRATIC = {"field_mode": "quadratic", "spin_twice": 2, "Q": "2"}
INSTANCE_CHECKS = ("theorem-quotient", "pluecker", "integral-rep", "andreev")
INSTANCES = 20
EXPANSION_SEEDS = (1, 2, 3)
EXPANSION_CHECKS = ("hirota", "schur-expansion")
CUTOFFS = {"schur_cutoff": 8, "miwa_cutoff": 8}
BETHE_SIZES = ((2, 2), (2, 1), (3, 1), (4, 1))
FLOAT = {"field_mode": "float", "precision_bits": 192}

WORKLOADS = ("identities-quadratic", "expansions-rational", "bethe-float")


# One timed `run_suite` call: a name and the raw config it validates.
Unit = namedtuple("Unit", "name config")


def plan(workload):
    """The workload as [(verify_config, [unit, ...]), ...].

    Instance checks use `instances: 1` with config seed s, which reproduces
    instance s - 1 of the default 20-instance run at config seed 1: the
    check's instance seeds are (config seed + crc32(check name)) + i.
    """
    if workload == "identities-quadratic":
        checks = INSTANCE_CHECKS + ("diagram-counts",)
        config = dict(QUADRATIC, checks=list(checks))
        units = []
        for check in sorted(checks, key=CHECK_ORDER.index):
            if check == "diagram-counts":
                units.append(Unit(check, dict(QUADRATIC, checks=[check])))
                continue
            for s in range(1, INSTANCES + 1):
                units.append(Unit("%s/s%d" % (check, s),
                                  dict(QUADRATIC, checks=[check], instances=1, seed=s)))
        return [(config, units)]
    if workload == "expansions-rational":
        out = []
        for s in EXPANSION_SEEDS:
            config = dict(CUTOFFS, checks=list(EXPANSION_CHECKS), seed=s)
            units = [Unit("%s/s%d" % (check, s), dict(CUTOFFS, checks=[check], seed=s))
                     for check in sorted(EXPANSION_CHECKS, key=CHECK_ORDER.index)]
            out.append((config, units))
        return out
    if workload == "bethe-float":
        out = []
        for N, M in BETHE_SIZES:
            config = dict(FLOAT, checks=["bethe"], N=N, M=M)
            out.append((config, [Unit("bethe/N%dM%d" % (N, M), dict(config))]))
        return out
    raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))


def units_of(workload):
    return [u for _, units in plan(workload) for u in units]


def run_order(workload, seed):
    """Unit indices in the order every pass of a run uses, shuffled by the
    benchmark seed.  All processes of one run share it, so a cache fill in
    the cold pass lands on the same unit in each of them."""
    order = list(range(len(units_of(workload))))
    random.Random(seed).shuffle(order)
    return order
