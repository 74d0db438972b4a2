"""What the Bethe root search does, per model, on a grid of (Q, N, M).

Usage:  python3 tools/bethe_survey.py TREE [Q,N,M ...]

TREE is a checkout of this repository; its engine (`TREE/src`) runs the
`bethe` check of `tltau verify` (float mode, 192 bits, spin_twice 1) at each
(Q, N, M) given, by default at Q in {-2, 3, 5, -1/3, 1/2, -4}, 1 <= N <= 6,
1 <= M <= 3 with N M <= 12.  It prints one line per config,

    Q N M  runs converged irregular brackets  <sha1>

where `runs` counts the `bethe.solve_bethe` calls of the palette search that
return (a start on a pole of the bracket map raises and is not counted),
`converged` those that return converged (the check's root sets),
`irregular` those whose message names an irregular set, `brackets` the
`bethe._brackets` calls in complex doubles, and the sha1 is that of the
check's report, timestamp removed.  A last line gives the column totals.
On a tree whose `_newton` does not test regularity, `irregular` counts only
the runs refused at the end of a stage.  Two trees give the same bethe
records on the grid exactly when their sha1 columns are equal.

Example:  python3 tools/bethe_survey.py . -2,2,2 -2,2,1
"""

import hashlib
import os
import sys

GRID = [(Q, N, M) for Q in ("-2", "3", "5", "-1/3", "1/2", "-4")
        for N in range(1, 7) for M in range(1, 4) if N * M <= 12]


def survey(Q, N, M):
    """(runs, converged, irregular, brackets, report sha1) of the bethe
    check at (Q, N, M), counted on the `tltau` already imported."""
    from tltau import bethe, cli

    counts = [0, 0, 0, 0]
    solve, brackets = bethe.solve_bethe, bethe._brackets

    def counted_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        counts[0] += 1
        counts[1] += sol.converged
        counts[2] += "irregular" in sol.message
        return sol

    def counted_brackets(p, u):
        counts[3] += isinstance(p.q, complex)
        return brackets(p, u)

    bethe.solve_bethe, bethe._brackets = counted_solve, counted_brackets
    try:
        report = cli.run_suite(cli.validate_config(
            {"checks": ["bethe"], "field_mode": "float", "Q": Q, "N": N, "M": M}))
    finally:
        bethe.solve_bethe, bethe._brackets = solve, brackets
    del report["timestamp"]
    return (*counts, hashlib.sha1(cli.format_json(report).encode()).hexdigest())


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[1]), "src"))
    grid = [(Q, int(N), int(M)) for Q, N, M in (a.split(",") for a in argv[2:])] or GRID
    totals = [0, 0, 0, 0]
    for Q, N, M in grid:
        *counts, digest = survey(Q, N, M)
        totals = [t + c for t, c in zip(totals, counts)]
        print("%5s %d %d  %5d %5d %5d %7d  %s" % (Q, N, M, *counts, digest), flush=True)
    print("total        %5d %5d %5d %7d" % tuple(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
