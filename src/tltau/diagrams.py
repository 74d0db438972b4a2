"""Counting the diagrams that survive the even-exponent lattice.

On the unsquared exponent lattice only partitions whose shifted labels
l_j = lam_j - j + M are all even carry a nonzero coefficient (the odd
columns of the Taylor table vanish identically).  The label parities force
lam_j == M + j (mod 2) row by row, which makes the parts strictly decreasing
down to a last part that must be even.

Three routes to the same count are kept deliberately separate so they can
cross-check each other: explicit enumeration, the parity-stepped nested sum,
and closed-form polynomials for one, two, and three rows.
"""


def _require_parity(M, lam1max):
    if M < 1:
        raise ValueError("need at least one row")
    if lam1max < 0:
        raise ValueError("lam1max must be nonnegative")
    if (lam1max - (M + 1)) % 2 != 0:
        raise ValueError(
            "lam1max must have the parity of M + 1 (got M=%d, lam1max=%d)"
            % (M, lam1max)
        )


def enumerate_admissible(M, lam1max):
    """All admissible diagrams with first part at most lam1max, as canonical
    partitions sorted lexicographically on their padded label vectors."""
    _require_parity(M, lam1max)
    out = []

    def rec(prefix, bound):
        level = len(prefix)
        if level == M:
            out.append(tuple(prefix))
            return
        lo = (M + level + 1) % 2
        for x in range(lo, bound + 1, 2):
            prefix.append(x)
            rec(prefix, x - 1)
            prefix.pop()

    rec([], lam1max)
    out.sort()
    return [tuple(x for x in lam if x) for lam in out]


def count_nested(M, lam1max):
    """The parity-stepped nested sum over admissible label chains.  The
    innermost factor counts the choices of the final even part; with a single
    row the sum degenerates to that factor."""
    _require_parity(M, lam1max)
    memo = {}

    def rec(level, bound):
        # level is the 1-based row index; part values at this row sit in the
        # parity class (M + level) mod 2.
        if bound < 0:
            return 0
        if level == M:
            return bound // 2 + 1
        key = (level, bound)
        got = memo.get(key)
        if got is not None:
            return got
        lo = (M + level) % 2
        total = 0
        for x in range(lo, bound + 1, 2):
            total += rec(level + 1, x - 1)
        memo[key] = total
        return total

    return rec(1, lam1max)


def count_closed(M, lam1max):
    """Closed-form counts for up to three rows; the nested sum beyond.

    One row: (lam1max + 2) / 2 over even bounds.
    Two rows: (lam1max + 1)(lam1max + 3) / 8 over odd bounds.
    Three rows: lam1max (lam1max^2 + 6 lam1max + 8) / 48 over even bounds.
    """
    _require_parity(M, lam1max)
    if M == 1:
        return (lam1max + 2) // 2
    if M == 2:
        return (lam1max + 1) * (lam1max + 3) // 8
    if M == 3:
        return lam1max * (lam1max * lam1max + 6 * lam1max + 8) // 48
    return count_nested(M, lam1max)
