"""Admissible-diagram enumeration against closed forms and brute force."""

from math import comb

import pytest

from tltau.diagrams import count_closed, count_nested, enumerate_admissible
from reference import parity_admissible


def brute_force(M, lam1max):
    """All partitions with at most M rows, first row at most lam1max, kept
    when every shifted label is even."""
    out = []

    def rec(prefix, cap):
        if len(prefix) <= M and parity_admissible(tuple(prefix), M):
            out.append(tuple(prefix))
        if len(prefix) == M:
            return
        lo = 1
        for nxt in range(min(cap, lam1max), lo - 1, -1):
            rec(prefix + [nxt], nxt)

    rec([], lam1max)
    return sorted(set(out), key=lambda l: (sum(l), l))


class TestParity:
    def test_row_by_row(self):
        assert parity_admissible((2,), 1)
        assert not parity_admissible((1,), 1)
        assert parity_admissible((3, 2), 2)
        assert not parity_admissible((2, 2), 2)
        assert parity_admissible((2, 1), 3)
        assert parity_admissible((), 1) == (1 % 2 == 1)

    def test_too_long(self):
        assert not parity_admissible((2, 1, 1, 1), 3)

    def test_strictness_is_forced(self):
        # every admissible shape with several rows is strictly decreasing
        for M in (2, 3, 4):
            for lam in enumerate_admissible(M, M + 7 if (M + 7 - M - 1) % 2 == 0 else M + 8):
                parts = [x for x in lam if x]
                assert all(a > b for a, b in zip(parts, parts[1:])), lam


class TestEnumeration:
    def test_pinned_lists(self):
        assert enumerate_admissible(1, 0) == [()]
        assert enumerate_admissible(2, 3) == [(1,), (3,), (3, 2)]
        assert enumerate_admissible(3, 4) == [(2, 1), (4, 1), (4, 3), (4, 3, 2)]

    def test_matches_brute_force(self):
        for M in (1, 2, 3, 4):
            for lam1max in range(M + 1 - 2, 14, 2):
                if lam1max < 0:
                    continue
                if (lam1max - (M + 1)) % 2 != 0:
                    lam1max += 1
                got = enumerate_admissible(M, lam1max)
                assert sorted(got) == sorted(brute_force(M, lam1max))

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            enumerate_admissible(1, 1)
        with pytest.raises(ValueError):
            enumerate_admissible(2, 2)
        with pytest.raises(ValueError):
            count_closed(3, 3)
        with pytest.raises(ValueError):
            count_nested(1, -2)


class TestCounts:
    def test_pinned_counts(self):
        assert count_closed(2, 5) == 6
        assert count_closed(3, 2) == 1
        assert count_closed(3, 6) == 10
        assert count_closed(1, 4) == 3

    def test_closed_forms(self):
        # one row: (l+2)/2, two rows: (l+1)(l+3)/8, three rows: l(l^2+6l+8)/48
        for lam in range(0, 14, 2):
            assert count_closed(1, lam) == (lam + 2) // 2
        for lam in range(1, 14, 2):
            assert count_closed(2, lam) == (lam + 1) * (lam + 3) // 8
        for lam in range(0, 14, 2):
            assert count_closed(3, lam) == lam * (lam * lam + 6 * lam + 8) // 48

    def test_three_routes_agree(self):
        for M in range(1, 6):
            start = 0 if (M + 1) % 2 == 0 else 1
            for lam in range(start, 14, 2):
                a = len(enumerate_admissible(M, lam))
                b = count_nested(M, lam)
                c = count_closed(M, lam)
                assert a == b == c, (M, lam)

    def test_binomial_identity(self):
        # all the closed forms collapse to C((lam1max + M - 1)/2 + 1, M)
        for M in range(1, 6):
            start = 0 if (M + 1) % 2 == 0 else 1
            for lam in range(start, 14, 2):
                assert count_nested(M, lam) == comb((lam + M - 1) // 2 + 1, M)
