"""Two-sample rank-sum comparison (Mann-Whitney U).

Persistence samples are bounded counts with heavy ties, so the
comparison is rank-based with a normal approximation corrected for
ties. The p-value is two-sided without continuity correction. When
every observation is identical the samples cannot be told apart and
the p-value is 1.
"""

from __future__ import annotations

import math
from typing import Sequence


def _ranks(values: Sequence[float]) -> tuple[list[float], int]:
    """Fractional ranks (1-based), tied values sharing their average rank,
    and the tie term: the sum of c**3 - c over the tie groups' sizes c."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        count = j - i + 1
        tie_term += count**3 - count
        i = j + 1
    return ranks, tie_term


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2))


def rank_sum_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """U statistic for x against y and a two-sided p-value.

    U counts, over all pairs, how often an x value beats a y value
    (ties count half). The p-value uses the tie-corrected normal
    approximation, which is adequate for the sample sizes the
    experiment harness produces.
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ValueError("rank_sum_test needs non-empty samples")
    ranks, tie_term = _ranks(list(x) + list(y))
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2

    n = n1 + n2
    variance = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance == 0:
        return u1, 1.0
    z = (u1 - n1 * n2 / 2) / math.sqrt(variance)
    p = 2 * _normal_sf(abs(z))
    return u1, min(p, 1.0)
