"""Delay-spectrum algebra for streaming codes.

A code's per-symbol decoding delays are compressed into an equally-delayed
grouping: a list of (delay, count) pairs sorted by strictly decreasing
delay. This module provides the grouping container, the converse lower
bound on group delays, the extremal grouping that meets the bound, the
constrained maximization used by the allocator when a hop must fit under
the pairing budget left by the other hop, and the constraint subtraction
the allocator iterates.

A count is a number of symbols, so it is an int: both containers reject
any other type, the converse bound is an integer ceiling and the
constrained maximization an integer floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence


@dataclass(frozen=True)
class DelayGrouping:
    """Equally-delayed symbols description: ((delay, count), ...).

    Entries are dense over a contiguous delay range in strictly decreasing
    order; zero counts are permitted inside the range. Zero-count entries at
    the extremes are trimmed by from_pairs, the canonical constructor.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        delays = [d for d, _ in self.entries]
        if any(a <= b for a, b in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly decreasing")
        if any(type(c) is not int or c < 0 for _, c in self.entries):
            raise ValueError("counts must be nonnegative integers")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "DelayGrouping":
        acc: dict[int, int] = {}
        for d, c in pairs:
            acc[d] = acc.get(d, 0) + c
        nonzero = [d for d, c in acc.items() if c != 0]
        if not nonzero:
            return DelayGrouping(entries=())
        hi, lo = max(nonzero), min(nonzero)
        return DelayGrouping(
            entries=tuple((d, acc.get(d, 0)) for d in range(hi, lo - 1, -1))
        )

    def total(self) -> int:
        return sum(c for _, c in self.entries)

    def count_at(self, delay: int) -> int:
        for d, c in self.entries:
            if d == delay:
                return c
        return 0

    def worst_delay(self) -> int:
        if not self.entries:
            raise ValueError("empty grouping has no worst delay")
        return self.entries[0][0]

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        return tuple((d, c) for d, c in self.entries if c != 0)

    def scaled(self, m: int) -> "DelayGrouping":
        return DelayGrouping(entries=tuple((d, c * m) for d, c in self.entries))

    def shifted(self, dt: int) -> "DelayGrouping":
        return DelayGrouping(entries=tuple((d + dt, c) for d, c in self.entries))


def delay_lower_bound(n: int, k: int, N: int) -> int:
    """Smallest worst-case delay of a code of rate k/n surviving N erasures.

    The converse bound ceil(N*n/(n-k)) - 1, by integer floor division.
    """
    if k >= n:
        raise ValueError("bound needs k < n (some redundancy)")
    if N < 1:
        raise ValueError("bound needs N >= 1")
    return -(-N * n // (n - k)) - 1


def optimal_grouping(n: int, k: int, N: int, worst_delay: int) -> DelayGrouping:
    """Extremal grouping meeting the converse bound at every group.

    Puts n - worst_delay*((n-k)/N) symbols at worst_delay and (n-k)/N at
    every delay below it down to N. Requires N | (n-k), so every count is
    an int; the planner rescales n until that holds.
    """
    if k >= n:
        raise ValueError("need k < n")
    parity = n - k
    if parity % N != 0:
        raise ValueError(f"(n-k)={parity} not divisible by N={N}; rescale n first")
    if worst_delay < delay_lower_bound(n, k, N):
        raise ValueError("worst_delay below the converse bound")
    step = parity // N
    head = n - worst_delay * step
    if head < 0:
        raise ValueError("worst_delay too large: head group would be negative")
    pairs = [(worst_delay, head)]
    pairs += [(d, step) for d in range(worst_delay - 1, N - 1, -1)]
    g = DelayGrouping.from_pairs(pairs)
    assert g.total() == k
    return g


@dataclass(frozen=True)
class SpectrumConstraint:
    """Budget of symbols the other hop can hand over, per delay.

    entries are (delay, count) dense and strictly decreasing like a
    grouping, but the semantics are cumulative: a code placed under this
    constraint may put at most sum(count at delays > d) of its symbols at
    delays strictly above d. The last entry is the terminal
    (smallest allowed delay - 1, 0): delays below it add no budget.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        delays = [d for d, _ in self.entries]
        if not self.entries:
            raise ValueError("constraint needs at least the terminal entry")
        if any(a != b + 1 for a, b in zip(delays, delays[1:])):
            raise ValueError("constraint entries must be dense, decreasing")
        if any(type(c) is not int or c < 0 for _, c in self.entries):
            raise ValueError("counts must be nonnegative integers")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]], min_allowed_delay: int) -> "SpectrumConstraint":
        acc: dict[int, int] = {}
        for d, c in pairs:
            acc[d] = acc.get(d, 0) + c
        hi = max(list(acc) + [min_allowed_delay - 1])
        lo = min_allowed_delay - 1
        if any(d < lo for d, c in acc.items() if c != 0):
            raise ValueError("constraint mass below the terminal delay")
        return SpectrumConstraint(
            entries=tuple((d, acc.get(d, 0)) for d in range(hi, lo - 1, -1))
        )

    def allowed_above(self, delay: int) -> int:
        return sum(c for d, c in self.entries if d > delay)

    def scaled(self, m: int) -> "SpectrumConstraint":
        return SpectrumConstraint(entries=tuple((d, c * m) for d, c in self.entries))


def subtract_constraint(constraint: SpectrumConstraint, used: DelayGrouping) -> SpectrumConstraint:
    """Consume ``used`` symbols from the constraint, delay by delay.

    A deficit at some delay is legal (the symbols pair with budget from a
    larger delay, arriving early and being buffered): the negative entry is
    zeroed and its magnitude charged to the next larger delay. A deficit
    that escapes past the largest delay means the constraint was
    oversubscribed, which the allocator never does.
    """
    if not used.entries:
        return constraint
    top = constraint.entries[0][0]
    bottom = constraint.entries[-1][0]
    if used.worst_delay() > top:
        raise ValueError("used symbols above the constraint's delay range")
    counts = {d: c for d, c in constraint.entries}
    lo = min(bottom, used.entries[-1][0])
    remaining = {d: counts.get(d, 0) - used.count_at(d) for d in range(lo, top + 1)}
    for d in range(lo, top + 1):
        if remaining[d] < 0:
            if d == top:
                raise ValueError("constraint oversubscribed")
            remaining[d + 1] += remaining[d]
            remaining[d] = 0
    # delays below the terminal never gain budget, so drop them back off
    return SpectrumConstraint(
        entries=tuple((d, remaining[d]) for d in range(top, bottom - 1, -1))
    )


def max_symbols_under_constraint(
    n: int,
    N: int,
    delays: Sequence[int],
    constraint: SpectrumConstraint,
    delay_shift: int = 0,
) -> int:
    """Largest message size a rate-adjusted code can carry under the budget.

    For each candidate delay d (largest first, down to N-1), inverting the
    converse bound with the budget available above d gives

        k'[d] = n - n*N*(1 - allowed_above(d)/n) / (d + 1);

    the achievable message size is floor(min k') = min floor(k'[d]),
    computed by integer floor division. The entry at d = N-1 degenerates
    to the total budget at delays >= N, capping the code by the pairing
    mass it may consume. delay_shift maps code delays to constraint delays
    when the link adds a fixed propagation delay.
    """
    if not delays:
        raise ValueError("no candidate delays")
    # above[i]: budget at delays strictly above entries[i]'s delay, one pass
    above = list(accumulate((c for _, c in constraint.entries), initial=0))
    top = constraint.entries[0][0]

    def floor_kprime(d: int) -> int:
        allowed = above[min(max(top - d - delay_shift, 0), len(above) - 1)]
        return (n * (d + 1) - N * (n - allowed)) // (d + 1)

    return max(0, min(map(floor_kprime, delays)))
