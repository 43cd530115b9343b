"""Delay-spectrum algebra for streaming codes.

A code's per-symbol decoding delays are compressed into an equally-delayed
grouping: a list of (delay, count) pairs sorted by strictly decreasing
delay. This module provides the grouping container, the converse lower
bound on group delays, the extremal grouping that meets the bound, the
constrained maximization used by the allocator when a hop must fit under
the pairing budget left by the other hop, and the budget subtraction the
allocator iterates.

The allocator's loop works on the list form of a spectrum, a pair
(top, counts) with counts[i] symbols at delay top - i, and builds the
validated DelayGrouping only when it assembles a plan. A pairing budget
in list form ends with a zero terminal entry one below its smallest
allowed delay: delays below the terminal add no budget.

A count is a number of symbols, so it is an int: DelayGrouping rejects
any other type, the converse bound is an integer ceiling and the
constrained maximization an integer floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

Spectrum = tuple[int, list[int]]  # list form: (top delay, dense counts)


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

    @staticmethod
    def from_counts(spectrum: Spectrum) -> "DelayGrouping":
        """The grouping of a spectrum in list form. Its end counts must be
        nonzero, as the planner's always are: only from_pairs trims."""
        top, counts = spectrum
        return DelayGrouping(entries=tuple(zip(range(top, top - len(counts), -1), counts)))

    def total(self) -> int:
        return sum(c for _, c in self.entries)


def delay_lower_bound(n: int, k: int, N: int) -> int:
    """Smallest worst-case delay of a code of rate k/n surviving N erasures.

    The converse bound ceil(N*n/(n-k)) - 1, by integer floor division.
    """
    if k >= n:
        raise ValueError("bound needs k < n (some redundancy)")
    if N < 1:
        raise ValueError("bound needs N >= 1")
    return -(-N * n // (n - k)) - 1


def optimal_counts(n: int, k: int, N: int, worst_delay: int) -> list[int]:
    """Extremal grouping meeting the converse bound at every group, as the
    counts of its list form from worst_delay down.

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
    return [head] + [step] * (worst_delay - N)


def optimal_grouping(n: int, k: int, N: int, worst_delay: int) -> DelayGrouping:
    """The grouping of optimal_counts(n, k, N, worst_delay)."""
    counts = optimal_counts(n, k, N, worst_delay)
    g = DelayGrouping.from_pairs((worst_delay - i, c) for i, c in enumerate(counts))
    assert g.total() == k
    return g


def subtract_constraint(constraint: Spectrum, used: Spectrum) -> Spectrum:
    """Consume ``used`` symbols from a pairing budget, delay by delay.

    Both are in list form; ``used`` is a grouping's, so its top delay
    carries symbols. A deficit at some delay is legal (the symbols pair
    with budget from a larger delay, arriving early and being buffered):
    it is zeroed and charged to the next larger delay. Symbols used below
    the terminal are all deficit, as delays there hold no budget. A
    deficit that escapes past the top delay means the budget was
    oversubscribed, which the allocator never does. O(D) in the delays
    spanned.
    """
    top, budget = constraint
    used_top, counts = used
    if not counts:
        return constraint
    if used_top > top:
        raise ValueError("used symbols above the constraint's delay range")
    off = top - used_top
    remaining = budget + [0] * (off + len(counts) - len(budget))
    for i, c in enumerate(counts, off):
        remaining[i] -= c
    carry = 0
    for i in range(len(remaining) - 1, -1, -1):
        r = remaining[i] + carry
        carry = min(r, 0)
        remaining[i] = r - carry
    if carry:
        raise ValueError("constraint oversubscribed")
    return top, remaining[: len(budget)]


def max_symbols_under_constraint(
    n: int,
    N: int,
    delays: Sequence[int],
    constraint: Spectrum,
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
    top, budget = constraint
    # above[i]: budget at delays strictly above top - i, one prefix sum
    above = list(accumulate(budget, initial=0))
    last = len(budget)

    def floor_kprime(d: int) -> int:
        allowed = above[min(max(top - d - delay_shift, 0), last)]
        return (n * (d + 1) - N * (n - allowed)) // (d + 1)

    return max(0, min(map(floor_kprime, delays)))
