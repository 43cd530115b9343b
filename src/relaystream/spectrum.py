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
allowed delay: delays below the terminal add no budget. Per link, the
loop's two steps touch only the link's own delays: the constrained
maximization reads the budget's prefix sums over the link's candidate
delays as one slice, and the subtraction walks the delays the link
used, then up only as far as a deficit carries.

A count is a number of symbols, so it is an int: DelayGrouping rejects
any other type, the converse bound is an integer ceiling and the
constrained maximization an integer floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import le
from typing import Iterable

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
        if not self.entries:
            return
        delays, counts = zip(*self.entries, strict=True)
        if any(map(le, delays, delays[1:])):
            raise ValueError("delays must be strictly decreasing")
        if not set(map(type, counts)) <= {int} or min(counts) < 0:
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
    oversubscribed, which the allocator never does. The walk runs from
    the bottom of the used range toward the top delay and stops at the
    first larger delay that absorbs the carried deficit, so it costs the
    used range plus how far the carry goes.
    """
    top, budget = constraint
    used_top, counts = used
    if not counts:
        return constraint
    if used_top > top:
        raise ValueError("used symbols above the constraint's delay range")
    off = top - used_top
    size = len(budget)
    end = off + len(counts)
    carry = 0
    if end > size:
        # symbols used below the terminal find no budget there
        carry = -sum(counts[size - off if size > off else 0 :])
        end = size
    remaining = budget.copy()
    for i in range(end - 1, off - 1, -1):
        r = remaining[i] - counts[i - off] + carry
        if r < 0:
            remaining[i] = 0
            carry = r
        else:
            remaining[i] = r
            carry = 0
    if carry:
        # a deficit moves toward larger delays, i.e. lower indices
        for i in range((off if off < size else size) - 1, -1, -1):
            carry += remaining[i]
            if carry >= 0:
                remaining[i] = carry
                break
            remaining[i] = 0
        else:
            raise ValueError("constraint oversubscribed")
    return top, remaining


def max_symbols_under_constraint(
    n: int,
    N: int,
    max_delay: int,
    constraint: Spectrum,
    delay_shift: int = 0,
) -> int:
    """Largest message size a rate-adjusted code can carry under the budget.

    For each candidate delay d, from max_delay down to N-1, inverting the
    converse bound with the budget available above d gives

        k'[d] = n - n*N*(1 - allowed_above(d)/n) / (d + 1);

    the achievable message size is floor(min k') = min floor(k'[d]),
    computed by integer floor division. The entry at d = N-1 degenerates
    to the total budget at delays >= N, capping the code by the pairing
    mass it may consume. delay_shift maps code delays to constraint delays
    when the link adds a fixed propagation delay.

    allowed_above(d) is the budget prefix sum at index top - d - delay_shift,
    which runs over one contiguous range as d falls: the range is read as
    one slice of the prefix sums, padded with 0 above the budget's top
    delay and with the whole budget below its terminal.
    """
    if max_delay < N - 1:
        raise ValueError("no candidate delays")
    top, budget = constraint
    last = len(budget)
    lo = top - max_delay - delay_shift  # prefix index of d = max_delay
    hi = top - N + 1 - delay_shift  # of d = N - 1
    a = 0 if lo < 0 else last if lo > last else lo
    b = 0 if hi < 0 else last if hi > last else hi
    # prefix sums a..b: the part of the window inside the budget's range
    window = list(accumulate(budget[a:b], initial=sum(budget[:a])))
    if a != lo or b != hi:
        inner = window if hi >= 0 and lo <= last else []
        window = [0] * (min(hi + 1, 0) - lo) + inner + [window[-1]] * (hi - max(lo - 1, last))
    # floor(k'[d]) with e = d + 1 is (n*e + N*(x - n)) // e = n + N*(x - n) // e
    k = n + min([
        N * (x - n) // e for e, x in zip(range(max_delay + 1, N - 1, -1), window, strict=True)
    ])
    return k if k > 0 else 0
