"""Delay-spectrum algebra for streaming codes.

A code's per-symbol decoding delays are compressed into an equally-delayed
grouping: a list of (delay, count) pairs sorted by strictly decreasing
delay. This module provides the grouping container, the converse lower
bound on group delays, the extremal grouping that meets the bound, the
constrained maximization used by the allocator when a hop must fit under
the pairing budget left by the other hop, and the bookkeeping operations
(concatenation, constraint subtraction) the allocator iterates.

All arithmetic is exact: counts are integers and intermediate rate values
are fractions.Fraction, never floats. Rates like 8/9 must compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Sequence, Union

Count = Union[int, Fraction]


def _as_count(x: Count) -> Count:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class DelayGrouping:
    """Equally-delayed symbols description: ((delay, count), ...).

    Entries are dense over a contiguous delay range in strictly decreasing
    order; zero counts are permitted inside the range. Zero-count entries at
    the extremes are trimmed by from_pairs, the canonical constructor.
    """

    entries: tuple[tuple[int, Count], ...]

    def __post_init__(self) -> None:
        delays = [d for d, _ in self.entries]
        if any(a <= b for a, b in zip(delays, delays[1:])):
            raise ValueError("delays must be strictly decreasing")
        if any(c < 0 for _, c in self.entries):
            raise ValueError("counts must be nonnegative")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Count]]) -> "DelayGrouping":
        acc: dict[int, Count] = {}
        for d, c in pairs:
            acc[d] = _as_count(acc.get(d, 0) + c)
        acc = {d: c for d, c in acc.items()}
        nonzero = [d for d, c in acc.items() if c != 0]
        if not nonzero:
            return DelayGrouping(entries=())
        hi, lo = max(nonzero), min(nonzero)
        return DelayGrouping(
            entries=tuple((d, _as_count(acc.get(d, 0))) for d in range(hi, lo - 1, -1))
        )

    def total(self) -> Count:
        return _as_count(sum((c for _, c in self.entries), 0))

    def count_at(self, delay: int) -> Count:
        for d, c in self.entries:
            if d == delay:
                return c
        return 0

    def count_at_least(self, delay: int) -> Count:
        return _as_count(sum((c for d, c in self.entries if d >= delay), 0))

    def worst_delay(self) -> int:
        if not self.entries:
            raise ValueError("empty grouping has no worst delay")
        return self.entries[0][0]

    def nonzero(self) -> tuple[tuple[int, Count], ...]:
        return tuple((d, c) for d, c in self.entries if c != 0)

    def scaled(self, m: int) -> "DelayGrouping":
        return DelayGrouping(entries=tuple((d, _as_count(c * m)) for d, c in self.entries))

    def shifted(self, dt: int) -> "DelayGrouping":
        return DelayGrouping(entries=tuple((d + dt, c) for d, c in self.entries))


def concat_groupings(a: DelayGrouping, b: DelayGrouping) -> DelayGrouping:
    """Spectrum of the concatenated code: per-delay counts add."""
    return DelayGrouping.from_pairs(tuple(a.entries) + tuple(b.entries))


def delay_lower_bound(n: int, k: Count, N: int, prefix_counts: Sequence[Count] = ()) -> int:
    """Minimal admissible delay of the next equally-delayed group.

    For a systematic code of rate k/n surviving N erasures, the group that
    comes after prefix_counts symbols at strictly larger delays cannot be
    decoded faster than

        ceil( N*n/(n-k) * (1 - sum(prefix)/n) - 1 ).
    """
    if k >= n:
        raise ValueError("bound needs k < n (some redundancy)")
    if N < 1:
        raise ValueError("bound needs N >= 1")
    prefix = sum(prefix_counts, start=Fraction(0))
    if prefix > k:
        raise ValueError("prefix exceeds message size")
    value = Fraction(N * n, n - k) * (1 - Fraction(prefix, n)) - 1
    return ceil(value)


def optimal_grouping(n: int, k: Count, N: int, worst_delay: int) -> DelayGrouping:
    """Extremal grouping meeting the converse bound at every group.

    Puts n - (worst_delay/N)*(n-k) symbols at worst_delay and (n-k)/N at
    every delay below it down to N. Requires N | (n-k); the planner rescales
    n until that holds.
    """
    if k >= n:
        raise ValueError("need k < n")
    parity = n - k
    if parity % N != 0:
        raise ValueError(f"(n-k)={parity} not divisible by N={N}; rescale n first")
    if worst_delay < delay_lower_bound(n, k, N):
        raise ValueError("worst_delay below the converse bound")
    head = n - Fraction(worst_delay * parity, N)
    if head < 0:
        raise ValueError("worst_delay too large: head group would be negative")
    step = parity // N
    pairs = [(worst_delay, _as_count(head))]
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

    entries: tuple[tuple[int, Count], ...]

    def __post_init__(self) -> None:
        delays = [d for d, _ in self.entries]
        if not self.entries:
            raise ValueError("constraint needs at least the terminal entry")
        if any(a != b + 1 for a, b in zip(delays, delays[1:])):
            raise ValueError("constraint entries must be dense, decreasing")
        if any(c < 0 for _, c in self.entries):
            raise ValueError("counts must be nonnegative")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, Count]], min_allowed_delay: int) -> "SpectrumConstraint":
        acc: dict[int, Count] = {}
        for d, c in pairs:
            acc[d] = _as_count(acc.get(d, 0) + c)
        hi = max(list(acc) + [min_allowed_delay - 1])
        lo = min_allowed_delay - 1
        if any(d < lo for d, c in acc.items() if c != 0):
            raise ValueError("constraint mass below the terminal delay")
        return SpectrumConstraint(
            entries=tuple((d, _as_count(acc.get(d, 0))) for d in range(hi, lo - 1, -1))
        )

    def total(self) -> Count:
        return _as_count(sum((c for _, c in self.entries), 0))

    def allowed_above(self, delay: int) -> Count:
        return _as_count(sum((c for d, c in self.entries if d > delay), 0))

    def scaled(self, m: int) -> "SpectrumConstraint":
        return SpectrumConstraint(entries=tuple((d, _as_count(c * m)) for d, c in self.entries))


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
            remaining[d + 1] = _as_count(remaining[d + 1] + remaining[d])
            remaining[d] = 0
    # delays below the terminal never gain budget, so drop them back off
    return SpectrumConstraint(
        entries=tuple((d, _as_count(remaining[d])) for d in range(top, bottom - 1, -1))
    )


def max_symbols_under_constraint(
    n: int,
    N: int,
    delays: Sequence[int],
    constraint: SpectrumConstraint,
    delay_shift: int = 0,
) -> tuple[int, list[Fraction]]:
    """Largest message size a rate-adjusted code can carry under the budget.

    For each candidate delay d (largest first, down to N-1), inverting the
    converse bound with the budget available above d gives

        k'[d] = n - n*N*(1 - allowed_above(d)/n) / (d + 1);

    the achievable message size is floor(min k'). The entry at d = N-1
    degenerates to the total budget at delays >= N, capping the code by the
    pairing mass it may consume. delay_shift maps code delays to constraint
    delays when the link adds a fixed propagation delay.
    """
    if not delays:
        raise ValueError("no candidate delays")
    kprime: list[Fraction] = []
    for d in delays:
        allowed = Fraction(constraint.allowed_above(d + delay_shift))
        kprime.append(n - Fraction(n * N, 1) * (1 - allowed / n) / (d + 1))
    best = min(kprime)
    return max(0, floor(best)), kprime
