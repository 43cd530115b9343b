"""Rate bounds and allocation planning for the two-hop relay network.

Terminology used throughout: hop 1 connects source to relay over L_sr
parallel links, hop 2 connects relay to destination over L_rd links. Link i
of hop h tolerates N_i adversarial packet erasures and may add a fixed
propagation delay dT_i; the two combine into the effective per-link delay
budget Z_i = N_i + dT_i. Every source packet must be reconstructed at the
destination within T slots of creation.

The planners all produce an Allocation: a common per-link packet size, a
per-link message share for both hops, and the per-link delay groupings that
the relay's symbol-wise relabeling will pair up. Rates are exact fractions;
a rate like 8/9 is compared exactly, never through floats.

Schemes:

* upper_bound: per-hop sums of point-to-point capacities at the delay each
  hop can afford given the other hop's fastest link.
* mwdf: the relay decodes whole packets at a fixed split T1 + T2 <= T
  (message-wise decode-and-forward), exhaustively optimized over splits.
* cswdf: per link-pair single-path codes run side by side; pairs that
  cannot carry symbols are dropped and their slots reclaimed.
* oswdf: the optimized symbol-wise scheme: allocate the bottleneck hop at
  its per-link capacities, then fill the other hop under the pairing
  constraint; if a gap remains, bisect on the bottleneck rate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Optional, Sequence

from .spectrum import (
    DelayGrouping,
    Spectrum,
    delay_lower_bound,
    max_symbols_under_constraint,
    optimal_counts,
    optimal_grouping,
    subtract_constraint,
)

N_MAX = 10**5  # packet-size guard for the bisection refinement
RATE_TOLERANCE = Fraction(1, 10**4)


@dataclass(frozen=True)
class NetworkConfig:
    """Deadline, per-link erasure budgets and optional propagation delays."""

    T: int
    N1: tuple[int, ...]
    N2: tuple[int, ...]
    dT1: tuple[int, ...] = ()
    dT2: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("deadline must be at least 1")
        if not self.N1 or not self.N2:
            raise ValueError("each hop needs at least one link")
        object.__setattr__(self, "N1", tuple(self.N1))
        object.__setattr__(self, "N2", tuple(self.N2))
        dT1 = tuple(self.dT1) if self.dT1 else (0,) * len(self.N1)
        dT2 = tuple(self.dT2) if self.dT2 else (0,) * len(self.N2)
        if len(dT1) != len(self.N1) or len(dT2) != len(self.N2):
            raise ValueError("propagation delay lists must match link counts")
        if min(self.N1 + self.N2) < 0 or min(dT1 + dT2) < 0:
            raise ValueError("budgets and delays must be nonnegative")
        object.__setattr__(self, "dT1", dT1)
        object.__setattr__(self, "dT2", dT2)

    @property
    def Z1(self) -> tuple[int, ...]:
        return tuple(n + d for n, d in zip(self.N1, self.dT1))

    @property
    def Z2(self) -> tuple[int, ...]:
        return tuple(n + d for n, d in zip(self.N2, self.dT2))


def point_rate(tau: int, N: int) -> Fraction:
    """Single-link streaming capacity (tau+1-N)/(tau+1) at code delay tau."""
    if tau + 1 <= N:
        return Fraction(0)
    return Fraction(tau + 1 - N, tau + 1)


def t_min(config: NetworkConfig) -> int:
    """Smallest deadline at which every link of both hops is usable."""
    z1, z2 = config.Z1, config.Z2
    return max(max(z1) + min(z2), max(z2) + min(z1))


@dataclass(frozen=True)
class _Hop:
    """One hop's links as the rate bounds and the symbol-wise planner see them.

    Z = N + dT folds propagation delay into the budget. A link's code may
    use delays up to what the other hop's fastest link leaves of the
    deadline, and its cap is its point rate there. At T >= t_min, the only
    deadlines the symbol-wise planner accepts, every link's max delay is
    at least its N, so every cap is positive, and so is every per-link
    rate the planner gives a bottleneck link. Note the rate denominators
    keep N, not Z: a slot of pure delay costs strictly less rate than an
    extra erasure would. The allocator visits links in decreasing Z order.
    """

    name: str
    N: tuple[int, ...]
    dT: tuple[int, ...]
    z: tuple[int, ...]
    max_delay: tuple[int, ...]
    caps: tuple[Fraction, ...]
    rate: Fraction
    order: tuple[int, ...]


def _hops(config: NetworkConfig) -> tuple[_Hop, _Hop]:
    def hop(name, N, dT, z, other_z) -> _Hop:
        max_delay = tuple(config.T - min(other_z) - dt for dt in dT)
        caps = tuple(point_rate(md, n) for md, n in zip(max_delay, N))
        return _Hop(
            name=name,
            N=N,
            dT=dT,
            z=z,
            max_delay=max_delay,
            caps=caps,
            rate=sum(caps, start=Fraction(0)),
            order=tuple(sorted(range(len(N)), key=lambda i: (-z[i], -N[i], i))),
        )

    z1, z2 = config.Z1, config.Z2
    return hop("hop1", config.N1, config.dT1, z1, z2), hop("hop2", config.N2, config.dT2, z2, z1)


def upper_bound(config: NetworkConfig) -> Fraction:
    """Capacity upper bound: the smaller of the two hop rate sums."""
    return min(h.rate for h in _hops(config))


def mwdf_rate(config: NetworkConfig) -> tuple[Fraction, int, int]:
    """Best message-wise rate over all integer splits T1 + T2 <= T.

    Each hop's rate sum is computed once per horizon h in [0, T]. Since
    point_rate is nondecreasing in its delay, so is each sum, and for a
    given t1 the best t2 is T - t1: the rate is the max over t1 of
    min(h1[t1], h2[T - t1]). The split returned is the lexicographically
    first (t1, t2) reaching that rate: the smallest such t1, then the
    smallest t2 whose hop-2 sum reaches it. A zero rate returns (0, 0, T).
    """
    t = config.T

    def hop_sums(Ns: Sequence[int], dTs: Sequence[int]) -> list[tuple[int, int]]:
        # sum of point_rate(h - dt, n) over its positive terms, as (num, den)
        sums = []
        for h in range(t + 1):
            num, den = 0, 1
            for n, dt in zip(Ns, dTs):
                b = h - dt + 1
                if b > n:
                    num, den = num * b + (b - n) * den, den * b
            sums.append((num, den))
        return sums

    # rates compare by cross-multiplication (every den is positive); the
    # strict > keeps the smallest t1 reaching the best rate
    h1, h2 = hop_sums(config.N1, config.dT1), hop_sums(config.N2, config.dT2)
    (best, best_den), t1 = (0, 1), 0
    for i in range(t + 1):
        (a, a_den), (b, b_den) = h1[i], h2[t - i]
        low, low_den = (a, a_den) if a * b_den <= b * a_den else (b, b_den)
        if low * best_den > best * low_den:
            (best, best_den), t1 = (low, low_den), i
    if best == 0:
        return Fraction(0), 0, t
    t2 = bisect_left(h2, True, 0, t - t1 + 1, key=lambda h: h[0] * best_den >= best * h[1])
    return Fraction(best, best_den), t1, t2


@dataclass(frozen=True)
class Allocation:
    """Planner output: per-link code sizes, groupings and delay roles.

    n1/n2 are per-link packet sizes (equal across links for oswdf; cswdf
    reclaims dropped pairs so its links may differ). Groupings hold code
    delays; propagation delays are added back at pairing time. When
    relabel_delay is set every first-hop symbol is forwarded at exactly
    that delay (message-wise relaying); otherwise each symbol moves on as
    its own declared delay expires.
    """

    scheme: str
    config: NetworkConfig
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    k1: tuple[int, ...]
    k2: tuple[int, ...]
    groupings1: tuple[DelayGrouping, ...]
    groupings2: tuple[DelayGrouping, ...]
    bottleneck: str = "hop1"
    relabel_delay: Optional[int] = None
    capped: bool = False  # bisection stopped by the packet-size guard
    # Per-link design budgets the codes are built against, by default the
    # network budgets; matched-rate baselines shrink these below config.N so
    # the grouping stays decomposable at the borrowed block length.
    budgets1: tuple[int, ...] = ()
    budgets2: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets1", tuple(self.budgets1) or self.config.N1)
        object.__setattr__(self, "budgets2", tuple(self.budgets2) or self.config.N2)

    @property
    def k(self) -> int:
        return min(sum(self.k1), sum(self.k2))

    @property
    def n(self) -> int:
        return max(self.n1 + self.n2, default=0)

    @property
    def rate(self) -> Fraction:
        if self.n == 0:
            return Fraction(0)
        return Fraction(self.k, self.n)


def cswdf_closed_form(config: NetworkConfig) -> Fraction:
    """Mean-budget closed form for the concatenated scheme's rate."""
    t = config.T
    n1bar = Fraction(sum(config.Z1), len(config.Z1))
    n2bar = Fraction(sum(config.Z2), len(config.Z2))
    num = t + 1 - n1bar - n2bar
    if num <= 0:
        return Fraction(0)
    den = max(
        Fraction(t - n2bar + 1, len(config.N1)),
        Fraction(t - n1bar + 1, len(config.N2)),
    )
    return num / den


_PairCounts = tuple[list[int], list[int], list[list[int]]]  # per link: n, k, range tops


def _pair_counts(config: NetworkConfig) -> tuple[_PairCounts, _PairCounts]:
    """Each hop's per-link counts under the concatenated scheme: pair
    (i, j) carries (T+1-Z1_i-Z2_j)+ symbols; pairs that carry nothing are
    dropped and contribute no slots."""
    t = config.T
    z1, z2 = config.Z1, config.Z2
    n1, k1, tops1 = [0] * len(z1), [0] * len(z1), [[] for _ in z1]
    n2, k2, tops2 = [0] * len(z2), [0] * len(z2), [[] for _ in z2]
    for i in range(len(z1)):
        for j in range(len(z2)):
            kij = t + 1 - z1[i] - z2[j]
            if kij <= 0:
                continue
            n1[i] += t + 1 - z2[j] - config.dT1[i]
            n2[j] += t + 1 - z1[i] - config.dT2[j]
            k1[i] += kij
            k2[j] += kij
            tops1[i].append(t - z2[j] - config.dT1[i])
            tops2[j].append(t - z1[i] - config.dT2[j])
    return (n1, k1, tops1), (n2, k2, tops2)


def _concat_rate(counts: tuple[_PairCounts, _PairCounts]) -> Fraction:
    """cswdf's rate from its pair counts: both hops carry every surviving
    pair's symbols, over the widest link's packet size."""
    (n1, k1, _), (n2, _, _) = counts
    n = max(n1 + n2)
    return Fraction(sum(k1), n) if n else Fraction(0)


def cswdf_plan(config: NetworkConfig) -> tuple[Fraction, Allocation]:
    """Concatenate one single-path code per (hop-1 link, hop-2 link) pair.

    Every surviving pair's delays run from its hop budget boundary
    downward, so the two hops mirror each other and every pairing sum is
    exactly T. Each link's grouping counts, per delay, the surviving pairs
    whose range covers it; all of a link's ranges start at its budget, so
    that is the number of range tops at or above the delay.
    """
    (n1, k1, tops1), (n2, k2, tops2) = _pair_counts(config)

    def stacked(budget: int, tops: list[int]) -> DelayGrouping:
        if not tops:
            return DelayGrouping(())
        # every top is at least the budget, so both end counts are nonzero
        tops.sort()
        return DelayGrouping.from_counts(
            (tops[-1], [len(tops) - bisect_left(tops, d) for d in range(tops[-1], budget - 1, -1)])
        )

    g1 = [stacked(N, tops) for N, tops in zip(config.N1, tops1)]
    g2 = [stacked(N, tops) for N, tops in zip(config.N2, tops2)]
    alloc = Allocation(
        scheme="cswdf",
        config=config,
        n1=tuple(n1),
        n2=tuple(n2),
        k1=tuple(k1),
        k2=tuple(k2),
        groupings1=tuple(g1),
        groupings2=tuple(g2),
        bottleneck="hop1" if max(n1, default=0) >= max(n2, default=0) else "hop2",
    )
    return alloc.rate, alloc


# ---------------------------------------------------------------------------
# optimized symbol-wise planning
# ---------------------------------------------------------------------------


def _link_grouping(n: int, k: int, N: int, max_delay: int) -> Spectrum:
    """Extremal grouping for one link at the converse-bound worst delay,
    in list form."""
    if N == 0:
        return 0, [k]
    worst = delay_lower_bound(n, k, N)
    assert worst <= max_delay, "allocated above the link's capacity"
    return worst, optimal_counts(n, k, N, worst)


def _pairing_constraint(T: int, groupings: Sequence[Spectrum], dT: Sequence[int]) -> Spectrum:
    """Flip the allocated hop's effective delays through the deadline.

    Effective delay e lands at constraint delay T - e; the terminal sits
    one below the flip of the largest effective delay.
    """
    live = [(top + dt, counts) for (top, counts), dt in zip(groupings, dT) if counts]
    if not live:
        raise ValueError("allocated hop carries no symbols")
    hi = max(e for e, _ in live)
    lo = min(e - len(counts) + 1 for e, counts in live)
    budget = [0] * (hi - lo + 2)
    for e, counts in live:
        for i, c in enumerate(counts):
            budget[e - lo - i] += c
    return T - lo, budget


def _fill_under_constraint(
    n: int, links: _Hop, constraint: Spectrum, first: list[Spectrum]
) -> tuple[int, list[Spectrum]]:
    """Fill the unallocated hop link by link under the pairing budget.

    Links are visited in decreasing effective-budget order. Whenever a
    link's message count breaks the (n - k) divisibility by its budget,
    the whole allocation so far (n, both hops' groupings, the remaining
    budget) is scaled by that budget, which restores divisibility
    without re-flooring. Returns the possibly rescaled n and the new hop's
    groupings; the allocated hop's groupings ``first`` are rescaled in
    place.
    """
    top, budget = constraint
    filled: list[Spectrum] = [(0, [])] * len(links.N)

    def rescale(m: int) -> None:
        nonlocal n, budget
        n *= m
        budget = [c * m for c in budget]
        for groupings in (first, filled):
            for idx, (g_top, counts) in enumerate(groupings):
                groupings[idx] = g_top, [c * m for c in counts]

    for i in links.order:
        N, dt, maxd = links.N[i], links.dT[i], links.max_delay[i]
        if N == 0:
            # symbols at effective delay dt take the budget at delays >= dt
            k_i = min(n, sum(budget[: max(0, top - dt + 1)]))
        else:
            delays = range(maxd, N - 2, -1)
            k_i = max_symbols_under_constraint(n, N, delays, (top, budget), delay_shift=dt)
            if k_i and (n - k_i) % N != 0:
                rescale(N)
                k_i *= N
        if k_i == 0:
            continue
        g_top, counts = filled[i] = _link_grouping(n, k_i, N, maxd)
        top, budget = subtract_constraint((top, budget), (g_top + dt, counts))
    return n, filled


_Plan = tuple[int, list[Spectrum], list[Spectrum]]  # n, hop-1 and hop-2 groupings


def _plan_bottleneck_first(
    config: NetworkConfig, bot: _Hop, other: _Hop, n: int, bot_rates: Sequence[Fraction]
) -> _Plan:
    """Allocate the bottleneck hop at the given per-link rates, then fill
    the other hop under the induced pairing constraint. n must make every
    r * n integral. Returns the possibly rescaled n and both hops'
    groupings in list form."""
    bot_groupings = [
        _link_grouping(n, int(r * n), N, maxd)
        for r, N, maxd in zip(bot_rates, bot.N, bot.max_delay)
    ]
    constraint = _pairing_constraint(config.T, bot_groupings, bot.dT)
    n, other_groupings = _fill_under_constraint(n, other, constraint, bot_groupings)
    if bot.name == "hop1":
        return n, bot_groupings, other_groupings
    return n, other_groupings, bot_groupings


def _mass(groupings: Sequence[Spectrum]) -> int:
    return sum(sum(counts) for _, counts in groupings)


def _allocation(config: NetworkConfig, bot: _Hop, plan: _Plan, capped: bool = False) -> Allocation:
    """The oswdf Allocation of a list-form plan, with validated groupings."""
    n, g1, g2 = plan
    return Allocation(
        scheme="oswdf",
        config=config,
        n1=(n,) * len(config.N1),
        n2=(n,) * len(config.N2),
        k1=tuple(sum(counts) for _, counts in g1),
        k2=tuple(sum(counts) for _, counts in g2),
        groupings1=tuple(map(DelayGrouping.from_counts, g1)),
        groupings2=tuple(map(DelayGrouping.from_counts, g2)),
        bottleneck=bot.name,
        capped=capped,
    )


def _ranked_hops(config: NetworkConfig) -> tuple[_Hop, _Hop]:
    """The two hops as (bottleneck, other); refuses a deadline below t_min."""
    if config.T < t_min(config):
        raise ValueError(f"deadline {config.T} below the usable minimum {t_min(config)}")
    h1, h2 = _hops(config)
    if h1.rate < h2.rate or (h1.rate == h2.rate and sum(h1.N) >= sum(h2.N)):
        return h1, h2
    return h2, h1


def _initial_plan(config: NetworkConfig, bot: _Hop, other: _Hop) -> _Plan:
    # every bottleneck link needs (tau_i + 1) | n for integral counts
    n0 = (config.T + 1 - min(bot.z)) * (config.T + 1 - min(other.z))
    n = lcm(n0, *[d + 1 for d in bot.max_delay])
    return _plan_bottleneck_first(config, bot, other, n, bot.caps)


def oswdf_initial(config: NetworkConfig) -> Allocation:
    """First allocator pass: bottleneck hop at full per-link capacity.

    The bottleneck is the hop with the smaller capacity sum (tie: the hop
    with more total erasures). Its links get exactly their point-to-point
    share, the other hop is then filled under the pairing constraint. The
    result is optimal whenever the two hops end up carrying equal mass.
    """
    bot, other = _ranked_hops(config)
    return _allocation(config, bot, _initial_plan(config, bot, other))


def _redistribute(bot: _Hop, base: Sequence[Fraction], target: Fraction) -> list[Fraction]:
    """Per-link bottleneck rates summing to target, for 0 < target < bot.rate.

    Starts from the per-link rates ``base`` of the concatenated scheme and
    pours the remainder into links in decreasing budget order, saturating
    each at its point-to-point capacity; the caps sum to bot.rate, so the
    pour drains.
    """
    total = sum(base, start=Fraction(0))
    if target < total:
        # target below the concatenated point: scale the base, whose sum
        # is positive at T >= t_min, down uniformly
        scale = target / total
        return [r * scale for r in base]
    deficit = target - total
    rates = list(base)
    for i in bot.order:
        room = bot.caps[i] - rates[i]
        take = min(room, deficit)
        rates[i] += take
        deficit -= take
        if deficit == 0:
            break
    return rates


def oswdf_optimize(config: NetworkConfig) -> Allocation:
    """Full optimizer: initial pass, then bisection on the bottleneck rate.

    The initial pass's bottleneck mass is an upper bound on what the other
    hop can mirror; the mass it actually mirrored, and the concatenated
    scheme's rate, taken from its pair counts, are achieved lower bounds.
    Bisection probes rates on a k/n grid that doubles n when it runs out
    of resolution. It stops in one of two ways: the bracket is tighter
    than RATE_TOLERANCE, or the packet size passes N_MAX, either the
    grid's n_work or the n a probe's per-link rates need; the second marks
    the result capped. Candidates stay in list form and are compared by
    their k totals; one Allocation is built, for the plan returned, and
    the full cswdf_plan runs only when the concatenated scheme wins.
    """
    bot, other = _ranked_hops(config)
    init = _initial_plan(config, bot, other)
    n_work, g1, g2 = init
    k1, k2 = _mass(g1), _mass(g2)
    if k1 == k2:
        return _allocation(config, bot, init)

    counts = _pair_counts(config)
    init_rate, csw_rate = Fraction(min(k1, k2), n_work), _concat_rate(counts)
    best: Optional[_Plan] = init if init_rate >= csw_rate else None  # None: the cswdf plan
    lb = best_rate = max(init_rate, csw_rate)
    ub = min(bot.rate, Fraction(max(k1, k2), n_work))
    # the concatenated scheme's per-link rates, where _redistribute starts
    bot_k = (counts[0] if bot.name == "hop1" else counts[1])[1]
    den = sum(config.T + 1 - z for z in other.z)
    base = [min(cap, Fraction(k, den)) for k, cap in zip(bot_k, bot.caps)]
    capped = False

    while ub - lb >= RATE_TOLERANCE:
        lo_k, hi_k = floor(lb * n_work), ceil(ub * n_work)
        # two or more grid steps apart, the midpoint lies strictly in (lb, ub)
        if hi_k - lo_k <= 1:
            n_work *= 2
            if n_work > N_MAX:
                capped = True
                break
            continue
        probe = Fraction(lo_k + (hi_k - lo_k) // 2, n_work)
        rates = _redistribute(bot, base, probe)
        n = lcm(*[max(1, N) * r.denominator for N, r in zip(bot.N, rates)])
        if n > N_MAX:
            capped = True
            break
        cand = _plan_bottleneck_first(config, bot, other, n, rates)
        n, g1, g2 = cand
        k1, k2 = _mass(g1), _mass(g2)
        rate = Fraction(min(k1, k2), n)
        if rate > best_rate:
            best, best_rate = cand, rate
        if k1 == k2:
            lb = probe
        else:
            ub = probe
            lb = max(lb, rate)
    if best is None:
        return replace(cswdf_plan(config)[1], capped=capped)
    return _allocation(config, bot, best, capped)


# ---------------------------------------------------------------------------
# executable message-wise baseline
# ---------------------------------------------------------------------------


def mwdf_plan(config: NetworkConfig, match: Optional[Allocation] = None) -> Allocation:
    """Executable message-wise allocation.

    Without ``match``: the adversarially optimal message-wise code (rate
    from mwdf_rate). With ``match``: reuse the matched allocation's packet
    size and per-link message counts, shrinking each link's design budget
    to the largest one feasible at the split; this is how an equal-rate
    message-wise baseline is built for channel simulations.
    """
    rate, t1, t2 = mwdf_rate(config)
    if match is None:
        denoms = [t1 - dt + 1 for dt in config.dT1] + [t2 - dt + 1 for dt in config.dT2]
        n = lcm(*[d for d in denoms if d > 0])
        k1 = [int(point_rate(t1 - dt, N) * n) for N, dt in zip(config.N1, config.dT1)]
        k2 = [int(point_rate(t2 - dt, N) * n) for N, dt in zip(config.N2, config.dT2)]
    else:
        n = match.n
        if any(x != n for x in match.n1 + match.n2):
            raise ValueError("can only match an equal-packet-size allocation")
        k1, k2 = list(match.k1), list(match.k2)

    def shrink_budget(n_slots: int, k_i: int, horizon: int) -> int:
        # largest feasible design budget at this rate and delay ceiling
        if k_i == 0 or k_i >= n_slots or horizon < 1:
            return 0
        b = (horizon + 1) * (n_slots - k_i) // n_slots
        while b > 1 and (n_slots - k_i) % b != 0:
            b -= 1
        return b

    def hop_groupings(ks, Ns, dts, horizon):
        gs, budgets = [], []
        for k_i, N, dt in zip(ks, Ns, dts):
            h = horizon - dt
            if k_i == 0:
                gs.append(DelayGrouping(()))
                budgets.append(N)
                continue
            b = shrink_budget(n, k_i, h) if match is not None else N
            if b == 0:
                gs.append(DelayGrouping.from_pairs([(0, k_i)]))
                budgets.append(0)
                continue
            worst = min(h, (b * n) // (n - k_i))
            gs.append(optimal_grouping(n, k_i, b, worst))
            budgets.append(b)
        return gs, budgets

    g1, b1 = hop_groupings(k1, config.N1, config.dT1, t1)
    g2, b2 = hop_groupings(k2, config.N2, config.dT2, t2)
    return Allocation(
        scheme="mwdf",
        config=config,
        n1=(n,) * len(config.N1),
        n2=(n,) * len(config.N2),
        k1=tuple(k1),
        k2=tuple(k2),
        groupings1=tuple(g1),
        groupings2=tuple(g2),
        bottleneck="hop1",
        relabel_delay=t1,
        budgets1=tuple(b1),
        budgets2=tuple(b2),
    )
