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

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from typing import Optional, Sequence

from .spectrum import (
    DelayGrouping,
    SpectrumConstraint,
    concat_groupings,
    delay_lower_bound,
    max_symbols_under_constraint,
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


@dataclass(frozen=True)
class EffectiveConfig:
    """Per-link effective-delay view used by every planner."""

    config: NetworkConfig
    z1: tuple[int, ...]
    z2: tuple[int, ...]
    z1_min: int
    z2_min: int
    max_delay1: tuple[int, ...]  # largest usable code delay per hop-1 link
    max_delay2: tuple[int, ...]
    usable1: tuple[bool, ...]
    usable2: tuple[bool, ...]


def effective_config(config: NetworkConfig) -> EffectiveConfig:
    """Fold propagation delays into effective budgets Z = N + dT.

    A link is usable when its point-to-point rate at the code delay left
    over by the other hop's fastest link is positive; below that deadline
    the link is discarded. Note the denominators keep N, not Z: a slot of
    pure delay costs strictly less rate than an extra erasure would.
    """
    z1, z2 = config.Z1, config.Z2
    z1_min, z2_min = min(z1), min(z2)
    md1 = tuple(config.T - z2_min - dt for dt in config.dT1)
    md2 = tuple(config.T - z1_min - dt for dt in config.dT2)
    return EffectiveConfig(
        config=config,
        z1=z1,
        z2=z2,
        z1_min=z1_min,
        z2_min=z2_min,
        max_delay1=md1,
        max_delay2=md2,
        usable1=tuple(md >= n for md, n in zip(md1, config.N1)),
        usable2=tuple(md >= n for md, n in zip(md2, config.N2)),
    )


def point_rate(tau: int, N: int) -> Fraction:
    """Single-link streaming capacity (tau+1-N)/(tau+1) at code delay tau."""
    if tau + 1 <= 0:
        return Fraction(0)
    return max(Fraction(0), Fraction(tau + 1 - N, tau + 1))


def t_min(config: NetworkConfig) -> int:
    """Smallest deadline at which every link of both hops is usable."""
    z1, z2 = config.Z1, config.Z2
    return max(max(z1) + min(z2), max(z2) + min(z1))


def hop_rates(config: NetworkConfig) -> tuple[Fraction, Fraction]:
    eff = effective_config(config)
    r1 = sum(
        (point_rate(md, n) for md, n in zip(eff.max_delay1, config.N1)),
        start=Fraction(0),
    )
    r2 = sum(
        (point_rate(md, n) for md, n in zip(eff.max_delay2, config.N2)),
        start=Fraction(0),
    )
    return r1, r2


def upper_bound(config: NetworkConfig) -> Fraction:
    """Capacity upper bound: the smaller of the two hop rate sums."""
    r1, r2 = hop_rates(config)
    return min(r1, r2)


def mwdf_rate(config: NetworkConfig) -> tuple[Fraction, int, int]:
    """Best message-wise rate over all integer splits T1 + T2 <= T."""

    def hop_sum(links: Sequence[tuple[int, int]], horizon: int) -> Fraction:
        acc = Fraction(0)
        for n, dt in links:
            acc += point_rate(horizon - dt, n)
        return acc

    links1 = list(zip(config.N1, config.dT1))
    links2 = list(zip(config.N2, config.dT2))
    best = (Fraction(0), 0, config.T)
    for t1 in range(config.T + 1):
        for t2 in range(config.T - t1 + 1):
            rate = min(hop_sum(links1, t1), hop_sum(links2, t2))
            if rate > best[0]:
                best = (rate, t1, t2)
    return best


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
    # Per-link design budgets the codes are built against. None means the
    # network budgets; matched-rate baselines shrink these below config.N so
    # the grouping stays decomposable at the borrowed block length.
    budgets1: Optional[tuple[int, ...]] = None
    budgets2: Optional[tuple[int, ...]] = None

    def build_budgets1(self) -> tuple[int, ...]:
        return self.budgets1 if self.budgets1 is not None else self.config.N1

    def build_budgets2(self) -> tuple[int, ...]:
        return self.budgets2 if self.budgets2 is not None else self.config.N2

    @property
    def k1_total(self) -> int:
        return sum(self.k1)

    @property
    def k2_total(self) -> int:
        return sum(self.k2)

    @property
    def k(self) -> int:
        return min(self.k1_total, self.k2_total)

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


def cswdf_plan(config: NetworkConfig) -> tuple[Fraction, Allocation]:
    """Concatenate one single-path code per (hop-1 link, hop-2 link) pair.

    Pair (i, j) carries (T+1-Z1_i-Z2_j)+ symbols; pairs that carry nothing
    are dropped and contribute no slots. Every surviving pair's delays run
    from its hop budget boundary downward, so the two hops mirror each
    other and every pairing sum is exactly T.
    """
    t = config.T
    z1, z2 = config.Z1, config.Z2
    pair_k = {
        (i, j): max(0, t + 1 - z1[i] - z2[j])
        for i in range(len(z1))
        for j in range(len(z2))
    }
    n1 = [0] * len(z1)
    n2 = [0] * len(z2)
    k1 = [0] * len(z1)
    k2 = [0] * len(z2)
    g1 = [DelayGrouping(())] * len(z1)
    g2 = [DelayGrouping(())] * len(z2)
    for (i, j), kij in pair_k.items():
        if kij == 0:
            continue
        n1[i] += t + 1 - z2[j] - config.dT1[i]
        n2[j] += t + 1 - z1[i] - config.dT2[j]
        k1[i] += kij
        k2[j] += kij
        g1[i] = concat_groupings(
            g1[i],
            DelayGrouping.from_pairs(
                [(d, 1) for d in range(config.N1[i], t - z2[j] - config.dT1[i] + 1)]
            ),
        )
        g2[j] = concat_groupings(
            g2[j],
            DelayGrouping.from_pairs(
                [(d, 1) for d in range(config.N2[j], t - z1[i] - config.dT2[j] + 1)]
            ),
        )
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


@dataclass
class _HopLinks:
    """One hop's links in allocator processing order (decreasing Z)."""

    hop: int
    order: list[int]
    N: Sequence[int]
    dT: Sequence[int]
    max_delay: Sequence[int]
    usable: Sequence[bool]


def _hop_views(eff: EffectiveConfig) -> tuple[_HopLinks, _HopLinks]:
    c = eff.config
    h1 = _HopLinks(
        hop=1,
        order=sorted(range(len(c.N1)), key=lambda i: (-eff.z1[i], -c.N1[i], i)),
        N=c.N1,
        dT=c.dT1,
        max_delay=eff.max_delay1,
        usable=eff.usable1,
    )
    h2 = _HopLinks(
        hop=2,
        order=sorted(range(len(c.N2)), key=lambda i: (-eff.z2[i], -c.N2[i], i)),
        N=c.N2,
        dT=c.dT2,
        max_delay=eff.max_delay2,
        usable=eff.usable2,
    )
    return h1, h2


def _link_grouping(n: int, k: int, N: int, max_delay: int) -> DelayGrouping:
    """Extremal grouping for one link at the converse-bound worst delay."""
    if k == 0:
        return DelayGrouping(())
    if N == 0:
        return DelayGrouping.from_pairs([(0, k)])
    worst = delay_lower_bound(n, k, N)
    assert worst <= max_delay, "allocated above the link's capacity"
    return optimal_grouping(n, k, N, worst)


def _pairing_constraint(T: int, groupings: Sequence[DelayGrouping], dT: Sequence[int]) -> SpectrumConstraint:
    """Flip the allocated hop's effective delays through the deadline."""
    pairs = []
    max_eff = 0
    for g, dt in zip(groupings, dT):
        for d, c in g.nonzero():
            pairs.append((T - (d + dt), c))
            max_eff = max(max_eff, d + dt)
    if not pairs:
        raise ValueError("allocated hop carries no symbols")
    return SpectrumConstraint.from_pairs(pairs, min_allowed_delay=T - max_eff)


def _fill_under_constraint(
    n: int,
    links: _HopLinks,
    constraint: SpectrumConstraint,
    first_counts: list[int],
    first_groupings: list[DelayGrouping],
) -> tuple[int, list[int], list[DelayGrouping]]:
    """Fill the unallocated hop link by link under the pairing budget.

    Links are visited in decreasing effective-budget order. Whenever a
    link's message count breaks the (n - k) divisibility by its budget,
    the whole allocation so far (n, both hops' counts, the remaining
    constraint) is scaled by that budget, which restores divisibility
    without re-flooring. Returns the possibly rescaled n and the new hop's
    counts and groupings; first_counts/groupings are rescaled in place.
    """
    counts = [0] * len(links.N)
    groupings: list[DelayGrouping] = [DelayGrouping(())] * len(links.N)

    def rescale(m: int) -> None:
        nonlocal n, constraint
        n *= m
        constraint = constraint.scaled(m)
        for idx in range(len(first_counts)):
            first_counts[idx] *= m
            first_groupings[idx] = first_groupings[idx].scaled(m)
        for idx in range(len(counts)):
            counts[idx] *= m
            groupings[idx] = groupings[idx].scaled(m)

    for i in links.order:
        if not links.usable[i]:
            continue
        N, dt, maxd = links.N[i], links.dT[i], links.max_delay[i]
        if N == 0:
            k_i = min(n, int(constraint.allowed_above(dt - 1)))
        else:
            delays = list(range(maxd, N - 2, -1))
            k_i, _ = max_symbols_under_constraint(n, N, delays, constraint, delay_shift=dt)
            if k_i and (n - k_i) % N != 0:
                rescale(N)
                k_i *= N
        counts[i] = k_i
        if k_i == 0:
            continue
        g = _link_grouping(n, k_i, N, maxd)
        groupings[i] = g
        constraint = subtract_constraint(constraint, g.shifted(dt))
    return n, counts, groupings


def _plan_bottleneck_first(
    eff: EffectiveConfig, n: int, bot_rates: list[Fraction], bottleneck: str
) -> Allocation:
    """Allocate the bottleneck hop at the given per-link rates, then fill
    the other hop under the induced pairing constraint."""
    c = eff.config
    h1, h2 = _hop_views(eff)
    bot, other = (h1, h2) if bottleneck == "hop1" else (h2, h1)

    bot_counts = []
    for i, r in enumerate(bot_rates):
        k_i = r * n
        if k_i.denominator != 1:
            raise ValueError("bottleneck counts must be integral; rescale n")
        bot_counts.append(int(k_i))
    bot_groupings = [
        _link_grouping(n, k_i, bot.N[i], bot.max_delay[i])
        for i, k_i in enumerate(bot_counts)
    ]
    constraint = _pairing_constraint(c.T, bot_groupings, bot.dT)
    n, other_counts, other_groupings = _fill_under_constraint(
        n, other, constraint, bot_counts, bot_groupings
    )
    if bottleneck == "hop1":
        k1, g1, k2, g2 = bot_counts, bot_groupings, other_counts, other_groupings
    else:
        k1, g1, k2, g2 = other_counts, other_groupings, bot_counts, bot_groupings
    return Allocation(
        scheme="oswdf",
        config=c,
        n1=(n,) * len(c.N1),
        n2=(n,) * len(c.N2),
        k1=tuple(k1),
        k2=tuple(k2),
        groupings1=tuple(g1),
        groupings2=tuple(g2),
        bottleneck=bottleneck,
    )


def _initial_scale(n0: int, taus: Sequence[int]) -> int:
    # every bottleneck link needs (tau_i + 1) | n for integral counts
    need = lcm(*[t + 1 for t in taus]) if taus else 1
    return n0 * (need // gcd(need, n0))


def oswdf_initial(config: NetworkConfig) -> Allocation:
    """First allocator pass: bottleneck hop at full per-link capacity.

    The bottleneck is the hop with the smaller capacity sum (tie: the hop
    with more total erasures). Its links get exactly their point-to-point
    share, the other hop is then filled under the pairing constraint. The
    result is optimal whenever the two hops end up carrying equal mass.
    """
    if config.T < t_min(config):
        raise ValueError(f"deadline {config.T} below the usable minimum {t_min(config)}")
    eff = effective_config(config)
    r1, r2 = hop_rates(config)
    if r1 <= 0 or r2 <= 0:
        raise ValueError("a hop has no usable links at this deadline")
    if r1 < r2:
        bottleneck = "hop1"
    elif r2 < r1:
        bottleneck = "hop2"
    else:
        bottleneck = "hop1" if sum(config.N1) >= sum(config.N2) else "hop2"

    n0 = (config.T + 1 - eff.z2_min) * (config.T + 1 - eff.z1_min)
    if bottleneck == "hop1":
        maxd, budgets = eff.max_delay1, config.N1
    else:
        maxd, budgets = eff.max_delay2, config.N2
    n = _initial_scale(n0, [d for d in maxd])
    rates = [point_rate(d, N) for d, N in zip(maxd, budgets)]
    return _plan_bottleneck_first(eff, n, rates, bottleneck)


def _redistribute(
    eff: EffectiveConfig, bot: _HopLinks, target: Fraction
) -> Optional[list[Fraction]]:
    """Per-link bottleneck rates summing to target.

    Starts from the per-link rates of the concatenated scheme and pours the
    remainder into links in decreasing budget order, saturating each at its
    point-to-point capacity.
    """
    c = eff.config
    z_own = eff.z1 if bot.hop == 1 else eff.z2
    z_other = eff.z2 if bot.hop == 1 else eff.z1
    caps = [point_rate(bot.max_delay[i], bot.N[i]) for i in range(len(bot.N))]
    base = []
    for i in range(len(bot.N)):
        num = sum(max(0, c.T + 1 - z_own[i] - z) for z in z_other)
        den = sum(c.T + 1 - z for z in z_other)
        base.append(min(caps[i], Fraction(num, den)) if den > 0 else Fraction(0))
    deficit = target - sum(base, start=Fraction(0))
    if deficit < 0:
        # target below the concatenated point: scale the base down uniformly
        total = sum(base, start=Fraction(0))
        return [r * target / total for r in base] if total > 0 else None
    rates = base[:]
    for i in bot.order:
        room = caps[i] - rates[i]
        take = min(room, deficit)
        rates[i] += take
        deficit -= take
        if deficit == 0:
            break
    if deficit > 0:
        return None  # target above the hop capacity
    return rates


def _evaluate_rate(eff: EffectiveConfig, bottleneck: str, target: Fraction) -> Optional[Allocation]:
    """Try to realize a bottleneck-hop rate; None if the packet size guard trips."""
    h1, h2 = _hop_views(eff)
    bot = h1 if bottleneck == "hop1" else h2
    rates = _redistribute(eff, bot, target)
    if rates is None:
        return None
    n = lcm(*[max(1, N) * r.denominator for N, r in zip(bot.N, rates)])
    if n > N_MAX:
        return None
    return _plan_bottleneck_first(eff, n, rates, bottleneck)


def oswdf_optimize(config: NetworkConfig) -> Allocation:
    """Full optimizer: initial pass, then bisection on the bottleneck rate.

    The initial pass's bottleneck mass is an upper bound on what the other
    hop can mirror; the mass it actually mirrored, and the concatenated
    scheme, are achieved lower bounds. Bisection probes rates on a k/n grid
    that doubles n when it runs out of resolution, and stops once the
    bracket is tighter than the rate tolerance or n would exceed the guard.
    """
    init = oswdf_initial(config)
    if init.k1_total == init.k2_total:
        return init

    csw_rate, csw_alloc = cswdf_plan(config)
    best = max([init, csw_alloc], key=lambda a: a.rate)
    lb = best.rate
    ub = min(upper_bound(config), Fraction(max(init.k1_total, init.k2_total), init.n))
    bottleneck = init.bottleneck
    eff = effective_config(config)
    capped = False

    n_work = init.n
    while ub - lb >= RATE_TOLERANCE:
        lo_k, hi_k = floor(lb * n_work), ceil(ub * n_work)
        if hi_k - lo_k <= 1:
            n_work *= 2
            if n_work > N_MAX:
                capped = True
                break
            continue
        probe = Fraction(lo_k + (hi_k - lo_k) // 2, n_work)
        if not lb < probe < ub:
            n_work *= 2
            if n_work > N_MAX:
                capped = True
                break
            continue
        cand = _evaluate_rate(eff, bottleneck, probe)
        if cand is None:
            capped = True
            break
        if cand.k1_total == cand.k2_total:
            lb = probe
            if cand.rate > best.rate:
                best = cand
        else:
            ub = probe
            if cand.rate > best.rate:
                best = cand
            lb = max(lb, cand.rate)
    if capped and best.scheme == "oswdf":
        best = replace(best, capped=True)
    return best


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
        budgets1=tuple(b1) if match is not None else None,
        budgets2=tuple(b2) if match is not None else None,
    )
