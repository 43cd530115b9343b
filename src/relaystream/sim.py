"""Verification and measurement: adversarial checks, Monte Carlo, ensembles.

Everything here leans on one fact about diagonally interleaved MDS
components: a message symbol is determined exactly when its own position
arrives, or when the component's k-th position (counting known pre-stream
slots) arrives, whichever is earlier. That rule makes the per-link check
exact for any component length: patterns never interact across
components, and inside one span b erasures delay the k-th arrival to at
most position k - 1 + b (never, once b > n - k), so each component's
worst case is a closed form. It differs from the declared delay by the same
amount at every slot of a run of equal components, so the check is one
comparison per run and costs per run, not per slot. The same rule lets
the Monte Carlo path skip the symbolic decoder. Packets are erased whole,
so every component on a link sees the same sorted erasure times: an
erased symbol is late iff its diagonal's window up to the allowed delay
holds more erasures than it can spare, one binary search in those times.
Each route class (link, shape, diagonal position, relay offset) is tested
once, however many routes share it, and only at erased slots, so the cost
follows the erasures, not the horizon. The classes are derived once per
code (``NetworkCode.classes``), so repeated runs on one code pay for them
once.

The network decomposes per hop: the relay re-encodes consistently, so a
source symbol survives end to end iff its first hop recovers it by the
relabel time and its second hop recovers the forwarded coordinate within
the route's remaining delay budget. Both sides reduce to the rule above.
So once every link meets its declared delays, every route leaves the
relay no sooner than its hop-1 slot may be recovered and every pairing
sum stays within T, no pair of within-budget hop patterns misses a
deadline: on a 1x1 network the verifier counts those joint pairs rather
than replaying them. The tests replay them through the real pipeline
(``tests/oracles.py``), which checks the runtime against this argument.
A failure witness's achieved delay comes from the same rule, applied on
each hop of its symbol's route, not from a run of the pipeline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .channels import GeParams, sample_ge, sample_iid
from .codes import StreamingCodeSpec
from .planner import (
    NetworkConfig,
    _concat_rate,
    _pair_counts,
    mwdf_rate,
    oswdf_optimize,
    t_min,
    upper_bound,
)
from .relay import NetworkCode

INF_DELAY = 1 << 20  # sentinel for "never recovered"


# ---------------------------------------------------------------------------
# exact per-component worst-case measurement
# ---------------------------------------------------------------------------


def component_worst_delays(
    n_c: int, k_c: int, budget: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Worst recovery delay per message symbol over all budget-sized
    erasure patterns inside the component span, with the first achieving
    pattern (erased position indices, in combinations order) for each.

    In steady state, the worst case, an erased symbol j waits for the
    k-th arrival: b erasures ahead of it push that to position k - 1 + b,
    and past the span once b > n - k."""
    b = min(budget, n_c)
    if b == 0:
        return (0,) * k_c, ((),) * k_c
    never = b > n_c - k_c
    worst = tuple(INF_DELAY if never else k_c - 1 + b - j for j in range(k_c))
    patterns = tuple(
        tuple(range(b - 1)) + (j,) if j >= b - 1 else tuple(range(b)) for j in range(k_c)
    )
    return worst, patterns


# ---------------------------------------------------------------------------
# adversarial verification
# ---------------------------------------------------------------------------


@dataclass
class FailureWitness:
    """Replayable failure: per-link erased transmit times plus the symbol
    that misses its deadline and by how much."""

    erasures1: tuple[tuple[int, ...], ...]
    erasures2: tuple[tuple[int, ...], ...]
    src_time: int
    sym: int
    required_delay: int
    actual_delay: Optional[int] = None  # None: never correctly recovered (replay_witness)


@dataclass
class VerificationReport:
    ok: bool
    checked_patterns: int
    detail: str = ""
    failure: Optional[FailureWitness] = None

    @property
    def exhaustive(self) -> bool:
        # every check is exact; perfbench/tracing.py's verify hook reads this
        return True


def _known_at(spec: StreamingCodeSpec, slot: int, t: int, erased: set[int]) -> Optional[int]:
    """Link-clock time at which the slot's symbol sent at t is known: t
    unless erased, else its diagonal's k-th known position (pre-stream
    positions are never erased, so they count), None if the diagonal never
    holds k."""
    if t not in erased:
        return t
    n_c, k_c, j = spec.shapes[slot]
    start = t - (j - 1)
    known = [p for p in range(start, start + n_c) if p not in erased]
    return known[k_c - 1] if len(known) >= k_c else None


def replay_witness(code: NetworkCode, witness: FailureWitness) -> Optional[int]:
    """The achieved delay of the offending symbol under the witness's
    erasures (None if it never arrives correctly), by the k-th-arrival
    rule on each hop of its route.

    Hop 1 must know the symbol by the time it leaves the relay, or the
    relay forwards a zero in its place, which is no recovery; hop 2 then
    runs on the relay's clock. Pairing keeps every relay delay at or below
    T, so the hop-2 diagonal lies within any replay's horizon: no cap."""
    config = code.allocation.config
    _, link1, slot1, relay, link2, slot2, _ = code.routes[witness.sym]
    s = witness.src_time
    c1 = _known_at(code.hop1[link1], slot1, s, set(witness.erasures1[link1]))
    if c1 is None or c1 + config.dT1[link1] > s + relay:
        return None
    c2 = _known_at(code.hop2[link2], slot2, s + relay, set(witness.erasures2[link2]))
    return None if c2 is None else c2 + config.dT2[link2] - s


def _witness(
    code: NetworkCode,
    erased: dict[tuple[int, int], tuple[int, ...]],
    src_time: int,
    sym: int,
    required: int,
) -> FailureWitness:
    """The witness erasing ``erased[hop, link]`` on each link it names,
    with its achieved delay (``replay_witness``) unless it has no symbol
    (sym -1, a slot pinned to zero)."""
    witness = FailureWitness(
        erasures1=tuple(erased.get((1, link), ()) for link in range(len(code.hop1))),
        erasures2=tuple(erased.get((2, link), ()) for link in range(len(code.hop2))),
        src_time=src_time,
        sym=sym,
        required_delay=required,
    )
    if sym >= 0:
        witness.actual_delay = replay_witness(code, witness)
    return witness


def _route_witness(code: NetworkCode, route, required: int) -> FailureWitness:
    """Build the witness that drives one route to its full declared delay."""
    src_time = code.span + code.allocation.config.T + 2  # comfortably past stream start

    def slot_pattern(spec: StreamingCodeSpec, slot: int, at_time: int) -> tuple[int, ...]:
        # the slot's worst pattern, on its diagonal through at_time
        n_c, k_c, j = spec.shapes[slot]
        pattern = component_worst_delays(n_c, k_c, spec.N)[1][j - 1]
        return tuple(at_time - (j - 1) + p for p in pattern)

    erased = {
        (1, route.link1): slot_pattern(code.hop1[route.link1], route.slot1, src_time),
        (2, route.link2): slot_pattern(
            code.hop2[route.link2], route.slot2, src_time + route.relay_delay
        ),
    }
    return _witness(code, erased, src_time, route.sym, required)


def _check_links(
    code: NetworkCode, config: NetworkConfig
) -> tuple[int, Optional[tuple[str, FailureWitness]]]:
    """Patterns checked, and the first failing run's detail and witness
    (None if every run passes). Symbol j of a run waits k - 1 + b - j
    slots at worst (or never, for every j) against a declared N + k - 1 - j,
    so the run's first slot decides for all of its slots."""
    checked = 0
    # at the document's T, as _route_witness anchors, not at the deadline
    # checked: a --deadline does not move a witness
    anchor = code.span + code.allocation.config.T + 2
    # the hop's budgets and where its (link, slot) pair sits in a route
    hops = ((1, code.hop1, config.N1, 1), (2, code.hop2, config.N2, 4))
    for hop, specs, budgets, col in hops:
        for link, (spec, budget) in enumerate(zip(specs, budgets)):
            for comp, places in spec.plan:
                patterns = math.comb(comp.n, min(budget, comp.n))
                worst, args = component_worst_delays(comp.n, comp.k, budget)
                declared = spec.N + comp.k - 1
                if worst[0] <= declared:
                    checked += patterns * len(places)
                    continue
                checked += patterns
                slot = places[0][1]
                route = next((r for r in code.routes if r[col : col + 2] == (link, slot)), None)
                src = anchor - route.relay_delay if hop == 2 and route else anchor
                recovers = (
                    "never recovers" if worst[0] >= INF_DELAY
                    else f"recovers in {worst[0]} slots"
                )
                # place the pattern on the diagonal through a steady-state
                # link time so the witness replays
                times = tuple(anchor + p for p in args[0])
                return checked, (
                    f"hop-{hop} link {link} slot {slot} {recovers}, declared {declared}",
                    _witness(code, {(hop, link): times}, src, route.sym if route else -1, declared),
                )
    return checked, None


def verify_adversarial(
    code: NetworkCode, config: Optional[NetworkConfig] = None
) -> VerificationReport:
    """Check the deadline guarantee link by link, then that every route
    leaves the relay no sooner than its hop-1 slot may be recovered, then
    the pairing sums.

    Per-link checks are exact for any component length: each component's
    worst case over every budget-sized pattern in its span is a closed
    form (``component_worst_delays``), and ``checked`` counts those
    patterns; one comparison per run of equal components decides all its
    slots. That covers every placement in the wider sliding window too:
    positions outside a component cannot influence it, so a window
    pattern projects onto one of the span patterns. ``config`` overrides
    the deadline to check against, so a code can be audited against a
    tighter T than it was built for.

    On a 1x1 network ``checked`` also counts every joint pair of hop
    patterns, each hop's budget placed anywhere in a window of its span
    plus its largest declared delay. Those are the pairs a joint replay
    would run, and the checks above decide every one of them (see the
    module docstring), so they are counted, never enumerated, as the
    per-link patterns are.
    """
    config = config or code.allocation.config
    checked, failure = _check_links(code, config)

    def fail(detail: str, witness: FailureWitness) -> VerificationReport:
        return VerificationReport(ok=False, checked_patterns=checked, detail=detail, failure=witness)

    if failure is not None:
        return fail(*failure)

    for route in code.routes:
        # the relay must hold the symbol before it forwards it
        ready = code.hop1[route.link1].slot_delays[route.slot1] + config.dT1[route.link1]
        if route.relay_delay < ready:
            return fail(
                f"symbol {route.sym} leaves the relay after {route.relay_delay} "
                f"slots, but hop-1 link {route.link1} slot {route.slot1} may "
                f"take {ready} (declared delay plus propagation)",
                _route_witness(code, route, config.T),
            )

    for route in code.routes:
        if route.relay_delay + route.dest_delay > config.T:
            return fail(
                f"symbol {route.sym} pairs delays {route.relay_delay}+"
                f"{route.dest_delay} > T={config.T}",
                _route_witness(code, route, config.T),
            )

    if len(code.hop1) == 1 and len(code.hop2) == 1:
        (spec1,), (spec2,) = code.hop1, code.hop2
        w1 = spec1.span + max(spec1.slot_delays, default=0)
        w2 = spec2.span + max(spec2.slot_delays, default=0)
        checked += math.comb(w1, min(config.N1[0], w1)) * math.comb(w2, min(config.N2[0], w2))

    return VerificationReport(
        ok=True,
        checked_patterns=checked,
        detail="per-link spectra verified; pairing sums within deadline",
    )


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """One channel model applied to every link with independent seeds."""

    kind: str  # "iid" | "ge" | "clear"
    eps: float = 0.0
    ge: Optional[GeParams] = None

    def describe(self) -> dict:
        if self.kind == "ge":
            assert self.ge is not None
            return {"channel": "ge", "eps": self.ge.eps, "alpha": self.ge.alpha, "beta": self.ge.beta}
        if self.kind == "iid":
            return {"channel": "iid", "eps": self.eps, "alpha": "", "beta": ""}
        return {"channel": "clear", "eps": 0.0, "alpha": "", "beta": ""}

    def sample(self, horizon: int, seed) -> np.ndarray:
        if self.kind == "iid":
            return np.asarray(sample_iid(self.eps, horizon, seed).bits)
        if self.kind == "ge":
            assert self.ge is not None
            return np.asarray(sample_ge(self.ge, horizon, seed).bits)
        if self.kind == "clear":
            return np.zeros(horizon, dtype=bool)
        raise ValueError(f"unknown channel kind {self.kind!r}")


@dataclass
class SimResult:
    scheme: str
    config: NetworkConfig
    channel: dict
    packets: int
    lost: int
    seed: int

    @property
    def loss_rate(self) -> float:
        return self.lost / self.packets if self.packets else 0.0


def loss_mask(
    code: NetworkCode,
    bits1: list[np.ndarray],
    bits2: list[np.ndarray],
    num_packets: int,
) -> np.ndarray:
    """Per-packet loss flags under given per-link erasure bit arrays.

    A packet is lost when any of its routed symbols either misses its relay
    relabel time on hop 1 or exceeds its remaining delay budget on hop 2.
    Bit arrays are indexed by each link's transmit clock and must cover
    num_packets plus the code span plus the deadline; slots past an array
    count as erased.

    Only erased slots are visited. Symbol j of an (n, k) component sent at
    tau is recovered within delay d iff its diagonal, which starts at
    s = tau - (j-1), receives k of the slots s .. s + min(d + j - 1, n - 1)
    (slots before 0 are known pre-stream slots); one search in the link's
    sorted erasure times counts that window's erasures. Each route class
    of ``code.classes`` is tested once, so the cost is about (erased slots
    x log) per class, not the horizon: on NET_A this beats a horizon-long
    scan below about 25% erasures and loses above it (4x slower at 90%).
    The classes are derived on the code's first call and kept with it.
    """
    lost = np.zeros(num_packets, dtype=bool)
    tail = np.arange(code.span + 1)
    for bits, classes in zip((bits1, bits2), code.classes):
        # erasure times per link, sentinels standing in for the slots past the array
        times = [np.concatenate([np.flatnonzero(b), len(b) + tail]) for b in bits]
        for link, n, k, j, offset, allowed in classes:
            if allowed < 0:
                return np.ones(num_packets, dtype=bool)
            t = times[link]
            tau = t[t.searchsorted(offset) : t.searchsorted(offset + num_packets)]
            # the window [s, s + thr] is late iff it holds more than b
            # erasures: tau is one, so always when b <= 0, else iff the
            # (b+1)-th erasure from s falls inside
            thr = min(allowed + j - 1, n - 1)
            b = thr + 1 - k
            if b > 0:
                s = tau - (j - 1)
                tau = tau[t[t.searchsorted(s) + b] <= s + thr]
            lost[tau - offset] = True
    return lost


def run_monte_carlo(
    code: NetworkCode,
    channel: ChannelSpec | Sequence[ChannelSpec],
    num_packets: int,
    seed: int,
) -> SimResult:
    """Stream packets through sampled per-link erasures and count losses.

    ``channel`` is one spec applied to every link or a sequence giving one
    per link, hop-1 links first. Per-link sequences draw from independent
    child seeds spawned from ``seed``, so results replay bit for bit. The
    result's channel describes the shared spec, or every link's ("per-link").
    """
    config = code.allocation.config
    links = len(code.hop1) + len(code.hop2)
    if isinstance(channel, ChannelSpec):
        per_link = [channel] * links
    else:
        per_link = list(channel)
        if len(per_link) != links:
            raise ValueError(f"need {links} per-link channel specs, got {len(per_link)}")
    horizon = num_packets + code.span + config.T + 2
    children = np.random.SeedSequence(seed).spawn(links)
    bits = [spec.sample(horizon, child) for spec, child in zip(per_link, children)]
    lost = loss_mask(code, bits[: len(code.hop1)], bits[len(code.hop1) :], num_packets)
    described = per_link[0].describe()
    if any(spec != per_link[0] for spec in per_link):
        described = {"channel": "per-link", "eps": "", "alpha": "", "beta": "",
                     "links": [spec.describe() for spec in per_link]}
    return SimResult(
        scheme=code.allocation.scheme,
        config=config,
        channel=described,
        packets=num_packets,
        lost=int(lost.sum()),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# planner ensemble
# ---------------------------------------------------------------------------


@dataclass
class EnsembleRow:
    config: NetworkConfig
    upper: Fraction
    mwdf: Fraction
    cswdf: Fraction
    oswdf: Fraction

    @property
    def dominant(self) -> bool:
        return self.oswdf >= max(self.mwdf, self.cswdf) and self.oswdf <= self.upper

    @property
    def hits_upper(self) -> bool:
        return self.oswdf == self.upper


def sample_config(rng: random.Random) -> NetworkConfig:
    l1 = rng.randint(3, 6)
    l2 = rng.randint(3, 6)
    n1 = tuple(rng.randint(1, 10) for _ in range(l1))
    n2 = tuple(rng.randint(1, 10) for _ in range(l2))
    base = NetworkConfig(T=60, N1=n1, N2=n2)
    return NetworkConfig(T=t_min(base) + rng.randint(0, 10), N1=n1, N2=n2)


def run_ensemble(seed: int, trials: int) -> list[EnsembleRow]:
    """Random-network planner comparison at the scale of the design study."""
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    rows = []
    for _ in range(trials):
        cfg = sample_config(rng)
        rows.append(
            EnsembleRow(
                config=cfg,
                upper=upper_bound(cfg),
                mwdf=mwdf_rate(cfg)[0],
                cswdf=_concat_rate(_pair_counts(cfg)),
                oswdf=oswdf_optimize(cfg).rate,
            )
        )
    return rows
