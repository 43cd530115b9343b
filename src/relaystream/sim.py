"""Verification and measurement: adversarial checks, Monte Carlo, ensembles.

Everything here leans on one fact about diagonally interleaved MDS
components: a message symbol is determined exactly when its own position
arrives, or when the component's k-th position (counting known pre-stream
slots) arrives, whichever is earlier. That rule makes exhaustive per-link
checking cheap (patterns never interact across components, so only
positions inside one component span matter) and lets the Monte Carlo path
skip the symbolic decoder. Packets are erased whole, so every component
of one (n, k) shape on a link sees the same stream: one prefix count per
shape gives each diagonal's k-th arrival in O(horizon), and each route
class (link, shape, diagonal position, relay offset) is tested for
lateness once, however many routes share it.

The network decomposes per hop: the relay re-encodes consistently, so a
source symbol survives end to end iff its first hop recovers it by the
relabel time and its second hop recovers the forwarded coordinate within
the route's remaining delay budget. Both sides reduce to the rule above.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .channels import GeParams, sample_ge, sample_iid
from .codes import StreamingCodeSpec
from .planner import (
    NetworkConfig,
    cswdf_plan,
    mwdf_rate,
    oswdf_optimize,
    t_min,
    upper_bound,
)
from .relay import NetworkCode, run_network
from .spectrum import DelayGrouping

INF_DELAY = 1 << 20  # sentinel for "never recovered"
ENUMERATION_GUARD = 30  # longer components are sampled: C(n, N) patterns explode


# ---------------------------------------------------------------------------
# exact per-component worst-case measurement
# ---------------------------------------------------------------------------


def _pattern_delays(n_c: int, k_c: int, erased: frozenset[int]) -> list[int]:
    """Recovery delay of each message symbol under one erasure pattern.

    Positions are the component's own n_c consecutive slots; pattern
    positions are 0-based indices into them. Steady state: no pre-stream
    help, which is the worst case.
    """
    received = [p not in erased for p in range(n_c)]
    pstar = INF_DELAY
    seen = 0
    for p, r in enumerate(received):
        seen += r
        if seen == k_c:
            pstar = p
            break
    out = []
    for j in range(1, k_c + 1):
        own = j - 1
        if received[own]:
            out.append(0)
        else:
            out.append(pstar - own if pstar != INF_DELAY else INF_DELAY)
    return out


@lru_cache(maxsize=None)
def component_worst_delays(
    n_c: int, k_c: int, budget: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Worst recovery delay per message symbol over all budget-sized
    erasure patterns inside the component span, with an achieving pattern
    for each symbol (as erased position indices)."""
    worst = [0] * k_c
    argmax: list[tuple[int, ...]] = [()] * k_c
    for erased in itertools.combinations(range(n_c), min(budget, n_c)):
        delays = _pattern_delays(n_c, k_c, frozenset(erased))
        for j, d in enumerate(delays):
            if d > worst[j]:
                worst[j] = d
                argmax[j] = erased
    return tuple(worst), tuple(argmax)


def measure_spectrum(spec: StreamingCodeSpec, budget: Optional[int] = None) -> DelayGrouping:
    """Empirical delay spectrum under exhaustive per-component erasures."""
    budget = spec.N if budget is None else budget
    pairs: list[tuple[int, int]] = []
    for comp in spec.components:
        if comp.k == 0:
            continue
        worst, _ = component_worst_delays(comp.n, comp.k, budget)
        pairs.extend((d, 1) for d in worst)
    return DelayGrouping.from_pairs(pairs)


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
    actual_delay: Optional[int]  # None: never correctly recovered in replay


@dataclass
class VerificationReport:
    ok: bool
    exhaustive: bool
    checked_patterns: int
    detail: str = ""
    failure: Optional[FailureWitness] = None


def replay_witness(code: NetworkCode, witness: FailureWitness) -> Optional[int]:
    """Re-run the witness; return the achieved delay of the offending
    symbol (None if it never arrives correctly)."""
    config = code.allocation.config
    span = max(c.span for c in code.hop1 + code.hop2)
    horizon = witness.src_time + config.T + 2 * span + max(config.dT1 + config.dT2) + 4
    rng = random.Random(20240 + witness.src_time)
    packets = [[rng.randrange(256) for _ in range(code.k)] for _ in range(witness.src_time + span + 1)]

    def table(times_list, links):
        return [
            [t in erased for t in range(horizon)]
            for erased in map(set, list(times_list) + [()] * (links - len(times_list)))
        ]

    state = run_network(
        code,
        packets,
        table(witness.erasures1, len(code.hop1)),
        table(witness.erasures2, len(code.hop2)),
        flush=horizon - len(packets),
    )
    truth = packets[witness.src_time][witness.sym]
    for d in state.deliveries:
        if d.src_time == witness.src_time and d.sym == witness.sym and d.value == truth:
            return d.at - witness.src_time
    return None


def _route_witness(code: NetworkCode, route, required: int) -> FailureWitness:
    """Build the witness that drives one route to its full declared delay."""
    config = code.allocation.config
    span = max(c.span for c in code.hop1 + code.hop2)
    src_time = span + config.T + 2  # comfortably past stream start

    def slot_pattern(spec: StreamingCodeSpec, slot: int, at_time: int) -> tuple[int, list[int]]:
        # locate the slot's component and its diagonal through at_time
        for ci, comp in enumerate(spec.components):
            moff = spec.message_offsets[ci]
            if moff <= slot < moff + comp.k:
                j = slot - moff + 1
                _, arg = component_worst_delays(comp.n, comp.k, spec.N)
                pattern = arg[j - 1]
                d = at_time - (j - 1)
                return j, [d + p for p in pattern]
        raise AssertionError("slot outside every component")

    e1: list[tuple[int, ...]] = [() for _ in code.hop1]
    e2: list[tuple[int, ...]] = [() for _ in code.hop2]
    _, times1 = slot_pattern(code.hop1[route.link1], route.slot1, src_time)
    e1[route.link1] = tuple(times1)
    relay_time = src_time + route.relay_delay
    _, times2 = slot_pattern(code.hop2[route.link2], route.slot2, relay_time)
    e2[route.link2] = tuple(times2)
    witness = FailureWitness(
        erasures1=tuple(e1),
        erasures2=tuple(e2),
        src_time=src_time,
        sym=route.sym,
        required_delay=required,
        actual_delay=None,
    )
    witness.actual_delay = replay_witness(code, witness)
    return witness


def verify_adversarial(
    code: NetworkCode,
    config: Optional[NetworkConfig] = None,
    window: Optional[int] = None,
    sample_patterns: int = 2000,
    seed: int = 0,
) -> VerificationReport:
    """Check the deadline guarantee link by link, then that every route
    leaves the relay no sooner than its hop-1 slot may be recovered, then
    the pairing sums.

    Per-link checks enumerate every budget-sized pattern inside each
    component's span. That covers every placement in the wider sliding
    window too: positions outside a component cannot influence it, so a
    window pattern projects onto one of the enumerated span patterns.
    Components longer than the enumeration guard fall back to sampled
    patterns and the report drops its ``exhaustive`` flag. ``config``
    overrides the deadline to check against, so a code can be audited
    against a tighter T than it was built for. ``window``, when given,
    only sizes the joint spot check below.

    For single-link networks a joint cross product of hop patterns is
    replayed through the real pipeline as a decomposition spot check.
    """
    config = config or code.allocation.config
    checked = 0
    exhaustive = True
    rng = random.Random(seed)
    anchor = max(c.span for c in code.hop1 + code.hop2) + config.T + 2

    hops = (
        (code.hop1, config.N1, code.hop1_fill, 1),
        (code.hop2, config.N2, code.hop2_fill, 2),
    )
    for specs, budgets, fills, hop in hops:
        for link, spec in enumerate(specs):
            for ci, comp in enumerate(spec.components):
                if comp.k == 0:
                    continue
                moff = spec.message_offsets[ci]
                if comp.n <= ENUMERATION_GUARD:
                    worst, args = component_worst_delays(comp.n, comp.k, budgets[link])
                    checked += math.comb(comp.n, min(budgets[link], comp.n))
                else:
                    exhaustive = False
                    worst = [0] * comp.k
                    args = [()] * comp.k
                    for _ in range(sample_patterns):
                        erased = frozenset(rng.sample(range(comp.n), min(budgets[link], comp.n)))
                        for j, d in enumerate(_pattern_delays(comp.n, comp.k, erased)):
                            if d > worst[j]:
                                worst[j], args[j] = d, tuple(sorted(erased))
                        checked += 1
                for j in range(1, comp.k + 1):
                    declared = spec.slot_delays[moff + j - 1]
                    if worst[j - 1] > declared:
                        # place the pattern on the diagonal through a
                        # steady-state link time so the witness replays
                        diag = anchor - (j - 1)
                        times = tuple(diag + p for p in args[j - 1])
                        sym = fills[link][moff + j - 1]
                        src = anchor
                        if hop == 2 and sym is not None:
                            src = anchor - code.routes[sym].relay_delay
                        detail = (
                            f"hop-{hop} link {link} slot {moff + j - 1} recovers in "
                            f"{worst[j - 1]} slots, declared {declared}"
                        )
                        witness = FailureWitness(
                            erasures1=tuple(
                                times if (hop == 1 and li == link) else ()
                                for li in range(len(code.hop1))
                            ),
                            erasures2=tuple(
                                times if (hop == 2 and li == link) else ()
                                for li in range(len(code.hop2))
                            ),
                            src_time=src,
                            sym=sym if sym is not None else -1,
                            required_delay=declared,
                            actual_delay=None,
                        )
                        if sym is not None:
                            witness.actual_delay = replay_witness(code, witness)
                        return VerificationReport(
                            ok=False,
                            exhaustive=exhaustive,
                            checked_patterns=checked,
                            detail=detail,
                            failure=witness,
                        )

    for route in code.routes:
        # the relay must hold the symbol before it forwards it
        ready = code.hop1[route.link1].slot_delays[route.slot1] + config.dT1[route.link1]
        if route.relay_delay < ready:
            return VerificationReport(
                ok=False,
                exhaustive=exhaustive,
                checked_patterns=checked,
                detail=(
                    f"symbol {route.sym} leaves the relay after {route.relay_delay} "
                    f"slots, but hop-1 link {route.link1} slot {route.slot1} may "
                    f"take {ready} (declared delay plus propagation)"
                ),
                failure=_route_witness(code, route, config.T),
            )

    for route in code.routes:
        total = route.relay_delay + route.dest_delay
        if total > config.T:
            witness = _route_witness(code, route, config.T)
            return VerificationReport(
                ok=False,
                exhaustive=exhaustive,
                checked_patterns=checked,
                detail=(
                    f"symbol {route.sym} pairs delays {route.relay_delay}+"
                    f"{route.dest_delay} > T={config.T}"
                ),
                failure=witness,
            )

    if len(code.hop1) == 1 and len(code.hop2) == 1:
        report = _cross_product_check(code, config, rng, window=window)
        checked += report[1]
        if report[0] is not None:
            return VerificationReport(
                ok=False,
                exhaustive=exhaustive,
                checked_patterns=checked,
                detail="joint-pattern replay missed a deadline",
                failure=report[0],
            )

    return VerificationReport(
        ok=True,
        exhaustive=exhaustive,
        checked_patterns=checked,
        detail="per-link spectra verified; pairing sums within deadline",
    )


def _cross_product_check(
    code: NetworkCode, config: NetworkConfig, rng, cap: int = 400, window: Optional[int] = None
):
    """Replay joint hop-pattern pairs through the real pipeline."""
    spec1, spec2 = code.hop1[0], code.hop2[0]
    w1 = spec1.span + max(d for d in spec1.slot_delays)
    w2 = spec2.span + max((d for d in spec2.slot_delays), default=0)
    if window is not None:
        w1, w2 = min(w1, window), min(w2, window)
    start = max(spec1.span, spec2.span) + 1
    pats1 = list(itertools.combinations(range(start, start + w1), min(config.N1[0], w1)))
    pats2 = list(itertools.combinations(range(start, start + w2), min(config.N2[0], w2)))
    pairs = [(a, b) for a in pats1 for b in pats2]
    if len(pairs) > cap:
        pairs = rng.sample(pairs, cap)
    horizon = start + w1 + w2 + config.T + 2
    packets = [[rng.randrange(256) for _ in range(code.k)] for _ in range(start + w1 + 2)]
    count = 0
    for p1, p2 in pairs:
        erased1, erased2 = set(p1), set(p2)
        state = run_network(
            code,
            packets,
            [[t in erased1 for t in range(horizon)]],
            [[t in erased2 for t in range(horizon)]],
            flush=horizon - len(packets),
        )
        count += 1
        got = {}
        for d in state.deliveries:
            got.setdefault((d.src_time, d.sym), (d.value, d.at))
        for t, pkt in enumerate(packets):
            for sym in range(code.k):
                val = got.get((t, sym))
                if val is None or val[0] != pkt[sym] or val[1] > t + config.T:
                    witness = FailureWitness(
                        erasures1=(tuple(p1),),
                        erasures2=(tuple(p2),),
                        src_time=t,
                        sym=sym,
                        required_delay=config.T,
                        actual_delay=None if val is None or val[0] != pkt[sym] else val[1] - t,
                    )
                    return witness, count
    return None, count


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


def _kth_arrival(erased: np.ndarray, n: int, k: int, num_diag: int) -> np.ndarray:
    """Where each diagonal of an (n, k) component collects its k-th symbol.

    Diagonal i covers slots i .. i+n-1 of the link stream led by k-1 known
    pre-stream slots, so diagonal k-1 starts at transmit time 0. Returns,
    for i < num_diag, the window position of the k-th received slot; a
    value >= n means the window never collects k. Slots past the end of
    ``erased`` count as lost. O(num_diag), whatever n is.
    """
    pad = k - 1
    received = np.zeros(num_diag + n - 1, dtype=bool)
    received[:pad] = True
    stream = ~erased[: num_diag + n - k]
    received[pad : pad + len(stream)] = stream
    # the k-th arrival from diagonal i is arrival number (arrivals before i) + k - 1;
    # sentinels past the stream stand in for arrivals that never come
    arrivals = np.concatenate(
        [np.flatnonzero(received), np.full(k, num_diag + n, dtype=np.intp)]
    )
    head = received[:num_diag]
    before = np.cumsum(head) - head
    return arrivals[before + pad] - np.arange(num_diag)


def _slot_shapes(spec: StreamingCodeSpec) -> np.ndarray:
    """Rows (n_c, k_c, j), one per message slot: the shape of the slot's
    component and the slot's 1-based position on the component diagonal."""
    n = np.array([c.n for c in spec.components], dtype=np.int64)
    k = np.array([c.k for c in spec.components], dtype=np.int64)
    j = np.arange(spec.k) - np.repeat(spec.message_offsets, k) + 1
    return np.column_stack([np.repeat(n, k), np.repeat(k, k), j])


def _slot_delay_table(
    spec: StreamingCodeSpec, erased: np.ndarray, num_eval: int
) -> np.ndarray:
    """Recovery delay of every message slot at every time, vectorized.

    Returns int32 array (spec.k, num_eval); INF_DELAY marks never. Known
    pre-stream slots count as received, matching the decoder. Slots with
    the same (n_c, k_c, j) have equal rows, so each is computed once.
    """
    out = np.empty((spec.k, num_eval), dtype=np.int32)
    own = ~erased[:num_eval]
    rows: dict[tuple[int, int, int], np.ndarray] = {}
    index: dict[tuple[int, int], np.ndarray] = {}
    for slot, (n, k, j) in enumerate(_slot_shapes(spec).tolist()):
        if (n, k, j) not in rows:
            if (n, k) not in index:
                index[n, k] = _kth_arrival(erased, n, k, num_eval + k - 1)
            # symbol j of packet tau sits on diagonal tau - (j-1)
            p = index[n, k][k - j : k - j + num_eval]
            rows[n, k, j] = np.where(own, 0, np.where(p >= n, INF_DELAY, p - (j - 1)))
        out[slot] = rows[n, k, j]
    return out


def _route_classes(code: NetworkCode) -> tuple[list[tuple[int, ...]], ...]:
    """Per hop, the distinct (link, n_c, k_c, j, clock offset, allowed
    delay) over the routes, keeping only the tightest allowed delay.

    A routed symbol's delay on one hop depends only on its link, the
    shape of its component, its diagonal position j and, on hop 2, the
    relay delay by which its clock lags the source. Routes that agree on
    those differ only in the delay each may take, and the smallest
    allowed delay is late whenever a larger one is.
    """
    config = code.allocation.config
    link1, slot1, relay, link2, slot2 = (
        np.fromiter(map(attrgetter(field), code.routes), np.int64, len(code.routes))
        for field in ("link1", "slot1", "relay_delay", "link2", "slot2")
    )
    sides = (
        (code.hop1, link1, slot1, np.zeros_like(relay), relay - np.asarray(config.dT1)[link1]),
        (code.hop2, link2, slot2, relay, config.T - relay - np.asarray(config.dT2)[link2]),
    )
    classes = []
    for specs, link, slot, offset, allowed in sides:
        shapes = np.concatenate([_slot_shapes(spec) for spec in specs])
        first_slot = np.cumsum([0] + [spec.k for spec in specs])
        rows = np.column_stack([link, shapes[first_slot[link] + slot], offset, allowed])
        # sorted rows put each class's tightest allowed delay first
        rows = rows[np.lexsort(rows.T[::-1])]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
        classes.append(rows[first].tolist())
    return tuple(classes)


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
    num_packets plus the code span plus the deadline.

    Each route class is tested once, straight from the k-th-arrival index
    of its link and component shape; no per-slot table is built.
    """
    classes1, classes2 = _route_classes(code)
    # hop-2 clocks run up to the largest relay delay past the last packet
    max_relay = max((offset for _, _, _, _, offset, _ in classes2), default=0)
    lost = np.zeros(num_packets, dtype=bool)
    for bits, num_eval, classes in (
        (bits1, num_packets, classes1),
        (bits2, num_packets + max_relay, classes2),
    ):
        index: dict[tuple[int, int, int], np.ndarray] = {}
        for link, n, k, j, offset, allowed in classes:
            if allowed < 0:
                return np.ones(num_packets, dtype=bool)
            if allowed >= INF_DELAY:
                continue  # nothing is late: "never" is a delay of INF_DELAY
            if (link, n, k) not in index:
                index[link, n, k] = _kth_arrival(bits[link], n, k, num_eval + k - 1)
            # symbol j at clock tau sits on diagonal tau - (j-1)
            start = offset + k - j
            p = index[link, n, k][start : start + num_packets]
            # late iff erased and recovered after allowed, or never (p >= n)
            erased = bits[link][offset : offset + num_packets]
            lost |= erased & (p > min(allowed + j - 1, n - 1))
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
    child seeds spawned from ``seed``, so results replay bit for bit.
    """
    config = code.allocation.config
    links = len(code.hop1) + len(code.hop2)
    if isinstance(channel, ChannelSpec):
        per_link = [channel] * links
    else:
        per_link = list(channel)
        if len(per_link) != links:
            raise ValueError(f"need {links} per-link channel specs, got {len(per_link)}")
    span = max(c.span for c in code.hop1 + code.hop2)
    horizon = num_packets + span + config.T + 2
    children = np.random.SeedSequence(seed).spawn(links)
    bits1 = [
        per_link[i].sample(horizon, children[i]) for i in range(len(code.hop1))
    ]
    bits2 = [
        per_link[len(code.hop1) + j].sample(horizon, children[len(code.hop1) + j])
        for j in range(len(code.hop2))
    ]
    lost = loss_mask(code, bits1, bits2, num_packets)
    return SimResult(
        scheme=code.allocation.scheme,
        config=config,
        channel=per_link[0].describe(),
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
                cswdf=cswdf_plan(cfg)[0],
                oswdf=oswdf_optimize(cfg).rate,
            )
        )
    return rows
