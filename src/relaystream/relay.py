"""Symbol-wise relaying: pairing, route assembly and the network runtime.

The relay never waits for whole packets. Every first-hop message slot has a
declared delay d1 (its recovery deadline at the relay, propagation
included); every second-hop slot has a declared delay d2 (its recovery
deadline at the destination). A slot pair carries one source symbol end to
end within d1 + d2 slots, so any pairing whose sums stay at or below the
decode deadline T turns two per-hop codes into a network code.

Pairing is greedy: the slowest first-hop symbols get the fastest
second-hop slots. If that matching violates the deadline anywhere, no
matching works, because sorting one side descending and the other
ascending minimizes the largest sum.

The relay forwards a symbol at exactly its declared time, buffering early
recoveries. That keeps the second hop's encoder input deterministic: under
a within-budget adversary the symbol is always there; beyond the budget
(stochastic channels) a missing symbol is replaced by zero and noted as a
protocol violation. Because the relay re-encodes its own row consistently,
a wrong value corrupts only its own coordinate at the destination, never
its neighbors. The runtime buffers relay symbols by source time and can
fork, so replays that share a prefix run it once; a replay whose pipeline
is back to another run's can take that run's later deliveries.
"""

from __future__ import annotations

import copy
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .codes import CodecState, StreamingCodeSpec, build_grouped_code, decode_step, encode_step
from .planner import Allocation


class SymbolRoute(NamedTuple):
    """End-to-end path of one source symbol."""

    sym: int
    link1: int
    slot1: int
    relay_delay: int  # symbol leaves the relay exactly this long after creation
    link2: int
    slot2: int
    dest_delay: int  # declared second-hop delay, propagation included


@dataclass(frozen=True)
class NetworkCode:
    """Per-link streaming codes plus the routing table that joins them:
    one route per source symbol, routes[sym] for symbol sym. Message slots
    that no route names carry zeros."""

    allocation: Allocation
    hop1: tuple[StreamingCodeSpec, ...]
    hop2: tuple[StreamingCodeSpec, ...]
    routes: tuple[SymbolRoute, ...]

    @property
    def k(self) -> int:
        return len(self.routes)

    @property
    def span(self) -> int:
        """Longest memory of any link's code, zero-dimension padding included."""
        return max(c.span for c in self.hop1 + self.hop2)


def _slot_entries(
    codes: Sequence[StreamingCodeSpec],
    dts: Sequence[int],
    relabel: Optional[int],
) -> list[tuple[int, int, int]]:
    entries = []
    for link, code in enumerate(codes):
        for slot, d in enumerate(code.slot_delays):
            eff = relabel if relabel is not None else d + dts[link]
            entries.append((eff, link, slot))
    return entries


def _pair(
    entries1: Sequence[tuple[int, int, int]],
    entries2: Sequence[tuple[int, int, int]],
    T: int,
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Pair (delay, link, slot) entries of the two hops under d1 + d2 <= T.

    The slowest hop-1 slot takes the fastest hop-2 slot, and so on down
    both lists. Raises naming the first pair of slots over the deadline;
    then no pairing exists.
    """
    pairs = list(zip(sorted(entries1, reverse=True), sorted(entries2)))
    for (e1, l1, s1), (e2, l2, s2) in pairs:
        if e1 + e2 > T:
            raise ValueError(
                f"allocation is not pairable: hop-1 link {l1} slot {s1} "
                f"(delay {e1}) + hop-2 link {l2} slot {s2} (delay {e2}) "
                f"> T={T}"
            )
    return pairs


def assemble(alloc: Allocation) -> NetworkCode:
    """Build runnable per-link codes and route the end-to-end symbols.

    When one hop carries more symbols than the other, the excess slots with
    the largest effective delays are pinned to zero; the zeros cost rate
    but keep every per-link code exactly as planned.
    """
    config = alloc.config
    hop1 = tuple(
        build_grouped_code(n, N, g)
        for n, N, g in zip(alloc.n1, alloc.budgets1, alloc.groupings1)
    )
    hop2 = tuple(
        build_grouped_code(n, N, g)
        for n, N, g in zip(alloc.n2, alloc.budgets2, alloc.groupings2)
    )
    k = alloc.k
    pairs = _pair(
        sorted(_slot_entries(hop1, config.dT1, alloc.relabel_delay))[:k],
        sorted(_slot_entries(hop2, config.dT2, None))[:k],
        config.T,
    )
    routes = tuple(
        SymbolRoute(sym, l1, s1, e1, l2, s2, e2)
        for sym, ((e1, l1, s1), (e2, l2, s2)) in enumerate(sorted(pairs, key=lambda p: p[0][1:]))
    )
    return NetworkCode(alloc, hop1, hop2, routes)


@dataclass(slots=True)
class Delivery:
    src_time: int
    sym: int
    value: int
    at: int  # absolute time the destination determined the value


@dataclass
class Violation:
    src_time: int
    sym: int
    at: int  # relay time the symbol was due but missing


class NetworkState:
    """Clock-driven source -> relay -> destination pipeline.

    step() advances one absolute time slot: the source emits a packet, the
    relay ingests whatever arrives (propagation-delayed), relabels the
    symbols due this slot and transmits on hop 2, and the destination
    ingests its arrivals. Erasure flags refer to the packet arriving this
    slot on each link. Deliveries report every source symbol the moment the
    destination determines it.

    The relay buffers recovered hop-1 symbols in one bucket per source
    time and drops the bucket that falls out of reach each slot. fork()
    copies the whole pipeline, so runs that share a prefix need not
    repeat it.
    """

    def __init__(self, code: NetworkCode):
        self.code = code
        self.time = 0
        self.state1 = [CodecState(spec) for spec in code.hop1]
        self.state2 = [CodecState(spec) for spec in code.hop2]
        self._sent1: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop1]
        self._sent2: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop2]
        # src_t -> (link1, slot1) -> value
        self._pending: dict[int, dict[tuple[int, int], int]] = {}
        # routing tables for step(), shared with forks: hop-1 slot -> sym
        # (k, which reads zero, where no route); per hop-2 link its routed
        # slots in slot order as (slot, sym, relay delay, (link1, slot1)),
        # and the reverse map slot -> (sym, relay delay)
        self._fill1 = [[code.k] * spec.k for spec in code.hop1]
        self._feed2 = [[] for _ in code.hop2]
        for sym, link1, slot1, relay_delay, link2, slot2, _ in code.routes:
            self._fill1[link1][slot1] = sym
            self._feed2[link2].append((slot2, sym, relay_delay, (link1, slot1)))
        for feed in self._feed2:
            feed.sort()
        self._back2 = [{slot: (sym, delay) for slot, sym, delay, _ in feed} for feed in self._feed2]
        self._keep = 4 * (code.allocation.config.T + 1) + max(c.span for c in code.hop1)
        self.violations: list[Violation] = []
        self.deliveries: list[Delivery] = []

    def fork(self) -> "NetworkState":
        """An independent copy that continues from this exact point."""
        other = copy.copy(self)
        other.state1 = [s.fork() for s in self.state1]
        other.state2 = [s.fork() for s in self.state2]
        other._sent1 = [dict(sent) for sent in self._sent1]
        other._sent2 = [dict(sent) for sent in self._sent2]
        other._pending = {t: dict(bucket) for t, bucket in self._pending.items()}
        other.violations = list(self.violations)
        other.deliveries = list(self.deliveries)
        return other

    def pipeline(self) -> tuple:
        """Everything later steps read: the clock, each codec's clocks,
        windows and decoder records, the packets in flight and the relay
        buffer; not the logs (violations, deliveries), which no step reads.

        Two runs of one code with equal pipelines, fed the same packets
        and erasures from here on, deliver the same from here on.
        """
        codecs = [
            (s.enc_time, s.dec_time, s._history, s._received, s._records)
            for s in self.state1 + self.state2
        ]
        return self.time, codecs, self._sent1, self._sent2, self._pending

    def step(
        self,
        source_packet: Sequence[int],
        erase1: Sequence[bool] = (),
        erase2: Sequence[bool] = (),
    ) -> None:
        config = self.code.allocation.config
        pending = self._pending
        t = self.time
        if len(source_packet) != self.code.k:
            raise ValueError("source packet must carry one value per routed symbol")

        # per link: transmit this slot's packet, then take in the one arriving
        row1 = [*source_packet, 0]
        links1 = zip(self.state1, self._sent1, self._fill1, config.dT1)
        for i, (state, sent, fill, dt) in enumerate(links1):
            sent[t] = encode_step(state, list(map(row1.__getitem__, fill)))
            if t >= dt:
                pkt = None if erase1 and erase1[i] else sent[t - dt]
                del sent[t - dt]
                for src_t, slot, value in decode_step(state, pkt, t - dt):
                    pending.setdefault(src_t, {})[i, slot] = value

        links2 = zip(self.state2, self._sent2, self._feed2, self._back2, config.dT2)
        for j, (state, sent, feed, back, dt) in enumerate(links2):
            row = [0] * state.spec.k
            for slot, sym, relay_delay, key in feed:
                src_t = t - relay_delay
                if src_t < 0:
                    continue  # pre-stream symbols are known zeros
                bucket = pending.get(src_t)
                value = bucket.get(key) if bucket else None
                if value is None:
                    self.violations.append(Violation(src_time=src_t, sym=sym, at=t))
                    value = 0
                row[slot] = value
            sent[t] = encode_step(state, row)
            if t >= dt:
                pkt = None if erase2 and erase2[j] else sent[t - dt]
                del sent[t - dt]
                for relay_t, slot, value in decode_step(state, pkt, t - dt):
                    route = back.get(slot)
                    if route is not None and relay_t >= route[1]:
                        self.deliveries.append(Delivery(relay_t - route[1], route[0], value, t))

        # t advances by one per step, so this drops the one bucket out of reach
        pending.pop(t - self._keep - 1, None)
        self.time += 1

    def run(
        self,
        packets: Sequence[Sequence[int]],
        lost1: Sequence[Iterable[int]],
        lost2: Sequence[Iterable[int]],
        until: int,
    ) -> None:
        """Step until the clock reads ``until``. lost1/lost2 hold, per hop
        link, the lost transmission times; packets past the list are zero."""
        config = self.code.allocation.config
        # a packet sent at x arrives at x + dT
        arrive1 = [{x + dt for x in lost} for dt, lost in zip(config.dT1, lost1)]
        arrive2 = [{x + dt for x in lost} for dt, lost in zip(config.dT2, lost2)]
        any1, any2 = set().union(*arrive1), set().union(*arrive2)
        zero = [0] * self.code.k
        for t in range(self.time, until):
            self.step(
                packets[t] if t < len(packets) else zero,
                [t in a for a in arrive1] if t in any1 else (),
                [t in a for a in arrive2] if t in any2 else (),
            )


def run_network(
    code: NetworkCode,
    packets: Sequence[Sequence[int]],
    erasures1: Sequence[Sequence[bool] | AbstractSet[int]] = (),
    erasures2: Sequence[Sequence[bool] | AbstractSet[int]] = (),
    flush: Optional[int] = None,
) -> NetworkState:
    """Drive a packet stream through the network and drain the pipeline.

    erasures1/erasures2 give, per hop link, the lost transmission times
    (indexed by the link's transmit clock), as a set of times or as a
    boolean sequence over the stream. The stream is padded with zero
    packets so every in-flight symbol either arrives or misses its deadline
    before returning.
    """
    state = NetworkState(code)
    config = code.allocation.config
    total = len(packets) + (flush if flush is not None else config.T + code.span + max(config.dT1 + config.dT2) + 1)

    def lost(table, links: int) -> list[AbstractSet[int]]:
        rows = [r if isinstance(r, AbstractSet) else {t for t, e in enumerate(r) if e} for r in table]
        return rows + [set()] * (links - len(rows))

    state.run(packets, lost(erasures1, len(code.hop1)), lost(erasures2, len(code.hop2)), total)
    return state
