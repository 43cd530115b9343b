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
its neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .codes import CodecState, StreamingCodeSpec, build_grouped_code, decode_step, encode_step
from .planner import Allocation


@dataclass(frozen=True)
class SymbolRoute:
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
    """Per-link streaming codes plus the routing table that joins them."""

    allocation: Allocation
    hop1: tuple[StreamingCodeSpec, ...]
    hop2: tuple[StreamingCodeSpec, ...]
    routes: tuple[SymbolRoute, ...]
    hop1_fill: tuple[tuple[Optional[int], ...], ...]  # message slot -> sym
    hop2_fill: tuple[tuple[Optional[int], ...], ...]

    @property
    def k(self) -> int:
        return len(self.routes)

    @property
    def deadline(self) -> int:
        return self.allocation.config.T


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
        for n, N, g in zip(alloc.n1, alloc.build_budgets1(), alloc.groupings1)
    )
    hop2 = tuple(
        build_grouped_code(n, N, g)
        for n, N, g in zip(alloc.n2, alloc.build_budgets2(), alloc.groupings2)
    )
    k = alloc.k
    pairs = _pair(
        sorted(_slot_entries(hop1, config.dT1, alloc.relabel_delay))[:k],
        sorted(_slot_entries(hop2, config.dT2, None))[:k],
        config.T,
    )
    routes = tuple(
        SymbolRoute(
            sym=sym,
            link1=l1,
            slot1=s1,
            relay_delay=e1,
            link2=l2,
            slot2=s2,
            dest_delay=e2,
        )
        for sym, ((e1, l1, s1), (e2, l2, s2)) in enumerate(
            sorted(pairs, key=lambda p: (p[0][1], p[0][2]))
        )
    )
    fill1: list[list[Optional[int]]] = [[None] * c.k for c in hop1]
    fill2: list[list[Optional[int]]] = [[None] * c.k for c in hop2]
    for r in routes:
        fill1[r.link1][r.slot1] = r.sym
        fill2[r.link2][r.slot2] = r.sym
    return NetworkCode(
        allocation=alloc,
        hop1=hop1,
        hop2=hop2,
        routes=routes,
        hop1_fill=tuple(tuple(f) for f in fill1),
        hop2_fill=tuple(tuple(f) for f in fill2),
    )


@dataclass
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
    """

    def __init__(self, code: NetworkCode):
        self.code = code
        self.time = 0
        self.state1 = [CodecState(spec) for spec in code.hop1]
        self.state2 = [CodecState(spec) for spec in code.hop2]
        self._sent1: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop1]
        self._sent2: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop2]
        self._pending: dict[tuple[int, int, int], int] = {}  # (link1, slot1, src_t)
        self.violations: list[Violation] = []
        self.deliveries: list[Delivery] = []

    def step(
        self,
        source_packet: Sequence[int],
        erase1: Sequence[bool] = (),
        erase2: Sequence[bool] = (),
    ) -> None:
        code = self.code
        config = code.allocation.config
        t = self.time
        erase1 = tuple(erase1) or (False,) * len(code.hop1)
        erase2 = tuple(erase2) or (False,) * len(code.hop2)
        if len(source_packet) != code.k:
            raise ValueError("source packet must carry one value per routed symbol")

        for i, spec in enumerate(code.hop1):
            row = [0] * spec.k
            for slot, sym in enumerate(code.hop1_fill[i]):
                if sym is not None:
                    row[slot] = source_packet[sym]
            self._sent1[i][t] = encode_step(self.state1[i], row)

        for i in range(len(code.hop1)):
            sent_at = t - config.dT1[i]
            if sent_at < 0:
                continue
            pkt = self._sent1[i].pop(sent_at)
            for src_t, slot, value in decode_step(
                self.state1[i], None if erase1[i] else pkt, sent_at
            ):
                self._pending[(i, slot, src_t)] = value

        for j, spec in enumerate(code.hop2):
            row = [0] * spec.k
            for slot, sym in enumerate(code.hop2_fill[j]):
                if sym is None:
                    continue
                r = code.routes[sym]
                src_t = t - r.relay_delay
                if src_t < 0:
                    continue  # pre-stream symbols are known zeros
                value = self._pending.get((r.link1, r.slot1, src_t))
                if value is None:
                    self.violations.append(Violation(src_time=src_t, sym=sym, at=t))
                    value = 0
                row[slot] = value
            self._sent2[j][t] = encode_step(self.state2[j], row)

        for j, spec in enumerate(code.hop2):
            sent_at = t - config.dT2[j]
            if sent_at < 0:
                continue
            pkt = self._sent2[j].pop(sent_at)
            for relay_t, slot, value in decode_step(
                self.state2[j], None if erase2[j] else pkt, sent_at
            ):
                sym = code.hop2_fill[j][slot]
                if sym is None:
                    continue
                r = code.routes[sym]
                src_t = relay_t - r.relay_delay
                if src_t < 0:
                    continue
                self.deliveries.append(Delivery(src_time=src_t, sym=sym, value=value, at=t))

        horizon = t - 4 * (config.T + 1) - max(c.span for c in code.hop1)
        for key in [p for p in self._pending if p[2] < horizon]:
            del self._pending[key]
        self.time += 1


def run_network(
    code: NetworkCode,
    packets: Sequence[Sequence[int]],
    erasures1: Sequence[Sequence[bool]] = (),
    erasures2: Sequence[Sequence[bool]] = (),
    flush: Optional[int] = None,
) -> NetworkState:
    """Drive a packet stream through the network and drain the pipeline.

    erasures1/erasures2 give, per hop link, the lost transmission times as
    boolean sequences over the stream (indexed by the link's transmit
    clock). The stream is padded with zero packets so every in-flight
    symbol either arrives or misses its deadline before returning.
    """
    state = NetworkState(code)
    config = code.allocation.config
    span = max(c.span for c in code.hop1 + code.hop2)
    total = len(packets) + (flush if flush is not None else config.T + span + max(config.dT1 + config.dT2) + 1)

    def flag(table: Sequence[Sequence[bool]], link: int, when: int) -> bool:
        if link >= len(table):
            return False
        row = table[link]
        return bool(row[when]) if 0 <= when < len(row) else False

    zero = [0] * code.k
    for t in range(total):
        pkt = packets[t] if t < len(packets) else zero
        e1 = [flag(erasures1, i, t - config.dT1[i]) for i in range(len(code.hop1))]
        e2 = [flag(erasures2, j, t - config.dT2[j]) for j in range(len(code.hop2))]
        state.step(pkt, e1, e2)
    return state
