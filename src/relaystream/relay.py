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
its neighbors. The runtime keeps one route table per hop, each slot's sym:
hop 1 reads each link's row through it, and the relay files what it
recovers under the time the symbol leaves, in one bucket per forward
time; hop 2 reads each row from the bucket due now through its table, a
missing symbol read as None, then zeroed and noted in one slot-order pass.
So the relay holds only what it has yet to send.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Container, Iterable, NamedTuple, Optional, Sequence

from .codes import (
    CodecState,
    StreamingCodeSpec,
    build_grouped_code,
    decode_step,
    encode_step,
    tuple_getter,
)
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
    that no route names carry zeros. The route classes, and the lateness
    tests the Monte Carlo kernel runs, are derived once per code, on first
    use."""

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

    @property
    def classes(self) -> tuple[tuple[tuple[int, int, int, int, int, int], ...], ...]:
        """Per hop, the distinct (link, n_c, k_c, j, clock offset, allowed
        delay) over the routes.

        A routed symbol's delay on one hop depends only on its link, the
        shape of its component, its diagonal position j and, on hop 2, the
        relay delay by which its clock lags the source. Routes that agree
        on those agree on the delay they may take as well: a route leaves
        the relay at its hop-1 slot's declared delay plus propagation, or
        at the one relabel delay. So each class is listed once; a code
        whose routes broke that would list a class twice, and the looser
        row would only repeat a test the tighter one decides.
        """
        return self.lateness[0]

    @cached_property
    def lateness(self) -> tuple[
        tuple[tuple[tuple[int, int, int, int, int, int], ...], ...],
        tuple[dict[tuple[int, int], dict[tuple[int, int], list[int]]], ...],
    ]:
        """The route classes and, per hop, the lateness tests they reduce
        to, derived in one pass on first use and kept with the code.

        An erased symbol of a class, sent at tau, is late iff the window
        [s, s + thr] of its diagonal, s = tau - (j - 1) and thr =
        min(allowed + j - 1, n_c - 1), holds more than b = max(thr + 1 -
        k_c, 0) erasures; tau is one, so a window that cannot spare any has
        b = 0. Classes that agree on (link, j, thr, b) share a test,
        whatever their clock offsets. The tests are keyed by (link, j), on
        which the window start depends, then by (thr, b), each holding its
        classes' offsets in ascending order. thr < j - 1 marks a negative
        allowed delay, which loses every packet.
        """
        config = self.allocation.config
        shapes1 = [spec.shapes for spec in self.hop1]
        shapes2 = [spec.shapes for spec in self.hop2]
        hop1 = {
            (l1, *shapes1[l1][s1], 0, relay - config.dT1[l1])
            for _, l1, s1, relay, _, _, _ in self.routes
        }
        hop2 = {
            (l2, *shapes2[l2][s2], relay, config.T - relay - config.dT2[l2])
            for _, _, _, relay, l2, s2, _ in self.routes
        }
        tests = []
        for classes in (hop1, hop2):
            starts: dict[tuple[int, int], dict[tuple[int, int], list[int]]] = {}
            # by link, j and offset, so each test's offsets ascend
            for link, n, k, j, offset, allowed in sorted(classes, key=itemgetter(0, 3, 4)):
                thr = min(allowed + j - 1, n - 1)
                offsets = starts.setdefault((link, j), {}).setdefault((thr, max(thr + 1 - k, 0)), [])
                if offset not in offsets:
                    offsets.append(offset)
            tests.append(starts)
        return (tuple(hop1), tuple(hop2)), tuple(tests)


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

    The relay files each symbol hop 1 recovers under the time it leaves,
    source time plus relay delay, in one bucket per forward time keyed by
    symbol; a recovery whose forward time has passed is dropped. Each
    hop-2 row is one read of the bucket due now, popped as it is read; a
    symbol the bucket lacks reads as None, and one slot-order pass sends
    each as zero and records a Violation unless the symbol predates the
    stream.
    """

    def __init__(self, code: NetworkCode):
        self.code = code
        self.time = 0
        self.state1 = [CodecState(spec) for spec in code.hop1]
        self.state2 = [CodecState(spec) for spec in code.hop2]
        self._sent1: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop1]
        self._sent2: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop2]
        # routing tables for step(): per link, each slot's sym, or k where
        # no route reads it. Hop 1's row is read from [*packet, 0] through
        # them and hop 2's from the bucket due now, which holds 0 under k.
        # Each sym's relay delay; k's is -1, so what hop 1 recovers in an
        # unrouted slot is never due
        k = code.k
        self._keys1 = [[k] * spec.k for spec in code.hop1]
        self._keys2 = [[k] * spec.k for spec in code.hop2]
        self._delay = [-1] * (k + 1)
        for sym, link1, slot1, relay_delay, link2, slot2, _ in code.routes:
            self._keys1[link1][slot1] = sym
            self._keys2[link2][slot2] = sym
            self._delay[sym] = relay_delay
        self._read1 = [tuple_getter(keys) for keys in self._keys1]
        # forward time -> sym -> value, one bucket per time from the clock
        # to reach - 1 past it: nothing recovered is due later than the
        # largest relay delay, which assemble keeps at or below T
        self._reach = max(0, *self._delay)
        self._due: dict[int, dict[int, int]] = {at: {k: 0} for at in range(self._reach)}
        self.violations: list[Violation] = []
        self.deliveries: list[Delivery] = []

    def step(
        self,
        source_packet: Sequence[int],
        erase1: Sequence[bool] = (),
        erase2: Sequence[bool] = (),
    ) -> list[tuple[int, ...]]:
        """Advance every hop one slot; return the rows the relay forwarded."""
        due, delay, k = self._due, self._delay, self.code.k
        config = self.code.allocation.config
        t = self.time
        if len(source_packet) != k:
            raise ValueError("source packet must carry one value per routed symbol")
        due[t + self._reach] = {k: 0}

        # per hop-1 link: transmit this slot's packet, then take in the one arriving
        row1 = (*source_packet, 0)
        links1 = zip(self.state1, self._sent1, self._read1, self._keys1, config.dT1)
        for i, (state, sent, read, keys, dt) in enumerate(links1):
            sent[t] = encode_step(state, read(row1))
            if t >= dt:
                pkt = None if erase1 and erase1[i] else sent[t - dt]
                del sent[t - dt]
                for src_t, slot, value in decode_step(state, pkt, t - dt):
                    sym = keys[slot]
                    at = src_t + delay[sym]
                    if at >= t:
                        due[at][sym] = value

        bucket = due.pop(t)
        rows = []
        for keys in self._keys2:
            # a symbol the relay lacks reads as None
            row = tuple(map(bucket.get, keys))
            if None in row:
                # each sent as zero, and noted in slot order unless it predates the stream
                self.violations += [
                    Violation(t - delay[sym], sym, t)
                    for sym, value in zip(keys, row)
                    if value is None and t >= delay[sym]
                ]
                row = tuple(v or 0 for v in row)
            rows.append(row)

        # per hop-2 link: transmit the forwarded row, then decode the packet arriving
        links2 = zip(self.state2, self._sent2, rows, self._keys2, config.dT2)
        for j, (state, sent, row, keys, dt) in enumerate(links2):
            sent[t] = encode_step(state, row)
            if t >= dt:
                pkt = None if erase2 and erase2[j] else sent[t - dt]
                del sent[t - dt]
                for relay_t, slot, value in decode_step(state, pkt, t - dt):
                    sym = keys[slot]
                    if sym < k and relay_t >= delay[sym]:
                        self.deliveries.append(Delivery(relay_t - delay[sym], sym, value, t))
        self.time += 1
        return rows

    def run(
        self,
        packets: Sequence[Sequence[int]],
        lost1: Sequence[Container[int]],
        lost2: Sequence[Container[int]],
        until: int,
    ) -> None:
        """Step until the clock reads ``until``, resuming at the current
        clock. lost1/lost2 hold, per hop link, the set of lost transmission
        times; packets past the list are zero."""
        config = self.code.allocation.config
        zero = [0] * self.code.k
        for t in range(self.time, until):
            # the packet arriving at t was sent at t - dT
            self.step(
                packets[t] if t < len(packets) else zero,
                [t - dt in lost for dt, lost in zip(config.dT1, lost1)],
                [t - dt in lost for dt, lost in zip(config.dT2, lost2)],
            )


def run_network(
    code: NetworkCode,
    packets: Sequence[Sequence[int]],
    erasures1: Sequence[Iterable[int]] = (),
    erasures2: Sequence[Iterable[int]] = (),
) -> NetworkState:
    """Drive a packet stream through the network and drain the pipeline.

    erasures1/erasures2 give, per hop link, the lost transmission times
    (indexed by the link's transmit clock); links past the list lose
    nothing. The stream is padded with zero packets so every in-flight
    symbol either arrives or misses its deadline before returning.
    """
    state = NetworkState(code)
    config = code.allocation.config
    total = len(packets) + config.T + code.span + max(config.dT1 + config.dT2) + 1
    lost1 = [set(times) for times in erasures1] + [set()] * (len(code.hop1) - len(erasures1))
    lost2 = [set(times) for times in erasures2] + [set()] * (len(code.hop2) - len(erasures2))
    state.run(packets, lost1, lost2, total)
    return state
