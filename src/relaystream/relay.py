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
its neighbors. The runtime keeps one route table per hop: hop 1 reads each
link's row through its slots' syms and buffers what the relay recovers
under the same syms, in one bucket per source time opened as the source
sends; hop 2 maps each slot to its sym and relay delay and gathers each
row one bucket per relay delay, a missing symbol read as None, then zeroed
and noted in one slot-order pass. It can fork, so replays that share a
prefix run it once; a replay whose pipeline is back to another run's can
take that run's later deliveries.
Hop 1 and the relay also step on their own (``relay_step``, the code
``step`` runs), for probes that need only the rows the relay forwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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
    that no route names carry zeros. The route classes the Monte Carlo
    kernel tests are derived once per code, on first use."""

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

    @cached_property
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
        return tuple(hop1), tuple(hop2)


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


_UNSENT: dict[int, int] = {}  # what a negative relay delay reads: no bucket is written here


class NetworkState:
    """Clock-driven source -> relay -> destination pipeline.

    step() advances one absolute time slot: the source emits a packet, the
    relay ingests whatever arrives (propagation-delayed), relabels the
    symbols due this slot and transmits on hop 2, and the destination
    ingests its arrivals. Erasure flags refer to the packet arriving this
    slot on each link. Deliveries report every source symbol the moment the
    destination determines it.

    The relay buffers recovered hop-1 symbols in one bucket per source
    time, keyed by symbol, opened when the source sends that packet and
    dropped once out of reach. Each hop-2 row is gathered one bucket per
    relay delay; a symbol the bucket lacks reads as None, and one
    slot-order pass sends each as zero and records a Violation.
    relay_step() runs hop 1 and the relay alone, the same code step()
    runs, for probes that compare forwarded rows. fork() copies the whole
    pipeline, so runs that share a prefix need not repeat it.
    """

    def __init__(self, code: NetworkCode):
        self.code = code
        self.time = 0
        self.state1 = [CodecState(spec) for spec in code.hop1]
        self.state2 = [CodecState(spec) for spec in code.hop2]
        self._sent1: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop1]
        self._sent2: list[dict[int, tuple[int, ...]]] = [{} for _ in code.hop2]
        # src_t -> sym -> value; hop-1 slots no route reads share key k,
        # which no hop-2 row reads
        self._pending: dict[int, dict[int, int]] = {}
        # routing tables for step(), shared with forks. Hop 1: per link, each
        # slot's sym, or k where no route reads it; the link's row is read
        # from [*packet, 0] through it, and what the link recovers is
        # buffered under it. Hop 2: per link, slot -> (sym, relay delay) in
        # slot order; the routed slots grouped by relay delay as (delay,
        # the group's syms, the group's pre-stream zeros); and a getter
        # placing the groups' values, then a zero, into the row
        self._keys1 = [[code.k] * spec.k for spec in code.hop1]
        self._back2: list[dict[int, tuple[int, int]]] = [{} for _ in code.hop2]
        by_slot2 = sorted(code.routes, key=lambda r: (r.link2, r.slot2))
        for sym, link1, slot1, relay_delay, link2, slot2, _ in by_slot2:
            self._keys1[link1][slot1] = sym
            self._back2[link2][slot2] = sym, relay_delay
        self._read1 = [tuple_getter(keys) for keys in self._keys1]
        self._groups2, self._place2 = [], []
        for spec, back in zip(code.hop2, self._back2):
            groups: dict[int, list[tuple[int, int]]] = {}
            for slot, (sym, delay) in back.items():
                groups.setdefault(delay, []).append((slot, sym))
            order = [slot for members in groups.values() for slot, _ in members]
            self._groups2.append([
                (delay, tuple(sym for _, sym in members), (0,) * len(members))
                for delay, members in groups.items()
            ])
            at = {slot: i for i, slot in enumerate(order)}
            self._place2.append(tuple_getter([at.get(slot, len(order)) for slot in range(spec.k)]))
        # past a bucket's last read (relay delay <= T) and last write (dT1 + span)
        config = code.allocation.config
        self._keep = 4 * (config.T + 1) + max(c.span for c in code.hop1) + max(config.dT1)
        self.violations: list[Violation] = []
        self.deliveries: list[Delivery] = []

    def fork(self) -> "NetworkState":
        """An independent copy that continues from this exact point."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.state1 = [s.fork() for s in self.state1]
        other.state2 = [s.fork() for s in self.state2]
        other._sent1 = [dict(sent) for sent in self._sent1]
        other._sent2 = [dict(sent) for sent in self._sent2]
        other._pending = {t: dict(bucket) for t, bucket in self._pending.items()}
        other.violations = list(self.violations)
        other.deliveries = list(self.deliveries)
        return other

    def relay_pipeline(self) -> tuple:
        """Everything later relay steps read: the clock, each hop-1
        codec's clocks, window and decoder records, the packets in flight
        on hop 1 and the relay buffer.

        Two runs of one code with equal relay pipelines, fed the same
        packets and hop-1 erasures from here on, forward the same rows.
        """
        codecs = [(s.enc_time, s.dec_time, s._history, s._received, s._records) for s in self.state1]
        return self.time, codecs, self._sent1, self._pending

    def pipeline(self) -> tuple:
        """Everything later steps read: the relay pipeline plus each hop-2
        codec's clocks, window and decoder records and the packets in
        flight on hop 2; not the logs (violations, deliveries), which no
        step reads.

        Two runs of one code with equal pipelines, fed the same packets
        and erasures from here on, deliver the same from here on.
        """
        codecs = [(s.enc_time, s.dec_time, s._history, s._received, s._records) for s in self.state2]
        return self.relay_pipeline(), codecs, self._sent2

    def _relay(self, source_packet: Sequence[int], erase1: Sequence[bool]) -> list[tuple[int, ...]]:
        """Hop 1 and the relay at the current slot: open the packet's
        bucket, transmit the packet on every hop-1 link, buffer what
        arrives, drop the bucket out of reach, and return the row each
        hop-2 link forwards, a missing symbol sent as zero and noted."""
        pending = self._pending
        t = self.time
        if len(source_packet) != self.code.k:
            raise ValueError("source packet must carry one value per routed symbol")
        pending[t] = {}

        # per link: transmit this slot's packet, then take in the one arriving
        row1 = (*source_packet, 0)
        links1 = zip(self.state1, self._sent1, self._read1, self._keys1, self.code.allocation.config.dT1)
        for i, (state, sent, read, keys, dt) in enumerate(links1):
            sent[t] = encode_step(state, read(row1))
            if t >= dt:
                pkt = None if erase1 and erase1[i] else sent[t - dt]
                del sent[t - dt]
                for src_t, slot, value in decode_step(state, pkt, t - dt):
                    pending[src_t][keys[slot]] = value

        rows = []
        for back, groups, place in zip(self._back2, self._groups2, self._place2):
            # a symbol the relay lacks reads as None
            values: list[Optional[int]] = []
            for delay, syms, zeros in groups:
                values += zeros if t < delay else map(pending.get(t - delay, _UNSENT).get, syms)
            values.append(0)
            row = place(values)
            if None in row:
                # each sent as zero and noted, in slot order
                self.violations += [
                    Violation(t - delay, sym, t) for slot, (sym, delay) in back.items() if row[slot] is None
                ]
                row = tuple(v or 0 for v in row)
            rows.append(row)

        # t advances by one per step, so this drops the one bucket out of reach
        pending.pop(t - self._keep - 1, None)
        return rows

    def step(
        self,
        source_packet: Sequence[int],
        erase1: Sequence[bool] = (),
        erase2: Sequence[bool] = (),
    ) -> list[tuple[int, ...]]:
        """Advance every hop one slot; return the rows the relay forwarded."""
        rows = self._relay(source_packet, erase1)
        # per hop-2 link: transmit the forwarded row, then decode the packet arriving
        t = self.time
        links2 = zip(self.state2, self._sent2, rows, self._back2, self.code.allocation.config.dT2)
        for j, (state, sent, row, back, dt) in enumerate(links2):
            sent[t] = encode_step(state, row)
            if t >= dt:
                pkt = None if erase2 and erase2[j] else sent[t - dt]
                del sent[t - dt]
                for relay_t, slot, value in decode_step(state, pkt, t - dt):
                    route = back.get(slot)
                    if route is not None and relay_t >= route[1]:
                        self.deliveries.append(Delivery(relay_t - route[1], route[0], value, t))
        self.time += 1
        return rows

    def relay_step(self, source_packet: Sequence[int], erase1: Sequence[bool] = ()) -> list[tuple[int, ...]]:
        """Advance hop 1 and the relay one slot, as step() does, and return
        the rows forwarded; hop 2 does not move, so from here on the state
        serves further relay steps only."""
        rows = self._relay(source_packet, erase1)
        self.time += 1
        return rows

    def steps(
        self,
        packets: Sequence[Sequence[int]],
        lost1: Sequence[Iterable[int]],
        lost2: Sequence[Iterable[int]],
        until: int,
    ) -> Iterator[int]:
        """Step until the clock reads ``until``, yielding the clock after
        each step. lost1/lost2 hold, per hop link, the lost transmission
        times; packets past the list are zero."""
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
            yield self.time

    def run(
        self,
        packets: Sequence[Sequence[int]],
        lost1: Sequence[Iterable[int]],
        lost2: Sequence[Iterable[int]],
        until: int,
    ) -> None:
        """Step until the clock reads ``until`` (see steps())."""
        for _ in self.steps(packets, lost1, lost2, until):
            pass


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
    lost1 = [*erasures1] + [()] * (len(code.hop1) - len(erasures1))
    lost2 = [*erasures2] + [()] * (len(code.hop2) - len(erasures2))
    state.run(packets, lost1, lost2, total)
    return state
