"""Executable point-to-point streaming codes.

A link code is a concatenation of diagonally interleaved systematic MDS
blocks. A component with parameters (N+m, m) spreads each codeword along a
diagonal of the packet timeline: the symbol in row r of the packet sent at
time t belongs to the diagonal starting at time t - r + 1, so message row j
of the current packet is the current source symbol (the code is systematic
with respect to its own stream) and parity rows protect diagonals begun up
to N+m-1 slots ago. Under any N packet erasures, message row j of a
component is recoverable within N + m - j slots, which is where the
(delay, count) groupings of the spectrum module come from. Conversely, a
grouping fixes its code: its staircase decomposition gives a count of
(d+1, d-N+1) components at each top delay d. A spec stores these runs,
(shape, count) pairs, largest delay first; slots the grouping leaves over
form one dead zero-dimension component at the end.

Packets are erased whole: one lost slot removes all n symbols of that time
across every component. Diagonals that reach back before the start of the
stream treat the missing source symbols as known zeros.

Each spec compiles a plan: for each run that carries symbols, where its
components sit. The encoder flattens it: one getter copies every
systematic row, and each parity position is the XOR of k lookups in
256-entry product rows cached on the shape's MdsSpec, each term naming
its lag and message slot. Decoding needs no elimination per arrival: any
k positions of an MDS diagonal determine its whole message, fewer than k
only the systematic rows among them. So a systematic symbol is handed
over as it arrives, and a diagonal an erasure touched is solved once, at
its k-th known position, for the rows still missing and only those (k
products each, not k per message row); one record per shape serves every
component of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .gf import FIELD_ORDER, MdsSpec, make_mds, solve_erasures
from .spectrum import DelayGrouping


@dataclass(frozen=True)
class StreamingCodeSpec:
    """Runs of diagonal MDS components realizing a delay grouping.

    ``runs`` holds (component, count) pairs laid end to end: one run of
    (d+1, d-N+1) components per top delay d of the grouping's staircase,
    largest first, then one zero-dimension component over the slots left
    dead, if any.
    """

    runs: tuple[tuple[MdsSpec, int], ...]
    n: int
    N: int

    @cached_property
    def k(self) -> int:
        return sum(c.k * count for c, count in self.runs)

    @cached_property
    def span(self) -> int:
        return max((c.n for c, _ in self.runs), default=0)

    @cached_property
    def plan(self) -> tuple[tuple[MdsSpec, tuple[tuple[int, int], ...]], ...]:
        """Runs with k >= 1: (MdsSpec, ((channel offset, message offset), ...))."""
        out, coff, moff = [], 0, 0
        for c, count in self.runs:
            if c.k:
                out.append((c, tuple((coff + i * c.n, moff + i * c.k) for i in range(count))))
            coff += count * c.n
            moff += count * c.k
        return tuple(out)

    @cached_property
    def systematic(self) -> tuple[tuple[int, int], ...]:
        """(message slot, channel position) per systematic symbol, in plan order."""
        return tuple(
            (moff + r, coff + r)
            for comp, places in self.plan
            for r in range(comp.k)
            for coff, moff in places
        )

    @cached_property
    def encoder(self) -> tuple[Callable[[Sequence[int]], tuple[int, ...]], tuple]:
        """The encoder's flat plan: a getter of the packet's systematic
        part from (*message, 0), zero at parity and dead positions, and per
        parity position (position, ((lag, message slot, product table),
        ...)), the XOR of whose terms it carries."""
        source = [self.k] * self.n
        for slot, pos in self.systematic:
            source[pos] = slot
        parity = tuple(
            (coff + r, tuple((lag, moff + j, table) for lag, j, table in terms))
            for comp, places in self.plan
            for coff, moff in places
            for r, terms in comp.parity_terms
        )
        return tuple_getter(source), parity

    @cached_property
    def slot_delays(self) -> tuple[int, ...]:
        """Declared recovery delay of every source-packet slot."""
        out = []
        for c, count in self.runs:
            out += list(range(self.N + c.k - 1, self.N - 1, -1)) * count
        return tuple(out)

    @cached_property
    def shapes(self) -> tuple[tuple[int, int, int], ...]:
        """(n_c, k_c, j) of every source-packet slot: its component's shape
        and its 1-based position j on the component diagonal."""
        out = []
        for c, count in self.runs:
            out += [(c.n, c.k, j) for j in range(1, c.k + 1)] * count
        return tuple(out)


def tuple_getter(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """itemgetter(*indices), returning a tuple for any number of indices."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices) if indices else lambda seq: ()


def build_grouped_code(n: int, N: int, grouping: DelayGrouping) -> StreamingCodeSpec:
    """Realize an arbitrary staircase-decomposable grouping in n slots.

    Peels the grouping into components (d+1, d-N+1) top delay by top delay;
    counts must be nonincreasing toward larger delays and no delay may drop
    below N. Slots not used by any component are filled with a dead
    zero-dimension component so the packet length is exactly n.
    """
    counts: dict[int, int] = {}
    for d, c in grouping.entries:
        if c and d < N:
            raise ValueError(f"delay {d} below the erasure budget N={N}")
        counts[d] = c
    runs: list[tuple[MdsSpec, int]] = []
    top = max(counts, default=N - 1)
    above = 0
    for d in range(top, N - 1, -1):
        here = counts.get(d, 0)
        tops = here - above
        if tops < 0:
            raise ValueError("grouping is not staircase-decomposable: counts must "
                             "not decrease toward smaller delays")
        if d + 1 > FIELD_ORDER:
            raise ValueError("component too long for the field")
        if tops:
            runs.append((make_mds(d + 1, d - N + 1), tops))
        above = here
    used = sum(c.n * count for c, count in runs)
    if used > n:
        raise ValueError(f"grouping needs {used} slots, only {n} available")
    if used < n:
        runs.append((make_mds(n - used, 0), 1))
    return StreamingCodeSpec(runs=tuple(runs), n=n, N=N)


class CodecState:
    """Mutable per-stream encode/decode state for one StreamingCodeSpec.

    Encoding and decoding cursors advance independently so one instance can
    serve either end of a link. Each keeps its last span packets (source
    packets, zeros before the stream; received ones, None when erased). Per
    shape, the decoder keeps [known count, unknown rows] for each diagonal
    an erasure has touched. Deadline checking is the verifier's job.
    """

    def __init__(self, spec: StreamingCodeSpec):
        self.spec = spec
        self.enc_time = 0
        self.dec_time = 0
        self._history: dict[int, Sequence[int]] = dict.fromkeys(range(-spec.span, 0), (0,) * spec.k)
        self._received: dict[int, Optional[Sequence[int]]] = {}
        self._records: list[dict[int, list]] = [{} for _ in spec.plan]


def encode_step(state: CodecState, source_packet: Sequence[int]) -> tuple[int, ...]:
    """Emit the channel packet for the next time slot."""
    spec = state.spec
    if len(source_packet) != spec.k:
        raise ValueError("source packet length mismatch")
    t = state.enc_time
    state.enc_time += 1
    history = state._history
    history[t] = source_packet = tuple(source_packet)
    # t advances by one per call, so this drops the one entry out of reach
    history.pop(t - spec.span, None)
    systematic, parity = spec.encoder
    out = list(systematic((*source_packet, 0)))
    recent = [history[t - lag] for lag in range(spec.span)]
    for pos, terms in parity:
        acc = 0
        for lag, slot, table in terms:
            acc ^= table[recent[lag][slot]]
        out[pos] = acc
    return tuple(out)


def decode_step(
    state: CodecState, received: Optional[Sequence[int]], t: int
) -> list[tuple[int, int, int]]:
    """Feed one received packet (or None for an erasure) and return new
    recoveries as (source time, source slot, value), ordered by component
    shape, then position, then component, then row.

    A diagonal is solved at most once, at its k-th known position, and only
    if a row other than the arriving one is still unknown.
    """
    spec = state.spec
    if t != state.dec_time:
        raise ValueError("packets must be fed in time order")
    if received is not None and len(received) != spec.n:
        raise ValueError("received packet length mismatch")
    state.dec_time += 1
    if received is not None:
        received = tuple(received)
    past = state._received
    past[t] = received
    past.pop(t - spec.span, None)
    if received is not None and not any(state._records):
        # nothing lost within reach: each systematic symbol arrives as itself
        return [(t, slot, received[pos]) for slot, pos in spec.systematic]
    news: list[tuple[int, int, int]] = []
    for (comp, places), records in zip(spec.plan, state._records):
        n, k = comp.n, comp.k
        if received is None:
            # each diagonal still short of its message rows loses position
            # t - d + 1; if untouched so far, its earlier positions all
            # arrived (or predate the stream), so t - d of them are known
            for d in range(t - k + 1, t + 1):
                records.setdefault(d, [t - d, set(range(t - d + 1, k + 1))])
        else:
            for r in range(1, n + 1):
                d = t - r + 1
                record = records.get(d)
                if record is None:
                    if r <= k:
                        news.extend((t, moff + r - 1, received[coff + r - 1]) for coff, moff in places)
                    continue
                unknown = record[1]
                if not unknown:
                    continue
                record[0] += 1
                if record[0] == k and (len(unknown) > 1 or r not in unknown):
                    wanted = [j - 1 for j in sorted(unknown)]
                    for coff, moff in places:
                        # pre-stream positions are 0, erased and future ones None
                        word = [
                            0 if s < 0 else None if s > t or past[s] is None else past[s][coff + s - d]
                            for s in range(d, d + n)
                        ]
                        message = solve_erasures(comp, word, wanted)
                        news.extend((d + j, moff + j, value) for j, value in zip(wanted, message))
                    unknown.clear()
                elif r in unknown:
                    unknown.discard(r)
                    news.extend((t, moff + r - 1, received[coff + r - 1]) for coff, moff in places)
        # t advances by one per call, so this drops every finished diagonal
        records.pop(t - n + 1, None)
    return news

