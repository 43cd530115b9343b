"""Executable point-to-point streaming codes.

A link code is a concatenation of diagonally interleaved systematic MDS
blocks. A component with parameters (N+m, m) spreads each codeword along a
diagonal of the packet timeline: the symbol in row r of the packet sent at
time t belongs to the diagonal starting at time t - r + 1, so message row j
of the current packet is the current source symbol (the code is systematic
with respect to its own stream) and parity rows protect diagonals begun up
to N+m-1 slots ago. Under any N packet erasures, message row j of a
component is recoverable within N + m - j slots, which is where the
(delay, count) groupings of the spectrum module come from.

Packets are erased whole: one lost slot removes all n symbols of that time
across every component. Diagonals that reach back before the start of the
stream treat the missing source symbols as known zeros.

Decoding needs no elimination per arrival. Any k positions of an MDS
diagonal determine its whole message, and fewer than k determine only the
systematic rows among them. So the decoder buffers each in-flight diagonal,
hands a systematic symbol over the moment it arrives, and solves the
diagonal once, at its k-th known position, for the rows still missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .gf import FIELD_ORDER, MdsSpec, gf_mul, make_mds, solve_erasures
from .spectrum import DelayGrouping


@dataclass(frozen=True)
class StreamingCodeSpec:
    """A concatenation of diagonal MDS components with its declared grouping."""

    components: tuple[MdsSpec, ...]
    n: int
    k: int
    N: int
    grouping: DelayGrouping

    def __post_init__(self) -> None:
        if self.n != sum(c.n for c in self.components):
            raise ValueError("component lengths do not fill the packet")
        if self.k != sum(c.k for c in self.components):
            raise ValueError("component dimensions do not sum to k")
        if DelayGrouping.from_pairs((d, 1) for d in self.slot_delays) != self.grouping:
            raise ValueError("declared grouping does not match the components")

    @cached_property
    def span(self) -> int:
        return max((c.n for c in self.components), default=0)

    @cached_property
    def message_offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for c in self.components:
            out.append(acc)
            acc += c.k
        return tuple(out)

    @cached_property
    def channel_offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for c in self.components:
            out.append(acc)
            acc += c.n
        return tuple(out)

    @cached_property
    def slot_delays(self) -> tuple[int, ...]:
        """Declared recovery delay of every source-packet slot."""
        out = []
        for c in self.components:
            out.extend(self.N + c.k - j for j in range(1, c.k + 1))
        return tuple(out)


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
    comps: list[MdsSpec] = []
    top = max(counts, default=N - 1)
    above = 0
    for d in range(top, N - 1, -1):
        here = counts.get(d, 0)
        tops = here - above
        if tops < 0:
            raise ValueError("grouping is not staircase-decomposable: counts must "
                             "not decrease toward smaller delays")
        m = d - N + 1
        if d + 1 > FIELD_ORDER:
            raise ValueError("component too long for the field")
        comps.extend(make_mds(d + 1, m) for _ in range(tops))
        above = here
    used = sum(c.n for c in comps)
    if used > n:
        raise ValueError(f"grouping needs {used} slots, only {n} available")
    if used < n:
        comps.append(make_mds(n - used, 0))
    return StreamingCodeSpec(
        components=tuple(comps), n=n, k=grouping.total(), N=N, grouping=grouping
    )


class CodecState:
    """Mutable per-stream encode/decode state for one StreamingCodeSpec.

    Encoding and decoding cursors advance independently so one instance can
    serve either end of a link. The decoder buffers each in-flight diagonal
    as a length-n word (known pre-stream positions 0, missing ones None),
    the count of its known positions and its still-unknown message rows;
    deadline checking is the verifier's job, not the decoder's.
    """

    def __init__(self, spec: StreamingCodeSpec):
        self.spec = spec
        self.enc_time = 0
        self.dec_time = 0
        self._history: dict[int, tuple[int, ...]] = {}
        # per component: diagonal start -> [word, known count, unknown rows]
        self._diagonals: list[dict[int, list]] = [{} for _ in spec.components]


def encode_step(state: CodecState, source_packet: Sequence[int]) -> tuple[int, ...]:
    """Emit the channel packet for the next time slot."""
    spec = state.spec
    if len(source_packet) != spec.k:
        raise ValueError("source packet length mismatch")
    t = state.enc_time
    state._history[t] = tuple(source_packet)
    out: list[int] = []
    for ci, comp in enumerate(spec.components):
        moff = spec.message_offsets[ci]
        for r in range(1, comp.n + 1):
            d = t - r + 1
            if r <= comp.k:
                out.append(source_packet[moff + r - 1])
                continue
            acc = 0
            for j in range(1, comp.k + 1):
                src_t = d + j - 1
                if src_t < 0:
                    continue
                m = state._history[src_t][moff + j - 1]
                if m:
                    acc ^= gf_mul(m, comp.generator[j - 1][r - 1])
            out.append(acc)
    state.enc_time += 1
    # t advances by one per call, so this drops the one entry out of reach
    state._history.pop(t - spec.span - 1, None)
    return tuple(out)


def decode_step(
    state: CodecState, received: Optional[Sequence[int]], t: Optional[int] = None
) -> list[tuple[int, int, int]]:
    """Feed one received packet (or None for an erasure) and return new
    recoveries as (source time, source slot, value), ordered by component,
    then position, then row.

    A diagonal is solved at most once, at its k-th known position, and only
    if a row other than the arriving one is still unknown.
    """
    spec = state.spec
    if t is None:
        t = state.dec_time
    if t != state.dec_time:
        raise ValueError("packets must be fed in time order")
    state.dec_time += 1
    news: list[tuple[int, int, int]] = []
    if received is not None and len(received) != spec.n:
        raise ValueError("received packet length mismatch")
    for ci, comp in enumerate(spec.components):
        k = comp.k
        if k == 0:
            continue
        diagonals = state._diagonals[ci]
        if received is not None:
            coff = spec.channel_offsets[ci]
            moff = spec.message_offsets[ci]
            n = comp.n
            # positions past t + k sit on diagonals of pre-stream symbols only
            for r, value in enumerate(received[coff : coff + min(n, t + k)], 1):
                d = t - r + 1
                diag = diagonals.get(d)
                if diag is None:
                    pre = -d if d < 0 else 0
                    word = [0] * pre + [None] * (n - pre)
                    diag = diagonals[d] = [word, pre, set(range(pre + 1, k + 1))]
                unknown = diag[2]
                if not unknown:
                    continue
                diag[0][r - 1] = value
                diag[1] += 1
                if diag[1] == k and (len(unknown) > 1 or r not in unknown):
                    message = solve_erasures(comp, diag[0])
                    for j in sorted(unknown):
                        news.append((d + j - 1, moff + j - 1, message[j - 1]))
                    unknown.clear()
                elif r in unknown:
                    unknown.discard(r)
                    news.append((t, moff + r - 1, value))
        # t advances by one per call, so this drops every finished diagonal
        diagonals.pop(t - comp.n + 1, None)
    return news
