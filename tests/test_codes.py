"""Streaming-code construction and codec behavior, checked per diagonal
against the block-code layer and exhaustively against small erasure sets."""

import itertools
import random
from collections import Counter
from itertools import accumulate

import pytest

from relaystream.codes import CodecState, build_grouped_code, decode_step, encode_step
from relaystream.gf import make_mds
from relaystream.planner import NetworkConfig, oswdf_optimize
from relaystream.relay import assemble
from relaystream.spectrum import DelayGrouping

from oracles import (
    block_encode,
    build_diagonal_mds,
    build_spectrum_code,
    component_grouping,
    components,
    concat_groupings,
    oracle_determined,
)


def stream_source(k, horizon, seed=1):
    vals = []
    x = seed
    for _ in range(horizon):
        row = []
        for _ in range(k):
            x = (1103515245 * x + 12345) % (1 << 31)
            row.append(x % 256)
        vals.append(tuple(row))
    return vals


def run_pattern(code, source, erased_times):
    enc = CodecState(code)
    dec = CodecState(code)
    recovered = {}
    for t, packet in enumerate(source):
        out = encode_step(enc, packet)
        rx = None if t in erased_times else out
        for (st, slot, val) in decode_step(dec, rx, t):
            recovered[(st, slot)] = (val, t)
    return recovered


def declared_grouping(code):
    # the grouping a spec realizes, read back from its slots' declared delays
    return DelayGrouping.from_pairs(Counter(code.slot_delays).items())


def test_diagonal_mds_shapes_and_grouping():
    code = build_diagonal_mds(2, 3)
    assert (code.n, code.k, code.N) == (5, 3, 2)
    assert code.slot_delays == (4, 3, 2)
    assert declared_grouping(code).entries == ((4, 1), (3, 1), (2, 1))
    code = build_diagonal_mds(1, 3)
    assert code.slot_delays == (3, 2, 1)
    code = build_diagonal_mds(1, 1)
    assert (code.n, code.k) == (2, 1)
    assert code.slot_delays == (1,)


def test_encoder_emits_block_codewords_along_diagonals():
    code = build_diagonal_mds(2, 3)
    comp = components(code)[0]
    source = stream_source(3, 25)
    enc = CodecState(code)
    sent = [encode_step(enc, p) for p in source]
    for d in range(0, 20 - comp.n):
        word = tuple(sent[d + r - 1][r - 1] for r in range(1, comp.n + 1))
        msg = tuple(source[d + j - 1][j - 1] for j in range(1, comp.k + 1))
        assert word == block_encode(comp, msg)


def stream_encode_oracle(code, source):
    # every channel symbol straight from the generator: position r of a
    # component at time t is column r of the block codeword of the diagonal
    # begun at t - r + 1, with pre-stream message symbols zero (rows not
    # yet sent feed only their own systematic columns, so zero them too)
    sent = []
    comps = components(code)
    for t in range(len(source)):
        out = [0] * code.n
        coffs = accumulate((c.n for c in comps), initial=0)
        moffs = accumulate((c.k for c in comps), initial=0)
        for comp, coff, moff in zip(comps, coffs, moffs):
            for r in range(comp.n):
                d = t - r
                msg = [source[d + j][moff + j] if 0 <= d + j <= t else 0 for j in range(comp.k)]
                out[coff + r] = block_encode(comp, msg)[r] if comp.k else 0
        sent.append(tuple(out))
    return sent


@pytest.mark.parametrize("seed", range(12))
def test_encoder_matches_generator_products(seed):
    # random staircase groupings, dead slots included
    rng = random.Random(seed)
    N = rng.randint(1, 3)
    grouping, used = DelayGrouping(()), 0
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(1, 4)
        grouping = concat_groupings(grouping, component_grouping(N, m))
        used += N + m
    code = build_grouped_code(used + rng.randint(0, 3), N, grouping)
    source = [tuple(rng.randrange(256) for _ in range(code.k)) for _ in range(3 * code.span)]
    enc = CodecState(code)
    assert [encode_step(enc, p) for p in source] == stream_encode_oracle(code, source)


def test_stream_start_parities_treat_prehistory_as_zero():
    code = build_diagonal_mds(2, 3)
    source = stream_source(3, 8)
    padded = [(0, 0, 0)] * 6 + source
    enc_a, enc_b = CodecState(code), CodecState(code)
    sent_a = [encode_step(enc_a, p) for p in source]
    sent_b = [encode_step(enc_b, p) for p in padded]
    assert sent_a[:3] == sent_b[6:9]


def test_encoder_causality():
    code = build_spectrum_code(12, 8, 1, 2)
    src = stream_source(8, 10, seed=3)
    altered = src[:6] + [tuple(255 - v for v in p) for p in src[6:]]
    enc_a, enc_b = CodecState(code), CodecState(code)
    out_a = [encode_step(enc_a, p) for p in src]
    out_b = [encode_step(enc_b, p) for p in altered]
    assert out_a[:6] == out_b[:6]


def test_zero_erasures_systematic_readoff():
    code = build_diagonal_mds(2, 3)
    source = stream_source(3, 10)
    recovered = run_pattern(code, source, set())
    for t in range(10):
        for slot in range(3):
            val, at = recovered[(t, slot)]
            assert val == source[t][slot]
            assert at == t


def test_table_code_burst_recovery():
    # both t and t+1 erased: the fastest symbol still lands at t+2
    code = build_diagonal_mds(2, 3)
    source = stream_source(3, 14)
    recovered = run_pattern(code, source, {5, 6})
    assert recovered[(5, 2)] == (source[5][2], 7)
    assert recovered[(5, 1)] == (source[5][1], 8)
    assert recovered[(5, 0)] == (source[5][0], 9)


def exhaustive_worst_delays(code, N, window_start, window_len, horizon=None):
    """Max recovery delay per source slot over all N-erasure placements."""
    horizon = horizon or (window_start + window_len + code.span + max(code.slot_delays) + 2)
    source = stream_source(code.k, horizon, seed=7)
    check_times = range(max(0, window_start - code.span), window_start + window_len)
    worst = [0] * code.k
    for erased in itertools.combinations(range(window_start, window_start + window_len), N):
        recovered = run_pattern(code, source, set(erased))
        for t in check_times:
            for slot in range(code.k):
                assert (t, slot) in recovered, (erased, t, slot)
                val, at = recovered[(t, slot)]
                assert val == source[t][slot]
                worst[slot] = max(worst[slot], at - t)
    return worst


def test_exhaustive_delays_match_declaration_5_3():
    code = build_diagonal_mds(2, 3)
    worst = exhaustive_worst_delays(code, 2, window_start=6, window_len=9)
    assert worst == list(code.slot_delays)


def test_exhaustive_delays_match_declaration_4_3():
    code = build_diagonal_mds(1, 3)
    worst = exhaustive_worst_delays(code, 1, window_start=5, window_len=7)
    assert worst == list(code.slot_delays)


OSWDF_8_2_3 = assemble(oswdf_optimize(NetworkConfig(T=8, N1=(2,), N2=(3,))))


# (n, k, known pre-stream rows, received positions) -> determined rows;
# every component of one shape comes from make_mds, so shares a generator
_DETERMINED = {}


def oracle_recovery_steps(code, erased, horizon):
    """(source time, slot) -> first decode step at which the received
    columns of the symbol's diagonal, plus the unit vectors of its known
    pre-stream rows, span the symbol's unit vector."""
    memo = _DETERMINED
    out = {}
    comps = components(code)
    for comp, moff in zip(comps, accumulate((c.k for c in comps), initial=0)):
        k = comp.k
        if k == 0:
            continue
        for d in range(1 - k, horizon):
            pre = [j for j in range(1, k + 1) if d + j - 1 < 0]
            received = []
            for step in range(max(d, 0), min(d + comp.n, horizon)):
                if step not in erased:
                    received.append(step - d + 1)
                key = (comp.n, k, len(pre), tuple(received))
                if key not in memo:
                    rows = [[1 if i == j - 1 else 0 for i in range(k)] for j in pre]
                    rows += [[comp.generator[i][r - 1] for i in range(k)] for r in received]
                    memo[key] = oracle_determined(k, rows)
                for j0 in memo[key]:
                    src_t = d + j0
                    if src_t >= 0:
                        out.setdefault((src_t, moff + j0), step)
    return out


@pytest.mark.parametrize(
    "code",
    [
        build_diagonal_mds(2, 3),
        build_diagonal_mds(1, 4),
        # components (4,3), (3,2), (2,1) and a dead slot
        build_grouped_code(10, 1, DelayGrouping.from_pairs([(3, 1), (2, 2), (1, 3)])),
        # the oswdf hop codes of T=8, N1=(2,), N2=(3,): several components
        # of one shape share the decoder's per-shape records
        OSWDF_8_2_3.hop1[0],  # (5,3) x 6 + (4,2) x 3
        OSWDF_8_2_3.hop2[0],  # (7,4) x 6
    ],
    ids=["mds-5-3", "mds-5-4", "grouped-mixed", "oswdf-8-hop1", "oswdf-8-hop2"],
)
def test_decoder_matches_rank_oracle(code):
    # every pattern of up to N+1 erasures in a window from the stream start:
    # each symbol comes out exactly once, with the source value, at the
    # first step where linear algebra pins it down, and never otherwise
    window = code.span + 3
    horizon = window + code.span + 1
    source = stream_source(code.k, horizon, seed=5)
    for count in range(code.N + 2):
        for erased in itertools.combinations(range(window), count):
            enc, dec = CodecState(code), CodecState(code)
            emitted = {}
            for t, packet in enumerate(source):
                out = encode_step(enc, packet)
                for st, slot, val in decode_step(dec, None if t in erased else out, t):
                    assert (st, slot) not in emitted, (erased, st, slot)
                    assert val == source[st][slot], (erased, st, slot)
                    emitted[(st, slot)] = t
            assert emitted == oracle_recovery_steps(code, set(erased), horizon), erased


def test_spectrum_code_component_multisets():
    code = build_spectrum_code(12, 9, 1, 3)
    assert sorted((c.n, c.k) for c in components(code)) == [(4, 3)] * 3
    assert declared_grouping(code).entries == ((3, 3), (2, 3), (1, 3))
    code = build_spectrum_code(12, 8, 1, 2)
    assert sorted((c.n, c.k) for c in components(code)) == [(3, 2)] * 4
    assert declared_grouping(code).entries == ((2, 4), (1, 4))


def test_grouped_code_mixed_components():
    g = DelayGrouping.from_pairs([(2, 2), (1, 9)])
    code = build_grouped_code(20, 1, g)
    multiset = sorted((c.n, c.k) for c in components(code))
    assert multiset == [(2, 1)] * 7 + [(3, 2)] * 2
    assert code.n == 20 and code.k == 11


def per_component_layout(code):
    # plan, systematic, slot delays and slot shapes worked out component
    # by component over the flat list, shapes grouped in first-seen order
    comps = components(code)
    groups, delays, shapes = {}, [], []
    coffs = accumulate((c.n for c in comps), initial=0)
    moffs = accumulate((c.k for c in comps), initial=0)
    for comp, coff, moff in zip(comps, coffs, moffs):
        if comp.k:
            groups.setdefault(comp, []).append((coff, moff))
        for j in range(1, comp.k + 1):
            delays.append(code.N + comp.k - j)
            shapes.append((comp.n, comp.k, j))
    plan = tuple((comp, tuple(places)) for comp, places in groups.items())
    systematic = tuple(
        (moff + r, coff + r) for comp, places in plan for r in range(comp.k) for coff, moff in places
    )
    return plan, systematic, tuple(delays), tuple(shapes)


@pytest.mark.parametrize("seed", range(40))
def test_runs_match_per_component_layout(seed):
    # random staircases: some top delays start no component (a zero step
    # between runs), and spare slots become one dead component
    rng = random.Random(seed)
    N = rng.randint(0, 3)
    pairs, count, used = [], 0, 0
    for d in range(N + rng.randint(0, 5), N - 1, -1):
        tops = rng.choice((0, 0, 1, 2, 3))
        count += tops
        used += tops * (d + 1)
        pairs.append((d, count))
    grouping = DelayGrouping.from_pairs(pairs)
    code = build_grouped_code(used + rng.randint(0, 3), N, grouping)
    comps = components(code)
    # the invariants the runs hold by construction
    assert sum(c.n for c in comps) == code.n
    assert sum(c.k for c in comps) == code.k == grouping.total()
    assert DelayGrouping.from_pairs((d, 1) for d in code.slot_delays) == grouping
    assert all(count >= 1 for _, count in code.runs)
    assert len({comp for comp, _ in code.runs}) == len(code.runs)
    assert code.span == max((c.n for c in comps), default=0)
    plan, systematic, delays, shapes = per_component_layout(code)
    assert code.plan == plan
    assert code.systematic == systematic
    assert code.slot_delays == delays
    assert code.shapes == shapes


def test_large_grouping_is_one_run():
    code = build_grouped_code(80_000, 3, DelayGrouping.from_pairs([(3, 20_000)]))
    assert code.runs == ((make_mds(4, 1), 20_000),)
    assert code.k == 20_000 and code.span == 4
    assert code.plan == ((make_mds(4, 1), tuple((4 * i, i) for i in range(20_000))),)
    assert code.slot_delays == (3,) * 20_000
    assert code.shapes == ((4, 1, 1),) * 20_000


def test_grouped_code_dead_slots_and_rejections():
    g = DelayGrouping.from_pairs([(1, 2)])
    code = build_grouped_code(5, 1, g)
    assert sorted((c.n, c.k) for c in components(code)) == [(1, 0), (2, 1), (2, 1)]
    with pytest.raises(ValueError):
        build_grouped_code(3, 1, g)  # needs 4 slots
    with pytest.raises(ValueError):
        build_grouped_code(8, 2, DelayGrouping.from_pairs([(1, 1)]))  # faster than N
    with pytest.raises(ValueError):
        # counts decreasing toward smaller delays cannot be peeled
        build_grouped_code(9, 1, DelayGrouping.from_pairs([(2, 2), (1, 1)]))


def test_dead_slots_carry_zeros_and_decode_ignores_them():
    g = DelayGrouping.from_pairs([(1, 2)])
    code = build_grouped_code(5, 1, g)
    source = stream_source(2, 8)
    enc = CodecState(code)
    sent = [encode_step(enc, p) for p in source]
    assert all(p[4] == 0 for p in sent)
    recovered = run_pattern(code, source, {3})
    assert recovered[(3, 0)] == (source[3][0], 4)
    assert recovered[(3, 1)] == (source[3][1], 4)


def test_repetition_code_roundtrip():
    code = build_diagonal_mds(1, 1)
    source = stream_source(1, 6)
    recovered = run_pattern(code, source, {2})
    assert recovered[(2, 0)] == (source[2][0], 3)


def test_component_grouping_helper():
    assert component_grouping(2, 3).entries == ((4, 1), (3, 1), (2, 1))
    assert component_grouping(1, 1).entries == ((1, 1),)
