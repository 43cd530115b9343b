"""Streaming-code construction and codec behavior, checked per diagonal
against the block-code layer and exhaustively against small erasure sets."""

import itertools

import pytest

from relaystream.codes import (
    CodecState,
    build_diagonal_mds,
    build_grouped_code,
    build_spectrum_code,
    component_grouping,
    decode_step,
    encode_step,
)
from relaystream.spectrum import DelayGrouping

from oracles import block_encode, oracle_determined


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


def test_diagonal_mds_shapes_and_grouping():
    code = build_diagonal_mds(2, 3)
    assert (code.n, code.k, code.N) == (5, 3, 2)
    assert code.slot_delays == (4, 3, 2)
    assert code.grouping.entries == ((4, 1), (3, 1), (2, 1))
    code = build_diagonal_mds(1, 3)
    assert code.slot_delays == (3, 2, 1)
    code = build_diagonal_mds(1, 1)
    assert (code.n, code.k) == (2, 1)
    assert code.slot_delays == (1,)


def test_encoder_emits_block_codewords_along_diagonals():
    code = build_diagonal_mds(2, 3)
    comp = code.components[0]
    source = stream_source(3, 25)
    enc = CodecState(code)
    sent = [encode_step(enc, p) for p in source]
    for d in range(0, 20 - comp.n):
        word = tuple(sent[d + r - 1][r - 1] for r in range(1, comp.n + 1))
        msg = tuple(source[d + j - 1][j - 1] for j in range(1, comp.k + 1))
        assert word == block_encode(comp, msg)


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


def oracle_recovery_steps(code, erased, horizon):
    """(source time, slot) -> first decode step at which the received
    columns of the symbol's diagonal, plus the unit vectors of its known
    pre-stream rows, span the symbol's unit vector."""
    memo = {}
    out = {}
    for ci, comp in enumerate(code.components):
        k = comp.k
        if k == 0:
            continue
        moff = code.message_offsets[ci]
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
    ],
    ids=["mds-5-3", "mds-5-4", "grouped-mixed"],
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
    assert sorted((c.n, c.k) for c in code.components) == [(4, 3)] * 3
    assert code.grouping.entries == ((3, 3), (2, 3), (1, 3))
    code = build_spectrum_code(12, 8, 1, 2)
    assert sorted((c.n, c.k) for c in code.components) == [(3, 2)] * 4
    assert code.grouping.entries == ((2, 4), (1, 4))


def test_grouped_code_mixed_components():
    g = DelayGrouping.from_pairs([(2, 2), (1, 9)])
    code = build_grouped_code(20, 1, g)
    multiset = sorted((c.n, c.k) for c in code.components)
    assert multiset == [(2, 1)] * 7 + [(3, 2)] * 2
    assert code.n == 20 and code.k == 11


def test_grouped_code_dead_slots_and_rejections():
    g = DelayGrouping.from_pairs([(1, 2)])
    code = build_grouped_code(5, 1, g)
    assert sorted((c.n, c.k) for c in code.components) == [(1, 0), (2, 1), (2, 1)]
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
