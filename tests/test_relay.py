"""Relay pairing and end-to-end pipeline tests.

Reference networks as in test_planner: NET_A (T=5, budgets (2,3)/(1,2))
closes the capacity gap at rate 1; NET_B (T=4, budgets (1,)/(3,2)) has a
planning gap and zero-fills one first-hop slot.
"""

import itertools
import random

import pytest

from relaystream.planner import (
    NetworkConfig,
    cswdf_plan,
    mwdf_plan,
    oswdf_initial,
    oswdf_optimize,
)
from relaystream.relay import NetworkState, _pair, assemble, run_network

NET_A = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
NET_B = NetworkConfig(T=4, N1=(1,), N2=(3, 2))


def lcg_packets(count: int, width: int, seed: int = 7) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(256) for _ in range(width)] for _ in range(count)]


def expected_deliveries(state, packets):
    """Map (src_time, sym) -> value for everything the run delivered."""
    got = {}
    for d in state.deliveries:
        if d.src_time < len(packets):
            got.setdefault((d.src_time, d.sym), (d.value, d.at))
    return got


def assert_stream_recovered(code, state, packets):
    T = code.allocation.config.T
    got = expected_deliveries(state, packets)
    for t, pkt in enumerate(packets):
        for sym in range(code.k):
            assert (t, sym) in got, f"symbol {sym} of packet {t} never delivered"
            value, at = got[(t, sym)]
            assert value == pkt[sym], f"symbol {sym} of packet {t} corrupted"
            assert at <= t + T, f"symbol {sym} of packet {t} late: {at} > {t + T}"


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_greedy_pairing_is_optimal():
    # whenever some pairing exists, the greedy one that assemble runs
    # works: cross-check by brute force on small random delay masses
    rng = random.Random(1)
    for _ in range(200):
        m1 = {d: rng.randrange(0, 3) for d in rng.sample(range(6), 3)}
        m2 = {d: rng.randrange(0, 3) for d in rng.sample(range(6), 3)}
        if sum(m1.values()) != sum(m2.values()):
            continue
        syms1 = [d for d, c in m1.items() for _ in range(c)]
        syms2 = [d for d, c in m2.items() for _ in range(c)]
        T = 6
        feasible = any(
            all(a + b <= T for a, b in zip(perm, syms2))
            for perm in itertools.permutations(syms1)
        )
        try:
            _pair([(d, 0, i) for i, d in enumerate(syms1)],
                  [(d, 0, i) for i, d in enumerate(syms2)], T)
            greedy_ok = True
        except ValueError:
            greedy_ok = False
        assert greedy_ok == feasible


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_closed_network():
    code = assemble(oswdf_initial(NET_A))
    assert code.k == 40
    assert [c.n for c in code.hop1] == [40, 40]
    assert [c.k for c in code.hop1] == [24, 16]
    assert [c.k for c in code.hop2] == [22, 18]
    for r in code.routes:
        assert r.relay_delay + r.dest_delay <= 5
    # rate 1: no zero-filled slots anywhere
    assert all(s is not None for f in code.hop1_fill for s in f)
    assert all(s is not None for f in code.hop2_fill for s in f)


def test_assemble_gap_network_zero_fills_worst_slot():
    code = assemble(oswdf_initial(NET_B))
    assert code.k == 7
    fills = [s for f in code.hop1_fill for s in f]
    assert fills.count(None) == 1
    # the dropped slot is one of the slowest (delay 2, the last such slot)
    spec = code.hop1[0]
    dropped = next(i for i, s in enumerate(code.hop1_fill[0]) if s is None)
    assert spec.slot_delays[dropped] == 2
    for r in code.routes:
        assert r.relay_delay + r.dest_delay <= 4


def test_assemble_relabeling_structure():
    # slow hop-1 symbols ride the fast hop-2 link and vice versa; one fast
    # symbol spills onto the fast link because a slow slot was zero-filled
    code = assemble(oswdf_initial(NET_B))
    counts: dict[tuple[int, int, int], int] = {}
    for r in code.routes:
        key = (r.relay_delay, r.link2, r.dest_delay)
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(2, 1, 2): 3, (1, 1, 2): 1, (1, 0, 3): 3}


def test_assemble_rejects_unpairable_allocation():
    alloc = oswdf_initial(NET_A)
    squeezed = NetworkConfig(T=4, N1=(2, 3), N2=(1, 2))
    bad = type(alloc)(
        scheme=alloc.scheme,
        config=squeezed,
        n1=alloc.n1,
        n2=alloc.n2,
        k1=alloc.k1,
        k2=alloc.k2,
        groupings1=alloc.groupings1,
        groupings2=alloc.groupings2,
        bottleneck=alloc.bottleneck,
    )
    with pytest.raises(ValueError, match=r"not pairable: hop-1 link \d+ slot \d+ \(delay \d+\) "
                                         r"\+ hop-2 link \d+ slot \d+ \(delay \d+\) > T=4"):
        assemble(bad)


# ---------------------------------------------------------------------------
# end-to-end runtime
# ---------------------------------------------------------------------------


def test_clean_channel_delivers_everything():
    code = assemble(oswdf_initial(NET_A))
    packets = lcg_packets(12, code.k)
    state = run_network(code, packets)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_gap_network_clean_channel():
    code = assemble(oswdf_initial(NET_B))
    packets = lcg_packets(10, code.k)
    state = run_network(code, packets)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_adversarial_bursts_within_budget():
    # worst-case bursts on every link at once, repeated mid-stream
    code = assemble(oswdf_initial(NET_A))
    packets = lcg_packets(14, code.k)
    horizon = 40
    e1 = [[t in (3, 4) for t in range(horizon)], [t in (3, 4, 5) for t in range(horizon)]]
    e2 = [[t in (6,) for t in range(horizon)], [t in (6, 7) for t in range(horizon)]]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_adversarial_bursts_gap_network():
    code = assemble(oswdf_initial(NET_B))
    packets = lcg_packets(12, code.k)
    horizon = 40
    e1 = [[t in (2, 9) for t in range(horizon)]]
    e2 = [[t in (4, 5, 6) for t in range(horizon)], [t in (5, 6) for t in range(horizon)]]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_budget_violation_is_contained():
    # a burst beyond the hop-1 budget corrupts the symbols that missed
    # their relay deadline, and only those
    code = assemble(oswdf_initial(NET_B))
    packets = lcg_packets(10, code.k)
    horizon = 30
    e1 = [[t in (2, 3) for t in range(horizon)]]  # budget is 1
    state = run_network(code, packets, e1)
    assert state.violations
    bad = {(v.src_time, v.sym) for v in state.violations}
    got = expected_deliveries(state, packets)
    for t, pkt in enumerate(packets):
        for sym in range(code.k):
            value, at = got[(t, sym)]
            if (t, sym) not in bad:
                assert value == pkt[sym]
                assert at <= t + 4
    # and some symbol really was corrupted end to end
    assert any(got[key][0] != packets[key[0]][key[1]] for key in bad if key[0] < len(packets))


def test_cswdf_assembles_and_runs():
    rate, alloc = cswdf_plan(NET_A)
    code = assemble(alloc)
    assert code.k == 8
    packets = lcg_packets(10, code.k)
    state = run_network(code, packets)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_mwdf_buffers_whole_packets():
    alloc = mwdf_plan(NET_A)
    code = assemble(alloc)
    assert code.k == 9
    # every symbol leaves the relay at the split time
    assert {r.relay_delay for r in code.routes} == {3}
    packets = lcg_packets(10, code.k)
    e1 = [[t in (2, 3) for t in range(30)], [t in (2, 3) for t in range(30)]]
    state = run_network(code, packets, e1)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_matched_mwdf_builds_at_shrunken_budgets():
    alloc = mwdf_plan(NET_A, match=oswdf_optimize(NET_A))
    code = assemble(alloc)
    assert code.k == 40
    for spec, budget in zip(code.hop1 + code.hop2,
                            alloc.build_budgets1() + alloc.build_budgets2()):
        assert spec.N == budget
    assert all(r.relay_delay + r.dest_delay <= NET_A.T for r in code.routes)
    packets = lcg_packets(10, code.k)
    # a clean run still delivers; adversarial strength is deliberately below
    # the network budgets, which is the price of matching rate 1
    state = run_network(code, packets)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_propagation_delay_pipeline():
    cfg = NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,))
    code = assemble(oswdf_optimize(cfg))
    packets = lcg_packets(10, code.k)
    e1 = [[t in (4, 5) for t in range(30)]]
    e2 = [[t in (7, 8) for t in range(30)]]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_passthrough_second_hop():
    code = assemble(oswdf_optimize(NetworkConfig(T=2, N1=(1,), N2=(0,))))
    packets = lcg_packets(8, code.k)
    # singleton erasures spaced beyond the component span
    e1 = [[t % 4 == 1 for t in range(20)]]
    state = run_network(code, packets, e1)
    assert not state.violations
    assert_stream_recovered(code, state, packets)