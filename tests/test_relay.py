"""Relay pairing and end-to-end pipeline tests.

Reference networks as in test_planner: NET_A (T=5, budgets (2,3)/(1,2))
closes the capacity gap at rate 1; NET_B (T=4, budgets (1,)/(3,2)) has a
planning gap and zero-fills one first-hop slot.
"""

import collections
import dataclasses
import hashlib
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

from oracles import relay_rows_by_symbol

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
    for specs, col in ((code.hop1, 1), (code.hop2, 4)):
        slots = {(link, slot) for link, spec in enumerate(specs) for slot in range(spec.k)}
        assert {r[col : col + 2] for r in code.routes} == slots


def test_assemble_gap_network_zero_fills_worst_slot():
    code = assemble(oswdf_initial(NET_B))
    assert code.k == 7
    routed = {(r.link1, r.slot1) for r in code.routes}
    unrouted = [slot for slot in range(code.hop1[0].k) if (0, slot) not in routed]
    assert len(unrouted) == 1
    # the dropped slot is one of the slowest (delay 2, the last such slot)
    assert code.hop1[0].slot_delays[unrouted[0]] == 2
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
    e1 = [{3, 4}, {3, 4, 5}]
    e2 = [{6}, {6, 7}]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_adversarial_bursts_gap_network():
    code = assemble(oswdf_initial(NET_B))
    packets = lcg_packets(12, code.k)
    e1 = [{2, 9}]
    e2 = [{4, 5, 6}, {5, 6}]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_budget_violation_is_contained():
    # a burst beyond the hop-1 budget corrupts the symbols that missed
    # their relay deadline, and only those
    code = assemble(oswdf_initial(NET_B))
    packets = lcg_packets(10, code.k)
    e1 = [{2, 3}]  # budget is 1
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
    e1 = [{2, 3}, {2, 3}]
    state = run_network(code, packets, e1)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_matched_mwdf_builds_at_shrunken_budgets():
    alloc = mwdf_plan(NET_A, match=oswdf_optimize(NET_A))
    code = assemble(alloc)
    assert code.k == 40
    for spec, budget in zip(code.hop1 + code.hop2,
                            alloc.budgets1 + alloc.budgets2):
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
    e1 = [{4, 5}]
    e2 = [{7, 8}]
    state = run_network(code, packets, e1, e2)
    assert not state.violations
    assert_stream_recovered(code, state, packets)


def test_passthrough_second_hop():
    code = assemble(oswdf_optimize(NetworkConfig(T=2, N1=(1,), N2=(0,))))
    packets = lcg_packets(8, code.k)
    # singleton erasures spaced beyond the component span
    e1 = [set(range(1, 20, 4))]
    state = run_network(code, packets, e1)
    assert not state.violations
    assert_stream_recovered(code, state, packets)

@pytest.mark.parametrize("cfg,lost1,lost2", [
    # NET_A with bursts on every link
    (NetworkConfig(T=5, N1=(2, 3), N2=(1, 2)), [{3, 4}, {3, 4, 5}], [{6}, {6, 7}]),
    # a 1x1 network with propagation delays and a budget overrun
    (NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,), dT2=(1,)), [{4, 5, 6}], [{7, 9}]),
])
def test_fork_resumes_like_a_fresh_run(cfg, lost1, lost2):
    # forked at every time, the copy ends exactly where an unforked run
    # does, even while the original goes on under other erasures
    code = assemble(oswdf_optimize(cfg))
    packets = lcg_packets(12, code.k)
    fresh = run_network(code, packets, lost1, lost2)
    end = fresh.time
    assert fresh.deliveries
    for at in range(end + 1):
        state = NetworkState(code)
        state.run(packets, lost1, lost2, at)
        twin = state.fork()
        state.run(packets, [set(range(0, end, 2))] * len(lost1), [set(range(end))] * len(lost2), end)
        twin.run(packets, lost1, lost2, end)
        assert twin.deliveries == fresh.deliveries, at
        assert twin.violations == fresh.violations, at


@pytest.mark.parametrize("cfg,lost1,lost2,within", [
    (NetworkConfig(T=5, N1=(2, 3), N2=(1, 2)), [{3, 4}, {3, 4, 5}], [{6}, {6, 7}], True),
    (NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,), dT2=(1,)), [{4, 5}], [{7, 9}], True),
    # over the hop-1 budget: the relay misses symbols at their forward
    # times, and each leaves the buffer with its bucket
    (NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,), dT2=(1,)), [{4, 5, 6}], [{7, 9}], False),
])
def test_pipeline_settles_one_span_past_the_last_erasure(cfg, lost1, lost2, within):
    # the pipeline leaves the erasure-free run's with the first erasure
    # arrival and is back one span past the last, within the budget or
    # not, though the delivery logs still differ
    code = assemble(oswdf_optimize(cfg))
    packets = lcg_packets(12, code.k)
    arrivals = [x + dt for lost, dt in zip(lost1 + lost2, cfg.dT1 + cfg.dT2) for x in lost]
    span = max(c.span for c in code.hop1 + code.hop2)
    clear, erased = NetworkState(code), NetworkState(code)
    checks = ((min(arrivals), True), (min(arrivals) + 1, False), (max(arrivals) + span + 1, True))
    for at, equal in checks:
        clear.run(packets, [()] * len(lost1), [()] * len(lost2), at)
        erased.run(packets, lost1, lost2, at)
        assert (clear.pipeline() == erased.pipeline()) == equal, at
    assert clear.deliveries != erased.deliveries
    assert bool(erased.violations) != within


def test_pipeline_holds_everything_later_steps_read():
    # a change to any clock, codec window or record, packet in flight or
    # relay bucket shows in the pipeline; the logs do not
    code = assemble(oswdf_optimize(NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,), dT2=(1,))))
    state = NetworkState(code)
    state.run(lcg_packets(12, code.k), [{4, 5}], [{7}], 9)
    pokes = (
        lambda s: setattr(s, "time", s.time + 1),
        lambda s: setattr(s.state2[0], "enc_time", s.state2[0].enc_time + 1),
        lambda s: setattr(s.state1[0], "dec_time", s.state1[0].dec_time + 1),
        lambda s: s.state2[0]._history.pop(min(s.state2[0]._history)),
        lambda s: s.state1[0]._received.pop(min(s.state1[0]._received)),
        lambda s: next(r for c in s.state1 + s.state2 for r in c._records if r).clear(),
        lambda s: s._sent2[0].clear(),
        lambda s: next(bucket for bucket in s._due.values() if len(bucket) > 1).popitem(),
    )
    for i, poke in enumerate(pokes):
        twin = state.fork()
        poke(twin)
        assert twin.pipeline() != state.pipeline(), i
    twin = state.fork()
    twin.deliveries.clear()
    twin.violations.append(None)
    assert twin.pipeline() == state.pipeline()


# codes whose runs are pinned: NET_A oswdf, NET_B's initial oswdf plan (a
# zero-pinned hop-1 slot), NET_A mwdf matched to oswdf (one relabel delay,
# budgets below the network's) and NET_A cswdf with two symbols dropped, so
# both hops carry zero-pinned slots
def pinned_runtime_codes():
    yield "A-oswdf", oswdf_optimize(NET_A)
    yield "B-oswdf", oswdf_initial(NET_B)
    yield "A-mwdf", mwdf_plan(NET_A, match=oswdf_optimize(NET_A))
    alloc = cswdf_plan(NET_A)[1]
    yield "A-cswdf", dataclasses.replace(alloc, k2=(alloc.k2[0] - 2,) + alloc.k2[1:])


# sha256 of (deliveries, violations), list order included, per code and
# erasure set: one burst of each link's budget, then one of budget + 2
RUNTIME_DIGESTS = {
    ("A-oswdf", 0): "9067ffb60dbcaa8729d714ecbe6dbb9dc4fdbfe58689b97095fc84696fd5f6b3",
    ("A-oswdf", 2): "02ce2d5e4ce8492aaa3ca680bd6d6f61b14f24c833e497c3df4e6cd9a137d56a",
    ("B-oswdf", 0): "e3675e9022401be04f7291d7ef71477506f43fd1f1efd5defbc7e7e5d252a466",
    ("B-oswdf", 2): "79b8764e4c75c63584247dc4058747cf577f15c6fbafa6b6495572aa837bc16a",
    ("A-mwdf", 0): "2655ada9932060021f1408d544bca6a96d4d87131a4f9162ce30a03544a147ee",
    ("A-mwdf", 2): "6ad3e7de89cfa2bc3849f537c621a259dc1a4a1bd17749873c84e66e8d7184ff",
    ("A-cswdf", 0): "c000678da82d4a4977551cad8b44f98481e89edcd4031590c85faf292ba048f5",
    ("A-cswdf", 2): "4f2a788f7092b5a7db6c8813fd58726f0dfe31269817c68fe4d612b7aa9d3f98",
}


def test_run_network_outputs_are_pinned():
    digests = {}
    for name, alloc in pinned_runtime_codes():
        code = assemble(alloc)
        packets = lcg_packets(12, code.k)
        for over in (0, 2):
            lost1 = [set(range(3, 3 + N + over)) for N in alloc.budgets1]
            lost2 = [set(range(6, 6 + N + over)) for N in alloc.budgets2]
            state = run_network(code, packets, lost1, lost2)
            assert bool(state.violations) == bool(over), (name, over)
            rows = (
                [(d.src_time, d.sym, d.value, d.at) for d in state.deliveries],
                [(v.src_time, v.sym, v.at) for v in state.violations],
            )
            digests[name, over] = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digests == RUNTIME_DIGESTS


def test_forwarded_rows_and_violations_match_symbol_by_symbol_oracle():
    # every step's forwarded rows and the whole violation list, in order,
    # against a relay built route by route, under hop-1 erasures past the
    # budget that often start in the first slots, where a row gathered
    # after a violation still carries pre-stream symbols; NET_A mwdf
    # relaying at -3 forwards symbols of slots not yet sent
    mid = NetworkConfig(T=20, N1=(3, 5, 7), N2=(2, 4, 6))
    delayed = NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,), dT2=(1,))
    early = dataclasses.replace(mwdf_plan(NET_A, match=oswdf_optimize(NET_A)), relabel_delay=-3)
    codes = [
        *pinned_runtime_codes(),
        ("MID-oswdf", oswdf_optimize(mid)),
        ("delayed", oswdf_optimize(delayed)),
        ("A-mwdf-early", early),
    ]
    rng = random.Random(22)
    violations = pre_stream = unsent = 0
    groups = collections.defaultdict(set)  # (code, trial, at, hop-2 link) -> relay delays noted
    for name, alloc in codes:
        code = assemble(alloc)
        cfg = alloc.config
        until = 8 + code.span + cfg.T
        latest = {}  # hop-2 link -> largest relay delay on it
        for r in code.routes:
            latest[r.link2] = max(latest.get(r.link2, 0), r.relay_delay)
        for trial in range(1 if name == "MID-oswdf" else 8):
            packets = lcg_packets(8, code.k, seed=trial)
            eps = rng.choice([0.05, 0.2, 0.5])
            lost1 = [
                set(range(rng.randint(0, N + 2))) | {x for x in range(until) if rng.random() < eps}
                for N in alloc.budgets1
            ]
            lost2 = [{x for x in range(until) if rng.random() < eps} for _ in alloc.budgets2]
            arrive1 = [{x + dt for x in lost} for dt, lost in zip(cfg.dT1, lost1)]
            arrive2 = [{x + dt for x in lost} for dt, lost in zip(cfg.dT2, lost2)]
            state = NetworkState(code)
            rows = [
                state.step(packets[t] if t < len(packets) else [0] * code.k,
                           [t in a for a in arrive1], [t in a for a in arrive2])
                for t in range(until)
            ]
            want_rows, want_violations = relay_rows_by_symbol(code, packets, lost1, until)
            assert rows == want_rows, (name, trial)
            assert [(v.src_time, v.sym, v.at) for v in state.violations] == want_violations, (name, trial)
            violations += len(want_violations)
            pre_stream += sum(at < latest[code.routes[sym].link2] for _, sym, at in want_violations)
            unsent += sum(src_t > at for src_t, _, at in want_violations)
            for src_t, sym, at in want_violations:
                groups[name, trial, at, code.routes[sym].link2].add(at - src_t)
    # some row notes violations of two relay delays at once
    assert violations and pre_stream and unsent, (violations, pre_stream, unsent)
    assert max(map(len, groups.values())) >= 2


def test_relay_holds_only_what_it_has_yet_to_send():
    # the relay files each recovery under its forward time and drops one
    # already past, so after every step it holds at most one bucket per
    # slot up to the largest relay delay ahead, however many symbols hop 1
    # recovers late or never; NET_A mwdf relaying at -3 holds none. The
    # mid-size network is planned mwdf: its oswdf code carries 8 826 symbols
    mid = NetworkConfig(T=20, N1=(3, 5, 7), N2=(2, 4, 6))
    mwdf = mwdf_plan(NET_A, match=oswdf_optimize(NET_A))
    allocs = [
        oswdf_optimize(NET_A),
        mwdf,
        mwdf_plan(mid),
        dataclasses.replace(mwdf, relabel_delay=-3),
    ]
    rng = random.Random(24)
    until = 2000
    for alloc in allocs:
        code = assemble(alloc)
        reach = max(0, max(r.relay_delay for r in code.routes))
        lost1, lost2 = (
            [{x for x in range(until) if rng.random() < 0.2} for _ in hop]
            for hop in (code.hop1, code.hop2)
        )
        state = NetworkState(code)
        for _ in state.steps(lcg_packets(until, code.k), lost1, lost2, until):
            assert len(state._due) <= reach, (alloc.config, state.time)
        assert state.violations, alloc.config
