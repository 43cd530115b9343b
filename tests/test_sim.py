"""Verification and Monte Carlo machinery.

The heart of this file is the pair of equivalence tests: the vectorized
recovery rule against the real decoder, exhaustively over small patterns,
and the vectorized network loss mask against the full source-relay-
destination pipeline on random erasures. Everything else leans on those.
"""

import itertools
import random

import numpy as np
import pytest

from relaystream.channels import GeParams
from relaystream.codes import CodecState, build_grouped_code, decode_step, encode_step
from relaystream.planner import (
    Allocation,
    NetworkConfig,
    cswdf_plan,
    mwdf_plan,
    oswdf_initial,
)
from relaystream.relay import assemble, run_network
from relaystream.sim import (
    INF_DELAY,
    ChannelSpec,
    FailureWitness,
    component_worst_delays,
    loss_mask,
    measure_spectrum,
    replay_witness,
    run_ensemble,
    run_monte_carlo,
    verify_adversarial,
    _slot_delay_table,
)
from relaystream.spectrum import DelayGrouping

NET_A = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
NET_B = NetworkConfig(T=4, N1=(1,), N2=(3, 2))


# ---------------------------------------------------------------------------
# exact measurement vs the real decoder
# ---------------------------------------------------------------------------


def test_component_worst_delays_diagonal():
    worst, args = component_worst_delays(5, 3, 2)
    assert worst == (4, 3, 2)
    # each achieving pattern erases the symbol's own position
    for j, pattern in enumerate(args, start=1):
        assert j - 1 in pattern


def test_measured_spectrum_matches_declared():
    cases = [
        (5, 2, ((4, 1), (3, 1), (2, 1))),
        (12, 1, ((2, 4), (1, 4))),
        (40, 2, ((3, 7), (2, 11))),
        (5, 3, ((4, 1), (3, 1))),
    ]
    for n, N, grouping in cases:
        spec = build_grouped_code(n, N, DelayGrouping.from_pairs(grouping))
        assert measure_spectrum(spec) == DelayGrouping.from_pairs(grouping)


def codec_slot_delays(spec, erased, num_eval):
    """Drive the real encoder/decoder over one link and record, for every
    message slot of every packet, how long the decoder took."""
    enc, dec = CodecState(spec), CodecState(spec)
    horizon = len(erased)
    rng = random.Random(99)
    packets = [[rng.randrange(1, 256) for _ in range(spec.k)] for _ in range(horizon)]
    rec = np.full((spec.k, num_eval), INF_DELAY, dtype=np.int64)
    for t in range(horizon):
        sent = encode_step(enc, packets[t])
        for src_t, slot, value in decode_step(dec, None if erased[t] else sent, t):
            if 0 <= src_t < num_eval:
                assert value == packets[src_t][slot]
                rec[slot, src_t] = min(rec[slot, src_t], t - src_t)
    return rec


@pytest.mark.parametrize(
    "n,N,grouping,window",
    [
        (5, 2, ((4, 1), (3, 1), (2, 1)), 9),
        (8, 2, ((3, 2), (2, 2)), 7),
        (12, 1, ((2, 4), (1, 4)), 5),
        (5, 3, ((4, 1), (3, 1)), 8),
    ],
)
def test_fast_rule_matches_codec_exhaustively(n, N, grouping, window):
    spec = build_grouped_code(n, N, DelayGrouping.from_pairs(grouping))
    num_eval = window + 2
    horizon = num_eval + spec.span + max(spec.slot_delays) + 2
    for times in itertools.combinations(range(window), N):
        erased = np.zeros(horizon, dtype=bool)
        erased[list(times)] = True
        fast = _slot_delay_table(spec, erased, num_eval)
        slow = codec_slot_delays(spec, erased, num_eval)
        assert np.array_equal(fast.astype(np.int64), slow), times


# ---------------------------------------------------------------------------
# adversarial verification
# ---------------------------------------------------------------------------


def test_verify_passes_reference_network():
    code = assemble(oswdf_initial(NET_A))
    report = verify_adversarial(code)
    assert report.ok and report.exhaustive
    assert report.checked_patterns > 0
    assert report.failure is None


def test_verify_fails_at_tighter_deadline():
    code = assemble(oswdf_initial(NET_A))
    tight = NetworkConfig(T=4, N1=NET_A.N1, N2=NET_A.N2)
    report = verify_adversarial(code, config=tight)
    assert not report.ok
    w = report.failure
    assert isinstance(w, FailureWitness)
    assert w.required_delay == 4
    # the witness replays: the symbol really arrives a full slot late
    assert w.actual_delay == 5
    assert replay_witness(code, w) == 5
    assert any(w.erasures1) and any(w.erasures2)


def test_verify_single_link_cross_product():
    cfg = NetworkConfig(T=5, N1=(2,), N2=(1,))
    code = assemble(oswdf_initial(cfg))
    report = verify_adversarial(code, window=7)
    assert report.ok and report.exhaustive


def test_verify_reports_per_link_violation(monkeypatch):
    code = assemble(oswdf_initial(NET_B))
    real = component_worst_delays

    def inflated(n_c, k_c, budget):
        worst, args = real(n_c, k_c, budget)
        return tuple(d + 1 for d in worst), args

    import relaystream.sim as sim_mod

    monkeypatch.setattr(sim_mod, "component_worst_delays", inflated)
    report = verify_adversarial(code)
    assert not report.ok
    assert "declared" in report.detail
    assert report.failure is not None and report.failure.sym >= 0


def test_verify_sampled_fallback_on_long_components():
    # a 32-slot component exceeds the enumeration guard; split hop 2 over
    # two links to keep the check per-link only
    cfg = NetworkConfig(T=35, N1=(1,), N2=(1, 1))
    alloc = Allocation(
        scheme="oswdf",
        config=cfg,
        n1=(40,),
        n2=(40, 40),
        k1=(31,),
        k2=(16, 15),
        groupings1=(DelayGrouping.from_pairs([(d, 1) for d in range(31, 0, -1)]),),
        groupings2=(
            DelayGrouping.from_pairs([(1, 16)]),
            DelayGrouping.from_pairs([(1, 15)]),
        ),
    )
    code = assemble(alloc)
    report = verify_adversarial(code, sample_patterns=300)
    assert report.ok
    assert not report.exhaustive


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_clear_channels_lose_nothing():
    for cfg in (NET_A, NET_B):
        code = assemble(oswdf_initial(cfg))
        res = run_monte_carlo(code, ChannelSpec("clear"), 400, seed=3)
        assert res.lost == 0 and res.loss_rate == 0.0
        assert res.packets == 400


def test_dead_link_loses_everything():
    code = assemble(oswdf_initial(NET_A))
    links = len(code.hop1) + len(code.hop2)
    per_link = [ChannelSpec("clear")] * links
    per_link[0] = ChannelSpec("iid", eps=1.0)
    res = run_monte_carlo(code, per_link, 200, seed=3)
    assert res.lost == 200


def test_monte_carlo_deterministic():
    code = assemble(oswdf_initial(NET_B))
    a = run_monte_carlo(code, ChannelSpec("iid", eps=0.05), 2000, seed=11)
    b = run_monte_carlo(code, ChannelSpec("iid", eps=0.05), 2000, seed=11)
    c = run_monte_carlo(code, ChannelSpec("iid", eps=0.05), 2000, seed=12)
    assert a.lost == b.lost
    assert a.lost != c.lost
    assert 0 < a.loss_rate < 1


def test_ge_channel_runs_deterministically():
    code = assemble(oswdf_initial(NET_B))
    ge = ChannelSpec("ge", ge=GeParams(alpha=0.05, beta=0.4, eps=0.01))
    a = run_monte_carlo(code, ge, 3000, seed=5)
    b = run_monte_carlo(code, ge, 3000, seed=5)
    assert a.lost == b.lost
    assert a.channel["channel"] == "ge"


def repair_to_budget(bits, span, budget):
    """Drop erasures until every span-length window holds at most budget."""
    out = np.zeros_like(bits)
    kept = []
    for t in np.flatnonzero(bits):
        kept = [u for u in kept if u > t - span]
        if len(kept) < budget:
            out[t] = True
            kept.append(int(t))
    return out


@pytest.mark.parametrize("make", [
    lambda: oswdf_initial(NET_A),
    lambda: oswdf_initial(NET_B),
    lambda: cswdf_plan(NET_A)[1],
    lambda: mwdf_plan(NET_A),
])
def test_budget_respecting_erasures_lose_nothing(make):
    alloc = make()
    code = assemble(alloc)
    cfg = alloc.config
    num = 600
    span = max(c.span for c in code.hop1 + code.hop2)
    horizon = num + span + cfg.T + 2
    rng = np.random.default_rng(77)
    bits1 = [
        repair_to_budget(rng.random(horizon) < 0.25, spec.span, cfg.N1[i])
        for i, spec in enumerate(code.hop1)
    ]
    bits2 = [
        repair_to_budget(rng.random(horizon) < 0.25, spec.span, cfg.N2[j])
        for j, spec in enumerate(code.hop2)
    ]
    assert any(b.any() for b in bits1 + bits2)
    assert not loss_mask(code, bits1, bits2, num).any()


@pytest.mark.parametrize("cfg,num,eps", [
    (NET_B, 80, 0.18),
    (NET_A, 50, 0.1),
    (NetworkConfig(T=6, N1=(1, 2), N2=(1,), dT1=(0, 1), dT2=(1,)), 60, 0.12),
])
def test_loss_mask_matches_full_pipeline(cfg, num, eps):
    code = assemble(oswdf_initial(cfg))
    span = max(c.span for c in code.hop1 + code.hop2)
    horizon = num + span + cfg.T + 2
    rng = np.random.default_rng(123)
    bits1 = [rng.random(horizon) < eps for _ in code.hop1]
    bits2 = [rng.random(horizon) < eps for _ in code.hop2]
    lost = loss_mask(code, bits1, bits2, num)
    assert lost.any() and not lost.all()

    vals = random.Random(5)
    packets = [[vals.randrange(1, 256) for _ in range(code.k)] for _ in range(num)]
    state = run_network(
        code,
        packets,
        [list(map(bool, b)) for b in bits1],
        [list(map(bool, b)) for b in bits2],
    )
    got = {}
    for d in state.deliveries:
        got.setdefault((d.src_time, d.sym), (d.value, d.at))
    for t in range(num):
        intact = all(
            (t, sym) in got
            and got[(t, sym)][0] == packets[t][sym]
            and got[(t, sym)][1] <= t + cfg.T
            for sym in range(code.k)
        )
        assert intact == (not lost[t]), f"packet {t}"


def test_zero_packets():
    code = assemble(oswdf_initial(NET_B))
    res = run_monte_carlo(code, ChannelSpec("clear"), 0, seed=1)
    assert res.packets == 0 and res.lost == 0 and res.loss_rate == 0.0


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelSpec("bogus").sample(10, 1)
    code = assemble(oswdf_initial(NET_B))
    with pytest.raises(ValueError):
        run_monte_carlo(code, [ChannelSpec("clear")], 10, seed=1)


# ---------------------------------------------------------------------------
# planner ensemble
# ---------------------------------------------------------------------------


def test_ensemble_dominance_and_determinism():
    rows = run_ensemble(seed=7, trials=40)
    assert len(rows) == 40
    for r in rows:
        assert r.oswdf >= max(r.mwdf, r.cswdf), r.config
        assert r.oswdf <= r.upper, r.config
    again = run_ensemble(seed=7, trials=40)
    assert [(r.config, r.oswdf) for r in rows] == [(r.config, r.oswdf) for r in again]


def test_ensemble_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_ensemble(seed=1, trials=0)
