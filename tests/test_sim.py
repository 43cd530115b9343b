"""Verification and Monte Carlo machinery.

The heart of this file is the pair of equivalence tests: the vectorized
recovery rule against the real decoder, exhaustively over small patterns,
and the vectorized network loss mask against the full source-relay-
destination pipeline on random erasures. Everything else leans on those.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import relaystream.sim as sim_mod
from relaystream.channels import GeParams
from relaystream.cli import main
from relaystream.codes import CodecState, build_grouped_code, decode_step, encode_step
from relaystream.gf import make_mds
from relaystream.planner import (
    Allocation,
    NetworkConfig,
    cswdf_plan,
    mwdf_plan,
    oswdf_initial,
    oswdf_optimize,
    t_min,
)
from relaystream.relay import assemble, run_network
from relaystream.sim import (
    INF_DELAY,
    ChannelSpec,
    FailureWitness,
    component_worst_delays,
    loss_mask,
    replay_witness,
    run_ensemble,
    run_monte_carlo,
    sample_config,
    verify_adversarial,
)
from relaystream.spectrum import DelayGrouping

from oracles import (
    check_links_per_slot,
    component_worst_delays_by_enumeration,
    cross_product_from_zero,
    dense_loss_mask,
    joint_replay_misses,
    measure_spectrum,
    replay_witness_full_horizon,
    route_classes_by_sort,
    slot_delay_table,
)
from test_planner import digest_configs

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


def test_component_worst_delays_matches_enumeration():
    # the closed form against every budget-sized pattern, worst delays and
    # first achieving patterns both
    shapes = [(n, k, b) for n in range(13) for k in range(n + 1) for b in range(n + 2)]
    for shape in shapes + [(31, 30, 1), (40, 38, 2)]:
        assert component_worst_delays(*shape) == component_worst_delays_by_enumeration(*shape), shape


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
        fast = slot_delay_table(spec, erased, num_eval)
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
    report = verify_adversarial(code)
    assert report.ok and report.exhaustive


def test_verify_counts_every_joint_pair_of_a_1x1_network(tmp_path, capsys):
    # the joint pairs are counted, not replayed, so a 1x1 network with
    # hundreds of them reports every one, exhaustive: C(6, 2) = 15 hop-1
    # by C(7, 3) = 35 hop-2 patterns here, after 28 per-link ones
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"T": 6, "N1": [2], "N2": [3], "dT1": [1], "dT2": [0]}))
    doc = str(tmp_path / "alloc.json")
    assert main(["plan", "--config", str(config_path), "--scheme", "oswdf", "--out", doc]) == 0
    capsys.readouterr()
    assert main(["verify", doc]) == 0
    out = capsys.readouterr().out
    assert out.endswith("553 patterns checked, exhaustive\n"), out


# the 1x1 shapes of the audit benchmark: (N1, N2, dT1, dT2, T - t_min)
AUDIT_1X1 = (
    ((1,), (1,), (0,), (0,), 0),
    ((1,), (1,), (0,), (1,), 0),
    ((1,), (1,), (0,), (0,), 1),
    ((1,), (2,), (0,), (0,), 0),
    ((1,), (2,), (1,), (0,), 0),
    ((2,), (1,), (0,), (1,), 0),
    ((2,), (2,), (0,), (0,), 0),
    ((1,), (3,), (0,), (0,), 0),
    ((3,), (1,), (0,), (0,), 0),
)


# 1x1 mwdf networks (N1, N2, dT1, dT2, T) whose relabel delay is then
# lowered: the relay forwards rows before hop 1 may recover them, so verify
# fails them on route timing and some joint pattern pair misses a deadline
MISTIMED_1X1 = (
    ((2,), (1,), (0,), (0,), 4),
    ((3,), (1,), (0,), (0,), 5),
    ((2,), (2,), (0,), (0,), 5),
    ((2,), (1,), (0,), (1,), 5),
)


def mistimed(alloc, lower):
    # the allocation relaying lower slots earlier than planned
    return assemble(dataclasses.replace(alloc, relabel_delay=alloc.relabel_delay - lower))


def witness_cases():
    # every scheme on the audit shapes: the route witnesses of verify at
    # T - 1, and the per-link witnesses with each hop's budgets raised by
    # one over the code's; then the mistimed 1x1 codes' own witnesses
    for n1, n2, dt1, dt2, extra in AUDIT_1X1 + AUDIT_MULTI:
        cfg = NetworkConfig(T=1, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cfg = dataclasses.replace(cfg, T=t_min(cfg) + extra)
        for scheme, plan in SCHEMES.items():
            code = assemble(plan(cfg))
            for check in (
                dataclasses.replace(cfg, T=cfg.T - 1),
                dataclasses.replace(cfg, N1=tuple(N + 1 for N in n1)),
                dataclasses.replace(cfg, N2=tuple(N + 1 for N in n2)),
            ):
                yield code, verify_adversarial(code, check).failure
    for lower in (1, 2):
        for n1, n2, dt1, dt2, T in MISTIMED_1X1:
            code = mistimed(mwdf_plan(NetworkConfig(T=T, N1=n1, N2=n2, dT1=dt1, dT2=dt2)), lower)
            yield code, verify_adversarial(code).failure


def test_witness_delay_rule_matches_the_full_horizon_replay():
    # the k-th-arrival rule on each hop of the route gives the delay the
    # whole-horizon replay through the runtime reads off its log,
    # including None for symbols that never arrive correctly
    delays = []
    for code, witness in witness_cases():
        if witness is None or witness.sym < 0:
            continue  # the code passes the check, or the slot carries no symbol
        full = replay_witness_full_horizon(code, witness)
        assert witness.actual_delay == replay_witness(code, witness) == full, witness
        delays.append(full)
    assert len(delays) > 150
    assert None in delays and any(d is not None for d in delays)


budgets = st.lists(st.integers(1, 3), min_size=1, max_size=2)


@settings(max_examples=200, deadline=None)
@given(
    n1=budgets,
    n2=budgets,
    slack=st.integers(0, 2),
    scheme=st.sampled_from(["mwdf", "cswdf", "oswdf"]),
    lower=st.integers(0, 2),
    eps=st.floats(0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_witness_delay_rule_matches_the_full_horizon_replay_on_random_witnesses(
    n1, n2, slack, scheme, lower, eps, seed
):
    # random witnesses on 1-2 x 1-2 link networks: i.i.d. erasures on every
    # link, any source time and symbol, and mwdf relaying up to two slots
    # before hop 1 may recover
    rng = random.Random(seed)
    cfg = NetworkConfig(
        T=1,
        N1=tuple(n1),
        N2=tuple(n2),
        dT1=tuple(rng.randint(0, 1) for _ in n1),
        dT2=tuple(rng.randint(0, 1) for _ in n2),
    )
    cfg = dataclasses.replace(cfg, T=t_min(cfg) + slack)
    alloc = SCHEMES[scheme](cfg)
    assume(max(alloc.n1 + alloc.n2) <= 60 and alloc.k > 0)
    code = mistimed(alloc, lower) if scheme == "mwdf" else assemble(alloc)
    src_time = rng.randint(0, code.span + cfg.T + 2)
    horizon = src_time + cfg.T + 2 * code.span + max(cfg.dT1 + cfg.dT2) + 4
    erased = [
        tuple(x for x in range(horizon) if rng.random() < eps)
        for _ in code.hop1 + code.hop2
    ]
    witness = FailureWitness(
        erased[: len(code.hop1)], erased[len(code.hop1) :], src_time, rng.randrange(code.k), cfg.T
    )
    assert replay_witness(code, witness) == replay_witness_full_horizon(code, witness), witness


def test_a_zero_forwarded_on_a_violation_is_no_recovery():
    # hop 1 loses a symbol whose drawn byte is 0: the relay forwards 0 in
    # its place, noting a Violation, and the destination decodes that 0,
    # which equals the drawn byte but is not the symbol arriving
    code = assemble(oswdf_optimize(NET_A))
    span, k = code.span, code.k
    for src_time in itertools.count(span + NET_A.T + 2):
        rng = random.Random(20240 + src_time)  # replay_witness_full_horizon's draws
        row = [[rng.randrange(256) for _ in range(k)] for _ in range(src_time + 1)][-1]
        if 0 in row:
            break
    sym = row.index(0)
    burst = tuple(range(src_time - span, src_time + span + NET_A.T))
    erasures1 = tuple(burst if link == code.routes[sym].link1 else () for link in range(len(code.hop1)))
    witness = FailureWitness(erasures1, ((),) * len(code.hop2), src_time, sym, NET_A.T)
    state = run_network(code, [[0] * k] * (src_time + 1), erasures1)
    assert any((v.src_time, v.sym) == (src_time, sym) for v in state.violations)
    assert any((d.src_time, d.sym, d.value) == (src_time, sym, 0) for d in state.deliveries)
    assert replay_witness(code, witness) is None
    assert replay_witness_full_horizon(code, witness) is None


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


def test_verify_exact_on_long_components():
    # a 32-slot component is checked exactly, like short ones; hop 2 is
    # split over two links to keep the check per-link only
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
    report = verify_adversarial(code)
    assert report.ok
    assert report.exhaustive
    assert report.checked_patterns == 94


def golden_configs():
    # 1-2 links per hop, budgets 1-3, delays 0-1, T = t_min or t_min + 1
    rng = random.Random(3)
    for _ in range(4):
        l1, l2 = rng.randint(1, 2), rng.randint(1, 2)
        N1 = [rng.randint(1, 3) for _ in range(l1)]
        N2 = [rng.randint(1, 3) for _ in range(l2)]
        dT1 = [rng.randint(0, 1) for _ in range(l1)]
        dT2 = [rng.randint(0, 1) for _ in range(l2)]
        tmin = t_min(NetworkConfig(T=1, N1=tuple(N1), N2=tuple(N2), dT1=tuple(dT1), dT2=tuple(dT2)))
        yield {"T": tmin + rng.randint(0, 1), "N1": N1, "N2": N2, "dT1": dT1, "dT2": dT2}
    # raised to N1 = [2], its mwdf plan's hop-1 slot 0 never recovers
    yield {"T": 4, "N1": [1], "N2": [1]}
    # components longer than 30 slots
    yield {"T": 33, "N1": [1, 1], "N2": [1]}


# one sha256 per golden config, keyed by its document
VERIFY_DIGESTS = {
    '{"T": 6, "N1": [2], "N2": [3], "dT1": [1], "dT2": [0]}':
        "fb275a9fd67c888417098b6e513f83735df208445132c352ebcc89a7eecb2c74",
    '{"T": 6, "N1": [3, 1], "N2": [1, 3], "dT1": [1, 1], "dT2": [1, 0]}':
        "9e233f35976ee54e96139959e39dd20d6ef444ce032cc3659b942d9cf44b8826",
    '{"T": 7, "N1": [3], "N2": [1, 3], "dT1": [0], "dT2": [0, 0]}':
        "5c3b0adf37e3f9520ec694967c1b8cafb751bfdf0751490037eff97ba3aef23a",
    '{"T": 8, "N1": [2], "N2": [3, 3], "dT1": [1], "dT2": [1, 1]}':
        "c768d7a20661e6c76c279289405b126f88b8320bdf6188e8a299b2df7a03d626",
    '{"T": 4, "N1": [1], "N2": [1]}':
        "2e5fb0fd36674c515440dcdf40a1f7dc08448e6e1d0c10b6a7c828c735bf24c3",
    '{"T": 33, "N1": [1, 1], "N2": [1]}':
        "02e413e79a81f2f69b1f5c304fa0f8560bd2b07af5eb72d26473494594c16ac5",
}


def test_verify_outputs_are_pinned(tmp_path, capsys):
    # exit code, stdout and stderr of plan, then verify at T and T-1, for
    # every scheme: PASS lines (with the 1x1 joint pairs counted) and
    # route witnesses. With each hop-1 budget raised by one over the
    # code's, verify gives per-link witnesses, pinned from their second
    # line.
    digests = {}

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for i, config in enumerate(golden_configs()):
        digest = hashlib.sha256()
        config_path = tmp_path / f"c{i}.json"
        config_path.write_text(json.dumps(config))
        for scheme in ("mwdf", "cswdf", "oswdf"):
            planned = run(["plan", "--config", str(config_path), "--scheme", scheme])
            digest.update(repr(planned).encode())
            if planned[0]:
                continue
            doc_path = tmp_path / f"{i}-{scheme}.json"
            doc_path.write_text(planned[1])
            for T in (config["T"], config["T"] - 1):
                digest.update(repr(run(["verify", str(doc_path), "--deadline", str(T)])).encode())
            doc = json.loads(planned[1])
            doc["config"]["N1"] = [N + 1 for N in config["N1"]]
            for entry, N in zip(doc["hop1"], config["N1"]):
                entry["budget"] = N
            doc_path.write_text(json.dumps(doc))
            code, out, err = run(["verify", str(doc_path)])
            assert code == 1 and err.startswith("FAIL: hop-1 link ")
            digest.update(repr((out, err.splitlines()[1:])).encode())
        digests[json.dumps(config)] = digest.hexdigest()

    assert digests == VERIFY_DIGESTS


def link_check_cases():
    # every scheme on the audit shapes, at T and at T - 1
    for n1, n2, dt1, dt2, extra in AUDIT_1X1 + AUDIT_MULTI:
        cfg = NetworkConfig(T=1, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cfg = dataclasses.replace(cfg, T=t_min(cfg) + extra)
        for scheme, plan in SCHEMES.items():
            code = assemble(plan(cfg))
            for T in (cfg.T, cfg.T - 1):
                yield f"{cfg}-{scheme}-T{T}", code, dataclasses.replace(cfg, T=T)
    # matched mwdf codes, whose design budgets below N fail per link; on
    # the last one only hop-2 link 1 is lowered, so passing runs come first
    for cfg in (NET_A, NetworkConfig(T=6, N1=(3,), N2=(3, 2)), NetworkConfig(T=5, N1=(3,), N2=(1, 2))):
        yield f"{cfg}-matched", assemble(mwdf_plan(cfg, match=oswdf_optimize(cfg))), cfg
    code = assemble(oswdf_optimize(NET_A))
    # hop-1 link 0 built for one erasure less: its runs have n - k > N, so
    # the check fails with a finite delay
    spec = code.hop1[0]
    hop1 = (dataclasses.replace(spec, N=spec.N - 1),) + code.hop1[1:]
    yield "finite", dataclasses.replace(code, hop1=hop1), NET_A
    # hop-2 link 1's second run one slot short (n - k < N): the link's
    # first run passes and its second never recovers
    spec = code.hop2[1]
    head, (comp, count) = spec.runs
    short = dataclasses.replace(spec, runs=(head, (make_mds(comp.n - 1, comp.k), count)), n=spec.n - count)
    yield "second run", dataclasses.replace(code, hop2=(code.hop2[0], short)), NET_A


def test_link_check_matches_per_slot_oracle(monkeypatch):
    # one comparison per run gives the report (verdict, detail, pattern
    # count, witness and its replayed delay) that checking every slot does
    details = {}
    for name, code, config in link_check_cases():
        fast = verify_adversarial(code, config)
        with monkeypatch.context() as patch:
            patch.setattr(sim_mod, "_check_links", check_links_per_slot)
            slow = verify_adversarial(code, config)
        assert fast == slow, name
        details[name] = fast.detail
    # the hand-built inputs reach the branches they were built for
    assert details["finite"] == "hop-1 link 0 slot 0 recovers in 4 slots, declared 3"
    assert details["second run"] == "hop-2 link 1 slot 14 never recovers, declared 2"
    matched = [detail for name, detail in details.items() if name.endswith("matched")]
    assert matched[-1] == "hop-2 link 1 slot 0 never recovers, declared 1"
    assert all(" never recovers, declared " in detail for detail in matched)


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


def test_channel_description_per_link():
    code = assemble(oswdf_initial(NET_A))
    links = len(code.hop1) + len(code.hop2)
    iid = ChannelSpec("iid", eps=0.01)
    ge = ChannelSpec("ge", ge=GeParams(alpha=0.05, beta=0.4, eps=0.01))
    same = run_monte_carlo(code, [iid] * links, 500, seed=2)
    assert same.channel == iid.describe()
    mixed = [iid] * links
    mixed[-1] = ge
    res = run_monte_carlo(code, mixed, 500, seed=2)
    assert res.channel == {
        "channel": "per-link", "eps": "", "alpha": "", "beta": "",
        "links": [spec.describe() for spec in mixed],
    }
    assert res.channel["links"][0]["channel"] == "iid"
    assert res.channel["links"][-1]["channel"] == "ge"


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
        [set(np.flatnonzero(b).tolist()) for b in bits1],
        [set(np.flatnonzero(b).tolist()) for b in bits2],
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


@pytest.mark.parametrize("T", (50, INF_DELAY + 10))
def test_loss_mask_never_recovered_is_lost_at_any_deadline(T):
    # a (2, 1) code per hop with budget 1: hop-2 erasures at 5-7 leave
    # packets 4 and 5 unrecovered for good, however long the deadline
    grouping = DelayGrouping.from_pairs([(1, 1)])
    cfg = NetworkConfig(T=T, N1=(1,), N2=(1,))
    code = assemble(Allocation("oswdf", cfg, (2,), (2,), (1,), (1,), (grouping,), (grouping,)))
    bits1 = [np.zeros(30, dtype=bool)]
    bits2 = [np.zeros(30, dtype=bool)]
    bits2[0][5:8] = True
    assert np.flatnonzero(loss_mask(code, bits1, bits2, 20)).tolist() == [4, 5]


# the other shapes of the audit benchmark, with two links on a hop
AUDIT_MULTI = (
    ((1,), (1, 2), (0,), (0, 1), 1),
    ((2,), (2, 3), (0,), (0, 0), 2),
    ((3,), (1, 2), (0,), (0, 0), 1),
    ((1, 2), (1,), (0, 0), (1,), 2),
    ((1, 2), (1,), (0, 1), (0,), 0),
    ((1, 2), (3,), (0, 0), (0,), 0),
    ((2, 3), (1, 2), (0, 0), (0, 0), 1),
    ((1, 2), (2, 3), (0, 0), (0, 1), 1),
    ((1, 2), (1, 2), (0, 0), (0, 1), 0),
    ((3, 1), (1, 3), (1, 0), (0, 0), 0),
)
SCHEMES = {
    "mwdf": mwdf_plan,
    "cswdf": lambda cfg: cswdf_plan(cfg)[1],
    "oswdf": oswdf_optimize,
}


def test_multi_link_codes_that_verify_meet_the_deadline_under_joint_patterns():
    # verify checks a multi-link code link by link, with no joint replay;
    # random within-budget patterns on every link at once, replayed through
    # the runtime, miss nothing on the codes it passes, and do miss once
    # mwdf relays one or two slots before hop 1 may recover
    rng = random.Random(23)
    for n1, n2, dt1, dt2, extra in AUDIT_MULTI:
        cfg = NetworkConfig(T=1, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cfg = dataclasses.replace(cfg, T=t_min(cfg) + extra)
        for scheme, plan in SCHEMES.items():
            code = assemble(plan(cfg))
            assert verify_adversarial(code).ok, (cfg, scheme)
            assert joint_replay_misses(code, rng, 20) == 0, (cfg, scheme)
        for lower in (1, 2):
            early = mistimed(mwdf_plan(cfg), lower)
            assert not verify_adversarial(early).ok, (cfg, lower)
            assert joint_replay_misses(early, rng, 20), (cfg, lower)


def verdict_cases():
    # each audit 1x1 shape, then each mistimed shape at both lowerings
    for shape in AUDIT_1X1:
        yield pytest.param(shape, 0, id=str(shape))
    for lower in (1, 2):
        for shape in MISTIMED_1X1:
            yield pytest.param(shape, lower, id=f"{shape}-lowered{lower}")


@pytest.mark.parametrize("shape,lower", verdict_cases())
def test_verify_verdict_matches_joint_replay_from_zero(shape, lower):
    # verify passes exactly when rerunning every joint pair from time 0
    # finds no witness: every scheme on an audit 1x1 shape, at the planned
    # deadline and one slot tighter, and a mistimed code at its own, which
    # both fail
    n1, n2, dt1, dt2, last = shape
    if lower:
        cfg = NetworkConfig(T=last, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cases = [(mistimed(mwdf_plan(cfg), lower), cfg)]
    else:
        cfg = NetworkConfig(T=n1[0] + dt1[0] + n2[0] + dt2[0] + last, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cases = [
            (assemble(plan(cfg)), dataclasses.replace(cfg, T=T))
            for plan in SCHEMES.values()
            for T in (cfg.T, cfg.T - 1)
        ]
    for code, check in cases:
        witness = cross_product_from_zero(code, check, random.Random(check.T))[0]
        assert verify_adversarial(code, check).ok == (witness is None), (code.allocation.scheme, check.T)
        assert witness is not None or not lower


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_verdict_matches_joint_replays_on_small_documents(data):
    # 1x1 and 2x2 documents with budgets 0-2 and delays 0-1, planned by any
    # scheme at t_min to t_min + 2, mwdf relaying up to two slots early: on
    # 1x1, verify passes exactly when no joint pair rerun from time 0
    # misses a deadline; on 2x2, random joint patterns on every link miss
    # nothing where verify passes
    links = data.draw(st.sampled_from((1, 2)))

    def per_link(values):
        return data.draw(st.lists(values, min_size=links, max_size=links).map(tuple))

    cfg = NetworkConfig(T=1, N1=per_link(st.integers(0, 2)), N2=per_link(st.integers(0, 2)),
                        dT1=per_link(st.integers(0, 1)), dT2=per_link(st.integers(0, 1)))
    cfg = dataclasses.replace(cfg, T=max(1, t_min(cfg)) + data.draw(st.integers(0, 2)))
    scheme = data.draw(st.sampled_from(sorted(SCHEMES)))
    alloc = SCHEMES[scheme](cfg)
    assume(alloc.n <= 60)  # some small networks plan oswdf codes 10^5 slots wide
    lower = data.draw(st.integers(0, 2)) if scheme == "mwdf" else 0
    code = mistimed(alloc, lower) if lower else assemble(alloc)
    ok = verify_adversarial(code).ok
    if links == 2:
        assert not ok or joint_replay_misses(code, random.Random(0), 10) == 0
        return
    pairs = 1
    for spec, budget in ((code.hop1[0], cfg.N1[0]), (code.hop2[0], cfg.N2[0])):
        window = spec.span + max(spec.slot_delays, default=0)
        pairs *= math.comb(window, min(budget, window))
    assume(pairs <= 100)
    assert ok == (cross_product_from_zero(code, cfg, random.Random(0))[0] is None)


def loss_mask_plans():
    # the loss-curve codes (NET_A oswdf, mwdf matched to it, the mid-size
    # network), every scheme on the audit shapes, and cswdf on ensemble
    # networks
    mid = NetworkConfig(T=20, N1=(3, 5, 7), N2=(2, 4, 6))
    yield "A-oswdf", lambda: oswdf_optimize(NET_A)
    yield "A-mwdf", lambda: mwdf_plan(NET_A, match=oswdf_optimize(NET_A))
    yield "MID-oswdf", lambda: oswdf_optimize(mid)
    for i, (n1, n2, dt1, dt2, extra) in enumerate(AUDIT_1X1 + AUDIT_MULTI):
        cfg = NetworkConfig(T=1, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        cfg = dataclasses.replace(cfg, T=t_min(cfg) + extra)
        for scheme, plan in SCHEMES.items():
            yield f"shape{i}-{scheme}", lambda cfg=cfg, plan=plan: plan(cfg)
    rng = random.Random(3)
    for i in range(8):
        cfg = sample_config(rng)
        yield f"ensemble{i}-cswdf", lambda cfg=cfg: cswdf_plan(cfg)[1]


def assert_classes_match_oracle(code):
    # the classes equal the sorted-rows oracle's as sets, with no class
    # listed twice
    for got, want in zip(code.classes, route_classes_by_sort(code)):
        assert len(set(got)) == len(got)
        assert set(got) == set(map(tuple, want))


def class_codes():
    # the loss-mask plans, NET_B, cswdf with two hop-2 symbols dropped
    # (zero-pinned slots on both hops), and every plan that assembles of
    # the planner-digest networks up to n = 2000 and of a seeded ensemble
    # sample up to n = 20 000
    for _, plan in loss_mask_plans():
        yield assemble(plan())
    yield assemble(oswdf_optimize(NET_B))
    alloc = cswdf_plan(NET_A)[1]
    yield assemble(dataclasses.replace(alloc, k2=(alloc.k2[0] - 2,) + alloc.k2[1:]))
    rng = random.Random(18)
    for cfgs, limit in ((digest_configs(), 2000), ([sample_config(rng) for _ in range(8)], 20_000)):
        for cfg in cfgs:
            for plan in (
                lambda: cswdf_plan(cfg)[1],
                lambda: mwdf_plan(cfg),
                lambda: oswdf_optimize(cfg),
                lambda: mwdf_plan(cfg, match=oswdf_optimize(cfg)),
            ):
                try:
                    alloc = plan()
                    if alloc.n <= limit:
                        yield assemble(alloc)
                except ValueError:
                    pass  # refused plans, and oswdf plans the padding defect breaks


def test_route_classes_match_sorted_oracle():
    count = 0
    for code in class_codes():
        assert_classes_match_oracle(code)
        count += 1
    assert count > 700


def test_replaced_code_derives_its_own_classes():
    # hop-2 link 1's second run one slot shorter: the same routes now sit
    # on (n - 1, k) components, and the copy's classes say so
    code = assemble(oswdf_optimize(NET_A))
    before = code.classes
    spec = code.hop2[1]
    head, (comp, count) = spec.runs
    short = dataclasses.replace(spec, runs=(head, (make_mds(comp.n - 1, comp.k), count)), n=spec.n - count)
    copy = dataclasses.replace(code, hop2=(code.hop2[0], short))
    assert set(copy.classes[0]) == set(before[0]) and set(copy.classes[1]) != set(before[1])
    assert code.classes is before
    assert_classes_match_oracle(copy)


# sha256 per code and channel of the loss_mask bytes and (packets, lost)
# of run_monte_carlo, seeds 3 and 4: NET_A over 5000 packets, MID over 1000
MONTE_CARLO_DIGESTS = {
    ("A-oswdf", "iid-0.01"): "cdf3ccc07a59f2114503093ba1eb464d2d9740042f39b0eb9c6803ac503e49d6",
    ("A-oswdf", "iid-0.05"): "d2a9a5d4f13259b1126ed1f868448cbda7164bcfc06c1f1bcac6cadc0563a084",
    ("A-oswdf", "ge-0.01-0.3-0.005"): "d48d0d05d9fdb7fc5ec4cefefab69c0e2b12e76c419815eb2d19fae264bed7d7",
    ("A-oswdf", "per-link"): "7a43ecf1e912b12270adb9df46c639037eedc7495e37186d05deb2fffecbce67",
    ("A-mwdf", "iid-0.01"): "34b9f25dcd4c69695b204472bb65a5eb09d0c3417cdc4e181e4727d261a52325",
    ("A-mwdf", "iid-0.05"): "40d734e2448d36e9fe5c7ac327dc47241deb5c90c260b1a8ae25f681418f55fb",
    ("A-mwdf", "ge-0.01-0.3-0.005"): "62f7fad7ccb0bf90afb5f9348e3998343c701f1d974e33cfd0c9b19d626c0126",
    ("A-mwdf", "per-link"): "7f6c658b374dfb5fc204771905c382ce6d137818df19bedf1ce61e3957ce14e2",
    ("MID-oswdf", "iid-0.01"): "e8ce566ddfb4694cb58dc24ea9c648ec616456834fa52fdceed6b076cbbd49ae",
    ("MID-oswdf", "iid-0.05"): "412f56742d99a262a0249428a803229dd6ff5bd0e361ce1cadc8222af12e07b7",
    ("MID-oswdf", "ge-0.01-0.3-0.005"): "ae0ec00843c07e7788225def6b2843c214092987a4a66e037ffef67c45f59e58",
    ("MID-oswdf", "per-link"): "99aabd3485937fcd4797865e50961f836e42025e3757665b3e396f30ef1bc23a",
}


def test_monte_carlo_outputs_are_pinned():
    # the loss-curve codes under the loss-curve channels and one per-link
    # list; the mask is sampled as run_monte_carlo samples it
    ge = ChannelSpec("ge", ge=GeParams(alpha=0.01, beta=0.3, eps=0.005))
    digests = {}
    for name, plan in itertools.islice(loss_mask_plans(), 3):
        code = assemble(plan())
        links = len(code.hop1) + len(code.hop2)
        num = 1000 if name.startswith("MID") else 5000
        channels = {
            "iid-0.01": ChannelSpec("iid", eps=0.01),
            "iid-0.05": ChannelSpec("iid", eps=0.05),
            "ge-0.01-0.3-0.005": ge,
            "per-link": [ChannelSpec("iid", eps=0.01 * (i + 1)) for i in range(links - 1)] + [ge],
        }
        for ch_name, channel in channels.items():
            per_link = [channel] * links if isinstance(channel, ChannelSpec) else channel
            digest = hashlib.sha256()
            for seed in (3, 4):
                horizon = num + code.span + code.allocation.config.T + 2
                children = np.random.SeedSequence(seed).spawn(links)
                bits = [spec.sample(horizon, child) for spec, child in zip(per_link, children)]
                mask = loss_mask(code, bits[: len(code.hop1)], bits[len(code.hop1):], num)
                res = run_monte_carlo(code, channel, num, seed)
                assert res.lost == mask.sum()
                digest.update(mask.tobytes())
                digest.update(repr((res.packets, res.lost)).encode())
            digests[name, ch_name] = digest.hexdigest()
    assert digests == MONTE_CARLO_DIGESTS


def assert_masks_agree(code, num_packets, bits1, bits2):
    lost = loss_mask(code, bits1, bits2, num_packets)
    dense = dense_loss_mask(code, bits1, bits2, num_packets)
    assert lost.dtype == dense.dtype and lost.shape == dense.shape == (num_packets,)
    assert np.array_equal(lost, dense)
    return lost


@pytest.mark.parametrize("plan", [pytest.param(p, id=name) for name, p in loss_mask_plans()])
def test_loss_mask_matches_dense_oracle(plan):
    # every erasure rate from none to almost all, arrays at the horizon and
    # 3 slots short of it (slots past an array count as erased)
    code = assemble(plan())
    rng = np.random.default_rng(41)
    for num, eps, short in itertools.product((0, 1, 7, 300), (0, .02, .2, .5, .9), (0, 3)):
        horizon = num + code.span + code.allocation.config.T + 2 - short
        bits1 = [rng.random(horizon) < eps for _ in code.hop1]
        bits2 = [rng.random(horizon) < eps for _ in code.hop2]
        assert_masks_agree(code, num, bits1, bits2)


PROPERTY_CODES = [
    assemble(oswdf_optimize(NET_A)),
    assemble(oswdf_initial(NET_B)),
    assemble(mwdf_plan(NetworkConfig(T=6, N1=(1, 2), N2=(1,), dT1=(0, 1), dT2=(1,)))),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_loss_mask_matches_dense_oracle_on_any_bits(data):
    code = data.draw(st.sampled_from(PROPERTY_CODES))
    num = data.draw(st.integers(0, 30))
    horizon = num + code.span + code.allocation.config.T + 2 - data.draw(st.integers(0, 3))
    links = st.lists(st.booleans(), min_size=horizon, max_size=horizon).map(np.array)
    bits1 = [data.draw(links) for _ in code.hop1]
    bits2 = [data.draw(links) for _ in code.hop2]
    assert_masks_agree(code, num, bits1, bits2)


def test_loss_mask_matches_dense_oracle_off_the_verified_region():
    # relabel delays the verifier rejects: 0 on NET_A's mwdf plan forwards
    # hop-1 diagonals before k of their slots can arrive (every erasure of
    # such a slot is late), and 0 on a link with unit propagation delay
    # leaves a negative allowed delay (every packet lost)
    short_window = assemble(dataclasses.replace(mwdf_plan(NET_A), relabel_delay=0))
    cfg = NetworkConfig(T=6, N1=(2, 1), N2=(1,), dT1=(1, 0))
    negative = assemble(dataclasses.replace(mwdf_plan(cfg), relabel_delay=0))
    rng = np.random.default_rng(8)
    for code in (short_window, negative):
        assert not verify_adversarial(code).ok
        for num, short in itertools.product((0, 7, 300), (0, 3)):
            horizon = num + code.span + code.allocation.config.T + 2 - short
            bits1 = [rng.random(horizon) < 0.1 for _ in code.hop1]
            bits2 = [rng.random(horizon) < 0.1 for _ in code.hop2]
            lost = assert_masks_agree(code, num, bits1, bits2)
            assert lost.all() == (code is negative or num == 0)


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
