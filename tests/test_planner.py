"""Planner tests.

The two reference networks used throughout (named for the test fixtures,
values derived by hand from the converse bound and the pairing budget):

* NET_A: T=5, hop 1 budgets (2, 3), hop 2 budgets (1, 2). Capacity 1,
  message-wise 3/4, concatenated 8/9; the symbol-wise planner closes the
  gap to rate 1 on the first pass.
* NET_B: T=4, hop 1 budget (1,), hop 2 budgets (3, 2). Capacity 2/3, but
  the pairing budget caps the achievable rate at 13/20; the first pass
  leaves a gap (8 vs 7 symbols) and the bisection converges to 13/20.
"""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from relaystream.planner import (
    Allocation,
    N_MAX,
    NetworkConfig,
    RATE_TOLERANCE,
    cswdf_closed_form,
    cswdf_plan,
    mwdf_plan,
    mwdf_rate,
    oswdf_initial,
    oswdf_optimize,
    point_rate,
    t_min,
    upper_bound,
    _concat_rate,
    _hops,
    _initial_plan,
    _mass,
    _pair_counts,
    _plan_bottleneck_first,
    _ranked_hops,
    _redistribute,
)

from relaystream.sim import sample_config

from oracles import (
    cswdf_groupings_by_concat,
    hop_caps,
    mwdf_rate_bruteforce,
    nonzero,
    redistribute_by_fractions,
)

NET_A = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
NET_B = NetworkConfig(T=4, N1=(1,), N2=(3, 2))


def aggregate_mass(alloc: Allocation, hop: int) -> dict[int, int]:
    """Effective-delay symbol counts for one hop of an allocation."""
    config = alloc.config
    groupings = alloc.groupings1 if hop == 1 else alloc.groupings2
    dts = config.dT1 if hop == 1 else config.dT2
    mass: dict[int, int] = {}
    for g, dt in zip(groupings, dts):
        for d, c in nonzero(g):
            if hop == 1 and alloc.relabel_delay is not None:
                d = alloc.relabel_delay - dt  # forwarded only at the split
            mass[d + dt] = mass.get(d + dt, 0) + c
    return mass


def check_allocation(alloc: Allocation) -> None:
    config = alloc.config
    assert len(alloc.n1) == len(config.N1) and len(alloc.n2) == len(config.N2)
    for g, k in zip(alloc.groupings1, alloc.k1):
        assert g.total() == k
    for g, k in zip(alloc.groupings2, alloc.k2):
        assert g.total() == k
    # matched symbols must fit under the deadline: greedily pair the
    # latest-forwarded hop-1 symbols with the fastest hop-2 slots
    m2 = sorted(aggregate_mass(alloc, 2).items())
    need = min(sum(alloc.k1), sum(alloc.k2))
    take1 = []
    for d, c in sorted(aggregate_mass(alloc, 1).items()):
        take = min(c, need - len(take1))
        take1 += [d] * take
        if len(take1) == need:
            break
    take2 = []
    for d, c in m2:
        take = min(c, need - len(take2))
        take2 += [d] * take
        if len(take2) == need:
            break
    assert len(take1) == len(take2) == need
    for d1, d2 in zip(sorted(take1, reverse=True), sorted(take2)):
        assert d1 + d2 <= config.T


def test_point_rate_values():
    assert point_rate(4, 2) == Fraction(3, 5)
    assert point_rate(2, 3) == 0
    assert point_rate(-1, 0) == 0
    assert point_rate(3, 0) == 1


def test_t_min():
    assert t_min(NET_A) == 4
    assert t_min(NET_B) == 4
    assert t_min(NetworkConfig(T=9, N1=(2,), N2=(2,), dT1=(1,))) == 5


def test_upper_bound_reference_networks():
    assert tuple(h.rate for h in _hops(NET_A)) == (Fraction(1), Fraction(5, 4))
    assert upper_bound(NET_A) == 1
    assert tuple(h.rate for h in _hops(NET_B)) == (Fraction(2, 3), Fraction(3, 4))
    assert upper_bound(NET_B) == Fraction(2, 3)


def test_effective_config_folds_propagation_delay():
    cfg = NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,))
    h1, h2 = _hops(cfg)
    assert h1.z == (3,) and h2.z == (2,)
    assert h1.max_delay == (3,) and h2.max_delay == (3,)
    assert upper_bound(cfg) == Fraction(1, 2)


def test_pure_delay_cheaper_than_extra_erasure():
    # same per-link Z = 3, but delay slots don't shrink the numerator's
    # erasure term: the delayed link strictly beats the noisier one
    delayed = NetworkConfig(T=6, N1=(2,), N2=(2,), dT1=(1,))
    noisy = NetworkConfig(T=6, N1=(3,), N2=(2,))
    r_delayed = _hops(delayed)[0].rate
    r_noisy = _hops(noisy)[0].rate
    assert r_delayed == Fraction(1, 2) > r_noisy == Fraction(2, 5)


def test_mwdf_rate_reference_networks():
    assert mwdf_rate(NET_A) == (Fraction(3, 4), 3, 2)
    assert mwdf_rate(NET_B) == (Fraction(1, 2), 1, 3)


def test_mwdf_rate_matches_bruteforce_on_ensemble_networks():
    # the split search in integer (num, den) pairs against every split in
    # Fractions, rate and split both, on the ensemble's networks
    rng = random.Random(5)
    for _ in range(3000):
        cfg = sample_config(rng)
        expected = mwdf_rate_bruteforce(cfg)
        got = mwdf_rate(cfg)
        assert got == expected and repr(got) == repr(expected), cfg


def random_network(rng: random.Random) -> NetworkConfig:
    """1-4 links per hop, budgets 0-6, delays 0-4, T from 1 to t_min + 6."""
    l1, l2 = rng.randint(1, 4), rng.randint(1, 4)
    N1 = tuple(rng.randint(0, 6) for _ in range(l1))
    N2 = tuple(rng.randint(0, 6) for _ in range(l2))
    dT1 = tuple(rng.choice((0, 0, rng.randint(1, 4))) for _ in range(l1))
    dT2 = tuple(rng.choice((0, 0, rng.randint(1, 4))) for _ in range(l2))
    tmin = t_min(NetworkConfig(T=1, N1=N1, N2=N2, dT1=dT1, dT2=dT2))
    T = max(1, tmin + rng.randint(-tmin, 6))
    return NetworkConfig(T=T, N1=N1, N2=N2, dT1=dT1, dT2=dT2)


def test_fast_planners_match_their_oracles():
    # linear-time mwdf split search and one-pass cswdf groupings against
    # the double loop over all splits and the pair-by-pair concatenation
    rng = random.Random(2024)
    zero_rate = below_tmin = zero_budget = delayed = 0
    for _ in range(400):
        cfg = random_network(rng)
        expected = mwdf_rate_bruteforce(cfg)
        got = mwdf_rate(cfg)
        assert got == expected and repr(got) == repr(expected), cfg
        alloc = cswdf_groupings_by_concat(cfg)
        rate, got_alloc = cswdf_plan(cfg)
        assert got_alloc == alloc and repr(got_alloc) == repr(alloc), cfg
        assert rate == alloc.rate
        zero_rate += expected == (0, 0, cfg.T)
        below_tmin += cfg.T < t_min(cfg)
        zero_budget += 0 in cfg.N1 + cfg.N2
        delayed += any(cfg.dT1 + cfg.dT2)
    assert min(zero_rate, below_tmin, zero_budget, delayed) >= 20


def test_cswdf_reference_networks():
    rate_a, alloc_a = cswdf_plan(NET_A)
    assert rate_a == Fraction(8, 9)
    assert alloc_a.n1 == (9, 9) and alloc_a.n2 == (7, 7)
    assert alloc_a.k1 == (5, 3) and alloc_a.k2 == (5, 3)
    check_allocation(alloc_a)

    rate_b, alloc_b = cswdf_plan(NET_B)
    assert rate_b == Fraction(3, 5)
    assert alloc_b.n1 == (5,) and alloc_b.n2 == (4, 4)
    assert alloc_b.k1 == (3,) and alloc_b.k2 == (1, 2)
    check_allocation(alloc_b)


def test_cswdf_closed_form_matches_plan():
    assert cswdf_closed_form(NET_A) == Fraction(8, 9)
    assert cswdf_closed_form(NET_B) == Fraction(3, 5)


def test_cswdf_pair_groupings():
    _, alloc = cswdf_plan(NET_A)
    # hop-1 link 0 (budget 2) serves hop-2 links with Z=1 and Z=2:
    # delay runs 2..4 and 2..3, one symbol each
    assert nonzero(alloc.groupings1[0]) == ((4, 1), (3, 2), (2, 2))
    assert nonzero(alloc.groupings2[0]) == ((3, 1), (2, 2), (1, 2))


def test_oswdf_initial_no_gap_network():
    alloc = oswdf_initial(NET_A)
    assert alloc.bottleneck == "hop1"
    assert alloc.n1 == (40, 40) and alloc.n2 == (40, 40)
    assert alloc.k1 == (24, 16)
    assert alloc.k2 == (22, 18)
    assert sum(alloc.k1) == sum(alloc.k2) == 40
    assert alloc.rate == 1
    assert nonzero(alloc.groupings1[0]) == ((4, 8), (3, 8), (2, 8))
    assert nonzero(alloc.groupings1[1]) == ((4, 8), (3, 8))
    assert nonzero(alloc.groupings2[0]) == ((2, 4), (1, 18))
    assert nonzero(alloc.groupings2[1]) == ((3, 7), (2, 11))
    check_allocation(alloc)


def test_oswdf_initial_gap_network():
    alloc = oswdf_initial(NET_B)
    assert alloc.bottleneck == "hop1"
    assert alloc.n == 12
    assert alloc.k1 == (8,)
    assert nonzero(alloc.groupings1[0]) == ((2, 4), (1, 4))
    assert alloc.k2 == (3, 4)
    assert nonzero(alloc.groupings2[0]) == ((3, 3),)
    assert alloc.rate == Fraction(7, 12)
    check_allocation(alloc)


def test_oswdf_initial_rejects_short_deadline():
    with pytest.raises(ValueError, match="below the usable minimum"):
        oswdf_initial(NetworkConfig(T=3, N1=(2, 3), N2=(1, 2)))


def test_oswdf_optimize_returns_initial_when_closed():
    alloc = oswdf_optimize(NET_A)
    assert alloc.rate == 1
    assert alloc.k1 == (24, 16) and alloc.k2 == (22, 18)


def test_oswdf_optimize_converges_on_gap_network():
    alloc = oswdf_optimize(NET_B)
    assert sum(alloc.k1) == sum(alloc.k2)
    assert Fraction(13, 20) - RATE_TOLERANCE <= alloc.rate <= Fraction(13, 20)
    assert not alloc.capped
    check_allocation(alloc)


def test_symmetric_single_link_network():
    cfg = NetworkConfig(T=6, N1=(2,), N2=(2,))
    alloc = oswdf_optimize(cfg)
    assert alloc.rate == Fraction(3, 5) == upper_bound(cfg)
    assert sum(alloc.k1) == sum(alloc.k2) == 15
    check_allocation(alloc)


def test_mwdf_plan_adversarial():
    alloc = mwdf_plan(NET_A)
    assert alloc.rate == Fraction(3, 4)
    assert alloc.n == 12
    assert alloc.k1 == (6, 3) and alloc.k2 == (8, 4)
    assert alloc.relabel_delay == 3
    assert nonzero(alloc.groupings1[0]) == ((3, 3), (2, 3))
    assert nonzero(alloc.groupings1[1]) == ((3, 3),)
    assert nonzero(alloc.groupings2[0]) == ((2, 4), (1, 4))
    assert nonzero(alloc.groupings2[1]) == ((2, 4),)
    check_allocation(alloc)


def test_mwdf_plan_matched_to_symbolwise():
    target = oswdf_optimize(NET_A)
    alloc = mwdf_plan(NET_A, match=target)
    assert alloc.rate == target.rate == 1
    assert alloc.k1 == target.k1 and alloc.k2 == target.k2
    assert alloc.relabel_delay == 3
    for g in alloc.groupings1:
        assert g.entries[0][0] <= 3
    for g in alloc.groupings2:
        assert g.entries[0][0] <= 2
    check_allocation(alloc)
    # rate 1 forces shrunken per-link design budgets; the plain plan keeps
    # the network budgets
    for built, net in zip(alloc.budgets1 + alloc.budgets2, NET_A.N1 + NET_A.N2):
        assert 0 <= built <= net
    assert max(alloc.budgets1) < max(NET_A.N1)
    plain = mwdf_plan(NET_A)
    assert plain.budgets1 == NET_A.N1 and plain.budgets2 == NET_A.N2


def test_passthrough_relay_when_budgets_zero():
    # a lossless second hop costs nothing: the single-link rate survives
    cfg = NetworkConfig(T=2, N1=(1,), N2=(0,))
    alloc = oswdf_optimize(cfg)
    assert alloc.rate == upper_bound(cfg) == Fraction(2, 3)
    assert sum(alloc.k1) == sum(alloc.k2)
    check_allocation(alloc)


@st.composite
def small_configs(draw):
    l1 = draw(st.integers(1, 3))
    l2 = draw(st.integers(1, 3))
    n1 = tuple(draw(st.integers(1, 4)) for _ in range(l1))
    n2 = tuple(draw(st.integers(1, 4)) for _ in range(l2))
    dt1 = tuple(draw(st.integers(0, 2)) for _ in range(l1))
    dt2 = tuple(draw(st.integers(0, 2)) for _ in range(l2))
    base = NetworkConfig(T=20, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
    t = t_min(base) + draw(st.integers(0, 4))
    return NetworkConfig(T=t, N1=n1, N2=n2, dT1=dt1, dT2=dt2)


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_schemes_respect_capacity(cfg):
    ub = upper_bound(cfg)
    assert mwdf_rate(cfg)[0] <= ub
    csw_rate, csw_alloc = cswdf_plan(cfg)
    assert csw_rate <= ub
    check_allocation(csw_alloc)


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_oswdf_dominates_and_stays_sound(cfg):
    alloc = oswdf_optimize(cfg)
    check_allocation(alloc)
    assert alloc.rate <= upper_bound(cfg)
    csw_rate, _ = cswdf_plan(cfg)
    assert alloc.rate >= csw_rate


def test_scheme_ordering_on_reference_networks():
    for cfg in (NET_A, NET_B):
        mw = mwdf_rate(cfg)[0]
        csw = cswdf_plan(cfg)[0]
        osw = oswdf_optimize(cfg).rate
        assert mw <= csw <= osw <= upper_bound(cfg)


def _plan_record(plan) -> tuple:
    """Every field of an Allocation a planner change could move."""
    try:
        a = plan()
    except ValueError as exc:
        return ("ValueError", str(exc)), None
    record = (
        a.scheme, a.n1, a.n2, a.k1, a.k2,
        tuple(g.entries for g in a.groupings1),
        tuple(g.entries for g in a.groupings2),
        a.bottleneck, a.relabel_delay, a.capped, a.budgets1, a.budgets2,
    )
    return record, a


# sha256 of the records below as the planners produced them before the
# per-hop link view (`_Hop`) existed: an oracle for oswdf_optimize, whose
# output no closed form pins beyond rate inequalities. Since then only the
# `capped` flag moved, on the 8 networks where oswdf returns the cswdf plan
PLANNER_DIGEST = "974e4f71b98174ded61f244680dcfdaf7d9ab522c701eb00282ebbc834d9024b"


def digest_configs() -> list[NetworkConfig]:
    # random_network draws delays, zero budgets and deadlines below t_min,
    # which oswdf refuses; sample_config draws the ensemble's networks
    rng = random.Random(9)
    configs = [random_network(rng) for _ in range(300)]
    return configs + [sample_config(rng) for _ in range(100)]


def test_planner_outputs_are_pinned():
    digest = hashlib.sha256()
    for cfg in digest_configs():
        osw_record, osw = _plan_record(lambda: oswdf_optimize(cfg))
        mw_record, _ = _plan_record(lambda: mwdf_plan(cfg))
        matched = _plan_record(lambda: mwdf_plan(cfg, match=osw))[0] if osw else None
        digest.update(repr((cfg, tuple(h.rate for h in _hops(cfg)), osw_record, mw_record, matched)).encode())
    assert digest.hexdigest() == PLANNER_DIGEST


def bisection_configs() -> list[NetworkConfig]:
    # ensemble networks plus small ones with zero budgets and delays, at
    # t_min to t_min + 4
    rng = random.Random(13)
    configs = [sample_config(rng) for _ in range(30)]
    for _ in range(120):
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        n1 = tuple(rng.randint(0, 3) for _ in range(l1))
        n2 = tuple(rng.randint(0, 3) for _ in range(l2))
        dt1 = tuple(rng.randint(0, 2) for _ in range(l1))
        dt2 = tuple(rng.randint(0, 2) for _ in range(l2))
        base = NetworkConfig(T=20, N1=n1, N2=n2, dT1=dt1, dT2=dt2)
        configs.append(replace(base, T=t_min(base) + rng.randint(0, 4)))
    return configs


def concat_base(cfg, bot, other) -> list[Fraction]:
    """The concatenated scheme's per-link bottleneck rates, where the pour
    starts: each link's pair-count numerator over the other hop's slots,
    at most its cap."""
    nums = [sum(max(0, cfg.T + 1 - z_i - z) for z in other.z) for z_i in bot.z]
    pair_counts = _pair_counts(cfg)
    # oswdf_optimize reads each link's numerator from the cswdf pair counts
    assert (pair_counts[0] if bot.name == "hop1" else pair_counts[1])[1] == nums
    den = sum(cfg.T + 1 - z for z in other.z)
    caps = hop_caps(cfg)[bot.name == "hop2"]
    return [min(cap, Fraction(num, den)) for num, cap in zip(nums, caps)]


def pour(bot, base_rates: list[Fraction], probe: Fraction) -> list[tuple[int, int]]:
    """_redistribute on Fraction inputs, the base over its common denominator."""
    base_den = lcm(*[r.denominator for r in base_rates])
    base = [r.numerator * (base_den // r.denominator) for r in base_rates]
    return _redistribute(bot, base, base_den, probe.numerator, probe.denominator)


def test_hop_caps_match_point_rates():
    # integer caps over each hop's common denominator sum to the same
    # bound, with T below t_min, zero budgets and max_delay + 1 <= N
    rng = random.Random(31)
    below = zero_cap = zero_budget = 0
    for _ in range(600):
        cfg = random_network(rng)
        expected = hop_caps(cfg)
        for h, caps in zip(_hops(cfg), expected):
            assert [Fraction(c, h.den) for c in h.caps] == caps, cfg
            assert h.rate == sum(caps, start=Fraction(0)), cfg
            assert h.den == lcm(*[d + 1 for d, c in zip(h.max_delay, caps) if c]), cfg
            zero_cap += any(c == 0 for c in caps)
        got = upper_bound(cfg)
        want = min(sum(caps, start=Fraction(0)) for caps in expected)
        assert got == want and repr(got) == repr(want), cfg
        below += cfg.T < t_min(cfg)
        zero_budget += 0 in cfg.N1 + cfg.N2
    assert below and zero_cap and zero_budget, (below, zero_cap, zero_budget)


def test_bisection_invariants_behind_the_removed_refusals():
    # oswdf's bisection has no refusal for a rate it cannot redistribute, a
    # non-integral bottleneck count or an empty bottleneck link: at T >= t_min
    # the pour always drains, every per-link rate is positive, and both ways
    # of choosing n make every count integral
    branches = {"scale-down": 0, "pour": 0}
    for cfg in bisection_configs():
        bot, other = _ranked_hops(cfg)
        caps = hop_caps(cfg)[bot.name == "hop2"]
        n, g1, g2 = _initial_plan(cfg, bot, other)
        init_g = g1 if bot.name == "hop1" else g2
        assert [Fraction(sum(counts), n) for _, counts in init_g] == caps
        base_rates = concat_base(cfg, bot, other)
        concat = sum(base_rates, start=Fraction(0))
        for j in range(1, 8):
            probe = bot.rate * Fraction(j, 8)
            pairs = pour(bot, base_rates, probe)
            rates = [Fraction(p, q) for p, q in pairs]
            assert sum(rates) == probe
            assert all(0 < r <= cap for r, cap in zip(rates, caps))
            branches["scale-down" if probe < concat else "pour"] += 1
            n = lcm(*[max(1, N) * q for N, (_, q) in zip(bot.N, pairs)])
            if n > N_MAX:
                continue
            n, g1, g2 = _plan_bottleneck_first(cfg, bot, other, n, [p * (n // q) for p, q in pairs])
            cand_g = g1 if bot.name == "hop1" else g2
            assert [Fraction(sum(counts), n) for _, counts in cand_g] == rates
    assert branches["scale-down"] and branches["pour"], branches


def test_initial_plan_mass_is_exactly_the_bottleneck_rate():
    # oswdf_optimize takes its upper bound, max(k1, k2) / n, from the
    # initial plan without clamping it to bot.rate: the bottleneck carries
    # exactly bot.rate * n, the rescale multiplies both sides alike, and
    # the other hop is filled under a budget of that total, which
    # subtract_constraint never lets it exceed
    checked = 0
    for cfg in digest_configs() + bisection_configs():
        try:
            bot, other = _ranked_hops(cfg)
        except ValueError:
            continue  # below t_min
        n, g1, g2 = _initial_plan(cfg, bot, other)
        bot_g, other_g = (g1, g2) if bot.name == "hop1" else (g2, g1)
        assert Fraction(_mass(bot_g), n) == bot.rate, cfg
        assert _mass(other_g) <= _mass(bot_g), cfg
        checked += 1
    assert checked >= 300, checked


def test_bisection_grid_never_doubles_past_the_packet_size_guard():
    # the grid doubles n_work only when the bracket, at least RATE_TOLERANCE
    # wide, spans at most one grid step, so only while n_work <=
    # 1 / RATE_TOLERANCE; oswdf_optimize has no cap on the doubled grid
    # because it then stays within N_MAX
    assert 2 / RATE_TOLERANCE <= N_MAX


def test_integer_pour_matches_fraction_oracle(monkeypatch):
    # rate for rate, at probes j/8 of the bottleneck rate and at every
    # probe oswdf_optimize makes, in both branches of the pour
    import relaystream.planner as planner_mod

    calls = []
    redistribute = planner_mod._redistribute
    monkeypatch.setattr(planner_mod, "_redistribute",
                        lambda *args: calls.append(args) or redistribute(*args))
    rng = random.Random(5)
    configs = [sample_config(rng) for _ in range(300)] + bisection_configs()
    branches = {"scale-down": 0, "pour": 0}

    def check(bot, base_rates, probe, got):
        caps = hop_caps(cfg)[bot.name == "hop2"]
        want = redistribute_by_fractions(caps, bot.order, base_rates, probe)
        assert got == [(r.numerator, r.denominator) for r in want], (cfg, probe)
        branches["scale-down" if probe < sum(base_rates) else "pour"] += 1

    for cfg in configs:
        bot, other = _ranked_hops(cfg)
        base_rates = concat_base(cfg, bot, other)
        for j in range(1, 8):
            probe = bot.rate * Fraction(j, 8)
            check(bot, base_rates, probe, pour(bot, base_rates, probe))
        calls.clear()
        oswdf_optimize(cfg)
        for hop, base, base_den, num, den in calls:
            assert hop == bot
            assert [Fraction(b, base_den) for b in base] == base_rates
            check(bot, base_rates, Fraction(num, den), redistribute(hop, base, base_den, num, den))
    assert branches["scale-down"] and branches["pour"], branches


def test_cswdf_rate_from_pair_counts():
    # the lower bound oswdf_optimize takes from the pair counts alone is
    # the full cswdf plan's rate
    for cfg in digest_configs():
        rate = _concat_rate(_pair_counts(cfg))
        expected = cswdf_plan(cfg)[0]
        assert rate == expected and repr(rate) == repr(expected), cfg


def test_oswdf_optimize_builds_one_allocation(monkeypatch):
    # the bisection compares list-form candidates; only the plan returned
    # gets validated groupings, and the cswdf plan is not built when
    # oswdf wins
    import relaystream.planner as planner_mod
    from relaystream.spectrum import DelayGrouping

    built, candidates = [], []
    check, plan = DelayGrouping.__post_init__, planner_mod._plan_bottleneck_first
    monkeypatch.setattr(DelayGrouping, "__post_init__", lambda g: (built.append(g), check(g)))
    monkeypatch.setattr(planner_mod, "_plan_bottleneck_first",
                        lambda *args: candidates.append(args) or plan(*args))
    monkeypatch.setattr(planner_mod, "cswdf_plan", lambda cfg: pytest.fail("cswdf_plan ran"))
    alloc = oswdf_optimize(NET_B)
    assert alloc.scheme == "oswdf" and sum(alloc.k1) == sum(alloc.k2)
    assert len(candidates) > 2
    # each candidate's bottleneck hop comes as integer counts out of its n
    assert all(type(k) is int for args in candidates for k in args[4])
    assert len(built) == len(NET_B.N1) + len(NET_B.N2)


def test_oswdf_optimize_returns_cswdf_plan_where_it_wins():
    wins = 0
    for cfg in digest_configs():
        try:
            alloc = oswdf_optimize(cfg)
        except ValueError:
            continue
        if alloc.scheme == "cswdf":
            wins += 1
            # the packet-size guard stopped every bisection that fell back
            expected = replace(cswdf_plan(cfg)[1], capped=True)
            assert alloc == expected and repr(alloc) == repr(expected), cfg
    assert wins >= 5


def test_cswdf_fallback_reports_the_cap(monkeypatch):
    # the guard stops this bisection before it passes the concatenated
    # rate; with room to refine, oswdf beats that rate
    import relaystream.planner as planner_mod

    cfg = NetworkConfig(T=23, N1=(9, 7, 8), N2=(7, 10, 10))
    capped = oswdf_optimize(cfg)
    assert capped.scheme == "cswdf" and capped.capped
    monkeypatch.setattr(planner_mod, "N_MAX", 10**7)
    refined = oswdf_optimize(cfg)
    assert refined.scheme == "oswdf" and not refined.capped
    assert refined.rate > capped.rate
