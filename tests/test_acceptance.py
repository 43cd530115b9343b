"""Acceptance gate: the nine headline guarantees, one test each.

Each test prints a single "criterion N: PASS" line with its runtime; a
failure anywhere keeps the line from printing and fails the suite. The
two reference networks appear throughout: NET_A (T=5, budgets 2,3 toward
the relay and 1,2 onward) where symbol-wise planning reaches rate 1, and
NET_B (T=4, budgets 1 and 3,2) where it closes most of the gap between
the message-wise rate and the upper bound.
"""

import hashlib
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from relaystream.channels import GeParams, sample_ge
from relaystream.codes import CodecState, build_grouped_code, decode_step, encode_step
from relaystream.planner import (
    NetworkConfig,
    cswdf_plan,
    hop_rates,
    mwdf_plan,
    mwdf_rate,
    oswdf_initial,
    oswdf_optimize,
    point_rate,
    t_min,
    upper_bound,
)
from relaystream.relay import assemble
from relaystream.sim import ChannelSpec, run_ensemble, run_monte_carlo, verify_adversarial
from relaystream.spectrum import DelayGrouping, delay_lower_bound, optimal_grouping

from oracles import build_spectrum_code, ge_average_loss, measure_spectrum

NET_A = NetworkConfig(T=5, N1=(2, 3), N2=(1, 2))
NET_B = NetworkConfig(T=4, N1=(1,), N2=(3, 2))


@contextmanager
def criterion(num: int, budget_s: float):
    start = time.monotonic()
    holder = {"detail": ""}
    yield holder
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"criterion {num}: PASS in {elapsed:.2f}s  {holder['detail']}")


def test_criterion_1_reference_network_rates_exact():
    with criterion(1, 1.0) as c:
        assert upper_bound(NET_A) == Fraction(1)
        assert oswdf_optimize(NET_A).rate == Fraction(1)
        assert mwdf_rate(NET_A)[0] == Fraction(3, 4)
        assert cswdf_plan(NET_A)[0] == Fraction(8, 9)
        c["detail"] = "upper 1, oswdf 1, mwdf 3/4, cswdf 8/9"


def test_criterion_2_gap_network_allocation_and_convergence():
    with criterion(2, 5.0) as c:
        assert upper_bound(NET_B) == Fraction(2, 3)
        init = oswdf_initial(NET_B)
        assert init.n == 12
        assert init.k1_total == 8
        assert init.k2_total == 7
        final = oswdf_optimize(NET_B)
        lo = Fraction(13, 20) - Fraction(1, 10**4)
        assert lo <= final.rate <= Fraction(13, 20), final.rate
        assert not final.capped
        c["detail"] = f"initial 12/(8,7), optimized rate {final.rate} = {float(final.rate):.6f}"


def test_criterion_3_diagonal_code_golden_deadlines():
    with criterion(3, 1.0) as c:
        spec = build_grouped_code(5, 2, DelayGrouping.from_pairs([(4, 1), (3, 1), (2, 1)]))
        assert spec.slot_delays == (4, 3, 2)
        window_start, window = 8, 9
        horizon = window_start + window + spec.span + 5
        rng = random.Random(31)
        packets = [[rng.randrange(1, 256) for _ in range(3)] for _ in range(horizon)]
        checked = 0
        for times in itertools.combinations(range(window_start, window_start + window), 2):
            enc, dec = CodecState(spec), CodecState(spec)
            seen: dict[tuple[int, int], int] = {}
            for t in range(horizon):
                sent = encode_step(enc, packets[t])
                for src, slot, value in decode_step(dec, None if t in times else sent, t):
                    assert value == packets[src][slot]
                    seen.setdefault((src, slot), t)
            for t in range(horizon - spec.span - 4):
                for slot, deadline in ((2, 2), (1, 3), (0, 4)):
                    at = seen.get((t, slot))
                    assert at is not None and at <= t + deadline, (times, t, slot)
            checked += 1
        assert checked == math.comb(9, 2) == 36
        c["detail"] = "36/36 placements meet t+2, t+3, t+4"


def test_criterion_4_measured_spectra_equal_declared_groupings():
    with criterion(4, 120.0) as c:
        cases = 0
        for n in range(2, 17):
            for N in range(1, 4):
                for k in range(1, n):
                    if (n - k) % N != 0 or n - k < N:
                        continue
                    t1 = delay_lower_bound(n, k, N)
                    while True:
                        try:
                            grouping = optimal_grouping(n, k, N, t1)
                        except ValueError:
                            break
                        spec = build_spectrum_code(n, k, N, t1)
                        assert measure_spectrum(spec) == grouping, (n, k, N, t1)
                        cases += 1
                        t1 += 1
        # full feasible domain at these bounds; a smaller count means the
        # scan skipped constructible shapes
        assert cases == 292
        c["detail"] = f"{cases} (n,k,N,T1) codes, exhaustive enumeration each"


def test_criterion_5_reference_network_verifies_end_to_end():
    with criterion(5, 60.0) as c:
        code = assemble(oswdf_optimize(NET_A))
        assert all(r.relay_delay + r.dest_delay <= 5 for r in code.routes)
        report = verify_adversarial(code)
        assert report.ok and report.exhaustive
        assert report.failure is None
        c["detail"] = f"{report.checked_patterns} patterns, exhaustive, zero failures"


# sha256 of every row's config and exact rates, as the planners produced
# them before their allocate-and-fill loop moved onto count lists
ENSEMBLE_DIGEST = "7ae7fd4017538fa524075bfb547e122b0746ea3824bcb14e233d0009ca8b8547"


def test_criterion_6_ensemble_dominance():
    with criterion(6, 600.0) as c:
        rows = run_ensemble(seed=20260813, trials=1000)
        assert len(rows) == 1000
        digest = hashlib.sha256()
        for r in rows:
            assert r.oswdf >= max(r.mwdf, r.cswdf), r.config
            assert r.oswdf <= r.upper, r.config
            digest.update(repr((r.config, r.upper, r.mwdf, r.cswdf, r.oswdf)).encode())
        assert digest.hexdigest() == ENSEMBLE_DIGEST
        hits = sum(1 for r in rows if r.hits_upper)
        c["detail"] = f"dominance 1000/1000, upper bound hit {hits / 1000:.1%} (informational)"


def test_criterion_7_monte_carlo_dominance_at_equal_rate():
    with criterion(7, 300.0) as c:
        os_alloc = oswdf_optimize(NET_A)
        mw_alloc = mwdf_plan(NET_A, match=os_alloc)
        assert mw_alloc.rate == os_alloc.rate
        os_code, mw_code = assemble(os_alloc), assemble(mw_alloc)
        packets = 100_000
        outcomes = []
        for eps in (0.005, 0.01, 0.02, 0.05):
            spec = ChannelSpec("iid", eps=eps)
            po = run_monte_carlo(os_code, spec, packets, seed=2026).loss_rate
            pm = run_monte_carlo(mw_code, spec, packets, seed=2026).loss_rate
            se = math.sqrt(po * (1 - po) / packets + pm * (1 - pm) / packets)
            # one-sided 95% comparison: symbol-wise must not lose more
            assert po <= pm + 1.645 * se, (eps, po, pm)
            outcomes.append(f"eps={eps}: {po:.5f} vs {pm:.5f}")
        c["detail"] = "; ".join(outcomes)


def test_criterion_8_bursty_channel_calibration():
    with criterion(8, 10.0) as c:
        params = GeParams(alpha=0.01, beta=0.3, eps=0.0)
        horizon = 10**6
        seq = sample_ge(params, horizon, seed=77)
        expected = ge_average_loss(params)
        assert expected == params.alpha / (params.alpha + params.beta)
        lam = 1 - params.alpha - params.beta
        var = expected * (1 - expected) * (1 + lam) / (1 - lam)
        se = math.sqrt(var / horizon)
        observed = seq.count() / horizon
        assert abs(observed - expected) <= 3 * se, (observed, expected, se)
        c["detail"] = f"observed {observed:.6f}, expected {expected:.6f}, 3se {3 * se:.6f}"


def test_criterion_9_propagation_delay_beats_erasure_model():
    with criterion(9, 1.0) as c:
        hit = None
        for T in range(3, 12):
            cfg = NetworkConfig(T=T, N1=(2,), N2=(2,), dT1=(1,))
            if T < t_min(cfg):
                continue
            delayed = hop_rates(cfg)[0]
            as_erasure = point_rate(T - 2, 2 + 1)
            if delayed > as_erasure:
                hit = (T, delayed, as_erasure)
                break
        assert hit is not None
        T, delayed, as_erasure = hit
        assert isinstance(delayed, Fraction) and isinstance(as_erasure, Fraction)
        c["detail"] = f"T={T}: delayed-link rate {delayed} > budget-inflated {as_erasure}"
