"""Channel generators: reproducibility and calibration."""

import math

import numpy as np
import pytest

from relaystream.channels import (
    GeParams,
    ge_average_loss,
    sample_ge,
    sample_iid,
)


def test_iid_edge_cases_and_determinism():
    assert sample_iid(0.0, 1000, seed=5).count() == 0
    a = sample_iid(0.3, 1000, seed=42)
    b = sample_iid(0.3, 1000, seed=42)
    c = sample_iid(0.3, 1000, seed=43)
    assert a == b
    assert a != c


def test_iid_law_of_large_numbers():
    seq = sample_iid(0.5, 10**5, seed=7)
    assert abs(seq.count() / 10**5 - 0.5) < 0.01


def test_ge_never_leaving_good_state_is_iid():
    params = GeParams(alpha=0.0, beta=0.5, eps=0.25)
    seq = sample_ge(params, 10**5, seed=11)
    assert abs(seq.count() / 10**5 - 0.25) < 0.01


def test_ge_average_loss_values():
    assert ge_average_loss(GeParams(0.01, 0.3, 0.0)) == pytest.approx(0.01 / 0.31)
    assert ge_average_loss(GeParams(0.0, 0.4, 0.2)) == pytest.approx(0.2)
    assert ge_average_loss(GeParams(0.2, 0.0, 0.1)) == 1.0
    assert ge_average_loss(GeParams(0.0, 0.0, 0.15)) == 0.15


def markov_se(params: GeParams, horizon: int) -> float:
    # per-slot variance of the loss indicator with lag-1 correlation folded in
    pb = params.alpha / (params.alpha + params.beta)
    lam = 1.0 - params.alpha - params.beta
    var = pb * (1 - pb) * (1 + lam) / (1 - lam)
    return math.sqrt(var / horizon)


def test_ge_calibration_bursty():
    params = GeParams(alpha=0.01, beta=0.3, eps=0.0)
    horizon = 2 * 10**5
    seq = sample_ge(params, horizon, seed=3)
    expected = ge_average_loss(params)
    assert abs(seq.count() / horizon - expected) < 4 * markov_se(params, horizon)


def test_ge_alternating_chain():
    params = GeParams(alpha=1.0, beta=1.0, eps=0.4)
    horizon = 10**5
    seq = sample_ge(params, horizon, seed=9)
    # stationary (1/2, 1/2); antithetic transitions keep the variance tiny
    assert abs(seq.count() / horizon - (params.eps + 1) / 2) < 0.01


def test_ge_determinism():
    params = GeParams(alpha=0.05, beta=0.2, eps=0.1)
    assert sample_ge(params, 5000, seed=17) == sample_ge(params, 5000, seed=17)
    assert sample_ge(params, 5000, seed=17) != sample_ge(params, 5000, seed=18)


def test_ge_absorbing_bad_state():
    params = GeParams(alpha=0.5, beta=0.0, eps=0.0)
    seq = sample_ge(params, 2000, seed=23)
    # once the chain falls into the bad state it never leaves
    bits = seq.bits
    first_bad = int(np.argmax(bits)) if bits.any() else len(bits)
    assert bits[first_bad:].all()


def test_params_validation():
    with pytest.raises(ValueError):
        GeParams(alpha=1.2, beta=0.1, eps=0.0)
    with pytest.raises(ValueError):
        GeParams(alpha=0.1, beta=0.1, eps=1.0)
    with pytest.raises(ValueError):
        sample_iid(1.1, 10, seed=1)
    # the boundary case models a dead link
    assert sample_iid(1.0, 10, seed=1).count() == 10
