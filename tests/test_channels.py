"""Channel generators: reproducibility and calibration."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaystream.channels import GeParams, sample_ge, sample_iid

from oracles import ge_average_loss, sample_ge_by_slices


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


# sha256 of 5000 sampled bits: seeded Monte Carlo loss counts replay only
# while the sampler makes the same draws in the same order
GE_PINNED = [
    ((0.01, 0.3, 0.05), 0, "9ce6e538f3dfdaa61d15e867e3df0686260b4b7025be964e3d934a7cfe686e4c"),
    ((0.01, 0.3, 0.05), 7, "240ef4dcffc0aceab8ce30bbb195ab6aba1fa55072ce9dc0b33721049fa5e69a"),
    ((0.2, 0.5, 0.0), 1, "31d5961f7da581742194c40598b7cdd0423330f0c7508c3818e24813aad63bcc"),
    ((0.0, 0.3, 0.1), 2, "cba6919c7ed2f51ba4b5549ffd1ae51cf90da01657538a5899bf8ebbac54e067"),
    ((0.1, 0.0, 0.1), 3, "e53130831c13dabff71d5d1797e3aaa467b4b7d32b3b8782c4ff03d76976f2aa"),
    ((0.0, 0.0, 0.2), 4, "589d208c2926291920ed37358eb8f322079f69f943a1479ceb3e1c4692a73f47"),
    ((1.0, 1.0, 0.5), 6, "14586d9690a9901085e1b1a21bedce68a56f7680f24a503687872bbb49e11221"),
]


@pytest.mark.parametrize("params,seed,digest", GE_PINNED, ids=str)
def test_ge_draws_are_pinned(params, seed, digest):
    alpha, beta, eps = params
    bits = sample_ge(GeParams(alpha=alpha, beta=beta, eps=eps), 5000, seed).bits
    assert hashlib.sha256(bits.tobytes()).hexdigest() == digest


# (alpha, beta, eps) where the sampler's bookkeeping could part from the
# slice-by-slice oracle while the draws stay the same
GE_EDGE_PARAMS = [
    (0.0, 0.3, 0.1),  # absorbing good state
    (0.2, 0.0, 0.1),  # absorbing bad state
    (0.0, 0.0, 0.2),  # both absorbing: no state draw, no sojourn draw
    (0.01, 0.3, 0.0),  # eps = 0: no uniforms
    (1.0, 1.0, 0.4),  # every sojourn one slot long
    (0.5, 0.4, 0.05),  # p >= 1/3: numpy's geometric searches instead of inverting
    (1 / 3, 0.2, 0.1),
    (1e-300, 0.3, 0.1),  # geometric clamps to 2**63 - 1
    (0.3, 1e-300, 0.1),
    (0.01, 0.3, 0.005),  # the Monte Carlo benchmark's channel
]


@pytest.mark.parametrize("params", GE_EDGE_PARAMS, ids=str)
def test_ge_matches_slice_oracle_bit_for_bit(params):
    ge = GeParams(*params)
    for horizon in (0, 1, 2, 7, 5000, 50060):
        for seed in range(4):
            bits = sample_ge(ge, horizon, seed).bits
            assert np.array_equal(bits, sample_ge_by_slices(ge, horizon, seed)), (horizon, seed)


PROBABILITY = st.one_of(st.sampled_from([0.0, 1e-300, 1 / 3, 1.0]), st.floats(0, 1))


@settings(max_examples=150, deadline=None)
@given(
    alpha=PROBABILITY,
    beta=PROBABILITY,
    eps=st.one_of(st.just(0.0), st.floats(0, 1, exclude_max=True)),
    horizon=st.integers(0, 3000),
    seed=st.integers(0, 2**64 - 1),
)
def test_ge_matches_slice_oracle_on_any_params(alpha, beta, eps, horizon, seed):
    ge = GeParams(alpha, beta, eps)
    assert np.array_equal(sample_ge(ge, horizon, seed).bits, sample_ge_by_slices(ge, horizon, seed))


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
