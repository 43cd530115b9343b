"""Erasure sequence generation: sampled i.i.d. or two-state Markov
(Gilbert-Elliott) loss patterns.

Sampled generators take explicit 64-bit seeds and are reproducible bit for
bit; simulation outputs always record the seed they were driven by. The
Gilbert-Elliott sampler draws alternating geometric sojourn times instead
of stepping the chain slot by slot, which is exact and fast enough for
million-slot horizons. Its per-sojourn loop only draws: each good
sojourn's uniforms are written in place into one buffer, each bad sojourn
is only recorded, and the loss bits come from one comparison of the buffer
plus one pass that marks the bad sojourns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ErasureSequence:
    """Binary loss pattern over a finite horizon; 1 marks a lost packet."""

    def __init__(self, bits: Sequence[int] | np.ndarray):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        arr.flags.writeable = False
        self.bits = arr

    def count(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        return isinstance(other, ErasureSequence) and np.array_equal(self.bits, other.bits)


def sample_iid(eps: float, horizon: int, seed: int) -> ErasureSequence:
    if not 0 <= eps <= 1:
        raise ValueError("need 0 <= eps <= 1")
    rng = np.random.default_rng(seed)
    return ErasureSequence(rng.random(horizon) < eps)


@dataclass(frozen=True)
class GeParams:
    """Two-state Markov loss model: good state loses with probability eps,
    bad state always loses; alpha is the good-to-bad transition probability
    and beta the bad-to-good one."""

    alpha: float
    beta: float
    eps: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "eps"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.eps >= 1:
            raise ValueError("eps must be below 1")


def sample_ge(params: GeParams, horizon: int, seed: int) -> ErasureSequence:
    """Sample a Gilbert-Elliott loss pattern, initial state stationary.

    The generator calls are, in order: one ``random`` for the initial state
    (skipped when alpha = beta = 0), then per sojourn one ``geometric`` for
    its length (skipped when the state is absorbing) and, in a good sojourn
    with eps > 0, one ``random`` filling that sojourn's slots of a float
    buffer in place. Bad sojourns are marked after the loop in one pass, and
    the good-state losses come from a single ``buffer < eps``.
    """
    rng = np.random.default_rng(seed)
    a, b = params.alpha, params.beta
    if a == 0 and b == 0:
        in_bad = False
    else:
        in_bad = rng.random() < a / (a + b)
    geometric, uniform, eps = rng.geometric, rng.random, params.eps
    u = np.zeros(horizon)  # 0 is never below eps when eps = 0
    edges = []  # start and end of each bad sojourn, in chain order
    pos = 0
    while pos < horizon:
        p = b if in_bad else a
        end = horizon if p == 0 else pos + geometric(p)
        if end > horizon:  # a sojourn may end past it; a tiny p draws up to 2**63 - 1
            end = horizon
        if in_bad:
            edges += pos, end
        elif eps > 0:
            uniform(out=u[pos:end])
        pos = end
        in_bad = not in_bad
    # sojourns are at least one slot long, so the edges are distinct and
    # the slots with an odd number of edges at or before them are bad
    flips = np.zeros(horizon + 1, dtype=bool)
    flips[edges] = True
    bits = u < eps
    bits |= np.logical_xor.accumulate(flips[:-1])
    return ErasureSequence(bits)
