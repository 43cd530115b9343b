"""Erasure sequence generation: sampled i.i.d. or two-state Markov
(Gilbert-Elliott) loss patterns.

Sampled generators take explicit 64-bit seeds and are reproducible bit for
bit; simulation outputs always record the seed they were driven by. The
Gilbert-Elliott sampler draws alternating geometric sojourn times instead
of stepping the chain slot by slot, which is exact and fast enough for
million-slot horizons.
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


def ge_average_loss(params: GeParams) -> float:
    """Stationary loss rate: eps weighted by beta/(alpha+beta) plus the
    bad-state mass alpha/(alpha+beta).

    With alpha = beta = 0 the chain never leaves its initial state; we
    start stationary-by-convention in the good state and return eps.
    """
    a, b = params.alpha, params.beta
    if a == 0 and b == 0:
        return params.eps
    return (b * params.eps + a) / (a + b)


def sample_ge(params: GeParams, horizon: int, seed: int) -> ErasureSequence:
    """Sample a Gilbert-Elliott loss pattern, initial state stationary."""
    rng = np.random.default_rng(seed)
    a, b = params.alpha, params.beta
    bits = np.zeros(horizon, dtype=bool)
    if a == 0 and b == 0:
        in_bad = False
    else:
        in_bad = rng.random() < a / (a + b)
    pos = 0
    while pos < horizon:
        if in_bad:
            run = horizon - pos if b == 0 else int(rng.geometric(b))
            run = min(run, horizon - pos)
            bits[pos : pos + run] = True
        else:
            run = horizon - pos if a == 0 else int(rng.geometric(a))
            run = min(run, horizon - pos)
            if params.eps > 0:
                bits[pos : pos + run] = rng.random(run) < params.eps
        pos += run
        in_bad = not in_bad
    return ErasureSequence(bits)
