"""Field and MDS layer checks against independent hand-rolled oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaystream import gf

from oracles import block_encode, oracle_rank, slow_mul


def test_mul_frozen_values():
    # 2*2 = x*x = x^2 = 4, no reduction
    assert gf.gf_mul(2, 2) == 4
    # 128*2 = x^8 -> reduce by 0x11D -> 0x1D = 29
    assert gf.gf_mul(128, 2) == 29
    assert gf.gf_mul(0, 77) == 0
    assert gf.gf_mul(1, 77) == 77


def test_mul_matches_polynomial_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf.gf_mul(a, b) == slow_mul(a, b)


def test_inv_is_inverse():
    for x in range(1, 256):
        assert gf.gf_mul(x, gf.gf_inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.gf_inv(0)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_ring_axioms(a, b, c):
    assert gf.gf_mul(a, b) == gf.gf_mul(b, a)
    assert gf.gf_mul(a, gf.gf_mul(b, c)) == gf.gf_mul(gf.gf_mul(a, b), c)
    assert gf.gf_mul(a, b ^ c) == gf.gf_mul(a, b) ^ gf.gf_mul(a, c)


def test_make_mds_identity_cases():
    spec = gf.make_mds(1, 1)
    assert spec.generator == ((1,),)
    spec = gf.make_mds(4, 4)
    for i in range(4):
        assert spec.generator[i][i] == 1
        assert sum(spec.generator[i]) == 1


def test_make_mds_rejects_oversized():
    with pytest.raises(ValueError):
        gf.make_mds(257, 3)


def test_make_mds_5_3_all_submatrices_invertible():
    spec = gf.make_mds(5, 3)
    for cols in itertools.combinations(range(5), 3):
        sub = [[spec.generator[i][c] for c in cols] for i in range(3)]
        assert oracle_rank(sub, slow_mul) == 3, cols


def test_systematic_prefix():
    for n, k in [(5, 3), (8, 4), (6, 1), (7, 7)]:
        spec = gf.make_mds(n, k)
        msg = tuple((17 * i + 3) % 256 for i in range(k))
        word = block_encode(spec, msg)
        assert word[:k] == msg


def test_decode_every_single_erasure_of_4_3():
    spec = gf.make_mds(4, 3)
    msg = (250, 7, 33)
    word = list(block_encode(spec, msg))
    for erased in range(4):
        rx = [None if p == erased else word[p] for p in range(4)]
        assert gf.solve_erasures(spec, rx) == msg


def test_round_trip_exhaustive_small():
    # every (n, k) with n <= 8 and every erasure set up to the radius
    rnd_val = lambda i: (i * 73 + 11) % 256
    for n in range(1, 9):
        for k in range(1, n + 1):
            spec = gf.make_mds(n, k)
            msg = tuple(rnd_val(i) for i in range(k))
            word = block_encode(spec, msg)
            for t in range(n - k + 1):
                for erased in itertools.combinations(range(n), t):
                    rx = [None if p in erased else word[p] for p in range(n)]
                    assert gf.solve_erasures(spec, rx) == msg


def test_inverse_exhaustive_small():
    # every (n, k) with n <= 8 and every k-subset of columns: G[:, cols] times
    # its cached inverse is the identity, multiplied without tables
    for n in range(1, 9):
        for k in range(1, n + 1):
            spec = gf.make_mds(n, k)
            for cols in itertools.combinations(range(n), k):
                inv = gf._inverse(spec, cols)
                for i in range(k):
                    for j in range(k):
                        acc = 0
                        for r in range(k):
                            acc ^= slow_mul(spec.generator[i][cols[r]], inv[r][j])
                        assert acc == (i == j), (n, k, cols)


def test_too_many_erasures_raises():
    spec = gf.make_mds(5, 3)
    word = block_encode(spec, (1, 2, 3))
    rx = [None, None, None, word[3], word[4]]
    with pytest.raises(gf.UnrecoverableError):
        gf.solve_erasures(spec, rx)


@settings(max_examples=60)
@given(st.data())
def test_round_trip_property(data):
    n = data.draw(st.integers(1, 10), label="n")
    k = data.draw(st.integers(1, n), label="k")
    spec = gf.make_mds(n, k)
    msg = tuple(data.draw(st.lists(st.integers(0, 255), min_size=k, max_size=k)))
    word = block_encode(spec, msg)
    t = data.draw(st.integers(0, n - k), label="erasures")
    erased = data.draw(st.permutations(range(n)))[:t]
    rx = [None if p in erased else word[p] for p in range(n)]
    assert gf.solve_erasures(spec, rx) == msg
