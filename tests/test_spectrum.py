"""Grouping algebra: frozen worked values plus structural properties."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaystream.planner import _pairing_constraint
from relaystream.spectrum import (
    DelayGrouping,
    delay_lower_bound,
    max_symbols_under_constraint,
    optimal_grouping,
    subtract_constraint,
)

from oracles import (
    SpectrumConstraint,
    concat_groupings,
    count_at_least,
    delay_lower_bound_fraction,
    list_form,
    max_symbols_kprime,
    pairing_constraint_by_pairs,
    subtract_constraint_by_dict,
)


def G(*pairs):
    return DelayGrouping.from_pairs(pairs)


def test_delay_lower_bound_values():
    assert delay_lower_bound(5, 3, 2) == 4
    assert delay_lower_bound(4, 3, 1) == 3
    assert delay_lower_bound(2, 1, 1) == 1
    # prefix symbols relax the bound
    assert delay_lower_bound_fraction(5, 3, 2, [1]) == 3
    assert delay_lower_bound_fraction(5, 3, 2, [1, 1]) == 2


def test_delay_lower_bound_matches_fraction_oracle():
    for n in range(1, 61):
        for k in range(n):
            for N in range(1, 9):
                assert delay_lower_bound(n, k, N) == delay_lower_bound_fraction(n, k, N), (n, k, N)


def test_delay_lower_bound_rejects_rateless():
    with pytest.raises(ValueError):
        delay_lower_bound(5, 5, 2)


@pytest.mark.parametrize(
    "count", [Fraction(1, 2), Fraction(2, 1), 1.0, True], ids=["Fraction(1,2)", "Fraction(2,1)", "1.0", "True"]
)
def test_counts_must_be_integers(count):
    with pytest.raises(ValueError, match="integers"):
        DelayGrouping(((2, count),))
    with pytest.raises(ValueError, match="integers"):
        SpectrumConstraint(((2, count), (1, 0)))
    if not isinstance(count, bool):  # summing in from_pairs turns True into 1
        with pytest.raises(ValueError, match="integers"):
            DelayGrouping.from_pairs([(2, count), (1, 1)])


@pytest.mark.parametrize("entries,message", [
    (((2, 1), (2, 1)), "delays must be strictly decreasing"),
    (((1, 1), (2, 1)), "delays must be strictly decreasing"),
    (((1, -1), (2, 1)), "delays must be strictly decreasing"),  # delays checked first
    (((2, 1), (1, -1)), "counts must be nonnegative integers"),
    (((2, True),), "counts must be nonnegative integers"),
    (((2, 1.0),), "counts must be nonnegative integers"),
    (((2, Fraction(2, 1)),), "counts must be nonnegative integers"),
    (((2, np.int64(3)),), "counts must be nonnegative integers"),
    (((3, True), (2, -1)), "counts must be nonnegative integers"),
    (((2, 1, 0),), "too many values to unpack (expected 2)"),
    (((2.0, 1), (1.0, 1)), None),
    (((np.int64(2), 1), (np.int64(1), 1)), None),
    (((float("nan"), 1), (1, 1)), None),  # nan compares false both ways
    (((2, 0),), None),
    ((), None),
], ids=[
    "equal-delays", "increasing-delays", "increasing-delays-negative-count", "negative-count",
    "bool-count", "float-count", "Fraction-count", "int64-count", "bool-then-negative",
    "three-field-entry", "float-delays", "int64-delays", "nan-delay", "zero-count", "empty",
])
def test_grouping_validation_outcomes(entries, message):
    # each outcome, rejection message or acceptance, as the per-entry
    # generator checks gave it before validation moved to whole-column passes
    if message is None:
        assert DelayGrouping(entries).entries == entries
    else:
        with pytest.raises(ValueError) as exc:
            DelayGrouping(entries)
        assert str(exc.value) == message


def test_grouping_rejects_entries_of_mixed_length():
    for entries in (((2, 1, 5), (1, 1)), ((2, 1), (1,))):
        with pytest.raises(ValueError):
            DelayGrouping(entries)


def test_optimal_grouping_table_code():
    assert optimal_grouping(5, 3, 2, 4).entries == ((4, 1), (3, 1), (2, 1))


def test_optimal_grouping_wide_code():
    assert optimal_grouping(20, 12, 2, 4).entries == ((4, 4), (3, 4), (2, 4))


def test_optimal_grouping_heavier_budget():
    # head group carries n - (T1/N)(n-k); only T1=6 clears the converse bound
    assert delay_lower_bound(20, 8, 4) == 6
    assert optimal_grouping(20, 8, 4, 6).entries == ((6, 2), (5, 3), (4, 3))
    with pytest.raises(ValueError):
        optimal_grouping(20, 8, 4, 4)


def test_optimal_grouping_requires_divisibility():
    with pytest.raises(ValueError):
        optimal_grouping(10, 4, 4, 6)


def test_concat_groupings_merges_counts():
    assert concat_groupings(G((2, 1), (1, 1)), G((3, 1), (2, 1), (1, 1))).entries == (
        (3, 1),
        (2, 2),
        (1, 2),
    )
    g = G((4, 2), (2, 1))
    assert concat_groupings(g, DelayGrouping(())) == g


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=6),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=6),
)
def test_concat_commutes_and_conserves(a_pairs, b_pairs):
    a, b = DelayGrouping.from_pairs(a_pairs), DelayGrouping.from_pairs(b_pairs)
    ab, ba = concat_groupings(a, b), concat_groupings(b, a)
    assert ab == ba
    assert ab.total() == a.total() + b.total()


def test_grouping_dense_with_internal_zeros():
    g = G((5, 2), (2, 3))
    assert g.entries == ((5, 2), (4, 0), (3, 0), (2, 3))
    assert count_at_least(g, 3) == 2
    assert g.total() == 5


def constraint_fig4():
    # hop-1 grouping [(2,4),(1,4)] flipped through deadline T=4,
    # terminal at (smallest allowed hop-2 delay) - 1 = 1
    return _pairing_constraint(4, [(2, [4, 4])], (0,))


def test_constraint_shape():
    con = constraint_fig4()
    assert con == (3, [4, 4, 0])
    oracle = pairing_constraint_by_pairs(4, [G((2, 4), (1, 4))], (0,))
    assert list_form(oracle) == con
    assert oracle.allowed_above(2) == 4
    assert oracle.allowed_above(0) == 8


def test_max_symbols_first_link():
    con = constraint_fig4()
    k, kprime = max_symbols_kprime(12, 3, [3, 2], SpectrumConstraint(((3, 4), (2, 4), (1, 0))))
    assert kprime == [3, 4]
    assert k == 3
    assert max_symbols_under_constraint(12, 3, [3, 2], con) == k


def test_max_symbols_second_link_after_subtraction():
    con = subtract_constraint(constraint_fig4(), (3, [3]))
    assert con == (3, [1, 4, 0])
    k, kprime = max_symbols_kprime(12, 2, [3, 2, 1], SpectrumConstraint(((3, 1), (2, 4), (1, 0))))
    assert kprime == [6, Fraction(14, 3), 5]
    assert k == 4
    assert max_symbols_under_constraint(12, 2, [3, 2, 1], con) == k


def test_subtract_constraint_worked_sequence():
    con = (3, [8, 16, 16, 0])
    con = subtract_constraint(con, (3, [7, 11]))
    assert con == (3, [1, 5, 16, 0])
    con = subtract_constraint(con, (2, [4, 18]))
    assert con == (3, [0, 0, 0, 0])


def test_subtract_constraint_identity_and_oversubscription():
    con = constraint_fig4()
    assert subtract_constraint(con, (0, [])) == con
    with pytest.raises(ValueError, match="oversubscribed"):
        subtract_constraint(con, (3, [9]))
    with pytest.raises(ValueError, match="above the constraint's delay range"):
        subtract_constraint(con, (4, [1]))


def test_subtract_conserves_total():
    con = constraint_fig4()
    after = subtract_constraint(con, (2, [5, 2]))
    assert sum(after[1]) == sum(con[1]) - 7


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_list_algebra_matches_dataclass_oracle():
    # subtraction, the constrained maximization and the pairing flip in
    # list form against the validated dataclass form with dict algebra
    rng = random.Random(77)
    carried = below_terminal = refused = zero_budget = zero_links = 0
    for _ in range(3000):
        top = rng.randint(0, 10)
        bottom = top - rng.randint(0, 6)
        zero = rng.random() < 0.1
        pairs = [(d, 0 if zero else rng.randint(0, 6)) for d in range(bottom + 1, top + 1)]
        con = SpectrumConstraint.from_pairs(pairs, min_allowed_delay=bottom + 1)
        zero_budget += zero
        lo = max(0, bottom - 3)
        used = DelayGrouping.from_pairs(
            (rng.randint(lo, top + 1), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))
        )
        expect = _outcome(lambda: list_form(subtract_constraint_by_dict(con, used)))
        got = _outcome(subtract_constraint, list_form(con), list_form(used))
        assert got == expect, (con, used)
        if expect[0] == "ValueError":
            refused += 1
        else:
            below_terminal += any(c and d < bottom for d, c in used.entries)
            carried += any(c > dict(con.entries).get(d, 0) for d, c in used.entries)

        for shift in range(4):
            N = rng.randint(1, 4)
            n = rng.randint(1, 40)
            delays = range(max(N - 1, rng.randint(0, top + 2)), N - 2, -1)
            k, _ = max_symbols_kprime(n, N, delays, con, delay_shift=shift)
            assert max_symbols_under_constraint(n, N, delays, list_form(con), shift) == k

        hop, dts = [], []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:  # a link that carries nothing
                g = DelayGrouping(())
            elif kind == 1:  # a zero-budget link: every symbol at delay 0
                g = DelayGrouping.from_pairs([(0, rng.randint(1, 5))])
            else:
                g = DelayGrouping.from_pairs(
                    (rng.randint(1, 8), rng.randint(0, 5)) for _ in range(rng.randint(1, 4))
                )
            zero_links += kind < 2
            hop.append(g)
            dts.append(rng.randint(0, 3))
        T = max((g.entries[0][0] + dt for g, dt in zip(hop, dts) if g.entries), default=0)
        T += rng.randint(0, 4)
        expect = _outcome(lambda: list_form(pairing_constraint_by_pairs(T, hop, dts)))
        got = _outcome(_pairing_constraint, T, [list_form(g) for g in hop], dts)
        assert got == expect, (T, hop, dts)
    assert min(carried, below_terminal, refused, zero_budget, zero_links) >= 100


@st.composite
def feasible_code(draw):
    N = draw(st.integers(1, 5))
    parity_steps = draw(st.integers(1, 6))
    parity = N * parity_steps
    k = draw(st.integers(1, 24))
    n = k + parity
    lo = delay_lower_bound(n, k, N)
    hi = (N * n) // parity  # head count stays nonnegative up to here
    T1 = draw(st.integers(lo, max(lo, hi)))
    return n, k, N, T1


@settings(max_examples=120)
@given(feasible_code())
def test_optimal_grouping_meets_bound_with_equality(code):
    n, k, N, T1 = code
    g = optimal_grouping(n, k, N, T1)
    prefix = []
    for d, c in g.entries:
        if c > 0:
            assert d >= delay_lower_bound_fraction(n, k, N, prefix)
        prefix.append(c)
    # every tail group sits exactly on the pre-ceiling bound (the head group
    # may be trimmed away entirely when T1 sits at its feasibility edge)
    seen = g.entries[0][1] if g.entries else 0
    for d, c in g.entries[1:]:
        exact = Fraction(N * n, n - k) * (1 - Fraction(seen, n)) - 1
        assert exact == d
        seen += c
    # head and tail counts per the extremal characterization
    assert dict(g.entries).get(T1, 0) == n - Fraction(T1 * (n - k), N)
    if g.entries[1:]:
        assert g.entries[-1] == (N, (n - k) // N)


@st.composite
def constraint_and_link(draw):
    top = draw(st.integers(2, 8))
    min_allowed = draw(st.integers(1, top))
    counts = [draw(st.integers(0, 6)) for _ in range(top - min_allowed + 1)]
    con = SpectrumConstraint.from_pairs(
        [(min_allowed + i, c) for i, c in enumerate(counts)], min_allowed
    )
    # the candidate delay list top..N-1 must be nonempty for the link to fit
    N = draw(st.integers(1, min(4, top + 1)))
    n = draw(st.integers(8, 40))
    return con, N, n, top


@settings(max_examples=150)
@given(constraint_and_link())
def test_constrained_max_respects_cumulative_budget(args):
    con, N, n, top = args
    delays = list(range(top, N - 2, -1))
    k = max_symbols_under_constraint(n, N, delays, list_form(con))
    if k <= 0 or (n - k) % N != 0:
        return
    T1 = delay_lower_bound(n, k, N)
    g = optimal_grouping(n, k, N, T1)
    if g.entries and g.entries[0][0] > top:
        return
    for d, _ in g.entries:
        assert count_at_least(g, d) <= con.allowed_above(d - 1)


@settings(max_examples=200)
@given(constraint_and_link(), st.integers(0, 3))
def test_max_symbols_matches_fraction_oracle(args, shift):
    # the integer floor per delay equals the floor of the least exact k'
    con, N, n, top = args
    delays = list(range(top, N - 2, -1))
    k, _ = max_symbols_kprime(n, N, delays, con, delay_shift=shift)
    assert max_symbols_under_constraint(n, N, delays, list_form(con), delay_shift=shift) == k
