"""Grouping algebra: frozen worked values plus structural properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaystream.spectrum import (
    DelayGrouping,
    SpectrumConstraint,
    delay_lower_bound,
    max_symbols_under_constraint,
    optimal_grouping,
    subtract_constraint,
)

from oracles import (
    concat_groupings,
    constraint_total,
    count_at_least,
    delay_lower_bound_fraction,
    max_symbols_kprime,
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
    return SpectrumConstraint.from_pairs([(4 - 2, 4), (4 - 1, 4)], min_allowed_delay=2)


def test_constraint_shape():
    con = constraint_fig4()
    assert con.entries == ((3, 4), (2, 4), (1, 0))
    assert con.allowed_above(2) == 4
    assert con.allowed_above(0) == 8


def test_max_symbols_first_link():
    con = constraint_fig4()
    k, kprime = max_symbols_kprime(12, 3, [3, 2], con)
    assert kprime == [3, 4]
    assert k == 3
    assert max_symbols_under_constraint(12, 3, [3, 2], con) == k


def test_max_symbols_second_link_after_subtraction():
    con = subtract_constraint(constraint_fig4(), G((3, 3)))
    assert con.entries == ((3, 1), (2, 4), (1, 0))
    k, kprime = max_symbols_kprime(12, 2, [3, 2, 1], con)
    assert kprime == [6, Fraction(14, 3), 5]
    assert k == 4
    assert max_symbols_under_constraint(12, 2, [3, 2, 1], con) == k


def test_subtract_constraint_worked_sequence():
    con = SpectrumConstraint.from_pairs([(3, 8), (2, 16), (1, 16)], min_allowed_delay=1)
    assert [c for _, c in con.entries] == [8, 16, 16, 0]
    con = subtract_constraint(con, G((3, 7), (2, 11)))
    assert [c for _, c in con.entries] == [1, 5, 16, 0]
    con = subtract_constraint(con, G((2, 4), (1, 18)))
    assert [c for _, c in con.entries] == [0, 0, 0, 0]


def test_subtract_constraint_identity_and_oversubscription():
    con = constraint_fig4()
    assert subtract_constraint(con, DelayGrouping(())) == con
    with pytest.raises(ValueError):
        subtract_constraint(con, G((3, 9)))


def test_subtract_conserves_total():
    con = constraint_fig4()
    used = G((2, 5), (1, 2))
    after = subtract_constraint(con, used)
    assert constraint_total(after) == constraint_total(con) - used.total()


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
    assert g.count_at(T1) == n - Fraction(T1 * (n - k), N)
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
    k = max_symbols_under_constraint(n, N, delays, con)
    if k <= 0 or (n - k) % N != 0:
        return
    T1 = delay_lower_bound(n, k, N)
    g = optimal_grouping(n, k, N, T1)
    if g.entries and g.worst_delay() > top:
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
    assert max_symbols_under_constraint(n, N, delays, con, delay_shift=shift) == k
