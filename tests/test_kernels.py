"""The integer elimination kernel against the dense Fraction reference."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2cat.kernels import Echelon, leading_minors

import refimpl

ENTRY = st.integers(-3, 3)


@st.composite
def integer_matrices(draw, max_rows=8, max_cols=10, square=False, deficient=True):
    """Small integer matrices; if deficient, some rows are zero or combine earlier ones."""
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    out: list[list[int]] = []
    for _ in range(rows):
        shape = draw(st.sampled_from(["free", "free", "zero", "combination"])) if deficient else "free"
        if shape == "zero":
            out.append([0] * cols)
        elif shape == "combination" and out:
            a, b = draw(ENTRY), draw(ENTRY)
            r, s = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append([a * x + b * y for x, y in zip(r, s)])
        else:
            out.append([draw(ENTRY) for _ in range(cols)])
    return out


def sparse(dense):
    return [dict(enumerate(row)) for row in dense]


@settings(max_examples=200, deadline=None)
@given(integer_matrices())
def test_rank_and_kernel_match_reference(dense):
    cols = len(dense[0])
    echelon = Echelon(sparse(dense))
    assert echelon.rank == refimpl.rank(dense)
    ours = echelon.kernel(cols)
    theirs = refimpl.rational_kernel(dense)
    assert len(ours) == len(theirs)
    if theirs:
        # equal dimension and a joint span no larger: the same subspace
        assert refimpl.rank(ours + theirs) == len(theirs)
    for vec in ours:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in dense)


@settings(max_examples=200, deadline=None)
@given(integer_matrices(square=True))
def test_leading_minors_match_reference_up_to_first_zero(dense):
    expected = [int(m) for m in refimpl.leading_minors(dense)]
    if 0 in expected:
        expected = expected[: expected.index(0) + 1]
    assert leading_minors(sparse(dense)) == expected


@settings(max_examples=200, deadline=None)
@given(integer_matrices(square=True, deficient=False), st.lists(ENTRY, min_size=8, max_size=8))
def test_back_substitution_matches_fraction_solution(dense, rhs):
    n = len(dense)
    augmented = [row + [b] for row, b in zip(dense, rhs)]
    assume(refimpl.rank(dense) == n)
    echelon = Echelon(sparse(augmented))
    # the reference kernel of [A | b] is spanned by (x, -1) with A x = b
    (ref,) = refimpl.rational_kernel(augmented)
    expected = [x / -ref[n] for x in ref[:n]]
    assert n not in echelon.pivots
    x, d = echelon.solution({n: -1})
    assert [Fraction(x[c], d) for c in range(n)] == expected
    assert d > 0 and gcd(d, *x.values()) == 1


@settings(max_examples=200, deadline=None)
@given(integer_matrices(), st.data())
def test_solution_and_kernel_are_integer_normal_forms(dense, data):
    cols = len(dense[0])
    echelon = Echelon(sparse(dense))
    free_columns = [c for c in range(cols) if c not in echelon.pivots]
    theirs = refimpl.rational_kernel(dense)
    assert len(theirs) == len(free_columns)
    # both bases are indexed by the same free columns, each set to 1 on its own
    values = {c: data.draw(ENTRY) for c in free_columns}
    x, d = echelon.solution(values)
    assert d > 0 and gcd(d, *x.values()) == 1
    expected = [sum((v * vec[c] for v, vec in zip(values.values(), theirs)), Fraction(0))
                for c in range(cols)]
    assert [Fraction(x.get(c, 0), d) for c in range(cols)] == expected
    ours = echelon.kernel(cols)
    for free, vec in zip(free_columns, ours):
        assert gcd(*vec) == 1 and vec[free] > 0
        assert all(vec[c] == 0 for c in free_columns if c != free)
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in dense)
    if theirs:
        assert refimpl.rank(ours + theirs) == len(theirs) == len(ours)

