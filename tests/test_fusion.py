from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cat import fusion
from sl2cat.fusion import FusionElement, simple
from sl2cat.presented import IndexSet, PresentedMatrix

import refimpl


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


# frozen low-degree expectations
R_EXPECTED = {
    0: (1,),
    1: (0, 1),
    2: (-1, 0, 1),
    3: (0, -2, 0, 1),
    4: (1, 0, -3, 0, 1),
}


def test_r_poly_low_degrees():
    for i, coeffs in R_EXPECTED.items():
        assert fusion.r_poly(i) == coeffs


def test_r_poly_recurrence_and_dimension_values():
    for i in range(60):
        assert fusion.poly_eval_int(fusion.r_poly(i), 2) == i + 1
    for i in range(2, 40):
        lhs = fusion.r_poly(i)
        rhs = [0] + list(fusion.r_poly(i - 1))
        for pos, c in enumerate(fusion.r_poly(i - 2)):
            rhs[pos] -= c
        assert lhs == tuple(rhs)


def test_clebsch_gordan_small_cases():
    assert fusion.tensor(simple(1), simple(1)) == FusionElement({0: 1, 2: 1})
    assert fusion.tensor(simple(2), simple(3)) == FusionElement({1: 1, 3: 1, 5: 1})
    assert fusion.tensor(simple(0), simple(7)) == simple(7)


def test_tensor_matches_weight_multiset_oracle():
    for m in range(0, 26):
        assert Counter(fusion.weights(m)) == refimpl.weight_multiset(m), m
        for n in range(0, 26):
            expected = refimpl.brute_tensor(m, n)
            got = fusion.tensor(simple(m), simple(n))
            assert dict(got.items()) == expected, (m, n)
            assert list(fusion.cg_support(m, n)) == sorted(expected), (m, n)
            assert set(expected.values()) == {1}, (m, n)


def test_poly_to_fusion_example():
    # x^3 = R_3 + 2 R_1
    assert fusion.poly_to_fusion((0, 0, 0, 1)) == FusionElement({3: 1, 1: 2})


def test_poly_fusion_round_trip_explicit():
    el = FusionElement({0: 2, 3: -1, 7: 5})
    assert fusion.poly_to_fusion(fusion.fusion_to_poly(el)) == el


elements = st.dictionaries(st.integers(0, 12), st.integers(-6, 6), max_size=5).map(FusionElement)


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_tensor_commutative(a, b):
    assert fusion.tensor(a, b) == fusion.tensor(b, a)


@settings(max_examples=80, deadline=None)
@given(elements, elements, elements)
def test_tensor_associative(a, b, c):
    assert fusion.tensor(fusion.tensor(a, b), c) == fusion.tensor(a, fusion.tensor(b, c))


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_ring_homomorphism_to_polynomials(a, b):
    # dual route: Clebsch-Gordan product vs polynomial multiplication
    lhs = fusion.fusion_to_poly(fusion.tensor(a, b))
    rhs = poly_mul(fusion.fusion_to_poly(a), fusion.fusion_to_poly(b))
    assert lhs == tuple(rhs)


@settings(max_examples=150, deadline=None)
@given(elements, elements)
def test_dim_multiplicative(a, b):
    assert fusion.dim(fusion.tensor(a, b)) == fusion.dim(a) * fusion.dim(b)


@settings(max_examples=150, deadline=None)
@given(elements)
def test_poly_round_trip(a):
    assert fusion.poly_to_fusion(fusion.fusion_to_poly(a)) == a


def test_rejects_negative_index():
    with pytest.raises(ValueError):
        simple(-1)
    with pytest.raises(ValueError):
        FusionElement({-1: 1})
    with pytest.raises(TypeError):
        FusionElement({"x": 1})
    with pytest.raises(TypeError):
        FusionElement({True: 1})
    with pytest.raises(TypeError):
        FusionElement({1: True})
    with pytest.raises(ValueError):
        fusion.weights(-1)
    with pytest.raises(ValueError):
        fusion.cg_support(2, -1)
    with pytest.raises(ValueError):
        fusion.r_poly(-2)
    with pytest.raises(ValueError):
        fusion.action(PresentedMatrix.identity(IndexSet.nat()), -1)


def test_action_reaches_a_deep_index_without_recursion():
    # the swap has eigenvalues +1 and -1, where R_i takes the values of period 6 in i
    swap = PresentedMatrix.from_dense([[0, 1], [1, 0]])
    assert fusion.action(swap, 6000) == fusion.action(swap, 0)
    assert fusion.action(swap, 6001) == swap
