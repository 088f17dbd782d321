from __future__ import annotations

from collections import Counter

import pytest

from sl2cat import fusion
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


def poly_at(p, x):
    return sum(c * x**k for k, c in enumerate(p))


def test_r_poly_recurrence_and_dimension_values():
    for i in range(60):
        assert poly_at(fusion.r_poly(i), 2) == i + 1
    for i in range(2, 40):
        lhs = fusion.r_poly(i)
        rhs = [0] + list(fusion.r_poly(i - 1))
        for pos, c in enumerate(fusion.r_poly(i - 2)):
            rhs[pos] -= c
        assert lhs == tuple(rhs)


def test_clebsch_gordan_small_cases():
    assert list(fusion.cg_support(1, 1)) == [0, 2]
    assert list(fusion.cg_support(2, 3)) == [1, 3, 5]
    assert list(fusion.cg_support(0, 7)) == [7]


def test_tensor_matches_weight_multiset_oracle():
    for m in range(0, 26):
        assert Counter(fusion.weights(m)) == refimpl.weight_multiset(m), m
        for n in range(0, 26):
            expected = refimpl.brute_tensor(m, n)
            assert list(fusion.cg_support(m, n)) == sorted(expected), (m, n)
            assert set(expected.values()) == {1}, (m, n)


def test_dim_multiplicative():
    for m in range(26):
        for n in range(26):
            assert sum(k + 1 for k in fusion.cg_support(m, n)) == (m + 1) * (n + 1), (m, n)


def test_tensor_commutative():
    for m in range(26):
        for n in range(26):
            assert fusion.cg_support(m, n) == fusion.cg_support(n, m), (m, n)


def test_tensor_associative():
    # (L(m) x L(n)) x L(p) and L(m) x (L(n) x L(p)) have the same summands
    for m in range(9):
        for n in range(9):
            for p in range(9):
                left = Counter(j for k in fusion.cg_support(m, n) for j in fusion.cg_support(k, p))
                right = Counter(j for k in fusion.cg_support(n, p) for j in fusion.cg_support(m, k))
                assert left == right, (m, n, p)


def test_ring_homomorphism_to_polynomials():
    # R_m R_n = sum of R_k over cg_support(m, n): action's recurrence
    # F_i = F_1 F_{i-1} - F_{i-2} is the case m = 1
    for m in range(26):
        for n in range(26):
            rhs = [0] * (m + n + 1)
            for k in fusion.cg_support(m, n):
                for pos, c in enumerate(fusion.r_poly(k)):
                    rhs[pos] += c
            assert poly_mul(fusion.r_poly(m), fusion.r_poly(n)) == tuple(rhs), (m, n)


def test_rejects_negative_index():
    with pytest.raises(ValueError):
        fusion.weights(-1)
    with pytest.raises(ValueError):
        fusion.cg_support(2, -1)
    with pytest.raises(ValueError):
        fusion.cg_support(-1, 2)
    with pytest.raises(ValueError):
        fusion.r_poly(-2)
    with pytest.raises(ValueError):
        fusion.action(PresentedMatrix.scaled_identity(IndexSet.nat()), -1)


def test_action_reaches_a_deep_index_without_recursion():
    # the swap has eigenvalues +1 and -1, where R_i takes the values of period 6 in i
    swap = PresentedMatrix.from_dense([[0, 1], [1, 0]])
    assert fusion.action(swap, 6000) == fusion.action(swap, 0)
    assert fusion.action(swap, 6001) == swap
