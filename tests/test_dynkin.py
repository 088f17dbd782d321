from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cat import dynkin
from sl2cat.dynkin import (
    AFFINE_RANKS,
    CLASSICAL_RANKS,
    DynkinType,
    GCMError,
    check_coxeter_annihilation,
    classify,
    classify_components,
    coxeter_number,
    find_positive_null_vector,
    gcm_of,
    graph_of,
    template,
    template_types,
    validate_gcm,
)
from sl2cat.fusion import r_poly
from sl2cat.kernels import leading_minors
from sl2cat.presented import IndexSet, PresentedMatrix, PresentedVector

import refimpl


def finite_gcm(rows):
    n = len(rows)
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return PresentedMatrix(IndexSet.finite(n), head=entries)


# frozen positive null vectors for the affine templates, one per family
# at its minimum legal rank (plus the exceptional ones)
AFFINE_NULL = {
    ("At", 2): [1, 1, 1],
    ("At11", 1): [2, 1],
    ("At12", 1): [1, 1],
    ("Bt", 3): [1, 2, 2, 1],
    ("BCt", 2): [1, 2, 2],
    ("Ct", 2): [1, 1, 1],
    ("BDt", 3): [1, 2, 1, 1],
    ("Dt", 4): [1, 2, 1, 1, 1],
    ("CDt", 3): [1, 2, 2, 1],
    ("E6t", 6): [1, 2, 3, 2, 1, 2, 1],
    ("E7t", 7): [1, 2, 3, 4, 3, 2, 1, 2],
    ("E8t", 8): [2, 4, 6, 5, 4, 3, 2, 1, 3],
    ("F41t", 4): [1, 2, 3, 2, 1],
    ("F42t", 4): [2, 4, 3, 2, 1],
    ("G21t", 2): [1, 2, 1],
    ("G22t", 2): [3, 2, 1],
    ("Lt", 2): [1, 1],
    ("BLt", 2): [1, 2, 2],
    ("CLt", 2): [1, 1, 1],
    ("DLt", 3): [1, 2, 2, 1],
}

INFINITE_NULL = {
    "Ainf": ((), 1, 1),
    "Ainfinf": ((), 0, 1),
    "Binf": ((1,), 0, 2),
    "Cinf": ((), 0, 1),
    "Dinf": ((1, 1), 0, 2),
    "Tinf": ((), 0, 1),
}


def test_every_template_satisfies_the_axioms():
    for dtype in template_types(8):
        gcm = template(dtype)
        validate_gcm(gcm)
        adjacency = graph_of(gcm)
        assert adjacency.is_nonnegative()
        assert gcm_of(adjacency) == gcm


def test_classical_templates_classify_to_themselves():
    for dtype in template_types(8):
        if dtype.kind != "classical":
            continue
        result = classify(template(dtype))
        assert result.kind == "classical"
        assert result.dtype == dtype
        assert all(m > 0 for m in result.certificate["minors"])
        assert result.certificate["coxeter_number"] == coxeter_number(dtype)
        assert result.certificate["annihilation"] is True


def test_minors_agree_with_cholesky_oracle():
    for dtype in template_types(6):
        gcm = template(dtype)
        if gcm.index.kind != "finite":
            continue
        dense = [[Fraction(v) for v in row] for row in gcm.truncate(gcm.index.size)]
        positive = refimpl.ldlt_positive_definite(dense)
        result = classify(gcm)
        if result.kind == "classical":
            assert positive
        else:
            assert not positive


def test_frozen_minors():
    a2 = classify(template(DynkinType("classical", "A", 2)))
    assert a2.certificate["minors"] == [2, 3]
    g2 = classify(template(DynkinType("classical", "G2", 2)))
    assert g2.certificate["minors"] == [2, 1]
    b3 = classify(template(DynkinType("classical", "B", 3)))
    assert b3.certificate["minors"] == [2, 2, 2]


def test_coxeter_annihilation_is_sharp():
    # R_{h-1} kills the adjacency matrix, R_{h-2} does not
    for dtype in (DynkinType("classical", "A", 3), DynkinType("classical", "B", 2),
                  DynkinType("classical", "G2", 2)):
        assert check_coxeter_annihilation(dtype)
        adjacency = graph_of(template(dtype))
        h = coxeter_number(dtype)
        assert not adjacency.poly_eval(r_poly(h - 2)).is_zero()


def test_affine_templates_classify_with_positive_null_vectors():
    for dtype in template_types(8):
        if dtype.kind != "affine":
            continue
        result = classify(template(dtype))
        assert result.kind == "affine", (dtype, result.certificate)
        assert result.dtype == dtype
        null = result.certificate["null_vector"]
        assert all(x > 0 for x in null)
        assert refimpl.gcd_list(null) == 1


def test_frozen_affine_null_vectors():
    for (family, rank), expected in AFFINE_NULL.items():
        gcm = template(DynkinType("affine", family, rank))
        vec = find_positive_null_vector(gcm)
        assert vec is not None, family
        assert list(vec.head) == expected, family


def test_affine_null_vector_matches_kernel_oracle():
    for (family, rank) in AFFINE_NULL:
        gcm = template(DynkinType("affine", family, rank))
        n = gcm.index.size
        dense = [[Fraction(v) for v in row] for row in gcm.truncate(n)]
        kernel = refimpl.rational_kernel(dense)
        assert len(kernel) == 1
        vec = find_positive_null_vector(gcm)
        ratio = {Fraction(h) / k for h, k in zip(vec.head, kernel[0]) if k}
        assert len(ratio) == 1


def test_infinite_templates_classify_to_themselves():
    for family, (head, a, b) in INFINITE_NULL.items():
        dtype = DynkinType("infinite", family)
        gcm = template(dtype)
        result = classify(gcm)
        assert result.kind == "infinite", (family, result.certificate)
        assert result.dtype == dtype
        vec = find_positive_null_vector(gcm)
        assert vec.head == head and vec.tails == ((a, b),), family
        assert gcm.apply(vec).is_zero()


def test_null_vectors_annihilate_in_a_dense_window():
    # cross-check apply() against plain dense multiplication away from
    # the truncation boundary
    for family in INFINITE_NULL:
        gcm = template(DynkinType("infinite", family))
        if gcm.index.kind != "nat":
            continue
        vec = find_positive_null_vector(gcm)
        size = 20
        dense = gcm.truncate(size)
        values = [vec.entry(i) for i in range(size)]
        for i in range(size - gcm.band):
            assert sum(dense[i][j] * values[j] for j in range(size)) == 0


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(5)))
def test_classification_is_permutation_invariant(perm):
    base = template(DynkinType("affine", "F41t", 4))
    n = 5
    dense = base.truncate(n)
    shuffled = finite_gcm([[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    result = classify(shuffled)
    assert result.kind == "affine"
    assert result.dtype.family == "F41t"


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(4)))
def test_classical_permutation_invariance(perm):
    base = template(DynkinType("classical", "D", 4))
    dense = base.truncate(4)
    shuffled = finite_gcm([[dense[perm[i]][perm[j]] for j in range(4)] for i in range(4)])
    result = classify(shuffled)
    assert result.kind == "classical"
    assert result.dtype == DynkinType("classical", "D", 4)


def _relabel(gcm, rng):
    n = gcm.index.size
    dense = gcm.truncate(n)
    perm = list(range(n))
    rng.shuffle(perm)
    return finite_gcm([[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def test_relabelled_finite_templates_classify_to_themselves():
    rng = random.Random(9)
    for dtype in template_types(9):
        if dtype.kind == "infinite":
            continue
        result = classify(_relabel(template(dtype), rng))
        assert (result.kind, result.dtype) == (dtype.kind, dtype), result.certificate


def _dense_profile(dense, v):
    """The profile of vertex v read from a dense adjacency, in O(n)."""
    out = sorted(x for j, x in enumerate(dense[v]) if j != v and x)
    inc = sorted(row[v] for j, row in enumerate(dense) if j != v and row[v])
    return (dense[v][v], tuple(out), tuple(inc))


def test_finite_template_table_matches_the_filter_over_every_type():
    # the table builds ranks n - 1 and n only and profiles each edge table;
    # filtering every template type of rank <= n by its vertex count and
    # profiling its dense adjacency gives the same keys and candidates, in order
    for n in range(1, 17):
        table: dict = {}
        for dtype in template_types(n):
            if dtype.kind != "infinite":
                edges, count = dynkin._diagram(dtype)
                if count == n:
                    dense = [[edges.get((i, j), 0) for j in range(n)] for i in range(n)]
                    profiles = [_dense_profile(dense, v) for v in range(n)]
                    key = (dtype.kind, tuple(sorted(profiles)))
                    table.setdefault(key, []).append((dtype, edges, profiles))
        assert dynkin._finite_templates(n) == table, n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_edge_profiles_match_dense_profiles(dense):
    n = len(dense)
    assert dynkin._dense_profiles(dense) == [_dense_profile(dense, v) for v in range(n)]


def test_relabelled_long_diagrams_classify_quickly(time_limit):
    # the matcher places each vertex next to one already placed; an order
    # by profile rarity alone never returned on a relabelled A_40
    rng = random.Random(40)
    for dtype in (DynkinType("classical", "A", 40), DynkinType("classical", "D", 30),
                  DynkinType("affine", "Lt", 30)):
        gcm = _relabel(template(dtype), rng)
        with time_limit(2.0):
            result = classify(gcm)
        assert result.dtype == dtype


def _relabel_head(adjacency, perm):
    """The nat-indexed diagram with vertex perm[i] renamed i for i < len(perm)."""
    window = len(perm)
    extent = max(adjacency.head_extent(), window) + adjacency.band

    def old(i):
        return perm[i] if i < window else i

    head = {}
    for i in range(extent):
        for j in range(extent):
            v = adjacency.entry(old(i), old(j))
            if v and min(i, j) < window:
                head[(i, j)] = v
    return PresentedMatrix(adjacency.index, window, head, adjacency.diagonals())


def test_relabeled_infinite_head_still_matches():
    # two pendants written as vertices 1 and 2 hanging off vertex 0, with
    # the ray starting at vertex 0 via an explicit (0,3) edge
    head = {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1, (0, 3): 1, (3, 0): 1}
    adjacency = PresentedMatrix(IndexSet.nat(), 3, head, {-1: 1, 1: 1})
    result = classify(gcm_of(adjacency))
    assert result.kind == "infinite"
    assert result.dtype.family == "Dinf"
    # heads scrambled past the six-vertex window the matcher once capped at
    rng = random.Random(0)
    for family in ("Binf", "Cinf", "Dinf", "Tinf"):
        canonical = graph_of(template(DynkinType("infinite", family)))
        for window in (6, 7, 8):
            perm = list(range(window))
            while perm == sorted(perm):
                rng.shuffle(perm)
            relabeled = _relabel_head(canonical, perm)
            assert relabeled != canonical
            result = classify(gcm_of(relabeled))
            assert result.kind == "infinite", (family, perm, result.certificate)
            assert result.dtype.family == family


def _chain_with_a_double_bond(n: int, cut: int | None = None) -> PresentedMatrix:
    """A GCM on N: an A-chain whose last head edge (n - 1, n) is a double bond,
    so the head of n vertices does not normalize away; cut drops edge (cut, cut + 1)."""
    head = {(i, i): 2 for i in range(n)}
    for i in range(n - 1):
        if i != cut:
            head[i, i + 1] = head[i + 1, i] = -1
    head[n - 1, n], head[n, n - 1] = -2, -1
    return PresentedMatrix(IndexSet.nat(), n, head, {-1: -1, 0: 2, 1: -1})


def test_infinite_connectivity_is_linear_in_the_head(time_limit):
    # the certificate follows the row and column maps; a dense window
    # scanned a whole row and column per vertex, 0.38 s at a head of 2,000
    n = 10_000
    with time_limit(2.0):
        whole = classify(_chain_with_a_double_bond(n))
        cut = classify(_chain_with_a_double_bond(n, cut=n // 2))
    assert whole.certificate["reason"] == "no strictly positive eventually-affine null vector found"
    assert cut.certificate == {"reason": "could not certify connectivity of the infinite diagram"}


def test_one_vertex_cases():
    assert classify(finite_gcm([[2]])).dtype == DynkinType("classical", "A", 1)
    assert classify(finite_gcm([[1]])).to_json() == {
        "kind": "unrecognized", "type": None,
        "certificate": {"reason": "positive definite but matches no classical template"}}
    assert classify(finite_gcm([[0]])).to_json() == {
        "kind": "unrecognized", "type": None,
        "certificate": {"reason": "positive null vector but matches no affine template"}}


def test_unrecognized_outcomes():
    indefinite = classify(finite_gcm([[2, -3], [-3, 2]]))
    assert indefinite.kind == "unrecognized"
    disconnected = classify(finite_gcm([[2, 0], [0, 2]]))
    assert disconnected.kind == "unrecognized"
    assert "connected" in disconnected.certificate["reason"]
    even_lattice = classify(PresentedMatrix(IndexSet.int_(), diagonals={0: 2, -2: -1, 2: -1}))
    assert even_lattice.kind == "unrecognized"


NEITHER = {"reason": "neither positive definite nor a positive null vector"}


def test_a_huge_bond_answers_without_elimination(time_limit):
    # elimination on entries near -10**6 took 24.6 s at this rank
    rng = random.Random(7)
    n = 100
    rows = [[2 if i == j else rng.choice((-10**6, -999_999)) for j in range(n)] for i in range(n)]
    gcm = finite_gcm(rows)
    with time_limit(2.0):
        result = classify(gcm)
    assert (result.kind, result.certificate) == ("unrecognized", NEITHER)


def test_a_huge_bond_gives_the_answer_of_the_full_route():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 6)
        rows = [[rng.choice((2, 2, 2, 1, 0)) if i == j else 0 for j in range(n)]
                for i in range(n)]
        order = rng.sample(range(n), n)
        pairs = list(zip(order, order[1:]))  # a spanning path keeps it connected
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        for i, j in pairs:
            rows[i][j], rows[j][i] = rng.randint(-3, -1), rng.randint(-3, -1)
        i, j = rng.sample(range(n), 2)
        rows[i][j], rows[j][i] = rng.choice([(-1, -5), (-5, -1), (-3, -2), (-2, -3), (-3, -3),
                                             (-1, -7), (-6, -4)])
        gcm = finite_gcm(rows)
        assert not all(m > 0 for m in leading_minors(dict(enumerate(r)) for r in rows)), rows
        assert find_positive_null_vector(gcm) is None, rows
        result = classify(gcm)
        assert (result.kind, result.certificate) == ("unrecognized", NEITHER), rows


def test_classify_components_of_a_disconnected_gcm():
    # A_2 on {0, 2}, affine A~12 on {1, 3}, A_1 on {4}
    gcm = finite_gcm([[2, 0, -1, 0, 0], [0, 2, 0, -2, 0], [-1, 0, 2, 0, 0],
                      [0, -2, 0, 2, 0], [0, 0, 0, 0, 2]])
    pieces = classify_components(gcm)
    assert [comp for comp, _ in pieces] == [[0, 2], [1, 3], [4]]
    assert [(res.kind, res.dtype.family, res.dtype.rank) for _, res in pieces] == [
        ("classical", "A", 2), ("affine", "At12", 1), ("classical", "A", 1)]
    assert classify_components(finite_gcm([[2, -1], [-1, 2]]))[0][1] == classify(
        finite_gcm([[2, -1], [-1, 2]]))


def test_classify_components_needs_a_finite_gcm():
    with pytest.raises(GCMError, match="componentwise classification needs a finite matrix"):
        classify_components(template(DynkinType("infinite", "Dinf")))


def test_gcm_axiom_violations_raise():
    with pytest.raises(GCMError):
        validate_gcm(finite_gcm([[2, 1], [-1, 2]]))
    with pytest.raises(GCMError):
        validate_gcm(finite_gcm([[2, -1], [0, 2]]))
    with pytest.raises(GCMError):
        validate_gcm(finite_gcm([[3, -1], [-1, 2]]))
    with pytest.raises(GCMError):
        validate_gcm(PresentedMatrix(IndexSet.nat(), diagonals={0: 2, 1: 1, -1: -1}))


def test_template_rank_bounds():
    with pytest.raises(GCMError):
        template(DynkinType("classical", "D", 3))
    with pytest.raises(GCMError):
        template(DynkinType("classical", "E6", 7))
    with pytest.raises(GCMError):
        template(DynkinType("affine", "At", 1))
    with pytest.raises(GCMError):
        template(DynkinType("infinite", "Zinf"))


def test_display_and_keys():
    assert DynkinType("classical", "A", 2).display() == "A_2"
    assert DynkinType("classical", "E6", 6).display() == "E6"
    assert DynkinType("affine", "At", 2).display() == "A~_2"
    assert DynkinType("affine", "E8t", 8).display() == "E~8"
    assert DynkinType("infinite", "Ainfinf").display() == "A_inf_inf"


def test_b_infinity_transpose_is_c_infinity():
    binf = template(DynkinType("infinite", "Binf"))
    cinf = template(DynkinType("infinite", "Cinf"))
    assert binf.transpose() == cinf
    assert classify(binf.transpose()).dtype.family == "Cinf"
