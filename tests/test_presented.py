from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cat import fusion
from sl2cat.fusion import r_poly
from sl2cat.modcat import catalog, catalog_names
from sl2cat.presented import (
    IndexSet,
    PresentationError,
    PresentedMatrix,
    PresentedVector,
)

import refimpl


NAT = IndexSet.nat()
INT = IndexSet.int_()


def tridiagonal_nat() -> PresentedMatrix:
    return PresentedMatrix(NAT, diagonals={-1: 1, 1: 1})


# -- construction and normalization -------------------------------------------


def test_redundant_head_is_absorbed():
    explicit = PresentedMatrix(
        NAT,
        head_size=2,
        head={(0, 1): 1, (1, 0): 1, (1, 2): 1, (2, 1): 1},
        diagonals={-1: 1, 1: 1},
    )
    assert explicit == tridiagonal_nat()
    assert explicit.head_size == 0


def test_fork_head_normalizes_to_size_one():
    # two pendant rows attached to vertex 2, then tridiagonal
    m = PresentedMatrix(
        NAT,
        head_size=3,
        head={(0, 2): 1, (1, 2): 1, (2, 0): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1},
        diagonals={-1: 1, 1: 1},
    )
    assert m.head_size == 1
    assert m.head_entries() == [(0, 2, 1), (2, 0, 1)]
    # displayed window is unchanged by normalization
    assert m.truncate(5) == [
        [0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0],
        [1, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 0],
    ]


def test_a_second_hash_reads_the_kept_value(monkeypatch):
    # the hash of the normal form is kept beside it: a later hash neither
    # rebuilds the key nor hashes it again, which would read the whole head
    m = PresentedMatrix(IndexSet.nat(), 3, {(0, 1): 2, (1, 0): 1, (1, 2): 1}, {-1: 1, 1: 1})
    first = hash(m)
    keys = []
    key = PresentedMatrix._key
    monkeypatch.setattr(PresentedMatrix, "_key", lambda self: keys.append(self) or key(self))

    class Unhashable:
        def __hash__(self):
            raise AssertionError("the kept key was hashed again")

    object.__setattr__(m, "_norm", (Unhashable(),))
    assert hash(m) == first and hash(m) == first
    assert keys == []
    twin = PresentedMatrix(IndexSet.nat(), 3, {(0, 1): 2, (1, 0): 1, (1, 2): 1}, {-1: 1, 1: 1})
    assert hash(twin) == first and keys == [twin]


def test_huge_declared_head_normalizes_at_once():
    start = time.perf_counter()
    assert PresentedMatrix(NAT, 10**9) == PresentedMatrix.zero(NAT)
    doc = {
        "index": "nat",
        "head": {"size": 10**9, "entries": []},
        "tail": {"band": 0, "diagonals": {}},
    }
    assert PresentedMatrix.from_json_dict(doc) == PresentedMatrix.zero(NAT)
    sparse = PresentedMatrix(NAT, 10**9, {(3, 10**6): 2})
    assert sparse.head_size == 4 and sparse.entry(3, 10**6) == 2
    assert time.perf_counter() - start < 1.0


def test_rejects_entry_outside_head_region():
    with pytest.raises(PresentationError):
        PresentedMatrix(NAT, head_size=1, head={(2, 3): 5}, diagonals={})


def test_mapping_head_rejects_non_integer_coordinates():
    with pytest.raises(PresentationError):
        PresentedMatrix(IndexSet.finite(2), head={(True, 0): 1})
    with pytest.raises(PresentationError):
        PresentedMatrix(NAT, 2, head={(0.5, 1): 1})


def test_mapping_head_checks_every_coordinate_of_every_entry():
    # row 1 and column 0 are first seen with int keys; the second entry reuses them
    with pytest.raises(PresentationError):
        PresentedMatrix(IndexSet.finite(2), head={(1, 0): 1, (1.0, 1): 1})
    with pytest.raises(PresentationError):
        PresentedMatrix(IndexSet.finite(2), head={(1, 0): 1, (True, 1): 1})
    with pytest.raises(PresentationError):
        PresentedMatrix(NAT, 2, head={(0, 1): 1, (1, 1.0): 1})


def test_int_index_is_pure_toeplitz():
    m = PresentedMatrix(INT, diagonals={-1: 1, 1: 1})
    assert m.entry(-7, -8) == 1 and m.entry(3, 4) == 1 and m.entry(0, 2) == 0
    with pytest.raises(PresentationError):
        PresentedMatrix(INT, head_size=1, head={(0, 0): 1})


def test_finite_matrix_round_trip_dense():
    rows = [[0, 2, 0], [1, 0, 1], [0, 1, 0]]
    m = PresentedMatrix.from_dense(rows)
    assert m.truncate(3) == rows
    assert m.index == IndexSet.finite(3)
    assert m.tail_start() == 3


# -- arithmetic against the dense oracle ---------------------------------------


def test_square_of_tridiagonal_has_corner_head():
    sq = tridiagonal_nat().mul(tridiagonal_nat())
    assert sq.entry(0, 0) == 1
    assert sq.diagonals() == {-2: 1, 0: 2, 2: 1}
    assert sq.head_size == 1
    assert sq.entry(1, 1) == 2


def test_poly_eval_shifts_support():
    a = tridiagonal_nat()
    r2 = a.poly_eval((-1, 0, 1))
    assert [r2.entry(0, j) for j in range(6)] == [0, 0, 1, 0, 0, 0]
    assert [r2.entry(2, j) for j in range(6)] == [1, 0, 1, 0, 1, 0]
    r3 = a.poly_eval((0, -2, 0, 1))
    assert [r3.entry(0, j) for j in range(6)] == [0, 0, 0, 1, 0, 0]
    assert [r3.entry(3, j) for j in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]


def nat_matrices(max_size: int, max_coord: int, max_band: int):
    """Matrices on N: head size, head coordinates and band up to the bounds."""
    return st.builds(
        lambda size, head, diags: PresentedMatrix(
            NAT,
            head_size=size,
            head={k: v for k, v in head.items() if min(k) < size},
            diagonals=diags,
        ),
        st.integers(0, max_size),
        st.dictionaries(
            st.tuples(st.integers(0, max_coord), st.integers(0, max_coord)),
            st.integers(-3, 3),
            max_size=10,
        ),
        st.dictionaries(st.integers(-max_band, max_band), st.integers(-3, 3), max_size=5),
    )


small_nat_matrices = nat_matrices(5, 7, 4)

small_int_matrices = st.builds(
    lambda diags: PresentedMatrix(INT, diagonals=diags),
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=5),
)

small_finite_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)
).map(PresentedMatrix.from_dense)


def dense_window(m: PresentedMatrix, n: int, lo: int = 0) -> list[list[int]]:
    return [[m.entry(i, j) for j in range(lo, lo + n)] for i in range(lo, lo + n)]


def past_the_tail(m: PresentedMatrix) -> int:
    """A window reaching a full band past the first row ruled by the tail alone."""
    return max(m.head_size + m.band, m.head_extent()) + m.band + 1


def crop(dense: list[list[int]], lo: int, n: int) -> list[list[int]]:
    return [row[lo:lo + n] for row in dense[lo:lo + n]]


def with_a_far_entry(a, b, col, past, v):
    """(a, b) with b given one entry in a head column, in a row past head_size + 8."""
    size = max(b.head_size, 1)
    head = {(i, j): x for i, j, x in b.head_entries()}
    head[size + 8 + past, min(col, size - 1)] = v
    return a, PresentedMatrix(NAT, size, head, b.diagonals())


# a narrow left factor and a wide right one whose stored column reaches past
# its band: the product's head stops below the right factor's tail_start
narrow_times_far_reaching = st.builds(
    with_a_far_entry, nat_matrices(3, 5, 2), nat_matrices(4, 6, 8),
    st.integers(0, 3), st.integers(1, 6), st.sampled_from((-2, -1, 1, 2)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(small_nat_matrices, small_nat_matrices), narrow_times_far_reaching))
def test_mul_matches_dense_oracle(pair):
    a, b = pair
    prod = a.mul(b)
    # the true product's rows reach past_the_tail(b) + a.band, so a row that
    # prod leaves out still shows
    window = max(past_the_tail(prod), past_the_tail(b) + a.band)
    big = window + a.band + a.head_extent()  # wide enough for exact dense rows
    dense = refimpl.mat_mul(dense_window(a, big), dense_window(b, big))
    assert dense_window(prod, window) == crop(dense, 0, window)


@settings(max_examples=200, deadline=None)
@given(small_nat_matrices, small_nat_matrices)
def test_add_matches_dense_oracle(a, b):
    total = a.add(b)
    window = max(past_the_tail(total), past_the_tail(a), past_the_tail(b))
    dense = refimpl.mat_add(dense_window(a, window), dense_window(b, window))
    assert dense_window(total, window) == dense


def test_add_of_a_huge_shared_head_is_structural(time_limit):
    a = PresentedMatrix(NAT, 10**9, diagonals={1: 1})
    with time_limit(2.0):
        total = a.add(a)
    assert total == PresentedMatrix(NAT, 10**9, diagonals={1: 2})


def test_mul_of_a_huge_shared_head_is_structural(time_limit):
    a = PresentedMatrix(NAT, 10**9, diagonals={1: 1})
    with time_limit(2.0):
        square = a.mul(a)
    assert square == PresentedMatrix(NAT, 10**9, diagonals={2: 1})


@settings(max_examples=100, deadline=None)
@given(small_nat_matrices, small_nat_matrices)
def test_head_extent_is_one_past_the_largest_stored_coordinate(a, b):
    for m in (a, b, a.add(b), a.mul(b)):
        largest = max((max(i, j) for i, j, _ in m.head_entries()), default=-1)
        assert m.head_extent() == largest + 1


@settings(max_examples=100, deadline=None)
@given(small_nat_matrices)
def test_rows_and_columns_from_tail_start_hold_only_the_tail(m):
    start, tail = m.tail_start(), m.diagonals()
    for i in range(start, start + 4):
        assert dict(m.row_entries(i)) == {i + d: v for d, v in tail.items()}
        assert dict(m.col_entries(i)) == {i - d: v for d, v in tail.items()}


@settings(max_examples=100, deadline=None)
@given(small_int_matrices, small_int_matrices)
def test_int_mul_and_add_match_dense_oracle(a, b):
    window, pad = 8, a.band
    dense = refimpl.mat_mul(
        dense_window(a, window + 2 * pad, -4 - pad), dense_window(b, window + 2 * pad, -4 - pad)
    )
    assert dense_window(a.mul(b), window, -4) == crop(dense, pad, window)
    assert dense_window(a.add(b), window, -4) == refimpl.mat_add(
        dense_window(a, window, -4), dense_window(b, window, -4)
    )


def dense_pair(n: int, cell=st.integers(-3, 3)):
    rows = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(rows, rows)


# about four entries in five are zero
sparse_cell = st.sampled_from((0,) * 24 + (-3, -2, -1, 1, 2, 3))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.integers(0, 5).flatmap(dense_pair),
    st.integers(0, 12).flatmap(lambda n: dense_pair(n, sparse_cell)),
))
def test_finite_mul_and_add_match_dense_oracle(pair):
    x, y = pair
    a, b = PresentedMatrix.from_dense(x), PresentedMatrix.from_dense(y)
    assert a.mul(b).truncate(len(x)) == refimpl.mat_mul(x, y)
    assert a.add(b).truncate(len(x)) == refimpl.mat_add(x, y)


def with_a_head_past(a, b, c, extra):
    """(a, b, c) with c's head grown past every head of a and b, so past the
    head block of a·b; a nonzero tail keeps it from normalizing away."""
    size = max(a.tail_start(), b.tail_start(), c.head_size) + extra
    head = {(i, j): v for i, j, v in c.head_entries()}
    return a, b, PresentedMatrix(NAT, size, head, c.diagonals() or {0: 1})


def dense_triple(n: int):
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    return st.tuples(rows, rows, rows).map(lambda t: tuple(map(PresentedMatrix.from_dense, t)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(small_nat_matrices, small_nat_matrices, small_nat_matrices),
    st.builds(with_a_head_past, small_nat_matrices, small_nat_matrices, small_nat_matrices,
              st.integers(1, 4)),
    st.tuples(small_int_matrices, small_int_matrices, small_int_matrices),
    st.integers(0, 5).flatmap(dense_triple),
))
def test_fused_step_matches_three_matrices_and_dense_oracle(triple):
    a, b, c = triple
    fused = a.mul(b, c)
    assert fused == a.mul(b).add(c.scale(-1))
    if a.index.kind == "finite":
        n = a.index.size
        dense = refimpl.mat_mul(a.truncate(n), b.truncate(n))
        assert fused.truncate(n) == refimpl.mat_add(dense, refimpl.mat_scale(-1, c.truncate(n)))
        return
    if a.index.kind == "int":
        lo, window, pad = -4, 8, a.band
    else:
        lo, pad = 0, 0
        window = max(past_the_tail(fused), past_the_tail(b) + a.band, past_the_tail(c))
    big = window + 2 * pad + a.band + (a.head_extent() if lo == 0 else 0)
    dense = crop(refimpl.mat_mul(dense_window(a, big, lo - pad), dense_window(b, big, lo - pad)),
                 pad, window)
    assert dense_window(fused, window, lo) == refimpl.mat_add(
        dense, refimpl.mat_scale(-1, dense_window(c, window, lo)))


def test_fused_step_needs_one_index_set():
    with pytest.raises(PresentationError):
        tridiagonal_nat().mul(tridiagonal_nat(), PresentedMatrix(INT, diagonals={0: 1}))


def test_the_builder_raises_on_an_entry_outside_the_head_region():
    for index, head_size, rows in [(NAT, 1, {2: {3: 5}}), (NAT, 1, {-1: {0: 1}}),
                                   (IndexSet.finite(2), 0, {0: {2: 1}}), (INT, 0, {0: {0: 1}}),
                                   (NAT, 1, {0: {0: 1.5}})]:
        with pytest.raises(PresentationError):
            PresentedMatrix._build(index, head_size, rows, {})


def assert_r_poly_of(fk: PresentedMatrix, f1: PresentedMatrix, k: int) -> None:
    """fk is R_k(f1) on a dense window, by the dense Horner oracle."""
    if f1.index.kind == "finite":
        n = f1.index.size
        assert fk.truncate(n) == refimpl.mat_poly(r_poly(k), f1.truncate(n)), k
    elif f1.index.kind == "int":
        window, pad = 8, k * f1.band
        dense = refimpl.mat_poly(r_poly(k), dense_window(f1, window + 2 * pad, -4 - pad))
        assert dense_window(fk, window, -4) == crop(dense, pad, window), k
    else:
        window = past_the_tail(fk)
        big = window + k * f1.band + f1.head_extent()
        dense = refimpl.mat_poly(r_poly(k), dense_window(f1, big))
        assert dense_window(fk, window) == crop(dense, 0, window), k


@pytest.mark.parametrize("name", catalog_names())
def test_poly_eval_of_r_poly_matches_dense_oracle(name):
    f1 = catalog(name).f1
    for k in range(9):
        assert_r_poly_of(f1.poly_eval(r_poly(k)), f1, k)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_nat_matrices, small_int_matrices, small_finite_matrices),
       st.lists(st.integers(0, 8), min_size=1, max_size=3))
def test_action_recurrence_matches_dense_oracle(f1, ks):
    # 8 first on a cold chain, then 3 read back from it, then drawn k in drawn order
    fusion._chain.cache_clear()
    for k in [8, 3, *ks]:
        assert_r_poly_of(fusion.action(f1, k), f1, k)


NAT_CATALOG = [name for name in catalog_names() if catalog(name).f1.index == NAT]


@pytest.mark.parametrize("name", NAT_CATALOG)
def test_derivation_drops_at_most_one_edge_per_matrix(monkeypatch, name):
    # a product's head stops where its tail takes over, so the normal form
    # has almost nothing left to strip; a head block out to max(tail_start)
    # would drop 46 edges from F_1 F_47 and over 1,100 on the chain to 48
    dropped = []
    normalize = PresentedMatrix._normalize

    def counting(self):
        before = self.head_size
        normalize(self)
        dropped.append(before - self.head_size)

    monkeypatch.setattr(PresentedMatrix, "_normalize", counting)
    f1 = catalog(name).f1
    fusion._chain.cache_clear()
    fusion.action(f1, 48)
    assert max(dropped) <= 1 and sum(dropped) <= 48, (max(dropped), sum(dropped))


@pytest.mark.parametrize("name", NAT_CATALOG)
def test_each_recurrence_step_builds_one_matrix(monkeypatch, name):
    # F_i = F_1 F_{i-1} - F_{i-2} is one fused product, not mul, scale and add
    built = []
    build = PresentedMatrix._build

    def counting(*args, **kwargs):
        built.append(args)
        return build(*args, **kwargs)

    f1 = catalog(name).f1
    fusion._chain.cache_clear()
    monkeypatch.setattr(PresentedMatrix, "_build", staticmethod(counting))
    fusion.action(f1, 1)
    seeds = len(built)
    fusion.action(f1, 48)
    assert len(built) - seeds == 47


@pytest.mark.parametrize("name", NAT_CATALOG)
def test_action_matches_horner_at_large_k(name):
    # Horner multiplies with the big factor on the left, whose tail_start
    # then bounds the head: a second route to the same F_k
    f1 = catalog(name).f1
    for k in (47, 48):
        assert fusion.action(f1, k) == f1.poly_eval(r_poly(k)), k


@settings(max_examples=100, deadline=None)
@given(small_nat_matrices)
def test_transpose_involution(a):
    assert a.transpose().transpose() == a
    assert dense_window(a.transpose(), 7) == [
        [a.entry(j, i) for j in range(7)] for i in range(7)
    ]


nat_vectors = st.builds(
    lambda head, tails: PresentedVector(NAT, head, tails),
    st.lists(st.integers(-4, 4), min_size=0, max_size=4),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3)), min_size=1, max_size=4),
)


def vectors_for(m: PresentedMatrix):
    """Vectors on m's index set: full length, periodic-affine tail of period
    1 to 4, or one constant."""
    if m.index.kind == "finite":
        n = m.index.size
        return st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(
            lambda head: PresentedVector(m.index, head))
    if m.index.kind == "int":
        return st.integers(-3, 3).map(lambda b: PresentedVector(INT, (), [(0, b)]))
    return nat_vectors


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_nat_matrices, small_finite_matrices, small_int_matrices).flatmap(
    lambda m: st.tuples(st.just(m), vectors_for(m))))
def test_apply_matches_dense_window(pair):
    m, vec = pair
    result = m.apply(vec)
    if m.index.kind == "finite":
        rows = cols = range(m.index.size)
    elif m.index.kind == "int":
        rows, cols = range(-6, 6), range(-6 - m.band, 6 + m.band)
    else:
        rows, cols = range(12), range(max(12 + m.band, m.head_extent()))
    for i in rows:
        assert result.entry(i) == sum(m.entry(i, j) * vec.entry(j) for j in cols)


def test_apply_certifies_affine_tail():
    # Cartan matrix of the one-ended chain annihilates v_i = i + 1
    chain = tridiagonal_nat()
    cartan = PresentedMatrix.scaled_identity(NAT, 2).add(chain.scale(-1))
    v = PresentedVector(NAT, (), [(1, 1)])
    assert cartan.apply(v).is_zero()
    # and the (1, 2, 2, 2, ...) vector for the double-bond chain
    double = PresentedMatrix(NAT, 1, {(0, 1): 1, (1, 0): 2}, {-1: 1, 1: 1})
    cartan2 = PresentedMatrix.scaled_identity(NAT, 2).add(double.scale(-1))
    w = PresentedVector(NAT, (1,), [(0, 2)])
    assert cartan2.apply(w).is_zero()


def test_vector_normalization_is_linear_in_the_head(time_limit):
    with time_limit(1.0):
        zero = PresentedVector(NAT, [0] * 40_000)
    assert zero == PresentedVector(NAT)
    odd = PresentedVector(NAT, [2 * i + 1 for i in range(40_000)], [(2, 1)])
    assert odd.head == ()


def refined_tails(vec: PresentedVector, period: int) -> list[tuple[int, int]]:
    """Slope and base of each residue class mod period, read off two far entries."""
    far = len(vec.head) + period
    tails = []
    for s in range(period):
        v0, v1 = vec.entry(s + period * far), vec.entry(s + period * (far + 1))
        tails.append((v1 - v0, v0 - (v1 - v0) * far))
    return tails


@settings(max_examples=200, deadline=None)
@given(nat_vectors, nat_vectors, st.integers(0, 6), st.integers(1, 3), st.integers(0, 12),
       st.integers(1, 3))
def test_vector_normal_form_and_addition(vec, other, pad, factor, index, delta):
    # the same sequence over a padded head at a refined period
    n = len(vec.head) + pad
    again = PresentedVector(NAT, vec.truncate(n), refined_tails(vec, vec.period * factor))
    assert again == vec and hash(again) == hash(vec)
    changed = vec.truncate(max(n, index + 1))
    changed[index] += delta
    assert PresentedVector(NAT, changed, vec.tails) != vec
    window = 40
    total = [x + y for x, y in zip(vec.truncate(window), other.truncate(window))]
    assert vec.add(other).truncate(window) == total


def test_vector_normalization_absorbs_affine_head():
    v = PresentedVector(NAT, (1, 2, 3, 4), [(1, 1)])
    assert v.head == ()
    assert v.entry(0) == 1 and v.entry(9) == 10
    w = PresentedVector(NAT, (5, 2, 3), [(1, 1)])
    assert w.head == (5,)


# -- symmetry and positivity ----------------------------------------------------


def test_symmetry_checks():
    assert tridiagonal_nat().is_symmetric()
    skew = PresentedMatrix(NAT, 1, {(0, 1): 2, (1, 0): 1}, {-1: 1, 1: 1})
    assert not skew.is_symmetric()
    assert skew.transpose().is_symmetric() is False
    assert PresentedMatrix(INT, diagonals={1: 1}).is_symmetric() is False


def test_nonnegativity():
    assert tridiagonal_nat().is_nonnegative()
    assert not PresentedMatrix(NAT, diagonals={0: -1}).is_nonnegative()


# -- serialization ----------------------------------------------------------------


def test_json_round_trip_bit_exact():
    samples = [
        tridiagonal_nat(),
        PresentedMatrix(NAT, 1, {(0, 1): 2, (1, 0): 1}, {-1: 1, 1: 1}),
        PresentedMatrix(INT, diagonals={-1: 1, 1: 1}),
        PresentedMatrix.from_dense([[2, -1], [-4, 2]]),
        PresentedMatrix(NAT, 1, {(0, 0): 1, (0, 1): 1, (1, 0): 1}, {-1: 1, 1: 1}),
    ]
    for m in samples:
        doc = m.to_json_dict()
        again = PresentedMatrix.from_json_dict(json.loads(json.dumps(doc)))
        assert again == m
        assert again.to_json_dict() == doc


def test_json_validation_errors():
    with pytest.raises(PresentationError):
        PresentedMatrix.from_json_dict({"head": {}})
    with pytest.raises(PresentationError):
        PresentedMatrix.from_json_dict({"index": "nat", "head": {"entries": [[0, 0]]}})
    with pytest.raises(PresentationError):
        PresentedMatrix.from_json_dict(
            {"index": "int", "head": {"size": 1, "entries": [[0, 0, 1]]}}
        )
    with pytest.raises(PresentationError):
        PresentedMatrix.from_json_dict(
            {"index": "nat", "tail": {"band": 0, "diagonals": {"2": 1}}}
        )
    for diagonals in ({"1": 1, "01": 7}, {"0": 1, "-0": 2}, {"+1": 1}, {" 1": 1},
                      {"1_0": 1}, {"1\n": 1}):
        with pytest.raises(PresentationError):
            PresentedMatrix.from_json_dict(
                {"index": "nat", "tail": {"band": 1, "diagonals": diagonals}}
            )


def test_vector_json_round_trip():
    v = PresentedVector(NAT, (1, 5), [(2, 1)])
    doc = v.to_json_dict()
    assert PresentedVector.from_json_dict(doc, NAT) == v


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_nat_matrices, small_int_matrices, small_finite_matrices), st.data())
def test_truncate_matches_the_entrywise_window(m, data):
    if m.index.kind == "finite":
        n = data.draw(st.integers(0, m.index.size))
    else:
        n = data.draw(st.integers(0, past_the_tail(m) + 3))
    lo = -(n // 2) if m.index.kind == "int" else 0
    assert m.truncate(n) == dense_window(m, n, lo)


def test_a_large_window_costs_its_cells_not_an_entry_call_each(time_limit):
    f1 = catalog("Ainf").f1
    with time_limit(1.0):
        window = f1.truncate(2_000)
    for i in (0, 1, 1_000, 1_999):
        assert window[i] == [f1.entry(i, j) for j in range(2_000)]


def test_int_truncation_is_centered():
    m = PresentedMatrix(INT, diagonals={-1: 2, 1: 3})
    window = m.truncate(4)
    assert window == [[0, 3, 0, 0], [2, 0, 3, 0], [0, 2, 0, 3], [0, 0, 2, 0]]
