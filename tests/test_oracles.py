from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2cat import oracles, presented
from sl2cat.kernels import Echelon
from sl2cat.modcat import catalog
from sl2cat.oracles import (
    NamedOObject,
    NotInCatalog,
    OClassVector,
    SlCharacter,
    borel_tensor_N,
    borel_tensor_Q,
    class_of,
    decompose_in_N,
    derive_catalog_matrix,
    jordan_kronecker_oracle,
    q_module_profile,
    restriction_action_matrix,
    restriction_consistency_solve,
    tensor_in_O,
    verma,
)
from sl2cat.presented import IndexSet, PresentedMatrix, PresentedVector

import refimpl


def L(w):
    return NamedOObject("L", w)


def P(w):
    return NamedOObject("P", w)


# -- O-engine ------------------------------------------------------------------


def test_tensor_in_o_basic_shifts():
    assert tensor_in_O(1, verma(-1)).entries() == {0: 1, -2: 1}
    v = OClassVector({-2: 1, 0: 1, 3: 2})
    assert tensor_in_O(0, v).entries() == v.entries()
    assert tensor_in_O(1, OClassVector({-2: 1, 0: 1})).entries() == {-3: 1, -1: 2, 1: 1}
    assert not tensor_in_O(1, v).coset


def test_tensor_in_o_preserves_coset_flag():
    v = verma(0, coset=True)
    out = tensor_in_O(2, v)
    assert out.coset
    assert out.entries() == {-2: 1, 0: 1, 2: 1}


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=4))
def test_tensor_in_o_fusion_compatibility(entries):
    v = OClassVector(entries)
    for m in range(5):
        for n in range(5):
            nested = tensor_in_O(m, tensor_in_O(n, v))
            flat = Counter()
            for k in range(abs(m - n), m + n + 1, 2):
                flat.update(tensor_in_O(k, v).entries())
            assert nested.entries() == {w: c for w, c in flat.items() if c}, (m, n)


def test_named_object_validation():
    assert L(-1).display() == "L(-1)"
    assert P(-2).display() == "P(-2)"
    with pytest.raises(ValueError):
        L(0)
    with pytest.raises(ValueError):
        P(-1)
    with pytest.raises(ValueError):
        NamedOObject("X", -1)
    assert NamedOObject.parse("P(-3)") == P(-3)
    assert NamedOObject.parse("Delta(4)") == NamedOObject("Delta", 4)
    with pytest.raises(ValueError):
        NamedOObject.parse("P(1)")


def test_class_of_identities():
    assert class_of(L(-1)).entries() == {-1: 1}
    assert class_of(L(-4)).entries() == verma(-4).entries() == {-4: 1}
    assert class_of(P(-2)).entries() == {-2: 1, 0: 1}
    assert class_of(P(-5)).entries() == {-5: 1, 3: 1}
    assert not any(class_of(obj).coset for obj in (L(-1), P(-2)))


def test_decompose_frozen_lines():
    assert decompose_in_N(tensor_in_O(1, class_of(L(-1)))) == {P(-2): 1}
    assert decompose_in_N(tensor_in_O(1, class_of(P(-2)))) == {L(-1): 2, P(-3): 1}
    assert decompose_in_N(tensor_in_O(1, class_of(L(-3)))) == {L(-2): 1, L(-4): 1}


def test_decompose_projective_ladder():
    # F_1 P(w): the w = -2 line doubles the antidominant simple, every lower
    # line is the two neighbouring projectives
    for w in range(-12, -2):
        out = decompose_in_N(tensor_in_O(1, class_of(P(w))))
        assert out == {P(w - 1): 1, P(w + 1): 1}, w
    assert decompose_in_N(tensor_in_O(1, class_of(P(-2)))) == {L(-1): 2, P(-3): 1}


def test_decompose_rejects_classes_outside_catalog():
    with pytest.raises(NotInCatalog):
        decompose_in_N(OClassVector({0: 1}))
    with pytest.raises(NotInCatalog):
        decompose_in_N(OClassVector({-1: -1}))
    with pytest.raises(ValueError):
        decompose_in_N(verma(0, coset=True))


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.one_of(
            st.integers(-9, -1).map(lambda w: ("L", w)),
            st.integers(-9, -2).map(lambda w: ("P", w)),
        ),
        st.integers(1, 3),
        max_size=4,
    )
)
def test_decompose_round_trip(parts):
    objs = {NamedOObject(kind, w): c for (kind, w), c in parts.items()}
    total = Counter()
    for obj, c in objs.items():
        total.update({w: c * v for w, v in class_of(obj).items()})
    assert decompose_in_N(OClassVector(total)) == objs


# -- Borel-module rules --------------------------------------------------------


def test_borel_tensor_rules():
    assert borel_tensor_N(0) == (1, -1)
    assert borel_tensor_N(-7) == (-6, -8)
    assert borel_tensor_Q(0) == (1,)
    assert borel_tensor_Q(5) == (4, 6)


def test_q_module_profile():
    prof = q_module_profile(3)
    assert prof["top"] == -3
    assert prof["socle"] == 3
    assert prof["factors"] == [-3, -1, 1, 3]


# -- realization derivations ----------------------------------------------------


def test_realizations_reproduce_catalog_fixtures():
    expected = {
        "A_inf_tilting": "Ainf",
        "C_inf_projinj": "Cinf",
        "A_infinf_generic": "AinfInf",
        "N5_borel": "AinfInf",
        "N6_borel": "Ainf",
    }
    for name, fixture in expected.items():
        assert derive_catalog_matrix(name) == catalog(fixture).f1, name


def test_unknown_realization():
    with pytest.raises(KeyError):
        derive_catalog_matrix("B_inf_anything")


# -- characters ------------------------------------------------------------------


def dense_tensor_L1(values: list[int]) -> list[int]:
    """Independent route: expand through brute-force weight multisets."""
    out = [0] * (len(values) + 1)
    for k, c in enumerate(values):
        if not c:
            continue
        for m, mult in refimpl.brute_tensor(1, k).items():
            out[m] += c * mult
    return out


def test_character_towers_and_values():
    even = SlCharacter.tower(0, 2)
    assert even.truncate(7) == [1, 0, 1, 0, 1, 0, 1]
    shifted = SlCharacter.tower(3, 2)
    assert shifted.truncate(8) == [0, 0, 0, 1, 0, 1, 0, 1]
    full = SlCharacter.tower(2, 1)
    assert full.truncate(6) == [0, 0, 1, 1, 1, 1]
    mod4 = SlCharacter.mod_class(2, 4)
    assert mod4.truncate(9) == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_character_equality_is_presentation_independent():
    a = SlCharacter.tower(0, 2)
    b = SlCharacter((1, 0, 1, 0), 2, ((0, 1), (0, 0)))
    assert a == b
    assert SlCharacter.mod_class(0, 4) != SlCharacter.mod_class(2, 4)


def test_equal_characters_hash_alike():
    # one character stored with three heads and periods
    forms = [SlCharacter((), 1, [(0, 1)]), SlCharacter((1,), 1, [(0, 1)]),
             SlCharacter((), 2, [(0, 1), (0, 1)])]
    assert forms[0] == forms[1] == forms[2]
    assert len({hash(c) for c in forms}) == 1
    assert len(set(forms)) == 1
    assert len({SlCharacter.tower(0, 2), SlCharacter((1, 0, 1), 2, ((0, 0), (0, 1)))}) == 1


def test_equality_and_hashing_reuse_the_stored_normal_form(monkeypatch):
    calls = []
    normal_form = presented._normal_form

    def counting(*args):
        calls.append(args)
        return normal_form(*args)

    monkeypatch.setattr(presented, "_normal_form", counting)
    nat = IndexSet.nat()
    plain = PresentedVector(nat, (1, 0, 1), [(0, 1), (0, 0)])
    kept = SlCharacter((1, 0, 1), 2, ((0, 0), (0, 1)))
    other = SlCharacter.mod_class(1, 2)
    assert calls
    calls.clear()
    assert plain == kept == SlCharacter.tower(0, 2) and kept != other
    assert len({plain, kept, other, SlCharacter.tower(0, 2)}) == 2
    assert not kept.is_zero()
    assert calls == []


def test_character_tensor_matches_brute_force():
    for char in [
        SlCharacter.tower(0, 2),
        SlCharacter.tower(5, 2),
        SlCharacter.tower(0, 1),
        SlCharacter.tower(4, 1),
        SlCharacter.mod_class(0, 4),
        SlCharacter.mod_class(2, 4),
        SlCharacter((3, 0, 1), 1, ((1, 2),)),
    ]:
        window = 24
        got = oracles._A_INF.apply(char).truncate(window)
        want = dense_tensor_L1(char.truncate(window + 1))[:window]
        assert got == want, char.to_json()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=4))
def test_random_character_tensor_matches_brute_force(head, tails):
    char = SlCharacter(head, len(tails), tails)
    window = 30
    got = oracles._A_INF.apply(char).truncate(window)
    assert got == dense_tensor_L1(char.truncate(window + 1))[:window]


def test_character_addition():
    total = SlCharacter.mod_class(0, 4).add(SlCharacter.mod_class(2, 4))
    assert total == SlCharacter.tower(0, 2)


def test_character_keeps_its_head_and_period():
    # chain_3 prints its three-entry head although two entries would do
    chain3 = SlCharacter.tower(3, 2)
    assert chain3.to_json() == {"head": [0, 0, 0], "period": 2,
                                "tail": [{"slope": 0, "base": 1}, {"slope": 0, "base": 0}]}
    assert chain3 == SlCharacter((0, 0), 2, ((0, 0), (0, 1)))
    doubled = SlCharacter((2,), 2, ((1, 3), (2, 0)))
    assert doubled.truncate(7) == [2, 3, 0, 4, 2, 5, 4]
    assert doubled.to_json()["tail"] == [{"slope": 1, "base": 3}, {"slope": 2, "base": 0}]


def test_fit_periodic_skips_a_negative_tail():
    # at head length 0 the residue-0 slope is 1 - 5 < 0, so the fit moves on
    values = [5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
    fitted = oracles._fit_periodic(values, 4)
    assert fitted.head == (5,)
    assert fitted.truncate(len(values)) == values


# -- restriction systems ----------------------------------------------------------


def test_takiff_system_consistent():
    report = restriction_consistency_solve("takiff", truncation=20)
    assert report.status == "consistent"
    assert report.relations_checked == 21
    assert report.characters["chain_0"] == SlCharacter.tower(0, 2)
    assert report.characters["chain_3"] == SlCharacter.tower(3, 2)


def test_schrodinger_system_consistent():
    report = restriction_consistency_solve("schrodinger", truncation=20)
    assert report.status == "consistent"
    assert report.relations_checked == 21
    assert report.characters["chain_0"] == SlCharacter.tower(0, 1)
    assert report.characters["chain_2"] == SlCharacter.tower(2, 1)


def test_dinf_default_is_underdetermined():
    for truncation, dim in [(12, 19), (20, 27)]:
        report = restriction_consistency_solve("dinf", truncation=truncation)
        assert report.status == "underdetermined"
        assert f"has a {dim}-dimensional solution space" in report.freedom
        assert report.characters == {}


@pytest.mark.parametrize("truncation", [4, 7, 12, 20, 40])
def test_chain_systems_check_one_relation_per_column(truncation):
    # columns 0..T of the action matrix; assuming restrictions changes nothing
    for system in ("takiff", "schrodinger"):
        for assume in (False, True):
            report = restriction_consistency_solve(system, truncation, assume)
            assert report.status == "consistent"
            assert report.relations_checked == truncation + 1


@pytest.mark.parametrize("truncation, checked", [(20, 483), (40, 1763)])
def test_dinf_assumed_counts_equations_and_certified_columns(truncation, checked):
    # (T+2)(T+1) - 1 window equations with the normalization, then T+2 columns
    t = truncation
    assert checked == (t + 2) * (t + 1) - 1 + (t + 2)
    report = restriction_consistency_solve("dinf", t, assume_restrictions=True)
    assert report.status == "consistent"
    assert report.relations_checked == checked


@pytest.mark.parametrize("system, column, row", [("takiff", 3, 3), ("dinf", 0, 3)])
def test_solver_and_action_matrix_read_one_definition(monkeypatch, system, column, row):
    entry = oracles._SYSTEMS[system]
    extra = PresentedMatrix(IndexSet.nat(), max(row, column) + 1, {(row, column): 1})
    mutated = entry._replace(f1=entry.f1.add(extra))
    monkeypatch.setitem(oracles._SYSTEMS, system, mutated)
    report = restriction_consistency_solve(system, 20, assume_restrictions=True)
    assert report.status == "infeasible"
    if system == "takiff":
        assert report.relations_checked == column
    with pytest.raises(RuntimeError, match=f"column {column} of the {system} matrix"):
        restriction_action_matrix(system)


def test_dinf_assumed_restrictions_pin_the_branch_characters():
    report = restriction_consistency_solve("dinf", truncation=20, assume_restrictions=True)
    assert report.status == "consistent"
    branch_a = report.characters["branch_a"]
    branch_b = report.characters["branch_b"]
    assert branch_a == SlCharacter.mod_class(0, 4)
    assert branch_b == SlCharacter.mod_class(2, 4)
    # independent dense verification of all four relation shapes
    window = 30
    chain = {n: SlCharacter.tower(n, 2).truncate(window + 1) for n in range(1, 4)}
    a, b = branch_a.truncate(window + 1), branch_b.truncate(window + 1)
    assert dense_tensor_L1(a)[:window] == chain[1][:window]
    assert dense_tensor_L1(b)[:window] == chain[1][:window]
    lhs = dense_tensor_L1(chain[1])[:window]
    rhs = [a[k] + b[k] + chain[2][k] for k in range(window)]
    assert lhs == rhs
    lhs2 = dense_tensor_L1(chain[2])[:window]
    rhs2 = [chain[1][k] + chain[3][k] for k in range(window)]
    assert lhs2 == rhs2


def _unassumed_elimination_work(monkeypatch, truncation):
    """Pivot entries that Echelon.add reads while ranking the unassumed dinf system."""
    work = []

    class CountedPivots(dict):
        def get(self, lead, default=None):
            row = dict.get(self, lead, default)
            work.append(len(row) if row else 0)
            return row

    def counting_init(self, rows=()):
        self.pivots = CountedPivots()
        for row in rows:
            self.add(row)

    with monkeypatch.context() as patch:
        patch.setattr(Echelon, "__init__", counting_init)
        report = restriction_consistency_solve("dinf", truncation)
    assert report.status == "underdetermined"
    return sum(work)


def test_unassumed_restriction_elimination_is_linear_in_the_truncation(monkeypatch):
    # index-major columns keep every equation inside a band of 3 * unknown
    # columns, so each pivot row stays short and the work grows as T
    works = [_unassumed_elimination_work(monkeypatch, t) for t in (40, 80, 160, 320)]
    for small, large in zip(works, works[1:]):
        assert large <= 2.1 * small, works


def _every_column_report(system, truncation, assume):
    """(status, relations_checked, characters, freedom dimension) of a report
    under the every-column semantics, from the dense references in refimpl:
    the window equations of every relation, exact elimination, and a dense
    check of every certified column."""
    size = truncation + 1
    count = system.object_of_chain(truncation) + 1
    # the relations compare periodic-affine vectors whose heads end below
    # count + 3 and whose periods divide 4: two periods past the heads decide
    window = count + 16
    f1 = system.f1.truncate(window)
    branches = len(system.branches)

    def certified(character, solved_rows):
        characters = [character(i).truncate(window) for i in range(window)]
        failure = refimpl.first_failing_relation(f1, characters, count)
        if failure is not None:
            return "infeasible", solved_rows + failure, {}, None
        shown = {system.object(i)[0]: character(i)
                 for i in range(system.object_of_chain(oracles._SHOWN_CHAIN) + 1)}
        return "consistent", solved_rows + count, shown, None

    if not branches:
        return certified(system.character, 0)
    stated = [None] * branches + [system.character(i).truncate(window)
                                  for i in range(branches, window)]
    if not assume:
        unknown = system.object_of_chain(oracles._OPEN_CHAIN) + 1
        equations = refimpl.window_equations(f1, stated, unknown - 1, unknown, size)
        rank = Echelon(dict(enumerate(row)) for row, _ in equations).rank
        return "underdetermined", 0, {}, unknown * size - rank
    equations = refimpl.window_equations(f1, stated, count, branches, size)
    augmented = branches * size
    equations.append(([1 if c == 1 else 0 for c in range(augmented)], 0))
    echelon = Echelon({**dict(enumerate(row)), augmented: rhs} for row, rhs in equations)
    if augmented in echelon.pivots:
        return "infeasible", len(equations), {}, None
    if echelon.rank < augmented:
        return "underdetermined", len(equations), {}, augmented - echelon.rank
    x, d = echelon.solution({augmented: -1})
    if d != 1 or any(x[c] < 0 for c in range(augmented)):
        return "infeasible", len(equations), {}, None
    fitted = [oracles._fit_periodic([x[c] for c in range(b, augmented, branches)], 4)
              for b in range(branches)]
    return certified(lambda i: fitted[i] if i < branches else system.character(i),
                     len(equations))


def _assert_every_column_semantics(name, system, truncation, assume):
    try:
        expected = _every_column_report(system, truncation, assume)
    except RuntimeError as exc:  # the window solution has no periodic-affine tail
        with pytest.raises(RuntimeError, match=str(exc)):
            restriction_consistency_solve(name, truncation, assume)
        return
    report = restriction_consistency_solve(name, truncation, assume)
    status, checked, characters, dim = expected
    assert (report.status, report.relations_checked, report.characters) == \
        (status, checked, characters), (name, truncation, assume)
    assert (report.freedom is not None) == (dim is not None)
    if dim is not None:
        assert f"{dim}-dimensional" in report.freedom


@pytest.mark.parametrize("name", ["takiff", "schrodinger", "dinf"])
@pytest.mark.parametrize("assume", [False, True])
def test_restriction_reports_match_the_every_column_reference(name, assume):
    system = oracles._SYSTEMS[name]
    low = oracles._DINF_MIN_ASSUMED_TRUNCATION if system.branches and assume else 4
    for truncation in range(low, 41):
        _assert_every_column_semantics(name, system, truncation, assume)


def _mutations():
    nat = IndexSet.nat()
    for name in ("takiff", "schrodinger", "dinf"):
        for sign in (1, -1):
            for row in range(6):
                for column in range(6):
                    extra = PresentedMatrix(nat, max(row, column) + 1, {(row, column): sign})
                    yield name, f"{sign:+d} at ({row}, {column})", extra
            for offset in (-2, -1, 1, 2):
                extra = PresentedMatrix(nat, diagonals={offset: sign})
                yield name, f"{sign:+d} on diagonal {offset}", extra


def test_translation_lemma_matches_the_every_column_reference_on_mutated_systems(monkeypatch):
    # every single-entry change of F_1 near the head and every tail diagonal
    # change: the reports and the action matrix's every-column certificate
    # agree with the dense references, failing columns included
    for name, label, extra in _mutations():
        entry = oracles._SYSTEMS[name]
        mutated = entry._replace(f1=entry.f1.add(extra))
        with monkeypatch.context() as patch:
            patch.setitem(oracles._SYSTEMS, name, mutated)
            for assume in (False, True):
                _assert_every_column_semantics(name, mutated, 12, assume)
            window = 56
            characters = [mutated.character(i).truncate(window) for i in range(window)]
            failure = refimpl.first_failing_relation(
                mutated.f1.truncate(window), characters, 40)
            if failure is None:
                assert restriction_action_matrix(name) == mutated.f1, label
            else:
                with pytest.raises(RuntimeError, match=f"column {failure} of the {name} "):
                    restriction_action_matrix(name)


def _column_checks_and_rows(monkeypatch, name, truncation):
    """A_inf.apply calls (one per explicitly checked column), the rows the
    elimination receives and the pivot entries Echelon.add reads."""
    checks, rows, work = [], [], []
    apply = PresentedMatrix.apply

    def counted_apply(self, vec):
        if self is oracles._A_INF:
            checks.append(vec)
        return apply(self, vec)

    class CountedPivots(dict):
        def get(self, lead, default=None):
            row = dict.get(self, lead, default)
            work.append(len(row) if row else 0)
            return row

    def counting_init(self, given=()):
        self.pivots = CountedPivots()
        for row in given:
            rows.append(row)
            self.add(row)

    with monkeypatch.context() as patch:
        patch.setattr(PresentedMatrix, "apply", counted_apply)
        patch.setattr(Echelon, "__init__", counting_init)
        report = restriction_consistency_solve(name, truncation, assume_restrictions=True)
    assert report.status == "consistent"
    return len(checks), len(rows), sum(work)


def test_restriction_work_per_column_window_does_not_grow_with_the_truncation(monkeypatch):
    for name in ("takiff", "schrodinger", "dinf"):
        counts = [_column_checks_and_rows(monkeypatch, name, t) for t in (20, 80, 320)]
        assert len({checks for checks, _, _ in counts}) == 1, (name, counts)
    # assumed dinf writes the equations of relations 0..2, the ones with an
    # unknown term, one per index 0..T, less the two branch equations at
    # index T, which read L(T + 1); plus the normalization row
    system = oracles._SYSTEMS["dinf"]
    with_unknown = [j for j in range(system.object_of_chain(20) + 1)
                    if j < 2 or any(i < 2 for i, _ in system.f1.col_entries(j))]
    assert with_unknown == [0, 1, 2]
    works = []
    for t in (40, 80, 160, 320):
        _, rows, work = _column_checks_and_rows(monkeypatch, "dinf", t)
        assert rows == (t + 1) * len(with_unknown) - 2 + 1
        works.append(work)
    for small, large in zip(works, works[1:]):
        assert large <= 2.1 * small, works


def test_assumed_dinf_at_the_cap_answers_in_milliseconds(time_limit):
    with time_limit(0.5):
        report = restriction_consistency_solve("dinf", oracles.MAX_TRUNCATION, True)
    assert report.status == "consistent"


def test_restriction_truncation_precondition():
    with pytest.raises(ValueError):
        restriction_consistency_solve("takiff", truncation=3)
    with pytest.raises(ValueError):
        restriction_consistency_solve("heisenberg", truncation=10)


# -- Jordan blocks -----------------------------------------------------------------


def jordan_partition_dense(n: int, lam) -> list[tuple[int, Fraction]]:
    """Independent route: dense nilpotency ranks over Fraction."""
    lam = Fraction(lam)
    size = 2 * n
    mat = [[Fraction(0)] * size for _ in range(size)]
    # basis e_s (x) f_t at index s * n + t
    for s in range(2):
        for t in range(n):
            row = s * n + t
            if t + 1 < n:
                mat[row][s * n + t + 1] += 1  # J_n(lam) nilpotent part
            if s == 0:
                mat[row][n + t] += 1  # J_2(0) (x) I
    ranks = [size]
    power = refimpl.identity(size)
    while ranks[-1] > 0:
        power = refimpl.mat_mul(power, mat)
        ranks.append(refimpl.rank(power))
    blocks: list[tuple[int, Fraction]] = []
    for k in range(1, len(ranks)):
        at_least_k = ranks[k - 1] - ranks[k]
        exactly_k = at_least_k - (ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0)
        blocks += [(k, lam)] * exactly_k
    return sorted(blocks, reverse=True)


def test_jordan_frozen_examples():
    assert jordan_kronecker_oracle(1, Fraction(7, 3)).blocks == ((2, Fraction(7, 3)),)
    assert jordan_kronecker_oracle(3, 0).blocks == ((4, Fraction(0)), (2, Fraction(0)))
    assert jordan_kronecker_oracle(10, 5).blocks == ((11, Fraction(5)), (9, Fraction(5)))


def test_jordan_against_dense_rank_route():
    for n in range(1, 7):
        for lam in (0, 2, Fraction(-3, 7)):
            got = list(jordan_kronecker_oracle(n, lam).blocks)
            assert got == jordan_partition_dense(n, lam), (n, lam)


def test_jordan_sweep_against_rank_of_powers():
    for n in range(1, 61):
        for lam in (0, 2, Fraction(-3, 7)):
            got = jordan_kronecker_oracle(n, lam).blocks
            assert got == refimpl.jordan_partition_by_powers(n, lam), (n, lam)


def test_jordan_sweep_adds_linearly_many_rows(monkeypatch):
    # the rank-of-powers route eliminates 2n(n+1) rows
    calls = []
    add = Echelon.add

    def counted(self, row):
        calls.append(1)
        return add(self, row)

    monkeypatch.setattr(Echelon, "add", counted)
    counts = {}
    for n in (200, 400):
        calls.clear()
        jordan_kronecker_oracle(n, 1)
        counts[n] = len(calls)
    assert counts[400] <= 8 * 400
    assert counts[400] <= 2.1 * counts[200]


def test_jordan_partition_shape_at_scale():
    for n in (2, 17, 50):
        lam = Fraction(9, 4)
        part = jordan_kronecker_oracle(n, lam)
        assert part.blocks == ((n + 1, lam), (n - 1, lam))


def test_jordan_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        jordan_kronecker_oracle(0, 1)
