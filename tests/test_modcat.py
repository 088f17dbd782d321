from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2cat import modcat
from sl2cat.dynkin import find_positive_null_vector, gcm_of
from sl2cat.fusion import r_poly
from sl2cat.modcat import (
    ModuleCategoryModel,
    PreconditionFailed,
    Transitivity,
    catalog,
    catalog_names,
    check_categorifiability,
    classify_type,
    derive_action,
    is_transitive,
    predict_weight_module_type,
    semisimplicity_symmetry_check,
    socle_top_feasibility,
    subalgebra_type,
    to_simples_basis,
)
from sl2cat.obstruction import solve_feasibility
from sl2cat.presented import IndexSet, PresentedMatrix

import refimpl


EXPECTED_TYPE = {
    "Ainf": "Ainf",
    "AinfInf": "Ainfinf",
    "BinfDual": "Binf",
    "Cinf": "Cinf",
    "Dinf": "Dinf",
    "Tinf": "Tinf",
}


def finite_model(rows, basis="projectives"):
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return ModuleCategoryModel("test", basis, PresentedMatrix(IndexSet.finite(len(rows)), head=entries))


def test_catalog_names_and_unknown():
    assert catalog_names() == ["Ainf", "AinfInf", "BinfDual", "Cinf", "Dinf", "Tinf"]
    with pytest.raises(KeyError):
        catalog("Einf")


def test_catalog_fixture_round_trip_is_bit_exact():
    for name in catalog_names():
        m = catalog(name)
        again = PresentedMatrix.from_json_dict(json.loads(json.dumps(m.f1.to_json_dict())))
        assert again == m.f1
        assert again.to_json_dict() == m.f1.to_json_dict()


@pytest.mark.parametrize("name", catalog_names())
def test_model_from_json_round_trips_catalog_and_bare_matrix(name):
    m = catalog(name)
    assert ModuleCategoryModel.from_json(json.loads(json.dumps(m.to_json()))) == m
    bare = json.loads(json.dumps(m.f1.to_json_dict()))
    assert ModuleCategoryModel.from_json(bare, name="file", provenance="loaded") == \
        ModuleCategoryModel("file", "projectives", m.f1, "loaded")


def test_model_from_json_defaults_for_omitted_fields():
    f1 = finite_model([[0, 1], [1, 0]]).f1
    m = ModuleCategoryModel.from_json({"f1": f1.to_json_dict()}, name="stem", provenance="p")
    assert m == ModuleCategoryModel("stem", "projectives", f1, "p")
    m = ModuleCategoryModel.from_json({"f1": f1.to_json_dict(), "basis": "simples", "name": "x"})
    assert m == ModuleCategoryModel("x", "simples", f1, "")


@pytest.mark.parametrize("field, value, message", [
    ("name", 5, "model name must be a string"),
    ("provenance", 7, "model provenance must be a string"),
    ("name", None, "model name must be a string"),
    ("colour", "red", r"unknown model fields \['colour'\]"),
])
def test_model_from_json_enforces_the_schema(field, value, message):
    doc = {"f1": finite_model([[0, 1], [1, 0]]).f1.to_json_dict(), field: value}
    with pytest.raises(ValueError, match=message):
        ModuleCategoryModel.from_json(doc)


def test_dinf_fixture_matches_displayed_head_block():
    # the displayed form: 3x3 head [[0,0,1],[0,0,1],[1,1,0]] glued to the
    # tridiagonal ray continuing from vertex 2
    display = PresentedMatrix(
        IndexSet.nat(), 3,
        {(0, 2): 1, (1, 2): 1, (2, 0): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1},
        {-1: 1, 1: 1},
    )
    assert display == catalog("Dinf").f1


def test_derive_action_frozen_examples():
    ainf = catalog("Ainf")
    r2 = derive_action(ainf, 2)
    assert [r2.entry(0, k) for k in range(5)] == [0, 0, 1, 0, 0]
    assert derive_action(ainf, 0) == PresentedMatrix.identity(ainf.f1.index)
    cinf = catalog("Cinf")
    assert derive_action(cinf, 2).entry(0, 0) == 1


def test_derived_actions_satisfy_clebsch_gordan_products():
    for name in catalog_names():
        m = catalog(name)
        acts = [derive_action(m, i) for i in range(13)]
        for i in range(7):
            for j in range(7):
                lhs = acts[i].mul(acts[j])
                rhs = PresentedMatrix.zero(m.f1.index)
                for k in range(abs(i - j), i + j + 1, 2):
                    rhs = rhs.add(acts[k])
                assert lhs == rhs, (name, i, j)


def test_poly_eval_matches_recurrence_on_catalog():
    for name in catalog_names():
        f1 = catalog(name).f1
        prev2, prev1 = PresentedMatrix.identity(f1.index), f1
        for i in range(2, 9):
            cur = f1.mul(prev1).add(prev2.scale(-1))
            assert cur == f1.poly_eval(r_poly(i)), (name, i)
            prev2, prev1 = prev1, cur


def test_derived_action_of_the_transpose_is_the_transpose():
    # the obstruction solver reads simples-basis compositions from rows of F_a
    for name in catalog_names():
        m = catalog(name)
        for a in range(7):
            assert derive_action(m, a).transpose() == m.f1.transpose().poly_eval(r_poly(a)), (name, a)


def test_ainf_first_column_is_a_single_one():
    m = catalog("Ainf")
    for i in range(21):
        mat = derive_action(m, i)
        col = [(r, v) for r, v in mat.col_entries(0) if v]
        assert col == [(i, 1)], i


def test_ainf_simples_basis_multiplicities_follow_fusion_intervals():
    simples = to_simples_basis(catalog("Ainf"))
    for i in range(11):
        mat = derive_action(simples, i)
        for j in range(11):
            expected = {k: 1 for k in range(abs(i - j), i + j + 1, 2)}
            got = {k: v for k, v in mat.col_entries(j) if v}
            assert got == expected, (i, j)


def test_check_categorifiability_examples():
    assert check_categorifiability(finite_model([[2]]), 20) == (True, None)
    assert check_categorifiability(finite_model([[1]]), 3) == (False, 3)
    for name in catalog_names():
        assert check_categorifiability(catalog(name), 10) == (True, None)


def test_transitivity_of_catalog_and_counterexamples():
    for name in catalog_names():
        assert is_transitive(catalog(name)) is Transitivity.YES
    assert is_transitive(finite_model([[0, 0], [0, 0]])) is Transitivity.NO
    one_way = ModuleCategoryModel(
        "oneway", "projectives", PresentedMatrix(IndexSet.nat(), diagonals={1: 1}))
    assert is_transitive(one_way) is Transitivity.NO
    even = ModuleCategoryModel(
        "even", "projectives", PresentedMatrix(IndexSet.int_(), diagonals={-2: 1, 2: 1}))
    assert is_transitive(even) is Transitivity.NO


def test_classify_type_catalog():
    for name, family in EXPECTED_TYPE.items():
        result = classify_type(catalog(name))
        assert result.kind == "infinite"
        assert result.dtype.family == family, name


def test_classify_type_preconditions():
    with pytest.raises(PreconditionFailed):
        classify_type(finite_model([[1]]))
    not_transitive = ModuleCategoryModel(
        "oneway", "projectives", PresentedMatrix(IndexSet.nat(), diagonals={1: 1}))
    with pytest.raises(PreconditionFailed):
        classify_type(not_transitive)


def test_simples_basis_round_trip_and_classification():
    cinf = catalog("Cinf")
    simples = to_simples_basis(cinf)
    assert simples.basis == "simples"
    assert simples.f1 == catalog("BinfDual").f1
    assert classify_type(simples).dtype.family == "Cinf"
    with pytest.raises(PreconditionFailed):
        to_simples_basis(simples)


def test_symmetry_check():
    assert semisimplicity_symmetry_check(catalog("Cinf")) is False
    assert semisimplicity_symmetry_check(catalog("BinfDual")) is False
    for name in ("Ainf", "AinfInf", "Dinf", "Tinf"):
        assert semisimplicity_symmetry_check(catalog(name)) is True


def test_binf_dual_is_infeasible_at_depth_two_and_three():
    for depth in (2, 3):
        report = socle_top_feasibility(catalog("BinfDual"), depth)
        assert report.status == "UNSAT", depth
        end_dim = [e for e in report.trace if e["constraint"] == "end-dim"]
        sides = {e["side"] for e in end_dim if e["degree"] == 1 and e["object"] == 0}
        assert sides == {"top", "socle"}
        last = report.trace[-1]
        assert last["status"] == "violated"
        assert last["constraint"] == "covering"
        assert (last["degree"], last["object"]) == (2, 0)


def test_symmetric_catalog_fixtures_are_feasible_with_semisimple_witness():
    for name in ("Ainf", "AinfInf", "Dinf", "Tinf"):
        report = socle_top_feasibility(catalog(name), 2)
        assert report.status == "SAT", name
        for family in report.witness:
            assert family["top"] == family["socle"]


def test_cinf_is_feasible_at_depth_two():
    report = socle_top_feasibility(catalog("Cinf"), 2)
    assert report.status == "SAT"
    json.dumps(report.to_json())


@pytest.mark.parametrize("name", catalog_names())
def test_obstruction_report_ignores_head_storage_order(name):
    f1 = catalog(name).f1
    entries, diagonals = f1.head_entries(), sorted(f1.diagonals().items())
    forward = PresentedMatrix(f1.index, f1.head_size, entries, dict(diagonals))
    backward = PresentedMatrix(f1.index, f1.head_size, entries[::-1], dict(diagonals[::-1]))
    for depth in range(1, 5):
        assert solve_feasibility(forward, depth) == solve_feasibility(backward, depth), depth


def test_schur_dimension_knob_evades_the_obstruction():
    report = socle_top_feasibility(catalog("BinfDual"), 2, schur_dim=2)
    assert report.status == "SAT"


@pytest.mark.parametrize("schur_dim", [0, -1])
def test_schur_dimension_below_one_is_rejected(schur_dim):
    # a simple module's endomorphisms contain the scalars, so dim End >= 1
    with pytest.raises(ValueError, match="schur_dim must be >= 1"):
        solve_feasibility(catalog("BinfDual").f1, 2, schur_dim=schur_dim)


def test_feasibility_depth_cap():
    with pytest.raises(ValueError):
        socle_top_feasibility(catalog("Ainf"), 7)
    with pytest.raises(PreconditionFailed):
        socle_top_feasibility(to_simples_basis(catalog("Cinf")), 2)


def test_null_vectors_of_catalog_models_annihilate_dense_windows():
    for name in catalog_names():
        f1 = catalog(name).f1
        gcm = gcm_of(f1)
        vec = find_positive_null_vector(gcm)
        assert vec is not None, name
        assert gcm.apply(vec).is_zero()
        size = 16
        dense = gcm.truncate(size)
        values = vec.truncate(size)
        start = gcm.band if gcm.index.kind == "int" else 0
        for i in range(start, size - gcm.band):
            assert sum(dense[i][j] * values[j] for j in range(size)) == 0, (name, i)


def test_action_graph_window():
    nodes, edges = modcat.action_graph(catalog("Tinf"), 3)
    assert nodes == [0, 1, 2]
    assert (0, 0, 1) in edges and (0, 1, 1) in edges and (1, 0, 1) in edges
    nodes_int, _ = modcat.action_graph(catalog("AinfInf"), 4)
    assert nodes_int == [-2, -1, 0, 1]


def test_weight_module_dispatch_table():
    assert predict_weight_module_type("non-half-integer").case == "a"
    assert predict_weight_module_type("non-half-integer").types[0].family == "Ainfinf"
    fixed = predict_weight_module_type("half-integer-not-integer", special_fixed=True)
    assert (fixed.case, fixed.types[0].family) == ("b", "Tinf")
    moved = predict_weight_module_type("half-integer-not-integer", special_fixed=False)
    assert (moved.case, moved.types[0].family) == ("c", "Ainfinf")
    assert predict_weight_module_type("nonneg-integer").types[0].family == "Ainf"
    ext = predict_weight_module_type("negative-integer")
    assert ext.case == "e"
    assert [t.family for t in ext.types] == ["Cinf", "Ainf"]
    assert ext.roles == ("sub", "quotient")
    with pytest.raises(ValueError):
        predict_weight_module_type("rational")


def test_subalgebra_dispatch_table():
    assert subalgebra_type(0).types == ()
    nil = subalgebra_type(1, semisimple=False)
    assert (nil.case, nil.types[0].family) == ("a", "Ainf")
    semi = subalgebra_type(1, semisimple=True)
    assert (semi.case, semi.types[0].family) == ("b", "Ainfinf")
    assert subalgebra_type(2).types[0].family == "Ainf"
    assert subalgebra_type(3).types[0].family == "Ainf"
    with pytest.raises(ValueError):
        subalgebra_type(1)
    with pytest.raises(ValueError):
        subalgebra_type(4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=3, max_size=3))
def test_symmetric_models_are_always_feasible(rows):
    sym = [[rows[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    model = finite_model(sym)
    ok, _ = check_categorifiability(model, 4)
    assume(ok)
    report = socle_top_feasibility(model, 2)
    assert report.status == "SAT"
    for family in report.witness:
        assert family["top"] == family["socle"]
