from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sl2cat import modcat, obstruction
from sl2cat.dynkin import find_positive_null_vector, gcm_of
from sl2cat.fusion import r_poly
from sl2cat.kernels import reachable
from sl2cat.modcat import (
    ModuleCategoryModel,
    PreconditionFailed,
    Transitivity,
    action_graph,
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


MATRIX_WORDS = ["index", "head", "tail", "size", "entries", "band", "diagonals", "finite",
                "nat", "int", "f1", "basis", "name", "provenance", "projectives", "simples",
                "0", "1", "-1", "+1", "01", "-0"]
json_ints = st.one_of(st.integers(-3, 12), st.integers(),
                      st.sampled_from([10**5, 10**9, 10**12, -10**9, 2**63]))
json_keys = st.one_of(st.sampled_from(MATRIX_WORDS), st.text(max_size=6))
json_leaves = st.one_of(st.none(), st.booleans(), json_ints, st.floats(), json_keys)
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(json_keys, inner, max_size=5)),
    max_leaves=30)
# near-valid matrix documents, so that the fuzzer reaches past the first field check
matrix_docs = st.fixed_dictionaries(
    {"index": st.one_of(st.sampled_from(["nat", "int"]), st.fixed_dictionaries({"finite": json_ints}),
                        json_docs)},
    optional={
        "head": st.one_of(json_docs, st.fixed_dictionaries({}, optional={
            "size": json_ints,
            "entries": st.lists(st.one_of(st.lists(json_ints, min_size=3, max_size=3), json_docs),
                                max_size=6)})),
        "tail": st.one_of(json_docs, st.fixed_dictionaries({}, optional={
            "band": json_ints,
            "diagonals": st.dictionaries(json_keys, st.one_of(json_ints, json_docs), max_size=4)})),
    })
model_docs = st.fixed_dictionaries({"f1": st.one_of(matrix_docs, json_docs)}, optional={
    "name": json_docs, "basis": st.one_of(st.sampled_from(["projectives", "simples"]), json_docs),
    "provenance": json_docs})


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(json_docs, matrix_docs, model_docs))
def test_arbitrary_json_is_read_or_raises_a_value_error(time_limit, doc):
    for read in (PresentedMatrix.from_json_dict, ModuleCategoryModel.from_json):
        with time_limit(2.0):
            try:
                read(doc)
            except ValueError:
                pass


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
    assert derive_action(ainf, 0) == PresentedMatrix.scaled_identity(ainf.f1.index)
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
        prev2, prev1 = PresentedMatrix.scaled_identity(f1.index), f1
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


small_matrices = st.one_of(
    st.builds(
        lambda size, head, diags: PresentedMatrix(
            IndexSet.nat(), size, {k: v for k, v in head.items() if min(k) < size}, diags),
        st.integers(0, 4),
        st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(0, 2),
                        max_size=8),
        st.dictionaries(st.integers(-3, 3), st.integers(0, 2), max_size=4)),
    st.dictionaries(st.integers(-3, 3), st.integers(0, 2), max_size=4).map(
        lambda diags: PresentedMatrix(IndexSet.int_(), diagonals=diags)),
    st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                           min_size=n, max_size=n)).map(PresentedMatrix.from_dense),
)


def test_transitivity_on_nat_with_a_common_step():
    # with tail diagonals +-2 and no head, even and odd objects never meet
    nat = IndexSet.nat()
    parity = PresentedMatrix(nat, diagonals={-2: 1, 2: 1})
    assert is_transitive(ModuleCategoryModel("parity", "projectives", parity)) is Transitivity.NO
    # a head that links object 0 to 1 and to 2 joins the two classes
    joined = PresentedMatrix(nat, 1, {(0, 1): 1, (1, 0): 1, (0, 2): 1, (2, 0): 1},
                             {-2: 1, 2: 1})
    assert is_transitive(ModuleCategoryModel("joined", "projectives", joined)) is Transitivity.YES


@settings(max_examples=300, deadline=None)
@given(small_matrices)
def test_no_on_nat_means_the_dense_window_is_not_strongly_connected(f1):
    assume(f1.index.kind == "nat")
    if is_transitive(ModuleCategoryModel("m", "projectives", f1)) is not Transitivity.NO:
        return
    n = f1.tail_start() + 2 * f1.band + 2
    dense = f1.truncate(n)
    forward = reachable(0, lambda v: (w for w in range(n) if dense[w][v]))
    backward = reachable(0, lambda v: (w for w in range(n) if dense[v][w]))
    assert len(forward) < n or len(backward) < n


@settings(max_examples=200, deadline=None)
@given(small_matrices, st.one_of(st.none(), st.integers(0, 9)))
def test_action_graph_and_connectivity_match_the_dense_window(f1, size):
    nodes, edges = action_graph(f1, size)
    n = len(nodes)
    dense = f1.truncate(n)
    assert edges == [(nodes[i], nodes[j], dense[j][i])
                     for i in range(n) for j in range(n) if dense[j][i]]
    if f1.index.kind != "int":
        forward = reachable(0, lambda v: (w for w in range(n) if dense[w][v]))
        backward = reachable(0, lambda v: (w for w in range(n) if dense[v][w]))
        expected = n > 0 and len(forward) == n and len(backward) == n
        assert modcat._strongly_connected(f1, n) == expected


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


def test_semisimple_witness_is_checked_against_the_rules():
    # with dim End = 2 the semisimple witness breaks the end-dim identity
    # of F_1 S_0, so the general engine decides
    report = socle_top_feasibility(catalog("Ainf"), 3, schur_dim=2)
    assert report.status == "UNSAT"
    assert report.trace[-1]["identity"] == (
        "dim End(F_1 S_0) = [socle F_0 S_0 : S_0] + [socle F_2 S_0 : S_0] = 2")


@pytest.mark.parametrize("schur_dim", [0, -1])
def test_schur_dimension_below_one_is_rejected(schur_dim):
    # a simple module's endomorphisms contain the scalars, so dim End >= 1
    with pytest.raises(ValueError, match="schur_dim must be >= 1"):
        solve_feasibility(catalog("BinfDual").f1, 2, schur_dim=schur_dim)


def test_feasibility_depth_cap():
    with pytest.raises(ValueError, match="depth 33 exceeds the exhaustive-search cap 32"):
        socle_top_feasibility(catalog("Ainf"), 33)
    with pytest.raises(ValueError, match="depth 33 exceeds the exhaustive-search cap 32"):
        solve_feasibility(catalog("Ainf").f1, 33)
    with pytest.raises(PreconditionFailed):
        socle_top_feasibility(to_simples_basis(catalog("Cinf")), 2)


# sha256 of json.dumps(report.to_json(), sort_keys=True) at depths 1..8,
# recorded from the solver that swept every rule until nothing changed and
# copied every domain per search node
OBSTRUCTION_DIGESTS = {
    "Ainf": (
        "6a8f4090511bf048e8800d2a2b07ddeb5c1b3a3858cda7407de800a1f96d8403",
        "fcf2746df61a038fddb3ca1a9d268c8bd24059195f3b1e3a97a2c8dd85f7804e",
        "914b39a4843d92695f8bc3d3ea92d102aa6ed0d17e23d3432d4354240b5c54db",
        "5e8ef57955312be3513b45881e591814b6c678d184d90338b10d1a53b73bd2c8",
        "9d41514681f3956917ccf6d458bb5118350abc68a1f0296491ca199989d7cc7f",
        "025f271b875fad9f0a7d3318404e26da9fd4bb5e438d01932a097fae6f1c32a4",
        "17e4a3b40bf7f4b7ebc01fdfeb4841ebbb94115711b588fb4507c18d10064e3d",
        "a21e771aab5ef33cdaae0b81e16a08f650339267e226e9ce14e65959aa6d2486",
    ),
    "AinfInf": (
        "d292b5d08687125b1873b2be147ff351e48671547579f954445e2a06f2994b7a",
        "4308653f5a68dd363f93fb824dd4be666d09c17116397f799719f7598c2d3284",
        "61b17124218ad43109fde32e16357fbe1fb08549ca0986c63bcfadecb836a115",
        "08a757b69e224927e161401070c9613346958f9b5f5b164de541cc1485b6c15c",
        "9d8e740721c63b0abe9041b7ef389649b9df9b64d743ec00b425bd95f0c15ae9",
        "b1c89dd725feb934361f47414d66bbbd79e91f7a6b93263c59685814d814308a",
        "8b606ba5342f77fa40ad2aebe90bb92cec940980b62212971b7cf01ab44c51e5",
        "d16498d4ab72a7f3e810aa66083820a6b53987dfddc30db32b8eb93ea6f91c2a",
    ),
    "BinfDual": (
        "209c904469340eb69062e81f2c68498bb55170654f68bc58a51fe9451be0cb92",
        "df71d2306d911910d34bf7c3b9474c6ccee169408a4cce9b0ddb4389b7d008e4",
        "a5051d564cd19e691d397f18a4f1a56d6b9d880de4b10bbad6c109ba4a8bdbb9",
        "799c9bb0e0f9ab5647b43fe06a0448d9c02cfd537ad518f0b2018d5c0a1c9218",
        "e0aec0369ef8ea7d3e9dd8139a2544f472a93b19fcf7f2d90c2fefdfe9da77f6",
        "4fe3d9c6c88e2389ea6173ab665ae2a443d4eb11f9fad953e070de29ca526aaa",
        "15efce37f2ba2d858155b688ce84f188acc9302f79b11814be8f1904fe3a18d7",
        "48500c1af72e0ae51d230a714b6fb573cd3bb825567af1ed3476327020f3b543",
    ),
    "Cinf": (
        "390b0527145476d3cb21448c9aa5e712b051ae2cc7c0bc11708cb74eaccdd72a",
        "27edbe0c65baadda3c3aad185b5e00a5c22d0d41b99a9cb5ffef3fe96ab3d86c",
        "62e9af014832bdcf498b611a5da14d6faa52835811189b375cf6768937049d59",
        "34da00046a59b91e5499bb937865f4834e63158b10b8ca9b6792ea15f95194d3",
        "7e04b315f2d9902fc2e9eeaeccad59e45be233b54ba674878472c083890af578",
        "676692ec36c013803249dcc16f7c4327f5511ef42611e767e9dc6f4a661cb1e3",
        "858063cc72e8e0f59446c459da78d72b3cf841d8a637c2c3e40f93c0a6e4f4c6",
        "2ac6c5a56072d197bb9b15345d501855ca806f2a57a0e3c283a08a084baa511f",
    ),
    "Dinf": (
        "5e116f83b01d49f591f8e2329e21211d487579136dd941af481bb9597a9b1112",
        "d39a516a66599c4453749feeef651de7c1a8de3b4aa440938937f21343e18edd",
        "da98df7cc403565249c6f6ce8aa8fc7b2d1e016c06cfc42191ba2522765584d2",
        "075d8cc5fd0371d14de34171e924d7cabb0ce03b075c866f90603365e689b881",
        "dcbb72fec1314d921b2b606bab18aef1164f28f89c28a4254c81459acd9912a7",
        "24a10836e4c6320ec1554b2b7b7bf263cedc5ac62e43dbf114f66ae25bb35f5e",
        "1fa17cd3e9dbf609984299841d356cdf40997349d129c32aa8d3bb9d50aebb2f",
        "e447154679ce98e45bd5271468978ddac49e8513e1e30dc9f7e8145f66bb992c",
    ),
    "Tinf": (
        "a0b655d4b35c2946f623812e86b9d6d6dec4a07b1ada803b79fef7c025cdb4aa",
        "85107b962ddca8cd9cb9abcd71790be267e8d76eccda92b3f19adc294f610b8b",
        "5bc5379054670c085e9873f48a8a362990215cebbb78e17ce8dfe27ff5695c5b",
        "936bffc0837bc8009d2ae86662568a99f48db8a276ad52dfc0fc2eff424d8c5b",
        "18297d373b382f858838e49e8d34e4e3b9490d73ba3bd0739339488bc58e3eec",
        "981509dcc0d03753bd16f013c3db48464c3362a1a01281bab74a046c983d4729",
        "5e1d2d922884f884240dad2d35b848a46f376f0b41355b18573f7ebb5676f509",
        "b82dfa14598c9b2467d51788d7641408a3b2d327e5654df36f0bf29c5f9c53f6",
    ),
}


@pytest.mark.parametrize("name", catalog_names())
def test_obstruction_reports_match_full_sweep_digests(name):
    for depth in range(1, 9):
        report = socle_top_feasibility(catalog(name), depth)
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == OBSTRUCTION_DIGESTS[name][depth - 1], depth


# the same digests at depths 12, 16 and 32, recorded from the solver that kept
# its domains in a dict of [lo, hi] lists keyed by (side, a, j, k)
DEEP_DEPTHS = (12, 16, 32)
OBSTRUCTION_DIGESTS_DEEP = {
    "Ainf": (
        "cbc8dc407a54d2837d87d78d474c6ba33a31be3d68ae48417ab000b4cbdb2b08",
        "0a11d6c2e8a2f5f65b579e95d0e8d67908ddb953a371ee97fdd1d6cde927d86f",
        "cd839538c77d850827f64d02886bb458d3dfd4bc8bae521eddfe353e92b88d10",
    ),
    "AinfInf": (
        "df368ff6561e48334e786d297c5dc7a7114411335e4ab7b7dbe753fd4d73b98f",
        "6e0e65cf8edc4054d90f007b9abc669fe384721f847a05d04d41f79344e37e13",
        "887720652fcbb7722155c6a0ddb54b5527c381db8a554b07a2f379f6c8750639",
    ),
    "BinfDual": (
        "4a12dadc6d11c79c3b66e717eac57234f3adf14b3d4ec03e1e1db5096086a74b",
        "31c61cbd43912d2fa8378c7471d7d0bee467e65172f2ae26990e541afc455c72",
        "aee79cc1c810d4904f1727bf1e97822f97df00b8f7257a457875afcf2fca9620",
    ),
    "Cinf": (
        "52c3b46438c53fb5302ecef1deb99b2ac21d7119ca2b9b89ba80709a04cb2dbd",
        "50fc21351cb94afe4eca0947bb02411fdc1d19c77632711b52a061446415af27",
        "81108c3f3da9d7857de3a685bd895c7b86f6f827da5b52818c8d1b7cab80cb5e",
    ),
    "Dinf": (
        "2719b89ffa64c07103fd9a755e1716c298f1412d6080954c68ab990415f0720f",
        "bd87c36f9a6095b103b36d6fdd9ae9df6662d9e17ff066d60cf55d7cbe856891",
        "8506714ed95fde20e886ddaf934645e277dfe4dffe9c2e7aea2fdb43e109e928",
    ),
    "Tinf": (
        "8d7d67ec2182b9d6f50c9e53668c365ffe0a20c89fd3c09884ef7986f4e83efb",
        "526a5aaa42222df7526187b10f69c8ff2e15e649625f7447070ba1d874ac480a",
        "40e1d2de4d561a9cb05db3bceddd3aca2acd353022e88b34047d31a0540ccad5",
    ),
}


@pytest.mark.parametrize("name", catalog_names())
def test_deep_obstruction_reports_match_digests(name):
    for depth, expected in zip(DEEP_DEPTHS, OBSTRUCTION_DIGESTS_DEEP[name]):
        report = socle_top_feasibility(catalog(name), depth)
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == expected, depth


# the same digests with schur_dim=2, where Ainf and Dinf at depths 2..8 fall
# through from the semisimple witness to propagation (UNSAT); recorded from
# the solver that built a second state and rule list for that fallthrough
OBSTRUCTION_DIGESTS_SCHUR_2 = {
    "Ainf": (
        "6035e6a31364fe94e8446e09f2065df6336c5386d9825dcee7d50f2d15ca2c3a",
        "674752d9215efe480d0824870b26eab314ad7403a6306e6c1b5573b7f46630d6",
        "810dfd67aab9be0a835346d35d645427fceb21470d529e7c005af67b1bd3f3fe",
        "68ca46c340a4827e42ef446694f181a03581fa8342303ba663748666a674a8e6",
        "7a3824018f40207dc9d69b2ea6efb710db798ad285c1088f7f0007649d2b7e74",
        "b7b2b2a85ee5ac0152038fd707522154fba8633ffd64030c74e407359902ac80",
        "f122cccbfa96be2d7d598e7fea6f42e8f297af6fb7a629bee17d754481d6fa03",
        "0f99950a668e0c7cecf334f5111203a948379ea3e611d94cddc8112947bf689f",
    ),
    "AinfInf": (
        "f43876416a22b68b4fb9e19b47dc102efe69952665f7a11382857f4df33eff8a",
        "ac18c19df97baf6cc4b7f6f861a51f08746cf3c32a0b7411219bfc976b4f3935",
        "2003b04c9a8ec5668cba51255f443a83943f7e853f37506b1ac108c4f6956b80",
        "a8917f50b6e86d7f790ea10272f5b14e685dd8d5684b52601e4c82725d3f2a49",
        "71d9e8aeb8e20481878e5dd35138b8dcf9d91b9c0d68dfa4ae3cad78f0fb9cf8",
        "515ebe9133ef674d957be9d4bae1c3039a98c72ce7ab2975a247ff8d0c1dc150",
        "4a6a7df311e862abeda14176f8e6af9842b99a683da66fb6727b6b2f0c022a97",
        "c7c3a331aacfb3d00d41d684f94f0a122f1b6aa33a5e0ec0710e339a74d92944",
    ),
    "BinfDual": (
        "e8987ee7d2b8e7b18c342258c176f7e8e299de28921a49b3aefcf66e9529d23f",
        "0e93d6a214058abdb5a0543a04eb81063a08135537cbca7576706204b1bf854d",
        "b6663c071931d1207568153b2c8fa7d64536ccd4e02938f9b2ad3617b223711b",
        "61ee344126a97302081ad35db0ed986868f96e4deaa3d8699726740e87371267",
        "3873751e4ff46e9271ef8a8eb4edebd7f1a39439bcbc7e438da4f0db1b000c19",
        "e37c83cd30d3fb89522493ebfa4353b37214ea84c226a5334e0c353900e36103",
        "2aafffd46abb14de7904e6dcae0d13de8f3f5f05ea2050721dccd00bd3ec98ce",
        "0e6fb85fe24e3f6d24d890d4850e545fe85ea1a129630a3f64c2710b659dcfad",
    ),
    "Cinf": (
        "4aae842f60350bc28ea725de156be13196554ff4a050b66e67d2495b011e71c4",
        "6eb9c14d65833e606e7358e2bfadf44eaafffb89c1e13ad461ba99ae94303914",
        "819aeb8ea359120470c0745724f0d734ba15307b3bdebbe3105bc48174e0c64e",
        "edf04654d78e1f8169a6143670bba8e5b44e21bb0299a18d5b5c0cad0ef82547",
        "12059cf7ccd065117efa768d032c9351ec302358d8f64d7a2dab055ca5e9a582",
        "2c9714c21dad92883c8d4e7d120f81a3dad1d0af85078c4ddc3d48c6f358fabd",
        "7f2fd8531bae795e547b384ae46c5ea913702abf5489676e0a87f61108fb8f68",
        "e6c45cdc06530b7b0e7ca86d0bfd15e971e3ae3538b2a68777dd06bd95f400fa",
    ),
    "Dinf": (
        "33d6456c755d8c6ac250aee75b2e5a6a6ad9c20c80b1374f53279f3c91b3ea0a",
        "b485f436ed8b7912b67e559c1fa22458b9f64d871c885331ccb758f06b8fd40e",
        "ead736caee975fe011796760f471f21fe08b40508d93a43941685f26fab5635b",
        "307f5dabd4b24b674b41ad1914abd099166167a800ba7428bf264563b6e0eb4d",
        "f5d02d632590774459b4584a9d81663e382984c129ce53af5a2ea1f762016048",
        "1121304e3f283aad621ad689047b1ba8b85d4b47e449ab86f0813a04bf69dc00",
        "9108fb7084c330d67755cc42335d50befff1b33bb0011c55521ace9292324050",
        "d828923d78a0816970bf06d6a2f072b5e1443bfa9cc877aa9c6d2764dbecb05d",
    ),
    "Tinf": (
        "2a5fbfec2dc01aa779bc1ce8ede7059e608df7b3c411d47c9d867f0f4277d1bb",
        "135e4a7c7da8ce4ec335cfe1337fcf2f9f342e024a1ded6424e7a8256ba94684",
        "ef6d0dad2b69783a5c1711ce294437b5119296f595bc27b2c45524b46354a93b",
        "bd6025c385404b7862205f00dae6ddc2a8a4d3a4a977c1b74fac5ae95dd3619a",
        "c16ac959a483e4ee0ab300679d958dac085c9a52a467d3a00b98c589d7745dfc",
        "a4cd530f948cd3b396b42fe80ad9b1564eeb8b484f735967a945af1ecf27554c",
        "343f2abe74b2984983fccea93528188f5ad81ae71867e71968a4851b0330d6f8",
        "5b2e956b0a4d217aafbcaf219917aaeeb6530d2ae4c837e0c7fa335445e0577a",
    ),
}


@pytest.mark.parametrize("name", catalog_names())
def test_schur_dim_2_reports_match_digests(name):
    for depth in range(1, 9):
        report = socle_top_feasibility(catalog(name), depth, schur_dim=2)
        text = json.dumps(report.to_json(), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == OBSTRUCTION_DIGESTS_SCHUR_2[name][depth - 1], depth


def _catalog_builds():
    """(state after the build, its (run, args) rules) for the six models at depths 1..8."""
    for name in catalog_names():
        for depth in range(1, 9):
            comps = obstruction._compositions(catalog(name).f1, depth)
            state = obstruction._fresh_state(comps, [])
            yield state, obstruction._build_rules(comps, depth, 1, state)


def test_each_adjunction_identity_is_one_rule():
    seen = 0
    for _, rules in _catalog_builds():
        pairs = [frozenset(args[0]) for run, args in rules if run is obstruction._equal]
        assert len(pairs) == len(set(pairs))
        seen += len(pairs)
    assert seen


def test_every_rule_is_a_module_level_run_with_its_ids_first():
    runs = {obstruction._equal, obstruction._bound_sum, obstruction._semisimple}
    for state, rules in _catalog_builds():
        for run, args in rules:
            assert run in runs
            ids, spec = args[0], args[-1]
            assert type(ids) is tuple and all(0 <= v < len(state.lo) for v in ids)
            obstruction._event(spec)  # every spec renders


def test_no_nonzero_rule_on_a_key_the_build_pinned():
    seen = 0
    for state, rules in _catalog_builds():
        nonzero = [args[0] for _, args in rules
                   if obstruction._event(args[-1])["constraint"] == "nonzero"]
        assert not [keys for keys in nonzero if len(keys) == 1 and state.value(keys[0]) is not None]
        seen += len(nonzero)
    assert seen


def test_one_rule_build_per_solve_including_the_fallthrough(monkeypatch):
    build, builds = obstruction._build_rules, []

    def counted(*args):
        builds.append(args[1])
        return build(*args)

    monkeypatch.setattr(obstruction, "_build_rules", counted)
    calls = 0
    for name in catalog_names():
        for depth in range(1, 9):
            for schur_dim in (1, 2):  # Ainf and Dinf fall through at schur dim 2
                solve_feasibility(catalog(name).f1, depth, schur_dim=schur_dim)
                calls += 1
                assert len(builds) == calls, (name, depth, schur_dim)


def _domains(state):
    return list(zip(state.lo, state.hi))


def _full_sweeps(state, rules):
    """Reference propagation: run every rule in order until a sweep changes nothing."""
    while True:
        before = _domains(state)
        for run, args in rules:
            run(state, *args)
        if _domains(state) == before:
            return


def _outcome(step, state):
    """What a propagation did: the violated event, or None, plus domains and trace."""
    try:
        step(state)
        violation = None
    except obstruction._Violation as exc:
        violation = exc.event
    return violation, _domains(state), list(state.trace)


def _assert_watched_matches_full_sweeps(watched, rules, full, full_rules, data):
    """Seed every rule, then branch from the fixpoint and seed only the key's watchers."""
    watch = obstruction._watch_index(rules, len(watched.lo))
    first = _outcome(lambda s: obstruction._propagate(s, rules, watch, range(len(rules))), watched)
    assert first == _outcome(lambda s: _full_sweeps(s, full_rules), full)
    open_ids = [v for v, (lo, hi) in enumerate(_domains(watched)) if lo < hi]
    if first[0] is not None or not open_ids:
        return
    v = data.draw(st.sampled_from(open_ids))
    value = data.draw(st.integers(watched.lo[v], watched.hi[v]))
    for state in (watched, full):
        state.narrow(v, value, value, ("branch",))
    second = _outcome(lambda s: obstruction._propagate(s, rules, watch, watch[v]), watched)
    assert second == _outcome(lambda s: _full_sweeps(s, full_rules), full)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(catalog_names()), depth=st.integers(1, 5), data=st.data())
def test_watched_propagation_matches_full_sweeps(name, depth, data):
    comps = obstruction._compositions(catalog(name).f1, depth)
    states = [obstruction._fresh_state(comps, []) for _ in range(2)]
    rules = [obstruction._build_rules(comps, depth, 1, state) for state in states]
    count = len(states[0].lo)
    for _ in range(data.draw(st.integers(0, 4))):  # random partial pins
        v = data.draw(st.integers(0, count - 1))
        value = data.draw(st.integers(states[0].lo[v], states[0].hi[v]))
        for state in states:
            state.narrow(v, value, value, ("pin",))
    _assert_watched_matches_full_sweeps(states[0], rules[0], states[1], rules[1], data)


def _step(state, ids, cap, spec):
    # raises lo(x) by one per run: it must run again after its own change
    (x,) = ids
    lo, hi = state.lo[x], state.hi[x]
    if lo < cap:
        state.narrow(x, lo + 1, hi, spec)


def _below(state, ids, gap, spec):
    # lo(y) >= lo(x) + gap and hi(x) <= hi(y) - gap
    x, y = ids
    state.narrow(y, state.lo[x] + gap, state.hi[y], spec)
    state.narrow(x, state.lo[x], state.hi[y] - gap, spec)


_SYNTHETIC_RULE = st.one_of(
    st.tuples(st.just("step"), st.integers(0, 3), st.integers(0, 6)),
    st.tuples(st.just("below"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_SYNTHETIC_RULE, min_size=1, max_size=8), st.data())
def test_watched_propagation_is_exact_for_rules_that_need_reruns(specs, data):
    # a rule whose change feeds itself or an earlier rule must wait for the
    # next sweep
    def build():
        rules = []
        for i, (kind, *args) in enumerate(specs):
            spec = (f"rule {i}",)
            if kind == "step":
                rules.append((_step, ((args[0],), args[1], spec)))
            else:
                rules.append((_below, ((args[0], args[1]), args[2], spec)))
        # four variables in [0, 6]: top and socle of two factors of F_1 S_0
        return obstruction._fresh_state({(1, 0): {0: 6, 1: 6}}, []), rules

    (watched, rules), (full, full_rules) = build(), build()
    _assert_watched_matches_full_sweeps(watched, rules, full, full_rules, data)


def _copying_search(state, rules):
    """Reference search: copy the domains per node, full sweeps, recursion."""
    open_ids = [v for v, (lo, hi) in enumerate(_domains(state)) if lo < hi]
    if not open_ids:
        return state
    v = min(open_ids, key=lambda v: state.hi[v] - state.lo[v])
    for value in range(state.lo[v], state.hi[v] + 1):
        branch = obstruction._State(state.keys, state.lo.copy(), state.hi.copy(), None,
                                    state.top)
        try:
            branch.narrow(v, value, value, ("branch",))
            _full_sweeps(branch, rules)
        except obstruction._Violation:
            continue
        found = _copying_search(branch, rules)
        if found is not None:
            return found
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=4, max_size=4),
       st.integers(2, 3))
def test_trail_search_matches_copying_search_on_random_models(rows, depth):
    f1 = finite_model(rows).f1
    assume(not f1.is_symmetric())  # symmetric matrices take the semisimple witness
    try:
        report = solve_feasibility(f1, depth)
    except PreconditionFailed:
        assume(False)  # a negative composition multiplicity
    comps = obstruction._compositions(f1, depth)
    state = obstruction._fresh_state(comps, [])
    try:
        rules = obstruction._build_rules(comps, depth, 1, state)
        _full_sweeps(state, rules)
    except obstruction._Violation as exc:
        assert (report.status, report.trace[-1]) == ("UNSAT", exc.event)
        return
    found = _copying_search(state, rules)
    if found is None:
        assert report.status == "UNSAT"
        assert report.trace[-1]["identity"] == "no assignment survives exhaustive search"
    else:
        assert report.status == "SAT"
        assert report.witness == obstruction._witness_from(found, comps)


def test_node_budget_counts_branches():
    # Cinf at depth 6 finds its witness on the 173rd branch
    f1 = catalog("Cinf").f1
    assert solve_feasibility(f1, 6, node_budget=174).status == "SAT"
    report = solve_feasibility(f1, 6, node_budget=173)
    assert report.status == "unknown"
    assert report.trace[-1] == {"constraint": "search", "status": "exhausted-budget",
                                "identity": "node budget 173 reached"}


@pytest.mark.parametrize("depth, branches", [(12, 1_140), (16, 2_548)])
def test_cinf_node_budget_at_depths_12_and_16(depth, branches):
    f1 = catalog("Cinf").f1
    assert solve_feasibility(f1, depth, node_budget=branches).status == "unknown"
    assert solve_feasibility(f1, depth, node_budget=branches + 1).status == "SAT"


def _choices_checked_against_the_scan(monkeypatch) -> list:
    """Check every branch choice against refimpl's linear scan; returns the
    list that the choices are appended to."""
    open_top, chosen = obstruction._open_top, []

    def checked(heap, lo, hi):
        v = open_top(heap, lo, hi)
        assert v == refimpl.branch_key(lo, hi)
        chosen.append(v)
        return v

    monkeypatch.setattr(obstruction, "_open_top", checked)
    return chosen


def test_heap_branch_choice_matches_the_linear_scan(monkeypatch):
    nodes = _choices_checked_against_the_scan(monkeypatch)
    for name in catalog_names():
        f1 = catalog(name).f1
        for depth in range(1, 13):
            solve_feasibility(f1, depth)
    assert len(nodes) == 4_204  # search nodes plus one final read per SAT search


@pytest.mark.parametrize("domains, narrowed, refuted, chosen", [
    # x = 0 pins k, whose entry is popped as stale on the way to y; every y
    # then fails, and the undo back to x reopens k, which must be pushed again
    ({"x": [0, 1], "k": [0, 2], "y": [0, 2]}, ("k", 0), "y", ["x", "y", "k", "y", None]),
    # x = 0 narrows k to width 1; every k then fails, and after the undo the
    # width-1 entry of k is stale: j, the first width-2 key, comes next
    ({"x": [0, 1], "j": [0, 2], "k": [0, 2]}, ("k", 1), "k", ["x", "k", "j", "k", None]),
])
def test_heap_choice_after_an_undo(monkeypatch, domains, narrowed, refuted, chosen):
    keys = list(domains)  # variable ids in dict order
    x, k, r = keys.index("x"), keys.index(narrowed[0]), keys.index(refuted)

    def narrow(state, ids):
        if state.value(x) == 0:
            state.narrow(k, 0, narrowed[1], ("narrow",))

    def refute(state, ids):
        if state.value(x) == 0 and state.value(r) is not None:
            raise obstruction._Violation(("refute",))

    rules = [(narrow, ((x,),)), (refute, ((x, r),))]
    state = obstruction._State(keys, [lo for lo, _ in domains.values()],
                               [hi for _, hi in domains.values()], None, {})
    watch = obstruction._watch_index(rules, len(keys))
    seen = _choices_checked_against_the_scan(monkeypatch)
    assert obstruction._search(state, rules, watch, 100)
    assert [None if v is None else keys[v] for v in seen] == chosen
    assert all(lo == hi for lo, hi in _domains(state))


def test_branch_choice_examines_heap_entries_in_proportion_to_the_trail(monkeypatch):
    # a linear scan of the domains reads 6,420,346 keys over these 2,533 nodes
    open_top, undo, narrow = (obstruction._open_top, obstruction._State.undo,
                              obstruction._State.narrow)
    search = obstruction._search
    counts = dict.fromkeys(("examined", "branches", "undone", "pushed"), 0)

    def counted_top(heap, lo, hi):
        size = len(heap)
        v = open_top(heap, lo, hi)
        counts["examined"] += size - len(heap) + (v is not None)  # popped, then read
        return v

    def counted_undo(self, mark):
        counts["undone"] += len(self.trail) - mark
        undo(self, mark)

    def counted_narrow(self, v, lo, hi, spec):
        counts["branches"] += obstruction._event(spec) == {"constraint": "branch"}
        narrow(self, v, lo, hi, spec)

    def counted_search(state, rules, watch, budget):
        start = len(state.trail)
        found = search(state, rules, watch, budget)
        # every entry undone was pushed during the search
        counts["pushed"] += len(state.trail) - start + counts["undone"]
        return found

    monkeypatch.setattr(obstruction, "_open_top", counted_top)
    monkeypatch.setattr(obstruction._State, "undo", counted_undo)
    monkeypatch.setattr(obstruction._State, "narrow", counted_narrow)
    monkeypatch.setattr(obstruction, "_search", counted_search)
    assert solve_feasibility(catalog("Cinf").f1, 16).status == "SAT"
    assert counts["branches"] == 2_548
    assert counts["examined"] <= counts["branches"] + counts["undone"] + counts["pushed"]


def test_search_does_not_recurse_at_the_depth_cap():
    # the search path is 1,128 branches deep here: one Python frame per
    # branch would pass the default recursion limit of 1,000
    report = socle_top_feasibility(catalog("Cinf"), 12)
    assert report.status == "SAT"
    assert len(report.witness) == 12 * 13


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
    nodes, edges = modcat.action_graph(catalog("Tinf").f1, 3)
    assert nodes == [0, 1, 2]
    assert (0, 0, 1) in edges and (0, 1, 1) in edges and (1, 0, 1) in edges
    nodes_int, _ = modcat.action_graph(catalog("AinfInf").f1, 4)
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
