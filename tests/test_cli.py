from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from sl2cat import modcat, oracles
from sl2cat.cli import MAX_SIZE, MAX_UPTO, MAX_WINDOW, _print_json, main
from sl2cat.dynkin import MAX_FINITE_RANK, Classification, DynkinType, gcm_of, template
from sl2cat.modcat import ModuleCategoryModel, TypePrediction
from sl2cat.obstruction import ObstructionReport
from sl2cat.oracles import JordanPartition, NamedOObject, RestrictionReport, SlCharacter, _System
from sl2cat.presented import MAX_BAND, MAX_HEAD, IndexSet, PresentedMatrix

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "sl2cat" / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture(scope="module")
def registry():
    resources = []
    for f in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(f.read_text("utf-8"))
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


def validate(registry, schema_name, doc):
    schema = json.loads((SCHEMA_DIR / f"{schema_name}.schema.json").read_text("utf-8"))
    Draft202012Validator(schema, registry=registry).validate(doc)


def write_matrix(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps(PresentedMatrix.from_dense(rows).to_json_dict()))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    return write_matrix(tmp_path, "a2.json", [[2, -1], [-1, 2]])


# -- classify ------------------------------------------------------------------


def test_classify_a2_golden(capsys, a2_file):
    code, out, _ = run(capsys, "classify", "--gcm", a2_file)
    assert code == 0
    assert out == "Classical A_2 (h=3)\n"


def test_classify_certificate_lists_minors(capsys, a2_file):
    code, out, _ = run(capsys, "classify", "--gcm", a2_file, "--certificate")
    assert code == 0
    assert "minors: 2, 3" in out
    assert "coxeter_number: 3" in out


def test_classify_affine_display(capsys, tmp_path):
    gcm = write_matrix(tmp_path, "a1t.json", [[2, -2], [-2, 2]])
    code, out, _ = run(capsys, "classify", "--gcm", gcm)
    assert code == 0
    assert out == "Affine A~12 (null vector (1, 1))\n"


def test_classify_infinite_from_catalog_gcm(capsys, tmp_path):
    from sl2cat.dynkin import MAX_FINITE_RANK, DynkinType, gcm_of, template

    gcm = gcm_of(modcat.catalog("BinfDual").projective_matrix())
    path = tmp_path / "binf.json"
    path.write_text(json.dumps(gcm.to_json_dict()))
    code, out, _ = run(capsys, "classify", "--gcm", str(path))
    assert code == 0
    assert out == "Infinite B_inf (null vector (1, 2, 2, ...) with v_i = 2 from i = 1)\n"


def test_classify_disconnected_unrecognized_then_components(capsys, tmp_path):
    gcm = write_matrix(tmp_path, "a2a1.json", [[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
    code, out, _ = run(capsys, "classify", "--gcm", gcm)
    assert code == 0
    assert out.startswith("Unrecognized:")

    code, out, _ = run(capsys, "classify", "--gcm", gcm, "--components")
    assert code == 0
    assert out == ("component 0,1: Classical A_2 (h=3)\n"
                   "component 2: Classical A_1 (h=2)\n")


def test_classify_json_schema(capsys, registry, a2_file, tmp_path):
    code, doc = run_json(capsys, "classify", "--gcm", a2_file, "--json")
    assert code == 0
    validate(registry, "classification", doc)
    assert doc["display"] == "Classical A_2 (h=3)"
    assert doc["type"] == {"kind": "classical", "family": "A", "rank": 2}

    gcm = write_matrix(tmp_path, "dis.json", [[2, 0], [0, 2]])
    code, doc = run_json(capsys, "classify", "--gcm", gcm, "--components", "--json")
    assert code == 0
    validate(registry, "classification", doc)
    assert [c["vertices"] for c in doc["components"]] == [[0], [1]]


def test_classify_rejects_bad_gcm(capsys, tmp_path):
    gcm = write_matrix(tmp_path, "bad.json", [[2, 1], [1, 2]])
    code, out, err = run(capsys, "classify", "--gcm", gcm)
    assert code == 3
    assert out == ""
    assert "positive" in err


def test_classify_missing_file_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--gcm", str(tmp_path / "nope.json"))
    assert code == 3
    assert "cannot read" in err


def test_missing_required_flag_exit_2(capsys):
    code, _, _ = run(capsys, "classify")
    assert code == 2


def test_unknown_verb_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_repeated_calls_in_one_process_match_their_goldens(capsys, monkeypatch, tmp_path, a2_file):
    # main() reuses one parser; each call must still read only its own argv
    monkeypatch.setenv("COLUMNS", "100")
    bad = tmp_path / "bad.json"
    bad.write_text('{"index": "nat"')
    for _ in range(2):
        assert run(capsys, "classify") == (2, "", (
            "usage: sl2cat classify [-h] --gcm FILE [--certificate] [--components] [--json]\n"
            "sl2cat classify: error: the following arguments are required: --gcm\n"))
        assert run(capsys, "classify", "--gcm", str(bad)) == (3, "", (
            f"error: {bad} is not valid JSON: Expecting ',' delimiter: "
            "line 1 column 16 (char 15)\n"))
        assert run(capsys, "classify", "--gcm", a2_file) == (0, "Classical A_2 (h=3)\n", "")
        assert run(capsys, "derive", "--model", "Ainf", "--upto", "1", "--window", "3") == (0, (
            "model Ainf (basis projectives)\n"
            "F_0: head size 0 {}, tail diagonals {0: 1}\n"
            "     1  0  0\n"
            "     0  1  0\n"
            "     0  0  1\n"
            "F_1: head size 0 {}, tail diagonals {-1: 1, +1: 1}\n"
            "     0  1  0\n"
            "     1  0  1\n"
            "     0  1  0\n"), "")


# -- derive / transitive ---------------------------------------------------------


def test_derive_human_window(capsys):
    code, out, _ = run(capsys, "derive", "--model", "Ainf", "--upto", "1", "--window", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model Ainf (basis projectives)"
    assert any(line.startswith("F_1:") for line in lines)
    assert "     0  1  0" in lines


def test_derive_json_schema_and_window_clamps(capsys, registry, tmp_path):
    gcm = write_matrix(tmp_path, "fin.json", [[0, 1], [1, 0]])
    code, doc = run_json(capsys, "derive", "--model", gcm, "--upto", "2",
                         "--window", "9", "--json")
    assert code == 0
    validate(registry, "derivation", doc)
    assert doc["upto"] == 2
    assert len(doc["actions"]) == 3
    assert doc["actions"][1]["window"] == [[0, 1], [1, 0]]


def test_derive_simples_basis(capsys, registry):
    code, doc = run_json(capsys, "derive", "--model", "Cinf", "--upto", "1",
                         "--basis", "simples", "--json")
    assert code == 0
    validate(registry, "derivation", doc)
    assert doc["basis"] == "simples"
    got = PresentedMatrix.from_json_dict(doc["actions"][1]["matrix"])
    assert got == modcat.to_simples_basis(modcat.catalog("Cinf")).f1


# sha256 of the stdout of `derive --model M --basis B --upto 24 --json`, recorded
# when mul still kept a separate branch for finite matrices and walked every
# head row of an N-indexed one
DERIVE_DIGESTS = {
    "Ainf": ("9fe8e4f6023501b3a9b931610432a24b9fd35ae8fd8ea4aeff709c4c6f31dd13",
             "001f363b31c6a5bcdc7877028d9966785b67ff1586bc77d9550a8d0c45735504"),
    "AinfInf": ("1f3efd7c700c7dd36d3b29ca4477daaac993cdb9967da04f82a558144c26f2f4",
                "a5037cdf389227fe758ff940e1d1e7f9cba198f9c3f44a0e70285265335ef566"),
    "BinfDual": ("e268dea63010abec0b4620d6038ac2e72767f937a67380f0e992ba67c33b9db0",
                 "ddf0e22e0da95e3ce4d2c3eb0d718507efc81ef614a2f3aef448c682759c5478"),
    "Cinf": ("4c426338ce3a80ea2b3ab47073df9f061ecb77613916724a450741369990d347",
             "dfa316568f92fccb7288f2f6591afdbcc3aa5c6b05913652e60fccdc4d69cf4e"),
    "Dinf": ("8f89e942b5538df3d0433515771d12b25e754c6d3a3d0c49ce38fd3a1b6588eb",
             "a637aeca1dcbb9a5c5b392364f7f7343a54608687d260fe1a67f3fda26ddde1e"),
    "Tinf": ("d9813438d738a49167a1b21e99cfde2b31f860d6bf517ba790069cc42541bf0a",
             "89aa0fa52a33fd5feae0e0f06ecb02bc15fce2401f313e6a56a4a828ca5638ea"),
}


@pytest.mark.parametrize("name", modcat.catalog_names())
def test_derive_json_to_24_matches_recorded_digests(capsys, name):
    for basis, digest in zip(("projectives", "simples"), DERIVE_DIGESTS[name]):
        code, out, err = run(capsys, "derive", "--model", name, "--basis", basis,
                             "--upto", "24", "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, basis


def test_derive_negative_window_exit_3(capsys):
    code, out, err = run(capsys, "derive", "--model", "Ainf", "--upto", "2", "--window", "-4")
    assert code == 3
    assert out == ""
    assert err == "error: --window must be >= 0\n"


def test_derive_window_past_the_cap_exit_3(capsys, time_limit):
    # the dense window grows as N^2: at the cap one matrix prints 13 MB of JSON
    with time_limit(2.0):
        code, out, err = run(capsys, "derive", "--model", "Ainf", "--upto", "0",
                             "--window", str(MAX_WINDOW + 1), "--json")
    assert (code, out) == (3, "")
    assert err == "error: --window must be <= 1000, got 1001\n"


def test_derive_upto_at_and_past_the_cap(capsys, time_limit):
    # the output grows as K^3: the cap bounds a call on a catalog model to about 2 s
    with time_limit(10.0):
        code, out, err = run(capsys, "derive", "--model", "Ainf", "--upto", str(MAX_UPTO))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith(f"F_{MAX_UPTO}: ")
    with time_limit(2.0):
        code, out, err = run(capsys, "derive", "--model", "Dinf", "--upto", str(MAX_UPTO + 1),
                             "--json")
    assert (code, out) == (3, "")
    assert err == "error: --upto must be <= 100, got 101\n"


def test_model_file_with_a_bool_finite_size_exit_3(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"index": {"finite": True}}))
    code, out, err = run(capsys, "derive", "--model", str(path), "--upto", "1", "--json")
    assert (code, out) == (3, "")
    assert err == f"error: {path}: expected an integer, got True\n"


@pytest.mark.parametrize("head, tail, message", [
    ({"size": 0, "entries": []}, {"band": 10**9, "diagonals": {"-1": 1, str(10**9): 1}},
     f"band 1000000000 exceeds the cap {MAX_BAND}"),
    ({"size": 10**9, "entries": [[0, 1, 1], [1, 0, 1]]}, {"band": 1, "diagonals": {"-1": 1, "1": 1}},
     f"head size 1000000000 exceeds the cap {MAX_HEAD}"),
])
def test_a_model_past_the_band_or_head_cap_exit_3(capsys, tmp_path, time_limit,
                                                  head, tail, message):
    # both read in at once; derive and transitive on them would not finish
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"index": "nat", "head": head, "tail": tail}))
    for verb in (["derive", "--upto", "2"], ["transitive"], ["render", "--dot", "-"]):
        with time_limit(1.0):
            code, out, err = run(capsys, verb[0], "--model", str(path), *verb[1:])
        assert (code, out, err) == (3, "", f"error: {path}: {message}\n"), verb


@pytest.mark.parametrize("extra", [[], ["--components"]])
def test_a_finite_gcm_past_the_classification_cap_exit_3(capsys, tmp_path, time_limit, extra):
    # finite classification is cubic in the rank: A_400 took 7 s without the cap
    size = MAX_FINITE_RANK + 1
    path = tmp_path / "a.json"
    path.write_text(json.dumps(template(DynkinType("classical", "A", size)).to_json_dict()))
    with time_limit(1.0):
        code, out, err = run(capsys, "classify", "--gcm", str(path), *extra)
    assert (code, out) == (3, "")
    assert err == f"error: finite index of size {size} exceeds the classification cap {MAX_FINITE_RANK}\n"


def test_a_finite_gcm_at_the_classification_cap_answers(capsys, tmp_path, time_limit):
    # B_n's certificate derives F_{2n-1} of its template, the slowest template
    dtype = DynkinType("classical", "B", MAX_FINITE_RANK)
    path = tmp_path / "b.json"
    path.write_text(json.dumps(template(dtype).to_json_dict()))
    with time_limit(5.0):
        code, out, err = run(capsys, "classify", "--gcm", str(path), "--certificate")
    assert (code, err) == (0, "")
    assert out.startswith(f"Classical {dtype.display()} (h={2 * MAX_FINITE_RANK})")


def test_transitive_catalog_models(capsys, registry):
    for name in modcat.catalog_names():
        code, doc = run_json(capsys, "transitive", "--model", name, "--json")
        assert code == 0
        validate(registry, "transitivity", doc)
        assert doc["transitive"] == "yes"


def test_model_spec_neither_name_nor_file(capsys):
    code, _, err = run(capsys, "transitive", "--model", "NoSuchModel")
    assert code == 3
    assert "neither a catalog model" in err


@pytest.mark.parametrize("field, value, message", [
    ("name", 5, "model name must be a string, got 5"),
    ("provenance", 7, "model provenance must be a string, got 7"),
    ("colour", "red", "unknown model fields ['colour']"),
])
def test_model_file_outside_the_schema_exit_3(capsys, tmp_path, field, value, message):
    path = tmp_path / "model.json"
    f1 = PresentedMatrix.from_dense([[0, 1], [1, 0]]).to_json_dict()
    path.write_text(json.dumps({"f1": f1, field: value}))
    for verb in (["derive", "--upto", "2", "--json"], ["transitive"]):
        code, out, err = run(capsys, verb[0], "--model", str(path), *verb[1:])
        assert code == 3
        assert out == ""
        assert err == f"error: {path}: {message}\n"


def test_model_file_without_name_uses_the_file_stem(capsys, registry, tmp_path):
    path = tmp_path / "swap.json"
    f1 = PresentedMatrix.from_dense([[0, 1], [1, 0]]).to_json_dict()
    path.write_text(json.dumps({"f1": f1}))
    code, doc = run_json(capsys, "derive", "--model", str(path), "--upto", "1", "--json")
    assert code == 0
    validate(registry, "derivation", doc)
    assert (doc["model"], doc["basis"]) == ("swap", "projectives")


# -- the JSON emitter ------------------------------------------------------------

json_ints = st.one_of(st.integers(-5, 5), st.integers(-2**80, 2**80))
json_texts = st.text(st.sampled_from('az"\\/\n\t\x00\x1f\x7f é∞😀'), max_size=6)
row_items = st.one_of(json_ints, json_ints, json_ints, st.just(True))


def int_rows(n):
    row = st.lists(row_items, min_size=n, max_size=n)
    return st.lists(st.one_of(row, row.map(tuple)), min_size=1, max_size=4)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), json_ints, json_texts,
              st.lists(row_items, max_size=4), st.integers(0, 3).flatmap(int_rows),
              st.lists(st.lists(row_items, max_size=3), max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(json_texts, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_print_json_writes_the_bytes_of_the_indent_encoder(doc):
    out = io.StringIO()
    with redirect_stdout(out):
        _print_json(doc)
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_print_json_rejects_what_it_cannot_encode():
    # a record is a namedtuple, which json would write as a list of its fields
    point = namedtuple("Point", "x y")(1, 2)
    for doc in [{"a": [1, object()]}, {1: 2}, [{"a": 1}, {(1,): 2}], [point], {"p": point},
                DynkinType("classical", "A", 3), {"o": NamedOObject("L", -1)}]:
        with pytest.raises(TypeError):
            _print_json(doc)


def test_derive_json_never_takes_the_pure_python_encoder(capsys, monkeypatch):
    # json.dumps with an indent builds its encoder here; the C encoder does not
    def refuse(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, err = run(capsys, "derive", "--model", "Dinf", "--upto", "8", "--json")
    monkeypatch.undo()
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# -- verify-catalog ----------------------------------------------------------------


def test_verify_catalog_green(capsys, registry):
    code, doc = run_json(capsys, "verify-catalog", "--json")
    assert code == 0
    validate(registry, "catalog-report", doc)
    assert doc == modcat.verify_catalog()
    assert doc["status"] == "ok"
    assert doc["failures"] == 0
    assert sorted(doc["fixtures"]) == modcat.catalog_names()
    by_name = {n: f["type"] for n, f in doc["fixtures"].items()}
    assert by_name == {
        "Ainf": "A_inf", "AinfInf": "A_inf_inf", "BinfDual": "B_inf",
        "Cinf": "C_inf", "Dinf": "D_inf", "Tinf": "T_inf",
    }


def test_verify_catalog_stable_across_runs(capsys):
    _, out1, _ = run(capsys, "verify-catalog", "--json")
    _, out2, _ = run(capsys, "verify-catalog", "--json")
    assert out1 == out2


def test_verify_catalog_checks_all_routes(capsys):
    _, doc = run_json(capsys, "verify-catalog", "--json")
    names = {n: [c["name"] for c in f["checks"]] for n, f in doc["fixtures"].items()}
    assert "oracle:A_inf_tilting" in names["Ainf"]
    assert "oracle:N6_borel" in names["Ainf"]
    assert "oracle:A_infinf_generic" in names["AinfInf"]
    assert "oracle:N5_borel" in names["AinfInf"]
    assert "oracle:C_inf_projinj" in names["Cinf"]
    assert "oracle:transpose-of-Cinf" in names["BinfDual"]
    assert "oracle:takiff-relations" in names["BinfDual"]
    assert "oracle:dinf-relations" in names["Dinf"]
    assert "oracle:schrodinger-relations" in names["Tinf"]
    for checks in names.values():
        assert checks == sorted(checks)
        for required in ("categorifiable", "classify", "null-vector",
                         "obstruction", "round-trip", "symmetry", "transitive"):
            assert required in checks


@pytest.fixture
def wrong_cinf(monkeypatch):
    # Cinf's fixture replaced by its transpose, which is BinfDual's F_1
    models = dict(modcat._load_catalog())
    cinf = models["Cinf"]
    models["Cinf"] = modcat.ModuleCategoryModel(cinf.name, cinf.basis, cinf.f1.transpose(),
                                                cinf.provenance)
    monkeypatch.setattr(modcat, "_load_catalog", lambda: models)


def test_verify_catalog_reports_a_wrong_fixture(wrong_cinf, registry):
    doc = modcat.verify_catalog()
    validate(registry, "catalog-report", doc)
    assert doc["status"] == "fail"
    failed = {name: sorted(c["name"] for c in f["checks"] if c["status"] == "fail")
              for name, f in doc["fixtures"].items() if f["status"] == "fail"}
    assert failed == {"BinfDual": ["oracle:transpose-of-Cinf"],
                      "Cinf": ["classify", "obstruction", "oracle:C_inf_projinj"]}
    assert doc["failures"] == 4
    assert doc["fixtures"]["Cinf"]["type"] is None


def test_verify_catalog_cli_exits_4_on_a_wrong_fixture(wrong_cinf, capsys):
    code, out, err = run(capsys, "verify-catalog")
    assert code == 4
    assert err == ""
    lines = out.splitlines()
    assert any(line.startswith("FAIL Cinf ") for line in lines)
    assert "     fail oracle:C_inf_projinj: matrix differs" in lines
    assert "     fail oracle:transpose-of-Cinf: matrix differs" in lines
    assert lines[-1] == "catalog: fail (54 checks, 4 failures)"


def test_verify_catalog_reports_a_raising_check(monkeypatch):
    def broken(realization):
        raise RuntimeError(f"no route {realization}")

    monkeypatch.setattr(oracles, "derive_catalog_matrix", broken)
    doc = modcat.verify_catalog()
    checks = {c["name"]: c for c in doc["fixtures"]["Ainf"]["checks"]}
    assert checks["oracle:N6_borel"] == {
        "name": "oracle:N6_borel", "status": "fail",
        "detail": "raised RuntimeError: no route N6_borel"}
    assert doc["failures"] == 5  # two Ainf, two AinfInf and one Cinf route


# -- relation-system action matrices ------------------------------------------------


def test_restriction_action_matrix_matches_catalog():
    assert oracles.restriction_action_matrix("takiff") == modcat.catalog("BinfDual").f1
    assert oracles.restriction_action_matrix("schrodinger") == modcat.catalog("Tinf").f1
    assert oracles.restriction_action_matrix("dinf") == modcat.catalog("Dinf").f1


def test_restriction_action_matrix_unknown_system():
    with pytest.raises(ValueError):
        oracles.restriction_action_matrix("heisenberg")


# -- obstruction --------------------------------------------------------------------


def test_obstruction_binfdual_unsat_golden(capsys):
    code, out, _ = run(capsys, "obstruction", "--model", "BinfDual", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "UNSAT at depth 2 (schur dim 1)"
    assert lines[1] == "trace:"
    assert "[violated] covering:" in lines[-1]
    assert "[top F_2 S_0 : S_0] + [socle F_2 S_0 : S_0] >= 1" in lines[-1]


def test_obstruction_sat_witness(capsys, registry):
    code, doc = run_json(capsys, "obstruction", "--model", "Tinf",
                         "--depth", "2", "--json")
    assert code == 0
    validate(registry, "obstruction", doc)
    assert doc["status"] == "SAT"
    assert all(e["top"] == e["socle"] for e in doc["witness"])


def test_obstruction_json_schema_unsat(capsys, registry):
    code, doc = run_json(capsys, "obstruction", "--model", "BinfDual",
                         "--depth", "2", "--json")
    assert code == 0
    validate(registry, "obstruction", doc)
    assert doc["status"] == "UNSAT"
    assert doc["witness"] is None
    assert doc["trace"][-1]["status"] == "violated"


def test_obstruction_bad_depth_exit_3(capsys):
    code, _, err = run(capsys, "obstruction", "--model", "Ainf", "--depth", "-1")
    assert code == 3
    assert err.startswith("error:")


def test_obstruction_at_the_depth_cap(capsys):
    code, out, err = run(capsys, "obstruction", "--model", "Cinf", "--depth", "32")
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "SAT at depth 32 (schur dim 1)"


def test_obstruction_past_the_depth_cap_exit_3(capsys):
    code, out, err = run(capsys, "obstruction", "--model", "Cinf", "--depth", "33")
    assert code == 3
    assert out == ""
    assert err == "error: depth 33 exceeds the exhaustive-search cap 32\n"


@pytest.mark.parametrize("schur_dim", ["0", "-1"])
def test_obstruction_schur_dim_below_one_exit_3(capsys, schur_dim):
    code, out, err = run(capsys, "obstruction", "--model", "BinfDual", "--depth", "2",
                         "--schur-dim", schur_dim)
    assert code == 3
    assert out == ""
    assert err == "error: schur_dim must be >= 1\n"


# -- decompose ------------------------------------------------------------------------


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "--tensor", "L(1) x P(-2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "P(-1) + P(-1) + P(-3)"
    assert lines[1].startswith("note: P(-1) = L(-1)")


def test_decompose_json_uses_canonical_tag(capsys, registry):
    code, doc = run_json(capsys, "decompose", "--tensor", "L(1) x P(-2)", "--json")
    assert code == 0
    validate(registry, "decomposition", doc)
    assert doc["summands"] == [
        {"multiplicity": 2, "object": "L(-1)"},
        {"multiplicity": 1, "object": "P(-3)"},
    ]


def test_decompose_star_syntax(capsys):
    code, out, _ = run(capsys, "decompose", "--tensor", "L(0) * L(-1)")
    assert code == 0
    assert out.splitlines()[0] == "P(-1)"


def test_decompose_rejects_malformed(capsys):
    code, _, err = run(capsys, "decompose", "--tensor", "L(1) plus P(-2)")
    assert code == 3
    assert "cannot parse tensor expression" in err

    code, _, err = run(capsys, "decompose", "--tensor", "L(1) x Q(-2)")
    assert code == 3


def test_decompose_rejects_weights_outside_catalog(capsys):
    # L(0) is not an object of the catalog subcategory
    code, _, err = run(capsys, "decompose", "--tensor", "L(1) x L(0)")
    assert code == 3


def test_tensoring_simple_weight_is_bounded_exit_3(capsys):
    bound = 10_000  # the bound the README states
    calls = [
        ("decompose", "--tensor", "L(" + "1" * 5000 + ") x P(-2)"),
        ("decompose", "--tensor", f"L({bound + 1}) x P(-2)", "--json"),
        ("oracle", "o-tensor", "--n", str(bound + 1), "--object", "L(-1)", "--json"),
        ("oracle", "o-tensor", "--n", "200000", "--coset-offset", "0"),
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv[:2]
        assert err.startswith("error:") and "Traceback" not in err
        assert str(bound) in err
    # the bound itself still answers
    code, doc = run_json(capsys, "oracle", "o-tensor", "--n", str(bound),
                         "--object", "L(-1)", "--json")
    assert code == 0 and len(doc["verma_flag"]) == bound + 1
    code, out, err = run(capsys, "decompose", "--tensor", f"L({bound}) x P(-2)")
    assert (code, err) == (0, "") and out.endswith(f" + P({-bound - 2})\n")
    assert oracles.MAX_TENSOR_WEIGHT == bound


def test_long_object_weight_exit_3_in_package_words(capsys):
    weight = "-" + "1" * 5000  # past the interpreter's 4,300-digit int() limit
    for argv in [("oracle", "o-tensor", "--n", "1", "--object", f"P({weight})"),
                 ("decompose", "--tensor", f"L(1) x P({weight})")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:2]
        assert "set_int_max_str_digits" not in err


# -- oracles ------------------------------------------------------------------------------


def test_o_tensor_integral_golden(capsys):
    code, out, _ = run(capsys, "oracle", "o-tensor", "--n", "1", "--object", "P(-2)")
    assert code == 0
    assert out == "Delta(1) + Delta(-1) + Delta(-1) + Delta(-3)\n"


def test_o_tensor_coset_golden(capsys, registry):
    code, out, _ = run(capsys, "oracle", "o-tensor", "--n", "2", "--coset-offset", "0")
    assert code == 0
    assert out == "Delta(c+2) + Delta(c) + Delta(c-2)\n"

    code, doc = run_json(capsys, "oracle", "o-tensor", "--n", "2",
                         "--coset-offset", "0", "--json")
    assert code == 0
    validate(registry, "o-tensor", doc)
    assert doc["coset"] is True
    assert doc["verma_flag"] == {"-2": 1, "0": 1, "2": 1}


def test_o_tensor_object_json(capsys, registry):
    code, doc = run_json(capsys, "oracle", "o-tensor", "--n", "1",
                         "--object", "Delta(3)", "--json")
    assert code == 0
    validate(registry, "o-tensor", doc)
    assert doc["coset"] is False
    assert doc["object"] == "Delta(3)"
    assert doc["verma_flag"] == {"2": 1, "4": 1}


def test_jordan_golden(capsys, registry):
    code, out, _ = run(capsys, "oracle", "jordan", "--n", "10", "--lambda=-9/4")
    assert code == 0
    assert out == "J_11(-9/4) + J_9(-9/4)\n"

    code, doc = run_json(capsys, "oracle", "jordan", "--n", "10",
                         "--lambda=-9/4", "--json")
    assert code == 0
    validate(registry, "jordan", doc)
    assert doc["blocks"] == [[11, "-9/4"], [9, "-9/4"]]


def test_jordan_rejects_bad_eigenvalue(capsys):
    code, _, err = run(capsys, "oracle", "jordan", "--n", "3", "--lambda", "x")
    assert code == 3
    assert "cannot parse eigenvalue" in err

    code, _, _ = run(capsys, "oracle", "jordan", "--n", "0", "--lambda", "1")
    assert code == 3


def test_jordan_cell_size_bound_exit_3(capsys):
    code, out, err = run(capsys, "oracle", "jordan", "--n", "10001", "--lambda", "1")
    assert code == 3
    assert out == ""
    assert err == "error: the Jordan cell needs n <= 10000, got 10001\n"


def test_restrictions_consistent_systems(capsys, registry):
    for system in ("takiff", "schrodinger"):
        code, doc = run_json(capsys, "oracle", "restrictions",
                             "--system", system, "--json")
        assert code == 0
        validate(registry, "restrictions", doc)
        assert doc["status"] == "consistent"
        assert doc["truncation"] == 20


def test_restrictions_dinf_needs_assumption(capsys, registry):
    code, doc = run_json(capsys, "oracle", "restrictions", "--system", "dinf", "--json")
    assert code == 0
    validate(registry, "restrictions", doc)
    assert doc["status"] == "underdetermined"
    assert "freedom" in doc

    code, doc = run_json(capsys, "oracle", "restrictions", "--system", "dinf",
                         "--assume-restrictions", "--json")
    assert code == 0
    validate(registry, "restrictions", doc)
    assert doc["status"] == "consistent"
    assert sorted(doc["characters"]) == [
        "branch_a", "branch_b", "chain_1", "chain_2", "chain_3", "chain_4",
    ]


def test_restrictions_dinf_assumed_minimum_truncation(capsys):
    # the period-4 branch tail needs two full periods, i.e. truncation 7
    code, out, err = run(capsys, "oracle", "restrictions", "--system", "dinf",
                         "--truncation", "6", "--assume-restrictions")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "truncation >= 7" in err
    assert "Traceback" not in err

    code, doc = run_json(capsys, "oracle", "restrictions", "--system", "dinf",
                         "--truncation", "7", "--assume-restrictions", "--json")
    assert code == 0
    assert doc["status"] == "consistent"


#: sha256 of `oracle restrictions --system S --truncation T --json`, without and
#: with --assume-restrictions (None: below the assumed dinf minimum of 7)
RESTRICTION_DIGESTS = {
    ("takiff", 4): ("6af0fa67e8aa60c7ae540ee1d44d15713080a344dc84173d8727f66242624603",
                    "6af0fa67e8aa60c7ae540ee1d44d15713080a344dc84173d8727f66242624603"),
    ("takiff", 7): ("88ab6591a1f59bbb0735f3448ceee0e9ba96645a884b3c2242829281bcd139fa",
                    "88ab6591a1f59bbb0735f3448ceee0e9ba96645a884b3c2242829281bcd139fa"),
    ("takiff", 12): ("bc87129a22828b398ef7ee6b61f0290aab9bcb00ad39af49880fd73b49934c4e",
                     "bc87129a22828b398ef7ee6b61f0290aab9bcb00ad39af49880fd73b49934c4e"),
    ("takiff", 20): ("fbddaace4bb376aafd57b0f9c0a17514d7f89f84f21d6228470430d9b3a8a211",
                     "fbddaace4bb376aafd57b0f9c0a17514d7f89f84f21d6228470430d9b3a8a211"),
    ("takiff", 40): ("5bf2ff0a7974a372c3cf1c5790ee186e869d520e91f922ad53617ea3dd7c36cc",
                     "5bf2ff0a7974a372c3cf1c5790ee186e869d520e91f922ad53617ea3dd7c36cc"),
    ("schrodinger", 4): ("f679bd7611aa073df421493822ecdd00500538f4f25bc1e69fc90e8b4dfd7e17",
                         "f679bd7611aa073df421493822ecdd00500538f4f25bc1e69fc90e8b4dfd7e17"),
    ("schrodinger", 7): ("3e8187bbe143048ad7aa23a948006c7459f718b47c91d570d5f3833ede592704",
                         "3e8187bbe143048ad7aa23a948006c7459f718b47c91d570d5f3833ede592704"),
    ("schrodinger", 12): ("3c280af1d1086fb10c5e12c61338a22f45d83f8005900dc3c93fd4eb735a3358",
                          "3c280af1d1086fb10c5e12c61338a22f45d83f8005900dc3c93fd4eb735a3358"),
    ("schrodinger", 20): ("c0c44709032b8c718033901bb74827d0b366689b6df09e2de06832f2aa6d9aa9",
                          "c0c44709032b8c718033901bb74827d0b366689b6df09e2de06832f2aa6d9aa9"),
    ("schrodinger", 40): ("7b6d3859099ce72ad9ffecb8b087200fdc0e6e5b6ef498d355406aa3f40fd482",
                          "7b6d3859099ce72ad9ffecb8b087200fdc0e6e5b6ef498d355406aa3f40fd482"),
    ("dinf", 4): ("8c84412628cc6932dfee47c29ce871b5ac447e36f6634ff4821ee13034180b9d",
                  None),
    ("dinf", 7): ("93889d9a2d15a03c825ab5322b033caaf80b536b9539fddf16a2de2d80d27040",
                  "0c6011d9356fd059d81348d9338ceefbb3a04f532ec485c110c0861bafb9c600"),
    ("dinf", 12): ("61405f57e15965f600dde7371588dfa12253b4a7d1c74282d3e317f72e8a6625",
                   "9115e6e16b81411ab96156130b468388120eaa1d403cb35fba6ee627307806e9"),
    ("dinf", 20): ("06d5b2c920527dfd03d7ccf14f00c1f6ee21a784ac0f1950aa1a394e5f776c56",
                   "509b1653df681d14d9b8caf08feb52ef7f3025fab52400e61ef622ea8d310ee7"),
    ("dinf", 40): ("119b166176b024319501d3463fe54596807d4681786fee051930e47fb7a638d0",
                   "cd0f7e2a7e0f778e3fefe0a64ef4d19454f5c2d783549309b0d79d9fa6c4e630"),
}


@pytest.mark.parametrize("system, truncation", sorted(RESTRICTION_DIGESTS))
def test_restriction_documents_match_recorded_digests(capsys, system, truncation):
    for assume, digest in zip((False, True), RESTRICTION_DIGESTS[system, truncation]):
        if digest is None:
            continue
        flags = ["--assume-restrictions"] if assume else []
        code, out, err = run(capsys, "oracle", "restrictions", "--system", system,
                             "--truncation", str(truncation), "--json", *flags)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, assume


@pytest.mark.parametrize("system, flags", [("takiff", []), ("schrodinger", []), ("dinf", []),
                                           ("dinf", ["--assume-restrictions"])])
def test_restrictions_truncation_at_and_past_the_cap(capsys, time_limit, system, flags):
    # the assumed forked system writes about T^2 equations: at the cap it is the
    # slowest, at about half a second
    cap = oracles.MAX_TRUNCATION
    with time_limit(5.0):
        code, out, err = run(capsys, "oracle", "restrictions", "--system", system,
                             "--truncation", str(cap), *flags)
    assert (code, err) == (0, "")
    assert out.startswith(f"system {system}: ") and f"truncation {cap})" in out
    with time_limit(1.0):
        code, out, err = run(capsys, "oracle", "restrictions", "--system", system,
                             "--truncation", str(cap + 1), "--json", *flags)
    assert (code, out) == (3, "")
    assert err == f"error: need truncation <= {cap}, got {cap + 1}\n"


def test_restrictions_unknown_system_exit_3(capsys):
    code, _, err = run(capsys, "oracle", "restrictions", "--system", "nope")
    assert code == 3
    assert "unknown system" in err


# -- render ------------------------------------------------------------------------------


def test_render_model_dot_stdout(capsys):
    code, out, _ = run(capsys, "render", "--model", "BinfDual", "--dot", "-", "--size", "3")
    assert code == 0
    assert out == ('digraph "BinfDual" {\n'
                   "  rankdir=LR;\n"
                   '  v0 [label="0"];\n'
                   '  v1 [label="1"];\n'
                   '  v2 [label="2"];\n'
                   "  v0 -> v1 [label=2];\n"
                   "  v1 -> v0 [label=1];\n"
                   "  v1 -> v2 [label=1];\n"
                   "  v2 -> v1 [label=1];\n"
                   "}\n")


def test_render_gcm_writes_file(capsys, tmp_path, a2_file):
    out_path = tmp_path / "a2.dot"
    code, out, _ = run(capsys, "render", "--gcm", a2_file, "--dot", str(out_path))
    assert code == 0
    assert "wrote 2 nodes, 2 edges" in out
    dot = out_path.read_text()
    assert "v0 -> v1 [label=1];" in dot
    assert "v1 -> v0 [label=1];" in dot


def test_render_loops_as_self_edges(capsys):
    # Tinf has a fixed point: F_1 P_0 contains P_0
    code, out, _ = run(capsys, "render", "--model", "Tinf", "--dot", "-", "--size", "3")
    assert code == 0
    assert "v0 -> v0 [label=1];" in out


def test_render_int_index_window_is_centered(capsys):
    code, out, _ = run(capsys, "render", "--model", "AinfInf", "--dot", "-", "--size", "3")
    assert code == 0
    assert 'v0 [label="-1"];' in out
    assert 'v1 [label="0"];' in out
    assert 'v2 [label="1"];' in out


def test_render_negative_size_exit_3(capsys):
    code, out, err = run(capsys, "render", "--model", "Ainf", "--dot", "-", "--size", "-3")
    assert code == 3
    assert out == ""
    assert err == "error: --size must be >= 0\n"


def test_render_size_past_the_cap_exit_3(capsys, time_limit):
    # about 85 bytes of DOT per node: the cap bounds the output to 8.5 MB
    with time_limit(1.0):
        code, out, err = run(capsys, "render", "--model", "Ainf", "--dot", "-",
                             "--size", str(MAX_SIZE + 1))
    assert (code, out) == (3, "")
    assert err == "error: --size must be <= 100000, got 100001\n"


def test_render_and_transitive_read_a_large_window_in_linear_time(capsys, tmp_path, time_limit):
    # both read their window through the row and column maps, not a dense n x n truncation
    with time_limit(4.0):
        code, out, err = run(capsys, "render", "--model", "Dinf", "--dot", "-", "--size", "100000")
    assert (code, err) == (0, "")
    assert out.count(" [label=\"") == 100_000
    assert 'v99999 [label="99999"];' in out
    assert "  v99998 -> v99999 [label=1];\n  v99999 -> v99998 [label=1];\n}\n" in out
    path = tmp_path / "long_head.json"
    path.write_text(json.dumps({"index": "nat",
                                "head": {"size": 100_000, "entries": [[0, 1, 1], [1, 0, 1]]},
                                "tail": {"band": 1, "diagonals": {"-1": 1, "1": 1}}}))
    with time_limit(4.0):
        assert run(capsys, "transitive", "--model", str(path)) == (0, "transitive: unknown\n", "")
        code, out, err = run(capsys, "render", "--model", str(path), "--dot", "-")
    assert (code, err) == (0, "")
    assert out.count(" [label=\"") == 100_004
    assert out.count(" -> ") == 2 + 2 * 3


# -- predict -------------------------------------------------------------------------------


def test_predict_weight_cases_golden(capsys):
    code, out, _ = run(capsys, "predict", "--theorem", "10.1", "--case", "e")
    assert code == 0
    assert out.splitlines()[0] == "theorem 10.1, case e: C_inf (sub) + A_inf (quotient)"

    code, out, _ = run(capsys, "predict", "--theorem", "10.1", "--case", "d")
    assert code == 0
    assert out.splitlines()[0] == "theorem 10.1, case d: A_inf"


def test_predict_weight_class_input(capsys, registry):
    code, doc = run_json(capsys, "predict", "--theorem", "10.1",
                         "--weight-class", "half-integer-not-integer",
                         "--special-fixed", "--json")
    assert code == 0
    validate(registry, "prediction", doc)
    assert doc["case"] == "b"
    assert doc["types"][0]["family"] == "Tinf"


def test_predict_subalgebra_cases(capsys, registry):
    code, out, _ = run(capsys, "predict", "--theorem", "10.2", "--dim", "1", "--nilpotent")
    assert code == 0
    assert out.splitlines()[0] == "theorem 10.2, case a: A_inf"

    code, doc = run_json(capsys, "predict", "--theorem", "10.2", "--case", "b", "--json")
    assert code == 0
    validate(registry, "prediction", doc)
    assert doc["types"][0]["family"] == "Ainfinf"

    code, doc = run_json(capsys, "predict", "--theorem", "10.2", "--dim", "0", "--json")
    assert code == 0
    validate(registry, "prediction", doc)
    assert doc["types"] == []


def test_predict_flag_combinations_exit_2(capsys):
    cases = [
        ("predict", "--theorem", "10.1", "--case", "e", "--dim", "2"),
        ("predict", "--theorem", "10.1"),
        ("predict", "--theorem", "10.1", "--case", "a", "--weight-class",
         "nonneg-integer"),
        ("predict", "--theorem", "10.1", "--case", "b", "--special-fixed"),
        ("predict", "--theorem", "10.2", "--dim", "1"),
        ("predict", "--theorem", "10.2", "--dim", "1", "--semisimple", "--nilpotent"),
        ("predict", "--theorem", "10.2", "--weight-class", "nonneg-integer"),
        ("predict", "--theorem", "10.2", "--case", "c"),
        ("predict", "--theorem", "10.1", "--case", "z"),
        ("predict", "--theorem", "10.1", "--weight-class", "nonneg-integer",
         "--special-fixed"),
        ("predict", "--theorem", "10.1", "--weight-class", "non-half-integer",
         "--special-fixed"),
        ("predict", "--theorem", "10.1", "--weight-class", "negative-integer",
         "--special-fixed"),
        ("predict", "--theorem", "10.2", "--dim", "0", "--nilpotent"),
        ("predict", "--theorem", "10.2", "--dim", "2", "--semisimple"),
        ("predict", "--theorem", "10.2", "--dim", "3", "--nilpotent"),
        ("predict", "--theorem", "10.2", "--case", "a", "--semisimple"),
        ("predict", "--theorem", "10.2", "--case", "b", "--nilpotent"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage error: "), argv


# -- error boundary -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Model and GCM files for the argv grammar: valid, broken and missing."""
    root = tmp_path_factory.mktemp("argv")
    docs = {
        "finite.json": PresentedMatrix.from_dense([[0, 1], [1, 0]]).to_json_dict(),
        "zero.json": PresentedMatrix.from_dense([[0]]).to_json_dict(),
        "nat.json": modcat.catalog("Tinf").to_json(),
        "simples.json": {"basis": "simples", "f1": modcat.catalog("Cinf").f1.to_json_dict()},
        "a2.json": PresentedMatrix.from_dense([[2, -1], [-1, 2]]).to_json_dict(),
        "positive.json": PresentedMatrix.from_dense([[2, 1], [1, 2]]).to_json_dict(),
        "natgcm.json": gcm_of(modcat.catalog("Ainf").f1).to_json_dict(),
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "invalid.json").write_text("{not json")
    paths = [str(root / name) for name in [*docs, "invalid.json", "missing.json"]]
    return root, paths


def _argv(root, paths):
    """Argument lists for every verb and oracle, valid and invalid, with small values."""
    def words(*parts):
        return st.tuples(*parts).map(lambda ps: [w for p in ps for w in p])

    def flag(name, values):
        return values.map(lambda v: [name, v])

    def optional(name, values):
        return st.one_of(st.just([]), flag(name, values))

    def num(lo, hi):
        return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["x", "1.5", ""]))

    def fixed(*ws):
        return st.just(list(ws))

    models = st.sampled_from([*modcat.catalog_names(), *paths, "NoSuch"])
    files = st.sampled_from(paths)
    objects = st.sampled_from(["L(-1)", "P(-2)", "P(-1)", "L(0)", "Delta(3)", "Q(1)", "P(x)", ""])
    tensors = st.one_of(
        st.builds("L({}) x {}".format, st.integers(0, 8), objects),
        st.sampled_from(["L(1) plus P(-2)", "L(10001) x P(-2)", "L(x) x P(-2)", ""]))
    systems = st.sampled_from([*oracles.restriction_system_names(), "nope"])
    eigenvalues = st.sampled_from(["0", "1/2", "-9/4", "3", "x", "1/0"])
    dots = st.sampled_from(["-", str(root / "out.dot"), str(root / "nodir" / "out.dot")])
    json_flag = st.sampled_from([[], ["--json"]])
    return st.one_of(
        words(fixed("classify"), flag("--gcm", files),
              st.sampled_from([[], ["--certificate"], ["--components"]]), json_flag),
        words(fixed("derive"), flag("--model", models), flag("--upto", st.one_of(
                  num(-2, 6), st.integers(MAX_UPTO + 1, MAX_UPTO + 3).map(str))),
              optional("--basis", st.sampled_from(["projectives", "simples"])),
              optional("--window", st.one_of(
                  num(-2, 6), st.integers(MAX_WINDOW + 1, MAX_WINDOW + 3).map(str))),
              json_flag),
        words(fixed("transitive"), flag("--model", models), json_flag),
        words(fixed("verify-catalog"), json_flag),
        words(fixed("obstruction"), flag("--model", models), flag("--depth", num(-1, 4)),
              optional("--schur-dim", num(-1, 2)), json_flag),
        words(fixed("decompose"), flag("--tensor", tensors), json_flag),
        words(fixed("oracle", "o-tensor"), flag("--n", num(-1, 8)),
              st.one_of(flag("--object", objects), flag("--coset-offset", num(-4, 4))),
              json_flag),
        words(fixed("oracle", "jordan"), flag("--n", num(-1, 8)),
              eigenvalues.map(lambda q: [f"--lambda={q}"]), json_flag),
        words(fixed("oracle", "restrictions"), flag("--system", systems),
              optional("--truncation", st.one_of(
                  num(-1, 12), st.integers(oracles.MAX_TRUNCATION + 1,
                                           oracles.MAX_TRUNCATION + 3).map(str))),
              st.sampled_from([[], ["--assume-restrictions"]]), json_flag),
        words(fixed("render"), st.one_of(flag("--model", models), flag("--gcm", files)),
              flag("--dot", dots),
              optional("--size", st.one_of(num(-1, 8), st.integers(9, MAX_SIZE).map(str),
                                           st.integers(MAX_SIZE + 1, MAX_SIZE + 3).map(str)))),
        words(fixed("predict"), flag("--theorem", st.sampled_from(["10.1", "10.2", "9"])),
              optional("--case", st.sampled_from("abcez")),
              optional("--weight-class", st.sampled_from([*modcat.WEIGHT_CLASSES, "bogus"])),
              optional("--dim", num(-1, 4)),
              st.lists(st.sampled_from(["--special-fixed", "--semisimple", "--nilpotent"]),
                       unique=True, max_size=3),
              json_flag),
        st.lists(st.sampled_from(["--bogus", "classify", "oracle", "--json"]), max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_an_exit_code(argv_files, data):
    argv = data.draw(_argv(*argv_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 3:
        assert err.getvalue().startswith("error: "), argv


def test_input_errors_exit_3_from_the_script(tmp_path):
    positive = write_matrix(tmp_path, "positive.json", [[2, 1], [1, 2]])
    for argv in [("obstruction", "--model", "BinfDual", "--depth", "33"),
                 ("classify", "--gcm", positive)]:
        proc = subprocess.run([sys.executable, "-m", "sl2cat.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (3, ""), argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
        assert "Traceback" not in proc.stderr


# -- installed script ---------------------------------------------------------------------


def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sl2cat.cli", "decompose", "--tensor", "L(1) x P(-2)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "P(-1) + P(-1) + P(-3)"


# -- records and import cost ---------------------------------------------------------------


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter: pytest itself imports these modules; site may load
    # importlib.resources, so only a process without it (-S) shows that the
    # catalog read pulls in none of zipfile, tempfile, shutil, lzma and bz2
    src = str(Path(modcat.__file__).resolve().parents[1])
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    resources = {"importlib.resources", "zipfile", "tempfile", "shutil", "lzma", "bz2"}
    for flags, banned in ((["-I"], heavy), (["-I", "-S"], heavy | resources)):
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "import sl2cat.cli\n"
                "from sl2cat import modcat\n"
                "modcat.catalog_names()\n"
                f"print(sorted(set({sorted(banned)!r}) & set(sys.modules)))")
        proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n"), flags


def test_only_the_jordan_oracle_imports_fractions(tmp_path, a2_file):
    # the exact kernel stays in the integers; only a rational eigenvalue needs fractions
    src = str(Path(modcat.__file__).resolve().parents[1])
    affine = write_matrix(tmp_path, "a1t.json", [[2, -2], [-2, 2]])
    argvs = [
        ["verify-catalog", "--json"],
        ["derive", "--model", "Dinf", "--upto", "4"],
        ["classify", "--gcm", a2_file, "--certificate"],
        ["classify", "--gcm", affine, "--certificate"],
        ["obstruction", "--model", "BinfDual", "--depth", "2"],
        ["oracle", "restrictions", "--system", "dinf", "--assume-restrictions"],
        ["decompose", "--tensor", "L(1) x P(-2)"],
        ["oracle", "o-tensor", "--n", "1", "--object", "P(-2)"],
        ["transitive", "--model", "Tinf"],
        ["render", "--model", "Tinf", "--dot", "-", "--size", "3"],
        ["predict", "--theorem", "10.1", "--case", "e"],
    ]
    code = (f"import io, sys; sys.path.insert(0, {src!r})\n"
            "from contextlib import redirect_stdout\n"
            "from sl2cat import cli\n"
            "heavy = ('fractions', 'decimal', '_decimal', 'numbers')\n"
            f"for argv in {argvs!r}:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted(set(heavy) & set(sys.modules)))\n"
            "cli.main(['oracle', 'jordan', '--n', '3', '--lambda=-9/4'])\n")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\nJ_4(-9/4) + J_2(-9/4)\n")


_ONE = PresentedMatrix(IndexSet.finite(1), head={(0, 0): 1})
_ONE_REPR = "PresentedMatrix(IndexSet.finite(1), head_size=1, head=[((0, 0), 1)], diagonals={})"
_A3 = "DynkinType(kind='classical', family='A', rank=3)"

# one factory per record, and the repr the record had as a frozen dataclass
RECORDS = [
    (lambda: DynkinType("classical", "A", 3), _A3),
    (lambda: DynkinType("infinite", "Dinf"), "DynkinType(kind='infinite', family='Dinf', rank=None)"),
    (lambda: Classification("classical", DynkinType("classical", "A", 3), {"minors": [2, 3, 4]}),
     f"Classification(kind='classical', dtype={_A3}, certificate={{'minors': [2, 3, 4]}})"),
    (lambda: ModuleCategoryModel("one", "simples", _ONE),
     f"ModuleCategoryModel(name='one', basis='simples', f1={_ONE_REPR}, provenance='')"),
    (lambda: TypePrediction("weight-modules", "a", (DynkinType("infinite", "Ainfinf"),)),
     "TypePrediction(table='weight-modules', case='a', types=(DynkinType(kind='infinite',"
     " family='Ainfinf', rank=None),), roles=(), notes='')"),
    (lambda: ObstructionReport("SAT", 2, 1, [[1]], []),
     "ObstructionReport(status='SAT', depth=2, schur_dim=1, witness=[[1]], trace=[])"),
    (lambda: NamedOObject("P", -3), "NamedOObject(kind='P', weight=-3)"),
    (lambda: RestrictionReport("takiff", "infeasible", 4, {}),
     "RestrictionReport(system='takiff', status='infeasible', relations_checked=4,"
     " characters={}, freedom=None)"),
    (lambda: JordanPartition(((2, Fraction(1, 2)),)), "JordanPartition(blocks=((2, Fraction(1, 2)),))"),
    (lambda: _System(_ONE, 1, 1, (("b", SlCharacter.mod_class(0, 4)),)),
     f"_System(f1={_ONE_REPR}, step=1, first_chain=1, branches=(('b', SlCharacter(IndexSet.nat(),"
     " head=[], tails=[(0, 1), (0, 0), (0, 0), (0, 0)])),))"),
]


@pytest.mark.parametrize("make, shown", RECORDS)
def test_records_keep_their_contract(make, shown):
    a, b = make(), make()
    assert a == b and repr(a) == shown
    try:
        assert hash(a) == hash(b)
    except TypeError:  # a list or dict field, as with the dataclasses
        with pytest.raises(TypeError):
            hash(b)
    for name in (shown.split("(", 1)[1].split("=", 1)[0], "extra"):  # the first field
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


def test_record_validators_raise_value_error():
    for make, message in [
        (lambda: DynkinType("bogus", "A", 3), "unknown kind 'bogus'"),
        (lambda: ModuleCategoryModel("m", "weights", _ONE), "unknown basis 'weights'"),
        (lambda: ModuleCategoryModel("m", "simples", _ONE.scale(-1)),
         "action matrix must be entrywise non-negative"),
        (lambda: NamedOObject("L", 0), "simple catalog objects need weight <= -1"),
        (lambda: NamedOObject("P", -1), "the projective tag needs weight <= -2; P(-1) is L(-1)"),
        (lambda: NamedOObject("X", -1), "unknown tag 'X'"),
    ]:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def test_record_replace_and_make_run_the_validators():
    dynkin_type = DynkinType("classical", "A", 3)
    model = ModuleCategoryModel("m", "simples", _ONE)
    obj = NamedOObject("L", -1)
    for make, message in [
        (lambda: dynkin_type._replace(kind="bogus"), "unknown kind 'bogus'"),
        (lambda: DynkinType._make(("bogus", "A", 3)), "unknown kind 'bogus'"),
        (lambda: model._replace(basis="weights"), "unknown basis 'weights'"),
        (lambda: model._replace(f1=_ONE.scale(-1)), "action matrix must be entrywise non-negative"),
        (lambda: ModuleCategoryModel._make(("m", "weights", _ONE, "")), "unknown basis 'weights'"),
        (lambda: obj._replace(weight=5), "simple catalog objects need weight <= -1"),
        (lambda: NamedOObject._make(("L", 5)), "simple catalog objects need weight <= -1"),
        (lambda: NamedOObject._make(("P", -1)),
         "the projective tag needs weight <= -2; P(-1) is L(-1)"),
    ]:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    # valid records still come back as the subclass, equal to the constructor's
    assert dynkin_type._replace(rank=4) == DynkinType("classical", "A", 4)
    assert type(DynkinType._make(("affine", "A", 2))) is DynkinType
    assert model._replace(name="n") == ModuleCategoryModel("n", "simples", _ONE)
    assert NamedOObject._make(("P", -2)) == NamedOObject("P", -2)
    assert type(obj._replace(kind="Delta")) is NamedOObject

