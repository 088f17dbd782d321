"""Acceptance sweep: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is exact integer or rational arithmetic; there are no
tolerances anywhere.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

from sl2cat import modcat, oracles
from sl2cat.cli import main
from sl2cat.dynkin import (
    DynkinType,
    classify,
    coxeter_number,
    check_coxeter_annihilation,
    gcm_of,
    template,
    template_types,
)
from sl2cat.fusion import cg_support
from sl2cat.modcat import catalog, catalog_names
from sl2cat.oracles import (
    NamedOObject,
    class_of,
    decompose_in_N,
    derive_catalog_matrix,
    jordan_kronecker_oracle,
    restriction_consistency_solve,
    tensor_in_O,
)
from sl2cat.presented import PresentedMatrix, PresentedVector

import refimpl


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {title}")
                raise
            print(f"PASS criterion {num:2d}: {title}")
        return run
    return wrap


@criterion(1, "fusion products match the weight-multiplicity oracle, m,n <= 40")
def test_criterion_01():
    for m in range(41):
        for n in range(41):
            got = dict.fromkeys(cg_support(m, n), 1)
            assert got == refimpl.brute_tensor(m, n), (m, n)
            dim = sum(c * (k + 1) for k, c in got.items())
            assert dim == (m + 1) * (n + 1), (m, n)


@criterion(2, "Coxeter annihilation holds for every classical template")
def test_criterion_02():
    classical = [t for t in template_types(8) if t.kind == "classical"]
    seen = {(t.family, t.rank) for t in classical}
    assert {("A", n) for n in range(1, 9)} <= seen
    assert {("B", n) for n in range(2, 9)} <= seen
    assert {("C", n) for n in range(3, 9)} <= seen
    assert {("D", n) for n in range(4, 9)} <= seen
    assert {("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)} <= seen
    h_table = {("A", 3): 4, ("B", 4): 8, ("C", 5): 10, ("D", 6): 10,
               ("E6", 6): 12, ("E7", 7): 18, ("E8", 8): 30,
               ("F4", 4): 12, ("G2", 2): 6}
    for dtype in classical:
        assert check_coxeter_annihilation(dtype), dtype
        expected_h = h_table.get((dtype.family, dtype.rank))
        if expected_h is not None:
            assert coxeter_number(dtype) == expected_h, dtype


@criterion(3, "every affine template yields a positive primitive null vector")
def test_criterion_03():
    affine = [t for t in template_types(8) if t.kind == "affine"]
    assert len(affine) >= 40
    for dtype in affine:
        gcm = template(dtype)
        result = classify(gcm)
        assert result.kind == "affine", dtype
        assert result.dtype == dtype, (dtype, result.dtype)
        vec = result.certificate["null_vector"]
        assert all(isinstance(v, int) and v > 0 for v in vec), dtype
        assert refimpl.gcd_list(vec) == 1, dtype
        dense = gcm.truncate(gcm.index.size)
        for row in dense:
            assert sum(a * v for a, v in zip(row, vec)) == 0, dtype
    rank_one = classify(template(DynkinType("affine", "At12", 1)))
    assert rank_one.certificate["null_vector"] == [1, 1]


@criterion(4, "the six infinite templates certify their stated null vectors")
def test_criterion_04():
    stated = {
        "Ainf": [i + 1 for i in range(12)],
        "Ainfinf": [1] * 12,
        "Cinf": [1] * 12,
        "Tinf": [1] * 12,
        "Binf": [1] + [2] * 11,
        "Dinf": [1, 1] + [2] * 10,
    }
    for family, first_values in stated.items():
        gcm = template(DynkinType("infinite", family))
        result = classify(gcm)
        assert result.kind == "infinite", family
        assert result.dtype.family == family
        doc = result.certificate["null_vector"]
        vec = PresentedVector.from_json_dict(doc, gcm.index)
        assert vec.is_strictly_positive(), family
        assert gcm.apply(vec).is_zero(), family
        # truncate is centered for the two-sided chain, so constant-one there
        assert vec.truncate(12) == first_values, family


@criterion(5, "catalog fixtures round-trip and re-derive from the oracles")
def test_criterion_05():
    expected_family = {"Ainf": "Ainf", "AinfInf": "Ainfinf", "BinfDual": "Binf",
                       "Cinf": "Cinf", "Dinf": "Dinf", "Tinf": "Tinf"}
    for name in catalog_names():
        m = catalog(name)
        doc = json.loads(json.dumps(m.to_json(), sort_keys=True))
        rebuilt = modcat.ModuleCategoryModel(
            doc["name"], doc["basis"],
            PresentedMatrix.from_json_dict(doc["f1"]), doc["provenance"])
        assert rebuilt == m, name
        result = modcat.classify_type(m)
        assert result.kind == "infinite" and result.dtype.family == expected_family[name]
    routes = {
        "A_inf_tilting": "Ainf",
        "N6_borel": "Ainf",
        "A_infinf_generic": "AinfInf",
        "N5_borel": "AinfInf",
        "C_inf_projinj": "Cinf",
    }
    for realization, name in routes.items():
        assert derive_catalog_matrix(realization) == catalog(name).f1, realization


@criterion(6, "the three-case tensor formula holds for -12 <= weight <= -1")
def test_criterion_06():
    def P(w):
        return NamedOObject("P", w)

    def L(w):
        return NamedOObject("L", w)

    for lam in range(-12, 0):
        # the weight -1 projective is the simple projective
        obj = L(-1) if lam == -1 else P(lam)
        got = decompose_in_N(tensor_in_O(1, class_of(obj)))
        if lam == -1:
            expected = {P(-2): 1}
        elif lam == -2:
            expected = {L(-1): 2, P(-3): 1}
        else:
            expected = {P(lam - 1): 1, P(lam + 1): 1}
        assert got == expected, lam


@criterion(7, "the dual chain model is UNSAT at depth 2; symmetric models are SAT")
def test_criterion_07():
    report = modcat.socle_top_feasibility(catalog("BinfDual"), 2)
    assert report.status == "UNSAT"
    end_dim = [e for e in report.trace if e["constraint"] == "end-dim"]
    pinned = {(e["side"], e["pinned"]["variable"]): e["pinned"]["value"]
              for e in end_dim}
    assert pinned[("top", "[top F_2 S_0 : S_0]")] == 0
    assert pinned[("socle", "[socle F_2 S_0 : S_0]")] == 0
    for e in end_dim:
        assert "dim End(F_1 S_0)" in e["identity"]
    violated = report.trace[-1]
    assert violated["status"] == "violated"
    assert violated["identity"] == "[top F_2 S_0 : S_0] + [socle F_2 S_0 : S_0] >= 1"
    for name in ("Ainf", "AinfInf", "Dinf", "Tinf"):
        sat = modcat.socle_top_feasibility(catalog(name), 2)
        assert sat.status == "SAT", name
        assert sat.witness and all(e["top"] == e["socle"] for e in sat.witness), name


@criterion(8, "simples-basis actions reproduce the Clebsch-Gordan multiset, i,j <= 10")
def test_criterion_08():
    simples = modcat.to_simples_basis(catalog("Ainf"))
    for i in range(11):
        action = modcat.derive_action(simples, i)
        for j in range(11):
            got = dict(action.col_entries(j))
            expected = {k: 1 for k in range(abs(i - j), i + j + 1, 2)}
            assert got == expected, (i, j)


@criterion(9, "the Jordan oracle returns {(n+1, eig), (n-1, eig)} for 2 <= n <= 50")
def test_criterion_09():
    rng = random.Random(20260816)
    for n in range(2, 51):
        for _ in range(5):
            lam = Fraction(rng.randint(-99, 99), rng.randint(1, 12))
            partition = jordan_kronecker_oracle(n, lam)
            assert partition.blocks == ((n + 1, lam), (n - 1, lam)), (n, lam)


@criterion(10, "restriction systems verify at truncation 20")
def test_criterion_10():
    for system in ("takiff", "schrodinger"):
        report = restriction_consistency_solve(system, 20)
        assert report.status == "consistent", system
        assert report.relations_checked > 0
    open_report = restriction_consistency_solve("dinf", 20)
    assert open_report.status == "underdetermined"
    pinned = restriction_consistency_solve("dinf", 20, assume_restrictions=True)
    assert pinned.status == "consistent"
    assert sorted(pinned.characters) == [
        "branch_a", "branch_b", "chain_1", "chain_2", "chain_3", "chain_4"]
    assert pinned.characters["branch_a"].truncate(8) == [1, 0, 0, 0, 1, 0, 0, 0]
    assert pinned.characters["branch_b"].truncate(8) == [0, 0, 1, 0, 0, 0, 1, 0]
    for k in range(1, 5):
        expected = [1 if i >= k and (i - k) % 2 == 0 else 0 for i in range(8)]
        assert pinned.characters[f"chain_{k}"].truncate(8) == expected, k


@criterion(11, "both case-dispatch tables return the stated outcomes")
def test_criterion_11():
    def families(p):
        return tuple(t.family for t in p.types)

    weight_table = [
        ("non-half-integer", False, "a", ("Ainfinf",), ()),
        ("half-integer-not-integer", True, "b", ("Tinf",), ()),
        ("half-integer-not-integer", False, "c", ("Ainfinf",), ()),
        ("nonneg-integer", False, "d", ("Ainf",), ()),
        ("negative-integer", False, "e", ("Cinf", "Ainf"), ("sub", "quotient")),
    ]
    for weight_class, fixed, case, fams, roles in weight_table:
        p = modcat.predict_weight_module_type(weight_class, fixed)
        assert (p.case, families(p), p.roles) == (case, fams, roles), weight_class

    subalgebra_table = [
        (0, None, None, ()),
        (1, False, "a", ("Ainf",)),
        (1, True, "b", ("Ainfinf",)),
        (2, None, None, ("Ainf",)),
        (3, None, None, ("Ainf",)),
    ]
    for dim, semisimple, case, fams in subalgebra_table:
        p = modcat.subalgebra_type(dim, semisimple)
        assert (p.case, families(p)) == (case, fams), dim


@criterion(12, "verify-catalog exits 0 with byte-stable JSON")
def test_criterion_12(capsys):
    code1 = main(["verify-catalog", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify-catalog", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["status"] == "ok" and doc["failures"] == 0
