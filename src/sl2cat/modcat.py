"""Module-category models presented by their L(1) action matrix.

A model records the matrix of tensoring with the 2-dimensional simple on
a chosen homogeneous basis (indecomposable projectives or simples).  All
higher action matrices follow from the ultraspherical recurrence, which
makes categorifiability (entrywise non-negativity of every derived
matrix), transitivity (strong connectivity of the action graph), and
diagram-type classification decidable from the single presented matrix.

The built-in catalog holds the six infinite-type fixtures used across
the test suite, shipped as JSON package data and re-derivable from the
independent category-O and Borel oracles in oracles.py.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple
from functools import cache, lru_cache
from math import gcd
from pathlib import Path

from . import oracles
from .dynkin import INFINITE_FAMILIES, Classification, DynkinType, GCMError, classify, gcm_of
from .fusion import action
from .kernels import reachable
from .obstruction import MAX_DEPTH, ObstructionReport, PreconditionFailed, solve_feasibility
from .presented import PresentedMatrix, PresentedVector

__all__ = [
    "ModuleCategoryModel",
    "PreconditionFailed",
    "Transitivity",
    "TypePrediction",
    "ObstructionReport",
    "catalog",
    "catalog_names",
    "verify_catalog",
    "derive_action",
    "check_categorifiability",
    "action_graph",
    "is_transitive",
    "classify_type",
    "to_simples_basis",
    "semisimplicity_symmetry_check",
    "socle_top_feasibility",
    "predict_weight_module_type",
    "subalgebra_type",
    "WEIGHT_CLASSES",
]


class ModuleCategoryModel(namedtuple("ModuleCategoryModel", "name basis f1 provenance",
                                      defaults=("",))):
    """An action matrix f1 in a basis, projectives or simples, and an origin note."""

    __slots__ = ()

    def __new__(cls, name: str, basis: str, f1: PresentedMatrix, provenance: str = ""):
        if basis not in ("projectives", "simples"):
            raise ValueError(f"unknown basis {basis!r}")
        if not f1.is_nonnegative():
            raise ValueError("action matrix must be entrywise non-negative")
        return super().__new__(cls, name, basis, f1, provenance)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check as the constructor does
        return cls(*iterable)

    def projective_matrix(self) -> PresentedMatrix:
        return self.f1 if self.basis == "projectives" else self.f1.transpose()

    def to_json(self) -> dict:
        return {"name": self.name, "basis": self.basis,
                "provenance": self.provenance, "f1": self.f1.to_json_dict()}

    @classmethod
    def from_json(cls, doc, name: str = "", provenance: str = "") -> "ModuleCategoryModel":
        """Read a model document, or a bare matrix document in the projectives
        basis; ``name`` and ``provenance`` fill fields the document leaves out."""
        if not (isinstance(doc, dict) and "f1" in doc):
            return cls(name, "projectives", PresentedMatrix.from_json_dict(doc), provenance)
        unknown = set(doc) - {"name", "basis", "f1", "provenance"}
        if unknown:
            raise ValueError(f"unknown model fields {sorted(unknown)}")
        name, provenance = doc.get("name", name), doc.get("provenance", provenance)
        for field, value in (("name", name), ("provenance", provenance)):
            if not isinstance(value, str):
                raise ValueError(f"model {field} must be a string, got {value!r}")
        return cls(name, doc.get("basis", "projectives"),
                   PresentedMatrix.from_json_dict(doc["f1"]), provenance)


class Transitivity(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# -- catalog -------------------------------------------------------------------


@lru_cache(maxsize=1)
def _load_catalog() -> dict:
    # by path: importlib.resources loads zipfile, tempfile, shutil, lzma and bz2
    raw = Path(__file__).with_name("fixtures").joinpath("catalog.json").read_text("utf-8")
    return {name: ModuleCategoryModel.from_json(body, name=name)
            for name, body in json.loads(raw).items()}


def catalog_names() -> list[str]:
    return sorted(_load_catalog())


def catalog(name: str) -> ModuleCategoryModel:
    """One of the six built-in fixtures; raises KeyError on unknown names."""
    models = _load_catalog()
    if name not in models:
        raise KeyError(f"unknown catalog model {name!r}; have {sorted(models)}")
    return models[name]


# -- derived actions ------------------------------------------------------------


def derive_action(m: ModuleCategoryModel, i: int) -> PresentedMatrix:
    """Matrix of tensoring with the (i+1)-dimensional simple."""
    if i < 0:
        raise ValueError("index must be >= 0")
    return action(m.f1, i)


def check_categorifiability(m: ModuleCategoryModel, upto: int = 12) -> tuple[bool, int | None]:
    """All derived action matrices up to the bound are entrywise >= 0.

    Returns (ok, first_failure_index).
    """
    for i in range(upto + 1):
        if not derive_action(m, i).is_nonnegative():
            return False, i
    return True, None


# -- transitivity ----------------------------------------------------------------


def action_graph(f1: PresentedMatrix, size: int | None = None) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Vertices and labelled edges i -> j of the action digraph on a window.

    The edge i -> j carries the multiplicity of basis object j in the
    image of object i, i.e. the (j, i) entry of the action matrix f1.
    """
    if f1.index.kind == "finite":
        size = f1.index.size if size is None else min(size, f1.index.size)
    elif size is None:
        size = f1.head_size + 2 * f1.band + 2
    lo = -(size // 2) if f1.index.kind == "int" else 0
    nodes = list(range(lo, lo + size))
    edges = [(i, j, v) for i in nodes
             for j, v in sorted(f1.col_entries(i)) if lo <= j < lo + size]
    return nodes, edges


def _strongly_connected(f1: PresentedMatrix, n: int) -> bool:
    """Strong connectivity of the action digraph on objects 0..n-1."""
    def inside(entries):
        return (w for w, _ in entries if w < n)
    return (n > 0 and len(reachable(0, lambda v: inside(f1.col_entries(v)))) == n
            and len(reachable(0, lambda v: inside(f1.row_entries(v)))) == n)


def is_transitive(m: ModuleCategoryModel) -> Transitivity:
    """Strong connectivity of the action graph.

    Decided exactly on finite models.  On infinite presentations the
    answer is NO without both a super- and a sub-diagonal tail symbol, or
    when every stored offset (the tail diagonals and j - i of each head
    entry) is a multiple of some g > 1, since then no edge leaves a residue
    class mod g.  Otherwise a pure Toeplitz matrix on Z is transitive; on N
    a sufficient criterion is strong connectivity of a head window, and
    when that check fails the answer is UNKNOWN rather than a guess.
    """
    f1 = m.f1
    if f1.index.kind == "finite":
        ok = _strongly_connected(f1, f1.index.size)
        return Transitivity.YES if ok else Transitivity.NO
    diagonals = f1.diagonals()  # only nonzero symbols are stored
    if not (any(d < 0 for d in diagonals) and any(d > 0 for d in diagonals)):
        return Transitivity.NO
    if gcd(*diagonals, *(j - i for i, j, _ in f1.head_entries())) > 1:
        return Transitivity.NO
    if f1.index.kind == "int":
        return Transitivity.YES
    window = f1.tail_start() + f1.band
    if _strongly_connected(f1, window):
        return Transitivity.YES
    return Transitivity.UNKNOWN


# -- classification ---------------------------------------------------------------


def classify_type(m: ModuleCategoryModel) -> Classification:
    """Diagram type of a transitive categorifiable model.

    The projectives-basis action matrix is read as the adjacency matrix
    of a diagram whose generalized Cartan matrix is then classified with
    an exact certificate.  Models that are not transitive or not
    categorifiable up to F_12 raise PreconditionFailed; a model whose matrix
    supports no strictly positive eventually-affine null vector comes
    back unrecognized rather than guessed.
    """
    ok, first = check_categorifiability(m)
    if not ok:
        raise PreconditionFailed(
            f"model is not categorifiable: derived matrix {first} has a negative entry"
        )
    verdict = is_transitive(m)
    if verdict is not Transitivity.YES:
        raise PreconditionFailed(f"model transitivity is {verdict.value}, need yes")
    adjacency = m.projective_matrix()
    try:
        gcm = gcm_of(adjacency)
    except GCMError as exc:
        return Classification("unrecognized", None, {"reason": str(exc)})
    return classify(gcm)


def to_simples_basis(m: ModuleCategoryModel) -> ModuleCategoryModel:
    """Transpose a projectives-basis model into the simples basis."""
    if m.basis != "projectives":
        raise PreconditionFailed("model must be given in the projectives basis")
    return ModuleCategoryModel(m.name, "simples", m.f1.transpose(), m.provenance)


def semisimplicity_symmetry_check(m: ModuleCategoryModel) -> bool:
    """Necessary condition for a semisimple realization: symmetric matrix."""
    return m.f1.is_symmetric()


def socle_top_feasibility(m: ModuleCategoryModel, depth: int, schur_dim: int = 1,
                          node_budget: int = 100_000, max_depth: int = MAX_DEPTH) -> ObstructionReport:
    """Top/socle constraint solver; see obstruction.solve_feasibility."""
    if m.basis != "projectives":
        raise PreconditionFailed("feasibility solver expects the projectives basis")
    return solve_feasibility(m.f1, depth, schur_dim=schur_dim,
                             node_budget=node_budget, max_depth=max_depth)


# -- catalog verification -------------------------------------------------------------

_EXPECTED_FAMILY = {
    "Ainf": "Ainf", "AinfInf": "Ainfinf", "BinfDual": "Binf",
    "Cinf": "Cinf", "Dinf": "Dinf", "Tinf": "Tinf",
}
_EXPECTED_SYMMETRY = {
    "Ainf": True, "AinfInf": True, "BinfDual": False,
    "Cinf": False, "Dinf": True, "Tinf": True,
}
_DERIVATION_ROUTES = {
    "Ainf": ("A_inf_tilting", "N6_borel"),
    "AinfInf": ("A_infinf_generic", "N5_borel"),
    "Cinf": ("C_inf_projinj",),
}
_RESTRICTION_ROUTES = {"BinfDual": "takiff", "Dinf": "dinf", "Tinf": "schrodinger"}


def _catalog_checks(name: str) -> list[dict]:
    m = catalog(name)
    checks: list[dict] = []
    classification = cache(lambda: classify_type(m))

    def check(label: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # any failure is a verification failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        doc = {"name": label, "status": "ok" if ok else "fail"}
        if detail:
            doc["detail"] = detail
        checks.append(doc)

    def route(label: str, build) -> None:
        # an independent construction must reproduce the fixture's F_1 exactly
        def same_f1():
            ok = build() == m.f1
            return ok, "bit-exact" if ok else "matrix differs"
        check(label, same_f1)

    def round_trip():
        doc = json.loads(json.dumps(m.to_json(), sort_keys=True))
        rebuilt = ModuleCategoryModel.from_json(doc)
        return rebuilt == m, "bit-exact" if rebuilt == m else "differs after JSON"

    def categorifiable():
        ok, first = check_categorifiability(m, 12)
        return ok, "up to F_12" if ok else f"negative entry in F_{first}"

    def transitive():
        verdict = is_transitive(m)
        return verdict is Transitivity.YES, verdict.value

    def classify_check():
        result = classification()
        expected = _EXPECTED_FAMILY[name]
        ok = (result.kind == "infinite" and result.dtype is not None
              and result.dtype.family == expected)
        detail = result.dtype.display() if ok else f"got {result.kind}"
        return ok, detail

    def null_vector():
        result = classification()
        doc = result.certificate.get("null_vector")
        if not isinstance(doc, dict):
            return False, "no null vector in the certificate"
        vec = PresentedVector.from_json_dict(doc, m.f1.index)
        gcm = gcm_of(m.projective_matrix())
        ok = vec.is_strictly_positive() and gcm.apply(vec).is_zero()
        return ok, "positive and annihilated" if ok else "certificate fails"

    def symmetry():
        got = semisimplicity_symmetry_check(m)
        ok = got == _EXPECTED_SYMMETRY[name]
        return ok, "symmetric" if got else "asymmetric"

    def obstruction():
        report = socle_top_feasibility(m, 2)
        expected = "UNSAT" if name == "BinfDual" else "SAT"
        ok = report.status == expected
        if ok and _EXPECTED_SYMMETRY[name]:
            ok = all(e["top"] == e["socle"] for e in report.witness)
            return ok, f"{report.status}, semisimple witness" if ok else "witness not semisimple"
        return ok, report.status

    check("categorifiable", categorifiable)
    check("classify", classify_check)
    check("null-vector", null_vector)
    check("obstruction", obstruction)
    for realization in _DERIVATION_ROUTES.get(name, ()):
        route(f"oracle:{realization}", lambda r=realization: oracles.derive_catalog_matrix(r))
    if name == "BinfDual":
        route("oracle:transpose-of-Cinf", lambda: catalog("Cinf").f1.transpose())
    if name in _RESTRICTION_ROUTES:
        system = _RESTRICTION_ROUTES[name]
        route(f"oracle:{system}-relations", lambda: oracles.restriction_action_matrix(system))

        def restriction_solve():
            # assuming the chain characters changes nothing for takiff and schrodinger
            report = oracles.restriction_consistency_solve(system, 20, True)
            ok = report.status == "consistent"
            return ok, f"{system} {report.status}"
        check("restrictions", restriction_solve)
    check("round-trip", round_trip)
    check("symmetry", symmetry)
    check("transitive", transitive)
    return sorted(checks, key=lambda c: c["name"])


def verify_catalog() -> dict:
    """Recompute every catalog fixture from the oracles and check all invariants.

    Returns the catalog-report document (catalog-report.schema.json).  A
    check that raises is reported as failed with a ``raised ...`` detail.
    """
    fixtures: dict[str, dict] = {}
    total = failures = 0
    for name in catalog_names():
        checks = _catalog_checks(name)
        ok = all(c["status"] == "ok" for c in checks)
        shown_type = next(
            (c.get("detail") for c in checks
             if c["name"] == "classify" and c["status"] == "ok"), None)
        fixtures[name] = {
            "checks": checks,
            "status": "ok" if ok else "fail",
            "type": shown_type,
        }
        total += len(checks)
        failures += sum(c["status"] != "ok" for c in checks)
    return {"checks_total": total, "failures": failures, "fixtures": fixtures,
            "status": "ok" if failures == 0 else "fail"}


# -- case-dispatch predictions ------------------------------------------------------


class TypePrediction(namedtuple("TypePrediction", "table case types roles notes",
                                 defaults=((), ""))):
    """Predicted DynkinTypes, with roles, for one case (or None) of a dispatch
    table: "weight-modules" or "subalgebra-restriction"."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "case": self.case,
            "types": [t.to_json() for t in self.types],
            "roles": list(self.roles),
            "notes": self.notes,
        }


WEIGHT_CLASSES = (
    "non-half-integer",
    "half-integer-not-integer",
    "nonneg-integer",
    "negative-integer",
)

_INF = {f: DynkinType("infinite", f) for f in INFINITE_FAMILIES}


def predict_weight_module_type(weight_class: str, special_fixed: bool = False) -> TypePrediction:
    """Type of the simple-weight-module category by weight class.

    The half-integer-but-not-integer class splits on whether some special
    self-equivalence fixes the module (an input fact, not computed here).
    """
    table = "weight-modules"
    if weight_class == "non-half-integer":
        return TypePrediction(table, "a", (_INF["Ainfinf"],))
    if weight_class == "half-integer-not-integer":
        if special_fixed:
            return TypePrediction(table, "b", (_INF["Tinf"],),
                                  notes="fixed by the special self-equivalence")
        return TypePrediction(table, "c", (_INF["Ainfinf"],),
                              notes="not fixed by the special self-equivalence")
    if weight_class == "nonneg-integer":
        return TypePrediction(table, "d", (_INF["Ainf"],))
    if weight_class == "negative-integer":
        return TypePrediction(
            table, "e", (_INF["Cinf"], _INF["Ainf"]), roles=("sub", "quotient"),
            notes="short exact sequence: a subcategory of the first type "
                  "with quotient of the second",
        )
    raise ValueError(f"unknown weight class {weight_class!r}; have {WEIGHT_CLASSES}")


def subalgebra_type(dim_a: int, semisimple: bool | None = None) -> TypePrediction:
    """Type of the restriction module category by subalgebra dimension."""
    table = "subalgebra-restriction"
    if dim_a == 0:
        return TypePrediction(table, None, (), notes="trivial subalgebra: rank-one models")
    if dim_a == 1:
        if semisimple is None:
            raise ValueError("dimension-one subalgebras need the semisimple flag")
        if semisimple:
            return TypePrediction(table, "b", (_INF["Ainfinf"],),
                                  notes="one-dimensional semisimple (Cartan) subalgebra")
        return TypePrediction(table, "a", (_INF["Ainf"],),
                              notes="one-dimensional nilpotent subalgebra; transitive, "
                                    "with semisimple quotient")
    if dim_a == 2:
        return TypePrediction(table, None, (_INF["Ainf"],),
                              notes="Borel subalgebra")
    if dim_a == 3:
        return TypePrediction(table, None, (_INF["Ainf"],),
                              notes="the whole algebra: left regular module category")
    raise ValueError("subalgebra dimension must be 0, 1, 2, or 3")
