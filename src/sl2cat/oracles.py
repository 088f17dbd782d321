"""Independent tensor-decomposition oracles.

Everything in this module re-derives decomposition data from first
principles so the catalog fixtures in :mod:`sl2cat.modcat` can be checked
against a second route:

* a Grothendieck-group engine for the integral blocks of sl2 category O
  in the Verma basis (highest weight modules, their projective covers,
  and the tensor shift rule);
* the combinatorics of locally finite Borel modules: the character
  self-checked chain rule for the U(e)-free modules and the uniseriality
  bookkeeping for their finite dimensional quotients;
* a Jordan block oracle for a Jordan cell tensored with the two
  dimensional simple, read off the degree grading of the tensor product
  as the intervals of a chain of maps, in one sweep;
* restriction-character systems, each defined once by its action matrix
  F_1 and the characters of its objects; the consistency solver and the
  action matrix both read it.  A character is a non-negative presented
  vector on N with a periodic-affine tail, and its product with L(1) is
  the A_inf adjacency matrix applied to it, so every relation is checked
  symbolically by PresentedMatrix.apply and PresentedVector.add.

The weights of L(n) and the Clebsch-Gordan rule are read from
:mod:`sl2cat.fusion`, which states them once.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import lru_cache, reduce
from typing import Callable, Iterable, Mapping

from .fusion import cg_support, weights
from .kernels import Echelon
from .presented import IndexSet, PresentedMatrix, PresentedVector

_NAT = IndexSet.nat()


class NotInCatalog(ValueError):
    """A Grothendieck class has no expansion over the allowed objects."""


# -- category O classes in the Verma basis -------------------------------------


class OClassVector:
    """Finitely supported integer combination of Verma classes.

    Integral classes key on the actual highest weight.  With ``coset=True``
    the keys are offsets k standing for a fixed generic non-integral weight
    plus k; only the shift combinatorics survives there, which is all the
    generic realizations need.
    """

    __slots__ = ("_entries", "coset")

    def __init__(self, entries: Mapping[int, int], coset: bool = False):
        cleaned = {}
        for w, c in entries.items():
            w, c = int(w), int(c)
            if c:
                cleaned[w] = c
        object.__setattr__(self, "_entries", cleaned)
        object.__setattr__(self, "coset", bool(coset))

    def __setattr__(self, *_):
        raise AttributeError("OClassVector is immutable")

    def entries(self) -> dict[int, int]:
        return dict(self._entries)

    def items(self):
        return self._entries.items()


def verma(weight: int, coset: bool = False) -> OClassVector:
    return OClassVector({weight: 1}, coset)


#: largest highest weight n of the tensoring simple L(n); the product has
#: n + 1 Verma classes per input class, so n bounds its size
MAX_TENSOR_WEIGHT = 10_000
#: largest size n of the Jordan cell of the Jordan oracle, whose work is linear in n
MAX_JORDAN_N = 10_000
#: largest truncation of the restriction solver; its equations grow linearly in T
#: and its certificate not at all, and at the cap every system answers in under 10 ms
MAX_TRUNCATION = 320


def tensor_in_O(n: int, v: OClassVector) -> OClassVector:
    """Tensor by the (n+1)-dimensional simple on the Verma basis.

    The class of the product against a Verma with highest weight w is the
    sum of the Vermas with highest weights w + mu, mu in weights(n).
    Needs 0 <= n <= MAX_TENSOR_WEIGHT (ValueError otherwise).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > MAX_TENSOR_WEIGHT:
        raise ValueError(f"the tensoring simple L(n) needs n <= {MAX_TENSOR_WEIGHT}, got {n}")
    out: dict[int, int] = {}
    for w, c in v.items():
        for mu in weights(n):
            out[w + mu] = out.get(w + mu, 0) + c
    return OClassVector(out, v.coset)


_NAMED_RE = re.compile(r"^(L|P|Delta)\((-?\d+)\)$")


class NamedOObject(namedtuple("NamedOObject", "kind weight")):
    """L(w), P(w) or Delta(w) with an integral weight, in canonical form.

    The antidominant simples L(w), w <= -1, coincide with their Vermas;
    P(-1) = L(-1), so the projective tag is reserved for w <= -2.
    """

    __slots__ = ()

    def __new__(cls, kind: str, weight: int):
        if kind == "L":
            if weight > -1:
                raise ValueError("simple catalog objects need weight <= -1")
        elif kind == "P":
            if weight > -2:
                raise ValueError("the projective tag needs weight <= -2; P(-1) is L(-1)")
        elif kind != "Delta":
            raise ValueError(f"unknown tag {kind!r}")
        return super().__new__(cls, kind, weight)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check as the constructor does
        return cls(*iterable)

    def display(self) -> str:
        return f"{self.kind}({self.weight})"

    @classmethod
    def parse(cls, text: str) -> "NamedOObject":
        m = _NAMED_RE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse object {text!r}")
        kind, digits = m.groups()
        try:
            weight = int(digits)
        except ValueError as exc:  # more digits than the interpreter converts
            raise ValueError(f"the weight of {kind}(...) is too long "
                             f"({len(digits)} characters)") from exc
        return cls(kind, weight)


def class_of(obj: NamedOObject) -> OClassVector:
    if obj.kind == "P":
        # self-dual projective: Verma flag with the linked dominant weight
        return OClassVector({obj.weight: 1, -obj.weight - 2: 1})
    return verma(obj.weight)


def decompose_in_N(v: OClassVector) -> dict[NamedOObject, int]:
    """Express an integral class over the simples/projectives catalog.

    Greedy on dominant weights from the top: each unit of a dominant Verma
    class must come from the projective cover of the linked antidominant
    weight.  What remains must sit on antidominant weights and gives the
    simple multiplicities.
    """
    if v.coset:
        raise ValueError("decompose_in_N works on integral classes only")
    work = v.entries()
    out: dict[NamedOObject, int] = {}
    for d in sorted((w for w in work if w >= 0), reverse=True):
        c = work[d]
        if c < 0:
            raise NotInCatalog(f"negative multiplicity {c} at dominant weight {d}")
        if c == 0:
            continue
        out[NamedOObject("P", -d - 2)] = c
        work[d] -= c
        work[-d - 2] = work.get(-d - 2, 0) - c
    residual = {w: c for w, c in work.items() if c}
    if any(w > -1 for w in residual):
        raise RuntimeError("P-extraction left a dominant residue")
    for w, c in sorted(residual.items()):
        if c < 0:
            raise NotInCatalog(f"negative multiplicity {c} left at weight {w}")
        out[NamedOObject("L", w)] = c
    return out


# -- Borel module combinatorics --------------------------------------------------


def _chain_character(mu: int, lo: int, hi: int) -> dict[int, int]:
    # weights mu, mu+2, ... restricted to the window [lo, hi]
    return {w: 1 for w in range(mu, hi + 1, 2) if w >= lo}


def borel_tensor_N(mu_offset: int) -> tuple[int, int]:
    """Chain rule for the rank-one U(e)-free weight modules.

    Returns the two summand offsets (mu+1, mu-1) after re-deriving them by
    greedy lowest-weight subtraction on characters cut to weights mu-1..mu+39;
    the module at offset mu has weights mu, mu+2, mu+4, ... each once.
    """
    mu = mu_offset
    lo, hi = mu - 1, mu - 1 + 2 * 20
    product: dict[int, int] = {}
    for w in _chain_character(mu, lo - 1, hi + 1):
        for s in weights(1):
            if lo <= w + s <= hi:
                product[w + s] = product.get(w + s, 0) + 1
    found: dict[int, int] = {}
    for w in range(lo, hi + 1):
        c = product.get(w, 0)
        if c < 0:
            raise RuntimeError("chain character subtraction went negative")
        if c == 0:
            continue
        found[w] = c
        for u in range(w, hi + 1, 2):
            product[u] = product.get(u, 0) - c
    if found != {mu - 1: 1, mu + 1: 1}:
        raise RuntimeError(f"chain tensor self-check failed at offset {mu}: {found}")
    return (mu + 1, mu - 1)


def q_module_profile(k: int) -> dict:
    return {
        "top": -k,
        "socle": k,
        "factors": [off for off in range(-k, k + 1, 2)],
    }


def borel_tensor_Q(i: int) -> tuple[int, ...]:
    """Tensor rule for the uniserial finite dimensional quotients.

    index 0 (the simple) goes to index 1; index i > 0 splits as
    (i-1, i+1).  Self-checked on composition factor multisets.
    """
    if i < 0:
        raise ValueError("need i >= 0")
    result = (1,) if i == 0 else (i - 1, i + 1)
    lhs: dict[int, int] = {}
    for off in q_module_profile(i)["factors"]:
        for s in weights(1):
            lhs[off + s] = lhs.get(off + s, 0) + 1
    rhs: dict[int, int] = {}
    for part in result:
        for off in q_module_profile(part)["factors"]:
            rhs[off] = rhs.get(off, 0) + 1
    if lhs != rhs:
        raise RuntimeError(f"quotient tensor self-check failed at index {i}")
    return result


# -- realization derivations -----------------------------------------------------


def _col_tilting_quotient(j: int) -> dict[int, int]:
    # objects: antidominant simples below the self-linked weight, i.e.
    # index i stands for L(-2-i); the projectives (and L(-1), which is
    # projective) are the killed ideal, so their summands are dropped
    parts = decompose_in_N(tensor_in_O(1, verma(-2 - j)))
    out: dict[int, int] = {}
    for obj, c in parts.items():
        if obj.kind == "P" or (obj.kind == "L" and obj.weight == -1):
            continue
        if obj.kind != "L" or obj.weight > -2:
            raise RuntimeError(f"tilting quotient left the catalog: {obj.display()}")
        out[-2 - obj.weight] = c
    return out


def _col_projinj(j: int) -> dict[int, int]:
    # objects: index i stands for the projective cover of L(-1-i)
    start = NamedOObject("L", -1) if j == 0 else NamedOObject("P", -1 - j)
    parts = decompose_in_N(tensor_in_O(1, class_of(start)))
    out: dict[int, int] = {}
    for obj, c in parts.items():
        if obj.kind == "L" and obj.weight == -1:
            out[0] = c
        elif obj.kind == "P":
            out[-1 - obj.weight] = c
        else:
            raise RuntimeError(f"projective family left the catalog: {obj.display()}")
    return out


def _col_generic_coset(j: int) -> dict[int, int]:
    # in a generic coset every Verma is simple and projective, so the
    # class decomposition is the identity on Verma classes
    return tensor_in_O(1, verma(j, coset=True)).entries()


def _col_borel_chain(j: int) -> dict[int, int]:
    return dict(Counter(borel_tensor_N(j)))


def _col_borel_quotients(j: int) -> dict[int, int]:
    return dict(Counter(borel_tensor_Q(j)))


_REALIZATIONS: dict[str, tuple[str, Callable[[int], dict[int, int]]]] = {
    "A_inf_tilting": ("nat", _col_tilting_quotient),
    "C_inf_projinj": ("nat", _col_projinj),
    "A_infinf_generic": ("int", _col_generic_coset),
    "N5_borel": ("int", _col_borel_chain),
    "N6_borel": ("nat", _col_borel_quotients),
}

_FIT_WINDOW = 10


def derive_catalog_matrix(realization: str) -> PresentedMatrix:
    """Rebuild a catalog action matrix purely from the oracle rules.

    The matrix is fitted on a finite window of derived columns and then
    re-verified on every derived column, including extra ones past the window.
    """
    kind, column_fn = _REALIZATIONS[realization]
    # Z has no boundary, so no head: window 0, columns on both sides of 0
    index, window = (IndexSet.int_(), 0) if kind == "int" else (_NAT, _FIT_WINDOW)
    columns = {j: column_fn(j) for j in range(window - _FIT_WINDOW, _FIT_WINDOW + 4)}
    # every derived entry near the boundary goes in the head; the
    # constructor drops the boundary edges that agree with the tail
    diags = {window - i: v for i, v in columns[window].items()}
    head = {(i, j): v for j, col in columns.items() for i, v in col.items()
            if 0 <= min(i, j) < window}
    matrix = PresentedMatrix(index, window, head, diags)
    if any(dict(matrix.col_entries(j)) != col for j, col in columns.items()):
        raise RuntimeError("no finitely presented matrix fits the derived columns")
    return matrix


# -- restriction characters --------------------------------------------------------


class SlCharacter(PresentedVector):
    """A restriction character: a non-negative presented vector on N.

    Entry k is the multiplicity of the simple L(k).  The constructor takes
    the tail counted from the end of the head: position t = k - len(head)
    in residue class r mod ``period`` at block q = t // period takes the
    value a_r * q + b_r, and a_r, b_r >= 0.  The head is kept as given, so
    ``to_json`` prints it back; equality and hashing read the vector's
    normal form.
    """

    __slots__ = ()

    def __init__(self, head: Iterable[int], period: int, tails: Iterable[tuple[int, int]]):
        head_t = tuple(int(x) for x in head)
        tails_t = tuple((int(a), int(b)) for a, b in tails)
        if period < 1 or len(tails_t) != period:
            raise ValueError("period must be >= 1 and match the tail tuple")
        if any(x < 0 for x in head_t):
            raise ValueError("multiplicities must be non-negative")
        if any(a < 0 or b < 0 for a, b in tails_t):
            raise ValueError("tail multiplicities must be non-negative")
        # head-relative residue r covers k = h + r + period * q, which sits
        # in absolute residue (h + r) % period at block (h + r) // period + q
        absolute = [(0, 0)] * period
        for r, (a, b) in enumerate(tails_t, start=len(head_t)):
            absolute[r % period] = (a, b - a * (r // period))
        super().__init__(_NAT, head_t, absolute)  # the key is the normal form
        # keep the head and the period as given, which to_json prints back
        object.__setattr__(self, "head", head_t)
        object.__setattr__(self, "tails", tuple(absolute))

    @classmethod
    @lru_cache(maxsize=1024)  # every check re-reads the chain characters
    def tower(cls, start: int, step: int) -> "SlCharacter":
        """Indicator of the ladder start, start+step, start+2*step, ..."""
        if start < 0 or step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        tails = [(0, 1)] + [(0, 0)] * (step - 1)
        return cls((0,) * start, step, tails)

    @classmethod
    def mod_class(cls, residue: int, modulus: int) -> "SlCharacter":
        """Indicator of one residue class of simple indices."""
        if not 0 <= residue < modulus:
            raise ValueError("need 0 <= residue < modulus")
        tails = [(0, 1) if r == residue else (0, 0) for r in range(modulus)]
        return cls((), modulus, tails)

    def to_json(self) -> dict:
        h, p = len(self.head), self.period
        return {
            "head": list(self.head),
            "period": p,
            "tail": [{"slope": self.tails[k % p][0], "base": self.entry(k)}
                     for k in range(h, h + p)],
        }


class RestrictionReport(namedtuple("RestrictionReport", "system status relations_checked"
                                    " characters freedom", defaults=(None,))):
    """Status, relations checked, characters by name and (if underdetermined) freedom."""

    __slots__ = ()

    def to_json(self) -> dict:
        doc: dict = {
            "system": self.system,
            "status": self.status,
            "relations_checked": self.relations_checked,
            "characters": {k: v.to_json() for k, v in sorted(self.characters.items())},
        }
        if self.freedom is not None:
            doc["freedom"] = self.freedom
        return doc


def _fit_periodic(values: list[int], period: int) -> SlCharacter:
    """Smallest head whose complement is exactly periodic-affine."""
    for head_len in range(len(values) - 2 * period + 1):
        tails = [(values[head_len + period + r] - values[head_len + r], values[head_len + r])
                 for r in range(period)]
        if any(slope < 0 or base < 0 for slope, base in tails):
            continue
        candidate = SlCharacter(values[:head_len], period, tails)
        if candidate.truncate(len(values)) == values:
            return candidate
    raise RuntimeError("truncated solution has no periodic-affine tail")


class _System(namedtuple("_System", "f1 step first_chain branches", defaults=(0, ()))):
    """A restriction system: its action matrix and its stated characters.

    Column j of ``f1`` lists the summands of object j tensored with the two
    dimensional simple.  The first objects are the named ``branches``; the
    rest are chain_n for n = first_chain, first_chain + 1, ..., and chain_n
    has the character of the ladder n, n + step, n + 2 * step, ...
    """

    __slots__ = ()

    def object_of_chain(self, n: int) -> int:
        return len(self.branches) + n - self.first_chain

    def object(self, i: int) -> tuple[str, SlCharacter]:
        """Name and stated character of object i."""
        if i < len(self.branches):
            return self.branches[i]
        n = i - self.object_of_chain(0)
        return f"chain_{n}", SlCharacter.tower(n, self.step)

    def character(self, i: int) -> SlCharacter:
        return self.object(i)[1]


_TRIDIAGONAL = {-1: 1, 1: 1}
#: tensoring with L(1) on the simples L(0), L(1), ...: L(k) is a summand of
#: L(i) (x) L(1) exactly for i in cg_support(k, 1), which is {1} at k = 0
_A_INF = PresentedMatrix(_NAT, diagonals=_TRIDIAGONAL)

_SYSTEMS = {
    "takiff": _System(
        PresentedMatrix(_NAT, 1, {(0, 1): 1, (1, 0): 2}, _TRIDIAGONAL), step=2),
    "schrodinger": _System(
        PresentedMatrix(_NAT, 1, {(0, 0): 1, (0, 1): 1, (1, 0): 1}, _TRIDIAGONAL),
        step=1),
    "dinf": _System(
        PresentedMatrix(_NAT, 3, {(0, 2): 1, (1, 2): 1, (2, 0): 1, (2, 1): 1,
                                            (2, 3): 1, (3, 2): 1}, _TRIDIAGONAL),
        step=2, first_chain=1,
        branches=(("branch_a", SlCharacter.mod_class(0, 4)),
                  ("branch_b", SlCharacter.mod_class(2, 4)))),
}

#: reports show the characters of the branches and of chain_0 .. chain_4
_SHOWN_CHAIN = 4
#: without assumptions every character up to chain_5 is unknown; the
#: relations of the objects before it only read those characters
_OPEN_CHAIN = 5
#: the branch characters repeat with period 4; fitting that tail needs two
#: full periods of solved values, i.e. indices 0..7
_DINF_PERIOD = 4
_DINF_MIN_ASSUMED_TRUNCATION = 2 * _DINF_PERIOD - 1


def _system(name: str) -> _System:
    if name not in _SYSTEMS:
        raise ValueError(f"unknown system {name!r}; have {', '.join(_SYSTEMS)}")
    return _SYSTEMS[name]


@lru_cache(maxsize=1)  # built on first use, not at import
def _shift_commutator() -> tuple[PresentedMatrix, int]:
    """The shift S: e_k -> e_(k+1) on N, and one past the last column of A_inf S - S A_inf.

    Two Toeplitz matrices on N commute up to a finite corner (the
    Toeplitz-Hankel identity; Boettcher and Silbermann, 1999).  For A_inf
    the corner is e_0 e_0^T: L(1) (x) L(1) = L(0) + L(2) holds one summand
    more than L(2), the shift of L(0) (x) L(1) = L(1).
    """
    shift = PresentedMatrix(_NAT, diagonals={-1: 1})
    commutator = _A_INF.mul(shift, shift.mul(_A_INF))
    if commutator.diagonals():
        raise RuntimeError("A_inf commutes with the shift only up to a Toeplitz tail")
    return shift, max((j for _, j, _ in commutator.head_entries()), default=-1) + 1


def _relation_holds(system: _System, character: Callable[[int], SlCharacter], j: int) -> bool:
    """Column j's relation: character(j) tensored with L(1), which is the
    A_inf matrix applied to it, is the sum of the characters the column selects."""
    terms = [character(i) for i, v in system.f1.col_entries(j) for _ in range(v)]
    return bool(terms) and _A_INF.apply(character(j)) == reduce(PresentedVector.add, terms)


def _translates(system: _System, character: Callable[[int], SlCharacter], j: int) -> bool:
    """The translation lemma's hypotheses at column j: relation j then proves every later one.

    With S and C = A_inf S - S A_inf as in _shift_commutator, suppose
      * j >= f1.tail_start(), so column j + 1 of f1 is S applied to column j;
      * every object from j - band on is a chain object, so
        character(i + 1) = S character(i) there: tower(n + 1) is
        tower(n) shifted, checked at the first of them, and tower(n) is n
        zeros before one fixed tail, so the check at one n holds at every n;
      * character(j) vanishes on the columns of C.
    Then A_inf chi_(j+1) = S A_inf chi_j + C chi_j = sum_i f1(i, j+1) chi_i,
    which is relation j + 1.  S moves a vector's zeros up, so all three
    hypotheses hold again at j + 1.  The first such column j0 is 2 on takiff
    and schrodinger and 3 on dinf.
    """
    low = j - system.f1.band
    if j < system.f1.tail_start() or low < len(system.branches):
        return False
    shift, reach = _shift_commutator()
    return (not any(character(j).truncate(reach))
            and character(low + 1) == shift.apply(character(low)))


def _first_failure(system: _System, character: Callable[[int], SlCharacter]) -> int | None:
    """The first column whose relation fails, or None if every relation holds.

    Columns are checked in order until the translation lemma (_translates)
    certifies every later one, so the work does not depend on how many
    columns a caller asks about; its hypotheses hold from some column on,
    so the walk ends.
    """
    j = 0
    while True:
        if not _relation_holds(system, character, j):
            return j
        if _translates(system, character, j):
            return None
        j += 1


def _certify(name: str, system: _System, character: Callable[[int], SlCharacter], count: int,
             solved_rows: int = 0) -> RestrictionReport:
    """Check columns 0..count-1 of the action matrix symbolically.

    Columns 0..j0 are checked explicitly and the translation lemma
    (_translates) certifies the rest.  An infeasible report counts the
    columns that held before the first failure, which is at or below j0;
    a failure at or past count lies outside the checked columns.
    """
    failure = _first_failure(system, character)
    if failure is not None and failure < count:
        return RestrictionReport(name, "infeasible", solved_rows + failure, {})
    shown = {system.object(i)[0]: character(i)
             for i in range(system.object_of_chain(_SHOWN_CHAIN) + 1)}
    return RestrictionReport(name, "consistent", solved_rows + count, shown)


def _relation_rows(system: _System, count: int, unknown: int, size: int,
                   ) -> tuple[list[dict[int, int]], list[int], int]:
    """Coefficient-level equations for the relations of objects 0..count-1.

    The characters of objects 0..unknown-1 are unknown coefficient
    vectors on indices 0..size-1, numbered index-major: the coefficient of
    L(k) in object i is column k * unknown + i.  Each equation reads
    indices k - 1 .. k + 1 only, so its columns lie in a band of width
    3 * unknown and elimination stays linear in the window.  The other
    objects keep their stated characters.  Each relation contributes one
    equation per index at which every term is determined by the window.
    Rows are sparse ``{column: coefficient}`` maps.

    A relation with a positive column and no unknown term that holds
    symbolically has only 0 = 0 equations; they are counted, not built,
    and the count is the third value.  From the first such column where
    the translation lemma applies (_translates) every later relation is
    one of them, so only the relations that read an unknown are written.
    The lemma's hypotheses take the unknown objects to be exactly the
    branch objects; it is reached only past them (j >= unknown), which an
    unassumed solve, with unknown - 1 relations, never is.
    """
    written = []
    implied = 0
    for j in range(count):
        targets = list(system.f1.col_entries(j))
        if (j >= unknown and all(i >= unknown and v > 0 for i, v in targets)
                and _relation_holds(system, system.character, j)):
            if _translates(system, system.character, j):
                implied += (count - j) * size
                break
            implied += size
        else:
            known = {i: system.character(i) for i in [j] + [i for i, _ in targets]
                     if i >= unknown}
            written.append((j, targets, known))
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    # index-major, as the columns are: each row reduces only against the
    # pivot rows of nearby indices, so elimination stays linear in the window
    for k in range(size):
        for j, targets, known in written:
            # L(k) occurs in L(i) (x) L(1) exactly when i is in cg_support(k, 1);
            # its top, k + 1, leaves the window only at the last index, where
            # an unknown object's term is not determined
            if j < unknown and k == size - 1:
                continue
            terms = [(j, src, 1) for src in cg_support(k, 1)]
            terms += [(i, k, -v) for i, v in targets]
            row: dict[int, int] = {}
            acc = 0
            for i, idx, sign in terms:
                if i < unknown:
                    col = idx * unknown + i
                    row[col] = row.get(col, 0) + sign
                else:
                    acc -= sign * known[i].entry(idx)
            rows.append(row)
            rhs.append(acc)
    return rows, rhs, implied


def _solve_branches(name: str, system: _System, truncation: int) -> RestrictionReport:
    # the chain characters are assumed; the branch characters are solved for
    size = truncation + 1
    count = system.object_of_chain(truncation) + 1
    unknown = len(system.branches)
    rows, rhs, implied = _relation_rows(system, count, unknown, size)
    # normalization: the second branch character avoids the trivial simple
    rows.append({1: 1})
    rhs.append(0)
    checked = len(rows) + implied

    augmented = unknown * size
    echelon = Echelon({**row, augmented: val} for row, val in zip(rows, rhs))
    if augmented in echelon.pivots:
        return RestrictionReport(name, "infeasible", checked, {})
    if echelon.rank < augmented:
        return RestrictionReport(
            name, "underdetermined", checked, {},
            f"{augmented - echelon.rank}-dimensional ambiguity remains even with "
            "assumed restrictions",
        )
    x, d = echelon.solution({augmented: -1})
    solution = [x[c] for c in range(augmented)]
    if d != 1 or any(v < 0 for v in solution):
        return RestrictionReport(name, "infeasible", checked, {})
    fitted = [_fit_periodic(solution[b::unknown], _DINF_PERIOD)
              for b in range(unknown)]

    # certify the fitted characters symbolically on the same columns
    def character(i: int) -> SlCharacter:
        return fitted[i] if i < unknown else system.character(i)

    return _certify(name, system, character, count, checked)


def restriction_system_names() -> tuple[str, ...]:
    return tuple(_SYSTEMS)


def restriction_consistency_solve(
    system: str, truncation: int = 20, assume_restrictions: bool = False
) -> RestrictionReport:
    """Check (or solve) one of the named restriction-character systems.

    A system without branch objects states every character, so its
    relations (the columns of its action matrix up to chain_T) are
    verified symbolically; assuming restrictions changes nothing there.
    The forked system's two branch characters are solved for exactly on
    the truncation window when the chain characters are assumed, then the
    candidates are certified symbolically.  Every system needs truncation
    >= 4; the assumed forked system needs >= 7, and every truncation is at
    most MAX_TRUNCATION (ValueError otherwise).
    """
    entry = _system(system)
    if truncation < 4:
        raise ValueError("need truncation >= 4")
    if truncation > MAX_TRUNCATION:
        raise ValueError(f"need truncation <= {MAX_TRUNCATION}, got {truncation}")
    if not entry.branches:
        count = entry.object_of_chain(truncation) + 1
        return _certify(system, entry, entry.character, count)
    if not assume_restrictions:
        unknown = entry.object_of_chain(_OPEN_CHAIN) + 1
        rows, _, _ = _relation_rows(entry, unknown - 1, unknown, truncation + 1)
        dim = unknown * (truncation + 1) - Echelon(rows).rank
        freedom = (
            f"all {unknown} restriction characters left unknown: the truncated "
            f"homogeneous system has a {dim}-dimensional solution space (the zero "
            "assignment included); pass assume_restrictions to pin the chain characters"
        )
        return RestrictionReport(system, "underdetermined", 0, {}, freedom)
    if truncation < _DINF_MIN_ASSUMED_TRUNCATION:
        raise ValueError(
            f"the {system} system with assumed restrictions needs truncation >= "
            f"{_DINF_MIN_ASSUMED_TRUNCATION} to fit its period-{_DINF_PERIOD} tail"
        )
    return _solve_branches(system, entry, truncation)


def restriction_action_matrix(system: str) -> PresentedMatrix:
    """Action matrix encoded by a named system's tensor relations.

    Objects are ordered as the solver reports them (the forked system puts
    its two branch objects first).  Every column is certified against the
    characters before returning: columns 0..j0 by the solver's column
    check, the rest by the translation lemma (see _translates).
    """
    entry = _system(system)
    failure = _first_failure(entry, entry.character)
    if failure is not None:
        raise RuntimeError(f"column {failure} of the {system} matrix fails its relation")
    return entry.f1


# -- Jordan block oracle -------------------------------------------------------------


class JordanPartition(namedtuple("JordanPartition", "blocks")):
    """Multiset of (block size, eigenvalue), sizes descending, as a tuple."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"blocks": [[size, str(ev)] for size, ev in self.blocks]}


def jordan_kronecker_oracle(n: int, lam) -> JordanPartition:
    """Jordan type of a two dimensional Jordan cell summed with an n cell.

    On e_s (x) f_t the nilpotent part N of the Leibniz action lowers the
    degree s + t by exactly one, so N is a chain V_n -> ... -> V_0 of
    degree pieces of dimension <= 2, and its Jordan blocks are the
    intervals of that chain: [i, b], of size b - i + 1, has multiplicity
    r(i,b) - r(i,b+1) - r(i-1,b) + r(i-1,b+1), where r(i, j) is the rank
    of the composite V_j -> V_i (zero off 0 <= i <= j <= n).  One sweep
    from degree n down reads them off in linear work.  Invariant: the
    living bars at degree d are independent in V_d, and the unit vectors
    on the columns they do not pivot, born at d, complete them to a basis.
    Every bar's image goes through one Echelon, eldest first; a bar whose
    image reduces to zero dies at d (the elder rule: of dependent images
    the youngest dies).  The block sizes do not depend on the eigenvalue, so
    lam only labels the blocks and is stored as given (the CLI passes its
    canonical text, such as "-9/4").  Needs 1 <= n <= MAX_JORDAN_N
    (ValueError otherwise).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_JORDAN_N:
        raise ValueError(f"the Jordan cell needs n <= {MAX_JORDAN_N}, got {n}")

    # column s * n + t holds N(e_s (x) f_t)
    nil: dict[int, dict[int, int]] = {c: {} for c in range(2 * n)}
    for t in range(n):
        nil[n + t][t] = 1
        if t:
            nil[t][t - 1] = nil[n + t][n + t - 1] = 1
    degree = [sum(divmod(c, n)) for c in range(2 * n)]
    pieces: list[list[int]] = [[] for _ in range(n + 1)]
    for c, col in nil.items():
        pieces[degree[c]].append(c)
        if any(degree[r] != degree[c] - 1 for r in col):
            raise RuntimeError(f"the Jordan action does not lower the degree of column {c}")

    blocks: list[tuple[int, object]] = []
    bars: list[tuple[int, dict[int, int]]] = []  # (birth, vector in V_d), eldest first
    pivots: dict[int, dict[int, int]] = {}
    for d in range(n, -1, -1):
        bars += [(d, {c: 1}) for c in pieces[d] if c not in pivots]
        echelon = Echelon()
        living = []
        for birth, vec in bars:
            image: dict[int, int] = {}
            for c, v in vec.items():
                for r, w in nil[c].items():
                    image[r] = image.get(r, 0) + v * w
            if echelon.add(image)[0]:
                living.append((birth, image))
            else:
                blocks.append((birth - d + 1, lam))
        bars, pivots = living, echelon.pivots
    blocks.sort(reverse=True)
    return JordanPartition(tuple(blocks))
