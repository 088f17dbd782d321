"""Generalized Cartan matrices, diagram templates, and exact classification.

A generalized Cartan matrix (GCM) C satisfies c_ii <= 2, c_ij <= 0 for
i != j, and c_ij = 0 iff c_ji = 0.  Its diagram has -c_ij oriented edges
from i to j and 2 - c_ii loops at i, so the adjacency matrix is
A = 2*Id - C.  Templates for the classical, affine, and infinite families
are generated in one place and every classification answer carries a
machine-checkable certificate: exact leading principal minors plus
ultraspherical annihilation for the positive definite types, and an exact
strictly positive null vector for the affine and infinite types.

All arithmetic is integer; nothing here is numerical.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd
from typing import Iterable

from .fusion import action
from .kernels import Echelon, leading_minors, reachable, undirected
from .presented import IndexSet, PresentedMatrix, PresentedVector

__all__ = [
    "GCMError",
    "DynkinType",
    "Classification",
    "validate_gcm",
    "validate_adjacency",
    "graph_of",
    "gcm_of",
    "template",
    "template_types",
    "coxeter_number",
    "check_coxeter_annihilation",
    "find_positive_null_vector",
    "classify",
    "classify_components",
    "MAX_FINITE_RANK",
]

#: Finite classification is cubic in the rank (leading minors, the kernel, and
#: F_{h-1} of the template, h = 2n on B_n and C_n): a dense GCM of this rank with
#: entries down to -9 answers in about 1.5 s.
MAX_FINITE_RANK = 100


class GCMError(ValueError):
    """Raised when a matrix violates the generalized Cartan axioms."""


class DynkinType(namedtuple("DynkinType", "kind family rank", defaults=(None,))):
    """A diagram type: kind is classical, affine, or infinite; rank an int or None."""

    __slots__ = ()

    def __new__(cls, kind: str, family: str, rank: int | None = None):
        if kind not in ("classical", "affine", "infinite"):
            raise ValueError(f"unknown kind {kind!r}")
        return super().__new__(cls, kind, family, rank)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: check as the constructor does
        return cls(*iterable)

    def display(self) -> str:
        if self.kind == "infinite":
            return _INFINITE_DISPLAY[self.family]
        base = _AFFINE_DISPLAY.get(self.family, self.family)
        if self._ranked():
            return f"{base}_{self.rank}"
        return base

    def _ranked(self) -> bool:
        bounds = CLASSICAL_RANKS.get(self.family) or AFFINE_RANKS.get(self.family)
        return self.rank is not None and bounds is not None and bounds[1] is None

    def to_json(self) -> dict:
        return {"kind": self.kind, "family": self.family, "rank": self.rank}


_AFFINE_DISPLAY = {
    "At": "A~", "At11": "A~11", "At12": "A~12", "Bt": "B~", "BCt": "BC~", "Ct": "C~",
    "BDt": "BD~", "Dt": "D~", "CDt": "CD~", "E6t": "E~6", "E7t": "E~7", "E8t": "E~8",
    "F41t": "F~41", "F42t": "F~42", "G21t": "G~21", "G22t": "G~22",
    "Lt": "L~", "BLt": "BL~", "CLt": "CL~", "DLt": "DL~",
}

_INFINITE_DISPLAY = {
    "Ainf": "A_inf", "Ainfinf": "A_inf_inf", "Binf": "B_inf",
    "Cinf": "C_inf", "Dinf": "D_inf", "Tinf": "T_inf",
}


# -- axioms ------------------------------------------------------------------


def validate_gcm(matrix: PresentedMatrix) -> None:
    """Check the generalized Cartan axioms; raise GCMError on failure."""
    diag_tail = matrix.diagonals().get(0, 0)
    if matrix.index.kind != "finite" and diag_tail > 2:
        raise GCMError(f"tail diagonal {diag_tail} exceeds 2")
    for d, v in matrix.diagonals().items():
        if d != 0:
            if v > 0:
                raise GCMError(f"off-diagonal tail value {v} at offset {d} is positive")
            if matrix.diagonals().get(-d, 0) == 0 and v != 0:
                raise GCMError(f"tail offset {d} breaks zero symmetry")
    for i, j, v in matrix.head_entries():
        if i == j:
            if v > 2:
                raise GCMError(f"diagonal entry {v} at ({i},{i}) exceeds 2")
        else:
            if v > 0:
                raise GCMError(f"off-diagonal entry {v} at ({i},{j}) is positive")
            if matrix.entry(j, i) == 0:
                raise GCMError(f"entries ({i},{j}) and ({j},{i}) break zero symmetry")


def validate_adjacency(matrix: PresentedMatrix) -> None:
    """Check diagram-graph constraints: non-negative, 0..2 loops, zero symmetry."""
    if not matrix.is_nonnegative():
        raise GCMError("adjacency has a negative entry")
    limit = matrix.head_size if matrix.index.kind == "nat" else (
        matrix.index.size if matrix.index.kind == "finite" else 0
    )
    for i in range(limit):
        if matrix.entry(i, i) > 2:
            raise GCMError(f"more than two loops at vertex {i}")
    if matrix.index.kind != "finite" and matrix.diagonals().get(0, 0) > 2:
        raise GCMError("more than two loops on the tail diagonal")
    for i, j, v in matrix.head_entries():
        if i != j and v != 0 and matrix.entry(j, i) == 0:
            raise GCMError(f"edges ({i},{j}) present but ({j},{i}) absent")
    for d, v in matrix.diagonals().items():
        if d != 0 and v != 0 and matrix.diagonals().get(-d, 0) == 0:
            raise GCMError(f"tail offset {d} breaks zero symmetry")


def graph_of(gcm: PresentedMatrix) -> PresentedMatrix:
    """Adjacency matrix of the diagram: 2*Id - C."""
    adjacency = PresentedMatrix.scaled_identity(gcm.index, 2).add(gcm.scale(-1))
    validate_adjacency(adjacency)
    return adjacency


def gcm_of(adjacency: PresentedMatrix) -> PresentedMatrix:
    """Generalized Cartan matrix of a diagram: 2*Id - A."""
    validate_adjacency(adjacency)
    gcm = PresentedMatrix.scaled_identity(adjacency.index, 2).add(adjacency.scale(-1))
    validate_gcm(gcm)
    return gcm


# -- templates ----------------------------------------------------------------


def _path(edges: dict, vertices: Iterable[int]) -> None:
    run = list(vertices)
    for a, b in zip(run, run[1:]):
        edges[(a, b)] = edges[(b, a)] = 1


def _classical_adjacency(family: str, n: int) -> dict:
    edges: dict[tuple[int, int], int] = {}
    if family == "A":
        _path(edges, range(n))
    elif family == "B":
        edges[(0, 1)], edges[(1, 0)] = 1, 2
        _path(edges, range(1, n))
    elif family == "C":
        edges[(0, 1)], edges[(1, 0)] = 2, 1
        _path(edges, range(1, n))
    elif family == "D":
        _path(edges, range(n - 1))
        edges[(1, n - 1)] = edges[(n - 1, 1)] = 1
    elif family in ("E6", "E7", "E8"):
        _path(edges, range(n - 1))
        edges[(2, n - 1)] = edges[(n - 1, 2)] = 1
    elif family == "F4":
        _path(edges, (0, 1))
        edges[(1, 2)], edges[(2, 1)] = 2, 1
        _path(edges, (2, 3))
    elif family == "G2":
        edges[(0, 1)], edges[(1, 0)] = 3, 1
    return edges


def _affine_adjacency(family: str, n: int | None) -> tuple[dict, int]:
    edges: dict[tuple[int, int], int] = {}
    if family == "At":
        count = n + 1
        _path(edges, range(count))
        edges[(0, count - 1)] = edges[(count - 1, 0)] = 1
    elif family == "At11":
        edges[(0, 1)], edges[(1, 0)] = 4, 1
        count = 2
    elif family == "At12":
        edges[(0, 1)] = edges[(1, 0)] = 2
        count = 2
    elif family in ("Bt", "BCt", "Ct"):
        count = n + 1
        start = (1, 2) if family == "Ct" else (2, 1)
        edges[(1, 0)], edges[(0, 1)] = start
        _path(edges, range(1, n))
        end = (2, 1) if family == "Bt" else (1, 2)
        edges[(n - 1, n)], edges[(n, n - 1)] = end
    elif family == "BDt":
        count = n + 1
        _path(edges, range(n - 1))
        edges[(n - 2, n - 1)], edges[(n - 1, n - 2)] = 2, 1
        edges[(1, n)] = edges[(n, 1)] = 1
    elif family == "Dt":
        count = n + 1
        _path(edges, range(n - 1))
        edges[(1, n - 1)] = edges[(n - 1, 1)] = 1
        edges[(n - 3, n)] = edges[(n, n - 3)] = 1
    elif family == "CDt":
        count = n + 1
        _path(edges, range(n - 1))
        edges[(n - 2, n - 1)], edges[(n - 1, n - 2)] = 1, 2
        edges[(1, n)] = edges[(n, 1)] = 1
    elif family == "E6t":
        count = 7
        _path(edges, range(5))
        edges[(2, 5)] = edges[(5, 2)] = 1
        edges[(5, 6)] = edges[(6, 5)] = 1
    elif family == "E7t":
        count = 8
        _path(edges, range(7))
        edges[(3, 7)] = edges[(7, 3)] = 1
    elif family == "E8t":
        count = 9
        _path(edges, range(8))
        edges[(2, 8)] = edges[(8, 2)] = 1
    elif family == "F41t":
        count = 5
        _path(edges, (0, 1, 2))
        edges[(2, 3)], edges[(3, 2)] = 2, 1
        _path(edges, (3, 4))
    elif family == "F42t":
        count = 5
        _path(edges, (0, 1))
        edges[(1, 2)], edges[(2, 1)] = 2, 1
        _path(edges, (2, 3, 4))
    elif family == "G21t":
        count = 3
        _path(edges, (0, 1))
        edges[(1, 2)], edges[(2, 1)] = 3, 1
    elif family == "G22t":
        count = 3
        edges[(0, 1)], edges[(1, 0)] = 3, 1
        _path(edges, (1, 2))
    elif family == "Lt":
        count = n
        _path(edges, range(n))
        edges[(0, 0)] = edges[(n - 1, n - 1)] = 1
    elif family in ("BLt", "CLt"):
        count = n + 1
        start = (2, 1) if family == "CLt" else (1, 2)
        edges[(0, 1)], edges[(1, 0)] = start
        _path(edges, range(1, n + 1))
        edges[(n, n)] = 1
    elif family == "DLt":
        count = n + 1
        _path(edges, range(n))
        edges[(1, n)] = edges[(n, 1)] = 1
        edges[(n - 1, n - 1)] = 1
    else:
        raise GCMError(f"unknown affine family {family!r}")
    return edges, count


#: legal rank ranges: family -> (minimum n, fixed n or None)
CLASSICAL_RANKS = {
    "A": (1, None), "B": (2, None), "C": (3, None), "D": (4, None),
    "E6": (6, 6), "E7": (7, 7), "E8": (8, 8), "F4": (4, 4), "G2": (2, 2),
}

AFFINE_RANKS = {
    "At": (2, None), "At11": (1, 1), "At12": (1, 1),
    "Bt": (3, None), "BCt": (2, None), "Ct": (2, None),
    "BDt": (3, None), "Dt": (4, None), "CDt": (3, None),
    "E6t": (6, 6), "E7t": (7, 7), "E8t": (8, 8),
    "F41t": (4, 4), "F42t": (4, 4), "G21t": (2, 2), "G22t": (2, 2),
    "Lt": (2, None), "BLt": (2, None), "CLt": (2, None), "DLt": (3, None),
}

INFINITE_FAMILIES = ("Ainf", "Ainfinf", "Binf", "Cinf", "Dinf", "Tinf")


def _check_rank(table: dict, family: str, rank: int | None) -> int | None:
    if family not in table:
        raise GCMError(f"unknown family {family!r}")
    minimum, fixed = table[family]
    if fixed is not None:
        if rank not in (None, fixed):
            raise GCMError(f"{family} has fixed rank {fixed}")
        return fixed
    if rank is None or rank < minimum:
        raise GCMError(f"{family} needs rank >= {minimum}, got {rank}")
    return rank


def _infinite_adjacency(family: str) -> PresentedMatrix:
    tridiag = {-1: 1, 1: 1}
    if family == "Ainf":
        return PresentedMatrix(IndexSet.nat(), diagonals=tridiag)
    if family == "Ainfinf":
        return PresentedMatrix(IndexSet.int_(), diagonals=tridiag)
    if family == "Binf":
        return PresentedMatrix(IndexSet.nat(), 1, {(0, 1): 1, (1, 0): 2}, tridiag)
    if family == "Cinf":
        return PresentedMatrix(IndexSet.nat(), 1, {(0, 1): 2, (1, 0): 1}, tridiag)
    if family == "Dinf":
        # two pendant vertices 0 and 1 hang off vertex 2 of the ray; the
        # normalized form keeps only the (0,2) pair as head, the 1-2 edge
        # already agrees with the tail rule
        return PresentedMatrix(IndexSet.nat(), 1, {(0, 2): 1, (2, 0): 1}, tridiag)
    if family == "Tinf":
        return PresentedMatrix(IndexSet.nat(), 1, {(0, 0): 1, (0, 1): 1, (1, 0): 1}, tridiag)
    raise GCMError(f"unknown infinite family {family!r}")


def _diagram(dtype: DynkinType) -> tuple[dict, int]:
    """Edge table and vertex count of a classical or affine template."""
    if dtype.kind == "classical":
        rank = _check_rank(CLASSICAL_RANKS, dtype.family, dtype.rank)
        return _classical_adjacency(dtype.family, rank), rank
    return _affine_adjacency(dtype.family, _check_rank(AFFINE_RANKS, dtype.family, dtype.rank))


def _template_adjacency(dtype: DynkinType) -> PresentedMatrix:
    if dtype.kind == "infinite":
        return _infinite_adjacency(dtype.family)
    edges, count = _diagram(dtype)
    return PresentedMatrix(IndexSet.finite(count), head=edges)


def template(dtype: DynkinType) -> PresentedMatrix:
    """The canonical generalized Cartan matrix of a named type.

    No verb reads it: classify matches adjacency templates directly.  It is
    kept as the inverse of classify, the one way to build the GCM that a
    DynkinType names."""
    return gcm_of(_template_adjacency(dtype))


def template_types(max_rank: int = 8) -> list[DynkinType]:
    """Every legal template type with rank bounded by max_rank."""
    out: list[DynkinType] = []
    for table, kind in ((CLASSICAL_RANKS, "classical"), (AFFINE_RANKS, "affine")):
        for family, (minimum, fixed) in table.items():
            ranks = range(minimum, max_rank + 1) if fixed is None else (fixed,)
            out.extend(DynkinType(kind, family, n) for n in ranks if n <= max_rank)
    out.extend(DynkinType("infinite", f) for f in INFINITE_FAMILIES)
    return out


# -- Coxeter numbers -----------------------------------------------------------


def coxeter_number(dtype: DynkinType) -> int:
    """Coxeter number of a classical type."""
    if dtype.kind != "classical":
        raise GCMError("Coxeter numbers are defined here for classical types only")
    fixed = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
    if dtype.family in fixed:
        return fixed[dtype.family]
    n = dtype.rank
    if n is None:
        raise GCMError(f"{dtype.family} needs an explicit rank")
    return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}[dtype.family]


def check_coxeter_annihilation(dtype: DynkinType) -> bool:
    """R_{h-1} vanishes on the adjacency matrix of the classical template."""
    adjacency = _template_adjacency(dtype)
    h = coxeter_number(dtype)
    return action(adjacency, h - 1).is_zero()


# -- null vectors ----------------------------------------------------------------


def find_positive_null_vector(gcm: PresentedMatrix) -> PresentedVector | None:
    """Exact strictly positive primitive null vector, or None.

    Finite: the rational kernel must be one dimensional with a strictly
    positive representative.  Nat-indexed: solves for a vector with
    finite head and affine tail a*i + b; the generic-row identity is
    handled symbolically by coefficient comparison.  Z-indexed: constant
    vectors only.
    """
    index = gcm.index
    if index.kind == "finite":
        n = index.size
        basis = Echelon(dict(enumerate(row)) for row in gcm.truncate(n)).kernel(n)
        # a kernel vector is primitive and positive at its free column, so
        # a strictly positive one needs no sign change
        if len(basis) != 1 or any(x <= 0 for x in basis[0]):
            return None
        vec = PresentedVector(index, basis[0])
    elif index.kind == "int":
        if sum(gcm.diagonals().values()) != 0:
            return None
        vec = PresentedVector(index, (), [(0, 1)])
    else:
        head_len = gcm.head_size + gcm.band
        unknowns = head_len + 2  # v_0..v_{H-1}, a, b
        boundary = max(gcm.tail_start(), head_len + gcm.band)
        rows: list[dict[int, int]] = []
        for i in range(boundary):
            row: dict[int, int] = {}
            for j, v in gcm.row_entries(i):
                if j < head_len:
                    row[j] = row.get(j, 0) + v
                else:
                    row[head_len] = row.get(head_len, 0) + v * j
                    row[head_len + 1] = row.get(head_len + 1, 0) + v
            rows.append(row)
        tail = gcm.diagonals()
        rows.append({head_len: sum(tail.values())})
        rows.append({head_len: sum(d * v for d, v in tail.items()),
                     head_len + 1: sum(tail.values())})
        basis = Echelon(rows).kernel(unknowns)
        if len(basis) != 1:
            return None
        *head, a, b = basis[0]
        vec = PresentedVector(index, head, [(a, b)])
        if not vec.is_strictly_positive():
            vec = PresentedVector(index, [-x for x in head], [(-a, -b)])
    if not vec.is_strictly_positive():
        return None
    if not gcm.apply(vec).is_zero():
        return None
    return vec


# -- graph matching ----------------------------------------------------------------


def _vertex_profiles(edges: dict[tuple[int, int], int], n: int) -> list[tuple]:
    """(loops, sorted out-weights, sorted in-weights) of each of the n vertices
    of the digraph with these nonzero edge weights, in O(edges): a relabelling
    keeps each vertex's profile."""
    loops = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for (i, j), w in edges.items():
        if i == j:
            loops[i] = w
        else:
            out[i].append(w)
            inc[j].append(w)
    return [(loops[v], tuple(sorted(out[v])), tuple(sorted(inc[v]))) for v in range(n)]


def _dense_profiles(dense: list[list[int]]) -> list[tuple]:
    edges = {(i, j): x for i, row in enumerate(dense) for j, x in enumerate(row) if x}
    return _vertex_profiles(edges, len(dense))


def _digraph_isomorphic(a: list[list[int]], b: list[list[int]], pa: list[tuple],
                        pb: list[tuple], movable: int | None = None) -> bool:
    """An isomorphism of dense digraphs with vertex profiles pa and pb moving
    only vertices below movable."""
    n = len(a)
    if len(b) != n:
        return False
    movable = n if movable is None else movable
    if sorted(pa) != sorted(pb):
        return False
    # pinned vertices first; after them always a vertex next to one already
    # placed (rarest profile first), so a wrong image fails at the next level
    rarity = [pa.count(p) for p in pa]
    order: list[int] = []
    rest, touched = set(range(n)), set()
    while rest:
        v = min(rest, key=lambda v: (v < movable, v not in touched, rarity[v], v))
        order.append(v)
        rest.remove(v)
        touched.update(w for w in rest if a[v][w] or a[w][v])
    image: list[int | None] = [None] * n
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in range(n) if v < movable else (v,):
            if used[w] or pa[v] != pb[w]:
                continue
            ok = True
            for prev in order[:pos]:
                pw = image[prev]
                if a[v][prev] != b[w][pw] or a[prev][v] != b[pw][w]:
                    ok = False
                    break
            if ok and a[v][v] == b[w][w]:
                image[v] = w
                used[w] = True
                if extend(pos + 1):
                    return True
                image[v] = None
                used[w] = False
        return False

    return extend(0)


def _match_infinite(adjacency: PresentedMatrix) -> DynkinType | None:
    """Infinite template equal to the diagram up to relabelling its head.

    Past the window both matrices follow the same tail rule, so a
    relabelling of the window vertices is decided on a truncation that
    also holds every window vertex's neighbours.
    """
    for family in INFINITE_FAMILIES:
        candidate = _infinite_adjacency(family)
        if candidate.index != adjacency.index or candidate.diagonals() != adjacency.diagonals():
            continue
        if candidate == adjacency:
            return DynkinType("infinite", family)
        if adjacency.index.kind != "nat":
            continue
        window = max(adjacency.head_size, adjacency.head_extent(),
                     candidate.head_extent()) + adjacency.band
        size = window + adjacency.band
        a, b = adjacency.truncate(size), candidate.truncate(size)
        if _digraph_isomorphic(a, b, _dense_profiles(a), _dense_profiles(b), window):
            return DynkinType("infinite", family)
    return None


# -- connectivity ------------------------------------------------------------------


def _infinite_connected(adjacency: PresentedMatrix) -> bool:
    """Certify connectivity of an infinite diagram.

    Every vertex past the head descends into the window along a negative
    tail offset (support is symmetric), so the diagram is connected once
    all window vertices sit in one component.  Edges may detour through
    vertices slightly above the window, hence the widened limit.
    A False answer means the certificate could not be produced.
    """
    offdiag = [d for d, v in adjacency.diagonals().items() if d != 0 and v != 0]
    if not offdiag:
        return False
    if adjacency.index.kind == "int":
        # steps generate the subgroup gcd(offsets)*Z
        return gcd(*(abs(d) for d in offdiag)) == 1
    window = adjacency.tail_start() + adjacency.band
    seen = reachable(0, undirected(adjacency, window + 2 * adjacency.band))
    return all(v in seen for v in range(window))


# -- classification -----------------------------------------------------------------


class Classification(namedtuple("Classification", "kind dtype certificate")):
    """Outcome of classify: a kind, a DynkinType (or None) and an exact certificate."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "type": self.dtype.to_json() if self.dtype else None,
            "certificate": self.certificate,
        }


def _unrecognized(reason: str) -> Classification:
    return Classification("unrecognized", None, {"reason": reason})


@lru_cache(maxsize=16)
def _finite_templates(n: int) -> dict[tuple, list[tuple[DynkinType, dict, list[tuple]]]]:
    """(kind, sorted vertex profiles) -> [(type, edge table, vertex profiles)]
    of the classical and affine templates on n vertices, in template_types
    order, profiled from the edge tables.  A template of rank r has r or r + 1
    vertices, so only ranks n - 1 and n are built."""
    out: dict = {}
    for dtype in template_types(n):
        if dtype.kind != "infinite" and dtype.rank >= n - 1:
            edges, count = _diagram(dtype)
            if count == n:
                profiles = _vertex_profiles(edges, n)
                key = (dtype.kind, tuple(sorted(profiles)))
                out.setdefault(key, []).append((dtype, edges, profiles))
    return out


def _classify_finite(gcm: PresentedMatrix, adjacency: PresentedMatrix) -> Classification:
    n = gcm.index.size
    dense = adjacency.truncate(n)
    if n == 0 or len(reachable(0, undirected(adjacency, n))) != n:
        return _unrecognized("diagram is not connected")
    neither = "neither positive definite nor a positive null vector"
    # c_ij c_ji > 4 >= c_ii c_jj: {i, j} is not of finite type, so the GCM is no
    # M-matrix (positive leading minors) and not affine (positive null vector;
    # Kac, Thm 4.3 and Lemma 4.5; at n = 2 one forces c_11 c_22 = c_12 c_21).
    # Answer before eliminating, whose cost grows with the entries' bit length.
    if any(dense[i][j] * dense[j][i] > 4 for i in range(n) for j in range(i)):
        return _unrecognized(neither)
    minors = leading_minors(dict(enumerate(row)) for row in gcm.truncate(n))
    if all(m > 0 for m in minors):
        kind, proof, certificate = "classical", "positive definite", {"minors": minors}
    else:
        null = find_positive_null_vector(gcm)
        if null is None:
            return _unrecognized(neither)
        kind, proof = "affine", "positive null vector"
        certificate = {"null_vector": list(null.head)}
    profiles = _dense_profiles(dense)
    for dtype, edges, candidate in _finite_templates(n).get((kind, tuple(sorted(profiles))), ()):
        template_dense = [[edges.get((i, j), 0) for j in range(n)] for i in range(n)]
        if _digraph_isomorphic(dense, template_dense, profiles, candidate):
            if kind == "classical":
                certificate["coxeter_number"] = coxeter_number(dtype)
                certificate["annihilation"] = check_coxeter_annihilation(dtype)
            return Classification(kind, dtype, certificate)
    return _unrecognized(f"{proof} but matches no {kind} template")


def _check_size(gcm: PresentedMatrix) -> None:
    if gcm.index.kind == "finite" and gcm.index.size > MAX_FINITE_RANK:
        raise GCMError(f"finite index of size {gcm.index.size} exceeds the classification"
                       f" cap {MAX_FINITE_RANK}")


def classify(gcm: PresentedMatrix) -> Classification:
    """Classify a generalized Cartan matrix with an exact certificate."""
    _check_size(gcm)
    validate_gcm(gcm)
    try:
        adjacency = graph_of(gcm)
    except GCMError as exc:
        return _unrecognized(str(exc))
    if gcm.index.kind == "finite":
        return _classify_finite(gcm, adjacency)
    if not _infinite_connected(adjacency):
        return _unrecognized("could not certify connectivity of the infinite diagram")
    null = find_positive_null_vector(gcm)
    if null is None:
        return _unrecognized("no strictly positive eventually-affine null vector found")
    dtype = _match_infinite(adjacency)
    if dtype is None:
        return _unrecognized("positive null vector but matches no infinite template")
    certificate = {"null_vector": null.to_json_dict(), "template": dtype.family}
    return Classification("infinite", dtype, certificate)


def classify_components(gcm: PresentedMatrix) -> list[tuple[list[int], Classification]]:
    """(sorted vertices, classification) of each connected component of a finite GCM."""
    if gcm.index.kind != "finite":
        raise GCMError("componentwise classification needs a finite matrix")
    _check_size(gcm)
    dense = gcm.truncate(gcm.index.size)
    neighbours = undirected(gcm, len(dense))
    out: list[tuple[list[int], Classification]] = []
    seen: set[int] = set()
    for start in range(len(dense)):
        if start not in seen:
            comp = sorted(reachable(start, neighbours))
            seen.update(comp)
            sub = [[dense[i][j] for j in comp] for i in comp]
            out.append((comp, classify(PresentedMatrix.from_dense(sub))))
    return out
