"""Finitely presented matrices and vectors over countable index sets.

A matrix indexed by the natural numbers is presented by a finite sparse
"head" covering every position (i, j) with min(i, j) < head_size, plus a
banded Toeplitz "tail": for min(i, j) >= head_size the entry depends only
on the offset d = j - i, is zero for |d| > band, and equals diagonals[d]
otherwise.  Matrices indexed by Z are pure Toeplitz (empty head), and
matrices over a finite index set are all head.  The head is held once, as
a map from each row to its {column: value} entries and the transposed map
from each column to its {row: value} entries.  Every row and every column
has finite support, so products are given by finite exact sums.
tail_start() is the first index whose row and column hold only tail
entries (the size on a finite index set).  add, mul and apply take one
path on every index set: a sum adds the stored heads and writes each
term's tail out only on the edges between its own head size and the larger
one, and apply computes the rows below tail_start explicitly.  A product's
tail is the product of the two tails' symbols; its head stops where the
left factor's tail rows meet only the right factor's tail (see mul), and
there it sums over the stored rows and the tail rows past each head size,
so a product under a shared huge head costs its band, not its head size.
mul(B, C) gives A·B − C in that one pass.  Sums, products and __init__
all hand a row map {i: {j: v}} to one builder, which checks and stores it.

Vectors follow the same pattern with an eventually periodic-affine tail:
past the head, entry i is a_r * (i // p) + b_r with r = i % p, one pair
(a_r, b_r) per residue of the period p.  At p = 1 that is a * i + b; a
Z-indexed vector is a single constant.  One normal form, the smallest
period dividing p and then the shortest head, is computed once at
construction and sits behind equality, hashing and is_zero; add writes
both terms at the lcm of their periods.

Matrices are stored in a canonical normalized form: zero entries are
dropped, the band is minimal, and the head is shrunk while its boundary
agrees with the tail rule.  Equality and hashing are structural on that
canonical form.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Iterable, Iterator, Mapping

__all__ = [
    "PresentationError",
    "IndexSet",
    "PresentedMatrix",
    "PresentedVector",
]


class PresentationError(ValueError):
    """Raised for malformed or inconsistent presentations."""


class IndexSet:
    """Index domain of a presented object: Finite(n), Nat, or Int."""

    __slots__ = ("kind", "size")

    def __init__(self, kind: str, size: int | None = None):
        if kind not in ("finite", "nat", "int"):
            raise PresentationError(f"unknown index kind {kind!r}")
        if kind == "finite":
            if size is None or _as_int(size) < 0:
                raise PresentationError("finite index needs a size >= 0")
        elif size is not None:
            raise PresentationError(f"{kind} index takes no size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", size)

    def __setattr__(self, *_):
        raise AttributeError("IndexSet is immutable")

    @staticmethod
    def finite(n: int) -> "IndexSet":
        return IndexSet("finite", n)

    @staticmethod
    def nat() -> "IndexSet":
        return IndexSet("nat")

    @staticmethod
    def int_() -> "IndexSet":
        return IndexSet("int")

    def contains(self, i: int) -> bool:
        if self.kind == "finite":
            return 0 <= i < self.size
        if self.kind == "nat":
            return i >= 0
        return True

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.kind == other.kind
            and self.size == other.size
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.size))

    def __repr__(self) -> str:
        if self.kind == "finite":
            return f"IndexSet.finite({self.size})"
        return f"IndexSet.{self.kind}()" if self.kind == "nat" else "IndexSet.int_()"

    def to_json(self):
        if self.kind == "finite":
            return {"finite": self.size}
        return self.kind

    @staticmethod
    def from_json(data) -> "IndexSet":
        if data == "nat":
            return IndexSet.nat()
        if data == "int":
            return IndexSet.int_()
        if isinstance(data, dict) and set(data) == {"finite"}:
            return IndexSet.finite(data["finite"])
        raise PresentationError(f"bad index description {data!r}")


#: Caps on a matrix document's band and normalized head size (the size on a
#: finite index set); README.md gives what the verbs cost at each.
MAX_BAND = 4
MAX_HEAD = 100_000

#: A diagonal offset as a JSON key, the pattern matrix.schema.json gives.
_OFFSET_RE = re.compile(r"-?[0-9]+")


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise PresentationError(f"expected an integer, got {value!r}")
    return value


class PresentedMatrix:
    """Immutable countably-indexed integer matrix in head + Toeplitz-tail form."""

    __slots__ = ("index", "head_size", "band", "_diags", "_rows", "_cols", "_norm", "_hash")

    def __init__(
        self,
        index: IndexSet,
        head_size: int = 0,
        head: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]] = (),
        diagonals: Mapping[int, int] | None = None,
    ):
        rows: dict[int, dict[int, int]] = {}
        if isinstance(head, Mapping):
            # coordinates are checked before keying the row map: 1.0 would join row 1
            for (i, j), v in head.items():
                if v != 0:
                    if type(i) is not int or type(j) is not int:
                        _as_int(i)
                        _as_int(j)
                    rows.setdefault(i, {})[j] = v
        else:
            for i, j, v in head:
                row = rows.setdefault(_as_int(i), {})
                if _as_int(j) in row:
                    raise PresentationError(f"duplicate head entry at {(i, j)}")
                row[j] = v
        diagonals = {_as_int(d): _as_int(v) for d, v in dict(diagonals or {}).items() if v != 0}
        self._build(index, head_size, rows, diagonals, into=self)

    @staticmethod
    def _build(index: IndexSet, head_size: int, rows: Mapping, diagonals: Mapping, into=None):
        """The one checking loop, behind __init__ and every sum, scale and product: a
        row map {i: {j: v}} without its zeros, each entry an integer in the head region."""
        self = object.__new__(PresentedMatrix) if into is None else into
        diagonals = {d: v for d, v in diagonals.items() if v != 0}
        finite = index.kind == "finite"
        if finite:
            n = index.size
            if diagonals:
                raise PresentationError("finite matrices have no Toeplitz tail")
            head_size = n
        elif index.kind == "int":
            if head_size != 0 or any(v != 0 for row in rows.values() for v in row.values()):
                raise PresentationError("Z-indexed matrices must be pure Toeplitz")
        elif head_size < 0:
            raise PresentationError("head_size must be >= 0")

        # kept[i][j] = cols[j][i] = entry (i, j)
        kept: dict[int, dict[int, int]] = {}
        cols: dict[int, dict[int, int]] = {}
        for i, row in rows.items():
            out = {}
            for j, v in row.items():
                if v == 0:
                    continue
                if finite:
                    if not (0 <= i < n and 0 <= j < n):
                        raise PresentationError(f"entry ({i},{j}) outside finite index 0..{n - 1}")
                elif i < 0 or j < 0:
                    raise PresentationError(f"entry ({i},{j}) outside natural index")
                elif i >= head_size and j >= head_size:
                    raise PresentationError(f"entry ({i},{j}) outside declared head region "
                                            f"(head_size={head_size})")
                if j not in cols:
                    cols[j] = {}
                out[j] = cols[j][i] = v if type(v) is int else _as_int(v)
            if out:
                kept[i] = out

        band = max((abs(d) for d in diagonals), default=0)
        for name, value in zip(self.__slots__, (index, head_size, band, diagonals, kept, cols)):
            object.__setattr__(self, name, value)
        if index.kind == "nat":
            self._normalize()
        return self

    def __setattr__(self, *_):
        raise AttributeError("PresentedMatrix is immutable")

    def _normalize(self) -> None:
        """Drop boundary edges min(i, j) = n - 1 that agree with the tail.

        Edge e is row e from column e on plus column e below row e.  It
        agrees exactly when its {offset: value} map equals the tail's, so
        each drop costs O(its entries).  With no tail, every empty edge
        above the largest stored one goes at once.
        """
        rows, cols, diags = self._rows, self._cols, self._diags
        if diags:
            n = self.head_size
        else:
            n = max((min(i, max(row)) for i, row in rows.items()), default=-1) + 1
        while n > 0:
            e = n - 1
            edge = {j - e: v for j, v in rows.get(e, {}).items() if j >= e}
            edge.update((e - i, v) for i, v in cols.get(e, {}).items() if i > e)
            if edge != diags:
                break
            for d in edge:
                i, j = (e, e + d) if d >= 0 else (e - d, e)
                for lines, a, b in ((rows, i, j), (cols, j, i)):
                    del lines[a][b]
                    if not lines[a]:
                        del lines[a]
            n -= 1
        object.__setattr__(self, "head_size", n)

    # -- basic access ----------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if not (self.index.contains(i) and self.index.contains(j)):
            raise IndexError(f"({i},{j}) outside index set")
        if self.index.kind != "int" and min(i, j) < self.head_size:
            return self._rows.get(i, {}).get(j, 0)
        return self._diags.get(j - i, 0)

    def head_extent(self) -> int:
        """One past the largest coordinate mentioned by a stored head entry."""
        return max(max(self._rows, default=-1), max(self._cols, default=-1)) + 1

    def tail_start(self) -> int:
        """First index whose row and column hold only tail entries: past it no
        head entry is stored and every band neighbour lies past the head."""
        return max(self.head_size + self.band, self.head_extent())

    def diagonals(self) -> dict[int, int]:
        return dict(self._diags)

    def _items(self) -> Iterator[tuple[tuple[int, int], int]]:
        return (((i, j), v) for i, row in self._rows.items() for j, v in row.items())

    def head_entries(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, v) for (i, j), v in self._items())

    def row_entries(self, i: int) -> Iterator[tuple[int, int]]:
        """All (j, value) with entry(i, j) != 0; finite by construction."""
        if self.index.kind == "int":
            for d, v in self._diags.items():
                yield i + d, v
            return
        yield from self._rows.get(i, {}).items()
        if i >= self.head_size:
            for d, v in self._diags.items():
                j = i + d
                if j >= self.head_size:
                    yield j, v

    def col_entries(self, j: int) -> Iterator[tuple[int, int]]:
        """All (i, value) with entry(i, j) != 0."""
        if self.index.kind == "int":
            for d, v in self._diags.items():
                yield j - d, v
            return
        yield from self._cols.get(j, {}).items()
        if j >= self.head_size:
            for d, v in self._diags.items():
                i = j - d
                if i >= self.head_size:
                    yield i, v

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(index: IndexSet) -> "PresentedMatrix":
        return PresentedMatrix(index)

    @staticmethod
    def scaled_identity(index: IndexSet, c: int = 1) -> "PresentedMatrix":
        if index.kind == "finite":
            return PresentedMatrix(index, head={(i, i): c for i in range(index.size)})
        return PresentedMatrix(index, diagonals={0: c})

    @staticmethod
    def from_dense(rows: list[list[int]]) -> "PresentedMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise PresentationError("dense matrix must be square")
        return PresentedMatrix._build(IndexSet.finite(n), n,
                                      {i: dict(enumerate(r)) for i, r in enumerate(rows)}, {})

    # -- structure tests --------------------------------------------------

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self._rows.values() for v in row.values()) and all(
            v >= 0 for v in self._diags.values()
        )

    def is_zero(self) -> bool:
        return not self._rows and not self._diags

    def is_symmetric(self) -> bool:
        # the normalized form is canonical, so equality is entrywise
        return self.transpose() == self

    def transpose(self) -> "PresentedMatrix":
        return self._build(self.index, self.head_size, self._cols,
                           {-d: v for d, v in self._diags.items()})

    # -- arithmetic ---------------------------------------------------------

    def _require_same_index(self, *others: "PresentedMatrix | None") -> None:
        if any(other is not None and other.index != self.index for other in others):
            raise PresentationError("index sets differ")

    def add(self, other: "PresentedMatrix") -> "PresentedMatrix":
        self._require_same_index(other)
        n = max(self.head_size, other.head_size)
        rows, diags = {}, {}
        for term in (self, other):
            _accumulate(rows, term, n)
            for d, v in term._diags.items():
                diags[d] = diags.get(d, 0) + v
        return self._build(self.index, n, rows, diags)

    def scale(self, c: int) -> "PresentedMatrix":
        rows = {i: {j: c * v for j, v in row.items()} for i, row in self._rows.items()}
        return self._build(self.index, self.head_size, rows,
                           {d: c * v for d, v in self._diags.items()})

    def mul(self, other: "PresentedMatrix",
            minus: "PresentedMatrix | None" = None) -> "PresentedMatrix":
        """Exact product self·other, less minus if given; its tail is the tails' product.

        The head block stops at m = max(A.tail_start(), min(B.tail_start(),
        B.head_size + A.band)) for self = A and other = B.  Take i, j >= m.
        Row i of A is pure tail, so it meets only rows k >= i - A.band.  If
        m >= B.head_size + A.band, then min(k, j) >= B.head_size and every
        B(k, j) is B's tail; otherwise m >= B.tail_start() and column j of B
        is pure tail.  Either way (AB)(i, j) is the tail product.  So a
        product of banded matrices leaves its own Toeplitz tail only in a
        corner set by the left factor's band, as in T(a)T(b) = T(ab) -
        H(a)H(b~) (Boettcher and Silbermann, Introduction to Large Truncated
        Toeplitz Matrices, 1999).  For F_1 of band 1 and heads of size h,
        F_1 F_{i-1} stops at h + 1, not at max(A.tail_start(),
        B.tail_start()) = h + i - 1; the normal form strips the same result
        from either block.

        With minus = C the block also covers C's head, and C's stored entries
        and its tail up to m go into the same row map, negated.
        """
        self._require_same_index(other, minus)
        diags: dict[int, int] = {}
        for d1, v1 in self._diags.items():
            for d2, v2 in other._diags.items():
                diags[d1 + d2] = diags.get(d1 + d2, 0) + v1 * v2
        for d, v in minus._diags.items() if minus is not None else ():
            diags[d] = diags.get(d, 0) - v
        if self.index.kind == "int":
            return self._build(self.index, 0, {}, diags)
        m = max(self.tail_start(), min(other.tail_start(), other.head_size + self.band),
                0 if minus is None else minus.head_size)
        # below m, other's stored columns can reach rows past m + other.band
        end = max(m + other.band, other.head_extent())
        # row k of other is its stored entries and, for k past its head size,
        # its diagonals at columns past the head size
        ohs, rows_b, diags_b, empty = other.head_size, other._rows, other._diags.items(), {}
        hs, diags_a = self.head_size, self._diags
        tail_a = {i: {i + d: a for d, a in diags_a.items() if i + d >= hs}
                  for i in range(hs, m)} if diags_a else {}
        rows: dict[int, dict[int, int]] = {}
        for rows_a in (self._rows, tail_a):
            for i, row_a in rows_a.items():
                out = rows.setdefault(i, {})
                for k, a in row_a.items():
                    for j, b in rows_b.get(k, empty).items():
                        out[j] = out.get(j, 0) + a * b
                    if k >= ohs:
                        for d, b in diags_b:
                            if k + d >= ohs:
                                out[k + d] = out.get(k + d, 0) + a * b
        # rows i >= m of self are pure tail, so the corner below the head
        # block, columns j < m, meets only other's rows m - self.band .. end - 1
        for k in range(m - self.band, end) if diags_a else ():
            corner = [(j, b) for j, b in rows_b.get(k, empty).items() if j < m]
            if k >= ohs:
                corner += [(k + d, b) for d, b in diags_b if ohs <= k + d < m]
            for j, b in corner:
                for d, a in diags_a.items():
                    if k - d >= m:
                        out = rows.setdefault(k - d, {})
                        out[j] = out.get(j, 0) + a * b
        if minus is not None:
            _accumulate(rows, minus, m, -1)
        return self._build(self.index, m, rows, diags)

    def poly_eval(self, coeffs: Iterable[int]) -> "PresentedMatrix":
        """Evaluate an integer polynomial (lowest degree first) at this matrix."""
        acc = PresentedMatrix.zero(self.index)
        for c in reversed(list(coeffs)):
            acc = acc.mul(self)
            if c:
                acc = acc.add(PresentedMatrix.scaled_identity(self.index, c))
        return acc

    # -- vectors -----------------------------------------------------------

    def apply(self, vec: "PresentedVector") -> "PresentedVector":
        """Exact matrix-vector product.

        The periodic-affine tail of the result is certified symbolically:
        on a generic row i = p*q + r the value is sum_d T(d) * v(i + d),
        and v(i + d) = a_s * (q + (r + d) // p) + b_s with s = (r + d) % p,
        affine in q.  The boundary rows are computed explicitly.
        """
        if self.index != vec.index:
            raise PresentationError("index sets differ")
        rows = 0 if self.index.kind == "int" else max(self.tail_start(),
                                                     len(vec.head) + self.band)
        # stored entries sit in rows below tail_start, and diagonal d adds (i, i + d)
        # with both past the head size, so every column read is below rows + band
        values, hs, diags = vec.truncate(rows + self.band), self.head_size, self._diags.items()
        head = [0] * rows
        for (i, j), v in self._items():
            head[i] += v * values[j]
        for d, v in diags:
            for i in range(max(hs, hs - d), rows):
                head[i] += v * values[i + d]
        p = vec.period
        a = [sum(v * vec.tails[(r + d) % p][0] for d, v in diags) for r in range(p)]
        b = [sum(v * _tail_value(vec.tails, r + d) for d, v in diags) for r in range(p)]
        return PresentedVector(self.index, head, zip(a, b))

    # -- windows and serialization ------------------------------------------

    def truncate(self, n: int) -> list[list[int]]:
        """Dense n x n window: top-left corner for Finite/Nat, centered for Z.

        Each row is filled from its stored entries, so the window costs its
        n^2 zeros plus the nonzero cells, not one entry() call per cell."""
        if n < 0:
            raise PresentationError("window size must be >= 0")
        if self.index.kind == "finite" and n > self.index.size:
            raise PresentationError("window larger than finite index")
        lo = -(n // 2) if self.index.kind == "int" else 0
        window = []
        for i in range(lo, lo + n):
            row = [0] * n
            for j, v in self.row_entries(i):
                if lo <= j < lo + n:
                    row[j - lo] = v
            window.append(row)
        return window

    def to_json_dict(self) -> dict:
        return {
            "index": self.index.to_json(),
            "head": {
                "size": self.head_size,
                "entries": [[i, j, v] for i, j, v in self.head_entries()],
            },
            "tail": {
                "band": self.band,
                "diagonals": {str(d): v for d, v in sorted(self._diags.items())},
            },
        }

    @staticmethod
    def from_json_dict(data) -> "PresentedMatrix":
        if not isinstance(data, dict):
            raise PresentationError("matrix document must be an object")
        unknown = set(data) - {"index", "head", "tail"}
        if unknown:
            raise PresentationError(f"unknown matrix fields {sorted(unknown)}")
        if "index" not in data:
            raise PresentationError("matrix document needs an index")
        index = IndexSet.from_json(data["index"])
        head = data.get("head", {"size": 0, "entries": []})
        tail = data.get("tail", {"band": 0, "diagonals": {}})
        if not isinstance(head, dict) or not isinstance(tail, dict):
            raise PresentationError("head and tail must be objects")
        entries = head.get("entries", [])
        if not isinstance(entries, list):
            raise PresentationError("head.entries must be a list")
        triples = []
        for item in entries:
            if not (isinstance(item, list) and len(item) == 3):
                raise PresentationError(f"head entry {item!r} is not [i, j, value]")
            triples.append((_as_int(item[0]), _as_int(item[1]), _as_int(item[2])))
        diags_raw = tail.get("diagonals", {})
        if not isinstance(diags_raw, dict):
            raise PresentationError("tail.diagonals must be an object")
        diags = {}
        for k, v in diags_raw.items():
            if not (isinstance(k, str) and _OFFSET_RE.fullmatch(k)):
                raise PresentationError(f"bad diagonal offset {k!r}")
            if int(k) in diags:
                raise PresentationError(f"duplicate diagonal offset {int(k)}")
            diags[int(k)] = _as_int(v)
        band = tail.get("band", 0)
        head_size = head.get("size", 0)
        matrix = PresentedMatrix(index, _as_int(head_size), triples, diags)
        if _as_int(band) < matrix.band:
            raise PresentationError(f"declared band {band} smaller than diagonal offsets")
        if matrix.band > MAX_BAND:
            raise PresentationError(f"band {matrix.band} exceeds the cap {MAX_BAND}")
        if matrix.head_size > MAX_HEAD:
            raise PresentationError(f"head size {matrix.head_size} exceeds the cap {MAX_HEAD}")
        return matrix

    # -- identity -----------------------------------------------------------

    def _key(self):
        """The normal form behind == and hashing, kept in _norm: F_1 is hashed per action call."""
        try:
            return self._norm
        except AttributeError:
            key = (self.index, self.head_size, tuple(sorted(self._items())),
                   tuple(sorted(self._diags.items())))
            object.__setattr__(self, "_norm", key)
            return key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PresentedMatrix) and self._key() == other._key()

    def __hash__(self) -> int:
        """hash(_key()), kept in _hash: hashing the key reads the whole head."""
        try:
            return self._hash
        except AttributeError:
            value = hash(self._key())
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        return (
            f"PresentedMatrix({self.index!r}, head_size={self.head_size}, "
            f"head={sorted(self._items())}, diagonals={dict(sorted(self._diags.items()))})"
        )


def _accumulate(rows: dict, term: PresentedMatrix, stop: int, sign: int = 1) -> None:
    """rows += sign * term, its tail written out on the edges from its head size to stop."""
    for i, row in term._rows.items():
        out = rows.setdefault(i, {})
        for j, v in row.items():
            out[j] = out.get(j, 0) + sign * v
    for e in range(term.head_size, stop):
        for d, v in term._diags.items():
            i, j = (e, e + d) if d >= 0 else (e - d, e)
            out = rows.setdefault(i, {})
            out[j] = out.get(j, 0) + sign * v


def _tail_value(tails: tuple[tuple[int, int], ...], i: int) -> int:
    a, b = tails[i % len(tails)]
    return a * (i // len(tails)) + b


def _refine(tails: tuple[tuple[int, int], ...], period: int) -> tuple[tuple[int, int], ...]:
    """The same tail at ``period``, a multiple of its own period."""
    p = len(tails)
    if p == period:
        return tails
    return tuple(((period // p) * tails[s % p][0], _tail_value(tails, s))
                 for s in range(period))


def _normal_form(index: IndexSet, head: tuple[int, ...], tails: tuple[tuple[int, int], ...]):
    """The smallest period dividing len(tails), the first q that refines back
    to the given tail as every period is its multiple; then on N the shortest head."""
    p = len(tails)
    for q in range(1, p):
        if p % q == 0:
            base = tuple((a // (p // q), b) for a, b in tails[:q])
            if _refine(base, p) == tails:
                tails = base
                break
    n = len(head)
    if index.kind == "nat":
        while n and head[n - 1] == _tail_value(tails, n - 1):
            n -= 1
    return head[:n], tails


class PresentedVector:
    """Immutable integer vector: a head, then a_r * (i // p) + b_r, r = i % p, p = len(tails).

    The constructor stores the normal form in ``_key``, which ``==``,
    hashing and ``is_zero`` read.
    """

    __slots__ = ("index", "head", "tails", "_key")

    def __init__(
        self,
        index: IndexSet,
        head: Iterable[int] = (),
        tails: Iterable[tuple[int, int]] = ((0, 0),),
    ):
        head_t = tuple(x if type(x) is int else _as_int(x) for x in head)
        tails_t = tuple((_as_int(a), _as_int(b)) for a, b in tails)
        if not tails_t:
            raise PresentationError("a tail needs period >= 1")
        head_t, tails_t = _normal_form(index, head_t, tails_t)
        if index.kind == "finite":
            if len(head_t) != index.size:
                raise PresentationError(
                    f"finite vector needs exactly {index.size} entries, got {len(head_t)}"
                )
            if tails_t != ((0, 0),):
                raise PresentationError("finite vectors have no tail")
        elif index.kind == "int" and (head_t or len(tails_t) > 1 or tails_t[0][0]):
            raise PresentationError("Z-indexed vectors are a single constant")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "head", head_t)
        object.__setattr__(self, "tails", tails_t)
        object.__setattr__(self, "_key", (index, head_t, tails_t))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def period(self) -> int:
        return len(self.tails)

    def entry(self, i: int) -> int:
        if 0 <= i < len(self.head):
            return self.head[i]
        if not self.index.contains(i):
            raise IndexError(f"{i} outside index set")
        return _tail_value(self.tails, i)

    def truncate(self, n: int) -> list[int]:
        lo = -(n // 2) if self.index.kind == "int" else 0
        return [self.entry(lo + i) for i in range(n)]

    def add(self, other: "PresentedVector") -> "PresentedVector":
        """Entrywise sum, both terms written at the lcm of their periods
        and over the longer head."""
        if self.index != other.index:
            raise PresentationError("index sets differ")
        period = lcm(self.period, other.period)
        head = [self.entry(i) + other.entry(i)
                for i in range(max(len(self.head), len(other.head)))]
        tails = [(a1 + a2, b1 + b2) for (a1, b1), (a2, b2)
                 in zip(_refine(self.tails, period), _refine(other.tails, period))]
        return PresentedVector(self.index, head, tails)

    def is_zero(self) -> bool:
        _, head, tails = self._key
        return tails == ((0, 0),) and not any(head)

    def is_strictly_positive(self) -> bool:
        """True if every entry is > 0 (for infinite indices: eventually too)."""
        if any(x <= 0 for x in self.head):
            return False
        if self.index.kind == "finite":
            return True
        # past the head each residue class is affine in its block, so it
        # stays positive when its slope is >= 0 and its first value is > 0
        h, p = len(self.head), self.period
        return all(a >= 0 and self.entry(h + (r - h) % p) > 0
                   for r, (a, _) in enumerate(self.tails))

    def to_json_dict(self) -> dict:
        doc: dict = {"head": list(self.head)}
        if self.index.kind != "finite":
            if self.period != 1:
                raise PresentationError("a vector document holds a period-1 tail")
            ((a, b),) = self.tails
            doc["tail"] = {"a": a, "b": b}
        return doc

    @staticmethod
    def from_json_dict(data, index: IndexSet) -> "PresentedVector":
        if not isinstance(data, dict) or "head" not in data:
            raise PresentationError("vector document needs a head list")
        head = data["head"]
        if not isinstance(head, list):
            raise PresentationError("vector head must be a list")
        tail = data.get("tail", {"a": 0, "b": 0})
        if not isinstance(tail, dict):
            raise PresentationError("vector tail must be an object")
        return PresentedVector(index, head, [(tail.get("a", 0), tail.get("b", 0))])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PresentedVector) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.index!r}, head={list(self.head)}, "
                f"tails={list(self.tails)})")
