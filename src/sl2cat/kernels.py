"""Shared exact kernels: integer row elimination and graph reachability.

Every exact linear-algebra answer in the package (ranks, kernel bases,
unique solutions, leading principal minors) is read off one sparse
row echelon form over the integers, and every connectivity answer comes
from one reachability search.  Nothing here leaves the integers: a
rational solution is an integer vector over one common denominator.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Mapping

__all__ = ["Echelon", "leading_minors", "reachable", "undirected"]


class Echelon:
    """Row echelon form of an integer matrix, built one row at a time.

    Rows are sparse ``{column: value}`` maps.  A new row is reduced
    against the stored pivot rows by cross-multiplication, so elimination
    never divides (fraction-free elimination in the sense of Bareiss,
    Math. Comp. 22, 1968); what is left is divided by its content and
    stored.  ``pivots`` maps each leading column to its primitive row.
    """

    def __init__(self, rows: Iterable[Mapping[int, int]] = ()):
        self.pivots: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Mapping[int, int]) -> tuple[dict[int, int], int]:
        """Reduce row against the pivot rows and store the remainder.

        Returns the reduced row before its content is divided out, and
        the integer s such that it equals s times the rational reduction
        (row minus rational multiples of pivot rows).
        """
        work = {c: v for c, v in row.items() if v}
        scale = 1
        while work:
            lead = min(work)
            pivot = self.pivots.get(lead)
            if pivot is None:
                content = gcd(*work.values())
                self.pivots[lead] = {c: v // content for c, v in work.items()}
                break
            common = gcd(pivot[lead], work[lead])
            a, b = pivot[lead] // common, work[lead] // common
            scale *= a
            if a != 1:
                work = {c: a * v for c, v in work.items()}
            for c, v in pivot.items():
                x = work.get(c, 0) - b * v
                if x:
                    work[c] = x
                else:
                    work.pop(c, None)
        return work, scale

    def solution(self, free: Mapping[int, int]) -> tuple[dict[int, int], int]:
        """The vector every pivot row annihilates, by back substitution over Z.

        ``free`` gives the values on non-pivot columns (absent means 0);
        each pivot column is then solved for from its row.  Returns
        ``(x, d)``: integers x and a denominator d > 0 with
        gcd(d, x...) = 1, such that x / d is the rational solution.  At a
        pivot p with rest r and g = gcd(r, p), x and d are scaled by
        s = |p| / g and the pivot's value is -sign(p) r / g, prime to s.
        A prime q of d does not divide the value set at the last scaling
        by a multiple of q, so the normal form needs no final division.
        """
        x = dict(free)
        d = 1
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            rest = sum(v * x[c] for c, v in row.items() if c != lead and c in x)
            pivot = row[lead]
            g = gcd(rest, pivot)
            scale = abs(pivot) // g
            if scale != 1:
                x = {c: scale * v for c, v in x.items()}
                d *= scale
            x[lead] = -rest // g if pivot > 0 else rest // g
        return x, d

    def kernel(self, columns: int) -> list[list[int]]:
        """Right kernel basis: one integer vector per non-pivot column, zero
        on the others and, at its own, the denominator of ``solution``, so
        each vector is primitive and positive at its free column."""
        basis = []
        for free in range(columns):
            if free not in self.pivots:
                x, _ = self.solution({free: 1})
                basis.append([x.get(c, 0) for c in range(columns)])
        return basis


def leading_minors(rows: Iterable[Mapping[int, int]]) -> list[int]:
    """Leading principal minors of a square matrix, up to the first zero one.

    Rows are eliminated in order with no exchanges, so after k rows the
    pivots sit on columns 0..k-1 and the next pivot is the ratio of
    consecutive minors.
    """
    echelon = Echelon()
    minors: list[int] = []
    minor = 1
    for k, row in enumerate(rows):
        work, scale = echelon.add(row)
        minor = minor * work.get(k, 0) // scale
        minors.append(minor)
        if minor == 0:
            break
    return minors


def reachable(start: int, neighbours: Callable[[int], Iterable[int]]) -> set[int]:
    """Every vertex reachable from start by repeatedly following neighbours."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def undirected(matrix, limit: int) -> Callable[[int], Iterable[int]]:
    """Neighbours below limit in the undirected graph of a matrix's row and column maps."""
    return lambda v: (w for entries in (matrix.row_entries(v), matrix.col_entries(v))
                      for w, _ in entries if w < limit)
