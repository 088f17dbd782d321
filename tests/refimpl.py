"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: brute-force weight multisets for
tensor products, dense exact linear algebra over Fraction, permutation
search for graph matching.  These routes must stay separate from the
library code they check.  The one route that reuses library code is the
rank-of-powers Jordan type: it shares the elimination kernel, which is
checked against ``rank`` here, and differs from the library's degree
sweep in the algorithm.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from sl2cat.kernels import Echelon


# -- sl2 weight combinatorics -------------------------------------------------


def weight_multiset(m: int) -> dict[int, int]:
    """Weights of the simple module L(m): m, m-2, ..., -m, each once."""
    return {w: 1 for w in range(-m, m + 1, 2)}


def product_weights(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return out


def weights_to_simples(mults: dict[int, int]) -> dict[int, int]:
    """Peel highest weights: mult of L(w) = count(w) - count(w + 2)."""
    if not mults:
        return {}
    top = max(mults)
    out: dict[int, int] = {}
    for w in range(top, -1, -1):
        c = mults.get(w, 0) - mults.get(w + 2, 0)
        if c < 0:
            raise ValueError("not a genuine character")
        if c:
            out[w] = c
    return out


def brute_tensor(m: int, n: int) -> dict[int, int]:
    """L(m) (x) L(n) decomposed via weight multisets only."""
    return weights_to_simples(product_weights(weight_multiset(m), weight_multiset(n)))


# -- dense exact matrix helpers ----------------------------------------------


def mat_mul(a: list[list], b: list[list]) -> list[list]:
    k, m = len(b), len(b[0]) if b else 0
    assert all(len(row) == k for row in a)
    out = []
    for row in a:
        acc = [0] * m
        for x, b_row in zip(row, b):
            if x:  # row i of the product is the sum of a[i][t] times row t of b
                for j, y in enumerate(b_row):
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_add(a: list[list], b: list[list]) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: list[list]) -> list[list]:
    return [[c * x for x in row] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_poly(p, m: list[list]) -> list[list]:
    """Evaluate a coefficient vector (lowest degree first) at a square matrix."""
    n = len(m)
    acc = [[0] * n for _ in range(n)]
    for coeff in reversed(list(p)):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += coeff
    return acc


# -- exact rational linear algebra --------------------------------------------


def ldlt_positive_definite(a: list[list]) -> bool:
    """Symmetric part not assumed; runs LDL^T style pivoting on a copy."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return True


def leading_minors(a: list[list]) -> list[Fraction]:
    """Exact determinants of the leading principal submatrices, sizes 1..n."""
    out = []
    for k in range(1, len(a) + 1):
        out.append(_det([row[:k] for row in a[:k]]))
    return out


def _det(a: list[list]) -> Fraction:
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            if factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def rational_kernel(a: list[list]) -> list[list[Fraction]]:
    """Basis of the right kernel, by reduced row echelon form."""
    if not a:
        return []
    rows = [[Fraction(x) for x in row] for row in a]
    cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


def rank(a: list[list]) -> int:
    if not a:
        return 0
    return len(a[0]) - len(rational_kernel(a))


# -- Jordan type by ranks of powers -------------------------------------------


def jordan_partition_by_powers(n: int, lam) -> tuple[tuple[int, Fraction], ...]:
    """Jordan type of J_2(lam) (x) J_n(lam) from the ranks of powers of N.

    N is the nilpotent part of the Leibniz action, as a sparse 2n x 2n
    matrix on e_s (x) f_t at index s * n + t.  The number of blocks of
    size at least k is rank N^(k-1) - rank N^k.  Quadratic in n.
    """
    lam = Fraction(lam)
    size = 2 * n

    def idx(s: int, t: int) -> int:
        return s * n + t

    nil: dict[int, dict[int, int]] = {c: {} for c in range(size)}
    for s in range(2):
        for t in range(n):
            if t + 1 < n:
                nil[idx(s, t + 1)][idx(s, t)] = 1
            if s == 1:
                nil[idx(1, t)][idx(0, t)] = nil[idx(1, t)].get(idx(0, t), 0) + 1

    ranks = [size]
    power = {c: dict(col) for c, col in nil.items()}
    while ranks[-1] > 0:
        # the rank of a matrix is the rank of its set of columns
        ranks.append(Echelon(power.values()).rank)
        if ranks[-1] == 0:
            break
        nxt: dict[int, dict[int, int]] = {}
        for c in range(size):
            out: dict[int, int] = {}
            for mid, v in nil[c].items():
                for r, w in power.get(mid, {}).items():
                    out[r] = out.get(r, 0) + v * w
            nxt[c] = {r: v for r, v in out.items() if v}
        power = nxt
    blocks: list[tuple[int, Fraction]] = []
    for k in range(1, len(ranks)):
        at_least = ranks[k - 1] - ranks[k]
        longer = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
        blocks += [(k, lam)] * (at_least - longer)
    return tuple(sorted(blocks, reverse=True))


# -- naive graph matching ------------------------------------------------------


def digraph_isomorphic(a: list[list[int]], b: list[list[int]]) -> bool:
    """Directed multigraph isomorphism by full permutation search (small n)."""
    n = len(a)
    if len(b) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return True
    return False


def gcd_list(values: list[int]) -> int:
    out = 0
    for v in values:
        out = math.gcd(out, v)
    return out


# -- solver branch choice --------------------------------------------------------


def branch_key(lo: list, hi: list) -> int | None:
    """The open variable of smallest width, lowest id first, by a linear scan
    of every [lo[v], hi[v]] domain; None if all are pinned."""
    best, best_width = None, 0
    for v, (low, high) in enumerate(zip(lo, hi)):
        width = high - low
        if width and (best is None or width < best_width):
            best, best_width = v, width
    return best


# -- restriction relations on dense windows ----------------------------------------


def tensor_with_L1(values: list[int]) -> list[int]:
    """Multiplicities of L(m) in (sum_k values[k] L(k)) (x) L(1), m < len(values) - 1,
    each L(k) (x) L(1) expanded through weight multisets."""
    out = [0] * (len(values) + 1)
    for k, c in enumerate(values):
        for m, mult in brute_tensor(1, k).items():
            out[m] += c * mult
    return out[:len(values) - 1]


def first_failing_relation(f1: list[list[int]], characters: list[list[int]],
                           count: int) -> int | None:
    """The first column j < count whose relation fails on the window, or None.

    f1 is a dense window of the action matrix and characters[i] a dense
    window of object i's character.  Relation j says that characters[j]
    tensored with L(1) is the sum of f1[i][j] copies of characters[i] over
    the positive entries of column j; a column with no positive entry fails.
    Every column is compared on every index of the window but the last.
    """
    for j in range(count):
        positive = [(i, row[j]) for i, row in enumerate(f1) if row[j] > 0]
        lhs = tensor_with_L1(characters[j])
        rhs = [sum(v * characters[i][m] for i, v in positive) for m in range(len(lhs))]
        if not positive or lhs != rhs:
            return j
    return None


def window_equations(f1: list[list[int]], characters: list[list[int] | None], count: int,
                     unknown: int, size: int) -> list[tuple[list[int], int]]:
    """Every equation of relations 0..count-1 at indices 0..size-1, as (coefficients, rhs).

    The characters of objects 0..unknown-1 are unknowns on indices
    0..size-1, the coefficient of L(k) in object i at position
    k * unknown + i; the other objects read characters[i].  Relation j at
    index k is one equation, written unless it reads an unknown at an
    index past the window; the column entries keep their signs.
    """
    rows = []
    for j in range(count):
        for k in range(size):
            terms = [(j, src, 1) for src in (k - 1, k + 1) if src >= 0]
            terms += [(i, k, -row[j]) for i, row in enumerate(f1) if row[j]]
            if any(i < unknown and idx >= size for i, idx, _ in terms):
                continue
            coefficients, rhs = [0] * (unknown * size), 0
            for i, idx, sign in terms:
                if i < unknown:
                    coefficients[idx * unknown + i] += sign
                else:
                    rhs -= sign * characters[i][idx]
            rows.append((coefficients, rhs))
    return rows
