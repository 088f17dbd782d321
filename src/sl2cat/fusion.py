"""The Grothendieck ring of finite dimensional sl2 modules, as the package uses it.

L(m) denotes the simple module of highest weight m >= 0 (dimension m + 1),
with the weights m, m - 2, ..., -m (weights(m)).  Tensor products decompose
by the Clebsch-Gordan rule

    L(m) (x) L(n)  =  L(|m - n|) (+) L(|m - n| + 2) (+) ... (+) L(m + n),

whose summands cg_support(m, n) lists.  These two functions are the only
place the rule is written out: the end-dim rule of obstruction and the
category O, Borel and restriction oracles of oracles all read them.

The ring is isomorphic to Z[x] under [L(1)] -> x.  The class [L(i)] maps
to the ultraspherical polynomial R_i (r_poly) given by the recurrence

    R_0 = 1,  R_1 = x,  R_i = x * R_{i-1} - R_{i-2}.

The same recurrence, L(1) (x) L(i-1) = L(i) (+) L(i-2), derives the action
of L(i) on a module category from that of L(1): action(F_1, i) returns
F_i = F_1 F_{i-1} - F_{i-2}, seeded with R_0(F_1) and R_1(F_1) by
poly_eval.  Each step is one fused product, F_1.mul(F_{i-1}, F_{i-2}),
that builds one matrix.  Each F_1 keeps one chain [F_0, F_1, ...] in an
lru_cache of 32 chains, so the first k matrices cost k products, and
asking again costs none.

All coefficients are arbitrary precision integers; no floating point is
used anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .presented import PresentedMatrix

__all__ = [
    "UltrasphericalPoly",
    "weights",
    "cg_support",
    "r_poly",
    "action",
]

#: Dense integer coefficient vector, lowest degree first.  () is the zero
#: polynomial; the last entry of a non-empty vector is non-zero.
UltrasphericalPoly = tuple[int, ...]


def weights(n: int) -> range:
    """The weights n, n - 2, ..., -n of L(n), each of multiplicity one."""
    if n < 0:
        raise ValueError(f"highest weight must be >= 0, got {n}")
    return range(n, -n - 1, -2)


def cg_support(m: int, n: int) -> range:
    """Highest weights |m - n|, |m - n| + 2, ..., m + n of the summands of L(m) (x) L(n).

    Each summand occurs once.
    """
    if m < 0 or n < 0:
        raise ValueError(f"highest weights must be >= 0, got {m} and {n}")
    return range(abs(m - n), m + n + 1, 2)


def r_poly(i: int) -> UltrasphericalPoly:
    """Coefficients of R_i, the image of [L(i)] in Z[x]."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    prev: list[int] = [1]
    if i == 0:
        return (1,)
    cur: list[int] = [0, 1]
    for _ in range(i - 1):
        shifted = [0] + cur
        nxt = [s - p for s, p in zip(shifted, list(prev) + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    return tuple(cur)


@lru_cache(maxsize=32)
def _chain(f1: PresentedMatrix) -> list[PresentedMatrix]:
    """[F_0, F_1, ...] so far.  A chain holds every F_i asked for, so the bound is
    on chains: a session reads a few models, and each classify certificate one template."""
    return [f1.poly_eval(r_poly(0)), f1.poly_eval(r_poly(1))]


def action(f1: PresentedMatrix, i: int) -> PresentedMatrix:
    """F_i = R_i(F_1): tensoring with L(i); the one derivation, cached for every caller."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    chain = _chain(f1)
    while len(chain) <= i:
        chain.append(f1.mul(chain[-1], chain[-2]))
    return chain[i]
