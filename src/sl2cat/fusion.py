"""Exact arithmetic in the split Grothendieck ring of finite dimensional sl2 modules.

L(m) denotes the simple module of highest weight m >= 0 (dimension m + 1),
with the weights m, m - 2, ..., -m (weights(m)).  Tensor products decompose
by the Clebsch-Gordan rule

    L(m) (x) L(n)  =  L(|m - n|) (+) L(|m - n| + 2) (+) ... (+) L(m + n),

whose summands cg_support(m, n) lists.  These two functions are the only
place the rule is written out: tensor here, the end-dim rule of
obstruction and the category O, Borel and restriction oracles of oracles
all read them.

The ring is isomorphic to Z[x] under [L(1)] -> x.  The class [L(i)] maps
to the ultraspherical polynomial R_i given by the recurrence

    R_0 = 1,  R_1 = x,  R_i = x * R_{i-1} - R_{i-2}.

The same recurrence, L(1) (x) L(i-1) = L(i) (+) L(i-2), derives the action
of L(i) on a module category from that of L(1): action(F_1, i) returns
F_i = F_1 F_{i-1} - F_{i-2}, seeded with R_0(F_1) and R_1(F_1) by
poly_eval.  Each F_1 keeps one chain [F_0, F_1, ...] in a bounded LRU, so
the first k matrices cost k products, and asking again costs none.

All coefficients are arbitrary precision integers and may be negative
(virtual classes); no floating point is used anywhere.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Mapping

from .presented import PresentedMatrix

__all__ = [
    "SimpleIndex",
    "UltrasphericalPoly",
    "FusionElement",
    "simple",
    "weights",
    "cg_support",
    "r_poly",
    "action",
    "poly_eval_int",
    "tensor",
    "fusion_to_poly",
    "poly_to_fusion",
    "dim",
]

#: Index of a simple module: the highest weight, a non-negative integer.
SimpleIndex = int

#: Dense integer coefficient vector, lowest degree first.  () is the zero
#: polynomial; the last entry of a non-empty vector is non-zero.
UltrasphericalPoly = tuple[int, ...]


class FusionElement:
    """An integer linear combination of simple classes [L(i)].

    Immutable.  Zero coefficients are never stored, so equality and hashing
    are structural on the canonical support.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for index, value in items:
            if type(index) is not int or type(value) is not int:
                raise TypeError(f"indices and coefficients must be int, got {index!r}: {value!r}")
            if index < 0:
                raise ValueError(f"simple index must be >= 0, got {index}")
            if value != 0:
                clean[index] = clean.get(index, 0) + value
                if clean[index] == 0:
                    del clean[index]
        self._coeffs = clean

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FusionElement) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"FusionElement({dict(sorted(self._coeffs.items()))!r})"


def simple(m: int) -> FusionElement:
    """The class of the simple module [L(m)], m >= 0."""
    if m < 0:
        raise ValueError(f"highest weight must be >= 0, got {m}")
    return FusionElement({m: 1})


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


def tensor(a: FusionElement, b: FusionElement) -> FusionElement:
    """Product in the fusion ring, extended bilinearly over Clebsch-Gordan."""
    out: dict[int, int] = {}
    for m, cm in a._coeffs.items():
        for n, cn in b._coeffs.items():
            coeff = cm * cn
            for weight in cg_support(m, n):
                out[weight] = out.get(weight, 0) + coeff
    return FusionElement(out)


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


#: F_1 -> [F_0, F_1, ...], least recently used first.  A chain holds every
#: F_i asked for so far, so the bound is on chains: a session reads a few
#: models, and each classify certificate one template.
_CHAINS: OrderedDict[PresentedMatrix, list[PresentedMatrix]] = OrderedDict()
_CHAIN_LIMIT = 32


def action(f1: PresentedMatrix, i: int) -> PresentedMatrix:
    """F_i = R_i(F_1): tensoring with L(i); the one derivation, cached for every caller."""
    if i < 0:
        raise ValueError(f"index must be >= 0, got {i}")
    chain = _CHAINS.pop(f1, None)
    if chain is None:
        chain = [f1.poly_eval(r_poly(0)), f1.poly_eval(r_poly(1))]
    _CHAINS[f1] = chain
    if len(_CHAINS) > _CHAIN_LIMIT:
        _CHAINS.popitem(last=False)
    while len(chain) <= i:
        chain.append(f1.mul(chain[-1]).add(chain[-2].scale(-1)))
    return chain[i]


def poly_eval_int(p: Iterable[int], x: int) -> int:
    """Evaluate a coefficient vector at an integer point, by Horner."""
    result = 0
    for coeff in reversed(list(p)):
        result = result * x + coeff
    return result


def fusion_to_poly(a: FusionElement) -> UltrasphericalPoly:
    """Image of a fusion class in Z[x]: sum of coeff * R_i."""
    acc: list[int] = []
    for index, value in a.items():
        ri = r_poly(index)
        if len(ri) > len(acc):
            acc.extend([0] * (len(ri) - len(acc)))
        for pos, c in enumerate(ri):
            acc[pos] += value * c
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def poly_to_fusion(p: Iterable[int]) -> FusionElement:
    """Rewrite an integer polynomial in the basis {R_i}.

    Each R_i is monic of degree i, so repeated leading-term elimination
    terminates and is exact.
    """
    work = list(p)
    while work and work[-1] == 0:
        work.pop()
    coeffs: dict[int, int] = {}
    while work:
        degree = len(work) - 1
        lead = work[-1]
        coeffs[degree] = lead
        ri = r_poly(degree)
        for pos, c in enumerate(ri):
            work[pos] -= lead * c
        while work and work[-1] == 0:
            work.pop()
    return FusionElement(coeffs)


def dim(a: FusionElement) -> int:
    """Dimension homomorphism: [L(i)] -> i + 1, i.e. evaluation at x = 2."""
    return sum(value * (index + 1) for index, value in a.items())
