"""Feasibility of top/socle assignments for derived action functors.

Given a module-category model by its projectives-basis action matrix,
the simples-basis matrices R_a fix the composition factors of every
F_a(S_j).  Over an algebraically closed field any actual categorification
must satisfy:

  * self-adjunction: [top F_a S_j : S_k] = [socle F_a S_k : S_j];
  * if F_a S_j is simple, dim End(F_a S_j) = 1, and adjunction rewrites
    that endomorphism dimension as a sum of socle (dually, top)
    multiplicities over the Clebsch-Gordan components of F_a o F_a;
  * a nonzero module has nonzero top and socle; in a length-two module
    every composition factor sits in the top or the socle;
  * a module whose top (or socle) is everything is semisimple, so the
    other side is everything as well (applied up to length four).

Each identity is one rule: an adjunction pair is built once, when its
first key is visited, and a simple module, whose top and socle are
pinned before any rule exists, gets no nonzero rule.  One setup serves
both answers.  On a symmetric F_1 the semisimple witness (top = socle =
all factors) is pinned untraced and every rule runs once on it; if one
fails, the pins are undone and the same state and rules go on.

The solver propagates these identities to a fixpoint, then finishes with
a small backtracking search.  It reports SAT with a witness assignment,
UNSAT with an event trace ending in the violated identity, or unknown
when the node budget runs out.  Composition lengths above four are left
structurally unconstrained, so an UNSAT answer is always sound.

Propagation is event driven (AC-3, Mackworth 1977): a rule runs again only
after a variable it reads narrows, in the current sweep if it comes later
in rule order and in the next sweep otherwise, so the events are those of
repeated full sweeps in rule order.  Narrowings go on a trail, and the
iterative depth-first search undoes a failed branch by popping the trail
and branches on the narrowest open key from a heap that the trail keeps
current (both as in MiniSat).  Depth is capped at MAX_DEPTH = 32 by
default; the node budget (100,000 branches by default) turns an exhausted
search into "unknown".
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush

from .fusion import action, cg_support
from .presented import PresentedMatrix

__all__ = ["MAX_DEPTH", "ObstructionReport", "PreconditionFailed", "solve_feasibility"]

MAX_DEPTH = 32  # the default depth cap of the exhaustive search


class PreconditionFailed(ValueError):
    """A required hypothesis (basis, categorifiability, transitivity) fails.

    The model given is at fault, not the solver, so this is invalid input
    (a ValueError; the CLI exits 3 on it).
    """


class ObstructionReport(namedtuple("ObstructionReport", "status depth schur_dim witness trace")):
    """Status ("SAT", "UNSAT" or "unknown"), bounds, witness (or None) and trace."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "depth": self.depth,
            "schur_dim": self.schur_dim,
            "witness": self.witness,
            "trace": self.trace,
        }


class _Violation(Exception):
    def __init__(self, event: dict):
        super().__init__(event.get("identity", "violation"))
        self.event = event


def _var_name(key: tuple) -> str:
    side, a, j, k = key
    word = "top" if side == "t" else "socle"
    return f"[{word} F_{a} S_{j} : S_{k}]"


class _State:
    """Interval domains, a trail of narrowings and an optional event trace."""

    def __init__(self, domains: dict, trace: list | None):
        self.domains = domains
        self.trace = trace
        self.trail: list[tuple] = []  # (key, old lo, old hi), undone by undo()

    def narrow(self, key: tuple, lo: int, hi: int, event: dict) -> None:
        cur = self.domains[key]
        new_lo, new_hi = max(cur[0], lo), min(cur[1], hi)
        if (new_lo, new_hi) == (cur[0], cur[1]):
            return
        self.trail.append((key, cur[0], cur[1]))
        cur[0], cur[1] = new_lo, new_hi
        if new_lo > new_hi:
            raise _Violation({**event, "status": "violated"})
        if self.trace is not None:
            pinned = {"variable": _var_name(key), "value": new_lo} if new_lo == new_hi \
                else {"variable": _var_name(key), "range": [new_lo, new_hi]}
            self.trace.append({**event, "status": "established", "pinned": pinned})

    def undo(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            key, lo, hi = trail.pop()
            self.domains[key][:] = lo, hi

    def value(self, key: tuple) -> int | None:
        lo, hi = self.domains[key]
        return lo if lo == hi else None


def _rule_equal(x: tuple, y: tuple, event: dict):
    def run(state: _State) -> None:
        dx, dy = state.domains[x], state.domains[y]
        lo, hi = max(dx[0], dy[0]), min(dx[1], dy[1])
        state.narrow(x, lo, hi, event)
        state.narrow(y, lo, hi, event)
    run.keys = (x, y)
    return run


def _bound_sum(state: _State, keys: list, low: int, high: int | None, event: dict) -> None:
    """Narrow each key so that low <= sum(keys) <= high (None: no upper bound)."""
    lows = [state.domains[k][0] for k in keys]
    highs = [state.domains[k][1] for k in keys]
    sum_lo, sum_hi = sum(lows), sum(highs)
    if high is None:
        high = sum_hi  # never binds
    if sum_lo > high or sum_hi < low:
        raise _Violation({**event, "status": "violated"})
    for key, lo, hi in zip(keys, lows, highs):
        state.narrow(key, low - (sum_hi - hi), high - (sum_lo - lo), event)


def _rule_sum(keys: list, low: int, high: int | None, event: dict):
    def run(state: _State) -> None:
        _bound_sum(state, keys, low, high, event)
    run.keys = tuple(keys)
    return run


def _rule_semisimple(t_keys: list, s_keys: list, comp: dict, order: list, length: int, event: dict):
    # top equals everything <=> the module is semisimple <=> socle equals
    # everything; propagated in both directions, including the contrapositive
    def run(state: _State) -> None:
        t_lo = sum(state.domains[k][0] for k in t_keys)
        s_lo = sum(state.domains[k][0] for k in s_keys)
        if t_lo == length:
            for k, kk in zip(s_keys, order):
                state.narrow(k, comp[kk], comp[kk], event)
        if s_lo == length:
            for k, kk in zip(t_keys, order):
                state.narrow(k, comp[kk], comp[kk], event)
        if any(state.domains[k][1] < comp[kk] for k, kk in zip(s_keys, order)):
            _bound_sum(state, t_keys, 0, length - 1, event)
        if any(state.domains[k][1] < comp[kk] for k, kk in zip(t_keys, order)):
            _bound_sum(state, s_keys, 0, length - 1, event)
    run.keys = (*t_keys, *s_keys)
    return run


def _watch_index(rules: list, keys) -> dict:
    """key -> ascending indices of the rules that read it."""
    watch = {key: [] for key in keys}
    for idx, rule in enumerate(rules):
        for key in rule.keys:
            watch[key].append(idx)
    return watch


def _propagate(state: _State, rules: list, watch: dict, seed) -> None:
    """Run rules to a fixpoint, re-running only those whose keys narrowed.

    A skipped rule reads only keys unchanged since a run of it that changed
    nothing, so it would change nothing again.
    """
    trail = state.trail
    current, later = bytearray(len(rules)), bytearray(len(rules))  # 1 = queued
    for r in seed:
        current[r] = 1
    idx = current.find(1)
    while idx >= 0:
        current[idx] = 0
        mark = len(trail)
        rules[idx](state)
        for key, _, _ in trail[mark:]:
            for r in watch[key]:
                if r > idx:
                    current[r] = 1
                else:
                    later[r] = 1
        idx = current.find(1, idx + 1)
        if idx < 0:  # sweep done; current is all zero
            current, later = later, current
            idx = current.find(1)


def _object_window(f1: PresentedMatrix, depth: int) -> list[int]:
    if f1.index.kind == "int":
        return list(range(-depth, depth + 1))
    if f1.index.kind == "finite":
        return list(range(min(depth + 1, f1.index.size)))
    return list(range(depth + 1))


def _compositions(f1: PresentedMatrix, depth: int) -> dict:
    # [F_a S_j : S_i] is entry (i, j) of R_a(F_1^T) = R_a(F_1)^T, i.e. row j of F_a
    comps: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(depth + 1):
        mat = action(f1, a)
        for j in _object_window(f1, depth):
            col = {}  # ascending factors: rule order and search ties ignore storage order
            for i, v in sorted(mat.row_entries(j)):
                if v < 0:
                    raise PreconditionFailed(
                        f"composition multiplicity [F_{a} S_{j} : S_{i}] = {v} is negative"
                    )
                if v:
                    col[i] = v
            comps[(a, j)] = col
    return comps


def _objects_of(comps: dict) -> list[int]:
    return sorted({j for _, j in comps})


def _witness_from(state: _State, comps: dict, depth: int) -> list:
    out = []
    for a in range(1, depth + 1):
        for j in _objects_of(comps):
            comp = comps[(a, j)]
            top = {str(k): state.value(("t", a, j, k)) for k in sorted(comp)}
            soc = {str(k): state.value(("s", a, j, k)) for k in sorted(comp)}
            out.append({"degree": a, "object": j,
                        "top": {k: v for k, v in top.items() if v},
                        "socle": {k: v for k, v in soc.items() if v}})
    return out


def _fresh_state(comps: dict, trace: list | None) -> _State:
    """Degree 0 is the identity functor; F_a S_j for a >= 1 starts open."""
    domains = {}
    for (a, j), comp in comps.items():
        for k, mult in comp.items():
            if a == 0:
                domains[("t", a, j, k)] = [mult, mult]
                domains[("s", a, j, k)] = [mult, mult]
            else:
                domains[("t", a, j, k)] = [0, mult]
                domains[("s", a, j, k)] = [0, mult]
    return _State(domains, trace)


def _build_rules(comps: dict, depth: int, schur_dim: int, state: _State) -> list:
    rules = []
    # length-one modules are simple: top = socle = the single factor
    for (a, j), comp in comps.items():
        if a == 0 or sum(comp.values()) != 1:
            continue
        k = next(iter(comp))
        event = {
            "constraint": "length-one", "degree": a, "object": j, "factor": k,
            "identity": f"F_{a} S_{j} is simple, equal to S_{k}",
        }
        state.narrow(("t", a, j, k), 1, 1, event)
        state.narrow(("s", a, j, k), 1, 1, event)

    # self-adjunction: [top F_a S_j : S_k] = [socle F_a S_k : S_j]
    objects = _objects_of(comps)
    for a in range(1, depth + 1):
        for j in objects:
            comp = comps[(a, j)]
            for k in comp:
                if (a, k) not in comps:
                    continue
                mirror = comps[(a, k)]
                for side, word, dual, dual_word in (("t", "top", "s", "socle"),
                                                    ("s", "socle", "t", "top")):
                    if j in mirror and (k < j or (k == j and side == "s")):
                        continue  # one rule per pair: built at (k, j) or on the top side
                    event = {
                        "constraint": "adjunction", "degree": a, "object": j, "factor": k,
                        "identity": (f"[{word} F_{a} S_{j} : S_{k}]"
                                     f" = [{dual_word} F_{a} S_{k} : S_{j}]"),
                    }
                    if j in mirror:
                        rules.append(_rule_equal((side, a, j, k), (dual, a, k, j), event))
                    else:
                        state.narrow((side, a, j, k), 0, 0, event)

    # endomorphism dimension of a simple image, written through adjunction:
    # dim End(F_a S_j) = sum over c in CG(a,a) of [socle F_c S_j : S_j]
    # and dually with tops
    for a in range(1, depth + 1):
        if 2 * a > depth:
            continue
        for j in objects:
            comp = comps[(a, j)]
            if sum(comp.values()) != 1:
                continue
            support = cg_support(a, a)
            for side, word in (("s", "socle"), ("t", "top")):
                keys = [(side, c, j, j) for c in support if j in comps[(c, j)]]
                terms = " + ".join(f"[{word} F_{c} S_{j} : S_{j}]" for c in support)
                event = {
                    "constraint": "end-dim", "degree": a, "object": j, "side": word,
                    "identity": f"dim End(F_{a} S_{j}) = {terms} = {schur_dim}",
                }
                rules.append(_rule_sum(keys, schur_dim, schur_dim, event))

    for (a, j), comp in comps.items():
        if a == 0:
            continue
        length = sum(comp.values())
        t_keys = [("t", a, j, k) for k in sorted(comp)]
        s_keys = [("s", a, j, k) for k in sorted(comp)]
        if 2 <= length <= 4:
            # nonzero module: nonzero top and socle (a simple one is pinned above)
            for keys, word in ((t_keys, "top"), (s_keys, "socle")):
                event = {
                    "constraint": "nonzero", "degree": a, "object": j, "side": word,
                    "identity": f"{word} of F_{a} S_{j} is nonzero",
                }
                rules.append(_rule_sum(keys, 1, None, event))
        if length == 2:
            # every factor of a length-two module lies in its top or socle
            for k in comp:
                event = {
                    "constraint": "covering", "degree": a, "object": j, "factor": k,
                    "identity": (f"[top F_{a} S_{j} : S_{k}] + [socle F_{a} S_{j} : S_{k}]"
                                 f" >= {comp[k]}"),
                }
                rules.append(_rule_sum([("t", a, j, k), ("s", a, j, k)], comp[k], None, event))
        if 2 <= length <= 4:
            order = sorted(comp)
            event = {
                "constraint": "semisimple-closure", "degree": a, "object": j,
                "identity": (f"top of F_{a} S_{j} equals all factors iff socle does"
                             " (semisimplicity)"),
            }
            rules.append(_rule_semisimple(t_keys, s_keys, comp, order, length, event))
    return rules


def _open_top(heap: list, domains: dict, keys: list) -> tuple | None:
    """The open key of smallest width, first in dict order; None if all pinned.

    Heap entries are (width, dict position); an entry whose width is no
    longer its key's width is stale and is popped when it reaches the top.
    """
    while heap:
        width, pos = heap[0]
        lo, hi = domains[keys[pos]]
        if hi - lo == width:
            return keys[pos]
        heappop(heap)
    return None


def _search(state: _State, rules: list, watch: dict, budget: int) -> bool:
    """Depth-first search from a fixpoint, leaving a solution in ``state``.

    Frames are [key, next value, last value, trail mark].  The branch key
    comes from a heap of the open keys (MiniSat's decision heap, Een and
    Sorensson 2003) that the trail keeps current: every key that a branch
    narrows, or an undo widens again, is pushed with its new width.  False
    when exhausted; TimeoutError when the ``budget``-th branch is reached.
    """
    domains, trail = state.domains, state.trail
    keys = list(domains)
    position = {key: pos for pos, key in enumerate(keys)}
    heap = [(hi - lo, pos) for pos, (lo, hi) in enumerate(domains.values()) if lo < hi]
    heapify(heap)

    def push(changed: list) -> None:
        for key, _, _ in changed:
            lo, hi = domains[key]
            if lo < hi:
                heappush(heap, (hi - lo, position[key]))

    stack: list[list] = []
    while True:
        key = _open_top(heap, domains, keys)
        if key is None:
            return True
        lo, hi = domains[key]
        stack.append([key, lo, hi, len(trail)])
        while True:  # next value of the deepest frame that has one left
            if not stack:
                return False
            frame = stack[-1]
            key, value, hi, mark = frame
            undone = trail[mark:]
            state.undo(mark)
            push(undone)
            if value > hi:
                stack.pop()
                continue
            frame[1] = value + 1
            budget -= 1
            if budget <= 0:
                raise TimeoutError
            try:
                state.narrow(key, value, value, {"constraint": "branch"})
                _propagate(state, rules, watch, watch[key])
            except _Violation:
                continue
            push(trail[mark:])
            break


def solve_feasibility(f1: PresentedMatrix, depth: int, schur_dim: int = 1,
                      node_budget: int = 100_000, max_depth: int = MAX_DEPTH) -> ObstructionReport:
    """Run the constraint solver on a projectives-basis action matrix."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if schur_dim < 1:
        raise ValueError("schur_dim must be >= 1")
    if depth > max_depth:
        raise ValueError(f"depth {depth} exceeds the exhaustive-search cap {max_depth}")
    comps = _compositions(f1, depth)
    trace: list[dict] = []
    state = _fresh_state(comps, trace)
    try:
        rules = _build_rules(comps, depth, schur_dim, state)
        if f1.is_symmetric():
            # semisimple witness: top = socle = all composition factors, pinned
            # untraced; every variable is pinned, so one run of each rule decides
            mark, state.trace = len(state.trail), None
            try:
                for (a, j), comp in comps.items():
                    for k, mult in comp.items():
                        state.narrow(("t", a, j, k), mult, mult, {"constraint": "witness"})
                        state.narrow(("s", a, j, k), mult, mult, {"constraint": "witness"})
                for rule in rules:
                    rule(state)
                witness = _witness_from(state, comps, depth)
                return ObstructionReport("SAT", depth, schur_dim, witness, [{
                    "constraint": "semisimple-witness", "status": "established",
                    "identity": "the action matrix is symmetric; top = socle = all factors",
                }])
            except _Violation:  # fall through to the general engine
                state.undo(mark)
                state.trace = trace
        watch = _watch_index(rules, state.domains)
        _propagate(state, rules, watch, range(len(rules)))
    except _Violation as exc:
        return ObstructionReport("UNSAT", depth, schur_dim, None, trace + [exc.event])
    state.trace = None  # branch narrowings are not reported
    try:
        found = _search(state, rules, watch, node_budget)
    except TimeoutError:
        trace.append({"constraint": "search", "status": "exhausted-budget",
                      "identity": f"node budget {node_budget} reached"})
        return ObstructionReport("unknown", depth, schur_dim, None, trace)
    if not found:
        trace.append({"constraint": "search", "status": "violated",
                      "identity": "no assignment survives exhaustive search"})
        return ObstructionReport("UNSAT", depth, schur_dim, None, trace)
    return ObstructionReport("SAT", depth, schur_dim,
                             _witness_from(state, comps, depth), trace)
