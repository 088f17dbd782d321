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

Each unknown multiplicity is an integer variable with an interval domain
in two flat lists.  The layout is stated once, in _fresh_state: the n-th
composition factor [F_a S_j : S_k] has variable 2n for its top and 2n + 1
for its socle multiplicity, and state.top maps (a, j, k) to 2n.  A rule is
data, a (run, args) pair applied as run(state, *args): run is _equal,
_bound_sum (every sum) or _semisimple, and args starts with the tuple of
variable ids it reads and ends with its identity as a compact spec, from
which the event dict is rendered only when a traced narrowing is recorded
or a violation reported.

Each identity is one rule: an adjunction pair is built once, when its
first factor is visited, and a simple module, whose top and socle are
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
and branches on the narrowest open variable, lowest id first, from a heap
that the trail keeps current (both as in MiniSat).  Depth is capped at MAX_DEPTH = 32 by
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
    """A rule's identity fails; ``event`` renders its spec only when read."""

    def __init__(self, spec: tuple):
        super().__init__(spec[0])
        self.spec = spec

    @property
    def event(self) -> dict:
        return {**_event(self.spec), "status": "violated"}


def _event(spec: tuple) -> dict:
    """The trace event of a rule's identity spec: its constraint, then fields.

    A spec with no fields (a branch, the witness pins) renders as the bare
    constraint.
    """
    constraint, *fields = spec
    if constraint == "length-one":
        a, j, k = fields
        return {"constraint": constraint, "degree": a, "object": j, "factor": k,
                "identity": f"F_{a} S_{j} is simple, equal to S_{k}"}
    if constraint == "adjunction":
        a, j, k, word = fields
        dual = "socle" if word == "top" else "top"
        return {"constraint": constraint, "degree": a, "object": j, "factor": k,
                "identity": f"[{word} F_{a} S_{j} : S_{k}] = [{dual} F_{a} S_{k} : S_{j}]"}
    if constraint == "end-dim":
        a, j, word, schur_dim = fields
        terms = " + ".join(f"[{word} F_{c} S_{j} : S_{j}]" for c in cg_support(a, a))
        return {"constraint": constraint, "degree": a, "object": j, "side": word,
                "identity": f"dim End(F_{a} S_{j}) = {terms} = {schur_dim}"}
    if constraint == "nonzero":
        a, j, word = fields
        return {"constraint": constraint, "degree": a, "object": j, "side": word,
                "identity": f"{word} of F_{a} S_{j} is nonzero"}
    if constraint == "covering":
        a, j, k, mult = fields
        return {"constraint": constraint, "degree": a, "object": j, "factor": k,
                "identity": f"[top F_{a} S_{j} : S_{k}] + [socle F_{a} S_{j} : S_{k}] >= {mult}"}
    if constraint == "semisimple-closure":
        a, j = fields
        return {"constraint": constraint, "degree": a, "object": j,
                "identity": (f"top of F_{a} S_{j} equals all factors iff socle does"
                             " (semisimplicity)")}
    return {"constraint": constraint}


class _State:
    """Interval domains on integer variables, a trail and an optional trace.

    Variable v has the domain [lo[v], hi[v]].  keys[v] is its factor
    (a, j, k), and top, the layout _fresh_state builds, maps each factor
    to its top variable; the socle variable is the next id.
    """

    def __init__(self, keys: list, lo: list, hi: list, trace: list | None, top: dict):
        self.keys, self.lo, self.hi, self.top = keys, lo, hi, top
        self.trace = trace
        self.trail: list[tuple] = []  # (v, old lo, old hi), undone by undo()

    def narrow(self, v: int, lo: int, hi: int, spec: tuple) -> None:
        old_lo, old_hi = self.lo[v], self.hi[v]
        if lo <= old_lo and hi >= old_hi:
            return
        self.trail.append((v, old_lo, old_hi))
        if lo < old_lo:
            lo = old_lo
        if hi > old_hi:
            hi = old_hi
        self.lo[v], self.hi[v] = lo, hi
        if lo > hi:
            raise _Violation(spec)
        if self.trace is not None:
            a, j, k = key = self.keys[v]
            name = f"[{'top' if self.top[key] == v else 'socle'} F_{a} S_{j} : S_{k}]"
            pinned = {"variable": name, "value": lo} if lo == hi \
                else {"variable": name, "range": [lo, hi]}
            self.trace.append({**_event(spec), "status": "established", "pinned": pinned})

    def undo(self, mark: int) -> None:
        lo, hi, trail = self.lo, self.hi, self.trail
        for v, old_lo, old_hi in reversed(trail[mark:]):
            lo[v], hi[v] = old_lo, old_hi
        del trail[mark:]

    def value(self, v: int) -> int | None:
        lo = self.lo[v]
        return lo if lo == self.hi[v] else None


def _equal(state: _State, ids: tuple, spec: tuple) -> None:
    """Narrow both variables of ids = (x, y) to the meet of their domains."""
    x, y = ids
    lo, hi = state.lo, state.hi
    if lo[x] != lo[y] or hi[x] != hi[y]:  # equal domains narrow nothing
        new_lo, new_hi = max(lo[x], lo[y]), min(hi[x], hi[y])
        state.narrow(x, new_lo, new_hi, spec)
        state.narrow(y, new_lo, new_hi, spec)


def _bound_sum(state: _State, ids: tuple, low: int, high: int | None, spec: tuple) -> None:
    """Narrow each variable so that low <= sum(ids) <= high (None: no upper bound)."""
    lows = [state.lo[v] for v in ids]
    highs = [state.hi[v] for v in ids]
    sum_lo, sum_hi = sum(lows), sum(highs)
    if high is None:
        high = sum_hi  # never binds
    if sum_lo > high or sum_hi < low:
        raise _Violation(spec)
    for v, lo, hi in zip(ids, lows, highs):
        state.narrow(v, low - (sum_hi - hi), high - (sum_lo - lo), spec)


def _semisimple(state: _State, ids: tuple, mults: tuple, length: int, spec: tuple) -> None:
    """Top is everything <=> semisimple <=> socle is everything, both ways and
    contrapositively; ids are the top variables of mults' factors, then the socle ones."""
    t_ids, s_ids = ids[:len(mults)], ids[len(mults):]
    lo, hi = state.lo, state.hi
    if sum(lo[v] for v in t_ids) == length:
        for v, mult in zip(s_ids, mults):
            state.narrow(v, mult, mult, spec)
    if sum(lo[v] for v in s_ids) == length:
        for v, mult in zip(t_ids, mults):
            state.narrow(v, mult, mult, spec)
    if any(hi[v] < mult for v, mult in zip(s_ids, mults)):
        _bound_sum(state, t_ids, 0, length - 1, spec)
    if any(hi[v] < mult for v, mult in zip(t_ids, mults)):
        _bound_sum(state, s_ids, 0, length - 1, spec)


def _watch_index(rules: list, count: int) -> list[list[int]]:
    """Variable -> ascending indices of the rules that read it."""
    watch: list[list[int]] = [[] for _ in range(count)]
    for idx, (_, args) in enumerate(rules):
        for v in args[0]:
            watch[v].append(idx)
    return watch


def _propagate(state: _State, rules: list, watch: list, seed) -> None:
    """Run rules to a fixpoint, re-running only those whose variables narrowed.

    A skipped rule reads only variables unchanged since a run of it that
    changed nothing, so it would change nothing again.
    """
    trail = state.trail
    current, later = bytearray(len(rules)), bytearray(len(rules))  # 1 = queued
    for r in seed:
        current[r] = 1
    idx = current.find(1)
    while idx >= 0:
        current[idx] = 0
        mark = len(trail)
        run, args = rules[idx]
        run(state, *args)
        for v, _, _ in trail[mark:]:
            for r in watch[v]:
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


def _witness_from(state: _State, comps: dict) -> list:
    """Top and socle factors of each F_a S_j with a >= 1, in variable order."""
    out = []
    for (a, j), comp in comps.items():
        if not a:
            continue
        top, soc = {}, {}
        for k in comp:
            v = state.top[(a, j, k)]
            t, s = state.value(v), state.value(v + 1)
            if t:
                top[str(k)] = t
            if s:
                soc[str(k)] = s
        out.append({"degree": a, "object": j, "top": top, "socle": soc})
    return out


def _fresh_state(comps: dict, trace: list | None) -> _State:
    """Degree 0 is the identity functor; F_a S_j for a >= 1 starts open.

    The n-th factor [F_a S_j : S_k] in comps order gets variable 2n =
    top[(a, j, k)] for its top multiplicity and 2n + 1 for its socle one.
    """
    keys, lo, hi, top = [], [], [], {}
    for (a, j), comp in comps.items():
        for k, mult in comp.items():
            floor = mult if a == 0 else 0
            key = (a, j, k)
            top[key] = len(keys)
            keys += (key, key)
            lo += (floor, floor)
            hi += (mult, mult)
    return _State(keys, lo, hi, trace, top)


def _build_rules(comps: dict, depth: int, schur_dim: int, state: _State) -> list:
    """The identities as (run, args) pairs in rule order; pins need no rule."""
    top = state.top
    rules = []
    # length-one modules are simple: top = socle = the single factor
    for (a, j), comp in comps.items():
        if a == 0 or sum(comp.values()) != 1:
            continue
        k = next(iter(comp))
        spec = ("length-one", a, j, k)
        state.narrow(top[(a, j, k)], 1, 1, spec)
        state.narrow(top[(a, j, k)] + 1, 1, 1, spec)

    # self-adjunction: [top F_a S_j : S_k] = [socle F_a S_k : S_j]
    # one rule per pair: built at (j, k) with j < k, or on the top side if j == k
    objects = _objects_of(comps)
    for a in range(1, depth + 1):
        for j in objects:
            for k in comps[(a, j)]:
                mirror = comps.get((a, k))
                if mirror is None:
                    continue
                v = top[(a, j, k)]
                if j not in mirror:  # no dual factor: both sides are zero
                    state.narrow(v, 0, 0, ("adjunction", a, j, k, "top"))
                    state.narrow(v + 1, 0, 0, ("adjunction", a, j, k, "socle"))
                elif j < k:
                    w = top[(a, k, j)]
                    rules.append((_equal, ((v, w + 1), ("adjunction", a, j, k, "top"))))
                    rules.append((_equal, ((v + 1, w), ("adjunction", a, j, k, "socle"))))
                elif j == k:
                    rules.append((_equal, ((v, v + 1), ("adjunction", a, j, k, "top"))))

    # endomorphism dimension of a simple image, written through adjunction:
    # dim End(F_a S_j) = sum over c in CG(a,a) of [socle F_c S_j : S_j]
    # and dually with tops
    for a in range(1, depth // 2 + 1):
        support = cg_support(a, a)
        for j in objects:
            if sum(comps[(a, j)].values()) != 1:
                continue
            for side, word in ((1, "socle"), (0, "top")):
                ids = tuple(top[(c, j, j)] + side for c in support if j in comps[(c, j)])
                rules.append((_bound_sum, (ids, schur_dim, schur_dim,
                                           ("end-dim", a, j, word, schur_dim))))

    for (a, j), comp in comps.items():
        if a == 0:
            continue
        length = sum(comp.values())
        t_ids = tuple(top[(a, j, k)] for k in comp)  # comp is ascending in k
        s_ids = tuple(v + 1 for v in t_ids)
        if 2 <= length <= 4:
            # nonzero module: nonzero top and socle (a simple one is pinned above)
            for ids, word in ((t_ids, "top"), (s_ids, "socle")):
                rules.append((_bound_sum, (ids, 1, None, ("nonzero", a, j, word))))
        if length == 2:
            # every factor of a length-two module lies in its top or socle
            for (k, mult), v in zip(comp.items(), t_ids):
                rules.append((_bound_sum, ((v, v + 1), mult, None, ("covering", a, j, k, mult))))
        if 2 <= length <= 4:
            rules.append((_semisimple, (t_ids + s_ids, tuple(comp.values()), length,
                                        ("semisimple-closure", a, j))))
    return rules


def _open_top(heap: list, lo: list, hi: list) -> int | None:
    """The open variable of smallest width, lowest id first; None if all pinned.

    Heap entries are (width, id); an entry whose width is no longer its
    variable's width is stale and is popped when it reaches the top.
    """
    while heap:
        width, v = heap[0]
        if hi[v] - lo[v] == width:
            return v
        heappop(heap)
    return None


_BRANCH = ("branch",)


def _search(state: _State, rules: list, watch: list, budget: int) -> bool:
    """Depth-first search from a fixpoint, leaving a solution in ``state``.

    Frames are [variable, next value, last value, trail mark].  The branch
    variable comes from a heap of the open ones (MiniSat's decision heap,
    Een and Sorensson 2003) that the trail keeps current: every variable
    that a branch narrows, or an undo widens again, is pushed with its new
    width.  False when exhausted; TimeoutError when the ``budget``-th
    branch is reached.
    """
    lo, hi, trail = state.lo, state.hi, state.trail
    heap = [(h - l, v) for v, (l, h) in enumerate(zip(lo, hi)) if l < h]
    heapify(heap)

    def push(changed: list) -> None:
        for v, _, _ in changed:
            if lo[v] < hi[v]:
                heappush(heap, (hi[v] - lo[v], v))

    stack: list[list] = []
    while True:
        v = _open_top(heap, lo, hi)
        if v is None:
            return True
        stack.append([v, lo[v], hi[v], len(trail)])
        while True:  # next value of the deepest frame that has one left
            if not stack:
                return False
            frame = stack[-1]
            v, value, last, mark = frame
            undone = trail[mark:]
            state.undo(mark)
            push(undone)
            if value > last:
                stack.pop()
                continue
            frame[1] = value + 1
            budget -= 1
            if budget <= 0:
                raise TimeoutError
            try:
                state.narrow(v, value, value, _BRANCH)
                _propagate(state, rules, watch, watch[v])
            except _Violation:
                continue
            push(trail[mark:])
            break


_WITNESS = ("witness",)


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
                for (a, j, k), v in state.top.items():
                    mult = comps[(a, j)][k]
                    state.narrow(v, mult, mult, _WITNESS)
                    state.narrow(v + 1, mult, mult, _WITNESS)
                for run, args in rules:
                    run(state, *args)
                witness = _witness_from(state, comps)
                return ObstructionReport("SAT", depth, schur_dim, witness, [{
                    "constraint": "semisimple-witness", "status": "established",
                    "identity": "the action matrix is symmetric; top = socle = all factors",
                }])
            except _Violation:  # fall through to the general engine
                state.undo(mark)
                state.trace = trace
        watch = _watch_index(rules, len(state.lo))
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
    return ObstructionReport("SAT", depth, schur_dim, _witness_from(state, comps), trace)
