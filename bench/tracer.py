"""Spans around sl2cat's public functions, installed from outside the package.

``install()`` wraps every public function defined in each sl2cat module,
the ``PresentedMatrix`` methods named in ``_METHODS`` and ``cli.main``.
Modules that imported a function by name (``modcat`` takes ``classify``
and ``solve_feasibility``; ``modcat``, ``obstruction`` and ``dynkin`` take
``r_poly``) get the wrapper too, because every ``sl2cat.*`` attribute that
is the same object is rebound.  Private helpers are never wrapped, so
their renames and merges leave the trace unchanged.

Spans are kept in memory as ``[name, start, end, parent, op]`` and
written out by the worker when its ops are done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("presented", "fusion", "dynkin", "obstruction", "modcat", "oracles", "cli")
_METHODS = ("mul", "add", "scale", "poly_eval", "apply", "transpose", "truncate",
            "to_json_dict", "from_json_dict")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.op = -1
        self.max_head = 0
        self.max_band = 0
        self.trace_events = 0
        self.unknowns = 0
        self.matrix_dim = 0
        self.seen: dict[str, set] = {"presented.poly_eval": set(), "modcat.derive_action": set()}
        self.repeats = {name: 0 for name in self.seen}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """fn with a span named name; after(arguments, result) records counters."""
        self.names.append(name)
        name_id = len(self.names) - 1
        clock, spans, stack = time.perf_counter, self.spans, self._stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                after(call.arguments, result)
            return result

        return traced

    # -- counters recorded after a call returns --------------------------------

    def _repeat(self, name: str, key) -> None:
        if key in self.seen[name]:
            self.repeats[name] += 1
        else:
            self.seen[name].add(key)

    def after_mul(self, arguments, result) -> None:
        self.max_head = max(self.max_head, result.head_size)
        self.max_band = max(self.max_band, result.band)

    def after_poly_eval(self, arguments, result) -> None:
        self._repeat("presented.poly_eval", (arguments["self"], tuple(arguments["coeffs"])))

    def after_derive_action(self, arguments, result) -> None:
        self._repeat("modcat.derive_action", (arguments["m"].f1, arguments["i"]))

    def after_solve_feasibility(self, arguments, result) -> None:
        self.trace_events += len(result.trace)

    def after_restrictions(self, arguments, result) -> None:
        if arguments["system"] == "dinf":
            # unknown characters times the T+1 weights of the window
            per_weight = 2 if arguments["assume_restrictions"] else 7
            self.unknowns = max(self.unknowns, per_weight * (arguments["truncation"] + 1))

    def after_jordan(self, arguments, result) -> None:
        self.matrix_dim = max(self.matrix_dim, 2 * arguments["n"])

    def counters(self) -> dict:
        return {"presented.mul.max_head": self.max_head,
                "presented.mul.max_band": self.max_band,
                "obstruction.trace_events": self.trace_events,
                "oracles.restrictions.unknowns": self.unknowns,
                "oracles.jordan.matrix_dim": self.matrix_dim,
                **{f"{name}.repeats": n for name, n in self.repeats.items()}}


def install() -> Tracer:
    """Wrap sl2cat's public functions in place and return the tracer."""
    tracer = Tracer()
    after = {
        "presented.mul": tracer.after_mul,
        "presented.poly_eval": tracer.after_poly_eval,
        "modcat.derive_action": tracer.after_derive_action,
        "obstruction.solve_feasibility": tracer.after_solve_feasibility,
        "oracles.restriction_consistency_solve": tracer.after_restrictions,
        "oracles.jordan_kronecker_oracle": tracer.after_jordan,
    }
    modules = [sys.modules[f"sl2cat.{m}"] for m in MODULES]
    replaced = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                    and (short != "cli" or attr == "main")):
                name = f"{short}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, after.get(name))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    matrix = sys.modules["sl2cat.presented"].PresentedMatrix
    for attr in _METHODS:
        raw = inspect.getattr_static(matrix, attr)
        name = f"presented.{attr}"
        if isinstance(raw, staticmethod):
            setattr(matrix, attr, staticmethod(tracer.wrap(name, raw.__func__, after.get(name))))
        else:
            setattr(matrix, attr, tracer.wrap(name, raw, after.get(name)))
    return tracer
