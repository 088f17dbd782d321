"""Command line surface: classification, derivation, catalog verification,
oracle runs, and DOT rendering.

Every data-reporting subcommand takes ``--json`` for machine-readable
output (schemas ship under ``sl2cat/schemas/``); all numbers are exact,
with rationals rendered as ``p/q`` strings.  Exit codes: 0 success,
2 usage error, 3 invalid input, 4 verification mismatch.

``main`` is the one error boundary.  Every invalid input is a
``ValueError`` (``GCMError``, ``PresentationError``, ``NotInCatalog``,
``PreconditionFailed`` and ``CliError`` among them): it prints
``error: ...`` on stderr and exits 3.  ``UsageError`` and argparse exit 2,
and a verification mismatch exits 4.  A ``RuntimeError`` is an internal
failure, such as a self-check that did not hold, and surfaces as a
traceback.  A handler catches a library exception only to add context to
its message.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from pathlib import Path

from . import __version__, modcat, oracles
from .dynkin import Classification, classify, classify_components, graph_of
from .modcat import ModuleCategoryModel
from .oracles import NamedOObject, SlCharacter
from .presented import PresentationError, PresentedMatrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_MISMATCH = 4


class CliError(ValueError):
    """Invalid input the user can fix; reported on stderr with exit code 3."""


class UsageError(Exception):
    """Inconsistent flag combination; reported on stderr with exit code 2."""


# -- input loading ---------------------------------------------------------------


def _print_json(doc) -> None:
    """Print doc as ``json.dumps`` writes it with a two-space indent and
    sorted keys, plus a newline.  With an indent, ``json.dumps`` takes its
    pure-Python encoder, so this writes the same bytes directly.  A key that
    is not a ``str``, a record, and a leaf json cannot encode raise ``TypeError``."""
    print(_json_text(doc, ""))


def _json_text(obj, pad: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)  # bool, None, float; anything else raises TypeError
    if hasattr(obj, "_fields"):
        raise TypeError(f"a {type(obj).__name__} record is not a JSON value")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join(f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                        for k, v in sorted(obj.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    if set(map(type, obj)) == {int}:
        body = sep.join(map(int.__repr__, obj))
    else:
        body = _int_rows(obj, inner)
        if body is None:
            body = sep.join(_json_text(x, inner) for x in obj)
    return f"[\n{inner}{body}\n{pad}]"


def _int_rows(rows, pad: str) -> str | None:
    """The items of a list of equal-length rows of exact ints, all through one
    ``%d`` row template; None for any other list.  These rows (head entries
    and dense windows) are almost all of the bytes of ``derive --json``."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return None
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None  # empty rows, or a bool, float or other leaf in a row
    inner = pad + "  "
    row = f"[\n{inner}" + f",\n{inner}".join(["%d"] * len(rows[0])) + f"\n{pad}]"
    return f",\n{pad}".join([row] * len(rows)) % flat


def _load_json_file(path: str):
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def _load_gcm(path: str) -> PresentedMatrix:
    doc = _load_json_file(path)
    try:
        return PresentedMatrix.from_json_dict(doc)
    except PresentationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_model(spec: str) -> ModuleCategoryModel:
    """Resolve a catalog name, or load a model/matrix JSON document."""
    if spec in modcat.catalog_names():
        return modcat.catalog(spec)
    if not Path(spec).exists():
        names = ", ".join(modcat.catalog_names())
        raise CliError(f"{spec!r} is neither a catalog model ({names}) nor a file")
    doc = _load_json_file(spec)
    try:
        return ModuleCategoryModel.from_json(doc, name=Path(spec).stem,
                                             provenance=f"loaded from {spec}")
    except ValueError as exc:  # PresentationError included
        raise CliError(f"{spec}: {exc}") from exc


def _with_basis(m: ModuleCategoryModel, basis: str | None) -> ModuleCategoryModel:
    if basis is None or basis == m.basis:
        return m
    if basis == "simples":
        return modcat.to_simples_basis(m)
    raise CliError(f"cannot convert a {m.basis}-basis model to the {basis} basis")


# -- formatting ---------------------------------------------------------------------


def _signed(d: int) -> str:
    return f"+{d}" if d > 0 else str(d)


def _affine_expr(a: int, b: int, var: str = "i") -> str:
    if a == 0:
        return str(b)
    term = {1: var, -1: f"-{var}"}.get(a, f"{a}{var}")
    if b == 0:
        return term
    return f"{term} + {b}" if b > 0 else f"{term} - {-b}"


def _format_matrix(mat: PresentedMatrix) -> str:
    if mat.index.kind == "finite":
        return f"dense {mat.truncate(mat.index.size)}"
    tail = ", ".join(f"{_signed(d)}: {v}" for d, v in sorted(mat.diagonals().items()))
    if mat.index.kind == "int":
        return f"Toeplitz on Z, diagonals {{{tail}}}"
    head = ", ".join(f"({i},{j})={v}" for i, j, v in mat.head_entries())
    return f"head size {mat.head_size} {{{head}}}, tail diagonals {{{tail}}}"


def _format_vector_doc(doc: dict) -> str:
    head = list(doc.get("head", []))
    tail = doc.get("tail", {"a": 0, "b": 0})
    a, b = tail.get("a", 0), tail.get("b", 0)
    if not head:
        return f"v_i = {_affine_expr(a, b)}"
    shown = head + [a * i + b for i in range(len(head), len(head) + 2)]
    body = ", ".join(str(x) for x in shown)
    return f"({body}, ...) with v_i = {_affine_expr(a, b)} from i = {len(head)}"


def _display_line(result: Classification) -> str:
    if result.kind == "classical":
        h = result.certificate["coxeter_number"]
        return f"Classical {result.dtype.display()} (h={h})"
    if result.kind == "affine":
        vec = ", ".join(str(x) for x in result.certificate["null_vector"])
        return f"Affine {result.dtype.display()} (null vector ({vec}))"
    if result.kind == "infinite":
        vec = _format_vector_doc(result.certificate["null_vector"])
        return f"Infinite {result.dtype.display()} (null vector {vec})"
    return f"Unrecognized: {result.certificate.get('reason', 'no matching type')}"


def _print_certificate(cert: dict) -> None:
    print("certificate:")
    for key in sorted(cert):
        value = cert[key]
        if isinstance(value, dict) and set(value) <= {"head", "tail"}:
            print(f"  {key}: {_format_vector_doc(value)}")
        elif isinstance(value, list):
            print(f"  {key}: {', '.join(str(x) for x in value)}")
        else:
            print(f"  {key}: {value}")


def _format_event(event: dict) -> str:
    label = event.get("constraint", "constraint")
    status = event.get("status")
    identity = event.get("identity")
    rest = {k: v for k, v in event.items()
            if k not in ("constraint", "status", "identity")}
    pinned = rest.pop("pinned", None)
    line = f"[{status}] {label}" if status else label
    if identity:
        line += f": {identity}"
    if rest:
        line += " (" + ", ".join(f"{k}={rest[k]}" for k in sorted(rest)) + ")"
    if isinstance(pinned, dict) and "variable" in pinned:
        if "range" in pinned:
            lo, hi = pinned["range"]
            line += f"; pins {pinned['variable']} in [{lo}, {hi}]"
        else:
            line += f"; pins {pinned['variable']} = {pinned.get('value')}"
    return line


def _format_factor_multiset(factors: dict) -> str:
    items = sorted(factors.items(), key=lambda kv: int(kv[0]))
    return "{" + ", ".join(f"S_{k}: {v}" for k, v in items) + "}"


def _format_witness_entry(entry: dict) -> str:
    return (f"F_{entry['degree']} S_{entry['object']}: "
            f"top {_format_factor_multiset(entry['top'])}, "
            f"socle {_format_factor_multiset(entry['socle'])}")


def _format_character(c: SlCharacter) -> str:
    window = ", ".join(str(v) for v in c.truncate(10))
    return f"[{window}, ...] (period {c.period} tail)"


# -- classify ------------------------------------------------------------------------


def _cmd_classify(args) -> int:
    gcm = _load_gcm(args.gcm)
    if args.components:
        pieces = classify_components(gcm)
        if args.json:
            _print_json({"components": [
                {"vertices": comp, "display": _display_line(res), **res.to_json()}
                for comp, res in pieces
            ]})
        else:
            for comp, res in pieces:
                vertices = ",".join(str(v) for v in comp)
                print(f"component {vertices}: {_display_line(res)}")
        return EXIT_OK
    result = classify(gcm)
    if args.json:
        _print_json({"display": _display_line(result), **result.to_json()})
        return EXIT_OK
    print(_display_line(result))
    if args.certificate:
        _print_certificate(result.certificate)
    return EXIT_OK


# -- derive / transitive ---------------------------------------------------------------


MAX_WINDOW = 1_000  # the dense window grows as N^2: 13 MB of JSON at the cap
#: largest K of derive --upto: the head of F_i holds about i^2 entries, so the
#: output grows as K^3; at the cap every catalog model answers in under 2 s
MAX_UPTO = 100
MAX_SIZE = 100_000  # render --size: about 85 bytes of DOT a node, 8.5 MB at the cap


def _cmd_derive(args) -> int:
    m = _with_basis(_load_model(args.model), args.basis)
    if args.upto < 0:
        raise CliError("--upto must be >= 0")
    if args.upto > MAX_UPTO:
        raise CliError(f"--upto must be <= {MAX_UPTO}, got {args.upto}")
    if args.window < 0:
        raise CliError("--window must be >= 0")
    if args.window > MAX_WINDOW:
        raise CliError(f"--window must be <= {MAX_WINDOW}, got {args.window}")
    actions = [(i, modcat.derive_action(m, i)) for i in range(args.upto + 1)]

    def window_of(mat: PresentedMatrix) -> list[list[int]] | None:
        if not args.window:
            return None
        size = args.window
        if mat.index.kind == "finite":
            size = min(size, mat.index.size)
        return mat.truncate(size)

    if args.json:
        docs = []
        for i, mat in actions:
            entry = {"index": i, "matrix": mat.to_json_dict()}
            dense = window_of(mat)
            if dense is not None:
                entry["window"] = dense
            docs.append(entry)
        _print_json({"model": m.name, "basis": m.basis,
                     "upto": args.upto, "actions": docs})
        return EXIT_OK
    print(f"model {m.name} (basis {m.basis})")
    for i, mat in actions:
        print(f"F_{i}: {_format_matrix(mat)}")
        dense = window_of(mat)
        if dense is not None:
            for row in dense:
                print("    " + " ".join(f"{v:>2}" for v in row))
    return EXIT_OK


def _cmd_transitive(args) -> int:
    m = _load_model(args.model)
    verdict = modcat.is_transitive(m)
    if args.json:
        _print_json({"model": m.name, "transitive": verdict.value})
    else:
        print(f"transitive: {verdict.value}")
    return EXIT_OK


# -- verify-catalog ----------------------------------------------------------------------


def _cmd_verify_catalog(args) -> int:
    report = modcat.verify_catalog()
    if args.json:
        _print_json(report)
    else:
        for name, entry in report["fixtures"].items():
            mark = "ok  " if entry["status"] == "ok" else "FAIL"
            shown = entry["type"] or "-"
            print(f"{mark} {name:<9} type={shown:<10} {len(entry['checks'])} checks")
            for c in entry["checks"]:
                if c["status"] != "ok":
                    print(f"     fail {c['name']}: {c.get('detail', '')}")
        print(f"catalog: {report['status']} ({report['checks_total']} checks, "
              f"{report['failures']} failures)")
    return EXIT_OK if report["status"] == "ok" else EXIT_MISMATCH


# -- obstruction --------------------------------------------------------------------------


def _cmd_obstruction(args) -> int:
    m = _load_model(args.model)
    report = modcat.socle_top_feasibility(m, args.depth, schur_dim=args.schur_dim)
    if args.json:
        _print_json({"model": m.name, **report.to_json()})
        return EXIT_OK
    print(f"{report.status} at depth {report.depth} (schur dim {report.schur_dim})")
    if report.trace:
        print("trace:")
        for event in report.trace:
            print(f"  {_format_event(event)}")
    if report.witness is not None:
        print("witness (top / socle factors of each F_a S_j):")
        for entry in report.witness:
            print(f"  {_format_witness_entry(entry)}")
    return EXIT_OK


# -- decompose ------------------------------------------------------------------------------

_TENSOR_RE = re.compile(r"^\s*L\((\d+)\)\s*(?:x|\*)\s*(\S.*?)\s*$")


def _parse_tensor(text: str) -> tuple[int, NamedOObject]:
    match = _TENSOR_RE.match(text)
    if match is None:
        raise CliError(
            f"cannot parse tensor expression {text!r}; "
            'expected "L(n) x OBJ" with OBJ one of L(w), P(w), Delta(w)')
    try:
        n = int(match.group(1))
    except ValueError as exc:  # more digits than the interpreter converts
        bound = oracles.MAX_TENSOR_WEIGHT
        raise CliError(f"the tensoring simple L(n) needs n <= {bound}") from exc
    return n, NamedOObject.parse(match.group(2))


def _cmd_decompose(args) -> int:
    n, obj = _parse_tensor(args.tensor)
    parts = oracles.decompose_in_N(oracles.tensor_in_O(n, oracles.class_of(obj)))
    ordered = sorted(parts.items(), key=lambda kv: (-kv[0].weight, kv[0].kind))
    if args.json:
        _print_json({
            "tensor": {"simple": n, "object": obj.display()},
            "summands": [{"multiplicity": c, "object": o.display()}
                         for o, c in ordered],
        })
        return EXIT_OK
    terms = []
    simple_projective = False
    for o, c in ordered:
        shown = o.display()
        if o.kind == "L" and o.weight == -1:
            # human display tags the simple projective as a projective
            shown = "P(-1)"
            simple_projective = True
        terms.extend([shown] * c)
    print(" + ".join(terms) if terms else "0")
    if simple_projective:
        print("note: P(-1) = L(-1) is simple and projective; "
              "JSON output uses the canonical tag L(-1)")
    return EXIT_OK


# -- oracle subcommands -------------------------------------------------------------------------


def _coset_name(offset: int) -> str:
    return "Delta(c)" if offset == 0 else f"Delta(c{_signed(offset)})"


def _cmd_o_tensor(args) -> int:
    if args.n < 0:
        raise CliError("--n must be >= 0")
    if args.coset_offset is not None:
        start = oracles.verma(args.coset_offset, coset=True)
        shown_input, name = _coset_name(args.coset_offset), _coset_name
    else:
        obj = NamedOObject.parse(args.object)
        start, shown_input, name = oracles.class_of(obj), obj.display(), "Delta({})".format
    vec = oracles.tensor_in_O(args.n, start)

    ordered = sorted(vec.items(), key=lambda kv: -kv[0])
    if args.json:
        doc = {
            "n": args.n,
            "coset": vec.coset,
            "object": None if args.coset_offset is not None else shown_input,
            "coset_offset": args.coset_offset,
            "verma_flag": {str(w): c for w, c in ordered},
        }
        _print_json(doc)
        return EXIT_OK
    terms: list[str] = []
    for w, c in ordered:
        terms.extend([name(w)] * c)
    print(" + ".join(terms) if terms else "0")
    return EXIT_OK


#: the interpreter's default limit on int <-> str conversion: an eigenvalue
#: with a longer digit run, numerator or denominator is refused, and one
#: past it in lowest terms is refused before its power of ten is built
MAX_EIGENVALUE_DIGITS = 4_300

# the string grammar of fractions.Fraction, its "d*" decimal branch included;
# compiled on first use, so the import compiles nothing
_RATIONAL = r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?
     |(?:\.(?P<decimal>d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*\Z"""


_TOO_LONG = (f"an eigenvalue has at most {MAX_EIGENVALUE_DIGITS} digits in each number it "
             "writes and in its numerator and denominator")


def _digit_run(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        if text.replace("_", "").isdecimal():  # past the interpreter's digit limit
            raise ValueError(_TOO_LONG) from None
        raise


def _eigenvalue_text(text: str) -> str:
    """``str(Fraction(text))`` in integers: the same grammar, value and errors
    (a ValueError, or a ZeroDivisionError for p/0) with no import of
    ``fractions``, except that a value past MAX_EIGENVALUE_DIGITS is refused
    in its own words before any power of ten is built."""
    match = re.match(_RATIONAL, text, re.VERBOSE | re.IGNORECASE)
    if match is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    num, den, shift = _digit_run(match["num"] or "0"), 1, 0
    if match["denom"]:
        den = _digit_run(match["denom"])
    else:
        decimal = (match["decimal"] or "").replace("_", "")
        if decimal:
            num = num * 10 ** len(decimal) + _digit_run(decimal)
        shift = (_digit_run(match["exp"]) if match["exp"] else 0) - len(decimal)
    if match["sign"] == "-":
        num = -num
    if den == 0:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    if num and shift:
        # |num| < 10^written, so 10^-shift / gcd leaves over 10^(-shift - written)
        written = len(match["num"]) + len(match["decimal"] or "")
        if shift >= MAX_EIGENVALUE_DIGITS or -shift - written >= MAX_EIGENVALUE_DIGITS:
            raise ValueError(_TOO_LONG)
        num, den = (num * 10 ** shift, 1) if shift > 0 else (num, 10 ** -shift)
    g = gcd(num, den)
    num, den = num // g, den // g
    if max(abs(num), den) >= 10 ** MAX_EIGENVALUE_DIGITS:
        raise ValueError(_TOO_LONG)
    return str(num) if den == 1 else f"{num}/{den}"


def _cmd_jordan(args) -> int:
    try:
        lam = _eigenvalue_text(args.eigenvalue)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse eigenvalue {args.eigenvalue!r}: {exc}") from exc
    partition = oracles.jordan_kronecker_oracle(args.n, lam)
    if args.json:
        _print_json({"n": args.n, "eigenvalue": lam, **partition.to_json()})
        return EXIT_OK
    print(" + ".join(f"J_{size}({ev})" for size, ev in partition.blocks))
    return EXIT_OK


def _cmd_restrictions(args) -> int:
    report = oracles.restriction_consistency_solve(
        args.system, args.truncation, args.assume_restrictions)
    if args.json:
        _print_json({**report.to_json(), "truncation": args.truncation})
    else:
        print(f"system {report.system}: {report.status} "
              f"({report.relations_checked} relations checked, "
              f"truncation {args.truncation})")
        if report.freedom:
            print(f"freedom: {report.freedom}")
        if report.characters:
            print("characters (multiplicity of L(k), k = 0, 1, 2, ...):")
            for cname in sorted(report.characters):
                print(f"  {cname}: {_format_character(report.characters[cname])}")
    return EXIT_MISMATCH if report.status == "infeasible" else EXIT_OK


# -- render ---------------------------------------------------------------------------------------


def _to_dot(name: str, nodes: list[int], edges: list[tuple[int, int, int]]) -> str:
    pos = {v: k for k, v in enumerate(nodes)}
    lines = [f'digraph "{name}" {{', "  rankdir=LR;"]
    lines += [f'  v{pos[v]} [label="{v}"];' for v in nodes]
    lines += [f"  v{pos[src]} -> v{pos[dst]} [label={mult}];"
              for src, dst, mult in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_render(args) -> int:
    if args.size is not None and args.size < 0:
        raise CliError("--size must be >= 0")
    if args.size is not None and args.size > MAX_SIZE:
        raise CliError(f"--size must be <= {MAX_SIZE}, got {args.size}")
    if args.model is not None:
        m = _load_model(args.model)
        name = m.name
        nodes, edges = modcat.action_graph(m.f1, args.size)
    else:
        gcm = _load_gcm(args.gcm)
        adjacency = graph_of(gcm)
        # action_graph reads columns as images, so feed it the transpose to
        # get the diagram convention: an edge i -> j per adjacency entry (i, j)
        name = Path(args.gcm).stem
        nodes, edges = modcat.action_graph(adjacency.transpose(), args.size)
    dot = _to_dot(name, nodes, edges)
    if args.dot == "-":
        print(dot, end="")
    else:
        try:
            Path(args.dot).write_text(dot, "utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {args.dot}: {exc}") from exc
        print(f"wrote {len(nodes)} nodes, {len(edges)} edges to {args.dot}")
    return EXIT_OK


# -- predict ----------------------------------------------------------------------------------------

_WEIGHT_CASES = {
    "a": ("non-half-integer", False),
    "b": ("half-integer-not-integer", True),
    "c": ("half-integer-not-integer", False),
    "d": ("nonneg-integer", False),
    "e": ("negative-integer", False),
}
_SUBALGEBRA_CASES = {"a": (1, False), "b": (1, True)}


def _cmd_predict(args) -> int:
    if args.theorem == "10.1":
        if args.dim is not None or args.semisimple or args.nilpotent:
            raise UsageError("--dim, --semisimple and --nilpotent belong to --theorem 10.2")
        if (args.case is None) == (args.weight_class is None):
            raise UsageError("give exactly one of --case or --weight-class")
        if args.case is not None:
            if args.special_fixed:
                raise UsageError("--special-fixed combines with --weight-class only; "
                                 "cases b and c already encode it")
            if args.case not in _WEIGHT_CASES:
                raise UsageError(f"theorem 10.1 cases are a-e, got {args.case!r}")
            weight_class, special_fixed = _WEIGHT_CASES[args.case]
        else:
            if args.special_fixed and args.weight_class != "half-integer-not-integer":
                raise UsageError("--special-fixed applies to --weight-class "
                                 "half-integer-not-integer only")
            weight_class, special_fixed = args.weight_class, args.special_fixed
        prediction = modcat.predict_weight_module_type(weight_class, special_fixed)
        fallback_label = f"weight class {weight_class}"
    else:
        if args.weight_class is not None or args.special_fixed:
            raise UsageError("--weight-class and --special-fixed belong to --theorem 10.1")
        if (args.case is None) == (args.dim is None):
            raise UsageError("give exactly one of --case or --dim")
        if args.case is not None:
            if args.case not in _SUBALGEBRA_CASES:
                raise UsageError(f"theorem 10.2 cases are a or b, got {args.case!r}")
            dim, semisimple = _SUBALGEBRA_CASES[args.case]
        else:
            if args.semisimple and args.nilpotent:
                raise UsageError("--semisimple and --nilpotent are mutually exclusive")
            dim = args.dim
            semisimple = True if args.semisimple else (False if args.nilpotent else None)
            if dim == 1 and semisimple is None:
                raise UsageError("--dim 1 needs --semisimple or --nilpotent")
        if (args.semisimple or args.nilpotent) and args.dim != 1:
            raise UsageError("--semisimple and --nilpotent apply to --dim 1 only; "
                             "cases a and b already encode them")
        prediction = modcat.subalgebra_type(dim, semisimple)
        fallback_label = f"dim {dim}"
    if args.json:
        _print_json({"theorem": args.theorem, **prediction.to_json()})
        return EXIT_OK
    roles = prediction.roles or ("",) * len(prediction.types)
    parts = [t.display() + (f" ({r})" if r else "")
             for t, r in zip(prediction.types, roles)]
    label = f"case {prediction.case}" if prediction.case else fallback_label
    body = " + ".join(parts) if parts else "(no types)"
    print(f"theorem {args.theorem}, {label}: {body}")
    if prediction.notes:
        print(f"note: {prediction.notes}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------------------------
#
# One parser tree per process, built on the first main() call and grown by
# the verb (and oracle) each argv names, so a call pays for its own subparser
# and not for all thirteen.  Help, --version and a missing or unknown verb or
# oracle list every verb, so they read the whole tree, built once in help
# order.


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON on stdout")


def _add_model(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, metavar="NAME|FILE",
                   help="catalog model name or JSON model/matrix file")


def _classify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gcm", required=True, metavar="FILE",
                   help="JSON matrix document holding the GCM")
    p.add_argument("--certificate", action="store_true",
                   help="also print the certificate (minors or null vector)")
    p.add_argument("--components", action="store_true",
                   help="classify connected components separately (finite matrices)")
    _add_json(p)
    p.set_defaults(handler=_cmd_classify)


def _derive_args(p: argparse.ArgumentParser) -> None:
    _add_model(p)
    p.add_argument("--upto", required=True, type=int, metavar="K",
                   help="largest simple index to derive")
    p.add_argument("--basis", choices=["projectives", "simples"],
                   help="convert the model to this basis first")
    p.add_argument("--window", type=int, default=0, metavar="N",
                   help="also print a dense NxN window of each matrix")
    _add_json(p)
    p.set_defaults(handler=_cmd_derive)


def _transitive_args(p: argparse.ArgumentParser) -> None:
    _add_model(p)
    _add_json(p)
    p.set_defaults(handler=_cmd_transitive)


def _verify_catalog_args(p: argparse.ArgumentParser) -> None:
    _add_json(p)
    p.set_defaults(handler=_cmd_verify_catalog)


def _obstruction_args(p: argparse.ArgumentParser) -> None:
    _add_model(p)
    p.add_argument("--depth", required=True, type=int, metavar="K",
                   help="number of functor degrees to constrain")
    p.add_argument("--schur-dim", type=int, default=1, metavar="D",
                   help="allowed endomorphism dimension of a simple (default 1)")
    _add_json(p)
    p.set_defaults(handler=_cmd_obstruction)


def _decompose_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tensor", required=True, metavar="EXPR",
                   help='expression like "L(1) x P(-2)"')
    _add_json(p)
    p.set_defaults(handler=_cmd_decompose)


def _oracle_args(p: argparse.ArgumentParser) -> None:
    _subparsers(p, "oracle_verb", "ORACLE")


def _o_tensor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", required=True, type=int, metavar="N",
                   help="highest weight of the tensoring simple L(N)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--object", metavar="OBJ",
                       help="integral object: L(w), P(w) or Delta(w)")
    group.add_argument("--coset-offset", type=int, metavar="J",
                       help="generic-coset Verma at integer offset J")
    _add_json(p)
    p.set_defaults(handler=_cmd_o_tensor)


def _jordan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", required=True, type=int, metavar="N",
                   help="size of the Jordan cell")
    p.add_argument("--lambda", required=True, dest="eigenvalue", metavar="Q",
                   help="eigenvalue, an exact rational; write negatives "
                        "with = as in --lambda=-9/4")
    _add_json(p)
    p.set_defaults(handler=_cmd_jordan)


def _restrictions_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--system", required=True, metavar="NAME",
                   help="one of: " + ", ".join(oracles.restriction_system_names()))
    p.add_argument("--truncation", type=int, default=20, metavar="K",
                   help="window of simple indices to check (default 20)")
    p.add_argument("--assume-restrictions", action="store_true",
                   help="pin the chain characters to their stated towers "
                        "(the forked system is underdetermined without this)")
    _add_json(p)
    p.set_defaults(handler=_cmd_restrictions)


def _render_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", metavar="NAME|FILE",
                       help="catalog model name or JSON model/matrix file")
    group.add_argument("--gcm", metavar="FILE",
                       help="JSON matrix document; renders its diagram graph")
    p.add_argument("--dot", required=True, metavar="OUT",
                   help="output path, or - for stdout")
    p.add_argument("--size", type=int, metavar="N",
                   help="window of objects to show (default: head plus a tail sample)")
    p.set_defaults(handler=_cmd_render)


def _predict_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theorem", required=True, choices=["10.1", "10.2"],
                   help="which dispatch table to consult")
    p.add_argument("--case", metavar="C",
                   help="case label: a-e for 10.1, a or b for 10.2")
    p.add_argument("--weight-class", choices=list(modcat.WEIGHT_CLASSES),
                   help="weight class input for the 10.1 table")
    p.add_argument("--special-fixed", action="store_true",
                   help="the module is fixed by the special self-equivalence "
                        "(half-integer class only)")
    p.add_argument("--dim", type=int, choices=[0, 1, 2, 3],
                   help="subalgebra dimension input for the 10.2 table")
    p.add_argument("--semisimple", action="store_true",
                   help="the dimension-1 subalgebra is semisimple")
    p.add_argument("--nilpotent", action="store_true",
                   help="the dimension-1 subalgebra is nilpotent")
    _add_json(p)
    p.set_defaults(handler=_cmd_predict)


#: name -> (help, the function that adds its arguments), in help order
_VERBS = {
    "classify": ("name a generalized Cartan matrix with an exact certificate",
                 _classify_args),
    "derive": ("derive action matrices F_0..F_K from F_1", _derive_args),
    "transitive": ("decide strong connectivity of the action graph", _transitive_args),
    "verify-catalog": ("recompute every catalog fixture from the oracles "
                       "and check all invariants", _verify_catalog_args),
    "obstruction": ("run the top/socle feasibility solver on a model", _obstruction_args),
    "decompose": ("decompose a tensor product over the category-O catalog",
                  _decompose_args),
    "oracle": ("run an independent oracle", _oracle_args),
    "render": ("write the action or diagram graph as DOT", _render_args),
    "predict": ("case-dispatch type predictions for the two classification tables",
                _predict_args),
}
_ORACLES = {
    "o-tensor": ("tensor a named object by a simple in the Verma basis", _o_tensor_args),
    "jordan": ("Jordan type of a Jordan cell tensored with the 2-dimensional simple",
               _jordan_args),
    "restrictions": ("verify or solve a restriction-character system", _restrictions_args),
}


@cache  # built on the first main() call, not at import
def _top() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2cat",
        description="Exact computations with finitely presented module "
                    "category models over the sl2 fusion ring.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser


@cache  # the one subparsers action of each parser, found again by its parser
def _subparsers(parent: argparse.ArgumentParser, dest: str, metavar: str):
    return parent.add_subparsers(dest=dest, required=True, metavar=metavar)


def _grow(action, table: dict, name: str) -> argparse.ArgumentParser:
    """The subparser of name under action, added the first time it is asked for."""
    if name not in action.choices:
        help_text, add_arguments = table[name]
        add_arguments(action.add_parser(name, help=help_text))
    return action.choices[name]


@cache  # once per process: a listing follows the order its subparsers were added in
def _whole() -> argparse.ArgumentParser:
    """The tree with every verb and oracle, built again in help order."""
    _top.cache_clear()
    _subparsers.cache_clear()
    verbs = _subparsers(_top(), "verb", "VERB")
    for verb in _VERBS:
        _grow(verbs, _VERBS, verb)
    oracle_verbs = _subparsers(verbs.choices["oracle"], "oracle_verb", "ORACLE")
    for name in _ORACLES:
        _grow(oracle_verbs, _ORACLES, name)
    return _top()


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The tree, grown by the verb and oracle that argv names; any other argv
    (help, --version, a missing or unknown verb or oracle) lists them all.
    The first word decides: the top parser's options take no value, so a
    first word that names a verb is the verb, and every later word goes to
    its subparser (likewise for the oracle's name after oracle)."""
    verb, name = (argv + ["", ""])[:2]
    if verb not in _VERBS or verb == "oracle" and name not in _ORACLES:
        return _whole()
    chosen = _grow(_subparsers(_top(), "verb", "VERB"), _VERBS, verb)
    if verb == "oracle":
        _grow(_subparsers(chosen, "oracle_verb", "ORACLE"), _ORACLES, name)
    return _top()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
