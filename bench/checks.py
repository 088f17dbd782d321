"""Independent output checks.

Each check recomputes the expected answer with its own arithmetic from the
op's inputs; none reads sl2cat's answer back as its reference.  ``check_op``
returns ``None`` when the output is right, otherwise a one-line reason.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 12, "G2": 6}
_TAG_RE = re.compile(r"^(L|P|Delta)\((-?\d+)\)$")


def check_op(op: dict, rc: int | None, stdout: str, error: str | None) -> str | None:
    if error is not None:
        return f"raised: {error.strip().splitlines()[-1]}"
    if rc != 0:
        return f"exit code {rc}, expected 0"
    spec = op["check"]
    try:
        return _CHECKS[spec["kind"]](spec, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# -- presented matrices, read from their documented JSON form ---------------------


def _dense(doc: dict, n: int) -> list[list[int]]:
    """Top-left n x n window of a nat matrix document: head block, then Toeplitz tail."""
    if doc["index"] != "nat":
        raise ValueError(f"expected a nat matrix, got index {doc['index']!r}")
    size = doc["head"]["size"]
    head = {(i, j): v for i, j, v in doc["head"]["entries"]}
    diags = {int(d): v for d, v in doc["tail"]["diagonals"].items()}
    return [[head.get((i, j), 0) if min(i, j) < size else diags.get(j - i, 0)
             for j in range(n)] for i in range(n)]


def _extent(doc: dict) -> int:
    return max([doc["head"]["size"]] + [max(i, j) + 1 for i, j, _ in doc["head"]["entries"]])


def _recurrence(f1: list[list[int]], upto: int) -> list[list[list[int]]]:
    """F_0 .. F_upto on a dense truncation by F_k = F_1 F_{k-1} - F_{k-2}."""
    n = len(f1)
    rows = [[(k, a) for k, a in enumerate(row) if a] for row in f1]
    out = [[[int(i == j) for j in range(n)] for i in range(n)], f1]
    for _ in range(2, upto + 1):
        prev, prev2 = out[-1], out[-2]
        nxt = []
        for i in range(n):
            acc = [-x for x in prev2[i]]
            for k, a in rows[i]:
                pk = prev[k]
                acc = [x + a * y for x, y in zip(acc, pk)]
            nxt.append(acc)
        out.append(nxt)
    return out[:upto + 1]


def _check_derive(spec: dict, stdout: str) -> str | None:
    doc = json.loads(stdout)
    upto = spec["upto"]
    actions = doc["actions"]
    if doc["upto"] != upto or [a["index"] for a in actions] != list(range(upto + 1)):
        return f"expected F_0..F_{upto}"
    # Rows below n - upto + 1 of the truncated recurrence are exact, because
    # F_1 has band 1 outside its head; the window covers F_upto's head.
    window = min(_extent(actions[-1]["matrix"]) + 3, 64)
    n = window + upto + _extent(spec["f1"])
    expected = _recurrence(_dense(spec["f1"], n), upto)
    for k, action in enumerate(actions):
        got = _dense(action["matrix"], window)
        if got != [row[:window] for row in expected[k][:window]]:
            return f"F_{k} differs from the dense recurrence on the {window}x{window} window"
    return None


# -- classification -------------------------------------------------------------------


def _det(rows: list[list[int]]) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _check_classify(spec: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    cert = dict(line.strip().split(": ", 1) for line in lines[2:])
    gcm = spec["gcm"]
    n = len(gcm)
    if lines[1] != "certificate:":
        return "no certificate"
    if spec["type_kind"] == "classical":
        family, rank = spec["family"], spec["rank"]
        h = _COXETER.get(family) or {"A": rank + 1, "B": 2 * rank, "C": 2 * rank,
                                     "D": 2 * rank - 2}[family]
        if lines[0] != f"Classical {spec['display']} (h={h})":
            return f"got {lines[0]!r}, built from {spec['display']}"
        minors = [_det([row[:k] for row in gcm[:k]]) for k in range(1, n + 1)]
        if _ints(cert["minors"]) != minors or cert["coxeter_number"] != str(h) \
                or cert["annihilation"] != "True":
            return "classical certificate differs from the leading minors and Coxeter number"
        return None
    if not lines[0].startswith(f"Affine {spec['display']} (null vector ("):
        return f"got {lines[0]!r}, built from {spec['display']}"
    null = _ints(cert["null_vector"])
    if len(null) != n or min(null) <= 0 \
            or any(sum(a * v for a, v in zip(row, null)) for row in gcm):
        return f"null vector {null} is not positive or not annihilated"
    return None


# -- category O -------------------------------------------------------------------------


def _flag(parts: dict[tuple[str, int], int]) -> dict[int, int]:
    """Verma flag of a sum of L(w), P(w), Delta(w); P(w), w <= -2, has Delta(w) and Delta(-w-2)."""
    out: dict[int, int] = {}
    for (kind, w), c in parts.items():
        for v in ((w, -w - 2) if kind == "P" else (w,)):
            out[v] = out.get(v, 0) + c
    return {w: c for w, c in out.items() if c}


def _tensor_flag(n: int, kind: str, w: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for base, c in _flag({(kind, w): 1}).items():
        for k in range(n + 1):
            out[base + n - 2 * k] = out.get(base + n - 2 * k, 0) + c
    return out


def _check_decompose(spec: dict, stdout: str) -> str | None:
    parts: dict[tuple[str, int], int] = {}
    for item in json.loads(stdout)["summands"]:
        m = _TAG_RE.match(item["object"])
        kind, w, c = m.group(1), int(m.group(2)), item["multiplicity"]
        # tensoring a projective by a simple gives a projective: P(w) with
        # w <= -2, or the simple projective L(-1)
        if c <= 0 or not ((kind == "P" and w <= -2) or (kind == "L" and w == -1)):
            return f"summand {c} x {item['object']} is not a catalog projective"
        parts[(kind, w)] = parts.get((kind, w), 0) + c
    if _flag(parts) != _tensor_flag(spec["n"], "P", spec["weight"]):
        return "summands' Verma flag differs from the tensor product's"
    return None


def _check_o_tensor(spec: dict, stdout: str) -> str | None:
    doc = json.loads(stdout)
    got = {int(w): c for w, c in doc["verma_flag"].items()}
    if doc["coset"] or got != _tensor_flag(spec["n"], spec["object"], spec["weight"]):
        return "Verma flag differs from the shifted flags of the object"
    return None


# -- oracles and solver -------------------------------------------------------------------


def _check_jordan(spec: dict, stdout: str) -> str | None:
    n, lam = spec["n"], str(Fraction(spec["lambda"]))
    expected = [[2, lam]] if n == 1 else [[n + 1, lam], [n - 1, lam]]
    got = json.loads(stdout)["blocks"]
    return None if got == expected else f"blocks {got}, expected {expected}"


def _check_restrictions(spec: dict, stdout: str) -> str | None:
    lines = stdout.splitlines()
    t = spec["truncation"]
    if spec["assume"]:
        ok = lines[0].startswith("system dinf: consistent (")
        return None if ok else f"got {lines[0]!r}, expected consistent"
    # 7 characters on T+1 weights; the homogeneous system leaves T+7 free
    if lines[0] != f"system dinf: underdetermined (0 relations checked, truncation {t})" \
            or f"has a {t + 7}-dimensional solution space" not in lines[1]:
        return f"expected underdetermined with a {t + 7}-dimensional freedom"
    return None


def _check_verify_catalog(spec: dict, stdout: str) -> str | None:
    doc = json.loads(stdout)
    got = (doc["status"], doc["checks_total"], doc["failures"])
    return None if got == ("ok", 54, 0) else f"got {got}, expected ('ok', 54, 0)"


def _check_text(spec: dict, stdout: str) -> str | None:
    first = stdout.splitlines()[0]
    return None if first == spec["first_line"] else f"got {first!r}"


def _check_feasibility(spec: dict, stdout: str) -> str | None:
    doc = json.loads(stdout)
    got = (doc["status"], doc["depth"])
    return None if got == (spec["status"], spec["depth"]) else f"got {got}"


_CHECKS = {
    "derive": _check_derive,
    "classify": _check_classify,
    "decompose": _check_decompose,
    "o_tensor": _check_o_tensor,
    "jordan": _check_jordan,
    "restrictions": _check_restrictions,
    "verify_catalog": _check_verify_catalog,
    "text": _check_text,
    "feasibility": _check_feasibility,
}
