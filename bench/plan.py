"""Seeded workloads: the op list one cold worker runs, and the input files.

An op is a plain dict that travels to the worker as JSON:

- ``id``: position in the op list; spans of the traced run carry it;
- ``label``: size-resolved name (``derive.K24``, ``solve.jordan_N100``, ...)
  or ``None``;
- ``call``: ``"cli"`` runs ``sl2cat.cli.main(argv)`` with stdout captured;
  ``"feasibility"`` calls ``modcat.socle_top_feasibility`` and prints the
  report as JSON;
- ``check``: the expectation ``checks.check_op`` holds the output to.

The same seed gives the same op list and the same input files.  Costs do
not depend on the seed: the seed picks entries, eigenvalues, relabellings
and order, never sizes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("catalog", "derive", "solve")

# The five catalog models indexed by nat (AinfInf is indexed by Z).
NAT_MODELS = ("Ainf", "BinfDual", "Cinf", "Dinf", "Tinf")

# Full sizes, and the tiny ones the benchmark's own tests run.
FULL = {
    # (catalog model or seeded head size, K).  One K=24 op costs as much as
    # the other seven, so a second one would halve the rounds in a run.
    "derive_slots": [("Ainf", 8), ("BinfDual", 16), ("Cinf", 16), ("Dinf", 24),
                     ("Tinf", 16), (1, 8), (2, 8), (3, 16)],
    "catalog_upto": 6,
    "restrictions": [12, 20],
    # T=40 assumed costs as much as T=20 unassumed and has no size-resolved
    # metric; at T=20 the round is a fifth shorter, so a run holds more rounds
    "restrictions_assumed": 20,
    "jordan": [50, 100, 150],
    "classify": 30,
    "obstruction_cli": 6,
    "obstruction_api": [7, 8],
}
TINY = {
    "derive_slots": [("Ainf", 2), ("BinfDual", 3), ("Cinf", 3), ("Dinf", 4),
                     ("Tinf", 4), (1, 2), (2, 2), (3, 3)],
    "catalog_upto": 3,
    "restrictions": [4, 5],
    # below 8 the assumed dinf solve raises "no periodic-affine tail"
    "restrictions_assumed": 8,
    "jordan": [1, 2, 3],
    "classify": 3,
    "obstruction_cli": 2,
    "obstruction_api": [2, 3],
}


def _model_doc(name: str, rng: random.Random, head: int) -> dict:
    """A nat model with a seeded head block and the band-1 tail {-1: 1, +1: 1}."""
    entries = []
    for i in range(head + 1):
        for j in range(head + 1):
            v = rng.randint(0, 2)
            if v and min(i, j) < head:
                entries.append([i, j, v])
    f1 = {"index": "nat",
          "head": {"size": head, "entries": entries},
          "tail": {"band": 1, "diagonals": {"-1": 1, "1": 1}}}
    return {"name": name, "basis": "projectives", "provenance": "seeded benchmark input",
            "f1": f1}


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, sort_keys=True), "utf-8")
    return str(path)


def _catalog_f1(root: Path, name: str) -> dict:
    """F_1 of a catalog model as the fixture file states it."""
    path = root / "src" / "sl2cat" / "fixtures" / "catalog.json"
    return json.loads(path.read_text("utf-8"))[name]["f1"]


def _derive_op(model_arg: str, f1: dict, upto: int, label: str | None) -> dict:
    return {"call": "cli", "label": label,
            "argv": ["derive", "--model", model_arg, "--upto", str(upto), "--json"],
            "check": {"kind": "derive", "f1": f1, "upto": upto}}


def _templates(rng: random.Random, count: int, workdir: Path) -> list[dict]:
    """Randomly relabelled classical and affine template GCMs of rank <= 8."""
    from sl2cat import dynkin
    types = [t for t in dynkin.template_types(8) if t.kind != "infinite"]
    ops = []
    for k in range(count):
        dtype = rng.choice(types)
        gcm = dynkin.template(dtype)
        dense = gcm.truncate(gcm.index.size)
        n = len(dense)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [[dense[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        doc = {"index": {"finite": n},
               "head": {"size": n,
                        "entries": [[i, j, v] for i, row in enumerate(relabelled)
                                    for j, v in enumerate(row) if v]}}
        path = _write(workdir, f"gcm_{k}.json", doc)
        ops.append({"call": "cli", "label": None,
                    "argv": ["classify", "--gcm", path, "--certificate"],
                    "check": {"kind": "classify", "gcm": relabelled,
                              "type_kind": dtype.kind, "display": dtype.display(),
                              "family": dtype.family, "rank": dtype.rank}})
    return ops


def _restrictions_op(truncation: int, assume: bool, label: str) -> dict:
    argv = ["oracle", "restrictions", "--system", "dinf", "--truncation", str(truncation)]
    if assume:
        argv.append("--assume-restrictions")
    return {"call": "cli", "label": label, "argv": argv,
            "check": {"kind": "restrictions", "truncation": truncation, "assume": assume}}


def _catalog_ops(rng: random.Random, root: Path, workdir: Path, sizes: dict) -> list[dict]:
    ops = [{"call": "cli", "label": f"catalog.{label}", "argv": ["verify-catalog", "--json"],
            "check": {"kind": "verify_catalog"}} for label in ("cold_pass", "warm_pass")]
    ops.append({"call": "cli", "label": None,
                "argv": ["transitive", "--model", rng.choice(NAT_MODELS + ("AinfInf",))],
                "check": {"kind": "text", "first_line": "transitive: yes"}})
    if rng.random() < 0.5:
        name = rng.choice(NAT_MODELS)
        ops.append(_derive_op(name, _catalog_f1(root, name), sizes["catalog_upto"], None))
    else:
        doc = _model_doc("seeded", rng, rng.randint(1, 3))
        ops.append(_derive_op(_write(workdir, "model.json", doc), doc["f1"],
                              sizes["catalog_upto"], None))
    ops += _templates(rng, 1, workdir)
    n, w = rng.randint(1, 4), -rng.randint(2, 9)
    ops.append({"call": "cli", "label": None,
                "argv": ["decompose", "--tensor", f"L({n}) x P({w})", "--json"],
                "check": {"kind": "decompose", "n": n, "weight": w}})
    n, obj = rng.randint(0, 5), rng.choice(["P", "Delta"])
    w = -rng.randint(2, 9) if obj == "P" else rng.randint(-9, 9)
    ops.append({"call": "cli", "label": None,
                "argv": ["oracle", "o-tensor", "--n", str(n), "--object", f"{obj}({w})",
                         "--json"],
                "check": {"kind": "o_tensor", "n": n, "object": obj, "weight": w}})
    return ops


def _derive_ops(rng: random.Random, root: Path, workdir: Path, sizes: dict) -> list[dict]:
    # Each slot has a fixed model shape and K, so the cost does not depend on
    # the seed; the seed picks only the seeded heads' entries and the order.
    ops = []
    for model, upto in sizes["derive_slots"]:
        if isinstance(model, str):
            ops.append(_derive_op(model, _catalog_f1(root, model), upto, f"derive.K{upto}"))
        else:
            doc = _model_doc(f"seeded_h{model}", rng, model)
            path = _write(workdir, f"model_h{model}.json", doc)
            ops.append(_derive_op(path, doc["f1"], upto, f"derive.K{upto}"))
    rng.shuffle(ops)
    return ops


def _solve_ops(rng: random.Random, root: Path, workdir: Path, sizes: dict) -> list[dict]:
    ops = [_restrictions_op(t, False, f"solve.restrictions_T{t}") for t in sizes["restrictions"]]
    ops.append(_restrictions_op(sizes["restrictions_assumed"], True, None))
    for n in sizes["jordan"]:
        lam = f"{rng.randint(-20, 20)}/{rng.randint(1, 7)}"
        ops.append({"call": "cli", "label": f"solve.jordan_N{n}",
                    "argv": ["oracle", "jordan", "--n", str(n), f"--lambda={lam}", "--json"],
                    "check": {"kind": "jordan", "n": n, "lambda": lam}})
    ops += _templates(rng, sizes["classify"], workdir)
    depth = sizes["obstruction_cli"]
    for model, status, label in (("Cinf", "SAT", f"solve.obstruction_d{depth}"),
                                 ("BinfDual", "UNSAT", None)):
        ops.append({"call": "cli", "label": label,
                    "argv": ["obstruction", "--model", model, "--depth", str(depth)],
                    "check": {"kind": "text",
                              "first_line": f"{status} at depth {depth} (schur dim 1)"}})
    for depth in sizes["obstruction_api"]:
        ops.append({"call": "feasibility", "label": f"solve.obstruction_d{depth}",
                    "model": "Cinf", "depth": depth, "max_depth": max(sizes["obstruction_api"]),
                    "check": {"kind": "feasibility", "status": "SAT", "depth": depth}})
    return ops


def build(workload: str, seed: int, root: Path, workdir: Path, tiny: bool = False) -> list[dict]:
    """Write the workload's input files into workdir and return its op list.

    root is the checkout holding ``src/sl2cat``; the relabelled GCMs start
    from ``dynkin.template``, so sl2cat must be importable.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"catalog": _catalog_ops, "derive": _derive_ops, "solve": _solve_ops}[workload]
    ops = make(rng, root, workdir, TINY if tiny else FULL)
    for k, op in enumerate(ops):
        op["id"] = k
    return ops
