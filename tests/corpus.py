"""Seeded output corpus of the CLI: one sha256 per case family.

    PYTHONPATH=src python3 tests/corpus.py [--family NAME ...] [--check | --record]

Every case is an argv run through ``sl2cat.cli.main`` in this process; a
family's digest is one sha256 over each case's argv, exit code, stdout and
stderr, in order.  The cases come from fixed seeds, so the same tree gives
the same digests.  ``--check`` compares with ``tests/corpus.json`` and exits
1 on a difference; ``--record`` rewrites the families it ran there.  With
neither, it prints the digests as JSON.

Families:

- ``classify``: the four output modes (plain, ``--certificate``, ``--json``,
  ``--components``) on the 600 relabelled templates of the benchmark's
  ``solve`` seeds 1 to 20 and on 400 seeded random connected GCMs;
- ``jordan``: ``oracle jordan`` in text and ``--json`` over a seeded grammar
  of eigenvalue literals (signs, spaces, ``p/q``, ``/0``, decimals,
  exponents, underscores, other digits and junk), all within the
  4,300-digit bound;
- ``jordan-bound``: eigenvalues at and past the bound;
- ``derive``: text and ``--json``, with and without ``--basis`` and
  ``--window``, on the six catalog models at K = 0..24 and on 100 seeded
  non-negative models on N with heads 0..6 and bands 1..3.

The help, version and usage-error texts are kept in full instead:
``help_goldens()`` runs ``HELP_ARGVS`` and one fresh-process session that
calls every verb before it asks for help, ``--record-help`` writes them to
``tests/help_goldens.json``, and the tier-1 tests compare the two.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "corpus.json"
HELP_GOLDENS = HERE / "help_goldens.json"
COLUMNS = "100"  # argparse wraps help text to the terminal width

VERBS = ["classify", "derive", "transitive", "verify-catalog", "obstruction",
         "decompose", "oracle", "render", "predict"]
ORACLES = ["o-tensor", "jordan", "restrictions"]

HELP_ARGVS = [
    [], ["--help"], ["-h"], ["--version"], ["--vers"], ["frobnicate"], ["--bogus"],
    ["-5"], ["--", "classify"], ["-h", "classify"], ["--version", "classify"],
    *([verb, "--help"] for verb in VERBS),
    *(["oracle", name, "--help"] for name in ORACLES),
    ["oracle"], ["oracle", "frob"], ["oracle", "--json"],
    ["classify"], ["classify", "--gcm"], ["oracle", "jordan", "--n", "3"],
    ["derive", "--model", "Ainf", "--upto", "x"], ["predict", "--theorem", "9.9"],
    ["verify-catalog", "--bogus"], ["transitive", "--model", "Ainf", "extra"],
    ["oracle", "jordan", "--n", "1", "--lambda=1", "--version"],
    ["render", "--model", "Ainf", "--gcm", "x.json", "--dot", "-"],
]


def run(argv: list[str]) -> tuple[int, str, str]:
    from sl2cat.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _matrix_doc(rows: list[list[int]]) -> dict:
    n = len(rows)
    return {"index": {"finite": n},
            "head": {"size": n, "entries": [[i, j, v] for i, row in enumerate(rows)
                                            for j, v in enumerate(row) if v]}}


def _random_gcm(rng: random.Random) -> list[list[int]]:
    """A connected GCM on 1 to 9 vertices: a random tree plus extra bonds,
    off-diagonal pairs in -1..-4 and diagonals 2, 1 or 0 (loops)."""
    n = rng.randint(1, 9)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice([2, 2, 2, 2, 2, 2, 1, 0])
    bonds = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if i != j:
            bonds.add((i, j))
    for i, j in sorted(bonds):
        rows[i][j] = -rng.choice([1, 1, 1, 2, 3, 4])
        rows[j][i] = -rng.choice([1, 1, 1, 2, 3, 4])
    return rows


def classify_cases(workdir: Path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import plan
    paths = []
    for seed in range(1, 21):
        (workdir / f"solve{seed}").mkdir()
        ops = plan.build("solve", seed, ROOT, workdir / f"solve{seed}")
        paths += [op["argv"][2] for op in ops if op.get("argv", [])[:1] == ["classify"]]
    rng = random.Random("corpus:classify")
    for k in range(400):
        path = workdir / f"random_{k}.json"
        path.write_text(json.dumps(_matrix_doc(_random_gcm(rng))), "utf-8")
        paths.append(str(path))
    modes = [[], ["--certificate"], ["--json"], ["--components"]]
    return [["classify", "--gcm", p, *mode] for p in paths for mode in modes]


def _digits(rng: random.Random) -> str:
    body = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))
    roll = rng.random()
    if roll < 0.15 and len(body) > 1:
        return body[0] + "_" + body[1:]
    if roll < 0.2:
        return rng.choice(["1__0", "_1", "1_", "٣", "1٠", "７"])
    return body


def eigenvalue_literals(rng: random.Random, count: int) -> list[str]:
    """Seeded literals, valid and invalid, whose values stay within the bound."""
    space = ["", "", "", " ", "  ", "\t", "\n", "　"]
    junk = ["", "x", ".", "e5", "1/2/3", "1.5/2", "1.d", "1.D", "1.dd", "nan", "inf",
            "1e", "0x10", "½", "1/-2", "1 / 2", "+-1", "--1", "1e+", "/2", "1.2.3",
            "1e1.5", "1_e2", "٣/٤"]
    out = []
    for _ in range(count):
        sign = rng.choice(["", "", "-", "+"])
        form = rng.randrange(7)
        a, b = _digits(rng), _digits(rng)
        if form == 0:
            body = a
        elif form == 1:
            body = f"{a}/{b}"
        elif form == 2:
            body = f"{a}/0"
        elif form == 3:
            body = rng.choice([f"{a}.{b}", f".{b}", f"{a}."])
        elif form == 4:
            exp = rng.choice(["", "+", "-"]) + str(rng.randint(0, 40))
            body = rng.choice([f"{a}e{exp}", f"{a}.{b}E{exp}", f".{b}e{exp}"])
        elif form == 5:
            body = rng.choice(junk)
        else:
            body = f"{rng.choice(['0', '00', '0.0'])}e{rng.randint(0, 99)}"
        out.append(rng.choice(space) + sign + body + rng.choice(space))
    return out


BOUND_LITERALS = [
    "1e4299", "9e4299", "-9.9e4298", "1e4300", "1e-4299", "1e-4300", "3e-4300",
    "2e-4300", "5e-4300", "1" * 4300, "1" * 4300 + "0", "1" * 4300 + "/1",
    "1/" + "1" * 4300, "1/" + "1" * 4301, "0" * 4301 + "1", "1e" + "0" * 4300 + "1",
    "1e99999", "1e-99999", "0e99999", "-0.000e-99999", "." + "0" * 4299 + "1",
    "1" * 4300 + "." + "1" * 4300, "1" * 4200 + "e100", "1" * 4200 + "e99",
]


def jordan_cases(literals: list[str]) -> list[list[str]]:
    return [["oracle", "jordan", "--n", str(n), f"--lambda={lam}", *mode]
            for k, lam in enumerate(literals) for n in (1 + k % 3,)
            for mode in ([], ["--json"])]


def _random_model(rng: random.Random) -> dict:
    """A non-negative model on N: a head of 0 to 6 rows, a tail of band 1 to 3."""
    head, band = rng.randint(0, 6), rng.randint(1, 3)
    diagonals = {str(d): rng.choice([0, 1, 1, 2]) for d in range(-band, band + 1)}
    diagonals[str(band)] = diagonals[str(-band)] = rng.randint(1, 2)
    entries = [[i, j, rng.choice([0, 0, 1, 2])] for i in range(head + band)
               for j in range(head + band) if min(i, j) < head]
    return {"basis": "projectives",
            "f1": {"index": "nat", "head": {"size": head, "entries": [e for e in entries if e[2]]},
                   "tail": {"band": band, "diagonals": diagonals}}}


DERIVE_MODES = [[], ["--json"], ["--basis", "simples"], ["--json", "--basis", "projectives"],
                ["--window", "4"], ["--json", "--window", "7", "--basis", "simples"]]


def derive_cases(workdir: Path) -> list[list[str]]:
    from sl2cat import modcat
    cases = [["derive", "--model", name, "--upto", str(k), *mode]
             for name in modcat.catalog_names() for k in range(25)
             for mode in DERIVE_MODES[k % 2::2]]
    rng = random.Random("corpus:derive")
    for k in range(100):
        path = workdir / f"model_{k}.json"
        path.write_text(json.dumps(_random_model(rng)), "utf-8")
        upto = str(rng.randint(0, 8))
        cases += [["derive", "--model", str(path), "--upto", upto, *mode]
                  for mode in (DERIVE_MODES[k % 3 * 2], DERIVE_MODES[k % 3 * 2 + 1])]
    return cases


def families(workdir: Path) -> dict:
    """Family name -> a function that writes its input files and returns its argvs."""
    return {
        "classify": lambda: classify_cases(workdir),
        "jordan": lambda: jordan_cases(eigenvalue_literals(random.Random("corpus:jordan"), 600)),
        "jordan-bound": lambda: jordan_cases(BOUND_LITERALS),
        "derive": lambda: derive_cases(workdir),
    }


def digest(cases: list[list[str]], workdir: Path) -> dict:
    total, listing = hashlib.sha256(), hashlib.sha256()
    for argv in cases:
        shown = [a.replace(str(workdir), "<dir>") for a in argv]
        code, out, err = run(argv)
        listing.update(json.dumps(shown).encode())
        total.update(json.dumps([shown, code, out, err.replace(str(workdir), "<dir>")]).encode())
    return {"cases": len(cases), "cases_sha256": listing.hexdigest(),
            "sha256": total.hexdigest()}


# the session asks for help after every verb has grown its own parser, in the
# reverse of the help order, so the help listing must restore the order
SESSION = [
    ["predict", "--theorem", "10.1", "--case", "e"],
    ["render", "--model", "Tinf", "--dot", "-", "--size", "3"],
    ["oracle", "restrictions", "--system", "dinf", "--truncation", "12"],
    ["oracle", "jordan", "--n", "3", "--lambda=-9/4"],
    ["oracle", "--help"],
    ["decompose", "--tensor", "L(1) x P(-2)"],
    ["obstruction", "--model", "BinfDual", "--depth", "2"],
    ["verify-catalog"],
    ["transitive", "--model", "Tinf"],
    ["derive", "--model", "Dinf", "--upto", "2"],
    ["classify", "--gcm", "<a2>", "--certificate"],
    ["frobnicate"],
    ["--help"],
    ["oracle", "o-tensor", "--n", "1", "--object", "P(-2)"],
    ["oracle", "frob"],
]


def session(src: Path) -> list[dict]:
    """SESSION in one fresh ``python -I`` process: exit code, stdout digest, stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        a2 = Path(tmp) / "a2.json"
        a2.write_text(json.dumps(_matrix_doc([[2, -1], [-1, 2]])), "utf-8")
        argvs = [[str(a2) if a == "<a2>" else a for a in argv] for argv in SESSION]
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); sys.path.insert(0, {str(HERE)!r})\n"
                "import hashlib, json, corpus\n"
                f"for argv in {argvs!r}:\n"
                "    code, out, err = corpus.run(argv)\n"
                "    print(json.dumps({'code': code, 'stdout_sha256':"
                " hashlib.sha256(out.encode()).hexdigest(), 'stderr': err}))\n")
        env = {**os.environ, "COLUMNS": COLUMNS}
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, env=env, check=True)
    return [{"argv": argv, **json.loads(line)}
            for argv, line in zip(SESSION, proc.stdout.splitlines())]


def help_goldens(src: Path) -> dict:
    """The full text of each HELP_ARGVS case, and the fresh-process session.
    The caller sets COLUMNS in this process's environment."""
    cases = []
    for argv in HELP_ARGVS:
        code, out, err = run(argv)
        cases.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    return {"cases": cases, "session": session(src)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", action="append", metavar="NAME",
                        help="run only this family (repeatable)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with corpus.json")
    mode.add_argument("--record", action="store_true", help="rewrite corpus.json")
    mode.add_argument("--record-help", action="store_true", help="rewrite help_goldens.json")
    args = parser.parse_args(argv)
    import sl2cat
    src = Path(sl2cat.__file__).resolve().parents[1]
    os.environ["COLUMNS"] = COLUMNS
    if args.record_help:
        HELP_GOLDENS.write_text(json.dumps(help_goldens(src), indent=1) + "\n", "utf-8")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        table = families(workdir)
        got = {name: digest(table[name](), workdir) for name in args.family or table}
    print(json.dumps(got, indent=1))
    recorded = json.loads(MANIFEST.read_text("utf-8")) if MANIFEST.exists() else {}
    if args.record:
        MANIFEST.write_text(json.dumps({**recorded, **got}, indent=1, sort_keys=True) + "\n",
                            "utf-8")
    if args.check:
        differ = sorted(name for name in got if recorded.get(name) != got[name])
        for name in differ:
            print(f"differs: {name}", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
