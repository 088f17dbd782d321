"""Tests of the benchmark itself: python3 -m pytest bench -q

They run tiny versions of each workload in real cold workers.
"""

import json
import shutil
import subprocess
import sys

import pytest

import plan
import run

sys.path.insert(0, str(run.ROOT / "src"))

# Per workload: the .calls metrics its ops must reach, and those it must not.
EXERCISED = {
    "catalog": ({"presented.mul", "presented.add", "presented.poly_eval", "presented.apply",
                 "fusion.r_poly", "modcat.derive_action", "dynkin.classify",
                 "oracles.restriction_consistency_solve", "obstruction.solve_feasibility"},
                set()),
    "derive": ({"presented.mul", "presented.add", "presented.poly_eval", "fusion.r_poly",
                "modcat.derive_action"},
               {"dynkin.classify", "oracles.restriction_consistency_solve",
                "obstruction.solve_feasibility"}),
    "solve": ({"presented.poly_eval", "fusion.r_poly", "dynkin.classify",
               "oracles.restriction_consistency_solve", "obstruction.solve_feasibility"},
              {"modcat.derive_action"}),
}
MODULES = {
    "catalog": ("presented", "fusion", "modcat", "dynkin", "obstruction", "oracles", "cli"),
    "derive": ("presented", "fusion", "modcat", "cli"),
    "solve": ("presented", "fusion", "modcat", "dynkin", "obstruction", "oracles", "cli"),
}


def _tiny(workload, tmp_path, seed=7):
    return plan.build(workload, seed, run.ROOT, tmp_path, tiny=True)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)


def test_same_seed_gives_same_inputs(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for workload in plan.WORKLOADS:
        a = json.dumps(plan.build(workload, 3, run.ROOT, first)).replace(str(first), "")
        b = json.dumps(plan.build(workload, 3, run.ROOT, second)).replace(str(second), "")
        assert a == b


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_tiny_workload_has_no_errors(workload, tmp_path):
    result = run.measure(workload, _tiny(workload, tmp_path), tmp_path, 0, trace=False)
    assert result["reasons"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("kind, corrupt", [
    ("jordan", lambda c: c.update({"lambda": "1/3" if c["lambda"] != "1/3" else "2"})),
    ("restrictions", lambda c: c.update({"truncation": c["truncation"] + 1})),
    ("classify", lambda c: c["gcm"][0].__setitem__(0, 3)),
    ("feasibility", lambda c: c.update({"status": "UNSAT"})),
    ("text", lambda c: c.update({"first_line": c["first_line"].replace("SAT", "UNSAT")})),
])
def test_wrong_expected_answer_counts_as_failure(kind, corrupt, tmp_path):
    ops = _tiny("solve", tmp_path)
    target = next(op for op in ops if op["check"]["kind"] == kind)
    corrupt(target["check"])
    result = run.measure("solve", ops, tmp_path, 0, trace=False)
    assert result["failed"] == 1 and not result["correct"]
    assert result["reasons"][0].startswith(f"op {target['id']} ")


def test_wrong_derive_input_counts_as_failure(tmp_path):
    ops = _tiny("derive", tmp_path)
    head = ops[0]["check"]["f1"]["head"]
    head["entries"] = head["entries"] + [[0, 0, 5]] if [0, 0, 5] not in head["entries"] else []
    result = run.measure("derive", ops, tmp_path, 0, trace=False)
    assert result["failed"] == 1


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_traced_run_counts_every_exercised_layer(workload, tmp_path):
    result = run.measure(workload, _tiny(workload, tmp_path), tmp_path, 0, trace=True)
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    used, bypassed = EXERCISED[workload]
    for layer in used:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in bypassed:
        assert metrics[f"{layer}.calls"] == 0, layer
    for module in MODULES[workload]:
        assert metrics[f"{module}.self_s"] > 0, module
    assert metrics["tracing.overhead_ratio"] > 0
    assert metrics["cli.stdout_bytes"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "derive", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
