"""Cold-process benchmark of the sl2cat CLI and library.

    python3 bench/run.py --workload {catalog,derive,solve} --seed N --seconds S --trace {0,1}

Run from a checkout: the program is imported from ``src/`` next to this
directory.  Every round starts a fresh worker interpreter (``worker.py``),
so the module caches start empty as they do for a CLI user.  Rounds run
one at a time from this process (a closed loop with one client) until a
round of typical length would end past ``--seconds``.  Every op's output is checked by
``checks.py``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: op times are each op's
fastest round, ``setup_s`` and ``peak_rss_mib`` are medians over workers.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics: span counts and times from the traced rounds (median),
size-resolved op times from the untraced ones, and their wall-time ratio
as ``tracing.overhead_ratio``.  README.md lists what each metric means and
which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import plan  # noqa: E402

SETUP_WORKERS = 15  # set-up-only workers per run, on top of one per round
RUN_LIMIT_S = 170  # a run must exit within 180 s
WORKER_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("op_max_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]

# Size-resolved op times: the label of each op (see plan.py) plus "_s".
SIZE_RESOLVED = [
    "derive.K8_s", "derive.K16_s", "derive.K24_s",
    "solve.restrictions_T12_s", "solve.restrictions_T20_s",
    "solve.jordan_N50_s", "solve.jordan_N100_s", "solve.jordan_N150_s",
    "solve.obstruction_d6_s", "solve.obstruction_d7_s", "solve.obstruction_d8_s",
    "catalog.cold_pass_s", "catalog.warm_pass_s",
]
# (name, unit): span metrics from traced rounds, then worker clocks, then
# size-resolved op times from untraced rounds.
PER_LAYER = [
    ("presented.mul.calls", "count"), ("presented.mul.self_s", "s"),
    ("presented.mul.max_head", "count"), ("presented.mul.max_band", "count"),
    ("presented.add.calls", "count"), ("presented.add.self_s", "s"),
    ("presented.poly_eval.calls", "count"), ("presented.poly_eval.s", "s"),
    ("presented.poly_eval.repeat_ratio", "ratio"),
    ("presented.from_json_dict.s", "s"), ("presented.to_json_dict.s", "s"),
    ("presented.apply.calls", "count"), ("presented.apply.s", "s"),
    ("presented.self_s", "s"),
    ("fusion.r_poly.calls", "count"), ("fusion.self_s", "s"),
    ("modcat.derive_action.calls", "count"), ("modcat.derive_action.s", "s"),
    ("modcat.derive_action.repeat_ratio", "ratio"), ("modcat.self_s", "s"),
    ("dynkin.classify.calls", "count"), ("dynkin.classify.s", "s"),
    ("dynkin.find_positive_null_vector.s", "s"),
    ("dynkin.check_coxeter_annihilation.s", "s"), ("dynkin.self_s", "s"),
    ("oracles.restriction_consistency_solve.calls", "count"),
    ("oracles.restriction_consistency_solve.s", "s"),
    ("oracles.restrictions.unknowns", "count"),
    ("oracles.jordan_kronecker_oracle.s", "s"), ("oracles.jordan.matrix_dim", "count"),
    ("oracles.derive_catalog_matrix.s", "s"), ("oracles.restriction_action_matrix.s", "s"),
    ("oracles.self_s", "s"),
    ("obstruction.solve_feasibility.calls", "count"),
    ("obstruction.solve_feasibility.s", "s"), ("obstruction.self_s", "s"),
    ("obstruction.trace_events", "count"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "B"),
    ("setup.import_s", "s"), ("setup.catalog_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
    *[(name, "s") for name in SIZE_RESOLVED],
    ("derive.scaling_exp", "1"),
]


class WorkerFailed(RuntimeError):
    pass


def _run_worker(workdir: Path, tag: str, ops: list[dict], trace: bool, timeout: float) -> dict:
    outdir = workdir / tag
    outdir.mkdir()
    job, result = workdir / f"{tag}.job.json", workdir / f"{tag}.result.json"
    job.write_text(json.dumps({"ops": ops, "trace": trace, "outdir": str(outdir)}), "utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), str(ROOT), str(job), str(result)],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {tag} ran over {timeout:.0f} s") from None
    if proc.returncode != 0 or not result.exists():
        raise WorkerFailed(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text("utf-8"))


def _span_metrics(result: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced worker."""
    names, spans = result["names"], result["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for k, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + (end - start) - child[k]
        # a span nested in a span of the same name is already counted
        while parent >= 0 and spans[parent][0] != name_id:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] = inclusive.get(name, 0.0) + end - start
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive[name]
        out[f"{name}.self_s"] = own[name]
        module = name.split(".")[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + own[name]
    counters = dict(result["counters"])
    for name in ("presented.poly_eval", "modcat.derive_action"):
        repeats = counters.pop(f"{name}.repeats")
        out[f"{name}.repeat_ratio"] = repeats / calls[name] if calls.get(name) else 0.0
    out.update(counters)
    return out


def _op_times(rounds: list[dict]) -> dict[int, list[float]]:
    """Each op's times over the rounds."""
    times: dict[int, list[float]] = {}
    for r in rounds:
        for o in r["ops"]:
            times.setdefault(o["id"], []).append(o["seconds"])
    return times


def measure(workload: str, ops: list[dict], workdir: Path, seconds: float,
            trace: bool) -> dict:
    """Run rounds of cold workers on ops for about `seconds`; return the result object."""
    started = time.perf_counter()
    deadline = started + seconds
    verdicts: dict[tuple, str | None] = {}  # byte-identical outputs share a verdict
    by_id = {op["id"]: op for op in ops}
    attempted = failed = 0
    reasons: list[str] = []
    setups: list[dict] = []
    rounds: list[dict] = []

    def worker(tag: str, worker_ops: list[dict], traced: bool) -> dict:
        limit = started + RUN_LIMIT_S - time.perf_counter()
        return _run_worker(workdir, tag, worker_ops, traced, min(WORKER_TIMEOUT_S, limit))

    worker("prime", [], False)  # writes bytecode caches in a fresh checkout; not measured
    for k in range(SETUP_WORKERS):
        setups.append(worker(f"setup{k}", [], False))
    durations: list[float] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        tag = f"round{len(rounds)}"
        t0 = time.perf_counter()
        try:
            result = worker(tag, ops, traced)
        except WorkerFailed as exc:
            attempted += len(ops)
            failed += len(ops)
            reasons.append(str(exc))
            break
        setups.append(result)
        result["traced"] = traced
        rounds.append(result)
        for o in result["ops"]:
            op = by_id[o["id"]]
            text = (workdir / tag / f"{op['id']}.out").read_text("utf-8")
            key = (op["id"], o["rc"], o["error"], hashlib.sha256(text.encode()).digest())
            if key not in verdicts:
                verdicts[key] = checks.check_op(op, o["rc"], text, o["error"])
            attempted += 1
            if verdicts[key] is not None:
                failed += 1
                stderr = o["stderr"].strip()
                reasons.append(f"op {op['id']} {op.get('argv', op['call'])}: {verdicts[key]}"
                               + (f" (stderr: {stderr.splitlines()[-1]})" if stderr else ""))
        shutil.rmtree(workdir / tag)
        durations.append(time.perf_counter() - t0)
        # stop when a typical round would end past the deadline; the slowest
        # round seen must still fit in the hard limit
        now = time.perf_counter()
        enough = len(rounds) >= (2 if trace else 1)
        if enough and (now + statistics.median(durations) > deadline
                       or now + max(durations) > started + RUN_LIMIT_S - 10):
            break

    # Op times are each op's fastest round.  On a shared machine a
    # co-tenant can halve this process's speed for tens of seconds at a
    # time, which moves a median over a run's rounds by up to 2x between
    # runs; the fastest round is what the program itself costs.
    plain = [r for r in rounds if not r["traced"]]
    times = _op_times(plain)
    best = {k: min(v) for k, v in times.items()}
    median = {k: statistics.median(v) for k, v in times.items()}
    metrics: dict[str, float] = {}
    if best:
        metrics["wall_s"] = sum(best.values())
        metrics["op_max_s"] = max(best.values())
        metrics["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in plain)
    metrics["setup_s"] = statistics.median(s["import_s"] + s["catalog_s"] for s in setups)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.catalog_s"] = statistics.median(s["catalog_s"] for s in setups)

    by_label: dict[str, list[float]] = {}
    for k, seconds in best.items():
        if by_id[k]["label"] is not None:
            by_label.setdefault(f"{by_id[k]['label']}_s", []).append(seconds)
    for name in SIZE_RESOLVED:
        metrics[name] = statistics.median(by_label[name]) if name in by_label else 0.0
    k16, k24 = metrics["derive.K16_s"], metrics["derive.K24_s"]
    metrics["derive.scaling_exp"] = math.log(k24 / k16) / math.log(24 / 16) if k16 and k24 else 0.0

    traced_rounds = [r for r in rounds if r["traced"]]
    if traced_rounds:
        layers = [_span_metrics(r) for r in traced_rounds]
        for r, layer in zip(traced_rounds, layers):
            layer["cli.stdout_bytes"] = sum(o["stdout_bytes"] for o in r["ops"]
                                            if by_id[o["id"]]["call"] == "cli")
        for name, unit in PER_LAYER:
            if name not in metrics:
                metrics[name] = statistics.median(layer.get(name, 0) for layer in layers)
        traced_wall = sum(min(v) for v in _op_times(traced_rounds).values())
        metrics["tracing.overhead_ratio"] = traced_wall / metrics["wall_s"] if best else 0.0

    wanted = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "rounds": len(plain),
        "traced_rounds": len(traced_rounds),
        "workers": len(setups),
        "median_wall_s": sum(median.values()),
        "reasons": reasons,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sl2cat" / "__init__.py").is_file():
        print(f"error: no sl2cat sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ops = plan.build(args.workload, args.seed, ROOT, workdir)
        result = measure(args.workload, ops, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for reason in result["reasons"]:
        print(f"FAILED {reason}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds "
          f"(+{result['traced_rounds']} traced), {result['workers']} workers, "
          f"{result['attempted']} ops, error_rate {rate:.4g} ({result['failed']} failed)")
    print(f"  median over rounds: wall {result['median_wall_s']:.6g} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<45} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
