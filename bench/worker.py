"""One cold benchmark worker.

    python3 -I bench/worker.py ROOT JOB RESULT

ROOT is the checkout holding ``src/sl2cat``.  JOB is a JSON file with
``ops`` (see ``plan.py``; empty for a set-up-only worker), ``trace`` and
``outdir``.  The worker times ``import sl2cat.cli`` and the first
``modcat.catalog_names()`` on its own clock, runs the ops in order with
stdout captured, writes each op's stdout to ``outdir/<id>.out`` outside the
timed region, and writes RESULT as JSON.  It imports only ``sys`` and
``time`` before sl2cat, so the import is timed as a user's cold start.
"""

import sys
import time


def main() -> int:
    root, job_path, result_path = sys.argv[1:4]
    sys.path.insert(0, root + "/src")
    t0 = time.perf_counter()
    import sl2cat.cli  # noqa: F401  (the CLI imports every module)
    t1 = time.perf_counter()
    from sl2cat import cli, modcat
    modcat.catalog_names()
    t2 = time.perf_counter()

    import contextlib
    import io
    import json
    import resource
    import traceback
    from pathlib import Path

    job = json.loads(Path(job_path).read_text("utf-8"))
    outdir = Path(job["outdir"])
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing
        tracer = tracing.install()

    ops = []
    for op in job["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        out, err = io.StringIO(), io.StringIO()
        rc, error, report = None, None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["call"] == "cli":
                    rc = cli.main(op["argv"])
                else:
                    report = modcat.socle_top_feasibility(
                        modcat.catalog(op["model"]), op["depth"], max_depth=op["max_depth"])
                    rc = 0
        except Exception:  # the op failed; its traceback is the reported reason
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        text = out.getvalue() if report is None else json.dumps(report.to_json())
        (outdir / f"{op['id']}.out").write_text(text, "utf-8")
        ops.append({"id": op["id"], "seconds": seconds, "rc": rc, "error": error,
                    "stdout_bytes": len(text.encode("utf-8")), "stderr": err.getvalue()})

    result = {"import_s": t1 - t0, "catalog_s": t2 - t1, "ops": ops,
              # Linux reports ru_maxrss in KiB
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result.update(names=tracer.names, spans=tracer.spans, counters=tracer.counters())
    Path(result_path).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
