"""Run a list of `k3lines` CLI calls through `k3lines.cli.main` in this one
process, in order, as a script or notebook user would.

    python3 bench/session.py CALLS.json RESULT.json [--trace]

CALLS.json is a list of {"id": ..., "argv": [...]}.  RESULT.json receives,
per call, the exit code, the exact stdout text and the wall time, plus the
wall and process CPU time from the first call's start to the last call's
end.  With `--trace` every public function of every `k3lines` module is
wrapped in a span first (see tracer.py), and the spans and their
aggregates are written to RESULT.json as well.

The parent sets PYTHONPATH to the checkout's `src` and the working
directory to the checkout root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def run_calls(calls, main) -> tuple[list[dict], float, float]:
    """Per-call results, then wall and process CPU time over all calls."""
    results = []
    first = time.perf_counter()
    first_cpu = time.process_time()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(call["argv"]))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash exits 1 in the CLI process too
                rc = 1
                err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        results.append({
            "id": call["id"],
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "wall_s": wall,
        })
    return (results, time.perf_counter() - first,
            time.process_time() - first_cpu)


def enumeration_observer():
    """Counts fragments found and distinct configurations searched by
    `fano.enumerate_fragments`."""
    seen: set = set()
    totals = {"fragments_found": 0}

    def observe(args, kwargs, result):
        cfg = args[0] if args else kwargs.get("cfg")
        try:
            seen.add(cfg)
        except TypeError:  # an unhashable configuration type
            seen.add(id(cfg))
        totals["fragments_found"] += len(result)

    return observe, seen, totals


def main(argv: list[str]) -> int:
    calls_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(calls_path) as fh:
        calls = json.load(fh)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        observe, seen, totals = enumeration_observer()
        tracer.observers["fano.enumerate_fragments"] = observe
        tracer.install()
    import k3lines.cli

    results, calls_wall, calls_cpu = run_calls(calls, k3lines.cli.main)
    doc = {"calls": results, "calls_wall_s": calls_wall,
           "calls_cpu_s": calls_cpu}
    if tracer is not None:
        doc["distinct_configs"] = len(seen)
        doc.update(totals)
        tracer.dump(result_path, doc)
    else:
        with open(result_path, "w") as fh:
            json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
