"""The k3lines benchmark.

    python3 bench/run.py --workload census --seed 1 --seconds 18 --trace 0

Run from the root of a k3lines checkout.  The program under test is the
checkout's own `src/k3lines`, run as `python -m k3lines.cli` with
PYTHONPATH set to `src`.  The load is a closed loop with one client: each
call starts only after the previous one has exited.

With `--trace 0` a run measures, in this order:
  * set-up: fresh interpreters running `k3lines --help` (import and parser);
  * session: every call of the workload, in order, through
    `k3lines.cli.main` in one fresh process, once; repeated in new
    processes while another session still fits in `--seconds`;
  * cold: every call in its own fresh process, one full pass, then more
    passes over the calls that still fit until `--seconds` have passed.
With `--trace 1` it runs the session twice, untraced and then with a span
around every public function of every `k3lines` module, and reports the
per-layer metrics named in BENCHMARK.json.  The workload's probe calls
(see workloads.py) run in these two sessions only.

Every output is checked (see workloads.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A full report,
with machine info and per-call samples, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.out_dir = root / ".bench_out"

    def spawn(self, args: list[str], stdout_path: Path) -> dict:
        """Run one child to completion; wall, user+sys CPU and max RSS."""
        limit = self.deadline - time.perf_counter()
        if limit <= 0:
            raise BenchError(f"out of time before {args[:3]}")
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        with open(stdout_path, "wb") as out, open(
            f"{stdout_path}.err", "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + args,
                cwd=self.root, env=self.env, stdout=out, stderr=err,
            )
            timer = threading.Timer(limit, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BenchError(f"stopped after {wall:.1f} s: {args[:3]}")
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout_path.read_text(),
        }

    def cli(self, argv: list[str], tmp: Path) -> dict:
        return self.spawn(["-m", "k3lines.cli"] + argv, tmp / "stdout.txt")

    def session(self, calls, tmp: Path, traced: bool) -> tuple[dict, dict]:
        calls_path = tmp / "calls.json"
        calls_path.write_text(json.dumps(
            [{"id": c.id, "argv": c.argv} for c in calls]
        ))
        result_path = tmp / ("traced.json" if traced else "session.json")
        args = [str(HERE / "session.py"), str(calls_path), str(result_path)]
        sample = self.spawn(args + (["--trace"] if traced else []),
                            tmp / "session-stdout.txt")
        if sample["rc"] != 0 or not result_path.is_file():
            raise BenchError(f"session child failed: rc {sample['rc']}")
        return sample, json.loads(result_path.read_text())


class BenchError(Exception):
    pass


class Checker:
    """Counts attempted and failed calls against expected.json."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, call, rc: int, stdout: str) -> bool:
        self.attempted += 1
        want = self.expected.get(call.id)
        problems = []
        if want is None:
            problems.append("no expected output recorded")
        elif rc != want["rc"]:
            problems.append(f"exit code {rc}, expected {want['rc']}")
        else:
            try:
                if workloads.digest(call, stdout) != want["digest"]:
                    problems.append("stdout differs from the recorded output")
                problems += workloads.fact_errors(call, stdout)
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            self.errors.append(f"{call.id}: {'; '.join(problems)}")
        return not problems

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


# -- the two kinds of run ------------------------------------------------------


def measure_untraced(runner, calls, tmp, seconds, checker, report) -> dict:
    calls = [c for c in calls if not c.probe]
    runner.cli(["--help"], tmp)  # fills the byte-code cache; not timed
    setup = []
    for _ in range(SETUP_REPEATS):
        sample = runner.cli(["--help"], tmp)
        if sample["rc"] != 0 or "usage" not in sample["stdout"]:
            checker.fail(f"--help exited {sample['rc']}")
        del sample["stdout"]
        setup.append(sample)

    sessions = []
    session_out: dict[str, str] = {}
    start = time.perf_counter()
    while not sessions or (
        time.perf_counter() - start + sessions[-1]["wall_s"] <= seconds
    ):
        sample, session = runner.session(calls, tmp, traced=False)
        sessions.append(sample)
        for call, result in zip(calls, session["calls"]):
            ok = checker.check(call, result["rc"], result["stdout"])
            first = session_out.setdefault(call.id, result["stdout"])
            if ok and result["stdout"] != first:
                checker.fail(f"{call.id}: two sessions' stdout differ")

    samples: dict[str, list[dict]] = {c.id: [] for c in calls}
    start = time.perf_counter()
    stop = start + seconds

    def cold(call) -> None:
        sample = runner.cli(call.argv, tmp)
        ok = checker.check(call, sample["rc"], sample["stdout"])
        if ok and sample["stdout"] != session_out[call.id]:
            checker.fail(f"{call.id}: cold and session stdout differ")
        del sample["stdout"]
        samples[call.id].append(sample)

    for call in calls:  # one full pass, however long it takes
        cold(call)
    progressed = True
    while progressed:  # then whatever still fits in the window
        progressed = False
        for call in calls:
            if time.perf_counter() + median(
                s["wall_s"] for s in samples[call.id]
            ) > stop:
                continue
            cold(call)
            progressed = True

    per_call = {
        cid: {
            "wall_s": median(s["wall_s"] for s in ss),
            "cpu_s": median(s["cpu_s"] for s in ss),
            "samples": len(ss),
        }
        for cid, ss in samples.items()
    }
    report.update(
        setup_samples=setup,
        sessions=len(sessions),
        session_calls_s={r["id"]: r["wall_s"] for r in session["calls"]},
        cold_window_s=time.perf_counter() - start,
        cold_per_call=per_call,
    )
    walls = [v["wall_s"] for v in per_call.values()]
    cpus = [v["cpu_s"] for v in per_call.values()]
    return {
        "setup_s": median(s["cpu_s"] for s in setup),
        "cold_cpu_s": sum(cpus),
        "session_cpu_s": median(s["cpu_s"] for s in sessions),
        "peak_rss_mb": max(s["rss_mb"] for ss in samples.values() for s in ss),
        # Reported, not gated (see README.md).
        "cold_p50_cpu_s": median(cpus),
        "setup_wall_s": median(s["wall_s"] for s in setup),
        "cold_wall_s": sum(walls),
        "cold_p50_s": median(walls),
        "session_wall_s": median(s["wall_s"] for s in sessions),
    }


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Every per-layer figure the traced session yields, by metric name."""
    spans = traced["aggregates"]
    edges = traced["edges"]
    out: dict[str, float] = {}
    modules: dict[str, float] = {}
    for name, (calls, incl, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + self_s
    for module, self_s in modules.items():
        out[f"{module}.self_s"] = self_s
    enumerations = spans.get("fano.enumerate_fragments", [0])[0]
    out["fano.fragments_found"] = traced.get("fragments_found", 0)
    out["fano.enumerations_per_config"] = (
        enumerations / traced["distinct_configs"]
        if traced.get("distinct_configs") else 0.0
    )
    aut_calls = spans.get("fqf.automorphism_group", [0])[0]
    misses = edges.get("fqf.automorphism_group>fqf.fqf_isometries", 0)
    out["fqf.aut_cache_hit_ratio"] = (
        (aut_calls - misses) / aut_calls if aut_calls else 0.0
    )
    pool_wall = sum(wall * workers for wall, workers, _ in traced["pool_calls"])
    pool_busy = sum(busy for _, _, busy in traced["pool_calls"])
    out["parallel.busy_ratio"] = pool_busy / pool_wall if pool_wall else 0.0
    wall = traced["calls_wall_s"]
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.overhead_ratio"] = (wall - untraced_wall) / untraced_wall
    out["trace.cpu_s"] = traced["calls_cpu_s"]
    out["trace.spans"] = sum(c for c, _, _ in spans.values())
    return out


def measure_traced(runner, calls, tmp, checker, report) -> dict:
    _, untraced = runner.session(calls, tmp, traced=False)
    _, traced = runner.session(calls, tmp, traced=True)
    for call, a, b in zip(calls, untraced["calls"], traced["calls"]):
        ok = checker.check(call, b["rc"], b["stdout"])
        if ok and a["stdout"] != b["stdout"]:
            checker.fail(f"{call.id}: traced and untraced stdout differ")
    figures = layer_metrics(traced, untraced["calls_wall_s"])
    report.update(
        traced_calls_s={r["id"]: r["wall_s"] for r in traced["calls"]},
        untraced_calls_s={r["id"]: r["wall_s"] for r in untraced["calls"]},
        edges=traced["edges"],
        dropped_spans=traced["dropped_spans"],
    )
    name = f"spans-{report['workload']}-{report['seed']}.json"
    trace_path = runner.out_dir / name
    shutil.copyfile(tmp / "traced.json", trace_path)
    report["spans_file"] = str(trace_path.relative_to(runner.root))
    return figures


# -- entry point ---------------------------------------------------------------


def record_expected(root: Path, runner: Runner, threads: int) -> int:
    """Write expected.json from the checkout's current outputs.  Only for
    a deliberate change of the program's output: every later run is
    checked against what this records."""
    expected = {}
    for workload in workloads.WORKLOADS:
        tmp = Path(tempfile.mkdtemp(prefix="record-", dir=runner.out_dir))
        try:
            calls = workloads.build(workload, 0, tmp, root, threads)
            _, session = runner.session(calls, tmp, traced=False)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for call, result in zip(calls, session["calls"]):
            errors = workloads.fact_errors(call, result["stdout"])
            if result["rc"] != 0 or errors:
                sys.stderr.write(
                    f"error: {call.id}: rc {result['rc']} {errors}\n"
                )
                return 1
            expected[call.id] = {
                "rc": result["rc"],
                "digest": workloads.digest(call, result["stdout"]),
            }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded {len(expected)} expected outputs")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="rewrite expected.json from this checkout's outputs",
    )
    args = parser.parse_args(argv)
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")

    run_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "k3lines" / "cli.py").is_file() or not (
        root / "corpus"
    ).is_dir():
        sys.stderr.write(
            "error: run from the root of a k3lines checkout "
            "(src/k3lines and corpus/ not found)\n"
        )
        return 2
    threads = len(os.sched_getaffinity(0))
    runner = Runner(root, run_start + RUN_LIMIT_S)
    runner.out_dir.mkdir(exist_ok=True)
    if args.record_expected:
        runner.deadline = run_start + 600
        return record_expected(root, runner, threads)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    checker = Checker(expected)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": threads, "machine": machine_info(),
    }
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=runner.out_dir))
    try:
        calls = workloads.build(args.workload, args.seed, tmp, root, threads)
        if args.trace:
            figures = measure_traced(runner, calls, tmp, checker, report)
            wanted = spec["per_layer"]
        else:
            figures = measure_untraced(
                runner, calls, tmp, args.seconds, checker, report
            )
            wanted = spec["end_to_end"]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {
        m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    report.update(
        metrics=metrics, figures=figures,
        attempted=checker.attempted, failed=checker.failed,
        errors=checker.errors, run_s=time.perf_counter() - run_start,
    )
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    (runner.out_dir / name).write_text(json.dumps(report, indent=1) + "\n")

    info = report["machine"]
    print(f"k3lines benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; Python {info['python']}, nproc {info['nproc']}, "
          f"{info['cpu_model']}")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print("  not gated:")
        for key in ("cold_p50_cpu_s", "setup_wall_s", "cold_wall_s",
                    "cold_p50_s", "session_wall_s"):
            print(f"  {key:42s} {figures[key]:>14.6g} s")
    print(f"  failed_frac {checker.failed / max(1, checker.attempted):.4g} "
          f"({checker.failed} of {checker.attempted} calls)")
    for error in checker.errors[:20]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
