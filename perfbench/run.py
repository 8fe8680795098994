"""Benchmark of the elbench CLI pipeline on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload kb_large --seed 1 --seconds 30 --trace 0

--trace 0 runs the pipeline as users run it, one `elbench` subprocess per
command, and reports the end-to-end metrics.  --trace 1 runs the same commands
in-process with spans around every call into an elbench module and reports
the per-layer metrics (see traced.py).  Both check every output against the
counts the generator planted and print, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record of the
run is also written to .perfbench_out/.  Workloads and metrics are listed in
BENCHMARK.json and explained in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import pipeline
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# setup_s is the median of this many set-ups; each takes about a second.
SETUP_REPEATS = 5

# On a shared machine the CPU speed drifts by 25% or more over seconds to
# minutes, and every command slows together.  So each command is timed
# between two runs of a fixed pure-Python task (json, dicts, strings), and its
# time is reported at the reference speed: seconds x REFERENCE_S / (mean of the
# two reference times).  A change to elbench moves the command but not the
# reference, so it still shows in full.  The raw times are kept in the record.
# The task's working set (a 2 MB JSON text, a 20k-entry dict) is of the size
# elbench's own tables have here, so contention slows both alike.
REFERENCE_S = 0.05
_REFERENCE_BLOB = json.dumps([{"id": i, "text": "Word " * 12 + str(i),
                               "links": {f"m{j}": f"Title_{i}_{j}" for j in range(4)}}
                              for i in range(20_000)])


def reference_seconds() -> float:
    start = time.perf_counter()
    table = {}
    for record in json.loads(_REFERENCE_BLOB):
        key = " ".join(record["text"].split())
        table[key] = [title.replace("_", " ") for title in record["links"].values()]
    return time.perf_counter() - start


class Calibrated:
    """Runs commands between reference timings; keeps raw and calibrated seconds."""

    def __init__(self, cwd: str, env: Dict[str, str]):
        self.cwd = cwd
        self.env = env
        self.references: List[float] = [reference_seconds()]

    def run(self, args: List[str]) -> Dict[str, float]:
        timing = run_cli(args, self.cwd, self.env)
        self.references.append(reference_seconds())
        speed = REFERENCE_S / ((self.references[-2] + self.references[-1]) / 2)
        return {**timing, "calibrated": timing["seconds"] * speed}


def python_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(pipeline.child_env())
    env["PYTHONPATH"] = SRC
    return env


def run_cli(args: List[str], cwd: str, env: Dict[str, str]) -> Dict[str, float]:
    """Run one elbench command; return its wall time and peak RSS.

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which keeps the largest child seen so far.
    """
    log_path = os.path.join(cwd, "command.log")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "elbench.cli", *args], cwd=cwd, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as log:
            tail = log.read()[-2000:]
        raise pipeline.CommandFailed(f"elbench {args[0]} exited {proc.returncode}:\n{tail}")
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0}


def run_untraced(wl: workloads.Workload, seconds: float, cwd: str,
                 stub: Optional[pipeline.CompletionStub]) -> dict:
    runner = Calibrated(cwd, python_env())
    setup = pipeline.setup_steps(wl)
    steps = pipeline.pipeline_steps(wl, stub.url if stub else None)
    problems: List[str] = []

    setup_runs = []
    setup_raw = []
    setup_digests = None
    for _ in range(SETUP_REPEATS):
        timings = [runner.run(args) for args in setup.values()]
        setup_runs.append(sum(t["calibrated"] for t in timings))
        setup_raw.append(sum(t["seconds"] for t in timings))
        current = pipeline.digests(cwd, ["fixture.jsonl"] if "record" in setup else [])
        if setup_digests is None:
            setup_digests = current
        elif current != setup_digests:
            problems.append(f"set-up artifacts differ between repeats: {current} vs {setup_digests}")

    iterations = []
    first_digests = None
    link_errors = 0
    started = time.perf_counter()
    while True:
        if stub:
            stub.reset()
        timings = {name: runner.run(args) for name, args in steps.items()}
        record = {name: t["calibrated"] for name, t in timings.items()}
        record["pipeline"] = sum(record.values())
        record["peak_rss_mb"] = max(t["rss_mb"] for t in timings.values())
        record["raw"] = {name: t["seconds"] for name, t in timings.items()}
        if stub:
            record["requests"] = stub.requests
            record["injected_503"] = stub.injected_503
        link_errors += pipeline.count_link_errors(cwd)
        current = pipeline.digests(cwd, pipeline.ARTIFACTS)
        if first_digests is None:
            first_digests = current
            problems += pipeline.check_outputs(wl, cwd)
        elif current != first_digests:
            changed = sorted(k for k in current if current[k] != first_digests[k])
            problems.append(f"pass {len(iterations) + 1}: artifacts differ from pass 1: {changed}")
        iterations.append(record)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(iterations) > seconds:
            break

    def median(key):
        return statistics.median(it[key] for it in iterations)

    metrics = {
        "setup_s": (statistics.median(setup_runs), "s"),
        "sentences_per_s": (wl.size.sentences / median("pipeline"), "sentences/s"),
        "link_s": (median("link"), "s"),
        "resolve_s": (median("resolve"), "s"),
        "resolve_external_s": (median("resolve_external"), "s"),
        "score_s": (statistics.median(it["score_title"] + it["score_qid"] for it in iterations), "s"),
        "stratify_s": (median("stratify"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    detail = {"setup_s": pipeline.summarize(setup_runs)}
    for key in list(steps) + ["pipeline", "peak_rss_mb"]:
        detail[key] = pipeline.summarize([it[key] for it in iterations])
    detail["raw setup_s"] = pipeline.summarize(setup_raw)
    for key in steps:
        detail[f"raw {key}"] = pipeline.summarize([it["raw"][key] for it in iterations])
    detail["reference_s"] = pipeline.summarize(runner.references)
    if stub:
        for key in ("requests", "injected_503"):
            detail[key] = pipeline.summarize([it[key] for it in iterations])
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": wl.size.sentences * len(iterations),
        "failed": link_errors,
        "detail": detail,
        "iterations": iterations,
        "setup_runs": setup_runs,
        "setup_raw": setup_raw,
        "references": runner.references,
        "sha256": {**(setup_digests or {}), **(first_digests or {})},
    }


def program_present() -> bool:
    return (os.path.isfile(os.path.join(SRC, "elbench", "cli.py"))
            and os.path.isfile(os.path.join(TESTS, "stubserver.py")))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: elbench sources not found under {ROOT}: expected src/elbench and "
              "tests/stubserver.py", file=sys.stderr)
        return 2
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads.SIZES]
        return max(codes)
    sys.path[:0] = [SRC, TESTS]
    from stubserver import StubServer

    # One CPU for everything the run starts: the reference task, the stub
    # server's threads and every elbench child inherit this affinity, so the
    # reference sees the contention the commands see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    cwd = os.path.join(WORK_ROOT, run_id)
    stub = None
    try:
        wl = workloads.generate(args.workload, args.seed, os.path.join(cwd, "inputs"))
        if wl.size.link == "http":
            stub = pipeline.CompletionStub(wl, StubServer)
        if args.trace:
            import traced
            result = traced.run_traced(wl, args.seconds, cwd, stub, run_id, python_env(),
                                       os.path.join(OUT_ROOT, f"{run_id}.spans.jsonl"))
        else:
            result = run_untraced(wl, args.seconds, cwd, stub)
    except pipeline.CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if stub:
            stub.close()
        shutil.rmtree(cwd, ignore_errors=True)

    report(wl, args, run_id, result)
    correct = not result["problems"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(wl: workloads.Workload, args, run_id: str, result: dict) -> None:
    """Human-readable summary on stdout, full record under .perfbench_out/."""
    print(f"workload {wl.name} seed {wl.seed} trace {args.trace} seconds {args.seconds:g}")
    print("inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in wl.shares.items()))
    for key, stats in result["detail"].items():
        print(f"  {key:<28} median {stats['median']:.4f}  max {stats['max']:.4f}  n={stats['n']}")
    for line in result.get("lines", ()):
        print(line)
    for name, digest in result["sha256"].items():
        print(f"  sha256 {digest}  {name}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if not result["problems"]:
        print("checks: all outputs match the planted counts; artifacts repeat byte for byte")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    os.makedirs(OUT_ROOT, exist_ok=True)
    record = {"run_id": run_id, "workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "shares": wl.shares,
              **{k: v for k, v in result.items() if k != "lines"}}
    with open(os.path.join(OUT_ROOT, f"{run_id}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
