"""Traced run: the benchmark's elbench commands in-process, with spans around
every call the CLI makes into an elbench module.

Each pass runs `elbench.cli.main` for the set-up and pipeline commands, in the
order of pipeline.py.  While tracing, the names `elbench.cli` imported from the
other modules are replaced by wrappers that open a span (and count what the
call did), so the spans sit exactly at the CLI's calls into each layer; nothing
in src/ changes.  Calls a module makes internally (for example the rescoring
inside `popularity.stratify`) belong to the calling span.

A span has a name, start, end, parent, workload and run id.  Repeated calls of
one function under one parent (`kb.title_to_qid` once per link) share a span
that also keeps the call count and the summed busy time.  A span's self time is
its busy time minus its children's.  Spans stay in memory and are written once,
at the end of the run.  Untraced in-process passes alternate with traced ones;
the difference of their median totals is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import pipeline
from workloads import Workload

IMPORT_REPEATS = 5


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._by_key: Dict[Tuple[Optional[int], str], int] = {}

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        index = self._by_key.get((parent, name))
        if index is None:
            index = self._by_key[(parent, name)] = len(self.spans)
            self.spans.append({"name": name, "parent": parent, "start": None, "end": None,
                               "busy": 0.0, "calls": 0, "workload": self.workload,
                               "run_id": self.run_id})
        span = self.spans[index]
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            if span["start"] is None:
                span["start"] = start
            span["end"] = end
            span["busy"] += end - start
            span["calls"] += 1

    def busy(self, name: str) -> float:
        return sum(span["busy"] for span in self.spans if span["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: busy time not covered by child spans."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_busy[span["parent"]] += span["busy"]
        out: Dict[str, float] = {}
        for span, children in zip(self.spans, child_busy):
            out[span["name"]] = out.get(span["name"], 0.0) + span["busy"] - children
        return out


class Probe:
    """Wrappers installed over the elbench functions the CLI calls."""

    def __init__(self, stub: Optional[pipeline.CompletionStub]):
        import elbench.backends
        import elbench.cli
        from elbench.backends import BackendError

        self._cli = elbench.cli
        self._backends = elbench.backends
        self._backend_error = BackendError
        self._stub = stub
        self._saved: List[Tuple[object, str, object]] = []
        self.tracer: Optional[Tracer] = None
        self.counts: Dict[str, float] = {}
        self.latencies: List[float] = []
        self.complete_seconds: List[float] = []

    def start_pass(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts = {"benchmark.mentions": 0, "backends.prompts": 0, "backends.errors": 0,
                       "parsing.clean": 0, "parsing.repaired": 0, "parsing.unparseable": 0,
                       "kb.rows": 0, "kb.title_to_qid_calls": 0,
                       "kb.title_hits": 0, "manifest.bytes_hashed": 0}
        self.latencies = []
        self.complete_seconds = []

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            result = self.tracer.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args)
            return result
        return wrapper

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        cli = self._cli

        def on_benchmark(bench, *_):
            self.counts["benchmark.mentions"] = sum(len(s.mentions) for s in bench.sentences)

        def on_batch(results, _cfg, prompts):
            c = self.counts
            c["backends.prompts"] += len(prompts)
            for result in results:
                if isinstance(result, self._backend_error):
                    c["backends.errors"] += 1
                elif "latency_s" in result.backend_meta:
                    self.latencies.append(result.backend_meta["latency_s"])

        def on_parse(outcome, *_):
            self.counts[f"parsing.{outcome.status}"] += 1

        def on_title(qid, *_):
            c = self.counts
            c["kb.title_to_qid_calls"] += 1
            c["kb.title_hits"] += qid is not None

        def on_external(result, *_):
            for path, rows in result[1].items():
                self.counts[f"baseline.{path.replace('-', '_')}_rows"] = rows

        def on_manifest(_manifest, inputs, *_):
            self.counts["manifest.bytes_hashed"] += sum(os.path.getsize(p) for p in inputs.values())

        def on_mapping(kb, *_):
            self.counts["kb.rows"] = len(kb)

        real_score = cli.score

        def score(gold, preds, cfg, *args, **kwargs):
            return self.tracer.call(f"scoring.score_{cfg.mode}", real_score, gold, preds, cfg,
                                    *args, **kwargs)

        real_make_backend = self._backends.make_backend

        def make_backend(cfg):
            backend = real_make_backend(cfg)
            complete = backend.complete

            def timed_complete(prompt):
                start = time.perf_counter()
                try:
                    return complete(prompt)
                finally:
                    self.complete_seconds.append(time.perf_counter() - start)
            backend.complete = timed_complete
            return backend

        wrapped = {
            "load_benchmark": ("benchmark.load_benchmark", on_benchmark),
            "benchmark_stats": ("benchmark.benchmark_stats", None),
            "build_prompt": ("prompting.build_prompt", None),
            "batch_complete": ("backends.batch_complete", on_batch),
            "parse_predictions": ("parsing.parse_predictions", on_parse),
            "save_predictions": ("parsing.save_predictions", None),
            "load_predictions": ("parsing.load_predictions", None),
            "load_mapping": ("kb.load_mapping", on_mapping),
            "title_to_qid": ("kb.title_to_qid", on_title),
            "load_external_predictions": ("baseline.load_external_predictions", on_external),
            "load_counts": ("popularity.load_counts", None),
            "stratify": ("popularity.stratify", None),
            "build_run_manifest": ("manifest.build_run_manifest", on_manifest),
            "write_manifest": ("manifest.write_manifest", None),
        }
        for attr, (name, observe) in wrapped.items():
            self._patch(cli, attr, self._wrap(name, getattr(cli, attr), observe))
        self._patch(cli, "score", score)
        self._patch(self._backends, "make_backend", make_backend)

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass just traced (times summed over its calls)."""
        tracer, c = self.tracer, self.counts
        m: Dict[str, float] = {}
        for name in ("benchmark.load_benchmark", "prompting.build_prompt", "backends.batch_complete",
                     "parsing.parse_predictions", "parsing.save_predictions",
                     "parsing.load_predictions", "kb.load_mapping", "kb.title_to_qid",
                     "baseline.load_external_predictions", "scoring.score_title",
                     "scoring.score_qid", "popularity.load_counts", "popularity.stratify",
                     "manifest.build_run_manifest"):
            m[f"{name}_s"] = tracer.busy(name)
        prompts = c["backends.prompts"]
        requests = self._stub.requests if self._stub else len(self.complete_seconds)
        latencies = sorted(self.latencies or self.complete_seconds)
        parsed = c["parsing.clean"] + c["parsing.repaired"] + c["parsing.unparseable"]
        m.update({
            "benchmark.mentions": c["benchmark.mentions"],
            "backends.requests": requests,
            "backends.attempts_per_prompt": requests / prompts,
            "backends.latency_p50_ms": 1000 * _quantile(latencies, 0.50),
            "backends.latency_p99_ms": 1000 * _quantile(latencies, 0.99),
            "backends.errors": c["backends.errors"],
            "parsing.us_per_output": 1e6 * m["parsing.parse_predictions_s"] / parsed,
            "parsing.clean": c["parsing.clean"],
            "parsing.repaired": c["parsing.repaired"],
            "parsing.unparseable": c["parsing.unparseable"],
            "kb.rows": c["kb.rows"],
            "kb.title_to_qid_calls": c["kb.title_to_qid_calls"],
            "kb.title_hit_ratio": c["kb.title_hits"] / c["kb.title_to_qid_calls"],
            "popularity.stratify_over_score": (m["popularity.stratify_s"]
                                               / m["scoring.score_title_s"]),
            "manifest.bytes_hashed": c["manifest.bytes_hashed"],
        })
        for path in ("page_id", "title", "given_qid", "not_found"):
            m[f"baseline.{path}_rows"] = c.get(f"baseline.{path}_rows", 0)
        layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for name, seconds in tracer.self_times().items():
            layer = name.split(".")[0]
            if layer in layers:
                layers[layer] += seconds
        for layer, seconds in layers.items():
            m[f"{layer}.self_s"] = seconds
        return m


LAYERS = ("cli", "benchmark", "prompting", "backends", "parsing", "kb", "baseline", "scoring",
          "popularity", "manifest")


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def _cli_pass(steps: Dict[str, List[str]], tracer: Optional[Tracer],
              stub: Optional[pipeline.CompletionStub]) -> float:
    """Run every command once in-process; return the pass's wall time."""
    from elbench import cli

    if stub:
        stub.reset()
    gc.collect()
    start = time.perf_counter()
    for name, args in steps.items():
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = (tracer.call(f"cli.{name}", cli.main, args) if tracer else cli.main(args))
        if code != 0:
            raise pipeline.CommandFailed(f"elbench {args[0]} exited {code}:\n"
                                         f"{captured.getvalue()[-2000:]}")
    return time.perf_counter() - start


def import_seconds(env: Dict[str, str]) -> float:
    """Start-up cost of `import elbench.cli` in a fresh interpreter, bare interpreter subtracted."""
    bare: List[float] = []
    full: List[float] = []
    for _ in range(IMPORT_REPEATS):
        for code, samples in (("pass", bare), ("import elbench.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


# Resident memory the loaded mapping holds, in a fresh interpreter: what each
# KB-loading command pays.  In-process, memory freed by earlier passes is
# reused and hides it.
_LOAD_MAPPING_RSS = """
import os, sys
from elbench.kb import load_mapping
def resident():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
before = resident()
kb = load_mapping(sys.argv[1])
print(resident() - before)
"""


def load_mapping_rss_mb(env: Dict[str, str], path: str) -> float:
    done = subprocess.run([sys.executable, "-c", _LOAD_MAPPING_RSS, path], env=env, check=True,
                          capture_output=True, text=True)
    return int(done.stdout) / 2 ** 20


def run_traced(wl: Workload, seconds: float, cwd: str, stub: Optional[pipeline.CompletionStub],
               run_id: str, env: Dict[str, str], spans_path: str) -> dict:
    steps = {**pipeline.setup_steps(wl), **pipeline.pipeline_steps(wl, stub.url if stub else None)}
    artifacts = (["fixture.jsonl"] if "record" in steps else []) + list(pipeline.ARTIFACTS)
    import_s = import_seconds(env)
    rss_mb = load_mapping_rss_mb(env, os.path.join(cwd, "inputs", "mapping.tsv"))

    probe = Probe(stub)
    saved_env = {key: os.environ.get(key) for key in pipeline.child_env()}
    saved_cwd = os.getcwd()
    os.environ.update(pipeline.child_env())
    os.chdir(cwd)
    problems: List[str] = []
    untraced: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    spans: List[dict] = []
    first_digests = None
    link_errors = 0
    try:
        # Warm-up, so the first measured pass does not also pay for imports
        # and a cold file cache.
        _cli_pass(pipeline.setup_steps(wl), None, None)
        started = time.perf_counter()
        while True:
            # Alternate which side of the pair runs first.
            untraced_first = len(traced) % 2 == 0
            if untraced_first:
                untraced.append(_cli_pass(steps, None, stub))
            tracer = Tracer(wl.name, f"{run_id}-pass{len(traced) + 1}")
            probe.start_pass(tracer)
            probe.install()
            try:
                traced.append(_cli_pass(steps, tracer, stub))
            finally:
                probe.remove()
            per_pass.append(probe.pass_metrics())
            if not untraced_first:
                untraced.append(_cli_pass(steps, None, stub))
            spans += tracer.spans
            link_errors += pipeline.count_link_errors(cwd)
            current = pipeline.digests(cwd, artifacts)
            if first_digests is None:
                first_digests = current
                problems += pipeline.check_outputs(wl, cwd)
            elif current != first_digests:
                changed = sorted(k for k in current if current[k] != first_digests[k])
                problems.append(f"pass {len(traced)}: artifacts differ from pass 1: {changed}")
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(traced) > seconds:
                break
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")

    overhead = statistics.median(traced) - statistics.median(untraced)
    values = {"cli.import_s": import_s, "kb.load_mapping_rss_mb": rss_mb,
              **{name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]},
              "tracing.overhead_s": overhead}
    metrics = {name: (value, unit(name)) for name, value in values.items()}

    self_times = sorted(((name, value) for name, (value, _) in metrics.items()
                         if name.endswith(".self_s")), key=lambda item: -item[1])
    lines = ["self time per layer (median of traced passes):"]
    lines += [f"  {name:<22} {value:.4f} s" for name, value in self_times]
    function_spans = sorted(((name, value) for name, (value, _) in metrics.items()
                             if name.endswith("_s") and not name.endswith(".self_s")
                             and name not in ("cli.import_s", "tracing.overhead_s")),
                            key=lambda item: -item[1])
    lines.append(f"largest span: {function_spans[0][0]} ({function_spans[0][1]:.4f} s)")
    lines.append(f"tracing overhead: {overhead:+.4f} s on an untraced in-process pass of "
                 f"{statistics.median(untraced):.4f} s (n={len(untraced)} each)")
    lines.append(f"spans written to {os.path.relpath(spans_path)}")
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": wl.size.sentences * len(traced),
        "failed": link_errors,
        "detail": {"untraced_pass_s": pipeline.summarize(untraced),
                   "traced_pass_s": pipeline.summarize(traced)},
        "per_pass": per_pass,
        "sha256": first_digests or {},
        "lines": lines,
    }


def unit(name: str) -> str:
    """A per-layer metric's unit, from its name."""
    for suffix, value in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("us_per_output", "us"),
                          ("_ratio", "ratio"), ("_per_prompt", "ratio"), ("_over_score", "ratio")):
        if name.endswith(suffix):
            return value
    return "count"
