"""The elbench command sequence the benchmark runs, and the checks on its outputs.

Both the untraced run (one subprocess per command) and the traced run (the
same commands in-process) use the argument lists built here, from a working
directory holding the generated files under inputs/, so both write the same
artifacts under the same relative paths.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import threading
from collections import Counter
from typing import Dict, List, Optional, Tuple

from workloads import MODEL_ID, Workload

# Manifests stamp this instead of the wall clock, so artifacts repeat byte for byte.
SOURCE_DATE_EPOCH = "1700000000"
API_KEY = "perfbench-key"
# Closed loop: two requests in flight, one per vCPU of the reference machine.
HTTP_PARALLELISM = 2
HTTP_RETRY_BACKOFF = 0.001

ARTIFACTS = ("preds.jsonl", "preds.jsonl.manifest.json",
             "resolved.jsonl", "resolved.jsonl.manifest.json",
             "external_resolved.jsonl", "external_resolved.jsonl.manifest.json",
             "score_title.json", "score_qid.json",
             "strata.csv", "strata.csv.manifest.json", "strata.json")


class CommandFailed(Exception):
    """An elbench command exited with a non-zero code."""


def summarize(samples: List[float]) -> Dict[str, float]:
    """Median and maximum with the sample count: a run holds too few samples
    for a percentile with ten beyond it, so the maximum stands in for one."""
    return {"median": statistics.median(samples), "max": max(samples), "n": len(samples)}


def child_env() -> Dict[str, str]:
    """Variables the elbench commands need: a pinned manifest clock and an API key."""
    return {"SOURCE_DATE_EPOCH": SOURCE_DATE_EPOCH, "EL_API_KEY": API_KEY}


def setup_steps(wl: Workload) -> Dict[str, List[str]]:
    """One-time preparation: validate the benchmark, build the replay fixture."""
    steps = {"ingest": ["ingest", "--input", "inputs/benchmark.jsonl"]}
    if wl.size.link == "replay":
        steps["record"] = ["record", "--benchmark", "inputs/benchmark.jsonl",
                           "--completions", "inputs/completions.jsonl", "--out", "fixture.jsonl"]
    return steps


def pipeline_steps(wl: Workload, endpoint: Optional[str]) -> Dict[str, List[str]]:
    """The timed pipeline, in the order a user runs it."""
    bench = "inputs/benchmark.jsonl"
    link = ["link", "--benchmark", bench, "--out", "preds.jsonl"]
    if wl.size.link == "http":
        link += ["--backend", "http", "--endpoint", endpoint, "--model", MODEL_ID,
                 "--wire", "completions", "--parallelism", str(HTTP_PARALLELISM),
                 "--retry-backoff", str(HTTP_RETRY_BACKOFF), "--max-retries", "3"]
    else:
        link += ["--backend", "replay", "--fixture", "fixture.jsonl"]
    return {
        "link": link,
        "resolve": ["resolve", "--predictions", "preds.jsonl", "--kb", "inputs/mapping.tsv",
                    "--out", "resolved.jsonl"],
        "resolve_external": ["resolve", "--external", "inputs/external.jsonl",
                             "--kb", "inputs/mapping.tsv", "--out", "external_resolved.jsonl"],
        "score_title": ["score", "--benchmark", bench, "--predictions", "preds.jsonl",
                        "--mode", "title", "--kb", "inputs/mapping.tsv", "--system", "synthetic",
                        "--out", "score_title.json"],
        "score_qid": ["score", "--benchmark", bench, "--predictions", "resolved.jsonl",
                      "--mode", "qid", "--system", "synthetic", "--out", "score_qid.json"],
        "stratify": ["stratify", "--benchmark", bench, "--predictions", "preds.jsonl",
                     "--mode", "title", "--kb", "inputs/mapping.tsv",
                     "--counts", "inputs/counts.tsv", "--system", "synthetic",
                     "--out", "strata.csv", "--json", "strata.json"],
    }


def digests(cwd: str, names) -> Dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(cwd, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def _read_jsonl(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _compare(label: str, got: dict, want: dict, problems: List[str]) -> None:
    if got == want:
        return
    wrong = sorted(set(got) ^ set(want)) or sorted(k for k in want if got[k] != want[k])
    example = wrong[0]
    problems.append(f"{label}: {len(wrong)} difference(s), e.g. {example!r}: "
                    f"got {got.get(example)!r}, expected {want.get(example)!r}")


def count_link_errors(cwd: str) -> int:
    """Sentences whose `link` record carries a backend error."""
    return sum("error" in record for record in _read_jsonl(os.path.join(cwd, "preds.jsonl")))


def check_outputs(wl: Workload, cwd: str) -> List[str]:
    """Compare every pipeline artifact with what the generator planted."""
    exp = wl.expected
    problems: List[str] = []
    path = lambda name: os.path.join(cwd, name)  # noqa: E731

    preds = _read_jsonl(path("preds.jsonl"))
    statuses = Counter(record["status"] for record in preds)
    _compare("link statuses", {s: statuses.get(s, 0) for s in exp.statuses}, exp.statuses, problems)
    errors = sum("error" in record for record in preds)
    if errors:
        problems.append(f"link: {errors} record(s) carry a backend error")
    _compare("link titles",
             {(r["sentence_id"], link["surface"]): link["title"] for r in preds for link in r["links"]},
             {key: title for key, (title, _) in exp.links.items()}, problems)

    resolved = _read_jsonl(path("resolved.jsonl"))
    links = [(r["sentence_id"], link) for r in resolved for link in r["links"]]
    _compare("resolve qids", {(sid, link["surface"]): link.get("qid") for sid, link in links},
             {key: qid for key, (_, qid) in exp.links.items()}, problems)
    tally = Counter(link["resolution"] for _, link in links)
    _compare("resolve tally", {k: tally.get(k, 0) for k in exp.resolve_tally}, exp.resolve_tally,
             problems)

    external = _read_jsonl(path("external_resolved.jsonl"))
    _compare("external resolution",
             {(r["sentence_id"], link["surface"]): (link.get("qid"), link["resolution"])
              for r in external for link in r["links"]},
             exp.external, problems)

    for mode, want in (("title", exp.title), ("qid", exp.qid)):
        with open(path(f"score_{mode}.json"), "r", encoding="utf-8") as handle:
            report = json.load(handle)
        got = (report["tp"], report["fp"], report["fn"])
        if got != want.as_tuple():
            problems.append(f"score {mode}: got tp/fp/fn {got}, expected {want.as_tuple()}")

    with open(path("strata.json"), "r", encoding="utf-8") as handle:
        strata = json.load(handle)
    got_slices = [(s["theta"], s["tp"], s["fp"], s["fn"]) for s in strata["slices"]]
    want_slices = [("inf" if math.isinf(t) else t, *c.as_tuple()) for t, c in exp.slices.items()]
    if got_slices != want_slices:
        problems.append(f"stratify: got {got_slices}, expected {want_slices}")
    return problems


class CompletionStub:
    """The model for the http workload: tests/stubserver.py answering each prompt
    with the sentence's planted completion.

    The first attempt of every sentence in wl.fail_first gets a 503, so the
    client's retry path runs; the retry succeeds.
    """

    def __init__(self, wl: Workload, stub_server_cls):
        from elbench.prompting import build_prompt, default_template

        template = default_template()
        self._sentence_of = {build_prompt(template, text): sid for sid, text in wl.sentences}
        self._completions = wl.completions
        self._fail_first = frozenset(wl.fail_first)
        self._lock = threading.Lock()
        self._attempted: set = set()
        self.injected_503 = 0
        self.server = stub_server_cls(self._respond)

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def requests(self) -> int:
        return len(self.server.requests)

    def reset(self) -> None:
        """Start a new pass: every sentence's next attempt counts as its first."""
        with self._lock:
            self._attempted.clear()
            self.injected_503 = 0
            self.server.requests.clear()

    def _respond(self, request) -> Tuple[int, dict]:
        body = request["body"] if isinstance(request["body"], dict) else {}
        sid = self._sentence_of.get(body.get("prompt"))
        if sid is None:
            return 400, {"error": "unknown prompt"}
        with self._lock:
            first = sid not in self._attempted
            self._attempted.add(sid)
            if first and sid in self._fail_first:
                self.injected_503 += 1
                return 503, {"error": "overloaded"}
        text = self._completions[sid]
        return 200, {"choices": [{"text": text}],
                     "usage": {"prompt_tokens": len(body["prompt"].split()),
                               "completion_tokens": len(text.split())}}

    def close(self) -> None:
        self.server.close()
