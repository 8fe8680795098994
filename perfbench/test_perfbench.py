"""Tests of the benchmark's own code: the seeded generator, its planted counts,
the tracer, and one tiny run of each mode.

Run from the repository root: python -m pytest perfbench
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import pipeline  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from elbench.baseline import load_external_predictions  # noqa: E402
from elbench.benchmark import load_benchmark  # noqa: E402
from elbench.kb import load_mapping, title_to_qid  # noqa: E402
from elbench.parsing import PredictionRecord, parse_predictions  # noqa: E402
from elbench.popularity import load_counts, stratify  # noqa: E402
from elbench.scoring import MatchConfig, score  # noqa: E402

TINY = workloads.Size(mapping_rows=80, sentences=40)
TINY_HTTP = workloads.Size(mapping_rows=80, sentences=40, link="http")


def file_digests(directory):
    out = {}
    for name in workloads.FILES:
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def test_same_seed_gives_identical_files(tmp_path):
    workloads.generate("corpus_large", 7, str(tmp_path / "a"), TINY)
    # A second interpreter with another string-hash seed: set order must not leak into the files.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.generate('corpus_large', 7, sys.argv[2], "
            "workloads.Size(mapping_rows=80, sentences=40))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    subprocess.run([sys.executable, "-c", code, HERE, str(tmp_path / "b")], env=env, check=True)
    assert file_digests(tmp_path / "a") == file_digests(tmp_path / "b")


def test_different_seed_gives_different_files(tmp_path):
    workloads.generate("corpus_large", 7, str(tmp_path / "a"), TINY)
    workloads.generate("corpus_large", 8, str(tmp_path / "b"), TINY)
    first, second = file_digests(tmp_path / "a"), file_digests(tmp_path / "b")
    assert all(first[name] != second[name] for name in workloads.FILES)


def test_workload_name_is_part_of_the_seed(tmp_path):
    workloads.generate("corpus_large", 7, str(tmp_path / "a"), TINY)
    workloads.generate("kb_large", 7, str(tmp_path / "b"), TINY)
    assert file_digests(tmp_path / "a") != file_digests(tmp_path / "b")


@pytest.mark.parametrize("seed", range(5))
def test_planted_counts_equal_elbench(tmp_path, seed):
    wl = workloads.generate("corpus_large", seed, str(tmp_path), TINY)
    exp = wl.expected
    bench = load_benchmark(wl.path("benchmark.jsonl"))
    kb = load_mapping(wl.path("mapping.tsv"))
    with open(wl.path("completions.jsonl"), encoding="utf-8") as handle:
        raw = {row["sentence_id"]: row["raw_text"] for row in map(json.loads, handle)}
    preds = []
    for sentence in bench.sentences:
        outcome = parse_predictions(raw[sentence.sentence_id])
        preds.append(PredictionRecord(sentence.sentence_id, outcome.links, outcome.status))
    statuses = {status: sum(r.status == status for r in preds) for status in exp.statuses}
    assert statuses == exp.statuses
    assert {(r.sentence_id, link.surface): (link.title, title_to_qid(kb, link.title))
            for r in preds for link in r.links} == exp.links

    title = score(bench, preds, MatchConfig(mode="title"), kb)
    assert (title.tp, title.fp, title.fn) == exp.title.as_tuple()
    resolved = [replace(r, links=tuple(replace(link, qid=title_to_qid(kb, link.title))
                                       for link in r.links)) for r in preds]
    qid = score(bench, resolved, MatchConfig(mode="qid"))
    assert (qid.tp, qid.fp, qid.fn) == exp.qid.as_tuple()

    slices = stratify(bench, preds, MatchConfig(mode="title"), kb,
                      load_counts(wl.path("counts.tsv")), thetas=workloads.THETAS)
    assert [(s.theta, s.report.tp, s.report.fp, s.report.fn) for s in slices] == \
        [(float(t) if not math.isinf(t) else t, *c.as_tuple()) for t, c in exp.slices.items()]

    records, tally = load_external_predictions(wl.path("external.jsonl"), kb)
    assert tally == exp.external_tally
    assert {(r.sentence_id, link.surface): (link.qid, link.resolution)
            for r in records for link in r.links} == exp.external


def test_tracer_self_time_subtracts_children():
    tracer = traced.Tracer("w", "r")
    tracer.call("cli.x", lambda: [tracer.call("kb.f", sum, [1]) for _ in range(3)])
    spans = {span["name"]: span for span in tracer.spans}
    assert spans["kb.f"]["calls"] == 3 and spans["kb.f"]["parent"] == 0
    self_times = tracer.self_times()
    assert self_times["cli.x"] == pytest.approx(spans["cli.x"]["busy"] - spans["kb.f"]["busy"])
    assert self_times["kb.f"] == spans["kb.f"]["busy"]


def declared_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    wl = workloads.generate("corpus_large", 3, str(tmp_path / "inputs"), TINY)
    result = run.run_untraced(wl, 0, str(tmp_path), None)
    assert result["problems"] == []
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == \
        declared_metrics("end_to_end")
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    from stubserver import StubServer

    wl = workloads.generate("link_http", 3, str(tmp_path / "inputs"), TINY_HTTP)
    stub = pipeline.CompletionStub(wl, StubServer)
    try:
        result = traced.run_traced(wl, 0, str(tmp_path), stub, "test", run.python_env(),
                                   str(tmp_path / "spans.jsonl"))
    finally:
        stub.close()
    assert result["problems"] == []
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == \
        declared_metrics("per_layer")
    metrics = {name: value for name, (value, _) in result["metrics"].items()}
    assert metrics["backends.attempts_per_prompt"] > 1  # the injected 503s were retried
    assert metrics["backends.errors"] == 0
    with open(tmp_path / "spans.jsonl", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {"cli.link", "backends.batch_complete", "kb.load_mapping"} <= {s["name"] for s in spans}
