"""Acceptance gate: one test per shipping criterion.

Each test states its criterion in the docstring and fails loudly when the
implementation drifts.  The suite uses only packaged fixtures and replayed
completions, so it runs offline and deterministically.
"""

import csv
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import unicodedata

import pytest
from conftest import make_benchmark, sent

from elbench import cli
from elbench.benchmark import benchmark_stats, load_benchmark
from elbench.kb import load_mapping, normalize_title, title_to_qid
from elbench.parsing import STATUS_CLEAN, PredictedLink, PredictionRecord, parse_predictions
from elbench.popularity import INF, slice_label, stratify
from elbench.scoring import MODE_QID, MatchConfig, f1_from_counts, score

QID_CFG = MatchConfig(mode=MODE_QID)

# Reference system scores (P, R, F1 in percent, one decimal) the metric
# implementation must be consistent with at the precision they were published
# with: the F1 values the scorer gives for the (P, R) pairs that round to the
# published pair must include one that rounds to the published F1.
REFERENCE_METRICS = (
    (72.8, 45.7, 56.1),
    (48.6, 58.8, 53.2),
    (47.3, 60.3, 53.0),
    (34.9, 40.1, 37.3),
)


def _f1_rounding_interval(p_pct, r_pct):
    """(low, high) F1 in percent over every (P, R) in the rounding box of the
    published pair.  F1 rises in both P and R, so the box's low and high
    corners bound it; each corner is scored on a 1/2000 grid of counts."""
    corners = []
    for step in (-1, 1):
        a = round(p_pct * 20) + step  # precision a/2000, i.e. P -/+ 0.05
        b = round(r_pct * 20) + step  # recall b/2000, i.e. R -/+ 0.05
        _, _, f1 = f1_from_counts(a * b, (2000 - a) * b, (2000 - b) * a)
        corners.append(100 * f1)
    return tuple(corners)


def _consistent_at_published_precision(p_pct, r_pct, f1_pct):
    # the F1 interval overlaps the reported F1's own rounding interval
    low, high = _f1_rounding_interval(p_pct, r_pct)
    return low <= f1_pct + 0.05 and high >= f1_pct - 0.05


def test_f1_consistency_published_counts():
    """Counts reproducing each reference (P, R) pair score exactly that P and
    R, and the F1 interval over the (P, R) rounding box overlaps the reported
    F1's rounding interval [F1 - 0.05, F1 + 0.05] (runtime under 1s)."""
    started = time.monotonic()
    inconsistent = []
    for p_pct, r_pct, f1_pct in REFERENCE_METRICS:
        # integer counts reproducing the reported P and R exactly
        p_tenths = round(p_pct * 10)
        r_tenths = round(r_pct * 10)
        tp = p_tenths * r_tenths
        fp = (1000 - p_tenths) * r_tenths
        fn = (1000 - r_tenths) * p_tenths
        precision, recall, _ = f1_from_counts(tp, fp, fn)
        assert precision == pytest.approx(p_pct / 100, abs=1e-12)
        assert recall == pytest.approx(r_pct / 100, abs=1e-12)
        if not _consistent_at_published_precision(p_pct, r_pct, f1_pct):
            inconsistent.append((p_pct, r_pct, f1_pct, _f1_rounding_interval(p_pct, r_pct)))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"consistency check took {elapsed:.3f}s"
    assert not inconsistent, (
        "reported F1 is outside what its rounded (P, R) allow: "
        + "; ".join(f"P={p} R={r} reported F1={f} F1 interval=[{lo:.4f}, {hi:.4f}]"
                    for p, r, f, (lo, hi) in inconsistent))


@pytest.mark.parametrize("f1_pct", [56.3, 55.9])
def test_f1_consistency_rejects_inconsistent_f1(f1_pct):
    """Negative control: the first reference (P, R) pair allows F1 in
    [56.0986, 56.2038], so a reported F1 of 56.3 or 55.9 is inconsistent."""
    assert not _consistent_at_published_precision(72.8, 45.7, f1_pct)


def _oracle_counts(golds, preds):
    # brute-force optimal one-to-one assignment under exact identifier
    # equality; None identifiers can never match
    best = 0
    if len(golds) <= len(preds):
        for perm in itertools.permutations(range(len(preds)), len(golds)):
            hits = sum(1 for gi, pi in enumerate(perm)
                       if preds[pi] is not None and golds[gi] == preds[pi])
            best = max(best, hits)
    else:
        for perm in itertools.permutations(range(len(golds)), len(preds)):
            hits = sum(1 for pi, gi in enumerate(perm)
                       if preds[pi] is not None and golds[gi] == preds[pi])
            best = max(best, hits)
    return best, len(preds) - best, len(golds) - best


def test_scorer_matches_bruteforce_oracle():
    """Over 1,000 random instances (up to 5 sentences, 4 mentions each,
    identifier alphabet of 6), score() equals the brute-force
    optimal-assignment oracle exactly (runtime under 30s)."""
    rng = random.Random(20260819)
    alphabet = [f"Q{i}" for i in range(1, 7)]
    started = time.monotonic()
    for instance in range(1000):
        n_sentences = rng.randint(1, 5)
        sentences = []
        records = []
        expected = [0, 0, 0]
        for s in range(n_sentences):
            sid = f"s{s}"
            golds = [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
            preds = [None if rng.random() < 0.1 else rng.choice(alphabet)
                     for _ in range(rng.randint(0, 4))]
            sentences.append(sent(sid, "text", *((f"g{i}", q, "") for i, q in enumerate(golds))))
            links = tuple(PredictedLink(surface=f"p{i}", title=None, qid=q)
                          for i, q in enumerate(preds))
            records.append(PredictionRecord(sentence_id=sid, links=links, status=STATUS_CLEAN))
            for k, value in enumerate(_oracle_counts(golds, preds)):
                expected[k] += value
        report = score(make_benchmark(*sentences), records, QID_CFG)
        actual = [report.tp, report.fp, report.fn]
        assert actual == expected, f"instance {instance}: {actual} != oracle {expected}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_parser_corpus_full_match(data_dir):
    """Every corpus fixture (clean, each repair rung, unparseable) parses to
    its expected status and links; the worked one-shot example yields
    exactly 2 links."""
    with open(os.path.join(data_dir, "parser_corpus.json"), encoding="utf-8") as handle:
        corpus = json.load(handle)
    assert len(corpus) >= 25
    statuses = {case["status"] for case in corpus}
    assert statuses == {"clean", "repaired", "unparseable"}
    mismatches = []
    for case in corpus:
        outcome = parse_predictions(case["raw"])
        got = [[link.surface, link.title] for link in outcome.links]
        if outcome.status != case["status"] or got != case["links"]:
            mismatches.append(case["name"])
    assert not mismatches, f"{len(mismatches)} corpus case(s) diverged: {mismatches}"
    (listing,) = [case for case in corpus if case["name"] == "listing-example"]
    assert len(parse_predictions(listing["raw"]).links) == 2


def test_normalization_properties(e2e_paths):
    """Title normalization is idempotent and obeys the first-letter,
    underscore, whitespace, and NFC rules over 10,000 random strings;
    qid→title→qid round-trips over the whole fixture mapping."""
    rng = random.Random(1861)
    pool = ("abcdefgh XYZ_ \t-'()" "éüßàÐﬁ" "ΐΣσςΩ" "ŁőŽ" "́̈" "  __")
    for _ in range(10000):
        raw = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
        norm = normalize_title(raw)
        assert normalize_title(norm) == norm, f"not idempotent for {raw!r}"
        assert "_" not in norm
        assert norm == norm.strip()
        assert "  " not in norm
        assert unicodedata.normalize("NFC", norm) == norm
        if norm and norm[0].isalpha():
            assert norm[0] == norm[0].upper()[0]

    kb = load_mapping(e2e_paths["mapping"])
    canonical = [record for record in kb.by_title.values() if record.qid is not None]
    assert len(canonical) >= 30
    for record in canonical:
        assert title_to_qid(kb, record.canonical_title) == record.qid
        assert kb.title_for_qid(record.qid) == record.canonical_title
    redirects = [record for record in kb.by_title.values() if record.redirect_to is not None]
    assert redirects, "fixture mapping must exercise redirects"
    for record in redirects:
        target_qid = title_to_qid(kb, record.redirect_to)
        assert title_to_qid(kb, record.canonical_title) == target_qid


def test_stratification_invariants():
    """On a 50-entity fixture: retained gold grows monotonically with θ,
    the θ=∞ slice equals the unstratified report field-by-field, and a
    hand-computed interior slice matches exactly."""
    pop = {f"Q{i}": 10 * i for i in range(1, 51)}
    sentences = []
    records = []
    for k in range(10):
        sid = f"s{k}"
        ids = list(range(5 * k + 1, 5 * k + 6))
        sentences.append(sent(sid, "text",
                              *((f"g{i}", f"Q{i}", "") for i in ids)))
        links = [PredictedLink(surface=f"p{i}", title=None, qid=f"Q{i}")
                 for i in ids if i % 2 == 0]
        if sid == "s0":
            links.append(PredictedLink(surface="stray", title="Nowhere Man", qid=None))
        if sid == "s1":
            links.append(PredictedLink(surface="dup", title=None, qid="Q10"))
        records.append(PredictionRecord(sentence_id=sid, links=tuple(links),
                                        status=STATUS_CLEAN))
    bench = make_benchmark(*sentences)

    thetas = [50, 100, 150, 200, 250, 300, 350, 400, 450, 500, INF]
    slices = stratify(bench, records, QID_CFG, None, pop, thetas=thetas)

    retained_gold = [item.report.tp + item.report.fn for item in slices]
    assert retained_gold == sorted(retained_gold), "gold retention must grow with theta"
    assert retained_gold == [5 * i for i in range(1, 11)] + [50]

    full = score(bench, records, QID_CFG, slice_id=slice_label(INF))
    assert slices[-1].report == full

    # hand-computed slice at theta=250: gold Q1..Q25 stays (25 mentions);
    # kept predictions are the even QIDs up to Q24 (12), the duplicate Q10,
    # and the count-less stray, so tp=12, fp=2, fn=13
    interior = slices[4].report
    assert (interior.tp, interior.fp, interior.fn) == (12, 2, 13)
    assert interior.precision == pytest.approx(12 / 14)
    assert interior.recall == pytest.approx(12 / 25)


def test_end_to_end_replay(tmp_path, e2e_paths, e2e_fixture, capsys, monkeypatch):
    """Replaying 20 recorded completions through link → score → stratify →
    report writes byte-identical artifacts on a rerun and reproduces the
    hand-computed metrics exactly (runtime under 10s)."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    started = time.monotonic()
    preds = tmp_path / "preds.jsonl"
    score_json = tmp_path / "score.json"
    score_csv = tmp_path / "score.csv"
    strata_csv = tmp_path / "strata.csv"
    strata_json = tmp_path / "strata.json"
    table_csv = tmp_path / "table.csv"
    artifact_paths = [preds, tmp_path / "preds.jsonl.manifest.json",
                      score_json, score_csv,
                      strata_csv, tmp_path / "strata.csv.manifest.json", strata_json,
                      table_csv, tmp_path / "table.csv.manifest.json"]

    snapshots = []
    for _ in range(2):
        assert cli.main(["link", "--backend", "replay", "--fixture", e2e_fixture,
                         "--benchmark", e2e_paths["benchmark"],
                         "--out", str(preds)]) == 0
        assert cli.main(["score", "--benchmark", e2e_paths["benchmark"],
                         "--predictions", str(preds), "--mode", "title",
                         "--kb", e2e_paths["mapping"], "--system", "llm",
                         "--out", str(score_json), "--csv", str(score_csv)]) == 0
        assert cli.main(["stratify", "--benchmark", e2e_paths["benchmark"],
                         "--predictions", str(preds), "--mode", "title",
                         "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
                         "--thetas", "20,100,inf", "--system", "llm",
                         "--out", str(strata_csv), "--json", str(strata_json)]) == 0
        assert cli.main(["report", "--inputs", str(score_json),
                         "--out", str(table_csv)]) == 0
        capsys.readouterr()
        snapshots.append([path.read_bytes() for path in artifact_paths])
    assert snapshots[0] == snapshots[1], "rerun artifacts must be byte-identical"

    artifact = json.loads(score_json.read_text(encoding="utf-8"))
    assert (artifact["tp"], artifact["fp"], artifact["fn"]) == (27, 7, 5)
    assert (artifact["precision_pct"], artifact["recall_pct"],
            artifact["f1_pct"]) == (79.4, 84.4, 81.8)

    with open(strata_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows == [
        ["system", "theta", "precision", "recall", "f1"],
        ["llm", "20", "57.1", "80.0", "66.7"],
        ["llm", "100", "77.8", "87.5", "82.4"],
        ["llm", "inf", "79.4", "84.4", "81.8"],
    ]

    with open(table_csv, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    assert table == [["system", "precision", "recall", "f1"],
                     ["llm", "79.4", "84.4", "81.8"]]

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"replay pipeline took {elapsed:.1f}s"


def test_benchmark_stats_match_bruteforce_scan(e2e_paths):
    """Loader statistics on the packaged sample equal an independent raw
    scan of the file."""
    raw_sentences = []
    with open(e2e_paths["benchmark"], encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                raw_sentences.append(json.loads(line))
    raw_qids = {m["qid"] for s in raw_sentences for m in s["mentions"] if m["qid"] != "NIL"}
    raw_types = {m["type"] for s in raw_sentences for m in s["mentions"]
                 if m["qid"] != "NIL" and m.get("type")}
    raw_mentions = sum(len(s["mentions"]) for s in raw_sentences)
    raw_nil = sum(1 for s in raw_sentences for m in s["mentions"] if m["qid"] == "NIL")
    raw_tokens = sum(len(s["text"].split()) for s in raw_sentences)

    stats = benchmark_stats(load_benchmark(e2e_paths["benchmark"]))
    assert stats.sentences == len(raw_sentences)
    assert stats.unique_qids == len(raw_qids)
    assert stats.types == len(raw_types)
    assert stats.total_mentions == raw_mentions
    assert stats.nil_mentions == raw_nil
    assert stats.tokens == raw_tokens


def test_benchmark_stats_real_file():
    """On the real benchmark release (when supplied via MHERCL_BENCHMARK),
    the loader reports 928 sentences and 966 unique non-NIL QIDs."""
    path = os.environ.get("MHERCL_BENCHMARK")
    if not path:
        pytest.skip("real benchmark not supplied; set MHERCL_BENCHMARK to its path")
    fmt = "tsv" if path.endswith(".tsv") else "jsonl"
    stats = benchmark_stats(load_benchmark(path, fmt))
    assert stats.sentences == 928
    assert stats.unique_qids == 966


PINNED_DIR = os.path.join(os.path.dirname(__file__), "data", "pinned")


def pinned_pipeline(paths, fixture):
    """The commands that write the pinned artifacts, in order, the first
    being record's, which writes fixture."""
    bench, kb = paths["benchmark"], paths["mapping"]
    return [
        ["record", "--benchmark", bench, "--completions", paths["completions"], "--out", fixture],
        ["link", "--backend", "replay", "--fixture", fixture, "--benchmark", bench,
         "--out", "preds.jsonl"],
        ["score", "--benchmark", bench, "--predictions", "preds.jsonl", "--mode", "title",
         "--kb", kb, "--system", "llm", "--per-sentence", "--out", "score.json", "--csv", "score.csv"],
        ["stratify", "--benchmark", bench, "--predictions", "preds.jsonl", "--mode", "title",
         "--kb", kb, "--counts", paths["counts"], "--thetas", "all", "--system", "llm",
         "--out", "strata.csv", "--json", "strata.json"],
        ["resolve", "--predictions", "preds.jsonl", "--kb", kb, "--out", "resolved.jsonl"],
        ["score", "--benchmark", bench, "--predictions", "resolved.jsonl", "--mode", "qid",
         "--system", "llm", "--per-sentence", "--out", "score_qid.json"],
    ]


def assert_pinned(directory, fixture):
    """The artifacts in directory, and the replay fixture, are the pinned ones."""

    def pinned(name):
        with open(os.path.join(PINNED_DIR, name), "rb") as handle:
            return handle.read()

    with open(fixture, "rb") as handle:
        assert handle.read() == pinned("fixture.jsonl")
    for name in ("preds.jsonl", "score.csv", "strata.csv", "resolved.jsonl"):
        assert (directory / name).read_bytes() == pinned(name), name
    for name in ("score.json", "strata.json", "score_qid.json"):
        artifact = json.loads((directory / name).read_text(encoding="utf-8"))
        del artifact["manifest"]
        text = json.dumps(artifact, ensure_ascii=False, indent=2) + "\n"
        assert text.encode("utf-8") == pinned(name), name


def test_replay_artifacts_match_pinned(tmp_path, e2e_paths, e2e_fixture, capsys, monkeypatch):
    """record → link → score --per-sentence --csv → stratify --json --thetas
    all, and resolve --predictions → score --mode qid --per-sentence on its
    output, on the packaged sample write the artifacts pinned under
    tests/data/pinned: the replay fixture (each prompt and its digest), both
    prediction files and both CSVs byte for byte, the three JSON reports
    without their `manifest`, which names temporary paths.  A change that
    alters any of them on purpose rewrites the pinned copy in the same
    commit."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.chdir(tmp_path)
    # The session's replay fixture stands in for record's.
    for argv in pinned_pipeline(e2e_paths, e2e_fixture)[1:]:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert_pinned(tmp_path, e2e_fixture)


def test_input_cache_shared_across_hash_seeds_gives_pinned_artifacts(tmp_path, e2e_paths):
    """The pinned pipeline, run as users run it (`python -m elbench.cli`, a
    fresh interpreter per command), writes the pinned artifacts when its
    input cache entries are written under PYTHONHASHSEED=0 and read under
    PYTHONHASHSEED=1."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), SOURCE_DATE_EPOCH="1700000000",
               XDG_CACHE_HOME=str(cache))
    written = None
    for seed in ("0", "1"):
        work = tmp_path / f"hash-seed-{seed}"
        work.mkdir()
        fixture = str(work / "fixture.jsonl")
        for argv in pinned_pipeline(e2e_paths, fixture):
            proc = subprocess.run([sys.executable, "-m", "elbench.cli", *argv], cwd=work,
                                  env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                                  encoding="utf-8", timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)
        assert_pinned(work, fixture)
        # The mapping's entry, the benchmark's, the counts' and those of the
        # two predictions files (link's and resolve's); the second pass
        # rewrote none of them.
        entries = {name: os.stat(cache / "elbench" / name).st_ino
                   for name in os.listdir(cache / "elbench")}
        assert len(entries) == 5
        assert written in (None, entries)
        written = entries
