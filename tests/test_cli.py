import csv
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timezone
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from test_kb import without_sqlite3

from elbench import cli
from elbench.backends import BackendConfig, prompt_digest
from elbench.benchmark import load_benchmark
from elbench.kb import load_mapping, title_to_qid
from elbench.manifest import config_digest, manifest_timestamp
from elbench.parsing import STATUS_CLEAN, STATUS_UNPARSEABLE, load_predictions, save_predictions
from elbench.prompting import build_prompt, default_template
from elbench.scoring import NIL_POLICIES


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def linked(tmp_path, e2e_paths, e2e_fixture):
    out = tmp_path / "preds.jsonl"
    code = cli.main(["link", "--backend", "replay",
                     "--fixture", e2e_fixture,
                     "--benchmark", e2e_paths["benchmark"],
                     "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_stats_lines(self, capsys, e2e_paths):
        code, out, err = run(capsys, ["ingest", "--input", e2e_paths["benchmark"]])
        assert code == 0
        lines = out.strip().splitlines()
        stats = dict(line.split(": ") for line in lines)
        assert stats["sentences"] == "20"
        assert stats["unique_qids"] == "28"
        assert stats["nil_mentions"] == "3"
        assert stats["total_mentions"] == "35"
        assert int(stats["tokens"]) > 100
        assert list(stats) == ["sentences", "tokens", "unique_qids", "types",
                               "nil_mentions", "total_mentions"]

    def test_deeply_nested_line_is_invalid_json(self, capsys, tmp_path):
        # Nesting past the decoder's recursion limit raises RecursionError.
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "a", "text": "A.", "mentions": []}\n' + "[" * 100_000 + "\n",
                         encoding="utf-8")
        code, out, err = run(capsys, ["ingest", "--input", str(bench)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bench}: 1 malformed record(s):\nline 2: invalid JSON: ")

    def test_convert_to_tsv(self, capsys, tmp_path, e2e_paths):
        out = tmp_path / "bench.tsv"
        code, stdout, _ = run(capsys, ["ingest", "--input", e2e_paths["benchmark"],
                                       "--out", str(out), "--out-format", "tsv"])
        assert code == 0
        assert f"wrote {out}" in stdout
        code2, stdout2, _ = run(capsys, ["ingest", "--input", str(out), "--format", "tsv"])
        assert code2 == 0
        assert "total_mentions: 35" in stdout2

    @pytest.mark.parametrize("second", [
        {"id": "s2", "text": "tab\there", "mentions": []},
        {"id": "s2", "text": "cr\rhere", "mentions": []},
        {"id": "s\t2", "text": "Rome.", "mentions": []},
        {"id": "s2", "text": "Rome.", "mentions": [{"surface": "Ro\tme", "qid": "Q220"}]},
        {"id": "s2", "text": "Rome.", "mentions": [{"surface": "Rome", "qid": "Q220",
                                                    "type": "L\nOC"}]},
    ], ids=["tab-in-text", "cr-in-text", "tab-in-id", "tab-in-surface", "newline-in-type"])
    @pytest.mark.parametrize("existing", [None, "kept\n"], ids=["no-file", "existing-file"])
    def test_failed_tsv_export_writes_nothing(self, capsys, tmp_path, second, existing):
        path = tmp_path / "b.jsonl"
        first = {"id": "s1", "text": "Verdi wrote.", "mentions": [{"surface": "Verdi", "qid": "Q1"}]}
        path.write_text("".join(json.dumps(r) + "\n" for r in (first, second)), encoding="utf-8")
        out = tmp_path / "b.tsv"
        if existing is not None:
            out.write_text(existing, encoding="utf-8")
        code, _, err = run(capsys, ["ingest", "--input", str(path), "--out", str(out),
                                    "--out-format", "tsv"])
        assert code == 2
        assert "tabs/newlines are not representable in tsv" in err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text(encoding="utf-8") == existing

    def test_qid_with_trailing_newline_rejected(self, capsys, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps({"id": "s1", "text": "Verdi wrote.",
                                    "mentions": [{"surface": "Verdi", "qid": "Q1\n"}]}) + "\n",
                        encoding="utf-8")
        code, _, err = run(capsys, ["ingest", "--input", str(path)])
        assert code == 2
        assert "line 1" in err and "got 'Q1\\n'" in err

    def test_boolean_offsets_rejected(self, capsys, tmp_path):
        # JSON booleans are Python ints; false/true would read as the span [0, 1).
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps({"id": "s1", "text": "V wrote.", "mentions": [
            {"surface": "V", "qid": "Q1", "start": False, "end": True}]}) + "\n",
            encoding="utf-8")
        code, _, err = run(capsys, ["ingest", "--input", str(path)])
        assert code == 2
        assert "line 1: mention 0: start/end must be integers" in err

    def test_lone_surrogate_rejected_before_out_is_opened(self, capsys, tmp_path):
        """A \\ud83d escape without its pair gives a string no UTF-8 file can
        hold: each such line is named, in any string of it, and --out is
        never opened.  A whole pair and an escaped backslash are accepted."""
        bench = tmp_path / "bench.jsonl"
        bench.write_text(
            '{"id": "s1", "text": "Paired \\ud83d\\ude00, not \\\\ud83d.", "mentions": []}\n'
            '{"id": "s2", "text": "Bad \\ud83d", "mentions": []}\n'
            '{"id": "s3", "text": "X.", "mentions": [{"surface": "X\\udc00", "qid": "Q1"}]}\n',
            encoding="utf-8")
        out = tmp_path / "out.jsonl"
        code, stdout, err = run(capsys, ["ingest", "--input", str(bench), "--out", str(out)])
        assert code == 2
        assert stdout == ""
        assert err == (f"error: {bench}: 2 malformed record(s):\n"
                       "line 2: lone surrogate '\\ud83d': not encodable as UTF-8\n"
                       "line 3: lone surrogate '\\udc00': not encodable as UTF-8\n")
        assert not out.exists()
        bench.write_text(bench.read_text(encoding="utf-8").splitlines()[0] + "\n",
                         encoding="utf-8")
        code, _, _ = run(capsys, ["ingest", "--input", str(bench), "--out", str(out)])
        assert code == 0
        assert load_benchmark(str(out)).sentences[0].text == "Paired \U0001f600, not \\ud83d."

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, ["ingest"])
        assert code == 2
        assert "error: missing required option --input" in err


class TestLink:
    def test_replay_run(self, capsys, tmp_path, e2e_paths, e2e_fixture):
        out = tmp_path / "preds.jsonl"
        code, stdout, stderr = run(capsys, [
            "link", "--backend", "replay", "--fixture", e2e_fixture,
            "--benchmark", e2e_paths["benchmark"], "--out", str(out)])
        assert code == 0
        assert stderr == ""
        assert stdout.splitlines() == [
            "linked 20 sentence(s): 15 clean, 4 repaired, 1 unparseable",
            f"wrote {out}",
        ]
        records = load_predictions(str(out))
        assert len(records) == 20
        assert [r.sentence_id for r in records] == [f"s{i:02d}" for i in range(1, 21)]

        manifest = json.loads((tmp_path / "preds.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert set(manifest["inputs"]) == {"benchmark", "fixture"}
        assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())
        assert manifest["backend"]["kind"] == "replay"
        assert manifest["backend"]["model_id"] == "test-model"
        assert manifest["template"]["version"] == "el_one_shot_v1"

    @pytest.mark.parametrize("other_model,expected", [
        (None, "m-x"),
        ("m-a", ["m-a", "m-x"]),
    ])
    def test_replay_manifest_records_fixture_model(self, capsys, tmp_path, e2e_paths,
                                                   other_model, expected):
        # A completions log without model IDs, recorded under --model m-x; the
        # second case gives two of its rows another model.
        rows = []
        with open(e2e_paths["completions"], encoding="utf-8") as handle:
            for i, line in enumerate(handle):
                row = json.loads(line)
                del row["model_id"]
                if other_model is not None and i < 2:
                    row["model_id"] = other_model
                rows.append(json.dumps(row) + "\n")
        log = tmp_path / "log.jsonl"
        log.write_text("".join(rows), encoding="utf-8")
        fixture = tmp_path / "fixture.jsonl"
        code, _, _ = run(capsys, ["record", "--benchmark", e2e_paths["benchmark"],
                                  "--completions", str(log), "--model", "m-x",
                                  "--out", str(fixture)])
        assert code == 0

        out = tmp_path / "preds.jsonl"
        code, _, _ = run(capsys, ["link", "--backend", "replay", "--fixture", str(fixture),
                                  "--benchmark", e2e_paths["benchmark"], "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "preds.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend"]["model_id"] == expected

    def test_partial_failure_exits_1(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        bench.write_text(
            '{"id": "ok", "text": "First sentence.", "mentions": []}\n'
            '{"id": "gone", "text": "Second sentence.", "mentions": []}\n',
            encoding="utf-8")
        template = default_template()
        prompt = build_prompt(template, "First sentence.")
        fixture = tmp_path / "fix.jsonl"
        fixture.write_text(json.dumps({
            "digest": prompt_digest(prompt), "prompt": prompt,
            "raw_text": ' [{"Entities":{"First":"First Page"}}]', "model_id": "m",
        }) + "\n", encoding="utf-8")
        out = tmp_path / "preds.jsonl"

        code, stdout, stderr = run(capsys, [
            "link", "--backend", "replay", "--fixture", str(fixture),
            "--benchmark", str(bench), "--out", str(out)])
        assert code == 1
        assert "linked 2 sentence(s): 1 clean, 1 failed" in stdout
        assert "1 sentence(s) failed:" in stderr
        assert "gone: [replay-miss]" in stderr

        by_id = {r.sentence_id: r for r in load_predictions(str(out))}
        assert by_id["ok"].status == STATUS_CLEAN
        assert by_id["gone"].status == STATUS_UNPARSEABLE
        assert by_id["gone"].error == "replay-miss"
        assert by_id["gone"].links == ()

    def test_lone_surrogate_in_answer_is_skipped(self, capsys, tmp_path):
        # The answer was cut off by the token limit after the first half of a
        # surrogate pair escape; its link cannot be written as UTF-8.
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "s1", "text": "Mozart met Bach.", "mentions": []}\n',
                         encoding="utf-8")
        prompt = build_prompt(default_template(), "Mozart met Bach.")
        raw_text = '[{"Entities":{"Bach":"J. S. Bach","Mozart":"W. A. Mozart \\ud83d'
        fixture = tmp_path / "fix.jsonl"
        fixture.write_text(json.dumps({"digest": prompt_digest(prompt), "prompt": prompt,
                                       "raw_text": raw_text, "model_id": "m"}) + "\n",
                           encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        for _ in range(2):  # a replay rerun gives the same result
            code, stdout, _ = run(capsys, [
                "link", "--backend", "replay", "--fixture", str(fixture),
                "--benchmark", str(bench), "--out", str(out)])
            assert code == 0
            assert "linked 1 sentence(s): 1 repaired" in stdout
            (record,) = load_predictions(str(out))
            assert [(link.surface, link.title) for link in record.links] == [("Bach", "J. S. Bach")]

    def test_crlf_template_links_as_its_lf_twin(self, capsys, tmp_path, e2e_paths, e2e_fixture):
        """A template file is read in universal-newline mode, so a CRLF copy of
        the default template sends the default prompts, which the fixture
        answers, and its manifest records the sha256 of the LF text, not the
        sha256 of the file."""
        from elbench.manifest import file_sha256
        from elbench.prompting import default_template_text
        runs = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            template = tmp_path / name / "el_one_shot_v1.txt"
            template.parent.mkdir()
            template.write_bytes(default_template_text().replace("\n", newline).encode("utf-8"))
            out = tmp_path / f"{name}.jsonl"
            code, stdout, _ = run(capsys, [
                "link", "--backend", "replay", "--fixture", e2e_fixture, "--template",
                str(template), "--benchmark", e2e_paths["benchmark"], "--out", str(out)])
            assert code == 0
            assert "15 clean, 4 repaired, 1 unparseable" in stdout
            manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
            runs.append((out.read_bytes(), manifest["template"], file_sha256(str(template))))
        (lf_preds, lf_template, lf_file), (crlf_preds, crlf_template, crlf_file) = runs
        assert crlf_preds == lf_preds
        assert crlf_template == lf_template == {"version": "el_one_shot_v1", "sha256": lf_file}
        assert crlf_file != lf_file

    def test_missing_credential_is_usage_error(self, capsys, tmp_path, e2e_paths, monkeypatch):
        monkeypatch.delenv("EL_API_KEY", raising=False)
        code, _, err = run(capsys, [
            "link", "--backend", "http", "--endpoint", "http://127.0.0.1:9",
            "--benchmark", e2e_paths["benchmark"], "--out", str(tmp_path / "p.jsonl")])
        assert code == 2
        assert "error [credential-missing]" in err
        assert "EL_API_KEY" in err


    def test_missing_replay_fixture_exits_2(self, capsys, tmp_path, e2e_paths):
        missing, out = tmp_path / "none.jsonl", tmp_path / "p.jsonl"
        code, _, err = run(capsys, ["link", "--backend", "replay", "--fixture", str(missing),
                                    "--benchmark", e2e_paths["benchmark"], "--out", str(out)])
        assert code == 2
        assert err.startswith("error: ") and str(missing) in err
        assert not missing.exists() and not out.exists()

    def test_http_run_with_every_prompt_failed_names_no_model(self, capsys, tmp_path,
                                                                e2e_paths, stub_server,
                                                                monkeypatch):
        """The manifest names the model that answered, and here none did."""
        monkeypatch.setenv("EL_API_KEY", "test-key")
        server = stub_server(lambda request: (503, {"error": "down"}))
        out = tmp_path / "p.jsonl"
        code, _, _ = run(capsys, ["link", "--backend", "http", "--endpoint", server.url,
                                  "--model", "m", "--max-retries", "0",
                                  "--benchmark", e2e_paths["benchmark"], "--out", str(out)])
        assert code == 1
        manifest = json.loads((tmp_path / "p.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend"]["kind"] == "http"
        assert manifest["backend"]["model_id"] == ""
        assert set(manifest["inputs"]) == {"benchmark"}

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_stopped_http_run_resumes(self, capsys, tmp_path, e2e_paths, stub_server,
                                      monkeypatch, parallelism):
        """A stub that stops answering after 7 of 20 prompts makes link exit 1;
        the rerun with the same arguments asks for the 13 missing prompts only,
        and writes the bytes of a run that was never stopped."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.setenv("EL_API_KEY", "test-key")
        template = default_template()
        with open(e2e_paths["completions"], encoding="utf-8") as handle:
            raw = {row["sentence_id"]: row["raw_text"] for row in map(json.loads, handle)}
        answers = {build_prompt(template, sentence.text): raw[sentence.sentence_id]
                   for sentence in load_benchmark(e2e_paths["benchmark"]).sentences}
        left = [None]  # answers the stub gives before it stops; None for no limit
        lock = threading.Lock()

        def respond(request):
            with lock:
                if left[0] == 0:
                    return 503, {"error": "stopped"}
                if left[0] is not None:
                    left[0] -= 1
            return 200, {"choices": [{"text": answers[request["body"]["prompt"]]}]}

        server = stub_server(respond)
        # Relative paths, so both runs have one backend config digest.
        argv = ["link", "--backend", "http", "--endpoint", server.url, "--model", "m",
                "--max-retries", "0", "--parallelism", str(parallelism),
                "--benchmark", "bench.jsonl", "--fixture", "fixture.jsonl",
                "--out", "preds.jsonl"]
        artifacts = {}
        for name, stops_after in (("whole", None), ("stopped", 7)):
            workdir = tmp_path / name
            workdir.mkdir()
            shutil.copy(e2e_paths["benchmark"], workdir / "bench.jsonl")
            monkeypatch.chdir(workdir)
            left[0] = stops_after
            sent = len(server.requests)
            code, _, err = run(capsys, argv)
            assert len(server.requests) - sent == 20
            if stops_after is not None:
                assert code == 1
                assert err.count("[http-status]") == 13
                assert len((workdir / "fixture.jsonl").read_text(encoding="utf-8").splitlines()) == 7
                left[0] = None
                sent = len(server.requests)
                code, _, _ = run(capsys, argv)
                assert len(server.requests) - sent == 13
            assert code == 0
            artifacts[name] = [(workdir / path).read_bytes()
                               for path in ("preds.jsonl", "preds.jsonl.manifest.json")]
            assert len((workdir / "fixture.jsonl").read_text(encoding="utf-8").splitlines()) == 20
        assert artifacts["stopped"] == artifacts["whole"]
        manifest = json.loads(artifacts["whole"][1])
        assert manifest["backend"]["model_id"] == "m"
        assert set(manifest["inputs"]) == {"benchmark"}

    @pytest.mark.parametrize("fixture", [True, False], ids=["fixture", "no-fixture"])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_prompt_met_twice_is_sent_once(self, capsys, tmp_path, stub_server, monkeypatch,
                                           parallelism, fixture):
        """Sentences with one text make one prompt, sent once at any
        parallelism, with or without a fixture; every sentence gets its answer."""
        monkeypatch.setenv("EL_API_KEY", "test-key")
        text = "Rossini finished The Barber of Seville in under three weeks."
        bench = tmp_path / "bench.jsonl"
        bench.write_text("".join(json.dumps({"id": f"s{i}", "text": text}) + "\n"
                                 for i in range(4)), encoding="utf-8")
        answer = '[{"Entities":{"Rossini":"Gioachino Rossini"}}]'

        def respond(request):
            time.sleep(0.02)  # long enough for the workers to overlap
            return 200, {"choices": [{"text": answer}]}

        server = stub_server(respond)
        path, out = tmp_path / "fixture.jsonl", tmp_path / "preds.jsonl"
        code, _, _ = run(capsys, ["link", "--backend", "http", "--endpoint", server.url,
                                  "--model", "m", "--parallelism", str(parallelism),
                                  "--benchmark", str(bench), "--out", str(out),
                                  *(["--fixture", str(path)] if fixture else [])])
        assert code == 0
        assert len(server.requests) == 1
        if fixture:
            assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        records = load_predictions(str(out))
        assert len(records) == 4
        assert all(record.links == records[0].links for record in records)
        assert [link.title for link in records[0].links] == ["Gioachino Rossini"]

    def test_lone_surrogate_in_live_answer_is_escaped_in_the_fixture(self, capsys, tmp_path,
                                                                     stub_server, monkeypatch):
        """A live answer holding a lone surrogate, whose link the parser skips,
        goes into the fixture as its JSON escape.  The --fixture run links as
        the run without one does; its rerun sends no request and writes the
        same bytes; and the answer recorded by `record` replays the same."""
        monkeypatch.setenv("EL_API_KEY", "test-key")
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "s1", "text": "Mozart met Bach.", "mentions": []}\n',
                         encoding="utf-8")
        answer = '[{"Entities":{"Bach":"J. S. Bach \ud83d","Mozart":"W. A. Mozart"}}]'
        server = stub_server(lambda request: (200, {"choices": [{"text": answer}]}))
        fixture = tmp_path / "fixture.jsonl"

        def run_link(name, *args):
            out = tmp_path / name
            code, _, _ = run(capsys, ["link", "--benchmark", str(bench), "--out", str(out),
                                      *args])
            assert code == 0
            return out.read_bytes()

        live = ["--backend", "http", "--endpoint", server.url, "--model", "m"]
        expected = run_link("plain.jsonl", *live)
        (plain,) = load_predictions(str(tmp_path / "plain.jsonl"))
        assert [(link.surface, link.title) for link in plain.links] == [("Mozart", "W. A. Mozart")]
        assert run_link("fixed.jsonl", *live, "--fixture", str(fixture)) == expected
        assert len(server.requests) == 2
        assert "\\ud83d" in fixture.read_text(encoding="utf-8")
        assert run_link("rerun.jsonl", *live, "--fixture", str(fixture)) == expected
        assert len(server.requests) == 2

        log, recorded = tmp_path / "log.jsonl", tmp_path / "recorded.jsonl"
        log.write_text(json.dumps({"sentence_id": "s1", "raw_text": answer}) + "\n",
                       encoding="utf-8")
        code, _, _ = run(capsys, ["record", "--benchmark", str(bench), "--completions", str(log),
                                  "--model", "m", "--out", str(recorded)])
        assert code == 0
        assert run_link("replayed.jsonl", "--backend", "replay", "--fixture", str(recorded)) == expected


class TestResolve:
    def test_predictions_path(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "resolved.jsonl"
        code, stdout, _ = run(capsys, ["resolve", "--kb", e2e_paths["mapping"],
                                       "--predictions", str(linked), "--out", str(out)])
        assert code == 0
        records = load_predictions(str(out))
        links = [link for record in records for link in record.links]
        total = len(links)
        not_found = [link for link in links if link.qid is None]
        # three hallucinated titles plus the two NIL-mention guesses, which
        # the scorer's NIL policy will discard downstream
        assert {link.title for link in not_found} == {
            "Niccolo Paganini", "Music criticism", "Irish Melodies",
            "Michael Costa", "William Winterbottom"}
        assert all(link.resolution == "not-found" for link in not_found)
        resolved = [link for link in links if link.qid is not None]
        assert all(link.resolution == "title" for link in resolved)
        assert f"resolved {total} link(s): 5 not-found, {total - 5} title" in stdout

        by_title = {link.title: link.qid for link in resolved}
        assert by_title["Mendelssohn"] == "Q90012"  # via redirect row
        assert by_title["Gioachino Rossini"] == "Q90002"

    def test_failed_and_repaired_records_keep_their_fields(self, capsys, tmp_path, e2e_paths,
                                                           monkeypatch):
        """Each resolved record is the input record with only qid and
        resolution set on its links, as dataclasses.replace would give:
        status and error come through unchanged."""
        preds = tmp_path / "preds.jsonl"
        rows = [
            {"sentence_id": "s1", "status": "repaired",
             "links": [{"surface": "Mendelssohn", "title": "Mendelssohn"},
                       {"surface": "Paganini", "title": "Niccolo Paganini"},
                       {"surface": "blank", "title": " "}]},
            {"sentence_id": "s2", "status": "unparseable", "links": [], "error": "replay-miss"},
            {"sentence_id": "s3", "status": "unparseable", "links": []},
            {"sentence_id": "s4", "status": "clean", "error": "http-503",
             "links": [{"surface": "Rossini", "title": "Gioachino Rossini"},
                       {"surface": "none", "title": None}]},
        ]
        preds.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        saved = []
        monkeypatch.setattr(cli, "save_predictions",
                            lambda records, path: (saved.extend(records),
                                                   save_predictions(records, path)))
        out = tmp_path / "resolved.jsonl"
        code, _, _ = run(capsys, ["resolve", "--kb", e2e_paths["mapping"],
                                  "--predictions", str(preds), "--out", str(out)])
        assert code == 0

        kb = load_mapping(e2e_paths["mapping"])
        expected = []
        for record in load_predictions(str(preds)):
            links = []
            for link in record.links:
                qid = title_to_qid(kb, link.title) if link.title and link.title.strip() else None
                links.append(replace(link, qid=qid,
                                     resolution="title" if qid is not None else "not-found"))
            expected.append(replace(record, links=tuple(links)))
        assert saved == expected
        assert [link.qid for link in saved[0].links] == ["Q90012", None, None]
        assert [(r.status, r.error) for r in saved] == [
            ("repaired", None), ("unparseable", "replay-miss"), ("unparseable", None),
            ("clean", "http-503")]
        assert load_predictions(str(out)) == expected

    def test_external_path(self, capsys, tmp_path):
        kb = tmp_path / "map.tsv"
        kb.write_text("1\tJean-Philippe Rameau\tQ1\n"
                      "2\tRameau\t\tJean-Philippe Rameau\n", encoding="utf-8")
        ext = tmp_path / "ext.jsonl"
        ext.write_text(
            '{"sentence_id": "s1", "surface": "Rameau", "page_id": 1}\n'
            '{"sentence_id": "s1", "surface": "again", "title": "Rameau"}\n'
            '{"sentence_id": "s2", "surface": "x", "qid": "Q77"}\n'
            '{"sentence_id": "s2", "surface": "y", "title": "Nowhere"}\n',
            encoding="utf-8")
        out = tmp_path / "resolved.jsonl"
        code, stdout, _ = run(capsys, ["resolve", "--kb", str(kb),
                                       "--external", str(ext), "--out", str(out)])
        assert code == 0
        assert ("resolved 4 link(s): 1 given-qid, 1 not-found, "
                "1 page-id, 1 title") in stdout
        records = load_predictions(str(out))
        assert {r.sentence_id for r in records} == {"s1", "s2"}

    def test_external_boolean_page_id_rejected(self, capsys, tmp_path):
        # JSON true is a Python int, and used to resolve as page 1.
        kb = tmp_path / "map.tsv"
        kb.write_text("1\tThomas Moore\tQ315346\n", encoding="utf-8")
        ext = tmp_path / "ext.jsonl"
        ext.write_text('{"sentence_id": "s01", "surface": "X", "page_id": true}\n',
                       encoding="utf-8")
        code, _, err = run(capsys, ["resolve", "--kb", str(kb), "--external", str(ext),
                                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "line 1: page_id must be a positive integer, got True" in err

    def test_repeated_sentence_id_rejected(self, capsys, tmp_path, e2e_paths):
        # Used to be written through, and only `score` then failed, naming
        # neither the file nor a line.
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"sentence_id": "s1", "status": "clean", "links": []}\n'
            '{"sentence_id": "s2", "status": "clean", "links": []}\n'
            '{"sentence_id": "s1", "status": "clean", "links": []}\n', encoding="utf-8")
        out = tmp_path / "resolved.jsonl"
        code, _, err = run(capsys, ["resolve", "--kb", e2e_paths["mapping"],
                                    "--predictions", str(preds), "--out", str(out)])
        assert code == 2
        assert str(preds) in err
        assert "line 3: duplicate sentence_id 's1' (first seen on line 1)" in err
        assert not out.exists()

    @pytest.mark.parametrize("source, row", [
        ("--predictions", '{"sentence_id": "s2", "status": "clean", '
                          '"links": [{"surface": "X", "title": "Bad \\ud83d"}]}'),
        ("--external", '{"sentence_id": "s2", "surface": "X", "title": "Bad \\ud83d"}'),
    ], ids=["predictions", "external"])
    def test_lone_surrogate_rejected_before_out_is_opened(self, capsys, tmp_path, e2e_paths,
                                                          source, row):
        """A title holding a lone surrogate could not be written to --out: its
        line is named and --out is never opened."""
        first = {"--predictions": '{"sentence_id": "s1", "status": "clean", "links": []}',
                 "--external": '{"sentence_id": "s1", "surface": "Y", "qid": "Q1"}'}[source]
        rows = tmp_path / "rows.jsonl"
        rows.write_text(f"{first}\n{row}\n", encoding="utf-8")
        out = tmp_path / "resolved.jsonl"
        code, _, err = run(capsys, ["resolve", "--kb", e2e_paths["mapping"], source, str(rows),
                                    "--out", str(out)])
        assert code == 2
        assert err == (f"error: {rows}: 1 malformed record(s):\n"
                       "line 2: lone surrogate '\\ud83d': not encodable as UTF-8\n")
        assert not out.exists()

    def test_exactly_one_source(self, capsys, tmp_path, e2e_paths, linked):
        base = ["resolve", "--kb", e2e_paths["mapping"], "--out", str(tmp_path / "o.jsonl")]
        code, _, err = run(capsys, base)
        assert code == 2
        assert "exactly one of --external and --predictions" in err
        code, _, err = run(capsys, base + ["--predictions", str(linked),
                                           "--external", str(linked)])
        assert code == 2
        assert "exactly one of --external and --predictions" in err


class TestScore:
    def test_title_mode_artifacts(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "score.json"
        csv_out = tmp_path / "score.csv"
        code, stdout, _ = run(capsys, [
            "score", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--system", "llm",
            "--out", str(out), "--csv", str(csv_out)])
        assert code == 0
        assert "llm: P=79.4 R=84.4 F1=81.8 (tp=27 fp=7 fn=5)" in stdout

        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert artifact["mode"] == "title"
        assert artifact["nil_policy"] == "exclude-gold-and-ignore-matching-preds"
        assert (artifact["tp"], artifact["fp"], artifact["fn"]) == (27, 7, 5)
        assert artifact["precision_pct"] == 79.4
        assert artifact["recall_pct"] == 84.4
        assert artifact["f1_pct"] == 81.8
        assert artifact["tallies"]["nil_gold_excluded"] == 3
        assert set(artifact["manifest"]["inputs"]) == {"benchmark", "predictions", "kb"}

        with open(csv_out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["system", "slice", "tp", "fp", "fn", "precision", "recall", "f1"],
            ["llm", "all", "27", "7", "5", "0.794118", "0.843750", "0.818182"],
        ]

    def test_title_mode_requires_kb(self, capsys, tmp_path, e2e_paths, linked):
        code, _, err = run(capsys, [
            "score", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "title mode requires a mapping index" in err

    def test_per_sentence_payload(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "score.json"
        code, _, _ = run(capsys, [
            "score", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--per-sentence",
            "--out", str(out)])
        assert code == 0
        artifact = json.loads(out.read_text(encoding="utf-8"))
        assert len(artifact["per_sentence"]) == 20
        totals = [sum(row[k] for row in artifact["per_sentence"]) for k in ("tp", "fp", "fn")]
        assert totals == [27, 7, 5]


class TestStratify:
    def test_csv_rows(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "strata.csv"
        json_out = tmp_path / "strata.json"
        code, stdout, _ = run(capsys, [
            "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
            "--thetas", "20,100,inf", "--system", "llm",
            "--out", str(out), "--json", str(json_out)])
        assert code == 0
        assert f"wrote {out} (3 slice(s))" in stdout
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["system", "theta", "precision", "recall", "f1"],
            ["llm", "20", "57.1", "80.0", "66.7"],
            ["llm", "100", "77.8", "87.5", "82.4"],
            ["llm", "inf", "79.4", "84.4", "81.8"],
        ]
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert [s["theta"] for s in payload["slices"]] == [20, 100, "inf"]
        assert payload["slices"][2]["tp"] == 27
        assert payload["slices"][0]["slice"] == "θ≤20"

        manifest = json.loads((tmp_path / "strata.csv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["params"]["thetas"] == "20,100,inf"
        assert manifest["params"]["strict"] == "True"

    def test_canonical_and_loose_counts_write_the_same_bytes(self, capsys, tmp_path, e2e_paths,
                                                             linked, monkeypatch, line_checked):
        """The counts file and a loose copy of it (a blank line, padded cells,
        CRLF endings) both pass the line checker on their first load, and
        write the same slices."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with open(e2e_paths["counts"], encoding="utf-8") as handle:
            rows = [line.rstrip("\n").split("\t") for line in handle]
        loose = tmp_path / "loose.tsv"
        loose.write_bytes("".join(f" {qid}\t{count} \r\n" + ("\r\n" if i == 3 else "")
                                  for i, (qid, count) in enumerate(rows)).encode("utf-8"))
        outputs = []
        for counts in (e2e_paths["counts"], str(loose)):
            out_dir = tmp_path / f"run{len(outputs)}"
            out_dir.mkdir()
            code, _, _ = run(capsys, [
                "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
                "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", counts,
                "--thetas", "all", "--system", "llm", "--out", str(out_dir / "strata.csv"),
                "--json", str(out_dir / "strata.json")])
            assert code == 0
            payload = json.loads((out_dir / "strata.json").read_text(encoding="utf-8"))
            del payload["manifest"]
            outputs.append(((out_dir / "strata.csv").read_bytes(), json.dumps(payload)))
        assert line_checked == [e2e_paths["counts"], str(loose)]
        assert outputs[0] == outputs[1]

    def test_strict_missing_count_fails(self, capsys, tmp_path, e2e_paths, linked):
        counts = tmp_path / "partial.tsv"
        with open(e2e_paths["counts"], encoding="utf-8") as handle:
            kept = [line for line in handle if not line.startswith("Q90002\t")]
        counts.write_text("".join(kept), encoding="utf-8")
        base = ["stratify", "--benchmark", e2e_paths["benchmark"],
                "--predictions", str(linked), "--mode", "title",
                "--kb", e2e_paths["mapping"], "--counts", str(counts),
                "--out", str(tmp_path / "strata.csv")]
        code, _, err = run(capsys, base)
        assert code == 2
        assert "lack popularity counts: Q90002" in err
        code, stdout, _ = run(capsys, base + ["--lenient"])
        assert code == 0
        assert "6 slice(s)" in stdout  # default theta grid

    def test_theta_past_the_float_range(self, capsys, tmp_path, e2e_paths, linked):
        """A θ too large for a float is held as the integer it is: its row
        and slice are labelled with its digits, its JSON theta is that
        integer, and, being above every count, it keeps what inf keeps."""
        huge = "9" * 400
        out, json_out = tmp_path / "strata.csv", tmp_path / "strata.json"
        code, _, _ = run(capsys, [
            "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
            "--thetas", f"20,{huge}", "--system", "llm", "--out", str(out),
            "--json", str(json_out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1:] == [["llm", "20", "57.1", "80.0", "66.7"],
                            ["llm", huge, "79.4", "84.4", "81.8"]]
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert [s["theta"] for s in payload["slices"]] == [20, int(huge)]
        assert payload["slices"][1]["slice"] == f"θ≤{huge}"

    def test_theta_past_the_digit_limit(self, capsys, tmp_path, e2e_paths, linked):
        """int() refuses more than 4300 digits by default, with a message that
        names no θ; such a θ is an invalid theta that names itself."""
        token = "9" * 5000
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, [
            "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
            "--thetas", f"20,{token}", "--out", str(out)])
        assert code == 2
        assert err == f"error: invalid theta '{token}': too many digits\n"
        assert not out.exists()

    def test_invalid_theta(self, capsys, tmp_path, e2e_paths, linked):
        code, _, err = run(capsys, [
            "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
            "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
            "--thetas", "0", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "invalid theta '0'" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_theta_list(self, capsys, tmp_path, e2e_paths, linked, source):
        """An empty theta list is an error, not a request for the default grid,
        and so is an empty item among real ones, named by its place."""
        config = tmp_path / "stratify.cfg"
        for thetas, message in [("", "empty theta list"), (",", "empty theta list"),
                                ("20,,inf", "empty item 2 in theta list '20,,inf'"),
                                ("20,", "empty item 2 in theta list '20,'")]:
            config.write_text(f"thetas = {thetas}\n", encoding="utf-8")
            code, _, err = run(capsys, [
                "stratify", "--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
                "--mode", "title", "--kb", e2e_paths["mapping"], "--counts", e2e_paths["counts"],
                *(["--thetas", thetas] if source == "flag" else ["--config", str(config)]),
                "--out", str(tmp_path / "s.csv")])
            assert code == 2, thetas
            assert f"error: {message}" in err
            assert not (tmp_path / "s.csv").exists()


    def test_thetas_all(self, capsys, tmp_path, e2e_paths, linked):
        from elbench.benchmark import load_benchmark
        from elbench.kb import load_mapping, title_to_qid
        from elbench.popularity import load_counts

        counts = load_counts(e2e_paths["counts"])
        kb = load_mapping(e2e_paths["mapping"])
        qids = {m.qid for s in load_benchmark(e2e_paths["benchmark"]).sentences
                for m in s.mentions if not m.is_nil}
        qids |= {title_to_qid(kb, link.title) for record in load_predictions(str(linked))
                 for link in record.links if link.title}
        distinct = sorted({counts[q] for q in qids if q in counts and counts[q] >= 1})
        assert len(distinct) > 6

        common = ["--benchmark", e2e_paths["benchmark"], "--predictions", str(linked),
                  "--mode", "title", "--kb", e2e_paths["mapping"], "--system", "llm"]
        out = tmp_path / "strata.csv"
        json_out = tmp_path / "strata.json"
        code, stdout, _ = run(capsys, ["stratify", *common, "--counts", e2e_paths["counts"],
                                       "--thetas", "all", "--out", str(out),
                                       "--json", str(json_out)])
        assert code == 0
        assert f"({len(distinct) + 1} slice(s))" in stdout
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[1] for row in rows[1:]] == [str(c) for c in distinct] + ["inf"]

        score_out = tmp_path / "score.json"
        assert cli.main(["score", *common, "--out", str(score_out)]) == 0
        capsys.readouterr()
        full = json.loads(score_out.read_text(encoding="utf-8"))
        infinite = json.loads(json_out.read_text(encoding="utf-8"))["slices"][-1]
        assert infinite["theta"] == "inf"
        for key in ("system", "tp", "fp", "fn", "precision", "recall", "f1", "precision_pct",
                    "recall_pct", "f1_pct", "flags", "tallies"):
            assert infinite[key] == full[key], key
        assert rows[-1] == ["llm", "inf", str(full["precision_pct"]), str(full["recall_pct"]),
                            str(full["f1_pct"])]


class TestReport:
    def write_score(self, path, system, tp, fp, fn, mode="title"):
        path.write_text(json.dumps({"system": system, "mode": mode,
                                    "tp": tp, "fp": fp, "fn": fn}) + "\n", encoding="utf-8")

    def test_merge_sorted_by_f1(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.write_score(a, "weak-sys", 1, 1, 1)
        self.write_score(b, "strong-sys", 9, 1, 1)
        out = tmp_path / "table.csv"
        code, stdout, _ = run(capsys, ["report", "--inputs", str(a), str(b),
                                       "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["system", "precision", "recall", "f1"],
            ["strong-sys", "90.0", "90.0", "90.0"],
            ["weak-sys", "50.0", "50.0", "50.0"],
        ]
        lines = stdout.splitlines()
        assert lines[0] == "strong-sys  P=90.0 R=90.0 F1=90.0"
        assert lines[1] == "weak-sys    P=50.0 R=50.0 F1=50.0"

    def test_mixed_modes_rejected_unless_forced(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.write_score(a, "one", 1, 1, 1, mode="title")
        self.write_score(b, "two", 1, 1, 1, mode="qid")
        out = tmp_path / "table.csv"
        code, _, err = run(capsys, ["report", "--inputs", str(a), str(b), "--out", str(out)])
        assert code == 2
        assert "refusing to merge reports with mixed match modes" in err
        code, _, _ = run(capsys, ["report", "--inputs", str(a), str(b),
                                  "--out", str(out), "--force"])
        assert code == 0

    def test_deeply_nested_report_is_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        code, stdout, err = run(capsys, ["report", "--inputs", str(bad),
                                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert err.startswith(f"error: {bad}: invalid JSON: ")
        assert stdout == ""

    def test_integer_past_the_digit_limit_is_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": "x", "tp": ' + "9" * 5000 + ', "fp": 0, "fn": 0}\n',
                       encoding="utf-8")
        code, stdout, err = run(capsys, ["report", "--inputs", str(bad),
                                         "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert err.startswith(f"error: {bad}: invalid JSON: Exceeds the limit")
        assert stdout == ""

    def test_missing_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"system": "x", "tp": 1, "fp": 2}\n', encoding="utf-8")
        code, _, err = run(capsys, ["report", "--inputs", str(bad),
                                    "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "missing field 'fn'" in err

    @pytest.mark.parametrize("content, message", [
        ('[1, 2]', "a score report must be a JSON object"),
        ('not json', "invalid JSON"),
        ('{"system": 7, "tp": 1, "fp": 1, "fn": 1}', "system must be a string, got 7"),
        ('{"system": "x", "tp": -3, "fp": 1, "fn": 2}', "tp must be a nonnegative integer, got -3"),
        ('{"system": "x", "tp": true, "fp": 1, "fn": 2}', "tp must be a nonnegative integer, got True"),
        ('{"system": "x", "tp": 1, "fp": 1.5, "fn": 2}', "fp must be a nonnegative integer, got 1.5"),
        ('{"system": "x", "tp": "3", "fp": 1, "fn": 2}', "tp must be a nonnegative integer, got '3'"),
        ('{"system": "x", "mode": [], "tp": 1, "fp": 0, "fn": 0}', "mode must be a string, got []"),
        ('{"system": "x", "mode": 5, "tp": 1, "fp": 0, "fn": 0}', "mode must be a string, got 5"),
    ])
    def test_malformed_report_rejected(self, capsys, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content + "\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        code, stdout, err = run(capsys, ["report", "--inputs", str(bad), "--out", str(out)])
        assert code == 2
        assert f"error: {bad}: {message}" in err
        assert stdout == "" and not out.exists()


class TestRecord:
    def test_build_fixture_then_link(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        bench.write_text(
            '{"id": "a", "text": "Alpha text.", "mentions": []}\n'
            '{"id": "b", "text": "Beta text.", "mentions": []}\n',
            encoding="utf-8")
        log = tmp_path / "log.jsonl"
        log.write_text('{"sentence_id": "a", "raw_text": "[{\\"Entities\\":{}}]"}\n',
                       encoding="utf-8")
        fixture = tmp_path / "fixture.jsonl"
        code, stdout, _ = run(capsys, ["record", "--benchmark", str(bench),
                                       "--completions", str(log), "--model", "m-x",
                                       "--out", str(fixture)])
        assert code == 0
        assert "recorded 1 completion(s), 1 sentence(s) had no completion" in stdout

        (entry,) = [json.loads(line) for line in fixture.read_text(encoding="utf-8").splitlines()]
        template = default_template()
        assert entry["prompt"] == build_prompt(template, "Alpha text.")
        assert entry["digest"] == prompt_digest(entry["prompt"])
        assert entry["model_id"] == "m-x"

        out = tmp_path / "preds.jsonl"
        code, stdout, stderr = run(capsys, [
            "link", "--backend", "replay", "--fixture", str(fixture),
            "--benchmark", str(bench), "--out", str(out)])
        assert code == 1
        assert "1 clean, 1 failed" in stdout
        assert "b: [replay-miss]" in stderr

    def test_unknown_and_duplicate_ids(self, capsys, tmp_path):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "a", "text": "Alpha.", "mentions": []}\n',
                         encoding="utf-8")
        log = tmp_path / "log.jsonl"
        log.write_text('{"sentence_id": "ghost", "raw_text": "x"}\n'
                       '{"sentence_id": "a", "raw_text": "x"}\n'
                       '{"sentence_id": "a", "raw_text": "y"}\n', encoding="utf-8")
        code, _, err = run(capsys, ["record", "--benchmark", str(bench),
                                    "--completions", str(log),
                                    "--out", str(tmp_path / "f.jsonl")])
        assert code == 2
        assert "2 malformed record(s)" in err
        assert "unknown sentence_id 'ghost'" in err
        assert "line 3: duplicate sentence_id 'a'" in err

    @pytest.mark.parametrize("model_id", [5, None, ["m"]])
    def test_non_string_model_id_rejected(self, capsys, tmp_path, model_id):
        bench = tmp_path / "bench.jsonl"
        bench.write_text('{"id": "a", "text": "Alpha.", "mentions": []}\n'
                         '{"id": "b", "text": "Beta.", "mentions": []}\n', encoding="utf-8")
        log = tmp_path / "log.jsonl"
        log.write_text(json.dumps({"sentence_id": "a", "raw_text": "[]", "model_id": "m"}) + "\n"
                       + json.dumps({"sentence_id": "b", "raw_text": "[]", "model_id": model_id})
                       + "\n", encoding="utf-8")
        fixture = tmp_path / "f.jsonl"
        code, _, err = run(capsys, ["record", "--benchmark", str(bench),
                                    "--completions", str(log), "--out", str(fixture)])
        assert code == 2
        assert f"{log}: 1 malformed record(s):\nline 2: model_id must be a string" in err
        assert not fixture.exists()


class TestConfigFile:
    def test_config_supplies_required_options(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "score.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scoring defaults\n"
            f"benchmark = {e2e_paths['benchmark']}\n"
            f"predictions = {linked}\n"
            f"kb = {e2e_paths['mapping']}\n"
            "mode = title\n"
            "system = from-config\n"
            f"out = {out}\n", encoding="utf-8")
        code, stdout, _ = run(capsys, ["score", "--config", str(cfg)])
        assert code == 0
        assert "from-config: P=79.4" in stdout

    def test_flag_beats_config(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "score.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"benchmark = {e2e_paths['benchmark']}\n"
                       f"predictions = {linked}\n"
                       f"kb = {e2e_paths['mapping']}\n"
                       "system = from-config\n"
                       f"out = {out}\n", encoding="utf-8")
        code, stdout, _ = run(capsys, ["score", "--config", str(cfg),
                                       "--system", "from-flag"])
        assert code == 0
        assert "from-flag: P=79.4" in stdout

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmark\n", encoding="utf-8")
        code, _, err = run(capsys, ["score", "--config", str(cfg)])
        assert code == 2
        assert "run.cfg:1: expected key=value" in err


    @pytest.mark.parametrize("typo", ["nil_policy = exclude-gold-only", "mdoe = qid"])
    def test_unknown_key_rejected(self, capsys, tmp_path, e2e_paths, linked, typo):
        out = tmp_path / "score.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"benchmark = {e2e_paths['benchmark']}\n"
                       f"predictions = {linked}\n"
                       f"kb = {e2e_paths['mapping']}\n"
                       f"{typo}\n"
                       f"out = {out}\n", encoding="utf-8")
        code, stdout, err = run(capsys, ["score", "--config", str(cfg)])
        assert code == 2
        key = typo.split(" = ")[0]
        assert f"{cfg}:4: unknown key {key!r}" in err
        assert "nil-policy" in err and "mode" in err
        assert not out.exists()

    def test_repeated_key_rejected(self, capsys, tmp_path, e2e_paths, linked):
        out = tmp_path / "score.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = title\n"
                       f"benchmark = {e2e_paths['benchmark']}\n"
                       f"predictions = {linked}\n"
                       f"kb = {e2e_paths['mapping']}\n"
                       "mode = qid\n"
                       f"out = {out}\n", encoding="utf-8")
        code, _, err = run(capsys, ["score", "--config", str(cfg)])
        assert code == 2
        assert f"error: {cfg}:5: duplicate key 'mode' (first set on line 1)" in err
        assert not out.exists()

    def test_key_of_another_command_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# ingest takes no thetas\nthetas = 20\n", encoding="utf-8")
        code, _, err = run(capsys, ["ingest", "--config", str(cfg)])
        assert code == 2
        assert f"{cfg}:2: unknown key 'thetas'" in err

    def test_record_is_no_link_key(self, capsys, tmp_path):
        """A live http run with a fixture writes it; there is no --record."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backend = http\nrecord = fixture.jsonl\n", encoding="utf-8")
        code, _, err = run(capsys, ["link", "--config", str(cfg)])
        assert code == 2
        assert f"error: {cfg}:2: unknown key 'record'" in err
        with pytest.raises(SystemExit) as exit_:
            cli.main(["link", "--record", "fixture.jsonl"])
        assert exit_.value.code == 2

    def test_lone_cr_stays_inside_its_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"system = a\rb\nmode = qidd\n")
        code, _, err = run(capsys, ["score", "--config", str(cfg)])
        assert code == 2
        assert f"error: {cfg}:2: mode: invalid choice: 'qidd'" in err

    def test_crlf_config_loads_as_its_lf_twin(self, capsys, tmp_path):
        actions = cli.build_parser().parse_args(["score"]).config_actions
        text = "# defaults\nsystem = a b\n\nmode = qid\nper-sentence = yes\n"
        lf, crlf = tmp_path / "lf.cfg", tmp_path / "crlf.cfg"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert cli.load_config(str(crlf), actions) == cli.load_config(str(lf), actions) == {
            "system": "a b", "mode": "qid", "per-sentence": True}
        crlf.write_bytes(b"system = x\r\nmode = qidd\r\n")
        code, _, err = run(capsys, ["score", "--config", str(crlf)])
        assert code == 2
        assert f"error: {crlf}:2: mode: invalid choice: 'qidd'" in err

    @pytest.mark.parametrize("command, line, message", [
        ("link", "parallelism = four", "parallelism: invalid int value: 'four'"),
        ("stratify", "lenient = treu",
         "lenient: expected one of 1/true/yes/on/0/false/no/off, got 'treu'"),
        ("score", "format = xml", "format: invalid choice: 'xml' (choose from 'jsonl', 'tsv')"),
        ("score", "mode = foo", "mode: invalid choice: 'foo' (choose from 'title', 'qid')"),
    ])
    def test_bad_value_names_file_and_line(self, capsys, tmp_path, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# defaults\n{line}\n", encoding="utf-8")
        code, _, err = run(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert f"error: {cfg}:2: {message}" in err

    @pytest.mark.parametrize("command", ["score", "stratify"])
    def test_nil_policy_choices(self, capsys, tmp_path, command):
        actions = cli.build_parser().parse_args([command]).config_actions
        assert tuple(actions["nil-policy"].choices) == NIL_POLICIES
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nil-policy = bogus\n", encoding="utf-8")
        code, _, err = run(capsys, [command, "--config", str(cfg)])
        assert code == 2
        assert (f"error: {cfg}:1: nil-policy: invalid choice: 'bogus' (choose from "
                + ", ".join(map(repr, NIL_POLICIES)) + ")") in err
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--nil-policy", "bogus"])
        assert exit_.value.code == 2
        assert "--nil-policy: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_values_converted_as_their_flags(self, capsys, tmp_path, e2e_paths, e2e_fixture,
                                             linked, monkeypatch):
        out = tmp_path / "score.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"benchmark = {e2e_paths['benchmark']}\n"
                       f"predictions = {linked}\n"
                       f"kb = {e2e_paths['mapping']}\n"
                       "per-sentence = Yes\n"
                       f"out = {out}\n", encoding="utf-8")
        code, _, _ = run(capsys, ["score", "--config", str(cfg)])
        assert code == 0
        assert len(json.loads(out.read_text(encoding="utf-8"))["per_sentence"]) == 20
        cfg.write_text("max-retries = 2\nparallelism = 3\ntemperature = 0.5\n", encoding="utf-8")
        configs = []
        batch_complete = cli.batch_complete
        monkeypatch.setattr(cli, "batch_complete",
                            lambda config, prompts: configs.append(config)
                            or batch_complete(config, prompts))
        code, _, _ = run(capsys, ["link", "--config", str(cfg), "--backend", "replay",
                                  "--fixture", e2e_fixture, "--benchmark", e2e_paths["benchmark"],
                                  "--out", str(tmp_path / "preds.jsonl")])
        assert code == 0
        assert [(c.max_retries, c.parallelism, c.temperature) for c in configs] == [(2, 3, 0.5)]

    def test_report_inputs_from_config(self, capsys, tmp_path):
        score_path = tmp_path / "a.json"
        score_path.write_text(json.dumps({"system": "sys", "mode": "title",
                                          "tp": 1, "fp": 1, "fn": 0}), encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"inputs = {score_path}\nout = {tmp_path / 'table.csv'}\n",
                       encoding="utf-8")
        code, stdout, _ = run(capsys, ["report", "--config", str(cfg)])
        assert code == 0
        assert "sys  P=50.0 R=100.0 F1=66.7" in stdout


def opt(dest, default=None, choices=None, nargs=None, action="_StoreAction", type=None,
        help=False):
    """One long flag as OPTION_SURFACE pins it."""
    return dest, default, choices, nargs, action, type, help


FLAG = dict(default=False, nargs=0, action="_StoreTrueAction")
FORMAT = opt("format", "jsonl", ("jsonl", "tsv"))
MATCHING = {"--mode": opt("mode", "title", ("title", "qid")),
            "--nil-policy": opt("nil_policy", NIL_POLICIES[0], NIL_POLICIES),
            "--system": opt("system", "system")}

# Every subcommand's long flags: dest, default, choices, nargs, action
# class, type and whether it has help.  --out and --config are on every one.
OPTION_SURFACE = {
    "ingest": {"--input": opt("input"), "--format": FORMAT,
               "--out-format": opt("out_format", "jsonl", ("jsonl", "tsv"))},
    "link": {"--benchmark": opt("benchmark"), "--format": FORMAT, "--template": opt("template"),
             "--backend": opt("backend", choices=("http", "replay")),
             "--endpoint": opt("endpoint"), "--model": opt("model_id"),
             "--fixture": opt("fixture_path", help=True),
             "--temperature": opt("temperature", type="float"),
             "--max-output-tokens": opt("max_output_tokens", type="int"),
             "--timeout": opt("request_timeout", type="float"),
             "--max-retries": opt("max_retries", type="int"),
             "--retry-backoff": opt("retry_backoff", type="float"),
             "--parallelism": opt("parallelism", type="int"),
             "--wire": opt("wire", choices=("completions", "chat")),
             "--api-key-env": opt("api_key_env")},
    "resolve": {"--kb": opt("kb"), "--external": opt("external", help=True),
                "--predictions": opt("predictions", help=True)},
    "score": {"--benchmark": opt("benchmark"), "--format": FORMAT,
              "--predictions": opt("predictions"), "--kb": opt("kb"), **MATCHING,
              "--per-sentence": opt("per_sentence", **FLAG), "--csv": opt("csv")},
    "stratify": {"--benchmark": opt("benchmark"), "--format": FORMAT,
                 "--predictions": opt("predictions"), "--kb": opt("kb"), **MATCHING,
                 "--counts": opt("counts"), "--thetas": opt("thetas", help=True),
                 "--lenient": opt("lenient", **FLAG, help=True), "--json": opt("json")},
    "report": {"--inputs": opt("inputs", nargs="+"),
               "--force": opt("force", **FLAG, help=True)},
    "record": {"--benchmark": opt("benchmark"), "--format": FORMAT, "--template": opt("template"),
               "--completions": opt("completions", help=True),
               "--model": opt("model", "", help=True)},
}


@pytest.mark.parametrize("command", list(OPTION_SURFACE))
def test_option_surface(command):
    """Each subcommand takes exactly these long flags, and its config file
    may set the same keys but config."""
    args = cli.build_parser().parse_args([command])
    subparser = args.config_actions["out"].container
    surface = {}
    for action in subparser._actions:
        for flag in action.option_strings:
            if flag.startswith("--") and flag != "--help":
                surface[flag] = opt(action.dest, action.default,
                                    tuple(action.choices) if action.choices else None,
                                    action.nargs, type(action).__name__,
                                    action.type.__name__ if action.type else None,
                                    action.help is not None)
    expected = {**OPTION_SURFACE[command], "--out": opt("out"), "--config": opt("config")}
    assert surface == expected
    assert set(args.config_actions) == {flag[2:] for flag in expected} - {"config"}


@pytest.mark.parametrize("name", ["config", "benchmark", "mapping", "counts", "template",
                                  "report"])
def test_not_utf8_input_names_path_and_line(capsys, tmp_path, e2e_paths, e2e_fixture, linked,
                                            name):
    """An input file with a byte that is not UTF-8 on line 2 fails with its
    path and that line, whichever command reads it."""
    bad = tmp_path / f"bad-{name}"
    if name in ("benchmark", "mapping", "counts"):
        with open(e2e_paths[name], "rb") as handle:
            first = handle.readline()
    else:
        first = {"config": b"# defaults\n", "template": b"Sentence:\n", "report": b"{\n"}[name]
    bad.write_bytes(first + b"caf\xe9\n")
    bench, out = e2e_paths["benchmark"], str(tmp_path / "out")
    argv = {
        "config": ["score", "--config", str(bad)],
        "benchmark": ["ingest", "--input", str(bad)],
        "mapping": ["resolve", "--predictions", str(linked), "--kb", str(bad), "--out", out],
        "counts": ["stratify", "--benchmark", bench, "--predictions", str(linked),
                   "--counts", str(bad), "--out", out],
        "template": ["link", "--backend", "replay", "--fixture", e2e_fixture, "--benchmark",
                     bench, "--template", str(bad), "--out", out],
        "report": ["report", "--inputs", str(bad), "--out", out],
    }[name]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err == f"error: {bad}: line 2: not valid UTF-8\n"


class TestReproducibility:
    def test_byte_identical_rerun(self, capsys, tmp_path, e2e_paths, e2e_fixture,
                                  monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        preds = tmp_path / "preds.jsonl"
        score_out = tmp_path / "score.json"
        outputs = []
        for _ in range(2):
            assert cli.main(["link", "--backend", "replay",
                             "--fixture", e2e_fixture,
                             "--benchmark", e2e_paths["benchmark"],
                             "--out", str(preds)]) == 0
            assert cli.main(["score", "--benchmark", e2e_paths["benchmark"],
                             "--predictions", str(preds), "--mode", "title",
                             "--kb", e2e_paths["mapping"], "--out", str(score_out)]) == 0
            capsys.readouterr()
            outputs.append((preds.read_bytes(), score_out.read_bytes(),
                            (tmp_path / "preds.jsonl.manifest.json").read_bytes()))
        assert outputs[0] == outputs[1]
        artifact = json.loads(outputs[0][1])
        assert artifact["manifest"]["timestamp"] == "2023-11-14T22:13:20Z"

    def test_manifest_timestamp(self, monkeypatch):
        """SOURCE_DATE_EPOCH pins the stamp; without it the stamp is now, in UTC."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert manifest_timestamp() == "2023-11-14T22:13:20Z"
        monkeypatch.delenv("SOURCE_DATE_EPOCH")
        before = datetime.now(timezone.utc).replace(microsecond=0)
        stamp = datetime.strptime(manifest_timestamp(), "%Y-%m-%dT%H:%M:%SZ")
        assert before <= stamp.replace(tzinfo=timezone.utc) <= datetime.now(timezone.utc)

    def test_cold_and_warm_kb_cache_give_identical_artifacts(self, capsys, tmp_path, e2e_paths,
                                                             e2e_fixture, monkeypatch):
        """The README pipeline writes the same bytes whether the input cache is
        empty, warm, or unusable (the KB index cache for want of sqlite3, or
        the whole cache for a cache directory that is a file), and whether
        each command takes its options as flags or from a config file."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        bench, kb = e2e_paths["benchmark"], e2e_paths["mapping"]
        external = tmp_path / "external.jsonl"
        external.write_text("".join(json.dumps(row) + "\n" for row in [
            {"sentence_id": "s01", "surface": "Rossini", "page_id": 2002},
            {"sentence_id": "s01", "surface": "Barber", "page_id": 99, "title": "the_Barber of Seville"},
            {"sentence_id": "s02", "surface": "x", "title": "Nowhere", "qid": "Q5"},
            {"sentence_id": "s02", "surface": "y", "title": "Nowhere"}]), encoding="utf-8")
        out = {name: str(tmp_path / name) for name in (
            "preds.jsonl", "resolved.jsonl", "external_resolved.jsonl", "score.json",
            "score.csv", "score_qid.json", "strata.csv", "strata.json", "table.csv")}
        # link sets non-default values of flags whose dest differs from their
        # name, so a config key applied to the wrong dest changes the digest.
        commands = [
            ["link", "--backend", "replay", "--fixture", e2e_fixture, "--benchmark", bench,
             "--model", "llama-3", "--timeout", "5", "--temperature", "0.25",
             "--out", out["preds.jsonl"]],
            ["resolve", "--predictions", out["preds.jsonl"], "--kb", kb,
             "--out", out["resolved.jsonl"]],
            ["resolve", "--external", str(external), "--kb", kb,
             "--out", out["external_resolved.jsonl"]],
            ["score", "--benchmark", bench, "--predictions", out["preds.jsonl"], "--mode", "title",
             "--kb", kb, "--system", "llm", "--out", out["score.json"], "--csv", out["score.csv"]],
            ["score", "--benchmark", bench, "--predictions", out["resolved.jsonl"],
             "--mode", "qid", "--kb", kb, "--out", out["score_qid.json"]],
            ["stratify", "--benchmark", bench, "--predictions", out["preds.jsonl"],
             "--mode", "title", "--kb", kb, "--counts", e2e_paths["counts"],
             "--thetas", "20,100,inf", "--system", "llm", "--out", out["strata.csv"],
             "--json", out["strata.json"]],
            ["report", "--inputs", out["score.json"], "--out", out["table.csv"]],
        ]

        def pipeline(commands=commands):
            for argv in commands:
                assert cli.main(argv) == 0, argv
            capsys.readouterr()
            return {name: (tmp_path / name).read_bytes()
                    for name in os.listdir(tmp_path) if name.endswith((".jsonl", ".json", ".csv"))}

        def from_config(index, argv):
            """argv with every option moved into a config file."""
            config = tmp_path / f"{index}.cfg"
            options = argv[1:]
            config.write_text("".join(f"{flag[2:]} = {value}\n"
                                      for flag, value in zip(options[::2], options[1::2])),
                              encoding="utf-8")
            return [argv[0], "--config", str(config)]

        cold = pipeline()
        # One entry each for the mapping, the benchmark and the counts.
        assert len(os.listdir(tmp_path / "cache" / "elbench")) == 3
        assert pipeline() == cold
        with monkeypatch.context() as patch:
            without_sqlite3(patch)
            assert pipeline() == cold
        with monkeypatch.context() as patch:
            blocker = tmp_path / "blocker"
            blocker.write_bytes(b"")
            patch.setenv("XDG_CACHE_HOME", str(blocker))
            assert pipeline() == cold
            assert blocker.read_bytes() == b""
        assert pipeline([from_config(*item) for item in enumerate(commands)]) == cold
        assert set(out) <= set(cold)

        # A link given no optional flag runs with BackendConfig's own defaults.
        assert cli.main(["link", "--backend", "replay", "--fixture", e2e_fixture,
                         "--benchmark", bench, "--out", out["preds.jsonl"]]) == 0
        manifest = json.loads((tmp_path / "preds.jsonl.manifest.json").read_text(encoding="utf-8"))
        assert manifest["backend"]["digest"] == config_digest(
            BackendConfig(kind="replay", fixture_path=e2e_fixture))


# Runs elbench commands through cli.main in a fresh interpreter, then prints
# the elbench modules and the watched standard-library modules it imported.
# argv: a JSON list of argument lists; ["http-backend"] builds an http backend.
IMPORT_PROBE = """
import json, os, sys
from elbench import cli
for argv in json.loads(sys.argv[1]):
    if argv == ["http-backend"]:
        from elbench.backends import BackendConfig, make_backend
        os.environ["EL_API_KEY"] = "probe"
        make_backend(BackendConfig(kind="http", endpoint="http://127.0.0.1:9"))
    else:
        assert cli.main(argv) == 0, argv
watched = ("concurrent.futures", "datetime", "http.client", "sqlite3", "urllib.request", "requests")
print(" ".join(sorted(name.replace("elbench.", "") for name in sys.modules
                      if name.startswith("elbench.") or name in watched)))
"""

# What each case imports.  The commands that read a KB mapping load sqlite3
# for its index cache; sqlite3 imports datetime, and so does http.client.
# Every command that imports kb loads the input cache's shared code.
IMPORTED = {
    "offline": "backends baseline benchmark cache cli datetime kb kbcache manifest parsing "
               "popularity prompting records scoring sqlite3",
    "http": "backends cli datetime http.client records urllib.request",
    "ingest": "benchmark cache cli kb records",
    "record": "backends benchmark cache cli kb prompting records",
    "link": "backends benchmark cache cli kb manifest parsing prompting records",
    "resolve": "baseline cache cli datetime kb kbcache manifest parsing records sqlite3",
    "score-title": "benchmark cache cli datetime kb kbcache manifest parsing records scoring sqlite3",
    "score-qid": "benchmark cache cli kb manifest parsing records scoring",
    "stratify": "benchmark cache cli datetime kb kbcache manifest parsing popularity records "
                "scoring sqlite3",
    "report": "benchmark cache cli kb manifest parsing records scoring",
}


@pytest.mark.parametrize("case", list(IMPORTED))
def test_http_client_imported_only_for_http(tmp_path, e2e_paths, e2e_fixture, linked, case):
    """Each command imports only the modules it runs.  Only the http backend
    loads the standard library's HTTP client, only a command that reads a
    mapping loads sqlite3, no case here loads concurrent.futures (replay
    runs inline), and nothing loads requests."""
    bench, kb = e2e_paths["benchmark"], e2e_paths["mapping"]
    score_path = tmp_path / "score.json"
    score_path.write_text(json.dumps({"system": "sys", "mode": "title",
                                      "tp": 1, "fp": 1, "fn": 0}), encoding="utf-8")
    commands = {
        "ingest": ["ingest", "--input", bench],
        "record": ["record", "--benchmark", bench, "--completions", e2e_paths["completions"],
                   "--out", str(tmp_path / "fixture.jsonl")],
        "link": ["link", "--backend", "replay", "--fixture", e2e_fixture, "--benchmark", bench,
                 "--out", str(linked)],
        "resolve": ["resolve", "--predictions", str(linked), "--kb", kb,
                    "--out", str(tmp_path / "resolved.jsonl")],
        "score-title": ["score", "--benchmark", bench, "--predictions", str(linked), "--kb", kb,
                        "--out", str(tmp_path / "score_title.json")],
        "score-qid": ["score", "--benchmark", bench, "--predictions", str(linked),
                      "--mode", "qid", "--out", str(tmp_path / "score_qid.json")],
        "stratify": ["stratify", "--benchmark", bench, "--predictions", str(linked), "--kb", kb,
                     "--counts", e2e_paths["counts"], "--out", str(tmp_path / "strata.csv")],
        "report": ["report", "--inputs", str(score_path), "--out", str(tmp_path / "table.csv")],
    }
    runs = {"offline": [commands[name] for name in
                        ("record", "link", "resolve", "score-title", "stratify")],
            "http": [["http-backend"]]}.get(case) or [commands[case]]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(runs)],
                          capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == IMPORTED[case]


ANNOTATION_PROBE = """
import inspect, typing
from elbench import cli
cli._bind(*cli._NAMES)
for name, value in vars(cli).items():
    if inspect.isfunction(value) and value.__module__ == cli.__name__:
        typing.get_type_hints(value)
print("ok")
"""


def test_annotations_resolve_once_bound():
    """Every name an annotation in elbench.cli uses is bound by _bind."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", ANNOTATION_PROBE],
                          capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


# The names perfbench/traced.py reads from elbench.cli and replaces with
# timing wrappers.
TRACED_NAMES = ("load_benchmark", "benchmark_stats", "build_prompt", "batch_complete",
                "parse_predictions", "save_predictions", "load_predictions", "load_mapping",
                "title_to_qid", "load_external_predictions", "load_counts", "stratify",
                "build_run_manifest", "write_manifest", "score")

TRACE_PROBE = """
import sys
from elbench import cli
names, argv = sys.argv[1].split(","), sys.argv[2:]
found = {name: getattr(cli, name) for name in names}
assert all(callable(fn) and fn.__module__.startswith("elbench.") for fn in found.values()), found
calls = []
def load_mapping(*args, **kwargs):
    calls.append(args)
    return found["load_mapping"](*args, **kwargs)
cli.load_mapping = load_mapping
assert cli.main(argv) == 0, argv
print(len(calls))
"""


def test_traced_names_readable_and_replaceable_before_any_command(tmp_path, e2e_paths, linked):
    """A fresh elbench.cli has every traced name as an attribute before any
    command has bound it, and a command calls the replacement set there."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = ["resolve", "--predictions", str(linked), "--kb", e2e_paths["mapping"],
            "--out", str(tmp_path / "resolved.jsonl")]
    proc = subprocess.run([sys.executable, "-c", TRACE_PROBE, ",".join(TRACED_NAMES), *argv],
                          capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


@pytest.mark.skipif(shutil.which("elbench") is None,
                    reason="console script 'elbench' is not on PATH; "
                           "install it with `pip install . --no-build-isolation`")
def test_console_script_installed(tmp_path, data_dir, e2e_paths):
    """The installed script, importing the installed package (PYTHONPATH is
    dropped), records the sample's fixture and links from it with the
    packaged default template: both files equal their pinned copies, so a
    package without templates/*.txt fails here."""
    exe = shutil.which("elbench")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    def elbench(*args):
        proc = subprocess.run([exe, *args], capture_output=True, encoding="utf-8", timeout=60,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert "sentences: 20" in elbench("ingest", "--input", e2e_paths["benchmark"])
    elbench("record", "--benchmark", e2e_paths["benchmark"],
            "--completions", e2e_paths["completions"], "--out", "fixture.jsonl")
    elbench("link", "--backend", "replay", "--fixture", "fixture.jsonl",
            "--benchmark", e2e_paths["benchmark"], "--out", "preds.jsonl")
    for name in ("fixture.jsonl", "preds.jsonl"):
        with open(os.path.join(data_dir, "pinned", name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name


def test_console_script_entry_point(capsys, e2e_paths):
    """The `elbench` script declared in pyproject.toml loads cli.main and
    runs a command, without the package being installed."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml"), "rb") as f:
        value = tomllib.load(f)["project"]["scripts"]["elbench"]
    main = EntryPoint(name="elbench", value=value, group="console_scripts").load()
    assert main is cli.main
    code, out, _ = run(capsys, ["ingest", "--input", e2e_paths["benchmark"]])
    assert code == 0
    assert "sentences: 20" in out
