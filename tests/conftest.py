import os

import pytest

from elbench import popularity
from elbench.benchmark import Benchmark, BenchmarkSentence, GoldMention
from elbench.kb import KbRecord, MappingIndex
from elbench.records import read_records

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def e2e_paths():
    return {
        "benchmark": os.path.join(DATA_DIR, "e2e_benchmark.jsonl"),
        "mapping": os.path.join(DATA_DIR, "e2e_mapping.tsv"),
        "counts": os.path.join(DATA_DIR, "e2e_counts.tsv"),
        "completions": os.path.join(DATA_DIR, "e2e_completions.jsonl"),
    }


@pytest.fixture(scope="session")
def e2e_fixture(e2e_paths, tmp_path_factory):
    """Replay fixture built from the recorded completions log."""
    from elbench import cli

    out = tmp_path_factory.mktemp("replay") / "e2e_fixture.jsonl"
    code = cli.main(["record", "--benchmark", e2e_paths["benchmark"],
                     "--completions", e2e_paths["completions"], "--out", str(out)])
    assert code == 0
    return str(out)


def make_benchmark(*sentences):
    return Benchmark(sentences=tuple(sentences))


def sent(sentence_id, text, *mentions):
    return BenchmarkSentence(sentence_id=sentence_id, text=text,
                             mentions=tuple(GoldMention(*m) for m in mentions))


@pytest.fixture
def small_kb():
    return MappingIndex([
        KbRecord(1, "Jean-Philippe Rameau", "Q1"),
        KbRecord(2, "Les Indes galantes", "Q2"),
        KbRecord(3, "Thomas Moore", "Q3"),
        KbRecord(4, "Felix Mendelssohn", "Q4"),
        KbRecord(5, "Mendelssohn", None, redirect_to="Felix Mendelssohn"),
    ])


@pytest.fixture
def stub_server():
    from stubserver import StubServer

    servers = []

    def make(respond, ssl_context=None):
        server = StubServer(respond, ssl_context)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


@pytest.fixture
def line_checked(monkeypatch):
    """The paths `load_counts` hands to its line checker, `read_records`:
    every counts file it does not find in the input cache."""
    paths = []

    def spy(path, *args, **kwargs):
        paths.append(path)
        return read_records(path, *args, **kwargs)

    monkeypatch.setattr(popularity, "read_records", spy)
    return paths
